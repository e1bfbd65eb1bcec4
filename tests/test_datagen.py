import math
import re

import numpy as np
import pytest

from pwltree.datagen import (
    PIECEWISE,
    Stream,
    first_order_values,
    generate,
    matched_values,
    mismatched_values,
    stream_to_csv,
    third_order_values,
)

W = np.array([1.0, 1.0])


def literal_matched(x):
    p0, p1 = x[0], x[1]
    if p0 >= 0 and p1 >= 0:
        return W @ x
    if p0 >= 0 and p1 < 0:
        return -(W @ x)
    if p0 < 0 and p1 >= 0:
        return -(W @ x)
    return W @ x


def literal_mismatched(x):
    p0 = 4 * x[0] - x[1]
    p1 = x[0] + x[1]
    p2 = x[0] + 2 * x[1]
    if p0 >= 0.5 and p1 >= 1:
        return W @ x
    if p0 >= 0.5 and p1 < 1:
        return -(W @ x)
    if p0 < 0.5 and p2 >= -1:
        return -(W @ x)
    return W @ x


def literal_first_order(x):
    return W @ x if 4 * x[0] - x[1] >= 0.5 else -(W @ x)


def literal_third_order(x):
    p0 = 4 * x[0] - x[1] >= 0.5
    p1 = x[0] + x[1] >= 1
    p2 = -x[0] - 2 * x[1] >= 0.5
    p3 = x[1] >= 0.5
    p4 = x[0] >= 0.5
    p5 = -x[0] >= 0.5
    p6 = -x[1] >= 0.5
    if p0 and p1 and p3:
        return W @ x
    if p0 and p1 and not p3:
        return -(W @ x)
    if p0 and not p1 and p4:
        return W @ x
    if p0 and not p1 and not p4:
        return -(W @ x)
    if not p0 and not p2 and not p5:
        return W @ x
    if not p0 and not p2 and p5:
        return -(W @ x)
    if not p0 and p2 and not p6:
        return W @ x
    return -(W @ x)


class TestPiecewiseValues:
    def test_matched_hand_cases(self):
        assert matched_values(np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0)
        assert matched_values(np.array([[1.0, -1.0]]))[0] == pytest.approx(0.0)
        assert matched_values(np.array([[-1.0, -2.0]]))[0] == pytest.approx(-3.0)

    def test_mismatched_hand_cases(self):
        assert mismatched_values(np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0)
        assert mismatched_values(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.0)

    def test_first_order_hand_case(self):
        assert first_order_values(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_third_order_hand_case(self):
        assert third_order_values(np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("vectorized, literal", [
        (matched_values, literal_matched),
        (mismatched_values, literal_mismatched),
        (first_order_values, literal_first_order),
        (third_order_values, literal_third_order),
    ])
    def test_vectorized_matches_literal_branch_tables(self, vectorized, literal):
        grid = np.linspace(-3.0, 3.0, 41)
        pts = np.array([[a, b] for a in grid for b in grid])
        got = vectorized(pts)
        want = np.array([literal(p) for p in pts])
        np.testing.assert_allclose(got, want)

    @pytest.mark.parametrize("values", [matched_values, mismatched_values,
                                        first_order_values, third_order_values])
    def test_magnitude_is_always_the_linear_response(self, values):
        grid = np.linspace(-3.0, 3.0, 41)
        pts = np.array([[a, b] for a in grid for b in grid])
        np.testing.assert_allclose(np.abs(values(pts)), np.abs(pts @ W))


class TestGaussianStreams:
    def test_deterministic_reruns(self):
        a = generate("matched", 500, seed=7)
        b = generate("matched", 500, seed=7)
        assert (a.inputs == b.inputs).all()
        assert (a.targets == b.targets).all()

    def test_different_seeds_differ(self):
        a = generate("matched", 500, seed=7)
        b = generate("matched", 500, seed=8)
        assert (a.inputs != b.inputs).any()

    def test_noiseless_targets_exact(self):
        s = generate("matched", 500, seed=7, noise_var=0.0)
        np.testing.assert_allclose(s.targets, matched_values(s.inputs))

    def test_noise_variance_close_to_configured(self):
        s = generate("mismatched", 200000, seed=9)
        clean = mismatched_values(s.inputs)
        noise = s.targets - clean
        assert abs(noise.var() - 0.1) < 0.005
        assert abs(noise.mean()) < 0.01

    def test_sampler_moments_within_one_percent(self):
        s = generate("matched", 1_000_000, seed=1)
        x = s.inputs
        assert np.abs(x.mean(axis=0)).max() < 0.01
        cov = np.cov(x.T)
        assert abs(cov[0, 0] - 1.0) < 0.01
        assert abs(cov[1, 1] - 1.0) < 0.01
        assert abs(cov[0, 1]) < 0.01

    def test_all_mismatched_branches_visited(self):
        s = generate("mismatched", 100000, seed=3, noise_var=0.0)
        x = s.inputs
        p0 = 4 * x[:, 0] - x[:, 1] >= 0.5
        p1 = x[:, 0] + x[:, 1] >= 1.0
        p2 = x[:, 0] + 2 * x[:, 1] >= -1.0
        counts = [
            (p0 & p1).sum(), (p0 & ~p1).sum(), (~p0 & p2).sum(), (~p0 & ~p2).sum(),
        ]
        assert all(c > 0 for c in counts)

    def test_extended_appends_ones(self):
        s = generate("matched", 10, seed=0)
        assert (s.extended[:, -1] == 1.0).all()
        assert s.extended.shape == (10, 3)


class TestParameterChecks:
    @pytest.mark.parametrize("kind", ["henon", "lorenz"])
    @pytest.mark.parametrize("burn_in, message", [
        (-4, "burn_in must be >= 0, got -4"),
        (True, "burn_in must be an integer, got True"),
        (2.5, "burn_in must be an integer, got 2.5"),
    ])
    def test_bad_burn_in_is_refused(self, kind, burn_in, message):
        # a negative burn-in used to leave rows of the np.empty arrays unset
        with pytest.raises(ValueError, match=message):
            generate(kind, 8, burn_in=burn_in)

    @pytest.mark.parametrize("kind", ["henon", "lorenz"])
    def test_zero_burn_in_starts_at_the_initial_state(self, kind):
        full = generate(kind, 30)
        tail = generate(kind, 130, burn_in=0)
        np.testing.assert_array_equal(full.targets, tail.targets[100:])
        np.testing.assert_array_equal(full.inputs, tail.inputs[100:])

    @pytest.mark.parametrize("noise_var", [-1, -1e-12, math.nan, math.inf, True, "0.1", None])
    def test_bad_noise_var_is_refused(self, noise_var):
        message = f"noise_var must be a finite number >= 0, got {noise_var!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate("matched", 5, seed=0, noise_var=noise_var)

    def test_numbers_at_least_zero_are_taken(self):
        default = generate("matched", 50, seed=7)
        same = generate("matched", 50, seed=7, noise_var=np.float64(0.1))
        np.testing.assert_array_equal(same.targets, default.targets)
        clean = generate("matched", 50, seed=7, noise_var=0)
        np.testing.assert_array_equal(clean.targets, matched_values(clean.inputs))


class TestHenon:
    def test_hand_iteration_from_origin(self):
        s = generate("henon", 3, burn_in=0)
        np.testing.assert_allclose(s.targets, [1.0, -0.4, 1.076])
        np.testing.assert_allclose(s.inputs[0], [0.0, 0.0])
        np.testing.assert_allclose(s.inputs[1], [1.0, 0.0])
        np.testing.assert_allclose(s.inputs[2], [-0.4, 1.0])

    def test_degenerate_parameters_give_constant(self):
        s = generate("henon", 50, zeta=0.0, eta=0.0, burn_in=0)
        np.testing.assert_allclose(s.targets, 1.0)

    def test_orbit_stays_bounded(self):
        s = generate("henon", 100000)
        assert np.abs(s.targets).max() < 2.0

    def test_divergent_initial_state_raises(self):
        with pytest.raises(ValueError):
            generate("henon", 10, init=(1e6, 0.0), burn_in=0)

    def test_inputs_are_lagged_targets(self):
        s = generate("henon", 500)
        np.testing.assert_allclose(s.inputs[1:, 0], s.targets[:-1])
        np.testing.assert_allclose(s.inputs[2:, 1], s.targets[:-2])


class TestLorenz:
    def test_single_euler_step(self):
        s = generate("lorenz", 1, burn_in=0)
        assert s.targets[0] == pytest.approx(1.0)
        assert s.inputs[0, 0] == pytest.approx(1.26)
        assert s.inputs[0, 1] == pytest.approx(1.0 + (1.0 - 8.0 / 3.0) * 0.01)

    def test_zero_coupling_keeps_first_coordinate(self):
        s = generate("lorenz", 100, sigma=0.0, burn_in=0)
        np.testing.assert_allclose(s.targets, 1.0)

    def test_trajectory_bounded(self):
        s = generate("lorenz", 100000)
        assert np.abs(s.inputs[:, 1]).max() < 60.0

    def test_deterministic(self):
        a = generate("lorenz", 1000)
        b = generate("lorenz", 1000)
        assert (a.targets == b.targets).all()


class TestDispatch:
    def test_known_kinds(self):
        assert len(generate("matched", 10, seed=1)) == 10
        assert len(generate("henon", 10)) == 10

    def test_seed_required_for_random_kinds(self):
        with pytest.raises(ValueError):
            generate("matched", 10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("nope", 10, seed=1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.bool_(True), "3", [1]])
    def test_non_integer_seed_refused(self, seed):
        # a float or boolean seed used to key the generator as np.uint64(seed)
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            generate("matched", 5, seed=seed)

    @pytest.mark.parametrize("kind", ["matched", "henon", "lorenz"])
    @pytest.mark.parametrize("n, message", [
        (2.5, "n must be an integer, got 2.5"),
        (True, "n must be an integer, got True"),
        ("5", "n must be an integer, got '5'"),
        (-3, "n must be >= 0, got -3"),
    ])
    def test_bad_length_refused(self, kind, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate(kind, n, seed=1)

    def test_integer_kinds_keep_the_default_streams(self):
        # a numpy integer seed or length names the same stream as the int
        ref = generate("mismatched", 40, seed=3)
        same = generate("mismatched", np.int64(40), seed=np.uint64(3))
        assert same.inputs.tobytes() == ref.inputs.tobytes()
        assert same.targets.tobytes() == ref.targets.tobytes()
        assert len(generate("matched", 0, seed=3)) == 0

    def test_piecewise_kinds_share_inputs_and_map_their_targets(self):
        # one seed draws the same inputs for every piecewise kind; only the
        # noiseless target table differs
        first = generate("matched", 50, seed=7, noise_var=0.0)
        for kind, values in PIECEWISE.items():
            s = generate(kind, 50, seed=7, noise_var=0.0)
            np.testing.assert_array_equal(s.inputs, first.inputs)
            np.testing.assert_array_equal(s.targets, values(s.inputs))


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        s = generate("matched", 30, seed=5)
        path = tmp_path / "stream.csv"
        stream_to_csv(s, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x1,x2,d"
        assert len(rows) == 31
        data = np.array([[float(c) for c in row.split(",")] for row in rows[1:]])
        np.testing.assert_array_equal(data[:, :2], s.inputs)
        np.testing.assert_array_equal(data[:, 2], s.targets)

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            Stream(np.zeros((3, 2)), np.zeros(4))
