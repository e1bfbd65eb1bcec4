import math
import re

import numpy as np
import pytest

from pwltree.datagen import BURN_IN, PIECEWISE, Stream, generate, piecewise_values, stream_to_csv

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


LITERAL = {"matched": literal_matched, "mismatched": literal_mismatched,
           "first_order": literal_first_order, "third_order": literal_third_order}


def henon_orbit(steps):
    """The first ``steps`` iterates of the quadratic map from the origin,
    written out."""
    d1 = d2 = 0.0
    orbit = []
    for _ in range(steps):
        d1, d2 = 1.0 - 1.4 * d1 * d1 + 0.3 * d2, d1
        orbit.append(d1)
    return np.array(orbit)


def lorenz_orbit(steps):
    """The first ``steps`` forward-Euler states of the convection flow from
    (1, 1, 1), written out."""
    x = y = z = 1.0
    orbit = []
    for _ in range(steps):
        x, y, z = (x + 10.0 * (y - x) * 0.01, y + (x * (28.0 - z) - y) * 0.01,
                   z + (x * y - 8.0 / 3.0 * z) * 0.01)
        orbit.append((x, y, z))
    return np.array(orbit)


class TestPiecewiseValues:
    def test_matched_hand_cases(self):
        assert piecewise_values("matched", np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0)
        assert piecewise_values("matched", np.array([[1.0, -1.0]]))[0] == pytest.approx(0.0)
        assert piecewise_values("matched", np.array([[-1.0, -2.0]]))[0] == pytest.approx(-3.0)

    def test_mismatched_hand_cases(self):
        assert piecewise_values("mismatched", np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0)
        assert piecewise_values("mismatched", np.array([[0.0, 0.0]]))[0] == pytest.approx(0.0)

    def test_first_order_hand_case(self):
        assert piecewise_values("first_order", np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_third_order_hand_case(self):
        assert piecewise_values("third_order", np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("kind", PIECEWISE, ids=lambda kind: f"{kind}_values")
    def test_vectorized_matches_literal_branch_tables(self, kind):
        # a dyadic grid: every product below is exact, and points such as
        # (0.25, 0.5) on 4 x1 - x2 = 0.5 sit exactly on each generating
        # hyperplane, so the tie convention (a tie goes up) is pinned
        grid = np.arange(-24, 25) / 8.0
        pts = np.array([[a, b] for a in grid for b in grid])
        planes, _ = PIECEWISE[kind]
        for a1, a2, c in planes:
            assert (pts @ np.array([a1, a2]) == c).any()
        got = piecewise_values(kind, pts)
        want = np.array([LITERAL[kind](p) for p in pts])
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", PIECEWISE, ids=lambda kind: f"{kind}_values")
    def test_magnitude_is_always_the_linear_response(self, kind):
        grid = np.linspace(-3.0, 3.0, 41)
        pts = np.array([[a, b] for a in grid for b in grid])
        np.testing.assert_allclose(np.abs(piecewise_values(kind, pts)), np.abs(pts @ W))


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
        np.testing.assert_allclose(s.targets, piecewise_values("matched", s.inputs))

    def test_noise_variance_close_to_configured(self):
        s = generate("mismatched", 200000, seed=9)
        clean = piecewise_values("mismatched", s.inputs)
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
    @pytest.mark.parametrize("noise_var", [-1, -1e-12, math.nan, math.inf, True, "0.1", None,
                                           pytest.param(10**400, id="10**400")])
    def test_bad_noise_var_is_refused(self, noise_var):
        message = f"noise_var must be a finite number >= 0, got {noise_var!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate("matched", 5, seed=0, noise_var=noise_var)

    @pytest.mark.parametrize("kind, init", [
        ("henon", [0.5]),
        ("henon", [0.5, 0.1, 7.0]),
        ("henon", (math.nan, 0.0)),
        ("henon", [0.0, -math.inf]),
        ("henon", [True, 0.0]),
        ("henon", "ab"),
        ("henon", 0.5),
        ("henon", None),
        ("lorenz", [1.0, 1.0]),
        ("lorenz", [1.0, 1.0, 1.0, 1.0]),
        ("lorenz", [1.0, math.nan, 1.0]),
        ("lorenz", ["1", 1.0, 1.0]),
        ("lorenz", [[1.0], [1.0], [1.0]]),
    ])
    def test_bad_initial_state_is_refused(self, kind, init):
        # the initial state is fixed, so any init is refused by name
        with pytest.raises(TypeError, match="unexpected keyword argument 'init'"):
            generate(kind, 5, init=init)

    @pytest.mark.parametrize("kind, key", [("henon", "zeta"), ("henon", "eta"), ("lorenz", "dt"),
                                           ("lorenz", "rho"), ("lorenz", "sigma"),
                                           ("lorenz", "beta"), ("henon", "burn_in"),
                                           ("lorenz", "burn_in")])
    @pytest.mark.parametrize("value", [True, np.bool_(False), "1.4", math.nan, -math.inf, None,
                                       [1.4]])
    def test_bad_map_parameter_is_refused(self, kind, key, value):
        # the map parameters and the burn-in are fixed, so any value of
        # theirs is refused by name
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
            generate(kind, 5, **{key: value})

    def test_default_streams_are_the_plain_recursions(self):
        # each stream is its recursion written out, after BURN_IN iterates
        assert BURN_IN == 100
        assert generate("henon", 200).targets.tobytes() == henon_orbit(300)[100:].tobytes()
        want = lorenz_orbit(300)[100:]
        lorenz = generate("lorenz", 200)
        assert lorenz.targets.tobytes() == want[:, 0].tobytes()
        assert lorenz.inputs.tobytes() == want[:, 1:].tobytes()

    def test_numbers_at_least_zero_are_taken(self):
        default = generate("matched", 50, seed=7)
        same = generate("matched", 50, seed=7, noise_var=np.float64(0.1))
        np.testing.assert_array_equal(same.targets, default.targets)
        clean = generate("matched", 50, seed=7, noise_var=0)
        np.testing.assert_array_equal(clean.targets, piecewise_values("matched", clean.inputs))


class TestHenon:
    def test_hand_iteration_from_origin(self):
        # the recursion from the origin, by hand, then the stream reads it
        # from iterate BURN_IN on with the two previous iterates as input
        orbit = henon_orbit(BURN_IN + 3)
        np.testing.assert_allclose(orbit[:3], [1.0, -0.4, 1.076])
        s = generate("henon", 3)
        np.testing.assert_array_equal(s.targets, orbit[BURN_IN:])
        np.testing.assert_array_equal(s.inputs[0], orbit[[BURN_IN - 1, BURN_IN - 2]])
        np.testing.assert_array_equal(s.inputs[2], orbit[[BURN_IN + 1, BURN_IN]])

    def test_orbit_stays_bounded(self):
        s = generate("henon", 100000)
        assert np.abs(s.targets).max() < 2.0

    def test_inputs_are_lagged_targets(self):
        s = generate("henon", 500)
        np.testing.assert_allclose(s.inputs[1:, 0], s.targets[:-1])
        np.testing.assert_allclose(s.inputs[2:, 1], s.targets[:-2])


class TestLorenz:
    def test_single_euler_step(self):
        # one Euler step from (1, 1, 1) by hand, then the stream reads the
        # recursion from step BURN_IN + 1 on
        orbit = lorenz_orbit(BURN_IN + 1)
        np.testing.assert_allclose(orbit[0], [1.0, 1.26, 1.0 + (1.0 - 8.0 / 3.0) * 0.01])
        s = generate("lorenz", 1)
        assert s.targets[0] == orbit[BURN_IN, 0]
        np.testing.assert_array_equal(s.inputs[0], orbit[BURN_IN, 1:])

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
        for kind in PIECEWISE:
            s = generate(kind, 50, seed=7, noise_var=0.0)
            np.testing.assert_array_equal(s.inputs, first.inputs)
            np.testing.assert_array_equal(s.targets, piecewise_values(kind, s.inputs))


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
