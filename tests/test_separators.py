"""Region separators: the default hyperplanes, and the hard and soft gates
as the tree learners evaluate them.

The gates have no standalone implementation; each case reads them off a
learner: ``FixedTreeRegressor`` and the hard ``DirectMixtureRegressor``
route on the sign of ``x . theta``, ``AdaptiveTreeRegressor`` and the soft
``DirectMixtureRegressor`` expose the clamped logistic ``s``, its
unclamped ``u`` and the activation cascade ``alphas``.
"""

import math

import numpy as np
import pytest

from pwltree.adaptive_tree import AdaptiveTreeRegressor
from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.mixture import DirectMixtureRegressor
from pwltree.separators import initial_directions

from helpers import label


def ext(x1, x2):
    return np.array([x1, x2, 1.0])


def gate_reader(theta, s_plus=0.01):
    """Depth-1 adaptive tree whose output is its root gate.

    With ``w = [0, 1, 0]`` both children have combination weight 1, and with
    unit offset on child 0 only, ``y_hat = s`` and the mixture's sensitivity
    to the gate is 1, so ``boundary_factors()[0]`` is the gate's slope
    ``ds / d(-x . theta)``.
    """
    lrn = AdaptiveTreeRegressor(1, 2, s_plus=s_plus, theta=[theta])
    lrn.w[1] = 1.0
    lrn.v[1] = ext(0.0, 0.0)
    return lrn


def gate_gradient(lrn, x):
    """Gradient of the root gate with respect to its hyperplane."""
    return -lrn.boundary_factors(lrn.predict(x))[0] * x


class TestSeparatorValidation:
    def test_clamp_range(self):
        for s_plus in (0.5, -0.1):
            with pytest.raises(ValueError):
                AdaptiveTreeRegressor(1, 2, s_plus=s_plus)
            with pytest.raises(ValueError):
                DirectMixtureRegressor(1, 2, mode="soft", s_plus=s_plus)

    def test_theta_must_be_finite_vector(self):
        bad = [[np.inf, 0.0, 0.0]]
        with pytest.raises(ValueError):
            AdaptiveTreeRegressor(1, 2, theta=bad)
        with pytest.raises(ValueError):
            FixedTreeRegressor(1, 2, boundaries=bad)
        with pytest.raises(ValueError):
            DirectMixtureRegressor(1, 2, mode="soft", boundaries=[[0.0, np.nan, 0.0]])
        with pytest.raises(ValueError):
            AdaptiveTreeRegressor(1, 2, theta=np.zeros((2, 2)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            DirectMixtureRegressor(1, 2, mode="fuzzy")


class TestEvaluate:
    def test_zero_direction_gives_half(self):
        lrn = AdaptiveTreeRegressor(1, 2, theta=np.zeros((1, 3)))
        assert lrn.predict(np.array([4.0, -2.0, 1.0])).s[0] == 0.5

    def test_clamp_floor_reached_far_from_plane(self):
        lrn = DirectMixtureRegressor(1, 2, mode="soft", s_plus=0.01, boundaries=[[1e4, 0.0, 0.0]])
        assert lrn.predict(ext(1.0, 0.0)).s[0] == pytest.approx(0.01)
        assert lrn.predict(ext(-1.0, 0.0)).s[0] == pytest.approx(0.99)

    def test_log_three_argument(self):
        lrn = gate_reader([math.log(3.0), 0.0, 0.0], s_plus=1e-12)
        pred = lrn.predict(ext(1.0, 0.0))
        assert pred.u[0] == pytest.approx(0.25, rel=1e-12)
        assert pred.y_hat == pytest.approx(0.25, rel=1e-9)

    def test_output_always_inside_clamp(self):
        rng = np.random.default_rng(0)
        lrn = AdaptiveTreeRegressor(2, 3, s_plus=0.05, theta=rng.normal(size=(3, 4)) * 50)
        for _ in range(100):
            s = lrn.predict(np.append(rng.normal(size=3) * 10, 1.0)).s
            assert ((0.05 <= s) & (s <= 0.95)).all()

    def test_monotone_decreasing_in_projection(self):
        lrn = AdaptiveTreeRegressor(1, 2, theta=[[1.0, 0.0, 0.0]])
        vals = [lrn.predict(ext(z, 0.0)).s[0] for z in (-2.0, -0.5, 0.0, 0.5, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_hard_indicator_and_tie(self):
        plane = [[1.0, 0.0, 0.0]]
        fixed = FixedTreeRegressor(1, 2, boundaries=plane)
        direct = DirectMixtureRegressor(1, 2, mode="hard", boundaries=plane)
        for x, leaf, index in ((ext(-1.0, 0.0), "0", 1), (ext(2.0, 0.0), "1", 2),
                               # a point exactly on the plane goes to child 1
                               (ext(0.0, 0.0), "1", 2)):
            assert label(fixed.locate_leaf(x)) == leaf
            assert list(direct.predict(x).path_indices) == [0, index]

    def test_hard_is_sharp_soft_limit(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=3)
        hard = FixedTreeRegressor(1, 2, boundaries=[theta])
        sharp = AdaptiveTreeRegressor(1, 2, s_plus=1e-12, theta=[theta * 1e4])
        for _ in range(200):
            x = np.append(rng.normal(size=2), 1.0)
            if abs(float(x @ theta)) < 1e-3:
                continue  # undecided band around the plane
            leaf = hard.locate_leaf(x)
            assert abs(sharp.predict(x).alphas[leaf] - 1.0) < 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            AdaptiveTreeRegressor(1, 2).predict(np.zeros(4))
        with pytest.raises(ValueError):
            FixedTreeRegressor(1, 2).predict(np.zeros(4))


class TestGradient:
    def test_zero_direction(self):
        x = np.array([2.0, -1.0, 1.0])
        np.testing.assert_allclose(gate_gradient(gate_reader(np.zeros(3), s_plus=1e-12), x),
                                   -0.25 * x, rtol=1e-9)

    def test_clamped_zero_direction(self):
        x = np.array([2.0, -1.0, 1.0])
        np.testing.assert_allclose(gate_gradient(gate_reader(np.zeros(3), s_plus=0.1), x),
                                   -0.2 * x, rtol=1e-12)

    def test_hard_mode_has_no_gradient(self):
        rng = np.random.default_rng(5)
        lrn = DirectMixtureRegressor(2, 2, mode="hard")
        before = lrn.boundaries.copy()
        for _ in range(20):
            lrn.step(np.append(rng.normal(size=2), 1.0), rng.normal())
        np.testing.assert_array_equal(lrn.boundaries, before)
        assert not hasattr(lrn, "theta")
        with pytest.raises(ValueError):
            lrn.boundaries[0, 0] = 1.0
        with pytest.raises(ValueError):
            FixedTreeRegressor(2, 2).boundaries[0, 0] = 1.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            theta = rng.normal(size=3)
            s_plus = rng.uniform(1e-3, 0.2)
            x = np.append(rng.normal(size=2), 1.0)
            lrn = gate_reader(theta, s_plus=s_plus)
            grad = gate_gradient(lrn, x)
            fd = np.empty(3)
            for j in range(3):
                lrn.theta[0, j] += h
                up = lrn.predict(x).y_hat
                lrn.theta[0, j] -= 2 * h
                dn = lrn.predict(x).y_hat
                lrn.theta[0, j] += h
                fd[j] = (up - dn) / (2 * h)
            err = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-8)
            assert err <= 1e-5


class TestBranchFactor:
    def test_basic(self):
        for theta, s_plus, x, child0 in (([0.0, 0.0, 0.0], 0.01, ext(0.3, 0.2), 0.5),
                                         ([math.log(3.0), 0.0, 0.0], 1e-12, ext(1.0, 0.0), 0.25),
                                         ([1e4, 0.0, 0.0], 0.01, ext(1.0, 0.0), 0.01)):
            alphas = AdaptiveTreeRegressor(1, 2, s_plus=s_plus, theta=[theta]).predict(x).alphas
            assert alphas[1] == pytest.approx(child0, rel=1e-9)
            assert alphas[2] == pytest.approx(1.0 - child0, rel=1e-9)

    def test_children_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta = rng.normal(size=(7, 3)) * 5
            x = np.append(rng.normal(size=2), 1.0)
            for lrn in (AdaptiveTreeRegressor(3, 2, theta=theta),
                        DirectMixtureRegressor(3, 2, mode="soft", boundaries=theta)):
                alphas = lrn.predict(x).alphas
                np.testing.assert_allclose(alphas[1::2] + alphas[2::2], alphas[:7], rtol=1e-12)


class TestPathProduct:
    def test_root_is_empty_product(self):
        rng = np.random.default_rng(13)
        theta = rng.normal(size=(3, 3))
        x = np.append(rng.normal(size=2), 1.0)
        assert AdaptiveTreeRegressor(2, 2, theta=theta).predict(x).alphas[0] == 1.0
        assert AdaptiveTreeRegressor(0, 2).predict(x).alphas[0] == 1.0
        assert DirectMixtureRegressor(2, 2, mode="soft", boundaries=theta).predict(x).alphas[0] == 1.0

    def test_two_halvings(self):
        lrn = AdaptiveTreeRegressor(2, 2, theta=np.zeros((3, 3)))
        assert lrn.predict(ext(0.4, -0.9)).alphas[3] == 0.25  # node "00"

    def test_hard_path_selection(self):
        # input in the cell of "01": root gate open toward 0, next toward 1
        x = ext(1.0, -1.0)
        path = FixedTreeRegressor(2, 2).predict(x).path_indices
        assert [label(int(i)) for i in path] == ["", "0", "01"]
        assert list(DirectMixtureRegressor(2, 2, mode="hard").predict(x).path_indices) == [0, 1, 4]


class TestInitialDirections:
    def test_quadrants_for_depth_two(self):
        dirs = initial_directions(2, 2)
        np.testing.assert_allclose(dirs[0], [-1.0, 0.0, 0.0])   # root splits on x1
        np.testing.assert_allclose(dirs[1], [0.0, -1.0, 0.0])   # depth-1 on x2
        np.testing.assert_allclose(dirs[2], [0.0, -1.0, 0.0])

    def test_axis_cycling_wide_input(self):
        dirs = initial_directions(3, 8)
        assert list(np.flatnonzero(dirs[0])) == [0, 3, 6]
        assert list(np.flatnonzero(dirs[1])) == [1, 4, 7]
        assert list(np.flatnonzero(dirs[3])) == [2, 5]

    def test_offsets_start_at_zero(self):
        assert not initial_directions(3, 4)[:, -1].any()

    def test_depth_zero_has_no_rows(self):
        assert initial_directions(0, 2).shape == (0, 3)
