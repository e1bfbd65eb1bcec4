import math

import numpy as np
import pytest

from pwltree.baselines import (
    GaussianKernelRegressor,
    LinearFilter,
    VolterraFilter,
    vf_features,
)
from pwltree.datagen import generate
from pwltree.harness import ConfigError, make_learner

from helpers import kernel_values


# the entries a config needs besides kind and mu
BASELINE_SPECS = {"lf": {}, "vf": {}, "gkr": {"centers": [[0.0, 0.0]], "covariances": 1.0}}


@pytest.mark.parametrize("kind", BASELINE_SPECS)
class TestStepSize:
    @pytest.mark.parametrize("mu", ["abc", "0.01", np.nan, -np.inf, 0, -0.5, True, None,
                                    lambda t: 0.1])
    def test_refused_when_built(self, kind, mu):
        # only the tree learners and the oracle take a step-size schedule
        with pytest.raises(ConfigError, match=f"cannot build learner kind '{kind}': mu must be "
                                              "a finite number > 0, got"):
            make_learner({"kind": kind, "mu": mu, **BASELINE_SPECS[kind]}, 2)

    @pytest.mark.parametrize("mu", [0.05, 1, np.float64(0.5), np.int64(2)])
    def test_number_accepted(self, kind, mu):
        assert make_learner({"kind": kind, "mu": mu, **BASELINE_SPECS[kind]}, 2).mu == float(mu)


class TestLinearFilter:
    def test_zero_init_predicts_zero(self):
        assert LinearFilter(2).predict(np.array([1.0, 2.0, 1.0])).y_hat == 0.0

    def test_zero_error_step_keeps_weights(self):
        lf = LinearFilter(2, mu=0.1)
        lf.v = np.array([1.0, -1.0, 0.5])
        x = np.array([2.0, 1.0, 1.0])
        y = lf.predict(x).y_hat
        lf.step(x, y)
        np.testing.assert_array_equal(lf.v, [1.0, -1.0, 0.5])

    def test_converges_on_noiseless_linear_stream(self):
        rng = np.random.default_rng(2)
        w0 = np.array([0.7, -1.2, 0.3])
        lf = LinearFilter(2, mu=0.05)
        for _ in range(4000):
            x = np.append(rng.normal(size=2), 1.0)
            lf.step(x, float(w0 @ x))
        np.testing.assert_allclose(lf.v, w0, atol=1e-3)


class TestVolterraFeatures:
    def test_two_dim_second_order(self):
        x = np.array([2.0, 3.0])
        np.testing.assert_allclose(vf_features(x, 2), [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])

    def test_zero_input(self):
        feats = vf_features(np.zeros(2), 2)
        assert feats[0] == 1.0
        assert not feats[1:].any()

    def test_third_order_dimension(self):
        assert vf_features(np.zeros(2), 3).size == 10

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("order", [2, 3])
    def test_dimension_matches_multiset_count(self, m, order):
        expected = sum(math.comb(m + q - 1, q) for q in range(order + 1))
        assert vf_features(np.zeros(m), order).size == expected

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            vf_features(np.zeros(2), 4)
        for order in (2.0, True, "2"):
            with pytest.raises(ValueError, match="order must be an integer"):
                VolterraFilter(2, order=order)


class TestVolterraFilter:
    def test_learns_quadratic_map(self):
        stream = generate("henon", 20000)
        # map everything onto [-1, 1] as the benchmark protocol does
        def unit(v):
            return 2 * (v - v.min()) / (v.max() - v.min()) - 1
        x_ext = np.column_stack([unit(stream.inputs[:, 0]), unit(stream.inputs[:, 1]),
                                 np.ones(len(stream))])
        d = unit(stream.targets)
        vf = VolterraFilter(2, order=2, mu=0.05)
        for t in range(len(d)):
            vf.step(x_ext[t], d[t])
        # the generating recursion lives in the order-2 feature span
        errs = [abs(vf.predict(x_ext[t]).y_hat - d[t]) for t in range(len(d) - 100, len(d))]
        assert max(errs) < 1e-3


class TestGaussianKernel:
    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            covs = rng.normal(size=(3, 2, 2))
            covs = covs @ covs.transpose(0, 2, 1) + 0.5 * np.eye(2)
            centers = rng.normal(size=(3, 2))
            x = rng.normal(size=2)
            got = kernel_values(GaussianKernelRegressor(centers, covs), x)
            for p, (center, cov) in enumerate(zip(centers, covs)):
                norm = 1.0 / (2 * np.pi * np.sqrt(np.linalg.det(cov)))
                delta = x - center
                expected = norm * np.exp(-0.5 * delta @ np.linalg.inv(cov) @ delta)
                assert got[p] == pytest.approx(expected, rel=1e-12)


class TestGaussianKernelRegressor:
    def make(self, mu=1.0):
        centers = 1.2 * np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0]])
        return GaussianKernelRegressor(centers, 1.2, mu=mu)

    def test_zero_regressors_predict_zero(self):
        gkr = self.make()
        assert gkr.predict(np.array([0.4, 0.4, 1.0])).y_hat == 0.0

    def test_kernel_values_positive_and_peaked_at_centers(self):
        gkr = self.make()
        f_center = kernel_values(gkr, gkr.centers[0])
        f_far = kernel_values(gkr, np.array([5.0, 5.0]))
        assert f_center[0] > f_far[0]
        assert (f_center > 0).all()

    def test_single_center_fixed_input_is_scaled_lms(self):
        gkr = GaussianKernelRegressor(np.array([[0.0, 0.0]]), 1.0, mu=0.5)
        x = np.array([1.0, 0.0, 1.0])
        f = float(kernel_values(gkr, x[:-1])[0])
        lf_gain = []
        for d in (1.0, -0.5, 2.0):
            pred = gkr.predict(x)
            gkr.update(x, d, pred)
            lf_gain.append(gkr.v.copy())
        # each update moved v by mu * e * f * x, i.e. plain LMS with gain mu*f
        np.testing.assert_allclose(lf_gain[0][0], 0.5 * 1.0 * f * x)

    def test_update_is_the_broadcast_rank_one_step_bit_for_bit(self):
        gkr = self.make(mu=0.3)
        stream = generate("mismatched", 300, seed=4)
        for x, d in zip(stream.extended, stream.targets):
            pred = gkr.predict(x)
            e = d - pred.y_hat
            want = gkr.v + gkr.mu * e * pred.kernel[:, None] * pred.features
            gkr.update(x, d, pred)
            np.testing.assert_array_equal(gkr.v, want)
        assert np.abs(gkr.v).max() > 0.1

    def test_centre_validation(self):
        with pytest.raises(ValueError, match="centers must be finite"):
            GaussianKernelRegressor([[np.nan, 0.0]], 1.0)
        with pytest.raises(ValueError, match="centers must be finite"):
            GaussianKernelRegressor([[0.0, 0.0], [np.inf, 1.0]], 1.0)
        with pytest.raises(ValueError, match="centers must be a list of points"):
            GaussianKernelRegressor(np.zeros((2, 2, 2)), 1.0)
        for centers in ([[True, 0.0]], [["0.5", 0.0]], [[0.0, 0.0], [1.0]]):
            with pytest.raises(ValueError, match="centers must be a list of points, numbers only"):
                GaussianKernelRegressor(centers, 1.0)
        with pytest.raises(ConfigError, match="centers must have 2 coordinates, the stream's "
                                              "dim, not 3"):
            make_learner({"kind": "gkr", "centers": [[0.0, 0.0, 0.0]], "covariances": 1.0}, 2)

    def test_covariance_validation(self):
        with pytest.raises(ValueError):
            GaussianKernelRegressor(np.zeros((2, 2)), np.zeros((2, 2)))  # singular
        with pytest.raises(ValueError):
            GaussianKernelRegressor(np.zeros((2, 2)), np.zeros((3, 2, 2)))
        # det 1.44 > 0, yet negative definite: the kernel grows away from the centre
        with pytest.raises(ValueError, match="covariances must be positive definite"):
            GaussianKernelRegressor(np.zeros((1, 2)), -1.2)
        # positive determinant, not symmetric
        with pytest.raises(ValueError, match="covariances must be finite symmetric matrices"):
            GaussianKernelRegressor(np.zeros((2, 2)), [np.eye(2), [[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="must be finite symmetric matrices"):
            GaussianKernelRegressor(np.zeros((1, 2)), np.nan)
        with pytest.raises(ConfigError, match="must be positive definite"):
            make_learner({"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": -1.2}, 2)
        # numbers only, as in a snapshot: numpy would read true as 1.0 and "1.2" as 1.2
        for bad in (True, np.bool_(True), "1.2", [[1.0, 0.0], [0.0, True]], None):
            with pytest.raises(ValueError, match="covariances must hold only numbers"):
                GaussianKernelRegressor(np.zeros((1, 2)), bad)
        GaussianKernelRegressor(np.zeros((1, 2)), [[2.0, 0.3], [0.3, 1.0]])

    def test_learns_smooth_target(self):
        rng = np.random.default_rng(3)
        gkr = self.make(mu=1.0)
        for _ in range(3000):
            x = rng.normal(size=2)
            d = 0.5 * x[0] - 0.2 * x[1]
            gkr.step(np.append(x, 1.0), d)
        errs = []
        for _ in range(200):
            x = rng.normal(size=2)
            d = 0.5 * x[0] - 0.2 * x[1]
            errs.append((gkr.predict(np.append(x, 1.0)).y_hat - d) ** 2)
        assert np.mean(errs) < 0.05
