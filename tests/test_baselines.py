import math
import re
import sys

import numpy as np
import pytest

from pwltree.baselines import GaussianKernelRegressor, LinearFilter, VolterraFilter
from pwltree.datagen import generate
from pwltree.harness import ConfigError, make_learner, run_stream

from helpers import cholesky_kernel, kernel_values, reference_kernel_step, vf_features

# the worst relative gap allowed between the stream-level kernel map and the
# per-step Cholesky form, whose sums of squares are associated differently
KERNEL_RTOL = 1e-12


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
        rows = VolterraFilter(2).features(np.array([[2.0, 3.0, 1.0], [-1.0, 0.5, 1.0]]))
        np.testing.assert_array_equal(rows, [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0],
                                             [1.0, -1.0, 0.5, 1.0, -0.5, 0.25]])

    def test_zero_input(self):
        # the extended input's constant entry is dropped, the expansion's own kept
        feats = VolterraFilter(2).features(np.array([[0.0, 0.0, 1.0]]))[0]
        assert feats[0] == 1.0
        assert not feats[1:].any()

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("order", [2])
    def test_dimension_matches_multiset_count(self, m, order):
        expected = sum(math.comb(m + q - 1, q) for q in range(order + 1))
        assert vf_features(np.zeros(m)).size == expected
        assert VolterraFilter(m).features(np.ones((3, m + 1))).shape == (3, expected)
        assert VolterraFilter(m).v.size == expected

    def test_map_is_the_per_row_loop_bit_for_bit(self):
        # one numpy pass over the stream gives every row the bytes, and the
        # column order, of the per-row loop
        rng = np.random.default_rng(26)
        for k in range(120):
            m = int(rng.integers(1, 9))
            scale = (1e-3, 1.0, 1e3, np.exp(rng.normal(scale=10.0)))[k % 4]
            x_ext = np.column_stack([rng.normal(scale=scale, size=(25, m)), np.ones(25)])
            rows = VolterraFilter(m).features(x_ext)
            for row, x in zip(rows, x_ext):
                assert row.tobytes() == vf_features(x[:-1]).tobytes()

    def test_unsupported_order(self):
        # the filter is second order only, so an order key is refused by name
        for order in (2, 3, 2.0, True, "2"):
            with pytest.raises(ConfigError, match=re.escape(
                    "cannot build learner kind 'vf': it takes only mu, not 'order'")):
                make_learner({"kind": "vf", "order": order}, 2)


class TestVolterraFilter:
    def test_learns_quadratic_map(self):
        stream = generate("henon", 20000)
        # map everything onto [-1, 1] as the benchmark protocol does
        def unit(v):
            return 2 * (v - v.min()) / (v.max() - v.min()) - 1
        x_ext = np.column_stack([unit(stream.inputs[:, 0]), unit(stream.inputs[:, 1]),
                                 np.ones(len(stream))])
        d = unit(stream.targets)
        vf = VolterraFilter(2, mu=0.05)
        rows = vf.features(x_ext)
        for t in range(len(d)):
            vf.step(rows[t], d[t])
        # the generating recursion lives in the order-2 feature span
        errs = [abs(vf.predict(rows[t]).y_hat - d[t]) for t in range(len(d) - 100, len(d))]
        assert max(errs) < 1e-3

    def test_run_is_the_per_step_filter_bit_for_bit(self):
        # LMS over the one-pass rows repeats LMS over features built each step
        stream = generate("mismatched", 2000, seed=7)
        e2 = run_stream(VolterraFilter(2, mu=0.05), stream.extended, stream.targets).e2
        v, want = np.zeros(6), []
        for x, d in zip(stream.inputs, stream.targets.tolist()):
            feats = vf_features(x)
            e = d - float(v.dot(feats))
            want.append(e)
            v += (0.05 * e) * feats
        assert e2.tobytes() == (np.array(want) ** 2).tobytes()


class TestGaussianKernel:
    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            var = rng.uniform(0.1, 5.0)
            cov = var * np.eye(2)
            centers = rng.normal(size=(3, 2))
            x = rng.normal(size=2)
            got = kernel_values(GaussianKernelRegressor(centers, var), x)
            for p, center in enumerate(centers):
                norm = 1.0 / (2 * np.pi * np.sqrt(np.linalg.det(cov)))
                delta = x - center
                expected = norm * np.exp(-0.5 * delta @ np.linalg.inv(cov) @ delta)
                assert got[p] == pytest.approx(expected, rel=1e-12)

    def test_whitening_is_the_cholesky_form_bit_for_bit(self):
        # the normalisers from m copies of sigma carry the bits the Cholesky
        # factor gave; the kernel values, whose sums of squares the stream
        # map associates differently, agree to KERNEL_RTOL
        rng = np.random.default_rng(25)
        for k in range(600):
            p, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            centers = rng.normal(scale=2.0, size=(p, m))
            var = (1.2, rng.uniform(0.01, 10.0), np.exp(rng.normal(scale=5.0)))[k % 3]
            x = rng.normal(scale=2.0, size=m)
            gkr = GaussianKernelRegressor(centers, var)
            _, norms, kernel = cholesky_kernel(centers, var, x)
            assert gkr.norms.tobytes() == norms.tobytes()
            np.testing.assert_allclose(kernel_values(gkr, x), kernel, rtol=KERNEL_RTOL, atol=0)


class TestGaussianKernelRegressor:
    def make(self, mu=1.0):
        centers = 1.2 * np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0]])
        return GaussianKernelRegressor(centers, 1.2, mu=mu)

    def test_zero_regressors_predict_zero(self):
        gkr = self.make()
        assert gkr.v.shape == (4 * 3,)
        assert gkr.predict(gkr.features(np.array([[0.4, 0.4, 1.0]]))[0]).y_hat == 0.0

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
        row = gkr.features(x[None])[0]
        lf_gain = []
        for d in (1.0, -0.5, 2.0):
            pred = gkr.predict(row)
            gkr.update(row, d, pred)
            lf_gain.append(gkr.v.copy())
        # each update moved v by mu * e * f * x, i.e. plain LMS with gain mu*f
        np.testing.assert_allclose(lf_gain[0], 0.5 * 1.0 * f * x)

    def test_update_is_the_broadcast_rank_one_step_bit_for_bit(self):
        # the rank-1 step over every centre's regressor is the LMS step on
        # the row k (x) x_ext
        gkr = self.make(mu=0.3)
        stream = generate("mismatched", 300, seed=4)
        for row, d in zip(gkr.features(stream.extended), stream.targets):
            pred = gkr.predict(row)
            e = d - pred.y_hat
            want = gkr.v + gkr.mu * e * row
            gkr.update(row, d, pred)
            np.testing.assert_array_equal(gkr.v, want)
        assert np.abs(gkr.v).max() > 0.1

    @pytest.mark.parametrize("case", range(6))
    def test_lockstep_with_the_per_step_form(self, case):
        # LMS over k (x) x_ext predicts what f . (v . x_ext) with the rank-1
        # step predicted, to the association order: |dy| / (1 + |y|) <= 1e-12
        rng = np.random.default_rng(100 + case)
        if case == 0:  # the mismatched benchmark mix's centres and step
            stream = generate("mismatched", 3000, seed=100)
            centers = [[1.4565, 1.0203], [0.6203, -0.4565], [-0.5013, 0.5903], [-1.0903, -1.0013]]
            var, mu, x_ext, targets = 1.2, 1.0, stream.extended, stream.targets
        else:
            p, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            centers = rng.normal(size=(p, m))
            var, mu = rng.uniform(0.3, 3.0), rng.uniform(0.1, 1.0)
            x_ext = np.column_stack([rng.uniform(-1.5, 1.5, size=(1000, m)), np.ones(1000)])
            targets = np.sin(x_ext[:, :-1].sum(axis=1)) + 0.1 * rng.normal(size=1000)
        gkr = GaussianKernelRegressor(centers, var, mu=mu)
        v = np.zeros((len(gkr.centers), x_ext.shape[1]))
        worst = 0.0
        for row, x, d in zip(gkr.features(x_ext), x_ext, targets.tolist()):
            pred = gkr.predict(row)
            gkr.update(row, d, pred)
            y_ref = reference_kernel_step(v, centers, var, mu, x, d)
            worst = max(worst, abs(pred.y_hat - y_ref) / (1.0 + abs(y_ref)))
        assert worst <= 1e-12
        assert np.abs(v).max() > 0.01

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
        # one variance for every centre: a finite number > 0, numbers only
        # (numpy would read true as 1.0 and "1.2" as 1.2)
        for bad in (np.nan, np.inf, 0, 0.0, -1.2, True, np.bool_(True), "1.2", None,
                    np.eye(2), [[2.0, 0.3], [0.3, 1.0]], [1.2], np.zeros((1, 2, 2)), 10**400):
            with pytest.raises(ValueError, match=re.escape(
                    f"covariances must be a finite number > 0, got {bad!r}")):
                GaussianKernelRegressor(np.zeros((1, 2)), bad)
        with pytest.raises(ConfigError, match=re.escape(
                "cannot build learner kind 'gkr': covariances must be a finite number > 0, "
                "got -1.2")):
            make_learner({"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": -1.2}, 2)
        for good in (1.2, 1, np.float64(0.5), np.int64(3), 1e-300):
            assert GaussianKernelRegressor(np.zeros((1, 2)), good).norms[0] > 0
        # sigma^m underflows, or 1 / (2 pi sigma^m) overflows: the normaliser is
        # not finite, so the variance is refused in that dimension, by value
        for var, m in ((1e-300, 3), (1e-320, 2), (1e-200, 4)):
            with pytest.raises(ValueError, match=re.escape(
                    f"covariances {var!r} is too small in {m} dimensions: the kernel "
                    f"normaliser 1 / (2 pi sigma^{m}) is not finite")):
                GaussianKernelRegressor(np.zeros((2, m)), var)
        with pytest.raises(ConfigError, match=re.escape(
                "cannot build learner kind 'gkr': covariances 1e-300 is too small in 3 "
                "dimensions")):
            make_learner({"kind": "gkr", "centers": [[0.0, 0.0, 0.0]], "covariances": 1e-300}, 3)

    @pytest.mark.parametrize("var, m", [(1e300, 3), (1e200, 4), (1e308, 2)])
    def test_overflowing_variance_is_refused(self, var, m):
        # 2 pi sigma^m overflows, so the normaliser would be 0 and every
        # prediction 0: the variance is refused in that dimension, by value
        message = (f"covariances {var!r} is too large in {m} dimensions for mu 1.0: the "
                   f"largest LMS step mu (1 / (2 pi sigma^{m}))^2 is 0.0, below the smallest "
                   "normal float")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaussianKernelRegressor(np.zeros((1, m)), var)
        refused = f"cannot build learner kind 'gkr': {message}"
        with pytest.raises(ConfigError, match=f"^{re.escape(refused)}$"):
            make_learner({"kind": "gkr", "centers": [[0.0] * m], "covariances": var}, m)
        # in one dimension, at a step size that keeps mu norm^2 a normal
        # float (1e308's norm^2 is 2.5e-310), the same variance is accepted
        assert GaussianKernelRegressor(np.zeros((1, 1)), var, mu=1e4).norms[0] > 0.0

    @pytest.mark.parametrize("var, m, mu", [(1e300, 2, 1.0), (1e200, 3, 0.5), (1e153, 2, 0.5)])
    def test_variance_too_large_to_learn_is_refused(self, var, m, mu):
        # the normaliser is > 0, but mu norm^2, the largest step a regressor
        # can take, is below the smallest normal float, so none can learn
        message = (f"covariances {var!r} is too large in {m} dimensions for mu {mu!r}: the "
                   f"largest LMS step mu (1 / (2 pi sigma^{m}))^2 is ")
        tail = ", below the smallest normal float"
        pattern = f"^{re.escape(message)}[^ ]+{re.escape(tail)}$"
        with pytest.raises(ValueError, match=pattern):
            GaussianKernelRegressor(np.zeros((1, m)), var, mu=mu)
        with pytest.raises(ConfigError, match=pattern.replace(
                "^", "^" + re.escape("cannot build learner kind 'gkr': "), 1)):
            make_learner({"kind": "gkr", "centers": [[0.0] * m], "covariances": var, "mu": mu}, m)
        # mu is checked first, so a bad step size is named as such
        with pytest.raises(ValueError, match=re.escape("mu must be a finite number > 0, got -1")):
            GaussianKernelRegressor(np.zeros((1, m)), var, mu=-1)

    @pytest.mark.parametrize("var, m, mu", [(1.2, 2, 1.0), (1e10, 2, 1.0), (1e153, 2, 1.0)])
    def test_variance_with_a_normal_lms_step_is_accepted(self, var, m, mu):
        # 1.2 is the shipped configs' variance; 1e10 learns little in a few
        # thousand steps, but its step is a normal float, so it is accepted
        gkr = GaussianKernelRegressor(np.zeros((1, m)), var, mu=mu)
        assert gkr.mu * gkr.norms[0] ** 2 >= sys.float_info.min

    def test_learns_smooth_target(self):
        rng = np.random.default_rng(3)
        gkr = self.make(mu=1.0)
        x = rng.normal(size=(3200, 2))
        d = 0.5 * x[:, 0] - 0.2 * x[:, 1]
        rows = gkr.features(np.column_stack([x, np.ones(len(x))]))
        for t in range(3000):
            gkr.step(rows[t], d[t])
        errs = [(gkr.predict(rows[t]).y_hat - d[t]) ** 2 for t in range(3000, 3200)]
        assert np.mean(errs) < 0.05
