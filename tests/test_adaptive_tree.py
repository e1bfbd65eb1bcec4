import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwltree.adaptive_tree import AdaptiveTreeRegressor
from pwltree.datagen import generate
from pwltree.mixture import DirectMixtureRegressor


def ext(x1, x2):
    return np.array([x1, x2, 1.0])


def loop_alphas(s, n_nodes):
    """Reference activation cascade: one parent-to-children pass per
    internal node, in heap order."""
    alphas = np.empty(n_nodes)
    alphas[0] = 1.0
    for i in range(s.size):
        alphas[2 * i + 1] = alphas[i] * s[i]
        alphas[2 * i + 2] = alphas[i] * (1.0 - s[i])
    return alphas


def loop_boundary_factors(lrn, pred):
    """Reference boundary factors: subtree sums of kappa * h accumulated
    bottom-up, one node at a time."""
    g = pred.kappas * pred.h
    sub = np.empty(lrn.n_nodes)
    for i in range(lrn.n_nodes - 1, -1, -1):
        sub[i] = g[i]
        if i < lrn.n_internal:
            sub[i] += sub[2 * i + 1] + sub[2 * i + 2]
    sigma = sub[1::2] / pred.s - sub[2::2] / (1.0 - pred.s)
    return sigma * (1.0 - 2.0 * lrn.s_plus) * pred.u * (1.0 - pred.u)


def random_state(lrn, rng):
    lrn.v = rng.normal(size=lrn.v.shape)
    lrn.w = rng.normal(size=lrn.w.shape)
    lrn.theta = rng.normal(size=lrn.theta.shape) * 10.0 ** rng.uniform(-1, 2)
    return ext(*(3.0 * rng.normal(size=2)))


class TestConstruction:
    def test_clamp_must_be_strictly_interior(self):
        for bad in (0.0, 0.5, 0.7, math.nan, math.inf, "0.01", True, np.bool_(True), None):
            for make in (lambda: AdaptiveTreeRegressor(2, 2, s_plus=bad),
                         lambda: DirectMixtureRegressor(2, 2, mode="soft", s_plus=bad),
                         lambda: DirectMixtureRegressor(2, 2, mode="hard", s_plus=bad)):
                with pytest.raises(ValueError, match=re.escape(
                        f"s_plus must lie in (0, 0.5), got {bad!r}")):
                    make()

    def test_auto_cap_value(self):
        lrn = AdaptiveTreeRegressor(2, 2, s_plus=0.01)
        assert lrn.step_cap == pytest.approx(10 * 0.01 * 0.99)

    def test_eta_defaults_to_compensated_mu(self):
        # below the cap, a boundary step moves theta by mu / (s_plus (1 - s_plus))
        # times its factor, the error and the input
        lrn = AdaptiveTreeRegressor(1, 2, mu=0.005, s_plus=0.01, theta=np.zeros((1, 3)))
        lrn.v[:] = [[0.1, 0.0, 0.1], [0.1, 0.0, 0.05], [0.0, 0.0, -0.02]]
        lrn.w[:] = 0.1
        x = np.array([0.5, -0.2, 1.0])
        pred = lrn.predict(x)
        factor = lrn.boundary_factors(pred)[0]
        assert 0.0 < abs(factor) < lrn.step_cap
        lrn.update_boundaries(x, 1.0, pred)
        np.testing.assert_allclose(-lrn.theta[0], 0.005 / (0.01 * 0.99) * factor * x, rtol=1e-12)


class TestPredict:
    def test_zero_weights_predict_zero(self):
        lrn = AdaptiveTreeRegressor(2, 2)
        assert lrn.predict(ext(0.2, -0.4)).y_hat == 0.0

    def test_depth_one_hand_computation(self):
        # gates at 0.5, unit offsets on the two leaves, unit leaf weights:
        # each leaf contributes activation 0.5, combination weight 2
        lrn = AdaptiveTreeRegressor(1, 2, s_plus=1e-12, theta=np.zeros((1, 3)))
        lrn.v[1] = np.array([0.0, 0.0, 1.0])
        lrn.v[2] = np.array([0.0, 0.0, 1.0])
        lrn.w[1] = 1.0
        lrn.w[2] = 1.0
        pred = lrn.predict(ext(0.7, -0.3))
        assert pred.y_hat == pytest.approx(2.0, rel=1e-9)
        assert pred.kappas[1] == pytest.approx(2.0)
        assert pred.alphas[1] == pytest.approx(0.5)

    def test_activations_cascade(self):
        lrn = AdaptiveTreeRegressor(2, 2)
        pred = lrn.predict(ext(0.3, 0.9))
        assert pred.alphas[0] == 1.0
        for i in range(3):
            assert pred.alphas[2 * i + 1] == pytest.approx(pred.alphas[i] * pred.s[i])
            assert pred.alphas[2 * i + 2] == pytest.approx(pred.alphas[i] * (1 - pred.s[i]))

    def test_gate_sits_on_the_clamp_far_from_the_plane(self):
        lrn = AdaptiveTreeRegressor(1, 2, s_plus=0.01, theta=[[1e4, 0.0, 0.0]])
        assert lrn.predict(ext(1.0, 0.0)).s[0] == 0.01
        assert lrn.predict(ext(-1.0, 0.0)).s[0] == 1.0 - 0.01

    @pytest.mark.parametrize("depth", range(6))
    def test_cascade_bit_identical_to_loop(self, depth):
        rng = np.random.default_rng(100 + depth)
        for _ in range(200):
            lrn = AdaptiveTreeRegressor(depth, 2, s_plus=10.0 ** rng.uniform(-4, -1))
            x = random_state(lrn, rng)
            pred = lrn.predict(x)
            alphas = loop_alphas(pred.s, lrn.n_nodes)
            assert np.array_equal(pred.alphas, alphas)
            assert np.array_equal(pred.h, alphas * pred.estimates)
            assert pred.y_hat == float(pred.kappas @ (alphas * pred.estimates))

    def test_matches_direct_mixture_short_run(self):
        stream = generate("matched", 300, seed=8)
        fast = AdaptiveTreeRegressor(2, 2, mu=0.01, s_plus=0.01)
        slow = DirectMixtureRegressor(2, 2, mode="soft", mu=0.01, s_plus=0.01)
        for x, d in zip(stream.extended, stream.targets):
            y1, _ = fast.step(x, d)
            y2, _ = slow.step(x, d)
            assert abs(y1 - y2) <= 1e-9 * (1.0 + abs(y2))


@st.composite
def boundary_lockstep_cases(draw):
    """A depth <= 3 tree whose hyperplanes all pass exactly through one
    integer point (every gate reads 1/2 there), optionally sharpened so
    that the other points sit deep in the s_plus clamp, plus a short
    stream revisiting those points."""
    depth = draw(st.integers(0, 3))
    coef = st.integers(-3, 3)
    point = np.array([draw(coef), draw(coef)], dtype=float)
    rows = [[draw(coef), draw(coef), 0.0] for _ in range((1 << depth) - 1)]
    theta = np.array(rows, dtype=float).reshape(-1, 3)
    theta[:, 2] = -(theta[:, :2] @ point)
    theta *= draw(st.sampled_from([1.0, 1e3]))
    others = draw(st.lists(st.tuples(coef, coef), min_size=1, max_size=4))
    xs = [ext(*point)] + [ext(float(a), float(b)) for a, b in others]
    targets = draw(st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12))
    return depth, theta, xs, targets


@settings(max_examples=60, deadline=None, derandomize=True)
@given(boundary_lockstep_cases())
def test_lockstep_on_boundaries_and_in_clamp(case):
    depth, theta, xs, targets = case
    assert not (theta @ xs[0]).any()
    fast = AdaptiveTreeRegressor(depth, 2, mu=0.05, theta=theta)
    slow = DirectMixtureRegressor(depth, 2, mode="soft", mu=0.05, theta=theta)
    for t, d in enumerate(targets):
        x = xs[t % len(xs)]
        y1, _ = fast.step(x, d)
        y2, _ = slow.step(x, d)
        assert abs(y1 - y2) <= 1e-9 * (1.0 + abs(y2))


class TestWeightUpdates:
    def test_zero_error_is_a_no_op(self):
        lrn = AdaptiveTreeRegressor(2, 2)
        lrn.v[:] = 0.3
        lrn.w[:] = 0.2
        theta0 = lrn.theta.copy()
        x = ext(0.5, -0.5)
        pred = lrn.predict(x)
        lrn.update(x, pred.y_hat, pred)
        assert (lrn.v == 0.3).all() and (lrn.w == 0.2).all()
        assert (lrn.theta == theta0).all()

    def test_every_node_moves_on_error(self):
        # the regressors move with the hyperplanes, in update_boundaries'
        # one rank-1 step of the learner's rows; update_weights leaves them
        lrn = AdaptiveTreeRegressor(2, 2, mu=0.1)
        x = ext(0.5, -0.5)
        pred = lrn.predict(x)
        lrn.update_weights(x, 1.0, pred)
        assert (lrn.v == 0.0).all()
        lrn.update_boundaries(x, 1.0, pred)
        assert (lrn.v != 0.0).any(axis=1).all()  # every node's regressor moved

    def test_activation_floor(self):
        lrn = AdaptiveTreeRegressor(2, 2, s_plus=0.01)
        stream = generate("mismatched", 300, seed=9)
        for x, d in zip(stream.extended, stream.targets):
            pred = lrn.predict(x)
            assert (pred.s >= 0.01).all() and (pred.s <= 0.99).all()
            assert (pred.alphas >= 0.01 ** 2 - 1e-15).all()
            lrn.update(x, d, pred)


class TestBoundaryUpdates:
    def test_symmetric_state_gives_zero_sigma(self):
        lrn = AdaptiveTreeRegressor(1, 2, s_plus=1e-9, theta=np.zeros((1, 3)))
        lrn.v[1] = np.array([0.2, 0.1, 0.4])
        lrn.v[2] = np.array([0.2, 0.1, 0.4])
        lrn.w[1] = lrn.w[2] = 0.7
        pred = lrn.predict(ext(0.3, 0.3))
        assert lrn.boundary_factors(pred)[0] == pytest.approx(0.0, abs=1e-12)

    def test_only_internal_nodes_have_boundaries(self):
        lrn = AdaptiveTreeRegressor(2, 2)
        assert lrn.theta.shape == (3, 3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for depth in (1, 2):
            for _ in range(5):
                lrn = AdaptiveTreeRegressor(depth, 2, s_plus=0.01)
                lrn.v = rng.normal(size=lrn.v.shape)
                lrn.w = rng.normal(size=lrn.w.shape)
                lrn.theta = rng.normal(size=lrn.theta.shape)
                x = ext(*rng.normal(size=2))
                d = rng.normal()
                pred = lrn.predict(x)
                e = d - pred.y_hat
                factors = lrn.boundary_factors(pred)
                for i in range(lrn.n_internal):
                    analytic = 2.0 * e * factors[i] * x
                    fd = np.empty(3)
                    for j in range(3):
                        lrn.theta[i, j] += h
                        up = (d - lrn.predict(x).y_hat) ** 2
                        lrn.theta[i, j] -= 2 * h
                        dn = (d - lrn.predict(x).y_hat) ** 2
                        lrn.theta[i, j] += h
                        fd[j] = (up - dn) / (2 * h)
                    err = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-8)
                    assert err <= 1e-5

    @pytest.mark.parametrize("depth", range(1, 6))
    def test_factors_match_loop(self, depth):
        # the matrix-vector subtree sums add in another order than the
        # loop; factors may differ by rounding relative to their scale
        rng = np.random.default_rng(200 + depth)
        for _ in range(200):
            lrn = AdaptiveTreeRegressor(depth, 2, s_plus=10.0 ** rng.uniform(-4, -1))
            pred = lrn.predict(random_state(lrn, rng))
            want = loop_boundary_factors(lrn, pred)
            np.testing.assert_allclose(lrn.boundary_factors(pred), want, rtol=1e-11,
                                       atol=1e-11 * np.abs(want).max())

    def test_cap_limits_the_scalar_factor(self):
        lrn = AdaptiveTreeRegressor(1, 2, mu=0.1, s_plus=0.01, theta=np.zeros((1, 3)))
        lrn.v[1] = np.array([50.0, 0.0, 0.0])
        lrn.v[2] = np.array([-50.0, 0.0, 0.0])
        lrn.w[:] = 1.0
        # the oracle in the same state applies the same cap to its own factors
        oracle = DirectMixtureRegressor(1, 2, mode="soft", mu=0.1, s_plus=0.01,
                                        theta=np.zeros((1, 3)))
        oracle.v[:] = lrn.v
        oracle.w_vec = oracle.node_weight_image(lrn.w)
        x = ext(1.0, 0.0)
        pred = lrn.predict(x)
        oracle_pred = oracle.predict(x)
        raw = lrn.boundary_factors(pred)
        assert abs(raw[0]) > lrn.step_cap  # genuinely saturating configuration
        np.testing.assert_allclose(oracle.boundary_factors(oracle_pred), raw, rtol=1e-12)
        assert oracle.step_cap == lrn.step_cap
        theta_before = lrn.theta.copy()
        lrn.update_boundaries(x, 1.0, pred)
        oracle.update_boundaries(x, 1.0, oracle_pred)
        applied = (theta_before - lrn.theta) / (lrn.mu / (lrn.s_plus * (1.0 - lrn.s_plus)))
        np.testing.assert_allclose(applied[0], lrn.step_cap * np.sign(raw[0]) * x)
        np.testing.assert_array_equal(oracle.theta, lrn.theta)

    def test_weight_update_touches_all_nodes_boundary_only_internal(self):
        lrn = AdaptiveTreeRegressor(2, 2, mu=0.05)
        x = ext(0.4, -0.8)
        pred = lrn.predict(x)
        lrn.update(x, 1.5, pred)
        assert (lrn.v != 0).any(axis=1).all()
        assert lrn.theta.shape[0] == 3


class TestPhases:
    def test_update_reaches_each_phase_through_the_instance(self):
        # a tracer times the phases by wrapping them on the instance; a fused
        # update would bypass the wrappers and report every phase as 0 us
        lrn = AdaptiveTreeRegressor(2, 2, mu=0.05)
        calls = []
        for name in ("update_weights", "update_boundaries", "boundary_factors"):
            method = getattr(lrn, name)
            setattr(lrn, name, lambda *args, _name=name, _method=method:
                    calls.append(_name) or _method(*args))
        x = ext(0.4, -0.8)
        lrn.update(x, 1.5, lrn.predict(x))
        assert sorted(calls) == ["boundary_factors", "update_boundaries", "update_weights"]
        assert lrn.t == 2


class TestCounters:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_all_node_counts(self, depth):
        lrn = AdaptiveTreeRegressor(depth, 2)
        stream = generate("matched", 40, seed=3)
        for x, d in zip(stream.extended, stream.targets):
            lrn.step(x, d)
        n_nodes = 2 ** (depth + 1) - 1
        assert lrn.regressor_evaluations == 40 * n_nodes
        assert lrn.kappa_accumulations == 40 * n_nodes * n_nodes


class TestSnapshot:
    def test_layout_thetas_on_internal_nodes_only(self):
        lrn = AdaptiveTreeRegressor(2, 2)
        state = lrn.state_snapshot()
        assert state["s_plus"] == 0.01
        assert state["theta"] == lrn.theta.tolist()
        assert len(state["theta"]) == lrn.n_internal == 3
        assert len(state["w"]) == len(state["v"]) == lrn.n_nodes == 7

    def test_bit_exact_round_trip_through_json(self):
        stream = generate("mismatched", 300, seed=21)
        lrn = AdaptiveTreeRegressor(2, 2, mu=0.005)
        for x, d in zip(stream.extended, stream.targets):
            lrn.step(x, d)
        blob = json.dumps(lrn.state_snapshot())
        other = AdaptiveTreeRegressor(2, 2, mu=0.005)
        other.load_state(json.loads(blob))
        assert (other.v == lrn.v).all()
        assert (other.w == lrn.w).all()
        assert (other.theta == lrn.theta).all()

    @pytest.mark.parametrize("field, node", [("v", 0), ("v", 2), ("theta", 0)])
    def test_short_row_rejected(self, field, node):
        lrn = AdaptiveTreeRegressor(1, 2)
        state = lrn.state_snapshot()
        state[field][node] = [5.0]
        with pytest.raises(ValueError, match=f"snapshot {field} of node {node} is not a row"):
            lrn.load_state(state)

    def test_clamp_mismatch_rejected(self):
        lrn = AdaptiveTreeRegressor(1, 2, s_plus=0.01)
        state = lrn.state_snapshot()
        state["s_plus"] = 0.02
        with pytest.raises(ValueError):
            lrn.load_state(state)

    def test_refused_snapshot_leaves_state_unchanged(self):
        lrn = AdaptiveTreeRegressor(1, 2)
        lrn.w[:] = 7.0
        lrn.v[:] = 3.0
        theta = lrn.theta.copy()
        state = AdaptiveTreeRegressor(1, 2, theta=np.ones((1, 3))).state_snapshot()
        state["v"][2] = [5.0]
        with pytest.raises(ValueError, match="snapshot v of node 2"):
            lrn.load_state(state)
        assert (lrn.w == 7.0).all()
        assert (lrn.v == 3.0).all()
        assert (lrn.theta == theta).all()
