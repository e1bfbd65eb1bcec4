import json
import re

import numpy as np
import pytest

from pwltree.datagen import generate
from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.mixture import DirectMixtureRegressor
from pwltree.trees import rho_table

from helpers import label, locate_leaf


def ext(x1, x2):
    return np.array([x1, x2, 1.0])


def per_level_leaf_index(lrn, x_ext):
    """The leaf walk one gate at a time, each gate its own row product."""
    i = 0
    for _ in range(lrn.depth):
        i = 2 * i + 1 if float(x_ext @ lrn.theta[i]) < 0.0 else 2 * i + 2
    return i


def points_on_planes(planes, per_plane, rng):
    """Points built to lie on each plane ``b`` (``b @ x_ext`` = 0 up to
    rounding): x1 drawn at random, x2 solved from the plane equation."""
    points = []
    for b in planes:
        x1 = rng.normal(size=per_plane)
        x2 = -(b[0] * x1 + b[2]) / b[1]
        points.extend(np.column_stack([x1, x2, np.ones(per_plane)]))
    return points


class TestConstruction:
    def test_depth_cap(self):
        with pytest.raises(ValueError):
            FixedTreeRegressor(6, 2)

    def test_boundary_shape_checked(self):
        with pytest.raises(ValueError):
            FixedTreeRegressor(2, 2, theta=np.zeros((2, 3)))

    def test_zero_init(self):
        lrn = FixedTreeRegressor(2, 2)
        assert not lrn.v.any()
        assert not lrn.w.any()


class TestLocateLeaf:
    def test_quadrants(self):
        lrn = FixedTreeRegressor(2, 2)
        # default split: root on x1, children on x2; each quadrant its own leaf
        leaves = {label(locate_leaf(lrn, ext(sx, sy))) for sx in (1, -1) for sy in (1, -1)}
        assert len(leaves) == 4
        assert locate_leaf(lrn, ext(1.0, 1.0)) != locate_leaf(lrn, ext(-1.0, -1.0))

    def test_opposite_points_land_in_mirror_cells(self):
        lrn = FixedTreeRegressor(2, 2)
        a = label(locate_leaf(lrn, ext(1.0, 1.0)))
        b = label(locate_leaf(lrn, ext(-1.0, -1.0)))
        assert a == "".join("1" if c == "0" else "0" for c in b)

    def test_point_on_a_plane_goes_to_child_one(self):
        # x1 = 0 lies on the root plane, so the tie sends it to child 1;
        # x2 = 0.7 then puts it below that child's plane, in child 0
        x = ext(0.0, 0.7)
        assert label(locate_leaf(FixedTreeRegressor(2, 2), x)) == "10"
        direct = DirectMixtureRegressor(2, 2, mode="hard")
        assert np.flatnonzero(direct.predict(x).alphas).tolist() == [0, 2, 5]

    def test_depth_zero_everything_is_root(self):
        lrn = FixedTreeRegressor(0, 2)
        assert label(locate_leaf(lrn, ext(3.0, -5.0))) == ""

    @pytest.mark.parametrize("depth", range(6))
    def test_one_product_walk_matches_per_level_walk(self, depth):
        rng = np.random.default_rng(70 + depth)
        planes = rng.normal(size=((1 << depth) - 1, 3))
        for lrn in (FixedTreeRegressor(depth, 2), FixedTreeRegressor(depth, 2, theta=planes)):
            points = list(np.column_stack([rng.normal(size=(500, 2)), np.ones(500)]))
            # axis-aligned default planes are hit exactly by zero coordinates
            points += [ext(0.0, y) for y in (-1.0, 0.0, 0.5)] + [ext(x, 0.0) for x in (-2.0, 1.5)]
            for x in points:
                assert locate_leaf(lrn, x) == per_level_leaf_index(lrn, x)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_points_on_a_plane_take_the_oracle_path(self, depth):
        # within rounding of a plane the gate's sign depends on how the
        # product is summed, so learner and oracle must read it alike
        rng = np.random.default_rng(80 + depth)
        planes = rng.normal(size=((1 << depth) - 1, 3))
        lrn = FixedTreeRegressor(depth, 2, theta=planes)
        oracle = DirectMixtureRegressor(depth, 2, mode="hard", theta=planes)
        for x in points_on_planes(planes, 3000 // len(planes), rng):
            assert lrn.predict(x).path_indices.tolist() \
                == np.flatnonzero(oracle.predict(x).alphas).tolist()


class TestPredict:
    def test_zero_weights_predict_zero(self):
        lrn = FixedTreeRegressor(2, 2)
        assert lrn.predict(ext(0.3, -0.7)).y_hat == 0.0

    def test_depth_one_root_selector(self):
        lrn = FixedTreeRegressor(1, 2)
        lrn.w[0] = 1.0
        lrn.v[0] = np.array([1.0, 0.0, 0.0])
        pred = lrn.predict(ext(2.0, 5.0))
        assert pred.y_hat == pytest.approx(2.0)
        # only the root contributes: its combination weight is w_root itself
        assert pred.kappas[0] == pytest.approx(1.0)

    def test_path_runs_root_to_leaf(self):
        lrn = FixedTreeRegressor(2, 2)
        pred = lrn.predict(ext(1.0, 1.0))
        labels = [label(int(i)) for i in pred.path_indices]
        assert labels[0] == ""
        assert len(labels) == 3
        assert labels[1] == labels[2][:1]

    @pytest.mark.parametrize("depth", range(6))
    def test_kappas_are_the_path_rho_rows_times_w(self, depth):
        rng = np.random.default_rng(90 + depth)
        lrn = FixedTreeRegressor(depth, 2)
        lrn.w[:] = rng.normal(size=lrn.n_nodes)
        lrn.v[:] = rng.normal(size=lrn.v.shape)
        for x in np.column_stack([rng.normal(size=(50, 2)), np.ones(50)]):
            pred = lrn.predict(x)
            path = pred.path_indices
            assert np.array_equal(pred.kappas, rho_table(depth).astype(float)[path] @ lrn.w)
            assert np.array_equal(pred.estimates, lrn.v[path] @ x)
            assert pred.y_hat == float(pred.estimates @ pred.kappas)

    def test_matches_direct_mixture_short_run(self):
        stream = generate("matched", 300, seed=2)
        fast = FixedTreeRegressor(2, 2, mu=0.01)
        slow = DirectMixtureRegressor(2, 2, mode="hard", mu=0.01)
        for x, d in zip(stream.extended, stream.targets):
            y1, _ = fast.step(x, d)
            y2, _ = slow.step(x, d)
            assert abs(y1 - y2) <= 1e-9 * (1.0 + abs(y2))


class TestUpdate:
    def test_zero_error_is_a_no_op(self):
        lrn = FixedTreeRegressor(2, 2)
        lrn.w[:] = 0.5
        lrn.v[:] = 1.0
        x = ext(0.4, 0.2)
        pred = lrn.predict(x)
        lrn.update(x, pred.y_hat, pred)
        assert (lrn.w == 0.5).all() and (lrn.v == 1.0).all()

    def test_first_step_from_zero_moves_only_regressors(self):
        lrn = FixedTreeRegressor(2, 2, mu=0.1)
        x = ext(1.0, 1.0)
        lrn.step(x, 2.0)
        assert not lrn.w.any()          # estimates were zero, weights stay put
        assert lrn.v.any()              # path regressors moved

    def test_off_path_nodes_untouched(self):
        lrn = FixedTreeRegressor(2, 2, mu=0.1)
        x = ext(1.0, 1.0)
        path = set(lrn.predict(x).path_indices.tolist())
        lrn.step(x, 2.0)
        lrn.step(x, 2.0)
        for i in range(7):
            if i not in path:
                assert not lrn.v[i].any() and lrn.w[i] == 0.0

    @pytest.mark.parametrize("depth", range(6))
    def test_matches_fancy_index_update(self, depth):
        rng = np.random.default_rng(100 + depth)
        lrn = FixedTreeRegressor(depth, 2, mu=0.03)
        for x, d in zip(np.column_stack([rng.normal(size=(20, 2)), np.ones(20)]),
                        rng.normal(size=20)):
            # one step from a fresh random state (the rho weights would
            # blow a chain of steps up at depth 5)
            lrn.w[:] = w = rng.normal(size=lrn.n_nodes)
            lrn.v[:] = v = rng.normal(size=lrn.v.shape)
            pred = lrn.predict(x)
            lrn.update(x, d, pred)
            e = d - pred.y_hat
            v[pred.path_indices] += (0.03 * e) * x
            w[pred.path_indices] += (0.03 * e) * pred.estimates
            assert np.array_equal(lrn.v, v)
            assert np.array_equal(lrn.w, w)


class TestCounters:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_exact_regressor_evaluations(self, depth):
        lrn = FixedTreeRegressor(depth, 2)
        stream = generate("matched", 50, seed=3)
        for x, d in zip(stream.extended, stream.targets):
            lrn.step(x, d)
        assert lrn.regressor_evaluations == 50 * (depth + 1)
        assert lrn.kappa_accumulations == 50 * (depth + 1) * (2 ** (depth + 1) - 1)


class TestSnapshot:
    def test_layout(self):
        lrn = FixedTreeRegressor(2, 2)
        state = lrn.state_snapshot()
        assert list(state) == ["t", "w", "v", "theta"]  # the depth is the arrays' shapes
        assert state["w"] == lrn.w.tolist() and len(state["w"]) == 7
        assert state["v"] == lrn.v.tolist() and all(len(row) == 3 for row in state["v"])
        assert state["theta"] == lrn.theta.tolist() and len(state["theta"]) == 3
        assert all(len(row) == 3 for row in state["theta"])

    def test_bit_exact_round_trip_through_json(self):
        stream = generate("matched", 200, seed=5)
        lrn = FixedTreeRegressor(2, 2, mu=0.01)
        for x, d in zip(stream.extended, stream.targets):
            lrn.step(x, d)
        blob = json.dumps(lrn.state_snapshot())
        other = FixedTreeRegressor(2, 2, mu=0.01)
        other.load_state(json.loads(blob))
        assert (other.v == lrn.v).all()
        assert (other.w == lrn.w).all()

    def test_restored_learner_continues_identically(self):
        stream = generate("matched", 400, seed=6)
        x_ext, targets = stream.extended, stream.targets
        straight = FixedTreeRegressor(2, 2, mu=0.01)
        for t in range(400):
            straight.step(x_ext[t], targets[t])
        half = FixedTreeRegressor(2, 2, mu=0.01)
        for t in range(200):
            half.step(x_ext[t], targets[t])
        resumed = FixedTreeRegressor(2, 2, mu=0.01)
        resumed.load_state(json.loads(json.dumps(half.state_snapshot())))
        for t in range(200, 400):
            resumed.step(x_ext[t], targets[t])
        assert (resumed.v == straight.v).all()
        assert (resumed.w == straight.w).all()

    def test_depth_mismatch_rejected(self):
        # a state holds no depth: one of another depth has another shape of w
        lrn = FixedTreeRegressor(2, 2)
        lrn.w[:] = 7.0
        before = lrn.state_snapshot()
        with pytest.raises(ValueError, match=re.escape(
                "snapshot w must have shape (7,) and hold only numbers") + "$"):
            lrn.load_state(FixedTreeRegressor(3, 2).state_snapshot())
        assert lrn.state_snapshot() == before

    def test_refused_snapshot_leaves_state_unchanged(self):
        lrn = FixedTreeRegressor(1, 2)
        lrn.w[:] = 7.0
        lrn.v[:] = 3.0
        state = FixedTreeRegressor(1, 2).state_snapshot()
        state["v"][2] = [5.0]
        with pytest.raises(ValueError, match="snapshot v of node 2"):
            lrn.load_state(state)
        assert (lrn.w == 7.0).all()
        assert (lrn.v == 3.0).all()

    def test_state_of_other_hyperplanes_refused(self):
        # no step moves a fixed tree's hyperplanes, so a state must carry its own
        lrn = FixedTreeRegressor(2, 2, theta=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.5]])
        lrn.w[:] = 7.0
        before = lrn.state_snapshot()
        state = FixedTreeRegressor(2, 2, theta=lrn.theta).state_snapshot()
        state["theta"][2] = [0.0, 1.0, -0.5]
        with pytest.raises(ValueError, match=re.escape(
                "snapshot theta of node 2 is [0.0, 1.0, -0.5], not the learner's [0.0, 1.0, 0.5]: "
                "a fixed tree's hyperplanes never move") + "$"):
            lrn.load_state(state)
        assert lrn.state_snapshot() == before
        state["theta"][2] = [0, 1, 0.5]  # the same numbers, written as integers
        lrn.load_state(state)
        assert lrn.state_snapshot() == {**before, "w": [0.0] * 7}


class TestDeterminism:
    def test_same_stream_same_trajectory(self):
        out = []
        for _ in range(2):
            stream = generate("matched", 200, seed=11)
            lrn = FixedTreeRegressor(2, 2, mu=0.01)
            preds = [lrn.step(x, d)[0] for x, d in zip(stream.extended, stream.targets)]
            out.append(preds)
        assert out[0] == out[1]
