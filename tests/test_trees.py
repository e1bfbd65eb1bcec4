import copy
import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwltree
from pwltree.adaptive_tree import AdaptiveTreeRegressor
from pwltree.datagen import generate
from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.mixture import DirectMixtureRegressor
from pwltree.trees import (
    MAX_ENUMERATION_DEPTH,
    MAX_TABLE_DEPTH,
    _gate_clamp,
    _heap_tables,
    _step_size,
    beta,
    enumerate_partitions,
    gamma,
    level,
    membership_matrix,
    node_count,
    rho,
    rho_table,
)

from helpers import (MALFORMED_STATES, index_of, is_ancestor, is_valid_partition, label,
                     loop_membership, reference_mixture_step, reference_step)

LEARNERS = {"dft": FixedTreeRegressor, "dat": AdaptiveTreeRegressor}

# every depth the heap tables are checked at: past the learners' cap, since
# the tables are built per depth and nothing in them stops at it
TABLE_DEPTHS = range(8)


def subtree_bits(bits, depth):
    row = _heap_tables(depth)[1][index_of(bits)]
    return {label(int(i)) for i in np.flatnonzero(row)}


class TestNodeLabel:
    def test_root_is_empty_string(self):
        assert label(0) == ""
        assert level(0) == 0
        assert label(4) == "01"

    def test_heap_index_round_trip(self):
        for i in range(63):
            assert index_of(label(i)) == i
            assert level(i) == len(label(i))

    def test_heap_index_is_level_order(self):
        order = [label(i) for i in range(7)]
        assert order == ["", "0", "1", "00", "01", "10", "11"]

    def test_prefix_test(self):
        assert is_ancestor(0, index_of("0110"))
        assert is_ancestor(index_of("01"), index_of("011"))
        assert not is_ancestor(index_of("01"), index_of("001"))
        assert not is_ancestor(index_of("011"), index_of("01"))


class TestPrefixesAndSpan:
    # the span of a node (its subtree within the tree) is its row of the
    # descendant table, cut to the nodes of the tree
    def test_span_example(self):
        assert subtree_bits("0", 2) == {"0", "00", "01"}

    def test_span_of_leaf_is_itself(self):
        assert subtree_bits("11", 2) == {"11"}

    def test_span_size_formula(self):
        got = subtree_bits("1", 3)
        assert got == {"1", "10", "11", "100", "101", "110", "111"}
        assert len(got) == 2 ** (3 - 1 + 1) - 1


class TestShape:
    def test_node_and_leaf_counts(self):
        for lrn in (FixedTreeRegressor(2, 2), AdaptiveTreeRegressor(2, 2)):
            assert lrn.n_nodes == 7 == node_count(2)
            assert lrn.n_internal == 3
            state = lrn.state_snapshot()
            assert len(state["w"]) == len(state["v"]) == 7
            assert [label(i) for i in range(lrn.n_internal, 7)] == ["00", "01", "10", "11"]

    def test_negative_depth_rejected(self):
        for make in (FixedTreeRegressor, AdaptiveTreeRegressor, DirectMixtureRegressor):
            with pytest.raises(ValueError):
                make(-1, 2)

    @pytest.mark.parametrize("depth", [True, np.bool_(True), 2.0, "2", None])
    def test_non_integer_depth_rejected(self, depth):
        for make in (FixedTreeRegressor, AdaptiveTreeRegressor, DirectMixtureRegressor):
            with pytest.raises(ValueError, match=re.escape(
                    f"depth must be an integer, got {depth!r}")):
                make(depth, 2)

    def test_numpy_integer_depth_stored_as_int(self):
        for make in (FixedTreeRegressor, AdaptiveTreeRegressor, DirectMixtureRegressor):
            lrn = make(np.int64(2), 2)
            assert lrn.depth == 2 and type(lrn.depth) is int

    @pytest.mark.parametrize("mu", ["abc", "0.01", np.nan, np.inf, 0.0, -0.01, True,
                                    np.bool_(True), None, [0.01], 1j, lambda t: 0.1 / t])
    def test_bad_step_size_rejected_when_built(self, mu):
        for make in (FixedTreeRegressor, AdaptiveTreeRegressor, DirectMixtureRegressor):
            with pytest.raises(ValueError, match=re.escape(
                    f"mu must be a finite number > 0, got {mu!r}")):
                make(2, 2, mu=mu)

    @pytest.mark.parametrize("check, want", [(_step_size, "mu must be a finite number > 0"),
                                             (_gate_clamp, "s_plus must lie in (0, 0.5)")],
                             ids=["mu", "s_plus"])
    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["plus", "minus"])
    def test_integer_too_large_for_a_float_is_refused(self, check, want, value):
        # float() of such an integer raises OverflowError, not the one-line refusal
        with pytest.raises(ValueError, match=re.escape(f"{want}, got {value!r}")):
            check(value)

    def test_step_size_kinds_accepted(self):
        for make in (FixedTreeRegressor, AdaptiveTreeRegressor, DirectMixtureRegressor):
            for mu in (0.01, 1, np.float64(0.02), np.float32(0.5), np.int64(2)):
                lrn = make(2, 2, mu=mu)
                assert lrn.mu == float(mu) and type(lrn.mu) is float

    @pytest.mark.parametrize("make, cap", [
        (FixedTreeRegressor, MAX_TABLE_DEPTH), (AdaptiveTreeRegressor, MAX_TABLE_DEPTH),
        (lambda *args, **kw: DirectMixtureRegressor(*args, mode="hard", **kw),
         MAX_ENUMERATION_DEPTH),
        (lambda *args, **kw: DirectMixtureRegressor(*args, mode="soft", **kw),
         MAX_ENUMERATION_DEPTH),
    ], ids=["dft", "dat", "direct-hard", "direct-soft"])
    def test_tree_base_refuses_depth_dim_and_mu_with_one_message(self, make, cap):
        # every tree learner checks its depth, dim and mu in the one base,
        # so each refusal reads the same and names the value, whatever the cap
        for depth in (-1, cap + 1):
            with pytest.raises(ValueError, match=re.escape(
                    f"depth must be in [0, {cap}], got {depth}") + "$"):
                make(depth, 2)
        for dim in (2.0, "2"):
            with pytest.raises(ValueError, match=re.escape(
                    f"dim must be an integer, got {dim!r}") + "$"):
                make(2, dim)
        with pytest.raises(ValueError, match=re.escape(
                "mu must be a finite number > 0, got -0.5") + "$"):
            make(2, 2, mu=-0.5)
        assert make(cap, 2).n_nodes == node_count(cap)

    @pytest.mark.parametrize("depth", range(1, MAX_TABLE_DEPTH + 1))
    def test_learners_view_the_shared_tables(self, depth):
        # each learner reads the cached tables of its depth rather than copying them
        ancestors, descendants, _, index = _heap_tables(depth)
        lrn = AdaptiveTreeRegressor(depth, 2)
        gates = lrn._gates
        assert gates.index is index and index.shape == (depth, lrn.n_nodes)
        assert AdaptiveTreeRegressor(depth, 3)._gates.index is index
        assert gates.below.base is descendants and gates.below.flags.c_contiguous
        assert gates.below.shape == (lrn.n_nodes - 1, lrn.n_nodes)
        fixed = FixedTreeRegressor(depth, 2)
        assert np.array_equal(fixed._paths[:, 1:].T, ancestors[:, fixed.n_internal:])
        assert not fixed._paths[:, 0].any()


@pytest.mark.parametrize("make", [FixedTreeRegressor, AdaptiveTreeRegressor])
class TestSnapshotStepCounter:
    """The step counter ``t`` is part of a tree learner's snapshot."""

    def test_restore_resumes_the_step_counter(self, make):
        stream = generate("mismatched", 200, seed=4)
        straight = make(2, 2, mu=0.01)
        for x, d in zip(stream.extended[:100], stream.targets[:100]):
            straight.step(x, d)
        resumed = make(2, 2, mu=0.01)
        resumed.load_state(json.loads(json.dumps(straight.state_snapshot())))
        assert resumed.t == straight.t == 101
        for x, d in zip(stream.extended[100:], stream.targets[100:]):
            assert resumed.step(x, d) == straight.step(x, d)
        assert resumed.state_snapshot() == straight.state_snapshot()

    @pytest.mark.parametrize("t", ["missing", 0, -3, 2.0, "5", True])
    def test_bad_step_counter_refused(self, make, t):
        lrn = make(1, 2)
        lrn.w[:] = 7.0
        lrn.t = 9
        state = make(1, 2).state_snapshot()
        if t == "missing":
            del state["t"]
        else:
            state["t"] = t
        message = (f"snapshot step counter t must be >= 1, got {t}" if type(t) is int else
                   f"snapshot step counter t must be an integer, got {state.get('t')!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lrn.load_state(state)
        assert lrn.t == 9
        assert (lrn.w == 7.0).all()


@pytest.mark.parametrize("make", [FixedTreeRegressor, AdaptiveTreeRegressor])
class TestSnapshotFiniteness:
    """A snapshot holding NaN, inf or a string is refused with the array and
    the node's heap index named."""

    @pytest.mark.parametrize("node, field, value, shown", [
        (0, "w", "nan", "'nan'"),
        (0, "w", float("inf"), "inf"),
        (2, "v", [0.0, float("inf"), 1.0], "[0.0, inf, 1.0]"),
        (1, "v", [float("nan"), 0.0, 0.0], "[nan, 0.0, 0.0]"),
    ])
    def test_non_finite_node_state_refused(self, make, node, field, value, shown):
        lrn = make(1, 2)
        lrn.w[:] = 7.0
        lrn.v[:] = 3.0
        lrn.t = 9
        state = make(1, 2).state_snapshot()
        state[field][node] = value
        with pytest.raises(ValueError, match=re.escape(f"snapshot {field} of node {node} is not ")
                           + ".*" + re.escape(shown)):
            lrn.load_state(state)
        assert (lrn.w == 7.0).all() and (lrn.v == 3.0).all() and lrn.t == 9
        assert np.isfinite(lrn.predict(np.array([0.3, -0.2, 1.0])).y_hat)


@pytest.mark.parametrize("kind, mutate", [
    pytest.param(kind, mutate, id=f"{case}-{LEARNERS[kind].__name__}")
    for case, kinds, mutate in MALFORMED_STATES for kind in kinds])
def test_malformed_state_refused(kind, mutate):
    make = LEARNERS[kind]
    lrn = make(2, 2)
    lrn.w[:] = 7.0
    lrn.v[:] = 3.0
    lrn.t = 9
    before = lrn.state_snapshot()
    with pytest.raises(ValueError, match="snapshot"):
        lrn.load_state(mutate(make(2, 2).state_snapshot()))
    assert lrn.state_snapshot() == before


@pytest.mark.parametrize("make", [FixedTreeRegressor, AdaptiveTreeRegressor])
@pytest.mark.parametrize("state", [[], "x"])
def test_non_object_state_refused(make, state):
    lrn = make(1, 2)
    lrn.w[:] = 7.0
    lrn.v[:] = 3.0
    lrn.t = 9
    with pytest.raises(ValueError, match="snapshot state must be an object"):
        lrn.load_state(state)
    assert (lrn.w == 7.0).all() and (lrn.v == 3.0).all() and lrn.t == 9


def test_non_finite_separator_refused():
    lrn = AdaptiveTreeRegressor(1, 2)
    theta = lrn.theta.copy()
    state = AdaptiveTreeRegressor(1, 2).state_snapshot()
    state["theta"][0] = [float("nan"), 1.0, 0.0]
    with pytest.raises(ValueError, match="snapshot theta of node 0 is not finite"):
        lrn.load_state(state)
    assert np.array_equal(lrn.theta, theta)


# every tree learner, built at depth 2, keyed by the name of its kind
ROW_LEARNERS = {
    "dft": lambda: FixedTreeRegressor(2, 2, mu=0.05),
    "dat": lambda: AdaptiveTreeRegressor(2, 2, mu=0.05),
    "direct-hard": lambda: DirectMixtureRegressor(2, 2, mode="hard", mu=0.05),
    "direct-soft": lambda: DirectMixtureRegressor(2, 2, mode="soft", mu=0.05),
}


def row_state(lrn) -> bytes:
    """The bytes of a tree learner's weights, regressors and hyperplanes."""
    weights = lrn.w_vec if isinstance(lrn, DirectMixtureRegressor) else lrn.w
    return b"".join(a.tobytes() for a in (weights, lrn.v, lrn.theta))


def randomize(lrn, rng) -> None:
    """Random weights and regressors, so that every row reaches the prediction."""
    if isinstance(lrn, DirectMixtureRegressor):
        lrn.w_vec = rng.normal(size=lrn.w_vec.shape)
    else:
        lrn.w = rng.normal(size=lrn.w.shape)
    lrn.v = rng.normal(size=lrn.v.shape)


class TestOneRowArray:
    """The regressors and hyperplanes of every tree learner live in one
    array, of which ``v`` and ``theta`` are views made afresh on each
    access."""

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda lrn: pickle.loads(pickle.dumps(lrn))],
                             ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("kind", ROW_LEARNERS)
    def test_copy_steps_as_the_original(self, kind, copier):
        stream = generate("mismatched", 80, seed=21)
        lrn = ROW_LEARNERS[kind]()
        for x, d in zip(stream.extended[:40], stream.targets[:40]):
            lrn.step(x, d)
        before = row_state(lrn)  # read the views before the copy is made
        twin = copier(lrn)
        # the copy steps its own array and leaves the original's alone
        theirs = [twin.step(x, d) for x, d in zip(stream.extended[40:], stream.targets[40:])]
        assert row_state(lrn) == before
        ours = [lrn.step(x, d) for x, d in zip(stream.extended[40:], stream.targets[40:])]
        assert np.array(theirs).tobytes() == np.array(ours).tobytes()
        assert row_state(twin) == row_state(lrn) != before

    @pytest.mark.parametrize("kind, write", [
        *((kind, write) for kind in ROW_LEARNERS for write in ("v", "v-row")),
        *((kind, write) for kind in ROW_LEARNERS for write in ("theta", "theta-row"))])
    def test_writes_are_seen_by_the_next_predict(self, kind, write):
        rng = np.random.default_rng(31)
        lrn = ROW_LEARNERS[kind]()
        randomize(lrn, rng)
        x = np.array([0.4, -0.3, 1.0])
        before = lrn.predict(x).y_hat
        name = write.removesuffix("-row")
        value = rng.normal(size=getattr(lrn, name).shape)
        if name == "theta":  # the new root plane puts x on its other side: a hard path moves
            value[0] *= -np.sign(value[0].dot(x) * lrn.theta[0].dot(x))
        if write.endswith("-row"):  # the root's row, on every path
            getattr(lrn, name)[0] = value[0]
        else:
            setattr(lrn, name, value)
        reference = reference_mixture_step if kind.startswith("direct") else reference_step
        got = lrn.predict(x).y_hat
        assert got == pytest.approx(reference(lrn, x, 0.0)[0], rel=1e-12) and got != before

    @pytest.mark.parametrize("kind", ["dft", "dat"])
    def test_loaded_state_is_seen_by_the_next_predict(self, kind):
        stream = generate("mismatched", 41, seed=22)
        source = ROW_LEARNERS[kind]()
        for x, d in zip(stream.extended[:40], stream.targets[:40]):
            source.step(x, d)
        lrn = ROW_LEARNERS[kind]()
        lrn.load_state(json.loads(json.dumps(source.state_snapshot())))
        x = stream.extended[40]
        assert lrn.predict(x).y_hat.hex() == source.predict(x).y_hat.hex()
        assert row_state(lrn) == row_state(source)

    @pytest.mark.parametrize("shape", ["row", "scalar", "short", "long"])
    @pytest.mark.parametrize("kind, name", [
        *((kind, "v") for kind in ROW_LEARNERS), *((kind, "theta") for kind in ROW_LEARNERS)])
    def test_assignment_of_another_shape_refused(self, kind, name, shape):
        # numpy would broadcast a row or a number into every row of the array
        lrn = ROW_LEARNERS[kind]()
        randomize(lrn, np.random.default_rng(32))
        before = row_state(lrn)
        n, width = getattr(lrn, name).shape
        value = {"row": np.ones(width), "scalar": 0.5, "short": np.ones((n - 1, width)),
                 "long": np.ones((n + 1, width))}[shape]
        with pytest.raises(ValueError, match=re.escape(f"{name} must have shape ({n}, {width})")):
            setattr(lrn, name, value)
        assert row_state(lrn) == before

    @pytest.mark.parametrize("kind", ROW_LEARNERS)
    def test_theta_is_the_tail_of_the_rows(self, kind):
        lrn = ROW_LEARNERS[kind]()
        width = lrn.dim + 1
        assert lrn._rows.shape == (lrn.n_nodes + lrn.n_internal, width)
        assert lrn.theta.shape == (lrn.n_internal, width)
        assert np.shares_memory(lrn.theta, lrn._rows) and lrn.theta.base is lrn._rows
        offset = lrn.theta.__array_interface__["data"][0] - lrn._rows.__array_interface__["data"][0]
        assert offset == lrn.n_nodes * width * lrn._rows.itemsize

    @pytest.mark.parametrize("kind, depth", [
        *(("dft", depth) for depth in range(MAX_TABLE_DEPTH + 1)),
        *(("direct-hard", depth) for depth in range(MAX_ENUMERATION_DEPTH + 1))])
    def test_hard_steps_never_move_theta(self, kind, depth):
        stream = generate("mismatched", 200, seed=26)
        lrn = (FixedTreeRegressor(depth, 2, mu=1e-3) if kind == "dft"
               else DirectMixtureRegressor(depth, 2, mode="hard", mu=1e-3))
        theta = lrn.theta.tobytes()
        for x, d in zip(stream.extended, stream.targets):
            lrn.step(x, d)
            assert lrn.theta.tobytes() == theta
        assert lrn.v.any()


SOFT_DEPTHS = [*(("dat", depth) for depth in range(MAX_TABLE_DEPTH + 1)),
               *(("direct-soft", depth) for depth in range(MAX_ENUMERATION_DEPTH + 1))]


def soft_learner(kind: str, depth: int):
    """A soft learner of ``kind`` (the adaptive tree or the soft oracle) at ``depth``."""
    if kind == "dat":
        return AdaptiveTreeRegressor(depth, 2, mu=0.01)
    return DirectMixtureRegressor(depth, 2, mode="soft", mu=0.01)


def kernel_views(gates) -> list:
    """``(view, buffer, start, stop)`` of every stored view of the gate
    kernel's two buffers: ``s`` and ``1 - s`` in the branch buffer, the
    regressor and hyperplane moves in the moves buffer."""
    n = gates.index.shape[1]
    k = n // 2
    return [(gates._s, gates._branch, 0, k), (gates._rest, gates._branch, k, 2 * k),
            (gates._head, gates._moves, 0, n), (gates._tail, gates._moves, n, n + k)]


def assert_views_of_own_buffers(gates) -> None:
    assert gates._branch.shape == (gates.index.shape[1],) and gates._branch[-1] == 1.0
    for view, buffer, start, stop in kernel_views(gates):
        assert view.base is buffer and view.shape == (stop - start,)
        offset = view.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
        assert offset == start * buffer.itemsize or not view.size  # numpy may rebase an empty view
    column = gates._column
    assert column.base is gates._moves and column.shape == (len(gates._moves), 1)
    assert column.__array_interface__["data"][0] == gates._moves.__array_interface__["data"][0]


@pytest.mark.parametrize("kind, depth", SOFT_DEPTHS)
class TestKernelBuffers:
    """The soft-gate kernel writes every step into two buffers it owns,
    through views made once; nothing a step returns aliases them."""

    def test_views_belong_to_the_kernels_own_buffers(self, kind, depth):
        stream = generate("mismatched", 20, seed=23)
        lrn = soft_learner(kind, depth)
        gates = lrn._gates
        assert_views_of_own_buffers(gates)
        held = [gates._branch, gates._moves, gates._column,
                *(view for view, *_ in kernel_views(gates))]
        for x, d in zip(stream.extended[:10], stream.targets[:10]):
            lrn.step(x, d)
        assert_views_of_own_buffers(gates)
        now = [gates._branch, gates._moves, gates._column,
               *(view for view, *_ in kernel_views(gates))]
        assert all(a is b for a, b in zip(held, now, strict=True))
        for copier in (copy.deepcopy, lambda lrn: pickle.loads(pickle.dumps(lrn))):
            twin = copier(lrn)
            ours = twin._gates
            assert_views_of_own_buffers(ours)
            for buffer in (ours._branch, ours._moves):
                assert not np.shares_memory(buffer, gates._branch)
                assert not np.shares_memory(buffer, gates._moves)
            for x, d in zip(stream.extended[10:], stream.targets[10:]):
                assert twin.step(x, d) == lrn.step(x, d)
            assert row_state(twin) == row_state(lrn)

    def test_kept_prediction_survives_later_steps(self, kind, depth):
        stream = generate("mismatched", 6, seed=24)
        lrn = soft_learner(kind, depth)
        randomize(lrn, np.random.default_rng(25))
        x, d = stream.extended[0], stream.targets[0]
        pred = lrn.predict(x)
        lrn.update(x, d, pred)
        fields = [field.name for field in dataclasses.fields(pred)]
        before = {name: np.asarray(getattr(pred, name)).tobytes() for name in fields}
        for x, d in zip(stream.extended[1:], stream.targets[1:]):
            lrn.step(x, d)
        for name in fields:
            value = getattr(pred, name)
            assert np.asarray(value).tobytes() == before[name], name
            for buffer in (lrn._gates._branch, lrn._gates._moves):
                assert not np.shares_memory(value, buffer), name


class TestBetaGamma:
    def test_beta_values(self):
        assert [beta(j) for j in range(5)] == [1, 2, 5, 26, 677]
        assert beta(5) == 458330

    def test_beta_is_exact_through_depth_9(self):
        # exact Python ints, past the int64 range from beta(7) on
        want = 1
        for j in range(10):
            assert beta(j) == want and type(beta(j)) is int
            want = want * want + 1
        assert beta(7) > 2**63 and beta(9) == beta(8) ** 2 + 1

    def test_beta_rejects_negative(self):
        with pytest.raises(ValueError):
            beta(-1)

    def test_gamma_values(self):
        assert gamma(2, 0) == 1
        assert gamma(2, 1) == 2
        assert gamma(2, 2) == 2

    def test_gamma_range_check(self):
        with pytest.raises(ValueError):
            gamma(2, 3)
        with pytest.raises(ValueError):
            gamma(2, -1)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_gamma_counts_leaf_memberships(self, depth):
        parts = enumerate_partitions(depth)
        for p in range(node_count(depth)):
            count = sum(1 for part in parts if p in part)
            assert count == gamma(depth, level(p))


class TestRho:
    def test_rho_examples(self):
        assert rho(0, 0, 2) == 1
        assert rho(index_of("0"), index_of("01"), 2) == 0
        assert rho(index_of("00"), index_of("01"), 2) == 2

    def test_rho_equals_co_leaf_enumeration(self):
        for depth in (1, 2, 3):
            parts = enumerate_partitions(depth)
            nodes = range(node_count(depth))
            for p in nodes:
                for q in nodes:
                    count = sum(1 for part in parts if p in part and q in part)
                    assert rho(p, q, depth) == count, (p, q, depth)

    def test_rho_symmetry(self):
        nodes = range(node_count(3))
        for p in nodes:
            for q in nodes:
                assert rho(p, q, 3) == rho(q, p, 3)

    def test_rho_quotient_exact_for_depth_up_to_five(self):
        # the division inside rho asserts integrality itself; sweep it
        for depth in (4, 5):
            nodes = range(node_count(depth))
            for p in nodes[:: max(1, len(nodes) // 16)]:
                for q in nodes:
                    rho(p, q, depth)

    def test_rho_rejects_deep_labels(self):
        # a negative index lies outside the tree too
        for p, q in ((index_of("000"), 0), (-1, 0), (0, -1), (-3, 2)):
            with pytest.raises(ValueError):
                rho(p, q, 2)


class TestKappa:
    """A node's combination weight, as the learners compute it, is the sum of
    the weights of every node that shares a partition with it."""

    def test_zero_weights(self):
        x = np.array([0.3, -0.2, 1.0])
        assert not AdaptiveTreeRegressor(2, 2).predict(x).kappas.any()
        assert not FixedTreeRegressor(2, 2).predict(x).kappas.any()

    def test_unit_weights(self):
        lrn = AdaptiveTreeRegressor(2, 2)
        lrn.w[:] = 1.0
        kappas = lrn.predict(np.array([0.3, -0.2, 1.0])).kappas
        assert kappas[0] == 1.0
        assert kappas[index_of("00")] == 7.0

    def test_matches_dense_table(self):
        rng = np.random.default_rng(1)
        lrn = AdaptiveTreeRegressor(3, 2)
        lrn.w = rng.normal(size=15)
        kappas = lrn.predict(np.array([0.3, -0.2, 1.0])).kappas
        membership = membership_matrix(3)
        np.testing.assert_allclose(kappas, membership.T @ (membership @ lrn.w), rtol=1e-12)
        fixed = FixedTreeRegressor(3, 2)
        fixed.w = lrn.w.copy()
        pred = fixed.predict(np.array([0.3, -0.2, 1.0]))
        np.testing.assert_allclose(pred.kappas, kappas[pred.path_indices], rtol=1e-12)


class TestEnumeration:
    def test_depth_zero(self):
        assert enumerate_partitions(0) == [frozenset({0})]

    def test_depth_one(self):
        parts = enumerate_partitions(1)
        assert len(parts) == 2 == beta(1)
        assert frozenset({0}) in parts
        assert frozenset({index_of("0"), index_of("1")}) in parts

    def test_depth_two_matches_known_partitions(self):
        parts = {frozenset(label(p) for p in part) for part in enumerate_partitions(2)}
        assert parts == {
            frozenset({""}),
            frozenset({"0", "1"}),
            frozenset({"00", "01", "1"}),
            frozenset({"0", "10", "11"}),
            frozenset({"00", "01", "10", "11"}),
        }

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_count_equals_beta(self, depth):
        assert len(enumerate_partitions(depth)) == beta(depth)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_every_partition_valid(self, depth):
        for part in enumerate_partitions(depth):
            assert is_valid_partition(part, depth)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_leaf_coverage_sums(self, depth):
        for part in enumerate_partitions(depth):
            assert sum(1 << (depth - level(p)) for p in part) == 1 << depth

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_partitions(MAX_ENUMERATION_DEPTH + 1)

    def test_invalid_partitions_detected(self):
        assert not is_valid_partition({0, index_of("0")}, 1)    # nested
        assert not is_valid_partition({index_of("0")}, 1)       # incomplete
        assert not is_valid_partition({index_of("000")}, 2)     # too deep
        assert not is_valid_partition({-1}, 0)                  # outside the tree


class TestRhoTable:
    @pytest.mark.parametrize("depth", range(MAX_TABLE_DEPTH + 1))
    def test_matches_pairwise_rho(self, depth):
        table = rho_table(depth)
        n = node_count(depth)
        assert table.dtype == np.int64
        assert table.shape == (n, n)
        assert np.array_equal(table, table.T)
        assert table.tolist() == [[rho(p, q, depth) for q in range(n)] for p in range(n)]

    @pytest.mark.parametrize("depth", range(MAX_ENUMERATION_DEPTH + 1))
    def test_equals_co_leaf_counts(self, depth):
        # entry (p, q) of M^T M counts the partitions holding both p and q
        m = membership_matrix(depth)
        assert np.array_equal(rho_table(depth), (m.T @ m).astype(np.int64))

    def test_read_only_and_cached(self):
        table = rho_table(2)
        assert rho_table(2) is table
        with pytest.raises(ValueError):
            table[0, 0] = 5

    def test_depth_cap(self):
        with pytest.raises(ValueError, match=re.escape(
                f"rho_table is int64 and built only to depth {MAX_TABLE_DEPTH}, got depth 6")):
            rho_table(6)


COUNTS = [
    pytest.param(beta, id="beta"),
    pytest.param(lambda depth: gamma(depth, 0), id="gamma"),
    pytest.param(lambda depth: rho(0, 0, depth), id="rho"),
    pytest.param(rho_table, id="rho_table"),
]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("depth", [True, np.bool_(True), 1.0, 2.0, 2.5, "2", None])
def test_partition_counts_refuse_a_non_integer_depth(count, depth):
    # the valid depths 1 and 2 are cached first, so a cache keyed on
    # 1 == True == 1.0 would hand their counts back without a check
    count(1), count(2), count(np.int64(2))
    with pytest.raises(ValueError, match=re.escape(f"depth must be an integer, got {depth!r}")):
        count(depth)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("depth", [-1, -3, np.int64(-1)])
def test_partition_counts_refuse_a_negative_depth(count, depth):
    # rho_table(-1) used to return an empty (0, 0) table
    with pytest.raises(ValueError, match=re.escape(f"depth must be >= 0, got {int(depth)}")):
        count(depth)


@pytest.mark.parametrize("call, message", [
    (lambda: gamma(2, True), "node depth must be an integer, got True"),
    (lambda: gamma(2, 1.0), "node depth must be an integer, got 1.0"),
    (lambda: rho(True, 0, 2), "node p must be an integer, got True"),
    (lambda: rho(0, 2.0, 2), "node q must be an integer, got 2.0"),
])
def test_partition_counts_refuse_a_non_integer_node(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_partition_counts_take_numpy_integers():
    assert beta(np.int64(3)) == 26 and type(beta(np.int64(3))) is int
    assert gamma(np.int64(2), np.int64(1)) == 2
    assert rho(np.int64(3), np.int64(4), np.int64(2)) == 2
    assert np.array_equal(rho_table(np.int64(2)), rho_table(2))


class TestHeapTables:
    def test_ancestor_columns_are_padded_prefix_paths(self):
        # level-major, so a product over every node's path runs down rows
        for depth in TABLE_DEPTHS:
            ancestors = _heap_tables(depth)[0]
            assert ancestors.shape == (depth, node_count(depth))
            for i in range(node_count(depth)):
                bits = label(i)
                path = [index_of(bits[:k]) for k in range(1, len(bits) + 1)]
                pad = [0] * (depth - len(path))
                assert ancestors[:, i].tolist() == pad + path, (depth, i)

    def test_descendants_mark_prefix_relation(self):
        for depth in TABLE_DEPTHS:
            descendants = _heap_tables(depth)[1]
            n = node_count(depth)
            assert descendants.shape == (n, n)
            want = [[float(label(i).startswith(label(a))) for i in range(n)] for a in range(n)]
            assert descendants.tolist() == want, depth
            assert [[is_ancestor(a, i) for i in range(n)] for a in range(n)] == np.array(
                want, dtype=bool).tolist()

    def test_common_level_diagonal_holds_the_node_levels(self):
        for depth in TABLE_DEPTHS:
            common = _heap_tables(depth)[2]
            n = node_count(depth)
            assert common.diagonal().tolist() == [len(label(i)) for i in range(n)], depth
            for p in range(0, n, 7):
                for q in range(n):
                    a, b = label(p), label(q)
                    shared = next((k for k in range(min(len(a), len(b))) if a[k] != b[k]),
                                  min(len(a), len(b)))
                    assert common[p, q] == common[q, p] == shared, (depth, p, q)

    def test_read_only(self):
        for depth in TABLE_DEPTHS:
            for table in _heap_tables(depth):
                assert not table.flags.writeable
                if table.size:
                    with pytest.raises(ValueError):
                        table[(0,) * table.ndim] = 1

    def test_cached_and_contiguous_per_depth(self):
        for depth in TABLE_DEPTHS:
            tables = _heap_tables(depth)
            assert _heap_tables(depth) is tables
            ancestors, descendants, common, index = tables
            assert descendants[1:].flags.c_contiguous
            for table in tables:
                assert table.flags.c_contiguous
            assert index.shape == ancestors.shape and index.dtype == np.intp

    def test_import_builds_no_table(self):
        # the tables are built on first use, per depth, never at import
        code = ("import pwltree\n"
                "from pwltree import trees\n"
                "print(trees._heap_tables.cache_info().currsize, "
                "trees.rho_table.cache_info().currsize)")
        src = str(Path(pwltree.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0"]


class TestMembership:
    @pytest.mark.parametrize("depth", range(MAX_ENUMERATION_DEPTH + 1))
    def test_equals_the_per_entry_loop(self, depth):
        parts = enumerate_partitions(depth)
        n = node_count(depth)
        m = membership_matrix(depth)
        assert np.array_equal(m, loop_membership(parts, n))
        # column-major: each node's memberships are one contiguous column,
        # so the soft oracle's two membership products stream down whole columns
        assert m.flags.f_contiguous

    def test_refused_beyond_the_enumeration_depth(self):
        depth = MAX_ENUMERATION_DEPTH + 1
        with pytest.raises(ValueError) as refused:
            enumerate_partitions(depth)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            membership_matrix(depth)

    def test_rows_mark_partition_leaves(self):
        parts = enumerate_partitions(2)
        m = membership_matrix(2)
        assert m.shape == (5, 7)
        for k, part in enumerate(parts):
            assert m[k].sum() == len(part)
            for p in part:
                assert m[k, p] == 1.0
