import json
import re

import numpy as np
import pytest

from pwltree.adaptive_tree import AdaptiveTreeRegressor
from pwltree.datagen import generate
from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.mixture import DirectMixtureRegressor
from pwltree.trees import (
    ANCESTORS,
    BRANCHES,
    DESCENDANTS,
    MAX_ENUMERATION_DEPTH,
    MAX_TABLE_DEPTH,
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
                     loop_membership)

LEARNERS = {"dft": FixedTreeRegressor, "dat": AdaptiveTreeRegressor}


def subtree_bits(bits, depth):
    row = DESCENDANTS[index_of(bits), : node_count(depth)]
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

    def test_step_size_kinds_accepted(self):
        for make in (FixedTreeRegressor, AdaptiveTreeRegressor, DirectMixtureRegressor):
            for mu in (0.01, 1, np.float64(0.02), np.float32(0.5), np.int64(2)):
                lrn = make(2, 2, mu=mu)
                assert lrn.mu == float(mu) and type(lrn.mu) is float

    @pytest.mark.parametrize("depth", range(1, MAX_TABLE_DEPTH + 1))
    def test_learners_view_the_shared_tables(self, depth):
        # each learner reads the shared tables rather than copying them
        lrn = AdaptiveTreeRegressor(depth, 2)
        gates = lrn._gates
        for table, shared in zip((gates.gate, gates.sign, gates.offset), BRANCHES[depth], strict=True):
            assert table is shared and table.shape == (depth, lrn.n_nodes)
        assert np.shares_memory(gates.below, DESCENDANTS)
        assert gates.below.shape == (lrn.n_nodes - 1, lrn.n_nodes)


@pytest.mark.parametrize("make", [FixedTreeRegressor, AdaptiveTreeRegressor])
class TestSnapshotStepCounter:
    """The step counter ``t`` is part of a tree learner's snapshot."""

    def test_restore_resumes_a_callable_schedule(self, make):
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
        with pytest.raises(ValueError, match="step counter t must be an integer >= 1"):
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


class TestBetaGamma:
    def test_beta_values(self):
        assert [beta(j) for j in range(5)] == [1, 2, 5, 26, 677]
        assert beta(5) == 458330

    def test_beta_overflow_guard(self):
        beta(6)  # still within int64
        with pytest.raises(OverflowError):
            beta(7)

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
        with pytest.raises(ValueError):
            rho_table(6)


class TestHeapTables:
    def test_ancestor_columns_are_padded_prefix_paths(self):
        # level-major, so a product over every node's path runs down rows
        assert ANCESTORS.shape == (MAX_TABLE_DEPTH, node_count(MAX_TABLE_DEPTH))
        assert ANCESTORS.flags.c_contiguous
        for i in range(node_count(MAX_TABLE_DEPTH)):
            bits = label(i)
            path = [index_of(bits[:k]) for k in range(1, len(bits) + 1)]
            pad = [0] * (MAX_TABLE_DEPTH - len(path))
            assert ANCESTORS[:, i].tolist() == pad + path

    def test_descendants_mark_prefix_relation(self):
        n = node_count(MAX_TABLE_DEPTH)
        assert DESCENDANTS.shape == (n, n)
        for a in range(n):
            for i in range(n):
                inside = label(i).startswith(label(a))
                assert DESCENDANTS[a, i] == float(inside)
                assert is_ancestor(a, i) == inside

    def test_read_only(self):
        for table in (ANCESTORS, DESCENDANTS, *(t for tables in BRANCHES[1:] for t in tables)):
            with pytest.raises(ValueError):
                table[0, 0] = 1


class TestMembership:
    @pytest.mark.parametrize("depth", range(MAX_ENUMERATION_DEPTH + 1))
    def test_equals_the_per_entry_loop(self, depth):
        parts = enumerate_partitions(depth)
        n = node_count(depth)
        assert np.array_equal(membership_matrix(depth), loop_membership(parts, n))

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
