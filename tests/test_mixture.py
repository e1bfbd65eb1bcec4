import ast
from pathlib import Path

import numpy as np
import pytest

from pwltree import mixture
from pwltree.adaptive_tree import AdaptiveTreeRegressor
from pwltree.baselines import LinearFilter, VolterraFilter
from pwltree.datagen import generate
from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.harness import verify_equivalence
from pwltree.mixture import DirectMixtureRegressor
from pwltree.trees import beta, membership_matrix, rho_table

from helpers import is_ancestor, label, loop_membership, subtree_matrix


def subtree_of(root, n_nodes):
    """Heap indices of the subtree of ``root``: the nodes whose bit-string
    name starts with the name of ``root``."""
    return [j for j in range(n_nodes) if label(j).startswith(label(root))]


def loop_boundary_factors(lrn, pred):
    """Reference soft boundary factors: per internal node, the partition
    estimates restricted to each child subtree, weighted by ``w_vec``."""
    factors = np.empty(lrn.n_internal)
    for i in range(lrn.n_internal):
        span0 = subtree_of(2 * i + 1, lrn.n_nodes)
        span1 = subtree_of(2 * i + 2, lrn.n_nodes)
        lo = lrn.membership[:, span0] @ pred.h[span0]
        hi = lrn.membership[:, span1] @ pred.h[span1]
        sigma = float(lrn.w_vec @ lo) / pred.s[i] - float(lrn.w_vec @ hi) / (1.0 - pred.s[i])
        factors[i] = sigma * (1.0 - 2.0 * lrn.s_plus) * pred.u[i] * (1.0 - pred.u[i])
    return factors


class TestDirectPredict:
    def test_zero_weights(self):
        lrn = DirectMixtureRegressor(2, 2, mode="hard")
        assert lrn.predict(np.array([0.5, 0.5, 1.0])).y_hat == 0.0

    def test_unit_weight_selects_one_model(self):
        lrn = DirectMixtureRegressor(2, 2, mode="hard")
        rng = np.random.default_rng(0)
        lrn.v = rng.normal(size=lrn.v.shape)
        x = np.array([0.3, -0.8, 1.0])
        for k in range(len(lrn.partitions)):
            lrn.w_vec[:] = 0.0
            lrn.w_vec[k] = 1.0
            pred = lrn.predict(x)
            assert pred.y_hat == pytest.approx(float(pred.model_estimates[k]))

    def test_depth_four_has_677_models(self):
        lrn = DirectMixtureRegressor(4, 2, mode="hard")
        assert len(lrn.partitions) == 677
        with pytest.raises(ValueError):
            DirectMixtureRegressor(6, 2)

    @pytest.mark.parametrize("depth", [-1, 6])
    def test_depth_outside_the_range_is_refused_naming_it(self, depth):
        # the collapsed learners' range: the oracle is built at every depth they take
        with pytest.raises(ValueError, match=rf"^depth must be in \[0, 5\], got {depth}$"):
            DirectMixtureRegressor(depth, 2)

    @pytest.mark.parametrize("dim", [0, -1, True, 2.0, "2"])
    def test_dim_below_one_is_refused(self, dim):
        # as every other learner with a dim refuses it; a dim that is no
        # integer is refused as such, not read as 1 or 2
        message = "dim must be >= 1" if type(dim) is int else f"dim must be an integer, got {dim!r}"
        for make in (lambda: DirectMixtureRegressor(2, dim),
                     lambda: FixedTreeRegressor(2, dim),
                     lambda: AdaptiveTreeRegressor(2, dim),
                     lambda: LinearFilter(dim),
                     lambda: VolterraFilter(dim)):
            with pytest.raises(ValueError, match=message):
                make()

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_each_instance_builds_its_own_tables(self, mode):
        # an oracle must not share what it checks with another instance
        a, b = DirectMixtureRegressor(3, 2, mode=mode), DirectMixtureRegressor(3, 2, mode=mode)
        assert a.partitions == b.partitions and a.partitions is not b.partitions
        pairs = [(a.membership, b.membership), (a._spans, b._spans)]
        pairs += [(a._owners, b._owners) if mode == "hard" else (a._gates.index, b._gates.index)]
        for ours, theirs in pairs:
            assert np.array_equal(ours, theirs) and not np.shares_memory(ours, theirs)

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_keeps_the_column_major_membership(self, monkeypatch, depth, mode):
        # the oracle holds the array membership_matrix returns, looked up
        # in this module at build time, without a copy to another layout
        built = []
        monkeypatch.setattr(mixture, "membership_matrix",
                            lambda depth: built.append(membership_matrix(depth)) or built[-1])
        lrn = DirectMixtureRegressor(depth, 2, mode=mode)
        assert len(built) == 1 and lrn.membership is built[0]
        assert lrn.membership.flags.f_contiguous

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_construction_enumerates_no_partition(self, monkeypatch, depth, mode):
        # the tables are built by level recursion; the partition sets are
        # enumerated only when asked for
        def refuse(depth):
            raise AssertionError("enumerate_partitions called while building")

        monkeypatch.setattr(mixture, "enumerate_partitions", refuse)
        lrn = DirectMixtureRegressor(depth, 2, mode=mode)
        monkeypatch.undo()
        parts = lrn.partitions
        assert len(parts) == beta(depth) and all(type(p) is frozenset for p in parts)
        assert np.array_equal(lrn.membership, loop_membership(parts, lrn.n_nodes))
        assert lrn.w_vec.shape == (beta(depth),)


class TestPathOwners:
    @pytest.mark.parametrize("depth", range(5))
    def test_owner_lies_on_the_path_and_in_the_partition(self, depth):
        lrn = DirectMixtureRegressor(depth, 2, mode="hard")
        assert lrn._owners.shape == (1 << depth, beta(depth))
        for leaf, owners in enumerate(lrn._owners.tolist()):
            node = leaf + lrn.n_internal
            for k, owner in enumerate(owners):
                assert is_ancestor(owner, node)
                assert lrn.membership[k, owner] == 1.0

    @pytest.mark.parametrize("depth", range(5))
    def test_gather_has_the_bits_of_the_membership_product(self, depth):
        lrn = DirectMixtureRegressor(depth, 2, mode="hard")
        rng = np.random.default_rng(400 + depth)
        for leaf, path in enumerate(lrn._path_alphas):
            for scale in (1e-300, 1e-3, 1.0, 1e300):
                h = np.where(path == 1.0, rng.normal(size=lrn.n_nodes) * scale, 0.0)
                got = h.take(lrn._owners[leaf])
                assert got.tobytes() == lrn.membership.dot(h).tobytes()

    @pytest.mark.parametrize("depth", range(5))
    def test_soft_ancestor_table_is_the_adaptive_tree_layout(self, depth):
        # built by the oracle from the bit strings, not read from the heap
        # tables: the branch-buffer index of every ancestor-table entry
        ours = DirectMixtureRegressor(depth, 2, mode="soft")._gates.index
        theirs = AdaptiveTreeRegressor(depth, 2)._gates.index
        assert ours is not theirs and ours.shape == theirs.shape == (depth, (2 << depth) - 1)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    def test_prediction_carries_the_soft_gates(self):
        lrn = DirectMixtureRegressor(2, 2, mode="soft", s_plus=0.05)
        lrn.theta = np.array([[4e3, 0.0, 0.0], [-1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        pred = lrn.predict(np.array([0.3, -0.4, 1.0]))
        assert np.array_equal(pred.s, pred.f[1::2]) and pred.f[0] == 1.0
        assert np.array_equal(pred.f[2::2], 1.0 - pred.s)
        assert np.array_equal(pred.cu, (1.0 - 2.0 * lrn.s_plus) * pred.u)
        assert pred.s[0] == lrn.s_plus  # u = 0: the clamp's floor, reached unclamped
        assert pred.s[2] == lrn.s_plus + (1.0 - 2.0 * lrn.s_plus) * 0.5
        hard = DirectMixtureRegressor(2, 2, mode="hard").predict(np.array([0.3, -0.4, 1.0]))
        assert hard.h is hard.f is hard.s is hard.u is hard.cu is None


class TestDirectUpdate:
    def test_zero_error_is_a_no_op(self):
        lrn = DirectMixtureRegressor(1, 2, mode="hard")
        x = np.array([1.0, 0.0, 1.0])
        pred = lrn.predict(x)
        lrn.update(x, pred.y_hat, pred)
        assert not lrn.w_vec.any()

    def test_depth_zero_is_scalar_lms_on_root_estimate(self):
        lrn = DirectMixtureRegressor(0, 2, mode="hard", mu=0.1)
        lrn.v[0] = np.array([1.0, 0.0, 0.0])
        x = np.array([2.0, 0.0, 1.0])
        pred = lrn.predict(x)
        assert pred.y_hat == pytest.approx(lrn.w_vec[0] * 2.0)
        lrn.update(x, 1.0, pred)
        assert lrn.w_vec[0] == pytest.approx(0.1 * 1.0 * 2.0)

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_node_weight_bookkeeping_tracks_collapsed_weights(self, mode, depth):
        # partition k's weight is the sum of its members' node weights, so
        # the collapsed w maps onto the oracle's w_vec through membership
        stream = generate("matched", 200, seed=13)
        if mode == "hard":
            fast = FixedTreeRegressor(depth, 2, mu=0.01)
        else:
            fast = AdaptiveTreeRegressor(depth, 2, mu=0.01, s_plus=0.01)
        slow = DirectMixtureRegressor(depth, 2, mode=mode, mu=0.01)
        for x, d in zip(stream.extended, stream.targets):
            fast.step(x, d)
            slow.step(x, d)
            np.testing.assert_allclose(slow.w_vec, slow.membership.dot(fast.w), rtol=0,
                                       atol=1e-12)

    def test_soft_trajectory_equivalence(self):
        stream = generate("mismatched", 400, seed=17)
        fast = AdaptiveTreeRegressor(2, 2, mu=0.005, s_plus=0.01)
        slow = DirectMixtureRegressor(2, 2, mode="soft", mu=0.005, s_plus=0.01)
        for x, d in zip(stream.extended, stream.targets):
            y1, _ = fast.step(x, d)
            y2, _ = slow.step(x, d)
            assert abs(y1 - y2) <= 1e-9 * (1 + abs(y2))
        np.testing.assert_allclose(fast.theta, slow.theta, rtol=1e-9)


class TestBoundaryGradient:
    @pytest.mark.parametrize("depth", range(5))
    def test_factors_match_loop(self, depth):
        # the masked sums add in another order than the per-node loop, and
        # a / s - b / (1 - s) cancels, so the tolerance is relative to the
        # largest factor as well as to each one
        rng = np.random.default_rng(300 + depth)
        for _ in range(60):
            lrn = DirectMixtureRegressor(depth, 2, mode="soft",
                                         s_plus=10.0 ** rng.uniform(-4, -1))
            lrn.w_vec = rng.normal(size=lrn.w_vec.shape)
            lrn.v = rng.normal(size=lrn.v.shape)
            lrn.theta = rng.normal(size=lrn.theta.shape) * 10.0 ** rng.uniform(-1, 2)
            x = np.append(3.0 * rng.normal(size=2), 1.0)
            pred = lrn.predict(x)
            want = loop_boundary_factors(lrn, pred)
            np.testing.assert_allclose(lrn.boundary_factors(pred), want, rtol=1e-11,
                                       atol=1e-11 * np.abs(want).max(initial=0.0))

    @pytest.mark.parametrize("depth", range(5))
    def test_span_masks_are_the_childrens_descendant_rows(self, depth):
        lrn = DirectMixtureRegressor(depth, 2, mode="soft")
        rows = subtree_matrix(lrn.n_nodes)
        assert np.array_equal(lrn._spans[0::2], rows[1::2])
        assert np.array_equal(lrn._spans[1::2], rows[2::2])

    def test_oracle_reads_no_heap_table(self):
        # the oracle checks the learners, so it builds its own subtree spans
        tree = ast.parse(Path(mixture.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module == "trees" for alias in node.names}
        assert imported and imported.isdisjoint({"_heap_tables", "rho_table"})


class TestStrongConvexity:
    def test_depth_two_model_estimates_are_structurally_dependent(self):
        # the four-cell and the two-half models pair up: their estimate sums
        # coincide for every input, so the gram matrix is always singular.
        # The decaying step 2 / (lambda t) needs lambda > 0, which is why
        # weight_regret (criterion 5) runs a depth-1 tree
        lrn = DirectMixtureRegressor(2, 2, mode="hard")
        rng = np.random.default_rng(23)
        lrn.v = rng.normal(size=lrn.v.shape)
        D = np.array([
            lrn.predict(np.append(rng.normal(size=2), 1.0)).model_estimates
            for _ in range(100)
        ])
        assert float(np.linalg.eigvalsh(D.T @ D / len(D))[0]) < 1e-12


@pytest.mark.slow
class TestDepthFive:
    """The explicit mixture at the learners' deepest tree: 458330
    partitions, a 231 MB membership matrix and ~0.5 GB at the peak of an
    oracle's build, so only the full suite builds it."""

    def test_membership_matrix_gives_the_rho_table(self):
        m = membership_matrix(5)
        assert m.shape == (beta(5), 63) and m.flags.f_contiguous
        # entry (p, q) of M^T M counts the partitions holding both p and q
        assert np.array_equal(m.T.dot(m), rho_table(5))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode, steps", [("dft", 300), ("dat", 150)])
    def test_lockstep(self, mode, steps, seed):
        assert verify_equivalence(mode, 5, steps, seed=seed, mu=1e-3) <= 1e-9
