"""Explicit mixture over every subtree partition, used as ground truth.

This learner does exactly what the collapsed tree learners claim to do,
the expensive way: it materialises all ``beta(depth)`` partitions, keeps
one combination weight per partition, predicts with the full weighted sum
and updates the weight vector by a stochastic-gradient step.  Node
regressors (and soft boundaries) are shared across partitions and receive
the same side-effect updates as in the collapsed learners, so a lockstep
run must produce identical predictions at every step.  The soft boundary
gradient sums the partition weights onto the nodes once, then totals the
weighted node estimates under each gate's two child subtrees through 0/1
span masks built here, apart from the learners' heap tables.  It exists to
verify, not to scale, and is built at every depth the collapsed learners
take, 0 to 5: at depth 5 its membership matrix is 458330 x 63, 231 MB.

The module holds only that learner, :class:`DirectMixtureRegressor`, and
its prediction, :class:`DirectPrediction`.  A collapsed learner's node
weights ``w`` map onto the partition weights as ``membership . w`` (the
row of partition ``k`` sums its members' node weights), and the best
partition weights in hindsight over a run's estimates are one
``numpy.linalg.lstsq``, the exact minimum-norm least-squares fit at any
rank (:func:`pwltree.harness.weight_regret`).

A node's activation is 1 on the path the hyperplanes ``theta`` select
and 0 elsewhere in hard mode, its product of clamped gates in soft mode;
only soft mode has a gate clamp, ``s_plus``.  Both modes step ``v`` and
``w_vec``; soft mode steps ``v`` together with ``theta``, in the soft
tail's one rank-1 step of the learner's rows, and hard mode never moves
``theta``.

The oracle is built on the tree learners' base, :class:`TreeBase` of
:mod:`pwltree.trees`: the base checks the depth, dimension and step
size, with the messages and the one depth range the collapsed learners
give, and holds the node counts and the one array of rows a step reads
along the input: the node regressors ``v`` and, below them, the
hyperplanes ``theta``, in either mode.  What the oracle checks the
learners with stays its own.  Each instance builds its own membership
matrix, by level recursion and column-major, its own partition weights
``w_vec`` and its own span masks; in hard mode also the 0/1 activations
of every root -> leaf path and the owner table, in soft mode the branch
index of a level-major ancestor table, both from the bit strings ``i +
1``.  It reads no heap table of :mod:`pwltree.trees`, forms no partition
set (``partitions`` enumerates them on demand), and every step still
forms all ``beta(depth)`` estimates and moves all ``beta(depth)``
weights.

The partitions tile the leaves, so each holds exactly one node of any
root -> leaf path (the fact that lets context-tree weighting spend
O(depth) per symbol).  In hard mode every other node's activation is 0,
so row ``k`` of ``membership . h`` has one nonzero term, and the estimate
of partition ``k`` is that of its path node: the owner table names it, per
leaf and partition, and a step gathers the ``beta(depth)`` estimates from
the node estimates with one ``take``.  A sum whose other terms are zeros
is that one term exactly, so the gather has the bits of the product; it
can differ only where a path estimate is ``-0.0`` (the sum may give
``+0.0``) or an off-path node estimate is not finite, as after a
divergence (``0 * inf`` puts a NaN in the sum), and the default state
reaches neither.

In soft mode every node is active and ``membership . h`` is a full
product.  The gates, the activations, the boundary-step factors and the
capped hyperplane step are the soft-gate kernel of :mod:`pwltree.trees`
that the adaptive tree calls, run on this instance's own tables (the
clamp check, ``step_cap`` and ``update_boundaries`` are the soft tail
the two share): the activations are the branch factors ``f`` (1.0 at
the root, ``s`` at a lower child, ``1 - s`` at an upper one) gathered
in one ``take`` from the kernel's branch buffer and multiplied down the
contiguous rows of the ancestor table, and the boundary step divides
both child subtree sums of every gate, read from the span masks, by
``f`` at once and reuses the gate rise ``(1 - 2 s_plus) u`` that
``predict`` built.  What the oracle checks stays its own: the partition weights, the
estimates of every partition and the membership sums that carry them to
the nodes.

A step is a fixed number of numpy calls whatever the depth: 11 in hard
mode (5 in ``predict``, 6 in ``update``) and at most 32 in soft mode
(13 in ``predict``, 19 in ``update``, 8 of them in
``boundary_factors``), the scalar step factors written into 0-d
arrays.  On these small arrays a call's dispatch outweighs its
arithmetic, so every product is a
``.dot``, which reaches BLAS with less dispatch than ``@``; one product
of the row array with the input gives every node's estimate and every
gate's product, in either mode, and the rank-1 step of the rows is an
``(n, 1) . (1, dim + 1)`` product, with the bits of the broadcast
``a[:, None] * x``; only the
upper gate clamp can bind, and the boundary factor cap is a
``np.minimum`` and ``np.maximum`` pair; the hard path walk runs on Python
floats; both child-subtree sums of every gate come from one product; and
the input is converted once, in ``predict``, and carried on the
prediction.  The result is bit-identical to the plain ``@``, broadcast
and numpy-scalar loop form that touches just the ``depth + 1`` path rows
of ``v`` in hard mode.

The membership matrix is column-major, as ``membership_matrix`` builds
it, and is kept without a copy.  Soft mode's two products with it are
the only work in a step that grows with ``beta(depth)``: ``predict``'s
``membership . h`` then streams down the ``n_nodes`` columns in one
matrix-vector product, and ``boundary_factors``' ``w_vec . membership``
is ``n_nodes`` dot products of contiguous ``beta(depth)``-long columns.
At depth 4 (677 x 31), single-threaded OpenBLAS on a 2-core x86-64
host, the two take 3.4 µs each against 4.4 and 4.2 µs on a row-major
copy; at depth <= 3 the two layouts time alike.  BLAS sums the products
in another order than on a row-major matrix, so they differ from that
form in the last bits; a reference checks the bits on a column-major
copy.  The hard path's owner table is an exact integer product, the
same in either layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .separators import initial_directions
from .trees import (
    SoftPrediction,
    TreeBase,
    _branch_index,
    _hard_leaf,
    _SoftTail,
    enumerate_partitions,
    membership_matrix,
)


@dataclass
class DirectPrediction(SoftPrediction):
    """Everything one prediction pass computed: the fields the soft-gate
    kernel reads (see :class:`~pwltree.trees.SoftPrediction`; in hard
    mode ``alphas`` is 0/1, 1 on the root -> leaf path, and the soft
    fields are None) and every partition's estimate."""

    model_estimates: np.ndarray


class DirectMixtureRegressor(_SoftTail, TreeBase):
    """O(beta(depth)) reference learner over all partitions.

    Parameters mirror the collapsed learners so the two can run in
    lockstep: ``mode='hard'`` twins :class:`FixedTreeRegressor` (``theta``
    never moves) and ``mode='soft'`` twins :class:`AdaptiveTreeRegressor`
    (the ``s_plus`` clamp and the boundary step it fixes: step size
    ``mu / (s_plus (1 - s_plus))``, exact clamped-gate derivative, scalar
    factor clipped to ``step_cap = 10 s_plus (1 - s_plus)``).  ``s_plus``
    defaults to 0.01 in soft mode; hard mode has no gate clamp and refuses
    one.  Every depth the collapsed learners take is built, 0 to 5.
    """

    def __init__(self, depth, dim, mode="hard", mu=0.01, theta=None, s_plus=None):
        super().__init__(depth, dim, mu)
        if mode not in ("hard", "soft"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "hard" and s_plus is not None:
            raise ValueError(f"s_plus is the soft gates' clamp, and mode 'hard' takes none, "
                             f"got {s_plus!r}")
        self.mode = mode
        self.membership = membership_matrix(self.depth)
        self.w_vec = np.zeros(len(self.membership))
        # 0/1 masks of the heap indices in a subtree: row i - 1 for the
        # subtree of node i, which holds j when the bit string i + 1 is a
        # prefix of j + 1; internal node j's two child subtrees are rows 2j
        # and 2j + 1, so one product sums both
        ids = np.arange(1, self.n_nodes + 1)
        bits = np.frexp(ids)[1]  # bit lengths
        self._spans = (ids >> np.maximum(bits - bits[1:, None], 0) == ids[1:, None]).astype(float)
        if mode == "soft":
            # level-major ancestors: column i is the root -> i path below
            # the root, bottom-aligned and top-padded with the root 0, the
            # ancestor k levels up being ((i + 1) >> k) - 1; the gate kernel
            # reads its branch index and the span masks
            ancestors = np.maximum((ids >> np.arange(self.depth - 1, -1, -1)[:, None]) - 1, 0)
            self._soft_gates(0.01 if s_plus is None else s_plus,
                             (_branch_index(ancestors), self._spans))
        else:
            # a leaf's root -> leaf path is every node whose subtree holds
            # it: column leaf - n_internal of paths (row of _path_alphas)
            # is 1 on that path and 0 elsewhere
            paths = np.vstack([np.ones(self.n_nodes), self._spans])[:, self.n_internal:]
            self._path_alphas = paths.T.copy()
            self._path_alphas.setflags(write=False)
            # a partition tiles the leaves, so it holds exactly one node of
            # each root -> leaf path: row leaf - n_internal names that node
            # for every partition, and one product finds it by summing the
            # heap indices of the path nodes in each partition
            owners = self.membership.dot(paths * np.arange(self.n_nodes)[:, None])
            self._owners = owners.T.astype(np.intp, order="C")
            self._owners.setflags(write=False)
        self.theta = initial_directions(self.depth, self.dim) if theta is None else theta

    # ------------------------------------------------------------------
    @property
    def partitions(self) -> list[frozenset[int]]:
        """The ``beta(depth)`` partitions in ``membership`` row order,
        enumerated afresh on each access; no step reads them.  Like
        ``enumerate_partitions``, refused beyond depth 4."""
        return enumerate_partitions(self.depth)

    def predict(self, x_ext) -> DirectPrediction:
        """Every node's activation, every partition's estimate, then their
        weighted sum."""
        x = np.asarray(x_ext, dtype=float)
        rows_x = self._rows.dot(x)  # every node's estimate, then every gate's product
        n = self.n_nodes
        if self.mode == "hard":
            leaf = _hard_leaf(rows_x[n:], self.depth) - self.n_internal
            # each partition's estimate is that of its one node on the path
            d_vec = rows_x.take(self._owners[leaf])
            return DirectPrediction(float(self.w_vec.dot(d_vec)), x, self._path_alphas[leaf],
                                    None, None, None, None, d_vec)
        u, cu, f, alphas = self._gates.cascade(rows_x[n:])
        h = alphas * rows_x[:n]
        d_vec = self.membership.dot(h)
        return DirectPrediction(float(self.w_vec.dot(d_vec)), x, alphas, h, f, u, cu, d_vec)

    def update(self, x_ext, d_t: float, pred: DirectPrediction) -> None:
        """Gradient step on the partition weights plus the same node-state
        side effects the collapsed learners perform.  The step reads the
        input ``pred.x`` that ``predict`` was given as ``x_ext``."""
        e = d_t - pred.y_hat
        step = self._gain
        step[()] = self.mu * e
        if self.mode == "soft":
            # v and theta in one rank-1 step; reads w_vec before its step
            self.update_boundaries(x_ext, e, pred)
        else:
            v = self.v  # a view: the step moves the regressors in place, never theta
            v += (step * pred.alphas)[:, None].dot(pred.x[None, :])
        self.w_vec += step * pred.model_estimates

    def boundary_factors(self, pred: DirectPrediction) -> np.ndarray:
        """Scalar factor of each internal node's boundary step (before the
        cap): the partition-weighted node estimates under the gate's two
        child subtrees, differenced, times the gate derivative."""
        return self._gates.factors(self.w_vec.dot(self.membership), pred)
