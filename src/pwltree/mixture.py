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
verify, not to scale: construction is refused beyond depth 4.

A node's activation is 1 on the path the frozen boundaries select and 0
elsewhere in hard mode, its product of clamped gates in soft mode; both
modes then share the ``v`` and ``w_vec`` steps, and soft mode also steps
``theta``.

Each instance builds its own membership matrix, by level recursion, and
its own span masks; in hard mode also the 0/1 activations of every
root -> leaf path and the owner table, in soft mode the branch tables of
a level-major ancestor table, both from the bit strings ``i + 1``.  It forms no
partition set (``partitions`` enumerates them on demand), and every step
still forms all ``beta(depth)`` estimates and moves all ``beta(depth)``
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
that the adaptive tree calls, run on this instance's own tables: the
activations are the branch factors ``f`` (1.0 at the root, ``s`` at a
lower child, ``1 - s`` at an upper one) gathered and multiplied down the
contiguous rows of the ancestor table, and the boundary step divides both
child subtree sums of every gate, read from the span masks, by ``f`` at
once and reuses the gate rise ``(1 - 2 s_plus) u`` that ``predict``
built.  What the oracle checks stays its own: the partition weights, the
estimates of every partition and the membership sums that carry them to
the nodes.

A step is a fixed number of numpy calls whatever the depth: 11 in hard
mode (6 in ``predict``, 5 in ``update``) and 33 in soft mode (15 in
``predict``, 18 in ``update``, 8 of them in ``boundary_factors``).  On
these small arrays a call's dispatch outweighs its arithmetic, so every
product is a ``.dot``, which reaches BLAS with less dispatch than ``@``;
the rank-1 steps of ``v`` and ``theta`` are ``(n, 1) . (1, dim + 1)``
products, with the bits of the broadcast ``a[:, None] * x``; only the
upper gate clamp can bind, and the boundary factor cap is a
``np.minimum`` and ``np.maximum`` pair; the hard path walk runs on Python
floats; both child-subtree sums of every gate come from one product; and
the input is converted once, in ``predict``, and carried on the
prediction.  The result is bit-identical to the plain ``@``, broadcast
and numpy-scalar loop form that touches just the ``depth + 1`` path rows
of ``v`` in hard mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .separators import initial_directions
from .trees import (
    MAX_ENUMERATION_DEPTH,
    Learner,
    _branch_tables,
    _gate_clamp,
    _hard_leaf,
    _hyperplanes,
    _integer,
    _SoftGates,
    _step_size,
    enumerate_partitions,
    membership_matrix,
    node_count,
)

# ridge added to the normal equations of a rank-deficient least-squares fit
RIDGE_EPS = 1e-8


@dataclass
class DirectPrediction:
    """Everything one prediction pass computed.  ``x`` is the input as the
    float array the step reads, ``model_estimates`` every partition's
    estimate and ``alphas`` every node's activation (0/1 in hard mode, 1 on
    the root -> leaf path).  The rest belongs to the soft mode: ``h`` holds
    the activation-weighted node estimates, ``f`` every node's branch
    factor (1.0 at the root, then the clamped gate value ``s`` of each
    internal node at its lower child and ``1 - s`` at its upper one),
    ``u`` the unclamped gate values and ``cu``, ``(1 - 2 s_plus) u``, each
    gate's rise above ``s_plus`` before the clamp."""

    y_hat: float
    model_estimates: np.ndarray
    x: np.ndarray
    alphas: np.ndarray
    h: np.ndarray | None = None
    f: np.ndarray | None = None
    u: np.ndarray | None = None
    cu: np.ndarray | None = None

    @property
    def s(self) -> np.ndarray | None:
        """Clamped gate value of every internal node (soft mode)."""
        return None if self.f is None else self.f[1::2]


class DirectMixtureRegressor(Learner):
    """O(beta(depth)) reference learner over all partitions.

    Parameters mirror the collapsed learners so the two can run in
    lockstep: ``mode='hard'`` twins :class:`FixedTreeRegressor` (frozen
    ``boundaries``) and ``mode='soft'`` twins :class:`AdaptiveTreeRegressor`
    (the ``s_plus`` clamp and the boundary step it fixes: step size
    ``mu / (s_plus (1 - s_plus))``, exact clamped-gate derivative, scalar
    factor clipped to ``step_cap = 10 s_plus (1 - s_plus)``).
    """

    def __init__(self, depth, dim, mode="hard", mu=0.01, boundaries=None, s_plus=0.01):
        depth = _integer(depth, "depth")
        if not 0 <= depth <= MAX_ENUMERATION_DEPTH:
            raise ValueError(f"direct mixture depth must be in [0, {MAX_ENUMERATION_DEPTH}], "
                             f"got {depth}")
        dim = _integer(dim, "dim", 1)
        if mode not in ("hard", "soft"):
            raise ValueError(f"unknown mode {mode!r}")
        self.depth = depth
        self.dim = dim
        self.mode = mode
        self.mu = _step_size(mu)
        self.s_plus = _gate_clamp(s_plus)
        self.n_nodes = node_count(depth)
        self.n_internal = (1 << depth) - 1
        self.membership = membership_matrix(depth)
        self.w_vec = np.zeros(len(self.membership))
        self.v = np.zeros((self.n_nodes, dim + 1))
        # 0/1 masks of the heap indices in a subtree: row i - 1 for the
        # subtree of node i, which holds j when the bit string i + 1 is a
        # prefix of j + 1; internal node j's two child subtrees are rows 2j
        # and 2j + 1, so one product sums both
        ids = np.arange(1, self.n_nodes + 1)
        bits = np.frexp(ids)[1]  # bit lengths
        self._spans = (ids >> np.maximum(bits - bits[1:, None], 0) == ids[1:, None]).astype(float)
        if boundaries is None:
            boundaries = initial_directions(depth, dim)
        init = _hyperplanes(boundaries, self.n_internal, dim, "boundaries")
        if mode == "hard":
            self.boundaries = init
            self.boundaries.setflags(write=False)
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
        else:
            self.theta = init
            # level-major ancestors: column i is the root -> i path below
            # the root, bottom-aligned and top-padded with the root 0, the
            # ancestor k levels up being ((i + 1) >> k) - 1; the gate kernel
            # reads its branch tables and the span masks
            ancestors = np.maximum((ids >> np.arange(depth - 1, -1, -1)[:, None]) - 1, 0)
            self._gates = _SoftGates(self.s_plus, _branch_tables(ancestors), self._spans)

    # ------------------------------------------------------------------
    @property
    def partitions(self) -> list[frozenset[int]]:
        """The ``beta(depth)`` partitions in ``membership`` row order,
        enumerated afresh on each access; no step reads them."""
        return enumerate_partitions(self.depth)

    @property
    def step_cap(self) -> float:
        """Bound on the magnitude of each boundary step's scalar factor."""
        return 10.0 * self.s_plus * (1.0 - self.s_plus)

    def predict(self, x_ext) -> DirectPrediction:
        """Every node's activation, every partition's estimate, then their
        weighted sum."""
        x = np.asarray(x_ext, dtype=float)
        if self.mode == "hard":
            leaf = _hard_leaf(self.boundaries, x, self.depth) - self.n_internal
            # each partition's estimate is that of its one node on the path
            d_vec = self.v.dot(x).take(self._owners[leaf])
            return DirectPrediction(float(self.w_vec.dot(d_vec)), d_vec, x,
                                    self._path_alphas[leaf])
        u, cu, f, alphas = self._gates.cascade(self.theta, x)
        h = alphas * self.v.dot(x)
        d_vec = self.membership.dot(h)
        return DirectPrediction(float(self.w_vec.dot(d_vec)), d_vec, x, alphas, h, f, u, cu)

    def update(self, x_ext, d_t: float, pred: DirectPrediction) -> None:
        """Gradient step on the partition weights plus the same node-state
        side effects the collapsed learners perform.  The step reads the
        input ``pred.x`` that ``predict`` was given as ``x_ext``."""
        e = d_t - pred.y_hat
        step = self.mu * e
        self.v += (step * pred.alphas)[:, None].dot(pred.x[None, :])
        if self.mode == "soft":
            self._update_theta(x_ext, e, pred)  # reads w_vec before its step
        self.w_vec += step * pred.model_estimates

    def boundary_factors(self, pred: DirectPrediction) -> np.ndarray:
        """Scalar factor of each internal node's boundary step (before the
        cap): the partition-weighted node estimates under the gate's two
        child subtrees, differenced, times the gate derivative."""
        return self._gates.factors(self.w_vec.dot(self.membership), pred)

    def _update_theta(self, x_ext, e: float, pred: DirectPrediction) -> None:
        self._gates.step(self.theta, self.boundary_factors(pred), pred.x, e, self.mu)

    def node_weight_image(self, node_weights: np.ndarray) -> np.ndarray:
        """Map collapsed per-node weights to partition space:
        partition k's weight is the sum of its members' node weights."""
        return self.membership.dot(np.asarray(node_weights, dtype=float))


def batch_best_weights(model_estimates: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares weights over a stored run history.

    ``model_estimates`` is (n, n_models); rank-deficient or short
    histories fall back to a ridge solve of the normal equations with
    ``RIDGE_EPS``.
    """
    D = np.asarray(model_estimates, dtype=float)
    y = np.asarray(targets, dtype=float)
    n, k = D.shape
    if n >= k:
        sol, _, rank, _ = np.linalg.lstsq(D, y, rcond=None)
        if rank == k:
            return sol
    gram = D.T @ D + RIDGE_EPS * np.eye(k)
    return np.linalg.solve(gram, D.T @ y)


def empirical_strong_convexity(model_estimates: np.ndarray) -> float:
    """Smallest eigenvalue of the empirical second-moment matrix of the
    per-partition estimates; the strong-convexity floor used to pick the
    decaying step size."""
    D = np.asarray(model_estimates, dtype=float)
    gram = D.T @ D / len(D)
    return float(np.linalg.eigvalsh(gram)[0])

