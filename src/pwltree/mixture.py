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

Each instance builds its own partitions, membership matrix, span masks
and (hard mode) root-to-leaf paths, and every step still forms all
``beta(depth)`` estimates and moves all ``beta(depth)`` weights.  Three
products carry that work: ``membership . h``, ``w_vec . membership`` and
the ``w_vec`` step.  The rest is a fixed number of numpy calls whatever
the depth: about 13 in hard mode (9 in ``predict``, 4 in ``update``) and
35 in soft mode (14 in ``predict``, 21 in ``update``, 11 of them in
``boundary_factors``).  On these small arrays a call's dispatch outweighs
its arithmetic, so every product is a ``.dot``, which reaches BLAS with
less dispatch than ``@``; the rank-1 steps of ``v`` and ``theta`` are
``(n, 1) . (1, dim + 1)`` products, with the bits of the broadcast
``a[:, None] * x``; the clamp and the cap are a ``np.minimum`` and
``np.maximum`` pair each; the activation cascade and the hard path walk
run on Python floats; both child-subtree sums of every gate come from one
product; and the input is converted once, in ``predict``, and carried on
the prediction.  The result is bit-identical to the plain ``@``,
broadcast and numpy-scalar loop form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .separators import initial_directions
from .trees import (
    _gate_clamp,
    _integer,
    _step_size,
    enumerate_partitions,
    membership_matrix,
    node_count,
)

MAX_DIRECT_DEPTH = 4  # beta(4) = 677 partitions


@dataclass
class DirectPrediction:
    """Everything one prediction pass computed.  ``x`` is the input as the
    float array the step reads; ``s``, ``u`` and ``alphas`` belong to the
    soft mode, ``path_indices`` (root -> leaf heap indices) to the hard one."""

    y_hat: float
    model_estimates: np.ndarray
    h: np.ndarray
    x: np.ndarray
    s: np.ndarray | None = None
    u: np.ndarray | None = None
    alphas: np.ndarray | None = None
    path_indices: np.ndarray | None = None


class DirectMixtureRegressor:
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
        if not 0 <= depth <= MAX_DIRECT_DEPTH:
            raise ValueError(f"direct mixture depth must be in [0, {MAX_DIRECT_DEPTH}], got {depth}")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if mode not in ("hard", "soft"):
            raise ValueError(f"unknown mode {mode!r}")
        self.depth = depth
        self.dim = dim
        self.mode = mode
        self.mu = _step_size(mu, schedule=True)
        self.s_plus = _gate_clamp(s_plus)
        self.n_nodes = node_count(depth)
        self.n_internal = (1 << depth) - 1
        self.partitions = enumerate_partitions(depth)
        self.membership = membership_matrix(depth, self.partitions)
        self.w_vec = np.zeros(len(self.partitions))
        self.v = np.zeros((self.n_nodes, dim + 1))
        if boundaries is None:
            boundaries = initial_directions(depth, dim)
        init = np.array(boundaries, dtype=float)
        if init.shape != (self.n_internal, dim + 1):
            raise ValueError(f"boundary array must have shape ({self.n_internal}, {dim + 1})")
        if not np.isfinite(init).all():
            raise ValueError("boundary array must be finite")
        if mode == "hard":
            self.boundaries = init
            self.boundaries.setflags(write=False)
            # root -> leaf path of every leaf: its ancestors are (leaf + 1) >> k, less 1
            leaves = np.arange(self.n_internal, self.n_nodes)
            self._paths = ((leaves[:, None] + 1) >> np.arange(depth, -1, -1)) - 1
            self._paths.setflags(write=False)
        else:
            self.theta = init
        # 0/1 masks of the heap indices in a subtree: row i - 1 for the
        # subtree of node i, so internal node j's two child subtrees are
        # rows 2j (_span0) and 2j + 1 (_span1), and one product sums both
        self._spans = np.zeros((2 * self.n_internal, self.n_nodes))
        for i in range(1, self.n_nodes):
            self._spans[i - 1, _subtree_indices(i, self.n_nodes)] = 1.0
        self._span0, self._span1 = self._spans[0::2], self._spans[1::2]
        self.t = 1

    # ------------------------------------------------------------------
    def _mu_t(self) -> float:
        return float(self.mu(self.t)) if callable(self.mu) else float(self.mu)

    @property
    def step_cap(self) -> float:
        """Bound on the magnitude of each boundary step's scalar factor."""
        return 10.0 * self.s_plus * (1.0 - self.s_plus)

    def predict(self, x_ext) -> DirectPrediction:
        """Every partition's estimate, then their weighted sum."""
        x = np.asarray(x_ext, dtype=float)
        if self.mode == "hard":
            # a point strictly on the negative side goes to the lower child
            gates = self.boundaries.dot(x).tolist()
            i = 0
            for _ in range(self.depth):
                i = 2 * i + 1 if gates[i] < 0.0 else 2 * i + 2
            path = self._paths[i - self.n_internal]
            h = np.zeros(self.n_nodes)
            h[path] = self.v.take(path, axis=0).dot(x)
            d_vec = self.membership.dot(h)
            return DirectPrediction(float(self.w_vec.dot(d_vec)), d_vec, h, x, path_indices=path)
        u = expit(-self.theta.dot(x))
        s = self.s_plus + (1.0 - 2.0 * self.s_plus) * u
        np.minimum(s, 1.0 - self.s_plus, out=s)
        np.maximum(s, self.s_plus, out=s)
        alphas = [1.0] * self.n_nodes
        for i, s_i in enumerate(s.tolist()):
            alphas[2 * i + 1] = alphas[i] * s_i
            alphas[2 * i + 2] = alphas[i] * (1.0 - s_i)
        alphas = np.array(alphas)
        h = alphas * self.v.dot(x)
        d_vec = self.membership.dot(h)
        return DirectPrediction(float(self.w_vec.dot(d_vec)), d_vec, h, x, s=s, u=u, alphas=alphas)

    def update(self, x_ext, d_t: float, pred: DirectPrediction) -> None:
        """Gradient step on the partition weights plus the same node-state
        side effects the collapsed learners perform.  The step reads the
        input ``pred.x`` that ``predict`` was given as ``x_ext``."""
        e = d_t - pred.y_hat
        step = self._mu_t() * e
        if self.mode == "hard":
            # the path holds distinct nodes, so add.at matches a fancy-index +=
            np.add.at(self.v, pred.path_indices, step * pred.x)
        else:
            self.v += (step * pred.alphas)[:, None].dot(pred.x[None, :])
            self._update_theta(x_ext, e, pred)  # reads w_vec before its step
        self.w_vec += step * pred.model_estimates
        self.t += 1

    def boundary_factors(self, pred: DirectPrediction) -> np.ndarray:
        """Scalar factor of each internal node's boundary step (before the
        cap): the partition-weighted node estimates under the gate's two
        child subtrees, differenced, times the gate derivative."""
        sub = self._spans.dot(self.w_vec.dot(self.membership) * pred.h)
        sigma = sub[0::2] / pred.s - sub[1::2] / (1.0 - pred.s)
        return sigma * ((1.0 - 2.0 * self.s_plus) * pred.u * (1.0 - pred.u))

    def _update_theta(self, x_ext, e: float, pred: DirectPrediction) -> None:
        eta = self._mu_t() / (self.s_plus * (1.0 - self.s_plus))
        factors = self.boundary_factors(pred)
        cap = self.step_cap
        np.minimum(factors, cap, out=factors)
        np.maximum(factors, -cap, out=factors)
        self.theta -= (factors * (eta * e))[:, None].dot(pred.x[None, :])

    def step(self, x_ext, d_t: float) -> tuple[float, float]:
        pred = self.predict(x_ext)
        self.update(x_ext, d_t, pred)
        return pred.y_hat, d_t - pred.y_hat

    def node_weight_image(self, node_weights: np.ndarray) -> np.ndarray:
        """Map collapsed per-node weights to partition space:
        partition k's weight is the sum of its members' node weights."""
        return self.membership.dot(np.asarray(node_weights, dtype=float))


def _subtree_indices(root: int, n_nodes: int) -> np.ndarray:
    out = []
    frontier = [root]
    while frontier:
        i = frontier.pop()
        if i < n_nodes:
            out.append(i)
            frontier.extend((2 * i + 1, 2 * i + 2))
    return np.array(sorted(out), dtype=np.intp)


def batch_best_weights(model_estimates: np.ndarray, targets: np.ndarray,
                       ridge_eps: float = 1e-8) -> np.ndarray:
    """Least-squares weights over a stored run history.

    ``model_estimates`` is (n, n_models); rank-deficient or short
    histories fall back to a ridge solve of the normal equations with the
    stated epsilon.
    """
    D = np.asarray(model_estimates, dtype=float)
    y = np.asarray(targets, dtype=float)
    n, k = D.shape
    if n >= k:
        sol, _, rank, _ = np.linalg.lstsq(D, y, rcond=None)
        if rank == k:
            return sol
    gram = D.T @ D + ridge_eps * np.eye(k)
    return np.linalg.solve(gram, D.T @ y)


def empirical_strong_convexity(model_estimates: np.ndarray) -> float:
    """Smallest eigenvalue of the empirical second-moment matrix of the
    per-partition estimates; the strong-convexity floor used to pick the
    decaying step size."""
    D = np.asarray(model_estimates, dtype=float)
    gram = D.T @ D / len(D)
    return float(np.linalg.eigvalsh(gram)[0])

