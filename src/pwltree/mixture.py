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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .separators import initial_directions
from .trees import enumerate_partitions, membership_matrix, node_count

MAX_DIRECT_DEPTH = 4  # beta(4) = 677 partitions


@dataclass
class DirectPrediction:
    y_hat: float
    model_estimates: np.ndarray
    h: np.ndarray
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
        if not 0 <= depth <= MAX_DIRECT_DEPTH:
            raise ValueError(f"direct mixture refused beyond depth {MAX_DIRECT_DEPTH}")
        if mode not in ("hard", "soft"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "soft" and not 0.0 < s_plus < 0.5:
            raise ValueError("s_plus must lie in (0, 0.5)")
        self.depth = depth
        self.dim = dim
        self.mode = mode
        self.mu = mu
        self.s_plus = float(s_plus)
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
        else:
            self.theta = init
        # row i: 0/1 masks of the heap indices in internal node i's two child subtrees
        self._span0, self._span1 = np.zeros((2, self.n_internal, self.n_nodes))
        for i in range(self.n_internal):
            self._span0[i, _subtree_indices(2 * i + 1, self.n_nodes)] = 1.0
            self._span1[i, _subtree_indices(2 * i + 2, self.n_nodes)] = 1.0
        self.t = 1

    # ------------------------------------------------------------------
    def _mu_t(self) -> float:
        return float(self.mu(self.t)) if callable(self.mu) else float(self.mu)

    @property
    def step_cap(self) -> float:
        """Bound on the magnitude of each boundary step's scalar factor."""
        return 10.0 * self.s_plus * (1.0 - self.s_plus)

    def _eta_t(self) -> float:
        return self._mu_t() / (self.s_plus * (1.0 - self.s_plus))

    def predict(self, x_ext) -> DirectPrediction:
        """Every partition's estimate, then their weighted sum."""
        x_ext = np.asarray(x_ext, dtype=float)
        if self.mode == "hard":
            gates = self.boundaries @ x_ext
            path = np.empty(self.depth + 1, dtype=np.intp)
            i = 0
            for k in range(self.depth):
                path[k] = i
                i = 2 * i + 1 if float(gates[i]) < 0.0 else 2 * i + 2
            path[self.depth] = i
            h = np.zeros(self.n_nodes)
            h[path] = self.v[path] @ x_ext
            d_vec = self.membership @ h
            return DirectPrediction(float(self.w_vec @ d_vec), d_vec, h, path_indices=path)
        u = expit(-(self.theta @ x_ext)) if self.n_internal else np.empty(0)
        s = np.clip(self.s_plus + (1.0 - 2.0 * self.s_plus) * u,
                    self.s_plus, 1.0 - self.s_plus)
        alphas = np.empty(self.n_nodes)
        alphas[0] = 1.0
        for i in range(self.n_internal):
            alphas[2 * i + 1] = alphas[i] * s[i]
            alphas[2 * i + 2] = alphas[i] * (1.0 - s[i])
        h = alphas * (self.v @ x_ext)
        d_vec = self.membership @ h
        return DirectPrediction(float(self.w_vec @ d_vec), d_vec, h, s=s, u=u, alphas=alphas)

    def update(self, x_ext, d_t: float, pred: DirectPrediction) -> None:
        """Gradient step on the partition weights plus the same node-state
        side effects the collapsed learners perform."""
        x_ext = np.asarray(x_ext, dtype=float)
        mu = self._mu_t()
        e = d_t - pred.y_hat
        if self.mode == "hard":
            self.v[pred.path_indices] += (mu * e) * x_ext
        else:
            self.v += (mu * e) * pred.alphas[:, None] * x_ext
            self._update_theta(x_ext, e, pred)
        self.w_vec += (mu * e) * pred.model_estimates
        self.t += 1

    def boundary_factors(self, pred: DirectPrediction) -> np.ndarray:
        """Scalar factor of each internal node's boundary step (before the
        cap): the partition-weighted node estimates under the gate's two
        child subtrees, differenced, times the gate derivative."""
        c_h = (self.w_vec @ self.membership) * pred.h
        sigma = (self._span0 @ c_h) / pred.s - (self._span1 @ c_h) / (1.0 - pred.s)
        return sigma * ((1.0 - 2.0 * self.s_plus) * pred.u * (1.0 - pred.u))

    def _update_theta(self, x_ext, e: float, pred: DirectPrediction) -> None:
        eta = self._eta_t()
        factors = self.boundary_factors(pred)
        np.clip(factors, -self.step_cap, self.step_cap, out=factors)
        self.theta -= (eta * e) * factors[:, None] * x_ext

    def step(self, x_ext, d_t: float) -> tuple[float, float]:
        pred = self.predict(x_ext)
        self.update(x_ext, d_t, pred)
        return pred.y_hat, d_t - pred.y_hat

    def node_weight_image(self, node_weights: np.ndarray) -> np.ndarray:
        """Map collapsed per-node weights to partition space:
        partition k's weight is the sum of its members' node weights."""
        return self.membership @ np.asarray(node_weights, dtype=float)


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

