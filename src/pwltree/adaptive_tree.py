"""Sequential regressor that also learns the tree's region boundaries.

Each internal node carries a clamped-logistic gate, so every node of the
tree is fractionally active on every input.  The full mixture over all
``beta(depth)`` subtree partitions collapses, without approximation, onto
a sum over all ``2**(depth+1) - 1`` nodes; weights, regressors and the
separating hyperplanes themselves all follow stochastic-gradient steps.
A step costs O(dim * 4**depth) because the combination weight of every
node correlates with every node weight.

The activation cascade and the subtree sums behind the boundary steps read
the fixed heap tables ``ANCESTORS`` and ``DESCENDANTS`` of
:mod:`pwltree.trees`: activations are one gather of per-node branch
factors and a row product, subtree sums one matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .separators import initial_directions
from .trees import (
    ANCESTORS,
    DESCENDANTS,
    MAX_TABLE_DEPTH,
    NodeLabel,
    label_from_index,
    node_count,
    rho_table,
    snapshot_arrays,
)


@dataclass
class AdaptiveTreePrediction:
    """Per-node quantities of one prediction pass, heap-indexed.

    ``s`` and ``u`` cover internal nodes only (clamped and unclamped gate
    values); the remaining arrays cover every node.
    """

    y_hat: float
    s: np.ndarray
    u: np.ndarray
    estimates: np.ndarray
    alphas: np.ndarray
    h: np.ndarray
    kappas: np.ndarray

    @property
    def per_node(self) -> dict[NodeLabel, tuple[float, float, float, float]]:
        """label -> (estimate, activation, scaled estimate, combination weight)."""
        return {
            label_from_index(i): (
                float(self.estimates[i]),
                float(self.alphas[i]),
                float(self.h[i]),
                float(self.kappas[i]),
            )
            for i in range(self.estimates.size)
        }


class AdaptiveTreeRegressor:
    """Piecewise-linear mixture regressor with trained soft boundaries.

    Parameters
    ----------
    depth, dim : int
        Tree depth and raw input dimension (inputs arrive extended by a
        constant 1).
    mu : float or callable
        Step size for weight/regressor updates (callable of the 1-based
        step index).
    s_plus : float
        Gate clamp: separator outputs stay in ``[s_plus, 1 - s_plus]`` so
        boundary gradients never vanish.
    eta : float, callable or None
        Boundary step size.  None (default) ties it to
        ``mu / (s_plus (1 - s_plus))``, compensating the gate-derivative
        factor in the boundary gradient.
    step_cap : float, 'auto' or None
        Bound on the magnitude of the scalar factor multiplying
        ``eta * e * x`` in the boundary step.  'auto' uses
        ``10 s_plus (1 - s_plus)`` so a point landing on several region
        crossings cannot take a step more than 10x the usual size; None
        disables the cap (used by the gradient checks).
    literal_gradient : bool
        Use ``s (1 - s)`` with the clamped gate value in the boundary
        step instead of the exact clamped-gate derivative
        ``(1 - 2 s_plus) u (1 - u)``.  Default False (exact).
    leaf_only : bool
        Restrict estimates, updates and the output sum to leaf nodes.
        This cheaper variant no longer equals the explicit mixture over
        all partitions; the default (False) sums over every node.
    theta : ndarray (n_internal, dim + 1), optional
        Initial boundary vectors; defaults to :func:`initial_directions`.
    """

    def __init__(self, depth, dim, mu=0.005, s_plus=0.01, eta=None, step_cap="auto",
                 literal_gradient=False, leaf_only=False, theta=None):
        if not 0 <= depth <= MAX_TABLE_DEPTH:
            raise ValueError(f"depth must be in [0, {MAX_TABLE_DEPTH}]")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 < s_plus < 0.5:
            raise ValueError("s_plus must lie in (0, 0.5)")
        self.depth = depth
        self.dim = dim
        self.mu = mu
        self.s_plus = float(s_plus)
        self.eta = eta
        if step_cap == "auto":
            step_cap = 10.0 * self.s_plus * (1.0 - self.s_plus)
        self.step_cap = None if step_cap is None else float(step_cap)
        self.literal_gradient = bool(literal_gradient)
        self.leaf_only = bool(leaf_only)
        self.n_nodes = node_count(depth)
        self.n_internal = (1 << depth) - 1
        self.n_leaves = 1 << depth
        if theta is None:
            theta = initial_directions(depth, dim)
        theta = np.array(theta, dtype=float)
        if theta.shape != (self.n_internal, dim + 1):
            raise ValueError(f"theta must have shape ({self.n_internal}, {dim + 1})")
        if not np.isfinite(theta).all():
            raise ValueError("theta must be finite")
        self.theta = theta
        self._rho = rho_table(depth).astype(float)
        self._ancestors = ANCESTORS[: self.n_nodes, MAX_TABLE_DEPTH - depth:]
        self._descendants = DESCENDANTS[: self.n_nodes, : self.n_nodes]
        self.v = np.zeros((self.n_nodes, dim + 1))
        self.w = np.zeros(self.n_nodes)
        self.t = 1
        self.regressor_evaluations = 0
        self.kappa_accumulations = 0
        if leaf_only:
            self._leaf_slice = slice(self.n_internal, self.n_nodes)

    # ------------------------------------------------------------------
    def _mu_t(self) -> float:
        return float(self.mu(self.t)) if callable(self.mu) else float(self.mu)

    def _eta_t(self) -> float:
        if self.eta is None:
            return self._mu_t() / (self.s_plus * (1.0 - self.s_plus))
        return float(self.eta(self.t)) if callable(self.eta) else float(self.eta)

    def predict(self, x_ext) -> AdaptiveTreePrediction:
        """Evaluate every gate once, cascade activations down the tree and
        collapse the mixture over all nodes (or leaves in leaf-only mode)."""
        x_ext = np.asarray(x_ext, dtype=float)
        u = expit(-(self.theta @ x_ext)) if self.n_internal else np.empty(0)
        s = np.minimum(np.maximum(self.s_plus + (1.0 - 2.0 * self.s_plus) * u, self.s_plus),
                       1.0 - self.s_plus)
        # branch factor of every node; the root's 1.0 also pads the
        # ancestor rows of shallow nodes, so the products stay exact
        f = np.empty(self.n_nodes)
        f[0] = 1.0
        f[1::2] = s
        f[2::2] = 1.0 - s
        alphas = f[self._ancestors].prod(axis=1)
        if self.leaf_only:
            estimates = np.zeros(self.n_nodes)
            estimates[self._leaf_slice] = self.v[self._leaf_slice] @ x_ext
            h = alphas * estimates
            kappas = np.zeros(self.n_nodes)
            kappas[self._leaf_slice] = self._rho[self._leaf_slice] @ self.w
            self.regressor_evaluations += self.n_leaves
            self.kappa_accumulations += self.n_leaves * self.n_nodes
        else:
            estimates = self.v @ x_ext
            h = alphas * estimates
            kappas = self._rho @ self.w
            self.regressor_evaluations += self.n_nodes
            self.kappa_accumulations += self.n_nodes * self.n_nodes
        return AdaptiveTreePrediction(float(kappas @ h), s, u, estimates, alphas, h, kappas)

    def update_weights(self, x_ext, e: float, pred: AdaptiveTreePrediction) -> None:
        """Regressor and weight steps for every node, scaled by the node's
        activation (which the clamp keeps strictly positive)."""
        x_ext = np.asarray(x_ext, dtype=float)
        mu = self._mu_t()
        if self.leaf_only:
            sl = self._leaf_slice
            self.v[sl] += (mu * e) * pred.alphas[sl, None] * x_ext
            self.w[sl] += (mu * e) * pred.h[sl]
        else:
            self.v += (mu * e) * pred.alphas[:, None] * x_ext
            self.w += (mu * e) * pred.h

    def boundary_factors(self, pred: AdaptiveTreePrediction) -> np.ndarray:
        """Scalar factor of each internal node's boundary step (before the
        cap): the mixture's sensitivity to that gate times the gate
        derivative."""
        sub = self._descendants @ (pred.kappas * pred.h)
        sigma = sub[1::2] / pred.s - sub[2::2] / (1.0 - pred.s)
        if self.literal_gradient:
            sprime = pred.s * (1.0 - pred.s)
        else:
            sprime = (1.0 - 2.0 * self.s_plus) * pred.u * (1.0 - pred.u)
        return sigma * sprime

    def update_boundaries(self, x_ext, e: float, pred: AdaptiveTreePrediction) -> None:
        """Gradient step on every internal hyperplane, with the scalar
        factor clipped to ``step_cap`` when enabled."""
        if self.n_internal == 0:
            return
        x_ext = np.asarray(x_ext, dtype=float)
        factors = self.boundary_factors(pred)
        if self.step_cap is not None:
            np.minimum(factors, self.step_cap, out=factors)
            np.maximum(factors, -self.step_cap, out=factors)
        self.theta -= (self._eta_t() * e) * factors[:, None] * x_ext

    def update(self, x_ext, d_t: float, pred: AdaptiveTreePrediction) -> None:
        e = d_t - pred.y_hat
        self.update_weights(x_ext, e, pred)
        self.update_boundaries(x_ext, e, pred)
        self.t += 1

    def step(self, x_ext, d_t: float) -> tuple[float, float]:
        """Predict, then update weights and boundaries from the revealed
        target; strictly sequential."""
        pred = self.predict(x_ext)
        self.update(x_ext, d_t, pred)
        return pred.y_hat, d_t - pred.y_hat

    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """JSON-ready state: ``{depth, s_plus, nodes: [{label, w, v[],
        theta[]?}]}`` with theta present on internal nodes only."""
        nodes = []
        for i in range(self.n_nodes):
            entry = {
                "label": label_from_index(i).bits,
                "w": float(self.w[i]),
                "v": [float(c) for c in self.v[i]],
            }
            if i < self.n_internal:
                entry["theta"] = [float(c) for c in self.theta[i]]
            nodes.append(entry)
        return {"depth": self.depth, "s_plus": self.s_plus, "nodes": nodes}

    def load_state(self, state: dict) -> None:
        """Replace the state with a ``state_snapshot``; a refused snapshot
        leaves the learner unchanged."""
        if state["depth"] != self.depth:
            raise ValueError("snapshot depth does not match learner")
        if float(state["s_plus"]) != self.s_plus:
            raise ValueError("snapshot clamp does not match learner")
        self.w, self.v, self.theta = snapshot_arrays(state["nodes"], self.depth, self.dim + 1,
                                                     gated=True)
