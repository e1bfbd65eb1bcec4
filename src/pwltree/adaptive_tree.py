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
from .trees import ANCESTORS, DESCENDANTS, MAX_TABLE_DEPTH, TreeLearner, rho_table


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


class AdaptiveTreeRegressor(TreeLearner):
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
        boundary gradients never vanish.  It also fixes the boundary step:
        the step size is ``mu / (s_plus (1 - s_plus))``, compensating the
        gate-derivative factor, and the scalar factor multiplying
        ``e * x`` is clipped to ``step_cap = 10 s_plus (1 - s_plus)``, so a
        point landing on several region crossings cannot take a step more
        than 10x the usual size.
    theta : ndarray (n_internal, dim + 1), optional
        Initial boundary vectors; defaults to :func:`initial_directions`.
    """

    gated = True

    def __init__(self, depth, dim, mu=0.005, s_plus=0.01, theta=None):
        super().__init__(depth, dim, mu)
        if not 0.0 < s_plus < 0.5:
            raise ValueError("s_plus must lie in (0, 0.5)")
        self.s_plus = float(s_plus)
        if theta is None:
            theta = initial_directions(depth, dim)
        self.theta = self._hyperplanes(theta, "theta")
        self._rho = rho_table(depth).astype(float)
        self._ancestors = ANCESTORS[: self.n_nodes, MAX_TABLE_DEPTH - depth:]
        self._descendants = DESCENDANTS[: self.n_nodes, : self.n_nodes]

    # ------------------------------------------------------------------
    @property
    def step_cap(self) -> float:
        """Bound on the magnitude of each boundary step's scalar factor."""
        return 10.0 * self.s_plus * (1.0 - self.s_plus)

    def _eta_t(self) -> float:
        return self._at_t(self.mu) / (self.s_plus * (1.0 - self.s_plus))

    def predict(self, x_ext) -> AdaptiveTreePrediction:
        """Evaluate every gate once, cascade activations down the tree and
        collapse the mixture over all nodes."""
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
        mu = self._at_t(self.mu)
        self.v += (mu * e) * pred.alphas[:, None] * x_ext
        self.w += (mu * e) * pred.h

    def boundary_factors(self, pred: AdaptiveTreePrediction) -> np.ndarray:
        """Scalar factor of each internal node's boundary step (before the
        cap): the mixture's sensitivity to that gate times the gate
        derivative."""
        sub = self._descendants @ (pred.kappas * pred.h)
        sigma = sub[1::2] / pred.s - sub[2::2] / (1.0 - pred.s)
        return sigma * ((1.0 - 2.0 * self.s_plus) * pred.u * (1.0 - pred.u))

    def update_boundaries(self, x_ext, e: float, pred: AdaptiveTreePrediction) -> None:
        """Gradient step on every internal hyperplane, with the scalar
        factor clipped to ``step_cap``."""
        if self.n_internal == 0:
            return
        x_ext = np.asarray(x_ext, dtype=float)
        factors = self.boundary_factors(pred)
        cap = self.step_cap
        np.minimum(factors, cap, out=factors)
        np.maximum(factors, -cap, out=factors)
        self.theta -= (self._eta_t() * e) * factors[:, None] * x_ext

    def update(self, x_ext, d_t: float, pred: AdaptiveTreePrediction) -> None:
        e = d_t - pred.y_hat
        self.update_weights(x_ext, e, pred)
        self.update_boundaries(x_ext, e, pred)
        self.t += 1

    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """The shared snapshot (thetas on internal nodes only) plus the
        gate clamp ``s_plus``."""
        return {**super().state_snapshot(), "s_plus": self.s_plus}

    def load_state(self, state: dict) -> None:
        """Replace the state with a ``state_snapshot`` taken at the same
        gate clamp; a refused snapshot leaves the learner unchanged."""
        if isinstance(state, dict) and float(state["s_plus"]) != self.s_plus:
            raise ValueError("snapshot clamp does not match learner")
        super().load_state(state)
