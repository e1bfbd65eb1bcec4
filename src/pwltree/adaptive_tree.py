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
:mod:`pwltree.trees`, as shared views: activations are one gather of
per-node branch factors and a product down the level-major ancestor rows,
subtree sums one matrix-vector product.

A step is about 33 numpy calls at every depth (16 in ``predict``, 5 in
``update_weights``, 7 in ``boundary_factors``, 5 in
``update_boundaries``), against some 4k flops at depth 5, so on these
small arrays the form of a call sets its cost.  Every product is a
``.dot``, which reaches BLAS with less dispatch than ``@``; the rank-1
steps of ``v`` and ``theta`` are ``(n, 1) . (1, dim + 1)`` products,
which give the bits of the broadcast ``a[:, None] * x`` in half the time
or less.  Scalar step factors are multiplied together before they touch
an array, the input is converted once, in ``predict``, and the boundary
sensitivities divide by the branch factors and scale by the gate rise
``(1 - 2 s_plus) u`` that ``predict`` already built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .separators import initial_directions
from .trees import (ANCESTORS, DESCENDANTS, MAX_TABLE_DEPTH, TreeLearner, _gate_clamp,
                    _hyperplanes, rho_table)


@dataclass
class AdaptiveTreePrediction:
    """Per-node quantities of one prediction pass, heap-indexed.

    ``x`` is the input as the float array the step reads.  ``f`` holds
    every node's branch factor: 1.0 at the root, then the clamped gate
    value ``s`` of each internal node at its lower child and ``1 - s`` at
    its upper one.  ``u`` covers internal nodes only (unclamped gate
    values), as does ``cu``, ``(1 - 2 s_plus) u``: the gate's rise above
    ``s_plus`` before the clamp, which the boundary step reuses.  The
    remaining arrays cover every node.
    """

    y_hat: float
    x: np.ndarray
    f: np.ndarray
    u: np.ndarray
    cu: np.ndarray
    estimates: np.ndarray
    alphas: np.ndarray
    h: np.ndarray
    kappas: np.ndarray

    @property
    def s(self) -> np.ndarray:
        """Clamped gate value of every internal node."""
        return self.f[1::2]


class AdaptiveTreeRegressor(TreeLearner):
    """Piecewise-linear mixture regressor with trained soft boundaries.

    Parameters
    ----------
    depth, dim : int
        Tree depth and raw input dimension (inputs arrive extended by a
        constant 1).
    mu : float
        Step size for weight/regressor updates.
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
        self.s_plus = _gate_clamp(s_plus)
        if theta is None:
            theta = initial_directions(depth, dim)
        self.theta = _hyperplanes(theta, self.n_internal, self.dim, "theta")
        self._rho = rho_table(depth).astype(float)
        self._ancestors = ANCESTORS[MAX_TABLE_DEPTH - depth:, : self.n_nodes]
        self._descendants = DESCENDANTS[: self.n_nodes, : self.n_nodes]

    # ------------------------------------------------------------------
    @property
    def step_cap(self) -> float:
        """Bound on the magnitude of each boundary step's scalar factor."""
        return 10.0 * self.s_plus * (1.0 - self.s_plus)

    def predict(self, x_ext) -> AdaptiveTreePrediction:
        """Evaluate every gate once, cascade activations down the tree and
        collapse the mixture over all nodes."""
        x = np.asarray(x_ext, dtype=float)
        u = expit(-self.theta.dot(x))
        cu = (1.0 - 2.0 * self.s_plus) * u
        # branch factor of every node; the root's 1.0 also pads the
        # ancestor columns of shallow nodes, so the products stay exact
        f = np.empty(self.n_nodes)
        f[0] = 1.0
        s = f[1::2]
        # only the upper clamp can bind: fl(s_plus + c u) >= s_plus for c u >= 0
        np.minimum(self.s_plus + cu, 1.0 - self.s_plus, out=s)
        np.subtract(1.0, s, out=f[2::2])
        # level-major ancestors: the product runs down contiguous rows
        alphas = f[self._ancestors].prod(axis=0)
        estimates = self.v.dot(x)
        h = alphas * estimates
        kappas = self._rho.dot(self.w)
        self.regressor_evaluations += self.n_nodes
        self.kappa_accumulations += self.n_nodes * self.n_nodes
        return AdaptiveTreePrediction(float(kappas.dot(h)), x, f, u, cu, estimates, alphas, h,
                                      kappas)

    def update_weights(self, x_ext, e: float, pred: AdaptiveTreePrediction) -> None:
        """Regressor and weight steps for every node, scaled by the node's
        activation (which the clamp keeps strictly positive).  The step
        reads the input ``pred.x`` that ``predict`` was given as
        ``x_ext``."""
        step = self.mu * e
        self.v += (step * pred.alphas)[:, None].dot(pred.x[None, :])
        self.w += step * pred.h

    def boundary_factors(self, pred: AdaptiveTreePrediction) -> np.ndarray:
        """Scalar factor of each internal node's boundary step (before the
        cap): the mixture's sensitivity to that gate times the gate
        derivative."""
        sub = self._descendants.dot(pred.kappas * pred.h)
        # each child's subtree sum over its branch factor: s at the lower
        # child, 1 - s at the upper one
        q = sub[1:] / pred.f[1:]
        return (q[0::2] - q[1::2]) * (pred.cu * (1.0 - pred.u))

    def update_boundaries(self, x_ext, e: float, pred: AdaptiveTreePrediction) -> None:
        """Gradient step on every internal hyperplane, with the scalar
        factor clipped to ``step_cap``; the input is read from ``pred.x``
        as in ``update_weights``."""
        factors = self.boundary_factors(pred)
        cap = self.step_cap
        np.minimum(factors, cap, out=factors)
        np.maximum(factors, -cap, out=factors)
        eta = self.mu / (self.s_plus * (1.0 - self.s_plus))
        self.theta -= (factors * (eta * e))[:, None].dot(pred.x[None, :])

    def update(self, x_ext, d_t: float, pred: AdaptiveTreePrediction) -> None:
        e = d_t - pred.y_hat
        self.update_weights(x_ext, e, pred)
        self.update_boundaries(x_ext, e, pred)
        self.t += 1

    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """The shared snapshot (with ``theta``) plus the gate clamp ``s_plus``."""
        return {**super().state_snapshot(), "s_plus": self.s_plus}

    def load_state(self, state: dict) -> None:
        """Replace the state with a ``state_snapshot`` taken at the same
        gate clamp; a refused snapshot raises ValueError and leaves the
        learner unchanged."""
        s_plus = state.get("s_plus") if isinstance(state, dict) else self.s_plus
        if s_plus != self.s_plus:
            raise ValueError(f"snapshot clamp s_plus {s_plus!r} does not match the "
                             f"learner's {self.s_plus}")
        super().load_state(state)
