"""Sequential regressor that also learns the tree's region boundaries.

Each internal node carries a clamped-logistic gate, so every node of the
tree is fractionally active on every input.  The full mixture over all
``beta(depth)`` subtree partitions collapses, without approximation, onto
a sum over all ``2**(depth+1) - 1`` nodes; weights, regressors and the
separating hyperplanes themselves all follow stochastic-gradient steps.
A step costs O(dim * 4**depth) because the combination weight of every
node correlates with every node weight.

The gates, the activation cascade, the boundary-step factors and the
capped hyperplane step are the soft-gate kernel of :mod:`pwltree.trees`,
which the explicit mixture's soft mode calls too.  The clamp check,
``step_cap`` and ``update_boundaries`` are the soft tail the two share,
and the prediction fields the kernel reads are declared there once.
This learner hands the kernel the cached heap tables of its depth,
contiguous and shared with every learner of that depth: the branch
index of every entry of the level-major ancestor table and the root-less
rows of the descendant table.  Activations are one gather, through that
index, from the kernel's branch buffer ``[s | 1 - s | 1.0]`` and one
``np.multiply.reduce`` down the rows; the subtree sums of every child are
one matrix-vector product.

The regressors ``v`` and the hyperplanes ``theta`` are the two parts of
one array of rows (see :class:`pwltree.trees.TreeBase`), both moved along
the input on every step, so ``predict`` forms every node's estimate and
every gate's product in one product and ``update_boundaries`` steps both
in one rank-1 step; ``update_weights`` steps only the node weights.  A
step is at most 31 numpy calls at every depth (13 in ``predict``, 3 in
``update_weights``, 7 in ``boundary_factors``, 8 in
``update_boundaries``; three of them write a scalar step factor into a
0-d array), against some 4k flops at depth 5, so on these small arrays
the form of a call sets its cost.  The kernel writes the clamped gates
and the rank-1 step's moves into buffers it owns, through views made
once, so no step slices or concatenates them.  Every product is a
``.dot``, which reaches BLAS with less dispatch than ``@``; the rank-1
step is an ``(n, 1) . (1, dim + 1)`` product, which gives the bits of the broadcast
``a[:, None] * x`` in half the time or less.  The kernel holds the gate
clamp's constants as 0-d arrays, and the step factors ``mu e`` and
``-eta e`` are written into 0-d arrays, which numpy takes with less
dispatch than Python floats; its gather is a ``take``, cheaper than
fancy indexing.  Scalar step factors are multiplied together before
they touch an array, the input is converted once, in ``predict``, and
the boundary sensitivities divide by the branch factors and scale by the
gate rise ``(1 - 2 s_plus) u`` that ``predict`` already built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .separators import initial_directions
from .trees import SoftPrediction, TreeLearner, _heap_tables, _hyperplanes, _SoftTail, rho_table


@dataclass
class AdaptiveTreePrediction(SoftPrediction):
    """Per-node quantities of one prediction pass, heap-indexed: the
    fields the soft-gate kernel reads (see :class:`SoftPrediction`; here
    ``h``, ``f``, ``u`` and ``cu`` are always set, ``u`` and ``cu`` over
    the internal nodes only), every node's affine estimate and every
    node's combination weight ``kappas``."""

    estimates: np.ndarray
    kappas: np.ndarray


class AdaptiveTreeRegressor(_SoftTail, TreeLearner):
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
        _, descendants, _, index = _heap_tables(depth)
        self._soft_gates(s_plus, (index, descendants[1:]))
        if theta is None:
            theta = initial_directions(depth, dim)
        self.theta = _hyperplanes(theta, self.n_internal, self.dim, "theta")
        self._rho = rho_table(depth).astype(float)

    # ------------------------------------------------------------------
    def predict(self, x_ext) -> AdaptiveTreePrediction:
        """Evaluate every gate once, cascade activations down the tree and
        collapse the mixture over all nodes."""
        x = np.asarray(x_ext, dtype=float)
        rows_x = self._rows.dot(x)  # every node's estimate, then every gate's product
        n = self.n_nodes
        u, cu, f, alphas = self._gates.cascade(rows_x[n:])
        estimates = rows_x[:n]
        h = alphas * estimates
        kappas = self._rho.dot(self.w)
        self.regressor_evaluations += self.n_nodes
        self.kappa_accumulations += self.n_nodes * self.n_nodes
        return AdaptiveTreePrediction(float(kappas.dot(h)), x, alphas, h, f, u, cu, estimates,
                                      kappas)

    def update_weights(self, x_ext, e: float, pred: AdaptiveTreePrediction) -> None:
        """Weight step for every node, scaled by the node's activation
        (which the clamp keeps strictly positive) times its estimate; the
        regressors move in ``update_boundaries``, in the one rank-1 step of
        the learner's rows along the input."""
        self._gain[()] = self.mu * e
        self.w += self._gain * pred.h

    def boundary_factors(self, pred: AdaptiveTreePrediction) -> np.ndarray:
        """Scalar factor of each internal node's boundary step (before the
        cap): the mixture's sensitivity to that gate times the gate
        derivative."""
        return self._gates.factors(pred.kappas, pred)

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
