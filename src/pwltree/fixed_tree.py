"""Sequential regressor over all subtree partitions of a fixed tree.

Hard, frozen region boundaries partition the input space into the
``2**depth`` cells of a complete binary tree.  Every one of the
``beta(depth)`` subtree partitions defines a piecewise-linear model; this
learner tracks one scalar weight and one affine regressor per node and
collapses the full mixture prediction onto the d+1 nodes of the active
root-to-leaf path, so a step costs O(depth * 2**depth) instead of
O(beta(depth)).  The collapsed prediction is identical (not approximate)
to the explicit mixture maintained by
:class:`pwltree.mixture.DirectMixtureRegressor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .separators import initial_directions
from .trees import (
    MAX_TABLE_DEPTH,
    NodeLabel,
    label_from_index,
    node_count,
    rho_table,
    snapshot_arrays,
)


@dataclass
class FixedTreePrediction:
    """Everything computed during one prediction pass.

    ``path`` runs root -> leaf; ``estimates`` and ``kappas`` align with it.
    """

    y_hat: float
    path_indices: np.ndarray
    estimates: np.ndarray
    kappas: np.ndarray

    @property
    def path(self) -> tuple[NodeLabel, ...]:
        return tuple(label_from_index(int(i)) for i in self.path_indices)


def _resolve_step(mu, t: int) -> float:
    return float(mu(t)) if callable(mu) else float(mu)


class FixedTreeRegressor:
    """Piecewise-linear mixture regressor with hard, fixed boundaries.

    Parameters
    ----------
    depth : int
        Tree depth d, 0 <= d <= 5 (the dense rho table is refused beyond
        that).
    dim : int
        Raw input dimension m; the learner consumes extended inputs of
        length m + 1 whose last entry is 1.
    mu : float or callable
        Step size for the weight and regressor updates; a callable is
        evaluated at the 1-based step index.
    boundaries : ndarray (n_internal, dim + 1), optional
        Hyperplane vectors of the internal nodes, heap order.  Defaults to
        the axis-cycling directions of :func:`initial_directions` (the
        four quadrants when depth = dim = 2).  Never trained.
    """

    def __init__(self, depth, dim, mu=0.01, boundaries=None):
        if not 0 <= depth <= MAX_TABLE_DEPTH:
            raise ValueError(f"depth must be in [0, {MAX_TABLE_DEPTH}]")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.depth = depth
        self.dim = dim
        self.mu = mu
        self.n_nodes = node_count(depth)
        self.n_internal = (1 << depth) - 1
        if boundaries is None:
            boundaries = initial_directions(depth, dim)
        boundaries = np.array(boundaries, dtype=float)
        if boundaries.shape != (self.n_internal, dim + 1):
            raise ValueError(f"boundaries must have shape ({self.n_internal}, {dim + 1})")
        if not np.isfinite(boundaries).all():
            raise ValueError("boundaries must be finite")
        self.boundaries = boundaries
        self.boundaries.setflags(write=False)
        self._rho = rho_table(depth).astype(float)
        self.v = np.zeros((self.n_nodes, dim + 1))
        self.w = np.zeros(self.n_nodes)
        self.t = 1
        # per-run work counters
        self.regressor_evaluations = 0
        self.kappa_accumulations = 0

    # ------------------------------------------------------------------
    def _leaf_index(self, x_ext) -> int:
        i = 0
        for _ in range(self.depth):
            # separator value 1 (x on the negative side) selects child 0
            i = 2 * i + 1 if float(x_ext @ self.boundaries[i]) < 0.0 else 2 * i + 2
        return i

    def locate_leaf(self, x_ext) -> NodeLabel:
        """Label of the depth-d cell containing ``x_ext``."""
        return label_from_index(self._leaf_index(np.asarray(x_ext, dtype=float)))

    def _path_indices(self, leaf: int) -> np.ndarray:
        path = np.empty(self.depth + 1, dtype=np.intp)
        i = leaf
        for k in range(self.depth, -1, -1):
            path[k] = i
            i = (i - 1) >> 1
        return path

    def predict(self, x_ext) -> FixedTreePrediction:
        """Collapsed mixture prediction from the current state.

        Only the d+1 path nodes contribute: each gets its affine estimate
        and its combination weight (the rho-weighted sum of all node
        weights); the output is their inner product.
        """
        x_ext = np.asarray(x_ext, dtype=float)
        path = self._path_indices(self._leaf_index(x_ext))
        estimates = self.v[path] @ x_ext
        kappas = self._rho[path] @ self.w
        self.regressor_evaluations += path.size
        self.kappa_accumulations += path.size * self.n_nodes
        return FixedTreePrediction(float(estimates @ kappas), path, estimates, kappas)

    def update(self, x_ext, d_t: float, pred: FixedTreePrediction) -> None:
        """Advance one step: move the path nodes' regressors and weights
        against the prediction error, leave everything else untouched."""
        x_ext = np.asarray(x_ext, dtype=float)
        mu = _resolve_step(self.mu, self.t)
        e = d_t - pred.y_hat
        path = pred.path_indices
        self.v[path] += (mu * e) * x_ext
        self.w[path] += (mu * e) * pred.estimates
        self.t += 1

    def step(self, x_ext, d_t: float) -> tuple[float, float]:
        """Predict, then learn from the revealed target; returns the
        prediction made before seeing it and the resulting error."""
        pred = self.predict(x_ext)
        self.update(x_ext, d_t, pred)
        return pred.y_hat, d_t - pred.y_hat

    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """JSON-ready state: ``{depth, nodes: [{label, w, v[]}]}``."""
        return {
            "depth": self.depth,
            "nodes": [
                {
                    "label": label_from_index(i).bits,
                    "w": float(self.w[i]),
                    "v": [float(c) for c in self.v[i]],
                }
                for i in range(self.n_nodes)
            ],
        }

    def load_state(self, state: dict) -> None:
        """Replace the state with a ``state_snapshot``; a refused snapshot
        leaves the learner unchanged."""
        if state["depth"] != self.depth:
            raise ValueError("snapshot depth does not match learner")
        self.w, self.v, _ = snapshot_arrays(state["nodes"], self.depth, self.dim + 1)
