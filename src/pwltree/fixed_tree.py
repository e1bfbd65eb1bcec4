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

A step costs a fixed number of numpy calls whatever the depth, about 12
(6 in ``predict``, 6 in ``update``, one of them writing the step factor
``mu e`` into a 0-d array, which numpy takes with less dispatch than a
Python float).  The regressors ``v`` and the hyperplanes ``theta`` are
the two parts of the tree base's array of rows, and ``predict`` forms
every node's estimate and every gate's product in its one product of
those rows with the input, O(m * 2**depth) flops in a single call.  The
path is walked on the gates' Python floats by the hard-gate walk of
:mod:`pwltree.trees` that the explicit mixture shares, reading only the
d gates on the path, and the path's estimates are one ``take`` from the
same product; ``update`` steps only the path's regressors, so the
hyperplanes never move.  Every leaf's
root -> leaf path is taken once per learner from the ancestor table of
its depth, which :mod:`pwltree.trees` builds on first use and caches.
The kappa product reads the leaf's (d + 1, n_nodes) block of rho rows,
built once per learner, so it stays O(depth * 2**depth).  On arrays this
small a call's dispatch outweighs its arithmetic, so every product is a
``.dot``, cheaper than ``@``, the scalar step factor is formed before it
touches an array, and the input is converted once, in ``predict``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .separators import initial_directions
from .trees import TreeLearner, _hard_leaf, _heap_tables, _hyperplanes, rho_table


@dataclass
class FixedTreePrediction:
    """Everything computed during one prediction pass.

    ``path_indices`` holds the heap indices of the root -> leaf path;
    ``estimates`` and ``kappas`` align with it.  ``x`` is the input as the
    float array the step reads.
    """

    y_hat: float
    path_indices: np.ndarray
    estimates: np.ndarray
    kappas: np.ndarray
    x: np.ndarray


class FixedTreeRegressor(TreeLearner):
    """Piecewise-linear mixture regressor with hard, fixed boundaries.

    Parameters
    ----------
    depth : int
        Tree depth d, 0 <= d <= 5 (the dense rho table is refused beyond
        that).
    dim : int
        Raw input dimension m; the learner consumes extended inputs of
        length m + 1 whose last entry is 1.
    mu : float
        Step size for the weight and regressor updates.
    theta : ndarray (n_internal, dim + 1), optional
        Hyperplane vectors of the internal nodes, heap order.  Defaults to
        the axis-cycling directions of :func:`initial_directions` (the
        four quadrants when depth = dim = 2).  Never trained.
    """

    def __init__(self, depth, dim, mu=0.01, theta=None):
        super().__init__(depth, dim, mu)
        if theta is None:
            theta = initial_directions(depth, dim)
        self.theta = _hyperplanes(theta, self.n_internal, self.dim)
        # root -> leaf path of every leaf: the root, then the leaf's ancestor column
        self._paths = np.zeros((self.n_nodes - self.n_internal, depth + 1), dtype=np.intp)
        self._paths[:, 1:] = _heap_tables(depth)[0][:, self.n_internal:].T
        self._paths.setflags(write=False)
        # rho rows of every leaf's path, (n_leaves, depth + 1, n_nodes)
        self._path_rho = rho_table(depth).astype(float)[self._paths]
        self._path_rho.setflags(write=False)

    # ------------------------------------------------------------------
    def predict(self, x_ext) -> FixedTreePrediction:
        """Collapsed mixture prediction from the current state.

        Only the d+1 path nodes contribute: each gets its affine estimate
        and its combination weight (the rho-weighted sum of all node
        weights); the output is their inner product.
        """
        x = np.asarray(x_ext, dtype=float)
        rows_x = self._rows.dot(x)  # every node's estimate, then every gate's product
        leaf = _hard_leaf(rows_x[self.n_nodes:], self.depth) - self.n_internal
        path = self._paths[leaf]
        estimates = rows_x.take(path)
        kappas = self._path_rho[leaf].dot(self.w)
        self.regressor_evaluations += path.size
        self.kappa_accumulations += path.size * self.n_nodes
        return FixedTreePrediction(float(estimates.dot(kappas)), path, estimates, kappas, x)

    def update(self, x_ext, d_t: float, pred: FixedTreePrediction) -> None:
        """Advance one step: move the path nodes' regressors and weights
        against the prediction error, leave everything else untouched.
        The step reads the input ``pred.x`` that ``predict`` was given as
        ``x_ext``."""
        step = self._gain
        step[()] = self.mu * (d_t - pred.y_hat)
        path = pred.path_indices
        # the path holds distinct nodes, so add.at matches a fancy-index +=
        np.add.at(self._rows, path, step * pred.x)
        self.w[path] += step * pred.estimates
        self.t += 1
