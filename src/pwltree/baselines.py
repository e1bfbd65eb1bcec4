"""Reference regressors the tree learners are benchmarked against.

All three are one LMS (least mean squares) learner, :class:`LinearFilter`,
over a fixed map of the input.  The map is the learner's ``features``,
which :func:`pwltree.harness.run_stream` applies once to a whole stream of
extended inputs ``x_ext = (x, 1)``; each step reads one row of it.  The
linear filter's rows are ``x_ext`` itself, the quadratic Volterra
filter's ``(1, x, x_i x_j for i <= j)`` and the Gaussian-kernel mixture's
``k (x) x_ext``, with ``k`` the kernel values of its fixed centres at
``x``: then ``v . (k (x) x_ext)`` is ``sum_p k_p (v_p . x_ext)``, every
centre's affine regressor gated by its kernel.  No feature is built and
no kernel evaluated per step, and a step is 5 numpy calls: ``asarray``
and ``v.dot(row)`` in ``predict``, then the scalar ``mu e`` written into
a 0-d array the learner owns, which numpy takes with less dispatch than
a Python float, a scaling of the row by it and an in-place add in
``update``.  Each learner checks
its step size ``mu`` when it is built: a finite real number > 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .trees import Learner, _integer, _numeric, _real, _step_size


@dataclass
class SimplePrediction:
    y_hat: float
    features: np.ndarray | None = None


class LinearFilter(Learner):
    """LMS over the rows of ``features``: ``predict`` is ``v . row`` and
    ``update`` is ``v += mu e row``.  For this filter a row is the extended
    input itself."""

    def __init__(self, dim, mu=0.01):
        self.dim = _integer(dim, "dim", 1)
        self.mu = _step_size(mu)
        self.v = np.zeros(self.dim + 1)
        # the scalar step factor mu e, written in place on every step
        self._gain = np.zeros(())

    def predict(self, row) -> SimplePrediction:
        row = np.asarray(row, dtype=float)
        return SimplePrediction(float(self.v.dot(row)), features=row)

    def update(self, row, d_t, pred) -> None:
        step = self._gain
        step[()] = self.mu * (d_t - pred.y_hat)
        self.v += step * pred.features


class VolterraFilter(LinearFilter):
    """Quadratic Volterra filter: the linear filter over the raw input's
    components and their pairwise products (the extended input's constant
    entry is dropped; the expansion carries its own constant term)."""

    def __init__(self, dim, mu=0.01):
        super().__init__(dim, mu)
        self.v = np.zeros(1 + self.dim + self.dim * (self.dim + 1) // 2)

    def features(self, x_ext) -> np.ndarray:
        """One row per extended input: 1, every raw component and every
        distinct product ``x_i x_j`` (``i <= j``, row-major in ``(i, j)``),
        ``1 + m + m (m + 1) / 2`` columns in all."""
        x = np.asarray(x_ext, dtype=float)[:, :-1]
        i, j = np.triu_indices(x.shape[1])
        return np.hstack([np.ones((len(x), 1)), x, x[:, i] * x[:, j]])


class GaussianKernelRegressor(LinearFilter):
    """Fixed Gaussian mixture gating a bank of affine regressors.

    Centres are chosen in hindsight and never adapt; only the per-centre
    regressors learn, each scaled by its kernel value (the gradient of the
    squared error through the fixed mixture).  ``v`` stacks the ``p``
    regressors of ``m + 1`` weights.  Every kernel is isotropic with the
    one variance ``covariances``, ``sigma^2``: the kernel of centre ``c``
    is ``norm * exp(-|x - c|^2 / (2 sigma^2))``, where ``norm`` is
    ``1 / (2 pi sigma^m)``, that is ``1 / (2 pi sqrt(det S))`` for
    ``S = sigma^2 I`` regardless of dimension (the convention this
    benchmark family uses, not the general Gaussian constant).

    Centres must be finite, one row of ``m`` numbers each, numbers only;
    ``covariances`` must be a finite number > 0 whose ``norm`` is finite in
    ``m`` dimensions (``sigma^m`` does not underflow), and whose largest
    LMS step, ``mu norm^2`` (the kernel at its centre is ``norm``), is at
    least the smallest normal float, so that the regressors can move at
    all.  Booleans and strings are refused in both.  Only that
    floating-point case is refused: a variance such as ``1e10`` in two
    dimensions also learns nothing within a few thousand steps, and it is
    accepted.
    """

    def __init__(self, centers, covariances, mu=1.0):
        self.mu = _step_size(mu)
        centers = _numeric(centers)
        if centers is None or centers.ndim > 2:
            raise ValueError("centers must be a list of points, numbers only")
        self.centers = np.atleast_2d(centers)
        if not np.isfinite(self.centers).all():
            raise ValueError("centers must be finite")
        p, m = self.centers.shape
        var = _real(covariances, "covariances", lambda v: 0 < v < math.inf,
                    "be a finite number > 0")
        self.sigma = math.sqrt(var)
        # sigma^m as m copies of sigma multiplied left to right, not sigma ** m
        scale = 2.0 * math.pi * math.prod([self.sigma] * m)
        norm = 1.0 / scale if scale > 0.0 else math.inf
        if norm == math.inf:
            raise ValueError(f"covariances {covariances!r} is too small in {m} dimensions: "
                             f"the kernel normaliser 1 / (2 pi sigma^{m}) is not finite")
        step = self.mu * norm * norm
        if step < sys.float_info.min:
            raise ValueError(f"covariances {covariances!r} is too large in {m} dimensions for mu "
                             f"{mu!r}: the largest LMS step mu (1 / (2 pi sigma^{m}))^2 is "
                             f"{step!r}, below the smallest normal float")
        self.norms = np.full(p, norm)
        self.v = np.zeros(p * (m + 1))
        self._gain = np.zeros(())

    def features(self, x_ext) -> np.ndarray:
        """One row per extended input: block ``p`` of ``m + 1`` entries is
        centre ``p``'s kernel value times ``x_ext``, so its last entry is
        the kernel value itself."""
        x_ext = np.asarray(x_ext, dtype=float)
        z = (x_ext[:, None, :-1] - self.centers) / self.sigma
        k = self.norms * np.exp(-0.5 * (z * z).sum(axis=2))
        return (k[:, :, None] * x_ext[:, None, :]).reshape(len(x_ext), -1)
