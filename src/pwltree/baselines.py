"""Reference regressors the tree learners are benchmarked against.

All three are strictly sequential stochastic-gradient (LMS) learners: a
plain linear filter, a quadratic Volterra filter (LMS over the raw
input's components and their pairwise products), and a fixed
Gaussian-kernel mixture with one affine regressor per centre.  Each
checks its step size ``mu`` when it is built: a finite real number > 0.
All three inherit ``step`` from :class:`pwltree.trees.Learner`, and the
Volterra filter is the linear filter over :func:`vf_features`, whose
``update`` it inherits.

On inputs this small a step's cost is its numpy calls, not its flops, so
every product is a ``.dot`` (less dispatch than ``@``) and the scalar step
factor ``mu e`` is formed before it touches an array.  A step of the
linear filter is 4 numpy calls (``asarray`` and ``v.dot(x)`` in
``predict``, a scaling of the input and an in-place add in ``update``).
The Volterra filter's ``predict`` builds its features in a Python loop of
about one numpy scalar product per feature, then takes 2 calls, and its
``update`` is the linear filter's 2.  The Gaussian-kernel mixture whitens
the extended input ``x_ext = (x, 1)`` once per step: every centre's
kernel is isotropic with the one variance ``sigma^2``, so the constructor
stacks the block ``[I / sigma | -c_p / sigma]`` of every centre into one
``(p m, m + 1)`` matrix, ``r = whiten . x_ext`` holds every
``(x - c_p) / sigma`` and the quadratic form of centre ``p`` is the sum of
the squares of its block of ``r``; no matrix is factored or inverted.
``predict`` is then 8 numpy calls (``asarray``, the whitening product,
``r * r``, one product with a ``(p, p m)`` matrix of -1/2 block sums,
``exp``, the scaling by the normalisers, and the two products of
``f . (v . x_ext)``) and ``update`` 3 (the scaling of the kernel values,
a ``(p, 1) . (1, m + 1)`` rank-1 product and its in-place add).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .trees import Learner, _integer, _numeric, _real, _step_size


@dataclass
class SimplePrediction:
    y_hat: float
    features: np.ndarray | None = None
    kernel: np.ndarray | None = None


class LinearFilter(Learner):
    """LMS over the extended input."""

    def __init__(self, dim, mu=0.01):
        self.dim = _integer(dim, "dim", 1)
        self.mu = _step_size(mu)
        self.v = np.zeros(self.dim + 1)

    def predict(self, x_ext) -> SimplePrediction:
        x_ext = np.asarray(x_ext, dtype=float)
        return SimplePrediction(float(self.v.dot(x_ext)), features=x_ext)

    def update(self, x_ext, d_t, pred) -> None:
        self.v += (self.mu * (d_t - pred.y_hat)) * pred.features


def vf_features(x) -> np.ndarray:
    """Quadratic polynomial feature expansion of a raw input vector.

    Concatenates 1, every component and every distinct product of two
    components (i <= j): ``1 + m + m (m + 1) / 2`` features in all.
    """
    x = np.asarray(x, dtype=float)
    feats = [1.0]
    feats.extend(x)
    for i, j in combinations_with_replacement(range(x.size), 2):
        feats.append(x[i] * x[j])
    return np.array(feats)


class VolterraFilter(LinearFilter):
    """Quadratic Volterra filter: the linear filter over
    :func:`vf_features` of the raw input (the extended input's constant
    entry is dropped; the expansion carries its own constant term)."""

    def __init__(self, dim, mu=0.01):
        super().__init__(dim, mu)
        self.v = np.zeros(vf_features(np.zeros(self.dim)).size)

    def predict(self, x_ext) -> SimplePrediction:
        feats = vf_features(np.asarray(x_ext, dtype=float)[:-1])
        return SimplePrediction(float(self.v.dot(feats)), features=feats)


class GaussianKernelRegressor(Learner):
    """Fixed Gaussian mixture gating a bank of affine regressors.

    Centres are chosen in hindsight and never adapt; only the per-centre
    regressors learn, each scaled by its kernel value (the gradient of the
    squared error through the fixed mixture).  Every kernel is isotropic
    with the one variance ``covariances``, ``sigma^2``: the kernel of
    centre ``c`` is ``norm * exp(-|x - c|^2 / (2 sigma^2))``, where
    ``norm`` is ``1 / (2 pi sigma^m)``, that is ``1 / (2 pi sqrt(det S))``
    for ``S = sigma^2 I`` regardless of dimension (the convention this
    benchmark family uses, not the general Gaussian constant).

    Centres must be finite, one row of ``m`` numbers each, numbers only;
    ``covariances`` must be a finite number > 0.  Booleans and strings are
    refused in both.
    """

    def __init__(self, centers, covariances, mu=1.0):
        centers = _numeric(centers)
        if centers is None or centers.ndim > 2:
            raise ValueError("centers must be a list of points, numbers only")
        self.centers = np.atleast_2d(centers)
        if not np.isfinite(self.centers).all():
            raise ValueError("centers must be finite")
        p, m = self.centers.shape
        var = _real(covariances, "covariances", lambda v: 0 < v < math.inf,
                    "be a finite number > 0")
        # a numpy scalar, so an extreme variance gives an infinite normaliser
        # with a warning, as numpy arithmetic does, not ZeroDivisionError
        sigma = np.sqrt(var)
        s = 1.0 / sigma
        # one (p m, m + 1) matrix: block p is [I / sigma | -c_p / sigma], so
        # its product with (x, 1) is (x - c_p) / sigma for every centre at once
        blocks = np.zeros((p, m, m + 1))
        blocks[:, :, :m] = s * np.eye(m)
        blocks[:, :, m] = -(s * self.centers)
        self._whiten = blocks.reshape(p * m, m + 1)
        # -1/2 times the sum of each centre's m squares
        self._half_sums = np.repeat(np.eye(p), m, axis=1) * -0.5
        # sigma^m as m copies of sigma multiplied left to right, not sigma ** m
        self.norms = np.full(p, 1.0 / (2.0 * np.pi * math.prod([sigma] * m)))
        self.mu = _step_size(mu)
        self.v = np.zeros((p, m + 1))

    def _kernel(self, x_ext: np.ndarray) -> np.ndarray:
        r = self._whiten.dot(x_ext)
        return self.norms * np.exp(self._half_sums.dot(r * r))

    def predict(self, x_ext) -> SimplePrediction:
        x_ext = np.asarray(x_ext, dtype=float)
        f = self._kernel(x_ext)
        return SimplePrediction(float(f.dot(self.v.dot(x_ext))), features=x_ext, kernel=f)

    def update(self, x_ext, d_t, pred) -> None:
        step = self.mu * (d_t - pred.y_hat)
        # the rank-1 step as a (p, 1) x (1, m + 1) product, one cheap BLAS call
        self.v += (step * pred.kernel)[:, None].dot(pred.features[None, :])
