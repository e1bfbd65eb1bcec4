"""Reference regressors the tree learners are benchmarked against.

All three are strictly sequential first-order (LMS-style) learners: a
plain linear filter, a truncated Volterra filter (LMS over polynomial
features of the raw input), and a fixed Gaussian-kernel mixture with one
affine regressor per centre.  Each checks its step size ``mu`` when it is
built: a finite real number > 0.  All three inherit ``step`` from
:class:`pwltree.trees.Learner`, and the Volterra filter is the linear
filter over :func:`vf_features`, whose ``update`` it inherits.

On inputs this small a step's cost is its numpy calls, not its flops, so
every product is a ``.dot`` (less dispatch than ``@``) and the scalar step
factor ``mu e`` is formed before it touches an array.  A step of the
linear filter is 4 numpy calls (``asarray`` and ``v.dot(x)`` in
``predict``, a scaling of the input and an in-place add in ``update``).
The Volterra filter's ``predict`` builds its features in a Python loop of
about one numpy scalar product per feature, then takes 2 calls, and its
``update`` is the linear filter's 2.  The Gaussian-kernel mixture whitens
the extended input ``x_ext = (x, 1)`` once per step: the constructor
stacks, for the Cholesky factor ``L_p`` of every covariance, the block
``[L_p^-1 | -L_p^-1 c_p]`` into one ``(p m, m + 1)`` matrix, so
``r = whiten . x_ext`` holds every ``L_p^-1 (x - c_p)`` and the quadratic
form of centre ``p`` is the sum of the squares of its block of ``r``.
``predict`` is then 8 numpy calls (``asarray``, the whitening product,
``r * r``, one product with a ``(p, p m)`` matrix of -1/2 block sums,
``exp``, the scaling by the normalisers, and the two products of
``f . (v . x_ext)``) and ``update`` 3 (the scaling of the kernel values,
a ``(p, 1) . (1, m + 1)`` rank-1 product and its in-place add).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .trees import Learner, _integer, _numeric, _step_size


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


def vf_features(x, order: int = 2) -> np.ndarray:
    """Polynomial feature expansion of a raw input vector.

    Concatenates 1, every component, every distinct product of two
    components (i <= j), and for order 3 every distinct product of three.
    The dimension is the sum of multiset coefficients C(m + q - 1, q) for
    q = 0..order.
    """
    if order not in (2, 3):
        raise ValueError("only orders 2 and 3 are supported")
    x = np.asarray(x, dtype=float)
    feats = [1.0]
    feats.extend(x)
    for combo in combinations_with_replacement(range(x.size), 2):
        feats.append(x[combo[0]] * x[combo[1]])
    if order == 3:
        for combo in combinations_with_replacement(range(x.size), 3):
            feats.append(x[combo[0]] * x[combo[1]] * x[combo[2]])
    return np.array(feats)


class VolterraFilter(LinearFilter):
    """Truncated Volterra filter: the linear filter over :func:`vf_features`
    of the raw input (the extended input's constant entry is dropped; the
    expansion carries its own constant term)."""

    def __init__(self, dim, order=2, mu=0.01):
        super().__init__(dim, mu)
        self.order = _integer(order, "order")
        self.v = np.zeros(vf_features(np.zeros(self.dim), order).size)

    def predict(self, x_ext) -> SimplePrediction:
        feats = vf_features(np.asarray(x_ext, dtype=float)[:-1], self.order)
        return SimplePrediction(float(self.v.dot(feats)), features=feats)


class GaussianKernelRegressor(Learner):
    """Fixed Gaussian mixture gating a bank of affine regressors.

    Centres and covariances are chosen in hindsight and never adapt; only
    the per-centre regressors learn, each scaled by its kernel value
    (the gradient of the squared error through the fixed mixture).  The
    kernel of centre ``c`` with covariance ``S`` is
    ``norm * exp(-(x - c)' S^-1 (x - c) / 2)``, where ``norm`` is
    ``1 / (2 pi sqrt(det S))`` regardless of dimension (the convention
    this benchmark family uses, not the general Gaussian constant).

    Both come from the Cholesky factor ``S = L L'``: the quadratic form is
    ``|L^-1 (x - c)|^2`` and ``sqrt(det S)`` the product of the diagonal
    of ``L``.  Centres must be finite, one row of ``m`` numbers each, and
    centres and covariances hold numbers only: no booleans, no strings.
    """

    def __init__(self, centers, covariances, mu=1.0):
        centers = _numeric(centers)
        if centers is None or centers.ndim > 2:
            raise ValueError("centers must be a list of points, numbers only")
        self.centers = np.atleast_2d(centers)
        if not np.isfinite(self.centers).all():
            raise ValueError("centers must be finite")
        p, m = self.centers.shape
        covariances = _numeric(covariances)
        if covariances is None:
            raise ValueError("covariances must hold only numbers")
        if covariances.ndim == 0:
            covariances = np.stack([float(covariances) * np.eye(m)] * p)
        elif covariances.ndim == 2:
            covariances = np.stack([covariances] * p)
        if covariances.shape != (p, m, m):
            raise ValueError("need one covariance per centre")
        if not (np.isfinite(covariances).all()
                and np.array_equal(covariances, covariances.transpose(0, 2, 1))):
            raise ValueError("covariances must be finite symmetric matrices")
        try:
            chol = np.linalg.cholesky(covariances)
        except np.linalg.LinAlgError:
            raise ValueError("covariances must be positive definite") from None
        # one (p m, m + 1) matrix: block p is [L_p^-1 | -L_p^-1 c_p], so its
        # product with (x, 1) is L_p^-1 (x - c_p) for every centre at once
        inv_chol = np.linalg.inv(chol)
        blocks = np.concatenate([inv_chol, -np.matmul(inv_chol, self.centers[:, :, None])], axis=2)
        self._whiten = blocks.reshape(p * m, m + 1)
        # -1/2 times the sum of each centre's m squares
        self._half_sums = np.repeat(np.eye(p), m, axis=1) * -0.5
        self.norms = 1.0 / (2.0 * np.pi * chol.diagonal(axis1=1, axis2=2).prod(axis=1))
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
