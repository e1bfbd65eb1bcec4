"""Reference regressors the tree learners are benchmarked against.

All three are strictly sequential first-order (LMS-style) learners: a
plain linear filter, a truncated Volterra filter (LMS over polynomial
features of the raw input), and a fixed Gaussian-kernel mixture with one
affine regressor per centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np


@dataclass
class SimplePrediction:
    y_hat: float
    features: np.ndarray | None = None
    kernel: np.ndarray | None = None


class LinearFilter:
    """LMS over the extended input."""

    def __init__(self, dim, mu=0.01):
        self.dim = dim
        self.mu = float(mu)
        self.v = np.zeros(dim + 1)

    def predict(self, x_ext) -> SimplePrediction:
        x_ext = np.asarray(x_ext, dtype=float)
        return SimplePrediction(float(self.v @ x_ext), features=x_ext)

    def update(self, x_ext, d_t, pred) -> None:
        e = d_t - pred.y_hat
        self.v += self.mu * e * pred.features

    def step(self, x_ext, d_t) -> tuple[float, float]:
        pred = self.predict(x_ext)
        self.update(x_ext, d_t, pred)
        return pred.y_hat, d_t - pred.y_hat


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


class VolterraFilter:
    """Truncated Volterra filter: LMS over :func:`vf_features` of the raw
    input (the extended input's constant entry is dropped; the expansion
    carries its own constant term)."""

    def __init__(self, dim, order=2, mu=0.01):
        self.dim = dim
        self.order = order
        self.mu = float(mu)
        self.v = np.zeros(vf_features(np.zeros(dim), order).size)

    def predict(self, x_ext) -> SimplePrediction:
        feats = vf_features(np.asarray(x_ext, dtype=float)[:-1], self.order)
        return SimplePrediction(float(self.v @ feats), features=feats)

    def update(self, x_ext, d_t, pred) -> None:
        e = d_t - pred.y_hat
        self.v += self.mu * e * pred.features

    def step(self, x_ext, d_t) -> tuple[float, float]:
        pred = self.predict(x_ext)
        self.update(x_ext, d_t, pred)
        return pred.y_hat, d_t - pred.y_hat


class GaussianKernelRegressor:
    """Fixed Gaussian mixture gating a bank of affine regressors.

    Centres and covariances are chosen in hindsight and never adapt; only
    the per-centre regressors learn, each scaled by its kernel value
    (the gradient of the squared error through the fixed mixture).  The
    kernel of centre ``c`` with covariance ``S`` is
    ``norm * exp(-(x - c)' S^-1 (x - c) / 2)``, where ``norm`` is
    ``1 / (2 pi sqrt(det S))`` regardless of dimension (the convention
    this benchmark family uses, not the general Gaussian constant).
    """

    def __init__(self, centers, covariances, mu=1.0):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        p, m = self.centers.shape
        covariances = np.asarray(covariances, dtype=float)
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
            np.linalg.cholesky(covariances)
        except np.linalg.LinAlgError:
            raise ValueError("covariances must be positive definite") from None
        self.cov_inv = np.linalg.inv(covariances)
        dets = np.linalg.det(covariances)
        self.norms = 1.0 / (2.0 * np.pi * np.sqrt(dets))
        self.mu = float(mu)
        self.v = np.zeros((p, m + 1))

    def kernel_values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        delta = x - self.centers
        quad = np.einsum("pi,pij,pj->p", delta, self.cov_inv, delta)
        return self.norms * np.exp(-0.5 * quad)

    def predict(self, x_ext) -> SimplePrediction:
        x_ext = np.asarray(x_ext, dtype=float)
        f = self.kernel_values(x_ext[:-1])
        return SimplePrediction(float(f @ (self.v @ x_ext)), features=x_ext, kernel=f)

    def update(self, x_ext, d_t, pred) -> None:
        e = d_t - pred.y_hat
        # the rank-1 step as a (p, 1) x (1, m + 1) product, one cheap BLAS call
        self.v += (self.mu * e * pred.kernel)[:, None].dot(pred.features[None, :])

    def step(self, x_ext, d_t) -> tuple[float, float]:
        pred = self.predict(x_ext)
        self.update(x_ext, d_t, pred)
        return pred.y_hat, d_t - pred.y_hat
