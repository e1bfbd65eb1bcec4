"""Deterministic, seedable generators for the synthetic benchmark streams.

All randomness flows through a counter-based Philox(4x64) bit generator
keyed by the stream seed; uniforms are 53-bit integer draws mapped to the
open unit interval and normal variates are their inverse-CDF images
(``scipy.special.ndtri``).  Reruns with the same seed are bit-identical,
and the recipe is simple enough to replay outside this package.

The four piecewise-linear streams draw two-dimensional standard-normal
inputs; each target is the fixed linear response ``x1 + x2`` times the
sign of the leaf the input reaches in the kind's generating tree of
half-space tests (``PIECEWISE``), plus white Gaussian noise of variance
0.1 by default.  The two chaotic streams are noise-free recursions at
fixed parameters from a fixed initial state: the Henon map at zeta = 1.4,
eta = 0.3 (Henon, 1976) and the forward-Euler Lorenz flow at sigma = 10,
rho = 28, beta = 8/3 (Lorenz, 1963).  Their first ``BURN_IN`` = 100
iterates are discarded as transient.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .trees import _integer, _real

DEFAULT_NOISE_VAR = 0.1

BURN_IN = 100

_W = np.array([1.0, 1.0])


@dataclass(frozen=True)
class Stream:
    """A finite stream of (input, target) pairs.

    ``inputs`` holds raw regressors (n, m) and ``targets`` the n responses;
    learners consume ``extended``, which appends the constant-1 entry.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 2 or len(self.inputs) != len(self.targets):
            raise ValueError("inputs must be (n, m) aligned with targets")

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def extended(self) -> np.ndarray:
        return np.hstack([self.inputs, np.ones((len(self), 1))])


def _generator(seed) -> np.random.Generator:
    """Philox keyed by ``seed``, an integer (numpy's included) in ``[0,
    2**64)``; anything else, booleans and integral floats included, raises
    ValueError."""
    if not 0 <= _integer(seed, "seed") < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64) to key the generator, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    # 53-bit draws centred into (0, 1), then the inverse normal CDF
    k = rng.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return ndtri((k + 0.5) * 2.0**-53)


# kind -> (planes, signs): the generating tree of a piecewise-linear
# stream.  Row i of ``planes`` is internal node i's test ``x @ (a1, a2) >=
# c`` in heap order; a point that passes it goes to the upper child
# 2i + 2, one that fails to the lower child 2i + 1.  ``signs`` holds one
# response sign per leaf, left to right.
PIECEWISE = {
    # quadrants: positive where the two axis tests agree
    "matched": (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
                (1.0, -1.0, -1.0, 1.0)),
    # the same two-level shape on rotated and shifted planes
    "mismatched": (np.array([[4.0, -1.0, 0.5], [1.0, 2.0, -1.0], [1.0, 1.0, 1.0]]),
                   (1.0, -1.0, -1.0, 1.0)),
    # one hyperplane
    "first_order": (np.array([[4.0, -1.0, 0.5]]), (-1.0, 1.0)),
    # eight cells, three levels
    "third_order": (np.array([[4.0, -1.0, 0.5], [-1.0, -2.0, 0.5], [1.0, 1.0, 1.0],
                              [-1.0, 0.0, 0.5], [0.0, -1.0, 0.5], [1.0, 0.0, 0.5],
                              [0.0, 1.0, 0.5]]),
                    (1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0)),
}


def piecewise_values(kind: str, x: np.ndarray) -> np.ndarray:
    """Noiseless targets of the piecewise kind ``kind`` at the rows of
    ``x``: the sign of the leaf each row reaches in the generating tree
    times the fixed linear response ``x @ _W``."""
    planes, signs = PIECEWISE[kind]
    x = np.atleast_2d(x)

    def sign(i):
        if i >= len(planes):
            return signs[i - len(planes)]
        return np.where(x @ planes[i, :2] >= planes[i, 2], sign(2 * i + 2), sign(2 * i + 1))

    return sign(0) * (x @ _W)


def _noise_var(value, error=ValueError) -> float:
    """``value`` as a noise variance, a finite number >= 0 (booleans
    excluded); anything else raises ``error`` (a ValueError subclass)."""
    return _real(value, "noise_var", lambda v: 0 <= v < math.inf, "be a finite number >= 0",
                 error)


def _piecewise(kind, n, seed, noise_var=DEFAULT_NOISE_VAR) -> Stream:
    """``n`` standard-normal inputs and their ``kind`` targets, plus white
    Gaussian noise of variance ``noise_var`` (see :func:`_noise_var`)."""
    _noise_var(noise_var)
    rng = _generator(seed)
    x = _standard_normals(rng, (n, 2))
    d = piecewise_values(kind, x)
    if noise_var > 0:
        d = d + np.sqrt(noise_var) * _standard_normals(rng, n)
    return Stream(x, d)


def gen_henon(n) -> Stream:
    """Quadratic-map recursion ``d = 1 - 1.4 d'^2 + 0.3 d''`` from ``d' =
    d'' = 0`` in a prediction framing: the input is the pair of previous
    values.  The first ``BURN_IN`` iterates are discarded."""
    inputs = np.empty((n, 2))
    targets = np.empty(n)
    d1 = d2 = 0.0
    for t in range(-BURN_IN, n):
        d_new = 1.0 - 1.4 * d1 * d1 + 0.3 * d2
        if t >= 0:
            inputs[t] = (d1, d2)
            targets[t] = d_new
        d1, d2 = d_new, d1
    return Stream(inputs, targets)


def gen_lorenz(n) -> Stream:
    """Forward-Euler iterates, step 0.01 from ``(1, 1, 1)``, of the
    three-variable convection flow at sigma = 10, rho = 28, beta = 8/3;
    the first coordinate is the target, the other two form the input.
    The first ``BURN_IN`` iterates are discarded."""
    inputs = np.empty((n, 2))
    targets = np.empty(n)
    x = y = z = 1.0
    for t in range(-BURN_IN, n):
        x, y, z = (
            x + 10.0 * (y - x) * 0.01,
            y + (x * (28.0 - z) - y) * 0.01,
            z + (x * y - 8.0 / 3.0 * z) * 0.01,
        )
        if t >= 0:
            inputs[t] = (y, z)
            targets[t] = x
    return Stream(inputs, targets)


CHAOTIC = {"henon": gen_henon, "lorenz": gen_lorenz}

KINDS = (*PIECEWISE, *CHAOTIC)


def generate(kind: str, n: int, seed: int | None = None, **params) -> Stream:
    """Dispatch on stream kind; the piecewise kinds require an integer
    ``seed`` (see :func:`_generator`) and take ``noise_var``, the chaotic
    kinds take no parameter.  The length
    ``n`` is an integer >= 0 (numpy's included); anything else, booleans
    and integral floats included, raises ValueError."""
    if kind not in KINDS:
        raise ValueError(f"unknown stream kind {kind!r}")
    _integer(n, "n", 0)
    if kind in CHAOTIC:
        return CHAOTIC[kind](n, **params)
    return _piecewise(kind, n, seed, **params)


def stream_to_csv(stream: Stream, path) -> None:
    """One row per step: x1..xm then the target."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(stream.dim)] + ["d"])
        for x, d in zip(stream.inputs, stream.targets):
            writer.writerow([repr(float(c)) for c in x] + [repr(float(d))])
