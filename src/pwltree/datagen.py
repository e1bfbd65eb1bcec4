"""Deterministic, seedable generators for the synthetic benchmark streams.

All randomness flows through a counter-based Philox(4x64) bit generator
keyed by the stream seed; uniforms are 53-bit integer draws mapped to the
open unit interval and normal variates are their inverse-CDF images
(``scipy.special.ndtri``).  Reruns with the same seed are bit-identical,
and the recipe is simple enough to replay outside this package.

The four piecewise-linear streams draw two-dimensional standard-normal
inputs and flip the sign of a fixed linear response across half-space
cells, plus white
Gaussian noise of variance 0.1.  The two chaotic streams (quadratic map
and the three-variable convection flow) are noise-free recursions; their
first 100 iterates are discarded as transient by default since the
initial state is an arbitrary convention.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .trees import _integer

DEFAULT_NOISE_VAR = 0.1

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


def matched_values(x: np.ndarray) -> np.ndarray:
    """Noiseless targets of the quadrant-matched model: +/- the linear
    response, positive where the two axis tests agree in sign."""
    x = np.atleast_2d(x)
    sign = np.where((x[:, 0] >= 0) == (x[:, 1] >= 0), 1.0, -1.0)
    return sign * (x @ _W)


def mismatched_values(x: np.ndarray) -> np.ndarray:
    """Noiseless targets of the rotated/shifted two-level model."""
    x = np.atleast_2d(x)
    p0 = x @ np.array([4.0, -1.0])
    p1 = x @ np.array([1.0, 1.0])
    p2 = x @ np.array([1.0, 2.0])
    upper = p0 >= 0.5
    sign = np.where(upper, np.where(p1 >= 1.0, 1.0, -1.0), np.where(p2 >= -1.0, -1.0, 1.0))
    return sign * (x @ _W)


def first_order_values(x: np.ndarray) -> np.ndarray:
    """Noiseless targets of the single-split model (one hyperplane)."""
    x = np.atleast_2d(x)
    sign = np.where(x @ np.array([4.0, -1.0]) >= 0.5, 1.0, -1.0)
    return sign * (x @ _W)


def third_order_values(x: np.ndarray) -> np.ndarray:
    """Noiseless targets of the eight-cell, three-level model."""
    x = np.atleast_2d(x)
    p0 = x @ np.array([4.0, -1.0]) >= 0.5
    p1 = x @ np.array([1.0, 1.0]) >= 1.0
    p2 = x @ np.array([-1.0, -2.0]) >= 0.5
    p3 = x @ np.array([0.0, 1.0]) >= 0.5
    p4 = x @ np.array([1.0, 0.0]) >= 0.5
    p5 = x @ np.array([-1.0, 0.0]) >= 0.5
    p6 = x @ np.array([0.0, -1.0]) >= 0.5
    plus = np.where(
        p0,
        np.where(p1, p3, p4),
        np.where(~p2, ~p5, ~p6),
    )
    return np.where(plus, 1.0, -1.0) * (x @ _W)


# kind -> noiseless targets of a piecewise-linear stream
PIECEWISE = {
    "matched": matched_values,
    "mismatched": mismatched_values,
    "first_order": first_order_values,
    "third_order": third_order_values,
}


def _piecewise(values, n, seed, noise_var=DEFAULT_NOISE_VAR) -> Stream:
    """``n`` standard-normal inputs and their ``values`` targets, plus
    white Gaussian noise of variance ``noise_var``, a finite number >= 0
    (booleans excluded); anything else raises ValueError."""
    number = isinstance(noise_var, (int, float, np.integer, np.floating))
    if isinstance(noise_var, bool) or not number or not (math.isfinite(noise_var) and noise_var >= 0):
        raise ValueError(f"noise_var must be a finite number >= 0, got {noise_var!r}")
    rng = _generator(seed)
    x = _standard_normals(rng, (n, 2))
    d = values(x)
    if noise_var > 0:
        d = d + np.sqrt(noise_var) * _standard_normals(rng, n)
    return Stream(x, d)


def _burn_in(burn_in) -> int:
    """``burn_in`` as an int when it is an integer >= 0 (numpy's included);
    anything else, booleans and integral floats included, raises ValueError."""
    burn_in = _integer(burn_in, "burn_in")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    return burn_in


def gen_henon(n, init=(0.0, 0.0), zeta=1.4, eta=0.3, burn_in=100) -> Stream:
    """Quadratic-map recursion ``d = 1 - zeta d'^2 + eta d''`` in a
    prediction framing: the input is the pair of previous values.

    The map is chaotic at the default parameters.  Iterates exceeding
    1e10 in magnitude raise, signalling a divergent initial state.
    """
    burn_in = _burn_in(burn_in)
    d1, d2 = float(init[0]), float(init[1])
    inputs = np.empty((n, 2))
    targets = np.empty(n)
    for t in range(-burn_in, n):
        d_new = 1.0 - zeta * d1 * d1 + eta * d2
        if abs(d_new) > 1e10:
            raise ValueError("orbit diverged; bad initial state or parameters")
        if t >= 0:
            inputs[t] = (d1, d2)
            targets[t] = d_new
        d1, d2 = d_new, d1
    return Stream(inputs, targets)


def gen_lorenz(n, init=(1.0, 1.0, 1.0), dt=0.01, rho=28.0, sigma=10.0,
               beta=8.0 / 3.0, burn_in=100) -> Stream:
    """Forward-Euler iterates of the three-variable convection flow; the
    first coordinate is the target, the other two form the input."""
    burn_in = _burn_in(burn_in)
    x, y, z = (float(c) for c in init)
    inputs = np.empty((n, 2))
    targets = np.empty(n)
    for t in range(-burn_in, n):
        x, y, z = (
            x + sigma * (y - x) * dt,
            y + (x * (rho - z) - y) * dt,
            z + (x * y - beta * z) * dt,
        )
        if t >= 0:
            inputs[t] = (y, z)
            targets[t] = x
    return Stream(inputs, targets)


GENERATORS = {**PIECEWISE, "henon": gen_henon, "lorenz": gen_lorenz}


def generate(kind: str, n: int, seed: int | None = None, **params) -> Stream:
    """Dispatch on stream kind; the piecewise kinds require ``seed``.  The
    length ``n`` is an integer >= 0 (numpy's included); anything else,
    booleans and integral floats included, raises ValueError."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown stream kind {kind!r}")
    if _integer(n, "n") < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if kind not in PIECEWISE:
        return GENERATORS[kind](n, **params)
    if seed is None:
        raise ValueError(f"stream kind {kind!r} requires a seed")
    return _piecewise(PIECEWISE[kind], n, seed, **params)


def stream_to_csv(stream: Stream, path) -> None:
    """One row per step: x1..xm then the target."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(stream.dim)] + ["d"])
        for x, d in zip(stream.inputs, stream.targets):
            writer.writerow([repr(float(c)) for c in x] + [repr(float(d))])
