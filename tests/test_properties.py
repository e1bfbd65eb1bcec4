"""Property tests over options and states that the seeded tests do not
reach: collapsed == explicit mixture under callable step schedules and
every soft-boundary option, and bit-exact snapshot round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwltree.adaptive_tree import AdaptiveTreeRegressor
from pwltree.datagen import generate
from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.mixture import DirectMixtureRegressor


def schedule(base, tau, wiggle):
    """A decaying, optionally oscillating step size, never above
    ``base * (1 + wiggle)``."""
    return lambda t: base / (1.0 + t / tau) * (1.0 + wiggle * math.sin(t))


def schedules(low, high):
    """Arguments of ``schedule`` with ``base`` in [low, high]."""
    return st.tuples(st.floats(low, high), st.floats(1.0, 200.0), st.sampled_from([0.0, 0.5]))


streams = st.tuples(st.sampled_from(["matched", "mismatched"]), st.integers(0, 2**16),
                    st.integers(10, 60))


def lockstep(fast, slow, kind, seed, steps):
    stream = generate(kind, steps, seed=seed)
    for x, d in zip(stream.extended, stream.targets):
        y_fast, _ = fast.step(x, d)
        y_slow, _ = slow.step(x, d)
        assert abs(y_fast - y_slow) <= 1e-9 * (1.0 + abs(y_slow))


@pytest.mark.parametrize("depth", range(5))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(mu=schedules(1e-3, 2e-2), eta=st.none() | schedules(0.05, 2.0),
       s_plus=st.sampled_from([0.01, 0.05, 0.2]), literal=st.booleans(),
       step_cap=st.sampled_from([None, "auto"]), stream=streams)
def test_soft_lockstep_under_schedules_and_options(depth, mu, eta, s_plus, literal, step_cap,
                                                   stream):
    options = dict(mu=schedule(*mu), eta=None if eta is None else schedule(*eta),
                   s_plus=s_plus, literal_gradient=literal, step_cap=step_cap)
    fast = AdaptiveTreeRegressor(depth, 2, **options)
    slow = DirectMixtureRegressor(depth, 2, mode="soft", **options)
    lockstep(fast, slow, *stream)
    np.testing.assert_allclose(fast.theta, slow.theta, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("depth", range(5))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(mu=schedules(1e-3, 2e-2), stream=streams)
def test_hard_lockstep_under_schedules(depth, mu, stream):
    fast = FixedTreeRegressor(depth, 2, mu=schedule(*mu))
    slow = DirectMixtureRegressor(depth, 2, mode="hard", mu=schedule(*mu))
    lockstep(fast, slow, *stream)


def random_finite(rng, shape, bits):
    """Normal draws over six decades, or raw bit patterns (subnormals,
    extremes and signed zeros included) with non-finite ones zeroed."""
    if not bits:
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
    out = rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False).view(np.float64)
    out[~np.isfinite(out)] = 0.0
    return out


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("depth", range(6))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), bits=st.booleans(), t=st.integers(1, 2**53))
def test_snapshot_round_trip_is_exact(gated, depth, seed, bits, t):
    rng = np.random.default_rng(seed)
    make = ((lambda: AdaptiveTreeRegressor(depth, 2, mu=lambda k: 1.0 / k)) if gated
            else (lambda: FixedTreeRegressor(depth, 2, mu=lambda k: 1.0 / k)))
    lrn = make()
    lrn.w = random_finite(rng, lrn.w.shape, bits)
    lrn.v = random_finite(rng, lrn.v.shape, bits)
    if gated:
        lrn.theta = random_finite(rng, lrn.theta.shape, bits)
    lrn.t = t
    # the step counter travels beside the state, as in a CLI snapshot file
    saved = json.loads(json.dumps({"state": lrn.state_snapshot(), "t": lrn.t}))
    other = make()
    other.load_state(saved["state"])
    other.t = saved["t"]
    fields = ("w", "v", "theta") if gated else ("w", "v")
    for field in fields:
        assert np.array_equal(getattr(other, field), getattr(lrn, field))
    assert other.t == lrn.t
    assert other.state_snapshot() == lrn.state_snapshot()
    x = np.append(random_finite(rng, 2, bits), 1.0)
    with np.errstate(all="ignore"):
        assert lrn.predict(x).y_hat.hex() == other.predict(x).y_hat.hex()
        # the step size reads t, so the next update is bit-identical only if t came back
        lrn.step(x, 0.5)
        other.step(x, 0.5)
    for field in fields:
        assert np.array_equal(getattr(other, field), getattr(lrn, field), equal_nan=True)
