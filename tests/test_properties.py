"""Property tests over options and states that the seeded tests do not
reach: collapsed == explicit mixture over a range of step sizes, several
gate clamps and random hyperplanes, one full step of each learner
against a plain reference step from random states, the bits of each
learner's step against its earlier ``.dot`` form, the shared soft-gate
kernel against the branch factors it replaces and across the two soft
learners, and bit-exact snapshot round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwltree.adaptive_tree import AdaptiveTreeRegressor
from pwltree.datagen import generate
from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.mixture import DirectMixtureRegressor
from pwltree.trees import (
    MAX_ENUMERATION_DEPTH,
    MAX_TABLE_DEPTH,
    _heap_tables,
    gamma,
    level,
    node_count,
    rho_table,
)

from helpers import reference_dot_step, reference_mixture_step, reference_step, row_ancestors


streams = st.tuples(st.sampled_from(["matched", "mismatched"]), st.integers(0, 2**16),
                    st.integers(10, 60))


def lockstep(fast, slow, kind, seed, steps):
    stream = generate(kind, steps, seed=seed)
    for x, d in zip(stream.extended, stream.targets):
        y_fast, _ = fast.step(x, d)
        y_slow, _ = slow.step(x, d)
        assert abs(y_fast - y_slow) <= 1e-9 * (1.0 + abs(y_slow))


def random_planes(depth, seed, on_plane):
    """Random hyperplanes for a depth-``depth`` tree, or None for the
    default axis planes: rows over two decades, and with ``on_plane`` some
    rows zeroed, so that every point lies on those planes."""
    if seed is None:
        return None
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=((1 << depth) - 1, 3)) * 10.0 ** rng.uniform(-1, 1)
    if on_plane:
        planes[rng.random(len(planes)) < 0.5] = 0.0
    return planes


plane_seeds = st.one_of(st.none(), st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("depth", range(5))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(mu=st.floats(1e-3, 2e-2), s_plus=st.sampled_from([0.01, 0.05, 0.2]), stream=streams,
       plane_seed=plane_seeds, on_plane=st.booleans())
def test_soft_lockstep_under_schedules_and_options(depth, mu, s_plus, stream, plane_seed,
                                                   on_plane):
    planes = random_planes(depth, plane_seed, on_plane)
    fast = AdaptiveTreeRegressor(depth, 2, mu=mu, s_plus=s_plus, theta=planes)
    slow = DirectMixtureRegressor(depth, 2, mode="soft", mu=mu, s_plus=s_plus, theta=planes)
    lockstep(fast, slow, *stream)
    np.testing.assert_allclose(fast.theta, slow.theta, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("depth", range(5))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(mu=st.floats(1e-3, 2e-2), stream=streams, plane_seed=plane_seeds,
       on_plane=st.booleans())
def test_hard_lockstep_under_schedules(depth, mu, stream, plane_seed, on_plane):
    # random planes route the stream to every leaf, so every row of the
    # oracle's owner table is read
    planes = random_planes(depth, plane_seed, on_plane)
    fast = FixedTreeRegressor(depth, 2, mu=mu, theta=planes)
    slow = DirectMixtureRegressor(depth, 2, mode="hard", mu=mu, theta=planes)
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
    make = ((lambda: AdaptiveTreeRegressor(depth, 2, mu=0.01)) if gated
            else (lambda: FixedTreeRegressor(depth, 2, mu=0.01)))
    lrn = make()
    lrn.w = random_finite(rng, lrn.w.shape, bits)
    lrn.v = random_finite(rng, lrn.v.shape, bits)
    lrn.theta = random_finite(rng, lrn.theta.shape, bits)
    lrn.t = t
    other = make()
    if not gated:  # a fixed tree takes only a state of its own hyperplanes
        other.theta = lrn.theta
    other.load_state(json.loads(json.dumps(lrn.state_snapshot())))
    fields = ("w", "v", "theta")
    for field in fields:
        assert np.array_equal(getattr(other, field), getattr(lrn, field))
    assert other.t == lrn.t
    assert other.state_snapshot() == lrn.state_snapshot()
    x = np.append(random_finite(rng, 2, bits), 1.0)
    with np.errstate(all="ignore"):
        assert lrn.predict(x).y_hat.hex() == other.predict(x).y_hat.hex()
        lrn.step(x, 0.5)
        other.step(x, 0.5)
    for field in fields:
        assert np.array_equal(getattr(other, field), getattr(lrn, field), equal_nan=True)


def assert_close(got, want):
    """Equal to a relative 1e-12 of the array's largest entry."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("depth", range(6))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), mu=st.floats(1e-4, 0.1), t=st.integers(1, 10**6),
       s_plus=st.sampled_from([1e-4, 0.01, 0.2]), scale=st.floats(-2.0, 2.0))
def test_step_matches_reference(gated, depth, seed, mu, t, s_plus, scale):
    lrn = (AdaptiveTreeRegressor(depth, 2, mu=mu, s_plus=s_plus) if gated
           else FixedTreeRegressor(depth, 2, mu=mu))
    rng = np.random.default_rng(seed)
    lrn.w = rng.normal(size=lrn.w.shape) * 10.0 ** scale
    lrn.v = rng.normal(size=lrn.v.shape) * 10.0 ** scale
    lrn.theta = rng.normal(size=lrn.theta.shape) * 10.0 ** rng.uniform(-1, 1)
    lrn.t = t
    x = np.append(rng.normal(size=2), 1.0)
    d = float(rng.normal())
    y_want, w_want, v_want, theta_want = reference_step(lrn, x, d)
    pred = lrn.predict(x)
    lrn.update(x, d, pred)
    assert pred.y_hat == pytest.approx(y_want, rel=1e-12, abs=1e-300)
    assert_close(lrn.w, w_want)
    assert_close(lrn.v, v_want)
    assert_close(lrn.theta, theta_want)
    assert lrn.t == t + 1


def same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("depth", range(6))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), mu=st.floats(1e-4, 0.1), t=st.integers(1, 10**6),
       s_plus=st.sampled_from([1e-4, 0.01, 0.2]), scale=st.floats(-2.0, 2.0),
       on_plane=st.booleans())
def test_step_matches_dot_reference_bit_for_bit(gated, depth, seed, mu, t, s_plus, scale,
                                                on_plane):
    # the tree learners must give the bits of their earlier .dot form: random
    # hyperplanes send the hard path and the soft gates everywhere, and
    # zero hyperplanes put the point on the plane (the upper child, or u = 1/2)
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=((1 << depth) - 1, 3)) * 10.0 ** rng.uniform(-1, 1)
    if on_plane:
        planes[rng.random(len(planes)) < 0.5] = 0.0
    lrn = (AdaptiveTreeRegressor(depth, 2, mu=mu, s_plus=s_plus, theta=planes) if gated
           else FixedTreeRegressor(depth, 2, mu=mu, theta=planes))
    lrn.w = rng.normal(size=lrn.w.shape) * 10.0 ** scale
    lrn.v = rng.normal(size=lrn.v.shape) * 10.0 ** scale
    lrn.t = t
    x = np.append(rng.normal(size=2), 1.0)
    d = float(rng.normal())
    y_want, w_want, v_want, theta_want = reference_dot_step(lrn, x, d)
    pred = lrn.predict(x)
    lrn.update(x, d, pred)
    assert same_bits(pred.y_hat, y_want)
    assert same_bits(lrn.w, w_want)
    assert same_bits(lrn.v, v_want)
    assert same_bits(lrn.theta, theta_want)
    assert lrn.t == t + 1


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("depth", range(5))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), mu=st.floats(1e-4, 0.1),
       s_plus=st.sampled_from([1e-4, 0.01, 0.2]), scale=st.floats(-2.0, 2.0),
       on_plane=st.booleans())
def test_mixture_step_matches_reference_bit_for_bit(mode, depth, seed, mu, s_plus, scale,
                                                     on_plane):
    # the oracle's .dot form must give the bits of its plain @ form: random
    # hyperplanes send the hard path and the soft gates everywhere, and
    # zero hyperplanes put the point on the plane, which goes to the upper child
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=((1 << depth) - 1, 3)) * 10.0 ** rng.uniform(-1, 1)
    if on_plane:
        planes[rng.random(len(planes)) < 0.5] = 0.0
    # only the soft oracle takes a gate clamp
    lrn = DirectMixtureRegressor(depth, 2, mode=mode, mu=mu,
                                 s_plus=s_plus if mode == "soft" else None, theta=planes)
    lrn.w_vec = rng.normal(size=lrn.w_vec.shape) * 10.0 ** scale
    lrn.v = rng.normal(size=lrn.v.shape) * 10.0 ** scale
    x = np.append(rng.normal(size=2), 1.0)
    d = float(rng.normal())
    y_want, w_want, v_want, theta_want = reference_mixture_step(lrn, x, d)
    pred = lrn.predict(x)
    lrn.update(x, d, pred)
    assert same_bits(pred.y_hat, y_want)
    assert same_bits(lrn.w_vec, w_want)
    assert same_bits(lrn.v, v_want)
    assert same_bits(lrn.theta, theta_want)


@pytest.mark.parametrize("depth", range(5))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), s_plus=st.sampled_from([1e-4, 0.01, 0.2]),
       scale=st.floats(-2.0, 2.0), on_plane=st.booleans())
def test_column_major_membership_products_match_row_major(depth, seed, s_plus, scale,
                                                          on_plane):
    # the soft oracle's two membership products on its column-major matrix
    # sum in another order than on a row-major copy: they agree to a
    # relative 1e-13 of the sums of their absolute terms
    rng = np.random.default_rng(seed)
    lrn = DirectMixtureRegressor(depth, 2, mode="soft", s_plus=s_plus,
                                 theta=random_planes(depth, seed, on_plane))
    lrn.w_vec = rng.normal(size=lrn.w_vec.shape) * 10.0 ** scale
    lrn.v = rng.normal(size=lrn.v.shape) * 10.0 ** scale
    pred = lrn.predict(np.append(3.0 * rng.normal(size=2), 1.0))
    rows = np.ascontiguousarray(lrn.membership)
    assert lrn.membership.flags.f_contiguous and rows.flags.c_contiguous
    for got, want, size in [
            (pred.model_estimates, rows.dot(pred.h), rows.dot(np.abs(pred.h))),
            (lrn.w_vec.dot(lrn.membership), lrn.w_vec.dot(rows), np.abs(lrn.w_vec).dot(rows))]:
        assert np.all(np.abs(got - want) <= 1e-13 * size)


gate_values = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        st.sampled_from([1e-4, 0.01, 0.2]).flatmap(
                            lambda s_plus: st.sampled_from([s_plus, 1.0 - s_plus])))


@pytest.mark.parametrize("depth", range(6))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(s=st.lists(gate_values, min_size=31, max_size=31))
def test_branch_tables_give_the_gathered_branch_factors_bit_for_bit(depth, s):
    # one take from the branch buffer [s | 1 - s | 1.0] through the cached
    # index table against the branch factors written out (1.0 at the root,
    # s at a lower child, 1 - s at an upper one) and gathered down the
    # level-major ancestor table; the oracle's own index gives the same bits
    n = node_count(depth)
    s = np.array(s[:(1 << depth) - 1])
    f = np.empty(n)
    f[0] = 1.0
    f[1::2] = s
    np.subtract(1.0, s, out=f[2::2])
    want = f[row_ancestors(depth).T]
    branch = np.concatenate([s, 1.0 - s, [1.0]])
    indices = [_heap_tables(depth)[3]]
    if depth <= MAX_ENUMERATION_DEPTH:
        indices.append(DirectMixtureRegressor(depth, 2, mode="soft")._gates.index)
    for index in indices:
        got = branch.take(index)
        assert got.shape == want.shape and same_bits(got, want)
        assert same_bits(np.multiply.reduce(got, axis=0), want.prod(axis=0))


@pytest.mark.parametrize("depth", range(5))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), s_plus=st.sampled_from([1e-4, 0.01, 0.2]),
       e=st.floats(-10.0, 10.0), on_plane=st.booleans())
def test_adaptive_tree_and_soft_oracle_share_the_gate_kernel(depth, seed, s_plus, e, on_plane):
    # in the same state the two soft learners give the same activations,
    # branch factors and capped hyperplane steps, bit for bit; integer node
    # weights make the collapsed and the partition-space node weights exact
    rng = np.random.default_rng(seed)
    planes = random_planes(depth, seed, on_plane)
    tree = AdaptiveTreeRegressor(depth, 2, mu=0.05, s_plus=s_plus, theta=planes)
    oracle = DirectMixtureRegressor(depth, 2, mode="soft", mu=0.05, s_plus=s_plus,
                                    theta=planes)
    tree.v = rng.normal(size=tree.v.shape) * 10.0
    oracle.v = tree.v.copy()
    tree.w = rng.integers(-3, 4, size=tree.w.shape).astype(float)
    oracle.w_vec = oracle.membership.dot(tree.w)
    x = np.append(3.0 * rng.normal(size=2), 1.0)
    ours, theirs = tree.predict(x), oracle.predict(x)
    for field in ("alphas", "f", "u", "cu", "h"):
        assert same_bits(getattr(ours, field), getattr(theirs, field))
    assert same_bits(tree.boundary_factors(ours), oracle.boundary_factors(theirs))
    tree.update_boundaries(x, e, ours)
    oracle.update_boundaries(x, e, theirs)
    assert same_bits(tree.theta, oracle.theta)


def leaf_paths(depth: int) -> np.ndarray:
    """Heap indices of every root -> leaf path, one row per leaf, from the
    bit strings ``i + 1``: the ancestor ``k`` levels above ``i`` is ``((i +
    1) >> k) - 1``."""
    leaves = np.arange((1 << depth) - 1, node_count(depth))
    return ((leaves[:, None] + 1) >> np.arange(depth, -1, -1)) - 1


@pytest.mark.parametrize("depth", range(MAX_TABLE_DEPTH + 1))
def test_rho_path_sums_count_the_partitions_of_each_node(depth):
    # a partition tiles the leaves, so it holds exactly one node of every
    # root -> leaf path: summed down any path, rho[i, j] counts each
    # partition holding j once, gamma(d, level(j)); at depth 5 no partition
    # is enumerated, so this is the check of the depth-5 table
    rho = rho_table(depth)
    want = [gamma(depth, level(j)) for j in range(node_count(depth))]
    sums = rho[leaf_paths(depth)].sum(axis=1)
    assert sums.shape == (1 << depth, node_count(depth))
    assert (sums == want).all()


@pytest.mark.parametrize("depth", range(MAX_TABLE_DEPTH + 1))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(w=st.lists(st.integers(-1000, 1000), min_size=63, max_size=63))
def test_kappa_sums_the_same_down_every_path(depth, w):
    # so the combination weights kappa = rho w of any node weights w sum to
    # the same total down every root -> leaf path: sum_j gamma(d, level(j)) w_j
    w = np.array(w[:node_count(depth)], dtype=np.int64)
    kappa = rho_table(depth).dot(w)
    total = sum(gamma(depth, level(j)) * int(w[j]) for j in range(node_count(depth)))
    assert kappa[leaf_paths(depth)].sum(axis=1).tolist() == [total] * (1 << depth)
