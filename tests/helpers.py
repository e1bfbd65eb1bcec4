"""Helpers shared by the test modules.

``label`` and ``index_of`` convert a heap index to the paper's bit-string
node name and back, so a test can name a node as the paper does;
``is_ancestor`` and ``is_valid_partition`` check node sets by the same
bit strings, ``locate_leaf`` reads the cell a fixed tree routes an input
to, and ``kernel_values`` a Gaussian-kernel mixture's kernel values;
``cholesky_kernel`` builds that mixture's whitening matrix, normalisers
and kernel values the way the general-covariance form did, through a
Cholesky factor and its inverse, as the reference its stream-level
kernel map is checked against.  ``vf_features`` is the Volterra filter's
feature expansion of one raw input, built in a Python loop as it was
before the filter mapped a whole stream at once, and
``reference_kernel_step`` one step of the Gaussian-kernel mixture in its
per-step form, ``f . (v . x_ext)`` and a rank-1 update over the kernel
values ``cholesky_kernel`` gives.
``MALFORMED_STATES`` is one table of broken tree-learner snapshot states,
used by the library tests of ``load_state`` and by the CLI tests of
``pwltree restore``.  ``reference_step`` is one predict-and-update step
of either tree learner in plain ``@`` and broadcasting, against which the
learners' own step is checked; ``reference_dot_step`` is that step in the
``.dot`` form it had before the ancestor table became level-major, the
gate rise was carried on the prediction and the hard path was walked on
floats; ``reference_mixture_step`` is the same for
the explicit mixture, in the form its step had before it was written as
``.dot`` products, and ``loop_membership`` its membership matrix filled
entry by entry, in the oracle's column-major layout.  The references
build their own descendant and ancestor tables, ``subtree_matrix`` and
``row_ancestors``, from the bit strings ``i + 1``, so they read none of
the heap tables they check.
"""

import copy
import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import expit

from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.trees import level, node_count, rho_table


def label(i: int) -> str:
    """Bit-string name of heap node ``i``: ``i + 1`` in binary without its
    leading 1, so the root is the empty string."""
    return bin(i + 1)[3:]


def index_of(bits: str) -> int:
    """Heap index of the node named ``bits``, the inverse of ``label``."""
    return int("1" + bits, 2) - 1


def is_ancestor(a: int, i: int) -> bool:
    """True when ``a`` lies on the root -> ``i`` path, ``i`` included: the
    binary of ``a + 1`` is a prefix of the binary of ``i + 1``."""
    up = level(i) - level(a)
    return up >= 0 and (i + 1) >> up == a + 1


def is_valid_partition(leaves, depth: int) -> bool:
    """True when every member lies in the depth-``depth`` tree, no member is
    an ancestor of another and the member subtrees cover the leaf set
    exactly once."""
    members = list(leaves)
    if any(not 0 <= p < node_count(depth) for p in members):
        return False
    for i, p in enumerate(members):
        for q in members[i + 1:]:
            if is_ancestor(p, q) or is_ancestor(q, p):
                return False
    return sum(1 << (depth - level(p)) for p in members) == (1 << depth)


def locate_leaf(lrn, x_ext) -> int:
    """Heap index of the depth-d cell of fixed tree ``lrn`` containing
    ``x_ext``: every gate in one product of the hyperplanes alone, walked
    as Python floats."""
    gates = lrn.theta.dot(np.asarray(x_ext, dtype=float)).tolist()
    i = 0
    for _ in range(lrn.depth):
        i = 2 * i + 1 if gates[i] < 0.0 else 2 * i + 2
    return i


def kernel_values(gkr, x) -> np.ndarray:
    """Kernel value of every centre of ``gkr`` at the raw input ``x``: the
    last entry of each centre's block of its feature row, ``k * 1``."""
    row = gkr.features(np.append(np.asarray(x, dtype=float), 1.0)[None])[0]
    return row.reshape(len(gkr.centers), -1)[:, -1]


def vf_features(x) -> np.ndarray:
    """Quadratic polynomial feature expansion of a raw input vector, one
    feature at a time: 1, every component and every distinct product of
    two components (``i <= j``)."""
    x = np.asarray(x, dtype=float)
    feats = [1.0]
    feats.extend(x)
    for i, j in combinations_with_replacement(range(x.size), 2):
        feats.append(x[i] * x[j])
    return np.array(feats)


def cholesky_kernel(centers, var, x):
    """``(whiten, norms, kernel)`` of a Gaussian-kernel mixture with the
    covariance ``var * I`` at every centre, at the raw input ``x``, built
    through the Cholesky factor ``L`` of each covariance: the block
    ``[L^-1 | -L^-1 c]`` of every centre stacked into one matrix, and
    ``1 / (2 pi)`` over the product of the diagonal of ``L``."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    p, m = centers.shape
    chol = np.linalg.cholesky(np.stack([float(var) * np.eye(m)] * p))
    inv_chol = np.linalg.inv(chol)
    blocks = np.concatenate([inv_chol, -np.matmul(inv_chol, centers[:, :, None])], axis=2)
    whiten = blocks.reshape(p * m, m + 1)
    norms = 1.0 / (2.0 * np.pi * chol.diagonal(axis1=1, axis2=2).prod(axis=1))
    r = whiten.dot(np.append(np.asarray(x, dtype=float), 1.0))
    kernel = norms * np.exp((np.repeat(np.eye(p), m, axis=1) * -0.5).dot(r * r))
    return whiten, norms, kernel


def reference_kernel_step(v, centers, var, mu, x_ext, d_t) -> float:
    """One predict-and-update step of a Gaussian-kernel mixture with
    regressors ``v`` (one row of ``m + 1`` per centre, updated in place):
    the prediction ``f . (v . x_ext)`` over ``cholesky_kernel``'s kernel
    values ``f``, then the rank-1 step ``v += (mu e f) x_ext^T``.  Returns
    the prediction."""
    x_ext = np.asarray(x_ext, dtype=float)
    f = cholesky_kernel(centers, var, x_ext[:-1])[2]
    y_hat = float(f.dot(v.dot(x_ext)))
    v += ((mu * (d_t - y_hat)) * f)[:, None].dot(x_ext[None, :])
    return y_hat


def _set(key, value):
    def mutate(state):
        state[key] = copy.deepcopy(value)
        return state
    return mutate


def _drop(key):
    def mutate(state):
        del state[key]
        return state
    return mutate


def _map(key, fn):
    def mutate(state):
        state[key] = fn(state[key])
        return state
    return mutate


def _entry(key, i, value):
    def mutate(state):
        state[key][i] = copy.deepcopy(value)
        return state
    return mutate


def _widen(entry):
    """One more column: a number becomes a row of one, a row grows by 0.0."""
    return entry + [0.0] if isinstance(entry, list) else [entry]


def _array_cases(key, row):
    """The faults of one heap-ordered array: ``row(x)`` builds an entry of
    it (a number for ``w``, a row of three numbers for ``v`` and ``theta``)."""
    return [
        (f"{key}-missing", _drop(key)),
        (f"{key}-object", _map(key, lambda rows: dict(enumerate(rows)))),
        (f"{key}-short", _map(key, lambda rows: rows[:-1])),
        (f"{key}-non-numeric", _entry(key, 1, row("x"))),
        (f"{key}-null-entry", _entry(key, 1, row(None))),
        (f"{key}-ragged", _entry(key, 1, [0.0, 0.0])),
        (f"{key}-wrong-shape", _map(key, lambda rows: [_widen(r) for r in rows])),
        (f"{key}-non-finite", _entry(key, 2, row(math.inf))),
        (f"{key}-nan", _entry(key, 0, row(math.nan))),
        # numpy would read [true, 0.5] as [1.0, 0.5]
        (f"{key}-bool", _entry(key, 1, row(True))),
    ]


# (case id, mutation): each mutation takes a valid state_snapshot() of a
# depth-2, dim-2 tree learner, fixed or adaptive, as a fresh object, and
# returns a state that load_state must refuse
MALFORMED_STATES = [
    ("state-list", lambda state: []),
    ("state-string", lambda state: "x"),
    # a state holds no depth: one of another depth has other shapes
    ("depth-wrong", lambda state: FixedTreeRegressor(3, 2).state_snapshot()),
    ("t-missing", _drop("t")),
    ("t-zero", _set("t", 0)),
    ("t-float", _set("t", 2.0)),
    ("t-bool", _set("t", True)),
    *_array_cases("w", lambda x: x),
    *_array_cases("v", lambda x: [0.0, x, 0.0]),
    ("v-object-row", _entry("v", 1, {"0": 0.0, "1": 0.0, "2": 0.0})),
    *_array_cases("theta", lambda x: [x, 0.0, 0.0]),
]


@lru_cache(maxsize=None)
def subtree_matrix(n):
    """(n, n) matrix whose entry [a, i] is 1.0 when heap node i lies in the
    subtree of a, a included: the binary of ``a + 1`` is a prefix of the
    binary of ``i + 1``.  Built once per size, read-only."""
    table = np.array([[float(is_ancestor(a, i)) for i in range(n)] for a in range(n)])
    table.setflags(write=False)
    return table


def reference_step(lrn, x, d):
    """One predict-and-update step of a fixed or adaptive tree learner,
    computed from its state without touching it: returns ``(y_hat, w, v,
    theta)``, the new state, ``theta`` unmoved for the fixed tree."""
    mu = lrn.mu
    rho = rho_table(lrn.depth).astype(float)
    w, v = lrn.w.copy(), lrn.v.copy()
    # the gate products are rows of one product of all the rows with the
    # input, as every tree learner forms them: a depth-1 tree's lone
    # hyperplane row, multiplied alone, can differ in the last bit
    gates = (np.vstack([lrn.v, lrn.theta]) @ x)[lrn.n_nodes:]
    if isinstance(lrn, FixedTreeRegressor):
        i, path = 0, [0]
        for _ in range(lrn.depth):
            i = 2 * i + 1 if gates[i] < 0.0 else 2 * i + 2
            path.append(i)
        estimates = lrn.v[path] @ x
        y_hat = float(estimates @ (rho[path] @ lrn.w))
        e = d - y_hat
        v[path] += mu * e * x
        w[path] += mu * e * estimates
        return y_hat, w, v, lrn.theta.copy()
    s_plus = lrn.s_plus
    u = expit(-gates)
    s = np.clip(s_plus + (1.0 - 2.0 * s_plus) * u, s_plus, 1.0 - s_plus)
    alphas = np.ones(lrn.n_nodes)
    for i in range(lrn.n_internal):
        alphas[2 * i + 1] = alphas[i] * s[i]
        alphas[2 * i + 2] = alphas[i] * (1.0 - s[i])
    h = alphas * (lrn.v @ x)
    kappas = rho @ lrn.w
    y_hat = float(kappas @ h)
    e = d - y_hat
    v += mu * e * alphas[:, None] * x
    w += mu * e * h
    sub = subtree_matrix(lrn.n_nodes) @ (kappas * h)
    sigma = sub[1::2] / s - sub[2::2] / (1.0 - s)
    factors = np.clip(sigma * (1.0 - 2.0 * s_plus) * u * (1.0 - u), -lrn.step_cap, lrn.step_cap)
    eta = mu / (s_plus * (1.0 - s_plus))
    theta = lrn.theta - eta * e * factors[:, None] * x
    return y_hat, w, v, theta


def row_ancestors(depth):
    """(n_nodes, depth) ancestor table, node-major: row ``i`` holds the
    root -> ``i`` path below the root, left-padded with the root 0; the
    ancestor ``k`` levels above ``i`` is ``((i + 1) >> k) - 1``."""
    one_based = np.arange(1, node_count(depth) + 1)
    shifts = np.arange(depth - 1, -1, -1)
    return np.maximum((one_based[:, None] >> shifts) - 1, 0).astype(np.intp)


def reference_dot_step(lrn, x, d):
    """One predict-and-update step of a fixed or adaptive tree learner in
    the ``.dot`` form it had before the level-major ancestor table,
    computed from its state without touching it: returns ``(y_hat, w, v,
    theta)``, the new state, ``theta`` unmoved for the fixed tree.  The hard
    path is walked on the booleans of ``gates < 0.0``, and the adaptive
    tree's activations are a product along node-major ancestor rows.  Both
    read the gate products from one product of all the rows with the
    input, as the learners do."""
    mu = lrn.mu
    n = lrn.n_nodes
    rho = rho_table(lrn.depth).astype(float)
    w, v = lrn.w.copy(), lrn.v.copy()
    x = np.asarray(x, dtype=float)
    gates = np.vstack([v, lrn.theta]).dot(x)[n:]
    if isinstance(lrn, FixedTreeRegressor):
        negative = (gates < 0.0).tolist()
        i = 0
        for _ in range(lrn.depth):
            i = 2 * i + 1 if negative[i] else 2 * i + 2
        path = np.zeros(lrn.depth + 1, dtype=np.intp)
        path[1:] = row_ancestors(lrn.depth)[i]
        estimates = v.take(path, axis=0).dot(x)
        y_hat = float(estimates.dot(rho[path].dot(w)))
        step = mu * (d - y_hat)
        np.add.at(v, path, step * x)
        w[path] += step * estimates
        return y_hat, w, v, lrn.theta.copy()
    s_plus = lrn.s_plus
    u = expit(-gates)
    f = np.empty(n)
    f[0] = 1.0
    s = f[1::2]
    np.minimum(s_plus + (1.0 - 2.0 * s_plus) * u, 1.0 - s_plus, out=s)
    np.subtract(1.0, s, out=f[2::2])
    alphas = f[row_ancestors(lrn.depth)].prod(axis=1)
    estimates = v.dot(x)
    h = alphas * estimates
    kappas = rho.dot(w)
    y_hat = float(kappas.dot(h))
    e = d - y_hat
    step = mu * e
    v += (step * alphas)[:, None].dot(x[None, :])
    w += step * h
    sub = subtree_matrix(n).dot(kappas * h)
    q = sub[1:] / f[1:]
    factors = (q[0::2] - q[1::2]) * ((1.0 - 2.0 * s_plus) * u * (1.0 - u))
    cap = 10.0 * s_plus * (1.0 - s_plus)
    np.minimum(factors, cap, out=factors)
    np.maximum(factors, -cap, out=factors)
    eta = mu / (s_plus * (1.0 - s_plus))
    theta = lrn.theta - (factors * (eta * e))[:, None].dot(x[None, :])
    return y_hat, w, v, theta


def loop_membership(partitions, n_nodes):
    """(n_partitions, n_nodes) 0/1 matrix filled one member at a time,
    column-major as the oracle's: a product with it sums in the oracle's
    order, so the references below give the oracle's bits."""
    m = np.zeros((len(partitions), n_nodes), order="F")
    for k, part in enumerate(partitions):
        for p in part:
            m[k, p] = 1.0
    return m


def reference_mixture_step(lrn, x, d):
    """One predict-and-update step of the explicit mixture in plain ``@``,
    broadcasting and a numpy-scalar activation loop, computed from its
    state without touching it: returns ``(y_hat, w_vec, v, theta)``, the
    new state, ``theta`` unmoved in hard mode.  The membership matrix and the
    span masks are rebuilt here, not read from the learner."""
    membership = loop_membership(lrn.partitions, lrn.n_nodes)
    mu = lrn.mu
    w_vec, v = lrn.w_vec.copy(), lrn.v.copy()
    # the gate products are rows of one product of all the rows with the
    # input, as every tree learner forms them: a depth-1 tree's lone
    # hyperplane row, multiplied alone, can differ in the last bit
    gates = (np.vstack([lrn.v, lrn.theta]) @ x)[lrn.n_nodes:]
    if lrn.mode == "hard":
        path = np.empty(lrn.depth + 1, dtype=np.intp)
        i = 0
        for k in range(lrn.depth):
            path[k] = i
            i = 2 * i + 1 if float(gates[i]) < 0.0 else 2 * i + 2
        path[lrn.depth] = i
        h = np.zeros(lrn.n_nodes)
        h[path] = lrn.v[path] @ x
        d_vec = membership @ h
        y_hat = float(lrn.w_vec @ d_vec)
        e = d - y_hat
        v[path] += (mu * e) * x
        w_vec += (mu * e) * d_vec
        return y_hat, w_vec, v, lrn.theta.copy()
    s_plus = lrn.s_plus
    u = expit(-gates)
    s = np.clip(s_plus + (1.0 - 2.0 * s_plus) * u, s_plus, 1.0 - s_plus)
    alphas = np.empty(lrn.n_nodes)
    alphas[0] = 1.0
    for i in range(lrn.n_internal):
        alphas[2 * i + 1] = alphas[i] * s[i]
        alphas[2 * i + 2] = alphas[i] * (1.0 - s[i])
    h = alphas * (lrn.v @ x)
    d_vec = membership @ h
    y_hat = float(lrn.w_vec @ d_vec)
    e = d - y_hat
    v += (mu * e) * alphas[:, None] * x
    subtrees = subtree_matrix(lrn.n_nodes)
    span0, span1 = subtrees[1::2].copy(), subtrees[2::2].copy()
    c_h = (lrn.w_vec @ membership) * h
    sigma = (span0 @ c_h) / s - (span1 @ c_h) / (1.0 - s)
    factors = sigma * ((1.0 - 2.0 * s_plus) * u * (1.0 - u))
    cap = 10.0 * s_plus * (1.0 - s_plus)
    np.clip(factors, -cap, cap, out=factors)
    eta = mu / (s_plus * (1.0 - s_plus))
    theta = lrn.theta - (eta * e) * factors[:, None] * x
    w_vec += (mu * e) * d_vec
    return y_hat, w_vec, v, theta
