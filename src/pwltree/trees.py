"""Node addresses and partition combinatorics of complete binary trees.

A node of a depth-``d`` tree is addressed by its heap (level-order)
index: the root is 0 and the children of ``i`` are ``2i + 1`` and
``2i + 2``.  The paper names node ``i`` by a bit string, where appending
``0`` selects the lower child and ``1`` the upper one; that string is
``i + 1`` written in binary without its leading 1, so ancestor and
subtree tests are bit shifts of ``i + 1``.

A *partition* is a set of nodes whose subtrees tile the depth-``d`` leaf
set exactly once.  A depth-``d`` tree represents ``beta(d)`` partitions,
with ``beta(0) = 1`` and ``beta(j+1) = beta(j)**2 + 1`` (doubly
exponential growth).  ``gamma`` and ``rho`` count partition memberships;
a pair's count depends only on the levels of the two nodes and of their
deepest common ancestor; the counts are exact Python ints at every depth.
``rho_table`` holds ``rho`` over every node pair for the learners' kappa
products, gathered from the exact counts of those level triples, and
``enumerate_partitions`` is the brute-force ground truth used to validate
them.  ``_heap_tables`` builds the node tables of one depth on first use
and caches them, so importing the package builds none.

Every learner is built one way, from the classes here.  ``Learner``
holds the one ``step`` of the sequential protocol every learner in the
package follows and its ``features`` map of a whole stream.
``TreeBase`` is the one base of the three tree learners, the fixed tree,
the adaptive tree and the explicit mixture: it checks the depth against
its class's cap, the dimension and the step size, and holds the node
counts and the one array of rows a step moves along the input: the
per-node regressors ``v`` and, below them on a gated learner, the
hyperplanes ``theta``.  ``TreeLearner`` adds the node
weights, step counter, work counters and heap-ordered snapshot format of
the two collapsed learners.  ``_SoftGates`` is the gate kernel both soft
learners, the adaptive tree and the explicit mixture's soft mode, call:
their gates, activation cascade, boundary-step factors and the capped
step of their rows are written once, here, as is the hard gates' walk,
``_hard_leaf``, of the fixed tree and the mixture's hard mode.  The
kernel gathers every branch factor in one ``take`` through a
``_branch_index`` table and writes each step into two buffers it owns,
through views made once, so a step is at most 31 numpy calls on the
adaptive tree and 32 on the soft mixture.
``_SoftTail`` is what the two soft learners share around that kernel:
the gate clamp's check, the kernel's build, ``step_cap`` and
``update_boundaries``; ``SoftPrediction`` declares the fields of a
prediction pass that the kernel reads.  A soft learner's step is one
product of its rows with the input, whose gate part the cascade takes,
and one rank-1 step of all its rows, regressors and hyperplanes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

# The deepest tree whose int64 rho_table is built, and so the deepest tree
# the collapsed learners run.  Its counts overflow int64 from depth 7
# (gamma(7, 7) is about 1.7e22); deeper tables need float entries rounded
# from the exact counts.
MAX_TABLE_DEPTH = 5


def level(i: int) -> int:
    """Level of heap node ``i``: its distance from the root, 0 at the root."""
    return (i + 1).bit_length() - 1


def node_count(depth: int) -> int:
    """|N_d| = 2**(d+1) - 1 nodes in a complete depth-``d`` tree."""
    return (1 << (depth + 1)) - 1


def _integer(value, name: str, low: int | None = None, error=ValueError) -> int:
    """``value`` as an int when it is an integer (numpy's included) and, if
    ``low`` is given, at least ``low``; anything else, booleans and
    integral floats included, raises ``error`` (a ValueError subclass)
    naming ``name``: ``name must be an integer, got value`` or ``name must
    be >= low, got value``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return int(value)


def _real(value, name: str, test, want: str, error=ValueError) -> float:
    """``value`` as a float when it is a real number (numpy's included)
    whose float passes ``test``; anything else, booleans, strings and
    integers too large for a float included, raises ``error`` (a
    ValueError subclass) saying that ``name`` must ``want``."""
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            number = float(value)
        except OverflowError:
            pass
        else:
            if test(number):
                return number
    raise error(f"{name} must {want}, got {value!r}")


def _step_size(mu) -> float:
    """``mu`` as a float when it is a usable step size: a finite number > 0
    (numpy's included); anything else, functions included, raises ValueError."""
    return _real(mu, "mu", lambda mu: 0 < mu < math.inf, "be a finite number > 0")


def _hyperplanes(planes, n_internal: int, dim: int, name: str) -> np.ndarray:
    """``planes`` as a fresh float array, one finite row of ``dim + 1``
    numbers per internal node, booleans and strings excluded; anything
    else raises ValueError naming ``name``.  A depth-0 tree's ``[]``, no
    row at all, has the shape ``(0, dim + 1)``."""
    if n_internal == 0 and isinstance(planes, list) and not planes:
        return np.empty((0, dim + 1))
    planes = _numeric(planes, (n_internal, dim + 1))
    if planes is None:
        raise ValueError(f"{name} must have shape ({n_internal}, {dim + 1}) and hold only numbers")
    if not np.isfinite(planes).all():
        raise ValueError(f"{name} must be finite")
    return planes


def _gate_clamp(s_plus) -> float:
    """``s_plus`` as a float when it is a usable gate clamp: a real number
    (numpy's included) in ``(0, 0.5)``; anything else, NaN included,
    raises ValueError."""
    return _real(s_plus, "s_plus", lambda s: 0 < s < 0.5, "lie in (0, 0.5)")


@lru_cache(maxsize=None)
def _heap_tables(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ancestor, descendant, common-level and branch-index tables of the
    depth-``depth`` heap, built once per depth on first use and cached,
    read-only and C-contiguous.

    The ancestor table is level-major: column ``i`` lists the nodes of the
    root -> ``i`` path below the root, bottom-aligned (the last row is
    ``i`` itself) and top-padded with the root index 0, so a product over
    each node's path runs down contiguous rows.  Entry ``[a, i]`` of the
    descendant table is 1.0 when ``i`` lies in the subtree of ``a``,
    ``a`` included.  Entry ``[p, q]`` of the common-level table is the
    level of the deepest common ancestor of ``p`` and ``q``, so its
    diagonal holds the node levels.  The branch-index table is the
    ``_branch_index`` of the ancestor table.  Node ``i`` sits at level
    ``floor(log2(i + 1))`` and its ancestor ``k`` levels up is
    ``((i + 1) >> k) - 1``.
    """
    one_based = np.arange(1, node_count(depth) + 1)
    shifts = np.arange(depth - 1, -1, -1)
    ancestors = np.maximum((one_based >> shifts[:, None]) - 1, 0).astype(np.intp)
    levels = np.frexp(one_based)[1] - 1
    # cut both bit strings to their common length; the bit length (np.frexp's
    # exponent) of the XOR of the cuts is how far above it the ancestor sits
    common = np.minimum.outer(levels, levels)
    cut = one_based[:, None] >> (levels[:, None] - common)
    common_levels = common - np.frexp(cut ^ cut.T)[1]
    # i lies in the subtree of a when a is their deepest common ancestor
    descendants = (common_levels == levels[:, None]).astype(float)
    for table in (ancestors, descendants, common_levels):
        table.setflags(write=False)
    return ancestors, descendants, common_levels, _branch_index(ancestors)


def _branch_index(ancestors: np.ndarray) -> np.ndarray:
    """Index of every entry ``a`` of a level-major ancestor table into the
    gate kernel's branch buffer ``[s | 1 - s | 1.0]`` of the ``k =
    n_nodes // 2`` clamped gate values ``s``, so that one ``take`` gathers
    the branch factor of every entry: ``j`` at the lower child ``2j + 1``
    of gate ``j`` (``s``), ``k + j`` at its upper child ``2j + 2`` (``1 -
    s``) and ``2k`` at the root padding (1.0).  Read-only, C-contiguous."""
    ancestors = np.asarray(ancestors, dtype=np.intp)
    k = ancestors.shape[1] // 2
    upper = 1 - ancestors % 2
    index = np.where(ancestors == 0, 2 * k, ((ancestors - 1) >> 1) + k * upper)
    index.setflags(write=False)
    return index


def _hard_leaf(boundaries, x, depth: int) -> int:
    """Heap index of the leaf the hard gates ``boundaries`` route ``x`` to:
    all gates in one product, walked as Python floats (no comparison ufunc);
    a point strictly below a plane goes to child ``2i + 1``, else ``2i + 2``."""
    gates = boundaries.dot(x).tolist()
    i = 0
    for _ in range(depth):
        i = 2 * i + 1 if gates[i] < 0.0 else 2 * i + 2
    return i


class _SoftGates:
    """The gate kernel both soft learners call: the cascade from the
    hyperplanes' products with the input to every node's activation, each
    gate's boundary-step factor and the one rank-1 step of the regressors
    and the capped hyperplanes, for one gate clamp ``s_plus`` and one
    tree.  ``index`` is the ``_branch_index`` of the tree's level-major
    ancestor table and ``below`` its root-less descendant rows (row ``i -
    1`` marks the subtree of node ``i``, so the two child subtrees of gate
    ``j`` are rows ``2j`` and ``2j + 1``).  The clamp's constants, and the
    step's two scalar factors, are 0-d arrays, which numpy takes with less
    dispatch than Python floats and with the same bits.

    The kernel owns two buffers that every step writes in place: the
    branch buffer ``[s | 1 - s | 1.0]`` the cascade gathers from, and the
    ``n_nodes + n_internal`` moves of the rank-1 step.  Their views are
    made once, when the kernel is built, and again when it is copied or
    unpickled, so no step slices either buffer; nothing a step returns is
    a view of them.  A step's kernel calls are 8 in ``cascade`` (of the
    13 in a soft ``predict``), 7 in ``factors`` and 8 in ``step``."""

    def __init__(self, s_plus: float, index, below):
        self.index, self.below = index, below
        cap = 10.0 * s_plus * (1.0 - s_plus)
        self.low, self.rise, self.high, self.cap, self.neg_cap, self.one = map(
            np.array, (s_plus, 1.0 - 2.0 * s_plus, 1.0 - s_plus, cap, -cap, 1.0))
        self.spread = s_plus * (1.0 - s_plus)
        # the step's scalar factors mu e and -eta e, written in place on every step
        self.gain, self.drift = np.zeros(()), np.zeros(())
        n = index.shape[1]
        self._branch = np.ones(n)  # [s | 1 - s | 1.0]: 2k + 1 = n_nodes entries
        self._moves = np.zeros(n + n // 2)  # mu e alphas, then -eta e factors
        self._views()

    def _views(self) -> None:
        """Make the views of the two buffers: the gate values ``s`` and
        ``1 - s`` of the branch buffer, the regressor and hyperplane parts
        of the moves and the moves as one column."""
        k = len(self._branch) // 2
        self._s, self._rest = self._branch[:k], self._branch[k:2 * k]
        n = len(self._moves) - k
        self._head, self._tail = self._moves[:n], self._moves[n:]
        self._column = self._moves[:, None]

    def __getstate__(self) -> dict:
        # a copy's views must be views of the copy's own buffers
        return {name: value for name, value in self.__dict__.items()
                if name not in ("_s", "_rest", "_head", "_tail", "_column")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._views()

    def cascade(self, planes_x) -> tuple:
        """``(u, cu, f, alphas)`` for the products ``planes_x`` of the
        hyperplanes with the input: the unclamped gate values, each gate's
        rise ``(1 - 2 s_plus) u`` above ``s_plus`` before the clamp, every
        node's branch factor and every node's activation, the product of
        the branch factors down the contiguous rows of one gather from the
        branch buffer."""
        u = expit(-planes_x)
        cu = self.rise * u
        s = self._s
        # only the upper clamp can bind: fl(s_plus + c u) >= s_plus for c u >= 0
        np.add(self.low, cu, out=s)
        np.minimum(s, self.high, out=s)
        np.subtract(self.one, s, out=self._rest)
        factors = self._branch.take(self.index)
        alphas = np.multiply.reduce(factors, axis=0)
        # the bottom row holds each node's own; without gates (depth 0), f is alphas = [1.0]
        return u, cu, factors[-1] if len(factors) else alphas, alphas

    def factors(self, g, pred) -> np.ndarray:
        """Scalar factor of each gate's boundary step, before the cap: the
        node weights ``g`` times the weighted node estimates ``pred.h``,
        summed under each child subtree, each sum over its branch factor,
        differenced, times the gate derivative."""
        q = self.below.dot(g * pred.h) / pred.f[1:]
        return (q[0::2] - q[1::2]) * (pred.cu * (self.one - pred.u))

    def step(self, rows, alphas, factors, x, e: float, mu: float) -> None:
        """Clip ``factors`` to the step cap ``10 s_plus (1 - s_plus)`` in
        place, then step ``rows``, the node regressors and below them the
        hyperplanes, in place by one rank-1 product: ``mu e alphas x`` on
        the regressors and ``-eta e factors x`` on the hyperplanes, with
        ``eta = mu / (s_plus (1 - s_plus))``.  The two scalar factors go
        through 0-d arrays; ``theta + (-a)`` has the bits of ``theta - a``."""
        np.minimum(factors, self.cap, out=factors)
        np.maximum(factors, self.neg_cap, out=factors)
        self.gain[()] = mu * e
        self.drift[()] = -(mu / self.spread * e)
        np.multiply(alphas, self.gain, out=self._head)
        np.multiply(factors, self.drift, out=self._tail)
        rows += self._column.dot(x[None, :])


@dataclass
class SoftPrediction:
    """The fields of one prediction pass that the soft-gate kernel reads,
    declared once for both soft learners' predictions.  ``x`` is the input
    as the float array the step reads and ``alphas`` every node's
    activation.  ``h`` holds the activation-weighted node estimates, ``f``
    every node's branch factor (1.0 at the root, then the clamped gate
    value ``s`` of each internal node at its lower child and ``1 - s`` at
    its upper one), ``u`` the unclamped gate values and ``cu``, ``(1 - 2
    s_plus) u``, each gate's rise above ``s_plus`` before the clamp, which
    the boundary step reuses.  A pass without soft gates (the explicit
    mixture's hard mode) sets the last four to None.  Subclasses add
    their own fields after these; every field is passed by position,
    which is cheaper than by keyword."""

    y_hat: float
    x: np.ndarray
    alphas: np.ndarray
    h: np.ndarray | None
    f: np.ndarray | None
    u: np.ndarray | None
    cu: np.ndarray | None

    @property
    def s(self) -> np.ndarray | None:
        """Clamped gate value of every internal node (None without soft gates)."""
        return None if self.f is None else self.f[1::2]


class _SoftTail:
    """The tail both soft learners share, the adaptive tree and the
    explicit mixture's soft mode: the gate clamp ``s_plus`` and its check,
    the gate kernel built on the learner's own tables, the step cap and
    the one step of the regressors and the capped hyperplanes.  A learner
    with this tail keeps its hyperplanes in ``theta``, below its
    regressors in the tree base's array of rows, and defines
    ``boundary_factors(pred)``, which ``update_boundaries`` reaches through
    the instance."""

    def _soft_gates(self, s_plus, tables=None) -> None:
        """Keep the gate clamp ``s_plus`` once it passes its check and, given
        a tree's ``(index, below)`` tables (see ``_SoftGates``), the gate
        kernel on them."""
        self.s_plus = _gate_clamp(s_plus)
        if tables is not None:
            self._gates = _SoftGates(self.s_plus, *tables)

    @property
    def step_cap(self) -> float:
        """Bound on the magnitude of each boundary step's scalar factor."""
        return 10.0 * self.s_plus * (1.0 - self.s_plus)

    def update_boundaries(self, x_ext, e: float, pred: SoftPrediction) -> None:
        """Gradient step on every node regressor and every internal
        hyperplane, one rank-1 step of the learner's rows along the input,
        with each hyperplane's scalar factor clipped to ``step_cap``; the
        input is read from ``pred.x``, the one ``predict`` was given as
        ``x_ext``."""
        self._gates.step(self._rows, pred.alphas, self.boundary_factors(pred), pred.x, e,
                         self.mu)


class Learner:
    """The sequential protocol every learner follows: ``predict`` from the
    current state, then ``update`` once the target is revealed.  Subclasses
    implement both; ``update(x_ext, d_t, pred)`` reads the prediction
    object, whose ``y_hat`` is the prediction.  All three read a *row*: one
    row of ``features``, the map a runner applies to a whole stream of
    extended inputs once, before its first step."""

    def features(self, x_ext):
        """One row per extended input of the stream ``x_ext``: ``x_ext`` itself."""
        return x_ext

    def step(self, x_ext, d_t: float) -> tuple[float, float]:
        """Predict, then learn from the revealed target; returns the
        prediction made before seeing it and the resulting error."""
        pred = self.predict(x_ext)
        self.update(x_ext, d_t, pred)
        return pred.y_hat, d_t - pred.y_hat


class TreeBase(Learner):
    """A learner over the nodes of a complete binary tree no deeper than
    its class's ``max_depth``: the collapsed learners' ``MAX_TABLE_DEPTH``
    or the explicit mixture's ``MAX_ENUMERATION_DEPTH``.

    It checks the depth, dimension and step size, one message each, and
    holds what every tree learner reads of its tree: ``n_nodes``,
    ``n_internal`` and one affine regressor ``v`` per node.  How the
    nodes combine is a subclass's own: the collapsed learners' node
    weights and ``rho`` table (:class:`TreeLearner`), the explicit
    mixture's partition weights, membership matrix, span masks and
    ancestor table.

    Every row a step moves along the input lives in one C-contiguous
    array, allocated here once: the ``n_nodes`` regressors, then, for a
    learner that is ``gated`` (one with trained hyperplanes), the
    ``n_internal`` hyperplanes.  ``v`` and ``theta`` are views of it,
    made afresh on each access, so a copy of a learner reads its own
    array; assigning either copies the value into the array, and a value
    of any other shape raises ValueError and changes nothing.  The soft
    learners form every row's product with the input in one product, in
    which a depth-1 tree's one hyperplane row is a matrix-vector row and
    not the dot product it was alone, which can differ in the last bit.
    """

    gated = False

    def __init__(self, depth, dim, mu):
        depth = _integer(depth, "depth")
        if not 0 <= depth <= self.max_depth:
            raise ValueError(f"depth must be in [0, {self.max_depth}], got {depth}")
        self.depth = depth
        self.dim = dim = _integer(dim, "dim", 1)
        self.mu = _step_size(mu)
        self.n_nodes = node_count(depth)
        self.n_internal = (1 << depth) - 1
        self._rows = np.zeros((self.n_nodes + self.n_internal * self.gated, dim + 1))
        # the scalar step factor mu e, written in place on every step
        self._gain = np.zeros(())

    @property
    def v(self) -> np.ndarray:
        """The node regressors, one row of ``dim + 1`` per node in heap order."""
        return self._rows[:self.n_nodes]

    @v.setter
    def v(self, value) -> None:
        _assign(self.v, value, "v")

    @property
    def theta(self) -> np.ndarray:
        """The hyperplanes of a gated learner, one row of ``dim + 1`` per
        internal node in heap order; a learner without trained hyperplanes
        has none."""
        if not self.gated:
            raise AttributeError(f"{type(self).__name__} has no trained hyperplanes theta")
        return self._rows[self.n_nodes:]

    @theta.setter
    def theta(self, value) -> None:
        _assign(self.theta, value, "theta")


def _assign(rows: np.ndarray, value, name: str) -> None:
    """Copy ``value`` into the view ``rows`` when it has exactly their
    shape; otherwise raise ValueError naming ``name``, copying nothing."""
    value = np.asarray(value, dtype=float)
    if value.shape != rows.shape:
        raise ValueError(f"{name} must have shape {rows.shape}, got {value.shape}")
    rows[...] = value


class TreeLearner(TreeBase):
    """State and bookkeeping shared by the collapsed tree learners.

    The fixed and the adaptive tree hold one scalar weight ``w`` beside
    the base's regressor ``v`` per node, combine them through the ``rho``
    table, and differ only in their gates and updates.  This class adds
    what they share past the base: the weights, the step counter ``t``,
    the work counters and the snapshot format, in which ``t`` travels
    with the state.  Subclasses implement ``predict`` and ``update``;
    ``update`` advances ``t``.  A subclass with trained hyperplanes sets
    ``gated`` and keeps them in ``theta``, one row per internal node.
    """

    max_depth = MAX_TABLE_DEPTH

    def __init__(self, depth, dim, mu):
        super().__init__(depth, dim, mu)
        self.w = np.zeros(self.n_nodes)
        self.t = 1
        # per-run work counters
        self.regressor_evaluations = 0
        self.kappa_accumulations = 0

    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """JSON-ready state in heap order: ``{depth, t, w[n_nodes],
        v[n_nodes][dim + 1]}``, plus ``theta[n_internal][dim + 1]`` when
        gated."""
        state = {"depth": self.depth, "t": self.t, "w": self.w.tolist(), "v": self.v.tolist()}
        if self.gated:
            state["theta"] = self.theta.tolist()
        return state

    def load_state(self, state: dict) -> None:
        """Replace the state with a ``state_snapshot``; a refused snapshot
        leaves the learner unchanged.

        ``depth`` must be the learner's, as an integer, ``t`` an integer
        >= 1, and ``w``, ``v`` (and ``theta``, when gated) lists of finite
        numbers, booleans excluded, in exactly the shapes
        ``state_snapshot`` writes; anything else, including a ``state``
        that is not a dict, raises ValueError.
        """
        if not isinstance(state, dict):
            raise ValueError(f"snapshot state must be an object, got {type(state).__name__}")
        depth = _integer(state.get("depth"), "snapshot depth")
        if depth != self.depth:
            raise ValueError(f"snapshot depth {depth} does not match the learner's {self.depth}")
        t = _integer(state.get("t"), "snapshot step counter t", 1)
        width = self.dim + 1
        w = _snapshot_array(state, "w", (self.n_nodes,))
        v = _snapshot_array(state, "v", (self.n_nodes, width))
        if self.gated:
            self.theta = _snapshot_array(state, "theta", (self.n_internal, width))
        self.w, self.v, self.t = w, v, t


def _holds_bool(value) -> bool:
    """True when ``value`` is a boolean or a (nested) list holding one."""
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_))


def _numeric(value, shape: tuple | None = None) -> np.ndarray | None:
    """``value`` as a fresh float array, or None unless it holds only
    numbers, in exactly ``shape`` when one is given; a boolean is not a
    number, although numpy would turn ``[true, 0.5]`` into ``[1.0, 0.5]``."""
    try:
        array = np.array(value)
    except ValueError:  # ragged rows
        return None
    if array.dtype.kind not in "iuf" or shape not in (None, array.shape) or _holds_bool(value):
        return None
    return array.astype(float)


def _snapshot_array(state: dict, name: str, shape: tuple) -> np.ndarray:
    """``state[name]`` as a float array of exactly ``shape``, one entry per
    node in heap order, all finite; otherwise ValueError naming the array
    and, when one entry is at fault, the heap index of the first."""
    value = state.get(name)
    if not isinstance(value, list) or len(value) != shape[0]:
        got = (len(value) if isinstance(value, list)
               else "none" if value is None else type(value).__name__)
        raise ValueError(f"snapshot {name} must be a list of {shape[0]} node entries, got {got}")
    if not value:  # a depth-0 tree's theta: [] carries no row width to check
        return np.empty(shape)
    array = _numeric(value, shape)
    if array is None:
        entry = "a number" if len(shape) == 1 else f"a row of {shape[1]} numbers"
        i = next(i for i, row in enumerate(value) if _numeric(row, shape[1:]) is None)
        raise ValueError(f"snapshot {name} of node {i} is not {entry}: {value[i]!r}")
    bad = ~np.isfinite(array.reshape(shape[0], -1)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"snapshot {name} of node {i} is not finite: {value[i]!r}")
    return array


@lru_cache(maxsize=None)
def _beta(j: int) -> int:
    return 1 if j == 0 else _beta(j - 1) ** 2 + 1


def beta(j: int) -> int:
    """Number of partitions representable by a depth-``j`` tree, an exact
    Python int: beta(0) = 1, beta(j+1) = beta(j)**2 + 1.  ``j`` must be an
    integer >= 0 (numpy's included); anything else, booleans and integral
    floats included, raises ValueError naming the depth."""
    return _beta(_integer(j, "depth", 0))


def _gamma(depth: int, l: int) -> int:
    return math.prod(map(_beta, range(depth - l, depth)))


def gamma(depth: int, l: int) -> int:
    """Number of partitions of a depth-``depth`` tree in which a node at
    depth ``l`` is a leaf: product of beta(depth - j) for j = 1..l.  Both
    must be integers with ``0 <= l <= depth``; anything else raises
    ValueError."""
    depth, l = _integer(depth, "depth", 0), _integer(l, "node depth")
    if not 0 <= l <= depth:
        raise ValueError(f"node depth {l} out of range for tree depth {depth}")
    return _gamma(depth, l)


def _pair_count(depth: int, l_p: int, l_q: int, l_c: int) -> int:
    """Number of partitions of the depth-``depth`` tree holding two nodes
    at levels ``l_p`` and ``l_q``, whose deepest common ancestor lies at
    level ``l_c``, as leaves.

    It is gamma(depth, l_p) when the nodes coincide (all three levels
    equal), zero when one is an ancestor of the other (``l_c`` is the
    smaller level), and otherwise the exact integer quotient
    gamma(depth, l_p) * gamma(d', l_q - l_c - 1) / beta(d') with
    d' = depth - l_c - 1.
    """
    if l_c == l_p == l_q:
        return _gamma(depth, l_p)
    if l_c == min(l_p, l_q):
        return 0
    d_sub = depth - l_c - 1
    num = _gamma(depth, l_p) * _gamma(d_sub, l_q - l_c - 1)
    den = _beta(d_sub)
    if num % den:
        raise AssertionError(f"rho quotient not integral for levels {l_p}, {l_q} "
                             f"below level {l_c} at depth {depth}")
    return num // den


def rho(p: int, q: int, depth: int) -> int:
    """Number of partitions of the depth-``depth`` tree having both nodes
    ``p`` and ``q`` (heap indices) as leaves: ``_pair_count`` of the levels
    of ``p``, ``q`` and their deepest common ancestor.  Symmetric in ``p``
    and ``q``; the pairwise reference for ``rho_table``.
    """
    depth, p, q = _integer(depth, "depth", 0), _integer(p, "node p"), _integer(q, "node q")
    n = node_count(depth)
    if not (0 <= p < n and 0 <= q < n):
        raise ValueError(f"nodes {p}, {q} must lie in the depth-{depth} tree (0 to {n - 1})")
    lp, lq = level(p), level(q)
    # level of the deepest common ancestor: the bit strings' common prefix length
    common = min(lp, lq)
    lc = common - (((p + 1) >> (lp - common)) ^ ((q + 1) >> (lq - common))).bit_length()
    return _pair_count(depth, lp, lq, lc)


@lru_cache(maxsize=None, typed=True)
def rho_table(depth: int) -> np.ndarray:
    """Dense (n_nodes, n_nodes) int64 table of rho over heap indices.

    ``rho`` depends only on the levels of the two nodes and of their
    deepest common ancestor, so the table is gathered from the exact
    counts of the (depth + 1)**3 level triples, indexed at once by the
    levels of every pair, which the depth's common-level table holds.  It
    is built once per depth and cached read-only; learners share it for
    their per-step kappa products.  ``depth`` must be an integer in ``[0,
    MAX_TABLE_DEPTH]``; anything else raises ValueError naming it.
    """
    depth = _integer(depth, "depth", 0)
    if depth > MAX_TABLE_DEPTH:
        raise ValueError(f"rho_table is int64 and built only to depth {MAX_TABLE_DEPTH}, "
                         f"got depth {depth}")
    counts = np.zeros((depth + 1,) * 3, dtype=np.int64)
    for l_c in range(depth + 1):  # a common ancestor lies no deeper than either node
        for l_p in range(l_c, depth + 1):
            for l_q in range(l_c, depth + 1):
                counts[l_p, l_q, l_c] = _pair_count(depth, l_p, l_q, l_c)
    lc = _heap_tables(depth)[2]
    lv = lc.diagonal()
    table = counts[lv[:, None], lv[None, :], lc]
    table.setflags(write=False)
    return table


MAX_ENUMERATION_DEPTH = 4  # beta(4) = 677 partitions


def _check_enumeration_depth(depth: int) -> None:
    if depth > MAX_ENUMERATION_DEPTH:
        raise ValueError(f"enumeration refused beyond depth {MAX_ENUMERATION_DEPTH} "
                         "(beta grows doubly exponentially)")


def enumerate_partitions(depth: int) -> list[frozenset[int]]:
    """All beta(depth) partitions of the depth-``depth`` tree, as sets of heap indices.

    Recursion: partitions(node, r) = {node alone} plus the cross product of
    the two children's partitions with r - 1 remaining levels; the
    construction never produces duplicates.
    """
    _check_enumeration_depth(depth)

    def rec(i: int, remaining: int) -> list[frozenset[int]]:
        out = [frozenset((i,))]
        if remaining > 0:
            left = rec(2 * i + 1, remaining - 1)
            right = rec(2 * i + 2, remaining - 1)
            out.extend(a | b for a in left for b in right)
        return out

    return rec(0, depth)


def membership_matrix(depth: int) -> np.ndarray:
    """(beta(depth), n_nodes) 0/1 matrix: row k marks the leaves of
    ``enumerate_partitions(depth)[k]``.  Built bottom-up by the same
    recursion, one broadcast add per level, forming no partition set: a
    node's rows are itself, then each lower-child row plus each upper-child row.

    The matrix is column-major (F-contiguous): node ``i``'s memberships
    are one contiguous column of ``beta(depth)`` entries.  The root's rows
    are concatenated straight into that layout, so no copy follows."""
    _check_enumeration_depth(depth)
    eye = np.eye(node_count(depth))
    rows = eye[(1 << depth) - 1:, None]  # a leaf's one partition: itself
    for lev in range(depth - 1, -1, -1):
        kids = rows.reshape(1 << lev, 2, rows.shape[1], -1)  # siblings adjacent: lower, upper
        cross = (kids[:, 0, :, None] + kids[:, 1, None]).reshape(1 << lev, -1, len(eye))
        out = np.empty((1 << lev, len(cross[0]) + 1, len(eye)), order="F" if lev == 0 else "C")
        rows = np.concatenate([eye[(1 << lev) - 1:(2 << lev) - 1, None], cross], axis=1, out=out)
    return rows[0]
