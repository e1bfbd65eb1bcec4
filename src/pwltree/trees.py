"""Node labels and partition combinatorics of complete binary trees.

Nodes of a depth-``d`` tree are addressed by binary strings: the root is
the empty string, appending ``0`` selects the lower child and ``1`` the
upper child.  A label is packed as a ``(length, value)`` integer pair so
prefix and subtree tests are O(1).  In dense arrays nodes live at the heap
index ``2**length - 1 + value`` (level order: root, 0, 1, 00, 01, ...).

A *partition* is a set of labels whose subtrees tile the depth-``d`` leaf
set exactly once.  A depth-``d`` tree represents ``beta(d)`` partitions,
with ``beta(0) = 1`` and ``beta(j+1) = beta(j)**2 + 1`` (doubly
exponential growth).  ``gamma`` and ``rho`` count partition memberships,
``rho_table`` holds ``rho`` over every node pair for the learners' kappa
products, and ``enumerate_partitions`` is the brute-force ground truth used
to validate them.  ``TreeLearner`` holds the per-node state both collapsed
tree learners keep, and its snapshot format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

# beta(5) = 458330 still fits comfortably in 64-bit tables; past that the
# dense kappa tables dominate memory/time anyway.
MAX_TABLE_DEPTH = 5
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class NodeLabel:
    """Binary-string address of a tree node, packed as (length, value).

    ``value`` holds the bits with the first letter in the most significant
    position, so the root is ``NodeLabel(0, 0)`` and ``"01"`` is
    ``NodeLabel(2, 0b01)``.
    """

    length: int
    value: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("label length must be >= 0")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value {self.value} out of range for length {self.length}")

    @classmethod
    def from_string(cls, bits: str) -> "NodeLabel":
        if bits and set(bits) - {"0", "1"}:
            raise ValueError(f"label must be over {{0,1}}, got {bits!r}")
        return cls(len(bits), int(bits, 2) if bits else 0)

    @property
    def bits(self) -> str:
        """Bit string of the label; the root is the empty string."""
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __str__(self) -> str:
        return self.bits

    def __repr__(self) -> str:
        return f"NodeLabel({self.bits!r})"

    def __lt__(self, other: "NodeLabel") -> bool:
        return (self.length, self.value) < (other.length, other.value)

    @property
    def index(self) -> int:
        """Heap (level-order) index: root 0, children of ``i`` at 2i+1, 2i+2."""
        return (1 << self.length) - 1 + self.value

    def bit(self, i: int) -> int:
        """The ``i``-th letter (1-based, root side first)."""
        if not 1 <= i <= self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        return (self.value >> (self.length - i)) & 1

    def child(self, bit: int) -> "NodeLabel":
        return NodeLabel(self.length + 1, (self.value << 1) | (bit & 1))

    def parent(self) -> "NodeLabel":
        if self.length == 0:
            raise ValueError("the root has no parent")
        return NodeLabel(self.length - 1, self.value >> 1)

    def is_prefix_of(self, other: "NodeLabel") -> bool:
        if self.length > other.length:
            return False
        return (other.value >> (other.length - self.length)) == self.value


ROOT = NodeLabel(0, 0)


def label_from_index(index: int) -> NodeLabel:
    """Inverse of ``NodeLabel.index``."""
    if index < 0:
        raise ValueError("index must be >= 0")
    length = (index + 1).bit_length() - 1
    return NodeLabel(length, index - ((1 << length) - 1))


def node_count(depth: int) -> int:
    """|N_d| = 2**(d+1) - 1 nodes in a complete depth-``d`` tree."""
    return (1 << (depth + 1)) - 1


def _heap_tables(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Ancestor and descendant tables of the depth-``depth`` heap.

    Row ``i`` of the ancestor table lists the nodes of the root -> ``i``
    path below the root, right-aligned (the last column is ``i`` itself)
    and left-padded with the root index 0.  Entry ``[a, i]`` of the
    descendant table is 1.0 when ``i`` lies in the subtree of ``a``,
    ``a`` included.  Node ``i`` sits at level ``floor(log2(i + 1))`` and
    its ancestor ``k`` levels up is ``((i + 1) >> k) - 1``.
    """
    one_based = np.arange(1, node_count(depth) + 1)
    shifts = np.arange(depth - 1, -1, -1)
    ancestors = np.maximum((one_based[:, None] >> shifts) - 1, 0).astype(np.intp)
    levels = np.frexp(one_based)[1] - 1
    up = levels[None, :] - levels[:, None]
    below = (one_based[None, :] >> np.maximum(up, 0)) == one_based[:, None]
    descendants = ((up >= 0) & below).astype(float)
    for table in (ancestors, descendants):
        table.setflags(write=False)
    return ancestors, descendants


# Shared read-only tables of the deepest supported tree.  Heap indices of a
# depth-d tree are a prefix of these, so a depth-d learner uses
# ``ANCESTORS[:n, MAX_TABLE_DEPTH - d:]`` and ``DESCENDANTS[:n, :n]``.
ANCESTORS, DESCENDANTS = _heap_tables(MAX_TABLE_DEPTH)


def prefixes(p: NodeLabel) -> list[NodeLabel]:
    """All prefixes of ``p`` ordered root -> p (the root prefixes everything)."""
    return [NodeLabel(i, p.value >> (p.length - i)) for i in range(p.length + 1)]


class TreeLearner:
    """State and bookkeeping shared by the collapsed tree learners.

    Both learners hold one scalar weight ``w`` and one affine regressor
    ``v`` per node of a complete depth-``depth`` tree, combine them through
    the ``rho`` table, and differ only in their gates and updates.  This
    base owns what they share: the depth and dimension checks, the state
    arrays and step counter ``t``, the work counters, step-size schedules
    and the snapshot format, in which ``t`` travels with the state.
    Subclasses implement ``predict`` and ``update``; ``update`` advances
    ``t``.  A subclass with trained hyperplanes sets ``gated`` and keeps
    them in ``theta``, one row per internal node.
    """

    gated = False

    def __init__(self, depth, dim, mu):
        if not 0 <= depth <= MAX_TABLE_DEPTH:
            raise ValueError(f"depth must be in [0, {MAX_TABLE_DEPTH}]")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.depth = depth
        self.dim = dim
        self.mu = mu
        self.n_nodes = node_count(depth)
        self.n_internal = (1 << depth) - 1
        self.v = np.zeros((self.n_nodes, dim + 1))
        self.w = np.zeros(self.n_nodes)
        self.t = 1
        # per-run work counters
        self.regressor_evaluations = 0
        self.kappa_accumulations = 0

    def _hyperplanes(self, planes, name: str) -> np.ndarray:
        """``planes`` as a fresh float array, one finite row of ``dim + 1``
        numbers per internal node; anything else raises ValueError."""
        planes = np.array(planes, dtype=float)
        if planes.shape != (self.n_internal, self.dim + 1):
            raise ValueError(f"{name} must have shape ({self.n_internal}, {self.dim + 1})")
        if not np.isfinite(planes).all():
            raise ValueError(f"{name} must be finite")
        return planes

    def _at_t(self, schedule) -> float:
        """A step size: ``schedule`` itself, or its value at the 1-based
        step index when it is callable."""
        return float(schedule(self.t)) if callable(schedule) else float(schedule)

    def step(self, x_ext, d_t: float) -> tuple[float, float]:
        """Predict, then learn from the revealed target; returns the
        prediction made before seeing it and the resulting error."""
        pred = self.predict(x_ext)
        self.update(x_ext, d_t, pred)
        return pred.y_hat, d_t - pred.y_hat

    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """JSON-ready state: ``{depth, t, nodes: [{label, w, v[], theta[]?}]}``,
        with ``theta`` on the internal nodes of a gated learner only."""
        nodes = []
        for i in range(self.n_nodes):
            entry = {
                "label": label_from_index(i).bits,
                "w": float(self.w[i]),
                "v": [float(c) for c in self.v[i]],
            }
            if self.gated and i < self.n_internal:
                entry["theta"] = [float(c) for c in self.theta[i]]
            nodes.append(entry)
        return {"depth": self.depth, "t": self.t, "nodes": nodes}

    def load_state(self, state: dict) -> None:
        """Replace the state with a ``state_snapshot``; a refused snapshot
        leaves the learner unchanged.

        The labels must name every node of the tree exactly once, every
        ``w`` must be a finite number, every ``v`` row (and every internal
        node's ``theta`` row, when gated) must hold ``dim + 1`` finite
        numbers, leaves carry no ``theta``, and ``t`` must be an integer
        >= 1; anything else raises ValueError.
        """
        if state["depth"] != self.depth:
            raise ValueError("snapshot depth does not match learner")
        t = state.get("t")
        if isinstance(t, bool) or not isinstance(t, int) or t < 1:
            raise ValueError(f"snapshot step counter t must be an integer >= 1, got {t!r}")
        nodes = state["nodes"]
        if len(nodes) != self.n_nodes:
            raise ValueError("snapshot node count does not match learner")
        width = self.dim + 1
        w = np.empty(self.n_nodes)
        v = np.empty((self.n_nodes, width))
        theta = np.empty((self.n_internal, width)) if self.gated else None
        seen = np.zeros(self.n_nodes, dtype=bool)
        for entry in nodes:
            label = NodeLabel.from_string(entry["label"])
            if label.length > self.depth:
                raise ValueError(f"snapshot node {label.bits!r} is deeper than {self.depth}")
            i = label.index
            if seen[i]:
                raise ValueError(f"snapshot lists node {label.bits!r} twice")
            seen[i] = True
            w[i] = self._snapshot_row(entry, "w", ())
            v[i] = self._snapshot_row(entry, "v", (width,))
            if not self.gated:
                continue
            if i < self.n_internal:
                theta[i] = self._snapshot_row(entry, "theta", (width,))
            elif "theta" in entry:
                raise ValueError(f"leaf {entry['label']!r} must not carry a separator")
        self.w, self.v, self.t = w, v, t
        if self.gated:
            self.theta = theta

    @staticmethod
    def _snapshot_row(entry: dict, field: str, shape: tuple) -> np.ndarray:
        """``entry[field]`` as a float array of ``shape``, all finite."""
        row = np.array(entry[field], dtype=float)
        if row.shape != shape:
            raise ValueError(f"snapshot {field} of node {entry['label']!r} has shape "
                             f"{row.shape}, expected {shape}")
        if not np.isfinite(row).all():
            raise ValueError(f"snapshot {field} of node {entry['label']!r} is not finite: "
                             f"{entry[field]!r}")
        return row


@lru_cache(maxsize=None)
def beta(j: int) -> int:
    """Number of partitions representable by a depth-``j`` tree.

    beta(0) = 1, beta(j+1) = beta(j)**2 + 1.  Raises OverflowError once the
    value no longer fits a 64-bit signed integer (j >= 7).
    """
    if j < 0:
        raise ValueError("depth must be >= 0")
    if j == 0:
        return 1
    b = beta(j - 1) ** 2 + 1
    if b > _INT64_MAX:
        raise OverflowError(f"beta({j}) exceeds 64-bit integer range")
    return b


def gamma(depth: int, l: int) -> int:
    """Number of partitions of a depth-``depth`` tree in which a node at
    depth ``l`` is a leaf: product of beta(depth - j) for j = 1..l."""
    if not 0 <= l <= depth:
        raise ValueError(f"node depth {l} out of range for tree depth {depth}")
    out = 1
    for j in range(1, l + 1):
        out *= beta(depth - j)
    return out


def _longest_common_prefix(p: NodeLabel, q: NodeLabel) -> NodeLabel:
    n = min(p.length, q.length)
    a = p.value >> (p.length - n)
    b = q.value >> (q.length - n)
    x = a ^ b
    common = n - x.bit_length()
    return NodeLabel(common, a >> (n - common))


def rho(p: NodeLabel, q: NodeLabel, depth: int) -> int:
    """Number of partitions of the depth-``depth`` tree having both ``p``
    and ``q`` as leaves.

    Equals gamma(depth, l(p)) when p == q, zero when one is an
    ancestor of the other, and otherwise the exact integer quotient
    gamma(depth, l(p)) * gamma(d', l(q) - l(c) - 1) / beta(d') with
    c the longest common prefix and d' = depth - l(c) - 1.  Symmetric in
    its two label arguments.
    """
    if p.length > depth or q.length > depth:
        raise ValueError("labels must fit the tree depth")
    if p == q:
        return gamma(depth, p.length)
    if p.is_prefix_of(q) or q.is_prefix_of(p):
        return 0
    c = _longest_common_prefix(p, q)
    d_sub = depth - c.length - 1
    num = gamma(depth, p.length) * gamma(d_sub, q.length - c.length - 1)
    den = beta(d_sub)
    if num % den:
        raise AssertionError(f"rho quotient not integral for {p!r},{q!r}")
    return num // den


@lru_cache(maxsize=None)
def rho_table(depth: int) -> np.ndarray:
    """Dense (n_nodes, n_nodes) int64 table of rho over heap indices.

    The table is computed once per depth and cached read-only; learners
    share it for their per-step kappa products.
    """
    if depth > MAX_TABLE_DEPTH:
        raise ValueError(f"depth {depth} > {MAX_TABLE_DEPTH}: combinatorial tables refused")
    n = node_count(depth)
    labels = [label_from_index(i) for i in range(n)]
    table = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(labels):
        table[i, i] = gamma(depth, p.length)
        for j in range(i + 1, n):
            v = rho(p, labels[j], depth)
            table[i, j] = v
            table[j, i] = v
    table.setflags(write=False)
    return table


MAX_ENUMERATION_DEPTH = 4  # beta(4) = 677 partitions


def enumerate_partitions(depth: int, cap: int = MAX_ENUMERATION_DEPTH) -> list[frozenset[NodeLabel]]:
    """All beta(depth) partitions of the depth-``depth`` tree.

    Recursion: partitions(node, r) = {node alone} plus the cross product of
    the two children's partitions with r - 1 remaining levels; the
    construction never produces duplicates.
    """
    if depth > cap:
        raise ValueError(f"enumeration refused beyond depth {cap} (beta grows doubly exponentially)")

    def rec(label: NodeLabel, remaining: int) -> list[frozenset[NodeLabel]]:
        out = [frozenset((label,))]
        if remaining > 0:
            left = rec(label.child(0), remaining - 1)
            right = rec(label.child(1), remaining - 1)
            out.extend(a | b for a in left for b in right)
        return out

    return rec(ROOT, depth)


def is_valid_partition(leaves: Iterable[NodeLabel], depth: int) -> bool:
    """True when no member prefixes another and the member subtrees cover
    the depth-``depth`` leaf set exactly once."""
    members = list(leaves)
    for i, p in enumerate(members):
        for q in members[i + 1:]:
            if p.is_prefix_of(q) or q.is_prefix_of(p):
                return False
    if any(p.length > depth for p in members):
        return False
    return sum(1 << (depth - p.length) for p in members) == (1 << depth)


def membership_matrix(depth: int, partitions: list[frozenset[NodeLabel]] | None = None) -> np.ndarray:
    """(n_partitions, n_nodes) 0/1 matrix: row k marks the leaves of the
    k-th partition at their heap indices."""
    if partitions is None:
        partitions = enumerate_partitions(depth)
    m = np.zeros((len(partitions), node_count(depth)))
    for k, part in enumerate(partitions):
        for p in part:
            m[k, p.index] = 1.0
    return m
