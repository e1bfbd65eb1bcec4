"""Helpers shared by the test modules.

``label`` and ``index_of`` convert a heap index to the paper's bit-string
node name and back, so a test can name a node as the paper does.
``MALFORMED_STATES`` is one table of broken tree-learner snapshot states,
used by the library tests of ``load_state`` and by the CLI tests of
``pwltree restore``.
"""

import copy
import math


def label(i: int) -> str:
    """Bit-string name of heap node ``i``: ``i + 1`` in binary without its
    leading 1, so the root is the empty string."""
    return bin(i + 1)[3:]


def index_of(bits: str) -> int:
    """Heap index of the node named ``bits``, the inverse of ``label``."""
    return int("1" + bits, 2) - 1


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


def _array_cases(key, kinds, row):
    """The faults of one heap-ordered array: ``row(x)`` builds an entry of
    it (a number for ``w``, a row of three numbers for ``v`` and ``theta``)."""
    return [
        (f"{key}-missing", kinds, _drop(key)),
        (f"{key}-object", kinds, _map(key, lambda rows: dict(enumerate(rows)))),
        (f"{key}-short", kinds, _map(key, lambda rows: rows[:-1])),
        (f"{key}-non-numeric", kinds, _entry(key, 1, row("x"))),
        (f"{key}-null-entry", kinds, _entry(key, 1, row(None))),
        (f"{key}-ragged", kinds, _entry(key, 1, [0.0, 0.0])),
        (f"{key}-wrong-shape", kinds, _map(key, lambda rows: [_widen(r) for r in rows])),
        (f"{key}-non-finite", kinds, _entry(key, 2, row(math.inf))),
        (f"{key}-nan", kinds, _entry(key, 0, row(math.nan))),
    ]


BOTH, GATED = ("dft", "dat"), ("dat",)

# (case id, learner kinds it applies to, mutation): each mutation takes a
# valid state_snapshot() of a depth-2, dim-2 tree learner, as a fresh
# object, and returns a state that load_state must refuse.  theta and
# s_plus exist only in the adaptive tree's state.
MALFORMED_STATES = [
    ("state-list", BOTH, lambda state: []),
    ("state-string", BOTH, lambda state: "x"),
    ("depth-missing", BOTH, _drop("depth")),
    ("depth-wrong", BOTH, _set("depth", 3)),
    ("depth-string", BOTH, _set("depth", "2")),
    ("t-missing", BOTH, _drop("t")),
    ("t-zero", BOTH, _set("t", 0)),
    ("t-float", BOTH, _set("t", 2.0)),
    ("t-bool", BOTH, _set("t", True)),
    *_array_cases("w", BOTH, lambda x: x),
    *_array_cases("v", BOTH, lambda x: [0.0, x, 0.0]),
    ("v-object-row", BOTH, _entry("v", 1, {"0": 0.0, "1": 0.0, "2": 0.0})),
    *_array_cases("theta", GATED, lambda x: [x, 0.0, 0.0]),
    ("s_plus-missing", GATED, _drop("s_plus")),
    ("s_plus-list", GATED, _set("s_plus", [0.01])),
    ("s_plus-string", GATED, _set("s_plus", "0.01")),
    ("s_plus-other", GATED, _set("s_plus", 0.02)),
]
