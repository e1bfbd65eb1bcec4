"""Default region separators of a complete binary tree.

A separator is a hyperplane through the origin of the extended input
space: the offset is folded into the last component, against an input
whose last entry is fixed to 1.  The tree learners gate each internal node
on the sign of ``x . theta`` (hard) or a clamped logistic of it (soft);
this module supplies the hyperplanes they start from.
"""

from __future__ import annotations

import numpy as np


def initial_directions(depth: int, dim: int) -> np.ndarray:
    """Default direction vectors for the internal nodes of a depth-``depth``
    tree over a ``dim``-dimensional regressor space.

    Component ``i`` (0-based) of a node at depth ``l`` is -1 when
    ``i = l (mod depth)`` and 0 otherwise, so the root splits on the first
    axis, depth-1 nodes on the second, and so on cyclically; offsets start
    at 0.  For ``depth = dim = 2`` this carves the four quadrants.
    Returned as an ``(n_internal, dim + 1)`` array in heap order.

    At ``depth > dim`` no component is left for the levels from ``dim``
    down (the root is level 0), so every node there gets an all-zero
    plane.  A hard gate sends every input to the upper child of such a
    plane; a soft gate sits at 1/2, its two children stay symmetric and
    its step factor stays 0 up to rounding, so the plane does not move.
    Such a tree carves no more cells than a depth-``dim`` tree.
    """
    n_internal = (1 << depth) - 1
    out = np.zeros((n_internal, dim + 1))
    for idx in range(n_internal):
        level = (idx + 1).bit_length() - 1
        for i in range(dim):
            if depth > 0 and i % depth == level % depth:
                out[idx, i] = -1.0
    return out
