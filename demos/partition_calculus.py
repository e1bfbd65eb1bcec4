# # Counting the partitions a binary tree represents
#
# A depth-d complete binary tree encodes every way of pruning it into a
# complete, disjoint tiling of the input space.  The number of such
# partitions satisfies beta(0) = 1, beta(j+1) = beta(j)^2 + 1 -- doubly
# exponential in d -- which is exactly why the learners in this package
# never materialize them.  This script enumerates the partitions for small
# depths and checks the closed-form counting functions against the
# enumeration.

import numpy as np

from pwltree import beta, enumerate_partitions, gamma, rho, rho_table
from pwltree.trees import level, node_count

print("partitions representable by a depth-j tree:")
for j in range(6):
    print(f"  beta({j}) = {beta(j):>7d}")

# The five depth-2 partitions, spelled out.
print("\nall partitions of a depth-2 tree:")
for part in enumerate_partitions(2):
    # the paper's name for heap node p: p + 1 in binary without its leading 1
    cells = sorted(bin(p + 1)[3:] or "root" for p in part)
    print("  {" + ", ".join(cells) + "}")

# gamma(d, l) counts the partitions in which a node at depth l is a leaf;
# rho(p, q) counts those in which two nodes are leaves simultaneously.
# Both must agree with brute-force enumeration.
depth = 3
parts = enumerate_partitions(depth)
nodes = range(node_count(depth))  # heap indices: root, 0, 1, 00, 01, ...

print(f"\ndepth-{depth} tree: {len(parts)} partitions (= beta({depth}) = {beta(depth)})")
worst = 0
for p in nodes:
    by_enum = sum(1 for part in parts if p in part)
    assert by_enum == gamma(depth, level(p))
    for q in nodes:
        co = sum(1 for part in parts if p in part and q in part)
        assert co == rho(p, q, depth)
        worst = max(worst, co)
print("gamma and rho agree with enumeration everywhere "
      f"(largest co-leaf count seen: {worst})")

# The learners consume rho as a dense node-by-node table.
table = rho_table(2)
print("\ndense rho table for depth 2 (heap order: root, 0, 1, 00, 01, 10, 11):")
print(np.array2string(table))
