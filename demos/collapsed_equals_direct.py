# # The collapsed learners are the mixture, not an approximation of it
#
# Both tree learners claim to reproduce, at polynomial cost, the exact
# output of a linear mixture over every subtree partition.  Here we run
# each one in lockstep with the explicit mixture (which really keeps one
# weight per partition and predicts with all of them) and record the
# largest relative prediction gap over a thousand sequential steps.  The
# gaps sit at machine precision; the 1e-9 acceptance tolerance is loose.

import numpy as np

from pwltree import AdaptiveTreeRegressor, DirectMixtureRegressor, beta, generate
from pwltree.harness import verify_equivalence

for mode, title, depths in (
        ("dft", "hard boundaries (path-collapsed prediction)", (1, 2, 3)),
        ("dat", "soft boundaries (all-node collapsed prediction)", (1, 2, 3, 4))):
    print(f"{title} vs explicit mixture:")
    for depth in depths:
        gap = verify_equivalence(mode, depth, 1000, 42, mu=0.01)
        print(f"  depth {depth}: {beta(depth):>3d} partitions, worst relative gap {gap:.2e}")
    print()

# The soft twin also mirrors boundary learning: after the run the two
# sets of hyperplanes are identical.
stream = generate("matched", 1000, seed=42)
fast = AdaptiveTreeRegressor(2, 2, mu=0.005, s_plus=0.01)
slow = DirectMixtureRegressor(2, 2, mode="soft", mu=0.005, s_plus=0.01)
for x, d in zip(stream.extended, stream.targets):
    fast.step(x, d)
    slow.step(x, d)
print("boundary drift between collapsed and explicit learners after 1000 steps:",
      f"{np.abs(fast.theta - slow.theta).max():.2e}")
