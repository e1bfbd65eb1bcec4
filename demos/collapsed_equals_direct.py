# # The collapsed learners are the mixture, not an approximation of it
#
# Both tree learners claim to reproduce, at polynomial cost, the exact
# output of a linear mixture over every subtree partition.  Here we run
# each one in lockstep with the explicit mixture (which really keeps one
# weight per partition and predicts with all of them) and record the
# largest relative prediction gap over a thousand sequential steps.  The
# gaps sit at machine precision; the 1e-9 acceptance tolerance is loose.

import numpy as np

from pwltree import AdaptiveTreeRegressor, DirectMixtureRegressor, FixedTreeRegressor, generate

stream = generate("matched", 1000, seed=42)
x_ext, targets = stream.extended, stream.targets

print("hard boundaries (path-collapsed prediction) vs explicit mixture:")
for depth in (1, 2, 3):
    fast = FixedTreeRegressor(depth, 2, mu=0.01)
    slow = DirectMixtureRegressor(depth, 2, mode="hard", mu=0.01)
    gap = 0.0
    for x, d in zip(x_ext, targets):
        y1, _ = fast.step(x, d)
        y2, _ = slow.step(x, d)
        gap = max(gap, abs(y1 - y2) / (1.0 + abs(y2)))
    n_models = len(slow.partitions)
    print(f"  depth {depth}: {n_models:>3d} partitions, worst relative gap {gap:.2e}")

print("\nsoft boundaries (all-node collapsed prediction) vs explicit mixture:")
for depth in (1, 2, 3, 4):
    fast = AdaptiveTreeRegressor(depth, 2, mu=0.01, s_plus=0.01)
    slow = DirectMixtureRegressor(depth, 2, mode="soft", mu=0.01, s_plus=0.01)
    gap = 0.0
    for x, d in zip(x_ext, targets):
        y1, _ = fast.step(x, d)
        y2, _ = slow.step(x, d)
        gap = max(gap, abs(y1 - y2) / (1.0 + abs(y2)))
    print(f"  depth {depth}: {len(slow.partitions):>3d} partitions, worst relative gap {gap:.2e}")

# The soft twin also mirrors boundary learning: after the run the two
# sets of hyperplanes are identical.
fast = AdaptiveTreeRegressor(2, 2, mu=0.005, s_plus=0.01)
slow = DirectMixtureRegressor(2, 2, mode="soft", mu=0.005, s_plus=0.01)
for x, d in zip(x_ext, targets):
    fast.step(x, d)
    slow.step(x, d)
print("\nboundary drift between collapsed and explicit learners after 1000 steps:",
      f"{np.abs(fast.theta - slow.theta).max():.2e}")
