# # Regret against the best fixed mixture grows like log n
#
# The mixture weights follow a plain stochastic-gradient recursion.  With
# the decaying step schedule 2/(lambda t) -- lambda estimated as the
# smallest eigenvalue of the per-partition estimate second-moment matrix
# over a warm-up prefix -- the cumulative squared error should trail the
# best fixed weight vector in hindsight by at most O(log n).
#
# One structural subtlety dictates the setup: for any tree of depth >= 2
# the per-partition estimates are linearly dependent (the two-half and
# four-cell partitions sum to the same thing as the two mixed ones at
# every input), so the second-moment matrix is singular and no decaying
# schedule is well defined there.  Depth 1 with an axis split is the
# largest configuration where the strong-convexity premise can hold; the
# constituent node regressors train during warm-up and are then frozen so
# the recursion faces a fixed feature stream.  `harness.weight_regret`
# runs that experiment for one seed; acceptance criterion 5 checks it.

import numpy as np

from pwltree.harness import weight_regret

seeds = range(11, 16)
curves = [weight_regret(seed) for seed in seeds]

print("regret R_n against the hindsight-optimal fixed mixture, per seed:")
print("       n   " + "".join(f"  seed {s:<10d}" for s in seeds))
for n in curves[0]:
    print(f"  {n:>8d} " + "".join(f"  {curve[n]:<14.2f}" for curve in curves))
print("\nnormalized by the log-growth envelope, averaged over seeds:")
for n in curves[0]:
    mean_r = np.mean([curve[n] for curve in curves])
    print(f"  R(n={n}) / (1 + ln n) = {mean_r / (1 + np.log(n)):.2f}")
print("\nThe early steps of the 2/(lambda t) schedule are aggressive, so a few seeds")
print("pay a large one-off transient; what matters is that R_n barely moves between")
print("n = 1e3 and n = 1e5.  A linear-regret learner would grow ~10x per decade.")
