# # A realizable target: error converges to the noise variance
#
# The quadrant-matched stream flips the sign of a linear response across
# the four quadrants and adds variance-0.1 Gaussian noise.  The default
# tree boundaries carve exactly those quadrants, so the fixed-boundary
# learner's piecewise model can realize the target and its squared error
# should settle at the 0.1 noise floor.
#
# Along the way we look at the mixture weights: summed per partition they
# drift well away from 1 and some go negative -- the combination is a free
# linear mixture, not a probability-weighted average.

import numpy as np

from pwltree import FixedTreeRegressor, generate
from pwltree.harness import average_metrics, run_stream
from pwltree.trees import membership_matrix

trials = 10
n = 20_000
runs = []
weight_sums = []
weight_mins = []
membership = membership_matrix(2)  # partition k's weight sums its members' node weights

for trial in range(trials):
    stream = generate("matched", n, seed=100 + trial)
    learner = FixedTreeRegressor(2, 2, mu=0.005)
    runs.append(run_stream(learner, stream.extended, stream.targets))
    per_model = membership.dot(learner.w)
    weight_sums.append(per_model.sum())
    weight_mins.append(per_model.min())

avg = average_metrics(runs)
print(f"matched stream, {trials} trials of {n} steps, step size 0.005")
print("\ntime-normalized accumulated squared error:")
for t in (500, 2000, 5000, 10_000, n):
    print(f"  after {t:>6d} steps: {avg.norm_err[t - 1]:.4f}")
print(f"\nmean squared error over the last 5000 steps: {avg.e2[-5000:].mean():.4f}"
      "  (noise variance is 0.1)")

print(f"\nsum of partition weights at the end, per trial: "
      f"{np.round(weight_sums, 3).tolist()}")
print(f"most negative partition weight, per trial:       "
      f"{np.round(weight_mins, 3).tolist()}")

out = "matched_noise_floor.csv"
with open(out, "w") as fh:
    fh.write("t,norm_err\n")
    for t in range(99, n, 100):
        fh.write(f"{t + 1},{avg.norm_err[t]!r}\n")
print(f"\nwrote the averaged error trajectory to {out}")
