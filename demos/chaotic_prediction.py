# # Predicting chaotic recursions
#
# Two classic deterministic streams: the quadratic map (predict the next
# value from the two previous ones) and the three-variable convection
# flow (predict the first coordinate from the other two).  Everything is
# mapped onto [-1, 1] first, as the benchmark protocol does for bounded
# methods.  The second-order polynomial filter (vf) contains the quadratic
# map in its feature span, so it is the one to beat there; the adaptive
# tree (dat) gets close with purely piecewise-linear machinery and wins
# outright on the convection flow, where the linear filter (lf) trails.
# Both runs are the shipped configs, as `pwltree run` runs them.

from pathlib import Path

from pwltree import ExperimentConfig, run_experiment
from pwltree.harness import write_metrics_csv

configs = Path(__file__).resolve().parent.parent / "configs"

for name in ("henon", "lorenz"):
    config = ExperimentConfig.from_file(configs / f"{name}.json")
    result = run_experiment(config)
    print(f"{name}: {config.stream['n']} steps, step size {config.learners[0]['mu']}, "
          "data on [-1, 1]")
    for learner, metrics in result.metrics.items():
        print(f"  {learner:<4s} final normalized error {metrics.final_norm_err:.3e}   "
              f"last-10000 mean {metrics.e2[-10_000:].mean():.3e}")
    out = f"{config.output}_metrics.csv"
    write_metrics_csv(result.metrics, out, config.stride)
    print(f"  wrote error trajectories to {out}\n")
