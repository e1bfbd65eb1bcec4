# # When the tree is too deep or too shallow
#
# Real data never announces the right tree depth.  Two stress streams:
# one generated by a single split (a depth-2 tree overfits it) and one by
# three nested splits (a depth-2 tree underfits it).  Because the
# adaptive learner can move its boundaries, it makes the most of whatever
# depth it has in both directions, while the fixed tree pays for every
# mismatch between its frozen quadrants and the generator.  Both runs are
# the shipped configs, the experiment acceptance criterion 8 checks.

from pathlib import Path

from pwltree import ExperimentConfig, run_experiment

configs = Path(__file__).resolve().parent.parent / "configs"

for name, story in (("overfit_first_order", "depth-2 tree on a one-split generator (overfit)"),
                    ("underfit_third_order", "depth-2 tree on a three-level generator (underfit)")):
    config = ExperimentConfig.from_file(configs / f"{name}.json")
    result = run_experiment(config)
    adaptive, fixed = result.metrics["dat"], result.metrics["dft"]
    print(story)
    print(f"  final normalized error over {config.trials} trials: "
          f"adaptive {adaptive.final_norm_err:.4f}, fixed {fixed.final_norm_err:.4f}")
    print(f"  converged level (last-3000 mean): "
          f"adaptive {adaptive.e2[-3000:].mean():.4f}, fixed {fixed.e2[-3000:].mean():.4f}\n")
