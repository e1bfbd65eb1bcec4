"""Acceptance suite.

Each test checks one numbered acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (run with ``pytest -v -s`` to see them
all).

Criterion 6 checks convergence to the noise floor: the error over the last
5000 of 2*10^4 steps must lie in [0.10, 0.13], and the error accumulated
over the whole run must be no larger than that of an LMS oracle told the
true cell.  The whole-run average also carries the LMS transient of about
1/(mu*lambda) steps per cell, which at mu = 0.005 keeps even that oracle
above 0.13, so a band on it alone would measure the step size rather than
the learning.

Criterion 9 encodes a target ratio that the implementation's measured
value falls outside; it is asserted as stated and currently fails.  Its
message reports where the gap comes from: the transient cost of each
learner up to step 10^4 and its converged error afterwards.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pwltree.adaptive_tree import AdaptiveTreeRegressor
from pwltree.baselines import LinearFilter
from pwltree.cli import main as cli_main
from pwltree.datagen import generate
from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.harness import (
    ExperimentConfig,
    average_metrics,
    run_experiment,
    run_stream,
    verify_equivalence,
    weight_regret,
)
from pwltree.mixture import DirectMixtureRegressor
from pwltree.trees import (
    Learner,
    beta,
    enumerate_partitions,
    gamma,
    level,
    node_count,
    rho,
)

BASE_SEED = 100
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def criterion(num, ok, description, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# 1. combinatorics vs enumeration
# ----------------------------------------------------------------------

def test_criterion_01_combinatorics_vs_enumeration():
    expected_counts = {1: 2, 2: 5, 3: 26}
    ok = True
    for depth in (1, 2, 3):
        parts = enumerate_partitions(depth)
        ok &= len(parts) == beta(depth) == expected_counts[depth]
        nodes = range(node_count(depth))
        for p in nodes:
            ok &= sum(1 for part in parts if p in part) == gamma(depth, level(p))
            for q in nodes:
                co = sum(1 for part in parts if p in part and q in part)
                ok &= rho(p, q, depth) == co
    criterion(1, ok, "partition counts, gamma and rho match exhaustive enumeration",
              "depths 1-3, exact integer equality")


# ----------------------------------------------------------------------
# 2-3. collapsed learners equal the explicit mixture
# ----------------------------------------------------------------------

def test_criterion_02_fixed_tree_exactness():
    gaps = {d: verify_equivalence("dft", d, 1000, seed=BASE_SEED, mu=0.01)
            for d in (1, 2, 3)}
    ok = all(g <= 1e-9 for g in gaps.values())
    criterion(2, ok, "hard-boundary collapsed prediction equals the explicit mixture",
              "worst per-step relative gap " + ", ".join(f"d={d}: {g:.2e}" for d, g in gaps.items()))


def test_criterion_03_adaptive_tree_exactness():
    gaps = {d: verify_equivalence("dat", d, 1000, seed=BASE_SEED, mu=0.01)
            for d in (1, 2)}
    ok = all(g <= 1e-9 for g in gaps.values())
    criterion(3, ok, "soft-boundary collapsed prediction equals the explicit mixture",
              "worst per-step relative gap " + ", ".join(f"d={d}: {g:.2e}" for d, g in gaps.items()))


# ----------------------------------------------------------------------
# 4. boundary gradient vs finite differences
# ----------------------------------------------------------------------

def test_criterion_04_boundary_gradient():
    rng = np.random.default_rng(BASE_SEED)
    h = 1e-6
    worst = 0.0
    for depth in (1, 2):
        for _ in range(50):
            lrn = AdaptiveTreeRegressor(depth, 2, s_plus=0.01)
            lrn.v = rng.normal(size=lrn.v.shape)
            lrn.w = rng.normal(size=lrn.w.shape)
            lrn.theta = rng.normal(size=lrn.theta.shape)
            x = np.append(rng.normal(size=2), 1.0)
            d = rng.normal()
            pred = lrn.predict(x)
            e = d - pred.y_hat
            factors = lrn.boundary_factors(pred)
            for i in range(lrn.n_internal):
                analytic = 2.0 * e * factors[i] * x
                fd = np.empty(3)
                for j in range(3):
                    lrn.theta[i, j] += h
                    up = (d - lrn.predict(x).y_hat) ** 2
                    lrn.theta[i, j] -= 2 * h
                    dn = (d - lrn.predict(x).y_hat) ** 2
                    lrn.theta[i, j] += h
                    fd[j] = (up - dn) / (2 * h)
                rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-8)
                worst = max(worst, rel)
    criterion(4, worst <= 1e-5, "boundary gradient matches central finite differences",
              f"100 random configurations, worst relative error {worst:.2e}")


# ----------------------------------------------------------------------
# 5. empirical regret growth
# ----------------------------------------------------------------------

def test_criterion_05_logarithmic_regret():
    curves = [weight_regret(seed) for seed in range(11, 16)]
    non_negative = all(r >= 0.0 for curve in curves for r in curve.values())
    c = {n: sum(curve[n] / 5.0 for curve in curves) / (1.0 + np.log(n)) for n in curves[0]}
    ok = (non_negative
          and c[10_000] <= 2.0 * c[1000]
          and c[100_000] <= 2.0 * c[10_000])
    criterion(5, ok, "regret over the decaying-step schedule grows at most logarithmically",
              "averaged R_n/(1+ln n): " + ", ".join(f"n=1e{int(np.log10(n))}: {v:.2f}"
                                                    for n, v in c.items()))


# ----------------------------------------------------------------------
# 6 and 12 share one set of matched-stream runs
# ----------------------------------------------------------------------

class TrueCellLMS(Learner):
    """One LMS filter per quadrant of the matched generator, each told which
    cell the input falls in.  It knows the generating partition, so its
    whole-run error is the LMS transient cost at the given step size."""

    def __init__(self, mu):
        self.cells = [LinearFilter(2, mu=mu) for _ in range(4)]

    def _cell(self, x_ext):
        return self.cells[2 * int(x_ext[0] >= 0.0) + int(x_ext[1] >= 0.0)]

    def predict(self, x_ext):
        return self._cell(x_ext).predict(x_ext)

    def update(self, x_ext, d_t, pred):
        self._cell(x_ext).update(x_ext, d_t, pred)


@pytest.fixture(scope="module")
def matched_reference_runs():
    runs, oracle_runs, weight_sums, weight_mins = [], [], [], []
    mapper = DirectMixtureRegressor(2, 2, mode="hard")
    for trial in range(10):
        stream = generate("matched", 20_000, seed=BASE_SEED + trial)
        lrn = FixedTreeRegressor(2, 2, mu=0.005)
        runs.append(run_stream(lrn, stream.extended, stream.targets))
        oracle_runs.append(run_stream(TrueCellLMS(mu=0.005), stream.extended, stream.targets))
        per_model = mapper.node_weight_image(lrn.w)
        weight_sums.append(float(per_model.sum()))
        weight_mins.append(float(per_model.min()))
    return average_metrics(runs), average_metrics(oracle_runs), weight_sums, weight_mins


def test_criterion_06_noise_floor(matched_reference_runs):
    avg, oracle, _, _ = matched_reference_runs
    floor = float(avg.e2[-5000:].mean())
    final, oracle_final = avg.final_norm_err, oracle.final_norm_err
    criterion(6, 0.10 <= floor <= 0.13 and final <= oracle_final,
              "matched-stream error converges to the noise floor band, "
              "at no more transient cost than LMS told the true cells",
              f"converged floor (last-5000 mean) {floor:.4f}, required [0.10, 0.13]; "
              f"whole-run normalized {final:.4f}, true-cell LMS oracle {oracle_final:.4f}")


def test_criterion_12_no_simplex_constraint(matched_reference_runs):
    _, _, weight_sums, weight_mins = matched_reference_runs
    far_from_one = sum(1 for s in weight_sums if abs(s - 1.0) > 0.1)
    any_negative = sum(1 for m in weight_mins if m < 0.0)
    ok = far_from_one >= 8 and any_negative >= 1
    criterion(12, ok, "per-partition weights are unnormalized and unconstrained in sign",
              f"sum far from 1 in {far_from_one}/10 trials "
              f"(mean sum {np.mean(weight_sums):.3f}), negative weight in {any_negative}/10")


# ----------------------------------------------------------------------
# 7. boundary adaptation beats fixed partitions
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_adaptation_ordering():
    n = 50_000
    target_direction = np.array([4.0, -1.0]) / np.hypot(4.0, 1.0)
    dat_runs, dft_runs, lf_runs, cosines = [], [], [], []
    for trial in range(10):
        stream = generate("mismatched", n, seed=BASE_SEED + trial)
        x_ext, targets = stream.extended, stream.targets
        dat = AdaptiveTreeRegressor(2, 2, mu=0.005, s_plus=0.01)
        dat_runs.append(run_stream(dat, x_ext, targets))
        root = dat.theta[0, :2]
        cosines.append(abs(float(root @ target_direction) / np.linalg.norm(root)))
        dft_runs.append(run_stream(FixedTreeRegressor(2, 2, mu=0.005), x_ext, targets))
        lf_runs.append(run_stream(LinearFilter(2, mu=0.01), x_ext, targets))
    dat_final = average_metrics(dat_runs).final_norm_err
    dft_final = average_metrics(dft_runs).final_norm_err
    lf_final = average_metrics(lf_runs).final_norm_err
    ok = dat_final < dft_final and dat_final < lf_final and min(cosines) >= 0.9
    criterion(7, ok, "adaptive boundaries beat fixed ones and align with the generator",
              f"adaptive {dat_final:.3f} < fixed {dft_final:.3f}, < linear {lf_final:.3f}; "
              f"min |cos(root, p0)| {min(cosines):.3f}")


# ----------------------------------------------------------------------
# 8. robustness to over- and under-fit depth
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_depth_mismatch_robustness():
    finals = {}
    for name in ("overfit_first_order", "underfit_third_order"):
        config = ExperimentConfig.from_file(CONFIG_DIR / f"{name}.json")
        assert (config.seed, config.trials, config.stream["n"]) == (BASE_SEED, 10, 50_000)
        result = run_experiment(config)
        assert not result.failures
        finals[config.stream["kind"]] = (result.metrics["dat"].final_norm_err,
                                         result.metrics["dft"].final_norm_err)
    ok = all(dat <= dft for dat, dft in finals.values())
    criterion(8, ok, "adaptive tree is no worse than fixed under depth mismatch",
              "; ".join(f"{k}: adaptive {a:.3f} vs fixed {f:.3f}"
                        for k, (a, f) in finals.items()))


# ----------------------------------------------------------------------
# 9. quadratic-map prediction parity with the Volterra filter
# ----------------------------------------------------------------------

def test_criterion_09_henon_parity():
    config = ExperimentConfig.from_file(CONFIG_DIR / "henon.json")
    learners = {entry["name"]: entry for entry in config.learners}
    assert (config.trials, config.stream) == (1, {"kind": "henon", "n": 100_000, "normalize": True})
    assert learners["dat"] == {"name": "dat", "kind": "dat", "depth": 2, "mu": 0.05, "s_plus": 0.01}
    assert learners["vf"] == {"name": "vf", "kind": "vf", "mu": 0.05}
    result = run_experiment(config)
    assert not result.failures
    dat, vf = result.metrics["dat"], result.metrics["vf"]
    ratio = dat.final_norm_err / vf.final_norm_err
    criterion(9, ratio <= 1.2, "adaptive tree stays within 1.2x of the Volterra filter",
              f"adaptive {dat.final_norm_err:.2e}, volterra {vf.final_norm_err:.2e}, "
              f"ratio {ratio:.2f}; cumulative e2 at step 1e4: "
              f"adaptive {dat.cum_e2[9_999]:.4g} of {dat.cum_e2[-1]:.4g}, "
              f"volterra {vf.cum_e2[9_999]:.4g} of {vf.cum_e2[-1]:.4g}; "
              f"last-1e4 mean e2: adaptive {float(dat.e2[-10_000:].mean()):.2e}, "
              f"volterra {float(vf.e2[-10_000:].mean()):.2e}")


# ----------------------------------------------------------------------
# 10. per-step work counters
# ----------------------------------------------------------------------

def test_criterion_10_complexity_counters():
    steps = 200
    ok = True
    details = []
    for depth in (1, 2, 3):
        stream = generate("matched", steps, seed=BASE_SEED)
        x_ext, targets = stream.extended, stream.targets
        n_nodes = 2 ** (depth + 1) - 1
        dft = FixedTreeRegressor(depth, 2, mu=0.01)
        for t in range(steps):
            dft.step(x_ext[t], targets[t])
        ok &= dft.regressor_evaluations == steps * (depth + 1)
        ok &= dft.kappa_accumulations <= steps * (depth + 1) * n_nodes
        dat = AdaptiveTreeRegressor(depth, 2, mu=0.01)
        for t in range(steps):
            dat.step(x_ext[t], targets[t])
        ok &= dat.regressor_evaluations == steps * n_nodes
        ok &= dat.kappa_accumulations <= steps * n_nodes * n_nodes
        details.append(f"d={depth}: fixed {dft.regressor_evaluations // steps}/step, "
                       f"adaptive {dat.regressor_evaluations // steps}/step")
    criterion(10, ok, "instrumented per-step work matches the complexity accounting",
              "; ".join(details))


# ----------------------------------------------------------------------
# 11. determinism and serialization
# ----------------------------------------------------------------------

def test_criterion_11_determinism_and_serialization(tmp_path):
    config = {
        "schema": 1, "seed": 7, "trials": 2, "stride": 50,
        "stream": {"kind": "matched", "n": 2000},
        "learners": [{"name": "dft", "kind": "dft", "depth": 2, "mu": 0.005},
                     {"name": "dat", "kind": "dat", "depth": 2, "mu": 0.005}],
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    for prefix in ("one", "two"):
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / prefix)]) == 0
    identical = ((tmp_path / "one_metrics.csv").read_bytes()
                 == (tmp_path / "two_metrics.csv").read_bytes())

    resumed_ok = True
    for mode in ("dft", "dat"):
        full_snap = tmp_path / f"{mode}_full.json"
        half_snap = tmp_path / f"{mode}_half.json"
        full_csv = tmp_path / f"{mode}_full.csv"
        res_csv = tmp_path / f"{mode}_res.csv"
        res_snap = tmp_path / f"{mode}_res.json"
        mode_cfg = tmp_path / f"{mode}.json"
        mode_cfg.write_text(json.dumps({
            "seed": 7, "stream": {"kind": "matched", "n": 1000},
            "learners": [{"kind": mode, "depth": 2, "mu": 0.005}],
        }))
        assert cli_main(["snapshot", str(mode_cfg), "--steps", "1000",
                         "--out", str(full_snap), "--metrics", str(full_csv)]) == 0
        assert cli_main(["snapshot", str(mode_cfg), "--steps", "500",
                         "--out", str(half_snap)]) == 0
        assert cli_main(["restore", "--snapshot", str(half_snap), "--steps", "500",
                         "--metrics", str(res_csv), "--out", str(res_snap)]) == 0
        straight = {line.split(",")[0]: line.split(",")[2]
                    for line in full_csv.read_text().splitlines()[1:]}
        for line in res_csv.read_text().splitlines()[1:]:
            t, _, e2 = line.split(",")[:3]
            resumed_ok &= straight[t] == e2
        resumed_ok &= (json.loads(res_snap.read_text())["state"]
                       == json.loads(full_snap.read_text())["state"])
    criterion(11, identical and resumed_ok,
              "runs are bit-reproducible and snapshots resume bit-identically",
              "metric CSVs byte-equal; resumed per-step errors and final state exact")
