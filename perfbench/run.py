"""pwltree benchmark: one workload per invocation, outputs checked every round.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: trials-mismatched, deep-single, oracle-lockstep (see
perfbench/METRICS.md).  The usage is a closed loop with one caller, since
a learner must predict, see the target and update before the next input,
so the benchmark reports work per second at a fixed input size.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced rounds with traced ones,
reports the per-layer metrics of the traced rounds and the tracing
overhead, and writes every span to perfbench/out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The process runs single-threaded: BLAS is pinned to one thread before
numpy is imported.

Times are reported at a reference core speed.  The speed of a core on a
shared host drifts by up to ~1.8x over seconds to minutes, with the
process's CPU time tracking its wall time (the core runs slower; it is not
taken away).  So each round is bracketed by a fixed calibration kernel, and
the round's times are scaled by CALIBRATION_REF_S / (kernel time).  The
unscaled figures are printed too.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPS = 31
MIN_ROUNDS = 4  # of each kind: untraced, and traced with --trace 1; and one per stream
LATENCY_WINDOW = 100  # steps; 10 lie beyond a window's p90
CALIBRATION_ITERS = 1000
CALIBRATION_REF_S = 0.0015  # kernel time on an uncontended core of the 2-core reference machine
SPEC = ROOT / "BENCHMARK.json"  # workload and metric names, units and bounds


def import_program():
    """Import pwltree from this checkout's src/, never from anywhere else."""
    if not (SRC / "pwltree" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'pwltree'} is missing")
    sys.path.insert(0, str(SRC))
    import pwltree

    if Path(pwltree.__file__).resolve().parent != (SRC / "pwltree").resolve():
        sys.exit(f"perfbench: imported pwltree from {pwltree.__file__}, not from {SRC}")


def git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pwltree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": workload.params,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                          "MKL_NUM_THREADS")},
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def calibration_s() -> float:
    """Seconds for a fixed kernel of interpreter work and small numpy calls,
    the mix a learner step is made of: a probe of how fast the core runs now."""
    x, a = np.ones(3), np.ones((7, 3))
    acc = 0.0
    t0 = perf_counter()
    for _ in range(CALIBRATION_ITERS):
        acc += float((a @ x)[0])
        for j in range(7):
            acc += j * 0.5
    return perf_counter() - t0


def core_slowdown() -> float:
    """Current core slowdown against the reference: > 1 when slower."""
    return statistics.mean(calibration_s() for _ in range(2)) / CALIBRATION_REF_S


@dataclass
class Measured:
    traced: bool
    round: object  # workloads.Round
    slowdown: float  # mean of the core slowdown just before and just after the round
    windows: dict  # kind -> (n, 2) p50 and p90 of each LATENCY_WINDOW steps, in reference us

    @property
    def rate(self) -> float:
        """Learner-steps per second at the reference core speed."""
        return self.round.steps / self.round.seconds * self.slowdown


def window_percentiles(latencies: list, slowdown: float):
    """p50 and p90 of every run of LATENCY_WINDOW consecutive steps of one
    learner, scaled to the reference core speed.  Within so short a stretch
    the core speed barely moves, so the spread left is the program's own."""
    parts = [np.percentile((lat[: lat.size - lat.size % LATENCY_WINDOW] / slowdown)
                           .reshape(-1, LATENCY_WINDOW), [50, 90], axis=1).T
             for lat in latencies]
    return np.concatenate(parts) if parts else np.empty((0, 2))


def time_setup(workload, trees) -> tuple[float, float]:
    """Median of SETUP_REPS set-ups (streams plus learners), each from a
    cleared rho_table cache and bracketed by the calibration kernel:
    (at the reference speed, as measured)."""
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        trees.rho_table.cache_clear()
        before = core_slowdown()
        t0 = perf_counter()
        workload.setup()
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] / ((before + core_slowdown()) / 2))
    return statistics.median(scaled), statistics.median(raw)


def run_rounds(workload, seconds: float, trace: bool):
    """Rounds until ``seconds`` have passed and each kind of round (untraced,
    and traced with ``trace``) has run MIN_ROUNDS times and once per stream.  Returns the
    measured rounds and the tracer shared by the traced ones."""
    from instrument import StepClock, Tracer
    from workloads import Round

    tracer = Tracer() if trace else None
    kinds = (False, True) if trace else (False,)
    least = max(MIN_ROUNDS, workload.STREAMS)
    rounds = []
    start = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        instrument = tracer if traced else StepClock(lockstep=workload.lockstep)
        gc.collect()
        before = core_slowdown()
        try:
            result = workload.run_round(instrument)
        except Exception:  # a crash fails the round's operations; the run goes on
            traceback.print_exc()
            result = Round(0.0, 0, workload.OPS, ["round raised"] * workload.OPS)
        slowdown = (before + core_slowdown()) / 2
        windows = {} if traced else {kind: window_percentiles(instrument.latencies_us(kind), slowdown)
                                     for kind in ("dat", "dft")}
        rounds.append(Measured(traced, result, slowdown, windows))
        enough = all(sum(1 for m in rounds if m.traced == kind) >= least for kind in kinds)
        if enough and perf_counter() - start >= seconds:
            return rounds, tracer


def median_rate(rounds, raw=False) -> float:
    rates = [m.round.steps / m.round.seconds if raw else m.rate
             for m in rounds if m.round.seconds > 0]
    return statistics.median(rates) if rates else math.nan


def check_repeats(rounds) -> None:
    """Every round must reproduce the outputs of the first round that had
    the same inputs."""
    first = {}
    for i, m in enumerate(rounds):
        r = m.round
        reference = first.setdefault(r.key, (i, r.fingerprint))
        if not r.problems and r.fingerprint != reference[1]:
            r.problems.append(f"round {i} outputs {r.fingerprint} differ from round "
                              f"{reference[0]}'s {reference[1]}")


def end_to_end(rounds, setup: tuple[float, float]) -> tuple[dict, dict]:
    metrics = {"steps_per_s": median_rate(rounds)}
    windows = {}
    for kind in ("dat", "dft"):
        stats = np.concatenate([m.windows[kind] for m in rounds])
        windows[kind] = len(stats)
        p50, p90 = np.median(stats, axis=0) if len(stats) else (math.nan, math.nan)
        metrics[f"step_us_p50_{kind}"] = float(p50)
        metrics[f"step_us_p90_{kind}"] = float(p90)
    metrics["setup_s"] = setup[0]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = {}  # the first round of each input key
    for m in rounds:
        first.setdefault(m.round.key, m.round)
    for kind in ("dat", "dft"):
        values = [r.norm_err.get(kind, math.nan) for r in first.values()]
        metrics[f"norm_err_{kind}"] = float(np.mean(values))
    slowdowns = [m.slowdown for m in rounds]
    detail = {"latency_windows": windows, "latency_window_steps": LATENCY_WINDOW,
              "rounds": len(rounds), "setup_reps": SETUP_REPS,
              "unscaled": {"steps_per_s": median_rate(rounds, raw=True), "setup_s": setup[1]},
              "core_slowdown": {"min": min(slowdowns), "median": statistics.median(slowdowns),
                                "max": max(slowdowns)}}
    return metrics, detail


def per_layer(rounds, tracer) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds (times as measured, unscaled)."""
    plain = [m for m in rounds if not m.traced]
    traced = [m for m in rounds if m.traced]
    wall_ns = sum(m.round.seconds for m in traced) * 1e9
    metrics = tracer.layer_metrics(wall_ns)
    metrics["trace_overhead_frac"] = 1.0 - median_rate(traced) / median_rate(plain)
    return metrics, {"spans": len(tracer.columns["id"]), "steps": tracer.step + 1,
                     "traced_rounds": len(traced), "untraced_rounds": len(plain)}


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it keys the Philox stream generator)")

    import_program()
    from pwltree import trees
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        record = {"provenance": provenance(args, workload)}
        setup = time_setup(workload, trees)
        rounds, tracer = run_rounds(workload, args.seconds, bool(args.trace))

    check_repeats(rounds)
    results = [m.round for m in rounds]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    if args.trace:
        counter_problems = tracer.counter_problems()  # one more checked operation
        attempted += 1
        failed += bool(counter_problems)
        problems += counter_problems
        metrics, detail = per_layer(rounds, tracer)
        tracer.save(OUT / f"trace-{args.workload}.npz")
    else:
        metrics, detail = end_to_end(rounds, setup)
        metrics["ok_frac"] = 1.0 - failed / attempted
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {SPEC.name}: {sorted(units)}")

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {json.dumps(detail)}")
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} checked operations)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(result=result, detail=detail, problems=problems)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
