"""The benchmark's workloads.

Each workload derives all of its inputs from the benchmark seed, runs in
rounds that cycle through its STREAMS sets of inputs, and checks the
program's outputs on every round.  A round reports the time spent inside
calls into pwltree (checks excluded), the learner-steps done, and one
pass/fail per checked operation.  Every round starts with ``trees.rho_table.cache_clear()``, as
a fresh ``pwltree`` process would.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from instrument import StepClock, installed
from pwltree import (
    AdaptiveTreeRegressor,
    DirectMixtureRegressor,
    FixedTreeRegressor,
    cli,
    generate,
    harness,
    trees,
)

# The learner mix and hyper-parameters of configs/mismatched.json, copied so
# that the workload does not change when that config does.
MISMATCHED_LEARNERS = [
    {"name": "dat", "kind": "dat", "depth": 2, "mu": 0.005, "s_plus": 0.01},
    {"name": "dft", "kind": "dft", "depth": 2, "mu": 0.005},
    {"name": "lf", "kind": "lf", "mu": 0.01},
    {"name": "gkr", "kind": "gkr", "mu": 1.0,
     "centers": [[1.4565, 1.0203], [0.6203, -0.4565], [-0.5013, 0.5903], [-1.0903, -1.0013]],
     "covariances": 1.2},
]
MISMATCHED_STREAM = {"kind": "mismatched", "noise_var": 0.1}


@dataclass
class Round:
    seconds: float  # inside calls into pwltree
    steps: int  # learner-steps (lockstep pairs on oracle-lockstep)
    attempted: int
    problems: list[str] = field(default_factory=list)
    norm_err: dict = field(default_factory=dict)  # "dat"/"dft" -> final normalized error
    fingerprint: tuple = ()  # outputs that every round with the same key must repeat exactly
    key: int = 0  # identifies the round's inputs

    @property
    def failed(self) -> int:
        # each operation fails at most once, whatever number of problems it shows
        return min(len(self.problems), self.attempted)


def _learner_params(spec: dict) -> dict:
    return {k: v for k, v in spec.items() if k not in ("name", "kind")}


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class TrialsMismatched:
    """``pwltree run`` of the configs/mismatched.json learners over freshly
    seeded trials: cli.main -> harness.run_experiment -> CSV/JSON writers."""

    name = "trials-mismatched"
    lockstep = False
    N = 1000
    TRIALS = 4
    OPS = 1  # checked operations per round: the pwltree run and its outputs
    STREAMS = 1  # every round runs the same config; its trials average the error

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.stream = {**MISMATCHED_STREAM, "n": self.N}
        self.params = {"n": self.N, "trials": self.TRIALS, "learners": MISMATCHED_LEARNERS,
                       "stream_seeds": [seed + t for t in range(self.TRIALS)]}
        config = {"schema": 1, "seed": seed, "trials": self.TRIALS, "stride": 100,
                  "stream": self.stream, "learners": MISMATCHED_LEARNERS}
        self.config_path = workdir / "trials-mismatched.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")
        self.prefix = workdir / "trials-mismatched"

    def setup(self) -> None:
        for trial in range(self.TRIALS):
            stream = harness.build_stream(self.stream, self.seed + trial)
            for spec in MISMATCHED_LEARNERS:
                harness.make_learner(spec, stream.dim)

    def run_round(self, instrument) -> Round:
        trees.rho_table.cache_clear()
        with installed(instrument), contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(["run", str(self.config_path), "--out", str(self.prefix)])
            seconds = perf_counter() - t0
        steps = self.N * self.TRIALS * len(MISMATCHED_LEARNERS)
        if code != 0:
            return Round(seconds, steps, self.OPS, [f"pwltree run exited with {code}"])
        problems, final = self._check_outputs()
        return Round(seconds, steps, self.OPS, problems, norm_err=final,
                     fingerprint=tuple(sorted(final.items())))

    def _check_outputs(self) -> tuple[list[str], dict]:
        """Read the written CSV and JSON back: every learner present, every
        value finite, no failures, last CSV norm_err == JSON final_norm_err."""
        with open(f"{self.prefix}_summary.json") as fh:
            summary = json.load(fh)
        with open(f"{self.prefix}_metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = [f"failures reported: {summary['failures']}"] if summary["failures"] else []
        last = {}
        for row in rows:
            values = [float(row[key]) for key in ("e2", "cum_e2", "norm_err")]
            if not all(map(math.isfinite, values)):
                problems.append(f"non-finite CSV row {row}")
            last[row["learner"]] = (int(row["t"]), float(row["norm_err"]))
        final = {}
        for spec in MISMATCHED_LEARNERS:
            name = spec["name"]
            result = summary["results"].get(name)
            if result is None or name not in last:
                problems.append(f"learner {name} missing from the outputs")
                continue
            numbers = [result["final_cum_e2"], result["final_norm_err"], *result["counters"].values()]
            if not all(map(_finite, numbers)):
                problems.append(f"non-finite JSON value for {name}")
            if last[name] != (self.N, result["final_norm_err"]):
                problems.append(f"{name}: last CSV row {last[name]} != JSON final_norm_err "
                                f"{result['final_norm_err']!r} at t={self.N}")
            final[name] = result["final_norm_err"]
        return problems, final


class DeepSingle:
    """One mismatched stream per round, one trial, ``dat`` and ``dft`` at
    depth 5, stepped through harness.run_stream; a mid-run snapshot is
    restored into a fresh learner, whose next prediction must be
    bit-identical.  Rounds cycle through STREAMS stream seeds, so that the
    normalized errors average over them."""

    name = "deep-single"
    lockstep = False
    N = 4000
    # At the configs' mu=5e-3, dat d5 diverges within a few hundred steps and
    # dft d5 within ~9k; these step sizes keep both finite over N steps.
    LEARNERS = [
        {"name": "dat", "kind": "dat", "depth": 5, "mu": 5e-4, "s_plus": 0.01},
        {"name": "dft", "kind": "dft", "depth": 5, "mu": 1e-4},
    ]
    OPS = len(LEARNERS)  # one pass over the stream per learner
    STREAMS = 4

    def __init__(self, seed: int, workdir: Path):
        self.stream = {**MISMATCHED_STREAM, "n": self.N}
        self.stream_seeds = [seed * self.STREAMS + j for j in range(self.STREAMS)]
        self.params = {"n": self.N, "stream_seeds": self.stream_seeds, "learners": self.LEARNERS,
                       "snapshot_at": self.N // 2}
        self._rounds = 0

    def setup(self) -> None:
        stream = harness.build_stream(self.stream, self.stream_seeds[0])
        for spec in self.LEARNERS:
            harness.make_learner(spec, stream.dim)

    def run_round(self, instrument) -> Round:
        trees.rho_table.cache_clear()
        stream_seed = self.stream_seeds[self._rounds % self.STREAMS]
        self._rounds += 1
        half = self.N // 2
        problems, norm_err = [], {}
        with installed(instrument):
            t0 = perf_counter()
            stream = harness.build_stream(self.stream, stream_seed)
            x_ext, targets = stream.extended, stream.targets
            seconds = perf_counter() - t0
            for spec in self.LEARNERS:
                try:
                    t0 = perf_counter()
                    learner = harness.make_learner(spec, stream.dim)
                    first = harness.run_stream(learner, x_ext[:half], targets[:half])
                    t1 = perf_counter()
                    problem = _snapshot_problem(learner, spec, stream.dim, x_ext[half])
                    t2 = perf_counter()
                    second = harness.run_stream(learner, x_ext[half:], targets[half:])
                    seconds += (t1 - t0) + (perf_counter() - t2)
                except harness.TrialDiverged as exc:
                    problems.append(f"{spec['name']} d{spec['depth']} seed {stream_seed}: {exc}")
                    continue
                if problem:
                    problems.append(problem)
                norm_err[spec["name"]] = float(np.mean(np.concatenate([first.e2, second.e2])))
        return Round(seconds, self.N * len(self.LEARNERS), self.OPS, problems,
                     norm_err=norm_err, fingerprint=tuple(sorted(norm_err.items())), key=stream_seed)


def _snapshot_problem(learner, spec: dict, dim: int, x_next) -> str | None:
    """Round-trip the learner's state through JSON into a fresh learner and
    compare the next prediction with the original's, bit for bit."""
    state = json.loads(json.dumps(learner.state_snapshot()))
    restored = type(learner)(dim=dim, **_learner_params(spec))
    restored.load_state(state)
    restored.t = learner.t
    # an unwrapped copy, so the check adds nothing to the original's counters
    reference = copy.deepcopy(learner)
    for attr, value in list(vars(reference).items()):
        if isinstance(value, types.FunctionType):
            delattr(reference, attr)
    want = reference.predict(x_next).y_hat
    got = restored.predict(x_next).y_hat
    if want.hex() != got.hex():
        return f"{spec['name']}: restored prediction {got!r} != {want!r} at step {learner.t}"
    return None


class OracleLockstep:
    """harness.verify_equivalence for dft and dat at depth 4 on the matched
    stream, the call behind ``pwltree verify`` with ``mu`` set: each gap must
    be <= 1e-9 and the collapsed learner must not diverge.  Rounds cycle through STREAMS
    stream seeds, so that the normalized errors average over them."""

    name = "oracle-lockstep"
    lockstep = True
    DEPTH = 4
    # At verify_equivalence's default mu=0.01, d4 learners diverge on about
    # one matched stream in a thousand (dft at step 69 on seed 3602, dat at
    # step 695 on seed 118); at 0.005 none did within 500 steps on seeds 0-5999.
    MU = 0.005
    STEPS = 500
    STREAMS = 16
    TOL = 1e-9
    MODES = ("dft", "dat")
    OPS = len(MODES)  # one verification per mode

    def __init__(self, seed: int, workdir: Path):
        self.stream_seeds = [seed * self.STREAMS + j for j in range(self.STREAMS)]
        self.params = {"depth": self.DEPTH, "steps": self.STEPS, "mu": self.MU, "stream": "matched",
                       "stream_seeds": self.stream_seeds, "modes": list(self.MODES), "tol": self.TOL}
        self._rounds = 0
        self._stream_seed = self.stream_seeds[0]

    def setup(self) -> None:
        # what verify_equivalence builds before its loop (s_plus at its default)
        generate("matched", self.STEPS, seed=self.stream_seeds[0])
        FixedTreeRegressor(self.DEPTH, 2, mu=self.MU)
        DirectMixtureRegressor(self.DEPTH, 2, mode="hard", mu=self.MU)
        AdaptiveTreeRegressor(self.DEPTH, 2, mu=self.MU, s_plus=0.01)
        DirectMixtureRegressor(self.DEPTH, 2, mode="soft", mu=self.MU, s_plus=0.01)

    def run_round(self, instrument) -> Round:
        trees.rho_table.cache_clear()
        # only the step clock sees a divergence, so a traced round repeats the
        # stream of the untraced round before it
        if isinstance(instrument, StepClock):
            self._stream_seed = self.stream_seeds[self._rounds % self.STREAMS]
            self._rounds += 1
        stream_seed = self._stream_seed
        seconds, gaps = 0.0, {}
        with installed(instrument):
            for mode in self.MODES:
                t0 = perf_counter()
                gaps[mode] = harness.verify_equivalence(mode, self.DEPTH, self.STEPS, stream_seed,
                                                        mu=self.MU)
                seconds += perf_counter() - t0
        # verify_equivalence skips NaN gaps, so divergence is read from the
        # errors the step clock kept
        norm_err = instrument.norm_err() if isinstance(instrument, StepClock) else {}
        problems = []
        for mode, gap in gaps.items():
            found = []
            if not gap <= self.TOL:
                found.append(f"gap {gap:.3e} > {self.TOL:.0e}")
            if not math.isfinite(norm_err.get(mode, 0.0)):
                found.append("collapsed learner diverged")
            if found:
                problems.append(f"{mode} d{self.DEPTH} seed {stream_seed}: " + ", ".join(found))
        return Round(seconds, self.STEPS * len(self.MODES), self.OPS, problems, norm_err=norm_err,
                     fingerprint=tuple(gaps.items()), key=stream_seed)


WORKLOADS = {w.name: w for w in (TrialsMismatched, DeepSingle, OracleLockstep)}
