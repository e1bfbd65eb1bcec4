"""Experiment runner: streams in, learners stepped sequentially, metrics out.

The harness owns the sequential protocol: for every step it records the
learner's prediction before the target is revealed, then lets the learner
update.  Metrics are per-step squared errors plus their running sum and
time-normalized average; trials differ only in the stream seed and are
averaged pointwise.

Every experiment that the CLI, the acceptance criteria and the demos run
goes through one of three runners: :func:`run_experiment` for a config's
learners over seeded trials, :func:`verify_equivalence` for a collapsed
learner in lockstep with the explicit mixture, and :func:`weight_regret`
for the combination-weight recursion against its best fixed weights.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .adaptive_tree import AdaptiveTreeRegressor
from .baselines import GaussianKernelRegressor, LinearFilter, VolterraFilter
from .datagen import CHAOTIC, PIECEWISE, Stream, generate
from .fixed_tree import FixedTreeRegressor
from .mixture import DirectMixtureRegressor, batch_best_weights, empirical_strong_convexity
from .trees import MAX_ENUMERATION_DEPTH, _integer

CONFIG_SCHEMA = 1
DIVERGENCE_LIMIT = 1e100


class ConfigError(ValueError):
    """Raised for malformed experiment configurations."""


class TrialDiverged(RuntimeError):
    """Raised when a learner's error stops being finite mid-trial."""


@dataclass
class RunMetrics:
    """Per-step squared errors of one run (or a pointwise trial average)."""

    e2: np.ndarray
    counters: dict = field(default_factory=dict)
    trials: int = 1

    def __len__(self) -> int:
        return len(self.e2)

    @property
    def cum_e2(self) -> np.ndarray:
        return np.cumsum(self.e2)

    @property
    def norm_err(self) -> np.ndarray:
        """Time-normalized accumulated squared error (1/t) sum of e^2."""
        return self.cum_e2 / np.arange(1, len(self.e2) + 1)

    @property
    def final_norm_err(self) -> float:
        return float(self.norm_err[-1])


def run_stream(learner, x_ext: np.ndarray, targets: np.ndarray) -> RunMetrics:
    """Strict predict-then-update loop over one stream.

    The prediction for step t is stored before ``update`` ever sees the
    target, so no learner can peek ahead.  Raises ValueError, before any
    step runs, when ``x_ext`` and ``targets`` differ in length or when an
    input or target is not finite (naming the first such step).  Then
    ``learner.features`` maps the whole stream once, and step t's
    ``predict`` and ``update`` read its row t.  Learners receive each
    target as a Python float.
    """
    if len(x_ext) != len(targets):
        raise ValueError(f"{len(x_ext)} input rows but {len(targets)} targets")
    targets = np.asarray(targets, dtype=float)
    bad = ~(np.isfinite(x_ext).all(axis=1) & np.isfinite(targets))
    if bad.any():
        raise ValueError(f"non-finite input or target at step {int(np.argmax(bad)) + 1}")
    rows = learner.features(x_ext)
    predict, update = learner.predict, learner.update
    preds = []
    for row, d in zip(rows, targets.tolist()):
        pred = predict(row)
        y = pred.y_hat
        # the comparison is false for NaN as well as for +-inf
        if not abs(y) <= DIVERGENCE_LIMIT:
            raise TrialDiverged(f"prediction diverged at step {len(preds) + 1}")
        preds.append(y)
        update(row, d, pred)
    counters = {}
    for name in ("regressor_evaluations", "kappa_accumulations"):
        if hasattr(learner, name):
            counters[name] = int(getattr(learner, name))
    return RunMetrics((targets - np.array(preds)) ** 2, counters=counters)


def average_metrics(runs: list[RunMetrics]) -> RunMetrics:
    """Pointwise mean over trials; counters are averaged too."""
    e2 = np.mean([r.e2 for r in runs], axis=0)
    counters = {}
    for key in runs[0].counters:
        counters[key] = float(np.mean([r.counters[key] for r in runs]))
    return RunMetrics(e2, counters=counters, trials=len(runs))


# ----------------------------------------------------------------------
# learner construction
# ----------------------------------------------------------------------

# the keys each learner kind takes besides name and kind; the stream sets dim
_LEARNER_KEYS = {"dft": ("depth", "mu", "boundaries"), "dat": ("depth", "mu", "s_plus", "theta"),
                 "direct": ("depth", "mode", "mu", "boundaries", "s_plus"), "lf": ("mu",),
                 "vf": ("mu",), "gkr": ("centers", "covariances", "mu")}


def _and(words) -> str:
    """``words`` listed as prose: ``a``, ``a and b``, ``a, b and c``."""
    return " and ".join(filter(None, [", ".join(words[:-1]), words[-1]]))


def _learner_params(spec: dict) -> tuple[str, dict]:
    """The kind of a learner's config entry and the keyword parameters it
    sets, or ConfigError when the kind is unknown or the entry holds a key
    that kind does not take (``dim`` included: the stream sets it)."""
    params = dict(spec)
    params.pop("name", None)
    kind = params.pop("kind", None)
    if not isinstance(kind, str) or kind not in _LEARNER_KEYS:
        raise ConfigError(f"unknown learner kind {kind!r}")
    unknown = sorted(set(params) - set(_LEARNER_KEYS[kind]))
    if unknown:
        raise ConfigError(f"cannot build learner kind {kind!r}: it takes only "
                          f"{_and(_LEARNER_KEYS[kind])}, not " + ", ".join(map(repr, unknown)))
    return kind, params


def make_learner(spec: dict, dim: int):
    """Build a learner from its config entry, once :func:`_learner_params`
    has checked its keys; each is passed as a keyword parameter."""
    kind, params = _learner_params(spec)
    try:
        if kind == "gkr":
            learner = GaussianKernelRegressor(**params)
            if learner.centers.shape[1] != dim:
                raise ValueError(f"centers must have {dim} coordinates, the stream's dim, "
                                 f"not {learner.centers.shape[1]}")
            return learner
        # looked up when called, so a class name rebound in this module is honoured
        return {"dft": FixedTreeRegressor, "dat": AdaptiveTreeRegressor, "lf": LinearFilter,
                "direct": DirectMixtureRegressor, "vf": VolterraFilter}[kind](dim=dim, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot build learner kind {kind!r}: {exc}") from exc


# ----------------------------------------------------------------------
# experiment configuration
# ----------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    stream: dict
    learners: list[dict]
    trials: int = 1
    seed: int = 0
    stride: int = 1
    output: str | None = None

    def __post_init__(self):
        for name in ("trials", "seed", "stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        # trial k is seeded with seed + k, and every trial seed keys a generator
        last = self.seed + self.trials - 1
        if self.seed < 0 or last >= 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64) to key the generator, got "
                              f"{self.seed if self.seed < 0 else last}: trial seeds run "
                              f"from {self.seed} to {last}")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output must be a string or null, got {self.output!r}")
        if not isinstance(self.learners, list) \
                or not all(isinstance(entry, dict) for entry in self.learners):
            raise ConfigError("learners must be a list of objects")
        if not self.learners:
            raise ConfigError("at least one learner is required")
        # a bad key is refused before any stream is drawn or learner built
        for entry in self.learners:
            _learner_params(entry)
        names = [entry.get("name") or entry.get("kind") for entry in self.learners]
        if len(set(names)) != len(names):
            raise ConfigError("learner names must be unique")
        if not isinstance(self.stream, dict) or "kind" not in self.stream:
            raise ConfigError("stream must be an object with a kind")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        raw = dict(raw)
        schema = raw.pop("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ConfigError(f"unsupported config schema {schema!r}")
        keys = [f.name for f in fields(cls)]
        unknown = sorted(set(raw) - set(keys))
        if unknown:
            raise ConfigError(f"a config takes only {_and(['schema', *keys])}, not "
                              + ", ".join(map(repr, unknown)))
        missing = [key for key in ("stream", "learners") if key not in raw]
        if missing:
            raise ConfigError(f"config requires {' and '.join(map(repr, missing))}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {"schema": CONFIG_SCHEMA, **asdict(self)}


# the keys each stream kind takes besides kind and normalize
_STREAM_KEYS = {"csv": ("path", "target"), **dict.fromkeys(PIECEWISE, ("n", "noise_var")),
                **dict.fromkeys(CHAOTIC, ("n",))}


def build_stream(spec: dict, seed: int) -> Stream:
    """Turn a stream spec into a :class:`Stream`; a malformed spec raises
    ConfigError.  A spec holds only the keys its kind takes: ``path`` and
    ``target`` for ``csv``, ``n`` for a generator, which is seeded with
    ``seed``, and ``noise_var`` for a piecewise one.  Any may set
    ``normalize`` (default on for ``csv``) to apply :func:`normalize_stream`."""
    if not isinstance(spec, dict):
        raise ConfigError(f"stream must be an object, got {type(spec).__name__}")
    params = dict(spec)
    kind = params.pop("kind", None)
    if not isinstance(kind, str) or kind not in _STREAM_KEYS:
        raise ConfigError(f"unknown stream kind {kind!r}")
    takes = [*_STREAM_KEYS[kind], "normalize"]
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise ConfigError(f"cannot build stream kind {kind!r}: it takes only {_and(takes)}, not "
                          + ", ".join(map(repr, unknown)))
    normalize = params.pop("normalize", kind == "csv")
    if not isinstance(normalize, bool):
        raise ConfigError(f"stream normalize must be true or false, got {normalize!r}")
    if kind == "csv":
        missing = [key for key in ("path", "target") if key not in params]
        if missing:
            raise ConfigError(f"csv stream requires {' and '.join(map(repr, missing))}")
        if not isinstance(params["path"], (str, os.PathLike)):
            raise ConfigError(f"csv stream path must be a string, got {params['path']!r}")
        stream = load_csv_dataset(params["path"], params["target"])
    else:
        n = params.pop("n", None)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"stream length n must be an integer >= 1, got {n!r}")
        stream = generate(kind, n, seed=seed, **params)
    return normalize_stream(stream) if normalize else stream


def normalize_stream(stream: Stream) -> Stream:
    """Map every input column and the target affinely onto [-1, 1] by
    their min/max over the whole stream (the offline preprocessing of the
    chaotic streams and CSV datasets).  A constant column maps to 0 with a
    warning naming it ``x<j>`` or ``d``, as ``stream_to_csv`` heads it."""
    cols = [_normalize_column(stream.inputs[:, j], f"x{j + 1}") for j in range(stream.dim)]
    return Stream(np.column_stack(cols), _normalize_column(stream.targets, "d"))


def _normalize_column(col: np.ndarray, name: str) -> np.ndarray:
    lo, hi = float(col.min()), float(col.max())
    if hi == lo:
        warnings.warn(f"column {name!r} is constant; normalized to 0")
        return np.zeros_like(col)
    return 2.0 * (col - lo) / (hi - lo) - 1.0


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: dict[str, RunMetrics]
    failures: list[str] = field(default_factory=list)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every configured learner over ``trials`` freshly seeded streams
    (seed = base seed + trial index) and average the metrics pointwise."""
    per_learner: dict[str, list[RunMetrics]] = {}
    failures: list[str] = []
    for trial in range(config.trials):
        stream = build_stream(config.stream, config.seed + trial)
        x_ext = stream.extended
        # every entry is built before any learner steps, so a bad one
        # throws no finished run away
        learners = [(entry.get("name") or entry["kind"], make_learner(entry, stream.dim))
                    for entry in config.learners]
        for name, learner in learners:
            try:
                metrics = run_stream(learner, x_ext, stream.targets)
            except TrialDiverged as exc:
                failures.append(f"trial {trial} learner {name}: {exc}")
                continue
            per_learner.setdefault(name, []).append(metrics)
    if not per_learner:
        raise TrialDiverged("every trial diverged: " + "; ".join(failures))
    averaged = {name: average_metrics(runs) for name, runs in per_learner.items()}
    return ExperimentResult(config, averaged, failures)


# ----------------------------------------------------------------------
# metric output
# ----------------------------------------------------------------------

def write_metrics_csv(metrics: dict[str, RunMetrics], path, stride: int = 1,
                      start: int = 0) -> None:
    """Long-format CSV of ``{name: RunMetrics}`` every ``stride`` steps: t,
    learner, e2, cum_e2, norm_err.  The final step of a non-empty run is
    always included.  Row ``t`` of a run is written as step
    ``start + t + 1``, so a segment resumed at stream position ``start``
    keeps its stream step numbers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "learner", "e2", "cum_e2", "norm_err"])
        for name, run in metrics.items():
            cum = run.cum_e2
            norm = run.norm_err
            n = len(run)
            rows = sorted(set(range(stride - 1, n, stride)) | {n - 1}) if n else []
            for t in rows:
                writer.writerow([start + t + 1, name, repr(float(run.e2[t])),
                                 repr(float(cum[t])), repr(float(norm[t]))])


def write_summary_json(result: ExperimentResult, path) -> None:
    summary = {
        "schema": CONFIG_SCHEMA,
        "config": result.config.to_dict(),
        "failures": result.failures,
        "results": {
            name: {
                "n": len(metrics),
                "trials": metrics.trials,
                "final_cum_e2": float(metrics.cum_e2[-1]),
                "final_norm_err": metrics.final_norm_err,
                "counters": metrics.counters,
            }
            for name, metrics in result.metrics.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# external datasets
# ----------------------------------------------------------------------

def load_csv_dataset(path, target_column) -> Stream:
    """Read a rectangular, finite, numeric CSV (header row required) as a
    raw stream, or raise ValueError.  ``target_column`` picks the response
    by name or 0-based index; the other columns, in file order, become
    the regressor."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header is None:
        raise ValueError(f"{path} has no header row")
    if not rows:
        raise ValueError("dataset has no data rows")
    for row_no, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"row of {len(row)} cells under a header of {len(header)} in "
                             f"{path}: data row {row_no} (line {row_no + 1})")
    try:
        data = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ValueError(f"non-numeric cell in {path}: {exc}") from exc
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"non-finite cell {rows[row][col]!r} in {path}: data row {row + 1} "
                         f"(line {row + 2}), column {header[col]!r}")
    if isinstance(target_column, str) and target_column in header:
        target_idx = header.index(target_column)
    elif not isinstance(target_column, bool) and isinstance(target_column, int) \
            and 0 <= target_column < len(header):
        target_idx = target_column
    else:
        raise ValueError(f"target column {target_column!r} is neither a name in header "
                         f"{header} nor a 0-based index below {len(header)}")
    input_idx = [i for i in range(data.shape[1]) if i != target_idx]
    return Stream(data[:, input_idx], data[:, target_idx])


# ----------------------------------------------------------------------
# verification (collapsed learner vs direct mixture)
# ----------------------------------------------------------------------

def verify_equivalence(mode: str, depth: int, steps: int, seed: int, mu: float = 0.01) -> float:
    """Run a collapsed learner and the explicit mixture in lockstep on a
    matched stream and return the worst relative prediction gap
    ``|a - b| / (1 + |b|)`` over the run, or ``inf`` as soon as either
    prediction stops being finite (a diverged run verifies nothing).  The
    depth must be one the explicit mixture enumerates, ``[0,
    MAX_ENUMERATION_DEPTH]``; another raises ValueError naming that range.
    ``steps`` (an integer >= 1), ``depth`` and ``mode`` (``dft`` or
    ``dat``) are checked before the stream is drawn."""
    if _integer(steps, "steps") < 1:
        raise ValueError(f"verify needs at least one step, got {steps}")
    depth = _integer(depth, "depth")
    if not 0 <= depth <= MAX_ENUMERATION_DEPTH:
        raise ValueError(f"verify depth must be in [0, {MAX_ENUMERATION_DEPTH}], got {depth}")
    if mode not in ("dft", "dat"):
        raise ConfigError(f"unknown verify mode {mode!r}")
    stream = generate("matched", steps, seed=seed)
    hard = mode == "dft"
    fast = (FixedTreeRegressor if hard else AdaptiveTreeRegressor)(depth, stream.dim, mu=mu)
    slow = DirectMixtureRegressor(depth, stream.dim, mode="hard" if hard else "soft", mu=mu)
    worst = 0.0
    for x, d in zip(stream.extended, stream.targets.tolist()):
        y_fast, _ = fast.step(x, d)
        y_slow, _ = slow.step(x, d)
        if not (math.isfinite(y_fast) and math.isfinite(y_slow)):
            return math.inf
        gap = abs(y_fast - y_slow) / (1.0 + abs(y_slow))
        if gap > worst:
            worst = gap
    return worst


def weight_regret(seed: int) -> dict[int, float]:
    """Regret ``R_n`` of the combination-weight recursion against the best
    fixed weights in hindsight, at ``n`` = 10^3, 10^4 and 10^5 steps of the
    matched stream seeded with ``seed``.

    A depth-1 tree split on the first axis is the largest configuration
    whose per-partition estimates are not structurally collinear (for any
    depth >= 2 the estimate sums of partition pairs coincide identically,
    so the strong-convexity premise of the decaying schedule is
    unattainable there).  Constituent regressors train during a warm-up of
    1000 steps and are then frozen; the combination weights follow the
    step ``2 / (lambda t)``, with ``lambda`` the smallest eigenvalue of the
    estimates' second-moment matrix over the second half of the warm-up.
    """
    warmup, n_max = 1000, 100_000
    stream = generate("matched", n_max + warmup, seed=seed)
    x_ext, targets = stream.extended, stream.targets
    lrn = DirectMixtureRegressor(1, 2, mode="hard", mu=0.01, boundaries=[[0.0, -1.0, 0.0]])
    warm = np.empty((warmup, 2))
    for t in range(warmup):
        pred = lrn.predict(x_ext[t])
        warm[t] = pred.model_estimates
        lrn.update(x_ext[t], targets[t], pred)
    lam = empirical_strong_convexity(warm[warmup // 2:])
    w = lrn.w_vec.copy()
    feats = np.empty((n_max, 2))
    e2 = np.empty(n_max)
    tail = targets[warmup:]
    for t in range(n_max):
        d_vec = lrn.predict(x_ext[warmup + t]).model_estimates
        feats[t] = d_vec
        e = tail[t] - float(w @ d_vec)
        e2[t] = e * e
        w += (2.0 / (lam * (t + 1))) * e * d_vec
    regret = {}
    for n in (1000, 10_000, 100_000):
        w_star = batch_best_weights(feats[:n], tail[:n])
        best = float(np.sum((tail[:n] - feats[:n] @ w_star) ** 2))
        regret[n] = float(np.sum(e2[:n])) - best
    return regret
