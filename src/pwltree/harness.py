"""Experiment runner: streams in, learners stepped sequentially, metrics out.

The harness owns the sequential protocol: for every step it records the
learner's prediction before the target is revealed, then lets the learner
update.  Metrics are per-step squared errors plus their running sum and
time-normalized average; trials differ only in the stream seed and are
averaged pointwise.

Every experiment that the CLI, the acceptance criteria and the demos run
goes through one of three runners: :func:`run_experiment` for a config's
learners over seeded trials, :func:`verify_config` for a config's tree
learners, each in lockstep with the explicit mixture built from its entry
over the same streams (:func:`verify_equivalence` is its one-learner form
on the matched stream), and :func:`weight_regret` for the
combination-weight recursion against its best fixed weights.

A config is checked whole when it is read, before any stream is drawn or
learner built.  One key rule serves its three kinds of object, the top
level, the stream spec and each learner entry: each has a table of the
keys it takes, read from ``ExperimentConfig``'s fields, written per stream
kind, or read from the learner's constructor, and a key outside the table
or a required key left out is refused in one form, ``... takes only a, b
and c, not 'x'`` or ``... requires 'y'``.  Its integer settings
(``trials``, ``seed``, ``stride``, a stream's ``n``), a learner's
``depth`` and a snapshot's ``position``, ``depth`` and ``t`` are checked
by ``trees._integer``.  ``pwltree snapshot`` and ``pwltree verify`` read
their experiment as ``run`` does, and a snapshot file carries that config
for ``restore``.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .adaptive_tree import AdaptiveTreeRegressor
from .baselines import GaussianKernelRegressor, LinearFilter, VolterraFilter
from .datagen import CHAOTIC, PIECEWISE, Stream, _noise_var, generate
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
    """Per-step squared errors of one run (or a pointwise trial average).
    A run resumed partway through its stream starts after ``start`` stream
    steps, whose squared errors summed to ``prior_e2``; its running columns
    continue from them."""

    e2: np.ndarray
    counters: dict = field(default_factory=dict)
    trials: int = 1
    start: int = 0
    prior_e2: float = 0.0

    def __len__(self) -> int:
        return len(self.e2)

    @property
    def cum_e2(self) -> np.ndarray:
        """Running sum of e^2 over the stream, one sequential sum from
        ``prior_e2``, so a resumed run's sums are a straight run's bits."""
        return np.cumsum(np.concatenate(([self.prior_e2], self.e2)))[1:]

    @property
    def norm_err(self) -> np.ndarray:
        """Time-normalized accumulated squared error (1/t) sum of e^2, t
        the stream step."""
        return self.cum_e2 / np.arange(self.start + 1, self.start + len(self.e2) + 1)

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

# the class each learner kind is built by, named as in this module:
# make_learner looks it up when called, so a class name rebound here is honoured
_LEARNER_CLASSES = {"dft": "FixedTreeRegressor", "dat": "AdaptiveTreeRegressor",
                    "direct": "DirectMixtureRegressor", "lf": "LinearFilter",
                    "vf": "VolterraFilter", "gkr": "GaussianKernelRegressor"}
# the keys each kind takes besides name and kind, read from its constructor
# in its order (the stream sets dim), each mapped to whether the kind
# requires it: a parameter without a default
_LEARNER_KEYS = {kind: {key: param.default is param.empty
                        for key, param in inspect.signature(globals()[cls]).parameters.items()
                        if key != "dim"}
                 for kind, cls in _LEARNER_CLASSES.items()}


def _and(words) -> str:
    """``words`` listed as prose: ``a``, ``a and b``, ``a, b and c``."""
    return " and ".join(filter(None, [", ".join(words[:-1]), words[-1]]))


def _check_keys(what: str, spec: dict, table: dict) -> None:
    """Raise ConfigError when ``spec`` holds a key that ``table`` lacks,
    ``{what} takes only <table's keys>, not <the unknown keys>``, or lacks
    one that ``table`` maps to True, ``{what} requires <the missing keys>``."""
    unknown = sorted(set(spec) - set(table))
    if unknown:
        raise ConfigError(f"{what} takes only {_and(list(table))}, not "
                          + ", ".join(map(repr, unknown)))
    missing = [repr(key) for key, required in table.items() if required and key not in spec]
    if missing:
        raise ConfigError(f"{what} requires {_and(missing)}")


def _learner_params(spec: dict) -> tuple[str, dict]:
    """The kind of a learner's config entry and the keyword parameters it
    sets, or ConfigError when the kind is unknown, the entry holds a key
    that kind does not take (``dim`` included: the stream sets it) or
    lacks one that it requires."""
    params = dict(spec)
    params.pop("name", None)
    kind = params.pop("kind", None)
    if not isinstance(kind, str) or kind not in _LEARNER_KEYS:
        raise ConfigError(f"unknown learner kind {kind!r}")
    _check_keys(f"cannot build learner kind {kind!r}: it", params, _LEARNER_KEYS[kind])
    return kind, params


def _learner_name(entry: dict) -> str:
    """The name a checked learner entry's metrics are filed under: its
    ``name``, which must be a non-empty string, or else its kind."""
    name = entry.get("name", entry["kind"])
    if not isinstance(name, str) or not name:
        raise ConfigError(f"learner name must be a non-empty string, got {name!r}")
    return name


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
        return globals()[_LEARNER_CLASSES[kind]](dim=dim, **params)
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
        self.trials = _integer(self.trials, "trials", 1, ConfigError)
        self.seed = _integer(self.seed, "seed", error=ConfigError)
        self.stride = _integer(self.stride, "stride", 1, ConfigError)
        # trial k is seeded with seed + k, and every trial seed keys a generator
        last = self.seed + self.trials - 1
        if self.seed < 0 or last >= 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64) to key the generator, got "
                              f"{self.seed if self.seed < 0 else last}: trial seeds run "
                              f"from {self.seed} to {last}")
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
        names = list(map(_learner_name, self.learners))
        if len(set(names)) != len(names):
            raise ConfigError("learner names must be unique")
        _stream_params(self.stream)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        raw = dict(raw)
        schema = raw.pop("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ConfigError(f"unsupported config schema {schema!r}")
        _check_keys("a config", raw, _CONFIG_KEYS)
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


# the top-level keys a config takes, each mapped to whether it is required:
# a field without a default
_CONFIG_KEYS = {"schema": False,
                **{f.name: f.default is MISSING for f in fields(ExperimentConfig)}}
# the keys each stream kind takes besides kind, each mapped to whether it is required
_STREAM_KEYS = {"csv": {"path": True, "target": True, "normalize": False},
                **dict.fromkeys(PIECEWISE, {"n": True, "noise_var": False, "normalize": False}),
                **dict.fromkeys(CHAOTIC, {"n": True, "normalize": False})}


def _stream_params(spec: dict) -> tuple[str, dict, bool]:
    """The kind of a stream spec, the parameters it passes to its generator
    or loader, and whether it is normalized; ConfigError when the spec is
    not an object, its kind is unknown, it holds a key that kind does not
    take or lacks one that it requires, its ``n`` is not an integer >= 1,
    its ``noise_var`` is not a finite number >= 0, its ``normalize`` is not
    true or false, or its csv ``path`` is not a string or its ``target``
    neither a string nor an integer >= 0."""
    if not isinstance(spec, dict):
        raise ConfigError(f"stream must be an object, got {type(spec).__name__}")
    params = dict(spec)
    kind = params.pop("kind", None)
    if not isinstance(kind, str) or kind not in _STREAM_KEYS:
        raise ConfigError(f"unknown stream kind {kind!r}")
    _check_keys(f"cannot build stream kind {kind!r}: it", params, _STREAM_KEYS[kind])
    normalize = params.pop("normalize", kind == "csv")
    if not isinstance(normalize, bool):
        raise ConfigError(f"stream normalize must be true or false, got {normalize!r}")
    if kind != "csv":
        _integer(params["n"], "stream length n", 1, ConfigError)
        if "noise_var" in params:
            _noise_var(params["noise_var"], ConfigError)
    elif not isinstance(params["path"], (str, os.PathLike)):
        raise ConfigError(f"csv stream path must be a string, got {params['path']!r}")
    elif not _is_target(params["target"]):
        raise ConfigError(f"csv stream target must be a column name or a 0-based index, "
                          f"got {params['target']!r}")
    return kind, params, normalize


def build_stream(spec: dict, seed: int) -> Stream:
    """Turn a stream spec into a :class:`Stream` once :func:`_stream_params`
    has checked it; a malformed spec raises ConfigError.  A spec holds only
    the keys its kind takes: ``path`` and ``target`` for ``csv``, ``n`` for
    a generator, which is seeded with ``seed``, and ``noise_var`` for a
    piecewise one.  Any may set ``normalize`` (default on for ``csv``) to
    apply :func:`normalize_stream`."""
    kind, params, normalize = _stream_params(spec)
    if kind == "csv":
        stream = load_csv_dataset(params["path"], params["target"])
    else:
        stream = generate(kind, seed=seed, **params)
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
        learners = [(_learner_name(entry), make_learner(entry, stream.dim))
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

def write_metrics_csv(metrics: dict[str, RunMetrics], path, stride: int = 1) -> None:
    """Long-format CSV of ``{name: RunMetrics}`` every ``stride`` steps: t,
    learner, e2, cum_e2, norm_err.  The final step of a non-empty run is
    always included.  Row ``t`` of a run is written as step
    ``run.start + t + 1``, so a run resumed partway through its stream
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
                writer.writerow([run.start + t + 1, name, repr(float(run.e2[t])),
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
    write_json(summary, path)


def write_json(obj, path) -> None:
    """Write ``obj`` to ``path`` as indented JSON with sorted keys, numpy
    scalars and arrays as their ``tolist()``.  The whole text is encoded
    before the file is opened, so a value JSON cannot hold raises
    TypeError and leaves no file."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_plain)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _plain(value):
    """``value``, a numpy scalar or array, as plain Python values for JSON;
    TypeError for anything else, as ``json`` raises it."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ----------------------------------------------------------------------
# external datasets
# ----------------------------------------------------------------------

def _is_target(target, header=None) -> bool:
    """Whether ``target`` can pick a csv column: a string or an integer
    >= 0 (booleans excluded) and, given the ``header``, a name in it or an
    index below its length."""
    if isinstance(target, str):
        return header is None or target in header
    return (not isinstance(target, bool) and isinstance(target, int)
            and 0 <= target < (math.inf if header is None else len(header)))


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
    if not _is_target(target_column, header):
        raise ValueError(f"target column {target_column!r} is neither a name in header "
                         f"{header} nor a 0-based index below {len(header)}")
    target_idx = header.index(target_column) if isinstance(target_column, str) else target_column
    input_idx = [i for i in range(data.shape[1]) if i != target_idx]
    return Stream(data[:, input_idx], data[:, target_idx])


# ----------------------------------------------------------------------
# verification (collapsed learner vs direct mixture)
# ----------------------------------------------------------------------

def verify_equivalence(mode: str, depth: int, steps: int, seed: int, mu: float = 0.01) -> float:
    """The worst gap :func:`verify_config` finds for one collapsed learner,
    ``mode`` (``dft`` or ``dat``) of ``depth`` and step size ``mu``, over
    ``steps`` steps of the matched stream seeded with ``seed``; each value
    is checked as a config's is."""
    config = ExperimentConfig({"kind": "matched", "n": steps},
                              [{"kind": mode, "depth": depth, "mu": mu}], seed=seed)
    return verify_config(config)[mode]


def verify_config(config: ExperimentConfig) -> dict[str, float]:
    """Step every ``dft`` and ``dat`` learner of ``config`` in lockstep with
    an explicit mixture built from the same entry, over every stream
    :func:`run_experiment` would step, and return each learner's worst
    relative prediction gap ``|a - b| / (1 + |b|)``, or ``inf`` once
    either prediction stops being finite (a diverged run verifies nothing).
    Its other learners are not stepped.  A config without a ``dft`` or
    ``dat`` learner, or with one deeper than the explicit mixture
    enumerates, ``MAX_ENUMERATION_DEPTH``, is refused before any stream is
    drawn."""
    entries = {_learner_name(e): e for e in config.learners if e["kind"] in ("dft", "dat")}
    if not entries:
        raise ConfigError("verify needs a dft or dat learner, not only "
                          + _and([repr(_learner_name(e)) for e in config.learners]))
    for name, entry in entries.items():
        if not 0 <= _integer(entry["depth"], "depth", error=ConfigError) <= MAX_ENUMERATION_DEPTH:
            raise ConfigError(f"cannot verify learner {name!r}: depth must be in "
                              f"[0, {MAX_ENUMERATION_DEPTH}], got {entry['depth']}")
    worst = dict.fromkeys(entries, 0.0)
    for seed in range(config.seed, config.seed + config.trials):
        stream = build_stream(config.stream, seed)
        for name, entry in entries.items():
            kind, params = _learner_params(entry)
            fast = make_learner(entry, stream.dim)
            # the oracle takes the entry's parameters as they are, but the
            # collapsed learner's mu, since dat's default is not the oracle's
            slow = DirectMixtureRegressor(dim=stream.dim, mode="hard" if kind == "dft" else "soft",
                                          **{**params, "mu": fast.mu})
            for x, d in zip(fast.features(stream.extended), stream.targets.tolist()):
                y_fast, _ = fast.step(x, d)
                y_slow, _ = slow.step(x, d)
                if not (math.isfinite(y_fast) and math.isfinite(y_slow)):
                    worst[name] = math.inf
                    break
                worst[name] = max(worst[name], abs(y_fast - y_slow) / (1.0 + abs(y_slow)))
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
    lrn = DirectMixtureRegressor(1, 2, mode="hard", mu=0.01, theta=[[0.0, -1.0, 0.0]])
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
