"""Command-line front end.

Subcommands
-----------
run       run an experiment config (JSON) and write metrics CSV + summary
verify    read an experiment config as run does and step each of its dft
          and dat learners in lockstep with the explicit mixture built
          from the same entry, over every trial's stream; exits 2 when
          any per-step gap exceeds the tolerance or a prediction stops
          being finite
gen       write a synthetic stream to CSV
snapshot  run a one-learner config partway through its stream and save a
          resumable snapshot: the config, the position and the learner state
restore   resume from a snapshot and continue, writing continuation metrics
          and, when asked, the snapshot at the new position

Exit codes: 0 success, 1 configuration error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import datagen, harness
from .trees import _integer, _real

SNAPSHOT_SCHEMA = 5  # 5: the summed e2 of the steps taken beside the config, position and state
# the keys a snapshot holds, each required
_SNAPSHOT_KEYS = dict.fromkeys(("schema", "config", "position", "cum_e2", "state"), True)


class _StreamFault(ValueError):
    """A fault of a stream's data, found when the stream is built: ``restore``
    prints it as ``run`` does, not as a fault of the snapshot."""


def _fail(message: str, code: int = 1) -> int:
    print(f"pwltree: {message}", file=sys.stderr)
    return code


def _check_out_dirs(*paths) -> None:
    """Raise ConfigError, before any work is done, when the directory of
    an output path does not exist."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise harness.ConfigError(f"cannot write {path}: no directory {Path(path).parent}")


def _cmd_run(args) -> int:
    try:
        config = harness.ExperimentConfig.from_file(args.config)
        prefix = args.out or config.output or Path(args.config).stem
        metrics_path = f"{prefix}_metrics.csv"
        summary_path = f"{prefix}_summary.json"
        _check_out_dirs(metrics_path)
        result = harness.run_experiment(config)
    except (OSError, ValueError, harness.TrialDiverged) as exc:
        return _fail(str(exc))
    harness.write_metrics_csv(result.metrics, metrics_path, stride=config.stride)
    harness.write_summary_json(result, summary_path)
    for name, metrics in result.metrics.items():
        print(f"{name}: final normalized error {metrics.final_norm_err:.6g} "
              f"over {len(metrics)} steps ({metrics.trials} trials)")
    for failure in result.failures:
        print(f"warning: {failure}", file=sys.stderr)
    print(f"wrote {metrics_path} and {summary_path}")
    return 0


def _cmd_verify(args) -> int:
    # a NaN tolerance would pass every gap, an infinite one every finite gap
    if not 0.0 <= args.tol < math.inf:
        return _fail(f"--tol must be a finite number >= 0, got {args.tol}")
    try:
        gaps = harness.verify_config(harness.ExperimentConfig.from_file(args.config))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    code = 0
    for name, gap in gaps.items():
        print(f"{name}: max per-step relative gap {gap:.3e}")
        if not gap <= args.tol:
            code = _fail(f"{name}: gap {gap:.3e} exceeds tolerance {args.tol:.1e}", code=2)
    return code


def _cmd_gen(args) -> int:
    params = {}
    if args.noise_var is not None:
        params["noise_var"] = args.noise_var
    try:
        _check_out_dirs(args.out)
        stream = harness.build_stream({"kind": args.kind, "n": args.n, **params}, args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    datagen.stream_to_csv(stream, args.out)
    print(f"wrote {len(stream)} rows to {args.out}")
    return 0


def _run_segment(config: harness.ExperimentConfig, start: int, steps: int, state=None,
                 prior_e2: float = 0.0):
    """Build the stream and the one learner of ``config``, load ``state``
    into the learner when given, and step it through ``steps`` stream
    steps from ``start``, after steps whose squared errors summed to
    ``prior_e2``.  A config of more than one learner or trial, or
    of a learner kind without a state (any but ``dft`` and ``dat``), is
    refused before the stream is drawn, and a fault of the stream's data
    raises ``_StreamFault``.  Returns the learner and the segment's
    metrics."""
    if len(config.learners) != 1:
        raise harness.ConfigError(f"snapshots support one learner only, not {len(config.learners)}")
    if config.trials != 1:
        raise harness.ConfigError(f"snapshots support one trial only, not {config.trials}")
    spec = config.learners[0]
    if spec["kind"] not in ("dft", "dat"):
        raise harness.ConfigError(f"snapshots support tree learners only, not {spec['kind']!r}")
    try:
        stream = harness.build_stream(config.stream, config.seed)
    except ValueError as exc:
        raise _StreamFault(exc) from exc
    stop = start + steps
    if not 0 <= start <= stop <= len(stream):
        raise harness.ConfigError(f"stream has {len(stream)} steps; cannot run {steps} steps "
                                  f"from position {start}")
    learner = harness.make_learner(spec, stream.dim)
    if state is not None:
        learner.load_state(state)
    metrics = harness.run_stream(learner, stream.extended[start:stop], stream.targets[start:stop])
    metrics.start, metrics.prior_e2 = start, prior_e2
    return learner, metrics


def _write_segment(config, learner, metrics, out, metrics_path) -> None:
    """Write, for a segment run from stream position ``metrics.start``, the
    snapshot after it to ``out`` and its metrics, one row per step
    numbered from ``metrics.start + 1`` and filed as ``run`` files them,
    with running columns that continue the steps before it, to
    ``metrics_path``; each only when its path is given."""
    if out:
        cum_e2 = float(metrics.cum_e2[-1]) if len(metrics) else metrics.prior_e2
        harness.write_json({"schema": SNAPSHOT_SCHEMA, "config": config.to_dict(),
                            "position": metrics.start + len(metrics), "cum_e2": cum_e2,
                            "state": learner.state_snapshot()}, out)
    if metrics_path:
        harness.write_metrics_csv({harness._learner_name(config.learners[0]): metrics},
                                  metrics_path)


def _cmd_snapshot(args) -> int:
    try:
        config = harness.ExperimentConfig.from_file(args.config)
        _check_out_dirs(args.out, args.metrics)
        learner, metrics = _run_segment(config, 0, args.steps)
    except (OSError, ValueError, harness.TrialDiverged) as exc:
        return _fail(str(exc))
    _write_segment(config, learner, metrics, args.out, args.metrics)
    print(f"snapshot after {args.steps} steps written to {args.out}")
    return 0


def _cmd_restore(args) -> int:
    try:
        _check_out_dirs(args.metrics, args.out)
        with open(args.snapshot) as fh:
            snapshot = json.load(fh)
    except harness.ConfigError as exc:
        return _fail(str(exc))
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read snapshot: {exc}")
    if not isinstance(snapshot, dict):
        return _fail(f"malformed snapshot: expected a JSON object, got {type(snapshot).__name__}")
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        return _fail(f"unsupported snapshot schema {snapshot.get('schema')!r} "
                     f"(this version reads schema {SNAPSHOT_SCHEMA})")
    try:
        harness._check_keys("a snapshot", snapshot, _SNAPSHOT_KEYS)
        position = _integer(snapshot["position"], "position", 0)
        prior_e2 = _real(snapshot["cum_e2"], "cum_e2", lambda v: 0 <= v < math.inf,
                         "be a finite number >= 0")
        config = harness.ExperimentConfig.from_dict(snapshot["config"])
        learner, metrics = _run_segment(config, position, args.steps, snapshot["state"],
                                        prior_e2)
    except (_StreamFault, OSError) as exc:  # the data's fault, not the snapshot's
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(f"malformed snapshot: {exc}")
    except harness.TrialDiverged as exc:
        return _fail(f"{exc} after position {position}")
    _write_segment(config, learner, metrics, args.out, args.metrics)
    print(f"continued {args.steps} steps from position {position}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwltree",
                                     description="tree-partition mixture regressors")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="JSON experiment config")
    p_run.add_argument("--out", help="output prefix (default: config stem)")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="check collapsed vs explicit mixture")
    p_verify.add_argument("config", help="JSON experiment config with a dft or dat learner")
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="write a synthetic stream to CSV")
    p_gen.add_argument("kind", choices=sorted(datagen.KINDS))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--noise-var", type=float, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_snap = sub.add_parser("snapshot", help="run partway and save resumable state")
    p_snap.add_argument("config", help="JSON experiment config of one dft or dat learner")
    p_snap.add_argument("--steps", type=int, required=True, help="steps to run before saving")
    p_snap.add_argument("--out", required=True, help="snapshot JSON path")
    p_snap.add_argument("--metrics", help="optional CSV of the pre-snapshot segment")
    p_snap.set_defaults(func=_cmd_snapshot)

    p_restore = sub.add_parser("restore", help="resume from a snapshot")
    p_restore.add_argument("--snapshot", required=True)
    p_restore.add_argument("--steps", type=int, required=True)
    p_restore.add_argument("--metrics", help="CSV of the continuation segment")
    p_restore.add_argument("--out", help="optional snapshot JSON at the final position")
    p_restore.set_defaults(func=_cmd_restore)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
