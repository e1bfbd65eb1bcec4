"""Command-line front end.

Subcommands
-----------
run       run an experiment config (JSON) and write metrics CSV + summary
verify    lockstep check of a collapsed learner against the explicit
          mixture; exits 2 when any per-step gap exceeds the tolerance
          or a prediction stops being finite
gen       write a synthetic stream to CSV
snapshot  run a tree learner partway through a stream and save a resumable
          state file
restore   resume from a snapshot and continue, writing continuation metrics

Exit codes: 0 success, 1 configuration error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import datagen, harness

SNAPSHOT_SCHEMA = 3  # 3: the learner state holds heap-ordered w/v/theta arrays


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
    try:
        gap = harness.verify_equivalence(args.mode, args.depth, args.steps, args.seed)
    except (harness.ConfigError, ValueError) as exc:
        return _fail(str(exc))
    print(f"max per-step relative gap over {args.steps} steps (depth {args.depth}, "
          f"{args.mode}): {gap:.3e}")
    if gap > args.tol:
        return _fail(f"gap {gap:.3e} exceeds tolerance {args.tol:.1e}", code=2)
    return 0


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


def _run_segment(spec: dict, stream, start: int, steps: int, snapshot=None):
    """Build the tree learner ``spec`` names, restore ``snapshot`` into it
    when given, and step it through ``steps`` stream steps from ``start``.
    Returns the learner and the segment's metrics."""
    if spec.get("kind") not in ("dft", "dat"):
        raise harness.ConfigError(f"snapshots support tree learners only, not {spec.get('kind')!r}")
    stop = start + steps
    if not 0 <= start <= stop <= len(stream):
        raise harness.ConfigError(f"stream has {len(stream)} steps; cannot run {steps} steps "
                                  f"from position {start}")
    learner = harness.make_learner(spec, stream.dim)
    if snapshot is not None:
        learner.load_state(snapshot["state"])
    metrics = harness.run_stream(learner, stream.extended[start:stop], stream.targets[start:stop])
    return learner, metrics


def _cmd_snapshot(args) -> int:
    spec = {"kind": args.mode, "depth": args.depth, "mu": args.mu}
    if args.mode == "dat":
        spec["s_plus"] = args.s_plus
    stream_spec = {"kind": args.stream, "n": args.n}
    try:
        _check_out_dirs(args.out, args.metrics)
        stream = harness.build_stream(stream_spec, args.seed)
        learner, metrics = _run_segment(spec, stream, 0, args.steps)
    except (ValueError, harness.TrialDiverged) as exc:
        return _fail(str(exc))
    snapshot = {
        "schema": SNAPSHOT_SCHEMA,
        "learner": spec,
        "state": learner.state_snapshot(),
        "stream": stream_spec,
        "seed": args.seed,
        "position": args.steps,
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    if args.metrics:
        harness.write_metrics_csv({args.mode: metrics}, args.metrics)
    print(f"snapshot after {args.steps} steps written to {args.out}")
    return 0


def _cmd_restore(args) -> int:
    try:
        _check_out_dirs(args.metrics, args.state_out)
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
        if not isinstance(snapshot["learner"], dict):
            raise ValueError(f"learner must be an object, got {type(snapshot['learner']).__name__}")
        position, seed = snapshot["position"], snapshot["seed"]
        if isinstance(position, bool) or not isinstance(position, int) or position < 0:
            raise ValueError(f"position must be an integer >= 0, got {position!r}")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        stream = harness.build_stream(snapshot["stream"], seed)
        learner, metrics = _run_segment(snapshot["learner"], stream, position, args.steps,
                                        snapshot)
    except (ValueError, KeyError) as exc:
        return _fail(f"malformed snapshot: {exc}")
    except harness.TrialDiverged as exc:
        return _fail(f"{exc} after position {position}")
    if args.metrics:
        harness.write_metrics_csv({snapshot["learner"]["kind"]: metrics}, args.metrics,
                                  start=position)
    if args.state_out:
        with open(args.state_out, "w") as fh:
            json.dump(learner.state_snapshot(), fh, indent=2)
            fh.write("\n")
    print(f"continued {args.steps} steps from position {position}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwltree",
                                     description="tree-partition mixture regressors")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = harness.default_seed()

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="JSON experiment config")
    p_run.add_argument("--out", help="output prefix (default: config stem)")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="check collapsed vs explicit mixture")
    p_verify.add_argument("--depth", type=int, required=True)
    p_verify.add_argument("--steps", type=int, required=True)
    p_verify.add_argument("--mode", choices=("dft", "dat"), required=True)
    p_verify.add_argument("--seed", type=int, default=seed)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="write a synthetic stream to CSV")
    p_gen.add_argument("kind", choices=sorted(datagen.GENERATORS))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=seed)
    p_gen.add_argument("--noise-var", type=float, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_snap = sub.add_parser("snapshot", help="run partway and save resumable state")
    p_snap.add_argument("--mode", choices=("dft", "dat"), required=True)
    p_snap.add_argument("--depth", type=int, default=2)
    p_snap.add_argument("--mu", type=float, default=0.005)
    p_snap.add_argument("--s-plus", type=float, default=0.01)
    p_snap.add_argument("--stream", choices=sorted(datagen.GENERATORS), default="matched")
    p_snap.add_argument("--n", type=int, required=True, help="total stream length")
    p_snap.add_argument("--steps", type=int, required=True, help="steps to run before saving")
    p_snap.add_argument("--seed", type=int, default=seed)
    p_snap.add_argument("--out", required=True, help="snapshot JSON path")
    p_snap.add_argument("--metrics", help="optional CSV of the pre-snapshot segment")
    p_snap.set_defaults(func=_cmd_snapshot)

    p_restore = sub.add_parser("restore", help="resume from a snapshot")
    p_restore.add_argument("--snapshot", required=True)
    p_restore.add_argument("--steps", type=int, required=True)
    p_restore.add_argument("--metrics", help="CSV of the continuation segment")
    p_restore.add_argument("--state-out", help="optional final state JSON")
    p_restore.set_defaults(func=_cmd_restore)
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()  # reads the default seed from the environment
    except harness.ConfigError as exc:
        return _fail(str(exc))
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
