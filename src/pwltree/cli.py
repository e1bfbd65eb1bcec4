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
          resumable snapshot: the config, the squared errors' sum and the
          learner state, whose step counter t gives the position, t - 1
restore   resume from a snapshot and continue, writing continuation metrics
          and, when asked, the snapshot at the new position

Exit codes: 0 success, 1 configuration error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from . import datagen, harness
from .trees import _real

SNAPSHOT_SCHEMA = 7  # 7: each fact once; the position is the state's t - 1
# the keys a snapshot holds, each required
_SNAPSHOT_KEYS = dict.fromkeys(("schema", "config", "cum_e2", "state"), True)


class _PlainFault(ValueError):
    """A fault that ``restore`` prints as ``run`` and ``snapshot`` do, not as
    a fault of the snapshot: one of a stream's data, found when the stream
    is built, or a ``--steps`` that the stream cannot run."""


def _fail(message: str, code: int = 1) -> int:
    print(f"pwltree: {message}", file=sys.stderr)
    return code


def _check_out_dirs(*paths) -> None:
    """Raise ConfigError, before any work is done, when an output path is
    a directory, its directory does not exist or another of ``paths``
    names the same file; a path left empty is not written.  A command
    writes its files inside the ``try`` that reads its input, by
    ``_write_outputs``, so any other OSError of a write exits 1 with a line
    too, and leaves none of the command's files."""
    files = set()
    for path in filter(None, paths):
        if Path(path).is_dir():
            raise harness.ConfigError(f"cannot write {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise harness.ConfigError(f"cannot write {path}: no directory {Path(path).parent}")
        if Path(path).resolve() in files:
            raise harness.ConfigError(f"cannot write {path} twice: two outputs name that file")
        files.add(Path(path).resolve())


def _write_outputs(*outputs) -> None:
    """Write each ``(path, write)`` output in turn, by ``write(path)``,
    skipping a path left empty.  When a write fails, remove the files
    written before it, and its own unless it was there before, and raise:
    a command that exits 1 leaves none of its output files."""
    written = []
    for path, write in outputs:
        if not path:
            continue
        existed = Path(path).exists()
        try:
            write(path)
        except BaseException:
            for done in written if existed else [*written, path]:
                with contextlib.suppress(OSError):
                    Path(done).unlink()
            raise
        written.append(path)


def _cmd_run(args) -> int:
    try:
        config = harness.ExperimentConfig.from_file(args.config)
        prefix = args.out or config.output or Path(args.config).stem
        metrics_path = f"{prefix}_metrics.csv"
        summary_path = f"{prefix}_summary.json"
        _check_out_dirs(metrics_path, summary_path)
        result = harness.run_experiment(config)
        _write_outputs(
            (metrics_path, lambda path: harness.write_metrics_csv(result.metrics, path,
                                                                  stride=config.stride)),
            (summary_path, lambda path: harness.write_summary_json(result, path)))
    except (OSError, ValueError, harness.TrialDiverged) as exc:
        return _fail(str(exc))
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
        _write_outputs((args.out, lambda path: datagen.stream_to_csv(stream, path)))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    print(f"wrote {len(stream)} rows to {args.out}")
    return 0


def _run_segment(config: harness.ExperimentConfig, steps: int, state=None,
                 prior_e2: float = 0.0):
    """Build the stream and the one learner of ``config``, load ``state``
    into the learner when given, and step it through ``steps`` stream
    steps from the position its step counter gives, ``t - 1`` (0 for a
    fresh learner), after steps whose squared errors summed to
    ``prior_e2``.  A config of more than one learner or trial, or
    of a learner kind without a state (any but ``dft`` and ``dat``), is
    refused before the stream is drawn.  A fault of the stream's data, or
    ``steps`` that do not fit in the stream from the position, raises
    ``_PlainFault``; a position past the stream's end raises ConfigError.
    Returns the learner and the segment's metrics."""
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
        raise _PlainFault(exc) from exc
    learner = harness.make_learner(spec, stream.dim)
    if state is not None:
        learner.load_state(state)
    start = learner.t - 1
    stop = start + steps
    if start > len(stream):
        raise harness.ConfigError(f"stream has {len(stream)} steps; position {start} lies "
                                  "past its end")
    if not start <= stop <= len(stream):
        raise _PlainFault(f"stream has {len(stream)} steps; cannot run {steps} steps "
                          f"from position {start}")
    metrics = harness.run_stream(learner, stream.extended[start:stop], stream.targets[start:stop])
    metrics.start, metrics.prior_e2 = start, prior_e2
    return learner, metrics


def _write_segment(config, learner, metrics, out, metrics_path) -> None:
    """Write, for a segment run from stream position ``metrics.start``, the
    snapshot after it to ``out`` and its metrics, one row per step
    numbered from ``metrics.start + 1`` and filed as ``run`` files them,
    with running columns that continue the steps before it, to
    ``metrics_path``; each only when its path is given, and neither when
    a write fails (``_write_outputs``)."""
    cum_e2 = float(metrics.cum_e2[-1]) if len(metrics) else metrics.prior_e2
    name = harness._learner_name(config.learners[0])
    _write_outputs(
        (out, lambda path: harness.write_json({"schema": SNAPSHOT_SCHEMA,
                                               "config": config.to_dict(), "cum_e2": cum_e2,
                                               "state": learner.state_snapshot()}, path)),
        (metrics_path, lambda path: harness.write_metrics_csv({name: metrics}, path)))


def _cmd_snapshot(args) -> int:
    try:
        config = harness.ExperimentConfig.from_file(args.config)
        _check_out_dirs(args.out, args.metrics)
        learner, metrics = _run_segment(config, args.steps)
        _write_segment(config, learner, metrics, args.out, args.metrics)
    except (OSError, ValueError, harness.TrialDiverged) as exc:
        return _fail(str(exc))
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
        prior_e2 = _real(snapshot["cum_e2"], "cum_e2", lambda v: 0 <= v < math.inf,
                         "be a finite number >= 0")
        config = harness.ExperimentConfig.from_dict(snapshot["config"])
        learner, metrics = _run_segment(config, args.steps, snapshot["state"], prior_e2)
        _write_segment(config, learner, metrics, args.out, args.metrics)
    except (_PlainFault, OSError) as exc:  # the data's, --steps' or a write's fault
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(f"malformed snapshot: {exc}")
    except harness.TrialDiverged as exc:  # only a loaded state steps: its t is an integer
        return _fail(f"{exc} after position {snapshot['state']['t'] - 1}")
    print(f"continued {args.steps} steps from position {metrics.start}")
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
