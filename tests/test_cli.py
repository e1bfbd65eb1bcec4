import csv
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from pwltree import harness
from pwltree.datagen import generate
from pwltree.cli import SNAPSHOT_SCHEMA, build_parser, main

from helpers import MALFORMED_STATES


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def write_config(path, kind, n, depth=2, mu=0.005, stream="matched", seed=0, **top):
    """Write to ``path`` a config of one ``kind`` tree learner over an
    ``n``-step stream, as ``pwltree snapshot`` reads it, and return the
    path as a string; ``top`` sets other top-level keys (``learners``
    among them, in place of the one learner)."""
    learner = {"kind": kind, "depth": depth, "mu": mu}
    path.write_text(json.dumps({"stream": {"kind": stream, "n": n}, "learners": [learner],
                                "seed": seed, **top}))
    return str(path)


def put(snapshot, part, value):
    """Set ``part`` of a snapshot dict to ``value``: ``config``,
    ``position``, ``cum_e2`` and ``state`` are its own keys, ``learner`` the
    one learner entry of its config, and any other part a key of its
    config."""
    if part in ("config", "position", "cum_e2", "state"):
        snapshot[part] = value
    elif part == "learner":
        snapshot["config"]["learners"] = [value]
    else:
        snapshot["config"][part] = value


@pytest.fixture(scope="module")
def dat_snapshot(tmp_path_factory):
    """A ``pwltree snapshot`` file of a depth-2 adaptive tree, as a dict."""
    tmp = tmp_path_factory.mktemp("snapshot")
    path = tmp / "s.json"
    assert main(["snapshot", write_config(tmp / "exp.json", "dat", 30), "--steps", "10",
                 "--out", str(path)]) == 0
    return json.loads(path.read_text())


class TestVerifyCommand:
    def test_passes_at_default_tolerance(self, tmp_path, capsys):
        assert main(["verify", write_config(tmp_path / "exp.json", "dft", 200, mu=0.01)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dft: max per-step relative gap ")

    def test_dat_mode(self, tmp_path):
        config = write_config(tmp_path / "exp.json", "dat", 150, depth=1, mu=0.01)
        assert main(["verify", config]) == 0

    def test_exit_two_when_tolerance_impossible(self, tmp_path, capsys):
        code = main(["verify", write_config(tmp_path / "exp.json", "dft", 200, mu=0.01),
                     "--tol", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pwltree: dft: gap ") and err.endswith(" exceeds tolerance 0.0e+00\n")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_that_is_no_bound_exits_one(self, monkeypatch, capsys, tmp_path, tol):
        # a NaN tolerance passed every gap, since gap > nan is False
        calls = []
        monkeypatch.setattr(harness, "verify_config", lambda *args: calls.append(args))
        assert main(["verify", write_config(tmp_path / "exp.json", "dft", 10),
                     "--tol", tol]) == 1
        assert calls == []
        assert capsys.readouterr().err == \
            f"pwltree: --tol must be a finite number >= 0, got {float(tol)}\n"

    def test_nan_gap_fails_the_tolerance(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(harness, "verify_config", lambda config: {"dft": float("nan")})
        assert main(["verify", write_config(tmp_path / "exp.json", "dft", 10)]) == 2
        assert capsys.readouterr().err == "pwltree: dft: gap nan exceeds tolerance 1.0e-09\n"

    @pytest.mark.parametrize("steps", [0, -3])
    def test_no_steps_exits_one(self, tmp_path, capsys, steps):
        assert main(["verify", write_config(tmp_path / "exp.json", "dft", steps)]) == 1
        assert capsys.readouterr().err == f"pwltree: stream length n must be >= 1, got {steps}\n"

    @pytest.mark.parametrize("mode", ["dft", "dat"])
    @pytest.mark.parametrize("depth", ["-1", "5"])
    def test_depth_outside_the_enumeration_range_exits_one(self, monkeypatch, capsys, tmp_path,
                                                           depth, mode):
        # the collapsed learners take depth 5, so the range named must be the
        # explicit mixture's, and it is checked before any stream is drawn
        drawn = []
        monkeypatch.setattr(harness, "generate", lambda *args, **kw: drawn.append(args))
        config = write_config(tmp_path / "exp.json", mode, 10, depth=int(depth))
        assert main(["verify", config]) == 1
        assert drawn == []
        assert capsys.readouterr().err == \
            f"pwltree: cannot verify learner {mode!r}: depth must be in [0, 4], got {depth}\n"

    def test_config_without_a_tree_learner_exits_one(self, monkeypatch, capsys, tmp_path):
        drawn = []
        monkeypatch.setattr(harness, "generate", lambda *args, **kw: drawn.append(args))
        config = write_config(tmp_path / "exp.json", "dft", 10,
                              learners=[{"kind": "lf"}, {"name": "volterra", "kind": "vf"}])
        assert main(["verify", config]) == 1
        assert drawn == []
        assert capsys.readouterr().err == \
            "pwltree: verify needs a dft or dat learner, not only 'lf' and 'volterra'\n"

    def test_exit_two_when_run_diverges(self, tmp_path, capsys):
        # at mu = 1 the lockstep run overflows by step 13; the CLI must not
        # report the NaN gaps that follow as agreement
        with np.errstate(all="ignore"):
            code = main(["verify", write_config(tmp_path / "exp.json", "dft", 200, mu=1.0)])
        assert code == 2
        assert capsys.readouterr().err == "pwltree: dft: gap inf exceeds tolerance 1.0e-09\n"


class TestRunCommand:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "stream": {"n": 5}, "learners": []}))
        assert main(["run", str(path)]) == 1

    def test_depth_zero_tree_with_empty_hyperplanes_exits_zero(self, tmp_path, capsys):
        # a depth-0 tree has no internal node, so its hyperplanes are the empty list
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "stream": {"kind": "matched", "n": 20},
            "learners": [{"kind": "dat", "depth": 0, "theta": []},
                         {"kind": "dft", "depth": 0, "boundaries": []}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(tmp_path / "out_metrics.csv")
        assert {row[1] for row in rows[1:]} == {"dat", "dft"}

    @pytest.mark.parametrize("top, kind", [(5, "int"), ([1], "list"), (None, "NoneType"),
                                           ("abc", "str")])
    def test_config_that_is_not_an_object_exits_one(self, tmp_path, capsys, top, kind):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(top))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"pwltree: config must be a JSON object, got {kind}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    def test_non_finite_csv_cell_exits_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n0,1,2\n3,nan,5\n")
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "csv", "path": str(data), "target": "y"},
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"non-finite cell 'nan' in {data}: data row 2 (line 3), column 'b'" in err
        assert not (tmp_path / "out_metrics.csv").exists()

    def test_indefinite_kernel_covariance_exits_one(self, tmp_path, capsys):
        # the one kernel variance must be > 0: a negative one would make the
        # kernel grow away from its centre
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20},
            "learners": [{"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": -1.2}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("pwltree: cannot build learner kind 'gkr': covariances "
                                           "must be a finite number > 0, got -1.2\n")
        assert not (tmp_path / "out_metrics.csv").exists()

    def test_underflowing_kernel_variance_exits_one(self, tmp_path, capsys):
        # sigma^2 underflows in two dimensions, so no kernel normaliser is finite
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20},
            "learners": [{"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": 1e-320}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "pwltree: cannot build learner kind 'gkr': covariances 1e-320 is too small in 2 "
            "dimensions: the kernel normaliser 1 / (2 pi sigma^2) is not finite\n")
        assert not (tmp_path / "out_metrics.csv").exists()

    def test_overflowing_kernel_variance_exits_one(self, tmp_path, capsys):
        # 2 pi sigma^2 overflows, so the kernel normaliser would be 0 and
        # every prediction 0: the run is refused before it writes anything
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20},
            "learners": [{"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": 1e308}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "pwltree: cannot build learner kind 'gkr': covariances 1e+308 is too large in 2 "
            "dimensions for mu 1.0: the largest LMS step mu (1 / (2 pi sigma^2))^2 is 0.0, "
            "below the smallest normal float\n")
        assert not (tmp_path / "out_metrics.csv").exists()

    def test_kernel_variance_too_large_to_learn_exits_one(self, tmp_path, capsys):
        # the normaliser 1.6e-301 is > 0, but its square, the largest LMS
        # step at mu 1.0, underflows to 0: no regressor could move
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20},
            "learners": [{"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": 1e300}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "pwltree: cannot build learner kind 'gkr': covariances 1e+300 is too large in 2 "
            "dimensions for mu 1.0: the largest LMS step mu (1 / (2 pi sigma^2))^2 is 0.0, "
            "below the smallest normal float\n")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("learners, message", [
        ([{"kind": "lf", "name": [1]}], "learner name must be a non-empty string, got [1]"),
        ([{"kind": "lf", "name": 5}, {"kind": "vf", "name": "5"}],
         "learner name must be a non-empty string, got 5"),
    ], ids=["list", "int-beside-string"])
    def test_bad_learner_name_exits_one(self, tmp_path, capsys, learners, message):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20},
            "learners": learners,
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"pwltree: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("learner, message", [
        ({"kind": "dft", "depth": 2, "theta": None}, "depth, mu and boundaries, not 'theta'"),
        ({"kind": "dat", "depth": 2, "mode": "soft"}, "depth, mu, s_plus and theta, not 'mode'"),
        ({"kind": "direct", "depth": 2, "eta": 0.25},
         "depth, mode, mu, boundaries and s_plus, not 'eta'"),
        ({"kind": "lf", "dim": 2}, "mu, not 'dim'"),
        ({"kind": "vf", "order": 2}, "mu, not 'order'"),
        ({"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": 1.0, "sigma": 1.0},
         "centers, covariances and mu, not 'sigma'"),
    ], ids=["dft", "dat", "direct", "lf", "vf", "gkr"])
    def test_learner_key_refused_by_kind_exits_one(self, tmp_path, capsys, learner, message):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20},
            "learners": [{"kind": "lf"}, learner],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"pwltree: cannot build learner kind "
                                           f"{learner['kind']!r}: it takes only {message}\n")
        assert list(tmp_path.iterdir()) == [path]

    def test_csv_row_wider_than_header_exits_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,y\n1,2,3\n")
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "csv", "path": str(data), "target": "y"},
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"row of 3 cells under a header of 2 in {data}" in capsys.readouterr().err
        assert not (tmp_path / "out_metrics.csv").exists()

    def test_empty_csv_file_exits_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("")
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "csv", "path": str(data), "target": "y"},
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"pwltree: {data} has no header row" in capsys.readouterr().err
        assert not (tmp_path / "out_metrics.csv").exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("henon", "init", [0.5]), ("henon", "init", [0.0, 0.0]), ("henon", "zeta", 1),
        ("henon", "eta", 1), ("henon", "burn_in", 1), ("lorenz", "init", 1), ("lorenz", "dt", 1),
        ("lorenz", "rho", 1), ("lorenz", "sigma", 1), ("lorenz", "beta", 1),
        ("lorenz", "burn_in", 1),
    ], ids=["henon-init", "henon-init_default", "henon-zeta", "henon-eta", "henon-burn_in",
            "lorenz-init", "lorenz-dt", "lorenz-rho", "lorenz-sigma", "lorenz-beta",
            "lorenz-burn_in"])
    def test_bad_chaotic_stream_parameter_exits_one(self, tmp_path, capsys, kind, key, value):
        # the chaotic streams run at fixed parameters, so a config that sets
        # one is refused by name before any work is done, even when it
        # names the value the stream would use anyway
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": kind, "n": 20, key: value},
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"pwltree: cannot build stream kind {kind!r}: it takes "
                                           f"only n and normalize, not {key!r}\n")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("stream, top, message", [
        ({"nois_var": 0.1}, {},
         "cannot build stream kind 'matched': it takes only n, noise_var and normalize, "
         "not 'nois_var'"),
        ({"kind": "henon", "noise_var": 0.1}, {},
         "cannot build stream kind 'henon': it takes only n and normalize, not 'noise_var'"),
        ({}, {"trails": 2}, "a config takes only schema, stream, learners, trials, seed, stride and output, not 'trails'"),
    ], ids=["piecewise-misspelt", "henon-noise_var", "top-level-misspelt"])
    def test_unknown_config_key_exits_one(self, tmp_path, capsys, stream, top, message):
        # a key no part of the config takes is refused by name, with the
        # kind that does not take it, before any work is done
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20, **stream},
            "learners": [{"kind": "lf", "mu": 0.05}],
            **top,
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"pwltree: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("stream, learner, message", [
        ({"noise_var": 10**400}, {"kind": "lf", "mu": 0.05},
         "noise_var must be a finite number >= 0"),
        ({}, {"kind": "dft", "depth": 1, "mu": 10**400},
         "cannot build learner kind 'dft': mu must be a finite number > 0"),
    ], ids=["noise_var", "mu"])
    def test_integer_too_large_for_a_float_exits_one(self, tmp_path, capsys, stream, learner,
                                                     message):
        # float() of such an integer raises OverflowError, which the run
        # must turn into its one-line refusal
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20, **stream},
            "learners": [learner],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"pwltree: {message}, got {10**400}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("n, message", [
        (0, "stream length n must be >= 1, got 0"),
        (-3, "stream length n must be >= 1, got -3"),
        (2.5, "stream length n must be an integer, got 2.5"),
        ("10", "stream length n must be an integer, got '10'"),
        (True, "stream length n must be an integer, got True"),
        (None, "stream length n must be an integer, got None"),
        ("missing", "cannot build stream kind 'matched': it requires 'n'"),
    ], ids=["0", "-3", "2.5", "10", "True", "None", "missing"])
    def test_bad_stream_length_exits_one(self, tmp_path, capsys, n, message):
        stream = {"kind": "matched", "n": n}
        if n == "missing":
            del stream["n"]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": stream,
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"pwltree: {message}\n"
        assert not (tmp_path / "out_metrics.csv").exists()

    def test_missing_csv_path_exits_one(self, tmp_path, capsys):
        data = tmp_path / "absent.csv"
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "csv", "path": str(data), "target": "y"},
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pwltree: ") and str(data) in err
        assert not (tmp_path / "out_metrics.csv").exists()

    @pytest.mark.parametrize("key, value", [("eta", 0.25), ("step_cap", None),
                                            ("literal_gradient", True)])
    @pytest.mark.parametrize("kind", ["dat", "direct"])
    def test_removed_boundary_step_key_exits_one(self, tmp_path, capsys, kind, key, value):
        learner = {"kind": kind, "depth": 1, "mu": 0.01, key: value}
        if kind == "direct":
            learner["mode"] = "soft"
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 50},
            "learners": [learner],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out_metrics.csv").exists()

    @pytest.mark.parametrize("stream, named", [
        ({"kind": "matched", "n": 10, "bogus": 1}, "'bogus'"),
        ({"kind": "csv"}, "'path'"),
        ({"kind": "csv", "path": "data.csv", "target": "y", "bogus": 1}, "'bogus'"),
        ({"kind": "csv", "path": "data.csv", "target": "y", "n": 5}, "'n'"),
    ], ids=["generator-unknown-key", "csv-no-path", "csv-unknown-key", "csv-n"])
    def test_malformed_stream_spec_exits_one(self, tmp_path, capsys, stream, named):
        if "path" in stream:
            stream["path"] = str(tmp_path / stream["path"])
            (tmp_path / "data.csv").write_text("a,y\n0,1\n1,2\n")
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": stream,
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pwltree: ") and named in err
        assert not (tmp_path / "out_metrics.csv").exists()

    @pytest.mark.parametrize("learners", [[5], "abc"], ids=["int-entry", "string"])
    def test_non_object_learner_entries_exit_one(self, tmp_path, capsys, learners):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 10},
            "learners": learners,
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "pwltree: learners must be a list of objects" in capsys.readouterr().err
        assert not (tmp_path / "out_metrics.csv").exists()
        assert not (tmp_path / "out_summary.json").exists()

    def test_bad_learner_entry_runs_no_learner(self, tmp_path, capsys, monkeypatch):
        # the lf entry comes first, but the dat entry is refused before it steps
        calls = []
        monkeypatch.setattr(harness, "run_stream", lambda *args: calls.append(args))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20},
            "learners": [{"kind": "lf"}, {"kind": "dat", "depth": 9}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert calls == []
        assert "cannot build learner kind 'dat': depth must be in [0, 5]" in capsys.readouterr().err
        assert not (tmp_path / "out_metrics.csv").exists()

    @pytest.mark.parametrize("mu", ["abc", "0.01", math.nan, 0.0, True],
                             ids=["string", "numeric-string", "nan", "zero", "bool"])
    def test_bad_step_size_runs_no_learner(self, tmp_path, capsys, monkeypatch, mu):
        # json.dumps writes NaN and json.load reads it back as a float
        calls = []
        monkeypatch.setattr(harness, "run_stream", lambda *args: calls.append(args))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 20},
            "learners": [{"kind": "lf"}, {"kind": "dft", "depth": 2, "mu": mu}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert calls == []
        assert (f"cannot build learner kind 'dft': mu must be a finite number > 0, "
                f"got {mu!r}") in capsys.readouterr().err
        assert not (tmp_path / "out_metrics.csv").exists()

    @pytest.mark.parametrize("centers, message", [
        ([[math.nan, 0.0]], "centers must be finite"),
        ([[0.0, 0.0, 0.0]], "centers must have 2 coordinates, the stream's dim, not 3"),
        ([[0.0]], "centers must have 2 coordinates, the stream's dim, not 1"),
    ], ids=["nan", "too-wide", "too-narrow"])
    def test_bad_kernel_centres_run_no_learner(self, tmp_path, capsys, monkeypatch, centers,
                                               message):
        calls = []
        monkeypatch.setattr(harness, "run_stream", lambda *args: calls.append(args))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "mismatched", "n": 20},
            "learners": [{"kind": "lf"},
                         {"kind": "gkr", "centers": centers, "covariances": 1.0}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert calls == []
        assert f"cannot build learner kind 'gkr': {message}" in capsys.readouterr().err
        assert not (tmp_path / "out_metrics.csv").exists()

    def test_fractional_stride_exits_one_before_running(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1, "stride": 2.5,
            "stream": {"kind": "matched", "n": 50},
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "pwltree: stride must be an integer, got 2.5" in capsys.readouterr().err
        assert not (tmp_path / "out_metrics.csv").exists()

    def test_missing_output_directory_exits_one_before_running(self, tmp_path, monkeypatch,
                                                               capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "matched", "n": 50},
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))

        def run_experiment(config):
            raise AssertionError("the run must not start")

        monkeypatch.setattr(harness, "run_experiment", run_experiment)
        out = tmp_path / "absent" / "exp"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert f"pwltree: cannot write {out}_metrics.csv: no directory {out.parent}" \
            in capsys.readouterr().err

    def test_integer_csv_path_exits_one_without_reading_stdin(self, tmp_path, monkeypatch,
                                                              capsys):
        # open(0) would read standard input and close it
        def load_csv_dataset(path, target):
            raise AssertionError("the csv file must not be opened")

        monkeypatch.setattr(harness, "load_csv_dataset", load_csv_dataset)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1,
            "stream": {"kind": "csv", "path": 0, "target": "y"},
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "pwltree: csv stream path must be a string, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out_metrics.csv").exists()

    def test_run_writes_metrics_and_summary(self, tmp_path):
        config = {
            "schema": 1,
            "seed": 2,
            "trials": 2,
            "stride": 10,
            "stream": {"kind": "matched", "n": 50},
            "learners": [
                {"name": "dft", "kind": "dft", "depth": 2, "mu": 0.01},
                {"name": "lf", "kind": "lf", "mu": 0.05},
            ],
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        out_prefix = str(tmp_path / "exp_out")
        assert main(["run", str(path), "--out", out_prefix]) == 0
        rows = read_csv(out_prefix + "_metrics.csv")
        assert rows[0] == ["t", "learner", "e2", "cum_e2", "norm_err"]
        learners = {r[1] for r in rows[1:]}
        assert learners == {"dft", "lf"}
        summary = json.loads((tmp_path / "exp_out_summary.json").read_text())
        assert summary["results"]["dft"]["trials"] == 2

    def test_deterministic_outputs(self, tmp_path):
        config = {
            "schema": 1, "seed": 5, "trials": 1,
            "stream": {"kind": "matched", "n": 60},
            "learners": [{"name": "dft", "kind": "dft", "depth": 2, "mu": 0.01}],
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        for prefix in ("a", "b"):
            assert main(["run", str(path), "--out", str(tmp_path / prefix)]) == 0
        assert (tmp_path / "a_metrics.csv").read_bytes() == (tmp_path / "b_metrics.csv").read_bytes()


class TestGenCommand:
    def test_henon_rows_match_hand_iteration(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["gen", "henon", "--n", "3", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["x1", "x2", "d"]
        # burn-in of 100 applies by default; regenerate to compare
        from pwltree.datagen import gen_henon
        ref = gen_henon(3)
        got = np.array([[float(c) for c in row] for row in rows[1:]])
        np.testing.assert_array_equal(got[:, 2], ref.targets)

    def test_missing_output_directory_exits_one(self, tmp_path, capsys):
        out = tmp_path / "absent" / "h.csv"
        assert main(["gen", "henon", "--n", "3", "--out", str(out)]) == 1
        assert f"pwltree: cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_refuses_stream_length_below_one(self, tmp_path, capsys, n):
        out = tmp_path / "h.csv"
        assert main(["gen", "henon", "--n", n, "--out", str(out)]) == 1
        assert f"stream length n must be >= 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_a_parameter_the_generator_does_not_take(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        assert main(["gen", "henon", "--n", "3", "--noise-var", "0.1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pwltree: cannot build stream kind 'henon'") and "noise_var" in err
        assert not out.exists()

    @pytest.mark.parametrize("noise_var", ["-1", "nan"])
    def test_refuses_a_noise_variance_that_is_no_variance(self, tmp_path, capsys, noise_var):
        out = tmp_path / "m.csv"
        assert main(["gen", "matched", "--n", "3", "--noise-var", noise_var,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"pwltree: noise_var must be a finite number >= 0, got {float(noise_var)!r}\n"
        assert not out.exists()

    def test_matched_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["gen", "matched", "--n", "20", "--seed", "9",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSnapshotRestore:
    @pytest.mark.parametrize("mode", ["dft", "dat"])
    def test_continuation_is_bit_identical(self, tmp_path, mode):
        total, half = 400, 200
        config = write_config(tmp_path / "exp.json", mode, total, stream="mismatched", seed=3)
        straight_metrics = tmp_path / "straight.csv"
        straight_snap = tmp_path / "straight.json"
        assert main(["snapshot", config, "--steps", str(total), "--out", str(straight_snap),
                     "--metrics", str(straight_metrics)]) == 0

        half_snap = tmp_path / "half.json"
        assert main(["snapshot", config, "--steps", str(half), "--out", str(half_snap)]) == 0

        resumed_metrics = tmp_path / "resumed.csv"
        resumed_snap = tmp_path / "resumed.json"
        assert main(["restore", "--snapshot", str(half_snap), "--steps", str(half),
                     "--metrics", str(resumed_metrics), "--out", str(resumed_snap)]) == 0

        straight = read_csv(straight_metrics)[1:]
        resumed = read_csv(resumed_metrics)[1:]
        straight_e2 = {int(r[0]): r[2] for r in straight}
        for row in resumed:
            t = int(row[0])
            assert half < t <= total
            assert row[2] == straight_e2[t]  # identical repr -> identical float

        final_state = json.loads(resumed_snap.read_text())["state"]
        reference = json.loads(straight_snap.read_text())["state"]
        assert final_state == reference

    @pytest.mark.parametrize("mode", ["dft", "dat"])
    def test_restores_chain_to_the_straight_run(self, tmp_path, mode):
        # snapshot at 300, restore 300 more into a new snapshot, restore that
        # for the last 400: the segments' CSV rows, all five columns, match
        # one straight run's and one straight 1000-step snapshot's, and the
        # final snapshot matches that snapshot
        config = write_config(tmp_path / "exp.json", mode, 1000, stream="mismatched", seed=3,
                              learners=[{"name": "tree", "kind": mode, "depth": 2, "mu": 0.005}])
        assert main(["snapshot", config, "--steps", "1000", "--out", str(tmp_path / "full.json"),
                     "--metrics", str(tmp_path / "full.csv")]) == 0
        assert main(["snapshot", config, "--steps", "300", "--out", str(tmp_path / "s1.json"),
                     "--metrics", str(tmp_path / "m1.csv")]) == 0
        for k, steps in ((1, 300), (2, 400)):
            assert main(["restore", "--snapshot", str(tmp_path / f"s{k}.json"),
                         "--steps", str(steps), "--out", str(tmp_path / f"s{k + 1}.json"),
                         "--metrics", str(tmp_path / f"m{k + 1}.csv")]) == 0

        assert main(["run", config, "--out", str(tmp_path / "run")]) == 0

        def text(path):
            return Path(path).read_text()

        chained = text(tmp_path / "m1.csv") + "".join(
            text(tmp_path / f"m{k}.csv").split("\n", 1)[1] for k in (2, 3))
        straight = read_csv(tmp_path / "full.csv")[1:]
        assert len(straight) == 1000 and {row[1] for row in straight} == {"tree"}
        assert chained == text(tmp_path / "full.csv") == text(tmp_path / "run_metrics.csv")
        final = json.loads((tmp_path / "s3.json").read_text())
        assert final["position"] == 1000
        assert final == json.loads((tmp_path / "full.json").read_text())

    @pytest.mark.parametrize("learners, top, message", [
        ([{"kind": "dft", "depth": 1}, {"kind": "dat", "depth": 1}], {},
         "snapshots support one learner only, not 2"),
        ([{"kind": "dft", "depth": 1}], {"trials": 2}, "snapshots support one trial only, not 2"),
        ([{"kind": "lf"}], {}, "snapshots support tree learners only, not 'lf'"),
    ], ids=["two-learners", "two-trials", "lf"])
    def test_snapshot_refuses_a_config_without_one_state(self, tmp_path, monkeypatch, capsys,
                                                         learners, top, message):
        def no_stream(*args, **kwargs):
            raise AssertionError("stream drawn for a config snapshot refuses")

        monkeypatch.setattr(harness, "generate", no_stream)
        config = write_config(tmp_path / "exp.json", "dft", 20, learners=learners, **top)
        out, metrics = tmp_path / "s.json", tmp_path / "m.csv"
        assert main(["snapshot", config, "--steps", "10", "--out", str(out),
                     "--metrics", str(metrics)]) == 1
        assert capsys.readouterr().err == f"pwltree: {message}\n"
        assert not out.exists() and not metrics.exists()

    def test_snapshot_to_missing_directory_exits_one(self, tmp_path, capsys):
        out = tmp_path / "absent" / "s.json"
        assert main(["snapshot", write_config(tmp_path / "exp.json", "dft", 10), "--steps", "5",
                     "--out", str(out)]) == 1
        assert f"pwltree: cannot write {out}: no directory {out.parent}" in capsys.readouterr().err

    def test_restore_to_missing_directory_exits_one(self, tmp_path, capsys):
        snap = tmp_path / "s.json"
        assert main(["snapshot", write_config(tmp_path / "exp.json", "dft", 10), "--steps", "5",
                     "--out", str(snap)]) == 0
        for flag in ("--metrics", "--out"):
            out = tmp_path / "absent" / "m.out"
            assert main(["restore", "--snapshot", str(snap), "--steps", "5", flag, str(out)]) == 1
            assert f"pwltree: cannot write {out}" in capsys.readouterr().err

    def test_state_carries_the_step_counter(self, tmp_path):
        snap = tmp_path / "s.json"
        config = write_config(tmp_path / "exp.json", "dat", 20, depth=1)
        assert main(["snapshot", config, "--steps", "10", "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        assert snapshot["schema"] == SNAPSHOT_SCHEMA == 5
        assert "t" not in snapshot
        assert snapshot["state"]["t"] == 11
        assert snapshot["config"] == harness.ExperimentConfig.from_file(config).to_dict()
        assert snapshot["position"] == 10

    def test_restore_refuses_schema_one(self, tmp_path, capsys):
        snap = tmp_path / "s.json"
        assert main(["snapshot", write_config(tmp_path / "exp.json", "dft", 20), "--steps", "10",
                     "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        # 2 held one {label, w, v, theta?} object per node; 3 held the stream,
        # learner and seed in place of the config; 4 held no cum_e2
        for schema in (1, 2, 3, 4):
            snapshot["schema"] = schema
            snap.write_text(json.dumps(snapshot))
            assert main(["restore", "--snapshot", str(snap), "--steps", "5"]) == 1
            assert capsys.readouterr().err == (f"pwltree: unsupported snapshot schema {schema} "
                                               f"(this version reads schema 5)\n")

    def test_restore_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["restore", "--snapshot", str(bad), "--steps", "5"]) == 1

    @pytest.mark.parametrize("mutate", [pytest.param(mutate, id=case)
                                        for case, _, mutate in MALFORMED_STATES])
    def test_restore_rejects_malformed_state(self, tmp_path, capsys, dat_snapshot, mutate):
        snapshot = json.loads(json.dumps(dat_snapshot))
        snapshot["state"] = mutate(snapshot["state"])
        snap, metrics = tmp_path / "s.json", tmp_path / "m.csv"
        snap.write_text(json.dumps(snapshot))
        assert main(["restore", "--snapshot", str(snap), "--steps", "5",
                     "--metrics", str(metrics)]) == 1
        assert "pwltree: malformed snapshot: snapshot " in capsys.readouterr().err
        assert not metrics.exists()

    @pytest.mark.parametrize("part, value", [("state", []), ("state", "x"), ("learner", []),
                                             ("stream", 5), (None, None), ("config", []),
                                             ("bogus", 1)])
    def test_restore_rejects_non_object_parts(self, tmp_path, capsys, part, value):
        # part None: the file holds a JSON list around the snapshot; part
        # bogus: a key no snapshot holds, beside the five a snapshot holds
        snap = tmp_path / "s.json"
        assert main(["snapshot", write_config(tmp_path / "exp.json", "dft", 200, depth=1),
                     "--steps", "100", "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        if part is None:
            snapshot = [snapshot]
        elif part == "bogus":
            snapshot[part] = value
        else:
            put(snapshot, part, value)
        snap.write_text(json.dumps(snapshot))
        assert main(["restore", "--snapshot", str(snap), "--steps", "5"]) == 1
        assert "pwltree: malformed snapshot: " in capsys.readouterr().err

    @pytest.mark.parametrize("part, value", [
        ("stream", {"kind": "matched", "n": 200, "bogus": 1}),
        ("position", "x"), ("position", True), ("position", 1.5), ("position", -1),
        ("seed", 1.5), ("seed", True), ("seed", "3"),
        ("cum_e2", "1.0"), ("cum_e2", True), ("cum_e2", None), ("cum_e2", -1.0),
        ("cum_e2", float("nan")), ("cum_e2", float("inf")),
    ], ids=["stream-unknown-key", "position-str", "position-bool", "position-float",
            "position-negative", "seed-float", "seed-bool", "seed-str", "cum_e2-str",
            "cum_e2-bool", "cum_e2-null", "cum_e2-negative", "cum_e2-nan", "cum_e2-inf"])
    def test_restore_rejects_malformed_stream_position_and_seed(self, tmp_path, capsys,
                                                                 part, value):
        snap, metrics = tmp_path / "s.json", tmp_path / "m.csv"
        assert main(["snapshot", write_config(tmp_path / "exp.json", "dft", 200, depth=1),
                     "--steps", "100", "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        put(snapshot, part, value)
        snap.write_text(json.dumps(snapshot))
        assert main(["restore", "--snapshot", str(snap), "--steps", "10",
                     "--metrics", str(metrics)]) == 1
        assert "pwltree: malformed snapshot: " in capsys.readouterr().err
        assert not metrics.exists()

    @pytest.mark.parametrize("value, message", [
        (None, "a snapshot requires 'cum_e2'"),
        (-1.0, "cum_e2 must be a finite number >= 0, got -1.0"),
    ], ids=["missing", "negative"])
    def test_restore_names_a_bad_cum_e2(self, tmp_path, capsys, value, message):
        snap, metrics = tmp_path / "s.json", tmp_path / "m.csv"
        assert main(["snapshot", write_config(tmp_path / "exp.json", "dft", 200, depth=1),
                     "--steps", "100", "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        if value is None:
            del snapshot["cum_e2"]
        else:
            snapshot["cum_e2"] = value
        snap.write_text(json.dumps(snapshot))
        capsys.readouterr()
        assert main(["restore", "--snapshot", str(snap), "--steps", "10",
                     "--metrics", str(metrics)]) == 1
        assert capsys.readouterr().err == f"pwltree: malformed snapshot: {message}\n"
        assert not metrics.exists()

    def test_snapshot_rejects_overrun(self, tmp_path):
        assert main(["snapshot", write_config(tmp_path / "exp.json", "dft", 10), "--steps", "20",
                     "--out", str(tmp_path / "s.json")]) == 1

    def test_snapshot_rejects_negative_steps(self, tmp_path, capsys):
        assert main(["snapshot", write_config(tmp_path / "exp.json", "dft", 10), "--steps", "-5",
                     "--out", str(tmp_path / "s.json")]) == 1
        assert "cannot run -5 steps from position 0" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_diverging_snapshot_exits_one_and_writes_nothing(self, tmp_path, capsys):
        out, metrics = tmp_path / "s.json", tmp_path / "m.csv"
        config = write_config(tmp_path / "exp.json", "dat", 1000, depth=5, stream="mismatched")
        with np.errstate(all="ignore"):
            code = main(["snapshot", config, "--steps", "1000", "--out", str(out),
                         "--metrics", str(metrics)])
        assert code == 1
        assert "prediction diverged at step 158" in capsys.readouterr().err
        assert not out.exists() and not metrics.exists()

    def test_diverging_restore_exits_one_and_writes_nothing(self, tmp_path, capsys):
        snap, metrics, state = tmp_path / "s.json", tmp_path / "m.csv", tmp_path / "f.json"
        config = write_config(tmp_path / "exp.json", "dat", 1000, depth=5, stream="mismatched")
        assert main(["snapshot", config, "--steps", "100", "--out", str(snap)]) == 0
        with np.errstate(all="ignore"):
            code = main(["restore", "--snapshot", str(snap), "--steps", "900",
                         "--metrics", str(metrics), "--out", str(state)])
        assert code == 1
        assert "prediction diverged at step 58 after position 100" in capsys.readouterr().err
        assert not metrics.exists() and not state.exists()

    def test_restore_rejects_unknown_learner_key(self, tmp_path, capsys):
        snap = tmp_path / "s.json"
        assert main(["snapshot", write_config(tmp_path / "exp.json", "dat", 20, depth=1),
                     "--steps", "10", "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        snapshot["config"]["learners"][0]["bogus"] = 1
        snap.write_text(json.dumps(snapshot))
        assert main(["restore", "--snapshot", str(snap), "--steps", "5"]) == 1
        assert "cannot build learner kind 'dat'" in capsys.readouterr().err


class TestSnapshotChecksAsRun:
    """``snapshot`` reads its config as ``run`` does, and ``restore`` reads
    the config a snapshot carries as one, so each refuses a bad value with
    ``run``'s line (``restore`` adds ``malformed snapshot:``)."""

    def run_line(self, tmp_path, capsys, stream, learner, seed):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"stream": stream, "learners": [learner], "seed": seed}))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out_metrics.csv").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("stream, learner, seed", [
        ({"kind": "matched", "n": 20}, {"kind": "dft", "depth": 2, "mu": 0.005}, -1),
        ({"kind": "matched", "n": 20}, {"kind": "dft", "depth": 9, "mu": 0.005}, 0),
        ({"kind": "matched", "n": 0}, {"kind": "dft", "depth": 2, "mu": 0.005}, 0),
    ], ids=["seed", "learner", "stream"])
    def test_snapshot_refuses_as_run_does(self, tmp_path, capsys, stream, learner, seed):
        want = self.run_line(tmp_path, capsys, stream, learner, seed)
        out = tmp_path / "s.json"
        assert main(["snapshot", str(tmp_path / "exp.json"), "--steps", "10",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == want
        assert not out.exists()

    @pytest.mark.parametrize("part, value", [
        ("seed", -1), ("seed", 1.5),
        ("learner", {"kind": "dft", "depth": 1, "mu": 0.005, "bogus": 1}),
        ("stream", {"kind": "matched", "n": 200, "noise": 0.1}),
    ], ids=["seed-negative", "seed-float", "learner-key", "stream-key"])
    def test_restore_refuses_as_run_does(self, tmp_path, capsys, part, value):
        snap, metrics = tmp_path / "s.json", tmp_path / "m.csv"
        assert main(["snapshot", write_config(tmp_path / "snap.json", "dft", 200, depth=1),
                     "--steps", "100", "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        put(snapshot, part, value)
        snap.write_text(json.dumps(snapshot))
        config = snapshot["config"]
        want = self.run_line(tmp_path, capsys, config["stream"], config["learners"][0],
                             config["seed"])
        assert main(["restore", "--snapshot", str(snap), "--steps", "10",
                     "--metrics", str(metrics)]) == 1
        assert capsys.readouterr().err == want.replace("pwltree: ", "pwltree: malformed snapshot: ")
        assert not metrics.exists()

    def test_restore_reports_a_dataset_fault_as_run_does(self, tmp_path, capsys):
        # the snapshot is sound; its stream's data file lost its rows after it was taken
        data, snap, metrics = tmp_path / "data.csv", tmp_path / "s.json", tmp_path / "m.csv"
        data.write_text("a,b,y\n" + "".join(f"{i / 10},{-i / 10},{i % 3}\n" for i in range(20)))
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "stream": {"kind": "csv", "path": str(data), "target": "y"},
            "learners": [{"kind": "dft", "depth": 1, "mu": 0.005}]}))
        assert main(["snapshot", str(config), "--steps", "10", "--out", str(snap)]) == 0
        data.write_text("a,b,y\n")
        capsys.readouterr()
        assert main(["restore", "--snapshot", str(snap), "--steps", "5",
                     "--metrics", str(metrics)]) == 1
        assert capsys.readouterr().err == "pwltree: dataset has no data rows\n"
        assert not metrics.exists()
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "pwltree: dataset has no data rows\n"


class TestSeedRange:
    """A seed must key the stream generator, so it lies in [0, 2**64)."""

    def run_config(self, tmp_path, seed, trials=1):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema": 1, "seed": seed, "trials": trials,
            "stream": {"kind": "matched", "n": 20},
            "learners": [{"kind": "lf", "mu": 0.05}],
        }))
        return ["run", str(path), "--out", str(tmp_path / "out")]

    def restore_seed(self, tmp_path, seed):
        snap = tmp_path / "s.json"
        assert main(["snapshot", write_config(tmp_path / "snap.json", "dft", 20, depth=1),
                     "--steps", "10", "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        put(snapshot, "seed", seed)
        snap.write_text(json.dumps(snapshot))
        return ["restore", "--snapshot", str(snap), "--steps", "5"]

    @pytest.mark.parametrize("entry, seed", [
        ("run", -1), ("run-trials", 2**64 - 1), ("gen", -1), ("snapshot", 2**64),
        ("restore", -1), ("verify", -1),
    ])
    def test_seed_outside_the_key_range_exits_one(self, tmp_path, capsys, entry, seed):
        out = str(tmp_path / "o.out")
        argv = {
            "run": lambda: self.run_config(tmp_path, seed),
            # trial 1 is seeded with base seed + 1 = 2**64
            "run-trials": lambda: self.run_config(tmp_path, seed, trials=2),
            "gen": lambda: ["gen", "matched", "--n", "5", "--seed", str(seed), "--out", out],
            "snapshot": lambda: ["snapshot", write_config(tmp_path / "snap.json", "dft", 20,
                                                          seed=seed),
                                 "--steps", "10", "--out", out],
            "restore": lambda: self.restore_seed(tmp_path, seed),
            "verify": lambda: ["verify", write_config(tmp_path / "verify.json", "dft", 5, depth=1,
                                                      seed=seed)],
        }[entry]()
        capsys.readouterr()
        assert main(argv) == 1
        bad = seed + 1 if entry == "run-trials" else seed
        assert f"seed must lie in [0, 2**64) to key the generator, got {bad}" \
            in capsys.readouterr().err
        assert not (tmp_path / "o.out").exists() and not (tmp_path / "out_metrics.csv").exists()

    def test_out_of_range_trial_seed_runs_no_trial(self, tmp_path, capsys, monkeypatch):
        # trial 0's seed 2**64 - 1 is valid, trial 1's is not: refused before any step
        calls = []
        monkeypatch.setattr(harness, "run_stream", lambda *args: calls.append(args))
        assert main(self.run_config(tmp_path, 2**64 - 1, trials=2)) == 1
        assert calls == []
        assert f"trial seeds run from {2**64 - 1} to {2**64}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, seed", [
    (["gen", "matched", "--n", "5", "--out", "m.csv"], 0),
], ids=["gen"])
def test_non_integer_seed_variable_exits_one(monkeypatch, capsys, tmp_path, argv, seed):
    # a malformed PWLTREE_SEED once made every command exit 1; the variable is
    # no longer read, so --seed defaults to 0 and the command runs
    monkeypatch.setenv("PWLTREE_SEED", "abc")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    got = np.array([[float(c) for c in row] for row in read_csv(tmp_path / "m.csv")[1:]])
    want = generate("matched", 5, seed=seed)
    np.testing.assert_array_equal(got, np.column_stack([want.inputs, want.targets]))


def test_readme_command_lines_parse(capsys):
    # README's "Command line" block is the CLI's one worked example: each
    # pwltree line in it, \-continued lines joined and # comments dropped,
    # must parse, so a flag removed from the parser cannot stay in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["pwltree"]]
    assert {argv[0] for argv in commands} == {"run", "verify", "gen", "snapshot", "restore"}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: pwltree {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")
