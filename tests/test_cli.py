import csv
import functools
import json
import math

import numpy as np
import pytest

from pwltree import harness
from pwltree.datagen import generate
from pwltree.cli import SNAPSHOT_SCHEMA, main

from helpers import MALFORMED_STATES


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def dat_snapshot(tmp_path_factory):
    """A ``pwltree snapshot`` file of a depth-2 adaptive tree, as a dict."""
    path = tmp_path_factory.mktemp("snapshot") / "s.json"
    assert main(["snapshot", "--mode", "dat", "--depth", "2", "--n", "30", "--steps", "10",
                 "--out", str(path)]) == 0
    return json.loads(path.read_text())


class TestVerifyCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["verify", "--depth", "2", "--steps", "200", "--mode", "dft"]) == 0
        out = capsys.readouterr().out
        assert "max per-step relative gap" in out

    def test_dat_mode(self):
        assert main(["verify", "--depth", "1", "--steps", "150", "--mode", "dat"]) == 0

    def test_exit_two_when_tolerance_impossible(self, capsys):
        code = main(["verify", "--depth", "2", "--steps", "200", "--mode", "dft",
                     "--tol", "0"])
        assert code == 2
        assert "exceeds tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_that_is_no_bound_exits_one(self, monkeypatch, capsys, tol):
        # a NaN tolerance passed every gap, since gap > nan is False
        calls = []
        monkeypatch.setattr(harness, "verify_equivalence", lambda *args: calls.append(args))
        assert main(["verify", "--depth", "2", "--steps", "10", "--mode", "dft",
                     "--tol", tol]) == 1
        assert calls == []
        assert f"--tol must be a finite number >= 0, got {float(tol)}" in capsys.readouterr().err

    def test_nan_gap_fails_the_tolerance(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "verify_equivalence", lambda *args: float("nan"))
        assert main(["verify", "--depth", "2", "--steps", "10", "--mode", "dft"]) == 2
        assert "gap nan exceeds tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_no_steps_exits_one(self, capsys, steps):
        assert main(["verify", "--depth", "2", "--steps", steps, "--mode", "dft"]) == 1
        assert f"verify needs at least one step, got {steps}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["dft", "dat"])
    @pytest.mark.parametrize("depth", ["-1", "5"])
    def test_depth_outside_the_enumeration_range_exits_one(self, monkeypatch, capsys, depth,
                                                           mode):
        # the collapsed learners take depth 5, so the range named must be the
        # explicit mixture's, and it is checked before any stream is drawn
        drawn = []
        monkeypatch.setattr(harness, "generate", lambda *args, **kw: drawn.append(args))
        assert main(["verify", "--depth", depth, "--steps", "10", "--mode", mode]) == 1
        assert drawn == []
        assert capsys.readouterr().err == f"pwltree: verify depth must be in [0, 4], got {depth}\n"

    def test_exit_two_when_run_diverges(self, monkeypatch, capsys):
        # at mu = 1 the lockstep run overflows by step 13; the CLI must not
        # report the NaN gaps that follow as agreement
        diverging = functools.partial(harness.verify_equivalence, mu=1.0)
        monkeypatch.setattr(harness, "verify_equivalence", diverging)
        with np.errstate(all="ignore"):
            code = main(["verify", "--depth", "2", "--steps", "200", "--mode", "dft"])
        assert code == 2
        assert "gap inf exceeds tolerance" in capsys.readouterr().err


class TestRunCommand:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "stream": {"n": 5}, "learners": []}))
        assert main(["run", str(path)]) == 1

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

    @pytest.mark.parametrize("n", [0, -3, 2.5, "10", True, None, "missing"])
    def test_bad_stream_length_exits_one(self, tmp_path, capsys, n):
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
        assert "pwltree: stream length n must be an integer >= 1" in capsys.readouterr().err
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
        assert f"stream length n must be an integer >= 1, got {n}" in capsys.readouterr().err
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
        straight_metrics = tmp_path / "straight.csv"
        straight_snap = tmp_path / "straight.json"
        assert main(["snapshot", "--mode", mode, "--depth", "2", "--mu", "0.005",
                     "--stream", "mismatched", "--n", str(total), "--steps", str(total),
                     "--seed", "3", "--out", str(straight_snap),
                     "--metrics", str(straight_metrics)]) == 0

        half_snap = tmp_path / "half.json"
        assert main(["snapshot", "--mode", mode, "--depth", "2", "--mu", "0.005",
                     "--stream", "mismatched", "--n", str(total), "--steps", str(half),
                     "--seed", "3", "--out", str(half_snap)]) == 0

        resumed_metrics = tmp_path / "resumed.csv"
        resumed_state = tmp_path / "resumed_state.json"
        assert main(["restore", "--snapshot", str(half_snap), "--steps", str(half),
                     "--metrics", str(resumed_metrics),
                     "--state-out", str(resumed_state)]) == 0

        straight = read_csv(straight_metrics)[1:]
        resumed = read_csv(resumed_metrics)[1:]
        straight_e2 = {int(r[0]): r[2] for r in straight}
        for row in resumed:
            t = int(row[0])
            assert half < t <= total
            assert row[2] == straight_e2[t]  # identical repr -> identical float

        final_state = json.loads((tmp_path / "resumed_state.json").read_text())
        reference = json.loads(straight_snap.read_text())["state"]
        assert final_state == reference

    def test_snapshot_to_missing_directory_exits_one(self, tmp_path, capsys):
        out = tmp_path / "absent" / "s.json"
        assert main(["snapshot", "--mode", "dft", "--n", "10", "--steps", "5",
                     "--out", str(out)]) == 1
        assert f"pwltree: cannot write {out}: no directory {out.parent}" in capsys.readouterr().err

    def test_restore_to_missing_directory_exits_one(self, tmp_path, capsys):
        snap = tmp_path / "s.json"
        assert main(["snapshot", "--mode", "dft", "--n", "10", "--steps", "5",
                     "--out", str(snap)]) == 0
        for flag in ("--metrics", "--state-out"):
            out = tmp_path / "absent" / "m.out"
            assert main(["restore", "--snapshot", str(snap), "--steps", "5", flag, str(out)]) == 1
            assert f"pwltree: cannot write {out}" in capsys.readouterr().err

    def test_state_carries_the_step_counter(self, tmp_path):
        snap = tmp_path / "s.json"
        assert main(["snapshot", "--mode", "dat", "--depth", "1", "--n", "20", "--steps", "10",
                     "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        assert snapshot["schema"] == SNAPSHOT_SCHEMA == 3
        assert "t" not in snapshot
        assert snapshot["state"]["t"] == 11

    def test_restore_refuses_schema_one(self, tmp_path, capsys):
        snap = tmp_path / "s.json"
        assert main(["snapshot", "--mode", "dft", "--n", "20", "--steps", "10",
                     "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        for schema in (1, 2):  # 2 held one {label, w, v, theta?} object per node
            snapshot["schema"] = schema
            snap.write_text(json.dumps(snapshot))
            assert main(["restore", "--snapshot", str(snap), "--steps", "5"]) == 1
            assert f"unsupported snapshot schema {schema} (this version reads schema 3)" \
                in capsys.readouterr().err

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
                                             ("stream", 5), (None, None)])
    def test_restore_rejects_non_object_parts(self, tmp_path, capsys, part, value):
        # part None: the file holds a JSON list around the snapshot
        snap = tmp_path / "s.json"
        assert main(["snapshot", "--mode", "dft", "--depth", "1", "--n", "200", "--steps", "100",
                     "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        if part is None:
            snapshot = [snapshot]
        else:
            snapshot[part] = value
        snap.write_text(json.dumps(snapshot))
        assert main(["restore", "--snapshot", str(snap), "--steps", "5"]) == 1
        assert "pwltree: malformed snapshot: " in capsys.readouterr().err

    @pytest.mark.parametrize("part, value", [
        ("stream", {"kind": "matched", "n": 200, "bogus": 1}),
        ("position", "x"), ("position", True), ("position", 1.5), ("position", -1),
        ("seed", 1.5), ("seed", True), ("seed", "3"),
    ], ids=["stream-unknown-key", "position-str", "position-bool", "position-float",
            "position-negative", "seed-float", "seed-bool", "seed-str"])
    def test_restore_rejects_malformed_stream_position_and_seed(self, tmp_path, capsys,
                                                                 part, value):
        snap, metrics = tmp_path / "s.json", tmp_path / "m.csv"
        assert main(["snapshot", "--mode", "dft", "--depth", "1", "--n", "200", "--steps", "100",
                     "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        snapshot[part] = value
        snap.write_text(json.dumps(snapshot))
        assert main(["restore", "--snapshot", str(snap), "--steps", "10",
                     "--metrics", str(metrics)]) == 1
        assert "pwltree: malformed snapshot: " in capsys.readouterr().err
        assert not metrics.exists()

    def test_snapshot_rejects_overrun(self, tmp_path):
        assert main(["snapshot", "--mode", "dft", "--n", "10", "--steps", "20",
                     "--out", str(tmp_path / "s.json")]) == 1

    def test_snapshot_rejects_negative_steps(self, tmp_path, capsys):
        assert main(["snapshot", "--mode", "dft", "--n", "10", "--steps", "-5",
                     "--out", str(tmp_path / "s.json")]) == 1
        assert "cannot run -5 steps from position 0" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_diverging_snapshot_exits_one_and_writes_nothing(self, tmp_path, capsys):
        out, metrics = tmp_path / "s.json", tmp_path / "m.csv"
        with np.errstate(all="ignore"):
            code = main(["snapshot", "--mode", "dat", "--depth", "5", "--mu", "0.005",
                         "--stream", "mismatched", "--n", "1000", "--steps", "1000",
                         "--seed", "0", "--out", str(out), "--metrics", str(metrics)])
        assert code == 1
        assert "prediction diverged at step 158" in capsys.readouterr().err
        assert not out.exists() and not metrics.exists()

    def test_diverging_restore_exits_one_and_writes_nothing(self, tmp_path, capsys):
        snap, metrics, state = tmp_path / "s.json", tmp_path / "m.csv", tmp_path / "f.json"
        assert main(["snapshot", "--mode", "dat", "--depth", "5", "--mu", "0.005",
                     "--stream", "mismatched", "--n", "1000", "--steps", "100",
                     "--seed", "0", "--out", str(snap)]) == 0
        with np.errstate(all="ignore"):
            code = main(["restore", "--snapshot", str(snap), "--steps", "900",
                         "--metrics", str(metrics), "--state-out", str(state)])
        assert code == 1
        assert "prediction diverged at step 58 after position 100" in capsys.readouterr().err
        assert not metrics.exists() and not state.exists()

    def test_restore_rejects_unknown_learner_key(self, tmp_path, capsys):
        snap = tmp_path / "s.json"
        assert main(["snapshot", "--mode", "dat", "--depth", "1", "--n", "20", "--steps", "10",
                     "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        snapshot["learner"]["bogus"] = 1
        snap.write_text(json.dumps(snapshot))
        assert main(["restore", "--snapshot", str(snap), "--steps", "5"]) == 1
        assert "cannot build learner kind 'dat'" in capsys.readouterr().err


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
        assert main(["snapshot", "--mode", "dft", "--depth", "1", "--n", "20", "--steps", "10",
                     "--out", str(snap)]) == 0
        snapshot = json.loads(snap.read_text())
        snapshot["seed"] = seed
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
            "snapshot": lambda: ["snapshot", "--mode", "dft", "--n", "20", "--steps", "10",
                                 "--seed", str(seed), "--out", out],
            "restore": lambda: self.restore_seed(tmp_path, seed),
            "verify": lambda: ["verify", "--depth", "1", "--steps", "5", "--mode", "dft",
                               "--seed", str(seed)],
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
    (["verify", "--depth", "1", "--steps", "5", "--mode", "dft"], 0),
    (["verify", "--depth", "1", "--steps", "5", "--mode", "dft", "--seed", "3"], 3),
    (["gen", "matched", "--n", "5", "--out", "m.csv"], 0),
], ids=["verify", "verify-seed-given", "gen"])
def test_non_integer_seed_variable_exits_one(monkeypatch, capsys, tmp_path, argv, seed):
    # a malformed PWLTREE_SEED once made every command exit 1; the variable is
    # no longer read, so every --seed defaults to 0 and the command runs
    monkeypatch.setenv("PWLTREE_SEED", "abc")
    monkeypatch.chdir(tmp_path)
    seeds = []
    verify = harness.verify_equivalence
    monkeypatch.setattr(harness, "verify_equivalence",
                        lambda *args: seeds.append(args[3]) or verify(*args))
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    if argv[0] == "verify":
        assert seeds == [seed]
        return
    got = np.array([[float(c) for c in row] for row in read_csv(tmp_path / "m.csv")[1:]])
    want = generate("matched", 5, seed=seed)
    np.testing.assert_array_equal(got, np.column_stack([want.inputs, want.targets]))
