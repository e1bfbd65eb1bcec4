import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pwltree.adaptive_tree import AdaptiveTreeRegressor
from pwltree.datagen import gen_henon, generate, stream_to_csv
from pwltree import harness
from pwltree.fixed_tree import FixedTreeRegressor
from pwltree.mixture import DirectMixtureRegressor
from pwltree.trees import Learner
from pwltree.harness import (
    ConfigError,
    ExperimentConfig,
    RunMetrics,
    TrialDiverged,
    average_metrics,
    build_stream,
    load_csv_dataset,
    make_learner,
    run_experiment,
    run_stream,
    verify_config,
    verify_equivalence,
    write_metrics_csv,
    write_summary_json,
)


class ProbeLearner(Learner):
    """Records the order of features/predict/update calls to audit
    causality, and the rows ``predict`` and ``update`` read."""

    def __init__(self):
        self.events = []
        self.seen_targets = []
        self.rows = {"predict": [], "update": []}

    def features(self, x_ext):
        self.events.append(("features", len(self.seen_targets)))
        return 2.0 * x_ext

    def predict(self, x_ext):
        self.events.append(("predict", len(self.seen_targets)))
        self.rows["predict"].append(x_ext)

        class P:
            y_hat = 0.0

        return P()

    def update(self, x_ext, d_t, pred):
        self.events.append(("update", len(self.seen_targets)))
        self.rows["update"].append(x_ext)
        self.seen_targets.append(d_t)


class BlowUpLearner(Learner):
    """Predicts 0 until step ``at`` (1-based), then ``value``."""

    def __init__(self, at, value):
        self.at, self.value, self.steps = at, value, 0

    def predict(self, x_ext):
        class P:
            y_hat = self.value if self.steps + 1 == self.at else 0.0

        return P()

    def update(self, x_ext, d_t, pred):
        self.steps += 1


class TestRunStream:
    def test_prediction_always_recorded_before_target_revealed(self):
        probe = ProbeLearner()
        stream = generate("matched", 25, seed=1)
        run_stream(probe, stream.extended, stream.targets)
        assert probe.events == [("features", 0)] + [
            (kind, t) for t in range(25) for kind in ("predict", "update")]

    def test_features_map_the_stream_once_and_feed_every_step(self):
        # the map runs once, before the first predict, and each step reads
        # its row of the map, never the extended input itself
        probe = ProbeLearner()
        stream = generate("matched", 25, seed=1)
        run_stream(probe, stream.extended, stream.targets)
        assert [kind for kind, _ in probe.events].count("features") == 1
        assert probe.events[0] == ("features", 0)
        for method in ("predict", "update"):
            assert np.array_equal(probe.rows[method], 2.0 * stream.extended)

    def test_learners_get_python_float_targets(self):
        probe = ProbeLearner()
        stream = generate("matched", 5, seed=1)
        run_stream(probe, stream.extended, stream.targets)
        assert [type(d) for d in probe.seen_targets] == [float] * 5
        assert probe.seen_targets == stream.targets.tolist()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e101, -1e101])
    def test_divergence_named_at_its_step(self, value):
        stream = generate("matched", 10, seed=1)
        stub = BlowUpLearner(at=7, value=value)
        with pytest.raises(TrialDiverged, match="at step 7$"):
            run_stream(stub, stream.extended, stream.targets)
        assert stub.steps == 6

    @pytest.mark.parametrize("value", [1e100, -1e100])
    def test_divergence_limit_itself_is_allowed(self, value):
        stream = generate("matched", 10, seed=1)
        m = run_stream(BlowUpLearner(at=7, value=value), stream.extended, stream.targets)
        assert len(m) == 10

    @pytest.mark.parametrize("rows, n_targets", [(1, 5), (5, 4), (4, 5)])
    def test_unequal_lengths_refused_before_any_step(self, rows, n_targets):
        stream = generate("matched", 5, seed=1)
        probe = ProbeLearner()
        with pytest.raises(ValueError, match=f"^{rows} input rows but {n_targets} targets$"):
            run_stream(probe, stream.extended[:rows], stream.targets[:n_targets])
        assert probe.events == []

    def test_metrics_shapes(self):
        stream = generate("matched", 50, seed=1)
        m = run_stream(FixedTreeRegressor(2, 2), stream.extended, stream.targets)
        assert len(m) == 50
        assert m.cum_e2.shape == (50,)
        assert np.all(np.diff(m.cum_e2) >= 0)
        assert (m.norm_err >= 0).all()
        assert m.counters["regressor_evaluations"] == 150

    def test_divergence_detected(self):
        stream = generate("matched", 3000, seed=1)
        wild = FixedTreeRegressor(2, 2, mu=50.0)
        with pytest.raises(TrialDiverged):
            run_stream(wild, stream.extended, stream.targets)

    @pytest.mark.parametrize("learner", [FixedTreeRegressor, AdaptiveTreeRegressor])
    @pytest.mark.parametrize("where", ["input", "target"])
    def test_non_finite_data_rejected_before_any_step(self, learner, where):
        stream = generate("matched", 20, seed=1)
        x_ext, targets = stream.extended.copy(), stream.targets.copy()
        if where == "input":
            x_ext[2, 0] = np.nan
        else:
            targets[2] = np.inf
        lrn = learner(2, 2)
        with pytest.raises(ValueError, match="at step 3$"):
            run_stream(lrn, x_ext, targets)
        assert lrn.t == 1


class TestAveraging:
    def test_identical_trials_average_to_single_run(self):
        # the quadratic-map stream ignores the seed, so trials coincide
        cfg = ExperimentConfig(
            stream={"kind": "henon", "n": 300},
            learners=[{"name": "dft", "kind": "dft", "depth": 1, "mu": 0.05}],
            trials=3, seed=0)
        result = run_experiment(cfg)
        single = run_stream(FixedTreeRegressor(1, 2, mu=0.05),
                            gen_henon(300).extended, gen_henon(300).targets)
        np.testing.assert_allclose(result.metrics["dft"].e2, single.e2)
        assert result.metrics["dft"].trials == 3

    def test_pointwise_mean(self):
        a = RunMetrics(np.array([1.0, 2.0]), counters={"k": 2})
        b = RunMetrics(np.array([3.0, 6.0]), counters={"k": 4})
        avg = average_metrics([a, b])
        np.testing.assert_allclose(avg.e2, [2.0, 4.0])
        assert avg.counters["k"] == 3.0


class TestConfig:
    def base(self):
        return {
            "schema": 1,
            "seed": 3,
            "trials": 2,
            "stream": {"kind": "matched", "n": 50},
            "learners": [{"name": "a", "kind": "lf", "mu": 0.05}],
        }

    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(self.base())
        assert cfg.trials == 2
        assert cfg.to_dict()["stream"]["kind"] == "matched"

    def test_bad_schema(self):
        raw = self.base()
        raw["schema"] = 99
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_duplicate_names(self):
        raw = self.base()
        raw["learners"] = [{"name": "a", "kind": "lf"}, {"name": "a", "kind": "vf"}]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_missing_stream_kind(self):
        raw = self.base()
        raw["stream"] = {"n": 10}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_unknown_key_rejected(self):
        raw = self.base()
        raw["bogus"] = 1
        raw["trails"] = 3
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(raw)
        assert str(info.value) == "a config takes only schema, stream, learners, trials, seed, stride and output, not 'bogus', 'trails'"

    @pytest.mark.parametrize("keys", [("stream",), ("learners",), ("stream", "learners")])
    def test_missing_key_named(self, keys):
        raw = self.base()
        for key in keys:
            raw.pop(key)
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(raw)
        assert str(info.value) == "a config requires " + " and ".join(map(repr, keys))

    def test_seed_env_default(self, monkeypatch):
        # the seed comes from the config alone: PWLTREE_SEED is not read
        monkeypatch.setenv("PWLTREE_SEED", "777")
        raw = self.base()
        raw.pop("seed")
        assert ExperimentConfig.from_dict(raw).seed == 0

    def test_non_integer_seed_env_refused(self, monkeypatch):
        # a malformed variable refuses nothing; a non-integer seed in the config,
        # null included, is what is refused
        monkeypatch.setenv("PWLTREE_SEED", "abc")
        raw = self.base()
        raw.pop("seed")
        assert ExperimentConfig.from_dict(raw).seed == 0
        raw["seed"] = None
        with pytest.raises(ConfigError, match="seed must be an integer, got None"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("seed, trials, bad", [(-1, 1, -1), (-5, 3, -5),
                                                   (2**64 - 1, 2, 2**64), (2**64, 1, 2**64),
                                                   (2**64 - 3, 4, 2**64)])
    def test_trial_seed_outside_the_key_range_refused(self, seed, trials, bad):
        raw = self.base()
        raw["seed"], raw["trials"] = seed, trials
        last = seed + trials - 1
        with pytest.raises(ConfigError, match=re.escape(
                f"got {bad}: trial seeds run from {seed} to {last}")):
            ExperimentConfig.from_dict(raw)

    def test_last_key_is_a_valid_trial_seed(self):
        raw = self.base()
        raw["seed"], raw["trials"] = 2**64 - 2, 2
        assert ExperimentConfig.from_dict(raw).seed == 2**64 - 2

    @pytest.mark.parametrize("field, value", [("stride", 2.5), ("trials", 1.5), ("seed", "7"),
                                              ("trials", True)])
    def test_non_integer_field_rejected(self, field, value):
        raw = self.base()
        raw[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("output", [["a"], 5, True, {"a": 1}])
    def test_non_string_output_rejected(self, output):
        raw = self.base()
        raw["output"] = output
        with pytest.raises(ConfigError, match=re.escape(
                f"output must be a string or null, got {output!r}")):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("learners", [[5], "abc", [{"kind": "lf"}, []], {"kind": "lf"}],
                             ids=["int-entry", "string", "list-entry", "object"])
    def test_learners_not_a_list_of_objects(self, learners):
        raw = self.base()
        raw["learners"] = learners
        with pytest.raises(ConfigError, match="learners must be a list of objects"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("spec, named", [
        (5, "stream must be an object, got int"),
        (["kind", "matched"], "stream must be an object, got list"),
        ({"kind": "matched", "n": 10, "bogus": 1}, "'bogus'"),
        ({"kind": "henon", "n": 10, "noise_var": 0.1}, "'noise_var'"),
        ({"kind": "csv"}, "cannot build stream kind 'csv': it requires 'path' and 'target'"),
        ({"kind": "csv", "path": "data.csv"}, "cannot build stream kind 'csv': it requires 'target'"),
        ({"kind": "csv", "path": "data.csv", "target": "d", "bogus": 1}, "not 'bogus'"),
        ({"kind": "csv", "path": "data.csv", "target": "d", "n": 5}, "not 'n'"),
        ({"kind": "matched", "n": 50, "normalize": "false"},
         "stream normalize must be true or false, got 'false'"),
        ({"kind": "matched", "n": 50, "normalize": 1},
         "stream normalize must be true or false, got 1"),
        ({"kind": "matched", "n": 50, "normalize": None},
         "stream normalize must be true or false, got None"),
    ], ids=["int", "list", "generator-unknown-key", "henon-noise-var", "csv-empty",
            "csv-no-target", "csv-unknown-key", "csv-n", "normalize-string", "normalize-int",
            "normalize-null"])
    def test_malformed_stream_spec(self, spec, named):
        with pytest.raises(ConfigError, match=named):
            build_stream(spec, seed=0)

    @pytest.mark.parametrize("spec, takes", [
        ({"kind": "matched", "n": 5, "nois_var": 0.1}, "n, noise_var and normalize, not 'nois_var'"),
        ({"kind": "henon", "n": 5, "zeta": 1.4}, "n and normalize, not 'zeta'"),
        ({"kind": "henon", "n": 5, "noise_var": 0.1}, "n and normalize, not 'noise_var'"),
        ({"kind": "lorenz", "n": 5, "seed": 1, "dt": 0.01}, "n and normalize, not 'dt', 'seed'"),
        ({"kind": "csv", "path": "data.csv", "target": "d", "n": 5},
         "path, target and normalize, not 'n'"),
    ], ids=["piecewise-misspelt", "henon-zeta", "henon-noise_var", "lorenz-two", "csv-n"])
    def test_stream_key_refused_by_kind(self, spec, takes):
        # one check names the kind and the keys it takes, never the
        # private function that builds the stream
        with pytest.raises(ConfigError) as info:
            build_stream(spec, seed=0)
        message = str(info.value)
        assert message == f"cannot build stream kind {spec['kind']!r}: it takes only {takes}"
        assert not any(name in message for name in ("_piecewise", "gen_", "__init__"))

    @pytest.mark.parametrize("kind", ["mystery", None, ["matched"], 3])
    def test_unknown_stream_kind(self, kind):
        with pytest.raises(ConfigError, match=re.escape(f"unknown stream kind {kind!r}")):
            build_stream({"kind": kind, "n": 5}, seed=0)

    def test_unknown_learner_kind(self):
        with pytest.raises(ConfigError):
            make_learner({"kind": "mystery"}, dim=2)

    @pytest.mark.parametrize("spec, takes", [
        ({"kind": "dft", "depth": 2, "s_plus": 0.01}, "depth, mu and theta, not 's_plus'"),
        # every tree kind names its hyperplanes theta
        *[({"kind": kind, "depth": 2, "boundaries": [[1.0, 0.0, 0.0]] * 3},
           f"{takes}, not 'boundaries'") for kind, takes in [
            ("dft", "depth, mu and theta"), ("dat", "depth, mu, s_plus and theta"),
            ("direct", "depth, mode, mu, theta and s_plus")]],
        ({"kind": "lf", "mu": 0.1, "order": 1}, "mu, not 'order'"),
        ({"kind": "vf", "mu": 0.1, "order": 2}, "mu, not 'order'"),
        ({"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": 1.0, "covariance": 1.0},
         "centers, covariances and mu, not 'covariance'"),
        *[({"kind": kind, "dim": 2, **extra}, f"{takes}, not 'dim'") for kind, extra, takes in [
            ("dft", {"depth": 2}, "depth, mu and theta"),
            ("dat", {"depth": 2}, "depth, mu, s_plus and theta"),
            ("direct", {"depth": 2}, "depth, mode, mu, theta and s_plus"),
            ("lf", {}, "mu"), ("vf", {}, "mu"),
            ("gkr", {"centers": [[0.0, 0.0]], "covariances": 1.0}, "centers, covariances and mu")]],
        ({"kind": "vf", "order": 2, "dim": 2, "name": "v"}, "mu, not 'dim', 'order'"),
    ], ids=["dft-s_plus", "dft-boundaries", "dat-boundaries", "direct-boundaries", "lf-order",
            "vf-order", "gkr-covariance", "dft-dim", "dat-dim", "direct-dim", "lf-dim", "vf-dim",
            "gkr-dim", "vf-two"])
    def test_learner_key_refused_by_kind(self, spec, takes):
        # one check names the kind and the keys it takes, never the
        # constructor the kind is built by; a config holding the entry is
        # refused when it is read, before any stream is drawn
        message = f"cannot build learner kind {spec['kind']!r}: it takes only {takes}"
        with pytest.raises(ConfigError) as info:
            make_learner(spec, dim=2)
        assert str(info.value) == message
        assert "__init__" not in message
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(stream={"kind": "matched", "n": 5}, learners=[spec])

    def test_readme_lists_the_keys_each_kind_takes(self):
        # the harness reads each kind's keys from its constructor, but the
        # README's sentence "`dft` takes ...; ...; `gkr` ..." is a copy
        readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
        sentence = "`dft` " + readme.split("`dft` takes ", 1)[1].split(".", 1)[0]
        listed = {}
        for clause in sentence.split(";"):
            names = re.findall(r"`(\w+)`", clause)
            kinds = [name for name in names if name in harness._LEARNER_KEYS]
            assert names[:len(kinds)] == kinds, clause
            listed.update(dict.fromkeys(kinds, names[len(kinds):]))
        assert listed == {kind: list(keys) for kind, keys in harness._LEARNER_KEYS.items()}

    @pytest.mark.parametrize("spec, requires", [
        ({"kind": "dft"}, "'depth'"),
        ({"kind": "dat", "mu": 0.01}, "'depth'"),
        ({"kind": "direct", "mode": "soft"}, "'depth'"),
        ({"kind": "gkr", "covariances": 1.0}, "'centers'"),
        ({"kind": "gkr", "centers": [[0.0, 0.0]], "mu": 0.5}, "'covariances'"),
        ({"kind": "gkr"}, "'centers' and 'covariances'"),
    ], ids=["dft-depth", "dat-depth", "direct-depth", "gkr-centers", "gkr-covariances",
            "gkr-both"])
    def test_learner_missing_required_key_refused_when_read(self, spec, requires,
                                                             monkeypatch):
        # a key without a constructor default is required: a config that
        # lacks it is refused when read, naming the kind and the key, never
        # the constructor, and no stream is drawn
        def no_stream(*args, **kwargs):
            raise AssertionError("stream drawn for a config that lacks a required key")

        monkeypatch.setattr(harness, "generate", no_stream)
        message = f"cannot build learner kind {spec['kind']!r}: it requires {requires}"
        raw = {"stream": {"kind": "matched", "n": 5}, "learners": [{"name": "x", **spec}]}
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(raw)
        assert str(info.value) == message
        assert "__init__" not in message
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make_learner(spec, dim=2)

    @pytest.mark.parametrize("part, spec, message", [
        ("config", {"stream": {"kind": "matched", "n": 5}, "learners": [{"kind": "lf"}],
                    "bogus": 1},
         "a config takes only schema, stream, learners, trials, seed, stride and output, "
         "not 'bogus'"),
        ("config", {"learners": [{"kind": "lf"}]}, "a config requires 'stream'"),
        ("stream", {"kind": "csv", "path": "d.csv", "target": "y", "bogus": 1},
         "cannot build stream kind 'csv': it takes only path, target and normalize, not 'bogus'"),
        ("stream", {"kind": "csv", "target": "y"}, "cannot build stream kind 'csv': it requires 'path'"),
        ("stream", {"kind": "first_order", "n": 5, "bogus": 1},
         "cannot build stream kind 'first_order': it takes only n, noise_var and normalize, "
         "not 'bogus'"),
        ("stream", {"kind": "first_order", "noise_var": 0.1},
         "cannot build stream kind 'first_order': it requires 'n'"),
        ("stream", {"kind": "lorenz", "n": 5, "bogus": 1},
         "cannot build stream kind 'lorenz': it takes only n and normalize, not 'bogus'"),
        ("stream", {"kind": "lorenz"}, "cannot build stream kind 'lorenz': it requires 'n'"),
        *[("learner", {"kind": kind, **keys, "bogus": 1},
           f"cannot build learner kind {kind!r}: it takes only {takes}, not 'bogus'")
          for kind, keys, takes in [
              ("dft", {"depth": 1}, "depth, mu and theta"),
              ("dat", {"depth": 1}, "depth, mu, s_plus and theta"),
              ("direct", {"depth": 1}, "depth, mode, mu, theta and s_plus"),
              ("lf", {}, "mu"), ("vf", {}, "mu"),
              ("gkr", {"centers": [[0.0, 0.0]], "covariances": 1.2}, "centers, covariances and mu")]],
        *[("learner", {"kind": kind, "mu": 0.01}, f"cannot build learner kind {kind!r}: it requires "
                                                   f"{requires}")
          for kind, requires in [("dft", "'depth'"), ("dat", "'depth'"), ("direct", "'depth'"),
                                 ("gkr", "'centers' and 'covariances'")]],
    ], ids=["config-unknown", "config-missing", "csv-unknown", "csv-missing", "piecewise-unknown",
            "piecewise-missing", "chaotic-unknown", "chaotic-missing", "dft-unknown",
            "dat-unknown", "direct-unknown", "lf-unknown", "vf-unknown", "gkr-unknown",
            "dft-missing", "dat-missing", "direct-missing", "gkr-missing"])
    def test_one_key_rule(self, part, spec, message, monkeypatch):
        # the top level, every stream kind and every learner kind share one
        # key check and its two message forms, and each is applied when the
        # config is read, before any stream is drawn or file opened
        def no_stream(*args, **kwargs):
            raise AssertionError("stream drawn for a config with a bad key")

        monkeypatch.setattr(harness, "generate", no_stream)
        monkeypatch.setattr(harness, "load_csv_dataset", no_stream)
        raw = {"config": spec,
               "stream": {"stream": spec, "learners": [{"kind": "lf"}]},
               "learner": {"stream": {"kind": "matched", "n": 5}, "learners": [spec]}}[part]
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(raw)
        assert str(info.value) == message
        if part != "config":
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                build_stream(spec, 0) if part == "stream" else make_learner(spec, 2)

    @pytest.mark.parametrize("stream, message", [
        ({"kind": "nope", "n": 5}, "unknown stream kind 'nope'"),
        ({"kind": "matched", "n": 5, "bogus": 1},
         "cannot build stream kind 'matched': it takes only n, noise_var and normalize, "
         "not 'bogus'"),
        ({"kind": "matched"}, "cannot build stream kind 'matched': it requires 'n'"),
        ({"kind": "henon", "n": 0}, "stream length n must be >= 1, got 0"),
        ({"kind": "matched", "n": 5, "normalize": "yes"},
         "stream normalize must be true or false, got 'yes'"),
        ({"kind": "csv", "path": 0, "target": "y"}, "csv stream path must be a string, got 0"),
        ({"kind": "matched", "n": 5, "noise_var": -1},
         "noise_var must be a finite number >= 0, got -1"),
        ({"kind": "matched", "n": 5, "noise_var": "0.1"},
         "noise_var must be a finite number >= 0, got '0.1'"),
        ({"kind": "csv", "path": "data.csv", "target": 1.5},
         "csv stream target must be a column name or a 0-based index, got 1.5"),
    ], ids=["unknown-kind", "bogus-key", "missing-n", "zero-n", "non-bool-normalize",
            "non-string-path", "noise-negative", "noise-string", "csv-target-float"])
    def test_bad_stream_refused_when_read(self, stream, message, monkeypatch):
        # the stream spec gets the same checks as build_stream gives it,
        # before any stream is drawn or dataset opened
        def no_stream(*args, **kwargs):
            raise AssertionError("stream drawn for a config with a bad stream")

        monkeypatch.setattr(harness, "generate", no_stream)
        monkeypatch.setattr(harness, "load_csv_dataset", no_stream)
        raw = {"stream": stream, "learners": [{"kind": "lf"}]}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_stream(stream, 0)

    @pytest.mark.parametrize("learners, message", [
        ([{"kind": "lf", "name": [1]}], "learner name must be a non-empty string, got [1]"),
        ([{"kind": "lf", "name": 5}, {"kind": "vf", "name": "5"}],
         "learner name must be a non-empty string, got 5"),
        ([{"kind": "lf", "name": ""}], "learner name must be a non-empty string, got ''"),
        ([{"kind": "lf", "name": None}], "learner name must be a non-empty string, got None"),
        ([{"kind": "lf"}, {"kind": "vf", "name": "lf"}], "learner names must be unique"),
    ], ids=["list", "int-beside-string", "empty", "null", "kind-taken"])
    def test_bad_learner_name_refused(self, learners, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict({"stream": {"kind": "matched", "n": 5},
                                        "learners": learners})

    def test_learner_named_by_kind_when_unnamed(self):
        cfg = ExperimentConfig(stream={"kind": "matched", "n": 20},
                               learners=[{"kind": "lf"}, {"kind": "vf", "name": "quad"}])
        assert list(run_experiment(cfg).metrics) == ["lf", "quad"]

    def test_learner_key_table_matches_the_constructors(self):
        # the table is read from the constructors' signatures, so every
        # shipped config's learner entries, csv_template.json's included,
        # must pass it: a constructor or config edit that leaves the
        # shipped configs behind fails
        configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
        assert "csv_template.json" in [path.name for path in configs]
        for path in configs:
            for entry in json.loads(path.read_text())["learners"]:
                assert harness._learner_params(entry)[0] == entry["kind"], path.name

    def test_bad_learner_params(self):
        with pytest.raises(ConfigError):
            make_learner({"kind": "dft", "depth": 99}, dim=2)

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "dft", "depth": True}, "depth must be an integer, got True"),
        ({"kind": "direct", "depth": True}, "depth must be an integer, got True"),
        ({"kind": "dat", "depth": 2.0}, "depth must be an integer, got 2.0"),
        ({"kind": "direct", "depth": "2"}, "depth must be an integer, got '2'"),
        ({"kind": "dat", "depth": 2, "s_plus": "0.01"},
         "s_plus must lie in (0, 0.5), got '0.01'"),
        ({"kind": "direct", "depth": 2, "mode": "soft", "s_plus": True},
         "s_plus must lie in (0, 0.5), got True"),
        # a hard oracle takes no gate clamp, whatever its value
        ({"kind": "direct", "depth": 2, "s_plus": "0.01"},
         "s_plus is the soft gates' clamp, and mode 'hard' takes none, got '0.01'"),
        ({"kind": "direct", "depth": 2, "mode": "hard", "s_plus": 0.01},
         "s_plus is the soft gates' clamp, and mode 'hard' takes none, got 0.01"),
        # the Volterra filter is second order only: an order key is refused by name
        ({"kind": "vf", "order": 2.0}, "it takes only mu, not 'order'"),
        ({"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": True},
         "covariances must be a finite number > 0, got True"),
        ({"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": "1.2"},
         "covariances must be a finite number > 0, got '1.2'"),
        ({"kind": "gkr", "centers": [[0.0, 0.0]], "covariances": [[1.0, 0.0], [0.0, True]]},
         "covariances must be a finite number > 0, got [[1.0, 0.0], [0.0, True]]"),
        ({"kind": "gkr", "centers": [[True, 0.0]], "covariances": 1.0},
         "centers must be a list of points, numbers only"),
        ({"kind": "dat", "depth": 1, "theta": [[True, 0, 0]]},
         "theta of node 0 is not a row of 3 numbers: [True, 0, 0]"),
        ({"kind": "dft", "depth": 1, "theta": [[True, 0, 0]]},
         "theta of node 0 is not a row of 3 numbers: [True, 0, 0]"),
        ({"kind": "direct", "depth": 1, "theta": [["0.5", 0, 0]]},
         "theta of node 0 is not a row of 3 numbers: ['0.5', 0, 0]"),
        # a depth-0 tree takes only the empty list: an empty row is still a row
        ({"kind": "dat", "depth": 0, "theta": [[]]},
         "theta must have shape (0, 3) and hold only numbers"),
        ({"kind": "dft", "depth": 0, "theta": [[0.0, 1.0, 0.0]]},
         "theta must have shape (0, 3) and hold only numbers"),
        ({"kind": "direct", "depth": 0, "theta": [[]]},
         "theta must have shape (0, 3) and hold only numbers"),
    ], ids=["dft-bool-depth", "direct-bool-depth", "dat-float-depth", "direct-string-depth",
            "dat-string-s-plus", "soft-direct-bool-s-plus", "hard-direct-string-s-plus",
            "hard-direct-s-plus", "vf-float-order", "gkr-bool-covariance", "gkr-string-covariance",
            "gkr-bool-in-covariance", "gkr-bool-in-centers", "dat-bool-in-theta",
            "dft-bool-in-boundaries", "direct-string-in-boundaries", "dat-d0-empty-row-theta",
            "dft-d0-row-in-boundaries", "direct-d0-empty-row-boundaries"])
    def test_learner_param_type_named(self, spec, message):
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot build learner kind '{spec['kind']}': {message}")):
            make_learner(spec, dim=2)

    @pytest.mark.parametrize("key, value", [("eta", 0.25), ("step_cap", None),
                                            ("literal_gradient", True)])
    @pytest.mark.parametrize("kind", ["dat", "direct"])
    def test_removed_boundary_step_key_named(self, kind, key, value):
        # the soft learners have one boundary-step rule, fixed by s_plus
        spec = {"kind": kind, "depth": 1, key: value}
        if kind == "direct":
            spec["mode"] = "soft"
        with pytest.raises(ConfigError, match=f"cannot build learner kind '{kind}': .*'{key}'"):
            make_learner(spec, dim=2)


class TestRunExperiment:
    def test_trial_seeds_offset_from_base(self):
        cfg = ExperimentConfig(
            stream={"kind": "matched", "n": 40},
            learners=[{"name": "lf", "kind": "lf", "mu": 0.05}],
            trials=2, seed=10)
        result = run_experiment(cfg)
        by_hand = []
        for trial in (0, 1):
            stream = generate("matched", 40, seed=10 + trial)
            from pwltree.baselines import LinearFilter
            by_hand.append(run_stream(LinearFilter(2, mu=0.05),
                                      stream.extended, stream.targets))
        np.testing.assert_allclose(result.metrics["lf"].e2, average_metrics(by_hand).e2)

    def test_divergent_learner_reported_not_fatal(self):
        cfg = ExperimentConfig(
            stream={"kind": "matched", "n": 3000},
            learners=[{"name": "ok", "kind": "lf", "mu": 0.01},
                      {"name": "wild", "kind": "dft", "depth": 2, "mu": 50.0}],
            trials=1, seed=0)
        result = run_experiment(cfg)
        assert "ok" in result.metrics
        assert "wild" not in result.metrics
        assert any("wild" in f for f in result.failures)


class TestOutputs:
    def make_result(self, tmp_path, stride=1):
        cfg = ExperimentConfig(
            stream={"kind": "matched", "n": 20},
            learners=[{"name": "lf", "kind": "lf", "mu": 0.05}],
            trials=1, seed=4, stride=stride)
        return run_experiment(cfg)

    def test_metrics_csv_columns_and_stride(self, tmp_path):
        result = self.make_result(tmp_path, stride=6)
        path = tmp_path / "m.csv"
        write_metrics_csv(result.metrics, path, stride=result.config.stride)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "learner", "e2", "cum_e2", "norm_err"]
        ts = [int(r[0]) for r in rows[1:]]
        assert ts == [6, 12, 18, 20]  # stride points plus the final step

    def test_summary_json(self, tmp_path):
        result = self.make_result(tmp_path)
        path = tmp_path / "s.json"
        write_summary_json(result, path)
        summary = json.loads(path.read_text())
        assert summary["config"]["stream"]["kind"] == "matched"
        assert "lf" in summary["results"]
        assert summary["results"]["lf"]["n"] == 20

    @pytest.mark.parametrize("learner, plain", [
        ({"kind": "dft", "depth": np.int64(1)}, {"kind": "dft", "depth": 1}),
        ({"kind": "gkr", "centers": np.zeros((2, 2)), "covariances": 1.0},
         {"kind": "gkr", "centers": [[0.0, 0.0], [0.0, 0.0]], "covariances": 1.0}),
    ], ids=["numpy-depth", "numpy-centres"])
    def test_summary_of_a_numpy_config_reads_back_plain(self, tmp_path, learner, plain):
        # a config built in Python may hold numpy values, which json alone
        # cannot encode: the summary writes them as their tolist()
        cfg = ExperimentConfig({"kind": "matched", "n": 20}, [learner])
        path = tmp_path / "s.json"
        write_summary_json(run_experiment(cfg), path)
        summary = json.loads(path.read_text())
        assert summary["config"]["learners"] == [plain]
        assert summary["results"][learner["kind"]]["n"] == 20

    def test_value_json_cannot_hold_leaves_no_file(self, tmp_path):
        # the whole summary is encoded before the file is opened, so a
        # refused value leaves no file cut off mid-object
        result = self.make_result(tmp_path)
        result.failures.append({1, 2})
        path = tmp_path / "s.json"
        with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
            write_summary_json(result, path)
        assert not path.exists()


class TestCsvDataset:
    def write_csv(self, tmp_path, rows, header="a,b,y"):
        path = tmp_path / "data.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    def build(self, path, target="y"):
        return build_stream({"kind": "csv", "path": str(path), "target": target}, seed=0)

    def test_normalization_endpoints_and_midpoint(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,4,-2", "10,5,0", "5,6,2"])
        stream = self.build(path)
        np.testing.assert_allclose(stream.inputs[:, 0], [-1.0, 1.0, 0.0])
        np.testing.assert_allclose(stream.targets, [-1.0, 0.0, 1.0])

    def test_constant_column_warns_and_zeroes(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,5,-2", "10,5,0"])
        with pytest.warns(UserWarning, match="column 'x2' is constant"):
            stream = self.build(path)
        assert (stream.inputs[:, 1] == 0.0).all()

    def test_loader_returns_the_raw_columns(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,4,-2", "10,5,0", "5,6,2"])
        stream = load_csv_dataset(path, "b")
        np.testing.assert_array_equal(stream.inputs, [[0.0, -2.0], [10.0, 0.0], [5.0, 2.0]])
        np.testing.assert_array_equal(stream.targets, [4.0, 5.0, 6.0])
        raw = build_stream({"kind": "csv", "path": str(path), "target": 1, "normalize": False},
                           seed=0)
        np.testing.assert_array_equal(raw.inputs, stream.inputs)
        np.testing.assert_array_equal(raw.targets, stream.targets)

    def test_generated_stream_round_trips_bit_for_bit(self, tmp_path):
        stream = generate("mismatched", 200, seed=9)
        path = tmp_path / "stream.csv"
        stream_to_csv(stream, path)
        back = load_csv_dataset(path, "d")
        np.testing.assert_array_equal(back.inputs, stream.inputs)
        np.testing.assert_array_equal(back.targets, stream.targets)

    def test_target_by_index_and_name_agree(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,1,2", "3,4,5", "6,7,8"])
        by_name = load_csv_dataset(path, "b")
        by_index = load_csv_dataset(path, 1)
        np.testing.assert_array_equal(by_name.targets, by_index.targets)

    def test_non_numeric_cell(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,oops,1", "2,3,4"])
        with pytest.raises(ValueError):
            load_csv_dataset(path, "y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_named(self, tmp_path, cell):
        path = self.write_csv(tmp_path, ["0,1,2", f"3,{cell},5"])
        with pytest.raises(ValueError) as info:
            load_csv_dataset(path, "y")
        message = str(info.value)
        assert str(path) in message
        assert f"{cell!r}" in message
        assert "data row 2 (line 3), column 'b'" in message

    def test_row_wider_than_header(self, tmp_path):
        path = self.write_csv(tmp_path, ["1,2,3"], header="a,y")
        with pytest.raises(ValueError) as info:
            load_csv_dataset(path, "y")
        assert str(info.value) == f"row of 3 cells under a header of 2 in {path}: data row 1 (line 2)"

    def test_missing_target_column(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,1,2"])
        with pytest.raises(ValueError):
            load_csv_dataset(path, "zzz")

    @pytest.mark.parametrize("target", [-1, 5, True])
    def test_bad_target_index_names_the_header(self, tmp_path, target):
        path = self.write_csv(tmp_path, ["0,1,2"])
        with pytest.raises(ValueError, match=rf"target column {target!r} is neither a name in "
                                             rf"header \['a', 'b', 'y'\]"):
            load_csv_dataset(path, target)

    def test_build_stream_from_csv_spec(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,1,2", "3,4,5", "1,2,3"])
        stream = build_stream({"kind": "csv", "path": str(path), "target": "y"}, seed=0)
        assert stream.dim == 2
        assert len(stream) == 3


class TestVerify:
    def test_dft_within_tolerance(self):
        assert verify_equivalence("dft", 2, 200, seed=5) <= 1e-9

    def test_dat_within_tolerance(self):
        assert verify_equivalence("dat", 1, 200, seed=5) <= 1e-9

    def test_lockstep_learners_get_python_float_targets(self, monkeypatch):
        seen = []

        class Recording(FixedTreeRegressor):
            def update(self, x_ext, d_t, pred):
                seen.append(type(d_t))
                super().update(x_ext, d_t, pred)

        monkeypatch.setattr(harness, "FixedTreeRegressor", Recording)
        assert verify_equivalence("dft", 1, 20, seed=5) <= 1e-9
        assert seen == [float] * 20

    @pytest.mark.parametrize("mode", ["dft", "dat"])
    def test_diverged_run_reports_infinite_gap(self, mode):
        # at mu = 1 both learners overflow by step 13 on this stream; the
        # NaN gaps that follow must not read as agreement
        with np.errstate(all="ignore"):
            assert verify_equivalence(mode, 2, 200, seed=5, mu=1.0) == float("inf")

    def test_collapsed_learner_steps_before_the_oracle_once_per_row(self, monkeypatch):
        # the benchmark's lockstep clock times a step from the collapsed
        # learner's step to the oracle's, so the two must alternate
        calls = []

        def recording(cls, label):
            class Recording(cls):
                def step(self, x_ext, d_t):
                    calls.append(label)
                    return super().step(x_ext, d_t)
            return Recording

        monkeypatch.setattr(harness, "FixedTreeRegressor", recording(FixedTreeRegressor, "fast"))
        monkeypatch.setattr(harness, "DirectMixtureRegressor",
                            recording(DirectMixtureRegressor, "slow"))
        assert verify_equivalence("dft", 1, 20, seed=5) <= 1e-9
        assert calls == ["fast", "slow"] * 20

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match=r"^unknown learner kind 'nope'$"):
            verify_equivalence("nope", 2, 10, seed=1)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_no_steps_refused(self, steps):
        with pytest.raises(ConfigError, match=f"^stream length n must be >= 1, got {steps}$"):
            verify_equivalence("dft", 2, steps, seed=1)

    @pytest.mark.parametrize("steps", [2.5, 10.0, True, "10", None])
    def test_non_integer_steps_refused(self, steps):
        message = re.escape(f"stream length n must be an integer, got {steps!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            verify_equivalence("dft", 2, steps, seed=1)

    def test_unknown_mode_refused_before_the_stream_is_drawn(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("stream drawn for an unknown mode")

        monkeypatch.setattr(harness, "generate", refuse)
        with pytest.raises(ConfigError, match=r"^unknown learner kind 'nope'$"):
            verify_equivalence("nope", 2, 10, seed=1)

    @pytest.mark.parametrize("mode", ["dft", "dat"])
    @pytest.mark.parametrize("depth", [-1, 6])
    def test_depth_outside_the_enumeration_range_refused(self, mode, depth):
        # the oracle takes every depth the learners take, so the range is
        # theirs and the refusal is the one run_experiment gives
        message = re.escape(f"cannot build learner kind {mode!r}: depth must be in [0, 5], "
                            f"got {depth}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            verify_equivalence(mode, depth, 10, seed=1)

    @pytest.mark.parametrize("mode", ["dft", "dat"])
    def test_every_pair_is_built_before_any_step(self, monkeypatch, mode):
        # as in run_experiment: a bad entry after a good one is refused
        # before the good one takes a step
        steps = []
        monkeypatch.setattr(Learner, "step",
                            lambda self, x, d: steps.append(self) or (0.0, 0.0))
        config = ExperimentConfig({"kind": "matched", "n": 10},
                                  [{"kind": "dft", "depth": 1}, {"name": "deep", "kind": mode,
                                                                 "depth": 6}])
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot build learner kind {mode!r}: depth must be in [0, 5], got 6") + "$"):
            verify_config(config)
        assert steps == []

    def test_config_without_a_tree_learner_refused(self, monkeypatch):
        monkeypatch.setattr(harness, "generate", lambda *args, **kwargs: pytest.fail("drawn"))
        config = ExperimentConfig({"kind": "matched", "n": 10},
                                  [{"kind": "lf"}, {"name": "volterra", "kind": "vf"}])
        with pytest.raises(ConfigError, match="^verify needs a dft or dat learner, not only "
                                              "'lf' and 'volterra'$"):
            verify_config(config)


def non_axis(depth: int, seed: int) -> list:
    """Hyperplanes of a depth-``depth`` tree over 2 inputs that lie along no axis."""
    return np.random.default_rng(seed).normal(size=((1 << depth) - 1, 3)).tolist()


class TestVerifyConfig:
    """``verify_config`` builds each explicit mixture from the learner's own
    entry, so every option the entry sets reaches the oracle."""

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("case", ["s_plus", "theta", "boundaries", "normalize",
                                      "default-mu"])
    def test_options_reach_the_oracle(self, depth, case):
        # a depth-0 tree's hyperplanes are the empty list
        stream = {"kind": "mismatched", "n": 300}
        learners = {
            "s_plus": [{"kind": "dat", "depth": depth, "mu": 0.005, "s_plus": 0.05}],
            "theta": [{"kind": "dat", "depth": depth, "mu": 0.005, "theta": non_axis(depth, 1)}],
            "boundaries": [{"kind": "dft", "depth": depth, "mu": 0.005,
                            "theta": non_axis(depth, 2)}],
            "normalize": [{"kind": "dat", "depth": depth, "mu": 0.005},
                          {"kind": "dft", "depth": depth, "mu": 0.005}],
            # dat's default mu, 0.005, is not the oracle's, 0.01
            "default-mu": [{"kind": "dat", "depth": depth}],
        }[case]
        if case == "normalize":
            stream["normalize"] = True
        gaps = verify_config(ExperimentConfig(stream, learners, trials=2, seed=3))
        assert list(gaps) == [entry["kind"] for entry in learners]
        assert all(gap <= 1e-9 for gap in gaps.values()), gaps

    def test_every_stream_of_every_trial_is_stepped(self, monkeypatch):
        seeds = []
        build = harness.build_stream
        monkeypatch.setattr(harness, "build_stream",
                            lambda spec, seed: seeds.append(seed) or build(spec, seed))
        config = ExperimentConfig({"kind": "matched", "n": 20},
                                  [{"kind": "dft", "depth": 1}, {"kind": "lf"},
                                   {"name": "soft", "kind": "dat", "depth": 2}],
                                  trials=3, seed=7)
        assert list(verify_config(config)) == ["dft", "soft"]
        assert seeds == [7, 8, 9]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("mode", ["dft", "dat"])
def test_verify_equivalence_runs_the_hand_built_lockstep(mode, depth, seed):
    # the oracle-lockstep benchmark times verify_equivalence, so its gap must
    # stay the arithmetic of two learners built by hand and stepped in
    # lockstep over the matched stream
    mu = 0.005
    stream = generate("matched", 300, seed=seed)
    if mode == "dft":
        fast = FixedTreeRegressor(depth, 2, mu=mu)
        slow = DirectMixtureRegressor(depth, 2, mode="hard", mu=mu)
    else:
        fast = AdaptiveTreeRegressor(depth, 2, mu=mu)
        slow = DirectMixtureRegressor(depth, 2, mode="soft", mu=mu)
    worst = 0.0
    for x, d in zip(stream.extended, stream.targets.tolist()):
        y_fast, _ = fast.step(x, d)
        y_slow, _ = slow.step(x, d)
        assert math.isfinite(y_fast) and math.isfinite(y_slow)
        worst = max(worst, abs(y_fast - y_slow) / (1.0 + abs(y_slow)))
    assert verify_equivalence(mode, depth, 300, seed, mu=mu).hex() == worst.hex()
