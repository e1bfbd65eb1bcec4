"""The shipped experiment configs must parse and build cleanly."""

import json
from pathlib import Path

import pytest

from pwltree.datagen import generate, stream_to_csv
from pwltree.harness import ExperimentConfig, build_stream, make_learner, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_parses(path):
    cfg = ExperimentConfig.from_file(path)
    assert cfg.trials >= 1
    assert cfg.learners


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_learners_constructible_on_short_stream(path, tmp_path):
    cfg = ExperimentConfig.from_file(path)
    spec = dict(cfg.stream)
    if spec["kind"] == "csv":
        # the template's placeholders pointed at a small generated file
        spec["path"] = tmp_path / "data.csv"
        spec["target"] = "d"
        stream_to_csv(generate("matched", 50, seed=cfg.seed), spec["path"])
    else:
        spec["n"] = 50
    stream = build_stream(spec, cfg.seed)
    assert len(stream) == 50
    for entry in cfg.learners:
        make_learner(entry, stream.dim)


def test_short_end_to_end_run():
    # the acceptance criteria and the demos run these configs, so every
    # generator config must run end to end with the learners it names
    for path in CONFIGS:
        raw = json.loads(path.read_text())
        if raw["stream"]["kind"] == "csv":
            continue
        raw["stream"]["n"] = 200
        raw["trials"] = 2
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert list(result.metrics) == [entry["name"] for entry in raw["learners"]], path.name
        assert not result.failures, path.name
