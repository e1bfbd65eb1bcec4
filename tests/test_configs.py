"""The shipped experiment configs must parse and build cleanly."""

import json
from pathlib import Path

import pytest

from pwltree.cli import main
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


@pytest.mark.parametrize("path", [path for path in CONFIGS
                                  if any(entry["kind"] in ("dft", "dat") for entry in
                                         json.loads(path.read_text())["learners"])],
                         ids=lambda p: p.name)
def test_verify_passes_on_a_short_stream(path, tmp_path, capsys):
    # the configs' tree learners must equal their explicit mixtures as built
    # from the same entries; the template's placeholders point at a
    # generated file
    raw = json.loads(path.read_text())
    if raw["stream"]["kind"] == "csv":
        raw["stream"].update(path=str(tmp_path / "data.csv"), target="d")
        stream_to_csv(generate("matched", 200, seed=raw["seed"]), tmp_path / "data.csv")
    else:
        raw["stream"]["n"] = 200
    raw["trials"] = 2
    config = tmp_path / path.name
    config.write_text(json.dumps(raw))
    assert main(["verify", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == \
        [entry["name"] for entry in raw["learners"] if entry["kind"] in ("dft", "dat")]
