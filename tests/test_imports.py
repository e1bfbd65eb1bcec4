"""Checks that the pwltree names the demos and the benchmark rely on still
exist.  The scripts are parsed, never imported: the demos do their work at
import time, so the fast ones are run in a subprocess instead.  The
benchmark's instrument module is imported, since it patches pwltree names
and learner methods by name."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pwltree
from pwltree import harness, trees

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule that the package does not import itself
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_imported_and_exported_names_resolve():
    assert SCRIPTS
    missing = [f"pwltree.{name} (in __all__)" for name in pwltree.__all__
               if not hasattr(pwltree, name)]
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "pwltree":
                missing += [f"{node.module}.{alias.name} ({path.relative_to(ROOT)}:{node.lineno})"
                            for alias in node.names if not _resolves(node.module, alias.name)]
    assert not missing, "unresolved names: " + ", ".join(missing)


def test_benchmark_patch_points_resolve(monkeypatch):
    # the tracer wraps module attributes and learner methods by name, so
    # entering it and building and stepping each traced learner kind
    # resolves every one of them; every benchmark round clears the
    # rho_table cache first, and the tracer reads its cache_info
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    instrument = importlib.import_module("instrument")
    x = np.array([0.3, -0.2, 1.0])
    specs = [{"kind": kind, "depth": 2} for kind in ("dft", "dat", "direct")]
    specs += [{"kind": "lf"}, {"kind": "vf"},
              {"kind": "gkr", "centers": [[0.0, 0.0], [1.0, -1.0]], "covariances": 1.2}]
    trees.rho_table.cache_clear()
    with instrument.installed(instrument.Tracer()) as tracer:
        for spec in specs:
            learner = harness.make_learner(spec, 2)
            # each learner steps on its own row of the input: vf's and gkr's
            # feature rows, the input itself for the others
            row = learner.features(x[None])[0]
            learner.step(row, 0.5)
            pred = learner.predict(row)
            learner.update(row, 0.5, pred)
    assert trees.rho_table.cache_info().currsize == 1
    assert not tracer.counter_problems()
    assert len(tracer.tree_learners) == 2
    # step must reach predict, update and the adaptive tree's phases through
    # the instance: the per-layer metrics (baselines.lf_step_us, ...) are
    # read from those spans, so a step that bypasses them would report 0 us
    spans = Counter(tracer.names[i] for i in tracer.arrays()["name"].tolist())
    layers = ["fixed_tree", "adaptive_tree", "mixture", "baselines.lf", "baselines.vf",
              "baselines.gkr"]
    methods = [f"{layer}.{name}" for layer in layers for name in ("predict", "update")]
    methods += [f"adaptive_tree.{name}"
                for name in ("update_weights", "update_boundaries", "boundary_factors")]
    assert {name: spans[name] for name in methods} == dict.fromkeys(methods, 2)


@pytest.mark.parametrize("name", ["trials-mismatched", "deep-single", "oracle-lockstep"])
def test_benchmark_workloads_set_up(monkeypatch, tmp_path, name):
    # each workload's setup builds what its rounds build: the learner specs
    # through make_learner, and oracle-lockstep's direct constructor calls,
    # so a constructor change that breaks the benchmark fails here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert sorted(workloads.WORKLOADS) == ["deep-single", "oracle-lockstep", "trials-mismatched"]
    workloads.WORKLOADS[name](0, tmp_path).setup()


@pytest.mark.parametrize("demo", ["partition_calculus.py", "collapsed_equals_direct.py",
                                  "matched_noise_floor.py",
                                  pytest.param("regret_growth.py", marks=pytest.mark.slow)])
def test_fast_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("kind", ["dft", "dat"])
def test_benchmark_snapshot_check_passes(monkeypatch, kind):
    # deep-single's restore check rebuilds the learner by keyword, sets its
    # step counter t and needs the next prediction bit for bit
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    spec = {"name": kind, "kind": kind, "depth": 2, "mu": 0.005}
    stream = pwltree.generate("mismatched", 201, seed=4)
    learner = harness.make_learner(spec, stream.dim)
    harness.run_stream(learner, stream.extended[:200], stream.targets[:200])
    assert learner.t == 201
    assert workloads._snapshot_problem(learner, spec, stream.dim, stream.extended[200]) is None
