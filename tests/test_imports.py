"""Static check that the pwltree names the demos and the benchmark import
still exist.  The scripts are parsed, never imported or run: the demos do
their work at import time."""

import ast
import importlib
from pathlib import Path

import pwltree

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
