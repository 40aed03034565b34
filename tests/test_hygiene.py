"""Module hygiene, checked on the source with ``ast`` (no linter is
assumed): every ``__all__`` name exists, and no module but the package's
``__init__`` imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qncalc"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists(name):
    # the benchmark's layer trace calls getattr on each of them
    mod = importlib.import_module("qncalc" if name == "__init__" else f"qncalc.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


@pytest.mark.parametrize("name", [n for n in MODULES if n != "__init__"])
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {n: line for n, line in imported.items() if n not in used} == {}
