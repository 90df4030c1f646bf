"""The engine has no runtime dependencies: it imports only the stdlib."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE = ROOT / "src" / "polarpool"


def engine_imports():
    """(module file name, imported absolute module name) of every engine import."""
    modules = sorted(ENGINE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    declared = [line.strip() for line in lines if line.strip().startswith("dependencies")]
    assert declared == ["dependencies = []"]


def test_engine_imports_are_stdlib_or_relative():
    for file_name, name in engine_imports():
        top = name.partition(".")[0]
        assert top in sys.stdlib_module_names, f"{file_name} imports {name}"


def test_engine_does_not_import_decimal():
    # decimal rounds by a thread-wide context; the engine computes in integers
    for file_name, name in engine_imports():
        assert name.partition(".")[0] != "decimal", f"{file_name} imports {name}"
