"""Source-level rules for the library modules."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "torsorkit"


def test_library_has_no_assert_statements():
    """Invariants raise InternalError, which survives ``python -O``; an assert would vanish."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_python_file_parses_as_the_oldest_supported_python():
    """``requires-python = ">=3.10"``: no syntax newer than 3.10 in src, tests, bench or demos."""
    files = sorted(p for top in ("src", "tests", "bench", "demos") for p in (ROOT / top).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_public_layer_function_stays_a_plain_function():
    """Tracing and introspection wrap what ``inspect.isfunction`` accepts; a cache decorator would hide it."""
    import importlib
    import inspect

    layers = ("groups", "actions", "constructions", "cocycles", "spaces", "sheaves", "jsonio", "cli")
    checked = 0
    for layer in layers:
        path = SRC / f"{layer}.py"
        module = importlib.import_module(f"torsorkit.{layer}")
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                assert inspect.isfunction(getattr(module, node.name)), f"{layer}.{node.name}"
                checked += 1
    assert checked > 50
