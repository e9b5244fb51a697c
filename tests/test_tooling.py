"""Source-level rules for the library modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "torsorkit"


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
