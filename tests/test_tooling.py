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


# failures with nothing to name: each is one fact about the whole input, not about a position in it
WITNESSLESS_RAISES = {
    ("actions.py", "EmptySet", "a torsor must have at least one point"),
    ("cocycles.py", "Mismatch", "nerve or group differs"),
    ("cocycles.py", "NotAPath", "empty path"),
    ("constructions.py", "MalformedTable", "matrix must have at least one row and column"),
    ("constructions.py", "EmptySolutionSet", "the system T(v)=w has no solution"),
    ("constructions.py", "Mismatch", "the subgroup is not a subgroup of this group"),
    ("groups.py", "NoIdentity", "no two-sided identity element"),
    ("groups.py", "MalformedTable", "subgroup must be nonempty"),
    ("spaces.py", "MissingEmpty", "the empty set is not an open"),
    ("spaces.py", "MissingWhole", "the whole point set is not an open"),
}


def _torsor_errors_raised():
    """(file name, call) for each ``raise SomeTorsorError(...)`` in the library."""
    from torsorkit import errors

    kinds = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.TorsorError)
    }
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in kinds:
                yield path.name, call


def test_every_torsor_error_raised_in_the_library_names_a_witness_field():
    """The ``errors`` promise: a failure names the offending indices, as keyword witness fields."""
    raised, bare = 0, set()
    for name, call in _torsor_errors_raised():
        raised += 1
        if not call.keywords:
            message = call.args[0].value if call.args and isinstance(call.args[0], ast.Constant) else None
            bare.add((name, call.func.id, message))
    assert raised >= 72
    assert bare == WITNESSLESS_RAISES


def test_a_bad_entry_is_placed_by_position_and_row_only():
    """One place vocabulary: ``position`` is an entry's place in its sequence and ``row`` that sequence's
    place in a table; the retired names ``index`` and ``col`` are passed by no raise."""
    found = [
        f"{name}:{call.lineno} {kw.arg}"
        for name, call in _torsor_errors_raised()
        for kw in call.keywords
        if kw.arg in ("index", "col")
    ]
    assert found == []


def test_every_size_guard_is_the_one_helper():
    """``TooLarge`` is built in ``errors._guard``, the one rule for a budget, and in ``is_prime``, whose
    bound is where its test stops being exact; any other size check would be a second copy of the rule."""
    built = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}  # each node's innermost enclosing function: ast.walk visits outer functions first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        built |= {
            (path.name, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "TooLarge"
        }
    assert built == {("errors.py", "_guard"), ("constructions.py", "is_prime")}


def test_every_json_text_is_written_by_canonical_json():
    """Only ``jsonio`` calls ``json.dump``/``json.dumps``, and it passes no ``indent=``: its one writer,
    ``canonical_json``, spells out the indented text itself, so a second writer could drift from it."""
    callers, indents = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                callers += [path.name for alias in node.names if alias.name in ("dump", "dumps")]
            elif isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "attr", None) in ("dump", "dumps") and getattr(func.value, "id", None) == "json":
                    callers.append(path.name)
                if path.name == "jsonio.py":
                    indents += [node.lineno for kw in node.keywords if kw.arg == "indent"]
    assert set(callers) == {"jsonio.py"}
    assert indents == []


def test_jsonio_reads_per_open_maps_only_through_its_one_reader():
    """A ``.get(str(u))`` reads a per-open map at its expected keys and ignores every other key;
    ``jsonio._per_open`` refuses the others, so it is the one place such a map is read."""
    path = SRC / "jsonio.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get" and node.args
        and isinstance(node.args[0], ast.Call) and getattr(node.args[0].func, "id", None) == "str"
    ]
    assert found == []


def test_every_stored_read_names_a_cached_property():
    """``vars(obj)["name"] = value`` hands a producer's work to a cached property of a library class.
    A misspelt name would be stored and never read, and the object would silently read its tables again."""
    import functools
    import importlib
    import inspect

    cached = set()
    for path in SRC.glob("*.py"):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"torsorkit.{path.stem}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                cached |= {name for name, attr in vars(cls).items() if isinstance(attr, functools.cached_property)}
    written = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            for target in node.targets if isinstance(node, ast.Assign) else ():
                call = target.value if isinstance(target, ast.Subscript) else None
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "vars":
                    key = target.slice
                    written.append(key.value if isinstance(key, ast.Constant) else ast.unparse(key))
    assert {"generators", "_read"} <= set(written)
    assert [name for name in written if name not in cached] == []


def _qualified_calls(path: Path, name: str):
    """(enclosing qualified name, line) of each call to ``name`` in ``path``, as a bare or dotted name."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) == name:
                yield scope, child.lineno
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")


def test_tuple_views_are_built_only_by_the_cached_views():
    """Groups, actions and sheaf actions store their tables as arrays; ``_tuples`` builds their nested-tuple
    views on first read. A producer that called it eagerly would make every table pay for a form nothing
    may read."""
    callers = {
        f"{path.name}:{scope}" for path in sorted(SRC.rglob("*.py")) for scope, _ in _qualified_calls(path, "_tuples")
    }
    assert callers == {"groups.py:FiniteGroup.cayley", "actions.py:GroupAction.act", "sheaves.py:SheafAction.act"}
