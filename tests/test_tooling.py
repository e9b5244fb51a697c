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
    ("actions.py", "Mismatch", "the subgroup is not a subgroup of this group"),
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
    """(file name, call) for each ``raise SomeTorsorError(...)`` in the library, and each ``return`` of one
    that its caller raises (``actions._action_failure``)."""
    from torsorkit import errors

    kinds = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.TorsorError)
    }
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            call = node.exc if isinstance(node, ast.Raise) else node.value if isinstance(node, ast.Return) else None
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
    ``jsonio._per_open`` refuses the others, so it is the one place such a map is read. It hands each map
    to ``_fields`` with every open's key required and of one kind, so no caller tests a per-open value
    against None for a missing entry: no name bound to its values, or looping over them, meets None."""
    path = SRC / "jsonio.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get" and node.args
        and isinstance(node.args[0], ast.Call) and getattr(node.args[0].func, "id", None) == "str"
    ]
    assert found == []
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_per_open"]
    assert len(calls) == 3 and all(len(call.args) == 4 for call in calls)
    values = {
        target.id
        for node in ast.walk(tree) if isinstance(node, ast.Assign) and node.value in calls
        for target in node.targets if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and any(
            isinstance(n, ast.Name) and n.id in values or n in calls for n in ast.walk(node.iter)
        ):
            values |= {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
    assert len(values) > 3
    compared = [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)
        and any(isinstance(n, ast.Name) and n.id in values for n in ast.walk(node.left))
    ]
    assert compared == []


def test_the_action_axioms_are_decided_once():
    """``actions._action_failure`` decides an action's identity and compatibility axioms, for
    ``build_action`` and for each open of a sheaf action: ``_compatibility_witness`` has no other caller
    but ``build_group``, whose associativity is the compatibility of the regular action, and ``sheaves``
    spells no action-axiom witness itself."""
    callers = {
        f"{path.stem}.{scope}" for path in SRC.glob("*.py") for scope, _ in _qualified_calls(path, "_compatibility_witness")
    }
    assert callers == {"groups.build_group", "actions._action_failure"}
    path = SRC / "sheaves.py"
    spelled = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in ("action-identity", "action-compatibility")
    ]
    assert spelled == []


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
    assert "generators" in written
    assert [name for name in written if name not in cached] == []


def test_no_constructor_casts_a_callers_table_unchecked():
    """``_frozen_array`` casts a producer's own array; a table a caller passes to a library class is read
    by ``groups._index_table``, so no ``__init__`` may call the cast, where a bad cell would pass unchecked."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(func, ast.FunctionDef) and func.name == "__init__"
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_frozen_array"
    ]
    assert found == []


def _scoped_nodes(path: Path, match):
    """(enclosing qualified name, node) of each node in ``path`` that ``match`` accepts; "" at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if match(child):
                yield scope, child
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")


def _qualified_calls(path: Path, name: str):
    """(enclosing qualified name, line) of each call to ``name`` in ``path``, as a bare or dotted name."""
    def call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name

    return ((scope, node.lineno) for scope, node in _scoped_nodes(path, call))


def test_cells_are_packed_only_by_the_one_table_reader():
    """``struct`` packs a caller's cells into a table only inside ``groups._index_table``, behind its type
    gate, for ``struct`` alone would pack a bool or any object with ``__index__``, and no module reads packed
    cells back through ``np.frombuffer``: a second fast path elsewhere would fork what a table accepts."""
    def packing(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return "struct" in (node.module if isinstance(node, ast.ImportFrom) else None, *(a.name for a in node.names))
        return isinstance(node, ast.Name) and node.id == "struct" or isinstance(node, ast.Attribute) and (
            node.attr == "frombuffer")

    found = {
        (path.name, scope or ast.unparse(node)) for path in sorted(SRC.rglob("*.py"))
        for scope, node in _scoped_nodes(path, packing)
    }
    assert found == {("groups.py", "import struct"), ("groups.py", "_index_table")}


def test_tuple_views_are_built_only_by_the_cached_views():
    """Groups, actions and sheaf actions store their tables as arrays; ``_tuples`` builds their nested-tuple
    views on first read. A producer that called it eagerly would make every table pay for a form nothing
    may read."""
    callers = {
        f"{path.name}:{scope}" for path in sorted(SRC.rglob("*.py")) for scope, _ in _qualified_calls(path, "_tuples")
    }
    assert callers == {"groups.py:FiniteGroup.cayley", "actions.py:GroupAction.act", "sheaves.py:SheafAction.act"}


def _module_level_imports(path: Path) -> set[str]:
    """The torsorkit modules ``path`` imports when it loads: its top-level import statements and those
    in top-level blocks, leaving out ``if TYPE_CHECKING:``, which never runs."""
    def statements(body):
        for node in body:
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                yield from statements(node.orelse)
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    yield from statements(getattr(node, field, []))
            elif isinstance(node, ast.ExceptHandler):
                yield from statements(node.body)
            else:
                yield node

    found = set()
    for node in statements(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("torsorkit"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.startswith("torsorkit")}
    return found


def test_a_command_line_child_loads_only_the_layers_its_verb_runs():
    """``cli.py`` and ``jsonio.py`` import ``cocycles``, ``constructions``, ``sheaves`` and ``spaces`` inside
    the verb or reader that runs them, and the package imports no layer until a public name is read; an
    import moved back to the top would make every child compile those layers again."""
    base = {"errors", "groups", "report", "actions", "jsonio"}
    assert _module_level_imports(SRC / "cli.py") <= base
    assert _module_level_imports(SRC / "jsonio.py") <= base
    assert _module_level_imports(SRC / "__init__.py") == {"errors"}


def test_the_command_line_reads_no_private_jsonio_name():
    """Every JSON schema lives in ``jsonio`` behind a public reader; ``cli`` reaches none of its helpers."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.lineno}: {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "jsonio"
        and node.attr.startswith("_")
    ]
    imported = [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "jsonio"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == imported == []
    assert any(isinstance(node, ast.Attribute) and node.attr == "group_from_obj" for node in ast.walk(tree))


def test_argparse_offers_exactly_the_keys_of_each_verb_table():
    """The verb tables are the one list of names: argparse reads each as its choices, in table order."""
    import argparse

    from torsorkit import cli

    verbs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    tables = {"check": cli.CHECKS, "generate": cli.FAMILIES, "query": cli.QUERIES}
    assert list(verbs) == ["check", "generate", "query"]
    for verb, table in tables.items():
        (named,) = [a for a in verbs[verb]._actions if a.choices is not None]
        assert named.choices is table
    # every file kind a verb reads has its one reader, and every check kind is a file kind
    assert set(cli.CHECKS) <= set(cli.READERS)
    assert {reads for reads, _, _ in cli.QUERIES.values()} <= set(cli.READERS)


def test_cocycle_producers_run_no_reader_and_no_inverse_tuple_is_converted():
    """A producer in ``cocycles`` hands its cochain or cocycle over unread: only ``_closed``, the triple
    decision, runs on its values, never the caller-facing ``make_cochain`` or ``check_cocycle``. A gather
    reads a group's inverses as ``FiniteGroup.inverse_array``, cached once, not a fresh array of the tuple."""
    path = SRC / "cocycles.py"
    readers = [f"{scope}:{line}" for name in ("make_cochain", "check_cocycle") for scope, line in _qualified_calls(path, name)]
    assert readers == []
    assert {scope for scope, _ in _qualified_calls(path, "_closed")} == {
        "check_cocycle", "apply_coboundary", "equivalence_classes"
    }
    converted = [
        f"{module.name}:{node.lineno}"
        for module in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"), filename=str(module)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("asarray", "array", "take")
        and node.args and getattr(node.args[0], "attr", None) == "inverse"
    ]
    assert converted == []


def test_each_jsonio_reader_names_its_keys_once_and_only_spaces_lists_the_inclusions():
    """A reader states its object's keys once, with their kinds, in one ``jsonio._fields`` call: the per-key
    readers ``_only`` and ``_expect``, which named each key a second time, are gone, no reader reads a key
    with ``.get``, and no key a reader states is named again in it. A space's proper inclusions are listed
    once, as ``FiniteSpace.inclusions``: ``sheaves._proper_pairs`` is gone, and no other module derives
    them from ``subopens``."""
    import importlib

    jsonio, sheaves = (importlib.import_module(f"torsorkit.{name}") for name in ("jsonio", "sheaves"))
    assert not any(hasattr(jsonio, name) for name in ("_only", "_expect", "_act_to_obj", "_restrict_to_obj"))
    assert not hasattr(sheaves, "_proper_pairs")
    tree = ast.parse((SRC / "jsonio.py").read_text(encoding="utf-8"))
    readers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.endswith("_from_obj")]
    readers += [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in ("_subgroup", "_sheaf")]
    assert len(readers) == 14
    for func in readers:
        body = func.body[1:] if ast.get_docstring(func) else func.body
        nodes = [node for stmt in body for node in ast.walk(stmt)]
        called = {getattr(n.func, "id", getattr(n.func, "attr", None)) for n in nodes if isinstance(n, ast.Call)}
        assert not called & {"_only", "_expect", "get"}, func.name
        words = [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        keys = [k.value for n in nodes if isinstance(n, ast.Dict) for k in n.keys if isinstance(k, ast.Constant)]
        assert [k for k in keys if words.count(k) != 1] == [], func.name
    derived = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "spaces.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "enumerate" and node.args
        and getattr(node.args[0], "attr", None) == "subopens"
    ]
    assert derived == []


def test_a_table_enters_a_stored_table_class_by_one_of_two_doors():
    """A caller's table enters through the class, which reads it whichever keyword holds it; a library
    producer's through ``_StoredTable._unread``, which reads nothing. Outside ``jsonio``, whose readers are
    callers, no module calls a class, no call passes ``array=`` or ``arrays=``, the keywords of
    ``dataclasses.replace``, and the producers are the callers of ``_unread``. ``groups._shaped``, which
    checked a handed array by its shape alone, is gone."""
    import importlib

    groups = importlib.import_module("torsorkit.groups")
    classes = {"FiniteGroup", "GroupAction", "SheafOfSets", "SheafAction"}
    importlib.import_module("torsorkit.sheaves")
    assert {cls.__name__ for cls in groups._StoredTable.__subclasses__()} == classes
    assert not hasattr(groups, "_shaped")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and (
            path.name != "jsonio.py" and getattr(node.func, "id", getattr(node.func, "attr", None)) in classes
            or any(kw.arg in ("array", "arrays") for kw in node.keywords)
        )
    ]
    assert found == []
    producers = {f"{path.stem}.{scope}" for path in SRC.glob("*.py") for scope, _ in _qualified_calls(path, "_unread")}
    assert producers == {
        "groups.build_group", "groups._transport", "actions.build_action", "actions.left_translation_action",
        "actions._regular_at", "sheaves._constant_group_sheaf", "sheaves._direct_power", "sheaves.glue_from_cocycle",
        "sheaves.lift_point_action",
    }


def test_readme_scale_guards_name_exactly_the_budget_constants():
    """Every public module-level constant whose name holds ``MAX`` is a budget, and README's
    *Scale guards* section names each of them and no other, so a budget added or deleted shows."""
    import re

    constants = {
        target.id
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not target.id.startswith("_") and "MAX" in target.id
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scale guards\n", 1)[1].split("\n## ", 1)[0]
    named = {word for word in re.findall(r"\b[A-Z][A-Z0-9_]*\b", section) if "MAX" in word}
    assert constants
    assert named == constants
