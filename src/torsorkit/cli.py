"""Batch command-line front end.

Three verbs: ``check`` validates a JSON-described object and reports
witnesses, ``generate`` writes the example torsor families as JSON, and
``query`` answers transport/section/classification questions. Each verb is
one table keyed by name, whose keys argparse offers; ``READERS`` holds one
reader per file kind, shared by every verb that reads the kind. A family or
query entry lists its parameters with their parsers: the count is checked,
then each parameter, before any file is read. Human summaries go to stdout;
``--json`` switches to the canonical machine report. Exit codes: 0 pass,
1 semantic fail, 2 I/O or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .actions import (
    as_torsor,
    orbit,
    stabilizer,
    transported_group,
    transporter,
    trivialization,
)
from .errors import NotASheafTorsor, TorsorError
from .groups import catalog_group
from .jsonio import SchemaError, canonical_json
from .report import Report, failing, passing

# cocycles, constructions, sheaves and spaces are imported by the entries that run them (``_layer``)


def _emit(report: Report, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(canonical_json(report.to_obj()))
    else:
        print(f"{report.check}: {report.verdict.upper()}")
        for key in sorted(report.counts):
            print(f"  {key}: {report.counts[key]}")
        for w in report.witnesses:
            parts = " ".join(
                f"{k}={w[k]}" for k in sorted(w) if k != "axiom"
            )
            print(f"  witness {w['axiom']}: {parts}".rstrip())
    return 0 if report.passed else 1


def _int_param(value: str, name: str) -> int:
    """A command-line parameter as an int, read only as ``str(int)`` spells it; else SchemaError naming it."""
    try:
        number = int(value)
    except ValueError:
        number = None
    if number is None or str(number) != value:
        raise SchemaError(f"parameter {name}: {value!r} is not an integer")
    return number


def _path_param(value: str, name: str) -> list[int]:
    return [_int_param(v, name) for v in value.split(",")]


def _twist_param(value: str, name: str) -> str:
    """One of the words ``name`` lists; any other is refused as a wrong count is."""
    if value not in name.split("|"):
        raise SchemaError(f"generate pseudocircle-torsor takes: {name}")
    return value


def _file_param(kind: str):
    """The parser of a parameter that names a file: the file, read by the reader of its ``kind``."""
    return lambda path, name: READERS[kind](jsonio.load_json(path))


def _parsed(params: dict, values: list, usage: str) -> list:
    """``values`` read by the parsers of ``params`` in order, once there are as many; else SchemaError(usage)."""
    if len(values) != len(params):
        raise SchemaError(usage)
    return [parse(value, name) for (name, parse), value in zip(params.items(), values)]


def _layer(name: str):
    """``from . import name``, run at the layer's first use: a child loads only the layers its verb runs."""
    return getattr(__import__(__package__, globals(), None, [name]), name)


# file kind -> its one reader, shared by every verb that reads the kind: it reads a JSON object and decides
# it. Each entry looks its functions up when it runs, so they may be imported then, or traced.

def _sheaf_torsor(obj):
    """A sheaf torsor glued from a descent datum or read as a sheaf action; when either fails to be one,
    as_sheaf_torsor raises NotASheafTorsor with the failing report."""
    sheaves = _layer("sheaves")
    if isinstance(obj, dict) and "transition" in obj:
        return sheaves.glue_from_cocycle(jsonio.descent_from_obj(obj))
    return sheaves.as_sheaf_torsor(jsonio.sheaf_action_from_obj(obj))


READERS = {
    "group": lambda obj: jsonio.group_from_obj(obj),
    "subgroup": lambda obj: jsonio.subgroup_from_obj(obj),
    "action": lambda obj: jsonio.action_from_obj(obj),
    "torsor": lambda obj: as_torsor(jsonio.action_from_obj(obj)),
    "cocycle": lambda obj: jsonio.cocycle_from_obj(obj),
    "space": lambda obj: jsonio.space_from_obj(obj),
    "sheaf": lambda obj: jsonio.sets_sheaf_from_obj(obj),
    "sheaf-torsor": _sheaf_torsor,
    "classes": lambda obj: jsonio.classes_from_obj(obj),
    "solution": lambda obj: jsonio.solution_from_obj(obj),
    "coset": lambda obj: jsonio.coset_from_obj(obj),
}


# check: kind -> its report on what READERS[kind] read, given the JSON object read

def _sheaf_report(sheaf, obj) -> Report:
    rep = _layer("sheaves").is_sheaf(sheaf)
    counts = {**rep.counts, "global_sections": sheaf.sizes[sheaf.space.whole_index]}
    return Report("sheaf", rep.verdict, rep.witnesses, counts)


def _sheaf_torsor_report(torsor, obj) -> Report:
    # only a descent datum has a cover: a sheaf action's reader refuses the key
    counts = {"cover": len(obj["cover"])} if "cover" in obj else {}
    counts["global_sections"] = len(_layer("sheaves").global_sections(torsor))
    return passing("sheaf-torsor", counts=counts)


CHECKS = {
    "group": lambda g, obj: passing("group", counts={"order": g.order}),
    "subgroup": lambda s, obj: passing("subgroup", counts={"order": s.order, "parent_order": s.parent.order}),
    "action": lambda a, obj: passing("action", counts={"order": a.group.order, "points": a.set_size}),
    "torsor": lambda t, obj: passing("torsor", counts={"points": t.set_size}),
    "cocycle": lambda c, obj: passing("cocycle", counts={"edges": len(c.nerve.edges), "opens": c.nerve.num_opens}),
    "space": lambda s, obj: passing("space", counts={"opens": len(s.opens), "points": s.num_points}),
    "sheaf": _sheaf_report,
    "sheaf-torsor": _sheaf_torsor_report,
}


def cmd_check(args) -> int:
    obj = jsonio.load_json(args.file)
    try:
        report = CHECKS[args.kind](READERS[args.kind](obj), obj)
    except NotASheafTorsor as err:
        report = failing(args.kind, err.report.witnesses, err.report.counts)
    except TorsorError as err:
        report = failing(args.kind, [err.witness()])
    return _emit(report, args.json)


# generate: family -> ({parameter: parser}, (*parameters) -> (the JSON object written, the line printed))

def _torsor_written(label: str, torsor):
    return jsonio.action_to_obj(torsor.action), f"generated {label} torsor: {torsor.set_size} points"


def _pseudocircle_written(twist: str):
    sheaves, group = _layer("sheaves"), catalog_group("cyclic(2)")
    datum = sheaves.pseudocircle_descent_datum(group, ("trivial", "twisted").index(twist))
    n = len(sheaves.global_sections(sheaves.glue_from_cocycle(datum)))
    written = jsonio.descent_to_obj(datum.groups.space, group, datum)
    return written, f"generated pseudocircle descent datum ({twist}): {n} global sections"


FAMILIES = {
    "affine": (
        {"p": _int_param, "n": _int_param},
        lambda p, n: _torsor_written("affine", _layer("constructions").affine_torsor(p, n)),
    ),
    "solution": ({"problem-file": _file_param("solution")}, lambda t: _torsor_written("solution", t)),
    "coset": ({"problem-file": _file_param("coset")}, lambda t: _torsor_written("coset", t)),
    "bases": (
        {"p": _int_param, "n": _int_param},
        lambda p, n: _torsor_written("basis", _layer("constructions").basis_torsor(p, n)),
    ),
    "pseudocircle-torsor": ({"trivial|twisted": _twist_param}, _pseudocircle_written),
}


def cmd_generate(args) -> int:
    params, write = FAMILIES[args.family]
    usage = f"generate {args.family} takes: {' '.join(params)}"
    try:
        written, line = write(*_parsed(params, args.params, usage))
    except TorsorError as err:
        return _emit(failing(args.family, [err.witness()]), False)
    jsonio.dump_json(args.out, written)
    print(line)
    return 0


# query: name -> (the file kind read, {parameter before the file: parser}, (object, *parameters) -> counts)

def _listed(key: str, x: int, members) -> dict:
    return {"x": x, key: list(members), "size": len(members)}


def _trivialized(triv) -> dict:
    return {"basepoint": triv.basepoint, "to_points": list(triv.to_points), "to_group": list(triv.to_group)}


def _group_counts(g) -> dict:
    return {"identity": g.identity, "order": g.order, "cayley": g.array.tolist()}


def _classes(problem) -> dict:
    classes = _layer("cocycles").equivalence_classes(*problem)
    return {
        "classes": len(classes),
        "sizes": [c.size for c in classes],
        "representatives": [list(c.representative.edge_values()) for c in classes],
    }


QUERIES = {
    "transporter": (
        "torsor", {"x": _int_param, "y": _int_param},
        lambda t, x, y: {"element": transporter(t, x, y), "x": x, "y": y},
    ),
    "orbit": ("action", {"x": _int_param}, lambda a, x: _listed("orbit", x, orbit(a, x))),
    "stabilizer": ("action", {"x": _int_param}, lambda a, x: _listed("stabilizer", x, stabilizer(a, x))),
    "trivialize": ("torsor", {"basepoint": _int_param}, lambda t, x0: _trivialized(trivialization(t, x0))),
    "transported-group": (
        "torsor", {"basepoint": _int_param}, lambda t, x0: _group_counts(transported_group(t, x0))
    ),
    "holonomy": (
        "cocycle", {"path": _path_param},
        lambda c, path: {"element": _layer("cocycles").holonomy(c, path), "path": path},
    ),
    "global-sections": (
        "sheaf-torsor", {},
        lambda t: {"global_sections": len(_layer("sheaves").global_sections(t))},
    ),
    "sections": (
        "sheaf-torsor", {"open": _int_param},
        lambda t, u: {"open": u, "sections": len(_layer("sheaves").sections(t, u))},
    ),
    "classes": ("classes", {}, _classes),
}


def cmd_query(args) -> int:
    reads, params, counts = QUERIES[args.query]
    *values, path = args.params
    usage = f"query {args.query} takes {len(params)} parameter(s) before the file"
    try:
        parsed = _parsed(params, values, usage)  # before the file is read: a bad parameter is named first
        report = passing(args.query, counts=counts(READERS[reads](jsonio.load_json(path)), *parsed))
    except TorsorError as err:
        report = failing(args.query, [err.witness()])
    return _emit(report, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsorkit",
        description="Exact checks, constructions, and queries for finite torsors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a JSON-described object")
    p_check.add_argument("kind", choices=CHECKS)
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("generate", help="write an example torsor family as JSON")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("params", nargs="*")
    p_gen.add_argument("-o", "--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_query = sub.add_parser("query", help="answer a question about a JSON object")
    p_query.add_argument("query", choices=QUERIES)
    p_query.add_argument("params", nargs="+", help="query parameters, then the input file")
    p_query.add_argument("--json", action="store_true", help="machine-readable report")
    p_query.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
