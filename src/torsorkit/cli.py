"""Batch command-line front end.

Three verbs: ``check`` validates a JSON-described object and reports
witnesses, ``generate`` writes the example torsor families as JSON, and
``query`` answers transport/section/classification questions. Human
summaries go to stdout; ``--json`` switches to the canonical machine
report. Exit codes: 0 pass, 1 semantic fail, 2 I/O or schema error.
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

# cocycles, constructions, sheaves and spaces are imported by the verbs that run them, so a child
# loads only the layers its verb needs

CHECK_KINDS = (
    "group",
    "subgroup",
    "action",
    "torsor",
    "cocycle",
    "space",
    "sheaf",
    "sheaf-torsor",
)

GENERATE_FAMILIES = ("affine", "solution", "coset", "bases", "pseudocircle-torsor")

QUERIES = (
    "transporter",
    "orbit",
    "stabilizer",
    "trivialize",
    "transported-group",
    "holonomy",
    "global-sections",
    "sections",
    "classes",
)


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


def _check_report(kind: str, obj) -> Report:
    if kind == "group":
        g = jsonio.group_from_obj(obj)
        return passing("group", counts={"order": g.order})
    if kind == "subgroup":
        sub = jsonio.subgroup_from_obj(obj)
        return passing(
            "subgroup",
            counts={"order": len(sub.members), "parent_order": sub.parent.order},
        )
    if kind == "action":
        action = jsonio.action_from_obj(obj)
        return passing(
            "action", counts={"order": action.group.order, "points": action.set_size}
        )
    if kind == "torsor":
        torsor = as_torsor(jsonio.action_from_obj(obj))
        return passing("torsor", counts={"points": torsor.set_size})
    if kind == "cocycle":
        c = jsonio.cocycle_from_obj(obj)
        return passing(
            "cocycle",
            counts={"edges": len(c.nerve.edges), "opens": c.nerve.num_opens},
        )
    if kind == "space":
        space = jsonio.space_from_obj(obj)
        return passing(
            "space", counts={"opens": len(space.opens), "points": space.num_points}
        )
    if kind == "sheaf":
        from .sheaves import is_sheaf

        sheaf = jsonio.sets_sheaf_from_obj(obj)
        rep = is_sheaf(sheaf)
        counts = dict(rep.counts)
        counts["global_sections"] = sheaf.sizes[sheaf.space.whole_index]
        return Report("sheaf", rep.verdict, rep.witnesses, counts)
    if kind == "sheaf-torsor":
        from .sheaves import global_sections

        try:
            torsor, counts = _sheaf_torsor_from_obj(obj)
        except NotASheafTorsor as err:
            rep = err.report
            return Report("sheaf-torsor", "fail", rep.witnesses, rep.counts)
        counts["global_sections"] = len(global_sections(torsor))
        return passing("sheaf-torsor", counts=counts)
    raise SchemaError(f"unknown check kind {kind!r}")


def cmd_check(args) -> int:
    obj = jsonio.load_json(args.file)
    try:
        report = _check_report(args.kind, obj)
    except TorsorError as err:
        report = failing(args.kind, [err.witness()])
    return _emit(report, args.json)


def _torsor_from_file(path):
    return as_torsor(jsonio.action_from_obj(jsonio.load_json(path)))


def _sheaf_torsor_from_obj(obj):
    """A validated sheaf torsor from a descent datum or a sheaf action, plus its extra counts.

    Both paths end in as_sheaf_torsor, which raises NotASheafTorsor with the failing report.
    """
    from .sheaves import as_sheaf_torsor, glue_from_cocycle

    if isinstance(obj, dict) and "transition" in obj:
        datum = jsonio.descent_from_obj(obj)
        return glue_from_cocycle(datum), {"cover": len(datum.cover)}
    return as_sheaf_torsor(jsonio.sheaf_action_from_obj(obj)), {}


def _sheaf_torsor_from_file(path):
    return _sheaf_torsor_from_obj(jsonio.load_json(path))[0]


def _query_report(args) -> Report:
    name = args.query
    params = args.params[:-1]
    path = args.params[-1] if args.params else None
    if path is None:
        raise SchemaError("query needs an input file")

    def want(n):
        if len(params) != n:
            raise SchemaError(f"query {name} takes {n} parameter(s) before the file")

    if name == "transporter":
        want(2)
        x, y = _int_param(params[0], "x"), _int_param(params[1], "y")
        g = transporter(_torsor_from_file(path), x, y)
        return passing("transporter", counts={"element": g, "x": x, "y": y})
    if name == "orbit":
        want(1)
        x = _int_param(params[0], "x")
        orb = orbit(jsonio.action_from_obj(jsonio.load_json(path)), x)
        return passing("orbit", counts={"x": x, "orbit": list(orb), "size": len(orb)})
    if name == "stabilizer":
        want(1)
        x = _int_param(params[0], "x")
        stab = stabilizer(jsonio.action_from_obj(jsonio.load_json(path)), x)
        return passing("stabilizer", counts={"x": x, "stabilizer": list(stab), "size": len(stab)})
    if name == "trivialize":
        want(1)
        x0 = _int_param(params[0], "basepoint")
        triv = trivialization(_torsor_from_file(path), x0)
        return passing(
            "trivialize",
            counts={
                "basepoint": triv.basepoint,
                "to_points": list(triv.to_points),
                "to_group": list(triv.to_group),
            },
        )
    if name == "transported-group":
        want(1)
        x0 = _int_param(params[0], "basepoint")
        grp = transported_group(_torsor_from_file(path), x0)
        return passing(
            "transported-group",
            counts={
                "identity": grp.identity,
                "order": grp.order,
                "cayley": grp.array.tolist(),
            },
        )
    if name == "holonomy":
        from .cocycles import holonomy

        want(1)
        path_indices = [_int_param(v, "path") for v in params[0].split(",")]
        g = holonomy(jsonio.cocycle_from_obj(jsonio.load_json(path)), path_indices)
        return passing("holonomy", counts={"element": g, "path": path_indices})
    if name == "global-sections":
        from .sheaves import global_sections

        want(0)
        n = len(global_sections(_sheaf_torsor_from_file(path)))
        return passing("global-sections", counts={"global_sections": n})
    if name == "sections":
        from .sheaves import sections

        want(1)
        u = _int_param(params[0], "open")
        n = len(sections(_sheaf_torsor_from_file(path), u))
        return passing("sections", counts={"open": u, "sections": n})
    if name == "classes":
        from .cocycles import equivalence_classes

        want(0)
        obj = jsonio._only(jsonio.load_json(path), "classes", "nerve", "group", "g")
        nerve = jsonio.nerve_from_obj(jsonio._expect(obj, "nerve", dict, "classes"))
        group = jsonio.group_from_obj(jsonio._expect(obj, "group", None, "classes"))
        classes = equivalence_classes(nerve, group)
        return passing(
            "classes",
            counts={
                "classes": len(classes),
                "sizes": [c.size for c in classes],
                "representatives": [list(c.representative.edge_values()) for c in classes],
            },
        )
    raise SchemaError(f"unknown query {name!r}")


def cmd_query(args) -> int:
    try:
        report = _query_report(args)
    except TorsorError as err:
        report = failing(args.query, [err.witness()])
    return _emit(report, args.json)


def cmd_generate(args) -> int:
    try:
        return _generate(args)
    except TorsorError as err:
        return _emit(failing(args.family, [err.witness()]), False)


def _generate(args) -> int:
    family = args.family
    params = args.params
    if family == "pseudocircle-torsor":
        from .sheaves import global_sections, glue_from_cocycle, pseudocircle_descent_datum

        if len(params) != 1 or params[0] not in ("trivial", "twisted"):
            raise SchemaError("generate pseudocircle-torsor takes: trivial|twisted")
        group = catalog_group("cyclic(2)")
        twist = 0 if params[0] == "trivial" else 1
        datum = pseudocircle_descent_datum(group, twist)
        jsonio.dump_json(
            args.out, jsonio.descent_to_obj(datum.groups.space, group, datum)
        )
        n = len(global_sections(glue_from_cocycle(datum)))
        print(f"generated pseudocircle descent datum ({params[0]}): {n} global sections")
        return 0
    from .constructions import affine_torsor, basis_torsor, coset_torsor, prime_field_matrix, solution_torsor

    if family in ("affine", "bases"):
        if len(params) != 2:
            raise SchemaError(f"generate {family} takes: p n")
        build = affine_torsor if family == "affine" else basis_torsor
        torsor = build(_int_param(params[0], "p"), _int_param(params[1], "n"))
    elif family in ("solution", "coset"):
        if len(params) != 1:
            raise SchemaError(f"generate {family} takes: problem-file")
        obj = jsonio.load_json(params[0])
        if family == "solution":
            jsonio._only(obj, "solution", "p", "T", "w")
            p = jsonio._expect(obj, "p", int, "solution")
            rows = jsonio._int_list_list(jsonio._expect(obj, "T", list, "solution"), "solution.T")
            torsor = solution_torsor(prime_field_matrix(p, rows), jsonio._expect(obj, "w", list, "solution"))
        else:
            sub = jsonio.subgroup_from_obj(obj, "g")
            torsor = coset_torsor(sub.parent, sub, obj.get("g", sub.parent.identity))
    else:
        raise SchemaError(f"unknown family {family!r}")
    jsonio.dump_json(args.out, jsonio.action_to_obj(torsor.action))
    print(f"generated {'basis' if family == 'bases' else family} torsor: {torsor.set_size} points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsorkit",
        description="Exact checks, constructions, and queries for finite torsors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a JSON-described object")
    p_check.add_argument("kind", choices=CHECK_KINDS)
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("generate", help="write an example torsor family as JSON")
    p_gen.add_argument("family", choices=GENERATE_FAMILIES)
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
