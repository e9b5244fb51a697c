"""JSON interchange for every checkable object.

All indices are 0-based. Serialization is canonical: the text is the bytes
of ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, so
identical inputs produce byte-identical files. Reading is strict: a key
given twice in one object, a pair key not spelled as ``"i,j"`` writes it,
or a per-open key other than ``"0"`` ... ``"k-1"``, is rejected rather than
read one way or another, or not at all. Schema problems raise SchemaError;
semantic problems raise the domain errors of the owning module.
"""

from __future__ import annotations

import json

from .actions import GroupAction, build_action
from .cocycles import Nerve, NerveCocycle, build_nerve, check_cocycle
from .errors import MalformedTable
from .groups import FiniteGroup, Subgroup, _entries, _is_int, build_group, build_subgroup, catalog_group
from .sheaves import (
    DescentDatum,
    SheafAction,
    SheafOfGroups,
    SheafOfSets,
    build_descent_datum,
    constant_group_sheaf,
)
from .spaces import FiniteSpace, build_space


class SchemaError(Exception):
    """The JSON is readable but does not match the expected schema."""


def canonical_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With ``indent`` set, json.dumps runs its pure-Python encoder. Here only keys and
    scalars go through json.dumps (its C encoder), and a list of plain ints is one join.
    """
    return _text(obj, "\n") + "\n"


def _text(obj, newline: str) -> str:
    """The text json.dumps indents ``obj`` to; ``newline`` is a line break and the indent of ``obj``."""
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        # json sorts the items, then reads each key just before its value
        body = sep.join([f"{json.dumps(_key(k))}: {_text(v, inner)}" for k, v in sorted(obj.items())])
        return f"{{{inner}{body}{newline}}}"
    body = sep.join(map(str, obj) if set(map(type, obj)) == {int} else [_text(v, inner) for v in obj])
    return f"[{inner}{body}{newline}]"


def _key(key) -> str:
    """A dict key as json writes it: a str as itself, an int, float, bool or None as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _only(obj, what, *keys):
    """``obj``, once no key of it is outside ``keys``; else SchemaError naming the first such key, so no
    entry of a JSON object is left unread. A value that is no object is left for ``_expect`` to refuse."""
    stray = next((k for k in obj if k not in keys), None) if isinstance(obj, dict) else None
    if stray is not None:
        raise SchemaError(f"{what}: stray key {stray!r}")
    return obj


def _expect(obj, key, kind, what):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{what}: missing key {key!r}")
    val = obj[key]
    if kind is not None and not (_is_int(val) if kind is int else isinstance(val, kind)):
        raise SchemaError(f"{what}: key {key!r} has wrong type")
    return val


def _int_cells(cells, what, **where) -> tuple[int, ...]:
    """Table cells as ints, else MalformedTable; the sheaf checks witness their range."""
    if not isinstance(cells, list):
        raise MalformedTable(f"{what} {where}: {cells!r} is not a list", **where)
    return tuple(_entries(cells, what, **where))


def _int_list_list(val, what):
    if not isinstance(val, list) or any(not isinstance(r, list) for r in val):
        raise SchemaError(f"{what}: expected a list of lists")
    return val


# groups

def group_to_obj(g: FiniteGroup) -> dict:
    return {"order": g.order, "cayley": g.array.tolist()}


def group_from_obj(obj) -> FiniteGroup:
    if isinstance(obj, str):
        return catalog_group(obj)
    _only(obj, "group", "order", "cayley")
    order = _expect(obj, "order", int, "group")
    cayley = _int_list_list(_expect(obj, "cayley", list, "group"), "group.cayley")
    return build_group(order, cayley)


def subgroup_from_obj(obj, *optional: str) -> Subgroup:
    """A subgroup object; ``optional`` names keys beyond its own that the caller reads itself."""
    _only(obj, "subgroup", "group", "members", *optional)
    parent = group_from_obj(_expect(obj, "group", None, "subgroup"))
    members = _expect(obj, "members", list, "subgroup")
    return build_subgroup(parent, members)


# actions

def action_to_obj(action: GroupAction) -> dict:
    return {
        "group": group_to_obj(action.group),
        "set_size": action.set_size,
        "act": action.array.tolist(),
    }


def action_from_obj(obj) -> GroupAction:
    _only(obj, "action", "group", "set_size", "act")
    group = group_from_obj(_expect(obj, "group", None, "action"))
    set_size = _expect(obj, "set_size", int, "action")
    act = _int_list_list(_expect(obj, "act", list, "action"), "action.act")
    return build_action(group, set_size, act)


# nerves and cocycles

def _pair_key(i: int, j: int) -> str:
    return f"{i},{j}"


def _parse_pair_key(key: str, what) -> tuple[int, int]:
    """The pair that ``_pair_key`` writes as ``key``; any other spelling is a SchemaError."""
    try:
        pair = tuple(map(int, key.split(",")))
    except ValueError:
        pair = ()
    if len(pair) != 2 or _pair_key(*pair) != key:
        raise SchemaError(f"{what}: bad pair key {key!r}")
    return pair


def _pair_map(raw: dict, what) -> dict:
    """A ``{"i,j": value}`` object keyed by integer pairs; the reader it goes to checks each value."""
    return {_parse_pair_key(key, what): val for key, val in raw.items()}


def nerve_from_obj(obj) -> Nerve:
    _only(obj, "nerve", "opens", "edges", "triples")
    opens = _expect(obj, "opens", int, "nerve")
    edges = _int_list_list(_expect(obj, "edges", list, "nerve"), "nerve.edges")
    triples = _int_list_list(obj.get("triples", []), "nerve.triples")
    return build_nerve(opens, edges, triples)


def nerve_to_obj(nerve: Nerve) -> dict:
    return {
        "opens": nerve.num_opens,
        "edges": [list(e) for e in nerve.edges],
        "triples": [list(t) for t in nerve.triples],
    }


def cocycle_from_obj(obj) -> NerveCocycle:
    _only(obj, "cocycle", "nerve", "group", "g")
    nerve = nerve_from_obj(_expect(obj, "nerve", dict, "cocycle"))
    group = group_from_obj(_expect(obj, "group", None, "cocycle"))
    assignments = _pair_map(_expect(obj, "g", dict, "cocycle"), "cocycle.g")
    return check_cocycle(nerve, group, assignments)


def cocycle_to_obj(c: NerveCocycle) -> dict:
    return {
        "nerve": nerve_to_obj(c.nerve),
        "group": group_to_obj(c.group),
        "g": {_pair_key(i, j): v for (i, j), v in sorted(c.g.items())},
    }


# spaces and sheaves

def space_to_obj(space: FiniteSpace) -> dict:
    return {"points": space.num_points, "opens": [list(o) for o in space.opens]}


def space_from_obj(obj) -> FiniteSpace:
    _only(obj, "space", "points", "opens")
    points = _expect(obj, "points", int, "space")
    opens = _int_list_list(_expect(obj, "opens", list, "space"), "space.opens")
    return build_space(points, opens)


def _per_open(obj, key: str, num_opens: int, what) -> list:
    """The values of the per-open object at ``key`` in open order, None where one is missing.

    Its keys are exactly the open indices as ``str`` writes them; any other key is a SchemaError
    naming the first one, so no entry is left unread.
    """
    keys = dict.fromkeys(map(str, range(num_opens)))
    raw = _only(_expect(obj, key, dict, what), f"{what}.{key}", *keys)
    return [raw.get(k) for k in keys]


def _sizes_from_obj(obj, num_opens: int, what) -> tuple[int, ...]:
    sizes = _per_open(obj, "sections", num_opens, what)
    for u, val in enumerate(sizes):
        if not _is_int(val) or val < 0:
            raise SchemaError(f"{what}: bad section count for open {u}")
    return tuple(sizes)


def _restrict_from_obj(obj, what) -> dict:
    raw = _expect(obj, "restrict", dict, what)
    out = {}
    for key, table in raw.items():
        u, v = _parse_pair_key(key, f"{what}.restrict")
        if not isinstance(table, list):
            raise SchemaError(f"{what}: restriction {key!r} must be a list")
        out[(u, v)] = _int_cells(table, f"{what}.restrict", key=key)
    return out


def _restrict_to_obj(sheaf: SheafOfSets) -> dict:
    """The stored arrays; the tables as given where one fails the read (a hand-built sheaf)."""
    witnesses, arrays = sheaf._read
    tables = sheaf.restrict if witnesses else {key: arr.tolist() for key, arr in arrays.items()}
    return {_pair_key(u, v): list(t) for (u, v), t in sorted(tables.items())}


def sets_sheaf_from_obj(obj, space: FiniteSpace | None = None, *optional: str) -> SheafOfSets:
    """A sheaf object, over ``space`` when given and else over its own; ``optional`` names keys beyond
    its own that the caller reads itself."""
    own = ("space", "sections", "restrict") if space is None else ("sections", "restrict")
    _only(obj, "sheaf", *own, *optional)
    if space is None:
        space = space_from_obj(_expect(obj, "space", dict, "sheaf"))
    sizes = _sizes_from_obj(obj, len(space.opens), "sheaf")
    restrict = _restrict_from_obj(obj, "sheaf")
    return SheafOfSets(space=space, sizes=sizes, restrict=restrict)


def sets_sheaf_to_obj(sheaf: SheafOfSets, include_space: bool = True) -> dict:
    out = {
        "sections": {str(u): n for u, n in enumerate(sheaf.sizes)},
        "restrict": _restrict_to_obj(sheaf),
    }
    if include_space:
        out["space"] = space_to_obj(sheaf.space)
    return out


def sheaf_action_from_obj(obj) -> SheafAction:
    _only(obj, "sheaf-action", "space", "groups", "sets", "act")
    space = space_from_obj(_expect(obj, "space", dict, "sheaf-action"))
    graw = _expect(obj, "groups", dict, "sheaf-action")
    g_sets = sets_sheaf_from_obj(graw, space, "cayley")
    groups = []
    for u, table in enumerate(_per_open(graw, "cayley", len(space.opens), "sheaf-action.groups")):
        if table is None:
            raise SchemaError(f"sheaf-action: missing group table for open {u}")
        groups.append(build_group(g_sets.sizes[u], _int_list_list(table, f"sheaf-action.groups.cayley.{u}")))
    sraw = _expect(obj, "sets", dict, "sheaf-action")
    f_sets = sets_sheaf_from_obj(sraw, space=space)
    act = []
    for u, table in enumerate(_per_open(obj, "act", len(space.opens), "sheaf-action")):
        if table is None:
            raise SchemaError(f"sheaf-action: missing action table for open {u}")
        if not isinstance(table, list):
            raise SchemaError(f"sheaf-action: action table for open {u} must be a list")
        act.append(tuple(
            _int_cells(cells, "sheaf-action.act", key=str(u), row=r)
            for r, cells in enumerate(table)
        ))
    return SheafAction(
        groups=SheafOfGroups(sets=g_sets, groups=tuple(groups)),
        sets=f_sets,
        act=tuple(act),
    )


def sheaf_action_to_obj(action: SheafAction) -> dict:
    groups_obj = sets_sheaf_to_obj(action.groups.sets, include_space=False)
    groups_obj["cayley"] = {
        str(u): grp.array.tolist()
        for u, grp in enumerate(action.groups.groups)
    }
    return {
        "space": space_to_obj(action.sets.space),
        "groups": groups_obj,
        "sets": sets_sheaf_to_obj(action.sets, include_space=False),
        "act": {  # the stored arrays; the table as given where one fails the read
            str(u): [list(r) for r in action.act[u]] if isinstance(arr, dict) else arr.tolist()
            for u, arr in enumerate(action._read)
        },
    }


# descent data (always over the constant sheaf of the named group)

def descent_to_obj(space: FiniteSpace, group: FiniteGroup, datum: DescentDatum) -> dict:
    return {
        "space": space_to_obj(space),
        "group": group_to_obj(group),
        "cover": list(datum.cover),
        "transition": {_pair_key(i, j): v for (i, j), v in sorted(datum.transition.items())},
    }


def descent_from_obj(obj) -> DescentDatum:
    _only(obj, "descent", "space", "group", "cover", "transition")
    space = space_from_obj(_expect(obj, "space", dict, "descent"))
    group = group_from_obj(_expect(obj, "group", None, "descent"))
    cover = _expect(obj, "cover", list, "descent")
    transition = _pair_map(_expect(obj, "transition", dict, "descent"), "descent.transition")
    gs = constant_group_sheaf(space, group)
    return build_descent_datum(gs, cover, transition)


def _unique_keys(items: list) -> dict:
    """A JSON object as a dict, else SchemaError naming a key it gives twice."""
    obj = dict(items)
    if len(obj) != len(items):
        keys = [k for k, _ in items]
        raise SchemaError(f"key {next(k for k in keys if keys.count(k) > 1)!r} is given twice in one object")
    return obj


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def dump_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))
