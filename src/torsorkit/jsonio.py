"""JSON interchange for every checkable object.

All indices are 0-based. Serialization is canonical: the text is the bytes
of ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, so
identical inputs produce byte-identical files. Every schema the command
line reads is read here, each object's keys once, by one ``_fields`` call
that checks for a stray key, then each key's presence and type in order,
before any nested object is read. Reading is strict: a key given twice in
one object, a pair key not spelled as ``"i,j"`` writes it, a per-open key
other than ``"0"`` ... ``"k-1"``, or a restriction key that is no proper
inclusion of the space, is rejected rather than read one way or another,
or not at all. Schema problems raise SchemaError; semantic problems raise
the domain errors of the owning module.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import TYPE_CHECKING

from .actions import GroupAction, Torsor, build_action
from .groups import FiniteGroup, Subgroup, _is_int, build_group, build_subgroup, catalog_group

# the readers of cocycles, spaces, sheaves and problems import those layers themselves, so reading a
# group or an action loads none of them; the writers only read attributes
if TYPE_CHECKING:
    from .cocycles import Nerve, NerveCocycle
    from .sheaves import DescentDatum, SheafAction, SheafOfSets
    from .spaces import FiniteSpace


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


_ROWS = list[list]  # the kind of a table's rows
_MISSING = object()  # the default of an optional key whose reader tells it from a given null


def _fields(obj, what, kinds: dict, optional=MappingProxyType({})) -> list:
    """The values of ``obj`` at the keys of ``kinds``, then of ``optional``, else its default: an object's keys, each
    named once. SchemaError names the first key in neither, so no entry is left unread; then the first key
    of ``kinds``, in order, missing or not of its kind: ``int`` (no bool), ``list``, ``dict``, ``_ROWS``, or
    None for any. An optional key's reader checks it; the caller reads nested objects after every key."""
    stray = next((k for k in obj if k not in kinds and k not in optional), None) if isinstance(obj, dict) else None
    if stray is not None:
        raise SchemaError(f"{what}: stray key {stray!r}")
    values = []
    for key, kind in kinds.items():
        if not isinstance(obj, dict) or key not in obj:
            raise SchemaError(f"{what}: missing key {key!r}")
        val = obj[key]
        if kind is not None and not (
                _is_int(val) if kind is int else isinstance(val, list if kind is _ROWS else kind)):
            raise SchemaError(f"{what}: key {key!r} has wrong type")
        values.append(_int_list_list(val, f"{what}.{key}") if kind is _ROWS else val)
    return values + [obj.get(key, default) for key, default in optional.items()]


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
    order, cayley = _fields(obj, "group", {"order": int, "cayley": _ROWS})
    return build_group(order, cayley)


def subgroup_from_obj(obj) -> Subgroup:
    """A subgroup object."""
    return _subgroup(obj, {})[0]


def _subgroup(obj, optional: dict) -> list:
    """A subgroup object, then the values of its ``optional`` keys (see ``_fields``)."""
    group, members, *rest = _fields(obj, "subgroup", {"group": None, "members": list}, optional)
    return [build_subgroup(group_from_obj(group), members), *rest]


# actions

def action_to_obj(action: GroupAction) -> dict:
    return {
        "group": group_to_obj(action.group),
        "set_size": action.set_size,
        "act": action.array.tolist(),
    }


def action_from_obj(obj) -> GroupAction:
    group, set_size, act = _fields(obj, "action", {"group": None, "set_size": int, "act": _ROWS})
    return build_action(group_from_obj(group), set_size, act)


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
    from .cocycles import build_nerve

    opens, edges, triples = _fields(obj, "nerve", {"opens": int, "edges": _ROWS}, {"triples": []})
    return build_nerve(opens, edges, _int_list_list(triples, "nerve.triples"))


def nerve_to_obj(nerve: Nerve) -> dict:
    return {
        "opens": nerve.num_opens,
        "edges": [list(e) for e in nerve.edges],
        "triples": [list(t) for t in nerve.triples],
    }


def cocycle_from_obj(obj) -> NerveCocycle:
    from .cocycles import check_cocycle

    nerve, group, g = _fields(obj, "cocycle", {"nerve": dict, "group": None, "g": dict})
    return check_cocycle(nerve_from_obj(nerve), group_from_obj(group), _pair_map(g, "cocycle.g"))


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
    from .spaces import build_space

    points, opens = _fields(obj, "space", {"points": int, "opens": _ROWS})
    return build_space(points, opens)


def _per_open(raw: dict, num_opens: int, what, kind) -> list:
    """The values of a per-open object in open order, each of ``kind`` (see ``_fields``). Its keys are exactly
    the open indices as ``str`` writes them, each required, so any other key is a stray key."""
    return _fields(raw, what, dict.fromkeys(map(str, range(num_opens)), kind))


def _sheaf(obj, space: FiniteSpace | None, extra=MappingProxyType({})) -> list:
    """A sheaf object over ``space``, or over its own when None, then the values of the ``extra`` keys that
    its caller reads, checked with its own keys (see ``_fields``). A restriction key that is no proper
    inclusion of the space is a stray key."""
    from .sheaves import SheafOfSets

    own = {"sections": dict, "restrict": dict, **extra}
    values = _fields(obj, "sheaf", own if space is not None else {"space": dict, **own})
    if space is None:
        space = space_from_obj(values.pop(0))
    sections, raw, *rest = values
    sizes = _per_open(sections, len(space.opens), "sheaf.sections", int)
    for u, val in enumerate(sizes):
        if val < 0:
            raise SchemaError(f"sheaf: bad section count for open {u}")
    restrict = {}
    for key, table in raw.items():
        pair = _parse_pair_key(key, "sheaf.restrict")
        if pair not in space.inclusions:
            raise SchemaError(f"sheaf.restrict: stray key {key!r}")
        if not isinstance(table, list):
            raise SchemaError(f"sheaf: restriction {key!r} must be a list")
        restrict[pair] = table
    return [SheafOfSets(space=space, sizes=tuple(sizes), restrict=restrict), *rest]


def sets_sheaf_from_obj(obj, space: FiniteSpace | None = None) -> SheafOfSets:
    """A sheaf object, over ``space`` when given and else over its own."""
    return _sheaf(obj, space)[0]


def sets_sheaf_to_obj(sheaf: SheafOfSets, include_space: bool = True) -> dict:
    out = {
        "sections": {str(u): n for u, n in enumerate(sheaf.sizes)},
        "restrict": {_pair_key(u, v): arr.tolist() for (u, v), arr in sorted(sheaf.arrays.items())},
    }
    if include_space:
        out["space"] = space_to_obj(sheaf.space)
    return out


def sheaf_action_from_obj(obj) -> SheafAction:
    from .sheaves import SheafAction, SheafOfGroups

    kinds = {"space": dict, "groups": dict, "sets": dict, "act": dict}
    space, graw, sraw, act = _fields(obj, "sheaf-action", kinds)
    space = space_from_obj(space)
    g_sets, cayley = _sheaf(graw, space, {"cayley": dict})
    cayley = _per_open(cayley, len(space.opens), "sheaf-action.groups.cayley", _ROWS)
    groups = tuple(map(build_group, g_sets.sizes, cayley))
    f_sets = sets_sheaf_from_obj(sraw, space=space)
    tables = _per_open(act, len(space.opens), "sheaf-action.act", list)
    return SheafAction(groups=SheafOfGroups(sets=g_sets, groups=groups), sets=f_sets, act=tables)


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
        "act": {str(u): arr.tolist() for u, arr in enumerate(action.arrays)},
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
    from .sheaves import build_descent_datum, constant_group_sheaf

    kinds = {"space": dict, "group": None, "cover": list, "transition": dict}
    space, group, cover, transition = _fields(obj, "descent", kinds)
    space, group = space_from_obj(space), group_from_obj(group)
    transition = _pair_map(transition, "descent.transition")
    return build_descent_datum(constant_group_sheaf(space, group), cover, transition)


# the problems that query classes and generate solution and coset read

def classes_from_obj(obj) -> tuple[Nerve, FiniteGroup]:
    """The nerve and group whose cocycle classes are counted; a cocycle's ``g`` is passed over."""
    nerve, group, _ = _fields(obj, "classes", {"nerve": dict, "group": None}, {"g": None})
    return nerve_from_obj(nerve), group_from_obj(group)


def solution_from_obj(obj) -> Torsor:
    """The solutions of T(v) = w over F_p, as the torsor solution_torsor makes of them."""
    from .constructions import prime_field_matrix, solution_torsor

    p, rows, w = _fields(obj, "solution", {"p": int, "T": _ROWS, "w": list})
    return solution_torsor(prime_field_matrix(p, rows), w)


def coset_from_obj(obj) -> Torsor:
    """The coset gH of a subgroup object H and its optional ``g`` (else the identity), as coset_torsor makes it."""
    from .constructions import coset_torsor

    sub, g = _subgroup(obj, {"g": _MISSING})
    return coset_torsor(sub.parent, sub, sub.parent.identity if g is _MISSING else g)


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
