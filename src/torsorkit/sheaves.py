"""Sheaves of sets and groups on finite spaces, and sheaf torsors.

Section identifiers are opaque integers per open; all structure lives in
restriction, group, and action tables. The sheaf axioms are checked
exactly. Gluing and the torsor conditions are decided on one cover per
open U, the minimal neighborhoods U_x of its points, which refines every
cover of U (Barmak, *Algebraic Topology of Finite Topological Spaces*,
2011): a family compatible on {V_i} pushes down to a compatible
t_x = s_i|U_x, whose unique gluing s has s|V_i = s_i by uniqueness on
the minimal cover of V_i.

Descent gluing follows the convention that transition data multiply on
the left of the chart coordinate (g_ij . s_j = s_i) while the group acts
on the right through inversion (a . (s_i) = (s_i . a^-1)), the unique
choice that commutes with the transitions and still satisfies the left
action axioms for nonabelian groups.

One stored form, as for groups and actions: a sheaf of sets or action
stores its tables once, in ``arrays``, as read-only int32 arrays, and
its public ``restrict`` and ``act`` are tuple views of them built on
first read. A producer (gluing, the constant sheaf, the lift) hands its
arrays over unread; a caller's tables, under either keyword, are read
strictly when the object is built, by ``groups._index_table``, which
raises MalformedTable at the first missing, misshapen, ill-typed or
out-of-range one, into read-only int32 copies. A sheaf of groups is
decided at most once for gluing and as_sheaf_torsor. The constant sheaf
carries G^c from G with the mixed-radix codec of ``groups``, without
deciding it again. Each open's action axioms are decided as any
action's; functoriality is one gather over all chains; each other axiom
is one gather-and-compare per inclusion or per open. The first mismatch
in row-major order is the least witness. Compatible families are
enumerated one cover member at a time as a boolean mask over (prefix,
section), in lexicographic order, from the first member's sections, and
found again by code lookup, in gluing once per open.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .actions import GroupAction, Torsor, _action_failure, _transports
from .errors import (
    CoverIncomplete,
    InternalError,
    MalformedTable,
    Mismatch,
    NoLocalSection,
    NotASheafTorsor,
    TripleViolation,
    UnknownOpen,
    _guard,
)
from .groups import (
    FiniteGroup,
    _codes,
    _digits,
    _entries,
    _first,
    _frozen_array,
    _index_table,
    _iterable,
    _is_index,
    _is_int,
    _mapping,
    _positions,
    _StoredTable,
    _tuples,
    build_group,  # not called here since G^c is carried; bench/test_bench.py still reads sheaves.build_group
)
from .report import Report, failing, passing
from .spaces import FiniteSpace, point_space, pseudocircle

CONSTANT_SECTIONS_MAX = 512    # per-open section count for constant sheaves
FAMILY_CANDIDATE_MAX = 65536   # descent family candidates per open

# held while a group's constant sheaf cache is read or filled, so each is decided once
_CONSTANT_SHEAVES_LOCK = threading.Lock()


@dataclass(frozen=True, init=False, repr=False, eq=False)
class SheafOfSets(_StoredTable):
    """sections(U) = range(sizes[u]); ``arrays`` holds the restriction table of each proper inclusion
    (u, v) as a read-only int32 array. A caller's tables, under ``restrict`` or ``arrays``, are read here
    against ``sizes`` into read-only int32 copies: MalformedTable names a bad table by u and v, a bad cell
    by its position too, and a key that is no proper inclusion by ``key``. A producer hands its arrays over
    unread. ``restrict`` is a read-only mapping of tuple views."""

    space: FiniteSpace
    sizes: tuple[int, ...]
    arrays: dict
    _compared = ("space", "sizes")
    _stored = "arrays"

    def __init__(self, space: FiniteSpace, sizes, restrict=None, arrays=None):
        sizes = _per_open(_entries(sizes, "sizes", np.iinfo(np.int32).max), space, "sizes")
        tables = arrays if restrict is None else restrict
        if not isinstance(tables, Mapping):
            raise MalformedTable(f"restrict: {type(tables).__name__} is no mapping", table="restrict")
        stray = next((key for key in tables if key not in space.inclusions), None)
        if stray is not None:
            raise MalformedTable(f"restrict: stray key {stray!r}", key=str(stray))
        arrays = {
            (u, v): _index_table(tables.get((u, v)), None, sizes[u], sizes[v], f"restrict[{u}, {v}]: ", u=u, v=v)
            for u, v in space.inclusions
        }
        self._set(space, sizes, arrays)

    @cached_property
    def _tables(self) -> dict:
        return {key: tuple(arr.tolist()) for key, arr in self.arrays.items()}

    @property
    def restrict(self) -> Mapping:
        return MappingProxyType(self._tables)

    def sections(self, u: int) -> range:
        return range(self.sizes[u])

    def restrict_section(self, u: int, s: int, v: int) -> int:
        """s|v, off the stored array."""
        return s if u == v else int(self.arrays[(u, v)][s])


@dataclass(frozen=True)
class SheafOfGroups:
    """A sheaf of sets with a group on each open. ``_verdict`` is its is_sheaf_of_groups report,
    decided once for gluing and as_sheaf_torsor; is_sheaf_of_groups itself decides on every call."""

    sets: SheafOfSets
    groups: tuple[FiniteGroup, ...]

    def __post_init__(self):
        groups = _per_open(self.groups, self.sets.space, "groups")
        bad = next((u for u, g in enumerate(groups) if not isinstance(g, FiniteGroup)), None)
        if bad is not None:
            raise MalformedTable(f"groups: entry {bad} is no FiniteGroup", table="groups", position=bad)
        object.__setattr__(self, "groups", groups)

    @property
    def space(self) -> FiniteSpace:
        return self.sets.space

    @cached_property
    def _verdict(self) -> Report:
        return is_sheaf_of_groups(self)

    def sections(self, u: int) -> range:
        return self.sets.sections(u)

    def restrict_section(self, u: int, s: int, v: int) -> int:
        return self.sets.restrict_section(u, s, v)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class SheafAction(_StoredTable):
    """Per open U, a table act[u][g][s] of G(U) on F(U); ``arrays`` holds each, by open, as a read-only
    int32 array. A caller's tables, under ``act`` or ``arrays``, are read here against the group orders and
    section counts into read-only int32 copies: MalformedTable names a bad table by its open, row and
    position. A producer hands its arrays over unread. G and F on two spaces are a Mismatch."""

    groups: SheafOfGroups
    sets: SheafOfSets
    arrays: tuple
    _compared = ("groups", "sets")
    _stored = "arrays"

    def __init__(self, groups: SheafOfGroups, sets: SheafOfSets, act=None, arrays=None):
        if groups.space != sets.space:
            raise Mismatch("the sheaves of groups and of sets lie on different spaces", sheaf="sets")
        tables = zip(_per_open(arrays if act is None else act, sets.space, "act"), groups.groups, sets.sizes)
        arrays = tuple(_index_table(t, g.order, n, n, f"act[{u}]: ", open=u) for u, (t, g, n) in enumerate(tables))
        self._set(groups, sets, arrays)

    @cached_property
    def act(self) -> tuple:
        return tuple(_tuples(arr, size) for arr, size in zip(self.arrays, self.sets.sizes))


@dataclass(frozen=True)
class SheafTorsor:
    """A SheafAction that passed is_sheaf_torsor; build via as_sheaf_torsor."""

    action: SheafAction

    @property
    def space(self) -> FiniteSpace:
        return self.sets.space

    @property
    def sets(self) -> SheafOfSets:
        return self.action.sets

    @property
    def groups(self) -> SheafOfGroups:
        return self.action.groups


@dataclass(frozen=True)
class DescentDatum:
    """Cover opens plus sheaf-level transition sections g_ij for i < j."""

    groups: SheafOfGroups
    cover: tuple[int, ...]
    transition: dict

    def value(self, i: int, j: int) -> int:
        """g_ij in G(U_i n U_j), deriving g_ii = e and g_ji = g_ij^-1."""
        space = self.groups.space
        w = space.intersection_index(self.cover[i], self.cover[j])
        grp = self.groups.groups[w]
        if i == j:
            return grp.identity
        if i < j:
            return self.transition[(i, j)]
        return grp.inv(self.transition[(j, i)])


def _guard_sections(group: FiniteGroup, count: int) -> int:
    """|G|^count, the sections of an open with ``count`` components, within the guard from 2 components
    on: G^0 and G^1 build no table, so a group of any order has a constant sheaf on a connected space."""
    n = group.order
    if count < 2:
        return n**count
    return _guard(n, count, CONSTANT_SECTIONS_MAX, "sections on one open", order=n, components=count)


def constant_section_id(group: FiniteGroup, values) -> int:
    """Index of a component-value tuple in the constant sheaf's enumeration."""
    values = tuple(_iterable(values, "component value"))
    _guard_sections(group, len(values))
    return int(_codes(np.asarray(_entries(values, "component value", group.order), dtype=np.intp), group.order))


def constant_section_tuple(group: FiniteGroup, count: int, idx: int) -> tuple[int, ...]:
    if not _is_index(idx, _guard_sections(group, count)):
        raise MalformedTable(f"section {idx!r} out of range for {count} components", section=idx)
    return tuple(_digits(idx, group.order, count).tolist())


def constant_group_sheaf(space: FiniteSpace, group: FiniteGroup) -> SheafOfGroups:
    """Locally constant functions into the group, with pointwise group law.

    G(U) is the set of functions from the components of U to the group,
    enumerated lexicographically; restriction refines components. A
    section is the mixed-radix code of its component values, so G(U) is
    G^c for c components, carried from the group once per c (``_direct_power``);
    G^1 is the group itself.

    Each sheaf is built and decided once per space and group object, then
    kept in ``group.constant_sheaves``: equal spaces get the same sheaf,
    whose verdict gluing and as_sheaf_torsor read.
    """
    with _CONSTANT_SHEAVES_LOCK:
        gs = group.constant_sheaves.get(space)
        if gs is None:
            gs = _constant_group_sheaf(space, group)
            rep = gs._verdict
            if not rep.passed:
                raise InternalError(f"the constant sheaf fails {rep.check}: {rep.witnesses[0]}")
            group.constant_sheaves[space] = gs
    return gs


def _constant_group_sheaf(space: FiniteSpace, group: FiniteGroup) -> SheafOfGroups:
    comps = space.components
    sizes = [_guard_sections(group, len(c)) for c in comps]
    n = group.order
    # component count -> the value tuple of every section, one row each
    values = {k: _digits(np.arange(n ** k), n, k) for k in {len(c) for c in comps}}
    powers = {k: group if k == 1 else _direct_power(group, v) for k, v in values.items()}
    arrays = {}
    for u, v in space.inclusions:
        holder = [next(i for i, cu in enumerate(comps[u]) if cv[0] in cu) for cv in comps[v]]
        arrays[(u, v)] = _frozen_array(_codes(values[len(comps[u])][:, holder], n))
    sets = SheafOfSets._unread(space, tuple(sizes), arrays)
    return SheafOfGroups(sets=sets, groups=tuple(powers[len(c)] for c in comps))


def _direct_power(group: FiniteGroup, values: np.ndarray) -> FiniteGroup:
    """G^k, each row of ``values`` (a k-tuple of elements) renamed to its code: carried from G, not decided."""
    n = group.order
    identity = int(_codes(np.full(values.shape[1], group.identity), n))
    inverse = _frozen_array(_codes(group.inverse_array[values], n))
    array = _frozen_array(_codes(group.array[values[:, None], values[None, :]], n))
    return FiniteGroup._unread(len(values), identity, inverse, array)


def _table(arrays: dict, sizes, u: int, v: int) -> np.ndarray:
    """The restriction from open u to open v as an int array; the identity when u == v."""
    return np.arange(sizes[u]) if u == v else arrays[(u, v)]


def _per_open(values, space: FiniteSpace, what: str) -> tuple:
    """A caller's list of one entry per open as a tuple; MalformedTable where the counts differ."""
    values, opens = tuple(_iterable(values, what)), len(space.opens)
    if len(values) != opens:
        raise MalformedTable(f"{what}: {len(values)} entries for {opens} opens", table=what, given=len(values))
    return values


def _compatible_families(sizes, agree: dict):
    """Families (f_0, ..., f_k-1) with left[f_i] == right[f_j] for each agree[(i, j)] = (left, right).

    Returns the families as rows in lexicographic order, and per member
    after the first the lookup from (prefix row, section) code to the
    extended family's row, for ``_locate``; the first member's families
    are its sections. Built one member at a time like backtracking, so
    the work is that of the compatible prefixes, not of the whole product.
    """
    rows = np.arange(sizes[0])[:, None]
    lookups = []
    for j in range(1, len(sizes)):
        n = sizes[j]
        left, right = agree[(0, j)]
        ok = left[rows[:, 0], None] == right
        for i in range(1, j):
            left, right = agree[(i, j)]
            ok &= left[rows[:, i], None] == right
        kept = np.flatnonzero(ok)  # C order: prefixes ascending, then sections
        # n more misses at the end: _locate sends a prefix already missed (-1) to [-n, 0)
        lookups.append(_positions(kept, ok.size + n))
        rows = np.column_stack([rows[kept // n], kept % n])
    return rows, lookups


def _locate(lookups, sizes, columns) -> np.ndarray:
    """The family row of each tuple (columns[0][..], ..., columns[k-1][..]), -1 where it is none.

    The columns hold the family entries and share one shape, which the result takes.
    """
    found = np.array(columns[0], dtype=np.int32)  # the first member's section is its family row
    for pos, n, col in zip(lookups, sizes[1:], columns[1:]):
        found *= n
        found += col
        np.take(pos, found, out=found)
    return found


def _functoriality_witnesses(space: FiniteSpace, sizes, arrays: dict) -> list[dict]:
    """A witness for each chain w < v < u whose restrictions do not compose, at its least section s with
    (s|v)|w != s|w, in pair order. One gather for all chains, with the tables end to end in ``buf``: SheafOfSets
    pins each table's length and range, so every entry of (u, v) indexes inside the table of (v, w)."""
    at = space.inclusions
    chains = [(at[u, v], at[v, w], at[u, w], u, v, w) for u, v in at for w in space.subopens[v]]
    lengths = np.array([sizes[u] for u, _ in at])
    buf = np.concatenate([arrays[pair] for pair in at])
    table = np.array(chains, dtype=np.intp).reshape(-1, 6)
    cells = lengths[table[:, 0]]
    seg = np.repeat(np.arange(len(chains)), cells)  # the chain of each cell, and its section s
    place = np.arange(len(seg)) - (np.cumsum(cells) - cells)[seg]
    uv, vw, uw = (np.cumsum(lengths) - lengths)[table[seg, :3]].T
    hits = np.flatnonzero(buf[vw + buf[uv + place]] != buf[uw + place])
    failed, first = np.unique(seg[hits], return_index=True)
    return [
        {"axiom": "functoriality", "u": u, "v": v, "w": w, "section": s}
        for (*_, u, v, w), s in zip(table[failed].tolist(), place[hits[first]].tolist())
    ]


def is_sheaf(sheaf: SheafOfSets) -> Report:
    """Exact functoriality, locality, and gluing check on minimal covers, with witnesses."""
    space, arrays = sheaf.space, sheaf.arrays
    witnesses = _functoriality_witnesses(space, sheaf.sizes, arrays)
    for u, target in enumerate(space.opens):
        if not target:
            if sheaf.sizes[u] != 1:
                witnesses.append(
                    {"axiom": "empty-sections", "open": u, "sections": sheaf.sizes[u]}
                )
            continue
        cover = space.minimal_covers[u]
        if cover == (u,):
            continue  # each section is the only family it glues
        sizes = [sheaf.sizes[m] for m in cover]
        agree = {}
        for i, j in itertools.combinations(range(len(cover)), 2):
            w = space.meets[cover[i]][cover[j]]
            agree[(i, j)] = (arrays[(cover[i], w)], arrays[(cover[j], w)])
        families, lookups = _compatible_families(sizes, agree)
        found = _locate(lookups, sizes, [_table(arrays, sheaf.sizes, u, m) for m in cover])
        gluings = np.bincount(found[found >= 0], minlength=len(families))
        bad = _first(gluings != 1)
        if bad is not None:
            witnesses.append(
                {
                    "axiom": "gluing",
                    "open": u,
                    "cover": list(cover),
                    "family": families[bad[0]].tolist(),
                    "gluings": int(gluings[bad[0]]),
                }
            )
    if witnesses:
        return failing("sheaf", witnesses)
    return passing("sheaf", counts={"opens": len(space.opens)})


def _restriction_failures(space: FiniteSpace, tables, g_arrays: dict, f_arrays: dict):
    """(u, v, a, s) for each inclusion whose first [a, s] has (a.s)|v != a|v . s|v, in pair order."""
    for u, v in space.inclusions:
        rg, rf = g_arrays[(u, v)], f_arrays[(u, v)]
        bad = _first(rf[tables[u]] != tables[v][rg[:, None], rf])
        if bad is not None:
            yield u, v, *bad


def _group_orders(gs: SheafOfGroups, **tag) -> list[dict]:
    """A witness for each open whose group's order is not its section count."""
    sizes = gs.sets.sizes
    return [{"axiom": "group-order", **tag, "open": u} for u, g in enumerate(gs.groups) if g.order != sizes[u]]


def is_sheaf_of_groups(gs: SheafOfGroups) -> Report:
    """Underlying sheaf axioms plus homomorphic restrictions."""
    witnesses = list(is_sheaf(gs.sets).witnesses) + _group_orders(gs)
    if not witnesses:
        # restriction is a homomorphism: the regular actions of the G(U) commute with it
        arrays = gs.sets.arrays
        for u, v, s, t in _restriction_failures(gs.space, [g.array for g in gs.groups], arrays, arrays):
            witnesses.append({"axiom": "restriction-hom", "u": u, "v": v, "s": s, "t": t})
    if witnesses:
        return failing("sheaf-of-groups", witnesses)
    return passing("sheaf-of-groups", counts={"opens": len(gs.space.opens)})


def _require(rep: Report) -> None:
    if not rep.passed:
        raise NotASheafTorsor(f"{rep.check} failed: {rep.witnesses[0]}", report=rep)


def _action_structure_witnesses(action: SheafAction) -> list[dict]:
    """Witnesses of the action axioms per open, decided as for any action, then along restrictions."""
    gs, fs = action.groups, action.sets
    failures = enumerate(map(_action_failure, gs.groups, action.arrays))
    out = [{**err.witness(), "open": u} for u, err in failures if err is not None]
    if out:
        return out
    # G's restriction tables are read against its section counts, the action tables against its group orders
    out = _group_orders(gs, sheaf="groups")
    bad = _restriction_failures(fs.space, action.arrays, gs.sets.arrays, fs.arrays)
    return out or [{"axiom": "action-restriction", "u": u, "v": v, "g": a, "s": s} for u, v, a, s in bad]


def is_sheaf_torsor(action: SheafAction) -> Report:
    """Decide the sheaf-torsor conditions on minimal open neighborhoods.

    Condition 1 (locally nonempty): F(m(x)) is inhabited for every point x.
    Condition 2 (locally uniquely transitive): for every open U, every pair
    of sections of F(U), and every m in the minimal cover of U, exactly one
    section of G(m) transports one restriction to the other. Minimal opens
    refine every cover of a finite space, so this decides the existential
    cover quantifiers exactly. A failing pair on U restricts to a failing
    pair on m, so condition 2 is decided once per minimal open m, with s
    and t ranging over F(m).
    """
    witnesses = _action_structure_witnesses(action)
    if witnesses:
        return failing("sheaf-torsor", witnesses)
    fs = action.sets
    space = fs.space
    for x, m in enumerate(space.minimal_open):
        if fs.sizes[m] < 1:
            witnesses.append({"axiom": "locally-nonempty", "point": x, "open": m})
    for m in sorted(set(space.minimal_open)):
        transports = _transports(action.arrays[m])  # [s, t] -> the number of a in G(m) with a.s = t
        bad = _first(transports != 1)
        if bad is not None:
            s, t = bad
            witnesses.append(
                {
                    "axiom": "local-transport",
                    "open": m,
                    "s": s,
                    "t": t,
                    "min_open": m,
                    "transports": int(transports[s, t]),
                }
            )
    if witnesses:
        return failing("sheaf-torsor", witnesses)
    counts = {"global_sections": fs.sizes[space.whole_index]}
    return passing("sheaf-torsor", counts=counts)


def as_sheaf_torsor(action: SheafAction) -> SheafTorsor:
    """Validate all sheaf and torsor axioms in order; raise with the first failing report.

    Each check reads only tables the checks before it have validated.
    G is decided at most once per object (its cached ``_verdict``, which
    constant_group_sheaf and glue_from_cocycle also read); F and the
    action are decided on every call.
    """
    _require(is_sheaf(action.sets))
    _require(action.groups._verdict)
    _require(is_sheaf_torsor(action))
    return SheafTorsor(action=action)


def sections(torsor: SheafTorsor, u: int) -> list[int]:
    """The stored section list over the open with index u."""
    space = torsor.space
    if not _is_index(u, len(space.opens)):
        raise UnknownOpen(f"open index {u!r} out of range", open=u)
    return list(torsor.sets.sections(u))


def global_sections(torsor: SheafTorsor) -> list[int]:
    return sections(torsor, torsor.space.whole_index)


def _cover(space: FiniteSpace, cover) -> tuple[int, ...]:
    """Cover open indices, strictly: the first bad entry is UnknownOpen when it is an integer and
    MalformedTable otherwise; then CoverIncomplete names the missed points."""
    cover = tuple(_iterable(cover, "cover"))
    try:
        cover = tuple(_entries(cover, "cover", len(space.opens)))
    except MalformedTable as err:
        c = cover[err.data["position"]]
        if not _is_int(c):
            raise
        raise UnknownOpen(f"cover open {c} out of range", open=int(c)) from None
    missed = set(range(space.num_points)).difference(*(space.opens[c] for c in cover))
    if missed:
        raise CoverIncomplete(f"cover misses points {sorted(missed)}", points=sorted(missed))
    return cover


def build_descent_datum(gs: SheafOfGroups, cover, transition) -> DescentDatum:
    """Validate cover completeness and the sheaf-level cocycle identities."""
    space = gs.space
    cover = _cover(space, cover)
    k = len(cover)
    values = {}
    for key, val in _mapping(transition, "transition").items():
        pair = tuple(key) if isinstance(key, Iterable) else ()  # one integer, or None, is no pair
        if len(pair) != 2 or not all(map(_is_int, pair)):
            raise MalformedTable(f"transition key {key!r} is not a pair of integers", key=str(key))
        i, j = (int(v) for v in pair)
        if not 0 <= i < j < k:
            raise Mismatch(f"transition key ({i},{j}) must satisfy 0 <= i < j < {k}", i=i, j=j)
        w = space.intersection_index(cover[i], cover[j])
        if not _is_index(val, gs.sets.sizes[w]):
            raise MalformedTable(f"transition value {val!r} on pair ({i},{j}) is not a section", i=i, j=j)
        values[(i, j)] = int(val)
    for i, j in itertools.combinations(range(k), 2):
        if (i, j) not in values:
            raise Mismatch(f"missing transition for pair ({i},{j})", i=i, j=j)
    # with a < b < c, g_ab * g_bc = g_ac is the triple identity in every ordering
    for a, b, c in itertools.combinations(range(k), 3):
        w_ab = space.intersection_index(cover[a], cover[b])
        w_bc = space.intersection_index(cover[b], cover[c])
        w_ac = space.intersection_index(cover[a], cover[c])
        w = space.intersection_index(w_ab, cover[c])
        lhs = gs.groups[w].array[  # one cell: no tuple view of G(w)
            gs.restrict_section(w_ab, values[(a, b)], w),
            gs.restrict_section(w_bc, values[(b, c)], w),
        ]
        if lhs != gs.restrict_section(w_ac, values[(a, c)], w):
            raise TripleViolation(
                f"cocycle identity fails on cover triple ({a},{b},{c})", i=a, j=b, k=c
            )
    return DescentDatum(groups=gs, cover=cover, transition=values)


def glue_from_cocycle(datum: DescentDatum) -> SheafTorsor:
    """Reconstruct a sheaf torsor from transition data by descent.

    F(U) is the set of chart families (s_i in G(U n U_i)) satisfying
    s_i = g_ij . s_j on overlaps, with componentwise restriction; the
    group acts through the right of the chart coordinate by a^-1.
    Families are numbered in lexicographic order. G is decided first
    (NotASheafTorsor when it fails; its verdict is kept on it), and the
    torsor keeps G itself; gluing reads the tables G was decided on, and
    hands F and the action over as the arrays it built, checked once.
    """
    gs = datum.groups
    _require(gs._verdict)
    space = gs.space
    sizes = gs.sets.sizes
    arrays = gs.sets.arrays
    cover, meets = datum.cover, space.meets
    k = len(cover)
    charts = [[meets[u][c] for c in cover] for u in range(len(space.opens))]

    families, lookups = [], []
    for chart in charts:
        _guard(math.prod(int(sizes[c]) for c in chart), 1, FAMILY_CANDIDATE_MAX, "family candidates", charts=k)
        agree = {}
        for i, j in itertools.combinations(range(k), 2):
            w = meets[chart[i]][chart[j]]
            pair = meets[cover[i]][cover[j]]
            g_ij = _table(arrays, sizes, pair, w)[datum.value(i, j)]
            # s_i|w = g_ij * s_j|w
            agree[(i, j)] = (
                _table(arrays, sizes, chart[i], w),
                gs.groups[w].array[g_ij][_table(arrays, sizes, chart[j], w)],
            )
        rows, lookup = _compatible_families([sizes[c] for c in chart], agree)
        families.append(rows)
        lookups.append(lookup)

    # one lookup per open v finds the images in F(v): of F(u) for each u > v, then of the action on F(v)
    located = []
    for v, chart in enumerate(charts):
        above, columns = [u for u, w in space.inclusions if w == v], []
        for i, c in enumerate(chart):
            grp = gs.groups[c]
            inverse = grp.inverse_array[_table(arrays, sizes, v, c)]
            parts = [_table(arrays, sizes, charts[u][i], c)[families[u][:, i]] for u in above]
            parts.append(grp.array[families[v][:, i], inverse[:, None]].ravel())  # [a, f] -> f_i * (a|c)^-1
            columns.append(np.concatenate(parts))
        found = _locate(lookups[v], [sizes[c] for c in chart], columns)
        # unsigned, a miss (-1) is past every family too
        if (found.view(np.uint32) >= len(families[v])).any():
            raise InternalError(f"a chart family on open {v} has no image family")
        found.flags.writeable = False
        located.append(found)

    glued, start = {}, [0] * len(charts)
    for u, v in space.inclusions:
        glued[(u, v)] = located[v][start[v] : start[v] + len(families[u])]
        start[v] += len(families[u])
    sets = SheafOfSets._unread(space, tuple(len(f) for f in families), glued)
    act_arrays = tuple(f[s:].reshape(sizes[v], len(families[v])) for v, (f, s) in enumerate(zip(located, start)))
    return as_sheaf_torsor(SheafAction._unread(gs, sets, act_arrays))


def extract_cocycle(torsor: SheafTorsor, cover, chosen) -> DescentDatum:
    """Transition data from chosen local sections: the unique g with g.s_j = s_i."""
    fs = torsor.sets
    space = torsor.space
    cover = _cover(space, cover)
    chosen = tuple(_iterable(chosen, "chosen section"))
    if len(chosen) != len(cover):
        raise Mismatch(f"{len(chosen)} sections for {len(cover)} cover opens", got=len(chosen), expected=len(cover))
    sizes = [fs.sizes[c] for c in cover]
    try:
        chosen = _entries(chosen, "chosen section", sizes)
    except MalformedTable as err:
        # the first bad position wins; over an open with no sections every choice is bad
        i = err.data["position"]
        if sizes[i] == 0:
            raise NoLocalSection(f"no local section over cover open {i}", position=i) from None
        raise
    transition = {}
    for i, j in itertools.combinations(range(len(cover)), 2):
        w = space.intersection_index(cover[i], cover[j])
        si = fs.restrict_section(cover[i], chosen[i], w)
        sj = fs.restrict_section(cover[j], chosen[j], w)
        hits = np.flatnonzero(torsor.action.arrays[w][:, sj] == si)
        if len(hits) != 1:
            raise InternalError(f"local transporter not unique on pair ({i},{j})")
        transition[(i, j)] = int(hits[0])
    return build_descent_datum(torsor.groups, cover, transition)


def lift_point_action(action: GroupAction) -> SheafAction:
    """Present an ordinary action as a sheaf action on the one-point space, for a group of any order;
    G is the group's constant sheaf there, built and decided once per group. The action hands over its array."""
    space, size = point_space(), action.set_size
    # one section on the empty open (index 0), ``size`` on the point (index 1)
    sets = SheafOfSets._unread(space, (1, size), {(1, 0): _frozen_array([0] * size)})
    groups = constant_group_sheaf(space, action.group)
    return SheafAction._unread(groups, sets, (_frozen_array([[0]]), action.array))


def lift_point_torsor(torsor: Torsor) -> SheafTorsor:
    return as_sheaf_torsor(lift_point_action(torsor.action))


def pseudocircle_descent_datum(group: FiniteGroup, twist: int) -> DescentDatum:
    """Descent datum on the pseudocircle's two-arc cover with a constant sheaf.

    The transition section takes the identity on the overlap component {0}
    and ``twist`` on component {1}; the identity twist gives the trivial
    datum, any other element a globally twisted one.
    """
    space = pseudocircle()
    gs = constant_group_sheaf(space, group)
    cover = (space.index_of((0, 1, 2)), space.index_of((0, 1, 3)))
    value = constant_section_id(group, (group.identity, twist))
    return build_descent_datum(gs, cover, {(0, 1): value})
