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
stores its tables once, in ``_read``, as read-only int32 arrays, and its
public ``restrict`` and ``act`` are tuple views of them built on first
read. A producer (gluing, the constant sheaf, the lift of a produced
action) passes its arrays, which are the read; a hand-built sheaf or
action keeps the tables it was given and reads them strictly once, on
first use, checking the type and range of every cell. A sheaf of groups
is decided at most once for gluing and as_sheaf_torsor. The constant
sheaf carries G^c from G with the mixed-radix codec of ``constructions``,
without deciding it again; each axiom is one gather-and-compare per
inclusion or per open, whose first mismatch in row-major order is the
least witness; compatible families are enumerated one cover member at a
time as a boolean mask over (prefix, section), in lexicographic order,
and found again by code lookup.
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

from .actions import GroupAction, Torsor, _transports
from .constructions import _codes, _digits
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
    _compatibility_witness,
    _entries,
    _first,
    _frozen_array,
    _index_array,
    _is_index,
    _is_int,
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
    """sections(U) = range(sizes[u]); ``_read`` holds the witnesses of the restriction tables that fail
    the read and, by proper inclusion, those that pass as read-only int32 arrays. A producer passes its
    ``arrays``, which are the read; a hand-built sheaf passes ``restrict`` (a list or array table becomes
    a tuple), read once, on first use. ``restrict`` is a read-only mapping, of views for a producer."""

    space: FiniteSpace
    sizes: tuple[int, ...]
    restrict: Mapping
    _compared = ("space", "sizes")
    _stored = "_read"

    def __init__(self, space: FiniteSpace, sizes, restrict=None, arrays=None):
        self._set(space=space, sizes=tuple(sizes))
        if restrict is None:
            vars(self)["_read"] = ((), arrays)
        else:
            vars(self)["_tables"] = {
                key: tuple(t) if isinstance(t, (list, np.ndarray)) else t for key, t in restrict.items()
            }

    @cached_property
    def _read(self) -> tuple[tuple[dict, ...], dict]:
        return _structure(self.space, self._tables, self.sizes)

    @cached_property
    def _tables(self) -> dict:
        return {key: tuple(arr.tolist()) for key, arr in self._read[1].items()}

    @property
    def restrict(self) -> Mapping:
        return MappingProxyType(self._tables)

    def sections(self, u: int) -> range:
        return range(self.sizes[u])

    def restrict_section(self, u: int, s: int, v: int) -> int:
        """s|v, off the stored array; off the table as given where it failed the read."""
        if u == v:
            return s
        arr = self._read[1].get((u, v))
        return self.restrict[(u, v)][s] if arr is None else int(arr[s])


@dataclass(frozen=True)
class SheafOfGroups:
    """A sheaf of sets with a group on each open. ``_verdict`` is its is_sheaf_of_groups report,
    decided once for gluing and as_sheaf_torsor; is_sheaf_of_groups itself decides on every call."""

    sets: SheafOfSets
    groups: tuple[FiniteGroup, ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))

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
    """Per open U, a table act[u][g][s] of G(U) on F(U); ``_read`` holds each as a read-only int32 array,
    or the witness of one that fails the read. A producer passes its ``arrays``, which are the read; a
    hand-built action passes ``act``, kept as given and read once, on first use."""

    groups: SheafOfGroups
    sets: SheafOfSets
    act: tuple
    _compared = ("groups", "sets")
    _stored = "_read"

    def __init__(self, groups: SheafOfGroups, sets: SheafOfSets, act=None, arrays=None):
        self._set(groups=groups, sets=sets)
        if act is None:
            vars(self)["_read"] = tuple(arrays)
        else:
            vars(self)["act"] = act

    @cached_property
    def act(self) -> tuple:
        return tuple(_tuples(arr, size) for arr, size in zip(self._read, self.sets.sizes))

    @cached_property
    def _read(self) -> tuple:
        return _act_read(self.act, self.groups, self.sets)


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


def _proper_pairs(space: FiniteSpace):
    for u, below in enumerate(space.subopens):
        for v in below:
            yield u, v


def _guard_sections(group: FiniteGroup, count: int) -> int:
    """|G|^count, the sections of an open with ``count`` components, within the guard from 2 components
    on: G^0 and G^1 build no table, so a group of any order has a constant sheaf on a connected space."""
    n = group.order
    if count < 2:
        return n**count
    return _guard(n, count, CONSTANT_SECTIONS_MAX, "sections on one open", order=n, components=count)


def constant_section_id(group: FiniteGroup, values) -> int:
    """Index of a component-value tuple in the constant sheaf's enumeration."""
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
    for u, v in _proper_pairs(space):
        holder = [next(i for i, cu in enumerate(comps[u]) if cv[0] in cu) for cv in comps[v]]
        arrays[(u, v)] = _frozen_array(_codes(values[len(comps[u])][:, holder], n))
    sets = SheafOfSets(space=space, sizes=sizes, arrays=arrays)
    return SheafOfGroups(sets=sets, groups=tuple(powers[len(c)] for c in comps))


def _direct_power(group: FiniteGroup, values: np.ndarray) -> FiniteGroup:
    """G^k, each row of ``values`` (a k-tuple of elements) renamed to its code: carried from G, not decided."""
    n = group.order
    identity = int(_codes(np.full(values.shape[1], group.identity), n))
    inverse = tuple(_codes(np.take(group.inverse, values), n).tolist())
    array = _frozen_array(_codes(group.array[values[:, None], values[None, :]], n))
    return FiniteGroup(order=len(values), identity=identity, inverse=inverse, array=array)


def _table(arrays: dict, sizes, u: int, v: int) -> np.ndarray:
    """The restriction from open u to open v as an int array; the identity when u == v."""
    return np.arange(sizes[u]) if u == v else arrays[(u, v)]


def _structure(space: FiniteSpace, restrict, sizes) -> tuple[tuple[dict, ...], dict]:
    """Witnesses of missing, misshapen, ill-typed or out-of-range restriction tables, and the
    passing tables as read-only int arrays. The one reader of a hand-built sheaf's tables, run once
    by ``SheafOfSets._read``: it reads the proper inclusions only, never a key no check reads."""
    out, arrays = [], {}
    for u, v in _proper_pairs(space):
        table = restrict.get((u, v))
        if not hasattr(table, "__len__") or len(table) != sizes[u]:
            out.append({"axiom": "restriction-table", "u": u, "v": v})
            continue
        arr = _index_array([table], 1, sizes[u], sizes[v])
        if arr is None:
            out.append({"axiom": "restriction-range", "u": u, "v": v})
            continue
        arrays[(u, v)] = arr[0]
    return tuple(out), arrays


def _minimal_cover(space: FiniteSpace, u: int) -> tuple[int, ...]:
    """U_x for the maximal points x of open u (no y in u has U_x < U_y), as open indices ascending."""
    points, minimal = space.opens[u], space.minimal
    # a U_x inside another U_y adds nothing: compatibility already fixes its section
    maximal = [x for x in points if not any(minimal[x] < minimal[y] for y in points)]
    return tuple(sorted({space.minimal_open[x] for x in maximal}))


def _compatible_families(sizes, agree: dict):
    """Families (f_0, ..., f_k-1) with left[f_i] == right[f_j] for each agree[(i, j)] = (left, right).

    Returns the families as rows in lexicographic order, and per member
    the lookup from (prefix row, section) code to the extended family's
    row, for ``_locate``. Built one member at a time like backtracking, so
    the work is that of the compatible prefixes, not of the whole product.
    """
    rows = np.zeros((1, 0), dtype=np.intp)
    lookups = []
    for j, n in enumerate(sizes):
        ok = np.ones((len(rows), n), dtype=bool)
        for i in range(j):
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
    found = np.zeros(np.shape(columns[0]), dtype=np.int32)
    for pos, n, col in zip(lookups, sizes, columns):
        found *= n
        found += col
        np.take(pos, found, out=found)
    return found


def is_sheaf(sheaf: SheafOfSets) -> Report:
    """Exact functoriality, locality, and gluing check on minimal covers, with witnesses."""
    witnesses, arrays = sheaf._read
    if witnesses:
        return failing("sheaf", witnesses)
    witnesses, space = [], sheaf.space
    for u, v in _proper_pairs(space):
        for w in space.subopens[v]:
            bad = _first(arrays[(v, w)][arrays[(u, v)]] != arrays[(u, w)])
            if bad is not None:
                witnesses.append(
                    {"axiom": "functoriality", "u": u, "v": v, "w": w, "section": bad[0]}
                )
    for u, target in enumerate(space.opens):
        if not target:
            if sheaf.sizes[u] != 1:
                witnesses.append(
                    {"axiom": "empty-sections", "open": u, "sections": sheaf.sizes[u]}
                )
            continue
        cover = _minimal_cover(space, u)
        if cover == (u,):
            continue  # each section is the only family it glues
        sizes = [sheaf.sizes[m] for m in cover]
        agree = {}
        for i, j in itertools.combinations(range(len(cover)), 2):
            w = space.intersection_index(cover[i], cover[j])
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
    for u, v in _proper_pairs(space):
        rg, rf = g_arrays[(u, v)], f_arrays[(u, v)]
        bad = _first(rf[tables[u]] != tables[v][rg[:, None], rf])
        if bad is not None:
            yield u, v, *bad


def _group_orders(gs: SheafOfGroups) -> list[dict]:
    """A witness for each open whose group's order is not its section count."""
    sizes = gs.sets.sizes
    return [{"axiom": "group-order", "open": u} for u, g in enumerate(gs.groups) if g.order != sizes[u]]


def is_sheaf_of_groups(gs: SheafOfGroups) -> Report:
    """Underlying sheaf axioms plus homomorphic restrictions."""
    witnesses = list(is_sheaf(gs.sets).witnesses) + _group_orders(gs)
    if not witnesses:
        # restriction is a homomorphism: the regular actions of the G(U) commute with it
        arrays = gs.sets._read[1]
        for u, v, s, t in _restriction_failures(gs.space, [g.array for g in gs.groups], arrays, arrays):
            witnesses.append({"axiom": "restriction-hom", "u": u, "v": v, "s": s, "t": t})
    if witnesses:
        return failing("sheaf-of-groups", witnesses)
    return passing("sheaf-of-groups", counts={"opens": len(gs.space.opens)})


def _require(rep: Report) -> None:
    if not rep.passed:
        raise NotASheafTorsor(f"{rep.check} failed: {rep.witnesses[0]}", report=rep)


def _act_read(act, gs: SheafOfGroups, fs: SheafOfSets) -> tuple:
    """Per open of a hand-built action, its table as a read-only int32 array, else its witness."""
    out = []
    for u in range(len(fs.space.opens)):
        table, order, size = act[u], gs.groups[u].order, fs.sizes[u]
        arr = _index_array(table, order, size, size)
        if arr is None:
            misshapen = len(table) != order or any(len(r) != size for r in table)
            arr = {"axiom": "action-table" if misshapen else "action-range", "open": u}
        out.append(arr)
    return tuple(out)


def _action_structure_witnesses(action: SheafAction) -> list[dict]:
    """Witnesses of the action axioms per open and along restrictions."""
    out = []
    gs, fs = action.groups, action.sets
    for u, arr in enumerate(action._read):
        if isinstance(arr, dict):
            out.append(arr)
            continue
        grp = gs.groups[u]
        moved = _first(arr[grp.identity] != np.arange(fs.sizes[u]))
        if moved is not None:
            out.append({"axiom": "action-identity", "open": u, "x": moved[0]})
            continue
        if fs.sizes[u]:
            bad = _compatibility_witness(arr, grp.array, grp.generators)
            if bad is not None:
                g, h, x = bad
                out.append(
                    {"axiom": "action-compatibility", "open": u, "g": g, "h": h, "x": x}
                )
    if out:
        return out
    # G's tables are read against its section counts, the action tables against its group orders
    tagged = (("groups", _group_orders(gs) + list(gs.sets._read[0])), ("sets", fs._read[0]))
    out = [{"axiom": w["axiom"], "sheaf": name, **w} for name, bad in tagged for w in bad]
    bad = _restriction_failures(fs.space, action._read, gs.sets._read[1], fs._read[1])
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
        transports = _transports(action._read[m])  # [s, t] -> the number of a in G(m) with a.s = t
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
    cover = tuple(cover)
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
    for key, val in dict(transition).items():
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
    arrays = gs.sets._read[1]
    cover = datum.cover
    k = len(cover)
    charts = [
        [space.intersection_index(u, cover[i]) for i in range(k)]
        for u in range(len(space.opens))
    ]

    families, lookups = [], []
    for chart in charts:
        _guard(math.prod(int(sizes[c]) for c in chart), 1, FAMILY_CANDIDATE_MAX, "family candidates", charts=k)
        agree = {}
        for i, j in itertools.combinations(range(k), 2):
            w = space.intersection_index(chart[i], chart[j])
            pair = space.intersection_index(cover[i], cover[j])
            g_ij = _table(arrays, sizes, pair, w)[datum.value(i, j)]
            # s_i|w = g_ij * s_j|w
            agree[(i, j)] = (
                _table(arrays, sizes, chart[i], w),
                gs.groups[w].array[g_ij][_table(arrays, sizes, chart[j], w)],
            )
        rows, lookup = _compatible_families([sizes[c] for c in chart], agree)
        families.append(rows)
        lookups.append(lookup)

    def locate(u, columns):
        found = _locate(lookups[u], [sizes[c] for c in charts[u]], columns)
        # unsigned, a miss (-1) is past every family too
        if (found.view(np.uint32) >= len(families[u])).any():
            raise InternalError(f"a chart family on open {u} has no image family")
        found.flags.writeable = False
        return found

    glued = {}
    for u, v in _proper_pairs(space):
        columns = [
            _table(arrays, sizes, charts[u][i], charts[v][i])[families[u][:, i]] for i in range(k)
        ]
        glued[(u, v)] = locate(v, columns)
    sets = SheafOfSets(space=space, sizes=[len(f) for f in families], arrays=glued)

    act_arrays = []
    for u, chart in enumerate(charts):
        columns = []
        for i, c in enumerate(chart):
            grp = gs.groups[c]
            inverse = np.asarray(grp.inverse)[_table(arrays, sizes, u, c)]
            columns.append(grp.array[families[u][:, i], inverse[:, None]])  # [a, f] -> f_i * (a|c)^-1
        act_arrays.append(locate(u, columns))

    return as_sheaf_torsor(SheafAction(groups=gs, sets=sets, arrays=act_arrays))


def extract_cocycle(torsor: SheafTorsor, cover, chosen) -> DescentDatum:
    """Transition data from chosen local sections: the unique g with g.s_j = s_i."""
    fs = torsor.sets
    space = torsor.space
    cover = _cover(space, cover)
    chosen = tuple(chosen)
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
        hits = np.flatnonzero(torsor.action._read[w][:, sj] == si)
        if len(hits) != 1:
            raise InternalError(f"local transporter not unique on pair ({i},{j})")
        transition[(i, j)] = int(hits[0])
    return build_descent_datum(torsor.groups, cover, transition)


def lift_point_action(action: GroupAction) -> SheafAction:
    """Present an ordinary action as a sheaf action on the one-point space, for a group of any order;
    G is the group's constant sheaf there, built and decided once per group. A produced action hands
    over its array; a hand-built one is read from the ``act`` it keeps."""
    space, size = point_space(), action.set_size
    # one section on the empty open (index 0), ``size`` on the point (index 1)
    sets = SheafOfSets(space=space, sizes=(1, size), arrays={(1, 0): _frozen_array([0] * size)})
    groups = constant_group_sheaf(space, action.group)
    if "act" in vars(action):
        return SheafAction(groups=groups, sets=sets, act=(((0,),), action.act))
    return SheafAction(groups=groups, sets=sets, arrays=(_frozen_array([[0]]), action.array))


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
