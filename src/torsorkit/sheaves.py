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

Arrays inside, tuples outside: the public fields (section counts,
restriction and action tables) are tuples of Python ints, which is what
jsonio writes and callers read; the work runs on int arrays. Sheaves are
read-only once built and keep what is computed from them: a sheaf of
sets reads its restriction tables once, checking the type and range of
every cell, and a sheaf of groups is decided at most once for gluing and
as_sheaf_torsor. Glue hands is_sheaf_torsor the act tables it built,
as int32 arrays read with the dtype, shape and range checks; lift hands
over none, as GroupAction.array casts a cell of 1.0 or True to the int
the tuple read rejects. The constant sheaf builds G^c with the mixed-radix
codec of ``constructions``; each axiom is one gather-and-compare per
inclusion or per open, whose first mismatch in row-major order is the
least witness; compatible families are enumerated one cover member at a
time as a boolean mask over (prefix, section), in lexicographic order,
and found again by code lookup.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .actions import GroupAction, Torsor, _transports
from .constructions import _codes, _digits, _guard_count
from .errors import (
    CoverIncomplete,
    InternalError,
    MalformedTable,
    Mismatch,
    NoLocalSection,
    NotASheafTorsor,
    TooLarge,
    TripleViolation,
    UnknownOpen,
)
from .groups import (
    FiniteGroup,
    _compatibility_witness,
    _first,
    _index_array,
    _is_index,
    _is_int,
    _positions,
    _tuples,
    build_group,
)
from .report import Report, failing, passing
from .spaces import FiniteSpace, point_space, pseudocircle

CONSTANT_SECTIONS_MAX = 512    # per-open section count for constant sheaves
FAMILY_CANDIDATE_MAX = 65536   # descent family candidates per open

# held while a group's constant sheaf cache is read or filled, so each is decided once
_CONSTANT_SHEAVES_LOCK = threading.Lock()


@dataclass(frozen=True)
class SheafOfSets:
    """sections(U) = range(sizes[u]); restrict maps stored for proper inclusions, kept read-only
    (list tables become tuples) so that the one strict read of the tables, ``_read``, stays true."""

    space: FiniteSpace
    sizes: tuple[int, ...]
    restrict: Mapping

    def __post_init__(self):
        tables = {key: tuple(t) if isinstance(t, list) else t for key, t in self.restrict.items()}
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "restrict", MappingProxyType(tables))

    @cached_property
    def _read(self) -> tuple[tuple[dict, ...], dict]:
        return _structure(self.space, self.restrict, self.sizes)

    def sections(self, u: int) -> range:
        return range(self.sizes[u])

    def restrict_section(self, u: int, s: int, v: int) -> int:
        return s if u == v else self.restrict[(u, v)][s]

    def __reduce__(self):
        # a read-only mapping does not pickle; the copy reads its tables again
        return SheafOfSets, (self.space, self.sizes, dict(self.restrict))


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


@dataclass(frozen=True)
class SheafAction:
    """Per open U, a table act[u][g][s] for the action of G(U) on F(U). ``_tables`` holds what
    is_sheaf_torsor reads: ``act`` itself, or the read-only arrays glue_from_cocycle built it from.
    It is no field, so equality, repr and ``dataclasses.replace`` ignore it, and pickles drop it
    (numpy would restore the arrays writable)."""

    groups: SheafOfGroups
    sets: SheafOfSets
    act: tuple

    @cached_property
    def _tables(self) -> tuple:
        return self.act

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k != "_tables"}


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
    if count < 2:
        return group.order**count
    return _guard_count(group.order, count, CONSTANT_SECTIONS_MAX, "sections on one open", "components")


def constant_section_id(group: FiniteGroup, values) -> int:
    """Index of a component-value tuple in the constant sheaf's enumeration."""
    _guard_sections(group, len(values))
    for pos, v in enumerate(values):
        if not _is_index(v, group.order):
            raise MalformedTable(f"component value {pos} = {v!r} is not an element", position=pos)
    return int(_codes(np.asarray(values, dtype=np.intp), group.order))


def constant_section_tuple(group: FiniteGroup, count: int, idx: int) -> tuple[int, ...]:
    if not _is_index(idx, _guard_sections(group, count)):
        raise MalformedTable(f"section {idx!r} out of range for {count} components", section=idx)
    return tuple(_digits(idx, group.order, count).tolist())


def constant_group_sheaf(space: FiniteSpace, group: FiniteGroup) -> SheafOfGroups:
    """Locally constant functions into the group, with pointwise group law.

    G(U) is the set of functions from the components of U to the group,
    enumerated lexicographically; restriction refines components. A
    section is the mixed-radix code of its component values, so G(U) is
    G^c for c components, built once per c; G^1 is the group itself.

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
    powers = {
        k: group if k == 1 else build_group(n ** k, _codes(group.array[v[:, None], v[None, :]], n))
        for k, v in values.items()
    }
    restrict = {}
    for u, v in _proper_pairs(space):
        holder = [next(i for i, cu in enumerate(comps[u]) if cv[0] in cu) for cv in comps[v]]
        restrict[(u, v)] = tuple(_codes(values[len(comps[u])][:, holder], n).tolist())
    sets = SheafOfSets(space=space, sizes=tuple(sizes), restrict=restrict)
    return SheafOfGroups(sets=sets, groups=tuple(powers[len(c)] for c in comps))


def _table(arrays: dict, sizes, u: int, v: int) -> np.ndarray:
    """The restriction from open u to open v as an int array; the identity when u == v."""
    return np.arange(sizes[u]) if u == v else arrays[(u, v)]


def _structure(space: FiniteSpace, restrict, sizes) -> tuple[tuple[dict, ...], dict]:
    """Witnesses of missing, misshapen, ill-typed or out-of-range restriction tables, and the
    passing tables as read-only int arrays. The one reader of restriction tables, run once per
    sheaf by ``SheafOfSets._read``: it reads the proper inclusions only, never a key no check reads."""
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


def _action_structure_witnesses(action: SheafAction) -> tuple[list[dict], list]:
    """Witnesses of the action axioms per open and along restrictions, and the act tables as int arrays."""
    out, tables = [], []
    gs, fs = action.groups, action.sets
    space = fs.space
    for u in range(len(space.opens)):
        grp, size = gs.groups[u], fs.sizes[u]
        table = action._tables[u]
        if not isinstance(table, np.ndarray) and (len(table) != grp.order or any(len(r) != size for r in table)):
            out.append({"axiom": "action-table", "open": u})
            continue
        arr = _index_array(table, grp.order, size, size)
        if arr is None:
            out.append({"axiom": "action-range", "open": u})
            continue
        tables.append(arr)
        moved = _first(arr[grp.identity] != np.arange(size))
        if moved is not None:
            out.append({"axiom": "action-identity", "open": u, "x": moved[0]})
            continue
        if size:
            bad = _compatibility_witness(arr, grp.array, grp.generators)
            if bad is not None:
                g, h, x = bad
                out.append(
                    {"axiom": "action-compatibility", "open": u, "g": g, "h": h, "x": x}
                )
    if out:
        return out, tables
    # G's tables are read against its section counts, the action tables against its group orders
    tagged = (("groups", _group_orders(gs) + list(gs.sets._read[0])), ("sets", fs._read[0]))
    out = [{"axiom": w["axiom"], "sheaf": name, **w} for name, bad in tagged for w in bad]
    if out:
        return out, tables
    for u, v, a, s in _restriction_failures(space, tables, gs.sets._read[1], fs._read[1]):
        out.append({"axiom": "action-restriction", "u": u, "v": v, "g": a, "s": s})
    return out, tables


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
    witnesses, tables = _action_structure_witnesses(action)
    if witnesses:
        return failing("sheaf-torsor", witnesses)
    fs = action.sets
    space = fs.space
    for x, m in enumerate(space.minimal_open):
        if fs.sizes[m] < 1:
            witnesses.append({"axiom": "locally-nonempty", "point": x, "open": m})
    for m in sorted(set(space.minimal_open)):
        transports = _transports(tables[m])  # [s, t] -> the number of a in G(m) with a.s = t
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
    """Cover open indices, strictly: MalformedTable names a non-integer entry, CoverIncomplete missed points."""
    cover = tuple(cover)
    for pos, c in enumerate(cover):
        if not _is_int(c):
            raise MalformedTable(f"cover entry {pos} = {c!r} is not an integer", index=pos)
        if not 0 <= c < len(space.opens):
            raise UnknownOpen(f"cover open {c} out of range", open=int(c))
    cover = tuple(int(c) for c in cover)
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
        key = tuple(key)
        if len(key) != 2 or not all(map(_is_int, key)):
            raise MalformedTable(f"transition key {key!r} is not a pair of integers", key=str(key))
        i, j = (int(v) for v in key)
        if not 0 <= i < j < k:
            raise Mismatch(f"transition key ({i},{j}) must satisfy 0 <= i < j < {k}", i=i, j=j)
        w = space.intersection_index(cover[i], cover[j])
        if not _is_index(val, gs.sets.sizes[w]):
            raise MalformedTable(f"transition value {val!r} on pair ({i},{j}) is not a section", i=i, j=j)
        values[(i, j)] = int(val)
    for i in range(k):
        for j in range(i + 1, k):
            if (i, j) not in values:
                raise Mismatch(f"missing transition for pair ({i},{j})", i=i, j=j)
    # with a < b < c, g_ab * g_bc = g_ac is the triple identity in every ordering
    for a, b, c in itertools.combinations(range(k), 3):
        w_ab = space.intersection_index(cover[a], cover[b])
        w_bc = space.intersection_index(cover[b], cover[c])
        w_ac = space.intersection_index(cover[a], cover[c])
        w = space.intersection_index(w_ab, cover[c])
        lhs = gs.groups[w].mul(
            gs.restrict_section(w_ab, values[(a, b)], w),
            gs.restrict_section(w_bc, values[(b, c)], w),
        )
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
    torsor keeps G itself; gluing reads the tables G was decided on.
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
        total = 1
        for c in chart:
            total *= sizes[c]
        if total > FAMILY_CANDIDATE_MAX:
            raise TooLarge(f"{total} family candidates exceed {FAMILY_CANDIDATE_MAX}", size=total)
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
        if (found < 0).any():
            raise InternalError(f"a chart family on open {u} has no image family")
        found.flags.writeable = False
        return found

    restrict = {}
    for u, v in _proper_pairs(space):
        columns = [
            _table(arrays, sizes, charts[u][i], charts[v][i])[families[u][:, i]] for i in range(k)
        ]
        restrict[(u, v)] = tuple(locate(v, columns).tolist())
    sets = SheafOfSets(
        space=space, sizes=tuple(len(f) for f in families), restrict=restrict
    )

    act, act_arrays = [], []
    for u, chart in enumerate(charts):
        fams = families[u]
        columns = []
        for i, c in enumerate(chart):
            grp = gs.groups[c]
            inverse = np.asarray(grp.inverse)[_table(arrays, sizes, u, c)]
            columns.append(grp.array[fams[:, i], inverse[:, None]])  # [a, f] -> f_i * (a|c)^-1
        act_arrays.append(locate(u, columns))
        act.append(_tuples(act_arrays[-1], len(fams)))

    action = SheafAction(groups=gs, sets=sets, act=tuple(act))
    vars(action)["_tables"] = tuple(act_arrays)  # the tables act was made from
    return as_sheaf_torsor(action)


def extract_cocycle(torsor: SheafTorsor, cover, chosen) -> DescentDatum:
    """Transition data from chosen local sections: the unique g with g.s_j = s_i."""
    gs = torsor.groups
    fs = torsor.sets
    space = torsor.space
    cover = _cover(space, cover)
    chosen = tuple(chosen)
    if len(chosen) != len(cover):
        raise Mismatch(f"{len(chosen)} sections for {len(cover)} cover opens", got=len(chosen), expected=len(cover))
    for i, c in enumerate(cover):
        if fs.sizes[c] == 0:
            raise NoLocalSection(f"no local section over cover open {i}", index=i)
        if not _is_index(chosen[i], fs.sizes[c]):
            raise MalformedTable(f"chosen section {chosen[i]!r} at {i} is not a section", index=i)
    chosen = tuple(int(s) for s in chosen)
    transition = {}
    for i in range(len(cover)):
        for j in range(i + 1, len(cover)):
            w = space.intersection_index(cover[i], cover[j])
            si = fs.restrict_section(cover[i], chosen[i], w)
            sj = fs.restrict_section(cover[j], chosen[j], w)
            hits = [g for g in gs.sections(w) if torsor.action.act[w][g][sj] == si]
            if len(hits) != 1:
                raise InternalError(f"local transporter not unique on pair ({i},{j})")
            transition[(i, j)] = hits[0]
    return build_descent_datum(gs, cover, transition)


def lift_point_action(action: GroupAction) -> SheafAction:
    """Present an ordinary action as a sheaf action on the one-point space, for a group of any order;
    G is the group's constant sheaf there, built and decided once per group."""
    space, size = point_space(), action.set_size
    # one section on the empty open (index 0), ``size`` on the point (index 1)
    sets = SheafOfSets(space=space, sizes=(1, size), restrict={(1, 0): (0,) * size})
    return SheafAction(groups=constant_group_sheaf(space, action.group), sets=sets, act=(((0,),), action.act))


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
