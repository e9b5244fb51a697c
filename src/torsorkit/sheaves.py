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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .actions import GroupAction, Torsor
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
from .groups import FiniteGroup, _compatibility_witness, build_group
from .report import Report, failing, passing
from .spaces import FiniteSpace, connected_components, point_space, pseudocircle

CONSTANT_SECTIONS_MAX = 512    # per-open section count for constant sheaves
FAMILY_CANDIDATE_MAX = 65536   # descent family candidates per open


@dataclass(frozen=True)
class SheafOfSets:
    """sections(U) = range(sizes[u]); restrict maps stored for proper inclusions."""

    space: FiniteSpace
    sizes: tuple[int, ...]
    restrict: dict

    def sections(self, u: int) -> range:
        return range(self.sizes[u])

    def restrict_section(self, u: int, s: int, v: int) -> int:
        return s if u == v else self.restrict[(u, v)][s]


@dataclass(frozen=True)
class SheafOfGroups:
    sets: SheafOfSets
    groups: tuple[FiniteGroup, ...]

    @property
    def space(self) -> FiniteSpace:
        return self.sets.space

    def sections(self, u: int) -> range:
        return self.sets.sections(u)

    def restrict_section(self, u: int, s: int, v: int) -> int:
        return self.sets.restrict_section(u, s, v)


@dataclass(frozen=True)
class SheafAction:
    """Per open U, a table act[u][g][s] for the action of G(U) on F(U)."""

    groups: SheafOfGroups
    sets: SheafOfSets
    act: tuple


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
    for u, ou in enumerate(space.opens):
        su = frozenset(ou)
        for v, ov in enumerate(space.opens):
            if v != u and frozenset(ov) <= su:
                yield u, v


def constant_section_id(group: FiniteGroup, values) -> int:
    """Index of a component-value tuple in the constant sheaf's enumeration."""
    idx = 0
    for v in values:
        idx = idx * group.order + v
    return idx


def constant_section_tuple(group: FiniteGroup, count: int, idx: int) -> tuple[int, ...]:
    vals = []
    for _ in range(count):
        vals.append(idx % group.order)
        idx //= group.order
    return tuple(reversed(vals))


def constant_group_sheaf(space: FiniteSpace, group: FiniteGroup) -> SheafOfGroups:
    """Locally constant functions into the group, with pointwise group law.

    G(U) is the set of functions from the components of U to the group,
    enumerated lexicographically; restriction refines components.
    """
    comps = [connected_components(space, o) for o in space.opens]
    sizes = []
    for c in comps:
        size = group.order ** len(c)
        if size > CONSTANT_SECTIONS_MAX:
            raise TooLarge(f"{size} sections on one open exceed {CONSTANT_SECTIONS_MAX}", size=size)
        sizes.append(size)
    groups = []
    for u, c in enumerate(comps):
        tuples = list(itertools.product(group.elements(), repeat=len(c)))
        table = [
            [
                constant_section_id(group, [group.mul(a, b) for a, b in zip(s, t)])
                for t in tuples
            ]
            for s in tuples
        ]
        groups.append(build_group(sizes[u], table))
    restrict = {}
    for u, v in _proper_pairs(space):
        comp_map = []
        for comp_v in comps[v]:
            holder = next(i for i, cu in enumerate(comps[u]) if comp_v[0] in cu)
            comp_map.append(holder)
        table = []
        for idx in range(sizes[u]):
            vals = constant_section_tuple(group, len(comps[u]), idx)
            table.append(constant_section_id(group, [vals[m] for m in comp_map]))
        restrict[(u, v)] = tuple(table)
    sets = SheafOfSets(space=space, sizes=tuple(sizes), restrict=restrict)
    return SheafOfGroups(sets=sets, groups=tuple(groups))


def _structural_witnesses(sheaf: SheafOfSets) -> list[dict]:
    out = []
    for u, v in _proper_pairs(sheaf.space):
        table = sheaf.restrict.get((u, v))
        if table is None or len(table) != sheaf.sizes[u]:
            out.append({"axiom": "restriction-table", "u": u, "v": v})
            continue
        if any(not 0 <= s < sheaf.sizes[v] for s in table):
            out.append({"axiom": "restriction-range", "u": u, "v": v})
    return out


def _minimal_cover(space: FiniteSpace, u: int) -> tuple[int, ...]:
    """The maximal minimal opens U_x for x in open u, ascending."""
    members = sorted({space.minimal_open[x] for x in space.opens[u]})
    sets = {m: frozenset(space.opens[m]) for m in members}
    # a U_x inside another member adds nothing: compatibility already fixes its section
    return tuple(m for m in members if not any(sets[m] < sets[n] for n in members))


def _compatible_families(sheaf: SheafOfSets, members: tuple[int, ...]):
    """Backtracking enumeration of families agreeing on pairwise overlaps."""
    space = sheaf.space
    inter = {
        (a, b): space.intersection_index(a, b)
        for a in members for b in members if a < b
    }

    def extend(assigned):
        pos = len(assigned)
        if pos == len(members):
            yield tuple(assigned)
            return
        m = members[pos]
        for s in sheaf.sections(m):
            ok = True
            for q, f in zip(members, assigned):
                a, b = min(q, m), max(q, m)
                w = inter[(a, b)]
                if sheaf.restrict_section(m, s, w) != sheaf.restrict_section(q, f, w):
                    ok = False
                    break
            if ok:
                yield from extend(assigned + [s])

    yield from extend([])


def is_sheaf(sheaf: SheafOfSets) -> Report:
    """Exact functoriality, locality, and gluing check on minimal covers, with witnesses."""
    witnesses = _structural_witnesses(sheaf)
    if witnesses:
        return failing("sheaf", witnesses)
    space = sheaf.space
    for u, v in _proper_pairs(space):
        for w, ow in enumerate(space.opens):
            if w in (u, v) or not frozenset(ow) <= frozenset(space.opens[v]):
                continue
            for s in sheaf.sections(u):
                via = sheaf.restrict_section(v, sheaf.restrict_section(u, s, v), w)
                if via != sheaf.restrict_section(u, s, w):
                    witnesses.append(
                        {"axiom": "functoriality", "u": u, "v": v, "w": w, "section": s}
                    )
                    break
    for u, target in enumerate(space.opens):
        if not target:
            if sheaf.sizes[u] != 1:
                witnesses.append(
                    {"axiom": "empty-sections", "open": u, "sections": sheaf.sizes[u]}
                )
            continue
        cover = _minimal_cover(space, u)
        for family in _compatible_families(sheaf, cover):
            gluers = [
                s for s in sheaf.sections(u)
                if all(
                    sheaf.restrict_section(u, s, m) == f
                    for m, f in zip(cover, family)
                )
            ]
            if len(gluers) != 1:
                witnesses.append(
                    {
                        "axiom": "gluing",
                        "open": u,
                        "cover": list(cover),
                        "family": list(family),
                        "gluings": len(gluers),
                    }
                )
                break
    if witnesses:
        return failing("sheaf", witnesses)
    return passing("sheaf", counts={"opens": len(space.opens)})


def is_sheaf_of_groups(gs: SheafOfGroups) -> Report:
    """Underlying sheaf axioms plus homomorphic restrictions."""
    base = is_sheaf(gs.sets)
    witnesses = list(base.witnesses)
    for u, grp in enumerate(gs.groups):
        if grp.order != gs.sets.sizes[u]:
            witnesses.append({"axiom": "group-order", "open": u})
    if not witnesses:
        for u, v in _proper_pairs(gs.space):
            grp_u, grp_v = gs.groups[u], gs.groups[v]
            done = False
            for s in gs.sections(u):
                for t in gs.sections(u):
                    lhs = gs.restrict_section(u, grp_u.mul(s, t), v)
                    rhs = grp_v.mul(
                        gs.restrict_section(u, s, v), gs.restrict_section(u, t, v)
                    )
                    if lhs != rhs:
                        witnesses.append(
                            {"axiom": "restriction-hom", "u": u, "v": v, "s": s, "t": t}
                        )
                        done = True
                        break
                if done:
                    break
    if witnesses:
        return failing("sheaf-of-groups", witnesses)
    return passing("sheaf-of-groups", counts={"opens": len(gs.space.opens)})


def _action_structure_witnesses(action: SheafAction) -> list[dict]:
    out = []
    gs, fs = action.groups, action.sets
    space = fs.space
    for u in range(len(space.opens)):
        grp = gs.groups[u]
        table = action.act[u]
        if len(table) != grp.order or any(len(r) != fs.sizes[u] for r in table):
            out.append({"axiom": "action-table", "open": u})
            continue
        if any(not 0 <= x < fs.sizes[u] for r in table for x in r):
            out.append({"axiom": "action-range", "open": u})
            continue
        bad_x = next(
            (x for x in range(fs.sizes[u]) if table[grp.identity][x] != x), None
        )
        if bad_x is not None:
            out.append({"axiom": "action-identity", "open": u, "x": bad_x})
            continue
        if fs.sizes[u]:
            bad = _compatibility_witness(
                np.array(table, dtype=np.int32), grp.array, grp.identity
            )
            if bad is not None:
                g, h, x = bad
                out.append(
                    {"axiom": "action-compatibility", "open": u, "g": g, "h": h, "x": x}
                )
    if out:
        return out
    for u, v in _proper_pairs(space):
        done = False
        for a in gs.sections(u):
            ra = gs.restrict_section(u, a, v)
            for s in fs.sections(u):
                lhs = fs.restrict_section(u, action.act[u][a][s], v)
                rhs = action.act[v][ra][fs.restrict_section(u, s, v)]
                if lhs != rhs:
                    out.append(
                        {"axiom": "action-restriction", "u": u, "v": v, "g": a, "s": s}
                    )
                    done = True
                    break
            if done:
                break
    return out


def is_sheaf_torsor(action: SheafAction) -> Report:
    """Decide the sheaf-torsor conditions on minimal open neighborhoods.

    Condition 1 (locally nonempty): F(m(x)) is inhabited for every point x.
    Condition 2 (locally uniquely transitive): for every open U, every pair
    of sections of F(U), and every m in the minimal cover of U, exactly one
    section of G(m) transports one restriction to the other. Minimal opens
    refine every cover of a finite space, so this decides the existential
    cover quantifiers exactly (a smaller minimal open is decided as U itself).
    """
    witnesses = _action_structure_witnesses(action)
    if witnesses:
        return failing("sheaf-torsor", witnesses)
    gs, fs = action.groups, action.sets
    space = fs.space
    for x in range(space.num_points):
        m = space.minimal_open[x]
        if fs.sizes[m] < 1:
            witnesses.append({"axiom": "locally-nonempty", "point": x, "open": m})
    for u, target in enumerate(space.opens):
        if not target:
            continue
        for m in _minimal_cover(space, u):
            table = np.array(action.act[m], dtype=np.int64).reshape(
                gs.sets.sizes[m], fs.sizes[m]
            )
            counts = {}
            bad = None
            for s in fs.sections(u):
                rs = fs.restrict_section(u, s, m)
                if rs not in counts:
                    counts[rs] = np.bincount(table[:, rs], minlength=fs.sizes[m])
                for t in fs.sections(u):
                    rt = fs.restrict_section(u, t, m)
                    c = int(counts[rs][rt])
                    if c != 1:
                        bad = {
                            "axiom": "local-transport",
                            "open": u,
                            "s": s,
                            "t": t,
                            "min_open": m,
                            "transports": c,
                        }
                        break
                if bad:
                    break
            if bad:
                witnesses.append(bad)
    if witnesses:
        return failing("sheaf-torsor", witnesses)
    counts = {"global_sections": fs.sizes[space.whole_index]}
    return passing("sheaf-torsor", counts=counts)


def as_sheaf_torsor(action: SheafAction) -> SheafTorsor:
    """Validate all sheaf and torsor axioms; raise with the report on failure."""
    for rep in (is_sheaf(action.sets), is_sheaf_of_groups(action.groups), is_sheaf_torsor(action)):
        if not rep.passed:
            raise NotASheafTorsor(
                f"{rep.check} failed: {rep.witnesses[0]}", report=rep
            )
    return SheafTorsor(action=action)


def sections(torsor: SheafTorsor, u: int) -> list[int]:
    """The stored section list over the open with index u."""
    space = torsor.space
    if not 0 <= u < len(space.opens):
        raise UnknownOpen(f"open index {u} out of range", open=u)
    return list(torsor.sets.sections(u))


def global_sections(torsor: SheafTorsor) -> list[int]:
    return sections(torsor, torsor.space.whole_index)


def build_descent_datum(gs: SheafOfGroups, cover, transition) -> DescentDatum:
    """Validate cover completeness and the sheaf-level cocycle identities."""
    space = gs.space
    cover = tuple(int(c) for c in cover)
    if not cover:
        raise CoverIncomplete("empty cover")
    for c in cover:
        if not 0 <= c < len(space.opens):
            raise UnknownOpen(f"cover open {c} out of range", open=c)
    union = frozenset(p for c in cover for p in space.opens[c])
    if union != frozenset(range(space.num_points)):
        raise CoverIncomplete(
            f"cover misses points {sorted(set(range(space.num_points)) - union)}"
        )
    k = len(cover)
    values = {}
    for key, val in dict(transition).items():
        i, j = (int(v) for v in key)
        if not 0 <= i < j < k:
            raise Mismatch(f"transition key ({i},{j}) must satisfy 0 <= i < j < {k}", i=i, j=j)
        w = space.intersection_index(cover[i], cover[j])
        if not 0 <= int(val) < gs.sets.sizes[w]:
            raise MalformedTable(f"transition value {val} out of range on pair ({i},{j})", i=i, j=j)
        values[(i, j)] = int(val)
    for i in range(k):
        for j in range(i + 1, k):
            if (i, j) not in values:
                raise Mismatch(f"missing transition for pair ({i},{j})", i=i, j=j)
    datum = DescentDatum(groups=gs, cover=cover, transition=values)
    for a, b, c in itertools.permutations(range(k), 3):
        w_ab = space.intersection_index(cover[a], cover[b])
        w_bc = space.intersection_index(cover[b], cover[c])
        w_ac = space.intersection_index(cover[a], cover[c])
        w = space.open_index[
            frozenset(space.opens[w_ab]) & frozenset(space.opens[cover[c]])
        ]
        grp = gs.groups[w]
        lhs = grp.mul(
            gs.restrict_section(w_ab, datum.value(a, b), w),
            gs.restrict_section(w_bc, datum.value(b, c), w),
        )
        rhs = gs.restrict_section(w_ac, datum.value(a, c), w)
        if lhs != rhs:
            raise TripleViolation(
                f"cocycle identity fails on cover triple ({a},{b},{c})", i=a, j=b, k=c
            )
    return datum


def glue_from_cocycle(datum: DescentDatum) -> SheafTorsor:
    """Reconstruct a sheaf torsor from transition data by descent.

    F(U) is the set of chart families (s_i in G(U n U_i)) satisfying
    s_i = g_ij . s_j on overlaps, with componentwise restriction; the
    group acts through the right of the chart coordinate by a^-1.
    """
    gs = datum.groups
    space = gs.space
    cover = datum.cover
    k = len(cover)
    charts = [
        [space.intersection_index(u, cover[i]) for i in range(k)]
        for u in range(len(space.opens))
    ]
    pair_open = {
        (i, j): space.intersection_index(cover[i], cover[j])
        for i in range(k) for j in range(k)
    }

    families = []
    fam_index = []
    for u in range(len(space.opens)):
        chart = charts[u]
        total = 1
        for c in chart:
            total *= gs.sets.sizes[c]
        if total > FAMILY_CANDIDATE_MAX:
            raise TooLarge(f"{total} family candidates exceed {FAMILY_CANDIDATE_MAX}", size=total)
        fams = []
        for combo in itertools.product(*(gs.sections(c) for c in chart)):
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    w = space.intersection_index(chart[i], chart[j])
                    g_ij = gs.restrict_section(pair_open[(i, j)], datum.value(i, j), w)
                    lhs = gs.restrict_section(chart[i], combo[i], w)
                    rhs = gs.groups[w].mul(
                        g_ij, gs.restrict_section(chart[j], combo[j], w)
                    )
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                fams.append(combo)
        families.append(fams)
        fam_index.append({f: n for n, f in enumerate(fams)})

    restrict = {}
    for u, v in _proper_pairs(space):
        table = []
        for fam in families[u]:
            image = tuple(
                gs.restrict_section(charts[u][i], fam[i], charts[v][i])
                for i in range(k)
            )
            table.append(fam_index[v][image])
        restrict[(u, v)] = tuple(table)
    sets = SheafOfSets(
        space=space, sizes=tuple(len(f) for f in families), restrict=restrict
    )

    act = []
    for u in range(len(space.opens)):
        chart = charts[u]
        rows = []
        for a in gs.sections(u):
            row = []
            for fam in families[u]:
                image = tuple(
                    gs.groups[chart[i]].mul(
                        fam[i],
                        gs.groups[chart[i]].inv(gs.restrict_section(u, a, chart[i])),
                    )
                    for i in range(k)
                )
                row.append(fam_index[u][image])
            rows.append(tuple(row))
        act.append(tuple(rows))

    action = SheafAction(groups=gs, sets=sets, act=tuple(act))
    return as_sheaf_torsor(action)


def extract_cocycle(torsor: SheafTorsor, cover, chosen) -> DescentDatum:
    """Transition data from chosen local sections: the unique g with g.s_j = s_i."""
    gs = torsor.groups
    fs = torsor.sets
    space = torsor.space
    cover = tuple(int(c) for c in cover)
    union = frozenset(p for c in cover for p in space.opens[c])
    if union != frozenset(range(space.num_points)):
        raise CoverIncomplete("chosen cover does not cover the space")
    chosen = tuple(int(s) for s in chosen)
    if len(chosen) != len(cover):
        raise Mismatch(f"{len(chosen)} sections for {len(cover)} cover opens")
    for i, c in enumerate(cover):
        if fs.sizes[c] == 0:
            raise NoLocalSection(f"no local section over cover open {i}", index=i)
        if not 0 <= chosen[i] < fs.sizes[c]:
            raise MalformedTable(f"chosen section {chosen[i]} out of range at {i}", index=i)
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
    """Present an ordinary action as a sheaf action on the one-point space."""
    space = point_space()
    f_sets = SheafOfSets(
        space=space,
        sizes=(1, action.set_size),
        restrict={(1, 0): tuple(0 for _ in range(action.set_size))},
    )
    g_sets = SheafOfSets(
        space=space,
        sizes=(1, action.group.order),
        restrict={(1, 0): tuple(0 for _ in range(action.group.order))},
    )
    gs = SheafOfGroups(sets=g_sets, groups=(build_group(1, [[0]]), action.group))
    return SheafAction(groups=gs, sets=f_sets, act=(((0,),), action.act))


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
