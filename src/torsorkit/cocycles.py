"""Abstract Cech 1-cocycles on a cover nerve.

A nerve records which pairwise and triple overlaps of an abstract cover
are nonempty; a cocycle assigns one group element to each edge (the
values for reversed edges and self-pairs are derived, so only the triple
identity carries content). Holonomy around closed paths is the
obstruction diagnostic on cycle nerves. Each producer hands its result
over unread, and ``_closed`` decides only the triple identity again.

Triviality, equivalence and classification rest on one propagation along one
breadth-first spanning forest, computed once per nerve and kept on it
(``Nerve.forest``, walked as ``Nerve.steps``): from the identity at each root,
h_v = g_vu * h_u down every tree edge (u, v), which then holds, so triviality is
decided on the non-tree edges alone (``Nerve.cotree``). Every cocycle is h . g0
for exactly one cochain h that is the identity at each root and one cocycle
g0 = h_i^-1 * g_ij * h_j that is the identity on every tree edge. A cocycle is
trivial when its g0 is the identity everywhere, and two cocycles are equivalent
when one root element per component conjugates the g0 of one into that of the
other (``_conjugates``). Classification lists the gauge-fixed g0 as the rows of
one array and labels each by its least root conjugate: one label is one orbit
under conjugation at the roots (for a nerve without triples that quotient is
Hom(pi_1, G)/G, Serre, *Cohomologie galoisienne*, I §5).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InternalError,
    MalformedTable,
    Mismatch,
    MissingEdgeValue,
    NotAPath,
    PathNotClosed,
    TripleViolation,
    TripleWithoutEdge,
    _guard,
)
from .groups import FiniteGroup, _codes, _digits, _entries, _first, _is_index, _iterable, _mapping, _positive

# Bounds |G|^edges, the edge assignments. equivalence_classes lists every valid one
# and finds them by gauge fixing, with less work than trying each assignment.
CLASS_ENUM_MAX = 4096


@dataclass(frozen=True)
class Nerve:
    """The opens, edges and triples of a cover; read-only, so what is derived from it is kept on it."""

    num_opens: int
    edges: tuple[tuple[int, int], ...]      # (i, j) with i < j, sorted
    triples: tuple[tuple[int, int, int], ...]  # (i, j, k) with i < j < k, sorted

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def forest(self) -> tuple[_Component, ...]:
        """The breadth-first spanning forest (``_spanning_forest``), found once per nerve."""
        return _spanning_forest(self)

    @cached_property
    def cotree(self) -> tuple[tuple[int, int], ...]:  # every component's non-tree edges, in edge order
        return tuple(sorted(e for comp in self.forest for e in comp.cotree))

    @cached_property
    def steps(self) -> tuple[tuple[int, int, tuple[int, int], bool], ...]:
        # (parent u, child v, the nerve's own edge tuple of {u, v}, v < u) per tree edge, in the forest's order
        key = {e: e for e in self.edges}
        return tuple((u, v, key[min(u, v), max(u, v)], v < u) for comp in self.forest for u, v in comp.tree)


@dataclass(frozen=True)
class NerveCocycle:
    """Stores only the i<j edge values; g_ji and g_ii are derived."""

    nerve: Nerve
    group: FiniteGroup
    g: dict

    def value(self, i: int, j: int) -> int:
        if i == j:
            return self.group.identity
        if i < j:
            return self.g[(i, j)]
        return self.group.inv(self.g[(j, i)])

    def edge_values(self) -> tuple[int, ...]:
        """Values in canonical edge order; the lexicographic sort key."""
        return tuple(self.g[e] for e in self.nerve.edges)


@dataclass(frozen=True)
class Cochain:
    nerve: Nerve
    group: FiniteGroup
    h: tuple[int, ...]  # one element per open


@dataclass(frozen=True)
class NotTrivial:
    violating_edge: tuple[int, int]


@dataclass(frozen=True)
class NotEquivalent:
    pass


@dataclass(frozen=True)
class CocycleClass:
    representative: NerveCocycle
    size: int
    members: tuple[tuple[int, ...], ...]  # edge-value tuples, lexicographically sorted


def _ints(values, size: int, what: str, **where) -> list[int]:
    """``values`` as ints, in order, else MalformedTable naming ``where`` (no bools, no floats)."""
    if not isinstance(values, (list, tuple)) and not isinstance(values, Iterable):  # one integer, or None
        raise MalformedTable(f"{what} {values!r} is not a sequence", **where)
    values = list(values)
    if len(values) != size:
        raise MalformedTable(f"{what} {values!r} needs {size} entries", **where)
    return _entries(values, what, **where)


def build_nerve(num_opens: int, edges, triples=()) -> Nerve:
    num_opens = _positive(num_opens, "num_opens")
    edge_set = set()
    for idx, e in enumerate(_iterable(edges, "edges")):
        i, j = sorted(_ints(e, 2, "edge", edge=idx))
        if i == j:
            raise MalformedTable(f"self-pair ({i},{j}) is not an edge", i=i, j=j)
        if not (0 <= i and j < num_opens):
            raise MalformedTable(f"edge ({i},{j}) out of range", i=i, j=j)
        edge_set.add((i, j))
    triple_set = set()
    for idx, t in enumerate(_iterable(triples, "triples")):
        i, j, k = sorted(_ints(t, 3, "triple", triple=idx))
        if len({i, j, k}) != 3:
            raise MalformedTable(f"triple ({i},{j},{k}) has repeats", i=i, j=j, k=k)
        if not (0 <= i and k < num_opens):
            raise MalformedTable(f"triple ({i},{j},{k}) out of range", i=i, j=j, k=k)
        for pair in ((i, j), (i, k), (j, k)):
            if pair not in edge_set:
                raise TripleWithoutEdge(
                    f"triple ({i},{j},{k}) lists no edge {pair}",
                    triple=[i, j, k],
                    pair=list(pair),
                )
        triple_set.add((i, j, k))
    return Nerve(
        num_opens=num_opens,
        edges=tuple(sorted(edge_set)),
        triples=tuple(sorted(triple_set)),
    )


def check_cocycle(nerve: Nerve, group: FiniteGroup, assignments) -> NerveCocycle:
    """Validate one group value per edge against the triple identity.

    Each listed triple i < j < k is checked once, as g_ij * g_jk = g_ik:
    with the derived inverses, its other five orderings are that identity
    rearranged, so it fails in some ordering exactly when it fails in
    this one.
    """
    edge_set = nerve.edge_set
    values = {}
    for key, val in _mapping(assignments, "assignments").items():
        plain = type(key) is tuple and len(key) == 2 and type(key[0]) is int and type(key[1]) is int
        try:  # a 2-tuple of plain ints, the common key, is kept as it is: not read again, not copied
            i, j = key = key if plain else tuple(_ints(key, 2, "edge key"))
        except MalformedTable as exc:  # the key is named only once its read fails
            raise MalformedTable(str(exc), edge=str(key), **exc.data) from None
        if i > j:
            raise Mismatch(f"edge key ({i},{j}) must satisfy i < j", i=i, j=j)
        if key not in edge_set:
            raise Mismatch(f"assignment on non-edge ({i},{j})", i=i, j=j)
        if not _is_index(val, group.order):
            raise MalformedTable(f"value {val!r} on edge ({i},{j}) is not an element", i=i, j=j)
        values[key] = int(val)
    for e in nerve.edges:
        if e not in values:
            raise MissingEdgeValue(f"no value on edge {e}", i=e[0], j=e[1])
    return _closed(nerve, group, values)


def _closed(nerve: Nerve, group: FiniteGroup, values: dict) -> NerveCocycle:
    """The cocycle of ``values``, one element per edge (i, j) with i < j, once every triple closes."""
    cay = group.cayley
    for i, j, k in nerve.triples:
        if cay[values[(i, j)]][values[(j, k)]] != values[(i, k)]:
            raise TripleViolation(f"g({i},{j})*g({j},{k}) != g({i},{k})", i=i, j=j, k=k)
    return NerveCocycle(nerve=nerve, group=group, g=values)


def make_cochain(nerve: Nerve, group: FiniteGroup, h) -> Cochain:
    # every entry an integer, then the length, then the range
    h = _entries(h, "cochain")
    if len(h) != nerve.num_opens:
        raise MalformedTable(
            f"cochain length {len(h)} != {nerve.num_opens} opens", got=len(h)
        )
    return Cochain(nerve=nerve, group=group, h=tuple(_entries(h, "cochain", group.order)))


def _require_same(c: NerveCocycle, other_nerve: Nerve, other_group: FiniteGroup):
    if c.nerve != other_nerve or c.group != other_group:
        raise Mismatch("nerve or group differs")


def apply_coboundary(c: NerveCocycle, h: Cochain) -> NerveCocycle:
    """g'_ij = h_i * g_ij * h_j^-1, its triples decided again."""
    _require_same(c, h.nerve, h.group)
    cay, inv, g, h = c.group.cayley, c.group.inverse, c.g, h.h
    return _closed(c.nerve, c.group, {(i, j): cay[cay[h[i]][g[(i, j)]]][inv[h[j]]] for i, j in c.nerve.edges})


@dataclass(frozen=True)
class _Component:
    root: int                          # the least open of the component
    opens: tuple[int, ...]             # breadth-first order from the root
    tree: tuple[tuple[int, int], ...]  # (parent, child) in breadth-first order
    cotree: tuple[tuple[int, int], ...]  # the other edges, in nerve edge order


def _spanning_forest(nerve: Nerve) -> tuple[_Component, ...]:
    """One breadth-first spanning tree per connected component, ascending neighbours.

    Components come in the order of their least opens. Only the opens on
    an edge are visited: an open on no edge would be a component with an
    empty tree, which constrains nothing, so the work follows the edges,
    not ``num_opens``.
    """
    adj = {}
    for i, j in nerve.edges:  # sorted edges leave every list ascending
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    comp_of, parent, found = {}, {}, []
    for root, _ in nerve.edges:  # sorted edges reach each component first at its least open
        if root in comp_of:
            continue
        comp = comp_of[root] = len(found)
        opens = [root]
        for u in opens:  # the list grows as it is read: a breadth-first search
            for v in adj[u]:
                if v not in comp_of:
                    comp_of[v], parent[v] = comp, u
                    opens.append(v)
        found.append(opens)
    # an edge is a tree edge when one end is the other's parent
    cotrees = [[] for _ in found]
    for i, j in nerve.edges:
        if parent.get(j) != i and parent.get(i) != j:
            cotrees[comp_of[i]].append((i, j))
    return tuple(
        _Component(opens[0], tuple(opens), tuple((parent[v], v) for v in opens[1:]), tuple(cotree))
        for opens, cotree in zip(found, cotrees)
    )


def _propagate(c: NerveCocycle) -> list[int]:
    """h with h = e at each root and g_uv = h_u * h_v^-1 on every tree edge (u, v), along ``Nerve.steps``."""
    cay, inv, g = c.group.cayley, c.group.inverse, c.g
    h = [c.group.identity] * c.nerve.num_opens
    for u, v, edge, below in c.nerve.steps:  # h_v = g_vu * h_u
        h[v] = cay[g[edge] if below else inv[g[edge]]][h[u]]
    return h


def find_trivialization(c: NerveCocycle):
    """A cochain h with g_ij = h_i * h_j^-1 on every edge, or NotTrivial at the first edge that fails.

    Per connected component, h is propagated from the smallest open index
    (set to the identity) along a breadth-first spanning tree, where it then
    holds, so only the non-tree edges (``Nerve.cotree``) are checked, in edge
    order; any other root choice differs by a global right translation.
    """
    cay, inv, g = c.group.cayley, c.group.inverse, c.g
    h = _propagate(c)
    for i, j in c.nerve.cotree:
        if g[(i, j)] != cay[h[i]][inv[h[j]]]:
            return NotTrivial(violating_edge=(i, j))
    return Cochain(c.nerve, c.group, tuple(h))


def _conjugates(group: FiniteGroup, f) -> np.ndarray:
    """``[r, ...] -> r * f * r^-1`` for every element r: the root conjugates of the values ``f``."""
    f = np.asarray(f, dtype=np.intp)  # an empty list reads as floats otherwise
    r_inv = group.inverse_array.reshape((-1,) + (1,) * f.ndim)
    return group.array[group.array[:, f], r_inv]


def are_equivalent(c1: NerveCocycle, c2: NerveCocycle):
    """A cochain h with c2_ij = h_i * c1_ij * h_j^-1, or NotEquivalent.

    With the propagations h1, h2 of c1, c2 on one forest, f = h_i^-1 *
    g_ij * h_j is the identity on tree edges, so the tree edges force
    h_v = h2_v * r * h1_v^-1 for one r per component, and the non-tree
    edges hold exactly when r * f1 * r^-1 = f2 on each. The first r in
    element order that passes wins.
    """
    _require_same(c1, c2.nerve, c2.group)
    grp = c1.group
    cay, inv, g1, g2 = grp.cayley, grp.inverse, c1.g, c2.g
    h1, h2 = _propagate(c1), _propagate(c2)
    h = [grp.identity] * c1.nerve.num_opens
    for comp in c1.nerve.forest:
        f1 = [cay[cay[inv[h1[i]]][g1[(i, j)]]][h1[j]] for i, j in comp.cotree]
        f2 = [cay[cay[inv[h2[i]]][g2[(i, j)]]][h2[j]] for i, j in comp.cotree]
        hit = _first((_conjugates(grp, f1) == f2).all(axis=1))
        if hit is None:
            return NotEquivalent()
        (r,) = hit
        for v in comp.opens:
            h[v] = cay[cay[h2[v]][r]][inv[h1[v]]]
    return Cochain(c1.nerve, grp, tuple(h))


def holonomy(c: NerveCocycle, cycle_path) -> int:
    """Ordered product of edge values along a closed path in the nerve."""
    path = list(_iterable(cycle_path, "path"))
    if not path:
        raise NotAPath("empty path")
    try:
        path = _entries(path, "path", c.nerve.num_opens)
    except MalformedTable as exc:  # renamed, naming the entry as given
        pos = exc.data["position"]
        raise NotAPath(f"path entry {pos} = {path[pos]!r} is not an open", position=pos) from None
    if path[0] != path[-1]:
        raise PathNotClosed(
            f"path starts at {path[0]} and ends at {path[-1]}",
            start=path[0],
            end=path[-1],
        )
    edge_set, cay, inv, g = c.nerve.edge_set, c.group.cayley, c.group.inverse, c.g
    acc = c.group.identity
    for a, b in zip(path, path[1:]):
        edge = (a, b) if a < b else (b, a)
        if a == b or edge not in edge_set:
            raise NotAPath(f"({a},{b}) is not an edge", i=a, j=b)
        acc = cay[acc][g[edge] if a < b else inv[g[edge]]]
    return acc


def equivalence_classes(nerve: Nerve, group: FiniteGroup) -> list[CocycleClass]:
    """Partition all valid cocycles into coboundary-equivalence classes.

    Gauge fixing on the spanning forest: the map (g0, h) -> h . g0 is a
    bijection from (valid cocycles that are the identity on tree edges)
    x (cochains that are the identity at every root) onto the valid
    cocycles. Each g0 is labelled by its least conjugate under one root
    element per component, so one label is one conjugation orbit, and an
    orbit times all root-fixed cochains is one class. Members are sorted;
    the representative is the least one, and classes come in the order of
    their representatives. Raises TooLarge when the |G|^edges candidates
    exceed CLASS_ENUM_MAX, which also bounds the work.
    """
    arr, n = group.array, group.order
    _guard(n, len(nerve.edges), CLASS_ENUM_MAX, "cocycle candidates", order=n, edges=len(nerve.edges))
    comps = nerve.forest
    pos = {edge: p for p, edge in enumerate(nerve.edges)}
    # conjugation at a root changes only its component's non-tree edges
    conj_positions = [[pos[x] for x in c.cotree] for c in comps if c.cotree]
    cotree = sum(conj_positions, [])

    # the gauge-fixed cocycles: the identity on tree edges and the digits of the row number off them,
    # kept where every triple closes (with i < j < k, g_ij * g_jk = g_ik in every ordering)
    g0 = np.full((n ** len(cotree), len(nerve.edges)), group.identity)
    g0[:, cotree] = _digits(np.arange(len(g0)), n, len(cotree))
    for i, j, k in nerve.triples:
        ij, jk, ik = pos[(i, j)], pos[(j, k)], pos[(i, k)]
        g0 = g0[arr[g0[:, ij], g0[:, jk]] == g0[:, ik]]
    # the least code of each component's conjugates, in mixed radix: below n^edges, one per orbit
    label = np.zeros(len(g0), dtype=np.intp)
    for positions in conj_positions:
        label = label * n ** len(positions) + _codes(_conjugates(group, g0[:, positions]), n).min(axis=0)

    # every cochain that is the identity at the roots, one row each and one column per open
    # on an edge (the others never enter a class): h_i and h_j^-1 per edge
    column = {v: p for p, v in enumerate(v for c in comps for v in c.opens)}
    free = [column[v] for c in comps for v in c.opens[1:]]
    h = np.full((n ** len(free), len(column)), group.identity)
    h[:, free] = _digits(np.arange(len(h)), n, len(free))
    tails, heads = np.array([(column[i], column[j]) for i, j in nerve.edges], dtype=np.intp).reshape(-1, 2).T
    left = h[:, tails]
    right = group.inverse_array[h[:, heads]]
    # h . g0 for every gauge-fixed row and every cochain, one member per row
    values = arr[arr[left, g0[:, None]], right].reshape(len(g0) * len(h), len(nerve.edges))
    code = _codes(values, n)
    # every code is below n^edges <= CLASS_ENUM_MAX, so counting each code decides it in that many cells
    if (np.bincount(code) > 1).any():
        raise InternalError("two coboundary classes share a cocycle")
    # sorted by label, then by code: both are below n^edges
    label = np.repeat(label, len(h))
    order = np.argsort(label * n ** len(nerve.edges) + code)
    label = label[order]
    # the columns of the sorted rows, zipped into member tuples; no columns zip to nothing
    columns = values[order].T.tolist()
    members = tuple(zip(*columns)) if columns else ((),) * len(values)
    cuts = [0, *(np.flatnonzero(label[1:] != label[:-1]) + 1).tolist(), len(members)]
    classes = []
    for a, b in zip(cuts, cuts[1:]):
        rep = _closed(nerve, group, dict(zip(nerve.edges, members[a])))
        classes.append(CocycleClass(representative=rep, size=b - a, members=members[a:b]))
    classes.sort(key=lambda c: c.members[0])
    return classes
