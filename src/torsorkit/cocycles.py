"""Abstract Cech 1-cocycles on a cover nerve.

A nerve records which pairwise and triple overlaps of an abstract cover
are nonempty; a cocycle assigns one group element to each edge (the
values for reversed edges and self-pairs are derived, so only the triple
identity carries content). Triviality and equivalence are decided by
spanning-tree propagation, with holonomy around closed paths as the
obstruction diagnostic on cycle nerves.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (
    InternalError,
    MalformedTable,
    Mismatch,
    MissingEdgeValue,
    NotAPath,
    PathNotClosed,
    TooLarge,
    TripleViolation,
    TripleWithoutEdge,
)
from .groups import FiniteGroup

CLASS_ENUM_MAX = 4096  # exhaustive classification is a test oracle, not a feature


@dataclass(frozen=True)
class Nerve:
    num_opens: int
    edges: tuple[tuple[int, int], ...]      # (i, j) with i < j, sorted
    triples: tuple[tuple[int, int, int], ...]  # (i, j, k) with i < j < k, sorted


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


def build_nerve(num_opens: int, edges, triples=()) -> Nerve:
    if num_opens < 1:
        raise MalformedTable(f"num_opens must be positive, got {num_opens}")
    edge_set = set()
    for e in edges:
        i, j = sorted(int(v) for v in e)
        if i == j:
            raise MalformedTable(f"self-pair ({i},{j}) is not an edge", i=i, j=j)
        if not (0 <= i and j < num_opens):
            raise MalformedTable(f"edge ({i},{j}) out of range", i=i, j=j)
        edge_set.add((i, j))
    triple_set = set()
    for t in triples:
        i, j, k = sorted(int(v) for v in t)
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

    The identity is checked in every ordering of every listed triple,
    using the derived inverses for reversed edges.
    """
    values = {}
    for key, val in dict(assignments).items():
        i, j = sorted(int(v) for v in key)
        if (i, j) not in set(nerve.edges):
            raise Mismatch(f"assignment on non-edge ({i},{j})", i=i, j=j)
        if not 0 <= int(val) < group.order:
            raise MalformedTable(f"value {val} out of range on edge ({i},{j})", i=i, j=j)
        values[(i, j)] = int(val)
    for e in nerve.edges:
        if e not in values:
            raise MissingEdgeValue(f"no value on edge {e}", i=e[0], j=e[1])
    cocycle = NerveCocycle(nerve=nerve, group=group, g=values)
    for t in nerve.triples:
        for a, b, c in itertools.permutations(t):
            lhs = group.mul(cocycle.value(a, b), cocycle.value(b, c))
            if lhs != cocycle.value(a, c):
                raise TripleViolation(
                    f"g({a},{b})*g({b},{c}) != g({a},{c})", i=a, j=b, k=c
                )
    return cocycle


def make_cochain(nerve: Nerve, group: FiniteGroup, h) -> Cochain:
    h = tuple(int(v) for v in h)
    if len(h) != nerve.num_opens:
        raise MalformedTable(
            f"cochain length {len(h)} != {nerve.num_opens} opens", got=len(h)
        )
    if any(not 0 <= v < group.order for v in h):
        raise MalformedTable("cochain value out of range")
    return Cochain(nerve=nerve, group=group, h=h)


def _require_same(c: NerveCocycle, other_nerve: Nerve, other_group: FiniteGroup):
    if c.nerve != other_nerve or c.group != other_group:
        raise Mismatch("nerve or group differs")


def apply_coboundary(c: NerveCocycle, h: Cochain) -> NerveCocycle:
    """g'_ij = h_i * g_ij * h_j^-1, re-validated as a cocycle."""
    _require_same(c, h.nerve, h.group)
    grp = c.group
    new = {
        (i, j): grp.mul(grp.mul(h.h[i], c.g[(i, j)]), grp.inv(h.h[j]))
        for (i, j) in c.nerve.edges
    }
    return check_cocycle(c.nerve, grp, new)


def _components(nerve: Nerve) -> list[list[int]]:
    adj = {i: [] for i in range(nerve.num_opens)}
    for i, j in nerve.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * nerve.num_opens
    comps = []
    for root in range(nerve.num_opens):
        if seen[root]:
            continue
        comp = []
        queue = deque([root])
        seen[root] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in sorted(adj[u]):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(comp)
    return comps


def _bfs_tree(nerve: Nerve, root: int) -> list[tuple[int, int]]:
    """Tree edges (parent, child) in breadth-first order, ascending neighbors."""
    adj = {i: [] for i in range(nerve.num_opens)}
    for i, j in nerve.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {root}
    order = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                order.append((u, v))
                queue.append(v)
    return order


def find_trivialization(c: NerveCocycle):
    """A cochain h with g_ij = h_i * h_j^-1 on every edge, or NotTrivial.

    Per connected component, h is propagated from the smallest open index
    (set to the identity) along a breadth-first spanning tree, then every
    non-tree edge is verified; any other root choice differs by a global
    right translation, which does not affect solvability.
    """
    grp = c.group
    h = [grp.identity] * c.nerve.num_opens
    for comp in _components(c.nerve):
        root = comp[0]
        h[root] = grp.identity
        for u, v in _bfs_tree(c.nerve, root):
            h[v] = grp.mul(c.value(v, u), h[u])
    for i, j in c.nerve.edges:
        if c.g[(i, j)] != grp.mul(h[i], grp.inv(h[j])):
            return NotTrivial(violating_edge=(i, j))
    return make_cochain(c.nerve, grp, h)


def are_equivalent(c1: NerveCocycle, c2: NerveCocycle):
    """A cochain h with c2_ij = h_i * c1_ij * h_j^-1, or NotEquivalent.

    Propagation along a spanning tree per component, with the root value
    enumerated over all group elements; the first witness wins.
    """
    _require_same(c1, c2.nerve, c2.group)
    grp = c1.group
    h = [grp.identity] * c1.nerve.num_opens
    for comp in _components(c1.nerve):
        root = comp[0]
        tree = _bfs_tree(c1.nerve, root)
        comp_edges = [
            (i, j) for (i, j) in c1.nerve.edges if i in comp
        ]
        found = False
        for r in grp.elements():
            h[root] = r
            for u, v in tree:
                # solve c2(u,v) = h_u * c1(u,v) * h_v^-1 for h_v
                h[v] = grp.mul(
                    grp.mul(c2.value(v, u), h[u]), c1.value(u, v)
                )
            if all(
                c2.g[(i, j)] == grp.mul(grp.mul(h[i], c1.g[(i, j)]), grp.inv(h[j]))
                for (i, j) in comp_edges
            ):
                found = True
                break
        if not found:
            return NotEquivalent()
    return make_cochain(c1.nerve, grp, h)


def holonomy(c: NerveCocycle, cycle_path) -> int:
    """Ordered product of edge values along a closed path in the nerve."""
    path = [int(v) for v in cycle_path]
    if not path:
        raise NotAPath("empty path")
    if any(not 0 <= v < c.nerve.num_opens for v in path):
        raise NotAPath("path index out of range")
    if path[0] != path[-1]:
        raise PathNotClosed(
            f"path starts at {path[0]} and ends at {path[-1]}",
            start=path[0],
            end=path[-1],
        )
    edge_set = set(c.nerve.edges)
    acc = c.group.identity
    for a, b in zip(path, path[1:]):
        if a == b or tuple(sorted((a, b))) not in edge_set:
            raise NotAPath(f"({a},{b}) is not an edge", i=a, j=b)
        acc = c.group.mul(acc, c.value(a, b))
    return acc


def all_cochains(nerve: Nerve, group: FiniteGroup):
    """Every cochain, identity outside edge-incident opens (others act trivially)."""
    incident = sorted({i for e in nerve.edges for i in e})
    base = [group.identity] * nerve.num_opens
    for combo in itertools.product(group.elements(), repeat=len(incident)):
        h = list(base)
        for pos, val in zip(incident, combo):
            h[pos] = val
        yield make_cochain(nerve, group, h)


def enumerate_cocycles(nerve: Nerve, group: FiniteGroup):
    """All valid cocycles in lexicographic edge-value order."""
    total = group.order ** len(nerve.edges)
    if total > CLASS_ENUM_MAX:
        raise TooLarge(f"{total} cocycle candidates exceed {CLASS_ENUM_MAX}", size=total)
    out = []
    for combo in itertools.product(group.elements(), repeat=len(nerve.edges)):
        assignment = dict(zip(nerve.edges, combo))
        try:
            out.append(check_cocycle(nerve, group, assignment))
        except TripleViolation:
            continue
    return out


def equivalence_classes(nerve: Nerve, group: FiniteGroup) -> list[CocycleClass]:
    """Partition all valid cocycles into coboundary-equivalence classes.

    Classes are found by closing each unseen cocycle under the full
    cochain action; representatives are lexicographically least.
    """
    cocycles = enumerate_cocycles(nerve, group)
    valid = {c.edge_values() for c in cocycles}
    seen = set()
    classes = []
    cochains = list(all_cochains(nerve, group))
    for c in cocycles:
        key = c.edge_values()
        if key in seen:
            continue
        orbit = {apply_coboundary(c, h).edge_values() for h in cochains}
        if not (orbit <= valid and key in orbit):
            raise InternalError("a coboundary orbit leaves the valid cocycles")
        seen.update(orbit)
        classes.append(
            CocycleClass(
                representative=c,
                size=len(orbit),
                members=tuple(sorted(orbit)),
            )
        )
    return classes
