"""Finite topological spaces stored as explicit open-set lists.

Opens are canonical sorted tuples, deduplicated and ordered by size then
lexicographically, so open indices are stable across runs. Every point
has a minimal open neighborhood (the intersection of all opens
containing it), which drives both connectivity and the sheaf-level
decision procedures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    MalformedTable,
    MissingEmpty,
    MissingWhole,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PointOutOfRange,
    TooLarge,
)
from .groups import _is_int

MAX_OPENS = 64  # desk scale: sheaf functoriality checks every chain of three opens


@dataclass(frozen=True)
class FiniteSpace:
    num_points: int
    opens: tuple[tuple[int, ...], ...]

    @cached_property
    def open_index(self) -> dict:
        return {frozenset(o): i for i, o in enumerate(self.opens)}

    @cached_property
    def minimal_open(self) -> tuple[int, ...]:
        """For each point, the index of its minimal open neighborhood."""
        out = []
        for x in range(self.num_points):
            containing = [set(o) for o in self.opens if x in o]
            meet = frozenset(set.intersection(*containing))
            out.append(self.open_index[meet])
        return tuple(out)

    @cached_property
    def subopens(self) -> tuple[tuple[int, ...], ...]:
        """For each open, the indices of the opens strictly inside it, ascending."""
        sets = [frozenset(o) for o in self.opens]
        return tuple(tuple(v for v, ov in enumerate(sets) if ov < ou) for ou in sets)

    def index_of(self, points) -> int:
        key = frozenset(points)
        if key not in self.open_index:
            raise PointOutOfRange(f"{sorted(key)} is not an open of this space")
        return self.open_index[key]

    def intersection_index(self, u: int, v: int) -> int:
        return self.open_index[frozenset(self.opens[u]) & frozenset(self.opens[v])]

    @property
    def empty_index(self) -> int:
        return 0  # canonical order puts the empty open first

    @property
    def whole_index(self) -> int:
        return len(self.opens) - 1


def _int_points(points, where: str) -> set[int]:
    """The points as Python ints; MalformedTable names the first one that is not an integer."""
    points = list(points)
    for p in points:
        if not _is_int(p):
            raise MalformedTable(f"{where}: point {p!r} is not an integer", point=p)
    return {int(p) for p in points}


def _canonical(opens) -> list[tuple[int, ...]]:
    dedup = {tuple(sorted(_int_points(o, f"open {i}"))) for i, o in enumerate(opens)}
    return sorted(dedup, key=lambda o: (len(o), o))


def build_space(num_points: int, opens) -> FiniteSpace:
    """Validate an explicit finite topology: empty, whole, unions, intersections."""
    if num_points < 1:
        raise MalformedTable(f"num_points must be positive, got {num_points}")
    canon = _canonical(opens)
    for o in canon:
        for p in o:
            if not 0 <= p < num_points:
                raise PointOutOfRange(f"point {p} out of range", point=p)
    if len(canon) > MAX_OPENS:
        raise TooLarge(f"{len(canon)} opens exceed {MAX_OPENS}", size=len(canon))
    present = {frozenset(o) for o in canon}
    if frozenset() not in present:
        raise MissingEmpty("the empty set is not an open")
    # every open lies in range(num_points), so only the whole set has num_points points
    if max(map(len, present)) != num_points:
        raise MissingWhole("the whole point set is not an open")
    for i, a in enumerate(canon):
        for b in canon[i + 1 :]:
            if frozenset(a) | frozenset(b) not in present:
                raise NotClosedUnderUnion(
                    f"union of {list(a)} and {list(b)} is missing", a=list(a), b=list(b)
                )
            if frozenset(a) & frozenset(b) not in present:
                raise NotClosedUnderIntersection(
                    f"intersection of {list(a)} and {list(b)} is missing",
                    a=list(a),
                    b=list(b),
                )
    space = FiniteSpace(num_points=num_points, opens=tuple(canon))
    space.minimal_open  # force the cache; existence is guaranteed by closure
    return space


def close_under_ops(num_points: int, generators) -> FiniteSpace:
    """Generate a topology from a family of opens by closing under union/intersection."""
    sets = {frozenset(), frozenset(range(num_points))}
    sets.update(frozenset(_int_points(g, f"generator {i}")) for i, g in enumerate(generators))
    changed = True
    while changed:
        changed = False
        current = list(sets)
        for i, a in enumerate(current):
            for b in current[i + 1 :]:
                for c in (a | b, a & b):
                    if c not in sets:
                        sets.add(c)
                        changed = True
    return build_space(num_points, [tuple(sorted(s)) for s in sets])


def connected_components(space: FiniteSpace, subset) -> tuple[tuple[int, ...], ...]:
    """Components of the subspace topology, ordered by least point.

    Two points are merged when both lie in a common minimal open of the
    subspace; in a finite space this union-find closure is exactly
    topological connectivity.
    """
    points = sorted(_int_points(subset, "subset"))
    for p in points:
        if not 0 <= p < space.num_points:
            raise PointOutOfRange(f"point {p} out of range", point=p)
    parent = {p: p for p in points}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    member_set = set(points)
    for x in points:
        m_sub = [p for p in space.opens[space.minimal_open[x]] if p in member_set]
        for y in m_sub:
            union(x, y)
    groups: dict[int, list[int]] = {}
    for p in points:
        groups.setdefault(find(p), []).append(p)
    return tuple(tuple(sorted(groups[r])) for r in sorted(groups))


def pseudocircle() -> FiniteSpace:
    """The 4-point weak-homotopy model of the circle.

    Points 0,1 are the open points; 2,3 are the closed points whose minimal
    neighborhoods {0,1,2} and {0,1,3} form the standard two-arc cover.
    """
    return close_under_ops(4, [(0,), (1,), (0, 1, 2), (0, 1, 3)])


def point_space() -> FiniteSpace:
    return build_space(1, [(), (0,)])
