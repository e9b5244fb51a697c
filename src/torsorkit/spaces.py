"""Finite topological spaces, read off their specialisation preorder.

Opens are stored as canonical sorted tuples, deduplicated and ordered by
size then lexicographically, so open indices are stable across runs.
Each point x has a least open U_x (``FiniteSpace.minimal``), and the
opens are exactly the unions of the U_x: a finite space is its
specialisation preorder, y <= x iff y in U_x (Alexandroff 1937; Barmak,
*Algebraic Topology of Finite Topological Spaces*, 2011). Generating a
topology, connectivity and the sheaf-level decisions all read the U_x.
Every table by proper inclusion follows the one order of ``inclusions``.
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
    _guard,
)
from .groups import _is_int, _iterable, _positive

MAX_OPENS = 64  # desk scale: sheaf functoriality checks every chain of three opens


@dataclass(frozen=True)
class FiniteSpace:
    num_points: int
    opens: tuple[tuple[int, ...], ...]

    @cached_property
    def open_index(self) -> dict:
        return {frozenset(o): i for i, o in enumerate(self.opens)}

    @cached_property
    def minimal(self) -> tuple[frozenset[int], ...]:
        """For each point x, U_x: the intersection of the opens that contain x. That is an open, and
        every other open containing x is larger, so it is the first in canonical order to contain x."""
        meets = {}
        for o in self.open_index:  # the opens in canonical order, so minimal_open finds each by identity
            for x in o:
                meets.setdefault(x, o)
        return tuple(meets[x] for x in range(self.num_points))

    @cached_property
    def minimal_open(self) -> tuple[int, ...]:
        """For each point, the index of its minimal open neighborhood."""
        return tuple(self.open_index[m] for m in self.minimal)

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each open, its connected components, as ``connected_components`` orders them."""
        return tuple(connected_components(self, o) for o in self.opens)

    @cached_property
    def subopens(self) -> tuple[tuple[int, ...], ...]:
        """For each open, the indices of the opens strictly inside it, ascending."""
        return tuple(tuple(v for v, m in enumerate(row) if m == v != u) for u, row in enumerate(self.meets))

    @cached_property
    def inclusions(self) -> dict:
        """Each proper inclusion v < u as the pair (u, v), mapped to its position in the one order every
        table by inclusion follows: u ascending, then v. The one list of a space's proper inclusions."""
        return {pair: i for i, pair in enumerate((u, v) for u, below in enumerate(self.subopens) for v in below)}

    @cached_property
    def meets(self) -> tuple[tuple[int, ...], ...]:
        """meets[u][v]: the index of the open u n v, for every pair of opens."""
        index, sets = self.open_index, list(self.open_index)
        return tuple(tuple(index[a & b] for b in sets) for a in sets)

    @cached_property
    def minimal_covers(self) -> tuple[tuple[int, ...], ...]:
        """For each open u, its minimal cover, which refines every cover of u: the U_x of its points x inside no
        larger U_y of its points (that adds nothing: compatibility fixes its section), open indices ascending."""
        members = [sorted({self.minimal_open[x] for x in o}) for o in self.opens]
        return tuple(tuple(m for m in ms if not any(self.meets[m][n] == m != n for n in ms)) for ms in members)

    def index_of(self, points) -> int:
        key = frozenset(_int_points(points, "open"))
        if key not in self.open_index:
            raise PointOutOfRange(f"{sorted(key)} is not an open of this space", points=sorted(key))
        return self.open_index[key]

    def intersection_index(self, u: int, v: int) -> int:
        return self.meets[u][v]

    @property
    def empty_index(self) -> int:
        return 0  # canonical order puts the empty open first

    @property
    def whole_index(self) -> int:
        return len(self.opens) - 1


def _int_points(points, where: str, num_points: int | None = None) -> tuple[int, ...]:
    """The distinct points ascending, as Python ints. MalformedTable names the first point that is not
    an integer, then, given ``num_points``, PointOutOfRange the least one outside range(num_points)."""
    points = list(_iterable(points, where))
    for p in points:
        if not _is_int(p):
            raise MalformedTable(f"{where}: point {p!r} is not an integer", point=p)
    points = sorted({int(p) for p in points})
    bad = [p for p in points if not 0 <= p < num_points] if num_points is not None else ()
    if bad:
        raise PointOutOfRange(f"point {bad[0]} out of range", point=bad[0])
    return tuple(points)


def _canonical(num_points: int, opens) -> tuple[int, list[tuple[int, ...]]]:
    """``num_points`` as an int and the distinct opens in canonical order. Checked in order: ``num_points``,
    every point an integer, then PointOutOfRange at the least bad point of the first open holding one."""
    num_points = _positive(num_points, "num_points")
    _iterable(opens, "opens")
    canon = sorted({_int_points(o, f"open {i}") for i, o in enumerate(opens)}, key=lambda o: (len(o), o))
    for o in canon:
        _int_points(o, "open", num_points)
    return num_points, canon


def build_space(num_points: int, opens) -> FiniteSpace:
    """Validate an explicit finite topology: empty, whole, unions, intersections."""
    num_points, canon = _canonical(num_points, opens)
    _guard(len(canon), 1, MAX_OPENS, "opens")
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
    return FiniteSpace(num_points=num_points, opens=tuple(canon))


def close_under_ops(num_points: int, generators) -> FiniteSpace:
    """The topology a family of opens generates: the unions of the meets U_x of the members of the family
    and the whole set that contain x, for each point x they hold (out of range too, for build_space). Listed
    one U_x at a time in canonical order, each step at most doubling them: past MAX_OPENS, TooLarge names the
    unions listed (at most 2 * MAX_OPENS), a lower bound, as an exact count is #P-complete (Provan & Ball 1983)."""
    num_points = _positive(num_points, "num_points")
    family = [frozenset(range(num_points))]
    family += [frozenset(_int_points(g, f"generator {i}")) for i, g in enumerate(_iterable(generators, "generators"))]
    # points in the same members share their meet: take it once per membership pattern
    patterns = {tuple(x in s for s in family) for x in frozenset().union(*family)}
    meets = {frozenset.intersection(*(s for s, inside in zip(family, p) if inside)) for p in patterns}
    canon = _canonical(num_points, meets)[1]  # the first open holding a point out of range is a meet
    opens = {frozenset()}
    for m in map(frozenset, canon):
        opens |= {o | m for o in opens}
        _guard(len(opens), 1, MAX_OPENS, "opens")
    return build_space(num_points, [tuple(sorted(o)) for o in opens])


def connected_components(space: FiniteSpace, subset) -> tuple[tuple[int, ...], ...]:
    """Components of the subspace topology, ordered by least point.

    Each grows from its least point along comparability inside the subset
    (y in U_x or x in U_y); in a finite space that closure is exactly
    topological connectivity.
    """
    points = _int_points(subset, "subset", space.num_points)
    minimal, left, out = space.minimal, set(points), []
    for x in points:
        if x in left:
            left.remove(x)
            component = [x]
            for y in component:  # the list grows as it is read: a breadth-first search
                near = [z for z in left if z in minimal[y] or y in minimal[z]]
                left.difference_update(near)
                component += near
            out.append(tuple(sorted(component)))
    return tuple(out)


def pseudocircle() -> FiniteSpace:
    """The 4-point weak-homotopy model of the circle.

    Points 0,1 are the open points; 2,3 are the closed points whose minimal
    neighborhoods {0,1,2} and {0,1,3} form the standard two-arc cover.
    Every call returns the same read-only space, so what it derives once
    (minimal opens, components) serves every caller.
    """
    return _PSEUDOCIRCLE


_PSEUDOCIRCLE = close_under_ops(4, [(0,), (1,), (0, 1, 2), (0, 1, 3)])


def point_space() -> FiniteSpace:
    return build_space(1, [(), (0,)])
