"""Left actions of finite groups on finite point sets.

Covers orbits, stabilizers, freeness/transitivity decisions with
witnesses, torsor validation via the unique-transport oracle,
transporters, trivializations, basepoint change, the transported group
law, and normalization of right actions to left actions of the opposite
group.

Validation is exact: compatibility (g*h).x = g.(h.x) is decided by
Light's test over a generating set of at most log2(|G|) elements h, with
the full lexicographic scan giving the least witness on failure (see
``groups``). Tables are checked as int arrays, once each. An action
stores its table once, as a read-only int32 array; ``act`` is a
nested-tuple view of it, built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CompatibilityViolated,
    EmptySet,
    IdentityAxiomViolated,
    InternalError,
    NotFree,
    NotTransitive,
    PointOutOfRange,
    RightCompatibilityViolated,
    RightIdentityViolated,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    _compatibility_witness,
    _first,
    _frozen_array,
    _index_table,
    _is_index,
    _positions,
    _positive,
    _StoredTable,
    _transport,
    _tuples,
    opposite_group,
)
from .report import Report, passing


@dataclass(frozen=True, init=False, repr=False, eq=False)
class GroupAction(_StoredTable):
    """act[g][x] is the image of point x under element g.

    ``array`` holds the table, act[g][x] at ``array[g, x]``; ``act`` is its
    tuple view, built on first read. As for ``FiniteGroup``, a producer
    passes its validated ``array`` and a hand-built action passes ``act``,
    kept as given.
    """

    group: FiniteGroup
    set_size: int
    array: np.ndarray
    _compared = ("group", "set_size")

    def __init__(self, group: FiniteGroup, set_size: int, act=None, array=None):
        array = _frozen_array(act).reshape(group.order, set_size) if array is None else array
        self._set(group=group, set_size=set_size, array=array)
        if act is not None:
            vars(self)["act"] = act

    @cached_property
    def act(self) -> tuple[tuple[int, ...], ...]:
        return _tuples(self.array, self.set_size)


@dataclass(frozen=True)
class Torsor:
    """A validated free, transitive, nonempty action. Build via as_torsor."""

    action: GroupAction

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    @property
    def set_size(self) -> int:
        return self.action.set_size

    @property
    def act(self):
        return self.action.act


@dataclass(frozen=True)
class Trivialization:
    """Mutually inverse tables between the group and the point set at a basepoint."""

    torsor: Torsor
    basepoint: int
    to_points: tuple[int, ...]  # g -> g.x0
    to_group: tuple[int, ...]   # x -> the unique g with g.x0 = x


@dataclass(frozen=True)
class BasepointChange:
    element: int
    report: Report


def build_action(group: FiniteGroup, set_size: int, act) -> GroupAction:
    """Validate an action table exhaustively (identity and compatibility axioms)."""
    _positive(set_size, "set_size")
    arr = _index_table(act, group.order, set_size, set_size)
    moved = _first(arr[group.identity] != np.arange(set_size))
    if moved is not None:
        raise IdentityAxiomViolated(f"identity moves point {moved[0]}", x=moved[0])
    bad = _compatibility_witness(arr, group.array, group.generators)
    if bad is not None:
        g, h, x = bad
        raise CompatibilityViolated(
            f"(g*h).x != g.(h.x) at (g,h,x)=({g},{h},{x})", g=g, h=h, x=x
        )
    return GroupAction(group=group, set_size=set_size, array=arr)


def _check_point(action: GroupAction, x: int):
    if not _is_index(x, action.set_size):
        raise PointOutOfRange(f"point {x!r} out of range [0,{action.set_size})", point=x)


def orbit(action: GroupAction, x: int) -> tuple[int, ...]:
    """All points reachable from x, sorted ascending."""
    _check_point(action, x)
    return tuple(sorted(set(action.array[:, x].tolist())))  # a set: np.unique's first int32 call adds 1.4 MB of RSS


def stabilizer(action: GroupAction, x: int) -> tuple[int, ...]:
    """All elements fixing x; always contains the identity."""
    _check_point(action, x)
    return tuple(np.flatnonzero(action.array[:, x] == x).tolist())


def is_free(action: GroupAction):
    """(True, None) or (False, (g, x)) with the lexicographically least witness."""
    fixed = action.array == np.arange(action.set_size)
    fixed[action.group.identity] = False
    bad = _first(fixed)
    return (True, None) if bad is None else (False, bad)


def is_transitive(action: GroupAction):
    """(True, None) or (False, (x, y)) for points in distinct orbits."""
    reached = set(orbit(action, 0))
    missing = next((y for y in range(action.set_size) if y not in reached), None)
    return (True, None) if missing is None else (False, (0, missing))


def _transports(act: np.ndarray) -> np.ndarray:
    """[x, y] -> the number of g with g.x = y, for an action table act[g][x]."""
    n = act.shape[1]
    return np.bincount((np.arange(n) * n + act).ravel(), minlength=n * n).reshape(n, n)


def as_torsor(action: GroupAction) -> Torsor:
    """Validate nonempty + free + transitive, then re-verify by unique transport.

    The second pass is an independent oracle: for every pair (x,y) exactly
    one group element must carry x to y.
    """
    if action.set_size < 1:
        raise EmptySet("a torsor must have at least one point")
    free, wit = is_free(action)
    if not free:
        raise NotFree(f"element {wit[0]} fixes point {wit[1]}", g=wit[0], x=wit[1])
    trans, wit = is_transitive(action)
    if not trans:
        raise NotTransitive(
            f"points {wit[0]} and {wit[1]} lie in distinct orbits", x=wit[0], y=wit[1]
        )
    if not (_transports(action.array) == 1).all():
        raise InternalError("unique-transport oracle disagrees with the free/transitive checks")
    return Torsor(action=action)


def transporter(torsor: Torsor, x: int, y: int) -> int:
    """The unique g with g.x = y: the inverse of the trivialization g -> g.x at x, read at y."""
    _check_point(torsor.action, x)
    _check_point(torsor.action, y)
    return trivialization(torsor, x).to_group[y]


def trivialization(torsor: Torsor, x0: int) -> Trivialization:
    """Fill both direction tables g -> g.x0 and its inverse from one lookup; check bijectivity."""
    _check_point(torsor.action, x0)
    to_points = torsor.action.array[:, x0]
    to_group = _positions(to_points, torsor.set_size)
    if len(to_points) != torsor.set_size or (to_group < 0).any():
        raise InternalError("g -> g.x0 is not a bijection")
    return Trivialization(torsor, x0, tuple(to_points.tolist()), tuple(to_group.tolist()))


def basepoint_change(torsor: Torsor, x0: int, x1: int) -> BasepointChange:
    """h = tr(x0,x1), with an exhaustive check that g.x1 = (g*h).x0 for all g."""
    h = transporter(torsor, x0, x1)
    act = torsor.action.array
    bad = _first(act[:, x1] != act[torsor.group.array[:, h], x0])
    if bad is not None:
        raise InternalError(f"g.x1 != (g*h).x0 at g={bad[0]}")
    report = passing("basepoint-change", counts={"elements_checked": torsor.group.order})
    return BasepointChange(element=h, report=report)


def transported_group(torsor: Torsor, x0: int) -> FiniteGroup:
    """Carry the group law along the basepoint bijection g -> g.x0 (``_transport``); identity becomes x0."""
    out = _transport(torsor.group, trivialization(torsor, x0).to_group)
    if out.identity != x0:
        raise InternalError(f"transported identity is {out.identity}, not the basepoint {x0}")
    return out


def _right_compatibility_witness(right: np.ndarray, cayley: np.ndarray):
    """Least (x, g, h) with (x*g)*h != x*(g*h), scanning one point x at a time."""
    for x in range(len(right)):
        lhs = right[right[x]]     # [g,h] -> (x*g)*h
        rhs = right[x][cayley]    # [g,h] -> x*(g*h)
        bad = _first(lhs != rhs)
        if bad is not None:
            return x, *bad
    return None


def right_action_as_left(group: FiniteGroup, set_size: int, right_table) -> GroupAction:
    """Normalize a right action table (indexed [point][element]) to a left action.

    The result is a left action of opposite_group(group) with
    act[g][x] = right_table[x][g]; torsor status is preserved both ways.
    Right compatibility (x*g)*h = x*(g*h) is exactly compatibility of that
    left action, so build_action decides it once; only a failure pays for
    the scan that finds the least right witness.
    """
    right = _index_table(right_table, set_size, group.order, set_size)
    moved = _first(right[:, group.identity] != np.arange(set_size))
    if moved is not None:
        raise RightIdentityViolated(f"x*e != x at point {moved[0]}", x=moved[0])
    try:
        return build_action(opposite_group(group), set_size, right.T)
    except CompatibilityViolated:
        x, g, h = _right_compatibility_witness(right, group.array)
        raise RightCompatibilityViolated(
            f"(x*g)*h != x*(g*h) at (x,g,h)=({x},{g},{h})", x=x, g=g, h=h
        ) from None


def left_translation_action(group: FiniteGroup) -> GroupAction:
    """The group acting on itself by left multiplication."""
    # no second check: the identity row and compatibility are the group's identity and associativity
    return GroupAction(group=group, set_size=group.order, array=group.array)


def _regular_at(group: FiniteGroup, points) -> GroupAction:
    """The group acting on itself with element k renamed points[k] = k.x0, carried, not decided again."""
    points = np.asarray(points, dtype=np.int32)
    if not np.array_equal(np.sort(points), np.arange(group.order)):
        raise InternalError("the points of a regular action are not a renaming of the group")
    arr = points[group.array[:, np.argsort(points)]]  # act[g][points[k]] = points[g*k]
    arr.flags.writeable = False
    return GroupAction(group=group, set_size=group.order, array=arr)


def coset_action(group: FiniteGroup, sub: Subgroup) -> GroupAction:
    """Left multiplication on left cosets of the subgroup, indexed as in coset_list."""
    coset_of = np.empty(group.order, dtype=np.intp)
    cosets = coset_list(group, sub)
    for i, members in enumerate(cosets):
        coset_of[list(members)] = i
    return build_action(group, len(cosets), coset_of[group.array[:, [c[0] for c in cosets]]])


def coset_list(group: FiniteGroup, sub: Subgroup) -> list[tuple[int, ...]]:
    """The left cosets, sorted, in discovery order over ascending representatives.

    Coset 0 always contains the smallest element of the identity coset.
    """
    rows = np.sort(group.array[:, list(sub.members)], axis=1)  # g -> the sorted coset gH
    # ascending g, each coset read at its least member: the first g that meets it, as gH holds g
    return list(map(tuple, rows[rows[:, 0] == np.arange(group.order)].tolist()))
