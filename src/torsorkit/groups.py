"""Finite groups as explicit Cayley tables, validated exhaustively.

Elements are dense indices 0..order-1; cayley[g][h] is the product g*h
(row acts on the left). Names exist only in pretty-printing, never in
the core data. A group stores its table once, as a read-only int32
array; ``cayley`` is a nested-tuple view of it, built on first read.
Every table a caller passes in, to ``build_group`` or to a class under
either of its keywords, is read once, when its object is built, by one
strict reader (``_index_table``) into a read-only int32 copy: a bad row
or cell raises MalformedTable naming its place, and nothing is cast or
kept as given. The reader gates the cell types of each row, packs the
cells into one int32 array and checks their range on it; on any fault
a row-major scan names the witness. A library producer hands over its
fresh arrays, and the identity and inverses it derived, through
``_StoredTable._unread``, which reads nothing.

Validation is exact, never sampled. Associativity is decided by Light's
test (Clifford & Preston, *The Algebraic Theory of Semigroups* I, §1.2):
call a *good* when (x*a)*y = x*(a*y) for all x, y; products of good
elements are good, so the table is associative once every element of a
generating set is good. The generating set is found greedily by closure
under the whole table, which assumes nothing about associativity, and a
group of order n needs at most log2(n) such generators, so the check
costs O(n^2 log n) instead of O(n^3). The same argument, with h in
place of a, reduces action compatibility (g*h).x = g.(h.x) to generators
h. The argument holds in any table with an identity, so the test runs at
every order; when it fails, or the table needs more generators than a
group could, the full lexicographic scan runs, so every reported witness
is the least one. A group keeps its generating set (``FiniteGroup.generators``),
so every action of it is decided without searching again.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InternalError,
    MalformedTable,
    MissingIdentity,
    MissingInverse,
    NoIdentity,
    NoInverse,
    NonAssociative,
    NotClosed,
    UnknownName,
)

def _frozen_array(rows) -> np.ndarray:
    arr = np.array(rows, dtype=np.int32)
    arr.flags.writeable = False
    return arr


def _arrays_in(stored) -> list:
    """The arrays of a stored form: one array, or the values of a dict or tuple of them."""
    if isinstance(stored, np.ndarray):
        return [stored]
    return list(stored.values() if isinstance(stored, dict) else stored)


def _same(a, b) -> bool:
    """Equality of two stored forms of one class: a dict's keys in order, then the arrays by shape and value."""
    if isinstance(a, dict) and list(a) != list(b):
        return False
    a, b = _arrays_in(a), _arrays_in(b)
    return len(a) == len(b) and all(map(np.array_equal, a, b))


class _StoredTable:
    """Tables stored once, as read-only int32 arrays in the attribute named by ``_stored`` (one array,
    or a dict or tuple of them), with nested-tuple views that a subclass builds on first read.
    Equality and hashing read the fields named by ``_compared`` and the stored form, never a view;
    ``repr`` prints the same, through numpy's repr; pickle and deepcopy keep the arrays read-only."""

    _compared: tuple[str, ...] = ()
    _stored = "array"

    @classmethod
    def _unread(cls, *values):
        """The producers' door: a library producer's fields, in the order of ``_set``, its arrays fresh,
        read-only, int32 and in range, kept as handed with nothing read. A caller's door is ``__init__``."""
        table = object.__new__(cls)
        table._set(*values)
        return table

    def _set(self, *values, **derived) -> None:
        """Store ``values``, the fields ``_compared`` and ``_stored`` name, in that order, then ``derived``."""
        # as a dataclass __init__ does: filling vars(self) first leaves an unshared instance dict, which
        # slows every later method call on the object (FiniteGroup.mul took half as long again)
        for name, value in (*zip((*self._compared, self._stored), values), *derived.items()):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stored = self._stored
        return self is other or self._key() == other._key() and _same(getattr(self, stored), getattr(other, stored))

    def __hash__(self):
        return hash((*self._key(), *(arr.tobytes() for arr in _arrays_in(getattr(self, self._stored)))))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in (*self._compared, self._stored))
        return f"{type(self).__name__}({shown})"

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        for arr in (*_arrays_in(state.get(self._stored)), *state.values()):  # stored, then cached arrays
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False  # numpy restores it writable


@dataclass(frozen=True, init=False, repr=False, eq=False)
class FiniteGroup(_StoredTable):
    """A group of given order with precomputed identity and inverse tables.

    ``array`` holds the table, cayley[g][h] at ``array[g, h]``; ``cayley`` is its tuple view, for the
    Python loops that read one cell at a time, and ``inverse_array`` is ``inverse`` as a read-only int32
    array, for the gathers. A caller's table, under ``cayley`` or ``array`` (as ``dataclasses.replace``
    passes it), is read strictly by ``_index_table`` into a read-only int32 copy (its shape and the type and
    range of every cell, not the axioms), then its ``identity`` and its ``inverse``, read as a row of
    ``order`` indices by the same reader, are decided by O(n) gathers: e * g = g * e = g and
    g * inverse[g] = inverse[g] * g = e. A library producer hands over its table, identity and inverses
    through ``_unread`` instead. ``constant_sheaves`` holds the decided constant sheaves of this group by
    space, filled by ``sheaves.constant_group_sheaf``; it dies with it.
    """

    order: int
    identity: int
    inverse: tuple[int, ...]
    array: np.ndarray
    inverse_array: np.ndarray = field(init=False)
    constant_sheaves: dict = field(init=False)
    _compared = ("order", "identity", "inverse")

    def __init__(self, order: int, cayley=None, identity=None, inverse=None, array=None):
        order = _integer(order, "order")
        array = _index_table(array if cayley is None else cayley, order, order, order, "cayley: ")
        if not _is_index(identity, order):
            raise MalformedTable(f"identity {identity!r} is not an element in [0, {order})", identity=identity)
        inv = _index_table(inverse, None, order, order, "inverse: ", table="inverse")
        points = np.arange(order)
        unit = (array[identity] != points) | (array[:, identity] != points)
        if (bad := unit | (array[points, inv] != identity) | (array[inv, points] != identity)).any():
            name, (g,) = ("identity", _first(unit)) if unit.any() else ("inverse", _first(bad))
            raise MalformedTable(f"{name} is not two-sided at element {g}", table=name, position=g)
        self._set(order, int(identity), inv, array)

    def _set(self, order, identity, inverse, array) -> None:
        # the inverses twice over: the tuple compared and read by inv(), the array the gathers read
        super()._set(order, identity, tuple(inverse.tolist()), array, inverse_array=inverse, constant_sheaves={})

    @cached_property
    def cayley(self) -> tuple[tuple[int, ...], ...]:
        return _tuples(self.array, self.order)

    @cached_property
    def generators(self) -> tuple[int, ...] | None:
        """The generating set of Light's test (``_generators``), found once per group;
        ``build_group`` hands over the set it found while deciding associativity."""
        return _generators(self.array, self.identity)

    def mul(self, g: int, h: int) -> int:
        return self.cayley[g][h]

    def inv(self, g: int) -> int:
        return self.inverse[g]

    def elements(self) -> range:
        return range(self.order)


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


def _first(bad: np.ndarray):
    """Row-major index tuple of the first True cell, or None: the least witness."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def _is_int(v) -> bool:
    # a plain int answers on the first test: most callers pass plain ints
    return type(v) is int or isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_index(v, bound: int) -> bool:
    return _is_int(v) and 0 <= v < bound


def _integer(value, name: str) -> int:
    """A caller's count as a Python int: it must be an int, not a bool, and MalformedTable names it by
    ``name``. Its value is left to the reads that follow, which name their own witness
    (``FiniteGroup(0, ...)`` its identity)."""
    if not _is_int(value):
        raise MalformedTable(f"{name} must be an integer, got {value!r}", **{name: value})
    return int(value)


def _positive(value, name: str) -> int:
    """A caller's count as a Python int: it must be a positive int, and MalformedTable names it by ``name``."""
    if not _is_int(value) or value < 1:
        raise MalformedTable(f"{name} must be a positive integer, got {value!r}", **{name: value})
    return int(value)


def _entries(values, what: str, bound=None, **where) -> list[int]:
    """The entries of a caller's sequence as Python ints, in order; the one reader of caller integers.

    Plain ints in range pass at C speed (their types, then min and max or per-entry bounds); else a scan
    converts other integers or names, in MalformedTable, the ``position`` of the first entry that is not an
    int or not in [0, bound), given ``bound``: one int, or a list or tuple of one per entry. ``where`` names
    the place of the sequence itself, such as its ``row`` in a table.
    """
    values, each = list(_iterable(values, what, **where)), isinstance(bound, (list, tuple))
    if set(map(type, values)) <= {int} and (bound is None or not values or min(values) >= 0 and (
            all(map(operator.lt, values, bound)) if each else max(values) < bound)):
        return values
    out = []
    for pos, v in enumerate(values):
        b = bound[pos] if each else bound
        if not _is_int(v) or b is not None and not 0 <= v < b:
            span = "" if b is None else f" in [0, {b})"
            raise MalformedTable(f"{what}: entry {pos} = {v!r} is not an integer{span}", **where, position=pos)
        out.append(int(v))
    return out


def _iterable(values, what: str, **where):
    """A caller's sequence, refused before anything loops over it: MalformedTable names ``where``, or else
    ``what`` as the ``table``, where a value that is no iterable would raise a bare TypeError."""
    if not isinstance(values, Iterable):
        raise MalformedTable(f"{what}: {values!r} is not a sequence", **(where or {"table": what}))
    return values


def _mapping(pairs, what: str) -> dict:
    """A caller's mapping, or sequence of key-value pairs, as a dict: MalformedTable names ``what`` as the
    ``table`` where ``dict`` would raise a bare TypeError or ValueError."""
    try:
        return dict(pairs)
    except (TypeError, ValueError):
        raise MalformedTable(f"{what}: {pairs!r} is no mapping", table=what) from None


def _is_sequence(obj) -> bool:
    # a list or tuple answers on the first test; a str or bytes, like a 0-d array, holds no cells
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray) and obj.ndim:
        return True
    return isinstance(obj, Sequence) and not isinstance(obj, (str, bytes))


def _index_table(rows, height, width: int, bound: int, prefix: str = "", **where) -> np.ndarray:
    """A caller's table of indices in [0, bound) as a read-only int32 array: ``height`` rows of ``width``
    cells, or one row of ``width`` cells when ``height`` is None. The one reader of a caller's table.

    One type gate per row checks the cell types at C speed (a subclass of int or np.integer, not bool),
    then ``struct`` packs the cells straight into the int32 array, and the range is checked on it: numpy's
    conversion alone would read True or a 0-d array as 1, and ``struct`` alone any object with
    ``__index__``. On any bad row or cell the row-major scan runs and raises MalformedTable at the first
    one, named by ``where``, its ``row`` (in a table of rows) and its ``position``, so the witness does
    not depend on the fast path.
    Indices fit in int32, which halves the memory of every stored table and check buffer.
    """
    shape = (width,) if height is None else (height, width)
    arr = rows if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.shape == shape else None
    if arr is None and _is_sequence(rows) and len(rows) == shape[0]:
        as_rows = [rows] if height is None else rows
        if height is None or all(_is_sequence(r) and len(r) == width for r in rows):
            types = set().union(*[map(type, r) for r in as_rows])
            if all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
                cells = np.empty(shape, np.int32)
                with contextlib.suppress(struct.error):  # a cell past int32 is out of range: the scan names it
                    pack = struct.Struct(f"{width}i").pack_into
                    for i, row in enumerate(as_rows):
                        pack(cells, 4 * width * i, *row)
                    arr = cells
    if arr is not None and not (arr.size and (arr.min() < 0 or arr.max() >= bound)):
        arr = np.array(arr, dtype=np.int32, order="C") if arr is rows else arr  # a caller's array is copied
        arr.flags.writeable = False
        return arr
    if not _is_sequence(rows):
        raise MalformedTable(f"{prefix}table of type {type(rows).__name__} is not a sequence", **where)
    listed = [(rows, f"{prefix}table", where)]
    if height is not None:
        if len(rows) != height:
            raise MalformedTable(f"{prefix}expected {height} rows, got {len(rows)}", **where, rows=len(rows))
        listed = [(row, f"{prefix}row {i}", {**where, "row": i}) for i, row in enumerate(rows)]
    for row, what, place in listed:
        if not _is_sequence(row) or len(row) != width:
            raise MalformedTable(f"{what} is not a sequence of {width} entries", **place)
        _entries(row, what, bound, **place)
    raise InternalError("the fast index check rejected a table the scan accepts")


def _positions(codes: np.ndarray, size: int) -> np.ndarray:
    """Lookup from code to its position in ``codes``; -1 for codes not listed."""
    pos = np.full(size, -1, dtype=np.int32)
    pos[codes] = np.arange(len(codes))
    return pos


def _digits(codes, p: int, width: int) -> np.ndarray:
    """Base-p digits of each code along a new last axis, most significant first."""
    return np.asarray(codes)[..., None] // p ** np.arange(width - 1, -1, -1) % p


def _codes(digits: np.ndarray, p: int) -> np.ndarray:
    """The inverse of ``_digits``: base-p value of the last axis."""
    return digits @ p ** np.arange(digits.shape[-1] - 1, -1, -1)


def _tuples(arr: np.ndarray, bound: int) -> tuple[tuple[int, ...], ...]:
    """A table as nested tuples, sharing one int object per value, not one per cell: the tuple view
    of a group, action or sheaf action table, built on its first read, so neither a rejected table
    nor one only ever checked on its array pays for it."""
    return tuple(map(tuple, np.array(range(bound), dtype=object)[arr].tolist()))


def _generators(cayley: np.ndarray, identity: int) -> tuple[int, ...] | None:
    """A greedy generating set of the table, or None past floor(log2 n) generators.

    Each generator is the least element outside the closure of the
    identity and the generators before it, closure taken under the whole
    table. In a group each generator at least doubles that closure, so
    needing more means the table is no group, and Light's test would not
    save work on it.
    """
    n = len(cayley)
    inside = np.zeros(n, dtype=bool)
    inside[identity] = True
    gens = []
    while not inside.all():
        if len(gens) == n.bit_length() - 1:
            return None
        fresh = np.flatnonzero(~inside)[:1]
        gens.append(int(fresh[0]))
        inside[fresh] = True
        while fresh.size:
            members = np.flatnonzero(inside)
            new = np.zeros(n, dtype=bool)
            new[cayley[fresh[:, None], members]] = True
            new[cayley[members[:, None], fresh]] = True
            new &= ~inside
            inside |= new
            fresh = np.flatnonzero(new)
    return tuple(gens)


def _compatibility_witness(act: np.ndarray, cayley: np.ndarray, identity: int, gens: tuple[int, ...] | None):
    """Least (g, h, x) with (g*h).x != g.(h.x), or None.

    With ``act = cayley`` this is the associativity witness (g*h)*k !=
    g*(h*k): associativity is the compatibility of the regular action.
    The identity must already be two-sided and act trivially, so the scan
    skips its row. ``gens`` is the table's ``_generators``: Light's test
    checks h over them only, and the row-at-a-time lexicographic scan runs
    when they are None and whenever the test fails.
    """
    if gens is not None:
        # reused buffers: two fresh n x m arrays per generator cost more than the gathers
        lhs, rhs = np.empty_like(act), np.empty_like(act)
        for h in gens:
            np.take(act, cayley[:, h], axis=0, out=lhs)  # [g,x] -> (g*h).x
            np.take(act, act[h], axis=1, out=rhs)        # [g,x] -> g.(h.x)
            if not np.array_equal(lhs, rhs):
                break
        else:
            return None
    for g in itertools.chain(range(identity), range(identity + 1, len(cayley))):
        lhs = act[cayley[g], :]  # [h,x] -> (g*h).x
        rhs = act[g][act]        # [h,x] -> g.(h.x)
        bad = _first(lhs != rhs)
        if bad is not None:
            return g, *bad
    return None


def build_group(order: int, cayley) -> FiniteGroup:
    """Validate a Cayley table exhaustively and return the group.

    Checks run in order: shape/range, identity existence, associativity,
    inverse existence. The first violated axiom is reported with a witness.
    """
    order = _positive(order, "order")
    arr = _index_table(cayley, order, order, order, "cayley: ")
    points = np.arange(order)
    two_sided = (arr == points).all(axis=1) & (arr == points[:, None]).all(axis=0)
    found = _first(two_sided)
    if found is None:
        raise NoIdentity("no two-sided identity element")
    identity = found[0]
    gens = _generators(arr, identity)
    bad = _compatibility_witness(arr, arr, identity, gens)
    if bad is not None:
        g, h, k = bad
        raise NonAssociative(
            f"(g*h)*k != g*(h*k) at (g,h,k)=({g},{h},{k})", g=g, h=h, k=k
        )
    hits = (arr == identity) & (arr.T == identity)
    missing = _first(~hits.any(axis=1))
    if missing is not None:
        raise NoInverse(f"element {missing[0]} has no inverse", element=missing[0])
    group = FiniteGroup._unread(order, identity, _frozen_array(np.argmax(hits, axis=1)), arr)
    vars(group)["generators"] = gens  # the group's table is the one just searched
    return group


def _cyclic_table(n: int):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _symmetric_table(n: int):
    # elements are one-line tuples in catalog order (symmetric_elements); (g*h)(x) = g(h(x))
    perms = symmetric_elements(n)
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(g[h[x]] for x in range(n))] for h in perms]
        for g in perms
    ]


def symmetric_elements(n: int) -> list[tuple[int, ...]]:
    """One-line notation for the elements of symmetric(n), in catalog order."""
    if f"symmetric({n})" not in catalog_names():
        raise UnknownName(f"symmetric({n}) is not a catalog name", name=f"symmetric({n})")
    return list(itertools.permutations(range(n)))


def catalog_group(name: str) -> FiniteGroup:
    """Builtin catalog: the names of ``catalog_names``, matched exactly."""
    if name not in catalog_names():
        raise UnknownName(f"unknown catalog name {name!r}", name=name)
    if name == "klein_four":
        return build_group(4, [[a ^ b for b in range(4)] for a in range(4)])
    family, n = name[:-1].split("(")
    table = (_cyclic_table if family == "cyclic" else _symmetric_table)(int(n))
    return build_group(len(table), table)


def catalog_names() -> list[str]:
    names = [f"cyclic({n})" for n in range(1, 13)]
    names += [f"symmetric({n})" for n in range(1, 5)]
    names.append("klein_four")
    return names


def build_subgroup(parent: FiniteGroup, members) -> Subgroup:
    """Validate a member list as a subgroup of ``parent``."""
    members = sorted(set(_entries(members, "subgroup member", parent.order)))
    if not members:
        raise MalformedTable("subgroup must be nonempty")
    member_set = set(members)
    if parent.identity not in member_set:
        raise MissingIdentity("identity element is not a member", identity=parent.identity)
    bad = _first(~np.isin(parent.array[np.ix_(members, members)], members))
    if bad is not None:
        a, b = members[bad[0]], members[bad[1]]
        product = int(parent.array[a, b])
        raise NotClosed(f"product of ({a},{b}) = {product} is not a member", a=a, b=b, product=product)
    # unreachable once closure holds on a finite group; kept as defense
    for a in members:
        if parent.inverse[a] not in member_set:
            raise MissingInverse(f"inverse of {a} is not a member", element=a)
    return Subgroup(parent=parent, members=tuple(members))


def _transport(group: FiniteGroup, members) -> FiniteGroup:
    """The law of ``group`` on its distinct, product-closed ``members``, with members[i] renamed i:
    transport of structure, so nothing is decided again and the identity and inverses are carried."""
    members, n = np.asarray(members, dtype=np.intp), len(members)
    pos = _positions(members, group.order)
    arr = pos[group.array[np.ix_(members, members)]]
    if (pos[members] != np.arange(n)).any() or (arr < 0).any():
        raise InternalError("a renaming repeats a member or leaves the members")
    arr.flags.writeable = False
    identity, inverse = int(pos[group.identity]), _frozen_array(pos[group.inverse_array[members]])
    return FiniteGroup._unread(n, identity, inverse, arr)


def _decide_subgroup(sub: Subgroup) -> None:
    """A hand-built subgroup decided by build_subgroup's checks and one for repeated members."""
    if len(build_subgroup(sub.parent, sub.members).members) < len(sub.members):
        i, m = next((i, m) for i, m in enumerate(sub.members) if m in sub.members[:i])
        raise MalformedTable(f"member [{i}] = {m!r} is repeated", position=i, element=m)


def subgroup_as_group(sub: Subgroup) -> FiniteGroup:
    """Members renamed 0..|H|-1 by ``_transport``, once ``_decide_subgroup`` passes."""
    _decide_subgroup(sub)
    return _transport(sub.parent, sub.members)


def trivial_subgroup(parent: FiniteGroup) -> Subgroup:
    return build_subgroup(parent, [parent.identity])


def opposite_group(g: FiniteGroup) -> FiniteGroup:
    """The transpose, carried along the isomorphism a -> a^-1 from G^op to G; identity and inverses stay."""
    out = _transport(g, g.inverse_array)
    if out.identity != g.identity or out.inverse != g.inverse:
        raise InternalError("the opposite group changed the identity or inverses")
    return out
