"""The one stored form of groups and actions: a read-only int32 array, with tuple views built on first read.

Oracles: every producer's ``cayley`` or ``act`` view is its array cell for cell, as tuples of ints;
``orbit``, ``stabilizer`` and ``is_transitive`` agree with plain loops over the table; equality and
hashing agree with tuple equality. Counts: building and deciding torsors builds no view, and the first
read of a view builds it once per object.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torsorkit as tk
from torsorkit import actions, groups, jsonio
from torsorkit.actions import GroupAction, _regular_at
from torsorkit.groups import FiniteGroup, _transport

from test_oracles import CELLS, Flag, malformed_rows, ref_malformed

ORACLE = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

CATALOG = [tk.catalog_group(name) for name in tk.catalog_names()]  # orders up to 24


def assert_view(view, arr):
    """``view`` is ``arr`` as nested tuples of plain ints, and ``arr`` is a read-only int32 table."""
    assert arr.dtype == np.int32 and not arr.flags.writeable
    assert type(view) is tuple and all(type(row) is tuple for row in view)
    assert all(type(v) is int for row in view for v in row)
    assert view == tuple(map(tuple, arr.tolist()))


def regular_copies(group, copies, perm):
    """Left multiplication on ``copies`` copies of the group, points renamed by ``perm``: transitive
    exactly when there is one copy."""
    n = group.order
    table = [[0] * (n * copies) for _ in range(n)]
    for g in range(n):
        for pt in range(n * copies):
            table[g][perm[pt]] = perm[group.cayley[g][pt % n] + n * (pt // n)]
    return table


def cyclic_subgroup(group, x):
    """The members of the subgroup generated by x, in ascending order."""
    members, power = {group.identity}, x
    while power not in members:
        members.add(power)
        power = int(group.array[power, x])
    return tuple(sorted(members))


# ---------------------------------------------------------------- the views of every producer


@ORACLE
@given(st.sampled_from(CATALOG), st.data())
def test_every_group_producer_views_its_array(group, data):
    perm = data.draw(st.permutations(range(group.order)))
    torsor = tk.as_torsor(tk.left_translation_action(group))
    members = cyclic_subgroup(group, data.draw(st.integers(0, group.order - 1)))
    for out in (
        tk.build_group(group.order, _transport(group, perm).array.tolist()),
        _transport(group, perm),
        tk.subgroup_as_group(tk.Subgroup(group, members)),
        tk.opposite_group(group),
        tk.transported_group(torsor, data.draw(st.integers(0, group.order - 1))),
    ):
        assert_view(out.cayley, out.array)


@ORACLE
@given(st.sampled_from(CATALOG), st.integers(1, 2), st.data())
def test_every_action_producer_views_its_array(group, copies, data):
    perm = data.draw(st.permutations(range(group.order * copies)))
    points = data.draw(st.permutations(range(group.order)))
    for out in (
        tk.build_action(group, group.order * copies, regular_copies(group, copies, perm)),
        _regular_at(group, points),
        tk.left_translation_action(group),
    ):
        assert_view(out.act, out.array)


# ---------------------------------------------------------------- queries on the array


def ref_orbit(act, x):
    return tuple(sorted({row[x] for row in act}))


def ref_stabilizer(act, x):
    return tuple(g for g, row in enumerate(act) if row[x] == x)


def ref_is_transitive(act, size):
    reached = set(ref_orbit(act, 0))
    missing = [y for y in range(size) if y not in reached]
    return (True, None) if not missing else (False, (0, missing[0]))


@st.composite
def queried_actions(draw):
    """A regular action on one or two copies, or a hand-built table of in-range cells, never decided."""
    group = draw(st.sampled_from([g for g in CATALOG if g.order <= 8]))
    if draw(st.booleans()):
        copies = draw(st.integers(1, 2))
        perm = draw(st.permutations(range(group.order * copies)))
        return tk.build_action(group, group.order * copies, regular_copies(group, copies, perm))
    size = draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(0, size - 1)] * size)
    return GroupAction(group=group, set_size=size, act=tuple(draw(row) for _ in range(group.order)))


@ORACLE
@given(queried_actions(), st.data())
def test_orbit_stabilizer_and_transitivity_match_loops_over_the_table(action, data):
    act = action.act
    x = data.draw(st.integers(0, action.set_size - 1))
    assert tk.orbit(action, x) == ref_orbit(act, x)
    assert tk.stabilizer(action, x) == ref_stabilizer(act, x)
    assert tk.is_transitive(action) == ref_is_transitive(act, action.set_size)
    assert all(type(v) is int for v in tk.orbit(action, x) + tk.stabilizer(action, x))


# ---------------------------------------------------------------- equality, hashing, copies


def group_key(g):
    return g.order, g.cayley, g.identity, g.inverse


@ORACLE
@given(st.sampled_from(CATALOG), st.sampled_from(CATALOG), st.data())
def test_group_equality_and_hash_agree_with_tuple_equality(a, b, data):
    if data.draw(st.booleans()):  # an equal copy, or a relabeling that may or may not change the table
        b = _transport(a, data.draw(st.permutations(range(a.order))))
    hand = FiniteGroup(order=b.order, cayley=b.cayley, identity=b.identity, inverse=b.inverse)
    for other in (b, hand):
        assert (a == other) == (group_key(a) == group_key(other))
        if a == other:
            assert hash(a) == hash(other)
    assert hand == b and hash(hand) == hash(b)


@ORACLE
@given(st.sampled_from(CATALOG), st.data())
def test_action_equality_and_hash_agree_with_tuple_equality(group, data):
    a = _regular_at(group, data.draw(st.permutations(range(group.order))))
    b = _regular_at(group, data.draw(st.permutations(range(group.order))))
    hand = GroupAction(group=b.group, set_size=b.set_size, act=b.act)
    for other in (b, hand):
        assert (a == other) == ((a.group, a.set_size, a.act) == (other.group, other.set_size, other.act))
        if a == other:
            assert hash(a) == hash(other)
    assert hand == b and hash(hand) == hash(b)
    other_group = tk.catalog_group("cyclic(1)") if group.order > 1 else tk.catalog_group("cyclic(2)")
    assert tk.left_translation_action(group) != tk.left_translation_action(other_group)


def test_an_equal_copy_of_a_group_compares_on_its_array_without_building_views(tuple_builds):
    a, b = tk.affine_torsor(2, 6).group, tk.affine_torsor(2, 6).group
    assert a is not b and a.array is not b.array
    assert a == b and hash(a) == hash(b) and a != tk.opposite_group(tk.catalog_group("symmetric(3)"))
    assert tuple_builds == []


def test_a_stored_table_is_no_equal_of_another_type_and_compares_stored_keys_in_order():
    """``__eq__`` leaves another type to Python, which finds the two unequal; two stored dicts of one set of
    keys in two orders differ, as their hashes, which read the arrays in key order, would."""
    z3 = tk.catalog_group("cyclic(3)")
    assert z3.__eq__(z3.cayley) is NotImplemented and z3 != z3.cayley and z3 != tk.left_translation_action(z3)
    sheaf = tk.constant_group_sheaf(tk.pseudocircle(), z3).sets
    turned = dict(reversed(sheaf.arrays.items()))
    assert list(turned) != list(sheaf.arrays) and turned == sheaf.arrays
    assert not groups._same(turned, sheaf.arrays) and groups._same(dict(sheaf.arrays), sheaf.arrays)
    assert type(sheaf)._unread(sheaf.space, sheaf.sizes, turned) != sheaf


@pytest.mark.parametrize("read_first", [False, True], ids=["cold", "viewed"])
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_copies_keep_equality_and_read_only_arrays(clone, read_first):
    torsor = tk.solution_torsor(tk.prime_field_matrix(3, [[1, 2, 0]]), [1])
    action = torsor.action
    if read_first:
        action.act, action.group.cayley
    copied = clone(action)
    assert copied == action and copied.group == action.group
    for obj in (copied, copied.group):
        assert not obj.array.flags.writeable
    assert copied.act == action.act and copied.group.cayley == action.group.cayley


# ---------------------------------------------------------------- when views are built


@pytest.fixture
def tuple_builds(monkeypatch):
    """The arrays each call of ``_tuples`` reads, in order, from either module that calls it."""
    calls, real = [], groups._tuples
    for module in (groups, actions):
        monkeypatch.setattr(module, "_tuples", lambda arr, bound: calls.append(arr) or real(arr, bound))
    return calls


def test_building_and_deciding_torsors_builds_no_view(tuple_builds):
    s4 = tk.catalog_group("symmetric(4)")
    sub = tk.build_subgroup(tk.catalog_group("symmetric(4)"), [0, 1])  # its parent is an equal copy of s4
    tk.coset_list(s4, sub), tk.coset_action(s4, sub), jsonio.group_to_obj(s4)
    with pytest.raises(tk.errors.NotClosed):
        tk.build_subgroup(s4, [0, 3])  # a 3-cycle: its witness names the product read off the array
    torsors = [
        tk.affine_torsor(3, 3),
        tk.solution_torsor(tk.prime_field_matrix(2, [[1] * 8]), [1]),
        tk.basis_torsor(2, 2),
        tk.coset_torsor(s4, sub, 5),
        tk.as_torsor(tk.build_action(s4, 24, s4.array)),
    ]
    for torsor in torsors:
        tk.transported_group(torsor, torsor.set_size - 1)
        tk.orbit(torsor.action, 0), tk.stabilizer(torsor.action, 0), tk.is_transitive(torsor.action)
        jsonio.action_to_obj(torsor.action)
    assert tuple_builds == []
    assert not any("act" in vars(t.action) or "cayley" in vars(t.group) for t in torsors)


def test_the_first_read_of_a_view_builds_it_once_per_object(tuple_builds):
    torsor = tk.affine_torsor(2, 4)
    group, action = torsor.group, torsor.action
    assert group.cayley is group.cayley and len(tuple_builds) == 1
    assert group.mul(3, 5) == group.cayley[3][5] and len(tuple_builds) == 1
    assert torsor.act is action.act and len(tuple_builds) == 2
    assert tuple_builds[0] is group.array and tuple_builds[1] is action.array
    # a hand-built object reads the tuples it was given into its own array and builds its view on first read
    hand = FiniteGroup(order=group.order, cayley=group.cayley, identity=group.identity, inverse=group.inverse)
    hand_action = GroupAction(group, 16, act=action.act)
    assert len(tuple_builds) == 2 and "cayley" not in vars(hand) and "act" not in vars(hand_action)
    assert hand == group and hand.cayley == group.cayley and hand_action.act == action.act
    assert tuple_builds[2:] == [hand.array, hand_action.array] and tuple_builds[2] is hand.array


# ---------------------------------------------------------------- a caller's table, read when its object is built


def _cyclic3_with(cell):
    """cyclic(3)'s table as lists, with row 1 position 2 set to ``cell``, or row 1 cut short for None."""
    rows = [list(r) for r in tk.catalog_group("cyclic(3)").cayley]
    if cell is None:
        rows[1].pop()
    else:
        rows[1][2] = cell
    return rows


@pytest.mark.parametrize("cell,place", [
    (1.5, {"row": 1, "position": 2}),   # a cast truncates it to 1
    (True, {"row": 1, "position": 2}),  # a cast reads it as 1
    (-1, {"row": 1, "position": 2}),    # a cast keeps it: is_free passed and orbit(action, 0) gave (-1, 0)
    (None, {"row": 1}),
], ids=["float", "bool", "negative", "ragged"])
def test_a_hand_built_group_or_action_refuses_a_bad_cell_where_it_is_built(cell, place):
    z3, rows = tk.catalog_group("cyclic(3)"), _cyclic3_with(cell)
    for build in (lambda: FiniteGroup(3, cayley=rows, identity=0, inverse=(0, 2, 1)), lambda: GroupAction(z3, 3, act=rows)):
        with pytest.raises(tk.errors.MalformedTable) as err:
            build()
        assert err.value.data == place


@pytest.mark.parametrize("table,place", [
    (5, {}),
    ("012", {}),
    ([[0, 1, 2], 5, [2, 0, 1]], {"row": 1}),
    ([[0, 1, 2], "120", [2, 0, 1]], {"row": 1}),
    (np.zeros(3, dtype=np.int32), {"row": 0}),
    (np.zeros((3, 3)), {"row": 0, "position": 0}),
], ids=["int", "str", "int-row", "str-row", "flat-array", "float-array"])
def test_a_table_that_is_no_sequence_of_rows_is_malformed_not_a_type_error(table, place):
    with pytest.raises(tk.errors.MalformedTable) as err:
        GroupAction(tk.catalog_group("cyclic(3)"), 3, act=table)
    assert err.value.data == place
    with pytest.raises(tk.errors.MalformedTable) as err:
        FiniteGroup(3, cayley=table, identity=0, inverse=(0, 2, 1))
    assert err.value.data == place


@pytest.mark.parametrize("identity,inverse,place", [
    (5, (0, 1.5), {"identity": 5}),  # built, and then build_action and as_torsor raised IndexError
    (True, (0, 1), {"identity": True}),
    (0, (0, 1.5), {"table": "inverse", "position": 1}),
    (0, (0, 2), {"table": "inverse", "position": 1}),
    (0, (0,), {"table": "inverse"}),
    (0, None, {"table": "inverse"}),
    (1, (0, 1), {"table": "identity", "position": 0}),  # built, unread, as cyclic(2); under array it was refused
    (0, (1, 0), {"table": "inverse", "position": 0}),   # built, as that
], ids=["identity-range", "identity-bool", "inverse-float", "inverse-range", "inverse-short", "inverse-none",
        "identity-wrong", "inverse-wrong"])
def test_a_hand_built_group_reads_its_identity_and_inverse_strictly(identity, inverse, place):
    with pytest.raises(tk.errors.MalformedTable) as err:
        FiniteGroup(2, cayley=[[0, 1], [1, 0]], identity=identity, inverse=inverse)
    assert err.value.data == place


def test_a_hand_built_group_keeps_its_identity_and_inverse_as_python_ints():
    hand = FiniteGroup(2, cayley=[[0, 1], [1, 0]], identity=np.int64(0), inverse=np.array([0, 1]))
    assert type(hand.identity) is int and hand.inverse == (0, 1) and all(type(g) is int for g in hand.inverse)
    assert hand == tk.catalog_group("cyclic(2)")


def ref_unit_and_inverse(table, e, inverse):
    """A plain scan: the least g where e * g or g * e is not g, then the least g where inverse[g] is no
    two-sided inverse, as the witness data of FiniteGroup; None when neither is found."""
    n = len(table)
    bad_e = next((g for g in range(n) if table[e][g] != g or table[g][e] != g), None)
    bad_inv = next((g for g in range(n) if not table[g][inverse[g]] == table[inverse[g]][g] == e), None)
    if bad_e is not None:
        return {"table": "identity", "position": bad_e}
    return None if bad_inv is None else {"table": "inverse", "position": bad_inv}


@ORACLE
@given(st.sampled_from([g for g in CATALOG if g.order <= 6]), st.data())
def test_a_hand_built_table_reads_as_the_reference_scan_says(group, data):
    """A drawn table raises MalformedTable at the first bad place a plain row-major scan finds, as a
    group's table and as an action's, and a group's table that reads then at the first element where the
    given identity or inverses fail; a table that reads is stored as its cells, and the producer's own
    table reads to an object equal to the producer."""
    n = group.order
    rows = data.draw(st.one_of(st.just([list(r) for r in group.cayley]), malformed_rows(n, n)))
    rows = data.draw(st.sampled_from([rows, tuple(map(tuple, rows))]))
    want = ref_malformed(rows, n, n, n)
    for make, producer, unit in (
        (lambda: FiniteGroup(n, cayley=rows, identity=group.identity, inverse=group.inverse), group, True),
        (lambda: GroupAction(group, n, act=rows), tk.left_translation_action(group), False),
    ):
        expected = want or unit and ref_unit_and_inverse(rows, group.identity, group.inverse) or None
        try:
            made = make()
        except tk.errors.MalformedTable as err:
            assert err.data == expected
            continue
        assert expected is None and made.array.tolist() == [list(r) for r in rows]
        assert_view(made.cayley if isinstance(made, FiniteGroup) else made.act, made.array)
        assert (made == producer) == (made.array.tolist() == producer.array.tolist())


def test_a_handed_group_array_or_inverse_of_the_wrong_shape_is_malformed():
    z3 = tk.catalog_group("cyclic(3)")
    with pytest.raises(tk.errors.MalformedTable) as err:
        dataclasses.replace(z3, order=4)  # built, with a 3 x 3 table for four elements
    assert err.value.data == {"rows": 3}  # read as a table handed under cayley is
    with pytest.raises(tk.errors.MalformedTable) as err:
        FiniteGroup(order=3, identity=0, inverse=(0, 2), array=z3.array)
    assert err.value.data == {"table": "inverse"}
    assert dataclasses.replace(z3) == z3
    # a nested list under array is read as under cayley: it was refused with a shape given as []
    assert FiniteGroup(order=3, identity=0, inverse=(0, 2, 1), array=z3.array.tolist()) == z3


@pytest.mark.parametrize("change,place", [
    ({"identity": 1}, {"table": "identity", "position": 0}),  # built; build_action then said the identity moves 0
    ({"inverse": (0, 1, 2)}, {"table": "inverse", "position": 1}),  # built
    ({"inverse": (0, 2.0, 1)}, {"table": "inverse", "position": 1}),
    ({"inverse": (0, 2, 3)}, {"table": "inverse", "position": 2}),
    ({"inverse": (0, -1, 1)}, {"table": "inverse", "position": 1}),
], ids=["identity", "inverse", "inverse-float", "inverse-range", "inverse-negative"])
def test_a_handed_group_array_decides_its_identity_and_inverse(change, place):
    with pytest.raises(tk.errors.MalformedTable) as err:
        dataclasses.replace(tk.catalog_group("cyclic(3)"), **change)
    assert err.value.data == place


@ORACLE
@given(st.sampled_from([g for g in CATALOG if g.order <= 8]), st.data())
def test_a_handed_group_array_accepts_exactly_its_own_identity_and_inverses(group, data):
    """As ``ref_unit_and_inverse`` scans. A group has one identity and one inverse per element, so only its
    own pass."""
    n = group.order
    e = data.draw(st.sampled_from([group.identity, data.draw(st.integers(0, n - 1))]))
    inverse = data.draw(st.sampled_from([group.inverse, tuple(data.draw(st.permutations(range(n))))]))
    want = ref_unit_and_inverse(group.cayley, e, inverse)
    assert (want is None) == (e == group.identity and inverse == group.inverse)
    try:
        made = dataclasses.replace(group, identity=e, inverse=inverse)
    except tk.errors.MalformedTable as err:
        assert err.data == want
    else:
        assert want is None and made == group


def test_a_handed_action_array_of_the_wrong_shape_is_malformed():
    action = tk.left_translation_action(tk.catalog_group("cyclic(3)"))
    # built, it was called not transitive at point 3, and as_torsor and is_free raised a bare ValueError
    with pytest.raises(tk.errors.MalformedTable) as err:
        dataclasses.replace(action, set_size=5)
    assert err.value.data == {"row": 0}
    with pytest.raises(tk.errors.MalformedTable) as err:
        GroupAction(action.group, 3, array=action.array[:2])
    assert err.value.data == {"rows": 2}
    assert dataclasses.replace(action) == action


# ---------------------------------------------------------------- one door for a caller's table, under either keyword


Z3 = tk.catalog_group("cyclic(3)")
GLUED = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(Z3, Z3.identity)).action  # sections on every open

DOORS = {  # each stored-table class: an object, and its constructor given a stored form under array or arrays
    "group": (Z3, lambda g, a: FiniteGroup(g.order, identity=g.identity, inverse=g.inverse, array=a)),
    "action": (tk.left_translation_action(Z3), lambda x, a: GroupAction(x.group, x.set_size, array=a)),
    "sheaf": (GLUED.sets, lambda f, a: tk.SheafOfSets(f.space, f.sizes, arrays=a)),
    "sheaf-action": (GLUED, lambda x, a: tk.SheafAction(x.groups, x.sets, arrays=a)),
}


def _hand_in(name, via, stored):
    """The object of ``DOORS[name]`` built again from ``stored``, by its class or by dataclasses.replace."""
    obj, build = DOORS[name]
    return build(obj, stored) if via == "class" else dataclasses.replace(obj, **{obj._stored: stored})


def _writable(name):
    """A writable copy of the stored form of ``DOORS[name]``, of its kind: one array, or a dict or tuple."""
    stored = getattr(DOORS[name][0], DOORS[name][0]._stored)
    if isinstance(stored, dict):
        return {key: arr.copy() for key, arr in stored.items()}
    return stored.copy() if isinstance(stored, np.ndarray) else tuple(arr.copy() for arr in stored)


@pytest.mark.parametrize("via", ["class", "replace"])
@pytest.mark.parametrize("name", list(DOORS))
def test_handed_arrays_are_read_into_copies_that_later_edits_leave_alone(name, via):
    """A handed array was kept as given, writable: zeroing it afterwards changed the object."""
    stored = _writable(name)
    made = _hand_in(name, via, stored)
    for arr in groups._arrays_in(stored):
        arr.fill(0)
    assert made == DOORS[name][0] and hash(made) == hash(DOORS[name][0])
    for arr in groups._arrays_in(getattr(made, made._stored)):
        assert arr.dtype == np.int32 and not arr.flags.writeable


def _spoiled(name):
    """``_writable(name)`` with 99 in the last cell of its last table, and the place MalformedTable names."""
    stored = _writable(name)
    if isinstance(stored, np.ndarray):
        stored[-1, -1] = 99
        return stored, {"row": stored.shape[0] - 1, "position": stored.shape[1] - 1}
    if isinstance(stored, dict):
        (u, v), arr = list(stored.items())[-1]
        arr[-1] = 99
        return stored, {"u": u, "v": v, "position": len(arr) - 1}
    stored[-1][-1, -1] = 99
    return stored, {"open": len(stored) - 1, "row": stored[-1].shape[0] - 1, "position": stored[-1].shape[1] - 1}


@pytest.mark.parametrize("via", ["class", "replace"])
@pytest.mark.parametrize("name", list(DOORS))
def test_an_out_of_range_cell_under_array_or_arrays_is_refused_at_its_place(name, via):
    """It built, and then ``cayley`` raised IndexError, or ``is_sheaf`` read another table's cells and named
    false functoriality witnesses."""
    stored, place = _spoiled(name)
    with pytest.raises(tk.errors.MalformedTable) as err:
        _hand_in(name, via, stored)
    assert err.value.data == place


# ---------------------------------------------------------------- the one reader of a caller's integers


def ref_entries(values, what, bound=None, **where):
    """The plain per-entry scan: each entry an integer that is no bool and, given a bound, in range."""
    out = []
    for pos, v in enumerate(values):
        b = bound[pos] if isinstance(bound, (list, tuple)) else bound
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or b is not None and not 0 <= v < b:
            span = "" if b is None else f" in [0, {b})"
            raise tk.errors.MalformedTable(f"{what}: entry {pos} = {v!r} is not an integer{span}", **where,
                                           position=pos)
        out.append(int(v))
    return out


def _read(reader, values, bound, form):
    """The entries ``reader`` returns, with their types, or the message and data of its MalformedTable."""
    try:
        out = reader(form(values), "entries", bound, row=2)
    except tk.errors.MalformedTable as err:
        return str(err), err.data
    return out, [type(v) for v in out]


ENTRY = st.one_of(  # small ints twice over, so that many drawn sequences read
    st.integers(-2, 9), st.integers(-2, 9), st.integers(), st.booleans(), st.floats(allow_nan=False),
    st.integers(-2, 9).map(np.int64), st.integers(0, 9).map(np.uint8), st.integers(-2, 9).map(Flag),
    st.none(), st.text(max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRY, max_size=8), st.data())
def test_entries_read_as_the_plain_per_entry_scan_says(values, data):
    """The whole-sequence check of ``_entries`` gives the entries, as Python ints, or the error of the
    first bad one, exactly as the scan does, with no bound, one bound or one bound per entry."""
    bound = data.draw(st.one_of(
        st.none(), st.integers(0, 10),
        st.lists(st.integers(0, 10), min_size=len(values), max_size=len(values)),
        st.lists(st.integers(0, 10), min_size=len(values), max_size=len(values)).map(tuple),
    ))
    form = data.draw(st.sampled_from([list, tuple, iter, lambda v: (x for x in v)]))
    assert _read(groups._entries, values, bound, form) == _read(ref_entries, values, bound, form)


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_the_inverse_array_is_the_inverse_read_only_also_in_a_copy(clone):
    group = tk.catalog_group("symmetric(3)")
    arr = group.inverse_array
    assert arr is group.inverse_array and arr.dtype == np.int32 and not arr.flags.writeable
    assert arr.tolist() == list(group.inverse)
    copied = clone(group)
    assert "inverse_array" in vars(copied) and not copied.inverse_array.flags.writeable
    assert copied == group and copied.inverse_array.tolist() == list(group.inverse)


@pytest.mark.parametrize("call,place", [
    (lambda: tk.right_action_as_left(tk.catalog_group("cyclic(3)"), 0, []), {"set_size": 0}),
    (lambda: tk.right_action_as_left(tk.catalog_group("cyclic(3)"), "x", [[0, 1, 2]]), {"set_size": "x"}),
    (lambda: FiniteGroup(0, cayley=[], identity=0, inverse=()), {"identity": 0}),
    (lambda: FiniteGroup(2.0, cayley=[[0, 1], [1, 0]], identity=0, inverse=(0, 1)), {"order": 2.0}),
    (lambda: FiniteGroup(True, cayley=[[0]], identity=0, inverse=(0,)), {"order": True}),
    (lambda: GroupAction(tk.catalog_group("cyclic(2)"), 2.0, act=[[0, 1], [1, 0]]), {"set_size": 2.0}),
], ids=["right-action-no-points", "right-action-count-type", "empty-group", "group-float-order",
        "group-bool-order", "action-float-size"])
def test_an_empty_table_reads_with_its_full_shape_and_a_bad_count_is_named(call, place):
    """An empty table read as one row of none raised InternalError; the count comes first, as in build_action."""
    with pytest.raises(tk.errors.MalformedTable) as err:
        call()
    assert err.value.data == place


@pytest.mark.parametrize("count", [np.int64(3), np.uint8(3), Flag(3)], ids=["int64", "uint8", "int-subclass"])
def test_a_count_of_another_integer_type_is_kept_as_a_python_int(count):
    """A group's order and an action's set size are read into plain ints, by the builders and by the
    classes, so the objects equal the catalog's and the JSON writers take them (an np.int64 order was
    kept as given, and ``canonical_json`` then raised TypeError)."""
    z3 = tk.catalog_group("cyclic(3)")
    rows = [list(r) for r in z3.cayley]
    groups_made = [tk.build_group(count, rows), FiniteGroup(count, cayley=rows, identity=0, inverse=z3.inverse)]
    actions_made = [tk.build_action(z3, count, rows), GroupAction(z3, count, act=rows)]
    assert [type(g.order) for g in groups_made] + [type(a.set_size) for a in actions_made] == [int] * 4
    assert groups_made == [z3] * 2 and actions_made == [tk.left_translation_action(z3)] * 2
    for obj in [*map(jsonio.group_to_obj, groups_made), *map(jsonio.action_to_obj, actions_made)]:
        jsonio.canonical_json(obj)


@pytest.mark.parametrize("build,ints,text", [
    (lambda n: tk.prime_field_matrix(n(1000003), [[0, 0, 0, 0]]), lambda m: [m.p], repr),
    (lambda n: tk.gaussian_solve(tk.prime_field_matrix(n(1000003), [[0, 0, 0, 0]]), [0]),
     lambda r: [r.kernel_size], repr),
    (lambda n: tk.build_nerve(n(2), [(0, 1)]), lambda nerve: [nerve.num_opens],
     lambda nerve: jsonio.canonical_json(jsonio.cocycle_to_obj(tk.check_cocycle(nerve, tk.catalog_group("cyclic(2)"), {(0, 1): 1})))),
    (lambda n: tk.build_space(n(2), [(), (0,), (0, 1)]), lambda space: [space.num_points],
     lambda space: jsonio.canonical_json(jsonio.space_to_obj(space))),
    (lambda n: tk.affine_torsor(n(3), n(2)), lambda t: [t.set_size, t.group.order],
     lambda t: jsonio.canonical_json(jsonio.action_to_obj(t.action))),
    (lambda n: tk.general_linear_group(n(2), n(2)), lambda made: [made[0].order, *(c for m in made[1] for r in m for c in r)],
     lambda made: jsonio.canonical_json(jsonio.group_to_obj(made[0]))),
], ids=["prime_field_matrix", "gaussian_solve", "build_nerve", "build_space", "affine_torsor", "general_linear_group"])
def test_a_numpy_integer_prime_or_count_is_kept_as_a_python_int(build, ints, text):
    """Primes and counts are read into plain ints where they enter, as a group's order is: an np.int64 prime
    wrapped ``kernel_size``, p ** 4, to -4442925868394654895 in silence, and a nerve or space that kept an
    np.int64 count made ``canonical_json`` raise TypeError."""
    made, plain = build(np.int64), build(int)
    assert {type(v) for v in ints(made)} == {int}
    assert made == plain and ints(made) == ints(plain) and text(made) == text(plain)


def test_an_empty_table_of_rows_reads_to_an_array_of_its_shape():
    assert groups._index_table([], 0, 3, 3).shape == (0, 3)
    assert groups._index_table([[], []], 2, 0, 1).shape == (2, 0)
    # an empty integer array of another shape holds no rows, as [] holds none: it raised InternalError
    assert groups._index_table(np.array([], dtype=np.int64), 0, 0, 1).shape == (0, 0)
    assert groups._index_table(np.zeros((0, 2), dtype=np.int32), 0, 3, 3).shape == (0, 3)


def ref_refusal(rows, height, width, bound):
    """The message and data of the row-major scan's MalformedTable at the first bad row or cell of a table,
    or of one row when ``height`` is None; None when every cell is an index."""
    bad = ref_malformed([rows] if height is None else rows, 1 if height is None else height, width, bound)
    if bad is None:
        return None
    if "rows" in bad:
        return f"expected {height} rows, got {bad['rows']}", bad
    row = rows if height is None else rows[bad["row"]]
    what = "table" if height is None else f"row {bad['row']}"
    if height is None:
        del bad["row"]
    if "position" not in bad:
        return f"{what} is not a sequence of {width} entries", bad
    return f"{what}: entry {bad['position']} = {row[bad['position']]!r} is not an integer in [0, {bound})", bad


def _as_array(rows, dtype):
    """``rows`` as an integer array of ``dtype``, or as given where numpy cannot make one."""
    try:
        return np.array(rows, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return rows


@st.composite
def index_tables(draw):
    """(rows, height, width, bound): a table of rows, or one row when height is None, of widths from 0,
    mostly well shaped, of cells mostly in range, as lists, tuples, arrays of rows or an integer array."""
    height, width, bound = draw(st.sampled_from([None, 0, 1, 2, 3])), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    cell = st.one_of(st.integers(0, bound - 1), st.integers(0, bound - 1), CELLS)

    def row():
        length = draw(st.sampled_from([width] * 4 + [width + 1, max(width - 1, 0)]))
        return draw(st.lists(cell, min_size=length, max_size=length))

    rows = row() if height is None else [row() for _ in range(draw(st.sampled_from([height] * 4 + [height + 1])))]
    form = draw(st.sampled_from([
        list, tuple, lambda r: [np.array(x) for x in r], lambda r: _as_array(r, np.int64),
        lambda r: _as_array(r, np.int32), lambda r: _as_array(r, np.uint16),
    ]))
    return (form(rows) if height is None else form(list(map(form, rows)))), height, width, bound


@settings(max_examples=400, deadline=None)
@given(index_tables())
def test_a_table_is_read_or_refused_as_the_row_major_scan_says(case):
    """``_index_table`` reads a table of rows, or one row, as lists, tuples, arrays of rows or an integer
    array, to a read-only int32 copy of its cells exactly when the plain scan finds every cell an index,
    and else refuses it with the scan's message and witness: no cell is cast, whatever its type."""
    rows, height, width, bound = case
    want = ref_refusal(rows, height, width, bound)
    try:
        got = groups._index_table(rows, height, width, bound)
    except tk.errors.MalformedTable as err:
        assert (str(err), err.data) == want
        return
    assert want is None
    assert got.dtype == np.int32 and not got.flags.writeable
    assert got.shape == ((width,) if height is None else (height, width))
    cells = [rows] if height is None else rows
    assert got.reshape(len(cells), width).tolist() == [[int(v) for v in r] for r in cells]


def _sheaf_of_strings():
    gs = tk.constant_group_sheaf(tk.pseudocircle(), tk.catalog_group("cyclic(2)"))
    return tk.is_sheaf_of_groups(tk.SheafOfGroups(sets=gs.sets, groups=("x",) * len(gs.groups)))


Z3_ARRAY = tk.catalog_group("cyclic(3)").array


@pytest.mark.parametrize("call,place", [
    (lambda: dataclasses.replace(tk.catalog_group("cyclic(3)"), inverse=((0,), 1, 2)),
     {"table": "inverse", "position": 0}),
    (lambda: FiniteGroup(order=3, identity=0, inverse=None, array=Z3_ARRAY), {"table": "inverse"}),
    (lambda: FiniteGroup(order=3, identity=0, inverse=(0, 2, 1), array=[*Z3_ARRAY.tolist()[:2], "201"]),
     {"row": 2}),
    (_sheaf_of_strings, {"table": "groups", "position": 0}),
], ids=["ragged-inverse", "no-inverse", "list-array", "no-groups"])
def test_a_handed_part_of_the_wrong_kind_is_malformed_not_a_bare_error(call, place):
    """A ragged inverse raised numpy's ValueError, a missing one or an array given as lists TypeError, and
    a sheaf of groups holding no groups AttributeError once decided."""
    with pytest.raises(tk.errors.MalformedTable) as err:
        call()
    assert err.value.data == place
