"""The one stored form of sheaves: read-only int32 arrays, handed over by their producers or read from a
caller's tables when the object is built, with tuple views built on first read.

Oracles: every glued torsor equals a copy of it built by hand from its views, table for table, and the
validators give the same reports on both under the corruptions of ``test_oracles``; the constant sheaf's
G^2 equals ``build_group`` of its table. Counts: gluing, deciding a glued torsor, extracting a cocycle,
lifting a produced action and writing JSON run no table reader and build no view; ``repr`` builds none.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torsorkit as tk
from torsorkit import actions, errors, groups, jsonio, sheaves
from torsorkit.constructions import _digits
from torsorkit.groups import _arrays_in
from torsorkit.sheaves import SheafAction, SheafOfGroups, SheafOfSets, _direct_power

from test_oracles import built, corrupted_actions, corrupted_restrictions, corrupted_sheaf

ORACLE = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

SMALL = {name: tk.catalog_group(name) for name in tk.catalog_names() if tk.catalog_group(name).order <= 12}
PSC = tk.pseudocircle()
ARCS = (PSC.index_of((0, 1, 2)), PSC.index_of((0, 1, 3)))


def assert_stored(arr):
    assert type(arr) is np.ndarray and arr.dtype == np.int32 and not arr.flags.writeable


def hand_sets(sheaf):
    return SheafOfSets(space=sheaf.space, sizes=sheaf.sizes, restrict={k: tuple(t) for k, t in sheaf.restrict.items()})


def hand_copy(action):
    """``action`` built again by hand from its views: every table a tuple, read strictly when built."""
    gs = SheafOfGroups(sets=hand_sets(action.groups.sets), groups=action.groups.groups)
    return SheafAction(groups=gs, sets=hand_sets(action.sets), act=tuple(tuple(map(tuple, t)) for t in action.act))


def reports(action):
    """Every validator's verdict on ``action`` and its sheaves, and what as_sheaf_torsor makes of it."""
    try:
        made = tk.as_sheaf_torsor(action).action == action
    except errors.NotASheafTorsor as err:
        made = err.report
    return (
        tk.is_sheaf(action.sets), tk.is_sheaf_of_groups(action.groups), tk.is_sheaf_torsor(action), made,
    )


@st.composite
def glued_torsors(draw):
    """A pseudocircle glue of a catalog group of order at most 12, trivial or twisted, or its round trip
    through extract_cocycle at drawn local sections."""
    group = SMALL[draw(st.sampled_from(sorted(SMALL)))]
    twist = draw(st.one_of(st.just(group.identity), st.integers(0, group.order - 1)))
    torsor = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(group, twist))
    if draw(st.booleans()):
        chosen = [draw(st.integers(0, torsor.sets.sizes[arc] - 1)) for arc in ARCS]
        torsor = tk.glue_from_cocycle(tk.extract_cocycle(torsor, ARCS, chosen))
    return torsor


@st.composite
def corrupted_glues(draw):
    """A builder of a glued torsor's action with one table corrupted: a restriction table of F or of G as
    ``test_oracles.corrupted_restrictions`` corrupts it, the rest handed over as the glue's arrays, or an
    action table with two cells swapped, a cell changed or made a float, or a row cut short."""
    action = draw(glued_torsors()).action
    gs, fs = action.groups, action.sets
    how = draw(st.sampled_from(["sets", "groups", "swap", "cell", "float", "row"]))
    if how == "sets":
        restrict = draw(corrupted_restrictions(fs))
        return lambda: SheafAction(groups=gs, sets=corrupted_sheaf(fs, restrict), arrays=action.arrays)
    if how == "groups":
        restrict = draw(corrupted_restrictions(gs.sets))
        bad = lambda: SheafOfGroups(sets=corrupted_sheaf(gs.sets, restrict), groups=gs.groups)  # noqa: E731
        return lambda: SheafAction(groups=bad(), sets=fs, arrays=action.arrays)
    act = [list(map(list, t)) for t in action.act]
    u = draw(st.sampled_from([u for u in range(len(act)) if fs.sizes[u]]))
    row = act[u][draw(st.integers(0, len(act[u]) - 1))]
    x, y = draw(st.integers(0, len(row) - 1)), draw(st.integers(0, len(row) - 1))
    if how == "swap":
        row[x], row[y] = row[y], row[x]
    elif how == "row":
        row.pop()
    else:
        row[x] = float(row[x]) if how == "float" else draw(st.integers(0, len(row)))
    return lambda: SheafAction(groups=gs, sets=fs, act=act)


# ---------------------------------------------------------------- oracles


@ORACLE
@given(glued_torsors())
def test_a_glued_torsor_equals_its_hand_built_copy_table_for_table(torsor):
    action = torsor.action
    hand = hand_copy(action)
    pairs = ((action, hand), (action.sets, hand.sets), (action.groups, hand.groups))
    for made, built in pairs:
        assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
    for made, read in ((action.sets, hand.sets), (action.groups.sets, hand.groups.sets)):
        assert made.arrays.keys() == read.arrays.keys()
        for key, arr in made.arrays.items():
            assert_stored(arr)
            assert_stored(read.arrays[key])
            assert np.array_equal(arr, read.arrays[key]) and made.restrict[key] == read.restrict[key]
            assert all(type(c) is int for c in made.restrict[key])
    for u, arr in enumerate(action.arrays):
        assert_stored(arr)
        assert_stored(hand.arrays[u])
        assert np.array_equal(arr, hand.arrays[u]) and action.act[u] == hand.act[u]
        assert all(type(c) is int for row in action.act[u] for c in row)
    assert tk.as_sheaf_torsor(hand) == torsor


@st.composite
def corrupted_opens(draw):
    """A twisted pseudocircle glue, whose whole space has no sections, with the action table of each open
    that has sections kept, or corrupted in range: two cells of a row swapped, a cell changed, or its
    points renamed, which leaves an action."""
    group = SMALL[draw(st.sampled_from([name for name in sorted(SMALL) if SMALL[name].order > 1]))]
    twist = draw(st.integers(0, group.order - 2).map(lambda g: g + (g >= group.identity)))
    action = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(group, twist)).action
    assert action.sets.sizes[PSC.whole_index] == 0
    act = [list(map(list, t)) for t in action.act]
    for u, n in enumerate(action.sets.sizes):
        how = draw(st.sampled_from(["keep", "swap", "cell", "rename"])) if n else "keep"
        if how in ("swap", "cell"):
            row = act[u][draw(st.integers(0, len(act[u]) - 1))]
            x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if how == "swap":
                row[x], row[y] = row[y], row[x]
            else:
                row[x] = y
        elif how == "rename":
            perm = draw(st.permutations(range(n)))
            back = {p: i for i, p in enumerate(perm)}
            act[u] = [[perm[r[back[z]]] for z in range(n)] for r in act[u]]
    return SheafAction(groups=action.groups, sets=action.sets, act=act)


@ORACLE
@given(corrupted_opens())
def test_each_open_of_a_sheaf_action_is_decided_as_build_action_decides_it(action):
    """One decider, two callers: the per-open witness of an open with sections is what ``build_action``
    raises on its group, section count and table, with the open added, and none when that builds; an open
    with no sections has neither witness."""
    kinds = {"action-identity", "action-compatibility"}
    witnesses = [w for w in tk.is_sheaf_torsor(action).witnesses if w["axiom"] in kinds]
    per_open = {w["open"]: w for w in witnesses}
    assert len(per_open) == len(witnesses)
    for u, (group, n, table) in enumerate(zip(action.groups.groups, action.sets.sizes, action.act)):
        if not n:
            assert u not in per_open
            continue
        try:
            tk.build_action(group, n, table)
        except (errors.IdentityAxiomViolated, errors.CompatibilityViolated) as err:
            assert per_open.pop(u) == {**err.witness(), "open": u}
        else:
            assert u not in per_open
    assert per_open == {}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(corrupted_glues(), corrupted_actions().map(lambda case: lambda: SheafAction(*case))))
def test_a_corrupted_action_and_its_hand_built_copy_get_the_same_reports(make):
    action, bad = built(make)
    if action is None:  # a malformed table raises where it enters, named by its inclusion or its open
        assert {"u", "v"} <= set(bad) or "open" in bad
        return
    hand = hand_copy(action)
    assert reports(action) == reports(hand)
    assert action == hand and repr(action) == repr(hand)


@pytest.mark.parametrize("name", tk.catalog_names())
def test_the_direct_square_equals_build_group_of_its_table(name, psc):
    group = tk.catalog_group(name)
    n, mul = group.order, group.cayley
    square = _direct_power(group, _digits(np.arange(n * n), n, 2))
    want = [[mul[a // n][c // n] * n + mul[a % n][c % n] for c in range(n * n)] for a in range(n * n)]
    assert_stored(square.array)
    assert square.array.tolist() == want and square == tk.build_group(n * n, want)
    assert _direct_power(group, _digits(np.arange(1), n, 0)) == tk.build_group(1, [[0]])
    if n * n <= sheaves.CONSTANT_SECTIONS_MAX:
        assert tk.constant_group_sheaf(psc, group).groups[psc.index_of((0, 1))] == square


# ---------------------------------------------------------------- copies


@pytest.mark.parametrize("kind", ["glued", "viewed", "hand-read", "hand-unread"])
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_copies_of_sheaves_keep_their_arrays_read_only(clone, kind):
    action = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(tk.catalog_group("symmetric(3)"), 3)).action
    if kind == "viewed":
        action.act, action.sets.restrict, action.groups.sets.restrict
    elif kind.startswith("hand"):
        action = hand_copy(action)
        if kind == "hand-read":
            tk.is_sheaf_torsor(action)
    copied = clone(action)
    held = (copied, copied.sets, copied.groups.sets)
    # read when built, before any validator runs: every copy holds its arrays, and only the views it had
    assert all(_arrays_in(vars(obj)["arrays"]) for obj in held)
    assert ("act" in vars(copied)) == (kind == "viewed")
    assert copied == action and reports(copied) == reports(action)
    for obj in held:
        for arr in _arrays_in(obj.arrays):
            assert_stored(arr)


# ---------------------------------------------------------------- readers and views never run


@pytest.fixture
def readers(monkeypatch):
    """The calls of the table reader and the view builder, by name, from every module that calls it."""
    calls = {name: [] for name in ("_tuples", "_index_table")}
    for module in (groups, actions, sheaves):
        for name, record in calls.items():
            if hasattr(module, name):
                real = getattr(module, name)
                spy = lambda *args, real=real, record=record, **where: record.append(args) or real(*args, **where)  # noqa: E731
                monkeypatch.setattr(module, name, spy)
    return calls


def _views(*objs):
    return [(type(obj).__name__, view) for obj in objs for view in ("_tables", "act", "cayley") if view in vars(obj)]


def test_glue_deciding_extracting_lifting_and_writing_run_no_reader(readers):
    group, affine = tk.catalog_group("symmetric(3)"), tk.affine_torsor(2, 8)  # fresh: nothing cached
    for record in readers.values():
        record.clear()
    # the constant sheaf, glue, as_sheaf_torsor on a glued torsor, the lift and the writers read no table
    torsors = [tk.glue_from_cocycle(tk.pseudocircle_descent_datum(group, twist)) for twist in (0, 3)]
    torsors.append(tk.glue_from_cocycle(tk.extract_cocycle(torsors[0], ARCS, (1, 2))))
    for torsor in torsors:
        assert tk.as_sheaf_torsor(torsor.action) == torsor
        jsonio.sheaf_action_to_obj(torsor.action)
    lifted = tk.lift_point_torsor(affine)
    assert readers == dict.fromkeys(readers, [])
    held = [obj for t in [*torsors, lifted] for obj in (t.action, t.sets, t.groups.sets, *t.groups.groups)]
    assert _views(*held, affine.action, affine.group) == []
    assert lifted.action.arrays[1] is affine.action.array
    for torsor in torsors:
        assert jsonio.sheaf_action_from_obj(jsonio.sheaf_action_to_obj(torsor.action)) == torsor.action
    assert len(readers["_index_table"]) > 0  # the spy sees the readers of a hand-built object


def test_a_hand_built_action_is_lifted_from_its_tuples_read_once(readers):
    group = tk.catalog_group("cyclic(3)")
    cayley = group.cayley
    for record in readers.values():
        record.clear()
    action = tk.GroupAction(group=group, set_size=3, act=cayley)
    assert [args[0] for args in readers["_index_table"]] == [cayley]  # read once, when built
    lifted = tk.lift_point_action(action)
    for _ in range(2):
        assert tk.is_sheaf_torsor(lifted).passed
    assert len(readers["_index_table"]) == 1 and readers["_tuples"] == []
    assert lifted.arrays[1] is action.array


def test_repr_prints_the_stored_arrays_and_builds_no_view(readers):
    torsor = tk.affine_torsor(2, 8)  # order 256: 65536 cells per table
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(tk.catalog_group("cyclic(6)"), 5))
    for record in readers.values():
        record.clear()
    texts = [repr(obj) for obj in (torsor.group, torsor.action, glued.sets, glued.groups, glued.action, glued)]
    assert readers == dict.fromkeys(readers, []) and _views(torsor.group, torsor.action, glued.action, glued.sets) == []
    # numpy's repr summarises a large table
    assert "..." in texts[0] and len(texts[0]) < 5000 and texts[1].startswith("GroupAction(group=FiniteGroup(order=256")
    assert "array([[0, 1, 2, 3, 4, 5]" in texts[4] and texts[5] == f"SheafTorsor(action={texts[4]})"


@pytest.mark.parametrize("shift", [-1, 1], ids=["a-miss", "past-the-families"])
def test_glue_checks_each_handed_over_entry_names_a_family_of_its_open(z3, monkeypatch, shift):
    # the one check of glue's own arrays: a miss (-1) or a row past F(u) is an internal fault
    datum, real = tk.pseudocircle_descent_datum(z3, 1), sheaves._locate
    monkeypatch.setattr(sheaves, "_locate", lambda *args: real(*args) + np.int32(shift))
    with pytest.raises(errors.InternalError, match="has no image family"):
        tk.glue_from_cocycle(datum)
