"""Actions, orbits, torsor validation, transporters, trivializations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsorkit as tk
from torsorkit.actions import GroupAction, _right_compatibility_witness
from torsorkit.errors import (
    CompatibilityViolated,
    EmptySet,
    IdentityAxiomViolated,
    MalformedTable,
    Mismatch,
    NotFree,
    NotTransitive,
    PointOutOfRange,
    RightCompatibilityViolated,
    RightIdentityViolated,
    TorsorError,
)


def translation(z3):
    return tk.build_action(z3, 3, z3.cayley)


def two_swaps(z2):
    # Z/2 acting on 4 points as two disjoint swaps {0,1} and {2,3}
    return tk.build_action(z2, 4, [[0, 1, 2, 3], [1, 0, 3, 2]])


def test_build_action_translation(z3):
    action = translation(z3)
    assert action.set_size == 3


def test_build_action_trivial(z2):
    tk.build_action(z2, 2, [[0, 1], [0, 1]])


def test_identity_axiom_witness(z2):
    with pytest.raises(IdentityAxiomViolated) as exc:
        tk.build_action(z2, 2, [[1, 0], [0, 1]])
    assert exc.value.data["x"] == 0


def test_compatibility_witness(z2):
    with pytest.raises(CompatibilityViolated) as exc:
        tk.build_action(z2, 3, [[0, 1, 2], [1, 2, 0]])
    w = exc.value.data
    assert (w["g"], w["h"], w["x"]) == (1, 1, 0)


def test_build_action_rejects_empty(z2):
    with pytest.raises(MalformedTable):
        tk.build_action(z2, 0, [[], []])


def test_orbit_translation(z3):
    assert tk.orbit(translation(z3), 0) == (0, 1, 2)


def test_orbit_two_swaps(z2):
    assert tk.orbit(two_swaps(z2), 2) == (2, 3)


def test_orbit_trivial_action(z2):
    action = tk.build_action(z2, 2, [[0, 1], [0, 1]])
    assert tk.orbit(action, 1) == (1,)
    with pytest.raises(PointOutOfRange):
        tk.orbit(action, 5)


def test_stabilizer_coset_action(s3):
    sub = tk.build_subgroup(s3, [0, 2])
    action = tk.coset_action(s3, sub)
    assert tk.stabilizer(action, 0) == (0, 2)
    assert len(tk.stabilizer(action, 0)) == 2


def test_stabilizer_translation_free(z3):
    action = translation(z3)
    for x in range(3):
        assert tk.stabilizer(action, x) == (0,)


def test_stabilizer_trivial_action(z2):
    action = tk.build_action(z2, 2, [[0, 1], [0, 1]])
    assert tk.stabilizer(action, 0) == (0, 1)


def test_is_free_two_swaps(z2):
    assert tk.is_free(two_swaps(z2)) == (True, None)


def test_is_free_coset_witness(s3):
    # identity plus the lexicographically least transposition
    sub = tk.build_subgroup(s3, [0, 1])
    free, wit = tk.is_free(tk.coset_action(s3, sub))
    assert not free
    assert wit == (1, 0)  # that transposition fixes the identity coset
    action = tk.coset_action(s3, sub)
    assert action.act[wit[0]][wit[1]] == wit[1]


def test_is_free_trivial_one_point(z2):
    action = tk.build_action(z2, 1, [[0], [0]])
    free, wit = tk.is_free(action)
    assert not free and wit == (1, 0)


def test_is_transitive_translation(z3):
    assert tk.is_transitive(translation(z3)) == (True, None)


def test_is_transitive_two_swaps_witness(z2):
    trans, wit = tk.is_transitive(two_swaps(z2))
    assert not trans and wit == (0, 2)


def test_is_transitive_coset(s3):
    sub = tk.build_subgroup(s3, [0, 2])
    assert tk.is_transitive(tk.coset_action(s3, sub)) == (True, None)


def test_as_torsor_translation(z3):
    torsor = tk.as_torsor(translation(z3))
    assert torsor.set_size == 3


def test_as_torsor_coset_not_free(s3):
    sub = tk.build_subgroup(s3, [0, 2])
    with pytest.raises(NotFree):
        tk.as_torsor(tk.coset_action(s3, sub))


def test_as_torsor_two_swaps_not_transitive(z2):
    with pytest.raises(NotTransitive):
        tk.as_torsor(two_swaps(z2))


def test_as_torsor_empty_set(z2):
    action = GroupAction(group=z2, set_size=0, act=((), ()))
    with pytest.raises(EmptySet):
        tk.as_torsor(action)


def run_optimized(code):
    """Run code under python -O with torsorkit importable; return its stdout."""
    src = str(Path(tk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_unique_transport_oracle_survives_python_O():
    # free and transitive, yet g3 sends both 1 and 3 to 2 and 0: no valid action does that,
    # so only the oracle can catch it, and it must still raise under -O
    code = """
import torsorkit as tk
from torsorkit.actions import GroupAction
from torsorkit.errors import InternalError
z4 = tk.catalog_group("cyclic(4)")
act = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 2, 1, 0))
try:
    tk.as_torsor(GroupAction(group=z4, set_size=4, act=act))
except InternalError as err:
    print("InternalError:", err)
"""
    assert run_optimized(code).startswith("InternalError: unique-transport oracle")


def test_local_transporter_check_survives_python_O():
    # a SheafTorsor built around an unvalidated trivial action: both elements of
    # cyclic(2) carry the one point to itself, so the transporter is not unique
    code = """
import torsorkit as tk
from torsorkit.actions import GroupAction
from torsorkit.errors import InternalError
from torsorkit.sheaves import SheafTorsor
z2 = tk.catalog_group("cyclic(2)")
torsor = SheafTorsor(tk.lift_point_action(GroupAction(group=z2, set_size=1, act=((0,), (0,)))))
try:
    tk.extract_cocycle(torsor, [1, 1], [0, 0])
except InternalError as err:
    print("InternalError:", err)
"""
    assert run_optimized(code).startswith("InternalError: local transporter not unique")


def test_internal_error_is_not_a_verdict():
    assert not issubclass(tk.errors.InternalError, tk.errors.TorsorError)


def test_transporter_translation(z3):
    torsor = tk.as_torsor(translation(z3))
    assert tk.transporter(torsor, 1, 2) == 1
    assert tk.transporter(torsor, 2, 1) == 2
    mutual = tk.transporter(torsor, 1, 2)
    assert z3.inv(mutual) == tk.transporter(torsor, 2, 1)


def test_transporter_fixed_point_is_identity(z3, s3):
    for group in (z3, s3):
        torsor = tk.as_torsor(tk.left_translation_action(group))
        for x in range(group.order):
            assert tk.transporter(torsor, x, x) == group.identity


def test_trivialization_tables(z3):
    torsor = tk.as_torsor(translation(z3))
    triv = tk.trivialization(torsor, 1)
    assert triv.to_points == (1, 2, 0)
    triv0 = tk.trivialization(torsor, 0)
    assert triv0.to_points == (0, 1, 2)


def test_trivialization_round_trips(s3):
    torsor = tk.as_torsor(tk.left_translation_action(s3))
    for x0 in range(6):
        triv = tk.trivialization(torsor, x0)
        assert triv.to_group[x0] == s3.identity
        for g in range(6):
            assert triv.to_group[triv.to_points[g]] == g
        for x in range(6):
            assert triv.to_points[triv.to_group[x]] == x
            assert triv.to_group[x] == tk.transporter(torsor, x0, x)


def test_basepoint_change(z3, s3):
    torsor = tk.as_torsor(translation(z3))
    change = tk.basepoint_change(torsor, 0, 1)
    assert change.element == 1
    assert change.report.passed

    same = tk.basepoint_change(torsor, 2, 2)
    assert same.element == z3.identity

    t6 = tk.as_torsor(tk.left_translation_action(s3))
    ch = tk.basepoint_change(t6, 0, 2)
    assert ch.element == tk.transporter(t6, 0, 2)
    assert ch.report.passed


def test_transporter_is_the_unique_element_a_scan_finds(s3):
    torsors = [
        tk.affine_torsor(3, 2),
        tk.basis_torsor(2, 2),
        tk.coset_torsor(s3, tk.build_subgroup(s3, [0, 3, 4]), 1),
        tk.as_torsor(tk.right_action_as_left(s3, 6, s3.cayley)),  # right multiplication
    ]
    for torsor in torsors:
        for x in range(torsor.set_size):
            for y in range(torsor.set_size):
                hits = [g for g in torsor.group.elements() if torsor.act[g][x] == y]
                assert [tk.transporter(torsor, x, y)] == hits


def test_basepoint_change_names_the_least_element_that_breaks_the_identity():
    # unvalidated: column 0 is a bijection, so h = tr(0, 1) = 1, but 1.1 and 3.1 are corrupted,
    # so g.1 != (g*1).0 at g = 1 and g = 3
    z4 = tk.catalog_group("cyclic(4)")
    act = ((0, 1, 2, 3), (1, 3, 3, 0), (2, 3, 0, 1), (3, 2, 1, 2))
    torsor = tk.actions.Torsor(GroupAction(group=z4, set_size=4, act=act))
    assert tk.transporter(torsor, 0, 1) == 1
    with pytest.raises(tk.errors.InternalError, match=r"g.x1 != \(g\*h\).x0 at g=1$"):
        tk.basepoint_change(torsor, 0, 1)


def test_transported_group_law(z3):
    torsor = tk.as_torsor(translation(z3))
    g1 = tk.transported_group(torsor, 1)
    for x in range(3):
        for y in range(3):
            assert g1.cayley[x][y] == (x + y - 1) % 3
    assert g1.cayley[2][2] == 0
    assert g1.identity == 1


def test_transported_group_distinct_basepoints(s3):
    torsor = tk.as_torsor(tk.left_translation_action(s3))
    laws = [tk.transported_group(torsor, x0) for x0 in range(6)]
    for x0, law in enumerate(laws):
        assert law.identity == x0
    for a in range(6):
        for b in range(a + 1, 6):
            assert laws[a].cayley != laws[b].cayley


def test_right_translation_abelian(z3):
    right = [[z3.cayley[x][g] for g in range(3)] for x in range(3)]
    action = tk.right_action_as_left(z3, 3, right)
    assert action.act == translation(z3).act  # commutativity


def test_right_multiplication_s3_is_torsor(s3):
    right = [[s3.cayley[x][g] for g in range(6)] for x in range(6)]
    action = tk.right_action_as_left(s3, 6, right)
    assert action.group == tk.opposite_group(s3)
    tk.as_torsor(action)


def test_right_identity_violated(z2):
    with pytest.raises(RightIdentityViolated):
        tk.right_action_as_left(z2, 2, [[1, 0], [0, 1]])


def test_right_table_shape_errors_name_the_bad_row(z2):
    with pytest.raises(MalformedTable) as exc:
        tk.right_action_as_left(z2, 2, [[0, 1], [1]])
    assert exc.value.data == {"row": 1}
    with pytest.raises(MalformedTable) as exc:
        tk.right_action_as_left(z2, 2, [[0, 1]])
    assert exc.value.data == {"rows": 1}


def test_right_compatibility_violated(s3):
    right = [[s3.cayley[x][g] for g in range(6)] for x in range(6)]
    right[1][2] = (right[1][2] + 1) % 6
    with pytest.raises((RightCompatibilityViolated, RightIdentityViolated)):
        tk.right_action_as_left(s3, 6, right)


def test_the_right_compatibility_scan_finds_nothing_in_a_right_action(s3):
    """``right_action_as_left`` runs the scan only once build_action has refused, so only a direct call
    sees it come back empty: right multiplication, x*g = xg, is compatible."""
    assert _right_compatibility_witness(s3.array, s3.array) is None
    bad = s3.array.copy()
    bad[1, 2] = (bad[1, 2] + 1) % 6
    assert _right_compatibility_witness(bad, s3.array) is not None


def test_right_torsor_status_preserved_both_ways(s3):
    # the trivial right action normalizes fine but is not a torsor
    sub = tk.build_subgroup(s3, [0, 2])
    hgrp = tk.subgroup_as_group(sub)
    trivial_right = [[x for _ in range(hgrp.order)] for x in range(2)]
    action = tk.right_action_as_left(hgrp, 2, trivial_right)
    with pytest.raises(NotFree):
        tk.as_torsor(action)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["cyclic(4)", "cyclic(5)", "symmetric(3)", "klein_four"]),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_transporter_identities_property(name, seed, data):
    import random

    group = tk.catalog_group(name)
    rng = random.Random(seed)
    relabel = list(range(group.order))
    rng.shuffle(relabel)
    inverse = [0] * group.order
    for i, v in enumerate(relabel):
        inverse[v] = i
    act = [
        [relabel[group.cayley[g][inverse[x]]] for x in range(group.order)]
        for g in group.elements()
    ]
    torsor = tk.as_torsor(tk.build_action(group, group.order, act))
    pts = st.integers(min_value=0, max_value=group.order - 1)
    x, y, z = data.draw(pts), data.draw(pts), data.draw(pts)
    assert tk.transporter(torsor, x, x) == group.identity
    assert group.inv(tk.transporter(torsor, x, y)) == tk.transporter(torsor, y, x)
    assert group.mul(
        tk.transporter(torsor, y, z), tk.transporter(torsor, x, y)
    ) == tk.transporter(torsor, x, z)


# ---------------------------------------------------------------- the generating set kept on the group


def _order_256_groups():
    xor = tk.build_group(256, [[a ^ b for b in range(256)] for a in range(256)])
    z16_squared = tk.build_group(
        256, [[(a + b) % 16 + 16 * ((a // 16 + b // 16) % 16) for b in range(256)] for a in range(256)]
    )
    return xor, z16_squared


def _cold(group):
    """A value-equal group object whose generating set is not found yet."""
    from torsorkit.groups import FiniteGroup

    cold = FiniteGroup(order=group.order, cayley=group.cayley, identity=group.identity, inverse=group.inverse)
    assert cold == group and "generators" not in vars(cold)
    return cold


def _witness(group, size, table):
    try:
        tk.build_action(group, size, table)
    except CompatibilityViolated as exc:
        return exc.data
    return None


@pytest.mark.parametrize("seed", range(12))
def test_corrupted_order_256_actions_get_the_least_witness_cold_and_warm(seed):
    import random

    import numpy as np

    from torsorkit.groups import _compatibility_witness

    rng = random.Random(seed)
    warm = _order_256_groups()[seed % 2]
    assert warm.generators is not None and "generators" in vars(warm)
    # the regular action, or the quotient action on 16 points through the low coordinate
    size = 256 if seed < 6 else 16
    table = [[warm.cayley[g][x] % size for x in range(size)] for g in range(256)]
    for _ in range(1 + seed % 3):
        g = rng.choice([g for g in range(256) if g != warm.identity])
        x1, x2 = rng.sample(range(size), 2)
        table[g][x1], table[g][x2] = table[g][x2], table[g][x1]
    scan = _compatibility_witness(np.array(table), warm.array, warm.identity, None)
    want = None if scan is None else dict(zip("ghx", scan))
    cold = _cold(warm)
    assert _witness(cold, size, table) == want
    assert cold.generators == warm.generators
    assert _witness(warm, size, table) == want


def test_a_second_build_action_on_one_group_does_not_search_for_generators(monkeypatch):
    import torsorkit.groups as groups

    s4 = _cold(tk.catalog_group("symmetric(4)"))
    calls, real = [], groups._generators
    monkeypatch.setattr(groups, "_generators", lambda *args: calls.append(args) or real(*args))
    for _ in range(2):
        tk.build_action(s4, s4.order, s4.cayley)
    assert len(calls) == 1
    # build_group hands the set it found to the group it returns
    built = tk.build_group(s4.order, s4.cayley)
    tk.build_action(built, built.order, built.cayley)
    tk.build_action(built, 1, [[0]] * built.order)
    assert len(calls) == 2 and built.generators == s4.generators
    # Light's test runs at every order: symmetric(3) searches once, in build_group, and keeps the set
    cayley = tk.catalog_group("symmetric(3)").cayley
    calls.clear()
    s3 = tk.build_group(6, cayley)
    tk.build_action(s3, 6, s3.cayley)
    tk.build_action(s3, 1, [[0]] * s3.order)
    assert len(calls) == 1 and s3.generators == (1, 2)


def test_a_group_with_a_warm_generating_set_survives_pickle_and_deepcopy():
    import copy
    import pickle

    group = _order_256_groups()[1]
    broken = [list(row) for row in group.cayley]
    broken[5][0], broken[5][1] = broken[5][1], broken[5][0]
    want = _witness(group, 256, broken)
    assert want is not None
    for clone in (pickle.loads(pickle.dumps(group)), copy.deepcopy(group)):
        assert clone == group and vars(clone)["generators"] == group.generators
        assert tk.build_action(clone, 256, group.cayley).act == group.cayley
        assert _witness(clone, 256, broken) == want


def test_coset_list_and_coset_action_refuse_a_subgroup_of_another_group():
    c4, c6 = tk.catalog_group("cyclic(4)"), tk.catalog_group("cyclic(6)")
    in_c6 = tk.build_subgroup(c6, [0, 3])
    in_s3 = tk.build_subgroup(tk.catalog_group("symmetric(3)"), [0, 1])
    with pytest.raises(Mismatch):
        tk.coset_list(c4, in_c6)  # read on c4's table, {0, 3} gave one coset, [(0, 3)]
    with pytest.raises(Mismatch):
        tk.coset_action(c4, in_s3)  # decided on c4's table, it gave a false compatibility witness
    # an equal copy of the parent is the same group
    assert tk.coset_list(tk.catalog_group("cyclic(6)"), in_c6) == [(0, 3), (1, 4), (2, 5)]


@pytest.mark.parametrize("members,witness", [
    ((0, 1), {"axiom": "subgroup-closure", "a": 1, "b": 1, "product": 2}),  # gave overlapping "cosets"
    ((1, 3), {"axiom": "subgroup-identity", "identity": 0}),                # gave no coset at all
    ((0, 2, 2), {"axiom": "malformed-table", "position": 2, "element": 2}),  # gave repeated members
    ((0, 7), {"axiom": "malformed-table", "position": 1}),                  # raised a bare IndexError
], ids=["not-closed", "no-identity", "repeated", "out-of-range"])
def test_coset_list_and_coset_action_decide_a_hand_built_subgroup_as_coset_torsor_does(members, witness):
    c4 = tk.catalog_group("cyclic(4)")
    sub = tk.Subgroup(c4, members)
    for build in (tk.coset_torsor, tk.coset_list, tk.coset_action):
        with pytest.raises(TorsorError) as err:
            build(c4, sub, 0) if build is tk.coset_torsor else build(c4, sub)
        assert err.value.witness() == witness


def test_an_empty_action_is_transitive_and_free_but_no_torsor(z2):
    empty = tk.GroupAction(z2, 0, act=[[], []])
    assert tk.is_transitive(empty) == tk.is_free(empty) == (True, None)
    with pytest.raises(EmptySet):
        tk.as_torsor(empty)
