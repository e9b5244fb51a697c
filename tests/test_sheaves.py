"""Sheaf axioms, sheaf torsors, descent gluing, and the pseudocircle twist."""

import itertools
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest

import torsorkit as tk
from torsorkit import jsonio
from torsorkit.errors import (
    CoverIncomplete,
    MalformedTable,
    Mismatch,
    NoLocalSection,
    NotASheafTorsor,
    TooLarge,
    TripleViolation,
    UnknownOpen,
)
from torsorkit.sheaves import SheafAction, SheafOfSets


@pytest.fixture(scope="module")
def three_arm():
    """Four points; three arms {0,i} glued at the common point 0."""
    return tk.close_under_ops(4, [(0, 1), (0, 2), (0, 3)])


def sheaf_cochains(gs, cover):
    """All sheaf-level cochains (one section of G per cover open)."""
    return itertools.product(*(gs.sections(u) for u in cover))


def coboundary_related(gs, cover, d1, d2):
    """Oracle: some cochain h turns d1 into d2 edgewise."""
    space = gs.space
    pairs = [(i, j) for i in range(len(cover)) for j in range(i + 1, len(cover))]
    for h in sheaf_cochains(gs, cover):
        ok = True
        for i, j in pairs:
            w = space.intersection_index(cover[i], cover[j])
            grp = gs.groups[w]
            hi = gs.restrict_section(cover[i], h[i], w)
            hj = gs.restrict_section(cover[j], h[j], w)
            if d2.value(i, j) != grp.mul(grp.mul(hi, d1.value(i, j)), grp.inv(hj)):
                ok = False
                break
        if ok:
            return True
    return False


def test_constant_sheaf_one_point(z2):
    gs = tk.constant_group_sheaf(tk.point_space(), z2)
    assert gs.sets.sizes == (1, 2)
    assert tk.is_sheaf(gs.sets).passed


def test_constant_sheaf_pseudocircle_sizes(psc, z2):
    gs = tk.constant_group_sheaf(psc, z2)
    assert gs.sets.sizes == (1, 2, 2, 4, 2, 2, 2)
    assert gs.sets.sizes[psc.empty_index] == 1
    assert tk.is_sheaf(gs.sets).passed
    assert tk.is_sheaf_of_groups(gs).passed


def test_constant_sheaf_restriction_is_hom(psc, s3):
    gs = tk.constant_group_sheaf(psc, s3)
    assert tk.is_sheaf_of_groups(gs).passed


def test_constant_sheaf_on_the_discrete_5_point_space(z2):
    # 32 opens, 31 of them nonempty inside the whole space: gluing is decided
    # on the minimal cover, not on the 2^31 subsets of sub-opens
    space = tk.close_under_ops(5, [(x,) for x in range(5)])
    rep = tk.is_sheaf(tk.constant_group_sheaf(space, z2).sets)
    assert rep.passed
    assert rep.counts["opens"] == 32


def test_constant_presheaf_fails_gluing(psc, z2):
    # constant values (not locally constant): 2 sections on every nonempty open
    sizes = tuple(1 if not o else 2 for o in psc.opens)
    restrict = {}
    for u, ou in enumerate(psc.opens):
        for v, ov in enumerate(psc.opens):
            if u != v and frozenset(ov) <= frozenset(ou):
                if ov:
                    restrict[(u, v)] = tuple(range(2))
                else:
                    restrict[(u, v)] = tuple(0 for _ in range(sizes[u]))
    presheaf = SheafOfSets(space=psc, sizes=sizes, restrict=restrict)
    rep = tk.is_sheaf(presheaf)
    assert not rep.passed
    assert any(w["axiom"] == "gluing" for w in rep.witnesses)


def test_broken_restriction_is_witnessed(psc, z2):
    gs = tk.constant_group_sheaf(psc, z2)
    overlap = psc.index_of((0, 1))
    arc = psc.index_of((0, 1, 2))
    restrict = dict(gs.sets.restrict)
    table = list(restrict[(arc, overlap)])
    table[0], table[1] = table[1], table[0]
    restrict[(arc, overlap)] = tuple(table)
    broken = SheafOfSets(space=psc, sizes=gs.sets.sizes, restrict=restrict)
    assert not tk.is_sheaf(broken).passed


def test_empty_open_must_be_singleton(psc, z2):
    gs = tk.constant_group_sheaf(psc, z2)
    sizes = list(gs.sets.sizes)
    sizes[psc.empty_index] = 2
    restrict = dict(gs.sets.restrict)
    for (u, v), table in restrict.items():
        if v == psc.empty_index:
            restrict[(u, v)] = tuple(0 for _ in table)
    bad = SheafOfSets(space=psc, sizes=tuple(sizes), restrict=restrict)
    rep = tk.is_sheaf(bad)
    assert not rep.passed
    assert any(w["axiom"] == "empty-sections" for w in rep.witnesses)


def test_glue_pseudocircle_twisted_counts(psc, z2):
    datum = tk.pseudocircle_descent_datum(z2, 1)
    torsor = tk.glue_from_cocycle(datum)
    u1, u2 = psc.index_of((0, 1, 2)), psc.index_of((0, 1, 3))
    assert len(tk.sections(torsor, u1)) == 2
    assert len(tk.sections(torsor, u2)) == 2
    assert len(tk.global_sections(torsor)) == 0


def test_a_descent_datum_derives_its_diagonal_and_its_values_below_it():
    """g_ii is the identity of G(U_i) and g_ji is g_ij^-1; ``glue_from_cocycle`` reads only g_ij with i < j."""
    datum = tk.pseudocircle_descent_datum(tk.catalog_group("cyclic(3)"), 1)
    assert datum.transition == {(0, 1): 1}
    assert [[datum.value(i, j) for j in range(2)] for i in range(2)] == [[0, 1], [2, 0]]


def test_glue_pseudocircle_trivial_counts(psc, z2):
    datum = tk.pseudocircle_descent_datum(z2, 0)
    torsor = tk.glue_from_cocycle(datum)
    gs = datum.groups
    for u in range(len(psc.opens)):
        assert torsor.sets.sizes[u] == gs.sets.sizes[u]  # local triviality
    assert len(tk.global_sections(torsor)) == 2


def test_glue_one_point_space(s3):
    space = tk.point_space()
    gs = tk.constant_group_sheaf(space, s3)
    datum = tk.build_descent_datum(gs, [space.whole_index], {})
    torsor = tk.glue_from_cocycle(datum)
    assert len(tk.global_sections(torsor)) == 6


def test_glue_outputs_revalidate(psc, z2, three_arm, s3):
    data = [
        tk.pseudocircle_descent_datum(z2, 1),
        tk.pseudocircle_descent_datum(z2, 0),
    ]
    gs = tk.constant_group_sheaf(three_arm, s3)
    cov = (
        three_arm.index_of((0, 1)),
        three_arm.index_of((0, 2)),
        three_arm.index_of((0, 3)),
    )
    g01, g12 = 3, 5
    data.append(
        tk.build_descent_datum(
            gs, cov, {(0, 1): g01, (1, 2): g12, (0, 2): s3.mul(g01, g12)}
        )
    )
    for datum in data:
        torsor = tk.glue_from_cocycle(datum)
        assert tk.is_sheaf(torsor.sets).passed
        assert tk.is_sheaf_torsor(torsor.action).passed


def test_descent_datum_triple_violation(three_arm, s3):
    gs = tk.constant_group_sheaf(three_arm, s3)
    cov = (
        three_arm.index_of((0, 1)),
        three_arm.index_of((0, 2)),
        three_arm.index_of((0, 3)),
    )
    g01, g12 = 3, 5
    wrong = s3.mul(g12, g01)  # nonabelian: wrong order breaks the identity
    assert wrong != s3.mul(g01, g12)
    with pytest.raises(TripleViolation):
        tk.build_descent_datum(gs, cov, {(0, 1): g01, (1, 2): g12, (0, 2): wrong})


def test_descent_datum_cover_incomplete(psc, z2):
    gs = tk.constant_group_sheaf(psc, z2)
    for cover in ([psc.index_of((0, 1, 2))], []):
        with pytest.raises(CoverIncomplete, match="cover misses points"):
            tk.build_descent_datum(gs, cover, {})
    torsor = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 0))
    with pytest.raises(CoverIncomplete, match=r"cover misses points \[3\]"):
        tk.extract_cocycle(torsor, [psc.index_of((0, 1, 2))], [0])


def test_sections_unknown_open(psc, z2):
    torsor = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 0))
    with pytest.raises(UnknownOpen):
        tk.sections(torsor, 99)


def test_extract_trivial_gives_identity_transitions(psc, z2):
    datum = tk.pseudocircle_descent_datum(z2, 0)
    torsor = tk.glue_from_cocycle(datum)
    cover = datum.cover
    # matching sections: both restrict to the same thing on the overlap
    gs = datum.groups
    w = psc.intersection_index(*cover)
    for s1 in tk.sections(torsor, cover[0]):
        for s2 in tk.sections(torsor, cover[1]):
            if torsor.sets.restrict_section(cover[0], s1, w) == \
               torsor.sets.restrict_section(cover[1], s2, w):
                out = tk.extract_cocycle(torsor, cover, (s1, s2))
                assert out.value(0, 1) == gs.groups[w].identity


def test_extract_twisted_never_constant(psc, z2):
    datum = tk.pseudocircle_descent_datum(z2, 1)
    torsor = tk.glue_from_cocycle(datum)
    cover = datum.cover
    w = psc.intersection_index(*cover)
    constant_ids = {
        tk.constant_section_id(z2, (v, v)) for v in z2.elements()
    }
    for s1 in tk.sections(torsor, cover[0]):
        for s2 in tk.sections(torsor, cover[1]):
            out = tk.extract_cocycle(torsor, cover, (s1, s2))
            assert out.value(0, 1) not in constant_ids


def test_extract_round_trip_is_coboundary(psc, z2, s3):
    for group, twist in ((z2, 1), (s3, 4)):
        gs = tk.constant_group_sheaf(psc, group)
        cover = (psc.index_of((0, 1, 2)), psc.index_of((0, 1, 3)))
        val = tk.constant_section_id(group, (group.identity, twist))
        datum = tk.build_descent_datum(gs, cover, {(0, 1): val})
        torsor = tk.glue_from_cocycle(datum)
        extracted = tk.extract_cocycle(torsor, cover, (0, 0))
        assert coboundary_related(gs, cover, datum, extracted)


def test_section_change_moves_by_coboundary_only(psc, z2):
    datum = tk.pseudocircle_descent_datum(z2, 1)
    torsor = tk.glue_from_cocycle(datum)
    cover = datum.cover
    gs = datum.groups
    extracted = [
        tk.extract_cocycle(torsor, cover, (s1, s2))
        for s1 in tk.sections(torsor, cover[0])
        for s2 in tk.sections(torsor, cover[1])
    ]
    for a in extracted:
        for b in extracted:
            assert coboundary_related(gs, cover, a, b)
        assert coboundary_related(gs, cover, a, datum)


def test_extract_no_local_section(psc, z2):
    datum = tk.pseudocircle_descent_datum(z2, 1)
    torsor = tk.glue_from_cocycle(datum)
    with pytest.raises(NoLocalSection):
        tk.extract_cocycle(torsor, [psc.whole_index], [0])


def test_lift_point_torsor_round_trip(z3):
    torsor = tk.as_torsor(tk.left_translation_action(z3))
    lifted = tk.lift_point_torsor(torsor)
    assert len(tk.global_sections(lifted)) == 3
    whole = lifted.space.whole_index
    assert lifted.action.act[whole] == torsor.act


def test_lift_point_torsor_for_constructions(s3):
    for torsor in (
        tk.affine_torsor(3, 1),
        tk.coset_torsor(s3, tk.build_subgroup(s3, [0, 2]), 5),
    ):
        lifted = tk.lift_point_torsor(torsor)
        assert tk.is_sheaf_torsor(lifted.action).passed


def test_a_group_past_the_constant_sheaf_guard_still_lifts():
    # on the one point G is the group itself: no |G|^k table, so CONSTANT_SECTIONS_MAX does not apply
    torsor = tk.solution_torsor(tk.prime_field_matrix(2, [[1] * 11]), [1])
    assert torsor.group.order == 1024 > tk.sheaves.CONSTANT_SECTIONS_MAX
    lifted = tk.lift_point_torsor(torsor)
    assert lifted.groups.groups[lifted.space.whole_index] is torsor.group
    assert lifted.action.act[lifted.space.whole_index] == torsor.act


def test_lift_broken_actions_fail(z2, s3):
    trivial = tk.build_action(z2, 2, [[0, 1], [0, 1]])
    rep = tk.is_sheaf_torsor(tk.lift_point_action(trivial))
    assert not rep.passed
    assert any(w["axiom"] == "local-transport" for w in rep.witnesses)

    sub = tk.build_subgroup(s3, [0, 2])
    coset = tk.coset_action(s3, sub)  # transitive but not free
    rep2 = tk.is_sheaf_torsor(tk.lift_point_action(coset))
    assert not rep2.passed

    two_swaps = tk.build_action(z2, 4, [[0, 1, 2, 3], [1, 0, 3, 2]])
    rep3 = tk.is_sheaf_torsor(tk.lift_point_action(two_swaps))  # free, intransitive
    assert not rep3.passed

    with pytest.raises(NotASheafTorsor):
        tk.as_sheaf_torsor(tk.lift_point_action(trivial))


def test_glued_action_axioms_nonabelian(three_arm, s3):
    # the right-inverse chart action must satisfy the left action axioms
    gs = tk.constant_group_sheaf(three_arm, s3)
    cov = (
        three_arm.index_of((0, 1)),
        three_arm.index_of((0, 2)),
        three_arm.index_of((0, 3)),
    )
    datum = tk.build_descent_datum(
        gs, cov, {(0, 1): 2, (1, 2): 3, (0, 2): s3.mul(2, 3)}
    )
    torsor = tk.glue_from_cocycle(datum)
    whole = three_arm.whole_index
    act = torsor.action.act[whole]
    grp = gs.groups[whole]
    for a in grp.elements():
        for b in grp.elements():
            for s in range(torsor.sets.sizes[whole]):
                assert act[grp.mul(a, b)][s] == act[a][act[b][s]]


@pytest.mark.parametrize("cover,transition,data", [
    ([4.7, 5], {(0, 1): 0}, {"position": 0}),
    ([4, True], {(0, 1): 0}, {"position": 1}),
    ([4, 5], {(0, 1.2): 0}, {"key": "(0, 1.2)"}),
    ([4, 5], {(0, 1): 3.9}, {"i": 0, "j": 1}),
    ([4, 5], {(0, 1): True}, {"i": 0, "j": 1}),
])
def test_descent_datum_inputs_must_be_integers(psc, z2, cover, transition, data):
    gs = tk.constant_group_sheaf(psc, z2)
    with pytest.raises(MalformedTable) as exc:
        tk.build_descent_datum(gs, cover, transition)
    assert exc.value.data == data


def test_descent_datum_accepts_numpy_integers(psc, z2):
    import numpy as np

    gs = tk.constant_group_sheaf(psc, z2)
    datum = tk.build_descent_datum(gs, [np.int64(4), 5], {(np.int32(0), 1): np.int64(1)})
    assert datum.cover == (4, 5) and datum.transition == {(0, 1): 1}
    assert all(type(c) is int for c in datum.cover)


@pytest.mark.parametrize("cover,chosen,data", [
    ([4, 5], [0.5, 1], {"position": 0}),
    ([4, 5], [0, 1.7], {"position": 1}),
    ([4, 5], [0, False], {"position": 1}),
    ([4.0, 5], [0, 1], {"position": 0}),
])
def test_extract_cocycle_inputs_must_be_integers(psc, z2, cover, chosen, data):
    torsor = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1))
    with pytest.raises(MalformedTable) as exc:
        tk.extract_cocycle(torsor, cover, chosen)
    assert exc.value.data == data


def test_local_transport_is_decided_once_per_minimal_open(z2):
    # the trivial action fails on {0} and {1}; the whole space fails only through them
    space = tk.close_under_ops(2, [(0,), (1,)])
    gs = tk.constant_group_sheaf(space, z2)
    act = tuple(
        tuple(tuple(gs.sets.sections(u)) for _ in gs.sections(u)) for u in range(len(space.opens))
    )
    rep = tk.is_sheaf_torsor(tk.SheafAction(groups=gs, sets=gs.sets, act=act))
    assert [(w["axiom"], w["open"], w["min_open"]) for w in rep.witnesses] == [
        ("local-transport", 1, 1),
        ("local-transport", 2, 2),
    ]


def _glued_action_with(restrict_of, key, table):
    """The twisted pseudocircle action with one restriction table of G or F replaced (None deletes it)."""
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(tk.catalog_group("cyclic(2)"), 1))
    action = glued.action
    sheaf = action.groups.sets if restrict_of == "groups" else action.sets
    restrict = dict(sheaf.restrict)
    if table is None:
        del restrict[key]
    else:
        restrict[key] = table
    changed = replace(sheaf, restrict=restrict)
    if restrict_of == "groups":
        return replace(action, groups=replace(action.groups, sets=changed))
    return replace(action, sets=changed)


# a sheaf reads its tables when it is built: a missing or misshapen table (the first four "restriction-table"
# cases) is named by its inclusion, a bad cell ("restriction-range") by its position in the table too
@pytest.mark.parametrize("restrict_of,table,fault", [
    ("sets", None, "restriction-table"),
    ("groups", None, "restriction-table"),
    ("sets", (0,), "restriction-table"),
    ("sets", (0, 2), "restriction-range"),
    ("groups", (-1, 0), "restriction-range"),
    ("groups", 5, "restriction-table"),
    # both true tables are (0, 1): these cells would truncate to it, and True would read as 1
    ("sets", (0.5, 1.5), "restriction-range"),
    ("groups", (0.5, 1.5), "restriction-range"),
    ("sets", (0, True), "restriction-range"),
    ("groups", (0, True), "restriction-range"),
])
def test_is_sheaf_torsor_witnesses_bad_restriction_tables(psc, restrict_of, table, fault):
    key = (psc.index_of((0, 1, 2)), psc.index_of((0,)))
    with pytest.raises(MalformedTable) as err:
        _glued_action_with(restrict_of, key, table)
    place = {}
    if fault == "restriction-range":
        place["position"] = next(p for p, c in enumerate(table) if type(c) is not int or c not in (0, 1))
    assert err.value.witness() == {"axiom": "malformed-table", "u": key[0], "v": key[1], **place}


def test_as_sheaf_torsor_stops_at_the_first_failing_check(psc):
    # the arc's section 1 restricts to the point as section 0, so F fails and G is never decided
    key = (psc.index_of((0, 1, 2)), psc.index_of((0,)))
    with pytest.raises(NotASheafTorsor) as err:
        tk.as_sheaf_torsor(_glued_action_with("sets", key, (0, 0)))
    assert err.value.report.check == "sheaf"
    assert err.value.report.witnesses[0]["axiom"] == "functoriality"


def _open_count(table, given):
    """The data of the MalformedTable of a per-open table with ``given`` entries on the pseudocircle's 7 opens."""
    return {"table": table, "given": given}


@pytest.mark.parametrize("count", [6, 8], ids=["short", "long"])
def test_a_miscounted_action_is_one_open_count_witness(z3, count):
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z3, 1)).action
    act = (glued.act + glued.act)[:count]
    with pytest.raises(MalformedTable) as err:
        SheafAction(groups=glued.groups, sets=glued.sets, act=act)
    assert err.value.data == _open_count("act", count)
    with pytest.raises(MalformedTable) as err:
        replace(glued, act=act)
    assert err.value.data == _open_count("act", count)


@pytest.mark.parametrize("count", [6, 8], ids=["short", "long"])
def test_miscounted_section_counts_are_one_open_count_witness(z2, count):
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1)).action
    sizes = (glued.sets.sizes + (3,))[:count]
    # counted before any table is read against them
    with pytest.raises(MalformedTable) as err:
        SheafOfSets(space=glued.sets.space, sizes=sizes, restrict=glued.sets.restrict)
    assert err.value.data == _open_count("sizes", count)


def test_a_miscounted_group_list_is_one_open_count_witness(z2):
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1)).action
    with pytest.raises(MalformedTable) as err:
        tk.SheafOfGroups(sets=glued.groups.sets, groups=glued.groups.groups[:-1])
    assert err.value.data == _open_count("groups", 6)


def test_glue_rejects_a_hand_built_group_sheaf_with_a_corrupted_restriction(psc, z2):
    gs = tk.constant_group_sheaf(psc, z2)
    key = (psc.whole_index, psc.index_of((0, 1)))
    restrict = dict(gs.sets.restrict)
    restrict[key] = (restrict[key][1],) + restrict[key][1:]
    corrupt = replace(gs, sets=replace(gs.sets, restrict=restrict))
    cover = (psc.index_of((0, 1, 2)), psc.index_of((0, 1, 3)))
    datum = tk.build_descent_datum(corrupt, cover, {(0, 1): tk.constant_section_id(z2, (0, 1))})
    with pytest.raises(NotASheafTorsor) as err:
        tk.glue_from_cocycle(datum)
    assert err.value.report.check == "sheaf-of-groups"


def test_constant_sheaf_reuses_the_group_on_one_component_opens(psc, monkeypatch):
    import torsorkit.sheaves as sheaves

    z2 = tk.catalog_group("cyclic(2)")  # fresh: the session fixture's sheaves are cached already
    built = []
    real = sheaves._direct_power

    def counting(group, values):
        built.append(len(values))
        return real(group, values)

    monkeypatch.setattr(sheaves, "_direct_power", counting)
    gs = tk.constant_group_sheaf(psc, z2)
    assert sorted(built) == [1, 4]  # the empty open (no components) and the two-point open
    one = [u for u, o in enumerate(psc.opens) if len(tk.connected_components(psc, o)) == 1]
    assert len(one) == 5 and all(gs.groups[u] is z2 for u in one)


def test_a_second_constant_sheaf_reject_on_one_space_finds_no_components(monkeypatch):
    import torsorkit.spaces as spaces

    discrete3 = tk.close_under_ops(3, [(0,), (1,), (2,)])
    big = tk.catalog_group("cyclic(9)")
    calls, real = [], spaces.connected_components
    monkeypatch.setattr(spaces, "connected_components", lambda *args: calls.append(args) or real(*args))
    for _ in range(2):
        with pytest.raises(TooLarge) as exc:
            tk.constant_group_sheaf(discrete3, big)
        assert exc.value.data == {"size": 9**3, "budget": 512}
        assert len(calls) == len(discrete3.opens)  # found once, kept on the space


def test_the_pseudocircle_reject_finds_no_components_again(monkeypatch):
    import torsorkit.spaces as spaces

    assert tk.pseudocircle() is tk.pseudocircle()  # one shared space, which keeps its components
    s4 = tk.catalog_group("symmetric(4)")
    calls, real = [], spaces.connected_components
    for patched in (False, True, True):
        if patched:
            monkeypatch.setattr(spaces, "connected_components", lambda *args: calls.append(args) or real(*args))
        with pytest.raises(TooLarge) as exc:
            tk.pseudocircle_descent_datum(s4, s4.identity)
        assert exc.value.data == {"size": 24**2, "budget": 512}
    assert calls == []  # the first reject found them on the shared space


def _hand_built(gs, restrict=None):
    """A value-equal copy of ``gs`` built by hand: a new object, so nothing is decided or read yet."""
    restrict = dict(gs.sets.restrict) if restrict is None else restrict
    return tk.SheafOfGroups(sets=SheafOfSets(space=gs.space, sizes=gs.sets.sizes, restrict=restrict), groups=gs.groups)


def _as_lists(restrict):
    """Restriction tables, tuples or arrays, as lists: a value to compare, whichever they are."""
    return {key: np.asarray(table).tolist() for key, table in restrict.items()}


def _counting(monkeypatch, name):
    """Replace a sheaves function with one that records its calls; returns the record."""
    import torsorkit.sheaves as sheaves

    calls, real = [], getattr(sheaves, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sheaves, name, counted)
    return calls


def test_glue_decides_a_hand_built_group_sheaf_before_gluing(psc, z3, monkeypatch):
    gs = tk.constant_group_sheaf(psc, z3)
    cover = (psc.index_of((0, 1, 2)), psc.index_of((0, 1, 3)))
    transition = {(0, 1): tk.constant_section_id(z3, (0, 1))}
    decided = _counting(monkeypatch, "is_sheaf_of_groups")
    corruptions = 0
    for key, table in gs.sets.restrict.items():
        for s, good in enumerate(table):
            for bad in set(range(gs.sets.sizes[key[1]])) - {good}:
                restrict = dict(gs.sets.restrict)
                restrict[key] = table[:s] + (bad,) + table[s + 1:]
                datum = tk.build_descent_datum(_hand_built(gs, restrict), cover, transition)
                decided.clear()
                with pytest.raises(NotASheafTorsor) as err:
                    tk.glue_from_cocycle(datum)
                assert err.value.report.check == "sheaf-of-groups"
                assert len(decided) == 1
                corruptions += 1
    assert corruptions == 156


def test_constant_sheaf_is_cached_per_space_on_its_group():
    group = tk.catalog_group("cyclic(3)")
    first = tk.constant_group_sheaf(tk.pseudocircle(), group)
    assert tk.constant_group_sheaf(tk.pseudocircle(), group) is first
    assert vars(first)["_verdict"].passed and list(group.constant_sheaves) == [tk.pseudocircle()]
    tk.constant_group_sheaf(tk.point_space(), group)
    assert len(group.constant_sheaves) == 2
    # an equal group is another object with its own cache
    other = tk.catalog_group("cyclic(3)")
    assert other == group and tk.constant_group_sheaf(tk.pseudocircle(), other) is not first


def test_every_sheaf_is_read_only(psc, z2):
    gs = tk.constant_group_sheaf(psc, z2)
    tables = {key: list(table) for key, table in gs.sets.restrict.items()}
    hand = SheafOfSets(space=psc, sizes=list(gs.sets.sizes), restrict=tables)
    for sheaf in (gs.sets, hand):
        key = next(iter(sheaf.restrict))
        with pytest.raises(TypeError):
            sheaf.restrict[key] = sheaf.restrict[key]
        with pytest.raises(TypeError):
            del sheaf.restrict[key]
        assert all(isinstance(table, tuple) for table in sheaf.restrict.values())
        assert sheaf == gs.sets and isinstance(sheaf.sizes, tuple)
    # the sheaf keeps a copy: changing the mapping it was built from changes nothing
    tables[key][0] = 1 - tables[key][0]
    tables["note"] = None
    assert hand == gs.sets and tk.is_sheaf(hand).passed
    groups = list(gs.groups)
    copy = tk.SheafOfGroups(sets=hand, groups=groups)
    groups.pop()
    assert copy == gs and tk.is_sheaf_of_groups(copy).passed


@pytest.mark.parametrize("dtype,place", [
    (np.int64, None),
    (np.float64, {"u": 1, "v": 0, "position": 0}),
    (np.bool_, {"u": 1, "v": 0, "position": 0}),
], ids=["int", "float", "bool"])
def test_an_array_restriction_table_is_copied_so_a_later_edit_cannot_reach_it(dtype, place):
    point = tk.point_space()
    table = np.zeros(3, dtype=dtype)
    if place is not None:  # an array of another kind is refused, not cast
        with pytest.raises(MalformedTable) as err:
            SheafOfSets(space=point, sizes=(1, 3), restrict={(1, 0): table})
        assert err.value.data == place
        return
    sheaf = SheafOfSets(space=point, sizes=(1, 3), restrict={(1, 0): table})
    fresh = SheafOfSets(space=point, sizes=(1, 3), restrict={(1, 0): table.copy()})
    table[0] = 7
    assert tk.is_sheaf(sheaf) == tk.is_sheaf(fresh) and tk.is_sheaf(sheaf).passed
    assert sheaf.restrict_section(1, 0, 0) == fresh.restrict_section(1, 0, 0) == 0
    assert sheaf == fresh and sheaf.restrict[(1, 0)] == tuple(fresh.restrict[(1, 0)])


def test_cached_sheaves_pickle_and_copy_read_only(psc, monkeypatch):
    import copy
    import pickle

    group = tk.catalog_group("cyclic(2)")
    torsor = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(group, 1))
    for clone in (pickle.loads(pickle.dumps(torsor)), copy.deepcopy(torsor)):
        reads = _counting(monkeypatch, "_index_table")
        assert clone == torsor
        for sheaf in (clone.sets, clone.groups.sets):
            # a copy keeps its stored arrays, read-only, and builds no view of them
            assert "_tables" not in vars(sheaf) and [a for a in sheaf.arrays.values() if a.flags.writeable] == []
            assert isinstance(sheaf.restrict, MappingProxyType)
        assert clone.groups is next(iter(clone.groups.groups[-1].constant_sheaves.values()))
        for _ in range(2):
            assert tk.as_sheaf_torsor(clone.action) == torsor
        assert reads == []  # nor reads its tables again
        monkeypatch.undo()
    for clone in (pickle.loads(pickle.dumps(group)), copy.deepcopy(group)):
        assert clone == group and tk.constant_group_sheaf(psc, clone).groups[-1] is clone


def test_value_equal_group_sheaves_are_decided_again(psc, z2, monkeypatch):
    gs = tk.constant_group_sheaf(psc, z2)
    cover = (psc.index_of((0, 1, 2)), psc.index_of((0, 1, 3)))
    transition = {(0, 1): tk.constant_section_id(z2, (0, 1))}
    decided = _counting(monkeypatch, "is_sheaf_of_groups")
    cached = tk.glue_from_cocycle(tk.build_descent_datum(gs, cover, transition))
    assert decided == [] and cached.groups is gs
    for copy in (_hand_built(gs), replace(gs), replace(gs, sets=replace(gs.sets))):
        assert copy == gs
        decided.clear()
        tk.as_sheaf_torsor(replace(cached.action, groups=copy))
        assert decided == [(copy,)]
    for copy in (_hand_built(gs), replace(gs), replace(gs, sets=replace(gs.sets))):
        decided.clear()
        torsor = tk.glue_from_cocycle(tk.build_descent_datum(copy, cover, transition))
        assert torsor.groups is copy and torsor.sets == cached.sets
        # the torsor keeps G with its verdict: deciding it again costs nothing
        tk.as_sheaf_torsor(torsor.action)
        tk.as_sheaf_torsor(replace(cached.action, groups=copy))
        assert decided == [(copy,)]


def test_as_sheaf_torsor_rejects_a_corrupted_hand_built_copy_of_a_cached_sheaf(psc, z2):
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1))
    gs = glued.groups
    key = (psc.whole_index, psc.index_of((0, 1)))
    restrict = dict(gs.sets.restrict)
    restrict[key] = (restrict[key][1],) + restrict[key][1:]
    with pytest.raises(NotASheafTorsor) as err:
        tk.as_sheaf_torsor(replace(glued.action, groups=_hand_built(gs, restrict)))
    assert err.value.report.check == "sheaf-of-groups"


def test_public_checks_still_decide_a_cached_sheaf(psc, z2, monkeypatch):
    gs = tk.constant_group_sheaf(psc, z2)
    decided = _counting(monkeypatch, "is_sheaf")  # what is_sheaf_of_groups runs first
    for _ in range(2):
        assert tk.is_sheaf_of_groups(gs).passed
    assert decided == [(gs.sets,), (gs.sets,)]


def test_threads_gluing_on_one_group_share_one_decided_sheaf(monkeypatch):
    import sys
    import threading

    decided = _counting(monkeypatch, "is_sheaf_of_groups")

    def race(group):
        """8 threads glue the trivial and a twisted datum on ``group`` at once; their torsors by twist."""
        results, errors = [], []
        start = threading.Barrier(8)

        def glue():
            try:
                start.wait(timeout=60)
                for twist in (0, 3):
                    results.append((twist, tk.glue_from_cocycle(tk.pseudocircle_descent_datum(group, twist))))
            except Exception as err:  # a thread would swallow it
                errors.append(err)

        threads = [threading.Thread(target=glue) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 16
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            group = tk.catalog_group("symmetric(3)")  # fresh, so the cache starts empty
            decided.clear()
            results = race(group)
            assert len(decided) == 1 and len(group.constant_sheaves) == 1
            assert len({id(torsor.groups) for _, torsor in results}) == 1
            first = dict(results)
            assert all(torsor == first[twist] for twist, torsor in results)
            assert [first[t].sets.sizes[-1] for t in (0, 3)] == [6, 0]
    finally:
        sys.setswitchinterval(interval)


def test_a_restriction_key_that_is_no_proper_inclusion_is_refused(psc, z2):
    gs = tk.constant_group_sheaf(psc, z2)
    key = (psc.whole_index, psc.index_of((0, 1)))
    bad = (0.5,) * len(gs.sets.restrict[key])
    # (0, 0) is the probe that built and equalled the clean sheaf; a stray key is named before any table is read,
    # under arrays, the keyword of dataclasses.replace, as under restrict (under arrays it built unread)
    builds = (lambda r: _hand_built(gs, r), lambda r: SheafOfSets(psc, gs.sets.sizes, arrays=r),
              lambda r: replace(gs.sets, arrays=r))
    for stray in ((0, 0), (0, psc.whole_index), "note"):
        for restrict in ({**gs.sets.restrict, stray: ["junk"]}, {**gs.sets.restrict, stray: None, key: bad}):
            for build in builds:
                with pytest.raises(MalformedTable) as err:
                    build(restrict)
                assert err.value.data == {"key": str(stray)} and repr(stray) in str(err.value)
    assert _hand_built(gs, dict(gs.sets.restrict)) == gs
    with pytest.raises(MalformedTable) as err:
        _hand_built(gs, {**gs.sets.restrict, key: bad})
    assert err.value.data == {"u": key[0], "v": key[1], "position": 0}


def test_a_sheaf_reads_its_tables_once_as_read_only_arrays_equal_to_them(psc, z3, monkeypatch):
    import copy
    import pickle

    gs = tk.constant_group_sheaf(psc, z3)
    reads = _counting(monkeypatch, "_index_table")
    hand = _hand_built(gs, {key: list(table) for key, table in gs.sets.restrict.items()})
    assert len(reads) == len(gs.sets.arrays)  # one read per inclusion, when the sheaf is built
    for kept in (gs, hand, pickle.loads(pickle.dumps(gs)), copy.deepcopy(gs)):
        reads.clear()
        for _ in range(2):
            assert tk.is_sheaf_of_groups(kept).passed
        assert reads == []  # each keeps its arrays: the constant sheaf's, or the ones read when built
        arrays = kept.sets.arrays
        assert set(arrays) == set(kept.sets.restrict)
        for pair, arr in arrays.items():
            assert arr.tolist() == list(kept.sets.restrict[pair])
            assert all(type(c) is int for c in kept.sets.restrict[pair])
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def test_glue_over_a_cached_constant_sheaf_reads_only_the_glued_tables(z2, monkeypatch):
    datum = tk.pseudocircle_descent_datum(z2, 1)
    reads = _counting(monkeypatch, "_index_table")
    torsor = tk.glue_from_cocycle(datum)
    assert torsor.groups is datum.groups
    # glue hands F over as the arrays it built, which is_sheaf and is_sheaf_torsor read; nothing reads
    # a table again, G's or F's
    assert reads == [] and _as_lists(torsor.sets.arrays) == _as_lists(torsor.sets.restrict)


def test_a_lift_reads_neither_of_its_two_sheaves(monkeypatch):
    # F and the action are handed over as arrays; G is the group's constant sheaf on the point, built from
    # arrays and decided once per group
    z3 = tk.catalog_group("cyclic(3)")  # fresh: the session fixture's sheaves are cached already
    torsor = tk.as_torsor(tk.left_translation_action(z3))
    reads = _counting(monkeypatch, "_index_table")
    decided = _counting(monkeypatch, "is_sheaf_of_groups")
    first, second = tk.lift_point_torsor(torsor), tk.lift_point_torsor(torsor)
    assert second.groups is first.groups is tk.constant_group_sheaf(tk.point_space(), z3)
    assert reads == [] and decided == [(first.groups,)]
    assert first.action.arrays[1] is second.action.arrays[1] is torsor.action.array
    assert first.sets == second.sets == SheafOfSets(space=tk.point_space(), sizes=(1, 3), restrict={(1, 0): (0,) * 3})


def test_is_sheaf_torsor_witnesses_a_group_of_the_wrong_order(psc, z2):
    # the empty open has one section in G: a group of order 2 there is no sheaf of groups
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1)).action
    empty = psc.empty_index
    groups = glued.groups.groups[:empty] + (z2,) + glued.groups.groups[empty + 1:]
    act = glued.act[:empty] + (((0,), (0,)),) + glued.act[empty + 1:]
    action = replace(glued, groups=tk.SheafOfGroups(sets=glued.groups.sets, groups=groups), act=act)
    witness = {"axiom": "group-order", "open": empty}
    assert tk.is_sheaf_torsor(action).witnesses == ({**witness, "sheaf": "groups"},)
    assert tk.is_sheaf_of_groups(action.groups).witnesses == (witness,)
    with pytest.raises(NotASheafTorsor) as err:
        tk.as_sheaf_torsor(action)
    assert err.value.report.check == "sheaf-of-groups"


# ---------------------------------------------------------------- reads handed over by producers

BENCH_GROUPS = [name for name in tk.catalog_names() if tk.catalog_group(name).order <= 12]


def _glued(psc, name):
    """The benchmark's glues of one group: the trivial and a twisted datum, and for symmetric(3) and
    cyclic(6) a descent round trip through extract_cocycle."""
    group = tk.catalog_group(name)
    torsors = [tk.glue_from_cocycle(tk.pseudocircle_descent_datum(group, t))
               for t in sorted({group.identity, group.order - 1})]
    if name in ("symmetric(3)", "cyclic(6)"):
        cover = (psc.index_of((0, 1, 2)), psc.index_of((0, 1, 3)))
        torsors.append(tk.glue_from_cocycle(tk.extract_cocycle(torsors[-1], cover, (1, 2))))
    return torsors


def _check_handed_over(obj):
    """The arrays a producer stored on ``obj`` equal a fresh read of obj's own tuple views (its ``replace``
    with the views given as the caller's tables, which reads them): equal read-only int32 arrays."""
    stored = vars(obj)["arrays"]
    if isinstance(obj, SheafOfSets):
        fresh = replace(obj, restrict=obj.restrict).arrays
    else:
        stored, fresh = dict(enumerate(stored)), dict(enumerate(replace(obj, act=obj.act).arrays))
    assert stored.keys() == fresh.keys()
    for key, arr in fresh.items():
        assert stored[key].dtype == arr.dtype == np.int32 and np.array_equal(stored[key], arr)
        assert not stored[key].flags.writeable and not arr.flags.writeable


@pytest.mark.parametrize("name", BENCH_GROUPS)
def test_glue_hands_over_read_only_int32_act_tables_equal_to_act(psc, name):
    for torsor in _glued(psc, name):
        _check_handed_over(torsor.action)
        _check_handed_over(torsor.sets)
        assert len(torsor.action.arrays) == len(torsor.action.act) == len(psc.opens)


@pytest.mark.parametrize("points,gens,name", [
    (4, [(0,), (1,), (2,), (3,)], "cyclic(2)"),
    (4, [(0,), (1,), (0, 1, 2), (0, 1, 3)], "cyclic(3)"),
    (4, [(0,), (0, 1), (0, 1, 2)], "cyclic(3)"),
    (3, [(0,), (1,)], "cyclic(3)"),
    (4, [(0, 1), (2, 3)], "cyclic(4)"),
], ids=["discrete4", "pseudocircle", "chain4", "vee3", "split4"])
def test_the_constant_sheaf_hands_over_its_restriction_arrays(points, gens, name, monkeypatch):
    reads = _counting(monkeypatch, "_index_table")
    gs = tk.constant_group_sheaf(tk.close_under_ops(points, gens), tk.catalog_group(name))  # a fresh group
    # no read: the arrays it was built from are its stored form, and deciding G reads nothing again
    assert reads == [] and "_tables" not in vars(gs.sets)
    assert _as_lists(gs.sets.arrays) == _as_lists(gs.sets.restrict)
    _check_handed_over(gs.sets)


def _corrupt(act, u, edit):
    rows = [list(r) for r in act[u]]
    edit(rows)
    return act[:u] + (tuple(map(tuple, rows)),) + act[u + 1:]


@pytest.mark.parametrize("edit,want", [
    (lambda rows: rows[1].reverse(), "action-compatibility"),
    (lambda rows: rows[1].__setitem__(0, 1.0), {"row": 1, "position": 0}),
    (lambda rows: rows[2].pop(), {"row": 2}),
    (lambda rows: rows.reverse(), "action-identity"),
], ids=["reversed-row", "float-cell", "short-row", "reversed-rows"])
def test_a_replaced_glued_action_reads_its_own_tuples(psc, z3, edit, want):
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z3, 1)).action
    u = psc.index_of((0, 1, 2))
    corrupted = _corrupt(glued.act, u, edit)
    if isinstance(want, dict):  # a malformed table raises where it enters, named by open, row and position
        with pytest.raises(MalformedTable) as err:
            replace(glued, act=corrupted)
        assert err.value.data == {"open": u, **want}
        return
    replaced = replace(glued, act=corrupted)  # read when built, in place of the glue's arrays
    fresh = SheafAction(groups=glued.groups, sets=glued.sets, act=corrupted)
    assert "act" not in vars(replaced) and replaced.act == corrupted
    assert replaced == fresh and replaced != glued
    rep = tk.is_sheaf_torsor(replaced)
    assert rep == tk.is_sheaf_torsor(fresh) and rep.witnesses[0]["axiom"] == want
    # equality and repr read the stored arrays, a producer's and a hand-built copy's alike; a replace that
    # gives no table reads the glue's arrays into equal copies
    plain = SheafAction(groups=glued.groups, sets=glued.sets, act=glued.act)
    assert plain == glued and repr(plain) == repr(glued) and replace(glued) == glued


def test_a_hand_built_action_is_read_when_built_and_later_edits_change_nothing(z2, monkeypatch):
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1)).action
    act = [[list(row) for row in table] for table in glued.act]
    reads = _counting(monkeypatch, "_index_table")
    hand = SheafAction(groups=glued.groups, sets=glued.sets, act=act)
    assert len(reads) == len(act) and "act" not in vars(hand)
    assert hand == glued and tk.is_sheaf_torsor(hand).passed
    act[1][0][0] = 1.5  # after the read, changing the lists it was built from changes no verdict
    assert hand == glued and tk.is_sheaf_torsor(hand).passed and len(reads) == len(act)
    assert all(not arr.flags.writeable for arr in hand.arrays)


def test_is_sheaf_torsor_keeps_witnesses_in_open_order_and_reads_act_once(z3, monkeypatch):
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z3, 0)).action
    act = _corrupt(glued.act, 1, lambda rows: rows.reverse())
    reads = _counting(monkeypatch, "_index_table")
    action = replace(glued, act=_corrupt(act, 4, lambda rows: rows[1].reverse()))
    assert len(reads) == len(act)  # once, when built
    want = (
        {"axiom": "action-identity", "open": 1, "x": 0},
        {"axiom": "action-compatibility", "open": 4, "g": 1, "h": 1, "x": 0},
    )
    for _ in range(2):
        assert tk.is_sheaf_torsor(action).witnesses == want and len(reads) == len(act)


def _arrays(obj, seen):
    """Every numpy array reachable from ``obj`` through attributes and containers."""
    if id(obj) in seen or isinstance(obj, (int, str, float)):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (dict, MappingProxyType)):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, list, set, frozenset)):
        items = obj
    else:
        items = vars(obj).values() if hasattr(obj, "__dict__") else ()
    for item in items:
        yield from _arrays(item, seen)


def test_a_copied_glued_action_keeps_its_verdict_and_no_writable_array(monkeypatch):
    import copy
    import pickle

    group = tk.catalog_group("symmetric(3)")
    torsor = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(group, 3))
    assert list(_arrays(torsor, set()))  # the handed-over arrays, among others
    want = tk.is_sheaf_torsor(torsor.action)
    for clone in (pickle.loads(pickle.dumps(torsor)), copy.deepcopy(torsor)):
        held = (clone.sets, clone.groups.sets, clone.action)
        # each keeps the arrays it was handed, read-only, and no view of them
        assert [type(obj).__name__ for obj in held if "arrays" not in vars(obj)] == []
        assert not [view for obj in held for view in ("_tables", "act") if view in vars(obj)]
        assert not [arr for arr in _arrays(clone, set()) if arr.flags.writeable]
        reads, views = _counting(monkeypatch, "_index_table"), _counting(monkeypatch, "_tuples")
        for _ in range(2):
            assert tk.is_sheaf_torsor(clone.action) == want and tk.as_sheaf_torsor(clone.action) == torsor
        # and nothing is read again or viewed
        assert reads == views == []
        monkeypatch.undo()


def test_glue_never_reads_the_act_tuples_back(monkeypatch):
    datum = tk.pseudocircle_descent_datum(tk.catalog_group("cyclic(12)"), 5)
    calls = {name: _counting(monkeypatch, name) for name in ("_index_table", "_tuples")}
    torsor = tk.glue_from_cocycle(datum)
    # F's restriction tables and the act tables are handed over as the arrays glue built: no reader runs
    assert calls == dict.fromkeys(calls, [])
    assert "act" not in vars(torsor.action) and "_tables" not in vars(torsor.sets)
    arrays = [*torsor.sets.arrays.values(), *torsor.action.arrays]
    assert len(arrays) == 26 and all(a.dtype == np.int32 and not a.flags.writeable for a in arrays)


@pytest.mark.parametrize("cell", [1.0, True], ids=["float", "bool"])
def test_a_hand_built_action_refuses_a_cell_a_cast_would_read_as_an_index(z2, cell):
    # a cast would hold this cell as the int 1; the read refuses it before any lift could hand it over
    with pytest.raises(MalformedTable) as err:
        tk.GroupAction(group=z2, set_size=2, act=((0, 1), (cell, 0)))
    assert err.value.data == {"row": 1, "position": 0}


@pytest.mark.parametrize("space,calls", [
    (tk.pseudocircle(), 2),
    (tk.close_under_ops(4, [(0,), (0, 1), (0, 1, 2)]), 0),                 # chain4
    (tk.close_under_ops(4, [(0,), (1,), (2,), (3,)]), 11),                 # discrete4
], ids=["pseudocircle", "chain4", "discrete4"])
def test_is_sheaf_enumerates_families_only_on_covers_of_two_or_more_opens(z2, monkeypatch, space, calls):
    sheaf = tk.constant_group_sheaf(space, z2).sets
    enumerated = _counting(monkeypatch, "_compatible_families")
    assert tk.is_sheaf(sheaf).passed
    assert len(enumerated) == calls
    assert calls == sum(len(cover) > 1 for cover in space.minimal_covers)


def test_a_pseudocircle_glue_locates_once_per_open(monkeypatch):
    datum = tk.pseudocircle_descent_datum(tk.catalog_group("cyclic(4)"), 3)  # G is decided here
    located = _counting(monkeypatch, "_locate")
    tk.glue_from_cocycle(datum)
    # glue: one per open, for F's restrictions into it and the action on it; is_sheaf on F: one per
    # cover of two opens. One per inclusion and one per open made 19 + 7 + 2.
    assert len(located) == 7 + 2


def test_handed_arrays_must_match_the_section_counts(z2):
    sets = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1)).sets
    # the probe that failed is_sheaf with IndexError: new counts, the old arrays, read as restrict is
    with pytest.raises(MalformedTable) as err:
        replace(sets, sizes=tuple(n + 1 for n in sets.sizes))
    assert err.value.data == {"u": 1, "v": 0}
    sets = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 0)).sets  # two global sections
    key = (sets.space.whole_index, 4)
    for table, place in ((None, {}), (sets.arrays[key][:-1], {}), (sets.arrays[key][:, None], {"position": 0})):
        with pytest.raises(MalformedTable) as err:
            replace(sets, arrays={**sets.arrays, key: table})
        assert err.value.data == {"u": key[0], "v": key[1], **place}
    with pytest.raises(MalformedTable) as err:
        replace(sets, sizes=sets.sizes[:-1])
    assert err.value.data == {"table": "sizes", "given": 6}


def test_an_action_refuses_groups_and_sets_on_different_spaces(z2, monkeypatch):
    # the probe that passed is_sheaf_torsor with global_sections=2
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1)).action
    lifted = tk.lift_point_torsor(tk.affine_torsor(2, 1)).action
    reads = _counting(monkeypatch, "_index_table")
    for act, arrays in ((lifted.act, None), (None, lifted.arrays)):
        with pytest.raises(Mismatch) as err:
            SheafAction(groups=glued.groups, sets=lifted.sets, act=act, arrays=arrays)
        assert err.value.data == {"sheaf": "sets"}
    assert reads == []  # refused before any table is read


def test_handed_action_arrays_must_have_the_shape_of_their_open(z2):
    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1)).action
    arrays = glued.arrays
    # open 3, {0, 1}, has a group of order 4 acting on 4 sections; open 2's table is 2 x 2
    with pytest.raises(MalformedTable) as err:
        replace(glued, arrays=arrays[:3] + (arrays[2],) + arrays[4:])
    assert err.value.data == {"open": 3, "rows": 2}  # read as act is
    with pytest.raises(MalformedTable) as err:
        replace(glued, arrays=arrays[:-1])
    assert err.value.data == {"table": "act", "given": 6}
