"""Cayley-table validation, the builtin catalog, and subgroups."""

import itertools

import pytest

import torsorkit as tk
from torsorkit.errors import (
    InternalError,
    MalformedTable,
    MissingIdentity,
    NoIdentity,
    NoInverse,
    NonAssociative,
    NotClosed,
    UnknownName,
)


def brute_force_group_axioms(g):
    """Independent loop-based oracle for all four group axioms."""
    n = g.order
    assert all(0 <= g.cayley[a][b] < n for a in range(n) for b in range(n))
    e = g.identity
    assert all(g.cayley[e][a] == a == g.cayley[a][e] for a in range(n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert g.cayley[g.cayley[a][b]][c] == g.cayley[a][g.cayley[b][c]]
    for a in range(n):
        i = g.inverse[a]
        assert g.cayley[a][i] == e == g.cayley[i][a]


def test_build_group_z2():
    g = tk.build_group(2, [[0, 1], [1, 0]])
    assert g.identity == 0
    assert g.inverse == (0, 1)


def test_build_group_no_inverse_witness():
    with pytest.raises(NoInverse) as exc:
        tk.build_group(2, [[0, 1], [1, 1]])
    assert exc.value.data["element"] == 1


def test_build_group_no_identity():
    with pytest.raises(NoIdentity):
        tk.build_group(2, [[1, 1], [1, 1]])


def test_build_group_non_associative_witness():
    with pytest.raises(NonAssociative) as exc:
        tk.build_group(3, [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    w = exc.value.data
    c = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    assert c[c[w["g"]][w["h"]]][w["k"]] != c[w["g"]][c[w["h"]][w["k"]]]


@pytest.mark.parametrize(
    "rows", [[[0, 1]], [[0, 1], [1]], [[0, 2], [2, 0]], [[0, -1], [1, 0]]]
)
def test_build_group_malformed(rows):
    with pytest.raises(MalformedTable):
        tk.build_group(2, rows)


def test_permutation_group_from_composition():
    # all six permutations of three letters, composed by brute force
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms
    ]
    g = tk.build_group(6, table)
    assert g.identity == index[(0, 1, 2)]


def test_catalog_cyclic3():
    g = tk.catalog_group("cyclic(3)")
    assert g.order == 3
    assert g.cayley[1][2] == 0


def test_catalog_symmetric3_order():
    assert tk.catalog_group("symmetric(3)").order == 6


@pytest.mark.parametrize("name", ["symmetric(5)", "cyclic(13)", "cyclic(0)", "dihedral(4)"])
def test_catalog_unknown(name):
    with pytest.raises(UnknownName):
        tk.catalog_group(name)


@pytest.mark.parametrize("name", ["cyclic(05)", "symmetric(004)", "cyclic(0012)", "cyclic( 5)", "klein_four "])
def test_catalog_names_match_exactly(name):
    # a name is in the catalog exactly when catalog_names() lists it; leading zeros once built cyclic(5)
    with pytest.raises(UnknownName) as exc:
        tk.catalog_group(name)
    assert exc.value.witness() == {"axiom": "catalog-name", "name": name}


def test_symmetric_elements_reads_the_catalog():
    assert [tk.symmetric_elements(n) for n in (1, 2)] == [[(0,)], [(0, 1), (1, 0)]]
    assert len(tk.symmetric_elements(4)) == tk.catalog_group("symmetric(4)").order
    for n in (0, 5, True):
        with pytest.raises(UnknownName) as exc:
            tk.symmetric_elements(n)
        assert exc.value.witness() == {"axiom": "catalog-name", "name": f"symmetric({n})"}


def test_catalog_groups_pass_independent_oracle():
    for name in tk.catalog_names():
        brute_force_group_axioms(tk.catalog_group(name))


def test_every_catalog_group_within_cap():
    # the catalog stops at symmetric(4), so every check on a catalog group is exhaustive
    orders = [tk.catalog_group(n).order for n in tk.catalog_names()]
    assert max(orders) == 24


def test_subgroup_of_order_two(s3):
    sub = tk.build_subgroup(s3, [0, 2])  # identity plus a transposition
    assert sub.members == (0, 2)
    as_group = tk.subgroup_as_group(sub)
    brute_force_group_axioms(as_group)
    assert as_group.order == 2


def test_subgroup_not_closed_witness(s3):
    # identity plus a 3-cycle: its square is the other 3-cycle
    with pytest.raises(NotClosed) as exc:
        tk.build_subgroup(s3, [0, 3])
    assert (exc.value.data["a"], exc.value.data["b"]) == (3, 3)
    assert exc.value.data["product"] == 4


@pytest.mark.parametrize("bad", [2.9, 2.0, "2", True, None, 6, -1])
def test_subgroup_member_must_be_an_index(s3, bad):
    # nothing is coerced: 2.9 used to pass as member 2
    with pytest.raises(MalformedTable) as exc:
        tk.build_subgroup(s3, [0, bad])
    assert exc.value.data == {"position": 1}


def test_subgroup_missing_identity(s3):
    with pytest.raises(MissingIdentity):
        tk.build_subgroup(s3, [2])


@pytest.mark.parametrize("members", [(0, 1, 2), (2, 0, 1)])
def test_hand_built_subgroup_not_closed(s3, members):
    # (0,2,1)*(1,0,2) = (2,0,1), element 4: the least pair by value, as build_subgroup reports it
    with pytest.raises(NotClosed) as exc:
        tk.subgroup_as_group(tk.Subgroup(s3, members))
    assert exc.value.data == {"a": 1, "b": 2, "product": 4}


@pytest.mark.parametrize(
    "members,index", [((0, 9), 1), ((0, 0), 1), ((0, -1), 1), ((2.0, 0), 0), ((0, 2, 2), 2)]
)
def test_hand_built_subgroup_bad_member(s3, members, index):
    # a member out of range is named by its position; a repeated one also by its value
    with pytest.raises(MalformedTable) as exc:
        tk.subgroup_as_group(tk.Subgroup(s3, members))
    repeated = {"element": members[index]} if members[index] in members[:index] else {}
    assert exc.value.data == {"position": index, **repeated}


def test_hand_built_subgroup_empty(s3):
    with pytest.raises(MalformedTable):
        tk.subgroup_as_group(tk.Subgroup(s3, ()))


def test_transport_rejects_a_bad_internal_renaming(s3):
    from torsorkit.groups import _transport

    for members in [(0, 0), (0, 1, 2)]:
        with pytest.raises(InternalError):
            _transport(s3, members)


def test_trivial_subgroup(z3):
    sub = tk.trivial_subgroup(z3)
    assert sub.members == (z3.identity,)


def test_subgroup_validation_is_exhaustive(s3):
    # every actual subgroup of S3 validates; every non-subgroup subset fails, a product
    # outside it at the least pair found by the plain loop
    for r in range(1, 7):
        for members in itertools.combinations(range(6), r):
            open_pairs = [(a, b) for a in members for b in members if s3.cayley[a][b] not in members]
            if not open_pairs and 0 in members:
                tk.build_subgroup(s3, members)
            elif 0 not in members:
                with pytest.raises(MissingIdentity):
                    tk.build_subgroup(s3, members)
            else:
                with pytest.raises(NotClosed) as exc:
                    tk.build_subgroup(s3, members)
                a, b = open_pairs[0]
                assert exc.value.data == {"a": a, "b": b, "product": s3.cayley[a][b]}


def test_opposite_abelian_is_identity(z3):
    assert tk.opposite_group(z3).cayley == z3.cayley


def test_opposite_transposes(s3):
    op = tk.opposite_group(s3)
    for a in range(6):
        for b in range(6):
            assert op.cayley[a][b] == s3.cayley[b][a]


def test_opposite_is_involution():
    for name in tk.catalog_names():
        g = tk.catalog_group(name)
        assert tk.opposite_group(tk.opposite_group(g)) == g


def test_arrays_stay_read_only_through_pickle_and_deepcopy(psc):
    import copy
    import pickle

    group = tk.catalog_group("cyclic(3)")
    gs = tk.constant_group_sheaf(psc, group)
    action = tk.left_translation_action(group)
    for obj, table in ((group, group.cayley), (action, action.act)):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert clone == obj
            with pytest.raises(ValueError):
                clone.array[0, 0] = 2
            assert clone.array.tolist() == [list(row) for row in table]
    # the constant sheaf cache travels with the group
    clone = pickle.loads(pickle.dumps(group))
    assert clone.constant_sheaves[psc] == gs and tk.constant_group_sheaf(psc, clone).groups[-1] is clone
