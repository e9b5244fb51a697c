"""Nerve cocycles: validation, coboundaries, triviality, holonomy, classes."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torsorkit as tk
from torsorkit.cocycles import NotEquivalent, NotTrivial
from torsorkit.errors import (
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

import cocycle_oracles
from cocycle_oracles import enumerate_cocycles

C3_EDGES = [(0, 1), (0, 2), (1, 2)]


@pytest.fixture(scope="module")
def c3():
    return tk.build_nerve(3, C3_EDGES)


@pytest.fixture(scope="module")
def triangle():
    return tk.build_nerve(3, C3_EDGES, [(0, 1, 2)])


def cocycle(nerve, group, g01, g02, g12):
    return tk.check_cocycle(
        nerve, group, {(0, 1): g01, (0, 2): g02, (1, 2): g12}
    )


def brute_force_trivial(c):
    """Oracle: search all cochains h for g_ij = h_i * h_j^-1."""
    grp = c.group
    for h in itertools.product(grp.elements(), repeat=c.nerve.num_opens):
        if all(
            c.g[(i, j)] == grp.mul(h[i], grp.inv(h[j]))
            for (i, j) in c.nerve.edges
        ):
            return True
    return False


def brute_force_equivalent(c1, c2):
    grp = c1.group
    for h in itertools.product(grp.elements(), repeat=c1.nerve.num_opens):
        if all(
            c2.g[(i, j)] == grp.mul(grp.mul(h[i], c1.g[(i, j)]), grp.inv(h[j]))
            for (i, j) in c1.nerve.edges
        ):
            return True
    return False


def test_build_nerve_cycle(c3):
    assert c3.edges == ((0, 1), (0, 2), (1, 2))
    assert c3.triples == ()


def test_build_nerve_triangle(triangle):
    assert triangle.triples == ((0, 1, 2),)


def test_build_nerve_triple_without_edge():
    with pytest.raises(TripleWithoutEdge) as exc:
        tk.build_nerve(3, [(0, 1), (1, 2)], [(0, 1, 2)])
    assert exc.value.data["pair"] == [0, 2]


def test_build_nerve_rejects_self_pair():
    with pytest.raises(MalformedTable):
        tk.build_nerve(2, [(1, 1)])


def test_check_cocycle_vacuous_triples(c3, z2):
    c = cocycle(c3, z2, 0, 1, 0)
    assert c.value(1, 0) == 0
    assert c.value(2, 0) == 1  # derived inverse (self-inverse in Z/2)
    assert c.value(1, 1) == 0


def test_check_cocycle_triangle_pass(triangle, z2):
    cocycle(triangle, z2, 1, 0, 1)  # 1+1=0 mod 2


def test_check_cocycle_triangle_violation(triangle, z2):
    with pytest.raises(TripleViolation):
        cocycle(triangle, z2, 1, 1, 1)


def test_check_cocycle_missing_and_extra(c3, z2):
    with pytest.raises(MissingEdgeValue):
        tk.check_cocycle(c3, z2, {(0, 1): 0, (0, 2): 1})
    with pytest.raises(Mismatch):
        tk.check_cocycle(c3, z2, {(0, 1): 0, (0, 2): 1, (1, 2): 0, (0, 3): 0})


def test_check_cocycle_rejects_reversed_keys(c3, z3):
    # (1, 0): 1 means g_01 = 2, so reading it as g_01 = 1 would be wrong; it must be refused
    with pytest.raises(Mismatch) as exc:
        tk.check_cocycle(c3, z3, {(1, 0): 1, (0, 2): 0, (1, 2): 0})
    assert exc.value.data == {"i": 1, "j": 0}
    # both orders of one edge: neither wins silently
    with pytest.raises(Mismatch) as exc:
        tk.check_cocycle(c3, z3, {(0, 1): 2, (1, 0): 1, (0, 2): 0, (1, 2): 0})
    assert exc.value.data == {"i": 1, "j": 0}


def test_check_cocycle_nonabelian_orderings(triangle, s3):
    # g02 must equal g01*g12 for the triple identity to hold in all orderings
    g01, g12 = 3, 2
    good = cocycle(triangle, s3, g01, s3.mul(g01, g12), g12)
    for a, b, c in itertools.permutations((0, 1, 2)):
        assert s3.mul(good.value(a, b), good.value(b, c)) == good.value(a, c)
    with pytest.raises(TripleViolation):
        cocycle(triangle, s3, g01, s3.mul(g12, g01), g12)  # wrong order (nonabelian)


def test_apply_coboundary_identity_cochain(c3, z2):
    c = cocycle(c3, z2, 0, 1, 0)
    h = tk.make_cochain(c3, z2, [0, 0, 0])
    assert tk.apply_coboundary(c, h).g == c.g


def test_apply_coboundary_worked_example(c3, z2):
    c = cocycle(c3, z2, 0, 1, 0)
    h = tk.make_cochain(c3, z2, [1, 0, 0])
    out = tk.apply_coboundary(c, h)
    assert out.edge_values() == (1, 0, 0)


def test_apply_coboundary_inverse_round_trip(c3, s3):
    c = cocycle(c3, s3, 3, 1, 4)
    h = tk.make_cochain(c3, s3, [2, 5, 3])
    h_inv = tk.make_cochain(c3, s3, [s3.inv(v) for v in h.h])
    assert tk.apply_coboundary(tk.apply_coboundary(c, h), h_inv).g == c.g


def test_coboundary_is_a_group_action(c3, s3):
    # pointwise product of cochains acts as composed coboundaries
    c = cocycle(c3, s3, 1, 2, 3)
    h1 = tk.make_cochain(c3, s3, [3, 0, 2])
    h2 = tk.make_cochain(c3, s3, [5, 4, 1])
    prod = tk.make_cochain(c3, s3, [s3.mul(a, b) for a, b in zip(h1.h, h2.h)])
    lhs = tk.apply_coboundary(c, prod)
    rhs = tk.apply_coboundary(tk.apply_coboundary(c, h2), h1)
    assert lhs.g == rhs.g


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["cyclic(2)", "cyclic(4)", "symmetric(3)", "klein_four"]),
    data=st.data(),
)
def test_coboundary_action_laws_property(name, data):
    grp = tk.catalog_group(name)
    nerve = tk.build_nerve(3, C3_EDGES)
    elem = st.integers(min_value=0, max_value=grp.order - 1)
    c = tk.check_cocycle(
        nerve,
        grp,
        {e: data.draw(elem) for e in nerve.edges},
    )
    h1 = tk.make_cochain(nerve, grp, [data.draw(elem) for _ in range(3)])
    h2 = tk.make_cochain(nerve, grp, [data.draw(elem) for _ in range(3)])
    identity = tk.make_cochain(nerve, grp, [grp.identity] * 3)
    assert tk.apply_coboundary(c, identity).g == c.g
    prod = tk.make_cochain(nerve, grp, [grp.mul(a, b) for a, b in zip(h1.h, h2.h)])
    assert (
        tk.apply_coboundary(c, prod).g
        == tk.apply_coboundary(tk.apply_coboundary(c, h2), h1).g
    )


def test_apply_coboundary_mismatch(c3, z2, z3):
    c = cocycle(c3, z2, 0, 1, 0)
    h = tk.make_cochain(c3, z3, [0, 0, 0])
    with pytest.raises(Mismatch):
        tk.apply_coboundary(c, h)


def test_find_trivialization_identity_cocycle(c3, z2):
    c = cocycle(c3, z2, 0, 0, 0)
    h = tk.find_trivialization(c)
    assert h.h == (0, 0, 0)


def test_find_trivialization_not_trivial(c3, z2, z3):
    out = tk.find_trivialization(cocycle(c3, z2, 0, 1, 0))
    assert isinstance(out, NotTrivial)
    out3 = tk.find_trivialization(cocycle(c3, z3, 0, 1, 0))
    assert isinstance(out3, NotTrivial)
    assert not brute_force_trivial(cocycle(c3, z3, 0, 1, 0))


def test_find_trivialization_witness_substitutes(c3, s3):
    # build a coboundary of the identity cocycle, then recover some witness
    identity = cocycle(c3, s3, 0, 0, 0)
    h = tk.make_cochain(c3, s3, [2, 4, 1])
    c = tk.apply_coboundary(identity, h)
    found = tk.find_trivialization(c)
    assert not isinstance(found, NotTrivial)
    for (i, j) in c.nerve.edges:
        assert c.g[(i, j)] == s3.mul(found.h[i], s3.inv(found.h[j]))


def test_find_trivialization_matches_oracle_everywhere(c3, z2, z3):
    for grp in (z2, z3):
        for c in enumerate_cocycles(c3, grp):
            decided = not isinstance(tk.find_trivialization(c), NotTrivial)
            assert decided == brute_force_trivial(c)


def test_are_equivalent_round_trip(c3, s3):
    c = cocycle(c3, s3, 1, 5, 2)
    h = tk.make_cochain(c3, s3, [4, 2, 0])
    c2 = tk.apply_coboundary(c, h)
    wit = tk.are_equivalent(c, c2)
    assert not isinstance(wit, NotEquivalent)
    for (i, j) in c3.edges:
        assert c2.g[(i, j)] == s3.mul(s3.mul(wit.h[i], c.g[(i, j)]), s3.inv(wit.h[j]))


def test_are_equivalent_same_holonomy_class(c3, z2):
    # both carry holonomy 1 around the cycle, so they land in one class
    a = cocycle(c3, z2, 0, 1, 0)
    b = cocycle(c3, z2, 1, 0, 0)
    assert tk.holonomy(a, [0, 1, 2, 0]) == tk.holonomy(b, [0, 1, 2, 0]) == 1
    assert not isinstance(tk.are_equivalent(a, b), NotEquivalent)
    assert brute_force_equivalent(a, b)


def test_are_not_equivalent(c3, z2):
    a = cocycle(c3, z2, 0, 1, 0)
    zero = cocycle(c3, z2, 0, 0, 0)
    assert isinstance(tk.are_equivalent(a, zero), NotEquivalent)
    assert not brute_force_equivalent(a, zero)


def test_are_equivalent_agrees_with_oracle(c3, z3):
    cocycles = enumerate_cocycles(c3, z3)
    for a in cocycles[:9]:
        for b in cocycles[:9]:
            decided = not isinstance(tk.are_equivalent(a, b), NotEquivalent)
            assert decided == brute_force_equivalent(a, b)


def test_equivalence_is_an_equivalence_relation(c3, z2):
    cocycles = enumerate_cocycles(c3, z2)
    for a in cocycles:
        assert not isinstance(tk.are_equivalent(a, a), NotEquivalent)
        for b in cocycles:
            ab = not isinstance(tk.are_equivalent(a, b), NotEquivalent)
            ba = not isinstance(tk.are_equivalent(b, a), NotEquivalent)
            assert ab == ba
            if ab:
                for c in cocycles:
                    bc = not isinstance(tk.are_equivalent(b, c), NotEquivalent)
                    ac = not isinstance(tk.are_equivalent(a, c), NotEquivalent)
                    if bc:
                        assert ac


def test_trivialization_iff_equivalent_to_identity(c3, triangle, z2, z3):
    for nerve, grp in ((c3, z2), (c3, z3), (triangle, z2)):
        identity = tk.check_cocycle(
            nerve, grp, {e: grp.identity for e in nerve.edges}
        )
        for c in enumerate_cocycles(nerve, grp):
            direct = tk.find_trivialization(c)
            via_equiv = tk.are_equivalent(c, identity)
            assert isinstance(direct, NotTrivial) == isinstance(via_equiv, NotEquivalent)
            if not isinstance(direct, NotTrivial):
                # both witnesses verify the defining formula by substitution
                for (i, j) in nerve.edges:
                    assert c.g[(i, j)] == grp.mul(direct.h[i], grp.inv(direct.h[j]))
                    assert grp.identity == grp.mul(
                        grp.mul(via_equiv.h[i], c.g[(i, j)]), grp.inv(via_equiv.h[j])
                    )


def test_cycle_nerve_equivalence_is_holonomy_conjugacy(c3, s3):
    # on a cycle nerve, classes are exactly conjugacy classes of the holonomy
    cocycles = enumerate_cocycles(c3, s3)
    sample = cocycles[::17] + cocycles[:4]
    for a in sample:
        for b in sample:
            ha = tk.holonomy(a, [0, 1, 2, 0])
            hb = tk.holonomy(b, [0, 1, 2, 0])
            conjugate = any(
                s3.mul(s3.mul(k, ha), s3.inv(k)) == hb for k in s3.elements()
            )
            decided = not isinstance(tk.are_equivalent(a, b), NotEquivalent)
            assert decided == conjugate


def test_holonomy_examples(c3, z2, s3):
    c = cocycle(c3, z2, 0, 1, 0)
    assert tk.holonomy(c, [0, 1, 2, 0]) == 1
    cs = cocycle(c3, s3, 0, 3, 0)  # a 3-cycle sits on the closing edge
    assert tk.holonomy(cs, [0, 1, 2, 0]) == s3.inv(3)


def test_holonomy_along_trivialized_tree_is_identity(c3, s3):
    identity = cocycle(c3, s3, 0, 0, 0)
    h = tk.make_cochain(c3, s3, [1, 3, 5])
    c = tk.apply_coboundary(identity, h)
    # any closed path in a trivial cocycle has identity holonomy
    assert tk.holonomy(c, [0, 1, 2, 0]) == s3.identity
    assert tk.holonomy(c, [0, 1, 0]) == s3.identity


def test_holonomy_path_errors(c3, z2):
    c = cocycle(c3, z2, 0, 1, 0)
    with pytest.raises(PathNotClosed):
        tk.holonomy(c, [0, 1, 2])
    with pytest.raises(NotAPath):
        tk.holonomy(c, [0, 0])
    with pytest.raises(NotAPath):
        tk.holonomy(c, [])


def test_classes_c3_z2(c3, z2):
    classes = tk.equivalence_classes(c3, z2)
    assert len(classes) == 2
    assert sorted(c.size for c in classes) == [4, 4]
    # two more structural facts: disjoint members covering all 8 cocycles
    members = [m for c in classes for m in c.members]
    assert len(members) == 8 == len(set(members))


def test_classes_c3_s3(c3, s3):
    classes = tk.equivalence_classes(c3, s3)
    assert len(classes) == 3
    assert sorted(c.size for c in classes) == [36, 72, 108]


def test_classes_triangle_z2(triangle, z2):
    classes = tk.equivalence_classes(triangle, z2)
    assert len(classes) == 1
    assert classes[0].size == 4


def test_classes_representative_is_lex_least(c3, z2):
    for cls in tk.equivalence_classes(c3, z2):
        assert cls.representative.edge_values() == cls.members[0]
        assert cls.members == tuple(sorted(cls.members))


def test_classes_match_pairwise_oracle(c3, z2):
    classes = tk.equivalence_classes(c3, z2)
    cocycles = {c.edge_values(): c for c in enumerate_cocycles(c3, z2)}
    for cls in classes:
        rep = cocycles[cls.representative.edge_values()]
        for key, other in cocycles.items():
            inside = key in cls.members
            assert inside == brute_force_equivalent(rep, other)


def test_classes_guard(c3):
    big = tk.catalog_group("symmetric(4)")
    with pytest.raises(TooLarge):
        tk.equivalence_classes(c3, big)  # 24^3 candidates


@pytest.mark.parametrize("edge,position", [((0, 1.7), 1), ((True, 1), 0), (("0", 1), 0)])
def test_build_nerve_rejects_non_integer_edges(edge, position):
    with pytest.raises(MalformedTable) as exc:
        tk.build_nerve(3, [(0, 2), edge])
    assert exc.value.data == {"edge": 1, "position": position}


def test_build_nerve_rejects_non_integer_triples_and_short_edges():
    with pytest.raises(MalformedTable) as exc:
        tk.build_nerve(3, C3_EDGES, [(0, 1, 2.0)])
    assert exc.value.data == {"triple": 0, "position": 2}
    with pytest.raises(MalformedTable) as exc:
        tk.build_nerve(3, [(0,)])
    assert exc.value.data == {"edge": 0}


@pytest.mark.parametrize("value", [0.9, True, 1.0, "1"])
def test_check_cocycle_rejects_non_integer_values(c3, z2, value):
    with pytest.raises(MalformedTable) as exc:
        tk.check_cocycle(c3, z2, {(0, 1): 0, (0, 2): value, (1, 2): 0})
    assert exc.value.data == {"i": 0, "j": 2}


def test_check_cocycle_rejects_non_integer_keys(c3, z2):
    with pytest.raises(MalformedTable) as exc:
        tk.check_cocycle(c3, z2, {(0, 1): 0, (0, 2.0): 1, (1, 2): 0})
    assert exc.value.data["position"] == 1


def test_check_cocycle_accepts_numpy_integers(c3, z2):
    import numpy as np

    c = tk.check_cocycle(c3, z2, {(np.int64(0), 1): np.int32(1), (0, 2): 0, (1, 2): 0})
    assert c.edge_values() == (1, 0, 0)
    assert all(type(v) is int for v in c.edge_values())


@pytest.mark.parametrize("value", [0.5, True, None])
def test_make_cochain_rejects_non_integer_entries(c3, z2, value):
    with pytest.raises(MalformedTable) as exc:
        tk.make_cochain(c3, z2, [0, value, 0])
    assert exc.value.data == {"position": 1}


def test_classes_of_a_six_edge_matching_in_under_a_second():
    import time

    nerve = tk.build_nerve(12, [(2 * i, 2 * i + 1) for i in range(6)])
    start = time.perf_counter()
    classes = tk.equivalence_classes(nerve, tk.catalog_group("cyclic(4)"))
    assert time.perf_counter() - start < 1.0
    assert [c.size for c in classes] == [4096]
    assert classes[0].members == tuple(itertools.product(range(4), repeat=6))
    with pytest.raises(TooLarge) as exc:
        tk.equivalence_classes(tk.build_nerve(3, C3_EDGES), tk.catalog_group("symmetric(4)"))
    assert exc.value.data["size"] == 24**3


def ref_triple_witness(nerve, group, g):
    """The first triple ordering that breaks the identity, trying every ordering of each triple."""
    def value(a, b):
        if a == b:
            return group.identity
        return g[(a, b)] if a < b else group.inv(g[(b, a)])

    for t in nerve.triples:
        for a, b, c in itertools.permutations(t):
            if group.mul(value(a, b), value(b, c)) != value(a, c):
                return a, b, c
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["cyclic(2)", "cyclic(3)", "klein_four", "symmetric(3)"]),
    st.integers(3, 5),
    st.data(),
)
def test_check_cocycle_witness_matches_every_ordering(name, n, data):
    group = tk.catalog_group(name)
    edges = list(itertools.combinations(range(n), 2))
    triples = [t for t in itertools.combinations(range(n), 3) if data.draw(st.booleans())]
    nerve = tk.build_nerve(n, edges, triples)
    g = {e: data.draw(st.integers(0, group.order - 1)) for e in edges}
    want = ref_triple_witness(nerve, group, g)
    if want is None:
        assert tk.check_cocycle(nerve, group, g).g == g
        return
    with pytest.raises(TripleViolation) as exc:
        tk.check_cocycle(nerve, group, g)
    assert (exc.value.data["i"], exc.value.data["j"], exc.value.data["k"]) == want


@pytest.mark.parametrize("path,position", [
    ([0, 1.9, 2, 0], 1),
    ([0, True, 2, 0], 1),
    ([0, 1, 2, 0.0], 3),
    (["0", 1, 2, 0], 0),
    ([0, 1, 5, 0], 2),
    ([0, None, 0], 1),
    ([0, -1, 0], 1),
])
def test_holonomy_rejects_non_integer_path_entries(c3, s3, path, position):
    c = cocycle(c3, s3, 3, 5, 2)
    with pytest.raises(NotAPath) as exc:
        tk.holonomy(c, iter(path))
    assert exc.value.data == {"position": position}
    assert str(exc.value) == f"path entry {position} = {path[position]!r} is not an open"  # the entry as given


def test_holonomy_accepts_numpy_integers(c3, s3):
    import numpy as np

    c = cocycle(c3, s3, 3, 5, 2)
    assert tk.holonomy(c, [np.int64(0), 1, np.int32(2), 0]) == tk.holonomy(c, [0, 1, 2, 0])


ORACLE_GROUPS = ["cyclic(2)", "cyclic(3)", "cyclic(4)", "klein_four", "symmetric(3)"]


@st.composite
def cocycle_pairs(draw):
    """Two cocycles on one nerve with triples, several components and isolated opens.

    Edges join opens in the same one of up to three blocks. Each edge value is
    k_i * k_j^-1 for a drawn cochain k or a free draw, so triangles often
    close; the triples are some of the triangles on which both cocycles
    close. Half the pairs are related by a random coboundary.
    """
    group = tk.catalog_group(draw(st.sampled_from(ORACLE_GROUPS)))
    rnd = draw(st.randoms(use_true_random=True))
    n = rnd.randint(1, 8)

    def element():
        return rnd.randrange(group.order)

    blocks = rnd.randint(1, 3)
    block = [rnd.randrange(blocks) for _ in range(n)]
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if block[i] == block[j] and rnd.random() < 0.9
    ]

    def values():
        k = [element() for _ in range(n)]
        return {
            (i, j): group.mul(k[i], group.inv(k[j])) if rnd.random() < 0.8 else element()
            for i, j in edges
        }

    v1, v2 = values(), values()
    closed = [
        (i, j, k)
        for i, j, k in itertools.combinations(range(n), 3)
        if all(e in v1 for e in ((i, j), (j, k), (i, k)))
        and all(group.mul(v[(i, j)], v[(j, k)]) == v[(i, k)] for v in (v1, v2))
    ]
    nerve = tk.build_nerve(n, edges, [t for t in closed if rnd.random() < 0.7])
    c1 = tk.check_cocycle(nerve, group, v1)
    if draw(st.booleans()):
        h = tk.make_cochain(nerve, group, [element() for _ in range(n)])
        return c1, tk.apply_coboundary(c1, h)
    return c1, tk.check_cocycle(nerve, group, v2)


def _conjugated_k4_pair():
    """K4 over symmetric(3), conjugated by a 3-cycle at every open: one root value r works, not its inverse."""
    s3 = tk.catalog_group("symmetric(3)")
    nerve = tk.build_nerve(4, list(itertools.combinations(range(4), 2)))
    c1 = tk.check_cocycle(nerve, s3, {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 2): 3, (1, 3): 1, (2, 3): 2})
    return c1, tk.apply_coboundary(c1, tk.make_cochain(nerve, s3, [3] * 4))


@settings(max_examples=300, deadline=None)
@given(pair=cocycle_pairs())
@example(pair=_conjugated_k4_pair())
def test_shared_propagation_matches_the_separate_implementations(pair):
    c1, c2 = pair
    for c in (c1, c2):
        assert tk.find_trivialization(c) == cocycle_oracles.find_trivialization(c)
    assert tk.are_equivalent(c1, c2) == cocycle_oracles.are_equivalent(c1, c2)
    assert tk.are_equivalent(c2, c1) == cocycle_oracles.are_equivalent(c2, c1)


# ---------------------------------------------------------------- the forest kept on the nerve


@st.composite
def nerves(draw):
    """Nerves on up to 10 opens: any edge set, so several components, isolated opens and cycles occur."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return tk.build_nerve(n, edges)


@settings(max_examples=200, deadline=None)
@given(nerves())
def test_the_kept_forest_is_the_breadth_first_forest(nerve):
    forest = cocycle_oracles.reference_forest(nerve)
    assert nerve.forest == forest
    assert nerve.edge_set == frozenset(nerve.edges)
    # the walk down each tree, and the non-tree edges merged into edge order
    assert nerve.steps == tuple((u, v, (min(u, v), max(u, v)), v < u) for comp in forest for u, v in comp.tree)
    assert {id(edge) for _, _, edge, _ in nerve.steps} <= {id(edge) for edge in nerve.edges}  # shared, not copied
    assert nerve.cotree == tuple(e for e in nerve.edges if any(e in comp.cotree for comp in forest))


def _fresh(c, nerve):
    """``c`` on a value-equal nerve object."""
    return tk.check_cocycle(nerve, c.group, c.g)


def _fundamental_cycles(nerve):
    """For each non-tree edge (i, j), the closed path root ... i, j ... root along the tree."""
    paths = []
    for comp in cocycle_oracles.reference_forest(nerve):
        parent = {v: u for u, v in comp.tree}

        def to_root(v):
            out = [v]
            while out[-1] != comp.root:
                out.append(parent[out[-1]])
            return out

        for i, j in comp.cotree:
            paths.append(to_root(i)[::-1] + to_root(j))
    return paths


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TooLarge as exc:
        return TooLarge, exc.data


@settings(max_examples=150, deadline=None)
@given(pair=cocycle_pairs())
def test_queries_agree_on_a_warm_and_on_a_fresh_nerve(pair):
    c1, c2 = pair
    warm = c1.nerve
    for c in (c1, c2):
        tk.find_trivialization(c)
    assert "forest" in vars(warm)
    fresh = tk.build_nerve(warm.num_opens, warm.edges, warm.triples)
    assert fresh == warm and fresh is not warm and "forest" not in vars(fresh)
    f1, f2 = _fresh(c1, fresh), _fresh(c2, fresh)
    assert tk.are_equivalent(f1, f2) == tk.are_equivalent(c1, c2)
    assert tk.are_equivalent(f2, f1) == tk.are_equivalent(c2, c1)
    for c, f in ((c1, f1), (c2, f2)):
        assert tk.find_trivialization(f) == tk.find_trivialization(c)
        for path in _fundamental_cycles(warm):
            assert tk.holonomy(f, path) == tk.holonomy(c, path)
    fresh = tk.build_nerve(warm.num_opens, warm.edges, warm.triples)
    assert _outcome(tk.equivalence_classes, fresh, c1.group) == _outcome(tk.equivalence_classes, warm, c1.group)


def test_a_second_query_on_one_nerve_does_not_rebuild_the_forest(monkeypatch, s3):
    import torsorkit.cocycles as cocycles

    calls, real = [], cocycles._spanning_forest
    monkeypatch.setattr(cocycles, "_spanning_forest", lambda nerve: calls.append(nerve) or real(nerve))
    nerve = tk.build_nerve(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    c = tk.check_cocycle(nerve, s3, {e: 3 if e == (0, 1) else s3.identity for e in nerve.edges})
    moved = tk.apply_coboundary(c, tk.make_cochain(nerve, s3, [s3.identity, 3, 2, 5, 1]))
    assert isinstance(tk.find_trivialization(c), NotTrivial)
    assert isinstance(tk.find_trivialization(moved), NotTrivial)
    assert isinstance(tk.are_equivalent(c, moved), tk.Cochain)
    # the cochain is the identity at the base point 0, so it leaves the holonomy there alone
    assert tk.holonomy(c, [0, 1, 2, 3, 0]) == tk.holonomy(moved, [0, 1, 2, 3, 0]) == 3
    small = tk.build_nerve(3, [(0, 1), (1, 2), (0, 2)])
    tk.equivalence_classes(small, s3)
    tk.equivalence_classes(small, s3)
    assert calls == [nerve, small]


def test_a_nerve_with_warm_caches_survives_pickle_and_deepcopy(s3):
    import copy
    import pickle

    nerve = tk.build_nerve(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = tk.check_cocycle(nerve, s3, {(0, 1): 3, (1, 2): 1, (2, 3): 0, (0, 3): 2})
    want = tk.find_trivialization(c)
    assert {"forest", "edge_set"} <= set(vars(nerve))
    for clone in (pickle.loads(pickle.dumps(nerve)), copy.deepcopy(nerve)):
        assert clone == nerve and hash(clone) == hash(nerve)
        assert vars(clone)["forest"] == nerve.forest and vars(clone)["edge_set"] == nerve.edge_set
        moved = tk.check_cocycle(clone, s3, c.g)
        assert tk.find_trivialization(moved) == want
        assert tk.holonomy(moved, [0, 1, 2, 3, 0]) == tk.holonomy(c, [0, 1, 2, 3, 0])
        assert tk.equivalence_classes(clone, tk.catalog_group("cyclic(2)")) == tk.equivalence_classes(
            nerve, tk.catalog_group("cyclic(2)")
        )


# ---------------------------------------------------------------- class assembly


def test_a_duplicate_code_across_classes_raises_internal_error(monkeypatch, c3, z2):
    import torsorkit.cocycles as cocycles

    # every member gets code 0, so the count of code 0 is the number of cocycles
    monkeypatch.setattr(cocycles, "_codes", lambda values, n: np.zeros(len(values), dtype=np.intp))
    with pytest.raises(InternalError, match="two coboundary classes share a cocycle"):
        tk.equivalence_classes(c3, z2)


@pytest.mark.parametrize("opens", [1, 4])
@pytest.mark.parametrize("name", ["cyclic(2)", "symmetric(3)"])
def test_a_nerve_without_edges_has_one_class_of_the_empty_cocycle(opens, name):
    nerve, group = tk.build_nerve(opens, []), tk.catalog_group(name)
    (cls,) = tk.equivalence_classes(nerve, group)
    assert (cls.size, cls.members, cls.representative.edge_values()) == (1, ((),), ())


@settings(max_examples=150, deadline=None)
@given(nerve=nerves(), name=st.sampled_from(ORACLE_GROUPS))
def test_class_members_are_sorted_tuples_of_plain_ints(nerve, name):
    group = tk.catalog_group(name)
    if group.order ** len(nerve.edges) > tk.cocycles.CLASS_ENUM_MAX:
        return
    for cls in tk.equivalence_classes(nerve, group):
        rows = np.array(cls.members, dtype=np.intp).reshape(cls.size, len(nerve.edges))
        assert cls.members == tuple(map(tuple, rows.tolist()))
        assert all(type(m) is tuple and all(type(x) is int for x in m) for m in cls.members)
        assert list(cls.members) == sorted(set(cls.members))


@st.composite
def classified_members(draw):
    """A nerve with triples inside the class guard, its classes, and two of its members: the
    second one from the first one's class half the time."""
    group = tk.catalog_group(draw(st.sampled_from(ORACLE_GROUPS)))
    most = max(k for k in range(13) if group.order ** k <= tk.cocycles.CLASS_ENUM_MAX)
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=most)) if pairs else []
    closed = [t for t in itertools.combinations(range(n), 3) if set(itertools.combinations(t, 2)) <= set(edges)]
    triples = draw(st.lists(st.sampled_from(closed), unique=True)) if closed else []
    nerve = tk.build_nerve(n, edges, triples)
    classes = tk.equivalence_classes(nerve, group)
    first = draw(st.integers(0, len(classes) - 1))
    second = first if draw(st.booleans()) else draw(st.integers(0, len(classes) - 1))
    picked = [(k, draw(st.sampled_from(classes[k].members))) for k in (first, second)]
    return nerve, group, classes, picked


@settings(max_examples=200, deadline=None)
@given(classified_members())
def test_two_members_share_a_class_exactly_when_are_equivalent_finds_a_cochain(drawn):
    nerve, group, classes, ((k1, m1), (k2, m2)) = drawn
    c1, c2 = (tk.check_cocycle(nerve, group, dict(zip(nerve.edges, m))) for m in (m1, m2))
    found = tk.are_equivalent(c1, c2)
    assert isinstance(found, tk.Cochain) == (k1 == k2)
    if k1 == k2:
        assert tk.apply_coboundary(c1, found) == c2
    else:
        assert found == NotEquivalent()
    # each member is equivalent to its own class's representative and to no other
    for k, cls in enumerate(classes):
        assert isinstance(tk.are_equivalent(cls.representative, c1), tk.Cochain) == (k == k1)


# ---------------------------------------------------------------- results handed over unread


def _as_read(obj):
    """``obj`` read back through its public reader, which must give an equal object of plain ints, with
    the values of a cocycle in the same order."""
    if isinstance(obj, tk.Cochain):
        read = tk.make_cochain(obj.nerve, obj.group, obj.h)
        assert type(obj.h) is tuple and all(type(v) is int for v in obj.h)
    else:
        read = tk.check_cocycle(obj.nerve, obj.group, obj.g)
        assert list(obj.g.items()) == list(read.g.items()) and all(type(v) is int for v in obj.g.values())
    assert obj == read
    return read


@settings(max_examples=200, deadline=None)
@given(pair=cocycle_pairs(), data=st.data())
def test_handed_over_cochains_and_cocycles_equal_what_the_readers_build(pair, data):
    c1, c2 = pair
    for found in (tk.find_trivialization(c1), tk.find_trivialization(c2), tk.are_equivalent(c1, c2),
                  tk.are_equivalent(c2, c1)):
        if isinstance(found, tk.Cochain):
            _as_read(found)
    h = data.draw(st.lists(st.integers(0, c1.group.order - 1), min_size=c1.nerve.num_opens,
                           max_size=c1.nerve.num_opens))
    _as_read(tk.apply_coboundary(c1, tk.make_cochain(c1.nerve, c1.group, h)))


@settings(max_examples=60, deadline=None)
@given(classified_members())
def test_every_class_representative_equals_the_read_of_its_least_member(drawn):
    nerve, group, classes, _ = drawn
    for cls in classes:
        assert _as_read(cls.representative).edge_values() == cls.members[0]
        for member in cls.members:  # every member closes on every triple
            tk.check_cocycle(nerve, group, dict(zip(nerve.edges, member)))


@pytest.fixture
def reader_calls(monkeypatch):
    """The calls, by name, of the two public readers and of the triple decision ``_closed``."""
    import torsorkit.cocycles as cocycles

    calls = {}
    for name in ("check_cocycle", "make_cochain", "_closed"):
        seen, real = calls.setdefault(name, []), getattr(cocycles, name)
        monkeypatch.setattr(cocycles, name, lambda *args, seen=seen, real=real: seen.append(args) or real(*args))
    return calls


def test_the_queries_run_no_reader_and_each_class_decides_its_triples_once(s3, reader_calls):
    cycle = tk.build_nerve(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = tk.cocycles.NerveCocycle(cycle, s3, {(0, 1): 3, (1, 2): 0, (2, 3): 0, (0, 3): 0})  # holonomy 3
    h = tk.Cochain(cycle, s3, (0, 3, 2, 5))
    for name in reader_calls:
        assert reader_calls[name] == []
    moved = tk.apply_coboundary(c, h)
    assert reader_calls["_closed"] == [(cycle, s3, moved.g)]
    reader_calls["_closed"].clear()
    identity = tk.cocycles.NerveCocycle(cycle, s3, dict.fromkeys(cycle.edges, s3.identity))
    outcomes = [tk.find_trivialization(c), tk.find_trivialization(identity), tk.are_equivalent(c, moved),
                tk.are_equivalent(c, identity)]
    assert [type(out).__name__ for out in outcomes] == ["NotTrivial", "Cochain", "Cochain", "NotEquivalent"]
    assert reader_calls == {"check_cocycle": [], "make_cochain": [], "_closed": []}
    triangle = tk.build_nerve(3, C3_EDGES, [(0, 1, 2)])
    for nerve in (cycle, triangle):
        classes = tk.equivalence_classes(nerve, s3)
        assert [args[2] for args in reader_calls["_closed"]] == [cls.representative.g for cls in classes]
        reader_calls["_closed"].clear()
    assert reader_calls["check_cocycle"] == reader_calls["make_cochain"] == []


# ---------------------------------------------------------------- only the work the answer needs


@st.composite
def interleaved_pairs(draw):
    """Two cocycles on a nerve of 2 or 3 components whose opens interleave (open v lies in component
    v % k), each holding a triangle, so the non-tree edges of different components alternate in edge order.

    Most edge values are h_i * h_j^-1 for a drawn cochain h and up to two are free draws, so a
    cocycle fails, if at all, on any of its non-tree edges. Half the pairs are related by a coboundary.
    """
    group = tk.catalog_group(draw(st.sampled_from(ORACLE_GROUPS)))
    k = draw(st.integers(2, 3))
    n = draw(st.integers(3 * k, 3 * k + 4))
    triangles = {e for c in range(k) for e in ((c, c + k), (c, c + 2 * k), (c + k, c + 2 * k))}
    joins = {(v - k, v) for v in range(3 * k, n)}  # each open past the triangles joins its own component
    same = [(i, j) for i, j in itertools.combinations(range(n), 2) if (j - i) % k == 0]
    edges = sorted(triangles | joins | {e for e in same if draw(st.booleans())})
    element = st.integers(0, group.order - 1)

    def values():
        h = [draw(element) for _ in range(n)]
        free = draw(st.sets(st.sampled_from(edges), max_size=2))
        return {(i, j): draw(element) if (i, j) in free else group.mul(h[i], group.inv(h[j])) for i, j in edges}

    nerve = tk.build_nerve(n, edges)
    c1 = tk.check_cocycle(nerve, group, values())
    if draw(st.booleans()):
        return c1, tk.apply_coboundary(c1, tk.make_cochain(nerve, group, [draw(element) for _ in range(n)]))
    return c1, tk.check_cocycle(nerve, group, values())


@settings(max_examples=300, deadline=None)
@given(pair=interleaved_pairs())
def test_checking_only_the_cotree_answers_as_checking_every_edge(pair):
    c1, c2 = pair
    nerve = c1.nerve
    assert len(nerve.forest) >= 2 and len(nerve.cotree) >= len(nerve.forest)
    for c in (c1, c2):
        out = tk.find_trivialization(c)
        assert out == cocycle_oracles.find_trivialization(c)  # propagated on its own, checked on every edge
        if isinstance(out, NotTrivial):
            assert out.violating_edge in nerve.cotree
    for a, b in ((c1, c2), (c2, c1)):
        out = tk.are_equivalent(a, b)
        assert out == cocycle_oracles.are_equivalent(a, b)
        if isinstance(out, tk.Cochain):
            h, grp = out.h, a.group
            assert all(b.g[(i, j)] == grp.mul(grp.mul(h[i], a.g[(i, j)]), grp.inv(h[j])) for i, j in nerve.edges)


class _CountingDict(dict):
    """A dict that counts its reads by key."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_find_trivialization_reads_each_tree_edge_once_and_the_cotree_up_to_the_failure(s3):
    from torsorkit.cocycles import NerveCocycle

    cycle = tk.build_nerve(400, [(i, i + 1) for i in range(399)] + [(0, 399)])
    (closing,) = cycle.cotree
    for value, want in ((s3.identity, tk.Cochain), (3, NotTrivial)):
        g = _CountingDict(dict.fromkeys(cycle.edges, s3.identity))
        g[closing] = value
        assert isinstance(tk.find_trivialization(NerveCocycle(cycle, s3, g)), want)
        assert g.reads == 399 + 1
    k6 = tk.build_nerve(6, list(itertools.combinations(range(6), 2)))
    assert len(k6.cotree) == 10
    for failing in range(len(k6.cotree)):
        g = _CountingDict(dict.fromkeys(k6.edges, s3.identity))
        g[k6.cotree[failing]] = 3
        c = NerveCocycle(k6, s3, g)
        assert tk.find_trivialization(c) == NotTrivial(k6.cotree[failing])
        assert g.reads == 5 + failing + 1
        assert cocycle_oracles.find_trivialization(c) == NotTrivial(k6.cotree[failing])


def test_plain_edge_keys_are_taken_as_they_are(monkeypatch, s3):
    import torsorkit.cocycles as cocycles

    k12 = tk.build_nerve(12, list(itertools.combinations(range(12), 2)), list(itertools.combinations(range(12), 3)))
    calls, real = [], cocycles._ints
    monkeypatch.setattr(cocycles, "_ints", lambda key, *args, **kw: calls.append(key) or real(key, *args, **kw))
    values = {(i, j): s3.identity for i, j in k12.edges}  # key objects of the caller's own
    g = tk.check_cocycle(k12, s3, values).g
    assert g == values and all(kept is given for kept, given in zip(g, values))  # kept, not copied
    assert calls == []
    numpy_key = (np.int64(0), 1)
    c = tk.check_cocycle(k12, s3, {numpy_key if e == (0, 1) else e: v for e, v in values.items()})
    assert calls == [numpy_key] and c.g == values and all(type(i) is int for e in c.g for i in e)


@pytest.mark.parametrize("key,message,place", [
    (np.int64(1), "edge key {key!r} is not a sequence", {"edge": "1"}),
    (True, "edge key True is not a sequence", {"edge": "True"}),
    ((0, 1, 2), "edge key [0, 1, 2] needs 2 entries", {"edge": "(0, 1, 2)"}),
    ("01", "edge key: entry 0 = '0' is not an integer", {"edge": "01", "position": 0}),
    (("0", 1), "edge key: entry 0 = '0' is not an integer", {"edge": "('0', 1)", "position": 0}),
    ((0, 2.5), "edge key: entry 1 = 2.5 is not an integer", {"edge": "(0, 2.5)", "position": 1}),
], ids=["numpy-int", "bool", "3-tuple", "str", "str-entry", "float-entry"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_a_key_that_is_not_a_plain_pair_is_read_and_named_as_before(c3, z2, key, message, place, first):
    rest = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    with pytest.raises(MalformedTable) as exc:
        tk.check_cocycle(c3, z2, {key: 0, **rest} if first else {**rest, key: 0})
    assert str(exc.value) == message.format(key=key) and exc.value.data == place


def test_the_first_bad_entry_in_dict_order_wins_between_a_value_and_a_key(c3, z2):
    with pytest.raises(MalformedTable) as exc:
        tk.check_cocycle(c3, z2, {(0, 1): 1.5, "x": 0, (0, 2): 0, (1, 2): 0})
    assert exc.value.data == {"i": 0, "j": 1}
    with pytest.raises(MalformedTable) as exc:
        tk.check_cocycle(c3, z2, {"x": 0, (0, 1): 1.5, (0, 2): 0, (1, 2): 0})
    assert exc.value.data == {"edge": "x"}

