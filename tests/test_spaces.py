"""Finite topologies, minimal opens, connectivity, the pseudocircle."""

import time

import pytest

import torsorkit as tk
from torsorkit.errors import (
    MalformedTable,
    MissingEmpty,
    MissingWhole,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PointOutOfRange,
    TooLarge,
)


def test_one_point_space():
    space = tk.build_space(1, [(), (0,)])
    assert space.opens == ((), (0,))
    assert space.minimal_open == (1,)


def test_pseudocircle_opens(psc):
    assert psc.opens == (
        (),
        (0,),
        (1,),
        (0, 1),
        (0, 1, 2),
        (0, 1, 3),
        (0, 1, 2, 3),
    )


def test_pseudocircle_closure_fixpoint(psc):
    generated = tk.close_under_ops(4, [(0,), (1,), (0, 1, 2), (0, 1, 3)])
    assert generated == psc


def test_pseudocircle_minimal_opens(psc):
    assert [psc.opens[m] for m in psc.minimal_open] == [
        (0,),
        (1,),
        (0, 1, 2),
        (0, 1, 3),
    ]


def test_missing_union_witness():
    with pytest.raises(NotClosedUnderUnion) as exc:
        tk.build_space(3, [(), (0,), (1,), (0, 1, 2)])
    assert {tuple(exc.value.data["a"]), tuple(exc.value.data["b"])} == {(0,), (1,)}


def test_missing_intersection_witness():
    with pytest.raises(NotClosedUnderIntersection):
        tk.build_space(3, [(), (0, 1), (1, 2), (0, 1, 2)])


def test_missing_empty_and_whole():
    with pytest.raises(MissingEmpty):
        tk.build_space(2, [(0,), (0, 1)])
    with pytest.raises(MissingWhole):
        tk.build_space(2, [(), (0,)])


def test_missing_whole_is_decided_without_listing_the_points():
    with pytest.raises(MissingWhole):
        tk.build_space(10**30, [(), (0,)])


def test_too_many_opens():
    import itertools

    points = 7
    opens = [
        tuple(sorted(s))
        for r in range(points + 1)
        for s in itertools.combinations(range(points), r)
    ]
    with pytest.raises(TooLarge):
        tk.build_space(points, opens)  # discrete topology: 128 opens


def test_thirteen_discrete_points_give_their_exact_open_count_at_once():
    start = time.perf_counter()
    with pytest.raises(TooLarge) as exc:
        tk.close_under_ops(13, [(i,) for i in range(13)])
    assert exc.value.data == {"size": 2**13, "budget": 64}
    # unions of the 13 minimal opens: well under 1 s, where a union/intersection fixed point took 87 s
    assert time.perf_counter() - start < 10


def test_twenty_five_discrete_points_are_counted_without_listing_an_open():
    start = time.perf_counter()
    with pytest.raises(TooLarge) as exc:
        tk.close_under_ops(25, [(i,) for i in range(25)])
    assert exc.value.data == {"size": 2**25, "budget": 64}
    assert time.perf_counter() - start < 1


def test_disjoint_two_point_chains_are_counted_one_chain_at_a_time():
    # each chain {2i} <= {2i, 2i+1} has three down-sets, and the count of a disjoint union is their product
    start = time.perf_counter()
    with pytest.raises(TooLarge) as exc:
        tk.close_under_ops(48, [g for i in range(24) for g in ((2 * i,), (2 * i, 2 * i + 1))])
    assert exc.value.data == {"size": 3**24, "budget": 64}
    assert time.perf_counter() - start < 1


def test_the_open_bound_lies_between_six_and_seven_discrete_points():
    assert len(tk.close_under_ops(6, [(i,) for i in range(6)]).opens) == 64
    with pytest.raises(TooLarge) as exc:
        tk.close_under_ops(7, [(i,) for i in range(7)])
    assert exc.value.data == {"size": 128, "budget": 64}


def test_the_torus_model_has_430_opens(psc):
    # pseudocircle x pseudocircle: U_(x,y) = U_x x U_y, with point (x, y) numbered 4x + y
    minimal = [[4 * a + b for a in psc.minimal[x] for b in psc.minimal[y]] for x in range(4) for y in range(4)]
    with pytest.raises(TooLarge) as exc:
        tk.close_under_ops(16, minimal)
    assert exc.value.data == {"size": 430, "budget": 64}


def test_components_overlap(psc):
    assert tk.connected_components(psc, (0, 1)) == ((0,), (1,))


def test_components_whole_space(psc):
    assert tk.connected_components(psc, range(4)) == ((0, 1, 2, 3),)


def test_components_empty(psc):
    assert tk.connected_components(psc, ()) == ()


def test_components_out_of_range(psc):
    with pytest.raises(PointOutOfRange):
        tk.connected_components(psc, (7,))


def test_components_of_every_open_partition(psc):
    for o in psc.opens:
        comps = tk.connected_components(psc, o)
        flat = sorted(p for c in comps for p in c)
        assert flat == list(o)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)


def test_index_helpers(psc):
    u = psc.index_of((0, 1, 2))
    v = psc.index_of((0, 1, 3))
    assert psc.opens[psc.intersection_index(u, v)] == (0, 1)
    assert psc.opens[psc.empty_index] == ()
    assert psc.opens[psc.whole_index] == (0, 1, 2, 3)


@pytest.mark.parametrize("point", ["0", 0.9, True])
def test_build_space_rejects_non_integer_points(point):
    with pytest.raises(MalformedTable) as exc:
        tk.build_space(2, [[], [point], [0, 1]])
    assert exc.value.data == {"point": point}
    with pytest.raises(MalformedTable):
        tk.close_under_ops(2, [[point]])


@pytest.mark.parametrize("subset", [[0.5, 2], ["0", 2]])
def test_connected_components_rejects_non_integer_points(psc, subset):
    with pytest.raises(MalformedTable):
        tk.connected_components(psc, subset)
