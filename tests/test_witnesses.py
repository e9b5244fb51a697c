"""Every rejection names its witness: strict integers at the public entry points, the scale guards
past the point where a size prints, and the rejection paths no other test reaches, each with its
exact witness."""

import itertools
import json
import time

import numpy as np
import pytest

import torsorkit as tk
from torsorkit import errors, jsonio
from torsorkit.sheaves import SheafAction, SheafOfSets

from test_cli import run_cli

Z1 = tk.catalog_group("cyclic(1)")
Z2 = tk.catalog_group("cyclic(2)")
AFFINE = tk.affine_torsor(2, 3)
POINT_TORSOR = tk.lift_point_torsor(AFFINE)  # one section on the empty open, eight on the point
POINT = tk.point_space()                     # opens: 0 = (), 1 = (0,)


def witness(kind, call):
    """The witness of the error ``call`` raises, which must be exactly of class ``kind``."""
    with pytest.raises(errors.TorsorError) as exc:
        call()
    assert type(exc.value) is kind
    return exc.value.witness()


# ---------------------------------------------------------------- strict integers

@pytest.mark.parametrize("call,kind,fields", [
    (lambda: tk.build_space(2.0, [(), (0, 1)]), errors.MalformedTable, {"num_points": 2.0}),
    (lambda: tk.build_space(True, [(), (0,)]), errors.MalformedTable, {"num_points": True}),
    (lambda: tk.build_nerve(2.5, [(0, 1)]), errors.MalformedTable, {"num_opens": 2.5}),
    (lambda: tk.affine_torsor(2, True), errors.MalformedTable, {"n": True}),
    (lambda: tk.basis_torsor(2, 2.0), errors.MalformedTable, {"n": 2.0}),
    (lambda: tk.orbit(AFFINE.action, True), errors.PointOutOfRange, {"point": True}),
    (lambda: tk.build_group(True, [[0]]), errors.MalformedTable, {"order": True}),
    (lambda: tk.build_group(2.0, [[0, 1], [1, 0]]), errors.MalformedTable, {"order": 2.0}),
    (lambda: tk.build_action(Z2, 2.0, [[0, 1], [1, 0]]), errors.MalformedTable, {"set_size": 2.0}),
    (lambda: tk.build_action(Z2, True, [[0], [0]]), errors.MalformedTable, {"set_size": True}),
    (lambda: tk.sections(POINT_TORSOR, 1.0), errors.UnknownOpen, {"open": 1.0}),
    (lambda: tk.transporter(AFFINE, 1.0, 0), errors.PointOutOfRange, {"point": 1.0}),
    (lambda: tk.trivialization(AFFINE, 1.0), errors.PointOutOfRange, {"point": 1.0}),
    (lambda: tk.constant_section_id(Z2, (0, 5)), errors.MalformedTable, {"position": 1}),
    (lambda: tk.constant_section_id(Z2, (0.9, 1)), errors.MalformedTable, {"position": 0}),
    (lambda: tk.constant_section_tuple(Z2, 2, 9), errors.MalformedTable, {"section": 9}),
    (lambda: tk.decode_vector(9, 2, 2), errors.MalformedTable, {"code": 9}),
    (lambda: tk.symmetric_elements(3.0), errors.UnknownName, {"name": "symmetric(3.0)"}),
    (lambda: tk.pseudocircle().index_of([0.0, 1.0, 2.0]), errors.MalformedTable, {"point": 0.0}),
    (lambda: tk.pseudocircle().index_of([True]), errors.MalformedTable, {"point": True}),
], ids=[
    "build_space-float", "build_space-bool", "build_nerve", "affine_torsor", "basis_torsor", "orbit",
    "build_group-bool", "build_group-float", "build_action-float", "build_action-bool", "sections",
    "transporter", "trivialization", "constant_section_id-range", "constant_section_id-float",
    "constant_section_tuple", "decode_vector", "symmetric_elements", "index_of-float", "index_of-bool",
])
def test_a_non_integer_or_out_of_range_index_is_rejected_not_coerced(call, kind, fields):
    got = witness(kind, call)
    assert got == {"axiom": kind.axiom, **fields}
    assert [type(v) for v in got.values()] == [str, *map(type, fields.values())]


# ---------------------------------------------------------------- the place of a bad entry

def _sheaf_obj(edit):
    obj = json.loads(jsonio.canonical_json(jsonio.sheaf_action_to_obj(POINT_TORSOR.action)))
    edit(obj)
    return obj


# ``position`` is an entry's place in its sequence, ``row`` that sequence's place in a table,
# and a sequence's own name (``edge``, ``triple``, ``key``) comes first, then the place inside it
@pytest.mark.parametrize("call,kind,fields", [
    (lambda: tk.build_group(2, [[0, 1], [1, 2.0]]), errors.MalformedTable, {"row": 1, "position": 1}),
    (lambda: tk.build_group(2, [[0, 1], [1]]), errors.MalformedTable, {"row": 1}),
    (lambda: tk.build_group(2, [[0, 1]]), errors.MalformedTable, {"rows": 1}),
    (lambda: tk.build_action(Z2, 2, [[0, 1], [True, 0]]), errors.MalformedTable, {"row": 1, "position": 0}),
    (lambda: tk.right_action_as_left(Z2, 2, [[0, 1], [1, 2]]), errors.MalformedTable, {"row": 1, "position": 1}),
    (lambda: tk.build_subgroup(Z2, [0, 1, 2]), errors.MalformedTable, {"position": 2}),
    (lambda: tk.build_subgroup(Z2, [0.0]), errors.MalformedTable, {"position": 0}),
    (lambda: tk.subgroup_as_group(tk.Subgroup(Z2, (0, 1, 1))), errors.MalformedTable, {"position": 2, "element": 1}),
    (lambda: tk.prime_field_matrix(3, [[1, 1], [0, 1.5]]), errors.MalformedTable, {"row": 1, "position": 1}),
    (lambda: tk.gaussian_solve(tk.prime_field_matrix(3, [[1, 1]]), [False]), errors.MalformedTable, {"position": 0}),
    (lambda: tk.build_nerve(3, [(0, 1), (1, 2.0)]), errors.MalformedTable, {"edge": 1, "position": 1}),
    (lambda: tk.build_nerve(3, [(0,)]), errors.MalformedTable, {"edge": 0}),
    (lambda: tk.build_nerve(3, [(0, 1), (0, 2), (1, 2)], [(0, "1", 2)]), errors.MalformedTable,
     {"triple": 0, "position": 1}),
    (lambda: tk.check_cocycle(tk.build_nerve(2, [(0, 1)]), Z2, {(0, 1.0): 0}), errors.MalformedTable,
     {"edge": "(0, 1.0)", "position": 1}),
    # an edge or a key given as one integer, or None, is no sequence: not a TypeError
    (lambda: tk.check_cocycle(tk.build_nerve(2, [(0, 1)]), Z2, {5: 0}), errors.MalformedTable, {"edge": "5"}),
    (lambda: tk.check_cocycle(tk.build_nerve(2, [(0, 1)]), Z2, {None: 0}), errors.MalformedTable, {"edge": "None"}),
    (lambda: tk.build_nerve(2, [5]), errors.MalformedTable, {"edge": 0}),
    (lambda: tk.build_descent_datum(tk.constant_group_sheaf(POINT, Z2), [1, 1], {7: 0}), errors.MalformedTable,
     {"key": "7"}),
    (lambda: tk.make_cochain(tk.build_nerve(3, [(0, 1)]), Z2, (5, 0)), errors.MalformedTable, {"got": 2}),
    (lambda: tk.make_cochain(tk.build_nerve(2, [(0, 1)]), Z2, (5, 0.5)), errors.MalformedTable, {"position": 1}),
    (lambda: tk.build_descent_datum(tk.constant_group_sheaf(POINT, Z2), [1, 1.0], {}), errors.MalformedTable,
     {"position": 1}),
    (lambda: tk.build_descent_datum(tk.constant_group_sheaf(POINT, Z2), [2, 1.0], {}), errors.UnknownOpen,
     {"open": 2}),
    (lambda: tk.build_descent_datum(tk.constant_group_sheaf(POINT, Z2), [1.0, 2], {}), errors.MalformedTable,
     {"position": 0}),
    (lambda: tk.extract_cocycle(POINT_TORSOR, [1, 1], [0, 2.0]), errors.MalformedTable, {"position": 1}),
    (lambda: tk.connected_components(tk.pseudocircle(), (7, 5, -1)), errors.PointOutOfRange, {"point": -1}),
    (lambda: tk.connected_components(tk.pseudocircle(), (7, 0.5)), errors.MalformedTable, {"point": 0.5}),
    (lambda: tk.build_space(2, [(), (0, 1), (0, 1, 7), (9,)]), errors.PointOutOfRange, {"point": 9}),
    (lambda: tk.build_space(2, [(), (0, 1), (9,), ("0",)]), errors.MalformedTable, {"point": "0"}),
    (lambda: tk.close_under_ops(2, [(0, 1, 7), (9,)]), errors.PointOutOfRange, {"point": 9}),
    (lambda: jsonio.sets_sheaf_from_obj(_sheaf_obj(lambda o: o["sets"]["restrict"]["1,0"].__setitem__(3, 0.0))["sets"],
                                        space=POINT), errors.MalformedTable, {"u": 1, "v": 0, "position": 3}),
    (lambda: jsonio.sheaf_action_from_obj(_sheaf_obj(lambda o: o["act"]["1"][2].__setitem__(5, "5"))),
     errors.MalformedTable, {"open": 1, "row": 2, "position": 5}),
], ids=[
    "cayley-cell", "cayley-row-length", "cayley-rows", "action-cell", "right-action-cell", "subgroup-range",
    "subgroup-float", "subgroup-repeat", "matrix-cell", "rhs-entry", "nerve-edge", "nerve-edge-length",
    "nerve-triple", "cocycle-edge-key", "cocycle-int-key", "cocycle-none-key", "nerve-int-edge",
    "transition-int-key", "cochain-length-first", "cochain-type-before-range", "cover-float",
    "cover-range-first", "cover-float-first", "chosen-float", "subset-least-point", "subset-type-first",
    "space-first-canonical-open", "space-type-first", "generated-first-canonical-open", "restriction-cell",
    "action-table-cell",
])
def test_a_bad_entry_names_its_place_in_order(call, kind, fields):
    got = witness(kind, call)
    assert list(got.items()) == [("axiom", kind.axiom), *fields.items()]


def test_extract_cocycle_names_the_first_failing_cover_position():
    # the twisted pseudocircle torsor has no global section; the arc has two
    torsor = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(Z2, 1))
    whole, arc = torsor.space.whole_index, torsor.space.index_of((0, 1, 2))
    cases = [
        ([whole, arc], [0, 9], errors.NoLocalSection, 0),
        ([arc, whole], [9, 0], errors.MalformedTable, 0),
        ([arc, whole], [0.5, 0], errors.MalformedTable, 0),
        ([arc, whole], [0, 0.5], errors.NoLocalSection, 1),
        ([arc, arc, whole], [1, 2, 0], errors.MalformedTable, 1),
    ]
    for cover, chosen, kind, position in cases:
        got = witness(kind, lambda: tk.extract_cocycle(torsor, cover, chosen))
        assert list(got.items()) == [("axiom", kind.axiom), ("position", position)]


# ---------------------------------------------------------------- every budget at its boundary

def _solve(p, cols):
    """The identity system over F_p: one solution among the p^cols vectors enumerated."""
    eye = [[int(i == j) for j in range(cols)] for i in range(cols)]
    return tk.solution_torsor(tk.prime_field_matrix(p, eye), [0] * cols)


def _glue(order, charts, read=None):
    """The trivial descent datum of Z/order on ``charts`` copies of the point: order^charts candidates.
    ``read``, if given, turns each section count into the integer type a caller's own sheaf holds."""
    group = tk.build_group(order, [[(a + b) % order for b in range(order)] for a in range(order)])
    gs = tk.constant_group_sheaf(POINT, group)
    if read is not None:
        sets = SheafOfSets(space=POINT, sizes=tuple(map(read, gs.sets.sizes)), restrict=gs.sets.restrict)
        gs = tk.SheafOfGroups(sets=sets, groups=gs.groups)
    transition = {pair: 0 for pair in itertools.combinations(range(charts), 2)}
    return tk.glue_from_cocycle(tk.build_descent_datum(gs, [1] * charts, transition))


def _discrete(points):
    return tk.close_under_ops(points, [(i,) for i in range(points)])


def _subsets(points, count):
    """The first ``count`` subsets of range(points), by size: distinct opens, whatever else they fail."""
    return [s for r in range(points + 1) for s in itertools.combinations(range(points), r)][:count]


@pytest.mark.parametrize("budget,value,at,past,size", [
    ("constructions.AFFINE_MAX_POINTS", 256, lambda: tk.affine_torsor(2, 8), lambda: tk.affine_torsor(2, 9), 512),
    ("constructions.SOLUTION_MAX_VECTORS", 4096, lambda: _solve(2, 12), lambda: _solve(2, 13), 2**13),
    # 2^9 = 512 is the boundary itself; the least p^(n*n) past it is 521^1
    ("constructions.BASIS_MAX_MATRICES", 512,
     lambda: tk.general_linear_group(2, 3), lambda: tk.general_linear_group(521, 1), 521),
    ("constructions.CODE_MAX", 2**63 - 1,
     lambda: tk.decode_vector(2**62 - 1, 2, 62), lambda: tk.decode_vector(0, 2, 63), 2**63),
    ("cocycles.CLASS_ENUM_MAX", 4096,
     lambda: tk.equivalence_classes(_matching(12), Z2), lambda: tk.equivalence_classes(_matching(13), Z2), 2**13),
    ("sheaves.CONSTANT_SECTIONS_MAX", 512,
     lambda: tk.constant_section_id(Z2, [0] * 9), lambda: tk.constant_section_id(Z2, [0] * 10), 2**10),
    ("sheaves.FAMILY_CANDIDATE_MAX", 65536, lambda: _glue(16, 4), lambda: _glue(17, 4), 17**4),
    ("spaces.MAX_OPENS", 64, lambda: _discrete(6), lambda: _discrete(7), 128),
    ("spaces.MAX_OPENS", 64,
     lambda: tk.build_space(6, _subsets(6, 64)), lambda: tk.build_space(7, _subsets(7, 65)), 65),
], ids=[
    "affine", "solution", "basis", "vector-code", "classes", "sections", "families", "close_under_ops", "build_space",
])
def test_every_budget_admits_its_boundary_and_names_itself_one_step_past(budget, value, at, past, size):
    module, name = budget.split(".")
    assert getattr(getattr(tk, module), name) == value
    at()
    assert witness(errors.TooLarge, past) == {"axiom": "size-guard", "size": size, "budget": value}


@pytest.mark.parametrize("call,size,budget", [
    (lambda: tk.affine_torsor(np.int64(2), 9), 512, 256),
    (lambda: tk.affine_torsor(3, np.int64(41)), 3**41, 256),  # wraps negative in int64
    (lambda: tk.general_linear_group(2, np.int64(8)), 2**64, 512),  # wraps to 0 in int64
    (lambda: tk.encode_vector([1] + [0] * 69, np.int64(2)), 2**70, 2**63 - 1),
    (lambda: tk.decode_vector(0, np.int64(2), np.int64(63)), 2**63, 2**63 - 1),
    (lambda: _glue(2, 64, np.int64), 2**64, 65536),  # a product of int64 section counts wraps to 0
], ids=["affine-p", "affine-n", "basis", "encode", "decode", "families"])
def test_numpy_integers_meet_each_guard_as_python_integers_do(call, size, budget):
    assert witness(errors.TooLarge, call) == {"axiom": "size-guard", "size": size, "budget": budget}


# ---------------------------------------------------------------- guards past a printable size

def _matching(k):
    return tk.build_nerve(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


@pytest.mark.parametrize("edges,fields", [
    (1024, {"size": 2**1024, "budget": 4096}),  # 1025 bits: the size prints under any int_max_str_digits
    (1025, {"order": 2, "edges": 1025, "budget": 4096}),
])
def test_the_class_guard_names_the_operands_once_the_size_would_not_print(edges, fields):
    assert witness(errors.TooLarge, lambda: tk.equivalence_classes(_matching(edges), Z2)) == {
        "axiom": "size-guard", **fields
    }


@pytest.mark.parametrize("count,fields", [
    (1024, {"size": 2**1024, "budget": 512}),
    (1025, {"order": 2, "components": 1025, "budget": 512}),
    (20000, {"order": 2, "components": 20000, "budget": 512}),  # 2^20000 has 6021 digits, past Python's default 4300
])
def test_the_section_guard_names_the_operands_once_the_size_would_not_print(count, fields):
    assert witness(errors.TooLarge, lambda: tk.constant_section_id(Z2, [0] * count)) == {
        "axiom": "size-guard", **fields
    }


def test_a_count_formed_past_the_printable_size_is_named_by_its_operands():
    # glue forms its candidate count as a product; past 2^2048 the witness and message name the charts
    with pytest.raises(errors.TooLarge) as exc:
        errors._guard(2**2100, 1, 65536, "family candidates", charts=228)
    assert exc.value.witness() == {"axiom": "size-guard", "charts": 228, "budget": 65536}
    assert str(exc.value) == "family candidates (charts=228) exceeds 65536"


def test_a_trivial_group_passes_the_guard_on_any_number_of_components():
    # a group of order 1 has one section however many components: 1^3000 = 1 is formed, not refused
    assert tk.constant_section_id(Z1, [0] * 3000) == 0
    assert tk.constant_section_tuple(Z1, 3000, 0) == (0,) * 3000


def test_query_classes_on_k90_fails_at_once_on_the_size_guard(tmp_path):
    # 12^4005 has 4323 digits: printing it raised ValueError before the report was written
    edges = [list(e) for e in itertools.combinations(range(90), 2)]
    path = tmp_path / "k90.json"
    path.write_text(json.dumps(
        {"group": "cyclic(12)", "nerve": {"opens": 90, "edges": edges, "triples": []}, "g": {}}
    ))
    start = time.perf_counter()
    code, out, err = run_cli(["query", "classes", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "classes: FAIL\n  witness size-guard: budget=4096 edges=4005 order=12\n", "")


# ---------------------------------------------------------------- nerves and cocycles

@pytest.mark.parametrize("num_opens,edges,triples,fields", [
    (0, [], [], {"num_opens": 0}),
    (3, [(1, 1)], [], {"i": 1, "j": 1}),
    (3, [(0, 3)], [], {"i": 0, "j": 3}),
    (3, [(0, 1)], [(0, 1, 1)], {"i": 0, "j": 1, "k": 1}),
    (3, [(0, 1)], [(0, 1, 3)], {"i": 0, "j": 1, "k": 3}),
], ids=["no-opens", "self-pair", "edge-range", "triple-repeats", "triple-range"])
def test_build_nerve_names_the_bad_edge_or_triple(num_opens, edges, triples, fields):
    got = witness(errors.MalformedTable, lambda: tk.build_nerve(num_opens, edges, triples))
    assert got == {"axiom": "malformed-table", **fields}


def test_check_cocycle_names_the_edge_of_an_out_of_range_value():
    nerve = tk.build_nerve(2, [(0, 1)])
    got = witness(errors.MalformedTable, lambda: tk.check_cocycle(nerve, Z2, {(0, 1): 2}))
    assert got == {"axiom": "malformed-table", "i": 0, "j": 1}


@pytest.mark.parametrize("h", [(0, 1.5, 0), (0, 2, 0)], ids=["not-an-integer", "out-of-range"])
def test_make_cochain_names_the_position_of_a_bad_entry(h):
    nerve = tk.build_nerve(3, [(0, 1)])
    got = witness(errors.MalformedTable, lambda: tk.make_cochain(nerve, Z2, h))
    assert got == {"axiom": "malformed-table", "position": 1}


# ---------------------------------------------------------------- prime-field constructions

@pytest.mark.parametrize("entries,fields", [
    ([], {}),
    ([[]], {}),
    ([[1, 2], [1, 2], [1]], {"row": 2}),
], ids=["no-rows", "no-columns", "ragged"])
def test_prime_field_matrix_rejects_an_empty_or_ragged_matrix(entries, fields):
    got = witness(errors.MalformedTable, lambda: tk.prime_field_matrix(3, entries))
    assert got == {"axiom": "malformed-table", **fields}


@pytest.mark.parametrize("call,kind,fields", [
    (lambda: tk.encode_vector([1] + [0] * 69, 2), errors.TooLarge, {"size": 2**70, "budget": 2**63 - 1}),
    (lambda: tk.encode_vector([1.5, 1], 2), errors.MalformedTable, {"position": 0}),
    (lambda: tk.encode_vector([True, 1], 2), errors.MalformedTable, {"position": 0}),
    (lambda: tk.encode_vector([0, 5], 2), errors.MalformedTable, {"position": 1}),
    (lambda: tk.encode_vector([5], 2), errors.MalformedTable, {"position": 0}),
    (lambda: tk.encode_vector([-1, 0], 3), errors.MalformedTable, {"position": 0}),
    (lambda: tk.encode_vector([0, 1], 4), errors.NotPrime, {"p": 4}),
    (lambda: tk.encode_vector([], 2), errors.MalformedTable, {"n": 0}),
    (lambda: tk.decode_vector(5, 2, 70), errors.TooLarge, {"size": 2**70, "budget": 2**63 - 1}),
    (lambda: tk.decode_vector(2**70, 2, 71), errors.TooLarge, {"size": 2**71, "budget": 2**63 - 1}),
    (lambda: tk.decode_vector(0, 2, 63), errors.TooLarge, {"size": 2**63, "budget": 2**63 - 1}),
    (lambda: tk.decode_vector(0, 2.0, 1), errors.MalformedTable, {"p": 2.0}),
    (lambda: tk.decode_vector(0, 2, True), errors.MalformedTable, {"n": True}),
], ids=[
    "encode-70-digits", "encode-float", "encode-bool", "encode-second-digit", "encode-digit-past-p",
    "encode-negative", "encode-not-prime", "encode-empty", "decode-70-digits", "decode-71-digits",
    "decode-past-int64", "decode-float-p", "decode-bool-n",
])
def test_the_vector_codec_is_strict_and_bounded(call, kind, fields):
    assert witness(kind, call) == {"axiom": kind.axiom, **fields}


@pytest.mark.parametrize("p,n", [(2, 62), (3, 39), (5, 27), (2, 1)])
def test_the_vector_codec_is_exact_up_to_its_bound(p, n):
    top = (p - 1,) * n
    assert tk.encode_vector(top, p) == p**n - 1 and tk.decode_vector(p**n - 1, p, n) == top
    assert tk.decode_vector(tk.encode_vector((1,) + (0,) * (n - 1), p), p, n) == (1,) + (0,) * (n - 1)


def test_general_linear_group_checks_its_own_input():
    start = time.perf_counter()
    got = witness(errors.TooLarge, lambda: tk.general_linear_group(7, 2))
    assert got == {"axiom": "size-guard", "size": 7**4, "budget": 512}
    assert time.perf_counter() - start < 1
    assert witness(errors.NotPrime, lambda: tk.general_linear_group(4, 2)) == {"axiom": "prime-modulus", "p": 4}
    assert witness(errors.MalformedTable, lambda: tk.general_linear_group(2, 0)) == {"axiom": "malformed-table", "n": 0}


def test_affine_torsor_names_a_dimension_below_one():
    assert witness(errors.MalformedTable, lambda: tk.affine_torsor(2, 0)) == {"axiom": "malformed-table", "n": 0}


def test_build_group_names_an_order_below_one():
    assert witness(errors.MalformedTable, lambda: tk.build_group(0, [])) == {"axiom": "malformed-table", "order": 0}


# ---------------------------------------------------------------- spaces and sheaves

def test_index_of_names_the_points_that_are_no_open(psc):
    got = witness(errors.PointOutOfRange, lambda: psc.index_of((2, 0)))
    assert got == {"axiom": "point-range", "points": [0, 2]}


def test_is_sheaf_torsor_names_a_point_without_local_sections():
    sets = SheafOfSets(space=POINT, sizes=(1, 0), restrict={(1, 0): ()})
    action = SheafAction(groups=tk.constant_group_sheaf(POINT, Z1), sets=sets, act=(((0,),), ((),)))
    rep = tk.is_sheaf_torsor(action)
    assert rep.witnesses == ({"axiom": "locally-nonempty", "point": 0, "open": 1},)


def test_gluing_refuses_past_the_family_candidate_bound():
    # three charts of an order-41 group on the point: 41^3 = 68921 > FAMILY_CANDIDATE_MAX = 65536
    z41 = tk.build_group(41, [[(a + b) % 41 for b in range(41)] for a in range(41)])
    gs = tk.constant_group_sheaf(POINT, z41)
    datum = tk.build_descent_datum(gs, [1, 1, 1], {(0, 1): 0, (0, 2): 0, (1, 2): 0})
    got = witness(errors.TooLarge, lambda: tk.glue_from_cocycle(datum))
    assert got == {"axiom": "size-guard", "size": 68921, "budget": 65536}


@pytest.mark.parametrize("cover,kind,fields", [
    ([1, 2], errors.UnknownOpen, {"open": 2}),
    ([-1], errors.UnknownOpen, {"open": -1}),
    ([0], errors.CoverIncomplete, {"points": [0]}),
])
def test_a_bad_cover_names_the_open_or_the_missed_points(cover, kind, fields):
    gs = tk.constant_group_sheaf(POINT, Z2)
    assert witness(kind, lambda: tk.build_descent_datum(gs, cover, {})) == {"axiom": kind.axiom, **fields}


@pytest.mark.parametrize("transition,kind,fields", [
    ({(1, 0): 0}, errors.Mismatch, {"i": 1, "j": 0}),
    ({(0, 3): 0}, errors.Mismatch, {"i": 0, "j": 3}),
    ({(0, 1): 2}, errors.MalformedTable, {"i": 0, "j": 1}),
    ({(0, 1): 0, (0, 2): 0}, errors.Mismatch, {"i": 1, "j": 2}),
], ids=["key-order", "key-range", "value-range", "missing-pair"])
def test_build_descent_datum_names_the_bad_pair(transition, kind, fields):
    gs = tk.constant_group_sheaf(POINT, Z2)
    got = witness(kind, lambda: tk.build_descent_datum(gs, [1, 1, 1], transition))
    assert got == {"axiom": kind.axiom, **fields}


@pytest.mark.parametrize("chosen,kind,fields", [
    ([0, 8], errors.MalformedTable, {"position": 1}),
    ([0], errors.Mismatch, {"got": 1, "expected": 2}),
], ids=["section-range", "length"])
def test_extract_cocycle_names_the_bad_chosen_section(chosen, kind, fields):
    got = witness(kind, lambda: tk.extract_cocycle(POINT_TORSOR, [1, 1], chosen))
    assert got == {"axiom": kind.axiom, **fields}


# ---------------------------------------------------------------- JSON schema

@pytest.mark.parametrize("edit,message", [
    (lambda obj: obj["act"].pop("1"), "sheaf-action.act: missing key '1'"),
    (lambda obj: obj["act"].update({"1": 5}), "sheaf-action.act: key '1' has wrong type"),
    (lambda obj: obj["sets"]["restrict"].update({"1,0": 5}), "sheaf: restriction '1,0' must be a list"),
], ids=["action-missing", "action-not-a-list", "restriction-not-a-list"])
def test_a_sheaf_action_file_names_the_bad_table(edit, message):
    obj = json.loads(jsonio.canonical_json(jsonio.sheaf_action_to_obj(POINT_TORSOR.action)))
    edit(obj)
    with pytest.raises(jsonio.SchemaError) as exc:
        jsonio.sheaf_action_from_obj(obj)
    assert str(exc.value) == message


# ---------------------------------------------------------------- a value that is no sequence

Z3 = tk.catalog_group("cyclic(3)")
TRIANGLE = tk.build_nerve(3, [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)])


@pytest.mark.parametrize("call,fields", [
    (lambda: tk.make_cochain(TRIANGLE, Z3, 5), {"table": "cochain"}),
    (lambda: tk.holonomy(tk.check_cocycle(TRIANGLE, Z3, dict.fromkeys(TRIANGLE.edges, 0)), 5), {"table": "path"}),
    (lambda: tk.build_subgroup(Z3, 5), {"table": "subgroup member"}),
    (lambda: tk.encode_vector(5, 3), {"table": "vector"}),
    (lambda: tk.build_descent_datum(tk.constant_group_sheaf(POINT, Z3), 5, {}), {"table": "cover"}),
    (lambda: tk.constant_section_id(Z3, 5), {"table": "component value"}),
    (lambda: tk.build_nerve(2, 5), {"table": "edges"}),
    (lambda: tk.check_cocycle(TRIANGLE, Z3, 5), {"table": "assignments"}),
    (lambda: tk.build_space(2, 5), {"table": "opens"}),
    (lambda: tk.close_under_ops(2, 5), {"table": "generators"}),
    (lambda: tk.prime_field_matrix(3, 5), {"table": "matrix"}),
    (lambda: tk.prime_field_matrix(3, [5]), {"row": 0}),
    (lambda: tk.gaussian_solve(tk.prime_field_matrix(3, [[1, 1]]), 5), {"table": "rhs"}),
    (lambda: tk.pseudocircle().index_of(5), {"table": "open"}),
    (lambda: tk.check_cocycle(TRIANGLE, Z3, [1, 2]), {"table": "assignments"}),
    (lambda: tk.build_descent_datum(tk.constant_group_sheaf(POINT, Z3), [1], 5), {"table": "transition"}),
    (lambda: tk.build_descent_datum(tk.constant_group_sheaf(POINT, Z3), [1], [3]), {"table": "transition"}),
    (lambda: tk.build_descent_datum(tk.constant_group_sheaf(POINT, Z3), [1], [(0, 1, 2)]), {"table": "transition"}),
    (lambda: tk.extract_cocycle(POINT_TORSOR, [1], 5), {"table": "chosen section"}),
    (lambda: SheafOfSets(space=POINT, sizes=(1, 2), restrict=5), {"table": "restrict"}),
    (lambda: SheafAction(groups=POINT_TORSOR.groups, sets=POINT_TORSOR.sets, act=5), {"table": "act"}),
    (lambda: tk.SheafOfGroups(sets=POINT_TORSOR.sets, groups=5), {"table": "groups"}),
], ids=[
    "make_cochain", "holonomy", "build_subgroup", "encode_vector", "build_descent_datum", "constant_section_id",
    "build_nerve", "check_cocycle", "build_space", "close_under_ops", "prime_field_matrix", "prime_field_matrix-row",
    "gaussian_solve", "index_of", "check_cocycle-items", "build_descent_datum-transition",
    "build_descent_datum-transition-items", "build_descent_datum-transition-triples", "extract_cocycle",
    "SheafOfSets", "SheafAction", "SheafOfGroups",
])
def test_a_value_that_is_no_sequence_is_malformed_not_a_type_error(call, fields):
    assert witness(errors.MalformedTable, call) == {"axiom": "malformed-table", **fields}


# ---------------------------------------------------------------- int64 elimination

def test_gaussian_solve_admits_the_largest_prime_whose_row_sums_fit_in_int64():
    """(p-1)^2 * cols must not pass CODE_MAX: with two columns the largest such prime is 2^31 - 1, and a
    dense system over it solves as Python integers say; the next prime, 2^31 + 11, is refused."""
    p = 2**31 - 1
    T = tk.prime_field_matrix(p, [[p - 1, p - 2], [p - 3, p - 5]])
    w = [p - 7, p - 11]
    res = tk.gaussian_solve(T, w)
    assert res.kernel_basis == () and res.kernel_size == 1
    assert [sum(a * x for a, x in zip(row, res.particular)) % p for row in T.entries] == w
    assert all(tk.is_prime(q) is (q == p) for q in range(p, 2**31 + 11))
    budget = tk.constructions.CODE_MAX // 2
    for q in (2**31 + 11, 2**61 - 1):  # 2^61 - 1 overflowed into a false InternalError
        got = witness(errors.TooLarge, lambda: tk.gaussian_solve(tk.prime_field_matrix(q, [[3, 5], [7, 11]]), [1, 2]))
        assert got == {"axiom": "size-guard", "size": (q - 1) ** 2, "budget": budget}
