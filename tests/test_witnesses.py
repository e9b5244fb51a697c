"""Every rejection names its witness: strict integers at the public entry points, the scale guards
past the point where a size prints, and the rejection paths no other test reaches, each with its
exact witness."""

import itertools
import json
import time

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
], ids=[
    "build_space-float", "build_space-bool", "build_nerve", "affine_torsor", "basis_torsor", "orbit",
    "build_group-bool", "build_group-float", "build_action-float", "build_action-bool", "sections",
    "transporter", "trivialization", "constant_section_id-range", "constant_section_id-float",
    "constant_section_tuple", "decode_vector", "symmetric_elements",
])
def test_a_non_integer_or_out_of_range_index_is_rejected_not_coerced(call, kind, fields):
    got = witness(kind, call)
    assert got == {"axiom": kind.axiom, **fields}
    assert [type(v) for v in got.values()] == [str, *map(type, fields.values())]


# ---------------------------------------------------------------- guards past a printable size

def _matching(k):
    return tk.build_nerve(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


@pytest.mark.parametrize("edges,fields", [
    (1024, {"size": 2**1024}),  # 1025 bits: the size prints under any int_max_str_digits
    (1025, {"order": 2, "edges": 1025}),
])
def test_the_class_guard_names_the_operands_once_the_size_would_not_print(edges, fields):
    assert witness(errors.TooLarge, lambda: tk.equivalence_classes(_matching(edges), Z2)) == {
        "axiom": "size-guard", **fields
    }


@pytest.mark.parametrize("count,fields", [
    (1024, {"size": 2**1024}),
    (1025, {"order": 2, "components": 1025}),
    (20000, {"order": 2, "components": 20000}),  # 2^20000 has 6021 digits, past Python's default 4300
])
def test_the_section_guard_names_the_operands_once_the_size_would_not_print(count, fields):
    assert witness(errors.TooLarge, lambda: tk.constant_section_id(Z2, [0] * count)) == {
        "axiom": "size-guard", **fields
    }


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
    assert (code, out, err) == (1, "classes: FAIL\n  witness size-guard: edges=4005 order=12\n", "")


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
    (lambda: tk.encode_vector([1] + [0] * 69, 2), errors.TooLarge, {"p": 2, "n": 70}),
    (lambda: tk.encode_vector([1.5, 1], 2), errors.MalformedTable, {"position": 0}),
    (lambda: tk.encode_vector([True, 1], 2), errors.MalformedTable, {"position": 0}),
    (lambda: tk.encode_vector([0, 5], 2), errors.MalformedTable, {"position": 1}),
    (lambda: tk.encode_vector([5], 2), errors.MalformedTable, {"position": 0}),
    (lambda: tk.encode_vector([-1, 0], 3), errors.MalformedTable, {"position": 0}),
    (lambda: tk.encode_vector([0, 1], 4), errors.NotPrime, {"p": 4}),
    (lambda: tk.encode_vector([], 2), errors.MalformedTable, {"n": 0}),
    (lambda: tk.decode_vector(5, 2, 70), errors.TooLarge, {"p": 2, "n": 70}),
    (lambda: tk.decode_vector(2**70, 2, 71), errors.TooLarge, {"p": 2, "n": 71}),
    (lambda: tk.decode_vector(0, 2, 63), errors.TooLarge, {"size": 2**63}),
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
    assert witness(errors.TooLarge, lambda: tk.general_linear_group(7, 2)) == {"axiom": "size-guard", "p": 7, "n": 2}
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
    assert witness(errors.TooLarge, lambda: tk.glue_from_cocycle(datum)) == {"axiom": "size-guard", "size": 68921}


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
    ([0, 8], errors.MalformedTable, {"index": 1}),
    ([0], errors.Mismatch, {"got": 1, "expected": 2}),
], ids=["section-range", "length"])
def test_extract_cocycle_names_the_bad_chosen_section(chosen, kind, fields):
    got = witness(kind, lambda: tk.extract_cocycle(POINT_TORSOR, [1, 1], chosen))
    assert got == {"axiom": kind.axiom, **fields}


# ---------------------------------------------------------------- JSON schema

@pytest.mark.parametrize("edit,message", [
    (lambda obj: obj["act"].pop("1"), "sheaf-action: missing action table for open 1"),
    (lambda obj: obj["act"].update({"1": 5}), "sheaf-action: action table for open 1 must be a list"),
    (lambda obj: obj["sets"]["restrict"].update({"1,0": 5}), "sheaf: restriction '1,0' must be a list"),
], ids=["action-missing", "action-not-a-list", "restriction-not-a-list"])
def test_a_sheaf_action_file_names_the_bad_table(edit, message):
    obj = json.loads(jsonio.canonical_json(jsonio.sheaf_action_to_obj(POINT_TORSOR.action)))
    edit(obj)
    with pytest.raises(jsonio.SchemaError) as exc:
        jsonio.sheaf_action_from_obj(obj)
    assert str(exc.value) == message
