"""Round trips and schema errors for the JSON interchange layer."""

import enum
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsorkit as tk
from torsorkit import jsonio
from torsorkit.errors import TorsorError
from torsorkit.jsonio import SchemaError


def test_group_round_trip(s3):
    obj = jsonio.group_to_obj(s3)
    assert jsonio.group_from_obj(obj) == s3


def test_group_from_catalog_name(z3):
    assert jsonio.group_from_obj("cyclic(3)") == z3


def test_action_round_trip(z3):
    action = tk.build_action(z3, 3, z3.cayley)
    obj = jsonio.action_to_obj(action)
    assert jsonio.action_from_obj(obj) == action


def test_cocycle_round_trip(z2):
    nerve = tk.build_nerve(3, [(0, 1), (0, 2), (1, 2)])
    c = tk.check_cocycle(nerve, z2, {(0, 1): 0, (0, 2): 1, (1, 2): 0})
    obj = jsonio.cocycle_to_obj(c)
    back = jsonio.cocycle_from_obj(json.loads(jsonio.canonical_json(obj)))
    assert back.g == c.g and back.nerve == c.nerve


def test_space_round_trip(psc):
    obj = jsonio.space_to_obj(psc)
    assert jsonio.space_from_obj(obj) == psc


def test_sets_sheaf_round_trip(psc, z2):
    sheaf = tk.constant_group_sheaf(psc, z2).sets
    obj = jsonio.sets_sheaf_to_obj(sheaf)
    back = jsonio.sets_sheaf_from_obj(json.loads(jsonio.canonical_json(obj)))
    assert back.sizes == sheaf.sizes
    assert back.restrict == sheaf.restrict
    assert tk.is_sheaf(back).passed


def test_sheaf_action_round_trip(z3):
    lifted = tk.lift_point_action(tk.left_translation_action(z3))
    obj = jsonio.sheaf_action_to_obj(lifted)
    back = jsonio.sheaf_action_from_obj(json.loads(jsonio.canonical_json(obj)))
    assert back.act == lifted.act
    assert back.sets.sizes == lifted.sets.sizes
    assert tk.is_sheaf_torsor(back).passed


def test_a_sheaf_action_missing_the_group_table_of_one_open_is_a_schema_error(z3):
    obj = jsonio.sheaf_action_to_obj(tk.lift_point_action(tk.left_translation_action(z3)))
    del obj["groups"]["cayley"]["1"]
    with pytest.raises(SchemaError, match=r"^sheaf-action\.groups\.cayley: missing key '1'$"):
        jsonio.sheaf_action_from_obj(obj)


def test_descent_round_trip(z2):
    datum = tk.pseudocircle_descent_datum(z2, 1)
    obj = jsonio.descent_to_obj(datum.groups.space, z2, datum)
    back = jsonio.descent_from_obj(json.loads(jsonio.canonical_json(obj)))
    assert back.cover == datum.cover
    assert back.transition == datum.transition
    assert len(tk.global_sections(tk.glue_from_cocycle(back))) == 0


def test_canonical_json_is_stable():
    obj = {"b": [3, 1], "a": {"y": 2, "x": 1}}
    assert jsonio.canonical_json(obj) == jsonio.canonical_json(json.loads(jsonio.canonical_json(obj)))


@pytest.mark.parametrize("obj", [
    {},
    {"order": 2},
    {"cayley": [[0, 1], [1, 0]]},
    {"order": "2", "cayley": [[0, 1], [1, 0]]},
    {"order": 2, "cayley": "nope"},
])
def test_group_schema_errors(obj):
    with pytest.raises(SchemaError):
        jsonio.group_from_obj(obj)


def test_cross_kind_file_is_schema_error(psc):
    # feeding a space file to the action parser fails on schema, not crash
    obj = jsonio.space_to_obj(psc)
    with pytest.raises(SchemaError):
        jsonio.action_from_obj(obj)


def test_bad_pair_keys_are_schema_errors(z2):
    base = {
        "nerve": {"opens": 3, "edges": [[0, 1], [0, 2], [1, 2]], "triples": []},
        "group": "cyclic(2)",
    }
    # each key but the first three is read by int() as a pair; only the spelling "i,j" is kept
    for key in ("01", "0,1,2", "a,b", " 0,1", "0,1 ", "+0,1", "00,1", "0,01", "-0,1", "0,1_0", "\u0660,\u0661", "0, 1"):
        with pytest.raises(SchemaError, match="bad pair key"):
            jsonio.cocycle_from_obj({**base, "g": {key: 0, "0,2": 1, "1,2": 0}})


def test_semantic_errors_stay_domain_errors():
    with pytest.raises(TorsorError):
        jsonio.group_from_obj({"order": 2, "cayley": [[0, 1], [1, 1]]})


# ---------------------------------------------------------------- the canonical writer


class Colour(enum.IntEnum):
    RED = -2
    BLUE = 7


def stdlib_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _outcome(write, obj):
    try:
        return write(obj)
    except Exception as exc:  # the writers must agree on the kind of failure too
        return type(exc)


SCALARS = st.one_of(
    st.integers(),
    st.sampled_from(list(Colour)),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),
    st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é ü 漢 \u2028", "\ud800", "\U0001f600"]),
)
KEYS = st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none())
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(st.integers(), max_size=6),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=3),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_canonical_json_writes_what_the_stdlib_writes(obj):
    assert _outcome(jsonio.canonical_json, obj) == _outcome(stdlib_canonical, obj)


@pytest.mark.parametrize("obj", [
    {(0, 1): 1},
    {"a": 1, 2: 3},
    [1, object()],
    {"x": {1, 2}},
    [1, 2.5, True, None, Colour.BLUE],
    {1: "one", 2.5: "half", True: "t", None: "n", "k": [-1, Colour.RED]},
])
def test_canonical_json_edge_cases_agree_with_the_stdlib(obj):
    assert _outcome(jsonio.canonical_json, obj) == _outcome(stdlib_canonical, obj)


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "golden").glob("*.json")), ids=lambda p: p.name)
def test_every_json_golden_is_canonical_json_of_itself(path):
    text = path.read_text(encoding="utf-8")
    assert jsonio.canonical_json(json.loads(text)) == stdlib_canonical(json.loads(text)) == text


def test_the_affine_2_8_generate_object_is_written_byte_for_byte():
    obj = jsonio.action_to_obj(tk.affine_torsor(2, 8).action)
    assert jsonio.canonical_json(obj) == stdlib_canonical(obj)



def _valid_objects():
    """(reader, a valid object it reads, the path of each JSON object within it)."""
    z2, psc = tk.catalog_group("cyclic(2)"), tk.pseudocircle()
    nerve = tk.build_nerve(3, [(0, 1), (0, 2), (1, 2)])
    datum = tk.pseudocircle_descent_datum(z2, 1)
    lifted = tk.lift_point_action(tk.left_translation_action(z2))
    return [
        (jsonio.group_from_obj, jsonio.group_to_obj(z2), [()]),
        (jsonio.subgroup_from_obj, {"group": jsonio.group_to_obj(z2), "members": [0]}, [(), ("group",)]),
        (jsonio.action_from_obj, jsonio.action_to_obj(tk.left_translation_action(z2)), [(), ("group",)]),
        (jsonio.nerve_from_obj, jsonio.nerve_to_obj(nerve), [()]),
        (jsonio.cocycle_from_obj, jsonio.cocycle_to_obj(tk.check_cocycle(nerve, z2, {(0, 1): 0, (0, 2): 1, (1, 2): 1})),
         [(), ("nerve",), ("group",)]),
        (jsonio.space_from_obj, jsonio.space_to_obj(psc), [()]),
        (jsonio.sets_sheaf_from_obj, jsonio.sets_sheaf_to_obj(tk.constant_group_sheaf(psc, z2).sets), [(), ("space",)]),
        (jsonio.sheaf_action_from_obj, jsonio.sheaf_action_to_obj(lifted), [(), ("space",), ("groups",), ("sets",)]),
        (jsonio.descent_from_obj, jsonio.descent_to_obj(psc, z2, datum), [(), ("space",), ("group",)]),
    ]


@pytest.mark.parametrize("case", range(len(_valid_objects())))
def test_a_stray_key_in_any_object_is_a_schema_error_naming_it(case):
    read, obj, places = _valid_objects()[case]
    read(json.loads(jsonio.canonical_json(obj)))
    for place in places:
        spoiled = json.loads(jsonio.canonical_json(obj))
        target = spoiled
        for key in place:
            target = target[key]
        target["stray"] = 0
        with pytest.raises(SchemaError, match="stray key 'stray'$"):
            read(spoiled)


def test_optional_keys_are_read_or_passed_over_by_name():
    assert jsonio.nerve_from_obj({"opens": 2, "edges": [[0, 1]]}).triples == ()
    obj = {"group": "cyclic(2)", "members": [0], "g": 1}
    with pytest.raises(SchemaError, match="subgroup: stray key 'g'$"):
        jsonio.subgroup_from_obj(obj)


NON_ASSOCIATIVE = {"order": 3, "cayley": [[0, 1, 2], [1, 0, 0], [2, 0, 1]]}  # an identity, then (1*1)*2 != 1*(1*2)
NO_SPACE = {"points": 0, "opens": [[]]}  # keys of the right kinds; build_space refuses no points


@pytest.mark.parametrize("read,obj,message", [
    (jsonio.action_from_obj, {"group": NON_ASSOCIATIVE, "set_size": "3", "act": [[0]]},
     "action: key 'set_size' has wrong type"),
    (jsonio.cocycle_from_obj, {"nerve": {"opens": 0, "edges": []}, "group": "cyclic(2)", "g": []},
     "cocycle: key 'g' has wrong type"),
    (jsonio.classes_from_obj, {"nerve": {"opens": 2.5, "edges": []}}, "classes: missing key 'group'"),
    (jsonio.descent_from_obj, {"space": NO_SPACE, "group": NON_ASSOCIATIVE, "cover": 0, "transition": {}},
     "descent: key 'cover' has wrong type"),
    (jsonio.solution_from_obj, {"p": 4, "T": [[1]]}, "solution: missing key 'w'"),
    (jsonio.sets_sheaf_from_obj, {"space": NO_SPACE, "sections": [], "restrict": {}},
     "sheaf: key 'sections' has wrong type"),
    (jsonio.sheaf_action_from_obj, {"space": NO_SPACE, "groups": {}, "sets": {}, "act": 5},
     "sheaf-action: key 'act' has wrong type"),
    (jsonio.coset_from_obj, {"group": NON_ASSOCIATIVE, "members": 0}, "subgroup: key 'members' has wrong type"),
], ids=["action", "cocycle", "classes", "descent", "solution", "sheaf", "sheaf-action", "coset"])
def test_every_key_of_an_object_is_checked_before_a_nested_object_is_read(read, obj, message):
    """Two faults: a key of the outer object is named before the fault in an earlier key's nested object."""
    with pytest.raises(SchemaError) as err:
        read(obj)
    assert str(err.value) == message


def test_an_optional_key_given_as_null_is_not_read_as_missing(z3):
    """A missing ``g`` is the identity; a ``g`` given as null is read, and refused, as given."""
    obj = {"group": "cyclic(3)", "members": [0, 1, 2]}
    assert jsonio.coset_from_obj(obj) == tk.coset_torsor(z3, tk.build_subgroup(z3, [0, 1, 2]), z3.identity)
    with pytest.raises(TorsorError, match="coset representative None"):
        jsonio.coset_from_obj({**obj, "g": None})
    with pytest.raises(SchemaError, match="^nerve.triples: expected a list of lists$"):
        jsonio.nerve_from_obj({"opens": 2, "edges": [[0, 1]], "triples": None})
