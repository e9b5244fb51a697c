"""Golden-file CLI tests: every verb, byte-identical across runs."""

import contextlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torsorkit.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


GENERATE_CASES = [
    ("affine_3_1.json", ["generate", "affine", "3", "1"]),
    ("affine_3_2.json", ["generate", "affine", "3", "2"]),
    ("bases_2_2.json", ["generate", "bases", "2", "2"]),
    ("solution_f3_line.json", ["generate", "solution", str(DATA / "solution_problem.json")]),
    ("coset_s3.json", ["generate", "coset", str(DATA / "coset_problem.json")]),
    ("psc_twisted.json", ["generate", "pseudocircle-torsor", "twisted"]),
    ("psc_trivial.json", ["generate", "pseudocircle-torsor", "trivial"]),
]

# the one stdout line of each generate case
GENERATE_STDOUT = {
    "affine_3_1.json": "generated affine torsor: 3 points\n",
    "affine_3_2.json": "generated affine torsor: 9 points\n",
    "bases_2_2.json": "generated basis torsor: 6 points\n",
    "solution_f3_line.json": "generated solution torsor: 3 points\n",
    "coset_s3.json": "generated coset torsor: 2 points\n",
    "psc_twisted.json": "generated pseudocircle descent datum (twisted): 0 global sections\n",
    "psc_trivial.json": "generated pseudocircle descent datum (trivial): 2 global sections\n",
}

# (golden name, argv, expected exit code); {gen} is the generated-file dir
REPORT_CASES = [
    ("check_group.json", ["check", "group", str(DATA / "group_z3.json"), "--json"], 0),
    ("check_subgroup.json", ["check", "subgroup", str(DATA / "subgroup_s3.json"), "--json"], 0),
    ("check_action.json", ["check", "action", "{gen}/affine_3_1.json", "--json"], 0),
    ("check_torsor.json", ["check", "torsor", "{gen}/affine_3_2.json", "--json"], 0),
    ("check_cocycle_pass.json", ["check", "cocycle", str(DATA / "cocycle_c3_z2.json"), "--json"], 0),
    ("check_cocycle_fail.json", ["check", "cocycle", str(DATA / "cocycle_triangle_bad.json"), "--json"], 1),
    ("check_space.json", ["check", "space", str(DATA / "space_pseudocircle.json"), "--json"], 0),
    ("check_sheaf.json", ["check", "sheaf", str(DATA / "sheaf_const_z2.json"), "--json"], 0),
    ("check_sheaf_torsor.json", ["check", "sheaf-torsor", "{gen}/psc_twisted.json", "--json"], 0),
    ("query_transporter.json", ["query", "transporter", "1", "2", "{gen}/affine_3_1.json", "--json"], 0),
    ("query_orbit.json", ["query", "orbit", "0", "{gen}/affine_3_1.json", "--json"], 0),
    ("query_stabilizer.json", ["query", "stabilizer", "0", "{gen}/affine_3_1.json", "--json"], 0),
    ("query_trivialize.json", ["query", "trivialize", "1", "{gen}/affine_3_1.json", "--json"], 0),
    ("query_transported_group.json", ["query", "transported-group", "1", "{gen}/affine_3_1.json", "--json"], 0),
    ("query_holonomy.json", ["query", "holonomy", "0,1,2,0", str(DATA / "cocycle_c3_z2.json"), "--json"], 0),
    ("query_global_sections.json", ["query", "global-sections", "{gen}/psc_twisted.json", "--json"], 0),
    ("query_sections.json", ["query", "sections", "4", "{gen}/psc_twisted.json", "--json"], 0),
    ("query_classes.json", ["query", "classes", str(DATA / "cocycle_c3_z2.json"), "--json"], 0),
    ("check_torsor_human.txt", ["check", "torsor", "{gen}/affine_3_2.json"], 0),
    ("check_cocycle_fail_human.txt", ["check", "cocycle", str(DATA / "cocycle_triangle_bad.json")], 1),
    ("query_transporter_human.txt", ["query", "transporter", "1", "2", "{gen}/affine_3_1.json"], 0),
]


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    """Run every generate family once into a shared directory."""
    out = tmp_path_factory.mktemp("generated")
    for name, argv in GENERATE_CASES:
        code, _, err = run_cli(argv + ["-o", str(out / name)])
        assert code == 0, err
    return out


def _compare_to_golden(name, produced, update):
    path = GOLDEN / name
    if update:
        path.write_text(produced, encoding="utf-8")
    assert path.exists(), f"missing golden {name}; run pytest --update-goldens"
    assert produced == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", GENERATE_CASES)
def test_generate_golden_and_deterministic(name, argv, tmp_path, gen_dir, update_goldens):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code1, out1, _ = run_cli(argv + ["-o", str(first)])
    code2, out2, _ = run_cli(argv + ["-o", str(second)])
    assert code1 == code2 == 0
    assert out1 == out2 == GENERATE_STDOUT[name]
    assert first.read_bytes() == second.read_bytes()
    _compare_to_golden(name, first.read_text(encoding="utf-8"), update_goldens)
    assert first.read_bytes() == (gen_dir / name).read_bytes()


@pytest.mark.parametrize("name,argv,expected_code", REPORT_CASES)
def test_report_golden_and_deterministic(name, argv, expected_code, gen_dir, update_goldens):
    argv = [a.format(gen=gen_dir) for a in argv]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == expected_code
    assert out1 == out2
    _compare_to_golden(name, out1, update_goldens)


def test_every_generate_output_revalidates(gen_dir):
    for name in ("affine_3_1.json", "affine_3_2.json", "bases_2_2.json",
                 "solution_f3_line.json", "coset_s3.json"):
        code, out, _ = run_cli(["check", "torsor", str(gen_dir / name)])
        assert code == 0, (name, out)
    for name in ("psc_twisted.json", "psc_trivial.json"):
        code, out, _ = run_cli(["check", "sheaf-torsor", str(gen_dir / name)])
        assert code == 0, (name, out)


def test_generated_affine_equals_catalog_translation(gen_dir):
    obj = json.loads((gen_dir / "affine_3_1.json").read_text())
    assert obj["act"] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert obj["group"]["cayley"] == obj["act"]


def test_check_explicit_sheaf_action_file(tmp_path, z3):
    import torsorkit as tk
    from torsorkit import jsonio

    lifted = tk.lift_point_action(tk.left_translation_action(z3))
    path = tmp_path / "lifted.json"
    path.write_text(jsonio.canonical_json(jsonio.sheaf_action_to_obj(lifted)))
    code, out, _ = run_cli(["check", "sheaf-torsor", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["counts"]["global_sections"] == 3


def test_failing_sheaf_torsor_check_reports_as_sheaf_torsor_witnesses(tmp_path, z2):
    import torsorkit as tk
    from torsorkit import jsonio
    from torsorkit.errors import NotASheafTorsor

    glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, 1))
    obj = jsonio.sheaf_action_to_obj(glued.action)
    row = obj["act"][str(glued.space.index_of((0, 1, 2)))][1]
    row.reverse()  # the non-identity element now fixes both sections of the arc
    path = tmp_path / "corrupt.json"
    path.write_text(jsonio.canonical_json(obj))
    code, out, _ = run_cli(["check", "sheaf-torsor", str(path), "--json"])
    assert code == 1
    with pytest.raises(NotASheafTorsor) as err:
        tk.as_sheaf_torsor(jsonio.sheaf_action_from_obj(obj))
    assert json.loads(out)["witnesses"] == [dict(w) for w in err.value.report.witnesses]


# the sheaf reads its tables when it is built: a cell of the wrong type or out of range is one fault
@pytest.mark.parametrize("cell,witness", [
    (0.9, {"axiom": "malformed-table", "u": 1, "v": 0, "position": 0}),
    ("0", {"axiom": "malformed-table", "u": 1, "v": 0, "position": 0}),
    (True, {"axiom": "malformed-table", "u": 1, "v": 0, "position": 0}),
    (-1, {"axiom": "malformed-table", "u": 1, "v": 0, "position": 0}),
])
def test_restriction_cells_must_be_integers(tmp_path, cell, witness):
    obj = json.loads((DATA / "sheaf_const_z2.json").read_text())
    obj["restrict"]["1,0"][0] = cell
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["check", "sheaf", str(path), "--json"])
    assert code == 1
    assert json.loads(out)["witnesses"] == [witness]


@pytest.mark.parametrize("cell", [0.9, "0", True])
def test_sheaf_action_cells_must_be_integers(tmp_path, z3, cell):
    import torsorkit as tk
    from torsorkit import jsonio

    obj = jsonio.sheaf_action_to_obj(tk.lift_point_action(tk.left_translation_action(z3)))
    obj["act"]["1"][2][1] = cell
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["check", "sheaf-torsor", str(path), "--json"])
    assert code == 1
    assert json.loads(out)["witnesses"] == [
        {"axiom": "malformed-table", "open": 1, "row": 2, "position": 1}
    ]


def test_cocycle_file_with_a_reversed_key_is_a_mismatch(tmp_path):
    obj = json.loads((DATA / "cocycle_c3_z2.json").read_text())
    obj["g"] = {"1,0": 1, "0,2": 0, "1,2": 0}
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["query", "holonomy", "0,1,2,0", str(path), "--json"])
    assert code == 1
    assert json.loads(out)["witnesses"] == [{"axiom": "mismatch", "i": 1, "j": 0}]


def test_malformed_json_is_input_error():
    code, out, err = run_cli(["check", "group", str(DATA / "malformed.json")])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_missing_file_is_input_error():
    code, _, err = run_cli(["check", "group", "does_not_exist.json"])
    assert code == 2


def test_console_entry_point_subprocess(tmp_path):
    # one end-to-end subprocess run to cover the module entry point
    out_file = tmp_path / "affine.json"
    res = subprocess.run(
        [sys.executable, "-m", "torsorkit", "generate", "affine", "2", "1",
         "-o", str(out_file)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert out_file.exists()
    res2 = subprocess.run(
        [sys.executable, "-m", "torsorkit", "check", "torsor", str(out_file)],
        capture_output=True,
        text=True,
    )
    assert res2.returncode == 0
    assert "PASS" in res2.stdout


def test_sheaf_action_rows_must_be_lists(tmp_path, z3):
    import torsorkit as tk
    from torsorkit import jsonio

    obj = jsonio.sheaf_action_to_obj(tk.lift_point_action(tk.left_translation_action(z3)))
    obj["act"]["1"][2] = 5
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["check", "sheaf-torsor", str(path), "--json"])
    assert code == 1
    assert json.loads(out)["witnesses"] == [{"axiom": "malformed-table", "open": 1, "row": 2}]
    assert err == ""


def _set_edge(obj):
    obj["nerve"]["edges"][1] = [0, 1.7]


def _set_triple(obj):
    obj["nerve"]["triples"] = [[0, 1, 2.5]]


def _set_value(obj):
    obj["g"]["0,2"] = True


def _set_float_value(obj):
    obj["g"]["0,2"] = 1.5


@pytest.mark.parametrize("corrupt,witness", [
    (_set_edge, {"axiom": "malformed-table", "edge": 1, "position": 1}),
    (_set_triple, {"axiom": "malformed-table", "triple": 0, "position": 2}),
    (_set_value, {"axiom": "malformed-table", "i": 0, "j": 2}),
    (_set_float_value, {"axiom": "malformed-table", "i": 0, "j": 2}),
])
def test_cocycle_file_entries_must_be_integers(tmp_path, corrupt, witness):
    obj = json.loads((DATA / "cocycle_c3_z2.json").read_text())
    corrupt(obj)
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["check", "cocycle", str(path), "--json"])
    assert code == 1
    assert json.loads(out)["witnesses"] == [witness]


@pytest.mark.parametrize("field,value,axiom", [
    ("cover", [4.5, 5], "malformed-table"),
    ("transition", {"0,1": True}, "malformed-table"),  # read as a cocycle file's values are
])
def test_descent_file_entries_must_be_integers(tmp_path, z2, field, value, axiom):
    import torsorkit as tk
    from torsorkit import jsonio

    datum = tk.pseudocircle_descent_datum(z2, 1)
    obj = jsonio.descent_to_obj(datum.groups.space, z2, datum)
    obj[field] = value
    path = tmp_path / "descent.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["check", "sheaf-torsor", str(path), "--json"])
    where = {"cover": {"position": 0}, "transition": {"i": 0, "j": 1}}[field]
    assert code == 1
    assert json.loads(out)["witnesses"] == [{"axiom": axiom, **where}]


@pytest.mark.parametrize("g", [2.9, "2", True])
def test_generate_coset_representative_must_be_an_integer(tmp_path, g):
    problem = json.loads((DATA / "coset_problem.json").read_text())
    problem["g"] = g
    path = tmp_path / "coset.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(["generate", "coset", str(path), "-o", str(tmp_path / "out.json")])
    assert code == 1
    assert "witness malformed-table" in out and err == ""
    assert not (tmp_path / "out.json").exists()


def test_generate_reports_size_guard_without_traceback(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "torsorkit", "generate", "affine", "2", "9",
         "-o", str(tmp_path / "x.json")],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stdout == "affine: FAIL\n  witness size-guard: budget=256 size=512\n"


@pytest.mark.parametrize("p,n", [("3", "1000000000"), ("1000000007", "500")])
def test_generate_affine_past_the_guard_fails_at_once(tmp_path, p, n):
    # the guard never forms p^n here: it would take minutes, or not print past 4300 digits
    start = time.perf_counter()
    code, out, err = run_cli(["generate", "affine", p, n, "-o", str(tmp_path / "x.json")])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, f"affine: FAIL\n  witness size-guard: budget=256 n={n} p={p}\n", "")
    assert not (tmp_path / "x.json").exists()


# a missing table is named by its inclusion, a cell out of range by its position too
@pytest.mark.parametrize("sheaf,table,fault", [
    ("sets", None, "restriction-table"),
    ("groups", None, "restriction-table"),
    ("sets", [0, 2], "restriction-range"),
    ("groups", [0, 2], "restriction-range"),
])
def test_check_sheaf_torsor_reports_a_bad_restriction_table(tmp_path, sheaf, table, fault):
    obj = json.loads((DATA / "sheaf_action_psc_twisted.json").read_text())
    key = "4,1"  # the arc {0,1,2} onto the point {0}
    if table is None:
        del obj[sheaf]["restrict"][key]
    else:
        obj[sheaf]["restrict"][key] = table
    path = tmp_path / "action.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["check", "sheaf-torsor", str(path), "--json"])
    assert (code, err) == (1, "")
    rep = json.loads(out)
    assert rep["check"] == "sheaf-torsor"
    place = {"position": 1} if fault == "restriction-range" else {}
    assert rep["witnesses"] == [{"axiom": "malformed-table", "u": 4, "v": 1, **place}]


def test_query_classes_rejects_a_file_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(["query", "classes", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: classes: missing key 'nerve'\n"


@pytest.mark.parametrize("opens", [10**6, 10**21])
def test_query_classes_work_follows_the_edges_not_the_open_count(tmp_path, opens):
    # opens on no edge never enter a class, so the answer is the 3-open one and costs no more
    obj = json.loads((DATA / "cocycle_c3_z2.json").read_text())
    assert obj["nerve"]["opens"] == 3
    obj["nerve"]["opens"] = opens
    path = tmp_path / "classes.json"
    path.write_text(json.dumps(obj))
    for flags in ([], ["--json"]):
        want = run_cli(["query", "classes", str(DATA / "cocycle_c3_z2.json"), *flags])
        assert want[0] == 0
        assert run_cli(["query", "classes", str(path), *flags]) == want


@pytest.mark.parametrize("problem,message", [
    ({"p": 3, "T": 5, "w": [1]}, "solution: key 'T' has wrong type"),
    ({"p": 3, "T": [1], "w": [1]}, "solution.T: expected a list of lists"),
    ({"p": 3, "T": [[1]], "w": 1}, "solution: key 'w' has wrong type"),
    ({"p": "3", "T": [[1]], "w": [1]}, "solution: key 'p' has wrong type"),
    ([1, 2], "solution: missing key 'p'"),
])
def test_generate_solution_schema_errors_name_the_field(tmp_path, problem, message):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(["generate", "solution", str(path), "-o", str(tmp_path / "out.json")])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,name", [
    (["query", "transporter", "1", "y", "{gen}/affine_3_1.json"], "y"),
    (["query", "orbit", "1.5", "{gen}/affine_3_1.json"], "x"),
    (["query", "holonomy", "0,,2,0", str(DATA / "cocycle_c3_z2.json")], "path"),
    (["query", "sections", "arc", "{gen}/psc_twisted.json"], "open"),
    (["generate", "affine", "3", "two", "-o", "{gen}/unused.json"], "n"),
])
def test_non_integer_parameters_are_schema_errors(gen_dir, argv, name):
    code, out, err = run_cli([a.format(gen=gen_dir) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: parameter {name}: ")


def _stray(path, edit):
    obj = json.loads((DATA / path).read_text())
    edit(obj)
    return obj


# per-open maps are read at exactly "0" ... "k-1": any other key is refused, not left unread
@pytest.mark.parametrize("verb,obj,message", [
    ("sheaf", _stray("sheaf_const_z2.json", lambda o: o["sections"].update({"01": 99, "x": "junk"})),
     "sheaf.sections: stray key '01'"),
    ("sheaf-torsor", _stray("sheaf_action_psc_twisted.json", lambda o: o["act"].update({"x": [[0]]})),
     "sheaf-action.act: stray key 'x'"),
    ("sheaf-torsor", _stray("sheaf_action_psc_twisted.json", lambda o: o["groups"]["cayley"].update({"00": [[0]]})),
     "sheaf-action.groups.cayley: stray key '00'"),
    ("sheaf-torsor", _stray("sheaf_action_psc_twisted.json", lambda o: o["sets"]["sections"].update({" 1": 1})),
     "sheaf.sections: stray key ' 1'"),
], ids=["sections", "act", "cayley", "sets-sections"])
def test_a_stray_per_open_key_is_a_schema_error_naming_it(tmp_path, verb, obj, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert run_cli(["check", verb, str(path)]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("table", [5, [[0, 1], 1], "01"])
def test_sheaf_action_group_tables_must_be_lists_of_lists(tmp_path, table):
    obj = json.loads((DATA / "sheaf_action_psc_twisted.json").read_text())
    obj["groups"]["cayley"]["1"] = table
    path = tmp_path / "action.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["check", "sheaf-torsor", str(path)])
    # a table that is no list is the wrong kind for its key; a list's rows are read as a table's
    message = "groups.cayley.1: expected a list of lists" if isinstance(table, list) else "groups.cayley: key '1' has wrong type"
    assert (code, out, err) == (2, "", f"error: sheaf-action.{message}\n")


def _boolean_order():
    return {"order": True, "cayley": [[0]]}


def _boolean_count():
    obj = json.loads((DATA / "sheaf_const_z2.json").read_text())
    obj["sections"]["0"] = True  # read as 1, the empty open's count, the sheaf would pass
    return obj


@pytest.mark.parametrize("verb,build,message", [
    ("group", _boolean_order, "group: key 'order' has wrong type"),
    ("sheaf", _boolean_count, "sheaf.sections: key '0' has wrong type"),
])
def test_json_booleans_are_not_integers(tmp_path, verb, build, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(build()))
    assert run_cli(["check", verb, str(path)]) == (2, "", f"error: {message}\n")


def test_generate_bases_with_a_large_prime_fails_at_once_on_the_size_guard(tmp_path):
    # primality of 10^18 + 3 is decided before the basis bound; trial division took over 30 s.
    # p^(n*n) has 240 bits, so the witness names it as the size
    start = time.perf_counter()
    code, out, err = run_cli(["generate", "bases", "1000000000000000003", "2", "-o", str(tmp_path / "x.json")])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, f"bases: FAIL\n  witness size-guard: budget=512 size={(10**18 + 3) ** 4}\n", "")
    assert not (tmp_path / "x.json").exists()


def _cocycle_file(tmp_path, text):
    path = tmp_path / "cocycle.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _c3_z2_text(g):
    obj = json.loads((DATA / "cocycle_c3_z2.json").read_text())
    return json.dumps({**obj, "g": g})


@pytest.mark.parametrize("key", [" 0,1", "+0,1", "٠,١"])
def test_a_pair_key_spelled_otherwise_than_i_comma_j_is_a_schema_error(tmp_path, key):
    # int() reads each of these as 0 and 1, and the cocycle would pass
    path = _cocycle_file(tmp_path, _c3_z2_text({key: 0, "0,2": 1, "1,2": 0}))
    assert run_cli(["check", "cocycle", path, "--json"]) == (2, "", f"error: cocycle.g: bad pair key {key!r}\n")


def test_a_pair_key_with_a_digit_separator_is_a_schema_error(tmp_path):
    # int("1_0") is 10, so "0,1_0" was read as the edge (0, 10) and the cocycle passed
    text = json.dumps({"nerve": {"opens": 11, "edges": [[0, 10]]}, "group": "cyclic(2)", "g": {"0,1_0": 1}})
    path = _cocycle_file(tmp_path, text)
    assert run_cli(["check", "cocycle", path, "--json"]) == (2, "", "error: cocycle.g: bad pair key '0,1_0'\n")


def test_two_spellings_of_one_pair_are_a_schema_error(tmp_path):
    # read as one pair, the second value overwrote the first and the triple failed on it
    obj = json.loads((DATA / "cocycle_triangle_bad.json").read_text())
    text = json.dumps({**obj, "g": {"0,1": 1, "0, 1": 0, "0,2": 1, "1,2": 0}})
    path = _cocycle_file(tmp_path, text)
    assert run_cli(["check", "cocycle", path, "--json"]) == (2, "", "error: cocycle.g: bad pair key '0, 1'\n")


def test_a_key_given_twice_in_one_object_is_a_schema_error(tmp_path):
    # json would keep the last value, so the first would be read by nothing
    text = _c3_z2_text({"0,1": 0, "0,2": 1, "1,2": 0}).replace('"0,1": 0', '"0,1": 1, "0,1": 0')
    path = _cocycle_file(tmp_path, text)
    assert run_cli(["check", "cocycle", path, "--json"]) == (2, "", "error: key '0,1' is given twice in one object\n")


@pytest.mark.parametrize("x,y,name,value", [
    ("1_0", "1", "x", "1_0"),             # int() reads 10
    ("1", "٣", "y", "٣"),       # an Arabic-Indic three
    ("+1", "2", "x", "+1"),
    ("1", " 2", "y", " 2"),
    ("-0", "2", "x", "-0"),
])
def test_an_integer_parameter_must_be_spelled_as_its_int(gen_dir, x, y, name, value):
    code, out, err = run_cli(["query", "transporter", x, y, f"{gen_dir}/affine_3_1.json"])
    assert (code, out, err) == (2, "", f"error: parameter {name}: {value!r} is not an integer\n")


def test_a_misspelt_optional_key_is_refused_not_passed_over(tmp_path):
    # read past, the misspelt key left the nerve without its triple and the bad cocycle passed
    text = (DATA / "cocycle_triangle_bad.json").read_text().replace('"triples"', '"tripels"')
    path = _cocycle_file(tmp_path, text)
    assert run_cli(["check", "cocycle", path, "--json"]) == (2, "", "error: nerve: stray key 'tripels'\n")


@pytest.mark.parametrize("argv,source,what", [
    (["check", "group"], "group_z3.json", "group"),
    (["check", "subgroup"], "subgroup_s3.json", "subgroup"),
    (["check", "space"], "space_pseudocircle.json", "space"),
    (["check", "sheaf"], "sheaf_const_z2.json", "sheaf"),
    (["check", "sheaf-torsor"], "sheaf_action_psc_twisted.json", "sheaf-action"),
    (["query", "holonomy", "0,1,2,0"], "cocycle_c3_z2.json", "cocycle"),
    (["query", "classes"], "cocycle_c3_z2.json", "classes"),
    (["generate", "solution"], "solution_problem.json", "solution"),
    (["generate", "coset"], "coset_problem.json", "subgroup"),
], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_every_verb_refuses_a_stray_top_level_key(tmp_path, argv, source, what):
    obj = json.loads((DATA / source).read_text())
    path = tmp_path / source
    path.write_text(json.dumps({**obj, "stray": 0}))
    out = ["-o", str(tmp_path / "out.json")] if argv[0] == "generate" else []
    assert run_cli([*argv, str(path), *out]) == (2, "", f"error: {what}: stray key 'stray'\n")
    assert not (tmp_path / "out.json").exists()


# the usage errors of the front end, each worded as it has always been: the parameter count a query
# or family takes, a bad parameter before a missing file, and argparse's list of the verbs
QUERY_ARITY = {
    "transporter": 2, "orbit": 1, "stabilizer": 1, "trivialize": 1, "transported-group": 1,
    "holonomy": 1, "global-sections": 0, "sections": 1, "classes": 0,
}

GENERATE_USAGE = {
    "affine": "p n", "solution": "problem-file", "coset": "problem-file", "bases": "p n",
    "pseudocircle-torsor": "trivial|twisted",
}


@pytest.mark.parametrize("query,arity", QUERY_ARITY.items())
def test_each_query_names_the_count_of_parameters_it_takes(tmp_path, query, arity):
    # the count is decided before the file is opened, so a missing file is not what is reported
    missing = str(tmp_path / "missing.json")
    for count in sorted({max(arity - 1, 0), arity + 1} - {arity}):
        argv = ["query", query, *["0"] * count, missing]
        assert run_cli(argv) == (2, "", f"error: query {query} takes {arity} parameter(s) before the file\n")


@pytest.mark.parametrize("family,usage", GENERATE_USAGE.items())
def test_each_generate_family_names_the_parameters_it_takes(tmp_path, family, usage):
    out = tmp_path / "out.json"
    for params in ([], ["1", "2", "3"]):
        argv = ["generate", family, *params, "-o", str(out)]
        assert run_cli(argv) == (2, "", f"error: generate {family} takes: {usage}\n")
    assert not out.exists()


def test_a_pseudocircle_twist_outside_its_two_names_is_a_usage_error(tmp_path):
    out = tmp_path / "out.json"
    argv = ["generate", "pseudocircle-torsor", "twisted2", "-o", str(out)]
    assert run_cli(argv) == (2, "", "error: generate pseudocircle-torsor takes: trivial|twisted\n")
    assert not out.exists()


@pytest.mark.parametrize("query,params,name", [
    ("transporter", ["x", "2"], "x"),
    ("transporter", ["1", "y"], "y"),
    ("orbit", ["x"], "x"),
    ("stabilizer", ["x"], "x"),
    ("trivialize", ["b"], "basepoint"),
    ("transported-group", ["b"], "basepoint"),
    ("holonomy", ["0,a"], "path"),
    ("sections", ["u"], "open"),
])
def test_a_bad_parameter_is_reported_before_a_missing_file(tmp_path, query, params, name):
    code, out, err = run_cli(["query", query, *params, str(tmp_path / "missing.json")])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: parameter {name}: ")


@pytest.mark.parametrize("verb,choices", [
    ("check", ["group", "subgroup", "action", "torsor", "cocycle", "space", "sheaf", "sheaf-torsor"]),
    ("query", list(QUERY_ARITY)),
    ("generate", list(GENERATE_USAGE)),
])
def test_an_unknown_verb_name_is_refused_by_argparse_listing_the_names_in_order(capsys, verb, choices):
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "nope", "x.json", "-o", "out.json"] if verb == "generate" else [verb, "nope", "x.json"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"torsorkit {verb}: error: argument ")
    assert "invalid choice: 'nope' (choose from " in last
    assert re.findall(r"[\w-]+", last.split("(choose from ", 1)[1]) == choices


def _stray_restrictions(restrict):
    restrict.update({"0,0": [0], "3,4": ["junk", 9.5]})  # no proper inclusion: read by nothing, and passed


# a restriction table is read at exactly the proper inclusions of the space: any other pair is refused
@pytest.mark.parametrize("verb,obj", [
    ("sheaf", _stray("sheaf_const_z2.json", lambda o: _stray_restrictions(o["restrict"]))),
    ("sheaf-torsor", _stray("sheaf_action_psc_twisted.json", lambda o: _stray_restrictions(o["sets"]["restrict"]))),
    ("sheaf-torsor", _stray("sheaf_action_psc_twisted.json", lambda o: _stray_restrictions(o["groups"]["restrict"]))),
], ids=["sheaf", "sets", "groups"])
def test_a_restriction_key_that_is_no_proper_inclusion_is_a_stray_key(tmp_path, verb, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert run_cli(["check", verb, str(path)]) == (2, "", "error: sheaf.restrict: stray key '0,0'\n")


def test_a_mistyped_key_is_named_before_a_nested_object_is_read(tmp_path):
    """An action whose group is not associative and whose set_size is a string: every key of the action is
    checked before its group is read, so the schema error (exit 2) is reported, not the axiom (exit 1)."""
    path = tmp_path / "action.json"
    group = {"order": 3, "cayley": [[0, 1, 2], [1, 0, 0], [2, 0, 1]]}
    path.write_text(json.dumps({"group": group, "set_size": "3", "act": [[0, 1, 2]] * 3}))
    assert run_cli(["check", "action", str(path)]) == (2, "", "error: action: key 'set_size' has wrong type\n")
    path.write_text(json.dumps({"group": group, "set_size": 3, "act": [[0, 1, 2]] * 3}))
    assert run_cli(["check", "action", str(path)])[0] == 1
