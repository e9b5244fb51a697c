"""Fuzz the CLI boundary: mutated inputs give exit 0, 1 or 2, never a traceback.

Every verb's golden input (the files in tests/data and the generated
files the golden reports read) is loaded, one node of its JSON tree is
replaced, deleted or wrapped, and the verb runs in-process on the result.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import DATA, GENERATE_CASES, REPORT_CASES, run_cli

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    # small, so each example stays cheap; a huge "p" would cost little too:
    # primality is decided by a strong probable-prime test, in microseconds
    | st.integers(-3, 12)
    | st.floats(-3, 12, allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

# bad command-line parameters, each one small enough to stay cheap
PARAMS = ["", "x", "1.5", "-1", "99", "0,1", "0,,1", "1,0,1"]

# the golden sheaf-torsor inputs are descent data; this file is a sheaf action
SHEAF_ACTION = str(DATA / "sheaf_action_psc_twisted.json")
EXTRA_CASES = [
    ["check", "sheaf-torsor", SHEAF_ACTION],
    ["query", "sections", "4", SHEAF_ACTION],
    ["query", "global-sections", SHEAF_ACTION, "--json"],
]


def _cases():
    """(argv with {file} for the input, input file, parameter positions) for every verb with an input file."""
    argvs = [argv + ["-o", "{out}"] for _, argv in GENERATE_CASES]
    argvs += [argv for _, argv, _ in REPORT_CASES] + EXTRA_CASES
    out = []
    for argv in argvs:
        path = next((a for a in argv if a.endswith(".json")), None)
        if path is not None:
            out.append(([a if a != path else "{file}" for a in argv], path, list(range(2, argv.index(path)))))
    return out


CASES = _cases()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The generated golden inputs, and a directory for the mutated files."""
    gen = tmp_path_factory.mktemp("generated")
    for name, argv in GENERATE_CASES:
        code, _, err = run_cli(argv + ["-o", str(gen / name)])
        assert code == 0, err
    return gen, tmp_path_factory.mktemp("fuzz")


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _paths(val, prefix + (key,))
    elif isinstance(doc, list):
        for pos, val in enumerate(doc):
            yield from _paths(val, prefix + (pos,))


def _mutate(doc, data):
    """A copy of ``doc`` with one node replaced, deleted or wrapped in a list."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["replace", "delete", "wrap"]))
    if not path:
        return [doc] if op == "wrap" else data.draw(JSON_VALUES)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    elif op == "wrap":
        parent[path[-1]] = [parent[path[-1]]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    return doc


def _assert_clean_exit(argv):
    try:
        code, _, err = run_cli(argv)
    except SystemExit as exc:  # argparse rejects the command line with usage on stderr
        code, err = exc.code, ""
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, err


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), data=st.data())
def test_mutated_inputs_never_escape_as_tracebacks(work, case, data):
    gen, scratch = work
    template, path, params = case
    doc = json.loads(Path(path.format(gen=gen)).read_text(encoding="utf-8"))
    mutated = scratch / "input.json"
    mutated.write_text(json.dumps(_mutate(doc, data)), encoding="utf-8")
    argv = [a.format(gen=gen, file=mutated, out=scratch / "out.json") for a in template]
    if params and data.draw(st.booleans()):
        argv[data.draw(st.sampled_from(params))] = data.draw(st.sampled_from(PARAMS))
    _assert_clean_exit(argv)
