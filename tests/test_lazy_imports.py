"""Which torsorkit modules a command-line child and ``import torsorkit`` load.

Each verb's child imports only the layers its verb runs, and the package binds its public
names on first use; these tests run fresh interpreters, since this one has loaded everything.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import torsorkit
from torsorkit import constructions, groups, jsonio

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# the package's public names before they loaded on first use, written out
EXPORTS = [
    "BasepointChange", "Cochain", "CocycleClass", "DescentDatum", "FiniteGroup", "FiniteSpace",
    "GroupAction", "LinearSolveResult", "Nerve", "NerveCocycle", "NotEquivalent", "NotTrivial",
    "PrimeFieldMatrix", "Report", "SheafAction", "SheafOfGroups", "SheafOfSets", "SheafTorsor",
    "Subgroup", "Torsor", "Trivialization", "affine_torsor", "apply_coboundary", "are_equivalent",
    "as_sheaf_torsor", "as_torsor", "basepoint_change", "basis_torsor", "build_action",
    "build_descent_datum", "build_group", "build_nerve", "build_space", "build_subgroup",
    "catalog_group", "catalog_names", "check_cocycle", "close_under_ops", "connected_components",
    "constant_group_sheaf", "constant_section_id", "constant_section_tuple", "coset_action",
    "coset_list", "coset_torsor", "count_ordered_bases", "decode_vector", "encode_vector",
    "equivalence_classes", "errors", "extract_cocycle", "failing", "find_trivialization",
    "gaussian_solve", "general_linear_group", "global_sections", "glue_from_cocycle", "holonomy",
    "is_free", "is_prime", "is_sheaf", "is_sheaf_of_groups", "is_sheaf_torsor", "is_transitive",
    "left_translation_action", "lift_point_action", "lift_point_torsor", "make_cochain", "opposite_group",
    "orbit", "passing", "point_space", "prime_field_matrix", "pseudocircle",
    "pseudocircle_descent_datum", "right_action_as_left", "sections", "solution_torsor",
    "stabilizer", "subgroup_as_group", "symmetric_elements", "transported_group", "transporter",
    "trivial_subgroup", "trivialization",
]

BASE = {"errors", "groups", "report", "actions", "jsonio", "cli"}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def _fresh(script: str) -> str:
    """The stdout of ``script`` run in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by_cli(argv, cwd) -> set[str]:
    """The torsorkit modules a ``python -m torsorkit`` child imports, from its ``-X importtime`` lines."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "torsorkit", *argv],
        capture_output=True, text=True, cwd=cwd, env=_env(), timeout=60,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return set(re.findall(r"\|\s*torsorkit\.(\w+)$", proc.stderr, flags=re.MULTILINE))


@pytest.fixture(scope="module")
def torsor_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("lazy") / "affine.json"
    path.write_text(jsonio.canonical_json(jsonio.action_to_obj(torsorkit.affine_torsor(3, 1).action)))
    return path


@pytest.mark.parametrize("argv, extra", [
    (["check", "group", "{data}/group_z3.json"], set()),
    (["check", "subgroup", "{data}/subgroup_s3.json"], set()),
    (["check", "torsor", "{torsor}"], set()),
    (["query", "transporter", "0", "1", "{torsor}"], set()),
    (["generate", "affine", "3", "1", "-o", "out.json"], {"constructions"}),
    (["generate", "coset", "{data}/coset_problem.json", "-o", "out.json"], {"constructions"}),
    (["check", "cocycle", "{data}/cocycle_c3_z2.json"], {"cocycles"}),
    (["query", "holonomy", "0,1,2,0", "{data}/cocycle_c3_z2.json"], {"cocycles"}),
    (["check", "space", "{data}/space_pseudocircle.json"], {"spaces"}),
    (["check", "sheaf", "{data}/sheaf_const_z2.json"], {"sheaves", "spaces"}),
    (["check", "sheaf-torsor", "{data}/sheaf_action_psc_twisted.json"], {"sheaves", "spaces"}),
    (["generate", "pseudocircle-torsor", "twisted", "-o", "out.json"], {"sheaves", "spaces"}),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None)
def test_each_verb_loads_only_the_layers_it_runs(argv, extra, torsor_file, tmp_path):
    argv = [a.format(data=DATA, torsor=torsor_file) for a in argv]
    assert _loaded_by_cli(argv, tmp_path) == BASE | extra


FRESH = """
import json, sys
import torsorkit

def loaded():
    return sorted(m for m in sys.modules if m.startswith("torsorkit"))

out = {"import": loaded(), "numpy": "numpy" in sys.modules}
out["hasattr"] = [hasattr(torsorkit, n) for n in ("no_such_name", "jsonio")]
try:
    torsorkit.no_such_name
except AttributeError as err:
    out["error"] = str(err)
out["after_missing"] = loaded()
names = {}
exec("from torsorkit import *", names)
out["star"] = sorted(set(names) - {"__builtins__"})
out["after_star"] = loaded()
print(json.dumps(out))
"""


def test_import_loads_no_layer_until_a_public_name_is_read():
    out = json.loads(_fresh(FRESH))
    assert out["import"] == ["torsorkit", "torsorkit.errors"]
    assert out["numpy"] is False
    # a name outside the table is missing and loads nothing; ``from . import jsonio`` relies on that
    assert out["hasattr"] == [False, False]
    assert out["error"] == "module 'torsorkit' has no attribute 'no_such_name'"
    assert out["after_missing"] == out["import"]
    assert out["star"] == EXPORTS
    layers = ("actions", "cocycles", "constructions", "errors", "groups", "report", "sheaves", "spaces")
    assert out["after_star"] == ["torsorkit", *(f"torsorkit.{m}" for m in layers)]


def test_dir_and_all_are_the_export_list():
    assert dir(torsorkit) == EXPORTS
    assert sorted(torsorkit.__all__) == EXPORTS
    assert torsorkit.__version__ == "0.1.0"


def test_every_export_is_the_layer_object_bound_in_the_package():
    for module, names in torsorkit._EXPORTS.items():
        layer = getattr(torsorkit, module)
        for name in names:
            assert vars(torsorkit)[name] is getattr(layer, name)
    assert vars(torsorkit)["errors"] is torsorkit.errors


def test_a_missing_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        torsorkit.no_such_name
    assert not hasattr(torsorkit, "_digits")


def test_the_codec_lives_in_groups_and_constructions_reimports_it():
    assert constructions._digits is groups._digits
    assert constructions._codes is groups._codes


THREADS = """
import sys, threading
sys.setswitchinterval(1e-6)
import torsorkit

names = torsorkit.__all__ * 2
got, barrier = {}, threading.Barrier(len(names))

def read(i, name):
    barrier.wait(timeout=30)
    got[i] = getattr(torsorkit, name)

threads = [threading.Thread(target=read, args=(i, n)) for i, n in enumerate(names)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
expected = {n: getattr(sys.modules[f"torsorkit.{m}"], n) for m, ns in torsorkit._EXPORTS.items() for n in ns}
expected["errors"] = sys.modules["torsorkit.errors"]
assert all(got[i] is expected[n] for i, n in enumerate(names)), "a thread read a wrong object"
print(len(got))
"""


def test_threads_reading_names_on_first_use_all_get_the_layer_objects():
    assert _fresh(THREADS).split() == [str(2 * len(EXPORTS))]
