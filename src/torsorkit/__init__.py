"""torsorkit: exact finite-instance computations with torsors.

Validated finite groups and group actions, torsors with transporters and
trivializations, the classical example torsor families over prime
fields, Cech 1-cocycles on cover nerves, and sheaf torsors on finite
topological spaces exhibiting the local-triviality versus
global-obstruction dichotomy.

The public names load on first use (PEP 562): ``import torsorkit`` runs
no layer, and the first public name read imports every layer and binds
all of them, so from then on the package namespace is a plain module's.
A command-line child thus loads only the layers its verb runs.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# each layer module and the public names it exports through the package
_EXPORTS = {
    "actions": (
        "BasepointChange", "GroupAction", "Torsor", "Trivialization", "as_torsor", "basepoint_change",
        "build_action", "coset_action", "coset_list", "is_free", "is_transitive", "left_translation_action",
        "orbit", "right_action_as_left", "stabilizer", "transported_group", "transporter", "trivialization",
    ),
    "cocycles": (
        "Cochain", "CocycleClass", "Nerve", "NerveCocycle", "NotEquivalent", "NotTrivial", "apply_coboundary",
        "are_equivalent", "build_nerve", "check_cocycle", "equivalence_classes", "find_trivialization",
        "holonomy", "make_cochain",
    ),
    "constructions": (
        "LinearSolveResult", "PrimeFieldMatrix", "affine_torsor", "basis_torsor", "coset_torsor",
        "count_ordered_bases", "decode_vector", "encode_vector", "gaussian_solve", "general_linear_group",
        "is_prime", "prime_field_matrix", "solution_torsor",
    ),
    "groups": (
        "FiniteGroup", "Subgroup", "build_group", "build_subgroup", "catalog_group", "catalog_names",
        "opposite_group", "subgroup_as_group", "symmetric_elements", "trivial_subgroup",
    ),
    "report": ("Report", "failing", "passing"),
    "sheaves": (
        "DescentDatum", "SheafAction", "SheafOfGroups", "SheafOfSets", "SheafTorsor", "as_sheaf_torsor",
        "build_descent_datum", "constant_group_sheaf", "constant_section_id", "constant_section_tuple",
        "extract_cocycle", "global_sections", "glue_from_cocycle", "is_sheaf", "is_sheaf_of_groups",
        "is_sheaf_torsor", "lift_point_action", "lift_point_torsor", "pseudocircle_descent_datum", "sections",
    ),
    "spaces": (
        "FiniteSpace", "build_space", "close_under_ops", "connected_components", "point_space",
        "pseudocircle",
    ),
}

_LAZY = frozenset(name for names in _EXPORTS.values() for name in names)
__all__ = sorted(_LAZY | {"errors"})


def __getattr__(name: str):
    """The first public name read binds them all; any other missing name loads nothing."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        layer = importlib.import_module(f"{__name__}.{module}")
        globals().update((n, getattr(layer, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return __all__
