"""torsorkit: exact finite-instance computations with torsors.

Validated finite groups and group actions, torsors with transporters and
trivializations, the classical example torsor families over prime
fields, Cech 1-cocycles on cover nerves, and sheaf torsors on finite
topological spaces exhibiting the local-triviality versus
global-obstruction dichotomy.
"""

from .actions import (
    BasepointChange,
    GroupAction,
    Torsor,
    Trivialization,
    as_torsor,
    basepoint_change,
    build_action,
    coset_action,
    coset_list,
    is_free,
    is_transitive,
    left_translation_action,
    orbit,
    right_action_as_left,
    stabilizer,
    transported_group,
    transporter,
    trivialization,
)
from .cocycles import (
    Cochain,
    CocycleClass,
    Nerve,
    NerveCocycle,
    NotEquivalent,
    NotTrivial,
    apply_coboundary,
    are_equivalent,
    build_nerve,
    check_cocycle,
    equivalence_classes,
    find_trivialization,
    holonomy,
    make_cochain,
)
from .constructions import (
    LinearSolveResult,
    PrimeFieldMatrix,
    affine_torsor,
    basis_torsor,
    coset_torsor,
    count_ordered_bases,
    decode_vector,
    encode_vector,
    gaussian_solve,
    general_linear_group,
    is_prime,
    prime_field_matrix,
    solution_torsor,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    build_group,
    build_subgroup,
    catalog_group,
    catalog_names,
    opposite_group,
    subgroup_as_group,
    symmetric_elements,
    trivial_subgroup,
)
from .report import Report, failing, passing
from .sheaves import (
    DescentDatum,
    SheafAction,
    SheafOfGroups,
    SheafOfSets,
    SheafTorsor,
    as_sheaf_torsor,
    build_descent_datum,
    constant_group_sheaf,
    constant_section_id,
    constant_section_tuple,
    extract_cocycle,
    global_sections,
    glue_from_cocycle,
    is_sheaf,
    is_sheaf_of_groups,
    is_sheaf_torsor,
    lift_point_action,
    lift_point_torsor,
    pseudocircle_descent_datum,
    sections,
)
from .spaces import (
    FiniteSpace,
    build_space,
    close_under_ops,
    connected_components,
    point_space,
    pseudocircle,
)
from . import errors

__version__ = "0.1.0"
