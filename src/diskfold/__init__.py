"""diskfold: flat conformal labels on triangulated disks.

The pipeline: validate a triangulated disk, augment it with an apex
joined to the boundary, solve for a label that makes the folded sphere
flat, develop it into the plane, and realize every vertex as a circle
in Minkowski R^{3,1} whose products reproduce the structure constants.
"""

from .complexes import (
    AugmentedDisk,
    CombinatorialDisk,
    DiskTopologyError,
    MultiplicityAssignment,
    SimplexClass,
    augment,
    classify,
    pointwise_multiplicity,
    standard_multiplicities,
    validate_disk,
)
from .conformal import (
    AngleSystem,
    ConformalStructure,
    InadmissibleLabelError,
    StructureError,
    attach_boundary_data,
)
from .layout import (
    BoundaryReport,
    LayoutError,
    PlaneLayout,
    layout_augmented,
    layout_disk,
    layout_edge_error,
    normalize_to_unit_disk,
    realize_mpoints,
    verify_boundary_condition,
)
from .measures import (
    closure,
    layout_point_multiplicity,
    measure_curvature,
    measure_curvatures,
    measure_equivalence_check,
    valuation_defect,
)
from .minkowski import (
    ImproperVectorError,
    InfinitesimalMobius,
    MPoint,
    canonical_lift,
    induced_label_variation,
    infinitesimal_generator,
    mprod,
    project,
)
from .presets import (
    PRESET_NAMES,
    SCENARIOS,
    build,
    hex_flower,
    preset,
    random_admissible,
    ring_lattice,
    scenario_data,
    triangle_disk,
)
from .problem_io import (
    Problem,
    ProblemFormatError,
    canonical_json,
    label_from_json,
    label_to_json,
    parse_problem,
    serialize_problem,
)
from .rigidity import (
    OrbitReport,
    constraint_matrix,
    mobius_orbit_check,
    numerical_rank,
    row_rank_certificate,
)
from .solver import (
    FlowResult,
    NewtonResult,
    SolverError,
    curvature_flow,
    default_start,
    gauge_normalize,
    newton_flat,
)
from .svg import render_svg

__version__ = "0.1.0"
