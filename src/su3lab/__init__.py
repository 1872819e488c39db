"""Numerical laboratory for commutator fibers of special unitary pairs.

The package studies pairs (a, b) of 3x3 special unitary matrices through
the commutator map kappa(a, b) = a b a^-1 b^-1: its fibers, the twist
flows and twist-word actions that preserve them, the trace coordinates
that separate orbits, and seeded statistical experiments probing how those
actions distribute points over a fiber.
"""

from .errors import (
    CentralFiberError,
    ConfigError,
    DriftExplosionError,
    FiberMismatchError,
    InvalidAlgebraError,
    InvalidGroupElementError,
    NonHyperbolicWordError,
    NonRegularElementError,
    Su3LabError,
    TraceDomainError,
    TrivialFlowError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    abelian_hyperbolic_test,
    central_fiber_rigidity,
    coset_twist_orbit,
    ks_statistic,
    matrix_from_c_spec,
    mcg_orbit_distribution,
    resolve_c_spec,
    run_experiment,
    submersion_census,
)
from .fiber import (
    A0,
    B0,
    FIBER_TOL,
    RepPoint,
    abelian_point,
    base_point,
    central_fiber_point,
    centralizer_intersection,
    commutator,
    d_kappa_matrix,
    d_kappa_rank,
    fiber_residual,
    is_central,
)
from .flows import (
    CURVES,
    TWIST_TIME_BOUND,
    FlowStep,
    Observable,
    curve_holonomy,
    one_param,
    random_flow_walk,
    twist_flow,
    variation,
)
from .mcg import (
    TwistWord,
    apply_word,
    homology_action,
    is_hyperbolic,
    random_word,
)
from .su3 import (
    ALGEBRA_BASIS,
    IDENTITY,
    OMEGA,
    TorusFrame,
    adjoint_matrix,
    algebra_coords,
    algebra_from_coords,
    circle_distance,
    dagger,
    eigenvalue_angles,
    exp_algebra,
    haar_random,
    inner_product,
    is_regular,
    is_special_unitary,
    random_algebra,
    regularity_gap,
    renormalize,
    torus_frame,
    unitarity_defect,
)
from .traces import (
    CHARACTER_NAMES,
    Character,
    angles_have_relation,
    char_poly_roots,
    character,
    character_distance,
    character_values,
    delta_defect,
    is_generic,
)

__version__ = "0.2.0"
