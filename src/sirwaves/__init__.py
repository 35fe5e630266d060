"""Traveling-wave laboratory for the diffusive SIR model with standard incidence.

Computes the minimal front speed from the linearization at the invaded
disease-free state, solves for wave profiles through an exponential-kernel
integral fixed point found by Newton on its own discrete problem, simulates
the full reaction-diffusion system to measure spreading fronts, and bundles
every provable statement about the waves into an executable verification
suite.
"""

__version__ = "0.1.0"

from .model import (
    Grid,
    GridFunction,
    ModelParams,
    incidence,
    r_naught,
    reaction_terms,
    wave_operator,
)
from .linear_analysis import (
    CharRoots,
    ComplexRoots,
    D3Report,
    NoFront,
    NonPositiveLambda,
    OutsideHypothesis,
    SpeedAnalysis,
    SubThreshold,
    a_lambda_eigenvalues,
    a_lambda_matrix,
    characteristic_f,
    check_d3_condition,
    envelope,
    front_roots,
    jacobian_dfe,
    lambda0,
    minimal_speed,
    phi,
)
from .resolvent import (
    DiscreteKernel,
    ExponentOrdering,
    ResolventSpec,
    ShiftFloorLost,
    TailIncompatible,
    apply_delta_inverse,
    choose_alphas,
    choose_mu,
    delta_inverse_piecewise_g,
    discrete_kernel,
)
from .wave_profile import (
    BoundSet,
    EnvelopeConditionFailed,
    FixedPointReport,
    GammaSet,
    NotConverged,
    ProfileDiagnostics,
    SearchExhausted,
    SingularJacobian,
    align_profiles,
    apply_F,
    discrete_decay_rate,
    make_bound_set,
    make_gamma_set,
    map_inverses,
    profile_diagnostics,
    select_Ms,
    select_epsilons,
    solve_bvp_newton,
    solve_fixed_point,
    verify_sub_inequalities,
    wave_window,
)
from .pde_sim import (
    FalsificationReport,
    FrontHitBoundary,
    FrontTrace,
    PulseIC,
    SimConfig,
    SimResult,
    StabilityViolated,
    front_position,
    run,
    subcritical_falsification,
    traveling_frame_check,
)
from .verification import CheckResult, run_suite, report_json, report_table, suite_passed
