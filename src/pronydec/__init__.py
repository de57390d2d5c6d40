"""Decimated polynomial Prony solvers and Gibbs-free Fourier reconstruction.

Solves m_k = sum_j z_j^k sum_l c_{l,j} k^l sampled on arithmetic progressions,
evaluates the a-priori first-order stability bounds for such schemes, and uses
the progression solver to recover piecewise-smooth functions from truncated
Fourier data at the smooth-case accuracy rate.
"""

from .model import (
    AmbiguousBranchError,
    MatchResult,
    PiecewiseSignal,
    PronyModel,
    PronydecError,
    QuadratureError,
    RankDeficiencyError,
    SampleSet,
    SamplingScheme,
    SolverError,
    ValidationError,
    circle_distance,
    match_estimates,
    node_from_position,
    position_from_node,
    wrap_angle,
    wrap_position,
)
from .forward import (
    add_noise,
    condition_estimate,
    evaluate_moments,
    jacobian,
    regularity_check,
    stride_separation,
)
from .solvers import (
    SolverReport,
    confluent_vandermonde_coeffs,
    lm_refine,
)
from .decimate import (
    annihilation_solve_single,
    close_node_improvement,
    coeff_error_bound,
    decimated_solve,
    esprit_solve,
    node_error_bound,
    prony_hankel_solve,
    undecimate_node,
)
from .fourier import (
    CoefficientWindow,
    Mollifier,
    ReconstructionResult,
    build_mollifier,
    eckhoff_transform,
    evaluate_absorbing,
    evaluate_signal,
    induced_prony_model,
    initial_jump_estimates,
    localize,
    magnitudes_from_coefficients,
    partial_sum,
    piecewise_poly_coeffs,
    random_piecewise_signal,
    read_window_file,
    reconstruct,
    signal_coeffs,
    sup_error_away,
    write_window_file,
)

__version__ = "0.1.0"
