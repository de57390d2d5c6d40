"""Solving on arithmetic progressions: powered-domain solves, branch selection,
and the first-order a-priori error bounds."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .forward import _check_scheme, _scheme_ks, regularity_check, stride_separation
from .model import (
    TWO_PI,
    AmbiguousBranchError,
    ErrorBounds,
    PronyModel,
    SampleSet,
    ValidationError,
    _assign_nodes,
    circle_distance,
    wrap_angle,
)
from .solvers import (
    SolverReport,
    _fit_coefficients,
    _max_residual,
    annihilation_solve_single,
    esprit_solve,
    lm_refine,
    prony_hankel_solve,
)

#: two branch candidates closer than this (in radians) count as ambiguous
BRANCH_TOL = 1e-9

BASE_SOLVERS = ("hankel", "esprit", "annihilation")


def undecimate_node(w: complex, p: int, hint: float) -> complex:
    """Invert w = z^p on the unit circle, choosing the branch nearest the hint.

    hint is the expected node argument (arg z).  The modulus of w is discarded;
    the result is exp(i*theta) with theta = (arg w + 2*pi*n)/p for the branch n
    minimizing the circle distance to the hint.
    """
    p = int(p)
    if p < 1:
        raise ValidationError("stride must be positive")
    if not 0.5 <= abs(w) <= 2.0:
        raise ValidationError(f"powered node modulus {abs(w):.3g} is outside [0.5, 2]")
    base = cmath.phase(w)
    if p == 1:
        return cmath.exp(1j * base)
    candidates = [(base + TWO_PI * n) / p for n in range(p)]
    dists = sorted((circle_distance(theta, hint), theta) for theta in candidates)
    if dists[1][0] - dists[0][0] < BRANCH_TOL:
        raise AmbiguousBranchError(
            f"two branch candidates are equally close to the hint (p={p})"
        )
    return cmath.exp(1j * dists[0][1])


def decimated_solve(
    samples: SampleSet,
    multiplicities,
    coarse_node_args=None,
    base_solver: str = "hankel",
    refine: bool = True,
):
    """Solve a polynomial Prony system sampled on an arithmetic progression.

    Runs the chosen base solver on the progression-indexed values (powered
    domain w = z^stride), undoes the stride-th power with branch selection
    against the coarse node-argument hints, recovers coefficients on the
    original indices, and optionally polishes with a damped Gauss-Newton pass.

    Hints are required whenever stride > 1 (and always for the annihilation
    base solver, which needs a root-selection hint); each hint must be within
    pi/stride of the true node argument for the branch choice to be correct,
    which cannot be verified at run time.
    """
    multiplicities = tuple(int(m) for m in multiplicities)
    k = len(multiplicities)
    p = samples.scheme.stride
    if coarse_node_args is not None:
        coarse_node_args = [float(a) for a in coarse_node_args]
        if len(coarse_node_args) != k:
            raise ValidationError("need one hint per node")
    if p > 1 and coarse_node_args is None:
        raise ValidationError("coarse node hints are required when the stride exceeds 1")
    _check_scheme(multiplicities, samples.scheme)
    ks, q = _scheme_ks(samples.scheme), np.asarray(samples.values, dtype=complex)

    if base_solver == "hankel":
        w_model, base_report = prony_hankel_solve(samples, multiplicities)
    elif base_solver == "esprit":
        if any(m != 1 for m in multiplicities):
            raise ValidationError("the subspace solver handles simple nodes only")
        w_model, base_report = esprit_solve(samples, k)
    elif base_solver == "annihilation":
        if k != 1:
            raise ValidationError("the annihilation solver handles a single node only")
        if coarse_node_args is None:
            raise ValidationError("the annihilation solver needs a node-argument hint")
        w_hint = cmath.exp(1j * p * coarse_node_args[0])
        w_model, base_report = annihilation_solve_single(
            samples, multiplicities[0], w_hint
        )
    else:
        raise ValidationError(f"unknown base solver {base_solver!r}; pick from {BASE_SOLVERS}")

    if p == 1 and samples.scheme.offset == 0 and coarse_node_args is None:
        # the powered domain coincides with the original one; the base model is
        # already the answer, bit for bit
        model = w_model
    else:
        if p == 1 and coarse_node_args is None:
            nodes = w_model.nodes
            mults = w_model.multiplicities
        else:
            hints = coarse_node_args
            perm = _assign_nodes(
                w_model.node_args,
                w_model.multiplicities,
                [wrap_angle(p * h) for h in hints],
                multiplicities,
            )
            nodes = tuple(
                undecimate_node(w_model.nodes[perm[i]], p, hints[i]) for i in range(k)
            )
            mults = multiplicities
        coefficients = _fit_coefficients(nodes, mults, ks, q)
        model = PronyModel(nodes, mults, coefficients).canonical()

    flags = list(base_report.flags)
    iterations = base_report.iterations
    if refine:
        model, refine_report = lm_refine(samples, model)
        iterations = refine_report.iterations
        flags.extend(refine_report.flags)

    residual = _max_residual(model, ks, q)
    eps = samples.noise_level
    if eps > 0 and residual > 10.0 * eps * math.sqrt(samples.scheme.count):
        flags.append("large-residual")
    report = SolverReport(
        method=base_solver + ("+refine" if refine else ""),
        iterations=iterations,
        residual=residual,
        flags=tuple(flags),
    )
    return model, report


# ---------------------------------------------------------------------------
# a-priori error bounds
# ---------------------------------------------------------------------------

def _require_regular(model: PronyModel, p: int):
    report = regularity_check(model, p)
    if not report:
        raise ValidationError(
            f"bounds need a regular point at stride {p}: "
            f"aliased pairs {report.node_pair_violations}, "
            f"vanishing leading coefficients {report.coefficient_violations}"
        )
    return report


def node_error_bound(model: PronyModel, p: int, eps: float) -> np.ndarray:
    """First-order worst-case bound on |delta z_j| under measurement error eps.

    Evaluates (2/m_j!) * (2/sep)^R * p^(-m_j) * eps / |leading coefficient|,
    with sep the minimal pairwise distance of the p-th node powers (2 by
    convention for a single node).
    """
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    _require_regular(model, p)
    sep = stride_separation(model, p)
    r = model.unknown_count
    bounds = []
    for m, lead in zip(model.multiplicities, model.leading_coefficients()):
        bound = (
            (2.0 / math.factorial(m))
            * (2.0 / sep) ** r
            / abs(lead)
            * float(p) ** (-m)
            * eps
        )
        bounds.append(bound)
    return np.asarray(bounds)


def coeff_error_bound(
    model: PronyModel,
    t: int,
    p: int,
    eps: float,
    constant: float = 1.0,
) -> tuple:
    """First-order worst-case bounds on |delta c_{i,j}|.

    Evaluates constant * (2/sep)^R * (1/2 + R/sep)^m_j * t^(m_j - i) / p^i
    * (1 + |c_{i-1,j}| / |c_{m_j-1,j}|) * eps per coefficient, with c_{-1,j} = 0.
    The offset factor uses max(t, 1) so zero-offset schemes keep a meaningful
    bound (the printed factor t^(m_j - i) would zero it out).
    """
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    if constant <= 0:
        raise ValidationError("the bound constant must be positive")
    _require_regular(model, p)
    sep = stride_separation(model, p)
    r = model.unknown_count
    t_eff = max(int(t), 1)
    out = []
    for m, row in zip(model.multiplicities, model.coefficients):
        lead = abs(row[-1])
        node_bounds = []
        for i in range(m):
            prev = abs(row[i - 1]) if i >= 1 else 0.0
            bound = (
                constant
                * (2.0 / sep) ** r
                * (0.5 + r / sep) ** m
                * float(t_eff) ** (m - i)
                / float(p) ** i
                * (1.0 + prev / lead)
                * eps
            )
            node_bounds.append(bound)
        out.append(np.asarray(node_bounds))
    return tuple(out)


def close_node_improvement(multiplicity: int, unknown_count: int, p: int) -> float:
    """Accuracy gain factor p^-(R + m) when the powered separation scales like p."""
    if p < 1:
        raise ValidationError("stride must be positive")
    return float(p) ** (-(int(unknown_count) + int(multiplicity)))


def error_bounds(model: PronyModel, t: int, p: int, eps: float, constant: float = 1.0):
    """Bundle of node and coefficient bounds plus the powered-node separation."""
    nodes = node_error_bound(model, p, eps)
    coeffs = coeff_error_bound(model, t, p, eps, constant)
    return ErrorBounds(
        node_bounds=tuple(float(b) for b in nodes),
        coeff_bounds=tuple(tuple(float(b) for b in row) for row in coeffs),
        separation=stride_separation(model, p),
    )
