"""Solving on arithmetic progressions: `decimated_solve`, the one solve entry for
every base solver in solvers.BASE_SOLVERS (finder, branch selection, then one fit
or a refinement from the node arguments), and first-order a-priori error bounds."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .forward import _check_scheme, _scheme_ks, regularity_check
from .model import (
    TWO_PI,
    AmbiguousBranchError,
    ErrorBounds,
    PronyModel,
    SampleSet,
    ValidationError,
    _assign_nodes,
    _check_level,
    _integer,
    wrap_angle,
)
from .solvers import SolverReport, _find_nodes, _multiplicities, _solution

#: two branch candidates closer than this (in radians) count as ambiguous
BRANCH_TOL = 1e-9


def undecimate_node(w: complex, p: int, hint: float) -> complex:
    """Invert w = z^p on the unit circle, choosing the branch nearest the hint.

    hint is the expected node argument (arg z).  The modulus of w is discarded;
    the result is exp(i*theta) with theta = (arg w + 2*pi*n)/p.  Branch n sits
    2*pi*(n - t)/p from the hint, t = (p*hint - arg w)/(2*pi), so the nearest
    is n = round(t) mod p and the runner-up is (2*pi/p)*(1 - 2|t - round(t)|)
    farther away; a gap below BRANCH_TOL is ambiguous.
    """
    p = _integer("stride", p, 1)
    if not 0.5 <= abs(w) <= 2.0:
        raise ValidationError(f"powered node modulus {abs(w):.3g} is outside [0.5, 2]")
    if not math.isfinite(hint):
        raise ValidationError(f"branch hint must be finite, got {hint}")
    base = cmath.phase(w)
    if p == 1:
        return cmath.exp(1j * base)
    t = (p * hint - base) / TWO_PI
    nearest = round(t)
    if (TWO_PI / p) * (1.0 - 2.0 * abs(t - nearest)) < BRANCH_TOL:
        raise AmbiguousBranchError(
            f"two branch candidates are equally close to the hint (p={p})"
        )
    theta = (base + TWO_PI * (nearest % p)) / p
    return cmath.exp(1j * theta)


def decimated_solve(
    samples: SampleSet,
    multiplicities,
    coarse_node_args=None,
    base_solver: str = "hankel",
    refine: bool = True,
):
    """Solve a polynomial Prony system sampled on an arithmetic progression.

    Finds the nodes w = z^stride with the base solver's node finder on the
    progression-indexed values ("lm" takes the powered hints as found), pairs
    them with the coarse node-argument hints and undoes the stride-th power by
    branch selection (without hints, at stride 1, the nodes are used as found),
    then fits the coefficients on the original indices once, or with `refine`
    refines from the node arguments by lm_refine's iteration (one fit per step).

    Hints must be finite, and are required whenever stride > 1 and by the
    annihilation and lm base solvers; each must be within pi/stride of the
    true node argument for the branch choice to be correct, which cannot be
    verified at run time.
    """
    multiplicities = _multiplicities(multiplicities)
    p = samples.scheme.stride
    hints = None if coarse_node_args is None else [float(a) for a in coarse_node_args]
    if hints is not None and len(hints) != len(multiplicities):
        raise ValidationError("need one hint per node")
    if hints is not None and not all(math.isfinite(h) for h in hints):
        raise ValidationError("branch hint must be finite")
    if p > 1 and hints is None:
        raise ValidationError("coarse node hints are required when the stride exceeds 1")
    _check_scheme(multiplicities, samples.scheme)
    ks, q = _scheme_ks(samples.scheme), np.asarray(samples.values, dtype=complex)

    powered = None if hints is None else tuple(cmath.exp(1j * p * h) for h in hints)
    nodes, flags = _find_nodes(base_solver, q, multiplicities, powered)
    if hints is not None:
        perm = _assign_nodes(
            [cmath.phase(w) for w in nodes],
            multiplicities,
            [wrap_angle(p * h) for h in hints],
            multiplicities,
        )
        nodes = tuple(undecimate_node(nodes[j], p, hint) for j, hint in zip(perm, hints))
    model, report = _solution(base_solver, nodes, multiplicities, ks, q, flags, p if refine else None)
    flags = report.flags
    eps = samples.noise_level
    if eps > 0 and report.residual > 10.0 * eps * math.sqrt(samples.scheme.count):
        flags += ("large-residual",)
    method = base_solver + ("+refine" if refine else "")
    return model, SolverReport(method, report.iterations, report.residual, flags)


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
    _check_level(eps, "eps")
    sep = _require_regular(model, p).separation
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
    _check_level(eps, "eps")
    if not (math.isfinite(constant) and constant > 0):
        raise ValidationError(f"the bound constant must be finite and positive, got {constant}")
    t_eff = max(_integer("offset", t), 1)
    sep = _require_regular(model, p).separation
    r = model.unknown_count
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
    exponent = _integer("unknown_count", unknown_count) + _integer("multiplicity", multiplicity, 1)
    return float(_integer("stride", p, 1)) ** -exponent


def error_bounds(model: PronyModel, t: int, p: int, eps: float, constant: float = 1.0):
    """Bundle of node and coefficient bounds plus the powered-node separation."""
    nodes = node_error_bound(model, p, eps)
    coeffs = coeff_error_bound(model, t, p, eps, constant)
    return ErrorBounds(
        node_bounds=tuple(float(b) for b in nodes),
        coeff_bounds=tuple(tuple(float(b) for b in row) for row in coeffs),
        separation=regularity_check(model, p).separation,
    )
