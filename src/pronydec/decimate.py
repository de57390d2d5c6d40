"""Solving on arithmetic progressions: `decimated_solve`, the one solve pipeline
for every base solver in solvers.BASE_SOLVERS (finder, branch selection, then
one fit or a refinement from the node arguments, and one report); the public
base solvers, its stride-one case on the position index; and first-order
a-priori error bounds.  `_hints` is the one check on branch hints, and the
bounds, like the refinement, need a regular point (forward._require_regular)."""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from .forward import _check_scheme, _require_regular, _scheme_ks
from .model import (
    TWO_PI,
    AmbiguousBranchError,
    PronyModel,
    SampleSet,
    SamplingScheme,
    ValidationError,
    _assign_nodes,
    _check_level,
    _finite,
    _integer,
    _shown,
    wrap_angle,
)
from .solvers import _FINDERS, BASE_SOLVERS, SolverReport, _fit_coefficients, _multiplicities, _refine

#: two branch candidates closer than this (in radians) count as ambiguous
BRANCH_TOL = 1e-9


def _hints(values, count: int) -> list:
    """Branch hints (node arguments): a list, a tuple or a 1-d array of `count`
    real numbers of finite size (model._finite), in the caller's types."""
    listed = isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim == 1
    if not (listed and all(map(_finite, values))):
        raise ValidationError(f"branch hints must be finite real numbers, got {_shown(values)}")
    if len(values) != count:
        raise ValidationError("need one hint per node")
    return list(values)


def undecimate_node(w: complex, p: int, hint: float) -> complex:
    """Invert w = z^p on the unit circle, choosing the branch nearest the hint.

    hint is the expected node argument (arg z).  The modulus of w is discarded;
    the result is exp(i*theta) with theta = (arg w + 2*pi*n)/p.  Branch n sits
    2*pi*(n - t)/p from the hint, t = (p*hint - arg w)/(2*pi), so the nearest
    is n = round(t) mod p and the runner-up is (2*pi/p)*(1 - 2|t - round(t)|)
    farther away; a gap below BRANCH_TOL is ambiguous.
    """
    p = _integer("stride", p, 1)
    (hint,) = _hints([hint], 1)
    return _undecimate(w, p, hint)


def _undecimate(w: complex, p: int, hint: float) -> complex:
    """undecimate_node for a stride and a hint already checked."""
    if not 0.5 <= abs(w) <= 2.0:
        raise ValidationError(f"powered node modulus {abs(w):.3g} is outside [0.5, 2]")
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
    The model is built once, in canonical order (PronyModel.canonical's): the
    one fit is made in the finder's order and sorted with its nodes, and a
    refinement starts from that order, which its model keeps unsorted.  The
    report's residual is the max-abs residual on the sample indices, read
    from the kernel the fit (or the refinement's last accepted trial point)
    formed, so no kernel is built a second time; it is flagged
    "large-residual" when that exceeds 10 * noise_level * sqrt(count).

    Hints, one finite real number per node in a list, a tuple or a 1-d array
    (`_hints`), are required whenever stride > 1 and by the annihilation and
    lm base solvers; each must be within pi/stride of the true node argument
    for the branch choice to be correct, which cannot be verified at run time.
    """
    multiplicities = _multiplicities(multiplicities)
    p = samples.scheme.stride
    hints = None if coarse_node_args is None else _hints(coarse_node_args, len(multiplicities))
    if p > 1 and hints is None:
        raise ValidationError("coarse node hints are required when the stride exceeds 1")
    _check_scheme(multiplicities, samples.scheme)
    ks, q = _scheme_ks(samples.scheme), samples._array

    finder = _FINDERS.get(base_solver)
    if finder is None:
        raise ValidationError(f"unknown base solver {_shown(base_solver)}; pick from {BASE_SOLVERS}")
    powered = None if hints is None else tuple(cmath.exp(1j * p * h) for h in hints)
    nodes, flags = finder(q, multiplicities, powered)
    if hints is not None:
        perm = _assign_nodes(
            [cmath.phase(w) for w in nodes],
            multiplicities,
            [wrap_angle(p * h) for h in hints],
            multiplicities,
        )
        nodes = tuple(_undecimate(nodes[j], p, hint) for j, hint in zip(perm, hints))
    # canonical order (PronyModel.canonical's); the refined model is not sorted again
    order = sorted(range(len(nodes)), key=lambda j: wrap_angle(cmath.phase(nodes[j])))
    if refine:
        multiplicities = tuple(multiplicities[j] for j in order)
        thetas, coeffs, iterations, more, residual = _refine(
            np.array([cmath.phase(nodes[j]) for j in order]), multiplicities, ks, q, p)
        nodes = tuple(cmath.exp(1j * a) for a in thetas)
        flags += more
    else:
        # fitted in the finder's order, then sorted with its nodes
        coeffs, residual = _fit_coefficients(nodes, multiplicities, ks, q)
        nodes, multiplicities, coeffs = (tuple(seq[j] for j in order) for seq in (nodes, multiplicities, coeffs))
        iterations = 1
    model = PronyModel(nodes, multiplicities, coeffs)
    eps = samples.noise_level
    if eps > 0 and residual > 10.0 * eps * math.sqrt(samples.scheme.count):
        flags += ("large-residual",)
    method = base_solver + ("+refine" if refine else "")
    return model, SolverReport(method, iterations, residual, tuple(flags))


# ---------------------------------------------------------------------------
# the base solvers: decimated_solve at stride one on the position index
# ---------------------------------------------------------------------------

def _positional(samples: SampleSet) -> SampleSet:
    """The same values and noise level on the position index s = 0..count-1."""
    return SampleSet(SamplingScheme(0, 1, samples.scheme.count), samples._array, samples.noise_level)


def prony_hankel_solve(samples: SampleSet, multiplicities):
    """Classical Prony solve generalized to multiple roots.

    Fits the monic annihilating polynomial of degree L = sum(multiplicities) by
    least squares over all available Hankel rows, takes its roots, clusters them
    into groups of the prescribed sizes (centroid = node estimate in the powered
    domain), then recovers polynomial amplitudes by confluent-Vandermonde least
    squares.  Like every base solver it reads the values as the sequence q_s on
    the position index s = 0..count-1, so on a stride-p scheme it returns the
    powered nodes z^p and the amplitudes of q_s.
    """
    return decimated_solve(_positional(samples), multiplicities, base_solver="hankel", refine=False)


def annihilation_solve_single(samples: SampleSet, multiplicity: int, expected_node: complex):
    """Single-node solve via the shift-operator identity.

    (E - w)^m annihilates w^s Q(s) for deg Q < m, so each run of m+1 consecutive
    samples yields a degree-m polynomial equation in w with w as a simple root.
    Multiple shifted equations are averaged into one polynomial by least squares
    (principal right singular vector of the stacked coefficient rows).  The root
    with modulus in [0.5, 2] nearest the unit-circle point of the hint's argument
    wins; its amplitudes come from confluent-Vandermonde least squares on all
    samples, on the position index s as in prony_hankel_solve.
    """
    if expected_node is not None and not (
            isinstance(expected_node, numbers.Number) and _finite(abs(expected_node))):
        raise ValidationError(f"the annihilation hint must be finite, got {_shown(expected_node)}")
    hints = None if expected_node is None else [cmath.phase(expected_node)]
    return decimated_solve(_positional(samples), (multiplicity,), hints,
                           base_solver="annihilation", refine=False)


def esprit_solve(samples: SampleSet, num_nodes: int):
    """Subspace solve for simple nodes: SVD of the sample Hankel matrix, then the
    shift-invariance equation between the first and last row blocks, on the
    position index s as in prony_hankel_solve."""
    mults = (1,) * _integer("num_nodes", num_nodes, 1)
    return decimated_solve(_positional(samples), mults, base_solver="esprit", refine=False)


# ---------------------------------------------------------------------------
# a-priori error bounds
# ---------------------------------------------------------------------------

def node_error_bound(model: PronyModel, p: int, eps: float) -> np.ndarray:
    """First-order worst-case bound on |delta z_j| under measurement error eps.

    Evaluates (2/m_j!) * (2/sep)^R * p^(-m_j) * eps / |leading coefficient|,
    with sep the minimal pairwise distance of the p-th node powers (2 by
    convention for a single node).
    """
    _check_level(eps, "eps")
    sep = _require_regular(model.node_args, map(abs, model.leading_coefficients()), p, "the model").separation
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
    if not (_finite(constant) and constant > 0):
        raise ValidationError(f"the bound constant must be finite and positive, got {_shown(constant)}")
    t_eff = max(_integer("offset", t), 1)
    sep = _require_regular(model.node_args, map(abs, model.leading_coefficients()), p, "the model").separation
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
