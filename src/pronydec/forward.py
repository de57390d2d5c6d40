"""Forward measurement map for polynomial Prony models, its Jacobian, and noise.

`_kernel` is the one place where the confluent-Vandermonde block
z_j^k * k^l is formed.  The moments, the Jacobian, the solvers' amplitude
fits and every residual in them are thin callers of it,
working on index arrays k = offset + stride * arange(count).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .model import (
    TWO_PI,
    PronyModel,
    RankDeficiencyError,
    SampleSet,
    SamplingScheme,
    ValidationError,
    _check_level,
    _integer,
    _shown,
)

#: largest sample index accepted by the forward map (k^l stays in double range)
MAX_INDEX = 10**7
#: largest node multiplicity accepted by the forward map
MAX_MULTIPLICITY = 12
#: regularity_check's floor on powered-node separations and leading coefficients
REGULARITY_TOL = 1e-10


def _check_limits(multiplicities, extent: int) -> None:
    if abs(extent) > MAX_INDEX:
        raise ValidationError(f"index extent {_shown(extent)} exceeds the supported {MAX_INDEX}")
    if max(multiplicities) > MAX_MULTIPLICITY:
        raise ValidationError(f"multiplicities above {MAX_MULTIPLICITY} are not supported")


def _check_scheme(multiplicities, scheme: SamplingScheme) -> None:
    _check_limits(multiplicities, scheme.count * scheme.stride + scheme.offset)


def _scheme_ks(scheme: SamplingScheme) -> np.ndarray:
    """The scheme's indices as a float array."""
    return scheme.offset + scheme.stride * np.arange(scheme.count, dtype=float)


def _model_arrays(model: PronyModel):
    """(node arguments, multiplicities, flat coefficient vector) of a model."""
    coeffs = np.array([c for row in model.coefficients for c in row], dtype=complex)
    return np.array(model.node_args), model.multiplicities, coeffs


def _kernel(thetas, multiplicities, ks: np.ndarray, coeffs=None, out=None) -> np.ndarray:
    """Columns exp(i*theta_j*k) * k^l for each node j and l = 0..mult_j-1,
    written into `out` (an n x width complex array or view) when it is given.

    With the flat coefficient vector `coeffs`, each node's columns are followed
    by its node-derivative column d m_k/dz_j = k z_j^(k-1) sum_l c_{l,j} k^l,
    formed as (k / z_j) times the node's own columns applied to its
    coefficients.  Powers of the unit nodes are taken as exp(i*k*arg z_j) so
    the modulus does not drift for large k, every node's in one np.exp over
    the products k * (1j*theta_j).  In each product one operand has a zero
    part, so the exponent is +-0 + i*round(theta_j*k) whatever the operand
    order and whether or not the complex multiply fuses.
    """
    pows = np.empty((max(multiplicities), len(ks)))
    pows[0] = 1.0
    for l in range(1, len(pows)):
        pows[l] = pows[l - 1] * ks
    if out is None:
        width = sum(multiplicities) + (0 if coeffs is None else len(multiplicities))
        out = np.empty((len(ks), width), dtype=complex)
    waves = np.exp(ks * (1j * np.asarray(thetas))[:, None])
    col = pos = 0
    for theta, wave, m in zip(thetas, waves, multiplicities):
        block = out[:, col:col + m]
        block[:] = (wave * pows[:m]).T
        col += m
        if coeffs is not None:
            out[:, col] = (ks * cmath.exp(-1j * theta)) * (block @ coeffs[pos:pos + m])
            col += 1
        pos += m
    return out


def _moments(thetas, multiplicities, coeffs, ks: np.ndarray) -> np.ndarray:
    """m_k = sum_j z_j^k * sum_l c_{l,j} k^l for every k in ks."""
    return _kernel(thetas, multiplicities, ks) @ coeffs


def evaluate_moments(model: PronyModel, scheme: SamplingScheme) -> SampleSet:
    """Exact measurements m_k = sum_j z_j^k * sum_l c_{l,j} k^l on the scheme."""
    _check_scheme(model.multiplicities, scheme)
    return SampleSet(scheme, _moments(*_model_arrays(model), _scheme_ks(scheme)), 0.0)


def jacobian(model: PronyModel, scheme: SamplingScheme) -> np.ndarray:
    """Jacobian of the measurement map, one row per index.

    Columns are grouped per node j as (d/dc_{0,j}, ..., d/dc_{mult_j-1,j}, d/dz_j)
    with d m_k/dc_{l,j} = z_j^k k^l and d m_k/dz_j = k z_j^{k-1} sum_l c_{l,j} k^l.
    """
    _check_scheme(model.multiplicities, scheme)
    thetas, mults, coeffs = _model_arrays(model)
    return _kernel(thetas, mults, _scheme_ks(scheme), coeffs)


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the local-invertibility test at a given stride."""

    ok: bool
    stride: int
    separation: float
    node_pair_violations: tuple
    coefficient_violations: tuple

    def __bool__(self) -> bool:
        return self.ok


def stride_separation(model: PronyModel, p: int) -> float:
    """min_{i != j} |z_j^p - z_i^p|; 2.0 by convention for a single node."""
    return regularity_check(model, p).separation


def regularity_check(model: PronyModel, p: int) -> RegularityReport:
    """Local invertibility at stride p: p-th node powers farther apart than
    REGULARITY_TOL and leading coefficients larger than it in modulus.
    Degenerate inputs yield ok=False with a report, never an exception."""
    return _regularity(model.node_args, map(abs, model.leading_coefficients()), p)


def _regularity(thetas, leads, p: int) -> RegularityReport:
    p = _integer("stride", p, 1)
    powered = [cmath.exp(1j * theta * p) for theta in thetas]
    n = len(powered)
    pairs = [(i, j, abs(powered[i] - powered[j])) for i in range(n) for j in range(i + 1, n)]
    pair_violations = tuple(pair for pair in pairs if pair[2] <= REGULARITY_TOL)
    coeff_violations = tuple((j, float(lead)) for j, lead in enumerate(leads) if lead <= REGULARITY_TOL)
    return RegularityReport(
        ok=not pair_violations and not coeff_violations,
        stride=p,
        separation=min((sep for _, _, sep in pairs), default=2.0),
        node_pair_violations=pair_violations,
        coefficient_violations=coeff_violations,
    )


def _require_regular(thetas, leads, p: int, what: str) -> RegularityReport:
    """_regularity's report at stride p, or a ValidationError naming the violations."""
    report = _regularity(thetas, leads, p)
    if not report:
        raise ValidationError(f"{what} is not a regular point at the scheme stride {report.stride}: aliased pairs "
                              f"{report.node_pair_violations}, vanishing leading coefficients "
                              f"{report.coefficient_violations}")
    return report


def condition_estimate(model: PronyModel, scheme: SamplingScheme) -> float:
    """Max-row-sum norm of the inverse Jacobian on the square system (count == R)."""
    if scheme.count != model.unknown_count:
        raise ValidationError("condition estimate needs a square system: count == unknown_count")
    _require_regular(model.node_args, map(abs, model.leading_coefficients()), scheme.stride, "the model")
    jac = jacobian(model, scheme)
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals[-1] <= svals[0] * 1e-15:
        raise RankDeficiencyError(
            "Jacobian is numerically singular",
            smallest_singular_value=float(svals[-1]),
        )
    inv = np.linalg.inv(jac)
    return float(np.linalg.norm(inv, np.inf))


def add_noise(
    samples: SampleSet,
    eps: float,
    seed: int,
    distribution: str = "disk",
) -> SampleSet:
    """Perturb each value by an independent complex draw of size eps.

    "disk" draws uniformly from the closed disk of radius eps (the worst-case
    bounded-error model).  "gaussian" draws a complex normal with E|eta|^2 =
    eps^2; it is off-model (unbounded) and only offered for comparison.
    """
    seed = _integer("seed", seed)
    if _check_level(eps, "noise level") == 0:
        return SampleSet(samples.scheme, samples._array, 0.0)
    rng = np.random.default_rng(seed)
    n = samples.scheme.count
    if distribution == "disk":
        radius = eps * np.sqrt(rng.random(n))
        angle = TWO_PI * rng.random(n)
        eta = radius * np.exp(1j * angle)
    elif distribution == "gaussian":
        eta = (eps / np.sqrt(2.0)) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    else:
        raise ValidationError(f"unknown noise distribution {distribution!r}")
    return SampleSet(samples.scheme, samples._array + eta, eps)
