"""Inversion of the measurement map.

`_FINDERS` maps each base-solver name (`BASE_SOLVERS`) to its node finder
`finder(q, multiplicities, hints)`: from the progression values
q_s = m_{offset + s*stride} and any hints, both in the "powered" domain
w = z^stride, it returns node estimates w plus a tuple of flags, and raises
its own structural ValidationError (`lm`'s finder returns the hints).
decimate.decimated_solve is the one pipeline that runs them: finder, branch
selection, then one `_fit_coefficients` fit or `_refine` from the node
arguments; the public base solvers are its stride-one case (decimate.py).
`_refine` is variable projection: it iterates on the node arguments only, and
each trial point is one R-only QR of [A | D | q], the amplitude basis, its
theta-derivative and the data (`_trial`), whose small triangle gives the rank
test, the amplitudes, the cost and the factored Jacobian (`_kaufman`).  A
trial point touches only what changes with theta: [A | D | q] is one of two
workspaces allocated once per refinement, with q and 1j * k already in place,
A is written there by `_kernel` (one np.exp for all the nodes) and D = i k A
beside it, and an accepted point swaps the two.  `_column_scale` is the one
home of the power-of-two column scale (it serves `_fit_coefficients` too),
and `_full_rank_lstsq` of the rank test.  A trial point is tens of
microseconds on matrices of a few columns, where numpy.linalg's Python
wrappers cost more than LAPACK, so `_trial`, `_kaufman` and `_full_rank_lstsq`
call the gufuncs those wrappers call (`_lapack`) on the same inputs: zgeqrf
for the R-only QR, zgelsd for the least squares (rcond = eps * max(m, n)),
dgesdd for the Kaufman SVD, each under numpy's error guard, so the bits and
the LinAlgError messages are numpy.linalg's.  The refinement's start, with the
amplitudes fitted there, must be a regular point at the stride
(forward._require_regular), and it needs at least as many samples as
coefficients.  It ends at one of five stops, "gradient", "decrease", "step",
"damping" or "cap" (lm_refine), and returns one `_Refinement`, whose stop
gives the report's flags.  `lm_refine` runs it from the nodes of a caller's
model.  Every report is built by `_report`, which adds the "large-residual"
flag.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _linalg, _umath_linalg

from .forward import (
    _kernel,
    _model_arrays,
    _require_regular,
    _scheme_ks,
)
from .model import (
    PronyModel,
    RankDeficiencyError,
    SampleSet,
    SolverError,
    ValidationError,
    _multiplicities,
)

#: relative singular-value threshold below which linear systems count as degenerate
RANK_TOL = 1e-12

#: lm_refine's stops: "gradient" when ||J_s^T r||_inf <= GRAD_TOL * ||r|| (J_s
#: column-scaled), "decrease" when no step can lower the cost by more than
#: _DECREASE_TOL of itself, "step" when a step is shorter than STEP_TOL, and
#: "cap" after MAX_ITERATIONS iterations ("damping" is the fifth, lam > 1e14)
GRAD_TOL = 1e-10
_DECREASE_TOL = 1e-13
STEP_TOL = 1e-12
MAX_ITERATIONS = 200

#: root clustering is flagged ambiguous when the widest uncut angular gap is
#: within this fraction of the narrowest cut
CLUSTER_AMBIGUITY = 0.10


@dataclass(frozen=True)
class SolverReport:
    """Method tag, iteration count, max-abs residual over the used indices, flags."""

    method: str
    iterations: int
    residual: float
    flags: tuple = ()


def _report(samples: SampleSet, method: str, iterations: int, residual: float, flags: tuple) -> SolverReport:
    """The one builder of a solve's report: the flags gain "large-residual"
    when the residual exceeds 10 * noise_level * sqrt(count) on noisy samples."""
    eps = samples.noise_level
    if eps > 0 and residual > 10.0 * eps * math.sqrt(samples.scheme.count):
        flags += ("large-residual",)
    return SolverReport(method, iterations, residual, flags)


def _residual(matrix: np.ndarray, coeffs: np.ndarray, q: np.ndarray) -> float:
    """max|A c - q| for an amplitude basis A already formed."""
    return float(np.max(np.abs(matrix @ coeffs - q)))


def _max_residual(model: PronyModel, ks: np.ndarray, q: np.ndarray) -> float:
    thetas, mults, coeffs = _model_arrays(model)
    return _residual(_kernel(thetas, mults, ks), coeffs, q)


def _project_unit(w: complex) -> complex:
    mod = abs(w)
    if mod == 0:
        raise SolverError("node estimate collapsed to zero")
    return w / mod


def _split(flat, multiplicities) -> tuple:
    """Per-node coefficient tuples from a flat coefficient vector."""
    values, ends = flat.tolist(), list(itertools.accumulate(multiplicities))
    return tuple(tuple(values[a:b]) for a, b in zip([0] + ends, ends))


# ---------------------------------------------------------------------------
# coefficient recovery (linear subproblem)
# ---------------------------------------------------------------------------

#: the rank test's message for an amplitude basis
_ALIASED = "coefficient basis is numerically rank-deficient (aliased nodes?)"


def _lapack(gufunc, fail, *args, signature):
    """numpy.linalg's gufunc `gufunc` on `args` under numpy.linalg's own guard:
    LAPACK's error signal calls `fail`, numpy.linalg's raiser of LinAlgError
    with its message for that routine."""
    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return gufunc(*args, signature=signature)


def _full_rank_lstsq(matrix, rhs, message):
    """Least-squares solution of complex `matrix` and `rhs` by zgelsd, as
    np.linalg.lstsq(matrix, rhs, rcond=None) runs it, raising
    RankDeficiencyError when the singular values it returns fall below
    RANK_TOL relative to the largest."""
    rcond = np.finfo(float).eps * max(matrix.shape)
    solution, _, _, svals = _lapack(_umath_linalg.lstsq, _linalg._raise_linalgerror_lstsq,
                                    matrix, rhs[:, None], rcond, signature="DDd->Ddid")
    if svals[-1] <= svals[0] * RANK_TOL:
        raise RankDeficiencyError(
            message,
            smallest_singular_value=float(svals[-1]),
            condition=float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf,
        )
    return solution[:, 0]


def _column_scale(multiplicities, ks: np.ndarray) -> np.ndarray:
    """The power of two nearest the norm of each column z^k k^l of the amplitude
    basis A.  |z^k k^l| = k^l on the unit circle, so the scale does not depend
    on the nodes, and dividing by it is exact in floating point: the rank test
    on A / scale sees the nodes' conditioning, not the k^l growth of the columns.
    The norms of the distinct powers 0..max(m)-1 are taken once, column by
    column as for all the columns, and gathered per column."""
    powers = ks[:, None] ** np.arange(max(multiplicities))
    norms = np.sqrt(np.add.reduce(powers * powers, axis=0))
    return np.exp2(np.round(np.log2(norms)))[[l for m in multiplicities for l in range(m)]]


def _fit_coefficients(nodes, multiplicities, ks: np.ndarray, q: np.ndarray) -> tuple:
    """(coefficient tuples, max|A c - q|) of the least-squares amplitudes c on
    the columns A = [z^k k^l], solved on A divided by `_column_scale` and
    rank-tested there; the residual reads the same A, formed once."""
    if len(ks) < sum(multiplicities):
        raise ValidationError("need at least as many samples as coefficients")
    scale = _column_scale(multiplicities, ks)
    matrix = _kernel([cmath.phase(z) for z in nodes], multiplicities, ks)
    coeffs = _full_rank_lstsq(matrix / scale, q, _ALIASED) / scale
    return _split(coeffs, multiplicities), _residual(matrix, coeffs, q)


def confluent_vandermonde_coeffs(nodes, multiplicities, samples: SampleSet):
    """Least-squares coefficients for fixed nodes: columns z_j^k k^l.

    Raises RankDeficiencyError when the basis is numerically rank-deficient
    (nearly aliased nodes), carrying the condition estimate.
    """
    mults = _multiplicities(multiplicities)
    if len(nodes) != len(mults):
        raise ValidationError("need one multiplicity per node")
    return _fit_coefficients(nodes, mults, _scheme_ks(samples.scheme), samples._array)[0]


# ---------------------------------------------------------------------------
# root clustering for multiple roots
# ---------------------------------------------------------------------------

def _cluster_roots(roots, multiplicities):
    """Group roots into clusters of the prescribed sizes; returns (centroids
    aligned with `multiplicities`, flags).

    The nodes lie on the unit circle, so a cluster is a run of roots in argument
    order: cut the ring at its k = len(multiplicities) widest angular gaps (the
    wrap-around gap included) and take each run's complex mean as its centroid.
    Raises SolverError when the run sizes are not the multiplicities; flags
    "ambiguous-clustering" when the widest uncut gap is within CLUSTER_AMBIGUITY
    of the narrowest cut.  Equal-size runs go in order of their lowest root index,
    so when every cluster is one root the centroids are the roots in root
    order, with no flag (1 < k < n fails).
    """
    roots = np.asarray(roots, dtype=complex)
    n, k = len(roots), len(multiplicities)
    if n == k and max(multiplicities) == 1:
        # + 0.0 rounds signed zeros as the mean of one root does
        return list(roots + 0.0), []
    order = np.argsort(np.angle(roots), kind="stable")
    angles = np.angle(roots[order])
    # gap i lies between sorted roots i and i + 1 (mod n)
    gaps = np.append(np.diff(angles), angles[0] + 2 * math.pi - angles[-1])
    widest = np.argsort(-gaps, kind="stable")
    cuts = np.sort(widest[:k])
    ends = np.append(cuts[1:], cuts[0] + n)
    runs = [order[np.arange(a + 1, b + 1) % n] for a, b in zip(cuts, ends)]
    sizes = sorted(map(len, runs))
    if sizes != sorted(multiplicities):
        raise SolverError(f"root cluster sizes {sizes} do not match the multiplicities")
    flags = []
    if 1 < k < n and gaps[widest[k]] >= (1 - CLUSTER_AMBIGUITY) * gaps[widest[k - 1]]:
        flags.append("ambiguous-clustering")
    centroids_by_size = {}
    for run in sorted(runs, key=min):
        centroids_by_size.setdefault(len(run), []).append(roots[run].mean())
    return [centroids_by_size[m].pop(0) for m in multiplicities], flags


# ---------------------------------------------------------------------------
# Hankel / annihilating-polynomial solver
# ---------------------------------------------------------------------------

def _windows(q: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The rows q[s + cols] for every s that keeps them inside q, by one gather."""
    return q[np.arange(len(q) - int(cols.max()))[:, None] + cols]


def _hankel_nodes(q: np.ndarray, multiplicities, hints):
    """Unit-circle projections of the root-cluster centroids (see decimate.prony_hankel_solve)."""
    total = sum(multiplicities)
    if len(q) < 2 * total:
        raise ValidationError(f"need at least {2 * total} samples, got {len(q)}")
    hankel = _windows(q, np.arange(total + 1))
    # the L-column system must have full rank; the (L+1)-column Hankel is
    # rank-deficient by design on exact data (the annihilator is its null space)
    coeffs = _full_rank_lstsq(hankel[:, :total], -hankel[:, total], "degenerate sample set")
    # monic polynomial x^L + coeffs[L-1] x^(L-1) + ... + coeffs[0]
    roots = np.roots(np.concatenate(([1.0 + 0.0j], coeffs[::-1])))
    centroids, flags = _cluster_roots(roots, multiplicities)
    return tuple(_project_unit(w) for w in centroids), tuple(flags)


# ---------------------------------------------------------------------------
# single-node annihilation solver
# ---------------------------------------------------------------------------

def _annihilation_node(q: np.ndarray, multiplicities, hints):
    """The hinted root of the averaged annihilation polynomial (see decimate.annihilation_solve_single)."""
    if len(multiplicities) != 1:
        raise ValidationError("the annihilation solver handles a single node only")
    if hints is None:
        raise ValidationError("the annihilation solver needs a node-argument hint")
    m = multiplicities[0]
    if len(q) < m + 1:
        raise ValidationError(f"need at least {m + 1} samples, got {len(q)}")

    # coefficient of w^i in sum_j C(m,j) (-w)^(m-j) q_{s+j} is (-1)^i C(m,i) q_{s+m-i}
    signed_binom = np.array([((-1) ** i) * math.comb(m, i) for i in range(m + 1)])
    rows = _windows(q, np.arange(m, -1, -1)) * signed_binom
    if len(rows) == 1:
        poly = rows[0]
    else:
        # rows are plain linear combinations of the Vh rows, and every row's
        # polynomial vanishes at the true node, so the principal Vh row does too
        _, _, vh = np.linalg.svd(rows)
        poly = vh[0]
    if np.max(np.abs(poly)) == 0:
        raise SolverError("annihilation system vanished identically")
    roots = np.roots(poly[::-1])

    candidates = [w for w in roots if 0.5 <= abs(w) <= 2.0]
    if not candidates:
        raise SolverError("no unimodular root")
    # spurious roots lie on the true root's ray, so compare complex distances
    dists = sorted((abs(w - hints[0]), idx) for idx, w in enumerate(candidates))
    if len(dists) > 1 and dists[1][0] - dists[0][0] < 1e-9:
        raise SolverError("hint ambiguous: two roots equally close")
    return (_project_unit(candidates[dists[0][1]]),), ()


# ---------------------------------------------------------------------------
# ESPRIT (subspace) solver
# ---------------------------------------------------------------------------

def _esprit_nodes(q: np.ndarray, multiplicities, hints):
    """Unit-circle projections of the shift-invariance eigenvalues (see decimate.esprit_solve)."""
    if any(m != 1 for m in multiplicities):
        raise ValidationError("the subspace solver handles simple nodes only")
    k = len(multiplicities)
    if len(q) < 2 * k + 1:
        raise ValidationError(f"need at least {2 * k + 1} samples, got {len(q)}")

    # len(q) // 2 + 1 rows
    hankel = _windows(q, np.arange(len(q) - len(q) // 2))

    u, svals, _ = np.linalg.svd(hankel, full_matrices=False)
    flags = ()
    if len(svals) > k:
        tail = svals[k]
        gap = math.inf if tail == 0 else float(svals[k - 1] / tail)
        if gap < 1.5:
            raise SolverError(f"no rank-{k} structure: singular value gap {gap:.3g}")
        if gap < 10.0:
            flags = ("weak-rank-structure",)
    subspace = u[:, :k]
    shift, *_ = np.linalg.lstsq(subspace[:-1], subspace[1:], rcond=None)
    return tuple(_project_unit(w) for w in np.linalg.eigvals(shift)), flags


# ---------------------------------------------------------------------------
# the base-solver table
# ---------------------------------------------------------------------------

def _lm_finder(q: np.ndarray, multiplicities, hints):
    if hints is None:
        raise ValidationError("the lm solver needs node-argument hints")
    return tuple(hints), ()


_FINDERS = {
    "hankel": _hankel_nodes,
    "esprit": _esprit_nodes,
    "annihilation": _annihilation_node,
    "lm": _lm_finder,
}

BASE_SOLVERS = tuple(_FINDERS)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt refinement by variable projection
# ---------------------------------------------------------------------------

@functools.cache
def _strictly_lower(rows: int, cols: int) -> tuple:
    """The index of the strictly lower part of a rows x cols matrix, once per
    shape (np.tril_indices costs more than the QR wrapper it replaces)."""
    return np.tril_indices(rows, -1, cols)


def _trial(thetas, multiplicities, ks: np.ndarray, iks: np.ndarray, scale: np.ndarray, work: np.ndarray):
    """lm_refine's trial point at node arguments `thetas`, in the workspace
    `work` = [A | D | q] (n x (2L + 1), q already in its last column, iks =
    1j * ks[:, None]): A is written by `_kernel` and D = i k A beside it, and
    the R-only QR of `work` gives the triangle R; then the coefficients from
    R11 / scale and R[:L, -1] after `_full_rank_lstsq`'s rank test, the cost
    ||R[L:, -1]||^2, and A itself (a view of `work`), for the residual at the
    point `_refine` ends on.

    R is np.linalg.qr(work, mode="r") bit for bit without its wrapper: LAPACK's
    zgeqrf on a copy of `work` (numpy's qr_r_raw gufunc), its first min(n,
    2L + 1) rows, and the Householder vectors below the diagonal zeroed
    through an index kept per shape.  The wrapper's type checks, casts and
    np.triu cost about 8 us a call at n = 4 to 66, a fifth of a trial point."""
    width = len(scale)
    matrix = _kernel(thetas, multiplicities, ks, out=work[:, :width])
    np.multiply(iks, matrix, out=work[:, width:2 * width])
    r = work.copy(order="K")
    _lapack(_umath_linalg.qr_r_raw, _linalg._raise_linalgerror_qr, r, signature="D->D")
    r = r[:min(r.shape)]
    r[_strictly_lower(*r.shape)] = 0.0
    coeffs = _full_rank_lstsq(r[:width, :width] / scale, r[:width, -1], _ALIASED) / scale
    tail = r[width:, -1]
    return r, coeffs, float(np.vdot(tail, tail).real), matrix


def _kaufman(r, coeffs, starts):
    """(column norms, s, V^T, g) of the column-scaled Kaufman Jacobian
    J_s = U diag(s) V^T at a trial point, g = U^T r, from its triangle
    (`_trial`): P D = Q2 R22, so J's real embedding is an orthonormal map times
    [Re M; Im M] with M = R22 c summed per node, and the residual r = A c - q
    has the Q2 coordinates -R[L:2L, -1] (lm_refine).  With every node simple
    each per-node sum has one term, so no sum is taken."""
    width = len(coeffs)
    rows = r[width:2 * width]
    kaufman = rows[:, width:2 * width] * coeffs
    if len(starts) < width:
        kaufman = np.add.reduceat(kaufman, starts, axis=1)
    jac = np.concatenate([kaufman.real, kaufman.imag])
    col_norms = np.sqrt(np.add.reduce(jac * jac, axis=0))
    col_norms[col_norms == 0] = 1.0
    u, s, vt = _lapack(_umath_linalg.svd_s, _linalg._raise_linalgerror_svd_nonconvergence,
                       jac / col_norms, signature="d->ddd")
    t = rows[:, -1]
    return col_norms, s, vt, -(u.T @ np.concatenate([t.real, t.imag]))


def _damped_step(s, vt, g, lam):
    """argmin_h ||J h + r||^2 + lam ||h||^2 for J = U diag(s) vt and g = U^T r."""
    return -vt.T @ (s / (s * s + lam) * g)


class _Refinement(NamedTuple):
    """What `_refine` ends on: final node arguments (the start array itself if
    no step is accepted), coefficient tuples, iterations, the stop that fired
    ("gradient", "decrease", "step", "damping" or "cap", see lm_refine), and
    max|A c - q| from the kernel A of the last accepted trial point (of the
    start when none is accepted)."""

    thetas: np.ndarray
    coeffs: tuple
    iterations: int
    stop: str
    residual: float

    @property
    def flags(self) -> tuple:
        """The report flags of the stop: the damping and cap stops flag the
        solve as unconverged, the other three end converged."""
        return {"damping": ("damping-saturated",), "cap": ("max-iterations",)}.get(self.stop, ())


def _refine(thetas, multiplicities, ks: np.ndarray, q: np.ndarray, stride: int) -> _Refinement:
    """lm_refine's iteration from the node-argument array `thetas`, as one
    `_Refinement`.  It needs at least as many samples as coefficients, and the
    fit at `thetas` must be a regular point at the stride.

    Two n x (2L + 1) workspaces for `_trial` are allocated once, q written
    into both and 1j * ks formed once: the accepted point's A lives in `work`,
    each trial point is formed in `spare`, and an accepted trial swaps them,
    so a rejected trial never overwrites the A the residual is read from.  The
    workspaces are column-major, so each column of A and D is contiguous; the
    residual reads a row-major copy of A, which BLAS multiplies by c in the
    order it multiplies the row-major kernel `_kernel` returns."""
    if len(ks) < sum(multiplicities):
        raise ValidationError("need at least as many samples as coefficients")
    scale = _column_scale(multiplicities, ks)
    # one past the last column of each node's block in A, and the first
    ends = list(itertools.accumulate(multiplicities))
    starts = [0] + ends[:-1]
    iks = 1j * ks[:, None]
    work, spare = (np.empty((len(ks), 2 * len(scale) + 1), dtype=complex, order="F") for _ in range(2))
    work[:, -1] = spare[:, -1] = q
    r, coeffs, cost, matrix = _trial(thetas, multiplicities, ks, iks, scale, work)
    _require_regular(thetas, abs(coeffs[[e - 1 for e in ends]]), stride, "the refinement's start")
    lam, nu = 1e-3, 2.0
    iterations, stop = 0, "cap"  # the stop when no other fires first
    factored = False

    while iterations < MAX_ITERATIONS:
        iterations += 1
        if not factored:
            col_norms, s, vt, g = _kaufman(r, coeffs, starts)
            s2 = s * s
            factored = True
            gradient = np.max(np.abs(vt.T @ (s * g))) <= GRAD_TOL * math.sqrt(cost)
            if gradient or g @ g <= _DECREASE_TOL * cost:
                stop = "gradient" if gradient else "decrease"
                break
        step = _damped_step(s, vt, g, lam) / col_norms
        if math.sqrt(step @ step) < STEP_TOL:
            stop = "step"
            break
        trial_thetas = thetas + step
        try:
            trial = _trial(trial_thetas, multiplicities, ks, iks, scale, spare)
            trial_cost = trial[2]
        except RankDeficiencyError:  # the step merged two nodes
            trial_cost = math.inf
        if trial_cost < cost:
            # predicted decrease sum g^2 (1 - t^2), t = lam / (s^2 + lam), as (1 - t)(1 + t)
            fit = s2 / (s2 + lam)
            rho = (cost - trial_cost) / float(np.sum(g * g * fit * (2.0 - fit)))
            thetas, (r, coeffs, cost, matrix) = trial_thetas, trial
            work, spare = spare, work
            lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-15)
            nu = 2.0
            factored = False
        else:
            lam *= nu
            nu *= 2.0
            if lam > 1e14:
                stop = "damping"
                break
    residual = _residual(np.ascontiguousarray(matrix), coeffs, q)
    return _Refinement(thetas, _split(coeffs, multiplicities), iterations, stop, residual)


def lm_refine(samples: SampleSet, init: PronyModel):
    """Levenberg-Marquardt fit of the model to the samples by variable projection.

    The coefficients enter linearly, so the iterate is the node arguments
    theta alone (unit modulus by construction): at each theta the coefficients
    c(theta) are the column-scaled least-squares fit on A(theta) = [z_j^k k^l]
    and the residual is r = A c - q (Golub & Pereyra, SIAM J. Numer. Anal. 10,
    1973).  The Jacobian is Kaufman's (BIT 15, 1975): column j is
    P (dA/dtheta_j) c with P = I - A A^+ the projector off the range of A and
    d(z^k k^l)/dtheta = i k z^k k^l.  Each trial point costs one kernel and
    one R-only QR of the n x (2L + 1) matrix [A | D | q] (O'Leary & Rust,
    Comput. Optim. Appl. 54, 2013), L = sum of the multiplicities and
    D = dA/dtheta.  The triangle R holds all the iteration needs: the rank
    test on the singular values of R11 / scale, R11 = R[:L, :L], which are
    those of A / scale for the power-of-two column scale (column scaling
    commutes with QR, and the scale is fixed for the solve: |z^k k^l| = k^l
    does not depend on theta); the coefficients, from R11 and R[:L, -1]; the
    cost ||R[L:, -1]||^2; and, since P D = Q2 R22, the Jacobian as an
    orthonormal map times a small 2L-row matrix.  At the start and after each
    accepted step that small matrix, column-scaled, is factored once as
    J_s = U S V^T, with g = U^T r read from R[L:2L, -1] and the n-row U never
    formed; the damped step for any damping lam is -V (S / (S^2 + lam)) g.
    With fewer than 2L + 1 samples R has fewer rows, and so do R22 and g.  The
    damping follows Nielsen's gain-ratio rule (Madsen, Nielsen & Tingleff
    2004, section 3.2): with rho the actual over the predicted cost decrease,
    an accepted step sets lam <- lam * max(1/3, 1 - (2 rho - 1)^3) (floor
    1e-15) and nu <- 2, a rejected one lam <- lam * nu and nu <- 2 nu.
    Iteration ends at one of five stops: "gradient" when ||J_s^T r||_inf <=
    GRAD_TOL * ||r||; "decrease" when no step can lower the cost by more than
    _DECREASE_TOL of itself (||U^T r||^2 <= _DECREASE_TOL * ||r||^2: trial
    costs then differ by rounding alone); "step" when the step norm drops
    below STEP_TOL; "damping" when lam exceeds 1e14, flagged
    "damping-saturated"; and "cap" at the iteration cap MAX_ITERATIONS,
    flagged "max-iterations".  The samples must be at least as many as the
    coefficients (a ValidationError otherwise), and the start must be a
    regular point at the scheme stride with the coefficients refitted at its
    nodes, as in decimated_solve; init's own coefficients never enter the
    iteration.  When no step is accepted, `init` itself is returned unless the
    refit gives a smaller max-abs residual.
    The reported residual is max|A c - q| on the kernel A of the last accepted
    trial point (of the start when none is accepted), not a second kernel at
    the returned nodes; only the comparison with `init` evaluates init's own.
    It is flagged "large-residual" as in decimated_solve (`_report`).
    """
    ks, q = _scheme_ks(samples.scheme), samples._array
    start = np.array(init.node_args)
    end = _refine(start, init.multiplicities, ks, q, samples.scheme.stride)
    final = PronyModel(tuple(cmath.exp(1j * a) for a in end.thetas), init.multiplicities, end.coeffs)
    max_res = end.residual
    if end.thetas is start:
        # no step was accepted: keep init unless the refit at its nodes fits better
        init_res = _max_residual(init, ks, q)
        if init_res <= max_res:
            final, max_res = init, init_res
    return final, _report(samples, "lm", end.iterations, max_res, end.flags)
