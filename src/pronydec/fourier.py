"""Piecewise-smooth Fourier machinery: coefficient windows, the canonical
jump-absorbing piecewise polynomial, mollifier localization, and the full
jump-recovery reconstruction pipeline.

The canonical absorbing basis V_l is the zero-mean periodic polynomial with
Fourier coefficients (1/2pi) * (i*k)^(-l-1); a unit jump in the l-th derivative
at 0 and smooth elsewhere.  Signals split as f = (absorbing part from jump
data) + (smooth remainder), so the absorbing part's coefficients are available
in closed form and the mean coefficient belongs entirely to the remainder.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .decimate import decimated_solve
from .model import (
    TWO_PI,
    PiecewiseSignal,
    PronyModel,
    QuadratureError,
    SampleSet,
    SamplingScheme,
    ValidationError,
    _circle_angles,
    _check_level,
    _finite,
    _finite_array,
    _integer,
    _order,
    _shown,
    position_from_node,
    wrap_angle,
)
from .solvers import _esprit_nodes

#: certified absolute accuracy of each mollifier Fourier coefficient
QUAD_CERT = 1e-13


# ---------------------------------------------------------------------------
# Bernoulli-polynomial closed form of the absorbing basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_numbers(n: int) -> tuple:
    """B_0..B_n with B_1 = -1/2."""
    values = [1.0]
    for m in range(1, n + 1):
        acc = 0.0
        for j in range(m):
            acc += math.comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return tuple(values)


@lru_cache(maxsize=None)
def _bernoulli_poly(n: int) -> tuple:
    """Coefficients of B_n(x), highest degree first (for polyval)."""
    numbers = _bernoulli_numbers(n)
    coeffs = [math.comb(n, k) * numbers[n - k] for k in range(n + 1)]
    return tuple(reversed(coeffs))


def _basis_at_phase(order: int, u: np.ndarray) -> np.ndarray:
    """V_order at the fractional phase u = mod(x / 2pi, 1):
    -(2pi)^order / (order+1)! * B_{order+1}(u)."""
    poly = np.polyval(_bernoulli_poly(order + 1), u)
    return -((TWO_PI ** order) / math.factorial(order + 1)) * poly


def jump_basis_eval(order: int, x) -> np.ndarray:
    """V_order(x): unit jump of the order-th derivative at 0, zero mean.

    Closed form -(2pi)^order / (order+1)! * B_{order+1} of the fractional part
    of x/(2pi).  At the jump itself the value is the right-hand limit.
    """
    order = _order("order", order)
    return _basis_at_phase(order, np.mod(_points(x) / TWO_PI, 1.0))


def _points(x) -> np.ndarray:
    """Evaluation points as a float array; a NaN or infinite one is a ValidationError."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError("evaluation points must be finite")
    return x


def _jump_data(jumps, magnitudes):
    """(positions, magnitude rows) as float arrays: one row per derivative
    order, at most MAX_ORDER + 1 of them (model._order), each as long as the
    jump list, every value finite (model._finite_array); else a ValidationError."""
    rows = tuple(magnitudes)
    if rows:
        _order("jump order", len(rows) - 1)
    positions = _finite_array(jumps, "jump positions", float)
    try:
        aligned = all(len(row) == len(positions) for row in rows)
    except TypeError:  # a row that is a bare number
        aligned = False
    if not aligned:
        raise ValidationError(f"each magnitude row needs one value per jump ({len(positions)})")
    try:
        flat = np.concatenate(rows) if rows else ()
    except ValueError:  # nested or ragged rows, which fail the finiteness test below
        flat = None
    flat = _finite_array(flat, "jump magnitudes", float)
    return positions, flat.reshape(len(rows), len(positions))


def evaluate_absorbing(jumps, magnitudes, x) -> np.ndarray:
    """Pointwise value of the absorbing piecewise polynomial for the jump data
    (checked by `_jump_data`) at the finite points x.  Each jump's phase
    mod((x - x_j) / 2pi, 1) is computed once for every order; the nonzero
    terms a_{l,j} V_l(x - x_j) are added by order, then by jump, as summing
    jump_basis_eval did, bit for bit."""
    positions, rows = _jump_data(jumps, magnitudes)
    return _absorbing(positions, rows, _points(x))


def _absorbing(positions: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """evaluate_absorbing without its checks, for jump data and points known valid."""
    phases = [np.mod((x - xj) / TWO_PI, 1.0) for xj in positions]
    total = np.zeros_like(x)
    for l, row in enumerate(rows):
        for u, a in zip(phases, row):
            if a != 0.0:
                total = total + a * _basis_at_phase(l, u)
    return total


def piecewise_poly_coeffs(jumps, magnitudes, smoothness: int, ks) -> np.ndarray:
    """Fourier coefficients of the absorbing piecewise polynomial at nonzero ks.

    (1/2pi) * sum_j exp(-i k x_j) * sum_l (i k)^(-l-1) a_{l,j}; valid for
    negative k as well.  k = 0 is excluded: the canonical absorbing polynomial
    has zero mean, so the mean coefficient belongs to the smooth part.  The
    jump data is checked by `_jump_data`.
    """
    ks = np.asarray(ks, dtype=float)
    if np.any(ks == 0):
        raise ValidationError(
            "k = 0 has no formula coefficient; the absorbing part is zero-mean "
            "and the mean belongs to the smooth remainder"
        )
    d = _order("smoothness", smoothness)
    if len(magnitudes) != d + 1:
        raise ValidationError("magnitudes must have smoothness+1 rows")
    return _poly_coeffs(*_jump_data(jumps, magnitudes), ks)


def _poly_coeffs(positions: np.ndarray, rows: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """piecewise_poly_coeffs without its checks, for jump data known valid
    (one row per order) and nonzero float ks."""
    out = np.zeros(len(ks), dtype=complex)
    inv = 1.0 / (1j * ks)
    for j, xj in enumerate(positions):
        inner = np.zeros(len(ks), dtype=complex)
        power = inv.copy()
        for row in rows:
            inner += row[j] * power
            power = power * inv
        out += np.exp(-1j * ks * xj) * inner
    return out / TWO_PI


def _jump_window(positions: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """The absorbing part's coefficients at k = -M..M, 0 at k = 0, for jump data
    known valid.  They are computed for k = 1..M only; k = -M..-1 take their
    conjugates, which is the formula's value there bit for bit, since the jump
    data is real and libm's cos is even and its sin odd (a zero coefficient,
    from all-zero magnitudes, may change the sign of a zero part)."""
    half = _poly_coeffs(positions, rows, np.arange(1.0, m + 1))
    return np.concatenate([half[::-1].conj(), [0.0], half])


# ---------------------------------------------------------------------------
# coefficient windows
# ---------------------------------------------------------------------------

@dataclass
class CoefficientWindow:
    """Fourier coefficients c_k for |k| <= bandwidth, stored at index k + bandwidth."""

    coeffs: np.ndarray
    bandwidth: int

    def __post_init__(self):
        self.bandwidth = _integer("bandwidth", self.bandwidth)
        self.coeffs = _finite_array(self.coeffs, "window coefficients")
        if self.coeffs.shape != (2 * self.bandwidth + 1,):
            raise ValidationError("window needs 2*bandwidth + 1 coefficients")
        self.coeffs.flags.writeable = False


def signal_coeffs(signal: PiecewiseSignal, bandwidth: int) -> CoefficientWindow:
    """Exact coefficient window of a piecewise signal: closed-form absorbing part
    plus the stored smooth-part series.

    The absorbing part is computed for k = 1..M and mirrored to k = -M..-1 by
    conjugation (_jump_window); that equals piecewise_poly_coeffs at every
    nonzero k, bit for bit, as long as libm's cos is even and its sin odd
    (the sign of a zero may differ where every magnitude is zero)."""
    m = _integer("bandwidth", bandwidth, 1)
    jump_part = _jump_window(np.array(signal.jumps), np.array(signal.magnitudes), m)
    # psi_n at k = n >= 0, its conjugate at -n, 0 beyond: bit-equal to a per-index sum
    psi, n = signal._psi_array, min(m, signal.psi_degree)
    smooth = np.zeros(2 * m + 1, dtype=complex)
    smooth[m:m + n + 1] = psi[:n + 1]
    smooth[m - n:m] = psi[n:0:-1].conj()
    return CoefficientWindow(jump_part + smooth, m)


def _series_eval(coeffs: np.ndarray, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs_k exp(i k x) in x's shape, evaluated in blocks to bound memory."""
    out = np.zeros(x.size, dtype=complex)
    block = 512
    for start in range(0, len(ks), block):
        kb = ks[start:start + block]
        cb = coeffs[start:start + block]
        out += np.exp(1j * np.outer(x, kb)) @ cb
    return out.reshape(x.shape)


def _fold(runs, n: int, start=None) -> np.ndarray:
    """The runs (first k, [c_k, c_{k+1}, ...]) folded into bins r = k mod n,
    each term signed (-1)^k.  Each run is padded in front by (first k mod n)
    zeros and at the back to a multiple of n, its odd k change sign in one
    strided slice, and the runs' (rows, n) blocks are stacked and summed over
    axis 0.  For n >= 2 that adds each bin's terms in order, run by run and k
    by k, as np.add.at into zeroed bins did, so the bits are the same (zero
    bins aside, whose sign may differ).  `start`, the bins of earlier runs, is
    stacked as the first row, so for n >= 2 folding the later runs onto it
    gives the bits of folding all the runs at once."""
    head = 0 if start is None else n
    sizes = [-(-(k0 % n + len(c)) // n) * n for k0, c in runs]
    folded = np.zeros(head + sum(sizes), dtype=complex)
    if start is not None:
        folded[:n] = start
    begin = head
    for (k0, c), size in zip(runs, sizes):
        front = k0 % n
        block = folded[begin:begin + size]
        block[front:front + len(c)] = c
        # block[i] holds k = k0 - front + i
        block[(k0 - front + 1) % 2::2] *= -1.0
        begin += size
    return folded.reshape(-1, n).sum(axis=0)


def _grid_series(runs, n: int, start=None) -> np.ndarray:
    """sum_k c_k exp(i k x) on the grid x_j = -pi + 2pi j / n for contiguous
    runs (first k, [c_k, c_{k+1}, ...]), by one FFT: exp(i k x_j) =
    (-1)^k exp(2pi i (k mod n) j / n), so fold into bins r = k mod n (_fold,
    onto the bins `start` of earlier runs if given), then transform."""
    return np.fft.ifft(_fold(runs, n, start), norm="forward")


def partial_sum(window: CoefficientWindow, x):
    """Truncated Fourier series of the window at finite x (scalar or array); the real part."""
    result = _window_series(window, np.atleast_1d(_points(x)))
    return float(result[0]) if np.isscalar(x) or np.ndim(x) == 0 else result


def _window_series(window: CoefficientWindow, xs: np.ndarray) -> np.ndarray:
    """partial_sum's real part at points already checked, in their shape."""
    ks = np.arange(-window.bandwidth, window.bandwidth + 1)
    return _series_eval(window.coeffs, ks, xs).real


def evaluate_signal(signal: PiecewiseSignal, x):
    """Pointwise value of the signal at finite x: absorbing part + smooth trigonometric series."""
    xs = np.atleast_1d(_points(x))
    # a PiecewiseSignal's jump data is checked at construction
    total = _absorbing(np.array(signal.jumps), np.array(signal.magnitudes), xs)
    psi = signal._psi_array
    ns = np.arange(1, len(psi))
    if len(ns):
        total = total + 2.0 * _series_eval(psi[1:], ns, xs).real
    total = total + psi[0].real
    return float(total[0]) if np.isscalar(x) or np.ndim(x) == 0 else total


# ---------------------------------------------------------------------------
# transform to a polynomial Prony system
# ---------------------------------------------------------------------------

def _transform(coeffs: np.ndarray, d: int, ks: np.ndarray) -> np.ndarray:
    """m_k = 2pi (i k)^(d+1) c_k from the coefficients c_k at the positive integer indices ks."""
    return TWO_PI * (1j * ks) ** (d + 1) * coeffs


def eckhoff_transform(window: CoefficientWindow, smoothness: int) -> SampleSet:
    """Measurements m_k = 2pi (i k)^(d+1) c_k for k = 1..bandwidth.

    On a pure jump signal this is exactly a polynomial Prony system with nodes
    exp(-i x_j) of multiplicity d+1; the smooth part contributes a perturbation
    decaying like 1/k.
    """
    d = _order("smoothness", smoothness)
    m = window.bandwidth
    return SampleSet(SamplingScheme(1, 1, m), _transform(window.coeffs[m + 1:], d, np.arange(1, m + 1)), 0.0)


def induced_prony_model(jumps, magnitudes, smoothness: int) -> PronyModel:
    """The Prony model the transform produces from pure jump data:
    nodes exp(-i x_j), multiplicity d+1, coefficients c_{l,j} = i^l a_{d-l,j}."""
    d = _order("smoothness", smoothness)
    nodes = tuple(cmath.exp(-1j * x) for x in jumps)
    mults = (d + 1,) * len(jumps)
    coeffs = tuple(
        tuple((1j ** l) * magnitudes[d - l][j] for l in range(d + 1))
        for j in range(len(jumps))
    )
    return PronyModel(nodes, mults, coeffs)


def magnitudes_from_coefficients(coefficients, smoothness: int) -> np.ndarray:
    """Invert c_l = i^l a_{d-l}: jump magnitudes (a_0, ..., a_d) from one node's
    polynomial amplitudes."""
    d = _order("smoothness", smoothness)
    if len(coefficients) != d + 1:
        raise ValidationError("need d+1 coefficients")
    mags = np.empty(d + 1)
    for l, c in enumerate(coefficients):
        mags[d - l] = (complex(c) * (-1j) ** l).real
    return mags


def initial_jump_estimates(window: CoefficientWindow, num_jumps: int):
    """Coarse jump positions from the order-zero transform's top indices.

    Applies the transform with d = 0 to the 4K highest indices and runs the
    subspace node finder with K nodes.  Accuracy is O(1/bandwidth) when the
    smooth remainder obeys the decay hypothesis.
    """
    k = _integer("num_jumps", num_jumps, 1)
    m = window.bandwidth
    if m < 4 * k:
        raise ValidationError(f"bandwidth {m} too small for {k} jumps (need >= {4 * k})")
    ks = np.arange(m - 4 * k + 1, m + 1)
    nodes, _ = _esprit_nodes(_transform(window.coeffs[m + ks], 0, ks), (1,) * k, None)
    return sorted(position_from_node(z) for z in nodes)


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

@dataclass
class Mollifier:
    """Smooth bump about `center`, of the widths build_mollifier was given.

    centered_coeffs[n] holds the (real) Fourier coefficient of the bump centered
    at 0; shifting to `center` multiplies coefficient n by exp(-i n center).
    `accuracy` is the disagreement of the trapezoid rule at L and 2L samples,
    a conservative estimate of the error of the (2L) coefficients.
    """

    center: float
    degree: int
    centered_coeffs: np.ndarray
    accuracy: float

    def __post_init__(self):
        self.centered_coeffs = np.asarray(self.centered_coeffs, dtype=float)
        self.centered_coeffs.flags.writeable = False

    def coeff(self, n: int) -> complex:
        n = _integer("index", n, -math.inf)
        if abs(n) > self.degree:
            raise ValidationError(f"index {_shown(n)} beyond mollifier degree {self.degree}")
        return cmath.exp(-1j * n * self.center) * self.centered_coeffs[abs(n)]

    def two_sided(self) -> np.ndarray:
        ns = np.arange(-self.degree, self.degree + 1)
        return np.exp(-1j * ns * self.center) * self.centered_coeffs[np.abs(ns)]


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C-infinity transition from 1 to 0 on 0 < u < 1:
    exp(-1/(1-u)) / (exp(-1/(1-u)) + exp(-1/u)) as a logistic."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(1.0 / (1.0 - u) - 1.0 / u))


#: trapezoid sample counts: the first size tried at low degree, and the cap
_MIN_SAMPLES = 2 ** 14
_MAX_SAMPLES = 2 ** 22


@lru_cache(maxsize=128)
def _centered_bump_coeffs(half_width: float, flat_half_width: float, degree: int):
    """(-1)^n * rfft(bump samples on [-pi, pi))[n] / L for n <= degree, doubling
    L until L and 2L agree; the 2L result is read-only and shared.

    Grid point i of L is grid point 2i of 2L bit for bit (scaling by 2 is
    exact), so each doubling samples only the new odd points, and only the
    transition band calls _smoothstep: the bump is exactly 1 at u <= 0 and 0
    at u >= 1."""
    def bump(i: np.ndarray, size: int) -> np.ndarray:
        u = (np.abs(-math.pi + TWO_PI * i / size) - flat_half_width) / (half_width - flat_half_width)
        out = (u <= 0.0).astype(float)
        band = (0.0 < u) & (u < 1.0)
        out[band] = _smoothstep(u[band])
        return out

    signs = np.where(np.arange(degree + 1) % 2 == 0, 1.0, -1.0)
    size = max(_MIN_SAMPLES, 1 << (4 * (degree + 1) - 1).bit_length())
    coarse, worst = None, math.inf
    while size <= _MAX_SAMPLES:
        if coarse is None:
            samples = bump(np.arange(size), size)
        else:  # interleave the L samples (even) with the new ones (odd)
            samples = np.column_stack((samples, bump(np.arange(1, size, 2), size))).ravel()
        fine = signs * np.fft.rfft(samples)[: degree + 1].real / size
        if coarse is not None:
            worst = float(np.max(np.abs(fine - coarse)))
            if worst <= 0.5 * QUAD_CERT / math.pi:
                fine.flags.writeable = False
                return fine, worst
        coarse, size = fine, 2 * size
    raise QuadratureError(
        f"bump coefficients did not converge within {_MAX_SAMPLES} samples (disagreement {worst:.2g})"
    )


def build_mollifier(center: float, half_width: float, flat_half_width: float, degree: int) -> Mollifier:
    """Mollifier equal to 1 on [center - flat_half_width, center + flat_half_width]
    and to 0 outside [center - half_width, center + half_width], with Fourier
    coefficients up to `degree`.

    The bump is even about its center, so the centered coefficients are real
    and shifting is an exact phase modulation.  They come from the periodic
    trapezoid rule (one FFT of L samples), which converges super-algebraically
    on a smooth periodic bump.  L starts at max(2^14, 4 * (degree + 1)) rounded
    up to a power of two and doubles until the L and 2L results agree to
    0.5 * QUAD_CERT / pi; past 2^22 samples this raises QuadratureError.  The L
    needed grows like 1 / (half_width - flat_half_width) at any degree: width
    1e-4 reaches the cap (about 0.23 s on a 2-vCPU x86-64 machine), narrower
    raises.  `reconstruct`'s width 2 * min_separation / 9 certifies at
    L <= 2^15, in about 0.6 ms cold at degree 3072 (M = 2048) on the same
    machine.  Results are cached in a bounded LRU cache.
    """
    if not (all(map(_finite, (center, half_width, flat_half_width)))
            and 0.0 < flat_half_width < half_width <= math.pi):
        raise ValidationError("need a finite center and 0 < flat_half_width < half_width <= pi")
    degree = _integer("degree", degree)
    coeffs, accuracy = _centered_bump_coeffs(float(half_width), float(flat_half_width), degree)
    return Mollifier(center=float(center), degree=degree, centered_coeffs=coeffs, accuracy=accuracy)


def localize(window: CoefficientWindow, moll: Mollifier, out_bandwidth: int) -> CoefficientWindow:
    """Coefficients of (signal * mollifier) for |k| <= out_bandwidth: the
    full localized window.  `reconstruct` does not call it; it sums only the
    d+2 coefficients each jump's solve reads (_localized_coeffs).

    Discrete convolution of the window with the mollifier coefficients, as one
    zero-padded FFT product of power-of-two size >= the full convolution
    length (no wrap-around), of which the 2 * out_bandwidth + 1 central
    outputs are kept.  The output bandwidth is capped at half the input
    bandwidth so the truncation only drops products against mollifier
    coefficients of order >= bandwidth/2, which are super-polynomially small.
    """
    b = _integer("out_bandwidth", out_bandwidth, 1)
    m = window.bandwidth
    if b > m // 2:
        raise ValidationError("out_bandwidth must not exceed half the window bandwidth")
    if moll.degree < m + b:
        raise ValidationError(
            f"mollifier degree {moll.degree} too small: need >= bandwidth + out_bandwidth = {m + b}"
        )
    taps = moll.two_sided()
    size = 1 << (len(window.coeffs) + len(taps) - 2).bit_length()
    conv = np.fft.ifft(np.fft.fft(window.coeffs, size) * np.fft.fft(taps, size))
    center = m + moll.degree
    out = conv[center - b: center + b + 1]
    return CoefficientWindow(out, b)


def _localized_coeffs(window: CoefficientWindow, moll: Mollifier, ks: np.ndarray) -> np.ndarray:
    """Coefficients of (signal * mollifier) at the few indices ks, as localize
    would give them, without the full window.

    loc_k = sum_{|j| <= M} c_j exp(-i (k - j) center) chat_{|k - j|}, summed
    directly: one phase turn of the window, one gather of the real centered
    taps into a len(ks) x (2M + 1) matrix, one product, one phase per output.
    Every tap exists when the degree reaches M + max|k|, so nothing is
    truncated.
    """
    m = window.bandwidth
    need = m + int(np.max(np.abs(ks)))
    if moll.degree < need:
        raise ValidationError(
            f"mollifier degree {moll.degree} too small: need >= bandwidth + max|k| = {need}"
        )
    js = np.arange(-m, m + 1)
    turned = window.coeffs * np.exp(1j * js * moll.center)
    taps = moll.centered_coeffs[np.abs(ks[:, None] - js)]
    return np.exp(-1j * ks * moll.center) * (taps @ turned)


# ---------------------------------------------------------------------------
# full reconstruction
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionResult:
    """Recovered jump data plus the corrected series of the final approximation."""

    jumps: tuple
    magnitudes: tuple
    corrected: CoefficientWindow
    smoothness: int
    reports: tuple = field(default=())

    def evaluate(self, x):
        """Final approximation at finite x: absorbing part from the estimates
        plus the corrected truncated series.  The jump data is checked, since
        a caller can fill this dataclass; the points are checked once."""
        xs = np.atleast_1d(_points(x))
        values = _absorbing(*_jump_data(self.jumps, self.magnitudes), xs) + _window_series(self.corrected, xs)
        return float(values[0]) if np.isscalar(x) or np.ndim(x) == 0 else values


def reconstruct(window: CoefficientWindow, smoothness: int, num_jumps: int, min_separation: float) -> ReconstructionResult:
    """Recover jump positions, jump magnitudes, and a full-accuracy approximant.

    Pipeline: coarse jump positions from the order-zero transform; per jump,
    one single-node annihilation solve of the d+2 transformed coefficients at
    k = n, 2n, ..., (d+2)n, the small square system solved once with no LM
    polish (each report reads method "annihilation", 1 iteration); synthesis
    of the approximant from the estimated jump data plus the corrected
    series.  With one jump they are the window's own, at
    n = floor(bandwidth / (d+2)): the window is already single-jump and a
    taper would only add contamination.  With more, they are coefficients of
    (signal * mollifier about the coarse position) at
    n = floor(floor(bandwidth / 2) / (d+2)), and only those d+2 are localized,
    each summed directly from the window (never the full `localize` window).

    The corrected series is the window less the estimated jumps' coefficients
    (piecewise_poly_coeffs, unchecked: the estimates are valid by
    construction), computed for k = 1..M only and mirrored by conjugation
    (_jump_window), which is the formula's value at k = -M..-1 bit for bit.

    min_separation must lower-bound the true pairwise jump separation.
    """
    d = _order("smoothness", smoothness)
    k = _integer("num_jumps", num_jumps, 1)
    m = window.bandwidth
    if m < 8 * (d + 2) * k:
        raise ValidationError(
            f"bandwidth {m} too small for d={d}, K={k} (need >= {8 * (d + 2) * k})"
        )
    if not (_finite(min_separation) and 0.0 < min_separation <= 3.0 * math.pi):
        raise ValidationError("min_separation must be in (0, 3*pi]")

    coarse = initial_jump_estimates(window, k)

    estimates = []
    for x0 in coarse:
        n = (m if k == 1 else m // 2) // (d + 2)
        ks = n * np.arange(1, d + 3)
        if k == 1:
            coeffs = window.coeffs[m + ks]
        else:
            moll = build_mollifier(
                center=x0,
                half_width=min_separation / 3.0,
                flat_half_width=min_separation / 9.0,
                degree=m + m // 2,
            )
            coeffs = _localized_coeffs(window, moll, ks)
        sub = SampleSet(SamplingScheme(n, n, d + 2), _transform(coeffs, d, ks), 0.0)
        node_model, report = decimated_solve(
            sub, (d + 1,), [wrap_angle(-x0)], base_solver="annihilation", refine=False
        )
        x_hat = position_from_node(node_model.nodes[0])
        mags = magnitudes_from_coefficients(node_model.coefficients[0], d)
        estimates.append((x_hat, mags, report))

    # a position may wrap past -pi, so each report moves with its jump
    estimates.sort(key=lambda estimate: estimate[0])
    jumps_hat = tuple(x for x, _, _ in estimates)
    mags_hat = tuple(
        tuple(float(estimates[j][1][l]) for j in range(k)) for l in range(d + 1)
    )

    corrected = window.coeffs - _jump_window(np.array(jumps_hat), np.array(mags_hat), m)

    return ReconstructionResult(
        jumps=jumps_hat,
        magnitudes=mags_hat,
        corrected=CoefficientWindow(corrected, m),
        smoothness=d,
        reports=tuple(report for _, _, report in estimates),
    )


def sup_error_away(
    signal: PiecewiseSignal,
    result: ReconstructionResult,
    exclusion_radius: float,
    grid_size: int,
) -> float:
    """Max |f - f_hat| on the uniform grid x_j = -pi + 2pi j / grid_size, away
    from the true jumps; both smooth series take one FFT of their difference,
    folded by `_grid_series` from two runs: 2 psi_k for k = 1..psi_degree,
    then -corrected_k for k = -M..M.

    The signal's side depends only on (signal, grid_size, radius), so it is
    memoised on the signal, one entry (_signal_on_grid): the grid, the kept
    points, f's absorbing part, psi_0 and the psi run's folded bins.  The
    first call fills it; later calls fold only the corrected run after the
    stored bins, which for grid_size >= 2 gives the bits of folding both."""
    if not (_finite(exclusion_radius) and exclusion_radius > 0):
        raise ValidationError(f"exclusion radius must be finite and positive, got {_shown(exclusion_radius)}")
    n = _integer("grid_size", grid_size, 1)
    grid, keep, absorbing, psi0, psi_bins = _signal_on_grid(signal, n, float(exclusion_radius))
    corrected = result.corrected
    diff = (
        absorbing
        - _absorbing(*_jump_data(result.jumps, result.magnitudes), grid)
        + psi0
        + _grid_series([(-corrected.bandwidth, -corrected.coeffs)], n, psi_bins).real
    )
    return float(np.max(np.abs(diff[keep])))


def _signal_on_grid(signal: PiecewiseSignal, n: int, rho: float) -> tuple:
    """(grid, keep mask, f's absorbing part, psi_0, psi run's bins) of
    sup_error_away, read-only, from the signal's one-entry memo or computed
    into it.  A radius that removes every grid point raises and stores nothing."""
    key = (n, rho)
    entry = signal._grid_memo.get(key)
    if entry is None:
        grid = -math.pi + TWO_PI * np.arange(n) / n
        keep = np.ones(n, dtype=bool)
        for xj in signal.jumps:
            delta = np.abs(np.mod(grid - xj + math.pi, TWO_PI) - math.pi)
            keep &= delta > rho
        if not np.any(keep):
            raise ValidationError("exclusion radius removed every grid point")
        # f's smooth part is psi_0 + sum_{n >= 1} Re(2 psi_n e^{inx})
        psi = signal._psi_array
        absorbing = _absorbing(np.array(signal.jumps), np.array(signal.magnitudes), grid)
        psi_bins = _fold([(1, 2.0 * psi[1:])], n)
        for array in (grid, keep, absorbing, psi_bins):
            array.flags.writeable = False
        entry = (grid, keep, absorbing, psi[0].real, psi_bins)
        signal._grid_memo.clear()
        signal._grid_memo[key] = entry
    return entry


# ---------------------------------------------------------------------------
# synthetic signals
# ---------------------------------------------------------------------------

def _draw_psi(smoothness: int, decay: float, degree: int, rng) -> np.ndarray:
    """Smooth-part coefficients r_n * n^(-d-2) * exp(i phi_n) with random
    amplitudes r_n in [0, decay) and phases, plus a random real mean.

    The stream is one draw for the mean, then r_1, phi_1, r_2, phi_2, ... in
    turn, read as one (degree, 2) block.  Each coefficient is bit for bit the
    scalar r * float(n) ** (-d - 2) * cmath.exp(1j * phi): np.float_power,
    np.cos and np.sin round as libm's pow, cos and sin do (np.power does not),
    and the product is CPython's float times complex, whose 0.0 * sin and
    0.0 * cos terms set the signs of zeros when decay is 0.
    """
    _check_level(decay, "decay")
    d, degree = _order("smoothness", smoothness), _integer("psi_degree", degree)
    mean = decay * (2.0 * rng.random() - 1.0)
    u = rng.random((degree, 2))
    amp = decay * u[:, 0] * np.float_power(np.arange(1, degree + 1), float(-d - 2))
    phi = TWO_PI * u[:, 1]
    cos, sin = np.cos(phi), np.sin(phi)
    coeffs = np.empty(degree + 1, dtype=complex)
    coeffs[0] = mean
    coeffs.real[1:] = amp * cos - 0.0 * sin
    coeffs.imag[1:] = amp * sin + 0.0 * cos
    return coeffs


def random_piecewise_signal(
    smoothness: int,
    num_jumps: int,
    seed: int,
    min_separation: float = 1.5,
    base_magnitude_range=(2.0, 4.0),
    higher_magnitude_scale: float = 0.5,
    psi_decay: float = 1.0,
    psi_degree: int = 4096,
) -> PiecewiseSignal:
    """Seeded random signal with certified jump separation and magnitude floor."""
    d = _order("smoothness", smoothness)
    k = _integer("num_jumps", num_jumps, 1)
    rng = np.random.default_rng(_integer("seed", seed))
    for name, value in (("min_separation", min_separation), ("psi_decay", psi_decay),
                        ("higher_magnitude_scale", higher_magnitude_scale)):
        _check_level(value, name)
    magnitude_range = _finite_array(base_magnitude_range, "base_magnitude_range", float)
    if magnitude_range.shape != (2,):
        raise ValidationError(f"base_magnitude_range must be a pair, got {_shown(base_magnitude_range)}")
    if k * min_separation >= TWO_PI:
        raise ValidationError("cannot place the jumps with that separation")
    jumps = _circle_angles(rng, k, min_separation)

    lo, hi = magnitude_range.tolist()
    signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
    base = signs * rng.uniform(lo, hi, size=k)
    magnitudes = [tuple(float(a) for a in base)]
    for _ in range(d):
        row = rng.uniform(-higher_magnitude_scale, higher_magnitude_scale, size=k)
        magnitudes.append(tuple(float(a) for a in row))

    return PiecewiseSignal(
        smoothness=d,
        jumps=tuple(float(x) for x in jumps),
        magnitudes=tuple(magnitudes),
        psi_coeffs=_draw_psi(d, psi_decay, psi_degree, rng),
        psi_decay=psi_decay,
    )


# ---------------------------------------------------------------------------
# window file format: one line per k from -M to M, "k re im"
# ---------------------------------------------------------------------------

def write_window_file(window: CoefficientWindow, path) -> None:
    m, coeffs = window.bandwidth, window.coeffs
    text = "".join(
        f"{k} {re!r} {im!r}\n"
        for k, re, im in zip(range(-m, m + 1), coeffs.real.tolist(), coeffs.imag.tolist())
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_window_file(path) -> CoefficientWindow:
    with warnings.catch_warnings():
        # an empty file is reported below, not as numpy's "no data" warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            with open(path, encoding="ascii") as fh:  # numpy's parser may crash on non-ASCII
                rows = np.loadtxt(fh, dtype=[("k", "i8"), ("re", "f8"), ("im", "f8")],
                                  comments=None, ndmin=1)
        except ValueError as exc:
            raise ValidationError(f"bad window line: {str(exc).split(';')[0]}") from None
    if not len(rows):
        raise ValidationError("empty window file")
    order = np.argsort(rows["k"], kind="stable")
    m = int(rows["k"].max())
    if len(rows) != 2 * m + 1 or not np.array_equal(rows["k"][order], np.arange(-m, m + 1)):
        raise ValidationError("window file must cover every k from -M to M exactly once")
    arr = np.empty(len(rows), dtype=complex)
    arr.real, arr.imag = rows["re"][order], rows["im"][order]
    return CoefficientWindow(arr, m)
