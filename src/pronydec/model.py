"""Shared domain types: Prony models, sampling schemes, sample sets, piecewise signals.

Angle convention: a node z on the unit circle and a jump position x are related
by z = exp(-i*x).  All conversions go through node_from_position /
position_from_node so the sign never drifts.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

#: tolerance for the unit-modulus node invariant
UNIT_MODULUS_TOL = 1e-12


class PronydecError(Exception):
    """Base class for all library errors."""


class ValidationError(PronydecError, ValueError):
    """Invalid input: broken invariant or violated precondition."""


class SolverError(PronydecError, RuntimeError):
    """A solve failed for numerical reasons (degenerate data, no usable root, ...)."""


class RankDeficiencyError(SolverError):
    """Linear system numerically rank-deficient."""

    def __init__(self, message, smallest_singular_value=None, condition=None):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value
        self.condition = condition


class AmbiguousBranchError(SolverError):
    """Branch selection (root-of-unity disambiguation) had no clear winner."""


class QuadratureError(SolverError):
    """Adaptive quadrature failed to reach the requested accuracy."""


def _finite(value) -> bool:
    """A real number of finite size: abs(value) <= the largest float, which a NaN fails; not
    math.isfinite, which overflows on an integer beyond float range and raises on a string."""
    return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max


def _finite_array(values, what: str, dtype=complex) -> np.ndarray:
    """A sequence of numbers of finite size (_finite; complex ones by modulus)
    as a new 1-d array of `dtype`, complex or float.  The values are checked
    before they are converted, so a string is never parsed, a complex number
    never becomes a float and an integer past float range never overflows;
    any of these is the ValidationError "<what> must be finite"."""
    kinds, kind_abc = ("biufc", numbers.Complex) if dtype is complex else ("biuf", numbers.Real)
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nesting, which fails the 1-d test below
        array = np.empty((0, 0))
    if array.dtype == object and array.ndim == 1:
        ok = all(isinstance(v, kind_abc) and _finite(abs(v)) for v in array.tolist())
    else:
        ok = array.ndim == 1 and array.dtype.kind in kinds
    if ok:
        array = array.astype(dtype)
        ok = np.isfinite(array).all()
    if not ok:
        raise ValidationError(f"{what} must be finite")
    return array


def _check_level(value: float, name: str) -> float:
    """A noise or error level, a decay, a scale or a gap: a finite (_finite) nonnegative number."""
    if not (_finite(value) and value >= 0):
        raise ValidationError(f"{name} must be finite and nonnegative, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """repr(value) for a message, or its type where repr raises (an int past
    Python's 4,300-digit conversion limit, or anything holding one)."""
    try:
        return repr(value)
    except Exception:
        return f"<{type(value).__name__} too large to print>"


def _integer(name: str, value, minimum: int = 0) -> int:
    """A count, stride, order or seed: an integer (not a bool) of at least
    `minimum`, never truncated from a float or parsed from a string."""
    # plain ints skip the ABC check: it is several times slower, and every model and scheme built runs this
    integral = type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    return int(value)


#: largest smoothness, or derivative order of a jump: the absorbing basis V_l
#: divides by (l + 1)!, and 171! is past float range
MAX_ORDER = 169


def _order(name: str, value) -> int:
    """A smoothness or jump order: an integer (_integer) in [0, MAX_ORDER]."""
    value = _integer(name, value)
    if value > MAX_ORDER:
        raise ValidationError(f"{name} must be at most {MAX_ORDER}, got {_shown(value)}")
    return value


# ---------------------------------------------------------------------------
# circle geometry
# ---------------------------------------------------------------------------

def circle_distance(x: float, y: float) -> float:
    """Distance between two angles on the circle: min over n of |x - y + 2*pi*n|."""
    d = (x - y) % TWO_PI
    return min(d, TWO_PI - d)


def wrap_angle(x: float) -> float:
    """Wrap an angle into the canonical interval (-pi, pi]."""
    a = x % TWO_PI
    if a > math.pi:
        a -= TWO_PI
    return a


def wrap_position(x: float) -> float:
    """Wrap a jump position into [-pi, pi)."""
    a = (x + math.pi) % TWO_PI - math.pi
    return a


def _circle_angles(rng, count: int, min_gap: float) -> np.ndarray:
    """Sorted uniform angles on [-pi, pi), redrawn until every circle gap
    (the wrap-around gap included) reaches min_gap."""
    for _ in range(1000):
        angles = np.sort(rng.uniform(-math.pi, math.pi, size=count))
        gaps = np.diff(angles).tolist() + [TWO_PI - (angles[-1] - angles[0])]
        if count == 1 or min(gaps) >= min_gap:
            return angles
    raise ValidationError(f"could not place {count} angles with circle gaps >= {min_gap}")


def node_from_position(x: float) -> complex:
    """Unit node encoding the jump position x, z = exp(-i*x)."""
    return cmath.exp(-1j * x)


def position_from_node(z: complex) -> float:
    """Jump position encoded by a unit node, x = -arg(z), wrapped into [-pi, pi)."""
    return wrap_position(-cmath.phase(z))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PronyModel:
    """Nodes on the unit circle with multiplicities and polynomial amplitudes.

    The model parameterizes the measurement sequence
    m_k = sum_j z_j^k * sum_{l=0}^{mult_j - 1} c_{l,j} * k^l.

    nodes[j] must have unit modulus (tolerance UNIT_MODULUS_TOL);
    coefficients[j] holds (c_{0,j}, ..., c_{mult_j-1,j}).
    """

    nodes: tuple
    multiplicities: tuple
    coefficients: tuple

    def __post_init__(self):
        nodes = tuple(_finite_array(self.nodes, "nodes").tolist())
        mults = tuple(_integer("multiplicities", m, 1) for m in self.multiplicities)
        rows = tuple(self.coefficients)
        try:  # one check for all rows; a row that is not 1-d, or strings beside numbers, fail it
            flat = np.concatenate(rows) if rows else ()
        except (ValueError, TypeError):
            flat = None
        flat = _finite_array(flat, "coefficients").tolist()
        ends = list(itertools.accumulate(map(len, rows)))
        coeffs = tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "multiplicities", mults)
        object.__setattr__(self, "coefficients", coeffs)
        if len(nodes) < 1:
            raise ValidationError("model needs at least one node")
        if not (len(nodes) == len(mults) == len(coeffs)):
            raise ValidationError("nodes, multiplicities, coefficients must align")
        for z in nodes:
            # written so that a NaN modulus fails the test too
            if not abs(abs(z) - 1.0) <= UNIT_MODULUS_TOL:
                raise ValidationError(f"node {z!r} is off the unit circle")
        for m, row in zip(mults, coeffs):
            if len(row) != m:
                raise ValidationError("coefficient list length must equal the multiplicity")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def unknown_count(self) -> int:
        """Number of unknowns: sum of (multiplicity + 1) over nodes."""
        return sum(m + 1 for m in self.multiplicities)

    @property
    def poly_order(self) -> int:
        """Degree of the annihilating polynomial: sum of multiplicities."""
        return sum(self.multiplicities)

    @property
    def node_args(self) -> tuple:
        return tuple(cmath.phase(z) for z in self.nodes)

    def leading_coefficients(self) -> tuple:
        return tuple(row[-1] for row in self.coefficients)

    def canonical(self) -> "PronyModel":
        """Reorder nodes by ascending argument in (-pi, pi]."""
        order = sorted(range(self.num_nodes), key=lambda j: wrap_angle(cmath.phase(self.nodes[j])))
        return PronyModel(
            tuple(self.nodes[j] for j in order),
            tuple(self.multiplicities[j] for j in order),
            tuple(self.coefficients[j] for j in order),
        )


def _random_model(rng, num_nodes: int, min_gap: float) -> PronyModel:
    """Canonical random simple-node model: angles from _circle_angles, then
    per node an amplitude r*exp(i*phi), r uniform on [0.5, 2), phi on [0, 2*pi)."""
    count = _integer("num_nodes", num_nodes, 1)
    angles = _circle_angles(rng, count, _check_level(min_gap, "min_separation"))
    coeffs = tuple(
        (complex(rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, TWO_PI))),)
        for _ in angles
    )
    nodes = tuple(cmath.exp(1j * a) for a in angles)
    return PronyModel(nodes, (1,) * len(nodes), coeffs).canonical()


@dataclass(frozen=True)
class SamplingScheme:
    """Arithmetic-progression index set {offset, offset+stride, ...} of given count."""

    offset: int
    stride: int
    count: int

    def __post_init__(self):
        for name, minimum in (("offset", 0), ("stride", 1), ("count", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))

    @property
    def indices(self) -> tuple:
        return tuple(self.offset + s * self.stride for s in range(self.count))


@dataclass(frozen=True)
class SampleSet:
    """Complex measurement values bound to a sampling scheme.

    values stays a tuple (equality, hash, JSON); _array holds the same values
    as a read-only complex array for the solvers, and takes no part in
    equality, hash or repr (as PiecewiseSignal._psi_array).
    """

    scheme: SamplingScheme
    values: tuple
    noise_level: float = 0.0
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        array = _finite_array(self.values, "sample values")
        array.flags.writeable = False
        object.__setattr__(self, "values", tuple(array.tolist()))
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "noise_level", float(_check_level(self.noise_level, "noise_level")))
        if len(self.values) != self.scheme.count:
            raise ValidationError("values length must equal the scheme count")


@dataclass(frozen=True)
class PiecewiseSignal:
    """A piecewise-smooth periodic function on [-pi, pi).

    Jump positions are strictly increasing; magnitudes[l][j] is the jump of the
    l-th derivative at jumps[j] (real), for 0 <= l <= smoothness.  The smooth
    part is a finite trigonometric series given by its coefficients for
    n = 0..degree (negative n by conjugation; the signal is real).  psi_decay
    certifies |psi_coeffs[n]| <= psi_decay * n^(-smoothness-2) for n >= 1.

    psi_coeffs stays a tuple (equality, hash, JSON); _psi_array holds the same
    coefficients as a read-only complex array for the numeric consumers, and
    takes no part in equality, hash or repr.  Neither does _grid_memo, the
    one-entry memo of fourier.sup_error_away's signal side, which a pickle or
    copy also leaves out: the copy starts with an empty one.
    """

    smoothness: int
    jumps: tuple
    magnitudes: tuple
    psi_coeffs: tuple
    psi_decay: float
    _psi_array: np.ndarray = field(init=False, repr=False, compare=False)
    _grid_memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _order("smoothness", self.smoothness)
        jumps = tuple(_finite_array(self.jumps, "jump positions", float).tolist())
        what = "jump magnitudes and smooth-part coefficients"
        mags = tuple(tuple(_finite_array(row, what, float).tolist()) for row in self.magnitudes)
        array = _finite_array(self.psi_coeffs, what)
        array.flags.writeable = False
        psi = tuple(array.tolist())
        object.__setattr__(self, "smoothness", d)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "psi_coeffs", psi)
        object.__setattr__(self, "psi_decay", float(_check_level(self.psi_decay, "psi_decay")))
        object.__setattr__(self, "_psi_array", array)
        object.__setattr__(self, "_grid_memo", {})
        if len(jumps) < 1:
            raise ValidationError("at least one jump is required")
        for x in jumps:
            if not (-math.pi <= x < math.pi):
                raise ValidationError("jump positions must lie in [-pi, pi)")
        if any(b <= a for a, b in zip(jumps, jumps[1:])):
            raise ValidationError("jump positions must be strictly increasing")
        if self.min_separation <= 0:
            raise ValidationError("jump positions must be distinct on the circle")
        if len(mags) != d + 1 or any(len(row) != len(jumps) for row in mags):
            raise ValidationError("magnitudes must be a (smoothness+1) x K matrix")
        if not psi:
            raise ValidationError("psi_coeffs must contain at least the mean value")
        if abs(array[0].imag) > 1e-12:
            raise ValidationError("mean coefficient of the smooth part must be real")
        ns = np.arange(1, len(psi), dtype=float)
        over = np.flatnonzero(np.abs(array[1:]) > self.psi_decay * ns ** (-d - 2) * (1 + 1e-9))
        if over.size:
            raise ValidationError(
                f"smooth-part coefficient {over[0] + 1} exceeds the certified decay bound"
            )

    def __getstate__(self):
        return {**self.__dict__, "_grid_memo": {}}

    @property
    def psi_degree(self) -> int:
        return len(self.psi_coeffs) - 1

    @property
    def min_separation(self) -> float:
        """Minimal pairwise circle distance between jumps (2*pi for a single jump)."""
        if len(self.jumps) == 1:
            return TWO_PI
        return min(
            circle_distance(a, b) for a, b in itertools.combinations(self.jumps, 2)
        )


@dataclass(frozen=True)
class MatchResult:
    """Best assignment between estimated and true nodes.

    assignment[j] is the index of the estimated node matched to true node j.
    node_errors are circle distances between node arguments; coeff_errors are
    absolute differences per coefficient under that assignment.
    """

    assignment: tuple
    node_errors: tuple
    coeff_errors: tuple

    @property
    def max_node_error(self) -> float:
        return max(self.node_errors)

    @property
    def max_coeff_error(self) -> float:
        return max(max(row) for row in self.coeff_errors)


def _assign_nodes(est_args, est_mults, target_args, target_mults) -> tuple:
    """Pair estimated nodes with targets of equal multiplicity.

    Returns perm with perm[i] the estimate assigned to target i, minimizing the
    total circle distance between est_args[perm[i]] and target_args[i] over
    multiplicity-preserving assignments.  The cost splits by multiplicity
    class; within a class, estimates and targets are sorted by argument
    (mod 2*pi) and the cheapest cyclic shift of that order is taken, the
    lowest shift on a tie.  Some cyclic shift is an optimal min-sum matching
    on the circle (Karp & Li, 1975), so this is exact for every node count.
    """
    if sorted(est_mults) != sorted(target_mults):
        raise ValidationError("the two sides have different multiplicity structures")
    perm = [0] * len(target_args)
    for m in set(target_mults):
        targets = [i for i, mi in enumerate(target_mults) if mi == m]
        by_arg = sorted((j for j, mj in enumerate(est_mults) if mj == m),
                        key=lambda j: est_args[j] % TWO_PI)
        rank = {i: r for r, i in enumerate(sorted(targets, key=lambda i: target_args[i] % TWO_PI))}

        def shifted(s):
            return [by_arg[(rank[i] + s) % len(targets)] for i in targets]

        def cost(s):
            return sum(circle_distance(est_args[j], target_args[i])
                       for i, j in zip(targets, shifted(s)))

        for i, j in zip(targets, shifted(min(range(len(targets)), key=cost))):
            perm[i] = j
    return tuple(perm)


def match_estimates(estimated: PronyModel, truth: PronyModel) -> MatchResult:
    """Match estimated nodes to true nodes, minimizing total circle distance
    over multiplicity-preserving assignments (_assign_nodes); requires the
    same multiplicity structure on both sides, for any node count."""
    t_args = truth.node_args
    e_args = estimated.node_args
    best = _assign_nodes(e_args, estimated.multiplicities, t_args, truth.multiplicities)
    k = truth.num_nodes

    node_errors = tuple(circle_distance(e_args[best[j]], t_args[j]) for j in range(k))
    coeff_errors = tuple(
        tuple(
            abs(ce - ct)
            for ce, ct in zip(estimated.coefficients[best[j]], truth.coefficients[j])
        )
        for j in range(k)
    )
    return MatchResult(tuple(best), node_errors, coeff_errors)


# ---------------------------------------------------------------------------
# serialization (JSON)
# ---------------------------------------------------------------------------
# Models store nodes as angles in radians (the node argument); complex values
# are [re, im] pairs.  Round trips are lossless: floats survive JSON exactly.
# The loaders report a missing key, a wrong type (a string where a list
# belongs, a fraction where an integer does), a bad pair or a number out of
# range (an integer beyond float) as a ValidationError.

def _c2pair(c: complex):
    return [c.real, c.imag]


def _items(value, name: str, length=None):
    """A list field of loader input; a string, a number or a list of the wrong
    length is a TypeError, which the loader reports as malformed data."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise TypeError(f"{name} must be a list{f' of {length}' if length else ''}, got {_shown(value)}")
    return value


def _pair2c(p) -> complex:
    re, im = _items(p, "an [re, im] pair", 2)
    return complex(re, im)


def _loader(load):
    kind = load.__qualname__.removesuffix("from_dict").strip("._")

    @functools.wraps(load)
    def checked(data):
        try:
            return load(data)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed {kind} data ({type(exc).__name__}: {exc})") from None
    return checked


def model_to_dict(model: PronyModel) -> dict:
    return {
        "nodes": [cmath.phase(z) for z in model.nodes],
        "multiplicities": list(model.multiplicities),
        "coefficients": [[_c2pair(c) for c in row] for row in model.coefficients],
    }


@_loader
def model_from_dict(data: dict) -> PronyModel:
    return PronyModel(
        tuple(cmath.exp(1j * a) for a in _items(data["nodes"], "nodes")),
        tuple(_items(data["multiplicities"], "multiplicities")),
        tuple(tuple(_pair2c(c) for c in _items(row, "a coefficient row"))
              for row in _items(data["coefficients"], "coefficients")),
    )


def scheme_to_dict(scheme: SamplingScheme) -> dict:
    return {"offset": scheme.offset, "stride": scheme.stride, "count": scheme.count}


@_loader
def scheme_from_dict(data: dict) -> SamplingScheme:
    return SamplingScheme(data["offset"], data["stride"], data["count"])


def samples_to_dict(samples: SampleSet) -> dict:
    return {
        "scheme": scheme_to_dict(samples.scheme),
        "values": [_c2pair(v) for v in samples.values],
        "noise_level": samples.noise_level,
    }


@_loader
def samples_from_dict(data: dict) -> SampleSet:
    return SampleSet(
        scheme_from_dict(data["scheme"]),
        tuple(_pair2c(v) for v in _items(data["values"], "values")),
        data["noise_level"],
    )


def signal_to_dict(signal: PiecewiseSignal) -> dict:
    return {
        "smoothness": signal.smoothness,
        "jumps": list(signal.jumps),
        "magnitudes": [list(row) for row in signal.magnitudes],
        "psi_coeffs": signal._psi_array.view(float).reshape(-1, 2).tolist(),
        "psi_decay": signal.psi_decay,
    }


@_loader
def signal_from_dict(data: dict) -> PiecewiseSignal:
    return PiecewiseSignal(
        data["smoothness"],
        tuple(_items(data["jumps"], "jumps")),
        tuple(tuple(_items(row, "a magnitudes row")) for row in _items(data["magnitudes"], "magnitudes")),
        tuple(_pair2c(c) for c in _items(data["psi_coeffs"], "psi_coeffs")),
        data["psi_decay"],
    )


def save_json(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer past the 4,300-digit limit
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None
