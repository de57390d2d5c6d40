"""Standalone property suite.

Each check_* function raises AssertionError on violation; the acceptance module
reuses them, and the thin test wrappers below make the suite runnable on its
own.  Randomized checks use hypothesis where the draw space is simple and
seeded numpy sweeps where model construction is involved.
"""

import cmath
import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pronydec import (
    CoefficientWindow,
    PronyModel,
    SamplingScheme,
    ValidationError,
    build_mollifier,
    circle_distance,
    decimated_solve,
    evaluate_moments,
    jacobian,
    match_estimates,
    prony_hankel_solve,
    random_piecewise_signal,
    read_window_file,
    reconstruct,
    signal_coeffs,
    undecimate_node,
    wrap_position,
)
from pronydec.model import model_from_dict, samples_from_dict, signal_from_dict
from pronydec.sweeps import SweepConfig

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


# ---------------------------------------------------------------------------
# circle geometry
# ---------------------------------------------------------------------------

@given(ANGLES, ANGLES)
def test_circle_distance_symmetric_and_bounded(x, y):
    d = circle_distance(x, y)
    assert 0.0 <= d <= math.pi + 1e-12
    assert d == pytest.approx(circle_distance(y, x), abs=1e-12)


@given(ANGLES, ANGLES, ANGLES)
def test_circle_distance_triangle_inequality(x, y, z):
    assert circle_distance(x, z) <= circle_distance(x, y) + circle_distance(y, z) + 1e-9


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5))
def test_unknown_count_identity(mults):
    nodes = [cmath.exp(1j * (0.1 + 1.1 * j)) for j in range(len(mults))]
    coeffs = [[1.0] * m for m in mults]
    model = PronyModel(nodes, mults, coeffs)
    assert model.unknown_count == model.poly_order + model.num_nodes


def check_match_self_is_zero(seed=0, trials=20):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        k = int(rng.integers(1, 5))
        mults = [int(m) for m in rng.integers(1, 4, size=k)]
        nodes = [cmath.exp(1j * a) for a in rng.uniform(-math.pi, math.pi, k)]
        coeffs = [[complex(*rng.normal(size=2)) for _ in range(m)] for m in mults]
        model = PronyModel(nodes, mults, coeffs)
        res = match_estimates(model, model)
        assert res.max_node_error == 0.0
        assert res.max_coeff_error == 0.0


def test_match_self_is_zero():
    check_match_self_is_zero()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, 2]), ANGLES, ANGLES), min_size=1, max_size=6),
       st.data())
def test_match_cost_is_brute_force_minimum(nodes, data):
    order = data.draw(st.permutations(range(len(nodes))))

    def model(args, mults):
        return PronyModel([cmath.exp(1j * a) for a in args], mults, [[1.0] * m for m in mults])

    truth = model([t for _, t, _ in nodes], [m for m, _, _ in nodes])
    est = model([nodes[j][2] for j in order], [nodes[j][0] for j in order])
    t, e, k = truth.node_args, est.node_args, len(nodes)
    brute = min(
        sum(circle_distance(e[perm[i]], t[i]) for i in range(k))
        for perm in itertools.permutations(range(k))
        if all(est.multiplicities[perm[i]] == truth.multiplicities[i] for i in range(k))
    )
    assert sum(match_estimates(est, truth).node_errors) == pytest.approx(brute, abs=1e-12)


# ---------------------------------------------------------------------------
# decimation identity and branch exactness
# ---------------------------------------------------------------------------

def check_decimation_identity(seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        args = np.sort(rng.uniform(-math.pi, math.pi, size=2))
        if circle_distance(args[0], args[1]) < 0.5:
            continue
        truth = PronyModel(
            [cmath.exp(1j * a) for a in args], [1, 1],
            [[complex(*rng.normal(size=2))], [complex(*rng.normal(size=2))]],
        )
        samples = evaluate_moments(truth, SamplingScheme(0, 1, 8))
        base, _ = prony_hankel_solve(samples, (1, 1))
        piped, _ = decimated_solve(samples, (1, 1), base_solver="hankel", refine=False)
        assert piped.nodes == base.nodes
        assert piped.coefficients == base.coefficients


def test_decimation_identity():
    check_decimation_identity()


@settings(max_examples=200, deadline=None)
@given(
    ANGLES,
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=-0.95, max_value=0.95),
)
def test_branch_exactness(x, p, eta_scale):
    hint = x + eta_scale * math.pi / p
    w = cmath.exp(1j * p * x)
    z = undecimate_node(w, p, hint)
    assert circle_distance(cmath.phase(z), x) < 1e-9


def check_branch_exactness_all_strides(seed=0):
    rng = np.random.default_rng(seed)
    for p in range(1, 65):
        for _ in range(10):
            x = rng.uniform(-math.pi, math.pi)
            eta = rng.uniform(-0.9, 0.9) * math.pi / p
            z = undecimate_node(cmath.exp(1j * p * x), p, x + eta)
            assert circle_distance(cmath.phase(z), x) < 1e-9


def test_branch_exactness_all_strides():
    check_branch_exactness_all_strides()


# ---------------------------------------------------------------------------
# jacobian vs finite differences
# ---------------------------------------------------------------------------

def check_jacobian_finite_differences(seed=0, trials=5, rel_tol=1e-5):
    rng = np.random.default_rng(seed)
    h = 1e-6
    for _ in range(trials):
        k = int(rng.integers(1, 3))
        mults = [int(m) for m in rng.integers(1, 3, size=k)]
        args = rng.uniform(-math.pi, math.pi, size=k)
        coeffs = [
            [complex(*rng.normal(size=2)) + 0.5 for _ in range(m)] for m in mults
        ]
        model = PronyModel([cmath.exp(1j * a) for a in args], mults, coeffs)
        scheme = SamplingScheme(int(rng.integers(0, 4)), int(rng.integers(1, 4)), 6)
        jac = jacobian(model, scheme)

        def moments(nodes, cs):
            return np.asarray(evaluate_moments(PronyModel(nodes, mults, cs), scheme).values)

        col = 0
        for j, m in enumerate(mults):
            for l in range(m):
                cp = [list(r) for r in coeffs]
                cm = [list(r) for r in coeffs]
                cp[j][l] += h
                cm[j][l] -= h
                fd = (moments(model.nodes, cp) - moments(model.nodes, cm)) / (2 * h)
                scale = np.max(np.abs(jac[:, col])) + 1.0
                assert np.max(np.abs(fd - jac[:, col])) / scale < rel_tol
                col += 1
            ap = list(model.nodes)
            am = list(model.nodes)
            ap[j] = cmath.exp(1j * (args[j] + h))
            am[j] = cmath.exp(1j * (args[j] - h))
            fd = (moments(ap, coeffs) - moments(am, coeffs)) / (2 * h)
            analytic = jac[:, col] * (1j * model.nodes[j])
            scale = np.max(np.abs(analytic)) + 1.0
            assert np.max(np.abs(fd - analytic)) / scale < rel_tol
            col += 1


def test_jacobian_finite_differences():
    check_jacobian_finite_differences()


# ---------------------------------------------------------------------------
# mollifier modulation law
# ---------------------------------------------------------------------------

def check_mollifier_modulation(tol=1e-12):
    base = build_mollifier(0.0, 0.6, 0.2, 48)
    for tau in (0.3, -1.7, 2.9):
        shifted = build_mollifier(tau, 0.6, 0.2, 48)
        for n in range(-48, 49):
            want = cmath.exp(-1j * n * tau) * base.coeff(n)
            assert abs(shifted.coeff(n) - want) < tol


def test_mollifier_modulation():
    check_mollifier_modulation()


# ---------------------------------------------------------------------------
# translation equivariance of reconstruction
# ---------------------------------------------------------------------------

def check_translation_equivariance(jump_tol=1e-8, mag_tol=1e-6):
    sig = random_piecewise_signal(1, 2, seed=6, min_separation=1.6,
                                  base_magnitude_range=(3.0, 5.0),
                                  psi_decay=1.0, psi_degree=2048)
    m = 256
    tau = 0.37
    window = signal_coeffs(sig, m)
    ks = np.arange(-m, m + 1)
    rotated = CoefficientWindow(window.coeffs * np.exp(-1j * ks * tau), m)
    base = reconstruct(window, 1, 2, 1.5)
    shifted = reconstruct(rotated, 1, 2, 1.5)
    expected = sorted(
        (wrap_position(x + tau), tuple(row[j] for row in base.magnitudes))
        for j, x in enumerate(base.jumps)
    )
    got = [
        (x, tuple(row[j] for row in shifted.magnitudes))
        for j, x in enumerate(shifted.jumps)
    ]
    for (xe, me), (xg, mg) in zip(expected, got):
        assert circle_distance(xg, xe) < jump_tol
        for a, b in zip(me, mg):
            assert abs(a - b) < mag_tol


def test_translation_equivariance():
    check_translation_equivariance()


# ---------------------------------------------------------------------------
# scale equivariance of solvers
# ---------------------------------------------------------------------------

def check_scale_equivariance(seed=41):
    from pronydec import SampleSet, esprit_solve

    rng = np.random.default_rng(seed)
    args = [-1.8, 0.4]
    truth = PronyModel(
        [cmath.exp(1j * a) for a in args], [1, 1],
        [[complex(*rng.normal(size=2))], [complex(*rng.normal(size=2))]],
    ).canonical()
    samples = evaluate_moments(truth, SamplingScheme(0, 1, 8))
    for scale in (2.0, 1.0j):
        scaled = SampleSet(samples.scheme, [scale * v for v in samples.values], 0.0)
        for solver in (lambda s: prony_hankel_solve(s, (1, 1)), lambda s: esprit_solve(s, 2)):
            base, _ = solver(samples)
            other, _ = solver(scaled)
            res = match_estimates(other, base)
            assert res.max_node_error < 1e-10
            for j in range(2):
                matched = other.coefficients[res.assignment[j]][0]
                assert abs(matched - scale * base.coefficients[j][0]) < 1e-9


def test_scale_equivariance():
    check_scale_equivariance()


# ---------------------------------------------------------------------------
# conjugate symmetry of real-signal windows
# ---------------------------------------------------------------------------

def check_real_window_symmetry(seed=0, trials=10):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        d = int(rng.integers(0, 3))
        k = int(rng.integers(1, 3))
        sig = random_piecewise_signal(d, k, seed=int(rng.integers(0, 10**6)))
        window = signal_coeffs(sig, 48)
        flipped = np.conj(window.coeffs[::-1])
        assert float(np.max(np.abs(window.coeffs - flipped))) < 1e-12


def test_real_window_symmetry():
    check_real_window_symmetry()


# ---------------------------------------------------------------------------
# boundary loaders: malformed and non-finite input is a ValidationError
# ---------------------------------------------------------------------------

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])

#: JSON-like values: non-finite floats, integers beyond float range, nesting
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -10**400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

_LOADER_INPUTS = {
    model_from_dict: {
        "nodes": [0.7, -1.1], "multiplicities": [2, 1],
        "coefficients": [[[1.0, 0.5], [0.25, -2.0]], [[3.0, 0.0]]],
    },
    samples_from_dict: {
        "scheme": {"offset": 1, "stride": 2, "count": 3},
        "values": [[1.0, 0.0], [0.5, -0.5], [0.0, 2.0]], "noise_level": 1e-6,
    },
    signal_from_dict: {
        "smoothness": 1, "jumps": [-1.0, 1.5], "magnitudes": [[2.0, -3.0], [0.5, 0.25]],
        "psi_coeffs": [[0.5, 0.0], [0.1, 0.2]], "psi_decay": 1.0,
    },
    SweepConfig.from_dict: {
        "kind": "fourier-convergence", "seeds": [0, 1], "m_values": [64, 128, 256],
        "signal": {"smoothness": 1, "num_jumps": 2, "min_separation": 1.6,
                   "base_magnitude_range": [3.0, 5.0], "reconstruction_separation": 1.5},
        "noise": 0.0, "exclusion_radius": 0.1, "grid_size": 64, "workers": 1,
    },
}
LOADERS = list(_LOADER_INPUTS)


def _paths(data, numeric):
    """Paths (key tuples) to every value of the JSON-like data, the whole of
    it included, or with numeric=True to its numbers only."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        items = ()
    own = not numeric or (isinstance(data, (int, float)) and not isinstance(data, bool))
    paths = [()] if own else []
    for key, value in items:
        paths += [(key,) + path for path in _paths(value, numeric)]
    return paths


def _replaced(data, path, value):
    if not path:
        return value
    out = copy.copy(data)
    out[path[0]] = _replaced(data[path[0]], path[1:], value)
    return out


@pytest.mark.parametrize("load", LOADERS, ids=lambda f: f.__qualname__)
def test_loader_inputs_are_valid(load):
    load(_LOADER_INPUTS[load])


@pytest.mark.parametrize("load", LOADERS, ids=lambda f: f.__qualname__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_rejects_only_with_validation_error(load, data):
    """Any one value (or a whole subtree) replaced by junk: the loader returns
    or raises ValidationError, never another exception."""
    base = _LOADER_INPUTS[load]
    path = data.draw(st.sampled_from(_paths(base, numeric=False)))
    try:
        load(_replaced(base, path, data.draw(JUNK)))
    except ValidationError:
        pass


@pytest.mark.parametrize("load", LOADERS, ids=lambda f: f.__qualname__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loader_rejects_nonfinite_numbers(load, data):
    """Every number in these inputs must be finite: NaN or an infinity in
    any numeric field is a ValidationError."""
    base = _LOADER_INPUTS[load]
    path = data.draw(st.sampled_from(_paths(base, numeric=True)))
    with pytest.raises(ValidationError):
        load(_replaced(base, path, data.draw(NONFINITE)))


_WINDOW_TEXT = "".join(f"{k} {1.0 / (1 + abs(k))!r} {0.1 * k!r}\n" for k in range(-3, 4))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_window_file_rejects_corrupted_text(tmp_path_factory, data):
    """A window file with one token or line replaced by arbitrary text (or
    bytes), or cut short: read_window_file returns or raises ValidationError."""
    lines = _WINDOW_TEXT.splitlines(keepends=True)
    row = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[row].split()
    how = data.draw(st.sampled_from(["token", "line", "bytes", "cut"]))
    if how == "token":
        tokens[data.draw(st.integers(0, 2))] = data.draw(st.text(min_size=1, max_size=6) | st.sampled_from(
            ["nan", "inf", "-inf", "1e400", str(10**30), "0x1", "1j"]))
        lines[row] = " ".join(tokens) + "\n"
    elif how == "line":
        lines[row] = data.draw(st.text(max_size=12))
    text = "".join(lines).encode("utf-8", "surrogatepass")
    if how == "bytes":
        text = text[:row * 5] + data.draw(st.binary(min_size=1, max_size=6)) + text[row * 5:]
    elif how == "cut":
        text = text[:data.draw(st.integers(0, len(text)))]
    path = tmp_path_factory.getbasetemp() / "corrupted_window.txt"
    path.write_bytes(text)
    try:
        read_window_file(path)
    except ValidationError:
        pass


#: anything but an integer: a float (2.0 included), a bool, a string
NOT_INTEGERS = st.floats() | st.booleans() | st.text(max_size=4)

#: the loader inputs, the sweep config with the decimation fields a Fourier
#: config leaves at their defaults
_FULL_INPUTS = {**_LOADER_INPUTS, SweepConfig.from_dict: {
    **_LOADER_INPUTS[SweepConfig.from_dict], "p_values": [1, 2], "count": 8, "top_index": 64}}

_INTEGER_FIELDS = [
    (model_from_dict, ("multiplicities", 0)),
    (samples_from_dict, ("scheme", "offset")),
    (samples_from_dict, ("scheme", "stride")),
    (samples_from_dict, ("scheme", "count")),
    (signal_from_dict, ("smoothness",)),
    *((SweepConfig.from_dict, path) for path in [
        ("seeds", 1), ("p_values", 0), ("m_values", 2), ("count",), ("top_index",),
        ("grid_size",), ("workers",)]),
]

_LIST_FIELDS = [
    (model_from_dict, ("nodes",)),
    (model_from_dict, ("multiplicities",)),
    (model_from_dict, ("coefficients",)),
    (model_from_dict, ("coefficients", 0)),
    (model_from_dict, ("coefficients", 0, 1)),
    (samples_from_dict, ("values",)),
    (samples_from_dict, ("values", 2)),
    (signal_from_dict, ("jumps",)),
    (signal_from_dict, ("magnitudes",)),
    (signal_from_dict, ("magnitudes", 1)),
    (signal_from_dict, ("psi_coeffs",)),
    (signal_from_dict, ("psi_coeffs", 0)),
    (SweepConfig.from_dict, ("seeds",)),
    (SweepConfig.from_dict, ("p_values",)),
    (SweepConfig.from_dict, ("m_values",)),
]


def _field_id(case):
    load, path = case
    return f"{load.__qualname__}:{'.'.join(map(str, path))}"


@pytest.mark.parametrize("case", _INTEGER_FIELDS, ids=_field_id)
@settings(max_examples=40, deadline=None)
@given(value=NOT_INTEGERS)
def test_loader_rejects_non_integer_in_integer_field(case, value):
    """A count, stride, offset, smoothness, multiplicity or seed is an
    integer: never truncated from a float, taken from a bool or parsed."""
    load, path = case
    load(_FULL_INPUTS[load])
    with pytest.raises(ValidationError):
        load(_replaced(_FULL_INPUTS[load], path, value))


@pytest.mark.parametrize("case", _LIST_FIELDS, ids=_field_id)
@settings(max_examples=40, deadline=None)
@given(value=st.text(max_size=4))
def test_loader_rejects_string_for_list(case, value):
    """A string is not a list, not even one of digits."""
    load, path = case
    with pytest.raises(ValidationError):
        load(_replaced(_FULL_INPUTS[load], path, value))
