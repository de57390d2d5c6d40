import cmath
import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import pronydec as pd
from pronydec import (
    CoefficientWindow,
    PiecewiseSignal,
    SamplingScheme,
    ValidationError,
    build_mollifier,
    circle_distance,
    eckhoff_transform,
    evaluate_absorbing,
    evaluate_moments,
    induced_prony_model,
    initial_jump_estimates,
    localize,
    magnitudes_from_coefficients,
    partial_sum,
    piecewise_poly_coeffs,
    random_piecewise_signal,
    reconstruct,
    signal_coeffs,
    sup_error_away,
)
from pronydec import fourier
from pronydec.fourier import (
    QUAD_CERT,
    _grid_series,
    jump_basis_eval,
    read_window_file,
    write_window_file,
)
from pronydec.model import signal_to_dict
from test_acceptance import FOURIER_CONFIGS, FOURIER_M_VALUES


def sawtooth_window(bandwidth):
    """Exact window of f(x) = x: single jump of -2*pi at pi, coefficients i(-1)^k / k."""
    ks = np.arange(1, bandwidth + 1)
    pos = 1j * (-1.0) ** ks / ks
    coeffs = np.zeros(2 * bandwidth + 1, dtype=complex)
    coeffs[bandwidth + 1:] = pos
    coeffs[:bandwidth] = np.conj(pos[::-1])
    return CoefficientWindow(coeffs, bandwidth)


def delta_mollifier(degree):
    """The mollifier identically equal to 1: a delta coefficient sequence."""
    coeffs = np.zeros(degree + 1)
    coeffs[0] = 1.0
    return pd.Mollifier(0.0, degree, coeffs, 0.0)


def psi_at(signal, k):
    """The smooth part's coefficient at index k: psi_|k|, conjugated for k < 0,
    and 0 beyond the stored degree."""
    if abs(k) >= len(signal.psi_coeffs):
        return 0j
    c = signal.psi_coeffs[abs(k)]
    return c.conjugate() if k < 0 else c


SAWTOOTH_JUMPS = [math.pi - 1e-12]  # position domain is [-pi, pi)
SAWTOOTH_MAGS = [[-2 * math.pi]]


class TestPiecewisePolyCoeffs:
    def test_sawtooth_closed_form(self):
        ks = np.arange(1, 201)
        got = piecewise_poly_coeffs([math.pi], SAWTOOTH_MAGS, 0, ks)
        want = 1j * (-1.0) ** ks / ks
        assert np.max(np.abs(got - want)) < 1e-14

    def test_zero_magnitudes(self):
        got = piecewise_poly_coeffs([0.5, -0.5], [[0.0, 0.0], [0.0, 0.0]], 1, [1, 2, 3])
        assert np.all(got == 0)

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            piecewise_poly_coeffs([0.5], [[1.0]], 0, [0, 1])

    def test_magnitude_rows_match_smoothness(self):
        with pytest.raises(ValidationError, match=r"magnitudes must have smoothness\+1 rows"):
            piecewise_poly_coeffs([0.5], [[1.0]], 1, [1, 2])

    def test_two_jump_quadrature_oracle(self):
        # integrate the closed-form absorbing polynomial directly, splitting the
        # domain at the jumps so the quadrature never crosses a discontinuity
        jumps = [-1.2, 0.7]
        mags = [[2.0, -1.5], [0.5, 0.25]]
        d = 1

        def fvalue(x):
            return float(evaluate_absorbing(jumps, mags, np.asarray([x]))[0])

        for k in (3, 7):
            breaks = [-math.pi, *jumps, math.pi]
            re = im = 0.0
            for a, b in zip(breaks[:-1], breaks[1:]):
                re += quad(lambda x: fvalue(x) * math.cos(k * x), a, b, limit=200,
                           epsabs=1e-13)[0]
                im += quad(lambda x: -fvalue(x) * math.sin(k * x), a, b, limit=200,
                           epsabs=1e-13)[0]
            oracle = (re + 1j * im) / (2 * math.pi)
            got = piecewise_poly_coeffs(jumps, mags, d, [k])[0]
            assert abs(got - oracle) < 1e-10

    def test_decay_rate(self):
        # with a nonzero base magnitude, |k * c_k| stays bounded
        ks = np.arange(1, 2001)
        coeffs = piecewise_poly_coeffs([0.3, -2.0], [[1.0, 2.0]], 0, ks)
        assert np.max(np.abs(ks * coeffs)) < 2.0


class TestAbsorbingEvaluation:
    def test_sawtooth_pointwise(self):
        # the absorbing polynomial of the sawtooth's jump data is x itself
        xs = np.linspace(-3.0, 3.0, 41)
        got = evaluate_absorbing([math.pi], SAWTOOTH_MAGS, xs)
        assert np.max(np.abs(got - xs)) < 1e-12

    @pytest.mark.parametrize("d, k", [(0, 1), (1, 2), (2, 1), (0, 3), (3, 2)])
    def test_equals_the_sum_of_basis_functions(self, d, k):
        # one phase per jump serves every order; the terms are added in the
        # order the per-basis loop added them, so the bits agree
        x = -math.pi + 2 * math.pi * np.arange(1024) / 1024
        for seed in range(5):
            sig = random_piecewise_signal(d, k, seed=seed, min_separation=1.0, psi_degree=8)
            want = np.zeros_like(x)
            for l, row in enumerate(sig.magnitudes):
                for xj, a in zip(sig.jumps, row):
                    if a != 0.0:
                        want = want + a * jump_basis_eval(l, x - xj)
            assert evaluate_absorbing(sig.jumps, sig.magnitudes, x).tobytes() == want.tobytes()

    def test_jump_basis_mean_zero(self):
        # integrate over one period; (0, 2*pi) contains no interior jump
        for order in range(4):
            val, _ = quad(
                lambda x: float(jump_basis_eval(order, np.asarray([x]))[0]),
                0.0, 2 * math.pi, limit=100, epsabs=1e-12,
            )
            assert abs(val) < 1e-10

    def test_jump_basis_unit_jump(self):
        for order in range(3):
            right = float(jump_basis_eval(order, np.asarray([1e-9]))[0])
            left = float(jump_basis_eval(order, np.asarray([-1e-9]))[0])
            if order == 0:
                assert right - left == pytest.approx(1.0, abs=1e-6)
            else:
                assert right - left == pytest.approx(0.0, abs=1e-6)


# jump data the absorbing-part functions must reject, each with the message's start
_BAD_JUMP_DATA = [
    pytest.param([0.1, 0.2], [[1.0]], "each magnitude row needs one value per jump", id="row-short"),
    pytest.param([0.1], [[1.0, 5.0]], "each magnitude row needs one value per jump", id="row-long"),
    pytest.param([0.1], [1.0], "each magnitude row needs one value per jump", id="bare-number-row"),
    pytest.param([math.nan], [[1.0]], "jump positions must be finite", id="nan-jump"),
    pytest.param([0.1], [[math.inf]], "jump magnitudes must be finite", id="inf-magnitude"),
    pytest.param([0.1, 0.2], [[1.0, math.nan]], "jump magnitudes must be finite", id="nan-magnitude"),
    pytest.param([0.1], [["1"]], "jump magnitudes must be finite", id="string-magnitude"),
    pytest.param([0.1, 0.2], [[1.0, 2.0], [[1.0], [2.0]]], "jump magnitudes must be finite", id="nested-row"),
    pytest.param([0.1, 0.2], [[[1.0], [2.0, 3.0]]], "jump magnitudes must be finite", id="ragged-row"),
    pytest.param([0.1], [[0.0]] * 171, "must be at most 169", id="order-past-the-limit"),
]


class TestJumpData:
    """evaluate_absorbing and piecewise_poly_coeffs share one check of their
    jump data: before it, a short row dropped a jump, a long one was read in
    part or raised a bare IndexError, a NaN gave NaN values, and an all-zero
    order past MAX_ORDER passed unchecked."""

    @pytest.mark.parametrize("jumps, magnitudes, match", _BAD_JUMP_DATA)
    def test_evaluate_absorbing_rejects(self, jumps, magnitudes, match):
        with pytest.raises(ValidationError, match=match):
            evaluate_absorbing(jumps, magnitudes, np.linspace(-3.0, 3.0, 5))

    @pytest.mark.parametrize("jumps, magnitudes, match", _BAD_JUMP_DATA)
    def test_piecewise_poly_coeffs_rejects(self, jumps, magnitudes, match):
        with pytest.raises(ValidationError, match=match):
            piecewise_poly_coeffs(jumps, magnitudes, len(magnitudes) - 1, [1, 2])

    def test_order_limit_is_inclusive(self):
        x = np.linspace(-3.0, 3.0, 5)
        assert np.all(evaluate_absorbing([0.1], [[0.0]] * 170, x) == 0.0)

    def test_no_jumps_no_absorbing_part(self):
        assert np.all(evaluate_absorbing([], [[]], np.linspace(-3.0, 3.0, 5)) == 0.0)
        assert np.all(piecewise_poly_coeffs([], [[]], 0, [1, 2]) == 0.0)


class TestSignalCoeffs:
    def test_pure_jump_equals_formula(self):
        sig = PiecewiseSignal(0, SAWTOOTH_JUMPS, SAWTOOTH_MAGS, [0.0], 0.0)
        window = signal_coeffs(sig, 64)
        saw = sawtooth_window(64)
        assert np.max(np.abs(window.coeffs - saw.coeffs)) < 1e-9

    def test_zero_magnitudes_leave_smooth_part(self):
        psi = [0.25, 0.1 + 0.05j, 0.01 - 0.02j]
        sig = PiecewiseSignal(0, [0.0], [[0.0]], psi, 0.5)
        window = signal_coeffs(sig, 4)
        assert window.coeffs[4] == psi[0]
        assert window.coeffs[5] == psi[1]
        assert window.coeffs[2] == psi[2].conjugate()
        assert window.coeffs[7] == 0.0

    @pytest.mark.parametrize("degree", [20, 64, 300])
    def test_bit_identical_to_per_index_sum(self, degree):
        # psi degree below, equal to and above the bandwidth M = 64
        m = 64
        sig = random_piecewise_signal(1, 2, seed=7, psi_degree=degree)
        ks = np.arange(-m, m + 1)
        want = np.zeros(2 * m + 1, dtype=complex)
        want[ks != 0] = piecewise_poly_coeffs(sig.jumps, sig.magnitudes, 1, ks[ks != 0])
        for i, k in enumerate(ks):
            want[i] += psi_at(sig, int(k))
        got = signal_coeffs(sig, m).coeffs
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    def test_conjugate_symmetry(self):
        sig = random_piecewise_signal(1, 2, seed=4)
        window = signal_coeffs(sig, 32)
        flipped = np.conj(window.coeffs[::-1])
        assert np.max(np.abs(window.coeffs - flipped)) < 1e-12


class TestPartialSum:
    def test_constant(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[2] = 1.0
        window = CoefficientWindow(coeffs, 2)
        for x in (-2.0, 0.0, 1.5):
            assert partial_sum(window, x) == pytest.approx(1.0, abs=1e-12)

    def test_sawtooth_off_jump(self):
        window = sawtooth_window(512)
        # direct-summation oracle
        want = sum(
            2 * (-math.sin(k * math.pi / 2) * (-1.0) ** k / k) * -1.0
            for k in range(1, 513)
        )
        oracle = sum(
            (1j * (-1.0) ** k / k * cmath.exp(1j * k * math.pi / 2)).real * 2
            for k in range(1, 513)
        )
        got = partial_sum(window, math.pi / 2)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert abs(got - math.pi / 2) < 2e-3

    def test_value_at_jump_near_mean(self):
        window = sawtooth_window(256)
        # one-sided limits at the jump are +-pi; their mean is 0
        assert abs(partial_sum(window, math.pi)) < 1e-10

    def test_imaginary_residue_within_symmetry_tolerance(self):
        # coefficients of 4.5e-13j, a rounding-sized asymmetry, sum to an
        # imaginary part of 4.6e-10 at 0; only the real part is returned
        window = CoefficientWindow(np.full(1025, 0.45e-12j), 512)
        assert partial_sum(window, 0.0) == 0.0


_NONFINITE_POINTS = [
    pytest.param(math.inf, id="inf"),
    pytest.param(-math.inf, id="minus-inf"),
    pytest.param(math.nan, id="nan"),
    pytest.param([0.5, math.nan], id="nan-in-array"),
    pytest.param(np.array([[0.1, 0.2], [math.inf, 0.3]]), id="inf-in-2d-array"),
]


@pytest.mark.parametrize("x", _NONFINITE_POINTS)
def test_evaluators_reject_nonfinite_points(x):
    # each returned NaN, with numpy's invalid-value RuntimeWarning, before the check
    sig = random_piecewise_signal(1, 2, seed=3, min_separation=1.6, psi_degree=64)
    window = signal_coeffs(sig, 64)
    result = reconstruct(window, 1, 2, 1.5)
    calls = [
        lambda: jump_basis_eval(1, x),
        lambda: evaluate_absorbing(sig.jumps, sig.magnitudes, x),
        lambda: pd.evaluate_signal(sig, x),
        lambda: partial_sum(window, x),
        lambda: result.evaluate(x),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValidationError, match="evaluation points must be finite"):
                call()


@pytest.mark.parametrize("evaluator", ["jump_basis_eval", "evaluate_absorbing", "evaluate_signal",
                                       "partial_sum", "evaluate"])
def test_evaluators_keep_the_shape_of_their_points(evaluator):
    # evaluate_signal, partial_sum and evaluate raised numpy's bare
    # "non-broadcastable output operand" ValueError on a 2-d point array
    sig = random_piecewise_signal(1, 2, seed=3, min_separation=1.6, psi_degree=64)
    window = signal_coeffs(sig, 64)
    result = reconstruct(window, 1, 2, 1.5)
    call = {
        "jump_basis_eval": lambda x: jump_basis_eval(1, x),
        "evaluate_absorbing": lambda x: evaluate_absorbing(sig.jumps, sig.magnitudes, x),
        "evaluate_signal": lambda x: pd.evaluate_signal(sig, x),
        "partial_sum": lambda x: partial_sum(window, x),
        "evaluate": lambda x: result.evaluate(x),
    }[evaluator]
    x = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    got = call(x)
    assert isinstance(got, np.ndarray) and got.shape == (2, 3)
    assert np.array_equal(got.ravel(), call(x.ravel()))
    assert call(x[:1, :1]).shape == (1, 1)
    assert np.ndim(call(0.5)) == 0 and call(0.5) == call(np.array([0.5]))[0]
    # jump_basis_eval and evaluate_absorbing gave numpy.float64, the others float
    assert type(call(0.5)) is float and type(call(np.array(0.5))) is float


@pytest.mark.parametrize("x", [0.3, [-2.0, 0.1, 1.7, math.pi]], ids=["scalar", "array"])
def test_evaluators_check_their_points_once(monkeypatch, x):
    # each evaluator checks its points in one `_points` call, and gives the
    # bits of its old composition through the public, checking functions
    sig = random_piecewise_signal(1, 2, seed=3, min_separation=1.6, psi_degree=64)
    window = signal_coeffs(sig, 64)
    result = reconstruct(window, 1, 2, 1.5)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    psi = sig._psi_array
    smooth = 2.0 * fourier._series_eval(psi[1:], np.arange(1, len(psi)), xs).real
    before = {
        "jump_basis_eval": jump_basis_eval(1, xs),
        "evaluate_absorbing": evaluate_absorbing(sig.jumps, sig.magnitudes, xs),
        "evaluate_signal": evaluate_absorbing(sig.jumps, sig.magnitudes, xs) + smooth + psi[0].real,
        "partial_sum": partial_sum(window, xs),
        "evaluate": evaluate_absorbing(result.jumps, result.magnitudes, xs) + partial_sum(result.corrected, xs),
    }
    calls = {
        "jump_basis_eval": lambda: jump_basis_eval(1, x),
        "evaluate_absorbing": lambda: evaluate_absorbing(sig.jumps, sig.magnitudes, x),
        "evaluate_signal": lambda: pd.evaluate_signal(sig, x),
        "partial_sum": lambda: partial_sum(window, x),
        "evaluate": lambda: result.evaluate(x),
    }
    checked = []
    points = fourier._points

    def counting(*args):
        checked.append(args)
        return points(*args)

    monkeypatch.setattr(fourier, "_points", counting)
    for name, call in calls.items():
        checked.clear()
        got = np.atleast_1d(call())
        assert len(checked) == 1, name
        assert got.tobytes() == before[name].tobytes(), name


class TestCoefficientWindow:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_nonfinite_rejected(self, bad, symmetric):
        # a conjugate pair of bad values, or one bad value alone
        coeffs = np.zeros(5, dtype=complex)
        coeffs[1] = bad
        coeffs[3] = np.conj(bad) if symmetric else 0.0
        with pytest.raises(ValidationError, match="finite"):
            CoefficientWindow(coeffs, 2)

    def test_shape_must_match_bandwidth(self):
        with pytest.raises(ValidationError, match=r"window needs 2\*bandwidth \+ 1 coefficients"):
            CoefficientWindow(np.zeros(4), 2)


@pytest.mark.parametrize("options, match", [
    ({"min_separation": "1"}, "min_separation must be finite"),
    ({"min_separation": math.nan}, "min_separation must be finite"),
    ({"psi_decay": 10**400}, "psi_decay must be finite"),
    ({"base_magnitude_range": ("2", 4.0)}, "base_magnitude_range must be finite"),
    ({"base_magnitude_range": (2.0, 3.0, 4.0)}, "base_magnitude_range must be a pair"),
    ({"higher_magnitude_scale": math.nan}, "higher_magnitude_scale must be finite"),
], ids=["string-separation", "nan-separation", "huge-decay", "string-magnitude", "three-magnitudes",
        "nan-scale"])
def test_random_signal_checks_its_parameters(options, match):
    # a bare TypeError, ValueError or OverflowError, or (the NaN separation) a signal
    with pytest.raises(ValidationError, match=match):
        random_piecewise_signal(1, 1, 0, **options)


@pytest.mark.parametrize("decay", [10**400, "1", math.nan], ids=["int-past-float-range", "string", "nan"])
def test_synthesize_psi_checks_its_decay(decay):
    # a bare OverflowError, a bare TypeError, or NaN coefficients
    with pytest.raises(ValidationError, match="decay must be finite and nonnegative"):
        pd.fourier._draw_psi(0, decay, 8, np.random.default_rng(0))


def _synthesize_psi_loop(smoothness, decay, degree, rng):
    """The scalar loop the smooth-part draw once was: the reference for
    _draw_psi's random stream and for every bit (and zero sign) of its
    coefficients."""
    coeffs = [complex(decay * (2.0 * rng.random() - 1.0), 0.0)]
    for n in range(1, degree + 1):
        r = decay * rng.random()
        phi = pd.model.TWO_PI * rng.random()
        coeffs.append(r * float(n) ** (-smoothness - 2) * cmath.exp(1j * phi))
    return tuple(coeffs)


@pytest.mark.parametrize("degree", [0, 1, 2, 8192])
@pytest.mark.parametrize("decay", [0.0, 5e-324, 1e-300, 0.3, 4.0],
                         ids=["zero", "least-subnormal", "tiny", "ordinary", "large"])
def test_synthesize_psi_matches_the_scalar_loop(decay, degree):
    # _draw_psi's array, read as a tuple, has the loop tuple's repr (so the
    # same bits and signs of zeros), and the generator is left in the same state
    for d in range(4):
        for seed in range(3):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _synthesize_psi_loop(d, decay, degree, want_rng)
            got = pd.fourier._draw_psi(d, decay, degree, got_rng)
            assert got.dtype == complex and got.shape == (degree + 1,)
            assert repr(tuple(got.tolist())) == repr(want)
            assert got_rng.random() == want_rng.random()


# criterion 6's signal specs (tests/test_acceptance.py), less the reconstruction's
# separation, which is kept beside them
_CRITERION_6_SIGNALS = [{key: value for key, value in spec.items() if key != "reconstruction_separation"}
                        for spec in FOURIER_CONFIGS.values()]
_CRITERION_6_SEPARATIONS = [spec["reconstruction_separation"] for spec in FOURIER_CONFIGS.values()]
_CRITERION_6_IDS = [f"d{d}-K{k}" for d, k in FOURIER_CONFIGS]
# a three-jump spec like the (0, 3) cells of the reconstruct-cli benchmark
_ZERO_THREE = {"smoothness": 0, "num_jumps": 3, "min_separation": 1.6, "psi_decay": 1.0, "psi_degree": 8192,
               "base_magnitude_range": [3.0, 5.0], "higher_magnitude_scale": 0.5}


@pytest.mark.parametrize("spec", _CRITERION_6_SIGNALS, ids=_CRITERION_6_IDS)
def test_random_signal_draws_the_scalar_loops_smooth_part(monkeypatch, spec):
    # record the generator state _draw_psi is handed, then replay the scalar
    # loop from it: the signal's smooth part must be the loop's tuple, bit for
    # bit, drawn with the spec's smoothness, decay and degree
    draw, handed = pd.fourier._draw_psi, []

    def recording_draw(smoothness, decay, degree, rng):
        handed.append((smoothness, decay, degree, rng.bit_generator.state))
        return draw(smoothness, decay, degree, rng)

    monkeypatch.setattr(pd.fourier, "_draw_psi", recording_draw)
    for seed in range(10):
        sig = random_piecewise_signal(seed=seed, **spec)
        (d, decay, degree, state), = handed
        handed.clear()
        assert (d, decay, degree) == (spec["smoothness"], spec["psi_decay"], spec["psi_degree"])
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        assert repr(sig.psi_coeffs) == repr(_synthesize_psi_loop(d, decay, degree, rng))


@pytest.mark.parametrize("spec", _CRITERION_6_SIGNALS, ids=_CRITERION_6_IDS)
def test_random_signal_hands_over_the_scalar_loops_draw(monkeypatch, spec):
    # the signal takes its smooth part from the private array draw; the
    # loop's tuple, as an array, gives the same signal: the same repr, and
    # the same bits in the array twin the hot path reads
    got = [random_piecewise_signal(seed=seed, **spec) for seed in range(10)]
    monkeypatch.setattr(pd.fourier, "_draw_psi", lambda *args: np.array(_synthesize_psi_loop(*args)))
    want = [random_piecewise_signal(seed=seed, **spec) for seed in range(10)]
    assert [repr(s) for s in got] == [repr(s) for s in want]
    assert [s._psi_array.tobytes() for s in got] == [s._psi_array.tobytes() for s in want]


def test_random_signal_needs_room_for_the_separation():
    with pytest.raises(ValidationError, match="cannot place the jumps with that separation"):
        random_piecewise_signal(0, 5, 0, min_separation=1.5)


class TestEckhoffTransform:
    def test_sawtooth_closed_form(self):
        window = sawtooth_window(32)
        samples = eckhoff_transform(window, 0)
        ks = np.arange(1, 33)
        want = -2 * math.pi * (-1.0) ** ks
        assert np.max(np.abs(np.asarray(samples.values) - want)) < 1e-12
        assert samples.scheme == SamplingScheme(1, 1, 32)

    def test_smooth_window_decays(self):
        d = 1
        sig = random_piecewise_signal(d, 1, seed=9, psi_decay=2.0)
        psi_only = PiecewiseSignal(
            d, sig.jumps, [[0.0] * len(sig.jumps) for _ in range(d + 1)],
            sig.psi_coeffs, sig.psi_decay,
        )
        window = signal_coeffs(psi_only, 64)
        samples = eckhoff_transform(window, d)
        for k, value in zip(range(1, 65), samples.values):
            assert abs(value) <= 2 * math.pi * sig.psi_decay / k * (1 + 1e-9)

    def test_transform_error_bounded_by_decay(self):
        d = 1
        m = 64
        sig = random_piecewise_signal(d, 1, seed=10, psi_decay=1.5)
        window = signal_coeffs(sig, m)
        samples = eckhoff_transform(window, d)
        model = induced_prony_model(sig.jumps, sig.magnitudes, d)
        pure = evaluate_moments(model, samples.scheme)
        diff = abs(samples.values[-1] - pure.values[-1])
        assert diff <= 2 * math.pi * sig.psi_decay / m * (1 + 1e-9)


class TestBridgeIdentity:
    def test_transform_of_formula_equals_moments(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = int(rng.integers(0, 4))
            k = int(rng.integers(1, 4))
            sig = random_piecewise_signal(
                d, k, seed=int(rng.integers(0, 10_000)), psi_decay=0.0, psi_degree=1
            )
            window = signal_coeffs(sig, 500)
            samples = eckhoff_transform(window, d)
            model = induced_prony_model(sig.jumps, sig.magnitudes, d)
            moments = evaluate_moments(model, samples.scheme)
            got = np.asarray(samples.values)
            want = np.asarray(moments.values)
            scale = np.maximum(np.abs(want), 1.0)
            assert np.max(np.abs(got - want) / scale) < 1e-10

    def test_magnitude_inverse(self):
        mags = np.asarray([1.5, -0.25, 0.75])
        model = induced_prony_model([0.4], [[1.5], [-0.25], [0.75]], 2)
        back = magnitudes_from_coefficients(model.coefficients[0], 2)
        assert np.max(np.abs(back - mags)) < 1e-14

    def test_magnitude_inverse_needs_d_plus_one_coefficients(self):
        with pytest.raises(ValidationError, match=r"need d\+1 coefficients"):
            magnitudes_from_coefficients([1.0], 1)


class TestInitialJumpEstimates:
    def test_sawtooth(self):
        window = sawtooth_window(256)
        (est,) = initial_jump_estimates(window, 1)
        assert circle_distance(est, math.pi) < 0.05

    def test_two_jumps(self):
        sig = PiecewiseSignal(
            0, [-1.0, 1.0], [[2.0, -2.5]], [0.0, 0.05j, 0.01], 0.5
        )
        window = signal_coeffs(sig, 512)
        est = initial_jump_estimates(window, 2)
        assert circle_distance(est[0], -1.0) < 0.02
        assert circle_distance(est[1], 1.0) < 0.02

    def test_exact_when_smooth_part_vanishes(self):
        window = sawtooth_window(64)
        (est,) = initial_jump_estimates(window, 1)
        assert circle_distance(est, math.pi) < 1e-9

    def test_bandwidth_precondition(self):
        with pytest.raises(ValidationError):
            initial_jump_estimates(sawtooth_window(4), 2)


class TestMollifier:
    def test_mean_within_support_bounds(self):
        moll = build_mollifier(0.0, 0.6, 0.2, 16)
        mean = moll.coeff(0).real
        assert 0.2 / math.pi < mean < 0.6 / math.pi

    def test_modulation_law_exact(self):
        base = build_mollifier(0.0, 0.6, 0.2, 32)
        shifted = build_mollifier(0.75, 0.6, 0.2, 32)
        for n in (-7, -1, 0, 3, 20):
            want = cmath.exp(-1j * n * 0.75) * base.coeff(n)
            assert abs(shifted.coeff(n) - want) < 1e-12

    def test_centered_coefficients_real(self):
        moll = build_mollifier(0.0, 0.5, 0.15, 24)
        assert moll.centered_coeffs.dtype == np.float64
        assert abs(moll.coeff(5).imag) < 1e-12

    def test_superpolynomial_decay_spot_check(self):
        moll = build_mollifier(0.0, 1.5, 0.5, 512)
        tail = np.abs(moll.centered_coeffs[256:])
        assert float(tail.max()) <= 1e-10

    def test_accuracy_certified(self):
        moll = build_mollifier(0.3, 0.6, 0.2, 64)
        assert moll.accuracy <= 1e-13

    def test_geometry_validated(self):
        with pytest.raises(ValidationError):
            build_mollifier(0.0, 0.2, 0.6, 8)

    @pytest.mark.parametrize("center, half, flat", [
        (math.nan, 1.0, 0.5), (math.inf, 1.0, 0.5), (0.0, "1.0", 0.5), (0.0, 1.0, "0.5"),
    ], ids=["nan-center", "inf-center", "string-half-width", "string-flat-half-width"])
    def test_geometry_must_be_finite_real(self, center, half, flat):
        # a NaN center gave NaN coefficients, and a string width a bare TypeError
        with pytest.raises(ValidationError, match="need a finite center"):
            build_mollifier(center, half, flat, 64)

    @pytest.mark.parametrize(
        "half, flat, degree",
        [(0.6, 0.2, 64), (1.5, 0.5, 512), (1.5 / 3, 1.5 / 9, 384),
         (math.pi, 1.0, 96), (0.2, 0.199, 64), (0.2, 0.19, 256)],
    )
    def test_coefficients_match_quadrature_oracle(self, half, flat, degree):
        # (1/pi) * integral over [0, pi] of bump(x) cos(n x): the flat part in
        # closed form, the transition by QAWO on the scalar smoothstep
        def smoothstep(u):
            if u <= 0.0:
                return 1.0
            if u >= 1.0:
                return 0.0
            a = math.exp(-1.0 / (1.0 - u))
            b = math.exp(-1.0 / u)
            return a / (a + b)

        width = half - flat
        moll = build_mollifier(0.0, half, flat, degree)
        assert moll.accuracy <= QUAD_CERT
        for n in sorted({0, 1, 7, degree // 2, degree}):
            transition = lambda x: smoothstep((x - flat) / width)
            if n == 0:
                tail = quad(transition, flat, half, epsabs=2e-14, epsrel=0.0, limit=200)[0]
                oracle = (flat + tail) / math.pi
            else:
                tail = quad(transition, flat, half, weight="cos", wvar=n,
                            epsabs=2e-14, epsrel=0.0, limit=200)[0]
                oracle = (math.sin(n * flat) / n + tail) / math.pi
            assert abs(moll.centered_coeffs[n] - oracle) <= QUAD_CERT

    def test_uncertifiable_transition_raises(self):
        with pytest.raises(pd.QuadratureError):
            build_mollifier(0.0, 0.2, 0.2 - 1e-9, 8)


def _smoothstep_clipped(u):
    """The smoothstep _centered_bump_coeffs once called on every sample."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (1.0 + np.exp(1.0 / (1.0 - u) - 1.0 / u))


def _centered_bump_coeffs_resampled(half_width, flat_half_width, degree):
    """The body _centered_bump_coeffs once had: every grid sampled afresh and
    the clipped smoothstep at every point.  The reference for its bits."""
    fourier = pd.fourier
    signs = np.where(np.arange(degree + 1) % 2 == 0, 1.0, -1.0)
    size = max(fourier._MIN_SAMPLES, 1 << (4 * (degree + 1) - 1).bit_length())
    coarse, worst = None, math.inf
    while size <= fourier._MAX_SAMPLES:
        xs = -math.pi + pd.model.TWO_PI * np.arange(size) / size
        bump = _smoothstep_clipped((np.abs(xs) - flat_half_width) / (half_width - flat_half_width))
        fine = signs * np.fft.rfft(bump)[: degree + 1].real / size
        if coarse is not None:
            worst = float(np.max(np.abs(fine - coarse)))
            if worst <= 0.5 * QUAD_CERT / math.pi:
                return fine, worst
        coarse, size = fine, 2 * size
    raise pd.QuadratureError(
        f"bump coefficients did not converge within {fourier._MAX_SAMPLES} samples (disagreement {worst:.2g})"
    )


# reconstruct's widths (J/3, J/9) over its separation range at three degrees,
# the quadrature-oracle geometries, and the two ways to miss the certificate
_BUMP_CASES = (
    [(j / 3, j / 9, degree) for j in (0.3, 0.9, 1.5, 1.6, 3.0, 2 * math.pi, 3 * math.pi)
     for degree in (96, 768, 3072)]
    + [(0.6, 0.2, 64), (1.5, 0.5, 512), (math.pi, 1.0, 96), (0.2, 0.199, 64), (0.2, 0.19, 256),
       (0.6, 0.2, 0)]
    + [(0.2, 0.2 - 1e-9, 8), (0.6, 0.2, 2 ** 20)]
)


@pytest.mark.parametrize("half, flat, degree", _BUMP_CASES)
def test_bump_coefficients_equal_the_resampling_body(half, flat, degree):
    # reusing the L samples on the 2L grid, and the smoothstep only in the band, moves no bit
    try:
        want = _centered_bump_coeffs_resampled(half, flat, degree)
    except pd.QuadratureError as exc:
        with pytest.raises(pd.QuadratureError) as got:
            pd.fourier._centered_bump_coeffs.__wrapped__(half, flat, degree)
        assert str(got.value) == str(exc)
        return
    coeffs, accuracy = pd.fourier._centered_bump_coeffs.__wrapped__(half, flat, degree)
    assert coeffs.tobytes() == want[0].tobytes()
    assert accuracy == want[1]


class TestLocalize:
    def test_identity_mollifier(self):
        window = sawtooth_window(64)
        moll = delta_mollifier(128)
        out = localize(window, moll, 32)
        assert np.max(np.abs(out.coeffs - window.coeffs[32:-32])) < 1e-15

    def test_bandwidth_contract(self):
        window = sawtooth_window(64)
        moll = delta_mollifier(128)
        with pytest.raises(ValidationError):
            localize(window, moll, 33)

    def test_degree_contract(self):
        window = sawtooth_window(64)
        with pytest.raises(ValidationError):
            localize(window, delta_mollifier(64), 32)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("m", [64, 1024, 2048])
    def test_matches_direct_convolution(self, m, symmetric):
        # np.convolve is the oracle for the FFT product; the asymmetric window
        # is the real signal's turned by a phase, so it is not conjugate-symmetric
        sig = random_piecewise_signal(1, 2, seed=m, min_separation=1.6)
        window = signal_coeffs(sig, m)
        if not symmetric:
            window = CoefficientWindow(window.coeffs * cmath.exp(0.7j), m)
        moll = build_mollifier(sig.jumps[0], 0.5, 0.5 / 3, m + m // 2)
        out = localize(window, moll, m // 2)
        center = m + moll.degree
        want = np.convolve(window.coeffs, moll.two_sided())[center - m // 2: center + m // 2 + 1]
        assert np.max(np.abs(out.coeffs - want)) <= 1e-15

    def test_two_jump_localization_isolates(self):
        sig = PiecewiseSignal(
            0, [-1.0, 1.0], [[2.0, -2.5]], [0.0], 0.0
        )
        window = signal_coeffs(sig, 256)
        moll = build_mollifier(-1.0, 0.6, 0.2, 256 + 128)
        loc = localize(window, moll, 128)
        (est,) = initial_jump_estimates(loc, 1)
        assert circle_distance(est, -1.0) < 0.02
        assert circle_distance(est, 1.0) > 1.5


class TestLocalizedCoeffs:
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("m", [64, 1024, 2048])
    def test_matches_direct_convolution(self, m, d, symmetric):
        # reconstruct's d+2 indices, against the full convolution np.convolve gives
        sig = random_piecewise_signal(1, 2, seed=m + d, min_separation=1.6)
        window = signal_coeffs(sig, m)
        if not symmetric:
            window = CoefficientWindow(window.coeffs * cmath.exp(0.7j), m)
        moll = build_mollifier(sig.jumps[1], 0.5, 0.5 / 3, m + m // 2)
        ks = (m // 2) // (d + 2) * np.arange(1, d + 3)
        got = pd.fourier._localized_coeffs(window, moll, ks)
        want = np.convolve(window.coeffs, moll.two_sided())[m + moll.degree + ks]
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_degree_contract(self):
        # as localize's: every tap |k - j| <= M + max|k| must exist
        window = sawtooth_window(64)
        pd.fourier._localized_coeffs(window, delta_mollifier(96), np.array([16, 32]))
        with pytest.raises(ValidationError, match="need >= bandwidth \\+ max\\|k\\| = 96"):
            pd.fourier._localized_coeffs(window, delta_mollifier(95), np.array([16, 32]))


class TestReconstruct:
    def test_sawtooth_machine_precision(self):
        window = sawtooth_window(128)
        result = reconstruct(window, 0, 1, 8.0)
        assert circle_distance(result.jumps[0], math.pi) < 1e-10
        assert abs(result.magnitudes[0][0] + 2 * math.pi) < 1e-8

    @pytest.mark.parametrize("separation", [0.0, 10.0, math.nan, "1.5"])
    def test_separation_range(self, separation):
        # the string raised a bare TypeError
        with pytest.raises(ValidationError, match=r"min_separation must be in \(0, 3\*pi\]"):
            reconstruct(sawtooth_window(128), 0, 1, separation)

    def test_reports_follow_their_jumps(self, monkeypatch):
        # the coarse estimate 3.1408 solves to -3.14148, past -pi, so the jumps
        # change order; each report must stay with the jump its solve found
        psi = pd.fourier._draw_psi(0, 1.0, 512, np.random.default_rng(2))
        sig = PiecewiseSignal(0, [-math.pi, 0.3], [[3.0, -4.0]], psi, 1.0)
        hints = {}

        def recording(samples, multiplicities, coarse_node_args, **options):
            model, report = pd.decimated_solve(samples, multiplicities, coarse_node_args, **options)
            hints[id(report)] = coarse_node_args[0]
            return model, report

        monkeypatch.setattr(pd.fourier, "decimated_solve", recording)
        result = reconstruct(signal_coeffs(sig, 256), 0, 2, 1.5)
        for x, report in zip(result.jumps, result.reports):
            assert circle_distance(x, -hints[id(report)]) < 1e-2

    @pytest.mark.parametrize("spec, separation", zip(_CRITERION_6_SIGNALS, _CRITERION_6_SEPARATIONS),
                             ids=_CRITERION_6_IDS)
    def test_each_jump_is_solved_once_unrefined(self, monkeypatch, spec, separation):
        # the d+2 annihilation equations are solved once, with no LM polish after
        def refuse(*args):
            raise AssertionError("reconstruct refined a jump's solve")

        monkeypatch.setattr(pd.decimate, "_refine", refuse)
        d, k = spec["smoothness"], spec["num_jumps"]
        result = reconstruct(signal_coeffs(random_piecewise_signal(seed=3, **spec), 256), d, k, separation)
        assert [(r.method, r.iterations) for r in result.reports] == [("annihilation", 1)] * k

    @pytest.mark.parametrize("seed", [344, 748, 1130])
    def test_spurious_root_on_hint_ray(self, seed):
        # criterion 6's (d, K) = (2, 1) signals at M = 2048, where the hint fell
        # midway in argument between the true root w0 and the spurious root
        # 1.7251 * w0 on its ray; by argument the pick was a tie ("hint ambiguous")
        sig = random_piecewise_signal(2, 1, seed, base_magnitude_range=(3.0, 5.0),
                                      psi_decay=4.0, psi_degree=8192)
        result = reconstruct(signal_coeffs(sig, 2048), 2, 1, 8.0)
        assert circle_distance(result.jumps[0], sig.jumps[0]) < 1e-10

    @pytest.mark.parametrize("m", [512, 2048])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_high_smoothness_recovers(self, d, m):
        # the amplitude fit's columns z^k k^l span M^d in norm; on raw columns
        # the rank test refused every signal at (d, M) = (4, 2048), (5, 512)
        # and (5, 2048)
        for seed in range(3):
            sig = random_piecewise_signal(d, 1, seed)
            result = reconstruct(signal_coeffs(sig, m), d, 1, 1.5)
            assert circle_distance(result.jumps[0], sig.jumps[0]) < 1e-11

    def test_localized_magnitudes_match_source(self):
        # through the full pipeline, each jump's recovered magnitudes come from
        # the mollified window yet match the original jump data
        sig = random_piecewise_signal(1, 2, seed=2, min_separation=1.6,
                                      base_magnitude_range=(3.0, 5.0),
                                      psi_decay=1.0, psi_degree=4096)
        window = signal_coeffs(sig, 1024)
        result = reconstruct(window, 1, 2, 1.5)
        for l in range(2):
            for got, want in zip(result.magnitudes[l], sig.magnitudes[l]):
                assert abs(got - want) < (1e-3 if l == 0 else 2e-1)

    def test_translation_equivariance(self):
        from pronydec import wrap_position

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
        # shifting can wrap a jump past pi, which re-sorts the outputs
        expected = sorted(
            (wrap_position(x + tau), tuple(row[j] for row in base.magnitudes))
            for j, x in enumerate(base.jumps)
        )
        got = [
            (x, tuple(row[j] for row in shifted.magnitudes))
            for j, x in enumerate(shifted.jumps)
        ]
        for (xe, me), (xg, mg) in zip(expected, got):
            assert circle_distance(xg, xe) < 1e-8
            for a, b in zip(me, mg):
                assert abs(a - b) < 1e-6

    def test_synthesis_with_true_parameters(self):
        # assembling from the truth leaves only the smooth-part tail
        sig = random_piecewise_signal(1, 2, seed=12, psi_decay=2.0, psi_degree=4096)
        m = 128
        window = signal_coeffs(sig, m)
        ks = np.arange(-m, m + 1)
        corrected = np.array(window.coeffs)
        nz = ks != 0
        corrected[nz] -= piecewise_poly_coeffs(sig.jumps, sig.magnitudes, 1, ks[nz])
        result = pd.ReconstructionResult(
            jumps=sig.jumps, magnitudes=sig.magnitudes,
            corrected=CoefficientWindow(corrected, m), smoothness=1,
        )
        tail_bound = 2 * sig.psi_decay * sum(
            k ** -3.0 for k in range(m + 1, sig.psi_degree + 1)
        )
        err = sup_error_away(sig, result, 0.1, 1024)
        assert err <= tail_bound * (1 + 1e-6)

    def test_bandwidth_precondition(self):
        with pytest.raises(ValidationError):
            reconstruct(sawtooth_window(8), 0, 1, 1.0)

    @pytest.mark.parametrize("spec, separation", [*zip(_CRITERION_6_SIGNALS, _CRITERION_6_SEPARATIONS),
                                                  (_ZERO_THREE, 1.5)],
                             ids=[*_CRITERION_6_IDS, "d0-K3"])
    def test_corrected_mirrors_the_positive_half(self, spec, separation):
        # the jump coefficients are computed for k = 1..M and conjugated for
        # -M..-1; this equals the formula at every nonzero k, bit for bit,
        # only if libm's cos is even and its sin odd
        d, k = spec["smoothness"], spec["num_jumps"]
        for seed in range(3):
            sig = random_piecewise_signal(seed=seed, **spec)
            for m in (128, 2048):
                window = signal_coeffs(sig, m)
                result = reconstruct(window, d, k, separation)
                ks = np.arange(-m, m + 1)
                want = np.array(window.coeffs)
                want[ks != 0] -= piecewise_poly_coeffs(result.jumps, result.magnitudes, d, ks[ks != 0])
                assert result.corrected.coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [*_CRITERION_6_SIGNALS, _ZERO_THREE], ids=[*_CRITERION_6_IDS, "d0-K3"])
def test_signal_coeffs_mirror_the_positive_half(spec):
    # the jump coefficients are computed for k = 1..M and conjugated for
    # -M..-1; this equals the formula at every nonzero k, bit for bit, only
    # if libm's cos is even and its sin odd
    for seed in range(3):
        sig = random_piecewise_signal(seed=seed, **spec)
        for m in (64, 2048):
            ks = np.arange(-m, m + 1)
            want = np.zeros(2 * m + 1, dtype=complex)
            want[ks != 0] = piecewise_poly_coeffs(sig.jumps, sig.magnitudes, sig.smoothness, ks[ks != 0])
            want += [psi_at(sig, int(k)) for k in ks]
            assert signal_coeffs(sig, m).coeffs.tobytes() == want.tobytes()


def _jumps_from_localized_windows(window, d, k, separation):
    """reconstruct's K >= 2 jumps as they were found from the full localized
    window: localize to half the bandwidth, then the transform at
    n = floor(half / (d+2)).  The reference for the direct d+2 sums."""
    m = window.bandwidth
    jumps = []
    for x0 in initial_jump_estimates(window, k):
        moll = build_mollifier(x0, separation / 3.0, separation / 9.0, m + m // 2)
        loc = localize(window, moll, m // 2)
        n = loc.bandwidth // (d + 2)
        ks = n * np.arange(1, d + 3)
        values = 2 * math.pi * (1j * ks) ** (d + 1) * loc.coeffs[loc.bandwidth + ks]
        model, _ = pd.decimated_solve(pd.SampleSet(SamplingScheme(n, n, d + 2), values, 0.0),
                                      (d + 1,), [pd.wrap_angle(-x0)], base_solver="annihilation",
                                      refine=False)
        jumps.append(pd.position_from_node(model.nodes[0]))
    return sorted(jumps)


@pytest.mark.parametrize("d, k", [(1, 2), (0, 3), (2, 2)], ids=["d1-K2", "d0-K3", "d2-K2"])
def test_multi_jump_solves_match_the_localized_window(d, k):
    # every seed at the bandwidth floor and the next few, and at powers of two up to 2048
    floor = 8 * (d + 2) * k
    bandwidths = sorted({*range(floor, floor + 9), *(2 ** p for p in range(6, 12)), 1000, 2047})
    for seed in range(10):
        sig = random_piecewise_signal(d, k, seed, min_separation=1.6, psi_degree=8192,
                                      base_magnitude_range=(3.0, 5.0))
        for m in bandwidths:
            window = signal_coeffs(sig, m)
            try:
                want = _jumps_from_localized_windows(window, d, k, 1.5)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    reconstruct(window, d, k, 1.5)
                continue
            got = reconstruct(window, d, k, 1.5).jumps
            assert max(circle_distance(a, b) for a, b in zip(got, want)) <= 1e-10, (seed, m)


@pytest.fixture(scope="module")
def one_jump_case():
    sig = random_piecewise_signal(0, 1, seed=1)
    return sig, reconstruct(signal_coeffs(sig, 32), 0, 1, 6.0)


class TestSupErrorAway:
    def test_everything_excluded(self, one_jump_case):
        sig, result = one_jump_case
        with pytest.raises(ValidationError, match="removed every grid point"):
            sup_error_away(sig, result, 4.0, 64)

    def test_radius_positive(self, one_jump_case):
        sig, result = one_jump_case
        with pytest.raises(ValidationError, match="exclusion radius must be finite and positive"):
            sup_error_away(sig, result, 0.0, 64)

    @pytest.mark.parametrize("radius", [
        math.nan, math.inf, "0.1", pytest.param(10**5000, id="int-past-float-range")])
    def test_radius_finite(self, one_jump_case, radius):
        # float() raised a bare OverflowError on the integer
        sig, result = one_jump_case
        with pytest.raises(ValidationError, match="exclusion radius must be finite and positive"):
            sup_error_away(sig, result, radius, 64)

    @pytest.mark.parametrize("grid_size", [0, -3, 64.5])
    def test_grid_size_validated(self, one_jump_case, grid_size):
        sig, result = one_jump_case
        with pytest.raises(ValidationError, match="grid_size must be an integer >= 1"):
            sup_error_away(sig, result, 0.1, grid_size)

    def test_grid_size_past_the_forward_limit(self, one_jump_case):
        # np.arange(10**12) raised MemoryError
        sig, result = one_jump_case
        with pytest.raises(ValidationError, match="grid_size must be at most 10000000, got 1000000000000"):
            sup_error_away(sig, result, 0.1, 10**12)

    @pytest.mark.parametrize("grid_size", [1024, 999])
    def test_equals_tuple_formula(self, grid_size):
        # the formula with the smooth part converted from psi_coeffs at each call
        sig = random_piecewise_signal(1, 2, seed=3, min_separation=1.6, psi_degree=2000)
        result = reconstruct(signal_coeffs(sig, 128), 1, 2, 1.5)
        grid = -math.pi + 2 * math.pi * np.arange(grid_size) / grid_size
        dist = np.min([np.abs(np.mod(grid - xj + math.pi, 2 * math.pi) - math.pi)
                       for xj in sig.jumps], axis=0)
        psi = np.asarray(sig.psi_coeffs)
        runs = [(1, 2.0 * psi[1:]), (-128, -result.corrected.coeffs)]
        diff = (
            evaluate_absorbing(sig.jumps, sig.magnitudes, grid)
            - evaluate_absorbing(result.jumps, result.magnitudes, grid)
            + psi[0].real
            + _grid_series(runs, grid_size).real
        )
        assert sup_error_away(sig, result, 0.1, grid_size) == float(np.max(np.abs(diff[dist > 0.1])))

    @pytest.mark.parametrize("m", [64, 2048])
    @pytest.mark.parametrize("grid_size", [1024, 999, 100])
    def test_matches_dense_oracle(self, m, grid_size):
        # criterion-6 shapes; a 100-point grid folds each window more than once
        d, k, separation = 1, 2, 1.5
        sig = random_piecewise_signal(d, k, seed=3, min_separation=1.6,
                                      base_magnitude_range=(3.0, 5.0),
                                      psi_decay=1.0, psi_degree=8192)
        result = reconstruct(signal_coeffs(sig, m), d, k, separation)
        radius = 0.1

        grid = -math.pi + 2 * math.pi * np.arange(grid_size) / grid_size
        dist = np.min([np.abs(np.angle(np.exp(1j * (grid - xj)))) for xj in sig.jumps], axis=0)
        x = grid[dist > radius]
        psi = np.asarray(sig.psi_coeffs)
        ns = np.arange(1, len(psi))
        sig_ks = np.concatenate([-ns[::-1], [0], ns])
        sig_c = np.concatenate([np.conj(psi[:0:-1]), [psi[0].real], psi[1:]])
        res_ks = np.arange(-m, m + 1)
        oracle = evaluate_absorbing(sig.jumps, sig.magnitudes, x) - evaluate_absorbing(
            result.jumps, result.magnitudes, x
        )
        for s in range(0, len(x), 128):
            xb = x[s:s + 128]
            smooth = np.exp(1j * np.outer(xb, sig_ks)) @ sig_c
            smooth -= np.exp(1j * np.outer(xb, res_ks)) @ result.corrected.coeffs
            oracle[s:s + 128] += smooth.real
        want = float(np.max(np.abs(oracle)))
        got = sup_error_away(sig, result, radius, grid_size)
        assert abs(got - want) <= 1e-12

    def test_matches_pointwise_evaluation(self):
        # the arbitrary-x evaluators agree with the grid path on the kept points
        sig = random_piecewise_signal(2, 1, seed=4, psi_decay=4.0, psi_degree=8192)
        result = reconstruct(signal_coeffs(sig, 128), 2, 1, 8.0)
        grid = -math.pi + 2 * math.pi * np.arange(999) / 999
        x = grid[np.abs(np.angle(np.exp(1j * (grid - sig.jumps[0])))) > 0.1]
        want = float(np.max(np.abs(pd.evaluate_signal(sig, x) - result.evaluate(x))))
        assert abs(sup_error_away(sig, result, 0.1, 999) - want) <= 1e-12


class TestSupErrorAwayMemo:
    """The signal's side of sup_error_away, which depends only on (signal,
    grid size, radius), is kept in a one-entry memo on the signal."""

    @staticmethod
    def _count_absorbing(monkeypatch):
        """The grid sizes of the absorbing-part evaluations made from now on."""
        calls, core = [], pd.fourier._absorbing

        def counted(positions, rows, x):
            calls.append(len(x))
            return core(positions, rows, x)

        monkeypatch.setattr(pd.fourier, "_absorbing", counted)
        return calls

    def test_six_bandwidths_evaluate_the_signal_once(self, monkeypatch):
        # criterion 6's (1, 2) cells: one fill, then one estimate per bandwidth
        spec, separation = _CRITERION_6_SIGNALS[1], _CRITERION_6_SEPARATIONS[1]
        sig = random_piecewise_signal(seed=0, **spec)
        results = [reconstruct(signal_coeffs(sig, m), 1, 2, separation) for m in FOURIER_M_VALUES]
        calls = self._count_absorbing(monkeypatch)
        for result in results:
            sup_error_away(sig, result, 0.1, 1024)
        assert calls == [1024] * 7

    @staticmethod
    def _one_fold(sig, result, radius, n):
        """sup_error_away without the memo: both runs folded at once."""
        grid = -math.pi + 2 * math.pi * np.arange(n) / n
        keep = np.all([np.abs(np.mod(grid - xj + math.pi, 2 * math.pi) - math.pi) > radius
                       for xj in sig.jumps], axis=0)
        psi, m = sig._psi_array, result.corrected.bandwidth
        diff = (
            evaluate_absorbing(sig.jumps, sig.magnitudes, grid)
            - evaluate_absorbing(result.jumps, result.magnitudes, grid)
            + psi[0].real
            + _grid_series([(1, 2.0 * psi[1:]), (-m, -result.corrected.coeffs)], n).real
        )
        return float(np.max(np.abs(diff[keep])))

    @pytest.mark.parametrize("spec, separation", zip(_CRITERION_6_SIGNALS, _CRITERION_6_SEPARATIONS),
                             ids=_CRITERION_6_IDS)
    def test_warm_and_cold_calls_give_the_one_fold_bits(self, spec, separation):
        d, k = spec["smoothness"], spec["num_jumps"]
        for seed in range(2):
            sig = random_piecewise_signal(seed=seed, **spec)
            results = [reconstruct(signal_coeffs(sig, m), d, k, separation) for m in FOURIER_M_VALUES]
            for n in (1024, 999, 100):
                for result in results:
                    warm = sup_error_away(sig, result, 0.1, n)
                    cold = sup_error_away(dataclasses.replace(sig), result, 0.1, n)
                    want = self._one_fold(sig, result, 0.1, n)
                    assert {np.float64(v).tobytes() for v in (warm, cold, want)} == {np.float64(want).tobytes()}
                assert list(sig._grid_memo) == [(n, 0.1)]

    def test_a_new_key_replaces_the_entry(self, monkeypatch, one_jump_case):
        sig, result = one_jump_case
        sig = dataclasses.replace(sig)  # the fixture's signal may hold an entry
        calls = self._count_absorbing(monkeypatch)
        for n, radius, fills in [(1024, 0.1, 1), (1024, 0.1, 0), (999, 0.1, 1),
                                 (999, 0.2, 1), (999, 0.2, 0), (1024, 0.1, 1)]:
            del calls[:]
            got = sup_error_away(sig, result, radius, n)
            assert calls == [n] * (1 + fills)
            assert list(sig._grid_memo) == [(n, radius)]
            assert got == sup_error_away(dataclasses.replace(sig), result, radius, n)
        grid, keep, absorbing, _, bins = sig._grid_memo[(1024, 0.1)]
        assert not any(a.flags.writeable for a in (grid, keep, absorbing, bins))

    def test_a_raising_call_stores_nothing(self, one_jump_case):
        sig, result = one_jump_case
        sig = dataclasses.replace(sig)
        for _ in range(2):
            with pytest.raises(ValidationError, match="removed every grid point"):
                sup_error_away(sig, result, 4.0, 64)
            assert sig._grid_memo == {}

    def test_outside_equality_hash_repr_dict_and_pickle(self, one_jump_case):
        sig, result = one_jump_case
        filled, fresh = dataclasses.replace(sig), dataclasses.replace(sig)
        before = (repr(filled), signal_to_dict(filled), pickle.dumps(filled))
        value = sup_error_away(filled, result, 0.1, 1024)
        assert filled._grid_memo and not fresh._grid_memo
        assert filled == fresh and hash(filled) == hash(fresh)
        assert (repr(filled), signal_to_dict(filled), pickle.dumps(filled)) == before
        for copied in (pickle.loads(pickle.dumps(filled)), copy.copy(filled),
                       copy.deepcopy(filled), dataclasses.replace(filled)):
            assert copied == filled and copied._grid_memo == {}
            assert sup_error_away(copied, result, 0.1, 1024) == value


def _grid_series_add_at(runs, n):
    """The fold _grid_series replaced: np.add.at of the signed coefficients of
    the concatenated runs into n zeroed bins, then one inverse FFT."""
    ks = np.concatenate([k0 + np.arange(len(c)) for k0, c in runs])
    coeffs = np.concatenate([c for _, c in runs])
    bins = np.zeros(n, dtype=complex)
    np.add.at(bins, np.mod(ks, n), np.where(ks % 2 == 0, 1.0, -1.0) * coeffs)
    return np.fft.ifft(bins, norm="forward")


def _random_runs(rng, count):
    """`count` runs of random coefficients, first k in [-3000, 3000), lengths 0-4999."""
    return [(int(rng.integers(-3000, 3000)),
             rng.normal(size=length) + 1j * rng.normal(size=length))
            for length in rng.integers(0, 5000, size=count)]


class TestGridSeries:
    """The reshape fold adds each bin's terms in the order np.add.at did."""

    @pytest.mark.parametrize("n", [1024, 999, 100, 2])
    def test_equals_the_add_at_fold(self, n):
        rng = np.random.default_rng(n)
        cases = [_random_runs(rng, count) for count in (1, 2, 2, 3) * 10]
        # sup_error_away's shape: a positive run from 1, then a window from -M
        cases += [[(1, rng.normal(size=8192) + 1j * rng.normal(size=8192)),
                   (-m, rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1))]
                  for m in (64, 1000, 2048)]
        assert any(k0 < 0 for runs in cases for k0, _ in runs)
        assert any(k0 > 0 for runs in cases for k0, _ in runs)
        assert any(len(c) % n for runs in cases for _, c in runs)
        for runs in cases:
            assert _grid_series(runs, n).tobytes() == _grid_series_add_at(runs, n).tobytes()

    def test_one_bin_to_rounding(self):
        # at n = 1 numpy sums the one-column block pairwise, not in order
        rng = np.random.default_rng(1)
        for count in (1, 2, 3):
            runs = _random_runs(rng, count)
            want = _grid_series_add_at(runs, 1)
            scale = sum(np.sum(np.abs(c)) for _, c in runs)
            assert np.allclose(_grid_series(runs, 1), want, rtol=0, atol=1e-14 * scale)


class TestWindowFile:
    def test_roundtrip(self, tmp_path):
        sig = random_piecewise_signal(1, 2, seed=5)
        window = signal_coeffs(sig, 24)
        path = tmp_path / "win.txt"
        write_window_file(window, path)
        back = read_window_file(path)
        assert back.bandwidth == 24
        assert np.array_equal(back.coeffs, window.coeffs)

    def test_text_is_one_k_re_im_line_per_index(self, tmp_path):
        # the line format: k, then repr of the real and imaginary parts
        window = signal_coeffs(random_piecewise_signal(1, 2, seed=5), 24)
        coeffs = np.array(window.coeffs)
        coeffs[0], coeffs[-1] = complex(-0.0, 0.0), complex(1e-300, -0.0)
        window = CoefficientWindow(coeffs, 24)
        path = tmp_path / "win.txt"
        write_window_file(window, path)
        want = "".join(
            f"{k} {complex(c).real!r} {complex(c).imag!r}\n"
            for k, c in zip(range(-24, 25), window.coeffs)
        )
        assert path.read_bytes() == want.encode("utf-8")

    def test_rejects_gaps(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1 0.0 0.0\n1 0.0 0.0\n")
        with pytest.raises(ValidationError):
            read_window_file(path)

    @pytest.mark.parametrize("line", ["0.5 1.0 0", "0 1.0 x"])
    def test_rejects_non_numeric_fields(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"-1 0.0 0.0\n{line}\n1 0.0 0.0\n")
        with pytest.raises(ValidationError, match="bad window line"):
            read_window_file(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "win.txt"
        path.write_text("\n-1 0.5 0.25\n\n  \n0 1.0 0.0\n1 0.5 -0.25\n\n")
        window = read_window_file(path)
        assert window.bandwidth == 1
        assert np.array_equal(window.coeffs, [0.5 + 0.25j, 1.0, 0.5 - 0.25j])

    @pytest.mark.parametrize("line", ["# comment", "0 1.0", "0 1.0 0.0 2.0"])
    def test_rejects_malformed_lines(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"-1 0.0 0.0\n{line}\n1 0.0 0.0\n")
        with pytest.raises(ValidationError, match="bad window line"):
            read_window_file(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_rejects_empty_file_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="empty window file"):
                read_window_file(path)

    def test_rejects_huge_index_without_allocating(self, tmp_path):
        # M = 10^12 from one line: the count check fires before any -M..M range
        path = tmp_path / "huge.txt"
        path.write_text("1000000000000 0.0 0.0\n")
        with pytest.raises(ValidationError, match="every k"):
            read_window_file(path)

    def test_rejects_non_ascii_index(self, tmp_path):
        # numpy's loadtxt crashed the interpreter now and then on this index
        path = tmp_path / "bad.txt"
        path.write_text("-1 0.0 0.0\n\U0006eed34\x90\x9b 1.0 0.0\n1 0.0 0.0\n", encoding="utf-8")
        for _ in range(20):
            with pytest.raises(ValidationError, match="bad window line"):
                read_window_file(path)

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("-1 0.0 0.0\n0 nan 0.0\n1 0.0 0.0\n")
        with pytest.raises(ValidationError):
            read_window_file(path)

    def test_rejects_infinite_without_warning(self, tmp_path):
        # the symmetry test ran on the infinite value before the finiteness check
        path = tmp_path / "inf.txt"
        path.write_text("-1 0.0 0.0\n0 1e400 0.0\n1 0.0 0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                read_window_file(path)

    def test_shuffled_order_roundtrip(self, tmp_path):
        window = signal_coeffs(random_piecewise_signal(2, 1, seed=8), 40)
        path = tmp_path / "win.txt"
        write_window_file(window, path)
        lines = path.read_text().splitlines()
        np.random.default_rng(0).shuffle(lines)
        path.write_text("\n".join(lines) + "\n")
        back = read_window_file(path)
        assert back.bandwidth == 40
        assert back.coeffs.tobytes() == window.coeffs.tobytes()
