import cmath
import json
import math

import numpy as np
import pytest

import pronydec as pd
from pronydec import (
    PronyModel,
    SampleSet,
    SamplingScheme,
    PiecewiseSignal,
    ValidationError,
    circle_distance,
    match_estimates,
    node_from_position,
    position_from_node,
)
from pronydec.model import (
    model_from_dict,
    model_to_dict,
    samples_from_dict,
    samples_to_dict,
    scheme_from_dict,
    signal_from_dict,
    signal_to_dict,
)
from pronydec.fourier import _draw_psi


def test_circle_distance_identity():
    assert circle_distance(0.0, 0.0) == 0.0


def test_circle_distance_wraparound():
    assert circle_distance(math.pi - 0.1, -math.pi + 0.1) == pytest.approx(0.2, abs=1e-12)


def test_circle_distance_direct():
    # min over shifts of |1.0 - 2.5 + 2*pi*n| is attained at n = 0
    assert circle_distance(1.0, 2.5) == pytest.approx(1.5, abs=1e-12)


def test_node_position_conversion_roundtrip():
    for x in [-3.0, -1.0, 0.0, 0.5, 3.0]:
        z = node_from_position(x)
        assert abs(z - cmath.exp(-1j * x)) < 1e-15
        assert position_from_node(z) == pytest.approx(x, abs=1e-12)


class TestPronyModel:
    def test_derived_counts(self):
        m = PronyModel([1.0, -1.0], [2, 1], [[1.0, 2.0], [3.0]])
        assert m.num_nodes == 2
        assert m.poly_order == 3
        assert m.unknown_count == 5
        assert m.unknown_count == m.poly_order + m.num_nodes

    def test_rejects_off_circle_nodes(self):
        with pytest.raises(ValidationError):
            PronyModel([1.1], [1], [[1.0]])

    def test_rejects_coefficient_length_mismatch(self):
        with pytest.raises(ValidationError):
            PronyModel([1.0], [2], [[1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PronyModel([], [], [])

    @pytest.mark.parametrize("rows", [
        [5.0], ["12"], [[[1.0]]], [{1.0: 2.0}], [np.float64(1.0)], [[1.0], [[1.0]]], [[1.0], ["1"]],
    ], ids=["number", "string", "2-d", "dict", "0-d-array", "ragged", "string-beside-number"])
    def test_rejects_rows_that_are_not_number_lists(self, rows):
        nodes = [1.0, -1.0][:len(rows)]
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            PronyModel(nodes, [1] * len(rows), rows)

    def test_rejects_misaligned_fields(self):
        with pytest.raises(ValidationError, match="nodes, multiplicities, coefficients must align"):
            PronyModel([1.0, -1.0], [1], [[1.0]])

    def test_random_model_gives_up_on_impossible_gaps(self):
        # three gaps of 2.5 exceed the circle
        with pytest.raises(ValidationError, match="could not place 3 angles with circle gaps >= 2.5"):
            pd.model._random_model(np.random.default_rng(0), 3, 2.5)

    def test_rejects_nan_node(self):
        # abs(abs(nan) - 1) > tol is False, so the unit-modulus test alone lets NaN through
        with pytest.raises(ValidationError):
            PronyModel([complex(math.nan, 0.0)], [1], [[1.0]])

    def test_rejects_inf_node(self):
        with pytest.raises(ValidationError):
            PronyModel([complex(math.inf, 0.0)], [1], [[1.0]])

    def test_rejects_inf_coefficient(self):
        with pytest.raises(ValidationError):
            PronyModel([1.0], [2], [[1.0, complex(math.inf, 0.0)]])

    def test_from_dict_rejects_nan_angle(self):
        data = {"nodes": [math.nan], "multiplicities": [1], "coefficients": [[[1.0, 0.0]]]}
        with pytest.raises(ValidationError):
            model_from_dict(data)

    def test_canonical_sorts_by_argument(self):
        m = PronyModel(
            [cmath.exp(2.0j), cmath.exp(-1.0j)], [1, 2], [[1.0], [2.0, 3.0]]
        ).canonical()
        assert m.node_args[0] == pytest.approx(-1.0)
        assert m.multiplicities == (2, 1)
        assert m.coefficients[0] == (2.0 + 0j, 3.0 + 0j)


class TestSampling:
    def test_scheme_indices(self):
        s = SamplingScheme(3, 5, 4)
        assert s.indices == (3, 8, 13, 18)

    def test_scheme_validation(self):
        with pytest.raises(ValidationError):
            SamplingScheme(-1, 1, 1)
        with pytest.raises(ValidationError):
            SamplingScheme(0, 0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), -math.inf])
    def test_sampleset_rejects_nonfinite_value(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            SampleSet(SamplingScheme(0, 1, 3), [1.0, bad, 2.0])

    def test_sampleset_nan_probe_stops_before_any_solver(self):
        # a NaN sample used to reach the solvers and leak numpy's LinAlgError
        with pytest.raises(ValidationError, match="finite"):
            SampleSet(SamplingScheme(0, 1, 8), [1, 2, math.nan, 4, 5, 6, 7, 8])

    @pytest.mark.parametrize("level", [
        math.nan, math.inf, "0.1", pytest.param(10**5000, id="int-past-float-range")])
    def test_sampleset_rejects_nonfinite_noise_level(self, level):
        # float() parsed the string and overflowed on the integer
        with pytest.raises(ValidationError, match="finite"):
            SampleSet(SamplingScheme(0, 1, 2), [1.0, 2.0], level)

    def test_sampleset_array_is_read_only_copy_of_values(self):
        q = np.array([1.0, 2.0 - 1.0j, 0.5j])
        samples = SampleSet(SamplingScheme(0, 1, 3), q, 0.1)
        assert isinstance(samples.values, tuple)
        assert samples._array.dtype == complex
        assert samples._array.tolist() == list(samples.values) == q.tolist()
        assert samples._array is not q
        q[0] = 7.0  # the caller's array is not shared
        assert samples.values[0] == 1.0 and samples._array[0] == 1.0
        with pytest.raises(ValueError):
            samples._array[0] = 1.0

    def test_sampleset_array_outside_equality_hash_and_repr(self):
        a = SampleSet(SamplingScheme(0, 2, 2), np.array([1.0, 0.5j]), 0.1)
        b = SampleSet(SamplingScheme(0, 2, 2), (1.0, 0.5j), 0.1)
        assert a._array is not b._array
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert "_array" not in repr(a) and "array" not in repr(a)
        assert repr(a).endswith("values=((1+0j), 0.5j), noise_level=0.1)")
        assert a != SampleSet(SamplingScheme(0, 2, 2), (1.0, 0.25j), 0.1)

    def test_sampleset_length_check(self):
        with pytest.raises(ValidationError):
            SampleSet(SamplingScheme(0, 1, 3), [1.0, 2.0])


class TestMatchEstimates:
    def test_identity(self):
        m = PronyModel(
            [cmath.exp(0.3j), cmath.exp(-2.0j)], [1, 1], [[1.0 + 1j], [2.0]]
        )
        res = match_estimates(m, m)
        assert res.node_errors == (0.0, 0.0)
        assert res.max_coeff_error == 0.0
        assert res.assignment == (0, 1)

    def test_identity_ten_nodes(self):
        m = PronyModel(
            [cmath.exp(0.6j * j) for j in range(10)], (1,) * 10, [[1.0]] * 10
        )
        assert match_estimates(m, m).assignment == tuple(range(10))

    def test_crossed_assignment(self):
        truth = PronyModel(
            [cmath.exp(0j), cmath.exp(1j * math.pi / 2)], [1, 1], [[1.0], [1.0]]
        )
        est = PronyModel(
            [cmath.exp(1j * (math.pi / 2 + 1e-3)), cmath.exp(1j * 1e-3)],
            [1, 1],
            [[1.0], [1.0]],
        )
        res = match_estimates(est, truth)
        assert res.assignment == (1, 0)
        assert res.node_errors[0] == pytest.approx(1e-3, rel=1e-9)
        assert res.node_errors[1] == pytest.approx(1e-3, rel=1e-9)

    def test_small_perturbation_keeps_identity_assignment(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(20):
            args = sorted(rng.uniform(-math.pi, math.pi, size=3))
            gaps = [args[1] - args[0], args[2] - args[1], 2 * math.pi - (args[2] - args[0])]
            if min(gaps) < 0.2:
                continue
            truth = PronyModel(
                [cmath.exp(1j * a) for a in args], [1, 1, 1], [[1.0], [1.0], [1.0]]
            )
            delta = 0.4 * min(gaps) / 2
            est = PronyModel(
                [cmath.exp(1j * (a + delta * rng.uniform(-1, 1))) for a in args],
                [1, 1, 1],
                [[1.0], [1.0], [1.0]],
            )
            assert match_estimates(est, truth).assignment == (0, 1, 2)

    def test_structure_mismatch(self):
        a = PronyModel([1.0], [1], [[1.0]])
        b = PronyModel([1.0], [2], [[1.0, 1.0]])
        with pytest.raises(ValidationError):
            match_estimates(a, b)

    def test_multiplicity_respected(self):
        truth = PronyModel([1.0, -1.0], [2, 1], [[1.0, 1.0], [1.0]])
        est = PronyModel([-1.0, 1.0], [1, 2], [[1.0], [1.0, 1.0]])
        res = match_estimates(est, truth)
        assert res.assignment == (1, 0)
        assert res.max_node_error == 0.0


class TestPiecewiseSignal:
    def test_basic_construction(self):
        sig = PiecewiseSignal(0, [0.0], [[1.0]], [0.5], 1.0)
        assert sig.jumps == (0.0,)
        assert sig.min_separation == pytest.approx(2 * math.pi)

    def test_psi_decay_enforced(self):
        with pytest.raises(ValidationError):
            PiecewiseSignal(0, [0.0], [[1.0]], [0.0, 1.0], 0.5)  # |c_1| > 0.5

    def test_jump_order_enforced(self):
        with pytest.raises(ValidationError):
            PiecewiseSignal(0, [1.0, -1.0], [[1.0, 1.0]], [0.0], 1.0)

    def test_rejects_empty_smooth_part(self):
        with pytest.raises(ValidationError, match="psi_coeffs must contain at least the mean value"):
            PiecewiseSignal(0, [0.0], [[1.0]], [], 1.0)

    @pytest.mark.parametrize("x", [math.pi, -4.0])
    def test_rejects_jumps_outside_the_period(self, x):
        with pytest.raises(ValidationError, match=r"jump positions must lie in \[-pi, pi\)"):
            PiecewiseSignal(0, [x], [[1.0]], [0.0], 1.0)

    def test_rejects_no_jumps(self):
        with pytest.raises(ValidationError, match="at least one jump is required"):
            PiecewiseSignal(0, [], [[]], [0.0], 1.0)

    def test_rejects_jumps_equal_on_the_circle(self):
        # strictly increasing, but 1e-17 apart is no distance in float arithmetic
        with pytest.raises(ValidationError, match="jump positions must be distinct on the circle"):
            PiecewiseSignal(0, [0.0, 1e-17], [[1.0, 1.0]], [0.0], 1.0)

    @pytest.mark.parametrize("args", [
        (0, [0.5], [[math.nan]], [math.nan + 0j], math.nan),
        (0, [0.5], [[math.nan]], [0.1], 1.0),
        (0, [0.5], [[math.inf]], [0.1], 1.0),
        (0, [0.5], [[1.0]], [0.1, math.inf], math.inf),
        (0, [0.5], [[1.0]], [0.1, complex(0.0, math.nan)], 1.0),
        (0, [0.5], [[1.0]], [0.1], math.nan),
    ])
    def test_rejects_nonfinite(self, args):
        with pytest.raises(ValidationError, match="finite"):
            PiecewiseSignal(*args)

    def test_psi_array_is_read_only_copy_of_tuple(self):
        sig = PiecewiseSignal(0, [0.0], [[1.0]], [0.25, 0.1 - 0.2j, 0.05j], 1.0)
        assert isinstance(sig.psi_coeffs, tuple)
        assert sig._psi_array.dtype == complex
        assert sig._psi_array.tolist() == list(sig.psi_coeffs)
        with pytest.raises(ValueError):
            sig._psi_array[0] = 1.0

    def test_psi_array_outside_equality_hash_and_repr(self):
        a = PiecewiseSignal(1, [-1.0, 2.0], [[1.5, -2.0], [0.25, 0.5]], [0.1, 0.05 + 0.01j], 1.0)
        b = PiecewiseSignal(1, (-1.0, 2.0), ((1.5, -2.0), (0.25, 0.5)), (0.1, 0.05 + 0.01j), 1.0)
        assert a._psi_array is not b._psi_array
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert "_psi_array" not in repr(a) and "array" not in repr(a)
        assert repr(a).endswith("psi_coeffs=((0.1+0j), (0.05+0.01j)), psi_decay=1.0)")
        assert a != PiecewiseSignal(1, [-1.0, 2.0], [[1.5, -2.0], [0.25, 0.5]], [0.1, 0.05], 1.0)

    @pytest.mark.parametrize("psi", [[0.1, complex(math.inf, 0.0)], [0.1, 0.01, complex(0.0, math.nan)]])
    def test_nonfinite_psi_message(self, psi):
        with pytest.raises(ValidationError) as err:
            PiecewiseSignal(0, [0.5], [[1.0]], psi, 1.0)
        assert str(err.value) == "jump magnitudes and smooth-part coefficients must be finite"

    def test_imaginary_mean_message(self):
        with pytest.raises(ValidationError) as err:
            PiecewiseSignal(0, [0.5], [[1.0]], [0.1 + 2e-12j], 1.0)
        assert str(err.value) == "mean coefficient of the smooth part must be real"

    @pytest.mark.parametrize("d", [0, 2])
    def test_decay_bound_edge(self, d):
        # |psi_n| <= psi_decay * n^(-d-2) * (1 + 1e-9): the bound itself passes,
        # twice the slack fails and names the first offending index
        decay, n = 0.75, 3
        bound = decay * float(n) ** (-d - 2)
        psi = [0.0, 0.0, 0.0, bound * cmath.exp(0.3j), 0.0]
        PiecewiseSignal(d, [0.5], [[1.0]] * (d + 1), psi, decay)
        psi[n] = bound * (1 + 2e-9)
        psi.append(1.0)  # a later offender is not the one reported
        with pytest.raises(ValidationError) as err:
            PiecewiseSignal(d, [0.5], [[1.0]] * (d + 1), psi, decay)
        assert str(err.value) == f"smooth-part coefficient {n} exceeds the certified decay bound"

    def test_loader_rejects_nonfinite(self):
        data = {**SIGNAL_DICT, "psi_coeffs": [[0.1, 0.0], [math.inf, 0.0]], "psi_decay": math.inf}
        with pytest.raises(ValidationError, match="finite"):
            signal_from_dict(json.loads(json.dumps(data)))


_HUGE = 10**5000  # an integer past float range


@pytest.mark.parametrize("build, match", [
    (lambda: SampleSet(SamplingScheme(0, 1, 1), ["1"]), "sample values must be finite"),
    (lambda: SampleSet(SamplingScheme(0, 1, 1), [_HUGE]), "sample values must be finite"),
    (lambda: PronyModel(["1"], [1], [[1.0]]), "nodes must be finite"),
    (lambda: PronyModel([1.0], [1], [[_HUGE]]), "coefficients must be finite"),
    (lambda: PiecewiseSignal(0, ["0.5"], [[1.0]], [0.1], 1.0), "jump positions must be finite"),
    (lambda: PiecewiseSignal(0, [0.5], [["1"]], [0.1], 1.0),
     "jump magnitudes and smooth-part coefficients must be finite"),
    (lambda: PiecewiseSignal(0, [0.5], [[1.0]], [0.1], _HUGE), "psi_decay must be finite"),
    (lambda: pd.CoefficientWindow(["1", "0", "1"], 1), "window coefficients must be finite"),
    (lambda: pd.CoefficientWindow([_HUGE, 0, 0], 1), "window coefficients must be finite"),
], ids=["samples-string", "samples-huge", "model-string", "model-huge", "signal-string-jump",
        "signal-string-magnitude", "signal-huge-decay", "window-string", "window-huge"])
def test_values_checked_before_conversion(build, match):
    """A string was parsed (or accepted) and an integer past float range
    raised a bare OverflowError."""
    with pytest.raises(ValidationError, match=match):
        build()


class TestSerialization:
    def test_model_roundtrip_exact(self):
        m = PronyModel(
            [cmath.exp(0.123456789j), cmath.exp(-2.5j)],
            [2, 1],
            [[1.0 + 2.0j, -0.5j], [3.0]],
        )
        data = json.loads(json.dumps(model_to_dict(m)))
        back = model_from_dict(data)
        for za, zb in zip(m.nodes, back.nodes):
            assert abs(za - zb) < 1e-15
        assert back.multiplicities == m.multiplicities
        assert back.coefficients == m.coefficients

    def test_samples_roundtrip_exact(self):
        s = SampleSet(SamplingScheme(2, 3, 3), [1 + 1j, -2.25, 0.1j], 1e-4)
        back = samples_from_dict(json.loads(json.dumps(samples_to_dict(s))))
        assert back == s

    def test_signal_roundtrip_exact(self):
        sig = PiecewiseSignal(
            1, [-1.0, 2.0], [[1.5, -2.0], [0.25, 0.5]], [0.1, 0.05 + 0.01j], 1.0
        )
        back = signal_from_dict(json.loads(json.dumps(signal_to_dict(sig))))
        assert back == sig

    def test_signal_dict_pairs_match_tuple(self):
        sig = PiecewiseSignal(0, [0.5], [[1.0]], [-0.0, 0.1 - 0.0j, complex(-0.0, 0.2)], 1.0)
        pairs = signal_to_dict(sig)["psi_coeffs"]
        assert json.dumps(pairs) == json.dumps([[c.real, c.imag] for c in sig.psi_coeffs])
        assert all(type(x) is float for pair in pairs for x in pair)


SIGNAL_DICT = {
    "smoothness": 0, "jumps": [0.5], "magnitudes": [[1.0]],
    "psi_coeffs": [[0.1, 0.0]], "psi_decay": 1.0,
}


class TestMalformedData:
    """Missing keys, wrong types and bad [re, im] pairs are validation errors."""

    @pytest.mark.parametrize("data, match", [
        ({"nodes": [0.1]}, "malformed"),
        ({"nodes": 0.1, "multiplicities": [1], "coefficients": [[[1.0, 0.0]]]}, "malformed"),
        ({"nodes": [0.1], "multiplicities": [1], "coefficients": [[[1.0]]]}, "malformed"),
        ({"nodes": [0.1], "multiplicities": ["one"], "coefficients": [[[1.0, 0.0]]]},
         "multiplicities must be an integer >= 1, got 'one'"),
        ([0.1], "malformed"),
    ], ids=[f"data{i}" for i in range(5)])
    def test_model(self, data, match):
        with pytest.raises(ValidationError, match=match):
            model_from_dict(data)

    @pytest.mark.parametrize("data", [
        {"scheme": {"offset": 0, "stride": 1, "count": 1}, "values": [[1.0]], "noise_level": 0.0},
        {"scheme": {"offset": 0, "stride": 1}, "values": [[1.0, 0.0]], "noise_level": 0.0},
        {"scheme": {"offset": 0, "stride": 1, "count": 1}, "values": [[1.0, 0.0]]},
        {"scheme": {"offset": 0, "stride": 1, "count": 1}, "values": 1.0, "noise_level": 0.0},
    ])
    def test_samples(self, data):
        with pytest.raises(ValidationError, match="malformed"):
            samples_from_dict(data)

    @pytest.mark.parametrize("data, match", [
        ({"offset": 0, "stride": 1}, "malformed"),
        ({"offset": "zero", "stride": 1, "count": 2}, "offset must be an integer >= 0, got 'zero'"),
        (None, "malformed"),
    ], ids=["data0", "data1", "None"])
    def test_scheme(self, data, match):
        with pytest.raises(ValidationError, match=match):
            scheme_from_dict(data)

    @pytest.mark.parametrize("data", [
        {k: v for k, v in SIGNAL_DICT.items() if k != "psi_decay"},
        {**SIGNAL_DICT, "psi_coeffs": [[0.1]]},
        {**SIGNAL_DICT, "jumps": 0.5},
    ])
    def test_signal(self, data):
        with pytest.raises(ValidationError, match="malformed"):
            signal_from_dict(data)

    @pytest.mark.parametrize("load, data, match", [
        (model_from_dict, {"nodes": [0.1], "multiplicities": [math.inf],
                           "coefficients": [[[1.0, 0.0]]]},
         "multiplicities must be an integer >= 1, got inf"),
        (model_from_dict, {"nodes": [0.1], "multiplicities": [1],
                           "coefficients": [[[10**400, 0.0]]]}, "OverflowError"),
        (samples_from_dict, {"scheme": {"offset": math.inf, "stride": 1, "count": 1},
                             "values": [[1.0, 0.0]], "noise_level": 0.0},
         "offset must be an integer >= 0, got inf"),
        (samples_from_dict, {"scheme": {"offset": 0, "stride": 1, "count": 1},
                             "values": [[1.0, 0.0]], "noise_level": 10**400},
         "noise_level must be finite and nonnegative"),
        (signal_from_dict, {**SIGNAL_DICT, "smoothness": -math.inf},
         "smoothness must be an integer >= 0, got -inf"),
    ], ids=[f"{load}-data{i}" for i, load in enumerate(
        ["model_from_dict"] * 2 + ["samples_from_dict"] * 2 + ["signal_from_dict"])])
    def test_out_of_range_number(self, load, data, match):
        """An infinite integer field or an integer beyond float range raised
        OverflowError past the loader; the noise level is the constructor's to check."""
        with pytest.raises(ValidationError, match=match):
            load(data)

    @pytest.mark.parametrize("load, data", [
        (samples_from_dict, {"scheme": {"offset": 0, "stride": 1, "count": 1},
                             "values": [[1.0, 0.0]], "noise_level": "0.1"}),
        (samples_from_dict, {"scheme": {"offset": 0, "stride": 1, "count": 1},
                             "values": [["1", "0"]], "noise_level": 0.1}),
        (model_from_dict, {"nodes": ["0.5"], "multiplicities": [1], "coefficients": [[[1.0, 0.0]]]}),
        (signal_from_dict, {**SIGNAL_DICT, "psi_decay": "1.0"}),
        (signal_from_dict, {**SIGNAL_DICT, "jumps": ["0.5"]}),
    ], ids=["noise-level", "value-pair", "node-angle", "psi-decay", "jump"])
    def test_string_numbers_rejected(self, load, data):
        """float() in the loaders parsed these strings."""
        with pytest.raises(ValidationError):
            load(data)

    def test_signal_reference_loads(self):
        assert signal_from_dict(SIGNAL_DICT).jumps == (0.5,)

    @pytest.mark.parametrize("load, data", [
        (model_from_dict, {"nodes": "12", "multiplicities": [1, 1],
                           "coefficients": [[[1.0, 0.0]], [[1.0, 0.0]]]}),
        (signal_from_dict, {**SIGNAL_DICT, "jumps": "12", "magnitudes": [[1.0, 1.0]]}),
        (signal_from_dict, {**SIGNAL_DICT, "jumps": [0.5, 1.5], "magnitudes": ["12"]}),
        (samples_from_dict, {"scheme": {"offset": 0, "stride": 1, "count": 1},
                             "values": ["12"], "noise_level": 0.0}),
    ], ids=["nodes", "jumps", "magnitudes-row", "value-pair"])
    def test_string_is_not_a_list(self, load, data):
        """A string in a list field parsed character by character: nodes "12"
        gave arguments (1, 2), the value pair "12" gave 1+2j."""
        with pytest.raises(ValidationError, match="must be a list"):
            load(data)


# ---------------------------------------------------------------------------
# the one integer rule: counts, strides, orders and seeds are never truncated
# ---------------------------------------------------------------------------

_NODE = PronyModel([cmath.exp(0.7j)], [1], [[1.0]])
_SAMPLES = pd.evaluate_moments(_NODE, SamplingScheme(0, 1, 8))
_SIGNAL = pd.random_piecewise_signal(0, 1, seed=0, psi_degree=16)
_WINDOW = pd.signal_coeffs(_SIGNAL, 16)
_MOLLIFIER = pd.build_mollifier(0.0, 0.6, 0.2, 24)


_INTEGER_CASES = [
    ("multiplicities", PronyModel, ([1.0], [1.5], [[1.0]])),
    ("offset", SamplingScheme, (1.5, 1, 1)),
    ("stride", SamplingScheme, (0, 2.5, 1)),
    ("stride", SamplingScheme, (0, True, 1)),
    ("count", SamplingScheme, (0, 1, 1.5)),
    ("smoothness", PiecewiseSignal, (0.5, [0.5], [[1.0]], [0.1], 1.0)),
    ("smoothness", signal_from_dict, ({**SIGNAL_DICT, "smoothness": 0.5},)),
    ("multiplicities", pd.decimated_solve, (_SAMPLES, [1.5])),
    ("num_nodes", pd.esprit_solve, (_SAMPLES, 1.5)),
    ("offset", pd.coeff_error_bound, (_NODE, 1.5, 1, 1e-6)),
    ("stride", pd.regularity_check, (_NODE, 2.5)),
    ("stride", pd.undecimate_node, (1.0, 2.5, 0.0)),
    ("stride", pd.close_node_improvement, (1, 4, 1.5)),
    ("seed", pd.add_noise, (_SAMPLES, 0.1, 1.5)),
    ("bandwidth", pd.CoefficientWindow, (np.ones(3), 1.5)),
    ("bandwidth", pd.signal_coeffs, (_SIGNAL, 8.5)),
    ("smoothness", pd.eckhoff_transform, (_WINDOW, 0.5)),
    ("smoothness", pd.induced_prony_model, ([0.5], [[1.0]], 0.5)),
    ("smoothness", pd.magnitudes_from_coefficients, ([1.0], 0.5)),
    ("num_jumps", pd.initial_jump_estimates, (_WINDOW, 1.5)),
    ("degree", pd.build_mollifier, (0.0, 0.6, 0.2, 48.5)),
    ("out_bandwidth", pd.localize, (_WINDOW, _MOLLIFIER, 4.5)),
    ("smoothness", pd.reconstruct, (_WINDOW, 0.5, 1, 1.0)),
    ("num_jumps", pd.reconstruct, (_WINDOW, 0, 1.5, 1.0)),
    ("grid_size", pd.sup_error_away, (_SIGNAL, pd.reconstruct(_WINDOW, 0, 1, 1.0), 0.1, 64.5)),
    ("psi_degree", _draw_psi, (0, 1.0, 4.5, np.random.default_rng(0))),
    ("smoothness", pd.random_piecewise_signal, (0.5, 1, 0)),
    ("num_jumps", pd.random_piecewise_signal, (0, 1.5, 0)),
    ("seed", pd.random_piecewise_signal, (0, 1, 0.5)),
    ("index", _MOLLIFIER.coeff, (1.5,)),
    ("index", _MOLLIFIER.coeff, (True,)),
]


@pytest.mark.parametrize("call", [_MOLLIFIER.coeff], ids=["mollifier"])
def test_index_past_the_digit_limit(call):
    """The out-of-range message printed the index, which raised ValueError
    for an integer of more than 4,300 digits."""
    with pytest.raises(ValidationError, match="index"):
        call(10**5000)


@pytest.mark.parametrize("field, call, args", _INTEGER_CASES,
                         ids=[f"{field}-{call.__name__}" for field, call, _ in _INTEGER_CASES])
def test_fractional_integer_argument_is_rejected(field, call, args):
    """Each of these truncated a fraction (or a bool) to an int, or passed it on."""
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        call(*args)


# ---------------------------------------------------------------------------
# the order limit: V_l divides by (l + 1)!, and 171! is past float range
# ---------------------------------------------------------------------------

_ROWS_170 = [[1.0]] * 171
_ORDER_CASES = [
    ("smoothness", PiecewiseSignal, (170, [0.5], _ROWS_170, [0.0], 0.0)),
    ("smoothness", signal_from_dict, ({**SIGNAL_DICT, "smoothness": 170, "magnitudes": _ROWS_170},)),
    ("smoothness", pd.piecewise_poly_coeffs, ([0.5], _ROWS_170, 170, [1, 2])),
    ("smoothness", pd.eckhoff_transform, (_WINDOW, 170)),
    ("smoothness", pd.induced_prony_model, ([0.5], _ROWS_170, 170)),
    ("smoothness", pd.magnitudes_from_coefficients, ([1.0] * 171, 170)),
    ("smoothness", pd.reconstruct, (_WINDOW, 170, 1, 1.0)),
    ("smoothness", _draw_psi, (170, 1.0, 4, np.random.default_rng(0))),
    ("smoothness", pd.random_piecewise_signal, (170, 1, 0)),
    ("smoothness", pd.random_piecewise_signal, (10**12, 1, 0)),
    ("order", pd.fourier.jump_basis_eval, (170, [0.5])),
    ("order", pd.evaluate_absorbing, ([0.5], _ROWS_170, [0.1])),
    ("order", pd.ReconstructionResult((0.5,), _ROWS_170, _WINDOW, 170).evaluate, (0.1,)),
]


@pytest.mark.parametrize("field, call, args", _ORDER_CASES,
                         ids=[f"{field}-{call.__name__}" for field, call, _ in _ORDER_CASES])
def test_order_past_the_float_limit_is_rejected(field, call, args):
    """These accepted a smoothness of 170 or more: V_170 raised a bare
    OverflowError once evaluated, and a huge smoothness hung in
    random_piecewise_signal's per-order loop."""
    with pytest.raises(ValidationError, match=f"{field} must be at most 169, got"):
        call(*args)


def test_order_169_is_accepted_and_finite():
    rows = [[1.0]] * 170
    signal = PiecewiseSignal(169, [0.5], rows, [0.25, 0.0], 1.0)
    assert np.isfinite(pd.evaluate_signal(signal, np.linspace(-3.0, 3.0, 7))).all()
    assert np.isfinite(pd.fourier.jump_basis_eval(169, [0.1, 2.0])).all()
    assert pd.random_piecewise_signal(169, 1, 0, psi_degree=4).smoothness == 169
