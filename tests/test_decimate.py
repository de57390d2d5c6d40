import cmath
import math

import numpy as np
import pytest

from pronydec import (
    AmbiguousBranchError,
    PronyModel,
    SampleSet,
    SamplingScheme,
    ValidationError,
    add_noise,
    annihilation_solve_single,
    circle_distance,
    close_node_improvement,
    coeff_error_bound,
    confluent_vandermonde_coeffs,
    decimated_solve,
    evaluate_moments,
    lm_refine,
    match_estimates,
    node_error_bound,
    prony_hankel_solve,
    undecimate_node,
)
from pronydec import decimate, forward, solvers, sweeps
from pronydec.decimate import BRANCH_TOL
from pronydec.forward import stride_separation
from pronydec.model import TWO_PI


def max_residual(model, samples):
    """max_k |m_k(model) - value_k| over the sample scheme."""
    return solvers._max_residual(model, forward._scheme_ks(samples.scheme), samples._array)


def brute_force_branch(w, p, hint):
    """Reference branch choice: all p candidates sorted by distance to the hint."""
    base = cmath.phase(w)
    candidates = [(base + TWO_PI * n) / p for n in range(p)]
    dists = sorted((circle_distance(theta, hint), theta) for theta in candidates)
    if dists[1][0] - dists[0][0] < BRANCH_TOL:
        raise AmbiguousBranchError("two branch candidates are equally close to the hint")
    return cmath.exp(1j * dists[0][1])


class TestUndecimateNode:
    def test_fourth_roots_hint_selects(self):
        z = undecimate_node(1.0, 4, math.pi / 2)
        assert abs(z - 1j) < 1e-15

    def test_stride_one_keeps_argument(self):
        w = cmath.exp(1.234j) * 1.3
        for hint in (-2.0, 0.0, 3.0):
            z = undecimate_node(w, 1, hint)
            assert abs(z - cmath.exp(1.234j)) < 1e-12

    def test_exact_branch_recovery(self):
        rng = np.random.default_rng(7)
        p = 7
        for _ in range(50):
            x = rng.uniform(-math.pi, math.pi)
            w = cmath.exp(1j * p * x)
            z = undecimate_node(w, p, x + 0.1)
            assert circle_distance(cmath.phase(z), x) < 1e-12

    def test_ambiguous_branch(self):
        # with p = 2 the branches of w = 1 are at 0 and pi; a hint at pi/2
        # is equidistant from both
        with pytest.raises(AmbiguousBranchError):
            undecimate_node(1.0, 2, math.pi / 2)

    def test_modulus_precondition(self):
        with pytest.raises(ValidationError):
            undecimate_node(0.1, 3, 0.0)

    @pytest.mark.parametrize("p", [2, 3, 7, 64, 1024])
    def test_closed_form_matches_candidate_search(self, p):
        rng = np.random.default_rng(p)
        for _ in range(200):
            w = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
            hint = rng.uniform(-4.0, 4.0)
            assert undecimate_node(w, p, hint) == brute_force_branch(w, p, hint)
            # halfway between the branches n and n + 1
            n = int(rng.integers(p))
            midpoint = (cmath.phase(w) + TWO_PI * (n + 0.5)) / p
            with pytest.raises(AmbiguousBranchError):
                brute_force_branch(w, p, midpoint)
            with pytest.raises(AmbiguousBranchError):
                undecimate_node(w, p, midpoint)

    @pytest.mark.parametrize("hint", [
        math.nan, math.inf, "0.5", pytest.param(10**5000, id="int-past-float-range")])
    def test_nonfinite_hint_rejected(self, hint):
        # the string raised a bare TypeError and the integer an OverflowError
        with pytest.raises(ValidationError, match="finite"):
            undecimate_node(1.0, 3, hint)


class TestDecimatedSolve:
    def test_identity_at_stride_one(self):
        truth = PronyModel(
            [cmath.exp(0.5j), cmath.exp(-1.2j)], [1, 1], [[1.0 + 1j], [2.0]]
        ).canonical()
        samples = evaluate_moments(truth, SamplingScheme(0, 1, 8))
        base, _ = prony_hankel_solve(samples, (1, 1))
        piped, _ = decimated_solve(samples, (1, 1), base_solver="hankel", refine=False)
        # stride 1 with zero offset runs the identical pipeline
        assert piped.nodes == base.nodes
        assert piped.coefficients == base.coefficients

    def test_single_node_roundtrip(self):
        truth = PronyModel([cmath.exp(0.7j)], [1], [[1.0]])
        samples = evaluate_moments(truth, SamplingScheme(0, 10, 4))
        for hint in (0.6, 0.8):
            model, _ = decimated_solve(samples, (1,), [hint], base_solver="hankel")
            assert circle_distance(model.node_args[0], 0.7) < 1e-12

    def test_hints_required_for_stride(self):
        truth = PronyModel([cmath.exp(0.7j)], [1], [[1.0]])
        samples = evaluate_moments(truth, SamplingScheme(0, 10, 4))
        with pytest.raises(ValidationError, match="hints"):
            decimated_solve(samples, (1,), base_solver="hankel")

    def test_annihilation_base(self):
        truth = PronyModel([cmath.exp(-0.4j)], [2], [[1.0, 0.5j]])
        samples = evaluate_moments(truth, SamplingScheme(5, 5, 3))
        model, report = decimated_solve(
            samples, (2,), [-0.45], base_solver="annihilation"
        )
        assert circle_distance(model.node_args[0], -0.4) < 1e-10
        res = match_estimates(model, truth)
        assert res.max_coeff_error < 1e-8

    def test_multi_node_hint_matching(self):
        truth = PronyModel(
            [cmath.exp(1.0j), cmath.exp(-0.8j)], [1, 1], [[1.0], [1.0 - 1j]]
        ).canonical()
        samples = evaluate_moments(truth, SamplingScheme(0, 6, 8))
        # hints deliberately out of canonical order
        model, _ = decimated_solve(samples, (1, 1), [1.05, -0.85], base_solver="hankel")
        res = match_estimates(model, truth)
        assert res.max_node_error < 1e-10
        assert res.max_coeff_error < 1e-8

    def test_hint_matching_ten_nodes(self):
        args = np.linspace(-1.4, 1.4, 10)
        truth = PronyModel(
            [cmath.exp(1j * a) for a in args], (1,) * 10, [[1.0 + 0.1j * j] for j in range(10)]
        )
        samples = evaluate_moments(truth, SamplingScheme(0, 2, 40))
        model, _ = decimated_solve(samples, (1,) * 10, list(args[::-1]), base_solver="hankel")
        for a in args:
            assert min(circle_distance(a, b) for b in model.node_args) <= 1e-8

    def test_hint_matching_nine_nodes(self):
        # a nearest-first pass in target order pairs one of these hints with
        # the wrong powered root and misses a node by 0.154 rad, although
        # every hint is within pi/2 of its node
        args = [-1.5622, -1.3909, -1.237, -0.9577, -0.6952, -0.1661, -0.0258, 0.1672, 1.1447]
        hints = [-1.5933, -1.3068, -1.1604, -0.9615, -0.7041, -0.1333, 0.0446, 0.1352, 1.2024]
        truth = PronyModel(
            [cmath.exp(1j * a) for a in args], (1,) * 9, [[1.0 + 0.2j * j] for j in range(9)]
        )
        samples = evaluate_moments(truth, SamplingScheme(0, 2, 27))
        for refine in (False, True):
            model, _ = decimated_solve(samples, (1,) * 9, hints, base_solver="hankel",
                                       refine=refine)
            assert match_estimates(model, truth).max_node_error <= 1e-10

    @pytest.mark.parametrize("mults", [(), (0,), (1, -1)])
    def test_rejects_bad_multiplicities(self, mults):
        truth = PronyModel([cmath.exp(0.7j)], [1], [[1.0]])
        samples = evaluate_moments(truth, SamplingScheme(0, 1, 8))
        with pytest.raises(ValidationError, match="multiplicities"):
            decimated_solve(samples, mults, base_solver="hankel")

    def test_esprit_base(self):
        truth = PronyModel(
            [cmath.exp(1.0j), cmath.exp(-0.8j)], [1, 1], [[1.0], [2.0]]
        ).canonical()
        samples = evaluate_moments(truth, SamplingScheme(0, 4, 9))
        model, _ = decimated_solve(samples, (1, 1), [1.0, -0.8], base_solver="esprit")
        assert match_estimates(model, truth).max_node_error < 1e-9


_PAIR = PronyModel([cmath.exp(0.5j), cmath.exp(-1.2j)], [1, 1], [[1.0 + 1j], [2.0]])


@pytest.mark.parametrize("name, mults, hints, message", [
    ("esprit", (2,), None, "the subspace solver handles simple nodes only"),
    ("annihilation", (1, 1), [0.5, -1.2], "the annihilation solver handles a single node only"),
    ("annihilation", (1,), None, "the annihilation solver needs a node-argument hint"),
    ("lm", (1, 1), None, "the lm solver needs node-argument hints"),
    ("bogus", (1, 1), None,
     "unknown base solver 'bogus'; pick from ('hankel', 'esprit', 'annihilation', 'lm')"),
    ("esprit", (1,) * 6, None, "need at least 13 samples, got 12"),
    ("annihilation", (12,), [0.5], "need at least 13 samples, got 12"),
], ids=["esprit-multiple-node", "annihilation-two-nodes", "annihilation-no-hint", "lm-no-hints",
        "unknown-solver", "esprit-too-few-samples", "annihilation-too-few-samples"])
def test_structural_error_messages(name, mults, hints, message):
    """Each base solver's own structural check, raised through decimated_solve."""
    samples = evaluate_moments(_PAIR, SamplingScheme(0, 1, 12))
    with pytest.raises(ValidationError) as exc:
        decimated_solve(samples, mults, hints, base_solver=name)
    assert str(exc.value) == message


@pytest.mark.parametrize("hints", ["12", ["0.5", "1.0"], [0.5j, 1.0], 0.7, {0.5: 1, -1.0: 2},
                                   np.array([[0.5, -1.0]]), [10**5000, 1.0]],
                         ids=["string", "numeric-strings", "complex", "number", "dict", "2-d-array",
                              "int-past-float-range"])
def test_malformed_hints_rejected(hints):
    """The string "12" became the hints 1.0 and 2.0, numeric strings parsed
    silently and a complex hint raised a bare TypeError; a bare number raised
    a bare TypeError, and a dict solved silently through its keys."""
    samples = evaluate_moments(_PAIR, SamplingScheme(0, 1, 12))
    with pytest.raises(ValidationError, match="finite real"):
        decimated_solve(samples, (1, 1), hints)


def test_one_hint_per_node():
    samples = evaluate_moments(_PAIR, SamplingScheme(0, 3, 12))
    with pytest.raises(ValidationError, match="need one hint per node"):
        decimated_solve(samples, (1, 1), [0.5])


def test_integer_and_numpy_hints_accepted():
    samples = evaluate_moments(_PAIR, SamplingScheme(0, 3, 12))
    want = decimated_solve(samples, (1, 1), [0.5, -1.0])
    assert decimated_solve(samples, (1, 1), [np.float64(0.5), -1]) == want
    assert decimated_solve(samples, (1, 1), np.array([0.5, -1.0])) == want


@pytest.mark.parametrize("p, solver", [
    pytest.param(1, "lm", id="1"),
    pytest.param(8, "lm", id="8"),
    pytest.param(32, "lm", id="32"),
    pytest.param(1, "hankel", id="hankel-1"),
])
def test_lm_base_matches_hint_start_refinement(p, solver):
    """decimated_solve(base_solver="lm") against LM started at the hints with
    coefficients fitted there, on criterion 3's lm configuration; for another
    base solver, against lm_refine from its unrefined solve."""
    config = sweeps.SweepConfig(
        kind="fixed-count-decimation", seeds=list(range(10)), noise=1e-4, solver=solver,
        p_values=[1, 8, 32], count=66, model={"kind": "two-node", "gap": 1e-2},
    )
    scheme = SamplingScheme(0, p, config.count)
    ks = np.asarray(scheme.indices)
    for seed in config.seeds:
        truth = sweeps._build_model(config, seed)
        union, eta = sweeps._union_noise(config, seed, truth)
        values = np.asarray(evaluate_moments(truth, scheme).values) + eta[np.searchsorted(union, ks)]
        samples = SampleSet(scheme, tuple(values), config.noise)

        if solver == "lm":
            nodes = tuple(cmath.exp(1j * a) for a in truth.node_args)
            coeffs = confluent_vandermonde_coeffs(nodes, truth.multiplicities, samples)
            start = PronyModel(nodes, truth.multiplicities, coeffs)
        else:
            start = decimated_solve(samples, truth.multiplicities, truth.node_args,
                                    base_solver=solver, refine=False)[0]
        reference = lm_refine(samples, start)
        solved = decimated_solve(samples, truth.multiplicities, truth.node_args, base_solver=solver)
        assert solved[1].iterations == reference[1].iterations
        errors = []
        for estimate, _ in (solved, reference):
            match = match_estimates(estimate, truth)
            errors.append([abs(estimate.nodes[match.assignment[j]] - z)
                           for j, z in enumerate(truth.nodes)])
        np.testing.assert_allclose(errors[0], errors[1], rtol=1e-9, atol=0)


@pytest.mark.parametrize("hints", [(0.5, -1.2), (-1.2, 0.5)])
def test_refined_solve_is_lm_refine_of_the_unrefined_solve(hints):
    """Refinement starts from the undecimated node arguments in canonical
    order, whatever the hint order: the parent's pipeline, bit for bit."""
    scheme = SamplingScheme(2, 3, 16)
    samples = add_noise(evaluate_moments(_PAIR, scheme), 1e-4, seed=5)
    start, _ = decimated_solve(samples, (1, 1), hints, base_solver="hankel", refine=False)
    reference = lm_refine(samples, start)
    solved = decimated_solve(samples, (1, 1), hints, base_solver="hankel")
    assert solved[0] == reference[0]
    assert solved[1].iterations == reference[1].iterations > 1
    assert solved[1].residual == reference[1].residual


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count forward._kernel's calls under both names it is called by."""
    calls = []
    kernel = forward._kernel

    def counting(*args, **kwargs):
        calls.append(args[0])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(forward, "_kernel", counting)
    monkeypatch.setattr(solvers, "_kernel", counting)
    return calls


@pytest.mark.parametrize("solver, mults, hints", [
    ("hankel", (1, 1), [0.5, -1.2]),
    ("esprit", (1, 1), [0.5, -1.2]),
    ("annihilation", (2,), [-0.45]),
    ("lm", (1, 1), [0.5, -1.2]),
])
def test_unrefined_solve_forms_one_kernel(kernel_calls, solver, mults, hints):
    # the fit's kernel also gives the residual; none is built after it
    truth = _PAIR if len(mults) == 2 else PronyModel([cmath.exp(-0.4j)], [2], [[1.0, 0.5j]])
    samples = add_noise(evaluate_moments(truth, SamplingScheme(2, 3, 16)), 1e-4, seed=5)
    kernel_calls.clear()
    decimated_solve(samples, mults, hints, base_solver=solver, refine=False)
    assert len(kernel_calls) == 1


@pytest.mark.parametrize("solver", ["hankel", "lm"])
def test_refined_solve_forms_one_kernel_per_trial_point(kernel_calls, monkeypatch, solver):
    # one kernel per trial point, the start included; the residual reads the
    # last accepted one's, so no kernel follows the refinement
    trials = []
    trial = solvers._trial

    def counting_trial(*args):
        trials.append(args[0])
        return trial(*args)

    monkeypatch.setattr(solvers, "_trial", counting_trial)
    samples = add_noise(evaluate_moments(_PAIR, SamplingScheme(2, 3, 16)), 1e-4, seed=5)
    kernel_calls.clear()
    _, report = decimated_solve(samples, (1, 1), [0.5, -1.2], base_solver=solver)
    assert report.iterations > 1
    assert len(kernel_calls) == len(trials) > 1
    kernel_calls.clear()
    trials.clear()
    model, _ = lm_refine(samples, _PAIR)
    # lm_refine too, when a step is accepted (else it also evaluates init's own residual)
    assert model.nodes != _PAIR.nodes
    assert len(kernel_calls) == len(trials) > 1


def test_residual_reads_the_last_accepted_point_after_rejected_trials(monkeypatch):
    # each trial point is formed in the spare workspace and an accepted one
    # swaps it in, so trials rejected after the last accepted one leave the
    # A the residual reads untouched: max|A c - q| at the refinement's final
    # argument and the model's coefficients, bit for bit
    truth = PronyModel([cmath.exp(-1.39j)], [2], [[-1.1 - 0.75j, 0.9 - 0.5j]])
    samples = add_noise(evaluate_moments(truth, SamplingScheme(2, 1, 16)), 1e-3, seed=13)
    trials, ends = [], []
    trial, refine = solvers._trial, decimate._refine

    def recording_trial(*args):
        trials.append(args[0])
        return trial(*args)

    def recording_refine(*args):
        ends.append(refine(*args))
        return ends[-1]

    monkeypatch.setattr(solvers, "_trial", recording_trial)
    monkeypatch.setattr(decimate, "_refine", recording_refine)
    model, report = decimated_solve(samples, (2,), [-1.38])
    thetas = ends[0][0]
    last_accepted = max(i for i, t in enumerate(trials) if t is thetas)
    assert 0 < last_accepted < len(trials) - 1
    assert model.nodes == (cmath.exp(1j * thetas[0]),)
    matrix = forward._kernel(thetas, (2,), forward._scheme_ks(samples.scheme))
    direct = np.max(np.abs(matrix @ np.array(model.coefficients[0]) - samples._array))
    assert report.residual == direct


@pytest.mark.parametrize("refine", [False, True])
def test_residual_is_the_max_abs_residual_of_the_model(refine):
    # read from the fit's kernel: equal bit for bit for one node, where the
    # canonical order is the finder's, and to rounding for two
    one = PronyModel([cmath.exp(-0.4j)], [2], [[1.0, 0.5j]])
    for truth, hints, solver in ((one, [-0.45], "annihilation"), (_PAIR, [0.5, -1.2], "hankel")):
        samples = add_noise(evaluate_moments(truth, SamplingScheme(2, 3, 16)), 1e-4, seed=5)
        model, report = decimated_solve(samples, truth.multiplicities, hints,
                                        base_solver=solver, refine=refine)
        direct = max_residual(model, samples)
        if truth is one and not refine:
            assert report.residual == direct
        else:
            assert report.residual == pytest.approx(direct, rel=1e-9, abs=1e-15)


def test_refine_start_must_be_regular():
    """The coefficients fitted at the start decide regularity: a vanishing
    top-order coefficient is rejected before refining."""
    samples = evaluate_moments(PronyModel([1.0], [2], [[1.0, 0.0]]), SamplingScheme(0, 1, 12))
    with pytest.raises(ValidationError, match="not a regular point at the scheme stride"):
        decimated_solve(samples, (2,), [0.0], base_solver="lm")


def test_refine_needs_as_many_samples_as_coefficients():
    samples = evaluate_moments(_PAIR, SamplingScheme(0, 3, 1))
    for refine in (True, False):
        with pytest.raises(ValidationError, match="need at least as many samples as coefficients"):
            decimated_solve(samples, (1, 1), [0.5, -1.2], base_solver="lm", refine=refine)


class TestNodeErrorBound:
    def _two_node_model(self):
        return PronyModel(
            [cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 3)],
            [1, 1],
            [[1.0], [1.0]],
        )

    def test_printed_formula_value(self):
        model = self._two_node_model()
        # separation 2*sin(7*pi/24); R = 4; simple nodes with unit coefficients
        sep = 2 * math.sin(7 * math.pi / 24)
        expected = 2.0 * (2.0 / sep) ** 4 * 1e-6
        bounds = node_error_bound(model, 1, 1e-6)
        assert bounds[0] == pytest.approx(expected, rel=1e-12)
        assert bounds[0] == pytest.approx(5.05e-6, rel=1e-2)

    def test_stride_scaling_single_node(self):
        # one node: separation is 2 by convention, so the bound scales as 1/p
        model = PronyModel([cmath.exp(0.2j)], [1], [[2.0]])
        b1 = node_error_bound(model, 1, 1e-4)[0]
        b2 = node_error_bound(model, 2, 1e-4)[0]
        assert b2 == pytest.approx(b1 / 2)

    def test_zero_noise(self):
        assert np.all(node_error_bound(self._two_node_model(), 1, 0.0) == 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_nonfinite_eps_rejected(self, eps):
        with pytest.raises(ValidationError, match="finite"):
            node_error_bound(self._two_node_model(), 1, eps)
        with pytest.raises(ValidationError, match="finite"):
            coeff_error_bound(self._two_node_model(), 0, 1, eps)

    def test_irregular_rejected(self):
        model = PronyModel([1.0, -1.0], [1, 1], [[1.0], [1.0]])
        with pytest.raises(ValidationError):
            node_error_bound(model, 2, 1e-6)


class TestCoeffErrorBound:
    def test_printed_formula_value(self):
        model = PronyModel(
            [cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 3)],
            [1, 1],
            [[1.0], [1.0]],
        )
        sep = 2 * math.sin(7 * math.pi / 24)
        eps = 1e-6
        expected = (2.0 / sep) ** 4 * (0.5 + 4.0 / sep) * (1.0 + 0.0) * eps
        bounds = coeff_error_bound(model, 0, 1, eps, constant=1.0)
        assert bounds[0][0] == pytest.approx(expected, rel=1e-12)

    def test_zero_noise(self):
        model = PronyModel([cmath.exp(0.2j)], [1], [[2.0]])
        assert coeff_error_bound(model, 3, 2, 0.0)[0][0] == 0.0

    def test_offset_power_scaling(self):
        # multiplicity 3, middle coefficient: offset enters as t^(m - i) = t^2
        model = PronyModel([cmath.exp(0.2j)], [3], [[1.0, 1.0, 1.0]])
        b1 = coeff_error_bound(model, 2, 1, 1e-6)[0][1]
        b4 = coeff_error_bound(model, 8, 1, 1e-6)[0][1]
        assert b4 == pytest.approx(16 * b1)

    def test_constant_must_be_positive(self):
        model = PronyModel([cmath.exp(0.2j)], [1], [[2.0]])
        with pytest.raises(ValidationError):
            coeff_error_bound(model, 0, 1, 1e-6, constant=0.0)

    @pytest.mark.parametrize("constant", [math.nan, "2", pytest.param(10**5000, id="int-past-float-range")])
    def test_constant_must_be_finite_real(self, constant):
        # the string raised a bare TypeError and the integer an OverflowError
        model = PronyModel([cmath.exp(0.2j)], [1], [[2.0]])
        with pytest.raises(ValidationError, match="the bound constant must be finite and positive"):
            coeff_error_bound(model, 0, 1, 1e-6, constant=constant)


class TestCloseNodeImprovement:
    def test_values(self):
        assert close_node_improvement(1, 4, 1) == 1.0
        assert close_node_improvement(1, 4, 2) == pytest.approx(2.0 ** -5)
        assert close_node_improvement(2, 4, 10) == pytest.approx(1e-6)


class TestBoundMonotonicity:
    def test_bound_nonincreasing_when_separation_nondecreasing(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            args = rng.uniform(-math.pi, math.pi, size=2)
            model = PronyModel(
                [cmath.exp(1j * a) for a in args], [1, 1], [[1.0], [1.5]]
            )
            prev_bound, prev_sep = None, None
            for p in (1, 2, 3, 5, 8):
                report_sep = stride_separation(model, p)
                if report_sep < 1e-6:
                    prev_bound, prev_sep = None, None
                    continue
                bound = float(np.max(node_error_bound(model, p, 1e-6)))
                if prev_bound is not None and report_sep >= prev_sep:
                    assert bound <= prev_bound * (1 + 1e-12)
                prev_bound, prev_sep = bound, report_sep
