import cmath
import inspect
import math
import pathlib

import numpy as np
import pytest

from pronydec import (
    PronyModel,
    RankDeficiencyError,
    SampleSet,
    SamplingScheme,
    SolverError,
    ValidationError,
    add_noise,
    annihilation_solve_single,
    confluent_vandermonde_coeffs,
    decimated_solve,
    esprit_solve,
    evaluate_moments,
    lm_refine,
    match_estimates,
    node_error_bound,
    prony_hankel_solve,
)
from pronydec import forward, solvers
from pronydec.solvers import _cluster_roots, _damped_step, _project_unit
from pronydec.sweeps import SweepConfig, run_sweep


def max_residual(model, samples):
    """max_k |m_k(model) - value_k| over the sample scheme."""
    return solvers._max_residual(model, forward._scheme_ks(samples.scheme), samples._array)


def exact_samples(model, count, offset=0, stride=1):
    return evaluate_moments(model, SamplingScheme(offset, stride, count))


def random_simple_model(rng, num_nodes, min_gap=0.3):
    while True:
        args = np.sort(rng.uniform(-math.pi, math.pi, size=num_nodes))
        gaps = np.diff(args).tolist() + [2 * math.pi - (args[-1] - args[0])]
        if num_nodes == 1 or min(gaps) >= min_gap:
            break
    coeffs = tuple(
        (complex(rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))),)
        for _ in range(num_nodes)
    )
    return PronyModel(
        tuple(cmath.exp(1j * a) for a in args), (1,) * num_nodes, coeffs
    ).canonical()


class TestHankelSolve:
    def test_single_constant(self):
        truth = PronyModel([1.0], [1], [[3.0]])
        model, report = prony_hankel_solve(exact_samples(truth, 4), (1,))
        assert abs(model.nodes[0] - 1.0) < 1e-12
        assert abs(model.coefficients[0][0] - 3.0) < 1e-12
        assert report.residual < 1e-12

    def test_two_simple_nodes(self):
        truth = PronyModel(
            [cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 3)],
            [1, 1],
            [[1.0], [1.0]],
        )
        model, _ = prony_hankel_solve(exact_samples(truth, 8), (1, 1))
        assert match_estimates(model, truth).max_node_error < 1e-10

    def test_double_root_cluster(self):
        truth = PronyModel([cmath.exp(1j * math.pi / 6)], [2], [[1.0, 1.0]])
        model, _ = prony_hankel_solve(exact_samples(truth, 6), (2,))
        # a double root splits numerically; the cluster centroid is looser
        assert abs(model.nodes[0] - truth.nodes[0]) < 1e-6

    def test_double_node_next_to_close_simple_node(self):
        # a double node with a simple node only 0.002 away: the double root's
        # numerical split is far narrower than the gap to the simple node
        truth = PronyModel(
            [1.0, cmath.exp(0.002j)], [2, 1], [[1.0, 0.5], [0.8]]
        )
        samples = exact_samples(truth, 10)
        model, report = prony_hankel_solve(samples, (2, 1))
        assert match_estimates(model, truth).max_node_error <= 1e-6
        assert "ambiguous-clustering" not in report.flags

    def test_mixed_multiplicities_exact(self):
        truth = PronyModel(
            [cmath.exp(0.7j), cmath.exp(-1.1j)], [2, 1], [[1.0, 0.5], [0.8]]
        )
        samples = exact_samples(truth, 12)
        model, report = prony_hankel_solve(samples, (2, 1))
        assert match_estimates(model, truth).max_node_error <= 1e-10
        assert "ambiguous-clustering" not in report.flags
        model, _ = decimated_solve(samples, (2, 1), refine=False)
        assert match_estimates(model, truth).max_node_error <= 1e-10

    def test_mixed_multiplicities_decimated(self):
        truth = PronyModel(
            [cmath.exp(0.7j), cmath.exp(-1.1j)], [2, 1], [[1.0, 0.5], [0.8]]
        )
        samples = exact_samples(truth, 12, stride=5)
        model, _ = decimated_solve(samples, (2, 1), (0.7, -1.1), refine=False)
        assert match_estimates(model, truth).max_node_error <= 1e-10

    @pytest.mark.parametrize("mults", [(2, 1, 1), (1, 3, 1), (2, 2, 1), (3, 2, 1)])
    def test_mixed_multiplicities_random(self, mults):
        rng = np.random.default_rng([len(mults), *mults])
        for _ in range(5):
            while True:
                args = np.sort(rng.uniform(-math.pi, math.pi, size=len(mults)))
                gaps = np.append(np.diff(args), 2 * math.pi - (args[-1] - args[0]))
                if min(gaps) >= 0.5:
                    break
            coeffs = [
                rng.uniform(0.5, 2.0, m) * np.exp(1j * rng.uniform(0, 2 * math.pi, m))
                for m in mults
            ]
            truth = PronyModel(np.exp(1j * args), mults, coeffs)
            samples = exact_samples(truth, 2 * sum(mults) + 6)
            model, _ = prony_hankel_solve(samples, mults)
            assert match_estimates(model, truth).max_node_error <= 1e-5

    def test_greedy_clustering_above_exhaustive_limit(self):
        # nine roots in four clusters (the former greedy fallback's range)
        truth = PronyModel(
            [cmath.exp(1j * a) for a in (-2.5, -0.8, 0.9, 2.4)],
            (2, 2, 2, 3),
            [[1.0, 0.5], [0.8j, -0.4], [1.2, 0.3j], [0.7, -0.2, 0.6]],
        )
        model, _ = prony_hankel_solve(exact_samples(truth, 30), (2, 2, 2, 3))
        assert match_estimates(model, truth).max_node_error <= 1e-8

    def test_degenerate_samples(self):
        # all-zero data cannot determine an annihilator
        samples = SampleSet(SamplingScheme(0, 1, 6), [0.0] * 6)
        with pytest.raises(RankDeficiencyError, match="degenerate"):
            prony_hankel_solve(samples, (1, 1))

    def test_count_precondition(self):
        truth = PronyModel([1.0], [1], [[1.0]])
        with pytest.raises(ValidationError):
            prony_hankel_solve(exact_samples(truth, 1), (1,))

    def test_zero_node_estimate_cannot_be_projected(self):
        # every finder projects its estimates onto the circle through this guard
        with pytest.raises(SolverError, match="collapsed to zero"):
            _project_unit(0j)


class TestClusterRoots:
    def test_radial_split_grouped(self):
        # a double root split radially sits at one argument; a cost search
        # pairs 1.05 with the simple root instead
        simple = cmath.exp(0.01j)
        centroids, flags = _cluster_roots(np.array([1.05, 0.95, simple]), (2, 1))
        assert abs(centroids[0] - 1.0) < 1e-12
        assert centroids[1] == simple
        assert flags == []

    def test_ambiguity_flagged(self):
        # three roots at one argument: no gap tells which two belong together
        _, flags = _cluster_roots(np.array([1.01, 0.99, 1.0]), (2, 1))
        assert "ambiguous-clustering" in flags

    def test_size_mismatch(self):
        # two pairs of close roots cannot form a triple and a single
        roots = np.exp(1j * np.array([0.0, 0.1, 2.0, 2.1]))
        with pytest.raises(SolverError, match="multiplicities"):
            _cluster_roots(roots, (3, 1))

    def test_singletons_are_the_general_paths_centroids(self):
        # with every cluster one root, each run the general path cuts is one
        # root, whose centroid is its one-element mean, in root order, and no
        # gap is flagged; that mean turns some signed zeros into +0.0, and
        # cmath.phase(-1 - 0j) is -pi where cmath.phase(-1 + 0j) is pi
        rng = np.random.default_rng(33)
        signed = [complex(-1.0, -0.0), complex(-0.0, 1.0), complex(-0.0, -0.0), complex(1.0, -0.0),
                  complex(-0.0, -1.0)]
        for n in range(1, 7):
            for _ in range(20):
                roots = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
                picks = rng.random(n) < 0.3
                roots[picks] = rng.choice(signed, size=int(picks.sum()))
                centroids, flags = _cluster_roots(roots, (1,) * n)
                means = [roots[[j]].mean() for j in range(n)]
                assert np.array(centroids).tobytes() == np.array(means).tobytes()
                assert flags == []


class TestColumnScale:
    def test_equals_the_all_columns_formula(self):
        # the norms of the distinct powers, gathered per column, are the
        # norms of all the columns, bit for bit
        rng = np.random.default_rng(32)
        for _ in range(300):
            mults = tuple(int(m) for m in rng.integers(1, 5, size=int(rng.integers(1, 5))))
            offset = int(rng.choice([0, int(rng.integers(1, 10**5))]))
            ks = offset + int(rng.integers(1, 33)) * np.arange(int(rng.integers(1, 2201)), dtype=float)
            powers = [l for m in mults for l in range(m)]
            want = np.exp2(np.round(np.log2(np.linalg.norm(ks[:, None] ** powers, axis=0))))
            assert solvers._column_scale(mults, ks).tobytes() == want.tobytes()


class TestAnnihilationSolve:
    def test_ratio_of_consecutive_samples(self):
        w = cmath.exp(1.1j)
        truth = PronyModel([w], [1], [[2.5]])
        samples = exact_samples(truth, 2)
        model, _ = annihilation_solve_single(samples, 1, w)
        # the order-1 equation is -w q_0 + q_1 = 0, i.e. w = q_1/q_0
        assert abs(model.nodes[0] - samples.values[1] / samples.values[0]) < 1e-14

    def test_double_node_exact(self):
        w = cmath.exp(1j * math.pi / 5)
        truth = PronyModel([w], [2], [[1.0, 1.0]])
        model, _ = annihilation_solve_single(exact_samples(truth, 4), 2, w)
        assert abs(model.nodes[0] - w) < 1e-12

    def test_triple_node_roundtrip(self):
        rng = np.random.default_rng(17)
        w = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        coeffs = tuple(complex(*rng.normal(size=2)) for _ in range(3))
        truth = PronyModel([w], [3], [coeffs])
        model, _ = annihilation_solve_single(exact_samples(truth, 8), 3, w)
        assert abs(model.nodes[0] - w) < 1e-10
        for got, want in zip(model.coefficients[0], coeffs):
            assert abs(got - want) < 1e-9

    def test_no_unimodular_root(self):
        # geometric sequence with ratio 10: the only root is far off the circle
        samples = SampleSet(SamplingScheme(0, 1, 4), [1.0, 10.0, 100.0, 1000.0])
        with pytest.raises(SolverError, match="no unimodular root"):
            annihilation_solve_single(samples, 1, 1.0)

    def test_root_on_hint_ray(self):
        # q_0 w^2 - 2 q_1 w + q_2 with roots w0 and 1.7 * w0 (inside [0.5, 2]):
        # their arguments tie at the hint w0, their complex distances do not
        w0 = cmath.exp(0.8j)
        values = [1.0, 1.35 * w0, 1.7 * w0 * w0]
        samples = SampleSet(SamplingScheme(0, 1, 3), values)
        model, _ = annihilation_solve_single(samples, 2, w0)
        assert abs(model.nodes[0] - w0) < 1e-14

    def test_zero_samples_vanish_identically(self):
        samples = SampleSet(SamplingScheme(0, 1, 2), [0.0, 0.0])
        with pytest.raises(SolverError, match="annihilation system vanished identically"):
            annihilation_solve_single(samples, 1, 1.0)

    def test_ambiguous_hint(self):
        # with exactly mult+1 samples the solved polynomial is
        # q_0 w^2 - 2 q_1 w + q_2; pick q so its roots are exp(+-0.5i),
        # both 0.5 away from the hint at argument 0
        values = [1.0, math.cos(0.5), 1.0]
        samples = SampleSet(SamplingScheme(0, 1, 3), values)
        with pytest.raises(SolverError, match="ambiguous"):
            annihilation_solve_single(samples, 2, 1.0)


class TestEspritSolve:
    def test_single_node(self):
        truth = PronyModel([cmath.exp(0.9j)], [1], [[1.5]])
        model, _ = esprit_solve(exact_samples(truth, 5), 1)
        assert abs(model.nodes[0] - truth.nodes[0]) < 1e-10

    def test_two_nodes(self):
        truth = PronyModel(
            [cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)],
            [1, 1],
            [[1.0], [1.0]],
        ).canonical()
        model, _ = esprit_solve(exact_samples(truth, 12), 2)
        assert match_estimates(model, truth).max_node_error < 1e-9

    def test_noisy_error_within_bound_scale(self):
        truth = PronyModel(
            [cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)],
            [1, 1],
            [[1.0], [1.0]],
        ).canonical()
        clean = exact_samples(truth, 16)
        errors = []
        for seed in range(100):
            noisy = add_noise(clean, 1e-3, seed)
            model, _ = esprit_solve(noisy, 2)
            errors.append(match_estimates(model, truth).max_node_error)
        bound = float(np.max(node_error_bound(truth, 1, 1e-3)))
        assert np.max(errors) < bound
        assert np.median(errors) < 1e-2

    def test_rank_collapse_raises(self):
        # rank-1 truth plus noise: the second/third singular values both sit at
        # the noise floor, so asking for two nodes trips the gap check
        truth = PronyModel([cmath.exp(0.3j)], [1], [[1.0]])
        noisy = add_noise(exact_samples(truth, 12), 1e-3, seed=0)
        with pytest.raises(SolverError, match="rank"):
            esprit_solve(noisy, 2)

    def test_weak_rank_warning_flag(self):
        # a tiny second amplitude leaves a detectable but weak rank-2 structure
        truth = PronyModel(
            [cmath.exp(0.3j), cmath.exp(-1.4j)], [1, 1], [[1.0], [1e-3]]
        ).canonical()
        noisy = add_noise(exact_samples(truth, 12), 3e-4, seed=9)
        model, report = esprit_solve(noisy, 2)
        assert "weak-rank-structure" in report.flags


@pytest.fixture
def refinements(monkeypatch):
    """The `_Refinement` of every `_refine` call lm_refine makes in the test."""
    records, refine = [], solvers._refine

    def recording(*args):
        records.append(refine(*args))
        return records[-1]

    monkeypatch.setattr(solvers, "_refine", recording)
    return records


class TestLmRefine:
    def _truth_and_samples(self):
        truth = PronyModel(
            [cmath.exp(1j * 0.8), cmath.exp(-1j * 1.7)],
            [1, 1],
            [[1.0 + 0.5j], [2.0]],
        ).canonical()
        return truth, exact_samples(truth, 8)

    def test_fixed_point(self, refinements):
        # on exact data the first step is rounding, below STEP_TOL
        truth, samples = self._truth_and_samples()
        model, report = lm_refine(samples, truth)
        assert model is truth
        assert report.iterations <= 1
        assert report.residual < 1e-12
        assert [end.stop for end in refinements] == ["step"]

    def test_large_residual_flagged_as_in_decimated_solve(self):
        # a one-node start on two-node data: both end on the same residual,
        # and lm_refine alone left it unflagged
        truth, _ = self._truth_and_samples()
        samples = add_noise(exact_samples(truth, 40), 1e-6, seed=0)
        _, solved = decimated_solve(samples, (1,), [0.7], base_solver="lm")
        _, refined = lm_refine(samples, PronyModel([cmath.exp(0.7j)], [1], [[1.0]]))
        assert refined.residual == solved.residual > 1.0
        assert refined.flags == solved.flags == ("large-residual",)

    def test_basin_roundtrip(self, refinements):
        truth, samples = self._truth_and_samples()
        perturbed = PronyModel(
            [z * cmath.exp(1e-3j) for z in truth.nodes],
            truth.multiplicities,
            [[c + 1e-3 for c in row] for row in truth.coefficients],
        )
        model, report = lm_refine(samples, perturbed)
        res = match_estimates(model, truth)
        assert res.max_node_error < 1e-10
        assert res.max_coeff_error < 1e-8
        assert [end.stop for end in refinements] == ["step"] and report.flags == ()

    def test_noisy_residual_feasibility(self, refinements):
        # at the noise floor no step can lower the cost by more than rounding
        truth, samples = self._truth_and_samples()
        eps = 1e-4
        noisy = add_noise(samples, eps, 3)
        model, report = lm_refine(noisy, truth)
        assert report.residual <= eps * math.sqrt(2 * noisy.scheme.count)
        assert [end.stop for end in refinements] == ["decrease"] and report.flags == ()

    @pytest.mark.parametrize("seed", range(3))
    def test_stationary_start_stops_on_the_gradient(self, refinements, seed):
        # noise orthogonal to A and D = dA/dtheta at the truth leaves the truth
        # a stationary point whose residual is the noise, 1e-3: J^T r is
        # rounding, far below GRAD_TOL * ||r||, at the first factorization
        truth, samples = self._truth_and_samples()
        ks = forward._scheme_ks(samples.scheme)
        matrix = forward._kernel(np.array(truth.node_args), truth.multiplicities, ks)
        basis = np.hstack([matrix, 1j * ks[:, None] * matrix])
        rng = np.random.default_rng(seed)
        noise = rng.normal(size=len(ks)) + 1j * rng.normal(size=len(ks))
        noise -= basis @ np.linalg.lstsq(basis, noise, rcond=None)[0]
        noisy = SampleSet(samples.scheme, samples._array + 1e-3 * noise / np.max(np.abs(noise)), 1e-3)
        model, report = lm_refine(noisy, truth)
        (end,) = refinements
        assert (end.stop, end.iterations, report.flags) == ("gradient", 1, ())
        assert end.thetas.tolist() == list(truth.node_args)
        assert report.residual == pytest.approx(1e-3, rel=1e-9)

    def test_fewer_samples_than_coefficients_rejected(self):
        # one sample, two coefficients: the start came back unchanged with
        # residual 0 and no flag
        truth, _ = self._truth_and_samples()
        start = PronyModel([z * cmath.exp(1e-2j) for z in truth.nodes], truth.multiplicities, truth.coefficients)
        with pytest.raises(ValidationError, match="need at least as many samples as coefficients"):
            lm_refine(exact_samples(truth, 1), start)

    def test_residual_never_worse_than_init(self):
        truth, samples = self._truth_and_samples()
        rng = np.random.default_rng(8)
        for _ in range(5):
            init = PronyModel(
                [z * cmath.exp(1j * rng.uniform(-0.05, 0.05)) for z in truth.nodes],
                truth.multiplicities,
                [[c * (1 + rng.uniform(-0.1, 0.1)) for c in row] for row in truth.coefficients],
            )
            model, report = lm_refine(samples, init)
            assert report.residual <= max_residual(init, samples) + 1e-15

    def test_irregular_init_rejected(self):
        truth = PronyModel([1.0], [2], [[1.0, 0.0]])
        samples = exact_samples(truth, 6)
        with pytest.raises(ValidationError):
            lm_refine(samples, truth)

    def test_start_judged_by_the_refit(self):
        # init's own vanishing coefficient was rejected, though the refit at
        # its nodes is regular; its coefficients never enter the iteration
        truth, samples = self._truth_and_samples()
        init = PronyModel(truth.nodes, truth.multiplicities, [[0.0], [2.0]])
        model, report = lm_refine(samples, init)
        assert match_estimates(model, truth).max_coeff_error < 1e-10
        assert report.residual < 1e-12

    def test_irregular_refit_rejected(self):
        # init's coefficients are regular, the refit's top-order one vanishes
        truth = PronyModel([1.0], [2], [[1.0, 0.0]])
        init = PronyModel([1.0], [2], [[1.0, 1.0]])
        with pytest.raises(ValidationError, match="not a regular point at the scheme stride 1"):
            lm_refine(exact_samples(truth, 6), init)

    def test_iteration_cap_flags_max_iterations(self, monkeypatch, refinements):
        truth, samples = self._truth_and_samples()
        perturbed = PronyModel([z * cmath.exp(1e-3j) for z in truth.nodes],
                               truth.multiplicities, truth.coefficients)
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 1)
        _, report = lm_refine(samples, perturbed)
        assert report.iterations == 1
        assert report.flags == ("max-iterations",)
        assert [end.stop for end in refinements] == ["cap"]

    @pytest.mark.parametrize("trial", ["larger-cost", "merged-nodes"])
    def test_rejected_trials_saturate_the_damping(self, monkeypatch, refinements, trial):
        # the data's node is a quarter turn (plus 1e-3) from the start's over
        # four samples, so the fit at the start is small and the damped steps
        # stay above STEP_TOL until the damping passes 1e14; every trial point
        # is rejected, by a larger cost or as a merged pair of nodes
        truth = PronyModel([cmath.exp(1j * (-1.0 + math.pi / 2 + 1e-3))], [1], [[1.0]])
        start = PronyModel([cmath.exp(-1j)], [1], [[1.0]])
        fit = solvers._trial
        calls = []

        def fake(thetas, *args):
            calls.append(thetas)
            if len(calls) == 1:
                return fit(thetas, *args)
            if trial == "merged-nodes":
                raise RankDeficiencyError("merged")
            r, coeffs, cost, matrix = fit(thetas, *args)
            return r, coeffs, 1e3, matrix

        monkeypatch.setattr(solvers, "_trial", fake)
        model, report = lm_refine(exact_samples(truth, 4), start)
        assert report.flags == ("damping-saturated",)
        assert report.iterations == len(calls) - 1
        assert model.nodes == start.nodes
        assert [end.stop for end in refinements] == ["damping"]


class TestTriangle:
    """`_trial` and `_kaufman` read the fit and the factored Jacobian from the
    small triangle of [A | D | q]; the oracles are the dense formulas."""

    @staticmethod
    def _draw(rng):
        """Node arguments 0.3 apart at the stride, the data's nodes 1e-3 from
        them, multiplicities 1-3, strides 1-32, counts from L to 2200."""
        k = int(rng.integers(1, 4))
        mults = tuple(int(m) for m in rng.integers(1, 4, size=k))
        stride = int(rng.integers(1, 33))
        while True:
            thetas = rng.uniform(-math.pi, math.pi, size=k)
            powered = np.exp(1j * stride * thetas)
            if k == 1 or min(abs(a - b) for i, a in enumerate(powered) for b in powered[i + 1:]) > 0.3:
                break
        count = int(np.exp(rng.uniform(math.log(sum(mults)), math.log(2200))))
        ks = stride + stride * np.arange(count, dtype=float)
        coeffs = rng.normal(size=sum(mults)) + 1j * rng.normal(size=sum(mults))
        q = solvers._kernel(thetas + 1e-3 * rng.normal(size=k), mults, ks) @ coeffs
        return thetas, mults, ks, q + 1e-3 * (rng.normal(size=count) + 1j * rng.normal(size=count))

    def test_matches_dense_formulas(self):
        rng = np.random.default_rng(23)
        shapes = set()
        for _ in range(60):
            thetas, mults, ks, q = self._draw(rng)
            width, count = sum(mults), len(ks)
            shapes.add((count < 2 * width + 1, len(mults) > 1))
            scale = solvers._column_scale(mults, ks)
            starts = np.cumsum((0,) + mults[:-1])
            work = np.empty((count, 2 * width + 1), dtype=complex)
            work[:, -1] = q
            r, coeffs, cost, matrix = solvers._trial(thetas, mults, ks, 1j * ks[:, None], scale, work)
            col_norms, s, vt, g = solvers._kaufman(r, coeffs, starts)

            assert np.array_equal(matrix, solvers._kernel(thetas, mults, ks))
            a_s = matrix / scale
            d_s = 1j * ks[:, None] * a_s
            dense, *_ = np.linalg.lstsq(a_s, q, rcond=None)
            residual = a_s @ dense - q
            assert np.allclose(coeffs * scale, dense, rtol=0, atol=1e-9 * np.linalg.norm(dense))
            assert cost == pytest.approx(np.vdot(residual, residual).real, rel=1e-8, abs=1e-20)
            if count == width:  # interpolation: P = 0, so J = 0, and R has no rows for it
                assert s.size == 0 and g.size == 0 and np.all(col_norms == 1.0)
                continue
            projected = d_s - a_s @ np.linalg.lstsq(a_s, d_s, rcond=None)[0]
            jac = np.add.reduceat(projected * dense, starts, axis=1)
            jac = np.concatenate([jac.real, jac.imag])
            norms = np.linalg.norm(jac, axis=0)
            assert np.allclose(col_norms, norms, rtol=1e-8, atol=1e-12 * norms.max())
            _, s_d, vt_d = np.linalg.svd(jac / col_norms, full_matrices=False)
            # fewer than 2L samples leave fewer rows, and the dense values beyond are zero
            assert np.allclose(s, s_d[:len(s)], rtol=0, atol=1e-10)
            assert np.all(s_d[len(s):] <= 1e-8)
            for i in range(len(s)):
                gaps = [abs(s_d[i] - s_d[j]) for j in range(len(s_d)) if j != i]
                if min(gaps, default=1.0) > 1e-4:
                    assert np.allclose(abs(vt[i]), abs(vt_d[i]), atol=1e-6)
            gradient = (jac / col_norms).T @ np.concatenate([residual.real, residual.imag])
            assert np.allclose(vt.T @ (s * g), gradient, rtol=0,
                               atol=1e-10 * max(1.0, np.linalg.norm(gradient)))
        assert shapes == {(short, several) for short in (True, False) for several in (True, False)}

    def test_equals_the_numpy_linalg_steps_bit_for_bit(self):
        # _trial and _kaufman call numpy.linalg's gufuncs without its wrappers:
        # the same LAPACK calls on the same inputs give the same bits
        rng = np.random.default_rng(33)
        shapes = set()
        for draw in range(60):
            thetas, mults, ks, q = self._draw(rng)
            width, count = sum(mults), len(ks)
            shapes.add((count < 2 * width + 1, count == width, len(mults) > 1))
            scale = solvers._column_scale(mults, ks)
            starts = np.cumsum((0,) + mults[:-1])
            work = np.empty((count, 2 * width + 1), dtype=complex, order="FC"[draw % 2])
            work[:, -1] = q
            r, coeffs, cost, _ = solvers._trial(thetas, mults, ks, 1j * ks[:, None], scale, work)
            col_norms, s, vt, g = solvers._kaufman(r, coeffs, starts)

            r_ref = np.linalg.qr(work, mode="r")
            solution, *_ = np.linalg.lstsq(r_ref[:width, :width] / scale, r_ref[:width, -1], rcond=None)
            coeffs_ref = solution / scale
            tail = r_ref[width:, -1]
            rows = r_ref[width:2 * width]
            kaufman = np.add.reduceat(rows[:, width:2 * width] * coeffs_ref, starts, axis=1)
            jac = np.concatenate([kaufman.real, kaufman.imag])
            norms = np.linalg.norm(jac, axis=0)
            norms[norms == 0] = 1.0
            u, s_ref, vt_ref = np.linalg.svd(jac / norms, full_matrices=False)
            t = rows[:, -1]

            assert np.array_equal(r, r_ref)
            assert np.array_equal(coeffs, coeffs_ref)
            assert cost == float(np.vdot(tail, tail).real)
            assert np.array_equal(col_norms, norms)
            assert np.array_equal(s, s_ref) and np.array_equal(vt, vt_ref)
            assert np.array_equal(g, -(u.T @ np.concatenate([t.real, t.imag])))
            # an ill-conditioned system, whose solution depends on gelsd's rcond
            matrix = work[:, :width] * np.logspace(0, -10, width)
            assert np.array_equal(solvers._full_rank_lstsq(matrix, q, solvers._ALIASED),
                                  np.linalg.lstsq(matrix, q, rcond=None)[0])
        assert shapes == {
            (short, square, several)
            for short in (True, False) for square in (True, False) for several in (True, False)
            if short or not square
        }

    def test_lapack_failures_raise_numpy_linalg_errors(self):
        # NaN input makes zgelsd and dgesdd fail: the same LinAlgError as numpy.linalg's
        nan, ones = np.full((3, 2), np.nan, dtype=complex), np.ones(3, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError) as public:
            np.linalg.lstsq(nan, ones, rcond=None)
        with pytest.raises(np.linalg.LinAlgError) as ours:
            solvers._full_rank_lstsq(nan, ones, solvers._ALIASED)
        assert str(ours.value) == str(public.value) == "SVD did not converge in Linear Least Squares"
        with pytest.raises(np.linalg.LinAlgError) as public:
            np.linalg.svd(np.full((2, 2), np.nan), full_matrices=False)
        with pytest.raises(np.linalg.LinAlgError) as ours:
            solvers._kaufman(np.full((5, 5), np.nan, dtype=complex), np.ones(2, dtype=complex), [0, 1])
        assert str(ours.value) == str(public.value) == "SVD did not converge"


class TestDampedStep:
    @pytest.mark.parametrize("lam", [1e-15, 1e-3, 1e6])
    def test_matches_augmented_lstsq(self, lam):
        # the oracle is the damped normal equations solved as one augmented
        # least-squares system; at lam = 1e6 its own rounding is near 5e-13
        rng = np.random.default_rng(0)
        for trial in range(20):
            cols = int(rng.integers(1, 10))
            rows = cols if trial % 2 else int(rng.integers(cols + 1, 4 * cols + 2))
            jac = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-3, 3, size=cols)
            scaled = jac / np.linalg.norm(jac, axis=0)
            r = rng.normal(size=rows)
            u, s, vt = np.linalg.svd(scaled, full_matrices=False)
            step = _damped_step(s, vt, u.T @ r, lam)
            augmented = np.vstack([scaled, math.sqrt(lam) * np.eye(cols)])
            oracle, *_ = np.linalg.lstsq(
                augmented, np.concatenate([-r, np.zeros(cols)]), rcond=None
            )
            assert np.linalg.norm(step - oracle) <= 1e-12 * np.linalg.norm(oracle)


class TestLmIterations:
    """Iteration counts on criterion 3's fixed-count shape (p = 1 rows)."""

    @staticmethod
    def _p1_rows(solver):
        cfg = SweepConfig(
            kind="fixed-count-decimation",
            seeds=list(range(50)),
            noise=1e-4,
            solver=solver,
            p_values=[1, 8, 32],
            count=66,
            model={"kind": "two-node", "gap": 1e-2},
        )
        return [r for r in run_sweep(cfg).rows if r["p"] == 1 and r["node_index"] == 0]

    def test_hankel_lm(self):
        rows = self._p1_rows("hankel")
        assert np.median([r["iterations"] for r in rows]) <= 45
        assert sum("max-iterations" in r["flags"] for r in rows) <= 2

    def test_oracle_initialised_lm(self):
        rows = self._p1_rows("lm")
        assert np.median([r["iterations"] for r in rows]) <= 12


class TestLmRecovery:
    def test_merged_pair_start(self):
        # criterion 3's seeds whose Hankel start merges the two nodes (error 5e-3)
        cfg = SweepConfig(
            kind="fixed-count-decimation",
            seeds=[25, 43],
            noise=1e-4,
            solver="hankel",
            p_values=[1],
            count=66,
            model={"kind": "two-node", "gap": 1e-2},
        )
        rows = run_sweep(cfg).rows
        assert len(rows) == 4
        for row in rows:
            assert row["error"] <= 1e-4
            assert "max-iterations" not in row["flags"]

    def test_refits_coefficients_at_optimal_nodes(self):
        # the nodes need no step, so only the coefficient refit can repair init
        truth = PronyModel(
            [cmath.exp(0.8j), cmath.exp(-1.7j)], [1, 1], [[1.0 + 0.5j], [2.0]]
        ).canonical()
        init = PronyModel(truth.nodes, truth.multiplicities, [[3.0], [0.5]])
        model, report = lm_refine(exact_samples(truth, 8), init)
        assert match_estimates(model, truth).max_coeff_error < 1e-10
        assert report.residual < 1e-12

    @pytest.mark.parametrize(
        "args, coeffs",
        [
            ((0.7, -1.1), [[1.0, 0.5], [0.8]]),
            ((2.0, -0.4), [[1.0, -0.3j, 0.05], [0.5 + 0.5j, 0.2]]),
            ((-2.2, 0.1, 1.9), [[1.2j], [0.7, 0.4, -0.1], [1.5 - 0.5j]]),
        ],
    )
    def test_mixed_multiplicities(self, args, coeffs):
        mults = tuple(len(row) for row in coeffs)
        truth = PronyModel([cmath.exp(1j * a) for a in args], mults, coeffs).canonical()
        samples = exact_samples(truth, 2 * sum(mults) + 6)
        init = PronyModel(
            [z * cmath.exp(1e-3j) for z in truth.nodes],
            truth.multiplicities,
            [[c + 1e-3 for c in row] for row in truth.coefficients],
        )
        model, report = lm_refine(samples, init)
        assert match_estimates(model, truth).max_node_error <= 1e-10
        assert report.flags == ()

    @pytest.mark.parametrize("amplitude", [0.3, 1.0, 3.0])
    def test_large_residual_stops_at_cost_resolution(self, amplitude):
        # reconstruct's shape: one double node on three samples, plus a part
        # the model cannot fit; the step converges linearly and, once no step
        # can lower the cost beyond rounding, trials were a coin toss that ran
        # up to 42 iterations
        truth = PronyModel([cmath.exp(0.9j)], [2], [[1.0, 0.02 - 0.01j]])
        scheme = SamplingScheme(21, 21, 3)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            unfit = amplitude * (rng.normal(size=3) + 1j * rng.normal(size=3))
            samples = SampleSet(
                scheme, tuple(np.array(evaluate_moments(truth, scheme).values) + unfit), 0.0
            )
            args = []
            for shift in (1e-3, -1e-3):
                init = PronyModel(
                    [truth.nodes[0] * cmath.exp(1j * shift)], [2], truth.coefficients
                )
                model, report = lm_refine(samples, init)
                assert report.flags == ()
                assert report.iterations <= 25
                args.append(cmath.phase(model.nodes[0]))
            assert abs(args[0] - args[1]) <= 1e-7


class TestConfluentVandermonde:
    def test_constant_sequence(self):
        samples = SampleSet(SamplingScheme(0, 1, 5), [2.5] * 5)
        coeffs = confluent_vandermonde_coeffs((1.0,), (1,), samples)
        assert abs(coeffs[0][0] - 2.5) < 1e-12

    def test_triple_roundtrip(self):
        rng = np.random.default_rng(23)
        z = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        want = tuple(complex(*rng.normal(size=2)) for _ in range(3))
        truth = PronyModel([z], [3], [want])
        samples = exact_samples(truth, 6)
        got = confluent_vandermonde_coeffs((z,), (3,), samples)
        for g, w in zip(got[0], want):
            assert abs(g - w) < 1e-10

    def test_aliased_nodes_rejected(self):
        samples = SampleSet(SamplingScheme(0, 1, 6), [1.0] * 6)
        with pytest.raises(RankDeficiencyError):
            confluent_vandermonde_coeffs((1.0, 1.0), (1, 1), samples)

    def test_count_precondition(self):
        samples = SampleSet(SamplingScheme(0, 1, 2), [1.0, 1.0])
        with pytest.raises(ValidationError):
            confluent_vandermonde_coeffs((1.0,), (3,), samples)

    def test_multiplicity_limit(self):
        # this returned 13 coefficients, where every model is limited to 12
        samples = SampleSet(SamplingScheme(0, 1, 20), [1.0] * 20)
        with pytest.raises(ValidationError, match="multiplicities above 12 are not supported"):
            confluent_vandermonde_coeffs((1.0,), (13,), samples)

    @pytest.mark.parametrize("nodes, mults", [((1.0,), (1, 1)), ((1.0, -1.0), (1,)), ((1.0,), ())])
    def test_structure_mismatch_rejected(self, nodes, mults):
        # a node without a multiplicity left basis columns uninitialized
        samples = SampleSet(SamplingScheme(0, 1, 6), [1.0] * 6)
        with pytest.raises(ValidationError):
            confluent_vandermonde_coeffs(nodes, mults, samples)


class TestSolverAgreement:
    def test_exact_roundtrip_all_solvers(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            k = int(rng.integers(1, 4))
            truth = random_simple_model(rng, k)
            samples = exact_samples(truth, 8)
            hankel, _ = prony_hankel_solve(samples, (1,) * k)
            esprit, _ = esprit_solve(samples, k)
            for est in (hankel, esprit):
                res = match_estimates(est, truth)
                assert res.max_node_error < 1e-8
                assert res.max_coeff_error < 1e-6

    def test_pairwise_agreement_single_node(self):
        rng = np.random.default_rng(37)
        truth = random_simple_model(rng, 1)
        samples = exact_samples(truth, 8)
        a, _ = prony_hankel_solve(samples, (1,))
        b, _ = esprit_solve(samples, 1)
        c, _ = annihilation_solve_single(samples, 1, truth.nodes[0])
        args = [m.node_args[0] for m in (a, b, c)]
        for x in args:
            for y in args:
                assert abs(x - y) < 1e-8

    @pytest.mark.parametrize("scale", [2.0, 1.0j])
    def test_scale_equivariance(self, scale):
        rng = np.random.default_rng(41)
        truth = random_simple_model(rng, 2)
        samples = exact_samples(truth, 8)
        scaled = SampleSet(
            samples.scheme, [scale * v for v in samples.values], 0.0
        )
        base, _ = prony_hankel_solve(samples, (1, 1))
        other, _ = prony_hankel_solve(scaled, (1, 1))
        assert match_estimates(other, base).max_node_error < 1e-10
        for row_b, row_o in zip(base.coefficients, other.coefficients):
            assert abs(row_o[0] - scale * row_b[0]) < 1e-9


class TestBaseSolversAreDecimatedSolve:
    """Each public base solver is one unrefined decimated_solve call on the
    values re-indexed by position s = 0..count-1."""

    _PAIR = PronyModel([cmath.exp(0.4j), cmath.exp(-1.3j)], [1, 1], [[1.0 + 0.5j], [2.0]])

    @pytest.mark.parametrize("solve", [
        lambda s: prony_hankel_solve(s, (1, 1)),
        lambda s: esprit_solve(s, 2),
    ], ids=["hankel", "esprit"])
    def test_progression_gives_powered_nodes(self, solve):
        # q_s = m_{5 + 3s} = sum_j (c_j z_j^5) (z_j^3)^s
        model, report = solve(exact_samples(self._PAIR, 12, offset=5, stride=3))
        want = PronyModel([z**3 for z in self._PAIR.nodes], [1, 1],
                          [[row[0] * z**5] for z, row in zip(self._PAIR.nodes, self._PAIR.coefficients)])
        res = match_estimates(model, want)
        assert res.max_node_error < 1e-10
        assert res.max_coeff_error < 1e-9
        assert report.iterations == 1 and "+refine" not in report.method

    def test_annihilation_progression_gives_powered_node(self):
        # z^(5+3s) (c0 + c1 (5 + 3s)) = z^5 (z^3)^s ((c0 + 5 c1) + 3 c1 s)
        z, (c0, c1) = cmath.exp(0.7j), (1.0, 0.5j)
        truth = PronyModel([z], [2], [[c0, c1]])
        model, _ = annihilation_solve_single(exact_samples(truth, 12, offset=5, stride=3), 2, z**3)
        assert abs(model.nodes[0] - z**3) < 1e-10
        for got, want in zip(model.coefficients[0], (z**5 * (c0 + 5 * c1), 3 * z**5 * c1)):
            assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("solve", [
        lambda s: prony_hankel_solve(s, (1,)),
        lambda s: esprit_solve(s, 1),
        lambda s: annihilation_solve_single(s, 1, cmath.exp(0.4j)),
    ], ids=["hankel", "esprit", "annihilation"])
    def test_unfit_noisy_samples_flag_large_residual(self, solve):
        # one node fitted to two: the residual is the second node's size, 0.1,
        # far above 10 * eps * sqrt(count); the base solvers did not flag it
        truth = PronyModel([cmath.exp(0.4j), cmath.exp(-1.3j)], [1, 1], [[1.0], [0.1]])
        _, report = solve(add_noise(exact_samples(truth, 12), 1e-6, seed=0))
        assert report.residual > 0.05
        assert "large-residual" in report.flags

    @pytest.mark.parametrize("hint", [
        complex(math.nan, 0.0), complex(math.inf, 0.0), "0.7",
        pytest.param(10**5000, id="int-past-float-range")])
    def test_annihilation_nonfinite_hint_rejected(self, hint):
        # the string raised a bare TypeError and the integer an OverflowError
        samples = exact_samples(PronyModel([cmath.exp(0.7j)], [1], [[1.0]]), 4)
        with pytest.raises(ValidationError, match="finite"):
            annihilation_solve_single(samples, 1, hint)

    def test_report_built_in_one_place(self):
        sources = pathlib.Path(inspect.getfile(decimated_solve)).parent.glob("*.py")
        total = sum(path.read_text().count("SolverReport(") for path in sources)
        assert inspect.getsource(solvers._report).count("SolverReport(") == 1 and total == 1
        assert [inspect.getsource(f).count("_report(") for f in (decimated_solve, lm_refine)] == [1, 1]
