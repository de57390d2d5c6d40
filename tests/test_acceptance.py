"""Acceptance suite.

Each test runs one criterion at its stated tolerance and prints a single
PASS/FAIL line (visible with `pytest -s` or on failure).  Tolerances are fixed
here, not calibrated elsewhere.
"""

import cmath
import contextlib
import math
import time

import numpy as np

from pronydec import (
    PronyModel,
    SamplingScheme,
    annihilation_solve_single,
    esprit_solve,
    evaluate_moments,
    lm_refine,
    match_estimates,
    prony_hankel_solve,
    random_piecewise_signal,
    signal_coeffs,
)
from pronydec.fourier import eckhoff_transform, induced_prony_model
from pronydec.model import _random_model
from pronydec.sweeps import (
    SweepConfig,
    emit_csv,
    run_sweep,
)

import test_properties as props


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def random_regular_model(rng, max_nodes=3, min_gap=0.3):
    return _random_model(rng, int(rng.integers(1, max_nodes + 1)), min_gap)


def test_criterion_1_exact_recovery_suite():
    with criterion(1, "exact recovery, every solver path"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(50):
            truth = random_regular_model(rng)
            k = truth.num_nodes
            samples = evaluate_moments(truth, SamplingScheme(0, 1, 8))

            estimates = [
                prony_hankel_solve(samples, (1,) * k)[0],
                esprit_solve(samples, k)[0],
            ]
            if k == 1:
                estimates.append(
                    annihilation_solve_single(samples, 1, truth.nodes[0])[0]
                )
            perturbed = PronyModel(
                [z * cmath.exp(1j * 1e-3) for z in truth.nodes],
                truth.multiplicities,
                [[c * (1 + 1e-3) for c in row] for row in truth.coefficients],
            )
            estimates.append(lm_refine(samples, perturbed)[0])

            for est in estimates:
                res = match_estimates(est, truth)
                assert res.max_node_error < 1e-8
                assert res.max_coeff_error < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_bridge_identity():
    # the transform of the closed-form coefficients must reproduce the induced
    # model's measurements over k = 1..500 to 1e-10 (relative, floored at 1)
    with criterion(2, "bridge identity"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(0, 4))
            k = int(rng.integers(1, 4))
            sig = random_piecewise_signal(
                d, k, seed=int(rng.integers(0, 10**6)), psi_decay=0.0, psi_degree=1
            )
            window = signal_coeffs(sig, 500)
            got = np.asarray(eckhoff_transform(window, d).values)
            model = induced_prony_model(sig.jumps, sig.magnitudes, d)
            want = np.asarray(
                evaluate_moments(model, SamplingScheme(1, 1, 500)).values
            )
            scale = np.maximum(np.abs(want), 1.0)
            assert float(np.max(np.abs(got - want) / scale)) < 1e-10


# criteria 3-5's sweeps without their seeds, which stay in the tests; the
# fixed-count sweep runs once per solver in FIXED_COUNT_SOLVERS
FIXED_COUNT_CONFIG = {
    "kind": "fixed-count-decimation", "noise": 1e-4, "p_values": [1, 8, 32], "count": 66,
    "model": {"kind": "two-node", "gap": 1e-2},
}
FIXED_COUNT_SOLVERS = ("hankel", "lm")
FIXED_TOP_CONFIG = {
    "kind": "fixed-top-index-decimation", "noise": 1e-4, "solver": "hankel", "p_values": [1, 10, 100],
    "top_index": 2200, "model": {"kind": "two-node", "gap": 1e-2},
}
BOUND_CHECK_CONFIG = {
    "kind": "bound-check", "noise": 1e-6, "solver": "hankel", "p_values": [1, 4, 16],
    "model": {"kind": "random-simple", "num_nodes": 2, "min_stride_separation": 0.8},
}


def test_criterion_3_fixed_count_decimation_gain():
    with criterion(3, "fixed-count sweep: stride 32 at least 10x better"):
        start = time.perf_counter()
        for solver in FIXED_COUNT_SOLVERS:
            cfg = SweepConfig(seeds=list(range(50)), solver=solver, **FIXED_COUNT_CONFIG)
            result = run_sweep(cfg)
            medians = {}
            for p in cfg.p_values:
                errs = [r["error"] for r in result.rows if r["p"] == p]
                assert not any(math.isnan(e) for e in errs)
                medians[p] = float(np.median(errs))
            assert medians[1] > medians[8] > medians[32]
            assert medians[1] >= 10.0 * medians[32], (
                f"{solver}: ratio {medians[1] / medians[32]:.2f} < 10"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_criterion_4_fixed_top_decimation_flat():
    with criterion(4, "fixed-top sweep: error flat, solves faster"):
        cfg = SweepConfig(seeds=list(range(50)), **FIXED_TOP_CONFIG)
        result = run_sweep(cfg)
        medians = {}
        med_times = {}
        for p in cfg.p_values:
            errs = [r["error"] for r in result.rows if r["p"] == p]
            assert not any(math.isnan(e) for e in errs)
            medians[p] = float(np.median(errs))
            med_times[p] = float(
                np.median([result.timings[(p, s)] for s in cfg.seeds])
            )
        ratio = max(medians.values()) / min(medians.values())
        assert ratio <= 10.0, f"median-error spread {ratio:.2f} exceeds 10"
        assert med_times[100] < med_times[1], (
            f"per-solve time did not drop: {med_times[100]:.4f}s vs {med_times[1]:.4f}s"
        )


def test_criterion_5_first_order_bound_consistency():
    with criterion(5, "observed node errors within 10x the a-priori bound"):
        cfg = SweepConfig(seeds=list(range(100)), **BOUND_CHECK_CONFIG)
        result = run_sweep(cfg)
        assert len(result.rows) == 600
        for row in result.rows:
            assert not math.isnan(row["error"]), f"solve failed: {row}"
            assert row["error"] <= 10.0 * row["bound"], (
                f"error {row['error']:.3e} above 10x bound {row['bound']:.3e} "
                f"at p={row['p']} seed={row['seed']}"
            )


FOURIER_CONFIGS = {
    (0, 1): {
        "smoothness": 0, "num_jumps": 1, "psi_decay": 1.0, "psi_degree": 8192,
        "base_magnitude_range": [3.0, 5.0], "higher_magnitude_scale": 0.5,
        "reconstruction_separation": 8.0,
    },
    (1, 2): {
        "smoothness": 1, "num_jumps": 2, "min_separation": 1.6,
        "psi_decay": 1.0, "psi_degree": 8192,
        "base_magnitude_range": [3.0, 5.0], "higher_magnitude_scale": 0.5,
        "reconstruction_separation": 1.5,
    },
    (2, 1): {
        "smoothness": 2, "num_jumps": 1, "psi_decay": 4.0, "psi_degree": 8192,
        "base_magnitude_range": [3.0, 5.0], "higher_magnitude_scale": 0.5,
        "reconstruction_separation": 8.0,
    },
}
# criterion 6's bandwidths, sup_error_away's exclusion radius and grid, and
# the slack each fitted slope may exceed its rate by
FOURIER_M_VALUES = [64, 128, 256, 512, 1024, 2048]
FOURIER_EXCLUSION_RADIUS = 0.1
FOURIER_GRID_SIZE = 1024
FOURIER_SLACK = 0.4


def test_criterion_6_full_accuracy_rates():
    with criterion(6, "reconstruction rate slopes"):
        start = time.perf_counter()
        for (d, k), signal_spec in FOURIER_CONFIGS.items():
            cfg = SweepConfig(
                kind="fourier-convergence",
                seeds=list(range(10)),
                m_values=FOURIER_M_VALUES,
                signal=signal_spec,
                exclusion_radius=FOURIER_EXCLUSION_RADIUS,
                grid_size=FOURIER_GRID_SIZE,
            )
            result = run_sweep(cfg)
            slopes = result.slopes
            assert slopes["jump_error"] <= -(d + 2) + FOURIER_SLACK, (
                f"(d={d},K={k}) jump slope {slopes['jump_error']:.2f}"
            )
            assert slopes["sup_away"] <= -(d + 1) + FOURIER_SLACK, (
                f"(d={d},K={k}) pointwise slope {slopes['sup_away']:.2f}"
            )
            for l in range(d + 1):
                assert slopes[f"mag_error_{l}"] <= (l - d - 1) + FOURIER_SLACK, (
                    f"(d={d},K={k}) magnitude-{l} slope {slopes[f'mag_error_{l}']:.2f}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes"


def test_criterion_7_property_suites():
    with criterion(7, "standalone property suites"):
        props.check_decimation_identity()
        props.check_branch_exactness_all_strides()
        props.check_jacobian_finite_differences(rel_tol=1e-5)
        props.check_mollifier_modulation(tol=1e-12)
        props.check_translation_equivariance(jump_tol=1e-8, mag_tol=1e-6)
        props.check_scale_equivariance()
        props.check_real_window_symmetry()


def test_criterion_8_sweep_determinism(tmp_path):
    with criterion(8, "byte-identical sweep output across runs and workers"):
        cfg_dict = dict(
            kind="fixed-count-decimation",
            seeds=list(range(8)),
            noise=1e-4,
            solver="hankel",
            p_values=[1, 8, 32],
            count=66,
            model={"kind": "two-node", "gap": 1e-2},
        )
        paths = []
        for idx, workers in enumerate((1, 1, 2, 3)):
            cfg = SweepConfig(**{**cfg_dict, "workers": workers})
            result = run_sweep(cfg)
            path = tmp_path / f"sweep_{idx}.csv"
            emit_csv(result.rows, path, result.columns)
            paths.append(path)
        blobs = [p.read_bytes() for p in paths]
        assert all(b == blobs[0] for b in blobs[1:])
