import dataclasses
import math

import numpy as np
import pytest

from pronydec import ValidationError, fourier, sweeps
from pronydec.model import circle_distance
from pronydec.sweeps import (
    SweepConfig,
    emit_csv,
    emit_svg,
    emit_timings_csv,
    fit_loglog_slope,
    run_sweep,
)


def audit_rows(result, config, fraction=0.01, seed=0):
    """Re-run a random subset of the sweep's seeds and compare their rows
    with the recorded ones as CSV text, so NaN rows compare too.  Returns the
    number of seeds audited; any difference raises."""
    seeds = sorted(set(config.seeds))
    rng = np.random.default_rng(seed)
    n_pick = max(1, math.ceil(fraction * len(seeds)))
    picked = sorted(seeds[i] for i in rng.choice(len(seeds), size=n_pick, replace=False))

    def text(rows):
        return [[sweeps._format_cell(r[c]) for c in result.columns] for r in rows]

    rows, _ = sweeps._run_tasks(dataclasses.replace(config, seeds=picked))
    recorded = [r for r in result.rows if r["seed"] in picked]
    if text(rows) != text(recorded):
        raise AssertionError(f"row audit failed at seeds {picked}: {text(recorded)} != {text(rows)}")
    return len(picked)


def small_fig1_config(**overrides):
    base = dict(
        kind="fixed-count-decimation",
        seeds=list(range(6)),
        noise=1e-4,
        solver="hankel",
        p_values=[1, 8, 32],
        count=66,
        model={"kind": "two-node", "gap": 0.01},
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            SweepConfig(kind="nope", seeds=[0])

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValidationError):
            small_fig1_config(seeds=[])

    def test_roundtrip_dict(self):
        cfg = small_fig1_config()
        assert SweepConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            SweepConfig.from_dict({"kind": "bound-check", "seeds": [0], "bogus": 1})

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_rejects_nonfinite_noise(self, noise):
        with pytest.raises(ValidationError, match="finite"):
            small_fig1_config(noise=noise)

    def test_rejects_nonpositive_workers(self):
        for workers in (0, -1):
            with pytest.raises(ValidationError):
                small_fig1_config(workers=workers)


    @pytest.mark.parametrize("model", [
        {"kind": "two-node", "gapp": 0.5},
        {"kind": "random-simple", "num_nodes": 2, "gapp": 0.5},
    ])
    def test_rejects_unknown_model_key(self, model):
        with pytest.raises(ValidationError, match="gapp"):
            small_fig1_config(model=model)

    def test_rejects_unknown_signal_key(self):
        with pytest.raises(ValidationError, match="smoothnes"):
            SweepConfig(kind="fourier-convergence", seeds=[0], m_values=[64, 128],
                        signal={"smoothnes": 1, "reconstruction_separation": 8.0})

    @pytest.mark.parametrize("field", [{"seeds": 5}, {"model": [1]}, {"noise": "a"}])
    def test_from_dict_rejects_wrong_types(self, field):
        with pytest.raises(ValidationError):
            SweepConfig.from_dict({**small_fig1_config().to_dict(), **field})


    @pytest.mark.parametrize("missing", ["smoothness", "num_jumps"])
    def test_signal_spec_requires_smoothness_and_num_jumps(self, missing):
        # random_piecewise_signal has no default for either
        signal = {"smoothness": 1, "num_jumps": 1}
        del signal[missing]
        with pytest.raises(ValidationError, match=missing):
            SweepConfig(kind="fourier-convergence", seeds=[0], m_values=[64, 128], signal=signal)

    @pytest.mark.parametrize("m_values", [[64, 128], [64, 64, 128], []])
    def test_rejects_fewer_than_three_bandwidths(self, m_values):
        with pytest.raises(ValidationError, match="bandwidths"):
            SweepConfig(kind="fourier-convergence", seeds=[0, 1], m_values=m_values,
                        signal={"smoothness": 0, "num_jumps": 1})

    @pytest.mark.parametrize("kind, spec, key", [
        ("bound-check", {"kind": "random-simple", "num_nodes": True}, "num_nodes"),
        ("bound-check", {"kind": "random-simple", "num_nodes": 0}, "num_nodes"),
        ("fourier-convergence", {"smoothness": -1, "num_jumps": 1}, "smoothness"),
        ("fourier-convergence", {"smoothness": 0, "num_jumps": 0}, "num_jumps"),
        ("fourier-convergence", {"smoothness": 0, "num_jumps": 1, "psi_degree": -1}, "psi_degree"),
    ])
    def test_spec_integers_checked_at_construction(self, kind, spec, key):
        # these built, then raised only when the first task ran
        what = "signal" if kind == "fourier-convergence" else "model"
        with pytest.raises(ValidationError, match=f"{what} spec value {key} must be an integer"):
            SweepConfig(kind=kind, seeds=[0], p_values=[1], m_values=[64, 128, 256], **{what: spec})

    def test_spec_smoothness_past_the_order_limit_checked_at_construction(self):
        # this built, then every task raised
        with pytest.raises(ValidationError, match="signal spec value smoothness must be at most 169"):
            SweepConfig(kind="fourier-convergence", seeds=[0], m_values=[64, 128, 256],
                        signal={"smoothness": 170, "num_jumps": 1})

    @pytest.mark.parametrize("kind, spec, key", [
        ("fourier-convergence", {"smoothness": 10**400, "num_jumps": 1}, "smoothness"),
        ("fourier-convergence", {"smoothness": 0, "num_jumps": 10**400}, "num_jumps"),
        ("fourier-convergence", {"smoothness": 0, "num_jumps": 1, "psi_decay": 10**400}, "psi_decay"),
        ("bound-check", {"kind": "two-node", "gap": 10**400}, "gap"),
    ])
    def test_spec_integer_beyond_float_range(self, kind, spec, key):
        # cmath.isfinite raised OverflowError on these
        what = "signal" if kind == "fourier-convergence" else "model"
        with pytest.raises(ValidationError, match=f"{what} spec value {key}="):
            SweepConfig(kind=kind, seeds=[0], p_values=[1], m_values=[64, 128, 256], **{what: spec})

    def test_noise_beyond_float_range(self):
        # math.isfinite raised OverflowError on it
        with pytest.raises(ValidationError, match="noise level"):
            small_fig1_config(noise=10**400)

    @pytest.mark.parametrize("field, overrides", [
        ("seeds", {"seeds": [-10**5000]}),
        ("seeds", {"seeds": 10**5000}),
        ("smoothness", {"kind": "fourier-convergence", "m_values": [64, 128, 256],
                        "signal": {"smoothness": 10**5000, "num_jumps": 1}}),
        ("noise level", {"noise": 10**5000}),
    ], ids=["seed-in-list", "seeds-not-a-list", "spec-value", "noise"])
    def test_integer_past_the_digit_limit(self, field, overrides):
        # the message's repr of a 5,001-digit integer raised ValueError
        with pytest.raises(ValidationError, match=field):
            small_fig1_config(**overrides)

    @pytest.mark.parametrize("overrides, message", [
        ({"p_values": []}, "fixed-count-decimation needs p_values"),
        ({"model": None}, "fixed-count-decimation needs a model spec"),
        ({"solver": "annihilation"}, "unknown solver 'annihilation'; pick from"),
        ({"count": 1}, "fixed-count-decimation needs count >= 2"),
        ({"kind": "fixed-top-index-decimation"}, "fixed-top-index-decimation needs top_index >= 1"),
        ({"model": {"kind": "three-node"}}, "unknown model spec kind 'three-node'"),
        ({"exclusion_radius": "0.1"}, "exclusion_radius must lie in"),
        ({"kind": "fourier-convergence", "m_values": [32, 64, 128]}, "fourier-convergence needs a signal spec"),
    ], ids=["no-p-values", "no-model", "solver", "count", "top-index", "model-kind", "radius-string",
            "no-signal"])
    def test_kind_specific_checks(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            small_fig1_config(**overrides)

    def test_random_model_gives_up_on_unreachable_separation(self):
        # nodes 1.99 apart at p = 1 are nearly antipodal, so they nearly meet at p = 2
        cfg = small_fig1_config(seeds=[0], p_values=[1, 2, 3], model={
            "kind": "random-simple", "num_nodes": 2, "min_stride_separation": 1.99})
        with pytest.raises(ValidationError, match="could not draw a model"):
            run_sweep(cfg)

    def test_rejects_esprit_bound_check(self):
        # the bound-check count is the square system, 2 per simple node, and
        # ESPRIT needs at least 2k + 1 samples: every row would fail
        with pytest.raises(ValidationError, match="bound-check.*esprit"):
            SweepConfig(kind="bound-check", seeds=[0], solver="esprit", p_values=[1, 4],
                        model={"kind": "random-simple", "num_nodes": 2})


class TestWorkerPool:
    """The pool is sized at min(workers, cpu count, task count), and a task
    is one seed.  A fake executor records the size and runs tasks inline, so
    no process starts."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sweeps, "ProcessPoolExecutor", FakePool)
        return sizes

    def test_capped_at_task_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 64)
        cfg = small_fig1_config(seeds=[0, 1], p_values=[1, 8], workers=10**6)
        result = run_sweep(cfg)
        assert pool_sizes == [2]
        assert result.rows == run_sweep(small_fig1_config(seeds=[0, 1], p_values=[1, 8])).rows

    def test_capped_at_cpu_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 3)
        run_sweep(small_fig1_config(seeds=[0, 1, 2, 3], p_values=[1, 8, 32], workers=10**6))
        assert pool_sizes == [3]

    def test_single_cpu_runs_inline(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 1)
        run_sweep(small_fig1_config(seeds=[0], p_values=[1, 8], workers=4))
        assert pool_sizes == []


def small_fourier_config(**overrides):
    base = dict(kind="fourier-convergence", seeds=[0, 1, 2], m_values=[32, 64, 128],
                signal={"smoothness": 0, "num_jumps": 1, "psi_degree": 256})
    base.update(overrides)
    return SweepConfig(**base)


class TestOneTaskPerSeed:
    """A task draws its seed's truth once and evaluates it at every x."""

    @pytest.mark.parametrize("drawer, cfg", [
        ("_signal_for_seed", small_fourier_config(seeds=[0, 1])),
        ("_build_model", SweepConfig(
            kind="bound-check", seeds=[0, 1], noise=1e-6, p_values=[1, 4, 16],
            model={"kind": "random-simple", "num_nodes": 2})),
    ], ids=["fourier-convergence", "bound-check"])
    def test_truth_drawn_once_per_seed(self, monkeypatch, drawer, cfg):
        drawn = []
        draw = getattr(sweeps, drawer)
        monkeypatch.setattr(sweeps, drawer, lambda config, seed: drawn.append(seed) or draw(config, seed))
        assert len(run_sweep(cfg).timings) == 6
        assert drawn == [0, 1]

    def test_fourier_csv_identical_across_workers(self, tmp_path):
        paths = []
        for workers in (1, 2):
            result = run_sweep(small_fourier_config(workers=workers))
            assert set(result.timings) == {(m, s) for m in (32, 64, 128) for s in (0, 1, 2)}
            paths.append(tmp_path / f"w{workers}.csv")
            emit_csv(result.rows, paths[-1], result.columns)
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("cfg", [
    small_fig1_config(seeds=[4]),
    SweepConfig(kind="fixed-top-index-decimation", seeds=[4], noise=1e-4, solver="hankel",
                p_values=[1, 10, 100, 7], top_index=2200, model={"kind": "two-node", "gap": 0.01}),
    SweepConfig(kind="bound-check", seeds=[4], noise=1e-6, p_values=[1, 4, 16],
                model={"kind": "random-simple", "num_nodes": 3}),
], ids=["fixed-count", "fixed-top", "bound-check"])
def test_union_noise_covers_the_same_indices_as_unique(cfg):
    truth = sweeps._build_model(cfg, 4)
    union, eta = sweeps._union_noise(cfg, 4, truth)
    expected = np.unique(np.concatenate([
        p * np.arange(sweeps._count_for_stride(cfg, p, truth)) for p in cfg.p_values
    ]))
    assert union.dtype == expected.dtype and np.array_equal(union, expected)
    assert eta.shape == union.shape


class TestFixedCountSweep:
    def test_exact_data_recovers(self):
        cfg = small_fig1_config(noise=0.0, seeds=[0, 1])
        result = run_sweep(cfg)
        for row in result.rows:
            assert row["error"] < 1e-8

    def test_error_decreases_with_stride(self):
        cfg = small_fig1_config()
        result = run_sweep(cfg)
        medians = []
        for p in cfg.p_values:
            errs = [r["error"] for r in result.rows if r["p"] == p]
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]

    def test_row_schema_and_shared_noise(self):
        cfg = small_fig1_config(seeds=[3])
        result = run_sweep(cfg)
        assert result.columns == (
            "p", "seed", "node_index", "error", "bound",
            "residual", "method", "iterations", "flags",
        )
        assert len(result.rows) == len(cfg.p_values) * 2  # two nodes
        assert set(result.timings) == {(p, 3) for p in cfg.p_values}

    @pytest.mark.parametrize("cfg", [
        small_fig1_config(seeds=[0, 1, 2]),
        SweepConfig(kind="fourier-convergence", seeds=[0, 1], m_values=[32, 64, 128],
                    signal={"smoothness": 0, "num_jumps": 1, "psi_degree": 256}),
    ], ids=["fixed-count", "fourier-convergence"])
    def test_residual_audit(self, cfg):
        result = run_sweep(cfg)
        assert audit_rows(result, cfg, fraction=0.5) >= 1
        result.rows[-1]["flags"] += "tampered"
        with pytest.raises(AssertionError, match="audit failed"):
            audit_rows(result, cfg, fraction=1.0)


class TestFixedTopSweep:
    def test_exact_data_flat_at_machine_precision(self):
        cfg = SweepConfig(
            kind="fixed-top-index-decimation",
            seeds=[0, 1],
            noise=0.0,
            solver="hankel",
            p_values=[1, 10, 50],
            top_index=500,
            model={"kind": "two-node", "gap": 0.01},
        )
        result = run_sweep(cfg)
        for row in result.rows:
            assert row["error"] < 1e-8

    def test_counts_shrink(self):
        cfg = SweepConfig(
            kind="fixed-top-index-decimation",
            seeds=[0, 1],
            noise=1e-4,
            solver="hankel",
            p_values=[1, 10, 100],
            top_index=500,
            model={"kind": "two-node", "gap": 0.01},
        )
        result = run_sweep(cfg)
        medians = {}
        for p in cfg.p_values:
            errs = [r["error"] for r in result.rows if r["p"] == p]
            medians[p] = float(np.median(errs))
        assert max(medians.values()) / min(medians.values()) < 50


class TestBoundCheckSweep:
    def test_errors_below_bounds(self):
        cfg = SweepConfig(
            kind="bound-check",
            seeds=list(range(10)),
            noise=1e-6,
            solver="hankel",
            p_values=[1, 4],
            model={"kind": "random-simple", "num_nodes": 2, "min_stride_separation": 0.8},
        )
        result = run_sweep(cfg)
        for row in result.rows:
            assert row["error"] <= 10 * row["bound"]


class TestFourierConvergence:
    def test_slopes_reported(self):
        cfg = SweepConfig(
            kind="fourier-convergence",
            seeds=[0, 1, 2],
            m_values=[64, 128, 256, 512, 1024],
            signal={
                "smoothness": 0,
                "num_jumps": 1,
                "psi_decay": 1.0,
                "psi_degree": 2048,
                "reconstruction_separation": 8.0,
            },
            grid_size=256,
        )
        result = run_sweep(cfg)
        assert set(result.slopes) == {"jump_error", "mag_error_0", "sup_away"}
        # slopes are fitted on per-M medians over the top half of the list
        assert result.slopes["jump_error"] < -1.2
        assert result.slopes["sup_away"] < -0.6
        assert len(result.rows) == 15

    def test_magnitude_slopes_ordered_by_derivative_order(self):
        # higher-order jump magnitudes converge more slowly
        cfg = SweepConfig(
            kind="fourier-convergence",
            seeds=[0, 1, 2],
            m_values=[128, 256, 512, 1024],
            signal={
                "smoothness": 1,
                "num_jumps": 1,
                "psi_decay": 1.0,
                "psi_degree": 2048,
                "reconstruction_separation": 8.0,
            },
            grid_size=256,
        )
        result = run_sweep(cfg)
        assert result.slopes["mag_error_1"] > result.slopes["mag_error_0"]
        assert result.slopes["mag_error_1"] < 0
        assert result.slopes["mag_error_0"] < 0


    def test_omitted_signal_keys_take_generator_defaults(self):
        cfg = SweepConfig(kind="fourier-convergence", seeds=[3], m_values=[64, 128, 256],
                          signal={"smoothness": 1, "num_jumps": 2})
        assert sweeps._signal_for_seed(cfg, 3) == fourier.random_piecewise_signal(1, 2, 3)

    def test_jumps_paired_cyclically(self):
        # criterion 6's (1, 2) signal at M = 64, seed 6: one estimate crosses
        # +-pi, so pairing the sorted lists by position read 2.36 rad
        spec = {
            "smoothness": 1, "num_jumps": 2, "min_separation": 1.6,
            "psi_decay": 1.0, "psi_degree": 8192,
            "base_magnitude_range": [3.0, 5.0], "higher_magnitude_scale": 0.5,
            "reconstruction_separation": 1.5,
        }
        cfg = SweepConfig(
            kind="fourier-convergence", seeds=[6], m_values=[64, 128, 256], signal=spec,
            exclusion_radius=0.1, grid_size=1024,
        )
        rows, _ = sweeps._fourier_task(cfg, 6)
        (row,) = [r for r in rows if r["M"] == 64]
        signal = sweeps._signal_for_seed(cfg, 6)
        result = fourier.reconstruct(fourier.signal_coeffs(signal, 64), 1, 2, 1.5)
        pairings = [(0, 1), (1, 0)]
        best = min(pairings, key=lambda perm: sum(
            circle_distance(result.jumps[j], x) for j, x in zip(perm, signal.jumps)))
        assert row["jump_error"] == max(
            circle_distance(result.jumps[j], x) for j, x in zip(best, signal.jumps))
        assert 0.13 < row["jump_error"] < 0.14
        for l in range(2):
            assert row[f"mag_error_{l}"] == max(
                abs(result.magnitudes[l][j] - a) for j, a in zip(best, signal.magnitudes[l]))


class TestFailureRows:
    """A solve that fails becomes a NaN row flagged with its error class; the
    rows go through the CSV, the audit, the slope fit and the plot as they are."""

    def test_fourier_rows(self, tmp_path):
        # two jumps at M = 32-34, at reconstruct's 8(d+2)K = 32 floor: 17 of 18
        # reconstructions fail with a SolverError
        cfg = SweepConfig(kind="fourier-convergence", seeds=list(range(6)), m_values=[32, 33, 34],
                          signal={"smoothness": 0, "num_jumps": 2})
        result = run_sweep(cfg)
        failed = [r for r in result.rows if r["flags"] == "reconstruction-error:SolverError"]
        assert len(failed) == 17 and len(result.rows) == 18
        assert all(math.isnan(r[c]) for r in failed for c in result.columns[2:-1])
        assert set(result.slopes) == {"jump_error", "mag_error_0", "sup_away"}
        assert all(math.isnan(s) for s in result.slopes.values())
        emit_csv(result.rows, tmp_path / "f.csv", result.columns)
        assert "nan,nan,nan,reconstruction-error:SolverError" in (tmp_path / "f.csv").read_text()
        assert audit_rows(result, cfg, fraction=1.0) == 6
        emit_svg(result.rows, tmp_path / "f.svg", "M", "jump_error")  # the one solved row

    def test_decimation_rows(self, tmp_path):
        # ESPRIT cannot split a 1e-4 gap under 1e-4 noise in 12 samples
        cfg = small_fig1_config(seeds=[0, 1], solver="esprit", p_values=[1], count=12,
                                model={"kind": "two-node", "gap": 1e-4})
        result = run_sweep(cfg)
        assert [r["flags"] for r in result.rows] == ["solver-error:SolverError"] * 4
        assert all(r["method"] == "esprit" and r["iterations"] == 0 for r in result.rows)
        emit_csv(result.rows, tmp_path / "d.csv", result.columns)
        assert (tmp_path / "d.csv").read_text().splitlines()[1] == (
            "1,0,0,nan,nan,nan,esprit,0,solver-error:SolverError")
        assert audit_rows(result, cfg, fraction=1.0) == 2
        with pytest.raises(ValidationError, match="no plottable points"):
            emit_svg(result.rows, tmp_path / "d.svg", "p", "error")


class TestSlopeFit:
    def test_linear(self):
        assert fit_loglog_slope([(1, 1), (2, 2), (4, 4)]) == pytest.approx(1.0)

    @pytest.mark.parametrize("points", [[(1, 1), (1, 2)], [(4, 1), (4, 2), (4.0, 3)]])
    def test_needs_two_distinct_x(self, points, capfd):
        # LAPACK printed "DLASCL parameter number 4 had an illegal value" and
        # np.polyfit raised a bare LinAlgError
        with pytest.raises(ValidationError, match="two distinct x"):
            fit_loglog_slope(points)
        assert capfd.readouterr().err == ""

    def test_exact_power_law(self):
        pts = [(x, 7 * x ** -3.0) for x in (2, 4, 8, 16)]
        assert fit_loglog_slope(pts) == pytest.approx(-3.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        pts = [(x, x ** -2.0 * (1 + 0.05 * rng.uniform(-1, 1))) for x in (2, 4, 8, 16, 32)]
        assert fit_loglog_slope(pts) == pytest.approx(-2.0, abs=0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([(1, 1), (2, 0)])

    def test_rejects_short(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([(1, 1)])


class TestEmission:
    def test_csv_deterministic_across_workers(self, tmp_path):
        cfg1 = small_fig1_config(seeds=[0, 1, 2, 3], workers=1)
        cfg2 = small_fig1_config(seeds=[0, 1, 2, 3], workers=2)
        r1 = run_sweep(cfg1)
        r2 = run_sweep(cfg2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(r1.rows, p1, r1.columns)
        emit_csv(r2.rows, p2, r2.columns)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_repeated_run_identical(self, tmp_path):
        cfg = small_fig1_config(seeds=[0, 1])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (p1, p2):
            result = run_sweep(cfg)
            emit_csv(result.rows, path, result.columns)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_csv([], tmp_path / "x.csv", ("a",))
        with pytest.raises(ValidationError):
            emit_svg([], tmp_path / "x.svg", "p", "error")

    def test_cell_formats(self, tmp_path):
        rows = [{"ok": True, "on": np.bool_(False), "n": np.int64(3), "x": np.float32(0.5)}]
        emit_csv(rows, tmp_path / "cells.csv", ("ok", "on", "n", "x"))
        assert (tmp_path / "cells.csv").read_text() == "ok,on,n,x\nTrue,False,3,0.5\n"
        with pytest.raises(ValidationError, match="cannot format cell of type list"):
            emit_csv([{"a": [1]}], tmp_path / "list.csv", ("a",))

    def test_single_row_outputs(self, tmp_path):
        rows = [{"p": 1, "error": 0.5}]
        emit_csv(rows, tmp_path / "one.csv", ("p", "error"))
        emit_svg(rows, tmp_path / "one.svg", "p", "error")
        assert (tmp_path / "one.csv").read_text() == "p,error\n1,0.5\n"
        assert (tmp_path / "one.svg").read_text().startswith("<svg")

    def test_svg_deterministic(self, tmp_path):
        cfg = small_fig1_config(seeds=[0, 1])
        result = run_sweep(cfg)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(result.rows, p1, "p", "error")
        emit_svg(result.rows, p2, "p", "error")
        assert p1.read_bytes() == p2.read_bytes()

    def test_timings_sidecar(self, tmp_path):
        cfg = small_fig1_config(seeds=[0])
        result = run_sweep(cfg)
        path = tmp_path / "t.csv"
        emit_timings_csv(result.timings, path, ("p", "seed"))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "p,seed,seconds"
        assert len(lines) == 1 + len(cfg.p_values)

    def test_timings_sidecar_text(self, tmp_path):
        # keys sorted and written through str, seconds through repr, as emit_csv writes cells
        path = tmp_path / "t.csv"
        emit_timings_csv({(2, 1): 0.5, (1, 3): 1e-07, (10, 0): 3}, path, ("p", "seed"))
        assert path.read_text() == "p,seed,seconds\n1,3,1e-07\n2,1,0.5\n10,0,3\n"
        with pytest.raises(ValidationError, match="refusing to write an empty table"):
            emit_timings_csv({}, tmp_path / "empty.csv", ("p", "seed"))
