import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from pronydec import ValidationError, fourier
from pronydec.cli import main
from pronydec.model import load_json, signal_to_dict
from pronydec.sweeps import SweepConfig


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    assert run("gen", "model", "--angles", "0.7,-1.1", "--multiplicities", "1,1",
               "--out", path) == 0
    return path


@pytest.fixture
def samples_file(tmp_path, model_file):
    path = tmp_path / "samples.json"
    assert run("moments", "--model", model_file, "--scheme", "0,5,8",
               "--noise", "1e-6", "--seed", "3", "--out", path) == 0
    return path


def test_gen_model_random(tmp_path):
    out = tmp_path / "m.json"
    assert run("gen", "model", "--num-nodes", "3", "--seed", "2", "--out", out) == 0
    data = load_json(out)
    assert len(data["nodes"]) == 3


def test_moments_and_solve_roundtrip(tmp_path, model_file, samples_file):
    est = tmp_path / "est.json"
    report = tmp_path / "report.json"
    code = run("solve", "--samples", samples_file, "--structure", "1,1",
               "--solver", "hankel", "--hints", "0.7,-1.1",
               "--out", est, "--report-out", report)
    assert code == 0
    got = load_json(est)
    truth = load_json(model_file)
    for a, b in zip(sorted(got["nodes"]), sorted(truth["nodes"])):
        assert abs(a - b) < 1e-4
    rep = load_json(report)
    assert rep["residual"] < 1e-5


def test_solve_lm_with_hints(tmp_path, samples_file):
    est = tmp_path / "est.json"
    assert run("solve", "--samples", samples_file, "--structure", "1,1",
               "--solver", "lm", "--hints", "0.69,-1.12", "--out", est) == 0


def test_solve_on_subscheme(tmp_path, model_file):
    dense = tmp_path / "dense.json"
    est = tmp_path / "est.json"
    assert run("moments", "--model", model_file, "--scheme", "0,1,40",
               "--out", dense) == 0
    code = run("solve", "--samples", dense, "--scheme", "0,5,8",
               "--structure", "1,1", "--solver", "hankel",
               "--hints", "0.7,-1.1", "--out", est)
    assert code == 0
    got = load_json(est)
    for a, b in zip(sorted(got["nodes"]), sorted([-1.1, 0.7])):
        assert abs(a - b) < 1e-8


def test_solve_subscheme_outside_samples(tmp_path, samples_file):
    est = tmp_path / "est.json"
    code = run("solve", "--samples", samples_file, "--scheme", "0,3,4",
               "--structure", "1,1", "--solver", "hankel",
               "--hints", "0.7,-1.1", "--out", est)
    assert code == 2


def test_bounds_prints_table(capsys, model_file):
    assert run("bounds", "--model", model_file, "--t", "0", "--p", "5",
               "--eps", "1e-6") == 0
    out = capsys.readouterr().out
    assert "node error bound" in out
    assert "coefficient error bound" in out


BOUNDS_TEXT = """\
stride=3 offset=2 eps=1e-06 separation=0.85476 unknowns=5
node  mult  |node error bound|  close-node gain p^-(R+m)
   0     1         1.55854e-05  0.00137174
   1     2         3.86625e-06  0.000457247
node  coeff  |coefficient error bound|
   0      0                 0.00133597
   1      0                  0.0169658
   1      1                 0.00439611
"""


def test_bounds_text_is_fixed(tmp_path, capsys):
    path = tmp_path / "model.json"
    assert run("gen", "model", "--angles", "0.7,-1.1", "--multiplicities", "2,1",
               "--coefficients", "[[[1.0,0.5],[0.25,-2.0]],[[3.0,0.0]]]", "--out", path) == 0
    capsys.readouterr()
    assert run("bounds", "--model", path, "--t", "2", "--p", "3", "--eps", "1e-6",
               "--C", "1.5") == 0
    assert capsys.readouterr().out == BOUNDS_TEXT


def test_bounds_nan_angle_exit_code(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "nodes": [float("nan")], "multiplicities": [1], "coefficients": [[[1.0, 0.0]]],
    }))
    assert run("bounds", "--model", path, "--t", "0", "--p", "5", "--eps", "1e-6") == 2


def test_bounds_nan_eps_exit_code(model_file):
    assert run("bounds", "--model", model_file, "--p", "5", "--eps", "nan") == 2


def test_bounds_malformed_model_exit_code(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"nodes": [0.1]}))
    assert run("bounds", "--model", path, "--eps", "1e-6") == 2


def test_bounds_invalid_json_exit_code(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"nodes": [0.1')
    assert run("bounds", "--model", path, "--eps", "1e-6") == 2


def test_solve_short_value_pair_exit_code(tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({
        "scheme": {"offset": 0, "stride": 1, "count": 2},
        "values": [[1.0, 0.0], [1.0]],
        "noise_level": 0.0,
    }))
    assert run("solve", "--samples", samples, "--structure", "1",
               "--out", tmp_path / "est.json") == 2


@pytest.mark.parametrize("extra", [(), ("--solver", "lm", "--hints", "0.7")])
def test_solve_empty_structure_exit_code(tmp_path, model_file, extra):
    dense = tmp_path / "dense.json"
    assert run("moments", "--model", model_file, "--scheme", "0,1,8", "--out", dense) == 0
    assert run("solve", "--samples", dense, "--structure", "", *extra,
               "--out", tmp_path / "est.json") == 2


@pytest.mark.parametrize("argv", [
    ("gen", "model", "--angles", "0.1,abc"),
    ("gen", "model", "--angles", "0.7", "--coefficients", "[[1]]"),
    ("gen", "model", "--angles", "0.7", "--coefficients", "[["),
    ("gen", "model", "--num-nodes", "0"),
    ("gen", "signal", "-K", "0"),
    ("gen", "signal", "--psi-degree", "-1"),
    ("gen", "model", "--num-nodes", "1", "--min-separation", "nan"),
    ("gen", "signal", "--min-separation", "nan"),
    ("gen", "model", "--angles", "0.7", "--coefficients", '[[["1", "0"]]]'),
])
def test_gen_malformed_arguments_exit_code(tmp_path, argv):
    assert run(*argv, "--out", tmp_path / "out.json") == 2


def test_moments_malformed_scheme_exit_code(tmp_path, model_file):
    assert run("moments", "--model", model_file, "--scheme", "0,1,x",
               "--out", tmp_path / "s.json") == 2


def test_solve_scheme_needs_three_parts(tmp_path, capsys, samples_file):
    assert run("solve", "--samples", samples_file, "--scheme", "0,1", "--structure", "1,1",
               "--hints", "0.7,-1.1", "--out", tmp_path / "est.json") == 2
    assert capsys.readouterr().err == "error: scheme must be offset,stride,count\n"


def test_solve_lm_from_init(tmp_path, model_file, samples_file):
    """--init is the command line's route to lm_refine: the refinement starts
    at the initial model's nodes, with no hints."""
    est, report = tmp_path / "est.json", tmp_path / "report.json"
    assert run("solve", "--samples", samples_file, "--structure", "1,1", "--solver", "lm",
               "--init", model_file, "--out", est, "--report-out", report) == 0
    rep = load_json(report)
    assert rep["method"] == "lm" and rep["residual"] < 1e-5
    assert sorted(load_json(est)["nodes"]) == pytest.approx([-1.1, 0.7], abs=1e-6)


@pytest.mark.parametrize("extra, flag", [
    (("--structure", "1,1"), "--solver"),
    (("--structure", "1,1", "--solver", "esprit"), "--solver"),
    (("--structure", "1,1", "--solver", "lm", "--hints", "0.1,0.2"), "--hints"),
    (("--structure", "1,1", "--solver", "lm", "--no-refine"), "--no-refine"),
    (("--structure", "2,1", "--solver", "lm"), "--structure"),
], ids=["default-solver", "esprit", "hints", "no-refine", "structure"])
def test_solve_init_conflict_exit_code(tmp_path, model_file, samples_file, capsys, extra, flag):
    """--init went unread with any solver but lm, and with lm it dropped
    --hints, --no-refine and a --structure unlike the initial model's."""
    est = tmp_path / "est.json"
    assert run("solve", "--samples", samples_file, *extra, "--init", model_file, "--out", est) == 2
    assert flag in capsys.readouterr().err
    assert not est.exists()


def test_solve_init_needs_a_sample_per_coefficient(tmp_path, model_file, capsys):
    """On one sample with two coefficients lm_refine returned the initial
    model with residual 0, and the command exited 0."""
    one, est = tmp_path / "one.json", tmp_path / "est.json"
    assert run("moments", "--model", model_file, "--scheme", "0,1,1", "--out", one) == 0
    capsys.readouterr()
    assert run("solve", "--samples", one, "--structure", "1,1", "--solver", "lm",
               "--init", model_file, "--out", est) == 2
    assert capsys.readouterr().err == "error: need at least as many samples as coefficients\n"
    assert not est.exists()


@pytest.mark.parametrize("command", [
    ("solve", "--structure", "1,1", "--hint", "0.7,-1.1"),
    ("solve", "--struct", "1,1", "--hints", "0.7,-1.1"),
    ("gen", "model", "--angle", "0.7"),
], ids=["hint", "struct", "angle"])
def test_abbreviated_long_option_exit_code(tmp_path, samples_file, command):
    """argparse took --hint for --hints, --struct for --structure and
    --angle for --angles, and the command exited 0."""
    out = tmp_path / "out.json"
    given = ("--samples", samples_file) if command[0] == "solve" else ()
    with pytest.raises(SystemExit) as exited:
        run(*command, *given, "--out", out)
    assert exited.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("gen", "window", "-M", "1000000000000"),
    ("gen", "signal", "--psi-degree", "1000000000000"),
], ids=["window", "signal"])
def test_index_past_the_forward_limit_exit_code(tmp_path, capsys, command):
    """Both died with a MemoryError traceback, allocating 7.28 TiB and 14.6 TiB."""
    signal, out = tmp_path / "sig.json", tmp_path / "out"
    assert run("gen", "signal", "--out", signal) == 0
    capsys.readouterr()
    assert run(*command, *(["--signal", signal] if command[1] == "window" else []), "--out", out) == 2
    assert "must be at most 10000000, got 1000000000000" in capsys.readouterr().err
    assert not out.exists()


def test_solve_malformed_hints_exit_code(tmp_path, samples_file):
    assert run("solve", "--samples", samples_file, "--structure", "1,1",
               "--hints", "a,b", "--out", tmp_path / "est.json") == 2


@pytest.mark.parametrize("line", ["0.5 1.0 0", "0 1.0 x"])
def test_reconstruct_malformed_window_exit_code(tmp_path, line):
    win = tmp_path / "win.txt"
    win.write_text(f"-1 0.0 0.0\n{line}\n1 0.0 0.0\n")
    assert run("reconstruct", "--window", win, "-d", "0", "-K", "1",
               "-J", "6.0", "--out", tmp_path / "rec.json") == 2


def test_reconstruct_pipeline(tmp_path):
    sig = tmp_path / "sig.json"
    win = tmp_path / "win.txt"
    rec = tmp_path / "rec.json"
    assert run("gen", "signal", "-d", "0", "-K", "1", "--seed", "4", "--out", sig) == 0
    assert run("gen", "window", "--signal", sig, "-M", "64", "--out", win) == 0
    assert run("reconstruct", "--window", win, "-d", "0", "-K", "1",
               "-J", "6.0", "--out", rec) == 0
    data = load_json(rec)
    true_jump = load_json(sig)["jumps"][0]
    assert abs(data["jumps"][0] - true_jump) < 1e-3


def test_reconstruct_output_matches_result(tmp_path):
    sig = tmp_path / "sig.json"
    win = tmp_path / "win.txt"
    rec = tmp_path / "rec.json"
    assert run("gen", "signal", "-d", "1", "-K", "2", "--seed", "3",
               "--min-separation", "1.6", "--out", sig) == 0
    assert run("gen", "window", "--signal", sig, "-M", "256", "--out", win) == 0
    assert run("reconstruct", "--window", win, "-d", "1", "-K", "2",
               "-J", "1.5", "--out", rec) == 0
    result = fourier.reconstruct(fourier.read_window_file(win), 1, 2, 1.5)
    data = load_json(rec)
    assert rec.read_text().count("\n") == 1
    assert data["smoothness"] == 1
    assert data["jumps"] == list(result.jumps)
    assert data["magnitudes"] == [list(row) for row in result.magnitudes]
    m = result.corrected.bandwidth
    assert data["corrected"] == [
        [k, c.real, c.imag] for k, c in zip(range(-m, m + 1), result.corrected.coeffs)
    ]


def test_sweep_outputs_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "fixed-count-decimation",
        "seeds": [0, 1, 2],
        "noise": 1e-4,
        "solver": "hankel",
        "p_values": [1, 8],
        "count": 40,
        "model": {"kind": "two-node", "gap": 0.01},
    }))
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    svg = tmp_path / "plot.svg"
    timing = tmp_path / "t.csv"
    assert run("sweep", "--config", cfg, "--csv", csv1, "--svg", svg,
               "--timing-out", timing) == 0
    assert run("sweep", "--config", cfg, "--csv", csv2, "--workers", "2") == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    assert svg.read_text().startswith("<svg")
    assert timing.exists()


@pytest.mark.parametrize("field, value", [
    ("csv_path", "from_config.csv"), ("csv_path", 5), ("svg_path", 1), ("timing_path", 2),
])
def test_sweep_config_path_field_rejected(tmp_path, capsys, field, value):
    """Output paths come from the CLI flags only: a path field in the config
    exits 2, names the field and writes nothing (1 and 2 are stdout/stderr)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "fixed-count-decimation",
        "seeds": [0],
        "noise": 0.0,
        "solver": "hankel",
        "p_values": [1, 4],
        "count": 20,
        "model": {"kind": "two-node", "gap": 0.01},
        field: value,
    }))
    assert run("sweep", "--config", cfg) == 2
    out, err = capsys.readouterr()
    assert field in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("argv", [
    ("bounds", "--model", "missing.json", "--eps", "1e-6"),
    ("reconstruct", "--window", "missing.txt", "-d", "0", "-K", "1", "-J", "1.0", "--out", "o.json"),
    ("sweep", "--config", "missing.json"),
])
def test_missing_input_file_exit_code(tmp_path, capsys, argv):
    command, *options = argv
    options = [tmp_path / o if o.startswith(("missing", "o.")) else o for o in options]
    assert run(command, *options) == 2
    assert "missing" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_workers_flag_on_non_object_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run("sweep", "--config", cfg, "--workers", "2") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_spec_value_must_be_finite(tmp_path, capsys):
    """A NaN reconstruction_separation made every row NaN with exit 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_FOURIER, "signal": {**_FOURIER["signal"],
                                                      "reconstruction_separation": math.nan}}))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "out.csv") == 2
    assert "reconstruction_separation" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_config_integer_past_the_digit_limit(tmp_path, capsys):
    """json.load rejects a 5,001-digit integer with a plain ValueError, which
    escaped as a traceback with exit 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_FOURIER).replace('"smoothness": 0', '"smoothness": 1' + "0" * 5000))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "out.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_sweep_index_past_the_forward_limit_exit_code(tmp_path, capsys):
    """This config built, and the sweep then failed on its first task."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "fixed-count-decimation", "seeds": [0], "p_values": [1, 10**9],
                               "count": 1000, "model": {"kind": "two-node", "gap": 0.01}}))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "out.csv") == 2
    assert "index extent 1000000000000 exceeds the supported 10000000" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_stride_past_the_top_index_exit_code(tmp_path, capsys):
    """This config built, and the sweep then died mid-run on SamplingScheme(0, 50, 0)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "fixed-top-index-decimation", "seeds": [0], "p_values": [1, 50],
                               "top_index": 20, "model": {"kind": "two-node"}}))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "out.csv") == 2
    assert "fixed-top-index-decimation stride 50 exceeds top_index 20" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_gen_model_multiplicity_past_the_limit_exit_code(tmp_path, capsys):
    """The model was written, and only `moments` on it exited 2."""
    out = tmp_path / "model.json"
    assert run("gen", "model", "--angles", "0.1", "--multiplicities", "13", "--out", out) == 2
    assert "multiplicities above 12 are not supported" in capsys.readouterr().err
    assert not out.exists()


def test_validation_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "bogus", "seeds": [0]}))
    assert run("sweep", "--config", cfg) == 2


@pytest.mark.parametrize("config, key", [
    ({"kind": "fixed-count-decimation", "seeds": [0], "p_values": [1], "count": 8,
      "model": {"kind": "two-node", "gap": "a"}}, "gap"),
    ({"kind": "fourier-convergence", "seeds": [0], "m_values": [64, 128],
      "signal": {"smoothness": "x"}}, "smoothness"),
])
def test_sweep_spec_value_type_exit_code(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "out.csv") == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"kind": "bound-check", "seeds": [0], "p_values": [1],
      "model": {"kind": "random-simple", "num_nodes": True}}, "num_nodes"),
    ({"kind": "fourier-convergence", "seeds": [0], "m_values": [32, 64, 128],
      "signal": {"smoothness": -1, "num_jumps": 1, "psi_degree": 256}}, "smoothness"),
])
def test_sweep_spec_integer_exit_code(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "rows.csv", "--svg",
               tmp_path / "plot.svg", "--timing-out", tmp_path / "times.csv") == 2
    assert f"spec value {key} must be an integer" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("missing", ["smoothness", "num_jumps"])
def test_sweep_signal_spec_missing_key_exit_code(tmp_path, capsys, missing):
    signal = {"smoothness": 0, "num_jumps": 1}
    del signal[missing]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "fourier-convergence", "seeds": [0],
                               "m_values": [64, 128], "signal": signal}))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "out.csv") == 2
    assert missing in capsys.readouterr().err


@pytest.mark.parametrize("config, x_col, y_col", [
    ({"kind": "fourier-convergence", "seeds": [0], "m_values": [32, 64, 128],
      "signal": {"smoothness": 0, "num_jumps": 1, "psi_degree": 256}}, "M", "jump_error"),
    ({"kind": "fixed-count-decimation", "seeds": [0], "noise": 1e-6, "p_values": [1, 4],
      "count": 20, "model": {"kind": "two-node", "gap": 0.01}}, "p", "error"),
])
def test_sweep_timing_keys_and_plot_axes(tmp_path, config, x_col, y_col):
    cfg, svg, timing = tmp_path / "cfg.json", tmp_path / "plot.svg", tmp_path / "t.csv"
    cfg.write_text(json.dumps(config))
    assert run("sweep", "--config", cfg, "--svg", svg, "--timing-out", timing) == 0
    assert timing.read_text().splitlines()[0] == f"{x_col},seed,seconds"
    plot = svg.read_text()
    assert plot.startswith("<svg")
    assert f">{x_col}</text>" in plot and f">{y_col}</text>" in plot


def test_sweep_without_output_paths(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "fixed-count-decimation", "seeds": [0], "p_values": [1],
                               "count": 8, "model": {"kind": "two-node", "gap": 0.5}}))
    assert run("sweep", "--config", cfg) == 0
    assert capsys.readouterr().out == "ran fixed-count-decimation: 2 rows (no output paths given)\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


def test_sweep_esprit_bound_check_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "bound-check", "seeds": [0, 1], "solver": "esprit", "p_values": [1, 4],
        "model": {"kind": "random-simple", "num_nodes": 2},
    }))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "out.csv") == 2
    err = capsys.readouterr().err
    assert "bound-check" in err and "esprit" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("m_values", [[64, 128], [64, 64, 128]])
def test_sweep_two_bandwidths_exit_code(tmp_path, capsys, m_values):
    # the slopes are fitted on the largest ceil(half) bandwidths: one point here
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "fourier-convergence", "seeds": [0], "m_values": m_values,
        "signal": {"smoothness": 0, "num_jumps": 1, "reconstruction_separation": 8.0},
    }))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "out.csv") == 2
    assert "bandwidths" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ("gen", "signal", "-d", 10**12, "-K", 1),
    ("reconstruct", "-d", 170, "-K", 1, "-J", 6.0),
], ids=["gen-signal", "reconstruct"])
def test_order_past_the_float_limit_exit_code(tmp_path, capsys, argv):
    """gen signal looped over a trillion orders before any check; a
    smoothness of 170 or more overflows (d + 1)!."""
    if argv[0] == "reconstruct":
        win = tmp_path / "win.txt"
        win.write_text("".join(f"{k} 0.5 0.0\n" for k in range(-64, 65)))
        argv += ("--window", win)
    assert run(*argv, "--out", tmp_path / "out.json") == 2
    assert "smoothness must be at most 169" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_gen_signal_takes_generator_defaults(tmp_path):
    sig = tmp_path / "sig.json"
    assert run("gen", "signal", "-d", "1", "-K", "2", "--seed", "3", "--out", sig) == 0
    assert load_json(sig) == signal_to_dict(fourier.random_piecewise_signal(1, 2, 3))


def test_solver_failure_exit_code(tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({
        "scheme": {"offset": 0, "stride": 1, "count": 4},
        "values": [[1.0, 0.0], [10.0, 0.0], [100.0, 0.0], [1000.0, 0.0]],
        "noise_level": 0.0,
    }))
    est = tmp_path / "est.json"
    code = run("solve", "--samples", samples, "--structure", "1",
               "--solver", "annihilation", "--hints", "0.0", "--out", est)
    assert code == 3


def test_solve_lm_no_refine_is_the_fit_at_the_hints(tmp_path, samples_file):
    est, report = tmp_path / "est.json", tmp_path / "report.json"
    assert run("solve", "--samples", samples_file, "--structure", "1,1", "--solver", "lm",
               "--hints", "0.69,-1.12", "--no-refine", "--out", est,
               "--report-out", report) == 0
    rep = load_json(report)
    assert rep["method"] == "lm" and rep["iterations"] == 1
    assert sorted(load_json(est)["nodes"]) == pytest.approx([-1.12, 0.69], abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("moments", "--noise", "nan"),
    ("moments", "--noise", "-1"),
    ("bounds", "--C", "nan"),
    ("bounds", "--t", "-1"),
    ("solve", "--solver", "lm", "--hints", "nan,0.2"),
])
def test_bad_numeric_option_exit_code(tmp_path, capsys, model_file, samples_file, argv):
    command, *options = argv
    given = {
        "moments": ("--model", model_file, "--scheme", "0,1,8", "--out", tmp_path / "s.json"),
        "bounds": ("--model", model_file, "--p", "5", "--eps", "1e-6"),
        "solve": ("--samples", samples_file, "--structure", "1,1", "--out", tmp_path / "e.json"),
    }[command]
    assert run(command, *given, *options) == 2
    assert capsys.readouterr().err.startswith("error: ")


_FIXED_TOP = {"kind": "fixed-top-index-decimation", "seeds": [0], "p_values": [1, 10],
              "top_index": 200, "model": {"kind": "two-node", "gap": 0.01}}
_FOURIER = {"kind": "fourier-convergence", "seeds": [0], "m_values": [32, 64, 128],
            "signal": {"smoothness": 0, "num_jumps": 1, "psi_degree": 256}}
_FIXED_COUNT = {"kind": "fixed-count-decimation", "seeds": [0], "p_values": [1, 4],
                "count": 20, "model": {"kind": "two-node", "gap": 0.01}}


@pytest.mark.parametrize("base, change", [
    (_FIXED_TOP, {"p_values": [1, 0]}),
    (_FIXED_COUNT, {"workers": 1.5}),
    (_FOURIER, {"exclusion_radius": "abc"}),
    (_FOURIER, {"exclusion_radius": 10.0}),
    (_FOURIER, {"grid_size": 0}),
    (_FOURIER, {"grid_size": 1024.5}),
    (_FIXED_COUNT, {"seeds": [0.5]}),
    (_FIXED_COUNT, {"count": 10.7}),
    (_FIXED_COUNT, {"p_values": [1.5]}),
], ids=lambda v: v["kind"].split("-")[0] if "kind" in v else "".join(f"{k}={w}" for k, w in v.items()))
def test_sweep_bad_config_value_exit_code(tmp_path, capsys, base, change):
    config = {**base, **change}
    with pytest.raises(ValidationError):
        SweepConfig.from_dict(config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run("sweep", "--config", cfg, "--csv", tmp_path / "out.csv") == 2
    assert next(iter(change)) in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "gen model", "gen signal", "moments"])
def test_negative_seed_exit_code(tmp_path, capsys, model_file, command):
    """A negative seed reached numpy's generator: ValueError traceback, exit 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_FIXED_COUNT, "seeds": [-1]}))
    argv = {
        "sweep": ("sweep", "--config", cfg),
        "gen model": ("gen", "model", "--seed", "-1", "--out", tmp_path / "m.json"),
        "gen signal": ("gen", "signal", "--seed", "-1", "--out", tmp_path / "s.json"),
        "moments": ("moments", "--model", model_file, "--scheme", "0,1,8", "--noise", "0.1",
                    "--seed", "-1", "--out", tmp_path / "x.json"),
    }[command]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed" in err and "Traceback" not in err


def test_reconstruct_infinite_window_writes_only_the_error(tmp_path):
    """numpy's RuntimeWarning from the window symmetry test came first."""
    window = tmp_path / "inf.txt"
    window.write_text("-1 0.0 0.0\n0 1e400 0.0\n1 0.0 0.0\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "pronydec.cli", "reconstruct", "--window", str(window),
         "-d", "0", "-K", "1", "-J", "1.0", "--out", str(tmp_path / "o.json")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: window coefficients must be finite\n"
