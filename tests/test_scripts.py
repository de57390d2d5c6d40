"""The experiment scripts run end to end in their --quick form."""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, outputs", [
    ("run_decimation_sweeps.py", [
        f"{name}{suffix}" for name in ("fixed_count", "fixed_top")
        for suffix in (".csv", ".svg", "_timing.csv")
    ]),
    ("run_fourier_convergence.py", [
        f"convergence_d{d}_K{k}{suffix}" for d, k in ((0, 1), (1, 2), (2, 1))
        for suffix in (".csv", ".svg", "_timing.csv")
    ]),
])
def test_quick_run(tmp_path, script, outputs):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(outputs)


def test_line_reach_smoke():
    """The tracer runs pytest on one test file and lists the lines it never ran."""
    root = SCRIPTS.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_reach.py"), "tests/test_model.py", "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=300, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    files = re.findall(r"^src/pronydec/(\w+\.py): (\d+) never run: [\d, ]+$", proc.stdout, re.M)
    total = re.search(r"^never-run lines: (\d+)$", proc.stdout, re.M)
    assert total and int(total.group(1)) == sum(int(n) for _, n in files)
    # the model tests never import the command line, and run most of model.py
    assert "cli.py" in dict(files) and 0 < int(dict(files)["model.py"]) < 100


def test_gate_margins_smoke(tmp_path):
    """Two small seed blocks: every criterion-6 gate of each config and block, with
    the test's threshold, criteria 3-5's statistics on the same blocks, and a
    comparison of the file with itself."""
    out = tmp_path / "margins.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "gate_margins.py"), "--first", "100", "--blocks", "2",
         "--block-size", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    gates = json.loads(out.read_text())["gates"]
    blocks = {(g["d"], g["K"], tuple(g["seeds"])) for g in gates}
    assert blocks == {(d, k, seeds) for d, k in ((0, 1), (1, 2), (2, 1)) for seeds in ((100, 102), (103, 105))}
    assert len(gates) == 2 * (3 + 4 + 5)
    for g in gates:
        d = g["d"]
        rates = {"jump_error": -(d + 2), "sup_away": -(d + 1), **{f"mag_error_{l}": l - d - 1 for l in range(d + 1)}}
        assert g["threshold"] == rates[g["gate"]] + 0.4
        assert g["margin"] == g["threshold"] - g["slope"]
    assert proc.stdout.count("criterion 6 (d=") == 6
    decimation = json.loads(out.read_text())["decimation"]
    assert [(g["criterion"], g["solver"], tuple(g["seeds"])) for g in decimation] == [
        (c, solver, seeds) for c, solver in ((3, "hankel"), (3, "lm"), (4, "hankel"), (5, "hankel"))
        for seeds in ((100, 102), (103, 105))
    ]
    for g in decimation:
        assert g["threshold"] == 10.0 and g["nan"] == 0
        assert g["room"] == (g["value"] / 10.0 if g["criterion"] == 3 else 10.0 / g["value"])
        assert g["passes"] == (g["room"] >= 1.0)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "gate_margins.py"), "--compare", str(out), str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "criteria 3-5 statistics identical: 8 of 8" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "largest slope move: 0.00e+00"


@pytest.fixture(scope="module")
def drift():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import drift
    finally:
        sys.path.remove(str(SCRIPTS))
    return drift


@pytest.fixture(scope="module")
def drift_records(drift, tmp_path_factory):
    """Two drift records of this checkout, each on the first two seeds of every acceptance sweep."""
    records = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(drift, "ACCEPTANCE_SEEDS", dict.fromkeys(drift.ACCEPTANCE_SEEDS, 2))
        for name in ("first", "second"):
            out = tmp_path_factory.mktemp("drift") / name
            drift.write_all(out)
            records.append(out)
    return records


def compare_drift(first, second):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "drift.py"), "--compare", str(first), str(second)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_drift_smoke(drift_records):
    """Two runs of one checkout are identical file for file, timing sidecars aside."""
    first, second = drift_records
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["wc_l"]["total"] > manifest["code_lines"]["total"] > 0
    assert {"acceptance/criterion3_lm.csv", "acceptance/criterion6_d1_K2.csv", "acceptance/criterion8.csv",
            "quick/decimation/fixed_top.svg", "quick/fourier/convergence_d2_K1.csv",
            "cli/solve_annihilation_norefine_p32_report.json", "cli/transcript.txt"} <= set(manifest["files"])
    lines = compare_drift(first, second)
    assert sum(line.endswith(": identical") for line in lines) == len(manifest["files"]) - 5  # timing sidecars
    assert not any(line.endswith(": different") or ": only in " in line for line in lines)
    wc, code = manifest["wc_l"]["total"], manifest["code_lines"]["total"]
    assert lines[-2:] == [f"wc -l src/pronydec: {wc} -> {wc} (+0)",
                          f"code-only lines src/pronydec: {code} -> {code} (+0)"]


def test_drift_counts_code_lines_without_docstrings_comments_or_blanks(drift, tmp_path):
    path = tmp_path / "module.py"
    path.write_text('''"""Module docstring,
over two lines."""

import math  # a comment


def f(x):
    """Docstring."""
    # a comment line
    text = """a string
    that is code"""
    return (math.pi
            + x)
''')
    assert drift.code_lines(path) == 6  # import, def, the two lines of text, the two of return


def test_drift_reports_a_moved_cell_and_flag(drift_records, tmp_path):
    first, _ = drift_records
    changed = tmp_path / "changed"
    shutil.copytree(first, changed)
    path = changed / "acceptance" / "criterion3_hankel.csv"
    header, *rows = path.read_text().splitlines()
    cells = rows[2].split(",")
    cells[3] = repr(float(cells[3]) * 1.5)  # the error column
    cells[-1] = "max-iterations"  # the flags column
    path.write_text("\n".join([header, *rows[:2], ",".join(cells), *rows[3:]]) + "\n")
    lines = compare_drift(first, changed)
    at = lines.index("acceptance/criterion3_hankel.csv: different")
    assert lines[at + 1:at + 3] == [
        f"  error: 1 of {len(rows)} rows moved, largest relative change 0.5",
        "  flags: gained max-iterations; lost none",
    ]
    assert sum(line.endswith(": different") for line in lines) == 1
