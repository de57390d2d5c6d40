"""The experiment scripts run end to end in their --quick form."""

import pathlib
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
        f"convergence_d{d}_K{k}.{ext}" for d, k in ((0, 1), (1, 2), (2, 1))
        for ext in ("csv", "svg")
    ]),
])
def test_quick_run(tmp_path, script, outputs):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(outputs)
