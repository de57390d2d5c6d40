"""The README as a contract: its CLI examples run, and the vocabularies and
exit codes it lists are the code's."""

import json
import pathlib
import re
import shlex

import pytest

from pronydec import sweeps
from pronydec.cli import main
from pronydec.solvers import BASE_SOLVERS

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# the README's prose with its line breaks folded, so a phrase may span lines
PROSE = " ".join(README.split())


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def cli_lines():
    """Every `pronydec ...` command of the sh blocks, in order, with its
    backslash continuations joined."""
    lines = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["pronydec"]:
                lines.append(words[1:])
    return lines


def backticked(text):
    return re.findall(r"`([^`]+)`", text)


def test_cli_examples_run_in_order(tmp_path, monkeypatch):
    (config,) = fenced_blocks("json")
    (tmp_path / "sweep.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    commands = cli_lines()
    assert [argv[0] for argv in commands] == [
        "gen", "moments", "solve", "bounds", "gen", "gen", "reconstruct", "sweep"]
    for argv in commands:
        assert main(argv) == 0, argv
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 31  # header and 30 rows


def test_sweep_kinds_are_the_codes():
    kinds = re.search(r"Kinds: (.*?) The decimation kinds'", PROSE).group(1)
    assert set(re.findall(r"`([a-z-]+)` \(", kinds)) == set(sweeps.KINDS)


def test_solver_lists_are_the_codes():
    base = re.search(r"\(`BASE_SOLVERS`: (.*?)\)", PROSE).group(1)
    assert tuple(backticked(base)) == BASE_SOLVERS
    decimation = re.search(r"`sweeps.DECIMATION_SOLVERS` \((.*?)\)", PROSE).group(1)
    assert tuple(backticked(decimation)) == sweeps.DECIMATION_SOLVERS


def test_exit_codes_are_the_codes(tmp_path, capsys):
    success, validation, failure = re.search(
        r"Exit codes: `(\d)` success, `(\d)` validation error .*?, `(\d)` solver failure", PROSE).groups()
    model = tmp_path / "model.json"
    assert main(["gen", "model", "--angles", "0.7", "--out", str(model)]) == int(success)
    assert main(["gen", "model", "--num-nodes", "0", "--out", str(model)]) == int(validation)
    # four samples 10^s: no unit-modulus node fits them
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({
        "scheme": {"offset": 0, "stride": 1, "count": 4},
        "values": [[1.0, 0.0], [10.0, 0.0], [100.0, 0.0], [1000.0, 0.0]],
        "noise_level": 0.0,
    }))
    assert main(["solve", "--samples", str(samples), "--structure", "1", "--solver", "annihilation",
                 "--hints", "0.0", "--out", str(tmp_path / "est.json")]) == int(failure)
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("stale", [r"\d+ tests", r"\d+ s on \d+ cores"], ids=["test-count", "run-time"])
def test_no_counts_a_test_cannot_keep_true(stale):
    assert re.search(stale, README) is None
