#!/usr/bin/env python3
"""The drift and byte-identity record of one checkout, and the comparison of two.

--out DIR runs this checkout (the src/ and scripts/ beside this file) and
writes under DIR:
- acceptance/: the CSVs of the acceptance sweeps, each on its test's seeds
  with the configs imported from tests/test_acceptance.py: criterion 3 (one
  per solver), 4, 5 and 8, and criterion 6's three configs;
- quick/: the outputs of scripts/run_decimation_sweeps.py and
  scripts/run_fourier_convergence.py --quick;
- cli/: the files of a fixed list of pronydec commands (models, samples,
  solves with their reports for every base solver, refined or not, at
  strides 1, 8 and 32, lm from --init and the --init conflicts, bounds
  tables, signals, windows and reconstructions), run in that directory, and
  transcript.txt with each command's output and exit code;
- manifest.json: each file's SHA-256, `wc -l` of src/pronydec/*.py, and its
  code-only line count (code_lines below).

--compare A B reads two such directories and prints, for each file, whether
it is identical, different or present in one only.  For a CSV that differs
it prints, per numeric column that moved, the largest relative change and
the number of rows that moved, the flags gained and lost, and the NaN cells
gained and lost.  It ends with the line-count deltas.  Timing sidecars
(*_timing.csv) are skipped by name.

The script measures: it changes no seed, tolerance, gate or output format.

Usage:
  python scripts/drift.py --out DIR
  python scripts/drift.py --compare A B
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from pronydec.cli import main as pronydec  # noqa: E402
from pronydec.sweeps import SweepConfig, emit_csv, run_sweep  # noqa: E402
from test_acceptance import (  # noqa: E402
    BOUND_CHECK_CONFIG,
    FIXED_COUNT_CONFIG,
    FIXED_COUNT_SOLVERS,
    FIXED_TOP_CONFIG,
    FOURIER_CONFIGS,
    FOURIER_EXCLUSION_RADIUS,
    FOURIER_GRID_SIZE,
    FOURIER_M_VALUES,
)

#: the seed counts each acceptance test writes inline (criteria 3, 4, 5, 6, 8)
ACCEPTANCE_SEEDS = {3: 50, 4: 50, 5: 100, 6: 10, 8: 8}
QUICK_SCRIPTS = {"decimation": "run_decimation_sweeps.py", "fourier": "run_fourier_convergence.py"}
TIMING_SUFFIX = "_timing.csv"
MANIFEST = "manifest.json"
TRANSCRIPT = "transcript.txt"


# ---------------------------------------------------------------------------
# line counts
# ---------------------------------------------------------------------------

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    """Lines that hold code: every line a token spans, less comments, blank
    lines and docstrings (a string that is a whole statement by itself)."""
    with path.open("rb") as handle:
        tokens = [t for t in tokenize.tokenize(handle.readline) if t.type not in _LAYOUT]
    lines = set()
    for i, tok in enumerate(tokens):  # every statement ends in a NEWLINE token
        if tok.type == tokenize.NEWLINE:
            continue
        alone = (i == 0 or tokens[i - 1].type == tokenize.NEWLINE) and tokens[i + 1].type == tokenize.NEWLINE
        if not (tok.type == tokenize.STRING and alone):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def line_counts() -> dict:
    paths = sorted((ROOT / "src" / "pronydec").glob("*.py"))
    wc = {p.name: len(p.read_bytes().splitlines()) for p in paths}
    code = {p.name: code_lines(p) for p in paths}
    return {"wc_l": {**wc, "total": sum(wc.values())}, "code_lines": {**code, "total": sum(code.values())}}


# ---------------------------------------------------------------------------
# the artefacts
# ---------------------------------------------------------------------------

def write_acceptance(out: pathlib.Path) -> None:
    def sweep(name, criterion, **config):
        seeds = list(range(ACCEPTANCE_SEEDS[criterion]))
        result = run_sweep(SweepConfig(seeds=seeds, **config))
        emit_csv(result.rows, out / f"{name}.csv", result.columns)

    out.mkdir(parents=True)
    for solver in FIXED_COUNT_SOLVERS:
        sweep(f"criterion3_{solver}", 3, solver=solver, **FIXED_COUNT_CONFIG)
    sweep("criterion4", 4, **FIXED_TOP_CONFIG)
    sweep("criterion5", 5, **BOUND_CHECK_CONFIG)
    for (d, k), signal in FOURIER_CONFIGS.items():
        sweep(f"criterion6_d{d}_K{k}", 6, kind="fourier-convergence", m_values=FOURIER_M_VALUES, signal=signal,
              exclusion_radius=FOURIER_EXCLUSION_RADIUS, grid_size=FOURIER_GRID_SIZE)
    sweep("criterion8", 8, solver="hankel", **FIXED_COUNT_CONFIG)


def write_quick(out: pathlib.Path) -> None:
    for name, script in QUICK_SCRIPTS.items():
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--quick", "--out", str(out / name)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{script} --quick failed:\n{proc.stderr}")


def cli_commands() -> list:
    """The argv of every command, in order; later ones read earlier files."""
    commands = [["gen", "model", "--angles", "0.7,-1.1", "--out", "model_pair.json"],
                ["gen", "model", "--angles", "0.4", "--out", "model_single.json"]]
    hints = {"pair": ("1,1", "0.7,-1.1"), "single": ("1", "0.4")}
    solvers = [("hankel", "pair"), ("esprit", "pair"), ("lm", "pair"), ("annihilation", "single")]
    for p in (1, 8, 32):
        for model in hints:
            commands.append(["moments", "--model", f"model_{model}.json", "--scheme", f"0,{p},12",
                             "--noise", "1e-6", "--seed", "3", "--out", f"samples_{model}_p{p}.json"])
        for solver, model in solvers:
            structure, hint = hints[model]
            for refine in ("refine", "norefine"):
                name = f"solve_{solver}_{refine}_p{p}"
                commands.append(["solve", "--samples", f"samples_{model}_p{p}.json", "--structure", structure,
                                 "--solver", solver, "--hints", hint,
                                 *(["--no-refine"] if refine == "norefine" else []),
                                 "--out", f"{name}.json", "--report-out", f"{name}_report.json"])
        init = ["solve", "--samples", f"samples_pair_p{p}.json", "--init", "model_pair.json"]
        conflicts = {"": ["--structure", "1,1", "--solver", "lm"],
                     "_conflict_solver": ["--structure", "1,1", "--solver", "hankel"],
                     "_conflict_hints": ["--structure", "1,1", "--solver", "lm", "--hints", "0.7,-1.1"],
                     "_conflict_norefine": ["--structure", "1,1", "--solver", "lm", "--no-refine"],
                     "_conflict_structure": ["--structure", "2", "--solver", "lm"]}
        for suffix, extra in conflicts.items():
            name = f"solve_lm_init{suffix}_p{p}"
            commands.append([*init, *extra, "--out", f"{name}.json", "--report-out", f"{name}_report.json"])
        commands.append(["bounds", "--model", "model_pair.json", "--p", str(p), "--eps", "1e-6"])
    for d, k, m in ((0, 1, 256), (2, 1, 2048), (1, 2, 512), (0, 3, 1024)):
        tag = f"d{d}_K{k}_M{m}"
        commands += [
            ["gen", "signal", "-d", str(d), "-K", str(k), "--seed", "4", "--out", f"signal_{tag}.json"],
            ["gen", "window", "--signal", f"signal_{tag}.json", "-M", str(m), "--out", f"window_{tag}.txt"],
            ["reconstruct", "--window", f"window_{tag}.txt", "-d", str(d), "-K", str(k), "-J", "1.5",
             "--out", f"reconstruct_{tag}.json"],
        ]
    return commands


def write_cli(out: pathlib.Path) -> None:
    out.mkdir(parents=True)
    transcript = []
    cwd = os.getcwd()
    os.chdir(out)  # relative paths keep the output text free of DIR
    try:
        for argv in cli_commands():
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = pronydec(argv)
            transcript.append(f"$ pronydec {' '.join(argv)}\n{text.getvalue()}exit {code}\n")
    finally:
        os.chdir(cwd)
    (out / TRANSCRIPT).write_text("".join(transcript))


def write_all(out: pathlib.Path) -> None:
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    write_acceptance(out / "acceptance")
    write_quick(out / "quick")
    write_cli(out / "cli")
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    (out / MANIFEST).write_text(json.dumps({"files": files, **line_counts()}, indent=1) + "\n")
    print(f"wrote {len(files)} files and {MANIFEST} under {out}")


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def compare_csv(first: pathlib.Path, second: pathlib.Path) -> list:
    """Lines describing how the second CSV differs from the first."""
    (head_a, *rows_a), (head_b, *rows_b) = (list(csv.reader(p.open(newline=""))) for p in (first, second))
    if head_a != head_b:
        return [f"columns differ: {','.join(head_a)} / {','.join(head_b)}"]
    if len(rows_a) != len(rows_b):
        return [f"row counts differ: {len(rows_a)} / {len(rows_b)}"]
    lines, nan_gained, nan_lost = [], 0, 0
    for c, column in enumerate(head_a):
        pairs = [(a[c], b[c]) for a, b in zip(rows_a, rows_b)]
        moved = [(a, b) for a, b in pairs if a != b]
        if column == "flags":
            split = [(set(filter(None, a.split(";"))), set(filter(None, b.split(";")))) for a, b in pairs]
            gained = sorted(f for a, b in split for f in b - a)
            lost = sorted(f for a, b in split for f in a - b)
            if gained or lost:
                lines.append(f"flags: gained {', '.join(gained) or 'none'}; lost {', '.join(lost) or 'none'}")
            continue
        numbers = [(_number(a), _number(b)) for a, b in pairs]
        if all(a is not None and b is not None for a, b in numbers):
            nan_gained += sum(not math.isnan(a) and math.isnan(b) for a, b in numbers)
            nan_lost += sum(math.isnan(a) and not math.isnan(b) for a, b in numbers)
            if moved:
                largest = max(_relative(a, b) for a, b in numbers)
                lines.append(f"{column}: {len(moved)} of {len(pairs)} rows moved, "
                             f"largest relative change {largest:.3g}")
        elif moved:
            lines.append(f"{column}: {len(moved)} of {len(pairs)} rows differ")
    if nan_gained or nan_lost:
        lines.append(f"NaN cells: gained {nan_gained}, lost {nan_lost}")
    return lines


def compare_transcript(first: pathlib.Path, second: pathlib.Path) -> list:
    """The commands whose output or exit code differs between two transcripts."""
    def commands(path):
        return dict(block.split("\n", 1) for block in path.read_text().split("$ pronydec ")[1:])

    def shown(output):
        return " | ".join(output.splitlines())

    old, new = commands(first), commands(second)
    if old.keys() != new.keys():
        return ["the command lists differ"]
    return [f"pronydec {command}\n    before: {shown(old[command])}\n    after:  {shown(new[command])}"
            for command in old if old[command] != new[command]]


def _files(directory: pathlib.Path) -> set:
    return {p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file()} - {MANIFEST}


def compare(first: pathlib.Path, second: pathlib.Path) -> None:
    names = sorted(_files(first) | _files(second))
    tally = {"identical": 0, "different": 0, "in one only": 0, "skipped": 0}
    for name in names:
        if name.endswith(TIMING_SUFFIX):
            tally["skipped"] += 1
            continue
        a, b = first / name, second / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {first if a.exists() else second}")
            tally["in one only"] += 1
        elif a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
            tally["identical"] += 1
        else:
            print(f"{name}: different")
            tally["different"] += 1
            if name.endswith(".csv"):
                details = compare_csv(a, b)
            elif a.name == TRANSCRIPT:
                details = compare_transcript(a, b)
            else:
                details = []
            for line in details:
                print(f"  {line}")
    print(", ".join(f"{count} {what}" for what, count in tally.items())
          + " (timing sidecars skipped by name)")
    counts = [json.loads((d / MANIFEST).read_text()) for d in (first, second)]
    for key, label in (("wc_l", "wc -l"), ("code_lines", "code-only lines")):
        old, new = counts[0][key], counts[1][key]
        moved = [f"{f} {old.get(f, 0)} -> {new.get(f, 0)}" for f in sorted((set(old) | set(new)) - {"total"})
                 if old.get(f) != new.get(f)]
        print(f"{label} src/pronydec: {old['total']} -> {new['total']} ({new['total'] - old['total']:+d})"
              + (f"; {', '.join(moved)}" if moved else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="write this checkout's artefacts and manifest here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out directories")
    args = parser.parse_args()
    if bool(args.out) == bool(args.compare):
        parser.error("give one of --out and --compare")
    if args.compare:
        compare(*map(pathlib.Path, args.compare))
    else:
        write_all(pathlib.Path(args.out))


if __name__ == "__main__":
    main()
