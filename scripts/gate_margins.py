#!/usr/bin/env python3
"""Gate margins of acceptance criteria 3-6 on seed blocks the tests never see.

Runs each criterion's sweep (tests/test_acceptance.py) on disjoint blocks of
consecutive seeds, one run_sweep per block and configuration, and computes
each gate's statistic as the test does:
- criterion 3, per solver: the ratio of the p = 1 and p = 32 median errors,
  which must be at least 10, with the medians falling in p and no NaN error;
- criterion 4: the spread (largest over smallest) of the per-stride median
  errors, at most 10, with no NaN error (its wall-clock gate is not measured);
- criterion 5: every error within 10 times its bound, shown as the largest
  error/bound, with no NaN error;
- criterion 6, per (d, K): each gate's fitted slope against its threshold
  (rate + slack).
Each line gives the statistic, the threshold and the margin: the room factor
(statistic over threshold, or its inverse for an upper bound; at least 1 when
the gate passes) for criteria 3-5, threshold - slope for criterion 6.  The
configurations, bandwidths, radius, grid and slack are imported from the
tests; only the seeds change.  The script measures: it never changes a seed or
a gate.

By default criteria 3 and 4 run 8 blocks of 50 seeds, criterion 5 8 blocks
of 100 (each test's own seed count) and criterion 6 10 blocks of 10;
--blocks and --block-size set every criterion's.

--compare reads two --out files of the same blocks (say, before and after a
change) and prints every gate whose pass or fail flipped, the largest
relative move of each criterion 3-5 statistic, and per criterion-6
configuration and block the largest slope move.

Usage:
  python scripts/gate_margins.py [--first 0] [--blocks N] [--block-size N] [--out margins.json]
  python scripts/gate_margins.py --compare before.json after.json
"""

import argparse
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402

from pronydec.sweeps import SweepConfig, run_sweep  # noqa: E402
from test_acceptance import (  # noqa: E402
    BOUND_CHECK_CONFIG,
    FIXED_COUNT_CONFIG,
    FIXED_COUNT_SOLVERS,
    FIXED_TOP_CONFIG,
    FOURIER_CONFIGS,
    FOURIER_EXCLUSION_RADIUS,
    FOURIER_GRID_SIZE,
    FOURIER_M_VALUES,
    FOURIER_SLACK,
)


#: (criterion, sweep config, default blocks, default block size)
DECIMATION = [(3, {**FIXED_COUNT_CONFIG, "solver": solver}, 8, 50) for solver in FIXED_COUNT_SOLVERS] + [
    (4, FIXED_TOP_CONFIG, 8, 50),
    (5, BOUND_CHECK_CONFIG, 8, 100),
]
#: criterion 6's default blocks and block size
FOURIER_BLOCKS = (10, 10)


def decimation_gate(criterion: int, rows, p_values) -> dict:
    """The gate's statistic on one block's rows, and whether it passes, as the test decides."""
    nan = sum(math.isnan(r["error"]) for r in rows)
    if criterion == 5:
        value = max(r["error"] / r["bound"] for r in rows)
        passes = not nan and all(r["error"] <= 10.0 * r["bound"] for r in rows)
        return {"statistic": "max error/bound", "value": value, "threshold": 10.0, "room": 10.0 / value,
                "nan": nan, "passes": passes}
    medians = [float(np.median([r["error"] for r in rows if r["p"] == p])) for p in p_values]
    if criterion == 3:
        value = medians[0] / medians[-1]
        passes = not nan and medians[0] > medians[1] > medians[2] and medians[0] >= 10.0 * medians[-1]
        return {"statistic": f"median ratio p={p_values[0]}/p={p_values[-1]}", "value": value,
                "threshold": 10.0, "room": value / 10.0, "nan": nan, "passes": passes, "medians": medians}
    value = max(medians) / min(medians)
    return {"statistic": "median spread", "value": value, "threshold": 10.0, "room": 10.0 / value,
            "nan": nan, "passes": not nan and value <= 10.0, "medians": medians}


def measure_decimation(first: int, blocks, block_size) -> list:
    """One record per (criterion, solver, block)."""
    records = []
    for criterion, config, default_blocks, default_size in DECIMATION:
        size = block_size or default_size
        for b in range(blocks or default_blocks):
            seeds = list(range(first + b * size, first + (b + 1) * size))
            cfg = SweepConfig(seeds=seeds, **config)
            records.append({"criterion": criterion, "solver": cfg.solver, "seeds": [seeds[0], seeds[-1]],
                            **decimation_gate(criterion, run_sweep(cfg).rows, cfg.p_values)})
    return records


def rates(d: int) -> dict:
    """Each gated column's rate: jumps M^-(d+2), pointwise M^-(d+1), magnitudes M^(l-d-1)."""
    return {"jump_error": -(d + 2), "sup_away": -(d + 1),
            **{f"mag_error_{l}": l - d - 1 for l in range(d + 1)}}


def measure(first: int, blocks: int, block_size: int) -> list:
    """One record per (configuration, block, gate)."""
    records = []
    for (d, k), signal in FOURIER_CONFIGS.items():
        for b in range(blocks):
            seeds = list(range(first + b * block_size, first + (b + 1) * block_size))
            cfg = SweepConfig(kind="fourier-convergence", seeds=seeds, m_values=FOURIER_M_VALUES, signal=signal,
                              exclusion_radius=FOURIER_EXCLUSION_RADIUS, grid_size=FOURIER_GRID_SIZE)
            slopes = run_sweep(cfg).slopes
            for gate, rate in rates(d).items():
                threshold = rate + FOURIER_SLACK
                records.append({"d": d, "K": k, "seeds": [seeds[0], seeds[-1]], "gate": gate,
                                "slope": slopes[gate], "threshold": threshold,
                                "margin": threshold - slopes[gate]})
    return records


def _passes(record) -> bool:
    # a NaN slope fails, as the test's `slope <= threshold` does
    return record["slope"] <= record["threshold"]


def report_decimation(records) -> None:
    for r in records:
        print(f"criterion {r['criterion']} ({r['solver']}), seeds {r['seeds'][0]}-{r['seeds'][1]}: "
              f"{r['statistic']} {r['value']:10.4g}   threshold {r['threshold']:g}   room {r['room']:8.3g}x"
              f"{'' if r['passes'] else '   FAIL'}")
    print(f"criteria 3-5 blocks with a failing gate: {sum(not r['passes'] for r in records)}")


def compare_decimation(first, second) -> None:
    def key(r):
        return r["criterion"], r["solver"], tuple(r["seeds"])

    keyed = {key(r): r for r in first}
    if set(keyed) != {key(r) for r in second}:
        sys.exit("the two files measure different criteria 3-5 blocks")
    largest = {}
    for r in second:
        old = keyed[key(r)]
        if r["passes"] != old["passes"]:
            print(f"criterion {r['criterion']} ({r['solver']}) seeds {r['seeds'][0]}-{r['seeds'][1]}: "
                  f"{'passes' if r['passes'] else 'fails'} now, {r['statistic']} {old['value']:.6g} -> {r['value']:.6g}")
        move = abs(r["value"] - old["value"]) / abs(old["value"])
        name = (r["criterion"], r["solver"])
        if name not in largest or not move <= largest[name][0]:
            largest[name] = (move, r)
    for (criterion, solver), (move, r) in largest.items():
        print(f"criterion {criterion} ({solver}): largest relative move {move:.2e} "
              f"(seeds {r['seeds'][0]}-{r['seeds'][1]})")
    identical = sum(r["value"] == keyed[key(r)]["value"] for r in second)
    print(f"criteria 3-5 statistics identical: {identical} of {len(second)}")


def report(records) -> None:
    block = None
    for r in records:
        if (r["d"], r["K"], r["seeds"]) != block:
            block = (r["d"], r["K"], r["seeds"])
            print(f"criterion 6 (d={r['d']}, K={r['K']}), seeds {r['seeds'][0]}-{r['seeds'][1]}:")
        print(f"  {r['gate']:<12} slope {r['slope']:8.4f}   threshold {r['threshold']:+5.1f}   "
              f"margin {r['margin']:+8.4f}{'' if _passes(r) else '   FAIL'}")
    failing = sorted({(r["d"], r["K"], tuple(r["seeds"])) for r in records if not _passes(r)})
    print(f"blocks with a failing gate: {len(failing)}")


def compare(first, second) -> None:
    keyed = {(r["d"], r["K"], tuple(r["seeds"]), r["gate"]): r for r in first}
    if set(keyed) != {(r["d"], r["K"], tuple(r["seeds"]), r["gate"]) for r in second}:
        sys.exit("the two files measure different configurations, blocks or gates")
    largest = {}
    for r in second:
        key = (r["d"], r["K"], tuple(r["seeds"]))
        old = keyed[key + (r["gate"],)]
        move = r["slope"] - old["slope"]
        if _passes(r) != _passes(old):
            print(f"(d={r['d']}, K={r['K']}) seeds {key[2][0]}-{key[2][1]} {r['gate']}: "
                  f"{'passes' if _passes(r) else 'fails'} now, slope {old['slope']:.5f} -> {r['slope']:.5f}")
        if key not in largest or not abs(move) <= abs(largest[key][1]):
            largest[key] = (r["gate"], move, old["slope"], r["slope"])
    for (d, k, seeds), (gate, move, old, new) in largest.items():
        print(f"(d={d}, K={k}) seeds {seeds[0]}-{seeds[1]}: largest move {move:+.2e} "
              f"({gate} {old:.5f} -> {new:.5f})")
    print(f"largest slope move: {max(abs(v[1]) for v in largest.values()):.2e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first", type=int, default=0, help="first seed of the first block")
    parser.add_argument("--blocks", type=int, help="blocks per criterion (default: each criterion's own)")
    parser.add_argument("--block-size", type=int, help="seeds per block (default: each criterion's own)")
    parser.add_argument("--out", help="also write the records as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare two --out files and exit")
    args = parser.parse_args()

    if args.compare:
        first, second = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
        compare_decimation(first["decimation"], second["decimation"])
        compare(first["gates"], second["gates"])
        return
    if args.first < 0 or any(n is not None and n < 1 for n in (args.blocks, args.block_size)):
        parser.error("need --first >= 0, --blocks >= 1 and --block-size >= 1")
    decimation = measure_decimation(args.first, args.blocks, args.block_size)
    report_decimation(decimation)
    records = measure(args.first, args.blocks or FOURIER_BLOCKS[0], args.block_size or FOURIER_BLOCKS[1])
    report(records)
    if args.out:
        out = {"slack": FOURIER_SLACK, "decimation": decimation, "gates": records}
        pathlib.Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
