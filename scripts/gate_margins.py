#!/usr/bin/env python3
"""Criterion 6's gate margins on seed blocks the acceptance test never sees.

Runs the reconstruction-rate sweep of test_criterion_6_full_accuracy_rates
(tests/test_acceptance.py) on disjoint blocks of consecutive seeds, one
run_sweep per block and (d, K) configuration, and prints each gate's slope,
its threshold (rate + slack) and its margin (threshold - slope; a gate passes
when the margin is not negative).  The signal configs, bandwidths, radius,
grid and slack are imported from the test; only the seeds change.  The
script measures: it never changes a seed or a gate.

--compare reads two --out files of the same blocks (say, before and after a
change) and prints, per configuration and block, the largest slope move and
every gate whose pass or fail flipped.

Usage:
  python scripts/gate_margins.py [--first 0] [--blocks 10] [--block-size 10] [--out margins.json]
  python scripts/gate_margins.py --compare before.json after.json
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from pronydec.sweeps import SweepConfig, run_sweep  # noqa: E402
from test_acceptance import (  # noqa: E402
    FOURIER_CONFIGS,
    FOURIER_EXCLUSION_RADIUS,
    FOURIER_GRID_SIZE,
    FOURIER_M_VALUES,
    FOURIER_SLACK,
)


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
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--block-size", type=int, default=10)
    parser.add_argument("--out", help="also write the records as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare two --out files and exit")
    args = parser.parse_args()

    if args.compare:
        first, second = (json.loads(pathlib.Path(p).read_text())["gates"] for p in args.compare)
        compare(first, second)
        return
    if args.first < 0 or args.blocks < 1 or args.block_size < 1:
        parser.error("need --first >= 0, --blocks >= 1 and --block-size >= 1")
    records = measure(args.first, args.blocks, args.block_size)
    report(records)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({"slack": FOURIER_SLACK, "gates": records}, indent=1) + "\n")


if __name__ == "__main__":
    main()
