#!/usr/bin/env python3
"""Reconstruction-accuracy sweep over the coefficient-window bandwidth.

For each (smoothness d, jump count K) configuration this reconstructs seeded
random piecewise signals from exact coefficient windows and fits log-log slopes
of the errors against the bandwidth.  Expected rates: jump positions M^-(d+2),
l-th magnitudes M^(l-d-1), pointwise error away from jumps M^-(d+1).

Usage:
  python scripts/run_fourier_convergence.py [--out results] [--quick]
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from pronydec.sweeps import SweepConfig, emit_csv, emit_svg, emit_timings_csv, run_sweep  # noqa: E402
# criterion 6's signal configs, bandwidths, radius and grid (tests/test_acceptance.py)
from test_acceptance import (  # noqa: E402
    FOURIER_CONFIGS,
    FOURIER_EXCLUSION_RADIUS,
    FOURIER_GRID_SIZE,
    FOURIER_M_VALUES,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="3 seeds, bandwidths up to 512")
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(range(3 if args.quick else args.seeds))
    m_values = [64, 128, 256, 512] if args.quick else FOURIER_M_VALUES

    for (d, k), signal in FOURIER_CONFIGS.items():
        cfg = SweepConfig(
            kind="fourier-convergence",
            seeds=seeds,
            m_values=m_values,
            signal=signal,
            exclusion_radius=FOURIER_EXCLUSION_RADIUS,
            grid_size=FOURIER_GRID_SIZE,
            workers=args.workers,
        )
        result = run_sweep(cfg)
        tag = f"d{d}_K{k}"
        emit_csv(result.rows, out / f"convergence_{tag}.csv", result.columns)
        emit_svg(result.rows, out / f"convergence_{tag}.svg", "M", "jump_error",
                 title=f"jump error vs bandwidth (d={d}, K={k})")
        emit_timings_csv(result.timings, out / f"convergence_{tag}_timing.csv", result.columns[:2])
        print(f"d={d} K={k}:")
        expected = {
            "jump_error": -(d + 2),
            "sup_away": -(d + 1),
            **{f"mag_error_{l}": l - d - 1 for l in range(d + 1)},
        }
        for name in sorted(result.slopes):
            print(
                f"  slope[{name}] = {result.slopes[name]:7.3f}   (rate target {expected[name]:+d})"
            )
    print(f"wrote CSV/SVG/timings under {out}/")


if __name__ == "__main__":
    main()
