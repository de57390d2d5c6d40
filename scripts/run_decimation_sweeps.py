#!/usr/bin/env python3
"""Run the two decimation experiments on the close-node pair and emit CSV/SVG.

Experiment A keeps the measurement count fixed and sweeps the stride; accuracy
improves sharply with the stride.  Experiment B keeps the highest index fixed
(so larger strides use far fewer measurements); accuracy stays roughly flat
while the per-solve time drops.

Usage:
  python scripts/run_decimation_sweeps.py [--out results] [--seeds 50] [--quick]
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pronydec.sweeps import (  # noqa: E402
    DECIMATION_SOLVERS,
    SweepConfig,
    emit_csv,
    emit_svg,
    emit_timings_csv,
    run_sweep,
)


def summarize(result, p_values):
    for p in p_values:
        errs = [r["error"] for r in result.rows if r["p"] == p and not np.isnan(r["error"])]
        times = [v for (pp, _), v in result.timings.items() if pp == p]
        print(
            f"  p={p:4d}  median error {np.median(errs):.3e}  "
            f"max {np.max(errs):.3e}  median solve {np.median(times) * 1e3:.2f} ms"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--noise", type=float, default=1e-4)
    parser.add_argument("--gap", type=float, default=1e-2)
    parser.add_argument("--solver", default="hankel", choices=DECIMATION_SOLVERS)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="8 seeds, smaller sweeps")
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(range(8 if args.quick else args.seeds))
    model = {"kind": "two-node", "gap": args.gap}

    print(f"fixed count 66, stride sweep ({args.solver}, eps={args.noise:g})")
    cfg_a = SweepConfig(
        kind="fixed-count-decimation",
        seeds=seeds,
        noise=args.noise,
        solver=args.solver,
        p_values=[1, 2, 4, 8, 16, 32],
        count=66,
        model=model,
        workers=args.workers,
    )
    res_a = run_sweep(cfg_a)
    emit_csv(res_a.rows, out / "fixed_count.csv", res_a.columns)
    emit_svg(res_a.rows, out / "fixed_count.svg", "p", "error",
             title="fixed count 66: node error vs stride")
    emit_timings_csv(res_a.timings, out / "fixed_count_timing.csv", ("p", "seed"))
    summarize(res_a, cfg_a.p_values)

    top = 2200 if not args.quick else 600
    print(f"fixed top index {top}, stride sweep")
    cfg_b = SweepConfig(
        kind="fixed-top-index-decimation",
        seeds=seeds,
        noise=args.noise,
        solver=args.solver,
        p_values=[1, 2, 5, 10, 20, 50, 100],
        top_index=top,
        model=model,
        workers=args.workers,
    )
    res_b = run_sweep(cfg_b)
    emit_csv(res_b.rows, out / "fixed_top.csv", res_b.columns)
    emit_svg(res_b.rows, out / "fixed_top.svg", "p", "error",
             title=f"fixed top index {top}: node error vs stride")
    emit_timings_csv(res_b.timings, out / "fixed_top_timing.csv", ("p", "seed"))
    summarize(res_b, cfg_b.p_values)

    print(f"wrote CSV/SVG under {out}/")


if __name__ == "__main__":
    main()
