#!/usr/bin/env python3
"""Self-check of the benchmark: run-to-run spread, exact-repeat counters and
tracing overhead.

Usage (from the root of a source checkout):

  python3 perfbench/check.py --runs 10 --out perfbench/out/check.json
  python3 perfbench/check.py --runs 5 --workloads reconstruct-cli --traced 0
  python3 perfbench/check.py --compare perfbench/BASELINE.json perfbench/out/check.json

For every workload it makes `--runs` untraced runs, each with another seed,
and reports each end-to-end metric's median, quartiles and spread (the
interquartile distance as a share of the median, from
`statistics.quantiles(values, n=4)`) against the metric's bound in
BENCHMARK.json.  It then makes two traced runs with one seed, each right
after an untraced run of that seed, asserts that the exact-repeat counters
agree, and reports the tracing overhead: the median gap in tasks per second
between a traced run and the untraced run before it.
Runs are sequential; each is waited for.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: per-layer metrics that must repeat exactly for one seed
EXACT = (
    "solvers.lm.iters_p50", "solvers.lm.iters_max", "solvers.lm.capped_frac",
    "fourier.mollifier.distinct_keys",
)


def bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def pooled_gates(name, seeds):
    """The workload's aggregate gates on the requests of all the given runs."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import pronydec
    import pronydec.sweeps  # noqa: F401  (the gates fit slopes with it)
    from workloads import WORKLOADS, Outcome

    done = []
    for seed in seeds:
        record = json.loads((HERE / "out" / f"{name}-seed{seed}-trace0.json").read_text())
        done += [(tuple(cell), Outcome(True, err, detail=detail))
                 for cell, err, detail in record["outcomes"]]
    return WORKLOADS[name].gates(pronydec, done) if done else []


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    gates = [line[6:] for line in lines if line.startswith("gate: ")]
    return json.loads(lines[-1]), gates


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def check_workload(name, spec, args):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed + i
        result, gates = run_once(name, seed, seconds, 0)
        runs.append({"seed": seed, "result": result, "gates": gates})
        metrics = result["metrics"]
        print(f"{name} seed={seed} correct={result['correct']} "
              f"n={result['attempted']} failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in metrics.items()), flush=True)
        for gate in gates:
            print(f"  gate: {gate}", flush=True)
    pooled = pooled_gates(name, [r["seed"] for r in runs])
    for gate in pooled:
        print(f"  pooled gate: {gate}", flush=True)
    summary = {}
    if len(runs) >= 2:
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            s = spread(values)
            s["bound"] = bounds.get(metric)
            summary[metric] = s
    out = {
        "runs": [{"seed": r["seed"], "correct": r["result"]["correct"],
                  "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                  "gates": r["gates"]} for r in runs],
        "end_to_end": summary,
        "pooled_gate_failures": pooled,
    }
    if args.traced:
        # each traced run follows an untraced run of the same seed, so the
        # pair shares the state of the machine; the overhead is their median gap
        pairs = [(run_once(name, args.seed, seconds, 0)[0], run_once(name, args.seed, seconds, 1)[0])
                 for _ in range(2)]
        a, b = (t["metrics"] for _, t in pairs)
        exact = [m for m in a if m.endswith(".calls") or m in EXACT]
        mismatched = [m for m in exact if a[m]["value"] != b[m]["value"]]
        gaps = [1.0 - t["metrics"]["trace.tasks_per_s"]["value"] / u["metrics"]["tasks_per_s"]["value"]
                for u, t in pairs]
        out["traced"] = {
            "seed": args.seed,
            "per_layer": {m: [a[m]["value"], b[m]["value"]] for m in a},
            "exact_counters": exact,
            "exact_mismatches": mismatched,
            "overhead": statistics.median(gaps),
            "overhead_pairs": gaps,
        }
        print(f"{name} traced: exact counters "
              f"{'match' if not mismatched else 'DIFFER: ' + ', '.join(mismatched)}; "
              f"tracing overhead {out['traced']['overhead']:.1%} of tasks_per_s "
              f"(pairs: {', '.join(f'{g:.1%}' for g in gaps)})", flush=True)
    return out


def report(results, spec):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for name, res in results.items():
        print(f"\n{name}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric, s in res["end_to_end"].items():
            flag = ""
            if s["bound"] is not None and metric != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  above bound/3"
            print(f"  {metric:<14} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['spread']:>8.2%} {s['bound']:>6}{flag} ({better.get(metric)})")


def compare(old_path, new_path):
    """Second median against the first, per metric, as a share of the first."""
    spec = bench_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    old = json.loads(pathlib.Path(old_path).read_text())["workloads"]
    new = json.loads(pathlib.Path(new_path).read_text())["workloads"]
    worst_ok = True
    for name in old:
        if name not in new:
            continue
        print(name)
        for metric, s in old[name]["end_to_end"].items():
            if metric not in new[name]["end_to_end"]:
                continue
            a, b = s["median"], new[name]["end_to_end"][metric]["median"]
            worse = (b - a) / a if better[metric] == "lower" else (a - b) / a
            ok = worse <= bounds[metric]
            worst_ok &= ok
            print(f"  {metric:<14} {a:>12.5g} -> {b:>12.5g}  worse by {worse:+.2%} "
                  f"(bound {bounds[metric]:.0%}) {'ok' if ok else 'REGRESSION'}")
    return 0 if worst_ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=1,
                        help="also make two traced runs per workload")
    parser.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    parser.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare the medians of two summaries and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.runs == 1:
        parser.error("--runs must be 0 or at least 2")

    spec = bench_spec()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    results = {name: check_workload(name, spec, args) for name in names}
    report(results, spec)
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"seconds": args.seconds or spec["run_seconds"],
                                    "workloads": results}, indent=1) + "\n")
    mismatched = [n for n, r in results.items() if r.get("traced", {}).get("exact_mismatches")]
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
