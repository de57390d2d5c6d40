#!/usr/bin/env python3
"""pronydec benchmark: one seeded workload, timed from outside the package.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload decimation-sweep --seed 1 --seconds 25 --trace 0

`--trace 0` times the workload with nothing installed and prints the
end-to-end metrics; `--trace 1` wraps every layer's public functions, runs a
fixed number of rounds and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  Timings are in seconds of a reference machine (see
speed.py).  The full record (metadata, raw timings, latency by cell, gate
results) goes to perfbench/out/.

The package is imported from the checkout's `src/`; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

# numpy is imported only inside functions, so that the timed import of
# pronydec (part of setup_s) includes importing numpy.

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up repetitions in an untraced run; setup_s reports their median
SETUP_REPS = 3
#: tasks_per_s is the median rate over blocks of whole rounds at least this long
BLOCK_S = 2.0
#: seconds one round takes traced on the reference machine; a traced run does
#: round(seconds / this) rounds, so its counters repeat exactly for a seed
TRACED_ROUND_S = {
    "decimation-sweep": 0.15,
    "reconstruct-cli": 3.5,
    "reconstruct-evaluate": 7.0,
}


def import_package():
    """Import pronydec from this checkout's src/, timed; None if it is absent."""
    src = ROOT / "src"
    if not (src / "pronydec" / "__init__.py").is_file():
        return None, 0.0
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    pd = importlib.import_module("pronydec")
    for name in ("model", "forward", "solvers", "decimate", "fourier", "sweeps", "cli"):
        importlib.import_module(f"pronydec.{name}")
    elapsed = time.perf_counter() - start
    if pathlib.Path(pd.__file__).resolve().parent != (src / "pronydec").resolve():
        return None, 0.0
    return pd, elapsed


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _openblas():
    """Version, build config and thread count of the OpenBLAS numpy loaded."""
    import numpy as np

    info = {"version": None, "config": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    np.linalg.svd(np.eye(2))   # make sure the library is mapped
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None:
                    get_threads.restype = ctypes.c_int
                    info["threads"] = get_threads()
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                if info["threads"] is not None:
                    return info
    return info


def _git_sha():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pronydec").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args):
    import numpy as np

    threads_env = {k: os.environ[k] for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "blas_threads_env": threads_env,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(latencies_ms):
    """(percentile, value): the highest percentile with ten samples beyond it,
    100 * (1 - 10 / n); the median when there are fewer than 20 samples."""
    import numpy as np

    q = max(50.0, 100.0 * (1.0 - 10.0 / len(latencies_ms)))
    return q, float(np.percentile(latencies_ms, q))


def err_digits(strata):
    """Correct digits: -log10 of the error, averaged within each cell of the
    nominal mix and then over cells, so every cell weighs the same whatever
    the number of rounds."""
    by_cell = {}
    for cell, err in strata:
        by_cell.setdefault(cell, []).append(-math.log10(max(err, 1e-17)))
    return statistics.fmean(statistics.fmean(v) for v in by_cell.values())


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def attempt(req):
    """The request's result, or the exception it raised (a failed request)."""
    try:
        return req.call()
    except Exception as exc:
        return exc


def judge(req, result):
    from workloads import Outcome

    if isinstance(result, Exception):
        return Outcome(False, reason=f"{req.cell}: {type(result).__name__}: {result}")
    try:
        return req.check(result)
    except Exception as exc:   # a malformed result is a wrong one
        return Outcome(False, reason=f"{req.cell}: check raised {type(exc).__name__}: {exc}",
                       wrong=True)


def run(args, pd, import_s):
    from speed import Speedometer
    from tracing import SETUP, Tracer
    from workloads import WORKLOADS

    speed = Speedometer()
    cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer(pd)
        tracer.install()
    workdir = str(OUT / f"{args.workload}-{os.getpid()}")

    # set-up: inputs and one untimed warm-up pass, repeated; the last one stays
    reps = 1 if args.trace else SETUP_REPS
    setup_spans = []   # (start, end)
    warm_outcomes = []
    workload = None
    for rep in range(reps):
        if workload is not None:
            workload.close()
        speed.sample()
        start = time.perf_counter()
        workload = cls(pd, args.seed, workdir, rep, reps)
        warm = [(req, attempt(req)) for req in workload.warmup()]
        setup_spans.append((start, time.perf_counter()))
        speed.sample()
        warm_outcomes += [judge(*w) for w in warm]

    # timed phase: whole rounds, until the time is up (untraced) or a fixed
    # count (traced); the speed samples fall between requests, outside timing
    traced_rounds = max(1, round(args.seconds / TRACED_ROUND_S[args.workload]))
    done = []      # (request, result or exception, start, end)
    blocks = []    # (first, last + 1) request index of consecutive whole rounds
    rounds = 0
    start = block_start = time.perf_counter()
    block_first = 0
    while True:
        for req in workload.make_round():
            speed.maybe_sample()
            if tracer is not None:
                tracer.request = len(done)
            t0 = time.perf_counter()
            result = attempt(req)
            done.append((req, result, t0, time.perf_counter()))
        rounds += 1
        now = time.perf_counter()
        elapsed = now - start
        finished = rounds >= traced_rounds if args.trace else elapsed >= args.seconds
        if now - block_start >= BLOCK_S or finished:
            if now - block_start < BLOCK_S and blocks:   # a short tail joins the last block
                blocks[-1] = (blocks[-1][0], len(done))
            else:
                blocks.append((block_first, len(done)))
            block_start, block_first = now, len(done)
        if finished:
            break
    speed.sample()
    if tracer is not None:
        tracer.request = SETUP

    # every timing in reference-machine seconds (see speed.py); raw ones too
    lat_raw = [(t1 - t0) * 1e3 for _, _, t0, t1 in done]
    lat_ms = [ms * speed.scale(t0, t1) for ms, (_, _, t0, t1) in zip(lat_raw, done)]
    setup_raw = [t1 - t0 for t0, t1 in setup_spans]
    setup_ref = [s * speed.scale(t0, t1) for s, (t0, t1) in zip(setup_raw, setup_spans)]
    import_ref = import_s * speed.scale(speed.times[0], speed.times[0])
    # every block holds whole rounds, hence the nominal mix; the median block
    # rate is that mix's throughput, robust to a slow stretch of the machine
    tasks_per_s = statistics.median((j - i) / sum(lat_ms[i:j]) * 1e3 for i, j in blocks)
    raw_tasks_per_s = statistics.median(
        (j - i) / (done[j - 1][3] - done[i][2]) for i, j in blocks)

    # correctness, after timing stops
    outcomes = [(req.cell, judge(req, result)) for req, result, _, _ in done]
    workload.close()
    gate_failures = cls.gates(pd, outcomes)
    failed = [o.reason for _, o in outcomes if not o.ok]
    warm_failed = [f"warm-up: {o.reason}" for o in warm_outcomes if not o.ok]
    wrong = [o for o in warm_outcomes + [o for _, o in outcomes] if o.wrong]

    attempted = len(done)
    tail_q, tail_ms = tail(lat_ms)
    strata = [s for cell, o in outcomes if o.ok for s in workload.strata(cell, o)]
    errors = [o.error for _, o in outcomes if o.ok]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.layer_metrics().items()}
        metrics["trace.tasks_per_s"] = {"value": tasks_per_s, "unit": "1/s"}
    else:
        metrics = {
            "setup_s": {"value": import_ref + statistics.median(setup_ref), "unit": "s"},
            "tasks_per_s": {"value": tasks_per_s, "unit": "1/s"},
            "task_ms_p50": {"value": statistics.median(lat_ms), "unit": "ms"},
            "task_ms_tail": {"value": tail_ms, "unit": "ms"},
            "ok_frac": {"value": (attempted - len(failed)) / attempted, "unit": "ratio"},
            "err_digits": {"value": err_digits(strata) if strata else 0.0, "unit": "digits"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    raw = {
        "setup_s": import_s + statistics.median(setup_raw),
        "tasks_per_s": raw_tasks_per_s,
        "task_ms_p50": statistics.median(lat_raw),
        "task_ms_tail": tail(lat_raw)[1],
    }

    by_cell = {}
    for (req, *_), ms in zip(done, lat_ms):
        by_cell.setdefault(str(req.cell), []).append(ms)
    record = {
        "meta": metadata(args),
        "samples": attempted,
        "rounds": rounds,
        "timed_s": elapsed,
        "tasks_per_s_overall": attempted / elapsed,
        "tail_percentile": tail_q,
        "import_s": import_s,
        "setup_reps_s": setup_raw,
        "raw_timings": raw,
        "speed_kernel_s": speed.kernel,
        "failed_frac": len(failed) / attempted,
        "err_p50_rad": statistics.median(errors) if errors else None,
        "latency_ms_p50_by_cell": {c: statistics.median(v) for c, v in sorted(by_cell.items())},
        "failures": failed[:50],
        "warmup_failures": warm_failed,
        "gate_failures": gate_failures,
        "metrics": metrics,
        "outcomes": [[list(cell), o.error, o.detail] for cell, o in outcomes if o.ok],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["spans"] = tracer.dump(OUT / f"{stem}.spans.json.gz")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({k: record[k] for k in (
        "samples", "rounds", "tail_percentile", "failed_frac", "err_p50_rad")}
        | {"meta": record["meta"]}))
    for reason in warm_failed + failed[:10]:
        print(f"failed: {reason}")
    for reason in gate_failures:
        print(f"gate: {reason}")
    # a request that reported failure counts in `failed`; `correct` says
    # whether every result that came back is right
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(TRACED_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    pd, import_s = import_package()
    if pd is None:
        print(f"error: no pronydec package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    result = run(args, pd, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
