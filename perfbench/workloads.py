"""The three workloads: inputs made from the seed, one request, and the gates.

Each workload is a closed loop with one client.  Requests come in rounds; a
round holds every cell of the workload once (in a seeded order), so whole
rounds always carry the workload's nominal mix.  The library receives only the
generated configs, signals and window files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
TWO_NODE = {"kind": "two-node", "gap": 1e-2}


@dataclass
class Request:
    cell: tuple          # stratum of the nominal mix
    call: object         # zero-argument callable, timed from outside
    check: object        # callable(result) -> Outcome, run after timing stops


@dataclass
class Outcome:
    ok: bool
    error: float = math.nan      # error against the known truth (rad)
    reason: str = ""
    detail: dict = field(default_factory=dict)
    wrong: bool = False          # a result came back and it is wrong


def _failed(reason):
    """A result that is not finite or misses the tolerance: a wrong output."""
    return Outcome(False, math.nan, reason, wrong=True)


def _errored(reason):
    """An operation that reported failure (an exception or exit code) and
    returned no result."""
    return Outcome(False, math.nan, reason)


def _jump_errors(truth, found):
    """Circle distance from each true jump to its partner under the best cyclic
    alignment of the two sorted position lists."""
    k = len(truth)
    if len(found) != k:
        raise ValueError(f"{len(found)} jumps recovered, {k} expected")
    best = None
    for shift in range(k):
        errs = [
            abs(math.remainder(truth[j] - found[(j + shift) % k], TWO_PI)) for j in range(k)
        ]
        if best is None or max(errs) < max(best[0]):
            best = (errs, shift)
    return best


def _median(values):
    return float(np.median(values)) if values else math.nan


# ---------------------------------------------------------------------------
# decimation-sweep
# ---------------------------------------------------------------------------

class DecimationSweep:
    """sweeps.run_sweep with one seed per request, over the shapes of acceptance
    criteria 3-5.  A round weights the shapes by the criteria's seed counts
    (50, 50, 50 and 100): bound-check appears twice."""

    name = "decimation-sweep"
    SHAPES = {
        "fixed-count-hankel": dict(
            kind="fixed-count-decimation", noise=1e-4, solver="hankel",
            p_values=[1, 8, 32], count=66, model=TWO_NODE,
        ),
        "fixed-count-lm": dict(
            kind="fixed-count-decimation", noise=1e-4, solver="lm",
            p_values=[1, 8, 32], count=66, model=TWO_NODE,
        ),
        "fixed-top-hankel": dict(
            kind="fixed-top-index-decimation", noise=1e-4, solver="hankel",
            p_values=[1, 10, 100], top_index=2200, model=TWO_NODE,
        ),
        "bound-check": dict(
            kind="bound-check", noise=1e-6, solver="hankel", p_values=[1, 4, 16],
            model={"kind": "random-simple", "num_nodes": 2, "min_stride_separation": 0.8},
        ),
    }
    ROUND = ("fixed-count-hankel", "fixed-count-lm", "fixed-top-hankel", "bound-check", "bound-check")
    #: a fixed-count or fixed-top node estimate farther than the 0.01 gap from
    #: its node belongs to neither node of the pair.  (At p = 1 the Hankel
    #: solve merges the pair into one estimate midway, error 0.005, for about
    #: 2% of seeds: the resolution limit criterion 3 measures by its medians.)
    PAIR_TOL = 1e-2

    def __init__(self, pd, seed, workdir, rep, reps):
        self.sweeps = pd.sweeps
        self.rng = np.random.default_rng([seed, 1])

    def make_round(self):
        order = self.rng.permutation(len(self.ROUND))
        seeds = self.rng.integers(0, 2**31 - 1, size=len(self.ROUND))
        return [self._request(self.ROUND[i], int(s)) for i, s in zip(order, seeds)]

    def _request(self, shape, seed):
        config = self.sweeps.SweepConfig(seeds=[seed], **self.SHAPES[shape])
        run_sweep = self.sweeps.run_sweep
        # only the rows are kept, so memory does not grow with the request count
        return Request(
            cell=(shape,),
            call=lambda: run_sweep(config).rows,
            check=lambda rows: self._check(shape, rows),
        )

    def _check(self, shape, rows):
        errors = []   # (p, node error) per row, as criteria 3-5 read them
        for row in rows:
            err = row["error"]
            if not math.isfinite(err):
                if row["flags"].startswith("solver-error"):
                    return _errored(f"{shape}: p={row['p']} {row['flags']}")
                return _failed(f"{shape}: p={row['p']} non-finite error ({row['flags']})")
            if shape == "bound-check":
                if not err <= 10.0 * row["bound"]:
                    return _failed(f"{shape}: p={row['p']} error {err:.3g} > 10x bound {row['bound']:.3g}")
            elif not err <= self.PAIR_TOL:
                return _failed(f"{shape}: p={row['p']} error {err:.3g} > {self.PAIR_TOL}")
            errors.append((row["p"], err))
        return Outcome(True, max(e for _, e in errors), detail={"rows": errors})

    def strata(self, cell, outcome):
        """Error strata: one per (shape, stride)."""
        return [((cell[0], p), e) for p, e in outcome.detail["rows"]]

    @classmethod
    def gates(cls, pd, done):
        """Criteria 3 and 4 on the per-stride medians over the given rows."""
        failures = []
        rows = {}
        for cell, outcome in done:
            if outcome.ok:
                for p, e in outcome.detail["rows"]:
                    rows.setdefault((cell[0], p), []).append(e)
        med = {k: _median(v) for k, v in rows.items()}
        for shape in ("fixed-count-hankel", "fixed-count-lm"):
            m1, m8, m32 = (med.get((shape, p), math.nan) for p in (1, 8, 32))
            if not m1 > m8 > m32:
                failures.append(f"criterion 3 ({shape}): medians {m1:.3g}, {m8:.3g}, {m32:.3g} do not fall with p")
            if not m1 >= 10.0 * m32:
                failures.append(f"criterion 3 ({shape}): p=1/p=32 median ratio {m1 / m32:.3g} < 10")
        top = [med.get(("fixed-top-hankel", p), math.nan) for p in (1, 10, 100)]
        if not max(top) <= 10.0 * min(top):
            failures.append(f"criterion 4: median-error spread {max(top) / min(top):.3g} > 10")
        return failures

    def warmup(self):
        """One request per slot of a round, on the acceptance criteria's first
        seeds, so every set-up does the same work."""
        return [self._request(shape, seed) for seed, shape in enumerate(self.ROUND)]

    def close(self):
        pass


# ---------------------------------------------------------------------------
# signals shared by both reconstruct workloads (criterion 6's signal specs)
# ---------------------------------------------------------------------------

def _signal(fourier, d, k, seed):
    return fourier.random_piecewise_signal(
        smoothness=d, num_jumps=k, seed=seed, min_separation=1.6,
        base_magnitude_range=(3.0, 5.0), higher_magnitude_scale=0.5,
        psi_decay=4.0 if d == 2 else 1.0, psi_degree=8192,
    )


# ---------------------------------------------------------------------------
# reconstruct-cli
# ---------------------------------------------------------------------------

class ReconstructCli:
    """In-process `pronydec reconstruct` on window files written at set-up.

    Every request has its own -J in [1.0, 1.5], so each K >= 2 request builds
    its mollifiers cold, as a fresh CLI process would.  The -J values of a cell
    follow a golden-ratio sequence from a seeded start, so any number of rounds
    covers [1.0, 1.5] evenly (the mollifier cost grows with -J).  Warm-up runs
    the four (d, K) at M = 1024 with fixed -J values of its own."""

    name = "reconstruct-cli"
    BANDWIDTHS = (1024, 2048)
    SHAPES = ((0, 1), (0, 3), (1, 2), (2, 2))
    SIGNALS_PER_CELL = 6
    GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
    #: largest jump-position error accepted per (d, M), in rad: 100x the worst
    #: of 12 seeded signals per (d, K, M) with -J in [1, 1.5], rounded up to a
    #: power of ten
    JUMP_TOL = {
        (0, 1024): 1e-3, (0, 2048): 1e-3,
        (1, 1024): 1e-3, (1, 2048): 1e-5,
        (2, 1024): 1e-2, (2, 2048): 1e-4,
    }

    def __init__(self, pd, seed, workdir, rep, reps):
        self.cli = pd.cli
        self.rng = rng = np.random.default_rng([seed, 2])
        self.warm_sep = 1.25 + 0.01 * rep
        self.workdir = workdir
        self.used_j = set()
        self.rounds = 0
        self.sink = io.StringIO()
        fourier = pd.fourier
        os.makedirs(workdir, exist_ok=True)
        self.windows = {}
        seeds = rng.integers(0, 2**31 - 1, size=len(self.SHAPES) * self.SIGNALS_PER_CELL)
        for i, (d, k) in enumerate(self.SHAPES):
            for j in range(self.SIGNALS_PER_CELL):
                signal = _signal(fourier, d, k, int(seeds[i * self.SIGNALS_PER_CELL + j]))
                for m in self.BANDWIDTHS:
                    path = os.path.join(workdir, f"w{m}_d{d}_k{k}_{j}.txt")
                    fourier.write_window_file(fourier.signal_coeffs(signal, m), path)
                    self.windows[(m, d, k, j)] = (path, signal.jumps)
        self.cells = [(m, d, k) for m in self.BANDWIDTHS for d, k in self.SHAPES]
        self.j_start = rng.random(len(self.cells))

    def _use_j(self, sep):
        if sep in self.used_j:   # distinct -J, hence distinct mollifier keys
            raise RuntimeError(f"-J {sep!r} drawn twice")
        self.used_j.add(sep)
        return sep

    def make_round(self):
        order = self.rng.permutation(len(self.cells))
        slot = self.rounds % self.SIGNALS_PER_CELL
        phase = self.rounds * self.GOLDEN
        self.rounds += 1
        return [
            self._request(self.cells[i], slot,
                          self._use_j(1.0 + 0.5 * ((float(self.j_start[i]) + phase) % 1.0)))
            for i in order
        ]

    def warmup(self):
        return [self._request((1024, d, k), 0, self._use_j(self.warm_sep + 0.001 * i))
                for i, (d, k) in enumerate(self.SHAPES)]

    def _request(self, cell, slot, sep):
        m, d, k = cell
        path, jumps = self.windows[(m, d, k, slot)]
        out = f"{path}.{sep!r}.json"
        argv = ["reconstruct", "--window", path, "-d", str(d), "-K", str(k),
                "-J", repr(sep), "--out", out]
        cli, sink = self.cli, self.sink

        def call():
            with contextlib.redirect_stdout(sink):
                try:
                    return cli.main(argv)
                except SystemExit as exc:   # argparse rejected the arguments
                    return exc.code

        return Request(cell=cell, call=call, check=lambda rc: self._check(cell, rc, out, jumps))

    def _check(self, cell, rc, out, truth):
        m, d, k = cell
        self.sink.seek(0)
        self.sink.truncate()
        if rc != 0:
            return _errored(f"M={m} d={d} K={k}: exit code {rc}")
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        os.remove(out)
        values = list(payload["jumps"]) + [a for row in payload["magnitudes"] for a in row]
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            return _failed(f"M={m} d={d} K={k}: non-finite output")
        try:
            errs, _ = _jump_errors(truth, payload["jumps"])
        except ValueError as exc:
            return _failed(f"M={m} d={d} K={k}: {exc}")
        worst = max(errs)
        if not worst <= self.JUMP_TOL[(d, m)]:
            return _failed(f"M={m} d={d} K={k}: jump error {worst:.3g} > {self.JUMP_TOL[(d, m)]}")
        return Outcome(True, worst)

    def strata(self, cell, outcome):
        return [(cell, outcome.error)]

    @classmethod
    def gates(cls, pd, done):
        return []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# reconstruct-evaluate
# ---------------------------------------------------------------------------

class ReconstructEvaluate:
    """One (d, K, M, seed) cell of criterion 6 per request: reconstruct at the
    config's fixed separation, then the error away from the jumps.  A round is
    one fresh signal per config at every bandwidth, so slopes fit per signal.
    Warm-up reconstructs every (config, M) at the timed separations, so timed
    requests hit the mollifier cache."""

    name = "reconstruct-evaluate"
    CONFIGS = {(0, 1): 8.0, (1, 2): 1.5, (2, 1): 8.0}   # (d, K) -> separation
    BANDWIDTHS = (64, 128, 256, 512, 1024, 2048)
    EXCLUSION_RADIUS = 0.1
    GRID_SIZE = 1024
    SLACK = 0.4
    SIGNAL_POOL = 4      # rounds with distinct signals; later rounds reuse them
    #: per-request tolerances (jump error in rad, error away from the jumps):
    #: 100x the worst of 16 seeded signals per cell, rounded up to a power of
    #: ten, jump error capped at 1 rad.  At M <= 256 with K = 2 the pipeline
    #: does not resolve the jumps yet, so there only finiteness is checked.
    TOL = {
        (0, 1, 64): (1e+00, 1e+01), (0, 1, 128): (1e-01, 1e+00), (0, 1, 256): (1e-01, 1e+00),
        (0, 1, 512): (1e-02, 1e-01), (0, 1, 1024): (1e-03, 1e-02), (0, 1, 2048): (1e-03, 1e-02),
        (1, 2, 64): (1e+00, 1e+03), (1, 2, 128): (1e+00, 1e+01), (1, 2, 256): (1e+00, 1e+01),
        (1, 2, 512): (1e-03, 1e-01), (1, 2, 1024): (1e-04, 1e-03), (1, 2, 2048): (1e-06, 1e-05),
        (2, 1, 64): (1e-02, 1e-01), (2, 1, 128): (1e-03, 1e-02), (2, 1, 256): (1e-04, 1e-03),
        (2, 1, 512): (1e-06, 1e-04), (2, 1, 1024): (1e-07, 1e-05), (2, 1, 2048): (1e-08, 1e-07),
    }

    def __init__(self, pd, seed, workdir, rep, reps):
        self.fourier = pd.fourier
        self.seed = seed
        self.rng = rng = np.random.default_rng([seed, 3])
        # earlier set-up repetitions warm up at slightly smaller separations, so
        # each builds its mollifiers cold; the last one fills the cache with the
        # keys the timed requests use
        self.setup_offset = 0.01 * (reps - 1 - rep)
        self.rounds = 0
        fourier = self.fourier
        self.pool = []
        for _ in range(self.SIGNAL_POOL):
            group = {}
            for (d, k) in self.CONFIGS:
                signal = _signal(fourier, d, k, int(rng.integers(0, 2**31 - 1)))
                group[(d, k)] = (signal, {m: fourier.signal_coeffs(signal, m) for m in self.BANDWIDTHS})
            self.pool.append(group)

    def warmup(self):
        """Every (config, M) reconstructed once, and evaluated at the largest M."""
        reqs = []
        for (d, k), sep in self.CONFIGS.items():
            signal, windows = self.pool[0][(d, k)]
            if k > 1:
                sep -= self.setup_offset
            for m in self.BANDWIDTHS:
                reqs.append(self._request(
                    (d, k, m), signal, windows[m], 0, sep, evaluate=m == self.BANDWIDTHS[-1]))
        return reqs

    def make_round(self):
        slot = self.rounds % self.SIGNAL_POOL
        self.rounds += 1
        cells = [(d, k, m) for (d, k) in self.CONFIGS for m in self.BANDWIDTHS]
        order = self.rng.permutation(len(cells))
        reqs = []
        for i in order:
            d, k, m = cells[i]
            signal, windows = self.pool[slot][(d, k)]
            reqs.append(self._request((d, k, m), signal, windows[m], slot, self.CONFIGS[(d, k)]))
        return reqs

    def _request(self, cell, signal, window, slot, sep, evaluate=True):
        d, k, m = cell
        fourier = self.fourier

        def call():
            result = fourier.reconstruct(window, d, k, sep)
            sup_away = (fourier.sup_error_away(signal, result, self.EXCLUSION_RADIUS, self.GRID_SIZE)
                        if evaluate else 0.0)
            return result.jumps, result.magnitudes, sup_away

        return Request(cell=cell, call=call,
                       check=lambda out: self._check(cell, signal, slot, out))

    def _check(self, cell, signal, slot, out):
        d, k, m = cell
        jumps, magnitudes, sup_away = out
        try:
            errs, shift = _jump_errors(signal.jumps, jumps)
        except ValueError as exc:
            return _failed(f"d={d} K={k} M={m}: {exc}")
        mags = [
            max(abs(magnitudes[l][(j + shift) % k] - signal.magnitudes[l][j]) for j in range(k))
            for l in range(d + 1)
        ]
        jump_err = max(errs)
        values = [jump_err, sup_away] + mags
        if not all(math.isfinite(v) for v in values):
            return _failed(f"d={d} K={k} M={m}: non-finite result")
        jump_tol, sup_tol = self.TOL[cell]
        if not jump_err <= jump_tol:
            return _failed(f"d={d} K={k} M={m}: jump error {jump_err:.3g} > {jump_tol}")
        if not sup_away <= sup_tol:
            return _failed(f"d={d} K={k} M={m}: error away from jumps {sup_away:.3g} > {sup_tol}")
        return Outcome(True, jump_err, detail={
            "sup_away": sup_away, "mags": mags, "signal": f"{self.seed}:{slot}"})

    def strata(self, cell, outcome):
        return [(cell, outcome.error)]

    @classmethod
    def gates(cls, pd, done):
        """Criterion 6: slopes of the per-M medians over the largest half of the
        bandwidths, at the criterion's 0.4 slack, one sample per signal."""
        failures = []
        top = cls.BANDWIDTHS[-math.ceil(len(cls.BANDWIDTHS) / 2):]
        for (d, k) in cls.CONFIGS:
            cols = {"jump_error": -(d + 2), "sup_away": -(d + 1)}
            cols.update({f"mag_error_{l}": l - d - 1 for l in range(d + 1)})
            per_m = {m: {c: [] for c in cols} for m in top}
            seen = {m: set() for m in top}
            for cell, outcome in done:
                if cell[:2] != (d, k) or cell[2] not in per_m or not outcome.ok:
                    continue
                signal = outcome.detail["signal"]
                if signal in seen[cell[2]]:   # a reused signal is not a new sample
                    continue
                seen[cell[2]].add(signal)
                row = per_m[cell[2]]
                row["jump_error"].append(outcome.error)
                row["sup_away"].append(outcome.detail["sup_away"])
                for l, e in enumerate(outcome.detail["mags"]):
                    row[f"mag_error_{l}"].append(e)
            for col, rate in cols.items():
                points = [(m, _median(per_m[m][col])) for m in top if per_m[m][col]]
                if len(points) < 2:
                    failures.append(f"criterion 6 (d={d},K={k}) {col}: fewer than two bandwidths")
                    continue
                slope = pd.sweeps.fit_loglog_slope(points)
                if not slope <= rate + cls.SLACK:
                    failures.append(
                        f"criterion 6 (d={d},K={k}) {col}: slope {slope:.2f} > {rate} + {cls.SLACK}"
                        f" ({min(len(seen[m]) for m in top)} signals per bandwidth)")
        return failures

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (DecimationSweep, ReconstructCli, ReconstructEvaluate)}
