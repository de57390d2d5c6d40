"""Span tracing of pronydec's layers from outside the package.

`Tracer.install()` replaces each public function of the seven modules with a
timing wrapper at every module attribute that binds it (the package namespace
included), and wraps the two methods the per-layer metrics need
(`SampleSet.__init__` and `ReconstructionResult.evaluate`).  Nothing under
`src/` changes: the wrappers are rebound attributes, installed only in a
traced run.

Each span is (name, start, end, parent span index, request id).  Spans stay in
memory; `dump()` writes them once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

MODULES = ("model", "forward", "solvers", "decimate", "fourier", "sweeps", "cli")

# Scalar helpers called once per node or jump inside other layers' loops; a
# wrapper would cost more than the call and they belong to no measured stage.
UNWRAPPED = frozenset({
    "circle_distance", "wrap_angle", "wrap_position",
    "node_from_position", "position_from_node",
})

SETUP = -1  # request id of spans recorded before the timed phase


def _ms(seconds: float) -> float:
    return seconds * 1e3


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in MODULES]
        self.spans = []          # [name, start, end, parent, request]
        self.stack = []
        self.request = SETUP
        self.lm_runs = []        # (request, iterations, capped)
        self.seen_keys = set()
        self.new_keys = []       # requests whose mollifier key was first seen then

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, on_return=None):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _lm_done(self, args, kwargs, result):
        report = result[1]
        self.lm_runs.append(
            (self.request, int(report.iterations), "max-iterations" in report.flags)
        )

    def _mollifier_called(self, args, kwargs, result):
        bound = inspect.signature(self._build_mollifier).bind(*args, **kwargs)
        a = bound.arguments
        key = (float(a["half_width"]), float(a["flat_half_width"]), int(a["degree"]))
        if key not in self.seen_keys:
            self.seen_keys.add(key)
            self.new_keys.append(self.request)

    def install(self):
        hooks = {"lm_refine": self._lm_done, "build_mollifier": self._mollifier_called}
        replacements = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in UNWRAPPED
                ):
                    if attr == "build_mollifier":
                        self._build_mollifier = value
                    replacements[value] = self._wrap(value, f"{short}.{attr}", hooks.get(attr))
        for module in [self.package] + self.modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(module, attr, replacements[value])
        model, fourier = self.package.model, self.package.fourier
        model.SampleSet.__init__ = self._wrap(model.SampleSet.__init__, "model.SampleSet")
        fourier.ReconstructionResult.evaluate = self._wrap(
            fourier.ReconstructionResult.evaluate, "fourier.ReconstructionResult.evaluate"
        )

    # -- aggregation ------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds), timed phase only."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, request in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, request) in enumerate(self.spans):
            if request == SETUP:
                continue
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - child[idx]))
        return out

    def layer_metrics(self):
        """The per-layer metrics named in BENCHMARK.json, from the timed spans."""
        t = self.totals()

        def calls(*names):
            return sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)

        def total_ms(*names):
            return _ms(sum(t.get(n, (0, 0.0, 0.0))[1] for n in names))

        def self_ms(*names):
            return _ms(sum(t.get(n, (0, 0.0, 0.0))[2] for n in names))

        def layer_self_ms(layer):
            return _ms(sum(v[2] for n, v in t.items() if n.startswith(layer + ".")))

        lm = [(it, capped) for req, it, capped in self.lm_runs if req != SETUP]
        iters = sorted(it for it, _ in lm)
        if iters:
            mid = len(iters) // 2
            iters_p50 = iters[mid] if len(iters) % 2 else (iters[mid - 1] + iters[mid]) / 2
        else:
            iters_p50 = 0
        return {
            "sweeps.run_sweep.ms": (total_ms("sweeps.run_sweep"), "ms"),
            "sweeps.self_ms": (layer_self_ms("sweeps"), "ms"),
            "model.sampleset.calls": (calls("model.SampleSet"), "count"),
            "model.sampleset.ms": (total_ms("model.SampleSet"), "ms"),
            "model.match.ms": (total_ms("model.match_estimates"), "ms"),
            "model.to_dict.ms": (total_ms("model.model_to_dict", "model.samples_to_dict"), "ms"),
            "forward.moments.calls": (calls("forward.evaluate_moments"), "count"),
            "forward.moments.ms": (total_ms("forward.evaluate_moments"), "ms"),
            "forward.jacobian.calls": (calls("forward.jacobian"), "count"),
            "forward.jacobian.ms": (total_ms("forward.jacobian"), "ms"),
            "forward.coeff_matrix.ms": (total_ms("forward.coefficient_matrix"), "ms"),
            "solvers.hankel.ms": (total_ms("solvers.prony_hankel_solve"), "ms"),
            "solvers.esprit.ms": (total_ms("solvers.esprit_solve"), "ms"),
            "solvers.annihilation.ms": (total_ms("solvers.annihilation_solve_single"), "ms"),
            "solvers.vandermonde.calls": (calls("solvers.confluent_vandermonde_coeffs"), "count"),
            "solvers.vandermonde.ms": (total_ms("solvers.confluent_vandermonde_coeffs"), "ms"),
            "solvers.lm.ms": (total_ms("solvers.lm_refine"), "ms"),
            "solvers.lm.iters_p50": (iters_p50, "count"),
            "solvers.lm.iters_max": (max(iters, default=0), "count"),
            "solvers.lm.capped_frac": (
                sum(c for _, c in lm) / len(lm) if lm else 0.0, "ratio"
            ),
            "decimate.solve.self_ms": (self_ms("decimate.decimated_solve"), "ms"),
            "decimate.undecimate.calls": (calls("decimate.undecimate_node"), "count"),
            "decimate.undecimate.ms": (total_ms("decimate.undecimate_node"), "ms"),
            "fourier.coarse.ms": (total_ms("fourier.initial_jump_estimates"), "ms"),
            "fourier.mollifier.calls": (calls("fourier.build_mollifier"), "count"),
            "fourier.mollifier.distinct_keys": (
                sum(1 for req in self.new_keys if req != SETUP), "count"
            ),
            "fourier.mollifier.ms": (total_ms("fourier.build_mollifier"), "ms"),
            "fourier.localize.ms": (total_ms("fourier.localize"), "ms"),
            "fourier.transform.ms": (total_ms("fourier.eckhoff_transform"), "ms"),
            "fourier.reconstruct.self_ms": (self_ms("fourier.reconstruct"), "ms"),
            "fourier.evaluate.ms": (total_ms("fourier.ReconstructionResult.evaluate"), "ms"),
            "fourier.evaluate_signal.ms": (total_ms("fourier.evaluate_signal"), "ms"),
            "fourier.sup_error_away.self_ms": (self_ms("fourier.sup_error_away"), "ms"),
            "cli.main.self_ms": (layer_self_ms("cli"), "ms"),
            "cli.read_window.ms": (total_ms("fourier.read_window_file"), "ms"),
            "cli.write_json.ms": (total_ms("model.save_json"), "ms"),
        }

    def dump(self, path):
        """Write every span, setup included, as gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(s - t0, 9), round(e - t0, 9), p, r]
            for n, s, e, p, r in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
        return len(rows)
