"""Reproducible experiment driver: seeded sweeps over decimation strides or
Fourier bandwidths, slope fitting, and deterministic CSV/SVG emission.

Determinism contract: identical configs (including seeds) produce byte-identical
CSVs regardless of the worker count.  Wall-clock timings are therefore kept out
of the main table and returned (or written) separately.
"""

from __future__ import annotations

import cmath
import inspect
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import fourier
from .decimate import decimated_solve, node_error_bound
from .forward import _check_scheme, _model_arrays, _moments, _scheme_ks, stride_separation
from .model import (
    TWO_PI,
    PronyModel,
    PronydecError,
    SampleSet,
    SamplingScheme,
    ValidationError,
    _assign_nodes,
    _check_level,
    _finite,
    _integer,
    _loader,
    _order,
    _shown,
    circle_distance,
    match_estimates,
)

KINDS = (
    "fixed-count-decimation",
    "fixed-top-index-decimation",
    "fourier-convergence",
    "bound-check",
)

DECIMATION_SOLVERS = ("hankel", "esprit", "lm")


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one experiment.

    model:  {"kind": "two-node" (fixed model) | "random-simple" (per seed), ...}
    signal: {"smoothness": d, "num_jumps": k, ..., "reconstruction_separation": J}

    The other keys of a spec are keyword arguments of the function that
    consumes it (_two_node_model, _random_simple_model or
    fourier.random_piecewise_signal), and an omitted key takes its default.
    J defaults to the signal's min_separation.
    """

    kind: str
    seeds: tuple
    noise: float = 0.0
    solver: str = "hankel"
    p_values: tuple = ()
    m_values: tuple = ()
    count: int = 0
    top_index: int = 0
    model: dict | None = None
    signal: dict | None = None
    exclusion_radius: float = 0.1
    grid_size: int = 1024
    workers: int = 1

    def __post_init__(self):
        for name, minimum in (("seeds", 0), ("p_values", 1), ("m_values", 1)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValidationError(f"{name} must be a list, got {_shown(values)}")
            object.__setattr__(self, name, tuple(_integer(name, v, minimum) for v in values))
        for name, minimum in (("count", 0), ("top_index", 0), ("grid_size", 1), ("workers", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if self.kind not in KINDS:
            raise ValidationError(f"unknown sweep kind {_shown(self.kind)}; pick from {KINDS}")
        if not self.seeds:
            raise ValidationError("seed list must be non-empty")
        _check_level(self.noise, "noise level")
        radius = self.exclusion_radius
        if not (_finite(radius) and 0 < radius < math.pi):
            # every grid point lies within pi of a jump
            raise ValidationError(f"exclusion_radius must lie in (0, pi), got {_shown(radius)}")
        if self.kind == "fourier-convergence":
            if self.signal is None:
                raise ValidationError("fourier-convergence needs a signal spec")
        else:
            if not self.p_values:
                raise ValidationError(f"{self.kind} needs p_values")
            if self.model is None:
                raise ValidationError(f"{self.kind} needs a model spec")
            if self.solver not in DECIMATION_SOLVERS:
                raise ValidationError(
                    f"unknown solver {_shown(self.solver)}; pick from {DECIMATION_SOLVERS}"
                )
        for what in ("model", "signal"):
            if getattr(self, what) is not None:
                _check_spec(getattr(self, what), what)
        if self.kind == "fourier-convergence" and len(set(self.m_values)) < 3:
            # _median_slope fits the largest ceil(half), which needs two points
            raise ValidationError("fourier-convergence needs at least 3 distinct bandwidths")
        if self.kind == "fixed-count-decimation" and self.count < 2:
            raise ValidationError("fixed-count-decimation needs count >= 2")
        if self.kind == "fixed-top-index-decimation" and self.top_index < 1:
            raise ValidationError("fixed-top-index-decimation needs top_index >= 1")
        if self.kind == "bound-check" and self.solver == "esprit":
            raise ValidationError(
                "bound-check samples the square system (2 per simple node) and "
                "solver 'esprit' needs at least 2 * num_nodes + 1; pick 'hankel' or 'lm'"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    @_loader
    def from_dict(data: dict) -> "SweepConfig":
        unknown = set(data) - set(SweepConfig.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown sweep config fields: {sorted(unknown)}")
        return SweepConfig(**data)


@dataclass
class SweepResult:
    columns: tuple
    rows: list
    slopes: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def _two_node_model(gap: float = 1e-2, coefficient: complex = 1.0) -> PronyModel:
    half = float(gap) / 2.0
    return PronyModel(
        (cmath.exp(1j * half), cmath.exp(-1j * half)),
        (1, 1),
        ((coefficient,), (coefficient,)),
    ).canonical()


def _random_simple_model(
    seed: int, p_values, num_nodes: int = 2, min_stride_separation: float = 0.8
) -> PronyModel:
    """Seeded random simple-node model, rejection-sampled so that the powered
    node separation stays above the floor for every stride in the sweep."""
    num_nodes = _integer("num_nodes", num_nodes, 1)
    rng = np.random.default_rng([seed, 0x5EED])
    for _ in range(10_000):
        args = rng.uniform(-math.pi, math.pi, size=num_nodes)
        nodes = tuple(cmath.exp(1j * a) for a in args)
        moduli = rng.uniform(0.5, 2.0, size=num_nodes)
        phases = rng.uniform(0.0, TWO_PI, size=num_nodes)
        coeffs = tuple((complex(m * math.cos(f), m * math.sin(f)),) for m, f in zip(moduli, phases))
        model = PronyModel(nodes, (1,) * num_nodes, coeffs)
        if all(stride_separation(model, p) >= min_stride_separation for p in p_values):
            return model.canonical()
    raise ValidationError("could not draw a model with the requested stride separations")


_MODEL_BUILDERS = {"two-node": _two_node_model, "random-simple": _random_simple_model}


#: least value of a spec's int parameters, where it is not 0
_SPEC_MINIMUM = {"num_nodes": 1, "num_jumps": 1}


def _check_spec(spec, what: str) -> None:
    """A model or signal spec is an object whose keys are parameters of the
    function that consumes it, less those the sweep supplies itself; the
    parameters without a default are required.  Every value but the model
    kind is a finite number: an integer of at least the parameter's minimum
    where it is annotated int (the smoothness also at most MAX_ORDER), a pair
    of numbers for base_magnitude_range."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{what} spec must be an object, got {_shown(spec)}")
    if what == "signal":
        consumer, extra = fourier.random_piecewise_signal, "reconstruction_separation"
    else:
        consumer, extra = _MODEL_BUILDERS.get(spec.get("kind", "two-node")), "kind"
        if consumer is None:
            raise ValidationError(f"unknown model spec kind {_shown(spec['kind'])}")
    params = inspect.signature(consumer, eval_str=True).parameters
    supplied = {"seed", "p_values"}
    unknown = set(spec) - (set(params) - supplied | {extra})
    if unknown:
        raise ValidationError(f"unknown {what} spec keys: {sorted(unknown)}")
    for key, value in spec.items():
        if key == "kind":
            continue
        pair = key == "base_magnitude_range"
        items = value if pair and isinstance(value, (list, tuple)) else [value]
        annotation = params[key].annotation if key in params else float
        kind = {int: numbers.Integral, complex: numbers.Complex}.get(annotation, numbers.Real)
        if len(items) != (2 if pair else 1) or not all(
                isinstance(v, kind) and _finite(abs(v)) for v in items):
            raise ValidationError(f"{what} spec value {key}={_shown(value)} has the wrong type or is not finite")
        if key == "smoothness":
            _order(f"{what} spec value {key}", value)
        elif annotation is int:
            _integer(f"{what} spec value {key}", value, _SPEC_MINIMUM.get(key, 0))
    missing = [k for k, p in params.items()
               if p.default is p.empty and k not in supplied and k not in spec]
    if missing:
        raise ValidationError(f"{what} spec is missing required keys: {missing}")


def _build_model(config: SweepConfig, seed: int) -> PronyModel:
    spec = dict(config.model)
    if spec.pop("kind", "two-node") == "two-node":
        return _two_node_model(**spec)
    return _random_simple_model(seed, config.p_values, **spec)


def _count_for_stride(config: SweepConfig, p: int, truth: PronyModel) -> int:
    if config.kind == "fixed-count-decimation":
        return config.count
    if config.kind == "fixed-top-index-decimation":
        return config.top_index // p
    # bound-check: the square system of the model
    return truth.unknown_count


def _union_noise(config: SweepConfig, seed: int, truth: PronyModel):
    """Disk noise drawn once per seed on the union of all sweep index sets,
    so different strides see identical perturbations on shared indices.

    Returns the sorted union of indices and the noise value at each."""
    stops = [p * _count_for_stride(config, p, truth) for p in config.p_values]
    mask = np.zeros(max(stops), dtype=bool)
    for p, stop in zip(config.p_values, stops):
        mask[:stop:p] = True
    union = np.flatnonzero(mask)
    rng = np.random.default_rng([seed, 0x0D15C])
    u = rng.random((len(union), 2))
    eta = config.noise * np.sqrt(u[:, 0]) * np.exp(1j * TWO_PI * u[:, 1])
    return union, eta


# ---------------------------------------------------------------------------
# per-seed tasks: each draws its seed's truth once
# ---------------------------------------------------------------------------

def _decimation_task(config: SweepConfig, seed: int):
    truth = _build_model(config, seed)
    union, eta = _union_noise(config, seed, truth)
    rows, timings = [], {}
    for p in config.p_values:
        scheme = SamplingScheme(0, p, _count_for_stride(config, p, truth))
        _check_scheme(truth.multiplicities, scheme)
        ks = _scheme_ks(scheme)
        q = _moments(*_model_arrays(truth), ks) + eta[np.searchsorted(union, ks)]
        samples = SampleSet(scheme, q, config.noise)

        start = time.perf_counter()
        try:
            # the true node arguments are the hints ("lm" refines from them)
            estimate, report = decimated_solve(
                samples, truth.multiplicities, truth.node_args, base_solver=config.solver
            )
            timings[p, seed] = time.perf_counter() - start
            match = match_estimates(estimate, truth)
            bounds = node_error_bound(truth, p, config.noise)
            errors = [abs(estimate.nodes[match.assignment[j]] - z) for j, z in enumerate(truth.nodes)]
            shared = {"residual": report.residual, "method": report.method,
                      "iterations": report.iterations, "flags": ";".join(report.flags)}
        except PronydecError as exc:
            timings[p, seed] = time.perf_counter() - start
            errors = bounds = [math.nan] * truth.num_nodes
            shared = {"residual": math.nan, "method": config.solver,
                      "iterations": 0, "flags": f"solver-error:{type(exc).__name__}"}
        rows += [
            {"p": p, "seed": seed, "node_index": j, "error": err, "bound": float(bound), **shared}
            for j, (err, bound) in enumerate(zip(errors, bounds))
        ]
    return rows, timings


def _signal_for_seed(config: SweepConfig, seed: int):
    spec = {k: v for k, v in config.signal.items() if k != "reconstruction_separation"}
    return fourier.random_piecewise_signal(seed=seed, **spec)


def _fourier_task(config: SweepConfig, seed: int):
    spec, defaults = config.signal, inspect.signature(fourier.random_piecewise_signal).parameters
    sep = spec.get("min_separation", defaults["min_separation"].default)
    sep = spec.get("reconstruction_separation", sep)
    signal = _signal_for_seed(config, seed)
    d, k = signal.smoothness, len(signal.jumps)
    errors = ["jump_error", *(f"mag_error_{l}" for l in range(d + 1)), "sup_away"]
    rows, timings = [], {}
    for m in config.m_values:
        window = fourier.signal_coeffs(signal, m)
        row = {"M": m, "seed": seed}
        start = time.perf_counter()
        try:
            result = fourier.reconstruct(window, d, k, sep)
            timings[m, seed] = time.perf_counter() - start
            # perm[i] is the estimate paired with true jump i (cheapest cyclic pairing)
            perm = _assign_nodes(result.jumps, (1,) * k, signal.jumps, (1,) * k)
            row["jump_error"] = max(
                circle_distance(result.jumps[j], b) for j, b in zip(perm, signal.jumps)
            )
            for l in range(d + 1):
                row[f"mag_error_{l}"] = max(
                    abs(result.magnitudes[l][j] - b) for j, b in zip(perm, signal.magnitudes[l])
                )
            row["sup_away"] = fourier.sup_error_away(
                signal, result, config.exclusion_radius, config.grid_size
            )
            row["flags"] = ""
        except PronydecError as exc:
            timings[m, seed] = time.perf_counter() - start
            row.update(dict.fromkeys(errors, math.nan), flags=f"reconstruction-error:{type(exc).__name__}")
        rows.append(row)
    return rows, timings


# ---------------------------------------------------------------------------
# sweep runners
# ---------------------------------------------------------------------------

def _run_tasks(config: SweepConfig):
    """Run the kind's task once per seed, on at most one worker per seed.
    Returns the rows in (x, seed) order whatever the worker count (a stable
    sort keeps a task's rows for one x in order) and the (x, seed) timings."""
    task = _fourier_task if config.kind == "fourier-convergence" else _decimation_task
    workers = min(config.workers, os.cpu_count() or 1, len(config.seeds))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, [config] * len(config.seeds), config.seeds))
    else:
        results = [task(config, seed) for seed in config.seeds]
    rows = sorted((row for seed_rows, _ in results for row in seed_rows),
                  key=lambda row: tuple(row.values())[:2])  # each row begins with its (x, seed)
    return rows, {key: t for _, seed_timings in results for key, t in seed_timings.items()}


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the sweep the config describes.

    The decimation kinds solve on indices {0, p, ..., (count-1)p}: a fixed
    count ("fixed-count-decimation"), count = top_index // p
    ("fixed-top-index-decimation"), or the model's square system on per-seed
    random models ("bound-check").  "fourier-convergence" reconstructs over
    the bandwidths M and fits the log-log slope of each error column against
    M (see _median_slope).  A task is one seed: it draws the seed's model and
    noise, or signal, once and solves at every stride or bandwidth, and
    `workers` spreads the seeds over processes.  Columns are the row
    builders' keys, in their order: (x, seed) first, flags last, and for the
    Fourier sweep the errors between; timings are keyed (x, seed).
    """
    fit = config.kind == "fourier-convergence"
    rows, timings = _run_tasks(config)
    columns = tuple(rows[0])
    slopes = {col: _median_slope(rows, col) for col in columns[2:-1]} if fit else {}
    return SweepResult(columns=columns, rows=rows, slopes=slopes, timings=timings)


# ---------------------------------------------------------------------------
# slope fitting and emission
# ---------------------------------------------------------------------------

def _median_slope(rows, col) -> float:
    """Log-log slope of col's per-M medians over seeds at the largest
    ceil(half) of the bandwidths; NaN unless at least two medians are defined
    and positive."""
    ms = sorted({r["M"] for r in rows})
    points = []
    for m in ms[-math.ceil(len(ms) / 2):]:
        vals = [r[col] for r in rows if r["M"] == m and not math.isnan(r[col])]
        if vals:
            points.append((float(m), float(np.median(vals))))
    if len(points) >= 2 and all(y > 0 for _, y in points):
        return fit_loglog_slope(points)
    return math.nan


def fit_loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValidationError("need at least two points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValidationError("log-log fit needs positive values")
    if len({x for x, _ in pts}) < 2:
        raise ValidationError("need at least two distinct x values")
    xs = np.log([x for x, _ in pts])
    ys = np.log([y for _, y in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    raise ValidationError(f"cannot format cell of type {type(value).__name__}")


def emit_csv(rows, path, columns) -> None:
    """Deterministic CSV: fixed column order, shortest-round-trip float text."""
    if not rows:
        raise ValidationError("refusing to write an empty table")
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_timings_csv(timings: dict, path, key_names) -> None:
    """Wall-clock sidecar through emit_csv; excluded from the byte-determinism contract."""
    columns = (*key_names, "seconds")
    emit_csv([dict(zip(columns, (*key, timings[key]))) for key in sorted(timings)], path, columns)


def _svg_ticks(lo: float, hi: float):
    """Decade tick positions covering [lo, hi] in log space."""
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)]


def emit_svg(rows, path, x_col: str, y_col: str, title: str = "") -> None:
    """Deterministic log-log scatter with a median line per x value."""
    if not rows:
        raise ValidationError("refusing to plot an empty table")
    pts = [
        (float(r[x_col]), float(r[y_col]))
        for r in rows
        if not (math.isnan(float(r[x_col])) or math.isnan(float(r[y_col])))
        and float(r[x_col]) > 0 and float(r[y_col]) > 0
    ]
    if not pts:
        raise ValidationError("no plottable points (all nonpositive or missing)")
    width, height = 640, 480
    mleft, mright, mtop, mbottom = 70, 20, 30, 50
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    lx0, lx1 = math.log10(min(xs)), math.log10(max(xs))
    ly0, ly1 = math.log10(min(ys)), math.log10(max(ys))
    if lx1 - lx0 < 1e-9:
        lx0, lx1 = lx0 - 0.5, lx1 + 0.5
    if ly1 - ly0 < 1e-9:
        ly0, ly1 = ly0 - 0.5, ly1 + 0.5

    def px(x):
        return mleft + (math.log10(x) - lx0) / (lx1 - lx0) * (width - mleft - mright)

    def py(y):
        return height - mbottom - (math.log10(y) - ly0) / (ly1 - ly0) * (height - mtop - mbottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.6g}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.6g}" y="{height - 10}" text-anchor="middle" font-size="12">{x_col}</text>',
        f'<text x="15" y="{height / 2:.6g}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {height / 2:.6g})">{y_col}</text>',
    ]
    for tx in _svg_ticks(min(xs), max(xs)):
        if lx0 - 1e-9 <= math.log10(tx) <= lx1 + 1e-9:
            parts.append(
                f'<line x1="{px(tx):.6g}" y1="{mtop}" x2="{px(tx):.6g}" y2="{height - mbottom}" '
                f'stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{px(tx):.6g}" y="{height - mbottom + 15}" text-anchor="middle" '
                f'font-size="10">{tx:.6g}</text>'
            )
    for ty in _svg_ticks(min(ys), max(ys)):
        if ly0 - 1e-9 <= math.log10(ty) <= ly1 + 1e-9:
            parts.append(
                f'<line x1="{mleft}" y1="{py(ty):.6g}" x2="{width - mright}" y2="{py(ty):.6g}" '
                f'stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{mleft - 5}" y="{py(ty):.6g}" text-anchor="end" '
                f'font-size="10">{ty:.6g}</text>'
            )
    for x, y in pts:
        parts.append(f'<circle cx="{px(x):.6g}" cy="{py(y):.6g}" r="2.5" fill="#3366cc"/>')
    medians = []
    for x in sorted(set(xs)):
        vals = sorted(y for px_, y in pts if px_ == x)
        medians.append((x, float(np.median(vals))))
    if len(medians) > 1:
        path_d = " ".join(f"{px(x):.6g},{py(y):.6g}" for x, y in medians)
        parts.append(f'<polyline points="{path_d}" fill="none" stroke="#cc3333" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
