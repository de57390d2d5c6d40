"""Command-line driver.

Subcommands: gen (emit model/signal/window files), moments (forward map),
solve (single solve), bounds (a-priori error bound tables), reconstruct
(window file -> jump data + corrected series), sweep (config-driven
experiments with CSV/SVG output).

Exit codes: 0 success, 2 validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import fourier, sweeps
from .decimate import close_node_improvement, coeff_error_bound, decimated_solve, node_error_bound
from .forward import add_noise, evaluate_moments, stride_separation
from .model import (
    PronydecError,
    SampleSet,
    SamplingScheme,
    ValidationError,
    _integer,
    _random_model,
    load_json,
    model_from_dict,
    model_to_dict,
    samples_from_dict,
    samples_to_dict,
    save_json,
    signal_from_dict,
    signal_to_dict,
)
from .solvers import BASE_SOLVERS, lm_refine


def _parse_list(text: str, kind):
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"not a comma-separated list of {kind.__name__}s: {text!r}") from None


def _parse_scheme(text: str) -> SamplingScheme:
    parts = _parse_list(text, int)
    if len(parts) != 3:
        raise ValidationError("scheme must be offset,stride,count")
    return SamplingScheme(*parts)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.what == "model":
        if args.angles is not None:
            angles = _parse_list(args.angles, float)
            mults = _parse_list(args.multiplicities, int) if args.multiplicities else [1] * len(angles)
            rows = [[[1.0, 0.0]] * m for m in mults]
            if args.coefficients:
                try:
                    rows = json.loads(args.coefficients)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"--coefficients is not valid JSON ({exc})") from None
            model = model_from_dict({"nodes": angles, "multiplicities": mults, "coefficients": rows})
        else:
            rng = np.random.default_rng(_integer("seed", args.seed))
            model = _random_model(rng, args.num_nodes, args.min_separation)
        save_json(model_to_dict(model.canonical()), args.out)
        print(f"wrote model with {model.num_nodes} node(s) to {args.out}")
        return 0
    if args.what == "signal":
        # an option left out is absent from args and takes the generator's default
        options = {k: v for k, v in vars(args).items() if k not in ("command", "what", "out")}
        signal = fourier.random_piecewise_signal(**options)
        save_json(signal_to_dict(signal), args.out)
        print(f"wrote signal (d={args.smoothness}, K={args.num_jumps}) to {args.out}")
        return 0
    # window
    signal = signal_from_dict(load_json(args.signal))
    window = fourier.signal_coeffs(signal, args.bandwidth)
    fourier.write_window_file(window, args.out)
    print(f"wrote coefficient window (M={args.bandwidth}) to {args.out}")
    return 0


def _cmd_moments(args) -> int:
    model = model_from_dict(load_json(args.model))
    scheme = _parse_scheme(args.scheme)
    samples = add_noise(
        evaluate_moments(model, scheme), args.noise, args.seed,
        distribution="gaussian" if args.gaussian else "disk",
    )
    save_json(samples_to_dict(samples), args.out)
    print(f"wrote {scheme.count} samples on indices {scheme.offset}+{scheme.stride}*s to {args.out}")
    return 0


def _extract_subscheme(samples: SampleSet, scheme: SamplingScheme) -> SampleSet:
    """Restrict a sample set to a coarser progression of its own index set."""
    positions = {k: i for i, k in enumerate(samples.scheme.indices)}
    try:
        values = tuple(samples.values[positions[k]] for k in scheme.indices)
    except KeyError as missing:
        raise ValidationError(
            f"index {missing.args[0]} of the requested scheme is not in the sample set"
        ) from None
    return SampleSet(scheme, values, samples.noise_level)


def _cmd_solve(args) -> int:
    samples = samples_from_dict(load_json(args.samples))
    if args.scheme:
        samples = _extract_subscheme(samples, _parse_scheme(args.scheme))
    mults = tuple(_parse_list(args.structure, int))
    hints = _parse_list(args.hints, float) if args.hints else None

    if args.init is not None:
        if args.solver != "lm":
            raise ValidationError(f"--init needs --solver lm, not {args.solver}")
        for flag, given in (("--hints", args.hints is not None), ("--no-refine", args.no_refine)):
            if given:
                raise ValidationError(f"{flag} cannot be combined with --init")
        init = model_from_dict(load_json(args.init))
        if mults != init.multiplicities:
            raise ValidationError(
                f"--structure {args.structure} differs from the --init model's multiplicities "
                f"{','.join(map(str, init.multiplicities))}"
            )
        model, report = lm_refine(samples, init)
    else:
        model, report = decimated_solve(
            samples, mults, hints, base_solver=args.solver, refine=not args.no_refine
        )
    save_json(model_to_dict(model), args.out)
    print(
        f"method={report.method} iterations={report.iterations} "
        f"residual={report.residual:.6g} flags={';'.join(report.flags) or '-'}"
    )
    if args.report_out:
        save_json(asdict(report), args.report_out)
    return 0


def _cmd_bounds(args) -> int:
    model = model_from_dict(load_json(args.model))
    node_bounds = node_error_bound(model, args.p, args.eps)
    coeff_bounds = coeff_error_bound(model, args.t, args.p, args.eps, args.C)
    r = model.unknown_count
    print(f"stride={args.p} offset={args.t} eps={args.eps:.6g} "
          f"separation={stride_separation(model, args.p):.6g} unknowns={r}")
    print("node  mult  |node error bound|  close-node gain p^-(R+m)")
    for j, (m, b) in enumerate(zip(model.multiplicities, node_bounds)):
        gain = close_node_improvement(m, r, args.p)
        print(f"{j:4d}  {m:4d}  {b:18.6g}  {gain:.6g}")
    print("node  coeff  |coefficient error bound|")
    for j, row in enumerate(coeff_bounds):
        for i, b in enumerate(row):
            print(f"{j:4d}  {i:5d}  {b:25.6g}")
    return 0


def _cmd_reconstruct(args) -> int:
    window = fourier.read_window_file(args.window)
    result = fourier.reconstruct(window, args.smoothness, args.num_jumps, args.separation)
    m, coeffs = result.corrected.bandwidth, result.corrected.coeffs
    payload = {
        "jumps": list(result.jumps),
        "magnitudes": [list(row) for row in result.magnitudes],
        "smoothness": result.smoothness,
        "corrected": list(zip(range(-m, m + 1), coeffs.real.tolist(), coeffs.imag.tolist())),
    }
    save_json(payload, args.out)
    jumps = ", ".join(f"{x:.6g}" for x in result.jumps)
    print(f"recovered {len(result.jumps)} jump(s) at [{jumps}]; wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    config = sweeps.SweepConfig.from_dict(load_json(args.config))
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    result = sweeps.run_sweep(config)
    if args.csv:
        sweeps.emit_csv(result.rows, args.csv, result.columns)
        print(f"wrote {len(result.rows)} rows to {args.csv}")
    if args.svg:
        y_col = next(c for c in result.columns if c.endswith("error"))  # the first error column
        sweeps.emit_svg(result.rows, args.svg, result.columns[0], y_col, title=config.kind)
        print(f"wrote plot to {args.svg}")
    if args.timing_out:
        sweeps.emit_timings_csv(result.timings, args.timing_out, result.columns[:2])
        print(f"wrote timings to {args.timing_out}")
    for name, slope in sorted(result.slopes.items()):
        print(f"slope[{name}] = {slope:.4f}")
    if not args.csv and not args.svg:
        print(f"ran {config.kind}: {len(result.rows)} rows (no output paths given)")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pronydec",
        description="Decimated Prony solvers and piecewise-smooth Fourier reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit model / signal / window files")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    gm = gen_sub.add_parser("model", help="Prony model JSON")
    gm.add_argument("--angles", help="comma-separated node arguments (radians)")
    gm.add_argument("--multiplicities", help="comma-separated multiplicities")
    gm.add_argument("--coefficients", help="JSON [[ [re,im], ... ] per node]")
    gm.add_argument("--num-nodes", type=int, default=2, help="random model size")
    gm.add_argument("--seed", type=int, default=0)
    gm.add_argument("--min-separation", type=float, default=0.3)
    gm.add_argument("--out", required=True)
    gs = gen_sub.add_parser("signal", help="piecewise signal JSON")
    gs.add_argument("--smoothness", "-d", type=int, default=0)
    gs.add_argument("--num-jumps", "-K", type=int, default=1)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--min-separation", type=float, default=argparse.SUPPRESS)
    gs.add_argument("--psi-decay", type=float, default=argparse.SUPPRESS)
    gs.add_argument("--psi-degree", type=int, default=argparse.SUPPRESS)
    gs.add_argument("--out", required=True)
    gw = gen_sub.add_parser("window", help="coefficient window text file from a signal")
    gw.add_argument("--signal", required=True)
    gw.add_argument("--bandwidth", "-M", type=int, required=True)
    gw.add_argument("--out", required=True)

    mom = sub.add_parser("moments", help="evaluate the forward map on a scheme")
    mom.add_argument("--model", required=True)
    mom.add_argument("--scheme", required=True, help="offset,stride,count")
    mom.add_argument("--noise", type=float, default=0.0)
    mom.add_argument("--seed", type=int, default=0)
    mom.add_argument("--gaussian", action="store_true", help="off-model Gaussian noise")
    mom.add_argument("--out", required=True)

    sol = sub.add_parser("solve", help="solve one sample set")
    sol.add_argument("--samples", required=True)
    sol.add_argument(
        "--scheme",
        help="offset,stride,count: solve on this sub-progression of the sample file",
    )
    sol.add_argument("--structure", required=True, help="comma-separated multiplicities")
    sol.add_argument("--solver", default="hankel", choices=BASE_SOLVERS)
    sol.add_argument("--hints", help="comma-separated node-argument hints (radians)")
    sol.add_argument("--init", help="initial model JSON (lm solver, in place of --hints)")
    sol.add_argument("--no-refine", action="store_true")
    sol.add_argument("--out", required=True)
    sol.add_argument("--report-out")

    bnd = sub.add_parser("bounds", help="print a-priori error bound tables")
    bnd.add_argument("--model", required=True)
    bnd.add_argument("--t", type=int, default=0, help="scheme offset")
    bnd.add_argument("--p", type=int, default=1, help="scheme stride")
    bnd.add_argument("--eps", type=float, required=True)
    bnd.add_argument("--C", type=float, default=1.0, help="coefficient-bound constant")

    rec = sub.add_parser("reconstruct", help="recover jump data from a window file")
    rec.add_argument("--window", required=True)
    rec.add_argument("--smoothness", "-d", type=int, required=True)
    rec.add_argument("--num-jumps", "-K", type=int, required=True)
    rec.add_argument("--separation", "-J", type=float, required=True)
    rec.add_argument("--out", required=True)

    swp = sub.add_parser("sweep", help="run a config-driven experiment")
    swp.add_argument("--config", required=True)
    swp.add_argument("--csv")
    swp.add_argument("--svg")
    swp.add_argument("--timing-out")
    swp.add_argument("--workers", type=int)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "moments": _cmd_moments,
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "reconstruct": _cmd_reconstruct,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PronydecError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
