"""Command-line interface.

Usage: incidence-lab <gen|gauge|incidence|energy|gauss|ffield|scan> [flags]

Every subcommand accepts --seed, --threads, --format and --out. No command
draws random numbers: --seed is only recorded in the output, and output is
byte-identical across reruns with the same flags. Exit codes: 0 on success, 2
when a scan verdict fails, 1 on any error.

Layer loading: the layers are referred to as modules of the package, which
registers them unrun, so a subcommand runs only the layers it calls. gen
loads pointsets and never NumPy; gauge loads gauge; gauss loads
latticecount; incidence loads incidence with pointsets and gauge; energy
and ffield add their own layer to those three; scan loads harness and the
layers its experiment calls. The scan choices come from the package's
EXPERIMENTS registry, so --help and argument errors run no layer.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from . import EXPERIMENTS, energy, ffield, gauge, harness, incidence, latticecount, pointsets
from .errors import IncidenceLabError, InputError, ParameterError


class _Parser(argparse.ArgumentParser):
    # usage errors exit with 1; 2 is reserved for failed scan verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_table_format(args) -> None:
    """Only scan writes gnuplot; every other subcommand writes csv or json."""
    if args.format not in ("csv", "json"):
        raise ParameterError(f"unsupported format {args.format!r} for this subcommand")


def _emit_record(record: dict, args, csv_header: list[str] | None = None) -> None:
    _require_table_format(args)
    if args.format == "json":
        _write(json.dumps(record, indent=2) + "\n", args)
        return
    keys = csv_header or list(record)
    row = ",".join(str(record[k]) for k in keys)
    _write(",".join(keys) + "\n" + row + "\n", args)


def _build_pointset(args) -> pointsets.PointSet:
    if args.generator is None:
        raise ParameterError("--generator is required")
    # gen_<generator>, called with the flags its signature names
    gen = getattr(pointsets, f"gen_{args.generator}", None)
    if gen is None:
        raise ParameterError(f"unknown generator {args.generator!r}")
    names = list(inspect.signature(gen).parameters)
    _require(args, *names)
    return gen(**{name: getattr(args, name) for name in names})


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ParameterError(f"--{args.generator} needs flags: {', '.join('--' + m for m in missing)}")


def _params_string(args) -> str:
    parts = []
    for name in ("n", "d", "N", "k", "alpha", "delta", "levels"):
        value = getattr(args, name, None)
        if value is not None:
            parts.append(f"{name}={value}")
    return ";".join(parts)


def _cmd_gen(args) -> int:
    _require_table_format(args)
    if args.generator == "cantor":
        _require(args, "alpha", "levels")
        params = pointsets.CantorParams(args.alpha, args.levels)
        centers = pointsets.gen_cantor_centers(params)
        if args.format == "json":
            obj = {
                "label": "cantor",
                "alpha": args.alpha,
                "levels": args.levels,
                "ratio": _frac_str(params.ratio),
                "centers": [_frac_str(c) for c in centers],
            }
            _write(json.dumps(obj, indent=2) + "\n", args)
        else:
            _write("x1\n" + "".join(_frac_str(c) + "\n" for c in centers), args)
        return 0
    pset = _build_pointset(args)
    if args.format == "json":
        obj = {
            "label": pset.label,
            "dim": pset.dim,
            "n_points": pset.n_points,
            "denominators": list(pset.denominators),
            "points": [list(row) for row in pset.numerators],
        }
        _write(json.dumps(obj) + "\n", args)
    else:
        header = ",".join(f"x{j + 1}" for j in range(pset.dim))
        lines = [header]
        for row in pset.numerators:
            lines.append(",".join(f"{num}/{den}" for num, den in zip(row, pset.denominators)))
        _write("\n".join(lines) + "\n", args)
    return 0


def _cmd_gauge(args) -> int:
    point = [float(tok) for tok in args.point.split(",")]
    g = gauge.Gauge(args.kind, len(point))
    value = gauge.gauge_value(g, point)
    _emit_record({"kind": args.kind, "dim": len(point), "value": value}, args)
    return 0


def _cmd_incidence(args) -> int:
    if args.mode == "valtr-exact":
        if args.n is None or args.d is None:
            raise ParameterError("valtr-exact mode needs --n and --d")
        caps = tuple(args.caps.split(",")) if args.caps else ("upper", "lower", "ridge")
        rep = incidence.exact_valtr_incidences(args.n, args.d, caps=caps, method=args.method or "exact_integer")
        record = asdict(rep)
        record["caps"] = "|".join(rep.caps)
    elif args.mode == "annulus":
        if args.generator is None:
            raise ParameterError("annulus mode needs --generator")
        pset = _build_pointset(args)
        g = gauge.Gauge(args.norm, pset.dim)
        rep = incidence.annulus_incidences(
            pset, g, args.t, args.eps, method=args.method or "brute", threads=args.threads
        )
        record = asdict(rep)
        record["caps"] = "|".join(rep.caps)
        record["generator"] = _params_string(args)
    elif args.mode == "falconer":
        if args.n is None or args.d is None or args.s is None:
            raise ParameterError("falconer mode needs --n, --d and --s")
        rec = incidence.falconer_measure_ratio(args.n, args.d, args.s)
        record = asdict(rec)
    else:
        raise ParameterError(f"unknown mode {args.mode!r}")
    _emit_record(record, args)
    return 0


def _cmd_energy(args) -> int:
    if args.decompose:
        if args.n is None or args.d is None:
            raise ParameterError("--decompose needs --n and --d")
        rep = energy.energy_decomposition(args.n, args.d, args.s)
        gen_name, params = "valtr", _params_string(args)
    elif args.cube_constant:
        if args.d is None:
            raise ParameterError("--cube-constant needs --d")
        record = {
            "generator": "cube",
            "params": f"d={args.d}",
            "s": args.s,
            "value": energy.cube_self_energy(args.d, args.s),
            "seed": args.seed,
        }
        _emit_record(record, args, csv_header=list(record))
        return 0
    else:
        pset = _build_pointset(args)
        rep = energy.adaptability_sum(pset, args.s, threads=args.threads)
        gen_name, params = pset.label, _params_string(args)
    record = {
        "generator": gen_name,
        "params": params,
        "s": rep.s,
        "N": rep.n_points,
        "lambda_s": rep.lambda_s,
        "self_term": rep.self_term,
        "cross_term": rep.cross_term,
        "seed": args.seed,
    }
    _emit_record(record, args, csv_header=list(record))
    return 0


def _parse_radius_range(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ParameterError(f"bad radius range {spec!r}; use start:stop[:step]")
        start, stop = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise ParameterError(f"bad radius range {spec!r}")
        out = []
        r = start
        while r <= stop + 1e-12:
            out.append(round(r, 12))
            r += step
        return out
    return [float(spec)]


def _cmd_gauss(args) -> int:
    _require_table_format(args)
    if args.N is not None:
        if args.s is None:
            raise ParameterError("--N needs --s for the incidence total")
        rec = latticecount.lattice_incidence_total(args.dim, args.N, args.s)
        _emit_record(asdict(rec), args)
        return 0
    if args.R is None:
        raise ParameterError("gauss needs --R or --N")
    radii = _parse_radius_range(args.R)
    if args.w is not None:
        rows = [(args.dim, r, args.w, latticecount.shell_count(args.dim, r, args.w)) for r in radii]
        header = "dim,R,w,count"
        lines = [header] + [",".join(str(x) for x in row) for row in rows]
        if args.format == "json":
            obj = [dict(zip(header.split(","), row)) for row in rows]
            _write(json.dumps(obj, indent=2) + "\n", args)
        else:
            _write("\n".join(lines) + "\n", args)
        return 0
    reports = [latticecount.ball_count(args.dim, r) for r in radii]
    if args.format == "json":
        obj = [{"dim": rep.dim, "radius": rep.radius, "count": rep.count,
                "volume_term": rep.volume_term, "discrepancy": rep.discrepancy} for rep in reports]
        _write(json.dumps(obj, indent=2) + "\n", args)
    else:
        lines = ["dim,R,count,volume,discrepancy"]
        for rep in reports:
            lines.append(f"{rep.dim},{rep.radius!r},{rep.count},{rep.volume_term!r},{rep.discrepancy!r}")
        _write("\n".join(lines) + "\n", args)
    return 0


def _cmd_ffield(args) -> int:
    record: dict = {"q": args.q, "d": args.d, "set": args.set}
    if args.set == "sphere":
        gamma = ffield.ff_sphere(args.q, args.d, args.t)
        record["t"] = args.t
    elif args.set == "paraboloid":
        gamma = ffield.ff_paraboloid(args.q, args.d)
    elif args.set == "sharpness":
        gamma = ffield.sharpness_set(args.q, args.delta, args.d)
        record["delta"] = args.delta
    else:
        raise ParameterError(f"unknown set {args.set!r}")
    record["size"] = gamma.size
    if args.spectrum:
        record["spectrum_max_nonzero"] = ffield.ff_fourier(gamma).max_nonzero_mag
    if args.pair_with:
        if gamma.size == 0:
            raise InputError(f"the {args.set} set is empty, so its pair count has no normalization")
        if args.pair_with == "paraboloid":
            other = ffield.ff_paraboloid(args.q, args.d)
        else:
            other = ffield.ff_sphere(args.q, args.d, args.t)
        count = ffield.ff_pair_count(gamma, other, method=args.method)
        record["pair_with"] = args.pair_with
        record["pair_count"] = count
        record["pair_count_normalized"] = count * args.q / gamma.size**2
        if args.set == "sharpness" and args.pair_with == "paraboloid" and args.method == "brute":
            record["sharpness_ratio"] = record["pair_count_normalized"]  # the same count of the same sets
    _emit_record(record, args)
    return 0


def _cmd_scan(args) -> int:
    ladder = [int(tok) for tok in args.ladder.split(",")] if args.ladder else None
    # run_experiment drops the flags not given and refuses those the experiment does not take
    params = {name: getattr(args, name) for name in ("d", "dim", "s", "alpha", "delta")}
    series = harness.run_experiment(
        args.experiment, ladder=ladder, tolerance=args.tolerance, seed=args.seed, threads=args.threads, **params
    )
    _write(harness.emit(series, args.format), args)
    return 0 if series.verdict == "pass" else 2


def _add_common(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--seed", type=int, default=0, help="recorded in output; no command draws random numbers")
    sub.add_argument("--threads", type=int, default=1, help="worker threads for pair loops")
    sub.add_argument("--format", default=default_format, choices=["csv", "json", "gnuplot"])
    sub.add_argument("--out", default=None, help="write output to FILE instead of stdout")


def _add_generator_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--generator", required=False, default=None,
                     choices=["valtr", "lenz", "lattice", "cantor", "mattila2", "mattila3"])
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--N", type=int, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--delta", type=float, default=None)
    sub.add_argument("--levels", type=int, default=None)


def _build_parser() -> _Parser:
    # the help text is the docstring without its note on layer loading
    parser = _Parser(prog="incidence-lab", description=__doc__.partition("\n\nLayer loading:")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", parents=[], help="emit a point configuration")
    _add_generator_flags(p)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("gauge", help="evaluate a gauge at a point")
    p.add_argument("--kind", required=True, choices=["euclidean", "paraboloid_body"])
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    _add_common(p, "json")
    p.set_defaults(func=_cmd_gauge)

    p = subs.add_parser("incidence", help="incidence counters")
    p.add_argument("--mode", required=True, choices=["valtr-exact", "annulus", "falconer"])
    _add_generator_flags(p)
    p.add_argument("--caps", default=None, help="subset of upper,lower,ridge")
    p.add_argument(
        "--method", default=None, help="valtr-exact: exact_integer|brute; annulus: brute|grid|classes"
    )
    p.add_argument("--norm", default="euclidean", choices=["euclidean", "paraboloid_body"])
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--s", type=float, default=None)
    _add_common(p, "json")
    p.set_defaults(func=_cmd_incidence)

    p = subs.add_parser("energy", help="Riesz energy sums")
    _add_generator_flags(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--decompose", action="store_true", help="self/cross split on the Valtr set")
    p.add_argument("--cube-constant", action="store_true", help="unit-cube self-energy C(d, s)")
    p.add_argument("--samples", type=int, default=None, help="accepted; has no effect")
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_energy)

    p = subs.add_parser("gauss", help="lattice point counts in balls and shells")
    p.add_argument("--dim", type=int, required=True, choices=[2, 3])
    p.add_argument("--R", default=None, help="radius or start:stop[:step]")
    p.add_argument("--w", type=float, default=None, help="shell thickness")
    p.add_argument("--N", type=int, default=None, help="lattice size for the incidence total")
    p.add_argument("--s", type=float, default=None)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_gauss)

    p = subs.add_parser("ffield", help="finite-field sets, spectra and pair counts")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--set", required=True, choices=["sphere", "paraboloid", "sharpness"])
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--spectrum", action="store_true", help="report max |f_hat| off zero")
    p.add_argument("--pair-with", default=None, choices=["sphere", "paraboloid"])
    p.add_argument("--method", default="brute", choices=["brute", "fourier"])
    _add_common(p, "json")
    p.set_defaults(func=_cmd_ffield)

    p = subs.add_parser("scan", help="run a scaling experiment")
    p.add_argument("--experiment", required=True, choices=list(EXPERIMENTS))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--ladder", default=None, help="comma-separated rung sizes")
    p.add_argument("--tolerance", type=float, default=None)
    _add_common(p, "json")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (IncidenceLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
