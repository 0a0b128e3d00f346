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
adds its own layer to those three; ffield loads ffield alone; scan loads
harness and the layers its experiment calls. The scan choices come from the
package's EXPERIMENTS registry and the generator choices from GENERATORS,
so --help and argument errors run no layer.

Flags and output: a subcommand calls each layer function through _call, so
the parameters that function's signature names without a default are the
only statement of the flags it needs; a command lacking some exits 1 with one
line naming the function and every missing flag. _emit writes every record
and table but gen's point lists: JSON of the object as it is, or csv as a
header and one line per record.
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


def _emit(obj, args, header: list[str] | None = None) -> None:
    """``obj`` as JSON, as it is; as csv, a header (the first record's keys
    unless ``header`` is given) and one line per record. A dict is one
    record, a list holds one per line."""
    _require_table_format(args)
    if args.format == "json":
        _write(json.dumps(obj, indent=2) + "\n", args)
        return
    records = [obj] if isinstance(obj, dict) else obj
    lines = [",".join(header or records[0])] + [",".join(map(str, rec.values())) for rec in records]
    _write("\n".join(lines) + "\n", args)


def _call(fn, args, **given):
    """``fn`` called with ``given`` and, for each parameter its signature
    names without a default, the flag of that name: the signature is the one
    statement of the flags a command needs. Every unset one is refused at once."""
    names = [name for name, param in inspect.signature(fn).parameters.items()
             if param.default is param.empty and name not in given]
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        raise ParameterError(f"{fn.__name__} needs flags: {', '.join('--' + m for m in missing)}")
    return fn(**given, **{name: getattr(args, name) for name in names})


def _build_pointset(args) -> tuple[pointsets.PointSet, str]:
    """The point set that --generator names, and its parameters as recorded."""
    if args.generator is None:
        raise ParameterError("--generator is required")
    gen = getattr(pointsets, f"gen_{args.generator}")
    return _call(gen, args), _params_string(gen, args)


def _params_string(gen, args) -> str:
    """name=value for each flag that ``gen``'s signature names, in its order."""
    return ";".join(f"{name}={getattr(args, name)}" for name in inspect.signature(gen).parameters)


def _cmd_gen(args) -> int:
    _require_table_format(args)
    if args.generator == "cantor":
        params = _call(pointsets.CantorParams, args)
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
    pset, _ = _build_pointset(args)
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
    _emit({"kind": args.kind, "dim": len(point), "value": value}, args)
    return 0


def _cmd_incidence(args) -> int:
    if args.mode == "valtr-exact":
        caps = tuple(args.caps.split(",")) if args.caps else ("upper", "lower", "ridge")
        rep = _call(incidence.exact_valtr_incidences, args, caps=caps, method=args.method or "exact_integer")
        record = asdict(rep)
        record["caps"] = "|".join(rep.caps)
    elif args.mode == "annulus":
        pset, params = _build_pointset(args)
        g = gauge.Gauge(args.norm, pset.dim)
        rep = incidence.annulus_incidences(
            pset, g, args.t, args.eps, method=args.method or "brute", threads=args.threads
        )
        record = asdict(rep)
        record["caps"] = "|".join(rep.caps)
        record["generator"] = params
    else:  # falconer
        record = asdict(_call(incidence.falconer_measure_ratio, args))
    _emit(record, args)
    return 0


def _cmd_energy(args) -> int:
    if args.decompose:
        if args.generator not in (None, "valtr"):
            raise ParameterError(f"--decompose splits the valtr set only, not --generator {args.generator}")
        rep = _call(energy.energy_decomposition, args)
        gen_name, params = "valtr", _params_string(pointsets.gen_valtr, args)
    elif args.cube_constant:
        value = _call(energy.cube_self_energy, args)
        _emit({"generator": "cube", "params": f"d={args.d}", "s": args.s, "value": value, "seed": args.seed}, args)
        return 0
    else:
        pset, params = _build_pointset(args)
        rep = energy.adaptability_sum(pset, args.s, threads=args.threads)
        gen_name = pset.label
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
    _emit(record, args)
    return 0


_MAX_RADII = 100_000  # radii in one gauss range


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
            if len(out) == _MAX_RADII:
                raise ParameterError(f"radius range {spec!r} holds more than {_MAX_RADII} radii")
            if r + step == r:
                raise ParameterError(f"radius range {spec!r}: the step {step!r} does not advance r = {r!r}")
            out.append(round(r, 12))
            r += step
        return out
    return [float(spec)]


def _cmd_gauss(args) -> int:
    _require_table_format(args)
    if args.N is not None:
        _emit(asdict(_call(latticecount.lattice_incidence_total, args)), args)
        return 0
    if args.R is None:
        raise ParameterError("gauss needs --R or --N")
    radii = _parse_radius_range(args.R)
    if args.w is not None:
        _emit([{"dim": args.dim, "R": r, "w": args.w, "count": latticecount.shell_count(args.dim, r, args.w)}
               for r in radii], args)
        return 0
    reports = [latticecount.ball_count(args.dim, r) for r in radii]
    records = [{"dim": rep.dim, "radius": rep.radius, "count": rep.count, "volume_term": rep.volume_term,
                "discrepancy": rep.discrepancy} for rep in reports]
    _emit(records, args, header=["dim", "R", "count", "volume", "discrepancy"])
    return 0


def _cmd_ffield(args) -> int:
    record: dict = {"q": args.q, "d": args.d, "set": args.set}
    if args.set == "sphere":
        gamma = ffield.ff_sphere(args.q, args.d, args.t)
        record["t"] = args.t
    elif args.set == "paraboloid":
        gamma = ffield.ff_paraboloid(args.q, args.d)
    else:  # sharpness
        gamma = ffield.sharpness_set(args.q, args.delta, args.d)
        record["delta"] = args.delta
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
    _emit(record, args)
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


# The point-set generators, each pointsets.gen_<name>; gen also emits the
# cantor axis. Listed here so that building the parser loads no layer.
GENERATORS = ("valtr", "lenz", "lattice", "mattila2", "mattila3")


def _add_generator_flags(sub: argparse.ArgumentParser, generators: tuple[str, ...] = GENERATORS) -> None:
    sub.add_argument("--generator", required=False, default=None, choices=generators)
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
    _add_generator_flags(p, GENERATORS + ("cantor",))
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
