"""The benchmark's workloads: the operations of one pass and the exact check
of each operation's output.

An operation is what a user asks for in one go: a ``scan`` (run the
experiment, then emit its JSON), one count, one sweep, or one CLI
invocation. ``Op.run`` returns the output; ``Op.check`` returns a list of
mismatches against the exact references in ``exact.py``, empty when the
output is correct. Scan verdicts are reported, not checked.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Callable

from incidence_lab import ffield, harness, incidence, latticecount, pointsets
from incidence_lab.gauge import EUCLIDEAN, Gauge

import exact

ROOT = Path(__file__).resolve().parent.parent
CLI_SHIM = Path(__file__).resolve().parent / "cli_traced.py"


@dataclass
class Op:
    name: str
    run: Callable  # run(tracer) -> output; tracer is None on untraced passes
    check: Callable  # check(output) -> list of mismatch descriptions


def _mismatch(what, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, exact {want!r}"]


def _rel_mismatch(what, got, want, tol=1e-9) -> list[str]:
    return [] if abs(got - want) <= tol * abs(want) else [f"{what}: got {got!r}, reference {want!r}"]


def _scan(experiment: str, **kwargs) -> Callable:
    """A ``scan`` as the CLI runs it: the experiment, then its JSON text."""

    def run(tracer):
        series = harness.run_experiment(experiment, **kwargs)
        harness.emit(series, "json")
        return series

    return run


# ---------------------------------------------------------------- references


@lru_cache(maxsize=None)
def _mattila_set(dim: int, param: float, level: int):
    return pointsets.gen_mattila2(param, level) if dim == 2 else pointsets.gen_mattila3(param, level)


@lru_cache(maxsize=None)
def _mattila_band(dim: int, param: float, level: int) -> int:
    """Exact count of the Mattila series at one level: radius 1, thickness
    N^(-1/s) as the harness defines it."""
    pset = _mattila_set(dim, param, level)
    s = 1.0 + param if dim == 2 else 2.0 - 1.5 * param
    eps = pset.n_points ** (-1.0 / s)
    axes = exact.product_axes(pset.numerators, dim)
    return exact.euclidean_band_product(axes, list(pset.denominators), 1.0, eps)


def _lattice_total(dim: int, n_points: int, s: float) -> int:
    """N * a for the scaled lattice, with the shell radius and width that
    lattice_incidence_total defines and an independent shell count."""
    if dim == 2:
        k = math.isqrt(n_points)
        radius, width = Fraction(k, 10), Fraction(float(k * n_points ** (-1.0 / s)))
    else:
        radius = Fraction(float((n_points / 10.0) ** (1.0 / 3.0)))
        width = Fraction(float(n_points ** (1.0 / 3.0 - 1.0 / s)))
    return n_points * exact.lattice_shell(dim, radius, width)


@lru_cache(maxsize=None)
def _valtr_band(n: int, d: int, eps: float) -> int:
    axes, dens = exact.valtr_axes(n, d)
    return exact.paraboloid_band_product(axes, dens, 1.0, eps)


def _falconer_ratio(n: int, d: int, s: float) -> float:
    big_n = n ** (d + 1)
    eps = float(big_n) ** (-1.0 / s)
    return _valtr_band(n, d, eps) / (big_n * big_n) / eps


@lru_cache(maxsize=None)
def _valtr_lambda(n: int, d: int, s: float) -> float:
    return exact.riesz_sum_valtr(n, d, s) / float(n ** (d + 1)) ** 2


@lru_cache(maxsize=None)
def _lenz_lambda(big_n: int, s: float) -> float:
    pset = pointsets.gen_lenz(big_n)
    return exact.riesz_sum_points(pset.numerators, pset.denominators[0], s) / float(big_n) ** 2


@lru_cache(maxsize=None)
def _ball(dim: int, radius: int) -> int:
    return exact.lattice_count_le(Fraction(radius * radius), dim)


def _sharpness_box(q: int, delta: float) -> tuple[int, int]:
    """Side lengths of the d=2 sharpness box, as sharpness_set defines it."""
    return math.floor(q ** (0.5 - delta)), math.floor(q ** (1.0 - 2.0 * delta))


def _param(series, key):
    return json.loads(dict(series.params)[key])


# ---------------------------------------------------------------- checks


def _check_mattila(dim: int, param: float, levels: list[int]):
    def check(series):
        errs = []
        for level, (n_pts, value) in zip(levels, series.points):
            errs += _mismatch(f"level {level} N", n_pts, _mattila_set(dim, param, level).n_points)
            errs += _mismatch(f"level {level} count", int(value), _mattila_band(dim, param, level))
        # the crossover recounts the top rung against the nearest lattice
        s = 1.0 + param if dim == 2 else 2.0 - 1.5 * param
        n_pts = _mattila_set(dim, param, levels[-1]).n_points
        lattice_n = round(n_pts ** (1.0 / dim)) ** dim
        wins = _mattila_band(dim, param, levels[-1]) > _lattice_total(dim, lattice_n, s)
        errs += _mismatch("crossover mattila_wins", _param(series, "crossover_mattila_wins"), wins)
        return errs

    return check


def _check_falconer(d: int, s: float, ladder: list[int]):
    def check(series):
        errs = []
        for n, (n_pts, value) in zip(ladder, series.points):
            errs += _mismatch(f"n={n} N", n_pts, n ** (d + 1))
            errs += _mismatch(f"n={n} ratio", value, _falconer_ratio(n, d, s))
        return errs

    return check


def _check_sharpness(delta: float, ladder: list[int]):
    def check(series):
        errs = []
        for q, (q_out, value) in zip(ladder, series.points):
            a_max, b_max = _sharpness_box(q, delta)
            size = (a_max + 1) * (b_max + 1)
            want = exact.sharpness_pairs(q, a_max, b_max) * q / size**2
            errs += _mismatch(f"q={q} ratio", (q_out, value), (q, want))
        return errs

    return check


def _check_valtr_energy(d: int, s: float, ladder: list[int]):
    def check(series):
        errs = []
        for n, (n_pts, value) in zip(ladder, series.points):
            errs += _mismatch(f"n={n} N", n_pts, n ** (d + 1))
            errs += _rel_mismatch(f"n={n} lambda_s", value, _valtr_lambda(n, d, s))
        return errs

    return check


def _check_valtr_incidence(d: int, ladder: list[int]):
    def check(series):
        errs = []
        for n, (n_pts, value) in zip(ladder, series.points):
            errs += _mismatch(f"n={n} N", n_pts, n ** (d + 1))
            errs += _mismatch(f"n={n} count", int(value), _valtr_band(n, d, 0.0))
        return errs

    return check


def _check_lattice_incidence(dim: int, s: float, ladder: list[int]):
    def check(series):
        errs = []
        for k, (n_pts, value) in zip(ladder, series.points):
            errs += _mismatch(f"k={k} N", n_pts, k**dim)
            errs += _mismatch(f"k={k} incidences", int(value), _lattice_total(dim, k**dim, s))
        return errs

    return check


def _ball_volume(dim: int, r: float) -> float:
    return math.pi * r * r if dim == 2 else 4.0 / 3.0 * math.pi * r**3


def _check_gauss(dim: int, ladder: list[int]):
    def check(series):
        errs = []
        for radius, (r_out, value) in zip(ladder, series.points):
            want = abs(_ball(dim, radius) - _ball_volume(dim, float(radius)))
            errs += _mismatch(f"R={radius} |discrepancy|", (r_out, value), (radius, want))
        return errs

    return check


def _check_counts(what: str, want: Callable[[], int]):
    def check(report):
        return _mismatch(what, report.count, want())

    return check


def _check_sweep(radii):
    def check(reports):
        errs = []
        for (dim, radius), rep in zip(radii, reports):
            errs += _mismatch(f"dim {dim} R={radius}", rep.count, _ball(dim, radius))
        return errs

    return check


def _check_lenz_energy(s: float, ladder: list[int]):
    def check(series):
        errs = []
        for big_n, (n_out, value) in zip(ladder, series.points):
            errs += _mismatch(f"N={big_n}", n_out, big_n)
            errs += _rel_mismatch(f"N={big_n} lambda_s", value, _lenz_lambda(big_n, s))
        return errs

    return check


# ---------------------------------------------------------------- workloads


def product_band(rng) -> list[Op]:
    m_levels = [1, 2, 3, 4]
    sharp_q = [101, 211, 401, 809, 1601]

    def grid_count(tracer):
        pset = pointsets.gen_mattila2(0.48, 4)
        eps = pset.n_points ** (-1.0 / (1.0 + 0.48))
        return incidence.annulus_incidences(pset, Gauge(EUCLIDEAN, 2), 1.0, eps, method="grid")

    def fourier_count(tracer):
        box = ffield.sharpness_set(809, 0.1, 2)
        return ffield.ff_pair_count(box, ffield.ff_paraboloid(809, 2), method="fourier")

    def check_fourier(value):
        want = exact.sharpness_pairs(809, *_sharpness_box(809, 0.1))
        return [] if abs(value - want) < 0.5 else [f"fourier pair count: got {value!r}, exact {want}"]

    return [
        Op("scan mattila2-incidence", _scan("mattila2-incidence", alpha=0.48, ladder=m_levels),
           _check_mattila(2, 0.48, m_levels)),
        Op("scan ff-sharpness", _scan("ff-sharpness", delta=0.1, d=2, ladder=sharp_q),
           _check_sharpness(0.1, sharp_q)),
        Op("grid annulus mattila2 level 4", grid_count,
           _check_counts("grid count", lambda: _mattila_band(2, 0.48, 4))),
        Op("fourier pair count q=809", fourier_count, check_fourier),
    ]


# Criterion 5 sweeps every integer radius in 10..10^4 (dim 2) and 5..500
# (dim 3). A strided subset keeps pointsets the largest layer of this pass,
# so that a change to point-set storage shows in wall_s here.
SWEEP = [(2, r) for r in range(10, 10**4 + 1, 50)] + [(3, r) for r in range(5, 201, 10)]


def grid_ladder(rng) -> list[Op]:
    ve2, ve3 = [8, 16, 32, 64], [4, 8, 16]
    vi2, vi3 = [8, 16, 32, 64], [4, 8, 16]
    falc_n = [16, 32, 64, 128]
    li2, li3 = [20, 40, 80, 160], [7, 10, 13, 16]
    gd2 = [64, 128, 256, 512, 1024, 2048, 4096, 8192]
    gd3 = [16, 32, 64, 128, 256, 512]

    def sweep(tracer):
        return [latticecount.ball_count(dim, radius) for dim, radius in SWEEP]

    return [
        Op("scan valtr-energy d=2", _scan("valtr-energy", d=2, s=1.2, ladder=ve2), _check_valtr_energy(2, 1.2, ve2)),
        Op("scan valtr-energy d=3", _scan("valtr-energy", d=3, s=1.2, ladder=ve3), _check_valtr_energy(3, 1.2, ve3)),
        Op("scan valtr-incidence d=2", _scan("valtr-incidence", d=2, ladder=vi2), _check_valtr_incidence(2, vi2)),
        Op("scan valtr-incidence d=3", _scan("valtr-incidence", d=3, ladder=vi3), _check_valtr_incidence(3, vi3)),
        Op("scan falconer-ratio dyadic", _scan("falconer-ratio", d=2, s=1.4, ladder=falc_n),
           _check_falconer(2, 1.4, falc_n)),
        Op("scan lattice-incidence dim=2", _scan("lattice-incidence", dim=2, s=1.48, ladder=li2),
           _check_lattice_incidence(2, 1.48, li2)),
        # dim 3 needs s > 3/2, so the default s=1.48 raises ParameterError;
        # s=1.9 is the value acceptance criterion 8 uses for dim 3.
        Op("scan lattice-incidence dim=3", _scan("lattice-incidence", dim=3, s=1.9, ladder=li3),
           _check_lattice_incidence(3, 1.9, li3)),
        Op("scan gauss-discrepancy dim=2", _scan("gauss-discrepancy", dim=2, ladder=gd2), _check_gauss(2, gd2)),
        Op("scan gauss-discrepancy dim=3", _scan("gauss-discrepancy", dim=3, ladder=gd3), _check_gauss(3, gd3)),
        Op("ball_count sweep", sweep, _check_sweep(SWEEP)),
    ]


def nonproduct_pairs(rng) -> list[Op]:
    ladder = [1024, 2048, 4096, 8192]

    def band(tracer):
        return incidence.annulus_incidences(pointsets.gen_lenz(4096), Gauge(EUCLIDEAN, 4), 1.0, 0.05, threads=2)

    def band_exact():
        pset = pointsets.gen_lenz(4096)
        return exact.euclidean_band_points(pset.numerators, pset.denominators[0], 1.0, 0.05)

    return [
        Op("scan lenz-energy", _scan("lenz-energy", s=1.5, ladder=ladder, threads=2), _check_lenz_energy(1.5, ladder)),
        Op("brute band lenz N=4096", band, _check_counts("band count", band_exact)),
    ]


# ---------------------------------------------------------------- cli


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _cantor_centers(ratio: Fraction, levels: int) -> list[Fraction]:
    lefts, length = [Fraction(0)], Fraction(1)
    for _ in range(levels):
        lefts = [x for left in lefts for x in (left, left + length * (1 - ratio))]
        length *= ratio
    return [left + length / 2 for left in lefts]


def _check_gen_valtr(out: bytes) -> list[str]:
    rows = ["x1,x2"] + [f"{i}/3,{j}/9" for i in range(3) for j in range(1, 10)]
    return _mismatch("gen valtr n=3 d=2 csv", out.decode(), "\n".join(rows) + "\n")


def _check_gen_mattila3(out: bytes) -> list[str]:
    obj = json.loads(out)
    dens = obj["denominators"]
    # delta = 1/2: alpha = 1/2 gives ratio 2^-2, beta = 1/4 gives ratio 2^-4
    a = sorted(int(c * dens[0]) for c in _cantor_centers(Fraction(1, 4), 2))
    b = sorted(int(c * dens[2]) for c in _cantor_centers(Fraction(1, 16), 2))
    want = sorted([x, y, z] for x in a for y in a for z in b)
    return _mismatch("gen mattila3 n_points", obj["n_points"], 64) + _mismatch(
        "gen mattila3 points", sorted(obj["points"]), want
    )


def _check_gauge(out: bytes) -> list[str]:
    value = json.loads(out)["value"]
    r2, a = 0.25**2 + 0.5**2, 0.5  # point (0.25, 0.5, 0.5): tau^2 - a tau - r^2 = 0
    residual = value * value - a * value - r2
    return [] if abs(residual) <= 1e-12 else [f"gauge value {value!r} leaves residual {residual!r}"]


def _check_annulus(out: bytes) -> list[str]:
    rows = list(product(range(12), repeat=2))
    return _mismatch("annulus count", json.loads(out)["count"], exact.euclidean_band_points(rows, 12, 0.5, 0.05))


def _check_energy(out: bytes) -> list[str]:
    header, row = out.decode().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    return _mismatch("energy N", int(rec["N"]), 27) + _rel_mismatch(
        "energy cross_term", float(rec["cross_term"]), _valtr_lambda(3, 2, 1.4)
    )


def _check_gauss_cli(out: bytes) -> list[str]:
    got = [int(line.split(",")[2]) for line in out.decode().splitlines()[1:]]
    return _mismatch("gauss counts", got, [_ball(2, r) for r in (10, 20, 30)])


def _check_ffield(out: bytes) -> list[str]:
    want = sum(1 for x in range(11) for y in range(11) if (x * x + y * y) % 11 == 3)
    return _mismatch("sphere size", json.loads(out)["size"], want)


def _check_scan_cli(out: bytes) -> list[str]:
    obj = json.loads(out)
    got = [tuple(p) for p in obj["points"]]
    return _mismatch("scan points", got, [(n**3, _falconer_ratio(n, 2, 1.4)) for n in (4, 8, 16)])


# The annulus command of criterion 9 prints a wrong count, so it is one of
# the KNOWN_DEFECTS below rather than a timed command.
ANNULUS_ARGV = ["incidence", "--mode", "annulus", "--generator", "lattice", "--k", "12", "--d", "2",
                "--t", "0.5", "--eps", "0.05", "--method", "grid"]


def cli(rng) -> list[Op]:
    """Seven of the eight commands of acceptance criterion 9, each a fresh
    process. Their --seed values come from the workload seed."""
    seeds = [rng.randrange(1, 10**6) for _ in range(7)]
    commands = [
        (["gen", "--generator", "valtr", "--n", "3", "--d", "2"], _check_gen_valtr),
        (["gen", "--generator", "mattila3", "--delta", "0.5", "--levels", "2", "--format", "json"],
         _check_gen_mattila3),
        (["gauge", "--kind", "paraboloid_body", "--point", "0.25,0.5,0.5"], _check_gauge),
        (["energy", "--generator", "valtr", "--n", "3", "--d", "2", "--s", "1.4",
          "--decompose", "--samples", "20000", "--threads", "2"], _check_energy),
        (["gauss", "--dim", "2", "--R", "10:30:10"], _check_gauss_cli),
        (["ffield", "--q", "11", "--d", "2", "--set", "sphere", "--t", "3", "--spectrum"], _check_ffield),
        (["scan", "--experiment", "falconer-ratio", "--d", "2", "--s", "1.4", "--ladder", "4,8,16"],
         _check_scan_cli),
    ]
    env = cli_env()
    span_dir = ROOT / ".perfbench" / "cli-spans"
    ops = []
    for (argv, check_stdout), seed in zip(commands, seeds):
        argv = argv + ["--seed", str(seed)]
        is_scan = argv[0] == "scan"
        first: list = []  # (stdout, mismatches) of the first invocation

        def run(tracer, argv=argv):
            if tracer is None:
                proc = subprocess.run([sys.executable, "-m", "incidence_lab.cli", *argv],
                                      capture_output=True, env=env, timeout=120)
                return proc.returncode, proc.stdout
            span_dir.mkdir(parents=True, exist_ok=True)
            span_file = span_dir / f"{len(tracer.spans)}.json"
            start = tracer.now()
            proc = subprocess.run([sys.executable, str(CLI_SHIM), str(span_file), *argv],
                                  capture_output=True, env=env, timeout=120)
            tracer.adopt("cli.process", start, tracer.now(), span_file)
            return proc.returncode, proc.stdout

        def check(output, check_stdout=check_stdout, is_scan=is_scan, first=first, argv=argv):
            code, out = output
            allowed = (0, 2) if is_scan else (0,)
            if code not in allowed:
                return [f"exit code {code}"]
            if is_scan and code != (0 if json.loads(out)["verdict"] == "pass" else 2):
                return [f"exit code {code} does not match the verdict"]
            if not first:
                first.append((out, check_stdout(out)))
            if out != first[0][0]:
                return ["stdout differs from the first invocation"]
            return list(first[0][1])

        ops.append(Op("cli " + " ".join(argv[:3]), run, check))
    return ops


def _run_cli(argv):
    def run(tracer):
        proc = subprocess.run([sys.executable, "-m", "incidence_lab.cli", *argv],
                              capture_output=True, env=cli_env(), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}")
        return proc.stdout

    return run


def known_defects() -> list[Op]:
    """Operations on which the program is known to be wrong. They stay out
    of the timed workloads, whose operations must all succeed; every run
    repeats them once, untimed, and reports whether each defect still
    reproduces. A defect no longer reproduces once its operation returns
    without raising and passes its exact check."""
    m_levels, falc_n = [1, 2, 3], [4, 5, 6]
    return [
        # float rounding puts 32 pairs at squared distance 1 - 1.7e-18 in the band
        Op("scan mattila3-incidence delta=1/15", _scan("mattila3-incidence", delta=1.0 / 15.0, ladder=m_levels),
           _check_mattila(3, 1.0 / 15.0, m_levels)),
        # the brute float path drops exact boundary pairs of the non-dyadic Valtr grid
        Op("scan falconer-ratio non-dyadic", _scan("falconer-ratio", d=2, s=1.4, ladder=falc_n),
           _check_falconer(2, 1.4, falc_n)),
        # pairs at distance exactly 0.5 on the 1/12 grid fall out of the band
        Op("cli " + " ".join(ANNULUS_ARGV), _run_cli(ANNULUS_ARGV), _check_annulus),
        # raises ParameterError: dim 3 needs s > 3/2, and the default s is 1.48
        Op("scan lattice-incidence dim=3 default s", _scan("lattice-incidence", dim=3, ladder=[7, 10, 13]),
           _check_lattice_incidence(3, 1.48, [7, 10, 13])),
    ]


WORKLOADS = {
    "product-band": product_band,
    "grid-ladder": grid_ladder,
    "nonproduct-pairs": nonproduct_pairs,
    "cli": cli,
}
