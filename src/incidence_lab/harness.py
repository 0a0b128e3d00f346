"""Scaling experiments: run a counter over a size ladder, fit the log-log
exponent, and compare it against the predicted one.

Each name in ``EXPERIMENTS`` runs as ``_run_<name>(ladder, **params)``, ``-``
read as ``_``. Its signature alone declares the experiment's parameters and
their defaults; ``run_experiment`` refuses any parameter it does not name.

Every experiment is deterministic given its parameters; the seed and thread
count are recorded in the output so runs can be reproduced byte for byte.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

from . import EXPERIMENTS, energy, ffield, gauge, incidence, latticecount, pointsets
from .errors import InputError, ParameterError

DEFAULT_TOLERANCE = 0.12

TWO_SIDED = "two_sided"
UPPER_BOUND = "upper_bound"


@dataclass(frozen=True)
class ScalingSeries:
    """A fitted (size, value) ladder with the predicted exponent and verdict."""

    experiment: str
    points: tuple[tuple[int, float], ...]
    fitted_slope: float
    slope_stderr: float
    predicted: float
    tolerance: float
    comparison: str
    verdict: str
    params: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if len(self.points) < 3:
            raise InputError("a scaling series needs at least 3 ladder points")
        if any(v <= 0 for _, v in self.points):
            raise InputError("scaling series values must be positive")


def fit_exponent(series) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(N), with its standard
    error (0 for an exact power law)."""
    pts = [(int(n), float(v)) for n, v in series]
    if len(pts) < 3:
        raise InputError("need at least 3 points to fit an exponent")
    ns = [n for n, _ in pts]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InputError("ladder sizes must be strictly increasing")
    if any(v <= 0 for _, v in pts):
        raise InputError("values must be positive for a log-log fit")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    xc = x - x.mean()
    sxx = float((xc * xc).sum())
    slope = float((xc * y).sum() / sxx)
    resid = y - (y.mean() + slope * xc)
    dof = len(pts) - 2
    stderr = math.sqrt(float((resid * resid).sum()) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


@dataclass(frozen=True)
class CrossoverReport:
    """Annulus incidences of a Mattila-type set versus the lattice incidence
    total at the nearest lattice size, at one common scale."""

    dim: int
    s: float
    mattila_points: int
    mattila_count: int
    lattice_points: int
    lattice_count: int
    mattila_wins: bool
    predicted_mattila_wins: bool
    inside_validity_window: bool


def _mattila_count(dim: int, param: float, level: int) -> tuple[pointsets.PointSet, int]:
    """The Mattila-type set at ``level`` and its annulus incidences (radius
    1, thickness N^(-1/s) for its target dimension s), counted exactly by
    difference classes."""
    pset = pointsets.gen_mattila2(param, level) if dim == 2 else pointsets.gen_mattila3(param, level)
    eps = pset.n_points ** (-1.0 / pset.s_dim)
    rep = incidence.annulus_incidences(pset, gauge.Gauge(gauge.EUCLIDEAN, dim), 1.0, eps, method="classes")
    return pset, rep.count


def _crossover_report(pset: pointsets.PointSet, count: int) -> CrossoverReport:
    dim, s, n_pts = pset.dim, pset.s_dim, pset.n_points
    lattice_n = round(n_pts ** (1.0 / dim)) ** dim
    lat = latticecount.lattice_incidence_total(dim, lattice_n, s)
    return CrossoverReport(
        dim=dim,
        s=s,
        mattila_points=n_pts,
        mattila_count=count,
        lattice_points=lattice_n,
        lattice_count=lat.incidences,
        mattila_wins=count > lat.incidences,
        predicted_mattila_wins=s < (dim + 1) / 2,
        inside_validity_window=lat.valid,
    )


def mattila_lattice_crossover(
    dim: int,
    level: int,
    alpha: float | None = None,
    delta: float | None = None,
) -> CrossoverReport:
    """Compare measured annulus incidences (radius 1, thickness N^(-1/s))
    of the Mattila-type set at ``level`` against the lattice total N * a at
    the nearest perfect-power size."""
    if dim not in (2, 3):
        raise ParameterError(f"dim must be 2 or 3, got {dim!r}")
    name, param = ("alpha", alpha) if dim == 2 else ("delta", delta)
    if param is None:
        raise ParameterError(f"dim {dim} crossover needs {name}")
    return _crossover_report(*_mattila_count(dim, param, level))


def _default_ladder(ladder, defaults: dict, key: str, value: int):
    """The given ladder, else the default of this dimension, which must exist."""
    if ladder is None and value not in defaults:
        raise ParameterError(f"no default ladder for {key}={value}; pass a ladder or use {key} in {set(defaults)}")
    return defaults[value] if ladder is None else ladder


def _run_valtr_incidence(ladder, d=2):
    ladder = _default_ladder(ladder, {2: [8, 16, 32, 64], 3: [4, 8, 16], 4: [3, 4, 6, 8]}, "d", d)
    pts = [(n ** (d + 1), float(incidence.exact_valtr_incidences(n, d).count)) for n in ladder]
    return pts, 2.0 - 2.0 / (d + 1), TWO_SIDED, {"d": d, "ladder_n": ladder}


def _run_falconer_ratio(ladder, d=2, s=None):
    # below n = 64 at d = 2 the decaying near-miss share masks the growth;
    # at d = 4, 5, 6 the ladders start above n = 13, 23, 41
    ladders = {2: [64, 128, 256, 512], 3: [4, 8, 16], 4: [16, 32, 64, 128], 5: [24, 32, 48, 64], 6: [42, 48, 56, 64]}
    ladder = _default_ladder(ladder, ladders, "d", d)
    # s must lie in [d/2, (d+1)/2)
    s = {2: 1.4, 3: 1.6}.get(d, (d + 1) / 2 - 0.3) if s is None else s
    recs = [incidence.falconer_measure_ratio(n, d, s) for n in ladder]
    pts = [(rec.n_points, rec.ratio) for rec in recs]
    return pts, 1.0 / s - 2.0 / (d + 1), TWO_SIDED, {"d": d, "s": s, "ladder_n": ladder}


def _run_lenz_energy(ladder, s=1.5, threads=1):
    ladder = ladder or [64, 128, 256, 512, 1024, 2048]
    pts = [(N, energy.adaptability_sum(pointsets.gen_lenz(N), s, threads=threads).lambda_s) for N in ladder]
    return pts, s - 1.0, TWO_SIDED, {"s": s, "ladder_N": ladder}


def _run_valtr_energy(ladder, d=2, s=1.2):
    ladder = ladder or [4, 8, 16, 32]
    pts = [(n ** (d + 1), energy.adaptability_sum(pointsets.gen_valtr(n, d), s).lambda_s) for n in ladder]
    return pts, 0.0, TWO_SIDED, {"d": d, "s": s, "ladder_n": ladder}


def _mattila_series(dim, name, param, ladder):
    """The Mattila-type set's (size, count) ladder and its scan params."""
    ladder = ladder or [1, 2, 3, 4]
    pts = []
    for level in ladder:
        pset, count = _mattila_count(dim, param, level)
        pts.append((pset.n_points, float(count)))
    # the crossover is taken at the top rung, whose count is already known;
    # it is absent (null) for s <= dim/2, where no lattice total exists
    cross = _crossover_report(pset, count) if pset.s_dim > pset.dim / 2 else None
    extra = {
        name: param,
        "s": pset.s_dim,
        "ladder_levels": ladder,
        "crossover_mattila_wins": cross.mattila_wins if cross else None,
        "crossover_predicted": cross.predicted_mattila_wins if cross else None,
        "crossover_valid_window": cross.inside_validity_window if cross else None,
    }
    return pts, extra


def _run_mattila2_incidence(ladder, alpha=0.48):
    pts, extra = _mattila_series(2, "alpha", alpha, ladder)
    return pts, 1.0 + 1.0 / (2.0 * extra["s"]), TWO_SIDED, extra


def _run_mattila3_incidence(ladder, delta=1.0 / 15.0):
    pts, extra = _mattila_series(3, "delta", delta, ladder)
    alpha = 1.0 - delta
    return pts, 1.0 + alpha / (2.0 * alpha + delta / 2.0), TWO_SIDED, extra


def _run_lattice_incidence(ladder, dim=2, s=None):
    ladder = _default_ladder(ladder, {2: [20, 40, 80, 160], 3: [7, 10, 13, 16]}, "dim", dim)
    # dim 3 needs s > 3/2; 1.9 = 2 - 3/2 * (1/15) is the mattila3 default
    s = (1.9 if dim == 3 else 1.48) if s is None else s
    recs = [latticecount.lattice_incidence_total(dim, k**dim, s) for k in ladder]
    pts = [(rec.n_points, float(rec.incidences)) for rec in recs]
    return pts, 2.0 - 1.0 / s, TWO_SIDED, {"dim": dim, "s": s, "ladder_k": ladder, "valid": recs[-1].valid}


def _run_gauss_discrepancy(ladder, dim=2):
    ladders = {2: [64, 128, 256, 512, 1024, 2048, 4096, 8192], 3: [16, 32, 64, 128, 256, 512]}
    ladder = _default_ladder(ladder, ladders, "dim", dim)
    pts = [(R, abs(latticecount.ball_count(dim, R).discrepancy)) for R in ladder]
    predicted = 131.0 / 208.0 if dim == 2 else 21.0 / 16.0
    return pts, predicted, UPPER_BOUND, {"dim": dim, "ladder_R": ladder}


def _run_ff_sharpness(ladder, delta=0.1, d=2):
    """The sharpness ratio over a prime ladder of q.

    At d = 4, 5, 6 the box side (d-1) q^(1-2 delta) fits below q only for
    q > (d-1)^(1/(2 delta)) = 243, 1024, 3125 at delta = 0.1, so the default
    ladders start just above that bound and climb by octaves of primes.
    Near the bound the last side covers almost all of F_q and the ratio is
    1; as that share, (d-1) q^(-2 delta), falls, the local slope per octave
    rises toward 2 delta = 0.2 (d = 4: 0.03, 0.11, 0.19, 0.22; d = 5: 0.01,
    0.13, 0.19, 0.20; d = 6: 0.01, 0.14, 0.19). The ladders are chosen by
    these local slopes: each covers the rise from the bound and ends on an
    octave within 0.025 of 2 delta (d = 6 after three octaves, where a rung
    takes 0.35 s). So the fitted slope over a whole ladder (0.141, 0.139,
    0.114) lies below 2 delta, inside the scan tolerance.
    """
    ladders = {2: [101, 211, 401, 809], 3: [101, 211, 401, 809], 4: [257, 521, 1031, 2053, 4099],
               5: [1031, 2053, 4099, 8209, 16411], 6: [3209, 6421, 12841, 25693]}
    ladder = _default_ladder(ladder, ladders, "d", d)
    pts = [(q, ffield.sharpness_ratio(q, delta, d)) for q in ladder]
    return pts, 2.0 * delta, TWO_SIDED, {"delta": delta, "d": d, "ladder_q": ladder}


def run_experiment(
    experiment: str,
    *,
    ladder=None,
    tolerance: float | None = None,
    seed: int = 0,
    threads: int = 1,
    **params,
) -> ScalingSeries:
    """Run a registered experiment over its ladder and return the fitted
    series with a pass/fail verdict at the given tolerance. ``params`` go
    to the experiment's runner; a ``None`` value counts as absent."""
    ladder = list(ladder) if ladder is not None else None
    if ladder is not None and len(ladder) < 3:
        raise ParameterError("ladder needs at least 3 rungs")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    tol = DEFAULT_TOLERANCE if tolerance is None else float(tolerance)
    if not 0.0 <= tol < math.inf:
        raise ParameterError(f"tolerance must be finite and nonnegative, got {tol!r}")
    if experiment not in EXPERIMENTS:
        raise ParameterError(f"unknown experiment {experiment!r}; known: {', '.join(EXPERIMENTS)}")
    runner = globals()["_run_" + experiment.replace("-", "_")]
    takes = inspect.signature(runner).parameters
    params = {name: value for name, value in params.items() if value is not None}
    foreign = [name for name in params if name not in takes]
    if foreign:
        own = ", ".join(name for name in takes if name not in ("ladder", "threads"))
        raise ParameterError(f"{experiment} does not take {', '.join(foreign)}; it takes {own}")
    if "threads" in takes:
        params["threads"] = threads
    points, predicted, comparison, extra = runner(ladder, **params)
    slope, stderr = fit_exponent(points)
    if comparison == TWO_SIDED:
        ok = abs(slope - predicted) <= tol
    else:
        ok = slope <= predicted + tol
    params = dict(extra, seed=seed, threads=threads)
    return ScalingSeries(
        experiment=experiment,
        points=tuple((int(n), float(v)) for n, v in points),
        fitted_slope=slope,
        slope_stderr=stderr,
        predicted=predicted,
        tolerance=tol,
        comparison=comparison,
        verdict="pass" if ok else "fail",
        params=tuple((k, json.dumps(v)) for k, v in params.items()),
    )


def emit(series: ScalingSeries, fmt: str) -> str:
    """Render a series as csv, json or gnuplot text with a stable schema."""
    if fmt == "csv":
        lines = ["N,value"]
        lines += [f"{n},{v!r}" for n, v in series.points]
        lines.append(
            f"# slope={series.fitted_slope!r} stderr={series.slope_stderr!r} "
            f"predicted={series.predicted!r} tolerance={series.tolerance!r} "
            f"comparison={series.comparison} verdict={series.verdict}"
        )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = {
            "experiment": series.experiment,
            "points": [[n, v] for n, v in series.points],
            "fitted_slope": series.fitted_slope,
            "slope_stderr": series.slope_stderr,
            "predicted": series.predicted,
            "tolerance": series.tolerance,
            "comparison": series.comparison,
            "verdict": series.verdict,
            "params": {k: v for k, v in series.params},
        }
        return json.dumps(obj, indent=2) + "\n"
    if fmt == "gnuplot":
        lines = [
            f"# experiment: {series.experiment}",
            f"# slope={series.fitted_slope!r} stderr={series.slope_stderr!r} "
            f"predicted={series.predicted!r} tolerance={series.tolerance!r} "
            f"comparison={series.comparison} verdict={series.verdict}",
        ]
        lines += [f"{n} {v!r}" for n, v in series.points]
        return "\n".join(lines) + "\n"
    raise ParameterError(f"unknown format {fmt!r}")


def parse_series(text: str) -> ScalingSeries:
    """Inverse of emit(..., 'json')."""
    obj = json.loads(text)
    return ScalingSeries(
        experiment=obj["experiment"],
        points=tuple((int(n), float(v)) for n, v in obj["points"]),
        fitted_slope=float(obj["fitted_slope"]),
        slope_stderr=float(obj["slope_stderr"]),
        predicted=float(obj["predicted"]),
        tolerance=float(obj["tolerance"]),
        comparison=obj["comparison"],
        verdict=obj["verdict"],
        params=tuple((k, v) for k, v in obj["params"].items()),
    )
