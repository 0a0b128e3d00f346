"""Discrete Riesz energies and the self/cross decomposition of the thickened
cube measure.

Distances are Euclidean throughout; the paraboloid gauge only enters the
incidence counters. A set built from ``axes`` is summed over its difference
classes, any other set over all pairs in 2048-row chunks, each worker holding
one 2048 x N r^2 chunk plus one row tile of it and its difference buffer;
float64 chunk totals are added exactly, so results are bit-identical for any
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DivergenceError, InputError, ParameterError
from .incidence import _MAX_PRODUCT_CLASSES, _axis_gaps, _even_step, _map_row_chunks, _pair_r2
from .pointsets import PointSet, _column_floats, gen_valtr

_CLASS_BLOCK = 1 << 20  # difference classes per NumPy block
_MAX_ENERGY_CLASSES = 1 << 28  # difference classes one energy may sum in all


@dataclass(frozen=True)
class EnergyReport:
    """Normalized Riesz sum lambda_s = N^-2 sum_{p != q} |p - q|^-s, with the
    self/cross split when it was computed."""

    s: float
    lambda_s: float
    n_points: int
    self_term: float | None = None
    cross_term: float | None = None


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    samples: int
    seed: int


def _grouped_pair_sum(axes, denominators, s: float) -> float:
    """sum_{p != q} |p - q|^-s over the product of these axes, one term per class of
    per-axis |gaps| (``incidence._axis_gaps``), each gap rounded to float once so no
    difference cancels; head classes meet the last axis in blocks of <= _CLASS_BLOCK.
    Refused before any block is built past the head and energy class limits."""
    uneven = {j: _axis_gaps(ax) for j, ax in enumerate(axes) if _even_step(ax) is None}
    sizes = [len(uneven[j]) if j in uneven else len(ax) for j, ax in enumerate(axes)]
    if math.prod(sizes[:-1]) > _MAX_PRODUCT_CLASSES or math.prod(sizes) > _MAX_ENERGY_CLASSES:
        raise CapacityError(f"{sizes} difference classes per axis exceed the energy limits")
    gaps = [uneven[j] if j in uneven else _axis_gaps(ax) for j, ax in enumerate(axes)]
    sq = [_column_floats(list(g), den) ** 2 for g, den in zip(gaps, denominators)]
    mult = [np.fromiter(g.values(), np.int64, len(g)) for g in gaps]
    head_r2, head_mult = np.zeros(1), np.ones(1, dtype=np.int64)
    for a, m in zip(sq[:-1], mult[:-1]):
        head_r2, head_mult = np.add.outer(head_r2, a).ravel(), np.multiply.outer(head_mult, m).ravel()
    rows, cols = max(1, _CLASS_BLOCK // len(sq[-1])), min(len(sq[-1]), _CLASS_BLOCK)
    partials = []
    for h0 in range(0, len(head_r2), rows):
        for l0 in range(0, len(sq[-1]), cols):
            block = np.add.outer(head_r2[h0 : h0 + rows], sq[-1][l0 : l0 + cols])
            if h0 == l0 == 0:
                block[0, 0] = np.inf  # _axis_gaps lists gap 0 first: the p = q class
            np.power(block, -s / 2.0, out=block)
            block *= np.multiply.outer(head_mult[h0 : h0 + rows], mult[-1][l0 : l0 + cols])
            partials.append(float(block.sum()))
    return math.fsum(partials)


def _brute_pair_sum(pts: np.ndarray, s: float, threads: int) -> float:
    def one(rows):
        r2 = _pair_r2(pts[rows], pts)
        local = np.arange(len(r2))
        r2[local, rows.start + local] = np.inf  # p = q contributes 0
        with np.errstate(divide="ignore"):
            return float(np.power(r2, -s / 2.0, out=r2).sum())

    return math.fsum(_map_row_chunks(one, len(pts), threads))


def adaptability_sum(P: PointSet, s: float, threads: int = 1) -> EnergyReport:
    """lambda_s = N^-2 sum over ordered pairs p != q of |p - q|^-s."""
    if not (s > 0.0 and math.isfinite(s)):
        raise ParameterError(f"s must be positive, got {s!r}")
    if P.n_points < 2:
        raise InputError("adaptability_sum needs at least 2 points")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    total = _grouped_pair_sum(P.axes, P.denominators, s) if P.axes else _brute_pair_sum(P.to_floats(), s, threads)
    if not math.isfinite(total):
        raise InputError("points collide at float64 resolution; energy diverges")
    n = P.n_points
    return EnergyReport(s=s, lambda_s=total / (n * n), n_points=n)


def cube_self_energy(d: int, s: float, samples: int = 200_000, seed: int = 0) -> MonteCarloEstimate:
    """Monte Carlo estimate of the unit-cube self energy
    C(d, s) = integral over [0,1]^d x [0,1]^d of |x - y|^-s."""
    if not (isinstance(d, int) and d >= 1):
        raise ParameterError(f"d must be a positive integer, got {d!r}")
    if not (0.0 <= s and math.isfinite(s)):
        raise ParameterError(f"s must be nonnegative, got {s!r}")
    if s >= d:
        raise DivergenceError(f"C(d={d}, s={s}) diverges; needs s < d")
    if samples < 10_000:
        raise ParameterError("at least 10000 samples are required")
    rng = np.random.default_rng(seed)
    x = rng.random((samples, d))
    y = rng.random((samples, d))
    r = np.sqrt(((x - y) ** 2).sum(axis=1))
    vals = np.power(r, -s) if s > 0 else np.ones(samples)
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return MonteCarloEstimate(value=value, stderr=stderr, samples=samples, seed=seed)


def ball_bound_constant(d: int, s: float) -> float:
    """Closed-form upper bound for the cube self energy: the difference of
    two cube points lies in the ball of radius sqrt(d), and integrating
    |X|^-s over it gives area(S^(d-1)) * d^((d-s)/2) / (d - s)."""
    if not (isinstance(d, int) and d >= 1):
        raise ParameterError(f"d must be a positive integer, got {d!r}")
    if s >= d:
        raise DivergenceError(f"ball bound diverges for s >= d")
    sphere_area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return sphere_area * d ** ((d - s) / 2.0) / (d - s)


def energy_decomposition(n: int, d: int, s: float, samples: int = 200_000, seed: int = 0) -> EnergyReport:
    """Self/cross split of the energy of the thickened Valtr measure at
    eps = N^(-1/s).

    The self term N * eps^s * C(d, s) collapses to C(d, s) because
    eps^-s = N; the cross term eps^(2s) * sum_{p != q} |p - q|^-s equals the
    adaptability sum of ``gen_valtr(n, d)`` because eps^(2s) = N^-2.
    """
    if not (isinstance(n, int) and n >= 2):
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")
    if not (isinstance(d, int) and d >= 2):
        raise ParameterError(f"d must be an integer >= 2, got {d!r}")
    if not (d / 2 <= s < (d + 1) / 2):
        raise ParameterError(f"s={s!r} outside [d/2, (d+1)/2) for d={d}")
    cross = adaptability_sum(gen_valtr(n, d), s).lambda_s
    self_term = cube_self_energy(d, s, samples=samples, seed=seed).value
    return EnergyReport(
        s=s,
        lambda_s=self_term + cross,
        n_points=n ** (d + 1),
        self_term=self_term,
        cross_term=cross,
    )
