"""Discrete Riesz energies and the self/cross decomposition of the thickened
cube measure.

Distances are Euclidean throughout; the paraboloid gauge only enters the
incidence counters. Pair sums run in float64 with pairwise (tree) summation
inside each chunk and exact summation of the chunk totals, so results are
deterministic for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError, ParameterError
from .incidence import _even_step, _map_row_chunks
from .pointsets import PointSet, gen_valtr

_MAX_GROUPED_CELLS = 50_000_000


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


def _grouped_pair_sum(P: PointSet, s: float) -> float | None:
    """Riesz pair sum via difference classes of a product of evenly spaced
    axes: the index differences D_j in [-(k_j - 1), k_j - 1] of the axes,
    k_j values each, with prod_j (k_j - |D_j|) ordered pairs per class.
    Returns None when P is not such a product or the class space is too
    large."""
    if P.axes is None:
        return None
    steps = [_even_step(ax) for ax in P.axes]
    shape = [len(ax) for ax in P.axes]
    if None in steps or math.prod(2 * k - 1 for k in shape) > _MAX_GROUPED_CELLS:
        return None
    grids = np.meshgrid(*(np.arange(-(k - 1), k, dtype=np.int64) for k in shape), indexing="ij")
    r2 = np.zeros(grids[0].shape, dtype=np.float64)
    mult = np.ones(grids[0].shape, dtype=np.int64)
    for g, k, step, den in zip(grids, shape, steps, P.denominators):
        r2 += (g * (step / den)) ** 2
        mult *= k - np.abs(g)
    nonzero = r2 > 0.0
    return float((mult[nonzero] * np.power(r2[nonzero], -s / 2.0)).sum())


def _brute_pair_sum(pts: np.ndarray, s: float, threads: int) -> float:
    def one(rows):
        block = pts[rows]
        diff = pts[None, :, :] - block[:, None, :]
        r2 = np.einsum("ijk,ijk->ij", diff, diff)
        local = np.arange(len(block))
        r2[local, rows.start + local] = np.inf  # p = q contributes 0
        with np.errstate(divide="ignore"):
            return float(np.power(r2, -s / 2.0).sum())

    return math.fsum(_map_row_chunks(one, len(pts), threads))


def adaptability_sum(P: PointSet, s: float, threads: int = 1) -> EnergyReport:
    """lambda_s = N^-2 sum over ordered pairs p != q of |p - q|^-s."""
    if not (s > 0.0 and math.isfinite(s)):
        raise ParameterError(f"s must be positive, got {s!r}")
    if P.n_points < 2:
        raise InputError("adaptability_sum needs at least 2 points")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    total = _grouped_pair_sum(P, s)
    if total is None:
        total = _brute_pair_sum(P.to_floats(), s, threads)
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


def energy_decomposition(
    n: int, d: int, s: float, samples: int = 200_000, seed: int = 0, threads: int = 1
) -> EnergyReport:
    """Self/cross split of the energy of the thickened Valtr measure at
    eps = N^(-1/s).

    The self term N * eps^s * C(d, s) collapses to C(d, s) because
    eps^-s = N; the cross term eps^(2s) * sum_{p != q} |p - q|^-s equals the
    adaptability sum because eps^(2s) = N^-2.
    """
    if not (isinstance(n, int) and n >= 2):
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")
    if not (isinstance(d, int) and d >= 2):
        raise ParameterError(f"d must be an integer >= 2, got {d!r}")
    if not (d / 2 <= s < (d + 1) / 2):
        raise ParameterError(f"s={s!r} outside [d/2, (d+1)/2) for d={d}")
    cross = adaptability_sum(gen_valtr(n, d), s, threads=threads).lambda_s
    self_term = cube_self_energy(d, s, samples=samples, seed=seed).value
    return EnergyReport(
        s=s,
        lambda_s=self_term + cross,
        n_points=n ** (d + 1),
        self_term=self_term,
        cross_term=cross,
    )
