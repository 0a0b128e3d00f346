"""Discrete Riesz energies and the self/cross decomposition of the thickened
cube measure, whose self term is one deterministic 1-D quadrature.

Distances are Euclidean throughout; the paraboloid gauge only enters the
incidence counters. A set built from ``axes`` is summed over the head table of
the band kernel (the pairs of its head axes grouped by exact squared length,
under one limit on the work that builds it) against its last axis's gaps; any
other set over the upper triangle of its pairs in tiles of about 512 KiB, each
worker holding one r^2 tile and its difference buffer; float64 tile totals are
added exactly and doubled, so results are bit-identical for any thread count.
The tiles are those of ``incidence._map_upper_tiles``, filled per pair of point
segments over only the axes the two segments use (a zero coordinate adds nothing
to a difference), with every r^2 the float of the full per-axis sum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DivergenceError, InputError, ParameterError
from .incidence import _axis_gaps, _head_classes, _map_upper_tiles
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


def _grouped_pair_sum(axes, denominators, s: float) -> float:
    """sum_{p != q} |p - q|^-s over the product of these axes, one term per head
    class R (``incidence._head_classes``) and last-axis |gap| G: r^2 is R / Q,
    correctly rounded, plus the square of G rounded to float once, so no difference
    cancels. Blocks of <= _CLASS_BLOCK terms, refused past the energy limit first."""
    *head, last = axes
    Q, heads = _head_classes(head, denominators[:-1])
    # k values have at least k distinct gaps, so k alone may refuse before they are listed
    if len(heads) * len(last) > _MAX_ENERGY_CLASSES:
        raise CapacityError(f"{len(heads)} x {len(last)} difference classes exceed the energy limit")
    gaps = _axis_gaps(last)
    if len(heads) * len(gaps) > _MAX_ENERGY_CLASSES:
        raise CapacityError(f"{len(heads)} x {len(gaps)} difference classes exceed the energy limit")
    head_r2, sq = _column_floats(list(heads), Q), _column_floats(list(gaps), denominators[-1]) ** 2
    head_mult, mult = (np.fromiter(g.values(), np.int64, len(g)) for g in (heads, gaps))
    rows, cols = max(1, _CLASS_BLOCK // len(sq)), min(len(sq), _CLASS_BLOCK)
    partials = []
    for h0 in range(0, len(head_r2), rows):
        for l0 in range(0, len(sq), cols):
            block = np.add.outer(head_r2[h0 : h0 + rows], sq[l0 : l0 + cols])
            if h0 == l0 == 0:
                block[0, 0] = np.inf  # R = 0 and G = 0 come first: the p = q class
            np.power(block, -s / 2.0, out=block)
            block *= np.multiply.outer(head_mult[h0 : h0 + rows], mult[l0 : l0 + cols])
            partials.append(float(block.sum()))
    return math.fsum(partials)


def _brute_pair_sum(pts: np.ndarray, s: float, threads: int) -> float:
    """Twice the sum over the upper triangle (j > i) of |p_j - p_i|^-s; the tile
    sums are added exactly, so the result does not depend on the thread count."""

    def one(r2, i0, i1):
        with np.errstate(divide="ignore"):  # a collision gives inf, reported by the caller
            return float(np.power(r2, -s / 2.0, out=r2).sum())

    return 2.0 * math.fsum(_map_upper_tiles(one, pts, threads))


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


def cube_self_energy(d: int, s: float) -> float:
    """The unit-cube self energy C(d, s) = integral over [0,1]^d x [0,1]^d of |x - y|^-s.

    |z|^-s = Gamma(s/2)^-1 int_0^inf u^(s/2-1) e^(-u|z|^2) du factors over the axes, so
    C = 2^d Gamma(s/2)^-1 int_0^inf u^(s/2-1) phi(u)^d du, phi(u) = int_0^1 (1-z) e^(-u z^2) dz.
    The trapezoid rule in x = ln u samples [-40, 40] at step 0.1. Beyond it phi is 1/2 below
    and sqrt(pi)/(2 sqrt(u)) - 1/(2u) above to double precision, so each tail, expanded
    binomially, is a sum of exact geometric series. A (d, s) whose terms leave float range
    raises ParameterError: 2^d and the binomials overflow from d = 1024, Gamma(s/2) above
    s = 343, and the sum of the terms, about C Gamma(s/2) 2^-d, falls below the normal floats
    at large d and s."""
    if not (isinstance(d, int) and d >= 1):
        raise ParameterError(f"d must be a positive integer, got {d!r}")
    if not (0.0 <= s and math.isfinite(s)):
        raise ParameterError(f"s must be nonnegative, got {s!r}")
    if s >= d:
        raise DivergenceError(f"C(d={d}, s={s}) diverges; needs s < d")
    if s < 1e-300:  # C = 1 + O(s) rounds to 1, and Gamma(s/2) nears overflow
        return 1.0
    h, cut = 0.1, 40.0

    def tail(a: float) -> float:  # sum over j >= 1 of e^(a (cut + j h)), for a < 0
        return math.exp(a * (cut + h)) / -math.expm1(a * h)

    terms = [0.5**d * tail(-s / 2)]
    for x in (h * i for i in range(-400, 401)):
        u = math.exp(x)
        phi = math.sqrt(math.pi) * math.erf(math.sqrt(u)) / (2 * math.sqrt(u)) + math.expm1(-u) / (2 * u)
        terms.append(math.exp(s * x / 2 + d * math.log(phi)))  # u^(s/2) phi^d, free of overflow
    try:
        terms += [math.comb(d, m) * (math.sqrt(math.pi) / 2) ** (d - m) * (-0.5) ** m * tail((s - d - m) / 2)
                  for m in range(d + 1)]
        total = math.fsum(terms)
        value = 2**d * h * total / math.gamma(s / 2)
    except OverflowError:
        total = 0.0
    if not total >= sys.float_info.min:  # a term overflowed, or their sum is not a normal float
        raise ParameterError(f"C(d={d}, s={s}) has terms outside float range")
    return value


def ball_bound_constant(d: int, s: float) -> float:
    """Closed-form upper bound for the cube self energy: the difference of
    two cube points lies in the ball of radius sqrt(d), and integrating
    |X|^-s over it gives area(S^(d-1)) * d^((d-s)/2) / (d - s), with
    area(S^(d-1)) = 2 pi^(d/2) / Gamma(d/2). It is computed in logs, so
    no factor leaves float range before the bound does (s = 1: from d = 506)."""
    if not (isinstance(d, int) and d >= 1):
        raise ParameterError(f"d must be a positive integer, got {d!r}")
    if s >= d:
        raise DivergenceError(f"ball bound diverges for s >= d")
    log_area = math.log(2.0) + d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0)
    try:
        return math.exp(log_area + (d - s) / 2.0 * math.log(d) - math.log(d - s))
    except OverflowError:
        raise ParameterError(f"the ball bound at d={d}, s={s} leaves float range") from None


def energy_decomposition(n: int, d: int, s: float) -> EnergyReport:
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
    self_term = cube_self_energy(d, s)
    return EnergyReport(
        s=s,
        lambda_s=self_term + cross,
        n_points=n ** (d + 1),
        self_term=self_term,
        cross_term=cross,
    )
