"""Exact references for the benchmark's output checks.

Nothing here calls a counting kernel of incidence_lab. A reference reads the
stored coordinates of a point set (integer numerators over one denominator
per axis), or the definition of a set where the program never materializes
it, and decides band membership in integer and Fraction arithmetic. The
thresholds t and t + eps are the exact rationals of the float arguments the
program received, which is how latticecount treats its radii.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

# ---------------------------------------------------------------- axes


def product_axes(numerators, dim: int) -> list[list[int]]:
    """Per-axis numerator values of a point set, checked to be the full
    Cartesian product of those values (the rows are distinct, so equal
    sizes imply equality)."""
    axes = [sorted({row[j] for row in numerators}) for j in range(dim)]
    if math.prod(len(a) for a in axes) != len(numerators):
        raise ValueError("point set is not a Cartesian product of its axes")
    return axes


def valtr_axes(n: int, d: int) -> tuple[list[list[int]], list[int]]:
    """Axes of the Valtr grid from its definition: (i/n, ..., i/n, j/n^2)
    with 0 <= i < n and 1 <= j <= n^2."""
    return [list(range(n))] * (d - 1) + [list(range(1, n * n + 1))], [n] * (d - 1) + [n * n]


def difference_multiset(values: list[int]) -> dict[int, int]:
    """Ordered-pair differences b - a of one axis, with multiplicities. An
    arithmetic progression has the closed form k*step with multiplicity
    m - |k|; any other axis is enumerated."""
    m = len(values)
    step = values[1] - values[0] if m > 1 else 0
    if m > 1 and all(b - a == step for a, b in zip(values, values[1:])):
        return {k * step: m - abs(k) for k in range(-(m - 1), m)}
    if m > 4096:
        raise ValueError("refusing to enumerate a large irregular axis")
    return dict(Counter(b - a for a in values for b in values))


def _head_r2(axes: list[list[int]], dens: list[int]) -> tuple[Counter, int]:
    """Multiset of |x'|^2 over the difference classes of all axes but the
    last, as integer numerators over one common denominator Q."""
    q = math.lcm(*(den * den for den in dens)) if dens else 1
    r2 = Counter({0: 1})
    for values, den in zip(axes, dens):
        scale = q // (den * den)
        diffs = difference_multiset(values)
        nxt = Counter()
        for r, mr in r2.items():
            for dv, mv in diffs.items():
                nxt[r + scale * dv * dv] += mr * mv
        r2 = nxt
    return r2, q


class _LastAxis:
    """|difference| values of the last axis with prefix sums of their
    multiplicities (both signs folded together)."""

    def __init__(self, values: list[int]):
        folded = Counter()
        for dv, mv in difference_multiset(values).items():
            folded[abs(dv)] += mv
        self.keys = sorted(folded)
        self.prefix = [0]
        for k in self.keys:
            self.prefix.append(self.prefix[-1] + folded[k])

    def between(self, lo: int, hi: int) -> int:
        """Total multiplicity of |difference| numerators in [lo, hi]."""
        if hi < lo:
            return 0
        return self.prefix[bisect_right(self.keys, hi)] - self.prefix[bisect_left(self.keys, lo)]


def _ceil_sqrt(x: Fraction) -> int:
    """Least integer k >= 0 with k^2 >= x."""
    if x <= 0:
        return 0
    c = math.ceil(x)
    k = math.isqrt(c)
    return k if k * k >= c else k + 1


def _floor_sqrt(x: Fraction) -> int:
    """Greatest integer k with k^2 <= x, or -1 when x < 0."""
    return math.isqrt(math.floor(x)) if x >= 0 else -1


def euclidean_band_product(axes, dens, t: float, eps: float) -> int:
    """Ordered pairs p != q of a product set with t <= |q - p| <= t + eps."""
    t_, h = Fraction(t), Fraction(t) + Fraction(eps)
    r2, q = _head_r2(axes[:-1], dens[:-1])
    last, den = _LastAxis(axes[-1]), dens[-1]
    total = 0
    for r, mult in r2.items():
        rr = Fraction(r, q)
        lo = _ceil_sqrt(den * den * (t_ * t_ - rr))
        hi = _floor_sqrt(den * den * (h * h - rr))
        total += mult * last.between(lo, hi)
    return total


def paraboloid_band_product(axes, dens, t: float, eps: float) -> int:
    """Ordered pairs p != q of a product set with t <= ||q - p|| <= t + eps
    for the paraboloid-body gauge. With r^2 = |x'|^2 and a = |x_d|:
    ||x|| >= t iff r^2 + t*a >= t^2, and ||x|| <= h iff r^2 + h*a <= h^2."""
    t_, h = Fraction(t), Fraction(t) + Fraction(eps)
    r2, q = _head_r2(axes[:-1], dens[:-1])
    last, den = _LastAxis(axes[-1]), dens[-1]
    total = 0
    for r, mult in r2.items():
        rr = Fraction(r, q)
        lo = max(0, math.ceil(den * (t_ * t_ - rr) / t_))
        hi = math.floor(den * (h * h - rr) / h)
        total += mult * last.between(lo, hi)
    return total


def euclidean_band_points(numerators, den: int, t: float, eps: float, chunk: int = 256) -> int:
    """Ordered pairs of an arbitrary point set with one denominator on every
    axis and t <= |q - p| <= t + eps. Squared distances are compared in
    float64 from exact integer differences; pairs within a relative 1e-9 of
    either threshold are decided again in Python integers."""
    pts = np.asarray(numerators, dtype=np.int64)
    if pts.size and int(np.abs(pts).max()) >= 2**52:
        raise ValueError("numerators too large for the float filter")
    t_, h = Fraction(t), Fraction(t) + Fraction(eps)
    lo_exact, hi_exact = t_ * t_ * den * den, h * h * den * den
    lo, hi = float(lo_exact), float(hi_exact)
    margin = 1e-9
    total = 0
    for i0 in range(0, len(pts), chunk):
        diff = (pts[None, :, :] - pts[i0 : i0 + chunk, None, :]).astype(np.float64)
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        near = (np.abs(d2 - lo) <= margin * lo) | (np.abs(d2 - hi) <= margin * hi)
        total += int(((d2 >= lo) & (d2 <= hi) & ~near).sum())
        for i, j in zip(*np.nonzero(near)):
            s = sum((int(a) - int(b)) ** 2 for a, b in zip(pts[i0 + i], pts[j]))
            total += lo_exact <= s <= hi_exact
    return total


# ---------------------------------------------------------------- energies


def riesz_sum_valtr(n: int, d: int, s: float) -> float:
    """sum_{p != q} |p - q|^-s over the Valtr grid, by difference classes.
    |D|^2 is formed as the exact integer (|D'|^2 n^2 + D_d^2) over n^4."""
    head = [k for k in range(-(n - 1), n)]
    tail = np.arange(-(n * n - 1), n * n, dtype=np.int64)
    tail_mult = (n * n - np.abs(tail)).astype(np.float64)
    n4 = float(n**4)
    parts = []
    for ks in product(head, repeat=d - 1):
        mult = math.prod(n - abs(k) for k in ks)
        r2 = sum(k * k for k in ks) * n * n + tail * tail
        keep = r2 > 0
        parts.append(mult * math.fsum(tail_mult[keep] * np.power(r2[keep] / n4, -s / 2.0)))
    return math.fsum(parts)


def riesz_sum_points(numerators, den: int, s: float, chunk: int = 256) -> float:
    """sum_{p != q} |p - q|^-s from exact integer coordinate differences."""
    pts = np.asarray(numerators, dtype=np.int64)
    parts = []
    for i0 in range(0, len(pts), chunk):
        diff = (pts[None, :, :] - pts[i0 : i0 + chunk, None, :]).astype(np.float64)
        d2 = np.einsum("ijk,ijk->ij", diff, diff) / (float(den) * den)
        rows = np.arange(d2.shape[0])
        d2[rows, i0 + rows] = np.inf
        parts.extend(np.power(d2, -s / 2.0).sum(axis=1).tolist())
    return math.fsum(parts)


# ---------------------------------------------------------------- lattices


def _disk_count(t2: int) -> int:
    """#{(x, y) in Z^2 : x^2 + y^2 <= t2}, walking the boundary."""
    if t2 < 0:
        return 0
    total, y = 0, math.isqrt(t2)
    for x in range(math.isqrt(t2) + 1):
        while x * x + y * y > t2:
            y -= 1
        total += (2 * y + 1) * (1 if x == 0 else 2)
    return total


def lattice_count_le(t2: Fraction, dim: int) -> int:
    """#{z in Z^dim : |z|^2 <= t2}; |z|^2 is an integer, so floor(t2) decides."""
    if t2 < 0:
        return 0
    t2 = math.floor(t2)
    if dim == 2:
        return _disk_count(t2)
    return sum(_disk_count(t2 - x * x) * (1 if x == 0 else 2) for x in range(math.isqrt(t2) + 1))


def lattice_shell(dim: int, radius: Fraction, width: Fraction) -> int:
    """#{z in Z^dim : R <= |z| <= R + w}, by enumerating the bounding box."""
    lo, hi = radius * radius, (radius + width) * (radius + width)
    r = math.floor(radius + width)
    return sum(1 for z in product(range(-r, r + 1), repeat=dim) if lo <= sum(c * c for c in z) <= hi)


# ---------------------------------------------------------------- finite field


def sharpness_pairs(q: int, a_max: int, b_max: int) -> int:
    """Ordered pairs (x, y) of the box {0..a_max} x {0..b_max} in F_q^2 with
    x - y on the paraboloid u_2 = u_1^2 (mod q)."""
    total = 0
    for dx in range(-a_max, a_max + 1):
        target = dx * dx % q
        for dy in (target, target - q):
            if abs(dy) <= b_max:
                total += (a_max + 1 - abs(dx)) * (b_max + 1 - abs(dy))
    return total


# ---------------------------------------------------------------- self test


def self_test(rng) -> list[str]:
    """Check the product-set references against direct pairwise Fraction
    arithmetic on random rational product sets drawn from ``rng``."""
    errors = []
    for trial in range(6):
        dim = 2 + trial % 2
        dens = [rng.randrange(3, 40) for _ in range(dim)]
        axes = [sorted(rng.sample(range(-den, den + 1), rng.randrange(2, 6))) for den in dens]
        t = rng.uniform(0.2, 1.2)
        eps = rng.choice([0.0, rng.uniform(0.0, 0.5)])
        pts = [tuple(Fraction(v, den) for v, den in zip(row, dens)) for row in product(*axes)]
        t_, h = Fraction(t), Fraction(t) + Fraction(eps)
        euc = par = 0
        for p in pts:
            for q in pts:
                diff = [b - a for a, b in zip(p, q)]
                r2 = sum(x * x for x in diff[:-1])
                a = abs(diff[-1])
                euc += t_ * t_ <= r2 + a * a <= h * h
                par += r2 + t_ * a >= t_ * t_ and r2 + h * a <= h * h
        if euclidean_band_product(axes, dens, t, eps) != euc:
            errors.append(f"self-test: euclidean product reference disagrees (trial {trial})")
        if paraboloid_band_product(axes, dens, t, eps) != par:
            errors.append(f"self-test: paraboloid product reference disagrees (trial {trial})")
        common = math.lcm(*dens)
        rows = [tuple(int(x * common) for x in p) for p in pts]
        if euclidean_band_points(rows, common, t, eps) != euc:
            errors.append(f"self-test: point-set reference disagrees (trial {trial})")
    return errors
