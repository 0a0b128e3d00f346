"""Exact lattice-point counting in disks, balls and shells.

Boundary membership is decided by comparing the integer |z|^2 against exact
rational squared radii (floats are converted to the exact rational they
represent), so counts are reproducible and free of rounding at the boundary.
The integer square roots behind each row are one float64 pass, exact for
every integer threshold below 2^52 (see _floorsqrt_vec); the radius limits
keep the thresholds far below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ParameterError

_MAX_RADIUS = {2: 2_000_000.0, 3: 20_000.0}

_VALIDITY_THRESHOLD = {2: 416.0 / 285.0, 3: 16.0 / 9.0}


@dataclass(frozen=True, slots=True)
class LatticeCountReport:
    """Exact ball count; the volume term and the discrepancy are derived."""

    dim: int
    radius: float
    count: int

    @property
    def volume_term(self) -> float:
        r = self.radius
        return math.pi * r * r if self.dim == 2 else 4.0 / 3.0 * math.pi * r**3

    @property
    def discrepancy(self) -> float:
        return self.count - self.volume_term


@dataclass(frozen=True)
class LatticeIncidenceTotal:
    """Shell count around the origin and the implied incidence total N * a."""

    dim: int
    n_points: int
    s: float
    radius: float
    thickness: float
    shell_points: int
    incidences: int
    valid: bool


def _as_fraction(x, name: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ParameterError(f"{name} must be finite, got {x!r}")
        return Fraction(x)
    raise ParameterError(f"{name} must be an int, float or Fraction, got {type(x).__name__}")


def _floorsqrt_vec(v: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(v)) for int64 0 <= v < 2^52, in one float pass.

    float64 holds such a v exactly. With k = isqrt(v) < 2^26, v <= (k + 1)^2 - 1,
    so (k + 1) - sqrt(v) >= 1 / (k + 1 + sqrt((k + 1)^2 - 1)) > 1 / (2 (k + 1))
    >= 2^-27, more than half an ulp (at most 2^-28) of the floats just below
    k + 1 <= 2^26. So the correctly rounded np.sqrt lies in [k, k + 1) and
    truncates to k."""
    return np.sqrt(v.astype(np.float64)).astype(np.int64)


# _floorsqrt_vec is exact below this threshold
_MAX_T2 = 1 << 52

# cells per dim-3 row block, so that no temporary grows with the radius
_BLOCK_CELLS = 1 << 15


def _count_le_int(t2: int, dim: int) -> int:
    """#(z in Z^dim with |z|^2 <= t2), integer threshold, vectorized rows.

    Only the quadrant of the leading coordinates x >= 1 (dim 2) or
    x, y >= 0 (dim 3) is visited; each row or cell stands for its sign
    images, and the last coordinate contributes 2 floor(sqrt(rest)) + 1.
    A dim-3 row block starting at x0 spans the isqrt(t2 - x0^2) + 1 columns
    y that can hold a point. Raises CapacityError for t2 >= 2^52, past
    which the one-pass root is not proven exact."""
    if t2 < 0:
        return 0
    if t2 >= _MAX_T2:
        raise CapacityError(f"threshold {t2} exceeds the exact-root limit 2^52")
    top = math.isqrt(t2)
    if dim == 2:
        xs = np.arange(1, top + 1, dtype=np.int64)
        return 1 + 4 * top + 4 * int(_floorsqrt_vec(t2 - xs * xs).sum())
    sq = np.arange(top + 1, dtype=np.int64) ** 2
    weight = np.full(top + 1, 2, dtype=np.int64)
    weight[0] = 1
    rows = max(1, _BLOCK_CELLS // (top + 1))
    total = 0
    for x0 in range(0, top + 1, rows):
        cols = math.isqrt(t2 - x0 * x0) + 1
        rest = t2 - sq[x0 : x0 + rows, None] - sq[None, :cols]
        cells = np.where(rest >= 0, 2 * _floorsqrt_vec(np.maximum(rest, 0)) + 1, 0)
        total += int(weight[x0 : x0 + rows] @ (cells @ weight[:cols]))
    return total


def ball_count(dim: int, R) -> LatticeCountReport:
    """Exact number of integer points z with |z| <= R, plus the discrepancy
    against the ball volume."""
    if dim not in (2, 3):
        raise ParameterError(f"dim must be 2 or 3, got {dim!r}")
    r_frac = _as_fraction(R, "R")
    if r_frac < 0:
        raise ParameterError(f"R must be nonnegative, got {R!r}")
    if float(r_frac) > _MAX_RADIUS[dim]:
        raise CapacityError(f"R={R!r} exceeds the dim-{dim} limit {_MAX_RADIUS[dim]}")
    # |z|^2 is an integer, so |z|^2 <= R^2 iff |z|^2 <= floor(R^2)
    count = _count_le_int(math.floor(r_frac * r_frac), dim)
    return LatticeCountReport(dim=dim, radius=float(r_frac), count=count)


def shell_count(dim: int, R, w, include_inner_boundary: bool = True) -> int:
    """#(z in Z^dim with R <= |z| <= R + w); with ``include_inner_boundary``
    False the inner boundary is dropped, matching the plain count difference
    c(R + w) - c(R)."""
    if dim not in (2, 3):
        raise ParameterError(f"dim must be 2 or 3, got {dim!r}")
    r_frac = _as_fraction(R, "R")
    w_frac = _as_fraction(w, "w")
    if r_frac <= 0:
        raise ParameterError(f"R must be positive, got {R!r}")
    if w_frac < 0:
        raise ParameterError(f"w must be nonnegative, got {w!r}")
    hi = r_frac + w_frac
    if float(hi) > _MAX_RADIUS[dim]:
        raise CapacityError(f"R+w={float(hi)} exceeds the dim-{dim} limit")
    # |z|^2 is an integer: |z|^2 <= t2 iff |z|^2 <= floor(t2), and
    # |z|^2 < t2 iff |z|^2 <= ceil(t2) - 1
    r2 = r_frac * r_frac
    inner = math.ceil(r2) - 1 if include_inner_boundary else math.floor(r2)
    return _count_le_int(math.floor(hi * hi), dim) - _count_le_int(inner, dim)


def lattice_incidence_total(dim: int, N: int, s: float) -> LatticeIncidenceTotal:
    """Incidence total N * a for the scaled lattice with N points: a counts
    integer points in the shell of radius R and thickness w, where dim 2 uses
    R = sqrt(N)/10, w = sqrt(N) * N^(-1/s) and dim 3 uses R = (N/10)^(1/3),
    w = N^(1/3 - 1/s). ``valid`` records whether s lies above the exponent
    threshold (416/285 in dim 2, 16/9 in dim 3) at which the shell main term
    dominates the known discrepancy bounds."""
    if dim not in (2, 3):
        raise ParameterError(f"dim must be 2 or 3, got {dim!r}")
    if not (isinstance(N, int) and N >= 1):
        raise ParameterError(f"N must be a positive integer, got {N!r}")
    if not s > dim / 2.0:
        raise ParameterError(f"s must exceed dim/2 = {dim / 2}, got {s!r}")
    if dim == 2:
        k = math.isqrt(N)
        if k * k != N:
            raise ParameterError(f"N={N} is not a perfect square")
        radius = Fraction(k, 10)
        thickness = Fraction(float(k * N ** (-1.0 / s)))
    else:
        k = round(N ** (1.0 / 3.0))
        if k**3 != N:
            raise ParameterError(f"N={N} is not a perfect cube")
        radius = Fraction(float((N / 10.0) ** (1.0 / 3.0)))
        thickness = Fraction(float(N ** (1.0 / 3.0 - 1.0 / s)))
    a = shell_count(dim, radius, thickness)
    return LatticeIncidenceTotal(
        dim=dim,
        n_points=N,
        s=float(s),
        radius=float(radius),
        thickness=float(thickness),
        shell_points=a,
        incidences=N * a,
        valid=s > _VALIDITY_THRESHOLD[dim],
    )
