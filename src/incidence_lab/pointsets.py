"""Deterministic generators for extremal point configurations.

Coordinates are exact rationals: integer numerators over one shared positive
denominator per axis, so that downstream boundary predicates can run in pure
integer arithmetic. All generators are pure functions; a PointSet is
immutable and safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapacityError, InputError, ParameterError

# Refuse to build rows or float columns of more than this many points; paths
# that read only the ``axes`` of a product set are not affected.
MAX_POINTS = 2_000_000

# Resolution used to store irrational coordinates (the Lenz circles).
ANGLE_RESOLUTION = 1 << 40

# Contraction ratios are snapped to the best rational with denominator below
# this bound whenever that loses less than 1e-9 relative accuracy, so that
# ratios like 1/3 or 1/4 are represented exactly.
_RATIO_MAX_DEN = 10**6
_RATIO_REL_TOL = Fraction(1, 10**9)


@dataclass(frozen=True)
class PointSet:
    """A finite set of d-dimensional points with exact rational coordinates.

    ``numerators[i][j] / denominators[j]`` is coordinate j of point i. All
    points lie in [-1, 1]^dim and are pairwise distinct. A set that is the
    full Cartesian product of its axes is built from ``axes`` instead: the
    strictly increasing numerators of each axis (a positive-step ``range``
    is kept as given). It holds only its axes, and ``==`` compares them;
    ``numerators`` is their ``itertools.product``, built on first read.
    ``s_dim`` records the dimension parameter a construction targets.
    """

    dim: int
    denominators: tuple[int, ...]
    # a factory leaves no class attribute, so the unread rows of an axes-built set reach __getattr__
    numerators: tuple[tuple[int, ...], ...] | None = field(default_factory=lambda: None, compare=False, repr=False)
    label: str = "custom"
    axes: tuple[tuple[int, ...] | range, ...] | None = None
    s_dim: float | None = None
    # what ``==`` and hash compare besides the axes: the rows of a row-built set
    _rows: tuple[tuple[int, ...], ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if len(self.denominators) != self.dim:
            raise InputError("one denominator per axis is required")
        if any(den <= 0 for den in self.denominators):
            raise InputError("denominators must be positive")
        if self.axes is not None:
            self._check_axes()
            del self.__dict__["numerators"]
            return
        if self.numerators is None:
            raise InputError("numerators or axes is required")
        self._check_rows()
        for row in self.numerators:
            if len(row) != self.dim:
                raise InputError("point arity does not match dim")
            for num, den in zip(row, self.denominators):
                if abs(num) > den:
                    raise InputError(f"coordinate {num}/{den} lies outside [-1, 1]")
        if len(set(self.numerators)) != len(self.numerators):
            raise InputError("duplicate points are not allowed")
        object.__setattr__(self, "_rows", self.numerators)

    def _check_axes(self) -> None:
        if self.numerators is not None:
            raise InputError("pass numerators or axes, not both")
        axes = tuple(ax if isinstance(ax, range) and ax.step > 0 else tuple(ax) for ax in self.axes)
        if len(axes) != self.dim:
            raise InputError("one axis per dimension is required")
        if any(isinstance(ax, range) and ax.stop - ax.start > sys.maxsize for ax in axes):
            raise CapacityError(f"an axis of the {self.label} set is too long to index")  # len() would overflow
        for ax, den in zip(axes, self.denominators):
            if isinstance(ax, tuple) and any(a >= b for a, b in zip(ax, ax[1:])):
                raise InputError("axis numerators must be strictly increasing")
            for num in (*ax[:1], *ax[-1:]):
                if abs(num) > den:
                    raise InputError(f"coordinate {num}/{den} lies outside [-1, 1]")
        object.__setattr__(self, "axes", axes)

    def __getattr__(self, name):
        # reached only for the rows of an axes-built set, before their first read
        if name != "numerators":
            raise AttributeError(name)
        self._check_rows()
        object.__setattr__(self, name, tuple(itertools.product(*self.axes)))
        return self.numerators

    def _check_rows(self) -> None:
        _check_size(self.n_points, f"materializing the {self.label} set")

    @property
    def n_points(self) -> int:
        return len(self.numerators) if self.axes is None else math.prod(map(len, self.axes))

    def coordinate(self, i: int, j: int) -> Fraction:
        return Fraction(self.numerators[i][j], self.denominators[j])

    def point(self, i: int) -> tuple[Fraction, ...]:
        return tuple(self.coordinate(i, j) for j in range(self.dim))

    def to_floats(self) -> np.ndarray:
        """Coordinates as an (n_points, dim) float64 array; a product set
        converts each axis once and expands the product."""
        import numpy as np

        self._check_rows()
        if self.axes is not None:
            cols = np.meshgrid(*map(_column_floats, self.axes, self.denominators), indexing="ij")
        else:
            cols = [
                _column_floats([row[j] for row in self.numerators], den)
                for j, den in enumerate(self.denominators)
            ]
        return np.stack([col.ravel() for col in cols], axis=1)


def _column_floats(nums, den: int) -> np.ndarray:
    """Correctly rounded float64 values of nums[i] / den (Python's int / int
    rounds correctly; so does NumPy's division of exact floats)."""
    import numpy as np

    if den < 2**53 and all(abs(v) < 2**53 for v in nums):
        return np.asarray(nums, dtype=np.float64) / den
    return np.asarray([v / den for v in nums], dtype=np.float64)


def _check_size(count: int, what: str) -> None:
    if count > MAX_POINTS:
        raise CapacityError(f"{what} would produce {count} points (limit {MAX_POINTS})")


def gen_valtr(n: int, d: int) -> PointSet:
    """The n x ... x n x n^2 grid: (i1/n, ..., i_{d-1}/n, i_d/n^2) with
    0 <= i_j <= n-1 for j < d and 1 <= i_d <= n^2. Exactly n^(d+1) points,
    held as range axes, so the exact counters read the grid at any n."""
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(d, int) and d >= 2):
        raise ParameterError(f"d must be an integer >= 2, got {d!r}")
    axes = (range(n),) * (d - 1) + (range(1, n * n + 1),)
    return PointSet(dim=d, denominators=(n,) * (d - 1) + (n * n,), axes=axes, label="valtr")


def gen_lenz(N: int) -> PointSet:
    """Two orthogonal unit circles in R^4, N/2 evenly spaced points on each.

    Coordinates are irrational; they are stored as rationals rounded at a
    fixed resolution of 2^-40, which keeps all cross-circle distances within
    ~1e-11 of sqrt(2).
    """
    if not (isinstance(N, int) and N >= 4 and N % 2 == 0):
        raise ParameterError(f"N must be an even integer >= 4, got {N!r}")
    _check_size(N, f"gen_lenz(N={N})")
    half = N // 2
    res = ANGLE_RESOLUTION
    rows = []
    for k in range(half):
        theta = 2.0 * math.pi * k / half
        rows.append((round(math.cos(theta) * res), round(math.sin(theta) * res), 0, 0))
    for k in range(half):
        phi = 2.0 * math.pi * k / half
        rows.append((0, 0, round(math.cos(phi) * res), round(math.sin(phi) * res)))
    return PointSet(dim=4, denominators=(res,) * 4, numerators=tuple(rows), label="lenz")


def gen_lattice(k: int, d: int) -> PointSet:
    """The scaled integer lattice: the k^d points (i1/k, ..., id/k),
    0 <= i_j <= k-1."""
    if not (isinstance(k, int) and k >= 1):
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    if not (isinstance(d, int) and d >= 1):
        raise ParameterError(f"d must be a positive integer, got {d!r}")
    return PointSet(dim=d, denominators=(k,) * d, axes=(range(k),) * d, label="lattice")


def _rationalize_ratio(value: float) -> Fraction:
    """Best small-denominator rational for a contraction ratio, falling back
    to the exact binary value of the float when no small fraction is close."""
    exact = Fraction(value)
    cand = exact.limit_denominator(_RATIO_MAX_DEN)
    if cand > 0 and abs(cand - exact) <= exact * _RATIO_REL_TOL:
        return cand
    return exact


@dataclass(frozen=True)
class CantorParams:
    """Parameters of a Cantor-like construction of target dimension alpha.

    Each interval spawns two children of relative length ``ratio`` anchored
    at its ends (the middle 1 - 2*ratio proportion is removed), which makes
    alpha = log 2 / log(1/ratio) hold exactly for the rationalized ratio.
    """

    alpha: float
    levels: int
    ratio: Fraction = field(init=False)
    inverse_ratio: Fraction = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not (isinstance(self.levels, int) and self.levels >= 0):
            raise ParameterError(f"levels must be a nonnegative integer, got {self.levels!r}")
        ratio = _rationalize_ratio(2.0 ** (-1.0 / self.alpha))
        if not (0 < ratio < Fraction(1, 2)):
            raise ParameterError(f"contraction ratio {ratio} not in (0, 1/2)")
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "inverse_ratio", 1 / ratio)


def gen_cantor_centers(params: CantorParams) -> list[Fraction]:
    """Centers of the 2^levels surviving intervals, in increasing order."""
    nums, den = _cantor_axis(params)
    return [Fraction(c, den) for c in nums]


def _cantor_axis(params: CantorParams) -> tuple[list[int], int]:
    """The Cantor centers as integer numerators over 2 q^L, L = levels, for
    the ratio p/q: an interval of level j has length 2 q^(L-j) p^j there, so
    its right child starts 2 q^(L-j-1) p^j (q - p) after its left end, and a
    center lies half the final length, p^L, after its interval's left end."""
    levels = params.levels
    _check_size(2**levels, f"gen_cantor_centers(levels={levels})")
    p, q = params.ratio.numerator, params.ratio.denominator
    lefts = [0]
    for j in range(levels):
        offset = 2 * q ** (levels - j - 1) * p**j * (q - p)
        lefts = [a for left in lefts for a in (left, left + offset)]
    return [left + p**levels for left in lefts], 2 * q**levels


def gen_mattila2(alpha: float, levels: int) -> PointSet:
    """Product of a doubled Cantor-center set on the x-axis with an evenly
    spaced column: (C union (C - 1)) x {(k + 1/2)/G, 0 <= k < G} where
    G = ceil((1/ratio)^levels). Size is exactly 2 * 2^levels * G."""
    params = CantorParams(alpha, levels)
    nums, den_x = _cantor_axis(params)
    grid = math.ceil(params.inverse_ratio**levels)
    return PointSet(
        dim=2,
        denominators=(den_x, 2 * grid),
        axes=([v - den_x for v in nums] + nums, range(1, 2 * grid, 2)),
        label="mattila2",
        s_dim=1.0 + alpha,
    )


def gen_mattila3(delta: float, levels: int) -> PointSet:
    """Triple Cantor product C_alpha x C_alpha x C_beta with alpha = 1-delta
    and beta = delta/2; targets dimension s = 2*alpha + beta = 2 - 3*delta/2."""
    if not (0.0 < delta < 2.0 / 3.0):
        raise ParameterError(f"delta must lie in (0, 2/3), got {delta!r}")
    alpha = 1.0 - delta
    beta = delta / 2.0
    (a_nums, den_a), (b_nums, den_b) = map(_cantor_axis, [CantorParams(alpha, levels), CantorParams(beta, levels)])
    return PointSet(
        dim=3,
        denominators=(den_a, den_a, den_b),
        axes=(a_nums, a_nums, b_nums),
        label="mattila3",
        s_dim=2.0 * alpha + beta,
    )
