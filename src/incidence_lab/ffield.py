"""Finite-field side: subsets of F_q^d, their discrete Fourier transforms
against the additive character exp(2*pi*i*u/q), spheres and paraboloids, the
pair count #{(x, y) in E x E : x - y in gamma} exactly (for a product
against a quadric, by one mod-q table of each factor's differences) or
through E's autocorrelation, and the Cartesian-product family that makes the
pair-count bound sharp.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, ParameterError

_MAX_CELLS = 50_000_000
_PAIR_BYTES = 1 << 22  # one chunk of the dense exact pair count


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def _validate_field(q: int, dim: int) -> None:
    if not (isinstance(q, int) and is_prime(q)):
        raise ParameterError(f"q must be prime, got {q!r}")
    if not (isinstance(dim, int) and dim >= 1):
        raise ParameterError(f"dim must be a positive integer, got {dim!r}")


def _validate_grid(q: int, dim: int) -> None:
    _validate_field(q, dim)
    if q**dim > _MAX_CELLS:
        raise CapacityError(f"q^dim = {q ** dim} cells exceed the limit {_MAX_CELLS}")


class FFSet:
    """A subset of F_q^d, given by exactly one of

    - ``indicator``: its dense boolean grid of shape (q,)*dim;
    - ``factors``: dim boolean vectors of length q, for the product
      A_1 x ... x A_dim;
    - ``quadric``: ("paraboloid", 0) for x_d = x_1^2 + ... + x_{d-1}^2, or
      ("sphere", t) for x_1^2 + ... + x_d^2 = t.

    A product or a quadric builds ``indicator`` the first time it is read,
    and only then meets the grid's cell limit. The size of a product or a
    quadric needs no grid.
    """

    def __init__(self, q: int, dim: int, indicator: np.ndarray | None = None, *,
                 factors: tuple[np.ndarray, ...] | None = None, quadric: tuple[str, int] | None = None):
        if sum(arg is not None for arg in (indicator, factors, quadric)) != 1:
            raise InputError("an FFSet takes exactly one of indicator, factors and quadric")
        _validate_field(q, dim)
        self.q, self.dim = q, dim
        self.factors = self.quadric = None
        if indicator is not None:
            _validate_grid(q, dim)
            if indicator.shape != (q,) * dim or indicator.dtype != np.bool_:
                raise InputError(f"indicator must be a boolean grid of shape {(q,) * dim}")
            self.indicator = indicator
        elif factors is not None:
            self.factors = tuple(factors)
            if len(self.factors) != dim or any(f.shape != (q,) or f.dtype != np.bool_ for f in self.factors):
                raise InputError(f"factors must be {dim} boolean vectors of length {q}")
        else:
            kind, t = quadric
            if kind not in ("paraboloid", "sphere"):
                raise InputError(f"unknown quadric {kind!r}")
            if kind == "paraboloid" and dim < 2:
                raise ParameterError("the paraboloid needs dim >= 2")
            self.quadric = (kind, t % q)

    @functools.cached_property
    def indicator(self) -> np.ndarray:
        _validate_grid(self.q, self.dim)
        if self.factors is not None:
            return functools.reduce(np.logical_and.outer, self.factors)
        kind, t = self.quadric
        if kind == "sphere":
            return _square_sums(self.q, self.dim) == t
        rhs = _square_sums(self.q, self.dim - 1)
        return rhs[..., None] == np.arange(self.q, dtype=rhs.dtype)

    @functools.cached_property
    def size(self) -> int:
        if self.factors is not None:
            return math.prod(int(f.sum()) for f in self.factors)
        if self.quadric is None:
            return int(self.indicator.sum())
        q, d = self.q, self.dim
        kind, t = self.quadric
        if kind == "paraboloid" or q == 2:  # over F_2, x^2 = x: the sphere is a hyperplane
            return q ** (d - 1)
        # from Gauss sums; eta is the quadratic character, by Euler's criterion
        eta = lambda a: (pow(a, (q - 1) // 2, q) + 1) % q - 1  # noqa: E731
        if d % 2:
            return q ** (d - 1) + q ** (d // 2) * eta((-1) ** (d // 2) * t)
        return q ** (d - 1) + (q - 1 if t == 0 else -1) * q ** (d // 2 - 1) * eta((-1) ** (d // 2))

    def coords(self) -> np.ndarray:
        """Member cells as an (size, dim) int64 array."""
        return np.argwhere(self.indicator).astype(np.int64)


@dataclass(frozen=True, eq=False)
class FFSpectrum:
    """Fourier transform f_hat(m) = q^-d sum_x chi(-x . m) f(x) on a grid."""

    q: int
    dim: int
    values: np.ndarray

    @property
    def max_nonzero_mag(self) -> float:
        mags = np.abs(self.values).ravel()
        mags[0] = 0.0  # m = (0, ..., 0) sits at flat index 0
        return float(mags.max())


def _square_sums(q: int, axes: int) -> np.ndarray:
    """(x_1^2 + ... + x_axes^2) mod q on the (q,)*axes grid, built by
    broadcasting the residues of the squares and reduced mod q after each
    axis, in the smallest unsigned type that holds 2q."""
    sq = (np.arange(q, dtype=np.int64) ** 2 % q).astype(np.min_scalar_type(2 * q))
    total = sq.reshape((q,) + (1,) * (axes - 1))
    for axis in range(1, axes):
        total = total + sq.reshape((1,) * axis + (q,) + (1,) * (axes - 1 - axis))
        total %= q
    return total


def ff_sphere(q: int, d: int, t: int) -> FFSet:
    """{x in F_q^d : x_1^2 + ... + x_d^2 = t}."""
    return FFSet(q=q, dim=d, quadric=("sphere", t))


def ff_paraboloid(q: int, d: int) -> FFSet:
    """{x in F_q^d : x_d = x_1^2 + ... + x_{d-1}^2}."""
    return FFSet(q=q, dim=d, quadric=("paraboloid", 0))


def _spectrum(ind: np.ndarray) -> np.ndarray:
    """The half spectrum: rfft along the last axis, then fftn over the
    leading axes."""
    return np.fft.fftn(np.fft.rfft(ind), axes=range(ind.ndim - 1))


def _autocorrelation(a: np.ndarray) -> np.ndarray:
    """The ordered pairs of the cells of ``a`` by difference g = 0, 1, ...,
    w - 1, for w the span of its cells (empty for no cell), as int64: one
    real FFT of a power-of-two length n >= 2w - 1, so no lag wraps, rounded,
    because its entries are integers at most w and the transform's error
    stays far below 1/2."""
    cells = np.flatnonzero(a)
    if not cells.size:
        return np.zeros(0, dtype=np.int64)
    w = int(cells[-1] - cells[0]) + 1
    n = 1 << (2 * w - 2).bit_length()
    ind = np.zeros(n)
    ind[cells - cells[0]] = 1.0
    a_hat = np.fft.rfft(ind)
    return np.rint(np.fft.irfft((a_hat * a_hat.conj()).real, n=n)[:w]).astype(np.int64)


def _product_tables(factors: tuple[np.ndarray, ...], quadric: tuple[str, int]) -> tuple[list, np.ndarray]:
    """The mod-q tables of a product E = A_1 x ... x A_d against a quadric:
    one per head axis, its ordered pairs binned by g^2 mod q for their
    difference g, and one last-axis table over S = |z'|^2 mod q, the pairs
    at g = S (paraboloid) or at g^2 = t - S (sphere). The pair count is
    sum_S T[S] last[S], where T is the cyclic convolution of the head tables.
    Each factor's pairs by g mod q are its autocorrelation with the lags
    folded mod q."""
    q = len(factors[0])
    squares = _square_sums(q, 1)
    corr = []
    for a in factors:
        lags = _autocorrelation(a)
        w = len(lags)
        c = np.zeros(q, dtype=np.int64)
        c[:w] = lags  # the lags g = 0, ..., w - 1
        c[q - w + 1 :] += lags[:0:-1]  # and -g = q - g for g = w - 1, ..., 1
        corr.append(c)

    def by_square(c):  # a bin of g^2 holds the pairs at g and -g: at most 2w <= 2q, exact in float64
        return np.bincount(squares, weights=c, minlength=q).astype(np.int64)

    kind, t = quadric
    last = corr[-1] if kind == "paraboloid" else by_square(corr[-1])[(t - np.arange(q)) % q]
    return [by_square(c) for c in corr[:-1]], last


def _product_quadric_count(factors: tuple[np.ndarray, ...], quadric: tuple[str, int]) -> float:
    """The sum over z in the quadric of (E * E)(z) = prod_j (A_j * A_j)(z_j),
    for the product E = A_1 x ... x A_d, with no q^d grid: O(d q log q).

    The head tables (_product_tables) are convolved cyclically by length-q
    FFTs into T and summed against the last-axis table, in float64, so the
    count can be off once it passes 2^53.
    """
    q = len(factors[0])
    heads, last = _product_tables(factors, quadric)
    spec = np.ones(q // 2 + 1, complex)  # the transform of T for no head axes, the unit at S = 0
    for h in heads:
        spec *= np.fft.rfft(h)
    return float(np.fft.irfft(spec, n=q) @ last)


def ff_fourier(S: FFSet) -> FFSpectrum:
    """The DFT f_hat(m) = q^-d sum_x exp(-2 pi i x.m / q) f(x), which is
    NumPy's forward FFT (Bluestein's algorithm for a prime length q); cost
    O(q^d log q)."""
    values = np.fft.fftn(S.indicator)
    values /= S.q**S.dim
    return FFSpectrum(q=S.q, dim=S.dim, values=values)


def ff_pair_count(E: FFSet, gamma: FFSet, method: str = "brute"):
    """#{(x, y) in E x E : x - y in gamma}.

    ``brute`` is exact (integer result): for a product E against a quadric,
    the factors' mod-q difference tables convolved in int64
    (_product_quadric_pairs), pair enumeration otherwise. ``fourier`` sums
    E's autocorrelation (E * E)(z) = #{(x, y) in E x E : x - y = z} over z in
    gamma, in float64, so it can be off once the count passes 2^53. When E
    is a product of 1-D factors and gamma a quadric (sharpness_set against
    ff_paraboloid or ff_sphere), the autocorrelation is the product of the
    factors' and the sum runs over their squares, with no q^d grid: the same
    tables convolved by FFTs (_product_quadric_count). For any other
    input it is the inverse transform of |E_hat|^2, taken by irfftn from E's
    half spectrum on the grid; gamma is not transformed.
    """
    if (E.q, E.dim) != (gamma.q, gamma.dim):
        raise ParameterError("E and gamma must live over the same (q, dim)")
    q, d = E.q, E.dim
    if method == "brute":
        if E.factors is not None and gamma.quadric is not None:
            return _product_quadric_pairs(E.factors, gamma.quadric)
        flat = gamma.indicator.ravel()
        # the grid holds at most _MAX_CELLS < 2^31 cells, so flat indices fit
        # in int32; a chunk holds, per pair, the flat index of x - y, one
        # axis's difference and the lookup: under 12 bytes
        cols = E.coords().T.astype(np.int32)
        n = cols.shape[1]
        rows = max(1, _PAIR_BYTES // max(1, 12 * n))
        total = 0
        for i0 in range(0, n, rows):
            idx = np.zeros((min(rows, n - i0), n), dtype=np.int32)
            for col in cols:
                diff = np.subtract.outer(col[i0 : i0 + rows], col)
                diff %= q
                idx *= q
                idx += diff
            total += int(np.count_nonzero(flat[idx]))
        return total
    if method == "fourier":
        if E.factors is not None and gamma.quadric is not None:
            return _product_quadric_count(E.factors, gamma.quadric)
        e_hat = _spectrum(E.indicator)
        # |E_hat|^2 in place: the complex product, which may round through a
        # fused multiply-add, not re^2 + im^2
        power = np.multiply(e_hat, e_hat.conj(), out=e_hat).real
        corr = np.fft.irfftn(power, s=E.indicator.shape, axes=range(d))
        return float(corr[gamma.indicator].sum())
    raise ParameterError(f"unknown method {method!r}")


def _product_quadric_pairs(factors: tuple[np.ndarray, ...], quadric: tuple[str, int]) -> int:
    """The exact pair count of a product E against a quadric, with no q^d
    grid: the head tables (_product_tables) are convolved cyclically in
    int64 into T, each step summing the shifts of whichever side has fewer
    nonzero bins, and sum_S T[S] last[S] is read in Python ints. A step is
    refused when max(T) times the sum of the next table could pass 2^63."""
    q = len(factors[0])
    heads, last = _product_tables(factors, quadric)
    table = np.zeros(q, dtype=np.int64)
    table[0] = 1  # T for no head axes, the unit at S = 0
    for b in heads:
        if int(table.max()) * int(b.sum()) >= 2**63:
            raise CapacityError(f"a head table of {q} bins could pass 2^63 pairs in int64")
        if np.count_nonzero(b) > np.count_nonzero(table):
            table, b = b, table
        out = np.zeros(q, dtype=np.int64)
        for u in np.flatnonzero(b):
            out += b[u] * np.roll(table, u)
        table = out
    cells = np.flatnonzero(last)
    return sum(map(operator.mul, table[cells].tolist(), last[cells].tolist()))


def sharpness_set(q: int, delta: float, d: int) -> FFSet:
    """The product E = A^(d-1) x B with A = {0, ..., floor(q^(1/2-delta))}
    and B = {0, ..., floor((d-1) q^(1-2 delta))}, all as residues mod q,
    kept as its per-axis factors."""
    _validate_field(q, d)
    if d < 2:
        raise ParameterError("sharpness_set needs dim >= 2")
    if not (0.0 < delta <= 0.25):
        raise ParameterError(f"delta must lie in (0, 1/4], got {delta!r}")
    a_max = math.floor(q ** (0.5 - delta))
    b_max = math.floor((d - 1) * q ** (1.0 - 2.0 * delta))
    if b_max >= q:
        raise ParameterError(
            f"(d-1) q^(1-2 delta) = {b_max} wraps around mod q = {q}; increase delta or q"
        )
    cells = np.arange(q)
    return FFSet(q=q, dim=d, factors=(cells <= a_max,) * (d - 1) + (cells <= b_max,))


def sharpness_ratio(q: int, delta: float, d: int) -> float:
    """Pair count of the sharpness set against the paraboloid, divided by
    |E|^2 / q. Grows like q^(2 delta), defeating any uniform pair-count
    bound below the |E| ~ q^((d+1)/2) threshold. Exact, with no q^d grid."""
    E = sharpness_set(q, delta, d)
    return ff_pair_count(E, ff_paraboloid(q, d)) * q / E.size**2
