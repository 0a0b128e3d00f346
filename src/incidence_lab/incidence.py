"""Incidence counting engines.

Three counters: exact on-surface incidences for the Valtr grid against
translates of the paraboloid body, thickness-eps annulus incidences for
arbitrary point sets (bucketed grid and brute methods that agree exactly),
and the measure ratio that drives the thickened-distance-band growth
experiment. The first and the last share one difference-class kernel in
pure integer arithmetic, with an O(N^2) brute-force oracle for tests.

All pair counts are over ordered pairs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InputError, ParameterError
from .gauge import LOWER, PARABOLOID_BODY, RIDGE, UPPER, Gauge, gauge_values
from .pointsets import PointSet, difference_classes

ALL_CAPS = (UPPER, LOWER, RIDGE)

# Euclidean norm of a unit-gauge vector of the paraboloid body lies in
# [sqrt(3)/2, 1]: the caps meet the axis at distance 1 and the ridge at 1,
# with the flattest point at |x'|^2 = 1/2. Used for conservative prefilters.
_PB_INNER = math.sqrt(3.0) / 2.0

_CHUNK_ROWS = 2048
_MAX_GRID_CELLS = 20_000_000
_MAX_OCCUPIED_CELLS = 20_000


@dataclass(frozen=True)
class IncidenceReport:
    """Result of one incidence count, with the parameters that produced it."""

    count: int
    n_points: int
    norm: str
    t: float
    eps: float
    caps: tuple[str, ...]
    method: str


def _validate_caps(caps) -> tuple[str, ...]:
    caps = tuple(caps)
    for c in caps:
        if c not in ALL_CAPS:
            raise ParameterError(f"unknown cap {c!r}")
    if len(set(caps)) != len(caps):
        raise ParameterError("duplicate caps")
    return caps


def _valtr_band_counts(n: int, d: int, eps: float) -> tuple[int, int]:
    """Ordered pairs of the Valtr grid whose difference has paraboloid gauge
    in the closed band [1, h], h = 1 + eps taken as an exact rational; split
    into (last-axis gap 0, last-axis gap nonzero).

    A difference (D'/n, A/n^2) with S = |D'|^2 and a = |A| has gauge >= 1
    iff S + a >= n^2, and gauge <= h iff S + h*a <= h^2 n^2. The admissible
    gaps of one head class therefore form the integer interval
    max(0, n^2 - S) <= a <= floor((h^2 n^2 - S) / h), and last-axis pairs
    with gap a number n^2 for a = 0 and 2(n^2 - a) for 0 < a < n^2. Head
    classes are grouped by S and every interval is decided in Python
    integers, so the count is exact for every n and eps.
    """
    cells = (2 * n - 1) ** (d - 1)
    if cells > _MAX_GRID_CELLS:
        raise CapacityError(f"{cells} difference classes exceed the exact-path limit")
    grids, mult = difference_classes((n,) * (d - 1))
    s_vals, inverse = np.unique(sum(g * g for g in grids).ravel(), return_inverse=True)
    s_mult = np.zeros(len(s_vals), dtype=np.int64)
    np.add.at(s_mult, inverse.ravel(), mult.ravel())
    h = 1 + Fraction(eps)
    p, q = h.numerator, h.denominator
    n2 = n * n
    ridge = off_ridge = 0
    for s, m in zip(s_vals.tolist(), s_mult.tolist()):
        lo = max(0, n2 - s)
        hi = min(n2 - 1, (p * p * n2 - s * q * q) // (p * q))
        if lo == 0 and hi >= 0:
            ridge += m * n2
            lo = 1
        if lo <= hi:
            off_ridge += m * (hi - lo + 1) * (2 * n2 - lo - hi)
    return ridge, off_ridge


def _valtr_index_columns(n: int, d: int, dtype) -> list[np.ndarray]:
    axes = [np.arange(n, dtype=dtype)] * (d - 1) + [np.arange(1, n * n + 1, dtype=dtype)]
    grids = np.meshgrid(*axes, indexing="ij")
    return [g.ravel() for g in grids]


def _brute_valtr_cap_counts(n: int, d: int, chunk: int = 1024) -> tuple[int, int, int]:
    """O(N^2) ordered-pair enumeration; (upper, lower, ridge) counts.

    Iterates the j > i triangle only: the reverse of an upper pair is a lower
    pair and vice versa, and ridge pairs reverse to ridge pairs.
    """
    N = n ** (d + 1)
    if N > 60_000:
        raise CapacityError(f"brute enumeration over {N}^2 ordered pairs refused")
    dtype = np.int16 if n <= 90 else np.int32
    cols = _valtr_index_columns(n, d, dtype)
    n2 = dtype(n * n)
    # rows i0..i1 against columns i0..N: the j > i triangle condition only
    # depends on the local offsets, so one precomputed mask serves all chunks
    tri_full = np.arange(N)[None, :] > np.arange(min(chunk, N))[:, None]
    tri_up = tri_lo = tri_ri = 0
    for i0 in range(0, N, chunk):
        i1 = min(i0 + chunk, N)
        tri = tri_full[: i1 - i0, : N - i0]
        s = None
        for c in cols[:-1]:
            dh = c[None, i0:] - c[i0:i1, None]
            dh *= dh
            s = dh if s is None else s + dh
        dd = cols[-1][None, i0:] - cols[-1][i0:i1, None]
        on = (s + np.abs(dd) == n2) & tri
        tri_up += int((on & (dd > 0)).sum())
        tri_lo += int((on & (dd < 0)).sum())
        tri_ri += int((on & (dd == 0)).sum())
    ordered_cap = tri_up + tri_lo
    return ordered_cap, ordered_cap, 2 * tri_ri


def exact_valtr_incidences(n: int, d: int, caps=ALL_CAPS, method: str = "exact_integer") -> IncidenceReport:
    """Ordered pairs (p, q) of Valtr grid points with q - p exactly on the
    unit surface of the paraboloid body, restricted to the given caps."""
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(d, int) and d >= 2):
        raise ParameterError(f"d must be an integer >= 2, got {d!r}")
    caps = _validate_caps(caps)
    if method == "exact_integer":
        ridge, off_ridge = _valtr_band_counts(n, d, 0.0)
        by_cap = {UPPER: off_ridge // 2, LOWER: off_ridge // 2, RIDGE: ridge}
    elif method == "brute":
        upper, lower, ridge = _brute_valtr_cap_counts(n, d)
        by_cap = {UPPER: upper, LOWER: lower, RIDGE: ridge}
    else:
        raise ParameterError(f"unknown method {method!r}")
    count = sum(by_cap[c] for c in caps)
    return IncidenceReport(
        count=count,
        n_points=n ** (d + 1),
        norm=PARABOLOID_BODY,
        t=1.0,
        eps=0.0,
        caps=caps,
        method=method,
    )


def _band_count_block(g: Gauge, src: np.ndarray, tgt: np.ndarray, t: float, eps: float) -> int:
    """Pairs (x in src, y in tgt) with t <= ||y - x|| <= t + eps, both ends
    closed. Self-pairs evaluate to 0 and are excluded by t > 0."""
    hi = t + eps
    if g.kind == PARABOLOID_BODY:
        diff = tgt[None, :, :] - src[:, None, :]
        r2 = np.einsum("ijk,ijk->ij", diff, diff)
        cand = np.nonzero((r2 >= (t * _PB_INNER) ** 2) & (r2 <= hi * hi))
        if cand[0].size == 0:
            return 0
        v = gauge_values(g, diff[cand])
        return int(((v >= t) & (v <= hi)).sum())
    diff = tgt[None, :, :] - src[:, None, :]
    v = gauge_values(g, diff)
    return int(((v >= t) & (v <= hi)).sum())


def _map_row_chunks(fn, n_rows: int, threads: int) -> list:
    """fn(rows) for consecutive row slices of at most _CHUNK_ROWS rows,
    returned in slice order; the slices run on a thread pool when
    threads > 1."""
    chunks = [slice(i0, min(i0 + _CHUNK_ROWS, n_rows)) for i0 in range(0, n_rows, _CHUNK_ROWS)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, chunks))
    return [fn(rows) for rows in chunks]


def _annulus_brute(pts: np.ndarray, g: Gauge, t: float, eps: float, threads: int) -> int:
    def one(rows):
        return _band_count_block(g, pts[rows], pts, t, eps)

    return sum(_map_row_chunks(one, len(pts), threads))


def _annulus_grid(pts: np.ndarray, g: Gauge, t: float, eps: float) -> int:
    """Bucket points into cells of side max(eps, t/64) and test only pairs
    whose cells can hold a distance inside the band: two cells at offset o
    contain points at Euclidean distance between h*|max(|o|-1, 0)| and
    h*|(|o|+1)|, so everything outside [inner, outer] is pruned. Membership
    uses the same gauge evaluation as the brute method, hence the counts
    agree exactly."""
    d = pts.shape[1]
    h = max(eps, t / 64.0)
    inner = t * (_PB_INNER if g.kind == PARABOLOID_BODY else 1.0)
    outer = t + eps
    cell_idx = np.floor(pts / h).astype(np.int64)
    keys, inverse = np.unique(cell_idx, axis=0, return_inverse=True)
    n_cells = len(keys)
    if n_cells > _MAX_OCCUPIED_CELLS:
        raise CapacityError(f"{n_cells} occupied cells exceed the grid-method limit; use method='brute'")
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(n_cells + 1))
    members = [order[bounds[i] : bounds[i + 1]] for i in range(n_cells)]
    count = 0
    chunk = max(1, 4_000_000 // max(1, n_cells * d))
    for i0 in range(0, n_cells, chunk):
        gap = np.abs(keys[None, :, :] - keys[i0 : i0 + chunk, None, :])
        dmin = h * np.sqrt((np.maximum(gap - 1, 0) ** 2).sum(axis=-1))
        dmax = h * np.sqrt(((gap + 1) ** 2).sum(axis=-1))
        near = (dmin <= outer) & (dmax >= inner)
        for row in range(near.shape[0]):
            tgt_cells = np.nonzero(near[row])[0]
            if tgt_cells.size == 0:
                continue
            src = pts[members[i0 + row]]
            tgt = pts[np.concatenate([members[j] for j in tgt_cells])]
            count += _band_count_block(g, src, tgt, t, eps)
    return count


def annulus_incidences(
    P: PointSet,
    g: Gauge,
    t: float,
    eps: float,
    method: str = "brute",
    threads: int = 1,
) -> IncidenceReport:
    """Ordered pairs (x, y), x != y, with t <= ||x - y|| <= t + eps (both
    endpoints closed)."""
    if P.n_points == 0:
        raise InputError("empty point set")
    if g.dim != P.dim:
        raise ParameterError(f"gauge dim {g.dim} != point set dim {P.dim}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"t must be positive, got {t!r}")
    if not (eps >= 0.0 and math.isfinite(eps)):
        raise ParameterError(f"eps must be nonnegative, got {eps!r}")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    pts = P.to_floats()
    if method == "brute":
        count = _annulus_brute(pts, g, float(t), float(eps), threads)
    elif method == "grid":
        count = _annulus_grid(pts, g, float(t), float(eps))
    else:
        raise ParameterError(f"unknown method {method!r}")
    return IncidenceReport(
        count=count,
        n_points=P.n_points,
        norm=g.kind,
        t=float(t),
        eps=float(eps),
        caps=(),
        method=method,
    )


@dataclass(frozen=True)
class FalconerRatio:
    """Measure proxy for the thickened unit-distance band on the Valtr set."""

    n_points: int
    eps: float
    count: int
    measure_lhs: float
    ratio: float


def falconer_measure_ratio(n: int, d: int, s: float) -> FalconerRatio:
    """With N = n^(d+1) and eps = N^(-1/s): band count at t = 1 against the
    paraboloid gauge, scaled by eps^(2s) = N^-2, and its ratio to eps.

    Band membership is evaluated on point differences (cube centers stand in
    for the thickened cubes), in integer arithmetic on the exact rational
    differences and the exact value of the float eps, so ``count`` is exact
    for every n.

    ``count`` is the exact incidences (gauge exactly 1, equal to
    ``exact_valtr_incidences(n, d).count``) plus the near-miss pairs with
    gauge in (1, 1+eps]. For d = 2 and s = 1.4 the near-miss part is empty
    once n >= 128: a difference (D/n, a/n^2) with S = D^2 and gauge 1+delta,
    delta > 0, satisfies delta(2n^2 - a) + n^2 delta^2 = S + a - n^2 >= 1;
    S <= (n-1)^2 gives a >= 2n and hence delta > 1/(2n^2), while
    eps = n^(-15/7) <= 1/(2n^2) exactly when n >= 128.
    """
    if not (isinstance(d, int) and d >= 2):
        raise ParameterError(f"d must be an integer >= 2, got {d!r}")
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    if not (d / 2 <= s < (d + 1) / 2):
        raise ParameterError(f"s={s!r} outside [d/2, (d+1)/2) for d={d}")
    N = n ** (d + 1)
    eps = float(N) ** (-1.0 / s)
    count = sum(_valtr_band_counts(n, d, eps))
    measure_lhs = count / (N * N)  # eps^(2s) * count, using eps^s = 1/N exactly
    return FalconerRatio(n_points=N, eps=eps, count=count, measure_lhs=measure_lhs, ratio=measure_lhs / eps)
