"""Incidence counting engines.

Three counters: exact on-surface incidences for the Valtr grid against
translates of the paraboloid body, thickness-eps annulus incidences for
arbitrary point sets (bucketed grid and brute methods that agree exactly,
and an exact difference-class method for product sets), and the measure
ratio that drives the thickened-distance-band growth experiment. The first
and the last share one difference-class kernel in pure integer arithmetic,
with an O(N^2) brute-force oracle for tests.

All pair counts are over ordered pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InputError, ParameterError
from .gauge import EUCLIDEAN, LOWER, PARABOLOID_BODY, RIDGE, UPPER, Gauge, gauge_values
from .pointsets import PointSet, difference_classes

ALL_CAPS = (UPPER, LOWER, RIDGE)

# Euclidean norm of a unit-gauge vector of the paraboloid body lies in
# [sqrt(3)/2, 1]: the caps meet the axis at distance 1 and the ridge at 1,
# with the flattest point at |x'|^2 = 1/2. Used for conservative prefilters.
_PB_INNER = math.sqrt(3.0) / 2.0

_CHUNK_ROWS = 2048
_MAX_GRID_CELLS = 20_000_000
_MAX_OCCUPIED_CELLS = 20_000
_MAX_PRODUCT_CLASSES = 4_000_000


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


def _axis_gaps(axis: tuple[int, ...]) -> dict[int, int]:
    """|b - a| over the ordered pairs (a, b) of one axis, with
    multiplicities: gap 0 occurs once per value and a positive gap twice
    per unordered pair. An evenly spaced axis has the closed form m*step
    with multiplicity 2(k - m); any other axis is enumerated, up to the
    class limit."""
    k = len(axis)
    step = axis[1] - axis[0] if k > 1 else 0
    if all(b - a == step for a, b in zip(axis, axis[1:])):
        return {0: k} | {m * step: 2 * (k - m) for m in range(1, k)}
    if k * (k - 1) // 2 > _MAX_PRODUCT_CLASSES:
        raise CapacityError(f"an uneven axis of {k} values exceeds the exact-path limit")
    pairs = Counter(b - a for i, a in enumerate(axis) for b in axis[i + 1 :])
    return {0: k} | {gap: 2 * c for gap, c in pairs.items()}


def _annulus_classes(P: PointSet, g: Gauge, t, eps) -> int:
    """Ordered pairs of the product set P in the closed band
    t <= ||q - p|| <= h, h = t + eps, with t and eps taken as exact
    rationals.

    The differences of a product set factor into per-axis gaps. The head
    axes (all but the last) give r^2 = |x'|^2 = R/Q as an integer R over
    Q = lcm(den_j^2), grouped by R. For each R the admissible gaps G of the
    last axis (a = G/L, L its denominator) form an interval: t^2 <= r^2 + a^2 <= h^2 for the
    Euclidean gauge, r^2 + t*a >= t^2 and r^2 + h*a <= h^2 for the
    paraboloid body. Its ends are decided in Python integers and its
    multiplicity is read from prefix sums, so no float is involved.
    """
    if P.axes is None:
        raise ParameterError("method 'classes' needs a product set built from axes")
    if g.kind not in (EUCLIDEAN, PARABOLOID_BODY):
        raise ParameterError(f"method 'classes' does not support gauge {g.kind!r}")
    *head_gaps, last_gaps = map(_axis_gaps, P.axes)
    *head_dens, L = P.denominators
    classes = math.prod(map(len, head_gaps))
    if classes > _MAX_PRODUCT_CLASSES:
        raise CapacityError(f"{classes} head difference classes exceed the exact-path limit")
    Q = math.lcm(*(d * d for d in head_dens))
    r2 = {0: 1}
    for gaps, d in zip(head_gaps, head_dens):
        scale = Q // (d * d)
        squares = [(scale * gap * gap, mg) for gap, mg in gaps.items()]
        nxt = defaultdict(int)
        for r, m in r2.items():
            for sq, mg in squares:
                nxt[r + sq] += m * mg
        r2 = nxt
    gaps = sorted(last_gaps.items())
    keys = [gap for gap, _ in gaps]
    prefix = [0]
    for _, m in gaps:
        prefix.append(prefix[-1] + m)
    lo_f, hi_f = Fraction(t), Fraction(t) + Fraction(eps)
    tn, td = lo_f.numerator, lo_f.denominator
    hn, hd = hi_f.numerator, hi_f.denominator
    total = 0
    for r, m in r2.items():
        # (t^2 - r^2) = lo_num / (td^2 Q) and (h^2 - r^2) = hi_num / (hd^2 Q)
        lo_num = tn * tn * Q - r * td * td
        hi_num = hn * hn * Q - r * hd * hd
        if hi_num < 0:
            continue
        if g.kind == EUCLIDEAN:
            # a^2 >= t^2 - r^2 and a^2 <= h^2 - r^2, with a = G / L
            need = -(-L * L * lo_num // (td * td * Q))
            lo = math.isqrt(need - 1) + 1 if need > 0 else 0
            hi = math.isqrt(L * L * hi_num // (hd * hd * Q))
        else:
            # a >= (t^2 - r^2) / t and a <= (h^2 - r^2) / h
            lo = max(0, -(-L * lo_num // (td * Q * tn)))
            hi = L * hi_num // (hd * Q * hn)
        if lo <= hi:
            total += m * (prefix[bisect_right(keys, hi)] - prefix[bisect_left(keys, lo)])
    return total


def annulus_incidences(
    P: PointSet,
    g: Gauge,
    t: float,
    eps: float,
    method: str = "brute",
    threads: int = 1,
) -> IncidenceReport:
    """Ordered pairs (x, y), x != y, with t <= ||x - y|| <= t + eps (both
    endpoints closed).

    ``brute`` and ``grid`` evaluate the gauge in float64 on ``to_floats``
    coordinates; ``classes`` counts a product set (one built from ``axes``)
    by difference classes in exact integer arithmetic, with t and eps taken
    as the exact rationals of their values. ``threads`` applies to
    ``brute`` only."""
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
    if method == "brute":
        count = _annulus_brute(P.to_floats(), g, float(t), float(eps), threads)
    elif method == "grid":
        count = _annulus_grid(P.to_floats(), g, float(t), float(eps))
    elif method == "classes":
        count = _annulus_classes(P, g, t, eps)
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
