"""Incidence counting engines.

Three counters: exact on-surface incidences for the Valtr grid against
translates of the paraboloid body, thickness-eps annulus incidences for
arbitrary point sets (bucketed grid and brute methods that agree exactly,
and an exact difference-class method for product sets), and the measure
ratio that drives the thickened-distance-band growth experiment. The exact
Valtr count, the ``classes`` annulus method and the measure ratio share one
band kernel over the per-axis gap multisets of a product set, in pure
integer arithmetic; the Valtr counters read the axes of ``gen_valtr`` and
never build its points. The ``brute`` annulus method decides each
unordered pair once, in tiles of the upper triangle of about 512 KiB that
go round robin to a thread pool when asked; each worker holds one r^2 tile
and its difference buffer, and the count is the same for any thread count.
An O(N^2) brute-force Valtr oracle serves the tests.

All pair counts are over ordered pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import CapacityError, InputError, ParameterError
from .gauge import EUCLIDEAN, LOWER, PARABOLOID_BODY, RIDGE, UPPER, Gauge, gauge_values
from .pointsets import PointSet, gen_valtr

ALL_CAPS = (UPPER, LOWER, RIDGE)

# Euclidean norm of a unit-gauge vector of the paraboloid body lies in
# [sqrt(3)/2, 1]: the caps meet the axis at distance 1 and the ridge at 1,
# with the flattest point at |x'|^2 = 1/2. Used for conservative prefilters.
_PB_INNER = math.sqrt(3.0) / 2.0

_TILE_BYTES = 1 << 19  # one r^2 tile and its difference buffer fit in L2
_MAX_OCCUPIED_CELLS = 20_000
_PRUNE_PAIRS = 1 << 20  # cell pairs per block of the grid prune
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


def _brute_valtr_cap_counts(n: int, d: int, chunk: int = 1024) -> tuple[int, int, int]:
    """O(N^2) ordered-pair enumeration; (upper, lower, ridge) counts.

    Iterates the j > i triangle only: the reverse of an upper pair is a lower
    pair and vice versa, and ridge pairs reverse to ridge pairs.
    """
    N = n ** (d + 1)
    if N > 60_000:
        raise CapacityError(f"brute enumeration over {N}^2 ordered pairs refused")
    dtype = np.int16 if n <= 90 else np.int32
    cols = [g.ravel() for g in np.meshgrid(*(np.asarray(ax, dtype) for ax in gen_valtr(n, d).axes), indexing="ij")]
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
    P = gen_valtr(n, d)
    caps = _validate_caps(caps)
    if method == "exact_integer":
        # a reversed pair flips the sign of the last-axis gap: upper <-> lower
        ridge, off_ridge = _annulus_classes(P.axes, P.denominators, PARABOLOID_BODY, 1, 0)
        by_cap = {UPPER: off_ridge // 2, LOWER: off_ridge // 2, RIDGE: ridge}
    elif method == "brute":
        upper, lower, ridge = _brute_valtr_cap_counts(n, d)
        by_cap = {UPPER: upper, LOWER: lower, RIDGE: ridge}
    else:
        raise ParameterError(f"unknown method {method!r}")
    count = sum(by_cap[c] for c in caps)
    return IncidenceReport(
        count=count,
        n_points=P.n_points,
        norm=PARABOLOID_BODY,
        t=1.0,
        eps=0.0,
        caps=caps,
        method=method,
    )


def _fill_r2(out: np.ndarray, buf: np.ndarray, src: np.ndarray, cols: np.ndarray) -> None:
    """out[i, j] = |y_j - x_i|^2 for x in src and y in cols (one row per
    axis), summed axis by axis in order through the difference buffer buf;
    the first axis's square is written as is (0 + x == x)."""
    for k, col in enumerate(cols):
        np.subtract(col, src[:, k, None], out=buf)
        if k == 0:
            np.multiply(buf, buf, out=out)
        else:
            out += np.multiply(buf, buf, out=buf)


def _pair_r2(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """|y - x|^2 for x in src (rows) and y in tgt (columns), filled in row
    tiles of about _TILE_BYTES through one reused difference buffer, so each
    pass over a tile stays in cache."""
    cols = np.ascontiguousarray(tgt.T)
    r2 = np.empty((len(src), len(tgt)))
    rows = max(1, _TILE_BYTES // r2.itemsize // len(tgt))
    diff = np.empty((min(rows, len(src)), len(tgt)))
    for i0 in range(0, len(src), rows):
        out = r2[i0 : i0 + rows]
        _fill_r2(out, diff[: len(out)], src[i0 : i0 + rows], cols)
    return r2


def _map_upper_tiles(fn, pts: np.ndarray, threads: int) -> list:
    """fn(r2, i0, i1) for each tile of rows i0..i1 against columns i0..N-1,
    with r2[i - i0, j - i0] = |p_j - p_i|^2 and inf where j <= i: each
    unordered pair once, as a - b == -(b - a) makes r^2 the same float64
    both ways round. A tile holds about _TILE_BYTES (one row when a row is
    larger), so the boundaries depend on N only; tiles go round robin to
    ``threads`` workers, each with one reused r^2 and difference buffer,
    and the results come back in no fixed order."""
    n, bounds = len(pts), [0]
    while bounds[-1] < n:
        bounds.append(min(n, bounds[-1] + max(1, _TILE_BYTES // 8 // (n - bounds[-1]))))
    tiles = list(zip(bounds, bounds[1:]))
    cols = np.ascontiguousarray(pts.T)
    size = max((i1 - i0) * (n - i0) for i0, i1 in tiles)
    lower = np.tri(max(i1 - i0 for i0, i1 in tiles), dtype=bool)

    def work(w):
        r2_buf, diff_buf, out = np.empty(size), np.empty(size), []
        for i0, i1 in tiles[w::threads]:
            rows, shape = i1 - i0, (i1 - i0, n - i0)
            r2 = r2_buf[: rows * shape[1]].reshape(shape)
            _fill_r2(r2, diff_buf[: r2.size].reshape(shape), pts[i0:i1], cols[:, i0:])
            np.copyto(r2[:, :rows], np.inf, where=lower[:rows, :rows])
            out.append(fn(r2, i0, i1))
        return out

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [v for part in pool.map(work, range(threads)) for v in part]
    return work(0)


def _band_count(g: Gauge, r2: np.ndarray, src: np.ndarray, tgt: np.ndarray, t: float, eps: float) -> int:
    """Pairs (x in src, y in tgt) with t <= ||y - x|| <= t + eps, both ends
    closed, given r2 = |y - x|^2 (overwritten); an r2 of 0 (x = y) or inf
    is outside the band."""
    hi = t + eps
    if g.kind == PARABOLOID_BODY:
        i, j = np.nonzero((r2 >= (t * _PB_INNER) ** 2) & (r2 <= hi * hi))
        v = gauge_values(g, tgt[j] - src[i])
    else:
        v = np.sqrt(r2, out=r2)
    return int(((v >= t) & (v <= hi)).sum())


def _annulus_brute(pts: np.ndarray, g: Gauge, t: float, eps: float, threads: int) -> int:
    def one(r2, i0, i1):
        return _band_count(g, r2, pts[i0:i1], pts[i0:], t, eps)

    return 2 * sum(_map_upper_tiles(one, pts, threads))  # r^2 and the gauge are symmetric


def _annulus_grid(pts: np.ndarray, g: Gauge, t: float, eps: float) -> int:
    """Bucket points into cells of side h = max(eps, t/64) and test only pairs
    whose cells can hold a distance inside the band: two cells whose index
    gaps are g_k contain points at Euclidean distance between h*sqrt(S_min)
    and h*sqrt(S_max), S_min = sum max(g_k - 1, 0)^2 and
    S_max = sum (g_k + 1)^2, so everything outside [inner, outer] is pruned.
    Both float tests are tabulated once over the integer sums, which are
    accumulated axis by axis in blocks of about 2^20 cell pairs, so every
    prune decision is the one a per-pair float test makes. A gap is clipped
    at ceil(outer/h) + 2, past which the pair is too far either way (h*sqrt
    is monotone in S), so the table has about d*68^2 entries at most:
    outer/h <= 65 since h >= eps and h >= t/64. Membership uses the same
    gauge evaluation as the brute method, hence the counts agree exactly."""
    d = pts.shape[1]
    h = max(eps, t / 64.0)
    inner = t * (_PB_INNER if g.kind == PARABOLOID_BODY else 1.0)
    outer = t + eps
    keys, inverse = np.unique(np.floor(pts / h).astype(np.int64), axis=0, return_inverse=True)
    n_cells = len(keys)
    if n_cells > _MAX_OCCUPIED_CELLS:
        raise CapacityError(f"{n_cells} occupied cells exceed the grid-method limit; use method='brute'")
    order = np.argsort(inverse, kind="stable")
    by_cell = pts[order]
    bounds = np.searchsorted(inverse[order], np.arange(n_cells + 1))
    sizes = np.diff(bounds)
    clip = math.ceil(outer / h) + 2
    gaps = np.arange(clip + 1)
    sq_min, sq_max = (np.maximum(gaps - 1, 0) ** 2).astype(np.int32), ((gaps + 1) ** 2).astype(np.int32)
    sums = np.sqrt(np.arange(d * (clip + 1) ** 2 + 1))
    close, far = h * sums <= outer, h * sums >= inner
    count = 0
    rows = max(1, _PRUNE_PAIRS // n_cells)
    for i0 in range(0, n_cells, rows):
        for k in range(d):
            gap = np.subtract(keys[None, :, k], keys[i0 : i0 + rows, None, k])
            np.minimum(np.abs(gap, out=gap), clip, out=gap)
            if k == 0:
                s_min, s_max = sq_min.take(gap), sq_max.take(gap)
            else:
                s_min += sq_min.take(gap)
                s_max += sq_max.take(gap)
        near = close.take(s_min) & far.take(s_max)
        for row, targets in enumerate(near, start=i0):
            tgt_cells = np.nonzero(targets)[0]
            if tgt_cells.size == 0:
                continue
            # each target cell's run of by_cell, concatenated: run start + ramp
            lengths = sizes[tgt_cells]
            ends = np.cumsum(lengths)
            idx = np.repeat(bounds[tgt_cells] - ends + lengths, lengths) + np.arange(ends[-1])
            src, tgt = by_cell[bounds[row] : bounds[row + 1]], by_cell[idx]
            count += _band_count(g, _pair_r2(src, tgt), src, tgt, t, eps)
    return count


def _even_step(axis) -> int | None:
    """The common gap of consecutive values of an axis (1 for a single
    value), or None when the axis is not evenly spaced. A range is evenly
    spaced by construction, so its values are not read."""
    step = axis[1] - axis[0] if len(axis) > 1 else 1
    if isinstance(axis, range) or all(b - a == step for a, b in zip(axis, axis[1:])):
        return step
    return None


def _axis_gaps(axis) -> dict[int, int]:
    """|b - a| over the ordered pairs (a, b) of one axis of k values, with
    multiplicities: k at gap 0, and 2(k - m) at m*step on an evenly spaced
    axis; any other axis is enumerated. Refused beyond the class limit."""
    k, step = len(axis), _even_step(axis)
    if (k if step is not None else k * (k - 1) // 2) > _MAX_PRODUCT_CLASSES:
        raise CapacityError(f"an axis of {k} values exceeds the exact-path limit")
    if step is not None:
        return {0: k} | {m * step: 2 * (k - m) for m in range(1, k)}
    pairs = Counter(b - a for i, a in enumerate(axis) for b in axis[i + 1 :])
    return {0: k} | {gap: 2 * c for gap, c in pairs.items()}


def _gap_counter(axis):
    """count(lo, hi): the ordered pairs (a, b) of one axis with
    1 <= lo <= |b - a| <= hi; on an evenly spaced axis the series
    sum 2(k - m) over the admissible m, in closed form, and on any other
    axis prefix sums over its enumerated gaps."""
    k, step = len(axis), _even_step(axis)
    if step is None:
        gaps = sorted(_axis_gaps(axis).items())
        keys = [gap for gap, _ in gaps]
        prefix = list(accumulate((m for _, m in gaps), initial=0))
        return lambda lo, hi: prefix[bisect_right(keys, hi)] - prefix[bisect_left(keys, lo)]

    def count(lo, hi):
        m_lo, m_hi = -(-lo // step), min(k - 1, hi // step)
        return (m_hi - m_lo + 1) * (2 * k - m_lo - m_hi) if m_lo <= m_hi else 0

    return count


def _head_classes(axes, denominators) -> tuple[int, dict[int, int]]:
    """The ordered pairs of the product of ``axes`` grouped by squared
    length: (Q, {R: pairs}), Q = lcm(den_j^2), where R / Q = |x|^2 for the
    difference x of each pair. Refuses more than the class limit before
    the table is built."""
    gaps = [_axis_gaps(ax) for ax in axes]
    classes = math.prod(map(len, gaps))
    if classes > _MAX_PRODUCT_CLASSES:
        raise CapacityError(f"{classes} head difference classes exceed the exact-path limit")
    Q = math.lcm(*(d * d for d in denominators))
    r2 = {0: 1}
    for axis_gaps, d in zip(gaps, denominators):
        scale = Q // (d * d)
        squares = [(scale * gap * gap, mg) for gap, mg in axis_gaps.items()]
        nxt = defaultdict(int)
        for r, m in r2.items():
            for sq, mg in squares:
                nxt[r + sq] += m * mg
        r2 = nxt
    return Q, r2


def _annulus_classes(axes, denominators, kind: str, t, eps) -> tuple[int, int]:
    """Ordered pairs of the product set with these axes and denominators in
    the closed band t <= ||q - p|| <= h, h = t + eps, with t and eps taken
    as exact rationals; split into (last-axis gap 0, last-axis gap
    nonzero).

    The differences of a product set factor into per-axis gaps. The head
    axes (all but the last) give r^2 = R/Q, grouped by R (_head_classes).
    For each R the admissible gaps G of the last axis (a = G/L, L its
    denominator) form an interval: t^2 <= r^2 + a^2 <= h^2 for the
    Euclidean gauge, r^2 + t*a >= t^2 and r^2 + h*a <= h^2 for the
    paraboloid body. Its ends are decided in Python integers and its
    multiplicity is counted by _gap_counter, so no float is involved.
    """
    if kind not in (EUCLIDEAN, PARABOLOID_BODY):
        raise ParameterError(f"method 'classes' does not support gauge {kind!r}")
    *head, last = axes
    *head_dens, L = denominators
    Q, r2 = _head_classes(head, head_dens)
    count = _gap_counter(last)
    (tn, td), (hn, hd) = Fraction(t).as_integer_ratio(), (Fraction(t) + Fraction(eps)).as_integer_ratio()
    zero = rest = 0
    for r, m in r2.items():
        # (t^2 - r^2) = lo_num / (td^2 Q) and (h^2 - r^2) = hi_num / (hd^2 Q)
        lo_num = tn * tn * Q - r * td * td
        hi_num = hn * hn * Q - r * hd * hd
        if hi_num < 0:
            continue
        if kind == EUCLIDEAN:
            # a^2 >= t^2 - r^2 and a^2 <= h^2 - r^2, with a = G / L
            need = -(-L * L * lo_num // (td * td * Q))
            lo = math.isqrt(need - 1) + 1 if need > 0 else 0
            hi = math.isqrt(L * L * hi_num // (hd * hd * Q))
        else:
            # a >= (t^2 - r^2) / t and a <= (h^2 - r^2) / h
            lo = max(0, -(-L * lo_num // (td * Q * tn)))
            hi = L * hi_num // (hd * Q * hn)
        if lo == 0:
            zero += m
            lo = 1
        if lo <= hi:
            rest += m * count(lo, hi)
    return zero * len(last), rest


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
        if P.axes is None:
            raise ParameterError("method 'classes' needs a product set built from axes")
        count = sum(_annulus_classes(P.axes, P.denominators, g.kind, t, eps))
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
    P = gen_valtr(n, d)
    if not (d / 2 <= s < (d + 1) / 2):
        raise ParameterError(f"s={s!r} outside [d/2, (d+1)/2) for d={d}")
    N = P.n_points
    eps = float(N) ** (-1.0 / s)
    count = sum(_annulus_classes(P.axes, P.denominators, PARABOLOID_BODY, 1, eps))
    measure_lhs = count / (N * N)  # eps^(2s) * count, using eps^s = 1/N exactly
    return FalconerRatio(n_points=N, eps=eps, count=count, measure_lhs=measure_lhs, ratio=measure_lhs / eps)
