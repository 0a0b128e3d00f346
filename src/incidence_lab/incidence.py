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
The ``grid`` method finds the later target cells of each source cell by
binary search on the sorted cell keys, so it too decides each unordered
pair once, and counts its candidate pairs in chunks of about 2^16, with the
brute method's r^2 and band test; for the paraboloid body both take r^2
over the head axes and the last-axis gap. The Euclidean band test compares
r^2 itself with two float limits, found once per count, that give the same
decision as comparing sqrt(r^2) with t and t + eps. An O(N^2) brute
Valtr oracle on the same tiles, over the integer grid indices, serves the tests.

All pair counts are over ordered pairs.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import CapacityError, InputError, ParameterError
from .gauge import EUCLIDEAN, LOWER, PARABOLOID_BODY, RIDGE, UPPER, Gauge, _body_gauge
from .pointsets import PointSet, gen_valtr

ALL_CAPS = (UPPER, LOWER, RIDGE)

# Euclidean norm of a unit-gauge vector of the paraboloid body lies in
# [sqrt(3)/2, 1]: the caps meet the axis at distance 1 and the ridge at 1,
# with the flattest point at |x'|^2 = 1/2. Used for the grid's cell prune.
_PB_INNER = math.sqrt(3.0) / 2.0

_TILE_BYTES = 1 << 19  # one r^2 tile and its difference buffer fit in L2
_MAX_OCCUPIED_CELLS = 20_000
_PRUNE_PAIRS = 1 << 18  # (source cell, head) pairs per block of the grid prune
_MIN_CELL = 2.0**-60  # a coordinate in [-1, 1] over this keeps its cell key inside int64
_CHUNK_PAIRS = 1 << 16  # candidate pairs per chunk of the grid count
_MAX_PRODUCT_CLASSES = 4_000_000
_INF_BITS = 0x7FF0000000000000  # bit pattern of float64 inf


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


def _brute_valtr_cap_counts(n: int, d: int) -> tuple[int, int, int]:
    """O(N^2) ordered-pair enumeration; (upper, lower, ridge) counts.

    Decides each unordered pair once, on upper-triangle tiles of the grid
    indices (exact in float64): the reverse of an upper pair is a lower pair
    and vice versa, and ridge pairs reverse to ridge pairs.
    """
    N = n ** (d + 1)
    if N > 60_000:
        raise CapacityError(f"brute enumeration over {N}^2 ordered pairs refused")
    grid = np.meshgrid(*(np.asarray(ax, np.float64) for ax in gen_valtr(n, d).axes), indexing="ij")
    idx = np.stack([c.ravel() for c in grid], axis=1)

    def caps(s, i0, i1):
        dd = idx[i0:, -1] - idx[i0:i1, -1, None]
        s += np.abs(dd)  # on the surface: S + |D_d| = n^2; inf for j <= i
        dd = dd[s == n * n]
        return int((dd > 0).sum()), int((dd < 0).sum()), int((dd == 0).sum())

    up, lo, ridge = map(sum, zip(*_map_upper_tiles(caps, idx[:, :-1], 1)))
    return up + lo, up + lo, 2 * ridge


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
        by_cap = dict(zip(ALL_CAPS, _brute_valtr_cap_counts(n, d)))
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


def _fill_r2(out: np.ndarray, buf: np.ndarray, src, cols: np.ndarray) -> None:
    """out = |y - x|^2 for y in cols (one row per axis) and x in src (one
    entry per axis, broadcast against that axis's row of cols), summed axis
    by axis in order through the difference buffer buf; the first axis's
    square is written as is (0 + x == x)."""
    for k, (x, col) in enumerate(zip(src, cols)):
        np.subtract(col, x, out=buf)
        if k == 0:
            np.multiply(buf, buf, out=out)
        else:
            out += np.multiply(buf, buf, out=buf)


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
            _fill_r2(r2, diff_buf[: r2.size].reshape(shape), cols[:, i0:i1, None], cols[:, i0:])
            np.copyto(r2[:, :rows], np.inf, where=lower[:rows, :rows])
            out.append(fn(r2, i0, i1))
        return out

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [v for part in pool.map(work, range(threads)) for v in part]
    return work(0)


def _least_float(pred) -> float:
    """Least finite float64 x >= 0 with pred(x), or inf when there is none.
    pred must be False, then True, along the nonnegative floats, which their
    bit patterns order, so at most 63 bisection steps find it."""
    lo, hi = 0, _INF_BITS
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(_float_of_bits(mid)):
            hi = mid
        else:
            lo = mid + 1
    return _float_of_bits(lo)


def _float_of_bits(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


def _band_limits(g: Gauge, t: float, eps: float) -> tuple[float, float]:
    """(lo, hi) such that a pair is in the band t <= ||y - x|| <= t + eps
    iff lo <= v <= hi, where v is the value _band_count compares: the gauge
    for the paraboloid body, and r2 itself for the Euclidean gauge. There
    lo is the least float with sqrt(lo) >= t and hi the greatest finite float
    with sqrt(hi) <= t + eps; correctly rounded sqrt is monotone, so this is
    the float64 decision on sqrt(r2), with no sqrt pass, for any t > 0,
    tiny or huge, and r2 = inf stays outside."""
    if g.kind == PARABOLOID_BODY:
        return t, t + eps
    lo = _least_float(lambda x: math.sqrt(x) >= t)
    hi = math.nextafter(_least_float(lambda x: math.sqrt(x) > t + eps), 0.0)
    return lo, hi


def _band_count(g: Gauge, r2: np.ndarray, a, band: tuple[float, float]) -> int:
    """Pairs (x, y) with t <= ||y - x|| <= t + eps, both ends closed, given
    band = _band_limits(g, t, eps), r2 = |y - x|^2 summed over the axes the
    gauge squares (all of them for the Euclidean gauge, all but the last for
    the paraboloid body, whose gauge overwrites r2) and a = |y_d - x_d| for
    the paraboloid body, else None. An r2 of inf, or x = y, is outside the
    band."""
    lo, hi = band
    v = _body_gauge(r2, a) if g.kind == PARABOLOID_BODY else r2
    return int(np.count_nonzero((v >= lo) & (v <= hi)))


def _annulus_brute(pts: np.ndarray, g: Gauge, t: float, eps: float, threads: int) -> int:
    body, last, band = g.kind == PARABOLOID_BODY, pts[:, -1], _band_limits(g, t, eps)

    def one(r2, i0, i1):
        return _band_count(g, r2, np.abs(last[i0:] - last[i0:i1, None]) if body else None, band)

    return 2 * sum(_map_upper_tiles(one, pts[:, :-1] if body else pts, threads))  # r^2 and a are symmetric


def _annulus_grid(pts: np.ndarray, g: Gauge, t: float, eps: float) -> int:
    """Band count over the candidate pairs of _grid_runs: the ordered pairs
    inside each cell once, and the pairs of each cell with the later cells
    twice, as r^2 and a are the same float64 both ways round (see
    _map_upper_tiles). Membership uses the same r^2 and the same band test
    as the brute method, hence the counts agree exactly."""
    by_cell, bounds, same, later = _grid_runs(pts, g, t, eps)
    band = _band_limits(g, t, eps)
    count = _runs_band_count(g, by_cell, bounds, *same, band)
    return count + 2 * sum(_runs_band_count(g, by_cell, bounds, *runs, band) for runs in later)


def _grid_runs(pts: np.ndarray, g: Gauge, t: float, eps: float):
    """(by_cell, bounds, same, later): the points sorted by cell, cell c
    holding by_cell[bounds[c]:bounds[c + 1]]; the runs (cell, first, stop)
    of each cell against itself, where every point of cell[r] is a
    candidate against the points first[r] .. stop[r] - 1 of by_cell; and an
    iterator of blocks of such runs against the later cells only, so that
    each unordered pair of distinct cells is decided once.

    Points are bucketed into cells of side h = max(eps, t/64, 2^-60) (the
    floor keeps the int64 keys of coordinates in [-1, 1] exact), and only
    pairs whose cells can hold a distance inside the band are kept: two
    cells whose index gaps are g_k contain points at Euclidean distance
    between h*sqrt(S_min) and h*sqrt(S_max), S_min = sum max(g_k - 1, 0)^2
    and S_max = sum (g_k + 1)^2, so everything outside [inner, outer] is
    pruned. Both float tests are tabulated once over the integer sums, so
    every prune decision is the one a per-pair float test makes. A gap is
    clipped at ceil(outer/h) + 2, past which the pair is too far either way
    (h*sqrt is monotone in S), so the table has about d*68^2 entries at
    most: outer/h <= 65 since h >= eps and h >= t/64.

    The sorted cell keys fall into heads, runs of cells that share all but
    the last key, and cell order is head order, then last-key order. For a
    source cell and a head, both tests are monotone in the last-axis gap, so
    the admissible gaps form one interval [B, A], tabulated over the head
    sums; its cells are at most two runs of the head, found by binary
    search on the keys, and their points two runs of by_cell. In the source
    cell's own head the head sums are 0 and d - 1 for every cell: the cell
    itself is a candidate when B = 0 (h*sqrt(d) reaches the band), and the
    later cells are the gaps max(B, 1) .. A. The later heads are pruned in
    blocks of about 2^18 (source cell, head) pairs."""
    d = pts.shape[1]
    h = max(eps, t / 64.0, _MIN_CELL)
    inner = t * (_PB_INNER if g.kind == PARABOLOID_BODY else 1.0)
    outer = t + eps
    # the points in lexicographic key order, each cell's points in input order
    keys = np.floor(pts / h).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    bounds = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1), True])
    keys = keys[bounds[:-1]]
    n_cells = len(keys)
    if n_cells > _MAX_OCCUPIED_CELLS:
        raise CapacityError(f"{n_cells} occupied cells exceed the grid-method limit; use method='brute'")
    clip = math.ceil(outer / h) + 2
    gaps = np.arange(clip + 1)
    sq_min, sq_max = (np.maximum(gaps - 1, 0) ** 2).astype(np.int32), ((gaps + 1) ** 2).astype(np.int32)
    sums = np.sqrt(np.arange(d * (clip + 1) ** 2 + 1))
    close, far = h * sums <= outer, h * sums >= inner
    # close holds up to s_close and far from s_far on, so for head sums
    # S_min and S_max the last-axis gaps g with close[S_min + sq_min[g]] are
    # 0..A and those with far[S_max + sq_max[g]] are B.. on
    s_close, s_far = np.count_nonzero(close) - 1, np.argmax(far)
    head_sums = np.arange((d - 1) * (clip + 1) ** 2 + 1)
    top_of = (np.searchsorted(sq_min, s_close - head_sums, side="right") - 1).astype(np.int32)
    bot_of = np.searchsorted(sq_max, s_far - head_sums).astype(np.int32)
    # the heads, each cell's head, and each cell's rank in (head, last key) order
    starts = np.flatnonzero(np.r_[True, np.any(keys[1:, :-1] != keys[:-1, :-1], axis=1)])
    n_heads, heads, last = len(starts), keys[starts, :-1], keys[:, -1]
    head_lo, head_hi = last[starts], last[np.r_[starts[1:], n_cells] - 1]
    head_of = np.repeat(np.arange(n_heads), np.diff(np.r_[starts, n_cells]))
    values = np.unique(last)
    rank = head_of * len(values) + np.searchsorted(values, last)

    def head_run(cell, head, lo, hi):
        """Points of the cells of ``head`` whose last key lies in [lo, hi]."""
        base = head * len(values)
        first = np.searchsorted(rank, base + np.searchsorted(values, lo))
        stop = np.searchsorted(rank, base + np.searchsorted(values, hi, side="right"))
        return cell, bounds[first], bounds[stop]

    cells = np.arange(n_cells)
    own_top, own_bot = top_of[0], bot_of[d - 1]  # A and B of a cell against its own head
    same = cells if own_bot == 0 else cells[:0]

    def later():
        cell, first, stop = head_run(cells, head_of, last + max(own_bot, 1), last + own_top)
        keep = stop > first
        yield cell[keep], first[keep], stop[keep]
        c0 = 0
        while c0 < n_cells and head_of[c0] + 1 < n_heads:
            h0 = head_of[c0] + 1  # the heads after the block's first cell
            c1 = min(n_cells, c0 + max(1, _PRUNE_PAIRS // (n_heads - h0)))
            s_min = np.zeros((c1 - c0, n_heads - h0), np.int32)
            s_max = s_min.copy()
            for k in range(d - 1):
                gap = np.subtract(heads[None, h0:, k], keys[c0:c1, None, k])
                np.minimum(np.abs(gap, out=gap), clip, out=gap)
                s_min += sq_min.take(gap)
                s_max += sq_max.take(gap)
            top, bot = top_of.take(s_min), bot_of.take(s_max)  # A and B
            # keep the heads after the source cell's whose last keys, less
            # the source cell's, reach into -A..-B or B..A
            lo, hi = head_lo[h0:] - last[c0:c1, None], head_hi[h0:] - last[c0:c1, None]
            reach = ((lo <= -bot) & (hi >= -top)) | ((hi >= bot) & (lo <= top))
            after = np.arange(h0, n_heads) > head_of[c0:c1, None]
            pick = np.flatnonzero(reach & (top >= bot) & after)
            cell, head = pick // (n_heads - h0) + c0, pick % (n_heads - h0) + h0
            top, bot, mid = top.ravel().take(pick), bot.ravel().take(pick), last[cell]
            # gaps -A..-B and B..A, merged into one run -A..A when B = 0
            runs = [
                head_run(cell, head, mid - top, np.where(bot == 0, mid + top, mid - bot)),
                head_run(cell, head, mid + np.where(bot == 0, top + 1, bot), mid + top),
            ]
            cell, first, stop = (np.concatenate(v) for v in zip(*runs))
            keep = stop > first
            yield cell[keep], first[keep], stop[keep]
            c0 = c1

    return pts[order], bounds, (same, bounds[same], bounds[same + 1]), later()


def _runs_band_count(g, by_cell, bounds, cell, first, stop, band) -> int:
    """Band count over the pairs of each point of cell[r] with the points
    first[r] .. stop[r] - 1 of by_cell, cell c holding
    by_cell[bounds[c]:bounds[c + 1]]. The runs are grouped by the point
    count s of their source cell, and each chunk of about 2^16 pairs is one
    s x n block of runs side by side (_runs_r2)."""
    cols, body = np.ascontiguousarray(by_cell.T), g.kind == PARABOLOID_BODY
    s_of = np.diff(bounds)[cell]
    order = np.argsort(s_of, kind="stable")
    s_of, src, first, lens = s_of[order], bounds[cell[order]], first[order], (stop - first)[order]
    ends = np.cumsum(lens * s_of)
    group_end = np.searchsorted(s_of, s_of, side="right")
    count, i = 0, 0
    while i < len(s_of):
        base = ends[i - 1] if i else 0
        j = max(i + 1, min(group_end[i], np.searchsorted(ends, base + _CHUNK_PAIRS, side="right")))
        # r2 and a stay bound while the next chunk is built: freeing them first was twice as slow
        r2, a = _runs_r2(cols, s_of[i], src[i:j], first[i:j], lens[i:j], body)
        count += _band_count(g, r2, a, band)
        i = j
    return count


def _runs_r2(cols, s, src, first, lens, body):
    """(r2, a) for runs r of target points first[r] .. first[r] + lens[r] -
    1, side by side, each against the s source points src[r] .. src[r] + s -
    1, all indices into cols (one row per axis): r2[i, j] = |y - x|^2 for the
    target y of column j and the i-th source point x of its run, filled by
    _fill_r2, and a = None; with ``body`` (the paraboloid body) r2 over all
    axes but the last and a[i, j] = |y_d - x_d|. Targets are gathered once
    per column and sources once per run."""
    ends = np.cumsum(lens)
    tgt = np.repeat(first - ends + lens, lens) + np.arange(ends[-1])
    x = np.repeat(cols.take(src + np.arange(s)[:, None], axis=1), lens, axis=2)
    y = cols.take(tgt, axis=1)
    r2, buf = np.empty((s, len(tgt))), np.empty((s, len(tgt)))
    _fill_r2(r2, buf, x[: len(x) - body], y[: len(y) - body])
    return r2, np.abs(np.subtract(y[-1], x[-1], out=buf), out=buf) if body else None


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
    difference x of each pair; R = 0, the pairs p = q, is the first key.
    The one head table of the band kernel, the class energy and the
    exact finite-field product count (ffield._product_quadric_pairs).

    The table is built axis by axis, each step adding every scaled square
    gap of one axis to every key so far. Before anything is built, the work
    of each step, (a bound on the keys so far) x (the gaps of that axis), is
    checked against the class limit. The keys are multiples of the gcd g of
    the scaled squares, between 0 and the sum M of their maxima, so there
    are at most min(product of the gap counts, 1 + M // g) of them: on the
    Valtr grid with n values per head axis, about (d - 1) n^2 against a
    product of (2n - 1)^(d - 1)."""
    gaps = [_axis_gaps(ax) for ax in axes]
    Q = math.lcm(*(d * d for d in denominators))
    scales = [Q // (d * d) for d in denominators]
    keys, top, unit = 1, 0, 0
    for axis_gaps, scale in zip(gaps, scales):
        if keys * len(axis_gaps) > _MAX_PRODUCT_CLASSES:
            raise CapacityError(f"{keys} x {len(axis_gaps)} head difference classes exceed the exact-path limit")
        top += scale * max(axis_gaps) ** 2
        unit = math.gcd(unit, scale * math.gcd(*axis_gaps) ** 2)
        keys = min(keys * len(axis_gaps), 1 + top // max(unit, 1))
    r2 = {0: 1}
    for axis_gaps, scale in zip(gaps, scales):
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
    gauge in (1, 1+eps]. A difference (D/n, a/n^2), D in Z^(d-1), S = |D|^2,
    0 <= a <= n^2 - 1, has gauge 1 + delta with S + (1+delta) a =
    (1+delta)^2 n^2, that is delta(2n^2 - a) + n^2 delta^2 = S + a - n^2.
    For delta > 0 the left side is positive, as a < 2n^2, so the integer
    S + a - n^2 is at least 1.
    - For every d: the left side is at most 2n^2 delta + n^2 delta^2, so
      (1 + delta)^2 >= 1 + n^-2 and delta >= sqrt(1 + n^-2) - 1. Once eps
      lies below that bound, the near-miss part is empty: for s = (d+1)/2
      - 0.3 that is n >= 13, 23 and 41 at d = 4, 5 and 6.
    - For d = 2 and s = 1.4 it is empty once n >= 128: S <= (n-1)^2 gives
      a >= 2n and hence delta > 1/(2n^2), while eps = n^(-15/7) <=
      1/(2n^2) exactly when n >= 128.
    """
    P = gen_valtr(n, d)
    if not (d / 2 <= s < (d + 1) / 2):
        raise ParameterError(f"s={s!r} outside [d/2, (d+1)/2) for d={d}")
    N = P.n_points
    eps = float(N) ** (-1.0 / s)
    count = sum(_annulus_classes(P.axes, P.denominators, PARABOLOID_BODY, 1, eps))
    measure_lhs = count / (N * N)  # eps^(2s) * count, using eps^s = 1/N exactly
    return FalconerRatio(n_points=N, eps=eps, count=count, measure_lhs=measure_lhs, ratio=measure_lhs / eps)
