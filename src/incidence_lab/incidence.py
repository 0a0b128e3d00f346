"""Incidence counting engines.

Three counters: exact on-surface incidences for the Valtr grid against
translates of the paraboloid body, thickness-eps annulus incidences for
arbitrary point sets (an exact difference-class method for product sets, a
float64 brute method, and a grid method that is the exact count on a product
set and the brute count on any other), and the measure ratio that drives the
thickened-distance-band growth experiment. The exact Valtr count, the
``classes`` annulus method, ``grid`` on a product set and the measure ratio
share one band kernel over the per-axis gap multisets of a product set, in
pure integer arithmetic; the Valtr counters read the axes of ``gen_valtr``
and never build its points.

Every float band count, ``brute`` and ``grid`` on a row-built set or on a
product set past the band kernel's class limit, runs on one engine: the
points are sorted into k-d segments of about 64 points, and each unordered
pair is decided once, only over the pairs of segments whose float bounding
boxes can hold a pair in the band; rounding is monotone, so none in the band
is pruned. The segment rows go round robin to a thread pool when asked, each
worker holding one r^2 block and its difference buffer of about 512 KiB, and
the count is the same for any thread count. A segment is filled against the
kept segments that use the same nonzero axes at a time, subtracting and
squaring only the axes both sides use, adding each point's square on an axis
only one of them uses and skipping an axis both leave zero, which sums every
r^2 to the float of the full per-axis fill (the cross blocks of the two
circles of ``gen_lenz`` subtract nothing). For the paraboloid body r^2 runs
over the head axes, with the last-axis gap beside it. The Euclidean band
test compares r^2 itself with two float limits, found once per count, that
give the same decision as comparing sqrt(r^2) with t and t + eps.

The brute energy and an O(N^2) brute Valtr oracle, over the integer grid
indices, fill every pair in upper-triangle tiles with the same per-axis
block fill, cut by the nonzero axes of about 16 runs of points in input order.

All pair counts are over ordered pairs.
"""

from __future__ import annotations

import math
import numbers
import struct
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import CapacityError, InputError, ParameterError
from .gauge import EUCLIDEAN, LOWER, PARABOLOID_BODY, RIDGE, UPPER, Gauge, _body_gauge
from .pointsets import PointSet, gen_valtr

ALL_CAPS = (UPPER, LOWER, RIDGE)

_TILE_BYTES = 1 << 19  # one r^2 tile and its difference buffer fit in L2
_SEGMENTS = 16  # point segments whose nonzero axes an upper-triangle tile's blocks read
_SEGMENT_POINTS = 64  # a k-d segment of a float band count holding more points is split
# NumPy's ufuncs buffer a broadcast operand whose inner loop is shorter than
# about a third of the buffer, which made the (rows, columns) subtraction of a
# segment block about 3x slower per entry below some 2,700 columns with the
# default of 8192 elements (NumPy 2.4); with 1024, blocks from 342 columns run
# unbuffered
_UFUNC_BUFFER = 1024
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


def _support_segments(cols: np.ndarray) -> list[tuple[int, int, frozenset]]:
    """(start, stop, axes) for runs of points in input order, cols holding one
    row per axis: about _SEGMENTS equal segments, each with the axes that are
    nonzero at some point of it, neighbours with the same axes merged."""
    n = cols.shape[1]
    bounds = sorted({i * n // _SEGMENTS for i in range(_SEGMENTS + 1)})
    nonzero = np.logical_or.reduceat(cols != 0, bounds[:-1], axis=1)
    segments = []
    for start, stop, used in zip(bounds, bounds[1:], nonzero.T):
        axes = frozenset(np.flatnonzero(used).tolist())
        if segments and segments[-1][2] == axes:
            start = segments.pop()[0]
        segments.append((start, stop, axes))
    return segments


def _fill_block(out: np.ndarray, buf: np.ndarray, cols, sq, x: slice, x_axes, y: slice, y_axes) -> None:
    """out[i, j] = |y_j - x_i|^2 summed axis by axis, axis 0 first, for the
    points x and y (slices of cols, one row per axis, and of sq, their
    squares) with nonzero coordinates on x_axes and y_axes only; a superset
    of either gives the same floats. Axes are added in order; one zero on
    both sides adds +0.0 and is skipped, one zero on one side only adds the other
    side's square, as fl(0 - v)^2 = v^2, and while every axis so far was one
    sided for the same side the partial sums stay one per point."""
    part = None  # the sum so far: a row or column of per-point sums, or out
    for k in sorted(x_axes | y_axes):
        if k in x_axes and k in y_axes:
            np.subtract(cols[k, y], cols[k, x, None], out=buf)
            if part is None:
                part = np.multiply(buf, buf, out=out)
                continue
            term = np.multiply(buf, buf, out=buf)
        else:
            term = sq[k, x, None] if k in x_axes else sq[k, None, y]
            if part is None:
                part = term
                continue
        full = part.shape != term.shape or part.shape == out.shape  # they broadcast to out's shape
        part = np.add(part, term, out=out if full else None)
    if part is not out:
        out[...] = 0.0 if part is None else part


def _map_upper_tiles(fn, pts: np.ndarray, threads: int) -> list:
    """fn(r2, i0, i1) for each tile of rows i0..i1 against columns i0..N-1,
    with r2[i - i0, j - i0] = |p_j - p_i|^2 and inf where j <= i: each
    unordered pair once, as a - b == -(b - a) makes r^2 the same float64
    both ways round. A tile holds about _TILE_BYTES (one row when a row is
    larger), so the boundaries depend on N only; tiles go round robin to
    ``threads`` workers, each with one reused r^2 and difference buffer,
    and the results come back in no fixed order. Each tile is filled block
    by block, one block per pair of _support_segments: a block subtracts and
    squares only the axes both its sides use, adds the per-point squares of
    the axes one side uses, and skips the rest, which gives every entry the
    float of the sum over all axes in order."""
    n, bounds = len(pts), [0]
    while bounds[-1] < n:
        bounds.append(min(n, bounds[-1] + max(1, _TILE_BYTES // 8 // (n - bounds[-1]))))
    tiles = list(zip(bounds, bounds[1:]))
    cols = np.ascontiguousarray(pts.T)
    sq, segments = cols * cols, _support_segments(cols)
    size = max((i1 - i0) * (n - i0) for i0, i1 in tiles)
    lower = np.tri(max(i1 - i0 for i0, i1 in tiles), dtype=bool)

    def clip(lo, hi):
        return [(slice(max(a, lo), min(b, hi)), axes) for a, b, axes in segments if a < hi and b > lo]

    def work(w):
        r2_buf, diff_buf, out = np.empty(size), np.empty(size), []
        for i0, i1 in tiles[w::threads]:
            rows, shape = i1 - i0, (i1 - i0, n - i0)
            r2 = r2_buf[: rows * shape[1]].reshape(shape)
            for x, x_axes in clip(i0, i1):
                for y, y_axes in clip(i0, n):
                    block = r2[x.start - i0 : x.stop - i0, y.start - i0 : y.stop - i0]
                    buf = diff_buf[: block.size].reshape(block.shape)
                    _fill_block(block, buf, cols, sq, x, x_axes, y, y_axes)
            np.copyto(r2[:, :rows], np.inf, where=lower[:rows, :rows])
            out.append(fn(r2, i0, i1))
        return out

    return [v for part in _map_workers(work, threads) for v in part]


def _map_workers(work, threads: int) -> list:
    """[work(0), ..., work(threads - 1)], on a pool of ``threads`` threads
    when there is more than one."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, range(threads)))
    return [work(0)]


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


def _kd_segments(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds): a flat k-d order of the points of cols (one row per
    axis), segment s holding the points order[bounds[s]:bounds[s + 1]]. A
    run of more than _SEGMENT_POINTS points is split at the midpoint of its
    widest axis, the lower side first, so segments near in the order are near
    in space (Bentley 1975); a run whose midpoint leaves one side empty (all
    its points within two neighbouring floats on every axis) stays whole.
    Every run of one depth is split in the same few NumPy passes: each is a
    range of order, partitioned in place, which keeps the points of each side
    in their order before the split."""
    n = cols.shape[1]
    order, bounds, stuck = np.arange(n), np.array([0, n]), np.zeros(n, dtype=bool)  # stuck: by first position
    while True:
        sizes = np.diff(bounds)
        nodes = np.flatnonzero((sizes > _SEGMENT_POINTS) & ~stuck[bounds[:-1]])
        if len(nodes) == 0:
            return order, bounds
        lens = sizes[nodes]
        pos = _runs(bounds[nodes], lens)
        sub, firsts = cols.take(order[pos], axis=1), np.cumsum(lens) - lens
        lo, hi = np.minimum.reduceat(sub, firsts, axis=1), np.maximum.reduceat(sub, firsts, axis=1)
        k, node = np.argmax(hi - lo, axis=0), np.repeat(np.arange(len(nodes)), lens)
        mid = (lo + (hi - lo) / 2)[k, np.arange(len(nodes))]
        below = sub[k[node], np.arange(len(pos))] < mid[node]
        n_below = np.add.reduceat(below, firsts)
        splits = (n_below > 0) & (n_below < lens)
        order[pos] = order[pos[np.argsort(2 * node + ~below, kind="stable")]]
        stuck[bounds[nodes[~splits]]] = True
        bounds = np.sort(np.concatenate((bounds, bounds[nodes[splits]] + n_below[splits])))


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The integers of the ranges starts[i] .. starts[i] + lens[i] - 1, in order."""
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def _box_pairs(lo: np.ndarray, hi: np.ndarray, g: Gauge, band, rows: slice) -> np.ndarray:
    """keep[i, b]: whether segment b >= a, a the i-th segment of ``rows``,
    may hold a pair with segment a whose value in _band_count lies in band,
    given the float bounding boxes of the segments, lo[k, s] <= x_k <= hi[k, s].

    For x in a and y in b, y_k - x_k lies in [lo_b - hi_a, hi_b - lo_a].
    Correctly rounded -, *, + and sqrt are monotone, so fl(y_k - x_k) lies
    between the rounded ends, its square between the squares of the least
    and greatest |fl(y_k - x_k)|, r^2 between those squares summed in
    _fill_block's order, axis 0 first, and the value _band_count reads (r^2,
    or _body_gauge of r^2 and the last-axis gap) between the same operations
    on the bounds. So a pair of segments is dropped only when no pair of
    their points is in the band, with no slack added."""
    body, d = g.kind == PARABOLOID_BODY, len(lo)

    def gaps(k):
        below, above = lo[k, None, :] - hi[k, rows, None], hi[k, None, :] - lo[k, rows, None]
        return np.maximum(np.maximum(below, -above), 0.0), np.maximum(-below, above)

    v_lo = v_hi = 0.0  # 0.0 + x == x, as _fill_block starts from axis 0
    for k in range(d - body):
        near, far = gaps(k)
        v_lo, v_hi = v_lo + near * near, v_hi + far * far
    if body:
        near, far = gaps(d - 1)
        v_lo, v_hi = _body_gauge(v_lo, near), _body_gauge(v_hi, far)
    later = np.arange(lo.shape[1]) >= np.arange(lo.shape[1])[rows, None]
    return (v_hi >= band[0]) & (v_lo <= band[1]) & later


def _gather_block(cols, x_idx, y_idx, x_axes, y_axes, body: bool, r2_buf, diff_buf):
    """(r2, a) for the points x_idx (rows) against y_idx (columns) of cols,
    one row per axis: r2[i, j] = |y_j - x_i|^2 over every axis, or every axis
    but the last with ``body``, filled by _fill_block over x_axes and y_axes
    into r2_buf, and a[i, j] = |y_d - x_d| in diff_buf with ``body``, else
    None. Each point's coordinates are gathered once per block."""
    sub = cols.take(np.concatenate((x_idx, y_idx)), axis=1)
    x, y = slice(0, len(x_idx)), slice(len(x_idx), sub.shape[1])
    r2, buf = (b[: len(x_idx) * len(y_idx)].reshape(len(x_idx), -1) for b in (r2_buf, diff_buf))
    _fill_block(r2, buf, sub, sub * sub, x, x_axes, y, y_axes)
    return r2, np.abs(np.subtract(sub[-1, y], sub[-1, x, None], out=buf), out=buf) if body else None


def _annulus_grid(pts: np.ndarray, g: Gauge, t: float, eps: float, threads: int = 1) -> int:
    """Ordered pairs of the float points pts whose value in _band_count
    (r^2 over the squared axes, and for the paraboloid body the last-axis
    gap) lies in the band, deciding each unordered pair once and doubling
    the count, as r^2 and the gap are symmetric; the points are sorted into
    k-d segments (_kd_segments), and only the pairs of segments whose float
    bounding boxes can hold a pair in the band are filled (_box_pairs), so
    the count is that of every pair.

    The segment rows are dealt round robin to ``threads`` workers, each with
    one r^2 buffer and one difference buffer of about _TILE_BYTES, and each
    tabulates the boxes of its own rows in blocks of about _TILE_BYTES; the
    count is the same for any thread count. For each segment a, the points
    of the kept segments b >= a are gathered and filled against a's own
    (_gather_block) one group at a time, a group being the kept segments
    that use the same axes, so a block subtracts only the axes both sides
    use. The rows of a are filled in runs short enough that a run against
    the whole of a fits in the buffers, so a segment that cannot be split
    (all its points within two neighbouring floats) needs no more memory,
    and the columns in blocks that fit; where a meets itself, j <= i is set
    to inf."""
    body, d = g.kind == PARABOLOID_BODY, pts.shape[1]
    cols = np.ascontiguousarray(pts.T)
    order, bounds = _kd_segments(cols)
    cols, starts, sizes = cols.take(order, axis=1), bounds[:-1], np.diff(bounds)
    lo, hi = np.minimum.reduceat(cols, starts, axis=1), np.maximum.reduceat(cols, starts, axis=1)
    used = np.logical_or.reduceat(cols[: d - body] != 0, starts, axis=1).T
    support = (used * (1 << np.arange(d - body))).sum(axis=1)  # bit k: some point of the segment is off zero on axis k
    axes_of = {m: frozenset(k for k in range(d - body) if m >> k & 1) for m in set(support.tolist())}
    groups = [(axes, support == m) for m, axes in axes_of.items()]
    band, n_seg, size = _band_limits(g, t, eps), len(starts), _TILE_BYTES // 8
    heights = np.minimum(sizes, np.maximum(1, size // sizes))  # rows of a per run: height * len(a) <= size
    lower, step = np.tri(int(heights.max()), dtype=bool), max(1, size // n_seg) * threads

    def segment(a, kept, r2_buf, diff_buf) -> int:
        """The pairs of a point of segment a and a point of a kept segment
        b >= a, each unordered pair once."""
        count, x_axes = 0, axes_of[support[a]]
        for y_axes, of_group in groups:
            segs = np.flatnonzero(kept & of_group)
            if len(segs) == 0:
                continue
            tgt, meets_a = _runs(starts[segs], sizes[segs]), segs[0] == a
            for r0 in range(0, sizes[a], heights[a]):
                own = np.arange(bounds[a] + r0, min(bounds[a + 1], bounds[a] + r0 + heights[a]))
                y, width = tgt[r0:] if meets_a else tgt, size // len(own)
                for y0 in range(0, len(y), width):
                    r2, gap = _gather_block(cols, own, y[y0 : y0 + width], x_axes, y_axes, body, r2_buf, diff_buf)
                    if meets_a and y0 == 0:  # the block opens with these rows of a against themselves
                        np.copyto(r2[:, : len(own)], np.inf, where=lower[: len(own), : len(own)])
                    count += _band_count(g, r2, gap, band)
        return count

    def work(w):
        r2_buf, diff_buf, count = np.empty(size), np.empty(size), 0
        old = np.setbufsize(_UFUNC_BUFFER)  # this thread's setting
        try:
            for a0 in range(w, n_seg, step):
                rows = slice(a0, min(n_seg, a0 + step), threads)
                keep = _box_pairs(lo, hi, g, band, rows)
                count += sum(segment(a, kept, r2_buf, diff_buf) for a, kept in zip(range(n_seg)[rows], keep))
            return count
        finally:
            np.setbufsize(old)

    return 2 * sum(_map_workers(work, threads))


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
    The one head table of the band kernel and the class energy.

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
    # a real that Fraction does not take, numpy's float32 say, is read
    # through its float, which holds it exactly
    t, eps = (Fraction(v if isinstance(v, (numbers.Rational, Decimal)) else float(v)) for v in (t, eps))
    (tn, td), (hn, hd) = t.as_integer_ratio(), (t + eps).as_integer_ratio()
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

    ``classes`` counts a product set (one built from ``axes``) by difference
    classes in exact integer arithmetic, with t and eps taken as the exact
    rationals of their values. ``brute`` evaluates the gauge in float64 on
    ``to_floats`` coordinates, over the pairs of k-d segments whose float
    bounding boxes can hold a pair in the band (_annulus_grid), which is the
    count over every pair. ``grid`` gives the ``classes`` count on a product
    set, and the ``brute`` count on any other set, or on a product set past
    the class limit. ``threads`` workers share each float count; the count
    is the same for any number of them."""
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
    if method == "brute" or (method == "grid" and P.axes is None):
        count = _annulus_grid(P.to_floats(), g, float(t), float(eps), threads)
    elif method in ("grid", "classes"):
        if P.axes is None:
            raise ParameterError("method 'classes' needs a product set built from axes")
        try:
            count = sum(_annulus_classes(P.axes, P.denominators, g.kind, t, eps))
        except CapacityError:
            if method == "classes":
                raise
            count = _annulus_grid(P.to_floats(), g, float(t), float(eps), threads)
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
