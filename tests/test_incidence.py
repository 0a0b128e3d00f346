import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest

from incidence_lab import (
    EUCLIDEAN,
    PARABOLOID_BODY,
    CapacityError,
    Gauge,
    ParameterError,
    PointSet,
    annulus_incidences,
    exact_valtr_incidences,
    falconer_measure_ratio,
    gauge_values,
    gen_lattice,
    gen_lenz,
    gen_mattila2,
    gen_mattila3,
    gen_valtr,
)
from incidence_lab import incidence
from incidence_lab.energy import _brute_pair_sum
from incidence_lab.gauge import _body_gauge
from incidence_lab.incidence import (
    _MAX_PRODUCT_CLASSES,
    _SEGMENT_POINTS,
    _TILE_BYTES,
    _annulus_classes,
    _annulus_grid,
    _band_count,
    _band_limits,
    _box_pairs,
    _brute_valtr_cap_counts,
    _gather_block,
    _kd_segments,
    _map_upper_tiles,
    _support_segments,
)
from incidence_lab.pointsets import MAX_POINTS


# the fewest values of an unevenly spaced axis whose k(k - 1)/2 gaps pass
# the class limit
UNEVEN_AXIS_VALUES = next(k for k in range(2, 10**4) if k * (k - 1) // 2 > _MAX_PRODUCT_CLASSES)


def random_pointset(rng, dim, n, den=64):
    rows = set()
    while len(rows) < n:
        rows.add(tuple(int(v) for v in rng.integers(-den, den + 1, size=dim)))
    return PointSet(dim=dim, denominators=(den,) * dim, numerators=tuple(sorted(rows)))


def boxes(pset, g, t, eps):
    """The box-pruned count on the float points of ``pset``: what ``grid``
    counts for a row-built set, and for a product set past the class limit."""
    return _annulus_grid(pset.to_floats(), g, t, eps)


def tile_count(pts, g, t, eps, threads=1):
    """The band count of the float points pts over every unordered pair,
    with no prune: the upper-triangle tiles of _map_upper_tiles, the
    last-axis gaps of each tile built whole for the paraboloid body, and
    _band_count, doubled. The reference of the segment engine that ``brute``
    and ``grid``'s fallback count on."""
    body, last, band = g.kind == PARABOLOID_BODY, pts[:, -1], _band_limits(g, t, eps)

    def one(r2, i0, i1):
        return _band_count(g, r2, np.abs(last[i0:] - last[i0:i1, None]) if body else None, band)

    return 2 * sum(_map_upper_tiles(one, pts[:, :-1] if body else pts, threads))


def tiles(pset, g, t, eps):
    return tile_count(pset.to_floats(), g, t, eps)


def pair_value(kind, x, y):
    """The float value the band test reads for the pair (x, y), in the
    order of _fill_block and _body_gauge."""
    r2 = 0.0
    for a, b in zip(x[: len(x) - (kind == PARABOLOID_BODY)], y):
        r2 += (b - a) * (b - a)
    if kind == EUCLIDEAN:
        return math.sqrt(r2)
    gap = abs(y[-1] - x[-1])
    return (math.sqrt(r2 * 4.0 + gap * gap) + gap) * 0.5


def segment_boxes(pts):
    """(sorted points, segment bounds, per-axis lo, hi) of the k-d segments
    that the box-pruned count reads."""
    order, bounds = _kd_segments(np.ascontiguousarray(pts.T))
    pts = pts[order]
    lo, hi = (f.reduceat(pts.T, bounds[:-1], axis=1) for f in (np.minimum, np.maximum))
    return pts, bounds, lo, hi


class TestExactValtr:
    def test_n2_d2_upper(self):
        assert exact_valtr_incidences(2, 2, caps=("upper",)).count == 2

    def test_n2_d2_all(self):
        assert exact_valtr_incidences(2, 2).count == 4

    def test_single_point(self):
        for caps in (("upper",), ("upper", "lower", "ridge")):
            assert exact_valtr_incidences(1, 2, caps=caps).count == 0

    def test_frozen_totals(self):
        # brute-force oracle values, frozen
        assert exact_valtr_incidences(8, 2).count == 1344
        assert exact_valtr_incidences(4, 3).count == 2416

    def test_ridge_population_n5_d3(self):
        # D' in {(+-3, +-4), (+-4, +-3)}: 8 classes of multiplicity 2*1*25
        rep = exact_valtr_incidences(5, 3, caps=("ridge",))
        assert rep.count == 400
        assert exact_valtr_incidences(5, 3, method="brute", caps=("ridge",)).count == 400

    def test_upper_equals_lower(self):
        for n, d in [(3, 2), (4, 3)]:
            up = exact_valtr_incidences(n, d, caps=("upper",)).count
            lo = exact_valtr_incidences(n, d, caps=("lower",)).count
            assert up == lo

    def test_matches_brute_small(self):
        for n, d in [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
            for caps in (("upper",), ("lower",), ("ridge",), ("upper", "lower", "ridge")):
                fast = exact_valtr_incidences(n, d, caps=caps).count
                brute = exact_valtr_incidences(n, d, caps=caps, method="brute").count
                assert fast == brute, (n, d, caps)

    def test_count_bounded_by_ordered_pairs(self):
        rep = exact_valtr_incidences(4, 2)
        assert rep.count <= rep.n_points * (rep.n_points - 1)

    def test_normalized_totals_converge_d2(self):
        # total / n^4 settles near a constant: factor < 2 across the ladder
        vals = [exact_valtr_incidences(n, 2).count / n**4 for n in (8, 16, 32, 64)]
        assert max(vals) / min(vals) < 2.0

    def test_bad_caps(self):
        with pytest.raises(ParameterError):
            exact_valtr_incidences(2, 2, caps=("top",))

    def test_brute_peak_holds_tiles(self):
        # 7776 points: the oracle holds the index columns and one upper
        # tile at a time, not 1024-row chunks of all columns (76 MiB)
        tracemalloc.start()
        try:
            upper, lower, ridge = _brute_valtr_cap_counts(6, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert upper + lower + ridge == exact_valtr_incidences(6, 4).count
        assert peak < 8 * 2**20


class TestAnnulus:
    def test_radius_beyond_diameter(self):
        p = gen_valtr(3, 2)
        rep = annulus_incidences(p, Gauge(EUCLIDEAN, 2), 5.0, 0.1)
        assert rep.count == 0

    def test_two_points_at_unit_distance_eps0(self):
        p = PointSet(dim=2, denominators=(1, 1), numerators=((0, 0), (1, 0)))
        assert annulus_incidences(p, Gauge(EUCLIDEAN, 2), 1.0, 0.0).count == 2

    def test_mattila2_golden(self):
        # brute-force membership over all 240 ordered pairs, frozen: 72.
        # The |dx| = 1 subfamily alone gives 4 x-pairs * 16 y-pairs = 64.
        p = gen_mattila2(0.5, 1)
        rep = annulus_incidences(p, Gauge(EUCLIDEAN, 2), 1.0, 0.25)
        assert rep.count == 72
        assert rep.count >= 64

    def test_body_band_reads_gauge_values(self):
        # brute and the box-pruned segments decide the band on the float
        # gauge of gauge_values, with no Euclidean prefilter: the 400 ridge
        # pairs of (5, 3), gaps (3/5, 4/5, 0) in some order, have gauge 1.0
        # in float, and 200 of them have a float |y - x|^2 just above 1;
        # grid counts this product set exactly, as classes does
        pts = gen_valtr(5, 3).to_floats()
        g = Gauge(PARABOLOID_BODY, 3)
        want = int((gauge_values(g, pts[None, :, :] - pts[:, None, :]) == 1.0).sum())
        assert want == 8560
        assert annulus_incidences(gen_valtr(5, 3), g, 1.0, 0.0, method="brute").count == want
        assert boxes(gen_valtr(5, 3), g, 1.0, 0.0) == want
        exact = {m: annulus_incidences(gen_valtr(5, 3), g, 1.0, 0.0, method=m).count for m in ("grid", "classes")}
        assert exact == {"grid": 9344, "classes": 9344}

    def test_grid_equals_brute_randomized(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            dim = int(rng.integers(2, 4))
            n = int(rng.integers(5, 60))
            pset = random_pointset(rng, dim, n)
            kind = EUCLIDEAN if rng.integers(2) else PARABOLOID_BODY
            t = float(rng.uniform(0.2, 1.6))
            eps = float(rng.uniform(0.0, 0.6))
            g = Gauge(kind, dim)
            brute = annulus_incidences(pset, g, t, eps, method="brute").count
            grid = annulus_incidences(pset, g, t, eps, method="grid").count
            assert brute == grid == tiles(pset, g, t, eps), (trial, dim, n, kind, t, eps)

    def test_monotone_in_eps(self):
        p = gen_mattila2(0.5, 2)
        g = Gauge(EUCLIDEAN, 2)
        counts = [annulus_incidences(p, g, 0.8, e).count for e in (0.0, 0.1, 0.2, 0.4)]
        assert counts == sorted(counts)

    def test_count_is_even(self):
        rng = np.random.default_rng(5)
        p = random_pointset(rng, 2, 40)
        for t, eps in [(0.5, 0.2), (1.0, 0.05)]:
            assert annulus_incidences(p, Gauge(PARABOLOID_BODY, 2), t, eps).count % 2 == 0

    def test_threads_do_not_change_count(self):
        p = gen_mattila2(0.5, 2)
        g = Gauge(EUCLIDEAN, 2)
        a = annulus_incidences(p, g, 1.0, 0.1, threads=1).count
        b = annulus_incidences(p, g, 1.0, 0.1, threads=2).count
        assert a == b

    def test_lenz_paraboloid_band_pin(self):
        # pinned, so a change in the order of the per-axis r^2 sums that
        # moves a pair across a band edge shows
        p = gen_lenz(4096)
        g = Gauge(PARABOLOID_BODY, 4)
        assert annulus_incidences(p, g, 1.0, 0.05, method="brute").count == 147560
        assert annulus_incidences(p, g, 1.0, 0.05, method="grid").count == 147560

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lenz_euclidean_band_pin(self, threads):
        # pinned at the 2048-row chunk loop; the upper-triangle tiles and the k-d segments count the same
        p = gen_lenz(4096)
        assert annulus_incidences(p, Gauge(EUCLIDEAN, 4), 1.0, 0.05, threads=threads).count == 155648

    def test_parameter_errors(self):
        p = gen_valtr(2, 2)
        g = Gauge(EUCLIDEAN, 2)
        with pytest.raises(ParameterError):
            annulus_incidences(p, g, 0.0, 0.1)
        with pytest.raises(ParameterError):
            annulus_incidences(p, g, 1.0, -0.1)
        with pytest.raises(ParameterError):
            annulus_incidences(p, Gauge(EUCLIDEAN, 3), 1.0, 0.1)

    @pytest.mark.parametrize("method", ["brute", "grid", "classes"])
    def test_numpy_float32_band(self, method):
        # a float32 t or eps is counted at its exact value, which its float holds
        p, g = gen_lattice(12, 2), Gauge(EUCLIDEAN, 2)
        t, eps = np.float32(0.5), np.float32(0.05)
        want = annulus_incidences(p, g, float(t), float(eps), method=method).count
        assert annulus_incidences(p, g, t, eps, method=method).count == want > 0


class TestGridPrune:
    """The float band count (``brute``, and ``grid`` on a row-built set)
    prunes pairs of k-d segments by float bounds on their pairs' values; no
    pruned pair of segments may hold a pair that the same float test over
    every pair (tile_count) puts in the band."""

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_tiny_t_keeps_cell_keys_in_int64(self, kind):
        # bands far below the spacing of the points, down to 1e-300; the
        # boxes' bounds are float differences, with no scale or key to overflow
        steps = PointSet(dim=2, denominators=(2**62, 2**62), axes=((0, 1, 2**62), (0, 1)))
        g = Gauge(kind, 2)
        for pset, t, eps, want in [
            (steps, 2.0**-62, 0.0, 10 if kind == EUCLIDEAN else None),
            (steps, 2.0**-62, 2.0**-62, None),
            (gen_lattice(4, 2), 1e-20, 0.0, 0),
            (gen_lattice(4, 2), 1e-300, 0.0, 0),
            (gen_lattice(4, 2), 1e-300, 1e-300, 0),
        ]:
            counts = {m: annulus_incidences(pset, g, t, eps, method=m).count for m in ("grid", "brute", "classes")}
            counts["boxes"], counts["tiles"] = boxes(pset, g, t, eps), tiles(pset, g, t, eps)
            assert len(set(counts.values())) == 1, (t, eps, counts)
            assert want is None or counts["grid"] == want, (t, eps, counts)

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_equals_brute_over_several_prune_blocks(self, kind, monkeypatch):
        # with 2 KiB tiles the box table of these points is built over
        # several blocks of segment rows, each of 256 // n_seg rows
        pset, g = random_pointset(np.random.default_rng(77), 2, 2500), Gauge(kind, 2)
        bands = [(0.5, 0.0), (0.5, 0.05), (1.3, 0.01)]
        brute = [tiles(pset, g, t, eps) for t, eps in bands]
        monkeypatch.setattr(incidence, "_TILE_BYTES", 2048)
        n_seg = len(segment_boxes(pset.to_floats())[1]) - 1
        assert n_seg > 4 * max(1, 256 // n_seg)
        assert [boxes(pset, g, t, eps) for t, eps in bands] == brute

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_brute_on_far_apart_clusters(self, dim):
        # clusters at opposite corners, with bands a few 10^-7 wide: cell
        # gaps of about 10^7 per axis, so an unclipped sum table would need
        # about 10^14 entries per axis
        den = 10**7
        near = np.random.default_rng(dim).integers(0, 20, size=(60, dim))
        rows = {tuple(int(v) for v in r) for block in (near - den, near + den - 20) for r in block}
        pset = PointSet(dim=dim, denominators=(den,) * dim, numerators=tuple(sorted(rows)))
        for kind in (EUCLIDEAN, PARABOLOID_BODY):
            g = Gauge(kind, dim)
            for t, eps in [(3e-7, 2e-7), (1e-6, 5e-7)]:
                brute = tiles(pset, g, t, eps)
                assert brute > 0 and annulus_incidences(pset, g, t, eps, method="brute").count == brute
                assert annulus_incidences(pset, g, t, eps, method="grid").count == brute, (kind, t, eps)

    @pytest.mark.parametrize(
        "n, kind, t, eps, count",
        [
            (1024, EUCLIDEAN, 1.0, 0.05, 10240),
            (1024, EUCLIDEAN, 1.4, 0.03, 530432),
            (1024, PARABOLOID_BODY, 1.0, 0.05, 9464),
            (1024, PARABOLOID_BODY, 1.4, 0.03, 16256),
            (4096, EUCLIDEAN, 1.0, 0.05, 155648),
            (4096, EUCLIDEAN, 1.4, 0.03, 8503296),
            (4096, PARABOLOID_BODY, 1.0, 0.05, 147560),
            (4096, PARABOLOID_BODY, 1.4, 0.03, 278208),
        ],
    )
    def test_lenz_pins(self, n, kind, t, eps, count):
        # pinned from the brute method, which gives the same counts
        assert annulus_incidences(gen_lenz(n), Gauge(kind, 4), t, eps, method="grid").count == count

    def test_lattice_float_count_pin(self):
        # the segments' float decision misses edge ties: pinned so the prune
        # cannot move it; grid counts this product set exactly (see
        # test_lattice_edge_ties)
        p, g = gen_lattice(12, 2), Gauge(EUCLIDEAN, 2)
        assert boxes(p, g, 0.5, 0.05) == 1696
        exact = {m: annulus_incidences(p, g, 0.5, 0.05, method=m).count for m in ("grid", "classes")}
        assert exact == {"grid": 1744, "classes": 1744}

    def test_prune_peak(self):
        # 10,336 points in 256 segments: the count holds one 256 x 256 box
        # table and blocks of about 512 KiB, not the 10^8 ordered pairs
        pset = gen_mattila2(0.48, 4)
        eps = pset.n_points ** (-1.0 / 1.48)
        tracemalloc.start()
        try:
            count = boxes(pset, Gauge(EUCLIDEAN, 2), 1.0, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 608216
        assert peak < 20 * 2**20
        assert annulus_incidences(pset, Gauge(EUCLIDEAN, 2), 1.0, eps, method="grid").count == count

    def test_mattila2_paraboloid_pin(self):
        # the grid and brute float decisions agree with the exact count here
        pset = gen_mattila2(0.48, 4)
        eps = pset.n_points ** (-1.0 / 1.48)
        g = Gauge(PARABOLOID_BODY, 2)
        counts = {m: annulus_incidences(pset, g, 1.0, eps, method=m).count for m in ("grid", "brute", "classes")}
        counts["boxes"] = boxes(pset, g, 1.0, eps)
        assert counts == {"grid": 225864, "brute": 225864, "classes": 225864, "boxes": 225864}

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    @pytest.mark.parametrize(
        "name, t, eps",
        [
            ("mattila2", 1.0, None),
            ("lenz", 1.4, 0.03),
            ("lenz", 1.0, 0.05),
            ("lattice3", 0.5, 0.05),
            ("columns", 0.5, 0.05),
            ("columns", 0.01, 0.3),  # the band holds pairs inside one segment
        ],
    )
    def test_candidates_equal_all_cell_pairs_prune(self, name, t, eps, kind):
        # every band pair, found by the brute tiles over all pairs, lies in a
        # pair of segments that the box table keeps
        pset = {
            "mattila2": lambda: gen_mattila2(0.48, 4),
            "lenz": lambda: gen_lenz(1024),
            "lattice3": lambda: gen_lattice(12, 3),
            "columns": two_columns,
        }[name]()
        if eps is None:
            eps = pset.n_points ** (-1.0 / 1.48)
        pts, bounds, lo, hi = segment_boxes(pset.to_floats())
        g, n_seg = Gauge(kind, pts.shape[1]), len(bounds) - 1
        band = _band_limits(g, t, eps)
        keep = _box_pairs(lo, hi, g, band, slice(0, n_seg))
        if name != "columns":  # three segments, whose every pair meets the band
            assert keep.sum() < n_seg * (n_seg + 1) // 2
        segment = np.repeat(np.arange(n_seg), np.diff(bounds))
        body, last = kind == PARABOLOID_BODY, pts[:, -1]

        def band_pairs(r2, i0, i1):
            v = _body_gauge(r2, np.abs(last[i0:] - last[i0:i1, None])) if body else r2
            i, j = np.nonzero((v >= band[0]) & (v <= band[1]))
            return segment[i + i0], segment[j + i0]

        pairs = _map_upper_tiles(band_pairs, pts[:, :-1] if body else pts, 1)
        a, b = (np.concatenate(v) for v in zip(*pairs))
        assert len(a) > 0 and keep[a, b].all()

    def test_every_float_value_of_a_4d_row_set(self, monkeypatch):
        # a band at each value the float pairs take, eps = 0, over one-point
        # segments, whose box bounds are the pair values themselves: the
        # bounds must be summed in _fill_block's order to keep every pair
        monkeypatch.setattr(incidence, "_SEGMENT_POINTS", 1)
        rng, dens = random.Random(30), (97, 89, 83, 79)
        rows = {tuple(rng.randint(-den, den) for den in dens) for _ in range(24)}
        pset = PointSet(dim=4, denominators=dens, numerators=tuple(sorted(rows)))
        pts = pset.to_floats().tolist()
        for kind in (EUCLIDEAN, PARABOLOID_BODY):
            g = Gauge(kind, 4)
            values = {pair_value(kind, x, y) for x in pts for y in pts} - {0.0}
            assert len(values) > 200
            for t in sorted(values):
                brute = annulus_incidences(pset, g, t, 0.0, method="brute").count
                assert brute > 0 and brute == boxes(pset, g, t, 0.0) == tiles(pset, g, t, 0.0), (kind, t)

    def test_equals_brute_in_one_dimension(self):
        # the kernels read the gauge for its kind only
        x = np.unique(np.random.default_rng(1).integers(-500, 501, 300)) / 250.0
        pts, g = x[:, None], Gauge(EUCLIDEAN, 2)
        for t, eps in [(1.0, 0.05), (0.5, 0.0), (0.01, 0.3)]:
            brute = tile_count(pts, g, t, eps)
            assert brute > 0 and _annulus_grid(pts, g, t, eps) == brute, (t, eps)

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_equals_brute_across_columns(self, kind):
        # two lines of points: boxes on one line are thin, so the box
        # bounds meet the band both within a line and across the lines
        pset, g = two_columns(), Gauge(kind, 2)
        for t, eps in [(0.5, 0.05), (0.5, 0.0), (0.25, 0.1)]:
            brute = tiles(pset, g, t, eps)
            assert brute > 0 and annulus_incidences(pset, g, t, eps, method="brute").count == brute
            assert annulus_incidences(pset, g, t, eps, method="grid").count == brute, (t, eps)

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_equals_brute_over_several_head_blocks(self, kind, monkeypatch):
        # with 32 KiB tiles the kept points of a segment are filled in blocks
        # of 4096 // 64 or more columns, several for most segments here
        pset, g = random_pointset(np.random.default_rng(78), 3, 1200), Gauge(kind, 3)
        bands = [(0.5, 0.05), (0.75, 0.0)]
        brute = [tiles(pset, g, t, eps) for t, eps in bands]
        monkeypatch.setattr(incidence, "_TILE_BYTES", 1 << 15)
        _, bounds, lo, hi = segment_boxes(pset.to_floats())
        keep = _box_pairs(lo, hi, g, _band_limits(g, *bands[0]), slice(0, len(bounds) - 1))
        kept_points = keep @ np.diff(bounds)
        assert (kept_points > 3 * 4096 // np.diff(bounds)).mean() > 0.5
        assert min(brute) > 0 and [boxes(pset, g, t, eps) for t, eps in bands] == brute


def kd_segments_per_node(cols):
    """_kd_segments splitting one run per Python iteration, depth first, the
    lower side first: the reference for splitting a whole depth at once."""
    order, bounds, todo = [], [0], [np.arange(cols.shape[1])]
    while todo:
        idx = todo.pop()
        if len(idx) > incidence._SEGMENT_POINTS:
            sub = cols.take(idx, axis=1)
            lo, hi = sub.min(axis=1), sub.max(axis=1)
            k = int(np.argmax(hi - lo))
            below = sub[k] < lo[k] + (hi[k] - lo[k]) / 2
            if below.any() and not below.all():
                todo += [idx[~below], idx[below]]
                continue
        order.append(idx)
        bounds.append(bounds[-1] + len(idx))
    return np.concatenate(order), np.array(bounds)


class TestKdSegments:
    @pytest.mark.parametrize("name", ["lenz", "random 3-D", "mattila2", "one float"])
    def test_equals_per_node_split(self, name):
        pts = {
            "lenz": lambda: gen_lenz(8192).to_floats(),
            "random 3-D": lambda: np.random.default_rng(18).normal(size=(6000, 3)),
            "mattila2": lambda: gen_mattila2(0.48, 4).to_floats(),
            "one float": lambda: np.full((3 * _SEGMENT_POINTS, 2), 0.5),
        }[name]()
        cols = np.ascontiguousarray(pts.T)
        (order, bounds), (want_order, want_bounds) = _kd_segments(cols), kd_segments_per_node(cols)
        assert np.array_equal(bounds, want_bounds) and np.array_equal(order, want_order)
        assert name != "one float" or bounds.tolist() == [0, len(pts)]

    def test_equals_per_node_split_down_to_one_point(self, monkeypatch):
        # runs of one point, and repeated points in runs that cannot be split
        monkeypatch.setattr(incidence, "_SEGMENT_POINTS", 1)
        pts = np.random.default_rng(4).integers(0, 6, size=(400, 3)).astype(float)
        cols = np.ascontiguousarray(pts.T)
        (order, bounds), (want_order, want_bounds) = _kd_segments(cols), kd_segments_per_node(cols)
        assert np.array_equal(bounds, want_bounds) and np.array_equal(order, want_order)
        assert len(bounds) - 1 == len(np.unique(pts, axis=0)) < len(pts)


class TestFloatBandClasses:
    """``grid`` counts a product set with the exact class kernel of
    ``classes``, and falls back to the box-pruned segments, the brute
    count, only where that kernel refuses the set."""

    DENS = (12, 97, 2**40 + 1, 74667277912751870010242)

    @staticmethod
    def axis(rng, den):
        """1 to 8 distinct numerators in [-den, den]; past 2^53 sometimes
        neighbours, which share one float, so float gaps of 0 join the
        pairs a = b."""
        k = rng.randint(1, 8)
        if den > 2**53 and rng.random() < 0.3:
            base = rng.randint(-den, den - 8)
            return tuple(base + i for i in sorted(rng.sample(range(8), k)))
        nums = set()
        while len(nums) < k:
            nums.add(rng.randint(-den, den))
        return tuple(sorted(nums))

    def test_equals_brute_on_random_product_sets(self):
        # grid against the exact oracle, and that oracle against the
        # per-pair Fraction one on the smaller sets; brute against the
        # box-pruned segments, the grid fallback past the class limits
        rng = random.Random(28)
        hits = hits_float = checked = 0
        for trial in range(60):
            dim = rng.randint(2, 4)
            dens = tuple(rng.choice(self.DENS) for _ in range(dim))
            pset = PointSet(dim=dim, denominators=dens, axes=tuple(self.axis(rng, den) for den in dens))
            pts = pset.to_floats().tolist()
            for kind in (EUCLIDEAN, PARABOLOID_BODY):
                g = Gauge(kind, dim)
                # t is the float value of a random pair, so that bands with eps = 0 hold pairs
                t = pair_value(kind, rng.choice(pts), rng.choice(pts)) or rng.uniform(0.1, 2.0)
                eps = rng.choice([0.0, 0.0, 1e-12, 0.01, rng.uniform(0.0, 1.0)])
                want = product_band_oracle(pset, kind, t, eps)
                grid = annulus_incidences(pset, g, t, eps, method="grid").count
                assert grid == want, (trial, pset, kind, t, eps)
                if pset.n_points <= 40:
                    assert band_oracle(pset, kind, t, eps)[0] == want, (trial, pset, kind, t, eps)
                    checked += 1
                brute = tiles(pset, g, t, eps)
                assert annulus_incidences(pset, g, t, eps, method="brute").count == brute, (trial, pset, kind, t, eps)
                hits += want > 0
                hits_float += eps == 0.0 and brute > 0
        assert hits >= 40 and checked >= 40 and hits_float >= 10

    def test_mattila3_scan_band_pins(self):
        # mattila3 at its scan's band, where brute's float count misses
        # exact edge ties (736, 26752, 581632)
        for level, want in zip((2, 3, 4), (704, 26240, 573440)):
            pset = gen_mattila3(1 / 15, level)
            g, eps = Gauge(EUCLIDEAN, 3), pset.n_points ** (-1.0 / pset.s_dim)
            counts = {m: annulus_incidences(pset, g, 1.0, eps, method=m).count for m in ("grid", "classes")}
            assert counts == {"grid": want, "classes": want}, level

    def test_every_float_value_of_a_4d_product_set(self):
        # a band at each value the float pairs take, eps = 0: the segments
        # must sum the head of three axes in _fill_block's order to hold the
        # pairs brute holds; grid on this product set is the exact count
        rng = random.Random(5)
        axes = tuple(tuple(sorted(rng.sample(range(-97, 98), 3))) for _ in range(4))
        pset = PointSet(dim=4, denominators=(97,) * 4, axes=axes)
        pts = pset.to_floats().tolist()
        for kind in (EUCLIDEAN, PARABOLOID_BODY):
            g = Gauge(kind, 4)
            values = sorted({pair_value(kind, x, y) for x in pts for y in pts} - {0.0})
            assert len(values) > 200
            for t in values:
                brute = annulus_incidences(pset, g, t, 0.0, method="brute").count
                assert brute > 0 and boxes(pset, g, t, 0.0) == brute == tiles(pset, g, t, 0.0), (kind, t)
            t = values[len(values) // 2]
            grid = annulus_incidences(pset, g, t, 0.0, method="grid").count
            assert grid == annulus_incidences(pset, g, t, 0.0, method="classes").count, kind

    def test_counts_past_the_occupied_cell_limit(self):
        # 22,500 points, which the removed cell grid refused, in 512
        # segments: the box table is built over blocks of 128 segment rows
        # (one 512 x 512 table would take 2 MiB per array), and the count,
        # pinned from the brute method, holds a few MiB. grid counts the
        # product set exactly: the float 0.1 is above 1/10, and no pair of
        # the 1/150 lattice lies at that distance
        pset, g = gen_lattice(150, 2), Gauge(EUCLIDEAN, 2)
        n_seg = len(segment_boxes(pset.to_floats())[1]) - 1
        assert n_seg > 2 * (_TILE_BYTES // 8 // n_seg)
        tracemalloc.start()
        try:
            count = boxes(pset, g, 0.1, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 50552 and peak < 8 * 2**20
        exact = {m: annulus_incidences(pset, g, 0.1, 0.0, method=m).count for m in ("grid", "classes")}
        assert exact == {"grid": 0, "classes": 0}

    def test_refused_past_max_points(self):
        # the axes of these 6,284,544 points are small, so grid counts them
        # by classes past the row limit of to_floats; a product set that the
        # class kernel refuses, with more than MAX_POINTS points, goes to
        # the segments and is refused there
        pset, g = gen_mattila2(0.48, 7), Gauge(EUCLIDEAN, 2)
        grid = annulus_incidences(pset, g, 1.0, 0.01, method="grid").count
        assert grid == annulus_incidences(pset, g, 1.0, 0.01, method="classes").count == 644983006336
        k = UNEVEN_AXIS_VALUES
        uneven = PointSet(dim=2, denominators=(2 * k, k), axes=((*range(k - 1), 2 * k), range(k)))
        assert uneven.n_points > MAX_POINTS
        with pytest.raises(CapacityError):
            annulus_incidences(uneven, g, 1.0, 0.01, method="grid")

    def test_axis_past_class_limit_falls_back_to_cells(self):
        # an unevenly spaced axis of k values has k(k - 1)/2 gaps to
        # enumerate, past _MAX_PRODUCT_CLASSES: the class kernel refuses it
        # before building anything, and the segments count it
        k = UNEVEN_AXIS_VALUES
        pset = PointSet(dim=2, denominators=(2 * k, 1), axes=((*range(k - 1), 2 * k), (0, 1)))
        g = Gauge(EUCLIDEAN, 2)
        with pytest.raises(CapacityError):
            _annulus_classes(pset.axes, pset.denominators, g.kind, 1.0, 0.01)
        tracemalloc.start()
        try:
            grid = annulus_incidences(pset, g, 1.0, 0.01, method="grid").count
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid == tiles(pset, g, 1.0, 0.01) > 0
        assert peak < 8 * 2**20

    def test_head_keys_past_class_limit_fall_back_to_cells(self, monkeypatch):
        # 7 values per axis, 21 gaps to enumerate, pass a limit of 64; the
        # 17 gaps of each head axis would build 289 head keys
        monkeypatch.setattr(incidence, "_MAX_PRODUCT_CLASSES", 64)
        axis = (-64, -32, -8, 0, 4, 16, 64)
        pset = PointSet(dim=3, denominators=(64, 64, 64), axes=(axis, axis, axis))
        for kind in (EUCLIDEAN, PARABOLOID_BODY):
            g = Gauge(kind, 3)
            with pytest.raises(CapacityError):
                _annulus_classes(pset.axes, pset.denominators, kind, 1.0, 0.25)
            brute = tiles(pset, g, 1.0, 0.25)
            assert brute > 0 and annulus_incidences(pset, g, 1.0, 0.25, method="grid").count == brute


def two_columns():
    """65 points on each of the lines x = 0 and x = 1/2, at y = k/64."""
    rows = [(x, y) for x in (0, 32) for y in range(-32, 33)]
    return PointSet(dim=2, denominators=(64, 64), numerators=tuple(rows))


def band_oracle(pset, kind, t, eps):
    """Per-pair exact count of t <= ||q - p|| <= t + eps, and the number of
    pairs exactly on either edge."""
    lo, hi = Fraction(t), Fraction(t) + Fraction(eps)
    pts = [pset.point(i) for i in range(pset.n_points)]
    count = ties = 0
    for p, q in product(pts, repeat=2):
        x = [b - a for a, b in zip(p, q)]
        if kind == EUCLIDEAN:
            v = sum(c * c for c in x)
            inside, edge = lo * lo <= v <= hi * hi, v in (lo * lo, hi * hi)
        else:
            r2, a = sum(c * c for c in x[:-1]), abs(x[-1])
            inside = r2 + lo * a >= lo * lo and r2 + hi * a <= hi * hi
            edge = r2 + lo * a == lo * lo or r2 + hi * a == hi * hi
        count += inside
        ties += inside and edge
    return count, ties


def product_band_oracle(pset, kind, t, eps):
    """band_oracle's count on a product set, decided once per vector of
    per-axis gaps |q_k - p_k| and weighted by the ordered pairs that share
    it: both gauges read only those gaps. Both are homogeneous, so over a
    common denominator D the gaps are integers X_k and the band is
    [t D, (t + eps) D]; band_oracle's tests, multiplied out to integers, run
    per last-axis gap a on object arrays of the head's |X'|^2."""
    D = math.lcm(*pset.denominators)
    gaps = [Counter(abs(b - a) * (D // den) for a in ax for b in ax) for ax, den in zip(pset.axes, pset.denominators)]
    r2, pairs = np.zeros(1, dtype=object), np.ones(1, dtype=object)
    for axis_gaps in gaps[:-1]:
        g, m = (np.array(list(v), dtype=object) for v in (axis_gaps.keys(), axis_gaps.values()))
        r2, pairs = np.add.outer(r2, g * g).ravel(), np.multiply.outer(pairs, m).ravel()
    (ln, lm), (hn, hm) = ((v * D).as_integer_ratio() for v in (Fraction(t), Fraction(t) + Fraction(eps)))
    count = 0
    for a, m in gaps[-1].items():
        if kind == EUCLIDEAN:  # lo^2 <= |X|^2 <= hi^2
            inside = ((r2 + a * a) * lm * lm >= ln * ln) & ((r2 + a * a) * hm * hm <= hn * hn)
        else:  # |X'|^2 + lo a >= lo^2 and |X'|^2 + hi a <= hi^2
            inside = (r2 * lm * lm + ln * lm * a >= ln * ln) & (r2 * hm * hm + hn * hm * a <= hn * hn)
        count += m * int(pairs[inside].sum())
    return count


def random_product_set(rng, dim):
    dens, axes = [], []
    for _ in range(dim):
        den = rng.choice([4, 5, 10, 12, 13, 20])
        dens.append(den)
        axes.append(sorted(rng.sample(range(-den, den + 1), rng.randint(1, 5 if dim == 2 else 4))))
    return PointSet(dim=dim, denominators=tuple(dens), axes=tuple(axes))


class TestBandLimits:
    """The Euclidean band is decided on r^2 against two float limits; that
    must be the float64 decision on sqrt(r^2) at every r^2."""

    @staticmethod
    def near(x, ulps=6):
        bits = np.float64(x).view(np.int64) + np.arange(-ulps, ulps + 1)
        return np.clip(bits, 0, np.float64(np.inf).view(np.int64)).view(np.float64)

    def test_matches_sqrt_decision(self):
        rng = np.random.default_rng(5)
        ts = [1.0, 0.5, 1e-150, 1e150, *(10.0 ** rng.uniform(-3, 3, 4))]
        epss = [0.0, 0.05, 1e-9, float(rng.uniform(0, 1))]
        g = Gauge(EUCLIDEAN, 2)
        for t in ts:
            for eps in epss:
                lo, hi = _band_limits(g, t, eps)
                r2 = np.concatenate([[0.0, np.inf], *(self.near(x) for x in (lo, hi, t * t, (t + eps) ** 2))])
                v = np.sqrt(r2)
                want = (v >= t) & (v <= t + eps)
                assert np.array_equal((r2 >= lo) & (r2 <= hi), want), (t, eps)
                assert _band_count(g, r2, None, (lo, hi)) == want.sum()
                assert want[np.isin(r2, (lo, hi))].all() and not want[1]


class TestPairR2:
    N = 1000
    TILE = _TILE_BYTES // 8 // N  # rows per tile; divides neither N nor 2048

    @pytest.mark.parametrize("n_src", [1, TILE - 1, TILE + 1, 2048])
    def test_tiles_match_per_axis_reference(self, n_src):
        # the grid's block of the n_src points of one segment against the
        # gathered points of the segments it keeps; for the paraboloid body
        # r^2 over the head axes and the last-axis gaps a
        rng = np.random.default_rng(n_src)
        tgt = rng.normal(size=(self.N, 4)) * [1.0, 1e-3, 1e3, 1.0]
        src = tgt[rng.integers(0, self.N, n_src)] + rng.normal(size=(n_src, 4)) * 1e-9
        cols = np.ascontiguousarray(np.vstack([tgt, src]).T)
        first, lens = np.array([0, 450, 500, 999]), np.array([300, 1, 499, 1])
        picked = np.concatenate([np.arange(f, f + n) for f, n in zip(first, lens)])
        bufs = np.empty(n_src * len(picked)), np.empty(n_src * len(picked))
        for body in (False, True):
            axes = frozenset(range(4 - body))
            r2, a = _gather_block(cols, np.arange(self.N, self.N + n_src), picked, axes, axes, body, *bufs)
            ref = np.zeros((n_src, len(picked)))
            for k in range(3 if body else 4):
                diff = tgt[picked, k] - src[:, k, None]
                ref += diff * diff
            assert np.array_equal(r2.view(np.int64), ref.view(np.int64))
            if body:
                gap = np.abs(tgt[picked, 3] - src[:, 3, None])
                assert np.array_equal(a.view(np.int64), gap.view(np.int64))
            else:
                assert a is None

    @staticmethod
    def assert_tiles_match_per_axis_reference(pts, threads):
        # every r^2 of the upper triangle, bit for bit, against a full-tile sum
        # over all axes in order; the lower triangle inf
        n = len(pts)
        ref = np.zeros((n, n))
        for k in range(pts.shape[1]):
            diff = pts[:, k] - pts[:, k, None]
            ref += diff * diff
        got = np.full((n, n), np.inf)  # columns j < i0 belong to no tile
        for i0, tile in _map_upper_tiles(lambda r2, i0, i1: (i0, r2.copy()), pts, threads):
            got[i0 : i0 + len(tile), i0:] = tile
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        assert np.array_equal(got[upper].view(np.int64), ref[upper].view(np.int64))
        assert np.all(got[~upper] == np.inf)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_upper_tiles_match_per_axis_reference(self, threads):
        rng = np.random.default_rng(threads)
        pts = rng.normal(size=(self.N, 4)) * [1.0, 1e-3, 1e3, 1.0]
        self.assert_tiles_match_per_axis_reference(pts, threads)

    @staticmethod
    def supported(rng, supports, scale=(1.0, 1e-3, 1e3, 1.0)):
        # one point per entry of supports, nonzero on those axes only
        pts = rng.normal(size=(len(supports), 4)) * scale
        for p, axes in zip(pts, supports):
            p[[k for k in range(4) if k not in axes]] = 0.0
        return pts

    @staticmethod
    def split_tile_sets():
        rng = np.random.default_rng(29)
        lenz = gen_lenz(1000).to_floats()  # 1000 points: 16 segments do not divide them
        halves = TestPairR2.supported(rng, [(0, 1)] * 500 + [(2, 3)] * 500)
        # runs of 100 points alternate between supports {0, 2} and {1, 3}, so
        # segments of about 62 points have either support or both
        interleaved = TestPairR2.supported(rng, ([(0, 2)] * 100 + [(1, 3)] * 100) * 5)
        zero_axes = []
        for k in range(4):
            pts = rng.normal(size=(300, 4))
            pts[:, k] = 0.0  # an axis zero at every point, first to last
            zero_axes.append(pts)
        small = [TestPairR2.supported(rng, [(0, 1)] * (n // 2) + [(2, 3)] * (n - n // 2)) for n in (5, 17)]
        small += [TestPairR2.supported(rng, [(k % 4,) for k in range(17)])]
        origin = np.zeros((1, 4))
        with_zero = [
            np.vstack([origin, lenz[:300], origin, lenz[500:800]]),
            np.vstack([small[1][:8], origin, origin, small[1][8:]]),  # segments holding the origin alone
        ]
        return [lenz, halves, interleaved, *zero_axes, *small, *with_zero]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_split_tiles_match_per_axis_reference(self, threads):
        # the blocks of each tile (one per pair of support segments) skip the axes
        # zero on both sides and add the squares of those zero on one side
        for pts in self.split_tile_sets():
            self.assert_tiles_match_per_axis_reference(pts, threads)

    def test_support_segments(self):
        def segments(pts):
            return _support_segments(np.ascontiguousarray(pts.T))

        assert segments(gen_lenz(8192).to_floats()) == [(0, 4096, {0, 1}), (4096, 8192, {2, 3})]
        assert segments(np.random.default_rng(5).normal(size=(8192, 4))) == [(0, 8192, {0, 1, 2, 3})]
        assert [n for _, n, _ in segments(np.ones((5, 3)))] == [5]
        origin = np.zeros((17, 2))
        origin[9:] = 1.0
        assert segments(origin) == [(0, 9, set()), (9, 17, {0, 1})]

    def test_threads_do_not_change_brute_results(self):
        # an odd number of row-built points, over many tiles; each worker
        # of the segment engine restores its thread's ufunc buffer size
        pts, bufsize = random_pointset(np.random.default_rng(3), 3, 1501).to_floats(), np.getbufsize()
        for kind in (EUCLIDEAN, PARABOLOID_BODY):
            g = Gauge(kind, 3)
            counts = {threads: _annulus_grid(pts, g, 0.5, 0.1, threads) for threads in (1, 2, 3)}
            assert counts[1] > 0 and counts[1] == counts[2] == counts[3] == tile_count(pts, g, 0.5, 0.1, 2)
        assert np.getbufsize() == bufsize
        sums = {threads: _brute_pair_sum(pts, 1.3, threads) for threads in (1, 2, 3)}
        assert sums[1] == sums[2] == sums[3]

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_brute_equals_unpruned_tiles(self, kind):
        # the box-pruned segments, dealt to 1, 2 or 3 workers, against every
        # pair of the tiles: an all-pairs band, (0.5, 0.05), and eps = 0 at
        # the float value of one pair
        rng = np.random.default_rng(32)
        pset = random_pointset(rng, 3, 1501)

        def brute(g, t, eps, threads):
            return annulus_incidences(pset, g, t, eps, "brute", threads).count

        sets = [(pts, partial(_annulus_grid, pts)) for pts in self.split_tile_sets()] + [(pset.to_floats(), brute)]
        in_band = 0
        for i, (pts, count) in enumerate(sets):
            g = Gauge(kind, pts.shape[1])
            x, y = (pts[k] for k in rng.choice(len(pts), 2, replace=False))
            for t, eps in [(1e-9, 1e9), (0.5, 0.05), (pair_value(kind, x, y) or 1.0, 0.0)]:
                want = tile_count(pts, g, t, eps)
                in_band += want > 0
                assert [count(g, t, eps, threads) for threads in (1, 2, 3)] == [want] * 3, (i, t, eps)
        assert in_band >= 2 * len(sets)

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_unsplit_segment_peaks(self, kind):
        # 3,000 points on one float, or on two neighbouring floats 2^-53
        # apart: one k-d segment that cannot be split, whose rows are filled
        # in runs of 21 against all 3,000 points, not in 3000 x 3000 r^2 and
        # difference buffers (72 MB each)
        g = Gauge(kind, 2)
        for floats, t, want in [(1, 1.0, 0), (2, 2.0**-53, 2 * 1500 * 1500)]:
            rows = tuple((2**80 + (k % floats) * 2**28 + k, 0) for k in range(3000))
            pset = PointSet(dim=2, denominators=(2**81, 1), numerators=rows)
            assert len(set(pset.to_floats()[:, 0].tolist())) == floats
            assert np.diff(segment_boxes(pset.to_floats())[1]).tolist() == [3000]
            assert tiles(pset, g, t, 0.0) == want
            for method, threads in [("brute", 1), ("brute", 3), ("grid", 1)]:
                tracemalloc.start()
                try:
                    count = annulus_incidences(pset, g, t, 0.0, method=method, threads=threads).count
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert count == want and peak < 8 * 2**20, (floats, method, threads, peak)

    def test_brute_peaks_hold_tiles(self):
        # each worker holds one r^2 tile or block and its difference buffer,
        # 2 x 512 KiB; one 2048 x 4096 r^2 chunk alone would be 64 MiB; the
        # all-pairs band keeps every pair of segments
        pts = gen_lenz(4096).to_floats()
        runs = [lambda threads: _brute_pair_sum(pts, 1.5, threads)]
        runs += [
            lambda threads, g=Gauge(kind, 4), band=band: _annulus_grid(pts, g, *band, threads)
            for kind in (EUCLIDEAN, PARABOLOID_BODY)
            for band in ((1.0, 0.05), (1e-6, 10.0))
        ]
        for run in runs:
            for threads in (1, 2):
                tracemalloc.start()
                try:
                    run(threads)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 8 * 2**20


class TestAnnulusClasses:
    def test_equals_fraction_oracle_on_random_product_sets(self):
        rng = random.Random(2027)
        ties = 0
        for trial in range(120):
            dim = rng.choice([2, 3])
            pset = random_product_set(rng, dim)
            kind = rng.choice([EUCLIDEAN, PARABOLOID_BODY])
            t = rng.choice([0.25, 0.5, 1.0, 1.25, 0.3])
            eps = rng.choice([0.0, 0.0, 0.25, 0.5, 0.1])
            want, edge = band_oracle(pset, kind, t, eps)
            got = annulus_incidences(pset, Gauge(kind, dim), t, eps, method="classes").count
            assert got == want, (trial, pset, kind, t, eps)
            ties += edge
        assert ties > 0  # the trials include pairs exactly on a band edge

    def test_lattice_edge_ties(self):
        # pairs at distance exactly 0.5 on the 1/12 grid; float64 drops some
        pset = gen_lattice(12, 2)
        assert annulus_incidences(pset, Gauge(EUCLIDEAN, 2), 0.5, 0.05, "classes").count == 1744
        assert band_oracle(pset, EUCLIDEAN, 0.5, 0.05)[0] == 1744

    @pytest.mark.parametrize("d, ns", [(2, range(1, 13)), (3, range(1, 13))])
    def test_valtr_unit_surface(self, d, ns):
        # grid on a product set is the classes count
        g = Gauge(PARABOLOID_BODY, d)
        for n in ns:
            got = {m: annulus_incidences(gen_valtr(n, d), g, 1.0, 0.0, m).count for m in ("classes", "grid")}
            want = exact_valtr_incidences(n, d).count
            assert got == {"classes": want, "grid": want}, n

    def test_valtr_at_falconer_eps(self):
        g = Gauge(PARABOLOID_BODY, 2)
        for n in range(2, 13):
            rec = falconer_measure_ratio(n, 2, 1.4)
            assert annulus_incidences(gen_valtr(n, 2), g, 1.0, rec.eps, "classes").count == rec.count, n

    def test_equals_brute_and_grid_on_dyadic_sets(self):
        # every coordinate and difference is an exact float, so the float
        # methods are exact too
        sets = [gen_lattice(8, 2), gen_valtr(4, 2), gen_valtr(2, 3), gen_mattila2(0.5, 2), gen_mattila3(0.5, 2)]
        for pset in sets:
            for kind in (EUCLIDEAN, PARABOLOID_BODY):
                g = Gauge(kind, pset.dim)
                for t, eps in [(0.25, 0.0), (0.5, 0.125), (1.0, 0.0), (1.0, 0.25)]:
                    counts = {m: annulus_incidences(pset, g, t, eps, m).count for m in ("classes", "brute", "grid")}
                    counts["boxes"] = boxes(pset, g, t, eps)
                    assert len(set(counts.values())) == 1, (pset.label, kind, t, eps, counts)

    def test_report_method(self):
        rep = annulus_incidences(gen_mattila2(0.5, 1), Gauge(EUCLIDEAN, 2), 1.0, 0.25, "classes", threads=2)
        assert (rep.count, rep.method) == (72, "classes")

    def test_row_built_set_rejected(self):
        p = PointSet(dim=2, denominators=(1, 1), numerators=((0, 0), (1, 0)))
        with pytest.raises(ParameterError):
            annulus_incidences(p, Gauge(EUCLIDEAN, 2), 1.0, 0.0, "classes")

    def test_class_limit_refused_before_allocating(self):
        # powers of two have pairwise distinct differences: 2017^2 head classes
        axis = tuple(1 << i for i in range(64))
        pset = PointSet(dim=3, denominators=(1 << 63, 1 << 63, 1), axes=(axis, axis, (0, 1)))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                annulus_incidences(pset, Gauge(EUCLIDEAN, 3), 1.0, 0.0, "classes")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestKernelPins:
    # counts of the exact integer kernel before it was folded into the
    # product-set band counter, at sizes no other test reaches
    @pytest.mark.parametrize(
        "n, d, s, count",
        [
            (512, 2, 1.4, 22_906_404_864),
            (2048, 2, 1.4, 5_864_060_616_704),
            (200, 3, 1.6, 38_925_772_200_304),
            (40, 4, 2.2, 5_104_673_821_728),
        ],
    )
    def test_falconer_count(self, n, d, s, count):
        assert falconer_measure_ratio(n, d, s).count == count

    @pytest.mark.parametrize(
        "n, d, ridge, upper",
        [(200, 3, 1_392_640_000, 19_462_189_780_152), (40, 4, 196_608_000, 2_552_238_606_864)],
    )
    def test_valtr_caps(self, n, d, ridge, upper):
        assert exact_valtr_incidences(n, d, caps=("ridge",)).count == ridge
        assert exact_valtr_incidences(n, d, caps=("upper",)).count == upper
        assert exact_valtr_incidences(n, d, caps=("lower",)).count == upper

    @pytest.mark.parametrize("level, count", [(7, 3_915_315_604), (8, 71_721_571_140)])
    def test_mattila2_above_max_points(self, level, count):
        # 6,284,544 and 53,264,384 points: counted from the axes, no rows built
        pset = gen_mattila2(0.48, level)
        eps = pset.n_points ** (-1 / 1.48)
        assert annulus_incidences(pset, Gauge(EUCLIDEAN, 2), 1.0, eps, "classes").count == count

    def test_evenly_spaced_last_axis_not_enumerated(self):
        # a 10^12-value last axis: only the head gap 1 with last gap 0 lies
        # at Euclidean distance 1, on 2 * 10^12 ordered pairs
        k = 10**12
        zero, rest = _annulus_classes((range(2), range(k)), (1, k), EUCLIDEAN, 1, 0)
        assert (zero, rest) == (2 * k, 0)


class TestFalconerRatio:
    def test_single_point(self):
        rec = falconer_measure_ratio(1, 2, 1.4)
        assert rec.measure_lhs == 0.0

    def test_definition_arithmetic(self):
        rec = falconer_measure_ratio(2, 2, 1.4)
        assert rec.n_points == 8
        assert rec.eps == pytest.approx(8 ** (-5 / 7), abs=1e-15)
        assert rec.measure_lhs == pytest.approx(rec.count / 64, abs=1e-15)
        assert rec.ratio == pytest.approx(rec.measure_lhs / rec.eps, rel=1e-12)

    def test_grouped_equals_pairwise_brute_for_dyadic_n(self):
        # for dyadic n every difference is an exact float, so the float
        # pairwise count is exact too
        g = Gauge(PARABOLOID_BODY, 2)
        for n in (2, 4, 8):
            rec = falconer_measure_ratio(n, 2, 1.4)
            brute = annulus_incidences(gen_valtr(n, 2), g, 1.0, rec.eps, "brute")
            assert rec.count == brute.count, n

    def test_grouped_counter_against_exact_rational_oracle(self):
        # exact membership: t <= gauge <= t+e iff
        # r2 + t|xd| >= t^2 and r2 + (t+e)|xd| <= (t+e)^2
        cases = [(2, n, 1.4) for n in range(1, 13)] + [(3, n, 1.6) for n in range(1, 7)]
        cases += [(4, n, 2.2) for n in range(1, 5)] + [(5, n, 2.7) for n in range(1, 4)]
        for d, n, s in cases:
            rec = falconer_measure_ratio(n, d, s)
            hi = 1 + Fraction(rec.eps)
            n2 = n * n
            head = {}
            for di in np.ndindex(*(2 * n - 1,) * (d - 1)):
                D = [v - (n - 1) for v in di]
                S = sum(v * v for v in D)
                head[S] = head.get(S, 0) + int(np.prod([n - abs(v) for v in D]))
            expected = 0
            for S, mult in head.items():
                r2 = Fraction(S, n2)
                for dd in range(-(n2 - 1), n2):
                    xd = Fraction(abs(dd), n2)
                    if r2 + xd >= 1 and r2 + hi * xd <= hi * hi:
                        expected += mult * (n2 - abs(dd))
            assert rec.count == expected, (d, n)

    @pytest.mark.parametrize("n", [128, 256, 512, 1024, 2048])
    def test_no_near_miss_pairs_from_n128(self, n):
        # eps = n^(-15/7) <= 1/(2n^2) leaves only the exact incidences in the
        # band; n = 2048 has N^2 >= 2^63
        assert falconer_measure_ratio(n, 2, 1.4).count == exact_valtr_incidences(n, 2).count

    def test_class_limit_refused_before_allocating(self):
        # 599^3 head classes exceed the exact-path limit
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                falconer_measure_ratio(300, 4, 2.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_s_out_of_range(self):
        with pytest.raises(ParameterError):
            falconer_measure_ratio(2, 2, 1.5)
        with pytest.raises(ParameterError):
            falconer_measure_ratio(2, 2, 0.9)
