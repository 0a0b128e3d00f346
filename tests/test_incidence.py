import math
import random
import tracemalloc
from fractions import Fraction
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
from incidence_lab.energy import _brute_pair_sum
from incidence_lab.incidence import (
    _PRUNE_PAIRS,
    _TILE_BYTES,
    _annulus_brute,
    _annulus_classes,
    _annulus_grid,
    _band_count,
    _band_limits,
    _brute_valtr_cap_counts,
    _grid_runs,
    _map_upper_tiles,
    _runs_r2,
)


def random_pointset(rng, dim, n, den=64):
    rows = set()
    while len(rows) < n:
        rows.add(tuple(int(v) for v in rng.integers(-den, den + 1, size=dim)))
    return PointSet(dim=dim, denominators=(den,) * dim, numerators=tuple(sorted(rows)))


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
        # brute and grid decide the band on the float gauge of gauge_values,
        # with no Euclidean prefilter: the 400 ridge pairs of (5, 3), gaps
        # (3/5, 4/5, 0) in some order, have gauge 1.0 in float, and 200 of
        # them have a float |y - x|^2 just above 1
        pts = gen_valtr(5, 3).to_floats()
        g = Gauge(PARABOLOID_BODY, 3)
        want = int((gauge_values(g, pts[None, :, :] - pts[:, None, :]) == 1.0).sum())
        assert want == 8560
        for method in ("brute", "grid"):
            assert annulus_incidences(gen_valtr(5, 3), g, 1.0, 0.0, method=method).count == want

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
            assert brute == grid, (trial, dim, n, kind, t, eps)

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
        # pinned at the 2048-row chunk loop; the upper-triangle tiles count the same
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


class TestGridPrune:
    """The grid method prunes cell pairs by a table over the integer sums of
    squared cell gaps; every prune decision, and so every count, must be the
    one the per-pair float test makes, which the brute method shares."""

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_tiny_t_keeps_cell_keys_in_int64(self, kind):
        # cells of side t/64 put the key of a coordinate 1 past int64 below
        # t = 2^-57; the side is floored at 2^-60
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
            assert len(set(counts.values())) == 1, (t, eps, counts)
            assert want is None or counts["grid"] == want, (t, eps, counts)

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_equals_brute_over_several_prune_blocks(self, kind):
        # one point per cell of side t/64 = 1/128, on a 1/64 lattice
        pset = random_pointset(np.random.default_rng(77), 2, 2500)
        n_cells = len(np.unique(np.floor(pset.to_floats() * 128), axis=0))
        assert n_cells**2 > 4 * _PRUNE_PAIRS
        g = Gauge(kind, 2)
        for t, eps in [(0.5, 0.0), (0.5, 0.05), (1.3, 0.01)]:
            brute = annulus_incidences(pset, g, t, eps, method="brute").count
            assert annulus_incidences(pset, g, t, eps, method="grid").count == brute, (t, eps)

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
                brute = annulus_incidences(pset, g, t, eps, method="brute").count
                assert brute > 0
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
        # the float decision misses edge ties: the exact count is 1744 (see
        # test_lattice_edge_ties); pinned so the prune cannot move it
        p = gen_lattice(12, 2)
        assert annulus_incidences(p, Gauge(EUCLIDEAN, 2), 0.5, 0.05, method="grid").count == 1696

    def test_prune_peak(self):
        # 1792 occupied cells in 28 heads: the prune holds arrays over the
        # 50k (source cell, head) pairs, not over all 3.2M cell pairs, and
        # the count holds one chunk of about 2^16 candidate pairs
        pset = gen_mattila2(0.48, 4)
        eps = pset.n_points ** (-1.0 / 1.48)
        tracemalloc.start()
        try:
            count = annulus_incidences(pset, Gauge(EUCLIDEAN, 2), 1.0, eps, method="grid").count
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 608216
        assert peak < 20 * 2**20

    def test_mattila2_paraboloid_pin(self):
        # the grid and brute float decisions agree with the exact count here
        pset = gen_mattila2(0.48, 4)
        eps = pset.n_points ** (-1.0 / 1.48)
        g = Gauge(PARABOLOID_BODY, 2)
        counts = {m: annulus_incidences(pset, g, 1.0, eps, method=m).count for m in ("grid", "brute", "classes")}
        assert counts == {"grid": 225864, "brute": 225864, "classes": 225864}

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    @pytest.mark.parametrize(
        "name, t, eps",
        [
            ("mattila2", 1.0, None),
            ("lenz", 1.4, 0.03),
            ("lenz", 1.0, 0.05),
            ("lattice3", 0.5, 0.05),
            ("columns", 0.5, 0.05),
            ("columns", 0.01, 0.3),  # cells of side 0.3 hold candidate pairs inside them
        ],
    )
    def test_candidates_equal_all_cell_pairs_prune(self, name, t, eps, kind):
        pset = {
            "mattila2": lambda: gen_mattila2(0.48, 4),
            "lenz": lambda: gen_lenz(1024),
            "lattice3": lambda: gen_lattice(12, 3),
            "columns": two_columns,
        }[name]()
        if eps is None:
            eps = pset.n_points ** (-1.0 / 1.48)
        pts = pset.to_floats()
        want = all_cell_pairs_candidates(pts, kind, t, eps)
        assert grid_candidates(pts, kind, t, eps) == want
        if name == "mattila2":
            assert want == {EUCLIDEAN: 5873152, PARABOLOID_BODY: 17893732}[kind]

    def test_equals_brute_in_one_dimension(self):
        # a 1-D set is one head; the kernels read the gauge for its kind only
        x = np.unique(np.random.default_rng(1).integers(-500, 501, 300)) / 250.0
        pts, g = x[:, None], Gauge(EUCLIDEAN, 2)
        for t, eps in [(1.0, 0.05), (0.5, 0.0), (0.01, 0.3)]:
            brute = _annulus_brute(pts, g, t, eps, 1)
            assert brute > 0 and _annulus_grid(pts, g, t, eps) == brute, (t, eps)

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_equals_brute_across_columns(self, kind):
        # between the columns the last-axis gaps run from 0 (B = 0, one
        # merged run of target cells); within a column from about t/h (two runs)
        pset, g = two_columns(), Gauge(kind, 2)
        for t, eps in [(0.5, 0.05), (0.5, 0.0), (0.25, 0.1)]:
            brute = annulus_incidences(pset, g, t, eps, method="brute").count
            assert brute > 0
            assert annulus_incidences(pset, g, t, eps, method="grid").count == brute, (t, eps)

    @pytest.mark.parametrize("kind", [EUCLIDEAN, PARABOLOID_BODY])
    def test_equals_brute_over_several_head_blocks(self, kind):
        # one point per cell of side 1/128 on a 1/64 lattice, almost every
        # cell its own head: several blocks of (source cell, head) pairs
        pset = random_pointset(np.random.default_rng(78), 3, 1200)
        keys = np.unique(np.floor(pset.to_floats() * 128), axis=0)
        assert len(keys) * len(np.unique(keys[:, :-1], axis=0)) > 3 * _PRUNE_PAIRS
        g = Gauge(kind, 3)
        for t, eps in [(0.5, 0.05), (0.75, 0.0)]:
            brute = annulus_incidences(pset, g, t, eps, method="brute").count
            assert brute > 0
            assert annulus_incidences(pset, g, t, eps, method="grid").count == brute, (t, eps)


def two_columns():
    """65 points on each of the lines x = 0 and x = 1/2, at y = k/64."""
    rows = [(x, y) for x in (0, 32) for y in range(-32, 33)]
    return PointSet(dim=2, denominators=(64, 64), numerators=tuple(rows))


def all_cell_pairs_candidates(pts, kind, t, eps):
    """Candidate pairs of a plain prune over all pairs of occupied cells of
    side h = max(eps, t/64): a cell pair with index gaps g_k is kept when
    h*sqrt(S_min) <= t + eps and h*sqrt(S_max) >= inner, S_min = sum
    max(g_k - 1, 0)^2 and S_max = sum (g_k + 1)^2, and counts the product
    of the two point counts."""
    h = max(eps, t / 64.0)
    inner = t * (math.sqrt(3.0) / 2.0 if kind == PARABOLOID_BODY else 1.0)
    keys, sizes = np.unique(np.floor(pts / h).astype(np.int64), axis=0, return_counts=True)
    total = 0
    for a in range(0, len(keys), 256):
        gap = np.abs(keys[None, :, :] - keys[a : a + 256, None, :])
        s_min = (np.maximum(gap - 1, 0) ** 2).sum(axis=2)
        s_max = ((gap + 1) ** 2).sum(axis=2)
        near = (h * np.sqrt(s_min) <= t + eps) & (h * np.sqrt(s_max) >= inner)
        total += int((sizes[a : a + 256, None] * sizes[None, :])[near].sum())
    return total


def grid_candidates(pts, kind, t, eps):
    """Ordered candidate pairs the grid method stands for: twice the pairs
    it evaluates against later cells, plus the ordered pairs inside each
    cell. Checks that every run of the first kind lies after its source
    cell, and every run of the second kind is the source cell itself."""
    _, bounds, same, later = _grid_runs(pts, Gauge(kind, pts.shape[1]), t, eps)
    sizes = np.diff(bounds)
    cell, first, stop = same
    assert np.array_equal(first, bounds[cell]) and np.array_equal(stop, bounds[cell + 1])
    cross = 0
    for cell, first, stop in later:
        assert (first >= bounds[cell + 1]).all() and (stop > first).all()
        cross += int((sizes[cell] * (stop - first)).sum())
    return 2 * cross + int((sizes[same[0]] ** 2).sum())


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
        # the grid's r^2 over target runs side by side, against the n_src
        # points of one source cell; for the paraboloid body r^2 over the
        # head axes and the last-axis gaps a
        rng = np.random.default_rng(n_src)
        tgt = rng.normal(size=(self.N, 4)) * [1.0, 1e-3, 1e3, 1.0]
        src = tgt[rng.integers(0, self.N, n_src)] + rng.normal(size=(n_src, 4)) * 1e-9
        cols = np.ascontiguousarray(np.vstack([tgt, src]).T)
        first, lens = np.array([0, 450, 500, 999]), np.array([300, 1, 499, 1])
        picked = np.concatenate([np.arange(f, f + n) for f, n in zip(first, lens)])
        for body in (False, True):
            r2, a = _runs_r2(cols, n_src, np.full(len(lens), self.N), first, lens, body)
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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_upper_tiles_match_per_axis_reference(self, threads):
        rng = np.random.default_rng(threads)
        pts = rng.normal(size=(self.N, 4)) * [1.0, 1e-3, 1e3, 1.0]
        ref = np.zeros((self.N, self.N))
        for k in range(4):
            diff = pts[:, k] - pts[:, k, None]
            ref += diff * diff
        got = np.full((self.N, self.N), np.inf)  # columns j < i0 belong to no tile
        for i0, tile in _map_upper_tiles(lambda r2, i0, i1: (i0, r2.copy()), pts, threads):
            got[i0 : i0 + len(tile), i0:] = tile
        upper = np.triu(np.ones((self.N, self.N), dtype=bool), k=1)
        assert np.array_equal(got[upper].view(np.int64), ref[upper].view(np.int64))
        assert np.all(got[~upper] == np.inf)

    def test_threads_do_not_change_brute_results(self):
        # an odd number of row-built points, over many tiles
        pts = random_pointset(np.random.default_rng(3), 3, 1501).to_floats()
        for kind in (EUCLIDEAN, PARABOLOID_BODY):
            counts = {threads: _annulus_brute(pts, Gauge(kind, 3), 0.5, 0.1, threads) for threads in (1, 2, 3)}
            assert counts[1] > 0 and counts[1] == counts[2] == counts[3]
        sums = {threads: _brute_pair_sum(pts, 1.3, threads) for threads in (1, 2, 3)}
        assert sums[1] == sums[2] == sums[3]

    def test_brute_peaks_hold_tiles(self):
        # each worker holds one r^2 tile and its difference buffer, 2 x 512
        # KiB; one 2048 x 4096 r^2 chunk alone would be 64 MiB
        pts = gen_lenz(4096).to_floats()
        runs = [lambda threads: _brute_pair_sum(pts, 1.5, threads)]
        runs += [lambda threads, g=Gauge(kind, 4): _annulus_brute(pts, g, 1.0, 0.05, threads) for kind in (EUCLIDEAN, PARABOLOID_BODY)]
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

    @pytest.mark.parametrize("d, ns", [(2, range(1, 13)), (3, range(1, 7))])
    def test_valtr_unit_surface(self, d, ns):
        g = Gauge(PARABOLOID_BODY, d)
        for n in ns:
            got = annulus_incidences(gen_valtr(n, d), g, 1.0, 0.0, "classes").count
            assert got == exact_valtr_incidences(n, d).count, n

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
