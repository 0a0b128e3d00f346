import math
import tracemalloc

import numpy as np
import pytest

from incidence_lab import (
    CapacityError,
    FFSet,
    InputError,
    ParameterError,
    ff_fourier,
    ff_pair_count,
    ff_paraboloid,
    ff_sphere,
    is_prime,
    sharpness_ratio,
    sharpness_set,
)
from incidence_lab.ffield import _autocorrelation, _spectrum

SMALL_FIELDS = [(q, d) for q in (3, 5, 7, 11, 13) for d in (2, 3)]


def random_ffset(rng, q, d, density):
    ind = rng.random((q,) * d) < density
    ind.flat[0] = True  # keep nonempty
    return FFSet(q=q, dim=d, indicator=ind)


def dense(s):
    """The same set given by its indicator grid, so that the Fourier count
    takes the dense path."""
    return FFSet(q=s.q, dim=s.dim, indicator=s.indicator)


def half_spectrum(ind):
    """rfft on every last-axis line, then fftn over the leading axes."""
    return np.fft.fftn(np.fft.rfft(ind), axes=range(ind.ndim - 1))


def full_spectrum_pair_count(E, gamma):
    """The Fourier pair count from E's half spectrum with every line
    transformed: E's autocorrelation, the inverse transform of |E_hat|^2 as
    the real part of the complex product E_hat * conj(E_hat), summed over
    gamma."""
    e_hat = half_spectrum(E.indicator)
    corr = np.fft.irfftn((e_hat * e_hat.conj()).real, s=E.indicator.shape, axes=range(E.dim))
    return float(corr[gamma.indicator].sum())


def ff_inverse_at(spec, x):
    """Inversion f(x) = sum_m chi(x . m) f_hat(m), for spot checks."""
    q = spec.q
    phase = np.zeros((q,) * spec.dim)
    for axis, xi in enumerate(x):
        shape = [1] * spec.dim
        shape[axis] = q
        phase = phase + (np.arange(q) * int(xi)).reshape(shape)
    return complex((np.exp(2j * np.pi * phase / q) * spec.values).sum())


def spectrum_sets(q, d):
    """The sharpness box, the sphere, the paraboloid and sparse random sets
    of F_q^d, where each is defined."""
    rng = np.random.default_rng(q * 10 + d)
    sets = {"sphere": ff_sphere(q, d, 1)}
    if d > 1:
        sets["paraboloid"] = ff_paraboloid(q, d)
        if (d - 1) * q ** 0.8 < q:
            sets["sharpness"] = sharpness_set(q, 0.1, d)
    for points in (0, 1, 3, 2 * q):
        ind = np.zeros(q**d, dtype=np.bool_)
        ind[rng.integers(0, q**d, size=points)] = True
        sets[f"random{points}"] = FFSet(q=q, dim=d, indicator=ind.reshape((q,) * d))
    return sets


class TestVarieties:
    def test_sphere_q5_t1(self):
        s = ff_sphere(5, 2, 1)
        assert s.size == 4
        cells = {tuple(row) for row in s.coords().tolist()}
        assert cells == {(1, 0), (4, 0), (0, 1), (0, 4)}

    def test_sphere_q5_t0_isotropic(self):
        assert ff_sphere(5, 2, 0).size == 9

    def test_paraboloid_size_exact(self):
        for q, d in SMALL_FIELDS:
            assert ff_paraboloid(q, d).size == q ** (d - 1)

    def test_quadric_sizes_equal_grid(self):
        # the closed forms against the grid sums, over F_2 too and at every t
        for q in (2, 3, 5, 7, 11, 13):
            for d in (1, 2, 3, 4):
                quadrics = [ff_sphere(q, d, t) for t in range(q)] + ([ff_paraboloid(q, d)] if d > 1 else [])
                for s in quadrics:
                    size = s.size
                    assert "indicator" not in vars(s)
                    assert size == int(s.indicator.sum()), (q, d, s.quadric)

    def test_quadric_sizes_past_the_cell_limit(self):
        # 401^3 cells: the sizes need no grid
        assert ff_paraboloid(401, 3).size == 401**2
        assert ff_sphere(401, 3, 1).size == 161202  # q^2 + q eta(-1), and 401 = 1 mod 4
        assert ff_sphere(401, 4, 0).size == 401**3 + 400 * 401

    def test_sphere_size_near_qd1(self):
        for q, d in SMALL_FIELDS:
            for t in range(1, q):
                size = ff_sphere(q, d, t).size
                assert 1 - 2 / math.sqrt(q) <= size / q ** (d - 1) <= 1 + 2 / math.sqrt(q)

    @pytest.mark.parametrize("q", [3, 5, 11, 13])
    @pytest.mark.parametrize("d", [2, 3])
    def test_indicators_equal_definition(self, q, d):
        x = np.indices((q,) * d)
        head = (x[:-1] ** 2).sum(axis=0)
        expected = {"paraboloid": head % q == x[-1]}
        expected |= {t: (head + x[-1] ** 2) % q == t for t in range(q)}
        for key, want in expected.items():
            got = ff_paraboloid(q, d) if key == "paraboloid" else ff_sphere(q, d, key)
            assert got.indicator.dtype == np.bool_ and np.array_equal(got.indicator, want), key

    def test_prime_required(self):
        with pytest.raises(ParameterError):
            ff_sphere(6, 2, 1)
        assert is_prime(2) and is_prime(13) and not is_prime(9)


class TestFourier:
    def test_paraboloid_zero_frequency(self):
        spec = ff_fourier(ff_paraboloid(5, 2))
        assert spec.values[0, 0] == pytest.approx(1 / 5, abs=1e-12)

    def test_paraboloid_gauss_magnitude(self):
        spec = ff_fourier(ff_paraboloid(5, 2))
        assert abs(spec.values[1, 1]) == pytest.approx(5**-1.5, abs=1e-12)

    def test_paraboloid_line_frequency_vanishes(self):
        for q, d in [(5, 2), (7, 3)]:
            spec = ff_fourier(ff_paraboloid(q, d))
            m = (1,) * (d - 1) + (0,)
            assert abs(spec.values[m]) < 1e-12

    def test_paraboloid_two_level_spectrum(self):
        # off zero, |H_hat| is either 0 or exactly q^-(d+1)/2
        for q, d in SMALL_FIELDS:
            spec = ff_fourier(ff_paraboloid(q, d))
            mags = np.abs(spec.values).ravel()[1:]
            level = q ** (-(d + 1) / 2)
            assert np.all((mags < 1e-9) | (np.abs(mags - level) < 1e-9))

    def test_sphere_salem_bound(self):
        # Kloosterman/Salie: |S_t hat| <= 2 q^-(d+1)/2 for t != 0
        for q, d in SMALL_FIELDS:
            for t in (1, q - 1):
                spec = ff_fourier(ff_sphere(q, d, t))
                assert spec.max_nonzero_mag <= 2 * q ** (-(d + 1) / 2) + 1e-12

    def test_plancherel(self):
        rng = np.random.default_rng(31)
        for q, d in [(5, 2), (7, 2), (11, 2), (5, 3)]:
            e = random_ffset(rng, q, d, 0.3)
            spec = ff_fourier(e)
            lhs = float((np.abs(spec.values) ** 2).sum())
            rhs = e.size / q**d
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_inversion_on_random_cells(self):
        rng = np.random.default_rng(32)
        e = random_ffset(rng, 7, 2, 0.4)
        spec = ff_fourier(e)
        for _ in range(10):
            x = tuple(int(v) for v in rng.integers(0, 7, size=2))
            val = ff_inverse_at(spec, x)
            assert val.real == pytest.approx(float(e.indicator[x]), abs=1e-9)
            assert abs(val.imag) < 1e-9


    @pytest.mark.parametrize("name", ["sharpness", "paraboloid"])
    def test_matches_reduced_phase_dft_q809(self, name):
        # reference: phases reduced mod q before exp, one axis at a time
        q = 809
        s = sharpness_set(q, 0.1, 2) if name == "sharpness" else ff_paraboloid(q, 2)
        k = np.arange(q)
        w = np.exp(-2j * np.pi * (np.outer(k, k) % q) / q)
        ref = w @ s.indicator.astype(np.complex128) @ w.T / q**2
        assert np.abs(ff_fourier(s).values - ref).max() <= 1e-16


class TestSpectrum:
    """_spectrum and the dense Fourier count must be NumPy's transforms,
    value for value."""

    # d = 4 has three leading axes, which fftn takes in one fixed order
    @pytest.mark.parametrize("q, d", [(q, d) for q in (2, 11, 101, 809) for d in (1, 2, 3, 4) if q**d <= 101**3])
    def test_equals_numpy(self, q, d):
        for name, s in spectrum_sets(q, d).items():
            assert np.array_equal(_spectrum(s.indicator), half_spectrum(s.indicator)), name

    @pytest.mark.parametrize("q, d", [(2, 1), (2, 2), (11, 1), (11, 2), (11, 3), (101, 2), (809, 2)])
    def test_pair_count_equals_full_spectrum(self, q, d):
        sets = {name: dense(s) for name, s in spectrum_sets(q, d).items()}
        gamma = sets.get("paraboloid", sets["sphere"])
        for name, e in sets.items():
            assert ff_pair_count(e, gamma, method="fourier") == full_spectrum_pair_count(e, gamma), name
            assert ff_pair_count(gamma, e, method="fourier") == full_spectrum_pair_count(gamma, e), name


class TestPairCount:
    def test_full_space_against_paraboloid(self):
        for q, d in [(3, 2), (5, 2), (3, 3)]:
            full = FFSet(q=q, dim=d, indicator=np.ones((q,) * d, dtype=np.bool_))
            h = ff_paraboloid(q, d)
            assert ff_pair_count(full, h) == q ** (2 * d - 1)

    def test_single_point_gamma_without_origin(self):
        ind = np.zeros((5, 5), dtype=np.bool_)
        ind[2, 3] = True
        single = FFSet(q=5, dim=2, indicator=ind)
        gamma = ff_sphere(5, 2, 1)  # 0 not on the sphere for t != 0
        assert ff_pair_count(single, gamma) == 0

    def test_brute_equals_fourier_random(self):
        rng = np.random.default_rng(33)
        for trial in range(50):
            q = int(rng.choice([3, 5, 7, 11, 13]))
            d = int(rng.choice([2, 3]))
            density = float(rng.uniform(0.1, 0.5))
            e = random_ffset(rng, q, d, density)
            gamma = ff_paraboloid(q, d) if trial % 2 else ff_sphere(q, d, 1 + trial % (q - 1))
            brute = ff_pair_count(e, gamma, method="brute")
            fourier = ff_pair_count(e, gamma, method="fourier")
            assert abs(brute - fourier) < 1e-6
            assert fourier == full_spectrum_pair_count(e, gamma)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_brute_equals_fourier_q2(self, d):
        # q = 2 is the one even field: its last-axis half spectrum ends on
        # the Nyquist bin 1, which irfftn must take as its own mirror
        gammas = [ff_sphere(2, d, t) for t in (0, 1)] + ([ff_paraboloid(2, d)] if d > 1 else [])
        for cells in range(1, 2**d + 1):
            ind = np.zeros(2**d, dtype=np.bool_)
            ind[:cells] = True
            e = FFSet(q=2, dim=d, indicator=ind.reshape((2,) * d))
            for gamma in gammas:
                fourier = ff_pair_count(e, gamma, method="fourier")
                assert abs(fourier - ff_pair_count(e, gamma)) < 1e-6
                assert fourier == full_spectrum_pair_count(e, gamma)

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 31])
    def test_brute_equals_fourier_one_dimension(self, q):
        rng = np.random.default_rng(q)
        for density in (0.2, 0.5, 1.0):
            e = random_ffset(rng, q, 1, density)
            for t in range(q):
                gamma = ff_sphere(q, 1, t)
                fourier = ff_pair_count(e, gamma, method="fourier")
                assert abs(fourier - ff_pair_count(e, gamma)) < 1e-6, (q, t)
                assert fourier == full_spectrum_pair_count(e, gamma), (q, t)

    def test_fourier_peak_q809(self):
        # E's half spectrum of 809 x 405 complex values, irfftn's complex copy
        # of |E_hat|^2 and the 809 x 809 real autocorrelation, about 5 MiB
        # each; two full complex spectra alone would take 20 MiB. Both sets are
        # given by their grids, so the count takes the dense path.
        box, par = dense(sharpness_set(809, 0.1, 2)), dense(ff_paraboloid(809, 2))
        tracemalloc.start()
        try:
            count = ff_pair_count(box, par, method="fourier")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(count - 39525) < 1e-6
        assert count == full_spectrum_pair_count(box, par)
        assert peak < 25 * 2**20

    def test_dense_brute_peak_q53(self):
        # the sphere (2,862 points) against the paraboloid takes the dense
        # exact path, whose chunks are sized by bytes, not by rows
        sphere, par = ff_sphere(53, 3, 1), ff_paraboloid(53, 3)
        tracemalloc.start()
        try:
            count = ff_pair_count(sphere, par)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 165518 == round(ff_pair_count(sphere, par, method="fourier"))
        assert peak < 16 * 2**20

    def test_mismatched_fields_rejected(self):
        with pytest.raises(ParameterError):
            ff_pair_count(ff_sphere(5, 2, 1), ff_sphere(7, 2, 1))


def product_grid(factors):
    """The grid of the product set A_1 x ... x A_d, cell by cell."""
    q, d = len(factors[0]), len(factors)
    grid = np.ones((q,) * d, dtype=np.bool_)
    for axis, f in enumerate(factors):
        grid &= f.reshape((1,) * axis + (q,) + (1,) * (d - 1 - axis))
    return grid


class TestProductQuadric:
    """The Fourier count of a product set against a quadric multiplies the
    1-D autocorrelations and builds no q^d grid."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_brute(self, q, d):
        # the exact class count and the Fourier count against the enumeration
        rng = np.random.default_rng(100 * q + d)
        cells = np.arange(q)
        products = [tuple(rng.random(q) < density for _ in range(d)) for density in (0.3, 0.6, 1.0)]
        products.append(tuple(cells <= rng.integers(0, q) for _ in range(d)))  # a box
        products.append(tuple(cells <= rng.integers(0, q) for _ in range(d - 1)) + (cells <= q - 1,))
        products.append((cells < 0,) + tuple(rng.random(q) < 0.5 for _ in range(d - 1)))  # empty
        gammas = [ff_sphere(q, d, t) for t in range(q)] + ([ff_paraboloid(q, d)] if d > 1 else [])
        for factors in products:
            e = FFSet(q=q, dim=d, factors=factors)
            exact = [ff_pair_count(e, gamma) for gamma in gammas]
            assert "indicator" not in vars(e)
            for gamma, count in zip(gammas, exact):
                brute = ff_pair_count(dense(e), gamma, method="brute")
                assert type(count) is int and count == brute, (gamma.quadric, factors)
                assert abs(ff_pair_count(e, gamma, method="fourier") - brute) < 1e-6, (gamma.quadric, factors)

    @pytest.mark.parametrize("q, d", [(101, 2), (809, 2), (1601, 2), (101, 3), (211, 3), (401, 3), (4099, 4)])
    def test_equals_class_count(self, q, d):
        exact = ff_pair_count(sharpness_set(q, 0.1, d), ff_paraboloid(q, d))
        count = ff_pair_count(sharpness_set(q, 0.1, d), ff_paraboloid(q, d), method="fourier")
        assert abs(count - exact) <= 1e-12 * exact

    def test_builds_no_grid_q809(self):
        tracemalloc.start()
        try:
            box, par = sharpness_set(809, 0.1, 2), ff_paraboloid(809, 2)
            count = ff_pair_count(box, par, method="fourier")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(count - 39525) < 1e-6
        assert peak < 2**20
        assert "indicator" not in vars(box) and "indicator" not in vars(par)

    def test_grid_past_the_cell_limit(self):
        # 401^3 = 64,481,201 cells: the counts and the size need no grid
        box, par = sharpness_set(401, 0.1, 3), ff_paraboloid(401, 3)
        assert box.size == 11**2 * 242
        assert abs(ff_pair_count(box, par, method="fourier") - 2958166) <= 1e-12 * 2958166
        count = ff_pair_count(box, par, method="brute")
        assert type(count) is int and count == 2958166
        with pytest.raises(CapacityError):
            box.indicator

    @pytest.mark.parametrize("q, d", [(2, 1), (5, 2), (13, 3), (101, 2), (11, 4)])
    def test_indicator_on_demand_equals_eager(self, q, d):
        rng = np.random.default_rng(q + d)
        factors = tuple(rng.random(q) < 0.5 for _ in range(d))
        e = FFSet(q=q, dim=d, factors=factors)
        assert e.size == int(product_grid(factors).sum())
        assert e.indicator.dtype == np.bool_ and np.array_equal(e.indicator, product_grid(factors))
        if d > 1 and (d - 1) * q**0.8 < q:
            a_max, b_max = math.floor(q**0.4), math.floor((d - 1) * q**0.8)
            eager = np.zeros((q,) * d, dtype=np.bool_)
            eager[(slice(0, a_max + 1),) * (d - 1) + (slice(0, b_max + 1),)] = True
            box = sharpness_set(q, 0.1, d)
            assert box.size == int(eager.sum()) and np.array_equal(box.indicator, eager)


def oracle_product_pairs(factors, quadrics):
    """The pair count of a product against each quadric, built apart from
    ffield: each axis's ordered pairs binned by their difference mod q
    (np.subtract.outer, np.bincount), the head axes' tables binned by g^2
    and convolved cyclically as q x q int64 products, and the last sum read
    in Python ints. For dim >= 2."""
    q = len(factors[0])
    g = np.arange(q)
    diffs = []
    for f in factors:
        cells = np.flatnonzero(f)
        table = np.zeros(2 * q, dtype=np.int64)  # x - y + q lies in [1, 2q - 1]
        for i in range(0, len(cells), 256):
            table += np.bincount(np.subtract.outer(cells[i : i + 256] + q, cells).ravel(), minlength=2 * q)
        diffs.append(table[:q] + table[q:])

    def by_square(table):
        out = np.zeros(q, dtype=np.int64)
        np.add.at(out, g * g % q, table)
        return out

    heads = [by_square(table) for table in diffs[:-1]]
    total = heads[0]
    for head in heads[1:]:  # total[s] = sum_u head[u] total[s - u]
        total = np.concatenate([total[(rows[:, None] - g) % q] @ head for rows in np.array_split(g, -(-q // 256))])
    counts = []
    for kind, t in quadrics:
        last = diffs[-1] if kind == "paraboloid" else by_square(diffs[-1])[(t - g) % q]
        counts.append(sum(int(x) * int(y) for x, y in zip(total.tolist(), last.tolist())))
    return counts


class TestProductTables:
    """The exact product count against an oracle that shares none of its
    code, on random factors the difference-class count refused."""

    @pytest.mark.parametrize("q, d", [(101, 2), (211, 2), (4099, 2), (16411, 2), (101, 3), (401, 3), (2053, 3),
                                      (53, 4), (101, 4)])
    def test_equals_oracle(self, q, d):
        rng = np.random.default_rng(7 * q + d)
        quadrics = [("paraboloid", 0), ("sphere", 0), ("sphere", int(rng.integers(1, q)))]
        for density in (0.5, 0.1):
            factors = tuple(rng.random(q) < density for _ in range(d))
            e = FFSet(q=q, dim=d, factors=factors)
            counts = [ff_pair_count(e, FFSet(q=q, dim=d, quadric=quadric)) for quadric in quadrics]
            assert all(type(count) is int for count in counts)
            assert counts == oracle_product_pairs(factors, quadrics), density

    @pytest.mark.parametrize("q, d, count", [(4099, 4, 934146100880), (16411, 5, 259981278792281615),
                                             (25693, 6, 7134975919330172074351)])
    def test_top_rung_pins(self, q, d, count):
        # the exact counts of the top ff-sharpness rungs, as the difference-class count gave them
        assert ff_pair_count(sharpness_set(q, 0.1, d), ff_paraboloid(q, d)) == count

    def test_all_ones_autocorrelation(self):
        # the widest span and the largest entries: the FFT must round to w - |g| exactly
        q = 25693
        corr = _autocorrelation(np.ones(q, dtype=np.bool_))
        assert corr.dtype == np.int64 and np.array_equal(corr, q - np.arange(q))

    def test_autocorrelation_over_the_span(self):
        assert _autocorrelation(np.zeros(7, dtype=np.bool_)).size == 0
        cells = np.zeros(11, dtype=np.bool_)
        cells[[3, 4, 8]] = True
        assert _autocorrelation(cells).tolist() == [3, 1, 0, 0, 1, 1]


class TestSharpness:
    def test_population_sizes_q101(self):
        e = sharpness_set(101, 0.1, 2)
        assert e.size == 287  # |A| = 7, |B| = 41
        proj = e.indicator.any(axis=1)
        assert int(proj.sum()) == 7
        proj2 = e.indicator.any(axis=0)
        assert int(proj2.sum()) == 41

    def test_pair_count_closed_form(self):
        # sum over dx of (7 - |dx|)(41 - dx^2), the tangency column count
        expected = sum((7 - abs(dx)) * (41 - dx * dx) for dx in range(-6, 7))
        assert expected == 1617
        e = sharpness_set(101, 0.1, 2)
        h = ff_paraboloid(101, 2)
        assert ff_pair_count(e, h, method="brute") == 1617

    @pytest.mark.parametrize("q", [11, 13, 101, 211])
    @pytest.mark.parametrize("d", [2, 3])
    def test_class_count_equals_brute(self, q, d):
        checked = 0
        for delta in (0.1, 0.15, 0.2, 0.25):
            if (q, d, delta) == (211, 3, 0.1):
                continue  # 3.3e7 pairs: 6 s of brute enumeration
            try:
                e = sharpness_set(q, delta, d)
            except ParameterError:
                continue
            brute = ff_pair_count(dense(e), ff_paraboloid(q, d), method="brute")
            assert ff_pair_count(e, ff_paraboloid(q, d)) == brute, delta
            assert sharpness_ratio(q, delta, d) == brute * q / e.size**2
            checked += 1
        assert checked >= 2

    def test_ratio_value(self):
        assert sharpness_ratio(101, 0.1, 2) == pytest.approx(1617 * 101 / 287**2, rel=1e-12)
        assert sharpness_ratio(101, 0.1, 2) == pytest.approx(1.983, abs=1e-3)

    def test_ratio_scales_like_q_2delta(self):
        vals = [sharpness_ratio(q, 0.1, 2) / q**0.2 for q in (101, 211, 401, 809)]
        assert max(vals) / min(vals) <= 4.0

    def test_wraparound_guard(self):
        with pytest.raises(ParameterError):
            sharpness_set(11, 0.01, 3)

    def test_delta_domain(self):
        with pytest.raises(ParameterError):
            sharpness_set(101, 0.3, 2)
        with pytest.raises(ParameterError):
            sharpness_set(101, 0.0, 2)


class TestFFSetValidation:
    def test_wrong_shape_rejected(self):
        with pytest.raises(InputError):
            FFSet(q=5, dim=2, indicator=np.ones((5, 4), dtype=np.bool_))

    def test_composite_q_rejected(self):
        with pytest.raises(ParameterError):
            FFSet(q=9, dim=2, indicator=np.ones((9, 9), dtype=np.bool_))

    def test_exactly_one_description(self):
        ind = np.ones((5, 5), dtype=np.bool_)
        line = np.ones(5, dtype=np.bool_)
        with pytest.raises(InputError):
            FFSet(q=5, dim=2)
        with pytest.raises(InputError):
            FFSet(q=5, dim=2, indicator=ind, factors=(line, line))

    def test_bad_factors_and_quadrics_rejected(self):
        line = np.ones(5, dtype=np.bool_)
        for factors in [(line,), (line, np.ones(4, dtype=np.bool_)), (line, line.astype(int))]:
            with pytest.raises(InputError):
                FFSet(q=5, dim=2, factors=factors)
        with pytest.raises(InputError):
            FFSet(q=5, dim=2, quadric=("cone", 0))
        with pytest.raises(ParameterError):
            ff_paraboloid(5, 1)
        with pytest.raises(ParameterError):
            FFSet(q=9, dim=2, factors=(np.ones(9, dtype=np.bool_),) * 2)
