import math
import tracemalloc

import numpy as np
import pytest

from incidence_lab import (
    CapacityError,
    DivergenceError,
    InputError,
    ParameterError,
    PointSet,
    adaptability_sum,
    cube_self_energy,
    energy_decomposition,
    gen_lattice,
    gen_lenz,
    gen_mattila2,
    gen_mattila3,
    gen_valtr,
)
from incidence_lab.energy import _brute_pair_sum, _grouped_pair_sum, ball_bound_constant

# high-sample quadrature oracle for the unit-square inverse-distance self
# energy, computed once with scipy.integrate.dblquad (abs err < 1e-11):
# C(2, 1) = 4 * int_0^1 int_0^1 (1-u)(1-v)/sqrt(u^2+v^2) du dv
CUBE_ENERGY_2D_S1 = 2.973209598247


def strip_axes(pset):
    return PointSet(
        dim=pset.dim,
        denominators=pset.denominators,
        numerators=pset.numerators,
        label=pset.label,
    )


class TestAdaptabilitySum:
    def test_two_points(self):
        p = PointSet(dim=2, denominators=(1, 1), numerators=((0, 0), (1, 0)))
        assert adaptability_sum(p, 2.7).lambda_s == pytest.approx(0.5, abs=1e-15)

    def test_lenz8_closed_form(self):
        # 8*(2^(1/4) + 2^(-3/2)) + 32*2^(-3/4), over 64
        expected = (8 * (2**0.25 + 2**-1.5) + 32 * 2**-0.75) / 64
        got = adaptability_sum(gen_lenz(8), 1.5).lambda_s
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.4901, abs=1e-4)

    def test_scale_covariance(self):
        p = gen_valtr(3, 2)
        halved = PointSet(
            dim=2,
            denominators=tuple(2 * den for den in p.denominators),
            numerators=p.numerators,
            label="custom",
        )
        s = 1.3
        full = adaptability_sum(strip_axes(p), s).lambda_s
        half = adaptability_sum(halved, s).lambda_s
        assert half == pytest.approx(2**s * full, rel=1e-10)

    def test_grouped_equals_brute(self):
        cases = [
            (gen_valtr(3, 2), 1.2),
            (gen_valtr(2, 3), 1.7),
            (gen_lattice(4, 3), 1.1),
            (gen_mattila3(0.4, 1), 1.3),
            (gen_mattila2(0.5, 0), 1.3),
        ]
        for pset, s in cases:
            grouped = adaptability_sum(pset, s).lambda_s
            assert grouped == _grouped_pair_sum(pset.axes, pset.denominators, s) / pset.n_points**2
            brute = adaptability_sum(strip_axes(pset), s).lambda_s
            assert grouped == pytest.approx(brute, rel=1e-12)

    def test_grouped_path_needs_evenly_spaced_axes(self):
        # the class path needs the axes, not an even spacing of them: a set
        # without axes is summed over all pairs, an uneven axis is grouped
        plain = strip_axes(gen_valtr(3, 2))
        assert adaptability_sum(plain, 1.2).lambda_s == _brute_pair_sum(plain.to_floats(), 1.2, 1) / plain.n_points**2
        uneven = gen_mattila2(0.5, 1)  # x axis -7/8, -1/8, 1/8, 7/8
        grouped = adaptability_sum(uneven, 1.2).lambda_s
        assert grouped == _grouped_pair_sum(uneven.axes, uneven.denominators, 1.2) / uneven.n_points**2
        assert grouped == pytest.approx(adaptability_sum(strip_axes(uneven), 1.2).lambda_s, rel=1e-12)

    @pytest.mark.parametrize(
        "pset",
        [
            gen_mattila2(0.5, 1),
            gen_mattila2(0.48, 1),
            gen_mattila2(0.48, 2),
            gen_mattila3(0.4, 2),
            gen_mattila3(1 / 15, 2),
        ],
        ids=["mattila2-0.5-1", "mattila2-0.48-1", "mattila2-0.48-2", "mattila3-0.4-2", "mattila3-1/15-2"],
    )
    def test_grouped_equals_fraction_oracle(self, pset):
        # |p - q|^2 exact per pair, rounded once; the mattila3 delta = 1/15
        # axis has values 2^-90 apart, where float coordinate differences
        # cancel
        pts = [pset.point(i) for i in range(pset.n_points)]
        for s in (1.1, 1.3, 1.7):
            terms = [
                float(sum((a - b) ** 2 for a, b in zip(p, q))) ** (-s / 2)
                for i, p in enumerate(pts)
                for q in pts[i + 1 :]
            ]
            oracle = 2 * math.fsum(terms) / pset.n_points**2
            assert adaptability_sum(pset, s).lambda_s == pytest.approx(oracle, rel=1e-13)

    def test_nearly_colliding_cantor_axis_is_finite(self):
        # the third axis holds values about 2^-90 apart, which round to the
        # same float64; their gaps do not
        pset = gen_mattila3(1 / 15, 3)
        for s in (1.1, 1.3, 1.7):
            assert math.isfinite(adaptability_sum(pset, s).lambda_s)

    def test_grouped_memory_is_bounded_by_classes(self):
        pset = gen_mattila2(0.48, 6)  # 741,504 points
        tracemalloc.start()
        try:
            adaptability_sum(pset, 1.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20

    def test_mattila2_above_max_points(self):
        # 6,284,544 points, summed over the classes of its axes
        assert adaptability_sum(gen_mattila2(0.48, 7), 1.3).lambda_s == pytest.approx(5.480350429081992, rel=1e-12)

    def test_class_limits_refuse_before_building(self):
        # 2000^3 head classes; 2000 x 4,000,000 classes; 9842 x 104,032 classes
        for pset in (gen_lattice(2000, 4), gen_valtr(2000, 2), gen_mattila2(0.48, 8)):
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError, match="difference classes"):
                    adaptability_sum(pset, 1.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lenz_brute_pins(self, threads):
        # pinned bit for bit, so a change in the order of the per-axis r^2
        # sums shows; both equal the correctly rounded sum of their N^2 terms
        assert adaptability_sum(gen_lenz(1024), 1.5, threads=threads).lambda_s == 3.9156525835101306
        assert adaptability_sum(gen_lenz(2048), 1.5, threads=threads).lambda_s == 5.470277332563277

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lenz_multichunk_pin(self, threads):
        # many upper-triangle tiles; equals the correctly rounded sum of its
        # N^2 terms
        assert adaptability_sum(gen_lenz(4096), 1.5, threads=threads).lambda_s == 7.668846809552831

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lenz_within_one_ulp_of_fsum(self, threads):
        # the reference is the correctly rounded sum of all N^2 float terms
        for n in (64, 128, 256, 512, 1024):
            pts = gen_lenz(n).to_floats()
            r2 = np.zeros((n, n))
            for k in range(pts.shape[1]):
                diff = pts[:, k] - pts[:, k, None]
                r2 += diff * diff
            np.fill_diagonal(r2, np.inf)
            want = math.fsum(np.power(r2, -0.75).ravel()) / (n * n)
            got = adaptability_sum(gen_lenz(n), 1.5, threads=threads).lambda_s
            assert abs(got - want) <= math.ulp(want), n

    def test_threads_deterministic(self):
        p = strip_axes(gen_valtr(3, 2))
        assert adaptability_sum(p, 1.4, threads=2).lambda_s == adaptability_sum(p, 1.4).lambda_s

    def test_lenz_growth(self):
        # same-circle clusters force lambda_s to grow like N^(s-1) for s > 1
        s = 1.5
        values = {N: adaptability_sum(gen_lenz(N), s).lambda_s for N in (64, 128, 256, 512)}
        for N in (64, 128, 256):
            assert values[2 * N] / values[N] >= 2 ** (s - 1) * 0.8

    def test_valtr_bounded(self):
        for s in (1.0, 1.4):
            vals = [adaptability_sum(gen_valtr(n, 2), s).lambda_s for n in (4, 8, 16)]
            assert max(vals) / min(vals) < 3.0

    def test_errors(self):
        p = PointSet(dim=2, denominators=(1, 1), numerators=((0, 0), (1, 0)))
        with pytest.raises(ParameterError):
            adaptability_sum(p, 0.0)
        single = PointSet(dim=2, denominators=(1, 1), numerators=((0, 0),))
        with pytest.raises(InputError):
            adaptability_sum(single, 1.0)


class TestCubeSelfEnergy:
    def test_s0_is_one(self):
        est = cube_self_energy(1, 0.0, seed=3)
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_1d_closed_form(self):
        # C(1, s) = 2 / ((1-s)(2-s))
        for s in (0.25, 0.5, 0.75):
            est = cube_self_energy(1, s, samples=400_000, seed=11)
            closed = 2.0 / ((1.0 - s) * (2.0 - s))
            assert abs(est.value - closed) < 3.0 * est.stderr + 1e-12

    def test_2d_quadrature_oracle(self):
        est = cube_self_energy(2, 1.0, samples=400_000, seed=12)
        assert abs(est.value - CUBE_ENERGY_2D_S1) < 3.0 * est.stderr

    def test_deterministic_given_seed(self):
        a = cube_self_energy(2, 1.0, seed=5)
        b = cube_self_energy(2, 1.0, seed=5)
        assert a == b

    def test_errors(self):
        with pytest.raises(DivergenceError):
            cube_self_energy(2, 2.0)
        with pytest.raises(ParameterError):
            cube_self_energy(2, 1.0, samples=100)

    def test_ball_bound_dominates_cube_constant(self):
        # the sqrt(d)-ball integral is an upper bound, not an equality
        for d, s in [(1, 0.5), (2, 1.0), (2, 1.4), (3, 1.9)]:
            est = cube_self_energy(d, s, samples=100_000, seed=21)
            assert est.value + 3 * est.stderr < ball_bound_constant(d, s)
        with pytest.raises(DivergenceError):
            ball_bound_constant(2, 2.0)


class TestEnergyDecomposition:
    def test_cross_term_is_adaptability_sum(self):
        rep = energy_decomposition(2, 2, 1.4, seed=0)
        assert rep.cross_term == adaptability_sum(gen_valtr(2, 2), 1.4).lambda_s
        assert rep.lambda_s == rep.self_term + rep.cross_term

    def test_cross_term_bounded_2d(self):
        vals = [energy_decomposition(n, 2, 1.4, seed=0).cross_term for n in (4, 8, 16)]
        assert max(vals) / min(vals) < 3.0

    def test_cross_term_bounded_3d(self):
        vals = [energy_decomposition(n, 3, 1.9, seed=0).cross_term for n in (3, 6, 12)]
        assert max(vals) / min(vals) < 3.0

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            energy_decomposition(1, 2, 1.4)
        with pytest.raises(ParameterError):
            energy_decomposition(4, 2, 1.6)
