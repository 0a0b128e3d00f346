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

# the unit-square inverse-distance self energy
# C(2, 1) = 4 * int_0^1 int_0^1 (1-u)(1-v)/sqrt(u^2+v^2) du dv, computed once
# with scipy.integrate.dblquad (abs err < 1e-11), and in closed form
CUBE_ENERGY_2D_S1 = 2.973209598247
CUBE_ENERGY_2D_S1_CLOSED = 4 * math.log(1 + math.sqrt(2)) - 4 / 3 * (math.sqrt(2) - 1)


def monte_carlo_cube_energy(d, s, samples, seed):
    """Independent oracle for C(d, s): the mean of |x - y|^-s over uniform
    pairs of the unit cube, and its standard error. The standard error bounds
    the error only for s < d/2, where |x - y|^-2s has a finite mean."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(((rng.random((samples, d)) - rng.random((samples, d))) ** 2).sum(axis=1))
    vals = r**-s
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def trapezoid_cube_energy(d, s, h, cut):
    """A second quadrature of C(d, s) = 2^d Gamma(s/2)^-1 int u^(s/2) phi(u)^d dx
    in x = ln u: the trapezoid rule at step h, phi exact on [-cut, cut] and its
    limit past each end (1/2 below, sqrt(pi)/(2 sqrt(u)) - 1/(2u) above), the
    points summed outward until they fall below 1e-20 of the middle one."""

    def point(x):
        if x < -cut:
            log_phi = math.log(0.5)
        elif x > cut:  # in logs, so that u = e^x is never formed
            log_phi = math.log(math.sqrt(math.pi) / 2) - x / 2 + math.log1p(-math.exp(-x / 2) / math.sqrt(math.pi))
        else:
            u = math.exp(x)
            log_phi = math.log(math.sqrt(math.pi / u) * math.erf(math.sqrt(u)) / 2 + math.expm1(-u) / (2 * u))
        return math.exp(s * x / 2 + d * log_phi)

    terms = [point(0.0)]
    for sign in (-1, 1):
        i = 1
        while i * h <= cut or terms[-1] > 1e-20 * terms[0]:
            terms.append(point(sign * i * h))
            i += 1
    return 2**d * h * math.fsum(terms) / math.gamma(s / 2)


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
            (gen_valtr(2, 4), 2.2),
            (gen_valtr(2, 5), 2.7),
        ]
        for pset, s in cases:
            grouped = adaptability_sum(pset, s).lambda_s
            assert grouped == _grouped_pair_sum(pset.axes, pset.denominators, s) / pset.n_points**2
            brute = adaptability_sum(strip_axes(pset), s).lambda_s
            assert grouped == pytest.approx(brute, rel=1e-12)
        # bit for bit the value of the per-axis head build that the shared
        # head table replaced
        assert adaptability_sum(gen_valtr(24, 5), 2.7).lambda_s == 3.142535551499591

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
        assert cube_self_energy(1, 0.0) == 1.0
        assert cube_self_energy(3, 0.0) == 1.0
        # C = 1 + O(s) before Gamma(s/2) overflows, and no tail sum divides by zero
        assert cube_self_energy(2, 1e-310) == cube_self_energy(2, 5e-324) == 1.0
        assert cube_self_energy(2, 1e-299) == pytest.approx(1.0, rel=1e-15)

    def test_1d_closed_form(self):
        # C(1, s) = 2 / ((1-s)(2-s)); near s = 1 the upper tail carries most of it
        for s in (0.01, 0.3, 0.5, 0.9, 0.99):
            closed = 2.0 / ((1.0 - s) * (2.0 - s))
            assert cube_self_energy(1, s) == pytest.approx(closed, rel=1e-12, abs=0)

    def test_2d_quadrature_oracle(self):
        value = cube_self_energy(2, 1.0)
        assert value == pytest.approx(CUBE_ENERGY_2D_S1_CLOSED, rel=1e-12, abs=0)
        assert abs(value - CUBE_ENERGY_2D_S1) < 1e-11

    @pytest.mark.parametrize("d, s", [(2, 1.4), (3, 1.6), (4, 2.2), (5, 2.7), (6, 3.2)])
    def test_halved_step_doubled_range(self, d, s):
        # the falconer-ratio default s at each d
        value = cube_self_energy(d, s)
        assert value == pytest.approx(trapezoid_cube_energy(d, s, 0.05, 80.0), rel=1e-10, abs=0)

    @pytest.mark.parametrize("d, s, seed", [(2, 0.8, 31), (3, 1.2, 32), (4, 1.8, 33)])
    def test_monte_carlo_oracle(self, d, s, seed):
        # s < d/2, where the oracle's variance is finite and its standard error means something
        mean, stderr = monte_carlo_cube_energy(d, s, 400_000, seed)
        assert abs(cube_self_energy(d, s) - mean) < 4 * stderr

    def test_deterministic(self):
        value = cube_self_energy(2, 1.4)
        assert type(value) is float
        assert cube_self_energy(2, 1.4) == value

    def test_errors(self):
        with pytest.raises(DivergenceError):
            cube_self_energy(2, 2.0)
        for d, s in [(0, 0.5), (2, -0.1), (2, math.nan), (2, math.inf)]:
            with pytest.raises(ParameterError):
                cube_self_energy(d, s)

    @pytest.mark.parametrize("d, s", [(1100, 1.0), (1024, 0.5), (500, 344.0), (1000, 50.0)])
    def test_terms_outside_float_range_refused(self, d, s):
        # 2^d and the binomials overflow from d = 1024 and Gamma(s/2) above
        # s = 343; at (1000, 50) the terms underflow, and their sum read 0.0
        with pytest.raises(ParameterError, match="outside float range"):
            cube_self_energy(d, s)

    def test_finite_just_inside_float_range(self):
        for d, s in [(1023, 0.5), (500, 343.0), (1000, 1.4)]:
            assert 0 < cube_self_energy(d, s) < 1

    def test_ball_bound_outside_float_range_refused(self):
        # computed in logs, the bound is finite up to d = 505 at s = 1; for even d,
        # Gamma(d/2) = (d/2 - 1)!, so its log is an exact sum of logs, summed apart
        for d in (256, 260, 340, 400, 504):
            log_bound = math.fsum([math.log(2.0), d / 2.0 * math.log(math.pi), (d - 1) / 2.0 * math.log(d),
                                   -math.log(d - 1)] + [-math.log(k) for k in range(2, d // 2)])
            assert 0 < ball_bound_constant(d, 1.0) < math.inf
            assert math.log(ball_bound_constant(d, 1.0)) == pytest.approx(log_bound, rel=1e-13)
        for d in (506, 2000):
            with pytest.raises(ParameterError, match="leaves float range"):
                ball_bound_constant(d, 1.0)

    def test_ball_bound_dominates_cube_constant(self):
        # the sqrt(d)-ball integral is an upper bound, not an equality
        # at d = 40 the samples of u^(s/2) alone would overflow
        for d, s in [(1, 0.5), (2, 1.0), (2, 1.4), (3, 1.9), (6, 3.2), (40, 39.0)]:
            assert 0 < cube_self_energy(d, s) < ball_bound_constant(d, s)
        with pytest.raises(DivergenceError):
            ball_bound_constant(2, 2.0)


class TestEnergyDecomposition:
    def test_cross_term_is_adaptability_sum(self):
        rep = energy_decomposition(2, 2, 1.4)
        assert rep.cross_term == adaptability_sum(gen_valtr(2, 2), 1.4).lambda_s
        assert rep.self_term == cube_self_energy(2, 1.4)
        assert rep.lambda_s == rep.self_term + rep.cross_term

    def test_cross_term_bounded_2d(self):
        vals = [energy_decomposition(n, 2, 1.4).cross_term for n in (4, 8, 16)]
        assert max(vals) / min(vals) < 3.0

    def test_cross_term_bounded_3d(self):
        vals = [energy_decomposition(n, 3, 1.9).cross_term for n in (3, 6, 12)]
        assert max(vals) / min(vals) < 3.0

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            energy_decomposition(1, 2, 1.4)
        with pytest.raises(ParameterError):
            energy_decomposition(4, 2, 1.6)
