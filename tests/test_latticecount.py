import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from incidence_lab import (
    CapacityError,
    LatticeCountReport,
    ParameterError,
    ball_count,
    lattice_incidence_total,
    shell_count,
)
from incidence_lab.latticecount import _BLOCK_CELLS, _MAX_RADIUS, _count_le_int, _floorsqrt_vec


def brute_ball_exact(dim, threshold: Fraction):
    top = math.isqrt(math.floor(threshold))
    count = 0
    if dim == 2:
        for x in range(-top, top + 1):
            for y in range(-top, top + 1):
                count += x * x + y * y <= threshold
    else:
        for x in range(-top, top + 1):
            for y in range(-top, top + 1):
                for z in range(-top, top + 1):
                    count += x * x + y * y + z * z <= threshold
    return count


class TestBallCount:
    def test_examples(self):
        rep = ball_count(2, 5)
        assert rep.count == 81
        assert rep.discrepancy == pytest.approx(81 - 25 * math.pi, abs=1e-12)
        assert abs(rep.discrepancy - 2.4601836602551685) < 1e-12
        assert ball_count(2, 0).count == 1
        assert ball_count(3, 1).count == 7

    def test_matches_enumeration_dim2(self):
        for R in range(51):
            assert ball_count(2, R).count == brute_ball_exact(2, Fraction(R * R))

    def test_matches_enumeration_dim3(self):
        for R in range(21):
            assert ball_count(3, R).count == brute_ball_exact(3, Fraction(R * R))

    def test_fractional_radius(self):
        for R in (2.5, 7.25, Fraction(15, 4)):
            thr = Fraction(R) ** 2
            assert ball_count(2, R).count == brute_ball_exact(2, thr)
            assert ball_count(3, float(R)).count == brute_ball_exact(3, Fraction(float(R)) ** 2)

    def test_nondecreasing_in_radius(self):
        counts = [ball_count(2, R).count for R in np.linspace(0, 12, 40)]
        assert counts == sorted(counts)

    def test_errors(self):
        with pytest.raises(ParameterError):
            ball_count(4, 1)
        with pytest.raises(ParameterError):
            ball_count(2, -1)
        with pytest.raises(CapacityError):
            ball_count(2, 10**9)


def disk_rows(t2: int) -> int:
    """#(z in Z^2 with |z|^2 <= t2), one Python row per x."""
    top = math.isqrt(t2)
    return sum(2 * math.isqrt(t2 - x * x) + 1 for x in range(-top, top + 1))


class TestCountLeInt:
    # R >= 181 makes the dim-3 quadrant (R + 1 columns) span more than one
    # row block of 2^15 cells
    THRESHOLDS = [0] + [t for R in (180, 181, 182, 200, 257) for t in (R * R, R * R - 1, R * R + R)]

    def test_dim2_matches_rows(self):
        for t2 in self.THRESHOLDS + [10**10, 10**10 - 1]:
            assert _count_le_int(t2, 2) == disk_rows(t2)

    def test_dim3_matches_sum_of_disks(self):
        for t2 in self.THRESHOLDS:
            top = math.isqrt(t2)
            want = sum(_count_le_int(t2 - x * x, 2) for x in range(-top, top + 1))
            assert _count_le_int(t2, 3) == want

    def test_negative_threshold(self):
        assert _count_le_int(-1, 2) == 0
        assert _count_le_int(-1, 3) == 0

    def test_dim3_trimmed_block_edges(self):
        # a row block starting at x0 spans isqrt(t2 - x0^2) + 1 columns;
        # t2 = x0^2 + y^2 puts the block's last column on the sphere, and
        # t2 - 1 drops it
        thresholds = []
        for top in (200, 300):
            rows = _BLOCK_CELLS // (top + 1)
            for x0 in range(rows, top + 1, rows):
                ys = [y for y in range(top + 1) if top * top <= x0 * x0 + y * y < (top + 1) ** 2]
                thresholds += [x0 * x0 + y * y - e for y in ys[:1] + ys[-1:] for e in (0, 1)]
        assert len(thresholds) >= 8
        for t2 in thresholds:
            top = math.isqrt(t2)
            assert _count_le_int(t2, 3) == sum(disk_rows(t2 - x * x) for x in range(-top, top + 1))

    def test_threshold_limit(self):
        # the one-pass root is proven exact below 2^52, which both radius
        # limits stay under
        assert max(_MAX_RADIUS.values()) ** 2 < 2**52
        for dim in (2, 3):
            with pytest.raises(CapacityError):
                _count_le_int(2**52, dim)


class TestFloorSqrt:
    def test_matches_isqrt_around_squares(self):
        ks = [k for j in range(1, 27) for k in (2**j - 1, 2**j + 1) if k < 2**26]
        ks += [int(r) for r in _MAX_RADIUS.values()]
        v = np.array([k * k + e for k in ks for e in (-1, 0, 1)], dtype=np.int64)
        assert v.max() < 2**52
        assert _floorsqrt_vec(v).tolist() == [math.isqrt(int(x)) for x in v]


class TestLatticeCountReport:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(LatticeCountReport)] == ["dim", "radius", "count"]
        assert not hasattr(ball_count(2, 5), "__dict__")

    def test_derived_terms_bitwise(self):
        for dim, R in [(2, 5), (2, 7.25), (2, 9999), (3, 1), (3, Fraction(15, 4)), (3, 257)]:
            rep = ball_count(dim, R)
            r = float(Fraction(R))
            volume = math.pi * r * r if dim == 2 else 4.0 / 3.0 * math.pi * r**3
            assert rep.volume_term.hex() == volume.hex()
            assert rep.discrepancy.hex() == (rep.count - volume).hex()


class TestShellCount:
    def test_circle_radius5(self):
        # the 12 representations of 25 as an ordered sum of two squares
        assert shell_count(2, 5, 0) == 12

    def test_empty_window(self):
        assert shell_count(2, 0.5, 0.4) == 0

    def test_unit_vectors_3d(self):
        assert shell_count(3, 1, 0) == 6

    def test_inner_boundary_conventions(self):
        # closed inner boundary keeps |z| = R; the open convention matches
        # the plain count difference c(R+w) - c(R)
        closed = shell_count(2, 5, 1)
        open_inner = shell_count(2, 5, 1, include_inner_boundary=False)
        assert closed - open_inner == 12
        assert open_inner == ball_count(2, 6).count - ball_count(2, 5).count

    def test_additivity(self):
        for R, w1, w2 in [(3, 0.5, 0.75), (5, 0.2, 1.3), (2.5, 1.0, 0.5)]:
            whole = shell_count(2, R, w1 + w2)
            first = shell_count(2, R, w1)
            second = shell_count(2, R + w1, w2, include_inner_boundary=False)
            assert whole == first + second

    def test_against_enumeration(self):
        for R, w in [(1.5, 1.0), (4, 0.5), (7.3, 2.0)]:
            lo = Fraction(R) ** 2
            hi = (Fraction(R) + Fraction(w)) ** 2
            top = math.isqrt(math.floor(hi))
            direct = 0
            for x in range(-top, top + 1):
                for y in range(-top, top + 1):
                    direct += lo <= x * x + y * y <= hi
            assert shell_count(2, R, w) == direct

    def test_errors(self):
        with pytest.raises(ParameterError):
            shell_count(2, 0, 1)
        with pytest.raises(ParameterError):
            shell_count(2, 1, -0.5)
        with pytest.raises(ParameterError, match="^w must be finite"):
            shell_count(2, 10, math.nan)
        with pytest.raises(ParameterError, match="^R must be finite"):
            shell_count(2, math.inf, 1)


class TestLatticeIncidenceTotal:
    def test_validity_window_2d(self):
        assert lattice_incidence_total(2, 400, 1.48).valid is True
        assert lattice_incidence_total(2, 400, 1.2).valid is False

    def test_validity_window_3d(self):
        assert lattice_incidence_total(3, 512, 1.9).valid is True
        assert lattice_incidence_total(3, 512, 1.7).valid is False

    def test_definition_consistency(self):
        N, s = 10**4, 1.48
        rec = lattice_incidence_total(2, N, s)
        k = 100
        w = Fraction(float(k * N ** (-1.0 / s)))
        assert rec.shell_points == shell_count(2, Fraction(k, 10), w)
        assert rec.incidences == N * rec.shell_points
        assert rec.radius == pytest.approx(10.0)

    def test_scaling_matches_unit_square(self):
        # integer-lattice shell [R, R+w] == unit-square annulus [1/10, 1/10 + eps]
        rec = lattice_incidence_total(2, 400, 1.48)
        assert rec.thickness == pytest.approx(20 * 400 ** (-1 / 1.48), rel=1e-12)

    def test_errors(self):
        with pytest.raises(ParameterError):
            lattice_incidence_total(2, 401, 1.48)
        with pytest.raises(ParameterError):
            lattice_incidence_total(3, 1000, 1.4)  # needs s > 3/2
        with pytest.raises(ParameterError):
            lattice_incidence_total(4, 16, 1.8)


class TestDiscrepancyEnvelopes:
    def test_huxley_ratio_small_range(self):
        # |D(R)| against R^(131/208) (log R)^(18627/8320): finite, positive
        ratios = []
        for R in range(10, 400):
            rep = ball_count(2, R)
            ratios.append(abs(rep.discrepancy) / (R ** (131 / 208) * math.log(R) ** (18627 / 8320)))
        assert max(ratios) < 1.0
        assert min(ratios) > 0.0

    def test_heath_brown_ratio_small_range(self):
        ratios = []
        for R in range(5, 100):
            rep = ball_count(3, R)
            ratios.append(abs(rep.discrepancy) / R ** (21 / 16))
        assert max(ratios) < 10.0
