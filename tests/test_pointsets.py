import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from incidence_lab import (
    CantorParams,
    CapacityError,
    InputError,
    ParameterError,
    PointSet,
    gen_cantor_centers,
    gen_lattice,
    gen_lenz,
    gen_mattila2,
    gen_mattila3,
    gen_valtr,
    pointsets,
)


def frac_points(pset):
    return {pset.point(i) for i in range(pset.n_points)}


class TestValtr:
    def test_n2_d2_coordinates(self):
        p = gen_valtr(2, 2)
        assert p.n_points == 8
        xs = {pt[0] for pt in frac_points(p)}
        ys = {pt[1] for pt in frac_points(p)}
        assert xs == {Fraction(0), Fraction(1, 2)}
        assert ys == {Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)}

    def test_trivial_n1_d3(self):
        p = gen_valtr(1, 3)
        assert frac_points(p) == {(Fraction(0), Fraction(0), Fraction(1))}

    def test_size_formula(self):
        assert gen_valtr(3, 2).n_points == 27
        for n, d in [(1, 2), (2, 3), (3, 3), (4, 2)]:
            assert gen_valtr(n, d).n_points == n ** (d + 1)

    def test_per_axis_denominators(self):
        p = gen_valtr(3, 3)
        assert p.denominators == (3, 3, 9)

    def test_capacity_error(self):
        # the grid is held as its axes; only building its 8e9 rows is refused
        p = gen_valtr(2000, 2)
        assert p.n_points == 2000**3
        for read in (lambda: p.numerators, p.to_floats, lambda: p.point(0)):
            with pytest.raises(CapacityError, match="valtr set would produce 8000000000 points"):
                read()

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            gen_valtr(0, 2)
        with pytest.raises(ParameterError):
            gen_valtr(2, 1)


class TestLenz:
    def test_cross_circle_distance(self):
        p = gen_lenz(8).to_floats()
        # first point of each circle
        d = np.linalg.norm(p[0] - p[4])
        assert abs(d - math.sqrt(2)) < 1e-10

    def test_all_cross_pairs_sqrt2(self):
        p = gen_lenz(8).to_floats()
        first, second = p[:4], p[4:]
        dists = np.linalg.norm(first[:, None, :] - second[None, :, :], axis=-1)
        assert dists.shape == (4, 4)
        assert np.all(np.abs(dists - math.sqrt(2)) < 1e-10)

    def test_n4_antipodal(self):
        p = gen_lenz(4)
        pts = frac_points(p)
        assert (Fraction(1), Fraction(0), Fraction(0), Fraction(0)) in pts
        assert (Fraction(-1), Fraction(0), Fraction(0), Fraction(0)) in pts

    def test_parameter_errors(self):
        for bad in (7, 2, 0, -4):
            with pytest.raises(ParameterError):
                gen_lenz(bad)


class TestLattice:
    def test_3x3(self):
        p = gen_lattice(3, 2)
        assert p.n_points == 9
        assert frac_points(p) == {(Fraction(i, 3), Fraction(j, 3)) for i in range(3) for j in range(3)}

    def test_single_point(self):
        p = gen_lattice(1, 5)
        assert frac_points(p) == {(Fraction(0),) * 5}

    def test_min_distance(self):
        pts = gen_lattice(10, 2).to_floats()
        d2 = ((pts[None] - pts[:, None]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        assert abs(math.sqrt(d2.min()) - 0.1) < 1e-12


class TestCantor:
    def test_middle_thirds_level1(self):
        params = CantorParams(math.log(2) / math.log(3), 1)
        assert params.ratio == Fraction(1, 3)
        assert gen_cantor_centers(params) == [Fraction(1, 6), Fraction(5, 6)]

    def test_middle_thirds_level2(self):
        params = CantorParams(math.log(2) / math.log(3), 2)
        assert gen_cantor_centers(params) == [
            Fraction(1, 18),
            Fraction(5, 18),
            Fraction(13, 18),
            Fraction(17, 18),
        ]

    def test_level0(self):
        assert gen_cantor_centers(CantorParams(0.7, 0)) == [Fraction(1, 2)]

    def test_against_recursive_oracle(self):
        # independent construction: recurse over intervals, keep both end
        # pieces of relative length ratio
        def recurse(intervals, lam, depth):
            if depth == 0:
                return [a + (b - a) / 2 for a, b in intervals]
            nxt = []
            for a, b in intervals:
                w = (b - a) * lam
                nxt.extend([(a, a + w), (b - w, b)])
            return recurse(nxt, lam, depth - 1)

        for alpha in (0.5, math.log(2) / math.log(3)):
            for levels in range(5):
                params = CantorParams(alpha, levels)
                expected = recurse([(Fraction(0), Fraction(1))], params.ratio, levels)
                assert gen_cantor_centers(params) == expected

    def test_integer_axis_matches_fraction_construction(self):
        # the construction in Fractions that the integer numerators replace
        def fraction_axis(params):
            lam, lefts, length = params.ratio, [Fraction(0)], Fraction(1)
            for _ in range(params.levels):
                offset = length * (1 - lam)
                lefts = [a for left in lefts for a in (left, left + offset)]
                length *= lam
            den = 2 * lam.denominator**params.levels
            return [(left + length / 2) * den for left in lefts], den

        for alpha in (0.48, 0.3, math.log(2) / math.log(3), 0.5, 0.9, 0.01):
            for levels in range(9):
                params = CantorParams(alpha, levels)
                nums, den = pointsets._cantor_axis(params)
                want, want_den = fraction_axis(params)
                assert all(w.denominator == 1 for w in want)
                assert (nums, den) == (want, want_den), (alpha, levels)
                assert all(type(v) is int for v in nums)

    def test_count_and_min_gap(self):
        for alpha in (0.4, 0.5, 0.63, 0.8):
            params = CantorParams(alpha, 5)
            centers = gen_cantor_centers(params)
            assert len(centers) == 32
            lam = params.ratio
            floor = lam**5 * (1 - 2 * lam)
            gaps = [b - a for a, b in zip(centers, centers[1:])]
            assert min(gaps) >= floor

    def test_ratio_in_range(self):
        for alpha in (0.05, 0.3, 0.95):
            assert 0 < CantorParams(alpha, 1).ratio < Fraction(1, 2)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            CantorParams(0.0, 1)
        with pytest.raises(ParameterError):
            CantorParams(1.0, 1)
        with pytest.raises(ParameterError):
            CantorParams(0.5, -1)


class TestMattila2:
    def test_level0(self):
        p = gen_mattila2(0.5, 0)
        assert frac_points(p) == {
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(-1, 2), Fraction(1, 2)),
        }

    def test_level1_unrolled(self):
        p = gen_mattila2(0.5, 1)
        assert p.n_points == 16
        xs = {pt[0] for pt in frac_points(p)}
        assert xs == {Fraction(1, 8), Fraction(7, 8), Fraction(-1, 8), Fraction(-7, 8)}
        ys = {pt[1] for pt in frac_points(p)}
        assert ys == {Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)}

    def test_level2_size(self):
        p = gen_mattila2(math.log(2) / math.log(3), 2)
        assert p.n_points == 72  # 8 x-values, ceil(3^2) = 9 columns

    def test_reported_size_formula(self):
        for alpha, levels in [(0.48, 3), (0.5, 2), (0.7, 2)]:
            p = gen_mattila2(alpha, levels)
            params = CantorParams(alpha, levels)
            grid = math.ceil(params.inverse_ratio**levels)
            assert p.n_points == 2 * 2**levels * grid

    def test_s_dim(self):
        assert gen_mattila2(0.48, 1).s_dim == pytest.approx(1.48)


class TestMattila3:
    def test_level0(self):
        p = gen_mattila3(0.5, 0)
        assert frac_points(p) == {(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))}

    def test_level1(self):
        p = gen_mattila3(0.5, 1)
        assert p.n_points == 8
        assert p.dim == 3

    def test_reported_s(self):
        assert gen_mattila3(0.5, 1).s_dim == pytest.approx(2 - 3 * 0.5 / 2) == pytest.approx(1.25)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            gen_mattila3(0.7, 1)
        with pytest.raises(ParameterError):
            gen_mattila3(0.0, 1)


class TestPointSetInvariants:
    def test_generators_deterministic(self):
        assert gen_valtr(3, 2) == gen_valtr(3, 2)
        assert gen_lenz(16) == gen_lenz(16)
        assert gen_mattila2(0.48, 2) == gen_mattila2(0.48, 2)
        assert gen_mattila3(0.4, 2) == gen_mattila3(0.4, 2)

    def test_all_points_in_unit_box(self):
        for pset in (gen_valtr(3, 3), gen_lenz(12), gen_mattila2(0.6, 2), gen_mattila3(0.5, 2)):
            pts = pset.to_floats()
            assert np.all(np.abs(pts) <= 1.0 + 1e-15)

    def test_duplicate_points_rejected(self):
        with pytest.raises(InputError):
            PointSet(dim=2, denominators=(2, 2), numerators=((1, 1), (1, 1)))

    def test_out_of_box_rejected(self):
        with pytest.raises(InputError):
            PointSet(dim=2, denominators=(2, 2), numerators=((3, 0),))

    def test_bad_denominator_rejected(self):
        with pytest.raises(InputError):
            PointSet(dim=1, denominators=(0,), numerators=((0,),))

    def test_to_floats_correctly_rounded(self):
        for p in (
            gen_valtr(4, 2),
            gen_valtr(2, 3),
            gen_lattice(3, 3),
            gen_lenz(12),
            gen_mattila2(0.48, 2),
            gen_mattila3(1 / 15, 2),
        ):
            arr = p.to_floats()
            assert arr.shape == (p.n_points, p.dim)
            for i in range(p.n_points):
                for j in range(p.dim):
                    assert arr[i, j] == float(p.coordinate(i, j))


class TestAxes:
    def test_rows_are_the_product_of_the_axes(self):
        p = PointSet(dim=2, denominators=(2, 3), axes=((-1, 1), (0, 2, 3)))
        assert p.numerators == ((-1, 0), (-1, 2), (-1, 3), (1, 0), (1, 2), (1, 3))
        assert p.axes == ((-1, 1), (0, 2, 3))

    def test_generators_carry_axes(self):
        p = gen_valtr(3, 2)
        assert tuple(map(tuple, p.axes)) == ((0, 1, 2), tuple(range(1, 10)))
        assert tuple(map(tuple, gen_lattice(2, 3).axes)) == ((0, 1),) * 3
        assert tuple(map(tuple, gen_mattila2(0.5, 1).axes)) == ((-7, -1, 1, 7), (1, 3, 5, 7))
        assert tuple(map(tuple, gen_mattila3(0.5, 0).axes)) == ((1,), (1,), (1,))
        assert gen_lenz(8).axes is None
        assert all(isinstance(ax, range) for ax in p.axes + gen_lattice(2, 3).axes)

    @pytest.fixture()
    def no_rows(self, monkeypatch):
        # the rows of an axes-built set come from itertools.product; make
        # building them fail so every check below must come first
        def no_product(*_):
            raise AssertionError("rows built before the check")

        monkeypatch.setattr(pointsets.itertools, "product", no_product)

    def test_non_increasing_axis_rejected(self, no_rows):
        for axis in ((0, 0), (1, 0)):
            with pytest.raises(InputError):
                PointSet(dim=1, denominators=(2,), axes=(axis,))

    def test_out_of_range_axis_rejected(self, no_rows):
        for axis in ((-3, 0), (0, 3)):
            with pytest.raises(InputError):
                PointSet(dim=1, denominators=(2,), axes=(axis,))

    def test_numerators_and_axes_together_rejected(self, no_rows):
        with pytest.raises(InputError):
            PointSet(dim=1, denominators=(2,), numerators=((0,),), axes=((0,),))

    def test_neither_numerators_nor_axes_rejected(self):
        with pytest.raises(InputError):
            PointSet(dim=1, denominators=(2,))

    def test_wrong_number_of_axes_rejected(self, no_rows):
        with pytest.raises(InputError):
            PointSet(dim=2, denominators=(2, 2), axes=((0, 1),))

    def test_product_over_max_points_rejected(self, no_rows):
        # both sets are their axes; building their rows or float columns is
        # refused before anything is allocated
        for p in (
            PointSet(dim=21, denominators=(1,) * 21, axes=((0, 1),) * 21),
            PointSet(dim=2, denominators=(2_000_000, 2), axes=(range(2_000_000), (0, 1))),
        ):
            with pytest.raises(CapacityError):
                p.numerators
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError):
                    p.to_floats()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_large_generators_construct_without_rows(self, no_rows):
        assert gen_valtr(512, 2).n_points == 512**3
        assert gen_mattila2(0.48, 8).n_points == 53_264_384
        assert gen_lattice(2000, 2).n_points == 4_000_000

    def test_axis_too_long_to_index_rejected(self, no_rows):
        # a range axis whose length overflows a machine int
        for make in (lambda: gen_mattila2(0.01, 1), lambda: gen_lattice(2**70, 1)):
            with pytest.raises(CapacityError, match="too long to index"):
                make()

    def test_rows_built_once_on_first_read(self, monkeypatch):
        calls = []
        product = itertools.product
        monkeypatch.setattr(pointsets.itertools, "product", lambda *axes: calls.append(axes) or product(*axes))
        p = PointSet(dim=2, denominators=(2, 3), axes=((-1, 1), range(0, 4, 2)))
        assert calls == []
        rows = p.numerators
        assert rows == ((-1, 0), (-1, 2), (1, 0), (1, 2)) and p.numerators is rows
        assert len(calls) == 1

    def test_equal_and_hash_whether_or_not_rows_were_read(self, monkeypatch):
        for make in (lambda: gen_valtr(3, 2), lambda: gen_lattice(3, 2), lambda: gen_mattila2(0.5, 1)):
            read = make()
            unread_hash = hash(read)
            read.numerators
            monkeypatch.setattr(pointsets.itertools, "product", None)  # a fresh copy builds no rows
            fresh = make()
            assert read == fresh and hash(read) == hash(fresh) == unread_hash
            monkeypatch.undo()
        assert gen_lenz(8) != gen_lenz(12)
        assert PointSet(dim=1, denominators=(2,), numerators=((0,), (1,))) != PointSet(
            dim=1, denominators=(2,), numerators=((0,), (2,))
        )

    def test_positive_step_range_kept_as_given(self, no_rows):
        ax = range(-4, 5, 2)
        p = PointSet(dim=1, denominators=(4,), axes=(ax,))
        assert p.axes == (ax,) and p.n_points == 5

    def test_descending_or_out_of_box_range_rejected(self, no_rows):
        with pytest.raises(InputError):
            PointSet(dim=1, denominators=(3,), axes=(range(3, 0, -1),))
        with pytest.raises(InputError):
            PointSet(dim=1, denominators=(2,), axes=(range(0, 5),))
