import inspect
import json
import math

import pytest

from incidence_lab import harness
from incidence_lab import (
    EXPERIMENTS,
    InputError,
    ParameterError,
    ScalingSeries,
    adaptability_sum,
    emit,
    exact_valtr_incidences,
    falconer_measure_ratio,
    fit_exponent,
    gen_valtr,
    is_prime,
    mattila_lattice_crossover,
    parse_series,
    run_experiment,
)


class TestFitExponent:
    def test_pure_square_law(self):
        slope, stderr = fit_exponent([(10, 100), (100, 10**4), (1000, 10**6)])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_constants_cancel(self):
        slope, _ = fit_exponent([(N, 7.0 * N ** (4 / 3)) for N in (10, 100, 1000)])
        assert slope == pytest.approx(4 / 3, abs=1e-12)

    def test_noise_gives_positive_stderr(self):
        slope, stderr = fit_exponent([(10, 105), (100, 9000), (1000, 1.1e6), (10000, 0.9e8)])
        assert stderr > 0

    def test_errors(self):
        with pytest.raises(InputError):
            fit_exponent([(10, 1), (100, 2)])
        with pytest.raises(InputError):
            fit_exponent([(10, 1), (100, -2), (1000, 3)])
        with pytest.raises(InputError):
            fit_exponent([(10, 1), (10, 2), (1000, 3)])


class TestRunExperiment:
    def test_valtr_incidence_d2(self):
        series = run_experiment("valtr-incidence", d=2)
        assert series.predicted == pytest.approx(4 / 3)
        assert 1.25 <= series.fitted_slope <= 1.40
        assert series.verdict == "pass"

    def test_unknown_experiment(self):
        with pytest.raises(ParameterError):
            run_experiment("does-not-exist")

    def test_short_ladder_rejected(self):
        with pytest.raises(ParameterError):
            run_experiment("valtr-incidence", d=2, ladder=[4, 8])

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_zero_threads_rejected(self, experiment):
        with pytest.raises(ParameterError, match="threads"):
            run_experiment(experiment, threads=0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_outside_zero_to_inf_rejected(self, tolerance):
        with pytest.raises(ParameterError, match="tolerance"):
            run_experiment("valtr-incidence", d=2, ladder=[4, 8, 16], tolerance=tolerance)

    def test_zero_tolerance_accepted(self):
        series = run_experiment("valtr-incidence", d=2, ladder=[4, 8, 16], tolerance=0)
        assert series.tolerance == 0.0
        assert series.verdict == "fail"

    @pytest.mark.parametrize("experiment, kwargs", [
        ("valtr-incidence", {"d": 0, "ladder": [4, 5, 6]}),
        ("falconer-ratio", {"d": 0, "ladder": [4, 5, 6]}),
        ("valtr-energy", {"d": 0, "ladder": [4, 5, 6]}),
        ("ff-sharpness", {"d": 0, "ladder": [101, 211, 401]}),
        ("lattice-incidence", {"dim": 0, "ladder": [4, 5, 6]}),
        ("gauss-discrepancy", {"dim": 0, "ladder": [64, 128, 256]}),
    ])
    def test_explicit_zero_dimension_refused(self, experiment, kwargs):
        # an explicit 0 reaches the runner's own check instead of the default 2
        with pytest.raises(ParameterError, match="got 0"):
            run_experiment(experiment, **kwargs)

    def test_deterministic(self):
        a = run_experiment("lenz-energy", s=1.5, ladder=[64, 128, 256])
        b = run_experiment("lenz-energy", s=1.5, ladder=[64, 128, 256])
        assert a == b

    def test_verdict_monotone_in_tolerance(self):
        taus = (0.001, 0.05, 0.3)
        verdicts = [
            run_experiment("valtr-incidence", d=2, ladder=[4, 8, 16], tolerance=t).verdict
            for t in taus
        ]
        seen_pass = False
        for v in verdicts:
            if v == "pass":
                seen_pass = True
            assert not (seen_pass and v == "fail")

    def test_lattice_incidence_records_validity(self):
        series = run_experiment("lattice-incidence", dim=2, s=1.48, ladder=[10, 20, 40])
        params = dict(series.params)
        assert params["valid"] == "true"

    def test_lattice_incidence_dim3_default_s(self):
        # dim 3 needs s > 3/2, so the default s depends on dim
        series = run_experiment("lattice-incidence", dim=3, ladder=[7, 10, 13])
        params = dict(series.params)
        assert params["s"] == "1.9"
        assert series.predicted == pytest.approx(2 - 1 / 1.9)

    def test_gauss_discrepancy_upper_bound(self):
        series = run_experiment("gauss-discrepancy", dim=2, ladder=[64, 128, 256, 512, 1024])
        assert series.comparison == "upper_bound"
        assert series.fitted_slope <= series.predicted + series.tolerance
        assert series.verdict == "pass"

    def test_ff_sharpness_slope(self):
        series = run_experiment("ff-sharpness", delta=0.1, d=2, ladder=[101, 211, 401])
        assert series.predicted == pytest.approx(0.2)
        assert abs(series.fitted_slope - 0.2) < 0.12

    def test_falconer_ratio_predicted(self):
        series = run_experiment("falconer-ratio", d=2, s=1.4, ladder=[2, 4, 8])
        assert series.predicted == pytest.approx(1 / 1.4 - 2 / 3)

    def test_falconer_ratio_default_ladder_grows(self):
        series = run_experiment("falconer-ratio", d=2, s=1.4)
        ratios = [v for _, v in series.points]
        assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
        assert series.fitted_slope > 0
        assert series.verdict == "pass"

    def test_mattila2_records_crossover(self):
        series = run_experiment("mattila2-incidence", alpha=0.48, ladder=[1, 2, 3])
        params = dict(series.params)
        assert params["crossover_mattila_wins"] == "true"
        assert params["crossover_valid_window"] == "true"
        assert series.predicted == pytest.approx(1 + 1 / (2 * 1.48))

    def test_mattila3_predicted_exponent(self):
        # derivation-level form 1 + alpha/(2 alpha + beta)
        delta = 1 / 15
        series = run_experiment("mattila3-incidence", delta=delta, ladder=[1, 2, 3])
        alpha, beta = 1 - delta, delta / 2
        assert series.predicted == pytest.approx(1 + alpha / (2 * alpha + beta))

    def test_mattila_counts_exact(self):
        # exact closed-band counts; float64 put 32 pairs of mattila3 at
        # squared distance 1 - 1.7e-18 into the band (736, 26752, 581632)
        for experiment, kwargs, counts in (
            ("mattila2-incidence", {"alpha": 0.48}, [84, 1500, 30684, 608216]),
            ("mattila3-incidence", {"delta": 1 / 15}, [24, 704, 26240, 573440]),
        ):
            series = run_experiment(experiment, **kwargs)
            assert [int(v) for _, v in series.points] == counts, experiment

    def test_valtr_energy_flat(self):
        series = run_experiment("valtr-energy", d=2, s=1.0, ladder=[4, 8, 16])
        assert series.predicted == 0.0
        assert series.verdict == "pass"

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "valtr-incidence",
            "falconer-ratio",
            "lenz-energy",
            "valtr-energy",
            "mattila2-incidence",
            "mattila3-incidence",
            "lattice-incidence",
            "gauss-discrepancy",
            "ff-sharpness",
        }


# every registered scan at each dimension that has a default ladder, and
# falconer-ratio at d = 7, which has a default s but needs a ladder;
# falconer-ratio at d = 4, 5, 6 runs in test_falconer_ratio_grows_at_d4_to_d6
DEFAULT_SCANS = [
    ("valtr-incidence", {"d": 2}),
    ("valtr-incidence", {"d": 3}),
    ("valtr-incidence", {"d": 4}),
    ("falconer-ratio", {"d": 2}),
    ("falconer-ratio", {"d": 3}),
    ("lenz-energy", {}),
    ("valtr-energy", {"d": 2}),
    ("valtr-energy", {"d": 3}),
    ("mattila2-incidence", {}),
    ("mattila3-incidence", {}),
    ("lattice-incidence", {"dim": 2}),
    ("lattice-incidence", {"dim": 3}),
    ("gauss-discrepancy", {"dim": 2}),
    ("gauss-discrepancy", {"dim": 3}),
    ("ff-sharpness", {"d": 2}),
    ("ff-sharpness", {"d": 3}),
    ("falconer-ratio", {"d": 7, "ladder": [8, 16, 32]}),
]
# ff-sharpness at d = 4, 5, 6 runs in test_ff_sharpness_rises_toward_2delta_at_d4_to_d6


class TestDefaultLadders:
    def test_every_experiment_covered(self):
        assert {name for name, _ in DEFAULT_SCANS} == set(EXPERIMENTS)

    @pytest.mark.parametrize("experiment, kwargs", DEFAULT_SCANS)
    def test_runs_at_default_ladder(self, experiment, kwargs):
        series = run_experiment(experiment, **kwargs)
        assert len(series.points) >= 3
        # mattila3-incidence fails its exponent check (ROADMAP item 4)
        if experiment != "mattila3-incidence":
            assert series.verdict == "pass", (experiment, kwargs, series.fitted_slope)

    def test_falconer_ratio_d3_default_s(self):
        # s must lie in [3/2, 2) at d = 3
        series = run_experiment("falconer-ratio", d=3)
        assert dict(series.params)["s"] == "1.6"
        assert series.predicted == pytest.approx(1 / 1.6 - 2 / 4)

    @pytest.mark.parametrize(
        "d, s, ladder", [(4, 2.2, [16, 32, 64, 128]), (5, 2.7, [24, 32, 48, 64]), (6, 3.2, [42, 48, 56, 64])]
    )
    def test_falconer_ratio_grows_at_d4_to_d6(self, d, s, ladder):
        # criterion 3 at d = 4, 5, 6 on the default ladders: from n = 13, 23,
        # 41 on eps < sqrt(1 + n^-2) - 1 leaves only the exact incidences in
        # the band, whose share grows like N^(1/s - 2/(d+1)); the scan
        # tolerance cannot tell 0.027 from 0, so the slope is held to 0.001.
        # The energy at the same s stays bounded.
        series = run_experiment("falconer-ratio", d=d)
        params = dict(series.params)
        assert (params["s"], params["ladder_n"]) == (json.dumps(s), json.dumps(ladder))
        rec = falconer_measure_ratio(ladder[0], d, s)
        assert rec.count == exact_valtr_incidences(ladder[0], d).count
        ratios = [v for _, v in series.points]
        assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
        assert abs(series.fitted_slope - (1 / s - 2 / (d + 1))) <= 0.001, series.fitted_slope
        energies = [adaptability_sum(gen_valtr(n, d), s).lambda_s for n in (8, 16, 24, 32)]
        assert max(energies) / min(energies) < 3.0, energies

    @pytest.mark.parametrize("d, start, top", [(4, 257, 4099), (5, 1031, 16411), (6, 3209, 25693)])
    def test_ff_sharpness_rises_toward_2delta_at_d4_to_d6(self, d, start, top):
        # the default ladders start above the wrap bound (d-1)^(1/(2 delta))
        # and climb by octaves until the local slope is within 0.025 of 2 delta
        series = run_experiment("ff-sharpness", d=d)
        qs, ratios = zip(*series.points)
        assert (qs[0], qs[-1]) == (start, top) and (d - 1) ** 5 < start
        assert all(map(is_prime, qs)) and all(1.9 < b / a < 2.1 for a, b in zip(qs, qs[1:])), qs
        assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
        top_slope = math.log(ratios[-1] / ratios[-2]) / math.log(qs[-1] / qs[-2])
        assert abs(top_slope - 0.2) < 0.025, top_slope
        assert series.verdict == "pass"

    @pytest.mark.parametrize(
        "experiment, kwargs, known",
        [
            ("valtr-incidence", {"d": 5}, "d in {2, 3, 4}"),
            ("falconer-ratio", {"d": 7}, "d in {2, 3, 4, 5, 6}"),
            ("ff-sharpness", {"d": 7}, "d in {2, 3, 4, 5, 6}"),
            ("lattice-incidence", {"dim": 4}, "dim in {2, 3}"),
            ("gauss-discrepancy", {"dim": 4}, "dim in {2, 3}"),
        ],
    )
    def test_unsupported_dimension_needs_ladder(self, experiment, kwargs, known):
        with pytest.raises(ParameterError) as info:
            run_experiment(experiment, **kwargs)
        assert known in str(info.value)


# each experiment's parameters and defaults, as its runner declares them
RUNNER_PARAMS = {
    "valtr-incidence": {"d": 2},
    "falconer-ratio": {"d": 2, "s": None},
    "lenz-energy": {"s": 1.5, "threads": 1},
    "valtr-energy": {"d": 2, "s": 1.2},
    "mattila2-incidence": {"alpha": 0.48},
    "mattila3-incidence": {"delta": 1 / 15},
    "lattice-incidence": {"dim": 2, "s": None},
    "gauss-discrepancy": {"dim": 2},
    "ff-sharpness": {"delta": 0.1, "d": 2},
}
SCAN_FLAGS = ("d", "dim", "s", "alpha", "delta")


class TestDispatch:
    def test_every_experiment_has_one_runner(self):
        runners = {name for name in vars(harness) if name.startswith("_run_")}
        assert runners == {"_run_" + name.replace("-", "_") for name in EXPERIMENTS}

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_runner_signature_declares_the_defaults(self, experiment):
        runner = getattr(harness, "_run_" + experiment.replace("-", "_"))
        ladder, *params = inspect.signature(runner).parameters.values()
        assert ladder.name == "ladder" and ladder.default is inspect.Parameter.empty
        assert {p.name: p.default for p in params} == RUNNER_PARAMS[experiment]

    @pytest.mark.parametrize(
        "experiment, name",
        [(exp, name) for exp in EXPERIMENTS for name in SCAN_FLAGS if name not in RUNNER_PARAMS[exp]],
    )
    def test_foreign_parameter_refused(self, experiment, name):
        with pytest.raises(ParameterError, match=f"{experiment} does not take {name}; it takes "):
            run_experiment(experiment, **{name: 3})

    def test_none_counts_as_absent(self):
        # the CLI forwards None for every scan flag that was not given
        want = run_experiment("falconer-ratio", ladder=[4, 8, 16])
        assert run_experiment("falconer-ratio", ladder=[4, 8, 16], d=None, s=None, dim=None, levels=None) == want
        assert dict(want.params)["d"] == "2" and dict(want.params)["s"] == "1.4"

    def test_new_experiment_is_one_function(self, monkeypatch):
        seen = []

        def _run_toy_power(ladder, k=2):
            seen.append((ladder, k))
            return [(n, float(n**k)) for n in ladder or [2, 4, 8]], float(k), harness.TWO_SIDED, {"k": k}

        monkeypatch.setattr(harness, "EXPERIMENTS", (*EXPERIMENTS, "toy-power"))
        monkeypatch.setattr(harness, "_run_toy_power", _run_toy_power, raising=False)
        series = run_experiment("toy-power", k=3, threads=2)  # threads only reaches a runner that names it
        assert seen == [(None, 3)] and series.verdict == "pass"
        assert dict(series.params) == {"k": "3", "seed": "0", "threads": "2"}
        with pytest.raises(ParameterError, match="toy-power does not take d; it takes k"):
            run_experiment("toy-power", d=2)


class TestCrossover:
    def test_2d_small_level(self):
        rep = mattila_lattice_crossover(2, 2, alpha=0.48)
        assert rep.s == pytest.approx(1.48)
        assert rep.predicted_mattila_wins is True
        assert rep.inside_validity_window is True
        assert rep.mattila_count > 0 and rep.lattice_count > 0

    def test_3d_small_level(self):
        rep = mattila_lattice_crossover(3, 2, delta=1 / 15)
        assert rep.s == pytest.approx(1.9)
        assert rep.predicted_mattila_wins is True
        assert rep.inside_validity_window is True

    def test_missing_parameter(self):
        with pytest.raises(ParameterError):
            mattila_lattice_crossover(2, 2)

    def test_scan_crossover_matches_public_report(self):
        # the scan reuses its top rung's count instead of recounting it
        for experiment, dim, kwargs in (
            ("mattila2-incidence", 2, {"alpha": 0.48}),
            ("mattila3-incidence", 3, {"delta": 1 / 15}),
        ):
            params = dict(run_experiment(experiment, ladder=[1, 2, 3], **kwargs).params)
            rep = mattila_lattice_crossover(dim, 3, **kwargs)
            assert params["crossover_mattila_wins"] == str(rep.mattila_wins).lower()
            assert params["crossover_predicted"] == str(rep.predicted_mattila_wins).lower()
            assert params["crossover_valid_window"] == str(rep.inside_validity_window).lower()


class TestEmit:
    @pytest.fixture()
    def series(self):
        return run_experiment("valtr-incidence", d=2, ladder=[4, 8, 16])

    def test_csv_shape(self, series):
        text = emit(series, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "N,value"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("# slope=")

    def test_json_round_trip(self, series):
        text = emit(series, "json")
        back = parse_series(text)
        assert back == series

    def test_gnuplot_header(self, series):
        text = emit(series, "gnuplot")
        lines = text.strip().split("\n")
        assert lines[0] == "# experiment: valtr-incidence"
        assert lines[1].startswith("# slope=")
        assert len(lines[2].split(" ")) == 2

    def test_unknown_format(self, series):
        with pytest.raises(ParameterError):
            emit(series, "yaml")

    def test_series_validation(self):
        with pytest.raises(InputError):
            ScalingSeries(
                experiment="x",
                points=((1, 1.0), (2, 2.0)),
                fitted_slope=1.0,
                slope_stderr=0.0,
                predicted=1.0,
                tolerance=0.1,
                comparison="two_sided",
                verdict="pass",
            )
