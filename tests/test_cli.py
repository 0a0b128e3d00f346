import json

import pytest

from incidence_lab import adaptability_sum, annulus_incidences, cube_self_energy, gen_lenz, gen_mattila2
from incidence_lab import EUCLIDEAN, EXPERIMENTS, Gauge
from incidence_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_valtr_csv(self, capsys):
        code, out, _ = run(capsys, "gen", "--generator", "valtr", "--n", "2", "--d", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x1,x2"
        assert len(lines) == 9
        assert lines[1] == "0/2,1/4"

    def test_valtr_json(self, capsys):
        code, out, _ = run(capsys, "gen", "--generator", "valtr", "--n", "2", "--d", "2",
                           "--format", "json")
        obj = json.loads(out)
        assert obj["label"] == "valtr"
        assert obj["n_points"] == 8
        assert obj["denominators"] == [2, 4]
        assert len(obj["points"]) == 8

    def test_cantor_exact_fractions(self, capsys):
        code, out, _ = run(capsys, "gen", "--generator", "cantor",
                           "--alpha", "0.6309297535714574", "--levels", "1",
                           "--format", "json")
        obj = json.loads(out)
        assert obj["ratio"] == "1/3"
        assert obj["centers"] == ["1/6", "5/6"]

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "gen", "--generator", "valtr")
        assert code == 1
        assert "error" in err

    def test_gnuplot_rejected(self, capsys):
        code, out, err = run(capsys, "gen", "--generator", "valtr", "--n", "2", "--d", "2",
                             "--format", "gnuplot")
        assert code == 1 and out == ""
        assert err == "error: unsupported format 'gnuplot' for this subcommand\n"


class TestGauge:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "gauge", "--kind", "paraboloid_body", "--point", "0.5,0.75")
        assert code == 0
        assert json.loads(out)["value"] == 1.0


class TestIncidence:
    def test_valtr_exact(self, capsys):
        code, out, _ = run(capsys, "incidence", "--mode", "valtr-exact", "--n", "2", "--d", "2")
        assert code == 0
        assert json.loads(out)["count"] == 4

    def test_annulus_matches_library(self, capsys):
        code, out, _ = run(capsys, "incidence", "--mode", "annulus",
                           "--generator", "mattila2", "--alpha", "0.5", "--levels", "1",
                           "--t", "1", "--eps", "0.25")
        assert code == 0
        lib = annulus_incidences(gen_mattila2(0.5, 1), Gauge(EUCLIDEAN, 2), 1.0, 0.25).count
        assert json.loads(out)["count"] == lib == 72

    def test_annulus_classes(self, capsys):
        code, out, _ = run(capsys, "incidence", "--mode", "annulus", "--generator", "lattice",
                           "--k", "12", "--d", "2", "--t", "0.5", "--eps", "0.05", "--method", "classes")
        obj = json.loads(out)
        assert code == 0
        assert (obj["count"], obj["method"]) == (1744, "classes")

    @pytest.mark.parametrize("t", ["1e-20", "1e-300"])
    def test_grid_at_tiny_t(self, capsys, t):
        code, out, err = run(capsys, "incidence", "--mode", "annulus", "--generator", "lattice", "--k", "4",
                             "--d", "2", "--t", t, "--method", "grid")
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 0

    def test_falconer(self, capsys):
        code, out, _ = run(capsys, "incidence", "--mode", "falconer",
                           "--n", "2", "--d", "2", "--s", "1.4")
        obj = json.loads(out)
        assert obj["n_points"] == 8
        assert code == 0


class TestEnergy:
    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "energy", "--generator", "lenz", "--N", "8", "--s", "1.5")
        lines = out.strip().split("\n")
        assert lines[0] == "generator,params,s,N,lambda_s,self_term,cross_term,seed"
        cells = lines[1].split(",")
        assert cells[0] == "lenz"
        lib = adaptability_sum(gen_lenz(8), 1.5).lambda_s
        assert float(cells[4]) == pytest.approx(lib, rel=1e-15)

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "energy", "--generator", "valtr", "--n", "2", "--d", "2",
                           "--s", "1.4", "--decompose", "--samples", "20000",
                           "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert obj["self_term"] == cube_self_energy(2, 1.4) and obj["cross_term"] is not None

    def test_decompose_ignores_seed(self, capsys):
        argv = ["energy", "--generator", "valtr", "--n", "3", "--d", "2", "--s", "1.4", "--decompose"]
        (code1, out1, _), (code2, out2, _) = (run(capsys, *argv, "--seed", seed) for seed in ("1", "2"))
        assert code1 == code2 == 0
        # the seed is the last column of the one data row
        rest1, seed1 = out1.rstrip("\n").rsplit(",", 1)
        rest2, seed2 = out2.rstrip("\n").rsplit(",", 1)
        assert (rest1, seed1, seed2) == (rest2, "1", "2")

    def test_cube_constant(self, capsys):
        code, out, _ = run(capsys, "energy", "--d", "3", "--s", "1.6", "--cube-constant")
        assert code == 0
        header, row = out.splitlines()
        assert header == "generator,params,s,value,seed"
        assert row.split(",")[:3] == ["cube", "d=3", "1.6"]
        assert float(row.split(",")[3]) == cube_self_energy(3, 1.6)

    def test_cube_constant_outside_float_range_exit1(self, capsys):
        code, out, err = run(capsys, "energy", "--d", "1100", "--s", "1", "--cube-constant")
        assert (code, out) == (1, "")
        assert err == "error: C(d=1100, s=1.0) has terms outside float range\n"

    def test_samples_has_no_effect(self, capsys):
        base = ["energy", "--d", "2", "--s", "1.4", "--cube-constant"]
        code, out, _ = run(capsys, *base, "--samples", "100")
        assert code == 0
        assert out == run(capsys, *base)[1]


class TestGauss:
    def test_single_radius(self, capsys):
        code, out, _ = run(capsys, "gauss", "--dim", "2", "--R", "5")
        lines = out.strip().split("\n")
        assert lines[0] == "dim,R,count,volume,discrepancy"
        assert lines[1].split(",")[2] == "81"

    def test_radius_range(self, capsys):
        code, out, _ = run(capsys, "gauss", "--dim", "2", "--R", "1:5:2")
        lines = out.strip().split("\n")
        assert len(lines) == 4  # header + R in {1, 3, 5}

    @pytest.mark.parametrize("spec", ["1:inf", "10:30:nan", "nan:5"])
    def test_nonfinite_range_rejected(self, capsys, spec):
        code, out, err = run(capsys, "gauss", "--dim", "2", "--R", spec)
        assert code == 1 and out == ""
        assert err == f"error: bad radius range {spec!r}\n"

    def test_dim3_output_pinned(self, capsys):
        # captured before the dim-3 counter became one quadrant pass in row
        # blocks; R = 300 and 450 take more than one block
        code, out, _ = run(capsys, "gauss", "--dim", "3", "--R", "150:450:150")
        assert code == 0
        assert out == (
            "dim,R,count,volume,discrepancy\n"
            "3,150.0,14137637,14137166.941154068,470.0588459316641\n"
            "3,300.0,113094545,113097335.52923255,-2790.529232546687\n"
            "3,450.0,381700197,381703507.4111598,-3310.411159813404\n"
        )
        code, out, _ = run(capsys, "gauss", "--dim", "3", "--R", "150:450:150", "--format", "json")
        assert code == 0
        assert out == (
            '[\n'
            '  {\n    "dim": 3,\n    "radius": 150.0,\n    "count": 14137637,\n'
            '    "volume_term": 14137166.941154068,\n    "discrepancy": 470.0588459316641\n  },\n'
            '  {\n    "dim": 3,\n    "radius": 300.0,\n    "count": 113094545,\n'
            '    "volume_term": 113097335.52923255,\n    "discrepancy": -2790.529232546687\n  },\n'
            '  {\n    "dim": 3,\n    "radius": 450.0,\n    "count": 381700197,\n'
            '    "volume_term": 381703507.4111598,\n    "discrepancy": -3310.411159813404\n  }\n'
            ']\n'
        )

    def test_shell(self, capsys):
        code, out, _ = run(capsys, "gauss", "--dim", "2", "--R", "5", "--w", "0")
        lines = out.strip().split("\n")
        assert lines[0] == "dim,R,w,count"
        assert lines[1].split(",")[-1] == "12"

    def test_incidence_total(self, capsys):
        code, out, _ = run(capsys, "gauss", "--dim", "2", "--N", "400", "--s", "1.48",
                           "--format", "json")
        obj = json.loads(out)
        assert obj["incidences"] == obj["shell_points"] * 400
        assert obj["valid"] is True

    def test_gnuplot_rejected(self, capsys):
        for extra in (["--R", "5"], ["--R", "5", "--w", "0"], ["--N", "400", "--s", "1.48"]):
            code, out, err = run(capsys, "gauss", "--dim", "2", *extra, "--format", "gnuplot")
            assert code == 1 and out == ""
            assert err == "error: unsupported format 'gnuplot' for this subcommand\n"


class TestFField:
    def test_sphere_record(self, capsys):
        code, out, _ = run(capsys, "ffield", "--q", "5", "--d", "2", "--set", "sphere",
                           "--t", "1", "--spectrum")
        obj = json.loads(out)
        assert obj["size"] == 4
        assert obj["spectrum_max_nonzero"] <= 2 * 5 ** (-1.5) + 1e-12

    def test_sharpness_pairing(self, capsys):
        code, out, _ = run(capsys, "ffield", "--q", "101", "--d", "2", "--set", "sharpness",
                           "--delta", "0.1", "--pair-with", "paraboloid")
        obj = json.loads(out)
        assert obj["pair_count"] == 1617
        assert obj["sharpness_ratio"] == pytest.approx(1.9827, abs=1e-4)

    def test_sharpness_fourier_past_the_cell_limit(self, capsys):
        # 401^3 cells exceed the grid limit; neither the Fourier count of the
        # box against the paraboloid nor the exact (brute) one builds the grid
        argv = ["ffield", "--q", "401", "--d", "3", "--set", "sharpness", "--delta", "0.1",
                "--pair-with", "paraboloid"]
        code, out, _ = run(capsys, *argv, "--method", "fourier")
        obj = json.loads(out)
        assert code == 0 and obj["size"] == 11**2 * 242
        assert abs(obj["pair_count"] - 2958166) <= 1e-12 * 2958166
        code, out, err = run(capsys, *argv)
        obj = json.loads(out)
        assert code == 0 and err == ""
        assert obj["pair_count"] == 2958166
        assert obj["sharpness_ratio"] == obj["pair_count_normalized"] == 2958166 * 401 / 29282**2

    def test_quadric_size_past_the_cell_limit(self, capsys):
        for argv, size in [(["--set", "sphere", "--t", "1"], 161202), (["--set", "paraboloid"], 160801)]:
            code, out, _ = run(capsys, "ffield", "--q", "401", "--d", "3", *argv)
            assert code == 0 and json.loads(out)["size"] == size

    def test_empty_set_pairing_exit1(self, capsys):
        # no x in F_5 has x^2 = 2
        code, out, err = run(capsys, "ffield", "--q", "5", "--d", "1", "--set", "sphere",
                             "--t", "2", "--pair-with", "sphere")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "empty" in err


class TestScan:
    def test_pass_verdict_exit0(self, capsys):
        code, out, _ = run(capsys, "scan", "--experiment", "valtr-incidence", "--d", "2",
                           "--ladder", "4,8,16")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_fail_verdict_exit2(self, capsys):
        code, out, _ = run(capsys, "scan", "--experiment", "valtr-incidence", "--d", "2",
                           "--ladder", "4,8,16", "--tolerance", "0.0001")
        assert code == 2
        assert json.loads(out)["verdict"] == "fail"

    def test_gnuplot_format(self, capsys):
        code, out, _ = run(capsys, "scan", "--experiment", "valtr-incidence", "--d", "2",
                           "--ladder", "4,8,16", "--format", "gnuplot")
        assert out.startswith("# experiment: valtr-incidence")

    def test_help_lists_every_experiment(self, capsys):
        code, out, _ = run(capsys, "scan", "--help")
        assert code == 0
        for name in EXPERIMENTS:
            assert name in out

    @pytest.mark.parametrize("flags", [["--experiment", "lattice-incidence", "--dim", "0", "--ladder", "4,5,6"],
                                       ["--experiment", "falconer-ratio", "--d", "0", "--ladder", "4,8,16"]])
    def test_zero_dimension_exit1(self, capsys, flags):
        code, out, err = run(capsys, "scan", *flags)
        assert (code, out) == (1, "")
        assert "got 0" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit1(self, capsys, tolerance):
        code, out, err = run(capsys, "scan", "--experiment", "valtr-incidence", "--d", "2",
                             "--ladder", "4,8,16", "--tolerance", tolerance, "--format", "csv")
        assert (code, out) == (1, "")
        assert "tolerance must be finite and nonnegative" in err

    @pytest.mark.parametrize("flags", [
        ["--experiment", "gauss-discrepancy", "--d", "3"],
        ["--experiment", "falconer-ratio", "--dim", "5"],
        ["--experiment", "lattice-incidence", "--d", "3"],
        ["--experiment", "valtr-incidence", "--alpha", "0.3"],
        ["--experiment", "lenz-energy", "--delta", "0.1", "--ladder", "64,128,256"],
        ["--experiment", "mattila2-incidence", "--s", "1.4", "--ladder", "1,2,3"],
        ["--experiment", "mattila3-incidence", "--alpha", "0.4", "--ladder", "1,2,3"],
        ["--experiment", "valtr-energy", "--dim", "2", "--ladder", "4,8,16"],
        ["--experiment", "ff-sharpness", "--s", "1.2", "--ladder", "101,211,401"],
    ])
    def test_foreign_parameter_exit1(self, capsys, flags):
        # a flag the experiment does not take used to be dropped, running the default
        code, out, err = run(capsys, "scan", *flags)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flags[1]} does not take {flags[2][2:]}; it takes ")

    def test_unknown_experiment_exit1(self, capsys):
        code, _, err = run(capsys, "scan", "--experiment", "nope")
        assert code == 1
        assert "argument --experiment: invalid choice: 'nope'" in err


class TestErrorsAndDeterminism:
    def test_bad_subcommand_exit1(self, capsys):
        assert run(capsys, "nonsense")[0] == 1

    def test_domain_error_exit1(self, capsys):
        code, _, err = run(capsys, "gen", "--generator", "lenz", "--N", "7")
        assert code == 1
        assert "error" in err

    def test_help_exit0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        argsets = [
            ["gen", "--generator", "mattila2", "--alpha", "0.48", "--levels", "2"],
            ["energy", "--generator", "valtr", "--n", "3", "--d", "2", "--s", "1.2",
             "--format", "json", "--seed", "7"],
            ["scan", "--experiment", "lattice-incidence", "--dim", "2", "--s", "1.48",
             "--ladder", "10,20,40", "--format", "csv"],
            ["ffield", "--q", "7", "--d", "2", "--set", "paraboloid", "--spectrum"],
        ]
        for i, argv in enumerate(argsets):
            a = tmp_path / f"a{i}.out"
            b = tmp_path / f"b{i}.out"
            assert main(argv + ["--out", str(a)]) == main(argv + ["--out", str(b)])
            assert a.read_bytes() == b.read_bytes()
            assert len(a.read_bytes()) > 0
