"""The package namespace and its lazy layers: every public name resolves to
its layer's object, and a process loads only the layers it touches."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import incidence_lab

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The public namespace, by the module that holds each name.
PUBLIC = {
    "errors": ["CapacityError", "DivergenceError", "IncidenceLabError", "InputError", "ParameterError"],
    "pointsets": ["CantorParams", "PointSet", "gen_cantor_centers", "gen_lattice", "gen_lenz",
                  "gen_mattila2", "gen_mattila3", "gen_valtr"],
    "gauge": ["EUCLIDEAN", "PARABOLOID_BODY", "Gauge", "gauge_value", "gauge_values", "on_surface_exact"],
    "incidence": ["ALL_CAPS", "FalconerRatio", "IncidenceReport", "annulus_incidences",
                  "exact_valtr_incidences", "falconer_measure_ratio"],
    "energy": ["EnergyReport", "adaptability_sum", "cube_self_energy", "energy_decomposition"],
    "latticecount": ["LatticeCountReport", "LatticeIncidenceTotal", "ball_count", "lattice_incidence_total",
                     "shell_count"],
    "ffield": ["FFSet", "FFSpectrum", "ff_fourier", "ff_pair_count", "ff_paraboloid", "ff_sphere", "is_prime",
               "sharpness_ratio", "sharpness_set"],
    "harness": ["EXPERIMENTS", "CrossoverReport", "ScalingSeries", "emit", "fit_exponent",
                "mattila_lattice_crossover", "parse_series", "run_experiment"],
}
LAYERS = ("pointsets", "gauge", "incidence", "energy", "latticecount", "ffield", "harness")


def loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter, then report whether NumPy and
    each layer module are in sys.modules, which layers have run (a lazy
    module stays a _LazyModule until its first attribute read), and what
    ``code`` printed."""
    probe = (
        "import contextlib, io, json, sys\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "mods = {m: sys.modules.get('incidence_lab.' + m) for m in " + repr(LAYERS) + "}\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'out': out.getvalue(),\n"
        "                  'layers': [m for m, mod in mods.items() if mod is not None],\n"
        "                  'ran': [m for m, mod in mods.items() if mod is not None\n"
        "                          and type(mod).__name__ != '_LazyModule']}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestNamespace:
    def test_every_name_is_its_layer_attribute(self):
        names = [name for names in PUBLIC.values() for name in names]
        assert sorted(incidence_lab.__all__) == sorted(names)
        for layer, names in PUBLIC.items():
            module = importlib.import_module(f"incidence_lab.{layer}")
            for name in names:
                assert getattr(incidence_lab, name) is getattr(module, name), name

    def test_dir_lists_every_name_and_layer(self):
        listed = dir(incidence_lab)
        assert set(incidence_lab.__all__) <= set(listed)
        assert set(LAYERS) <= set(listed)
        assert "__version__" in listed

    def test_unknown_name_raises_attribute_error(self):
        assert not hasattr(incidence_lab, "no_such_name")

    def test_no_random_number_generator(self):
        # every printed number is a function of the flags; --seed is only recorded
        sources = sorted(pathlib.Path(SRC, "incidence_lab").glob("*.py"))
        assert sources
        for path in sources:
            text = path.read_text()
            for token in ("np.random", "numpy.random", "import random", "from random", "default_rng"):
                assert token not in text, f"{path.name} uses {token}"


class TestLazyLoading:
    def test_import_runs_no_layer(self):
        # every layer is registered (a tracer reads them from sys.modules); none that needs NumPy has run
        rec = loaded_after("import incidence_lab, incidence_lab.cli")
        assert rec["numpy"] is False
        assert rec["layers"] == list(LAYERS)

    def test_gen_runs_without_numpy(self):
        rec = loaded_after("from incidence_lab import cli\n"
                           "assert cli.main(['gen', '--generator', 'valtr', '--n', '3', '--d', '2']) == 0")
        assert rec["numpy"] is False
        assert rec["out"].splitlines()[:2] == ["x1,x2", "0/3,1/9"]

    def test_scan_help_runs_no_harness(self):
        rec = loaded_after("from incidence_lab import cli\n"
                           "assert cli.main(['scan', '--help']) == 0")
        assert rec["numpy"] is False
        assert "--experiment" in rec["out"]

    def test_scan_runs_only_its_experiments_layers(self):
        # falconer-ratio counts by classes on the Valtr axes: no ffield, energy or latticecount
        rec = loaded_after("from incidence_lab import cli\n"
                           "assert cli.main(['scan', '--experiment', 'falconer-ratio', '--d', '2',\n"
                           "                 '--s', '1.4', '--ladder', '4,8,16', '--seed', '1']) == 0")
        assert rec["ran"] == ["pointsets", "gauge", "incidence", "harness"]
        rec = loaded_after("from incidence_lab import cli\n"
                           "assert cli.main(['scan', '--experiment', 'gauss-discrepancy', '--dim', '2',\n"
                           "                 '--ladder', '64,128,256']) == 0")
        assert rec["ran"] == ["latticecount", "harness"]

    def test_ffield_runs_no_incidence(self):
        # the exact product count is ffield's own mod-q tables, not the band kernel's head classes
        rec = loaded_after("from incidence_lab import cli\n"
                           "assert cli.main(['ffield', '--q', '401', '--d', '3', '--set', 'sharpness',\n"
                           "                 '--pair-with', 'paraboloid']) == 0")
        assert rec["ran"] == ["ffield"]
        assert '"pair_count": 2958166' in rec["out"]
        rec = loaded_after("from incidence_lab import cli\n"
                           "assert cli.main(['scan', '--experiment', 'ff-sharpness', '--d', '3']) == 0")
        assert rec["ran"] == ["ffield", "harness"]

    def test_first_attribute_read_runs_the_layer(self):
        rec = loaded_after("import incidence_lab\n"
                           "print(incidence_lab.ball_count(2, 10).count)")
        assert rec["numpy"] is True
        assert rec["out"] == "317\n"
