"""Extremal point configurations, incidence counts, Riesz energies, lattice
point statistics and finite-field pair counts, with a scaling harness that
checks measured log-log exponents against the predicted ones.

The layer modules load on first use. ``import incidence_lab`` registers each
of them in ``sys.modules`` through ``importlib.util.LazyLoader`` and runs
none: a layer runs when one of its attributes is first read, directly or
through a name of this package (PEP 562 ``__getattr__``). So a caller pays
only for the layers it touches, and NumPy loads with the first layer that
needs it.
"""

import importlib.util
import sys

from .errors import (
    CapacityError,
    DivergenceError,
    IncidenceLabError,
    InputError,
    ParameterError,
)

__version__ = "0.1.0"

# The experiments that harness.run_experiment knows, in registry order: the
# one list of their names. Each name runs as harness._run_<name> ("-" read as
# "_"), whose signature declares the experiment's parameters. They live here
# so that the CLI can offer them as choices without running harness.
EXPERIMENTS = (
    "valtr-incidence",
    "falconer-ratio",
    "lenz-energy",
    "valtr-energy",
    "mattila2-incidence",
    "mattila3-incidence",
    "lattice-incidence",
    "gauss-discrepancy",
    "ff-sharpness",
)

# Public name -> layer module that defines it.
_EXPORTS = {
    name: layer
    for layer, names in {
        "pointsets": ("CantorParams", "PointSet", "gen_cantor_centers", "gen_lattice", "gen_lenz",
                      "gen_mattila2", "gen_mattila3", "gen_valtr"),
        "gauge": ("EUCLIDEAN", "PARABOLOID_BODY", "Gauge", "gauge_value", "gauge_values", "on_surface_exact"),
        "incidence": ("ALL_CAPS", "FalconerRatio", "IncidenceReport", "annulus_incidences",
                      "exact_valtr_incidences", "falconer_measure_ratio"),
        "energy": ("EnergyReport", "adaptability_sum", "cube_self_energy", "energy_decomposition"),
        "latticecount": ("LatticeCountReport", "LatticeIncidenceTotal", "ball_count",
                         "lattice_incidence_total", "shell_count"),
        "ffield": ("FFSet", "FFSpectrum", "ff_fourier", "ff_pair_count", "ff_paraboloid", "ff_sphere",
                   "is_prime", "sharpness_ratio", "sharpness_set"),
        "harness": ("CrossoverReport", "ScalingSeries", "emit", "fit_exponent", "mattila_lattice_crossover",
                    "parse_series", "run_experiment"),
    }.items()
    for name in names
}

__all__ = [
    "CapacityError", "DivergenceError", "IncidenceLabError", "InputError", "ParameterError",
    "EXPERIMENTS", *_EXPORTS,
]


def _register_lazy(layer: str):
    """The layer module, put in sys.modules but not run until an attribute
    of it is read."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in dict.fromkeys(_EXPORTS.values()):
    globals()[_layer] = _register_lazy(_layer)
del _layer


def __getattr__(name: str):
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
