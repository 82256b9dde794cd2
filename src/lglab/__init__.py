"""Prey-predator dynamics with a constant-density prey refuge.

Deterministic and noise-driven variants of a logistic prey coupled to a
predator with saturating uptake and prey-dependent carrying capacity.

The analysis layers (model, equilibria, qualitative) need only the standard
library.  The simulation layers need numpy, so they and their names are
imported on first access: `from lglab import simulate_path` and
`lglab.sde_sim` work as if they had been imported here, and so does
`from lglab import *`, which imports them.
"""

from .errors import (
    Inconclusive,
    InvalidParams,
    KinkPoint,
    LglabError,
    NoHopf,
    NonFinite,
    NonHyperbolicPresent,
    NotAnEquilibrium,
    NumericalFailure,
    PositivityViolation,
    StepTooLarge,
    TooShort,
)
from .model import (
    ModelParams,
    RawParams,
    load_params,
    nondimensionalize,
    vector_field,
)
from .equilibria import (
    CountReport,
    CubicCoeffs,
    Equilibrium,
    HopfData,
    IndexReport,
    classify,
    count_interior_equilibria,
    cubic_coefficients,
    find_interior_equilibria,
    hopf_point,
    index_sum_check,
    trivial_equilibria,
)
from .qualitative import (
    Analysis,
    PersistenceReport,
    Region,
    RegimeCertificate,
    analyze,
    global_stability_condition,
    invariant_region,
    no_cycle_conditions,
    persistence_report,
    stochastic_regime,
)

__version__ = "0.1.0"

# the simulation layers' public names, imported on first access
_LAZY = {
    "ode_sim": ("CycleReport", "LongRunBounds", "Trajectory",
                "detect_limit_cycle", "integrate", "jacobian",
                "long_run_bounds"),
    "sde_sim": ("ComparisonBundle", "EnsembleStats", "NoisePath",
                "SamplePath", "comparison_bundle", "ensemble",
                "explicit_upper_prey", "hitting_time", "make_noise",
                "simulate_path", "stationary_histogram"),
}

# the names and submodules an eager package bound, lazy ones included
__all__ = sorted({*(n for n in globals() if not n.startswith("_")), *_LAZY,
                  *(n for ns in _LAZY.values() for n in ns)})


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module
            mod = import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
