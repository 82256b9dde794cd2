"""Prey-predator dynamics with a constant-density prey refuge.

Deterministic and noise-driven variants of a logistic prey coupled to a
predator with saturating uptake and prey-dependent carrying capacity.
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
    jacobian,
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
from .ode_sim import (
    CycleReport,
    LongRunBounds,
    Trajectory,
    detect_limit_cycle,
    integrate,
    long_run_bounds,
)
from .sde_sim import (
    ComparisonBundle,
    EnsembleStats,
    NoisePath,
    SamplePath,
    comparison_bundle,
    ensemble,
    explicit_upper_prey,
    hitting_time,
    make_noise,
    simulate_path,
    stationary_histogram,
)

__version__ = "0.1.0"
