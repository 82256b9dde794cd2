"""Closed-form certificates for the long-run behaviour of the refuge model.

Each function checks the hypotheses of one analytic result and reports the
verdict together with the inequality margins that were evaluated, so a
caller (or the JSON report) can see exactly why a certificate holds or
fails.  The certificates that depend on the interior equilibria read them
from one `Analysis` record, built once per parameter set by `analyze`.
Nothing here integrates the dynamics; simulation cross-checks live in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equilibria import (CountReport, Equilibrium, count_interior_equilibria,
                         find_interior_equilibria)
from .errors import NumericalFailure
from .model import ModelParams

UNIFORMLY_PERSISTENT = "UniformlyPersistent"
WEAKLY_PERSISTENT = "WeaklyPersistent"
PREY_EXTINCTION = "PreyExtinction"
UNDETERMINED = "Undetermined"

FULL_EXTINCTION = "FullExtinction"
PREY_EXTINCTION_PREDATOR_STATIONARY = "PreyExtinctionPredatorStationary"
STATIONARY = "Stationary"
DETERMINISTIC = "Deterministic"


@dataclass(frozen=True)
class Region:
    """Attracting rectangle [x_lo, x_hi] x [y_lo, y_hi); y_hi is excluded."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        # negated comparisons, so that a NaN bound fails too
        if not (self.x_lo <= self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(
                "region needs x_lo <= x_hi and y_lo < y_hi, got "
                f"[{self.x_lo}, {self.x_hi}] x [{self.y_lo}, {self.y_hi})")

    def contains(self, x, y):
        """Whether (x, y) lies in the rectangle; elementwise for arrays."""
        return ((self.x_lo <= x) & (x <= self.x_hi)
                & (self.y_lo <= y) & (y < self.y_hi))

    def to_dict(self) -> dict:
        return {"x_lo": self.x_lo, "x_hi": self.x_hi,
                "y_lo": self.y_lo, "y_hi": self.y_hi}


@dataclass(frozen=True)
class PersistenceReport:
    regime: str
    branch: str
    liminf_x_bound: float | None = None
    limsup_x_bound: float | None = None

    def to_dict(self) -> dict:
        return {"regime": self.regime, "branch": self.branch,
                "liminf_x_bound": self.liminf_x_bound,
                "limsup_x_bound": self.limsup_x_bound}


@dataclass(frozen=True)
class RegimeCertificate:
    holds: bool
    clause: str
    witness: dict

    def to_dict(self) -> dict:
        return {"holds": self.holds, "clause": self.clause,
                "witness": self.witness}


@dataclass(frozen=True)
class Analysis:
    """The equilibrium facts of one parameter set that certificates read."""

    p: ModelParams
    count: CountReport
    interior: tuple[Equilibrium, ...]


def analyze(p: ModelParams) -> Analysis:
    """Count and locate the classified interior equilibria of p, once."""
    return Analysis(p, count_interior_equilibria(p),
                    tuple(find_interior_equilibria(p)))


def invariant_region(p: ModelParams) -> Region:
    """The invariant attracting rectangle [m,1] x [k2, 1+k2-m)."""
    return Region(x_lo=p.m, x_hi=1.0, y_lo=p.k2, y_hi=1.0 + p.k2 - p.m)


def persistence_report(an: Analysis) -> PersistenceReport:
    """Which persistence regime the parameters fall in.

    A positive refuge keeps the prey above m, so m > 0 always gives uniform
    persistence.  With m = 0 the verdict depends on how the predation
    pressure a compares with the half-saturation k1: small pressure
    (a*L < k1, L = 1+k2) still bounds the prey away from zero, the
    intermediate range only bounds it in the limsup sense, and strong
    pressure (k1 < a*k2) makes E2 = (0, k2) attract.  E2 attracting does not
    make the prey die out: a stable interior equilibrium or cycle may
    coexist with it.  So extinction is claimed only when no interior
    equilibrium exists, and the verdict is Undetermined otherwise.
    """
    p = an.p
    if p.m > 0:
        return PersistenceReport(UNIFORMLY_PERSISTENT, "refuge",
                                 liminf_x_bound=p.m)

    L = 1.0 + p.k2
    if p.a * L < p.k1:
        return PersistenceReport(UNIFORMLY_PERSISTENT, "weak_predation",
                                 liminf_x_bound=(p.k1 - p.a * L) / p.k1)
    if p.a * p.k2 < p.k1:  # and k1 <= a*L
        c = 1.0 - p.k1 - p.a
        bound = min(p.k1 / p.a - p.k2,
                    0.5 * (c + math.sqrt(c * c + 4.0 * (p.k1 - p.a * p.k2))))
        return PersistenceReport(WEAKLY_PERSISTENT, "intermediate_predation",
                                 limsup_x_bound=bound)
    if p.a * p.k2 == p.k1:
        bound = 1.0 - p.k1 - p.a
        if bound > 0:
            return PersistenceReport(WEAKLY_PERSISTENT, "boundary_predation",
                                     limsup_x_bound=bound)
        branch = "boundary_predation"
    else:
        branch = "strong_predation"
    regime = UNDETERMINED if an.count.n_predicted else PREY_EXTINCTION
    return PersistenceReport(regime, branch)


def global_stability_condition(an: Analysis) -> RegimeCertificate:
    """Sufficient condition for a unique globally stable interior equilibrium.

    Requires exactly one interior equilibrium and 2m + k1 >= 1, and for
    m = 0 additionally 4*a*k2 <= (1-k1-a)^2 + 4*k1.  The margins alone do
    not rule out a parameter set without an interior equilibrium.
    """
    p = an.p
    margin1 = 2.0 * p.m + p.k1 - 1.0
    margin2 = (1.0 - p.k1 - p.a) ** 2 + 4.0 * p.k1 - 4.0 * p.a * p.k2
    holds = (an.count.n_predicted == 1 and margin1 >= 0.0
             and (p.m > 0 or margin2 >= 0.0))
    return RegimeCertificate(holds, "global_stability", {
        "two_m_plus_k1_minus_1": margin1,
        "discriminant_margin": margin2 if p.m == 0 else None,
    })


def no_cycle_conditions(an: Analysis) -> list[RegimeCertificate]:
    """All cycle-related certificates, no-cycle and existence side together.

    Each sufficient condition is evaluated independently; a periodic orbit
    is ruled out as soon as any no-cycle certificate holds.  A cycle must
    enclose an interior equilibrium, so the count rules cycles out only when
    there is none; two equilibria (a saddle and an unstable focus) can be
    encircled by a stable cycle.  The last entry is the existence-side
    clause: with m = 0 and a single unstable interior equilibrium of
    focus/node type, the attracting region forces at least one limit cycle
    around it.
    """
    p, count = an.p, an.count
    out = []
    out.append(RegimeCertificate(
        p.m == 0 and count.n_predicted == 0,
        "no_cycle_equilibrium_count",
        {"m": p.m, "n": count.n_predicted},
    ))
    out.append(RegimeCertificate(
        p.m == 0 and p.b + p.k1 >= 1.0,
        "no_cycle_b_plus_k1",
        {"m": p.m, "b_plus_k1": p.b + p.k1},
    ))
    dulac = (p.m > 0 and p.k2 > 1.0 - p.m
             and (p.k1 > 1.0 + p.m or p.a * p.k2 + p.k1 > 2.0 + 1.0 / 12.0))
    out.append(RegimeCertificate(dulac, "no_cycle_dulac", {
        "m": p.m, "k2_minus_1_plus_m": p.k2 - (1.0 - p.m),
        "k1_minus_1_plus_m": p.k1 - (1.0 + p.m),
        "ak2_plus_k1": p.a * p.k2 + p.k1,
    }))
    gs = global_stability_condition(an)
    out.append(RegimeCertificate(gs.holds, "no_cycle_global_stability",
                                 gs.witness))

    exists = False
    witness = {"m": p.m, "n": count.n_predicted, "s": None, "p": None}
    if p.m == 0 and count.n_predicted == 1:
        (e,) = an.interior
        witness["s"], witness["p"] = e.s, e.p_det
        exists = e.s < 0 and e.p_det > 0
    out.append(RegimeCertificate(exists, "cycle_exists_unstable_interior",
                                 witness))
    return out


def stochastic_regime(p: ModelParams) -> RegimeCertificate:
    """Label the long-run stochastic regime from the noise intensities.

    Prey noise with sigma1^2 >= 2 overwhelms the logistic growth and kills
    the prey; the predator then dies too if sigma2^2 >= 2b, otherwise it
    settles to a one-dimensional stationary law.  Small noise on both
    components with a positive refuge admits a unique joint stationary
    distribution.  Zones not covered by any of these results are labelled
    Undetermined rather than guessed.
    """
    try:
        s1sq, s2sq = p.sigma1 ** 2, p.sigma2 ** 2
    except OverflowError:
        raise NumericalFailure(
            f"the squared noise intensities are not finite: "
            f"sigma1={p.sigma1}, sigma2={p.sigma2}") from None
    witness = {"sigma1_sq": s1sq, "sigma2_sq": s2sq,
               "two_b": 2.0 * p.b, "m": p.m}
    # noise is on when an intensity is, even if its square underflows
    if p.deterministic:
        return RegimeCertificate(True, DETERMINISTIC, witness)
    if s1sq >= 2.0 and s2sq >= 2.0 * p.b:
        return RegimeCertificate(True, FULL_EXTINCTION, witness)
    if s1sq >= 2.0 and 0.0 < p.sigma2 and s2sq < 2.0 * p.b:
        return RegimeCertificate(True, PREY_EXTINCTION_PREDATOR_STATIONARY,
                                 witness)
    if (0.0 < p.sigma1 and s1sq < 2.0 and 0.0 < p.sigma2 and s2sq < 2.0 * p.b
            and p.m > 0):
        return RegimeCertificate(True, STATIONARY, witness)
    return RegimeCertificate(False, UNDETERMINED, witness)
