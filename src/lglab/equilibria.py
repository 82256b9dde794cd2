"""Counting, location and classification of equilibria of the refuge model.

Interior equilibria are the roots X = x - m of the cubic

    R(X) = X^3 + alpha2*X^2 + alpha1*X + alpha0

in (0, 1-m), paired with y = k2 + X.  The count is predicted by Routh's
sign-change scheme combined with Tong's three-real-roots criterion; the
roots, located by bisection-safeguarded Newton steps on the monotone
pieces of R, must agree with that prediction.  Classification uses the
negative trace s, determinant p and discriminant s^2 - 4p of the Jacobian,
with documented fallbacks for the semi-hyperbolic and nilpotent cases.
The first Lyapunov coefficient at a Hopf point is built from the second
and third partials of the field.  Both read one table of closed-form
partials, model._partials; the module needs only the standard library.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .errors import (
    NoHopf,
    NonHyperbolicPresent,
    NotAnEquilibrium,
    NumericalFailure,
)
# vector_field is not called here; perfbench's tracer test expects it bound
from .model import ModelParams, _check_residual, _partials, vector_field

# Taxonomy labels (the strings that appear in JSON reports).
SADDLE = "Saddle"
STABLE_NODE = "StableNode"
STABLE_FOCUS = "StableFocus"
STABLE_DEGENERATE_NODE = "StableDegenerateNode"
UNSTABLE_NODE = "UnstableNode"
UNSTABLE_FOCUS = "UnstableFocus"
UNSTABLE_DEGENERATE_NODE = "UnstableDegenerateNode"
LINEAR_CENTER = "LinearCenter"
SADDLE_NODE = "SaddleNode"
CUSP = "Cusp"
TOPOLOGICAL_SADDLE = "TopologicalSaddle"
ATTRACTING_TOPOLOGICAL_NODE = "AttractingTopologicalNode"

HYPERBOLIC_EPS = 1e-9
_EPS = sys.float_info.epsilon

_INDEX = {
    SADDLE: -1,
    STABLE_NODE: 1, STABLE_FOCUS: 1, STABLE_DEGENERATE_NODE: 1,
    UNSTABLE_NODE: 1, UNSTABLE_FOCUS: 1, UNSTABLE_DEGENERATE_NODE: 1,
    LINEAR_CENTER: 1,
    SADDLE_NODE: 0, CUSP: 0,
    TOPOLOGICAL_SADDLE: -1, ATTRACTING_TOPOLOGICAL_NODE: 1,
}


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients of R(X) = X^3 + alpha2 X^2 + alpha1 X + alpha0."""

    alpha2: float
    alpha1: float
    alpha0: float

    def value(self, X):
        return ((X + self.alpha2) * X + self.alpha1) * X + self.alpha0

    def derivative(self, X):
        return (3.0 * X + 2.0 * self.alpha2) * X + self.alpha1


@dataclass(frozen=True)
class CountReport:
    n_predicted: int
    routh_sign_changes: int
    tong_delta: float
    tong_product: float | None
    branch: str

    def to_dict(self) -> dict:
        return {"n_predicted": self.n_predicted,
                "routh_sign_changes": self.routh_sign_changes,
                "tong_delta": self.tong_delta,
                "tong_product": self.tong_product, "branch": self.branch}


@dataclass(frozen=True)
class Equilibrium:
    x: float
    y: float
    s: float = math.nan
    p_det: float = math.nan
    delta_c: float = math.nan
    taxonomy: str | None = None
    index: int | None = None
    multiplicity: int = 1
    hyperbolic: bool = True

    def to_dict(self) -> dict:
        return {
            "x": self.x, "y": self.y, "s": self.s, "p": self.p_det,
            "delta": self.delta_c, "taxonomy": self.taxonomy,
            "index": self.index, "multiplicity": self.multiplicity,
        }


@dataclass(frozen=True)
class IndexReport:
    total: int
    expected: int | None
    passed: bool


@dataclass(frozen=True)
class HopfData:
    b0: float
    lam: float
    subcritical: bool


def cubic_coefficients(p: ModelParams) -> CubicCoeffs:
    """Coefficients of the interior-equilibrium cubic in X = x - m."""
    return CubicCoeffs(
        alpha2=p.a + p.k1 - 1.0 + 2.0 * p.m,
        alpha1=p.m ** 2 + p.m * (2.0 * p.k1 - 1.0) + p.a * p.k2 - p.k1,
        alpha0=-p.k1 * p.m * (1.0 - p.m),
    )


def _sign_changes(seq):
    signs = [v > 0 for v in seq if v != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def count_interior_equilibria(p: ModelParams) -> CountReport:
    """Predict the number of distinct interior equilibria without root finding.

    For m > 0 the Routh scheme gives the number of roots of R with positive
    real part and Tong's criterion decides how many are real; the boundary
    case R(x'min)*R(x'max) = 0 yields a double root (2 distinct equilibria).
    For m = 0 the cubic degenerates to X times a quadratic and the count
    follows from its discriminant and Vieta signs.  Raises NumericalFailure
    when a coefficient or Tong's delta overflows, since no count taken over
    an inf or NaN can be trusted.
    """
    c = cubic_coefficients(p)
    a2, a1, a0 = c.alpha2, c.alpha1, c.alpha0
    tong_delta = a2 * a2 - 3.0 * a1
    if not all(map(math.isfinite, (a2, a1, a0, tong_delta))):
        raise NumericalFailure(
            f"the equilibrium cubic is not finite: alpha2={a2}, alpha1={a1}, "
            f"alpha0={a0}, tong_delta={tong_delta}")

    if a2 != 0.0:
        routh = _sign_changes((1.0, a2, a1 - a0 / a2, a0))
    else:
        routh = _sign_changes((1.0, a1, a0))

    if p.m > 0:
        tong_product = None
        if tong_delta > 0.0:
            r = math.sqrt(tong_delta)
            tong_product = c.value((-a2 - r) / 3.0) * c.value((-a2 + r) / 3.0)
        if a2 < 0.0 and a1 * a2 < a0 and tong_delta > 0.0 and tong_product < 0.0:
            return CountReport(3, routh, tong_delta, tong_product, "m_pos_case_a")
        if a2 < 0.0 and a1 * a2 < a0 and tong_delta > 0.0 and tong_product == 0.0:
            return CountReport(2, routh, tong_delta, tong_product, "m_pos_case_b")
        return CountReport(1, routh, tong_delta, tong_product, "m_pos_case_c")

    # m = 0: interior equilibria are the positive roots of X^2 + a2 X + a1.
    disc_q = a2 * a2 - 4.0 * a1
    if disc_q > 0.0 and a1 > 0.0 and a2 < 0.0:
        return CountReport(2, routh, tong_delta, None, "m_zero_case_a")
    if (disc_q > 0.0 and (a1 < 0.0 or (a1 == 0.0 and a2 < 0.0))) or (
        disc_q == 0.0 and a2 < 0.0
    ):
        return CountReport(1, routh, tong_delta, None, "m_zero_case_b")
    return CountReport(0, routh, tong_delta, None, "m_zero_case_c")


def _root_in_bracket(c: CubicCoeffs, lo: float, hi: float) -> float:
    """Root of R on a bracket where R is monotone and changes sign: Newton
    from the midpoint, bisecting when a step would leave the shrinking bracket."""
    rising = c.value(hi) > 0.0
    X = 0.5 * (lo + hi)
    for _ in range(200):
        f = c.value(X)
        lo, hi = (lo, X) if (f > 0.0) == rising else (X, hi)
        fp = c.derivative(X)
        Xn = X - f / fp if fp != 0.0 else math.inf
        if abs(Xn - X) <= 4.0 * _EPS * X:
            return Xn
        if not lo < Xn < hi:
            Xn = 0.5 * (lo + hi)
            if hi - lo <= 4.0 * _EPS * Xn:
                return Xn
        X = Xn
    raise NumericalFailure(f"root finding failed in [{lo}, {hi}]")


def find_interior_equilibria(p: ModelParams) -> list[Equilibrium]:
    """Locate all interior equilibria by bracketing the cubic's sign changes.

    R is evaluated once at 0, at 1-m and at its critical points inside
    (0, 1-m): two when Tong's delta is positive, the inflection -alpha2/3
    when it is zero.  Each piece whose end values have strictly opposite
    signs holds one simple root, found by safeguarded Newton.  The count
    decides the repeated roots: at delta = 0 an inflection within res_tol
    of zero is the only root, with multiplicity 3; otherwise, while fewer
    roots than predicted are found, the critical point with the smallest
    |R| is a tangency, with multiplicity 2.  Results are sorted by x and
    already passed through classify.  Raises NumericalFailure when fewer
    roots are found than the count predicts, as where rounding cancels the
    sign change at 1-m (k1 near 1e20) or alpha0 underflows (k1 near 5e-324).
    """
    count = count_interior_equilibria(p)
    c = cubic_coefficients(p)
    scale = max(1.0, abs(c.alpha2), abs(c.alpha1), abs(c.alpha0))
    res_tol = 1e-12 * scale
    lo, hi = 0.0, 1.0 - p.m

    breakpoints = [lo, hi]
    if count.tong_delta >= 0.0:
        r = math.sqrt(count.tong_delta)
        for Xc in ((-c.alpha2 - r) / 3.0, (-c.alpha2 + r) / 3.0):
            if lo < Xc < hi:
                breakpoints.append(Xc)
    pts = [(X, c.value(X)) for X in sorted(set(breakpoints))]

    roots: list[tuple[float, int]] = []
    for (left, fl), (right, fr) in zip(pts, pts[1:]):
        if fl * fr < 0.0:
            roots.append((_root_in_bracket(c, left, right), 1))
    critical = pts[1:-1]  # at delta = 0 the one inflection
    if count.tong_delta == 0.0 and critical and abs(critical[0][1]) <= res_tol:
        roots = [(critical[0][0], 3)]
    elif len(roots) < count.n_predicted:
        critical.sort(key=lambda pt: abs(pt[1]))
        roots += [(X, 2) for X, _ in critical[:count.n_predicted - len(roots)]]
        roots.sort()
    if len(roots) < count.n_predicted:
        raise NumericalFailure(
            f"found {len(roots)} interior equilibria where the count "
            f"predicts {count.n_predicted}")

    out = []
    for X, mult in roots:
        if abs(c.value(X)) > max(res_tol, 1e-10):
            raise NumericalFailure(f"residual too large at X={X}")
        out.append(classify(p, Equilibrium(p.m + X, p.k2 + X, multiplicity=mult)))
    return out


def trivial_equilibria(p: ModelParams) -> list[Equilibrium]:
    """The three axis equilibria E0=(0,0), E1=(1,0), E2=(0,k2), classified.

    E0 is an unstable node and E1 a hyperbolic saddle for all parameters.
    E2 is a saddle when m > 0 or a*k2 < k1, a stable node when m = 0 with
    a*k2 > k1, and semi-hyperbolic on the boundary m = 0, a*k2 = k1, where
    the sign of 1 - k1 - a separates an attracting topological node from a
    topological saddle.  Raises NumericalFailure when a discriminant
    overflows or is NaN (b near 1e154, or k1 near 0 with m = 0).
    """
    b = p.b
    try:
        delta0 = (1.0 - b) ** 2
    except OverflowError:
        delta0 = math.inf

    if p.m > 0 or p.a * p.k2 < p.k1:
        j11 = 1.0 if p.m > 0 else 1.0 - p.a * p.k2 / p.k1
        tax, hyp = SADDLE, True
    elif p.a * p.k2 > p.k1:
        j11 = 1.0 - p.a * p.k2 / p.k1
        tax, hyp = STABLE_NODE, True
    else:
        j11 = 0.0
        tax = TOPOLOGICAL_SADDLE if 1.0 - p.k1 - p.a > 0 else ATTRACTING_TOPOLOGICAL_NODE
        hyp = False
    s2 = -(j11 - b)
    p2 = -j11 * b
    deltas = (delta0, delta0 + 4.0 * b, s2 * s2 - 4.0 * p2)
    if not all(map(math.isfinite, deltas)):  # an inf s or p makes one so
        raise NumericalFailure(
            f"the discriminants of E0, E1 and E2 are not finite: {deltas}")
    e0 = Equilibrium(0.0, 0.0, s=-(1.0 + b), p_det=b, delta_c=deltas[0],
                     taxonomy=UNSTABLE_NODE, index=1)
    e1 = Equilibrium(1.0, 0.0, s=1.0 - b, p_det=-b, delta_c=deltas[1],
                     taxonomy=SADDLE, index=-1)
    e2 = Equilibrium(0.0, p.k2, s=s2, p_det=p2, delta_c=deltas[2],
                     taxonomy=tax, index=_INDEX[tax], hyperbolic=hyp)
    return [e0, e1, e2]


def classify(p: ModelParams, e: Equilibrium) -> Equilibrium:
    """Fill taxonomy, index and hyperbolicity of an interior equilibrium.

    The point must zero each field component to 1e-9 of its largest term:
    x, x^2 and the Holling term at its saturation a*y for v1 (near x = m a
    rounded x moves that term by up to a*y/k1 per unit), b*y and
    b*y^2/(k2 + x - m) for v2.  Hyperbolic cases follow the sign table on
    (s, p, s^2-4p) with absolute tolerance HYPERBOLIC_EPS; y = k2 + x - m
    makes the Jacobian's second row (b, -b), so s = b - J11 and
    p = -b*(J11 + J12).  With q = -(v1_xx/2 + v1_xy) (z = k1 + x - m), a
    vanishing p leaves a saddle-node if z^3*q is nonzero, else an unstable
    node (k1 > k2) or saddle (k1 < k2); s and p vanishing leave a cusp if
    q is nonzero, else a saddle.
    """
    _check_residual(p, e)
    d1, _ = _partials(p, e.x, e.y, p.b)
    s = p.b - d1[1, 0]
    det = p.b * (0.0 - d1[1, 0] - d1[0, 1])  # an exact zero is +0.0
    q = -0.5 * d1[2, 0] - d1[1, 1]
    delta = s * s - 4.0 * det
    eps = HYPERBOLIC_EPS
    hyperbolic = True

    if det < -eps:
        tax = SADDLE
    elif det > eps and abs(s) > eps:
        if s > 0:
            stable = (STABLE_NODE, STABLE_FOCUS, STABLE_DEGENERATE_NODE)
        else:
            stable = (UNSTABLE_NODE, UNSTABLE_FOCUS, UNSTABLE_DEGENERATE_NODE)
        if delta > eps:
            tax = stable[0]
        elif delta < -eps:
            tax = stable[1]
        else:
            tax = stable[2]
    elif det > eps:
        tax = LINEAR_CENTER
        hyperbolic = False
    elif abs(s) > eps:
        # semi-hyperbolic: one zero eigenvalue
        if abs((p.k1 + e.x - p.m) ** 3 * q) > eps:
            tax = SADDLE_NODE
        else:
            tax = UNSTABLE_NODE if p.k1 > p.k2 else SADDLE
        hyperbolic = False
    else:
        # nilpotent: both eigenvalues zero, linear part nonzero
        tax = CUSP if abs(q) > eps else SADDLE
        hyperbolic = False

    return replace(e, s=s, p_det=det, delta_c=delta, taxonomy=tax,
                   index=_INDEX[tax], hyperbolic=hyperbolic)


def index_sum_check(eqs: Sequence[Equilibrium],
                    e2: Equilibrium) -> IndexReport:
    """Check the Poincare index sum of classified interior equilibria.

    The expected sum follows from the type of E2 = (0, k2), as
    trivial_equilibria classifies it: with E2 a saddle the inward-pointing
    field on the attracting region forces the sum to 1; a stable node E2
    absorbs one index and the interior sum must be 0; a semi-hyperbolic E2
    predicts no sum.  An unclassified E2 predicts nothing and is refused.
    """
    if e2.taxonomy is None:
        raise NonHyperbolicPresent("unclassified E2 in index check")
    for e in eqs:
        if e.taxonomy is None:
            raise NonHyperbolicPresent("unclassified equilibrium in index check")
        if not e.hyperbolic:
            raise NonHyperbolicPresent(f"non-hyperbolic equilibrium {e.taxonomy}")
    total = sum(e.index for e in eqs)
    expected = {SADDLE: 1, STABLE_NODE: 0}.get(e2.taxonomy)
    return IndexReport(total=total, expected=expected,
                       passed=(expected is None or total == expected))


def _transformed_field_partials(d1: dict, d2: dict, theta: float):
    """Partials (orders 2-3) of the field in the Hopf eigenbasis.

    Coordinates (u, v) with x = x0 + u - theta*v, y = y0 + u put the linear
    part at b = b0 into rotation form.  d1 and d2 are model._partials of v1
    and v2 at (x0, y0) and b0.  Returns dicts of the partials of fa = v2
    and fb = (v2 - v1)/theta, keyed like 'uv', 'uuv': du = dx + dy and
    dv = -theta*dx map the (x, y) partials to the eigenbasis as
    D_{u^i v^j} f = (-theta)^j * sum_r C(i, r) * f_{x^(r+j) y^(i-r)}.
    """
    db = {k: (v - d1.get(k, 0.0)) / theta for k, v in d2.items()}

    def transformed(d, i, j):
        return (-theta) ** j * sum(math.comb(i, r) * d.get((r + j, i - r), 0.0)
                                   for r in range(i + 1))

    keys = ["uu", "uv", "vv", "uuu", "uuv", "uvv", "vvv"]
    return [{key: transformed(d, key.count("u"), key.count("v")) for key in keys}
            for d in (d2, db)]


def hopf_point(p: ModelParams, e: Equilibrium) -> HopfData:
    """Critical b and first Lyapunov coefficient at an interior equilibrium.

    s = b - J11 (see classify), so the eigenvalue real parts cross zero at
    b0 = J11 = 1 - 2x - a*y*k1/z^2; purely imaginary eigenvalues require
    0 < b0 < kc = -J12 = a*(x-m)/z.  The Lyapunov coefficient is the Guckenheimer-Holmes
    combination of second and third partials of the field transformed to the
    eigenbasis at b = b0; lam > 0 means the bifurcating orbits are repelling.
    e must pass classify's field-residual test, else NotAnEquilibrium.
    """
    _check_residual(p, e)
    d1, _ = _partials(p, e.x, e.y, p.b)
    b0, kc = d1[1, 0], -d1[0, 1]
    if not 0.0 < b0 < kc:
        raise NoHopf(f"b0={b0:.6g} outside (0, a*c)= (0, {kc:.6g})")

    omega0 = math.sqrt(b0 * (kc - b0))
    theta = math.sqrt((kc - b0) / b0)
    A, B = _transformed_field_partials(*_partials(p, e.x, e.y, b0), theta)

    lam = (
        A["uuu"] + A["uvv"] + B["uuv"] + B["vvv"]
        + (A["uv"] * (A["uu"] + A["vv"]) - B["uv"] * (B["uu"] + B["vv"])
           - A["uu"] * B["uu"] + A["vv"] * B["vv"]) / omega0
    ) / 16.0
    return HopfData(b0=b0, lam=lam, subcritical=lam > 0)
