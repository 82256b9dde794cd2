import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lglab

from lglab import (
    ModelParams,
    NoHopf,
    NonHyperbolicPresent,
    NotAnEquilibrium,
    NumericalFailure,
    classify,
    count_interior_equilibria,
    cubic_coefficients,
    find_interior_equilibria,
    hopf_point,
    index_sum_check,
    jacobian,
    trivial_equilibria,
    vector_field,
)
from lglab import equilibria as eqmod
from lglab.model import _partials

from conftest import random_params

THREE = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025)
HOPF_NEG = ModelParams(a=1.1, b=0.2, k1=0.08, k2=0.01, m=0.0025)


def grid_root_count(p, n_grid=1_000_001):
    """Sign-change count of the interior cubic on a dense grid (oracle)."""
    c = cubic_coefficients(p)
    X = np.linspace(0.0, 1.0 - p.m, n_grid)
    R = ((X + c.alpha2) * X + c.alpha1) * X + c.alpha0
    return int(np.count_nonzero(R[:-1] * R[1:] < 0.0))


class TestCubic:
    def test_frozen_coefficients(self):
        c = cubic_coefficients(THREE)
        assert c.alpha2 == pytest.approx(-0.415, abs=1e-15)
        assert c.alpha1 == pytest.approx(0.01790625, abs=1e-15)
        assert c.alpha0 == pytest.approx(-0.0001995, abs=1e-15)

    def test_count_three(self):
        rep = count_interior_equilibria(THREE)
        assert rep.n_predicted == 3
        assert rep.branch == "m_pos_case_a"
        assert rep.tong_product is not None and rep.tong_product < 0

    def test_count_matches_grid(self, rng):
        for _ in range(200):
            p = random_params(rng)
            assert count_interior_equilibria(p).n_predicted == grid_root_count(p)

    def test_count_range_by_m(self, rng):
        for _ in range(200):
            p = random_params(rng)
            n = count_interior_equilibria(p).n_predicted
            if p.m > 0:
                assert n in (1, 2, 3)
            else:
                assert n in (0, 1, 2)

    def test_double_root_counted_once(self):
        # tune k2 so the cubic is tangent to zero at a critical point

        def make(k2):
            return ModelParams(a=0.5, b=0.1, k1=0.08, k2=k2, m=0.0025)

        def product(k2):
            return count_interior_equilibria(make(k2)).tong_product

        lo, hi = 0.18, 0.2
        assert product(lo) > 0 > product(hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if product(mid) > 0:
                lo = mid
            else:
                hi = mid
        # straddling the tangency the count drops from 3 to 1, and the
        # located roots always agree with the prediction; at an exact
        # tangency the double root carries multiplicity 2
        seen = set()
        for k2 in (lo, hi):
            p = make(k2)
            n = count_interior_equilibria(p).n_predicted
            eqs = find_interior_equilibria(p)
            assert sum(e.multiplicity for e in eqs) >= len(eqs)
            assert len(eqs) == n
            seen.add(n)
        assert seen in ({1, 3}, {1, 2}, {2, 3}, {2})

    @pytest.mark.parametrize("p", [
        ModelParams(a=0.5, b=0.1, k1=1e308, k2=0.2),  # 0 * inf in alpha1
        ModelParams(a=1e200, b=0.1, k1=0.08, k2=0.2, m=0.1),  # alpha2^2
    ])
    def test_overflowing_cubic_refused(self, p):
        with pytest.raises(NumericalFailure, match="cubic is not finite"):
            count_interior_equilibria(p)
        with pytest.raises(NumericalFailure, match="cubic is not finite"):
            find_interior_equilibria(p)


class TestFind:
    def test_three_located(self):
        eqs = find_interior_equilibria(THREE)
        assert len(eqs) == 3
        c = cubic_coefficients(THREE)
        for e in eqs:
            assert e.y == pytest.approx(THREE.k2 + (e.x - THREE.m), abs=1e-14)
            assert abs(c.value(e.x - THREE.m)) < 1e-14
            v = vector_field(THREE, (e.x, e.y))
            assert math.hypot(*v) < 1e-12

    def test_count_equals_found(self, rng):
        for _ in range(300):
            p = random_params(rng)
            eqs = find_interior_equilibria(p)
            assert len(eqs) == count_interior_equilibria(p).n_predicted

    def test_returns_classified(self, rng):
        for _ in range(100):
            p = random_params(rng)
            for e in find_interior_equilibria(p):
                assert e.taxonomy is not None
                assert classify(p, e) == e


def tangent_k1_k2(a, m, X0):
    """k1 and k2 that make X0 a double root of the cubic: R(X0) = R'(X0) = 0
    reduce to 2 X0^3 + alpha2 X0^2 = alpha0, linear in k1, and
    alpha1 = -3 X0^2 - 2 alpha2 X0, linear in k2."""
    k1 = -(2 * X0 ** 3 + (a - 1 + 2 * m) * X0 ** 2) / (X0 ** 2 + m * (1 - m))
    a2 = a + k1 - 1 + 2 * m
    a1 = -3 * X0 ** 2 - 2 * a2 * X0
    return k1, (a1 - m * m - m * (2 * k1 - 1) + k1) / a


class TestTangencies:
    """Near a tangency the count decides how many roots are repeated."""

    @staticmethod
    def check(p):
        count = count_interior_equilibria(p)
        eqs = find_interior_equilibria(p)
        c = cubic_coefficients(p)
        res_tol = 1e-12 * max(1.0, abs(c.alpha2), abs(c.alpha1), abs(c.alpha0))
        assert len(eqs) == count.n_predicted
        for e in eqs:
            assert abs(c.value(e.x - p.m)) <= max(res_tol, 1e-10)
            assert e.multiplicity in (1, 2, 3)
        assert sum(e.multiplicity for e in eqs) <= 3

    @given(st.floats(0.05, 0.9), st.floats(0.01, 0.9),
           st.sampled_from([0.0, -1.0, 1.0]), st.floats(-17.0, -11.0))
    @settings(max_examples=300, deadline=None)
    def test_m_zero(self, a, k1, sign, log_rel):
        # k2 = (alpha2^2/4 + k1)/a gives X^2 + alpha2 X + alpha1 a double
        # root at -alpha2/2, here moved by a relative 1e-17 to 1e-11
        a2 = a + k1 - 1.0
        assume(a2 < 0.0)
        k2 = (a2 * a2 / 4 + k1) / a * (1.0 + sign * 10.0 ** log_rel)
        self.check(ModelParams(a=a, b=0.1, k1=k1, k2=k2, m=0.0))

    @given(st.floats(0.05, 0.9), st.floats(-3.5, -0.7), st.floats(0.001, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_m_positive(self, a, log_m, X0):
        # k2 bisected to adjacent floats across the sign change of Tong's
        # product next to the constructed tangency at X0
        m = 10.0 ** log_m
        k1, k2 = tangent_k1_k2(a, m, X0)
        assume(k1 > 0.0 and k2 > 0.0)

        def product(k):
            return count_interior_equilibria(
                ModelParams(a=a, b=0.1, k1=k1, k2=k, m=m)).tong_product

        lo, hi = k2 * (1 - 1e-6), k2 * (1 + 1e-6)
        p_lo, p_hi = product(lo), product(hi)
        assume(p_lo is not None and p_hi is not None)
        assume((p_lo > 0) != (p_hi > 0))
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            p_mid = product(mid)
            if p_mid is not None and (p_mid > 0) == (p_lo > 0):
                lo = mid
            else:
                hi = mid
        for k in (math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, math.inf)):
            self.check(ModelParams(a=a, b=0.1, k1=k1, k2=k, m=m))

    def test_triple_root(self):
        # m = 0.15, k1 = 2/255, a = 20/51 and k2 = 133/320 make the cubic
        # exactly (X - 1/10)^3 (see test_semi_hyperbolic_with_vanishing_
        # quadratic_term): one root, multiplicity 3, at the exact point
        p = ModelParams(a=20 / 51, b=0.1, k1=2 / 255, k2=133 / 320, m=0.15)
        assert count_interior_equilibria(p).tong_delta == 0.0
        (e,) = find_interior_equilibria(p)
        assert (e.x, e.y, e.multiplicity) == (0.25, 0.515625, 3)
        assert e.taxonomy == "Saddle" and e.index == -1 and not e.hyperbolic


class TestClassify:
    def test_rejects_non_equilibrium(self):
        with pytest.raises(NotAnEquilibrium):
            classify(THREE, eqmod.Equilibrium(0.5, 0.5))

    def test_taxonomy_matches_eigenvalues(self, rng):
        checked = 0
        for _ in range(400):
            p = random_params(rng)
            for e in find_interior_equilibria(p):
                e = classify(p, e)
                if not e.hyperbolic:
                    continue
                ev = np.linalg.eigvals(jacobian(p, (e.x, e.y)))
                re = np.real(ev)
                if e.taxonomy == "Saddle":
                    assert re.min() < 0 < re.max()
                elif e.taxonomy.startswith("Stable"):
                    assert re.max() < 0
                elif e.taxonomy.startswith("Unstable"):
                    assert re.min() > 0
                if e.taxonomy.endswith("Focus"):
                    assert abs(np.imag(ev[0])) > 0
                checked += 1
        assert checked > 200

    def test_trivial_equilibria_cases(self):
        e0, e1, e2 = trivial_equilibria(THREE)
        assert (e0.taxonomy, e1.taxonomy, e2.taxonomy) == (
            "UnstableNode", "Saddle", "Saddle")
        # m = 0 with strong predation: the predator-only point attracts
        p = ModelParams(a=1.0, b=0.5, k1=0.2, k2=0.5, m=0.0)
        assert trivial_equilibria(p)[2].taxonomy == "StableNode"
        # boundary a*k2 = k1, split on 1 - k1 - a
        pb = ModelParams(a=0.4, b=0.5, k1=0.2, k2=0.5, m=0.0)
        assert trivial_equilibria(pb)[2].taxonomy == "TopologicalSaddle"
        pb2 = ModelParams(a=0.9, b=0.5, k1=0.45, k2=0.5, m=0.0)
        assert trivial_equilibria(pb2)[2].taxonomy == "AttractingTopologicalNode"

    def test_cusp_at_double_root_with_b_at_kc(self):
        # m = 0 and k2 = (a2^2/4 + k1)/a with a2 = a + k1 - 1 give the
        # quadratic X^2 + a2 X + a1 a double root at X = -a2/2 = 0.2, where
        # det = b*(core + kc) vanishes; b = kc = a*X/(k1 + X) then makes s
        # vanish too, leaving the nilpotent case
        a, k1 = 0.5, 0.1
        a2 = a + k1 - 1.0
        p = ModelParams(a=a, b=0.1, k1=k1, k2=(a2 * a2 / 4 + k1) / a, m=0.0)
        (e,) = find_interior_equilibria(p)
        assert e.multiplicity == 2 and e.x == pytest.approx(0.2, abs=1e-12)
        assert e.taxonomy == "SaddleNode"
        kc = a * e.x / (k1 + e.x)
        c = classify(p.with_b(kc), e)
        assert c.taxonomy == "Cusp" and c.index == 0 and not c.hyperbolic
        assert abs(c.s) <= eqmod.HYPERBOLIC_EPS
        assert abs(c.p_det) <= eqmod.HYPERBOLIC_EPS

    def test_semi_hyperbolic_with_vanishing_quadratic_term(self):
        # at an equilibrium q = 1 + a*k1*(k1 - k2)/z^3 (z = k1 + x - m), and
        # at a double root X = x - m of the cubic q = R''(X)/(2z): q vanishes
        # with det only at a triple root.  m = 0.15, k1 = 2/255, a = 20/51
        # and k2 = 133/320 make the cubic (X - 1/10)^3, with z = 11/102 and
        # a*k1*(k2 - k1) = z^3 exactly; s does not vanish, and k1 < k2
        # makes the point a topological saddle
        k1, a = Fraction(2, 255), Fraction(20, 51)
        k2, m = Fraction(133, 320), Fraction(15, 100)
        x, y = m + Fraction(1, 10), k2 + Fraction(1, 10)
        z = k1 + x - m
        assert a * k1 * (k2 - k1) == z ** 3
        assert -1 + 2 * x + a * y * k1 / z ** 2 + a * (x - m) / z == 0
        p = ModelParams(a=float(a), b=0.1, k1=float(k1), k2=float(k2),
                        m=float(m))
        c = classify(p, eqmod.Equilibrium(float(x), float(y)))
        assert c.taxonomy == "Saddle" and c.index == -1 and not c.hyperbolic
        assert abs(c.p_det) <= eqmod.HYPERBOLIC_EPS
        assert abs(c.s) > eqmod.HYPERBOLIC_EPS


class TestIndex:
    def test_three_equilibria_sum(self):
        eqs = [classify(THREE, e) for e in find_interior_equilibria(THREE)]
        rep = index_sum_check(eqs, trivial_equilibria(THREE)[2])
        assert rep.total == 1 and rep.passed

    def test_random_draws_sum(self, rng):
        for _ in range(300):
            p = random_params(rng)
            eqs = [classify(p, e) for e in find_interior_equilibria(p)]
            try:
                rep = index_sum_check(eqs, trivial_equilibria(p)[2])
            except NonHyperbolicPresent:
                continue
            assert rep.passed, (p.to_dict(), rep)

    def test_non_hyperbolic_refused(self):
        e = eqmod.Equilibrium(0.5, 0.5, taxonomy="LinearCenter", index=1,
                              hyperbolic=False)
        with pytest.raises(NonHyperbolicPresent):
            index_sum_check([e], trivial_equilibria(THREE)[2])

    def test_unclassified_e2_refused(self):
        # no taxonomy, no expected sum: passing would certify nothing
        with pytest.raises(NonHyperbolicPresent, match="unclassified E2"):
            index_sum_check([], eqmod.Equilibrium(0.0, 0.1))


class TestHopf:
    def test_s_vanishes_at_b0(self):
        (e,) = find_interior_equilibria(HOPF_NEG)
        hd = hopf_point(HOPF_NEG, e)
        pb = HOPF_NEG.with_b(hd.b0)
        (e0,) = (classify(pb, q) for q in find_interior_equilibria(pb))
        assert abs(e0.s) < 1e-12
        assert e0.p_det > 0

    def test_crossing_speed(self):
        (e,) = find_interior_equilibria(HOPF_NEG)
        hd = hopf_point(HOPF_NEG, e)
        d = 1e-6

        def s_at(b):
            pb = HOPF_NEG.with_b(b)
            (q,) = (classify(pb, q) for q in find_interior_equilibria(pb))
            return q.s

        assert (s_at(hd.b0 + d) - s_at(hd.b0 - d)) / (2 * d) == pytest.approx(
            1.0, abs=1e-6)

    def test_no_hopf_when_trace_cannot_vanish(self):
        p = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.1, m=0.002)
        (e,) = find_interior_equilibria(p)
        with pytest.raises(NoHopf):
            hopf_point(p, e)

    def test_rejects_non_equilibrium(self):
        # the equilibrium moved off the field's zero by 0.01 in x: a Hopf
        # point there would be read from the partials of a regular point
        (e,) = find_interior_equilibria(HOPF_NEG)
        with pytest.raises(NotAnEquilibrium, match="field residual"):
            hopf_point(HOPF_NEG, eqmod.Equilibrium(e.x + 0.01, e.y))

    def test_lambda_negative_reference_set(self):
        (e,) = find_interior_equilibria(HOPF_NEG)
        hd = hopf_point(HOPF_NEG, e)
        assert hd.lam < 0
        assert not hd.subcritical


@pytest.fixture(scope="module")
def sympy_partials():
    """The sympy derivation of the eigenbasis partials, kept as the oracle.

    Same field, coordinates and keys as the symbolic code the package ran
    before the closed forms, but with the parameters left symbolic so the
    expressions are differentiated once.  Returns one callable per component
    (fa, fb), mapping (p, x0, y0, b0, theta) to the dict of partials.
    """
    import sympy as sp

    u, v, x0, y0, b0, theta, a, k1, k2, m = sp.symbols(
        "u v x0 y0 b0 theta a k1 k2 m")
    x = x0 + u - theta * v
    y = y0 + u
    v1 = x * (1 - x) - a * y * (x - m) / (k1 + x - m)
    v2 = b0 * y * (1 - y / (k2 + x - m))
    keys = ["uu", "uv", "vv", "uuu", "uuv", "uvv", "vvv"]
    out = []
    for expr in (v2, (v2 - v1) / theta):
        fns = {}
        for key in keys:
            deriv = expr
            for sym in key:
                deriv = sp.diff(deriv, u if sym == "u" else v)
            fns[key] = sp.lambdify((x0, y0, b0, theta, a, k1, k2, m),
                                   deriv.subs({u: 0, v: 0}), "math")
        out.append(lambda p, *pt, fns=fns: {
            k: f(*pt, p.a, p.k1, p.k2, p.m) for k, f in fns.items()})
    return out


def test_transformed_partials_match_sympy(rng, sympy_partials):
    checked = 0
    while checked < 60:
        p = random_params(rng)
        for e in find_interior_equilibria(p):
            b0 = float(10 ** rng.uniform(-2.0, 0.5))
            theta = float(10 ** rng.uniform(-1.0, 1.0))
            got = eqmod._transformed_field_partials(
                *_partials(p, e.x, e.y, b0), theta)
            for ref_of, d in zip(sympy_partials, got):
                ref = ref_of(p, e.x, e.y, b0, theta)
                # at an equilibrium y0 = k2 + x0 - m, so the pure-u partials
                # of fa vanish identically and both sides compute them as
                # round-off: compare against the component's largest partial
                scale = max(abs(r) for r in ref.values())
                for key, r in ref.items():
                    assert abs(d[key] - r) <= 1e-10 * max(abs(r), scale), (
                        p.to_dict(), b0, theta, key, d[key], r)
            checked += 1


def test_cli_imports_neither_scipy_nor_sympy(tmp_path):
    # a fresh interpreter, so modules imported by other tests do not count
    hopf = ["--a", "1.1", "--b", "0.2", "--k1", "0.08", "--k2", "0.01",
            "--m", "0.0025"]
    report, scan = tmp_path / "report.json", tmp_path / "scan.csv"
    script = textwrap.dedent(f"""
        import sys
        from lglab.cli import main
        assert main(["analyze", *{hopf!r}, "--hopf", "--out", {str(report)!r}]) == 0
        assert main(["scan", *{hopf!r}, "--scan", "b", "--from", "0.2",
                     "--to", "0.5", "--steps", "4", "--out", {str(scan)!r}]) == 0
        print(sorted(set(sys.modules) & {{"scipy", "sympy"}}))
    """)
    src = os.path.dirname(os.path.dirname(lglab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    # the Hopf code path really ran
    assert "lambda" in json.loads(report.read_text())["hopf"][0]
    assert all(line.split(",")[-2] for line in scan.read_text().split("\n")[1:-1])
