import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lglab import (
    ModelParams,
    Region,
    analyze,
    count_interior_equilibria,
    detect_limit_cycle,
    global_stability_condition,
    integrate,
    invariant_region,
    no_cycle_conditions,
    persistence_report,
    stochastic_regime,
)
from lglab.cli import analysis_report
from lglab.ode_sim import RK4, integrate_batch

from conftest import random_params

COORD = st.floats(-0.5, 2.5, allow_nan=False)
# log-uniform rates and a refuge that is zero half the time, as random_params
RATE = st.floats(-1.5, 0.5).map(lambda v: 10.0 ** v)
REFUGE = st.one_of(st.just(0.0), st.floats(0.0005, 0.6))

# m = 0 with a*k2 > k1: E2 attracts, next to a stable focus (bistable) ...
BISTABLE = dict(a=0.38, b=1.0, k1=0.054, k2=0.285, m=0.0)
# ... margins of global stability hold, without an interior equilibrium ...
NO_INTERIOR = dict(a=2.2, b=0.7, k1=1.06, k2=0.705, m=0.0)
# ... a saddle and an unstable focus, encircled by a stable cycle
CYCLE_AROUND_TWO = dict(a=0.506126773882697, b=0.09701586162675373,
                        k1=0.3402444783228198, k2=0.6722858283634656, m=0.0)


class TestRegion:
    @pytest.mark.parametrize("m,k2,expect", [
        (0.0, 1.0, (0.0, 1.0, 1.0, 2.0)),
        (0.0025, 0.2, (0.0025, 1.0, 0.2, 1.1975)),
        (0.5, 0.5, (0.5, 1.0, 0.5, 1.0)),
    ])
    def test_bounds(self, m, k2, expect):
        r = invariant_region(ModelParams(a=1, b=1, k1=1, k2=k2, m=m))
        assert (r.x_lo, r.x_hi, r.y_lo, r.y_hi) == pytest.approx(expect)

    def test_contains_half_open(self):
        r = invariant_region(ModelParams(a=1, b=1, k1=1, k2=0.5, m=0.0))
        assert r.contains(0.5, 0.5)
        assert not r.contains(0.5, r.y_hi)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=20),
           st.sampled_from([(0.0, 1.0, 1.0, 2.0), (0.0025, 1.0, 0.2, 1.1975),
                            (0.4, 0.6, 0.6, 0.8)]))
    def test_contains_on_arrays_is_elementwise(self, points, bounds):
        r = Region(*bounds)
        # put points exactly on every edge, the excluded y_hi included
        points += [(r.x_lo, r.y_lo), (r.x_hi, r.y_lo), (r.x_hi, r.y_hi),
                   (r.x_lo, r.y_hi), (points[0][0], r.y_hi),
                   (r.x_hi, points[0][1])]
        x, y = np.array(points).T
        scalar = [r.contains(float(px), float(py)) for px, py in points]
        assert r.contains(x, y).tolist() == scalar
        assert scalar[-6:-2] == [True, True, False, False]

    @pytest.mark.parametrize("bounds", [
        (0.6, 0.4, 0.0, 1.0), (0.0, 1.0, 0.5, 0.5), (0.0, 1.0, 0.8, 0.2),
        (np.nan, 1.0, 0.0, 1.0), (0.0, np.nan, 0.0, 1.0),
        (0.0, 1.0, np.nan, 1.0), (0.0, 1.0, 0.0, np.nan),
    ])
    def test_empty_or_nan_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="region needs x_lo <= x_hi "
                                             "and y_lo < y_hi"):
            Region(*bounds)

    def test_single_column_allowed(self):
        # x_hi is included, so x_lo == x_hi still holds points
        assert Region(0.5, 0.5, 0.0, 1.0).contains(0.5, 0.5)

    def test_invariant_region_is_never_empty(self, rng):
        for _ in range(200):
            invariant_region(random_params(rng))  # raises if empty


class TestPersistence:
    def test_weak_predation_bound(self):
        rep = persistence_report(analyze(ModelParams(a=0.5, b=0.1, k1=1.0,
                                                    k2=0.2)))
        assert rep.regime == "UniformlyPersistent"
        assert rep.liminf_x_bound == pytest.approx(0.4)

    def test_strong_predation_extinction(self):
        rep = persistence_report(analyze(ModelParams(a=1.0, b=0.1, k1=0.2,
                                                    k2=0.5)))
        assert rep.regime == "PreyExtinction"

    def test_refuge_always_persists(self):
        rep = persistence_report(analyze(ModelParams(a=5, b=2, k1=0.01, k2=3,
                                                    m=0.3)))
        assert rep.regime == "UniformlyPersistent"
        assert rep.branch == "refuge"

    def test_intermediate_branch_bound(self):
        p = ModelParams(a=0.5, b=0.1, k1=0.2, k2=0.2)  # a*k2 < k1 <= a*L
        rep = persistence_report(analyze(p))
        assert rep.regime == "WeaklyPersistent"
        assert rep.limsup_x_bound is not None and rep.limsup_x_bound > 0

    def test_exactly_one_branch(self, rng):
        for _ in range(300):
            p = random_params(rng)
            rep = persistence_report(analyze(p))
            assert rep.regime in ("UniformlyPersistent", "WeaklyPersistent",
                                  "PreyExtinction", "Undetermined")
            assert rep.branch in ("refuge", "weak_predation",
                                  "intermediate_predation",
                                  "boundary_predation", "strong_predation")

    def test_prey_extinction_draws_lose_the_prey(self):
        # every PreyExtinction draw, integrated from 4 random starts, keeps
        # the prey below 1e-3 over t in [200, 400]
        rng = np.random.default_rng(1616)
        draws = []
        while len(draws) < 40:
            p = random_params(rng, m_mode="zero")
            if persistence_report(analyze(p)).regime == "PreyExtinction":
                draws.append(p)
        per, h, n_steps = 4, 0.02, 20_000
        init = rng.uniform(0.01, 1.2, size=(len(draws) * per, 2))
        cols = [np.repeat([getattr(p, n) for p in draws], per)
                for n in ("a", "b", "k1", "k2", "m")]
        _, (_, max_x, _, _) = integrate_batch(*cols, init, h, n_steps,
                                              tail_start=n_steps // 2)
        assert max_x.max() < 1e-3


class TestGlobalStability:
    @pytest.mark.parametrize("kwargs,holds", [
        (dict(a=1, b=1, k1=0.2, k2=1, m=0.5), True),
        (dict(a=1, b=1, k1=1.0, k2=0.5, m=0.0), True),
        (dict(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025), False),
    ])
    def test_examples(self, kwargs, holds):
        an = analyze(ModelParams(**kwargs))
        assert global_stability_condition(an).holds is holds

    def test_boundary_draws_reach_the_equilibrium(self):
        # 16 holding draws with 2m + k1 - 1 in [0, 0.05], 4 random starts
        # each: every final state at t = 1000 lies within 1e-3 of the one
        # interior equilibrium
        rng = np.random.default_rng(2020)
        draws = []
        while len(draws) < 16:
            p = random_params(rng)
            if (0.0 <= 2.0 * p.m + p.k1 - 1.0 <= 0.05
                    and global_stability_condition(analyze(p)).holds):
                draws.append(p)
        per, h, n_steps = 4, 0.05, 20_000
        init = rng.uniform(0.01, 1.2, size=(len(draws) * per, 2))
        cols = [np.repeat([getattr(p, n) for p in draws], per)
                for n in ("a", "b", "k1", "k2", "m")]
        final, _ = integrate_batch(*cols, init, h, n_steps)
        target = np.repeat([[e.x, e.y] for e in
                            (analyze(p).interior[0] for p in draws)], per,
                           axis=0)
        dist = np.hypot(*(final - target).T)
        assert dist.max() <= 1e-3, draws[int(np.argmax(dist)) // per]

    def test_implies_unique_equilibrium(self, rng):
        hits = 0
        while hits < 1000:
            p = random_params(rng)
            if not global_stability_condition(analyze(p)).holds:
                continue
            hits += 1
            assert count_interior_equilibria(p).n_predicted == 1, p.to_dict()


class TestNoCycle:
    def by_clause(self, p):
        return {c.clause: c for c in no_cycle_conditions(analyze(p))}

    def test_dulac_example(self):
        certs = self.by_clause(ModelParams(a=1, b=0.5, k1=1.6, k2=0.6, m=0.5))
        assert certs["no_cycle_dulac"].holds

    def test_zero_equilibria_example(self):
        certs = self.by_clause(ModelParams(a=1, b=0.1, k1=0.2, k2=0.5, m=0.0))
        assert certs["no_cycle_equilibrium_count"].holds

    def test_b_plus_k1_example(self):
        certs = self.by_clause(ModelParams(a=1, b=0.9, k1=0.2, k2=0.5, m=0.0))
        assert certs["no_cycle_b_plus_k1"].holds

    def test_b_plus_k1_draws_settle(self):
        # no cycle under m = 0 and b + k1 >= 1: the bistable example and 15
        # draws at the clause's boundary, b + k1 in [1, 1.05], 4 random
        # starts each, spread at most 1e-3 over the last 10% of t in [0, 1000]
        rng = np.random.default_rng(1717)
        draws = [ModelParams(**BISTABLE)]
        while len(draws) < 16:
            p = random_params(rng, m_mode="zero")
            if (1.0 <= p.b + p.k1 <= 1.05
                    and self.by_clause(p)["no_cycle_b_plus_k1"].holds):
                draws.append(p)
        per, h, n_steps = 4, 0.05, 20_000
        init = rng.uniform(0.01, 1.2, size=(len(draws) * per, 2))
        cols = [np.repeat([getattr(p, n) for p in draws], per)
                for n in ("a", "b", "k1", "k2", "m")]
        _, (lo_x, hi_x, lo_y, hi_y) = integrate_batch(
            *cols, init, h, n_steps, tail_start=n_steps - n_steps // 10)
        spread = np.maximum(hi_x - lo_x, hi_y - lo_y)
        assert spread.max() <= 1e-3, draws[int(np.argmax(spread)) // per]

    def test_dulac_draws_settle(self):
        # no cycle under the Dulac clause: 16 holding draws with
        # k2 - (1 - m) in (0, 0.05], 4 random starts each, spread at most
        # 1e-3 over the last 10% of t in [0, 1000]
        rng = np.random.default_rng(2121)
        draws = []
        while len(draws) < 16:
            p = random_params(rng, m_mode="positive")
            if (0.0 < p.k2 - (1.0 - p.m) <= 0.05
                    and self.by_clause(p)["no_cycle_dulac"].holds):
                draws.append(p)
        per, h, n_steps = 4, 0.05, 20_000
        init = rng.uniform(0.01, 1.2, size=(len(draws) * per, 2))
        cols = [np.repeat([getattr(p, n) for p in draws], per)
                for n in ("a", "b", "k1", "k2", "m")]
        _, (lo_x, hi_x, lo_y, hi_y) = integrate_batch(
            *cols, init, h, n_steps, tail_start=n_steps - n_steps // 10)
        spread = np.maximum(hi_x - lo_x, hi_y - lo_y)
        assert spread.max() <= 1e-3, draws[int(np.argmax(spread)) // per]

    def test_existence_clause_consistency(self, rng):
        seen = 0
        for _ in range(300):
            p = random_params(rng, m_mode="zero")
            certs = self.by_clause(p)
            cert = certs["cycle_exists_unstable_interior"]
            if cert.holds:
                assert cert.witness["s"] < 0 and cert.witness["p"] > 0
                # existence and exclusion certificates never both fire
                assert not any(certs[c].holds for c in certs
                               if c.startswith("no_cycle"))
                seen += 1
        assert seen > 0

    def test_idempotent(self):
        p = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025)
        assert (no_cycle_conditions(analyze(p))
                == no_cycle_conditions(analyze(p)))


class TestReportConsistency:
    """No verdict of an analysis report contradicts the equilibria it lists."""

    @settings(max_examples=300, deadline=None)
    @given(a=RATE, b=RATE, k1=RATE, k2=RATE, m=REFUGE)
    @example(**BISTABLE)
    @example(**NO_INTERIOR)
    @example(**CYCLE_AROUND_TWO)
    def test_verdicts_agree_with_interior_equilibria(self, a, b, k1, k2, m):
        report = analysis_report(ModelParams(a=a, b=b, k1=k1, k2=k2, m=m))
        n = len(report["interior_equilibria"])
        q = report["qualitative"]
        no_cycle = {c["clause"]: c["holds"] for c in q["no_cycle"]}
        regime, branch = q["persistence"]["regime"], q["persistence"]["branch"]
        if n > 0:
            assert regime != "PreyExtinction"
            assert not no_cycle["no_cycle_equilibrium_count"]
        if regime == "Undetermined":
            assert n > 0
            assert branch in ("strong_predation", "boundary_predation")
        if n != 1:
            assert not q["global_stability"]["holds"]
            assert not no_cycle["no_cycle_global_stability"]

    def test_bistable_example_is_undetermined(self):
        report = analysis_report(ModelParams(**BISTABLE))
        assert report["qualitative"]["persistence"] == {
            "regime": "Undetermined", "branch": "strong_predation",
            "liminf_x_bound": None, "limsup_x_bound": None}
        stable = [e for e in report["interior_equilibria"]
                  if e["taxonomy"] == "StableFocus"]
        assert [round(e["x"], 4) for e in stable] == [0.4436]

    def test_no_interior_example_is_not_globally_stable(self):
        report = analysis_report(ModelParams(**NO_INTERIOR))
        q = report["qualitative"]
        assert report["interior_equilibria"] == []
        assert q["global_stability"]["holds"] is False
        assert q["persistence"]["regime"] == "PreyExtinction"
        # both margins hold: only the missing equilibrium fails it
        assert q["global_stability"]["witness"]["two_m_plus_k1_minus_1"] >= 0
        assert q["global_stability"]["witness"]["discriminant_margin"] >= 0

    def test_cycle_around_two_equilibria(self):
        p = ModelParams(**CYCLE_AROUND_TWO)
        report = analysis_report(p)
        q = report["qualitative"]
        assert [e["taxonomy"] for e in report["interior_equilibria"]] == [
            "Saddle", "UnstableFocus"]
        no_cycle = {c["clause"]: c["holds"] for c in q["no_cycle"]}
        assert not any(holds for clause, holds in no_cycle.items()
                       if clause.startswith("no_cycle"))
        assert q["persistence"]["regime"] == "Undetermined"
        # the stable cycle that refutes the old two-equilibria clause
        traj = integrate(p, (0.5, 0.5), RK4, h=0.01, t_max=2000.0)
        rep = detect_limit_cycle(p, traj, t_burn=1000.0)
        assert rep.found and rep.stable
        assert rep.period == pytest.approx(128.0, abs=0.5)
        assert rep.amplitude_x == pytest.approx(0.2243, abs=1e-3)


class TestStochasticRegime:
    def test_labels(self):
        base = dict(a=1, b=0.1, k1=0.1, k2=0.1)
        cases = [
            (dict(sigma1=1.5, sigma2=0.5, m=0.0), "FullExtinction"),
            (dict(sigma1=1.5, sigma2=0.1, m=0.0),
             "PreyExtinctionPredatorStationary"),
            (dict(sigma1=0.01, sigma2=0.01, m=0.0025), "Stationary"),
            (dict(sigma1=0.0, sigma2=0.0, m=0.0), "Deterministic"),
            (dict(sigma1=0.01, sigma2=0.01, m=0.0), "Undetermined"),
        ]
        for extra, label in cases:
            assert stochastic_regime(ModelParams(**base, **extra)).clause == label

    def test_threshold_flip_in_sigma1(self):
        base = dict(a=1, b=0.1, k1=0.1, k2=0.1, m=0.01, sigma2=0.1)
        below = stochastic_regime(ModelParams(**base, sigma1=1.41))
        above = stochastic_regime(ModelParams(**base, sigma1=1.42))
        assert below.clause == "Stationary"
        assert above.clause == "PreyExtinctionPredatorStationary"

    def test_underflowing_intensities_are_noise(self):
        # sigma^2 underflows to 0, but the noise is on
        p = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                        sigma1=1e-200, sigma2=1e-200)
        assert not p.deterministic
        assert stochastic_regime(p).clause == "Stationary"

    @settings(max_examples=300, deadline=None)
    @given(s1=st.one_of(st.just(0.0), st.floats(1e-150, 3.0)),
           s2=st.one_of(st.just(0.0), st.floats(1e-150, 3.0)),
           b=st.floats(0.01, 3.0), m=st.sampled_from([0.0, 0.01]))
    def test_squares_that_do_not_underflow_keep_their_label(self, s1, s2, b, m):
        # the labels read off the squares alone, which the intensities
        # must agree with whenever no square underflows
        def on_squares(s1sq, s2sq):
            if s1sq == 0.0 and s2sq == 0.0:
                return "Deterministic"
            if s1sq >= 2.0 and s2sq >= 2.0 * b:
                return "FullExtinction"
            if s1sq >= 2.0 and 0.0 < s2sq < 2.0 * b:
                return "PreyExtinctionPredatorStationary"
            if 0.0 < s1sq < 2.0 and 0.0 < s2sq < 2.0 * b and m > 0:
                return "Stationary"
            return "Undetermined"

        p = ModelParams(a=1, b=b, k1=0.1, k2=0.1, m=m, sigma1=s1, sigma2=s2)
        assert stochastic_regime(p).clause == on_squares(s1 ** 2, s2 ** 2)
