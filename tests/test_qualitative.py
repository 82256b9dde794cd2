import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import (
    ModelParams,
    Region,
    count_interior_equilibria,
    global_stability_condition,
    invariant_region,
    no_cycle_conditions,
    persistence_report,
    stochastic_regime,
)

from conftest import random_params

COORD = st.floats(-0.5, 2.5, allow_nan=False)


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
        rep = persistence_report(ModelParams(a=0.5, b=0.1, k1=1.0, k2=0.2))
        assert rep.regime == "UniformlyPersistent"
        assert rep.liminf_x_bound == pytest.approx(0.4)

    def test_strong_predation_extinction(self):
        rep = persistence_report(ModelParams(a=1.0, b=0.1, k1=0.2, k2=0.5))
        assert rep.regime == "PreyExtinction"

    def test_refuge_always_persists(self):
        rep = persistence_report(ModelParams(a=5, b=2, k1=0.01, k2=3, m=0.3))
        assert rep.regime == "UniformlyPersistent"
        assert rep.branch == "refuge"

    def test_intermediate_branch_bound(self):
        p = ModelParams(a=0.5, b=0.1, k1=0.2, k2=0.2)  # a*k2 < k1 <= a*L
        rep = persistence_report(p)
        assert rep.regime == "WeaklyPersistent"
        assert rep.limsup_x_bound is not None and rep.limsup_x_bound > 0

    def test_exactly_one_branch(self, rng):
        for _ in range(300):
            p = random_params(rng)
            rep = persistence_report(p)
            assert rep.regime in ("UniformlyPersistent", "WeaklyPersistent",
                                  "PreyExtinction")
            assert rep.branch in ("refuge", "weak_predation",
                                  "intermediate_predation",
                                  "boundary_predation", "strong_predation")


class TestGlobalStability:
    @pytest.mark.parametrize("kwargs,holds", [
        (dict(a=1, b=1, k1=0.2, k2=1, m=0.5), True),
        (dict(a=1, b=1, k1=1.0, k2=0.5, m=0.0), True),
        (dict(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025), False),
    ])
    def test_examples(self, kwargs, holds):
        assert global_stability_condition(ModelParams(**kwargs)).holds is holds

    def test_implies_unique_equilibrium(self, rng):
        hits = 0
        while hits < 1000:
            p = random_params(rng)
            if not global_stability_condition(p).holds:
                continue
            hits += 1
            assert count_interior_equilibria(p).n_predicted <= 1, p.to_dict()


class TestNoCycle:
    def by_clause(self, p):
        return {c.clause: c for c in no_cycle_conditions(p)}

    def test_dulac_example(self):
        certs = self.by_clause(ModelParams(a=1, b=0.5, k1=1.6, k2=0.6, m=0.5))
        assert certs["no_cycle_dulac"].holds

    def test_zero_equilibria_example(self):
        certs = self.by_clause(ModelParams(a=1, b=0.1, k1=0.2, k2=0.5, m=0.0))
        assert certs["no_cycle_equilibrium_count"].holds

    def test_b_plus_k1_example(self):
        certs = self.by_clause(ModelParams(a=1, b=0.9, k1=0.2, k2=0.5, m=0.0))
        assert certs["no_cycle_b_plus_k1"].holds

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
        assert no_cycle_conditions(p) == no_cycle_conditions(p)


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
