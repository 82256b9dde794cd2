import io
import math

import numpy as np
import pytest

from lglab import (
    Inconclusive,
    InvalidParams,
    ModelParams,
    StepTooLarge,
    TooShort,
    detect_limit_cycle,
    find_interior_equilibria,
    integrate,
    invariant_region,
    long_run_bounds,
    persistence_report,
)
from lglab.model import _field_scalar
from lglab.ode_sim import EULER, RK4, integrate_batch, write_csv

from conftest import random_params

STOCH_FIG = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025)


def euler_oracle(p, init, h, n):
    """Straight transcription of the explicit recursion (test-side oracle)."""
    x, y = init
    out = [(x, y)]
    for _ in range(n):
        u = max(0.0, x - p.m)
        x, y = (x + (x * (1 - x) - p.a * y * u / (p.k1 + u)) * h,
                y + p.b * y * (1 - y / (p.k2 + u)) * h)
        out.append((x, y))
    return np.array(out)


class TestIntegrate:
    def test_fixed_point_is_constant(self):
        for scheme in (EULER, RK4):
            traj = integrate(STOCH_FIG, (1.0, 0.0), scheme, h=0.01, t_max=5.0)
            assert (traj.states == (1.0, 0.0)).all()

    def test_predator_only_logistic_limit(self):
        p = ModelParams(a=1, b=0.5, k1=0.1, k2=1.0)
        traj = integrate(p, (0.0, 0.1), RK4, h=1e-3, t_max=100.0)
        assert (traj.x == 0.0).all()
        assert traj.y[-1] == pytest.approx(1.0, abs=1e-3)

    def test_converges_to_equilibrium(self):
        (e,) = find_interior_equilibria(STOCH_FIG)
        traj = integrate(STOCH_FIG, (0.55, 0.6), RK4, h=1e-3, t_max=500.0)
        assert abs(traj.x[-1] - e.x) < 1e-3
        assert abs(traj.y[-1] - e.y) < 1e-3

    def test_euler_matches_oracle_bitwise(self, rng):
        for _ in range(5):
            p = random_params(rng)
            init = (float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
            traj = integrate(p, init, EULER, h=0.01, t_max=10.0)
            assert np.array_equal(traj.states, euler_oracle(p, init, 0.01, 1000))

    @pytest.mark.parametrize("t_max, match", [
        (-1.0, "horizon must be >= 0"),
        (math.nan, "horizon must be >= 0"),
        (math.inf, "horizon must be finite"),
    ])
    def test_bad_horizon_rejected(self, t_max, match):
        with pytest.raises(ValueError, match=match):
            integrate(STOCH_FIG, (0.5, 0.5), RK4, h=0.01, t_max=t_max)

    def test_horizon_rounds_like_the_sde_integrators(self):
        # round(t_max / h) steps: below h/2 only the initial state
        for t_max, n in ((0.0, 0), (0.004, 0), (0.006, 1)):
            traj = integrate(STOCH_FIG, (0.5, 0.5), RK4, h=0.01, t_max=t_max)
            assert traj.states.shape == (n + 1, 2)
            assert tuple(traj.states[0]) == (0.5, 0.5)

    def test_step_too_large(self):
        p = ModelParams(a=5, b=5, k1=0.05, k2=0.05)
        with pytest.raises(StepTooLarge) as exc:
            integrate(p, (0.9, 1.5), EULER, h=5.0, t_max=50.0)
        assert exc.value.step_index >= 1

    def test_batch_step_too_large(self):
        # scalar RK4 leaves the quadrant at step 1; the batch run must also
        # refuse rather than return its blown-up, negative final state
        p = ModelParams(a=5, b=3, k1=0.05, k2=0.1)
        with pytest.raises(StepTooLarge):
            integrate(p, (0.5, 0.5), RK4, h=0.5, t_max=1.5)
        init = np.array([[0.5, 0.5], [0.4, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepTooLarge, match="system 0"):
                integrate_batch(p.a, p.b, p.k1, p.k2, p.m, init, 0.5, 3)
            # a NaN after the dip must not hide it
            with pytest.raises(StepTooLarge):
                integrate_batch(p.a, p.b, p.k1, p.k2, p.m, init, 0.5, 50)

    def test_rk4_self_convergence_order(self):
        p = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025)
        ref = integrate(p, (0.8, 0.9), RK4, h=0.0025, t_max=10.0).states[-1]
        e1 = np.linalg.norm(integrate(p, (0.8, 0.9), RK4, h=0.02, t_max=10.0).states[-1] - ref)
        e2 = np.linalg.norm(integrate(p, (0.8, 0.9), RK4, h=0.01, t_max=10.0).states[-1] - ref)
        assert 8.0 < e1 / e2 < 32.0

    def test_batch_matches_scalar(self, rng):
        p = random_params(rng, m_mode="positive")
        init = np.array([[0.4, 0.5], [0.9, 0.3]])
        final, _ = integrate_batch(p.a, p.b, p.k1, p.k2, p.m, init, 1e-2, 500)
        for i in range(2):
            traj = integrate(p, tuple(init[i]), RK4, h=1e-2, t_max=5.0)
            assert np.allclose(final[i], traj.states[-1], rtol=0, atol=1e-13)


class TestBatchValidation:
    # each input is refused once, before any step, with the error and the
    # message of the scalar entry points
    P = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025)
    INIT = np.array([[0.4, 0.5], [0.9, 0.3]])

    def run(self, init=INIT, h=1e-2, n_steps=10, tail_start=0, **params):
        kw = dict(self.P.to_dict(), **params)
        return integrate_batch(kw["a"], kw["b"], kw["k1"], kw["k2"], kw["m"],
                               init, h, n_steps, tail_start=tail_start)

    def test_tail_start_beyond_run(self):
        with pytest.raises(ValueError, match="tail_start"):
            self.run(n_steps=10, tail_start=11)

    @pytest.mark.parametrize("h", [0.0, -0.01])
    def test_h_not_positive(self, h):
        with pytest.raises(ValueError, match="need h > 0"):
            self.run(h=h)

    def test_negative_initial_state(self):
        with pytest.raises(ValueError, match="closed quadrant"):
            self.run(init=np.array([[0.4, 0.5], [-0.1, 0.3]]))

    @pytest.mark.parametrize("params, message", [
        (dict(a=np.array([0.5, -1.0])), "a must be strictly positive"),
        (dict(k2=0.0), "k2 must be strictly positive"),
        (dict(m=1.5), "m must satisfy 0 <= m < 1"),
        (dict(m=np.array([0.0, -0.1])), "m must satisfy 0 <= m < 1"),
        (dict(a=np.array([0.5, math.inf])), "a must be strictly positive"),
        (dict(k1=math.inf), "k1 must be strictly positive"),
    ])
    def test_params_checked_as_model_params(self, params, message):
        with pytest.raises(InvalidParams, match=message):
            self.run(**params)

    @pytest.mark.parametrize("h, state, match", [
        (math.nan, (0.9, 0.3), "need h > 0"),
        (math.inf, (0.9, 0.3), "h must be finite"),
        (1e-2, (math.nan, 0.3), "closed quadrant"),
        (1e-2, (0.9, math.nan), "closed quadrant"),
        (1e-2, (math.inf, 0.3), "initial state must be finite"),
        (1e-2, (0.9, math.inf), "initial state must be finite"),
    ])
    def test_same_rule_as_integrate(self, h, state, match):
        with pytest.raises(ValueError, match=match):
            integrate(self.P, state, RK4, h=h, t_max=1.0)
        with pytest.raises(ValueError, match=match):
            self.run(init=np.array([[0.4, 0.5], state]), h=h)


class TestCycle:
    def test_stable_cycle_single_equilibrium(self):
        p = ModelParams(a=1, b=0.05, k1=0.1, k2=0.1, m=0.01)
        rep = detect_limit_cycle(
            p, integrate(p, (0.5, 0.3), RK4, h=0.01, t_max=2000), t_burn=1000)
        assert rep.found and rep.stable
        assert rep.period > 0 and rep.amplitude_x > 0.1

    def test_no_cycle_when_converging(self):
        p = ModelParams(a=1, b=0.5, k1=1.6, k2=0.6, m=0.5)
        try:
            rep = detect_limit_cycle(
                p, integrate(p, (0.7, 0.8), RK4, h=0.01, t_max=400),
                t_burn=100)
            assert not rep.found
        except Inconclusive:
            pass  # no returns at all: equally a no-cycle verdict

    def test_damped_spiral_rejected(self):
        # stable focus: many section returns but vanishing amplitude
        (e,) = find_interior_equilibria(STOCH_FIG)
        try:
            rep = detect_limit_cycle(
                STOCH_FIG, integrate(STOCH_FIG, (e.x + 1e-4, e.y + 1e-4), RK4,
                                     h=0.01, t_max=2000),
                t_burn=100)
            assert not rep.found
        except Inconclusive:
            pass  # spiralled in before five section returns


class TestBounds:
    def test_constant_trajectory(self):
        traj = integrate(STOCH_FIG, (1.0, 0.0), RK4, h=0.01, t_max=100.0)
        b = long_run_bounds(traj, tail_fraction=0.2)
        assert (b.liminf_x, b.limsup_x, b.liminf_y, b.limsup_y) == (1, 1, 0, 0)

    def test_too_short(self):
        traj = integrate(STOCH_FIG, (0.5, 0.5), RK4, h=0.01, t_max=10.0)
        with pytest.raises(TooShort):
            long_run_bounds(traj, tail_fraction=0.1)

    def test_tail_inside_attracting_region(self):
        r = invariant_region(STOCH_FIG)
        traj = integrate(STOCH_FIG, (0.55, 0.6), RK4, h=1e-2, t_max=500.0)
        b = long_run_bounds(traj, tail_fraction=0.2)
        assert b.liminf_x >= r.x_lo - 1e-3 and b.limsup_x <= r.x_hi + 1e-3
        assert b.liminf_y >= r.y_lo - 1e-3 and b.limsup_y <= r.y_hi + 1e-3

    def test_weak_predation_lower_bound(self):
        p = ModelParams(a=0.5, b=0.1, k1=1.0, k2=0.2)
        bound = persistence_report(p).liminf_x_bound
        traj = integrate(p, (0.3, 0.4), RK4, h=1e-2, t_max=500.0)
        b = long_run_bounds(traj, tail_fraction=0.2)
        assert b.liminf_x >= bound - 1e-3


def test_csv_roundtrip():
    traj = integrate(STOCH_FIG, (0.55, 0.6), RK4, h=0.01, t_max=1.0)
    buf = io.StringIO()
    write_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x,y"
    assert len(lines) == len(traj.times) + 1
    t, x, y = (float(v) for v in lines[-1].split(","))
    assert (x, y) == (traj.x[-1], traj.y[-1])  # 17 digits round-trip exactly
