import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import (
    Inconclusive,
    InvalidParams,
    ModelParams,
    NonFinite,
    StepTooLarge,
    TooShort,
    analyze,
    detect_limit_cycle,
    find_interior_equilibria,
    integrate,
    invariant_region,
    long_run_bounds,
    persistence_report,
)
from lglab import ode_sim
from lglab.model import _field_scalar
from lglab.ode_sim import EULER, RK4, integrate_batch, write_csv

from conftest import random_params, traced_peak

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

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme 'midpoint'"):
            integrate(STOCH_FIG, (0.5, 0.5), "midpoint", h=0.01, t_max=1.0)

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

    @pytest.mark.parametrize("chunk", [ode_sim._CHUNK, 7, 1])
    def test_chunks_do_not_change_the_bits(self, monkeypatch, rng, chunk):
        p = random_params(rng)
        want = {scheme: integrate(p, (0.55, 0.6), scheme, h=0.01,
                                  t_max=20.0).states
                for scheme in (EULER, RK4)}
        monkeypatch.setattr(ode_sim, "_CHUNK", chunk)
        for scheme in (EULER, RK4):
            got = integrate(p, (0.55, 0.6), scheme, h=0.01, t_max=20.0)
            assert got.states.tobytes() == want[scheme].tobytes()
        assert np.array_equal(want[EULER],
                              euler_oracle(p, (0.55, 0.6), 0.01, 2000))

    def test_memory_bounded_by_the_output(self):
        # whole Python lists of the states peaked at 9.2 MB over these
        # 100,000 steps, for 2.4 MB of states and times (18.4 MB for 4.8 MB
        # at 200,000 RK4 steps), and np.arange(n + 1) * h added its int64
        # temporary, 0.8 MB; Euler keeps the traced run short
        traced_peak(integrate, STOCH_FIG, (0.55, 0.6), EULER, h=0.01,
                    t_max=0.1)  # one-off allocations
        peak, traj = traced_peak(integrate, STOCH_FIG, (0.55, 0.6), EULER,
                                 h=0.01, t_max=1000.0)
        assert peak - (traj.states.nbytes + traj.times.nbytes) < 2 ** 18

    @pytest.mark.parametrize("scheme", ["rk4", "euler"])
    def test_cli_detect_cycle_memory_per_step(self, tmp_path, scheme):
        # `ode --detect-cycle` holds one trajectory, 24 B a step, and the
        # detection's work arrays over the tail after the burn-in (half the
        # run here), about 20 B a tail step.  Over these 100,000 steps it
        # peaked at 43.2 (rk4) and 56.9 (euler) B a step while the
        # detection read the whole trajectory and euler kept its own
        # trajectory through the RK4 pass
        from lglab.cli import main
        argv = ["ode", "--a", "0.4", "--b", "0.1", "--k1", "0.08",
                "--k2", "0.2", "--m", "0.0025", "--h", "0.01",
                "--scheme", scheme, "--detect-cycle",
                "--out", str(tmp_path / "ode.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--t-max", "1"]) == 0  # one-off allocations
            peak, rc = traced_peak(main, [*argv, "--t-max", "1000"])
        assert rc == 0
        assert peak < 38 * 100_000

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

    def test_batch_rows_equal_integrate(self, rng):
        # random rows, the round-off-undershoot start of the scalar oracle
        # (clamped to 0.0 at step 1) and a -0.0 that integrate keeps
        rows = [random_params(rng) for _ in range(6)]
        rows += [ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2),
                 ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.1)]
        init = np.array([*rng.uniform(0.0, 1.0, (6, 2)),
                         [4.205609662906266, 0.3], [-0.0, 0.3]])
        a, b, k1, k2, m = (np.array([getattr(p, n) for p in rows])
                           for n in ("a", "b", "k1", "k2", "m"))
        final, bounds = integrate_batch(a, b, k1, k2, m, init, 0.5, 10,
                                        tail_start=4)
        for i, p in enumerate(rows):
            traj = integrate(p, tuple(init[i]), RK4, h=0.5, t_max=5.0)
            tail = traj.states[4:]
            ref = [traj.states[-1], tail[:, 0].min(), tail[:, 0].max(),
                   tail[:, 1].min(), tail[:, 1].max()]
            got = [final[i], *(v[i] for v in bounds)]
            assert [np.asarray(v).tobytes() for v in got] == [
                np.asarray(v).tobytes() for v in ref], i

    @pytest.mark.parametrize("p, state, h, error, k", [
        (ModelParams(a=5, b=3, k1=0.05, k2=0.1), (0.5, 0.5), 0.5,
         StepTooLarge, 1),
        (ModelParams(a=6.4, b=0.8, k1=2.3, k2=7.4), (1.68, 1.49), 0.2,
         StepTooLarge, 10),
        (STOCH_FIG, (1e200, 0.5), 1.0, NonFinite, 1),
    ])
    def test_batch_stops_where_integrate_does(self, p, state, h, error, k):
        with pytest.raises(error, match=f"at step {k}$"):
            integrate(p, state, RK4, h=h, t_max=1000 * h)
        init = np.array([[0.0, 0.0], state])  # the origin is a fixed point
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error, match=f"at step {k} in system 1") as got:
                integrate_batch(p.a, p.b, p.k1, p.k2, p.m, init, h, 1000)
        if error is StepTooLarge:
            assert got.value.step_index == k

    @given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(2, 9),
           n_steps=st.integers(0, 40), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_batch_rows_are_independent(self, seed, n_rows, n_steps, data):
        # a row's result depends on its own parameters and start only:
        # permuting the rows permutes the results, and two halves run apart
        # concatenate to the whole, bit for bit
        rng = np.random.default_rng(seed)
        rows = [random_params(rng) for _ in range(n_rows)]
        cols = [np.array([getattr(p, n) for p in rows])
                for n in ("a", "b", "k1", "k2", "m")]
        init = rng.uniform(0.0, 1.2, (n_rows, 2))
        tail_start = data.draw(st.integers(0, n_steps))

        def run(idx):
            final, bounds = integrate_batch(*(c[idx] for c in cols),
                                            init[idx], 1e-2, n_steps,
                                            tail_start=tail_start)
            return [final, *bounds]

        whole = run(np.arange(n_rows))
        perm = rng.permutation(n_rows)
        assert [v.tobytes() for v in run(perm)] == [
            v[perm].tobytes() for v in whole]
        cut = data.draw(st.integers(1, n_rows - 1))
        halves = zip(run(np.arange(cut)), run(np.arange(cut, n_rows)))
        assert [np.concatenate(pair).tobytes() for pair in halves] == [
            v.tobytes() for v in whole]


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

    @pytest.mark.parametrize("init", [
        np.empty((0, 2)), np.array([0.4, 0.5]), np.array([[0.4, 0.5, 0.3]]),
        np.zeros((1, 2, 2)),
    ], ids=["empty", "1-d", "three-columns", "3-d"])
    @pytest.mark.parametrize("n_steps", [0, 10])
    def test_init_not_n_by_2(self, init, n_steps):
        with pytest.raises(ValueError, match=r"init must be an \(n, 2\)"):
            self.run(init=init, n_steps=n_steps)

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

    @pytest.mark.parametrize("params, name", [
        (dict(a=np.array([0.5, 0.6, 0.7])), "a"),
        (dict(k2=np.array([[0.2], [0.3]])), "k2"),
        (dict(m=np.zeros((1, 2))), "m"),
    ])
    @pytest.mark.parametrize("n_steps", [0, 10])
    def test_param_not_one_per_system(self, params, name, n_steps):
        with pytest.raises(ValueError, match=rf"^{name} must be a scalar or "
                           r"hold one value per system, shape \(2,\)$"):
            self.run(n_steps=n_steps, **params)

    def test_param_of_length_one_broadcasts(self):
        final, _ = self.run(a=np.array([0.5]))
        assert final.tobytes() == self.run()[0].tobytes()

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


def _freeze_step(states):
    """The first step from which every step of a trajectory returns the
    state it started from, bit for bit, or None if the last one does not."""
    same = (states[1:].view(np.int64) == states[:-1].view(np.int64)).all(
        axis=1)
    if not same[-1]:
        return None
    return len(same) - int(np.argmin(same[::-1])) + 1 if not same.all() else 1


class TestRetirement:
    # integrate_batch retires a system whose step returned its own state at
    # a check every 1024 steps; results must not change
    EVERY = 1024

    def test_retired_rows_equal_integrate(self):
        # h 0.1 makes most rows freeze within the run, at scattered steps
        rng = np.random.default_rng(10)
        rows = [random_params(rng) for _ in range(16)]
        init = rng.uniform(0.05, 1.2, (16, 2))
        h, n_steps = 0.1, 3500
        trajs = [integrate(p, tuple(s), RK4, h=h, t_max=n_steps * h).states
                 for p, s in zip(rows, init)]
        freeze = [_freeze_step(t) for t in trajs]
        # rows freeze before the first check, between checks, after the
        # last one (3072), and not at all
        checks = [f and -(-f // self.EVERY) for f in freeze]
        assert {1, 2, 3, 4, None} <= set(checks)
        cols = [np.array([getattr(p, n) for p in rows])
                for n in ("a", "b", "k1", "k2", "m")]
        for tail_start in (0, 1500, 3300):
            final, bounds = integrate_batch(*cols, init, h, n_steps,
                                            tail_start=tail_start)
            for i, traj in enumerate(trajs):
                tail = traj[tail_start:]
                ref = [traj[-1], tail[:, 0].min(), tail[:, 0].max(),
                       tail[:, 1].min(), tail[:, 1].max()]
                got = [final[i], *(v[i] for v in bounds)]
                assert [np.asarray(v).tobytes() for v in got] == [
                    np.asarray(v).tobytes() for v in ref], (tail_start, i)

    def test_retired_rows_are_not_evaluated(self, monkeypatch):
        # the origin is a fixed point from step 1, retired at the first
        # check; the other row is still moving at step 2100
        widths = []

        def spy(*args, **kw):
            widths.append(np.shape(args[5]))
            return field(*args, **kw)

        field = ode_sim._field_batch
        monkeypatch.setattr(ode_sim, "_field_batch", spy)
        init = np.array([[0.0, 0.0], [0.9, 0.3]])
        p = STOCH_FIG
        final, _ = integrate_batch(p.a, p.b, p.k1, p.k2, p.m, init, 0.01, 2100)
        cut = 4 * self.EVERY  # four evaluations per RK4 step
        assert widths == [(2,)] * cut + [(1,)] * (4 * 2100 - cut)
        traj = integrate(p, (0.9, 0.3), RK4, h=0.01, t_max=21.0)
        assert final.tobytes() == np.array([[0.0, 0.0],
                                            traj.states[-1]]).tobytes()

    def test_error_after_retirement_names_the_original_system(self):
        # found by a scalar scan: integrate leaves the quadrant at step
        # 1548, after the origin's row is retired at step 1024
        p = ModelParams(a=0.4487268741030223, b=0.9453387114860401,
                        k1=0.056895665921279176, k2=1.1174880258645683,
                        m=0.12085130773692304)
        state, h = (0.6013243997329993, 0.4620585163457589), 2.0
        with pytest.raises(StepTooLarge, match="at step 1548$"):
            integrate(p, state, RK4, h=h, t_max=3000 * h)
        init = np.array([[0.0, 0.0], state])
        with pytest.raises(StepTooLarge,
                           match="at step 1548 in system 1$") as got:
            integrate_batch(p.a, p.b, p.k1, p.k2, p.m, init, h, 3000)
        assert got.value.step_index == 1548


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


    @pytest.mark.parametrize("t_burn", [math.nan, -5.0])
    def test_bad_burn_in_rejected(self, t_burn):
        traj = integrate(STOCH_FIG, (0.5, 0.3), RK4, h=0.01, t_max=10)
        with pytest.raises(ValueError, match="burn_in must be >= 0"):
            detect_limit_cycle(STOCH_FIG, traj, t_burn=t_burn)


class TestBounds:
    def test_constant_trajectory(self):
        traj = integrate(STOCH_FIG, (1.0, 0.0), RK4, h=0.01, t_max=100.0)
        b = long_run_bounds(traj, tail_fraction=0.2)
        assert (b.liminf_x, b.limsup_x, b.liminf_y, b.limsup_y) == (1, 1, 0, 0)

    def test_too_short(self):
        traj = integrate(STOCH_FIG, (0.5, 0.5), RK4, h=0.01, t_max=10.0)
        with pytest.raises(TooShort):
            long_run_bounds(traj, tail_fraction=0.1)

    @pytest.mark.parametrize("tail_fraction", [2.0, 0.0, -1.0, math.nan])
    def test_tail_fraction_outside_unit_interval(self, tail_fraction):
        traj = integrate(STOCH_FIG, (1.0, 0.0), RK4, h=0.01, t_max=100.0)
        with pytest.raises(ValueError, match=r"tail_fraction must lie in \(0, 1\]"):
            long_run_bounds(traj, tail_fraction=tail_fraction)
        # the closed end bounds the whole trajectory
        assert long_run_bounds(traj, tail_fraction=1.0).limsup_x == 1.0

    def test_tail_inside_attracting_region(self):
        r = invariant_region(STOCH_FIG)
        traj = integrate(STOCH_FIG, (0.55, 0.6), RK4, h=1e-2, t_max=500.0)
        b = long_run_bounds(traj, tail_fraction=0.2)
        assert b.liminf_x >= r.x_lo - 1e-3 and b.limsup_x <= r.x_hi + 1e-3
        assert b.liminf_y >= r.y_lo - 1e-3 and b.limsup_y <= r.y_hi + 1e-3

    def test_weak_predation_lower_bound(self):
        p = ModelParams(a=0.5, b=0.1, k1=1.0, k2=0.2)
        bound = persistence_report(analyze(p)).liminf_x_bound
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


def percent_rows(fileobj, header, columns):
    """The `%` writer that _write_rows replaced; its bytes are the
    reference: '%.17g' % value is Python's correctly rounded repr."""
    fileobj.write(header + "\n")
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), 4096):
        block = np.column_stack([c[lo:lo + 4096] for c in columns])
        fileobj.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def assert_percent_bytes(values, ncols_options=(3, 7)):
    """_write_rows writes values, laid row by row into 3 and into 7
    columns (cycled to fill the last row), as percent_rows does."""
    values = np.asarray(values, dtype=float)
    for ncols in ncols_options:
        rows = np.resize(values, -(-len(values) // ncols) * ncols)
        columns = list(rows.reshape(-1, ncols).T)
        got, want = io.StringIO(), io.StringIO()
        ode_sim._write_rows(got, "h", columns)
        percent_rows(want, "h", columns)
        assert got.getvalue() == want.getvalue()


def powers_of_ten():
    """Each power of ten from 1e-320 to 1e308 and its two neighbours."""
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    return np.concatenate([np.nextafter(tens, -np.inf), tens,
                           np.nextafter(tens, np.inf)])


def exact_ties(rng, n):
    """n + m * 2**-10 for 8-digit n and odd m: 18 significant digits that
    end in 5, so the 17th rounds half to even, up and down."""
    whole = rng.integers(10 ** 7, 10 ** 8, n).astype(float)
    odd = 2 * rng.integers(0, 512, n) + 1
    return np.concatenate([[12345678 + 2 ** -10], whole + odd * 2.0 ** -10])


class TestCsvFormatter:
    def test_random_bit_patterns(self):
        # both signs, subnormals, +-inf and NaN among them
        bits = np.random.default_rng(28).integers(0, 2 ** 64, 200_000,
                                                  dtype=np.uint64)
        assert_percent_bytes(bits.view(float))

    def test_special_values(self):
        assert_percent_bytes([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                              5e-324, -5e-324, 2.2250738585072014e-308,
                              1.7976931348623157e308, 1e-280, 1e280])

    def test_powers_of_ten_and_neighbours(self):
        v = powers_of_ten()
        assert_percent_bytes(np.concatenate([v, -v]))

    def test_dyadics(self):
        k = np.arange(-1074, 1021)
        v = np.concatenate([np.ldexp(float(m), k) for m in (1, 3, 5, 7)])
        assert_percent_bytes(np.concatenate([v, -v]))

    @pytest.mark.parametrize("h", [1e-3, 0.005, 0.01, 0.2])
    def test_grid_times(self, h):
        assert_percent_bytes(np.arange(100_001) * h)

    def test_exact_ties(self):
        v = exact_ties(np.random.default_rng(5), 20_000)
        assert_percent_bytes(np.concatenate([v, -v, v * 1e-12, v * 1e12]))

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_floats(self, values):
        assert_percent_bytes(values)

    @pytest.mark.parametrize("rows", [1, ode_sim._CSV_BLOCK - 1,
                                      ode_sim._CSV_BLOCK,
                                      ode_sim._CSV_BLOCK + 1])
    def test_block_edges(self, rows):
        v = np.random.default_rng(rows).uniform(-2.0, 2.0, 7 * rows)
        for ncols in (3, 7):
            assert_percent_bytes(v[:ncols * rows], ncols_options=(ncols,))

    def test_fallback_takes_what_the_digits_cannot_answer(self):
        # an exact tie, a near one (its 17-digit fraction is 1/2 + 4.5e-8),
        # non-finite values and values outside [1e-280, 1e280) go to '%'
        # itself; whole multiples of ten are sent there later, by
        # _format_block, when their zeros reach into the integer part
        v = np.array([12345678 + 2 ** -10, 0.9066470775441711, np.nan,
                      np.inf, -np.inf, 1e-300, 1e300, 5e-324,
                      0.0, -0.0, 0.1, 1.25, -3.5e-7, 100.0])
        fast = ode_sim._digits(v)[2]
        assert fast.tolist() == [False] * 8 + [True] * 6
        assert_percent_bytes(v)
