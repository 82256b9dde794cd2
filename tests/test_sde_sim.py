import io
import math
from dataclasses import replace

import numpy as np
import pytest

from lglab import (
    ModelParams,
    PositivityViolation,
    Region,
    comparison_bundle,
    ensemble,
    explicit_upper_prey,
    hitting_time,
    make_noise,
    simulate_path,
    stationary_histogram,
)
from lglab import sde_sim
from lglab.sde_sim import LOG_EULER, MILSTEIN, NoisePath, write_path_csv

STOCH = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                    sigma1=0.1, sigma2=0.1)


class TestNoise:
    def test_deterministic_and_independent(self):
        n1 = make_noise(7, 0.01, 1000)
        n2 = make_noise(7, 0.01, 1000)
        assert np.array_equal(n1.xi1, n2.xi1) and np.array_equal(n1.xi2, n2.xi2)
        # the two component streams must not be correlated copies
        assert abs(np.corrcoef(n1.xi1, n1.xi2)[0, 1]) < 0.1
        n3 = make_noise(8, 0.01, 1000)
        assert not np.array_equal(n1.xi1, n3.xi1)

    def test_standard_normal_moments(self):
        n = make_noise(3, 0.01, 200_000)
        for xi in (n.xi1, n.xi2):
            assert abs(xi.mean()) < 0.01
            assert abs(xi.std() - 1.0) < 0.01

    @pytest.mark.parametrize("h", [0.0, -0.01, math.nan])
    def test_bad_h_rejected(self, h):
        # the scalar entry points refuse h <= 0 as ensemble and hitting_time do
        with pytest.raises(ValueError, match="need h > 0"):
            make_noise(0, h, 10)
        noise = NoisePath(seed=0, h=h, xi1=np.zeros(10), xi2=np.zeros(10))
        with pytest.raises(ValueError, match="need h > 0"):
            simulate_path(STOCH, (0.55, 0.6), LOG_EULER, noise)
        with pytest.raises(ValueError, match="need h > 0"):
            comparison_bundle(STOCH, (0.55, 0.6), noise)
        with pytest.raises(ValueError, match="need h > 0"):
            explicit_upper_prey(0.1, 0.5, noise)
        with pytest.raises(ValueError, match="need h > 0"):
            stationary_histogram(STOCH, LOG_EULER, 0, 0.0, 1.0, h=h)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            make_noise(0, 0.01, -100)

    def test_infinite_h_rejected(self):
        # h = inf passes h > 0, so it has its own rule and message
        with pytest.raises(ValueError, match="h must be finite"):
            make_noise(0, math.inf, 10)
        noise = NoisePath(seed=0, h=math.inf, xi1=np.zeros(10),
                          xi2=np.zeros(10))
        with pytest.raises(ValueError, match="h must be finite"):
            simulate_path(STOCH, (0.55, 0.6), LOG_EULER, noise)
        with pytest.raises(ValueError, match="h must be finite"):
            comparison_bundle(STOCH, (0.55, 0.6), noise)
        with pytest.raises(ValueError, match="h must be finite"):
            explicit_upper_prey(0.1, 0.5, noise)
        with pytest.raises(ValueError, match="h must be finite"):
            stationary_histogram(STOCH, LOG_EULER, 0, 0.0, 1.0, h=math.inf)


class TestHorizon:
    # every consumer of a NoisePath reads its horizon by one rule
    NOISE = make_noise(0, 0.01, 100)

    def test_upper_prey_negative_horizon(self):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            explicit_upper_prey(0.1, 0.5, self.NOISE, t_max=-1.0)

    def test_upper_prey_beyond_noise(self):
        with pytest.raises(ValueError, match="noise path shorter"):
            explicit_upper_prey(0.1, 0.5, self.NOISE, t_max=2.0)

    def test_path_negative_horizon(self):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            simulate_path(STOCH, (0.55, 0.6), LOG_EULER, self.NOISE,
                          t_max=-1.0)

    def test_comparison_beyond_noise(self):
        with pytest.raises(ValueError, match="noise path shorter"):
            comparison_bundle(STOCH, (0.55, 0.6), self.NOISE, t_max=2.0)

    def test_infinite_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon must be finite"):
            simulate_path(STOCH, (0.55, 0.6), LOG_EULER, self.NOISE,
                          t_max=math.inf)
        with pytest.raises(ValueError, match="horizon must be finite"):
            explicit_upper_prey(0.1, 0.5, self.NOISE, t_max=math.inf)
        with pytest.raises(ValueError, match="horizon must be finite"):
            stationary_histogram(STOCH, LOG_EULER, 0, 0.0, math.inf)


class TestPath:
    def test_bit_determinism(self):
        noise = make_noise(42, 0.01, 2000)
        for scheme in (MILSTEIN, LOG_EULER):
            a = simulate_path(STOCH, (0.55, 0.6), scheme, noise)
            b = simulate_path(STOCH, (0.55, 0.6), scheme, noise)
            assert np.array_equal(a.states, b.states)

    def test_zero_noise_milstein_equals_euler(self):
        from lglab.ode_sim import EULER, integrate
        p = replace(STOCH, sigma1=0.0, sigma2=0.0)
        noise = make_noise(1, 0.01, 500)
        sp = simulate_path(p, (0.55, 0.6), MILSTEIN, noise)
        tr = integrate(p, (0.55, 0.6), EULER, h=0.01, t_max=5.0)
        assert np.array_equal(sp.states, tr.states)

    def test_zero_axis_stays_zero(self):
        noise = make_noise(5, 0.01, 1000)
        sp = simulate_path(STOCH, (0.0, 0.6), LOG_EULER, noise)
        assert (sp.x == 0.0).all()
        sp = simulate_path(STOCH, (0.55, 0.0), LOG_EULER, noise)
        assert (sp.y == 0.0).all()

    def test_log_euler_positivity(self):
        p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                        sigma1=0.3, sigma2=0.2)
        for seed in range(20):
            noise = make_noise(seed, 0.01, 2000)
            sp = simulate_path(p, (0.55, 0.6), LOG_EULER, noise)
            assert (sp.states > 0).all()

    @pytest.mark.parametrize("init, match", [
        ((math.nan, 0.6), "closed quadrant"),
        ((0.55, math.nan), "closed quadrant"),
        ((math.inf, 0.6), "initial state must be finite"),
        ((0.55, math.inf), "initial state must be finite"),
    ])
    def test_non_finite_start_rejected(self, init, match):
        noise = make_noise(0, 0.01, 10)
        for scheme in (LOG_EULER, MILSTEIN):
            with pytest.raises(ValueError, match=match):
                simulate_path(STOCH, init, scheme, noise)
        with pytest.raises(ValueError, match=match):
            stationary_histogram(STOCH, LOG_EULER, 0, 0.0, 1.0, init=init)

    def test_milstein_positivity_violation(self):
        # predator starts far above its carrying capacity; with a big step
        # the drift alone overshoots straight through zero
        p = ModelParams(a=0.4, b=5.0, k1=0.08, k2=0.05, m=0.0025,
                        sigma1=0.1, sigma2=0.5)
        noise = make_noise(0, 0.05, 100)
        with pytest.raises(PositivityViolation) as exc:
            simulate_path(p, (0.5, 3.0), MILSTEIN, noise)
        assert exc.value.step_index >= 1


class TestUpperPrey:
    def test_initial_value(self):
        noise = make_noise(2, 0.01, 100)
        t, x = explicit_upper_prey(0.1, 0.55, noise)
        assert t[0] == 0.0 and x[0] == 0.55

    def test_sigma_zero_is_logistic(self):
        noise = make_noise(2, 1e-4, 50_000)
        t, x = explicit_upper_prey(0.0, 0.3, noise)
        exact = 0.3 * np.exp(t) / (1 + 0.3 * (np.exp(t) - 1))
        assert np.max(np.abs(x - exact)) < 1e-6

    @pytest.mark.parametrize("sigma1, x0, match", [
        (0.1, math.nan, "x0 must be positive"),
        (0.1, math.inf, "x0 must be positive"),
        (math.nan, 0.5, "sigma1 must be nonnegative"),
        (math.inf, 0.5, "sigma1 must be nonnegative"),
    ])
    def test_non_finite_input_rejected(self, sigma1, x0, match):
        with pytest.raises(ValueError, match=match):
            explicit_upper_prey(sigma1, x0, make_noise(2, 0.01, 100))

    def test_large_noise_extinction(self):
        n_ext = 0
        for seed in range(200):
            noise = make_noise(seed, 0.01, 50_000)
            _, x = explicit_upper_prey(1.5, 0.55, noise)
            if x[-1] < 1e-3:
                n_ext += 1
        assert n_ext >= 190


class TestComparison:
    # the orderings hold exactly, also from a start inside the refuge
    # (x0 < m), where the system ties with x_upper and y_lower, and without
    # a refuge, where it starts tied with y_upper
    def test_ordering(self):
        cases = [
            (STOCH, (0.55, 0.6)),
            (STOCH, (0.001, 0.6)),
            (ModelParams(a=0.2, b=0.05, k1=0.5, k2=0.4, m=0.05,
                         sigma1=0.05, sigma2=0.4), (0.01, 0.6)),
            (ModelParams(a=1.0, b=0.3, k1=0.2, k2=0.1, m=0.0,
                         sigma1=0.3, sigma2=0.2), (0.55, 0.6)),
        ]
        for p, init in cases:
            for seed in (0, 1, 2):
                noise = make_noise(seed, 0.01, 5000)
                b = comparison_bundle(p, init, noise)
                assert (b.x_lower <= b.x).all()
                assert (b.x <= b.x_upper).all()
                assert (b.y_lower <= b.y).all()
                assert (b.y <= b.y_upper).all()

    def test_system_columns_are_log_euler_path(self):
        noise = make_noise(4, 0.01, 3000)
        b = comparison_bundle(STOCH, (0.55, 0.6), noise, t_max=20.0)
        sp = simulate_path(STOCH, (0.55, 0.6), LOG_EULER, noise, t_max=20.0)
        assert np.array_equal(b.times, sp.times)
        assert np.array_equal(b.x, sp.x)
        assert np.array_equal(b.y, sp.y)

    def test_csv_shape(self):
        noise = make_noise(0, 0.01, 100)
        b = comparison_bundle(STOCH, (0.55, 0.6), noise)
        buf = io.StringIO()
        write_path_csv(b, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x,y,x_upper,y_upper,x_lower,y_lower"
        assert len(lines) == 102


class TestEnsemble:
    @pytest.mark.parametrize("scheme", [LOG_EULER, MILSTEIN])
    def test_single_path_matches_scalar(self, scheme):
        stats = ensemble(STOCH, (0.55, 0.6), scheme, n_paths=1, seed0=9,
                         t_max=5.0, checkpoints=[5.0], h=0.01)
        noise = make_noise(9, 0.01, 500)
        sp = simulate_path(STOCH, (0.55, 0.6), scheme, noise)
        assert stats.mean[0][0] == pytest.approx(sp.x[-1], rel=1e-12)
        assert stats.mean[0][1] == pytest.approx(sp.y[-1], rel=1e-12)

    # the tiny-noise case has a spread ~1e-10 of the mean, far below what
    # E[x^2] - E[x]^2 can resolve in doubles
    @pytest.mark.parametrize("scheme, p", [
        (LOG_EULER, STOCH),
        (MILSTEIN, STOCH),
        (MILSTEIN, replace(STOCH, sigma1=1e-9, sigma2=1e-9)),
    ])
    def test_moments_match_scalar_loop(self, scheme, p):
        seed0, n_paths = 4, 8
        stats = ensemble(p, (0.55, 0.6), scheme, n_paths=n_paths,
                         seed0=seed0, t_max=3.0, checkpoints=[1.0, 3.0],
                         h=0.01)
        paths = [simulate_path(p, (0.55, 0.6), scheme,
                               make_noise(seed0 + i, 0.01, 300)).states
                 for i in range(n_paths)]
        for i, step in enumerate((100, 300)):
            finals = np.array([s[step] for s in paths])
            assert np.allclose(stats.mean[i], finals.mean(axis=0),
                               rtol=1e-12, atol=0)
            assert np.allclose(stats.variance[i], finals.var(axis=0),
                               rtol=1e-9, atol=0)

    @pytest.mark.parametrize("checkpoints", [[1.0, 1.0, 2.0], [1.0, 1.001],
                                             [3.0], [-0.5], [float("nan")]])
    def test_bad_checkpoints_rejected(self, checkpoints):
        with pytest.raises(ValueError, match="checkpoint"):
            ensemble(STOCH, (0.55, 0.6), LOG_EULER, n_paths=2, seed0=0,
                     t_max=2.0, checkpoints=checkpoints, h=0.01)

    @pytest.mark.parametrize("kw, match", [
        (dict(burn_in=-1.0), "burn_in must be >= 0"),
        (dict(burn_in=float("nan")), "burn_in must be >= 0"),
        (dict(burn_in=2.5), "burn_in must not exceed t_max"),
        (dict(bins=0), "bins must be >= 1"),
        (dict(bins=-3), "bins must be >= 1"),
    ])
    def test_bad_burn_in_or_bins_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            ensemble(STOCH, (0.55, 0.6), LOG_EULER, n_paths=2, seed0=0,
                     t_max=2.0, checkpoints=[2.0], h=0.01, **kw)

    def test_endpoint_checkpoints_allowed(self):
        stats = ensemble(STOCH, (0.55, 0.6), LOG_EULER, n_paths=2, seed0=0,
                         t_max=2.0, checkpoints=[0.0, 2.0], h=0.01)
        assert np.array_equal(stats.mean[0], [0.55, 0.6])
        assert np.array_equal(stats.variance[0], [0.0, 0.0])

    def test_histogram_mass(self):
        stats = ensemble(STOCH, (0.55, 0.6), LOG_EULER, n_paths=16, seed0=0,
                         t_max=20.0, checkpoints=[20.0], h=0.01,
                         burn_in=2.0, bins=20, hist_thin=10)
        # steps 200,210,...,2000 are recorded: 181 samples per path
        recorded = int(np.asarray(stats.hist_counts).sum())
        assert recorded + int(stats.hist_overflow) == 16 * 181

    def test_thread_invariance(self):
        # one lockstep run in one thread: a repeated call is bit-identical
        kw = dict(n_paths=12, seed0=3, t_max=5.0, checkpoints=[2.0, 5.0],
                  h=0.01, bins=10)
        a = ensemble(STOCH, (0.55, 0.6), LOG_EULER, **kw)
        b = ensemble(STOCH, (0.55, 0.6), LOG_EULER, **kw)
        assert np.array_equal(a.hist_counts, b.hist_counts)
        assert a.extinction_fraction_x == b.extinction_fraction_x
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)

    def test_extinction_fraction_large_noise(self):
        p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                        sigma1=2.0, sigma2=0.1)
        stats = ensemble(p, (0.55, 0.6), LOG_EULER, n_paths=50, seed0=0,
                         t_max=100.0, checkpoints=[100.0], h=0.01)
        assert stats.extinction_fraction_x > 0.5


class TestStationary:
    def test_seed_swap_symmetry(self):
        kw = dict(burn_in=5.0, t_max=40.0, bins=20, h=0.01)
        a = stationary_histogram(STOCH, LOG_EULER, seed=4, seed2=5, **kw)
        b = stationary_histogram(STOCH, LOG_EULER, seed=5, seed2=4, **kw)
        assert a.l1_cross_seed == pytest.approx(b.l1_cross_seed, rel=1e-12)

    def test_regime_label(self):
        rep = stationary_histogram(STOCH, LOG_EULER, seed=1, burn_in=2.0,
                                   t_max=20.0, bins=10, h=0.01)
        assert rep.regime == "Stationary"
        assert not rep.regime_warning


    @pytest.mark.parametrize("kw, match", [
        (dict(burn_in=-5.0), "burn_in must be >= 0"),
        (dict(bins=0), "bins must be >= 1"),
    ])
    def test_bad_burn_in_or_bins_rejected(self, kw, match):
        args = dict(burn_in=2.0, t_max=10.0, bins=10, h=0.01) | kw
        with pytest.raises(ValueError, match=match):
            stationary_histogram(STOCH, LOG_EULER, seed=1, **args)


class TestHitting:
    def test_start_inside_target(self):
        target = Region(0.0, 2.0, 0.0, 2.0)
        rep = hitting_time(STOCH, LOG_EULER, (0.55, 0.6), target,
                           n_paths=5, seed0=0, t_cap=10.0, h=0.01)
        assert rep.mean == 0.0 and rep.fraction_censored == 0.0

    def test_unreachable_is_censored(self):
        target = Region(5.0, 6.0, 5.0, 6.0)
        rep = hitting_time(STOCH, LOG_EULER, (0.55, 0.6), target,
                           n_paths=5, seed0=0, t_cap=2.0, h=0.01)
        assert rep.fraction_censored == 1.0
        assert math.isnan(rep.mean) or rep.mean >= 2.0

    @pytest.mark.parametrize("scheme", [LOG_EULER, MILSTEIN])
    def test_entries_match_scalar_paths(self, scheme):
        target = Region(0.0, 0.5, 0.0, 2.0)
        seed0, n_paths, h, t_cap = 2, 6, 0.01, 20.0
        rep = hitting_time(STOCH, scheme, (0.7, 0.6), target,
                           n_paths=n_paths, seed0=seed0, t_cap=t_cap, h=h)
        for i in range(n_paths):
            sp = simulate_path(STOCH, (0.7, 0.6), scheme,
                               make_noise(seed0 + i, h, 2000))
            inside = ((target.x_lo <= sp.x) & (sp.x <= target.x_hi)
                      & (target.y_lo <= sp.y) & (sp.y < target.y_hi))
            expected = sp.times[np.argmax(inside)] if inside.any() else t_cap
            assert rep.times[i] == expected


class TestLockstepKernel:
    """Contracts of the fused lockstep kernel behind ensemble and hitting."""

    @pytest.mark.parametrize("chunk", [7, 1])
    def test_chunk_size_invariance(self, monkeypatch, chunk):
        # 600 steps: two chunks at the default size, partial last chunks
        # at 7; every path must see the same draws whatever the chunk
        def run():
            ens = [ensemble(STOCH, (0.55, 0.6), scheme, n_paths=5, seed0=3,
                            t_max=6.0, checkpoints=[1.0, 6.0], h=0.01,
                            burn_in=1.0, bins=10, hist_thin=7)
                   for scheme in (LOG_EULER, MILSTEIN)]
            hits = [hitting_time(STOCH, scheme, (0.7, 0.6),
                                 Region(0.0, 0.5, 0.0, 2.0), n_paths=5,
                                 seed0=3, t_cap=6.0, h=0.01).times
                    for scheme in (LOG_EULER, MILSTEIN)]
            return ens, hits

        ens_a, hits_a = run()
        monkeypatch.setattr(sde_sim, "_CHUNK", chunk)
        ens_b, hits_b = run()
        for a, b in zip(ens_a, ens_b):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.variance, b.variance)
            assert np.array_equal(a.hist_counts, b.hist_counts)
            assert a.hist_overflow == b.hist_overflow
            assert a.extinction_fraction_x == b.extinction_fraction_x
            assert a.extinction_fraction_y == b.extinction_fraction_y
        for a, b in zip(hits_a, hits_b):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("scheme", [LOG_EULER, MILSTEIN])
    @pytest.mark.parametrize("axis, init", [(0, (0.0, 0.6)), (1, (0.55, 0.0))])
    def test_zero_axis_stays_zero(self, scheme, axis, init):
        p = replace(STOCH, sigma1=0.3, sigma2=0.3)
        states = sde_sim._lockstep(p, scheme, init, 16, 0, 0.01, 10.0)
        for step, x, y in states:
            zero, other = (x, y) if axis == 0 else (y, x)
            assert (zero == 0.0).all() and not np.signbit(zero).any()
            assert (other > 0.0).all()
        assert step == 1000

    def test_milstein_positivity_names_first_bad_path(self):
        # s2 * sqrt(h) > 1: a Milstein step can cross zero for some draws,
        # so paths fail at different steps; the batch reports the path
        # that fails first, which is path 4 for these seeds
        p = replace(STOCH, sigma2=2.3)
        seed0, n_paths, h = 2, 6, 0.2
        first = []
        for i in range(n_paths):
            with pytest.raises(PositivityViolation) as exc:
                simulate_path(p, (0.55, 0.6), MILSTEIN,
                              make_noise(seed0 + i, h, 100))
            first.append(exc.value.step_index)
        worst = int(np.argmin(first))
        assert worst == 4 and first.count(min(first)) == 1
        with pytest.raises(PositivityViolation,
                           match=f"positivity lost on path {worst}$"):
            ensemble(p, (0.55, 0.6), MILSTEIN, n_paths=n_paths, seed0=seed0,
                     t_max=20.0, checkpoints=[], h=h)
        with pytest.raises(PositivityViolation,
                           match=f"positivity lost on path {worst}$"):
            hitting_time(p, MILSTEIN, (0.55, 0.6), Region(5.0, 6.0, 5.0, 6.0),
                         n_paths=n_paths, seed0=seed0, t_cap=20.0, h=h)


class TestLockstepValidation:
    """ensemble and hitting_time refuse what simulate_path refuses."""

    TARGET = Region(0.0, 2.0, 0.0, 2.0)

    def run(self, which, init=(0.55, 0.6), scheme=LOG_EULER, n_paths=3,
            h=0.01, t_end=1.0):
        if which == "ensemble":
            return ensemble(STOCH, init, scheme, n_paths=n_paths, seed0=0,
                            t_max=t_end, checkpoints=[], h=h)
        return hitting_time(STOCH, scheme, init, self.TARGET,
                            n_paths=n_paths, seed0=0, t_cap=t_end, h=h)

    @pytest.mark.parametrize("which", ["ensemble", "hitting"])
    @pytest.mark.parametrize("bad, match", [
        (dict(n_paths=0), "n_paths"),
        (dict(h=0.0), "h > 0"),
        (dict(h=-0.01), "h > 0"),
        (dict(scheme="RK4"), "unknown scheme"),
        (dict(init=(-0.5, 0.6)), "closed quadrant"),
        (dict(init=(0.55, -1e-9)), "closed quadrant"),
        (dict(t_end=-1.0), "horizon"),
        (dict(h=math.inf), "h must be finite"),
        (dict(t_end=math.inf), "horizon must be finite"),
        (dict(init=(math.nan, 0.6)), "closed quadrant"),
        (dict(init=(0.55, math.nan)), "closed quadrant"),
        (dict(init=(math.inf, 0.6)), "initial state must be finite"),
        (dict(init=(0.55, math.inf)), "initial state must be finite"),
    ])
    def test_bad_input_raises(self, which, bad, match):
        with pytest.raises(ValueError, match=match):
            self.run(which, **bad)

    def test_messages_match_simulate_path(self):
        noise = make_noise(0, 0.01, 10)
        for kw, args in ((dict(init=(-0.5, 0.6)), ((-0.5, 0.6), LOG_EULER)),
                         (dict(scheme="RK4"), ((0.55, 0.6), "RK4"))):
            with pytest.raises(ValueError) as scalar:
                simulate_path(STOCH, *args, noise)
            for which in ("ensemble", "hitting"):
                with pytest.raises(ValueError) as batch:
                    self.run(which, **kw)
                assert str(batch.value) == str(scalar.value)
