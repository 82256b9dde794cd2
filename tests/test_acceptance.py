"""End-to-end regression gate: one test per numbered requirement.

Each test is self-contained and checks library output against either
frozen reference numbers or an in-test oracle at the stated tolerance.
"""

import numpy as np
import pytest

from lglab import (
    ModelParams,
    analyze,
    classify,
    count_interior_equilibria,
    cubic_coefficients,
    detect_limit_cycle,
    ensemble,
    find_interior_equilibria,
    hopf_point,
    index_sum_check,
    integrate,
    jacobian,
    long_run_bounds,
    make_noise,
    persistence_report,
    simulate_path,
    stationary_histogram,
    trivial_equilibria,
)
from lglab.equilibria import SADDLE, STABLE_FOCUS, UNSTABLE_FOCUS
from lglab.ode_sim import RK4, integrate_batch
from lglab.sde_sim import LOG_EULER, MILSTEIN, SamplePath, NoisePath

from conftest import random_params

THREE_EQ = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025)
STOCH_FIG = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025)
HOPF_A = ModelParams(a=1.1, b=0.3, k1=0.08, k2=0.01, m=0.0025)
HOPF_B = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.1, m=0.002)


def test_criterion_01_three_equilibria_regression():
    eqs = [classify(THREE_EQ, e) for e in find_interior_equilibria(THREE_EQ)]
    assert len(eqs) == 3
    expected = [(0.0222589, 0.2197589, STABLE_FOCUS),
                (0.0299525, 0.2274525, SADDLE),
                (0.3702886, 0.5677886, UNSTABLE_FOCUS)]
    for e, (x, y, tax) in zip(eqs, expected):
        assert abs(e.x - x) < 1e-5 and abs(e.y - y) < 1e-5
        assert e.taxonomy == tax
    rep = index_sum_check(eqs, trivial_equilibria(THREE_EQ)[2])
    assert rep.total == 1 and rep.passed


def test_criterion_02_count_vs_grid_oracle():
    rng = np.random.default_rng(2025)
    grid = np.linspace(0.0, 1.0, 1_000_001)
    for _ in range(1000):
        p = random_params(rng)
        c = cubic_coefficients(p)
        X = grid * (1.0 - p.m)
        R = ((X + c.alpha2) * X + c.alpha1) * X + c.alpha0
        n_grid = int(np.count_nonzero(R[:-1] * R[1:] < 0))
        assert count_interior_equilibria(p).n_predicted == n_grid
        for e in find_interior_equilibria(p):
            assert abs(c.value(e.x - p.m)) < 1e-10


def test_criterion_03_limit_cycles_both_regimes():
    p1 = ModelParams(a=1, b=0.05, k1=0.1, k2=0.1, m=0.01)
    rep1 = detect_limit_cycle(
        p1, integrate(p1, (0.5, 0.3), RK4, h=0.01, t_max=2000), t_burn=1000)
    assert rep1.found and rep1.stable

    rep2 = detect_limit_cycle(
        THREE_EQ, integrate(THREE_EQ, (0.8, 0.9), RK4, h=0.01, t_max=2000),
        t_burn=1000)
    assert rep2.found and rep2.stable
    # the cycle's x-extent must straddle all three interior equilibria
    traj = integrate(THREE_EQ, (0.8, 0.9), RK4, h=0.01, t_max=2000.0)
    tail = traj.x[len(traj.x) // 2:]
    xs = [e.x for e in find_interior_equilibria(THREE_EQ)]
    assert tail.min() < min(xs) and tail.max() > max(xs)


def test_criterion_04a_hopf_negative_lyapunov():
    (e,) = find_interior_equilibria(HOPF_A)
    hd = hopf_point(HOPF_A, e)
    assert hd.lam < 0
    # just below the critical growth rate a small stable cycle appears
    p = HOPF_A.with_b(hd.b0 - 0.01)
    (e2,) = find_interior_equilibria(p)
    rep = detect_limit_cycle(
        p, integrate(p, (e2.x + 0.01, e2.y + 0.01), RK4, h=0.005, t_max=1200),
        t_burn=600)
    assert rep.found and rep.stable
    assert rep.amplitude_x < 0.5


def test_criterion_04b_hopf_positive_lyapunov():
    (e,) = find_interior_equilibria(HOPF_B)
    hd = hopf_point(HOPF_B, e)
    assert hd.lam > 0


def test_criterion_05_invariance_and_persistence():
    rng = np.random.default_rng(7)
    n_steps = 500_000
    per = 20
    draws = [random_params(rng, m_mode="positive") for _ in range(50)]
    # one extra draw without a refuge, under weak predation: prey floor
    p0 = ModelParams(a=0.5, b=0.1, k1=1.0, k2=0.2)
    bound = persistence_report(analyze(p0)).liminf_x_bound
    draws.append(p0)

    # all draws advance in one lockstep batch with per-row parameters
    init = rng.uniform(0.01, 1.2, size=(len(draws) * per, 2))
    cols = {n: np.repeat([getattr(p, n) for p in draws], per)
            for n in ("a", "b", "k1", "k2", "m")}
    _, (min_x, max_x, min_y, max_y) = integrate_batch(
        cols["a"], cols["b"], cols["k1"], cols["k2"], cols["m"],
        init, 1e-3, n_steps, tail_start=n_steps // 2)
    for i, p in enumerate(draws[:50]):
        rows = slice(i * per, (i + 1) * per)
        assert min_x[rows].min() >= p.m - 1e-3
        assert max_x[rows].max() <= 1.0 + 1e-3
        assert min_y[rows].min() >= p.k2 - 1e-3
        assert max_y[rows].max() <= 1.0 + p.k2 - p.m + 1e-3
    assert min_x[50 * per:].min() >= bound - 1e-3


def test_criterion_06_jacobian_vs_finite_differences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        p = random_params(rng)
        x = float(rng.uniform(0.05, 1.2))
        y = float(rng.uniform(0.05, 1.2))
        if abs(x - p.m) < 1e-3:
            x += 2e-3
        J = jacobian(p, (x, y))
        eps = 1e-7
        for j, d in enumerate(((eps, 0.0), (0.0, eps))):
            from lglab import vector_field
            fp = np.asarray(vector_field(p, (x + d[0], y + d[1])))
            fm = np.asarray(vector_field(p, (x - d[0], y - d[1])))
            fd = (fp - fm) / (2 * eps)
            scale = np.maximum(np.abs(J[:, j]), 1.0)
            worst = max(worst, float(np.max(np.abs(J[:, j] - fd) / scale)))
    assert worst < 1e-6


def test_criterion_07_zero_noise_milstein_is_euler():
    from lglab.ode_sim import EULER
    rng = np.random.default_rng(13)
    for seed in range(10):
        p = random_params(rng, m_mode="positive")
        init = (float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0)))
        noise = make_noise(seed, 0.01, 1000)
        sp = simulate_path(p, init, MILSTEIN, noise)
        tr = integrate(p, init, EULER, h=0.01, t_max=10.0)
        assert np.array_equal(sp.states, tr.states)


def test_criterion_08_pathwise_comparison():
    from lglab import comparison_bundle
    sets = [
        ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                    sigma1=0.1, sigma2=0.1),
        ModelParams(a=1.0, b=0.3, k1=0.2, k2=0.1, m=0.0,
                    sigma1=0.3, sigma2=0.2),
        ModelParams(a=0.2, b=0.05, k1=0.5, k2=0.4, m=0.05,
                    sigma1=0.05, sigma2=0.4),
    ]
    for p in sets:
        for seed in range(100):
            noise = make_noise(seed, 0.01, 2000)
            b = comparison_bundle(p, (0.55, 0.6), noise)
            assert (b.x_lower <= b.x + 1e-9).all()
            assert (b.x <= b.x_upper + 1e-9).all()
            assert (b.y_lower <= b.y + 1e-9).all()
            assert (b.y <= b.y_upper + 1e-9).all()


def test_criterion_09_extinction_fractions():
    p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                    sigma1=1.5, sigma2=0.5)
    stats = ensemble(p, (0.55, 0.6), LOG_EULER, n_paths=200, seed0=0,
                     t_max=500.0, checkpoints=[500.0], h=1e-3)
    assert stats.extinction_fraction_x >= 0.8
    assert stats.extinction_fraction_y >= 0.8


def test_criterion_10_stationary_regime():
    p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                    sigma1=0.01, sigma2=0.01)
    (e,) = find_interior_equilibria(p)
    stats = ensemble(p, (0.55, 0.6), LOG_EULER, n_paths=200, seed0=0,
                     t_max=200.0, checkpoints=[200.0], h=0.01)
    assert abs(stats.mean[0][0] - e.x) < 0.05
    assert abs(stats.mean[0][1] - e.y) < 0.05

    rep = stationary_histogram(p, LOG_EULER, seed=11, burn_in=100.0,
                               t_max=8000.0, bins=50, h=0.01)
    assert rep.l1_half_vs_half < 0.1
    assert rep.l1_cross_seed < 0.15


def test_criterion_11_reference_equilibrium():
    eqs = [classify(STOCH_FIG, e) for e in find_interior_equilibria(STOCH_FIG)]
    assert len(eqs) == 1
    e = eqs[0]
    c = cubic_coefficients(STOCH_FIG)
    assert abs(c.value(e.x - STOCH_FIG.m)) < 1e-10
    assert abs(e.x - 0.55) < 0.05 and abs(e.y - 0.75) < 0.05
    assert e.s > 0 and e.p_det > 0


def test_criterion_12_convergence_orders():
    # deterministic: fourth-order scheme, endpoint error ratio ~= 16
    ref = integrate(THREE_EQ, (0.8, 0.9), RK4, h=0.0025, t_max=10.0).states[-1]
    e1 = np.linalg.norm(
        integrate(THREE_EQ, (0.8, 0.9), RK4, h=0.02, t_max=10.0).states[-1] - ref)
    e2 = np.linalg.norm(
        integrate(THREE_EQ, (0.8, 0.9), RK4, h=0.01, t_max=10.0).states[-1] - ref)
    assert 8.0 < e1 / e2 < 32.0

    # stochastic: strong order 1, error ratio ~= 2 per h-halving
    p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                    sigma1=0.01, sigma2=0.01)
    t_max, h_ref = 5.0, 0.02 / 64
    n_ref = int(round(t_max / h_ref))

    def coarsen(noise, h):
        f = int(round(h / h_ref))
        xi1 = noise.xi1.reshape(-1, f).sum(axis=1) / np.sqrt(f)
        xi2 = noise.xi2.reshape(-1, f).sum(axis=1) / np.sqrt(f)
        return NoisePath(seed=noise.seed, h=h, xi1=xi1, xi2=xi2)

    errs = {0.02: [], 0.01: []}
    for seed in range(200):
        fine = make_noise(seed, h_ref, n_ref)
        ref_end = simulate_path(p, (0.55, 0.6), LOG_EULER, fine).states[-1]
        for h in errs:
            end = simulate_path(p, (0.55, 0.6), MILSTEIN,
                                coarsen(fine, h)).states[-1]
            errs[h].append(np.linalg.norm(end - ref_end))
    ratio = np.mean(errs[0.02]) / np.mean(errs[0.01])
    assert 1.6 < ratio < 2.4
