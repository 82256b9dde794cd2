"""The scalar integrators against reference loops that index numpy arrays.

simulate_path and integrate run their steps on Python floats.  The
reference loops below take the same arithmetic in the same order on the
numpy values, one array index per step, so every state must agree to the
last bit.
"""

import math

import numpy as np
import pytest

from lglab import ModelParams, PositivityViolation, Region, StepTooLarge
from lglab.model import _field_scalar
from lglab.ode_sim import EULER, RK4, integrate
from lglab.sde_sim import (_CHUNK, LOG_EULER, MILSTEIN, ensemble,
                           hitting_time, make_noise, simulate_path)

from conftest import random_params


def crossing(factor, k):
    """+0.0 for a step at index k whose Milstein factor is positive, which
    underflowed to <= 0; otherwise the step crossed zero."""
    if factor > 0.0:
        return 0.0
    raise PositivityViolation(f"positivity lost at step {k + 1}",
                              step_index=k + 1)


def ref_simulate_path(p, init, scheme, noise, n, shared_noise=False):
    x, y = float(init[0]), float(init[1])
    a, b, k1, k2, m = p.a, p.b, p.k1, p.k2, p.m
    s1, s2 = p.sigma1, p.sigma2
    h = noise.h
    sqh = math.sqrt(h)
    xi1 = noise.xi2 if shared_noise else noise.xi1
    xi2 = noise.xi2
    states = np.empty((n + 1, 2))
    states[0] = (x, y)
    if scheme == MILSTEIN:
        c1 = 0.5 * s1 * s1
        c2 = 0.5 * s2 * s2
        for k in range(n):
            v1, v2 = _field_scalar(a, b, k1, k2, m, x, y)
            g1 = xi1[k]
            g2 = xi2[k]
            xn = x + (v1 * h + s1 * x * sqh * g1 + c1 * x * (h * g1 * g1 - h))
            yn = y + (v2 * h + s2 * y * sqh * g2 + c2 * y * (h * g2 * g2 - h))
            # a positive step factor marks an underflow, not a crossing
            if xn <= 0.0 < x:
                fx = 1.0 + v1 / x * h + s1 * sqh * g1 + c1 * (h * g1 * g1 - h)
                xn = crossing(fx, k)
            if yn <= 0.0 < y:
                fy = 1.0 + v2 / y * h + s2 * sqh * g2 + c2 * (h * g2 * g2 - h)
                yn = crossing(fy, k)
            x, y = xn, yn
            states[k + 1] = (x, y)
    else:
        d1 = 0.5 * s1 * s1
        d2 = 0.5 * s2 * s2
        for k in range(n):
            v1, v2 = _field_scalar(a, b, k1, k2, m, x, y)
            if x > 0.0:
                x = x * math.exp((v1 / x - d1) * h + s1 * sqh * xi1[k])
            if y > 0.0:
                y = y * math.exp((v2 / y - d2) * h + s2 * sqh * xi2[k])
            states[k + 1] = (x, y)
    return states


def _ref_clamp(v, k):
    if v >= 0.0:
        return v
    if v >= -1e-12:
        return 0.0
    raise StepTooLarge(f"state left the closed quadrant at step {k}")


def ref_step(p, x, y, scheme, h):
    """One unclamped Euler or RK4 step."""
    a, b, k1, k2, m = p.a, p.b, p.k1, p.k2, p.m
    if scheme == EULER:
        v1, v2 = _field_scalar(a, b, k1, k2, m, x, y)
        return x + v1 * h, y + v2 * h
    h2 = 0.5 * h
    h6 = h / 6.0
    a1, b1 = _field_scalar(a, b, k1, k2, m, x, y)
    a2, b2 = _field_scalar(a, b, k1, k2, m, x + h2 * a1, y + h2 * b1)
    a3, b3 = _field_scalar(a, b, k1, k2, m, x + h2 * a2, y + h2 * b2)
    a4, b4 = _field_scalar(a, b, k1, k2, m, x + h * a3, y + h * b3)
    return (x + h6 * (a1 + 2.0 * (a2 + a3) + a4),
            y + h6 * (b1 + 2.0 * (b2 + b3) + b4))


def ref_integrate(p, init, scheme, h, n):
    x, y = float(init[0]), float(init[1])
    states = np.empty((n + 1, 2))
    states[0] = (x, y)
    for k in range(n):
        x, y = ref_step(p, x, y, scheme, h)
        assert math.isfinite(x) and math.isfinite(y)
        x = _ref_clamp(x, k + 1)
        y = _ref_clamp(y, k + 1)
        states[k + 1] = (x, y)
    return states


class TestSimulatePath:
    @pytest.mark.parametrize("scheme", [MILSTEIN, LOG_EULER])
    @pytest.mark.parametrize("shared_noise", [False, True])
    def test_random_params(self, rng, scheme, shared_noise):
        for i in range(8):
            p = random_params(rng)
            p = ModelParams(**{**p.to_dict(),
                               "sigma1": float(rng.uniform(0, 0.5)),
                               "sigma2": float(rng.uniform(0, 0.5))})
            init = (float(rng.uniform(0.05, 1)), float(rng.uniform(0.05, 1)))
            noise = make_noise(100 + i, 0.01, 2000)
            ref = ref_simulate_path(p, init, scheme, noise, 2000, shared_noise)
            got = simulate_path(p, init, scheme, noise,
                                shared_noise=shared_noise)
            assert got.states.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scheme", [MILSTEIN, LOG_EULER])
    @pytest.mark.parametrize("init", [(0.0, 0.4), (0.6, 0.0), (0.0, 0.0)])
    def test_axis_starts(self, scheme, init):
        p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                        sigma1=0.2, sigma2=0.3)
        noise = make_noise(3, 0.01, 1000)
        ref = ref_simulate_path(p, init, scheme, noise, 1000)
        got = simulate_path(p, init, scheme, noise)
        assert got.states.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scheme", [MILSTEIN, LOG_EULER])
    @pytest.mark.parametrize("t_max, n", [(3.0, 300), (0.0, 0), (0.004, 0)])
    def test_shorter_than_noise(self, scheme, t_max, n):
        p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                        sigma1=0.2, sigma2=0.3)
        noise = make_noise(4, 0.01, 1000)
        ref = ref_simulate_path(p, (0.55, 0.6), scheme, noise, n)
        got = simulate_path(p, (0.55, 0.6), scheme, noise, t_max)
        assert got.states.shape == (n + 1, 2)
        assert got.states.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scheme", [MILSTEIN, LOG_EULER])
    def test_empty_noise(self, scheme):
        p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, sigma1=0.2)
        noise = make_noise(5, 0.01, 0)
        got = simulate_path(p, (0.55, 0.6), scheme, noise)
        assert got.states.tobytes() == ref_simulate_path(
            p, (0.55, 0.6), scheme, noise, 0).tobytes()


def ref_loss(p, init, noise, n):
    """The 1-based Milstein step of ref_simulate_path that loses
    positivity within n steps, or None."""
    try:
        ref_simulate_path(p, init, MILSTEIN, noise, n)
    except PositivityViolation as exc:
        return exc.step_index
    return None


class TestMilsteinLoss:
    # strong prey noise carries the prey above 2, where its drift per unit
    # times h outweighs the Milstein factor's minimum and a step crosses 0
    P = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                    sigma1=1.0, sigma2=0.1)

    @pytest.mark.parametrize("h, seed, lo, hi", [
        (2.0, 1, 1, 1),
        (0.3, 7, 2, _CHUNK),
        (0.3, 8, _CHUNK + 1, 1000),
    ], ids=["step-1", "first-chunk", "second-chunk"])
    def test_step_index_matches_reference(self, h, seed, lo, hi):
        noise = make_noise(seed, h, 1000)
        step = ref_loss(self.P, (0.55, 0.6), noise, 1000)
        assert step is not None and lo <= step <= hi
        with pytest.raises(PositivityViolation,
                           match=f"^positivity lost at step {step}$") as exc:
            simulate_path(self.P, (0.55, 0.6), MILSTEIN, noise)
        assert exc.value.step_index == step

    def test_underflow_is_not_a_loss(self):
        # sigma2^2 h = 1, so y's step factor is 0.5 (xi + 1)^2 + 0.025 > 0
        # and no step crosses zero; y underflows to 1.5e-323 at step 937
        # and to <= 0 at step 938, where it lands on +0.0
        p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                        sigma1=2.0, sigma2=2.0)
        noise = make_noise(2, 0.25, 2000)
        got = simulate_path(p, (0.55, 0.6), MILSTEIN, noise)
        ref = ref_simulate_path(p, (0.55, 0.6), MILSTEIN, noise, 2000)
        assert got.states.tobytes() == ref.tobytes()
        assert 0.0 < got.y[937] < 1e-320
        assert (got.y[938:] == 0.0).all() and not np.signbit(got.y).any()
        stats = ensemble(p, (0.55, 0.6), MILSTEIN, n_paths=1, seed0=2,
                         t_max=500.0, checkpoints=[234.25, 234.5, 500.0],
                         h=0.25)
        assert stats.mean[:, 1].tolist() == [got.y[937], 0.0, 0.0]
        assert np.allclose(stats.mean[:, 0], got.x[[937, 938, 2000]],
                           rtol=1e-12, atol=0)

    def test_hitting_names_the_earliest_loss_across_chunks(self):
        # path 0 loses positivity in the second chunk and path 1 in the
        # first; neither reaches the target before its loss, so the error
        # names path 1
        init, seed0, h, n = (0.55, 0.6), 8, 0.3, 1000
        target = Region(50.0, 60.0, 50.0, 60.0)
        steps = [ref_loss(self.P, init, make_noise(seed0 + i, h, n), n)
                 for i in range(2)]
        assert steps[0] > _CHUNK > steps[1]
        for i, step in enumerate(steps):
            states = ref_simulate_path(self.P, init, MILSTEIN,
                                       make_noise(seed0 + i, h, n), step - 1)
            assert not target.contains(*states.T).any()
        with pytest.raises(PositivityViolation,
                           match="^positivity lost on path 1$"):
            hitting_time(self.P, MILSTEIN, init, target, n_paths=2,
                         seed0=seed0, t_cap=n * h, h=h)


class TestIntegrate:
    @pytest.mark.parametrize("scheme", [EULER, RK4])
    def test_random_params(self, rng, scheme):
        for _ in range(8):
            p = random_params(rng)
            init = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            got = integrate(p, init, scheme, h=0.05, t_max=100.0)
            ref = ref_integrate(p, init, scheme, 0.05, 2000)
            assert got.states.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scheme, x0", [(EULER, 2.9605332385522165),
                                            (RK4, 4.205609662906266)])
    def test_round_off_undershoot_is_clamped(self, scheme, x0):
        p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2)
        x1, _ = ref_step(p, x0, 0.3, scheme, 0.5)
        assert -1e-12 <= x1 < 0.0
        got = integrate(p, (x0, 0.3), scheme, h=0.5, t_max=5.0)
        assert got.x[1] == 0.0
        assert got.states.tobytes() == ref_integrate(
            p, (x0, 0.3), scheme, 0.5, 10).tobytes()
