import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lglab import (
    ModelParams,
    NonFinite,
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

from conftest import traced_peak

STOCH = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                    sigma1=0.1, sigma2=0.1)


def scalar_first_entry(p, scheme, init, target, seed, h, n):
    """(time, None) of simulate_path's first state in target over n steps,
    or (None, the Milstein step that loses positivity), or (None, None)."""
    noise = make_noise(seed, h, n)
    lost = None
    try:
        sp = simulate_path(p, init, scheme, noise)
    except PositivityViolation as exc:
        lost = exc.step_index
        sp = simulate_path(p, init, scheme, noise, t_max=(lost - 1) * h)
    inside = target.contains(sp.x, sp.y)
    if inside.any():
        return sp.times[np.argmax(inside)], None
    return None, lost


RATE = st.floats(10 ** -1.5, 10 ** 0.5)
COORD = st.floats(0.0, 1.5)


@st.composite
def hitting_cases(draw):
    """Parameters, start, target, width, seed0, h and steps of a hitting
    run: starts on the axes and inside the target included."""
    p = ModelParams(a=draw(RATE), b=draw(RATE), k1=draw(RATE), k2=draw(RATE),
                    m=draw(st.just(0.0) | st.floats(0.0, 0.6)),
                    sigma1=draw(st.floats(0.0, 2.5)),
                    sigma2=draw(st.floats(0.0, 2.5)))
    start = draw(st.sampled_from(["near", "prey axis", "predator axis",
                                  "inside"]))
    x = 0.0 if start == "predator axis" else draw(COORD)
    y = 0.0 if start == "prey axis" else draw(COORD)
    # a target next to (x, y), a gap away along a component that can move
    gap_at = {"prey axis": 0, "predator axis": 1}.get(start)
    if gap_at is None:
        gap_at = draw(st.sampled_from([0, 1]))
    bounds = []
    for c, v in enumerate((x, y)):
        width = draw(st.floats(0.05, 0.5))
        lo = v + draw(st.floats(0.0, 0.1)) if c == gap_at else max(
            0.0, v - width / 2)
        bounds += [lo, lo + width]
    target = Region(*bounds)
    if start == "inside":
        init = (draw(st.floats(target.x_lo, target.x_hi)),
                draw(st.floats(target.y_lo, target.y_hi, exclude_max=True)))
    else:
        init = (x, y)
    return (p, init, target,
            draw(st.integers(1, 20)),
            draw(st.integers(0, 2 ** 32)),
            draw(st.sampled_from([0.01, 0.05, 0.2])),
            draw(st.integers(0, 1100)))


def whole_list_path(p, init, scheme, noise, t_max=None, shared_noise=False):
    """simulate_path's states as it stepped them before the chunk loop:
    the whole noise path turned into lists of Python floats, and every
    state appended to two lists; a Milstein loss raises its error."""
    h = noise.h
    n = round(t_max / h) if t_max is not None else noise.n_steps
    x, y = float(init[0]), float(init[1])
    g2s = noise.xi2[:n].tolist()
    g1s = g2s if shared_noise else noise.xi1[:n].tolist()
    a, b, k1, k2, m = p.a, p.b, p.k1, p.k2, p.m
    s1, s2 = p.sigma1, p.sigma2
    sqh = math.sqrt(h)
    c1 = 0.5 * s1 * s1
    c2 = 0.5 * s2 * s2
    xs, ys = [x], [y]
    for g1, g2 in zip(g1s, g2s):
        v1, v2 = sde_sim._field_scalar(a, b, k1, k2, m, x, y)
        if scheme == MILSTEIN:
            xn = x + (v1 * h + s1 * x * sqh * g1 + c1 * x * (h * g1 * g1 - h))
            yn = y + (v2 * h + s2 * y * sqh * g2 + c2 * y * (h * g2 * g2 - h))
            if (xn <= 0.0 < x) or (yn <= 0.0 < y):
                fx = (1.0 + v1 / x * h + s1 * sqh * g1 + c1 * (h * g1 * g1 - h)
                      if xn <= 0.0 < x else 1.0)
                fy = (1.0 + v2 / y * h + s2 * sqh * g2 + c2 * (h * g2 * g2 - h)
                      if yn <= 0.0 < y else 1.0)
                if fx <= 0.0 or fy <= 0.0:
                    lost = len(xs)
                    raise PositivityViolation(
                        f"positivity lost at step {lost}", step_index=lost)
                xn, yn = max(0.0, xn), max(0.0, yn)
            x, y = xn, yn
        else:
            if x > 0.0:
                x = x * math.exp((v1 / x - c1) * h + s1 * sqh * g1)
            if y > 0.0:
                y = y * math.exp((v2 / y - c2) * h + s2 * sqh * g2)
        xs.append(x)
        ys.append(y)
    return np.column_stack([xs, ys])


def whole_list_brackets(p, init, noise, t_max=None):
    """comparison_bundle's x_upper, y_upper, x_lower, y_lower columns as it
    stepped them before the chunk loop: whole-path increment lists and a
    list of 4-tuples."""
    h = noise.h
    n = round(t_max / h) if t_max is not None else noise.n_steps
    x0, y0 = init
    a, b, k1, k2 = p.a, p.b, p.k1, p.k2
    s1, s2 = p.sigma1, p.sigma2
    sqh = math.sqrt(h)
    d1 = 0.5 * s1 * s1
    d2 = 0.5 * s2 * s2
    incs = zip((s1 * sqh * noise.xi1[:n]).tolist(),
               (s2 * sqh * noise.xi2[:n]).tolist())
    xu = xl = x0
    yu = yl = y0
    rows = [(xu, yu, xl, yl)]
    for e1, e2 in incs:
        if xl > 0.0:
            xl = xl * math.exp((1.0 - xl - a * yu / k1 - d1) * h + e1)
        if yu > 0.0:
            yu = yu * math.exp(
                (b * yu * (1.0 - yu / (k2 + xu)) / yu - d2) * h + e2)
        if xu > 0.0:
            xu = xu * math.exp((xu * (1.0 - xu) / xu - d1) * h + e1)
        if yl > 0.0:
            yl = yl * math.exp((b * yl * (1.0 - yl / k2) / yl - d2) * h + e2)
        rows.append((xu, yu, xl, yl))
    return np.array(rows)


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


    @pytest.mark.parametrize("xi1, xi2, match", [
        # simulate_path answered 6 times with 4 states for these
        (np.zeros(5), np.zeros(3), "the same length"),
        (np.zeros(3), np.zeros(5), "the same length"),
        ([0.0] * 3, [0.0] * 3, "1-D numpy arrays"),
        (np.zeros(3), [0.0] * 3, "1-D numpy arrays"),
        (np.zeros((3, 1)), np.zeros((3, 1)), "1-D numpy arrays"),
        (np.float64(0.0), np.float64(0.0), "1-D numpy arrays"),
        # a NaN increment gave a NaN path and no error
        (np.array([0.0, np.nan]), np.zeros(2), "must be finite"),
        (np.zeros(2), np.array([np.inf, 0.0]), "must be finite"),
        (np.array([-np.inf]), np.array([np.nan]), "must be finite"),
    ])
    def test_streams_a_path_cannot_answer_are_refused(self, xi1, xi2, match):
        with pytest.raises(ValueError, match=match):
            NoisePath(seed=0, h=0.01, xi1=xi1, xi2=xi2)


def numpy_streams(seed):
    """The generators of seed's components 0 and 1, as numpy builds them."""
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(c,)))) for c in (0, 1)]


# around each word-count edge of a seed: 2**128 and above is more than
# four 32-bit words of entropy
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128,
         2**200 + 12345]
NUMPY_EDGE = [np.uint64(2**64 - 1), np.int64(2**63 - 1)]


class TestSeeding:
    """_streams seeds each generator from its own copy of numpy's
    SeedSequence hash; these tests hold it to numpy's."""

    @staticmethod
    def assert_numpy_states(seeds):
        got = list(sde_sim._streams(seeds))
        assert len(got) == len(seeds)
        for pair, seed in zip(got, seeds):
            want = numpy_streams(int(seed))
            for g, w in zip(pair, want):
                assert g.bit_generator.state == w.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 64, 65, 256])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_are_numpys(self, seed, n):
        self.assert_numpy_states(range(seed, seed + n))
        for kind in (np.int64, np.uint64):
            fits = [kind(s) for s in range(seed, seed + n)
                    if s <= np.iinfo(kind).max]
            if fits:
                self.assert_numpy_states(fits)

    def test_seeds_of_every_length_in_one_run(self):
        self.assert_numpy_states(SEEDS[::-1] + SEEDS)

    @given(seed=st.integers(0, 2**256 - 1), n=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_drawn_seeds_match_numpy(self, seed, n):
        self.assert_numpy_states(range(seed, seed + n))

    @pytest.mark.parametrize("seed", [0, 2**64, 2**200 + 12345])
    def test_noise_is_numpys_recipe(self, seed):
        noise = make_noise(seed, 0.01, 1000)
        g1, g2 = numpy_streams(seed)
        assert noise.xi1.tobytes() == g1.standard_normal(1000).tobytes()
        assert noise.xi2.tobytes() == g2.standard_normal(1000).tobytes()

    # seed0 + i and seed + 1 lie past the numpy type of these seeds, so
    # they must be taken in Python ints
    @pytest.mark.parametrize("seed", NUMPY_EDGE)
    def test_ensemble_numpy_seed0(self, seed):
        run = lambda s, n: ensemble(STOCH, (0.55, 0.6), LOG_EULER, n_paths=n,
                                    seed0=s, t_max=1.0, checkpoints=[1.0])
        assert_same_stats(run(seed, np.int64(2)), run(int(seed), 2))

    @pytest.mark.parametrize("seed", NUMPY_EDGE)
    def test_hitting_numpy_seed0(self, seed):
        # x leaves (0.549, ...) at a step that depends on the noise
        run = lambda s, n: hitting_time(
            STOCH, LOG_EULER, (0.55, 0.6), Region(0.0, 0.549, 0.0, 10.0),
            n_paths=n, seed0=s, t_cap=1.0).times
        got, want = run(seed, np.int64(2)), run(int(seed), 2)
        assert got.tobytes() == want.tobytes()
        assert len(set(want.tolist())) == 2

    @pytest.mark.parametrize("seed", NUMPY_EDGE)
    def test_stationary_numpy_seed(self, seed):
        run = lambda s: stationary_histogram(STOCH, LOG_EULER, s, burn_in=1.0,
                                             t_max=5.0, bins=10, h=0.01)
        got, want = run(seed), run(int(seed))
        assert np.array_equal(got.counts, want.counts)
        assert (got.l1_half_vs_half, got.l1_cross_seed) == (
            want.l1_half_vs_half, want.l1_cross_seed)

    def test_hitting_builds_a_paths_generators_as_it_steps_it(
            self, monkeypatch):
        # each PCG64 holds its seed words, so live words are live generators
        live = [0, 0]  # now, most ever

        class Counted(sde_sim._SeedWords):
            def __init__(self, words):
                super().__init__(words)
                live[0] += 1
                live[1] = max(live)

            def __del__(self):
                live[0] -= 1

        monkeypatch.setattr(sde_sim, "_SeedWords", Counted)
        report = hitting_time(STOCH, LOG_EULER, (0.55, 0.6),
                              Region(5.0, 6.0, 5.0, 6.0), n_paths=2000,
                              seed0=0, t_cap=0.02)
        assert report.fraction_censored == 1.0
        assert live[1] <= 4  # a path's pair, and its predecessor's


def _batch(**kw):
    from lglab.ode_sim import integrate_batch
    args = {"h": 0.01, "n_steps": 10, "tail_start": 0, **kw}
    return integrate_batch(0.4, 0.1, 0.08, 0.2, 0.0025, [[0.55, 0.6]], **args)


# each count of the public entry points, and a call that passes v as it
COUNTS = {
    "n_steps": lambda v: make_noise(1, 0.01, v),
    "seed": lambda v: make_noise(v, 0.01, 10),
    "n_paths": lambda v: ensemble(STOCH, (0.55, 0.6), LOG_EULER, n_paths=v,
                                  seed0=0, t_max=1.0, checkpoints=[]),
    "seed0": lambda v: ensemble(STOCH, (0.55, 0.6), LOG_EULER, n_paths=2,
                                seed0=v, t_max=1.0, checkpoints=[]),
    "bins": lambda v: ensemble(STOCH, (0.55, 0.6), LOG_EULER, n_paths=2,
                               seed0=0, t_max=1.0, checkpoints=[], bins=v),
    "stationary bins": lambda v: stationary_histogram(
        STOCH, LOG_EULER, 3, 0.0, 1.0, bins=v),
    "stationary seed": lambda v: stationary_histogram(
        STOCH, LOG_EULER, v, 0.0, 1.0),
    "seed2": lambda v: stationary_histogram(STOCH, LOG_EULER, 3, 0.0, 1.0,
                                            seed2=v),
    "hitting n_paths": lambda v: hitting_time(
        STOCH, LOG_EULER, (0.55, 0.6), Region(0.0, 0.1, 0.0, 0.1),
        n_paths=v, seed0=0, t_cap=1.0),
    "hitting seed0": lambda v: hitting_time(
        STOCH, LOG_EULER, (0.55, 0.6), Region(0.0, 0.1, 0.0, 0.1),
        n_paths=2, seed0=v, t_cap=1.0),
    "batch n_steps": lambda v: _batch(n_steps=v),
    "tail_start": lambda v: _batch(tail_start=v),
}


class TestCounts:
    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(sde_sim, "_streams", refuse)

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), True,
                                     np.True_, "2"])
    def test_non_integer_refused_before_any_draw(self, no_draws, count, bad):
        name = count.split()[-1]
        with pytest.raises(TypeError, match=f"^{name} must be an integer, "
                                            f"not {type(bad).__name__}$"):
            COUNTS[count](bad)

    @pytest.mark.parametrize("count", [c for c in COUNTS if "seed" in c])
    @pytest.mark.parametrize("bad", [-1, np.int64(-7)])
    def test_negative_seed_refused_before_any_draw(self, no_draws, count,
                                                   bad):
        # numpy refused these with "expected non-negative integer"
        name = count.split()[-1]
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            COUNTS[count](bad)

    @pytest.mark.parametrize("count", COUNTS)
    def test_numpy_integers_accepted(self, count):
        for kind in (np.int64, np.int32, np.uint8):
            COUNTS[count](kind(2))  # no error

    def test_numpy_integer_counts_give_the_same_noise(self):
        a = make_noise(np.int64(7), 0.01, np.int32(100))
        b = make_noise(7, 0.01, 100)
        assert a.xi1.tobytes() == b.xi1.tobytes()
        assert a.xi2.tobytes() == b.xi2.tobytes()


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


    @pytest.mark.parametrize("chunk", [sde_sim._CHUNK, 7, 1])
    @pytest.mark.parametrize("scheme", [LOG_EULER, MILSTEIN])
    @pytest.mark.parametrize("shared_noise", [False, True])
    @pytest.mark.parametrize("t_max", [None, 10.0, 5.12, 0.004])
    def test_matches_whole_list_reference(self, monkeypatch, chunk, scheme,
                                          shared_noise, t_max):
        # 1100 steps of noise cross the default chunk edges at 512 and
        # 1024; t_max 5.12 ends on one, and 0.004 gives the start alone
        noise = make_noise(9, 0.01, 1100)
        ref = whole_list_path(STOCH, (0.55, 0.6), scheme, noise, t_max,
                              shared_noise)
        monkeypatch.setattr(sde_sim, "_CHUNK", chunk)
        sp = simulate_path(STOCH, (0.55, 0.6), scheme, noise, t_max,
                           shared_noise)
        assert sp.states.tobytes() == ref.tobytes()
        assert sp.times.tobytes() == (np.arange(len(ref)) * 0.01).tobytes()

    @pytest.mark.parametrize("chunk", [sde_sim._CHUNK, 7, 1])
    @pytest.mark.parametrize("seed, shared_noise, step", [
        (8, False, 29), (39, True, 8)])
    def test_milstein_loss_on_a_chunk_edge(self, monkeypatch, chunk, seed,
                                           shared_noise, step):
        # steps 29 and 8 are each the first step of a 7-step chunk (and of
        # a 1-step one)
        p = replace(STOCH, sigma2=1.0)
        noise = make_noise(seed, 0.2, 200)
        with pytest.raises(PositivityViolation) as ref:
            whole_list_path(p, (0.55, 0.6), MILSTEIN, noise,
                            shared_noise=shared_noise)
        monkeypatch.setattr(sde_sim, "_CHUNK", chunk)
        with pytest.raises(PositivityViolation) as exc:
            simulate_path(p, (0.55, 0.6), MILSTEIN, noise,
                          shared_noise=shared_noise)
        assert str(exc.value) == str(ref.value)
        assert exc.value.step_index == ref.value.step_index
        assert ref.value.step_index == step

    def test_memory_bounded_by_the_output(self):
        # the whole-list loop peaked at 32 MB over these 200,000 steps, for
        # 4.8 MB of states and times, and np.arange(n + 1) * h added its
        # int64 temporary, 1.6 MB
        noise = make_noise(3, 0.01, 200_000)
        traced_peak(simulate_path, STOCH, (0.55, 0.6), LOG_EULER,
                    make_noise(3, 0.01, 10))  # one-off allocations
        peak, sp = traced_peak(simulate_path, STOCH, (0.55, 0.6), LOG_EULER,
                               noise)
        assert peak - (sp.states.nbytes + sp.times.nbytes) < 2 ** 18


    @pytest.mark.parametrize("flags", [
        [], ["--shared-noise"], ["--scheme", "milstein"], ["--comparison"]])
    def test_cli_memory_below_the_csv(self, tmp_path, flags):
        # `sde path` formats its CSV straight into the file: at t_max 2000,
        # staging the CSV text first peaked at 35.3, 30.2, 35.3 and 69.7 MB
        # for CSVs of 11.1, 11.1, 11.1 and 27.6 MB.  t_max 1000 keeps the
        # traced run short
        from lglab.cli import main
        out = tmp_path / "path.csv"
        argv = ["sde", "path", "--a", "0.4", "--b", "0.1", "--k1", "0.08",
                "--k2", "0.2", "--m", "0.0025", "--sigma1", "0.1",
                "--sigma2", "0.1", "--seed", "7", "--h", "0.01",
                *flags, "--out", str(out)]
        assert main([*argv, "--t-max", "1"]) == 0  # one-off allocations
        peak, rc = traced_peak(main, [*argv, "--t-max", "1000"])
        assert rc == 0
        assert peak < out.stat().st_size


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


class Huge:
    """A generator in place of one of _streams' whose every draw is g."""

    def __init__(self, g):
        self.g = g

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.full(size, self.g)
        out[...] = self.g
        return out


def _huge_predator(g):
    """_streams with Huge(g) as the predator's generator of seeds 2 and 3."""
    real = sde_sim._streams
    return lambda seeds: (
        (gen1, Huge(g) if seed in (2, 3) else gen2)
        for seed, (gen1, gen2) in zip(seeds, real(seeds)))


class TestOverflow:
    # the predator's draw at step 12 is g, every other draw 0
    @pytest.mark.parametrize("chunk", [sde_sim._CHUNK, 7, 1])
    @pytest.mark.parametrize("scheme, g, y0", [
        (LOG_EULER, 1e5, 0.6),       # math.exp(1000) raises OverflowError
        (LOG_EULER, 70950.0, 10.0),  # y * exp(709.5) is inf, no error
        (MILSTEIN, 1e160, 0.6),      # h * g * g is inf, no error
    ])
    def test_path_stops_before_the_step(self, monkeypatch, chunk, scheme, g,
                                        y0):
        xi2 = np.zeros(20)
        xi2[11] = g
        noise = NoisePath(0, 0.01, np.zeros(20), xi2)
        monkeypatch.setattr(sde_sim, "_CHUNK", chunk)
        with pytest.raises(NonFinite, match="^non-finite state at step 12$"):
            simulate_path(STOCH, (0.55, y0), scheme, noise)
        got = []
        with pytest.raises(NonFinite):
            for _, xs, ys in sde_sim._chunks(STOCH, scheme, 0.55, y0, 0.01,
                                             sde_sim._sliced(noise, 20)):
                got.append(np.column_stack([xs, ys]))
        ref = simulate_path(STOCH, (0.55, y0), scheme, noise, t_max=0.11)
        assert np.concatenate(got).tobytes() == ref.states.tobytes()

    def test_bracket_overflow(self):
        # y_upper's drift exceeds the system's inside the refuge: its
        # exponent passes 709 while y's, 693, does not
        p = ModelParams(a=0.4, b=77000.0, k1=0.08, k2=1.0, m=0.9)
        noise = make_noise(1, 0.01, 5)
        with pytest.raises(NonFinite, match="^non-finite bracket at step 1$"):
            comparison_bundle(p, (0.5, 0.1), noise)

    @pytest.mark.parametrize("scheme, g", [(LOG_EULER, 1e5),
                                           (MILSTEIN, 1e160)])
    def test_ensemble_names_the_first_bad_path(self, monkeypatch, scheme, g):
        monkeypatch.setattr(sde_sim, "_streams", _huge_predator(g))
        with pytest.raises(NonFinite, match="^non-finite state on path 2$"):
            ensemble(STOCH, (0.55, 0.6), scheme, n_paths=4, seed0=0,
                     t_max=0.5, checkpoints=[0.5], h=0.01)

    def test_hitting_names_the_first_bad_path(self, monkeypatch):
        monkeypatch.setattr(sde_sim, "_streams", _huge_predator(1e5))
        with pytest.raises(NonFinite, match="^non-finite state on path 2$"):
            hitting_time(STOCH, LOG_EULER, (0.55, 0.6),
                         Region(5.0, 6.0, 5.0, 6.0), 4, 0, 0.5)


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

    @pytest.mark.parametrize("chunk", [sde_sim._CHUNK, 7, 1])
    @pytest.mark.parametrize("t_max", [None, 10.0, 5.12])
    def test_brackets_match_whole_list_reference(self, monkeypatch, chunk,
                                                 t_max):
        noise = make_noise(4, 0.01, 1100)
        ref = whole_list_brackets(STOCH, (0.55, 0.6), noise, t_max)
        monkeypatch.setattr(sde_sim, "_CHUNK", chunk)
        b = comparison_bundle(STOCH, (0.55, 0.6), noise, t_max)
        got = np.column_stack([b.x_upper, b.y_upper, b.x_lower, b.y_lower])
        assert got.tobytes() == ref.tobytes()
        path = whole_list_path(STOCH, (0.55, 0.6), LOG_EULER, noise, t_max)
        assert np.column_stack([b.x, b.y]).tobytes() == path.tobytes()

    # a start on an axis runs as simulate_path runs it; from (0.55, 0)
    # x_lower's drift 1 - xl - a*yu/k1 alone, with y_upper at 0, breaks
    # x_lower <= x by up to 1.8e-15 in about one run in ten
    @pytest.mark.parametrize("init", [(0.55, 0.0), (0.0, 0.6), (0.0, 0.0)])
    def test_start_on_an_axis_is_simulate_paths(self, init):
        sets = [
            STOCH,
            ModelParams(a=1.0, b=0.3, k1=0.2, k2=0.1, m=0.0,
                        sigma1=0.3, sigma2=0.2),
            ModelParams(a=0.2, b=0.05, k1=0.5, k2=0.4, m=0.05,
                        sigma1=0.05, sigma2=0.4),
        ]
        for p in sets:
            for seed in range(20):
                noise = make_noise(seed, 0.01, 2000)
                b = comparison_bundle(p, init, noise)
                sp = simulate_path(p, init, LOG_EULER, noise)
                assert b.x.tobytes() == sp.x.tobytes()
                assert b.y.tobytes() == sp.y.tobytes()
                assert (b.x_lower <= b.x).all() and (b.x <= b.x_upper).all()
                assert (b.y_lower <= b.y).all() and (b.y <= b.y_upper).all()

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
                                             [3.0], [-0.5], [float("nan")],
                                             [0.005, 0.5]])
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
                         burn_in=2.0, bins=20)
        # steps 200,300,...,2000 are recorded: 19 samples per path
        recorded = int(np.asarray(stats.hist_counts).sum())
        assert recorded + int(stats.hist_overflow) == 16 * 19

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

    @pytest.mark.parametrize("scheme", [LOG_EULER, MILSTEIN])
    def test_noise_memory_is_the_step_buffer_and_one_block(self, scheme):
        # 1100 steps cross the chunk edges at 512 and 1024.  The step
        # buffer holds 2 x 256 x _CHUNK doubles, 2 MiB; the rest is one
        # 64-row draw block (256 KiB), 512 generators and small arrays,
        # about 0.85 MiB.  A (n_paths, _CHUNK) draw buffer beside the step
        # buffer peaked 1.6 MiB above it
        n_paths = 256
        ensemble(STOCH, (0.55, 0.6), scheme, n_paths=2, seed0=0, t_max=0.1,
                 checkpoints=[], h=0.01)  # one-off allocations
        peak, _ = traced_peak(ensemble, STOCH, (0.55, 0.6), scheme,
                              n_paths=n_paths, seed0=0, t_max=11.0,
                              checkpoints=[5.12, 11.0], h=0.01)
        assert peak < 2 * n_paths * sde_sim._CHUNK * 8 + 1.25 * 2 ** 20

    def test_extinction_fraction_large_noise(self):
        p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                        sigma1=2.0, sigma2=0.1)
        stats = ensemble(p, (0.55, 0.6), LOG_EULER, n_paths=50, seed0=0,
                         t_max=100.0, checkpoints=[100.0], h=0.01)
        assert stats.extinction_fraction_x > 0.5


def whole_path_stationary(p, scheme, seed, burn_in, t_max, bins, h, init,
                          seed2):
    """stationary_histogram's counts, overflow and L1 distances computed from
    whole paths: make_noise and simulate_path, then _bin2d of the tail
    halves."""
    n = round(t_max / h)

    def tail(s):
        path = simulate_path(p, init, scheme, make_noise(s, h, n))
        return path.states[round(burn_in / h):]

    states = tail(seed)
    half = len(states) // 2
    c_a, o_a = sde_sim._bin2d(*states[:half].T, bins)
    c_b, o_b = sde_sim._bin2d(*states[half:].T, bins)
    c_other, _ = sde_sim._bin2d(*tail(seed2).T, bins)
    return (c_a + c_b, o_a + o_b, sde_sim._l1(c_a, c_b),
            sde_sim._l1(c_a + c_b, c_other))


class TestStationary:
    @pytest.mark.parametrize("chunk", [sde_sim._CHUNK, 7, 1])
    @pytest.mark.parametrize("scheme", [LOG_EULER, MILSTEIN])
    @pytest.mark.parametrize("burn_in, t_max, init", [
        (1.0, 12.0, (0.55, 0.6)),   # odd tail, 1101 states
        (1.0, 12.01, (0.55, 0.6)),  # even tail, 1102 states
        # the tail starts at the last state of the first default chunk,
        # then at the first state of the second
        (5.12, 12.0, (0.55, 0.6)),
        (5.13, 12.01, (0.55, 0.6)),
        (0.0, 0.006, (0.55, 0.6)),  # one step: the start, then one state
        (0.0, 3.0, (1.6, 0.6)),     # states over HIST_RANGE overflow
    ])
    def test_matches_whole_path_reference(self, monkeypatch, chunk, scheme,
                                          burn_in, t_max, init):
        monkeypatch.setattr(sde_sim, "_CHUNK", chunk)
        kw = dict(burn_in=burn_in, t_max=t_max, bins=10, h=0.01, init=init)
        for seed2 in (None, 9):
            rep = stationary_histogram(STOCH, scheme, 3, seed2=seed2, **kw)
            counts, overflow, l1_half, l1_cross = whole_path_stationary(
                STOCH, scheme, 3, seed2=4 if seed2 is None else seed2, **kw)
            assert np.array_equal(rep.counts, counts)
            assert rep.overflow == overflow
            assert rep.l1_half_vs_half == l1_half
            assert rep.l1_cross_seed == l1_cross

    def test_memory_bounded_by_the_chunk(self):
        # a whole path held about 190 bytes per step, so 14,000 more steps
        # would add about 2.7 MB to the peak; the bound allows 1 MB
        def peak(t_max):
            return traced_peak(stationary_histogram, STOCH, LOG_EULER, 3,
                               burn_in=1.0, t_max=t_max, bins=10, h=0.01)[0]

        peak(20.0)  # the first call pays one-off allocations
        assert peak(160.0) - peak(20.0) < 2 ** 20

    @pytest.mark.parametrize("chunk", [sde_sim._CHUNK, 7, 1])
    @pytest.mark.parametrize("seed, step", [
        (6, 6),  # seed 6 keeps positivity; seed2 = 7 loses it at step 6
        (8, 29),  # seed 8 loses it on the first step of a 7-step chunk
    ])
    def test_milstein_loss_raises_simulate_paths_error(self, monkeypatch,
                                                       chunk, seed, step):
        p = replace(STOCH, sigma2=1.0)
        kw = dict(burn_in=1.0, t_max=40.0, bins=10, h=0.2, init=(0.55, 0.6))
        with pytest.raises(PositivityViolation) as ref:
            whole_path_stationary(p, MILSTEIN, seed, seed2=seed + 1, **kw)
        monkeypatch.setattr(sde_sim, "_CHUNK", chunk)
        with pytest.raises(PositivityViolation) as exc:
            stationary_histogram(p, MILSTEIN, seed, **kw)
        assert str(exc.value) == str(ref.value)
        assert exc.value.step_index == ref.value.step_index == step

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
        (dict(burn_in=float("nan")), "burn_in must be >= 0"),
        # t_max < h/2 leaves the start alone, and burn-in 9.999 rounds to
        # t_max's step 1000: a tail of one state, whose L1 distances mean
        # nothing
        (dict(burn_in=0.0, t_max=0.004), "burn_in must be smaller than t_max"),
        (dict(burn_in=9.999), "burn_in must be smaller than t_max"),
    ])
    def test_bad_burn_in_or_bins_rejected(self, kw, match):
        args = dict(burn_in=2.0, t_max=10.0, bins=10, h=0.01) | kw
        with pytest.raises(ValueError, match=match):
            stationary_histogram(STOCH, LOG_EULER, seed=1, **args)

    @pytest.mark.parametrize("kw, match", [
        (dict(scheme="RK4"), "unknown scheme"),
        (dict(init=(-0.5, 0.6)), "closed quadrant"),
        (dict(init=(0.55, math.inf)), "initial state must be finite"),
        (dict(seed2=1), "seed2 must differ from seed"),
    ])
    def test_bad_scheme_or_start_refused_before_noise(self, monkeypatch, kw,
                                                      match):
        built = []
        real = sde_sim._streams
        monkeypatch.setattr(sde_sim, "_streams",
                            lambda *a: built.append(a) or real(*a))
        args = dict(scheme=LOG_EULER, burn_in=2.0, t_max=10.0, bins=10,
                    h=0.01) | kw
        with pytest.raises(ValueError, match=match):
            stationary_histogram(STOCH, seed=1, **args)
        assert built == []

    @pytest.mark.parametrize("burn_in", [10.0, 12.0])
    def test_burn_in_must_end_before_t_max(self, burn_in):
        with pytest.raises(ValueError,
                           match="burn_in must be smaller than t_max"):
            stationary_histogram(STOCH, LOG_EULER, seed=1, burn_in=burn_in,
                                 t_max=10.0, bins=10, h=0.01)


class TestBin2d:
    BELOW = st.floats(0.0, sde_sim.HIST_RANGE, exclude_max=True)

    @given(bins=st.integers(1, 2000),
           x=st.lists(BELOW | st.just(math.nextafter(sde_sim.HIST_RANGE, 0)),
                      max_size=20),
           y=st.lists(BELOW, max_size=20))
    @example(bins=9, x=[math.nextafter(sde_sim.HIST_RANGE, 0)], y=[0.1])
    @settings(max_examples=200, deadline=None)
    def test_points_below_range_stay_in_range(self, bins, x, y):
        # x / w can round up to bins for x one ulp below HIST_RANGE
        n = min(len(x), len(y))
        x, y = np.array(x[:n]), np.array(y[:n])
        counts, overflow = sde_sim._bin2d(x, y, bins)
        assert counts.shape == (bins, bins)
        assert (overflow, counts.sum()) == (0, n)


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

    @pytest.mark.parametrize("scheme", [LOG_EULER, MILSTEIN])
    @settings(max_examples=100, deadline=None)
    @given(case=hitting_cases())
    def test_hit_times_are_scalar_first_entries(self, scheme, case):
        # bit for bit simulate_path's first entry, t_cap if there is none;
        # under Milstein, a loss of positivity before the path's own entry
        # raises, naming the earliest such loss
        p, init, target, n_paths, seed0, h, n = case
        t_cap = n * h
        runs = [scalar_first_entry(p, scheme, init, target, seed0 + i, h, n)
                for i in range(n_paths)]
        lost = [(step, i) for i, (t, step) in enumerate(runs)
                if step is not None]
        kw = dict(n_paths=n_paths, seed0=seed0, t_cap=t_cap, h=h)
        if lost:
            with pytest.raises(PositivityViolation,
                               match=f"positivity lost on path {min(lost)[1]}$"):
                hitting_time(p, scheme, init, target, **kw)
            return
        rep = hitting_time(p, scheme, init, target, **kw)
        expected = [t_cap if t is None else t for t, _ in runs]
        assert rep.times.tolist() == expected
        censored = sum(t is None for t, _ in runs)
        assert rep.fraction_censored == censored / n_paths

    @pytest.mark.parametrize("t_cap, expected, censored", [
        # between steps 1 and 2: only step 1 is watched, so paths 0 and 2,
        # which first enter at step 2, are censored at the cap
        (0.015, [0.015, 0.015, 0.015, 0.01, 0.01, 0.01], 3 / 6),
        (0.02, [0.02, 0.02, 0.02, 0.01, 0.01, 0.01], 1 / 6),
    ])
    def test_no_entry_after_t_cap(self, t_cap, expected, censored):
        rep = hitting_time(STOCH, LOG_EULER, (0.55, 0.6),
                           Region(0.0, 2.0, 0.0, 0.6), n_paths=6, seed0=0,
                           t_cap=t_cap, h=0.01)
        assert rep.times.tolist() == expected
        assert rep.fraction_censored == censored

    def test_milstein_loss_after_own_entry_does_not_raise(self):
        # path 0 enters the target at step 1 and loses positivity at step 2;
        # path 1 enters at step 4.  Each path stops at its own entry, so
        # path 0's later loss is never reached
        p = replace(STOCH, sigma2=2.3)
        init, seed0, h = (0.55, 0.6), 12, 0.2
        target = Region(0.51, 0.6, 0.1, 0.37)
        for i, step in enumerate((2, 40)):
            with pytest.raises(PositivityViolation) as exc:
                simulate_path(p, init, MILSTEIN, make_noise(seed0 + i, h, 100))
            assert exc.value.step_index == step
        rep = hitting_time(p, MILSTEIN, init, target, n_paths=2, seed0=seed0,
                           t_cap=20.0, h=h)
        assert rep.times.tolist() == [1 * h, 4 * h]


def assert_same_stats(a, b):
    """Two EnsembleStats agree bit for bit."""
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)
    assert np.array_equal(a.hist_counts, b.hist_counts)
    assert a.hist_overflow == b.hist_overflow
    assert a.extinction_fraction_x == b.extinction_fraction_x
    assert a.extinction_fraction_y == b.extinction_fraction_y


class TestLockstepKernel:
    """Contracts of the fused lockstep kernel of ensemble and of the
    chunked per-path stepping behind hitting_time."""

    @pytest.mark.parametrize("chunk", [7, 1, 100])
    def test_chunk_size_invariance(self, monkeypatch, chunk):
        # 600 steps: two chunks at the default size, partial last chunks
        # at 7, where the histogram steps 100 .. 600 fall inside chunks; at
        # 100 the checkpoint t=1.0 and every histogram step sit on a chunk
        # edge; every path must see the same draws whatever the chunk
        def run():
            ens = [ensemble(STOCH, (0.55, 0.6), scheme, n_paths=5, seed0=3,
                            t_max=6.0, checkpoints=[1.0, 6.0], h=0.01,
                            burn_in=1.0, bins=10)
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
            assert_same_stats(a, b)
        for a, b in zip(hits_a, hits_b):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("block", [1, 7, 130])
    def test_block_size_invariance(self, monkeypatch, block):
        # 130 paths are two blocks of 64 and one of 2 at the default, one
        # block of every path at 130; 1100 steps cross the chunk edges at
        # 512 and 1024.  Every path must see the same draws whatever the
        # block, and the loud Milstein run must name the same lost path,
        # one in the second block of 64
        p = replace(STOCH, sigma1=0.5, sigma2=0.5)
        loud = replace(STOCH, sigma2=1.6)

        def run():
            ens = [ensemble(p, (0.55, 0.6), scheme, n_paths=130, seed0=3,
                            t_max=11.0, checkpoints=[5.12, 11.0], h=0.01,
                            burn_in=1.0, bins=10)
                   for scheme in (LOG_EULER, MILSTEIN)]
            with pytest.raises(PositivityViolation) as exc:
                ensemble(loud, (0.55, 0.6), MILSTEIN, n_paths=130, seed0=9,
                         t_max=20.0, checkpoints=[], h=0.2)
            return ens, str(exc.value)

        ens_a, lost_a = run()
        monkeypatch.setattr(sde_sim, "_BLOCK", block)
        ens_b, lost_b = run()
        for a, b in zip(ens_a, ens_b):
            assert_same_stats(a, b)
        assert lost_a == lost_b == "positivity lost on path 102"

    @pytest.mark.parametrize("scheme", [LOG_EULER, MILSTEIN])
    @pytest.mark.parametrize("axis, init", [(0, (0.0, 0.6)), (1, (0.55, 0.0))])
    def test_zero_axis_stays_zero(self, scheme, axis, init):
        # a -0.0 state cannot be seen in any ensemble output: a mean or
        # variance of zeros is +0.0 whatever their signs, a -0.0 bins at 0
        # and counts as extinct, so only the values are checked
        p = replace(STOCH, sigma1=0.3, sigma2=0.3)
        n, h = 1000, 0.01
        stats = ensemble(p, init, scheme, n_paths=16, seed0=0, t_max=n * h,
                         checkpoints=np.arange(n + 1) * h, h=h)
        assert (stats.mean[:, axis] == 0.0).all()
        assert (stats.variance[:, axis] == 0.0).all()
        assert (stats.mean[:, 1 - axis] > 0.0).all()
        extinct = (stats.extinction_fraction_x, stats.extinction_fraction_y)
        assert (extinct[axis], extinct[1 - axis]) == (1.0, 0.0)

    @pytest.mark.parametrize("scheme", [LOG_EULER, MILSTEIN])
    def test_kept_states_are_scalar_paths(self, scheme):
        # 1100 steps cross the chunk edges at 512 and 1024, with a
        # checkpoint at every step: the moments of each step are those of
        # the simulate_path states at that step
        seed0, n_paths, h, n = 5, 16, 0.01, 1100
        stats = ensemble(STOCH, (0.55, 0.6), scheme, n_paths=n_paths,
                         seed0=seed0, t_max=n * h,
                         checkpoints=np.arange(n + 1) * h, h=h)
        paths = [simulate_path(STOCH, (0.55, 0.6), scheme,
                               make_noise(seed0 + i, h, n)).states
                 for i in range(n_paths)]
        # (step, species, path), each row contiguous like the kernel's, so
        # the reductions add in the same order (the 16 equal starts of
        # step 0 have variance 0 only that way)
        states = np.ascontiguousarray(np.transpose(paths, (1, 2, 0)))
        # not bit for bit: the kernel folds Milstein's bracket into the
        # noise, and numpy's exp and math.exp may differ in the last bit
        assert np.allclose(stats.mean, states.mean(axis=2), rtol=1e-12, atol=0)
        assert np.allclose(stats.variance, states.var(axis=2), rtol=1e-12,
                           atol=0)

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

    @pytest.mark.parametrize("init, target, expected", [
        # the target holds the start: every path enters at step 0
        ((0.55, 0.6), Region(0.5, 0.6, 0.5, 0.7), [0.0] * 6),
        # not the start: path 0 enters at step 2, the others at step 1; from
        # (0.55, 0.6) no rectangle without the start holds a state of every
        # path at step 1 or 2, so this case starts lower
        ((0.55, 0.4), Region(0.555, 0.6, 0.0, 1.2), [0.4] + [0.2] * 5),
    ])
    def test_milstein_hitting_stops_before_positivity_loss(self, init, target,
                                                           expected):
        # the setup above, where path 4 loses positivity at step 3: once
        # every path has entered the target, hitting_time stops without
        # reaching the step that fails
        p = replace(STOCH, sigma2=2.3)
        seed0, n_paths, h = 2, 6, 0.2
        with pytest.raises(PositivityViolation) as exc:
            simulate_path(p, init, MILSTEIN, make_noise(seed0 + 4, h, 100))
        assert exc.value.step_index == 3
        rep = hitting_time(p, MILSTEIN, init, target, n_paths=n_paths,
                           seed0=seed0, t_cap=20.0, h=h)
        assert rep.times.tolist() == expected
        assert rep.fraction_censored == 0.0


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
