import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import (
    InvalidParams,
    KinkPoint,
    ModelParams,
    RawParams,
    jacobian,
    load_params,
    nondimensionalize,
    vector_field,
)
from lglab.model import _field_scalar, _partials
from lglab.ode_sim import _field_batch

from conftest import random_params


def numeric_jacobian(p, state, step=1e-6):
    """Central-difference oracle for the Jacobian."""
    x, y = state
    J = np.empty((2, 2))
    for j, (dx, dy) in enumerate([(step, 0.0), (0.0, step)]):
        fp = vector_field(p, (x + dx, y + dy))
        fm = vector_field(p, (x - dx, y - dy))
        J[0, j] = (fp[0] - fm[0]) / (2 * step)
        J[1, j] = (fp[1] - fm[1]) / (2 * step)
    return J


class TestParams:
    def test_positivity_enforced(self):
        with pytest.raises(InvalidParams):
            ModelParams(a=0.0, b=1, k1=1, k2=1)
        with pytest.raises(InvalidParams):
            ModelParams(a=1, b=1, k1=1, k2=1, m=1.0)
        with pytest.raises(InvalidParams):
            ModelParams(a=1, b=1, k1=1, k2=1, sigma1=-0.1)

    @pytest.mark.parametrize("field, value, match", [
        ("a", math.inf, "a must be strictly positive"),
        ("b", math.inf, "b must be strictly positive"),
        ("k1", math.inf, "k1 must be strictly positive"),
        ("k2", math.inf, "k2 must be strictly positive"),
        ("sigma1", math.nan, "noise intensities must be nonnegative"),
        ("sigma1", math.inf, "noise intensities must be nonnegative"),
        ("sigma2", math.nan, "noise intensities must be nonnegative"),
        ("sigma2", math.inf, "noise intensities must be nonnegative"),
    ])
    def test_non_finite_rejected(self, field, value, match):
        with pytest.raises(InvalidParams, match=match):
            ModelParams(**{"a": 1, "b": 1, "k1": 1, "k2": 1, field: value})

    RAW = {"rho1": 1, "rho2": 1, "beta": 1, "alpha1": 1, "alpha2": 1,
           "kappa1": 1, "kappa2": 1}

    @pytest.mark.parametrize("field", list(RAW))
    def test_raw_non_finite_rejected(self, field):
        with pytest.raises(InvalidParams, match=f"{field} must be strictly"):
            RawParams(**{**self.RAW, field: math.inf})

    @pytest.mark.parametrize("value", [True, False, np.True_])
    @pytest.mark.parametrize("field", [
        "a", "b", "k1", "k2", "m", "sigma1", "sigma2", *RAW, "mu"])
    def test_boolean_field_rejected(self, field, value):
        if field in ModelParams.__dataclass_fields__:
            record, base = ModelParams, {"a": 1, "b": 1, "k1": 1, "k2": 1}
        else:
            record, base = RawParams, self.RAW
        with pytest.raises(InvalidParams,
                           match=f"^{field} must be a number, not a boolean$"):
            record(**{**base, field: value})

    def test_numbers_keep_their_type(self):
        p = load_params('{"a": 1, "b": 0.1, "k1": 2, "k2": 0.2, "m": 0}')
        assert json.dumps(p.to_dict()) == (
            '{"a": 1, "b": 0.1, "k1": 2, "k2": 0.2, "m": 0, '
            '"sigma1": 0.0, "sigma2": 0.0}')

    def test_raw_validation(self):
        with pytest.raises(InvalidParams):
            RawParams(rho1=1, rho2=1, beta=1, alpha1=1, alpha2=1,
                      kappa1=1, kappa2=1, mu=1.0)  # mu >= rho1/beta

    def test_identity_rescaling(self):
        raw = RawParams(rho1=1, rho2=1, beta=1, alpha1=1, alpha2=1,
                        kappa1=1, kappa2=1, mu=0.25)
        p = nondimensionalize(raw)
        assert p == ModelParams(a=1, b=1, k1=1, k2=1, m=0.25)

    def test_rescaling_formulas(self):
        raw = RawParams(rho1=2.0, rho2=0.5, beta=0.4, alpha1=3.0,
                        alpha2=1.5, kappa1=0.7, kappa2=0.9, mu=1.0)
        p = nondimensionalize(raw, sigma1=0.1, sigma2=0.2)
        assert p.a == pytest.approx(3.0 * 0.5 / (1.5 * 2.0))
        assert p.b == pytest.approx(0.25)
        assert p.k1 == pytest.approx(0.7 * 0.4 / 2.0)
        assert p.k2 == pytest.approx(0.9 * 0.4 / 2.0)
        assert p.m == pytest.approx(1.0 * 0.4 / 2.0)
        assert (p.sigma1, p.sigma2) == (0.1, 0.2)

    def test_load_params_roundtrip(self, tmp_path):
        p = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025)
        assert load_params(p.to_dict()) == p
        assert load_params(json.dumps(p.to_dict())) == p
        f = tmp_path / "p.json"
        f.write_text(json.dumps(p.to_dict()))
        assert load_params(str(f)) == p

    def test_load_params_file_named_like_json(self, tmp_path, monkeypatch):
        # "123" parses as JSON, but a file of that name is read as the file
        p = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "123").write_text(json.dumps(p.to_dict()))
        assert load_params("123") == p
        with pytest.raises(FileNotFoundError, match="nope.json"):
            load_params("nope.json")

    def test_load_params_raw_key(self):
        obj = {"raw": {"rho1": 1, "rho2": 1, "beta": 1, "alpha1": 1,
                       "alpha2": 1, "kappa1": 1, "kappa2": 1, "mu": 0.1}}
        assert load_params(obj) == ModelParams(a=1, b=1, k1=1, k2=1, m=0.1)

    def test_load_params_rejects_unknown(self):
        with pytest.raises(InvalidParams):
            load_params({"a": 1, "b": 1, "k1": 1, "k2": 1, "gamma": 2})

    @pytest.mark.parametrize("obj, match", [
        ({"b": 1, "k1": 1, "k2": 1}, "missing 1 required positional argument: 'a'"),
        ({"a": "x", "b": 1, "k1": 1, "k2": 1}, "not supported between"),
        ({"a": None, "b": 1, "k1": 1, "k2": 1}, "not supported between"),
        ({"raw": dict(RAW, gamma=2)}, "unexpected keyword argument 'gamma'"),
        ({"raw": {"rho1": 1}}, "missing 6 required positional arguments"),
        ({"raw": dict(RAW, mu="0.1")}, "not supported between"),
        ({"raw": RAW, "sigma1": "0.1"}, "not supported between"),
        ({"raw": RAW, "a": 2}, "unexpected keyword argument 'a'"),
        ({"raw": [1, 2]}, "must be a mapping"),
        ([1, 2], "must be a mapping"),
    ])
    def test_load_params_rejects_bad_record(self, obj, match):
        with pytest.raises(InvalidParams, match=match):
            load_params(obj)


class TestField:
    def test_refuge_shuts_off_predation(self):
        p = ModelParams(a=2.0, b=0.3, k1=0.1, k2=0.2, m=0.4)
        v1, v2 = vector_field(p, (0.3, 0.5))  # x < m
        assert v1 == 0.3 * 0.7
        assert v2 == 0.3 * 0.5 * (1 - 0.5 / 0.2)

    def test_one_point_gives_python_floats(self, rng):
        # Python numbers, numpy scalars and 0-d arrays alike
        p = random_params(rng)
        want = vector_field(p, (0.4, 0.0))
        for x, y in ((0.4, 0), (np.float64(0.4), np.int64(0)),
                     (np.array(0.4), np.array(0.0))):
            got = vector_field(p, (x, y))
            assert got == want and all(type(v) is float for v in got)

    def test_broadcast_matches_scalar(self, rng):
        p = random_params(rng)
        xs = rng.uniform(0, 1.2, 50)
        ys = rng.uniform(0, 1.2, 50)
        # vector_field takes one point; arrays go to the batch kernel
        with pytest.raises(TypeError):
            vector_field(p, (xs, ys))
        # the batch kernel writing into out/work given as row pairs or as
        # (2, n) arrays, with float or 0-d parameters, at stage inputs an
        # integrator meets: x < m, x == m, signed zeros, negative values
        p = random_params(rng, m_mode="positive")
        params = (p.a, p.b, p.k1, p.k2, p.m)
        xs = np.array([*xs[:6], 0.5 * p.m, p.m, 0.0, -0.0, -1e-13, -0.0])
        ys = np.array([*ys[:6], 0.3, 0.4, -0.0, 0.2, 0.5, -1e-13])
        want = np.array([_field_scalar(*params, x, y)
                         for x, y in zip(xs.tolist(), ys.tolist())]).T
        n = len(xs)
        for pair in (lambda: np.empty((2, n)),
                     lambda: (np.empty(n), np.empty(n))):
            for args in (params, [np.array(v) for v in params]):
                out, work = pair(), pair()
                got = _field_batch(*args, xs, ys, out=out, work=work)
                assert np.array(got).tobytes() == want.tobytes()
                assert np.array(out).tobytes() == want.tobytes()

    @pytest.mark.parametrize("state, match", [
        # answered (nan, nan), (nan, 0.05) and (-2.0, -0.075) before
        ((math.nan, 0.5), "closed quadrant"),
        ((math.inf, 0.5), "must be finite"),
        ((-1.0, 0.5), "closed quadrant"),
        ((0.5, -math.inf), "closed quadrant"),
        ((np.float64(0.5), np.float64(math.nan)), "closed quadrant"),
    ])
    def test_refuses_what_jacobian_refuses(self, state, match):
        p = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025)
        for f in (vector_field, jacobian):
            with pytest.raises(ValueError, match=f"^state .*{match}"):
                f(p, state)

    @given(st.floats(0, 1.5), st.floats(0, 1.5))
    @settings(max_examples=50, deadline=None)
    def test_axes_are_invariant(self, x, y):
        p = ModelParams(a=0.5, b=0.1, k1=0.08, k2=0.2, m=0.0025)
        assert vector_field(p, (0.0, y))[0] == 0.0
        assert vector_field(p, (x, 0.0))[1] == 0.0


class TestJacobian:
    def test_matches_finite_differences(self, rng):
        for _ in range(30):
            p = random_params(rng)
            x = float(rng.uniform(0, 1.2))
            y = float(rng.uniform(0.01, 1.2))
            if abs(x - p.m) < 1e-3:
                x = p.m + 1e-2
            J = jacobian(p, (x, y))
            Jn = numeric_jacobian(p, (x, y))
            assert np.allclose(J, Jn, rtol=1e-6, atol=1e-8)

    def test_kink_raises(self):
        p = ModelParams(a=1, b=1, k1=1, k2=1, m=0.3)
        with pytest.raises(KinkPoint):
            jacobian(p, (0.3, 0.5))
        # m = 0 has no kink: the positive-part switch is inactive at 0
        p0 = ModelParams(a=1, b=1, k1=1, k2=1, m=0.0)
        jacobian(p0, (0.0, 0.5))

    @pytest.mark.parametrize("state, match", [
        ((math.nan, 0.5), "closed quadrant"),
        ((0.5, -3.0), "closed quadrant"),
        ((0.5, math.inf), "^state must be finite"),
    ])
    def test_state_outside_quadrant_refused(self, state, match):
        p = ModelParams(a=1, b=1, k1=1, k2=1, m=0.3)
        with pytest.raises(ValueError, match=match):
            jacobian(p, state)


def test_partials_match_sympy(rng):
    # sympy differentiates the field right of the refuge line, where
    # (x - m)_+ = x - m; every partial of orders 1-3 of both components is
    # compared, the absent ones against 0, at random points x > m
    import sympy as sp

    x, y, a, b, k1, k2, m = sp.symbols("x y a b k1 k2 m")
    v1 = x * (1 - x) - a * y * (x - m) / (k1 + x - m)
    v2 = b * y * (1 - y / (k2 + x - m))
    keys = [(i, n - i) for n in (1, 2, 3) for i in range(n + 1)]
    refs = [{key: sp.lambdify((x, y, a, b, k1, k2, m),
                              sp.diff(v, x, key[0], y, key[1]), "math")
             for key in keys} for v in (v1, v2)]
    for _ in range(200):
        p = random_params(rng)
        x0 = p.m + float(rng.uniform(1e-3, 1.0))
        y0 = float(rng.uniform(0.01, 1.5))
        b0 = float(10 ** rng.uniform(-2.0, 0.5))
        for ref_of, d in zip(refs, _partials(p, x0, y0, b0)):
            ref = {key: f(x0, y0, p.a, b0, p.k1, p.k2, p.m)
                   for key, f in ref_of.items()}
            # sympy's unsimplified forms cancel differently; compare against
            # the component's largest partial, as the eigenbasis test does
            scale = max(abs(r) for r in ref.values())
            for key, r in ref.items():
                got = d.get(key, 0.0)
                assert abs(got - r) <= 1e-10 * max(abs(r), scale), (
                    p.to_dict(), x0, y0, b0, key, got, r)
