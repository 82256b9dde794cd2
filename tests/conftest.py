import tracemalloc

import numpy as np
import pytest

from lglab import ModelParams


def random_params(rng, m_mode="any", sigma=False):
    """One random parameter draw with log-uniform rates."""
    if m_mode == "zero":
        m = 0.0
    elif m_mode == "positive":
        m = float(rng.uniform(0.0005, 0.6))
    else:
        m = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0005, 0.6))
    kwargs = dict(
        a=float(10 ** rng.uniform(-1.5, 0.5)),
        b=float(10 ** rng.uniform(-1.5, 0.5)),
        k1=float(10 ** rng.uniform(-1.5, 0.5)),
        k2=float(10 ** rng.uniform(-1.5, 0.5)),
        m=m,
    )
    if sigma:
        kwargs["sigma1"] = float(rng.uniform(0, 2))
        kwargs["sigma2"] = float(rng.uniform(0, 2))
    return ModelParams(**kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20250826)


def traced_peak(fn, *args, **kwargs):
    """The peak of the memory tracemalloc traces while fn(*args, **kwargs)
    runs, in bytes, and fn's result."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
