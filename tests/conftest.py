import numpy as np
import pytest

from hmmsv import ModelConfig, ParameterSet
from hmmsv.recursion import _backward_pass, _inputs


def random_parameters(k, h, rng, diag_bias=0.0, sigma_range=(0.4, 4.0)):
    """Strictly positive random parameter set; diag_bias > 0 favors staying put."""

    def table(rows):
        out = rng.dirichlet(np.ones(k), size=rows)
        if diag_bias and k > 1:
            for r in range(rows):
                out[r] = (1.0 - diag_bias) * out[r]
                out[r, r % k] += diag_bias
        return out

    early = tuple(table(k**i) for i in range(h))
    pi = table(k**h)
    sigma = np.sort(rng.uniform(*sigma_range, size=k))
    return ParameterSet(early=early, pi=pi, sigma=sigma)


def random_instance(seed, k=None, h=None, T=None, k_max=3, h_max=2, T_max=6):
    """Small random model plus data, convenient for oracle comparisons."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, k_max + 1)) if k is None else k
    h = int(rng.integers(0, h_max + 1)) if h is None else h
    T = int(rng.integers(1, T_max + 1)) if T is None else T
    config = ModelConfig(k=k, h=h)
    params = random_parameters(k, h, rng)
    y = rng.normal(0.0, 2.0, size=T)
    return config, params, y


def outlier_probe(trial):
    """Draw number trial (0-based) of a fixed k = 2 outlier probe: one or two
    observations 36.5 to 38.6 times the largest sigma out, where an emission
    density falls below the smallest normal float. Returns (config, params, y)."""
    rng = np.random.default_rng(0)
    for _ in range(trial + 1):
        h = int(rng.integers(1, 4))
        T = int(rng.integers(h + 3, 11))
        params = random_parameters(2, h, rng, sigma_range=(1.0, 1.05))
        y = rng.normal(0, 1, T)
        idx = rng.choice(T, rng.integers(1, 3), replace=False)
        y[idx] = rng.uniform(36.5, 38.6, idx.size) * params.sigma.max() * rng.choice([-1, 1], idx.size)
    return ModelConfig(k=2, h=h), params, y


def underflowing_set():
    """(config, params, y) at k = 2, h = 2 whose window numerators at t = 2
    have positive factors but products that underflow: read as zeros, they
    make the linear peel drop terms and the joint at t = 1 sum to 1.82."""
    config = ModelConfig(k=2, h=2)
    params = ParameterSet(
        early=(np.array([[0.5, 0.5]]), np.array([[1 - 6e-7, 6e-7], [5e-185, 1.0]])),
        pi=np.array([[1.0, 2e-155], [0.5, 0.5], [0.5, 0.5], [2e-151, 1.0]]),
        sigma=np.array([1.5, 2.2]),
    )
    return config, params, np.array([0.6, -0.1, -1.4, 1.8, 0.3, 1.0])


def batched_slices(group, config, y):
    """(T, S, k**h, k) slices of the parameter sets in group from one batched
    pass, time first like the engine; [:, i] is the set group[i]."""
    F, P = _inputs(group, config, y)
    return _backward_pass(F, P, config.k, config.h)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
