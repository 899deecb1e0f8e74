import math

import numpy as np
import pytest

from hmmsv import (
    ModelConfig,
    ParameterSet,
    backward_pass,
    brute_force_joint,
    bw_backward,
    bw_forward,
    bw_posteriors,
    lag_chain_loglik,
    log_likelihood,
    simulate,
)

from conftest import random_instance, random_parameters


def first_order(k, rng=None, uniform=False):
    if uniform:
        early = (np.full((1, k), 1.0 / k),)
        pi = np.full((k, k), 1.0 / k)
        sigma = np.full(k, 1.3)
        return ModelConfig(k=k, h=1), ParameterSet(early=early, pi=pi, sigma=sigma)
    return ModelConfig(k=k, h=1), random_parameters(k, 1, rng)


def iid_loglik(y, s):
    return float(np.sum(-0.5 * np.log(2 * math.pi * s * s) - 0.5 * (y / s) ** 2))


def test_bw_forward_requires_first_order(rng):
    config = ModelConfig(k=2, h=2)
    params = random_parameters(2, 2, rng)
    with pytest.raises(ValueError):
        bw_forward(params, config, rng.normal(size=4))


def test_bw_forward_single_state_is_iid(rng):
    config = ModelConfig(k=1, h=1)
    params = ParameterSet(early=(np.array([[1.0]]),), pi=np.array([[1.0]]), sigma=np.array([1.7]))
    y = rng.normal(0, 1.7, size=40)
    tables = bw_forward(params, config, y)
    assert tables.loglik == pytest.approx(iid_loglik(y, 1.7), rel=1e-12)


def test_bw_forward_single_occasion_is_mixture(rng):
    config, params = first_order(3, rng)
    y = np.array([0.42])
    tables = bw_forward(params, config, y)
    mix = sum(
        params.early[0][0, v]
        * math.exp(-0.5 * (y[0] / params.sigma[v]) ** 2)
        / math.sqrt(2 * math.pi * params.sigma[v] ** 2)
        for v in range(3)
    )
    assert tables.loglik == pytest.approx(math.log(mix), rel=1e-12)


def test_bw_forward_agrees_with_enumeration(rng):
    config, params = first_order(2, rng)
    y = rng.normal(0, 2, size=5)
    tables = bw_forward(params, config, y)
    exact = brute_force_joint(params, config, y)
    assert tables.loglik == pytest.approx(exact.loglik, abs=1e-12)


def test_bw_backward_terminal_row_is_ones(rng):
    config, params = first_order(3, rng)
    tables = bw_backward(params, config, rng.normal(size=6))
    assert np.allclose(tables.backward[-1], 1.0)


def test_bw_backward_single_state_all_ones(rng):
    config = ModelConfig(k=1, h=1)
    params = ParameterSet(early=(np.array([[1.0]]),), pi=np.array([[1.0]]), sigma=np.array([0.9]))
    tables = bw_backward(params, config, rng.normal(size=12))
    assert np.allclose(tables.backward, 1.0)


def test_bw_backward_reconstructs_tail_density_ratios(rng):
    # scaled backward columns keep the ratios of f(y_{>t} | u_t), which the
    # enumeration oracle reproduces from full and truncated posteriors
    config, params = first_order(2, rng)
    y = rng.normal(0, 2, size=5)
    tables = bw_backward(params, config, y)
    full = brute_force_joint(params, config, y)
    for t in range(1, 5):
        trunc = brute_force_joint(params, config, y[:t])
        q_full = full.window_posterior([t])
        q_trunc = trunc.window_posterior([t])
        tail = q_full / q_trunc  # proportional to f(y_{>t} | u_t)
        expected = tail / tail[0]
        got = tables.backward[t - 1] / tables.backward[t - 1][0]
        assert np.allclose(got, expected, atol=1e-12)


def test_bw_posteriors_requires_complete_tables(rng):
    config, params = first_order(2, rng)
    with pytest.raises(ValueError):
        bw_posteriors(bw_forward(params, config, rng.normal(size=4)))


def test_bw_posteriors_single_state():
    config = ModelConfig(k=1, h=1)
    params = ParameterSet(early=(np.array([[1.0]]),), pi=np.array([[1.0]]), sigma=np.array([1.0]))
    marg, pair = bw_posteriors(bw_backward(params, config, np.array([0.1, -0.4, 2.0])))
    assert np.allclose(marg, 1.0)
    assert np.allclose(pair, 1.0)


def test_bw_posteriors_uniform_model_is_uniform(rng):
    config, params = first_order(3, uniform=True)
    marg, pair = bw_posteriors(bw_backward(params, config, rng.normal(size=7)))
    assert np.allclose(marg, 1.0 / 3, atol=1e-12)
    assert np.allclose(pair, 1.0 / 9, atol=1e-12)


def test_bw_posteriors_match_enumeration(rng):
    config, params = first_order(3, rng)
    y = rng.normal(0, 2, size=6)
    marg, pair = bw_posteriors(bw_backward(params, config, y))
    exact = brute_force_joint(params, config, y)
    for t in range(1, 7):
        assert np.allclose(marg[t - 1], exact.window_posterior([t]), atol=1e-12)
    for t in range(1, 6):
        assert np.allclose(
            pair[t - 1].reshape(-1), exact.window_posterior([t, t + 1]), atol=1e-12
        )


def test_bw_posteriors_internal_consistency(rng):
    config, params = first_order(4, rng)
    marg, pair = bw_posteriors(bw_backward(params, config, rng.normal(0, 1.5, size=30)))
    assert np.allclose(marg.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(pair.sum(axis=(1, 2)), 1.0, atol=1e-12)
    # pairwise slabs marginalize to the adjacent marginals
    assert np.abs(pair.sum(axis=2) - marg[:-1]).max() < 1e-12
    assert np.abs(pair.sum(axis=1) - marg[1:]).max() < 1e-12


def test_brute_force_single_state_iid(rng):
    config = ModelConfig(k=1, h=2)
    params = ParameterSet(
        early=(np.array([[1.0]]), np.array([[1.0]])), pi=np.array([[1.0]]), sigma=np.array([2.2])
    )
    y = rng.normal(0, 2.2, size=6)
    assert brute_force_joint(params, config, y).loglik == pytest.approx(iid_loglik(y, 2.2), rel=1e-12)


def test_brute_force_independence_factorizes(rng):
    config = ModelConfig(k=3, h=0)
    params = random_parameters(3, 0, rng)
    y = rng.normal(0, 2, size=5)
    exact = brute_force_joint(params, config, y)
    per_occasion = [
        math.log(
            sum(
                params.pi[0, v]
                * math.exp(-0.5 * (yt / params.sigma[v]) ** 2)
                / math.sqrt(2 * math.pi * params.sigma[v] ** 2)
                for v in range(3)
            )
        )
        for yt in y
    ]
    assert exact.loglik == pytest.approx(sum(per_occasion), rel=1e-12)


def test_brute_force_size_guard(rng):
    config, params = first_order(2, rng)
    with pytest.raises(ValueError):
        brute_force_joint(params, config, rng.normal(size=21))  # 2**21 paths


def test_brute_force_window_posterior_validation(rng):
    config, params = first_order(2, rng)
    result = brute_force_joint(params, config, rng.normal(size=4))
    with pytest.raises(ValueError):
        result.window_posterior([0, 1])
    with pytest.raises(ValueError):
        result.window_posterior([3, 2])
    with pytest.raises(ValueError):
        result.window_posterior([1, 5])


def test_lag_chain_matches_enumeration():
    # any order, structural zeros included
    config = ModelConfig(k=2, h=2)
    zero = ParameterSet(
        early=(np.array([[1.0, 0.0]]), np.array([[0.7, 0.3], [0.4, 0.6]])),
        pi=np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.8], [0.0, 1.0]]),
        sigma=np.array([1.0, 2.0]),
    )
    cases = [random_instance(seed, k_max=3, h_max=3, T_max=8) for seed in range(100)]
    cases.append((config, zero, np.array([0.3, -1.2, 2.5, 0.1, -0.7, 1.9, 0.4])))
    for config, params, y in cases:
        exact = brute_force_joint(params, config, y).loglik
        assert lag_chain_loglik(params, config, y) == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_lag_chain_matches_scaled_forward_at_first_order():
    for seed in range(20):
        config, params, y = random_instance(seed, h=1, k_max=4, T_max=300)
        assert lag_chain_loglik(params, config, y) == pytest.approx(bw_forward(params, config, y).loglik, rel=1e-12)


@pytest.mark.parametrize("k, h", [(3, 2), (2, 3)])
def test_lag_chain_matches_engine_on_long_series(k, h):
    # enumeration stops near T = 12 and bw_forward at h = 1; the lag chain
    # judges the engine at higher orders and full length
    rng = np.random.default_rng(100 * k + h)
    config = ModelConfig(k=k, h=h)
    params = random_parameters(k, h, rng, diag_bias=0.6)
    _, y = simulate(config, params, 2000, seed=h)
    ll = log_likelihood(params, config, y, backward_pass(params, config, y))
    assert lag_chain_loglik(params, config, y) == pytest.approx(ll, rel=1e-10)


def test_lag_chain_reports_zero_mass():
    # only state 1 is reachable; scaled by state 2's density, its row keeps
    # mass at 40 sigma and underflows at 60
    config = ModelConfig(k=2, h=0)
    params = ParameterSet(early=(), pi=np.array([[1.0, 0.0]]), sigma=np.array([1.0, 2.0]))
    assert lag_chain_loglik(params, config, [40.0]) == pytest.approx(iid_loglik(np.array([40.0]), 1.0), rel=1e-12)
    with pytest.raises(ValueError, match="zero forward mass at occasion 1"):
        lag_chain_loglik(params, config, [60.0])


def test_oracles_survive_an_outlier_beyond_every_volatility():
    # at 60 sigma every emission density underflows in linear space; every
    # oracle works from log densities and they agree
    config = ModelConfig(k=2, h=1)
    params = ParameterSet(
        early=(np.array([[0.5, 0.5]]),),
        pi=np.array([[0.9, 0.1], [0.2, 0.8]]),
        sigma=np.array([1.0, 1.2]),
    )
    y = np.array([0.3, -0.8, 60.0, 0.1, 1.2, -0.4])
    exact = brute_force_joint(params, config, y)
    assert exact.loglik == pytest.approx(-1258.15, abs=0.01)
    assert lag_chain_loglik(params, config, y) == pytest.approx(exact.loglik, rel=1e-12)
    tables = bw_backward(params, config, y)
    assert tables.loglik == pytest.approx(exact.loglik, rel=1e-12)
    marg, _ = bw_posteriors(tables)
    for t in range(1, 7):
        assert np.allclose(marg[t - 1], exact.window_posterior([t]), atol=1e-12)
