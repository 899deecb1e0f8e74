import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hmmsv import (
    InvalidParameterError,
    ModelConfig,
    ObservationSeries,
    ParameterSet,
    brute_force_joint,
    emission_matrix,
    param_count,
    reorder_states,
    simulate,
    validate,
)

from conftest import random_parameters


def make_params(early, pi, sigma):
    return ParameterSet(early=tuple(np.asarray(e) for e in early), pi=np.asarray(pi), sigma=np.asarray(sigma))


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ModelConfig(k=0, h=1)
    with pytest.raises(ValueError):
        ModelConfig(k=2, h=-1)
    for k, h in ((True, 1), (2, False), (2.0, 1), (2, 1.0)):
        with pytest.raises(ValueError, match="must be a"):
            ModelConfig(k=k, h=h)


# ---------------------------------------------------------------------------
# parameter counting


@pytest.mark.parametrize(
    "h,k,expected",
    [
        (1, 3, 11),
        (2, 4, 67),
        (0, 1, 1),
    ],
)
def test_param_count_spot_values(h, k, expected):
    assert param_count(ModelConfig(k=k, h=h)) == expected


@pytest.mark.parametrize("h", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_param_count_matches_free_coordinates(h, k, rng):
    params = random_parameters(k, h, rng)
    rows = sum(t.shape[0] for t in params.early) + params.pi.shape[0]
    free = k + rows * (k - 1)
    assert param_count(ModelConfig(k=k, h=h)) == free


# ---------------------------------------------------------------------------
# emission density


def density(y, s):
    """Scalar entry of the emission matrix for one observation and one volatility."""
    return float(emission_matrix([y], [s])[0, 0])


def test_emission_standard_normal_mode():
    assert density(0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-12)


def test_emission_one_sigma_ratio():
    for s in (0.3, 1.0, 4.2):
        at_zero = density(0.0, s)
        assert density(s, s) == pytest.approx(at_zero * math.exp(-0.5), rel=1e-12)


def test_emission_frozen_value():
    # independent scalar evaluation of (2 pi s^2)^(-1/2) exp(-y^2 / (2 s^2))
    assert density(2.0, 1.609) == pytest.approx(0.1145108221189711, abs=1e-14)


@pytest.mark.parametrize("s", [0.2, 0.865, 1.609, 3.770])
def test_emission_integrates_to_one(s):
    total, _ = quad(lambda y: density(y, s), -10 * s, 10 * s)
    assert total == pytest.approx(1.0, abs=1e-6)


# |y / s| stays below ~38 so the double-precision density cannot underflow
@given(y=st.floats(-30, 30), s=st.floats(0.8, 20))
@settings(deadline=None, max_examples=60)
def test_emission_positive_and_symmetric(y, s):
    d = density(y, s)
    assert d > 0
    assert d == pytest.approx(density(-y, s), rel=1e-12)


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_valid_set(rng):
    params = random_parameters(3, 2, rng)
    assert validate(params, ModelConfig(k=3, h=2)) == []


def test_validate_reports_bad_row_sum():
    params = make_params([[[0.5, 0.5]]], [[0.5, 0.4], [0.3, 0.7]], [1.0, 2.0])
    problems = validate(params, ModelConfig(k=2, h=1))
    assert len(problems) == 1
    assert "row (1)" in problems[0] and "0.9" in problems[0]


def test_validate_reports_nonpositive_sigma():
    params = make_params([[[0.5, 0.5]]], [[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0])
    problems = validate(params, ModelConfig(k=2, h=1))
    assert any("state 2" in p for p in problems)


def test_validate_reports_negative_entry_and_shape():
    params = make_params([[[1.5, -0.5]]], [[0.5, 0.5], [0.5, 0.5]], [1.0, 2.0])
    problems = validate(params, ModelConfig(k=2, h=1))
    assert any("negative" in p for p in problems)
    wrong_shape = make_params([], [[0.5, 0.5]], [1.0, 2.0])
    problems = validate(wrong_shape, ModelConfig(k=2, h=1))
    assert problems
    three_sigmas = make_params([[[0.5, 0.5]]], [[0.5, 0.5], [0.5, 0.5]], [1.0, 2.0, 3.0])
    assert validate(three_sigmas, ModelConfig(k=2, h=1)) == ["sigma has shape (3,), expected (2,)"]
    nan_pi = make_params([[[0.5, 0.5]]], [[0.5, np.nan], [0.5, 0.5]], [1.0, 2.0])
    assert validate(nan_pi, ModelConfig(k=2, h=1)) == ["homogeneous transitions contain non-finite entries"]


# ---------------------------------------------------------------------------
# simulation


def test_simulate_single_state_chain():
    config = ModelConfig(k=1, h=1)
    params = make_params([[[1.0]]], [[1.0]], [2.0])
    states, series = simulate(config, params, 50, seed=1)
    assert np.all(states == 1)
    assert len(series) == 50
    # weak sanity on the scale: sample std of N(0, 2) over 50 draws
    assert 1.0 < np.std(series.y) < 3.5


def test_simulate_absorbing_chain_is_constant():
    config = ModelConfig(k=2, h=1)
    params = make_params([[[0.5, 0.5]]], np.eye(2), [1.0, 3.0])
    for seed in range(6):
        states, _ = simulate(config, params, 40, seed=seed)
        assert np.all(states == states[0])


def test_simulate_rejects_bad_length_and_params():
    config = ModelConfig(k=2, h=1)
    params = make_params([[[0.5, 0.5]]], [[0.9, 0.1], [0.2, 0.8]], [1.0, 2.0])
    with pytest.raises(ValueError):
        simulate(config, params, 0, seed=1)
    broken = make_params([[[0.5, 0.5]]], [[0.9, 0.2], [0.2, 0.8]], [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        simulate(config, broken, 5, seed=1)


def test_simulate_deterministic_per_seed():
    config = ModelConfig(k=3, h=2)
    params = random_parameters(3, 2, np.random.default_rng(5))
    s1, y1 = simulate(config, params, 200, seed=99)
    s2, y2 = simulate(config, params, 200, seed=99)
    s3, _ = simulate(config, params, 200, seed=100)
    assert np.array_equal(s1, s2) and np.array_equal(y1.y, y2.y)
    assert not np.array_equal(s1, s3)


def test_simulate_empirical_frequencies_recover_pi():
    config = ModelConfig(k=2, h=1)
    pi = np.array([[0.85, 0.15], [0.25, 0.75]])
    params = make_params([[[0.5, 0.5]]], pi, [1.0, 3.0])
    T = 100_000
    states, _ = simulate(config, params, T, seed=7)
    counts = np.zeros((2, 2))
    for a, b in zip(states[:-1] - 1, states[1:] - 1):
        counts[a, b] += 1
    totals = counts.sum(axis=1, keepdims=True)
    freq = counts / totals
    assert np.abs(freq - pi).max() < 0.01
    # each cell within three binomial standard errors
    se = np.sqrt(pi * (1 - pi) / totals)
    assert np.all(np.abs(freq - pi) <= 3 * se)


def reference_simulate(config, params, T, seed):
    """Per-occasion sampler over params.transition(t): searchsorted on the
    cumulative row of the lag window, capped at k - 1."""
    k, h = config.k, config.h
    rng = np.random.default_rng(seed)
    u = rng.random(T)
    states0 = np.empty(T, dtype=np.int64)
    for t in range(1, T + 1):
        lags = states0[max(t - 1 - h, 0) : t - 1]
        row = int(np.ravel_multi_index(tuple(lags), (k,) * lags.size)) if lags.size else 0
        cum = np.cumsum(params.transition(t)[row])
        states0[t - 1] = min(int(np.searchsorted(cum, u[t - 1], side="right")), k - 1)
    return states0 + 1, rng.normal(0.0, params.sigma[states0])


def with_exact_zeros(params, rng):
    """params with about a third of each table's entries set to exactly zero,
    keeping one positive entry per row, rows renormalized."""

    def zero(table):
        keep = rng.random(table.shape) > 0.35
        keep[np.arange(table.shape[0]), rng.integers(0, table.shape[1], size=table.shape[0])] = True
        out = np.where(keep, table, 0.0)
        return out / out.sum(axis=1, keepdims=True)

    return ParameterSet(early=tuple(zero(e) for e in params.early), pi=zero(params.pi), sigma=params.sigma)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("h", [0, 1, 2, 3])
def test_simulate_matches_per_occasion_reference(k, h):
    config = ModelConfig(k=k, h=h)
    rng = np.random.default_rng(100 * k + h)
    for zeros in (False, True):
        params = random_parameters(k, h, rng)
        if zeros:
            params = with_exact_zeros(params, rng)
        for T in sorted({1, h, h + 1, 200} - {0}):
            for seed in range(3):
                states, series = simulate(config, params, T, seed=seed)
                ref_states, ref_y = reference_simulate(config, params, T, seed)
                assert np.array_equal(states, ref_states) and states.dtype == ref_states.dtype
                assert np.array_equal(series.y, ref_y)


# ---------------------------------------------------------------------------
# containers and relabeling


def test_observation_series_validation():
    with pytest.raises(ValueError):
        ObservationSeries(np.array([]))
    with pytest.raises(ValueError):
        ObservationSeries(np.array([1.0, np.inf]))
    series = ObservationSeries([0.1, -0.2])
    assert series.T == 2 and len(series) == 2


def test_parameters_are_frozen(rng):
    params = random_parameters(2, 1, rng)
    with pytest.raises(ValueError):
        params.pi[0, 0] = 0.5
    with pytest.raises(ValueError):
        params.sigma[0] = 9.0


def test_reorder_states_preserves_likelihood(rng):
    config = ModelConfig(k=3, h=1)
    params = random_parameters(3, 1, rng)
    y = rng.normal(0, 2, size=5)
    swapped = reorder_states(params, [3, 1, 2])
    assert np.allclose(swapped.sigma, params.sigma[[2, 0, 1]])
    ll_a = brute_force_joint(params, config, y).loglik
    ll_b = brute_force_joint(swapped, config, y).loglik
    assert ll_a == pytest.approx(ll_b, abs=1e-12)
    with pytest.raises(ValueError):
        reorder_states(params, [1, 1, 2])


def test_reorder_states_rejects_truncated_or_flattened_labels(rng):
    # the same label rule as predict and log_likelihood(reference=...)
    params = random_parameters(2, 1, rng)
    with pytest.raises(ValueError, match="order must be integers, got 1.9"):
        reorder_states(params, [1.9, 2.2])
    with pytest.raises(ValueError, match=r"order must be a flat sequence of labels, got shape \(1, 2\)"):
        reorder_states(params, [[2, 1]])
    with pytest.raises(ValueError, match="order must be a permutation of 1..2"):
        reorder_states(params, [2, 2])
    assert np.array_equal(reorder_states(params, [2.0, 1.0]).sigma, params.sigma[::-1])
