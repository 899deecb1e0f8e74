import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmsv import (
    DegenerateStateWarning,
    EMSettings,
    EstimationError,
    InvalidParameterError,
    ModelConfig,
    ParameterSet,
    StructuralZeroError,
    backward_pass,
    bic,
    brute_force_joint,
    bw_backward,
    bw_posteriors,
    e_step,
    fit,
    forward_joint_pass,
    grid_search,
    ingest,
    lag_chain_loglik,
    local_decode,
    log_likelihood,
    m_step,
    param_count,
    posterior_joints,
    predict,
    simulate,
    state_marginals,
)
from hmmsv import recursion
from hmmsv.cli import _json_text, load_params, main, params_payload
from hmmsv.estimator import _initial_parameters, _run_em
from hmmsv.recursion import _inputs, _log_backward_pass

from conftest import batched_slices, random_instance, random_parameters, underflowing_set


def npdf_log(y, s):
    return -0.5 * math.log(2 * math.pi * s * s) - 0.5 * (y / s) ** 2


# ---------------------------------------------------------------------------
# E-step


def test_e_step_single_state(rng):
    config = ModelConfig(k=1, h=1)
    params = ParameterSet(early=(np.array([[1.0]]),), pi=np.array([[1.0]]), sigma=np.array([2.0]))
    joints, ll = e_step(params, config, rng.normal(0, 2, size=10))
    assert np.allclose(state_marginals(joints), 1.0)
    assert np.allclose(joints, 1.0)
    assert math.isfinite(ll)


def test_e_step_matches_scaled_smoother(rng):
    config = ModelConfig(k=3, h=1)
    params = random_parameters(3, 1, rng)
    y = rng.normal(0, 2, size=40)
    joints, ll = e_step(params, config, y)
    tables = bw_backward(params, config, y)
    marg, pair = bw_posteriors(tables)
    assert np.abs(state_marginals(joints) - marg).max() < 1e-10
    for t in range(2, 41):
        assert np.abs(joints[t - 1].reshape(-1) - pair[t - 2].reshape(-1)).max() < 1e-10
    assert ll == pytest.approx(tables.loglik, abs=1e-9)


def test_e_step_matches_enumeration(rng):
    config, params, y = random_instance(17, k=2, h=2, T=5)
    joints, ll = e_step(params, config, y)
    exact = brute_force_joint(params, config, y)
    for t in range(1, 6):
        n_vars = min(t, 3)
        window = list(range(t - n_vars + 1, t + 1))
        z = joints[t - 1, : 2 ** (n_vars - 1)].reshape(-1)
        assert np.abs(z - exact.window_posterior(window)).max() < 1e-10
        assert np.abs(state_marginals(joints)[t - 1] - exact.window_posterior([t])).max() < 1e-10
    assert ll == pytest.approx(exact.loglik, abs=1e-10)


def test_e_step_count_consistency(rng):
    # the oldest variable summed out of z_t equals the newest summed out of
    # z_{t+1}: both are the posterior of the shared sub-window
    config, params, y = random_instance(29, k=2, h=2, T=8)
    joints, _ = e_step(params, config, y)
    k, h = config.k, config.h
    for t in range(h + 1, 8):
        left = joints[t - 1].reshape(k, -1).sum(axis=0)
        right = joints[t].reshape(-1, k).sum(axis=1)
        assert np.allclose(left, right, atol=1e-10)
    assert np.allclose(state_marginals(joints).sum(axis=1), 1.0, atol=1e-10)


def test_e_step_needs_a_parameter_set(rng):
    config = ModelConfig(k=2, h=1)
    with pytest.raises(ValueError, match="at least one parameter set"):
        e_step([], config, rng.normal(size=5))
    # every set must be of the model's (k, h)
    other = random_parameters(3, 1, rng)
    with pytest.raises(InvalidParameterError, match=r"is for \(k=3, h=1\), model expects \(k=2, h=1\)"):
        e_step([random_parameters(2, 1, rng), other], config, rng.normal(size=5))
    with pytest.raises(InvalidParameterError, match=r"is for \(k=3, h=1\)"):
        backward_pass(other, config, rng.normal(size=5))


# ---------------------------------------------------------------------------
# M-step


def test_m_step_all_weight_on_first_state(rng):
    config = ModelConfig(k=2, h=0)
    y = rng.normal(0, 1.5, size=12)
    T = y.size
    w = np.zeros((T, 2))
    w[:, 0] = 1.0
    prev = random_parameters(2, 0, rng)
    with pytest.warns(DegenerateStateWarning):
        updated = m_step(w.reshape(T, 1, 2), y, config, prev=prev)
    assert updated.sigma[0] == pytest.approx(math.sqrt(np.mean(y**2)), rel=1e-12)
    assert updated.sigma[1] == prev.sigma[1]
    with pytest.raises(EstimationError):
        with pytest.warns(DegenerateStateWarning):
            m_step(w.reshape(T, 1, 2), y, config)


def test_m_step_deterministic_path_gives_indicators(rng):
    config = ModelConfig(k=2, h=1)
    path = np.array([1, 2, 2, 1, 2])  # 1-based states
    T = path.size
    w = np.zeros((T, 2))
    w[np.arange(T), path - 1] = 1.0
    z = np.zeros((T, 2, 2))
    z[0, 0] = w[0]
    for t in range(1, T):
        z[t, path[t - 1] - 1, path[t] - 1] = 1.0
    updated = m_step(z, y=rng.normal(size=T), config=config)
    assert np.allclose(updated.early[0][0], [1.0, 0.0])
    # visited transitions become counts-proportional rows; the path visits
    # 1->2 once, 2->2 once, 2->1 once
    assert np.allclose(updated.pi[0], [0.0, 1.0])
    assert np.allclose(updated.pi[1], [0.5, 0.5])


def test_m_step_unvisited_rows_become_uniform(rng):
    config = ModelConfig(k=2, h=1)
    path = np.array([1, 1, 1, 1])
    T = path.size
    w = np.zeros((T, 2))
    w[np.arange(T), path - 1] = 1.0
    z = np.zeros((T, 2, 2))
    z[0, 0] = w[0]
    for t in range(1, T):
        z[t] = np.outer(w[t - 1], w[t])
    with pytest.warns(DegenerateStateWarning):
        updated = m_step(z, rng.normal(size=T), config, prev=random_parameters(2, 1, rng))
    assert np.allclose(updated.pi[0], [1.0, 0.0])
    assert np.allclose(updated.pi[1], [0.5, 0.5])  # never left state 1


def expected_complete_loglik(params, joints, y, config):
    k, h = config.k, config.h
    w = state_marginals(joints)
    total = 0.0
    for t in range(1, y.size + 1):
        for v in range(k):
            total += w[t - 1, v] * npdf_log(y[t - 1], params.sigma[v])
        table = params.transition(t).reshape(-1)
        z = joints[t - 1, : k ** min(t - 1, h)].reshape(-1)
        with np.errstate(divide="ignore"):
            logs = np.where(z > 0, np.log(np.where(table > 0, table, 1.0)), 0.0)
        total += float((z * logs).sum())
    return total


def test_m_step_maximizes_expected_complete_loglik(rng):
    config, params, y = random_instance(41, k=2, h=1, T=10)
    joints, _ = e_step(params, config, y)
    best = m_step(joints, y, config)
    q_best = expected_complete_loglik(best, joints, y, config)
    for _ in range(1000):
        noise = rng.normal(0, 0.08, size=best.pi.shape)
        pi = np.clip(best.pi + noise, 1e-6, None)
        pi /= pi.sum(axis=1, keepdims=True)
        lam = np.clip(best.early[0] + rng.normal(0, 0.08, size=(1, 2)), 1e-6, None)
        lam /= lam.sum(axis=1, keepdims=True)
        sigma = best.sigma * np.exp(rng.normal(0, 0.05, size=2))
        alt = ParameterSet(early=(lam,), pi=pi, sigma=sigma)
        assert expected_complete_loglik(alt, joints, y, config) <= q_best + 1e-12


def test_m_step_checks_the_joint_shape(rng):
    # (50, 3, 3) joints used to become a 3-state fit of a 2-state model
    config, params, y = random_instance(3, k=2, h=1, T=50)
    with pytest.raises(ValueError, match=r"joints must have shape .* = \(50, 2, 2\), got \(50, 3, 3\)"):
        m_step(np.full((50, 3, 3), 1.0 / 9), y, config, prev=params)


# ---------------------------------------------------------------------------
# fit


def test_fit_single_state_closed_form(rng):
    y = rng.normal(0, 2.3, size=64)
    res = fit(ModelConfig(k=1, h=0), y, EMSettings(n_starts=1))
    assert res.params.sigma[0] == pytest.approx(math.sqrt(np.mean(y**2)), rel=1e-10)
    assert res.converged
    assert res.npar == 1
    assert res.bic == pytest.approx(-2 * res.loglik + math.log(64), rel=1e-12)


def test_fit_single_state_on_stale_prices():
    # more than half the returns are exactly zero, so the quantile start's
    # median |y| is 0; the widest starting sigma is floored at max |y| / 30,
    # so no emission row falls below the guard of the rerun on logs, and EM
    # reaches the closed form
    rng = np.random.default_rng(0)
    y = rng.normal(size=30) * (rng.random(30) >= 0.5)
    assert np.median(np.abs(y)) == 0.0
    start = _initial_parameters(ModelConfig(k=1, h=0), y, np.random.default_rng(0), quantile_start=True)
    assert start.sigma[0] == np.abs(y).max() / 30.0
    res = fit(ModelConfig(k=1, h=0), y)
    assert res.params.sigma[0] == pytest.approx(math.sqrt(np.mean(y**2)), rel=1e-10)
    assert res.converged
    with pytest.warns(DegenerateStateWarning):
        grid = grid_search(y, [0, 1], [1, 2], EMSettings(n_starts=2, max_iterations=30))
    assert grid.errors == {}


def test_fit_on_a_series_without_spread():
    # np.std is 0, so the random starts take their scale from the largest |y|
    config = ModelConfig(k=2, h=0)
    y = np.full(30, -2.5)
    sigma = _initial_parameters(config, y, np.random.default_rng(3), quantile_start=False).sigma
    draw = np.random.default_rng(3).uniform(np.log(0.25), np.log(4.0), size=2)
    assert np.array_equal(sigma, np.sort(2.5 * np.exp(draw)))
    res = fit(config, y, EMSettings(n_starts=2, max_iterations=50))
    assert np.allclose(res.params.sigma, 2.5) and math.isfinite(res.loglik)


def test_fit_monotone_trace_and_sorted_sigma(rng):
    config = ModelConfig(k=2, h=1)
    truth = ParameterSet(
        early=(np.array([[0.5, 0.5]]),),
        pi=np.array([[0.9, 0.1], [0.15, 0.85]]),
        sigma=np.array([1.0, 3.0]),
    )
    _, series = simulate(config, truth, 400, seed=3)
    res = fit(config, series, EMSettings(n_starts=2, seed=1, max_iterations=200))
    assert np.all(np.diff(res.trace) >= -1e-9)
    assert np.all(np.diff(res.params.sigma) >= 0)
    assert res.npar == param_count(config)
    assert res.bic == pytest.approx(-2 * res.loglik + res.npar * math.log(400), rel=1e-12)
    # the fitted likelihood dominates the generating parameters
    exact_truth = e_step(truth, config, series)[1]
    assert res.loglik >= exact_truth - 1e-6


def test_fit_one_iteration_matches_smoother_built_update(rng):
    # one EM update assembled from the scaled smoother's posteriors
    config = ModelConfig(k=2, h=1)
    params = random_parameters(2, 1, rng, diag_bias=0.3)
    y = rng.normal(0, 1.8, size=50)
    joints, _ = e_step(params, config, y)
    updated = m_step(joints, y, config)

    marg, pair = bw_posteriors(bw_backward(params, config, y))
    sigma = np.sqrt((marg * (y**2)[:, None]).sum(axis=0) / marg.sum(axis=0))
    lam1 = marg[0]
    pooled = pair.sum(axis=0)
    pi = pooled / pooled.sum(axis=1, keepdims=True)
    assert np.abs(updated.sigma - sigma).max() < 1e-8
    assert np.abs(updated.early[0][0] - lam1).max() < 1e-8
    assert np.abs(updated.pi - pi).max() < 1e-8


@given(seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=10)
def test_fit_em_trace_is_monotone(seed):
    config, params, _ = random_instance(seed, T=1)
    _, series = simulate(config, params, 60, seed=seed % 1000)
    res = fit(config, series, EMSettings(n_starts=1, seed=2, max_iterations=40))
    assert np.all(np.diff(res.trace) >= -1e-9)


def underflow_fit(seed):
    """A draw of test_fit_em_trace_is_monotone: (config, series, its fit)."""
    config, params, _ = random_instance(seed, T=1)
    _, series = simulate(config, params, 60, seed=seed % 1000)
    return config, series, fit(config, series, EMSettings(n_starts=1, seed=2, max_iterations=40))


@pytest.mark.parametrize("seed", [15, 197, 226, 262, 336, 599, 891])
def test_fit_em_trace_underflow_draws(seed):
    # draws of test_fit_em_trace_is_monotone whose EM drives transitions
    # toward 1e-156 and below: the linear peel read products of them as
    # zeros and dropped terms, so every start failed
    config, series, res = underflow_fit(seed)
    assert np.all(np.diff(res.trace) >= -1e-9)
    assert res.loglik == pytest.approx(lag_chain_loglik(res.params, config, series), rel=1e-8)


def test_bound_failure_costs_no_second_backward_pass(monkeypatch):
    # the fitted set of seed 226 breaks the linear peel's bound; the backward
    # pass reruns that start on logs itself, so the batch runs once
    config, series, res = underflow_fit(226)
    other = random_parameters(config.k, config.h, np.random.default_rng(1))
    batches = []
    backward = recursion._backward_pass
    monkeypatch.setattr(recursion, "_backward_pass", lambda F, *rest: batches.append(F.shape[1]) or backward(F, *rest))
    joints, lls = e_step([other, res.params], config, series)
    assert batches == [2]
    for i, params in enumerate([other, res.params]):
        alone = e_step(params, config, series)
        assert np.array_equal(joints[i], alone[0]) and lls[i] == alone[1]


@pytest.mark.parametrize("seed", [226, 262])
def test_public_passes_repair_the_peel_bound(seed, tmp_path, capsys):
    # backward_pass reruns the fitted set on logs, as e_step does, so the
    # public chain, decode and predict take it too
    config, series, res = underflow_fit(seed)
    slices = backward_pass(res.params, config, series)
    F, P = _inputs([res.params], config, series)
    assert np.array_equal(slices, _log_backward_pass(F[:, 0], P[0], config.k, config.h))
    joints, ll = e_step(res.params, config, series)
    assert np.array_equal(forward_joint_pass(slices, config), joints)
    assert log_likelihood(res.params, config, series, slices) == ll
    params_file, data = tmp_path / "params.json", tmp_path / "y.csv"
    params_file.write_text(_json_text(params_payload(config, res.params)))
    data.write_text("".join(f"{v:.17g}\n" for v in series.y))
    for command in ("decode", "predict"):
        assert main([command, "--params", str(params_file), "--input", str(data)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("seed", [197, 336, 891])
def test_cli_runs_the_e_step_route_on_joint_mass_failures(seed, tmp_path, capsys):
    # the reference chain backward_pass -> forward_joint_pass rejects these
    # fitted sets at the joint-mass check; decode and predict run
    # posterior_joints, which reruns the start on logs as e_step does, so
    # they accept what fit wrote
    config, series, res = underflow_fit(seed)
    params_file, data = tmp_path / "params.json", tmp_path / "y.csv"
    params_file.write_text(_json_text(params_payload(config, res.params)))
    data.write_text("".join(f"{v:.17g}\n" for v in series.y))
    _, params = load_params(params_file)
    y = ingest(data).y
    with pytest.raises(StructuralZeroError, match="joint at t="):
        forward_joint_pass(backward_pass(params, config, y), config)
    joints = e_step(params, config, y)[0]
    common = ["--params", str(params_file), "--input", str(data), "--format", "csv"]
    dec, pred = tmp_path / "dec.csv", tmp_path / "pred.csv"
    assert main(["decode", *common, "--out", str(dec)]) == 0
    assert main(["predict", *common, "--out", str(pred)]) == 0
    capsys.readouterr()
    want = [",".join(f"{q:.10g}" for q in row) for row in state_marginals(joints)]
    assert [line.split(",", 2)[2] for line in dec.read_text().splitlines()[1:]] == want
    next_state = predict(params, config, local_decode(state_marginals(joints))).next_state
    assert pred.read_text().splitlines()[1] == f"next_state,{next_state}"


def test_e_step_holds_one_posterior_array():
    # each joint is written over its slice and the likelihood reads the
    # joints alone, in blocks: e_step peaks at 1.82 posterior-sized arrays
    # here, as posterior_joints does, the rest being the emission rows and
    # the staged blocks; a likelihood that also read the slices would hold 2.34
    config = ModelConfig(k=3, h=2)
    params = random_parameters(3, 2, np.random.default_rng(11), diag_bias=0.6)
    _, series = simulate(config, params, 20_000, seed=11)
    tracemalloc.start()
    try:
        e_step(params, config, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * series.T * 3**3 * 8
    # the public passes chain a copy: the caller's slices keep their bits
    slices = backward_pass(params, config, series)
    kept = slices.copy()
    log_likelihood(params, config, series, slices)
    assert np.array_equal(slices, kept)
    forward_joint_pass(slices, config)
    assert np.array_equal(slices, kept)


@pytest.mark.parametrize("case", ["plain", "overlap chunks", "rerun on logs"])
def test_posterior_joints_are_e_steps_bits(case, monkeypatch):
    # the joints written over the slices are e_step's, bit for bit, on the
    # sequential pass, on EM's overlap chunks and after a rerun on logs
    if case == "plain":
        config = ModelConfig(k=3, h=2)
        params = random_parameters(3, 2, np.random.default_rng(3), diag_bias=0.5)
        y = simulate(config, params, 1_200, seed=3)[1].y
    elif case == "overlap chunks":
        config = ModelConfig(k=2, h=1)
        params = random_parameters(2, 1, np.random.default_rng(4), diag_bias=0.8)
        y = simulate(config, params, 3_000, seed=4)[1].y
    else:
        config, params, y = underflowing_set()
    widths, reruns = [], []
    backward, relog = recursion._backward_pass, recursion._relog
    monkeypatch.setattr(recursion, "_backward_pass", lambda F, *rest: widths.append(F.shape[1]) or backward(F, *rest))
    monkeypatch.setattr(recursion, "_relog", lambda *args: reruns.append(args[2]) or relog(*args))
    joints = posterior_joints(params, config, y)
    assert (widths[0] > 1) == (case == "overlap chunks")
    assert reruns == ([0] if case == "rerun on logs" else [])
    assert np.array_equal(joints, e_step(params, config, y)[0])


def test_batched_rerun_on_logs_chains_its_start_alone(monkeypatch):
    # the middle start's linear slices fail the joint mass, so it reruns on
    # logs into its own array, which the forward pass chains alone; the
    # starts beside it keep the bits of their solo runs
    config, bad, y = underflowing_set()
    rng = np.random.default_rng(5)
    group = [random_parameters(2, 2, rng), bad, random_parameters(2, 2, rng)]
    alone = [e_step(params, config, y) for params in group]
    widths = []
    forward = recursion._forward_joint_pass
    monkeypatch.setattr(recursion, "_forward_joint_pass", lambda Q, *rest: widths.append(Q.shape[1]) or forward(Q, *rest))
    joints, lls = e_step(group, config, y)
    assert widths == [3, 1]
    for i, (want_joints, want_ll) in enumerate(alone):
        assert np.array_equal(joints[i], want_joints)
        assert lls[i] == want_ll


def test_posterior_joints_hold_one_posterior_array():
    # the joints written over the slices peak at 1.39 posterior-sized
    # arrays here, the rest being the emission rows and the staged blocks
    config = ModelConfig(k=3, h=2)
    params = random_parameters(3, 2, np.random.default_rng(11), diag_bias=0.6)
    _, series = simulate(config, params, 50_000, seed=11)
    tracemalloc.start()
    try:
        posterior_joints(params, config, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * series.T * 3**3 * 8


def test_m_step_keeps_the_support_of_prev():
    # the pair posteriors put no mass on (1 -> 2); only with prev is that an
    # underflow, not a structural zero
    config = ModelConfig(k=2, h=1)
    joints = np.array([[[0.6, 0.4], [0.0, 0.0]], [[0.5, 0.0], [0.2, 0.3]], [[0.7, 0.0], [0.0, 0.3]]])
    y = np.array([0.3, -1.1, 0.7])
    free = m_step(joints, y, config)
    assert free.pi[0, 1] == 0.0
    prev = ParameterSet(early=(np.array([[0.5, 0.5]]),), pi=np.full((2, 2), 0.5), sigma=np.array([1.0, 2.0]))
    kept = m_step(joints, y, config, prev=prev)
    assert kept.pi[0, 1] == np.finfo(float).tiny
    assert np.array_equal(np.delete(kept.pi.ravel(), 1), np.delete(free.pi.ravel(), 1))
    assert np.array_equal(kept.early[0], free.early[0]) and np.array_equal(kept.sigma, free.sigma)
    # a zero that prev holds too stays
    prev = ParameterSet(early=prev.early, pi=np.array([[1.0, 0.0], [0.5, 0.5]]), sigma=prev.sigma)
    assert m_step(joints, y, config, prev=prev).pi[0, 1] == 0.0


def test_fit_fixed_point_after_convergence(rng):
    config = ModelConfig(k=2, h=1)
    truth = ParameterSet(
        early=(np.array([[0.5, 0.5]]),),
        pi=np.array([[0.92, 0.08], [0.1, 0.9]]),
        sigma=np.array([1.0, 3.5]),
    )
    _, series = simulate(config, truth, 600, seed=9)
    res = fit(config, series, EMSettings(n_starts=1, seed=5, rel_tolerance=1e-12, max_iterations=3000))
    assert res.converged
    joints, _ = e_step(res.params, config, series)
    again = m_step(joints, series, config, prev=res.params)
    assert np.abs(again.sigma - res.params.sigma).max() < 1e-6
    assert np.abs(again.pi - res.params.pi).max() < 1e-6
    assert np.abs(again.early[0] - res.params.early[0]).max() < 1e-6


def test_fit_likelihood_drop_is_not_convergence(monkeypatch):
    # the last two values agree, but the trace fell on the way there
    import hmmsv.estimator

    real_e_step = hmmsv.estimator.e_step
    lls = iter([-10.0, -9.0, -9.5, -9.5])

    def scripted_e_step(params, config, y):
        # fit hands e_step its starts as one batch, here a batch of one
        return real_e_step(params, config, y)[0], [next(lls)]

    monkeypatch.setattr(hmmsv.estimator, "e_step", scripted_e_step)
    res = fit(ModelConfig(k=1, h=0), np.array([0.3, -1.2, 0.8]), EMSettings(n_starts=1))
    assert np.array_equal(res.trace, [-10.0, -9.0, -9.5, -9.5])
    assert not res.converged


# ---------------------------------------------------------------------------
# lockstep starts


@given(seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=25)
def test_e_step_batch_matches_single_starts(seed):
    config, params, y = random_instance(seed, k_max=4, h_max=3, T_max=60)
    rng = np.random.default_rng(seed)
    group = [params] + [random_parameters(config.k, config.h, rng, diag_bias=0.5) for _ in range(2)]
    alone = []
    for p in group:
        try:
            alone.append(backward_pass(p, config, y))
        except StructuralZeroError:
            alone.append(None)
    failed = [i for i, a in enumerate(alone) if a is None]
    if failed:
        with pytest.raises(StructuralZeroError) as info:
            e_step(group, config, y)
        assert info.value.start in failed
        return
    slices = batched_slices(group, config, y)
    joints, lls = e_step(group, config, y)
    for i, p in enumerate(group):
        solo_joints, solo_ll = e_step(p, config, y)
        assert np.array_equal(slices[:, i], alone[i])
        assert np.array_equal(joints[i], solo_joints)
        assert lls[i] == solo_ll == log_likelihood(p, config, y, alone[i])


def _params_parts(params):
    return [params.sigma, params.pi, *params.early]


def test_lockstep_starts_equal_their_solo_runs():
    # the starts leave the batch at different iterations; each one's
    # parameters, trace and convergence flag are those of its run alone
    config = ModelConfig(k=2, h=1)
    truth = ParameterSet(
        early=(np.array([[0.5, 0.5]]),),
        pi=np.array([[0.9, 0.1], [0.15, 0.85]]),
        sigma=np.array([1.0, 3.0]),
    )
    _, series = simulate(config, truth, 300, seed=12)
    y = series.y
    settings = EMSettings(max_iterations=40, rel_tolerance=1e-6)
    starts = [_initial_parameters(config, y, np.random.default_rng([0, s]), s == 0) for s in range(5)]
    together = _run_em(starts, config, y, settings)
    assert len({len(trace) for _, trace, _ in together}) > 1
    assert {converged for _, _, converged in together} == {True, False}
    for start, (params, trace, converged) in zip(starts, together):
        ((solo_params, solo_trace, solo_converged),) = _run_em([start], config, y, settings)
        assert np.array_equal(trace, solo_trace)
        assert converged == solo_converged
        for got, want in zip(_params_parts(params), _params_parts(solo_params)):
            assert np.array_equal(got, want)


def test_fit_drops_a_start_that_breaks_the_peel_bound(monkeypatch):
    # start 0 drives transitions to about 1e-150 and trips the linear peel's
    # bound check; the pass on logs fits it, better than start 1
    config, _, y = random_instance(0, k_max=4, h_max=3, T_max=40)
    res = fit(config, y, EMSettings(n_starts=2, max_iterations=60))
    assert res.start_index == 0
    assert res.loglik == pytest.approx(-39.467, abs=0.005)
    assert res.loglik == pytest.approx(lag_chain_loglik(res.params, config, y), rel=1e-8)
    # a start that breaks the bound on logs too is dropped; start 1 fits
    import hmmsv.recursion

    def log_pass_out_of_bounds(F, P, k, h):
        raise hmmsv.recursion._bound_error()

    monkeypatch.setattr(hmmsv.recursion, "_log_backward_pass", log_pass_out_of_bounds)
    res = fit(config, y, EMSettings(n_starts=2, max_iterations=60))
    assert res.start_index == 1
    assert res.loglik == pytest.approx(-40.35, abs=0.005)
    with pytest.raises(EstimationError, match=r"start 0: peel produced entries outside \[0, 1\]"):
        fit(config, y, EMSettings(n_starts=1, max_iterations=60))


def test_fit_names_every_failed_start(monkeypatch):
    import hmmsv.estimator

    def failing_e_step(params, config, y):
        # the first start of every batch fails, so the starts fail in turn
        raise StructuralZeroError(f"first of {len(params)} starts failed", start=0)

    monkeypatch.setattr(hmmsv.estimator, "e_step", failing_e_step)
    config, _, y = random_instance(50, k_max=4, h_max=3, T_max=40)
    with pytest.raises(EstimationError, match="all starts failed: start 0: .*; start 1: "):
        fit(config, y, EMSettings(n_starts=2, max_iterations=60))


def test_fit_propagates_other_value_errors(monkeypatch, rng):
    import hmmsv.estimator

    def broken_m_step(*args, **kwargs):
        raise ValueError("broken m_step")

    monkeypatch.setattr(hmmsv.estimator, "m_step", broken_m_step)
    with pytest.raises(ValueError, match="broken m_step"):
        fit(ModelConfig(k=2, h=1), rng.normal(0, 1.5, size=40), EMSettings(n_starts=3, max_iterations=5))


def test_emission_matrix_built_once_per_start_per_e_step(monkeypatch, rng):
    import hmmsv.core
    import hmmsv.recursion

    calls = []
    real = hmmsv.core.emission_matrix

    def counting(y, sigma):
        calls.append(1)
        return real(y, sigma)

    monkeypatch.setattr(hmmsv.recursion, "emission_matrix", counting)
    config = ModelConfig(k=2, h=1)
    y = rng.normal(0, 1.5, size=80)
    e_step([random_parameters(2, 1, rng) for _ in range(3)], config, y)
    assert len(calls) == 3
    calls.clear()
    # no start converges in 4 M-steps at this tolerance, so each runs 5 E-steps
    fit(config, y, EMSettings(n_starts=3, max_iterations=4, rel_tolerance=1e-15))
    assert len(calls) == 3 * 5


@pytest.mark.parametrize(("n_starts", "limit_mib"), [(1, 16), (10, 42)])
def test_fit_staging_memory_is_bounded(n_starts, limit_mib):
    # the backward pass stages blocks of about recursion._STAGE_FLOATS
    # floats whatever T and the number of starts are. Ten starts add two
    # arrays of the slices' size, 15.45 MiB each: the slices, which the
    # likelihood logs in place, and the joints (33.7 MiB traced in all).
    # Keeping the last E-step's joints through the next one would add a
    # third (49.1 MiB)
    y = np.random.default_rng(7).normal(0.0, 1.5, size=2500)
    tracemalloc.start()
    try:
        fit(ModelConfig(k=3, h=3), y, EMSettings(n_starts=n_starts, max_iterations=2, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_fit_validates_settings():
    with pytest.raises(ValueError):
        EMSettings(max_iterations=0)
    with pytest.raises(ValueError):
        EMSettings(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        EMSettings(n_starts=0)
    with pytest.raises(ValueError):
        EMSettings(seed=-1)


# ---------------------------------------------------------------------------
# BIC


def test_bic_formula_and_edge_cases():
    assert bic(0.0, 0, 5) == 0.0
    assert bic(-100.0, 3, 50) == pytest.approx(200.0 + 3 * math.log(50), rel=1e-14)
    with pytest.raises(ValueError):
        bic(-1.0, 1, 0)


def test_bic_reproduces_published_cells():
    # printed to two decimals, so compare at that resolution
    assert abs(round(bic(-1778.00, 11, 1007), 2) - 3632.05) <= 0.01 + 1e-9
    assert abs(round(bic(-2026.60, 1, 1007), 2) - 4060.12) <= 0.01 + 1e-9


# ---------------------------------------------------------------------------
# grid search


def test_grid_single_cell(rng):
    y = rng.normal(0, 1.2, size=40)
    out = grid_search(y, [0], [1], EMSettings(n_starts=1))
    assert out.selected == (0, 1)
    assert out.best.npar == 1
    assert not out.errors


def test_grid_requires_nonempty(rng):
    with pytest.raises(ValueError):
        grid_search(rng.normal(size=10), [], [1])


def test_grid_records_failed_cells(rng):
    y = rng.normal(0, 1.2, size=30)
    out = grid_search(y, [-1, 0], [1], EMSettings(n_starts=1))
    assert (-1, 1) in out.errors
    assert out.selected == (0, 1)
    with pytest.raises(EstimationError):
        grid_search(y, [-1], [1], EMSettings(n_starts=1))


def test_grid_propagates_programming_errors(rng, monkeypatch):
    import hmmsv.estimator

    def broken_fit(*args, **kwargs):
        raise TypeError("broken fit")

    monkeypatch.setattr(hmmsv.estimator, "fit", broken_fit)
    with pytest.raises(TypeError, match="broken fit"):
        grid_search(rng.normal(size=30), [0, 1], [1, 2], EMSettings(n_starts=1))


def test_grid_selects_true_order_small(rng):
    config = ModelConfig(k=2, h=1)
    truth = ParameterSet(
        early=(np.array([[0.5, 0.5]]),),
        pi=np.array([[0.95, 0.05], [0.05, 0.95]]),
        sigma=np.array([1.0, 4.0]),
    )
    _, series = simulate(config, truth, 700, seed=21)
    out = grid_search(series, [0, 1], [1, 2], EMSettings(n_starts=2, seed=3, max_iterations=300))
    assert out.selected == (1, 2)
    # nested models cannot beat larger ones by more than convergence slack
    for h in (0, 1):
        assert out.results[(h, 1)].loglik <= out.results[(h, 2)].loglik + 0.02


# the pool's grid: a failing order (h = -1), a closed-form cell (k = 1) and
# windows of order two
POOL_GRID = ([-1, 0, 2], [1, 2, 3])
fork_only = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")


def stale_price_returns():
    """Returns with about half the days exactly zero, as from a stale price
    file: EM warns as states lose their weight."""
    rng = np.random.default_rng(1)
    return rng.normal(size=30) * (rng.random(30) >= 0.5)


def grid_with_cpus(monkeypatch, cpus, y, settings, h_values=POOL_GRID[0], k_values=POOL_GRID[1]):
    """grid_search as on a host with that many usable CPUs, with whether it
    used a pool and the warnings that reached the caller."""
    import hmmsv.estimator

    pools = []
    fork_pool = hmmsv.estimator._fork_pool
    monkeypatch.setattr(hmmsv.estimator, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(hmmsv.estimator, "_fork_pool", lambda n: pools.append(fork_pool(n)) or pools[-1])
    with pytest.warns(DegenerateStateWarning) as caught:
        out = grid_search(y, h_values, k_values, settings)
    assert not multiprocessing.active_children()
    return out, pools[0] is not None, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@fork_only
def test_grid_pool_gives_the_one_worker_bits(monkeypatch):
    y, settings = stale_price_returns(), EMSettings(n_starts=2, max_iterations=30, seed=0)
    pooled, used_pool, pooled_warnings = grid_with_cpus(monkeypatch, 2, y, settings)
    serial, used_serial_pool, serial_warnings = grid_with_cpus(monkeypatch, 1, y, settings)
    assert used_pool and not used_serial_pool
    assert set(pooled.errors) == {(-1, 1), (-1, 2), (-1, 3)}
    assert {(0, 1), (2, 1), (2, 3)} <= set(pooled.results)
    assert pooled.errors == serial.errors
    assert pooled.selected == serial.selected
    assert list(pooled.results) == list(serial.results)
    for cell, got in pooled.results.items():
        want = serial.results[cell]
        for a, b in zip(_params_arrays(got.params), _params_arrays(want.params)):
            assert a.tobytes() == b.tobytes(), cell
        assert got.trace.tobytes() == want.trace.tobytes(), cell
        assert (got.loglik, got.bic, got.npar) == (want.loglik, want.bic, want.npar), cell
        assert (got.converged, got.start_index) == (want.converged, want.start_index), cell
    # the same warnings, in the same order, from the line that raised them
    assert len(pooled_warnings) == len(serial_warnings) > 0
    assert pooled_warnings == serial_warnings


@fork_only
def test_grid_pool_warns_in_cell_order(rng, monkeypatch):
    import warnings

    import hmmsv.estimator

    real_fit = hmmsv.estimator.fit

    def noisy_fit(config, *args, **kwargs):
        # from a file that is no module's, as from code built at run time
        warnings.warn_explicit(UserWarning(f"cell {config.h},{config.k}"), UserWarning, "<cell>", 1)
        return real_fit(config, *args, **kwargs)

    monkeypatch.setattr(hmmsv.estimator, "fit", noisy_fit)
    y = rng.normal(size=40)
    for cpus in (2, 1):
        monkeypatch.setattr(hmmsv.estimator, "_usable_cpus", lambda: cpus)
        with pytest.warns(UserWarning) as caught:
            grid_search(y, [0, 1, 2], [1, 2], EMSettings(n_starts=1, max_iterations=5))
        cells = [str(w.message) for w in caught if str(w.message).startswith("cell ")]
        assert cells == [f"cell {h},{k}" for h in (0, 1, 2) for k in (1, 2)]
        assert not multiprocessing.active_children()


def _params_arrays(params):
    return [params.sigma, params.pi, *params.early]


@fork_only
def test_grid_pool_raises_the_first_programming_error_in_cell_order(rng, monkeypatch):
    import hmmsv.estimator

    def broken_fit(config, *args, **kwargs):
        raise TypeError(f"broken cell {config.h},{config.k}")

    monkeypatch.setattr(hmmsv.estimator, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(hmmsv.estimator, "fit", broken_fit)
    # (3, 2) is submitted first, (1, 1) comes first in (h, k) order
    with pytest.raises(TypeError, match=r"^broken cell 1,1$"):
        grid_search(rng.normal(size=30), [1, 2, 3], [1, 2], EMSettings(n_starts=1))
    assert not multiprocessing.active_children()


def _grid_cells(y):
    out = grid_search(y, [0, 1], [1, 2], EMSettings(n_starts=1, max_iterations=20))
    return out.selected, {cell: res.loglik for cell, res in out.results.items()}


@fork_only
def test_grid_runs_inline_in_a_daemonic_process(rng, monkeypatch):
    import hmmsv.estimator

    # a daemonic process may not start children, so the cells run in it
    monkeypatch.setattr(hmmsv.estimator, "_usable_cpus", lambda: 2)
    y = rng.normal(size=60)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_grid_cells, (y,)) == _grid_cells(y)


def test_import_leaves_process_pools_unloaded():
    # grid_search imports them when it forks; an import that loads them
    # costs every process about 19 ms of start-up
    import hmmsv

    code = "import sys, hmmsv; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hmmsv.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
