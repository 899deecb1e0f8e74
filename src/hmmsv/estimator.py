"""Expectation-maximization fitting, the Schwarz criterion, and order search."""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ModelConfig, ParameterSet, as_array, param_count, reorder_states
from .recursion import (
    StructuralZeroError,
    _inputs,
    _joint_loglik,
    _posterior_array,
    _posterior_pass,
    backward_pass,  # noqa: F401 -- unused here; bench/selftest.py checks that tracing rebinds it
    state_marginals,
)

_EMPTY_STATE_TOL = 1e-10


class EstimationError(RuntimeError):
    """No EM start produced a usable fit."""


class DegenerateStateWarning(UserWarning):
    """A state lost essentially all posterior weight during an M-step."""


@dataclass(frozen=True)
class EMSettings:
    """Knobs for the EM loop.

    rel_tolerance applies to the relative change of the log-likelihood between
    consecutive iterations.
    """

    max_iterations: int = 1000
    rel_tolerance: float = 1e-8
    n_starts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.rel_tolerance > 0:
            raise ValueError("rel_tolerance must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with the log-likelihood path and model criteria."""

    params: ParameterSet
    loglik: float
    npar: int
    bic: float
    trace: np.ndarray
    converged: bool
    start_index: int


def e_step(params, config: ModelConfig, y):
    """Joint window posteriors and the log-likelihood at the current parameters.

    Returns (joints, ll): joints is the (T, k**h, k) array of
    forward_joint_pass, so joints[t-1, :k**(t-1)] is the joint of
    (u_1, ..., u_t) for t <= h, and state_marginals(joints) gives the
    smoothed state probabilities. ll is log_likelihood's default, the path
    identity averaged over those joints, to rounding: long series of narrow
    windows run in overlapping chunks that agree with backward_pass to
    1e-12 (recursion._overlap_backward states the plan; see the README). As
    in backward_pass, a start whose peel fails its bound check reruns on
    logs; here a start whose joint at some occasion does not sum to one
    does too. If that fails as well, typically at an exact-zero transition,
    StructuralZeroError names the occasion, as in forward_joint_pass. fit
    and grid_search run it. The decode and predict commands take the same
    joints from the same pass, and compute no likelihood. Each joint is
    written over its own slice, and the likelihood reads the joints alone,
    so the route holds one posterior-sized array.

    params may also be a non-empty sequence of S parameter sets. They run
    through one batched pass whose arrays are time first; joints comes back
    as an (S, T, k**h, k) transposed view, so joints[i] is start i without a
    copy, and ll as a list of S floats, each start's bits as if alone. A
    StructuralZeroError carries the failing position in its start attribute.
    Each start's emission matrix is built once for the passes and likelihood.
    """
    batch = not isinstance(params, ParameterSet)
    group = list(params) if batch else [params]
    if not group:
        raise ValueError("e_step needs at least one parameter set")
    F, P = _inputs(group, config, y)
    k, h = config.k, config.h
    joints = _posterior_pass(F, P, k, h)
    lls = _joint_loglik(F, P, joints, k, h).tolist()
    return (joints.transpose(1, 0, 2, 3), lls) if batch else (joints[:, 0], lls[0])


def _normalize_rows(z: np.ndarray, k: int) -> np.ndarray:
    """Row-normalize counts; rows with no mass become uniform."""
    totals = z.sum(axis=1, keepdims=True)
    return np.divide(z, totals, out=np.full_like(z, 1.0 / k), where=totals > 0)


def _keep_support(z: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """z with every zero that prev holds positive raised to the smallest
    normal float."""
    return np.where((z == 0.0) & (prev > 0.0), np.finfo(float).tiny, z)


def m_step(joints: np.ndarray, y, config: ModelConfig, prev: ParameterSet | None = None) -> ParameterSet:
    """Closed-form update from the joint window posteriors of e_step.

    Volatilities become weighted root mean squares of the observations;
    transition rows are the normalized expected window counts, pooling all
    homogeneous occasions. A state with no posterior weight keeps its previous
    volatility (prev required) under a DegenerateStateWarning; conditioning
    rows that were never visited become uniform. With prev, an early or pi
    entry whose expected count underflowed to zero, where prev's is
    positive, becomes the smallest normal float instead: EM adds no exact
    zero that its start did not have, since the peel drops terms at exact
    zeros.
    """
    y_arr = as_array(y)
    k, h = config.k, config.h
    T = y_arr.size
    joints = _posterior_array(joints, config, "joints", T)
    w = state_marginals(joints)
    totals = w.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma = np.sqrt((w.T @ (y_arr * y_arr)) / totals)
    dead = ~((totals > _EMPTY_STATE_TOL) & np.isfinite(sigma) & (sigma > 1e-12))
    if dead.any():
        labels = ", ".join(str(v + 1) for v in np.nonzero(dead)[0])
        warnings.warn(f"state(s) {labels} received no posterior weight", DegenerateStateWarning, stacklevel=2)
        if prev is None:
            raise EstimationError(f"degenerate state(s) {labels} with no previous volatilities to keep")
        sigma = np.where(dead, prev.sigma, sigma)

    early = []
    for t in range(1, h + 1):
        z = joints[t - 1, : k ** (t - 1)] if t <= T else np.zeros((k ** (t - 1), k))
        early.append(_normalize_rows(z, k))
    # every occasion past h uses pi; the sum is zero when there are none
    pi = _normalize_rows(joints[h:].sum(axis=0), k)
    if prev is not None:
        early, pi = [_keep_support(z, p) for z, p in zip(early, prev.early)], _keep_support(pi, prev.pi)
    return ParameterSet(early=tuple(early), pi=pi, sigma=sigma)


def _initial_parameters(config: ModelConfig, y_arr, rng, quantile_start: bool) -> ParameterSet:
    """Quantile-banded volatilities with persistence-biased rows, or a fully
    random draw for the extra starts."""
    k, h = config.k, config.h
    scale = float(np.std(y_arr))
    if not scale > 0:
        scale = max(float(np.abs(y_arr).max()), 1.0)
    floor = 1e-3 * scale
    if quantile_start:
        # the median of |N(0, s)| is 0.6745 s, so each band lands near the
        # volatility that would generate it
        probs = (2.0 * np.arange(1, k + 1) - 1.0) / (2.0 * k)
        sigma = np.quantile(np.abs(y_arr), probs) / 0.6745
    else:
        sigma = np.sort(scale * np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=k)))
    sigma = np.maximum(sigma, floor)
    # no |y| exceeds 30 sigma of the widest state, whose density stays near
    # e**-450 = 2**-649 or above, clear of the rerun on logs' 2**-969 guard
    sigma[-1] = max(sigma[-1], float(np.abs(y_arr).max()) / 30.0)

    def draw_table(n_rows: int, biased: bool) -> np.ndarray:
        table = np.empty((n_rows, k))
        for r in range(n_rows):
            row = rng.dirichlet(np.ones(k))
            if biased:
                row = 0.2 * row
                row[r % k] += 0.8
            table[r] = row
        return table

    early = tuple(draw_table(k**i, biased=quantile_start and i > 0) for i in range(h))
    pi = draw_table(k**h, biased=quantile_start)
    return ParameterSet(early=early, pi=pi, sigma=sigma)


def _run_em(starts: list[ParameterSet], config: ModelConfig, y_arr, settings: EMSettings) -> list:
    """EM from every start in lockstep: at most max_iterations M-steps per
    start, each followed by an E-step.

    Each iteration runs one batched E-step over the active starts, then each
    start's convergence test and M-step. A start leaves the batch when it
    converges, runs out of M-steps or fails; a start's numbers do not depend
    on which others share its batch, so each equals a run of that start
    alone. Returns, per start, (params, trace, converged) or the error that
    stopped it.

    converged is True when two consecutive log-likelihoods agree to
    rel_tolerance before the M-steps run out, no step of the trace falls by
    more than that tolerance, and every state keeps posterior weight.
    """
    tol = settings.rel_tolerance
    params = list(starts)
    traces: list[list[float]] = [[] for _ in starts]
    outcomes: list = [None] * len(starts)
    active = list(range(len(starts)))
    while active:
        joints = None  # else the last E-step's joints live through this one
        try:
            joints, lls = e_step([params[s] for s in active], config, y_arr)
        except StructuralZeroError as exc:
            # the others redo this E-step without the failed start
            outcomes[active.pop(exc.start)] = exc
            continue
        remaining = []
        for i, s in enumerate(active):
            trace = traces[s]
            trace.append(lls[i])
            it = len(trace) - 1
            stop = it == settings.max_iterations
            converged = not stop and it > 0 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2]))
            if stop or converged:
                lls_s = np.asarray(trace)
                dropped = np.any(np.diff(lls_s) < -tol * np.maximum(1.0, np.abs(lls_s[:-1])))
                if dropped or np.any(state_marginals(joints[i]).sum(axis=0) < _EMPTY_STATE_TOL):
                    converged = False
                outcomes[s] = (params[s], lls_s, converged)
                continue
            params[s] = m_step(joints[i], y_arr, config, prev=params[s])
            remaining.append(s)
        active = remaining
    return outcomes


def fit(config: ModelConfig, y, settings: EMSettings | None = None) -> FitResult:
    """Best-of-several-starts EM estimate with its trace and criteria.

    The first start pins volatilities to quantile bands of |y| and biases
    transition rows toward persistence; remaining starts are random. All
    starts run EM in lockstep through one batched E-step per iteration (see
    _run_em and e_step), whose backward pass stages blocks of a fixed number
    of floats whatever T and the number of starts, and runs long series of
    narrow windows in overlapping chunks (recursion._block_span and
    recursion._overlap_backward; see the README). A start that fails
    drops out; the first start with the highest final log-likelihood wins.
    States in the returned parameters are relabeled so volatilities ascend.
    """
    settings = settings if settings is not None else EMSettings()
    y_arr = as_array(y)
    T = y_arr.size
    npar = param_count(config)
    n_starts = 1 if config.k == 1 else settings.n_starts

    starts = []
    for s in range(n_starts):
        rng = np.random.default_rng([settings.seed, s])
        starts.append(_initial_parameters(config, y_arr, rng, quantile_start=(s == 0)))
    best = None
    failures: list[str] = []
    for s, outcome in enumerate(_run_em(starts, config, y_arr, settings)):
        if isinstance(outcome, Exception):
            failures.append(f"start {s}: {outcome}")
            continue
        params, trace, converged = outcome
        if best is None or trace[-1] > best[0]:
            best = (trace[-1], s, params, trace, converged)
    if best is None:
        raise EstimationError("all starts failed: " + "; ".join(failures))
    ll, start_index, params, trace, converged = best
    order = np.argsort(params.sigma, kind="stable") + 1
    return FitResult(
        params=reorder_states(params, order),
        loglik=float(ll),
        npar=npar,
        bic=bic(float(ll), npar, T),
        trace=trace,
        converged=converged,
        start_index=start_index,
    )


def bic(loglik: float, npar: int, T: int) -> float:
    """Schwarz criterion -2 loglik + npar ln T; smaller is better."""
    if T < 1:
        raise ValueError(f"T must be positive, got {T}")
    return -2.0 * loglik + npar * math.log(T)


@dataclass(frozen=True)
class GridSearchResult:
    """Per-cell fits over the (h, k) grid and the selected order."""

    results: dict[tuple[int, int], FitResult]
    errors: dict[tuple[int, int], str]
    selected: tuple[int, int]

    @property
    def best(self) -> FitResult:
        return self.results[self.selected]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_cell(y_arr, h: int, k: int, settings: EMSettings | None) -> tuple:
    """One grid cell's FitResult, or the message of the model error that
    ended it, with the warnings it raised as (message, category, filename,
    lineno) tuples.

    The warnings are recorded under the filters in force, so a filter that
    ignores one drops it and one that turns it into an error raises.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = fit(ModelConfig(k=k, h=h), y_arr, settings)
        except (ValueError, EstimationError) as exc:
            outcome = str(exc)
    return outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _warn_again(recorded: list) -> None:
    """Raise recorded warnings again as from the module that raised them, so
    filters on that module and its once-per-location registry apply."""
    if not recorded:
        return
    modules = {getattr(mod, "__file__", None): mod for mod in list(sys.modules.values())}
    for message, category, filename, lineno in recorded:
        mod = modules.get(filename)
        # an explicit module=None would drop the warning
        where = () if mod is None else (mod.__name__, vars(mod).setdefault("__warningregistry__", {}))
        warnings.warn_explicit(message, category, filename, lineno, *where)


def _fork_pool(workers: int):
    """A pool of that many forked workers, or None where cells run here: one
    worker, no fork start method, or a daemonic process, which may not start
    children."""
    if workers < 2:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
        return None
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _fit_cells(y_arr, cells: list, settings: EMSettings | None) -> list:
    """_fit_cell's FitResult or error message for each (h, k) cell, in the
    order of cells.

    The cells run in forked workers, one per usable CPU up to one per cell,
    submitted costliest first by k**(2h+1) window entries per occasion; the
    results are gathered in cell order. Without a pool they run here, one
    after another. Each cell's numbers are the bits of fit on it alone either
    way. The warnings of every gathered cell are raised again here in cell
    order, also when a programming error propagates; that error cancels the
    cells not yet started and is the first that a serial loop would meet.
    """
    gathered: list = []
    pool = _fork_pool(min(len(cells), _usable_cpus()))
    try:
        if pool is None:
            for h, k in cells:
                gathered.append(_fit_cell(y_arr, h, k, settings))
        else:
            with pool:
                # abs and max keep the key defined for orders that fail at once
                order = sorted(cells, key=lambda c: abs(c[1]) ** max(2 * c[0] + 1, 0), reverse=True)
                futures = {cell: pool.submit(_fit_cell, y_arr, *cell, settings) for cell in order}
                try:
                    for cell in cells:
                        gathered.append(futures[cell].result())
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
    finally:
        _warn_again([w for _, recorded in gathered for w in recorded])
    return [outcome for outcome, _ in gathered]


def grid_search(y, h_values, k_values, settings: EMSettings | None = None) -> GridSearchResult:
    """Fit every (h, k) cell and pick the smallest BIC; ties favor the smaller cell.

    A cell whose model fails (a ValueError, such as an invalid order or a
    structural zero, or an EstimationError) is recorded under errors and
    skipped rather than aborting the whole search; any other exception is a
    programming error and propagates.

    The cells are independent fits, so they run side by side in forked
    worker processes, one per usable CPU (see _fit_cells); there is no knob.
    Results, errors, the selection and the error raised are those of fitting
    the cells one after another in (h, k) order, bit for bit, and the cells'
    warnings reach the caller in that order.
    """
    hs = sorted({int(v) for v in h_values})
    ks = sorted({int(v) for v in k_values})
    if not hs or not ks:
        raise ValueError("h and k grids must be non-empty")
    y_arr = as_array(y)
    cells = [(h, k) for h in hs for k in ks]
    results: dict[tuple[int, int], FitResult] = {}
    errors: dict[tuple[int, int], str] = {}
    selected = None
    best_bic = math.inf
    for cell, outcome in zip(cells, _fit_cells(y_arr, cells, settings)):
        if isinstance(outcome, str):
            errors[cell] = outcome
            continue
        results[cell] = outcome
        if outcome.bic < best_bic:
            best_bic = outcome.bic
            selected = cell
    if selected is None:
        raise EstimationError("every grid cell failed: " + "; ".join(f"{c}: {m}" for c, m in errors.items()))
    return GridSearchResult(results=results, errors=errors, selected=selected)
