"""Reference implementations used to cross-check the peeling engine.

Three independent routes: scaled forward-backward smoothing for first-order
chains, a scaled forward recursion over the chain of lag windows that gives
the likelihood for any order at any length, and exact enumeration over all
state paths for any order on short series. The scaled recursions
deliberately carry the per-occasion renormalization that the peeling engine
does without.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ModelConfig, ParameterSet, _check_compat, as_array

MAX_PATHS = 1_000_000


def _log_emission(y_arr: np.ndarray, sigma) -> np.ndarray:
    """(T, k) zero-mean Gaussian log densities, never exponentiated, so an
    outlier far beyond every volatility stays finite."""
    sigma = np.asarray(sigma, dtype=float)
    z = y_arr[:, None] / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class ForwardBackwardTables:
    """Scaled forward/backward tables for a first-order chain.

    forward rows are the normalized filtering distributions and log_scale
    accumulates the per-occasion normalizers, so loglik = log_scale.sum().
    emission rows are scaled by their largest density, found in logs, and
    log_scale adds each row's log scale back, so outliers that underflow
    every density in linear space keep a finite likelihood. backward is
    scaled by the normalizers of the scaled rows, where each row's scale
    cancels, which makes forward * backward the smoothed marginals without
    further normalization; bw_posteriors divides by the same normalizers.
    """

    forward: np.ndarray
    log_scale: np.ndarray
    transition: np.ndarray
    emission: np.ndarray
    backward: np.ndarray | None = None

    @property
    def loglik(self) -> float:
        return float(self.log_scale.sum())


def bw_forward(params: ParameterSet, config: ModelConfig, y) -> ForwardBackwardTables:
    """Scaled filtering recursion; requires h = 1."""
    _check_compat(params, config)
    if config.h != 1:
        raise ValueError("the forward-backward oracle handles first-order chains only")
    y_arr = as_array(y)
    T, k = y_arr.size, config.k
    logF = _log_emission(y_arr, params.sigma)
    shift = logF.max(axis=1)
    F = np.exp(logF - shift[:, None])
    fwd = np.empty((T, k))
    log_c = np.empty(T)
    a = params.early[0][0] * F[0]
    for t in range(T):
        if t > 0:
            a = (fwd[t - 1] @ params.pi) * F[t]
        c = a.sum()
        if not c > 0:
            raise ValueError(f"zero forward mass at occasion {t + 1}")
        fwd[t] = a / c
        log_c[t] = np.log(c) + shift[t]
    return ForwardBackwardTables(
        forward=fwd, log_scale=log_c, transition=np.array(params.pi), emission=F
    )


def _scaled_normalizers(tables: ForwardBackwardTables) -> np.ndarray:
    """(T-1,) normalizers of occasions 2..T in the forward recursion on the
    scaled emission rows."""
    return ((tables.forward[:-1] @ tables.transition) * tables.emission[1:]).sum(axis=1)


def bw_backward(params: ParameterSet, config: ModelConfig, y) -> ForwardBackwardTables:
    """Complete scaled tables: forward pass plus the matching backward pass."""
    tables = bw_forward(params, config, y)
    T, k = tables.emission.shape
    c = _scaled_normalizers(tables)
    back = np.empty((T, k))
    back[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        back[t] = (tables.transition @ (tables.emission[t + 1] * back[t + 1])) / c[t]
    return replace(tables, backward=back)


def bw_posteriors(tables: ForwardBackwardTables):
    """Smoothed marginals (T, k) and consecutive-pair posteriors (T-1, k, k)."""
    if tables.backward is None:
        raise ValueError("complete tables required; run bw_backward first")
    marginals = tables.forward * tables.backward
    T, k = marginals.shape
    pairwise = np.empty((T - 1, k, k))
    c = _scaled_normalizers(tables)
    for t in range(T - 1):
        pairwise[t] = (
            tables.forward[t][:, None]
            * tables.transition
            * (tables.emission[t + 1] * tables.backward[t + 1])[None, :]
            / c[t]
        )
    return marginals, pairwise


def lag_chain_loglik(params: ParameterSet, config: ModelConfig, y) -> float:
    """Log-likelihood by the scaled forward recursion on the lag-window chain.

    An order-h chain is a first-order chain on its k**h windows of lags
    (Zucchini, MacDonald & Langrock, Hidden Markov Models for Time Series,
    2nd ed., section 3). The filtering mass over the lags of occasion t starts
    as a unit mass on the all-padding window (index 0) and carries the
    layout of ParameterSet.pi; each occasion multiplies it into its padded
    transition table and emission row, normalizes, and sums out the oldest
    lag. Any order, any length; the tables come from params.transition.
    Each emission row is scaled by its largest density, found in logs, and
    the scale is added back, so outliers that underflow every density in
    linear space keep a finite likelihood.
    """
    _check_compat(params, config)
    y_arr = as_array(y)
    k, h = config.k, config.h
    logF = _log_emission(y_arr, params.sigma)
    shift = logF.max(axis=1)
    F = np.exp(logF - shift[:, None])
    a = np.zeros(k**h)
    a[0] = 1.0
    loglik = 0.0
    for t in range(1, y_arr.size + 1):
        table = params.transition(t)
        # the lags before the series start lead the row index
        joint = a[:, None] * np.tile(table, (k**h // table.shape[0], 1)) * F[t - 1]
        c = joint.sum()
        if not c > 0:
            raise ValueError(f"zero forward mass at occasion {t}")
        loglik += np.log(c)
        a = (joint / c).reshape(k, -1).sum(axis=0) if h else np.ones(1)
    return float(loglik + shift.sum())


def _logsumexp(values: np.ndarray) -> float:
    flat = values.reshape(-1)
    m = float(flat.max())
    if not np.isfinite(m):
        return m
    return m + float(np.log(np.exp(flat - m).sum()))


@dataclass(frozen=True)
class BruteForceResult:
    """Exact log-likelihood and path posterior from exhaustive enumeration."""

    loglik: float
    posterior: np.ndarray | None
    T: int
    k: int

    def window_posterior(self, times) -> np.ndarray:
        """Joint posterior over the given 1-based occasions (ascending), flattened
        in lexicographic order with the latest occasion fastest."""
        ts = [int(t) for t in times]
        if not ts or ts != sorted(set(ts)) or ts[0] < 1 or ts[-1] > self.T:
            raise ValueError(f"occasions {times!r} must be distinct, ascending, within 1..{self.T}")
        if self.posterior is None:
            return np.ones((1,) * len(ts)).reshape(-1)
        keep = set(ts)
        drop = tuple(ax for ax in range(self.T) if ax + 1 not in keep)
        out = self.posterior.sum(axis=drop) if drop else self.posterior
        return np.asarray(out).reshape(-1).copy()


def brute_force_joint(params: ParameterSet, config: ModelConfig, y) -> BruteForceResult:
    """Exact likelihood and posteriors by enumerating all k**T state paths.

    Works for any chain order; guarded to at most one million paths. The joint
    builds on the log scale from log densities, so structurally impossible
    paths, long products and far outliers are handled exactly.
    """
    _check_compat(params, config)
    y_arr = as_array(y)
    T, k, h = y_arr.size, config.k, config.h
    if k**T > MAX_PATHS:
        raise ValueError(f"instance too large: {k}**{T} paths exceed {MAX_PATHS}")
    logF = _log_emission(y_arr, params.sigma)
    if k == 1:
        return BruteForceResult(
            loglik=float(logF.sum()),
            posterior=np.ones((1,) * T) if T <= 32 else None,
            T=T,
            k=1,
        )
    logJ = np.zeros((k,) * T)
    with np.errstate(divide="ignore"):
        for t in range(1, T + 1):
            n_lag = min(t - 1, h)
            table = np.log(params.transition(t))
            shape = (1,) * (t - 1 - n_lag) + (k,) * (n_lag + 1) + (1,) * (T - t)
            logJ = logJ + table.reshape(shape)
            logJ = logJ + logF[t - 1].reshape((1,) * (t - 1) + (k,) + (1,) * (T - t))
    total = _logsumexp(logJ)
    if not np.isfinite(total):
        raise ValueError("all state paths carry zero probability")
    posterior = np.exp(logJ - total)
    return BruteForceResult(loglik=total, posterior=posterior, T=T, k=k)
