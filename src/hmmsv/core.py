"""Model containers, emission densities, parameter counting, and simulation for
discrete-volatility hidden Markov chains of arbitrary order.

States are labeled 1..k throughout the public interface. Conditioning windows
are flattened lexicographically with the most recent occasion cycling fastest,
so a window (u_{t-2}, u_{t-1}, u_t) with k = 2 enumerates its configurations
as (1,1,1), (1,1,2), (1,2,1), (1,2,2), (2,1,1), ..., (2,2,2).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

_ROW_SUM_TOL = 1e-12
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class InvalidParameterError(ValueError):
    """Parameter container violates a structural or probabilistic invariant."""


def _frozen_array(x) -> np.ndarray:
    arr = np.array(x, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelConfig:
    """Number of states and chain order.

    h = 0 denotes serially independent regimes: a single marginal distribution
    shared by every occasion. The series length is a property of the data, not
    of the model.
    """

    k: int
    h: int

    def __post_init__(self):
        for name, low, kind in (("k", 1, "positive"), ("h", 0, "non-negative")):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < low:
                raise ValueError(f"{name} must be a {kind} integer, got {val!r}")


@dataclass(frozen=True)
class ParameterSet:
    """Transition tables and volatility levels.

    early[i] holds the conditional distributions of u_{i+1} given the first i
    states as a (k**i, k) table whose rows follow the lexicographic window
    order; early[0] is the initial distribution. pi is the (k**h, k) table of
    homogeneous transitions used for every occasion past h; for h = 0 it is
    the single shared marginal. sigma holds the k volatility levels in the
    units of the observations. _prior_stack pads all h + 1 tables to the
    layout of pi, so occasion t reads row min(t - 1, h) of one stack.

    Construction only coerces and freezes the arrays. Use validate() to check
    the probabilistic invariants.
    """

    early: tuple[np.ndarray, ...]
    pi: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "early", tuple(_frozen_array(a) for a in self.early))
        object.__setattr__(self, "pi", _frozen_array(self.pi))
        object.__setattr__(self, "sigma", _frozen_array(np.reshape(np.asarray(self.sigma, dtype=float), -1)))

    @property
    def k(self) -> int:
        return int(self.sigma.size)

    @property
    def h(self) -> int:
        return len(self.early)

    def transition(self, t: int) -> np.ndarray:
        """Conditional-probability table governing occasion t (1-based)."""
        if t < 1:
            raise ValueError(f"occasion index must be >= 1, got {t}")
        if t <= self.h:
            return self.early[t - 1]
        return self.pi


def _prior_stack(params: ParameterSet) -> np.ndarray:
    """(h+1, k**(h+1)) transition tables in the padded window layout.

    Row t-1 governs occasion t, and every occasion past h reads the last
    row, pi. Reshaped to (k**h, k), a row is indexed like pi by the lags
    (u_{t-h}, ..., u_{t-1}); the h + 1 - t lags before the series start lead
    the index, and the early tables repeat over them.
    """
    k, h = params.k, params.h
    return np.stack([np.tile(params.transition(t).reshape(-1), k ** (h + 1 - t)) for t in range(1, h + 2)])


def _check_compat(params: ParameterSet, config: ModelConfig) -> None:
    if params.k != config.k or params.h != config.h:
        raise InvalidParameterError(
            f"parameter set is for (k={params.k}, h={params.h}), "
            f"model expects (k={config.k}, h={config.h})"
        )


@dataclass(frozen=True)
class ObservationSeries:
    """A non-empty series of finite percentage log-returns, copied and frozen."""

    y: np.ndarray

    def __post_init__(self):
        arr = as_array(self.y).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "y", arr)

    def __len__(self) -> int:
        return int(self.y.size)

    @property
    def T(self) -> int:
        return int(self.y.size)


def as_array(y) -> np.ndarray:
    """Accept an ObservationSeries or any 1-d float sequence."""
    if isinstance(y, ObservationSeries):
        return y.y
    arr = np.asarray(y, dtype=float).reshape(-1)
    if arr.size < 1:
        raise ValueError("observation series must contain at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValueError("observation series contains non-finite values")
    return arr


def _state_path(labels, k: int, name: str) -> np.ndarray:
    """labels as a flat int64 array of states 1..k, or a ValueError that
    names the cause: more than one axis, a label that is not a finite
    integer, or one out of range."""
    arr = np.asarray(labels)
    if arr.ndim > 1:
        raise ValueError(f"{name} must be a flat sequence of labels, got shape {arr.shape}")
    arr = arr.reshape(-1)
    if arr.dtype.kind not in "iu":
        # integer arrays pass as they are, without a float copy
        arr = arr.astype(float)
        whole = np.isfinite(arr) & (np.floor(arr) == arr)
        if not whole.all():
            raise ValueError(f"{name} must be integers, got {arr[~whole][0]}")
    states = arr.astype(np.int64, copy=False)
    if states.size and (states.min() < 1 or states.max() > k):
        raise ValueError(f"{name} must lie in 1..{k}")
    return states


def param_count(config: ModelConfig) -> int:
    """Free parameters: k volatilities plus k - 1 per conditioning row.

    Rows number k**(t-1) for each early occasion t = 1..h and k**h for the
    homogeneous table, so the total is
    k + (k - 1) * sum_{t=1..h} k**(t-1) + (k - 1) * k**h.
    """
    k, h = config.k, config.h
    early_rows = sum(k**t for t in range(h))
    return k + (k - 1) * early_rows + (k - 1) * k**h


def emission_matrix(y, sigma) -> np.ndarray:
    """Zero-mean Gaussian densities f(y_t | v) as a (T, k) matrix."""
    col = np.asarray(y, dtype=float).reshape(-1, 1)
    row = np.asarray(sigma, dtype=float).reshape(1, -1)
    z = col / row
    return _INV_SQRT_2PI / row * np.exp(-0.5 * z * z)


def _row_label(row: int, n_vars: int, k: int) -> str:
    """Render a flat conditioning-row index as the 1-based window states."""
    if n_vars == 0:
        return "()"
    digits = []
    for _ in range(n_vars):
        digits.append(row % k + 1)
        row //= k
    return "(" + ",".join(str(d) for d in reversed(digits)) + ")"


def validate(params: ParameterSet, config: ModelConfig) -> list[str]:
    """Collect every invariant violation; an empty list means the set is valid.

    Shape mismatches, non-finite or negative entries, rows not summing to one,
    and non-positive volatilities are all reported with their coordinates.
    """
    k, h = config.k, config.h
    problems: list[str] = []

    if params.sigma.shape != (k,):
        problems.append(f"sigma has shape {params.sigma.shape}, expected ({k},)")
    else:
        for v in range(k):
            s = params.sigma[v]
            if not np.isfinite(s) or not s > 0:
                problems.append(f"sigma for state {v + 1} is {s!r}, must be positive and finite")

    if len(params.early) != h:
        problems.append(f"expected {h} early transition tables, got {len(params.early)}")

    tables: list[tuple[str, np.ndarray, tuple[int, int], int]] = []
    for i, table in enumerate(params.early):
        tables.append((f"early transitions for occasion {i + 1}", table, (k**i, k), i))
    tables.append(("homogeneous transitions", params.pi, (k**h, k), h))

    for name, table, expected, n_cond in tables:
        if table.shape != expected:
            problems.append(f"{name} have shape {table.shape}, expected {expected}")
            continue
        if not np.all(np.isfinite(table)):
            problems.append(f"{name} contain non-finite entries")
            continue
        for r, c in zip(*np.nonzero(table < 0)):
            problems.append(
                f"{name}, row {_row_label(int(r), n_cond, k)}, outcome {int(c) + 1}: "
                f"negative probability {table[r, c]!r}"
            )
        sums = table.sum(axis=1)
        for r in np.nonzero(np.abs(sums - 1.0) > _ROW_SUM_TOL)[0]:
            problems.append(f"{name}, row {_row_label(int(r), n_cond, k)}: entries sum to {sums[r]!r}")

    return problems


def assert_valid(params: ParameterSet, config: ModelConfig) -> None:
    problems = validate(params, config)
    if problems:
        raise InvalidParameterError("; ".join(problems))


def simulate(config: ModelConfig, params: ParameterSet, T: int, seed: int):
    """Draw a latent path and matching observations, deterministic per seed.

    Returns (states, series) with states labeled 1..k. Occasion t draws from
    row min(t - 1, h) of the padded prior stack, _prior_stack, at its lag
    window: the early tables for t <= h, pi after.
    """
    if T < 1:
        raise ValueError(f"T must be positive, got {T}")
    assert_valid(params, config)
    k, h = config.k, config.h
    rng = np.random.default_rng(seed)

    cum = np.cumsum(_prior_stack(params).reshape(h + 1, k**h, k), axis=2).tolist()
    path = []
    window = 0
    for t, u in enumerate(rng.random(T).tolist()):
        s = min(bisect_right(cum[min(t, h)][window], u), k - 1)
        path.append(s)
        window = (window * k + s) % k**h
    states0 = np.array(path, dtype=np.int64)
    y = rng.normal(0.0, params.sigma[states0])
    return states0 + 1, ObservationSeries(y)


def reorder_states(params: ParameterSet, order) -> ParameterSet:
    """Relabel states so that new state i is old state order[i-1].

    order must be a permutation of the labels 1..k. Relabeling leaves the
    likelihood unchanged; it is used to present fits with ascending
    volatilities.
    """
    k = params.k
    perm = _state_path(order, k, "order") - 1
    if perm.size != k or set(perm.tolist()) != set(range(k)):
        raise ValueError(f"order must be a permutation of 1..{k}")

    def remap(table: np.ndarray, n_vars: int) -> np.ndarray:
        full = table.reshape((k,) * n_vars)
        full = full[np.ix_(*([perm] * n_vars))]
        return full.reshape(k ** (n_vars - 1), k)

    early = tuple(remap(params.early[i], i + 1) for i in range(params.h))
    pi = remap(params.pi, params.h + 1)
    return ParameterSet(early=early, pi=pi, sigma=params.sigma[perm])
