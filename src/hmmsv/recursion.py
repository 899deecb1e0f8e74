"""Backward peeling recursion for smoothed posteriors in chains of order h.

The engine manipulates conditional posteriors of each latent state given the
neighboring window states and the complete data. Every stored quantity is a
conditional probability in [0, 1], so the pass stays numerically healthy at
any series length without rescaling; logs enter to assemble the
log-likelihood, and to rerun a start whose peel breaks its bound.

Array layout: the passes return (T, k**h, k) arrays whose block t-1 has the
layout of ParameterSet.pi, rows indexed by the lags (u_{t-h}, ..., u_{t-1})
in lexicographic order, most recent fastest, and columns by u_t. Occasions
t <= h have only t - 1 real lags; the h + 1 - t lags before the series start
lead the row index, so rows [:k**(t-1)] read such an occasion. Conditionals
repeat those rows over the missing lags; joints pin the missing lags to
index 0 and are zero in every other row.

The reference API (windowed_full_conditional and peel) returns arrays in the
same layout with one trailing axis of size k per future state
u_{t+1}, ..., u_{t+j}; with j = 0 the full conditional is the target slice of
the final occasion t = T.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import ceil, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ModelConfig, ParameterSet, _check_compat, _prior_stack, _state_path, as_array, emission_matrix

_ENTRY_TOL = 1e-10
# floats of conditionals the backward pass stages per block (1 MiB), so a
# block is built and peeled while it is still in cache; wavefront heads add
# under 1 / (k - 1) of that, a pass of one start a copy of it, and build
# transients 1 / k. 2**16 and 2**18 timed alike (2-CPU host)
_STAGE_FLOATS = 2**17
# largest k**(j+1), a window's numerators per lag configuration, that
# _conditionals normalizes with the configurations innermost: 0.25-1.0x of
# the k**j-long loops' time up to 27, 1.3-2.7x at (k, h) = (7, 1), (2, 4),
# (8, 1), (4, 2) and (3, 3) (2-CPU host)
_NARROW_WINDOW = 27
# largest k**(2h+1), a chunk product's cost per start and occasion, at which
# the forward joint pass runs in chunks: with fit's ten starts they beat the
# loop up to 64 and lost at 128 (2-CPU host). S stays out of the rule, so a
# start's bits never depend on its batch
_CHUNK_COST = 64
# overlap occasions of EM's chunked backward pass: at 64, 128 and 256, 22,
# 12 and 2 of 24 sticky k = 2, 3 chains (persistence 0.95-0.995) failed the
# seams of chunks twice today's L. Chunks run at k**(2h+1) <= 27, h = 1
# alone, where the seam check is a bound; with fit's ten starts they won up
# to 27 (2-CPU host)
_OVERLAP = 256
_OVERLAP_COST = 27
_SEAM_TOL = 1e-12


class StructuralZeroError(ValueError):
    """A conditioning configuration carries zero probability mass.

    start is the position, in a batch of parameter sets, of the set that hit
    it; a single set is position 0.
    """

    def __init__(self, message: str, start: int = 0):
        super().__init__(message)
        self.start = start


def _numerator(F: np.ndarray, priors: np.ndarray, k: int, h: int, out: np.ndarray, op=np.multiply) -> np.ndarray:
    """Window numerators of a block of occasions t, built in out.

    F holds the block's emission rows time first, like every batched array:
    (n, S, k) over S starts. priors[:, l] is each start's padded prior row of
    occasion t + l, shared by the whole block, so the window (u_{t-h}, ...,
    u_{t+j}) has j = priors.shape[1] - 1 future states. out is a
    contiguous (n, S, k**(h+1+j)) array. Each level repeats the previous one
    over the next future state, column by column, and multiplies in the next
    transition factor in place; the last level is built in out itself, so
    the build allocates nothing larger than out / k. Returns out. With op
    np.add and the logs of F and priors, out gets the log numerators.
    """
    n, S = F.shape[:2]
    j = priors.shape[1] - 1
    a = np.tile(F, (1, 1, k**h))
    for l in range(j + 1):
        if l:
            # np.repeat(a, k, axis=2) written into the next level's array
            wide = out if l == j else np.empty((n, S, k * a.shape[2]))
            cols = wide.reshape(n, S, -1, k)
            for c in range(k):
                cols[..., c] = a
            a = wide
        op(a, np.tile(priors[:, l], k**l), out=out if l == j else a)
    return out


def _conditionals(a: np.ndarray, k: int, h: int) -> np.ndarray:
    """Full conditionals from the (n, S, k**(h+1+j)) numerators a of
    _numerator, normalized over u_t in place; returns a. A configuration
    with no mass gets conditional probability zero.

    The sums over u_t and the divide run on a view with u_t first. Where
    k**(j+1) <= _NARROW_WINDOW it is (k, k**j, M), M = n S k**h, and the
    sums go to a (k**j, M) array: numpy orders the axes of a call by C order
    where its operands' strides disagree, so every call runs M-long loops
    instead of k**j-long ones. Wider windows keep their contiguous k**j
    loops. Either way each entry gets the same adds and divide.
    """
    a3 = a.reshape(-1, k, a.shape[2] // k ** (h + 1))
    M, _, width = a3.shape
    if k * width <= _NARROW_WINDOW:
        view, c = a3.transpose(1, 2, 0), np.empty((width, M))
    else:
        view, c = a3.transpose(1, 0, 2), np.empty((M, width))
    # left to right for every k, as in _peel; numpy's sum pairs from k = 8
    if k == 1:
        np.copyto(c, view[0])
    else:
        np.add(view[0], view[1], c)
    for u in range(2, k):
        np.add(c, view[u], c)
    if c.min() > 0:
        np.divide(view, c, view)
    else:
        mass = c > 0
        np.copyto(view, 0.0, where=~mass)
        np.divide(view, c, out=view, where=mass)
    return a


def _block_priors(P: np.ndarray, t: int, j: int) -> np.ndarray:
    """(S, j+1, k**(h+1)) prior rows of occasions t, ..., t + j from the
    (S, h+1, k**(h+1)) padded stacks."""
    return P[:, np.minimum(np.arange(t - 1, t + j), P.shape[1] - 1)]


def _inputs(group, config: ModelConfig, y) -> tuple[np.ndarray, np.ndarray]:
    """(F, P) for the parameter sets in group on the series y: their (T, S,
    k) emission rows and (S, h+1, k**(h+1)) prior stacks, [:, i] and [i] for
    the set group[i]. Every set must fit config and y must pass as_array."""
    for params in group:
        _check_compat(params, config)
    y = as_array(y)
    F = np.stack([emission_matrix(y, params.sigma) for params in group], axis=1)
    return F, np.stack([_prior_stack(params) for params in group])


def _posterior_array(arr, config: ModelConfig, name: str, T: int | None = None) -> np.ndarray:
    """arr as a float array, or a ValueError unless its shape is (T, k**h, k);
    T defaults to len(arr)."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 0:
        raise ValueError(f"{name} must be a (T, k**h, k) array, got a 0-d input")
    want = (len(arr) if T is None else T, config.k**config.h, config.k)
    if arr.shape != want:
        raise ValueError(f"{name} must have shape (T, k**h, k) = {want}, got {arr.shape}")
    return arr


def _bound_error() -> StructuralZeroError:
    """The error of a peel that breaks its bound; _relog names the start."""
    return StructuralZeroError(
        "peel produced entries outside [0, 1]; window inputs are inconsistent, "
        "typically because a transition or emission underflowed"
    )


def _peel(q_inner: np.ndarray, q_next: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal-sum step removing the last future state from a window.

    q_inner holds the window conditionals of S starts one after another,
    flat, and q_next their (S, 1, m) target slices of the occasion being
    removed; returns the result, flat in the same way, and the (S,) bound
    check's verdict. Zero-mass numerators add nothing to the reciprocal sum.
    A start whose window is positive gets 1 / sum(q_next / q_inner) exactly,
    and is flagged if that exceeds one by more than _ENTRY_TOL: its values
    are then meaningless. The other starts are clamped and never flagged, so
    no start's bits depend on the batch.

    Callers ignore floating-point over, divide and invalid warnings: a ratio
    may overflow when the divisor is subnormal, and the infinite reciprocal
    sum then collapses that entry to zero mass, as it should.
    """
    S, _, m = q_next.shape
    # dividing block-wise is the same as tiling q_next over the wider window
    ratio = q_next / q_inner.reshape(S, -1, m)
    # zero-mass numerators contribute nothing; a positive numerator over a
    # zero denominator blows the sum up, collapsing the output to zero mass;
    # on a positive window the ratio is 0.0 there already: _wave_peel's bits
    cols = np.where(q_next == 0.0, 0.0, ratio).reshape(-1, k).T
    # left to right for every k, as in _wave_peel; numpy's sum pairs from k = 8
    out = (1.0 / sum(cols[1:], cols[0])).reshape(S, -1)
    positive = q_inner.reshape(S, -1).min(axis=1) > 0.0
    over = positive & (out.max(axis=1) > 1.0 + _ENTRY_TOL)
    # values are exact wherever the conditioning configuration is reachable;
    # a zero-probability configuration has no defined conditional, so its
    # entries are only kept as bounded placeholders that never receive
    # posterior mass downstream
    clamped = np.minimum(np.where(np.isfinite(out), out, 0.0), 1.0)
    return np.where(positive[:, None], out, clamped).reshape(-1), over


def _slot_offsets(S: int, m: int, k: int, j: int) -> list:
    """Where each slot of a staging row starts, and the row width last.

    Slot f of a row holds a level-f input of S starts, start outermost: S *
    m * k**(f+1) entries, with m = k**h. Slot 0 is a slice. With one start,
    slots f..g hold levels f..g as one (k**f + ... + k**g, m * k) run, which
    one divide by a (1, m * k) slice serves.
    """
    return list(accumulate((S * m * k ** (f + 1) for f in range(j + 1)), initial=0))


def _wave_peel(rows: np.ndarray, conds: np.ndarray, Q: np.ndarray, a: int, j: int, ratio: np.ndarray) -> bool:
    """Peel a block of positive conditionals as a wavefront across levels.

    The block's occasions are a, ..., t, with n = t - a + 1, and j future
    states each. Row r of rows stands for step d = a + r, r = 0, ..., n + j
    - 1, of the pass over the (T, S, k**h, k) slices Q, and is slot-major:
    [slice of d | level-1 input of d - 1 | ... | level-j input of d - j],
    laid out by _slot_offsets. conds holds the last slot, the block's
    conditionals, in rows j, ..., n + j - 1, apart so that they build
    contiguously. With several starts rows holds slots 0..j-1 only, and
    level j reads conds. With one start rows holds every slot, and the
    conditionals are copied into slot j, so that the inputs of every level
    lie side by side.

    The step whose divisor is the slice of d runs level f of occasion d - f
    for every f whose occasion lies in the block: divides into ratio, laid
    out like slots 1..j, then k - 1 adds of its columns, left to right as in
    _peel, and one reciprocal, each one call over all those levels at once.
    With one start a single divide serves every level, so an interior
    occasion costs 1 + k calls; with several there is one divide per level,
    h + k calls, as a divide over the starts' strided slots ran slower. The
    output is the head of row r - 1, which is the next step's input. The
    first j steps fill the wavefront: their divisors are the slices of
    earlier blocks, copied from Q into their rows. The last j - 1 steps
    drain it.

    One check after the block covers every level. Returns whether the block
    got _peel's bits: every intermediate output positive, so _peel would
    take the same formula at the next level, and every output at most 1 +
    _ENTRY_TOL, not NaN, so _peel would flag no start. Then Q gets the
    block's slices. If not, Q is left alone and the caller runs the block
    through _peel from conds, which no step writes.
    """
    T, S, m, k = Q.shape
    n = len(rows) - j
    t = a + n - 1
    off = _slot_offsets(S, m, k, j)
    rows[n:, : off[1]] = Q[t : t + j].reshape(j, -1)
    if S == 1:
        rows[j:, off[j] :] = conds[j:]
    divisors = rows[:, : off[1]].reshape(-1, S, 1, m * k)

    def run(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # the inputs of levels lo..hi, side by side in every row, and their
        # ratios; with several starts, level j's inputs are conds
        src, base = (conds, off[j]) if lo == j and S > 1 else (rows, 0)
        inner = src[:, off[lo] - base : off[hi + 1] - base].reshape(n + j, S, -1, m * k)
        return inner, ratio[off[lo] - off[1] : off[hi + 1] - off[1]].reshape(S, -1, m * k)

    def sweep(top: int, bottom: int, lo: int, hi: int) -> None:
        # steps top, top - 1, ..., bottom, each running levels lo..hi, over
        # row views: out is the head of the row below the divisor's
        first, *rest = ratio[off[lo] - off[1] : off[hi + 1] - off[1]].reshape(-1, k).T
        divs = divisors[bottom : top + 1][::-1]
        outs = rows[bottom - 1 : top, off[lo - 1] : off[hi]][::-1]
        # out passed positionally: ufuncs parse keywords at a cost per call;
        # local names spare the module lookups
        divide, add, reciprocal = np.divide, np.add, np.reciprocal
        if S == 1:
            inner, rat = run(lo, hi)
            for divisor, inner_r, out in zip(divs, inner[bottom : top + 1][::-1], outs):
                divide(divisor, inner_r, rat)
                total = first
                for col in rest:
                    add(total, col, out)
                    total = out
                reciprocal(total, out)
            return
        levels = [run(f, f) for f in range(lo, hi + 1)]
        for r, divisor, out in zip(range(top, bottom - 1, -1), divs, outs):
            for inner, rat in levels:
                divide(divisor, inner[r], rat)
            total = first
            for col in rest:
                add(total, col, out)
                total = out
            reciprocal(total, out)

    # row r runs level f of occasion a + r - f for every f whose occasion
    # lies in the block: the fill steps, the full steps, the drain steps
    for r in range(n + j - 1, n, -1):
        sweep(r, r, r - n + 1, min(j, r))
    sweep(n, j, 1, j)
    for r in range(min(j - 1, n), 0, -1):
        sweep(r, r, 1, r)
    bound = 1.0 + _ENTRY_TOL
    slices = rows[:n, : off[1]]
    if not slices.max() <= bound:
        return False
    for g in range(1, j):
        inter = rows[g : n + g, off[g] : off[g + 1]]
        if not (inter.min() > 0.0 and inter.max() <= bound):
            return False
    Q[a - 1 : t] = slices.reshape(n, S, m, k)
    return True


def windowed_full_conditional(
    params: ParameterSet, config: ModelConfig, y_t: float, t: int, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Full conditional of u_t given the surrounding window states and y_t alone.

    j counts the future occasions t+1, ..., t+j inside the window; the
    intended use has j = min(T - t, h). Returns q and its numerator as
    (k**h, k) + (k,) * j arrays in the layout of the module docstring. The
    numerator chains the emission at t with the transition factors of every
    window occasion; summing it over u_t (axis 1) gives the normalizer.
    """
    if t < 1:
        raise ValueError(f"occasion index must be >= 1, got {t}")
    if j < 0:
        raise ValueError(f"look-ahead count must be >= 0, got {j}")
    if not np.isfinite(y_t):
        raise ValueError(f"observation must be finite, got {y_t!r}")
    F, P = _inputs([params], config, [y_t])
    k, h = config.k, config.h
    a = _numerator(F, _block_priors(P, t, j), k, h, np.empty((1, 1, k ** (h + 1 + j))))
    shape = (k**h, k) + (k,) * j
    return _conditionals(a.copy(), k, h).reshape(shape), a.reshape(shape)


def peel(q_inner: np.ndarray, q_next: np.ndarray) -> np.ndarray:
    """Remove the last future conditioning state from a windowed posterior.

    q_inner is the conditional at occasion t with j >= 1 trailing future
    axes, as windowed_full_conditional returns it; q_next is the (k**h, k)
    target slice of occasion t + j. The reciprocal-sum identity yields the
    conditional at t with j - 1 future axes. A positive window whose result
    exceeds one raises StructuralZeroError: its inputs are inconsistent.
    """
    q_inner, q_next = np.asarray(q_inner, dtype=float), np.asarray(q_next, dtype=float)
    if q_next.ndim != 2:
        raise ValueError(f"q_next must be a (k**h, k) slice, got shape {q_next.shape}")
    k = q_next.shape[1]
    if q_inner.shape[:2] != q_next.shape:
        raise ValueError(f"window shapes disagree: q_inner {q_inner.shape}, q_next {q_next.shape}")
    if q_inner.ndim < 3:
        raise ValueError("q_inner has no future conditioning state to remove")
    if any(n != k for n in q_inner.shape[2:]):
        raise ValueError(f"every future axis of q_inner must have size {k}, got shape {q_inner.shape}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals, over = _peel(q_inner.reshape(-1), q_next.reshape(1, 1, -1), k)
    if over.any():
        raise _bound_error()
    return vals.reshape(q_inner.shape[:-1])


def _block_span(S: int, k: int, h: int) -> int:
    """Interior occasions per block of _backward_pass for S starts."""
    return max(1, _STAGE_FLOATS // (S * k ** (2 * h + 1)))


def _backward_pass(F: np.ndarray, P: np.ndarray, k: int, h: int) -> np.ndarray:
    """(T, S, k**h, k) target slices of S starts, [:, i] for start i, from
    their (T, S, k) emission rows and (S, h+1, k**(h+1)) prior stacks; see
    backward_pass. Time first, each occasion is one index away and its rows
    of every start lie flat, side by side.

    Interior blocks hold _block_span occasions, about _STAGE_FLOATS floats
    of conditionals whatever T and S are. Each block with future states
    builds its conditionals straight into the last slot of staging rows
    allocated once per pass, in two buffers (see _wave_peel); with one start
    the row buffer takes a copy of that slot too, so that one divide serves
    every level. The final occasion, and every occasion when h = 0, builds
    straight into Q. A block whose conditionals are all positive runs
    _wave_peel; a block with a zero, or one that fails _wave_peel's check,
    runs through _peel one peel at a time, occasion after occasion, from
    those same staged conditionals, which clamps or flags. After the loop each start that
    _peel flagged gets the slices of its own pass on logs (_relog), which
    raises if it fails too.
    """
    T, S = F.shape[:2]
    Q = np.empty((T, S, k**h, k))
    flat = Q.reshape(T, -1)
    divisors = Q.reshape(T, S, 1, -1)
    lo, hi = h + 1, T - h
    span = _block_span(S, k, h)
    # staging for the widest block, every block's rows are views into it
    rows = min(span, max(1, hi - lo + 1)) + h
    widths = _slot_offsets(S, k**h, k, h)
    # with one start the rows take every slot, a copy of the conditionals too
    row_buffer = np.empty(rows * widths[-1 if S == 1 else h])
    cond_buffer = np.empty(rows * (widths[-1] - widths[h]))
    ratio = np.empty(widths[-1] - widths[1])
    failed = np.zeros(S, dtype=bool)
    t = T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while t >= 1:
            a = max(lo, t - span + 1) if lo <= t <= hi else t
            n, j = t - a + 1, min(T - t, h)
            priors = _block_priors(P, a, j)
            if j == 0:
                # nothing to peel: the conditionals are the slices
                _conditionals(_numerator(F[a - 1 : t], priors, k, h, flat[a - 1 : t].reshape(n, S, -1)), k, h)
            else:
                off = _slot_offsets(S, k**h, k, j)
                staged = row_buffer[: (n + j) * off[-1 if S == 1 else j]].reshape(n + j, -1)
                conds = cond_buffer[: (n + j) * (off[-1] - off[j])].reshape(n + j, -1)
                block = conds[j:]
                _conditionals(_numerator(F[a - 1 : t], priors, k, h, block.reshape(n, S, -1)), k, h)
                if not (block.min() > 0.0 and _wave_peel(staged, conds, Q, a, j, ratio)):
                    for s in range(t, a - 1, -1):
                        vals = block[s - a]
                        for f in range(j, 0, -1):
                            vals, over = _peel(vals, divisors[s + f - 1], k)
                            failed |= over
                        flat[s - 1] = vals
            t = a - 1
    for i in np.flatnonzero(failed):
        Q[:, i] = _relog(F, P, int(i), k, h)
    return Q


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis; -inf where every entry is -inf,
    +inf where one is +inf."""
    top = a.max(axis=-1, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    return np.log(np.exp(a - shift).sum(axis=-1)) + shift[..., 0]


def _log_peel(l_inner: np.ndarray, l_next: np.ndarray, k: int) -> np.ndarray:
    """_peel of one start on logs: l_inner and l_next are the logs of its
    flat q_inner and its (k**h, k) q_next, and the result is the log of
    _peel's. A ratio of two conditionals below the smallest float keeps its
    value here, where _peel reads a zero divisor as an unreachable
    configuration. Raises and clamps as _peel does.
    """
    m = l_next.size
    ratio = l_next.reshape(1, m) - l_inner.reshape(-1, m)
    # zero-mass numerators add nothing, as in _peel
    ratio[:, l_next.reshape(-1) == -np.inf] = -np.inf
    out = -_logsumexp(ratio.reshape(-1, k))
    if np.isfinite(l_inner).all():
        if not out.max() <= _ENTRY_TOL:
            raise _bound_error()
        return out
    return np.minimum(np.where(out == np.inf, -np.inf, out), 0.0)


def _log_backward_pass(F: np.ndarray, P: np.ndarray, k: int, h: int) -> np.ndarray:
    """(T, k**h, k) slices of one start from its (T, k) emission rows and
    (h+1, k**(h+1)) prior stack, with the backward pass run on logs.

    The same numerators, conditionals and peels as _backward_pass, one
    occasion at a time: products of small transitions that leave the float
    range, and that the linear pass reads as zeros, keep their ratios. Only
    the slices are exponentiated. A structural zero still drops terms of the
    peel, as in the linear pass. An emission row whose largest density is
    below 2**-969 raises StructuralZeroError naming its occasion: its logs
    would be those of rounded subnormals or of zero.
    """
    T = len(F)
    low = F.max(axis=1) < 2.0**-969
    if low.any():
        raise StructuralZeroError(
            f"every emission density at t={int(np.argmax(low)) + 1} is below 2**-969, "
            "too small to rerun the backward pass on logs"
        )
    L = np.empty((T, k ** (h + 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        logF, logP = np.log(F)[:, None], np.log(P)[None]
        for t in range(T, 0, -1):
            j = min(T - t, h)
            out = np.empty((1, 1, k ** (h + 1 + j)))
            a = _numerator(logF[t - 1 : t], _block_priors(logP, t, j), k, h, out, op=np.add).reshape(k**h, k, -1)
            norm = _logsumexp(a.swapaxes(1, 2))[:, None]
            # a configuration with no mass gets conditional probability zero
            vals = np.where(norm == -np.inf, -np.inf, a - norm).reshape(-1)
            for f in range(j, 0, -1):
                vals = _log_peel(vals, L[t + f - 1], k)
            L[t - 1] = vals
    return np.exp(L).reshape(T, k**h, k)


def _relog(F: np.ndarray, P: np.ndarray, i: int, k: int, h: int) -> np.ndarray:
    """_log_backward_pass of start i of (F, P); its errors name start i."""
    try:
        return _log_backward_pass(F[:, i], P[i], k, h)
    except StructuralZeroError as exc:
        exc.start = i
        raise


def _overlap_backward(F: np.ndarray, P: np.ndarray, k: int, h: int) -> np.ndarray:
    """_backward_pass of S starts on overlapping chunks of the series where
    h >= 1, T >= 2N and k**(2h+1) <= _OVERLAP_COST; EM's backward pass.

    With W = _OVERLAP and L = max(W, ceil(sqrt(T W) / 2)), chunk c keeps
    occasions cL + 1, ..., (c+1)L and runs on the N = L + W + h occasions
    from cL - h + 1, as if the series ended there; its first h read as
    series-start rows. Chunk 0 runs from the series start; the last keeps
    the rest and ends at T, with the sequential bits. All run through one
    _backward_pass as S B pseudo-starts, c S + s for chunk c of start s:
    about N Python steps instead of T. Posteriors forget far data
    geometrically, so the W overlap occasions absorb the false end. L
    trades the N steps against the B W ~ T W / L overlap occasions of
    arithmetic; sqrt(T W) would weigh the two alike, and half of it won at
    fit's shape once _conditionals ran long inner loops (2-CPU host).

    Seam check: at a chunk's first overlap occasion, the spread over u_t of
    the log ratio of its slice rows to the stitched ones is the distance of
    their backward information, which earlier occasions only shrink; summed
    over the seams it bounds each chunk's distance to the sequential pass.
    Starts whose sum exceeds _SEAM_TOL or meets a zero, or whose chunks
    raise, rerun that pass together, and its errors name the real start.
    """
    T, S = F.shape[:2]
    L = max(_OVERLAP, ceil(sqrt(T * _OVERLAP) / 2))
    N = L + _OVERLAP + h
    if h == 0 or T < 2 * N or k ** (2 * h + 1) > _OVERLAP_COST:
        return _backward_pass(F, P, k, h)
    B = ceil((T - _OVERLAP) / L)
    first = np.minimum(np.maximum(np.arange(B) * L - h, 0), T - N)
    ok = np.arange(S)
    while ok.size:
        rows = F[(first + np.arange(N)[:, None])[..., None], ok].reshape(N, -1, k)
        try:
            chunks = _backward_pass(rows, np.tile(P[ok], (B, 1, 1)), k, h).reshape(N, B, ok.size, k**h, k)
            break
        except StructuralZeroError as exc:
            ok = np.delete(ok, exc.start % ok.size)
    Q = np.empty((T, S, k**h, k))
    if ok.size:
        for c in range(B):
            lo, hi = c * L, T if c == B - 1 else (c + 1) * L
            Q[lo:hi, ok] = chunks[lo - first[c] : hi - first[c], c]
        seams = np.arange(1, B) * L
        a, b = chunks[seams - first[:-1], np.arange(B - 1)], Q[seams][:, ok]
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.log(a / b)
            # each seam's spread, summed; infinite or NaN at a zero entry
            gap = (d.max(axis=3) - d.min(axis=3)).max(axis=2).sum(axis=0)
        ok = ok[gap <= _SEAM_TOL]
    bad = np.setdiff1d(np.arange(S), ok)
    if bad.size:
        try:
            Q[:, bad] = _backward_pass(F[:, bad], P[bad], k, h)
        except StructuralZeroError as exc:
            exc.start = int(bad[exc.start])
            raise
    return Q


def _posterior_pass(F: np.ndarray, P: np.ndarray, k: int, h: int) -> np.ndarray:
    """(T, S, k**h, k) joints of S starts from their (T, S, k) emission rows
    and (S, h+1, k**(h+1)) prior stacks: _overlap_backward, then
    _forward_joint_pass, which writes each joint over its slice, so the pass
    holds one posterior-sized array. A start whose joint mass fails reruns
    through _relog into its own (T, 1, k**h, k) array, which is chained
    alone and written back into its column; if it fails again, the
    StructuralZeroError names the start. The other starts keep their bits,
    as in any batch.
    """
    J, logged = _forward_joint_pass(_overlap_backward(F, P, k, h), k, h), set()
    while True:
        try:
            return _checked_joints(J)
        except StructuralZeroError as exc:
            if exc.start in logged:
                raise
            logged.add(exc.start)
            J[:, exc.start] = _forward_joint_pass(_relog(F, P, exc.start, k, h)[:, None], k, h)[:, 0]


def backward_pass(params: ParameterSet, config: ModelConfig, y) -> np.ndarray:
    """Target slices q(u_t | previous h states, all data) as a (T, k**h, k) array.

    The final occasion comes straight from Bayes; every earlier occasion
    builds its full conditional with j = min(T - t, h) future states and
    peels the future states off one at a time. The interior occasions
    h + 1 <= t <= T - h share one window shape and the homogeneous
    transitions, so their conditionals build in blocks, highest occasions
    first; the boundary occasions build one at a time. All stored values are
    bounded conditional probabilities, so no rescaling is applied anywhere.
    If a peel breaks its bound, typically where products of small
    transitions leave the float range, the whole pass reruns on logs, where
    they keep their ratios; StructuralZeroError if that fails too.

    The engine carries a leading axis of S parameter sets that share the
    series, and this is its S = 1 case; e_step runs several EM starts through
    it at once, long series of narrow windows in overlapping chunks that
    agree with it to 1e-12. Every start chooses its own route, so its slices
    are the same bits in any batch and any block size.
    """
    F, P = _inputs([params], config, y)
    return _backward_pass(F, P, config.k, config.h)[:, 0]


def _chunk_starts(steps: np.ndarray, carried: np.ndarray) -> np.ndarray:
    """(S, k**h, 1, B) lag masses entering the B chunks of the (L, S, k**h,
    k, B) slices steps, step-major and chunk last; the first is carried.

    All chunks but the last map the basis lag vectors through their L
    occasions in lockstep, giving the rows of their row-stochastic transfer
    products; the starts then chain through those. Rows of unreachable
    configurations, whose placeholder slices may sum above one, are clamped
    at one each step: finite, and they carry nothing.
    """
    L, S, m, k, B = steps.shape
    # M[:, w, b, c]: entry w of row b of chunk c's product; chunk axis last
    # for long inner loops
    M = np.zeros((S, m, m, B - 1))
    M[:, range(m), range(m)] = 1.0
    wide = np.empty((S, m, k, m, B - 1))
    lags = wide.reshape(S, k, m, m, B - 1)
    for q in steps[..., None, :-1]:
        np.multiply(q, M[:, :, None], out=wide)
        np.add.reduce(lags, axis=1, out=M)
        np.minimum(M, 1.0, out=M)
    starts = np.empty((S, m, 1, B))
    starts[..., 0] = carried
    mass = np.empty((S, m, m))
    for c in range(B - 1):
        np.multiply(starts[..., c], M[..., c].swapaxes(1, 2), out=mass)
        np.add.reduce(mass, axis=1, out=starts[:, :, 0, c + 1])
    return starts


def _forward_joint_pass(Q: np.ndarray, k: int, h: int) -> np.ndarray:
    """(T, S, k**h, k) joints from (T, S, k**h, k) slices, each written over
    its own slice; see forward_joint_pass. Returns the array that holds them:
    Q itself, or a contiguous copy of a Q in another layout.

    Each joint is the slice times the carried lag mass, and the next carried
    mass sums out its oldest lag: two in-place ufunc calls per occasion. If
    k**(2h+1) <= _CHUNK_COST and T holds two chunks of L = ceil(sqrt(T k**h
    / k)), _chunk_starts starts each chunk and the chunks run those calls in
    lockstep; the last T mod L occasions follow. No joint reads a slice but
    its own, and _chunk_starts reads the slices before any joint is written.
    The joints' sums are not checked here; see _checked_joints.
    """
    # the joints go through reshaped views of Q, which must not be copies
    Q = np.ascontiguousarray(Q)
    if h == 0:
        # the posterior factorizes over occasions, so each joint is its slice
        return Q
    T, S, m = Q.shape[:3]
    carried = np.zeros((S, m, 1))
    carried[:, 0] = 1.0
    L = ceil(sqrt(T * m // k))
    done = T - T % L if m * m * k <= _CHUNK_COST and 2 * L <= T else 0
    if done:
        # step-major views, chunk axis last like carried
        steps = Q[:done].reshape(-1, L, S, m, k).transpose(1, 2, 3, 4, 0)
        carried = _chunk_starts(steps, carried)
        lags = Q[:done].reshape(-1, L, S, k, m, 1).transpose(1, 2, 3, 4, 5, 0)
        for q, lag in zip(steps, lags):
            np.multiply(q, carried, out=q)
            np.add.reduce(lag, axis=1, out=carried)
        carried = carried[..., -1].copy()
    # two-axis views of an occasion, and outs passed positionally: ufuncs
    # parse keywords at a cost per call. Summing axis 1 of lag drops the
    # oldest lag of each start's joint
    col, flat = carried.reshape(S * m, 1), carried.reshape(S, m)
    multiply, reduce = np.multiply, np.add.reduce
    for q, lag in zip(Q[done:].reshape(-1, S * m, k), Q[done:].reshape(-1, S, k, m)):
        multiply(q, col, q)
        reduce(lag, 1, None, flat)
    return Q


def _checked_joints(J: np.ndarray) -> np.ndarray:
    """J if every joint of the (T, S, k**h, k) J sums to one within _ENTRY_TOL,
    else a StructuralZeroError naming the first such start and occasion."""
    T, S = J.shape[:2]
    # einsum reduces narrow windows several times faster than sum
    totals = np.einsum("tsw->ts", J.reshape(T, S, -1))
    off = ~(np.abs(totals - 1.0) <= _ENTRY_TOL)
    if off.any():
        start = int(np.argmax(off.any(axis=0)))
        t = int(np.argmax(off[:, start]))
        raise StructuralZeroError(
            f"joint at t={t + 1} sums to {totals[t, start]:.6g}, not one "
            f"({totals[t, start] - 1.0:+.2g}): the slices are "
            "inconsistent there, typically because an emission underflowed or an "
            "exact-zero transition made the peel drop terms",
            start=start,
        )
    return J


def forward_joint_pass(slices, config: ModelConfig) -> np.ndarray:
    """Chain the target slices into joint window posteriors, front to back.

    Returns a (T, k**h, k) array whose block t-1 is the joint posterior of
    (u_{t-h}, ..., u_t) in the layout of the slices, with the lags before the
    series start pinned to index 0. Each joint is its slice times the mass
    carried over the lags, which is the previous joint with its oldest
    variable summed out; where k**(2h+1) <= 64, long series chain it in
    chunks, the same to rounding. A joint that does not sum to one within
    1e-10 raises StructuralZeroError naming its occasion: the peel dropped
    terms of the slices it came from.
    """
    Q = _posterior_array(slices, config, "slices")
    # the joints are written over a copy: the caller's slices stay as given
    return _checked_joints(_forward_joint_pass(Q[:, None].copy(), config.k, config.h))[:, 0]


def state_marginals(joints) -> np.ndarray:
    """Posterior probability of each state at each occasion; rows sum to one."""
    # einsum reduces narrow windows several times faster than sum
    return np.einsum("...mk->...k", joints)


def check_posteriors(slices, joints=None) -> None:
    """Raise ValueError if the posterior arrays break the paper's invariants.

    Every entry must lie in [0, 1], every conditional row of the slices must
    sum to one over u_t, and the joint of every occasion must sum to one. The
    message names the first offending occasion; an array without occasions
    is an error too.
    """
    checks = [("slice", np.asarray(slices), 2)]
    if joints is not None:
        checks.append(("joint", np.asarray(joints), (1, 2)))
    for name, arr, axes in checks:
        T = arr.shape[0] if arr.ndim else 0
        if T == 0:
            raise ValueError(f"{name} array has no occasions: shape {arr.shape}")
        outside = ((arr < -_ENTRY_TOL) | (arr > 1.0 + _ENTRY_TOL)).reshape(T, -1).any(axis=1)
        drift = (np.abs(arr.sum(axis=axes) - 1.0) > _ENTRY_TOL).reshape(T, -1).any(axis=1)
        for hit, what in ((outside, "has entries outside [0, 1]"), (drift, "does not sum to one")):
            if hit.any():
                raise ValueError(f"{name} at t={int(np.argmax(hit)) + 1} {what}")


def local_decode(marginals) -> np.ndarray:
    """Most probable state per occasion (1-based); ties go to the lowest label."""
    m = np.asarray(marginals, dtype=float)
    return np.argmax(m, axis=1).astype(np.int64) + 1


def _xlogx(x: np.ndarray) -> np.ndarray:
    """Sum of x log x over every axis after the first two, 0 log 0 = 0."""
    x = x.reshape(*x.shape[:2], -1)
    # adding one where there is no mass makes those logs 0
    logs = x + (x == 0.0)
    return np.einsum("tsw,tsw->ts", x, np.log(logs, out=logs))


def _joint_loglik(F, P, J, k: int, h: int) -> np.ndarray:
    """(S,) log-likelihoods of S starts: the path identity averaged over the joints.

    F, P and J are the starts' (T, S, k) emission rows, (S, h+1, k**(h+1))
    prior stacks and (T, S, k**h, k) joints. Returns sum_t sum_w J_t(w)
    (log f_t(u_t) + log p_t(w) - log q_t(w)) over every window w = (u_{t-h},
    ..., u_t), where a window without joint mass adds nothing whatever its
    logs hold (0 log 0 = 0). The emission term is summed against the state
    marginals; the prior term once per stack row: each occasion t <= h
    against row t - 1, the later ones' summed joints against row h. As q_t(w)
    = J_t(w) / c_t(lags), c_t the joint summed over u_t, the slice term is
    sum J log J - sum c log c, taken in blocks of about _STAGE_FLOATS
    entries. F is scratch: its logs are taken in place.
    """
    T, S = J.shape[:2]
    per_occasion = np.empty((T, S))
    n = max(1, _STAGE_FLOATS // J[0].size)
    for a in range(0, T, n):
        block, logf = J[a : a + n], F[a : a + n]
        # einsum reduces narrow windows several times faster than sum
        marginals = np.einsum("tsmk->tsk", block)
        np.add(logf, marginals == 0.0, out=logf)
        np.log(logf, out=logf)
        slice_term = _xlogx(block) - _xlogx(np.einsum("tsmk->tsm", block))
        np.subtract(np.einsum("tsk,tsk->ts", marginals, logf), slice_term, out=per_occasion[a : a + n])
    rows = np.zeros(P.shape)
    rows[:, : min(T, h)] = J[:h].reshape(-1, S, k ** (h + 1)).swapaxes(0, 1)
    rows[:, h] = J[h:].sum(axis=0).reshape(S, -1)
    prior = rows * np.log(P + (rows == 0.0))
    # each start sums its own occasions, contiguous and in one order, so its
    # bits do not depend on the batch
    return np.ascontiguousarray(per_occasion.T).sum(axis=1) + prior.reshape(S, -1).sum(axis=1)


def log_likelihood(params: ParameterSet, config: ModelConfig, y, slices, reference=None) -> float:
    """Total data log-likelihood assembled from the conditional posteriors.

    For any fixed admissible path u, summing log f(y_t | u_t) +
    log p(u_t | window) - log q(u_t | window, data) over t telescopes to
    log p(y), and the value does not depend on the chosen path. By default
    the identity is averaged over the posterior of the paths: every window
    of every occasion enters with its joint probability from
    forward_joint_pass, so no path has to be chosen and windows without
    mass add nothing. The average is exact when every joint sums to one, and
    forward_joint_pass raises StructuralZeroError naming the occasion where
    one does not: the peel lost terms, at an exact-zero transition that
    excludes a state another route still reaches, or at an underflow that
    broke no bound. e_step reruns such a start on logs; this function
    takes the slices as given, and chains a copy of them.

    With a reference path the identity runs along that path alone: the sum
    over t of log f + log p - log q at the path's window, which reads one
    entry of each occasion's slice. It raises StructuralZeroError if the
    path hits a zero emission, prior or posterior.
    """
    F, P = _inputs([params], config, y)
    T = len(F)
    Q = _posterior_array(slices, config, "slices", T)[:, None]
    k, h = config.k, config.h
    if reference is None:
        return float(_joint_loglik(F, P, _checked_joints(_forward_joint_pass(Q.copy(), k, h)), k, h)[0])
    ref = _state_path(reference, k, "reference states")
    if ref.size != T:
        raise ValueError(f"reference path has length {ref.size}, expected {T}")
    # padding the path with h leading zeros gives every occasion a full
    # window index into the padded layout, as in the joints
    padded = np.concatenate([np.zeros(h, dtype=np.int64), ref - 1])
    windows = sliding_window_view(padded, h + 1) @ (k ** np.arange(h, -1, -1))
    t = np.arange(T)
    rows = np.zeros(P.shape[1:])
    rows[t[:h], windows[:h]] = 1.0
    rows[h] = np.bincount(windows[h:], minlength=rows.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        per_occasion = np.log(F[t, 0, ref - 1]) - np.log(Q.reshape(T, -1)[t, windows])
        prior = rows * np.log(P[0] + (rows == 0.0))
        ll = float(per_occasion.sum() + prior.reshape(-1).sum())
    if not np.isfinite(ll):
        raise StructuralZeroError("reference path hits a zero posterior; supply another admissible path")
    return ll


@dataclass(frozen=True)
class Prediction:
    """One-step-ahead state call and predictive mixture for the next observation."""

    next_state: int
    weights: np.ndarray
    sigma: np.ndarray

    def density(self, x):
        """Predictive density: a zero-mean Gaussian mixture over the k states."""
        arr = np.asarray(x, dtype=float)
        flat = emission_matrix(arr.reshape(-1), self.sigma) @ self.weights
        if arr.ndim == 0:
            return float(flat[0])
        return flat.reshape(arr.shape)


def predict(params: ParameterSet, config: ModelConfig, history) -> Prediction:
    """Predict the next latent state and the distribution of the next observation.

    history is a flat state path, integer labels 1..k, such as
    local_decode of e_step's joints; only its last min(T, h) states matter.
    After n states the next state's distribution is row min(n, h) of the
    padded prior stack, the row simulate draws from, at the last min(n, h)
    states.
    """
    _check_compat(params, config)
    states = _state_path(history, config.k, "state labels")
    k, h = config.k, config.h
    n = min(int(states.size), h)
    flat = 0
    for digit in states[states.size - n :]:
        flat = flat * k + int(digit) - 1
    weights = np.array(_prior_stack(params)[n].reshape(k**h, k)[flat], dtype=float)
    return Prediction(
        next_state=int(np.argmax(weights)) + 1,
        weights=weights,
        sigma=np.array(params.sigma, dtype=float),
    )
