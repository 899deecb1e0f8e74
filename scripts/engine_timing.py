#!/usr/bin/env python3
"""Time the peeling engine per occasion over a fixed (k, h, T) grid.

For each grid point prints the median microseconds per occasion of the
private batched passes, _backward_pass and _forward_joint_pass, at S = 1, 4
and 10 parameter sets sharing the series (10 is fit's default number of
starts), plus oracle.bw_backward, the scaled forward-backward smoother, as
the yardstick where it applies (h = 1). The build column times the backward
pass's interior conditional build alone, in the blocks the pass builds
(recursion._block_span occasions, about recursion._STAGE_FLOATS floats
each), per interior occasion, so that the build and the peel loop (backward
less build) show separately. The chunks column times
recursion._overlap_backward, EM's backward pass, with its cost cap lifted,
so every shape runs as overlapping chunks where the series holds two chunk
lengths (elsewhere it is the backward pass again). Each chunk keeps L =
max(W, ceil(sqrt(T W) / 2)) occasions and runs on L + W + h, with W =
recursion._OVERLAP overlap occasions: 400 and 657 at T = 2,500, 800 and
1,057 at T = 10,000. EM takes the chunks only where k**(2h+1) <=
recursion._OVERLAP_COST, here at (2, 1) and (3, 1); the rows at T = 2,500
show fit-h1's shape, (2, 1), and the shapes either side of that cap at
fit's length. The row (3, 2, 100,000) is the CLI decode benchmark's shape,
one start on a long series. Series longer than LONG = 10,000 occasions
time S = 1 only: that row's S = 10 arrays would take hundreds of MB.
Emission rows and prior stacks are built outside the timed region.
The forward pass runs in chunks at (2, 1), (3, 1), (2, 2) and (4, 1) only:
(2, 3), at k**(2h+1) = 128 per start, is the cheapest grid point past the
chunk bound of 64 and runs occasion by occasion, as (3, 2) does. It
writes its joints over the slices it is given, so each forward call chains
a fresh copy, and the forward column includes that copy. With one start
the backward pass makes one divide per wavefront step, 1 + k calls per
interior occasion; with several, h + k. The last two columns give memory,
not time: the tracemalloc peak in MiB of one call of e_step and of
posterior_joints at S = 1, the two posterior routes. Both hold one
(T, k**h, k) array; e_step adds the log-likelihood, which reads the joints
in blocks.

    python scripts/engine_timing.py [--repeats 5] [--scale 1.0] [--against PATH]

--scale shrinks every series length, for a quick smoke run. --against PATH
imports the hmmsv package of the source tree at PATH beside the one on the
import path, times every cell on both, alternating which goes first, and
prints for each cell the median, least and greatest of the per-pair ratios,
this tree's time over PATH's: below 1 is faster here. Unpaired medians of
separate runs can swing 2x on a busy host; the pairs share its state. The
memory columns give this tree's peak over PATH's, once, as a traced peak
does not vary between runs; "-" where PATH has no posterior_joints.
"""

import argparse
import importlib.util
import math
import statistics
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

import hmmsv

GRID = (
    (2, 1, 10_000), (3, 1, 10_000), (2, 3, 10_000), (3, 2, 10_000), (4, 2, 10_000), (3, 3, 5_000), (2, 4, 5_000),
    (2, 1, 2_500), (3, 1, 2_500), (2, 2, 2_500), (4, 1, 2_500),
    (3, 2, 100_000),
)
BATCHES = (1, 4, 10)
# longest series timed at every batch size; longer rows time S = 1 alone
LONG = 10_000
NAMES = ("build", "backward", "chunks", "forward")


def load_tree(path: str):
    """The hmmsv package of the source tree at path, imported beside the one
    on the import path under another name."""
    init = Path(path, "src", "hmmsv", "__init__.py")
    spec = importlib.util.spec_from_file_location("hmmsv_against", init, submodule_search_locations=[str(init.parent)])
    tree = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tree
    spec.loader.exec_module(tree)
    return tree


def random_set(tree, k: int, h: int, rng):
    early = tuple(rng.dirichlet(np.ones(k), size=k**i) for i in range(h))
    pi = rng.dirichlet(np.ones(k), size=k**h)
    return tree.ParameterSet(early=early, pi=pi, sigma=np.sort(rng.uniform(0.5, 3.0, size=k)))


def interior_build(rec, F, P, k: int, h: int) -> None:
    """The conditionals of occasions h + 1, ..., T - h, built in blocks of
    recursion._block_span occasions into one reused array, as the pass
    builds them."""
    T, S = F.shape[:2]
    span = rec._block_span(S, k, h)
    priors = rec._block_priors(P, h + 1, h)
    out = np.empty((min(span, T - 2 * h), S, k ** (2 * h + 1)))
    for a in range(h + 1, T - h + 1, span):
        n = min(span, T - h + 1 - a)
        rec._conditionals(rec._numerator(F[a - 1 : a - 1 + n], priors, k, h, out[:n]), k, h)


def chunked(rec, F, P, k: int, h: int) -> None:
    """EM's backward pass with its cost cap lifted."""
    with mock.patch.object(rec, "_OVERLAP_COST", math.inf):
        rec._overlap_backward(F, P, k, h)


def forward(rec, Q, k: int, h: int) -> None:
    """The forward joint pass over a copy of the slices Q."""
    rec._forward_joint_pass(Q.copy(), k, h)


def row_inputs(tree, k: int, h: int, T: int):
    """A grid row's model, its max(BATCHES) parameter sets and its series."""
    rng = np.random.default_rng([k, h, T])
    group = [random_set(tree, k, h, rng) for _ in range(max(BATCHES))]
    return tree.ModelConfig(k=k, h=h), group, rng.normal(0.0, 1.5, size=T)


def row_calls(tree, k: int, h: int, T: int):
    """One grid row on the package tree: a (call, occasions) pair per
    column, None where the column does not apply. A generator, so that
    only one batch size's arrays are alive at a time."""
    rec = tree.recursion
    config, group, y = row_inputs(tree, k, h, T)
    for S in BATCHES:
        if S > 1 and T > LONG:
            yield from [None] * len(NAMES)
            continue
        F, P = rec._inputs(group[:S], config, y)
        Q = rec._backward_pass(F, P, k, h)
        yield (partial(interior_build, rec, F, P, k, h), T - 2 * h)
        yield (partial(rec._backward_pass, F, P, k, h), T)
        yield (partial(chunked, rec, F, P, k, h), T)
        yield (partial(forward, rec, Q, k, h), T)
    yield (partial(tree.bw_backward, group[0], config, y), T) if h == 1 else None


def row_peaks(tree, k: int, h: int, T: int) -> list:
    """The tracemalloc peaks, in MiB, of e_step and posterior_joints on a
    grid row's first parameter set; None where the tree lacks the route."""
    config, group, y = row_inputs(tree, k, h, T)
    peaks = []
    for route in (tree.e_step, getattr(tree, "posterior_joints", None)):
        if route is None:
            peaks.append(None)
            continue
        tracemalloc.start()
        try:
            route(group[0], config, y)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return peaks


def seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_us(call, repeats: int) -> str:
    fn, occasions = call
    return f"{statistics.median(seconds(fn) for _ in range(repeats)) / occasions * 1e6:.2f}"


def paired_ratio(call, other, repeats: int) -> str:
    """Median, least and greatest of the per-pair time ratios of call over
    other; the pair's first run alternates between the two."""
    ratios = []
    for i in range(repeats):
        if i % 2:
            theirs, ours = seconds(other[0]), seconds(call[0])
        else:
            ours, theirs = seconds(call[0]), seconds(other[0])
        ratios.append(ours / theirs)
    return f"{statistics.median(ratios):.2f} {min(ratios):.2f}-{max(ratios):.2f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--against", metavar="PATH", help="source tree to time alongside, in pairs")
    args = parser.parse_args()
    other = load_tree(args.against) if args.against else None
    head = ["k", "h", "T"] + [f"{name} S={S}" for S in BATCHES for name in NAMES] + ["bw_backward"]
    head += ["e_step MiB", "joints MiB"]
    if other:
        print(f"numpy {np.__version__}, time ratio this tree / {args.against}, median least-greatest of {args.repeats} pairs")
    else:
        print(f"numpy {np.__version__}, median of {args.repeats}, us per occasion")
    width = 15 if other else 12
    print("  ".join(f"{c:>{width}s}" for c in head))
    for k, h, T in GRID:
        T = max(2 * h + 2, int(T * args.scale))
        row = [k, h, T]
        calls = row_calls(hmmsv, k, h, T)
        peaks = row_peaks(hmmsv, k, h, T)
        if other:
            pairs = zip(calls, row_calls(other, k, h, T))
            row += ["-" if call is None else paired_ratio(call, against, args.repeats) for call, against in pairs]
            pairs = zip(peaks, row_peaks(other, k, h, T))
            row += ["-" if theirs is None else f"{ours / theirs:.2f}" for ours, theirs in pairs]
        else:
            row += ["-" if call is None else median_us(call, args.repeats) for call in calls]
            row += [f"{peak:.1f}" for peak in peaks]
        print("  ".join(f"{c!s:>{width}s}" for c in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
