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
fit's length.
Emission rows and prior stacks are built outside the timed region.
The forward pass runs in chunks at (2, 1), (3, 1), (2, 2) and (4, 1) only:
(2, 3), at k**(2h+1) = 128 per start, is the cheapest grid point past the
chunk bound of 64 and runs occasion by occasion, as (3, 2) does.

    python scripts/engine_timing.py [--repeats 5] [--scale 1.0]

--scale shrinks every series length, for a quick smoke run.
"""

import argparse
import math
import statistics
import time
from unittest import mock

import numpy as np

from hmmsv import ModelConfig, ParameterSet, bw_backward
from hmmsv import recursion
from hmmsv.recursion import (
    _backward_pass,
    _block_priors,
    _conditionals,
    _forward_joint_pass,
    _inputs,
    _numerator,
    _overlap_backward,
)

GRID = (
    (2, 1, 10_000), (3, 1, 10_000), (2, 3, 10_000), (3, 2, 10_000), (4, 2, 10_000), (3, 3, 5_000), (2, 4, 5_000),
    (2, 1, 2_500), (3, 1, 2_500), (2, 2, 2_500), (4, 1, 2_500),
)
BATCHES = (1, 4, 10)


def random_set(k: int, h: int, rng) -> ParameterSet:
    early = tuple(rng.dirichlet(np.ones(k), size=k**i) for i in range(h))
    pi = rng.dirichlet(np.ones(k), size=k**h)
    return ParameterSet(early=early, pi=pi, sigma=np.sort(rng.uniform(0.5, 3.0, size=k)))


def interior_build(F, P, k: int, h: int) -> None:
    """The conditionals of occasions h + 1, ..., T - h, built in blocks of
    recursion._block_span occasions into one reused array, as the pass
    builds them."""
    T, S = F.shape[:2]
    span = recursion._block_span(S, k, h)
    priors = _block_priors(P, h + 1, h)
    out = np.empty((min(span, T - 2 * h), S, k ** (2 * h + 1)))
    for a in range(h + 1, T - h + 1, span):
        n = min(span, T - h + 1 - a)
        _conditionals(_numerator(F[a - 1 : a - 1 + n], priors, k, h, out[:n]), k, h)


def median_us(fn, repeats: int, T: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / T * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    names = ("build", "backward", "chunks", "forward")
    head = ["k", "h", "T"] + [f"{name} S={S}" for S in BATCHES for name in names] + ["bw_backward"]
    print(f"numpy {np.__version__}, median of {args.repeats}, us per occasion")
    print("  ".join(f"{c:>12s}" for c in head))
    for k, h, T in GRID:
        T = max(2 * h + 2, int(T * args.scale))
        rng = np.random.default_rng([k, h, T])
        group = [random_set(k, h, rng) for _ in range(max(BATCHES))]
        y = rng.normal(0.0, 1.5, size=T)
        row, config = [k, h, T], ModelConfig(k=k, h=h)
        for S in BATCHES:
            F, P = _inputs(group[:S], config, y)
            Q = _backward_pass(F, P, k, h)
            row.append(median_us(lambda: interior_build(F, P, k, h), args.repeats, T - 2 * h))
            row.append(median_us(lambda: _backward_pass(F, P, k, h), args.repeats, T))
            with mock.patch.object(recursion, "_OVERLAP_COST", math.inf):
                row.append(median_us(lambda: _overlap_backward(F, P, k, h), args.repeats, T))
            row.append(median_us(lambda: _forward_joint_pass(Q, k, h), args.repeats, T))
        if h == 1:
            row.append(median_us(lambda: bw_backward(group[0], config, y), args.repeats, T))
        else:
            row.append("-")
        print("  ".join(f"{c:>12.2f}" if isinstance(c, float) else f"{c!s:>12s}" for c in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
