#!/usr/bin/env python3
"""Long-series numerical check: the peeling pass against the scaled smoother.

Simulates a persistent three-regime series, runs the posterior pass with no
rescaling anywhere, and reports the bounds of every stored tensor, the
log-likelihood agreement with the scaled first-order recursions, and wall
clock per route.
"""

import argparse
import time

import numpy as np

from hmmsv import (
    ModelConfig,
    ParameterSet,
    backward_pass,
    bw_backward,
    forward_joint_pass,
    log_likelihood,
    simulate,
    state_marginals,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=77)
    args = parser.parse_args()

    config = ModelConfig(k=3, h=1)
    params = ParameterSet(
        early=(np.full((1, 3), 1.0 / 3),),
        pi=np.array([[0.97, 0.02, 0.01], [0.02, 0.96, 0.02], [0.01, 0.02, 0.97]]),
        sigma=np.array([1.0, 2.5, 6.0]),
    )
    print(f"simulating T={args.length} from k=3, h=1, sigma=(1, 2.5, 6)")
    _, series = simulate(config, params, args.length, seed=args.seed)

    start = time.perf_counter()
    slices = backward_pass(params, config, series)
    joints = forward_joint_pass(slices, config)
    marginals = state_marginals(joints)
    ll = log_likelihood(params, config, series, slices)
    peel_time = time.perf_counter() - start

    lo, hi = slices.min(), slices.max()
    # joints of occasions t <= h are zero in the lag rows they lack
    jlo, jhi = joints[config.h :].min(), joints[config.h :].max()
    print(f"\npeeling pass: {peel_time:.2f}s, no rescaling applied")
    print(f"  slice entries within  [{lo:.3e}, {hi:.10f}]")
    print(f"  joint entries within  [{jlo:.3e}, {jhi:.10f}]")
    print(f"  log-likelihood {ll:.6f}")

    start = time.perf_counter()
    tables = bw_backward(params, config, series)
    scaled_time = time.perf_counter() - start
    print(f"\nscaled forward-backward: {scaled_time:.2f}s, one renormalization per occasion")
    print(f"  log-likelihood {tables.loglik:.6f}")
    print(f"\nabsolute log-likelihood difference: {abs(ll - tables.loglik):.3e}")
    print(f"occupancy of the decoded states: {np.bincount(np.argmax(marginals, axis=1), minlength=3)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
