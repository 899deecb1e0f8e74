#!/usr/bin/env python3
"""Fingerprint the engine's outputs: one sha256 per output family.

Runs the public API over a fixed set of random instances (k <= 4, h <= 3,
T <= 60; every other draw has exact zeros in its transitions, so the
zero-mass peel path runs too) and prints one digest for each family:

- slices: backward_pass
- joints: forward_joint_pass of those slices, or its error
- loglik: log_likelihood of those slices, or its error
- e_step: a batched e_step over three parameter sets, joints and
  log-likelihoods, or the failing start
- fit: fit with three starts and 25 iterations: parameters, trace,
  converged flag, winning start and log-likelihood
- cli: a fixed command-line session through hmmsv.cli.main (every command,
  JSON and CSV, and one failing command): each command's arguments, exit
  code, stdout and stderr, then every file the session wrote
- repair: backward_pass, and a batched e_step of that set between two
  positive sets, on three inputs that reach the rerun on logs: the fitted
  sets of two EM draws whose transitions underflow, where the linear peel
  breaks its bound, and one outlier draw whose linear slices fail the joint
  mass, where the rerun refuses an underflowing emission row
- overlap: EM's backward pass in overlapping chunks, on T = 2,500 draws
  at (k, h) = (2, 1) and (3, 1): a batched e_step over three sets and a
  two-start fit, plus a batched e_step beside a sticky set (diagonal
  0.9999, close volatilities) whose chunks miss the seam tolerance, so it
  reruns the sequential pass

Errors enter a digest by type and start, not by message, so rewording a
message moves no digest. Equal digests from two commits
mean equal bits on these instances, on the same numpy build and machine.
A finite default log-likelihood that differs from lag_chain_loglik by more
than 1e-8 relative is printed and makes the exit status 1, so a silently
wrong likelihood fails the run.
The cli session runs in a temporary working directory with relative file
names, so no temporary path reaches its output.

    python scripts/fingerprint.py [--draws 40]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings

import numpy as np

from hmmsv import (
    EMSettings,
    EstimationError,
    ModelConfig,
    ParameterSet,
    StructuralZeroError,
    backward_pass,
    e_step,
    fit,
    forward_joint_pass,
    lag_chain_loglik,
    log_likelihood,
    simulate,
)
from hmmsv.cli import main as cli_main

FAMILIES = ("slices", "joints", "loglik", "e_step", "fit", "cli", "repair", "overlap")

EM = ["--starts", "2", "--seed", "4", "--max-iter", "30"]
CLI_SESSION = [
    ["simulate", "--params", "truth2.json", "--length", "300", "--seed", "1", "--out", "sim2.csv"],
    ["simulate", "--params", "truth3.json", "--length", "200", "--seed", "2", "--out", "sim3.csv"],
    ["simulate", "--params", "truth2.json", "--length", "5", "--seed", "3", "--format", "json"],
    ["fit", "--input", "sim2.csv", "--column", "y", "--k", "2", "--h", "1", *EM, "--out", "fit21.json"],
    ["fit", "--input", "sim2.csv", "--column", "y", "--k", "2", "--h", "1", *EM, "--format", "csv"],
    ["fit", "--input", "sim2.csv", "--column", "2", "--k", "1", "--h", "0", *EM, "--out", "fit10.json"],
    ["fit", "--input", "sim2.csv", "--column", "2", "--k", "1", "--h", "0", *EM, "--format", "csv"],
    ["fit", "--input", "sim3.csv", "--column", "y", "--k", "3", "--h", "2", *EM, "--format", "csv"],
    ["grid", "--input", "sim2.csv", "--column", "y", "--h-list", "0", "1", "--k-list", "1", "2", *EM],
    ["grid", "--input", "sim2.csv", "--column", "y", "--h-list", "0", "1", "--k-list", "1", "2", *EM,
     "--format", "csv", "--out", "grid.csv"],
    ["decode", "--params", "fit21.json", "--input", "sim2.csv", "--column", "y"],
    ["decode", "--params", "fit21.json", "--input", "sim2.csv", "--column", "y", "--format", "csv"],
    ["decode", "--params", "truth3.json", "--input", "prices.csv", "--column", "close", "--prices",
     "--format", "csv", "--out", "dec3.csv"],
    ["predict", "--params", "fit21.json", "--input", "sim2.csv", "--column", "y"],
    ["predict", "--params", "fit21.json", "--input", "sim2.csv", "--column", "y", "--format", "csv"],
    ["predict", "--params", "fit10.json", "--input", "sim2.csv", "--column", "y", "--format", "csv"],
    ["decode", "--params", "missing.json", "--input", "sim2.csv", "--column", "y"],
]


def random_set(k: int, h: int, rng, zeros: bool, sigma=(0.4, 4.0)) -> ParameterSet:
    """Random tables; with zeros, each row's smallest entry becomes exactly 0.
    The volatilities are drawn uniformly from the range sigma."""

    def table(rows: int) -> np.ndarray:
        out = rng.dirichlet(np.ones(k), size=rows)
        if zeros and k > 1:
            out[np.arange(rows), out.argmin(axis=1)] = 0.0
            out /= out.sum(axis=1, keepdims=True)
        return out

    early = tuple(table(k**i) for i in range(h))
    return ParameterSet(early=early, pi=table(k**h), sigma=np.sort(rng.uniform(*sigma, size=k)))


def repair_inputs() -> list:
    """(config, params, y) for the repair family. Seeds 226 and 262 draw a k
    <= 3, h <= 2 model and 60 observations from it; EM on those drives
    transitions below 1e-130. Draw 68 of an outlier probe puts an
    observation 36.5 to 38.6 times the largest sigma out."""
    inputs = []
    for seed in (226, 262):
        rng = np.random.default_rng(seed)
        k, h = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        config = ModelConfig(k=k, h=h)
        _, series = simulate(config, random_set(k, h, rng, zeros=False), 60, seed=seed)
        res = fit(config, series, EMSettings(n_starts=1, seed=2, max_iterations=40))
        inputs.append((config, res.params, series.y))
    rng = np.random.default_rng(0)
    for _ in range(69):
        h = int(rng.integers(1, 4))
        T = int(rng.integers(h + 3, 11))
        params = random_set(2, h, rng, zeros=False, sigma=(1.0, 1.05))
        y = rng.normal(0, 1, T)
        idx = rng.choice(T, rng.integers(1, 3), replace=False)
        y[idx] = rng.uniform(36.5, 38.6, idx.size) * params.sigma.max() * rng.choice([-1, 1], idx.size)
    inputs.append((ModelConfig(k=2, h=h), params, y))
    return inputs


def fit_numbers(res):
    """A fit's numbers as a tuple to feed, or its error."""
    if isinstance(res, Exception):
        return res
    p = res.params
    return (p.sigma, p.pi, *p.early, res.trace, float(res.converged), float(res.start_index), res.loglik)


def feed(digest, value) -> None:
    """Add arrays, numbers, tuples and errors to digest, shapes included."""
    if isinstance(value, Exception):
        digest.update(f"{type(value).__name__}:{getattr(value, 'start', '')}".encode())
    elif isinstance(value, (tuple, list)):
        for item in value:
            feed(digest, item)
    else:
        arr = np.ascontiguousarray(value, dtype=float)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())


def attempt(fn):
    try:
        return fn()
    except (StructuralZeroError, EstimationError) as exc:
        return exc


def cli_session(digest) -> None:
    """Run CLI_SESSION in a temporary working directory and feed its bytes to digest."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, (k, h, seed) in {"truth2.json": (2, 1, 7), "truth3.json": (3, 2, 8)}.items():
                p = random_set(k, h, np.random.default_rng([seed, 2718]), zeros=False)
                tables = {"sigma": p.sigma.tolist(), "early": [t.tolist() for t in p.early], "pi": p.pi.tolist()}
                with open(name, "w") as fh:
                    json.dump({"k": k, "h": h, **tables}, fh)
            y = np.random.default_rng([9, 2718]).normal(0.0, 1.5, size=150)
            prices = 100.0 * np.exp(np.cumsum(np.concatenate([[0.0], y / 100.0])))
            with open("prices.csv", "w") as fh:
                fh.write("day,close\n" + "".join(f"{d},{v:.10g}\n" for d, v in enumerate(prices)))
            for argv in CLI_SESSION:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = cli_main(argv)
                for text in (" ".join(argv), str(status), out.getvalue(), err.getvalue()):
                    digest.update(text.encode() + b"\0")
            for name in sorted(os.listdir(work)):
                with open(name, "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read() + b"\0")
        finally:
            os.chdir(home)


def overlap(digest) -> None:
    """Feed the overlap family to digest."""
    for k in (2, 3):
        rng = np.random.default_rng([k, 1, 2500])
        config = ModelConfig(k=k, h=1)
        _, series = simulate(config, random_set(k, 1, rng, zeros=False), 2500, seed=k)
        group = [random_set(k, 1, rng, zeros=False) for _ in range(3)]
        feed(digest, attempt(lambda: e_step(group, config, series.y)))
        settings = EMSettings(n_starts=2, max_iterations=10)
        feed(digest, fit_numbers(attempt(lambda: fit(config, series.y, settings))))
    rng = np.random.default_rng([2, 1, 2718])
    pi = np.array([[0.9999, 0.0001], [0.0001, 0.9999]])
    sticky = ParameterSet(early=(np.array([[0.5, 0.5]]),), pi=pi, sigma=np.array([1.0, 1.2]))
    group = [random_set(2, 1, rng, zeros=False), sticky]
    feed(digest, attempt(lambda: e_step(group, ModelConfig(k=2, h=1), rng.normal(0.0, 1.1, size=2500))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=40)
    args = parser.parse_args()
    digests = {name: hashlib.sha256() for name in FAMILIES}
    warnings.simplefilter("ignore")
    status = 0
    for seed in range(args.draws):
        rng = np.random.default_rng([seed, 2718])
        k, h, T = int(rng.integers(1, 5)), int(rng.integers(0, 4)), int(rng.integers(1, 61))
        config = ModelConfig(k=k, h=h)
        group = [random_set(k, h, rng, zeros=(seed % 2 == 1) and i == 0) for i in range(3)]
        y = rng.normal(0.0, 2.0, size=T)
        slices = attempt(lambda: backward_pass(group[0], config, y))
        feed(digests["slices"], slices)
        if not isinstance(slices, Exception):
            feed(digests["joints"], attempt(lambda: forward_joint_pass(slices, config)))
            ll = attempt(lambda: log_likelihood(group[0], config, y, slices))
            feed(digests["loglik"], ll)
            if not isinstance(ll, Exception):
                want = lag_chain_loglik(group[0], config, y)
                if not abs(ll - want) <= 1e-8 * abs(want):
                    print(f"draw {seed}: log_likelihood {ll!r} but lag_chain_loglik {want!r}")
                    status = 1
        feed(digests["e_step"], attempt(lambda: e_step(group, config, y)))
        settings = EMSettings(n_starts=3, max_iterations=25, seed=seed)
        feed(digests["fit"], fit_numbers(attempt(lambda: fit(config, y, settings))))
    cli_session(digests["cli"])
    for config, params, y in repair_inputs():
        rng = np.random.default_rng([config.k, config.h, 2718])
        wide = [random_set(config.k, config.h, rng, zeros=False, sigma=(1.0, 40.0)) for _ in range(2)]
        feed(digests["repair"], attempt(lambda: backward_pass(params, config, y)))
        feed(digests["repair"], attempt(lambda: e_step([wide[0], params, wide[1]], config, y)))
    overlap(digests["overlap"])
    print(f"numpy {np.__version__}, {args.draws} draws")
    for name in FAMILIES:
        print(f"{name:7s} {digests[name].hexdigest()}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
