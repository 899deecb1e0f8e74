"""The three benchmark workloads: inputs, one operation, and its output check.

Every workload simulates its inputs with hmmsv.simulate from the run's seed,
so the program under test receives only generated data. Operations look up
the public function on its module at call time, so the tracer's wrappers are
used whenever they are installed.

Output checks run outside the timed region. Operations are deterministic for
a given input, so a check is run once per distinct output digest and its
verdict reused for every operation that produced the same digest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hmmsv
import hmmsv.cli

REL_TOL = 1e-8

# sha256 of the decode-long output for DEFAULT_SEED at full size, recorded on
# the commit that introduced this benchmark: CLI output must stay
# byte-identical across changes. numpy picks its exp/log kernels by CPU
# feature at run time, and other kernels may differ in the last bit, so the
# digest only binds on the numpy version and SIMD targets it was recorded on.
DEFAULT_SEED = 1
DECODE_DEFAULT_SHA256 = "f2fb1a3c0f37ae5d301fe5413d381a656d96a9babe422b122d467dc703afa58d"
DECODE_SHA_PLATFORM = "numpy 2.4.6, simd X86_V3+X86_V4+AVX512_ICL+AVX512_SPR"


def simd_platform() -> str:
    """numpy version plus the SIMD targets its dispatcher enabled on this CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    enabled = "+".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return f"numpy {np.__version__}, simd {enabled}"


def _rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _row(stay: int, p: float, k: int) -> np.ndarray:
    row = np.full(k, (1.0 - p) / (k - 1))
    row[stay] = p
    return row


def truth_k2h1():
    """Two regimes, sigma (1, 2.5), persistence 0.95: daily-return scale."""
    config = hmmsv.ModelConfig(k=2, h=1)
    params = hmmsv.ParameterSet(
        early=(np.array([[0.5, 0.5]]),),
        pi=np.array([_row(b, 0.95, 2) for b in range(2)]),
        sigma=np.array([1.0, 2.5]),
    )
    return config, params


def truth_k3h2():
    """Three regimes of order two: staying is likelier after two equal days."""
    config = hmmsv.ModelConfig(k=3, h=2)
    params = hmmsv.ParameterSet(
        early=(np.full((1, 3), 1.0 / 3.0), np.array([_row(b, 0.9, 3) for b in range(3)])),
        pi=np.array([_row(b, 0.96 if a == b else 0.85, 3) for a in range(3) for b in range(3)]),
        sigma=np.array([1.0, 2.0, 4.0]),
    )
    return config, params


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _params_parts(params) -> list:
    return [params.sigma, params.pi, *params.early]


def _path_invariance(params, config, y) -> list[str]:
    """The likelihood identity must give one value along the all-ones path and
    along the locally decoded path; returns the problems found."""
    slices = hmmsv.backward_pass(params, config, y)
    ones = np.ones(len(slices), dtype=np.int64)
    decoded = hmmsv.local_decode(hmmsv.state_marginals(hmmsv.forward_joint_pass(slices, config)))
    try:
        ll_ones = hmmsv.log_likelihood(params, config, y, slices, reference=ones)
        ll_dec = hmmsv.log_likelihood(params, config, y, slices, reference=decoded)
    except hmmsv.StructuralZeroError as exc:
        return [f"reference path hit a zero posterior: {exc}"]
    if not _rel_close(ll_ones, ll_dec):
        return [f"log-likelihood depends on the reference path: {ll_ones!r} vs {ll_dec!r}"]
    return []


@dataclass
class FitH1:
    """fit() of k=2, h=1 with four starts on ten years of daily returns."""

    name = "fit-h1"
    T: int = 2500
    n_starts: int = 4
    max_iterations: int = 10

    @classmethod
    def toy(cls):
        return cls(T=300, n_starts=2, max_iterations=3)

    def setup(self, seed: int, workdir: Path) -> dict:
        config, truth = truth_k2h1()
        _, series = hmmsv.simulate(config, truth, self.T, seed)
        settings = hmmsv.EMSettings(
            n_starts=self.n_starts, max_iterations=self.max_iterations, rel_tolerance=1e-8, seed=seed
        )
        return {"config": config, "y": series.y, "settings": settings}

    def op(self, inp):
        return hmmsv.fit(inp["config"], inp["y"], inp["settings"])

    def collect(self, inp, raw):
        return raw

    def digest(self, result) -> str:
        return _sha(*_params_parts(result.params), result.trace, result.start_index)

    def check(self, inp, result) -> list[str]:
        config, y = inp["config"], inp["y"]
        problems = list(hmmsv.validate(result.params, config))
        oracle = hmmsv.bw_forward(result.params, config, y).loglik
        if not _rel_close(result.loglik, oracle):
            problems.append(f"loglik {result.loglik!r} disagrees with bw_forward {oracle!r}")
        trace = np.asarray(result.trace)
        if np.any(np.diff(trace) < -REL_TOL * abs(result.loglik)):
            problems.append("EM log-likelihood trace decreases")
        return problems


@dataclass
class GridOrders:
    """grid_search over h in 0..3 and k in {2, 3}, one start per cell."""

    name = "grid-orders"
    T: int = 2500
    max_iterations: int = 5

    @classmethod
    def toy(cls):
        return cls(T=150, max_iterations=2)

    def setup(self, seed: int, workdir: Path) -> dict:
        config, truth = truth_k3h2()
        _, series = hmmsv.simulate(config, truth, self.T, seed)
        settings = hmmsv.EMSettings(n_starts=1, max_iterations=self.max_iterations, seed=seed)
        return {"y": series.y, "settings": settings}

    def op(self, inp):
        return hmmsv.grid_search(inp["y"], h_values=[0, 1, 2, 3], k_values=[2, 3], settings=inp["settings"])

    def collect(self, inp, raw):
        return raw

    def digest(self, result) -> str:
        parts = [result.selected, sorted(result.errors.items())]
        for cell, res in sorted(result.results.items()):
            parts += [cell, *_params_parts(res.params), res.trace]
        return _sha(*parts)

    def check(self, inp, result) -> list[str]:
        y = inp["y"]
        problems = [f"cell {cell} failed: {msg}" for cell, msg in sorted(result.errors.items())]
        for (h, k), res in sorted(result.results.items()):
            config = hmmsv.ModelConfig(k=k, h=h)
            problems += [f"cell {(h, k)}: {p}" for p in _path_invariance(res.params, config, y)]
            if h == 1:
                oracle = hmmsv.bw_forward(res.params, config, y).loglik
                if not _rel_close(res.loglik, oracle):
                    problems.append(f"cell {(h, k)}: loglik {res.loglik!r} disagrees with bw_forward {oracle!r}")
        return problems


@dataclass
class DecodeLong:
    """`hmmsv decode` in-process on a long price file, CSV output."""

    name = "decode-long"
    rows: int = 100_001

    @classmethod
    def toy(cls):
        return cls(rows=2_001)

    def setup(self, seed: int, workdir: Path) -> dict:
        config, truth = truth_k3h2()
        _, series = hmmsv.simulate(config, truth, self.rows - 1, seed)
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(series.y) / 100.0]))
        prices_path = workdir / f"decode-prices-{seed}.csv"
        prices_path.write_text("t,Close\n" + "".join(f"{t},{float(p)!r}\n" for t, p in enumerate(prices)))
        params_path = workdir / f"decode-params-{seed}.json"
        params_path.write_text(
            json.dumps(
                {
                    "k": config.k,
                    "h": config.h,
                    "sigma": truth.sigma.tolist(),
                    "early": [tbl.tolist() for tbl in truth.early],
                    "pi": truth.pi.tolist(),
                }
            )
        )
        out_path = workdir / f"decode-out-{seed}.csv"
        argv = [
            "decode", "--params", str(params_path), "--input", str(prices_path), "--column", "Close",
            "--prices", "--format", "csv", "--out", str(out_path),
        ]  # fmt: skip
        return {"argv": argv, "params": params_path, "prices": prices_path, "out": out_path, "seed": seed}

    def op(self, inp):
        # the human summary on stderr is part of the command's work; keep it off the terminal
        with contextlib.redirect_stderr(io.StringIO()):
            status = hmmsv.cli.main(inp["argv"])
        if status != 0:
            raise RuntimeError(f"decode exited with status {status}")

    def collect(self, inp, raw) -> bytes:
        return inp["out"].read_bytes()

    def digest(self, output: bytes) -> str:
        return hashlib.sha256(output).hexdigest()

    def check(self, inp, output: bytes) -> list[str]:
        config, params = hmmsv.cli.load_params(inp["params"])
        rows = list(csv.reader(io.StringIO(output.decode())))
        header = ["t", "state"] + [f"q{v}" for v in range(1, config.k + 1)]
        if rows[0] != header:
            return [f"header {rows[0]} is not {header}"]
        body = np.array(rows[1:], dtype=float)
        if body.shape[0] != self.rows - 1:
            return [f"{body.shape[0]} output rows for {self.rows - 1} returns"]
        states = body[:, 1].astype(np.int64)
        marginals = body[:, 2:]
        problems = []
        # the CSV carries 10 significant digits per entry
        if np.max(np.abs(marginals.sum(axis=1) - 1.0)) > 1e-8:
            problems.append("marginal rows do not sum to one")
        if np.any(marginals[np.arange(states.size), states - 1] < marginals.max(axis=1)):
            problems.append("a decoded state is not the argmax of its marginal row")
        series = hmmsv.cli.ingest(inp["prices"], "Close", prices=True)
        problems += _path_invariance(params, config, series.y)
        if inp["seed"] == DEFAULT_SEED and self.rows == DecodeLong.rows and simd_platform() == DECODE_SHA_PLATFORM:
            if self.digest(output) != DECODE_DEFAULT_SHA256:
                problems.append("output bytes differ from the recorded default-seed sha256")
        return problems


WORKLOADS = {wl.name: wl for wl in (FitH1, GridOrders, DecodeLong)}
