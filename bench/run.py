#!/usr/bin/env python3
"""hmmsv benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload fit-h1 --seed 1 --seconds 35 --trace 0

Runs from a source checkout: the package is imported from src/ next to this
directory, never from an installed copy. Inputs are simulated from --seed.
Operations run back to back in this process (a closed loop with one caller)
until --seconds of operation time is used; every output is checked after the
timed region.

--trace 0 prints the end-to-end metrics: op_cost.p50, peak_rss_mb, setup_s.
--trace 1 alternates untraced and traced operations and prints the per-layer
metrics, from spans recorded around every public hmmsv function, plus the
plain wall time op_s.p50. See bench/README.md for what each metric means and
which should move when.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it start with '#' and repeat the
figures for people, with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"op_cost.p50": "probe", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "op_s.p50": "s",
    "probe.kernel_ms": "ms",
    "recursion.backward_pass.self_s": "s",
    "recursion.backward_pass.calls_per_op": "count",
    "recursion.backward_pass.occ_per_s": "1/s",
    "recursion.backward_pass.ns_per_entry": "ns",
    "recursion.forward_joint_pass.self_s": "s",
    "recursion.state_marginals.self_s": "s",
    "recursion.log_likelihood.self_s": "s",
    "recursion.local_decode.self_s": "s",
    "recursion.log_likelihood.fallback_ratio": "ratio",
    "core.emission_matrix.calls_per_op": "count",
    "core.emission_matrix.self_s": "s",
    "estimator.e_step.calls_per_op": "count",
    "estimator.e_step.self_s": "s",
    "estimator.m_step.self_s": "s",
    "estimator.em_iter_ms": "ms",
    "estimator.fit.calls_per_op": "count",
    "estimator.fit.self_s": "s",
    "estimator.errors": "count",
    "estimator.degenerate_warnings": "count",
    "estimator.grid_search.cell_errors": "count",
    "cli.ingest.self_s": "s",
    "cli.load_params.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "oracle.bw_backward.s": "s",
    "recursion.peel_vs_bw": "ratio",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import hmmsv; print(time.perf_counter() - t)"
)


def import_program():
    """Import hmmsv from this checkout's src/ or exit with status 2."""
    if not (SRC / "hmmsv" / "__init__.py").is_file():
        print(f"error: no hmmsv sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hmmsv

    if Path(hmmsv.__file__).resolve().parent != (SRC / "hmmsv").resolve():
        print(f"error: imported hmmsv from {hmmsv.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return hmmsv


def child_import_seconds() -> float:
    """Time `import hmmsv` in a fresh interpreter; this process has it cached."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip())


def environment(np, simd: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd": simd,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def tail_percentile(n: int) -> int | None:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    fits = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    return fits[-1] if fits else None


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


class SpeedProbe:
    """Samples the machine's current speed while an operation runs.

    On a shared host the same operation can take twice as long from one
    minute to the next. Every PROBE_INTERVAL_S of wall time a SIGALRM handler
    times a fixed kernel in two parts, like the program's own time: small
    numpy calls in a Python loop, as in the per-occasion recursions, and a
    repeat-and-multiply over a 2 MB array, as in the batched conditional
    build. An operation's cost is its wall time, minus the time spent in the
    handler, divided by the median kernel time seen during it: a count of
    kernel times that moves much less than seconds when the whole machine
    slows down.
    """

    def __init__(self, np):
        self._x = np.linspace(0.1, 1.0, 27)
        self._y = np.linspace(1.0, 2.0, 27)
        self._big = np.linspace(0.5, 1.5, 1024 * 243).reshape(1024, 243)
        self._np = np
        self.samples: list[float] = []
        self.handler_s = 0.0

    def kernel_seconds(self) -> float:
        np, x, y = self._np, self._x, self._y
        t0 = perf_counter()
        acc = 0.0
        for _ in range(100):
            a = x.reshape(3, -1).sum(axis=0)
            acc += float((np.tile(a / a.sum(), 3) * y).max())
        big = self._big
        acc += float((np.repeat(big, 2, axis=1) * 1.5).sum())
        return perf_counter() - t0

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(self.kernel_seconds())
        self.handler_s += perf_counter() - t0

    def start(self) -> None:
        self.samples, self.handler_s = [], 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # an operation shorter than the interval still gets one sample
        self.samples.append(self.kernel_seconds())


def run_ops(wl, inp, seconds: float, traced_every_other: bool, tracer, tracing, hmmsv, probe):
    """Closed loop: start another op while the time used plus a median op fits.

    Untraced ops run under the speed probe; traced ops do not, so spans hold
    only the program's time. Returns the op records and one output per
    distinct digest; only those outputs are kept, so memory does not grow
    with the number of ops.
    """
    ops = []
    outputs = {}
    used = 0.0
    min_ops = 2 if traced_every_other else 1
    while True:
        traced = traced_every_other and len(ops) % 2 == 1
        undo = root = None
        if traced:
            undo = tracing.install(tracer)
            tracer.op = len(ops)
            root = tracer.open("op")
        else:
            probe.start()
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                raw = wl.op(inp)
            except Exception:  # a failed op is counted, and the loop goes on
                raw = None
                error = traceback.format_exc(limit=3)
            dt = perf_counter() - t0
        op = {"traced": traced, "error": error}
        if traced:
            tracer.close(root)
            tracer.op = None
            tracing.uninstall(undo)
            op["seconds"] = dt
        else:
            probe.stop()
            op["seconds"] = dt - probe.handler_s
            op["probe_s"] = statistics.median(probe.samples)
            op["probe_samples"] = len(probe.samples)
            op["cost"] = op["seconds"] / op["probe_s"]
        op["degenerate"] = sum(issubclass(w.category, hmmsv.DegenerateStateWarning) for w in caught)
        if error is None:
            output = wl.collect(inp, raw)
            op["digest"] = wl.digest(output)
            op["output_bytes"] = len(output) if isinstance(output, bytes) else 0
            op["cell_errors"] = len(getattr(output, "errors", {}))
            outputs.setdefault(op["digest"], output)
            del raw, output
        ops.append(op)
        used += dt
        times = [op["seconds"] for op in ops]
        if len(ops) >= min_ops and used + statistics.median(times) > seconds:
            return ops, outputs


def check_ops(wl, inp, ops, outputs) -> None:
    """Fill each op's problem list; one check per distinct output."""
    verdicts: dict[str, list[str]] = {}
    for key, output in outputs.items():
        try:
            verdicts[key] = wl.check(inp, output)
        except Exception:  # a check that cannot run fails the ops behind it
            verdicts[key] = ["check raised: " + traceback.format_exc(limit=3)]
    for op in ops:
        op["problems"] = [op["error"]] if op["error"] is not None else verdicts[op["digest"]]


def layer_metrics(tracer, tracing, ops, yardstick) -> dict:
    """Per-layer figures from the traced ops; each is a median over those ops
    unless said otherwise."""
    spans = tracer.spans
    self_s = tracing.self_times(spans)
    traced_ids = sorted({s.op for s in spans if s.op is not None})
    per_op = {i: {} for i in traced_ids}
    for s, own in zip(spans, self_s):
        agg = per_op[s.op].setdefault(s.name, {"calls": 0, "incl": 0.0, "self": 0.0, "T": 0, "entries": 0})
        agg["calls"] += 1
        agg["incl"] += s.duration
        agg["self"] += own
        if s.size:
            agg["T"] += s.size["T"]
            agg["entries"] += s.size["T"] * s.size["k"] ** (2 * s.size["h"] + 1)

    def each(name, field):
        return [per_op[i].get(name, {}).get(field, 0) for i in traced_ids]

    def med(name, field="self"):
        return median_or_zero(each(name, field))

    def ratio_per_op(num, den, scale=1.0):
        return median_or_zero([scale * n / d for n, d in zip(num, den) if d > 0])

    bp = "recursion.backward_pass"
    m = {
        f"{bp}.self_s": med(bp),
        f"{bp}.calls_per_op": med(bp, "calls"),
        f"{bp}.occ_per_s": ratio_per_op(each(bp, "T"), each(bp, "self")),
        f"{bp}.ns_per_entry": ratio_per_op(each(bp, "self"), each(bp, "entries"), 1e9),
    }
    for name in (
        "recursion.forward_joint_pass",
        "recursion.state_marginals",
        "recursion.log_likelihood",
        "recursion.local_decode",
    ):
        m[f"{name}.self_s"] = med(name)
    ll_calls = sum(1 for s in spans if s.name == "recursion.log_likelihood")
    refwd = sum(
        1
        for s in spans
        if s.name == "recursion.forward_joint_pass" and s.parent is not None
        and spans[s.parent].name == "recursion.log_likelihood"
    )  # fmt: skip
    m["recursion.log_likelihood.fallback_ratio"] = refwd / ll_calls if ll_calls else 0.0
    m["core.emission_matrix.calls_per_op"] = med("core.emission_matrix", "calls")
    m["core.emission_matrix.self_s"] = med("core.emission_matrix")
    m["estimator.e_step.calls_per_op"] = med("estimator.e_step", "calls")
    m["estimator.e_step.self_s"] = med("estimator.e_step")
    m["estimator.m_step.self_s"] = med("estimator.m_step")
    em_time = [e + s for e, s in zip(each("estimator.e_step", "incl"), each("estimator.m_step", "incl"))]
    m["estimator.em_iter_ms"] = ratio_per_op(em_time, each("estimator.e_step", "calls"), 1e3)
    m["estimator.fit.calls_per_op"] = med("estimator.fit", "calls")
    m["estimator.fit.self_s"] = med("estimator.fit")
    # counts below are the most seen in any one traced op
    m["estimator.errors"] = max(
        [sum(1 for s in spans if s.op == i and s.error and s.name in ("estimator.e_step", "estimator.m_step"))
         for i in traced_ids],
        default=0,
    )  # fmt: skip
    traced_ops = [ops[i] for i in traced_ids]
    m["estimator.degenerate_warnings"] = max((op["degenerate"] for op in traced_ops), default=0)
    m["estimator.grid_search.cell_errors"] = max((op.get("cell_errors", 0) for op in traced_ops), default=0)
    m["cli.ingest.self_s"] = med("cli.ingest")
    m["cli.load_params.self_s"] = med("cli.load_params")
    # argument parsing, dispatch, formatting and writing: every cli span but
    # the two above
    cli_other = [
        sum(agg["self"] for name, agg in per_op[i].items()
            if name.startswith("cli.") and name not in ("cli.ingest", "cli.load_params"))
        for i in traced_ids
    ]  # fmt: skip
    m["cli.main.self_s"] = median_or_zero(cli_other)
    m["cli.output_bytes"] = median_or_zero([op.get("output_bytes", 0) for op in traced_ops])
    m["oracle.bw_backward.s"] = yardstick["bw_backward"]
    m["recursion.peel_vs_bw"] = yardstick["backward_pass"] / yardstick["bw_backward"]
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    # untraced times are net of the speed probe, which traced ops run without
    m["trace.overhead"] = statistics.median(op["seconds"] for op in traced_ops) / statistics.median(untraced)
    roots = [(s, own) for s, own in zip(spans, self_s) if s.name == "op"]
    m["trace.unattributed_share"] = median_or_zero([own / s.duration for s, own in roots])
    return m


def yardstick_times(hmmsv, wl_module, seed: int, T: int, repeats: int = 5) -> dict:
    """Untimed-by-the-loop comparison of the peeling pass with the scaled
    forward-backward oracle on the fit-h1 series and generating model."""
    config, truth = wl_module.truth_k2h1()
    _, series = hmmsv.simulate(config, truth, T, seed)
    out = {}
    for name, fn in (("backward_pass", hmmsv.backward_pass), ("bw_backward", hmmsv.bw_backward)):
        samples = []
        for _ in range(repeats):
            t0 = perf_counter()
            fn(truth, config, series.y)
            samples.append(perf_counter() - t0)
        out[name] = statistics.median(samples)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["fit-h1", "grid-orders", "decode-long"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0, help="operation time to use")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true", help="toy input sizes, for the self-test")
    args = parser.parse_args(argv)

    hmmsv = import_program()
    import numpy as np

    import tracing
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    wl = cls.toy() if args.toy else cls()
    env = environment(np, workloads.simd_platform())

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        imported = child_import_seconds()
        t0 = perf_counter()
        inp = wl.setup(args.seed, WORKDIR)
        setup_samples.append(imported + perf_counter() - t0)

    sizers = {
        "recursion.backward_pass": lambda params, config, y, strict=False: {
            "T": int(np.size(getattr(y, "y", y))), "k": config.k, "h": config.h,
        }
    }  # fmt: skip
    tracer = tracing.Tracer(sizers)
    ops, outputs = run_ops(wl, inp, args.seconds, bool(args.trace), tracer, tracing, hmmsv, SpeedProbe(np))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_ops(wl, inp, ops, outputs)
    failed = sum(1 for op in ops if op["problems"])
    untraced = [op for op in ops if not op["traced"]]

    end_to_end = {
        "op_cost.p50": statistics.median(op["cost"] for op in untraced),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    }
    wall = {
        "op_s.p50": statistics.median(op["seconds"] for op in untraced),
        "probe.kernel_ms": 1e3 * statistics.median(op["probe_s"] for op in untraced),
    }
    metrics, units = end_to_end, END_TO_END_UNITS
    if args.trace:
        yard_T = workloads.FitH1.toy().T if args.toy else workloads.FitH1().T
        found = layer_metrics(tracer, tracing, ops, yardstick_times(hmmsv, workloads, args.seed, yard_T)) | wall
        metrics, units = {name: found[name] for name in LAYER_UNITS}, LAYER_UNITS
        spans_path = WORKDIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "env": env,
        "setup_s_samples": setup_samples,
        "ops": ops,
        "end_to_end": end_to_end,
        "metrics": metrics,
    }
    (WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"# env python {env['python']}  {env['simd']}  nproc {env['nproc']}  {threads}")
    print(f"# fail_rate {failed / len(ops):g} ratio ({failed} of {len(ops)} ops failed)")
    for op in ops:
        for problem in op["problems"]:
            print(f"#   op failed: {problem.strip().splitlines()[-1]}")
    tail = tail_percentile(len(untraced))
    if tail is None:
        print(f"# {len(untraced)} untraced ops: too few for a tail percentile (p50 needs 20)")
    else:
        for key, unit in (("cost", "probe"), ("seconds", "s")):
            name = "op_cost" if key == "cost" else "op_s"
            value = percentile([op[key] for op in untraced], tail)
            print(f"# {name}.p{tail} {value:.6g} {unit} over {len(untraced)} untraced ops")
    if args.trace:
        print("# end-to-end, from the untraced ops of this run (peak_rss_mb includes the kept spans):")
        for name, value in end_to_end.items():
            print(f"#   {name} {value:.6g} {END_TO_END_UNITS[name]}")
    else:
        print("# wall clock, for people (it swings with the load on a shared machine):")
        for name, value in wall.items():
            print(f"#   {name} {value:.6g} {LAYER_UNITS[name]}")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
