"""Command line surface: ingest return series, fit, search orders, decode,
predict, and simulate.

Machine-readable output (JSON or CSV) goes to --out or stdout; human-readable
summaries go to stderr. Parameter files use the JSON schema
{"k": ..., "h": ..., "sigma": [...], "early": [[[...]]], "pi": [[...]]} with
rows in lexicographic window order (most recent occasion fastest), so a fit's
output can be fed straight back to decode, predict, or simulate.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from itertools import compress, islice, repeat
from pathlib import Path

import numpy as np

from .core import (
    ModelConfig,
    ObservationSeries,
    ParameterSet,
    simulate,
    validate,
)
from .estimator import EMSettings, EstimationError, GridSearchResult, fit, grid_search, posterior_joints
from .recursion import (
    backward_pass,  # noqa: F401 -- unused here; bench/selftest.py checks that tracing rebinds it
    local_decode,
    predict,
    state_marginals,
)


class CLIError(Exception):
    """User-facing failure; printed as a diagnostic with a nonzero exit."""


# ---------------------------------------------------------------------------
# ingestion

def _column_index(column, first_row: list[str]) -> tuple[int, bool]:
    """Resolve the column selector; returns (index, first_row_is_header)."""
    if column is not None:
        text = str(column).strip()
        try:
            idx = int(text)
        except ValueError:
            header = [c.strip() for c in first_row]
            if text not in header:
                raise CLIError(f"column {text!r} not found in header {header}")
            return header.index(text), True
        if idx < 0:
            raise CLIError(f"column index must be non-negative, got {idx}")
    else:
        if len(first_row) != 1:
            raise CLIError(
                f"file has {len(first_row)} columns; pass --column (0-based index or header name)"
            )
        idx = 0
    if idx >= len(first_row):
        raise CLIError(f"column index {idx} is out of range: the file has {len(first_row)} column(s)")
    try:
        float(first_row[idx])
    except ValueError:
        return idx, True
    return idx, False


def _number(row: list[str], idx: int) -> float:
    """The float in cell idx of a CSV row; NaN where it is missing or not a number."""
    try:
        return float(row[idx].strip()) if idx < len(row) else math.nan
    except ValueError:
        return math.nan


def ingest(path, column=None, prices: bool = False) -> ObservationSeries:
    """Load one numeric column from a CSV or plain-number file.

    With prices=True the column holds closing prices p_t and the series
    becomes the T - 1 percentage log-returns 100 ln(p_t / p_{t-1}).
    """
    p = Path(path)
    if not p.exists():
        raise CLIError(f"input file not found: {path}")
    with open(p, newline="") as fh:
        records = list(csv.reader(fh))
    # the records with more than whitespace and their line numbers, in
    # C-level passes
    filled = np.fromiter(map(bool, map(str.strip, map("".join, records))), bool, len(records))
    lines = np.flatnonzero(filled) + 1
    if not lines.size:
        raise CLIError(f"input file is empty: {path}")

    idx, skip_first = _column_index(column, records[lines[0] - 1])
    lines = lines[int(skip_first) :]
    rows = islice(compress(records, filled), int(skip_first), None)
    arr = np.fromiter(map(_number, rows, repeat(idx)), float, lines.size)
    # float() also parses "nan" and "inf", which are not observations
    bad = lines[~np.isfinite(arr)].tolist()
    if bad:
        raise CLIError(
            f"non-numeric or missing value in column {idx} at line(s) " + ", ".join(str(n) for n in bad)
        )
    if not arr.size:
        raise CLIError(f"empty series: no data rows in {path}")

    if prices:
        nonpos = lines[~(arr > 0)].tolist()
        if nonpos:
            raise CLIError(
                "prices must be positive; offending line(s) " + ", ".join(str(n) for n in nonpos)
            )
        if arr.size < 2:
            raise CLIError("empty series: need at least two prices to form returns")
        arr = 100.0 * np.log(arr[1:] / arr[:-1])
    return ObservationSeries(arr)


# ---------------------------------------------------------------------------
# parameter files and formatting

def _round10(x: float) -> float:
    return float(f"{float(x):.10g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round10(obj)
    return obj


def params_payload(config: ModelConfig, params: ParameterSet) -> dict:
    return {
        "k": config.k,
        "h": config.h,
        "sigma": params.sigma,
        "early": [table for table in params.early],
        "pi": params.pi,
    }


def _repair_rows(table: np.ndarray) -> np.ndarray:
    """Renormalize rows whose sums drifted by file rounding; leave real errors."""
    table = np.atleast_2d(np.asarray(table, dtype=float))
    sums = table.sum(axis=1, keepdims=True)
    fixable = (np.abs(sums - 1.0) <= 1e-6) & (sums > 0)
    return np.where(fixable, table / np.where(sums > 0, sums, 1.0), table)


def load_params(path) -> tuple[ModelConfig, ParameterSet]:
    """Read a parameter JSON (or a fit output, which embeds the same fields).

    Rows within 1e-6 of summing to one are renormalized to machine precision,
    absorbing the 10-significant-digit precision of written files; anything
    further off is rejected.
    """
    p = Path(path)
    if not p.exists():
        raise CLIError(f"parameter file not found: {path}")
    try:
        with open(p) as fh:
            data = json.load(fh)
        config = ModelConfig(k=data["k"], h=data["h"])
        params = ParameterSet(
            early=tuple(
                _repair_rows(np.asarray(tbl, dtype=float)) for tbl in data.get("early", [])
            ),
            pi=_repair_rows(np.asarray(data["pi"], dtype=float)),
            sigma=np.asarray(data["sigma"], dtype=float),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CLIError(f"cannot read parameter file {path}: {exc}") from exc
    problems = validate(params, config)
    if problems:
        raise CLIError(f"invalid parameters in {path}: " + "; ".join(problems))
    return config, params


def _emit(chunks, out: str | None) -> None:
    """Write the output's text chunks, in order, to --out or stdout."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)


def _json_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


_CSV_BLOCK_ROWS = 4096


def _table_csv(header: list[str], columns: list, fmt: str):
    """The only CSV writer: yields the header line, then fmt % row for each
    row, _CSV_BLOCK_ROWS rows to a chunk.

    columns are sequences of one length: lists, ranges or 1-D arrays, which
    are turned into Python numbers a block at a time, so a long table is
    never held as Python objects or text at once. fmt ends in a newline. A
    text cell that holds a comma arrives quoted (see _cell), so the output is
    what csv's minimal quoting would write.
    """
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [col[start : start + _CSV_BLOCK_ROWS] for col in columns]
        rows = zip(*[col.tolist() if isinstance(col, np.ndarray) else col for col in block])
        yield "".join([fmt % row for row in rows])


def _cell(value) -> str:
    """One key,value CSV cell: lists as JSON (quoted when they hold a comma),
    floats to 10 significant digits, anything else through str."""
    if isinstance(value, (list, np.ndarray)):
        text = json.dumps(_jsonable(value))
        return f'"{text}"' if "," in text else text
    if isinstance(value, (float, np.floating)):
        return f"{value:.10g}"
    return str(value)


# ---------------------------------------------------------------------------
# commands

def _settings(args: argparse.Namespace) -> EMSettings:
    return EMSettings(
        max_iterations=args.max_iter,
        rel_tolerance=args.tol,
        n_starts=args.starts,
        seed=args.seed,
    )


def _do_fit(args: argparse.Namespace) -> tuple[dict, tuple]:
    series = ingest(args.input, args.column, args.prices)
    config = ModelConfig(k=args.k, h=args.h)
    result = fit(config, series, _settings(args))
    print(
        f"fit h={args.h} k={args.k}: loglik={result.loglik:.6g} npar={result.npar} "
        f"bic={result.bic:.6g} iterations={result.trace.size} converged={result.converged}",
        file=sys.stderr,
    )
    payload = {
        **params_payload(config, result.params),
        "loglik": result.loglik,
        "npar": result.npar,
        "bic": result.bic,
        "trace": result.trace,
        "converged": result.converged,
        "start_index": result.start_index,
        "T": len(series),
    }
    return payload, (["key", "value"], [list(payload), [_cell(v) for v in payload.values()]], "%s,%s\n")


def _grid_table(res: GridSearchResult, hs, ks) -> str:
    lines = []
    header = " " * 12 + "".join(f"{f'k={k}':>14}" for k in ks)
    blocks = [
        ("log-lik", lambda r: f"{r.loglik:.6g}"),
        ("#par", lambda r: str(r.npar)),
        ("BIC", lambda r: f"{r.bic:.6g}"),
    ]
    for name, render in blocks:
        lines.append(name)
        lines.append(header)
        for h in hs:
            cells = []
            for k in ks:
                cell = res.results.get((h, k))
                cells.append(f"{render(cell) if cell is not None else 'failed':>14}")
            lines.append(f"{f'h={h}':>12}" + "".join(cells))
    lines.append(f"selected: h={res.selected[0]}, k={res.selected[1]}")
    return "\n".join(lines)


def _do_grid(args: argparse.Namespace) -> tuple[dict, tuple]:
    series = ingest(args.input, args.column, args.prices)
    res = grid_search(series, args.h_list, args.k_list, _settings(args))
    hs = sorted(set(args.h_list))
    ks = sorted(set(args.k_list))
    print(_grid_table(res, hs, ks), file=sys.stderr)
    names = ["h", "k", "loglik", "npar", "bic", "converged"]
    rows = []
    for h in hs:
        for k in ks:
            cell = res.results.get((h, k))
            if cell is not None:
                rows.append((h, k, cell.loglik, cell.npar, cell.bic, cell.converged))
    payload = {
        "cells": [dict(zip(names, row)) for row in rows],
        "selected": {"h": res.selected[0], "k": res.selected[1]},
        "errors": [{"h": h, "k": k, "error": msg} for (h, k), msg in sorted(res.errors.items())],
    }
    selected = [int(row[:2] == res.selected) for row in rows]
    return payload, (names + ["selected"], [*zip(*rows), selected], "%d,%d,%.10g,%d,%.10g,%s,%d\n")


def _do_decode(args: argparse.Namespace) -> tuple[dict, tuple]:
    config, params = load_params(args.params)
    series = ingest(args.input, args.column, args.prices)
    marginals = state_marginals(posterior_joints(params, config, series))
    states = local_decode(marginals)
    print(
        f"decode: T={len(series)} states visited="
        + ",".join(str(s) for s in sorted(set(states.tolist()))),
        file=sys.stderr,
    )
    header = ["t", "state"] + [f"q{v}" for v in range(1, config.k + 1)]
    columns = [range(1, len(series) + 1), states, *marginals.T]
    fmt = "%d,%d" + ",%.10g" * config.k + "\n"
    return {"states": states, "marginals": marginals}, (header, columns, fmt)


def _do_predict(args: argparse.Namespace) -> tuple[dict, tuple]:
    config, params = load_params(args.params)
    series = ingest(args.input, args.column, args.prices)
    pred = predict(params, config, local_decode(state_marginals(posterior_joints(params, config, series))))
    print(
        f"predict: next state {pred.next_state}, sigma {params.sigma[pred.next_state - 1]:.6g}",
        file=sys.stderr,
    )
    payload = {"next_state": pred.next_state, "weights": pred.weights, "sigma": pred.sigma}
    return payload, (["key", "value"], [list(payload), [_cell(v) for v in payload.values()]], "%s,%s\n")


def _do_simulate(args: argparse.Namespace) -> tuple[dict, tuple]:
    config, params = load_params(args.params)
    states, series = simulate(config, params, args.length, args.seed)
    print(f"simulate: T={args.length} seed={args.seed}", file=sys.stderr)
    columns = [range(1, args.length + 1), states, series.y]
    return {"states": states, "y": series.y}, (["t", "state", "y"], columns, "%d,%d,%.10g\n")


# Each command prints its summary to stderr and returns its JSON payload and
# its CSV table, the table as _table_csv's (header, columns, row format).
_COMMANDS = {
    "fit": _do_fit,
    "grid": _do_grid,
    "decode": _do_decode,
    "predict": _do_predict,
    "simulate": _do_simulate,
}


def run(args: argparse.Namespace) -> int:
    """Execute one invocation parsed by build_parser; returns the process exit status."""
    try:
        payload, table = _COMMANDS[args.command](args)
        _emit([_json_text(payload)] if args.fmt == "json" else _table_csv(*table), args.out)
    except CLIError as exc:
        print(f"error: cli: {exc}", file=sys.stderr)
        return 1
    except (ValueError, EstimationError, OSError) as exc:
        print(f"error: {type(exc).__module__.split('.')[-1]}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV or plain-number file with the series")
    p.add_argument("--column", default=None, help="column selector: 0-based index or header name")
    p.add_argument(
        "--prices",
        action="store_true",
        help="treat the column as closing prices and convert to percentage log-returns",
    )


def _add_em_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--starts", type=int, default=10, help="number of EM starts (default 10)")
    p.add_argument("--seed", type=int, default=0, help="seed governing all randomness (default 0)")
    p.add_argument("--max-iter", type=int, default=1000, help="EM iteration cap (default 1000)")
    p.add_argument(
        "--tol", type=float, default=1e-8, help="relative log-likelihood tolerance (default 1e-8)"
    )


def _add_out_args(p: argparse.ArgumentParser, default_fmt: str = "json") -> None:
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", dest="fmt", choices=["json", "csv"], default=default_fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmmsv",
        description="Discrete-volatility hidden Markov chains of arbitrary order: "
        "fit, order search, decoding, prediction, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one (h, k) model by EM")
    _add_input_args(p_fit)
    p_fit.add_argument("--h", type=int, required=True, help="chain order (0 = independence)")
    p_fit.add_argument("--k", type=int, required=True, help="number of latent states")
    _add_em_args(p_fit)
    _add_out_args(p_fit)

    p_grid = sub.add_parser("grid", help="fit a grid of (h, k) models and select by BIC")
    _add_input_args(p_grid)
    p_grid.add_argument("--h-list", type=int, nargs="+", required=True, help="orders to try")
    p_grid.add_argument("--k-list", type=int, nargs="+", required=True, help="state counts to try")
    _add_em_args(p_grid)
    _add_out_args(p_grid)

    p_dec = sub.add_parser("decode", help="most probable state per occasion plus marginals")
    p_dec.add_argument("--params", required=True, help="parameter JSON (a fit output works)")
    _add_input_args(p_dec)
    _add_out_args(p_dec)

    p_pre = sub.add_parser("predict", help="one-step-ahead state and observation mixture")
    p_pre.add_argument("--params", required=True, help="parameter JSON (a fit output works)")
    _add_input_args(p_pre)
    _add_out_args(p_pre)

    p_sim = sub.add_parser("simulate", help="draw a latent path and observations")
    p_sim.add_argument("--params", required=True, help="parameter JSON (a fit output works)")
    p_sim.add_argument("--length", type=int, required=True, help="number of occasions to draw")
    p_sim.add_argument("--seed", type=int, default=0, help="seed governing all randomness")
    _add_out_args(p_sim, default_fmt="csv")

    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
