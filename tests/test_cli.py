import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import hmmsv.cli
from hmmsv import (
    CLIError,
    ModelConfig,
    ParameterSet,
    backward_pass,
    forward_joint_pass,
    ingest,
    local_decode,
    simulate,
    state_marginals,
)
from hmmsv.cli import load_params, main, params_payload, _json_text, _table_csv

from conftest import random_parameters


def write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_prices_flat(tmp_path):
    path = write(tmp_path / "p.csv", "100\n100\n")
    series = ingest(path, prices=True)
    assert np.allclose(series.y, [0.0])


def test_ingest_prices_log_return(tmp_path):
    path = write(tmp_path / "p.csv", "100\n105\n")
    series = ingest(path, prices=True)
    assert series.y[0] == pytest.approx(4.879016416943205, abs=1e-9)


def test_ingest_returns_passthrough(tmp_path):
    path = write(tmp_path / "r.csv", "0.5\n-1.25\n2.0\n")
    series = ingest(path)
    assert np.allclose(series.y, [0.5, -1.25, 2.0])
    assert series.T == 3


def test_ingest_header_autodetect_and_named_column(tmp_path):
    text = "date,close\n2020-01-01,100\n2020-01-02,105\n2020-01-03,103\n"
    path = write(tmp_path / "px.csv", text)
    series = ingest(path, column="close", prices=True)
    assert series.T == 2
    by_index = ingest(path, column=1, prices=True)
    assert np.allclose(series.y, by_index.y)
    with pytest.raises(CLIError):
        ingest(path, column="nope")
    with pytest.raises(CLIError):
        ingest(path)  # two columns, no selector


def test_ingest_rejects_non_numeric_rows_with_lines(tmp_path):
    path = write(tmp_path / "bad.csv", "1.0\nworld\n3.0\noops\n")
    with pytest.raises(CLIError) as err:
        ingest(path)
    assert "2" in str(err.value) and "4" in str(err.value)


def test_ingest_rejects_column_index_out_of_range(tmp_path, capsys):
    path = write(tmp_path / "two_col.csv", "date,close\n2020-01-01,100\n2020-01-02,105\n2020-01-03,103\n")
    with pytest.raises(CLIError, match=r"column index 5 is out of range: the file has 2 column"):
        ingest(path, column=5)
    assert main(["fit", "--input", path, "--column", "5", "--h", "1", "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert "column index 5" in err and "line" not in err
    assert main(["fit", "--input", path, "--column", "-1", "--h", "1", "--k", "2"]) == 1
    assert capsys.readouterr().err == "error: cli: column index must be non-negative, got -1\n"


def test_ingest_rejects_non_finite_cells_with_lines(tmp_path, capsys):
    path = write(tmp_path / "r.csv", "0.5\nnan\n1.0\n-inf\n")
    with pytest.raises(CLIError, match=r"at line\(s\) 2, 4$"):
        ingest(path)
    prices = write(tmp_path / "p.csv", "100\nnan\n105\ninf\n")
    with pytest.raises(CLIError, match=r"at line\(s\) 2, 4$"):
        ingest(prices, prices=True)
    assert main(["fit", "--input", prices, "--prices", "--h", "0", "--k", "1"]) == 1
    assert capsys.readouterr().err == "error: cli: non-numeric or missing value in column 0 at line(s) 2, 4\n"


def test_ingest_missing_and_empty(tmp_path):
    with pytest.raises(CLIError):
        ingest(tmp_path / "absent.csv")
    path = write(tmp_path / "empty.csv", "\n\n")
    with pytest.raises(CLIError):
        ingest(path)
    header_only = write(tmp_path / "header.csv", "date,close\n")
    with pytest.raises(CLIError, match="empty series: no data rows in"):
        ingest(header_only, column="close")


def test_ingest_rejects_nonpositive_prices(tmp_path):
    path = write(tmp_path / "neg.csv", "100\n-3\n105\n")
    with pytest.raises(CLIError) as err:
        ingest(path, prices=True)
    assert "2" in str(err.value)
    single = write(tmp_path / "one.csv", "100\n")
    with pytest.raises(CLIError):
        ingest(single, prices=True)


def test_ingest_counts_lines_past_blank_rows(tmp_path):
    # blank and whitespace-only rows are skipped but keep their line
    # numbers; a quoted cell may hold a comma
    text = 'date,close\n\n2020-01-01,100\n   \n"4,5", 105 \n , \n2020-01-03,103\n'
    path = write(tmp_path / "px.csv", text)
    assert ingest(path, column="close").y.tolist() == [100.0, 105.0, 103.0]
    assert ingest(path, column=1, prices=True).y.tolist() == (100.0 * np.log([1.05, 103.0 / 105.0])).tolist()
    # a short row and a non-number, each named by its line in the file
    bad = write(tmp_path / "bad.csv", text + "2020-01-04\n\n2020-01-05,x\n2020-01-06,104\n")
    with pytest.raises(CLIError, match=r"in column 1 at line\(s\) 8, 10$"):
        ingest(bad, column="close")
    negative = write(tmp_path / "neg.csv", text + "\n2020-01-05,-1\n")
    with pytest.raises(CLIError, match=r"offending line\(s\) 9$"):
        ingest(negative, column="close", prices=True)


# ---------------------------------------------------------------------------
# full command flows


@pytest.fixture
def sim_csv(tmp_path):
    config = ModelConfig(k=2, h=1)
    truth = random_parameters(2, 1, np.random.default_rng(2), diag_bias=0.6, sigma_range=(0.8, 3.5))
    _, series = simulate(config, truth, 300, seed=12)
    path = tmp_path / "series.csv"
    path.write_text("\n".join(f"{v:.12g}" for v in series.y) + "\n")
    return str(path)


def test_fit_decode_predict_roundtrip(tmp_path, sim_csv, capsys):
    fit_out = str(tmp_path / "fit.json")
    rc = main(
        ["fit", "--input", sim_csv, "--h", "1", "--k", "2", "--starts", "2", "--seed", "7",
         "--max-iter", "200", "--out", fit_out]
    )
    assert rc == 0
    payload = json.loads(open(fit_out).read())
    assert set(payload) >= {"k", "h", "sigma", "early", "pi", "loglik", "npar", "bic", "trace", "converged"}
    assert payload["npar"] == 5
    assert payload["sigma"] == sorted(payload["sigma"])

    dec1 = str(tmp_path / "d1.json")
    dec2 = str(tmp_path / "d2.json")
    assert main(["decode", "--params", fit_out, "--input", sim_csv, "--out", dec1]) == 0
    assert main(["decode", "--params", fit_out, "--input", sim_csv, "--out", dec2]) == 0
    assert open(dec1, "rb").read() == open(dec2, "rb").read()
    # without --out the same JSON goes to stdout
    capsys.readouterr()
    assert main(["decode", "--params", fit_out, "--input", sim_csv]) == 0
    assert capsys.readouterr().out == open(dec1).read()
    decoded = json.loads(open(dec1).read())
    assert len(decoded["states"]) == 300
    assert set(decoded["states"]) <= {1, 2}
    marg = np.asarray(decoded["marginals"])
    assert np.allclose(marg.sum(axis=1), 1.0, atol=1e-6)
    assert np.array_equal(np.argmax(marg, axis=1) + 1, decoded["states"])

    pred = str(tmp_path / "p.json")
    assert main(["predict", "--params", fit_out, "--input", sim_csv, "--out", pred]) == 0
    p = json.loads(open(pred).read())
    assert p["next_state"] in (1, 2)
    assert sum(p["weights"]) == pytest.approx(1.0, abs=1e-6)
    capsys.readouterr()


def test_fit_byte_identical_reruns(tmp_path, sim_csv, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["fit", "--input", sim_csv, "--h", "0", "--k", "2", "--starts", "2", "--seed", "5",
            "--max-iter", "150"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    capsys.readouterr()


def test_grid_single_state_closed_form(tmp_path, sim_csv, capsys):
    out = str(tmp_path / "grid.json")
    rc = main(["grid", "--input", sim_csv, "--h-list", "0", "--k-list", "1", "--out", out])
    assert rc == 0
    payload = json.loads(open(out).read())
    y = np.asarray([float(line) for line in open(sim_csv)])
    T = y.size
    sig = math.sqrt(np.mean(y**2))
    iid = sum(-0.5 * math.log(2 * math.pi * sig * sig) - 0.5 * (v / sig) ** 2 for v in y)
    cell = payload["cells"][0]
    assert cell["loglik"] == pytest.approx(iid, rel=1e-8)
    assert cell["bic"] == pytest.approx(-2 * iid + math.log(T), rel=1e-8)
    assert payload["selected"] == {"h": 0, "k": 1}
    capsys.readouterr()


def test_grid_csv_format(tmp_path, sim_csv, capsys):
    out = str(tmp_path / "grid.csv")
    rc = main(["grid", "--input", sim_csv, "--h-list", "0", "1", "--k-list", "1", "2",
               "--starts", "1", "--max-iter", "120", "--format", "csv", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "h,k,loglik,npar,bic,converged,selected"
    assert len(lines) == 5
    assert sum(int(line.split(",")[-1]) for line in lines[1:]) == 1
    capsys.readouterr()


def test_decode_single_state(tmp_path, capsys):
    config = ModelConfig(k=1, h=0)
    params_file = tmp_path / "params.json"
    params_file.write_text(
        _json_text(params_payload(config, random_parameters(1, 0, np.random.default_rng(0))))
    )
    data = write(tmp_path / "y.csv", "0.4\n-0.1\n0.9\n")
    out = str(tmp_path / "dec.csv")
    assert main(["decode", "--params", str(params_file), "--input", data, "--format", "csv", "--out", out]) == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0] == "t,state,q1"
    assert all(row.split(",")[1] == "1" and float(row.split(",")[2]) == 1.0 for row in rows[1:])
    capsys.readouterr()


def test_simulate_csv_and_json(tmp_path, capsys):
    config = ModelConfig(k=2, h=1)
    params = random_parameters(2, 1, np.random.default_rng(4))
    params_file = tmp_path / "params.json"
    params_file.write_text(_json_text(params_payload(config, params)))
    out_csv = str(tmp_path / "sim.csv")
    assert main(["simulate", "--params", str(params_file), "--length", "6", "--seed", "3", "--out", out_csv]) == 0
    rows = open(out_csv).read().strip().splitlines()
    assert rows[0] == "t,state,y"
    assert len(rows) == 7
    out_json = str(tmp_path / "sim.json")
    assert main(["simulate", "--params", str(params_file), "--length", "6", "--seed", "3",
                 "--format", "json", "--out", out_json]) == 0
    payload = json.loads(open(out_json).read())
    # same seed: the JSON and CSV routes describe the same draw
    assert [int(r.split(",")[1]) for r in rows[1:]] == payload["states"]
    # library call matches the CLI with the same seed
    states, series = simulate(config, params, 6, seed=3)
    assert payload["states"] == states.tolist()
    capsys.readouterr()


def test_simulate_then_fit_recovers_volatilities(tmp_path, capsys):
    # full command-line loop: write a generating model, simulate a series,
    # refit it, and read the recovered volatility levels back
    config = ModelConfig(k=2, h=1)
    truth = ParameterSet(
        early=(np.array([[0.5, 0.5]]),),
        pi=np.array([[0.95, 0.05], [0.05, 0.95]]),
        sigma=np.array([1.0, 3.0]),
    )
    params_file = tmp_path / "truth.json"
    params_file.write_text(_json_text(params_payload(config, truth)))
    data = str(tmp_path / "sim.csv")
    assert main(["simulate", "--params", str(params_file), "--length", "2000", "--seed", "6",
                 "--format", "csv", "--out", data]) == 0
    series = str(tmp_path / "y.csv")
    rows = open(data).read().strip().splitlines()[1:]
    open(series, "w").write("\n".join(r.split(",")[2] for r in rows) + "\n")
    fit_out = str(tmp_path / "fit.json")
    assert main(["fit", "--input", series, "--h", "1", "--k", "2", "--starts", "2",
                 "--seed", "11", "--max-iter", "300", "--out", fit_out]) == 0
    sigma_hat = np.asarray(json.loads(open(fit_out).read())["sigma"])
    assert np.all(np.abs(sigma_hat - truth.sigma) / truth.sigma <= 0.10)
    capsys.readouterr()


def test_params_file_roundtrip(tmp_path):
    config = ModelConfig(k=3, h=2)
    params = random_parameters(3, 2, np.random.default_rng(8))
    path = tmp_path / "params.json"
    path.write_text(_json_text(params_payload(config, params)))
    config2, params2 = load_params(path)
    assert (config2.k, config2.h) == (3, 2)
    assert np.abs(params2.pi - params.pi).max() < 1e-9
    assert np.abs(params2.sigma - params.sigma).max() < 1e-9


def test_load_params_rejects_broken_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 2, "h": 0, "sigma": [1.0, 2.0], "early": [], "pi": [[0.7, 0.2]]}')
    with pytest.raises(CLIError):
        load_params(path)
    path.write_text("not json")
    with pytest.raises(CLIError):
        load_params(path)
    with pytest.raises(CLIError):
        load_params(tmp_path / "missing.json")


@pytest.mark.parametrize("field", ["k", "h"])
@pytest.mark.parametrize("value", [2.9, True])
def test_load_params_rejects_non_integer_orders(tmp_path, capsys, field, value):
    payload = json.loads(_json_text(params_payload(ModelConfig(k=2, h=1), random_parameters(2, 1, np.random.default_rng(4)))))
    payload[field] = value
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    data = write(tmp_path / "y.csv", "0.4\n-0.1\n0.9\n")
    assert main(["decode", "--params", str(path), "--input", data]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cli: cannot read parameter file {path}: {field} must be a ")
    assert repr(value) in err


def test_cli_error_exit_codes(tmp_path, capsys):
    rc = main(["fit", "--input", str(tmp_path / "none.csv"), "--h", "1", "--k", "2"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_propagates_programming_errors(tmp_path, sim_csv, capsys, monkeypatch):
    # a model or input error is a diagnostic; a TypeError is a bug and surfaces
    assert main(["fit", "--input", sim_csv, "--h", "1", "--k", "2", "--starts", "0"]) == 1
    assert capsys.readouterr().err == "error: builtins.ValueError: n_starts must be positive\n"
    out = str(tmp_path / "missing_dir" / "fit.json")
    assert main(["fit", "--input", sim_csv, "--h", "0", "--k", "1", "--starts", "1", "--out", out]) == 1
    assert "error: builtins.FileNotFoundError" in capsys.readouterr().err

    def broken_fit(*args, **kwargs):
        raise TypeError("broken fit")

    monkeypatch.setattr(hmmsv.cli, "fit", broken_fit)
    with pytest.raises(TypeError, match="broken fit"):
        main(["fit", "--input", sim_csv, "--h", "1", "--k", "2"])


def reference_csv(header, rows):
    """csv.writer text with each float cell rounded to 10 digits, parsed back and written again."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{float(f'{x:.10g}'):.10g}" if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def test_table_csv_matches_csv_writer_bytes():
    values = [0.0, -0.0, 1.0, 1 - 1e-16, 5e-324, 1e-300, 0.1, 1e16, 0.123456789012345, -2.5e-7]
    cols = [list(range(1, len(values) + 1)), [1 + i % 3 for i in range(len(values))], values, values[::-1]]
    got = "".join(_table_csv(["t", "state", "q1", "q2"], cols, "%d,%d,%.10g,%.10g\n"))
    assert got == reference_csv(["t", "state", "q1", "q2"], zip(*cols))


def test_table_csv_blocks_give_the_same_bytes(monkeypatch):
    # array columns are converted a block at a time; a block boundary adds
    # nothing and drops nothing
    values = np.random.default_rng(3).normal(size=10) * 10.0 ** np.arange(-5, 5)
    states = np.arange(10) % 3 + 1
    header, fmt = ["t", "state", "q1"], "%d,%d,%.10g\n"
    want = reference_csv(header, zip(range(1, 11), states.tolist(), values.tolist()))
    for rows in (1, 3, 10, 4096):
        monkeypatch.setattr(hmmsv.cli, "_CSV_BLOCK_ROWS", rows)
        chunks = list(_table_csv(header, [range(1, 11), states, values], fmt))
        assert len(chunks) == 1 + -(-10 // rows)
        assert "".join(chunks) == want


def test_decode_and_simulate_csv_bytes(tmp_path, capsys):
    config = ModelConfig(k=3, h=2)
    params = random_parameters(3, 2, np.random.default_rng(5))
    params_file = tmp_path / "params.json"
    params_file.write_text(_json_text(params_payload(config, params)))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--params", str(params_file), "--length", "40", "--seed", "9", "--out", str(out)]) == 0
    _, file_params = load_params(params_file)
    states, series = simulate(config, file_params, 40, seed=9)
    rows = zip(range(1, 41), states.tolist(), series.y.tolist())
    assert out.read_text() == reference_csv(["t", "state", "y"], rows)

    assert_decode_csv_bytes(tmp_path, params_file, series.y)
    capsys.readouterr()


def assert_decode_csv_bytes(tmp_path, params_file, returns):
    """hmmsv decode of returns, written at 12 digits, gives the bytes of the
    reference chain backward_pass -> forward_joint_pass."""
    config, file_params = load_params(params_file)
    y_file = write(tmp_path / "y.csv", "\n".join(f"{v:.12g}" for v in returns) + "\n")
    dec = tmp_path / "dec.csv"
    assert main(["decode", "--params", str(params_file), "--input", y_file, "--format", "csv", "--out", str(dec)]) == 0
    y = ingest(y_file).y
    marginals = state_marginals(forward_joint_pass(backward_pass(file_params, config, y), config))
    rows = [(t + 1, int(s), *m) for t, (s, m) in enumerate(zip(local_decode(marginals), marginals.tolist()))]
    header = ["t", "state"] + [f"q{i}" for i in range(1, config.k + 1)]
    assert dec.read_text() == reference_csv(header, rows)


def test_decode_csv_bytes_across_staging_blocks(tmp_path, capsys):
    # 1,700 returns at (k, h) = (3, 2) hold three full staging blocks of
    # interior occasions, so decode's one-start pass runs the wavefront
    # across block seams; its bytes still equal the reference chain's
    config = ModelConfig(k=3, h=2)
    assert 1700 - 2 * config.h >= 3 * hmmsv.recursion._block_span(1, config.k, config.h)
    params = random_parameters(3, 2, np.random.default_rng(5))
    params_file = tmp_path / "params.json"
    params_file.write_text(_json_text(params_payload(config, params)))
    _, series = simulate(config, params, 1700, seed=9)
    assert_decode_csv_bytes(tmp_path, params_file, series.y)
    capsys.readouterr()


def test_decode_runs_the_chunked_e_step(tmp_path, monkeypatch, capsys):
    # 3,000 returns at (k, h) = (2, 1) are past two chunk lengths, so decode's
    # posterior step, e_step's passes, runs the backward pass as overlapping
    # chunk pseudo-starts; they agree with the reference chain to rounding
    config = ModelConfig(k=2, h=1)
    params = ParameterSet(
        early=(np.array([[0.5, 0.5]]),), pi=np.array([[0.95, 0.05], [0.1, 0.9]]), sigma=np.array([1.0, 3.0])
    )
    params_file = tmp_path / "params.json"
    params_file.write_text(_json_text(params_payload(config, params)))
    _, series = simulate(config, params, 3000, seed=4)
    y_file = write(tmp_path / "y.csv", "".join(f"{v:.17g}\n" for v in series.y))
    widths = []
    backward = hmmsv.recursion._backward_pass
    monkeypatch.setattr(hmmsv.recursion, "_backward_pass", lambda F, *rest: widths.append(F.shape[1]) or backward(F, *rest))
    dec = tmp_path / "dec.csv"
    assert main(["decode", "--params", str(params_file), "--input", y_file, "--format", "csv", "--out", str(dec)]) == 0
    capsys.readouterr()
    assert widths[0] > 1
    _, file_params = load_params(params_file)
    want = state_marginals(forward_joint_pass(backward_pass(file_params, config, series.y), config))
    got = np.loadtxt(dec, delimiter=",", skiprows=1)[:, 2:]
    assert np.abs(got - want).max() <= 1e-9


FIT_KEYS = ["k", "h", "sigma", "early", "pi", "loglik", "npar", "bic", "trace", "converged", "start_index", "T"]


def reference_kv_csv(payload, keys):
    """csv.writer text of key,value rows: lists as compact JSON, floats to 10 digits."""
    def cell(v):
        if isinstance(v, list):
            return json.dumps(v)
        return f"{v:.10g}" if isinstance(v, float) else str(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key in keys:
        writer.writerow([key, cell(payload[key])])
    return buf.getvalue()


def run_both(argv, tmp_path, name):
    """Run argv once per format; returns (parsed JSON, CSV text)."""
    out_json, out_csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    assert main(argv + ["--format", "json", "--out", str(out_json)]) == 0
    assert main(argv + ["--format", "csv", "--out", str(out_csv)]) == 0
    return json.loads(out_json.read_text()), out_csv.read_text()


def test_fit_predict_grid_csv_bytes(tmp_path, sim_csv, capsys):
    # the key,value and grid CSVs are the JSON payload's values, written the
    # way csv.writer with minimal quoting writes them
    em = ["--starts", "2", "--seed", "3", "--max-iter", "40"]
    for k, h in [(1, 0), (2, 1)]:
        fit_argv = ["fit", "--input", sim_csv, "--k", str(k), "--h", str(h), *em]
        payload, text = run_both(fit_argv, tmp_path, f"fit{k}{h}")
        assert text == reference_kv_csv(payload, FIT_KEYS)
        params = str(tmp_path / f"fit{k}{h}.json")
        payload, text = run_both(["predict", "--params", params, "--input", sim_csv], tmp_path, f"pred{k}{h}")
        assert text == reference_kv_csv(payload, ["next_state", "weights", "sigma"])
    assert text.splitlines()[2].startswith('weights,"[')
    one = (tmp_path / "fit10.csv").read_text().splitlines()
    assert one[3].startswith("sigma,[") and one[4] == "early,[]"
    assert (tmp_path / "fit21.csv").read_text().splitlines()[10] in ("converged,True", "converged,False")

    grid_argv = ["grid", "--input", sim_csv, "--h-list", "0", "1", "--k-list", "1", "2", *em]
    payload, text = run_both(grid_argv, tmp_path, "grid")
    selected = (payload["selected"]["h"], payload["selected"]["k"])
    rows = [
        (c["h"], c["k"], c["loglik"], c["npar"], c["bic"], c["converged"], int((c["h"], c["k"]) == selected))
        for c in payload["cells"]
    ]
    assert len(rows) == 4
    assert text == reference_csv(["h", "k", "loglik", "npar", "bic", "converged", "selected"], rows)
    capsys.readouterr()


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "hmmsv", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "fit" in proc.stdout and "grid" in proc.stdout
