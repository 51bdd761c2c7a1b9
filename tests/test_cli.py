import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qronos import CalibStats, accumulate, grid_from_minmax, read_qmx, verify, write_qmx
from qronos.rounding import quantize_optq_column, quantize_qronos_base_column, quantize_qronos_column
from qronos.cli import main

from helpers import on_grid_weights


def run(args):
    return main([str(a) for a in args])


def quantize_args(tmp_path, w, x=None, xq=None, **flags):
    """Write inputs under tmp_path and build a quantize argv."""
    wp = tmp_path / "w.qmx"
    write_qmx(wp, w)
    args = ["quantize", "--weights", wp, "--out", tmp_path / "q.qmx"]
    if x is not None:
        xp = tmp_path / "x.qmx"
        write_qmx(xp, x)
        args += ["--calib-x", xp]
    if xq is not None:
        xqp = tmp_path / "xq.qmx"
        write_qmx(xqp, xq)
        args += ["--calib-xt", xqp]
    for key, val in flags.items():
        args.append("--" + key.replace("_", "-"))
        if val is not True:
            args.append(val)
    return args


def test_rtn_on_grid_weights_pass_through(tmp_path):
    rng = np.random.default_rng(0)
    w = on_grid_weights(rng, 12, 5, levels=4)
    code = run(quantize_args(tmp_path, w, method="rtn", levels=4))
    assert code == 0
    out = read_qmx(tmp_path / "q.qmx")
    assert out.tobytes() == w.tobytes()


def test_output_dtype_follows_input(tmp_path):
    rng = np.random.default_rng(1)
    w = rng.standard_normal((8, 3)).astype(np.float32)
    assert run(quantize_args(tmp_path, w, method="rtn", levels=4)) == 0
    assert read_qmx(tmp_path / "q.qmx").dtype == np.float32


def test_identical_paths_collapse_to_optq(tmp_path):
    rng = np.random.default_rng(2)
    w = rng.standard_normal((16, 6))
    x = rng.standard_normal((64, 16))
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert run(quantize_args(a, w, x=x, xq=x, method="qronos", damping="meandiag")) == 0
    assert run(quantize_args(b, w, x=x, method="optq")) == 0
    qa = read_qmx(a / "q.qmx")
    qb = read_qmx(b / "q.qmx")
    assert qa.tobytes() == qb.tobytes()


def test_raw_and_stats_routes_agree_exactly(tmp_path):
    rng = np.random.default_rng(3)
    w = rng.standard_normal((10, 4))
    x = rng.standard_normal((40, 10))
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert run(quantize_args(a, w, x=x, method="optq")) == 0
    hp = b / "h.qmx"
    write_qmx(hp, x.T @ x)
    wp = b / "w.qmx"
    write_qmx(wp, w)
    code = run(
        ["quantize", "--weights", wp, "--stats-h", hp, "--method", "optq", "--out", b / "q.qmx"]
    )
    assert code == 0
    assert read_qmx(a / "q.qmx").tobytes() == read_qmx(b / "q.qmx").tobytes()


def test_report_is_deterministic_outside_timing(tmp_path):
    rng = np.random.default_rng(4)
    w = rng.standard_normal((12, 4))
    x = rng.standard_normal((48, 12))
    wp = tmp_path / "w.qmx"
    xp = tmp_path / "x.qmx"
    write_qmx(wp, w)
    write_qmx(xp, x)
    args = [
        "quantize", "--weights", wp, "--calib-x", xp, "--calib-xt", xp,
        "--method", "qronos", "--out", tmp_path / "q.qmx",
        "--report", tmp_path / "r.json",
    ]
    reports = []
    payloads = []
    for _ in range(2):
        assert run(args) == 0
        rep = json.loads((tmp_path / "r.json").read_text())
        rep.pop("timing")
        reports.append(json.dumps(rep, sort_keys=True))
        payloads.append(read_qmx(tmp_path / "q.qmx").tobytes())
    assert reports[0] == reports[1]
    assert payloads[0] == payloads[1]


def test_report_contents(tmp_path):
    rng = np.random.default_rng(5)
    w = rng.standard_normal((6, 2))
    x = rng.standard_normal((24, 6))
    args = quantize_args(
        tmp_path, w, x=x, method="optq", report=tmp_path / "r.json", trace=True
    )
    assert run(args) == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["command"] == "quantize"
    res = rep["result"]
    assert res["n_in"] == 6 and res["n_out"] == 2
    assert len(res["objectives"]) == 2
    assert len(res["order_perm"]) == 6
    assert len(res["trace"]) == 2
    assert "lambda" in res and res["lambda"] > 0


@pytest.mark.parametrize("method", ["gpfq", "qronos"])
def test_traced_report_equals_untraced_outside_trace(tmp_path, method):
    """--trace adds the "trace" key and changes nothing else."""
    rng = np.random.default_rng(6)
    w = rng.standard_normal((140, 3))
    x = rng.standard_normal((200, 140))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    xq[:, 7] = 0.0
    reports = []
    for trace in (False, True):
        flags = {"trace": True} if trace else {}
        args = quantize_args(tmp_path, w, x=x, xq=xq, method=method,
                             report=tmp_path / "r.json", **flags)
        with pytest.warns(RuntimeWarning) if method == "gpfq" else contextlib.nullcontext():
            assert run(args) == 0
        rep = json.loads((tmp_path / "r.json").read_text())
        rep.pop("timing")
        assert ("trace" in rep["result"]) == trace
        rep["result"].pop("trace", None)
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]
    if method == "gpfq":
        warned = json.loads(reports[0])["result"]["warnings"]
        assert len(warned) == 1 and "zero-norm" in warned[0]
        # ordering moves the dead feature last; the warning names the caller's
        assert "column 7," in warned[0]


_COLUMN_ROUTES = {
    "optq": lambda w, h, g, grid: quantize_optq_column(w, h, grid, record_trace=True),
    "qronos": lambda w, h, g, grid: quantize_qronos_column(w, h, g, grid, record_trace=True),
    "qronos-base": lambda w, h, g, grid: quantize_qronos_base_column(w, h, g, grid, record_trace=True),
}


@pytest.mark.parametrize("method", ["optq", "qronos", "qronos-base", "rtn", "gpfq"])
def test_trace_q_is_in_caller_row_order(tmp_path, method):
    """Each trace[j].q is column j of --out, whatever the processing order,
    and its delta_norms are the norms of the moves between consecutive
    states of the per-column entry point on the permuted, damped moments;
    rtn and gpfq move no weights and list none."""
    rng = np.random.default_rng(12)
    w = rng.standard_normal((9, 3))
    x = rng.standard_normal((64, 9)) * np.exp(rng.uniform(-1.0, 1.0, 9))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    args = quantize_args(tmp_path, w, x=x, xq=xq, method=method,
                         report=tmp_path / "r.json", trace=True)
    assert run(args) == 0
    res = json.loads((tmp_path / "r.json").read_text())["result"]
    perm = res["order_perm"]
    assert (perm == list(range(9))) == (method == "rtn")
    q = read_qmx(tmp_path / "q.qmx")
    h = (x if method == "optq" else xq).T @ (x if method == "optq" else xq)
    g = h if method == "optq" else xq.T @ x
    ridge = res["lambda"] * np.eye(9)
    for j, tr in enumerate(res["trace"]):
        assert tr["column"] == j
        assert tr["q"] == q[:, j].tolist()
        if method not in _COLUMN_ROUTES:
            assert tr["delta_norms"] == []
            continue
        col = _COLUMN_ROUTES[method](w[perm, j], h[np.ix_(perm, perm)] + ridge,
                                     g[np.ix_(perm, perm)] + ridge, grid_from_minmax(w[:, j], 16))
        assert col.q.tolist() == q[perm, j].tolist()
        states = col.w_states
        expect = [np.linalg.norm(b - a[1:]) for a, b in zip(states, states[1:])]
        assert len(tr["delta_norms"]) == len(expect) == 8
        assert np.allclose(tr["delta_norms"], expect, rtol=1e-9, atol=0.0)

# usage errors: exit 2

def test_missing_quantized_path_activations_is_usage_error(tmp_path):
    rng = np.random.default_rng(6)
    w = rng.standard_normal((8, 2))
    x = rng.standard_normal((32, 8))
    assert run(quantize_args(tmp_path, w, x=x, method="qronos")) == 2


def test_raw_and_stats_together_is_usage_error(tmp_path):
    rng = np.random.default_rng(7)
    w = rng.standard_normal((8, 2))
    x = rng.standard_normal((32, 8))
    hp = tmp_path / "h.qmx"
    write_qmx(hp, x.T @ x)
    args = quantize_args(tmp_path, w, x=x, method="optq", stats_h=hp)
    assert run(args) == 2


def test_levels_below_two_is_usage_error(tmp_path):
    w = np.zeros((4, 1))
    assert run(quantize_args(tmp_path, w, method="rtn", levels="1")) == 2


@pytest.mark.parametrize(
    "flag, value",
    [("beta", "0"), ("beta", "-1"), ("beta", "nan"), ("beta", "inf"),
     ("alpha", "nan"), ("alpha", "-1"), ("alpha", "inf"),
     ("bits", "inf"), ("bits", "1100"), ("bits", "3.5"), pytest.param("levels", "1" + "0" * 400, id="levels-1e400")],
)
def test_quantize_bad_flag_value_is_usage_error(tmp_path, capsys, flag, value):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((8, 2))
    x = rng.standard_normal((32, 8))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    assert run(quantize_args(tmp_path, w, x=x, xq=xq, method="qronos", **{flag: value})) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--{flag}" in err
    assert not (tmp_path / "q.qmx").exists()


@pytest.mark.parametrize(
    "method, given, named",
    [("optq", ["calib_xt"], "needs --calib-x"), ("qronos", ["stats_g"], "needs --stats-h"),
     ("qronos", ["stats_h"], "--stats-g"), ("optq", [], "calibration input")],
)
def test_incomplete_calibration_input_is_usage_error(tmp_path, capsys, method, given, named):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((8, 2))
    x = rng.standard_normal((32, 8))
    files = {"calib_xt": x, "stats_h": x.T @ x, "stats_g": x.T @ x}
    flags = {}
    for name in given:
        flags[name] = tmp_path / f"{name}.qmx"
        write_qmx(flags[name], files[name])
    assert run(quantize_args(tmp_path, w, method=method, **flags)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert not (tmp_path / "q.qmx").exists()


def test_trace_without_report_is_usage_error(tmp_path, capsys):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((8, 2))
    x = rng.standard_normal((32, 8))
    assert run(quantize_args(tmp_path, w, x=x, method="optq", trace=True)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--trace" in err and "--report" in err
    assert not (tmp_path / "q.qmx").exists()


def test_removed_optq_ref_method_is_usage_error(tmp_path):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((8, 2))
    args = quantize_args(tmp_path, w, x=rng.standard_normal((32, 8)), method="optq-ref")
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    assert run(["simulate", "--methods", "optq-ref"]) == 2


# I/O errors: exit 3

def test_missing_weights_file_is_io_error(tmp_path):
    code = run(
        ["quantize", "--weights", tmp_path / "nope.qmx", "--method", "rtn", "--out", tmp_path / "q.qmx"]
    )
    assert code == 3


def test_malformed_container_is_io_error(tmp_path):
    bad = tmp_path / "bad.qmx"
    bad.write_bytes(b"not a header\n\x00\x01")
    code = run(["quantize", "--weights", bad, "--method", "rtn", "--out", tmp_path / "q.qmx"])
    assert code == 3


def test_boolean_dimensions_in_header_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.qmx"
    header = json.dumps({"rows": True, "cols": True, "dtype": "f64", "order": "row-major"})
    bad.write_bytes(header.encode() + b"\n" + np.zeros(1).tobytes())
    assert run(["quantize", "--weights", bad, "--method", "rtn", "--out", tmp_path / "q.qmx"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad dimensions" in err


# shape errors: exit 4

def test_mismatched_calibration_width_is_shape_error(tmp_path):
    rng = np.random.default_rng(9)
    w = rng.standard_normal((8, 2))
    x = rng.standard_normal((32, 7))
    assert run(quantize_args(tmp_path, w, x=x, method="optq")) == 4


# numeric failures: exit 5

def test_indefinite_moments_without_damping_is_numeric_error(tmp_path):
    rng = np.random.default_rng(10)
    w = rng.standard_normal((6, 2))
    wp = tmp_path / "w.qmx"
    write_qmx(wp, w)
    hp = tmp_path / "h.qmx"
    write_qmx(hp, -np.eye(6))
    code = run(
        [
            "quantize", "--weights", wp, "--stats-h", hp, "--method", "optq",
            "--damping", "none", "--out", tmp_path / "q.qmx",
        ]
    )
    assert code == 5


def test_nan_weight_is_numeric_error(tmp_path, capsys):
    rng = np.random.default_rng(11)
    w = rng.standard_normal((64, 8))
    w[5, 3] = np.nan
    x = rng.standard_normal((128, 64))
    code = run(quantize_args(tmp_path, w, x=x, xq=x, method="qronos", bits=4))
    assert code == 5
    err = capsys.readouterr().err
    assert "w.qmx" in err and "row 5, col 3" in err and "nan" in err
    assert "Traceback" not in err


def test_inf_activation_is_numeric_error(tmp_path, capsys):
    rng = np.random.default_rng(12)
    w = rng.standard_normal((64, 8))
    x = rng.standard_normal((512, 64))
    xq = x.copy()
    xq[100, 7] = np.inf
    code = run(quantize_args(tmp_path, w, x=x, xq=xq, method="qronos", bits=4))
    assert code == 5
    err = capsys.readouterr().err
    assert "xq.qmx" in err and "row 100, feature 7" in err and "inf" in err


@pytest.mark.parametrize("method, damping", [("qronos-base", None), ("qronos", None), ("gpfq", "topsv"),
                                             ("optq", "topsv")])
def test_ridge_that_overflows_is_numeric_error(tmp_path, capsys, method, damping):
    rng = np.random.default_rng(14)
    w = rng.standard_normal((8, 3))
    x = rng.standard_normal((20, 8))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    flags = {"alpha": "1e308", "report": tmp_path / "r.json"} | ({"damping": damping} if damping else {})
    assert run(quantize_args(tmp_path, w, x=x, xq=xq, method=method, **flags)) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "alpha 1e+308 gives the ridge inf" in err
    assert not (tmp_path / "q.qmx").exists() and not (tmp_path / "r.json").exists()


# id: (method, the file holding the inf); qronos's activations reach
# accumulate's G W route, gpfq's its G route and optq's its one path
_NON_FINITE_FILES = {
    "calib_x": ("qronos", "calib_x"),
    "calib_xt": ("qronos", "calib_xt"),
    "gpfq-calib_x": ("gpfq", "calib_x"),
    "gpfq-calib_xt": ("gpfq", "calib_xt"),
    "optq-calib_x": ("optq", "calib_x"),
    "stats_h": ("qronos", "stats_h"),
    "stats_g": ("qronos", "stats_g"),
}


@pytest.mark.parametrize("method, which", list(_NON_FINITE_FILES.values()), ids=list(_NON_FINITE_FILES))
def test_non_finite_input_files_are_numeric_errors(tmp_path, capsys, method, which):
    rng = np.random.default_rng(13)
    w = rng.standard_normal((6, 2))
    x = rng.standard_normal((40, 6))
    mats = {"calib_x": x, "calib_xt": x, "stats_h": x.T @ x, "stats_g": x.T @ x}
    mats[which] = mats[which].copy()
    mats[which][2, 1] = -np.inf
    route = ("stats_h", "stats_g") if which.startswith("stats") else ("calib_x", "calib_xt")
    args = quantize_args(tmp_path, w, method=method)
    for name in route[: 1 + (method != "optq")]:
        path = tmp_path / f"{name}.qmx"
        write_qmx(path, mats[name])
        args += ["--" + name.replace("_", "-"), path]
    assert run(args) == 5
    err = capsys.readouterr().err
    cell = "row 2, col 1" if which.startswith("stats") else "row 2, feature 1"
    assert err.count("\n") == 1 and f"{which}.qmx" in err and cell in err


def test_non_finite_activations_behind_a_shape_error_exit_4(tmp_path, capsys):
    """Both activation files are read, and their shapes checked, before
    either is scanned: a NaN in --calib-x does not hide a bad --calib-xt."""
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, 6))
    x[3, 0] = np.nan
    args = quantize_args(tmp_path, rng.standard_normal((6, 2)), x=x, xq=x[:39], method="qronos")
    assert run(args) == 4
    assert "xq.qmx" in capsys.readouterr().err


# verify

def test_verify_zero_trials_is_vacuous_pass(capsys):
    assert run(["verify", "--suite", "theorem1", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "0 trials" in out


def test_verify_negative_trials_is_usage_error(capsys):
    assert run(["verify", "--suite", "lemmaC", "--trials", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--trials" in captured.err


def _strict_json(path):
    """The file parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("command", ["quantize", "verify"])
def test_reports_write_non_finite_numbers_as_null(tmp_path, monkeypatch, command):
    report = tmp_path / "r.json"
    if command == "quantize":  # rtn reads no moments: every objective is NaN
        assert run(quantize_args(tmp_path, np.ones((4, 3)), method="rtn", report=report)) == 0
        assert _strict_json(report)["result"]["objectives"] == [None] * 3
    else:  # an infinite deviation, as two state lists of different lengths give
        monkeypatch.setitem(verify._DEFAULTS, "oracle", (lambda rng, i, tol, detail: (False, np.inf), 1, 1e-12))
        assert run(["verify", "--suite", "oracle", "--out", report]) == 6
        assert _strict_json(report)["suites"][0]["max_dev"] is None


def test_verify_impossible_tolerance_fails(capsys):
    code = run(["verify", "--suite", "theorem1", "--trials", "2", "--tol", "0"])
    assert code == 6
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_verify_tolerance_not_finite_or_negative_is_usage_error(capsys, tol):
    assert run(["verify", "--suite", "theorem1", "--trials", "1", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--tol" in captured.err


def test_verify_small_run_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = run(["verify", "--suite", "lemma1", "--trials", "5", "--seed", "3", "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS lemma1" in text
    rep = json.loads(out.read_text())
    suites = {r["name"]: r for r in rep["suites"]}
    assert suites["lemma1"]["failures"] == 0
    assert suites["lemma1"]["trials"] == 5


# bench

def test_bench_tiny_ladder(tmp_path, capsys):
    out = tmp_path / "b.json"
    code = run(
        [
            "bench", "--k-min", "32", "--k-max", "64", "--m", "64",
            "--seeds", "1", "--reps", "1", "--methods", "optq,qronos", "--out", out,
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["k_ladder"] == [32, 64]
    cells = rep["timing"]["cells"]
    assert {(c["method"], c["k"]) for c in cells} == {
        ("optq", 32), ("optq", 64), ("qronos", 32), ("qronos", 64),
    }
    out = capsys.readouterr().out
    assert "K=32" in out and "shared input K=64: prepare=" in out


def test_bench_prints_the_efficient_form_speedup(capsys):
    code = run(["bench", "--k-min", "8", "--k-max", "8", "--m", "16", "--seeds", "1", "--reps", "1",
                "--methods", "qronos-base,qronos"])
    assert code == 0
    assert "speedup=" in capsys.readouterr().out


def test_bench_bad_ladder_is_usage_error():
    assert run(["bench", "--k-min", "128", "--k-max", "64"]) == 2


@pytest.mark.parametrize("k, m", [(2**40, 1), (4, 2**40), (4, 2**62)], ids=["k", "m", "past-numpy"])
def test_bench_cell_past_memory_is_skipped(tmp_path, k, m):
    out = tmp_path / "b.json"
    assert run(["bench", "--k-min", k, "--k-max", k, "--m", m, "--seeds", "1", "--methods", "optq,qronos",
                "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["timing"]["cells"] == [{"method": method, "k": k, "seed": 0, "skipped": "resource"}
                                      for method in ("optq", "qronos")]
    assert rep["timing"]["shared_input"] is None


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bench", "--reps", "0"], "--reps"),
        (["bench", "--levels", "1"], "--levels"),
        (["bench", "--seeds", "0"], "--seeds"),
        (["bench", "--m", "0"], "--m"),
        (["simulate", "--wlevels", "1"], "--wlevels"),
        (["simulate", "--width", "0"], "--width"),
        (["simulate", "--alevels", "0"], "--alevels"),
        (["simulate", "--alevels", "1"], "--alevels"),
        (["simulate", "--samples", "0"], "--samples"),
        (["simulate", "--seeds", "0"], "--seeds"),
        (["simulate", "--layers", "0"], "--layers"),
        (["simulate", "--layers", "2", "--blocks", "3"], "--blocks"),
        (["bench", "--levels", "1" + "0" * 400], "--levels"),
        (["simulate", "--wlevels", "1" + "0" * 400], "--wlevels"),
        (["simulate", "--alevels", "1" + "0" * 400], "--alevels"),
        (["bench", "--methods", ","], "--methods"),
        (["bench", "--methods", "rtn"], "--methods"),
        (["simulate", "--methods", ""], "--methods"),
        (["simulate", "--layers", "2", "--width", "4", "--seeds", "1", "--seed", "-5"], "--seed"),
        (["verify", "--suite", "oracle", "--trials", "1", "--seed", "-1"], "--seed"),
    ],
)
def test_bench_and_simulate_bad_flag_value_is_usage_error(capsys, argv, flag):
    tiny = {"bench": ["--k-min", "8", "--k-max", "8", "--m", "16"], "simulate": ["--samples", "8"]}.get(argv[0], [])
    assert run(argv[:1] + tiny + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and flag in captured.err


# simulate

def test_simulate_report_shape(tmp_path):
    out = tmp_path / "s.json"
    code = run(
        [
            "simulate", "--layers", "2", "--width", "8", "--blocks", "1",
            "--wlevels", "3", "--methods", "rtn,qronos", "--seeds", "2",
            "--samples", "32", "--alevels", "off", "--out", out,
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    for method in ("rtn", "qronos"):
        runs = rep["results"][method]
        assert len(runs) == 2
        for entry in runs:
            assert len(entry["rel_errors"]) == 2
        assert rep["summary"][method]["mean_final_rel_error"] >= 0
    assert rep["config"]["layers"] == 2


def test_simulate_rejects_unknown_method():
    assert run(["simulate", "--methods", "sorcery"]) == 2


def test_simulate_rejects_bad_activation_levels():
    assert run(["simulate", "--alevels", "many"]) == 2


def test_simulate_hadamard_needs_power_of_two_width():
    assert run(["simulate", "--width", "12", "--hadamard"]) == 2


@pytest.mark.parametrize("width, samples", [(2**40, 1), (4, 2**40), (2**80, 2**80)])
def test_simulate_past_memory_is_usage_error(capsys, width, samples):
    assert run(["simulate", "--width", width, "--samples", samples, "--layers", "1", "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--width" in captured.err and "--samples" in captured.err


def _stats_args(tmp_path, w, h, g=None, **flags):
    write_qmx(tmp_path / "w.qmx", w)
    write_qmx(tmp_path / "h.qmx", h)
    args = ["quantize", "--weights", tmp_path / "w.qmx", "--stats-h", tmp_path / "h.qmx",
            "--out", tmp_path / "q.qmx"]
    if g is not None:
        write_qmx(tmp_path / "g.qmx", g)
        args += ["--stats-g", tmp_path / "g.qmx"]
    for key, val in flags.items():
        args += ["--" + key.replace("_", "-"), val]
    return args


@pytest.mark.parametrize("method", ["optq", "gpfq", "qronos-base", "qronos"])
def test_raw_activations_and_stats_files_give_the_same_q(tmp_path, method):
    """Raw input takes the G W association where the shape allows it,
    stats files always hold G; q is the same either way."""
    rng = np.random.default_rng(21)
    n, n_out = (64, 16) if method == "qronos-base" else (300, 64)
    w = rng.standard_normal((n, n_out))
    x = rng.standard_normal((3 * n, n)) * np.exp(rng.uniform(-1.0, 1.0, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    two_path = method != "optq"
    assert run(quantize_args(a, w, x=x, xq=xq if two_path else None, method=method,
                             report=a / "r.json")) == 0
    # the program's own route to the moments, whose bits do not depend on the thread count
    stats = accumulate(CalibStats(n), x, xq if two_path else x)
    h, g = stats.H, stats.G if two_path else None
    assert run(_stats_args(b, w, h, g, method=method, report=b / "r.json")) == 0
    assert read_qmx(a / "q.qmx").tobytes() == read_qmx(b / "q.qmx").tobytes()
    lams = [json.loads((d / "r.json").read_text())["result"]["lambda"] for d in (a, b)]
    assert lams[0] == lams[1]


# one quantize per method, run from the current directory, so the report's
# --out (and every other flag) reads the same at either thread count
_QUANTIZE_SCRIPT = """
import sys
from qronos.cli import main
inputs = sys.argv[1]
for method in ("qronos", "optq", "gpfq"):
    code = main(["quantize", "--weights", inputs + "/w.qmx", "--calib-x", inputs + "/x.qmx",
                 "--calib-xt", inputs + "/xq.qmx", "--method", method,
                 "--out", f"q-{method}.qmx", "--report", f"r-{method}.json"])
    assert code == 0, (method, code)
"""


def test_quantize_from_activations_independent_of_blas_threads(tmp_path):
    """q and everything in the report outside "timing" are the same at 1 and
    2 BLAS threads: the moments, the ridge and the objectives."""
    rng = np.random.default_rng(300)
    x = rng.standard_normal((700, 300)) * np.exp(rng.uniform(-1.0, 1.0, 300))
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_qmx(inputs / "w.qmx", rng.standard_normal((300, 75)))
    write_qmx(inputs / "x.qmx", x)
    write_qmx(inputs / "xq.qmx", x + 0.1 * rng.standard_normal(x.shape))
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run([sys.executable, "-c", _QUANTIZE_SCRIPT, str(inputs)], cwd=tmp_path / threads,
                       env=env, capture_output=True, text=True, check=True, timeout=300)
    for method in ("qronos", "optq", "gpfq"):
        q1, q2 = ((tmp_path / t / f"q-{method}.qmx").read_bytes() for t in ("1", "2"))
        assert q1 == q2, method
        reports = [json.loads((tmp_path / t / f"r-{method}.json").read_text()) for t in ("1", "2")]
        for r in reports:
            assert r.pop("timing")
        assert reports[0] == reports[1], method


@pytest.mark.parametrize(
    "method, source, form",
    [("qronos", "raw", "GW"), ("qronos-base", "raw", "GW"), ("gpfq", "raw", "G"),
     ("qronos", "stats", "G"), ("optq", "raw", "shared")],
)
def test_cli_cross_moment_form(tmp_path, monkeypatch, method, source, form):
    import qronos.rounding as rounding_mod

    seen = []
    original = rounding_mod.quantize_layer

    def spy(req):
        seen.append(req.stats)
        return original(req)

    monkeypatch.setattr(rounding_mod, "quantize_layer", spy)
    rng = np.random.default_rng(22)
    w = rng.standard_normal((20, 4))
    x = rng.standard_normal((60, 20))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    if source == "raw":
        args = quantize_args(tmp_path, w, x=x, xq=None if method == "optq" else xq, method=method)
    else:
        args = _stats_args(tmp_path, w, xq.T @ xq, xq.T @ x, method=method)
    assert run(args) == 0
    (stats,) = seen
    got = "GW" if stats.GW is not None else "shared" if stats.G is stats.H else "G"
    assert got == form


@pytest.mark.parametrize("method, kept", [("qronos", False), ("optq", False)])
def test_cli_releases_activations_before_the_layer(tmp_path, monkeypatch, method, kept):
    """No method reads the raw activations after the moments exist."""
    import weakref

    import qronos.cli as cli_mod
    import qronos.rounding as rounding_mod

    refs = []
    read = cli_mod._qmx.read_qmx

    def tracking_read(path):
        arr = read(path)
        refs.append(weakref.ref(arr))
        return arr

    alive = []
    original = rounding_mod.quantize_layer

    def spy(req):
        alive.extend(r() is not None for r in refs[1:])
        return original(req)

    monkeypatch.setattr(cli_mod._qmx, "read_qmx", tracking_read)
    monkeypatch.setattr(rounding_mod, "quantize_layer", spy)
    rng = np.random.default_rng(23)
    w = rng.standard_normal((16, 3))
    x = rng.standard_normal((48, 16))
    xq = x + 0.1 * rng.standard_normal(x.shape) if method == "qronos" else None
    assert run(quantize_args(tmp_path, w, x=x, xq=xq, method=method)) == 0
    assert alive and all(a == kept for a in alive)


def test_traced_quantize_keeps_no_states(tmp_path):
    """--trace takes each step's move as the states arrive and keeps none
    of the layer's n (n + 1) / 2 n_out floats: at K = 512 the traced run
    peaks at most 1.5x the untraced one."""
    import tracemalloc

    rng = np.random.default_rng(29)
    w = rng.standard_normal((512, 128))
    x = rng.standard_normal((1024, 512))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    peaks = []
    for flags in ({}, {"trace": True}):
        args = quantize_args(tmp_path, w, x=x, xq=xq, method="qronos", report=tmp_path / "r.json", **flags)
        tracemalloc.start()
        try:
            assert run(args) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], [f"{p / 2**20:.1f} MiB" for p in peaks]


def test_report_times_every_phase(tmp_path):
    from qronos.rounding import PHASES

    rng = np.random.default_rng(24)
    w = rng.standard_normal((30, 4))
    x = rng.standard_normal((90, 30))
    assert run(quantize_args(tmp_path, w, x=x, xq=x + 0.1, method="qronos",
                             report=tmp_path / "r.json")) == 0
    phases = json.loads((tmp_path / "r.json").read_text())["timing"]["phases"]
    assert sorted(phases) == sorted(PHASES)
    assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())


@pytest.mark.parametrize("method", ["gpfq", "optq", "qronos"])
def test_asymmetric_stats_h_exits_numerical(tmp_path, capsys, method):
    rng = np.random.default_rng(25)
    a = rng.standard_normal((40, 6))
    h = a.T @ a
    h[0, 3] += 1.0
    args = _stats_args(tmp_path, rng.standard_normal((6, 2)), h, h, method=method)
    assert run(args) == 5
    assert "H is not symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["rtn", "optq", "gpfq", "qronos-base", "qronos"])
def test_weights_without_output_columns_is_shape_error(tmp_path, capsys, method):
    x = np.random.default_rng(26).standard_normal((16, 4))
    args = quantize_args(tmp_path, np.zeros((4, 0)), x=None if method == "rtn" else x,
                         xq=x + 0.1, method=method)
    assert run(args) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "output columns" in err


@pytest.mark.parametrize("method, symmetric", [("qronos", False), ("optq", False), ("rtn", False),
                                               ("qronos", True)])
def test_weights_column_whose_range_overflows_is_numeric_error(tmp_path, capsys, method, symmetric):
    """At 2 levels the step is the whole range (or 2 max|w|), so it overflows."""
    rng = np.random.default_rng(27)
    w = rng.standard_normal((6, 3))
    w[1, 2], w[4, 2] = 1e308, -1e308
    x = rng.standard_normal((24, 6))
    flags = {"symmetric": True} if symmetric else {}
    args = quantize_args(tmp_path, w, x=None if method == "rtn" else x, xq=x + 0.1,
                         method=method, levels=2, **flags)
    assert run(args) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "column 2" in err and "not finite" in err
    assert not (tmp_path / "q.qmx").exists()


@pytest.mark.parametrize("symmetric", [False, True])
def test_weights_grid_is_built_before_any_calibration_read(tmp_path, capsys, symmetric):
    """A weights column whose step overflows exits 5 before the calibration
    files are opened: a --calib-x that does not exist is never read."""
    w = np.ones((6, 3))
    w[1, 2], w[4, 2] = 1e308, -1e308
    args = quantize_args(tmp_path, w, method="qronos", levels=2, calib_x=tmp_path / "absent.qmx",
                         calib_xt=tmp_path / "absent_too.qmx", **({"symmetric": True} if symmetric else {}))
    assert run(args) == 5
    err = capsys.readouterr().err
    assert "column 2" in err and "absent" not in err


@pytest.mark.parametrize("top, bottom, symmetric", [(1e308, 0.0, True), (1e308, -1e308, False),
                                                    (1e308, -1e308, True)])
def test_weights_column_whose_range_overflows_gets_a_finite_grid(tmp_path, top, bottom, symmetric):
    """A range (or 2 max|w|) past float64's top still has a finite step
    at 16 levels: the column quantizes, its extremes near themselves."""
    rng = np.random.default_rng(28)
    w = rng.standard_normal((6, 3))
    w[1, 2], w[4, 2] = top, bottom
    flags = {"symmetric": True} if symmetric else {}
    assert run(quantize_args(tmp_path, w, method="rtn", levels=16, **flags)) == 0
    q = read_qmx(tmp_path / "q.qmx")
    assert np.isfinite(q).all()
    # within one step, 2e308 / 15 at most, of themselves
    assert np.abs(q[[1, 4], 2] - [top, bottom]).max() <= 2e308 / 15


def test_symmetric_grid_at_even_levels_keeps_a_zero_column(tmp_path):
    """A zero column (or one whose max|w| underflows) comes back as zeros,
    although 0 is not on a centered grid with an even level count."""
    w = np.array([[0.0, 5e-324, 1.0], [0.0, 0.0, -2.0], [0.0, 0.0, 3.0]])
    assert run(quantize_args(tmp_path, w, method="rtn", levels=16, symmetric=True)) == 0
    q = read_qmx(tmp_path / "q.qmx")
    assert q[:, :2].tobytes() == np.zeros((3, 2)).tobytes()


@pytest.mark.parametrize("symmetric", [False, True])
def test_weights_without_rows_is_shape_error_naming_the_file(tmp_path, capsys, symmetric):
    flags = {"symmetric": True} if symmetric else {}
    assert run(quantize_args(tmp_path, np.zeros((0, 3)), method="rtn", **flags)) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "w.qmx" in err and "empty" in err
    assert not (tmp_path / "q.qmx").exists()


@pytest.mark.parametrize("symmetric", [False, True])
def test_weights_column_whose_step_underflows_gets_a_degenerate_grid(tmp_path, symmetric):
    """A positive range whose step rounds to zero quantizes as the
    all-zero column does."""
    flags = {"symmetric": True} if symmetric else {}
    qs = []
    for tiny in (5e-324, 0.0):
        d = tmp_path / str(tiny)
        d.mkdir()
        w = np.array([[tiny, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0]])
        assert run(quantize_args(d, w, method="rtn", levels=16, **flags)) == 0
        qs.append(read_qmx(d / "q.qmx"))
    assert qs[0].tobytes() == qs[1].tobytes()
