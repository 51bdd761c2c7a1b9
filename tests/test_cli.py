import contextlib
import json

import numpy as np
import pytest

from qronos import read_qmx, write_qmx
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


@pytest.mark.parametrize("method", ["optq", "qronos"])
def test_trace_q_is_in_caller_row_order(tmp_path, method):
    """Each trace[j].q is column j of --out, whatever the processing order."""
    rng = np.random.default_rng(12)
    w = rng.standard_normal((9, 3))
    x = rng.standard_normal((64, 9)) * np.exp(rng.uniform(-1.0, 1.0, 9))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    args = quantize_args(tmp_path, w, x=x, xq=xq, method=method,
                         report=tmp_path / "r.json", trace=True)
    assert run(args) == 0
    res = json.loads((tmp_path / "r.json").read_text())["result"]
    assert res["order_perm"] != list(range(9))
    q = read_qmx(tmp_path / "q.qmx")
    for j, tr in enumerate(res["trace"]):
        assert tr["column"] == j
        assert tr["q"] == q[:, j].tolist()
        assert len(tr["delta_norms"]) == 8

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


def test_stats_route_rejects_least_squares_refit(tmp_path):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((8, 2))
    hp = tmp_path / "h.qmx"
    write_qmx(hp, np.eye(8))
    args = quantize_args(tmp_path, w, method="optq-ref", stats_h=hp)
    assert run(args) == 2


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
    assert "xq.qmx" in err and "row 100, col 7" in err and "inf" in err


@pytest.mark.parametrize("which", ["calib_x", "stats_h", "stats_g"])
def test_non_finite_input_files_are_numeric_errors(tmp_path, capsys, which):
    rng = np.random.default_rng(13)
    w = rng.standard_normal((6, 2))
    x = rng.standard_normal((40, 6))
    mats = {"calib_x": x, "calib_xt": x, "stats_h": x.T @ x, "stats_g": x.T @ x}
    mats[which] = mats[which].copy()
    mats[which][2, 1] = -np.inf
    route = ("calib_x", "calib_xt") if which == "calib_x" else ("stats_h", "stats_g")
    args = quantize_args(tmp_path, w, method="qronos")
    for name in route:
        path = tmp_path / f"{name}.qmx"
        write_qmx(path, mats[name])
        args += ["--" + name.replace("_", "-"), path]
    assert run(args) == 5
    err = capsys.readouterr().err
    assert f"{which}.qmx" in err and "row 2, col 1" in err


# verify

def test_verify_zero_trials_is_vacuous_pass(capsys):
    assert run(["verify", "--suite", "theorem1", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "0 trials" in out


def test_verify_impossible_tolerance_fails(capsys):
    code = run(["verify", "--suite", "theorem1", "--trials", "2", "--tol", "-1"])
    assert code == 6
    assert "FAIL" in capsys.readouterr().out


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
    norm = rep["timing"]["normalized"]["algo"]["rows"]
    anchor = [r for r in norm if r["method"] == "optq" and r["k"] == 32]
    assert anchor and anchor[0]["value"] == pytest.approx(1.0)
    assert "K=32" in capsys.readouterr().out


def test_bench_bad_ladder_is_usage_error():
    assert run(["bench", "--k-min", "128", "--k-max", "64"]) == 2


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
