import pytest

import qronos.rounding as rounding_mod
from qronos.bench import BenchConfig, median_algo_times, run_bench


def test_ladder_doubles_from_k_min():
    cfg = BenchConfig(k_min=32, k_max=512, m=64)
    assert cfg.ladder == [32, 64, 128, 256, 512]


def test_ladder_stops_below_k_max():
    cfg = BenchConfig(k_min=48, k_max=100, m=64)
    assert cfg.ladder == [48, 96]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k_min": 2},
        {"k_min": 64, "k_max": 32},
        {"methods": ("rtn",)},
        {"methods": ("optq_ref",)},
        {"methods": ("nope",)},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        BenchConfig(m=64, **kwargs)


def test_tiny_run_report_shape():
    cfg = BenchConfig(k_min=8, k_max=16, m=32, seeds=2, inner_reps=1, methods=("optq", "qronos"))
    report = run_bench(cfg)
    cells = report["timing"]["cells"]
    assert len(cells) == 2 * 2 * 2
    for cell in cells:
        assert cell["algo"]["min"] > 0
        assert cell["e2e"]["min"] >= cell["algo"]["min"]
        assert list(cell["phases"]) == list(rounding_mod.PHASES)
        # each phase is a part of every timed layer run, the fastest included
        assert 0 <= sum(cell["phases"].values()) <= cell["algo"]["min"]
        assert cell["peak_mb"] > 0
    machine = report["machine"]
    assert machine["cpu_count"] >= 1 and "openblas_num_threads" in machine
    assert machine["blas"]["numpy"]["name"] and machine["blas"]["scipy"]["name"]
    med = median_algo_times(report)
    assert set(med) == {(m, k) for m in ("optq", "qronos") for k in (8, 16)}
    assert all(v > 0 for v in med.values())
    shared = report["timing"]["shared_input"]
    assert {key: shared[key] for key in ("method", "k", "matrices")} == {"method": "qronos", "k": 16, "matrices": 3}
    assert shared["prepare_s"] > 0
    assert len(shared["round_s"]) == len(shared["quantize_layer_s"]) == 3
    assert all(t > 0 for t in shared["round_s"] + shared["quantize_layer_s"])


def test_shared_input_cell_only_when_qronos_is_benchmarked():
    report = run_bench(BenchConfig(k_min=8, k_max=8, m=32, seeds=1, inner_reps=1, methods=("optq",)))
    assert report["timing"]["shared_input"] is None


@pytest.mark.parametrize("method, form", [("qronos", "GW"), ("qronos_base", "GW"), ("optq", "shared"), ("gpfq", "G")])
def test_cell_hands_the_layer_the_cli_stats(monkeypatch, method, form):
    """The ladder's n_out = K/4 layers get G W stats, as the CLI's would."""
    seen = []
    original = rounding_mod.quantize_layer

    def spy(req):
        seen.append(req.stats)
        return original(req)

    monkeypatch.setattr(rounding_mod, "quantize_layer", spy)
    run_bench(BenchConfig(k_min=16, k_max=16, m=32, seeds=1, inner_reps=2, methods=(method,)))
    forms = ["GW" if s.GW is not None else "shared" if s.G is s.H else "G" for s in seen]
    # the two timed repetitions and the untimed one that takes the peak;
    # then, for qronos, the shared-input cell's three layers per repetition,
    # whose stats hold the G all three share
    assert forms[:3] == [form] * 3
    assert forms[3:] == (["G"] * 6 if method == "qronos" else [])
    if form == "GW":
        assert all(s.GW.shape == (16, 4) for s in seen[:3])


def test_cell_out_of_memory_is_skipped(monkeypatch):
    """A cell whose layer raises MemoryError is marked skipped, and the
    medians leave it out."""
    original = rounding_mod.quantize_layer

    def starved(req):
        if req.method == "qronos":
            raise MemoryError
        return original(req)

    monkeypatch.setattr(rounding_mod, "quantize_layer", starved)
    report = run_bench(BenchConfig(k_min=8, k_max=8, m=32, seeds=1, inner_reps=1, methods=("optq", "qronos")))
    cells = {c["method"]: c for c in report["timing"]["cells"]}
    assert cells["qronos"] == {"method": "qronos", "k": 8, "seed": 0, "skipped": "resource"}
    assert "algo" in cells["optq"]
    assert set(median_algo_times(report)) == {("optq", 8)}
