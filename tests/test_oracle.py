import numpy as np
import pytest

from qronos import (
    CalibStats,
    DampingPolicy,
    LayerQuantRequest,
    ShapeError,
    accumulate,
    grid_from_minmax,
    quantize_layer,
    quantize_rtn,
)
from qronos.errors import EnumerationCapError
from qronos.oracle import (
    DEFAULT_CELL_CAP,
    brute_force_ils,
    direct_lstsq,
    first_step_pinv,
    step_objective,
    stepwise_argmin_oracle,
)
from helpers import column_instance


def test_brute_force_recovers_on_grid_column():
    rng = np.random.default_rng(0)
    grid = grid_from_minmax(np.array([-1.0, 0.5]), 4)
    w = quantize_rtn(rng.standard_normal(4), grid)
    x = rng.standard_normal((24, 4))
    q, obj = brute_force_ils(w, x, x, grid)
    assert np.array_equal(q, w)
    assert obj <= 1e-18


def test_brute_force_single_coordinate_matches_stepwise():
    rng = np.random.default_rng(1)
    w, x, xq, grid = column_instance(rng, 1, 12, 4)
    q, obj = brute_force_ils(w, x, xq, grid)
    target = x[:, 0] * w[0]
    val, val_obj = stepwise_argmin_oracle(target, xq[:, 0], grid)
    assert q[0] == val
    assert obj == pytest.approx(val_obj, rel=1e-12, abs=1e-15)


def test_brute_force_cap_names_required_size():
    # 16 levels over n = 6 is 16**6 cells, over DEFAULT_CELL_CAP
    grid = grid_from_minmax(np.array([-1.0, 1.0]), 16)
    rng = np.random.default_rng(2)
    w, x = rng.standard_normal(6), rng.standard_normal((8, 6))
    assert 16**6 > DEFAULT_CELL_CAP
    with pytest.raises(EnumerationCapError) as exc:
        brute_force_ils(w, x, x, grid)
    assert str(16**6) in str(exc.value)


def test_brute_force_dominates_greedy_methods():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w, x, xq, grid = column_instance(rng, 4, 32, 4)
        _, best = brute_force_ils(w, x, xq, grid)
        stats = accumulate(CalibStats(4), x, xq)
        for method in ("optq", "gpfq", "qronos", "qronos_base"):
            q, _ = quantize_layer(
                LayerQuantRequest(weights=w[:, None], grids=grid, method=method,
                                  stats=stats, damping=DampingPolicy("none")),
            )
            resid = x @ w - xq @ q[:, 0]
            obj = 0.5 * float(resid @ resid)
            assert best <= obj + 1e-12 * max(1.0, obj)


def test_greedy_attains_optimum_when_decoupled():
    """Orthogonal quantized-path columns make the greedy choice globally optimal."""
    rng = np.random.default_rng(4)
    basis, _ = np.linalg.qr(rng.standard_normal((32, 4)))
    x = basis * rng.uniform(1.0, 2.0, size=4)
    w = rng.uniform(-0.9, 0.9, size=4)
    grid = grid_from_minmax(np.array([-1.0, 1.0]), 4)
    _, best = brute_force_ils(w, x, x, grid)
    stats = accumulate(CalibStats(4), x, x)
    q, _ = quantize_layer(
        LayerQuantRequest(weights=w[:, None], grids=grid, method="optq",
                          stats=stats, damping=DampingPolicy("none")),
    )
    resid = x @ (w - q[:, 0])
    assert 0.5 * float(resid @ resid) == pytest.approx(best, rel=1e-10, abs=1e-12)


def test_stepwise_oracle_unclipped_matches_ratio():
    rng = np.random.default_rng(5)
    grid = grid_from_minmax(np.array([-2.0, 2.0]), 16)
    col = rng.standard_normal(20)
    resid = 0.3 * col + 0.01 * rng.standard_normal(20)
    val, _ = stepwise_argmin_oracle(resid, col, grid)
    assert val == quantize_rtn(float(resid @ col) / float(col @ col), grid)


def test_stepwise_oracle_clips_to_edge():
    grid = grid_from_minmax(np.array([-1.0, 1.0]), 4)
    col = np.ones(8)
    val, _ = stepwise_argmin_oracle(50.0 * col, col, grid)
    assert val == grid.alphabet[-1]
    val, _ = stepwise_argmin_oracle(-50.0 * col, col, grid)
    assert val == grid.alphabet[0]


def test_step_objective_definition():
    r = np.array([1.0, -1.0])
    c = np.array([1.0, 0.0])
    assert step_objective(r, c, 1.0) == pytest.approx(0.5)


def test_direct_lstsq_identity_and_consistent():
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(direct_lstsq(np.eye(3), b), b)
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 3))
    v = rng.standard_normal(3)
    assert np.allclose(direct_lstsq(a, a @ v), v, atol=1e-10)


def test_direct_lstsq_residual_orthogonality():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 4))
    b = rng.standard_normal(20)
    sol = direct_lstsq(a, b)
    assert np.allclose(a.T @ (b - a @ sol), 0.0, atol=1e-9)


def test_direct_lstsq_rejects_rank_deficient_system():
    a = np.ones((6, 2))
    with pytest.raises(np.linalg.LinAlgError, match="rank 1 of 2"):
        direct_lstsq(a, np.ones(6))


def test_first_step_pinv_scalar_case():
    rng = np.random.default_rng(8)
    w, x, xq, grid = column_instance(rng, 2, 16, 4)
    q1, tail = first_step_pinv(w, x, xq, grid)
    resid = x @ w - xq[:, 1:] @ w[1:]
    assert q1 == quantize_rtn(float(xq[:, 0] @ resid) / float(xq[:, 0] @ xq[:, 0]), grid)
    assert tail.shape == (1,)


@pytest.mark.parametrize(
    "call",
    [
        lambda grid: brute_force_ils(np.zeros(3), np.zeros((5, 3)), np.zeros((5, 2)), grid),
        lambda grid: stepwise_argmin_oracle(np.zeros(5), np.zeros(4), grid),
        lambda grid: direct_lstsq(np.zeros((5, 3)), np.zeros(4)),
    ],
    ids=["brute_force_ils", "stepwise_argmin_oracle", "direct_lstsq"],
)
def test_oracles_reject_mismatched_shapes(call):
    with pytest.raises(ShapeError):
        call(grid_from_minmax(np.array([-1.0, 1.0]), 4))
