import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qronos import (
    CalibStats,
    ConvergenceError,
    DampingPolicy,
    LayerQuantRequest,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    apply_damping,
    cholesky_lower,
    grid_from_minmax,
    inverse_hessian_step,
    quantize_layer,
    solve_spd,
    spd_inverse,
    top_singular_value,
)
from qronos.rounding import chol_of_inverse
from helpers import random_spd


def test_cholesky_identity():
    f = cholesky_lower(np.eye(3))
    assert np.array_equal(f.L, np.eye(3))


def test_cholesky_hand_two_by_two():
    f = cholesky_lower(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert np.allclose(f.L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def test_cholesky_indefinite_reports_pivot():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.index == 2


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError):
        cholesky_lower(np.array([[1.0, 0.5], [0.0, 1.0]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10_000))
def test_cholesky_round_trip(n, seed):
    m = random_spd(np.random.default_rng(seed), n)
    f = cholesky_lower(m)
    assert np.tril(f.L).tolist() == f.L.tolist()
    assert np.all(np.diag(f.L) > 0)
    rel = np.linalg.norm(f.L @ f.L.T - m) / np.linalg.norm(m)
    assert rel <= 1e-10


def test_cholesky_round_trip_large():
    m = random_spd(np.random.default_rng(0), 256)
    f = cholesky_lower(m)
    assert np.linalg.norm(f.L @ f.L.T - m) <= 1e-10 * np.linalg.norm(m)


def test_solve_spd_matches_direct():
    rng = np.random.default_rng(1)
    m = random_spd(rng, 12)
    b = rng.standard_normal((12, 3))
    sol = solve_spd(m, b)
    assert np.allclose(m @ sol, b, atol=1e-9)
    assert np.allclose(sol, np.linalg.solve(m, b))


def test_spd_inverse_diagonal():
    assert np.allclose(spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    assert np.allclose(spd_inverse(np.eye(4)), np.eye(4))


def test_spd_inverse_round_trip_and_symmetry():
    m = random_spd(np.random.default_rng(2), 16)
    inv = spd_inverse(m)
    assert np.array_equal(inv, inv.T)
    assert np.linalg.norm(m @ inv - np.eye(16)) <= 1e-10 * np.linalg.norm(m) * np.linalg.norm(inv)


def test_top_singular_identity_and_diag():
    assert top_singular_value(np.eye(5)) == pytest.approx(1.0, rel=1e-12)
    assert top_singular_value(np.diag([1.0, 3.0, 2.0])) == pytest.approx(3.0, rel=1e-6)


def test_top_singular_matches_dense_eigensolver():
    m = random_spd(np.random.default_rng(3), 32, spread=0.1)
    dense = float(np.linalg.eigvalsh(m)[-1])
    assert top_singular_value(m) == pytest.approx(dense, rel=1e-5)


def test_top_singular_zero_matrix():
    assert top_singular_value(np.zeros((4, 4))) == 0.0


def test_top_singular_nonconvergence_carries_estimate():
    m = random_spd(np.random.default_rng(4), 700)
    with pytest.raises(ConvergenceError) as exc:
        top_singular_value(m, max_iter=1)
    assert exc.value.last_estimate > 0


def _spd_with_top_vector(rng, n, top, gap):
    """SPD matrix with eigenvector ``top`` for its largest eigenvalue."""
    basis = np.column_stack([top, rng.standard_normal((n, n - 1))])
    q, _ = np.linalg.qr(basis)
    eigs = np.concatenate([[1.0 + gap], rng.uniform(0.01, 1.0, n - 1)])
    m = (q * eigs) @ q.T
    return (m + m.T) / 2.0


@pytest.mark.parametrize("n", [1, 2, 64, 700])
def test_top_singular_matches_eigvalsh(n):
    m = random_spd(np.random.default_rng(n), n)
    dense = float(np.linalg.eigvalsh(m)[-1])
    assert top_singular_value(m) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("gap", [1.0, 0.015])
def test_top_singular_top_vector_orthogonal_to_ones(gap):
    """The all-ones vector carries no component of the top eigenvector."""
    n = 700
    top = np.zeros(n)
    top[0], top[1] = 1.0, -1.0
    m = _spd_with_top_vector(np.random.default_rng(11), n, top, gap)
    assert abs(np.ones(n) @ np.linalg.eigh(m)[1][:, -1]) < 1e-10
    dense = float(np.linalg.eigvalsh(m)[-1])
    assert top_singular_value(m) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("n", [1, 5, 64, 300])
def test_chol_of_inverse_factors_the_inverse(n):
    h = random_spd(np.random.default_rng(12 + n), n)
    low = chol_of_inverse(h).L
    assert np.array_equal(np.tril(low), low)
    assert np.all(np.diag(low) > 0)
    assert np.linalg.norm(low @ low.T @ h - np.eye(n)) <= 1e-10 * np.sqrt(n)
    ref = cholesky_lower(spd_inverse(h)).L
    assert np.max(np.abs(low - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_chol_of_inverse_rejects_singular_and_indefinite():
    x = np.random.default_rng(13).standard_normal((12, 5))
    x[:, 4] = x[:, 3]
    with pytest.raises(NotPositiveDefiniteError):
        chol_of_inverse(x.T @ x)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        chol_of_inverse(np.diag([1.0, -1.0, 2.0]))
    assert exc.value.index == 2
    with pytest.raises(ValueError):
        chol_of_inverse(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_damping_mean_diag_percent():
    h = np.diag([1.0, 3.0])
    lam = apply_damping(h, DampingPolicy("mean_diag_percent"))
    assert lam == 0.02
    assert np.array_equal(h, np.diag([1.0, 3.0]))


def test_damping_top_singular_fraction():
    h = np.eye(3)
    lam = apply_damping(h, DampingPolicy("top_singular_fraction", alpha=1e-3))
    assert lam == pytest.approx(1e-3, rel=1e-9)
    assert np.array_equal(h, np.eye(3))


def test_damping_leaves_h_untouched():
    h = random_spd(np.random.default_rng(6), 7)
    before = h.copy()
    lam = apply_damping(h, DampingPolicy("top_singular_fraction", alpha=1e-2))
    assert lam == 1e-2 * top_singular_value(before)
    assert h.tobytes() == before.tobytes()


@pytest.mark.parametrize("where", [(140, 3), (3, 140), (70, 66)])
def test_symmetry_check_spans_tiles(where):
    m = random_spd(np.random.default_rng(7), 150)
    m[where] += 1e-3
    skew = float(np.abs(m - m.T).max())
    with pytest.raises(ValueError, match=f"max asymmetry {skew:.3e} "):
        cholesky_lower(m)


@pytest.mark.parametrize(
    "route",
    [
        cholesky_lower,
        chol_of_inverse,
        top_singular_value,
        lambda m: apply_damping(m, DampingPolicy("top_singular_fraction")),
        lambda m: solve_spd(m, np.ones(6)),
    ],
    ids=["cholesky_lower", "chol_of_inverse", "top_singular_value", "apply_damping", "solve_spd"],
)
def test_public_routes_still_reject_asymmetry(route):
    m = random_spd(np.random.default_rng(9), 6)
    m[4, 1] += 1e-3
    with pytest.raises(ValueError, match="not symmetric"):
        route(m)


def test_layer_rejects_asymmetric_h_at_its_entry():
    h = random_spd(np.random.default_rng(10), 5)
    h[0, 3] += 1e-3
    with pytest.raises(ValueError, match="H is not symmetric"):
        _qronos_layer(h, method="gpfq")


def _qronos_layer(h, method="qronos"):
    grids = [grid_from_minmax(np.arange(5.0), 4)] * 2
    stats = CalibStats(5, H=h, G=np.eye(5))
    return quantize_layer(LayerQuantRequest(np.ones((5, 2)), grids, method, stats=stats))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize(
    "route",
    [
        top_singular_value,
        lambda h: apply_damping(h, DampingPolicy("top_singular_fraction")),
        _qronos_layer,
        lambda h: _qronos_layer(h, method="gpfq"),
    ],
    ids=["top_singular_value", "apply_damping", "quantize_layer", "quantize_layer_gpfq"],
)
def test_non_finite_matrix_is_named_without_warnings(bad, route):
    h = np.eye(5)
    h[2, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInputError, match="row 2, col 3"):
            route(h)


def test_non_finite_cell_is_named_in_caller_order():
    # descending-diagonal ordering reverses the features; the message
    # still names the caller's cell
    h = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    h[1, 3] = np.inf
    with pytest.raises(NonFiniteInputError, match="row 1, col 3"):
        _qronos_layer(h)


def test_damping_none_is_exact_passthrough():
    h = random_spd(np.random.default_rng(5), 6)
    before = h.copy()
    assert apply_damping(h, DampingPolicy("none")) == 0.0
    assert h.tobytes() == before.tobytes()


def test_damping_policy_validation():
    with pytest.raises(ValueError):
        DampingPolicy("something_else")


def test_inverse_step_identity_and_diag():
    assert np.array_equal(inverse_hessian_step(np.eye(3)), np.eye(2))
    assert np.array_equal(inverse_hessian_step(np.diag([2.0, 5.0])), np.array([[5.0]]))


def test_inverse_step_matches_direct_submatrix_inverse():
    h = random_spd(np.random.default_rng(6), 8)
    stepped = inverse_hessian_step(spd_inverse(h))
    direct = spd_inverse(h[1:, 1:])
    assert np.linalg.norm(stepped - direct) <= 1e-8 * np.linalg.norm(direct)


def test_inverse_step_chain_reproduces_all_trailing_inverses():
    h = random_spd(np.random.default_rng(7), 8)
    cur = spd_inverse(h)
    for t in range(1, 8):
        cur = inverse_hessian_step(cur)
        direct = spd_inverse(h[t:, t:])
        assert np.linalg.norm(cur - direct) <= 1e-8 * max(1.0, np.linalg.norm(direct))


def test_inverse_step_edge_cases():
    assert inverse_hessian_step(np.array([[2.0]])).shape == (0, 0)
    with pytest.raises(ValueError):
        inverse_hessian_step(np.array([[0.0, 0.0], [0.0, 1.0]]))
