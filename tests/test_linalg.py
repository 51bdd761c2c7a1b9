import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from qronos import (
    CalibStats,
    ConvergenceError,
    DampingPolicy,
    LayerQuantRequest,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    ShapeError,
    apply_damping,
    grid_from_minmax,
    quantize_layer,
)
from qronos.linalg import cholesky_lower, inverse_hessian_step, spd_inverse, top_singular_value
from qronos.rounding import chol_of_inverse
from helpers import random_spd


def test_cholesky_identity():
    assert np.array_equal(cholesky_lower(np.eye(3)), np.eye(3))


def test_cholesky_hand_two_by_two():
    low = cholesky_lower(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert np.allclose(low, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


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
    low = cholesky_lower(m)
    assert np.tril(low).tolist() == low.tolist()
    assert np.all(np.diag(low) > 0)
    rel = np.linalg.norm(low @ low.T - m) / np.linalg.norm(m)
    assert rel <= 1e-10


def test_cholesky_round_trip_large():
    m = random_spd(np.random.default_rng(0), 256)
    low = cholesky_lower(m)
    assert np.linalg.norm(low @ low.T - m) <= 1e-10 * np.linalg.norm(m)


def test_solves_match_the_solve_triangular_route_bit_for_bit():
    rng = np.random.default_rng(4)
    for n in range(1, 80):
        m = random_spd(rng, n)
        low = cholesky_lower(m)
        linv = solve_triangular(low, np.eye(n), lower=True)
        ref = linv.T @ linv
        assert spd_inverse(m).tobytes() == ((ref + ref.T) / 2.0).tobytes(), n


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


def test_top_singular_nonconvergence_carries_estimate(monkeypatch):
    """ARPACK running out of restarts: the best estimate is a converged
    Ritz value if there is one, else the largest diagonal entry."""
    import scipy.sparse.linalg as sla

    m = random_spd(np.random.default_rng(4), 40)
    for found, expected in ((np.array([2.0, 7.5]), 7.5), (np.empty(0), float(np.diag(m).max()))):

        def stalled(*args, found=found, **kwargs):
            raise sla.ArpackNoConvergence("ARPACK error -1: No convergence", found, None)

        monkeypatch.setattr(sla, "eigsh", stalled)
        with pytest.raises(ConvergenceError) as exc:
            top_singular_value(m)
        assert exc.value.last_estimate == expected


def _spd_with_top_vector(rng, n, top, gap):
    """SPD matrix with eigenvector ``top`` for its largest eigenvalue."""
    basis = np.column_stack([top, rng.standard_normal((n, n - 1))])
    q, _ = np.linalg.qr(basis)
    eigs = np.concatenate([[1.0 + gap], rng.uniform(0.01, 1.0, n - 1)])
    m = (q * eigs) @ q.T
    return (m + m.T) / 2.0


@pytest.mark.parametrize("n", [1, 2, 64, 300, 700])
def test_top_singular_matches_eigvalsh(n):
    m = random_spd(np.random.default_rng(n), n)
    dense = float(np.linalg.eigvalsh(m)[-1])
    assert top_singular_value(m) == pytest.approx(dense, rel=1e-12)


def test_top_singular_reads_one_triangle():
    """The Lanczos products read m's lower triangle alone: an upper
    triangle off by less than the symmetry check's tolerance gives the
    same bits, and the same change to the lower one does not."""
    m = random_spd(np.random.default_rng(12), 300)
    noise = 1e-12 * np.abs(m).max() * np.random.default_rng(13).uniform(-1.0, 1.0, m.shape)
    upper, lower = m + np.triu(noise, 1), m + np.tril(noise, -1)
    assert top_singular_value(upper).hex() == top_singular_value(m).hex()
    assert top_singular_value(lower).hex() != top_singular_value(m).hex()


# H is built without a BLAS call, whose own sums could depend on the thread count
_DAMPING_THREADS_SCRIPT = """
import numpy as np
from qronos import DampingPolicy, apply_damping
rng = np.random.default_rng(5)
a, v = rng.standard_normal((300, 300)), rng.standard_normal(300)
print(apply_damping((a + a.T) / 2.0 + 32.0 * np.eye(300) + np.outer(v, v), DampingPolicy("top_singular_fraction")).hex())
"""


def test_damping_independent_of_blas_threads():
    """apply_damping, public and callable outside the layer's pinned BLAS
    pool, gives the same lambda on 1 and 2 BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    lams = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", _DAMPING_THREADS_SCRIPT], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        lams.append(out.stdout.strip())
    assert float.fromhex(lams[0]) > 0.0
    assert lams[0] == lams[1]


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
    low = chol_of_inverse(h)
    assert np.array_equal(np.tril(low), low)
    assert np.all(np.diag(low) > 0)
    assert np.linalg.norm(low @ low.T @ h - np.eye(n)) <= 1e-10 * np.sqrt(n)
    ref = cholesky_lower(spd_inverse(h))
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
    ],
    ids=["cholesky_lower", "chol_of_inverse", "top_singular_value", "apply_damping"],
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
    grid = grid_from_minmax(np.arange(5.0), 4)
    stats = CalibStats(5, H=h, G=np.eye(5))
    return quantize_layer(LayerQuantRequest(np.ones((5, 2)), grid, method, stats=stats))


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
    for alpha in (np.nan, np.inf, -np.inf, -1.0, -1e-300):
        with pytest.raises(ValueError, match="alpha"):
            DampingPolicy("top_singular_fraction", alpha=alpha)
    assert DampingPolicy("top_singular_fraction", alpha=0.0).alpha == 0.0


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


@pytest.mark.parametrize(
    "route, m",
    [(cholesky_lower, np.ones((2, 3))), (inverse_hessian_step, np.zeros((0, 0)))],
    ids=["cholesky_lower-non-square", "inverse_hessian_step-empty"],
)
def test_malformed_matrix_is_a_shape_error(route, m):
    with pytest.raises(ShapeError):
        route(m)


@pytest.mark.parametrize("method", ["optq", "gpfq", "qronos_base", "qronos"])
@pytest.mark.parametrize(
    "diag, policy",
    [([4.0] * 5, DampingPolicy("top_singular_fraction", alpha=1e308)),
     ([1e308] * 4 + [1.0], DampingPolicy("mean_diag_percent"))],
    ids=["topsv", "meandiag"],
)
def test_ridge_that_overflows_float64_raises_in_every_method(method, diag, policy):
    stats = CalibStats(5, H=np.diag(diag), G=np.eye(5))
    req = LayerQuantRequest(np.ones((5, 2)), grid_from_minmax(np.arange(5.0), 4), method,
                            stats=stats, damping=policy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInputError, match=f"^damping {policy.mode} with alpha .* gives the ridge inf$"):
            quantize_layer(req)
