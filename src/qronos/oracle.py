"""Independent oracles the rounding code is tested against.

The engine's factor and damping live in ``qronos.linalg`` and run
SciPy's LAPACK.  Nothing here shares a factorization path with them:
least-squares solves go through numpy's SVD-based lstsq,
pseudoinverses through numpy pinv, the factor of an inverse through
numpy's inv and cholesky (NumPy bundles its own OpenBLAS), and the
discrete optima through literal enumeration of the alphabet.  Ties
within 1e-12 of the optimum are broken toward the lexicographically
smallest integer code so every oracle is deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import EnumerationCapError, ShapeError
from .grid import QuantGrid, quantize_rtn

TIE_TOL = 1e-12
DEFAULT_CELL_CAP = 2**20


def brute_force_ils(
    w: np.ndarray,
    x: np.ndarray,
    xq: np.ndarray,
    grid: QuantGrid,
) -> tuple[np.ndarray, float]:
    """Global minimizer of 0.5 * ||X w - Xq q||^2 over the alphabet.

    Enumerates all levels**n code vectors in row-major (lexicographic)
    order and returns the winning dequantized vector with its objective.
    More than DEFAULT_CELL_CAP vectors raise EnumerationCapError.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    xq = np.asarray(xq, dtype=np.float64)
    n = w.size
    if x.ndim != 2 or x.shape != xq.shape or x.shape[1] != n:
        raise ShapeError(f"activation pair {x.shape}/{xq.shape} does not match column length {n}")
    total = grid.levels**n
    if total > DEFAULT_CELL_CAP:
        raise EnumerationCapError(
            f"enumeration needs {total} cells, cap is {DEFAULT_CELL_CAP}"
        )
    alphabet = grid.alphabet
    target = x @ w
    # mixed-radix expansion of 0..total-1 enumerates codes lexicographically
    idx = np.arange(total)
    codes = np.empty((total, n), dtype=np.int64)
    for j in range(n):
        codes[:, j] = (idx // grid.levels ** (n - 1 - j)) % grid.levels
    objs = np.empty(total)
    chunk = 8192
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        cand = alphabet[codes[lo:hi]]
        resid = target[None, :] - cand @ xq.T
        objs[lo:hi] = 0.5 * np.einsum("ij,ij->i", resid, resid)
    best = float(objs.min())
    winner = int(np.flatnonzero(objs <= best + TIE_TOL * max(1.0, best))[0])
    return alphabet[codes[winner]], float(objs[winner])


def stepwise_argmin_oracle(
    residual: np.ndarray, column: np.ndarray, grid: QuantGrid
) -> tuple[float, float]:
    """Exact one-coordinate argmin of 0.5 * ||residual - p * column||^2.

    ``residual`` must already exclude the coordinate under test.  Returns
    (value, objective); ties within 1e-12 go to the smallest code, and
    any value whose objective matches the returned one within that
    tolerance counts as an equally valid answer.
    """
    residual = np.asarray(residual, dtype=np.float64)
    column = np.asarray(column, dtype=np.float64)
    if residual.shape != column.shape:
        raise ShapeError(f"residual {residual.shape} and column {column.shape} differ")
    vals = grid.alphabet
    diff = residual[:, None] - np.outer(column, vals)
    objs = 0.5 * np.einsum("ij,ij->j", diff, diff)
    best = float(objs.min())
    winner = int(np.flatnonzero(objs <= best + TIE_TOL * max(1.0, best))[0])
    return float(vals[winner]), float(objs[winner])


def step_objective(residual: np.ndarray, column: np.ndarray, p: float) -> float:
    """Objective of one candidate in the stepwise problem."""
    d = residual - p * column
    return 0.5 * float(d @ d)


def direct_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solve on a factorization path foreign to the engine.

    SVD-based lstsq; rank deficiency is an error.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"system {a.shape} does not match rhs length {b.shape[0]}")
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < a.shape[1]:
        raise np.linalg.LinAlgError(
            f"rank-deficient system (rank {rank} of {a.shape[1]})"
        )
    return sol


def chol_of_inverse(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L (L L^T = m^-1) of an SPD m, by numpy's inverse."""
    return np.linalg.cholesky(np.linalg.inv(m))


def first_step_pinv(
    w: np.ndarray, x: np.ndarray, xq: np.ndarray, grid: QuantGrid
) -> tuple[float, np.ndarray]:
    """Pseudoinverse form of the interpolation step (no damping).

    q1 rounds the projection of X w - Xq[:, 1:] w[1:] onto the first
    quantized-path column; the surviving weights re-fit the remainder
    through numpy's pinv.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    xq = np.asarray(xq, dtype=np.float64)
    first = xq[:, 0]
    resid = x @ w - xq[:, 1:] @ w[1:]
    q1 = quantize_rtn(float(first @ resid) / float(first @ first), grid)
    tail = np.linalg.pinv(xq[:, 1:]) @ (x @ w - q1 * first)
    return q1, tail
