"""Dense symmetric linear algebra behind the rounding engine.

Everything here operates on small-to-medium SPD matrices (calibration
second moments and their inverses).  Factorizations and triangular
solves are LAPACK-backed; the routines the rounding algorithms actually
reason about (inverse slicing, damping, spectral norm estimation) are
implemented explicitly on top of them.

The rounding engine never forms H^-1: it takes the lower Cholesky factor
of the inverse from a single Cholesky factorization of the index-reversed
matrix (``chol_of_inverse``).  The explicit inverse below is the
verification suites' independent route to the same objects.  Downstream
code leans on the identity that for H^-1 = L L^T (L lower triangular),
the trailing principal block of L factors the inverse of the
corresponding trailing block of H:
(H[t:, t:])^-1 = L[t:, t:] L[t:, t:]^T.

The spectral norm used for damping is one Lanczos (ARPACK) solve from a
fixed-seed start vector, exact to working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import (
    ConvergenceError,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    ShapeError,
)

_SYM_RTOL = 1e-9
# side of the square tiles the symmetry check compares
_SYM_TILE = 128

DAMPING_MODES = ("mean_diag_percent", "top_singular_fraction", "none")


def _as_square(m, name="matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    return m


def check_finite(m: np.ndarray, name="matrix") -> float:
    """Return max |m| of a 2-D m, or raise NonFiniteInputError naming its
    first NaN or inf.

    One max and one min, which propagate NaN, and no temporary of m's size.
    """
    if not m.size:
        return 0.0
    hi, lo = float(m.max()), float(m.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        row, col = (int(i) for i in np.argwhere(~np.isfinite(m))[0])
        raise NonFiniteInputError(f"{name}: non-finite value {m[row, col]} at row {row}, col {col}")
    return max(hi, -lo)


def check_symmetric(m, name="matrix") -> float:
    """Reject a matrix holding NaN or inf, then one that is not symmetric;
    return max |m|.

    The asymmetry max |m - m^T| is taken tile by tile, each upper tile
    against the transpose of its mirror, so both reads stay in cache.
    """
    scale = check_finite(m, name)
    n = m.shape[0]
    skew = 0.0
    for i in range(0, n, _SYM_TILE):
        for j in range(i, n, _SYM_TILE):
            tile = m[i : i + _SYM_TILE, j : j + _SYM_TILE] - m[j : j + _SYM_TILE, i : i + _SYM_TILE].T
            skew = max(skew, float(np.abs(tile).max()))
    if skew > _SYM_RTOL * max(scale, 1e-300):
        raise NotSymmetricError(f"{name} is not symmetric (max asymmetry {skew:.3e} at scale {scale:.3e})")
    return scale


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L L^T equal to the source matrix."""

    L: np.ndarray

    @property
    def dim(self) -> int:
        return self.L.shape[0]


def cholesky_lower(m: np.ndarray, *, checked: bool = False) -> CholeskyFactor:
    """Cholesky factorization of a symmetric positive definite matrix.

    Raises NotPositiveDefiniteError carrying the 1-based failing pivot
    when the matrix is not positive definite.  ``checked`` skips the
    finiteness and symmetry scan, for a caller that has made it.
    """
    m = _as_square(m)
    if not checked:
        check_symmetric(m)
    if m.shape[0] == 0:
        return CholeskyFactor(np.zeros((0, 0)))
    c, info = lapack.dpotrf(m, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(int(info))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return CholeskyFactor(c)


def chol_of_inverse(m: np.ndarray, *, checked: bool = False) -> CholeskyFactor:
    """Lower Cholesky factor of the inverse of an SPD matrix.

    With J the index reversal and J m J = C C^T (C lower), m = U U^T for
    the upper triangular U = J C J, so m^-1 = L L^T with L = U^-T =
    J C^-T J lower triangular: one Cholesky and one triangular inverse,
    never m^-1 itself.  A pivot with c_ii^2 <= n eps m_ii (the default
    tolerance of LAPACK's pivoted Cholesky) also counts as a failure, so
    an exactly singular matrix raises rather than passing on rounding
    noise.  The NotPositiveDefiniteError pivot is 1-based in m's order.
    ``checked`` skips the finiteness and symmetry scan, for a caller
    that has made it.
    """
    m = _as_square(m)
    if not checked:
        check_symmetric(m)
    n = m.shape[0]
    if n == 0:
        return CholeskyFactor(np.zeros((0, 0)))
    rev = m[::-1, ::-1]
    c, info = lapack.dpotrf(rev, lower=1, clean=1, overwrite_a=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    if info == 0:
        weak = np.flatnonzero(np.diag(c) ** 2 <= n * np.finfo(np.float64).eps * np.diag(rev))
        info = int(weak[0]) + 1 if weak.size else 0
    if info > 0:
        raise NotPositiveDefiniteError(n + 1 - int(info))
    cinv, info = lapack.dtrtri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefiniteError(n + 1 - int(info))
    return CholeskyFactor(np.ascontiguousarray(cinv.T[::-1, ::-1]))


def solve_spd(m: np.ndarray, b: np.ndarray, *, checked: bool = False) -> np.ndarray:
    """Solve m x = b for symmetric positive definite m: the Cholesky
    factor L of m, then two triangular solves."""
    low = cholesky_lower(m, checked=checked).L
    y = solve_triangular(low, b, lower=True)
    return solve_triangular(low, y, lower=True, trans="T")


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Explicit inverse of an SPD matrix, symmetrized exactly.

    Computed as (L^-1)^T (L^-1) from the Cholesky factor; the final
    averaging removes the last-ulp asymmetry of the matmul so callers
    can factor the result again without a symmetry guard.
    """
    factor = cholesky_lower(m)
    if factor.dim == 0:
        return np.zeros((0, 0))
    eye = np.eye(factor.dim)
    linv = solve_triangular(factor.L, eye, lower=True)
    out = linv.T @ linv
    return (out + out.T) / 2.0


def top_singular_value(m: np.ndarray, max_iter: int | None = None, *, checked: bool = False) -> float:
    """Largest singular value of a symmetric PSD matrix by Lanczos.

    One ARPACK solve for the largest algebraic eigenvalue, started from
    a fixed-seed Gaussian vector: deterministic, and unlike a structured
    start such as all-ones it is orthogonal to the top eigenspace only
    with probability zero.
    ``max_iter`` caps the Arnoldi restarts (ARPACK's default when None);
    running out raises ConvergenceError carrying the best estimate: a
    converged Ritz value if ARPACK has one, else the largest diagonal
    entry, which bounds the top eigenvalue from below.  A 1x1 matrix,
    the one size ARPACK rejects, is read off directly.  ``checked``
    skips the finiteness and symmetry scan, for a caller that has made
    it.
    """
    m = _as_square(m)
    n = m.shape[0]
    if not checked:
        check_symmetric(m)
    # a zero matrix is the one ARPACK cannot start on; the diagonal rules
    # it out without a full scan on every other input
    if not (m.diagonal().any() or m.any()):
        return 0.0
    if n == 1:
        return float(m[0, 0])
    # imported here: loading scipy.sparse.linalg adds about 3.5 MB of
    # resident memory, which runs that never use this damping mode skip
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    try:
        vals = eigsh(m, k=1, which="LA", v0=v0, maxiter=max_iter, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        found = np.asarray(exc.eigenvalues, dtype=np.float64)
        last = float(found.max()) if found.size else float(np.diag(m).max())
        raise ConvergenceError(f"Lanczos did not converge: {exc}", last_estimate=last) from exc
    return float(vals[0])


@dataclass(frozen=True)
class DampingPolicy:
    """How the diagonal ridge added to H is chosen.

    mode "mean_diag_percent" uses 1 percent of the mean diagonal entry;
    "top_singular_fraction" uses alpha times the largest singular value;
    "none" uses no ridge.  apply_damping resolves a policy on one H to
    the number lambda.
    """

    mode: str
    alpha: float = 1e-6

    def __post_init__(self):
        if self.mode not in DAMPING_MODES:
            raise ValueError(f"unknown damping mode {self.mode!r} (expected one of {DAMPING_MODES})")


def apply_damping(h: np.ndarray, policy: DampingPolicy, *, checked: bool = False) -> float:
    """Resolve the policy on the undamped H and return the ridge lambda.

    H is only read.  The caller adds lambda to the diagonal of the
    copies it holds, and everything downstream shares that one number
    rather than re-resolving it on a modified matrix.  ``checked`` skips
    the spectral norm's finiteness and symmetry scan, for a caller that
    has made it.
    """
    h = _as_square(h, "H")
    if policy.mode == "none":
        return 0.0
    if policy.mode == "mean_diag_percent":
        return 0.01 * float(np.mean(np.diag(h))) if h.shape[0] else 0.0
    return policy.alpha * top_singular_value(h, checked=checked)


def inverse_hessian_step(hinv: np.ndarray) -> np.ndarray:
    """Trailing inverse from the current inverse, one index at a time.

    Given hinv = (H[t:, t:])^-1 this returns (H[t+1:, t+1:])^-1 without
    touching H, via the Schur-style update

        (hinv - hinv[:, 0] hinv[0, :] / hinv[0, 0])[1:, 1:]

    Iterating it walks the whole family of trailing inverses in O(n^2)
    per step.
    """
    hinv = _as_square(hinv, "inverse")
    n = hinv.shape[0]
    if n == 0:
        raise ShapeError("cannot step an empty inverse")
    lead = float(hinv[0, 0])
    if lead <= 0.0:
        raise ValueError(f"leading entry of the inverse must be positive, got {lead}")
    if n == 1:
        return np.zeros((0, 0))
    return hinv[1:, 1:] - np.outer(hinv[1:, 0], hinv[0, 1:]) / lead
