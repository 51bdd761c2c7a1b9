"""Dense symmetric linear algebra behind the rounding engine.

Everything here operates on small-to-medium SPD matrices (calibration
second moments and their inverses).  Factorizations and triangular
solves are LAPACK-backed; the routines the rounding algorithms actually
reason about (inverse slicing, damping, spectral norm estimation) are
implemented explicitly on top of them.

The layer driver never forms H^-1, nor a factor of it: one in-place
Cholesky of the index-reversed matrix, J H J = C C^T
(``reversed_cholesky``), gives H = U U^T with U = J C J upper
triangular, whose trailing blocks factor H's: H[t:, t:] = U[t:, t:]
U[t:, t:]^T.  ``chol_of_inverse`` turns it into the factor L = U^-T of
H^-1, and the explicit inverse below is the verification suites'
independent route to the same objects.

Every public routine that reads H scans it for NaN, inf and asymmetry
once, and no parameter turns the scan off; ``apply_damping`` is the
layer's one scan.  ``reversed_cholesky``, which factors the layer's own
gathered copy, and the private routines scan nothing.

The spectral norm used for damping is one Lanczos (ARPACK) solve from a
fixed-seed start vector, stopped at a relative Ritz residual of 1e-8
(the eigenvalue's error is of the order of its square).  Its products
read one triangle of H, as the Cholesky does, on one BLAS thread: a
threaded ``dsymv`` sums in an order set by the thread count.

NumPy and SciPy each bundle an OpenBLAS with its own thread pool, and
``one_blas_thread`` pins either to one thread for a block:
``one_lapack_thread`` pins SciPy's around the layer, and
``calib.accumulate`` NumPy's around the moments.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import blas, lapack

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
# relative accuracy asked of the Lanczos solve for the spectral norm
_LANCZOS_TOL = 1e-8

DAMPING_MODES = ("mean_diag_percent", "top_singular_fraction", "none")


@functools.cache
def _openblas_pool(package: str):
    """(get, set) for the thread count of the OpenBLAS ``package`` (numpy or
    scipy) bundles, or None where it uses a BLAS without them.  Opening the
    library the package has loaded returns that same library; ILP64 builds
    suffix 64_."""
    root = Path(importlib.import_module(package).__file__).parent.parent
    for path in sorted((root / f"{package}.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("", "64_"):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread(package: str):
    """The block run with ``package``'s OpenBLAS pool at one thread, the
    caller's count restored when it exits or raises.  The count is per
    process, so blocks run concurrently in threads may restore it out of
    order."""
    pool = _openblas_pool(package)
    prev = pool[0]() if pool else 1
    if prev == 1:
        yield
        return
    pool[1](1)
    try:
        yield
    finally:
        pool[1](prev)


def one_lapack_thread(fn):
    """``fn`` run with SciPy's OpenBLAS pool at one thread
    (``one_blas_thread("scipy")``).

    SciPy loads its own OpenBLAS, apart from NumPy's, and its pool stalls
    for milliseconds on calls that follow each other closely: the layer's
    factor, triangular solves and per-step ``dposv``.  On a 2-vCPU Xeon
    one thread cut a K=512 qronos_base layer from 5.05 to 0.75 s, and no
    layer from K=32 to 2048 gained from a second one.  NumPy's pool runs
    the layer's matrix products at the caller's count; ``calib.accumulate``
    pins it to one thread for the moments, which must not depend on the
    count.  Where SciPy uses a BLAS without the pool symbols, nothing is
    pinned.
    """

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        with one_blas_thread("scipy"):
            return fn(*args, **kwargs)

    return pinned


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


def cholesky_lower(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L (L L^T = m) of an SPD matrix, as an array.

    Raises NotPositiveDefiniteError carrying the 1-based failing pivot
    when the matrix is not positive definite.
    """
    m = _as_square(m)
    check_symmetric(m)
    if m.shape[0] == 0:
        return np.zeros((0, 0))
    c, info = lapack.dpotrf(m, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(int(info))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def reversed_cholesky(rev: np.ndarray, *, clean: bool = False) -> np.ndarray:
    """Factor the index reversal ``rev`` = J m J of an SPD m in place.

    Returns the lower C with rev = C C^T, so m = U U^T for the upper
    triangular U = J C J, as a Fortran-ordered view of rev's memory:
    LAPACK factors rev^T, the same matrix, with no copy when ``rev`` is
    C-contiguous.  Only C's triangle is written unless ``clean`` zeroes
    the other, as a caller reading C as a full matrix needs.  A pivot
    with c_ii^2 <= n eps rev_ii (the default tolerance of LAPACK's
    pivoted Cholesky) also fails, so an exactly singular matrix raises
    rather than passing on rounding noise.  The NotPositiveDefiniteError
    pivot is 1-based in m's order.  rev is not scanned for NaN or
    asymmetry.
    """
    n = rev.shape[0]
    diag = rev.diagonal().copy()
    c, info = lapack.dpotrf(rev.T, lower=1, clean=int(clean), overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    if info == 0:
        weak = np.flatnonzero(c.diagonal() ** 2 <= n * np.finfo(np.float64).eps * diag)
        info = int(weak[0]) + 1 if weak.size else 0
    if info > 0:
        raise NotPositiveDefiniteError(n + 1 - int(info))
    return c


def chol_of_inverse(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L (L L^T = m^-1) of an SPD m's inverse, as an array.

    With m = U U^T from ``reversed_cholesky``, m^-1 = L L^T for L = U^-T =
    J C^-T J: one Cholesky and one triangular inverse, never m^-1 itself.
    m is scanned for NaN, inf and asymmetry first; failures raise as in
    ``reversed_cholesky``.
    """
    m = _as_square(m)
    check_symmetric(m)
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    c = reversed_cholesky(m[::-1, ::-1].copy(), clean=True)
    cinv, info = lapack.dtrtri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefiniteError(n + 1 - int(info))
    return np.ascontiguousarray(cinv.T[::-1, ::-1])


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Explicit inverse of an SPD matrix, symmetrized exactly.

    Computed as (L^-1)^T (L^-1) from the Cholesky factor, L^-1 by one
    ``dtrtrs`` (the call ``scipy.linalg.solve_triangular`` makes); the
    final averaging removes the last-ulp asymmetry of the matmul so
    callers can factor the result again without a symmetry guard.
    """
    low = cholesky_lower(m)
    if not low.size:
        return low
    linv, info = lapack.dtrtrs(low, np.eye(low.shape[0]), lower=1)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: dtrtrs info {info}")
    out = linv.T @ linv
    return (out + out.T) / 2.0


def top_singular_value(m: np.ndarray) -> float:
    """Largest singular value of a symmetric PSD matrix by Lanczos.

    One ARPACK solve for the largest algebraic eigenvalue, started from
    a fixed-seed Gaussian vector: deterministic, and unlike a structured
    start such as all-ones it is orthogonal to the top eigenspace only
    with probability zero.
    Running out of ARPACK's default restarts raises ConvergenceError
    carrying the best estimate: a converged Ritz value if ARPACK has
    one, else the largest diagonal entry, which bounds the top
    eigenvalue from below.  A 1x1 matrix, the one size ARPACK rejects,
    is read off directly.
    """
    m = _as_square(m)
    check_symmetric(m)
    return _top_eigenvalue(m)


@one_lapack_thread
def _top_eigenvalue(m: np.ndarray) -> float:
    """``top_singular_value`` on a square m scanned for NaN, inf and asymmetry."""
    n = m.shape[0]
    # a zero matrix is the one ARPACK cannot start on; the diagonal rules
    # it out without a full scan on every other input
    if not (m.diagonal().any() or m.any()):
        return 0.0
    if n == 1:
        return float(m[0, 0])
    # imported here: loading scipy.sparse.linalg adds about 3.5 MB of
    # resident memory, which runs that never use this damping mode skip
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    ft = np.asfortranarray(m.T)  # a view of a C-ordered m: dsymv reads its upper triangle, m's lower, alone
    op = LinearOperator((n, n), matvec=lambda v: blas.dsymv(1.0, ft, v), dtype=np.float64)
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    try:
        vals = eigsh(op, k=1, which="LA", v0=v0, tol=_LANCZOS_TOL, return_eigenvectors=False)
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
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")


def apply_damping(h: np.ndarray, policy: DampingPolicy) -> float:
    """Scan the undamped H for NaN, inf and asymmetry, in every mode, then
    resolve the policy on it and return the ridge lambda.

    H is only read.  The caller adds lambda to the diagonal of the
    copies it holds, and everything downstream shares that one number
    rather than re-resolving it on a modified matrix.  A finite H can
    still give a ridge past float64's range, which raises
    NonFiniteInputError.
    """
    h = _as_square(h, "H")
    check_symmetric(h, "H")
    if policy.mode == "none":
        return 0.0
    if policy.mode == "mean_diag_percent":
        with np.errstate(over="ignore"):  # an overflowing mean is rejected below
            lam = 0.01 * float(np.mean(np.diag(h))) if h.shape[0] else 0.0
    else:
        lam = policy.alpha * _top_eigenvalue(h)
    if not math.isfinite(lam):
        raise NonFiniteInputError(f"damping {policy.mode} with alpha {policy.alpha:g} gives the ridge {lam}")
    return lam


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
