"""Dense complex linear algebra substrate.

Matrices are plain numpy arrays of dtype complex128 (the eigensolver also
takes real float64 input), coordinate vectors are 1-D arrays.  Residual
contracts (orthonormalization, the eigensolver) are decided against an
explicit :class:`Tolerance`, never exactly.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "EigensolverError",
    "kron",
    "frobenius",
    "max_abs",
    "matching_pairs",
    "ensure_finite",
    "extend_orthonormal",
    "eig_general",
    "blas_threads_at_most",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the toolkit.

    ``abs_tol`` bounds residuals of operator identities; ``rank_tol`` decides
    when a vector counts as linearly dependent during basis generation.
    """

    abs_tol: float = 1e-9
    rank_tol: float = 1e-8

    def __post_init__(self):
        if not all(0.0 < t < np.inf for t in (self.abs_tol, self.rank_tol)):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = Tolerance()


class EigensolverError(RuntimeError):
    """Dense eigensolver failed to converge or missed its residual contract."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; (kron(a,b))[i*rb+k, j*cb+l] = a[i,j]*b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def matching_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (p, q) with left[p] == right[q], in order of p and, for each p, of q."""
    order = np.argsort(right, kind="stable")
    lo, hi = np.searchsorted(right[order], left), np.searchsorted(right[order], left, side="right")
    count = hi - lo
    p = np.repeat(np.arange(len(left)), count)
    return p, order[np.repeat(lo, count) + np.arange(len(p)) - np.repeat(np.cumsum(count) - count, count)]


def ensure_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise FloatingPointError(f"non-finite entries in {what}")
    return a


def extend_orthonormal(
    basis: np.ndarray | None,
    candidates: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, list[int]]:
    """Extend an orthonormal column basis by Gram-Schmidt over candidate columns.

    ``basis`` is a (d, k) matrix with orthonormal columns (or None) and
    ``candidates`` a (d, p) matrix processed left to right; candidates whose
    residual norm after projection falls below ``tol.rank_tol`` are discarded.
    It is modified Gram-Schmidt with one re-orthogonalization pass,
    organized by recursive halving so the projections run as matrix-matrix
    products.

    Returns the accepted new columns as a (d, q) matrix together with the
    indices of the surviving candidates.
    """
    cands = np.asarray(candidates, dtype=complex).copy()
    d, p = cands.shape
    if basis is not None and basis.shape[1] > 0:
        basis_h = np.conj(basis).T
        for _ in range(2):
            cands -= basis @ (basis_h @ cands)
    out_cols: list[np.ndarray] = []
    accepted: list[int] = []

    def recurse(block: np.ndarray, offset: int):
        # block columns are already orthogonal to everything accepted so far
        c = block.shape[1]
        if c == 0:
            return
        if c == 1:
            nrm = np.linalg.norm(block[:, 0])
            if nrm >= tol.rank_tol:
                out_cols.append(block[:, 0] / nrm)
                accepted.append(offset)
            return
        half = c // 2
        mark = len(out_cols)
        recurse(block[:, :half], offset)
        fresh = out_cols[mark:]
        right = block[:, half:]
        if fresh:
            q = np.column_stack(fresh)
            q_h = np.conj(q).T
            for _ in range(2):
                right -= q @ (q_h @ right)
        recurse(right, offset + half)

    recurse(cands, 0)
    if not out_cols:
        return np.empty((d, 0), dtype=complex), []
    return np.column_stack(out_cols), accepted


def eig_general(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of a general (non-Hermitian) dense square matrix.

    Backed by LAPACK's Hessenberg-reduction + shifted-QR driver.  Every
    returned pair (lam, v) is verified to satisfy
    ||m v - lam v|| <= abs_tol * max(||m||_F, 1); the eigenvalue count (with
    multiplicity) equals the dimension.  A real matrix is solved in real
    arithmetic, so its complex eigenvalues come in exactly conjugate pairs.
    """
    m = np.asarray(m)
    m = m.astype(np.result_type(m.dtype, np.float64), copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver did not converge for a {m.shape[0]}x{m.shape[0]} matrix"
        ) from exc
    res = max_abs(np.linalg.norm(m @ v - v * w[None, :], axis=0))
    if res > tol.abs_tol * max(frobenius(m), 1.0):
        raise EigensolverError(
            f"eigen residual {res:.3e} exceeds contract for a {m.shape[0]}x{m.shape[0]} matrix"
        )
    return [(complex(w[i]), v[:, i]) for i in range(m.shape[0])]


# the thread-count entry points of an OpenBLAS build: prefix, then suffix
_OPENBLAS_NAMES = ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}64_", "openblas{}")


@functools.cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of each OpenBLAS loaded when first asked.

    Found through the shared objects mapped into this process, so only on
    Linux; elsewhere, or for another BLAS, the tuple is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_NAMES:
            get = getattr(lib, name.format("_get_num_threads"), None)
            put = getattr(lib, name.format("_set_num_threads"), None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                controls.append((get, put))
                break
    return tuple(controls)


@contextmanager
def blas_threads_at_most(limit: int):
    """Run the block with at most ``limit`` OpenBLAS threads, then restore the count.

    On operands of a few hundred rows a threaded BLAS call spends more on
    handing work to its threads than it saves, and when another process
    holds a core the call waits for a descheduled thread.  Without OpenBLAS
    this does nothing.
    """
    saved = [(put, get()) for get, put in _openblas_thread_controls()]
    for put, count in saved:
        if count > limit:
            put(limit)
    try:
        yield
    finally:
        for put, count in saved:
            if count > limit:
                put(count)
