"""Dense complex linear algebra substrate.

Matrices are plain numpy arrays of dtype complex128 (the eigensolver also
takes real float64 input), coordinate vectors are 1-D arrays.  Residual
contracts (orthonormalization, the eigensolver) are decided against an
explicit :class:`Tolerance`, never exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "EigensolverError",
    "kron",
    "dagger",
    "frobenius",
    "max_abs",
    "ensure_finite",
    "orthonormalize",
    "extend_orthonormal",
    "eig_general",
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


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a).T


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def ensure_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise FloatingPointError(f"non-finite entries in {what}")
    return a


def orthonormalize(vectors, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormalize a sequence of 1-D vectors.

    Modified Gram-Schmidt with one re-orthogonalization pass.  Vectors whose
    residual norm after projection falls below ``tol.rank_tol`` are dropped;
    the output order follows the input order of the survivors.  Empty input
    yields an empty list.
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        u = np.asarray(v, dtype=complex).copy()
        for _ in range(2):
            for q in basis:
                u -= q * np.vdot(q, u)
        nrm = np.linalg.norm(u)
        if nrm >= tol.rank_tol:
            basis.append(u / nrm)
    return basis


def extend_orthonormal(
    basis: np.ndarray | None,
    candidates: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, list[int]]:
    """Extend an orthonormal column basis by Gram-Schmidt over candidate columns.

    ``basis`` is a (d, k) matrix with orthonormal columns (or None) and
    ``candidates`` a (d, p) matrix processed left to right; candidates whose
    residual norm after projection falls below ``tol.rank_tol`` are discarded.
    Equivalent to :func:`orthonormalize` (Gram-Schmidt with one
    re-orthogonalization pass) but organized by recursive halving so the
    projections run as matrix-matrix products.

    Returns the accepted new columns as a (d, q) matrix together with the
    indices of the surviving candidates.
    """
    cands = np.asarray(candidates, dtype=complex).copy()
    d, p = cands.shape
    if basis is not None and basis.shape[1] > 0:
        basis_h = dagger(basis)
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
