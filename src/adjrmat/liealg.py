"""Orthonormal Hermitian basis of su(n), structure constants, matrix units.

The basis follows the generalized Gell-Mann construction normalized so that
tr(I^a I^b) = delta_ab, i.e. the standard Gell-Mann matrices divided by
sqrt(2).  Generator order: symmetric off-diagonal pairs (i<j, lexicographic),
then antisymmetric off-diagonal pairs in the same order, then the n-1
diagonal Cartan generators with increasing support.

:func:`weight_basis` rotates these coordinates to the weight basis of the
adjoint module (matrix units e_ij, i != j, then the Cartan generators),
in which the Cartan subalgebra acts diagonally.

Conventions: [I^a, I^b] = sum_c f^{abc} I^c with f purely imaginary and
totally antisymmetric; {I^a, I^b} = sum_c d^{abc} I^c + (2/n) delta_ab 1
with d real and totally symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance, ensure_finite, max_abs

__all__ = [
    "SunBasis",
    "MatrixUnit",
    "build_basis",
    "structure_constants",
    "matrix_unit",
    "weight_basis",
    "weight_blocks",
    "pair_weights",
    "off_block_mask",
]


@dataclass(frozen=True)
class SunBasis:
    """Orthonormal Hermitian basis {I^a} of su(n) with its f and d tensors."""

    n: int
    generators: np.ndarray  # (n^2-1, n, n)
    f: np.ndarray  # (m, m, m), purely imaginary, totally antisymmetric
    d: np.ndarray  # (m, m, m), real, totally symmetric

    @property
    def dim(self) -> int:
        """Dimension n^2 - 1 of the algebra (= of the adjoint module)."""
        return self.n * self.n - 1


@dataclass(frozen=True)
class MatrixUnit:
    """Matrix unit e_ij (1-based indices) and its coordinates in the basis."""

    i: int
    j: int
    matrix: np.ndarray
    coords: np.ndarray | None  # w^a with e_ij = sum_a w^a I^a, None for i == j


def _generator_stack(n: int) -> np.ndarray:
    m = n * n - 1
    gens = np.zeros((m, n, n), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            gens[k, i, j] = s
            gens[k, j, i] = s
            k += 1
    for i in range(n):
        for j in range(i + 1, n):
            gens[k, i, j] = -1j * s
            gens[k, j, i] = 1j * s
            k += 1
    for dlev in range(1, n):
        norm = 1.0 / np.sqrt(dlev * (dlev + 1))
        gens[k, :dlev, :dlev] = norm * np.eye(dlev)
        gens[k, dlev, dlev] = -dlev * norm
        k += 1
    return gens


def structure_constants(basis: SunBasis | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Structure constants by trace projection.

    f^{abc} = tr(I^c [I^a, I^b]) and d^{abc} = tr(I^c {I^a, I^b}).
    """
    gens = basis.generators if isinstance(basis, SunBasis) else basis
    prod = np.einsum("aij,bjk->abik", gens, gens, optimize=True)
    t3 = np.einsum("abik,cki->abc", prod, gens, optimize=True)
    f = t3 - t3.transpose(1, 0, 2)
    d = t3 + t3.transpose(1, 0, 2)
    return f, d


def _validate_basis(n: int, gens: np.ndarray, f: np.ndarray, d: np.ndarray, tol: Tolerance):
    m = n * n - 1
    gram = np.einsum("aij,bji->ab", gens, gens, optimize=True)
    if max_abs(gram - np.eye(m)) > tol.abs_tol:
        raise AssertionError("generator Gram matrix deviates from identity")
    if max_abs(gens - np.conj(gens).transpose(0, 2, 1)) > tol.abs_tol:
        raise AssertionError("generators are not Hermitian")
    if max_abs(np.einsum("aii->a", gens)) > tol.abs_tol:
        raise AssertionError("generators are not traceless")
    if max_abs(f.real) > tol.abs_tol or max_abs(d.imag) > tol.abs_tol:
        raise AssertionError("f must be purely imaginary and d purely real")
    # total (anti)symmetry: pair swap is exact by construction, cyclic from traces
    if max_abs(f - f.transpose(1, 2, 0)) > tol.abs_tol:
        raise AssertionError("f is not totally antisymmetric")
    if max_abs(d - d.transpose(1, 2, 0)) > tol.abs_tol:
        raise AssertionError("d is not totally symmetric")
    # reconstruction identities
    prod = np.einsum("aij,bjk->abik", gens, gens, optimize=True)
    swapped = prod.transpose(1, 0, 2, 3)
    recon_f = np.einsum("abc,cij->abij", f, gens, optimize=True)
    if max_abs(recon_f - (prod - swapped)) > tol.abs_tol * m:
        raise AssertionError("commutator reconstruction from f failed")
    recon_d = np.einsum("abc,cij->abij", d, gens, optimize=True)
    recon_d += (2.0 / n) * np.einsum("ab,ij->abij", np.eye(m), np.eye(n))
    if max_abs(recon_d - (prod + swapped)) > tol.abs_tol * m:
        raise AssertionError("anticommutator reconstruction from d failed")


def build_basis(n: int, tol: Tolerance = DEFAULT_TOL) -> SunBasis:
    """Construct the orthonormal su(n) basis together with f and d.

    The construction is self-validating: orthonormality, Hermiticity,
    (anti)symmetry of f/d and both reconstruction identities are checked
    against ``tol`` before the basis is returned.
    """
    if n < 3:
        raise ValueError(f"rank parameter must satisfy n >= 3, got {n}")
    gens = _generator_stack(n)
    f, d = structure_constants(gens)
    ensure_finite(gens, "generators")
    _validate_basis(n, gens, f, d, tol)
    return SunBasis(n=n, generators=gens, f=f, d=d)


def matrix_unit(basis: SunBasis, i: int, j: int, coords: bool = True) -> MatrixUnit:
    """Matrix unit e_ij with 1 at entry (i, j), plus its basis coordinates.

    Coordinates w^a = tr(I^a e_ij) are only defined for i != j (e_ii is not
    traceless); requesting them with i == j is an error.
    """
    n = basis.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices must lie in 1..{n}, got ({i}, {j})")
    mat = np.zeros((n, n), dtype=complex)
    mat[i - 1, j - 1] = 1.0
    w = None
    if coords:
        if i == j:
            raise ValueError("coordinates are undefined for e_ii (not traceless)")
        # tr(I^a e_ij) picks out the (j, i) entry of I^a
        w = basis.generators[:, j - 1, i - 1].copy()
        recon = np.einsum("a,aij->ij", w, basis.generators)
        if max_abs(recon - mat) > DEFAULT_TOL.abs_tol:
            raise AssertionError(f"round-trip reconstruction of e_{i}{j} failed")
    return MatrixUnit(i=i, j=j, matrix=mat, coords=w)


def weight_basis(basis: SunBasis) -> tuple[np.ndarray, np.ndarray]:
    """Unitary change of coordinates to the weight basis of the adjoint module.

    The weight basis {B_b} is orthonormal for tr(X^dagger Y): the matrix units
    e_ij (i != j, same pair order as the generators, e_ij before e_ji) with
    weight e_i - e_j, then the n-1 Cartan generators with weight 0.  Returns
    ``(U, weights)`` with U[b, a] = tr(B_b^dagger I^a), so U x are the weight
    coordinates of sum_a x^a I^a, and ``weights`` the (m, n) integer array of
    the weights in the e_1..e_n frame: ad(H) acts on B_b as diag(H) . weights[b].
    """
    n = basis.n
    m = basis.dim
    gens = basis.generators
    units = np.zeros((m, n, n), dtype=complex)
    weights = np.zeros((m, n), dtype=int)
    b = 0
    for i in range(n):
        for j in range(i + 1, n):
            for p, q in ((i, j), (j, i)):
                units[b, p, q] = 1.0
                weights[b, p] += 1
                weights[b, q] -= 1
                b += 1
    units[b:] = gens[m - (n - 1):]
    # tr(B_b^dagger I^a) = sum_ij conj(B_b)_ij (I^a)_ij
    U = np.einsum("bij,aij->ba", np.conj(units), gens)
    return U, weights


def weight_blocks(weights: np.ndarray) -> list[np.ndarray]:
    """Indices of the rows of an integer (N, n) weight array, grouped by equal weight.

    The blocks follow the sorted order of the distinct weights, and each
    lists its indices in increasing order.
    """
    _, label, sizes = np.unique(weights, axis=0, return_inverse=True, return_counts=True)
    return np.split(np.argsort(label.ravel(), kind="stable"), np.cumsum(sizes)[:-1])


def pair_weights(weights: np.ndarray) -> np.ndarray:
    """Total weights of the two-site pairs of an (m, n) weight array.

    Row a*m + b of the (m^2, n) result is weights[a] + weights[b].
    """
    m = len(weights)
    return (weights[:, None, :] + weights[None, :, :]).reshape(m * m, -1)


def off_block_mask(weights: np.ndarray) -> np.ndarray:
    """Boolean (N, N) mask of the entries that join rows of different weight of an (N, n) array."""
    return np.any(weights[:, None, :] != weights[None, :, :], axis=2)
