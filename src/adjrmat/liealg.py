"""Orthonormal Hermitian basis of su(n), structure constants, matrix units.

The basis follows the generalized Gell-Mann construction normalized so that
tr(I^a I^b) = delta_ab, i.e. the standard Gell-Mann matrices divided by
sqrt(2).  Generator order: symmetric off-diagonal pairs (i<j, lexicographic),
then antisymmetric off-diagonal pairs in the same order, then the n-1
diagonal Cartan generators with increasing support.

:func:`weight_basis` rotates these coordinates to the weight basis of the
adjoint module (matrix units e_ij, i != j, then the Cartan generators),
in which the Cartan subalgebra acts diagonally.  :func:`weight_chain` is the
one weight frame of the package: the product weight basis of any number of
adjoint sites, split into total-weight sectors, with the sector blocks of
sum_s x_s for a single-site x that shifts weight by a root
(:meth:`WeightChain.shift_blocks`).  The orbits of the decomposition, the
highest-weight vectors of the Yang-Baxter residual and both spectra work on
it one sector at a time; :func:`weyl_dimension` gives the dimension of a
module from its highest weight.

Conventions: [I^a, I^b] = sum_c f^{abc} I^c with f purely imaginary and
totally antisymmetric; {I^a, I^b} = sum_c d^{abc} I^c + (2/n) delta_ab 1
with d real and totally symmetric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance, ensure_finite, max_abs

__all__ = [
    "SunBasis",
    "MatrixUnit",
    "build_basis",
    "structure_constants",
    "matrix_unit",
    "weight_basis",
    "WeightChain",
    "weight_chain",
    "weyl_dimension",
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


@dataclass(frozen=True)
class WeightChain:
    """The product weight basis of ``sites`` adjoint sites, split by total weight.

    ``u`` and ``weights`` are those of :func:`weight_basis`; the product
    state a_1..a_L (site 1 slowest) has total weight weights[a_1] + ... +
    weights[a_L].  An su(n)-invariant operator conserves that weight, so it
    is block-diagonal here: ``blocks`` lists the states of each sector, in
    increasing order and in the sorted order of the distinct total weights
    ``sector_weights``, and ``label`` gives the sector of each state (37
    sectors at n = 3, L = 3, the largest of 56; 61 at L = 4, the largest of
    346).  Every weight-sector computation of the package reads this frame:
    the lowering orbits and the two-site spectrum (2 sites), the
    highest-weight vectors of the Yang-Baxter residual (3 sites) and the
    chain checks (L sites).  Besides ``u`` it holds tables of the m^L
    states, never an m^L x m^L array, and it applies no dense cap.
    """

    basis: SunBasis
    sites: int
    u: np.ndarray
    weights: np.ndarray
    blocks: list[np.ndarray]
    sector_weights: np.ndarray
    label: np.ndarray

    @cached_property
    def _site_tables(self) -> tuple[list[list[np.ndarray]], np.ndarray, np.ndarray]:
        """The states with site s in state a, the stride of each site, and each state's place in its sector."""
        m, sites = self.basis.dim, self.sites
        digits = np.indices((m,) * sites).reshape(sites, -1)
        on_site = [[np.flatnonzero(digits[s] == a) for a in range(m)] for s in range(sites)]
        pos = np.empty(len(self.label), dtype=int)
        for idx in self.blocks:
            pos[idx] = np.arange(len(idx))
        return on_site, m ** np.arange(sites - 1, -1, -1), pos

    @cached_property
    def weyl_orbits(self) -> np.ndarray:
        """The dominant sectors, whose weights are sorted in descending order: one per orbit of the Weyl group S_n.

        Every highest weight is dominant (8 of the 37 sectors at n = 3,
        L = 3; 12 of 147 at n = 4).
        """
        return np.flatnonzero((-np.sort(-self.sector_weights, axis=1) == self.sector_weights).all(axis=1))

    def on_shift(self, alpha: np.ndarray) -> np.ndarray:
        """The (m, m) mask of the single-site entries (c, a) with weights[c] - weights[a] = ``alpha``."""
        return np.all(self.weights[:, None] - self.weights[None, :] == alpha, axis=2)

    def shift_blocks(self, x: np.ndarray, alpha: np.ndarray, tol: Tolerance = DEFAULT_TOL,
                     sites: tuple[int, ...] | None = None, sources: np.ndarray | None = None):
        """The sector blocks of sum_s x_s, for a single-site x that shifts weight by ``alpha``.

        ``x`` is an m x m operator in weight coordinates, x_s acts as x on
        site s, and s runs over ``sites`` (every site by default).  Sector W
        goes to sector W + alpha, so sum_s x_s is a list of (source sector,
        target sector, block) triples, in source sector order, for the source
        sectors ``sources`` (every sector by default), with the dtype of x;
        sectors whose image is empty are left out.  An entry of x above
        ``tol.abs_tol`` that does not shift weight by alpha means the frame is
        wrong, and raises ``AssertionError``.
        """
        on_shift = self.on_shift(alpha)
        stray = max_abs(x[~on_shift])
        if stray > tol.abs_tol:
            raise AssertionError(f"single-site operator leaves its weight shift ({stray:.3e})")
        on_site, strides, pos = self._site_tables
        if sources is not None:
            keep = np.isin(self.label, sources)
            on_site = [[states[keep[states]] for states in site] for site in on_site]
        src, dst, vals = [], [], []
        for s in range(self.sites) if sites is None else sites:
            for c, a in np.argwhere(on_shift):  # site s goes from a to c
                src.append(on_site[s][a])
                dst.append(on_site[s][a] + (c - a) * strides[s])
                vals.append(np.full(len(on_site[s][a]), x[c, a]))
        src, dst, vals = (np.concatenate(v) for v in (src, dst, vals))
        order = np.argsort(self.label[src], kind="stable")  # grouped by source sector
        src, dst, vals = src[order], dst[order], vals[order]
        starts = np.flatnonzero(np.diff(self.label[src], prepend=-1))
        ks, ts = self.label[src[starts]], self.label[dst[starts]]
        sizes = np.bincount(self.label)
        rows, cols = sizes[ts], sizes[ks]
        begin = np.cumsum(rows * cols) - rows * cols
        group = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(src))))
        flat = np.zeros(begin[-1] + rows[-1] * cols[-1], dtype=x.dtype)  # every block is a view of it
        flat[begin[group] + pos[dst] * cols[group] + pos[src]] = vals
        return [(k, t, flat[b : b + r * c].reshape(r, c))
                for k, t, b, r, c in zip(*(v.tolist() for v in (ks, ts, begin, rows, cols)))]

    def split(self, op_w: np.ndarray) -> tuple[list[np.ndarray], float]:
        """The diagonal sector blocks of ``op_w`` and the Frobenius norm of everything outside them.

        ``op_w`` is an operator on the states of the frame.  It is read one
        row block at a time: nothing of its size is allocated.
        """
        diag, off2 = [], 0.0
        for idx in self.blocks:
            rows = op_w[idx]
            diag.append(rows[:, idx])
            rows[:, idx] = 0.0
            off2 += np.linalg.norm(rows) ** 2
        return diag, float(np.sqrt(off2))


def weyl_dimension(weight) -> int:
    """dim V of the su(n) module of highest weight ``weight`` (in e_1..e_n): prod_{i<j} (w_i - w_j + j - i) / (j - i), exactly."""
    w, pairs = [int(x) for x in weight], list(itertools.combinations(range(len(weight)), 2))
    return math.prod(w[i] - w[j] + j - i for i, j in pairs) // math.prod(j - i for i, j in pairs)


def weight_chain(basis: SunBasis, sites: int) -> WeightChain:
    """The :class:`WeightChain` of ``sites`` sites over the weight basis of ``basis``."""
    u, weights = weight_basis(basis)
    total = weights  # total[a_1..a_k] = weights[a_1] + ... + weights[a_k], site 1 slowest
    for _ in range(sites - 1):
        total = (total[:, None, :] + weights[None, :, :]).reshape(-1, weights.shape[1])
    sector_weights, label, sizes = np.unique(total, axis=0, return_inverse=True,
                                             return_counts=True)
    label = label.ravel()
    blocks = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    return WeightChain(basis=basis, sites=sites, u=u, weights=weights, blocks=blocks,
                       sector_weights=sector_weights, label=label)
