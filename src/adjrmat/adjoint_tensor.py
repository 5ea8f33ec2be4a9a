"""Adjoint representation of su(n) and the decomposition of its tensor square.

Vectors of the two-site module live in coordinates: an element
sum_{a,b} v^{ab} I^a (x) I^b of su(n) (x) su(n) is stored as the flat complex
array v of length (n^2-1)^2 with row-major index a*(n^2-1)+b, matching the
Kronecker-product convention of :mod:`adjrmat.numerics`.  Lowering orbits
are closed internally in two-site weight coordinates (see :func:`_orbit`),
but every basis this module returns is in these Gell-Mann coordinates.

Two distinct objects both called "Casimir" are kept strictly separate:

* the *element* Omega = sum_a I^a (x) I^a, an n^2 x n^2 matrix used inside
  the highest-weight-vector formulas (products taken in the fundamental
  tensor-square space);
* the *operator* Omega_op = sum_a S^a (x) S^a acting on the adjoint two-site
  coordinates, whose eigenvalues label the irreducible submodules.  It is
  built in one place, :class:`PairFrame` (``rep.frame``), from the nonzeros
  of f.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liealg import SunBasis, matrix_unit, pair_weights, weight_basis, weight_blocks
from .numerics import DEFAULT_TOL, Tolerance, kron, max_abs

__all__ = [
    "AdjointRep",
    "HighestWeight",
    "Submodule",
    "Decomposition",
    "PairFrame",
    "ROLE_ORDER",
    "adjoint_rep",
    "ad_matrix",
    "tensor_coords",
    "tensor_from_coords",
    "casimir_element",
    "casimir_op",
    "permutation_op",
    "apply_swap",
    "apply_pair",
    "lowering_ops",
    "raising_ops",
    "highest_weight_vectors",
    "generate_submodule",
    "build_decomposition",
]

# canonical submodule order (table order); "mixed_sym" is absent for n = 3
ROLE_ORDER = (
    "sym_top",
    "anti_left",
    "anti_right",
    "mixed_sym",
    "adjoint_sym",
    "adjoint_anti",
    "singlet",
)


@dataclass(frozen=True)
class AdjointRep:
    """Adjoint representation: S^a = ad(I^a), Hermitian (n^2-1)-dim matrices."""

    basis: SunBasis
    S: np.ndarray  # (m, m, m) stack, S[a] = matrix of ad(I^a)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def frame(self) -> "PairFrame":
        """The :class:`PairFrame` of the basis (the only source of Omega_op), built on first use."""
        return PairFrame(self.basis)


@dataclass(frozen=True)
class HighestWeight:
    """One row of the highest-weight-vector table for the tensor square."""

    role: str
    label: str
    parity: int
    coords: np.ndarray


@dataclass
class Submodule:
    """Irreducible factor of adjoint (x) adjoint.

    ``basis`` holds orthonormal coordinate columns.  The D x D projector
    basis @ basis^dagger is formed on each access and never kept: the hot
    paths use the operator form of :mod:`adjrmat.rmatrix` instead.
    """

    label: str
    role: str
    hw_vector: np.ndarray
    basis: np.ndarray  # (D, dim) orthonormal columns
    omega_eigenvalue: float
    exchange_parity: int

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ np.conj(self.basis).T


@dataclass
class Decomposition:
    """Full decomposition of the adjoint tensor square with the s->a isometry."""

    n: int
    rep: AdjointRep
    submodules: list[Submodule]
    iso_s_to_a: np.ndarray

    def by_role(self, role: str) -> Submodule:
        for sub in self.submodules:
            if sub.role == role:
                return sub
        raise KeyError(f"no submodule with role {role!r}")


def adjoint_rep(basis: SunBasis, tol: Tolerance = DEFAULT_TOL, validate: bool = True) -> AdjointRep:
    """Build S^a = ad(I^a); entries (S^a)_{bc} = f^{acb} = tr(I^b [I^a, I^c]).

    Validates Hermiticity, the representation property
    [S^a, S^b] = sum_c f^{abc} S^c, and the Casimir sum
    sum_a S^a S^a = 2n * 1.
    """
    S = basis.f.transpose(0, 2, 1).copy()
    if validate:
        m = basis.dim
        if max_abs(S - np.conj(S).transpose(0, 2, 1)) > tol.abs_tol:
            raise AssertionError("adjoint matrices are not Hermitian")
        for a in range(m):
            comm = S[a] @ S - S @ S[a]
            rhs = np.einsum("bc,cij->bij", basis.f[a], S)
            if max_abs(comm - rhs) > tol.abs_tol * m:
                raise AssertionError("adjoint matrices violate the representation property")
        cas = np.einsum("aij,ajk->ik", S, S, optimize=True)
        if max_abs(cas - 2.0 * basis.n * np.eye(m)) > tol.abs_tol * m:
            raise AssertionError("adjoint Casimir sum deviates from 2n * 1")
    return AdjointRep(basis=basis, S=S)


def ad_matrix(basis: SunBasis, x: np.ndarray) -> np.ndarray:
    """Matrix of ad(x) on coordinates: A_{ab} = tr(I^a [x, I^b])."""
    gens = basis.generators
    comm = np.einsum("ij,bjk->bik", x, gens) - np.einsum("bij,jk->bik", gens, x)
    return np.einsum("aij,bji->ab", gens, comm, optimize=True)


def casimir_element(basis: SunBasis) -> np.ndarray:
    """The element Omega = sum_a I^a (x) I^a as an n^2 x n^2 matrix."""
    g = basis.generators
    return np.einsum("aij,akl->ikjl", g, g, optimize=True).reshape(basis.n**2, basis.n**2)


def tensor_coords(basis: SunBasis, y: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Expand an n^2 x n^2 matrix over the I^a (x) I^b basis.

    Returns the flat coordinate vector of length (n^2-1)^2.  An expansion
    residual above ``tol.abs_tol`` (the matrix does not lie in
    su(n) (x) su(n)) raises, which signals a convention bug upstream.
    """
    n, g = basis.n, basis.generators
    y4 = y.reshape(n, n, n, n)
    z = np.einsum("aij,jlik->alk", g, y4, optimize=True)
    c = np.einsum("bkl,alk->ab", g, z, optimize=True)
    recon = np.einsum("ab,aij,bkl->ikjl", c, g, g, optimize=True).reshape(n * n, n * n)
    res = max_abs(recon - y)
    if res > tol.abs_tol * basis.dim:
        raise ValueError(f"expansion residual {res:.3e}: matrix is outside su(n) (x) su(n)")
    return c.ravel()


def tensor_from_coords(basis: SunBasis, v: np.ndarray) -> np.ndarray:
    m, g = basis.dim, basis.generators
    c = v.reshape(m, m)
    n = basis.n
    return np.einsum("ab,aij,bkl->ikjl", c, g, g, optimize=True).reshape(n * n, n * n)


def casimir_op(rep: AdjointRep) -> np.ndarray:
    """Omega_op = sum_a S^a (x) S^a on the two-site coordinates, as a new dense array.

    It is the scatter of ``rep.frame.omega_entries`` (:meth:`PairFrame.dense_omega`)
    and imports no scipy.
    """
    return rep.frame.dense_omega()


def permutation_op(dim_v: int) -> np.ndarray:
    """Swap operator sigma on V (x) V for dim(V) = dim_v; sigma(v (x) w) = w (x) v."""
    d2 = dim_v * dim_v
    sigma = np.zeros((d2, d2), dtype=complex)
    idx = np.arange(d2)
    i, j = divmod(idx, dim_v)
    sigma[idx, j * dim_v + i] = 1.0
    return sigma


def apply_swap(v: np.ndarray, dim_v: int) -> np.ndarray:
    if v.ndim == 1:
        return v.reshape(dim_v, dim_v).T.reshape(-1)
    return v.reshape(dim_v, dim_v, -1).transpose(1, 0, 2).reshape(dim_v * dim_v, -1)


def apply_pair(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply a (x) 1 + 1 (x) a to flat two-site coordinates (batched)."""
    m = a.shape[0]
    if v.ndim == 1:
        mat = v.reshape(m, m)
        return (a @ mat + mat @ a.T).reshape(-1)
    block = v.reshape(m, m, -1)
    out = np.einsum("ij,jkp->ikp", a, block) + np.einsum("ikp,jk->ijp", block, a)
    return out.reshape(m * m, -1)


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def lowering_ops(rep: AdjointRep) -> np.ndarray:
    """Stack of ad(e_ji) for i < j in lexicographic (i, j) order."""
    ops = [
        ad_matrix(rep.basis, matrix_unit(rep.basis, j, i, coords=False).matrix)
        for i, j in _pairs(rep.n)
    ]
    return np.stack(ops)


def raising_ops(rep: AdjointRep) -> np.ndarray:
    """Stack of ad(e_ij) for i < j in lexicographic (i, j) order."""
    ops = [
        ad_matrix(rep.basis, matrix_unit(rep.basis, i, j, coords=False).matrix)
        for i, j in _pairs(rep.n)
    ]
    return np.stack(ops)


def _labels(n: int) -> dict[str, str]:
    zeros = "0" * (n - 3)
    labels = {
        "sym_top": f"(2{zeros}2)s",
        "adjoint_sym": f"(1{zeros}1)s",
        "adjoint_anti": f"(1{zeros}1)a",
        "singlet": f"({'0' * (n - 1)})s",
    }
    if n == 3:
        labels["anti_left"] = "(30)a"
        labels["anti_right"] = "(03)a"
    else:
        labels["anti_left"] = f"(2{'0' * (n - 4)}10)a"
        labels["anti_right"] = f"(01{'0' * (n - 4)}2)a"
    if n == 4:
        labels["mixed_sym"] = "(020)s"
    elif n >= 5:
        labels["mixed_sym"] = f"(01{'0' * (n - 5)}10)s"
    return labels


def highest_weight_vectors(basis: SunBasis, tol: Tolerance = DEFAULT_TOL) -> list[HighestWeight]:
    """Highest-weight vectors of the tensor-square submodules, in table order.

    The adjoint-copy rows are built in the fundamental tensor-square space
    ({Omega, 1 (x) e_1n} etc. as n^2 x n^2 products) and re-expanded into
    I^a (x) I^b coordinates by trace projection.
    """
    n = basis.n
    labels = _labels(n)
    w_1n = matrix_unit(basis, 1, n).coords
    w_1n1 = matrix_unit(basis, 1, n - 1).coords
    w_2n = matrix_unit(basis, 2, n).coords

    def outer(u, v):
        return np.outer(u, v).ravel()

    rows: list[HighestWeight] = []
    rows.append(HighestWeight("sym_top", labels["sym_top"], 1, outer(w_1n, w_1n)))
    rows.append(
        HighestWeight(
            "anti_left", labels["anti_left"], -1, outer(w_1n1, w_1n) - outer(w_1n, w_1n1)
        )
    )
    rows.append(
        HighestWeight(
            "anti_right", labels["anti_right"], -1, outer(w_2n, w_1n) - outer(w_1n, w_2n)
        )
    )
    if n >= 4:
        w_2n1 = matrix_unit(basis, 2, n - 1).coords
        sym = (
            outer(w_2n1, w_1n)
            + outer(w_1n, w_2n1)
            - outer(w_1n1, w_2n)
            - outer(w_2n, w_1n1)
        )
        rows.append(HighestWeight("mixed_sym", labels["mixed_sym"], 1, sym))

    # adjoint copies: products taken in the fundamental (x) fundamental space
    omega = casimir_element(basis)
    one_e1n = kron(np.eye(n), matrix_unit(basis, 1, n, coords=False).matrix)
    e1n_one = kron(matrix_unit(basis, 1, n, coords=False).matrix, np.eye(n))
    v_s_mat = n * (omega @ one_e1n + one_e1n @ omega - (2.0 / n) * e1n_one)
    v_a_mat = np.sqrt(n * n - 4.0) * (omega @ one_e1n - one_e1n @ omega)
    v_s = tensor_coords(basis, v_s_mat, tol)
    v_a = tensor_coords(basis, v_a_mat, tol)
    rows.append(HighestWeight("adjoint_sym", labels["adjoint_sym"], 1, v_s))
    rows.append(HighestWeight("adjoint_anti", labels["adjoint_anti"], -1, v_a))

    rows.append(
        HighestWeight("singlet", labels["singlet"], 1, np.eye(basis.dim, dtype=complex).ravel())
    )
    return rows


@dataclass(frozen=True)
class _WeightBlocks:
    """Two-site weight blocks and the lowering operators restricted to them.

    ``U`` is the single-site change to weight coordinates of
    :func:`liealg.weight_basis`; two-site weight coordinates are (U (x) U) x.
    ``blocks[k]`` lists the flat pair indices of one total weight.
    ``lowers[k]`` maps block k under all lowering operators at once: its
    rows run over the target blocks, listed in ``targets[k]`` as
    (target block, first row, end row).
    """

    U: np.ndarray
    blocks: list[np.ndarray]
    lowers: list[np.ndarray]
    targets: list[list[tuple[int, int, int]]]

    def to_weight(self, x: np.ndarray) -> np.ndarray:
        m = self.U.shape[0]
        return (self.U @ x.reshape(m, m) @ self.U.T).ravel()

    def from_weight(self, xw: np.ndarray) -> np.ndarray:
        """(U (x) U)^dagger on the columns of a (D, k) array, as two matmuls."""
        m = self.U.shape[0]
        uh = np.conj(self.U).T
        k = xw.shape[1]
        t = (uh @ xw.reshape(m, m * k)).reshape(m, m, k)
        return np.matmul(uh, t).reshape(m * m, k)


def _weight_blocks(rep: AdjointRep, tol: Tolerance) -> _WeightBlocks:
    """Group the pair indices by total weight and gather the lowering operators.

    ad(e_ji) (i < j) shifts weights by e_j - e_i, so on two-site weight
    coordinates ad(e_ji) (x) 1 + 1 (x) ad(e_ji) maps block W into block
    W + e_j - e_i.  Entries of the rotated operators outside that shift must
    vanish; a larger one means the weight frame is wrong and raises.
    """
    n, m = rep.n, rep.dim
    U, weights = weight_basis(rep.basis)
    uh = np.conj(U).T
    lows = np.stack([U @ a @ uh for a in lowering_ops(rep)])
    shifts = np.zeros((len(lows), n), dtype=int)
    for o, (i, j) in enumerate(_pairs(n)):
        shifts[o, j - 1] += 1
        shifts[o, i - 1] -= 1
    for o in range(len(lows)):
        on_shift = np.all(weights[:, None, :] == weights[None, :, :] + shifts[o], axis=2)
        stray = max_abs(lows[o][~on_shift])
        if stray > tol.abs_tol:
            raise AssertionError(f"lowering operator leaves its weight shift ({stray:.3e})")
    total = pair_weights(weights)
    blocks = weight_blocks(total)
    keys = [total[idx[0]] for idx in blocks]
    index = {tuple(key): k for k, key in enumerate(keys)}
    lowers: list[np.ndarray] = []
    targets: list[list[tuple[int, int, int]]] = []
    for key, src in zip(keys, blocks):
        sp, sq = divmod(src, m)
        rows, ops, segs = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)], []
        lo = 0
        for o, shift in enumerate(shifts):
            t = index.get(tuple(key + shift))
            if t is None:
                continue
            rows.append(blocks[t])
            ops.append(np.full(len(blocks[t]), o))
            segs.append((t, lo, lo + len(blocks[t])))
            lo += len(blocks[t])
        tp, tq = divmod(np.concatenate(rows), m)
        op = np.concatenate(ops)[:, None]
        tp, tq = tp[:, None], tq[:, None]
        piece = lows[op, tp, sp] * (tq == sq) + (tp == sp) * lows[op, tq, sq]
        lowers.append(piece)
        targets.append(segs)
    return _WeightBlocks(U=U, blocks=blocks, lowers=lowers, targets=targets)


def _orbit(frame: _WeightBlocks, seed: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Close the lowering orbit of ``seed``; returns an orthonormal basis of its span.

    The orbit is closed in two-site weight coordinates, one weight block at
    a time.  Each round applies every lowering operator to the columns
    accepted in the previous round and groups the images by target block.
    There the images are normalized (near-null ones dropped), projected twice
    against the columns the block already holds, and the new directions are
    the left singular vectors with singular value at least ``tol.rank_tol``.
    The orbit is closed when a round adds nothing.  The basis is returned in
    Gell-Mann coordinates.  ``seed`` must be a weight vector: support in more
    than one weight block raises ``ValueError``.
    """
    xw = frame.to_weight(np.asarray(seed, dtype=complex))
    nrm = np.linalg.norm(xw)
    if nrm < tol.rank_tol:
        raise ValueError("highest-weight vector is numerically zero")
    block_norms = np.array([np.linalg.norm(xw[idx]) for idx in frame.blocks])
    w0 = int(np.argmax(block_norms))
    off = np.linalg.norm(np.delete(block_norms, w0)) / nrm
    if off > tol.rank_tol:
        raise ValueError(
            f"seed is not a weight vector: {off:.3e} of its norm lies outside "
            "its dominant weight block"
        )
    seed_w = xw[frame.blocks[w0]]
    accepted = {w0: (seed_w / np.linalg.norm(seed_w))[:, None]}
    frontier = dict(accepted)
    D = len(xw)
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > D:
            raise RuntimeError(f"orbit did not close within {D} rounds")
        images: dict[int, list[np.ndarray]] = {}
        for w, cols in frontier.items():
            image = frame.lowers[w] @ cols
            for t, lo, hi in frame.targets[w]:
                images.setdefault(t, []).append(image[lo:hi])
        frontier = {}
        for t, parts in images.items():
            cand = np.hstack(parts)
            norms = np.linalg.norm(cand, axis=0)
            keep = norms >= tol.rank_tol
            if not keep.any():
                continue
            cand = cand[:, keep] / norms[keep]
            held = accepted.get(t)
            if held is not None:
                held_h = np.conj(held).T
                for _ in range(2):
                    cand -= held @ (held_h @ cand)
            u, s, _ = np.linalg.svd(cand, full_matrices=False)
            new = u[:, s >= tol.rank_tol]
            if new.shape[1]:
                accepted[t] = new if held is None else np.hstack([held, new])
                frontier[t] = new
    dim = sum(q.shape[1] for q in accepted.values())
    basis_w = np.zeros((D, dim), dtype=complex)
    col = 0
    for t in sorted(accepted):
        q = accepted[t]
        basis_w[frame.blocks[t], col : col + q.shape[1]] = q
        col += q.shape[1]
    return frame.from_weight(basis_w)


def _tensor_embedding(t: np.ndarray) -> np.ndarray:
    """Columns t^{a..}/||t^{a..}|| of an invariant 3-tensor, as a (D, m) basis.

    For t = d (resp. f) the columns span the symmetric (resp. antisymmetric)
    adjoint copy in adjoint (x) adjoint; they are orthonormal by invariance.
    """
    m = t.shape[0]
    cols = t.reshape(m, m * m).T
    return cols / np.linalg.norm(cols, axis=0)


# entries of d, f and Omega_op below this size are roundoff of the trace projection
_SPARSE_ZERO = 1e-12
# from this rank on, Omega_op and E are applied as scipy CSR matrices; below it
# as dense arrays (D <= 576), which keeps the import of scipy.sparse (about
# 0.2 s and 22 MB of resident memory) out of small-rank runs
_SPARSE_FROM_RANK = 6


class PairFrame:
    """Invariant building blocks of operators on adjoint (x) adjoint, from the basis alone.

    ``E = [Ed Ef]`` holds the normalized columns d^{a..} and -f^{a..}, the
    bases of the two adjoint copies in :func:`build_decomposition`.
    Omega_op = sum_c S^c (x) S^c is kept as the list of its nonzeros
    (``omega_entries``: rows, columns, values), built from the nonzeros of
    f; the dense S stack is never read.  Every Omega_op of the package comes
    from these entries: :meth:`omega` applies them and :meth:`dense_omega`
    scatters them into a dense array.  The matrices of :meth:`factors` are
    built at the first apply, which is the only place scipy is imported.
    """

    def __init__(self, basis: SunBasis):
        n, m = basis.n, basis.dim
        self.n, self.m = n, m
        e = np.hstack([_tensor_embedding(basis.d), -_tensor_embedding(basis.f)])
        self.E = np.where(np.abs(e) > _SPARSE_ZERO, e, 0.0)
        # Omega[(i,k),(j,l)] = sum_c S^c_ij S^c_kl = -sum_c F^{cij} F^{ckl}, where f = iF
        big_f = basis.f.imag
        c, i, j = np.nonzero(np.abs(big_f) > _SPARSE_ZERO)
        starts = np.searchsorted(c, np.arange(m + 1))
        flat, vals = [], []
        for a in range(m):
            ii, jj = i[starts[a] : starts[a + 1]], j[starts[a] : starts[a + 1]]
            rows = (ii[:, None] * m + ii[None, :]).ravel()
            cols = (jj[:, None] * m + jj[None, :]).ravel()
            flat.append(rows * (m * m) + cols)
            vals.append(-np.outer(big_f[a, ii, jj], big_f[a, ii, jj]).ravel())
        key, inverse = np.unique(np.concatenate(flat), return_inverse=True)
        total = np.bincount(inverse.ravel(), weights=np.concatenate(vals))
        keep = np.abs(total) > _SPARSE_ZERO
        rows, cols = np.divmod(key[keep], m * m)
        self.omega_entries = (rows, cols, total[keep])
        self._factors = None

    def factors(self):
        """(Omega_op, E, E^dagger) for applying operators, built on first use.

        They are CSR matrices from rank :data:`_SPARSE_FROM_RANK` on and dense
        arrays below it; both multiply (D, k) arrays with ``@``.
        """
        if self._factors is None:
            e_h = np.ascontiguousarray(np.conj(self.E).T)
            if self.n < _SPARSE_FROM_RANK:
                self._factors = (self.dense_omega(), self.E, e_h)
            else:
                from scipy import sparse

                D = self.m * self.m
                rows, cols, vals = self.omega_entries
                omega = sparse.csr_array((vals, (rows, cols)), shape=(D, D))
                self._factors = (omega, sparse.csr_array(self.E), sparse.csr_array(e_h))
        return self._factors

    def dense_omega(self) -> np.ndarray:
        """Omega_op as a new dense D x D array, scattered from ``omega_entries``."""
        D = self.m * self.m
        rows, cols, vals = self.omega_entries
        omega = np.zeros((D, D), dtype=complex)
        omega[rows, cols] = vals
        return omega

    def omega(self, x: np.ndarray) -> np.ndarray:
        """Omega_op applied to a (D,) vector or to the columns of a (D, k) array."""
        return self.factors()[0] @ x


def _measure(
    rep: AdjointRep, B: np.ndarray, tol: Tolerance, omega_dense: np.ndarray, parity: int | None
) -> tuple[float, int]:
    """Measured Casimir eigenvalue and exchange parity of a submodule basis.

    A stated ``parity`` (``None`` for none) must match the measured one.
    """
    m = rep.dim
    omega_b = omega_dense @ B
    ev = np.vdot(B[:, 0], omega_b[:, 0])
    res = max_abs(np.linalg.norm(omega_b - ev * B, axis=0))
    if abs(ev.imag) > tol.abs_tol * m or res > tol.abs_tol * m:
        raise AssertionError(
            f"submodule basis is not a Casimir eigenspace (ev={ev}, residual={res:.3e})"
        )
    swapped = apply_swap(B, m)
    par = np.vdot(B[:, 0], swapped[:, 0]).real
    measured = 1 if par > 0 else -1
    if max_abs(swapped - measured * B) > tol.abs_tol * m:
        raise AssertionError("submodule basis has indefinite exchange parity")
    if parity is not None and measured != parity:
        raise AssertionError(f"measured parity {measured} != stated parity {parity}")
    return float(ev.real), measured


def generate_submodule(
    rep: AdjointRep,
    hwv,
    parity: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
    label: str | None = None,
    role: str | None = None,
) -> Submodule:
    """Generate the irreducible submodule spanned by the lowering orbit of ``hwv``.

    ``hwv`` may be a :class:`HighestWeight` or a raw coordinate vector plus
    explicit ``parity``.  A raw vector must be a weight vector (support in a
    single two-site weight block); otherwise ``ValueError`` is raised, since
    its lowering orbit would not span a submodule.  The orbit is closed in
    weight blocks (see :func:`_orbit`); the measured Casimir eigenvalue and
    exchange parity are validated on every basis vector in Gell-Mann
    coordinates against the dense Omega_op, and a stated parity must match.
    """
    if isinstance(hwv, HighestWeight):
        coords = hwv.coords
        parity = hwv.parity if parity is None else parity
        label = hwv.label if label is None else label
        role = hwv.role if role is None else role
    else:
        coords = np.asarray(hwv, dtype=complex)
    B = _orbit(_weight_blocks(rep, tol), coords, tol)
    omega_ev, parity = _measure(rep, B, tol, casimir_op(rep), parity)
    return Submodule(label or "", role or "", coords, B, omega_ev, parity)


def build_decomposition(rep: AdjointRep, tol: Tolerance = DEFAULT_TOL) -> Decomposition:
    """Decompose adjoint (x) adjoint into submodules with the s->a isometry.

    The two adjoint copies are spanned by the invariant tensors: the columns
    d^{a..}/||d^{a..}|| give the symmetric copy and minus the columns
    f^{a..}/||f^{a..}|| the antisymmetric one.  Column a of each basis is the
    image of the generator I^a, so mapping column to column is the
    equivariant isometry -Ef Ed^dagger; the sign fixes the phase convention
    iso(v_s) = +(norm ratio) v_a.  Every other submodule is the lowering
    orbit of its highest-weight vector, closed one two-site weight block at a
    time (the blocks and the gathered lowering operators are built once per
    call and shared by the orbits).  The checks read only the Gell-Mann
    bases and the dense Omega_op (one :func:`casimir_op` per call), never the
    weight frame: Casimir eigenvalue and exchange parity of every basis, the
    sum of dimensions, completeness and mutual orthogonality of the
    projectors, and the isometry phase are verified before returning.
    """
    basis = rep.basis
    m = rep.dim
    D = m * m
    rows = highest_weight_vectors(basis, tol)
    frame = _weight_blocks(rep, tol)
    omega = casimir_op(rep)
    embeddings = {
        "adjoint_sym": _tensor_embedding(basis.d),
        "adjoint_anti": -_tensor_embedding(basis.f),
    }
    submodules: list[Submodule] = []
    for row in rows:
        B = embeddings[row.role] if row.role in embeddings else _orbit(frame, row.coords, tol)
        omega_ev, parity = _measure(rep, B, tol, omega, row.parity)
        submodules.append(Submodule(row.label, row.role, row.coords, B, omega_ev, parity))

    dims = sum(sub.dim for sub in submodules)
    if dims != D:
        raise AssertionError(f"submodule dimensions sum to {dims}, expected {D}")
    stacked = np.hstack([sub.basis for sub in submodules])
    gram_res = max_abs(np.conj(stacked).T @ stacked - np.eye(D))
    if gram_res > tol.abs_tol * m:
        raise AssertionError(f"projector completeness residual {gram_res:.3e}")

    sym = next(s for s in submodules if s.role == "adjoint_sym")
    anti = next(s for s in submodules if s.role == "adjoint_anti")
    iso = anti.basis @ np.conj(sym.basis).T
    # phase check: iso maps the symmetric hwv onto a positive multiple of the antisymmetric one
    v_s = sym.hw_vector
    v_a = anti.hw_vector
    overlap = np.vdot(v_a / np.linalg.norm(v_a), iso @ (v_s / np.linalg.norm(v_s)))
    if not (abs(overlap - 1.0) <= 1e-6):
        raise AssertionError(f"isometry phase convention violated (overlap {overlap})")

    return Decomposition(n=basis.n, rep=rep, submodules=submodules, iso_s_to_a=iso)
