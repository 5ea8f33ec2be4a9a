"""Adjoint representation of su(n) and the decomposition of its tensor square.

Vectors of the two-site module live in coordinates: an element
sum_{a,b} v^{ab} I^a (x) I^b of su(n) (x) su(n) is stored as the flat complex
array v of length (n^2-1)^2 with row-major index a*(n^2-1)+b, matching the
Kronecker-product convention of :mod:`adjrmat.numerics`.  Lowering orbits
are closed internally in the two-site weight frame ``rep.weight_frame`` of
:func:`liealg.weight_chain` (see :func:`_orbit`), and the decomposition is
checked there, one weight sector at a time, but every basis
this module returns is in these Gell-Mann coordinates.  A decomposition holds
only its (D, dim) bases: the D x D projectors and the s->a isometry are
formed when they are read, and no check of :func:`build_decomposition` forms
one.  The representation also holds
the dominant sectors of the three-site weight frame on their highest-weight
vectors, with the gathers that compress a two-site operator onto them
(``rep.ybe_frame``, :class:`TripleSector`), and the sector blocks of D(y)
for the Chevalley generators y (``rep.chevalley_deltas``), each built once,
and a ``memo`` for what the modules above build once per representation.

Two distinct objects both called "Casimir" are kept strictly separate:

* the *element* Omega = sum_a I^a (x) I^a, an n^2 x n^2 matrix used inside
  the highest-weight-vector formulas (products taken in the fundamental
  tensor-square space);
* the *operator* Omega_op = sum_a S^a (x) S^a acting on the adjoint two-site
  coordinates, whose eigenvalues label the irreducible submodules.  It is
  built in one place, :class:`PairFrame` (``rep.frame``), from the nonzeros
  of f, and acts through its weight-sector blocks, as every invariant
  two-site term of the frame does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liealg import SunBasis, WeightChain, matrix_unit, weight_chain, weyl_dimension
from .numerics import DEFAULT_TOL, Tolerance, kron, max_abs

__all__ = [
    "AdjointRep",
    "HighestWeight",
    "Submodule",
    "Decomposition",
    "PairFrame",
    "TripleSector",
    "TERMS",
    "ROLE_ORDER",
    "adjoint_rep",
    "ad_matrix",
    "tensor_coords",
    "casimir_element",
    "casimir_op",
    "apply_swap",
    "apply_pair",
    "site_left",
    "site_right",
    "rotate_pair",
    "generating_set",
    "root_weight",
    "root_action",
    "highest_weight_vectors",
    "highest_weight_bases",
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
        """The :class:`PairFrame` of the basis over ``weight_frame`` (the only source of Omega_op), built on first use."""
        return PairFrame(self.basis, self.weight_frame)

    @cached_property
    def weight_frame(self) -> WeightChain:
        """``weight_chain(basis, 2)``, the weight frame of two sites, built on first use."""
        return weight_chain(self.basis, 2)

    @cached_property
    def ybe_frame(self) -> list["TripleSector"]:
        """The :class:`TripleSector` of each dominant sector of ``weight_chain(basis, 3)``, built on first use."""
        chain, m = weight_chain(self.basis, 3), self.dim
        pair_label, places = self.weight_frame.label, self.frame.places
        out = []
        for w, dim, p in highest_weight_bases(chain):
            site = np.unravel_index(chain.blocks[w], (m, m, m))
            pairs = []
            for first, second, spectator in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                order = np.argsort(site[spectator], kind="stable")  # by spectator, in state order within
                starts = np.flatnonzero(np.diff(site[spectator][order], prepend=-1))
                two = pair_label[site[first] * m + site[second]]  # the two-site sector of each state
                groups: dict[int, tuple[list[int], list[np.ndarray]]] = {}
                for rows in np.split(order, starts[1:]):
                    g, r = places[two[rows[0]]]
                    groups.setdefault(g, ([], []))[0].append(r)
                    groups[g][1].append(rows)
                pairs.append([(g, np.array(at), p[np.stack(gathered)]) for g, (at, gathered) in groups.items()])
            out.append(TripleSector(dim, p, tuple(pairs)))
        return out

    @cached_property
    def chevalley_deltas(self) -> dict[tuple[int, int], tuple[dict[int, tuple[int, np.ndarray]], float]]:
        """D(y) = ad y (x) 1 + 1 (x) ad y for the Chevalley generators y = e_ij of :func:`generating_set`, built on first use.

        Each D(y) is a dict source sector -> (target, block) over
        ``weight_frame``, with max(1, max-abs ad y): no entry of D(y) has a
        term from both sites, so that is also max(1, max-abs D(y)).
        """
        chain, out = self.weight_frame, {}
        for ij in generating_set(self.n)[0]:
            alpha = root_weight(self.n, ij)
            x = root_action(chain, alpha)
            out[ij] = ({k: (t, b) for k, t, b in chain.shift_blocks(x, alpha)}, max(1.0, max_abs(x)))
        return out

    @cached_property
    def memo(self) -> dict:
        """What the modules above this one build once per representation, by name; empty until they do."""
        return {}


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
    # max_abs(B^dagger B - 1) of the stacked bases, taken one weight sector at a time
    completeness_residual: float

    def by_role(self, role: str) -> Submodule:
        for sub in self.submodules:
            if sub.role == role:
                return sub
        raise KeyError(f"no submodule with role {role!r}")

    @cached_property
    def iso_s_to_a(self) -> np.ndarray:
        """The D x D equivariant isometry B_a B_s^dagger, formed on first read and kept.

        Nothing in the package reads it: the oracles apply it as
        B_a (B_s^dagger v).
        """
        anti = self.by_role("adjoint_anti").basis
        return anti @ np.conj(self.by_role("adjoint_sym").basis).T


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
        if _representation_residual(S, basis.f) > tol.abs_tol * m:
            raise AssertionError("adjoint matrices violate the representation property")
        cas = np.einsum("aij,ajk->ik", S, S, optimize=True)
        if max_abs(cas - 2.0 * basis.n * np.eye(m)) > tol.abs_tol * m:
            raise AssertionError("adjoint Casimir sum deviates from 2n * 1")
    return AdjointRep(basis=basis, S=S)


# target size of a temporary of the representation check, in bytes: blocks of
# about 1 MB ran faster than one 5 MB block at n = 5 (cache), and a block is
# never less than one generator (4 MB at n = 8)
_VALIDATE_BLOCK_BYTES = 2**20


def _representation_residual(S: np.ndarray, f: np.ndarray) -> float:
    """max_abs([S^a, S^b] - sum_c f^{abc} S^c) over all a, b, for a Hermitian stack S.

    The generators a are taken in blocks of b, sized so that a temporary
    holds about :data:`_VALIDATE_BLOCK_BYTES` (b m^3 entries).  Per
    block, the products (S^a S^b)_ij are one (b m, m) @ (m, m m) matmul;
    S^b S^a is their conjugate transpose in (i, j), as S is Hermitian; and
    the right side is one (b m, m) @ (m, m m) matmul of f against S.
    """
    m = S.shape[0]
    step = max(1, _VALIDATE_BLOCK_BYTES // (16 * m**3))
    right = S.transpose(1, 0, 2).reshape(m, m * m)  # (k; b, j) = S^b_kj
    stack = S.reshape(m, m * m)  # (c; i, j) = S^c_ij
    worst = 0.0
    for lo in range(0, m, step):
        block = slice(lo, lo + step)
        prod = (S[block].reshape(-1, m) @ right).reshape(-1, m, m, m)  # (a, i, b, j)
        comm = prod - np.conj(prod.transpose(0, 3, 2, 1))
        rhs = (f[block].reshape(-1, m) @ stack).reshape(-1, m, m, m)  # (a, b, i, j)
        worst = max(worst, max_abs(comm.transpose(0, 2, 1, 3) - rhs))
    return worst


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


def casimir_op(rep: AdjointRep) -> np.ndarray:
    """Omega_op = sum_a S^a (x) S^a on the two-site coordinates, as a new dense array.

    It is the scatter of ``rep.frame.omega_entries`` (:meth:`PairFrame.dense_omega`).
    """
    return rep.frame.dense_omega()


def apply_swap(v: np.ndarray, dim_v: int) -> np.ndarray:
    """sigma v for flat two-site coordinates shaped (D,) or (D, k): entry (a, b) goes to (b, a)."""
    return v.reshape(dim_v, dim_v, -1).transpose(1, 0, 2).reshape(v.shape)


def apply_pair(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply a (x) 1 + 1 (x) a to flat two-site coordinates (batched)."""
    return site_left(a, v, 0) + site_left(a, v, 1)


def site_left(a: np.ndarray, x: np.ndarray, site: int) -> np.ndarray:
    """(a (x) 1) x for ``site`` 0 and (1 (x) a) x for ``site`` 1, on a (D,) or (D, k) array.

    One m x m matmul on a reshaped view: m^3 k multiply-adds, where the
    product with the dense D x D factor would take m^4 k.
    """
    m = a.shape[0]
    if site == 0:
        return (a @ x.reshape(m, -1)).reshape(x.shape)
    return np.matmul(a, x.reshape(m, m, -1)).reshape(x.shape)


def site_right(x: np.ndarray, a: np.ndarray, site: int) -> np.ndarray:
    """x (a (x) 1) for ``site`` 0 and x (1 (x) a) for ``site`` 1, on a (k, D) array."""
    m = a.shape[0]
    if site == 0:
        return np.matmul(a.T, x.reshape(-1, m, m)).reshape(x.shape)
    return (x.reshape(-1, m) @ a).reshape(x.shape)


def rotate_pair(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(u (x) u) r (u (x) u)^dagger for a D x D two-site operator r, one site index at a time."""
    u_h = np.conj(u).T
    r = site_left(u, site_left(u, r, 0), 1)
    return site_right(site_right(r, u_h, 1), u_h, 0)


def generating_set(n: int) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """The (i, j) of the matrix units e_ij on which the intertwining relations are checked.

    Level 0 runs on the Chevalley generators e_{i,i+1} and e_{i+1,i},
    i = 1..n-1, which generate su(n); level 1 on the highest root vector e_1n.
    """
    return [ij for i in range(1, n) for ij in ((i, i + 1), (i + 1, i))], (1, n)


def root_weight(n: int, ij: tuple[int, int]) -> np.ndarray:
    """The weight e_i - e_j of the matrix unit e_ij."""
    e = np.eye(n, dtype=int)
    return e[ij[0] - 1] - e[ij[1] - 1]


def root_action(chain: WeightChain, alpha: np.ndarray) -> np.ndarray:
    """ad(e_pq) for the root alpha = e_p - e_q, in the single-site weight coordinates of ``chain``."""
    unit = np.zeros((chain.basis.n, chain.basis.n))
    unit[np.argmax(alpha), np.argmin(alpha)] = 1.0
    return chain.u @ ad_matrix(chain.basis, unit) @ np.conj(chain.u).T


@dataclass(frozen=True)
class TripleSector:
    """A dominant sector of the three-site weight frame, on its highest-weight vectors.

    ``basis`` is P, the (d, k) real orthonormal highest-weight vectors of the
    sector, one per copy of the module V of its weight, and ``dim`` is dim V:
    an invariant X acts on the copies as 1 (x) A on V (x) C^k (Schur's
    lemma), A = P^T X P.  A two-site operator on the sites (1, 2), (1, 3) or
    (2, 3) (``pairs[0..2]``) is block-diagonal in the sector over the state
    of the spectator site, each block its two-site sector block at the
    weight left, states in the same order.  So each pair lists (g, r, p), one
    per sector size of ``rep.frame.sectors``: p[s] holds the rows of P with
    one spectator state, and blocks[g][r[s]] is the block they meet.
    """

    dim: int
    basis: np.ndarray
    pairs: tuple[list[tuple[int, np.ndarray, np.ndarray]], ...]

    def compress(self, blocks: list[np.ndarray], pair: int) -> np.ndarray:
        """P^T X P for the two-site operator X with sector blocks ``blocks`` on the sites ``pairs[pair]``."""
        return sum(np.tensordot(p, blocks[g][r] @ p, axes=([0, 1], [0, 1])) for g, r, p in self.pairs[pair])


def highest_weight_bases(chain: WeightChain, tol: Tolerance = DEFAULT_TOL) -> list[tuple[int, int, np.ndarray]]:
    """(sector, dim V, P) for each dominant sector of ``chain`` that holds highest-weight vectors.

    P is an orthonormal basis of the common kernel in the sector of the
    simple raising operators sum_s ad_s(e_{i,i+1}), the null space of the
    Gram sum_i E_i^T E_i of their blocks, which are real and built for the
    dominant sectors alone; dim V is :func:`liealg.weyl_dimension` of the
    sector's weight.  Unless sum k dim V = m^L, ``AssertionError`` is raised.
    """
    n, dominant = chain.basis.n, chain.weyl_orbits
    gram = {w: np.zeros((len(chain.blocks[w]),) * 2) for w in dominant.tolist()}
    for i in range(1, n):
        alpha = root_weight(n, (i, i + 1))
        for k, _, b in chain.shift_blocks(root_action(chain, alpha).real, alpha, tol, sources=dominant):
            gram[k] += b.T @ b
    out = []
    for w, g in gram.items():
        vals, vecs = np.linalg.eigh(g)
        kernel = vals <= tol.rank_tol
        if kernel.any():
            out.append((w, weyl_dimension(chain.sector_weights[w]), vecs[:, kernel]))
    filled = sum(dim * p.shape[1] for _, dim, p in out)
    if filled != len(chain.label):
        raise AssertionError(f"highest-weight modules fill {filled} of {len(chain.label)} states")
    return out


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
    """The lowering operators restricted to the two-site weight sectors of ``chain``.

    Two-site weight coordinates are (U (x) U) x, with U = ``chain.u``.
    ``lowers[k]`` maps sector k under all lowering operators at once: its
    rows run over the target sectors, listed in ``targets[k]`` as (target
    sector, first row, end row).
    """

    chain: WeightChain
    lowers: list[np.ndarray]
    targets: list[list[tuple[int, int, int]]]


def _weight_blocks(rep: AdjointRep, tol: Tolerance) -> _WeightBlocks:
    """Stack the sector blocks of the lowering operators over ``rep.weight_frame``.

    ad(e_ji) (i < j) shifts weights by e_j - e_i, so on two-site weight
    coordinates ad(e_ji) (x) 1 + 1 (x) ad(e_ji) maps sector W into sector
    W + e_j - e_i; :meth:`WeightChain.shift_blocks` gives those blocks (and
    raises if the frame is wrong).  They are stacked per source sector in
    lexicographic (i, j) order.
    """
    chain = rep.weight_frame
    lowers = [[np.zeros((0, len(idx)), dtype=complex)] for idx in chain.blocks]
    targets: list[list[tuple[int, int, int]]] = [[] for _ in chain.blocks]
    roots = rep.dim - (rep.n - 1)
    # the weight basis lists e_ij, e_ji for i < j: the lowering roots e_j - e_i are the odd rows
    for alpha in chain.weights[1:roots:2]:
        for k, t, block in chain.shift_blocks(root_action(chain, alpha), alpha, tol):
            lo = targets[k][-1][2] if targets[k] else 0
            targets[k].append((t, lo, lo + len(block)))
            lowers[k].append(block)
    return _WeightBlocks(chain=chain, lowers=[np.vstack(x) for x in lowers], targets=targets)


def _orbit(frame: _WeightBlocks, seed: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Close the lowering orbit of ``seed``; returns an orthonormal basis of its span.

    The orbit is closed in two-site weight coordinates, one weight block at
    a time.  Each round applies every lowering operator to the columns
    accepted in the previous round and groups the images by target block.
    There the images are normalized (near-null ones dropped), projected twice
    against the columns the block already holds, and the new directions are
    the left singular vectors with singular value at least ``tol.rank_tol``.
    The orbit is closed when a round adds nothing.  The basis is returned in
    two-site weight coordinates, its columns grouped by sector in increasing
    order; :meth:`PairFrame.from_weight` takes it to Gell-Mann
    coordinates.  ``seed`` must be a weight vector: support in more than one
    weight block raises ``ValueError``.
    """
    u = frame.chain.u
    xw = (u @ np.reshape(seed, (len(u), -1)) @ u.T).ravel()
    nrm = np.linalg.norm(xw)
    if nrm < tol.rank_tol:
        raise ValueError("highest-weight vector is numerically zero")
    blocks = frame.chain.blocks
    block_norms = np.array([np.linalg.norm(xw[idx]) for idx in blocks])
    w0 = int(np.argmax(block_norms))
    off = np.linalg.norm(np.delete(block_norms, w0)) / nrm
    if off > tol.rank_tol:
        raise ValueError(
            f"seed is not a weight vector: {off:.3e} of its norm lies outside "
            "its dominant weight block"
        )
    seed_w = xw[blocks[w0]]
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
        basis_w[blocks[t], col : col + q.shape[1]] = q
        col += q.shape[1]
    return basis_w


def _tensor_embedding(t: np.ndarray) -> np.ndarray:
    """Columns t^{a..}/||t^{a..}|| of an invariant 3-tensor, as a (D, m) basis.

    For t = d (resp. f) the columns span the symmetric (resp. antisymmetric)
    adjoint copy in adjoint (x) adjoint; they are orthonormal by invariance.
    """
    m = t.shape[0]
    cols = t.reshape(m, m * m).T
    return cols / np.linalg.norm(cols, axis=0)


# entries of d, f, u and Omega_op below this size are roundoff of the trace projection
_SPARSE_ZERO = 1e-12
# the terms of PairFrame.terms: 1, sigma, Omega_op, Omega_op sigma, E^i E^j^dagger for i, j in {d, f}, s s^dagger
TERMS = ("eye", "swap", "omega", "omega_swap", "dd", "df", "fd", "ff", "singlet")


class PairFrame:
    """Invariant building blocks of operators on adjoint (x) adjoint, from the basis alone.

    ``E = [Ed Ef]`` holds the normalized columns d^{a..} and -f^{a..}, the
    bases of the two adjoint copies.  Omega_op = sum_c S^c (x) S^c is kept
    as its nonzeros (``omega_entries``: rows, columns, values), from the
    nonzeros of f; :meth:`dense_omega` scatters them.  An invariant operator
    conserves total weight, so in the weight frame ``chain``
    (``rep.weight_frame``, coordinates (U (x) U) x) it is a set of small
    sector blocks: ``terms`` holds those of the :data:`TERMS`, stacked by
    sector size (at most five sizes at any n).  An operator is a combination
    of them (:meth:`combine`) and acts by one gather, batched matmul and
    scatter per size (:meth:`apply_weight`), as Omega_op does in :meth:`omega`.
    """

    def __init__(self, basis: SunBasis, chain: WeightChain):
        n, m = basis.n, basis.dim
        self.n, self.m, self.chain = n, m, chain
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

    @cached_property
    def sectors(self) -> list[np.ndarray]:
        """The states of the sectors of ``chain``, one (S, d) array per sector size d, in increasing size."""
        sizes = sorted({len(idx) for idx in self.chain.blocks})
        return [np.stack([idx for idx in self.chain.blocks if len(idx) == d]) for d in sizes]

    @cached_property
    def terms(self) -> list[np.ndarray]:
        """The sector blocks of the :data:`TERMS`, one (len(TERMS), S, d, d) stack per entry of ``sectors``.

        sigma permutes the states of a sector, E is rotated on its rows and
        s is vec(U U^T)/sqrt(m).  Omega_op is ``omega_entries`` rotated
        through U (x) U, at most 16 entries for each (U has at most two
        nonzeros per column); those that leave their sector cancel exactly.
        """
        m, u, D = self.m, self.chain.u, self.m * self.m
        offsets = np.cumsum([0] + [idx.size * idx.shape[1] for idx in self.sectors])
        pos, row0 = np.empty(D, dtype=int), np.empty(D, dtype=int)  # place in the sector, flat row start
        for idx, lo in zip(self.sectors, offsets):
            S, d = idx.shape
            pos[idx] = np.arange(d)
            row0[idx] = lo + d * np.arange(S * d).reshape(S, d)
        big = np.abs(u) > _SPARSE_ZERO
        nz = np.argsort(~big, axis=0, kind="stable")[:2]  # (2, m): rows of the nonzeros of each column
        nz_u = np.where(np.take_along_axis(big, nz, 0), np.take_along_axis(u, nz, 0), 0.0)
        rows, cols, vals = self.omega_entries
        (i, k), (j, l) = np.divmod(rows, m), np.divmod(cols, m)
        to_row = (nz[:, None, i] * m + nz[None, :, k]).reshape(4, 1, -1)
        to_col = (nz[:, None, j] * m + nz[None, :, l]).reshape(1, 4, -1)
        weight = (nz_u[:, None, i] * nz_u[None, :, k]).reshape(4, 1, -1) * vals
        weight = weight * np.conj(nz_u[:, None, j] * nz_u[None, :, l]).reshape(1, 4, -1)
        to_row, to_col = np.broadcast_arrays(to_row, to_col)
        inside = self.chain.label[to_row] == self.chain.label[to_col]
        key, weight = row0[to_row[inside]] + pos[to_col[inside]], weight[inside]
        omega = np.bincount(key, weight.real, offsets[-1]) + 1j * np.bincount(key, weight.imag, offsets[-1])
        swap = apply_swap(np.arange(D), m)
        e_w = self.to_weight(self.E).reshape(D, 2, m)
        s_w = (u @ u.T).ravel() / np.sqrt(m)
        out = []
        for idx, lo, hi in zip(self.sectors, offsets, offsets[1:]):
            S, d = idx.shape
            t = np.zeros((len(TERMS), S, d, d), dtype=complex)
            t[0] = np.eye(d)
            t[1, np.arange(S)[:, None], pos[swap[idx]], np.arange(d)] = 1.0
            t[2] = omega[lo:hi].reshape(S, d, d)
            t[3] = t[2] @ t[1]
            e, s = e_w[idx], s_w[idx]
            for p in range(4):
                t[4 + p] = e[:, :, p // 2] @ np.conj(e[:, :, p % 2]).transpose(0, 2, 1)
            t[8] = s[:, :, None] * np.conj(s)[:, None, :]
            out.append(t)
        return out

    def term(self, name: str) -> list[np.ndarray]:
        """The sector blocks of the term ``name`` of :data:`TERMS`, one (S, d, d) stack per size."""
        return [t[TERMS.index(name)] for t in self.terms]

    @cached_property
    def places(self) -> list[tuple[int, int]]:
        """Where each sector of ``chain`` sits in ``sectors``: (g, r) such that blocks[g][r] is its block."""
        where = {first: (g, r) for g, states in enumerate(self.sectors)
                 for r, first in enumerate(states[:, 0].tolist())}
        return [where[int(idx[0])] for idx in self.chain.blocks]

    def sector_terms(self, w: int) -> np.ndarray:
        """The (len(TERMS), d, d) term blocks of sector ``w`` of ``chain``."""
        g, r = self.places[w]
        return self.terms[g][:, r]

    def combine(self, coefficients) -> list[np.ndarray]:
        """The sector blocks of sum_t coefficients[t] TERMS[t], one (S, d, d) stack per size."""
        return [np.tensordot(np.asarray(coefficients, dtype=complex), t, axes=1) for t in self.terms]

    def apply_weight(self, blocks: list[np.ndarray], xw: np.ndarray) -> np.ndarray:
        """The operator with sector blocks ``blocks`` on weight coordinates shaped (D,) or (D, k)."""
        x = xw.reshape(len(xw), -1)
        out = np.empty(x.shape, dtype=complex)  # the sectors cover every state
        for idx, b in zip(self.sectors, blocks):
            out[idx] = b @ x[idx]
        return out.reshape(xw.shape)

    def to_weight(self, x: np.ndarray) -> np.ndarray:
        """(U (x) U) x for a (D,) or (D, k) array, one site index at a time."""
        return site_left(self.chain.u, site_left(self.chain.u, x, 0), 1)

    def from_weight(self, xw: np.ndarray) -> np.ndarray:
        """(U (x) U)^dagger xw for a (D,) or (D, k) array."""
        uh = np.conj(self.chain.u).T
        return site_left(uh, site_left(uh, xw, 0), 1)

    def dense_omega(self) -> np.ndarray:
        """Omega_op as a new dense D x D array, scattered from ``omega_entries``."""
        D = self.m * self.m
        rows, cols, vals = self.omega_entries
        omega = np.zeros((D, D), dtype=complex)
        omega[rows, cols] = vals
        return omega

    def omega(self, x: np.ndarray) -> np.ndarray:
        """Omega_op applied to a (D,) vector or to the columns of a (D, k) array, through its sector blocks."""
        return self.from_weight(self.apply_weight(self.term("omega"), self.to_weight(x)))


def _measure(frame: PairFrame, parts: list[tuple[int, np.ndarray]], tol: Tolerance,
             parity: int) -> tuple[float, int]:
    """Measured Casimir eigenvalue and exchange parity of a submodule basis.

    ``parts`` is the basis in the weight frame, split by :func:`_sector_columns`;
    Omega_op and sigma act on each part through the sector blocks of
    ``frame``.  The stated ``parity`` must match the measured one.
    """
    terms = frame.sector_terms(parts[0][0])
    x = parts[0][1][:, 0]
    # a Rayleigh quotient: the off-sector tail of a column is left to the completeness check
    ev = np.vdot(x, terms[2] @ x) / np.vdot(x, x)
    measured = 1 if np.vdot(x, terms[1] @ x).real > 0 else -1
    res = swap_res = 0.0
    for w, cols in parts:
        terms = frame.sector_terms(w)
        res = max(res, max_abs(np.linalg.norm(terms[2] @ cols - ev * cols, axis=0)))
        swap_res = max(swap_res, max_abs(terms[1] @ cols - measured * cols))
    tol_m = tol.abs_tol * frame.m
    if abs(ev.imag) > tol_m or res > tol_m:
        raise AssertionError(
            f"submodule basis is not a Casimir eigenspace (ev={ev}, residual={res:.3e})"
        )
    if swap_res > tol_m:
        raise AssertionError("submodule basis has indefinite exchange parity")
    if measured != parity:
        raise AssertionError(f"measured parity {measured} != stated parity {parity}")
    return float(ev.real), measured


def _sector_columns(chain: WeightChain, xw: np.ndarray) -> tuple[list[tuple[int, np.ndarray]], float]:
    """Split the columns of a weight-coordinate (D, k) array by sector of ``chain``.

    Each column goes to the sector of its largest entry.  Returns the
    (sector, rows of the sector in its columns) pairs and the largest share
    of a column's norm outside its sector (0 for weight vectors).
    """
    label = chain.label
    sq = np.abs(xw)
    sq *= sq
    home = label[np.argmax(sq, axis=0)]
    total = sq.sum(axis=0)
    sq[label[:, None] == home[None, :]] = 0.0
    off = float(np.sqrt(sq.sum(axis=0) / total).max(initial=0.0))
    cols = np.argsort(home, kind="stable")
    sectors, starts = np.unique(home[cols], return_index=True)
    ends = np.append(starts[1:], len(cols))
    parts = [(w, xw[chain.blocks[w]][:, cols[lo:hi]])
             for w, lo, hi in zip(sectors.tolist(), starts.tolist(), ends.tolist())]
    return parts, off


def build_decomposition(rep: AdjointRep, tol: Tolerance = DEFAULT_TOL) -> Decomposition:
    """Decompose adjoint (x) adjoint into submodules with the s->a isometry.

    The two adjoint copies are spanned by the invariant tensors: the columns
    d^{a..}/||d^{a..}|| give the symmetric copy and minus the columns
    f^{a..}/||f^{a..}|| the antisymmetric one.  Column a of each basis is the
    image of the generator I^a, so mapping column to column is the
    equivariant isometry -Ef Ed^dagger (``Decomposition.iso_s_to_a``, formed
    only when read); the sign fixes the phase convention iso(v_s) = +(norm
    ratio) v_a.  Every other submodule is the lowering orbit of its
    highest-weight vector, closed one sector of ``rep.weight_frame`` at a
    time (the stacked lowering blocks are built once per call and shared by
    the orbits).  Every basis is checked in that frame, split by sector:
    the orbits come in weight coordinates from :func:`_orbit`, and the
    adjoint copies are rotated there on both indices, (U (x) U) B U^T, so
    that every column is a weight vector.  Checked before returning, with no
    D x D array formed:

    * the Casimir eigenvalue and exchange parity of every basis, with the
      Omega_op and sigma blocks of ``rep.frame`` (:func:`_measure`);
    * the sum of dimensions;
    * completeness and mutual orthogonality, as the Gram residual
      max_W max_abs(G_W - 1) over the sectors W of the weight frame.
      Columns in different sectors are orthogonal, so the largest
      off-sector share of any column is a floor on the residual, and so is
      max_abs(U U^dagger - 1): the sector Grams equal the Gell-Mann one only
      if U is unitary.  The result is kept as ``completeness_residual``;
    * the isometry phase, as B_a (B_s^dagger v_s).
    """
    basis = rep.basis
    m = rep.dim
    D = m * m
    rows = highest_weight_vectors(basis, tol)
    lowering, pair = _weight_blocks(rep, tol), rep.frame
    chain = lowering.chain
    u = chain.u
    embeddings = {
        "adjoint_sym": _tensor_embedding(basis.d),
        "adjoint_anti": -_tensor_embedding(basis.f),
    }
    submodules: list[Submodule] = []
    sectors: dict[int, list[np.ndarray]] = {}
    gram_res = max_abs(u @ np.conj(u).T - np.eye(m))
    for row in rows:
        if row.role in embeddings:
            B = embeddings[row.role]
            xw = pair.to_weight(B) @ u.T
        else:
            xw = _orbit(lowering, row.coords, tol)
            B = pair.from_weight(xw)
        parts, off = _sector_columns(chain, xw)
        del xw
        gram_res = max(gram_res, off)
        for w, cols in parts:
            sectors.setdefault(w, []).append(cols)
        omega_ev, parity = _measure(pair, parts, tol, row.parity)
        submodules.append(Submodule(row.label, row.role, row.coords, B, omega_ev, parity))

    dims = sum(sub.dim for sub in submodules)
    if dims != D:
        raise AssertionError(f"submodule dimensions sum to {dims}, expected {D}")
    for parts in sectors.values():
        cols = np.hstack(parts)
        gram_res = max(gram_res, max_abs(np.conj(cols).T @ cols - np.eye(cols.shape[1])))
    if gram_res > tol.abs_tol * m:
        raise AssertionError(f"projector completeness residual {gram_res:.3e}")

    dec = Decomposition(n=basis.n, rep=rep, submodules=submodules,
                        completeness_residual=float(gram_res))
    # phase check: iso maps the symmetric hwv onto a positive multiple of the antisymmetric one
    sym, anti = dec.by_role("adjoint_sym"), dec.by_role("adjoint_anti")
    v_s = sym.hw_vector / np.linalg.norm(sym.hw_vector)
    v_a = anti.hw_vector / np.linalg.norm(anti.hw_vector)
    overlap = np.vdot(v_a, anti.basis @ (np.conj(sym.basis).T @ v_s))
    if not (abs(overlap - 1.0) <= 1e-6):
        raise AssertionError(f"isometry phase convention violated (overlap {overlap})")
    return dec
