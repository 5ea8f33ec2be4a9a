"""Adjoint representation of su(n) and the decomposition of its tensor square.

Vectors of the two-site module live in the weight coordinates of
:func:`liealg.weight_basis` (matrix units, then Cartan generators B_b): an
element sum_{b,c} v^{bc} B_b (x) B_c is stored as the flat array v of length
(n^2-1)^2, row-major index b*(n^2-1)+c (the Kronecker convention of
:mod:`adjrmat.numerics`).  A decomposition (:func:`build_decomposition`) is
built and checked on the highest-weight vectors of its modules, in the
two-site weight frame ``rep.weight_frame``; its bases, the lowering orbits
of those vectors (:func:`_orbit`), are closed on first read, in Gell-Mann
coordinates, for ``build projectors``.  The representation also holds the
term blocks of ``rep.frame`` compressed onto the highest-weight vectors of
the three-site frame (``rep.ybe_frame``, :class:`TripleSector`), the sector
blocks of D(y) for the Chevalley generators y (``rep.chevalley_deltas``)
and a ``memo`` for what the modules above build once per representation.

Two distinct objects both called "Casimir" are kept strictly separate:

* the *element* Omega = sum_a I^a (x) I^a, an n^2 x n^2 matrix used inside
  the highest-weight-vector formulas (products taken in the fundamental
  tensor-square space);
* the *operator* Omega_op = sum_a S^a (x) S^a acting on the adjoint two-site
  coordinates, whose eigenvalues label the irreducible submodules.  It is
  built in one place, :class:`PairFrame` (``rep.frame``), from the table of
  :func:`liealg.weight_products`, and acts through its weight-sector blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .liealg import SunBasis, WeightChain, weight_chain, weight_coords, weight_products, weight_units, weyl_dimension
from .numerics import DEFAULT_TOL, Tolerance, matching_pairs, max_abs

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
    "weight_ad",
    "casimir_op",
    "apply_swap",
    "site_left",
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
    """Adjoint representation of su(n) on ``basis``: ad(B_x) over the weight basis, in ``frame``."""

    basis: SunBasis

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
        """The :class:`TripleSector` of each dominant sector of ``weight_chain(basis, 3)``, built on first use.

        Each sector holds the real term blocks of ``frame`` compressed onto
        it for the three site pairs, once.
        """
        chain, m = weight_chain(self.basis, 3), self.dim
        pair_label, places, terms = self.weight_frame.label, self.frame.places, self.frame.terms
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
            k = p.shape[1]
            # P^T T P for every term T on each pair, summed over the spectator states
            compressed = [sum(x.reshape(-1, k).T @ (terms[g][:, r] @ x).reshape(len(TERMS), -1, k)
                              for g, r, x in pair) for pair in pairs]
            out.append(TripleSector(dim, p, tuple(pairs), np.stack(compressed)))
        return out

    @cached_property
    def chevalley_deltas(self) -> dict[tuple[int, int], tuple[dict[int, tuple[int, np.ndarray]], float]]:
        """D(y) = ad y (x) 1 + 1 (x) ad y for the Chevalley generators y = e_ij of :func:`generating_set`, built on first use.

        Each D(y) is a dict source sector -> (target, real block) over
        ``weight_frame``, with max(1, max-abs ad y): no entry of D(y) has a
        term from both sites, so that is also max(1, max-abs D(y)).  ad y
        is built real in the weight basis (:func:`root_action`), so the
        blocks are float64.
        """
        chain, out = self.weight_frame, {}
        for ij in generating_set(self.n)[0]:
            alpha = root_weight(self.n, ij)
            x = root_action(chain, alpha)
            out[ij] = ({k: (t, b) for k, t, b in chain.shift_blocks(x, alpha)}, max(1.0, max_abs(x)))
        return out

    @cached_property
    def memo(self) -> dict:
        """What the modules above this one build once per representation, by name or by builder; empty until they do."""
        return {}


@dataclass(frozen=True)
class HighestWeight:
    """One row of the highest-weight-vector table for the tensor square; ``coords`` are two-site weight coordinates."""

    role: str
    label: str
    parity: int
    coords: np.ndarray


@dataclass
class Submodule:
    """Irreducible factor of adjoint (x) adjoint.

    ``dim``, ``omega_eigenvalue`` and ``exchange_parity`` are read off the
    highest-weight vector ``hw_vector`` (weight coordinates) when the
    decomposition is built.  ``basis`` holds orthonormal Gell-Mann columns of
    the lowering orbit of ``hw_vector``; ``orbits`` closes it on the first
    read of any basis of the decomposition.  The D x D projector basis @
    basis^dagger is formed on each access and never kept: the hot paths use
    the operator form of :mod:`adjrmat.rmatrix` instead.
    """

    label: str
    role: str
    hw_vector: np.ndarray
    dim: int
    omega_eigenvalue: float
    exchange_parity: int
    orbits: "_Orbits" = field(repr=False, compare=False)

    @property
    def basis(self) -> np.ndarray:
        """The (D, dim) orthonormal columns of the module."""
        return self.orbits.closed[0][self.role]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ np.conj(self.basis).T


@dataclass
class Decomposition:
    """The decomposition of the adjoint tensor square, held on its highest-weight vectors.

    ``vectors`` holds the normalised highest-weight vectors of the
    ``submodules`` as (D, k) columns of two-site weight coordinates, in the
    same order.  The bases (in Gell-Mann coordinates), their
    completeness residual and the s->a isometry come from ``orbits``, which
    closes every lowering orbit on the first read of any of them.
    """

    n: int
    rep: AdjointRep
    submodules: list[Submodule]
    vectors: np.ndarray
    orbits: "_Orbits" = field(repr=False, compare=False)

    def by_role(self, role: str) -> Submodule:
        for sub in self.submodules:
            if sub.role == role:
                return sub
        raise KeyError(f"no submodule with role {role!r}")

    @property
    def completeness_residual(self) -> float:
        """max_abs(B^dagger B - 1) of the stacked bases, taken one weight sector at a time."""
        return self.orbits.closed[1]

    @cached_property
    def iso_s_to_a(self) -> np.ndarray:
        """The D x D equivariant isometry B_a B_s^dagger, formed on first read and kept.

        Nothing in the package reads it: the oracles apply it as
        B_a (B_s^dagger v).
        """
        anti = self.by_role("adjoint_anti").basis
        return anti @ np.conj(self.by_role("adjoint_sym").basis).T

    def table(self, diag: dict[str, complex], block: np.ndarray) -> np.ndarray:
        """The k x k matrix T of sum_role diag[role] P_role + ``block`` on the adjoint pair, on ``vectors`` = V.

        An invariant operator with this projector table maps the
        highest-weight vector of a scalar module to diag[role] times itself
        (a missing role counts as 0), and the pair (v_s, v_a), which the
        s->a isometry maps onto each other, to (v_s, v_a) ``block``: it maps
        V to V T, and V^dagger X V = T.
        """
        roles = [sub.role for sub in self.submodules]
        table = np.diag([complex(diag.get(role, 0.0)) for role in roles])
        pair = [roles.index("adjoint_sym"), roles.index("adjoint_anti")]
        table[np.ix_(pair, pair)] = block
        return table


def adjoint_rep(basis: SunBasis, tol: Tolerance = DEFAULT_TOL, validate: bool = True) -> AdjointRep:
    """The adjoint representation on ``basis``.

    ``validate`` checks the real stack A^x = ad(B_x) that ``rep.frame`` reads:
    Hermiticity as ad(B_x)^T = ad(B_x^T), the representation property
    (:func:`_representation_residual`) and sum_x ad(B_x^T) ad(B_x) = 2n * 1.
    """
    rep = AdjointRep(basis=basis)
    if validate:
        m, partner = basis.dim, _partner(basis.n)
        ad = np.zeros((m, m, m))
        op, row, col, val = rep.frame.ad
        ad[op, row, col] = val
        if max_abs(ad.transpose(0, 2, 1) - ad[partner]) > tol.abs_tol:
            raise AssertionError("adjoint matrices are not Hermitian")
        if _representation_residual(ad) > tol.abs_tol * m:
            raise AssertionError("adjoint matrices violate the representation property")
        cas = np.einsum("aij,ajk->ik", ad[partner], ad, optimize=True)
        if max_abs(cas - 2.0 * basis.n * np.eye(m)) > tol.abs_tol * m:
            raise AssertionError("adjoint Casimir sum deviates from 2n * 1")
    return rep


# target size of a temporary of the representation check, in bytes: blocks of
# about 1 MB ran faster than one 5 MB block at n = 5 (cache), and a block is
# never less than one generator (2 MB at n = 8)
_VALIDATE_BLOCK_BYTES = 2**20


def _representation_residual(ad: np.ndarray) -> float:
    """max_abs([A^x, A^y] - ad([B_x, B_y])) over all x, y, for the real stack A^x = ad(B_x).

    ad([B_x, B_y]) = sum_c A^x_cy A^c.  The x are taken in blocks of k, so that
    a temporary holds about :data:`_VALIDATE_BLOCK_BYTES` (k m^3 entries).
    """
    m = ad.shape[0]
    step = max(1, _VALIDATE_BLOCK_BYTES // (8 * m**3))
    worst = 0.0
    for block in (ad[lo : lo + step] for lo in range(0, m, step)):
        comm = np.einsum("xij,yjk->xyik", block, ad, optimize=True) - np.einsum("yij,xjk->xyik", ad, block, optimize=True)
        worst = max(worst, max_abs(comm - np.einsum("xcy,cik->xyik", block, ad, optimize=True)))
    return worst


def ad_matrix(basis: SunBasis, x: np.ndarray) -> np.ndarray:
    """Matrix of ad(x) on coordinates: A_{ab} = tr(I^a [x, I^b])."""
    gens = basis.generators
    comm = np.einsum("ij,bjk->bik", x, gens) - np.einsum("bij,jk->bik", gens, x)
    return np.einsum("aij,bji->ab", gens, comm, optimize=True)


def weight_ad(basis: SunBasis, x: np.ndarray) -> np.ndarray:
    """ad(x) in weight coordinates, column b :func:`liealg.weight_coords` of [x, B_b], for an n x n x or a stack of them.

    A real x gives a real ad(x); ad(e_pq) has O(n) nonzeros in this basis.
    """
    units = weight_units(basis)
    x = np.asarray(x)[..., None, :, :]
    return np.swapaxes(weight_coords(basis, x @ units - units @ x), -1, -2)


def casimir_op(rep: AdjointRep) -> np.ndarray:
    """Omega_op = sum_a S^a (x) S^a on the two-site Gell-Mann coordinates, as a new dense array.

    It is the scatter of ``rep.frame.omega_entries`` (:meth:`PairFrame.dense_omega`).
    """
    return rep.frame.dense_omega()


def apply_swap(v: np.ndarray, dim_v: int) -> np.ndarray:
    """sigma v for flat two-site coordinates shaped (D,) or (D, k): entry (a, b) goes to (b, a)."""
    return v.reshape(dim_v, dim_v, -1).transpose(1, 0, 2).reshape(v.shape)


def site_left(a: np.ndarray, x: np.ndarray, site: int) -> np.ndarray:
    """(a (x) 1) x for ``site`` 0 and (1 (x) a) x for ``site`` 1, on a (D,) or (D, k) array.

    One m x m matmul on a reshaped view: m^3 k multiply-adds, where the
    product with the dense D x D factor would take m^4 k.
    """
    m = a.shape[0]
    if site == 0:
        return (a @ x.reshape(m, -1)).reshape(x.shape)
    return np.matmul(a, x.reshape(m, m, -1)).reshape(x.shape)


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
    """ad(e_pq) for the root alpha = e_p - e_q, in the single-site weight coordinates of ``chain``, real (:func:`weight_ad`)."""
    unit = np.zeros((chain.basis.n, chain.basis.n))
    unit[np.argmax(alpha), np.argmin(alpha)] = 1.0
    return weight_ad(chain.basis, unit)


@dataclass(frozen=True)
class TripleSector:
    """A dominant sector of the three-site weight frame, on its highest-weight vectors.

    ``basis`` is P, the (d, k) real orthonormal highest-weight vectors of the
    sector, one per copy of the module V of its weight, and ``dim`` is dim V:
    an invariant X acts on the copies as 1 (x) A on V (x) C^k (Schur's
    lemma), A = P^T X P.  P is fixed only up to a rotation of the copies
    (:func:`highest_weight_bases` takes it by inverse iteration on fixed
    draws), which turns A and moves no norm of it.  A two-site operator on
    the sites (1, 2), (1, 3) or (2, 3) (``pairs[0..2]``) is block-diagonal
    in the sector over the state of the spectator site, each block its
    two-site sector block at the weight left, states in the same order.
    So each pair lists (g, r, p), one per sector size of
    ``rep.frame.sectors``: p[s] holds the rows of P with one spectator
    state, and blocks[g][r[s]] is the block they meet.

    ``terms`` holds P^T T P for the real term blocks T of ``rep.frame``
    (:data:`TERMS`) on each pair, a real (3, len(TERMS), k, k) array: a
    two-site operator sum_t c_t T_t on pair p compresses to
    sum_t c_t terms[p, t], with no block of it formed.
    """

    dim: int
    basis: np.ndarray
    pairs: tuple[list[tuple[int, np.ndarray, np.ndarray]], ...]
    terms: np.ndarray


# columns of the first block of the inverse iteration: more than the largest multiplicity
# at three sites (9), so no three-site sector doubles its block
_KERNEL_BLOCK = 16


def _raising_grams(chain: WeightChain, tol: Tolerance):
    """(sector, G, bound) for each dominant sector of ``chain``, in order, one Gram at a time.

    G = sum_i E_i^T E_i over the simple raising operators sum_s ad_s(e_{i,i+1}),
    whose sector blocks E_i are real.  It is assembled from their nonzero
    entries (:meth:`WeightChain.shift_entries`, on the site tables cut once
    to the dominant sectors by :meth:`WeightChain.restricted`) and no E_i
    is formed: two entries v1, v2 of one E_i on the same target row add
    v1 v2 to G at their source states.  ``bound``, the largest sum of
    |v1 v2| over a row of G, is at least G's largest absolute row sum, so it
    bounds G's largest eigenvalue.
    """
    n, label, dominant = chain.basis.n, chain.label, chain.weyl_orbits
    leaving = chain.restricted(dominant)
    src, row, val = [], [], []
    for i in range(1, n):
        alpha = root_weight(n, (i, i + 1))
        s, t, v = leaving.shift_entries(root_action(chain, alpha), alpha, tol)
        nz = v != 0.0
        src.append(s[nz])
        row.append(t[nz] + (i - 1) * len(label))  # a row of E_i: the root and the target state
        val.append(v[nz])
    order = np.argsort(np.concatenate(row), kind="stable")
    src, row, val = (np.concatenate(x)[order] for x in (src, row, val))
    left, right = matching_pairs(row, row)  # every ordered pair of entries on one row
    sector = label[src[left]]
    order = np.argsort(sector, kind="stable")
    sector = sector[order]
    place = chain.place
    for w, lo, hi in zip(dominant.tolist(), np.searchsorted(sector, dominant),
                         np.searchsorted(sector, dominant, side="right")):
        at = order[lo:hi]
        d = len(chain.blocks[w])
        r, c, v = place[src[left[at]]], place[src[right[at]]], val[left[at]] * val[right[at]]
        gram = np.bincount(r * d + c, weights=v, minlength=d * d).astype(float, copy=False).reshape(d, d)
        yield w, gram, np.bincount(r, weights=np.abs(v), minlength=d).max()


def highest_weight_bases(chain: WeightChain, tol: Tolerance = DEFAULT_TOL) -> list[tuple[int, int, np.ndarray]]:
    """(sector, dim V, P) for each dominant sector of ``chain`` that holds highest-weight vectors.

    P is a real orthonormal basis of the common kernel in the sector of the
    simple raising operators, the null space of their Gram G
    (:func:`_raising_grams`), and dim V is :func:`liealg.weyl_dimension` of
    the sector's weight.  The kernel is taken by inverse iteration and
    Rayleigh-Ritz (Golub and Van Loan, Matrix Computations, 4th ed.,
    sections 8.2 and 10.1):

    * sigma = 1e-10 times a bound on G's largest eigenvalue is added to
      G's diagonal in place, so that the one LU copy of a solve is the only
      other array of G's size;
    * two solves of G + sigma on a block of random columns, orthonormalised,
      give Q, whose span holds the kernel to roundoff (in the largest
      sector the smallest nonzero eigenvalue is about 0.1 at n = 8 and 10);
    * the eigenvalues of Q^T (G + sigma) Q, less sigma, at most
      ``tol.rank_tol`` count the kernel, and their eigenvectors give P.  If
      all of them do, the block doubles.

    A sector no larger than the block takes Q = 1, a plain ``eigh``.  The
    columns are drawn from a generator seeded in this call, so equal chains
    give bit-identical P.  Unless sum k dim V = m^L, ``AssertionError`` is
    raised.
    """
    rng, out = np.random.default_rng(0), []
    for w, gram, bound in _raising_grams(chain, tol):
        d = len(gram)
        sigma = 1e-10 * max(bound, 1.0)  # at least 1e-10, so G + sigma is regular when G = 0
        gram.flat[:: d + 1] += sigma
        block = _KERNEL_BLOCK
        while True:
            if d <= block:
                q = np.eye(d)
            else:
                x = rng.standard_normal((d, block))
                q = np.linalg.qr(np.linalg.solve(gram, np.linalg.solve(gram, x)))[0]
            vals, vecs = np.linalg.eigh(q.T @ gram @ q)
            kernel = vals - sigma <= tol.rank_tol
            if d <= block or not kernel.all():
                break
            block *= 2
        if kernel.any():
            out.append((w, weyl_dimension(chain.sector_weights[w]), q @ vecs[:, kernel]))
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


def _partner(n: int) -> np.ndarray:
    """The index of B_b^dagger in the weight basis for each b: e_ij and e_ji swap, each Cartan generator is its own."""
    partner = np.arange(n * n - 1)
    partner[: n * (n - 1)] ^= 1  # e_ij is listed just before e_ji
    return partner


def highest_weight_vectors(basis: SunBasis, tol: Tolerance = DEFAULT_TOL) -> list[HighestWeight]:
    """Highest-weight vectors of the tensor-square submodules, in table order, in two-site weight coordinates.

    Each is a sum of products c(e_ij) (x) c(e_kl), c the weight coordinates of
    a matrix unit's traceless part (:func:`liealg.weight_coords`): 1 to m
    nonzeros.  The adjoint rows n {Omega, 1 (x) e_1n} and sqrt(n^2 - 4)
    [Omega, 1 (x) e_1n] use Omega = P - 1/n, P the swap of the fundamental
    factors, with P (1 (x) e_1n) = sum_j e_1j (x) e_jn and (1 (x) e_1n) P =
    sum_j e_jn (x) e_1j; the singlet is sum_b B_b^dagger (x) B_b.  ``tol``
    is unread.
    """
    n = basis.n
    labels = _labels(n)
    c = weight_coords(basis, np.eye(n * n).reshape(n, n, n, n))  # c[i, j] = c(e_ij), 0-based

    def pair(u, v):
        return np.outer(u, v).ravel()

    top, left, right = c[0, n - 1], c[0, n - 2], c[1, n - 1]
    rows = [
        HighestWeight("sym_top", labels["sym_top"], 1, pair(top, top)),
        HighestWeight("anti_left", labels["anti_left"], -1, pair(left, top) - pair(top, left)),
        HighestWeight("anti_right", labels["anti_right"], -1, pair(right, top) - pair(top, right)),
    ]
    if n >= 4:
        inner = c[1, n - 2]
        sym = pair(inner, top) + pair(top, inner) - pair(left, right) - pair(right, left)
        rows.append(HighestWeight("mixed_sym", labels["mixed_sym"], 1, sym))
    swap_e, e_swap = c[0].T @ c[:, n - 1], c[:, n - 1].T @ c[0]  # P (1 (x) e_1n), (1 (x) e_1n) P
    rows.append(HighestWeight("adjoint_sym", labels["adjoint_sym"], 1, n * (swap_e + e_swap).ravel()))
    rows.append(HighestWeight("adjoint_anti", labels["adjoint_anti"], -1,
                              np.sqrt(n * n - 4.0) * (swap_e - e_swap).ravel()))
    rows.append(HighestWeight("singlet", labels["singlet"], 1, np.eye(basis.dim)[_partner(n)].ravel()))
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
    The orbit is closed when a round adds nothing.  ``seed`` and the basis
    are in two-site weight coordinates, the basis columns grouped by sector
    in increasing order.  ``seed`` must be a weight vector: support in more
    than one weight block raises ``ValueError``.
    """
    xw = np.ravel(seed)
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


def _weight_operators(basis: SunBasis) -> tuple[tuple, tuple]:
    """The nonzeros (x, row, column, value), sorted, of ad(B_x) and of D(B_x), the traceless anticommutator.

    Column b of each is T[x, b] -/+ T[b, x], T the table of :func:`liealg.weight_products`.
    """
    m, (x, b, c, v) = basis.dim, weight_products(basis)
    rows, cols = np.concatenate([x * m + c, b * m + c]), np.concatenate([b, x])
    return tuple((*np.divmod(r, m), col, val) for r, col, val in
                 (_summed(rows, cols, np.concatenate([v, sign * v]), m) for sign in (-1.0, 1.0)))


def _adjoint_copies(n: int, ad: tuple, anti: tuple) -> tuple[tuple, tuple]:
    """The adjoint copies Ed and Ef in adj (x) adj, each as the nonzeros (rows, columns, values) of a real (D, m) array.

    Column x of Ed is sum_b B_b^dagger (x) {B_x, B_b}, the basis-free form of
    sum_bc d^{abc} I^b (x) I^c at I^a = B_x, and of Ef -sum_b B_b^dagger (x)
    [B_x, B_b], that of -f^{a..}, normalized: entry (partner(b), c) is D(B_x)_cb or -ad(B_x)_cb.
    """
    m, partner = n * n - 1, _partner(n)
    return tuple((partner[b] * m + c, x, sign * v / np.sqrt(np.bincount(x, weights=v * v, minlength=m))[x])
                 for sign, (x, c, b, v) in ((1.0, anti), (-1.0, ad)))


# entries of d, f, E, Omega_op and the projectors in Gell-Mann coordinates below this size are roundoff
_SPARSE_ZERO = 1e-12
# the terms of PairFrame.terms: 1, sigma, Omega_op, Omega_op sigma, E^i E^j^dagger for i, j in {d, f}, s s^dagger
TERMS = ("eye", "swap", "omega", "omega_swap", "dd", "df", "fd", "ff", "singlet")


def _cut(x: np.ndarray) -> np.ndarray:
    """``x`` with every real and imaginary part of size at most :data:`_SPARSE_ZERO` set to 0, in place."""
    for part in (x.real, x.imag) if np.iscomplexobj(x) else (x,):
        part[np.abs(part) <= _SPARSE_ZERO] = 0.0
    return x


def _summed(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """The distinct (rows, columns) of entries of a matrix with ``size`` columns, and their sums above ``_SPARSE_ZERO``."""
    key, inverse = np.unique(rows * size + cols, return_inverse=True)
    total = np.bincount(inverse, weights=vals)
    keep = np.abs(total) > _SPARSE_ZERO
    return (*np.divmod(key[keep], size), total[keep])


def _crossed_entries(a: tuple, b: tuple, m: int) -> tuple[np.ndarray, ...]:
    """The nonzeros of sum_c A^c (x) B^c, [(i, k), (j, l)] = sum_c A^c_ij B^c_kl, from those (c, i, j, value) of A and B."""
    (ca, i, j, va), (cb, k, l, vb) = a, b
    p, q = matching_pairs(ca, cb)
    return _summed(i[p] * m + k[q], j[p] * m + l[q], va[p] * vb[q], m * m)


class PairFrame:
    """Invariant building blocks of operators on adjoint (x) adjoint, from the weight basis alone.

    ``ad`` and ``anti`` hold the nonzeros of ad(B_x) and D(B_x)
    (:func:`_weight_operators`), and ``E_w`` those of the two adjoint copies
    (:func:`_adjoint_copies`).  An invariant operator conserves total weight,
    so in the weight frame ``chain`` (``rep.weight_frame``) it is a set of
    small sector blocks: ``terms`` holds those of the :data:`TERMS`, stacked
    by sector size (at most five sizes at any n), all real and exact.  An
    operator is a combination of them (:meth:`combine`) and acts by one
    gather, batched matmul and scatter per size (:meth:`apply_weight`).
    ``E`` and ``omega_entries`` are E and Omega_op in Gell-Mann coordinates,
    formed from d and f on first read for the Gell-Mann writers.
    """

    def __init__(self, basis: SunBasis, chain: WeightChain):
        self.n, self.m, self.chain = basis.n, basis.dim, chain
        self.ad, self.anti = _weight_operators(basis)
        self.E_w = _adjoint_copies(basis.n, self.ad, self.anti)

    @cached_property
    def E(self) -> np.ndarray:
        """[Ed Ef] on the columns of the I^a in Gell-Mann coordinates, (D, 2m): the normalized columns d^{a..} and -f^{a..}."""
        basis, m = self.chain.basis, self.m
        e = np.hstack([t.reshape(m, m * m).T for t in (basis.d, -basis.f)])
        return _cut(e / np.linalg.norm(e, axis=0))

    @cached_property
    def omega_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Omega_op's nonzeros (rows, columns, values) in Gell-Mann coordinates: -sum_c F^c (x) F^c, f = iF."""
        big_f = self.chain.basis.f.imag
        mask = np.abs(big_f) > _SPARSE_ZERO
        nonzeros = (*np.nonzero(mask), big_f[mask])
        rows, cols, vals = _crossed_entries(nonzeros, nonzeros, self.m)
        return rows, cols, -vals

    @cached_property
    def sectors(self) -> list[np.ndarray]:
        """The states of the sectors of ``chain``, one (S, d) array per sector size d, in increasing size."""
        sizes = sorted({len(idx) for idx in self.chain.blocks})
        return [np.stack([idx for idx in self.chain.blocks if len(idx) == d]) for d in sizes]

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Start of each size and of each state's row in one flat array of blocks, and each state's place."""
        D = self.m * self.m
        offsets = np.cumsum([0] + [idx.size * idx.shape[1] for idx in self.sectors])
        pos, row0 = np.empty(D, dtype=int), np.empty(D, dtype=int)
        for idx, lo in zip(self.sectors, offsets):
            S, d = idx.shape
            pos[idx] = np.arange(d)
            row0[idx] = lo + d * np.arange(S * d).reshape(S, d)
        return offsets, row0, pos

    def sector_blocks(self, entries: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[np.ndarray]:
        """The sector blocks of an invariant operator from its distinct nonzeros, by one scatter; a stray entry raises."""
        label = self.chain.label
        offsets, row0, pos = self._layout
        rows, cols, vals = entries
        stray = label[rows] != label[cols]
        if stray.any():
            raise AssertionError(f"{np.count_nonzero(stray)} entries of an invariant operator leave their weight sector")
        flat = np.zeros(offsets[-1], dtype=vals.dtype)
        flat[row0[rows] + pos[cols]] = vals
        return [flat[lo:hi].reshape(idx.shape + idx.shape[1:])
                for idx, lo, hi in zip(self.sectors, offsets, offsets[1:])]

    def crossed(self, a: tuple, b: tuple) -> list[np.ndarray]:
        """The sector blocks of sum_x A(B_x)^T (x) B(B_x), = sum_x A(B_x^T) (x) B(B_x) for ad and D, from their nonzeros."""
        x, i, j, v = a
        return self.sector_blocks(_crossed_entries((x, j, i, v), b, self.m))

    @cached_property
    def terms(self) -> list[np.ndarray]:
        """The sector blocks of the :data:`TERMS`, one real (len(TERMS), S, d, d) stack per entry of ``sectors``.

        sigma permutes the states of a sector, Omega_op is :meth:`crossed`
        of ``ad`` with itself, E^i E^j^dagger sums the pairs of nonzeros of
        E^i and E^j in one column, and s is the singlet row of
        :func:`highest_weight_vectors` over sqrt(m).
        """
        m, D = self.m, self.m * self.m
        pos = self._layout[2]
        swap = apply_swap(np.arange(D), m)
        products = []
        for (ri, xi, vi), (rj, xj, vj) in ((e, f) for e in self.E_w for f in self.E_w):
            p, q = matching_pairs(xi, xj)
            products.append(self.sector_blocks(_summed(ri[p], rj[q], vi[p] * vj[q], D)))
        s_w = np.eye(m)[_partner(self.n)].ravel() / np.sqrt(m)
        out = []
        for g, (idx, omega) in enumerate(zip(self.sectors, self.crossed(self.ad, self.ad))):
            S, d = idx.shape
            t = np.zeros((len(TERMS), S, d, d))
            t[0] = np.eye(d)
            t[1, np.arange(S)[:, None], pos[swap[idx]], np.arange(d)] = 1.0
            t[2] = omega
            t[3] = t[2] @ t[1]
            t[4:8] = [blocks[g] for blocks in products]
            s = s_w[idx]
            t[8] = s[:, :, None] * s[:, None, :]
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
        """The sector blocks of sum_t coefficients[t] TERMS[t], one (S, d, d) stack per size.

        One real product per size, against the real and imaginary parts of
        the coefficients side by side, read back as complex.
        """
        c = np.asarray(coefficients, dtype=complex)
        parts = np.stack([c.real, c.imag], axis=1)
        return [(t.reshape(len(t), -1).T @ parts).view(complex).reshape(t.shape[1:]) for t in self.terms]

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


@dataclass(frozen=True)
class _Orbits:
    """The submodule bases of a decomposition, closed on first read, all at once (:attr:`closed`).

    ``rows`` are the highest-weight vectors and ``dims`` their Weyl
    dimensions, in table order, as :func:`build_decomposition` checked them.
    """

    rep: AdjointRep
    rows: list[HighestWeight]
    dims: list[int]
    tol: Tolerance

    @cached_property
    def closed(self) -> tuple[dict[str, np.ndarray], float]:
        """(the basis of each role, the completeness residual), checked before they are kept.

        The adjoint copies are the columns Ed and Ef of ``rep.frame.E``, the
        normalized d^{a..} and -f^{a..}, so mapping column to column is the
        equivariant isometry -Ef Ed^dagger, whose sign fixes iso(v_s) =
        +(norm ratio) v_a.  Every other basis is the lowering orbit of its
        row, closed one sector of ``rep.weight_frame`` at a time
        (:func:`_orbit`).  Each basis is checked in that frame, split by
        sector (the copies, as written, rotated there as (U (x) U) B U^T), with
        no D x D array formed: its Casimir eigenvalue and parity
        (:func:`_measure`) and its Weyl dimension; then completeness and
        mutual orthogonality, as the Gram residual max_W max_abs(G_W - 1)
        over the sectors W, floored by the largest off-sector share of any
        column and by max_abs(U U^dagger - 1); then the isometry phase, as
        B_a (B_s^dagger v_s).  Only then are the orbits rotated to Gell-Mann
        coordinates, one at a time.
        """
        rep, tol = self.rep, self.tol
        m = rep.dim
        lowering, pair = _weight_blocks(rep, tol), rep.frame
        chain = lowering.chain
        u = chain.u
        copies = {"adjoint_sym": slice(0, m), "adjoint_anti": slice(m, 2 * m)}
        bases: dict[str, np.ndarray] = {}
        sectors: dict[int, list[np.ndarray]] = {}
        gram_res = max_abs(u @ np.conj(u).T - np.eye(m))
        for row, dim in zip(self.rows, self.dims):
            xw = pair.to_weight(pair.E[:, copies[row.role]]) @ u.T if row.role in copies else _orbit(lowering, row.coords, tol)
            if xw.shape[1] != dim:
                raise AssertionError(f"the {row.role} basis has {xw.shape[1]} columns, "
                                     f"not its Weyl dimension {dim}")
            parts, off = _sector_columns(chain, xw)
            gram_res = max(gram_res, off)
            for w, cols in parts:
                sectors.setdefault(w, []).append(cols)
            _measure(pair, parts, tol, row.parity)
            bases[row.role] = xw
        for parts in sectors.values():
            cols = np.hstack(parts)
            gram_res = max(gram_res, max_abs(np.conj(cols).T @ cols - np.eye(cols.shape[1])))
        del sectors
        if gram_res > tol.abs_tol * m:
            raise AssertionError(f"projector completeness residual {gram_res:.3e}")
        # phase check: iso maps the symmetric hwv onto a positive multiple of the antisymmetric one
        hw = {row.role: row.coords / np.linalg.norm(row.coords) for row in self.rows}
        sym, anti = bases["adjoint_sym"], bases["adjoint_anti"]
        overlap = np.vdot(hw["adjoint_anti"], anti @ (np.conj(sym).T @ hw["adjoint_sym"]))
        if not (abs(overlap - 1.0) <= 1e-6):
            raise AssertionError(f"isometry phase convention violated (overlap {overlap})")
        return {role: pair.E[:, copies[role]] if role in copies else pair.from_weight(bases.pop(role))
                for role in list(bases)}, float(gram_res)


def build_decomposition(rep: AdjointRep, tol: Tolerance = DEFAULT_TOL) -> Decomposition:
    """Decompose adjoint (x) adjoint into submodules, on their highest-weight vectors.

    An invariant operator is fixed by what it does to the highest-weight
    vectors of the modules (Schur's lemma), so the decomposition is built
    and checked on the normalised rows of :func:`highest_weight_vectors`
    (seven at n >= 4, six at n = 3), ``Decomposition.vectors``, and closes
    no orbit.  Each row is checked, to within ``abs_tol * (n^2 - 1)``, in
    ``rep.weight_frame``:

    * it is a weight vector: its share outside one sector (:func:`_sector_columns`);
    * the n - 1 simple raising operators kill it; their sector blocks are
      the e_{i,i+1} entries of ``rep.chevalley_deltas``;
    * Omega_op v = omega v with omega real, and sigma v = parity v for its
      stated parity, with the blocks of ``rep.frame`` (:func:`_measure`).

    The rows must be orthonormal, and the Weyl dimensions of their weights
    (:func:`liealg.weyl_dimension`) must sum to D.  These checks give each
    submodule its ``dim``, ``omega_eigenvalue`` and ``exchange_parity``; a
    failure raises ``AssertionError``.  The bases, the completeness
    residual and the isometry are closed on first read (:class:`_Orbits`).
    """
    basis, m = rep.basis, rep.dim
    rows = highest_weight_vectors(basis, tol)
    chain, pair, tol_m = rep.weight_frame, rep.frame, tol.abs_tol * m
    vectors = np.stack([row.coords / np.linalg.norm(row.coords) for row in rows], axis=1)
    raising = [rep.chevalley_deltas[i, i + 1][0] for i in range(1, rep.n)]
    dims, measured = [], []
    for row, col in zip(rows, vectors.T):
        [(w, x)], off = _sector_columns(chain, col[:, None])
        if off > tol_m:
            raise AssertionError(f"the {row.role} highest-weight vector is not a weight vector: "
                                 f"{off:.3e} of its norm lies outside its sector")
        raised = max((max_abs(d[w][1] @ x) for d in raising if w in d), default=0.0)
        if raised > tol_m:
            raise AssertionError(f"a simple raising operator does not kill the {row.role} "
                                 f"highest-weight vector (residual {raised:.3e})")
        measured.append(_measure(pair, [(w, x)], tol, row.parity))
        dims.append(weyl_dimension(chain.sector_weights[w]))
    gram = max_abs(np.conj(vectors).T @ vectors - np.eye(len(rows)))
    if gram > tol_m:
        raise AssertionError(f"the highest-weight vectors are not orthonormal (residual {gram:.3e})")
    if sum(dims) != m * m:
        raise AssertionError(f"submodule dimensions sum to {sum(dims)}, expected {m * m}")
    orbits = _Orbits(rep, rows, dims, tol)
    submodules = [Submodule(row.label, row.role, row.coords, dim, ev, parity, orbits)
                  for row, dim, (ev, parity) in zip(rows, dims, measured)]
    return Decomposition(n=basis.n, rep=rep, submodules=submodules, vectors=vectors, orbits=orbits)
