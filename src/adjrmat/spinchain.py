"""Integrable spin chain built from the adjoint R-matrix.

The local Hamiltonian is the logarithmic-derivative density h = R'(0) sigma,
assembled once from the exact rational derivatives of the scalar coefficient
functions through the operator form of :mod:`rmatrix`: :func:`h_op` takes
only the :class:`AdjointRep` and returns h as a :class:`rmatrix.PairOperator`;
the D x D Gell-Mann array :func:`local_h` serves only the chain artifact
(``build hamiltonian``).  h commutes with su(n), so the checks of h read
it on the normalised highest-weight vectors V of a :class:`Decomposition`
(Schur's lemma; no lowering orbit is closed), in two-site weight
coordinates as every vector of this module: h V against the table of
closed-form projector coefficients (:func:`h_table`), and everything else
from hc = V^dagger h V (:func:`h_on_vectors`) and the Weyl dimensions.
h's weight-sector blocks are read only by the premise, their commutator
with the Chevalley generators (:func:`rmatrix._invariance_gap`), and by a
central finite difference of R(lam) sigma: :func:`h_oracle_residuals`,
the ``h-assembly-agreement`` and ``h-finite-difference`` checks.  The
density is deliberately non-Hermitian while keeping a real two-site
spectrum (:func:`nonhermiticity`, :func:`two_site_spectrum`).

The closed spin form of h in the operators Q, C_A and K is checked on the
same highest-weight vectors V: the four commute with su(n), so each is the
k x k matrix V^dagger A V (Schur's lemma; :class:`SpinOperators`), and the
fit, its trace-matched shift and the Frobenius norm of [K, C_A] are
functions of those matrices and the Weyl dimensions of the modules.  Like
h, each acts on V through its weight-sector blocks (:func:`spin_apply`):
Q is Omega_op, and C_A and K combine crossed sums of ad and D built like
it, real and exact (:func:`_spin_blocks`, built once per representation),
so no D x D operator is formed and no f or d is read.
:func:`spin_invariance_residual` is the premise that the three map V into
its span and that the blocks of C_A and K commute with su(n).

The periodic chain is built bond by bond: :func:`chain_H` adds h into the
diagonal view of H for each bond of the ring, never forming h (x) 1, and
returns H as a plain m^L x m^L array, and :func:`transfer_matrix` is one
contraction of L R factors around the auxiliary ring.

H and t(lam) conserve the total Cartan weight, so the chain is studied in
the weight frame of :func:`liealg.weight_chain` (:func:`chain_frame`), where
both are block-diagonal.  What needs h or R is here, as functions of the
frame: H_w is :func:`chain_H` of h's blocks scattered into weight
coordinates (:meth:`rmatrix.PairOperator.weight_dense`) and t_w(lam)
(:func:`weight_transfer`) the ring of R(lam)'s, so no Gell-Mann h or R is
formed.  Every chain check goes one total-weight sector at a time: the
spectrum (:func:`sector_spectrum`, in real arithmetic),
the transfer commutators (:func:`sector_commutator`) and the su(n)
invariance of H (:func:`global_symmetry_residual`, on the Cartan and
Chevalley generators).  No m^L x m^L matrix product is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adjoint_tensor import (
    AdjointRep,
    Decomposition,
    PairFrame,
    generating_set,
    root_action,
    root_weight,
)
from .liealg import SunBasis, WeightChain, weight_chain
from .numerics import DEFAULT_TOL, Tolerance, eig_general, max_abs
from .rmatrix import (
    CoefficientSet,
    PairOperator,
    _invariance_gap,
    build_R,
    operator_form,
    r_op,
)

__all__ = [
    "CHAIN_DIM_CAP",
    "SpinOperators",
    "h_op",
    "local_h",
    "h_table",
    "h_oracle_residuals",
    "nonhermiticity",
    "spin_apply",
    "spin_operators",
    "spin_invariance_residual",
    "spinform_h",
    "h_on_vectors",
    "verify_spinform",
    "chain_H",
    "transfer_matrix",
    "chain_frame",
    "weight_transfer",
    "sector_spectrum",
    "sector_commutator",
    "commutation_check",
    "global_symmetry_residual",
    "two_site_spectrum",
    "chain_spectrum",
]

CHAIN_DIM_CAP = 10_000
FD_STEP = 1e-5  # step of the central finite difference in h_oracle_residuals


@dataclass(frozen=True)
class SpinOperators:
    """Q, C_A and K on the normalised highest-weight vectors V of adj (x) adj, as the k x k matrices V^dagger A V.

    Each operator commutes with su(n), so by Schur's lemma it maps V into
    its span and acts on module M as 1 (x) A_M: everything the spin form
    reads is a function of these matrices and of ``dims``, the Weyl
    dimension dim M of each column, with A V from A's sector blocks
    (:func:`spin_apply`).  ``off_span`` is the largest share of A V outside
    the span of V, max_abs((1 - V V^dagger) A V) / max_abs(A V), over the
    three (0 when the compressions are dense operators with unit ``dims``,
    as the tests' oracle builds them).
    """

    Q: np.ndarray
    C_A: np.ndarray
    K: np.ndarray
    dims: np.ndarray
    off_span: float = 0.0

    @cached_property
    def commutator(self) -> np.ndarray:
        """[K, C_A], formed on first read and kept, so a suite forms it once."""
        return self.K @ self.C_A - self.C_A @ self.K

    def norm(self, a: np.ndarray) -> float:
        return _weighted_norm(a, self.dims)


def _weighted_norm(a: np.ndarray, dims: np.ndarray) -> float:
    """sqrt(sum_M dim M ||row M of a||^2): the Frobenius norm of the invariant operator compressed to ``a``."""
    return float(np.sqrt(dims @ np.sum(np.abs(a) ** 2, axis=1)))


def _h_coefficients(n: int) -> tuple[dict[str, float], np.ndarray]:
    """Projector coefficients of h and the 2x2 adjoint-pair block."""
    c = CoefficientSet(n)
    root = np.sqrt(n * n - 4.0)
    block = np.array(
        [
            [(n + 2.0) ** 2 / (2.0 * n), root / 2.0],
            [-root / 2.0, 2.0 - n / 2.0],
        ],
        dtype=complex,
    )
    diag = {
        "anti_left": 2.0,
        "anti_right": 2.0,
        "mixed_sym": 4.0,
        "singlet": c.f4_deriv0(),
    }
    return diag, block


def h_op(rep: AdjointRep) -> PairOperator:
    """Local Hamiltonian h = R'(0) sigma in operator form.

    The exact derivatives of the R-form coefficients at 0 go through the
    operator form of :mod:`rmatrix`, composed with sigma.  ``verify
    hamiltonian`` compares its blocks with two independent constructions
    through :func:`h_oracle_residuals`.
    """
    c = CoefficientSet(rep.n)
    deriv_diag = {
        "sym_top": 0.0,
        "anti_left": -c.f1_deriv0(),
        "anti_right": -c.f1_deriv0(),
        "mixed_sym": c.f3_deriv0(),
        "singlet": c.f4_deriv0(),
    }
    return operator_form(rep.frame, deriv_diag, c.N_deriv0()).swap_right()


def local_h(rep: AdjointRep) -> np.ndarray:
    """h as a D x D array in Gell-Mann coordinates, for ``build hamiltonian``."""
    return h_op(rep).dense()


def h_table(dec: Decomposition) -> np.ndarray:
    """The k x k table T of :func:`_h_coefficients` on the highest-weight vectors of ``dec`` (:meth:`Decomposition.table`)."""
    return dec.table(*_h_coefficients(dec.n))


def h_oracle_residuals(dec: Decomposition, h: PairOperator, hv: np.ndarray) -> tuple[float, float]:
    """Max-abs residuals of the density ``h`` (:func:`h_op`) against its two independent constructions.

    Returns (table, finite difference): max_abs(h V - V T) on the
    normalised highest-weight vectors V of ``dec``, with ``hv`` = h V
    (``h.apply(dec.vectors)``) and T = :func:`h_table`; and the central
    finite difference of R(lam) sigma with step :data:`FD_STEP`, over every
    entry of the sector blocks of h.  An invariant h is fixed by what it
    does to V (Schur's lemma), so the table half is at least the relative
    commutator of h's blocks with the Chevalley generators
    (:func:`rmatrix._invariance_gap`).  Only the table reads ``dec``.
    """
    plus, minus = (r_op(dec.rep, s * FD_STEP).swap_right().blocks for s in (1.0, -1.0))
    fd = max(max_abs(b - (p - q) / (2.0 * FD_STEP)) for b, p, q in zip(h.blocks, plus, minus))
    return _h_table_residual(dec, h, hv), fd


def _h_table_residual(dec: Decomposition, h: PairOperator, hv: np.ndarray) -> float:
    """The table half of :func:`h_oracle_residuals`; it forms no D x D array."""
    return max(max_abs(hv - dec.vectors @ h_table(dec)), _invariance_gap(dec.rep, h.blocks))


def nonhermiticity(hc: np.ndarray, dims: np.ndarray) -> float:
    """||h - h^dagger||_F: :func:`_weighted_norm` of hc - hc^dagger, hc = V^dagger h V (:func:`h_on_vectors`)."""
    return _weighted_norm(hc - np.conj(hc).T, dims)


def _spin_blocks(frame: PairFrame, anti: tuple, ad: tuple) -> list[np.ndarray]:
    """The sector blocks of Q, C_A and K, one (3, S, d, d) stack per sector size of ``frame``.

    ``anti`` and ``ad`` are the nonzeros of D(B_x) and ad(B_x) (``frame.anti``
    and ``frame.ad``).  With (D^a)_bc = d^{abc} and (S^a)_bc = f^{abc} = -ad(I^a)_bc,
    in this basis's normalisation sum_{b,c} d^{xbc} S^b S^c = n D^x and
    sum_{a,f} f^{afg} S^f D^a = -n D^g (Haber 2021, SciPost Phys. Lect.
    Notes 21), so with C+ = sum_c D^c (x) S^c = -sum_b D(B_b^T) (x) ad(B_b)
    and DD = sum_b D(B_b^T) (x) D(B_b) (:meth:`PairFrame.crossed`, real),
    C_A = n (C+ - sigma C+ sigma) and K = n^2 (C+ sigma C+ sigma + n DD),
    block by block, with sigma the ``swap`` term; Q is the ``omega`` term.
    """
    n, out = frame.n, []
    for q, s, c, dd in zip(frame.term("omega"), frame.term("swap"), frame.crossed(anti, ad), frame.crossed(anti, anti)):
        c = -c
        flipped = s @ c @ s
        out.append(np.stack([q, n * (c - flipped), n * n * (c @ flipped + n * dd)]))
    return out


def _spin_stacks(rep: AdjointRep) -> list[np.ndarray]:
    """:func:`_spin_blocks` of ``rep``, built once per representation and kept in ``rep.memo``.

    They are kept under the builder itself, so a substituted builder builds
    and keeps its own blocks.
    """
    if _spin_blocks not in rep.memo:
        rep.memo[_spin_blocks] = _spin_blocks(rep.frame, rep.frame.anti, rep.frame.ad)
    return rep.memo[_spin_blocks]


def spin_apply(rep: AdjointRep, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q x, C_A x, K x) for a (D,) vector or the columns of a (D, k) array of weight coordinates, through the blocks of :func:`_spin_stacks`."""
    frame, stacks = rep.frame, _spin_stacks(rep)
    return tuple(frame.apply_weight([t[a] for t in stacks], x) for a in range(3))


def spin_operators(dec: Decomposition, tol: Tolerance = DEFAULT_TOL) -> SpinOperators:
    """The Hermitian two-site operators Q, C_A, K built from S^a and d^{abc}, on the highest-weight vectors of ``dec``.

    Q = sum_a S^a_1 S^a_2;
    C_A = sum d^{abc} (S^a_1 S^b_1 S^c_2 - S^a_1 S^b_2 S^c_2);
    K = sum d^{abc} d^{def} S^a_1 S^d_1 S^e_1 S^f_2 S^b_2 S^c_2.

    Index convention: here the spin matrices are (S^a)_{bc} = f^{abc}, the
    transpose of the ad matrices of the representation.  Q and K contain an
    even number of spin factors and are insensitive to the distinction, but
    the sign of C_A (and hence of [K, C_A]) is fixed by it: this is the
    convention under which the closed spin form of the density holds.

    Both cubic sums reduce to crossed sums sum_c A^c (x) B^c of d and f,
    built as weight-sector blocks like Omega_op from the table of
    weight-basis products (:func:`_spin_blocks`).
    Each operator is applied through its blocks to the normalised
    highest-weight vectors V (``dec.vectors``) by :func:`spin_apply` and
    compressed to V^dagger A V (:class:`SpinOperators`); each compression
    must be Hermitian to within ``abs_tol * (n^2 - 1)``.
    """
    v = dec.vectors
    applied = spin_apply(dec.rep, v)
    v_h = np.conj(v).T
    compressed = [v_h @ av for av in applied]
    for name, op in zip(("Q", "C_A", "K"), compressed):
        herm = max_abs(op - np.conj(op).T)
        if herm > tol.abs_tol * dec.rep.dim:
            raise AssertionError(f"{name} is not Hermitian (deviation {herm:.3e})")
    off_span = max(max_abs(av - v @ a) / max_abs(av) for av, a in zip(applied, compressed))
    dims = np.array([sub.dim for sub in dec.submodules])
    return SpinOperators(*compressed, dims=dims, off_span=float(off_span))


def spin_invariance_residual(rep: AdjointRep, ops: SpinOperators) -> float:
    """The premise of reading Q, C_A and K on highest-weight vectors: the ``spin-operators-invariance`` residual.

    The larger of ``ops.off_span`` and, for A = C_A and K, the relative
    commutator of the blocks of :func:`_spin_stacks` with the Chevalley
    generators, which generate su(n) (:func:`rmatrix._invariance_gap`, as
    for R's terms and h): exact over every column, with no random draw.  Q
    is Omega_op, a term of ``rep.frame``, whose invariance is
    ``r-terms-invariance``.
    """
    stacks = _spin_stacks(rep)
    return max(ops.off_span, *(_invariance_gap(rep, [t[a] for t in stacks]) for a in (1, 2)))


def spinform_h(ops: SpinOperators, n: int) -> np.ndarray:
    """Spin-operator form of the rescaled density.

    For n > 3 the polynomial uses the general coefficients in Q, Q^2, Q^3,
    Q^4, K and [K, C_A]; n = 3 has its own shorter form (the quartic term is
    absent).
    """
    q, k = ops.Q, ops.K
    q2 = q @ q
    q3 = q2 @ q
    comm = ops.commutator
    if n == 3:
        return q - (7.0 / 9.0) * q2 - (2.0 / 9.0) * q3 - (11.0 / 81.0) * k + comm / 324.0
    q4 = q3 @ q
    s = 6.0 + n * n
    return (
        q
        + ((2.0 - n * n) / (n * s)) * q2
        - (3.0 / s) * q3
        - (1.0 / (n * s)) * q4
        - ((2.0 + n * n) / (n**3 * s)) * k
        + comm / (4.0 * n**3 * s)
    )


def h_on_vectors(dec: Decomposition, h: PairOperator) -> np.ndarray:
    """V^dagger h V on the normalised highest-weight vectors V of ``dec``: the density in the basis of :class:`SpinOperators`."""
    return np.conj(dec.vectors).T @ h.apply(dec.vectors)


def verify_spinform(h: np.ndarray, ops: SpinOperators, n: int) -> dict:
    """Fit spinform_h = scale * h + c * 1 to the density ``h``.

    ``h`` is in the basis of ``ops`` (:func:`h_on_vectors`).  ``scale`` is
    the fixed rescaling 8 / (6 + n^2), or 8/3 at n = 3, whose spin form
    carries its own normalization; the additive constant is recovered by
    trace matching (the unique least-squares optimal shift), the trace of
    the D-dimensional operator being sum_M dim M (spin form - scale h)_MM.
    The residual, the max-abs of the fit on the compressions after the real
    part of that shift, is returned for the caller to judge (``spinform-fit``),
    so a wrong spin form or an imaginary shift is a failing check, not an abort.
    """
    scale = 8.0 / (6.0 + n * n) if n > 3 else 8.0 / 3.0
    diff = spinform_h(ops, n) - scale * h
    shift = float(np.real(ops.dims @ np.diagonal(diff))) / int(ops.dims.sum())
    residual = max_abs(diff - shift * np.eye(len(diff)))
    return {"scale": float(scale), "shift": shift, "residual": float(residual)}


def _chain_dim(m: int, sites: int) -> int:
    """m^L, after checking that a chain of ``sites`` sites is allowed and fits the dense cap."""
    if sites < 2:
        raise ValueError("a chain needs at least two sites")
    dim = m**sites
    if dim > CHAIN_DIM_CAP:
        raise ValueError(f"chain dimension {dim} exceeds the dense cap {CHAIN_DIM_CAP}")
    return dim


def chain_H(h: np.ndarray, sites: int) -> np.ndarray:
    """Periodic chain Hamiltonian H = sum_i h_{i,i+1} with site L+1 = 1, as an m^L x m^L array.

    m is read off the m^2 x m^2 density ``h``.  H is built as a 2L-axis
    tensor [o_1..o_L, i_1..i_L].  The bond-(k, k+1) term is h on the site
    pair (k, k+1) times the identity on every other site, so it is added as
    h into the diagonal view of H (an ``einsum`` view, o_s = i_s on every
    spectator site s); the m^(2L)-entry h (x) 1 is never formed.  The L bonds
    are added in order (1,2), (2,3), ..., (L,1).
    """
    m = math.isqrt(h.shape[0])
    dim = _chain_dim(m, sites)
    term = h.reshape((m,) * 4 + (1,) * (sites - 2))  # [o_a, o_b, i_a, i_b], spectators broadcast
    total = np.zeros((m,) * (2 * sites), dtype=complex)
    outs = [chr(ord("A") + s) for s in range(sites)]
    for a in range(sites):
        b = (a + 1) % sites
        ins = [chr(ord("a") + s) if s in (a, b) else outs[s] for s in range(sites)]
        spectators = "".join(outs[s] for s in range(sites) if s not in (a, b))
        view = np.einsum(
            f"{''.join(outs + ins)}->{outs[a]}{outs[b]}{ins[a]}{ins[b]}{spectators}", total
        )
        view += term
    return total.reshape(dim, dim)


def _ring_trace(r: np.ndarray, sites: int) -> np.ndarray:
    """Auxiliary-space trace of the monodromy of the two-site operator ``r`` around a ring.

    Factor k is r[aux_k, out_k, aux_{k+1}, in_k] with aux_L = aux_0, which
    closes the trace, and the site-1 factor is leftmost; the whole ring is
    one ``einsum``, so the monodromy on the auxiliary (x) chain space is
    never formed.  The result is written in the site coordinates of ``r``.
    """
    m = math.isqrt(r.shape[0])
    dim = _chain_dim(m, sites)
    r4 = r.reshape(m, m, m, m)  # [aux_out, site_out, aux_in, site_in]
    # labels: aux_k is k, out_k is sites + k, in_k is 2 sites + k
    operands = []
    for k in range(sites):
        operands += [r4, [k, sites + k, (k + 1) % sites, 2 * sites + k]]
    t = np.einsum(*operands, list(range(sites, 3 * sites)), optimize=True)
    return t.reshape(dim, dim)


def transfer_matrix(dec: Decomposition, lam: complex, sites: int) -> np.ndarray:
    """Transfer matrix t(lam) in Gell-Mann coordinates: auxiliary-space trace of the R-matrix monodromy.

    The monodromy is the ordered product of R factors over an auxiliary
    adjoint space with the site-1 factor leftmost; this ordering makes t(lam)
    the generating object for H = sum_i h_{i,i+1} (the opposite ordering
    generates the reflected chain).  :func:`weight_transfer` is the same
    ring contraction in the product weight basis, which the chain suite
    uses.

    Only ``dec.rep`` is read.  ``dec`` stays the parameter because the
    benchmark tracer (``perfbench/tracing.py``) reads ``dec.n`` by that name.
    """
    return _ring_trace(build_R(dec.rep, lam), sites)


def chain_frame(basis: SunBasis, sites: int) -> WeightChain:
    """:func:`liealg.weight_chain` of a chain of ``sites`` sites.

    It is refused as :func:`chain_H` refuses the chain (fewer than two
    sites, or m^L above :data:`CHAIN_DIM_CAP`), before the frame's tables of
    m^L states are built.
    """
    _chain_dim(basis.dim, sites)
    return weight_chain(basis, sites)


def weight_transfer(chain: WeightChain, rep: AdjointRep, lam: complex) -> np.ndarray:
    """t_w(lam) = U^(x)L t(lam) U^(x)L^dagger, the ring of :meth:`rmatrix.PairOperator.weight_dense` of R(lam)."""
    return _ring_trace(r_op(rep, lam).weight_dense(), chain.sites)


def sector_commutator(chain: WeightChain, a: np.ndarray, b: np.ndarray) -> float:
    """Normalized commutator ||AB - BA||_F / (||A||_F ||B||_F) of two chain operators, sector by sector.

    ``a`` and ``b`` are in the product weight basis of ``chain``.  The
    commutator is summed as sqrt(sum_W ||A_W B_W - B_W A_W||^2) over the
    diagonal sector blocks, and each factor's off-sector share ||X_off|| /
    ||X|| is a floor, so an operator that leaves its sectors cannot pass on
    commuting blocks.  Frobenius norms are unitarily invariant: for
    operators that conserve weight this is the ratio of the Gell-Mann
    operators up to roundoff.
    """
    a_w, a_off = chain.split(a)
    b_w, b_off = chain.split(b)
    diff2 = sum(np.linalg.norm(x @ y - y @ x) ** 2 for x, y in zip(a_w, b_w))
    a_norm = np.sqrt(sum(np.linalg.norm(x) ** 2 for x in a_w) + a_off**2)
    b_norm = np.sqrt(sum(np.linalg.norm(y) ** 2 for y in b_w) + b_off**2)
    return float(max(np.sqrt(diff2) / (a_norm * b_norm), a_off / a_norm, b_off / b_norm))


def commutation_check(dec: Decomposition, lam: complex, mu: complex, sites: int) -> float:
    """:func:`sector_commutator` of t(lam) and t(mu) on ``sites`` sites, in the product weight basis.

    Only ``dec.rep`` is read; ``dec`` stays the parameter for the benchmark
    tracer, as in :func:`transfer_matrix`.
    """
    chain = chain_frame(dec.rep.basis, sites)
    return sector_commutator(chain, weight_transfer(chain, dec.rep, lam),
                             weight_transfer(chain, dec.rep, mu))


def global_symmetry_residual(chain: WeightChain, h_w: np.ndarray) -> float:
    """Largest normalized commutator of a chain H with the diagonal action of su(n).

    ``h_w`` is H in the product weight basis of ``chain``.  Returns the max
    over the Cartan and Chevalley generators x (:func:`adjoint_tensor.generating_set`)
    of max_abs([H_w, sum_s ad_s(x)]) / max(1, max_abs(H_w)), where ad_s(x)
    acts on site s; they generate su(n) and x -> sum_s ad_s(x) is a Lie
    homomorphism, so this covers all of su(n):
    - for a Cartan generator H_k, sum_s ad_s(H_k) is diagonal, the charge
      diag(H_k) . W of each state's total weight W, so the commutator is
      each entry of H_w times the charge difference of its column and row.
      It vanishes inside the sectors and reads H_w's off-sector entries;
    - for a root vector e_ij, sum_s ad_s(e_ij) maps sector W to W + alpha,
      alpha = e_i - e_j, so the commutator is H_{W+alpha} X - X H_W, one
      sector pair at a time, with the blocks X of
      :meth:`WeightChain.shift_blocks` (which raises if the frame is wrong).
    For an H that conserves weight this is the dense Kronecker-sum maximum
    up to roundoff; otherwise the root terms see the sector blocks of H_w and
    the Cartan terms the rest.  Only row blocks of H are allocated.
    """
    basis, sites, blocks = chain.basis, chain.sites, chain.blocks
    n, m = basis.n, basis.dim
    dim = m**sites
    if h_w.shape != (dim, dim):
        raise ValueError(f"a {sites}-site chain operator is {dim} x {dim}, got {h_w.shape}")
    roots = m - (n - 1)  # the weight basis lists the e_ij before the Cartan generators
    cartan = np.real(np.diagonal(basis.generators[roots:], axis1=1, axis2=2))
    charge = (chain.sector_weights @ cartan.T)[chain.label]  # bit-equal within a sector
    worst = 0.0
    diag = []
    for idx in blocks:
        rows = h_w[idx]
        diag.append(rows[:, idx])
        # max over the H_k of |H_ab| |charge_k(b) - charge_k(a)|, the charge spread taken first
        spread = np.max(np.abs(charge - charge[idx[0]]), axis=1)
        worst = max(worst, max_abs(np.abs(rows) * spread))
    for alpha in (root_weight(n, ij) for ij in generating_set(n)[0]):
        for k, t, x in chain.shift_blocks(root_action(chain, alpha), alpha):
            worst = max(worst, max_abs(diag[t] @ x - x @ diag[k]))
    return worst / max(1.0, max_abs(h_w))


def sector_spectrum(chain: WeightChain, op_w: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[complex]:
    """Eigenvalues of a real operator in the weight coordinates of ``chain``, one sector at a time.

    An entry of ``op_w`` above ``tol.abs_tol`` joining two sectors, or an
    imaginary part above it, raises ``AssertionError``.  Each sector is
    solved in real arithmetic by :func:`eig_general`, so every complex
    eigenvalue comes with its bit-equal conjugate; they are sorted by real,
    then imaginary part.
    """
    eigenvalues = []
    for idx in chain.blocks:  # a block of rows at a time: no dense mask or abs(op_w) beside op_w
        rows = op_w[idx]
        b = rows[:, idx]
        rows = np.abs(rows)
        rows[:, idx] = 0.0
        if max_abs(rows) > tol.abs_tol:
            raise AssertionError(f"operator leaves its weight blocks ({max_abs(rows):.3e})")
        if max_abs(b.imag) > tol.abs_tol:
            raise AssertionError(f"operator is not real in weight coordinates ({max_abs(b.imag):.3e})")
        eigenvalues.extend(z for z, _ in eig_general(b.real, tol))
    return sorted(eigenvalues, key=lambda z: (z.real, z.imag))


def two_site_spectrum(hc: np.ndarray, dims: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[complex]:
    """The D eigenvalues of h from hc = V^dagger h V (:func:`h_on_vectors`), sorted as :func:`sector_spectrum`'s.

    An eigenvector x of hc lies in one isotypic component (Schur's lemma),
    so its eigenvalue is listed dims[M] times, M the column where x is
    largest.  hc is solved as it is: the caller judges any imaginary part.
    """
    eigenvalues = []
    for z, x in eig_general(hc, tol):
        eigenvalues += [z] * int(dims[np.argmax(np.abs(x))])
    return sorted(eigenvalues, key=lambda z: (z.real, z.imag))


def chain_spectrum(h_w: np.ndarray, basis: SunBasis, sites: int, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalues of the periodic chain H of the density ``h_w`` (sorted by real, then imaginary part).

    ``h_w`` is the density in the two-site weight coordinates of ``basis``
    (:meth:`rmatrix.PairOperator.weight_dense`), so H_w = :func:`chain_H` of
    it is H in the product weight basis of :func:`chain_frame`, where it is
    block-diagonal; the sectors are solved by :func:`sector_spectrum`.
    """
    chain = chain_frame(basis, sites)
    return sector_spectrum(chain, chain_H(h_w, sites), tol)
