"""Integrable spin chain built from the adjoint R-matrix.

The local Hamiltonian is the logarithmic-derivative density h = R'(0) sigma,
assembled once from the exact rational derivatives of the scalar coefficient
functions through the operator form of :mod:`rmatrix`, so :func:`local_h`
takes only the :class:`AdjointRep`, builds no decomposition and returns h as
a plain D x D array in Gell-Mann coordinates, the form every function here
takes it in.  Two independent constructions, a direct assembly from the
closed-form projector coefficients (which reads the submodules of a
:class:`Decomposition` and is compared with h on a block of random unit
columns) and a central finite difference of R(lam) sigma, are kept as an
oracle, :func:`h_oracle_residuals`, which ``verify hamiltonian`` reports as
the ``h-assembly-agreement`` and ``h-finite-difference`` checks.
The density is deliberately non-Hermitian while keeping a real two-site
spectrum.

The periodic chain is built bond by bond: :func:`chain_H` adds h into the
diagonal view of H for each bond of the ring, never forming h (x) 1, and
returns H as a plain m^L x m^L array, and :func:`transfer_matrix` is one
contraction of L R factors around the auxiliary ring.

H and t(lam) conserve the total Cartan weight, so the chain is studied in
the weight frame of :func:`liealg.weight_chain` (:func:`chain_frame`), where
both are block-diagonal.  What needs h or R is here, as functions of the
frame: H_w (:func:`weight_hamiltonian`) is the chain of the rotated density
and t_w(lam) (:func:`weight_transfer`) the ring of the sector blocks of
R(lam), scattered into weight coordinates, which forms no Gell-Mann R.  Every
chain check goes one total-weight sector at a time: the spectrum
(:func:`sector_spectrum`, in real arithmetic, as the two-site one), the
transfer commutators (:func:`sector_commutator`) and the su(n) invariance of
H (:func:`global_symmetry_residual`, on the Cartan and Chevalley
generators).  No m^L x m^L matrix product is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adjoint_tensor import (
    AdjointRep,
    Decomposition,
    casimir_op,
    generating_set,
    root_action,
    root_weight,
    rotate_pair,
)
from .liealg import SunBasis, WeightChain, weight_chain
from .numerics import DEFAULT_TOL, Tolerance, eig_general, max_abs
from .rmatrix import (
    CoefficientSet,
    _assemble_apply,
    _probe_block,
    _swap_perm,
    build_R,
    operator_form,
    r_op,
)

__all__ = [
    "CHAIN_DIM_CAP",
    "SpinOperators",
    "local_h",
    "h_oracle_residuals",
    "spin_operators",
    "spinform_h",
    "verify_spinform",
    "chain_H",
    "transfer_matrix",
    "chain_frame",
    "weight_hamiltonian",
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
    """Hermitian two-site operators entering the spin form of the density."""

    Q: np.ndarray
    C_A: np.ndarray
    K: np.ndarray

    @cached_property
    def commutator(self) -> np.ndarray:
        """[K, C_A], formed on first read and kept, so a suite forms it once."""
        return self.K @ self.C_A - self.C_A @ self.K


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


def local_h(rep: AdjointRep) -> np.ndarray:
    """Local Hamiltonian h = R'(0) sigma, the D x D array in Gell-Mann coordinates.

    The exact derivatives of the R-form coefficients at 0 go through the
    operator form of :mod:`rmatrix`, which is composed with sigma and made
    dense.  ``verify hamiltonian`` compares the result with two independent
    constructions through :func:`h_oracle_residuals`.
    """
    c = CoefficientSet(rep.n)
    deriv_diag = {
        "sym_top": 0.0,
        "anti_left": -c.f1_deriv0(),
        "anti_right": -c.f1_deriv0(),
        "mixed_sym": c.f3_deriv0(),
        "singlet": c.f4_deriv0(),
    }
    return operator_form(rep.frame, deriv_diag, c.N_deriv0()).swap_right().dense()


def h_oracle_residuals(dec: Decomposition, h: np.ndarray) -> tuple[float, float]:
    """Max-abs residuals of the density ``h`` against its two independent constructions.

    Returns (table, finite difference): max_abs(h V - A V) on a block V of
    random unit columns (:func:`rmatrix._probe_block`, from a generator of
    its own), where A is the direct assembly from the closed-form projector
    coefficients of :func:`_h_coefficients`, applied without forming it
    (:func:`rmatrix._assemble_apply`); and the central finite difference of
    R(lam) sigma with step :data:`FD_STEP`, on all of h.  Only the table
    reads the submodules of ``dec``.
    """
    swap = _swap_perm(dec.rep.dim)  # R sigma, without forming sigma
    fd = (build_R(dec.rep, FD_STEP)[:, swap] - build_R(dec.rep, -FD_STEP)[:, swap]) / (2.0 * FD_STEP)
    return _h_table_residual(dec, h), max_abs(h - fd)


def _h_table_residual(dec: Decomposition, h: np.ndarray) -> float:
    """The table half of :func:`h_oracle_residuals`; it forms no D x D array besides ``h``."""
    v = _probe_block(h.shape[0])
    return max_abs(h @ v - _assemble_apply(dec, *_h_coefficients(dec.n), v))


def spin_operators(rep: AdjointRep, tol: Tolerance = DEFAULT_TOL) -> SpinOperators:
    """The Hermitian two-site operators Q, C_A, K built from S^a and d^{abc}.

    Q = sum_a S^a_1 S^a_2;
    C_A = sum d^{abc} (S^a_1 S^b_1 S^c_2 - S^a_1 S^b_2 S^c_2);
    K = sum d^{abc} d^{def} S^a_1 S^d_1 S^e_1 S^f_2 S^b_2 S^c_2.

    Index convention: here the spin matrices are (S^a)_{bc} = f^{abc}, the
    transpose of the ad matrices of the representation.  Q and K contain an
    even number of spin factors and are insensitive to the distinction, but
    the sign of C_A (and hence of [K, C_A]) is fixed by it: this is the
    convention under which the closed spin form of the density holds.

    Both cubic sums reduce to the single stack w[x] = sum_{b,c} d^{xbc} S^b S^c,
    since d is totally symmetric; it is formed with two matmuls, the stack of
    products S^b S^c and then d reshaped to (m, m^2) against it.
    """
    S = np.ascontiguousarray(rep.S.transpose(0, 2, 1))
    d = rep.basis.d
    m = rep.dim
    q = casimir_op(rep)
    # pair[(b, i), (c, k)] = (S^b S^c)_{ik}, regrouped as rows (b, c), columns (i, k)
    pair = S.reshape(m * m, m) @ np.ascontiguousarray(S.transpose(1, 0, 2)).reshape(m, m * m)
    pair = pair.reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)
    w = (d.reshape(m, m * m) @ pair).reshape(m, m, m)
    term1 = np.einsum("cik,cjl->ijkl", w, S, optimize=True)
    term2 = np.einsum("aik,ajl->ijkl", S, w, optimize=True)
    c_a = (term1 - term2).reshape(m * m, m * m)
    left = np.einsum("aij,fjk->afik", S, w, optimize=True)  # S^a w[f] on site 1
    right = np.einsum("fij,ajk->afik", S, w, optimize=True)  # S^f w[a] on site 2
    k = np.einsum("afik,afjl->ijkl", left, right, optimize=True).reshape(m * m, m * m)
    for name, op in (("Q", q), ("C_A", c_a), ("K", k)):
        herm = max_abs(op - np.conj(op).T)
        if herm > tol.abs_tol * m:
            raise AssertionError(f"{name} is not Hermitian (deviation {herm:.3e})")
    return SpinOperators(Q=q, C_A=c_a, K=k)


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


def verify_spinform(
    h: np.ndarray, ops: SpinOperators, n: int, tol: Tolerance = DEFAULT_TOL
) -> dict:
    """Fit spinform_h = scale * h + c * 1 to the density ``h`` and validate the residual.

    ``scale`` is the fixed rescaling 8 / (6 + n^2), or 8/3 at n = 3, whose
    spin form carries its own normalization; the additive constant is
    recovered by trace matching (the unique least-squares optimal shift).
    """
    hs = spinform_h(ops, n)
    dim = hs.shape[0]
    scale = 8.0 / (6.0 + n * n) if n > 3 else 8.0 / 3.0
    shift = complex(np.trace(hs - scale * h)) / dim
    if abs(shift.imag) > tol.abs_tol * dim:
        raise AssertionError(f"trace-matched shift is not real: {shift}")
    residual = max_abs(hs - scale * h - shift * np.eye(dim))
    if residual > tol.abs_tol * dim:
        raise AssertionError(f"spin-form fit residual {residual:.3e} exceeds tolerance")
    return {"scale": float(scale), "shift": float(shift.real), "residual": float(residual)}


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


def weight_hamiltonian(chain: WeightChain, h: np.ndarray) -> np.ndarray:
    """H_w = U^(x)L H U^(x)L^dagger: :func:`chain_H` of the density rotated by :func:`rotate_pair`."""
    return chain_H(rotate_pair(chain.u, h), chain.sites)


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


def sector_spectrum(
    chain: WeightChain, op_w: np.ndarray, tol: Tolerance = DEFAULT_TOL,
    what: str = "chain Hamiltonian",
) -> list[complex]:
    """Eigenvalues of a real operator in the weight coordinates of ``chain``, one sector at a time.

    An entry of ``op_w`` above ``tol.abs_tol`` joining two different
    sectors raises ``AssertionError`` (its message names ``what``), and so
    does an imaginary part above ``tol.abs_tol``.
    The blocks are then solved in real arithmetic, so every complex
    eigenvalue comes with its exact (bit-equal) conjugate; each goes through
    :func:`eig_general` with its residual contract.
    """
    stray = imag = 0.0
    for idx in chain.blocks:  # a block of rows at a time: no dense mask or abs(op_w) beside op_w
        rows = op_w[idx]
        imag = max(imag, max_abs(rows.imag))
        rows = np.abs(rows)
        rows[:, idx] = 0.0
        stray = max(stray, max_abs(rows))
    if stray > tol.abs_tol:
        raise AssertionError(f"{what} leaves its weight blocks ({stray:.3e})")
    if imag > tol.abs_tol:
        raise AssertionError(f"{what} is not real in weight coordinates ({imag:.3e})")
    op_w = op_w.real
    eigenvalues = []
    for idx in chain.blocks:
        eigenvalues.extend(z for z, _ in eig_general(op_w[np.ix_(idx, idx)], tol))
    return sorted(eigenvalues, key=lambda z: (z.real, z.imag))


def two_site_spectrum(h: np.ndarray, basis: SunBasis, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalues of the two-site density ``h`` (sorted by real, then imaginary part).

    ``basis`` gives the Gell-Mann coordinates ``h`` is written in.  h is
    su(n)-invariant, so it conserves Cartan weight: rotated to the two-site
    frame of :func:`liealg.weight_chain` it is block-diagonal in the total
    weight, and each block goes through
    :func:`eig_general` with its residual contract (at n = 5 the largest
    block has 36 of the 576 dimensions).  In weight coordinates h is real,
    so the blocks are solved in real arithmetic, the same block solve as
    :func:`chain_spectrum`.  An entry of the rotated h above ``tol.abs_tol``
    outside the blocks, or an imaginary part above it, raises
    ``AssertionError``.
    """
    chain = weight_chain(basis, 2)
    return sector_spectrum(chain, rotate_pair(chain.u, h), tol, "two-site density")


def chain_spectrum(h: np.ndarray, basis: SunBasis, sites: int, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalues of the periodic chain H of ``h`` (sorted by real, then imaginary part).

    ``basis`` gives the Gell-Mann coordinates ``h`` is written in.  H
    conserves the total Cartan weight, so in the product weight basis of
    :func:`chain_frame` it is block-diagonal; the sectors are solved as in
    :func:`two_site_spectrum`, in real arithmetic, so every complex
    eigenvalue comes with its exact (bit-equal) conjugate.
    """
    chain = chain_frame(basis, sites)
    return sector_spectrum(chain, weight_hamiltonian(chain, h), tol)
