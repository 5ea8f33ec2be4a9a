"""Integrable spin chain built from the adjoint R-matrix.

The local Hamiltonian is the logarithmic-derivative density h = R'(0) sigma,
assembled once from the exact rational derivatives of the scalar coefficient
functions through the operator form of :mod:`rmatrix`, so :func:`local_h`
takes only the :class:`AdjointRep`, builds no decomposition and returns h as
a plain D x D array in Gell-Mann coordinates, the form every function here
takes it in.  Two independent constructions, a direct assembly from the
closed-form projector coefficients (which reads the submodules of a
:class:`Decomposition`) and a central finite difference of R(lam) sigma, are
kept as an oracle, :func:`h_oracle_residuals`, which ``verify hamiltonian``
reports as the ``h-assembly-agreement`` and ``h-finite-difference`` checks.
The density is deliberately non-Hermitian while keeping a real two-site
spectrum.

The periodic chain is built bond by bond: :func:`chain_H` adds h into the
diagonal view of H for each bond of the ring, never forming h (x) 1, and
returns H as a plain m^L x m^L array, and :func:`transfer_matrix` is one
contraction of L R factors around the auxiliary ring.  Both spectra, of h
and of H, are solved one Cartan-weight sector at a time in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adjoint_tensor import AdjointRep, Decomposition, ad_matrix, casimir_op, rotate_pair
from .liealg import SunBasis, pair_weights, weight_basis, weight_blocks
from .numerics import DEFAULT_TOL, Tolerance, eig_general, frobenius, max_abs
from .rmatrix import (
    CoefficientSet,
    _assemble,
    _permute_cols_swap,
    build_R,
    check_pole_distance,
    operator_form,
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

    Returns (table, finite difference): the direct assembly from the
    closed-form projector coefficients of :func:`_h_coefficients`, and the
    central finite difference of R(lam) sigma with step :data:`FD_STEP`.
    Only the table reads the submodules of ``dec``.
    """
    m = dec.n * dec.n - 1
    diag, block = _h_coefficients(dec.n)
    table = max_abs(h - _assemble(dec, diag, block))
    r_plus = _permute_cols_swap(build_R(dec.rep, FD_STEP), m)
    r_minus = _permute_cols_swap(build_R(dec.rep, -FD_STEP), m)
    fd = (r_plus - r_minus) / (2.0 * FD_STEP)
    return table, max_abs(h - fd)


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
    q, c_a, k = ops.Q, ops.C_A, ops.K
    q2 = q @ q
    q3 = q2 @ q
    comm = k @ c_a - c_a @ k
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
    if sites < 2:
        raise ValueError("a chain needs at least two sites")
    dim = m**sites
    if dim > CHAIN_DIM_CAP:
        raise ValueError(
            f"chain dimension {dim} exceeds the dense cap {CHAIN_DIM_CAP}"
        )
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


def transfer_matrix(dec: Decomposition, lam: complex, sites: int) -> np.ndarray:
    """Transfer matrix t(lam): auxiliary-space trace of the R-matrix monodromy.

    The monodromy is the ordered product of R factors over an auxiliary
    adjoint space with the site-1 factor leftmost; this ordering makes t(lam)
    the generating object for H = sum_i h_{i,i+1} (the opposite ordering
    generates the reflected chain).  t(lam) is one ``einsum`` over the
    auxiliary ring: factor k is R[aux_k, out_k, aux_{k+1}, in_k] with
    aux_L = aux_0, which closes the trace.  The monodromy on the auxiliary
    (x) chain space is never formed.

    Only ``dec.rep`` is read.  ``dec`` stays the parameter because the
    benchmark tracer (``perfbench/tracing.py``) reads ``dec.n`` by that name.
    """
    n = dec.n
    m = n * n - 1
    check_pole_distance(lam, n)
    if sites < 2:
        raise ValueError("a chain needs at least two sites")
    if m**sites > CHAIN_DIM_CAP:
        raise ValueError(f"transfer-matrix dimension {m**sites} exceeds the dense cap")
    r4 = build_R(dec.rep, lam).reshape(m, m, m, m)  # [aux_out, site_out, aux_in, site_in]
    # labels: aux_k is k, out_k is sites + k, in_k is 2 sites + k
    operands = []
    for k in range(sites):
        operands += [r4, [k, sites + k, (k + 1) % sites, 2 * sites + k]]
    t = np.einsum(*operands, list(range(sites, 3 * sites)), optimize=True)
    return t.reshape(m**sites, m**sites)


def commutation_check(dec: Decomposition, lam: complex, mu: complex, sites: int) -> float:
    """Normalized commutator residual of two transfer matrices.

    ``dec`` is passed on to :func:`transfer_matrix`, which keeps it for the
    benchmark tracer; only ``dec.rep`` is read.
    """
    t1 = transfer_matrix(dec, lam, sites)
    t2 = transfer_matrix(dec, mu, sites)
    return float(frobenius(t1 @ t2 - t2 @ t1) / (frobenius(t1) * frobenius(t2)))


def global_symmetry_residual(h: np.ndarray, basis: SunBasis) -> float:
    """Largest normalized commutator of a chain H with the diagonal action of a generator.

    Returns max over the generators x of max_abs([H, sum_s ad_s(x)]) /
    max(1, max_abs(H)), where ad_s(x) acts on site s.  Each ad_s(x) is
    applied to one output or one input site index of H by an m x m matmul
    on a reshaped view: 2 L m dim^2 multiply-adds per generator, where the
    products with the L-site Kronecker sum would take 2 dim^3.  L is read
    off the size of H.
    """
    m = basis.dim
    dim = h.shape[0]
    sites = round(math.log(dim, m))
    if m**sites != dim:
        raise ValueError(f"dimension {dim} is not a power of {m}")
    scale = max(1.0, max_abs(h))
    worst = 0.0
    for gen in basis.generators:
        ad = ad_matrix(basis, gen)
        # H T on the input indices, the last one a plain matmul
        comm = (h.reshape(-1, m) @ ad).reshape(dim, dim)
        for s in range(1, sites):
            comm += np.matmul(ad.T, h.reshape(dim * m ** (s - 1), m, -1)).reshape(dim, dim)
        # minus T H on the output indices
        for s in range(1, sites + 1):
            comm -= np.matmul(ad, h.reshape(m ** (s - 1), m, -1)).reshape(dim, dim)
        worst = max(worst, max_abs(comm) / scale)
    return worst


def _sector_eigenvalues(
    op_w: np.ndarray, weights: np.ndarray, tol: Tolerance, what: str
) -> list[complex]:
    """Eigenvalues of a real operator in weight coordinates, one total-weight block at a time.

    ``weights`` holds the total weight of each row.  An entry of ``op_w``
    above ``tol.abs_tol`` joining two different weights raises
    ``AssertionError``, and so does an imaginary part above ``tol.abs_tol``.
    The blocks are then solved in real arithmetic, so every complex
    eigenvalue comes with its exact (bit-equal) conjugate; each goes through
    :func:`eig_general` with its residual contract.
    """
    blocks = weight_blocks(weights)
    stray = imag = 0.0
    for idx in blocks:  # a block of rows at a time: no dense mask or abs(op_w) beside op_w
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
    for idx in blocks:
        eigenvalues.extend(z for z, _ in eig_general(op_w[np.ix_(idx, idx)], tol))
    return sorted(eigenvalues, key=lambda z: (z.real, z.imag))


def two_site_spectrum(h: np.ndarray, basis: SunBasis, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalues of the two-site density ``h`` (sorted by real, then imaginary part).

    ``basis`` gives the Gell-Mann coordinates ``h`` is written in.  h is
    su(n)-invariant, so it conserves Cartan weight: rotated to two-site
    weight coordinates by U (x) U (:func:`liealg.weight_basis`) it is
    block-diagonal in the total weight, and each block goes through
    :func:`eig_general` with its residual contract (at n = 5 the largest
    block has 36 of the 576 dimensions).  In weight coordinates h is real,
    so the blocks are solved in real arithmetic, the same block solve as
    :func:`chain_spectrum`.  An entry of the rotated h above ``tol.abs_tol``
    outside the blocks, or an imaginary part above it, raises
    ``AssertionError``.
    """
    u, weights = weight_basis(basis)
    return _sector_eigenvalues(rotate_pair(u, h), pair_weights(weights), tol, "two-site density")


def chain_spectrum(h: np.ndarray, basis: SunBasis, sites: int, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalues of the periodic chain H of ``h`` (sorted by real, then imaginary part).

    ``basis`` gives the Gell-Mann coordinates ``h`` is written in.  H
    conserves the total Cartan weight.  h is rotated to two-site weight
    coordinates with :func:`rotate_pair` and the chain is assembled from it
    by :func:`chain_H`, which gives H in the product weight basis; the m^L
    indices are grouped by total weight (37 sectors at n = 3, L = 3, the
    largest of 56) and solved as in :func:`two_site_spectrum`, in real
    arithmetic, so every complex eigenvalue comes with its exact (bit-equal)
    conjugate.
    """
    u, weights = weight_basis(basis)
    total = weights  # total[a_1..a_k] = weights[a_1] + ... + weights[a_k], site 1 slowest
    for _ in range(sites - 1):
        total = (total[:, None, :] + weights[None, :, :]).reshape(-1, weights.shape[1])
    return _sector_eigenvalues(chain_H(rotate_pair(u, h), sites), total, tol,
                               "chain Hamiltonian")
