"""Integrable spin chain built from the adjoint R-matrix.

The local Hamiltonian is the logarithmic-derivative density h = R'(0) sigma,
assembled once from the exact rational derivatives of the scalar coefficient
functions through the operator form of :mod:`rmatrix`, so :func:`local_h`
takes only the :class:`AdjointRep` and builds no decomposition.  Two
independent constructions, a direct assembly from the closed-form projector
coefficients (which reads the submodules of a :class:`Decomposition`) and a
central finite difference of R(lam) sigma, are kept as an oracle,
:func:`h_oracle_residuals`, which ``verify hamiltonian`` reports as the
``h-assembly-agreement`` and ``h-finite-difference`` checks.  The density is
deliberately non-Hermitian while keeping a real two-site spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint_tensor import AdjointRep, Decomposition, casimir_op
from .liealg import SunBasis, off_block_mask, pair_weights, weight_basis, weight_blocks
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
    "LocalHamiltonian",
    "SpinOperators",
    "ChainHamiltonian",
    "local_h",
    "h_oracle_residuals",
    "spin_operators",
    "spinform_h",
    "verify_spinform",
    "chain_H",
    "transfer_matrix",
    "commutation_check",
    "two_site_spectrum",
]

CHAIN_DIM_CAP = 10_000
FD_STEP = 1e-5  # step of the central finite difference in h_oracle_residuals


@dataclass
class LocalHamiltonian:
    """Two-site density h with its adjoint-pair block."""

    n: int
    h: np.ndarray
    O_block: np.ndarray  # 2x2 on the ordered hwv basis {v_s, v_a}
    rescale_factor: float
    basis: SunBasis  # the Gell-Mann coordinates h is written in


@dataclass(frozen=True)
class SpinOperators:
    """Hermitian two-site operators entering the spin form of the density."""

    Q: np.ndarray
    C_A: np.ndarray
    K: np.ndarray


@dataclass(frozen=True)
class ChainHamiltonian:
    n: int
    sites: int
    H: np.ndarray


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


def local_h(rep: AdjointRep) -> LocalHamiltonian:
    """Local Hamiltonian h = R'(0) sigma.

    The exact derivatives of the R-form coefficients at 0 go through the
    operator form of :mod:`rmatrix`, which is composed with sigma and made
    dense.  ``verify hamiltonian`` compares the result with two independent
    constructions through :func:`h_oracle_residuals`.
    """
    n = rep.n
    c = CoefficientSet(n)
    deriv_diag = {
        "sym_top": 0.0,
        "anti_left": -c.f1_deriv0(),
        "anti_right": -c.f1_deriv0(),
        "mixed_sym": c.f3_deriv0(),
        "singlet": c.f4_deriv0(),
    }
    h = operator_form(rep.frame, deriv_diag, c.N_deriv0()).swap_right().dense()
    # h = I'(0), so its adjoint-pair block is M'(0) = N'(0) diag(1, -1)
    block = c.N_deriv0() @ np.diag([1.0, -1.0])
    # multiplier that turns h into the closed spin form (up to a constant);
    # the n = 3 form carries its own normalization
    rescale = 8.0 / (6.0 + n * n) if n > 3 else 8.0 / 3.0
    return LocalHamiltonian(n=n, h=h, O_block=block, rescale_factor=rescale, basis=rep.basis)


def h_oracle_residuals(dec: Decomposition, local: LocalHamiltonian) -> tuple[float, float]:
    """Max-abs residuals of ``local.h`` against its two independent constructions.

    Returns (table, finite difference): the direct assembly from the
    closed-form projector coefficients of :func:`_h_coefficients`, and the
    central finite difference of R(lam) sigma with step :data:`FD_STEP`.
    Only the table reads the submodules of ``dec``.
    """
    m = dec.n * dec.n - 1
    diag, block = _h_coefficients(dec.n)
    table = max_abs(local.h - _assemble(dec, diag, block))
    r_plus = _permute_cols_swap(build_R(dec.rep, FD_STEP), m)
    r_minus = _permute_cols_swap(build_R(dec.rep, -FD_STEP), m)
    fd = (r_plus - r_minus) / (2.0 * FD_STEP)
    return table, max_abs(local.h - fd)


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
    local: LocalHamiltonian, ops: SpinOperators, tol: Tolerance = DEFAULT_TOL
) -> dict:
    """Fit spinform_h = scale * h + c * 1 and validate the residual.

    ``scale`` is fixed by the rescaling convention of :class:`LocalHamiltonian`;
    the additive constant is recovered by trace matching (the unique
    least-squares optimal shift).
    """
    n = local.n
    hs = spinform_h(ops, n)
    dim = hs.shape[0]
    scale = local.rescale_factor
    shift = complex(np.trace(hs - scale * local.h)) / dim
    if abs(shift.imag) > tol.abs_tol * dim:
        raise AssertionError(f"trace-matched shift is not real: {shift}")
    residual = max_abs(hs - scale * local.h - shift * np.eye(dim))
    if residual > tol.abs_tol * dim:
        raise AssertionError(f"spin-form fit residual {residual:.3e} exceeds tolerance")
    return {"scale": float(scale), "shift": float(shift.real), "residual": float(residual)}


def _embed_pair(h4: np.ndarray, m: int, sites: int, pair: tuple[int, int]) -> np.ndarray:
    """Embed a two-site operator onto the (1-based) site pair of a chain."""
    p, q = pair
    dim = m**sites
    rest = sites - 2
    op = np.kron(h4.reshape(m * m, m * m), np.eye(m**rest)) if rest else h4.reshape(m * m, m * m)
    tensor = op.reshape((m,) * (2 * sites))
    order = [p - 1, q - 1] + [s for s in range(sites) if s not in (p - 1, q - 1)]
    perm = np.argsort(order)  # send slot layout (p, q, rest...) to (1, ..., N)
    axes = list(perm) + [sites + int(x) for x in perm]
    return np.ascontiguousarray(tensor.transpose(axes)).reshape(dim, dim)


def chain_H(local: LocalHamiltonian, sites: int) -> ChainHamiltonian:
    """Periodic chain Hamiltonian H = sum_i h_{i,i+1} with site N+1 = 1."""
    n = local.n
    m = n * n - 1
    if sites < 2:
        raise ValueError("a chain needs at least two sites")
    dim = m**sites
    if dim > CHAIN_DIM_CAP:
        raise ValueError(
            f"chain dimension {dim} exceeds the dense cap {CHAIN_DIM_CAP}"
        )
    h = local.h
    total = np.zeros((dim, dim), dtype=complex)
    for i in range(1, sites):
        total += _embed_pair(h, m, sites, (i, i + 1))
    total += _embed_pair(h, m, sites, (sites, 1))
    return ChainHamiltonian(n=n, sites=sites, H=total)


def transfer_matrix(dec: Decomposition, lam: complex, sites: int) -> np.ndarray:
    """Transfer matrix t(lam): auxiliary-space trace of the R-matrix monodromy.

    The monodromy is the ordered product of R factors over an auxiliary
    adjoint space with the site-1 factor leftmost; this ordering makes t(lam)
    the generating object for H = sum_i h_{i,i+1} (the opposite ordering
    generates the reflected chain).  The chain of R factors is contracted
    directly; the monodromy on the auxiliary (x) chain space is never
    materialized as a matrix.

    Only ``dec.rep`` is read.  ``dec`` stays the parameter because the
    benchmark tracer (``perfbench/tracing.py``) reads ``dec.n`` by that name.
    """
    n = dec.n
    m = n * n - 1
    check_pole_distance(lam, n)
    if m**sites > CHAIN_DIM_CAP:
        raise ValueError(f"transfer-matrix dimension {m**sites} exceeds the dense cap")
    r4 = build_R(dec.rep, lam).reshape(m, m, m, m)  # [aux_out, site_out, aux_in, site_in]
    # w carries [aux_out, aux_in, o_1..o_k, i_1..i_k]
    w = r4.transpose(0, 2, 1, 3)
    for _ in range(sites - 1):
        k = (w.ndim - 2) // 2
        # append the factor for the next site on the right of the product
        w = np.tensordot(w, r4, axes=([1], [0]))
        # [aux_out, o_1..o_k, i_1..i_k, o_new, aux_in, i_new] -> canonical layout
        perm = (
            [0, 2 * k + 2]
            + list(range(1, 1 + k))
            + [2 * k + 1]
            + list(range(1 + k, 1 + 2 * k))
            + [2 * k + 3]
        )
        w = w.transpose(perm)
    t = np.trace(w, axis1=0, axis2=1)
    dim = m**sites
    return t.reshape(dim, dim)


def commutation_check(dec: Decomposition, lam: complex, mu: complex, sites: int) -> float:
    """Normalized commutator residual of two transfer matrices.

    ``dec`` is passed on to :func:`transfer_matrix`, which keeps it for the
    benchmark tracer; only ``dec.rep`` is read.
    """
    t1 = transfer_matrix(dec, lam, sites)
    t2 = transfer_matrix(dec, mu, sites)
    return float(frobenius(t1 @ t2 - t2 @ t1) / (frobenius(t1) * frobenius(t2)))


def two_site_spectrum(local: LocalHamiltonian, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalues of the two-site density (sorted by real, then imaginary part).

    h is su(n)-invariant, so it conserves Cartan weight: rotated to two-site
    weight coordinates by U (x) U (:func:`liealg.weight_basis`) it is
    block-diagonal in the total weight, and each block goes through
    :func:`eig_general` with its residual contract (at n = 5 the largest
    block has 36 of the 576 dimensions).  An entry of the rotated h above
    ``tol.abs_tol`` outside the blocks raises ``AssertionError``.
    """
    u, weights = weight_basis(local.basis)
    m = u.shape[0]
    u_h = np.conj(u).T
    # (U (x) U) h (U (x) U)^dagger, one site index at a time
    t = (u @ local.h.reshape(m, m * m * m)).reshape(m, m, m * m)
    t = np.matmul(u, t).reshape(m * m * m, m) @ u_h
    t = (t.reshape(m * m, m, m).transpose(0, 2, 1) @ u_h).transpose(0, 2, 1)
    h_w = t.reshape(m * m, m * m)
    pair_w = pair_weights(weights)
    stray = max_abs(h_w[off_block_mask(pair_w)])
    if stray > tol.abs_tol:
        raise AssertionError(f"two-site density leaves its weight blocks ({stray:.3e})")
    eigenvalues = []
    for idx in weight_blocks(pair_w):
        eigenvalues.extend(z for z, _ in eig_general(h_w[np.ix_(idx, idx)], tol))
    return sorted(eigenvalues, key=lambda z: (z.real, z.imag))
