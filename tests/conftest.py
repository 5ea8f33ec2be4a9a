import dataclasses
import itertools
import math
import tempfile
import tracemalloc

import numpy as np
import pytest

from adjrmat import adjoint_tensor, rmatrix, spinchain
from adjrmat.adjoint_tensor import (
    HighestWeight,
    _crossed_entries,
    _labels,
    _partner,
    ad_matrix,
    adjoint_rep,
    apply_swap,
    build_decomposition,
    casimir_op,
    root_action,
    root_weight,
    site_left,
    weight_ad,
)
from adjrmat.liealg import build_basis, matrix_unit, weight_chain, weight_coords, weight_units, weyl_dimension
from adjrmat.numerics import DEFAULT_TOL, kron, max_abs
from adjrmat.rmatrix import build_intertwiner, intertwiner_op, r_op, r_tilde_op
from adjrmat.spinchain import SpinOperators

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no example database written into the tree
    settings.register_profile("reproducible", derandomize=True, database=None)
    settings.load_profile("reproducible")
    # Hypothesis still caches the literals of the source files under its home
    # directory, by default .hypothesis/ in the working directory; this one is
    # removed when the test process exits
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


# -- oracles: plain constructions the package no longer needs, kept to check it against


def orthonormalize(vectors, tol=DEFAULT_TOL):
    """Orthonormalize a sequence of 1-D vectors.

    Modified Gram-Schmidt with one re-orthogonalization pass.  Vectors whose
    residual norm after projection falls below ``tol.rank_tol`` are dropped;
    the output order follows the input order of the survivors.  Empty input
    yields an empty list.
    """
    basis = []
    for v in vectors:
        u = np.asarray(v, dtype=complex).copy()
        for _ in range(2):
            for q in basis:
                u -= q * np.vdot(q, u)
        nrm = np.linalg.norm(u)
        if nrm >= tol.rank_tol:
            basis.append(u / nrm)
    return basis


def apply_pair(a, v):
    """a (x) 1 + 1 (x) a on flat two-site coordinates shaped (D,) or (D, k)."""
    return site_left(a, v, 0) + site_left(a, v, 1)


def adjoint_stack(rep):
    """S^a = ad(I^a) in Gell-Mann coordinates as an (m, m, m) stack, (S^a)_bc = f^{acb}."""
    return np.ascontiguousarray(rep.basis.f.transpose(0, 2, 1))


def casimir_element(basis):
    """The element Omega = sum_a I^a (x) I^a as an n^2 x n^2 matrix."""
    g = basis.generators
    return np.einsum("aij,akl->ikjl", g, g, optimize=True).reshape(basis.n**2, basis.n**2)


def tensor_coords(basis, y, tol=DEFAULT_TOL):
    """Expand an n^2 x n^2 matrix over the I^a (x) I^b basis: its flat Gell-Mann coordinates.

    An expansion residual above ``tol.abs_tol`` (the matrix does not lie in
    su(n) (x) su(n)) raises ``ValueError``.
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


def gell_mann_rows(basis, tol=DEFAULT_TOL):
    """The highest-weight rows in Gell-Mann coordinates, as the package built them before the weight frame.

    The adjoint-copy rows are products taken in the fundamental
    tensor-square space ({Omega, 1 (x) e_1n} etc. as n^2 x n^2 matrices),
    re-expanded over I^a (x) I^b by trace projection (:func:`tensor_coords`).
    ``adjoint_tensor.highest_weight_vectors`` builds them in weight
    coordinates from matrix units.
    """
    n = basis.n
    labels = _labels(n)
    w_1n, w_1n1, w_2n = (matrix_unit(basis, *ij).coords for ij in ((1, n), (1, n - 1), (2, n)))

    def outer(u, v):
        return np.outer(u, v).ravel()

    rows = [
        HighestWeight("sym_top", labels["sym_top"], 1, outer(w_1n, w_1n)),
        HighestWeight("anti_left", labels["anti_left"], -1, outer(w_1n1, w_1n) - outer(w_1n, w_1n1)),
        HighestWeight("anti_right", labels["anti_right"], -1, outer(w_2n, w_1n) - outer(w_1n, w_2n)),
    ]
    if n >= 4:
        w_2n1 = matrix_unit(basis, 2, n - 1).coords
        sym = outer(w_2n1, w_1n) + outer(w_1n, w_2n1) - outer(w_1n1, w_2n) - outer(w_2n, w_1n1)
        rows.append(HighestWeight("mixed_sym", labels["mixed_sym"], 1, sym))
    omega = casimir_element(basis)
    e_1n = matrix_unit(basis, 1, n, coords=False).matrix
    one_e1n, e1n_one = kron(np.eye(n), e_1n), kron(e_1n, np.eye(n))
    v_s_mat = n * (omega @ one_e1n + one_e1n @ omega - (2.0 / n) * e1n_one)
    v_a_mat = np.sqrt(n * n - 4.0) * (omega @ one_e1n - one_e1n @ omega)
    rows.append(HighestWeight("adjoint_sym", labels["adjoint_sym"], 1, tensor_coords(basis, v_s_mat, tol)))
    rows.append(HighestWeight("adjoint_anti", labels["adjoint_anti"], -1, tensor_coords(basis, v_a_mat, tol)))
    rows.append(HighestWeight("singlet", labels["singlet"], 1, np.eye(basis.dim, dtype=complex).ravel()))
    return rows


def gell_mann_copies(basis):
    """E = [Ed Ef] as the package built it before the weight frame: the normalized columns d^{a..} and -f^{a..}.

    In Gell-Mann coordinates, (D, 2m).  ``PairFrame.E_w`` builds the two
    adjoint copies in weight coordinates from the weight-basis products.
    """
    m = basis.dim

    def embedding(t):
        cols = t.reshape(m, m * m).T
        return cols / np.linalg.norm(cols, axis=0)

    return np.hstack([embedding(basis.d), -embedding(basis.f)])


def quartic_oracle(rep, x):
    """T(x) = (1/4) sum_ab tr(x {I^a, I^b}) S^a S^b in Gell-Mann coordinates, as two einsums over the S stack.

    ``yangian_action.quartic_part`` builds T(x) in weight coordinates from
    the matrix units; this is the form it replaced.
    """
    g, S = rep.basis.generators, adjoint_stack(rep)
    prod = np.einsum("ij,ajk,bki->ab", x, g, g, optimize=True)
    t2 = prod + prod.T
    return 0.25 * np.einsum("ab,aij,bjk->ik", t2, S, S, optimize=True)


def site_right(x, a, site):
    """x (a (x) 1) for ``site`` 0 and x (1 (x) a) for ``site`` 1, on a (k, D) array."""
    m = a.shape[0]
    if site == 0:
        return np.matmul(a.T, x.reshape(-1, m, m)).reshape(x.shape)
    return (x.reshape(-1, m) @ a).reshape(x.shape)


def apply_omega(frame, x):
    """Omega_op on a (D,) vector or the columns of a (D, k) array of Gell-Mann coordinates, through the frame's sector blocks."""
    return frame.from_weight(frame.apply_weight(frame.term("omega"), frame.to_weight(x)))


def gell_mann_apply(op, x):
    """A ``rmatrix.PairOperator`` on Gell-Mann coordinates, rotated into the weight frame and back."""
    frame = op.frame
    return frame.from_weight(op.apply(frame.to_weight(x)))


def rotate_pair(u, r):
    """(u (x) u) r (u (x) u)^dagger for a D x D two-site operator r, one site index at a time.

    The package reads two-site operators in the weight frame through their
    sector blocks (``PairOperator.blocks`` and ``weight_dense``); this is the
    rotation of a dense Gell-Mann operator that they replaced.
    """
    u_h = np.conj(u).T
    r = site_left(u, site_left(u, r, 0), 1)
    return site_right(site_right(r, u_h, 1), u_h, 0)


def permutation_op(dim_v):
    """Swap operator sigma on V (x) V for dim(V) = dim_v; sigma(v (x) w) = w (x) v."""
    d2 = dim_v * dim_v
    sigma = np.zeros((d2, d2), dtype=complex)
    idx = np.arange(d2)
    i, j = divmod(idx, dim_v)
    sigma[idx, j * dim_v + i] = 1.0
    return sigma


def _root_ops(rep, lower):
    n = rep.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return np.stack([
        ad_matrix(rep.basis, matrix_unit(rep.basis, *((j, i) if lower else (i, j)), coords=False).matrix)
        for i, j in pairs
    ])


def lowering_ops(rep):
    """Stack of ad(e_ji) for i < j in lexicographic (i, j) order."""
    return _root_ops(rep, lower=True)


def raising_ops(rep):
    """Stack of ad(e_ij) for i < j in lexicographic (i, j) order."""
    return _root_ops(rep, lower=False)


def tensor_from_coords(basis, v):
    """The n^2 x n^2 matrix sum_ab v^{ab} I^a (x) I^b of flat two-site coordinates."""
    m, n, g = basis.dim, basis.n, basis.generators
    c = v.reshape(m, m)
    return np.einsum("ab,aij,bkl->ikjl", c, g, g, optimize=True).reshape(n * n, n * n)


def _assemble(dec, diag, block):
    """The dense projector-sum assembly: sum_role diag[role] P_role plus ``block`` on the adjoint pair.

    ``block`` acts in the {v_s, v_a} basis through the D x D projectors and
    the isometry of ``dec``.  :func:`_assemble_apply` applies this sum to
    columns instead; this is its oracle.
    """
    iso = dec.iso_s_to_a
    out = block[0, 0] * dec.by_role("adjoint_sym").projector + block[0, 1] * iso.conj().T
    out += block[1, 0] * iso + block[1, 1] * dec.by_role("adjoint_anti").projector
    for sub in dec.submodules:
        if sub.role in diag:
            out += diag[sub.role] * sub.projector
    return out


# random unit columns on which the projector-sum oracles are compared
_ASSEMBLY_PROBES = 8


def _probe_block(D):
    """:data:`_ASSEMBLY_PROBES` random complex unit columns of length D.

    They are drawn from a fresh generator seeded with ``rmatrix.DEFAULT_SEED``,
    so an oracle that draws them leaves the stream of its caller as it was.
    """
    rng = np.random.default_rng(rmatrix.DEFAULT_SEED)
    v = rng.standard_normal((D, _ASSEMBLY_PROBES)) + 1j * rng.standard_normal((D, _ASSEMBLY_PROBES))
    return v / np.linalg.norm(v, axis=0)


def _assemble_apply(dec, diag, block, v):
    """The projector-sum assembly applied to the columns of a (D, k) array ``v``.

    Returns sum_role diag[role] B_role (B_role^dagger v) plus ``block`` on the
    adjoint pair in the {v_s, v_a} basis, with the isometry applied as
    iso v = B_a (B_s^dagger v) and iso^dagger v = B_s (B_a^dagger v).  Only
    (D, k) and (dim, k) arrays are formed, but every basis of ``dec`` is read.
    """

    def coords(b):  # b^dagger v, without a conjugate copy of b
        return np.conj(b.T @ np.conj(v))

    b_s = dec.by_role("adjoint_sym").basis
    b_a = dec.by_role("adjoint_anti").basis
    c_s, c_a = coords(b_s), coords(b_a)
    out = b_s @ (block[0, 0] * c_s + block[0, 1] * c_a)
    out += b_a @ (block[1, 0] * c_s + block[1, 1] * c_a)
    for sub in dec.submodules:
        if sub.role in diag:
            out += diag[sub.role] * (sub.basis @ coords(sub.basis))
    return out


def probe_r_assembly_residual(dec, lam):
    """r-assembly-agreement as the projector sum on random columns, the oracle of ``rmatrix.r_assembly_residual``.

    R(lam) V in operator form against :func:`_assemble_apply` of I(lam), with
    the M(lam) block, on sigma V, for the block V of :func:`_probe_block`,
    over max(1, max-abs R V).  It reads ``rmatrix.r_op`` and
    ``rmatrix._intertwiner_coefficients`` at call time, as the package check
    does, so a test that rebinds either moves both.
    """
    lam = complex(lam)
    m = dec.rep.dim
    v = _probe_block(m * m)
    direct = gell_mann_apply(rmatrix.r_op(dec.rep, lam), v)
    coeffs = rmatrix._intertwiner_coefficients(rmatrix.CoefficientSet(dec.n), lam)
    composed = _assemble_apply(dec, *coeffs, apply_swap(v, m))
    return max_abs(direct - composed) / max(1.0, max_abs(direct))


def probe_h_table_residual(dec, h):
    """h-assembly-agreement as the projector sum on random columns, the oracle of ``spinchain._h_table_residual``."""
    v = _probe_block(dec.rep.dim**2)
    return max_abs(gell_mann_apply(h, v) - _assemble_apply(dec, *spinchain._h_coefficients(dec.n), v))


# -- highest-weight rows that are not: each must stop build_decomposition


def with_bad_row(monkeypatch, role, edit):
    """Rebind ``adjoint_tensor.highest_weight_vectors`` so that the row ``role`` is ``edit(basis, row)``, in weight coordinates."""
    original = adjoint_tensor.highest_weight_vectors

    def rows(basis, tol=DEFAULT_TOL):
        return [edit(basis, row) if row.role == role else row for row in original(basis, tol)]

    monkeypatch.setattr(adjoint_tensor, "highest_weight_vectors", rows)


def _lowered(basis, row):
    """The row under ad(e_21) (x) 1 + 1 (x) ad(e_21): a weight vector one root down, not highest."""
    a = weight_ad(basis, matrix_unit(basis, 2, 1, coords=False).matrix.real)
    return dataclasses.replace(row, coords=apply_pair(a, row.coords))


def _mixed(basis, row):
    """The row plus the singlet row, sum_b B_b^dagger (x) B_b: support in two weight sectors."""
    return dataclasses.replace(row, coords=row.coords + np.eye(basis.dim)[_partner(basis.n)].ravel())


def _wrong_parity(basis, row):
    return dataclasses.replace(row, parity=-row.parity)


# (edit, role, what the AssertionError says)
BAD_HIGHEST_WEIGHT_ROWS = [
    (_lowered, "sym_top", "raising operator does not kill"),
    (_mixed, "sym_top", "not a weight vector"),
    (_wrong_parity, "adjoint_sym", "parity"),
]


# -- the retired Gell-Mann apply of PairOperator, and the identity sweeps built on it

# the apply took Omega_op and E dense below this rank and as scipy CSR from it on
_SPARSE_FROM_RANK = 6
# identity columns per chunk of a sweep
_CHUNK = 256


def _pair_factors(frame):
    """(Omega_op, E, E^dagger) of a PairFrame, dense below rank 6 and CSR from it on."""
    e_h = np.ascontiguousarray(np.conj(frame.E).T)
    if frame.n < _SPARSE_FROM_RANK:
        return frame.dense_omega(), frame.E, e_h
    from scipy import sparse

    D = frame.m * frame.m
    rows, cols, vals = frame.omega_entries
    omega = sparse.csr_array((vals, (rows, cols)), shape=(D, D))
    return omega, sparse.csr_array(frame.E), sparse.csr_array(e_h)


def retired_apply(op, x):
    """PairOperator.apply as it was: sigma a transpose, Omega_op and E from _pair_factors, s^dagger a trace."""
    m = op.frame.m
    v = np.asarray(x, dtype=complex).reshape(m, m, -1)
    k = v.shape[2]
    omega, e, e_h = _pair_factors(op.frame)
    sym = 0.5 * (v + v.transpose(1, 0, 2))
    out = (op.plus - op.minus) * sym + op.minus * v
    out += op.omega * (omega @ sym.reshape(m * m, k)).reshape(m, m, k)
    coef = (e_h @ v.reshape(m * m, k)).reshape(2, m * k)
    out += (e @ (op.block @ coef).reshape(2 * m, k)).reshape(m, m, k)
    diag = np.arange(m)
    out[diag, diag] += (op.singlet / m) * np.trace(v)
    return out.reshape(np.shape(x))


def _identity_columns(D):
    """The D x D identity, _CHUNK columns at a time."""
    for start in range(0, D, _CHUNK):
        cols = np.arange(start, min(D, start + _CHUNK))
        block = np.zeros((D, len(cols)), dtype=complex)
        block[cols, np.arange(len(cols))] = 1.0
        yield block


def swept_r_at_zero(rep):
    """Max-abs of R(0) - sigma in Gell-Mann coordinates, R(0) applied to the identity in chunks."""
    m = rep.dim
    op = r_op(rep, 0.0)
    return max(max_abs(retired_apply(op, e) - apply_swap(e, m)) for e in _identity_columns(m * m))


def swept_inversion(rep, lam):
    """Max-abs of I(lam) I(-lam) e - e over the identity columns e."""
    plus, minus = intertwiner_op(rep, lam), intertwiner_op(rep, -lam)
    return max(max_abs(retired_apply(plus, retired_apply(minus, e)) - e)
               for e in _identity_columns(rep.dim**2))


def swept_asymptotic_remainders(rep, lams):
    """Frobenius norms of R(lam) - (1 + 2/lam) 1 + Omega_op/lam, applied to the identity in chunks."""
    omega = _pair_factors(rep.frame)[0]
    out = []
    for z in lams:
        op = r_op(rep, z)
        square = sum(np.linalg.norm(retired_apply(op, e) - (1.0 + 2.0 / z) * e + (omega @ e) / z) ** 2
                     for e in _identity_columns(rep.dim**2))
        out.append(float(np.sqrt(square)))
    return out


def all_generator_intertwining(rep, lams):
    """The intertwining residuals over every generator of ``rep.basis``, dense, using linearity in lam.

    The package checks the generating set of Y(su(n)) instead
    (``rmatrix.intertwining_residual``); this is the all-generator form it
    replaced, with the same normalizations: per lam, the largest over the
    generators x of max_abs([I, D(x)]) / max(1, max_abs(D(x))) and of
    max_abs(I J_0 - J_1 I) / max(1, max_abs(J_0)).  With a = ad(x), T = T(x)
    and K = T (x) 1 + 1 (x) T + (1/2)[a (x) 1, Omega_op], J_0 = lam (1 (x) a) + K
    and J_1 = lam (a (x) 1) + K; K is built once per generator and every
    product with a one-site factor is an m x m matmul.
    """
    i_lams = [build_intertwiner(rep, lam) for lam in lams]
    omega = rep.frame.dense_omega()
    eye = np.eye(rep.dim)
    res = np.zeros((len(lams), 2))
    for x in rep.basis.generators:
        a = ad_matrix(rep.basis, x)
        one_a = np.kron(eye, a)
        scale0 = max(1.0, max_abs(np.kron(a, eye) + one_a))
        k = site_left(a, omega, 0)
        k -= site_right(omega, a, 0)
        k *= 0.5
        t = quartic_oracle(rep, x)
        k += np.kron(t, eye) + np.kron(eye, t)
        for row, lam, i_lam in zip(res, lams, i_lams):
            # lin = I (1 (x) a) - (a (x) 1) I, and c = [I, a (x) 1 + 1 (x) a] from it
            lin = site_right(i_lam, a, 1)
            lin -= site_left(a, i_lam, 0)
            c = site_right(i_lam, a, 0)
            c -= site_left(a, i_lam, 1)
            c += lin
            row[0] = max(row[0], max_abs(c) / scale0)
            c = i_lam @ k
            c -= k @ i_lam
            c += lam * lin
            row[1] = max(row[1], max_abs(c) / max(1.0, max_abs(k + lam * one_a)))
    return [(float(r0), float(r1)) for r0, r1 in res]


def dense_spin_operators(rep, tol=DEFAULT_TOL):
    """Q, C_A and K as D x D Gell-Mann arrays, in a :class:`SpinOperators` with unit weights.

    This is the construction ``spinchain.spin_operators`` replaced by its
    compressions onto the highest-weight vectors: with ``dims`` all 1, the
    spin form, the trace-matched shift and the weighted norm of the package
    are the dense ones.  The m^4 stack of products S^b S^c builds w, and
    C_A and K are m^4 einsums (1.1 s at n = 6).
    """
    S = np.ascontiguousarray(rep.basis.f)  # (S^a)^T, the spin matrices of spinchain.spin_operators
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
    return SpinOperators(Q=q, C_A=c_a, K=k, dims=np.ones(m * m, dtype=int))


# -- the Gell-Mann path of the frame's invariants, retired for the table of weight-basis products


def rotated_sector_blocks(frame, entries):
    """The sector blocks of an invariant operator from its Gell-Mann nonzeros ``entries`` (rows, columns, values).

    U (x) U takes each entry to at most 16 (U has at most two nonzeros per
    column), rotated one row and column corner at a time; those that leave
    their sector cancel.  ``PairFrame.sector_blocks`` scatters entries
    already in the weight frame instead.
    """
    m, label, u = frame.m, frame.chain.label, frame.chain.u
    offsets, row0, pos = frame._layout
    big = np.abs(u) > 1e-12
    nz = np.argsort(~big, axis=0, kind="stable")[:2]  # (2, m): rows of the nonzeros of each column
    nz_u = np.where(np.take_along_axis(big, nz, 0), np.take_along_axis(u, nz, 0), 0.0)
    rows, cols, vals = entries
    (i, k), (j, l) = np.divmod(rows, m), np.divmod(cols, m)
    flat = np.zeros(offsets[-1], dtype=complex)
    for p in range(4):
        to_row = nz[p // 2, i] * m + nz[p % 2, k]
        weight = nz_u[p // 2, i] * nz_u[p % 2, k] * vals
        for q in range(4):
            to_col = nz[q // 2, j] * m + nz[q % 2, l]
            inside = label[to_row] == label[to_col]
            np.add.at(flat, row0[to_row[inside]] + pos[to_col[inside]],
                      weight[inside] * np.conj(nz_u[q // 2, j[inside]] * nz_u[q % 2, l[inside]]))
    return [flat[lo:hi].reshape(idx.shape + idx.shape[1:])
            for idx, lo, hi in zip(frame.sectors, offsets, offsets[1:])]


def gell_mann_crossed(frame, a, b):
    """The sector blocks of sum_c A^c (x) B^c for real dense (m, m, m) tensors ``a`` and ``b``, from their nonzeros."""

    def nonzeros(t):
        c, i, j = np.nonzero(np.abs(t) > 1e-12)
        return c, i, j, t[c, i, j]

    return rotated_sector_blocks(frame, _crossed_entries(nonzeros(a), nonzeros(b), frame.m))


def gell_mann_invariants(frame):
    """(Omega_op, C+, DD) as the sector blocks of the crossed sums of dense f and d, rotated into the weight frame.

    Omega_op = -sum_c F^c (x) F^c, C+ = i sum_c D^c (x) F^c and DD = sum_c
    D^c (x) D^c, with f = iF.  ``PairFrame`` reads all three off the table
    of weight-basis products.
    """
    big_f, d = frame.chain.basis.f.imag, frame.chain.basis.d.real
    omega = [-b for b in gell_mann_crossed(frame, big_f, big_f)]
    return omega, [1j * b for b in gell_mann_crossed(frame, d, big_f)], gell_mann_crossed(frame, d, d)


def product_copies(basis):
    """E = [Ed Ef] in weight coordinates from the (m, m, n, n) stack of every product B_x B_b, as a dense (D, 2m) array.

    ``PairFrame.E_w`` holds the same columns as their nonzeros, read from
    those of ad and D.
    """
    units, m, partner = weight_units(basis), basis.dim, _partner(basis.n)
    prod = units[:, None] @ units[None, :]  # (x, b): B_x B_b
    swapped = prod.transpose(1, 0, 2, 3)
    cols = []
    for sign, y in ((1.0, prod + swapped), (-1.0, prod - swapped)):
        c = weight_coords(basis, y)[:, partner]  # (x, b, .): the coordinates on B_b^dagger (x) .
        c = c.transpose(1, 2, 0).reshape(m * m, m)
        cols.append(sign * c / np.linalg.norm(c, axis=0))
    return np.hstack(cols)


# -- spin operators that are wrong, each from a wrong input to spinchain._spin_blocks

_SPIN_BLOCKS = spinchain._spin_blocks


def non_invariant_k(frame, anti, ad):
    """K plus the K of D(B_x) = c_x 1, which is symmetric in b and c but not invariant; Q and C_A as they are.

    c is random on the Cartan generators and 0 on the roots, so that the
    added term conserves weight, as every operator of the frame must.  For
    it C+ = -sum_x c_x 1 (x) ad(B_x) = 1 (x) A for the real diagonal
    A = -ad(sum_x c_x B_x), and DD = |c|^2 1, so it is n^2 (A (x) A + n |c|^2):
    Hermitian, so only the invariance premise can refuse it.
    """
    m, roots = frame.m, frame.n * (frame.n - 1)
    c = np.zeros(m)
    c[roots:] = np.random.default_rng(7).standard_normal(m - roots)
    x, diag = np.repeat(np.arange(m), m), np.tile(np.arange(m), m)
    wrong = _SPIN_BLOCKS(frame, (x, diag, diag, c[x]), ad)
    out = _SPIN_BLOCKS(frame, anti, ad)
    for t, w in zip(out, wrong):
        t[2] += w[2]
    return out


def _with_first_c_a_term(frame, anti, ad, wrong_ad):
    """Q, C_A and K with ad = ``wrong_ad`` in C_A's first term n C+ = -n sum_b D(B_b^T) (x) ad(B_b) alone."""
    out = _SPIN_BLOCKS(frame, anti, ad)
    for t, good, bad in zip(out, frame.crossed(anti, ad), frame.crossed(anti, wrong_ad)):
        t[1] -= frame.n * (bad - good)
    return out


def relabelled_c_a(frame, anti, ad):
    """C_A with the last two Cartan generators swapped in ad on site 2 of its first term: Hermitian but not invariant.

    Both are their own transposes, so the swap commutes with B_b -> B_b^T
    and C_A stays Hermitian.
    """
    op, i, j, v = ad
    swap = np.arange(frame.m)
    swap[[-2, -1]] = swap[[-1, -2]]
    order = np.argsort(swap[op], kind="stable")
    return _with_first_c_a_term(frame, anti, ad, (swap[op][order], i[order], j[order], v[order]))


def transposed_c_a(frame, anti, ad):
    """C_A with S^x transposed in Gell-Mann coordinates on site 2 of its first term.

    f is totally antisymmetric, so that transpose is -S^x, which is -ad(I^x)
    in any coordinates: this C_A is invariant, and only the sign of its
    first term is wrong.
    """
    op, i, j, v = ad
    return _with_first_c_a_term(frame, anti, ad, (op, i, j, -v))


def _all_sector_gathers(chain):
    """Gather indices of the dense Yang-Baxter blocks, one triple per sector of a 3-site ``chain``.

    Each triple reads R12, R13 and R23 restricted to the sector out of their
    (m, m, m, m) weight-coordinate arrays with one zero appended: an entry
    whose spectator site differs between row and column reads that zero.
    """
    m = chain.basis.dim

    def flat(p, q, spectator):
        idx = ((p[:, None] * m + q[:, None]) * m + p[None, :]) * m + q[None, :]
        return np.where(spectator[:, None] == spectator[None, :], idx, m**4)

    gathers = []
    for block in chain.blocks:
        a, b, c = np.unravel_index(block, (m, m, m))
        gathers.append((flat(a, b, c), flat(a, c, b), flat(b, c, a)))
    return gathers


def all_sector_ybe(dec, lam, mu, solution="R"):
    """The dense YBE residual summed over every sector of the three-site weight frame.

    The package sums the same Frobenius ratio over the highest-weight
    vectors of each module of the three sites (``rmatrix.ybe_residual``).
    """
    rep = dec.rep
    ops = {"R": r_op, "Rtilde": r_tilde_op}[solution]
    r12, r13, r23 = (np.append(ops(rep, z).weight_dense().ravel(), 0.0) for z in (lam, lam + mu, mu))
    diff2 = norm2 = 0.0
    for i12, i13, i23 in _all_sector_gathers(weight_chain(rep.basis, 3)):
        x12, x13, x23 = r12[i12], r13[i13], r23[i23]
        lhs = x12 @ (x13 @ x23)
        rhs = x23 @ (x13 @ x12)
        diff2 += np.linalg.norm(lhs - rhs) ** 2
        norm2 += np.linalg.norm(lhs) ** 2
    return float(np.sqrt(diff2 / norm2))


def compress(sector, blocks, pair):
    """P^T X P for the two-site operator X with sector blocks ``blocks`` on the sites ``sector.pairs[pair]``.

    ``rmatrix.ybe_residual`` combines the terms compressed once per sector
    (``TripleSector.terms``); this compression of each factor's combined
    blocks, on every call, is the path it replaced.
    """
    return sum(np.tensordot(p, blocks[g][r] @ p, axes=([0, 1], [0, 1])) for g, r, p in sector.pairs[pair])


def compressed_ybe(dec, lam, mu, solution="R"):
    """The Yang-Baxter residual of ``rmatrix.ybe_residual``, each factor compressed from its blocks by :func:`compress`."""
    rep = dec.rep
    ops = {"R": r_op, "Rtilde": r_tilde_op}[solution]
    factors = [ops(rep, z).blocks for z in (lam, lam + mu, mu)]  # on the sites (1, 2), (1, 3), (2, 3)
    diff2 = norm2 = 0.0
    for sector in rep.ybe_frame:
        a12, a13, a23 = (compress(sector, blocks, pair) for pair, blocks in enumerate(factors))
        lhs = a12 @ a13 @ a23
        diff2 += sector.dim * np.linalg.norm(lhs - a23 @ a13 @ a12) ** 2
        norm2 += sector.dim * np.linalg.norm(lhs) ** 2
    return float(np.sqrt(diff2 / norm2))


def casimir_sector_blocks(rep):
    """Omega_op on each sector W of ``rep.weight_frame`` as C_total/2 - 2n, reading no f.

    C_total = sum_{p != q} J(e_pq) J(e_qp) + |W|^2, with J(x) = x (x) 1 +
    1 (x) x: the root blocks come from ``WeightChain.shift_blocks`` and the
    Cartan generators act on W by the charges W . diag(H).
    """
    chain = rep.weight_frame
    roots = chain.weights[: rep.dim - (rep.n - 1)]
    shift = {tuple(a): {k: (t, b) for k, t, b in chain.shift_blocks(root_action(chain, a), a)}
             for a in roots}
    out = []
    for w, weight in enumerate(chain.sector_weights):
        total = float(weight @ weight) * np.eye(len(chain.blocks[w]), dtype=complex)
        for a in roots:
            if w in shift[tuple(-a)]:
                t, down = shift[tuple(-a)][w]
                total += shift[tuple(a)][t][1] @ down
        out.append(0.5 * total - 2.0 * rep.n * np.eye(len(total)))
    return out


def dense_raising_grams(chain, tol=DEFAULT_TOL):
    """{dominant sector: G} of ``chain``, G = sum_i E_i^T E_i over the dense sector blocks E_i of the simple raising
    operators.

    ``adjoint_tensor.highest_weight_bases`` assembles the same Grams from
    the nonzero entries of the E_i and forms no E_i.
    """
    n, dominant = chain.basis.n, chain.weyl_orbits
    gram = {w: np.zeros((len(chain.blocks[w]),) * 2) for w in dominant.tolist()}
    for i in range(1, n):
        alpha = root_weight(n, (i, i + 1))
        for k, _, b in chain.shift_blocks(root_action(chain, alpha).real, alpha, tol):
            if k in gram:  # a dominant sector
                gram[k] += b.T @ b
    return gram


def eigh_frame(chain, tol=DEFAULT_TOL):
    """(sector, dim V, P) for each dominant sector of ``chain`` with highest-weight vectors, by a full eigh.

    P holds the eigenvectors of the dense Gram (:func:`dense_raising_grams`)
    with eigenvalue at most ``tol.rank_tol``.  The package takes the same
    kernels by inverse iteration (``adjoint_tensor.highest_weight_bases``).
    """
    out = []
    for w, g in dense_raising_grams(chain, tol).items():
        vals, vecs = np.linalg.eigh(g)
        kernel = vals <= tol.rank_tol
        if kernel.any():
            out.append((w, weyl_dimension(chain.sector_weights[w]), vecs[:, kernel]))
    return out


def racah_speiser_count(chain, weight):
    """How many copies of the module of highest weight ``weight`` the sites of ``chain`` hold, from its sector sizes.

    The Racah-Speiser (Brauer) formula (Humphreys section 24):
    sum over w in S_n of sign(w) |sector(weight + rho - w rho)|, with
    rho = (n - 1, ..., 1, 0) and an absent sector counting 0.
    """
    n = chain.basis.n
    size = {tuple(w): len(idx) for w, idx in zip(chain.sector_weights.tolist(), chain.blocks)}
    rho = np.arange(n - 1, -1, -1)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * size.get(tuple((np.asarray(weight) + rho - rho[list(perm)]).tolist()), 0)
    return total


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _Algebra:
    """Layer-lazy cache: decompositions are only built when requested."""

    def __init__(self):
        self._basis = {}
        self._rep = {}
        self._dec = {}

    def basis(self, n):
        if n not in self._basis:
            self._basis[n] = build_basis(n)
        return self._basis[n]

    def rep(self, n):
        if n not in self._rep:
            self._rep[n] = adjoint_rep(self.basis(n), validate=n <= 5)
        return self._rep[n]

    def dec(self, n):
        if n not in self._dec:
            self._dec[n] = build_decomposition(self.rep(n))
        return self._dec[n]

    def omega_oracle(self, n):
        """Omega_op = sum_a S^a (x) S^a as a dense tensordot of the S stack.

        The package builds Omega_op only from the nonzeros of f
        (``PairFrame``); this is its independent oracle.  Not cached: at
        n = 7 it takes 85 MB.
        """
        S = adjoint_stack(self.rep(n))
        m = S.shape[1]
        t = np.tensordot(S, S, axes=(0, 0))  # (i, j, k, l)
        return np.ascontiguousarray(t.transpose(0, 2, 1, 3)).reshape(m * m, m * m)

    def __call__(self, n):
        """(basis, rep, dec) triple; builds the decomposition."""
        return self.basis(n), self.rep(n), self.dec(n)


_ALGEBRA = _Algebra()


@pytest.fixture(scope="session")
def algebra():
    return _ALGEBRA


@pytest.fixture
def rng():
    return np.random.default_rng(20231115)
