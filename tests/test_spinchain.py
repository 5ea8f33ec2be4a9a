import dataclasses

import numpy as np
import pytest

from adjrmat.adjoint_tensor import ad_matrix, permutation_op
from adjrmat.numerics import eig_general
from adjrmat.rmatrix import sample_ybe_pairs
from adjrmat.spinchain import (
    chain_H,
    commutation_check,
    h_oracle_residuals,
    local_h,
    spin_operators,
    spinform_h,
    transfer_matrix,
    two_site_spectrum,
    verify_spinform,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def locals_cache(algebra):
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = local_h(algebra.rep(n))
        return cache[n]

    return get


@pytest.mark.parametrize("n", [3, 4, 5])
def test_singlet_coefficient(algebra, locals_cache, n):
    dec = algebra.dec(n)
    loc = locals_cache(n)
    sub = dec.by_role("singlet")
    coeff = np.trace(sub.projector @ loc.h) / sub.dim
    assert abs(coeff - (2.0 + 2.0 * n) / n) < TOL


@pytest.mark.parametrize("n", [4, 5])
def test_o_block_closed_form(locals_cache, n):
    loc = locals_cache(n)
    root = np.sqrt(n * n - 4.0)
    want = np.array(
        [[(n + 2.0) ** 2 / (2.0 * n), root / 2.0], [-root / 2.0, 2.0 - n / 2.0]]
    )
    assert np.max(np.abs(loc.O_block - want)) < TOL


def test_su3_local_coefficients(algebra, locals_cache):
    """Projector coefficients 2, 2, 25/6, 1/2, 8/3 and off-diagonals +/- sqrt(5)/2."""
    dec = algebra.dec(3)
    loc = locals_cache(3)
    for role, want in (
        ("anti_left", 2.0),
        ("anti_right", 2.0),
        ("adjoint_sym", 25.0 / 6.0),
        ("adjoint_anti", 0.5),
        ("singlet", 8.0 / 3.0),
        ("sym_top", 0.0),
    ):
        sub = dec.by_role(role)
        assert abs(np.trace(sub.projector @ loc.h) / sub.dim - want) < 1e-10
    vs = dec.by_role("adjoint_sym").hw_vector
    va = dec.by_role("adjoint_anti").hw_vector
    vs = vs / np.linalg.norm(vs)
    va = va / np.linalg.norm(va)
    assert abs(np.vdot(vs, loc.h @ va) - np.sqrt(5.0) / 2.0) < 1e-10
    assert abs(np.vdot(va, loc.h @ vs) + np.sqrt(5.0) / 2.0) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_local_h_diagnostics(algebra, locals_cache, n):
    loc = locals_cache(n)
    table_residual, fd_residual = h_oracle_residuals(algebra.dec(n), loc)
    assert table_residual < TOL
    assert fd_residual < 1e-6
    assert np.linalg.norm(loc.h - loc.h.conj().T) > 0.1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_two_site_spectrum_real(locals_cache, n):
    spec = two_site_spectrum(locals_cache(n))
    assert max(abs(w.imag) for w in spec) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 5])
def test_two_site_spectrum_blocks_match_dense(locals_cache, n):
    """The weight-block spectrum against one dense solve of h."""
    loc = locals_cache(n)
    dense = sorted((w for w, _ in eig_general(loc.h)), key=lambda z: (z.real, z.imag))
    blocks = two_site_spectrum(loc)
    assert len(blocks) == len(dense)
    assert max(abs(a - b) for a, b in zip(blocks, dense)) <= 1e-10


def test_two_site_spectrum_refuses_weight_violation(locals_cache):
    loc = locals_cache(3)
    rng = np.random.default_rng(2)
    noise = rng.standard_normal(loc.h.shape) + 1j * rng.standard_normal(loc.h.shape)
    broken = dataclasses.replace(loc, h=loc.h + 1e-6 * noise)
    with pytest.raises(AssertionError, match="weight blocks"):
        two_site_spectrum(broken)


@pytest.mark.parametrize("n", [3, 4])
def test_two_site_spectrum_values(algebra, locals_cache, n):
    """Spectrum = projector coefficients plus the block eigenvalues (x m)."""
    dec = algebra.dec(n)
    loc = locals_cache(n)
    m = n * n - 1
    coeffs = {"sym_top": 0.0, "anti_left": 2.0, "anti_right": 2.0, "mixed_sym": 4.0,
              "singlet": (2.0 + 2.0 * n) / n}
    expected = []
    for sub in dec.submodules:
        if sub.role in coeffs:
            expected.extend([coeffs[sub.role]] * sub.dim)
    for w in np.linalg.eigvals(loc.O_block):
        expected.extend([w.real] * m)
    expected.sort()
    got = sorted(w.real for w in two_site_spectrum(loc))
    assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spin_operators_hermitian_and_q_is_casimir(algebra, n):
    rep = algebra.rep(n)
    ops = spin_operators(rep)
    assert np.max(np.abs(ops.Q - algebra.omega_oracle(n))) < 1e-14
    m = rep.dim
    for op in (ops.Q, ops.C_A, ops.K):
        assert np.max(np.abs(op - op.conj().T)) < TOL * m


def _spin_operators_einsum_oracle(algebra, n):
    """Q from the S stack, and C_A and K from the three-operand einsums that spin_operators replaced."""
    rep = algebra.rep(n)
    S = np.ascontiguousarray(rep.S.transpose(0, 2, 1))
    d = rep.basis.d
    m = rep.dim
    w = np.einsum("xbc,bij,cjk->xik", d, S, S, optimize=True)
    w2 = np.einsum("abc,aij,bjk->cik", d, S, S, optimize=True)
    term1 = np.einsum("cik,cjl->ijkl", w2, S, optimize=True)
    term2 = np.einsum("aik,ajl->ijkl", S, w, optimize=True)
    c_a = (term1 - term2).reshape(m * m, m * m)
    left = np.einsum("aij,fjk->afik", S, w, optimize=True)
    right = np.einsum("fij,ajk->afik", S, w, optimize=True)
    k = np.einsum("afik,afjl->ijkl", left, right, optimize=True).reshape(m * m, m * m)
    return algebra.omega_oracle(n), c_a, k


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spin_operators_match_einsum_oracle(algebra, n):
    rep = algebra.rep(n)
    ops = spin_operators(rep)
    for got, want in zip((ops.Q, ops.C_A, ops.K), _spin_operators_einsum_oracle(algebra, n)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_k_ca_do_not_commute(algebra, n):
    ops = spin_operators(algebra.rep(n))
    assert np.linalg.norm(ops.K @ ops.C_A - ops.C_A @ ops.K) > 0.1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spinform_fit(algebra, locals_cache, n):
    ops = spin_operators(algebra.rep(n))
    fit = verify_spinform(locals_cache(n), ops)
    assert fit["residual"] < TOL
    if n == 3:
        assert abs(fit["scale"] - 8.0 / 3.0) < 1e-12
    else:
        assert abs(fit["scale"] - 8.0 / (6.0 + n * n)) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_commutator_term_is_sole_antihermitian_part(algebra, n):
    """Removing the commutator term leaves a Hermitian operator."""
    ops = spin_operators(algebra.rep(n))
    hs = spinform_h(ops, n)
    comm = ops.K @ ops.C_A - ops.C_A @ ops.K
    coeff = 1.0 / 324.0 if n == 3 else 1.0 / (4.0 * n**3 * (6.0 + n * n))
    rest = hs - coeff * comm
    m = (n * n - 1) ** 2
    assert np.max(np.abs(rest - rest.conj().T)) < TOL * m
    assert np.max(np.abs(hs - hs.conj().T)) > 1e-3


def test_two_site_chain_is_h_plus_flipped(locals_cache):
    loc = locals_cache(3)
    sigma = permutation_op(8)
    chain = chain_H(loc, 2)
    assert np.max(np.abs(chain.H - (loc.h + sigma @ loc.h @ sigma))) < 1e-12


def test_chain_global_symmetry(algebra, locals_cache):
    basis = algebra.basis(3)
    loc = locals_cache(3)
    chain = chain_H(loc, 3)
    m = 8
    for a in range(m):
        gen = ad_matrix(basis, basis.generators[a])
        total = sum(
            np.kron(np.kron(np.eye(m ** (s - 1)), gen), np.eye(m ** (3 - s)))
            for s in (1, 2, 3)
        )
        assert np.max(np.abs(chain.H @ total - total @ chain.H)) < TOL * m * m


def test_chain_three_sites_has_complex_spectrum(locals_cache):
    chain = chain_H(locals_cache(3), 3)
    eigs = [w for w, _ in eig_general(chain.H)]
    assert max(abs(w.imag) for w in eigs) > 1e-6


def test_chain_dimension_cap(locals_cache):
    with pytest.raises(ValueError, match="262144"):
        chain_H(locals_cache(3), 6)
    with pytest.raises(ValueError):
        chain_H(locals_cache(3), 1)


def test_transfer_commutation(algebra, rng):
    dec = algebra.dec(3)
    for lam, mu in sample_ybe_pairs(rng, 3, 3):
        assert commutation_check(dec, lam, mu, 2) < 1e-8


def test_transfer_commutes_with_chain(algebra, locals_cache, rng):
    dec = algebra.dec(3)
    loc = locals_cache(3)
    for sites in (2, 3):
        lam = sample_ybe_pairs(rng, 3, 1)[0][0]
        t = transfer_matrix(dec, lam, sites)
        h = chain_H(loc, sites).H
        res = np.linalg.norm(t @ h - h @ t) / (np.linalg.norm(t) * np.linalg.norm(h))
        assert res < 1e-7


def test_transfer_at_zero_is_translation(algebra):
    dec = algebra.dec(3)
    m, sites = 8, 3
    t0 = transfer_matrix(dec, 0.0, sites)
    dim = m**sites
    idx = np.arange(dim)
    digits = np.unravel_index(idx, (m,) * sites)
    shifted = np.ravel_multi_index(tuple(digits[(k - 1) % sites] for k in range(sites)), (m,) * sites)
    translation = np.zeros((dim, dim))
    translation[idx, shifted] = 1.0
    assert np.max(np.abs(t0 - translation)) < 1e-12
