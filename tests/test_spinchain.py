import tracemalloc
from functools import reduce

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from adjrmat.adjoint_tensor import ad_matrix, generating_set, root_weight, rotate_pair
from adjrmat.liealg import weight_basis, weight_chain
from adjrmat.numerics import eig_general
from adjrmat.rmatrix import CoefficientSet, build_R, sample_ybe_pairs
from adjrmat.spinchain import (
    _h_table_residual,
    chain_H,
    chain_spectrum,
    commutation_check,
    global_symmetry_residual,
    h_oracle_residuals,
    local_h,
    sector_commutator,
    spin_operators,
    spinform_h,
    transfer_matrix,
    two_site_spectrum,
    verify_spinform,
    weight_hamiltonian,
    weight_transfer,
)

from conftest import permutation_op, traced_peak

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
    h = locals_cache(n)
    sub = dec.by_role("singlet")
    coeff = np.trace(sub.projector @ h) / sub.dim
    assert abs(coeff - (2.0 + 2.0 * n) / n) < TOL


@pytest.mark.parametrize("n", [4, 5])
def test_o_block_closed_form(n):
    """The adjoint-pair block M'(0) = N'(0) diag(1, -1) of h against its hand table."""
    root = np.sqrt(n * n - 4.0)
    want = np.array(
        [[(n + 2.0) ** 2 / (2.0 * n), root / 2.0], [-root / 2.0, 2.0 - n / 2.0]]
    )
    block = CoefficientSet(n).N_deriv0() @ np.diag([1.0, -1.0])
    assert np.max(np.abs(block - want)) < TOL


def test_su3_local_coefficients(algebra, locals_cache):
    """Projector coefficients 2, 2, 25/6, 1/2, 8/3 and off-diagonals +/- sqrt(5)/2."""
    dec = algebra.dec(3)
    h = locals_cache(3)
    for role, want in (
        ("anti_left", 2.0),
        ("anti_right", 2.0),
        ("adjoint_sym", 25.0 / 6.0),
        ("adjoint_anti", 0.5),
        ("singlet", 8.0 / 3.0),
        ("sym_top", 0.0),
    ):
        sub = dec.by_role(role)
        assert abs(np.trace(sub.projector @ h) / sub.dim - want) < 1e-10
    vs = dec.by_role("adjoint_sym").hw_vector
    va = dec.by_role("adjoint_anti").hw_vector
    vs = vs / np.linalg.norm(vs)
    va = va / np.linalg.norm(va)
    assert abs(np.vdot(vs, h @ va) - np.sqrt(5.0) / 2.0) < 1e-10
    assert abs(np.vdot(va, h @ vs) + np.sqrt(5.0) / 2.0) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_local_h_diagnostics(algebra, locals_cache, n):
    h = locals_cache(n)
    table_residual, fd_residual = h_oracle_residuals(algebra.dec(n), h)
    assert table_residual < TOL
    assert fd_residual < 1e-6
    assert np.linalg.norm(h - h.conj().T) > 0.1


def test_h_table_forms_no_dense_matrix_besides_h(algebra):
    """At n = 6 the table half of the h oracle peaks below half of one D x D complex array."""
    rep = algebra.rep(6)
    D = rep.dim**2
    h = local_h(rep)
    assert traced_peak(_h_table_residual, algebra.dec(6), h) < 0.5 * D * D * 16


@pytest.mark.parametrize("n", [3, 4, 5])
def test_two_site_spectrum_real(algebra, locals_cache, n):
    spec = two_site_spectrum(locals_cache(n), algebra.basis(n))
    assert max(abs(w.imag) for w in spec) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 5])
def test_two_site_spectrum_blocks_match_dense(algebra, locals_cache, n):
    """The weight-block spectrum against one dense solve of h."""
    h = locals_cache(n)
    dense = sorted((w for w, _ in eig_general(h)), key=lambda z: (z.real, z.imag))
    blocks = two_site_spectrum(h, algebra.basis(n))
    assert len(blocks) == len(dense)
    assert max(abs(a - b) for a, b in zip(blocks, dense)) <= 1e-10


def test_two_site_spectrum_refuses_weight_violation(algebra, locals_cache):
    h = locals_cache(3)
    rng = np.random.default_rng(2)
    noise = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    with pytest.raises(AssertionError, match="weight blocks"):
        two_site_spectrum(h + 1e-6 * noise, algebra.basis(3))


def test_two_site_spectrum_refuses_imaginary_part(algebra, locals_cache):
    """An imaginary shift conserves weight but leaves h complex in weight coordinates."""
    h = locals_cache(3)
    with pytest.raises(AssertionError, match="not real in weight coordinates"):
        two_site_spectrum(h + 1e-6j * np.eye(h.shape[0]), algebra.basis(3))


@pytest.mark.parametrize("n", [3, 4])
def test_two_site_spectrum_values(algebra, locals_cache, n):
    """Spectrum = projector coefficients plus the block eigenvalues (x m)."""
    dec = algebra.dec(n)
    h = locals_cache(n)
    m = n * n - 1
    coeffs = {"sym_top": 0.0, "anti_left": 2.0, "anti_right": 2.0, "mixed_sym": 4.0,
              "singlet": (2.0 + 2.0 * n) / n}
    expected = []
    for sub in dec.submodules:
        if sub.role in coeffs:
            expected.extend([coeffs[sub.role]] * sub.dim)
    for w in np.linalg.eigvals(CoefficientSet(n).N_deriv0() @ np.diag([1.0, -1.0])):
        expected.extend([w.real] * m)
    expected.sort()
    got = sorted(w.real for w in two_site_spectrum(h, algebra.basis(n)))
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


@pytest.mark.parametrize("n", [3, 4])
def test_spin_form_reads_the_one_commutator(algebra, n):
    """spinform_h reads the [K, C_A] that the operators keep, so a suite forms it once."""
    ops = spin_operators(algebra.rep(n))
    comm = ops.commutator
    assert ops.commutator is comm
    assert np.array_equal(comm, ops.K @ ops.C_A - ops.C_A @ ops.K)
    want = spinform_h(ops, n)
    vars(ops)["commutator"] = 2.0 * comm  # the spin form follows the kept commutator
    assert not np.array_equal(spinform_h(ops, n), want)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spinform_fit(algebra, locals_cache, n):
    ops = spin_operators(algebra.rep(n))
    fit = verify_spinform(locals_cache(n), ops, n)
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
    h = locals_cache(3)
    sigma = permutation_op(8)
    h_chain = chain_H(h, 2)
    assert np.max(np.abs(h_chain - (h + sigma @ h @ sigma))) < 1e-12


def _embed_pair(h4, m, sites, pair):
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


def _bond_sum(h, m, sites, bonds):
    """The per-bond oracle: h embedded on each listed bond by its own kron, added in list order."""
    total = np.zeros((m**sites, m**sites), dtype=complex)
    for bond in bonds:
        total += _embed_pair(h, m, sites, bond)
    return total


def _site_shift(m, sites):
    """The permutation matrix that moves the state of each site to the next one around the ring."""
    dim = m**sites
    idx = np.arange(dim)
    digits = np.unravel_index(idx, (m,) * sites)
    shifted = np.ravel_multi_index(tuple(digits[(k - 1) % sites] for k in range(sites)), (m,) * sites)
    translation = np.zeros((dim, dim))
    translation[idx, shifted] = 1.0
    return translation


@pytest.mark.parametrize("n, sites", [(3, 2), (3, 3), (4, 2)])
def test_chain_H_matches_per_bond_oracle(locals_cache, n, sites):
    h = locals_cache(n)
    ring = [(i, i % sites + 1) for i in range(1, sites + 1)]  # (1,2), (2,3), ..., (L,1)
    assert np.array_equal(chain_H(h, sites), _bond_sum(h, n * n - 1, sites, ring))


@pytest.mark.parametrize("sites", [2, 3, 4, 5])
def test_chain_H_matches_per_bond_oracle_on_random_density(rng, sites):
    """A dense h with no exchange symmetry fixes the orientation of every bond, (L,1) included."""
    m = 3
    h = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
    h[rng.random(h.shape) < 0.3] = -0.0
    ring = [(i, i % sites + 1) for i in range(1, sites + 1)]
    assert np.array_equal(chain_H(h, sites), _bond_sum(h, m, sites, ring))


def test_chain_H_is_translation_invariant(locals_cache):
    """T H T^-1 = H for the site shift T; a ring with a bond dropped, doubled or misplaced is not."""
    h = locals_cache(3)
    m, sites = 8, 3
    shift = _site_shift(m, sites)

    def residual(op):
        return np.max(np.abs(shift @ op @ shift.T - op))  # T^-1 = T^T for a permutation

    assert residual(chain_H(h, sites)) < 1e-12
    for bonds in (
        [(1, 2), (2, 3)],
        [(1, 2), (2, 3), (3, 1), (2, 3)],
        [(1, 2), (2, 3), (1, 3)],
        [(1, 2), (2, 3), (1, 2)],
    ):
        assert residual(_bond_sum(h, m, sites, bonds)) > 1e-3


def _gell_mann_symmetry_oracle(h_chain, basis, sites):
    """max over the Gell-Mann generators of max_abs([H, sum_s ad_s(x)]) / max(1, max_abs(H)), by dense Kronecker sums."""
    m = basis.dim
    worst = 0.0
    for gen in basis.generators:
        ad = ad_matrix(basis, gen)
        total = sum(np.kron(np.kron(np.eye(m**s), ad), np.eye(m ** (sites - 1 - s))) for s in range(sites))
        worst = max(worst, np.max(np.abs(h_chain @ total - total @ h_chain)))
    return worst / max(1.0, np.max(np.abs(h_chain)))


def _weight_commutators(chain, h_w):
    """max_abs([H_w, sum_s ad_s(x)]) for each x of the weight basis of su(n), by dense Kronecker sums.

    The weight basis is read off U: B_b = sum_a conj(U[b, a]) I^a, the root
    vectors first, then the Cartan generators.
    """
    basis, sites, u = chain.basis, chain.sites, chain.u
    m = basis.dim
    out = []
    for unit in np.einsum("ba,aij->bij", np.conj(u), basis.generators):
        x1 = u @ ad_matrix(basis, unit) @ np.conj(u).T
        total = sum(np.kron(np.kron(np.eye(m**s), x1), np.eye(m ** (sites - 1 - s))) for s in range(sites))
        out.append(np.max(np.abs(h_w @ total - total @ h_w)))
    return np.array(out)


def _weight_conserving_noise(basis, h, seed):
    """h plus real noise of size 1e-3 inside the two-site weight blocks of rotate_pair(u, h), rotated back.

    The result conserves weight but is not su(n)-invariant.
    """
    u, weights = weight_basis(basis)
    pair_w = (weights[:, None, :] + weights[None, :, :]).reshape(len(weights) ** 2, -1)
    inside = np.all(pair_w[:, None, :] == pair_w[None, :, :], axis=2)
    noise = np.where(inside, np.random.default_rng(seed).standard_normal(h.shape), 0.0)
    return rotate_pair(np.conj(u).T, rotate_pair(u, h) + 1e-3 * noise)


def test_chain_global_symmetry(algebra, locals_cache):
    """On the true H the Gell-Mann Kronecker-sum oracle and the sector residual both vanish."""
    basis = algebra.basis(3)
    h = locals_cache(3)
    for sites in (2, 3):
        assert _gell_mann_symmetry_oracle(chain_H(h, sites), basis, sites) <= 1e-13
        chain = weight_chain(basis, sites)
        assert global_symmetry_residual(chain, weight_hamiltonian(chain, h)) <= 1e-13


def _chevalley_rows(chain):
    """The rows of :func:`_weight_commutators` that the residual reads: Chevalley roots, then the Cartan generators."""
    n = chain.basis.n
    roots = chain.basis.dim - (n - 1)
    chevalley = [np.flatnonzero(np.all(chain.weights[:roots] == root_weight(n, ij), axis=1))[0]
                 for ij in generating_set(n)[0]]
    return np.array(chevalley + list(range(roots, chain.basis.dim)))


@pytest.mark.parametrize("sites", [2, 3])
def test_global_symmetry_residual_matches_weight_kronecker_oracle(algebra, locals_cache, sites):
    """The residual against the dense Kronecker sums of the Chevalley and Cartan generators."""
    basis = algebra.basis(3)
    chain = weight_chain(basis, sites)
    rows = _chevalley_rows(chain)
    for h in (locals_cache(3), _weight_conserving_noise(basis, locals_cache(3), 7)):
        h_w = weight_hamiltonian(chain, h)
        want = _weight_commutators(chain, h_w)[rows].max() / max(1.0, np.max(np.abs(h_w)))
        assert abs(global_symmetry_residual(chain, h_w) - want) <= 1e-13


def test_global_symmetry_residual_reads_the_stray_through_the_cartan_generators(algebra, locals_cache):
    """For an H that leaves its sectors, the root terms see the sector blocks and the Cartan terms the rest."""
    basis = algebra.basis(3)
    chain = weight_chain(basis, 2)
    h = locals_cache(3)
    noise = np.random.default_rng(3).standard_normal(h.shape)
    h_w = weight_hamiltonian(chain, h + 1e-3 * noise)
    inside = np.zeros_like(h_w)
    for idx in chain.blocks:
        inside[np.ix_(idx, idx)] = h_w[np.ix_(idx, idx)]
    roots = basis.dim - (basis.n - 1)
    chevalley = _chevalley_rows(chain)[: 2 * (basis.n - 1)]
    want = max(_weight_commutators(chain, h_w)[roots:].max(),
               _weight_commutators(chain, inside)[chevalley].max())
    got = global_symmetry_residual(chain, h_w) * max(1.0, np.max(np.abs(h_w)))
    assert want > 1e-4
    assert abs(got - want) <= 1e-13


def test_global_symmetry_residual_detects_broken_invariance(algebra, locals_cache):
    """Noise that leaves the weight sectors is caught; so is noise that keeps them.

    The weight-conserving density passes the sector spectrum, so its stray
    is below tolerance: its residual comes from the root commutators.
    """
    basis = algebra.basis(3)
    h = locals_cache(3)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    conserving = _weight_conserving_noise(basis, h, 5)
    for sites in (2, 3):
        chain = weight_chain(basis, sites)
        assert global_symmetry_residual(chain, weight_hamiltonian(chain, h + 1e-3 * noise)) > 1e-8
        chain_spectrum(conserving, basis, sites)  # raises if the density leaves its sectors
        assert global_symmetry_residual(chain, weight_hamiltonian(chain, conserving)) > 1e-8


@pytest.mark.parametrize("sites", [2, 3])
def test_weight_chain_is_the_rotated_gell_mann_chain(algebra, locals_cache, sites):
    """H_w and t_w(lam) are U^(x)L H U^(x)L^dagger and U^(x)L t U^(x)L^dagger."""
    basis, rep, dec = algebra(3)
    h = locals_cache(3)
    chain = weight_chain(basis, sites)
    big_u = reduce(np.kron, [chain.u] * sites)

    def rotated(op):
        return big_u @ op @ np.conj(big_u).T

    assert np.max(np.abs(weight_hamiltonian(chain, h) - rotated(chain_H(h, sites)))) <= 1e-12
    lam = 0.37 + 0.21j
    t = transfer_matrix(dec, lam, sites)
    assert np.max(np.abs(weight_transfer(chain, rep, lam) - rotated(t))) <= 1e-12 * np.max(np.abs(t))


def test_weight_chain_sectors(algebra):
    """37 sectors of the 512 states at L = 3, the largest of 56; labels and weights agree with the blocks."""
    chain = weight_chain(algebra.basis(3), 3)
    assert len(chain.blocks) == 37
    assert max(len(idx) for idx in chain.blocks) == 56
    assert sorted(np.concatenate(chain.blocks).tolist()) == list(range(512))
    digits = np.indices((8,) * 3).reshape(3, -1)
    total = chain.weights[digits].sum(axis=0)
    for k, idx in enumerate(chain.blocks):
        assert np.all(chain.label[idx] == k)
        assert np.all(total[idx] == chain.sector_weights[k])


def test_chain_three_sites_has_complex_spectrum(algebra, locals_cache):
    eigs = chain_spectrum(locals_cache(3), algebra.basis(3), 3)
    assert max(abs(w.imag) for w in eigs) > 1e-6


@pytest.mark.parametrize("n, sites", [(3, 2), (3, 3), (4, 2)])
def test_chain_spectrum_matches_dense(algebra, locals_cache, n, sites):
    """The weight-sector spectrum against one dense solve of H, matched by assignment.

    The defective cluster of L = 3 is resolved only to about 1e-7.
    """
    h = locals_cache(n)
    dense = np.array([w for w, _ in eig_general(chain_H(h, sites))])
    sectors = np.array(chain_spectrum(h, algebra.basis(n), sites))
    assert len(sectors) == len(dense)
    cost = np.abs(sectors[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-6
    assert np.sum(np.abs(sectors.imag) > 1e-6) == np.sum(np.abs(dense.imag) > 1e-6)


def test_chain_spectrum_refuses_weight_violation(algebra, locals_cache):
    h = locals_cache(3)
    rng = np.random.default_rng(2)
    noise = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    with pytest.raises(AssertionError, match="weight blocks"):
        chain_spectrum(h + 1e-6 * noise, algebra.basis(3), 2)


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
    h = locals_cache(3)
    for sites in (2, 3):
        lam = sample_ybe_pairs(rng, 3, 1)[0][0]
        t = transfer_matrix(dec, lam, sites)
        h_chain = chain_H(h, sites)
        res = np.linalg.norm(t @ h_chain - h_chain @ t) / (
            np.linalg.norm(t) * np.linalg.norm(h_chain)
        )
        assert res < 1e-7


def _dense_ratio(a, b):
    """The Gell-Mann Frobenius ratio ||AB - BA|| / (||A|| ||B||) of the dense checks."""
    return np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a) * np.linalg.norm(b))


def test_transfer_residuals_match_dense_ratio(algebra, locals_cache, rng):
    """The sector residuals against the dense ratio, at the lambdas of test_transfer_commutes_with_chain."""
    basis, rep, dec = algebra(3)
    h = locals_cache(3)
    for sites in (2, 3):
        lam, mu = sample_ybe_pairs(rng, 3, 1)[0]
        chain = weight_chain(basis, sites)
        t_w = weight_transfer(chain, rep, lam)
        t, t_mu = transfer_matrix(dec, lam, sites), transfer_matrix(dec, mu, sites)
        got = sector_commutator(chain, t_w, weight_transfer(chain, rep, mu))
        assert abs(got - _dense_ratio(t, t_mu)) <= 1e-15
        got_h = sector_commutator(chain, t_w, weight_hamiltonian(chain, h))
        assert abs(got_h - _dense_ratio(t, chain_H(h, sites))) <= 1e-15


def test_sector_commutator_cannot_hide_off_sector_error(algebra, locals_cache):
    """A t_w whose blocks commute with H_w, plus one off-sector entry of relative size 1e-6."""
    basis, rep, _ = algebra(3)
    chain = weight_chain(basis, 3)
    h_w = weight_hamiltonian(chain, locals_cache(3))
    t_w = weight_transfer(chain, rep, 0.37 + 0.21j)
    assert sector_commutator(chain, t_w, h_w) <= 1e-15
    t_w[chain.blocks[0][0], chain.blocks[1][0]] += 1e-6 * np.linalg.norm(t_w)
    assert sector_commutator(chain, t_w, h_w) >= 1e-7
    assert sector_commutator(chain, h_w, t_w) >= 1e-7


def test_transfer_at_zero_is_translation(algebra):
    dec = algebra.dec(3)
    m, sites = 8, 3
    t0 = transfer_matrix(dec, 0.0, sites)
    translation = _site_shift(m, sites)
    assert np.max(np.abs(t0 - translation)) < 1e-12


def _transfer_matrix_oracle(dec, lam, sites):
    """t(lam) from the full monodromy tensor, traced last (m^(2L+2) entries)."""
    m = dec.n * dec.n - 1
    r4 = build_R(dec.rep, lam).reshape(m, m, m, m)  # [aux_out, site_out, aux_in, site_in]
    w = r4.transpose(0, 2, 1, 3)  # [aux_out, aux_in, o_1..o_k, i_1..i_k]
    for _ in range(sites - 1):
        k = (w.ndim - 2) // 2
        w = np.tensordot(w, r4, axes=([1], [0]))
        perm = (
            [0, 2 * k + 2]
            + list(range(1, 1 + k))
            + [2 * k + 1]
            + list(range(1 + k, 1 + 2 * k))
            + [2 * k + 3]
        )
        w = w.transpose(perm)
    return np.trace(w, axis1=0, axis2=1).reshape(m**sites, m**sites)


@pytest.mark.parametrize("n, sites", [(3, 2), (3, 3), (4, 2)])
def test_transfer_matrix_matches_full_tensor_oracle(algebra, n, sites):
    dec = algebra.dec(n)
    for lam in (0.37 + 0.21j, -1.3 + 0.8j):
        want = _transfer_matrix_oracle(dec, lam, sites)
        got = transfer_matrix(dec, lam, sites)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_transfer_matrix_memory(algebra):
    """One n = 3, L = 3 transfer matrix stays far below the 268 MB monodromy tensor."""
    dec = algebra.dec(3)
    transfer_matrix(dec, 0.37 + 0.21j, 3)
    tracemalloc.start()
    try:
        transfer_matrix(dec, 0.37 + 0.21j, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6
