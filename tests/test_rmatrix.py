import numpy as np
import pytest

from adjrmat.adjoint_tensor import casimir_op, permutation_op
from adjrmat.spinchain import local_h
from adjrmat.liealg import weight_basis
from adjrmat.numerics import DEFAULT_TOL
from adjrmat import rmatrix
from adjrmat.rmatrix import (
    DENSE_YBE_MAX_DIM,
    CoefficientSet,
    _assemble,
    _intertwiner_coefficients,
    asymptotic_check,
    build_R,
    build_R_tilde,
    build_intertwiner,
    check_pole_distance,
    derive_coefficients,
    intertwiner_op,
    intertwining_residual,
    operator_form,
    r_assembly_residual,
    r_at_zero_residual,
    r_op,
    r_tilde_op,
    sample_spectral_parameters,
    sample_ybe_pairs,
    ybe_residual,
)

TOL = 1e-9


def test_intertwiner_at_zero_is_identity(algebra):
    rep = algebra.rep(3)
    eye = np.eye(64)
    assert np.max(np.abs(build_intertwiner(rep, 0.0) - eye)) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_intertwiner_inversion(algebra, rng, n):
    rep = algebra.rep(n)
    eye = np.eye((n * n - 1) ** 2)
    for lam in sample_spectral_parameters(rng, n, 10, symmetric=True):
        prod = build_intertwiner(rep, lam) @ build_intertwiner(rep, -lam)
        assert np.max(np.abs(prod - eye)) < 1e-8


@pytest.mark.parametrize("n", [3, 4])
def test_intertwining_property(algebra, rng, n):
    basis, rep = algebra.basis(n), algebra.rep(n)
    for lam in sample_spectral_parameters(rng, n, 2):
        r0, r1 = intertwining_residual(rep, basis.generators, lam)
        assert r0 < 1e-8
        assert r1 < 1e-8


def test_coefficient_closed_forms():
    c = CoefficientSet(5)
    lam = 0.3 - 0.7j
    assert abs(c.f1(lam) - (1 + lam) / (1 - lam)) == 0.0
    assert abs(c.f3(lam) - ((1 + lam) / (1 - lam)) ** 2) == 0.0
    assert abs(c.f4(lam) - (1 + lam) * (5 + lam) / ((1 - lam) * (5 - lam))) == 0.0
    m = c.M(lam)
    n = c.N(lam)
    assert abs(m[0, 0] - n[0, 0]) == 0.0
    assert abs(m[0, 1] + n[0, 1]) == 0.0  # N = M diag(1, -1)
    assert abs(m[1, 0] - n[1, 0]) == 0.0
    assert abs(m[1, 1] + n[1, 1]) == 0.0


def test_derive_coefficients_fixed_samples(algebra):
    dec = algebra.dec(4)
    report = derive_coefficients(dec, [1j, 2 + 1j, -0.3])
    assert report["max_error"] < 1e-8
    c = CoefficientSet(4)
    for entry in report["samples"]:
        lam = entry["lambda"]
        assert abs(entry["f1"] - c.f1(lam)) < 1e-8
        assert abs(entry["f3"] - c.f3(lam)) < 1e-8
        assert abs(entry["f4"] - c.f4(lam)) < 1e-8
        assert np.max(np.abs(entry["M"] - c.M(lam))) < 1e-8


@pytest.mark.parametrize("n", [4, 5, 6])
def test_derive_f4_across_ranks(algebra, n):
    dec = algebra.dec(n)
    report = derive_coefficients(dec, [0.8 + 0.6j])
    entry = report["samples"][0]
    assert abs(entry["f4"] - CoefficientSet(n).f4(entry["lambda"])) < 1e-8


def test_r_at_zero_is_swap(algebra):
    rep = algebra.rep(4)
    sigma = permutation_op(15)
    assert np.max(np.abs(build_R(rep, 0.0) - sigma)) < 1e-12


def test_su3_block_eigenvalues_closed_form():
    c = CoefficientSet(3)
    for lam in (0.5, 2j, -1.7):
        lam = complex(lam)
        got = sorted(np.linalg.eigvals(c.N(lam)), key=lambda z: (z.real, z.imag))
        root = np.sqrt(4.0 + 5.0 * lam**2)
        denom = 2.0 * (1.0 - lam) ** 2 * (3.0 - lam)
        want = sorted(
            [(11.0 * lam - 2.0 * lam**3 + s * 3.0 * root) / denom for s in (1.0, -1.0)],
            key=lambda z: (z.real, z.imag),
        )
        assert max(abs(g - w) for g, w in zip(got, want)) < TOL


def test_rtilde_is_swap_conjugate(algebra, rng):
    rep = algebra.rep(3)
    sigma = permutation_op(8)
    for lam in sample_spectral_parameters(rng, 3, 3):
        lhs = build_R_tilde(rep, lam)
        rhs = sigma @ build_R(rep, lam) @ sigma
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_ybe_su3_paper_point(algebra):
    dec = algebra.dec(3)
    assert ybe_residual(dec, 0.7, -1.3j, mode="dense") < TOL


def test_ybe_boundary_mu_zero(algebra):
    dec = algebra.dec(3)
    assert ybe_residual(dec, 0.45 + 0.3j, 0.0, mode="dense") < 1e-10


@pytest.mark.parametrize("solution", ["R", "Rtilde"])
def test_ybe_dense_both_solutions(algebra, rng, solution):
    for n in (3, 4):
        dec = algebra.dec(n)
        lam, mu = sample_ybe_pairs(rng, n, 1)[0]
        assert ybe_residual(dec, lam, mu, mode="dense", solution=solution) < 1e-8


def _ybe_einsum_oracle(dec, lam, mu, solution="R"):
    """The dense YBE residual as one three-site contraction per side, O(m^8)."""
    build = {"R": build_R, "Rtilde": build_R_tilde}[solution]
    m = dec.n * dec.n - 1
    r_lam, r_sum, r_mu = (build(dec.rep, z).reshape(m, m, m, m) for z in (lam, lam + mu, mu))
    lhs = np.einsum("abde,dcxi,eiyz->abcxyz", r_lam, r_sum, r_mu, optimize=True)
    rhs = np.einsum("bcef,afgz,gexy->abcxyz", r_mu, r_sum, r_lam, optimize=True)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))


@pytest.mark.parametrize("n", [3, 4])
def test_ybe_weight_blocks_match_einsum_oracle(algebra, n):
    dec = algebra.dec(n)
    for lam, mu in sample_ybe_pairs(np.random.default_rng(n), n, 2):
        for solution in ("R", "Rtilde"):
            blocks = ybe_residual(dec, lam, mu, mode="dense", solution=solution)
            assert abs(blocks - _ybe_einsum_oracle(dec, lam, mu, solution)) < 1e-13


def test_ybe_weight_blocks_match_oracle_when_failing(algebra, monkeypatch):
    """With the parity diag(1, -1) dropped from N, both paths give the same failure."""
    dec = algebra.dec(3)
    monkeypatch.setattr(CoefficientSet, "N", CoefficientSet.M)
    lam, mu = 0.5 + 0.2j, -0.3 + 0.4j
    blocks = ybe_residual(dec, lam, mu, mode="dense")
    oracle = _ybe_einsum_oracle(dec, lam, mu)
    assert blocks > 1e-8
    assert abs(blocks - oracle) <= 1e-10 * oracle


def _offblock_part(dec, p):
    """The part of a two-site operator that changes the total weight."""
    m = dec.n * dec.n - 1
    u, weights = weight_basis(dec.rep.basis)
    w2 = np.kron(u, u)
    pair_w = (weights[:, None, :] + weights[None, :, :]).reshape(m * m, -1)
    off = np.any(pair_w[:, None, :] != pair_w[None, :, :], axis=2)
    return w2.conj().T @ np.where(off, w2 @ p @ w2.conj().T, 0.0) @ w2


@pytest.mark.parametrize("offblock_only", [False, True])
def test_ybe_dense_rejects_non_invariant_R(algebra, monkeypatch, offblock_only):
    """A weight-violating perturbation of R fails the dense YBE check."""
    dec = algebra.dec(3)
    m = 8
    rng = np.random.default_rng(5)
    p = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
    if offblock_only:
        # invisible inside the weight blocks, so only the symmetry floor sees it
        p = _offblock_part(dec, p)
    exact = rmatrix.build_R

    def perturbed(rep, lam):
        r = exact(rep, lam)
        return r + 1e-6 * np.linalg.norm(r) / np.linalg.norm(p) * p

    monkeypatch.setattr(rmatrix, "build_R", perturbed)
    assert ybe_residual(dec, 0.7, -1.3j, mode="dense") > 1e-8


def test_ybe_matrix_free_agrees_with_dense(algebra, rng):
    """The probe estimator is validated against the dense residual."""
    dec = algebra.dec(3)
    lam, mu = 0.9 + 0.4j, -0.6 + 0.2j
    dense = ybe_residual(dec, lam, mu, mode="dense")
    probed = ybe_residual(dec, lam, mu, mode="matrix_free", probes=10, rng=rng)
    assert probed < 1e-8
    assert abs(probed - dense) < 1e-8


def test_ybe_matrix_free_su5(algebra, rng):
    dec = algebra.dec(5)
    for lam, mu in sample_ybe_pairs(rng, 5, 3):
        assert ybe_residual(dec, lam, mu, mode="matrix_free", probes=10, rng=rng) < 1e-8


def test_ybe_dense_mode_capped(algebra):
    dec = algebra.dec(5)
    assert 24**3 > DENSE_YBE_MAX_DIM >= 15**3
    with pytest.raises(ValueError):
        ybe_residual(dec, 0.4, 0.2, mode="dense")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_unitarity(algebra, rng, n):
    rep = algebra.rep(n)
    m = n * n - 1
    sigma = permutation_op(m)
    eye = np.eye(m * m)
    for lam in sample_spectral_parameters(rng, n, 10, symmetric=True):
        prod = build_R(rep, lam) @ sigma @ build_R(rep, -lam) @ sigma
        assert np.max(np.abs(prod - eye)) < 1e-8


def test_sun_invariance(algebra, rng):
    rep = algebra.rep(4)
    m = rep.dim
    lam = sample_spectral_parameters(rng, 4, 1)[0]
    r = build_R(rep, lam)
    for a in range(m):
        action = np.kron(rep.S[a], np.eye(m)) + np.kron(np.eye(m), rep.S[a])
        assert np.max(np.abs(r @ action - action @ r)) < 1e-8


def test_asymptotic_ratio(algebra):
    report = asymptotic_check(algebra.rep(4), [100.0, 1000.0])
    assert report["pass"]
    assert 100.0 / 1.5 <= report["ratios"][0] <= 100.0 * 1.5


def test_asymptotic_far_remainder(algebra):
    report = asymptotic_check(algebra.rep(4), [1000.0, 1e6])
    # the remainder constant estimated at 1e3 bounds the value at 1e6
    const = report["remainders"][0] * 1e6
    omega = casimir_op(algebra.rep(4))
    assert report["remainders"][1] <= const / 1e12 * 1.5
    assert report["remainders"][1] <= 1e-9 * np.linalg.norm(omega)


def test_asymptotic_requires_both_subleading_terms(algebra):
    """Dropping the Casimir term degrades the falloff to first order."""
    rep = algebra.rep(4)
    m = 15
    eye = np.eye(m * m)
    rems = []
    for lam in (100.0, 1000.0):
        r = build_R(rep, lam)
        rems.append(np.linalg.norm(r - (1.0 + 2.0 / lam) * eye))
    ratio = rems[0] / rems[1]
    assert ratio < 100.0 / 1.5  # first-order falloff only


def test_asymptotic_rejects_small_lambda(algebra):
    with pytest.raises(ValueError):
        asymptotic_check(algebra.rep(3), [5.0, 50.0])


def test_pole_guard(algebra):
    dec = algebra.dec(3)
    with pytest.raises(ValueError, match="pole at 1"):
        build_intertwiner(dec.rep, 1.05)
    with pytest.raises(ValueError, match="pole at 3"):
        build_R(dec.rep, 2.95)
    with pytest.raises(ValueError):
        ybe_residual(dec, 0.6, 0.45, mode="dense")  # lam + mu hits the pole at 1
    check_pole_distance(0.5, 3)


def test_sampler_respects_guards(rng):
    for z in sample_spectral_parameters(rng, 3, 200):
        assert abs(z) <= 3.0
        assert abs(z - 1.0) >= 0.1 and abs(z - 3.0) >= 0.1
    for z in sample_spectral_parameters(rng, 3, 200, symmetric=True):
        for point in (z, -z):
            assert abs(point - 1.0) >= 0.1 and abs(point - 3.0) >= 0.1
    for lam, mu in sample_ybe_pairs(rng, 4, 50):
        for z in (lam, mu, lam + mu):
            assert abs(z - 1.0) >= 0.1 and abs(z - 4.0) >= 0.1


def test_assembly_cross_check_runs(algebra, rng):
    """The direct assembly of R agrees with I(lam) sigma."""
    for n in (3, 4, 5, 6):
        dec = algebra.dec(n)
        m = n * n - 1
        lam = sample_spectral_parameters(rng, n, 1)[0]
        assert r_assembly_residual(dec, lam) <= DEFAULT_TOL.abs_tol * m


def test_assembly_residual_catches_dropped_parity(algebra, monkeypatch):
    """An N block that forgets diag(1, -1) no longer matches I(lam) sigma."""
    dec = algebra.dec(3)
    m = 8
    monkeypatch.setattr(CoefficientSet, "N", CoefficientSet.M)
    assert r_assembly_residual(dec, 0.5 + 0.2j) > DEFAULT_TOL.abs_tol * m


def _scaled_gap(a, b):
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_operator_form_matches_projector_sum(algebra, n):
    """dense() of I, R, sigma I and h against the projector-sum assembly it replaces."""
    dec = algebra.dec(n)
    m = n * n - 1
    swap = rmatrix._swap_perm(m)
    c = CoefficientSet(n)
    for lam in (0.37 + 0.21j, -1.3 + 0.8j):
        oracle_i = _assemble(dec, *_intertwiner_coefficients(c, lam))
        assert _scaled_gap(intertwiner_op(dec.rep, lam).dense(), oracle_i) <= 1e-13
        assert _scaled_gap(r_op(dec.rep, lam).dense(), oracle_i[:, swap]) <= 1e-13
        assert _scaled_gap(r_tilde_op(dec.rep, lam).dense(), oracle_i[swap, :]) <= 1e-13
    # h = R'(0) sigma from the exact derivatives, as local_h assembled it before
    deriv_diag = {
        "sym_top": 0.0,
        "anti_left": -c.f1_deriv0(),
        "anti_right": -c.f1_deriv0(),
        "mixed_sym": c.f3_deriv0(),
        "singlet": c.f4_deriv0(),
    }
    oracle_h = _assemble(dec, deriv_diag, c.N_deriv0())[:, swap]
    assert _scaled_gap(local_h(dec.rep).h, oracle_h) <= 1e-13


@pytest.mark.parametrize("n", [3, 6])  # dense and sparse factors
def test_operator_apply_matches_dense(algebra, rng, n):
    """apply on (D,), (D, k) and (m, m, k) arrays agrees with dense()."""
    rep = algebra.rep(n)
    m = n * n - 1
    op = r_op(rep, 0.6 - 0.4j)
    dense = op.dense()
    x = rng.standard_normal((m * m, 3)) + 1j * rng.standard_normal((m * m, 3))
    want = dense @ x
    assert np.max(np.abs(op.apply(x) - want)) < 1e-13
    assert np.max(np.abs(op.apply(x[:, 0]) - want[:, 0])) < 1e-13
    assert np.max(np.abs(op.apply(x.reshape(m, m, 3)).reshape(m * m, 3) - want)) < 1e-13
    swapped = x.reshape(m, m, 3).transpose(1, 0, 2).reshape(m * m, 3)  # sigma x
    assert np.max(np.abs(op.swap_right().apply(x) - dense @ swapped)) < 1e-13


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_omega_from_f_matches_casimir_op(algebra, rng, n):
    """The frame's Omega_op, scattered dense and applied, against the S-stack tensordot."""
    rep = algebra.rep(n)
    oracle = algebra.omega_oracle(n)
    x = rng.standard_normal((rep.dim**2, 3)) + 1j * rng.standard_normal((rep.dim**2, 3))
    assert np.max(np.abs(rep.frame.omega(x) - oracle @ x)) < 1e-12
    assert np.max(np.abs(rep.frame.omega(x[:, 0]) - oracle @ x[:, 0])) < 1e-12
    diff = casimir_op(rep)
    diff -= oracle
    del oracle
    assert np.max(np.abs(diff)) < 1e-14


def test_intertwining_probes_su6(algebra):
    """From n = 6 the intertwining relations are probed through the CSR frame."""
    basis, rep = algebra.basis(6), algebra.rep(6)
    res0, res1 = intertwining_residual(
        rep, basis.generators, 0.37 - 0.52j, probes=2, rng=np.random.default_rng(5)
    )
    assert res0 <= 1e-8 and res1 <= 1e-8


def test_operator_form_refuses_unequal_antisymmetric_coefficients(algebra):
    frame = algebra.rep(4).frame
    with pytest.raises(AssertionError, match="anti_left"):
        operator_form(frame, {"anti_left": 1.0, "anti_right": 2.0}, np.eye(2))


def test_r_at_zero_residual_catches_dropped_parity(algebra, monkeypatch):
    """N(0) = M(0) = 1 would make R(0) act as +1 on the antisymmetric adjoint copy."""
    rep = algebra.rep(3)
    assert r_at_zero_residual(rep) <= 1e-12
    monkeypatch.setattr(CoefficientSet, "N", CoefficientSet.M)
    assert r_at_zero_residual(rep) > 0.1


def _ybe_probe_oracle(dec, lam, mu, probes, rng, solution="R"):
    """The retired probe path: dense m^4 R applied to each probe by einsum."""
    build = {"R": build_R, "Rtilde": build_R_tilde}[solution]
    m = dec.n * dec.n - 1
    r_lam, r_sum, r_mu = (build(dec.rep, z).reshape(m, m, m, m) for z in (lam, lam + mu, mu))

    def apply_12(r4, v):
        return np.einsum("abxy,xyc->abc", r4, v, optimize=True)

    def apply_13(r4, v):
        return np.einsum("acxz,xyz->ayc", r4, v, optimize=True)

    def apply_23(r4, v):
        return np.einsum("bcyz,xyz->xbc", r4, v, optimize=True)

    worst = 0.0
    for _ in range(probes):
        v = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        v /= np.linalg.norm(v)
        lhs = apply_12(r_lam, apply_13(r_sum, apply_23(r_mu, v)))
        rhs = apply_23(r_mu, apply_13(r_sum, apply_12(r_lam, v)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)))
    return worst


@pytest.mark.parametrize("solution", ["R", "Rtilde"])
def test_ybe_probes_match_einsum_oracle(algebra, solution):
    dec = algebra.dec(5)
    for k, (lam, mu) in enumerate(sample_ybe_pairs(np.random.default_rng(11), 5, 2)):
        probed = ybe_residual(dec, lam, mu, mode="matrix_free", probes=3, solution=solution,
                              rng=np.random.default_rng(k))
        oracle = _ybe_probe_oracle(dec, lam, mu, 3, np.random.default_rng(k), solution)
        assert probed < 1e-8
        assert abs(probed - oracle) <= 1e-12


def test_ybe_probes_match_einsum_oracle_when_failing(algebra, monkeypatch):
    """With the parity diag(1, -1) dropped from N, both probe paths fail alike."""
    dec = algebra.dec(5)
    monkeypatch.setattr(CoefficientSet, "N", CoefficientSet.M)
    lam, mu = 0.5 + 0.2j, -0.3 + 0.4j
    probed = ybe_residual(dec, lam, mu, mode="matrix_free", probes=3,
                          rng=np.random.default_rng(3))
    oracle = _ybe_probe_oracle(dec, lam, mu, 3, np.random.default_rng(3))
    assert probed > 1e-8 and oracle > 1e-8
    assert abs(probed - oracle) <= 1e-12
