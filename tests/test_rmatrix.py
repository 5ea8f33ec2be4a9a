import numpy as np
import pytest

from adjrmat.adjoint_tensor import (
    TERMS,
    adjoint_rep,
    apply_swap,
    build_decomposition,
    casimir_op,
    generating_set,
    root_weight,
)
from adjrmat.spinchain import local_h
from adjrmat.liealg import matrix_unit
from adjrmat.numerics import DEFAULT_TOL, max_abs
from adjrmat import rmatrix, spinchain, yangian_action
from adjrmat.rmatrix import (
    SAMPLE_RADIUS,
    CoefficientSet,
    _intertwiner_coefficients,
    asymptotic_check,
    build_R,
    build_R_tilde,
    build_intertwiner,
    check_pole_distance,
    derive_coefficients,
    intertwiner_op,
    intertwining_residual,
    inversion_residual,
    level1_covariance_residual,
    operator_form,
    r_assembly_residual,
    r_at_zero_residual,
    r_op,
    r_terms_invariance_residual,
    r_tilde_op,
    sample_spectral_parameters,
    sample_ybe_pairs,
    ybe_residual,
)
from adjrmat.yangian_action import delta_action, level1_action

from conftest import (
    _assemble,
    _assemble_apply,
    _probe_block,
    adjoint_stack,
    all_generator_intertwining,
    all_sector_ybe,
    apply_omega,
    casimir_sector_blocks,
    compress,
    compressed_ybe,
    gell_mann_apply,
    permutation_op,
    probe_r_assembly_residual,
    retired_apply,
    rotate_pair,
    swept_asymptotic_remainders,
    swept_inversion,
    swept_r_at_zero,
    traced_peak,
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


def test_inversion_residual_matches_dense_product(algebra, rng):
    rep = algebra.rep(4)
    eye = np.eye(rep.dim**2)
    for lam in sample_spectral_parameters(rng, 4, 3, symmetric=True):
        dense = max_abs(build_intertwiner(rep, lam) @ build_intertwiner(rep, -lam) - eye)
        res = inversion_residual(rep, lam)
        assert res < 1e-8
        assert abs(res - dense) < 1e-13


@pytest.mark.parametrize("n", [3, 4])
def test_intertwining_property(algebra, rng, n):
    rep = algebra.rep(n)
    for r0, r1 in intertwining_residual(rep, sample_spectral_parameters(rng, n, 2)):
        assert r0 < 1e-8
        assert r1 < 1e-8


def _intertwining_oracle(rep, xs, lams):
    """The retired dense path: delta_action and level1_action per generator in ``xs`` and per lam."""
    out = []
    for lam in lams:
        i_lam = build_intertwiner(rep, lam)
        res0 = res1 = 0.0
        for x in xs:
            d_op = delta_action(rep, x)
            res0 = max(res0, max_abs(i_lam @ d_op - d_op @ i_lam) / max(1.0, max_abs(d_op)))
            j0 = level1_action(rep, x, 0.0, lam)
            j1 = level1_action(rep, x, lam, 0.0)
            res1 = max(res1, max_abs(i_lam @ j0 - j1 @ i_lam) / max(1.0, max_abs(j0)))
        out.append((res0, res1))
    return out


def _generating_set_oracle(rep, lams):
    """The dense generating-set commutators, rotated into ``rep.weight_frame`` by rotate_pair.

    Per lam: level 0 on the Chevalley generators y, the largest max_abs([I,
    D(y)]_w) / max(1, max_abs(D(y)_w)); level 1 on e_1n, max_abs((I J_0 - J_1
    I)_w) / max(1, max_abs(J_0,w)); and the largest entry of any of these
    commutators outside the sector pairs (W + alpha, W) that the block
    checks read, alpha the weight of the generator.
    """
    chain = rep.weight_frame
    pair_w = chain.sector_weights[chain.label]
    chevalley, top = generating_set(rep.n)

    def rotated(a):
        return rotate_pair(chain.u, a)

    def off_blocks(c, ij):
        return max_abs(c[~np.all(pair_w[:, None] - pair_w[None, :] == root_weight(rep.n, ij), axis=2)])

    out = []
    for lam in lams:
        i_lam = build_intertwiner(rep, lam)
        res0 = stray = 0.0
        for ij in chevalley:
            d_op = delta_action(rep, matrix_unit(rep.basis, *ij, coords=False).matrix)
            c = rotated(i_lam @ d_op - d_op @ i_lam)
            res0 = max(res0, max_abs(c) / max(1.0, max_abs(rotated(d_op))))
            stray = max(stray, off_blocks(c, ij))
        x0 = matrix_unit(rep.basis, *top, coords=False).matrix
        j0, j1 = level1_action(rep, x0, 0.0, lam), level1_action(rep, x0, lam, 0.0)
        c = rotated(i_lam @ j0 - j1 @ i_lam)
        out.append((res0, max_abs(c) / max(1.0, max_abs(rotated(j0))), max(stray, off_blocks(c, top))))
    return out


# the last one lies near the edge |lam| = SAMPLE_RADIUS of the sampling disk
_ORACLE_LAMS = [0.37 - 0.52j, -1.2 + 0.8j, 0.98 * SAMPLE_RADIUS * np.exp(2.0j)]


@pytest.mark.parametrize("n", [3, 4])
def test_dense_intertwining_matches_retired_path(algebra, n):
    """The all-generator oracle of the tests, linear in lam, against the per-generator dense actions."""
    basis, rep = algebra.basis(n), algebra.rep(n)
    got = all_generator_intertwining(rep, _ORACLE_LAMS)
    want = _intertwining_oracle(rep, basis.generators, _ORACLE_LAMS)
    assert len(got) == len(_ORACLE_LAMS)
    for pair, oracle in zip(got, want):
        assert max(pair) < 1e-8
        assert max(abs(g - w) for g, w in zip(pair, oracle)) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generating_set_agrees_with_all_generators(algebra, n):
    """The generating-set residuals and the all-generator oracle both pass; below n = 5 the
    block values equal the dense generating-set commutators rotated into the weight frame,
    and those vanish outside the sector pairs that the blocks hold."""
    rep = algebra.rep(n)
    got = intertwining_residual(rep, _ORACLE_LAMS)
    assert len(got) == len(_ORACLE_LAMS)
    assert max(map(max, got)) <= 1e-8
    assert max(map(max, all_generator_intertwining(rep, _ORACLE_LAMS))) <= 1e-8
    if n < 5:
        for (r0, r1), (want0, want1, stray) in zip(got, _generating_set_oracle(rep, _ORACLE_LAMS)):
            assert abs(r0 - want0) <= 1e-13 and abs(r1 - want1) <= 1e-13
            assert stray <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 6])
def test_intertwining_level1_catches_wrong_block(algebra, monkeypatch, n):
    """Any 2x2 block keeps I(lam) invariant, so only the level-1 relation sees N(lam) in place of M(lam).

    Below n = 5 the block value equals the rotated dense oracle.
    """
    rep = algebra.rep(n)
    right = CoefficientSet.M
    monkeypatch.setattr(CoefficientSet, "M", lambda self, lam: right(self, lam) @ np.diag([1.0, -1.0]))
    lams = _ORACLE_LAMS[:2]
    got = intertwining_residual(rep, lams)
    for r0, r1 in got:
        assert r0 <= 1e-8 < r1
    if n < 5:
        for (_, r1), (_, oracle1, stray) in zip(got, _generating_set_oracle(rep, lams)):
            assert abs(r1 - oracle1) <= 1e-12 * oracle1
            assert stray <= 1e-13


# the projector scalars that carry f1 = f2, f3 and f4, and the entries of M; n = 3 has no mixed_sym module
_COEFFICIENT_ERRORS = [
    pytest.param(n, target, id=f"{name}-{n}")
    for n in (3, 4, 5, 6)
    for name, target in [("f1f2", ("anti_left", "anti_right")), ("f3", ("mixed_sym",)), ("f4", ("singlet",))]
    + [(f"M{i}{j}", (i, j)) for i in (0, 1) for j in (0, 1)]
    if (n, name) != (3, "f3")
]


@pytest.mark.parametrize("n, target", _COEFFICIENT_ERRORS)
def test_intertwining_level1_catches_a_coefficient_error(algebra, monkeypatch, n, target):
    """A 1e-6 relative error in one coefficient of I(lam) keeps it invariant but fails level 1.

    f1 and f2 are perturbed together: the operator form holds both
    antisymmetric modules in one term and refuses unequal coefficients.
    """
    right = rmatrix._intertwiner_coefficients

    def wrong(c, lam):
        diag, block = right(c, lam)
        if isinstance(target[0], str):
            diag = {**diag, **{role: diag[role] * (1.0 + 1e-6) for role in target}}
        else:
            block = block.copy()
            block[target] *= 1.0 + 1e-6
        return diag, block

    monkeypatch.setattr(rmatrix, "_intertwiner_coefficients", wrong)
    for r0, r1 in intertwining_residual(algebra.rep(n), _ORACLE_LAMS[:2]):
        assert r0 <= 1e-12
        assert r1 > 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_level1_covariance_catches_a_non_covariant_quartic_part(algebra, monkeypatch, n):
    """T(x) plus eps x_{1,n-1} 1 is linear in x but not covariant: level1-covariance fails.

    J at (0, lam) and at (lam, 0) shift by the same multiple of 1, which
    commutes with I(lam), so the intertwining checks cannot see it.  The
    entry (1, n-1) is the one [e_{n,n-1}, e_1n] = -e_{1,n-1} carries.  The
    multiple of 1 does not shift weight, so it is read through the floor
    of J([y, x0]): the residual is eps itself.
    """
    rep = algebra.rep(n)
    assert level1_covariance_residual(rep) <= 1e-12
    right = yangian_action.quartic_part
    eps = 1e-6

    def wrong(rep, x):
        return right(rep, x) + eps * x[0, n - 2] * np.eye(rep.dim)

    monkeypatch.setattr(yangian_action, "quartic_part", wrong)
    assert abs(level1_covariance_residual(rep) - eps) <= 1e-12
    for r0, r1 in intertwining_residual(rep, _ORACLE_LAMS[:1]):
        assert max(r0, r1) <= 1e-12


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
    report = derive_coefficients(algebra.rep(4), [1j, 2 + 1j, -0.3])
    assert report["max_error"] < 1e-8
    c = CoefficientSet(4)
    for entry in report["samples"]:
        lam = entry["lambda"]
        assert abs(entry["f1"] - c.f1(lam)) < 1e-8
        assert abs(entry["f3"] - c.f3(lam)) < 1e-8
        assert abs(entry["f4"] - c.f4(lam)) < 1e-8
        assert np.max(np.abs(entry["M"] - c.M(lam))) < 1e-8
    assert derive_coefficients(algebra.rep(4), []) == {"samples": [], "max_error": 0.0}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_derive_f4_across_ranks(algebra, n):
    """Every recovered coefficient, f3 and M included, against the closed forms."""
    report = derive_coefficients(algebra.rep(n), [0.8 + 0.6j])
    [entry] = report["samples"]
    c, lam = CoefficientSet(n), entry["lambda"]
    for key in ("f1", "f2", "f3", "f4"):
        assert abs(entry[key] - getattr(c, key)(lam)) < 1e-8, key
    assert np.max(np.abs(entry["M"] - c.M(lam))) < 1e-8
    assert report["max_error"] < 1e-8


def test_derive_coefficients_sees_a_wrong_f3(algebra, monkeypatch):
    """f3 enters max_error: the closed form f1 in place of f1^2 is caught."""
    monkeypatch.setattr(CoefficientSet, "f3", CoefficientSet.f1)
    assert derive_coefficients(algebra.rep(4), [0.37 + 0.21j])["max_error"] > 1e-8


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
    assert ybe_residual(dec, 0.7, -1.3j) < TOL


def test_ybe_boundary_mu_zero(algebra):
    dec = algebra.dec(3)
    assert ybe_residual(dec, 0.45 + 0.3j, 0.0) < 1e-10


@pytest.mark.parametrize("solution", ["R", "Rtilde"])
def test_ybe_dense_both_solutions(algebra, rng, solution):
    for n in (3, 4):
        dec = algebra.dec(n)
        lam, mu = sample_ybe_pairs(rng, n, 1)[0]
        assert ybe_residual(dec, lam, mu, solution=solution) < 1e-8


def _ybe_einsum_oracle(dec, lam, mu, solution="R"):
    """The dense YBE residual as one three-site contraction per side, O(m^8)."""
    build = {"R": build_R, "Rtilde": build_R_tilde}[solution]
    m = dec.n * dec.n - 1
    r_lam, r_sum, r_mu = (build(dec.rep, z).reshape(m, m, m, m) for z in (lam, lam + mu, mu))
    lhs = np.einsum("abde,dcxi,eiyz->abcxyz", r_lam, r_sum, r_mu, optimize=True)
    rhs = np.einsum("bcef,afgz,gexy->abcxyz", r_mu, r_sum, r_lam, optimize=True)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ybe_weight_blocks_match_einsum_oracle(algebra, n):
    """The sum over highest-weight vectors matches the sum over every weight sector, and at n = 3 the m^8 contraction."""
    dec = algebra.dec(n)
    for lam, mu in sample_ybe_pairs(np.random.default_rng(n), n, 2):
        for solution in ("R", "Rtilde"):
            blocks = ybe_residual(dec, lam, mu, solution=solution)
            if n == 3:
                assert abs(blocks - _ybe_einsum_oracle(dec, lam, mu, solution)) < 1e-13
            assert abs(blocks - all_sector_ybe(dec, lam, mu, solution)) <= 1e-13


def test_ybe_weight_blocks_match_oracle_when_failing(algebra, monkeypatch):
    """With the parity diag(1, -1) dropped from N, both paths give the same failure."""
    dec = algebra.dec(3)
    monkeypatch.setattr(CoefficientSet, "N", CoefficientSet.M)
    lam, mu = 0.5 + 0.2j, -0.3 + 0.4j
    blocks = ybe_residual(dec, lam, mu)
    oracle = _ybe_einsum_oracle(dec, lam, mu)
    assert blocks > 1e-8
    assert abs(blocks - oracle) <= 1e-10 * oracle


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ybe_orbit_sum_matches_all_sectors_when_failing(algebra, monkeypatch, n):
    """With M replaced by M diag(1, -1), R and R~ stay invariant but fail the YBE: both sums give the same failure.

    N = M diag(1, -1) then equals the closed-form M (the N = M case of R),
    and sigma I(lam) carries the flipped block.
    """
    dec = algebra.dec(n)
    block = CoefficientSet.M
    monkeypatch.setattr(CoefficientSet, "M", lambda self, lam: block(self, lam) @ np.diag([1.0, -1.0]))
    lam, mu = 0.5 + 0.2j, -0.3 + 0.4j
    for solution in ("R", "Rtilde"):
        got = ybe_residual(dec, lam, mu, solution=solution)
        oracle = all_sector_ybe(dec, lam, mu, solution)
        assert got > 1e-8
        assert abs(got - oracle) <= 1e-10 * oracle


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_r_terms_are_invariant(algebra, n):
    assert r_terms_invariance_residual(algebra.rep(n)) <= DEFAULT_TOL.abs_tol * (n * n - 1)


def test_r_terms_invariance_rejects_noise_in_one_non_dominant_sector(algebra):
    """Weight-conserving noise of size 1e-6 in the term blocks of one two-site sector fails the check.

    The sector's weight is not dominant (sorted in descending order): the
    case a sum over Weyl orbits, which trusts invariance, could miss.
    """
    rep = adjoint_rep(algebra.basis(3))  # a rep of its own: the noise goes into its cached terms
    chain, frame = rep.weight_frame, rep.frame
    weights = chain.sector_weights
    w = next(w for w, idx in enumerate(chain.blocks)
             if len(idx) > 1 and not np.array_equal(weights[w], np.sort(weights[w])[::-1]))
    g, r = frame.places[w]
    noise = np.random.default_rng(5).standard_normal(frame.terms[g][:, r].shape)
    frame.terms[g][:, r] += 1e-6 * noise
    assert r_terms_invariance_residual(rep) > DEFAULT_TOL.abs_tol * rep.dim


def test_ybe_dense_rejects_perturbed_R_blocks(algebra):
    """Noise of relative size 1e-6 in the term blocks that R is combined from fails the YBE check.

    The noise goes into the terms of a rep of its own before its three-site
    frame compresses them.  The noisy R still conserves Cartan weight but is
    no longer su(n)-invariant; compressed onto the highest-weight vectors it
    still fails the YBE.
    """
    rep = adjoint_rep(algebra.basis(3))
    dec = build_decomposition(rep)  # reads the terms, and builds no three-site frame
    assert "ybe_frame" not in vars(rep)
    rng = np.random.default_rng(5)
    terms = rep.frame.terms
    noise = [rng.standard_normal(t.shape) for t in terms]
    scale = 1e-6 * np.sqrt(sum(np.linalg.norm(t) ** 2 for t in terms) / sum(np.linalg.norm(x) ** 2 for x in noise))
    for t, x in zip(terms, noise):  # in place, in the blocks cached on this frame
        t += scale * x
    assert ybe_residual(dec, 0.7, -1.3j) > 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_ybe_from_compressed_terms_matches_compressed_blocks(algebra, n):
    """Each factor combined from the terms compressed once per sector matches its blocks compressed per call.

    Per sector and site pair to 1e-13 relative, for R and R~ at lam, lam + mu
    and mu; the two Yang-Baxter residuals, ratios over ||L||, to 1e-13.
    """
    rep, dec = algebra.rep(n), algebra.dec(n)
    lam, mu = sample_ybe_pairs(np.random.default_rng(n), n, 1)[0]
    for solution, ops in (("R", r_op), ("Rtilde", r_tilde_op)):
        for pair, z in enumerate((lam, lam + mu, mu)):
            op = ops(rep, z)
            for sector in rep.ybe_frame:
                want = compress(sector, op.blocks, pair)
                got = np.einsum("t,tij->ij", op.coefficients, sector.terms[pair])
                assert max_abs(got - want) <= 1e-13 * max_abs(want)
        assert abs(ybe_residual(dec, lam, mu, solution=solution) - compressed_ybe(dec, lam, mu, solution)) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_terms_and_chevalley_blocks_are_real(algebra, n):
    """The term blocks and the D(y) blocks are built as float64: nothing is rotated, so no imaginary part is dropped."""
    rep = algebra.rep(n)
    assert all(t.dtype == np.float64 for t in rep.frame.terms)
    assert all(b.dtype == np.float64 for d, _ in rep.chevalley_deltas.values() for _, b in d.values())
    assert all(s.terms.dtype == np.float64 for s in rep.ybe_frame)


def test_ybe_matrix_free_su5(algebra, rng):
    dec = algebra.dec(5)
    for lam, mu in sample_ybe_pairs(rng, 5, 3):
        assert ybe_residual(dec, lam, mu) < 1e-8


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
    m, S = rep.dim, adjoint_stack(rep)
    lam = sample_spectral_parameters(rng, 4, 1)[0]
    r = build_R(rep, lam)
    for a in range(m):
        action = np.kron(S[a], np.eye(m)) + np.kron(np.eye(m), S[a])
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
        ybe_residual(dec, 0.6, 0.45)  # lam + mu hits the pole at 1
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


def _pin_r_op(monkeypatch, rep, lam):
    """Rebind ``rmatrix.r_op`` to R(lam) built now, so that a later edit of a table moves only the table side."""
    op = r_op(rep, lam)
    monkeypatch.setattr(rmatrix, "r_op", lambda rep, z: op)


def _edit_table(monkeypatch, edit):
    """Rebind the I(lam) table that r-assembly-agreement reads (``_intertwiner_coefficients``) to ``edit`` of it."""
    table = rmatrix._intertwiner_coefficients
    monkeypatch.setattr(rmatrix, "_intertwiner_coefficients", lambda c, lam: edit(*table(c, lam)))


def _scalar_error(role):
    """One projector scalar of a table off by 1e-6 relative."""
    return lambda diag, block: ({**diag, role: diag[role] * (1.0 + 1e-6)}, block)


def _flipped_block_sign(diag, block):
    """The upper off-diagonal entry of a table's 2 x 2 block with its sign flipped."""
    return diag, block * np.array([[1.0, -1.0], [1.0, 1.0]])


@pytest.mark.parametrize("role", ["sym_top", "anti_left", "singlet"])
def test_assembly_residual_catches_one_wrong_scalar(algebra, monkeypatch, role):
    """A 1e-6 relative error in one projector scalar of the I(lam) table fails."""
    dec = algebra.dec(3)
    assert r_assembly_residual(dec, 0.5 + 0.2j) <= DEFAULT_TOL.abs_tol * 8
    _pin_r_op(monkeypatch, dec.rep, 0.5 + 0.2j)
    _edit_table(monkeypatch, _scalar_error(role))
    assert r_assembly_residual(dec, 0.5 + 0.2j) > DEFAULT_TOL.abs_tol * 8


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_highest_weight_assembly_agrees_with_projector_sum_oracle(algebra, monkeypatch, n):
    """r-assembly-agreement on the highest-weight vectors and the projector sum on random columns.

    Both pass when clean, and both fail for each error: one scalar of the
    table off by 1e-6 relative, N replaced by M in R's operator form, and a
    flipped off-diagonal sign in the table's 2 x 2 block.  The one
    exception is the oracle's: its eight random unit columns meet the
    singlet in about 1/sqrt(D) of their norm, so at n = 6 it reads the
    singlet error as 1.7e-8, under the threshold 3.5e-8 but far above its
    clean value, where the check on the singlet's own vector reads 2.7e-7.
    """
    dec = algebra.dec(n)
    lam, threshold = 0.37 + 0.21j, DEFAULT_TOL.abs_tol * (n * n - 1)
    assert r_assembly_residual(dec, lam) <= threshold
    clean = probe_r_assembly_residual(dec, lam)
    assert clean <= threshold
    errors = {role: _scalar_error(role) for role in ("sym_top", "anti_left", "singlet")}
    errors.update({"N = M": None, "flipped block sign": _flipped_block_sign})
    for name, edit in errors.items():
        with monkeypatch.context() as patch:
            if edit is None:
                patch.setattr(CoefficientSet, "N", CoefficientSet.M)
            else:
                _pin_r_op(patch, dec.rep, lam)
                _edit_table(patch, edit)
            assert r_assembly_residual(dec, lam) > threshold, name
            oracle = probe_r_assembly_residual(dec, lam)
            if (n, name) == (6, "singlet"):
                assert oracle > 1e3 * clean
            else:
                assert oracle > threshold, name


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_assemble_apply_matches_dense_projector_sum(algebra, n):
    """The projector sum applied to columns equals the retired dense sum times them."""
    dec = algebra.dec(n)
    m = n * n - 1
    v = _probe_block(m * m)
    for diag, block in (_intertwiner_coefficients(CoefficientSet(n), 0.37 + 0.21j),
                        spinchain._h_coefficients(n)):
        dense = _assemble(dec, diag, block) @ v
        assert _scaled_gap(_assemble_apply(dec, diag, block, v), dense) <= 1e-13


def test_r_assembly_forms_no_dense_matrix(algebra):
    """At n = 6 r-assembly-agreement, on a decomposition with no orbit closed, peaks below half of one D x D complex array."""
    dec = build_decomposition(algebra.rep(6))
    D = 35 * 35
    r_assembly_residual(dec, 0.37 + 0.21j)  # builds the term blocks of the frame
    assert traced_peak(r_assembly_residual, dec, 0.37 + 0.21j) < 0.5 * D * D * 16


def _scaled_gap(a, b):
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_operator_form_matches_projector_sum(algebra, n):
    """dense() of I, R, sigma I and h against the projector-sum assembly it replaces."""
    dec = algebra.dec(n)
    m = n * n - 1
    swap = apply_swap(np.arange(m * m), m)
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
    assert _scaled_gap(local_h(dec.rep), oracle_h) <= 1e-13


@pytest.mark.parametrize("n", [3, 6])  # dense and sparse factors
def test_operator_apply_matches_dense(algebra, rng, n):
    """apply on (D,), (D, k) and (m, m, k) arrays of weight coordinates agrees with the rotated dense()."""
    rep = algebra.rep(n)
    m = n * n - 1
    op = r_op(rep, 0.6 - 0.4j)
    dense, frame = op.dense(), op.frame
    x = rng.standard_normal((m * m, 3)) + 1j * rng.standard_normal((m * m, 3))
    xw, want = frame.to_weight(x), frame.to_weight(dense @ x)
    assert np.max(np.abs(op.apply(xw) - want)) < 1e-13
    assert np.max(np.abs(op.apply(xw[:, 0]) - want[:, 0])) < 1e-13
    assert np.max(np.abs(op.apply(xw.reshape(m, m, 3)).reshape(m * m, 3) - want)) < 1e-13
    swapped = x.reshape(m, m, 3).transpose(1, 0, 2).reshape(m * m, 3)  # sigma x
    assert np.max(np.abs(op.swap_right().apply(xw) - frame.to_weight(dense @ swapped))) < 1e-13


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_block_apply_matches_retired_apply(algebra, rng, n):
    """apply through the sector blocks, rotated from and to Gell-Mann coordinates, against the retired dense/CSR apply.

    On (D,), (D, k) and (m, m, k) arrays.
    """
    rep = algebra.rep(n)
    m = n * n - 1
    x = rng.standard_normal((m * m, 4)) + 1j * rng.standard_normal((m * m, 4))
    for op in (r_op(rep, 0.6 - 0.4j), intertwiner_op(rep, -1.3 + 0.8j), r_tilde_op(rep, 0.37 + 0.21j)):
        want = retired_apply(op, x)
        assert _scaled_gap(gell_mann_apply(op, x), want) <= 1e-13
        assert _scaled_gap(gell_mann_apply(op, x[:, 0]), want[:, 0]) <= 1e-13
        assert _scaled_gap(gell_mann_apply(op, x.reshape(m, m, 4)).reshape(m * m, 4), want) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_block_residuals_match_identity_sweeps(algebra, n):
    """r-at-zero, inversion and the asymptotic remainders over the blocks against the retired sweeps."""
    rep = algebra.rep(n)
    assert abs(r_at_zero_residual(rep) - swept_r_at_zero(rep)) <= 1e-13
    for lam in (0.37 - 0.52j, -1.2 + 0.8j):
        assert abs(inversion_residual(rep, lam) - swept_inversion(rep, lam)) <= 1e-13
    lams = [100.0, 1000.0]
    for got, want in zip(asymptotic_check(rep, lams)["remainders"], swept_asymptotic_remainders(rep, lams)):
        assert abs(got - want) <= 1e-10 * want


def test_block_residuals_fail_with_the_sweeps(algebra, monkeypatch):
    """With the parity diag(1, -1) dropped from N and M replaced by N, blocks and sweeps both fail."""
    rep = algebra.rep(4)
    monkeypatch.setattr(CoefficientSet, "N", CoefficientSet.M)
    assert r_at_zero_residual(rep) > 0.1 and swept_r_at_zero(rep) > 0.1
    monkeypatch.setattr(CoefficientSet, "M", lambda self, lam: np.diag([1.0, -1.0]) * (1.0 + lam))
    assert inversion_residual(rep, 0.37 - 0.52j) > 1e-8 and swept_inversion(rep, 0.37 - 0.52j) > 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_omega_blocks_match_casimir_of_the_roots(algebra, n):
    """The Omega_op blocks from the table of weight-basis products against C_total/2 - 2n from the root blocks."""
    rep = algebra.rep(n)
    for w, want in enumerate(casimir_sector_blocks(rep)):
        assert max_abs(rep.frame.sector_terms(w)[TERMS.index("omega")] - want) <= 1e-13


@pytest.mark.parametrize("term", ["swap", "dd", "ff"])
def test_block_checks_catch_one_wrong_term_entry(algebra, term):
    """A 1e-6 error in one entry of sigma_W or of one E-term fails r-at-zero-is-swap or intertwiner-inversion."""
    rep = adjoint_rep(algebra.basis(3))  # with a frame of its own
    lam = 0.37 - 0.52j
    assert r_at_zero_residual(rep) <= 1e-12 and inversion_residual(rep, lam) <= 1e-8
    rep.frame.terms[-1][TERMS.index(term), 0, 0, 1] += 1e-6  # the zero-weight sector
    assert r_at_zero_residual(rep) > 1e-12 or inversion_residual(rep, lam) > 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_omega_from_f_matches_casimir_op(algebra, rng, n):
    """The frame's Omega_op, scattered dense and applied, against the S-stack tensordot."""
    rep = algebra.rep(n)
    oracle = algebra.omega_oracle(n)
    x = rng.standard_normal((rep.dim**2, 3)) + 1j * rng.standard_normal((rep.dim**2, 3))
    assert np.max(np.abs(apply_omega(rep.frame, x) - oracle @ x)) < 1e-12
    assert np.max(np.abs(apply_omega(rep.frame, x[:, 0]) - oracle @ x[:, 0])) < 1e-12
    diff = casimir_op(rep)
    diff -= oracle
    del oracle
    assert np.max(np.abs(diff)) < 1e-14


def test_intertwining_blocks_su6(algebra):
    """From n = 6 the checks run on the same sector blocks as below, with no probe columns drawn."""
    rep = algebra.rep(6)
    got = intertwining_residual(rep, _ORACLE_LAMS)
    assert len(got) == len(_ORACLE_LAMS)
    assert max(map(max, got)) <= 1e-12
    assert level1_covariance_residual(rep) <= 1e-12


def test_intertwining_checks_form_no_dense_matrix(algebra):
    """At n = 8 (D = 3969) both checks, the frame's term blocks included, peak far below one D x D array."""
    rep = adjoint_rep(algebra.basis(8), validate=False)  # with a frame of its own
    limit = 64 * 2**20  # one D x D complex array is 252 MB
    assert traced_peak(intertwining_residual, rep, [0.37 - 0.52j]) < limit
    assert traced_peak(level1_covariance_residual, rep) < limit


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
