import numpy as np
import pytest

from adjrmat.adjoint_tensor import (
    ad_matrix,
    generating_set,
    root_action,
    root_weight,
)
from adjrmat.liealg import matrix_unit, weight_chain
from adjrmat.yangian_action import (
    apply_level1,
    delta_action,
    level1_action,
    level1_blocks,
    quartic_part,
    unit_level1_blocks,
    verify_anticommutator_identity,
    verify_hw_relations,
    verify_singlet_double_action,
    weight_rows,
)

from conftest import apply_pair, gell_mann_rows, quartic_oracle, rotate_pair, traced_peak

TOL = 1e-9


def test_level1_linearity(algebra, rng):
    basis, rep = algebra.basis(3), algebra.rep(3)
    x = basis.generators[0]
    y = basis.generators[5]
    mu, lam = 0.3 - 0.8j, -1.1 + 0.2j
    jx = level1_action(rep, x, mu, lam)
    jy = level1_action(rep, y, mu, lam)
    jxy = level1_action(rep, 2.0 * x + 1.5j * y, mu, lam)
    assert np.max(np.abs(jxy - 2.0 * jx - 1.5j * jy)) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_level0_level1_commutation(algebra, rng, n):
    """[Delta(y), J(x)] = J([y, x]) for every Chevalley y and every basis x, on probe columns.

    This covariance is the premise of the generating-set intertwining checks
    (``rmatrix.intertwining_residual``).  J is the dense ``level1_action``,
    built once per basis x; J([y, x]) is the combination of those of its
    coordinates tr(I^c [y, x]), by linearity (``test_level1_linearity``).
    """
    basis, rep = algebra.basis(n), algebra.rep(n)
    m = rep.dim
    mu, lam = 0.7 + 0.1j, -0.4 - 0.9j
    v = rng.standard_normal((m * m, 4)) + 1j * rng.standard_normal((m * m, 4))
    ys = [matrix_unit(basis, *ij, coords=False).matrix for ij in generating_set(n)[0]]
    ads = [ad_matrix(basis, y) for y in ys]
    dvs = [apply_pair(a, v) for a in ads]
    jv, jdv = [], []  # J(I^b) v, and J(I^b) D(y) v for each y
    for x in basis.generators:
        j = level1_action(rep, x, mu, lam)
        jv.append(j @ v)
        jdv.append([j @ dv for dv in dvs])
    jv = np.stack(jv)
    for ij, y, a, dv_at in zip(generating_set(n)[0], ys, ads, zip(*jdv)):
        for b, x in enumerate(basis.generators):
            coords = np.einsum("cij,ji->c", basis.generators, y @ x - x @ y)
            jcomm_v = np.tensordot(coords, jv, axes=1)
            res = np.max(np.abs(apply_pair(a, jv[b]) - dv_at[b] - jcomm_v))
            assert res < TOL * m, (ij, b, res)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_singlet_double_action(algebra, rng, n):
    rep = algebra.rep(n)
    for _ in range(5):
        mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert verify_singlet_double_action(rep, mu, lam) < 1e-8


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_anticommutator_identity_both_substitutions(algebra, n):
    rep = algebra.rep(n)
    assert verify_anticommutator_identity(rep, "anti_left") < 1e-9
    assert verify_anticommutator_identity(rep, "anti_right") < 1e-9


def test_anticommutator_identity_zero_vector(algebra):
    """A vanishing input vector gives a vanishing image."""
    basis, rep = algebra.basis(4), algebra.rep(4)
    x = matrix_unit(basis, 3, 4, coords=False).matrix
    t = 4.0 * quartic_part(rep, x)
    assert np.linalg.norm(apply_pair(t, np.zeros(225, dtype=complex))) == 0.0


def test_anticommutator_identity_rejects_bad_input(algebra):
    rep3 = algebra.rep(3)
    with pytest.raises(ValueError):
        verify_anticommutator_identity(rep3, "anti_left")
    rep4 = algebra.rep(4)
    with pytest.raises(ValueError):
        verify_anticommutator_identity(rep4, "sym_top")


@pytest.mark.parametrize("n", [4, 5])
def test_hw_relations_random_parameters(algebra, rng, n):
    rep = algebra.rep(n)
    for _ in range(3):
        mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        res = verify_hw_relations(rep, mu, lam)
        assert max(res.values()) < 1e-8, res


def test_single_action_on_symmetric_hwv_is_parameter_free(algebra):
    rep = algebra.rep(5)
    rows, _ = weight_rows(rep)
    blocks, _ = unit_level1_blocks(rep, (1, 5))
    (w1, v1), (w2, v2) = (apply_level1(blocks, mu, lam, rows["adjoint_sym"])
                          for mu, lam in ((0.3, -2.2), (-1.0 + 1j, 0.9j)))
    assert w1 == w2 == rows["sym_top"][0]
    assert np.linalg.norm(v1 - v2) < TOL * np.linalg.norm(v1)


def test_equal_parameter_antisymmetric_action(algebra):
    """At mu = lam the antisymmetric single action reduces to sqrt(n^2-4)(n+2)."""
    rep = algebra.rep(4)
    n = 4
    rows, _ = weight_rows(rep)
    blocks, _ = unit_level1_blocks(rep, (1, n))
    w, got = apply_level1(blocks, 0.37, 0.37, rows["adjoint_anti"])
    top_w, top = rows["sym_top"]
    want = np.sqrt(n * n - 4.0) * (n + 2.0) * top
    assert w == top_w
    assert np.linalg.norm(got - want) < TOL * np.linalg.norm(want)


def test_shift_covariance(algebra, rng):
    """Shifting both spectral parameters adds a level-0 term."""
    basis, rep = algebra.basis(4), algebra.rep(4)
    x = matrix_unit(basis, 1, 3, coords=False).matrix
    mu, lam = 0.4 - 0.2j, -0.7 + 1.1j
    c = 0.83 + 0.31j
    j0 = level1_action(rep, x, mu, lam)
    j1 = level1_action(rep, x, mu + c, lam + c)
    assert np.max(np.abs(j1 - j0 - c * delta_action(rep, x))) < 1e-12


def test_dense_matches_matrix_free(algebra, rng):
    """J(e_12) applied sector by sector to a random vector in the weight frame, against the dense action."""
    basis, rep = algebra.basis(3), algebra.rep(3)
    chain, frame = rep.weight_frame, rep.frame
    x = matrix_unit(basis, 1, 2, coords=False).matrix
    blocks, _ = unit_level1_blocks(rep, (1, 2))
    dense = level1_action(rep, x, 0.2 + 0.5j, -1.4)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    vw, got = frame.to_weight(v), np.zeros(64, dtype=complex)
    for k in blocks:
        t, image = apply_level1(blocks, 0.2 + 0.5j, -1.4, (k, vw[chain.blocks[k]]))
        got[chain.blocks[t]] += image
    assert np.linalg.norm(frame.from_weight(got) - dense @ v) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_level1_blocks_rebuild_the_rotated_dense_action(algebra, n):
    """The sector blocks of J(e_1n) at (mu, lam), placed in a D x D array, are the rotated dense action.

    An x with a Cartan part has no single weight: that part is read as the floor.
    """
    rep = algebra.rep(n)
    chain = rep.weight_frame
    x = matrix_unit(rep.basis, 1, n, coords=False).matrix
    beta = root_weight(n, (1, n))
    mu, lam = 0.4 - 0.9j, -1.2 + 0.3j
    blocks, floor = level1_blocks(rep, x, beta)
    rebuilt = np.zeros((rep.dim**2,) * 2, dtype=complex)
    for k, (t, s) in blocks.items():
        assert np.array_equal(chain.sector_weights[t], chain.sector_weights[k] + beta)
        rebuilt[np.ix_(chain.blocks[t], chain.blocks[k])] = mu * s[0] + lam * s[1] + s[2]
    assert np.max(np.abs(rebuilt - rotate_pair(chain.u, level1_action(rep, x, mu, lam)))) <= 1e-13
    assert floor <= 1e-14
    assert level1_blocks(rep, x + 0.3 * rep.basis.generators[-1], beta)[1] > 1e-2


def test_apply_matches_kron_built_action_su6(algebra, rng):
    """The dense action (the frame's Omega_op) against J(x) built from krons and the S-stack Omega_op.

    x has a Cartan part, so it has no single weight and no sector blocks.
    """
    basis, rep = algebra.basis(6), algebra.rep(6)
    m = rep.dim
    x = matrix_unit(basis, 2, 5, coords=False).matrix + 0.3 * basis.generators[7]
    mu, lam = 0.4 - 0.9j, -1.2 + 0.3j
    dense = level1_action(rep, x, mu, lam)
    ad_x, quartic = ad_matrix(basis, x), quartic_oracle(rep, x)
    eye = np.eye(m)
    omega = algebra.omega_oracle(6)
    left = np.kron(ad_x, eye)
    v = rng.standard_normal((m * m, 3)) + 1j * rng.standard_normal((m * m, 3))
    local = np.kron(mu * ad_x + quartic, eye) + np.kron(eye, lam * ad_x + quartic)
    want = local @ v + 0.5 * (left @ (omega @ v) - omega @ (left @ v))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(dense @ v - want)) < 1e-12 * scale
    assert np.max(np.abs(dense @ v[:, 1] - want[:, 1])) < 1e-12 * scale


def test_rejects_nontraceless_generator(algebra):
    """Both forms of J refuse an x with a trace, before anything is built."""
    rep = algebra.rep(3)
    with pytest.raises(ValueError, match="traceless"):
        level1_action(rep, np.eye(3, dtype=complex), 0.0, 0.0)
    with pytest.raises(ValueError, match="traceless"):
        level1_blocks(rep, np.eye(3, dtype=complex), root_weight(3, (1, 3)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_block_action_on_rows_matches_rotated_dense_action(algebra, n):
    """J(e_ij) on the weight-frame rows, block by block, is the dense action on the Gell-Mann rows, rotated.

    For e_12, e_{1,n-1}, e_{n-1,n} and e_1n on every highest-weight row; a
    row whose sector has no block goes to zero, and so must its dense image.
    """
    rep = algebra.rep(n)
    chain, frame = rep.weight_frame, rep.frame
    rows, _ = weight_rows(rep)
    gell_mann = {row.role: row.coords for row in gell_mann_rows(rep.basis)}
    mu, lam = 0.4 - 0.9j, -1.2 + 0.3j
    killed = []
    for ij in ((1, 2), (1, n - 1), (n - 1, n), (1, n)):
        blocks, _ = unit_level1_blocks(rep, ij)
        dense = level1_action(rep, matrix_unit(rep.basis, *ij, coords=False).matrix, mu, lam)
        for role, v in rows.items():
            want = frame.to_weight(dense @ gell_mann[role])
            t, image = apply_level1(blocks, mu, lam, v)
            got = np.zeros_like(want)
            if t is None:
                killed.append((ij, role))
            else:
                got[chain.blocks[t]] = image
            scale = max(np.linalg.norm(want), np.linalg.norm(gell_mann[role]))
            assert np.linalg.norm(got - want) <= 1e-12 * scale, (ij, role)
    assert ((1, n), "sym_top") in killed  # 3 theta is no weight of adj (x) adj


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_weight_ad_and_quartic_part_match_the_rotated_oracles(algebra, n):
    """ad(e_pq) and T(e_pq), built from matrix units, are U ad(e_pq) U^dagger and U T(e_pq) U^dagger for every root.

    The oracles are ``ad_matrix`` and the einsum over the S stack, in
    Gell-Mann coordinates; ad(e_pq) is built real.
    """
    rep = algebra.rep(n)
    chain = weight_chain(rep.basis, 1)
    u, uh = chain.u, chain.u.conj().T
    for alpha in chain.weights[: n * (n - 1)]:
        p, q = int(np.argmax(alpha)) + 1, int(np.argmin(alpha)) + 1
        x = matrix_unit(rep.basis, p, q, coords=False).matrix
        ad = root_action(chain, alpha)
        assert ad.dtype == np.float64
        assert np.max(np.abs(ad - u @ ad_matrix(rep.basis, x) @ uh)) <= 1e-14, (p, q)
        want = u @ quartic_oracle(rep, x) @ uh
        assert np.max(np.abs(quartic_part(rep, x) - want)) <= 1e-14 * max(1.0, np.max(np.abs(want))), (p, q)
    x = rep.basis.generators[0] + 0.3j * rep.basis.generators[-1]  # no single weight, and complex
    assert np.max(np.abs(quartic_part(rep, x) - u @ quartic_oracle(rep, x) @ uh)) <= 1e-13


def test_anticommutator_identity_forms_no_m3_array(algebra):
    """At n = 8 the identity reads one row and T's shift block: its peak stays below one (m, m, m) complex array."""
    rep = algebra.rep(8)
    m = rep.dim
    assert traced_peak(verify_anticommutator_identity, rep, "anti_left") < m**3 * 16
