import numpy as np
import pytest

from adjrmat.adjoint_tensor import (
    ad_matrix,
    apply_pair,
    generating_set,
    highest_weight_vectors,
    root_weight,
    rotate_pair,
)
from adjrmat.liealg import matrix_unit
from adjrmat.yangian_action import (
    LevelOneAction,
    delta_action,
    level1_action,
    level1_blocks,
    verify_anticommutator_identity,
    verify_hw_relations,
    verify_singlet_double_action,
)

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
    (``rmatrix.intertwining_residual``).
    """
    basis, rep = algebra.basis(n), algebra.rep(n)
    m = rep.dim
    mu, lam = 0.7 + 0.1j, -0.4 - 0.9j
    v = rng.standard_normal((m * m, 4)) + 1j * rng.standard_normal((m * m, 4))
    for ij in generating_set(n)[0]:
        y = matrix_unit(basis, *ij, coords=False).matrix
        a = ad_matrix(basis, y)
        dv = apply_pair(a, v)
        for b, x in enumerate(basis.generators):
            jx = LevelOneAction(rep, x, mu, lam)
            jcomm = LevelOneAction(rep, y @ x - x @ y, mu, lam)
            res = np.max(np.abs(apply_pair(a, jx.apply(v)) - jx.apply(dv) - jcomm.apply(v)))
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
    from adjrmat.adjoint_tensor import apply_pair
    from adjrmat.yangian_action import quartic_part

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
    basis, rep = algebra.basis(5), algebra.rep(5)
    hw = {r.role: r for r in highest_weight_vectors(basis)}
    j1 = LevelOneAction(rep, matrix_unit(basis, 1, 5, coords=False).matrix, 0.3, -2.2)
    j2 = LevelOneAction(rep, matrix_unit(basis, 1, 5, coords=False).matrix, -1.0 + 1j, 0.9j)
    v1 = j1.apply(hw["adjoint_sym"].coords)
    v2 = j2.apply(hw["adjoint_sym"].coords)
    assert np.linalg.norm(v1 - v2) < TOL * np.linalg.norm(v1)


def test_equal_parameter_antisymmetric_action(algebra):
    """At mu = lam the antisymmetric single action reduces to sqrt(n^2-4)(n+2)."""
    basis, rep = algebra.basis(4), algebra.rep(4)
    n = 4
    hw = {r.role: r for r in highest_weight_vectors(basis)}
    j = LevelOneAction(rep, matrix_unit(basis, 1, n, coords=False).matrix, 0.37, 0.37)
    got = j.apply(hw["adjoint_anti"].coords)
    want = np.sqrt(n * n - 4.0) * (n + 2.0) * hw["sym_top"].coords
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
    basis, rep = algebra.basis(3), algebra.rep(3)
    x = matrix_unit(basis, 1, 2, coords=False).matrix
    act = LevelOneAction(rep, x, 0.2 + 0.5j, -1.4)
    dense = level1_action(rep, x, 0.2 + 0.5j, -1.4)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.linalg.norm(act.apply(v) - dense @ v) < 1e-12


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
    """apply (the frame's CSR Omega_op from n = 6) against J(x) built from krons and the S stack."""
    basis, rep = algebra.basis(6), algebra.rep(6)
    m = rep.dim
    x = matrix_unit(basis, 2, 5, coords=False).matrix + 0.3 * basis.generators[7]
    mu, lam = 0.4 - 0.9j, -1.2 + 0.3j
    act = LevelOneAction(rep, x, mu, lam)
    eye = np.eye(m)
    omega = algebra.omega_oracle(6)
    left = np.kron(act.ad_x, eye)
    v = rng.standard_normal((m * m, 3)) + 1j * rng.standard_normal((m * m, 3))
    local = np.kron(mu * act.ad_x + act.quartic, eye) + np.kron(eye, lam * act.ad_x + act.quartic)
    want = local @ v + 0.5 * (left @ (omega @ v) - omega @ (left @ v))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(act.apply(v) - want)) < 1e-12 * scale
    assert np.max(np.abs(act.apply(v[:, 1]) - want[:, 1])) < 1e-12 * scale


def test_rejects_nontraceless_generator(algebra):
    rep = algebra.rep(3)
    with pytest.raises(ValueError):
        LevelOneAction(rep, np.eye(3, dtype=complex), 0.0, 0.0)
