import numpy as np
import pytest

from adjrmat import adjoint_tensor, liealg
from adjrmat.adjoint_tensor import ad_matrix, adjoint_rep, build_decomposition, highest_weight_bases, root_action
from adjrmat.liealg import (
    build_basis,
    matrix_unit,
    structure_constants,
    weight_basis,
    weight_chain,
)
from adjrmat.spinchain import (
    CHAIN_DIM_CAP,
    chain_frame,
    chain_H,
    global_symmetry_residual,
    local_h,
    weight_hamiltonian,
)

TOL = 1e-9

# explicit standard Gell-Mann matrices: the independent oracle for n = 3
L1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
L2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
L3 = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex)
L4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
L5 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
L6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
L7 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
L8 = np.diag([1, 1, -2]).astype(complex) / np.sqrt(3.0)

# generator order of build_basis: symmetric pairs, antisymmetric pairs, diagonal
GELLMANN_IN_BUILD_ORDER = [L1, L4, L6, L2, L5, L7, L3, L8]


def test_su3_basis_equals_scaled_gellmann():
    basis = build_basis(3)
    expected = np.stack(GELLMANN_IN_BUILD_ORDER) / np.sqrt(2.0)
    assert np.max(np.abs(basis.generators - expected)) < 1e-15


def test_orthonormality_all_pairs():
    basis = build_basis(3)
    for a in range(8):
        for b in range(8):
            value = np.trace(basis.generators[a].conj().T @ basis.generators[b])
            assert abs(value - (1.0 if a == b else 0.0)) < TOL


def test_first_generator_pattern():
    basis = build_basis(4)
    g = basis.generators[0]
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(g - expected)) < 1e-15


def test_n7_generators_hermitian_traceless():
    basis = build_basis(7)
    assert basis.generators.shape == (48, 7, 7)
    assert np.max(np.abs(basis.generators - basis.generators.conj().transpose(0, 2, 1))) < TOL
    assert np.max(np.abs(np.einsum("aii->a", basis.generators))) < TOL


def test_rejects_small_rank():
    with pytest.raises(ValueError):
        build_basis(2)


def test_structure_constant_oracle_values():
    """Direct commutator traces of the explicit Gell-Mann stack."""
    basis = build_basis(3)
    gens = np.stack(GELLMANN_IN_BUILD_ORDER) / np.sqrt(2.0)

    def f_ref(a, b, c):
        return np.trace(gens[c] @ (gens[a] @ gens[b] - gens[b] @ gens[a]))

    # the su(2) triple sits at (sym12, anti12, diag1) = indices (0, 3, 6)
    assert abs(f_ref(0, 3, 6) - 1j * np.sqrt(2.0)) < 1e-14
    assert abs(basis.f[0, 3, 6] - 1j * np.sqrt(2.0)) < TOL
    # the first three generators are the symmetric pairs and close onto an
    # antisymmetric generator, not onto each other
    assert abs(basis.f[0, 1, 2]) < TOL
    assert abs(basis.f[0, 1, 5] - f_ref(0, 1, 5)) < TOL
    assert abs(basis.f[0, 1, 5] - 1j / np.sqrt(2.0)) < TOL


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_sum_rules(n):
    basis = build_basis(n)
    m = basis.dim
    dd = np.einsum("abc,abd->cd", basis.d, basis.d, optimize=True)
    ff = np.einsum("abc,abd->cd", basis.f, basis.f, optimize=True)
    assert np.max(np.abs(dd - ((2.0 * n * n - 8.0) / n) * np.eye(m))) < TOL * m
    assert np.max(np.abs(ff - (-2.0 * n) * np.eye(m))) < TOL * m


def test_sum_rule_values_su3():
    basis = build_basis(3)
    dd = np.einsum("abc,abd->cd", basis.d, basis.d, optimize=True)
    ff = np.einsum("abc,abd->cd", basis.f, basis.f, optimize=True)
    assert abs(dd[0, 0] - 10.0 / 3.0) < TOL
    assert abs(ff[0, 0] + 6.0) < TOL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_jacobi_identity(n):
    basis = build_basis(n)
    f = basis.f
    jac = (
        np.einsum("abe,ecd->abcd", f, f, optimize=True)
        + np.einsum("bce,ead->abcd", f, f, optimize=True)
        + np.einsum("cae,ebd->abcd", f, f, optimize=True)
    )
    assert np.max(np.abs(jac)) < TOL


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_f_imaginary_d_real_and_symmetries(n):
    basis = build_basis(n)
    assert np.max(np.abs(basis.f.real)) < TOL
    assert np.max(np.abs(basis.d.imag)) < TOL
    assert np.max(np.abs(basis.f + basis.f.transpose(1, 0, 2))) < TOL
    assert np.max(np.abs(basis.f - basis.f.transpose(1, 2, 0))) < TOL
    assert np.max(np.abs(basis.d - basis.d.transpose(1, 0, 2))) < TOL
    assert np.max(np.abs(basis.d - basis.d.transpose(1, 2, 0))) < TOL


def test_structure_constants_recompute():
    basis = build_basis(4)
    f, d = structure_constants(basis)
    assert np.max(np.abs(f - basis.f)) == 0.0
    assert np.max(np.abs(d - basis.d)) == 0.0


def test_matrix_unit_e13_coordinates():
    basis = build_basis(3)
    unit = matrix_unit(basis, 1, 3)
    w = unit.coords
    nonzero = np.nonzero(np.abs(w) > 1e-12)[0]
    # symmetric (1,3) pair is generator 1, antisymmetric (1,3) pair is generator 4
    assert list(nonzero) == [1, 4]
    assert abs(w[1] - 1.0 / np.sqrt(2.0)) < TOL
    assert abs(w[4] - 1j / np.sqrt(2.0)) < TOL


def test_matrix_unit_parseval():
    basis = build_basis(4)
    unit = matrix_unit(basis, 2, 4)
    assert abs(np.sum(np.abs(unit.coords) ** 2) - 1.0) < 1e-12


def test_matrix_unit_reconstruction_n5():
    basis = build_basis(5)
    unit = matrix_unit(basis, 1, 5)
    recon = np.einsum("a,aij->ij", unit.coords, basis.generators)
    assert np.max(np.abs(recon - unit.matrix)) < 1e-12


def test_matrix_unit_diagonal_coords_rejected():
    basis = build_basis(3)
    with pytest.raises(ValueError):
        matrix_unit(basis, 2, 2)
    assert matrix_unit(basis, 2, 2, coords=False).coords is None


def test_matrix_unit_index_range():
    basis = build_basis(3)
    with pytest.raises(ValueError):
        matrix_unit(basis, 0, 2)
    with pytest.raises(ValueError):
        matrix_unit(basis, 1, 4)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_weight_basis_diagonalizes_cartan(n):
    """U is unitary and U ad(H_k) U^dagger is diagonal with the returned weights."""
    basis = build_basis(n)
    m = basis.dim
    u, weights = weight_basis(basis)
    assert u.shape == (m, m) and weights.shape == (m, n)
    assert np.max(np.abs(u @ u.conj().T - np.eye(m))) < 1e-14
    cartan = basis.generators[m - (n - 1):]
    for h in cartan:
        rotated = u @ ad_matrix(basis, h) @ u.conj().T
        eigenvalues = np.diag(rotated)
        assert np.max(np.abs(rotated - np.diag(eigenvalues))) < 1e-14
        assert np.max(np.abs(eigenvalues - weights @ np.diag(h).real)) < 1e-14
    # the nonzero weights are the n(n-1) roots, each once; the Cartan part has weight 0
    roots = {tuple(w) for w in weights if np.any(w)}
    assert len(roots) == n * (n - 1)
    assert not np.any(weights[n * (n - 1):])


def _grouped(total):
    """Row indices of an integer weight array grouped by equal row, the rows in sorted order."""
    groups = {}
    for i, w in enumerate(map(tuple, total)):
        groups.setdefault(w, []).append(i)
    return [np.array(groups[w]) for w in sorted(groups)]


@pytest.mark.parametrize("n", [3, 4])
def test_weight_chain_blocks_are_the_pair_and_triple_groupings(algebra, n):
    """The frames of 2 and 3 sites group the pair and triple weights, as the orbits and the YBE did."""
    basis = algebra.basis(n)
    m = basis.dim
    _, weights = weight_basis(basis)
    pair_w = (weights[:, None, :] + weights[None, :, :]).reshape(m * m, -1)
    triple_w = (pair_w.reshape(m, m, 1, -1) + weights[None, None, :, :]).reshape(m**3, -1)
    for sites, total in ((2, pair_w), (3, triple_w)):
        chain = weight_chain(basis, sites)
        want = _grouped(total)
        assert len(chain.blocks) == len(want)
        assert all(np.array_equal(got, idx) for got, idx in zip(chain.blocks, want))
        assert np.array_equal(chain.sector_weights, [total[idx[0]] for idx in want])


@pytest.mark.parametrize("n, sectors, orbits", [(3, 37, 8), (4, 147, 12), (5, 471, 14), (6, 1281, 15)])
def test_weyl_orbits_of_three_site_sectors(algebra, n, sectors, orbits):
    """One dominant sector per orbit of S_n on the weights; the orbits cover every sector."""
    chain = weight_chain(algebra.basis(n), 3)
    reps = chain.weyl_orbits
    assert (len(chain.blocks), len(reps)) == (sectors, orbits)
    ordered = np.sort(chain.sector_weights, axis=1)
    covered = 0
    for w in reps:
        assert np.array_equal(chain.sector_weights[w], ordered[w][::-1])
        members = np.flatnonzero((ordered == ordered[w]).all(axis=1))
        covered += len(members)
        assert {len(chain.blocks[k]) for k in members} == {len(chain.blocks[w])}
    assert covered == sectors


@pytest.mark.parametrize("n, sectors, multiplicity", [(3, 8, 29), (4, 12, 45), (5, 14, 50), (6, 15, 51),
                                                      (7, 15, 51)])
def test_highest_weight_frame_of_three_sites(algebra, n, sectors, multiplicity):
    """Every dominant sector holds highest-weight vectors, sum k = ``multiplicity``, and the modules fill adj^(x)3."""
    chain = weight_chain(algebra.basis(n), 3)
    frame = highest_weight_bases(chain)
    assert [w for w, _, _ in frame] == chain.weyl_orbits.tolist()
    assert len(frame) == sectors
    assert sum(p.shape[1] for _, _, p in frame) == multiplicity
    assert sum(dim * p.shape[1] for _, dim, p in frame) == (n * n - 1) ** 3
    for _, _, p in frame:
        assert np.isrealobj(p)
        assert np.max(np.abs(p.T @ p - np.eye(p.shape[1]))) <= 1e-13


def test_highest_weight_frame_refuses_modules_that_do_not_fill_the_sites(algebra, monkeypatch):
    """A wrong module dimension breaks sum k dim V = m^3, which the frame asserts when it is built."""
    monkeypatch.setattr(adjoint_tensor, "weyl_dimension", lambda weight: 1)
    with pytest.raises(AssertionError, match="fill"):
        highest_weight_bases(weight_chain(algebra.basis(3), 3))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_highest_weight_frame_of_two_sites_matches_the_decomposition(algebra, n):
    """On two sites the frame's modules are the submodules of the decomposition: k = 2 for the adjoint, 1 otherwise."""
    frame = highest_weight_bases(weight_chain(algebra.basis(n), 2))
    got = sorted(dim for _, dim, p in frame for _ in range(p.shape[1]))
    assert got == sorted(sub.dim for sub in algebra.dec(n).submodules)


def _rebuilt(chain, x, alpha, sites=None):
    """The dense operator on the states of ``chain`` assembled from ``shift_blocks``."""
    out = np.zeros((len(chain.label),) * 2, dtype=complex)
    for k, t, block in chain.shift_blocks(x, alpha, sites=sites):
        assert np.array_equal(chain.sector_weights[t], chain.sector_weights[k] + alpha)
        out[np.ix_(chain.blocks[t], chain.blocks[k])] = block
    return out


def test_shift_blocks_match_dense_kronecker_sums(algebra):
    """At n = 3 the sector blocks of every root rebuild the rotated sum_s ad_s(e_alpha) at L = 3,
    and at L = 2 the blocks of ``sites=(0,)`` and ``(1,)`` rebuild x (x) 1 and 1 (x) x."""
    basis = algebra.basis(3)
    m, sites = basis.dim, 3
    chain, pair = weight_chain(basis, sites), weight_chain(basis, 2)
    u = chain.u
    units = np.einsum("ba,aij->bij", np.conj(u), basis.generators)  # the weight basis B_b
    roots = m - (basis.n - 1)
    eye = np.eye(m)
    for unit, alpha in zip(units[:roots], chain.weights[:roots]):
        x = u @ ad_matrix(basis, unit) @ np.conj(u).T
        assert np.max(np.abs(root_action(chain, alpha) - x)) <= 1e-14
        total = sum(np.kron(np.kron(np.eye(m**s), x), np.eye(m ** (sites - 1 - s)))
                    for s in range(sites))
        assert np.max(np.abs(_rebuilt(chain, x, alpha) - total)) <= 1e-14
        assert np.max(np.abs(_rebuilt(pair, x, alpha, sites=(0,)) - np.kron(x, eye))) <= 1e-14
        assert np.max(np.abs(_rebuilt(pair, x, alpha, sites=(1,)) - np.kron(eye, x))) <= 1e-14


def test_a_frame_with_swapped_weights_is_refused(algebra, monkeypatch):
    """Both the orbits and the chain symmetry check refuse a frame whose weights are wrong."""
    basis = algebra.basis(3)
    h = local_h(algebra.rep(3))
    right = liealg.weight_basis

    def swapped(basis):
        u, weights = right(basis)
        return u, weights[[1, 0, *range(2, len(weights))]]  # e_1 - e_2 and e_2 - e_1 traded

    monkeypatch.setattr(liealg, "weight_basis", swapped)
    with pytest.raises(AssertionError, match="leaves its weight shift"):
        build_decomposition(adjoint_rep(basis))  # a new rep builds its frame under the swap
    chain = weight_chain(basis, 2)
    with pytest.raises(AssertionError, match="leaves its weight shift"):
        global_symmetry_residual(chain, weight_hamiltonian(chain, h))


def test_the_frame_has_no_dense_cap(algebra):
    """The frame of 3 sites at n = 5 builds; the dense chain of that size is still refused."""
    basis = algebra.basis(5)
    chain = weight_chain(basis, 3)
    assert len(chain.label) == 24**3 > CHAIN_DIM_CAP
    assert sum(len(idx) for idx in chain.blocks) == 24**3
    with pytest.raises(ValueError, match="13824"):
        chain_H(np.zeros((576, 576)), 3)
    with pytest.raises(ValueError, match="13824"):
        chain_frame(basis, 3)
