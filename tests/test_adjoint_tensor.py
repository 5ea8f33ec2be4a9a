import dataclasses
import re

import numpy as np
import pytest

from adjrmat import adjoint_tensor
from adjrmat.adjoint_tensor import (
    _orbit,
    _representation_residual,
    _weight_blocks,
    ad_matrix,
    adjoint_rep,
    apply_swap,
    build_decomposition,
    casimir_op,
    highest_weight_vectors,
    site_left,
    weight_ad,
)
from adjrmat.liealg import build_basis, matrix_unit, weight_basis, weight_units
from adjrmat.numerics import DEFAULT_TOL, extend_orthonormal, max_abs

from conftest import (
    BAD_HIGHEST_WEIGHT_ROWS,
    adjoint_stack,
    apply_omega,
    apply_pair,
    gell_mann_copies,
    gell_mann_invariants,
    gell_mann_rows,
    lowering_ops,
    permutation_op,
    product_copies,
    raising_ops,
    rotate_pair,
    site_right,
    tensor_coords,
    tensor_from_coords,
    traced_peak,
    with_bad_row,
)

TOL = 1e-9


@pytest.mark.parametrize("k", [1, 3, 7])
def test_site_products_match_kron(rng, k):
    """site_left / site_right against the dense a (x) 1 and 1 (x) a, on both sides."""
    m = 5
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    x = rng.standard_normal((m * m, k)) + 1j * rng.standard_normal((m * m, k))
    for site, dense in enumerate((np.kron(a, np.eye(m)), np.kron(np.eye(m), a))):
        assert np.max(np.abs(site_left(a, x, site) - dense @ x)) < 1e-12
        assert np.max(np.abs(site_right(x.T, a, site) - x.T @ dense)) < 1e-12
        assert np.max(np.abs(site_left(a, x[:, 0], site) - dense @ x[:, 0])) < 1e-12


def test_rotate_pair_matches_kron(rng):
    m = 4
    u = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
    w2 = np.kron(u, u)
    assert np.max(np.abs(rotate_pair(u, r) - w2 @ r @ w2.conj().T)) < 1e-12


def test_adjoint_matrices_su3(algebra):
    basis, S = algebra.basis(3), adjoint_stack(algebra.rep(3))
    assert S.shape == (8, 8, 8)
    assert np.max(np.abs(S - S.conj().transpose(0, 2, 1))) < TOL
    cas = np.einsum("aij,ajk->ik", S, S)
    assert np.max(np.abs(cas - 6.0 * np.eye(8))) < TOL
    assert np.max(np.abs(np.einsum("aii->a", S))) < TOL


def test_representation_property(algebra):
    basis, S = algebra.basis(3), adjoint_stack(algebra.rep(3))
    for a in range(8):
        for b in range(8):
            comm = S[a] @ S[b] - S[b] @ S[a]
            rhs = np.einsum("c,cij->ij", basis.f[a, b], S)
            assert np.max(np.abs(comm - rhs)) < TOL


def test_casimir_on_singlet(algebra):
    basis, rep = algebra.basis(4), algebra.rep(4)
    omega_coords = np.eye(rep.dim, dtype=complex).ravel()
    assert np.linalg.norm(apply_omega(rep.frame, omega_coords) + 2 * 4 * omega_coords) < TOL


def test_casimir_on_top_vector(algebra):
    basis, rep = algebra.basis(4), algebra.rep(4)
    w = matrix_unit(basis, 1, 4).coords
    v = np.outer(w, w).ravel()
    assert np.linalg.norm(apply_omega(rep.frame, v) - 2.0 * v) < TOL


def test_casimir_spectrum_su4(algebra):
    basis, rep = algebra.basis(4), algebra.rep(4)
    omega = casimir_op(rep)
    vals = np.linalg.eigvalsh(omega)
    expected = {2.0, 0.0, -2.0, -4.0, -8.0}
    for v in vals:
        assert min(abs(v - e) for e in expected) < 1e-8


def test_permutation_operator(algebra):
    basis, rep = algebra.basis(3), algebra.rep(3)
    m = rep.dim
    sigma = permutation_op(m)
    v = np.zeros(m * m)
    v[0 * m + 1] = 1.0  # e_1 (x) e_2
    swapped = sigma @ v
    assert swapped[1 * m + 0] == 1.0 and np.sum(np.abs(swapped)) == 1.0
    omega_coords = np.eye(m).ravel()
    assert np.linalg.norm(sigma @ omega_coords - omega_coords) == 0.0
    assert abs(np.trace(sigma) - m) < 1e-12
    assert np.max(np.abs(sigma @ sigma - np.eye(m * m))) == 0.0
    assert np.max(np.abs(apply_swap(v, m) - swapped)) == 0.0


@pytest.mark.parametrize("n", [4, 5])
def test_vs_constructions_agree(algebra, n):
    basis = algebra.basis(n)
    hw = {r.role: r for r in gell_mann_rows(basis)}
    w_1n = matrix_unit(basis, 1, n).coords
    alt_s = n * np.einsum("a,abc->bc", w_1n, basis.d).ravel()
    alt_a = np.sqrt(n * n - 4.0) * np.einsum("a,abc->bc", w_1n, basis.f).ravel()
    assert np.max(np.abs(hw["adjoint_sym"].coords - alt_s)) < TOL
    # the matrix-product form of v_a is the one satisfying the level-1
    # action identities; the f-contraction form carries the opposite sign
    assert np.max(np.abs(hw["adjoint_anti"].coords + alt_a)) < TOL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_adjoint_hwv_norms(algebra, n):
    basis = algebra.basis(n)
    hw = {r.role: r for r in highest_weight_vectors(basis)}
    ns = np.linalg.norm(hw["adjoint_sym"].coords)
    na = np.linalg.norm(hw["adjoint_anti"].coords)
    assert abs(ns - na) < TOL
    assert abs(ns**2 - 2.0 * n * (n * n - 4.0)) < TOL * n * n


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hwvs_annihilated_by_raising(algebra, n):
    """In weight coordinates, with the raising operators ad(e_ij), i < j, rotated there from Gell-Mann coordinates."""
    basis, rep = algebra.basis(n), algebra.rep(n)
    u = rep.weight_frame.u
    ups = [u @ a @ u.conj().T for a in raising_ops(rep)]
    m = rep.dim
    for row in highest_weight_vectors(basis):
        mat = row.coords.reshape(m, m)
        for a in ups:
            image = a @ mat + mat @ a.T
            assert np.linalg.norm(image) < TOL * max(1.0, np.linalg.norm(row.coords))


def test_submodule_su3_top_is_27(algebra):
    sub = algebra.dec(3).by_role("sym_top")
    assert sub.dim == 27
    assert abs(sub.omega_eigenvalue - 2.0) < 1e-8
    assert sub.exchange_parity == 1


def test_singlet_projector(algebra):
    sub = algebra.dec(3).by_role("singlet")
    assert sub.dim == 1
    omega_coords = np.eye(8, dtype=complex).ravel()
    expected = np.outer(omega_coords, omega_coords.conj()) / 8.0
    assert np.max(np.abs(sub.projector - expected)) < TOL


def test_su4_dimensions_against_joint_eigenspace_oracle(algebra):
    """Multiplicities of the joint (Casimir, swap) eigenvalues on V (x) V."""
    basis, rep, dec = algebra(4)
    m = rep.dim
    omega = algebra.omega_oracle(4)
    sigma = permutation_op(m)
    vals, vecs = np.linalg.eigh(omega)
    sector_dims = {}
    for value in np.unique(np.round(vals, 6)):
        cols = vecs[:, np.abs(vals - value) < 1e-6]
        restric = cols.conj().T @ sigma @ cols
        par_vals = np.linalg.eigvalsh(restric)
        plus = int(np.sum(par_vals > 0))
        minus = int(np.sum(par_vals < 0))
        if plus:
            sector_dims[(float(value), 1)] = plus
        if minus:
            sector_dims[(float(value), -1)] = minus
    got = {}
    for sub in dec.submodules:
        key = (round(sub.omega_eigenvalue, 6), sub.exchange_parity)
        got[key] = got.get(key, 0) + sub.dim
    assert got == sector_dims
    assert sum(sub.dim for sub in dec.submodules) == 225
    assert dec.by_role("adjoint_sym").dim == 15
    assert dec.by_role("adjoint_anti").dim == 15


@pytest.mark.parametrize("n", [3, 4])
def test_projector_completeness_and_orthogonality(algebra, n):
    rep, dec = algebra.rep(n), algebra.dec(n)
    m = rep.dim
    total = sum(sub.projector for sub in dec.submodules)
    assert np.max(np.abs(total - np.eye(m * m))) < TOL
    for i, a in enumerate(dec.submodules):
        for b in dec.submodules[i + 1 :]:
            assert np.max(np.abs(a.projector @ b.projector)) < TOL


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sector_completeness_matches_dense_gram(algebra, n):
    """The Gram residual taken per weight sector equals the retired one of the stacked bases."""
    dec = algebra.dec(n)
    stacked = np.hstack([sub.basis for sub in dec.submodules])
    dense = np.max(np.abs(stacked.conj().T @ stacked - np.eye(stacked.shape[1])))
    assert abs(dec.completeness_residual - dense) <= 1e-14


def _edit_first_orbit(monkeypatch, edit):
    """Rebind ``_orbit`` so that ``edit`` changes the weight-coordinate basis of the first orbit (sym_top)."""
    original = adjoint_tensor._orbit
    calls = []

    def orbit(frame, seed, tol):
        basis = original(frame, seed, tol)
        if not calls:
            edit(frame.chain, basis)
        calls.append(seed)
        return basis

    monkeypatch.setattr(adjoint_tensor, "_orbit", orbit)


def test_completeness_catches_a_scaled_orbit_column(algebra, monkeypatch):
    def scale(chain, basis):  # not column 0, which sets the measured Casimir eigenvalue
        basis[:, -1] *= 1.0 + 1e-6

    _edit_first_orbit(monkeypatch, scale)
    with pytest.raises(AssertionError, match="completeness"):
        build_decomposition(algebra.rep(3)).completeness_residual


def test_completeness_catches_a_column_rotated_into_another_sector(algebra, monkeypatch):
    """Column 0 turned by 1e-4 towards a column of the same module in another sector.

    It stays in the module's Casimir eigenspace and exchange parity, so
    only completeness can see it.
    """

    def rotate(chain, basis):
        first, last = basis[:, 0].copy(), basis[:, -1].copy()
        sectors = chain.label[np.argmax(np.abs(basis[:, [0, -1]]), axis=0)]
        assert sectors[0] != sectors[1]
        basis[:, 0] = np.cos(1e-4) * first + np.sin(1e-4) * last

    _edit_first_orbit(monkeypatch, rotate)
    with pytest.raises(AssertionError, match="completeness"):
        build_decomposition(algebra.rep(3)).completeness_residual


def test_closing_catches_an_orbit_short_of_its_weyl_dimension(algebra, monkeypatch):
    """An orbit that loses a column is refused when the bases are closed, as none can be a module."""
    original = adjoint_tensor._orbit
    monkeypatch.setattr(adjoint_tensor, "_orbit", lambda *args: original(*args)[:, :-1])
    dec = build_decomposition(algebra.rep(3))
    with pytest.raises(AssertionError, match="not its Weyl dimension 27"):
        dec.by_role("sym_top").basis


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closed_bases_have_their_weyl_dimensions(algebra, monkeypatch, n):
    """dim, the Casimir eigenvalue and the parity are read with no orbit closed; the bases, closed at once, match them."""
    closed = []
    monkeypatch.setattr(adjoint_tensor, "_weight_blocks",
                        lambda *args: closed.append(args) or _weight_blocks(*args))
    dec = build_decomposition(algebra.rep(n))
    dims = [sub.dim for sub in dec.submodules]
    assert [_weyl_dimension(sub.label) for sub in dec.submodules] == dims
    assert sum(dims) == algebra.rep(n).dim ** 2
    casimir = {"sym_top": 2.0, "anti_left": 0.0, "anti_right": 0.0, "mixed_sym": -2.0,
               "adjoint_sym": -n, "adjoint_anti": -n, "singlet": -2.0 * n}
    for sub in dec.submodules:
        assert abs(sub.omega_eigenvalue - casimir[sub.role]) <= TOL
        assert sub.exchange_parity == (-1 if sub.role in ("anti_left", "anti_right", "adjoint_anti") else 1)
    assert closed == []
    assert [sub.basis.shape[1] for sub in dec.submodules] == dims
    assert dec.completeness_residual <= TOL
    assert len(closed) == 1


@pytest.mark.parametrize("edit, role, message", BAD_HIGHEST_WEIGHT_ROWS)
def test_decomposition_refuses_a_bad_highest_weight_row(algebra, monkeypatch, edit, role, message):
    with_bad_row(monkeypatch, role, edit)
    with pytest.raises(AssertionError, match=message):
        build_decomposition(algebra.rep(3))


def test_decomposition_forms_no_dense_gram(algebra):
    """At n = 6 the decomposition and the closing of its bases peak below three D x D complex arrays (the bases hold one)."""
    rep = algebra.rep(6)
    D = rep.dim**2
    assert traced_peak(lambda: build_decomposition(rep).completeness_residual) < 3 * D * D * 16


def test_isometry_is_formed_only_when_read(algebra):
    dec = algebra.dec(3)
    fresh = dataclasses.replace(dec)
    assert "iso_s_to_a" not in vars(fresh)
    assert fresh.iso_s_to_a is fresh.iso_s_to_a


def _ad_stack(rep):
    """The real (m, m, m) stack ad(B_x) over the weight basis, scattered from ``rep.frame.ad``."""
    m = rep.dim
    ad = np.zeros((m, m, m))
    op, row, col, val = rep.frame.ad
    ad[op, row, col] = val
    return ad


@pytest.mark.parametrize("n", [3, 4, 5])
def test_blocked_representation_check_matches_the_generator_loop(algebra, n):
    """The blocked residual of the table's ad against a loop over the generators, with the right side from weight_ad."""
    basis, rep = algebra.basis(n), algebra.rep(n)
    ad = _ad_stack(rep)
    units = weight_units(basis)
    loop = max(np.max(np.abs(ad[x] @ ad - ad @ ad[x] - weight_ad(basis, units[x] @ units - units @ units[x])))
               for x in range(rep.dim))
    assert loop <= 1e-13
    assert abs(_representation_residual(ad) - loop) <= 1e-14


def test_adjoint_rep_refuses_a_wrong_structure_constant(algebra, monkeypatch):
    """tr(B_y [B_x, B_b]) off by 1e-6 at one triple, with its images, so that ad stays Hermitian, is refused.

    For x, b, y = e_12, e_23, e_31 the cyclic products B_x B_b, B_b B_y and
    B_y B_x are the units e_13, e_21 and e_32, and for the transposed triple
    e_21, e_32, e_13 the products in reverse order are e_31, e_23 and e_12.
    """
    table = adjoint_tensor.weight_products

    def wrong(basis):
        x, b, c, v = table(basis)
        v = v.copy()
        for ij, kl, pq in (((1, 2), (2, 3), (1, 3)), ((2, 3), (3, 1), (2, 1)), ((3, 1), (1, 2), (3, 2)),
                           ((3, 2), (2, 1), (3, 1)), ((2, 1), (1, 3), (2, 3)), ((1, 3), (3, 2), (1, 2))):
            hit = (x == _unit(basis, ij)) & (b == _unit(basis, kl)) & (c == _unit(basis, pq))
            assert np.count_nonzero(hit) == 1 and v[hit] == 1.0
            v[hit] *= 1.0 + 1e-6
        return x, b, c, v

    monkeypatch.setattr(adjoint_tensor, "weight_products", wrong)
    with pytest.raises(AssertionError, match="representation property"):
        adjoint_rep(algebra.basis(4))


def _unit(basis, ij):
    """The index of e_ij (1-based) in the weight basis."""
    units = weight_units(basis)
    return int(np.flatnonzero(units[:, ij[0] - 1, ij[1] - 1] == 1.0)[0])


def test_representation_check_never_forms_an_m4_array():
    """At n = 8 the check runs one generator at a time, far below one m^4 complex array."""
    rep = adjoint_rep(build_basis(8), validate=False)
    m = rep.dim
    ad = _ad_stack(rep)
    assert traced_peak(_representation_residual, ad) < 0.15 * m**4 * 16


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_frame_invariants_match_the_rotated_gell_mann_path(algebra, n):
    """Omega_op, C+ and DD from the table against the crossed sums of dense f and d rotated into the frame, and E_w
    against the weight coordinates of the stack of products."""
    rep = algebra.rep(n)
    frame = rep.frame
    omega, c_plus, dd = gell_mann_invariants(frame)
    got = (frame.term("omega"), [-b for b in frame.crossed(frame.anti, frame.ad)], frame.crossed(frame.anti, frame.anti))
    for mine, theirs in zip(got, (omega, c_plus, dd)):
        assert all(a.dtype == np.float64 for a in mine)
        assert max(max_abs(a - b) for a, b in zip(mine, theirs, strict=True)) <= 1e-14
    e = np.zeros((rep.dim**2, 2 * rep.dim))
    for half, (rows, cols, vals) in enumerate(frame.E_w):
        e[rows, half * rep.dim + cols] = vals
    assert max_abs(e - product_copies(rep.basis)) <= 1e-16


def test_frame_terms_form_no_dense_structure_constants():
    """At n = 10 the basis, the frame and its term blocks peak below 40 MB: no (m, m, m) f or d, no (m, m, n, n) products."""
    assert traced_peak(lambda: adjoint_rep(build_basis(10), validate=False).frame.terms) < 40e6


@pytest.mark.parametrize("n", [3, 4])
def test_projectors_commute_with_diagonal_action(algebra, n):
    basis, rep, dec = algebra(n)
    m, S = rep.dim, adjoint_stack(rep)
    for a in range(m):
        action = np.kron(S[a], np.eye(m)) + np.kron(np.eye(m), S[a])
        for sub in dec.submodules:
            comm = sub.projector @ action - action @ sub.projector
            assert np.max(np.abs(comm)) < TOL * m


@pytest.mark.parametrize("n", [3, 4])
def test_operator_reconstruction_from_projectors(algebra, n):
    rep, dec = algebra.rep(n), algebra.dec(n)
    m = rep.dim
    omega = sum(sub.omega_eigenvalue * sub.projector for sub in dec.submodules)
    assert np.max(np.abs(omega - algebra.omega_oracle(n))) < TOL * m
    sigma = sum(sub.exchange_parity * sub.projector for sub in dec.submodules)
    assert np.max(np.abs(sigma - permutation_op(m))) < TOL * m


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_isometry_properties(algebra, n):
    rep, dec = algebra.rep(n), algebra.dec(n)
    iso = dec.iso_s_to_a
    p_s = dec.by_role("adjoint_sym").projector
    p_a = dec.by_role("adjoint_anti").projector
    assert np.max(np.abs(iso.conj().T @ iso - p_s)) < TOL
    assert np.max(np.abs(iso @ iso.conj().T - p_a)) < TOL
    v_s, v_a = (rep.frame.from_weight(dec.by_role(role).hw_vector) for role in ("adjoint_sym", "adjoint_anti"))
    image = iso @ v_s
    ratio = np.vdot(v_a, image) / np.vdot(v_a, v_a)
    assert ratio.real > 0
    assert np.linalg.norm(image - ratio * v_a) < TOL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_isometry_equivariance(algebra, rng, n):
    """iso (action P_s) = (action P_a) iso for the level-0 action of every generator.

    For n <= 4 both sides are formed on all of V (x) V; at n = 5 they are
    applied to a few random unit vectors instead of forming D x D actions.
    """
    basis, rep, dec = algebra(n)
    m, S = rep.dim, adjoint_stack(rep)
    iso = dec.iso_s_to_a
    p_s = dec.by_role("adjoint_sym").projector
    p_a = dec.by_role("adjoint_anti").projector
    if n <= 4:
        x = np.eye(m * m, dtype=complex)
    else:
        x = rng.standard_normal((m * m, 4)) + 1j * rng.standard_normal((m * m, 4))
        x /= np.linalg.norm(x, axis=0)
    for a in range(m):
        lhs = iso @ apply_pair(S[a], p_s @ x)
        rhs = apply_pair(S[a], p_a @ (iso @ x))
        assert np.max(np.abs(lhs - rhs)) < TOL * m


def test_su4_mixed_module_row(algebra):
    """The (020) row of the table at n = 4 behaves as an ordinary row."""
    basis, rep, dec = algebra(4)
    sub = dec.by_role("mixed_sym")
    assert sub.label == "(020)s"
    assert abs(sub.omega_eigenvalue + 2.0) < 1e-8
    assert sub.exchange_parity == 1
    assert sub.dim == 20


def test_table_labels_su5(algebra):
    dec = algebra.dec(5)
    labels = [s.label for s in dec.submodules]
    assert labels == ["(2002)s", "(2010)a", "(0102)a", "(0110)s", "(1001)s", "(1001)a", "(0000)s"]


def test_tensor_coords_roundtrip(algebra, rng):
    basis, rep = algebra.basis(3), algebra.rep(3)
    m = rep.dim
    coords = rng.standard_normal(m * m) + 1j * rng.standard_normal(m * m)
    mat = tensor_from_coords(basis, coords)
    back = tensor_coords(basis, mat)
    assert np.max(np.abs(back - coords)) < 1e-12


def test_tensor_coords_rejects_outside_span(algebra):
    basis = algebra.basis(3)
    bad = np.eye(9, dtype=complex)  # contains 1 (x) 1, outside su(3) (x) su(3)
    with pytest.raises(ValueError):
        tensor_coords(basis, bad)


def test_ad_matrix_is_commutator_action(algebra, rng):
    basis = algebra.basis(3)
    x = matrix_unit(basis, 1, 2, coords=False).matrix
    a = ad_matrix(basis, x)
    w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y = np.einsum("a,aij->ij", w, basis.generators)
    lhs = np.einsum("a,aij->ij", a @ w, basis.generators)
    rhs = x @ y - y @ x
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_orbit_rejects_zero_vector(algebra):
    rep = algebra.rep(3)
    with pytest.raises(ValueError):
        _orbit(_weight_blocks(rep, DEFAULT_TOL), np.zeros(64, dtype=complex), DEFAULT_TOL)


def test_orbit_rejects_non_weight_vector(algebra):
    """A seed with support in two weight blocks spans no module; it is refused."""
    basis, rep = algebra.basis(3), algebra.rep(3)
    hw = {r.role: r for r in highest_weight_vectors(basis)}
    mixed = hw["sym_top"].coords + hw["singlet"].coords
    with pytest.raises(ValueError, match="not a weight vector"):
        _orbit(_weight_blocks(rep, DEFAULT_TOL), mixed, DEFAULT_TOL)


def _orbit_oracle(rep, seed, tol=DEFAULT_TOL):
    """The retired dense lowering orbit: Gram-Schmidt over Gell-Mann coordinates.

    Each round applies every ad(e_ji) (x) 1 + 1 (x) ad(e_ji) to the columns
    accepted in the previous round and extends the basis with the images
    that are not yet in its span, until a round adds nothing.
    """
    m = rep.dim
    D = m * m
    lows = lowering_ops(rep)
    lows_t = np.ascontiguousarray(lows.transpose(0, 2, 1))
    B = (seed / np.linalg.norm(seed)).reshape(D, 1).astype(complex)
    frontier = [0]
    while frontier:
        p = len(frontier)
        block = np.ascontiguousarray(B[:, frontier]).reshape(m, m, p)
        v_left = block.reshape(m, m * p)
        v_right = np.ascontiguousarray(block.transpose(0, 2, 1)).reshape(m * p, m)
        slab = np.empty((D, len(lows) * p), dtype=complex)
        for o in range(len(lows)):
            left = (lows[o] @ v_left).reshape(m, m, p)
            right = (v_right @ lows_t[o]).reshape(m, p, m).transpose(0, 2, 1)
            slab[:, o * p : (o + 1) * p] = (left + right).reshape(D, p)
        norms = np.linalg.norm(slab, axis=0)
        keep = norms >= tol.rank_tol
        new, _ = extend_orthonormal(B, slab[:, keep] / norms[keep], tol)
        k0 = B.shape[1]
        B = np.hstack([B, new])
        frontier = list(range(k0, B.shape[1]))
    return B


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_weight_block_orbit_matches_oracle(algebra, n):
    """Every module, and the isometry, agree with the retired dense orbit.

    The oracle closes all seven orbits, the two adjoint copies included, and
    takes the isometry from the invariant tensors directly.
    """
    basis, rep, dec = algebra(n)
    m = rep.dim
    rows = {r.role: r for r in gell_mann_rows(basis)}
    oracle = {}
    for sub in dec.submodules:
        B = _orbit_oracle(rep, rows[sub.role].coords)
        assert sub.dim == B.shape[1], sub.role
        proj = B @ B.conj().T
        assert np.max(np.abs(sub.basis @ sub.basis.conj().T - proj)) <= 1e-13, sub.role
        if sub.role in ("adjoint_sym", "adjoint_anti"):
            oracle[sub.role] = proj

    e = gell_mann_copies(basis)
    iso = dec.iso_s_to_a
    assert np.max(np.abs(iso - e[:, m:] @ e[:, :m].conj().T)) <= 1e-13
    assert np.max(np.abs(iso.conj().T @ iso - oracle["adjoint_sym"])) <= 1e-13
    assert np.max(np.abs(iso @ iso.conj().T - oracle["adjoint_anti"])) <= 1e-13


def _weyl_dimension(label):
    """dim V(a) = prod_{i<j} (sum_{k=i}^{j-1} (a_k + 1)) / (j - i) for Dynkin labels a."""
    a = [int(c) for c in re.fullmatch(r"\((\d+)\)[sa]", label).group(1)]
    num = den = 1
    for i in range(len(a)):
        for j in range(i + 1, len(a) + 1):
            num *= sum(a[i:j]) + (j - i)
            den *= j - i
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_module_dimensions_match_weyl_formula(algebra, n):
    for sub in algebra.dec(n).submodules:
        assert len(re.fullmatch(r"\((\d+)\)[sa]", sub.label).group(1)) == n - 1
        assert _weyl_dimension(sub.label) == sub.dim, sub.label


def test_submodules_keep_no_projector(algebra):
    """A projector is formed on each access; a submodule holds only its basis."""
    dec = algebra.dec(3)
    for sub in dec.submodules:
        first = sub.projector
        assert sub.projector is not first
        assert np.max(np.abs(first - sub.basis @ sub.basis.conj().T)) == 0.0
        held = [v for v in vars(sub).values() if isinstance(v, np.ndarray)]
        assert all(v.shape != first.shape for v in held)


def _lowering_gather_oracle(rep):
    """The retired lowering gather: per two-site weight block, every ad(e_ji) (x) 1 + 1 (x) ad(e_ji).

    Returns (blocks, lowers, targets) as the decomposition built them before
    the weight frame: the pair indices grouped by total weight, and for each
    block the stacked images under the lowering operators gathered entry by
    entry from their rotated matrices, with the (target, first row, end row)
    segments.
    """
    n, m = rep.n, rep.dim
    U, weights = weight_basis(rep.basis)
    uh = np.conj(U).T
    lows = np.stack([U @ a @ uh for a in lowering_ops(rep)])
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    shifts = np.zeros((len(lows), n), dtype=int)
    for o, (i, j) in enumerate(pairs):
        shifts[o, j - 1] += 1
        shifts[o, i - 1] -= 1
    total = (weights[:, None, :] + weights[None, :, :]).reshape(m * m, -1)
    _, label, sizes = np.unique(total, axis=0, return_inverse=True, return_counts=True)
    blocks = np.split(np.argsort(label.ravel(), kind="stable"), np.cumsum(sizes)[:-1])
    keys = [total[idx[0]] for idx in blocks]
    index = {tuple(key): k for k, key in enumerate(keys)}
    lowers, targets = [], []
    for key, src in zip(keys, blocks):
        sp, sq = divmod(src, m)
        rows, ops, segs = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)], []
        lo = 0
        for o, shift in enumerate(shifts):
            t = index.get(tuple(key + shift))
            if t is None:
                continue
            rows.append(blocks[t])
            ops.append(np.full(len(blocks[t]), o))
            segs.append((t, lo, lo + len(blocks[t])))
            lo += len(blocks[t])
        tp, tq = divmod(np.concatenate(rows), m)
        op = np.concatenate(ops)[:, None]
        tp, tq = tp[:, None], tq[:, None]
        lowers.append(lows[op, tp, sp] * (tq == sq) + (tp == sp) * lows[op, tq, sq])
        targets.append(segs)
    return blocks, lowers, targets


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lowering_blocks_match_retired_gather(algebra, n):
    """The frame's root blocks, stacked per sector, equal the retired gather to roundoff.

    The gather rotates ad(e_ji) from Gell-Mann coordinates; the frame builds
    it from matrix units, exactly.
    """
    rep = algebra.rep(n)
    blocks, lowers, targets = _lowering_gather_oracle(rep)
    frame = _weight_blocks(rep, DEFAULT_TOL)
    assert len(frame.chain.blocks) == len(blocks)
    assert all(np.array_equal(got, want) for got, want in zip(frame.chain.blocks, blocks))
    assert frame.targets == targets
    for got, want, segs in zip(frame.lowers, lowers, targets):
        assert got.shape == want.shape
        assert all(np.max(np.abs(got[lo:hi] - want[lo:hi]), initial=0.0) <= 1e-15 for _, lo, hi in segs)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_weight_rows_are_the_rotated_gell_mann_rows(algebra, n):
    """Each row built from matrix units is (U (x) U) times its Gell-Mann oracle row, sign included.

    The isometry phase and the sign of the M block read the signs of the adjoint rows.
    """
    basis, frame = algebra.basis(n), algebra.rep(n).frame
    for got, want in zip(highest_weight_vectors(basis), gell_mann_rows(basis), strict=True):
        assert (got.role, got.label, got.parity) == (want.role, want.label, want.parity)
        assert got.coords.dtype == np.float64
        assert 1 <= np.count_nonzero(got.coords) <= basis.dim, got.role
        rotated = frame.to_weight(want.coords)
        assert max_abs(got.coords - rotated) <= 1e-13 * max(1.0, max_abs(rotated)), got.role


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_adjoint_copies_give_the_e_terms_of_the_rotated_gell_mann_columns(algebra, n):
    """The E terms of the frame, from the copies built in weight coordinates, against those of the rotated d and -f columns."""
    rep = algebra.rep(n)
    frame, m = rep.frame, rep.dim
    e = frame.to_weight(gell_mann_copies(rep.basis)).reshape(m * m, 2, m)
    for idx, t in zip(frame.sectors, frame.terms):
        x = e[idx]
        for p in range(4):
            want = x[:, :, p // 2] @ np.conj(x[:, :, p % 2]).transpose(0, 2, 1)
            assert max_abs(t[4 + p] - want) <= 1e-14

