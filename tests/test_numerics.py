import numpy as np
import pytest

from adjrmat.numerics import (
    Tolerance,
    _openblas_thread_controls,
    blas_threads_at_most,
    eig_general,
    extend_orthonormal,
    kron,
)

from conftest import orthonormalize

TOL = 1e-9


def kron_reference(a, b):
    """Entry-wise definition, independent of the library implementation."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def test_kron_identity_cases():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    sz = np.diag([1.0, -1.0])
    assert np.array_equal(kron(sz, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_kron_matches_entrywise_definition(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.max(np.abs(kron(a, b) - kron_reference(a, b))) < 1e-14


def test_kron_mixed_product(rng):
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    a, b, c, d = mats
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kron_associative(rng):
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-14


def test_orthonormalize_trivial():
    out = orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
    assert len(out) == 2
    assert np.allclose(out[0], [1.0, 0.0])
    assert np.allclose(out[1], [0.0, 1.0])


def test_orthonormalize_drops_duplicates():
    out = orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    assert len(out) == 1


def test_orthonormalize_empty():
    assert orthonormalize([]) == []


def test_orthonormalize_random_overcomplete(rng):
    vectors = [rng.standard_normal(20) + 1j * rng.standard_normal(20) for _ in range(50)]
    out = orthonormalize(vectors)
    assert len(out) == 20
    basis = np.column_stack(out)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(20))) < TOL


def test_orthonormalize_order_follows_input(rng):
    v1 = rng.standard_normal(5)
    v2 = rng.standard_normal(5)
    out = orthonormalize([v1, v2])
    assert abs(abs(np.vdot(out[0], v1 / np.linalg.norm(v1))) - 1.0) < 1e-12


def test_extend_orthonormal_matches_orthonormalize(rng):
    cands = rng.standard_normal((12, 30)) + 1j * rng.standard_normal((12, 30))
    cands[:, 10] = cands[:, 3]  # plant a duplicate
    block, accepted = extend_orthonormal(None, cands)
    seq = orthonormalize([cands[:, k] for k in range(30)])
    assert block.shape[1] == len(seq) == 12
    assert 10 not in accepted or np.linalg.matrix_rank(cands[:, :11]) == 11
    for k in range(12):
        assert np.linalg.norm(block[:, k] - seq[k]) < 1e-10


def test_extend_orthonormal_respects_existing_basis(rng):
    base = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))[0]
    cands = np.column_stack([base[:, 0], rng.standard_normal(8) + 0j])
    block, accepted = extend_orthonormal(base, cands)
    assert accepted == [1]
    assert np.max(np.abs(base.conj().T @ block)) < 1e-12


def test_eig_diagonal():
    vals = sorted((w for w, _ in eig_general(np.diag([1.0, 2.0 + 3.0j]))), key=lambda z: z.real)
    assert abs(vals[0] - 1.0) < 1e-12
    assert abs(vals[1] - (2.0 + 3.0j)) < 1e-12


def test_eig_defective_jordan_block():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    pairs = eig_general(m)
    assert all(abs(w) < 1e-12 for w, _ in pairs)
    for w, v in pairs:
        assert np.linalg.norm(m @ v - w * v) <= 1e-9 * max(1.0, np.linalg.norm(m))


def test_eig_trace_identity(rng):
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    vals = [w for w, _ in eig_general(m)]
    assert abs(sum(vals) - np.trace(m)) < 1e-8


@pytest.mark.parametrize("dim", [2, 5, 9, 16])
def test_eig_trace_and_det(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    vals = np.array([w for w, _ in eig_general(m)])
    assert abs(vals.sum() - np.trace(m)) < 1e-7 * max(1.0, abs(np.trace(m)))
    det = np.linalg.det(m)
    assert abs(np.prod(vals) - det) < 1e-7 * max(1.0, abs(det))


def test_eig_real_input_gives_exact_conjugate_pairs(rng):
    m = rng.standard_normal((9, 9))
    vals = [w for w, _ in eig_general(m)]
    pairs = sorted((w.real, w.imag) for w in vals if w.imag != 0.0)
    assert pairs and pairs == sorted((re, -im) for re, im in pairs)
    assert abs(sum(vals) - np.trace(m)) < 1e-10


def test_eig_complex_input_unchanged(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = np.linalg.eig(m)[0]
    assert [z for z, _ in eig_general(m)] == [complex(z) for z in w]


def test_eig_rejects_nonsquare():
    with pytest.raises(ValueError):
        eig_general(np.zeros((2, 3)))


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_tol=-1e-9)


@pytest.mark.parametrize(
    "kwargs", [{"abs_tol": np.inf}, {"rank_tol": np.inf}, {"abs_tol": np.nan}, {"rank_tol": -np.inf}]
)
def test_tolerance_must_be_finite(kwargs):
    with pytest.raises(ValueError, match="tolerances must be finite and strictly positive"):
        Tolerance(**kwargs)



@pytest.fixture
def openblas_at_two_threads():
    """numpy's OpenBLAS set to two threads for the test; the count is restored after."""
    if not _openblas_thread_controls():
        pytest.skip("numpy is not linked to an OpenBLAS this process can find")
    get, put = _openblas_thread_controls()[0]
    before = get()
    put(2)
    yield get
    put(before)


def test_blas_threads_at_most_limits_the_block_then_restores(openblas_at_two_threads):
    get = openblas_at_two_threads
    with blas_threads_at_most(1):
        assert get() == 1
    assert get() == 2
    with pytest.raises(ZeroDivisionError):
        with blas_threads_at_most(1):
            1 / 0
    assert get() == 2
    with blas_threads_at_most(4):
        assert get() == 2  # a limit never raises the count
