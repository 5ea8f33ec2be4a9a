import tempfile
import tracemalloc

import numpy as np
import pytest

from adjrmat.adjoint_tensor import ad_matrix, adjoint_rep, build_decomposition
from adjrmat.liealg import build_basis, matrix_unit
from adjrmat.numerics import DEFAULT_TOL

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
    the isometry of ``dec``.  The package applies this sum to columns
    instead (``rmatrix._assemble_apply``); this is its oracle.
    """
    iso = dec.iso_s_to_a
    out = block[0, 0] * dec.by_role("adjoint_sym").projector + block[0, 1] * iso.conj().T
    out += block[1, 0] * iso + block[1, 1] * dec.by_role("adjoint_anti").projector
    for sub in dec.submodules:
        if sub.role in diag:
            out += diag[sub.role] * sub.projector
    return out


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
        S = self.rep(n).S
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
