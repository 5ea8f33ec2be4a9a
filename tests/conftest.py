import tempfile
import tracemalloc

import numpy as np
import pytest

from adjrmat.adjoint_tensor import (
    ad_matrix,
    adjoint_rep,
    apply_swap,
    build_decomposition,
    root_action,
    site_left,
    site_right,
)
from adjrmat.liealg import build_basis, matrix_unit, weight_chain
from adjrmat.numerics import DEFAULT_TOL, max_abs
from adjrmat.rmatrix import build_intertwiner, intertwiner_op, r_op, r_tilde_op
from adjrmat.yangian_action import quartic_part

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


# -- the retired Gell-Mann apply of PairOperator, and the identity sweeps built on it

# the apply took Omega_op and E dense below this rank and as scipy CSR from it on
_SPARSE_FROM_RANK = 6
# identity columns per chunk of a sweep
_CHUNK = 256


def _pair_factors(frame):
    """(Omega_op, E, E^dagger) of a PairFrame, dense below rank 6 and CSR from it on."""
    e_h = np.ascontiguousarray(np.conj(frame.E).T)
    if frame.n < _SPARSE_FROM_RANK:
        return frame.dense_omega(), frame.E, e_h
    from scipy import sparse

    D = frame.m * frame.m
    rows, cols, vals = frame.omega_entries
    omega = sparse.csr_array((vals, (rows, cols)), shape=(D, D))
    return omega, sparse.csr_array(frame.E), sparse.csr_array(e_h)


def retired_apply(op, x):
    """PairOperator.apply as it was: sigma a transpose, Omega_op and E from _pair_factors, s^dagger a trace."""
    m = op.frame.m
    v = np.asarray(x, dtype=complex).reshape(m, m, -1)
    k = v.shape[2]
    omega, e, e_h = _pair_factors(op.frame)
    sym = 0.5 * (v + v.transpose(1, 0, 2))
    out = (op.plus - op.minus) * sym + op.minus * v
    out += op.omega * (omega @ sym.reshape(m * m, k)).reshape(m, m, k)
    coef = (e_h @ v.reshape(m * m, k)).reshape(2, m * k)
    out += (e @ (op.block @ coef).reshape(2 * m, k)).reshape(m, m, k)
    diag = np.arange(m)
    out[diag, diag] += (op.singlet / m) * np.trace(v)
    return out.reshape(np.shape(x))


def _identity_columns(D):
    """The D x D identity, _CHUNK columns at a time."""
    for start in range(0, D, _CHUNK):
        cols = np.arange(start, min(D, start + _CHUNK))
        block = np.zeros((D, len(cols)), dtype=complex)
        block[cols, np.arange(len(cols))] = 1.0
        yield block


def swept_r_at_zero(rep):
    """Max-abs of R(0) - sigma in Gell-Mann coordinates, R(0) applied to the identity in chunks."""
    m = rep.dim
    op = r_op(rep, 0.0)
    return max(max_abs(retired_apply(op, e) - apply_swap(e, m)) for e in _identity_columns(m * m))


def swept_inversion(rep, lam):
    """Max-abs of I(lam) I(-lam) e - e over the identity columns e."""
    plus, minus = intertwiner_op(rep, lam), intertwiner_op(rep, -lam)
    return max(max_abs(retired_apply(plus, retired_apply(minus, e)) - e)
               for e in _identity_columns(rep.dim**2))


def swept_asymptotic_remainders(rep, lams):
    """Frobenius norms of R(lam) - (1 + 2/lam) 1 + Omega_op/lam, applied to the identity in chunks."""
    omega = _pair_factors(rep.frame)[0]
    out = []
    for z in lams:
        op = r_op(rep, z)
        square = sum(np.linalg.norm(retired_apply(op, e) - (1.0 + 2.0 / z) * e + (omega @ e) / z) ** 2
                     for e in _identity_columns(rep.dim**2))
        out.append(float(np.sqrt(square)))
    return out


def all_generator_intertwining(rep, lams):
    """The intertwining residuals over every generator of ``rep.basis``, dense, using linearity in lam.

    The package checks the generating set of Y(su(n)) instead
    (``rmatrix.intertwining_residual``); this is the all-generator form it
    replaced, with the same normalizations: per lam, the largest over the
    generators x of max_abs([I, D(x)]) / max(1, max_abs(D(x))) and of
    max_abs(I J_0 - J_1 I) / max(1, max_abs(J_0)).  With a = ad(x), T = T(x)
    and K = T (x) 1 + 1 (x) T + (1/2)[a (x) 1, Omega_op], J_0 = lam (1 (x) a) + K
    and J_1 = lam (a (x) 1) + K; K is built once per generator and every
    product with a one-site factor is an m x m matmul.
    """
    i_lams = [build_intertwiner(rep, lam) for lam in lams]
    omega = rep.frame.dense_omega()
    eye = np.eye(rep.dim)
    res = np.zeros((len(lams), 2))
    for x in rep.basis.generators:
        a = ad_matrix(rep.basis, x)
        one_a = np.kron(eye, a)
        scale0 = max(1.0, max_abs(np.kron(a, eye) + one_a))
        k = site_left(a, omega, 0)
        k -= site_right(omega, a, 0)
        k *= 0.5
        t = quartic_part(rep, x)
        k += np.kron(t, eye) + np.kron(eye, t)
        for row, lam, i_lam in zip(res, lams, i_lams):
            # lin = I (1 (x) a) - (a (x) 1) I, and c = [I, a (x) 1 + 1 (x) a] from it
            lin = site_right(i_lam, a, 1)
            lin -= site_left(a, i_lam, 0)
            c = site_right(i_lam, a, 0)
            c -= site_left(a, i_lam, 1)
            c += lin
            row[0] = max(row[0], max_abs(c) / scale0)
            c = i_lam @ k
            c -= k @ i_lam
            c += lam * lin
            row[1] = max(row[1], max_abs(c) / max(1.0, max_abs(k + lam * one_a)))
    return [(float(r0), float(r1)) for r0, r1 in res]


def _all_sector_gathers(chain):
    """Gather indices of the dense Yang-Baxter blocks, one triple per sector of a 3-site ``chain``.

    Each triple reads R12, R13 and R23 restricted to the sector out of their
    (m, m, m, m) weight-coordinate arrays with one zero appended: an entry
    whose spectator site differs between row and column reads that zero.
    """
    m = chain.basis.dim

    def flat(p, q, spectator):
        idx = ((p[:, None] * m + q[:, None]) * m + p[None, :]) * m + q[None, :]
        return np.where(spectator[:, None] == spectator[None, :], idx, m**4)

    gathers = []
    for block in chain.blocks:
        a, b, c = np.unravel_index(block, (m, m, m))
        gathers.append((flat(a, b, c), flat(a, c, b), flat(b, c, a)))
    return gathers


def all_sector_ybe(dec, lam, mu, solution="R"):
    """The dense YBE residual summed over every sector of the three-site weight frame.

    The package sums the same Frobenius ratio over the highest-weight
    vectors of each module of the three sites (``rmatrix.ybe_residual``).
    """
    rep = dec.rep
    ops = {"R": r_op, "Rtilde": r_tilde_op}[solution]
    r12, r13, r23 = (np.append(ops(rep, z).weight_dense().ravel(), 0.0) for z in (lam, lam + mu, mu))
    diff2 = norm2 = 0.0
    for i12, i13, i23 in _all_sector_gathers(weight_chain(rep.basis, 3)):
        x12, x13, x23 = r12[i12], r13[i13], r23[i23]
        lhs = x12 @ (x13 @ x23)
        rhs = x23 @ (x13 @ x12)
        diff2 += np.linalg.norm(lhs - rhs) ** 2
        norm2 += np.linalg.norm(lhs) ** 2
    return float(np.sqrt(diff2 / norm2))


def casimir_sector_blocks(rep):
    """Omega_op on each sector W of ``rep.weight_frame`` as C_total/2 - 2n, reading no f.

    C_total = sum_{p != q} J(e_pq) J(e_qp) + |W|^2, with J(x) = x (x) 1 +
    1 (x) x: the root blocks come from ``WeightChain.shift_blocks`` and the
    Cartan generators act on W by the charges W . diag(H).
    """
    chain = rep.weight_frame
    roots = chain.weights[: rep.dim - (rep.n - 1)]
    shift = {tuple(a): {k: (t, b) for k, t, b in chain.shift_blocks(root_action(chain, a), a)}
             for a in roots}
    out = []
    for w, weight in enumerate(chain.sector_weights):
        total = float(weight @ weight) * np.eye(len(chain.blocks[w]), dtype=complex)
        for a in roots:
            if w in shift[tuple(-a)]:
                t, down = shift[tuple(-a)][w]
                total += shift[tuple(a)][t][1] @ down
        out.append(0.5 * total - 2.0 * rep.n * np.eye(len(total)))
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
