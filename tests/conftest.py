import tempfile

import numpy as np
import pytest

from adjrmat.adjoint_tensor import adjoint_rep, build_decomposition
from adjrmat.liealg import build_basis

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
