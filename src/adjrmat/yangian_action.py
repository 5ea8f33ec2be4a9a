"""Level-1 Yangian evaluation action on two adjoint sites, plus the auxiliary
operator identities used to pin down the intertwiner coefficients.

The action of a level-1 generator attached to a traceless x at spectral
parameters (mu, lam) is

    (mu ad(x) + T(x)) (x) 1 + 1 (x) (lam ad(x) + T(x)) + (1/2)[ad(x) (x) 1, Omega_op]

with the quartic part T(x) = (1/4) sum_ab tr(x {I^a, I^b}) S^a S^b, traces
taken in the fundamental n x n space and all products S^a S^b as adjoint
matrix products.

On vectors (:meth:`LevelOneAction.apply`) the site factors are m x m
matmuls and Omega_op acts through its weight-sector blocks in ``rep.frame``.
For a root vector x of weight beta the action is a set of sector blocks of
the two-site weight frame, from W to W + beta (:func:`level1_blocks`); the
intertwining and covariance checks of :mod:`rmatrix` read them, those of
e_1n built once per representation (:func:`top_level1_blocks`).  The dense
D x D forms (:func:`level1_action`, :func:`delta_action`) are test oracles,
run over every generator against those checks.  No command builds them.
"""

from __future__ import annotations

import numpy as np

from .adjoint_tensor import (
    TERMS,
    AdjointRep,
    HighestWeight,
    ad_matrix,
    apply_pair,
    casimir_op,
    generating_set,
    highest_weight_vectors,
    root_weight,
    site_left,
)
from .liealg import matrix_unit
from .numerics import DEFAULT_TOL, kron, max_abs

__all__ = [
    "LevelOneAction",
    "level1_blocks",
    "top_level1_blocks",
    "level1_action",
    "delta_action",
    "quartic_part",
    "verify_anticommutator_identity",
    "verify_hw_relations",
    "verify_singlet_double_action",
    "VERIFIED_RANGE",
]

# the identity checks below were established numerically for n up to 7;
# larger ranks run fine but are flagged as extrapolation by the CLI
VERIFIED_RANGE = (4, 7)


def quartic_part(rep: AdjointRep, x: np.ndarray) -> np.ndarray:
    """T(x) = (1/4) sum_ab tr(x {I^a, I^b}) S^a S^b as an adjoint matrix."""
    g = rep.basis.generators
    prod = np.einsum("ij,ajk,bki->ab", x, g, g, optimize=True)
    t2 = prod + prod.T
    return 0.25 * np.einsum("ab,aij,bjk->ik", t2, rep.S, rep.S, optimize=True)


class LevelOneAction:
    """Evaluation action of one level-1 generator on the two-site module."""

    def __init__(self, rep: AdjointRep, x: np.ndarray, mu: complex, lam: complex):
        if abs(np.trace(x)) > DEFAULT_TOL.abs_tol:
            raise ValueError("level-1 generators are attached to traceless matrices only")
        self.rep = rep
        self.mu = complex(mu)
        self.lam = complex(lam)
        self.ad_x = ad_matrix(rep.basis, x)
        self.quartic = quartic_part(rep, x)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply to flat two-site coordinates (vector or column block), Omega_op by :meth:`PairFrame.omega`."""
        omega = self.rep.frame.omega
        out = site_left(self.mu * self.ad_x + self.quartic, v, 0)
        out += site_left(self.lam * self.ad_x + self.quartic, v, 1)
        # mixing term (1/2) [ad(x) (x) 1, Omega_op]
        out += 0.5 * (site_left(self.ad_x, omega(v), 0) - omega(site_left(self.ad_x, v, 0)))
        return out


def level1_blocks(rep: AdjointRep, x: np.ndarray, beta: np.ndarray) -> tuple[dict, float]:
    """The sector blocks of J(x) in ``rep.weight_frame`` for an x of root weight ``beta``, and their floor.

    J(x) maps sector W to W + beta: the blocks are a dict W -> (W + beta, s),
    s the (3, d', d) stack of a (x) 1, 1 (x) a and K = T (x) 1 + 1 (x) T +
    (1/2)[a (x) 1, Omega_op], so that J(x) at (mu, lam) is mu s[0] + lam s[1]
    + s[2].  a = ad(x) and T = T(x) are taken in weight coordinates; their
    entries that do not shift weight by beta are left out, and the max-abs of
    those is the floor.  That is the Cartan half of covariance, [D(h), J(x)]
    = beta(h) J(x), and any check that reads the blocks must report it.
    """
    frame, chain = rep.frame, rep.weight_frame
    mask = chain.on_shift(beta)
    a, t = (chain.u @ y @ np.conj(chain.u).T for y in (ad_matrix(rep.basis, x), quartic_part(rep, x)))
    floor = max(max_abs(a[~mask]), max_abs(t[~mask]))
    a, t = np.where(mask, a, 0.0), np.where(mask, t, 0.0)
    left, right = ({k: b for k, _, b in chain.shift_blocks(a, beta, sites=(s,))} for s in (0, 1))
    omega = TERMS.index("omega")
    blocks = {}
    for k, tgt, t_w in chain.shift_blocks(t, beta):
        a1, a2 = (side.get(k, 0.0 * t_w) for side in (left, right))
        k_w = t_w + 0.5 * (a1 @ frame.sector_terms(k)[omega] - frame.sector_terms(tgt)[omega] @ a1)
        blocks[k] = (tgt, np.stack([a1, a2, k_w]))
    return blocks, float(floor)


def top_level1_blocks(rep: AdjointRep) -> tuple[dict, float]:
    """:func:`level1_blocks` of the highest root vector e_1n, built once per representation and kept in ``rep.memo``."""
    if "top_level1" not in rep.memo:
        top = generating_set(rep.n)[1]
        x = matrix_unit(rep.basis, *top, coords=False).matrix
        rep.memo["top_level1"] = level1_blocks(rep, x, root_weight(rep.n, top))
    return rep.memo["top_level1"]


def level1_action(rep: AdjointRep, x: np.ndarray, mu: complex, lam: complex) -> np.ndarray:
    """Dense two-site action of the level-1 generator attached to x."""
    j, eye = LevelOneAction(rep, x, mu, lam), np.eye(rep.dim)
    omega, left = casimir_op(rep), kron(j.ad_x, eye)
    sites = kron(j.mu * j.ad_x + j.quartic, eye) + kron(eye, j.lam * j.ad_x + j.quartic)
    return sites + 0.5 * (left @ omega - omega @ left)


def delta_action(rep: AdjointRep, x: np.ndarray) -> np.ndarray:
    """Dense level-0 action ad(x) (x) 1 + 1 (x) ad(x); independent of mu, lam."""
    m = rep.dim
    a = ad_matrix(rep.basis, x)
    eye = np.eye(m)
    return kron(a, eye) + kron(eye, a)


def _hw_map(rep: AdjointRep) -> dict[str, HighestWeight]:
    return {row.role: row for row in highest_weight_vectors(rep.basis)}


def verify_anticommutator_identity(rep: AdjointRep, target: str = "anti_left") -> float:
    """Residual of the quartic-part annihilation identity on a mixed-parity hwv.

    The sum tr(x {I^a, I^b}) (S^a S^b (x) 1 + 1 (x) S^a S^b) annihilates the
    highest-weight vector of the (2 0...0 1 0) module for x = e_{(n-1)n}, and
    of the (0 1 0...0 2) module for x = e_12.  Returns the relative residual
    (normalized by the norm of the acted-on vector).
    """
    n = rep.n
    if n < VERIFIED_RANGE[0]:
        raise ValueError(f"identity checks require n >= {VERIFIED_RANGE[0]}, got n={n}")
    defaults = {"anti_left": (n - 1, n), "anti_right": (1, 2)}
    if target not in defaults:
        raise ValueError(f"unknown target {target!r}; expected one of {sorted(defaults)}")
    i, j = defaults[target]
    x = matrix_unit(rep.basis, i, j, coords=False).matrix
    v = _hw_map(rep)[target].coords
    t_full = 4.0 * quartic_part(rep, x)  # identity carries no 1/4 prefactor
    image = apply_pair(t_full, v)
    return float(np.linalg.norm(image) / np.linalg.norm(v))


def _rhs_factors(n: int, mu: complex, lam: complex) -> dict[str, complex]:
    root = np.sqrt(n * n - 4.0)
    return {
        "single_sym": n * (n - 2.0),
        "single_anti": root * (n + 2.0 - 2.0 * mu + 2.0 * lam),
        "double_sym": n * ((lam - mu) ** 2 + 2.0 * lam - n * mu + n * n / 4.0),
        "double_anti": (root / 4.0)
        * (n * (n + 4.0) - (6.0 * n + 4.0) * mu + 4.0 * mu**2 + (2.0 * n - 4.0) * lam - 4.0 * lam**2),
    }


def verify_hw_relations(rep: AdjointRep, mu: complex, lam: complex) -> dict[str, float]:
    """Residuals of the four single/double level-1 actions on the adjoint hwvs.

    Each action maps the symmetric/antisymmetric adjoint highest-weight vector
    onto a stated multiple of the top highest-weight vector e_1n (x) e_1n;
    residuals are normalized by the norm of the acted-on vector.
    """
    n = rep.n
    if n < VERIFIED_RANGE[0]:
        raise ValueError(f"identity checks require n >= {VERIFIED_RANGE[0]}, got n={n}")
    hw = _hw_map(rep)
    v_top = hw["sym_top"].coords
    v_s = hw["adjoint_sym"].coords
    v_a = hw["adjoint_anti"].coords
    basis = rep.basis
    j_1n = LevelOneAction(rep, matrix_unit(basis, 1, n, coords=False).matrix, mu, lam)
    j_n1n = LevelOneAction(rep, matrix_unit(basis, n - 1, n, coords=False).matrix, mu, lam)
    j_1n1 = LevelOneAction(rep, matrix_unit(basis, 1, n - 1, coords=False).matrix, mu, lam)
    rhs = _rhs_factors(n, mu, lam)
    out = {}
    out["single_sym"] = np.linalg.norm(j_1n.apply(v_s) - rhs["single_sym"] * v_top)
    out["single_anti"] = np.linalg.norm(j_1n.apply(v_a) - rhs["single_anti"] * v_top)
    out["double_sym"] = np.linalg.norm(
        j_n1n.apply(j_1n1.apply(v_s)) - rhs["double_sym"] * v_top
    )
    out["double_anti"] = np.linalg.norm(
        j_n1n.apply(j_1n1.apply(v_a)) - rhs["double_anti"] * v_top
    )
    out["single_sym"] /= np.linalg.norm(v_s)
    out["single_anti"] /= np.linalg.norm(v_a)
    out["double_sym"] /= np.linalg.norm(v_s)
    out["double_anti"] /= np.linalg.norm(v_a)
    return {k: float(v) for k, v in out.items()}


def verify_singlet_double_action(rep: AdjointRep, mu: complex, lam: complex) -> float:
    """Residual of the double action of J(e_1n) on the singlet hwv.

    J(e_1n)^2 maps the singlet onto -2(mu-lam-1)(mu-lam-n) e_1n (x) e_1n;
    the residual is normalized by the norm of the singlet vector.
    """
    n = rep.n
    if n < VERIFIED_RANGE[0]:
        raise ValueError(f"identity checks require n >= {VERIFIED_RANGE[0]}, got n={n}")
    hw = _hw_map(rep)
    v0 = hw["singlet"].coords
    v_top = hw["sym_top"].coords
    j = LevelOneAction(rep, matrix_unit(rep.basis, 1, n, coords=False).matrix, mu, lam)
    factor = -2.0 * (mu - lam - 1.0) * (mu - lam - n)
    res = np.linalg.norm(j.apply(j.apply(v0)) - factor * v_top)
    return float(res / np.linalg.norm(v0))
