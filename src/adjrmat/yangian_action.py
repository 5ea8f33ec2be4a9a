"""Level-1 Yangian evaluation action on two adjoint sites, plus the auxiliary
operator identities used to pin down the intertwiner coefficients.

The action of a level-1 generator attached to a traceless x at spectral
parameters (mu, lam) is

    (mu ad(x) + T(x)) (x) 1 + 1 (x) (lam ad(x) + T(x)) + (1/2)[ad(x) (x) 1, Omega_op]

with the quartic part T(x) = (1/4) sum_ab tr(x {I^a, I^b}) S^a S^b, traces
taken in the fundamental n x n space and all products S^a S^b as adjoint
matrix products.  ad(x) and T(x) are built in the weight coordinates of
:func:`liealg.weight_basis`, from the matrix units (:func:`quartic_part`).

For a root vector x of weight beta the action is a set of sector blocks of
the two-site weight frame, from W to W + beta (:func:`level1_blocks`), its
only form on any command's path: every x a check applies is a matrix unit,
whose blocks are built once per representation (:func:`unit_level1_blocks`)
and act one block at a time (:func:`apply_level1`) on the highest-weight
rows, split once by sector (:func:`weight_rows`).  The dense D x D forms
in Gell-Mann coordinates (:func:`level1_action`, :func:`delta_action`) are
test oracles, run over every generator against those checks.  No command
builds them.
"""

from __future__ import annotations

import numpy as np

from .adjoint_tensor import (
    TERMS,
    AdjointRep,
    _sector_columns,
    ad_matrix,
    casimir_op,
    highest_weight_vectors,
    root_weight,
    weight_ad,
)
from .liealg import matrix_unit
from .numerics import DEFAULT_TOL, kron, max_abs

__all__ = [
    "level1_blocks",
    "unit_level1_blocks",
    "weight_rows",
    "apply_level1",
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
    """T(x) = (1/4) sum_ab tr(x {I^a, I^b}) S^a S^b as an m x m matrix in weight coordinates.

    sum_a (I^a)_qr ad(I^a) = ad(e_rq) (sum_a I^a (x) I^a = P - 1/n), so T(x)
    = (1/4) sum_{q,r} {ad e_rq, ad(x e_qr)} (:func:`weight_ad`) over the
    nonzero columns q of x: 2n products of m x m matrices for a matrix unit.
    """
    basis, n, m = rep.basis, rep.n, rep.dim
    units = np.eye(n * n).reshape(n, n, n, n)  # units[p, q] = e_pq
    t = np.zeros((m, m), dtype=np.result_type(x, float))
    for q in np.flatnonzero(np.any(x != 0, axis=0)):
        a, b = weight_ad(basis, units[:, q]), weight_ad(basis, x @ units[q])  # over r: ad e_rq, ad(x e_qr)
        a_rows, b_rows = (y.transpose(1, 0, 2).reshape(m, -1) for y in (a, b))
        t += a_rows @ b.reshape(-1, m) + b_rows @ a.reshape(-1, m)  # sum_r a_r b_r + b_r a_r
    return 0.25 * t


def level1_blocks(rep: AdjointRep, x: np.ndarray, beta: np.ndarray) -> tuple[dict, float]:
    """The sector blocks of J(x) in ``rep.weight_frame`` for an x of root weight ``beta``, and their floor.

    J(x) maps sector W to W + beta: the blocks are a dict W -> (W + beta, s),
    s the (3, d', d) stack of a (x) 1, 1 (x) a and K = T (x) 1 + 1 (x) T +
    (1/2)[a (x) 1, Omega_op], so that J(x) at (mu, lam) is mu s[0] + lam s[1]
    + s[2].  a = ad(x) and T = T(x) are taken in weight coordinates; their
    entries that do not shift weight by beta are left out, and the max-abs of
    those is the floor.  That is the Cartan half of covariance, [D(h), J(x)]
    = beta(h) J(x), and any check that reads the blocks must report it.  A
    sector with no block is killed by J(x).  An x with a trace raises
    ``ValueError``.
    """
    if abs(np.trace(x)) > DEFAULT_TOL.abs_tol:
        raise ValueError("level-1 generators are attached to traceless matrices only")
    frame, chain = rep.frame, rep.weight_frame
    mask = chain.on_shift(beta)
    a, t = weight_ad(rep.basis, x), quartic_part(rep, x)
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


def unit_level1_blocks(rep: AdjointRep, ij: tuple[int, int]) -> tuple[dict, float]:
    """:func:`level1_blocks` of the matrix unit e_ij, built the first time a check asks and kept in ``rep.memo``."""
    key = ("level1", ij)
    if key not in rep.memo:
        x = matrix_unit(rep.basis, *ij, coords=False).matrix
        rep.memo[key] = level1_blocks(rep, x, root_weight(rep.n, ij))
    return rep.memo[key]


def weight_rows(rep: AdjointRep) -> tuple[dict[str, tuple[int, np.ndarray]], float]:
    """The unnormalised rows of :func:`highest_weight_vectors`, split by sector of ``rep.weight_frame``, and their floor.

    role -> (sector, coordinates in it) (:func:`adjoint_tensor._sector_columns`);
    the floor is the largest share of a row's norm outside its sector.  Built
    once per representation and kept in ``rep.memo``.
    """
    if "weight_rows" not in rep.memo:
        out, floor = {}, 0.0
        for row in highest_weight_vectors(rep.basis):
            [(w, x)], off = _sector_columns(rep.weight_frame, row.coords[:, None])
            out[row.role] = (w, x[:, 0])
            floor = max(floor, off)
        rep.memo["weight_rows"] = out, floor
    return rep.memo["weight_rows"]


def apply_level1(blocks: dict, mu: complex, lam: complex, v: tuple) -> tuple:
    """J(x) at (mu, lam) from its ``blocks`` (:func:`level1_blocks`) on v = (sector, coordinates); zero is (None, 0.0)."""
    w, x = v
    if w not in blocks:
        return None, 0.0
    t, s = blocks[w]
    return t, (mu * s[0] + lam * s[1] + s[2]) @ x


def _distance(v: tuple, c: complex, top: tuple) -> float:
    """||v - c top|| for weight vectors (sector, coordinates): vectors of two sectors are orthogonal."""
    if v[0] == top[0]:
        return float(np.linalg.norm(v[1] - c * top[1]))
    return float(np.hypot(np.linalg.norm(v[1]), abs(c) * np.linalg.norm(top[1])))


def level1_action(rep: AdjointRep, x: np.ndarray, mu: complex, lam: complex) -> np.ndarray:
    """Dense two-site action of the level-1 generator attached to x; an x with a trace raises ``ValueError``."""
    if abs(np.trace(x)) > DEFAULT_TOL.abs_tol:
        raise ValueError("level-1 generators are attached to traceless matrices only")
    u = rep.weight_frame.u
    a, t, eye = ad_matrix(rep.basis, x), np.conj(u).T @ quartic_part(rep, x) @ u, np.eye(rep.dim)
    omega, left = casimir_op(rep), kron(a, eye)
    sites = kron(mu * a + t, eye) + kron(eye, lam * a + t)
    return sites + 0.5 * (left @ omega - omega @ left)


def delta_action(rep: AdjointRep, x: np.ndarray) -> np.ndarray:
    """Dense level-0 action ad(x) (x) 1 + 1 (x) ad(x); independent of mu, lam."""
    m = rep.dim
    a = ad_matrix(rep.basis, x)
    eye = np.eye(m)
    return kron(a, eye) + kron(eye, a)


def verify_anticommutator_identity(rep: AdjointRep, target: str = "anti_left") -> float:
    """Residual of the quartic-part annihilation identity on a mixed-parity hwv.

    The sum tr(x {I^a, I^b}) (S^a S^b (x) 1 + 1 (x) S^a S^b) = 4 (T(x) (x) 1
    + 1 (x) T(x)) annihilates the highest-weight vector of the
    (2 0...0 1 0) module for x = e_{(n-1)n}, and of the (0 1 0...0 2) module
    for x = e_12.  Returns the relative residual, the row of
    :func:`weight_rows` under the one shift block of the sum that leaves
    its sector; the entries of T(x) off the weight shift of x, and the
    rows' floor, are floors.
    """
    n = rep.n
    if n < VERIFIED_RANGE[0]:
        raise ValueError(f"identity checks require n >= {VERIFIED_RANGE[0]}, got n={n}")
    defaults = {"anti_left": (n - 1, n), "anti_right": (1, 2)}
    if target not in defaults:
        raise ValueError(f"unknown target {target!r}; expected one of {sorted(defaults)}")
    ij = defaults[target]
    rows, row_floor = weight_rows(rep)
    w, v = rows[target]
    chain, beta = rep.weight_frame, root_weight(n, ij)
    t = 4.0 * quartic_part(rep, matrix_unit(rep.basis, *ij, coords=False).matrix.real)  # no 1/4 prefactor
    mask = chain.on_shift(beta)
    image = [b @ v for _, _, b in chain.restricted(np.array([w])).shift_blocks(np.where(mask, t, 0.0), beta)]
    res = np.linalg.norm(image) / np.linalg.norm(v) if image else 0.0
    return float(max(res, max_abs(t[~mask]), row_floor))


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
    residuals are normalized by the norm of the acted-on vector.  They are
    read on the sector blocks (:func:`unit_level1_blocks`, :func:`weight_rows`),
    each at least the floors of the blocks it applies and of the rows.
    """
    n = rep.n
    if n < VERIFIED_RANGE[0]:
        raise ValueError(f"identity checks require n >= {VERIFIED_RANGE[0]}, got n={n}")
    rows, row_floor = weight_rows(rep)
    (j_1n, f_1n), (j_n1n, f_n1n), (j_1n1, f_1n1) = (
        unit_level1_blocks(rep, ij) for ij in ((1, n), (n - 1, n), (1, n - 1)))
    rhs, out = _rhs_factors(n, mu, lam), {}
    for key in ("single_sym", "single_anti", "double_sym", "double_anti"):
        v = rows["adjoint_" + key.split("_")[1]]
        if key.startswith("single"):
            image, floor = apply_level1(j_1n, mu, lam, v), f_1n
        else:
            image, floor = apply_level1(j_n1n, mu, lam, apply_level1(j_1n1, mu, lam, v)), max(f_1n1, f_n1n)
        out[key] = float(max(_distance(image, rhs[key], rows["sym_top"]) / np.linalg.norm(v[1]), floor, row_floor))
    return out


def verify_singlet_double_action(rep: AdjointRep, mu: complex, lam: complex) -> float:
    """Residual of the double action of J(e_1n) on the singlet hwv.

    J(e_1n)^2 maps the singlet onto -2(mu-lam-1)(mu-lam-n) e_1n (x) e_1n;
    the residual is normalized by the norm of the singlet vector, and is at
    least the floors of the blocks of J(e_1n) and of the rows.
    """
    n = rep.n
    if n < VERIFIED_RANGE[0]:
        raise ValueError(f"identity checks require n >= {VERIFIED_RANGE[0]}, got n={n}")
    rows, row_floor = weight_rows(rep)
    v0 = rows["singlet"]
    j, floor = unit_level1_blocks(rep, (1, n))
    factor = -2.0 * (mu - lam - 1.0) * (mu - lam - n)
    res = _distance(apply_level1(j, mu, lam, apply_level1(j, mu, lam, v0)), factor, rows["sym_top"])
    return float(max(res / np.linalg.norm(v0[1]), floor, row_floor))
