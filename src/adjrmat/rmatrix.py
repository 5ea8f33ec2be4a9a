"""Intertwiner and R-matrix assembly, coefficient recovery, and the
Yang-Baxter / inversion / asymptotic verification machinery.

The intertwiner acts as a scalar on five of the tensor-square submodules and
as a 2 x 2 block on the two adjoint copies, written in the ordered basis
{v_s, v_a} of their highest-weight vectors and extended equivariantly through
the s->a isometry of the decomposition.  Closed forms:

    f1 = f2 = (1+lam)/(1-lam),   f3 = f1^2,
    f4 = (1+lam)(n+lam) / ((1-lam)(n-lam)),

    M(lam) = [[2n + (n^2+2) lam - 2 lam^3,   n sqrt(n^2-4) lam        ],
              [-n sqrt(n^2-4) lam,           2n - (n^2+2) lam + 2 lam^3]]
             / (2 (n-lam)(1-lam)^2),

and the R-form block N(lam) = M(lam) diag(1, -1).  Poles sit at lam = 1 and
lam = n only; evaluation is refused inside a guard disk around them.

Every projector has a closed form in sigma, the two-site Casimir Omega_op
and the columns of d and f (:func:`operator_form`), so I(lam), R(lam),
sigma I(lam) and h = R'(0) sigma are each a few scalars on Pi+-, Omega_op
Pi+, a rank-2m part and the singlet (:class:`PairOperator`), built from
``rep.frame`` alone, so the builders and the checks that only apply them take
an :class:`AdjointRep`.  The probes, ``r-at-zero-is-swap`` and the asymptotic
check apply that form without forming a D x D matrix; :func:`build_R` and the
other ``build_*`` functions return its :meth:`PairOperator.dense`.  Only the
oracles read submodules and take a :class:`Decomposition`: the projector-sum
assembly :func:`_assemble`, which :func:`r_assembly_residual` compares with
the operator form of R(lam) (the ``r-assembly-agreement`` check of
``verify ybe``), and :func:`derive_coefficients`.

The dense Yang-Baxter residual works in the weight basis of
:func:`liealg.weight_basis`.  R(lam) is su(n)-invariant, so it conserves
Cartan weight and both sides of the YBE are block-diagonal in the total
weight of the three sites; they are formed one block at a time, with the
weight violation of the rotated R-matrices kept as a floor on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adjoint_tensor import AdjointRep, Decomposition, PairFrame, apply_swap
from .liealg import matrix_unit, off_block_mask, pair_weights, weight_basis, weight_blocks
from .numerics import max_abs
from .yangian_action import LevelOneAction

__all__ = [
    "POLE_GUARD",
    "SAMPLE_RADIUS",
    "MAX_RESAMPLES",
    "DEFAULT_SEED",
    "DENSE_YBE_MAX_DIM",
    "CoefficientSet",
    "check_pole_distance",
    "PairOperator",
    "operator_form",
    "intertwiner_op",
    "r_op",
    "r_tilde_op",
    "build_intertwiner",
    "build_R",
    "build_R_tilde",
    "r_assembly_residual",
    "r_at_zero_residual",
    "ybe_residual",
    "asymptotic_check",
    "derive_coefficients",
    "sample_spectral_parameters",
    "sample_ybe_pairs",
]

POLE_GUARD = 0.1
# spectral parameters are sampled from the disk |lam| <= SAMPLE_RADIUS
SAMPLE_RADIUS = 3.0
# ill-conditioned samples derive_coefficients may replace before it gives up
MAX_RESAMPLES = 20
DEFAULT_SEED = 7
# largest three-site dimension (n^2-1)^3 for which the dense YBE residual runs
DENSE_YBE_MAX_DIM = 3375


@dataclass(frozen=True)
class CoefficientSet:
    """Closed-form scalar coefficients and 2x2 blocks of I(lam) and R(lam)."""

    n: int

    @property
    def poles(self) -> tuple[float, float]:
        return (1.0, float(self.n))

    def f1(self, lam: complex) -> complex:
        return (1.0 + lam) / (1.0 - lam)

    def f2(self, lam: complex) -> complex:
        return self.f1(lam)

    def f3(self, lam: complex) -> complex:
        return self.f1(lam) ** 2

    def f4(self, lam: complex) -> complex:
        n = self.n
        return (1.0 + lam) * (n + lam) / ((1.0 - lam) * (n - lam))

    def M(self, lam: complex) -> np.ndarray:
        n = self.n
        root = np.sqrt(n * n - 4.0)
        num = np.array(
            [
                [2.0 * n + (n * n + 2.0) * lam - 2.0 * lam**3, n * root * lam],
                [-n * root * lam, 2.0 * n - (n * n + 2.0) * lam + 2.0 * lam**3],
            ],
            dtype=complex,
        )
        return num / (2.0 * (n - lam) * (1.0 - lam) ** 2)

    def N(self, lam: complex) -> np.ndarray:
        return self.M(lam) @ np.diag([1.0, -1.0])

    # exact lam-derivatives at 0, used by the spin-chain construction
    def f1_deriv0(self) -> float:
        return 2.0

    def f3_deriv0(self) -> float:
        return 4.0

    def f4_deriv0(self) -> float:
        return 2.0 + 2.0 / self.n

    def N_deriv0(self) -> np.ndarray:
        n = self.n
        root = np.sqrt(n * n - 4.0)
        return np.array(
            [
                [(n + 2.0) ** 2 / (2.0 * n), -root / 2.0],
                [-root / 2.0, (n - 4.0) / 2.0],
            ],
            dtype=complex,
        )


def check_pole_distance(lam: complex, n: int):
    for pole in (1.0, float(n)):
        if abs(lam - pole) < POLE_GUARD:
            raise ValueError(
                f"spectral parameter {lam} lies within {POLE_GUARD} of the pole at {pole}"
            )


# ---------------------------------------------------------------------------
# the operator form
# ---------------------------------------------------------------------------

# identity columns per chunk when a whole operator is checked through its apply
_CHUNK = 256
_FLIP = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class PairOperator:
    """X = plus Pi+ + minus Pi- + omega Omega_op Pi+ + E (block (x) 1_m) E^dagger + singlet s s^dagger.

    Pi+- = (1 +- sigma)/2, E = [Ed Ef] from the frame, and s = vec(1)/sqrt(m).
    :meth:`apply` forms no D x D matrix (D = m^2): sigma is a transpose,
    Omega_op and E come from :meth:`PairFrame.factors` (sparse from rank 6
    on), and s^dagger is a trace.  :meth:`dense` materializes X.
    """

    frame: PairFrame
    plus: complex
    minus: complex
    omega: complex
    block: np.ndarray  # 2 x 2, acting on the column pairs (Ed_a, Ef_a)
    singlet: complex

    def swap_right(self) -> "PairOperator":
        """X sigma: sigma fixes Pi+, Omega_op Pi+, Ed and s, and negates Pi- and Ef."""
        return replace(self, minus=-self.minus, block=self.block @ _FLIP)

    def swap_left(self) -> "PairOperator":
        """sigma X."""
        return replace(self, minus=-self.minus, block=_FLIP @ self.block)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """X on two-site coordinates shaped (D,), (D, batch) or (m, m, batch)."""
        m = self.frame.m
        v = np.asarray(x, dtype=complex).reshape(m, m, -1)
        k = v.shape[2]
        omega, e, e_h = self.frame.factors()
        sym = 0.5 * (v + v.transpose(1, 0, 2))
        out = (self.plus - self.minus) * sym + self.minus * v
        out += self.omega * (omega @ sym.reshape(m * m, k)).reshape(m, m, k)
        coef = (e_h @ v.reshape(m * m, k)).reshape(2, m * k)
        out += (e @ (self.block @ coef).reshape(2 * m, k)).reshape(m, m, k)
        diag = np.arange(m)
        out[diag, diag] += (self.singlet / m) * np.trace(v)
        return out.reshape(np.shape(x))

    def dense(self) -> np.ndarray:
        """X as a dense D x D matrix."""
        m = self.frame.m
        D = m * m
        idx = np.arange(D)
        swap = _swap_perm(m)
        out = np.zeros((D, D), dtype=complex)
        out[idx, idx] = 0.5 * (self.plus + self.minus)
        out[idx, swap] += 0.5 * (self.plus - self.minus)
        rows, cols, vals = self.frame.omega_entries
        half = 0.5 * self.omega * vals
        flat = out.reshape(-1)
        np.add.at(flat, rows * D + cols, half)
        np.add.at(flat, rows * D + swap[cols], half)
        e = self.frame.E
        e_block = np.einsum("dia,ij->dja", e.reshape(D, 2, m), self.block).reshape(D, 2 * m)
        out += e_block @ np.conj(e).T
        ones = idx[:m] * (m + 1)
        out[np.ix_(ones, ones)] += self.singlet / m
        return out


def operator_form(frame: PairFrame, diag: dict[str, complex], block: np.ndarray) -> PairOperator:
    """The :class:`PairOperator` of sum_role diag[role] P_role + ``block`` on the adjoint pair.

    ``diag`` and ``block`` are what the projector-sum assembly :func:`_assemble`
    takes: scalars on the submodule projectors (a missing role counts as 0)
    and the 2 x 2 block in the {v_s, v_a} basis.  The projectors in closed form,

        P_top = [(Omega_op + 2) Pi+ - (2 - n) Ed Ed^dagger - (2 - 2n) s s^dagger] / 4,
        P_mixed = Pi+ - Ed Ed^dagger - s s^dagger - P_top,
        P_anti_left + P_anti_right = Pi- - Ef Ef^dagger,

    with P_adjoint_sym = Ed Ed^dagger, P_adjoint_anti = Ef Ef^dagger and
    P_singlet = s s^dagger, turn the sum into a few scalars.  The two
    antisymmetric modules share one term, so their coefficients must agree;
    for n = 3 there is no mixed module and P_top alone fills the rest of Pi+.
    """
    n = frame.n
    anti = diag.get("anti_left", 0.0)
    if diag.get("anti_right", 0.0) != anti:
        raise AssertionError("the operator form needs equal anti_left and anti_right coefficients")
    top = diag.get("sym_top", 0.0)
    mixed = diag.get("mixed_sym", 0.0) if n > 3 else top
    t = (top - mixed) / 4.0
    return PairOperator(
        frame=frame,
        plus=mixed + 2.0 * t,
        minus=anti,
        omega=t,
        block=np.asarray(block, dtype=complex) - np.diag([mixed + t * (2.0 - n), anti]),
        singlet=diag.get("singlet", 0.0) - mixed - t * (2.0 - 2.0 * n),
    )


def _intertwiner_coefficients(c: CoefficientSet, lam: complex):
    """Projector scalars and the M(lam) block of I(lam)."""
    diag = {
        "sym_top": 1.0,
        "anti_left": c.f1(lam),
        "anti_right": c.f2(lam),
        "mixed_sym": c.f3(lam),
        "singlet": c.f4(lam),
    }
    return diag, c.M(lam)


def _r_coefficients(c: CoefficientSet, lam: complex):
    """R(lam) = I(lam) sigma: the antisymmetric scalars flip sign and M becomes N."""
    diag, _ = _intertwiner_coefficients(c, lam)
    diag["anti_left"], diag["anti_right"] = -diag["anti_left"], -diag["anti_right"]
    return diag, c.N(lam)


def intertwiner_op(rep: AdjointRep, lam: complex) -> PairOperator:
    """I(lam) in operator form."""
    lam = complex(lam)
    check_pole_distance(lam, rep.n)
    coeffs = _intertwiner_coefficients(CoefficientSet(rep.n), lam)
    return operator_form(rep.frame, *coeffs)


def r_op(rep: AdjointRep, lam: complex) -> PairOperator:
    """R(lam) = I(lam) sigma in operator form, from the N(lam) block."""
    lam = complex(lam)
    check_pole_distance(lam, rep.n)
    coeffs = _r_coefficients(CoefficientSet(rep.n), lam)
    return operator_form(rep.frame, *coeffs)


def r_tilde_op(rep: AdjointRep, lam: complex) -> PairOperator:
    """The second solution sigma I(lam) in operator form."""
    return intertwiner_op(rep, lam).swap_left()


def build_intertwiner(rep: AdjointRep, lam: complex) -> np.ndarray:
    """Dense intertwiner I(lam) on the two-site coordinates."""
    return intertwiner_op(rep, lam).dense()


def build_R(rep: AdjointRep, lam: complex) -> np.ndarray:
    """Dense R(lam) = I(lam) sigma, from its operator form.

    Its agreement with the projector-sum I(lam) composed with sigma is
    :func:`r_assembly_residual`.
    """
    return r_op(rep, lam).dense()


def build_R_tilde(rep: AdjointRep, lam: complex) -> np.ndarray:
    """The second solution sigma I(lam), dense."""
    return r_tilde_op(rep, lam).dense()


def _block_operator(dec: Decomposition, block: np.ndarray) -> np.ndarray:
    """Operator acting as ``block`` on the adjoint pair in the {v_s, v_a} basis."""
    p_s = dec.by_role("adjoint_sym").projector
    p_a = dec.by_role("adjoint_anti").projector
    iso = dec.iso_s_to_a
    iso_h = np.conj(iso).T
    return block[0, 0] * p_s + block[0, 1] * iso_h + block[1, 0] * iso + block[1, 1] * p_a


def _assemble(dec: Decomposition, diag: dict[str, complex], block: np.ndarray) -> np.ndarray:
    """The projector-sum assembly from the decomposition, kept as the oracle of the operator form."""
    out = _block_operator(dec, block)
    for sub in dec.submodules:
        if sub.role in diag:
            out += diag[sub.role] * sub.projector
    return out


def r_assembly_residual(dec: Decomposition, lam: complex) -> float:
    """Max-abs disagreement of the operator form of R(lam) with I(lam) sigma, over max(1, max-abs R).

    I(lam) is the projector sum of the decomposition with the M(lam) block,
    so this checks the operator form, its N(lam) block and the closed-form
    projectors at once; the two agree to within ``abs_tol * (n^2 - 1)``.
    """
    lam = complex(lam)
    m = dec.n * dec.n - 1
    direct = r_op(dec.rep, lam).dense()
    composed = _permute_cols_swap(
        _assemble(dec, *_intertwiner_coefficients(CoefficientSet(dec.n), lam)), m
    )
    return max_abs(direct - composed) / max(1.0, max_abs(direct))


def _identity_columns(D: int):
    """The D x D identity, :data:`_CHUNK` columns at a time."""
    for start in range(0, D, _CHUNK):
        cols = np.arange(start, min(D, start + _CHUNK))
        block = np.zeros((D, len(cols)), dtype=complex)
        block[cols, np.arange(len(cols))] = 1.0
        yield block


def r_at_zero_residual(rep: AdjointRep) -> float:
    """Max-abs of R(0) - sigma, with R(0) applied to the identity in column chunks."""
    m = rep.dim
    op = r_op(rep, 0.0)
    return max(max_abs(op.apply(e) - apply_swap(e, m)) for e in _identity_columns(m * m))


def _swap_perm(m: int) -> np.ndarray:
    idx = np.arange(m * m)
    i, j = divmod(idx, m)
    return j * m + i


def _permute_cols_swap(a: np.ndarray, m: int) -> np.ndarray:
    """a @ sigma without materializing sigma."""
    return a[:, _swap_perm(m)]


# ---------------------------------------------------------------------------
# Yang-Baxter residuals
# ---------------------------------------------------------------------------


def ybe_residual(
    dec: Decomposition,
    lam: complex,
    mu: complex,
    mode: str = "dense",
    probes: int = 10,
    solution: str = "R",
    rng: np.random.Generator | None = None,
) -> float:
    """Relative residual of the Yang-Baxter equation at (lam, mu).

    Dense mode (allowed for (n^2-1)^3 <= DENSE_YBE_MAX_DIM, i.e. n <= 4)
    forms both sides R12(lam) R13(lam+mu) R23(mu) and R23(mu) R13(lam+mu)
    R12(lam) exactly, one total-weight block of the three-site space at a
    time, and returns sqrt(sum_W ||L_W - R_W||^2 / sum_W ||L_W||^2), the
    Frobenius ratio over the whole space.  The blocks are exact because
    R(lam) is su(n)-invariant and so conserves Cartan weight; the weight
    violation max_k ||offblock(R_k)|| / ||R_k|| of the three rotated
    R-matrices is a floor on the result, so a non-invariant R cannot hide
    its error outside the blocks.  Dense mode reads the module-level
    :func:`build_R` / :func:`build_R_tilde`.  Matrix-free mode applies both
    sides to random unit probe vectors, one two-site operator form
    (:class:`PairOperator`) at a time, and returns the maximum relative
    residual over the probes; it forms no D x D matrix and costs O(nnz(f) m)
    per factor and probe.  The dense mode is its oracle at n <= 4, and the
    retired dense-R einsums are kept in the tests as ``_ybe_probe_oracle``.

    Only ``dec.rep`` is read.  ``dec`` stays the parameter because the
    benchmark tracer (``perfbench/tracing.py``) reads ``dec.n`` by that name.
    """
    rep = dec.rep
    for z in (lam, mu, lam + mu):
        check_pole_distance(z, rep.n)
    build = {"R": build_R, "Rtilde": build_R_tilde}[solution]
    m = rep.dim
    if mode == "dense":
        if m**3 > DENSE_YBE_MAX_DIM:
            raise ValueError(f"dense mode needs (n^2-1)^3 <= {DENSE_YBE_MAX_DIM}, got {m**3}")
        return _ybe_dense_blocks(rep, [build(rep, z) for z in (lam, lam + mu, mu)])
    if mode != "matrix_free":
        raise ValueError(f"unknown mode {mode!r}")
    ops = {"R": r_op, "Rtilde": r_tilde_op}[solution]
    r_lam, r_sum, r_mu = (ops(rep, z) for z in (lam, lam + mu, mu))
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for _ in range(probes):
        v = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        v /= np.linalg.norm(v)
        lhs = _on_sites(r_lam, (0, 1), _on_sites(r_sum, (0, 2), _on_sites(r_mu, (1, 2), v)))
        rhs = _on_sites(r_mu, (1, 2), _on_sites(r_sum, (0, 2), _on_sites(r_lam, (0, 1), v)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)))
    return worst


def _on_sites(op: PairOperator, pair: tuple[int, int], v: np.ndarray) -> np.ndarray:
    """Apply the two-site operator ``op`` to the sites ``pair`` of an (m, m, m) array."""
    axes = (*pair, 3 - sum(pair))  # the spectator site goes last, as the batch axis
    return op.apply(v.transpose(axes)).transpose(np.argsort(axes))


def _ybe_dense_blocks(rep: AdjointRep, rs: list[np.ndarray]) -> float:
    """Dense YBE residual of (R12, R13, R23) = ``rs``, block by block in total weight."""
    m = rep.dim
    u, weights = weight_basis(rep.basis)
    w2 = np.kron(u, u)
    pair_w = pair_weights(weights)
    off = off_block_mask(pair_w)
    r12, r13, r23 = (w2 @ r @ np.conj(w2).T for r in rs)
    floor = max(np.linalg.norm(r[off]) / np.linalg.norm(r) for r in (r12, r13, r23))
    r12, r13, r23 = (r.reshape(m, m, m, m) for r in (r12, r13, r23))
    triple_w = (pair_w.reshape(m, m, 1, -1) + weights[None, None, :, :]).reshape(m**3, -1)
    diff2 = norm2 = 0.0
    for idx in weight_blocks(triple_w):
        a, b, c = np.unravel_index(idx, (m, m, m))
        a_r, b_r, c_r = a[:, None], b[:, None], c[:, None]
        a_c, b_c, c_c = a[None, :], b[None, :], c[None, :]
        x12 = r12[a_r, b_r, a_c, b_c] * (c_r == c_c)
        x13 = r13[a_r, c_r, a_c, c_c] * (b_r == b_c)
        x23 = r23[b_r, c_r, b_c, c_c] * (a_r == a_c)
        lhs = x12 @ (x13 @ x23)
        rhs = x23 @ (x13 @ x12)
        diff2 += np.linalg.norm(lhs - rhs) ** 2
        norm2 += np.linalg.norm(lhs) ** 2
    return float(max(np.sqrt(diff2 / norm2), floor))


def asymptotic_check(rep: AdjointRep, lam_list) -> dict:
    """Check the large-lam expansion R = (1 + 2/lam) 1 - (1/lam) Omega_op + O(lam^-2).

    Each remainder is the Frobenius norm of R(lam) - (1 + 2/lam) 1 +
    Omega_op/lam, with the operator form of R and the sparse Omega_op applied
    to the identity in column chunks; no D x D matrix is formed.  Remainders
    must fall off quadratically: between consecutive entries whose moduli
    differ by a factor of ten, the remainder ratio has to sit within a
    factor 1.5 of 100.
    """
    lams = [complex(z) for z in lam_list]
    if any(abs(z) < 10.0 for z in lams):
        raise ValueError("asymptotic check requires |lam| >= 10")
    m = rep.dim
    remainders = []
    for z in lams:
        op = r_op(rep, z)
        square = sum(
            np.linalg.norm(op.apply(e) - (1.0 + 2.0 / z) * e + rep.frame.omega(e) / z) ** 2
            for e in _identity_columns(m * m)
        )
        remainders.append(float(np.sqrt(square)))
    ratios = []
    ratio_ok = True
    for (z1, rem1), (z2, rem2) in zip(zip(lams, remainders), zip(lams[1:], remainders[1:])):
        scale = abs(z2) / abs(z1)
        expected = scale * scale
        ratio = rem1 / rem2 if rem2 > 0 else np.inf
        ratios.append(ratio)
        if not (expected / 1.5 <= ratio <= expected * 1.5):
            ratio_ok = False
    return {
        "lambdas": lams,
        "remainders": remainders,
        "ratios": ratios,
        "pass": ratio_ok,
    }


def intertwining_residual(
    rep: AdjointRep,
    xs: np.ndarray,
    lam: complex,
    probes: int = 5,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Worst relative residuals of the level-0 and level-1 intertwining relations.

    Checks I(lam) D(x) = D(x) I(lam) and I(lam) J(x)_{0,lam} = J(x)_{lam,0} I(lam)
    for every generator x in the stack ``xs`` (shape (k, n, n)), building
    I(lam) once, and returns the largest (level-0, level-1) pair.  Dense
    evaluation up to n = 5; larger ranks apply the operator form of I(lam)
    to random unit probe vectors (same contract, sampled), ``probes`` fresh
    ones per generator.
    """
    from .adjoint_tensor import ad_matrix, apply_pair
    from .yangian_action import LevelOneAction, delta_action, level1_action

    m = rep.dim
    dense = m <= 24  # n <= 5: dense operators stay small
    if dense:
        eye_i = build_intertwiner(rep, lam)
    else:
        op = intertwiner_op(rep, lam)
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    res0 = res1 = 0.0
    for x in xs:
        if dense:
            d_op = delta_action(rep, x)
            r0 = max_abs(eye_i @ d_op - d_op @ eye_i) / max(1.0, max_abs(d_op))
            j0 = level1_action(rep, x, 0.0, lam)
            j1 = level1_action(rep, x, lam, 0.0)
            r1 = max_abs(eye_i @ j0 - j1 @ eye_i) / max(1.0, max_abs(j0))
            res0, res1 = max(res0, float(r0)), max(res1, float(r1))
        else:
            a = ad_matrix(rep.basis, x)
            j0 = LevelOneAction(rep, x, 0.0, lam)
            j1 = LevelOneAction(rep, x, lam, 0.0)
            for _ in range(probes):
                v = rng.standard_normal(m * m) + 1j * rng.standard_normal(m * m)
                v /= np.linalg.norm(v)
                iv = op.apply(v)
                lhs0 = op.apply(apply_pair(a, v))
                rhs0 = apply_pair(a, iv)
                err0 = np.linalg.norm(lhs0 - rhs0) / max(1.0, np.linalg.norm(lhs0))
                res0 = max(res0, float(err0))
                lhs1 = op.apply(j0.apply(v))
                rhs1 = j1.apply(iv)
                err1 = np.linalg.norm(lhs1 - rhs1) / max(1.0, np.linalg.norm(lhs1))
                res1 = max(res1, float(err1))
    return res0, res1


# ---------------------------------------------------------------------------
# independent numerical recovery of the coefficient functions
# ---------------------------------------------------------------------------


def sample_spectral_parameters(
    rng: np.random.Generator, n: int, count: int, symmetric: bool = False
) -> list[complex]:
    """Draw spectral parameters uniformly from the disk |lam| <= SAMPLE_RADIUS,
    rejecting the POLE_GUARD disks around the poles {1, n} (and their
    negatives when ``symmetric`` evaluation at -lam is also required)."""
    out: list[complex] = []
    while len(out) < count:
        r = SAMPLE_RADIUS * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        z = complex(r * np.cos(theta), r * np.sin(theta))
        points = [z, -z] if symmetric else [z]
        if all(
            abs(p - pole) >= POLE_GUARD for p in points for pole in (1.0, float(n))
        ):
            out.append(z)
    return out


def sample_ybe_pairs(rng: np.random.Generator, n: int, count: int) -> list[tuple[complex, complex]]:
    """(lam, mu) pairs with lam, mu and lam+mu all clear of the pole guards."""
    pairs: list[tuple[complex, complex]] = []
    while len(pairs) < count:
        lam = sample_spectral_parameters(rng, n, 1)[0]
        mu = sample_spectral_parameters(rng, n, 1)[0]
        if all(abs(lam + mu - pole) >= POLE_GUARD for pole in (1.0, float(n))):
            pairs.append((lam, mu))
    return pairs


def _hw_coefficient(v_ref: np.ndarray, u: np.ndarray) -> complex:
    return complex(np.vdot(v_ref, u) / np.vdot(v_ref, v_ref))


def derive_coefficients(
    dec: Decomposition,
    lam_samples,
    rng: np.random.Generator | None = None,
) -> dict:
    """Re-derive f1, f3, f4 and M(lam) numerically and compare to closed forms.

    The recovery imposes the intertwining relation on the highest-weight
    vectors, evaluating all level-1 actions explicitly and solving the small
    linear systems; it never consults the closed forms, which makes it the
    anti-regression oracle for the assembled operator.  Samples whose 2x2
    system turns out ill-conditioned are replaced by fresh draws, at most
    :data:`MAX_RESAMPLES` times.
    """
    from .adjoint_tensor import highest_weight_vectors

    n = dec.n
    coeffs = CoefficientSet(n)
    rep = dec.rep
    basis = rep.basis
    rows = {r.role: r for r in highest_weight_vectors(basis)}
    v_top = rows["sym_top"].coords
    e_1n = matrix_unit(basis, 1, n, coords=False).matrix
    e_n1n = matrix_unit(basis, n - 1, n, coords=False).matrix
    e_12 = matrix_unit(basis, 1, 2, coords=False).matrix
    e_1n1 = matrix_unit(basis, 1, n - 1, coords=False).matrix
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)

    def act(x, mu, lamv, vec):
        return LevelOneAction(rep, x, mu, lamv).apply(vec)

    results = []
    queue = [complex(z) for z in lam_samples]
    attempts = 0
    while queue:
        lam = queue.pop(0)
        check_pole_distance(lam, n)
        entry = {"lambda": lam}
        # f1 from the left antisymmetric module, y = J(e_{n-1,n})
        v = rows["anti_left"].coords
        u0 = act(e_n1n, 0.0, lam, v)
        u1 = act(e_n1n, lam, 0.0, v)
        f1_num = _hw_coefficient(v_top, u0) / _hw_coefficient(v_top, u1)
        # f2 from the right antisymmetric module, y = J(e_12)
        v = rows["anti_right"].coords
        u0 = act(e_12, 0.0, lam, v)
        u1 = act(e_12, lam, 0.0, v)
        f2_num = _hw_coefficient(v_top, u0) / _hw_coefficient(v_top, u1)
        # f3 related to f1/f2 through the mixed symmetric module, y = J(e_12)
        f3_num = None
        if "mixed_sym" in rows:
            v = rows["mixed_sym"].coords
            u0 = act(e_12, 0.0, lam, v)
            u1 = act(e_12, lam, 0.0, v)
            for role, known in (("anti_left", f1_num), ("anti_right", f2_num)):
                proj = dec.by_role(role).basis
                z0 = proj @ (np.conj(proj).T @ u0)
                z1 = proj @ (np.conj(proj).T @ u1)
                if np.linalg.norm(z1) > 1e-6 * np.linalg.norm(u1):
                    f3_num = known * complex(np.vdot(z1, z0) / np.vdot(z1, z1))
                    break
            if f3_num is None:
                raise RuntimeError("mixed-module projection vanished; cannot recover f3")
        # f4 from the singlet double action of J(e_1n)
        v = rows["singlet"].coords
        u0 = act(e_1n, 0.0, lam, act(e_1n, 0.0, lam, v))
        u1 = act(e_1n, lam, 0.0, act(e_1n, lam, 0.0, v))
        f4_num = _hw_coefficient(v_top, u0) / _hw_coefficient(v_top, u1)
        # M from the single and double actions on the adjoint pair
        v_s = rows["adjoint_sym"].coords
        v_a = rows["adjoint_anti"].coords
        alpha_s = _hw_coefficient(v_top, act(e_1n, 0.0, lam, v_s))
        alpha_a = _hw_coefficient(v_top, act(e_1n, 0.0, lam, v_a))
        beta_s = _hw_coefficient(v_top, act(e_1n, lam, 0.0, v_s))
        beta_a = _hw_coefficient(v_top, act(e_1n, lam, 0.0, v_a))
        alpha2_s = _hw_coefficient(v_top, act(e_n1n, 0.0, lam, act(e_1n1, 0.0, lam, v_s)))
        alpha2_a = _hw_coefficient(v_top, act(e_n1n, 0.0, lam, act(e_1n1, 0.0, lam, v_a)))
        beta2_s = _hw_coefficient(v_top, act(e_n1n, lam, 0.0, act(e_1n1, lam, 0.0, v_s)))
        beta2_a = _hw_coefficient(v_top, act(e_n1n, lam, 0.0, act(e_1n1, lam, 0.0, v_a)))
        system = np.array([[beta_s, beta_a], [beta2_s, beta2_a]], dtype=complex)
        if np.linalg.cond(system) > 1e8:
            attempts += 1
            if attempts > MAX_RESAMPLES:
                raise RuntimeError("could not find well-conditioned samples for M recovery")
            queue.append(sample_spectral_parameters(rng, n, 1)[0])
            continue
        m_left = np.linalg.solve(system, np.array([alpha_s, alpha2_s], dtype=complex))
        m_right = np.linalg.solve(system, np.array([alpha_a, alpha2_a], dtype=complex))
        m_num = np.array([[m_left[0], m_right[0]], [m_left[1], m_right[1]]], dtype=complex)
        entry.update(
            f1=f1_num,
            f2=f2_num,
            f3=f3_num,
            f4=f4_num,
            M=m_num,
            f1_error=abs(f1_num - coeffs.f1(lam)),
            f2_error=abs(f2_num - coeffs.f1(lam)),
            f3_error=abs(f3_num - coeffs.f3(lam)) if f3_num is not None else None,
            f4_error=abs(f4_num - coeffs.f4(lam)),
            M_error=max_abs(m_num - coeffs.M(lam)),
        )
        results.append(entry)
    errors = [
        e
        for entry in results
        for e in (
            entry["f1_error"],
            entry["f2_error"],
            entry["f3_error"] if entry["f3_error"] is not None else 0.0,
            entry["f4_error"],
            entry["M_error"],
        )
    ]
    return {"samples": results, "max_error": float(max(errors)) if errors else 0.0}
