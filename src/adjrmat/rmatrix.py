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
an :class:`AdjointRep`.  Each is a coefficient vector over the nine real
term blocks of the frame (:data:`adjoint_tensor.TERMS`,
:attr:`PairOperator.coefficients`) and acts through its weight-sector
blocks, their combination, on one path at every n: the chain's transfer
matrices and every check of h (:func:`spinchain.h_op`) read them, and
``r-at-zero-is-swap``, the inversion, the asymptotic check and the Yangian
checks compare them exactly over every column.  The Yang-Baxter residuals
read the coefficients alone.  Every vector an operator is applied to is in
two-site weight coordinates.  :meth:`PairOperator.dense`, in Gell-Mann
coordinates, is formed only by :func:`build_R`, the other ``build_*``
functions and :func:`spinchain.local_h`, for the artifacts.  Only one
check here reads a :class:`Decomposition`: :func:`r_assembly_residual` (the ``r-assembly-agreement`` check of ``verify
ybe``) compares the operator form of R(lam) with the table of I(lam)
composed with sigma on the normalised highest-weight vectors of
adj (x) adj, which fix an invariant operator (Schur's lemma), so it closes
no lowering orbit and forms no D x D projector; the projector-sum assembly
on random columns survives in the tests as its oracle.
:func:`derive_coefficients` recovers the coefficients from the level-1
action on the highest-weight vectors (:func:`yangian_action.weight_rows`)
and takes an :class:`AdjointRep`.  :func:`intertwining_residual` checks
that I(lam) intertwines the Yangian action on a generating set: level 0 on
the Chevalley generators and level 1 on the highest root vector e_1n alone,
which is enough because the level-1 action is covariant
(:func:`level1_covariance_residual`); all three read the shifted sector
blocks of J(x) (:func:`yangian_action.level1_blocks`), those of D(y) and of
the matrix units built once per representation (``rep.chevalley_deltas``
and :func:`yangian_action.unit_level1_blocks`).

The Yang-Baxter residual (:func:`ybe_residual`) is exact over the whole
three-site space on one path at every n: by Schur's lemma each factor acts
on the multiplicity space of each module of adj (x) adj (x) adj, read on the
highest-weight vectors of a dominant sector of the three-site weight frame
(``rep.ybe_frame``).  The nine terms are compressed onto each such sector
once, for the three site pairs, so a factor there is its coefficients
times the compressed terms.  That is exact for an invariant R, and
:func:`r_terms_invariance_residual` checks, in real arithmetic, that the
terms R is made of are invariant.  The term blocks and those of D(y) are
built real.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .adjoint_tensor import (
    AdjointRep,
    Decomposition,
    PairFrame,
    apply_swap,
    generating_set,
    root_weight,
)
from .liealg import matrix_unit
from .numerics import max_abs
from .yangian_action import apply_level1, level1_blocks, unit_level1_blocks, weight_rows

__all__ = [
    "POLE_GUARD",
    "SAMPLE_RADIUS",
    "MAX_RESAMPLES",
    "DEFAULT_SEED",
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
    "inversion_residual",
    "intertwining_residual",
    "level1_covariance_residual",
    "r_terms_invariance_residual",
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


@dataclass(frozen=True)
class CoefficientSet:
    """Closed-form scalar coefficients and 2x2 blocks of I(lam) and R(lam)."""

    n: int

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

_FLIP = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class PairOperator:
    """X = plus Pi+ + minus Pi- + omega Omega_op Pi+ + E (block (x) 1_m) E^dagger + singlet s s^dagger.

    Pi+- = (1 +- sigma)/2, E = [Ed Ef] from the frame, and s = vec(1)/sqrt(m).
    X acts through its blocks in the two-site weight frame (:attr:`blocks`),
    on weight coordinates (:meth:`apply`).  :meth:`weight_dense` scatters
    the blocks into a D x D array in weight coordinates; :meth:`dense`
    materializes X in Gell-Mann coordinates, for the artifacts.
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

    @cached_property
    def coefficients(self) -> np.ndarray:
        """X = sum_t coefficients[t] T_t over the :data:`adjoint_tensor.TERMS` T_t of the frame."""
        b = self.block
        return np.array([0.5 * (self.plus + self.minus), 0.5 * (self.plus - self.minus),
                         0.5 * self.omega, 0.5 * self.omega,
                         b[0, 0], b[0, 1], b[1, 0], b[1, 1], self.singlet], dtype=complex)

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        """The sector blocks of X, one (S, d, d) stack per sector size of the frame, built on first use."""
        return self.frame.combine(self.coefficients)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """X on two-site weight coordinates shaped (D,), (D, batch) or (m, m, batch) (:meth:`PairFrame.apply_weight`)."""
        frame = self.frame
        return frame.apply_weight(self.blocks, np.reshape(x, (frame.m**2, -1))).reshape(np.shape(x))

    def weight_dense(self) -> np.ndarray:
        """X as a dense D x D matrix in two-site weight coordinates, scattered from :attr:`blocks`."""
        out = np.zeros((self.frame.m**2,) * 2, dtype=complex)
        for idx, b in zip(self.frame.sectors, self.blocks):
            out[idx[:, :, None], idx[:, None, :]] = b
        return out

    def dense(self) -> np.ndarray:
        """X as a dense D x D matrix in Gell-Mann coordinates, scattered from the nonzeros of f."""
        m = self.frame.m
        D = m * m
        idx = np.arange(D)
        swap = apply_swap(idx, m)
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

    ``diag`` and ``block`` are the projector table that
    :meth:`Decomposition.table` reads: scalars on the submodule
    projectors (a missing role counts as 0) and the 2 x 2 block in the
    {v_s, v_a} basis.
    The projectors in closed form,

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
    """Dense intertwiner I(lam) on the two-site Gell-Mann coordinates."""
    return intertwiner_op(rep, lam).dense()


def build_R(rep: AdjointRep, lam: complex) -> np.ndarray:
    """Dense R(lam) = I(lam) sigma in Gell-Mann coordinates, from its operator form.

    Its agreement with the projector-sum I(lam) composed with sigma is
    :func:`r_assembly_residual`.
    """
    return r_op(rep, lam).dense()


def build_R_tilde(rep: AdjointRep, lam: complex) -> np.ndarray:
    """The second solution sigma I(lam), dense."""
    return r_tilde_op(rep, lam).dense()


def r_assembly_residual(dec: Decomposition, lam: complex) -> float:
    """Max-abs disagreement of the operator form of R(lam) with I(lam) sigma, over max(1, max-abs R V).

    Both are applied to the normalised highest-weight vectors V of ``dec``
    (``dec.vectors``, no orbit closed): R(lam) V in operator form against
    I(lam) sigma V = V T P from the table of :func:`_intertwiner_coefficients`,
    where P holds the exchange parities and T is
    :meth:`Decomposition.table` (c_M(lam) on each scalar module and
    M(lam) on the adjoint pair).  This checks the operator form, its N(lam)
    block and the closed-form projectors at once; the two agree to within
    ``abs_tol * (n^2 - 1)``.  An invariant operator is fixed by what it does
    to V (Schur's lemma), so agreement on V is agreement everywhere once
    the blocks that R(lam) is applied through commute with su(n): the
    residual is at least their relative commutator with the Chevalley
    generators (:func:`_invariance_gap`).  The terms the blocks are
    combined from are checked once per suite (``r-terms-invariance``).
    """
    lam = complex(lam)
    op = r_op(dec.rep, lam)
    direct = op.apply(dec.vectors)
    parity = np.array([sub.exchange_parity for sub in dec.submodules])
    composed = dec.vectors @ dec.table(*_intertwiner_coefficients(CoefficientSet(dec.n), lam)) * parity
    return max(max_abs(direct - composed) / max(1.0, max_abs(direct)), _invariance_gap(dec.rep, op.blocks))


def r_at_zero_residual(rep: AdjointRep) -> float:
    """Max-abs of R(0) - sigma over every entry of their sector blocks in the two-site weight frame."""
    blocks = r_op(rep, 0.0).blocks
    return max(max_abs(r - s) for r, s in zip(blocks, rep.frame.term("swap")))


# ---------------------------------------------------------------------------
# Yang-Baxter residuals
# ---------------------------------------------------------------------------


def ybe_residual(
    dec: Decomposition,
    lam: complex,
    mu: complex,
    mode: str | None = None,
    probes: int = 0,
    solution: str = "R",
) -> float:
    """Frobenius ratio ||L - R|| / ||L|| of the YBE at (lam, mu), exact over the whole three-site space.

    L = R12(lam) R13(lam+mu) R23(mu) and R = R23(mu) R13(lam+mu) R12(lam),
    for :func:`r_op` or :func:`r_tilde_op`.  Each factor commutes with su(n),
    so on adj^(x)3 = sum_V V (x) C^k it acts as 1 (x) A_V (Schur's lemma):
    the YBE holds if and only if it holds on each multiplicity space, and
    ||L - R||^2 = sum_V dim V ||L_V - R_V||^2, ||L||^2 likewise.  Each
    A_V = P_V^T R_ij P_V on the highest-weight vectors P_V of
    ``rep.ybe_frame`` (at most 9 for n <= 8) is read from the coefficients of
    R_ij alone: R = sum_t c_t T_t over the nine real terms of ``rep.frame``,
    so A_V = sum_t c_t P_V^T T_t P_V, and the sector holds those
    compressed terms for each site pair (``TripleSector.terms``), compressed
    once per representation.  No block of R is formed.  That the terms are
    invariant is the ``r-terms-invariance`` check, and that R's
    coefficients make the R of the paper's projector table is
    ``r-assembly-agreement``, on the highest-weight vectors of adj (x) adj.

    Only ``dec.rep`` is read.  ``dec``, ``mode`` and ``probes`` stay because
    the benchmark tracer (``perfbench/tracing.py``) reads them by name, and
    it is their only reader: no caller passes ``mode`` or ``probes``.
    """
    rep = dec.rep
    for z in (lam, mu, lam + mu):
        check_pole_distance(z, rep.n)
    ops = {"R": r_op, "Rtilde": r_tilde_op}[solution]
    c = np.stack([ops(rep, z).coefficients for z in (lam, lam + mu, mu)])  # on the sites (1, 2), (1, 3), (2, 3)
    diff2 = norm2 = 0.0
    for sector in rep.ybe_frame:
        a12, a13, a23 = np.einsum("pt,ptij->pij", c, sector.terms)
        lhs = a12 @ a13 @ a23
        diff2 += sector.dim * np.linalg.norm(lhs - a23 @ a13 @ a12) ** 2
        norm2 += sector.dim * np.linalg.norm(lhs) ** 2
    return float(np.sqrt(diff2 / norm2))


def asymptotic_check(rep: AdjointRep, lam_list) -> dict:
    """Check the large-lam expansion R = (1 + 2/lam) 1 - (1/lam) Omega_op + O(lam^-2).

    Each remainder is the Frobenius norm of R(lam) - (1 + 2/lam) 1 +
    Omega_op/lam, summed exactly over the sector blocks of the two-site
    weight frame (the norm is unitarily invariant).  Remainders must fall
    off quadratically: between consecutive entries whose moduli differ by a
    factor of ten, the remainder ratio has to sit within a factor 1.5 of 100.
    """
    lams = [complex(z) for z in lam_list]
    if any(abs(z) < 10.0 for z in lams):
        raise ValueError("asymptotic check requires |lam| >= 10")
    eye, omega = rep.frame.term("eye"), rep.frame.term("omega")
    remainders = []
    for z in lams:
        rests = (r - (1.0 + 2.0 / z) * e + o / z for r, e, o in zip(r_op(rep, z).blocks, eye, omega))
        remainders.append(float(np.sqrt(sum(np.linalg.norm(x) ** 2 for x in rests))))
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


def inversion_residual(rep: AdjointRep, lam: complex) -> float:
    """Max-abs of I(lam) I(-lam) - 1 over every entry of its sector blocks in the two-site weight frame.

    The product is one batched matmul per sector size, exact over every column.
    """
    plus, minus = intertwiner_op(rep, lam).blocks, intertwiner_op(rep, -lam).blocks
    return max(max_abs(a @ b - np.eye(a.shape[1])) for a, b in zip(plus, minus))


# spectral parameters (mu, lam) of J(x) in level1_covariance_residual: both site terms enter
_COVARIANCE_AT = (1.0, -1.0)


def _unit(rep: AdjointRep, ij: tuple[int, int]) -> np.ndarray:
    return matrix_unit(rep.basis, *ij, coords=False).matrix


def r_terms_invariance_residual(rep: AdjointRep) -> float:
    """Max-abs of [D(y), T] over the Chevalley y and the nine terms T of ``rep.frame``, over the terms' max-abs.

    Every R(lam), sigma I(lam) and I(lam) is a combination of the terms
    (:data:`adjoint_tensor.TERMS`), so this covers every factor of the YBE
    at once, with no lam.  D(y) maps sector W of ``rep.weight_frame`` to
    W + alpha (``rep.chevalley_deltas``), so each commutator is D_W T_W -
    T_{W+alpha} D_W, exact over every column, in real arithmetic.  The y
    generate su(n), so the terms are invariant, as the YBE residual on
    highest-weight vectors (:func:`ybe_residual`) needs, when this is
    roundoff.  The blocks of both are built real, with no rotation.
    """
    return _invariance_gap(rep, rep.frame.terms)


def _chevalley_groups(rep: AdjointRep) -> list[tuple[int, np.ndarray, int, np.ndarray, np.ndarray]]:
    """The blocks of every D(y) of ``rep.chevalley_deltas``, grouped by the sizes of their source and target sectors.

    Each group is (g, r, h, q, B): B[p] maps the sector at (g, r[p]) of
    ``rep.frame.sectors`` to the one at (h, q[p]).  Built once per
    representation and kept in ``rep.memo``.
    """
    if "chevalley_groups" not in rep.memo:
        places, groups = rep.frame.places, {}
        for d, _ in rep.chevalley_deltas.values():
            for k, (t, b) in d.items():
                sources, targets, blocks = groups.setdefault((places[k][0], places[t][0]), ([], [], []))
                sources.append(places[k][1])
                targets.append(places[t][1])
                blocks.append(b)
        rep.memo["chevalley_groups"] = [(g, np.array(r), h, np.array(q), np.stack(b))
                                        for (g, h), (r, q, b) in groups.items()]
    return rep.memo["chevalley_groups"]


def _invariance_gap(rep: AdjointRep, stacks: list[np.ndarray]) -> float:
    """Max-abs of D(y) X - X D(y) over the Chevalley y, over max(1, max-abs X), for X with the sector blocks ``stacks``.

    ``stacks`` holds one stack per size of ``rep.frame.sectors``, the
    sectors on axis -3; leading axes hold several operators at once.  One
    batched product per group of :func:`_chevalley_groups`: the commutator
    is exact over every column.  The blocks of D(y) are real, so every
    product is real: a complex X (R(lam), h, the spin operators) is applied
    as its real and imaginary parts, and the commutator's modulus taken
    from the two.
    """
    cplx = np.iscomplexobj(stacks[0])
    parts = [np.stack([t.real, t.imag]) for t in stacks] if cplx else stacks
    worst = 0.0
    for g, r, h, q, b in _chevalley_groups(rep):
        comm = b @ np.take(parts[g], r, axis=-3) - np.take(parts[h], q, axis=-3) @ b
        worst = max(worst, max_abs(np.hypot(comm[0], comm[1]) if cplx else comm))
    return worst / max(1.0, max(max_abs(t) for t in stacks))


def level1_covariance_residual(rep: AdjointRep) -> float:
    """Worst relative residual of [D(y), J(x0)] = J([y, x0]) over the Chevalley y, on the sector blocks.

    x0 = e_1n, D(y) = ad y (x) 1 + 1 (x) ad y, and J is the level-1 action at
    :data:`_COVARIANCE_AT`.  Each term maps sector W of ``rep.weight_frame``
    to W + alpha + theta (alpha, theta the weights of y, x0).  Per y: max-abs
    of D(y) J(x0) - J(x0) D(y) - J([y, x0]) over max(1, max-abs J([y, x0])),
    at least the floors of both J (:func:`level1_blocks`; those of J(x0) and
    of the D(y) are built once per representation, :func:`unit_level1_blocks`
    and ``rep.chevalley_deltas``).
    """
    chevalley, top = generating_set(rep.n)
    x0, theta = _unit(rep, top), root_weight(rep.n, top)
    mu, lam = _COVARIANCE_AT

    def action(blocks, floor):  # the blocks of J(x) at _COVARIANCE_AT, and their floor
        return {k: (t, mu * s[0] + lam * s[1] + s[2]) for k, (t, s) in blocks.items()}, floor

    j, worst = action(*unit_level1_blocks(rep, top))
    for ij in chevalley:
        y = _unit(rep, ij)
        comm = y @ x0 - x0 @ y  # zero but for y = e_21 and e_{n,n-1}, and J(0) = 0
        rhs, floor = {}, 0.0
        if comm.any():
            rhs, floor = action(*level1_blocks(rep, comm, root_weight(rep.n, ij) + theta))
        gap = {k: -b for k, (_, b) in rhs.items()}
        d, _ = rep.chevalley_deltas[ij]
        for sign, second, first in ((1.0, d, j), (-1.0, j, d)):  # D(y) J(x0), then J(x0) D(y)
            for k, (t, b) in first.items():
                if t in second:
                    gap[k] = gap.get(k, 0.0) + sign * (second[t][1] @ b)
        peak = max((np.abs(g).max() for g in gap.values()), default=0.0)
        scale = max((np.abs(b).max() for _, b in rhs.values()), default=0.0)
        worst = max(worst, floor, float(peak / max(1.0, scale)))
    return worst


def intertwining_residual(rep: AdjointRep, lams) -> list[tuple[float, float]]:
    """Worst relative residuals of the level-0 and level-1 intertwining relations, per lam.

    Checks I(lam) D(y) = D(y) I(lam) for the Chevalley generators y
    (:func:`generating_set`) and I(lam) J_0 = J_1 I(lam) for J(x0) at (0, lam)
    and at (lam, 0), x0 = e_1n.  Per lam it returns the largest over the y of
    max_abs(I D - D I) / max(1, max_abs(D)), and max_abs(I J_0 - J_1 I) /
    max(1, max_abs(J_0)), at least the floor of J(x0) (:func:`level1_blocks`).
    The y generate su(n) and D is a Lie homomorphism, so level 0 holds for all
    x.  J is covariant (:func:`level1_covariance_residual`), so I J_0([y, x])
    = [D(y), I J_0(x)] = J_1([y, x]) I, and the commutators reach every x from x0.
    Every max-abs is read in ``rep.weight_frame``, where I(lam) is block-diagonal
    and D(y), J(x0) map sector W to W + (the weight of y or x0): each residual
    is exact, a sector at a time.
    """
    lams = np.asarray(lams, dtype=complex)
    if not lams.size:
        return []
    # the block of I(lam) on sector W, stacked over the lams
    stacks = [np.stack(per, axis=1) for per in zip(*(intertwiner_op(rep, z).blocks for z in lams))]
    i_w = [stacks[g][r] for g, r in rep.frame.places]
    res0 = []
    for d, scale in rep.chevalley_deltas.values():
        gaps = [np.abs(i_w[t] @ b - b @ i_w[k]).max(axis=(1, 2)) for k, (t, b) in d.items()]
        res0.append(np.max(gaps, axis=0) / scale)
    res0 = np.max(res0, axis=0)
    blocks, floor = unit_level1_blocks(rep, generating_set(rep.n)[1])
    lam = lams[:, None, None]
    res1, scale1 = np.zeros(len(lams)), np.ones(len(lams))
    for k, (t, (a, b, kk)) in blocks.items():  # J(x0) at (mu, lam) is mu a + lam b + kk
        gap = i_w[t] @ kk - kk @ i_w[k] + lam * (i_w[t] @ b - a @ i_w[k])
        res1 = np.maximum(res1, np.abs(gap).max(axis=(1, 2)))
        scale1 = np.maximum(scale1, np.abs(lam * b + kk).max(axis=(1, 2)))
    return [(float(r0), max(float(r1), floor)) for r0, r1 in zip(res0, res1 / scale1)]


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


def derive_coefficients(
    rep: AdjointRep,
    lam_samples,
    rng: np.random.Generator | None = None,
) -> dict:
    """Re-derive f1..f4 and M(lam) from the level-1 action and compare them to the closed forms.

    I(lam) fixes the top vector and carries J(y) at spectral parameters
    (0, lam) into J(y) at (lam, 0).  So along a path [y_1, ..., y_k] of
    generators from a highest-weight vector v to the top vector,
    <top, J_{0,lam}(y_k) ... J_{0,lam}(y_1) v> = <top, J_{lam,0}(y_k) ...
    J_{lam,0}(y_1) I(lam) v>, and a scalar of I(lam) is the ratio of the two
    top coefficients <top, J(y_k) ... J(y_1) v> / <top, top>: f1 along
    [e_{n-1,n}] from anti_left, f2 along [e_12] from anti_right, f3 along
    [e_12, e_{n-1,n}] from mixed_sym (n >= 4) and f4 along [e_1n, e_1n] from
    the singlet.  M is the 2x2 solve of the paths [e_1n] and [e_{1,n-1},
    e_{n-1,n}] on v_s and v_a.  Each J(y) acts through its sector blocks
    (:func:`yangian_action.unit_level1_blocks`) on the rows in the weight
    frame (:func:`yangian_action.weight_rows`).  Only the adjoint
    representation is read, never the closed forms, which makes this the
    anti-regression oracle for the assembled operator.  Samples whose 2x2
    system turns out ill-conditioned are replaced by fresh draws, at most
    :data:`MAX_RESAMPLES` times.
    """
    n = rep.n
    rows, _ = weight_rows(rep)
    e_12, e_1n1, e_n1n, e_1n = (1, 2), (1, n - 1), (n - 1, n), (1, n)
    paths = {"f1": ("anti_left", [e_n1n]), "f2": ("anti_right", [e_12]),
             "f3": ("mixed_sym", [e_12, e_n1n]), "f4": ("singlet", [e_1n, e_1n])}
    if "mixed_sym" not in rows:  # n = 3
        del paths["f3"]
    top_w, top_x = rows["sym_top"]

    def top(side, path, role):  # the top coefficient of J at side = (mu, lam) along path from role
        v = rows[role]
        for ij in path:
            v = apply_level1(unit_level1_blocks(rep, ij)[0], *side, v)
        w, x = v
        return complex(np.vdot(top_x, x) / np.vdot(top_x, top_x)) if w == top_w else 0j

    def adjoint_rows(side):
        return np.array([[top(side, path, role) for role in ("adjoint_sym", "adjoint_anti")]
                         for path in ([e_1n], [e_1n1, e_n1n])])

    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    results = []
    queue = [complex(z) for z in lam_samples]
    attempts = 0
    while queue:
        lam = queue.pop(0)
        check_pole_distance(lam, n)
        j0, j1 = (0.0, lam), (lam, 0.0)  # J at (0, lam) and at (lam, 0)
        system = adjoint_rows(j1)
        if np.linalg.cond(system) > 1e8:
            attempts += 1
            if attempts > MAX_RESAMPLES:
                raise RuntimeError("could not find well-conditioned samples for M recovery")
            queue.append(sample_spectral_parameters(rng, n, 1)[0])
            continue
        entry = {"lambda": lam, "M": np.linalg.solve(system, adjoint_rows(j0))}
        entry.update((key, top(j0, path, role) / top(j1, path, role)) for key, (role, path) in paths.items())
        diag, block = _intertwiner_coefficients(CoefficientSet(n), lam)
        errors = [abs(entry[key] - diag[role]) for key, (role, _) in paths.items()]
        entry["error"] = max(errors + [max_abs(entry["M"] - block)])
        results.append(entry)
    return {"samples": results, "max_error": float(max((e["error"] for e in results), default=0.0))}
