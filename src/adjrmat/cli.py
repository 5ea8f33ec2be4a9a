"""Command-line front end: build artifacts, run verification suites, emit spectra.

All output is JSON.  Reports are deterministic for a fixed (configuration,
seed) pair: the seed is recorded verbatim, floats carry 17 significant
digits, and no timing or host information enters the report.

Exit codes: 0 all checks passed, 1 verification failure (a failing check,
or an internal self-check that raised; one line on stderr), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__, jsonio
from .adjoint_tensor import adjoint_rep, build_decomposition, generating_set
from .liealg import build_basis
from .numerics import Tolerance, blas_threads_at_most, frobenius
from .rmatrix import (
    DEFAULT_SEED,
    CoefficientSet,
    asymptotic_check,
    build_R,
    derive_coefficients,
    intertwining_residual,
    inversion_residual,
    level1_covariance_residual,
    r_assembly_residual,
    r_at_zero_residual,
    r_terms_invariance_residual,
    sample_spectral_parameters,
    sample_ybe_pairs,
    ybe_residual,
)
from .spinchain import (
    chain_frame,
    chain_H,
    chain_spectrum,
    global_symmetry_residual,
    h_oracle_residuals,
    local_h,
    sector_commutator,
    sector_spectrum,
    spin_operators,
    two_site_spectrum,
    verify_spinform,
    weight_hamiltonian,
    weight_transfer,
)
from .yangian_action import (
    VERIFIED_RANGE,
    verify_anticommutator_identity,
    verify_hw_relations,
    verify_singlet_double_action,
)

ENV_SEED = "ADJRMAT_SEED"
USAGE_ERROR = 2
# a command whose largest dense space (three adjoint sites, or the chain) has
# at most this dimension runs on one BLAS thread: that is n = 3 up to three
# sites, where threads cost more than they save and stall when a core is busy
ONE_BLAS_THREAD_MAX_DIM = 512


class ConfigError(Exception):
    """Invalid configuration detected after argument parsing."""


@dataclass
class RunConfig:
    """Validated run configuration; the seed is echoed into every report."""

    n: int
    seed: int
    tol: Tolerance
    samples: int | None = None
    sites: int = 3
    lam: complex | None = None
    mu: complex | None = None
    out: str | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError(f"--n must be at least 3, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {self.seed}")
        if self.samples is not None and self.samples < 0:
            raise ConfigError(f"--samples must be non-negative, got {self.samples}")
        if (self.lam is None) != (self.mu is None):
            raise ConfigError("--lambda and --mu must be given together")


@dataclass
class _Context:
    """Lazily built algebra objects shared by the checks of one command.

    R(lam), I(lam) and h need only ``rep``; ``dec`` is built on first use,
    by the checks and artifacts that read a submodule.
    """

    cfg: RunConfig

    @cached_property
    def basis(self):
        return build_basis(self.cfg.n, self.cfg.tol)

    @cached_property
    def rep(self):
        return adjoint_rep(self.basis, self.cfg.tol, validate=self.cfg.n <= 5)

    @cached_property
    def dec(self):
        return build_decomposition(self.rep, self.cfg.tol)

    @cached_property
    def h(self):
        return local_h(self.rep)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.cfg.seed)


def _check(check_id: str, residual: float, threshold: float, params=None, op="<=", **extra):
    ok = residual <= threshold if op == "<=" else residual > threshold
    entry = {"id": check_id}
    if params:
        entry["params"] = params
    entry.update({"residual": float(residual), "threshold": float(threshold), "op": op,
                  "pass": bool(ok)})
    entry.update(extra)
    return entry


def _cpair(z: complex):
    return jsonio.complex_pair(z)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def suite_identities(ctx: _Context) -> list[dict]:
    cfg = ctx.cfg
    n = cfg.n
    if n < VERIFIED_RANGE[0]:
        raise ConfigError(f"the identity suite needs n >= {VERIFIED_RANGE[0]}")
    beyond = n > VERIFIED_RANGE[1]
    extra = {"beyond_verified_range": True} if beyond else {}
    rep = ctx.rep
    checks = [
        _check(
            "anticommutator-annihilation-left",
            verify_anticommutator_identity(rep, "anti_left"),
            1e-9,
            **extra,
        ),
        _check(
            "anticommutator-annihilation-right",
            verify_anticommutator_identity(rep, "anti_right"),
            1e-9,
            **extra,
        ),
    ]
    rng = ctx.rng()
    count = cfg.samples if cfg.samples is not None else 10
    mus = sample_spectral_parameters(rng, n, count)
    lams = sample_spectral_parameters(rng, n, count)
    for mu, lam in zip(mus, lams):
        params = {"mu": _cpair(mu), "lambda": _cpair(lam)}
        hw = verify_hw_relations(rep, mu, lam)
        for key in ("single_sym", "single_anti", "double_sym", "double_anti"):
            checks.append(_check(f"hw-action-{key.replace('_', '-')}", hw[key], 1e-8,
                                 params=params, **extra))
        checks.append(
            _check(
                "singlet-double-action",
                verify_singlet_double_action(rep, mu, lam),
                1e-8,
                params=params,
                **extra,
            )
        )
    return checks


def suite_intertwiner(ctx: _Context) -> list[dict]:
    cfg = ctx.cfg
    n = cfg.n
    rep = ctx.rep
    rng = ctx.rng()
    count = cfg.samples if cfg.samples is not None else 5
    checks = []
    for lam in sample_spectral_parameters(rng, n, count, symmetric=True):
        checks.append(_check("intertwiner-inversion", inversion_residual(rep, lam), 1e-8,
                             params={"lambda": _cpair(lam)}))
    lams = sample_spectral_parameters(rng, n, count)
    residuals = intertwining_residual(rep, lams)
    chevalley, top = generating_set(n)  # (i, j) of the matrix units e_ij
    for lam, (worst0, worst1) in zip(lams, residuals):
        checks.append(_check("intertwining-level0", worst0, 1e-8,
                             params={"lambda": _cpair(lam), "generators": chevalley}))
        checks.append(_check("intertwining-level1", worst1, 1e-8,
                             params={"lambda": _cpair(lam), "generators": [top]}))
    checks.append(_check("level1-covariance", level1_covariance_residual(rep), 1e-8,
                         params={"y": chevalley, "x": top}))
    recovery = derive_coefficients(rep, sample_spectral_parameters(rng, n, 3), rng=rng)
    checks.append(
        _check(
            "coefficient-recovery",
            recovery["max_error"],
            1e-8,
            params={"lambdas": [_cpair(s["lambda"]) for s in recovery["samples"]]},
        )
    )
    return checks


def suite_ybe(ctx: _Context) -> list[dict]:
    cfg = ctx.cfg
    n = cfg.n
    m = n * n - 1
    rng = ctx.rng()
    count = cfg.samples if cfg.samples is not None else 5
    if cfg.lam is not None and cfg.mu is not None:
        pairs = [(cfg.lam, cfg.mu)]
    else:
        pairs = sample_ybe_pairs(rng, n, count)
    checks = [_check("r-at-zero-is-swap", r_at_zero_residual(ctx.rep), 1e-12)]
    if pairs:  # the Yang-Baxter frame before the decomposition, so that their transients do not stack
        ctx.rep.ybe_frame
    dec = ctx.dec
    # the direct and the composed assembly of R are compared once, at the first pair
    for lam, _ in pairs[:1]:
        checks.append(_check("r-assembly-agreement", r_assembly_residual(dec, lam),
                             cfg.tol.abs_tol * m, params={"lambda": _cpair(lam)}))
        # the YBE residual reads each factor on highest-weight vectors, which holds for an invariant R
        checks.append(_check("r-terms-invariance", r_terms_invariance_residual(ctx.rep),
                             cfg.tol.abs_tol * m, params={"y": generating_set(n)[0]}))
    for lam, mu in pairs:
        params = {"lambda": _cpair(lam), "mu": _cpair(mu)}
        for solution in ("R", "Rtilde"):
            checks.append(_check(f"ybe-{solution}", ybe_residual(dec, lam, mu, solution=solution),
                                 1e-8, params=params))
    asym = asymptotic_check(ctx.rep, [100.0, 1000.0])
    ratio = asym["ratios"][0]
    checks.append(
        _check(
            "asymptotic-falloff",
            abs(np.log10(ratio) - 2.0),
            float(np.log10(1.5)),
            params={"lambdas": [100.0, 1000.0], "ratio": float(ratio)},
        )
    )
    return checks


def suite_hamiltonian(ctx: _Context) -> list[dict]:
    cfg = ctx.cfg
    n = cfg.n
    h = ctx.h
    m = n * n - 1
    table_residual, fd_residual = h_oracle_residuals(ctx.dec, h)
    checks = [
        _check("h-assembly-agreement", table_residual, cfg.tol.abs_tol * m),
        _check("h-finite-difference", fd_residual, 1e-6),
        _check("h-nonhermiticity", frobenius(h - h.conj().T), 0.1, op=">"),
    ]
    spectrum = two_site_spectrum(h, ctx.basis, cfg.tol)
    max_imag = max(abs(w.imag) for w in spectrum)
    checks.append(_check("two-site-spectrum-real", max_imag, 1e-8))
    # spectral consistency: projector coefficients + the 2x2 block spectrum
    expected = []
    coeffs = {"sym_top": 0.0, "anti_left": 2.0, "anti_right": 2.0, "mixed_sym": 4.0,
              "singlet": (2.0 + 2.0 * n) / n}
    for sub in ctx.dec.submodules:
        if sub.role in coeffs:
            expected.extend([coeffs[sub.role]] * sub.dim)
    # h = I'(0), so its adjoint-pair block is M'(0) = N'(0) diag(1, -1)
    block_eigs = np.linalg.eigvals(CoefficientSet(n).N_deriv0() @ np.diag([1.0, -1.0]))
    for w in block_eigs:
        expected.extend([w.real] * m)
    expected.sort()
    got = sorted(w.real for w in spectrum)
    checks.append(
        _check("two-site-spectrum-values", float(np.max(np.abs(np.array(got) - np.array(expected)))), 1e-8)
    )
    ops = spin_operators(ctx.rep, cfg.tol)
    checks.append(_check("spin-operators-noncommuting", frobenius(ops.commutator), 0.1, op=">"))
    fit = verify_spinform(h, ops, n, cfg.tol)
    checks.append(
        _check("spinform-fit", fit["residual"], 1e-9,
               params={"scale": fit["scale"], "shift": fit["shift"]})
    )
    return checks


def suite_chain(ctx: _Context) -> list[dict]:
    cfg = ctx.cfg
    n = cfg.n
    if n != 3:
        raise ConfigError("the chain suite runs at n = 3 (larger ranks exceed the dense cap)")
    sites = cfg.sites
    m = n * n - 1
    # every check runs in the product weight basis, one total-weight sector at a time;
    # H_w is built once per chain length, the chain under test first
    chains = {L: chain_frame(ctx.basis, L) for L in dict.fromkeys((sites, 2, 3))}
    hams = {L: weight_hamiltonian(chain, ctx.h) for L, chain in chains.items()}
    chain, h_w = chains[sites], hams[sites]
    checks = [_check("chain-global-symmetry", global_symmetry_residual(chain, h_w), 1e-8)]
    eigs = sector_spectrum(chain, h_w, cfg.tol)
    max_imag = max(abs(w.imag) for w in eigs)
    op = ">" if sites >= 3 else "<="
    threshold = 1e-6 if sites >= 3 else 1e-8
    check_id = "chain-spectrum-complex" if sites >= 3 else "chain-spectrum-real"
    checks.append(_check(check_id, max_imag, threshold, op=op,
                         params={"sites": sites, "dimension": m**sites}))
    rng = ctx.rng()
    for nsites in (2, 3):
        lam, mu = sample_ybe_pairs(rng, n, 1)[0]
        chain = chains[nsites]
        t_lam = weight_transfer(chain, ctx.rep, lam)
        res = sector_commutator(chain, t_lam, weight_transfer(chain, ctx.rep, mu))
        checks.append(_check("transfer-commutation", res, 1e-8,
                             params={"sites": nsites, "lambda": _cpair(lam), "mu": _cpair(mu)}))
        res_h = sector_commutator(chain, t_lam, hams[nsites])
        checks.append(_check("transfer-hamiltonian-commutation", res_h, 1e-7,
                             params={"sites": nsites, "lambda": _cpair(lam)}))
    return checks


def suite_su3(ctx: _Context) -> list[dict]:
    cfg = ctx.cfg
    if cfg.n != 3:
        raise ConfigError("the su3 suite requires --n 3")
    dec = ctx.dec
    coeffs = CoefficientSet(3)
    checks = []
    for lam in (0.5, 2j, -1.7):
        lam = complex(lam)
        block = coeffs.N(lam)
        got = sorted(np.linalg.eigvals(block), key=lambda z: (z.real, z.imag))
        # closed form (11 lam - 2 lam^3 +/- 3 sqrt(4 + 5 lam^2)) / (2 (1-lam)^2 (3-lam)),
        # with the cubic term matching the diagonal of the N block
        root = np.sqrt(4.0 + 5.0 * lam**2)
        denom = 2.0 * (1.0 - lam) ** 2 * (3.0 - lam)
        want = sorted(
            [(11.0 * lam - 2.0 * lam**3 + s * 3.0 * root) / denom for s in (+1.0, -1.0)],
            key=lambda z: (z.real, z.imag),
        )
        res = max(abs(g - w) for g, w in zip(got, want))
        checks.append(_check("su3-nblock-eigenvalues", res, 1e-9, params={"lambda": _cpair(lam)}))
    h = ctx.h
    got = {}
    for sub in dec.submodules:
        got[sub.role] = complex(np.trace(sub.projector @ h) / sub.dim)
    vs = dec.by_role("adjoint_sym").hw_vector
    va = dec.by_role("adjoint_anti").hw_vector
    vs = vs / np.linalg.norm(vs)
    va = va / np.linalg.norm(va)
    off_sa = complex(np.vdot(vs, h @ va))
    off_as = complex(np.vdot(va, h @ vs))
    want = {
        "anti_left": 2.0,
        "anti_right": 2.0,
        "adjoint_sym": 25.0 / 6.0,
        "adjoint_anti": 0.5,
        "singlet": 8.0 / 3.0,
        "sym_top": 0.0,
    }
    res = max(abs(got[k] - v) for k, v in want.items())
    res = max(res, abs(off_sa - np.sqrt(5.0) / 2.0), abs(off_as + np.sqrt(5.0) / 2.0))
    checks.append(_check("su3-local-h-coefficients", res, 1e-10))
    return checks


_SUITES = {
    "identities": suite_identities,
    "intertwiner": suite_intertwiner,
    "ybe": suite_ybe,
    "hamiltonian": suite_hamiltonian,
    "chain": suite_chain,
    "su3": suite_su3,
}


def run_verify(suite: str, cfg: RunConfig) -> dict:
    ctx = _Context(cfg)
    checks: list[dict] = []
    if suite == "all":
        parts = ["identities", "intertwiner", "ybe", "hamiltonian"]
        if cfg.n == 3:
            parts = ["intertwiner", "ybe", "hamiltonian", "chain", "su3"]
        for part in parts:
            for entry in _SUITES[part](ctx):
                entry_with_suite = {"suite": part, **entry}
                checks.append(entry_with_suite)
    else:
        checks = _SUITES[suite](ctx)
    failed = sum(1 for c in checks if not c["pass"])
    return {
        "tool": "adjrmat",
        "version": __version__,
        "command": "verify",
        "suite": suite,
        "n": cfg.n,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "sites": cfg.sites,
        "tolerances": {"abs_tol": cfg.tol.abs_tol, "rank_tol": cfg.tol.rank_tol},
        "checks": checks,
        "counts": {"total": len(checks), "failed": failed},
        "pass": failed == 0,
    }


# ---------------------------------------------------------------------------
# build / spectrum commands
# ---------------------------------------------------------------------------


def run_build(kind: str, cfg: RunConfig, lam: complex | None = None) -> dict:
    ctx = _Context(cfg)
    if kind == "basis":
        basis = ctx.basis
        return {
            "kind": "sun-basis",
            "n": cfg.n,
            "generators": [jsonio.matrix_payload(g) for g in basis.generators],
            "f": np.asarray(basis.f, dtype=complex),
            "d": np.asarray(basis.d, dtype=complex),
        }
    if kind == "projectors":
        dec = ctx.dec
        return {
            "kind": "decomposition",
            "n": cfg.n,
            "completeness_residual": dec.completeness_residual,
            "modules": [
                {
                    "label": s.label,
                    "role": s.role,
                    "dim": s.dim,
                    "omega_eigenvalue": s.omega_eigenvalue,
                    "exchange_parity": s.exchange_parity,
                    "projector": jsonio.matrix_payload(s.projector),
                }
                for s in dec.submodules
            ],
        }
    if kind == "rmatrix":
        if lam is None:
            raise ConfigError("build rmatrix requires --lambda RE,IM")
        return jsonio.matrix_payload(build_R(ctx.rep, lam))
    if kind == "hamiltonian":
        return jsonio.matrix_payload(chain_H(ctx.h, cfg.sites))
    raise ConfigError(f"unknown build kind {kind!r}")


def run_spectrum(cfg: RunConfig, convention: str) -> dict:
    if cfg.sites < 2:
        raise ConfigError("spectrum requires at least two sites")
    ctx = _Context(cfg)
    h = ctx.h
    if convention == "rescaled":
        ops = spin_operators(ctx.rep, cfg.tol)
        fit = verify_spinform(h, ops, cfg.n, cfg.tol)
        h = fit["scale"] * h + fit["shift"] * np.eye(h.shape[0])
    eigs = chain_spectrum(h, ctx.basis, cfg.sites, cfg.tol)
    max_imag = max(abs(w.imag) for w in eigs)
    return {
        "kind": "spectrum",
        "n": cfg.n,
        "sites": cfg.sites,
        "convention": convention,
        "seed": cfg.seed,
        "eigenvalues": np.array(eigs, dtype=complex),
        "max_imag": float(max_imag),
        "complex_count": int(sum(1 for w in eigs if abs(w.imag) > 1e-6)),
        "all_real": bool(max_imag <= 1e-8),
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}") from exc


def _add_common(parser: argparse.ArgumentParser, sites_default: int = 3):
    parser.add_argument("--n", type=int, required=True, help="rank parameter of su(n), n >= 3")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${ENV_SEED} or {DEFAULT_SEED})")
    parser.add_argument("--tol", type=float, default=None, help="override abs_tol")
    parser.add_argument("--sites", type=int, default=sites_default, help="chain length")
    parser.add_argument("--out", type=str, default=None, help="write the JSON report to a file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjrmat",
        description="Adjoint-representation su(n) R-matrix toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="write algebra/operator artifacts as JSON")
    bsub = build.add_subparsers(dest="kind", required=True)
    for kind in ("basis", "projectors", "rmatrix", "hamiltonian"):
        bp = bsub.add_parser(kind)
        _add_common(bp, sites_default=2)
        if kind == "rmatrix":
            bp.add_argument("--lambda", dest="lam", type=_parse_complex, required=True,
                            metavar="RE,IM", help="spectral parameter")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    _add_common(verify)
    verify.add_argument("--samples", type=int, default=None, help="random samples per check family")
    verify.add_argument("--lambda", dest="lam", type=_parse_complex, default=None,
                        metavar="RE,IM", help="explicit spectral parameter (ybe suite)")
    verify.add_argument("--mu", dest="mu", type=_parse_complex, default=None,
                        metavar="RE,IM", help="explicit second spectral parameter (ybe suite)")

    spectrum = sub.add_parser("spectrum", help="eigenvalues of the chain Hamiltonian")
    _add_common(spectrum, sites_default=2)
    conv = spectrum.add_mutually_exclusive_group()
    conv.add_argument("--raw", dest="convention", action="store_const", const="raw")
    conv.add_argument("--rescaled", dest="convention", action="store_const", const="rescaled")
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
        if seed < 0:
            raise ConfigError(f"{ENV_SEED} must be non-negative, got {seed}")
        return seed
    return DEFAULT_SEED


def _make_config(args) -> RunConfig:
    tol = Tolerance() if args.tol is None else Tolerance(abs_tol=args.tol)
    verify_pair = args.command == "verify"
    return RunConfig(
        n=args.n,
        seed=_resolve_seed(args),
        tol=tol,
        samples=getattr(args, "samples", None),
        sites=args.sites,
        lam=getattr(args, "lam", None) if verify_pair else None,
        mu=getattr(args, "mu", None) if verify_pair else None,
        out=args.out,
    )


def _emit(payload: dict, out: str | None):
    text = jsonio.dumps(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {out}: {exc}") from exc


def _run(args, cfg: RunConfig) -> int:
    if args.command == "build":
        payload = run_build(args.kind, cfg, lam=getattr(args, "lam", None))
        _emit(payload, cfg.out)
        return 0
    if args.command == "verify":
        report = run_verify(args.suite, cfg)
        _emit(report, cfg.out)
        return 0 if report["pass"] else 1
    if args.command == "spectrum":
        payload = run_spectrum(cfg, args.convention or "raw")
        _emit(payload, cfg.out)
        return 0
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _make_config(args)
        m = cfg.n * cfg.n - 1
        small = m ** max(3, cfg.sites) <= ONE_BLAS_THREAD_MAX_DIM
        with blas_threads_at_most(1) if small else contextlib.nullcontext():
            return _run(args, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"adjrmat: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AssertionError, RuntimeError) as exc:
        # an internal self-validation (basis, decomposition, eigensolver) failed
        print(f"adjrmat: self-check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
