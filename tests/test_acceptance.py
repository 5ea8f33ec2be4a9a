"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion builds its own objects inside the timed block so the stated
runtime budgets cover construction as well as verification.
"""

import json
from contextlib import contextmanager
from time import perf_counter, process_time

import numpy as np

from adjrmat.adjoint_tensor import adjoint_rep, build_decomposition
from adjrmat.cli import main
from adjrmat.liealg import build_basis
from adjrmat.numerics import eig_general
from adjrmat.rmatrix import (
    CoefficientSet,
    asymptotic_check,
    build_R,
    build_intertwiner,
    derive_coefficients,
    intertwining_residual,
    sample_spectral_parameters,
    sample_ybe_pairs,
    ybe_residual,
)
from adjrmat.spinchain import (
    chain_H,
    commutation_check,
    h_oracle_residuals,
    local_h,
    spin_operators,
    two_site_spectrum,
    verify_spinform,
)
from adjrmat.yangian_action import (
    verify_anticommutator_identity,
    verify_hw_relations,
    verify_singlet_double_action,
)

from conftest import permutation_op

SEED = 20240117

EXPECTED_OMEGAS = {
    "sym_top": lambda n: 2.0,
    "anti_left": lambda n: 0.0,
    "anti_right": lambda n: 0.0,
    "mixed_sym": lambda n: -2.0,
    "adjoint_sym": lambda n: -float(n),
    "adjoint_anti": lambda n: -float(n),
    "singlet": lambda n: -2.0 * n,
}

EXPECTED_PARITIES = {
    "sym_top": 1,
    "anti_left": -1,
    "anti_right": -1,
    "mixed_sym": 1,
    "adjoint_sym": 1,
    "adjoint_anti": -1,
    "singlet": 1,
}


@contextmanager
def criterion(number, description, budget=None):
    start = perf_counter()
    cpu_start = process_time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = perf_counter() - start
    cpu = process_time() - cpu_start
    if budget is not None:
        # the budget is on wall time; CPU time is reported so that a run slowed
        # by other processes sharing the CPUs shows as wall >> CPU
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.1f} s wall / {cpu:.1f} s CPU (budget {budget} s)"
        )
        print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s < {budget}s) - {description}")
    else:
        print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s) - {description}")


def test_criterion_1_basis_and_sum_rules():
    with criterion(1, "basis orthonormality, Jacobi, d/f sum rules for n=3..7", budget=5.0):
        for n in range(3, 8):
            basis = build_basis(n)
            m = basis.dim
            gram = np.einsum("aij,bji->ab", basis.generators, basis.generators, optimize=True)
            assert np.max(np.abs(gram - np.eye(m))) <= 1e-9
            f = basis.f
            jac = (
                np.einsum("abe,ecd->abcd", f, f, optimize=True)
                + np.einsum("bce,ead->abcd", f, f, optimize=True)
                + np.einsum("cae,ebd->abcd", f, f, optimize=True)
            )
            assert np.max(np.abs(jac)) <= 1e-9
            dd = np.einsum("abc,abd->cd", basis.d, basis.d, optimize=True)
            ff = np.einsum("abc,abd->cd", f, f, optimize=True)
            assert np.max(np.abs(dd - ((2.0 * n * n - 8.0) / n) * np.eye(m))) <= 1e-9
            assert np.max(np.abs(ff + 2.0 * n * np.eye(m))) <= 1e-9


def test_criterion_2_tensor_square_decomposition():
    with criterion(2, "submodule table reproduced for n=4..7 (and the n=3 set)", budget=60.0):
        dec3 = build_decomposition(adjoint_rep(build_basis(3), validate=False))
        assert [s.dim for s in dec3.submodules] == [27, 10, 10, 8, 8, 1]
        for n in range(4, 8):
            rep = adjoint_rep(build_basis(n), validate=False)
            dec = build_decomposition(rep)
            m = rep.dim
            assert sum(s.dim for s in dec.submodules) == m * m
            for sub in dec.submodules:
                assert abs(sub.omega_eigenvalue - EXPECTED_OMEGAS[sub.role](n)) <= 1e-8
                assert sub.exchange_parity == EXPECTED_PARITIES[sub.role]
            stacked = np.hstack([s.basis for s in dec.submodules])
            total = stacked @ stacked.conj().T
            assert np.max(np.abs(total - np.eye(m * m))) <= 1e-9


def test_criterion_3_level1_identities():
    with criterion(3, "level-1 action identities for n=4..7 at 10 random (mu, lambda)", budget=120.0):
        rng = np.random.default_rng(SEED)
        for n in range(4, 8):
            rep = adjoint_rep(build_basis(n), validate=False)
            assert verify_anticommutator_identity(rep, "anti_left") <= 1e-8
            assert verify_anticommutator_identity(rep, "anti_right") <= 1e-8
            mus = sample_spectral_parameters(rng, n, 10)
            lams = sample_spectral_parameters(rng, n, 10)
            for mu, lam in zip(mus, lams):
                residuals = verify_hw_relations(rep, mu, lam)
                assert max(residuals.values()) <= 1e-8
                assert verify_singlet_double_action(rep, mu, lam) <= 1e-8


def test_criterion_4_intertwiner():
    with criterion(4, "inversion, intertwining property, coefficient recovery (n=3, 4)"):
        rng = np.random.default_rng(SEED)
        for n in (3, 4):
            rep = adjoint_rep(build_basis(n), validate=False)
            eye = np.eye((n * n - 1) ** 2)
            for lam in sample_spectral_parameters(rng, n, 5, symmetric=True):
                prod = build_intertwiner(rep, lam) @ build_intertwiner(rep, -lam)
                assert np.max(np.abs(prod - eye)) <= 1e-8
            lams = sample_spectral_parameters(rng, n, 5)
            for r0, r1 in intertwining_residual(rep, lams):
                assert r0 <= 1e-8 and r1 <= 1e-8
            recovery = derive_coefficients(rep, sample_spectral_parameters(rng, n, 3), rng=rng)
            assert recovery["max_error"] <= 1e-8


def test_criterion_5_yang_baxter():
    with criterion(5, "YBE exact on highest-weight vectors n=3..6; R(0); asymptotics", budget=180.0):
        rng = np.random.default_rng(SEED)
        for n in (3, 4):
            dec = build_decomposition(adjoint_rep(build_basis(n), validate=False))
            for lam, mu in sample_ybe_pairs(rng, n, 5):
                for solution in ("R", "Rtilde"):
                    assert ybe_residual(dec, lam, mu, solution=solution) <= 1e-8
            if n == 3:
                sigma = permutation_op(8)
                assert np.max(np.abs(build_R(dec.rep, 0.0) - sigma)) <= 1e-12
        rep4 = adjoint_rep(build_basis(4), validate=False)
        report = asymptotic_check(rep4, [100.0, 1000.0])
        assert 100.0 / 1.5 <= report["ratios"][0] <= 100.0 * 1.5
        for n in (5, 6):
            dec = build_decomposition(adjoint_rep(build_basis(n), validate=False))
            for lam, mu in sample_ybe_pairs(rng, n, 3):
                for solution in ("R", "Rtilde"):
                    assert ybe_residual(dec, lam, mu, solution=solution) <= 1e-8


def test_criterion_6_su3_closed_forms():
    with criterion(6, "SU(3) block spectrum and local density coefficients"):
        coeffs = CoefficientSet(3)
        for lam in (0.5, 2j, -1.7):
            lam = complex(lam)
            got = sorted(np.linalg.eigvals(coeffs.N(lam)), key=lambda z: (z.real, z.imag))
            root = np.sqrt(4.0 + 5.0 * lam**2)
            denom = 2.0 * (1.0 - lam) ** 2 * (3.0 - lam)
            want = sorted(
                [(11.0 * lam - 2.0 * lam**3 + s * 3.0 * root) / denom for s in (1.0, -1.0)],
                key=lambda z: (z.real, z.imag),
            )
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9
        dec = build_decomposition(adjoint_rep(build_basis(3), validate=False))
        h = local_h(dec.rep)
        for role, want in (
            ("anti_left", 2.0),
            ("anti_right", 2.0),
            ("adjoint_sym", 25.0 / 6.0),
            ("adjoint_anti", 0.5),
            ("singlet", 8.0 / 3.0),
        ):
            sub = dec.by_role(role)
            assert abs(np.trace(sub.projector @ h) / sub.dim - want) <= 1e-10
        vs = dec.by_role("adjoint_sym").hw_vector
        va = dec.by_role("adjoint_anti").hw_vector
        vs = vs / np.linalg.norm(vs)
        va = va / np.linalg.norm(va)
        assert abs(np.vdot(vs, h @ va) - np.sqrt(5.0) / 2.0) <= 1e-10
        assert abs(np.vdot(va, h @ vs) + np.sqrt(5.0) / 2.0) <= 1e-10


def test_criterion_7_hamiltonian():
    with criterion(7, "density diagnostics, spin form, chain spectrum, transfer", budget=120.0):
        rng = np.random.default_rng(SEED)
        locs = {}
        for n in range(3, 7):
            dec = build_decomposition(adjoint_rep(build_basis(n), validate=False))
            h = local_h(dec.rep)
            locs[n] = (dec, h)
            assert h_oracle_residuals(dec, h)[1] <= 1e-6
            assert np.linalg.norm(h - h.conj().T) > 0.1
            spec = two_site_spectrum(h, dec.rep.basis)
            assert max(abs(w.imag) for w in spec) <= 1e-8
        for n in (3, 4, 5):
            dec, h = locs[n]
            ops = spin_operators(dec.rep)
            assert verify_spinform(h, ops, n)["residual"] <= 1e-9
        dec3, h3 = locs[3]
        eigs = [w for w, _ in eig_general(chain_H(h3, 3))]
        assert max(abs(w.imag) for w in eigs) > 1e-6
        for sites in (2, 3):
            lam, mu = sample_ybe_pairs(rng, 3, 1)[0]
            assert commutation_check(dec3, lam, mu, sites) <= 1e-8


def test_criterion_8_deterministic_reports(tmp_path):
    with criterion(8, "verify all --n 4 --seed 42 twice, byte-identical reports"):
        out1 = tmp_path / "report1.json"
        out2 = tmp_path / "report2.json"
        code1 = main(["verify", "all", "--n", "4", "--seed", "42", "--out", str(out1)])
        code2 = main(["verify", "all", "--n", "4", "--seed", "42", "--out", str(out2)])
        assert code1 == 0 and code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["pass"] is True
        assert report["seed"] == 42
