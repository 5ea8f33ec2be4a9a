import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from adjrmat import adjoint_tensor, cli, jsonio, liealg, rmatrix, spinchain, yangian_action
from adjrmat.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(tmp_path, *args):
    out = tmp_path / "out.json"
    code = main(list(args) + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_build_rmatrix_file(tmp_path):
    code, payload = run(tmp_path, "build", "rmatrix", "--n", "3", "--lambda", "0.5,0")
    assert code == 0
    assert payload["rows"] == payload["cols"] == 64
    assert len(payload["data"]) == 64 * 64
    mat = jsonio.matrix_from_json(payload)
    assert mat.shape == (64, 64)


def test_build_basis_file(tmp_path):
    code, payload = run(tmp_path, "build", "basis", "--n", "4")
    assert code == 0
    assert len(payload["generators"]) == 15
    assert payload["generators"][0]["rows"] == 4
    f = np.array([[[complex(re, im) for re, im in row] for row in plane] for plane in payload["f"]])
    assert f.shape == (15, 15, 15)
    assert np.max(np.abs(f.real)) < 1e-9


def test_build_projectors_file(tmp_path):
    code, payload = run(tmp_path, "build", "projectors", "--n", "3")
    assert code == 0
    assert payload["completeness_residual"] < 1e-9
    assert [m["dim"] for m in payload["modules"]] == [27, 10, 10, 8, 8, 1]


def test_build_hamiltonian_file(tmp_path):
    code, payload = run(tmp_path, "build", "hamiltonian", "--n", "3", "--sites", "2")
    assert code == 0
    assert payload["rows"] == payload["cols"] == 64


def test_verify_su3_passes(tmp_path):
    code, payload = run(tmp_path, "verify", "su3", "--n", "3")
    assert code == 0
    assert payload["pass"] is True


def test_verify_su3_wrong_rank(tmp_path):
    code, _ = run(tmp_path, "verify", "su3", "--n", "4")
    assert code == 2


def test_verify_identities_requires_n4(tmp_path):
    code, _ = run(tmp_path, "verify", "identities", "--n", "3")
    assert code == 2


def test_verify_identities_beyond_range_flagged(tmp_path):
    code, payload = run(tmp_path, "verify", "identities", "--n", "8", "--samples", "1")
    assert code == 0
    assert payload["pass"] is True
    assert all(c.get("beyond_verified_range") for c in payload["checks"])


def test_verify_identities_in_range_not_flagged(tmp_path):
    code, payload = run(tmp_path, "verify", "identities", "--n", "4", "--samples", "1")
    assert code == 0
    assert not any("beyond_verified_range" in c for c in payload["checks"])


def test_verify_reports_record_seed(tmp_path):
    code, payload = run(tmp_path, "verify", "ybe", "--n", "3", "--samples", "1", "--seed", "123")
    assert code == 0
    assert payload["seed"] == 123


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("ADJRMAT_SEED", "77")
    code, payload = run(tmp_path, "verify", "ybe", "--n", "3", "--samples", "1")
    assert code == 0
    assert payload["seed"] == 77


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "ybe", "--n", "3", "--samples", "2", "--seed", "42", "--out", str(out1)]) == 0
    assert main(["verify", "ybe", "--n", "3", "--samples", "2", "--seed", "42", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ``verify all --n 3 --seed 42``: every check, in report order
VERIFY_ALL_N3_IDS = (
    ["intertwiner-inversion"] * 5
    + ["intertwining-level0", "intertwining-level1"] * 5
    + ["level1-covariance", "coefficient-recovery"]
    + ["r-at-zero-is-swap", "r-assembly-agreement", "r-terms-invariance"]
    + ["ybe-R", "ybe-Rtilde"] * 5
    + ["asymptotic-falloff"]
    + [
        "h-assembly-agreement",
        "h-finite-difference",
        "h-nonhermiticity",
        "two-site-spectrum-real",
        "two-site-spectrum-values",
        "spin-operators-noncommuting",
        "spinform-fit",
    ]
    + [
        "chain-global-symmetry",
        "chain-spectrum-complex",
        "transfer-commutation",
        "transfer-hamiltonian-commutation",
        "transfer-commutation",
        "transfer-hamiltonian-commutation",
    ]
    + ["su3-nblock-eigenvalues"] * 3
    + ["su3-local-h-coefficients"]
)


def test_verify_all_check_ids_are_pinned(tmp_path):
    code, payload = run(tmp_path, "verify", "all", "--n", "3", "--seed", "42")
    assert code == 0
    assert [c["id"] for c in payload["checks"]] == VERIFY_ALL_N3_IDS
    assert payload["counts"]["total"] == len(VERIFY_ALL_N3_IDS)


def test_verify_ybe_check_ids_at_n5_include_the_invariance_premise(tmp_path):
    """From n = 5 as below, the YBE residual rests on R's invariance, so r-terms-invariance runs at every n."""
    code, payload = run(tmp_path, "verify", "ybe", "--n", "5", "--samples", "2")
    assert code == 0
    assert [c["id"] for c in payload["checks"]] == (
        ["r-at-zero-is-swap", "r-assembly-agreement", "r-terms-invariance"]
        + ["ybe-R", "ybe-Rtilde"] * 2
        + ["asymptotic-falloff"]
    )


def test_ybe_at_n6_fails_a_solution_that_is_invariant_but_wrong(tmp_path, monkeypatch):
    """With N = M, R stays invariant and fails the YBE at n = 6, where no dense oracle runs."""
    monkeypatch.setattr(rmatrix.CoefficientSet, "N", rmatrix.CoefficientSet.M)
    code, payload = run(tmp_path, "verify", "ybe", "--n", "6", "--samples", "1")
    assert code == 1
    checks = {c["id"]: c for c in payload["checks"]}
    assert checks["r-terms-invariance"]["pass"]
    assert checks["ybe-R"]["residual"] > 1e-2 and not checks["ybe-R"]["pass"]
    assert checks["ybe-Rtilde"]["pass"]  # sigma I(lam) reads M, which is right


def test_verify_ybe_without_samples(tmp_path):
    """With no (lam, mu) pairs drawn there is no lambda for the R-assembly check."""
    code, payload = run(tmp_path, "verify", "ybe", "--n", "3", "--samples", "0")
    assert code == 0
    assert [c["id"] for c in payload["checks"]] == ["r-at-zero-is-swap", "asymptotic-falloff"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "ybe", "--n", "3", "--samples", "-1"],
        ["verify", "intertwiner", "--n", "3", "--samples", "-2"],
    ],
)
def test_negative_samples_is_a_usage_error(tmp_path, capsys, argv):
    code, payload = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert payload is None
    assert err.startswith("adjrmat: --samples must be non-negative")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "su3", "--n", "3", "--seed", "-1"],
        ["spectrum", "--n", "3", "--sites", "2", "--seed", "-5"],
        ["verify", "ybe", "--n", "3", "--seed", "-1"],
    ],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    """Every command refuses a negative seed before any check runs: exit 2, one line, no report."""
    code, payload = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert payload is None
    assert err == f"adjrmat: --seed must be non-negative, got {argv[-1]}\n"


def test_negative_env_seed_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ADJRMAT_SEED", "-1")
    code, payload = run(tmp_path, "verify", "su3", "--n", "3")
    err = capsys.readouterr().err
    assert code == 2
    assert payload is None
    assert err == "adjrmat: ADJRMAT_SEED must be non-negative, got -1\n"


def test_infinite_tolerance_is_a_usage_error(tmp_path, capsys):
    """A non-finite --tol is refused before any check runs: exit 2, one line, no report."""
    code, payload = run(tmp_path, "verify", "hamiltonian", "--n", "3", "--tol", "inf")
    err = capsys.readouterr().err
    assert code == 2
    assert payload is None
    assert err == "adjrmat: tolerances must be finite and strictly positive\n"


# ``verify chain --n 3 --sites 3 --seed 1``: every entry but its residual
VERIFY_CHAIN_N3_ENTRIES = [
    {"id": "chain-global-symmetry", "threshold": 1e-08, "op": "<=", "pass": True},
    {"id": "chain-spectrum-complex", "params": {"sites": 3, "dimension": 512},
     "threshold": 1e-06, "op": ">", "pass": True},
    {"id": "transfer-commutation",
     "params": {"sites": 2, "lambda": [2.0431299223715738, -0.6572782839956276],
                "mu": [1.0802757567112202, -0.3611658953150257]},
     "threshold": 1e-08, "op": "<=", "pass": True},
    {"id": "transfer-hamiltonian-commutation",
     "params": {"sites": 2, "lambda": [2.0431299223715738, -0.6572782839956276]},
     "threshold": 1e-07, "op": "<=", "pass": True},
    {"id": "transfer-commutation",
     "params": {"sites": 3, "lambda": [-1.4845843959462306, 0.776203735759713],
                "mu": [-2.297073894226365, 1.4740335372194544]},
     "threshold": 1e-08, "op": "<=", "pass": True},
    {"id": "transfer-hamiltonian-commutation",
     "params": {"sites": 3, "lambda": [-1.4845843959462306, 0.776203735759713]},
     "threshold": 1e-07, "op": "<=", "pass": True},
]


def test_verify_chain_entries_are_pinned(tmp_path):
    code, payload = run(tmp_path, "verify", "chain", "--n", "3", "--sites", "3", "--seed", "1")
    assert code == 0
    entries = [{k: v for k, v in c.items() if k != "residual"} for c in payload["checks"]]
    assert entries == VERIFY_CHAIN_N3_ENTRIES


def test_verify_chain_four_sites(tmp_path):
    """The 4,096-state chain: every check passes in under 10 s."""
    start = time.perf_counter()
    code, payload = run(tmp_path, "verify", "chain", "--n", "3", "--sites", "4", "--seed", "1")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert [c["id"] for c in payload["checks"]] == [c["id"] for c in VERIFY_CHAIN_N3_ENTRIES]
    assert all(c["pass"] for c in payload["checks"])
    assert payload["checks"][1]["params"] == {"sites": 4, "dimension": 4096}
    assert elapsed < 10.0


def test_chain_suite_builds_each_chain_operator_once(tmp_path, monkeypatch):
    """H_w once per chain length, t(lambda) once per (lambda, length), and no decomposition."""
    calls = Counter()

    def counted(name):
        original = getattr(spinchain, name)

        def wrapper(op, sites):
            calls[name, sites] += 1
            return original(op, sites)

        return wrapper

    def refuse(*args, **kwargs):
        raise AssertionError("build_decomposition was called")

    for name in ("chain_H", "_ring_trace"):
        monkeypatch.setattr(spinchain, name, counted(name))
    monkeypatch.setattr(cli, "build_decomposition", refuse)
    assert run(tmp_path, "verify", "chain", "--n", "3", "--sites", "3")[0] == 0
    assert calls == {("chain_H", 3): 1, ("chain_H", 2): 1,
                     ("_ring_trace", 2): 2, ("_ring_trace", 3): 2}


def test_cli_import_and_decomposition_leave_scipy_unloaded(tmp_path):
    """No command imports scipy: neither a cold start nor ``verify ybe --n 4`` loads it."""
    code = (
        "import sys\n"
        "import adjrmat.cli\n"
        "from adjrmat.adjoint_tensor import adjoint_rep, build_decomposition\n"
        "from adjrmat.liealg import build_basis\n"
        "build_decomposition(adjoint_rep(build_basis(4)))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        f"argv = ['verify', 'ybe', '--n', '4', '--samples', '1', '--out', {str(tmp_path / 'r.json')!r}]\n"
        "assert adjrmat.cli.main(argv) == 0\n"
        "assert 'scipy' not in sys.modules, 'verify ybe --n 4 imported scipy'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_rank_six_commands_leave_scipy_unloaded(tmp_path):
    """``verify ybe`` and ``verify intertwiner`` at n = 6 apply every operator without scipy."""
    code = (
        "import sys\n"
        "import adjrmat.cli\n"
        "for suite in ('ybe', 'intertwiner'):\n"
        f"    argv = ['verify', suite, '--n', '6', '--samples', '1', '--out', {str(tmp_path / 'r.json')!r}]\n"
        "    assert adjrmat.cli.main(argv) == 0, suite\n"
        "    assert 'scipy' not in sys.modules, f'verify {suite} --n 6 imported scipy'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_rmatrix_and_hamiltonian_commands_build_no_decomposition(tmp_path, monkeypatch):
    """R(lambda), h and the coefficient recovery need only the adjoint rep; only submodule readers decompose."""

    def refuse(*args, **kwargs):
        raise AssertionError("build_decomposition was called")

    monkeypatch.setattr(cli, "build_decomposition", refuse)
    for argv in (
        ["build", "rmatrix", "--n", "3", "--lambda", "0.5,0.2"],
        ["build", "hamiltonian", "--n", "3", "--sites", "2"],
        ["spectrum", "--n", "3", "--sites", "2"],
        ["verify", "intertwiner", "--n", "4"],
        ["verify", "identities", "--n", "4"],
    ):
        assert run(tmp_path, *argv)[0] == 0, argv
    # the patch is live: a command that reads submodules fails its self-check
    assert run(tmp_path, "build", "projectors", "--n", "3")[0] == 1


def test_intertwiner_checks_build_no_dense_level1_action(tmp_path, monkeypatch):
    """No suite builds the dense actions of the tests' oracle, and the intertwiner suite
    forms no dense two-site operator at all: no I(lam), no Omega_op."""

    def refuse(*args, **kwargs):
        raise AssertionError("a dense two-site operator was built")

    monkeypatch.setattr(yangian_action, "level1_action", refuse)
    monkeypatch.setattr(yangian_action, "delta_action", refuse)
    code, payload = run(tmp_path, "verify", "all", "--n", "3", "--seed", "42")
    assert code == 0
    assert [c["id"] for c in payload["checks"]] == VERIFY_ALL_N3_IDS
    monkeypatch.setattr(rmatrix.PairOperator, "dense", refuse)
    monkeypatch.setattr(adjoint_tensor.PairFrame, "dense_omega", refuse)
    code, payload = run(tmp_path, "verify", "intertwiner", "--n", "4")
    assert code == 0
    # the intertwiner suite's ids, which lead the n = 3 list
    assert [c["id"] for c in payload["checks"]] == VERIFY_ALL_N3_IDS[:17]


def test_ybe_and_transfer_checks_read_only_the_blocks_of_R(tmp_path, monkeypatch):
    """The YBE and the chain's t_w(lam) read R's sector blocks: no Gell-Mann R, no off-sector floor.

    The YBE forms no weight-coordinate R either.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("a dense R was built or its off-sector share measured")

    monkeypatch.setattr(rmatrix.PairOperator, "dense", refuse)
    monkeypatch.setattr(rmatrix.PairOperator, "weight_dense", refuse)
    monkeypatch.setattr(liealg.WeightChain, "split", refuse)
    code, payload = run(tmp_path, "verify", "ybe", "--n", "4")
    assert code == 0
    # the ybe suite's ids, which follow the intertwiner suite's in the n = 3 list
    assert [c["id"] for c in payload["checks"]] == VERIFY_ALL_N3_IDS[17:31]
    assert not any("mode" in c.get("params", {}) for c in payload["checks"])
    monkeypatch.undo()
    monkeypatch.setattr(spinchain, "build_R", refuse)
    code, payload = run(tmp_path, "verify", "chain", "--n", "3", "--sites", "3")
    assert code == 0
    assert [c["id"] for c in payload["checks"]] == VERIFY_ALL_N3_IDS[38:44]


def test_blocks_that_lose_part_of_R_fail_r_assembly_agreement(tmp_path, monkeypatch):
    """With Ed Ed^dagger left out of one sector of every operator's blocks, r-assembly-agreement fails.

    The blocks define R for every other check of ``verify ybe``, so this
    comparison with the projector sum, which has no weight frame, is the
    check that they hold all of R.
    """
    combine = adjoint_tensor.PairFrame.combine
    dd = adjoint_tensor.TERMS.index("dd")  # at n = 3 the Omega_op term of R is 0

    def lossy(frame, coefficients):
        blocks = combine(frame, coefficients)
        w = int(np.flatnonzero(~frame.chain.sector_weights.any(axis=1))[0])  # the zero-weight sector
        g, r = frame.places[w]
        blocks[g][r] -= coefficients[dd] * frame.terms[g][dd, r]
        return blocks

    monkeypatch.setattr(adjoint_tensor.PairFrame, "combine", lossy)
    code, payload = run(tmp_path, "verify", "ybe", "--n", "3")
    assert code == 1
    failed = [c["id"] for c in payload["checks"] if not c["pass"]]
    assert "r-assembly-agreement" in failed
    assert "r-at-zero-is-swap" not in failed  # R(0) = sigma has no Ed Ed^dagger term to lose


def test_f4_error_fails_coefficient_recovery_at_large_rank(tmp_path, monkeypatch):
    """A 1e-6 relative error in f4 fails coefficient-recovery at n = 6 and 8.

    The singlet term has entries 1/m, so the level-1 check sees such an
    error less and less as n grows; the recovery reads f4 directly.
    """
    exact = rmatrix.CoefficientSet.f4
    monkeypatch.setattr(rmatrix.CoefficientSet, "f4", lambda self, lam: (1.0 + 1e-6) * exact(self, lam))
    for argv in (["--n", "6"], ["--n", "8", "--samples", "1"]):
        code, payload = run(tmp_path, "verify", "intertwiner", *argv)
        assert code == 1, argv
        assert "coefficient-recovery" in [c["id"] for c in payload["checks"] if not c["pass"]], argv


def test_wrong_h_table_fails_only_its_check(tmp_path, monkeypatch):
    """A wrong projector coefficient in the h table is a failing check, not a crash."""
    original = spinchain._h_coefficients

    def wrong_diag(n):  # n = 3 has no mixed module, so perturb an antisymmetric one
        diag, block = original(n)
        return {**diag, "anti_left": 2.5}, block

    monkeypatch.setattr(spinchain, "_h_coefficients", wrong_diag)
    code, payload = run(tmp_path, "verify", "hamiltonian", "--n", "3")
    assert code == 1
    assert [c["id"] for c in payload["checks"] if not c["pass"]] == ["h-assembly-agreement"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "ybe", "--n", "3", "--tol", "1e-20"],
        ["build", "projectors", "--n", "3", "--tol", "1e-18"],
    ],
)
def test_self_check_failure_is_a_clean_exit(tmp_path, capsys, argv):
    """A tolerance below rounding trips the basis self-validation: exit 1, one line, no trace."""
    code, payload = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 1
    assert payload is None
    assert err.startswith("adjrmat: self-check failed: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_spectrum_two_sites_real(tmp_path):
    code, payload = run(tmp_path, "spectrum", "--n", "3", "--sites", "2")
    assert code == 0
    assert len(payload["eigenvalues"]) == 64
    assert payload["all_real"] is True
    assert payload["max_imag"] <= 1e-8


def test_spectrum_three_sites_flags_complex(tmp_path):
    code, payload = run(tmp_path, "spectrum", "--n", "3", "--sites", "3")
    assert code == 0
    assert payload["all_real"] is False
    assert payload["complex_count"] > 0


def test_spectrum_deterministic_with_exact_conjugate_pairs(tmp_path):
    """Two runs print the same bytes; every complex eigenvalue has its bit-equal conjugate."""
    texts = []
    for k in range(2):
        out = tmp_path / f"spectrum{k}.json"
        assert main(["spectrum", "--n", "3", "--sites", "3", "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    eigs = json.loads(texts[0])["eigenvalues"]
    pairs = Counter((re, im) for re, im in eigs if im != 0.0)
    assert pairs
    assert pairs == Counter((re, -im) for re, im in pairs.elements())


def test_spectrum_rejects_short_chain(tmp_path):
    code, _ = run(tmp_path, "spectrum", "--n", "3", "--sites", "1")
    assert code == 2


def test_spectrum_rescaled_convention(tmp_path):
    code, raw = run(tmp_path, "spectrum", "--n", "3", "--sites", "2")
    assert code == 0
    code, rescaled = run(tmp_path, "spectrum", "--n", "3", "--sites", "2", "--rescaled")
    assert code == 0
    raw_ws = sorted(w[0] for w in raw["eigenvalues"])
    res_ws = sorted(w[0] for w in rescaled["eigenvalues"])
    # eigenvalues transform affinely under the rescaled convention: two-site
    # chain doubles the shift constant
    scale, shift = 8.0 / 3.0, -16.0 / 3.0
    expect = sorted(scale * w + 2.0 * shift for w in raw_ws)
    assert np.max(np.abs(np.array(res_ws) - np.array(expect))) < 1e-8


def test_rejects_small_n(tmp_path):
    code, _ = run(tmp_path, "verify", "ybe", "--n", "2")
    assert code == 2


def test_ybe_mode_flags_are_usage_errors(tmp_path, capsys):
    """verify ybe has one exact path at every rank: there is no flag to pick one, and no mode is reported."""
    out = tmp_path / "out.json"
    for flag in ("--dense", "--matrix-free"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "ybe", "--n", "5", flag, "--out", str(out)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()
    code, payload = run(tmp_path, "verify", "ybe", "--n", "3", "--samples", "1")
    assert code == 0 and "mode" not in payload
    ybe = [c for c in payload["checks"] if c["id"].startswith("ybe-")]
    assert ybe and all(set(c["params"]) == {"lambda", "mu"} for c in ybe)


def test_bad_lambda_format():
    with pytest.raises(SystemExit) as info:
        main(["build", "rmatrix", "--n", "3", "--lambda", "nonsense"])
    assert info.value.code == 2


def test_jsonio_roundtrip(rng):
    m = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    back = jsonio.matrix_from_json(json.loads(jsonio.dumps(jsonio.matrix_to_json(m))))
    assert np.max(np.abs(back - m)) == 0.0


def test_jsonio_float_fidelity():
    values = [1.0 / 3.0, 1e-300, -0.0, 2.0**52 + 0.123, 5.0]
    text = jsonio.dumps({"values": values})
    assert json.loads(text)["values"] == values


@pytest.mark.parametrize("n, sites, threads", [("3", "3", 1), ("3", "4", 2), ("4", "2", 2)])
def test_small_commands_run_on_one_blas_thread(tmp_path, monkeypatch, n, sites, threads):
    """Up to three sites at n = 3 a command runs on one BLAS thread; larger ones keep theirs."""
    from adjrmat.numerics import _openblas_thread_controls

    if not _openblas_thread_controls():
        pytest.skip("numpy is not linked to an OpenBLAS this process can find")
    get, put = _openblas_thread_controls()[0]
    before = get()
    put(2)
    seen = []
    monkeypatch.setattr(cli, "_run", lambda args, cfg: seen.append(get()) or 0)
    try:
        assert main(["build", "basis", "--n", n, "--sites", sites,
                     "--out", str(tmp_path / "out.json")]) == 0
        assert seen == [threads] and get() == 2
    finally:
        put(before)


def test_intertwining_checks_name_their_generating_set(tmp_path, monkeypatch):
    """Level 0 on the Chevalley generators, level 1 on e_1n; a non-covariant level-1 action fails level1-covariance."""
    code, payload = run(tmp_path, "verify", "intertwiner", "--n", "4", "--samples", "1")
    assert code == 0
    params = {c["id"]: c.get("params") for c in payload["checks"]}
    chevalley = [[1, 2], [2, 1], [2, 3], [3, 2], [3, 4], [4, 3]]
    assert params["intertwining-level0"]["generators"] == chevalley
    assert params["intertwining-level1"]["generators"] == [[1, 4]]
    assert params["level1-covariance"] == {"y": chevalley, "x": [1, 4]}

    right = yangian_action.quartic_part
    monkeypatch.setattr(yangian_action, "quartic_part",
                        lambda rep, x: right(rep, x) + 1e-6 * x[0, 2] * np.eye(rep.dim))
    code, payload = run(tmp_path, "verify", "intertwiner", "--n", "4", "--samples", "1")
    assert code == 1
    assert [c["id"] for c in payload["checks"] if not c["pass"]] == ["level1-covariance"]
