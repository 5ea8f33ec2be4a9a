"""Benchmark harness: runs one workload's adjrmat commands in a closed loop.

Each command goes through ``adjrmat.cli.main(argv)`` exactly as a CLI user
would run it, with the workload seed passed as ``--seed`` and the output sent
to a temporary ``--out`` file.  Passes (one run of every command of the
workload, in order) repeat until the next pass would end after ``--seconds``
of measured time; at least one pass always runs.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``, the
median of three cold starts in fresh interpreters (:mod:`setup_probe`);
``pass_s``, the median pass time after this process has made the same cold
start; ``peak_rss_mb``, read as soon as the passes end; and ``ok_ratio``,
the share of outcomes that passed (one minus the failure ratio, which would
read 0 on a healthy run).  With ``--trace 1`` it alternates traced and
untraced passes (traced first) and reports the per-layer metrics of
:mod:`tracing` plus the tracing overhead.

Every output is checked: verify reports must pass, every build artifact
must round-trip through ``jsonio.matrix_from_json`` and pass its own
validation, and each command's output in a later pass must be byte-identical
to the first pass's.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from adjrmat import jsonio
from setup_probe import cold_start
from tracing import Tracer, layer_metrics, per_layer_catalogue, wrapped_bindings

# a later performance claim is made on DEFAULT_SEED and re-checked on
# RECHECK_SEED, which was not used while writing it
DEFAULT_SEED = 1
RECHECK_SEED = 2
SETUP_REPEATS = 3
ARTIFACT_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[tuple[str, ...], ...]

    @property
    def setup_n(self) -> int:
        """The largest rank any command of the workload uses."""
        return max(int(_option(cmd, "--n", 0)) for cmd in self.commands)


WORKLOADS = {
    "verify-n4": Workload(
        "the tier-1 path; dense YBE contractions dominate time and peak memory",
        (("verify", "all", "--n", "4"),),
    ),
    "large-rank": Workload(
        "n = 6 projector assembly, decomposition and YBE probes, then n = 5 spin operators "
        "and the 576-dim eigensolver",
        (("verify", "ybe", "--n", "6"), ("verify", "hamiltonian", "--n", "5")),
    ),
    "chain-n3": Workload(
        "transfer matrices, chain eigensolver and level-1 actions; bypasses decomposition "
        "and projector assembly",
        (("verify", "all", "--n", "3", "--sites", "3"), ("spectrum", "--n", "3", "--sites", "3")),
    ),
    "artifacts": Workload(
        "the only workload that serialises large matrices (jsonio) and reads projectors "
        "out as data",
        (
            ("build", "rmatrix", "--n", "5", "--lambda", "0.5,0.2"),
            ("build", "projectors", "--n", "4"),
            ("build", "hamiltonian", "--n", "3", "--sites", "3"),
        ),
    ),
}


def _option(argv, flag: str, default):
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class OutputError(Exception):
    """An artifact failed validation."""


def _round_trip(obj: dict) -> np.ndarray:
    mat = jsonio.matrix_from_json(obj)
    if jsonio.matrix_to_json(mat) != obj:
        raise OutputError("matrix does not round-trip through jsonio")
    return mat


def _expect_shape(mat: np.ndarray, dim: int, what: str):
    if mat.shape != (dim, dim):
        raise OutputError(f"{what} has shape {mat.shape}, expected {dim}x{dim}")


def validate_output(argv, payload: dict):
    """Raise OutputError unless a build artifact or spectrum is well formed."""
    m = int(_option(argv, "--n", 0)) ** 2 - 1
    sites = int(_option(argv, "--sites", 2))
    if argv[0] == "spectrum":
        if len(payload["eigenvalues"]) != m**sites:
            raise OutputError(f"spectrum has {len(payload['eigenvalues'])} eigenvalues, "
                              f"expected {m**sites}")
        return
    kind = argv[1]
    if kind == "rmatrix":
        _expect_shape(_round_trip(payload), m * m, "R")
    elif kind == "hamiltonian":
        _expect_shape(_round_trip(payload), m**sites, "H")
    elif kind == "projectors":
        projs = [_round_trip(mod["projector"]) for mod in payload["modules"]]
        for p in projs:
            _expect_shape(p, m * m, "projector")
            if np.max(np.abs(p @ p - p)) > ARTIFACT_TOL:
                raise OutputError("projector is not idempotent")
        if np.max(np.abs(sum(projs) - np.eye(m * m))) > ARTIFACT_TOL:
            raise OutputError("projectors do not sum to the identity")
    else:
        raise OutputError(f"no validation for build {kind}")


def evaluate(argv, rc, data: bytes | None) -> tuple[int, int, str | None]:
    """(attempted, failed, problem) for one command's output.

    A verify report contributes one outcome per check entry; an artifact or a
    spectrum contributes one.
    """
    if data is None:
        return 1, 1, f"no output (exit {rc})"
    try:
        payload = json.loads(data)
    except ValueError:
        return 1, 1, "output is not JSON"
    if not isinstance(payload, dict):
        return 1, 1, "output is not a JSON object"
    if argv[0] == "verify":
        checks = payload.get("checks") or []
        if not checks:
            return 1, 1, "report has no checks"
        failed = sum(1 for c in checks if c.get("pass") is not True)
        if failed == 0 and (rc != 0 or payload.get("pass") is not True):
            failed = len(checks)
        problem = f"{failed} of {len(checks)} checks failed (exit {rc})" if failed else None
        return len(checks), failed, problem
    if rc != 0:
        return 1, 1, f"exit {rc}"
    try:
        validate_output(argv, payload)
    except OutputError as exc:
        return 1, 1, str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return 1, 1, f"malformed output: {exc!r}"
    return 1, 0, None


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Ledger:
    """Outcome counts; later passes must repeat the first pass byte for byte.

    The first pass's outputs are kept on disk and validated only after the
    timed passes, so the checks add nothing to this process's peak RSS; later
    passes are compared by digest.
    """

    def __init__(self, keep: Path):
        self.keep = keep
        self.first: dict[int, tuple[tuple[str, ...], int | None, str | None]] = {}
        self.repeats: dict[int, list[bool]] = {}

    def record(self, index: int, argv, rc, out: Path):
        digest = _digest(out) if out.exists() else None
        if index not in self.first:
            if digest is not None:
                out.replace(self.keep / f"first{index}.json")
            self.first[index] = (tuple(argv), rc, digest)
            self.repeats[index] = []
        else:
            self.repeats[index].append((rc, digest) == self.first[index][1:])
            out.unlink(missing_ok=True)

    def totals(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every pass recorded."""
        attempted = failed = 0
        problems = []
        for index, (argv, rc, digest) in self.first.items():
            data = (self.keep / f"first{index}.json").read_bytes() if digest else None
            a, f, problem = evaluate(argv, rc, data)
            if problem:
                problems.append(f"{' '.join(argv)}: {problem}")
            if not all(self.repeats[index]):
                problems.append(f"{' '.join(argv)}: output differs from the first pass")
            attempted += a * (1 + len(self.repeats[index]))
            failed += f + sum(f if same else a for same in self.repeats[index])
        return attempted, failed, problems


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run_command(cli, argv) -> tuple[float, int | None]:
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raising command is a failed outcome, not a crash
        traceback.print_exc()
        rc = None
    return time.perf_counter() - t0, rc


def run_pass(cli, name: str, seed: int, tmp: Path, ledger: Ledger,
             command_times: list[list[float]], pass_index: int,
             tracer: Tracer | None = None) -> float:
    """Run every command of the workload once; returns the summed command time."""
    gc.collect()
    total = 0.0
    for i, cmd in enumerate(WORKLOADS[name].commands):
        out = tmp / f"out{i}.json"
        argv = (*cmd, "--seed", str(seed), "--out", str(out))
        if tracer is not None:
            tracer.begin_command(name, pass_index, int(_option(cmd, "--n", 0)))
            tracer.install()
        try:
            seconds, rc = run_command(cli, argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.end_command()
        total += seconds
        command_times[i].append(seconds)
        ledger.record(i, cmd, rc, out)
    return total


def fresh_setup_seconds(root: Path, n: int) -> float:
    """setup_s sample: one cold start in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "setup_probe.py"), str(n)],
        env=env, cwd=root, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1])


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _describe(label: str, values: list[float]) -> str:
    q1, q3 = _quartiles(values)
    return (f"# {label}: median {statistics.median(values):.4f} s, quartiles "
            f"{q1:.4f} / {q3:.4f} s, {len(values)} samples")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; re-check claims on "
                             f"{RECHECK_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, root: Path) -> int:
    args = _parse(argv)
    name = args.workload
    workload = WORKLOADS[name]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    setups = [] if args.trace else [fresh_setup_seconds(root, workload.setup_n)
                                    for _ in range(SETUP_REPEATS)]
    cold_start(workload.setup_n)  # warm this process the same way before timing
    import adjrmat.cli as cli

    print("# env " + json.dumps(environment()), flush=True)
    tracer = Tracer() if args.trace else None
    command_times: list[list[float]] = [[] for _ in workload.commands]
    untraced: list[float] = []
    traced: list[float] = []
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        ledger = Ledger(Path(tmp))
        while True:
            index = len(untraced) + len(traced)
            use_tracer = tracer if index % 2 == 0 else None  # traced runs alternate
            seconds = run_pass(cli, name, args.seed, Path(tmp), ledger, command_times,
                               index, use_tracer)
            (traced if use_tracer else untraced).append(seconds)
            done = untraced + traced
            # stop when the next pass would end past the budget; a traced run
            # needs one untraced pass too for the overhead
            if untraced and sum(done) + statistics.median(done) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems = ledger.totals()
    leftover = wrapped_bindings()
    if leftover:
        problems.append(f"span wrappers left bound: {', '.join(leftover)}")
        attempted, failed = attempted + 1, failed + 1

    for i, cmd in enumerate(workload.commands):
        print(_describe(" ".join(cmd), command_times[i]))
    print(_describe("pass_s (untraced)", untraced))
    for problem in problems:
        print(f"# FAILED {problem}")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
        }
        print(f"# setup_s samples: {setups}")
    else:
        print(_describe("pass_s (traced)", traced))
        spans_path = out_dir / f"spans-{name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"# spans: {spans_path} ({len(tracer.spans)} spans)")
        layers = layer_metrics(tracer.spans, traced)
        trace_pass = statistics.fmean(traced)
        layers["trace.pass_s"] = trace_pass
        layers["trace.overhead_s"] = trace_pass - statistics.median(untraced)
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in per_layer_catalogue()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
