"""Per-layer spans for adjrmat, recorded from outside the package.

:meth:`Tracer.install` rebinds each public layer function listed in
:data:`LAYERS`, in every loaded ``adjrmat`` module namespace that refers to
it, to a wrapper that records a span; :meth:`Tracer.uninstall` puts the
originals back.  The package source is never modified.

A span's self time is its duration minus the durations of its direct child
spans.  Calls are strictly nested (the benchmark is single-threaded), so the
self times of all spans in a command plus the command time not covered by
any span add up to the command's wall time exactly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import re
import resource
import sys
import time
from dataclasses import dataclass, field

# layer (= adjrmat module) -> public functions timed as spans
LAYERS = {
    "rmatrix": (
        "ybe_residual",
        "build_R",
        "build_R_tilde",
        "build_intertwiner",
        "intertwining_residual",
        "derive_coefficients",
        "asymptotic_check",
    ),
    "adjoint_tensor": ("build_decomposition", "adjoint_rep", "highest_weight_vectors", "casimir_op"),
    "numerics": ("extend_orthonormal", "eig_general", "kron"),
    "spinchain": (
        "spin_operators",
        "local_h",
        "verify_spinform",
        "two_site_spectrum",
        "chain_H",
        "transfer_matrix",
        "commutation_check",
    ),
    "yangian_action": (
        "level1_action",
        "delta_action",
        "verify_hw_relations",
        "verify_anticommutator_identity",
        "verify_singlet_double_action",
    ),
    "jsonio": ("dumps", "matrix_to_json"),
    "liealg": ("build_basis",),
}

# functions that allocate the large dense arrays; their spans also record how
# much the process's RSS high-water mark grew across the call
LARGE_ARRAY = (
    "rmatrix.ybe_residual",
    "rmatrix.build_R",
    "rmatrix.build_R_tilde",
    "rmatrix.build_intertwiner",
    "adjoint_tensor.build_decomposition",
    "spinchain.spin_operators",
    "spinchain.chain_H",
    "spinchain.transfer_matrix",
    "numerics.eig_general",
    "jsonio.dumps",
    "jsonio.matrix_to_json",
)

# the two dense contractions of rmatrix.ybe_residual and the three pair
# applications of its matrix-free probes, as written in that module
YBE_DENSE_EXPRS = ("abde,dcxi,eiyz->abcxyz", "bcef,afgz,gexy->abcxyz")
YBE_PROBE_EXPRS = ("abxy,xyc->abc", "acxz,xyz->ayc", "bcyz,xyz->xbc")

_WRAPPED = "__perfbench_original__"


def _adjrmat_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "adjrmat" or k.startswith("adjrmat."))]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    context: dict
    start: float = 0.0
    end: float = 0.0
    rss_mb: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def root_time(spans) -> float:
    """Wall time covered by spans that have no parent span."""
    return sum(s.duration for s in spans if s.parent is None)


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ybe_attrs(fn, args, kwargs, result) -> dict:
    a = _arguments(fn, args, kwargs)
    return {"mode": a["mode"], "m": a["dec"].n ** 2 - 1, "probes": a["probes"]}


def _transfer_attrs(fn, args, kwargs, result) -> dict:
    a = _arguments(fn, args, kwargs)
    return {"m": a["dec"].n ** 2 - 1, "sites": a["sites"]}


def _dumps_attrs(fn, args, kwargs, result) -> dict:
    return {"bytes_out": len(result.encode("utf-8"))}


ATTRS = {
    "rmatrix.ybe_residual": _ybe_attrs,
    "spinchain.transfer_matrix": _transfer_attrs,
    "jsonio.dumps": _dumps_attrs,
}


def decomposition_bytes(dec) -> int:
    """Bytes held by a decomposition: bases, isometry and cached projectors."""
    total = dec.iso_s_to_a.nbytes
    for sub in dec.submodules:
        total += sub.basis.nbytes
        cached = getattr(sub, "_projector", None)
        if cached is not None:
            total += cached.nbytes
    return total


class Tracer:
    """Records spans while installed; writes them as JSON lines on request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.context: dict = {}
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._bound: list[tuple[object, str, object]] = []
        self._decompositions: list[tuple[Span, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every layer function in every loaded adjrmat module."""
        if self._bound:
            raise RuntimeError("tracer is already installed")
        modules = _adjrmat_modules()
        for layer, names in LAYERS.items():
            home = sys.modules[f"adjrmat.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if mod.__dict__.get(fname) is original:
                        self._bound.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._bound):
            setattr(mod, fname, original)
        self._bound.clear()

    def _wrap(self, name: str, fn):
        large = name in LARGE_ARRAY
        attrs = ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, next(tracer._ids), stack[-1] if stack else None, tracer.context)
            stack.append(span.id)
            rss0 = _maxrss_mb() if large else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if large:
                    span.rss_mb = _maxrss_mb() - rss0
                tracer.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(fn, args, kwargs, result)
            if name == "adjoint_tensor.build_decomposition":
                # projectors are cached lazily during the command, so the
                # footprint is taken when the command ends
                tracer._decompositions.append((span, result))
            return result

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    # -- command boundaries -------------------------------------------------

    def begin_command(self, workload: str, pass_index: int, n: int):
        self.context = {"workload": workload, "pass": pass_index, "n": n}

    def end_command(self):
        for span, dec in self._decompositions:
            span.attrs["bytes"] = decomposition_bytes(dec)
        self._decompositions.clear()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"name": s.name, "id": s.id, "parent": s.parent,
                       "start": s.start, "end": s.end, **s.context}
                if s.rss_mb is not None:
                    rec["rss_mb"] = s.rss_mb
                rec.update(s.attrs)
                fh.write(json.dumps(rec) + "\n")


def wrapped_bindings() -> list[str]:
    """Names in loaded adjrmat modules that are still bound to a span wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _adjrmat_modules()
            for attr, value in vars(mod).items() if hasattr(value, _WRAPPED)]


# -- computed counts ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def einsum_flops(expr: str, *shapes: tuple[int, ...]) -> float:
    """Optimized FLOP count that ``np.einsum_path`` reports for ``expr``."""
    import numpy as np

    operands = [np.empty(s, dtype=complex) for s in shapes]
    _, text = np.einsum_path(expr, *operands, optimize=True)
    return float(re.search(r"Optimized FLOP count:\s*(\S+)", text).group(1))


def ybe_dense_flops(m: int) -> float:
    r4 = (m,) * 4
    return sum(einsum_flops(e, r4, r4, r4) for e in YBE_DENSE_EXPRS)


def ybe_probe_flops(m: int, probes: int) -> float:
    r4, v = (m,) * 4, (m,) * 3
    return probes * 2 * sum(einsum_flops(e, r4, v) for e in YBE_PROBE_EXPRS)


def layer_metrics(spans, pass_times: list[float]) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``len(pass_times)`` traced passes.

    Counts and times are per-pass means; ``.rss_mb`` is the high-water-mark
    growth summed over the whole traced run (it only grows, so it shows up
    mostly in the first traced pass).
    """
    passes = len(pass_times)
    selfs = self_times(spans)
    out: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for layer, names in LAYERS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            mine = [s for s in spans if s.name == name]
            own = sum(selfs[s.id] for s in mine)
            layer_self[layer] += own
            out[f"{name}.calls"] = len(mine) / passes
            out[f"{name}.total_s"] = sum(s.duration for s in mine) / passes
            out[f"{name}.self_s"] = own / passes
            if name in LARGE_ARRAY:
                out[f"{name}.rss_mb"] = sum(s.rss_mb for s in mine)
    for layer, total in layer_self.items():
        out[f"{layer}.self_s"] = total / passes
    out["cli.self_s"] = (sum(pass_times) - root_time(spans)) / passes

    ybe = [s for s in spans if s.name == "rmatrix.ybe_residual"]
    dense = [s for s in ybe if s.attrs["mode"] == "dense"]
    dense_flops = sum(ybe_dense_flops(s.attrs["m"]) for s in dense)
    dense_self = sum(selfs[s.id] for s in dense)
    out["rmatrix.ybe_dense.flops"] = dense_flops / passes
    out["rmatrix.ybe_dense.bytes"] = sum(2 * 16 * s.attrs["m"] ** 6 for s in dense) / passes
    out["rmatrix.ybe_dense.gflops"] = dense_flops / dense_self / 1e9 if dense_self else 0.0
    out["rmatrix.ybe_probe.flops"] = sum(
        ybe_probe_flops(s.attrs["m"], s.attrs["probes"]) for s in ybe if s.attrs["mode"] != "dense"
    ) / passes
    out["adjoint_tensor.decomposition.bytes"] = max(
        (s.attrs["bytes"] for s in spans if s.name == "adjoint_tensor.build_decomposition"),
        default=0,
    )
    out["spinchain.transfer_matrix.bytes"] = max(
        (16 * s.attrs["m"] ** (2 * s.attrs["sites"] + 2)
         for s in spans if s.name == "spinchain.transfer_matrix"),
        default=0,
    )
    out["jsonio.bytes_out"] = sum(
        s.attrs["bytes_out"] for s in spans if s.name == "jsonio.dumps"
    ) / passes
    return out


def per_layer_catalogue() -> list[dict]:
    """The per-layer metric declarations that BENCHMARK.json lists."""
    units = {"calls": "count", "total_s": "s", "self_s": "s", "rss_mb": "MB"}
    out = []
    for layer, names in LAYERS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            for key in ("calls", "total_s", "self_s", "rss_mb"):
                if key == "rss_mb" and name not in LARGE_ARRAY:
                    continue
                out.append({"name": f"{name}.{key}", "unit": units[key], "better": "lower"})
    for layer in (*LAYERS, "cli"):
        out.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    out += [
        {"name": "rmatrix.ybe_dense.flops", "unit": "flop", "better": "lower"},
        {"name": "rmatrix.ybe_dense.bytes", "unit": "B", "better": "lower"},
        {"name": "rmatrix.ybe_dense.gflops", "unit": "GFLOP/s", "better": "higher"},
        {"name": "rmatrix.ybe_probe.flops", "unit": "flop", "better": "lower"},
        {"name": "adjoint_tensor.decomposition.bytes", "unit": "B", "better": "lower"},
        {"name": "spinchain.transfer_matrix.bytes", "unit": "B", "better": "lower"},
        {"name": "jsonio.bytes_out", "unit": "B", "better": "lower"},
        {"name": "trace.pass_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    ]
    return out
