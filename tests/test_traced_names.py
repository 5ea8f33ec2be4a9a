"""The benchmark's tracer (perfbench/tracing.py) rebinds package functions by name.

A function it lists that disappears, or loses a parameter its span
attributes read, breaks traced runs without failing any other test.
"""

import ast
import importlib
import inspect
from pathlib import Path

from adjrmat.rmatrix import ybe_residual
from adjrmat.spinchain import transfer_matrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_layers() -> dict:
    """The literal ``LAYERS`` dict of tracing.py, read without importing the benchmark."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} defines no LAYERS")


def test_traced_functions_exist():
    layers = _traced_layers()
    assert layers
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"adjrmat.{layer}"), name, None))
    ]
    assert missing == []


def test_traced_parameters_exist():
    assert {"dec", "mode", "probes"} <= set(inspect.signature(ybe_residual).parameters)
    assert {"dec", "sites"} <= set(inspect.signature(transfer_matrix).parameters)
