"""The benchmark's tracer (perfbench/tracing.py) rebinds package functions by name.

A function it lists that disappears, or loses a parameter its span
attributes read, breaks traced runs without failing any other test.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import numpy as np

from adjrmat.adjoint_tensor import Decomposition
from adjrmat.rmatrix import ybe_residual
from adjrmat.spinchain import commutation_check, transfer_matrix

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


def test_traced_functions_take_a_decomposition():
    """ybe_residual and transfer_matrix spans read ``dec.n``; commutation_check passes dec on."""
    for fn in (ybe_residual, transfer_matrix, commutation_check):
        assert typing.get_type_hints(fn)["dec"] is Decomposition


def test_traced_decomposition_attributes(algebra):
    """tracing.decomposition_bytes reads dec.iso_s_to_a and the basis of every submodule."""
    dec = algebra.dec(3)
    assert dec.n == 3
    assert isinstance(dec.iso_s_to_a, np.ndarray)
    assert len(dec.submodules) == 6
    for sub in dec.submodules:
        assert isinstance(sub.basis, np.ndarray) and sub.basis.nbytes > 0
