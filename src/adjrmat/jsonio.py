"""Deterministic JSON emission and the matrix wire format.

Floats are rendered with 17 significant digits so every double round-trips
exactly and repeated runs produce byte-identical reports.  Matrices travel as
{"rows": R, "cols": C, "data": [[re, im], ...]} with the entries row-major.

``dumps`` writes a complex numpy array exactly as the nested lists of its
``.view(float).reshape(*shape, 2).tolist()``: a one-dimensional array is the
list of its [re, im] pairs.  The CLI hands it :func:`matrix_payload`, whose
"data" is that array, and the basis tensors as arrays, so no Python list
stands between a built object and its text.  :func:`matrix_to_json` is the
plain JSON value of a matrix, the form ``json.loads`` gives back from the
written file.

Lists are formatted entry by entry.  A one-dimensional complex array is
formatted in chunks of 32,768 entries, calling the float formatter once per
distinct double (by bit pattern) of a chunk and gathering the tokens with
numpy; the bytes are the same as formatting every entry on its own, and the
Python-level cost follows the number of distinct values, not of entries.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "dumps",
    "complex_pair",
    "matrix_payload",
    "matrix_to_json",
    "matrix_from_json",
]


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _encode(obj, indent: int, level: int, out: list[str]):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad_in + json.dumps(str(key)) + ": ")
            _encode(value, indent, level + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        if _is_leaf_array(items):
            out.append("[" + ", ".join(_leaf_token(v) for v in items) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(pad_in)
            _encode(value, indent, level + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray) and obj.ndim > 1:
        _encode(list(obj), indent, level, out)  # nested like the lists of .tolist()
    elif isinstance(obj, np.ndarray):
        out.append(_complex_array_token(obj))
    else:
        out.append(_leaf_token(obj))


# pairs formatted and joined per chunk, which bounds the transient arrays and strings
_PAIR_CHUNK = 1 << 15


def _complex_array_token(data: np.ndarray) -> str:
    """Format a 1-D complex array as [[re, im], ...].

    _format_float runs once per distinct double (by bit pattern) of each chunk.
    """
    if data.dtype != np.complex128 or data.ndim != 1:
        raise TypeError(f"cannot serialize {data.dtype} array of shape {data.shape}")
    if not data.size:
        return "[]"
    chunks = []
    for start in range(0, data.size, _PAIR_CHUNK):
        values = np.ascontiguousarray(data[start : start + _PAIR_CHUNK]).view(np.float64)
        finite = np.isfinite(values)
        if not finite.all():
            _format_float(float(values[np.argmin(finite)]))  # raises on the first one
        # distinct bit patterns, not values: 0.0 == -0.0 but they print differently
        bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        tokens = np.array([_format_float(x) for x in bits.view(np.float64).tolist()], dtype=object)
        woven = np.empty(2 * values.size - 1, dtype=object)
        woven[0::2] = tokens[inverse]
        woven[1::4] = ", "
        woven[3::4] = "], ["
        chunks.append("".join(woven.tolist()))
    return "[[" + "], [".join(chunks) + "]]"


def _is_scalar(v) -> bool:
    return isinstance(v, (bool, int, float, str, np.integer, np.floating)) or v is None


def _is_leaf_array(items) -> bool:
    if all(_is_scalar(v) for v in items):
        return True
    # [re, im] pairs print inline as well
    return all(
        isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_scalar(u) for u in v)
        for v in items
    )


def _leaf_token(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_leaf_token(u) for u in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dumps(obj, indent: int = 2) -> str:
    """Serialize to a deterministic JSON string (keys keep insertion order)."""
    out: list[str] = []
    _encode(obj, indent, 0, out)
    return "".join(out) + "\n"


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_payload(m: np.ndarray) -> dict:
    """{"rows", "cols", "data"} with "data" the row-major entries as a 1-D complex array.

    ``dumps`` writes it byte-for-byte as :func:`matrix_to_json` of the same matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.ascontiguousarray(m).reshape(-1),
    }


def matrix_to_json(m: np.ndarray) -> dict:
    """The matrix as a plain JSON value: "data" is a list of [re, im] lists of floats."""
    payload = matrix_payload(m)
    payload["data"] = payload["data"].view(float).reshape(-1, 2).tolist()
    return payload


def matrix_from_json(d: dict) -> np.ndarray:
    rows, cols = int(d["rows"]), int(d["cols"])
    pairs = np.asarray(d["data"])  # a ragged list raises ValueError here
    if pairs.dtype.kind not in "biuf":
        raise ValueError(f"matrix data must be numbers, got dtype {pairs.dtype}")
    pairs = pairs.astype(float, copy=False)
    if pairs.shape == (0,):
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"matrix data entries must be [re, im] pairs, got shape {pairs.shape}")
    if pairs.shape[0] != rows * cols:
        raise ValueError(f"matrix data length {pairs.shape[0]} != {rows}x{cols}")
    return np.ascontiguousarray(pairs).view(complex).reshape(rows, cols)
