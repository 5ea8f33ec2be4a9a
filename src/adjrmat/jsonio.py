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

Lists are formatted entry by entry.  A complex array of any rank goes to one
vectorised core in one call.  Its work follows the pairs that are not
(+0.0, +0.0) and the distinct doubles of the whole array, not the number of
entries: a run of such zero pairs inside a row is one repeated string, the
float formatter runs once per distinct double (by bit pattern) of the other
pairs, and the tokens, separators and zero runs are gathered with numpy into
one object array and joined once.  The bytes are the same as formatting every
entry on its own.
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
    elif isinstance(obj, np.ndarray):
        out.append(_complex_array_token(obj, indent, level))
    else:
        out.append(_leaf_token(obj))


# a (+0.0, +0.0) pair and the separator that follows it inside a row
_ZERO_PAIR = "0.0, 0.0], ["


def _complex_array_token(data: np.ndarray, indent: int, level: int) -> str:
    """The text of a complex array at nesting ``level``: the nested lists of its [re, im] pairs.

    The work follows the pairs that are not (+0.0, +0.0), not the entries.
    _format_float runs once per distinct double (by bit pattern) of those
    pairs over the whole array.  They, and the last pair of each row, are
    written one by one as four pieces: re, ", ", im, and what follows up to
    the next such pair: "], [" inside a row, or the lists closed and
    reopened between rows, then ``_ZERO_PAIR`` repeated once per zero pair
    skipped.  The pieces are gathered in one object array and joined once.
    """
    if data.dtype != np.complex128 or data.ndim < 1:
        raise TypeError(f"cannot serialize {data.dtype} array of shape {data.shape}")
    rank, width = data.ndim, data.shape[-1]
    pads = [" " * (indent * (level + a)) for a in range(rank)]
    if not data.size:
        if rank == 1 or not len(data):
            return "[]"
        inner = _complex_array_token(data[0], indent, level + 1)  # every item is the same
        return "[\n" + ",\n".join([pads[1] + inner] * len(data)) + "\n" + pads[0] + "]"
    # bit patterns, not values: 0.0 == -0.0 but they print differently
    bits = np.ascontiguousarray(data).reshape(-1).view(np.uint64).reshape(-1, 2)
    nonzero = (bits[:, 0] | bits[:, 1]) != 0
    used = np.compress(nonzero, bits, axis=0).reshape(-1)
    finite = np.isfinite(used.view(np.float64))
    if not finite.all():
        _format_float(float(used.view(np.float64)[np.argmin(finite)]))  # raises on the first one
    doubles, inverse = np.unique(used, return_inverse=True)
    # made in order of first appearance, so the gather below reads them in
    # the order they lie in memory when most doubles are distinct
    first = np.full(doubles.size, used.size)
    np.minimum.at(first, inverse, np.arange(used.size))
    order = np.argsort(first)
    tokens = np.empty(doubles.size + 1, dtype=object)
    tokens[order] = [_format_float(x) for x in doubles[order].view(np.float64).tolist()]
    tokens[-1] = "0.0"  # for a zero pair that ends a row
    written = nonzero.copy()
    written[width - 1 :: width] = True
    idx = np.flatnonzero(written)
    which = np.full((idx.size, 2), doubles.size)
    which[nonzero[idx]] = inverse.reshape(-1, 2)
    # what follows each written pair, by kind: "], [" inside a row (rank);
    # after a row, the lists of the j axes that roll over before the next row
    # closed and reopened (j < rank - 1), or every list closed at the end (rank - 1)
    ends = np.flatnonzero(idx % width == width - 1)
    kind = np.full(idx.size, rank)
    kind[ends] = rank - 1
    row = np.arange(1, ends.size)
    rolled = np.zeros(row.size, dtype=np.intp)
    span = 1
    for size in data.shape[-2:0:-1]:
        span *= size
        rolled += row % span == 0
    kind[ends[:-1]] = rolled
    skipped = np.diff(idx, append=idx[-1] + 1) - 1  # zero pairs, all in the same row
    follows, follow = np.unique(kind * width + skipped, return_inverse=True)
    closes = ["\n" + pads[a] + "]" for a in range(rank - 1)]  # closes[a] ends a list of axis a
    opens = [pads[a] + "[\n" for a in range(rank - 1)]
    seps = [
        "]]" + "".join(closes[rank - 1 - j :][::-1]) + ",\n"
        + "".join(opens[rank - 1 - j :]) + pads[-1] + "[["
        for j in range(rank - 1)
    ]
    seps += ["]]" + "".join(closes[::-1]), "], ["]
    follows = [seps[k // width] + _ZERO_PAIR * (k % width) for k in follows.tolist()]
    pieces = np.empty((idx.size, 4), dtype=object)
    pieces[:, 0::2] = tokens[which]
    pieces[:, 1] = ", "
    pieces[:, 3] = np.array(follows, dtype=object)[follow]
    # the lists opened, and the zero pairs before the first written one
    head = "".join("[\n" + pads[a + 1] for a in range(rank - 1)) + "[[" + _ZERO_PAIR * int(idx[0])
    pieces[0, 0] = head + pieces[0, 0]
    return "".join(pieces.reshape(-1).tolist())


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
    out.append("\n")
    return "".join(out)


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
