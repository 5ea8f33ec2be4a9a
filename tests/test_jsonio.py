"""The matrix wire format against the retired per-element encoder.

``_dumps_oracle`` is the per-element encoder: every entry is formatted on its
own.  ``dumps`` must reproduce its bytes exactly, on hand-picked payloads and
on the files the CLI writes, and a complex array given to ``dumps`` must give
the oracle's bytes for the list of its [re, im] pairs.
"""

import json
import math

import numpy as np
import pytest

from adjrmat import jsonio
from adjrmat.cli import main


def _oracle_format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _oracle_is_scalar(v) -> bool:
    return isinstance(v, (bool, int, float, str, np.integer, np.floating)) or v is None


def _oracle_is_leaf_array(items) -> bool:
    if all(_oracle_is_scalar(v) for v in items):
        return True
    return all(
        isinstance(v, (list, tuple)) and len(v) == 2 and all(_oracle_is_scalar(u) for u in v)
        for v in items
    )


def _oracle_leaf_token(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _oracle_format_float(float(v))
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_oracle_leaf_token(u) for u in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _oracle_encode(obj, indent: int, level: int, out: list[str]):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad_in + json.dumps(str(key)) + ": ")
            _oracle_encode(value, indent, level + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        if _oracle_is_leaf_array(items):
            out.append("[" + ", ".join(_oracle_leaf_token(v) for v in items) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(pad_in)
            _oracle_encode(value, indent, level + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        out.append(_oracle_leaf_token(obj))


def _dumps_oracle(obj, indent: int = 2) -> str:
    out: list[str] = []
    _oracle_encode(obj, indent, 0, out)
    return "".join(out) + "\n"


def _first_difference(text: str, expected: str) -> str | None:
    """None if equal, else where they part; cheaper than pytest's diff of long strings."""
    if text == expected:
        return None
    i = next((k for k, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
    return f"differ at offset {i}: {text[i - 40 : i + 40]!r} != {expected[i - 40 : i + 40]!r}"


TINY = 5e-324
EDGE_FLOATS = [
    0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308 / 3, 1.0 / 3.0, -2.5,
    1e16 - 2.0, 1e16, 1e16 + 2.0, -(1e16 - 2.0), 9007199254740993.0, 1e300, -1e-300,
]

PAYLOADS = {
    "edge-floats-as-pairs": {"data": [[x, y] for x in EDGE_FLOATS for y in (0.0, -0.0, x)]},
    "edge-floats-flat": {"values": EDGE_FLOATS},
    "mixed-scalars-in-pairs": {
        "data": [[1, 2.0], [True, 0.5], [None, -0.0], [np.float64(0.25), 1.0],
                 [np.float64(-0.0), np.int64(3)], [False, None]],
    },
    "numpy-floats-only": {"data": [[np.float64(0.1), np.float64(-0.0)]] * 3},
    "tuples": {"data": [(0.5, -0.0), (1.0, 2.0)]},
    "strings-in-pairs": {"data": [["a", 1.0], [0.5, "b"]]},
    "ragged": {"data": [[0.5, 1.0], [0.25], [1.0, 2.0, 3.0]]},
    "empty-list": [],
    "empty-dict": {},
    "empty-data": {"rows": 0, "cols": 0, "data": []},
    "empty-pair-in-matrix": {"rows": 2, "cols": 1, "data": [[0.5, 1.0], []]},
    "nested": {
        "kind": "report",
        "checks": [{"id": "a", "residual": 1e-17, "pass": True, "params": {"lam": [0.5, -0.0]}},
                   {"id": "b", "residual": 0.0, "pass": False, "extra": {}}],
        "eigenvalues": [[4.0, 0.0], [4.0, -0.0], [-1.5, 1e-300]],
        "grid": [[[[0.5, 0.5], [0.0, -0.0]], [[TINY, 1.0], [2.0, 3.0]]]],
        "counts": {"total": 2, "failed": 1},
    },
    "one-by-one": jsonio.matrix_to_json(np.array([[-0.0 + 5e-324j]])),
    "one-by-one-zero": jsonio.matrix_to_json(np.zeros((1, 1), dtype=complex)),
}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_dumps_matches_oracle(name):
    payload = PAYLOADS[name]
    assert jsonio.dumps(payload) == _dumps_oracle(payload)
    assert jsonio.dumps(payload, indent=4) == _dumps_oracle(payload, indent=4)




def _as_lists(obj):
    """The payload with every complex array replaced by its list of [re, im] float pairs."""
    if isinstance(obj, np.ndarray):
        return [[float(z.real), float(z.imag)] for z in obj]
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(value) for value in obj]
    return obj


def _edge_matrix(rng, shape) -> np.ndarray:
    m = np.empty(shape, dtype=complex)
    # set the parts separately: re + 1j*im would not keep every signed zero
    m.real = rng.choice(np.array(EDGE_FLOATS), shape)
    m.imag = rng.choice(np.array(EDGE_FLOATS), shape)
    return m


def test_large_pair_list_matches_oracle_across_chunks(rng):
    """Both input forms of a matrix column of 98,311 pairs drawn from a small pool."""
    pool = np.array(EDGE_FLOATS + list(rng.standard_normal(50)))
    m = np.empty((3 * 32768 + 7, 1), dtype=complex)
    m.real = rng.choice(pool, m.shape)
    m.imag = rng.choice(pool, m.shape)
    expected = _dumps_oracle(jsonio.matrix_to_json(m))
    for payload in (jsonio.matrix_to_json(m), jsonio.matrix_payload(m)):
        assert _first_difference(jsonio.dumps(payload), expected) is None


def test_matrix_payload_matches_matrix_to_json(rng):
    m = _edge_matrix(rng, (5, 6))
    cases = [m, m.T, m[::2, 1::3], m[:, ::-1], m[:1, :1], np.array([[-0.0 + 5e-324j]]),
             np.zeros((0, 4), dtype=complex), np.zeros((3, 0), dtype=complex),
             np.arange(6.0).reshape(2, 3)]
    for mat in cases:
        payload = jsonio.matrix_payload(mat)
        assert payload["data"].dtype == np.complex128 and payload["data"].ndim == 1
        assert payload["data"].flags.c_contiguous
        plain = jsonio.matrix_to_json(mat)
        assert _as_lists(payload) == plain
        for indent in (2, 4):
            assert jsonio.dumps(payload, indent=indent) == _dumps_oracle(plain, indent=indent)
    with pytest.raises(ValueError, match="expected a matrix"):
        jsonio.matrix_payload(np.zeros(3))


def test_complex_arrays_nested_in_dicts(rng):
    payload = {
        "kind": "decomposition",
        "modules": [
            {"label": "a", "projector": jsonio.matrix_payload(_edge_matrix(rng, (3, 3)))},
            {"label": "b", "projector": jsonio.matrix_payload(_edge_matrix(rng, (2, 2)).T)},
            {"label": "empty", "projector": jsonio.matrix_payload(np.zeros((0, 2), dtype=complex))},
        ],
        "eigenvalues": _edge_matrix(rng, (11,)),
        "single": np.array([1e16 + 2j]),
        "strided": _edge_matrix(rng, (9,))[::3],
        "count": 3,
    }
    plain = _as_lists(payload)
    for indent in (2, 4):
        assert jsonio.dumps(payload, indent=indent) == _dumps_oracle(plain, indent=indent)


@pytest.mark.parametrize(
    "array",
    [np.array(1j), np.zeros(3), np.zeros((2, 3)), np.zeros(3, dtype=np.complex64)],
    ids=["complex-0d", "float64", "float64-2d", "complex64"],
)
def test_other_arrays_are_refused(array):
    with pytest.raises(TypeError, match="cannot serialize"):
        jsonio.dumps({"data": array})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_array_entries_raise_as_the_list_path(bad, part):
    data = np.array([0.5 + 1j, 2.0 + 0j, complex(-math.inf, 1.0)])
    data[1] = complex(bad, 0.0) if part == "real" else complex(2.0, bad)
    with pytest.raises(ValueError) as fast:
        jsonio.dumps({"data": data})
    with pytest.raises(ValueError) as pairs:
        jsonio.dumps(_as_lists({"data": data}))
    with pytest.raises(ValueError) as oracle:
        _dumps_oracle(_as_lists({"data": data}))
    assert str(fast.value) == str(pairs.value) == str(oracle.value)
    assert str(fast.value) == f"non-finite value {bad!r} cannot be serialized"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", ["pairs", "flat", "mixed-pairs"])
def test_non_finite_values_raise(bad, wrap):
    if wrap == "pairs":
        payload = {"data": [[0.5, 1.0], [2.0, bad], [bad, -math.inf]]}
    elif wrap == "flat":
        payload = {"values": [0.5, bad]}
    else:
        payload = {"data": [[1, 0.5], [bad, 2]]}
    with pytest.raises(ValueError, match="non-finite value .* cannot be serialized") as fast:
        jsonio.dumps(payload)
    with pytest.raises(ValueError) as oracle:
        _dumps_oracle(payload)
    assert str(fast.value) == str(oracle.value)


def test_matrix_to_json_matches_per_entry_form(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = complex(-0.0, -0.0)
    for mat in (m, m.T, m[:, ::2], m[::2, :1]):
        payload = jsonio.matrix_to_json(mat)
        assert (payload["rows"], payload["cols"]) == mat.shape
        expected = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
        assert payload["data"] == expected
        assert all(type(x) is float for pair in payload["data"] for x in pair)
        assert str(payload["data"][0]) == str(expected[0])
    with pytest.raises(ValueError, match="expected a matrix"):
        jsonio.matrix_to_json(np.zeros(3))


def test_dumps_writes_complex_arrays_as_nested_pairs(rng):
    """A complex array of any rank is written as the nested lists of its tolist()."""
    t = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    t[1, 2, 3] = complex(-0.0, 0.0)
    for arr in (t, t.transpose(2, 0, 1), t[:, ::2, ::-1], t[:, :0], t[:0], t[0]):
        plain = np.ascontiguousarray(arr).view(float).reshape(*arr.shape, 2).tolist()
        for indent in (2, 4):
            assert jsonio.dumps({"t": arr}, indent=indent) == _dumps_oracle({"t": plain}, indent=indent)


def _bit_patterns(values) -> set[int]:
    return set(np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64).tolist())


def test_format_float_runs_once_per_distinct_nonzero_pair_double(monkeypatch, rng):
    """The cost model of the array core: one format per distinct double of the
    pairs that are not (+0.0, +0.0), counted by bit pattern over the whole array."""
    m = np.zeros((300, 300), dtype=complex)
    live = rng.random(m.shape) < 0.05
    # set the parts separately: re + 1j*im would not keep every signed zero
    m.real[live] = rng.choice(np.array(EDGE_FLOATS), live.sum())
    m.imag[live] = rng.choice(np.array(EDGE_FLOATS + [0.25, -7.0]), live.sum())
    m[0, 0], m[5, 7], m[299, 299] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(1.0, 0.0)
    calls = []
    format_float = jsonio._format_float
    monkeypatch.setattr(jsonio, "_format_float", lambda x: calls.append(x) or format_float(x))
    text = jsonio.dumps(jsonio.matrix_payload(m))
    pairs = m.reshape(-1).view(np.uint64).reshape(-1, 2)
    nonzero = pairs[(pairs != 0).any(axis=1)].view(np.float64)
    assert len(calls) == len(_bit_patterns(calls)) == len(_bit_patterns(nonzero))
    assert _bit_patterns(calls) == _bit_patterns(nonzero)
    assert text == _dumps_oracle(jsonio.matrix_to_json(m))


def test_an_array_of_any_rank_enters_the_core_once(monkeypatch, rng):
    t = rng.standard_normal((4, 5, 6)) + 1j * rng.standard_normal((4, 5, 6))
    t[1] = 0.0
    calls = []
    core = jsonio._complex_array_token
    monkeypatch.setattr(jsonio, "_complex_array_token", lambda *a: calls.append(a[0].shape) or core(*a))
    text = jsonio.dumps({"t": t, "m": t[0], "v": t[0, 0]})
    assert calls == [(4, 5, 6), (5, 6), (6,)]
    plain = {key: np.ascontiguousarray(a).view(float).reshape(*a.shape, 2).tolist()
             for key, a in (("t", t), ("m", t[0]), ("v", t[0, 0]))}
    assert text == _dumps_oracle(plain)


def test_matrix_from_json_shapes():
    back = jsonio.matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, -0.0], [0, 2]]})
    assert back.shape == (1, 2) and back.dtype == complex
    assert np.signbit(back[0, 0].imag) and back[0, 1] == 2j
    assert jsonio.matrix_from_json({"rows": 0, "cols": 3, "data": []}).shape == (0, 3)
    with pytest.raises(ValueError, match="length 2 != 1x3"):
        jsonio.matrix_from_json({"rows": 1, "cols": 3, "data": [[1.0, 0.0], [0.0, 1.0]]})
    bad = ([[1.0, 0.0], [1.0]], [[1.0, 0.0, 2.0]], [1.0, 0.0], [[]], [["1", "2"]], [[None, 1.0]])
    for data in bad:
        with pytest.raises(ValueError):
            jsonio.matrix_from_json({"rows": 1, "cols": 1, "data": data})


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "rmatrix", "--n", "3", "--lambda", "0.5,0.2"),
        ("build", "projectors", "--n", "3"),
        ("build", "hamiltonian", "--n", "3", "--sites", "2"),
        ("spectrum", "--n", "3", "--sites", "2"),
        # the 3-D f and d tensors
        pytest.param(("build", "basis", "--n", "3"), id="build-basis"),
        # 262,144 entries, mostly runs of zero pairs
        pytest.param(("build", "hamiltonian", "--n", "3", "--sites", "3"), id="build-hamiltonian-3-sites"),
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_cli_output_matches_oracle(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert _first_difference(text, _dumps_oracle(payload)) is None
    matrices = [mod["projector"] for mod in payload.get("modules", [])]
    if "rows" in payload:
        matrices.append(payload)
    for value in matrices:  # the harness's round trip through the plain-list form
        assert jsonio.matrix_to_json(jsonio.matrix_from_json(value)) == value
