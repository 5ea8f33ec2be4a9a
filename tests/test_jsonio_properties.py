"""Property tests of the matrix wire format: exact round trips, and the bytes
of the retired per-element encoder, on random complex matrices, written from
the plain lists of ``matrix_to_json`` and from the array of ``matrix_payload``,
and on sparse complex arrays of rank 1 to 3 and their views."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from adjrmat import jsonio  # noqa: E402
from test_jsonio import EDGE_FLOATS, _dumps_oracle  # noqa: E402

# a small pool makes repeated values (and both signed zeros) common
_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS + [0.5, -0.5, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def complex_matrices(draw):
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    m = np.empty(shape, dtype=complex)
    # set the parts separately: re + 1j*im would not keep every signed zero
    m.real = draw(hnp.arrays(np.float64, shape, elements=_floats))
    m.imag = draw(hnp.arrays(np.float64, shape, elements=_floats))
    return m


def _bits(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(m).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(complex_matrices())
def test_matrix_round_trip_is_bit_exact(m):
    back = jsonio.matrix_from_json(json.loads(jsonio.dumps(jsonio.matrix_to_json(m))))
    assert back.shape == m.shape
    assert np.array_equal(_bits(back), _bits(m))


@settings(max_examples=150, deadline=None)
@given(complex_matrices())
def test_dumps_matches_oracle(m):
    payload = jsonio.matrix_to_json(m)
    assert jsonio.dumps(payload) == _dumps_oracle(payload)
    assert jsonio.dumps(jsonio.matrix_payload(m)) == jsonio.dumps(payload)
    transposed = jsonio.matrix_to_json(m.T)
    assert jsonio.dumps(jsonio.matrix_payload(m.T), indent=4) == _dumps_oracle(transposed, indent=4)


_SIGNED_ZEROS = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)]


@st.composite
def sparse_arrays(draw):
    """Mostly (+0.0, +0.0) pairs: zero runs at either end or over the whole
    array, lone signed-zero pairs, and strided, reversed or transposed views."""
    shape = tuple(draw(st.lists(st.integers(0, 7), min_size=1, max_size=3)))
    m = np.empty(shape, dtype=complex)
    # set the parts separately: re + 1j*im would not keep every signed zero
    m.real = draw(hnp.arrays(np.float64, shape, elements=_floats, fill=st.just(0.0)))
    m.imag = draw(hnp.arrays(np.float64, shape, elements=_floats, fill=st.just(0.0)))
    flat = m.reshape(-1)
    if flat.size:
        for i, (re, im) in draw(st.lists(
            st.tuples(st.integers(0, flat.size - 1), st.sampled_from(_SIGNED_ZEROS)), max_size=4
        )):
            flat.real[i], flat.imag[i] = re, im
    flat[: draw(st.integers(0, flat.size))] = 0.0
    flat[flat.size - draw(st.integers(0, flat.size)) :] = 0.0
    view = draw(st.sampled_from(["whole", "transposed", "strided", "reversed"]))
    if view == "transposed":
        return m.T
    if view == "strided":
        return m[..., ::2]
    if view == "reversed":
        return m[::-1]
    return m


@settings(max_examples=300, deadline=None)
@given(sparse_arrays())
def test_sparse_arrays_match_oracle(arr):
    plain = np.ascontiguousarray(arr).view(float).reshape(*arr.shape, 2).tolist()
    for indent in (2, 4):
        assert jsonio.dumps(arr, indent=indent) == _dumps_oracle(plain, indent=indent)
        assert jsonio.dumps({"a": [arr]}, indent=indent) == _dumps_oracle({"a": [plain]}, indent=indent)
