import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lacsum import GridFunction, LacsumError, Spectrum, TorusGrid, synthesize
from lacsum.serialize import (
    csv_text,
    dumps,
    gridfunction_slice_rows,
    gridfunction_to_dict,
    jsonify,
    load_json,
    save_json,
    spectrum_from_dict,
    spectrum_to_dict,
)


def test_spectrum_round_trip():
    rng = np.random.default_rng(0)
    s = Spectrum((2, 3), rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)))
    doc = spectrum_to_dict(s)
    assert len(doc["coefficients"]) == 35
    back = spectrum_from_dict(doc)
    assert back.bandwidth == s.bandwidth
    assert np.array_equal(back.coeffs, s.coeffs)


def test_gridfunction_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    grid = TorusGrid((4, 6))
    f = GridFunction(grid, rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    doc = load_json(save_json(gridfunction_to_dict(f), tmp_path / "f.json"))
    assert sorted(doc) == ["L", "N", "schema", "values"]
    assert (doc["schema"], doc["N"], doc["L"]) == ("lacsum.gridfunction/1", 2, [4, 6])
    # row-major [re, im] pairs, exact through the float repr round trip
    assert doc["values"] == [[v.real, v.imag] for v in f.values.reshape(-1)]


def test_schema_mismatch():
    with pytest.raises(LacsumError):
        spectrum_from_dict({"schema": "other"})


@pytest.mark.parametrize(
    "change",
    [
        {"B": None},
        {"coefficients": None},
        {"B": "2"},
        {"B": [2.0, 1]},
        {"B": [-1, 1]},
        {"coefficients": [[0.0, 1.0]]},
        {"coefficients": [["re", "im"]] * 15},
        {"coefficients": 3},
    ],
)
def test_spectrum_document_validation(change):
    doc = spectrum_to_dict(Spectrum((2, 1), np.zeros((5, 3), dtype=complex)))
    doc.update(change)
    doc = {k: v for k, v in doc.items() if v is not None}
    with pytest.raises(LacsumError):
        spectrum_from_dict(doc)


def test_dumps_deterministic_and_sorted():
    doc = {"b": 1, "a": [np.float64(0.5), np.int64(2)]}
    out = dumps(doc)
    assert out == dumps(doc)
    assert out.index('"a"') < out.index('"b"')


def _oracle(doc) -> str:
    """The stdlib's indented text of ``doc`` made plain through ``tolist``."""

    def plain(obj):
        if isinstance(obj, dict):
            return {str(k): plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, (np.ndarray, np.generic)):
            return plain(obj.tolist())
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        return obj

    return json.dumps(plain(doc), sort_keys=True, indent=2) + "\n"


_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308]
)
_SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_ARRAYS = st.one_of(
    arrays(np.bool_, _SHAPES),
    arrays(np.int64, _SHAPES),
    arrays(np.float64, _SHAPES, elements=_FLOATS),
    arrays(np.complex128, _SHAPES, elements=st.builds(complex, _FLOATS, _FLOATS)),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), _FLOATS,
    st.builds(complex, _FLOATS, _FLOATS),
    st.booleans().map(np.bool_), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
)
_DOCS = st.recursive(
    _SCALARS | _ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4) | st.integers(-3, 3), inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_DOCS)
def test_dumps_matches_the_stdlib_indented_text(doc):
    # byte for byte: bulk arrays at every depth, escapes and non-ASCII text,
    # NaN and infinities, int keys turned to strings (the last duplicate wins)
    assert dumps(doc) == _oracle(doc)


def test_dumps_writes_a_0d_array_as_its_scalar():
    assert dumps({"x": np.array(2.5)}) == '{\n  "x": 2.5\n}\n'
    assert jsonify([np.array(2.5), np.array(1 - 2j), np.array(True)]) == [2.5, [1.0, -2.0], True]


def test_dumps_too_deep_is_an_input_error():
    doc = np.zeros(2)
    for _ in range(5000):
        doc = [doc]
    with pytest.raises(LacsumError):
        dumps(doc)


def test_slice_rows_2d():
    grid = TorusGrid((4, 4, 4))
    f = synthesize(
        Spectrum((1, 1, 1), np.zeros((3, 3, 3), dtype=complex)), grid
    )
    names, rows = gridfunction_slice_rows(f, fixed={1: 2})
    assert names == ["x2", "x3", "re", "im"]
    assert len(rows) == 16
    text = csv_text(names, rows)
    assert text.splitlines()[0] == "x2,x3,re,im"


def test_slice_requires_low_dimension():
    grid = TorusGrid((4, 4, 4))
    f = GridFunction(grid, np.zeros((4, 4, 4), dtype=complex))
    with pytest.raises(LacsumError):
        gridfunction_slice_rows(f, fixed={})


def test_load_json_missing_file(tmp_path):
    with pytest.raises(LacsumError):
        load_json(tmp_path / "absent.json")
