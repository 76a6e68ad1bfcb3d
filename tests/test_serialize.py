import numpy as np
import pytest

from lacsum import GridFunction, LacsumError, Spectrum, TorusGrid, synthesize
from lacsum.serialize import (
    csv_text,
    dumps,
    gridfunction_from_dict,
    gridfunction_slice_rows,
    gridfunction_to_dict,
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
    path = save_json(gridfunction_to_dict(f), tmp_path / "f.json")
    back = gridfunction_from_dict(load_json(path))
    assert back.grid == grid
    assert np.array_equal(back.values, f.values)


def test_schema_mismatch():
    with pytest.raises(LacsumError):
        spectrum_from_dict({"schema": "other"})
    with pytest.raises(LacsumError):
        gridfunction_from_dict({"schema": "other"})


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


def test_gridfunction_document_validation():
    doc = gridfunction_to_dict(GridFunction(TorusGrid((4,)), np.zeros(4, dtype=complex)))
    for key in ("L", "values"):
        with pytest.raises(LacsumError, match="needs 'L'"):
            gridfunction_from_dict({k: v for k, v in doc.items() if k != key})
    with pytest.raises(LacsumError):
        gridfunction_from_dict(dict(doc, L=[4, "x"]))
    with pytest.raises(LacsumError):
        gridfunction_from_dict([doc])


def test_dumps_deterministic_and_sorted():
    doc = {"b": 1, "a": [np.float64(0.5), np.int64(2)]}
    out = dumps(doc)
    assert out == dumps(doc)
    assert out.index('"a"') < out.index('"b"')


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
