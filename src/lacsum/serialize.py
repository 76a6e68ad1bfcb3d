"""JSON and CSV interchange for spectra, grid functions and reports.

Spectra serialize as ``{"schema", "N", "B", "coefficients"}`` with the
coefficients flattened row-major from -B to +B as ``[re, im]`` pairs; grid
functions carry grid metadata the same way. All writers are deterministic:
keys are sorted, no timestamps are embedded, and floats go through the
default repr round trip.

``dumps`` writes ``json.dumps(jsonify(doc), sort_keys=True, indent=2) + "\n"``
byte for byte: one stdlib C-encoder call formats each nonempty numeric array
in bulk, and each array-free part goes to the stdlib encoder whole.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import LacsumError
from .spectral import GridFunction, Spectrum

SPECTRUM_SCHEMA = "lacsum.spectrum/1"
GRIDFUNCTION_SCHEMA = "lacsum.gridfunction/1"


def jsonify(obj: Any) -> Any:
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())  # a 0-d array's tolist() is its scalar
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _pairs(values: np.ndarray) -> np.ndarray:
    """The ``(M, 2)`` float view of the C-ordered values: one ``[re, im]`` row each."""
    return np.ascontiguousarray(values, dtype=complex).reshape(-1).view(float).reshape(-1, 2)


def _unpairs(pairs, shape) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("expected a list of [re, im] pairs")
        return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise LacsumError(f"bad payload for shape {shape}: {exc}") from exc


def _open(doc: Any, schema: str, size_key: str, payload_key: str) -> tuple[tuple[int, ...], Any]:
    """Schema-checked ``(sizes, payload)`` of a spectrum document."""
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        found = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
        raise LacsumError(f"not a {schema} document: schema={found!r}")
    sizes = doc.get(size_key)
    if payload_key not in doc or not (
        isinstance(sizes, list) and sizes and all(type(v) is int and v >= 0 for v in sizes)
    ):
        raise LacsumError(
            f"{schema} document needs {size_key!r} (nonempty, nonnegative integers) and {payload_key!r}"
        )
    return tuple(sizes), doc[payload_key]


def spectrum_to_dict(spectrum: Spectrum) -> dict:
    return {
        "schema": SPECTRUM_SCHEMA,
        "N": spectrum.dimension,
        "B": list(spectrum.bandwidth),
        "coefficients": _pairs(spectrum.coeffs),
    }


def spectrum_from_dict(doc: dict) -> Spectrum:
    bw, payload = _open(doc, SPECTRUM_SCHEMA, "B", "coefficients")
    return Spectrum(bw, _unpairs(payload, tuple(2 * b + 1 for b in bw)))


def gridfunction_to_dict(f: GridFunction) -> dict:
    return {
        "schema": GRIDFUNCTION_SCHEMA,
        "N": f.grid.dimension,
        "L": list(f.grid.resolution),
        "values": _pairs(f.values),
    }


class _Text(str):
    """The indented JSON text, at depth 0, of a part that holds a bulk array."""


def _array_text(arr: np.ndarray) -> str:
    """One C-encoder call for the scalars, then each axis joined from the innermost."""
    if arr.dtype.kind == "c":
        arr = np.stack((arr.real, arr.imag), axis=-1)
    items = json.dumps(arr.ravel().tolist())[1:-1].split(", ")
    for axis in reversed(range(arr.ndim)):
        inner = "\n" + "  " * (axis + 1)
        sep, close, n = "," + inner, inner[:-2] + "]", arr.shape[axis]
        items = ["[" + inner + sep.join(items[i : i + n]) + close for i in range(0, len(items), n)]
    return items[0]


def _encode(obj: Any) -> Any:
    """``jsonify(obj)`` if no nonempty numeric array sits in it, else its ``_Text``."""
    if type(obj) in (str, float, int, bool, type(None)):  # exact: numpy scalars subclass float
        return obj
    if isinstance(obj, dict):
        items = {str(k): _encode(v) for k, v in obj.items()}
        if _Text not in map(type, items.values()):
            return items
        parts = [f"{json.dumps(k)}: {_text(v, '  ')}" for k, v in sorted(items.items())]
        return _Text("{\n  " + ",\n  ".join(parts) + "\n}")
    if isinstance(obj, (list, tuple)):
        items = [_encode(v) for v in obj]
        if _Text not in map(type, items):
            return items
        return _Text("[\n  " + ",\n  ".join(_text(v, "  ") for v in items) + "\n]")
    if type(obj) is np.ndarray and obj.size and obj.dtype.kind in "biufc":
        return _Text(_array_text(obj))  # a subclass (masked, matrix) keeps its own tolist()
    return jsonify(obj)


def _text(value: Any, pad: str = "") -> str:
    """``value``'s indented text, ``pad`` after each newline (JSON strings escape theirs)."""
    text = value if isinstance(value, _Text) else json.dumps(value, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + pad) if pad else text


def dumps(doc: Any) -> str:
    try:
        return _text(_encode(doc)) + "\n"
    except RecursionError as exc:
        raise LacsumError(f"document nests too deeply to write: {exc}") from exc


def save_json(doc: dict, path: str | Path) -> Path:
    p = Path(path)
    try:
        p.write_text(dumps(doc))
    except OSError as exc:
        raise LacsumError(f"cannot write {p}: {exc}") from exc
    return p


def load_json(path: str | Path) -> dict:
    p = Path(path)
    try:
        return json.loads(p.read_text())
    except OSError as exc:
        raise LacsumError(f"cannot read {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LacsumError(f"invalid JSON in {p}: {exc}") from exc
    except RecursionError as exc:
        raise LacsumError(f"JSON in {p} nests too deeply: {exc}") from exc


def csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fieldnames})
    return buf.getvalue()


def save_csv(fieldnames: list[str], rows: list[dict], path: str | Path) -> Path:
    p = Path(path)
    try:
        p.write_text(csv_text(fieldnames, rows))
    except OSError as exc:
        raise LacsumError(f"cannot write {p}: {exc}") from exc
    return p


def gridfunction_slice_rows(
    f: GridFunction, fixed: dict[int, int] | None = None
) -> tuple[list[str], list[dict]]:
    """Flatten a 1-d or 2-d slice of a grid function into CSV rows.

    ``fixed`` maps 1-based axes to pinned grid indices; the remaining one or
    two axes become coordinate columns.
    """
    fixed = dict(fixed or {})
    free = [p for p in range(f.grid.dimension) if (p + 1) not in fixed]
    if len(free) not in (1, 2):
        raise LacsumError("CSV export needs a 1-d or 2-d slice; pin more axes")
    sel: list[Any] = [slice(None)] * f.grid.dimension
    for axis, pos in fixed.items():
        if axis < 1 or axis > f.grid.dimension:
            raise LacsumError(f"axis {axis} out of range")
        length = f.grid.resolution[axis - 1]
        if not 0 <= pos < length:
            raise LacsumError(f"grid index {pos} on axis {axis} out of range 0..{length - 1}")
        sel[axis - 1] = int(pos)
    block = f.values[tuple(sel)]
    coords = [f.grid.axis_coords(p) for p in free]
    names = [f"x{p + 1}" for p in free]
    rows = []
    for pos in np.ndindex(*block.shape):
        v = block[pos]
        row = {name: float(c[i]) for name, c, i in zip(names, coords, pos)}
        row["re"] = float(v.real)
        row["im"] = float(v.imag)
        rows.append(row)
    return names + ["re", "im"], rows
