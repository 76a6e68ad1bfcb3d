"""JSON and CSV interchange for spectra, grid functions and reports.

Spectra serialize as ``{"schema", "N", "B", "coefficients"}`` with the
coefficients flattened row-major from -B to +B as ``[re, im]`` pairs; grid
functions carry grid metadata the same way. All writers are deterministic:
keys are sorted, no timestamps are embedded, and floats go through the
default repr round trip.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import LacsumError
from .spectral import GridFunction, Spectrum, TorusGrid

SPECTRUM_SCHEMA = "lacsum.spectrum/1"
GRIDFUNCTION_SCHEMA = "lacsum.gridfunction/1"


def jsonify(obj: Any) -> Any:
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _pairs(values: np.ndarray) -> list[list[float]]:
    flat = values.reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def _unpairs(pairs, shape) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("expected a list of [re, im] pairs")
        return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise LacsumError(f"bad payload for shape {shape}: {exc}") from exc


def _open(doc: Any, schema: str, size_key: str, payload_key: str) -> tuple[tuple[int, ...], Any]:
    """Schema-checked ``(sizes, payload)`` of a spectrum or grid-function document."""
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        found = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
        raise LacsumError(f"not a {schema} document: schema={found!r}")
    sizes = doc.get(size_key)
    if payload_key not in doc or not (
        isinstance(sizes, list) and all(type(v) is int and v >= 0 for v in sizes)
    ):
        raise LacsumError(
            f"{schema} document needs {size_key!r} (nonnegative integers) and {payload_key!r}"
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


def gridfunction_from_dict(doc: dict) -> GridFunction:
    res, payload = _open(doc, GRIDFUNCTION_SCHEMA, "L", "values")
    grid = TorusGrid(res)
    return GridFunction(grid, _unpairs(payload, grid.resolution))


def dumps(doc: dict) -> str:
    return json.dumps(jsonify(doc), sort_keys=True, indent=2) + "\n"


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
