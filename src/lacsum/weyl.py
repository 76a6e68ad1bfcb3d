"""Convergence weights on the frequency lattice and the admissibility checks.

A weight here is a positive, even, coordinatewise-nondecreasing function
``W(nu)`` on integer frequency vectors. The shipped kinds put the
one-dimensional factor ``log(|.| + 2)`` only on selected axes:

* ``product_weight``: the product of ``log(|nu_a| + 2)`` over the free axes
  of a sample (lacunary axes carry no factor);
* ``min_pair_weight``: ``log^2(min(|nu_i|, |nu_j|) + 2)`` over the two free
  axes of a two-free-axis sample;
* ``full_product_weight``: the factor on every axis;
* ``unit_weight`` for unweighted sweeps.

``check_weyl_conditions`` verifies positivity, evenness and coordinatewise
monotonicity exhaustively on a finite box, returning the first violating
witness per condition. ``weighted_energy`` is the coefficient functional
``sum |c_nu|^2 W(nu)`` over a spectrum's box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import LacsumError
from .lattice import SampleJk

_LOG_CACHE = np.log(np.arange(2.0, 131.0))


def _log_plus2(values: np.ndarray) -> np.ndarray:
    """Memoized table of log(v + 2) for nonnegative integer v."""
    global _LOG_CACHE
    if values.size:
        top = int(values.max())
        if top >= _LOG_CACHE.size:
            _LOG_CACHE = np.log(np.arange(2.0, 2.0 * top + 3.0))
    return _LOG_CACHE[values]


@dataclass(frozen=True)
class WeylWeight:
    """A positive weight on integer frequency vectors.

    ``monotone`` marks weights known to be coordinatewise nondecreasing in
    the absolute components; sweeps use it to clamp index enumerations at
    the spectrum bandwidth without changing any maximum.
    """

    kind: str
    description: str
    dimension: int | None
    monotone: bool
    fn: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, nu: Sequence[int] | np.ndarray) -> float | np.ndarray:
        arr = np.asarray(nu, dtype=int)
        if arr.ndim == 0 or (self.dimension is not None and arr.shape[-1] != self.dimension):
            raise LacsumError(
                f"weight {self.kind} expects vectors of length {self.dimension}, got shape {arr.shape}"
            )
        out = self.fn(arr)
        return float(out) if arr.ndim == 1 else out

    __call__ = evaluate


def product_weight(sample: SampleJk) -> WeylWeight:
    """Product of log(|nu_a| + 2) over the free axes of ``sample``."""
    free = np.asarray(sample.free_positions, dtype=int)

    def fn(nu: np.ndarray) -> np.ndarray:
        a = np.abs(nu[..., free])
        return _log_plus2(a).prod(axis=-1)

    return WeylWeight(
        kind="product",
        description=f"prod of log(|nu_a|+2) over free axes {sample.free_axes}",
        dimension=sample.dimension,
        monotone=True,
        fn=fn,
    )


def min_pair_weight(sample: SampleJk) -> WeylWeight:
    """log^2(min(|nu_i|, |nu_j|) + 2) over the two free axes of ``sample``."""
    if len(sample.free_axes) != 2:
        raise LacsumError(
            f"min-pair weight needs exactly two free axes, sample has {len(sample.free_axes)}"
        )
    i, j = sample.free_positions

    def fn(nu: np.ndarray) -> np.ndarray:
        m = np.minimum(np.abs(nu[..., i]), np.abs(nu[..., j]))
        return _log_plus2(m) ** 2

    return WeylWeight(
        kind="minpair",
        description=f"log^2(min(|nu_{sample.free_axes[0]}|,|nu_{sample.free_axes[1]}|)+2)",
        dimension=sample.dimension,
        monotone=True,
        fn=fn,
    )


def full_product_weight(dimension: int) -> WeylWeight:
    """Product of log(|nu_j| + 2) over every axis."""
    if dimension < 1:
        raise LacsumError("dimension must be >= 1")

    def fn(nu: np.ndarray) -> np.ndarray:
        return _log_plus2(np.abs(nu)).prod(axis=-1)

    return WeylWeight(
        kind="full",
        description=f"prod of log(|nu_j|+2) over all {dimension} axes",
        dimension=dimension,
        monotone=True,
        fn=fn,
    )


def unit_weight(dimension: int | None = None) -> WeylWeight:
    def fn(nu: np.ndarray) -> np.ndarray:
        return np.ones(nu.shape[:-1])

    return WeylWeight(
        kind="unit", description="W == 1", dimension=dimension, monotone=True, fn=fn
    )


WEIGHT_KINDS = ("product", "minpair", "full", "unit")


def weight_from_kind(kind: str, sample: SampleJk) -> WeylWeight:
    if kind == "product":
        return product_weight(sample)
    if kind == "minpair":
        return min_pair_weight(sample)
    if kind == "full":
        return full_product_weight(sample.dimension)
    if kind == "unit":
        return unit_weight(sample.dimension)
    raise LacsumError(f"unknown weight kind {kind!r}, expected one of {WEIGHT_KINDS}")


# ---------------------------------------------------------------------------
# admissibility checks


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class WeylConditionReport:
    box: int
    dimension: int
    positivity: ConditionResult
    symmetry: ConditionResult
    monotonicity: ConditionResult

    @property
    def all_passed(self) -> bool:
        return bool(self.positivity and self.symmetry and self.monotonicity)


def _mesh_chunks(lead: np.ndarray, rest: np.ndarray, dimension: int, chunk: int):
    others = [rest] * (dimension - 1)
    for start in range(0, lead.size, chunk):
        block = lead[start : start + chunk]
        mesh = np.meshgrid(block, *others, indexing="ij")
        yield start, np.stack(mesh, axis=-1)


def check_weyl_conditions(
    weight: WeylWeight, box: int, dimension: int | None = None
) -> WeylConditionReport:
    """Exhaustively check positivity, evenness and monotonicity on ``|nu_j| <= box``.

    Positivity and monotonicity are scanned on the nonnegative orthant (where
    condition 3 is stated; evenness transports them to the rest of the box),
    and evenness itself is verified over the full signed box by comparing
    every ``W(nu)`` against the stored orthant value at ``|nu|``. The first
    violating frequency vector per condition is reported as a witness.
    """
    dim = dimension if dimension is not None else weight.dimension
    if dim is None:
        raise LacsumError("dimension needed to check a dimension-agnostic weight")
    if box < 1:
        raise LacsumError("box must be >= 1")

    orthant = np.arange(box + 1)
    chunk = max(1, (1 << 23) // max((box + 1) ** (dim - 1), 1))
    pos_witness = None
    sym_witness = None
    values = np.empty((box + 1,) * dim)
    flips = [s for s in np.ndindex(*(2,) * dim) if any(s)]
    for start, mesh in _mesh_chunks(orthant, orthant, dim, chunk):
        v = weight.fn(mesh)
        values[start : start + mesh.shape[0]] = v
        if pos_witness is None and not np.all(v > 0):
            first = np.argwhere(~(v > 0))[0]
            first[0] += start
            pos_witness = tuple(int(x) for x in first)
        if sym_witness is None:
            # every signed point is a sign flip of exactly one orthant point
            for s in flips:
                signs = np.asarray([1 - 2 * b for b in s])
                flipped = mesh * signs
                w = weight.fn(flipped)
                if not np.array_equal(w, v):
                    first = np.argwhere(w != v)[0]
                    sym_witness = tuple(int(x) for x in flipped[tuple(first)])
                    break

    mono_witness = None
    for axis in range(dim):
        drops = np.argwhere(np.diff(values, axis=axis) < 0)
        if drops.size:
            first = tuple(int(x) for x in drops[0])
            mono_witness = first[:axis] + (first[axis] + 1,) + first[axis + 1 :]
            break
    return WeylConditionReport(
        box=box,
        dimension=dim,
        positivity=ConditionResult(pos_witness is None, pos_witness),
        symmetry=ConditionResult(sym_witness is None, sym_witness),
        monotonicity=ConditionResult(mono_witness is None, mono_witness),
    )


def frequency_mesh(bandwidth: Sequence[int]) -> np.ndarray:
    """Integer frequency vectors of a spectrum box, stacked on the last axis."""
    axes = [np.arange(-b, b + 1) for b in bandwidth]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def weighted_energy(spectrum, weight: WeylWeight) -> float:
    """Weighted coefficient energy ``sum |c_nu|^2 W(nu)`` over the spectrum box."""
    mesh = frequency_mesh(spectrum.bandwidth)
    w = weight.fn(mesh)
    return float(np.sum((np.abs(spectrum.coeffs) ** 2) * w))
