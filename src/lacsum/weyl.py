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

A weight's ``fn`` takes one broadcastable integer array per axis (an open
mesh, as ``np.ix_`` returns it), so a product weight multiplies
one-dimensional factors and never sees a stacked ``(..., N)`` mesh; its
result broadcasts to the mesh shape. ``evaluate`` takes stacked vectors.

``check_weyl_conditions`` verifies positivity, evenness and coordinatewise
monotonicity exhaustively on a finite box, returning the first violating
witness per condition (in C order over the orthant). It runs on a weight's
distinct values, cutting every axis that the weight does not read to length
1, so only the full product walks the whole box. ``weighted_energy`` is the
coefficient functional ``sum |c_nu|^2 W(nu)`` over a spectrum's box.
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
    the spectrum bandwidth without changing any maximum. ``fn(*nu)`` takes
    one broadcastable integer array per axis.
    """

    kind: str
    description: str
    dimension: int
    monotone: bool
    fn: Callable[..., np.ndarray]

    def evaluate(self, nu: Sequence[int] | np.ndarray) -> float | np.ndarray:
        """The weight at frequency vectors stacked on the last axis of ``nu``."""
        arr = np.asarray(nu, dtype=int)
        if arr.ndim == 0 or arr.shape[-1] != self.dimension:
            raise LacsumError(
                f"weight {self.kind} expects vectors of length {self.dimension}, got shape {arr.shape}"
            )
        out = np.broadcast_to(self.fn(*np.moveaxis(arr, -1, 0)), arr.shape[:-1])
        return float(out) if arr.ndim == 1 else out.copy()


def _log_product(nu: Sequence[np.ndarray], axes: Sequence[int]) -> np.ndarray:
    """Product of log(|nu_a| + 2) over ``axes`` in order; a 0-d one for no axes.

    The result reads only ``axes``, so it broadcasts to the mesh shape
    without repeating itself along the other axes.
    """
    out = np.ones(())
    for a in axes:
        out = out * _log_plus2(np.abs(nu[a]))
    return out


def product_weight(sample: SampleJk) -> WeylWeight:
    """Product of log(|nu_a| + 2) over the free axes of ``sample``."""
    free = sample.free_positions

    def fn(*nu: np.ndarray) -> np.ndarray:
        return _log_product(nu, free)

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

    def fn(*nu: np.ndarray) -> np.ndarray:
        return _log_plus2(np.minimum(np.abs(nu[i]), np.abs(nu[j]))) ** 2

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

    def fn(*nu: np.ndarray) -> np.ndarray:
        return _log_product(nu, range(dimension))

    return WeylWeight(
        kind="full",
        description=f"prod of log(|nu_j|+2) over all {dimension} axes",
        dimension=dimension,
        monotone=True,
        fn=fn,
    )


def unit_weight(dimension: int) -> WeylWeight:
    def fn(*nu: np.ndarray) -> np.ndarray:
        return _log_product(nu, ())

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


def _distinct(values: np.ndarray) -> np.ndarray:
    """``values`` cut to length 1 along every axis that it repeats (stride 0)."""
    return values[tuple(slice(0, 1) if st == 0 else slice(None) for st in values.strides)]


def check_weyl_conditions(weight: WeylWeight, box: int) -> WeylConditionReport:
    """Exhaustively check positivity, evenness and monotonicity on ``|nu_j| <= box``.

    Positivity and monotonicity are scanned on the nonnegative orthant (where
    condition 3 is stated; evenness transports them to the rest of the box),
    and evenness itself is verified over the full signed box: each sign flip
    negates some axis vectors of the orthant mesh, and every ``W(nu)`` it
    gives is compared against the orthant value at ``|nu|``.

    Each comparison runs on the weight's distinct values: an axis along which
    ``fn``'s result only broadcasts (one that the weight does not read) is cut
    to length 1, so the min-pair and product weights scan two or ``N - k``
    axes and the unit weight one point. The full product reads every axis and
    still walks the whole box.

    Witnesses: positivity and monotonicity report the first violation in C
    order over the orthant. Evenness takes the flips in ``np.ndindex`` order
    and reports the first differing orthant point (C order) of the first
    failing flip, signed by that flip. Cutting axes keeps these witnesses: a
    violation repeats along a cut axis, so its first copy has coordinate 0
    there, which is where ``np.argwhere`` puts it.
    """
    dim = weight.dimension
    if box < 1:
        raise LacsumError("box must be >= 1")

    shape = (box + 1,) * dim
    axes = np.ix_(*[np.arange(box + 1)] * dim)
    values = _distinct(np.broadcast_to(weight.fn(*axes), shape))

    pos_witness = None
    if not np.all(values > 0):
        pos_witness = tuple(int(x) for x in np.argwhere(~(values > 0))[0])

    sym_witness = None
    # every signed point is a sign flip of exactly one orthant point
    for s in np.ndindex(*(2,) * dim):
        if not any(s):
            continue
        w = _distinct(np.broadcast_to(weight.fn(*(-a if b else a for a, b in zip(axes, s))), shape))
        # both arrays are cut; broadcasting lines them up point for point
        if (w != values).any():
            first = np.argwhere(w != values)[0]
            sym_witness = tuple(-int(x) if b else int(x) for x, b in zip(first, s))
            break

    # an axis cut to length 1 has no drop
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


def weighted_energy(spectrum, weight: WeylWeight) -> float:
    """Weighted coefficient energy ``sum |c_nu|^2 W(nu)`` over the spectrum box."""
    w = weight.fn(*np.ix_(*(np.arange(-b, b + 1) for b in spectrum.bandwidth)))
    return float(np.sum((spectrum.coeffs.real ** 2 + spectrum.coeffs.imag ** 2) * w))
