"""Integer index machinery for box-truncated spectra on the torus.

Provides multi-index validation, the split of the axis set {1, ..., N}
into lacunary and free axes, generation and validation of lacunary
sequences (first term 1, consecutive ratios at least q > 1), and
enumeration of index vectors whose lacunary components run over family
terms while free components sweep a capped range starting at 0.

Axes are labelled 1-based at every public boundary; the ``*_positions``
properties expose the 0-based array positions used internally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import LacsumError

Index = tuple[int, ...]


def check_index(components: Sequence[int], dimension: int | None = None) -> Index:
    """Validate a multi-index (nonnegative integers, optional fixed length)."""
    idx = tuple(int(c) for c in components)
    if any(c != v for c, v in zip(components, idx)):
        raise LacsumError(f"multi-index components must be integers, got {components!r}")
    if dimension is not None and len(idx) != dimension:
        raise LacsumError(f"multi-index {idx} has length {len(idx)}, expected {dimension}")
    if len(idx) < 1:
        raise LacsumError("multi-index must have at least one component")
    if any(c < 0 for c in idx):
        raise LacsumError(f"multi-index components must be nonnegative, got {idx}")
    return idx


@dataclass(frozen=True)
class SampleJk:
    """A sample of lacunary axes inside {1, ..., N}.

    ``lacunary_axes`` is the strictly increasing tuple of 1-based axes
    carrying lacunary sequence terms; every other axis is free.
    """

    dimension: int
    lacunary_axes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise LacsumError(f"dimension must be >= 1, got {self.dimension}")
        axes = tuple(int(a) for a in self.lacunary_axes)
        object.__setattr__(self, "lacunary_axes", axes)
        if any(a < 1 or a > self.dimension for a in axes):
            raise LacsumError(f"lacunary axes {axes} out of range 1..{self.dimension}")
        if any(a >= b for a, b in zip(axes, axes[1:])) or len(set(axes)) != len(axes):
            raise LacsumError(f"lacunary axes must be strictly increasing, got {axes}")

    @property
    def free_axes(self) -> tuple[int, ...]:
        lac = set(self.lacunary_axes)
        return tuple(a for a in range(1, self.dimension + 1) if a not in lac)

    @property
    def lacunary_positions(self) -> tuple[int, ...]:
        return tuple(a - 1 for a in self.lacunary_axes)

    @property
    def free_positions(self) -> tuple[int, ...]:
        return tuple(a - 1 for a in self.free_axes)

    @property
    def k(self) -> int:
        return len(self.lacunary_axes)


@dataclass(frozen=True)
class LacunaryFamily:
    """One lacunary sequence: terms n(1)=1 < n(2) < ... with ratios >= q."""

    q: float
    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 < self.q < math.inf:
            raise LacsumError(f"lacunary ratio must be finite and exceed 1, got {self.q}")
        bad = "invalid lacunary sequence:"
        terms = tuple(int(t) for t in self.terms)
        if any(t != v for t, v in zip(self.terms, terms)):
            raise LacsumError(f"{bad} terms must be integers, got {self.terms!r}")
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise LacsumError(f"{bad} sequence is empty")
        if terms[0] != 1:
            raise LacsumError(f"{bad} first term must be 1, got {terms[0]}")
        for i in range(1, len(terms)):
            if terms[i] <= terms[i - 1]:
                raise LacsumError(f"{bad} terms must be strictly increasing integers, got {terms[i]} at {i}")
            if terms[i] / terms[i - 1] < self.q:
                raise LacsumError(f"{bad} ratio {terms[i]}/{terms[i-1]} below q={self.q} at index {i}")

    def __len__(self) -> int:
        return len(self.terms)


def _next_term(prev: int, q: float) -> int:
    nxt = max(math.ceil(q * prev), prev + 1)
    # guard against ceil landing a hair below q*prev through float rounding
    while nxt / prev < q:
        nxt += 1
    return nxt


# most terms make_lacunary builds; past it a family is an input error
_MAX_TERMS = 4096


def _grow_lacunary(q: float, more: Callable[[list[int]], bool]) -> LacunaryFamily:
    """The densest lacunary family, stepping to ceil(q * previous) while
    ``more(terms)`` holds."""
    if not 1 < q < math.inf:
        raise LacsumError(f"lacunary ratio must be finite and exceed 1, got {q}")
    terms = [1]
    while more(terms):
        try:
            terms.append(_next_term(terms[-1], q))
        except OverflowError:
            raise LacsumError(
                f"lacunary term {len(terms) + 1} of ratio {q} is past float range"
            ) from None
    return LacunaryFamily(q=q, terms=tuple(terms))


def make_lacunary(q: float, count: int) -> LacunaryFamily:
    """Generate the densest lacunary family with exactly ``count`` terms,
    stepping to ceil(q * previous)."""
    if count < 1 or count > _MAX_TERMS:
        raise LacsumError(f"count must be in 1..{_MAX_TERMS}, got {count}")
    return _grow_lacunary(q, lambda terms: len(terms) < count)


def make_lacunary_covering(q: float, bound: int) -> LacunaryFamily:
    """Generate a family whose largest term reaches at least ``bound``."""
    if bound < 1:
        raise LacsumError(f"bound must be >= 1, got {bound}")
    return _grow_lacunary(q, lambda terms: terms[-1] < bound)


@dataclass(frozen=True)
class JkIndexSpace:
    """Finite index space: family terms on lacunary axes, [0, cap] elsewhere.

    ``families`` aligns with ``sample.lacunary_axes`` and ``free_caps`` with
    ``sample.free_axes``. Free components are unbounded in the underlying
    theory; the caps are the explicit truncation under which every supremum
    is taken, and are echoed in all reports built on top of a space.
    """

    sample: SampleJk
    families: tuple[LacunaryFamily, ...]
    free_caps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "free_caps", tuple(int(c) for c in self.free_caps))
        if len(self.families) != self.sample.k:
            raise LacsumError(
                f"need one family per lacunary axis: {len(self.families)} families, "
                f"{self.sample.k} lacunary axes"
            )
        if len(self.free_caps) != len(self.sample.free_axes):
            raise LacsumError(
                f"need one cap per free axis: {len(self.free_caps)} caps, "
                f"{len(self.sample.free_axes)} free axes"
            )
        if any(c < 0 for c in self.free_caps):
            raise LacsumError(f"free caps must be nonnegative, got {self.free_caps}")

    @property
    def count(self) -> int:
        n = 1
        for fam in self.families:
            n *= len(fam)
        for cap in self.free_caps:
            n *= cap + 1
        return n


def enumerate_jk_indices(space: JkIndexSpace) -> Iterator[Index]:
    """Yield every index of the space, lexicographic in (term tuple, free tuple).

    Lacunary components vary slowest, in axis order; free components vary
    fastest, also in axis order. The total count is the product of family
    lengths times the product of (cap + 1).
    """
    positions = space.sample.lacunary_positions + space.sample.free_positions
    axes = [f.terms for f in space.families] + [range(cap + 1) for cap in space.free_caps]
    index = [0] * len(positions)
    for values in itertools.product(*axes):
        for p, v in zip(positions, values):
            index[p] = v
        yield tuple(index)
