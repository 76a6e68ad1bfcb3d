"""Sequence calculus behind the summation-by-parts machinery.

Forward differences ``D1 b_j = b_j - b_{j+1}``, ``D2 b_j = D1 b_j - D1
b_{j+1}``; slowly growing positive sequences built from the tails of a
convergent series; the even convex weights ``b_j = (log(|j|+2) p_j)^(-1/2)``;
regime-based iterated prefix sums (single sum, double sum, or a
second-difference weighted average of double sums per coordinate); the
double-Abel identity that rewrites a ``b``-weighted box sum of a
hypersequence as a sum over regime vectors; and the dyadic-square
telescoping of rectangular partial sums along free axes, anchored at
``alpha = 2**(M*M)`` with ``2**(M*M) <= n < 2**((M+1)*(M+1))``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, LacsumError
from .lattice import Index, JkIndexSpace, check_index
from .spectral import Spectrum, restrict

_CONVEXITY_TOL = 1e-12


def _values_of(b) -> np.ndarray:
    if isinstance(b, (ConvexWeight, SlowSequence)):
        return b.values
    return np.asarray(b, dtype=float)


def _even_value(values: np.ndarray, j: int) -> float:
    # sequences here are even: value at j is stored at |j|
    a = abs(int(j))
    if a >= values.size:
        raise LacsumError(f"index {j} outside stored range 0..{values.size - 1}")
    return float(values[a])


def difference(b, order: int, j: int) -> float:
    """Forward difference ``D^order b_j`` of an even sequence, order 0, 1 or 2."""
    values = _values_of(b)
    if order == 0:
        return _even_value(values, j)
    if order == 1:
        return _even_value(values, j) - _even_value(values, j + 1)
    if order == 2:
        return (
            _even_value(values, j)
            - 2.0 * _even_value(values, j + 1)
            + _even_value(values, j + 2)
        )
    raise LacsumError(f"difference order must be 0, 1 or 2, got {order}")


@dataclass(frozen=True)
class SlowSequence:
    """Positive even sequence, nondecreasing in |j|, with a growth flag."""

    values: np.ndarray
    unbounded: bool

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise LacsumError("slow sequence needs a 1-d value array")
        if not np.all(v > 0):
            raise LacsumError("slow sequence must be positive")
        if np.any(np.diff(v) < 0):
            raise LacsumError("slow sequence must be nondecreasing")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def value(self, j: int) -> float:
        return _even_value(self.values, j)

    def __len__(self) -> int:
        return self.values.size


def build_slow_sequence(tails: Sequence[float]) -> SlowSequence:
    """Slow-growth sequence from nonincreasing tail sums ``t(0), t(1), ...``.

    ``p_j = min(log(j+3), sqrt(t(0) / (t(j) + t(0) * 2^-j)))`` made
    nondecreasing by a running maximum. The tail-sum telescoping bound then
    gives ``sum (t(j) - t(j+1)) p_j <= 2 t(0)`` whatever the tails, while
    ``p_j`` grows without bound whenever the tails decay to zero. The
    ``unbounded`` flag records whether the tails actually decayed over the
    stored range (a plateauing input caps the sequence).
    """
    t = np.asarray(tails, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise LacsumError("need at least two tail values")
    if t[0] <= 0:
        raise DegenerateInputError(f"t(0) must be positive, got {t[0]}")
    if np.any(t < 0) or np.any(np.diff(t) > 1e-12):
        raise LacsumError("tails must be nonnegative and nonincreasing")
    j = np.arange(t.size)
    guarded = t + t[0] * np.exp2(-j.astype(float))
    # fully underflowed tails push the target to +inf; the log branch wins
    with np.errstate(divide="ignore", over="ignore"):
        target = np.sqrt(t[0] / guarded)
    p = np.minimum(np.log(j + 3.0), target)
    p = np.maximum.accumulate(p)
    unbounded = bool(t[-1] <= t[0] / 2.0)
    return SlowSequence(values=p, unbounded=unbounded)


@dataclass(frozen=True)
class ConvexWeight:
    """Even, positive, nonincreasing, convex weight sequence ``b_0..b_J``."""

    values: np.ndarray
    repaired: bool = False
    max_violation: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise LacsumError("convex weight needs at least three values")
        if not np.all(np.isfinite(v)) or not np.all(v > 0):
            raise LacsumError("convex weight must be positive and finite")
        if np.any(np.diff(v) > _CONVEXITY_TOL):
            raise LacsumError("convex weight must be nonincreasing")
        d2 = v[:-2] - 2 * v[1:-1] + v[2:]
        if np.any(d2 < -_CONVEXITY_TOL):
            raise LacsumError("second differences must be nonnegative")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def value(self, j: int) -> float:
        return _even_value(self.values, j)

    def diff(self, order: int, j: int) -> float:
        return difference(self.values, order, j)

    @property
    def first_differences(self) -> np.ndarray:
        return self.values[:-1] - self.values[1:]

    @property
    def second_differences(self) -> np.ndarray:
        return self.values[:-2] - 2 * self.values[1:-1] + self.values[2:]

    def __len__(self) -> int:
        return self.values.size


def _lower_convex_hull(y: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of the points (j, y_j), sampled at the integers."""
    n = y.size
    hull = [0]
    for j in range(1, n):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # pop the middle vertex when it lies on or above the chord (i0, j)
            if (y[i1] - y[i0]) * (j - i0) >= (y[j] - y[i0]) * (i1 - i0):
                hull.pop()
            else:
                break
        hull.append(j)
    xs = np.asarray(hull, dtype=float)
    return np.interp(np.arange(n, dtype=float), xs, y[np.asarray(hull)])


def build_convex_b(p: SlowSequence | Sequence[float]) -> ConvexWeight:
    """Weight ``b_j = (log(j+2) p_j)^(-1/2)`` with a certified-convex repair.

    Convexity is scanned numerically; if any second difference drops below
    the tolerance, the values are replaced by their greatest convex minorant
    (the closest convex sequence from below) and the substitution is flagged
    on the result, never applied silently.
    """
    values = _values_of(p)
    if np.any(values <= 0):
        raise LacsumError("slow sequence must be positive")
    j = np.arange(values.size, dtype=float)
    b = 1.0 / np.sqrt(np.log(j + 2.0) * values)
    d2 = b[:-2] - 2 * b[1:-1] + b[2:]
    worst = float(d2.min()) if d2.size else 0.0
    if worst < -_CONVEXITY_TOL:
        return ConvexWeight(
            values=_lower_convex_hull(b), repaired=True, max_violation=-worst
        )
    return ConvexWeight(values=b, repaired=False, max_violation=max(0.0, -worst))


# ---------------------------------------------------------------------------
# regime-based iterated prefix sums and the double-Abel identity

REGIMES = (0, 1, 2)


def _second_diff_vector(values: np.ndarray, upto: int) -> np.ndarray:
    if upto + 2 >= values.size:
        raise LacsumError(
            f"need weight values up to index {upto + 2}, have {values.size - 1}"
        )
    v = values[: upto + 3]
    return v[:-2] - 2 * v[1:-1] + v[2:]


def _iterated_scaled(a: np.ndarray, regimes: Sequence[int], values: np.ndarray, kappa: Index) -> float:
    """Iterated prefix sum with regime-2 axes left unnormalized.

    Regime 0 is a single prefix sum, regime 1 a double one, regime 2 a double
    prefix sum averaged against the second differences of the weight; the
    regime-2 normalization ``1/D2 b_kappa`` is deliberately not applied here
    so the identity's right side never divides (the outer factor cancels it).
    """
    arr = np.asarray(a, dtype=float)
    for axis, (r, k) in enumerate(zip(regimes, kappa)):
        if k >= arr.shape[axis]:
            raise LacsumError(
                f"evaluation point {k} beyond axis {axis} of length {arr.shape[axis]}"
            )
        arr = np.cumsum(arr, axis=axis)
        if r >= 1:
            arr = np.cumsum(arr, axis=axis)
        if r == 2:
            # entries past the evaluation point never reach arr[kappa]
            d2 = np.zeros(arr.shape[axis])
            d2[: k + 1] = _second_diff_vector(values, k)
            shape = [1] * arr.ndim
            shape[axis] = arr.shape[axis]
            arr = arr * d2.reshape(shape)
            arr = np.cumsum(arr, axis=axis)
    return float(arr[tuple(kappa)])


@dataclass(frozen=True)
class AbelCheck:
    lhs: float
    rhs: float
    difference: float


def abel_identity_check(a: np.ndarray, b, n: Sequence[int]) -> AbelCheck:
    """Both sides of the double-Abel box-sum identity, evaluated independently.

    Left: the literal weighted box sum ``sum_{i<=n} A_i prod_t b_{i_t}``.
    Right: the sum over regime vectors ``r in {0,1,2}^nu`` of
    ``prod_t D^{r_t} b_{n_t - r_t}`` times the regime-summed hypersequence at
    ``n - r``. Requires every ``n_t >= 2`` so the regime-2 shift stays in
    range. The identity is algebraic, so it holds for arbitrary weights.
    """
    arr = np.asarray(a, dtype=float)
    nu = arr.ndim
    idx = check_index(n, nu)
    if any(k < 2 for k in idx):
        raise LacsumError(f"every component of n must be >= 2, got {idx}")
    if any(k >= s for k, s in zip(idx, arr.shape)):
        raise LacsumError(f"n {idx} outside hypersequence shape {arr.shape}")
    values = _values_of(b)
    if values.size < max(idx) + 1:
        raise LacsumError(
            f"need weight values up to {max(idx)}, have {values.size - 1}"
        )

    boxed = arr[tuple(slice(0, k + 1) for k in idx)].copy()
    for axis, k in enumerate(idx):
        shape = [1] * nu
        shape[axis] = k + 1
        boxed *= values[: k + 1].reshape(shape)
    lhs = float(boxed.sum())

    rhs = 0.0
    for regs in itertools.product(REGIMES, repeat=nu):
        kappa = tuple(k - r for k, r in zip(idx, regs))
        coef = 1.0
        for r, k in zip(regs, idx):
            if r == 0:
                coef *= difference(values, 0, k)
            elif r == 1:
                coef *= difference(values, 1, k - 1)
            # regime 2 factor D2 b_{k-2} is already carried by the scaled sum
        rhs += coef * _iterated_scaled(arr, regs, values, kappa)
    return AbelCheck(lhs=lhs, rhs=rhs, difference=abs(lhs - rhs))


# ---------------------------------------------------------------------------
# dyadic-square telescoping of rectangular partial sums


def dyadic_square_anchor(n: int) -> tuple[int, int]:
    """Return ``(M, alpha)`` with ``alpha = 2**(M*M) <= n < 2**((M+1)*(M+1))``."""
    if n < 1:
        raise LacsumError(f"anchor needs n >= 1, got {n}")
    m = math.isqrt(int(n).bit_length() - 1)
    return m, 1 << (m * m)


@dataclass(frozen=True)
class TelescopeSplit:
    """Exact decomposition of a partial sum into anchored differences.

    ``terms[j]`` is the coefficient spectrum of the j-th difference (free
    component j replaced by its dyadic-square anchor); ``remainder`` is the
    final partial sum with every telescoped component anchored. The term
    supports are pairwise disjoint and sum to the full box restriction.
    """

    index: Index
    telescoped_axes: tuple[int, ...]
    anchors: tuple[int, ...]
    anchor_exponents: tuple[int, ...]
    terms: tuple[Spectrum, ...]
    remainder: Spectrum

    def reassembled(self) -> np.ndarray:
        total = self.remainder.coeffs.copy()
        for t in self.terms:
            total += t.coeffs
        return total


def telescope_split(spectrum: Spectrum, space: JkIndexSpace, index: Sequence[int]) -> TelescopeSplit:
    """Split ``S_index`` along the free axes at dyadic-square anchors.

    All free components except the last are telescoped: term j is the
    difference between the boxes whose j-th free component is the original
    value and its anchor ``2**(M*M)``, with components before j already
    anchored. Telescoped components must be >= 1.
    """
    idx = check_index(index, spectrum.dimension)
    free = space.sample.free_positions
    if len(free) == 0:
        raise LacsumError("space has no free axes to telescope")
    tele = free[:-1]
    if any(idx[p] < 1 for p in tele):
        raise LacsumError("telescoped free components must be >= 1")
    ms, alphas = [], []
    for p in tele:
        m, alpha = dyadic_square_anchor(idx[p])
        ms.append(m)
        alphas.append(alpha)

    terms: list[Spectrum] = []
    current = list(idx)
    for j, p in enumerate(tele):
        upper = restrict(spectrum, current)
        lowered = list(current)
        lowered[p] = alphas[j]
        lower = restrict(spectrum, lowered)
        terms.append(Spectrum(spectrum.bandwidth, upper.coeffs - lower.coeffs))
        current = lowered
    remainder = restrict(spectrum, current)
    return TelescopeSplit(
        index=idx,
        telescoped_axes=tuple(space.sample.free_axes[:-1]),
        anchors=tuple(alphas),
        anchor_exponents=tuple(ms),
        terms=tuple(terms),
        remainder=remainder,
    )
