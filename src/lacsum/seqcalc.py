"""Sequence calculus behind the summation-by-parts machinery.

Forward differences ``D1 b_j = b_j - b_{j+1}``, ``D2 b_j = D1 b_j - D1
b_{j+1}`` of an even weight sequence; regime-based iterated prefix sums
(single sum, double sum, or a second-difference weighted average of double
sums per coordinate); the double-Abel identity that rewrites a
``b``-weighted box sum of a hypersequence as a sum over regime vectors,
which holds for any weight ``b`` (the paper's convex
``b_j = (log(|j|+2) p_j)^(-1/2)`` included); and the dyadic-square
telescoping of rectangular partial sums along free axes, anchored at
``alpha = 2**(M*M)`` with ``2**(M*M) <= n < 2**((M+1)*(M+1))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LacsumError
from .lattice import JkIndexSpace, check_index
from .spectral import Spectrum, restrict


def _even_value(values: np.ndarray, j: int) -> float:
    # sequences here are even: value at j is stored at |j|
    a = abs(int(j))
    if a >= values.size:
        raise LacsumError(f"index {j} outside stored range 0..{values.size - 1}")
    return float(values[a])


def difference(b, order: int, j: int) -> float:
    """Forward difference ``D^order b_j`` of an even sequence, order 0, 1 or 2."""
    values = np.asarray(b, dtype=float)
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


def _scaled_pass(arr: np.ndarray, r: int, k: int, values: np.ndarray) -> np.ndarray:
    """Regime ``r``'s prefix passes along the first axis of ``arr``, read at
    its index ``k``: a single prefix sum, a double one, or (regime 2) a double
    one averaged against the weight's second differences, left unnormalized
    so the identity's right side never divides. Each fiber is summed on its
    own, so the bits do not depend on whether other axes were cut already."""
    if k >= arr.shape[0]:
        raise LacsumError(f"evaluation point {k} beyond an axis of length {arr.shape[0]}")
    arr = np.cumsum(arr, axis=0)
    if r >= 1:
        arr = np.cumsum(arr, axis=0)
    if r == 2:
        # entries past the evaluation point never reach arr[k]
        d2 = _second_diff_vector(values, k).reshape((k + 1,) + (1,) * (arr.ndim - 1))
        arr = np.cumsum(arr[: k + 1] * d2, axis=0)
    return arr[k]


@dataclass(frozen=True)
class AbelCheck:
    lhs: float
    rhs: float
    difference: float
    scale: float  # the sum of the right side's term magnitudes, which its rounding grows with


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
    values = np.asarray(b, dtype=float)
    if values.size < max(idx) + 1:
        raise LacsumError(
            f"need weight values up to {max(idx)}, have {values.size - 1}"
        )

    # the box times each axis's weights in axis order
    boxed = math.prod(np.ix_(*(values[: k + 1] for k in idx)), start=arr[tuple(slice(0, k + 1) for k in idx)])
    lhs = float(boxed.sum())

    # regime vectors in itertools.product order, depth first: an axis's passes
    # run once per prefix of leading regimes. Regime 2's D2 b_{k-2} is in its pass.
    def walk(part: np.ndarray, axis: int, coef: float, sums: tuple[float, float]) -> tuple[float, float]:
        if axis == nu:
            term = coef * float(part)
            return sums[0] + term, sums[1] + abs(term)
        k = idx[axis]
        for r, c in zip(REGIMES, (difference(values, 0, k), difference(values, 1, k - 1), 1.0)):
            sums = walk(_scaled_pass(part, r, k - r, values), axis + 1, coef * c, sums)
        return sums

    rhs, scale = walk(arr, 0, 1.0, (0.0, 0.0))
    return AbelCheck(lhs=lhs, rhs=rhs, difference=abs(lhs - rhs), scale=scale)


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

    anchors: tuple[int, ...]
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
    alphas = [dyadic_square_anchor(idx[p])[1] for p in tele]

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
        anchors=tuple(alphas),
        terms=tuple(terms),
        remainder=remainder,
    )
