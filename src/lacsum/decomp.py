"""Two-free-axis machinery: the reciprocal log-min weight, its difference
calculus, coefficient transfer, and the four-term Abel decomposition of a
partial sum.

The weight ``w(t, q) = 1 / log(min(|t|, |q|) + 2)`` couples the two free
components. Its mixed difference vanishes off the diagonal on nonnegative
indices (where partial-sum limits live); on the diagonal it equals
``w(t+1) - w(t)``, which is what collapses the bilinear Abel expansion of a
weighted box sum into three single sums over the diagonal and edges plus a
boundary term. The four closed-form terms reassemble the original partial
sum exactly, which is asserted against an independent synthesis path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LacsumError
from .lattice import Index, check_index
from .spectral import ShellTensor, Spectrum, TorusGrid, clamp_index, grid_l2, partial_sum


def min_log_inverse(t: int | np.ndarray, q: int | np.ndarray) -> float | np.ndarray:
    """w(t, q) = 1 / log(min(|t|, |q|) + 2), natural log."""
    m = np.minimum(np.abs(np.asarray(t)), np.abs(np.asarray(q)))
    out = 1.0 / np.log(m + 2.0)
    return float(out) if out.ndim == 0 else out


def diagonal_drop(s: int) -> float:
    """w(s, s) - w(s+1, s+1), the diagonal decrement of the log-min weight."""
    return 1.0 / np.log(s + 2.0) - 1.0 / np.log(s + 3.0)


def _free_pair_positions(dimension: int, free_axes: Sequence[int]) -> tuple[int, int]:
    axes = tuple(int(a) for a in free_axes)
    if len(axes) != 2 or axes[0] >= axes[1]:
        raise LacsumError(f"free axes must be an increasing pair, got {axes}")
    if axes[0] < 1 or axes[1] > dimension:
        raise LacsumError(f"free axes {axes} out of range 1..{dimension}")
    return axes[0] - 1, axes[1] - 1


def _pair_weight_table(spectrum: Spectrum, free_axes: Sequence[int]) -> np.ndarray:
    a, b = _free_pair_positions(spectrum.dimension, free_axes)
    ba, bb = spectrum.bandwidth[a], spectrum.bandwidth[b]
    ta = np.abs(np.arange(-ba, ba + 1))
    tb = np.abs(np.arange(-bb, bb + 1))
    table = min_log_inverse(ta[:, None], tb[None, :])
    shape = [1] * spectrum.dimension
    shape[a], shape[b] = 2 * ba + 1, 2 * bb + 1
    return table.reshape(shape)


def coefficient_transfer(spectrum: Spectrum, free_axes: Sequence[int]) -> Spectrum:
    """Divide every coefficient by the log-min weight of its free components.

    The weight is positive everywhere, so this is a bijection on finite
    spectra; ``apply_pair_weight`` is its exact inverse.
    """
    return Spectrum(spectrum.bandwidth, spectrum.coeffs / _pair_weight_table(spectrum, free_axes))


def apply_pair_weight(spectrum: Spectrum, free_axes: Sequence[int]) -> Spectrum:
    """Multiply every coefficient by the log-min weight of its free components."""
    return Spectrum(spectrum.bandwidth, spectrum.coeffs * _pair_weight_table(spectrum, free_axes))


def _sum_engine(spectrum: Spectrum, grid: TorusGrid, shells: Sequence | None = None):
    """Partial-sum lookups: shell tensor on ``shells`` when affordable, FFT calls otherwise."""
    try:
        tensor = ShellTensor.from_grid(spectrum, grid, shells)
    except LacsumError:
        def many(rows):
            return np.stack([partial_sum(spectrum, r, grid).values for r in rows])

        def one(idx):
            return partial_sum(spectrum, idx, grid).values

        return many, one
    return tensor.partial_sums, tensor.query


@dataclass(frozen=True)
class DecompositionResult:
    """Four Abel-transform terms of a two-free-axis partial sum.

    ``terms`` holds the diagonal, the two edge sums and the boundary term as
    grid arrays for the transferred spectrum; their sum must match the
    reference partial sum of the weighted-back spectrum, and ``max_error``
    is the largest pointwise deviation of that reassembly.
    """

    index: Index
    free_axes: tuple[int, int]
    diagonal_cut: int
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    reference: np.ndarray
    max_error: float

    def term_l2(self) -> tuple[float, ...]:
        return tuple(grid_l2(t) for t in self.terms)


def decompose_free_pair(
    g_spectrum: Spectrum,
    index: Sequence[int],
    free_axes: Sequence[int],
    grid: TorusGrid,
    engine: str = "closed",
) -> DecompositionResult:
    """Split the weighted partial sum at ``index`` into its four Abel terms.

    ``g_spectrum`` is the transferred spectrum (weight divided out); the
    reference is the partial sum of the weighted-back spectrum, synthesized
    through the independent FFT path. ``engine='closed'`` uses the collapsed
    single-sum forms; ``engine='bilinear'`` evaluates the raw double Abel
    expansion (identical values, quadratically more partial sums). Every
    partial sum a term needs lies in the clamped ``index`` box, at the box
    shell on each non-free axis; the shell tensor holds only those shells and,
    on the free pair, the diagonal cut ``min(t, box)`` for ``t < n0`` and the
    box shell (every shell for ``'bilinear'``), bit-identical to the full tensor.
    """
    if g_spectrum.dimension < 3:
        raise LacsumError("decomposition needs dimension >= 3")
    if engine not in ("closed", "bilinear"):
        raise LacsumError(f"unknown engine {engine!r}")
    a, b = _free_pair_positions(g_spectrum.dimension, free_axes)
    idx = check_index(index, g_spectrum.dimension)
    na, nb = idx[a], idx[b]
    n0 = min(na, nb)

    box, _ = clamp_index(idx, g_spectrum.bandwidth)
    central = tuple(slice(bw - v, bw + v + 1) for v, bw in zip(box, g_spectrum.bandwidth))
    reach = {p: box[p] if engine == "bilinear" else min(n0, box[p]) for p in (a, b)}
    shells = [[*range(reach.get(p, 0)), v] for p, v in enumerate(box)]
    lookup_many, lookup_one = _sum_engine(Spectrum(box, g_spectrum.coeffs[central]), grid, shells)

    def sums_at(pairs: list[tuple[int, int]]) -> np.ndarray:
        rows = []
        for ta, tb in pairs:
            full = list(idx)
            full[a], full[b] = ta, tb
            rows.append(full)
        return lookup_many(rows)

    shape = grid.resolution
    zero = np.zeros(shape, dtype=complex)
    if engine == "closed":
        if n0 > 0:
            drops = np.asarray([diagonal_drop(s) for s in range(n0)])
            shaped = drops.reshape((-1,) + (1,) * len(shape))
            diag = sums_at([(t, t) for t in range(n0)])
            edge_a = sums_at([(na, q) for q in range(n0)])
            edge_b = sums_at([(t, nb) for t in range(n0)])
            term1 = -(shaped * diag).sum(axis=0)
            term2 = (shaped * edge_a).sum(axis=0)
            term3 = (shaped * edge_b).sum(axis=0)
        else:
            term1 = term2 = term3 = zero
    else:
        w = min_log_inverse
        term1, term2, term3 = zero.copy(), zero.copy(), zero.copy()
        if na > 0 and nb > 0:
            for t in range(na):
                for q in range(nb):
                    c = w(t, q) - w(t + 1, q) - w(t, q + 1) + w(t + 1, q + 1)
                    if c != 0.0:
                        term1 += c * sums_at([(t, q)])[0]
        for q in range(nb):
            c = w(na, q) - w(na, q + 1)
            if c != 0.0:
                term2 += c * sums_at([(na, q)])[0]
        for t in range(na):
            c = w(t, nb) - w(t + 1, nb)
            if c != 0.0:
                term3 += c * sums_at([(t, nb)])[0]
    term4 = min_log_inverse(na, nb) * lookup_one(idx)

    total = term1 + term2 + term3 + term4
    f_spectrum = apply_pair_weight(g_spectrum, free_axes)
    reference = partial_sum(f_spectrum, idx, grid).values
    max_error = float(np.max(np.abs(total - reference))) if total.size else 0.0
    return DecompositionResult(
        index=idx,
        free_axes=(a + 1, b + 1),
        diagonal_cut=n0,
        terms=(term1, term2, term3, term4),
        reference=reference,
        max_error=max_error,
    )

