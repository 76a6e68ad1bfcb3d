"""Spectra the tests build by hand: all zeros, one mode, or a chirp."""

from typing import Sequence

import numpy as np

from lacsum import GridFunction, LacsumError, Spectrum, TorusGrid, analyze


def zero_spectrum(bandwidth: Sequence[int]) -> Spectrum:
    bw = tuple(int(b) for b in bandwidth)
    return Spectrum(bw, np.zeros(tuple(2 * b + 1 for b in bw), dtype=complex))


def single_mode_spectrum(bandwidth: Sequence[int], nu: Sequence[int], value: complex = 1.0) -> Spectrum:
    bw = tuple(int(b) for b in bandwidth)
    if any(abs(v) > b for v, b in zip(nu, bw)):
        raise LacsumError(f"mode {tuple(nu)} outside bandwidth {bw}")
    c = np.zeros(tuple(2 * b + 1 for b in bw), dtype=complex)
    c[tuple(int(v) + b for v, b in zip(nu, bw))] = value
    return Spectrum(bw, c)


def chirp_spectrum(lam: int, grid: TorusGrid) -> Spectrum:
    """``exp(i lam sin x2 sin x3)`` analyzed on ``grid`` over the bandwidth
    ``(0, 3 lam, 3 lam)``, normalized to unit energy.

    Its coefficients are products of Bessel values ``J_n(lam)``, which are
    negligible past ``|n| = 3 lam``; raising ``lam`` moves the mass to larger
    frequencies while ``|g| = 1`` everywhere.
    """
    _, x2, x3 = np.meshgrid(*map(grid.axis_coords, range(3)), indexing="ij")
    g = GridFunction(grid, np.exp(1j * lam * np.sin(x2) * np.sin(x3)))
    s = analyze(g, (0, 3 * lam, 3 * lam))
    return Spectrum(s.bandwidth, s.coeffs / np.sqrt(s.energy()))
