"""Spectra the tests build by hand: all zeros, or one mode."""

from typing import Sequence

import numpy as np

from lacsum import LacsumError, Spectrum


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
