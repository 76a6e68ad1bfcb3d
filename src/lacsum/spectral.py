"""Torus grids, truncated Fourier spectra, and rectangular partial sums.

The data model is deliberately small: a ``Spectrum`` holds complex
coefficients on a symmetric integer box ``|nu_j| <= B_j``; a ``TorusGrid``
is the uniform grid ``x = -pi + 2*pi*l/L`` on ``[-pi, pi)^N``; analysis and
synthesis are exact inverses on band-limited data with the plain-average
coefficient normalization, so the discrete Parseval identity
``mean |f|^2 == sum |c|^2`` holds without extra factors.

Rectangular partial sums are served by two engines:

* ``partial_sum`` restricts the coefficient box and synthesizes (FFT with a
  direct-evaluation fallback used as the test oracle);
* ``ShellTensor`` groups coefficients into shells ``(|nu_1|, ..., |nu_N|)``
  and stores their cumulative prefix sums per grid point, after which any
  box sum is a single lookup. ``plan_prefix_blocks``/``iter_prefix_slabs``
  stream the same prefix idea through memory-bounded slabs for sweeps that
  cut the lacunary axes down to a few values while keeping the full prefix
  range on one or two free axes; this is what makes the all-index maximal
  and convergence sweeps tractable.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import AliasingError, LacsumError
from .lattice import Index, LacunaryFamily, check_index

log = logging.getLogger(__name__)

_SINGULARITY_EPS = 1e-8


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the N-torus, ``x_j = -pi + 2*pi*l_j/L_j``."""

    resolution: tuple[int, ...]

    def __post_init__(self) -> None:
        res = tuple(int(r) for r in self.resolution)
        object.__setattr__(self, "resolution", res)
        if len(res) < 1:
            raise LacsumError("grid needs at least one axis")
        if any(r < 2 or r % 2 for r in res):
            raise LacsumError(f"grid resolutions must be even and >= 2, got {res}")

    @property
    def dimension(self) -> int:
        return len(self.resolution)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.resolution))

    def axis_coords(self, position: int) -> np.ndarray:
        length = self.resolution[position]
        return -np.pi + 2.0 * np.pi * np.arange(length) / length

    def meshgrid(self) -> list[np.ndarray]:
        return list(
            np.meshgrid(*(self.axis_coords(p) for p in range(self.dimension)), indexing="ij")
        )


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Spectrum:
    """Complex Fourier coefficients on the box ``|nu_j| <= B_j``.

    ``coeffs[i_1, ..., i_N]`` stores the coefficient at ``nu_j = i_j - B_j``
    (row-major from -B to +B along each axis).
    """

    bandwidth: tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        bw = tuple(int(b) for b in self.bandwidth)
        object.__setattr__(self, "bandwidth", bw)
        if any(b < 0 for b in bw):
            raise LacsumError(f"bandwidths must be nonnegative, got {bw}")
        arr = np.array(self.coeffs, dtype=complex)
        expected = tuple(2 * b + 1 for b in bw)
        if arr.shape != expected:
            raise LacsumError(f"coefficient array shape {arr.shape} != {expected}")
        if not np.all(np.isfinite(arr)):
            raise LacsumError("coefficients must be finite")
        object.__setattr__(self, "coeffs", _freeze(arr))

    @property
    def dimension(self) -> int:
        return len(self.bandwidth)

    def energy(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def coefficient(self, nu: Sequence[int]) -> complex:
        if len(nu) != self.dimension:
            raise LacsumError(f"frequency {nu} has wrong dimension")
        if any(abs(v) > b for v, b in zip(nu, self.bandwidth)):
            return 0.0 + 0.0j
        return complex(self.coeffs[tuple(v + b for v, b in zip(nu, self.bandwidth))])


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


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a ``TorusGrid``."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=complex)
        if arr.shape != self.grid.resolution:
            raise LacsumError(f"value shape {arr.shape} != grid {self.grid.resolution}")
        if not np.all(np.isfinite(arr)):
            raise LacsumError("grid values must be finite")
        object.__setattr__(self, "values", _freeze(arr))


def grid_l2(values: np.ndarray | GridFunction) -> float:
    """Average-normalized L2 norm, ``sqrt(mean |f|^2)`` (Parseval-compatible)."""
    v = values.values if isinstance(values, GridFunction) else values
    return float(np.sqrt(np.mean(np.abs(v) ** 2)))


def grid_linf(values: np.ndarray | GridFunction) -> float:
    v = values.values if isinstance(values, GridFunction) else values
    return float(np.max(np.abs(v))) if v.size else 0.0


def _sign_profile(b: int) -> np.ndarray:
    # (-1)**nu for nu = -b..b
    nus = np.arange(-b, b + 1)
    return np.where(nus % 2 == 0, 1.0, -1.0)


def _axis_matrix(b: int, coords: np.ndarray, conj: bool = False) -> np.ndarray:
    nus = np.arange(-b, b + 1)
    sign = -1.0 if conj else 1.0
    return np.exp(sign * 1j * np.outer(coords, nus))  # (L, 2b+1)


def _apply_axis(arr: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, arr, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


def synthesize(spectrum: Spectrum, grid: TorusGrid, method: str = "fft") -> GridFunction:
    """Evaluate ``f(x) = sum_nu c_nu exp(i nu.x)`` on every grid point.

    The FFT path folds frequencies modulo the grid size, which reproduces the
    exact grid values for any even resolution; the direct path evaluates the
    sum literally and serves as the independent oracle in tests.
    """
    if grid.dimension != spectrum.dimension:
        raise LacsumError("grid and spectrum dimension mismatch")
    if method == "direct":
        vals = spectrum.coeffs
        for p in range(spectrum.dimension):
            vals = _apply_axis(vals, _axis_matrix(spectrum.bandwidth[p], grid.axis_coords(p)), p)
        return GridFunction(grid, vals)
    if method != "fft":
        raise LacsumError(f"unknown synthesis method {method!r}")
    res = grid.resolution
    signed = spectrum.coeffs.copy()
    for p, b in enumerate(spectrum.bandwidth):
        shape = [1] * spectrum.dimension
        shape[p] = 2 * b + 1
        signed = signed * _sign_profile(b).reshape(shape)
    folded = np.zeros(res, dtype=complex)
    bins = [np.mod(np.arange(-b, b + 1), L) for b, L in zip(spectrum.bandwidth, res)]
    np.add.at(folded, np.ix_(*bins), signed)
    vals = np.fft.ifftn(folded) * grid.npoints
    return GridFunction(grid, vals)


def analyze(f: GridFunction, bandwidth: Sequence[int]) -> Spectrum:
    """Recover coefficients ``c_nu = mean_l f(x_l) exp(-i nu.x_l)``.

    Exact for trigonometric polynomials within the requested bandwidth;
    requires ``L_j >= 2*B_j + 2`` so no folded frequency lands in the box.
    """
    bw = tuple(int(b) for b in bandwidth)
    if len(bw) != f.grid.dimension:
        raise LacsumError("bandwidth and grid dimension mismatch")
    for b, L in zip(bw, f.grid.resolution):
        if L < 2 * b + 2:
            raise AliasingError(
                f"grid size {L} cannot resolve bandwidth {b} (need L >= {2 * b + 2})"
            )
    transform = np.fft.fftn(f.values) / f.grid.npoints
    bins = [np.mod(np.arange(-b, b + 1), L) for b, L in zip(bw, f.grid.resolution)]
    coeffs = transform[np.ix_(*bins)].copy()
    for p, b in enumerate(bw):
        shape = [1] * len(bw)
        shape[p] = 2 * b + 1
        coeffs *= _sign_profile(b).reshape(shape)
    return Spectrum(bw, coeffs)


def clamp_index(n: Sequence[int], bandwidth: Sequence[int]) -> tuple[Index, bool]:
    """Clamp a partial-sum index to the coefficient box, reporting whether it moved."""
    idx = check_index(n, len(bandwidth))
    clamped = tuple(min(v, b) for v, b in zip(idx, bandwidth))
    return clamped, clamped != idx


def restrict(spectrum: Spectrum, box: Sequence[int]) -> Spectrum:
    """Zero every coefficient outside ``|nu_j| <= box_j`` (bandwidth unchanged)."""
    n, _ = clamp_index(box, spectrum.bandwidth)
    out = np.zeros_like(spectrum.coeffs)
    sl = tuple(slice(b - v, b + v + 1) for v, b in zip(n, spectrum.bandwidth))
    out[sl] = spectrum.coeffs[sl]
    return Spectrum(spectrum.bandwidth, out)


def partial_sum(spectrum: Spectrum, n: Sequence[int], grid: TorusGrid, method: str = "fft") -> GridFunction:
    """Rectangular partial sum ``S_n``: all modes with ``|nu_j| <= n_j``.

    Components beyond the bandwidth are clamped (the missing modes are zero),
    with a log notice.
    """
    clamped, moved = clamp_index(n, spectrum.bandwidth)
    if moved:
        log.info("partial-sum index %s clamped to bandwidth %s", tuple(n), clamped)
    return synthesize(restrict(spectrum, clamped), grid, method=method)


# ---------------------------------------------------------------------------
# classical kernels and Cesaro means


def _cosine_series(points: np.ndarray, n: int, weights: np.ndarray | None = None) -> np.ndarray:
    # 1 + 2 sum_k w_k cos(k u), the safe evaluation near sin(u/2) = 0
    if n == 0:
        return np.ones_like(points)
    ks = np.arange(1, n + 1)
    w = np.ones(n) if weights is None else weights
    return 1.0 + 2.0 * (w * np.cos(np.multiply.outer(points, ks))).sum(axis=-1)


def dirichlet_kernel(n: int, u: float | np.ndarray) -> float | np.ndarray:
    """D_n(u) = sum_{|k|<=n} exp(iku) = sin((n+1/2)u)/sin(u/2), D_n(0) = 2n+1."""
    if n < 0:
        raise LacsumError("kernel order must be >= 0")
    scalar = np.ndim(u) == 0
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    s = np.sin(arr / 2.0)
    near = np.abs(s) < _SINGULARITY_EPS
    safe = np.where(near, 1.0, s)
    out = np.sin((n + 0.5) * arr) / safe
    if np.any(near):
        out[near] = _cosine_series(arr[near], n)
    return float(out[0]) if scalar else out.reshape(np.shape(u))


def fejer_kernel(n: int, u: float | np.ndarray) -> float | np.ndarray:
    """K_n(u) = (1/(n+1)) sum_{r<=n} D_r(u); nonnegative, K_n(0) = n+1."""
    if n < 0:
        raise LacsumError("kernel order must be >= 0")
    scalar = np.ndim(u) == 0
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    s = np.sin(arr / 2.0)
    near = np.abs(s) < _SINGULARITY_EPS
    safe = np.where(near, 1.0, s)
    top = np.sin((n + 1) * arr / 2.0)
    out = (top * top) / ((n + 1) * safe * safe)
    if np.any(near):
        weights = 1.0 - np.arange(1, n + 1) / (n + 1.0) if n else None
        out[near] = _cosine_series(arr[near], n, weights)
    return float(out[0]) if scalar else out.reshape(np.shape(u))


def cesaro_mean(partial_sums: Callable[[int], complex | np.ndarray], n: int):
    """Average of the first n+1 partial sums, ``(1/(n+1)) sum_{r=0}^{n} S_r``."""
    if n < 0:
        raise LacsumError("Cesaro order must be >= 0")
    total = partial_sums(0)
    total = np.array(total, dtype=complex) if isinstance(total, np.ndarray) else complex(total)
    for r in range(1, n + 1):
        total = total + partial_sums(r)
    return total / (n + 1)


# ---------------------------------------------------------------------------
# lacunary block split


def split_lacunary_blocks(
    spectrum: Spectrum, axis: int, family: LacunaryFamily
) -> tuple[Spectrum, Spectrum]:
    """Split ``spectrum`` along a 1-based ``axis`` into odd/even lacunary blocks.

    Block 0 holds ``k = 0``; block ``lam >= 1`` holds
    ``terms[lam-1] < |k| <= terms[lam]`` (with a zeroth boundary of 0).
    Returns ``(g1, g2)`` where g1 collects the odd-numbered blocks and g2 the
    even ones, so supports are disjoint and ``g1 + g2`` restores the input.
    Frequencies beyond the last term are merged into the last block, with a
    log notice.
    """
    pos = axis - 1
    if pos < 0 or pos >= spectrum.dimension:
        raise LacsumError(f"axis {axis} out of range 1..{spectrum.dimension}")
    b = spectrum.bandwidth[pos]
    terms = family.terms
    if terms[-1] < b:
        log.info(
            "family tops out at %d below bandwidth %d; trailing frequencies join the last block",
            terms[-1],
            b,
        )
    absk = np.abs(np.arange(-b, b + 1))
    block = np.searchsorted(terms, absk, side="left") + 1
    block[absk == 0] = 0
    block = np.minimum(block, len(terms))
    odd = (block % 2).astype(bool)
    shape = [1] * spectrum.dimension
    shape[pos] = 2 * b + 1
    odd_mask = odd.reshape(shape)
    g1 = np.where(odd_mask, spectrum.coeffs, 0.0)
    g2 = np.where(odd_mask, 0.0, spectrum.coeffs)
    return Spectrum(spectrum.bandwidth, g1), Spectrum(spectrum.bandwidth, g2)


# ---------------------------------------------------------------------------
# shell prefix machinery


@functools.lru_cache(maxsize=64)
def _phase_pair_cached(b: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    coords = -np.pi + 2.0 * np.pi * np.arange(length) / length
    return _phase_pair_from_coords(b, coords)


def _phase_pair_from_coords(b: int, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shells = np.arange(b + 1)
    ep = np.exp(1j * np.outer(shells, coords))
    en = np.exp(-1j * np.outer(shells, coords))
    en[0] = 0.0  # the nu = 0 mode lives in the positive half only
    ep.setflags(write=False)
    en.setflags(write=False)
    return ep, en


def _shell_expand(arr: np.ndarray, axis: int, ep: np.ndarray, en: np.ndarray) -> np.ndarray:
    """Turn coefficient axis ``axis`` (size 2b+1) into a (shell, grid) pair.

    Output axis ``axis`` indexes the shell ``i = |nu|`` and ``axis + 1`` the
    grid coordinate; the shell value is ``c_{+i} e^{i i x} + c_{-i} e^{-i i x}``.
    """
    moved = np.moveaxis(arr, axis, -1)
    b = ep.shape[0] - 1
    pos = moved[..., b:]
    neg = moved[..., b::-1]
    out = pos[..., :, None] * ep + neg[..., :, None] * en
    return np.moveaxis(out, (-2, -1), (axis, axis + 1))


class ShellTensor:
    """Cumulative shell sums giving O(1) rectangular partial-sum queries.

    After an ``O(prod(2B_j + 1))`` pass per point, ``query(n)`` returns
    ``S_n`` at every precomputed point by a single lookup, and individual
    shell contributions are recovered by inclusion-exclusion over the
    prefix corners.
    """

    def __init__(self, spectrum: Spectrum, prefix: np.ndarray, grid: TorusGrid | None):
        self.spectrum = spectrum
        self.grid = grid
        self._prefix = _freeze(prefix)

    @classmethod
    def from_grid(
        cls, spectrum: Spectrum, grid: TorusGrid, max_bytes: int = 1 << 28
    ) -> "ShellTensor":
        if grid.dimension != spectrum.dimension:
            raise LacsumError("grid and spectrum dimension mismatch")
        shells = int(np.prod([b + 1 for b in spectrum.bandwidth]))
        need = shells * grid.npoints * 16
        if need > max_bytes:
            raise LacsumError(
                f"shell tensor would take {need} bytes (> {max_bytes}); "
                "use the blocked prefix sweep for sizes like this"
            )
        pairs = [_phase_pair_cached(b, L) for b, L in zip(spectrum.bandwidth, grid.resolution)]
        return cls(spectrum, cls._build(spectrum, pairs), grid)

    @classmethod
    def from_point(cls, spectrum: Spectrum, point: Sequence[float]) -> "ShellTensor":
        if len(point) != spectrum.dimension:
            raise LacsumError("point and spectrum dimension mismatch")
        pairs = [
            _phase_pair_from_coords(b, np.asarray([float(x)]))
            for b, x in zip(spectrum.bandwidth, point)
        ]
        prefix = cls._build(spectrum, pairs)
        return cls(spectrum, prefix.reshape(prefix.shape[: spectrum.dimension]), None)

    @staticmethod
    def _build(spectrum: Spectrum, pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        dim = spectrum.dimension
        arr = spectrum.coeffs
        # expand each coefficient axis into an adjacent (shell, coord) pair
        for p in range(dim):
            ep, en = pairs[p]
            arr = _shell_expand(arr, 2 * p, ep, en)
        perm = tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2))
        arr = np.ascontiguousarray(np.transpose(arr, perm))
        for p in range(dim):
            np.cumsum(arr, axis=p, out=arr)
        return arr

    def _clamped(self, n: Sequence[int]) -> Index:
        clamped, _ = clamp_index(n, self.spectrum.bandwidth)
        return clamped

    def query(self, n: Sequence[int]) -> complex | np.ndarray:
        """Partial sum ``S_n`` at every stored point (scalar for a point tensor)."""
        idx = self._clamped(n)
        out = self._prefix[idx]
        return complex(out) if self.grid is None else out

    def partial_sums(self, indices: Sequence[Sequence[int]]) -> np.ndarray:
        """Stack of partial sums for many indices: shape ``(K, *grid)`` or ``(K,)``."""
        idx = np.asarray([self._clamped(n) for n in indices])
        gathered = self._prefix[tuple(idx[:, p] for p in range(self.spectrum.dimension))]
        return gathered

    def shell(self, shell_index: Sequence[int]) -> complex | np.ndarray:
        """One shell contribution, by inclusion-exclusion over prefix corners."""
        idx = check_index(shell_index, self.spectrum.dimension)
        if any(i > b for i, b in zip(idx, self.spectrum.bandwidth)):
            raise LacsumError(f"shell {idx} outside bandwidth {self.spectrum.bandwidth}")
        total = None
        for eps in itertools.product((0, 1), repeat=self.spectrum.dimension):
            corner = tuple(i - e for i, e in zip(idx, eps))
            if any(c < 0 for c in corner):
                continue
            term = self._prefix[corner]
            sign = -1.0 if sum(eps) % 2 else 1.0
            total = sign * term if total is None else total + sign * term
        if total is None:  # pragma: no cover - unreachable, corner (0,..,0) always valid
            raise LacsumError("empty inclusion-exclusion")
        return complex(total) if self.grid is None else total


def build_shell_tensor(spectrum: Spectrum, target: TorusGrid | Sequence[float]) -> ShellTensor:
    """Build a shell tensor over a full grid or a single point."""
    if isinstance(target, TorusGrid):
        return ShellTensor.from_grid(spectrum, target)
    return ShellTensor.from_point(spectrum, target)


# ---------------------------------------------------------------------------
# blocked prefix sweep


@dataclass(frozen=True)
class PrefixBlockPlan:
    """Layout of a staged sweep: cut axes pinned to a few partial-sum values,
    free axes carrying their full prefix range.

    Rows enumerate ``(cut-value combo, grid coordinates of the cut axes)`` in
    C order, combos outermost.
    """

    cut_axes: tuple[int, ...]
    cut_values: tuple[tuple[int, ...], ...]
    free_axes: tuple[int, ...]
    free_limits: tuple[int, ...]
    combo_shape: tuple[int, ...]
    lac_grid_shape: tuple[int, ...]

    @property
    def rows(self) -> int:
        return int(np.prod(self.combo_shape, dtype=int) * np.prod(self.lac_grid_shape, dtype=int))


def cut_table(
    family: LacunaryFamily, bandwidth: int, min_term: int = 0
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Distinct clamped cut values with their smallest originating terms.

    Terms below ``min_term`` are skipped; terms clamping to the same value
    merge onto the smallest of them.
    """
    clamped: list[int] = []
    originals: list[int] = []
    for t in family.terms:
        if t < min_term:
            continue
        c = min(t, bandwidth)
        if not clamped or c != clamped[-1]:
            clamped.append(c)
            originals.append(t)
    return tuple(clamped), tuple(originals)


def plan_prefix_blocks(
    spectrum: Spectrum,
    grid: TorusGrid,
    cut_axes: Sequence[int],
    cut_values: Sequence[Sequence[int]],
) -> PrefixBlockPlan:
    """Validate and lay out a blocked prefix sweep.

    ``cut_axes`` are 0-based coefficient axes whose partial-sum limit only
    takes the listed (clamped, strictly increasing) values; the remaining one
    or two axes keep the full prefix range ``0..B``.
    """
    dim = spectrum.dimension
    if grid.dimension != dim:
        raise LacsumError("grid and spectrum dimension mismatch")
    cut = tuple(int(a) for a in cut_axes)
    if len(set(cut)) != len(cut) or any(a < 0 or a >= dim for a in cut):
        raise LacsumError(f"bad cut axes {cut}")
    free = tuple(a for a in range(dim) if a not in cut)
    if len(free) not in (1, 2):
        raise LacsumError(f"blocked sweep needs 1 or 2 free axes, got {len(free)}")
    if len(cut_values) != len(cut):
        raise LacsumError("need one cut-value list per cut axis")
    values = []
    for axis, vals in zip(cut, cut_values):
        v = tuple(int(x) for x in vals)
        if not v:
            raise LacsumError(f"cut axis {axis} has no values")
        if any(x < 0 or x > spectrum.bandwidth[axis] for x in v):
            raise LacsumError(f"cut values {v} outside 0..{spectrum.bandwidth[axis]}")
        if any(a >= b for a, b in zip(v, v[1:])):
            raise LacsumError(f"cut values must be strictly increasing, got {v}")
        values.append(v)
    return PrefixBlockPlan(
        cut_axes=cut,
        cut_values=tuple(values),
        free_axes=free,
        free_limits=tuple(spectrum.bandwidth[a] for a in free),
        combo_shape=tuple(len(v) for v in values),
        lac_grid_shape=tuple(grid.resolution[a] for a in cut),
    )


def _cut_stage(spectrum: Spectrum, grid: TorusGrid, plan: PrefixBlockPlan) -> np.ndarray:
    """Pin the cut axes: returns ``(rows, *free coefficient axes)``."""
    arr = np.transpose(spectrum.coeffs, plan.cut_axes + plan.free_axes)
    for t, axis in enumerate(plan.cut_axes):
        b = spectrum.bandwidth[axis]
        ep, en = _phase_pair_cached(b, grid.resolution[axis])
        arr = _shell_expand(arr, 2 * t, ep, en)
        arr = np.cumsum(arr, axis=2 * t)
        arr = np.take(arr, np.asarray(plan.cut_values[t]), axis=2 * t)
    k = len(plan.cut_axes)
    perm = tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2)) + tuple(range(2 * k, arr.ndim))
    arr = np.ascontiguousarray(np.transpose(arr, perm))
    return arr.reshape((plan.rows,) + tuple(2 * b + 1 for b in plan.free_limits))


def iter_prefix_slabs(
    spectrum: Spectrum, grid: TorusGrid, plan: PrefixBlockPlan
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Stream partial-sum prefixes for the planned sweep, one slab at a time.

    Yields ``(row, mb, slab)`` for every row and every prefix value ``mb`` of
    the second free axis in increasing order, where ``slab[ma, xa, xb]`` is
    the rectangular partial sum with the row's cut-value combo on the cut
    axes and ``(ma, mb)`` on the free axes. A plan with one free axis streams
    a phantom second axis of bandwidth 0 on a 1-point grid, so ``mb`` is
    always 0 and ``xb`` has length 1. The slab buffer is grown in place
    between yields (a running prefix), so consumers must reduce it before
    advancing.

    Keeping the slab at ``(B_a + 1) * L_a * L_b`` entries instead of
    materializing the full ``(B_a + 1, L_a, B_b + 1, L_b)`` block is what
    keeps the sweep cache-resident at grid scale.
    """
    arr = _cut_stage(spectrum, grid, plan)
    free = [(spectrum.bandwidth[a], grid.resolution[a]) for a in plan.free_axes]
    if len(free) == 1:
        arr = arr[..., None]
        free.append((0, 1))
    (ba, la), (bb, lb) = free
    epa, ena = _phase_pair_cached(ba, la)
    epb, enb = _phase_pair_cached(bb, lb)
    slab = np.empty((ba + 1, la, lb), dtype=complex)
    tmp = np.empty_like(slab)
    for row in range(plan.rows):
        w = _shell_expand(arr[row], 0, epa, ena)  # (ma, xa, nu_b)
        np.cumsum(w, axis=0, out=w)
        np.copyto(slab, w[..., bb, None])
        yield row, 0, slab
        for mb in range(1, bb + 1):
            np.multiply(w[..., bb + mb, None], epb[mb], out=tmp)
            slab += tmp
            np.multiply(w[..., bb - mb, None], enb[mb], out=tmp)
            slab += tmp
            yield row, mb, slab
