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
  box sum is a single lookup. It and the stream's cut stage share one
  kernel, ``_shell_prefixes``, the running sum over one axis's shells.
  ``plan_prefix_blocks``/``iter_prefix_slabs``
  stream the same prefix idea through memory-bounded slabs for sweeps over
  a ``JkIndexSpace`` of any shape: its lacunary axes are cut down to their
  clamped term values, every free axis past the second is cut down to its
  capped prefix values, and the first two free axes keep the full prefix
  range; this is what makes the all-index maximal and convergence sweeps
  tractable. The plan owns that layout (cut values and terms, streamed
  free axes padded with phantom axes, row count, axis order), so the
  sweeps that consume the stream only reduce its slabs. Each yielded slab
  holds a batch of consecutive rows (cut-axis grid points of one cut-value
  combo), as many as fit a byte budget, so small slabs cost one numpy call
  per batch rather than per row; a row larger than the budget is yielded in
  tiles of consecutive shells of the first free axis, so a slab stays
  cache-resident while it grows. Slabs are shell-major (each shell of a
  batch is one contiguous block). The last cut axis is summed inside the
  stream, once per combo of the others, so only one combo's rows are live
  and the next combo reuses their buffer.
"""

from __future__ import annotations

import functools
import logging
import math
import mmap
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import AliasingError, LacsumError
from .lattice import Index, JkIndexSpace, LacunaryFamily, check_index

log = logging.getLogger(__name__)


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
        if self.npoints * 16 > _ARRAY_BYTES:
            raise LacsumError(f"grid {res} would take {self.npoints * 16} bytes (> {_ARRAY_BYTES})")

    @property
    def dimension(self) -> int:
        return len(self.resolution)

    @property
    def npoints(self) -> int:
        return math.prod(self.resolution)

    def axis_coords(self, position: int) -> np.ndarray:
        length = self.resolution[position]
        return -np.pi + 2.0 * np.pi * np.arange(length) / length


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


def partial_sum(spectrum: Spectrum, n: Sequence[int], grid: TorusGrid) -> GridFunction:
    """Rectangular partial sum ``S_n``: all modes with ``|nu_j| <= n_j``.

    Components beyond the bandwidth are clamped (the missing modes are zero),
    with a log notice.
    """
    clamped, moved = clamp_index(n, spectrum.bandwidth)
    if moved:
        log.info("partial-sum index %s clamped to bandwidth %s", tuple(n), clamped)
    return synthesize(restrict(spectrum, clamped), grid)


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
    shells = np.arange(b + 1)
    ep = np.exp(1j * np.outer(shells, coords))
    en = np.exp(-1j * np.outer(shells, coords))
    en[0] = 0.0  # the nu = 0 mode lives in the positive half only
    ep.setflags(write=False)
    en.setflags(write=False)
    return ep, en


# largest shell tensor ShellTensor.from_grid builds, in bytes (256 MiB)
_SHELL_BYTES = 1 << 28
# largest array an input may size, in bytes (256 MiB): a generated test
# spectrum's coefficient box, a grid's complex samples or a sweep's running
# maxima; and numpy's limit
# on the number of array axes
_ARRAY_BYTES = 1 << 28
_MAX_AXES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32


class ShellTensor:
    """Cumulative shell sums giving O(1) rectangular partial-sum queries.

    After an ``O(prod(2B_j + 1))`` pass per grid point, ``query(n)`` returns
    ``S_n`` at every grid point by a single lookup. The build pins every axis
    at every shell with the cut stage's kernel (``_pin_axes``), so the tensor
    is one ``(shells..., grid...)`` array and each box a contiguous block.
    """

    def __init__(self, spectrum: Spectrum, prefix: np.ndarray):
        self.spectrum = spectrum
        self._prefix = _freeze(prefix)

    @classmethod
    def from_grid(cls, spectrum: Spectrum, grid: TorusGrid) -> "ShellTensor":
        if grid.dimension != spectrum.dimension:
            raise LacsumError("grid and spectrum dimension mismatch")
        shape = tuple(b + 1 for b in spectrum.bandwidth) + grid.resolution
        need = math.prod(shape) * 16
        if need > _SHELL_BYTES:
            raise LacsumError(f"shell tensor would take {need} bytes (> {_SHELL_BYTES})")
        # the tensor gets an anonymous mapping of its own: freeing a large
        # malloc'd tensor raises glibc's dynamic mmap threshold, after which
        # the next one lands on the brk heap, in pages that may or may not be
        # resident already, so the process's peak memory would depend on
        # unrelated heap layout. Private pages, and huge ones where the kernel
        # offers them (numpy asks the same for its large arrays), fault in
        # cheaper than the shared pages mmap maps by default
        buf = mmap.mmap(-1, need, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            buf.madvise(mmap.MADV_HUGEPAGE)
        prefix = np.frombuffer(buf, dtype=complex).reshape(shape)
        _pin_axes(spectrum, grid, range(grid.dimension), [range(b + 1) for b in spectrum.bandwidth], prefix)
        return cls(spectrum, prefix)

    def _clamped(self, n: Sequence[int]) -> Index:
        clamped, _ = clamp_index(n, self.spectrum.bandwidth)
        return clamped

    def query(self, n: Sequence[int]) -> np.ndarray:
        """Partial sum ``S_n`` at every grid point."""
        return self._prefix[self._clamped(n)]

    def partial_sums(self, indices: Sequence[Sequence[int]]) -> np.ndarray:
        """Stack of partial sums for many indices, shape ``(K, *grid)``."""
        idx = np.asarray([self._clamped(n) for n in indices])
        return self._prefix[tuple(idx[:, p] for p in range(self.spectrum.dimension))]

# ---------------------------------------------------------------------------
# blocked prefix sweep


@dataclass(frozen=True)
class PrefixBlockPlan:
    """Layout of a staged sweep over a ``JkIndexSpace``: the lacunary axes are
    cut to their clamped term values, every free axis past the second to its
    prefix values, and the first two free axes carry their full prefix range.

    ``cut_axes`` lists the lacunary axes, then the cut free axes.
    ``cut_values[t]`` holds the distinct values ``min(term, B)`` of cut axis
    ``t`` and ``cut_terms[t]`` the smallest term behind each; a cut free axis
    takes the values ``min(min_term, B)..min(cap, B)`` as both. ``free_axes``
    lists the streamed free axes, at most two. ``free_limits`` and
    ``free_grid`` always have two entries: a plan with fewer streamed axes
    adds phantom axes of bandwidth 0 on one grid point, so the stream has one
    shape. ``free_start`` is the lowest prefix value streamed per free axis,
    ``min(min_term, B)`` (0 on a phantom axis and for ``min_term=0``).
    ``perm`` is the spectrum axes in stream order, cut axes first.
    Rows enumerate ``(cut-value combo, grid coordinates of the cut axes)`` in
    C order, combos outermost, ``lac_size`` grid points per combo.
    """

    cut_axes: tuple[int, ...]
    cut_values: tuple[tuple[int, ...], ...]
    cut_terms: tuple[tuple[int, ...], ...]
    free_axes: tuple[int, ...]
    free_limits: tuple[int, int]
    free_grid: tuple[int, int]
    free_start: tuple[int, int]
    lac_size: int

    @property
    def perm(self) -> tuple[int, ...]:
        return self.cut_axes + self.free_axes

    @property
    def combo_shape(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.cut_values)

    @property
    def rows(self) -> int:
        return int(np.prod(self.combo_shape, dtype=int)) * self.lac_size


def plan_prefix_blocks(
    spectrum: Spectrum, grid: TorusGrid, space: JkIndexSpace, min_term: int = 0
) -> PrefixBlockPlan:
    """Lay out the blocked prefix sweep of ``space`` on ``grid``.

    Terms below ``min_term`` are skipped; terms clamping to the same
    bandwidth value merge onto the smallest of them. The free axes start at
    ``min_term``, clamped to their bandwidth; free axes past the second are
    cut at their cap, clamped the same way. A lacunary axis needs a term
    ``>= min_term`` and a cut free axis a cap that reaches its start.
    """
    dim = spectrum.dimension
    if grid.dimension != dim or space.sample.dimension != dim:
        raise LacsumError("grid, space and spectrum dimension mismatch")
    if min_term < 0:
        raise LacsumError(f"min_term must be >= 0, got {min_term}")
    lac, free = space.sample.lacunary_positions, space.sample.free_positions
    values, terms = [], []
    for axis, family in zip(lac, space.families):
        b = spectrum.bandwidth[axis]
        kept = [t for t in family.terms if t >= min_term]
        # terms increase, so a term after one already clamped to b adds nothing
        kept = [t for i, t in enumerate(kept) if i == 0 or kept[i - 1] < b]
        if not kept:
            raise LacsumError(f"no lacunary terms >= {min_term} on axis {axis + 1}")
        terms.append(tuple(kept))
        values.append(tuple(min(t, b) for t in kept))
    # a free axis past the second is cut like a lacunary axis whose terms are
    # its prefix values
    for axis, cap in zip(free[2:], space.free_caps[2:]):
        b = spectrum.bandwidth[axis]
        kept = tuple(range(min(min_term, b), min(cap, b) + 1))
        if not kept:
            raise LacsumError(f"free cap {cap} below min_term {min_term} on axis {axis + 1}")
        terms.append(kept)
        values.append(kept)
    cut, free = lac + free[2:], free[:2]
    phantom = 2 - len(free)
    limits = tuple(spectrum.bandwidth[a] for a in free) + (0,) * phantom
    return PrefixBlockPlan(
        cut_axes=cut,
        cut_values=tuple(values),
        cut_terms=tuple(terms),
        free_axes=free,
        free_limits=limits,
        free_grid=tuple(grid.resolution[a] for a in free) + (1,) * phantom,
        free_start=tuple(min(min_term, b) for b in limits),
        lac_size=int(np.prod([grid.resolution[a] for a in cut], dtype=int)),
    )


def _shell_prefixes(
    arr: np.ndarray, axis: int, b: int, length: int, values: Sequence[int], out: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Yield the running sum over the shells ``|nu| = 0, 1, ...`` of axis
    ``axis`` of ``arr`` (size ``2b + 1``, becoming its grid coordinate) at
    each of the increasing ``values``; shell ``i`` is formed as
    ``(c_{+i} e^{+i x} + c_{-i} e^{-i x}) + previous sum``.

    Given ``out``, the sum at ``values[j]`` is formed in ``out[j]`` itself.
    The shells no value keeps there go to two alternating spare buffers, so
    a yielded spare is overwritten two shells later; besides them only one
    shell's temporary is live.
    """
    ep, en = _phase_pair_cached(b, length)
    # nu first, then a length-1 slot where the grid coordinate goes
    coef = np.expand_dims(np.moveaxis(arr, axis, 0), axis + 1)
    phase_shape = (length,) + (1,) * (arr.ndim - axis - 1)
    tmp = np.empty(np.broadcast_shapes(coef.shape[1:], phase_shape), dtype=complex)
    kept = dict(zip(values, () if out is None else out))
    spare = [np.empty_like(tmp) for _ in range(min(2, values[-1] + 1 - len(kept)))]
    for i in range(values[-1] + 1):
        dest = kept[i] if i in kept else spare[i % len(spare)]
        np.multiply(coef[b + i], ep[i].reshape(phase_shape), out=dest)
        np.multiply(coef[b - i], en[i].reshape(phase_shape), out=tmp)
        dest += tmp
        if i:
            dest += prev
        prev = dest
        if i in values:
            yield dest


def _pin_axes(
    spectrum: Spectrum, grid: TorusGrid, perm: Sequence[int], values: Sequence, out: np.ndarray | None = None
) -> np.ndarray:
    """Pin the spectrum axes ``perm[:len(values)]`` at their ``values``:
    returns ``(values..., their grid coordinates..., the other coefficient
    axes in perm order)``, in ``out`` when given.

    Each pinned axis in turn becomes a (value, grid coordinate) pair, its
    running shell sums formed in place by ``_shell_prefixes``.
    """
    arr = np.transpose(spectrum.coeffs, perm)
    for t, (axis, vals) in enumerate(zip(perm, values)):
        length = grid.resolution[axis]
        shape = arr.shape[:t] + (len(vals),) + arr.shape[t : 2 * t] + (length,) + arr.shape[2 * t + 1 :]
        dest = out if out is not None and t == len(values) - 1 else np.empty(shape, dtype=complex)
        for _ in _shell_prefixes(arr, 2 * t, spectrum.bandwidth[axis], length, vals, np.moveaxis(dest, t, 0)):
            pass
        arr = dest
    return arr


def _cut_stage(spectrum: Spectrum, grid: TorusGrid, plan: PrefixBlockPlan) -> np.ndarray:
    """Pin every cut axis but the last: returns ``(leading cut values, their
    grid coordinates, last cut axis's coefficients, 2 B_a + 1, 2 B_b + 1)``,
    the free coefficient axes in stream order (a phantom axis has length 1).
    With no cut axis only the two free axes remain.

    The last cut axis is left to ``iter_prefix_slabs``, which runs its shell
    sum once per leading combo, so only one combo's rows are live.
    """
    arr = _pin_axes(spectrum, grid, plan.perm, plan.cut_values[:-1])
    lead = arr.shape[: arr.ndim - len(plan.free_axes)]
    return arr.reshape(lead + tuple(2 * b + 1 for b in plan.free_limits))


# slab budget of one yield in bytes; 256 KiB keeps a slab, its temporary and
# a consumer's |z|^2 buffers within a 2 MiB L2
_SLAB_BYTES = 1 << 18


def iter_prefix_slabs(
    spectrum: Spectrum, grid: TorusGrid, plan: PrefixBlockPlan
) -> Iterator[tuple[tuple[int, int], int, np.ndarray]]:
    """Stream partial-sum prefixes for the planned sweep, a tile of shells of
    a batch of rows at a time.

    Yields ``((row, ma), mb, slab)`` for every batch of consecutive rows,
    every tile of consecutive first-free-axis shells of it and every prefix
    value ``mb >= start_b`` of the second free axis in increasing order,
    where ``slab[i, r, xa, xb]`` is the rectangular partial sum of row
    ``row + r`` with that row's cut-value combo on the cut axes and
    ``(ma + i, mb)`` on the free axes; ``(start_a, start_b)`` is the plan's
    ``free_start``, and the first tile starts at ``ma = start_a``. Each
    shell ``i`` is one contiguous block, ``slab.shape[1]`` is the batch's
    row count and ``slab.shape[0]`` the tile's shell count. A batch never
    crosses a cut-combo boundary, so its rows share one combo and cover
    consecutive cut-axis grid points. The free axes are the plan's two
    ``free_limits`` and ``free_grid`` entries, so a plan with one streamed
    free axis streams its phantom axis: ``mb`` is always 0 and ``xb`` has
    length 1 (with none, ``xa`` too). The slab buffer is grown in place
    between yields (a running prefix), so consumers must reduce it before
    advancing.

    ``_cut_stage`` pins the leading cut axes; the last one's running shell
    sum runs here, once per leading combo, so its buffer holds one combo's
    ``lac_size`` rows at each cut value and the next combo reuses it.

    Per batch, the first free axis's shells go into ``w[i, r, xa, nu_b]``
    and are summed in place; the second free axis is added one ``mb`` at a
    time into the slab, one tile of shells after the other, except on a
    phantom axis, where ``w`` is the slab and is yielded itself, whole.
    Every buffer is allocated once per stream.

    A batch holds as many rows as fit in ``_SLAB_BYTES`` of slab, and at least
    one; a row too large for the budget is split into tiles of as many
    shells as fit, and at least one. So a tile, its temporary and what a
    consumer derives from it stay cache-resident while the ``mb`` loop
    revisits them, and batching rows keeps the number of numpy calls down
    when rows are small.
    """
    arr = _cut_stage(spectrum, grid, plan)
    (ba, bb), (la, lb), (sa, sb) = plan.free_limits, plan.free_grid, plan.free_start
    if plan.cut_axes:
        t, axis = len(plan.cut_axes) - 1, plan.cut_axes[-1]
        b, length, values = spectrum.bandwidth[axis], grid.resolution[axis], plan.cut_values[-1]
        # arr[lead] is (leading grid coordinates, last cut axis's nu, free
        # axes): the lead pins the t value axes, so nu sits at position t
        combos = (
            acc
            for lead in np.ndindex(plan.combo_shape[:-1])
            for acc in _shell_prefixes(arr[lead], t, b, length, values)
        )
    else:
        combos = (arr,)
    epa, ena = _phase_pair_cached(ba, la)
    epa, ena = epa[:, None, :, None], ena[:, None, :, None]  # (i, 1, xa, 1)
    epb, enb = _phase_pair_cached(bb, lb)
    kept = ba + 1 - sa
    batch = max(1, min(plan.lac_size, _SLAB_BYTES // (kept * la * lb * 16)))
    tile = max(1, min(kept, _SLAB_BYTES // (batch * la * lb * 16)))
    w_buf = np.empty((ba + 1, batch, la, 2 * bb + 1), dtype=complex)
    wt_buf = np.empty_like(w_buf)
    # on a phantom second axis w is the slab; a real free axis of bandwidth
    # 0 has more than one grid point and still needs w broadcast over them
    phantom = bb == 0 and lb == 1
    if not phantom:
        slab_buf = np.empty((tile, batch, la, lb), dtype=complex)
        tmp_buf = np.empty_like(slab_buf)
    for combo, rows in enumerate(combos):
        rows = rows.reshape((plan.lac_size, 2 * ba + 1, 2 * bb + 1))
        for start in range(0, plan.lac_size, batch):
            n = min(batch, plan.lac_size - start)
            row = combo * plan.lac_size + start
            r = rows[start : start + n].transpose(1, 0, 2)[:, :, None, :]  # (nu_a, r, 1, nu_b)
            w, wt = w_buf[:, :n], wt_buf[:, :n]
            np.multiply(r[ba:], epa, out=w)
            np.multiply(r[ba::-1], ena, out=wt)
            w += wt
            for i in range(1, ba + 1):
                w[i] += w[i - 1]
            if phantom:
                # every ma shell is summed, only ma >= start_a kept
                yield (row, sa), 0, w[sa:]
                continue
            for ma in range(sa, ba + 1, tile):
                part = w[ma : ma + tile]
                slab, tmp = slab_buf[: len(part), :n], tmp_buf[: len(part), :n]
                np.copyto(slab, part[..., bb, None])
                for mb in range(bb + 1):
                    if mb:
                        np.multiply(part[..., bb + mb, None], epb[mb], out=tmp)
                        slab += tmp
                        np.multiply(part[..., bb - mb, None], enb[mb], out=tmp)
                        slab += tmp
                    if mb >= sb:
                        yield (row, ma), mb, slab
