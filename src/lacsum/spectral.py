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
  and the next combo reuses their buffer. Every shell of every axis is one
  matmul pair product (``_pair_product``), whose bits are the same on every
  BLAS whose gemm fuses the multiply-add, whatever numpy's SIMD dispatch.
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
        return float(np.sum(self.coeffs.real ** 2 + self.coeffs.imag ** 2))  # np.abs's bits follow SIMD dispatch


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
    return float(np.sqrt(np.mean(v.real ** 2 + v.imag ** 2)))


def _sign_profile(b: int) -> np.ndarray:
    # (-1)**nu for nu = -b..b
    nus = np.arange(-b, b + 1)
    return np.where(nus % 2 == 0, 1.0, -1.0)


def _axis_matrix(b: int, coords: np.ndarray) -> np.ndarray:
    nus = np.arange(-b, b + 1)
    return np.exp(1j * np.outer(coords, nus))  # (L, 2b+1)


@functools.lru_cache(maxsize=64)
def _axis_matrix_cached(b: int, length: int) -> np.ndarray:
    # the direct oracle's own table, apart from the shell engine's phases
    return _freeze(_axis_matrix(b, TorusGrid((length,)).axis_coords(0)))


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
            vals = _apply_axis(vals, _axis_matrix_cached(spectrum.bandwidth[p], grid.resolution[p]), p)
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
def _phase_tables(b: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Per shell ``m``, the grid's rows ``(cos mx, sin mx)`` (``e^{imx}`` as
    floats) and rows ``(cos, 0), (0, cos), (sin, 0), (0, sin)`` over (re, im)."""
    coords = -np.pi + 2.0 * np.pi * np.arange(length) / length
    trig = np.exp(1j * np.outer(np.arange(b + 1), coords)).view(float).reshape(b + 1, length, 2)
    table = trig.transpose(0, 2, 1)[:, :, None, :, None] * np.eye(2)[:, None, :]  # row 2k + i: trig[k] at i
    return _freeze(trig), _freeze(table.reshape(b + 1, 4, 2 * length))


def _pair_product(plus: np.ndarray, minus: np.ndarray, pairs: np.ndarray, trig: np.ndarray, table: np.ndarray,
                  out: np.ndarray) -> None:
    """``out[..., x, r] = plus_r e^{+imx} + minus_r e^{-imx}`` at a shell ``m
    >= 1`` (``m = 0`` is ``c_0``, copied) as ``A cos mx + (iB) sin mx``, ``A, B
    = plus +- minus`` in ``pairs[..., :, r]``, by one matmul: each component
    is ``round(round(cos a) + sin b)`` on any FMA gemm. ``(M x 4) pairs @ (4 x
    2L) table`` for one pair per row over M > 1 rows, else ``(L x 2) trig @ (2
    x 2R) pairs``: never a unit dimension, which numpy sends to gemv."""
    a, ib = pairs[..., 0, :], pairs[..., 1, :]
    np.add(plus, minus, out=a)
    np.subtract(minus.imag, plus.imag, out=ib.real)
    np.subtract(plus.real, minus.real, out=ib.imag)
    if pairs.shape[-1] == 1 and pairs.ndim > 2 and pairs.shape[-3] > 1:
        rows = pairs.shape[:-2]
        np.matmul(pairs.view(float).reshape(*rows, 4), table, out=out.view(float).reshape(*rows, table.shape[-1]))
    else:
        np.matmul(trig, pairs.view(float), out=out.view(float))


# largest shell tensor ShellTensor.from_grid builds, in bytes (256 MiB)
_SHELL_BYTES = 1 << 28
# largest array an input may size, in bytes (256 MiB): a generated test
# spectrum's coefficient box, a grid's complex samples or a sweep's running
# maxima
_ARRAY_BYTES = 1 << 28
# numpy's limit on the number of array axes
_MAX_AXES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32


class ShellTensor:
    """Cumulative shell sums giving O(1) rectangular partial-sum queries.

    After an ``O(prod(2B_j + 1))`` pass per grid point, ``query(n)`` returns
    ``S_n`` at every grid point by a single lookup. The build pins each axis
    at the shells it is given (every shell by default) with the cut stage's
    kernel (``_pin_axes``), so the tensor is one ``(shells..., grid...)``
    array and each box a contiguous block. A kept shell goes through the same
    running sum whichever others are kept, so its bits do not depend on them;
    a lookup whose clamped index falls on a shell not kept raises.
    """

    def __init__(self, spectrum: Spectrum, prefix: np.ndarray, shells: Sequence[Sequence[int]]):
        self.spectrum = spectrum
        self._prefix = _freeze(prefix)
        self._position = [{v: i for i, v in enumerate(kept)} for kept in shells]  # per axis, shell -> slot

    @classmethod
    def from_grid(cls, spectrum: Spectrum, grid: TorusGrid, shells: Sequence | None = None) -> "ShellTensor":
        if grid.dimension != spectrum.dimension:
            raise LacsumError("grid and spectrum dimension mismatch")
        shells = [list(range(b + 1)) for b in spectrum.bandwidth] if shells is None else [list(s) for s in shells]
        if len(shells) != grid.dimension or any(not s or s != sorted(set(s)) or not 0 <= s[0] <= s[-1] <= b
                                                for s, b in zip(shells, spectrum.bandwidth)):
            raise LacsumError(f"shells must be increasing lists within each bandwidth, got {shells}")
        shape = tuple(len(s) for s in shells) + grid.resolution
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
        _pin_axes(spectrum, grid, range(grid.dimension), shells, prefix)
        return cls(spectrum, prefix, shells)

    def _positions(self, n: Sequence[int]) -> Index:
        clamped, _ = clamp_index(n, self.spectrum.bandwidth)
        try:
            return tuple(p[v] for p, v in zip(self._position, clamped))
        except KeyError:
            raise LacsumError(f"shell tensor holds no shell for index {clamped}") from None

    def query(self, n: Sequence[int]) -> np.ndarray:
        """Partial sum ``S_n`` at every grid point."""
        return self._prefix[self._positions(n)]

    def partial_sums(self, indices: Sequence[Sequence[int]]) -> np.ndarray:
        """Stack of partial sums for many indices, shape ``(K, *grid)``."""
        idx = np.asarray([self._positions(n) for n in indices])
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
    each of the increasing ``values``; shell ``i`` is ``_pair_product``'s
    ``c_{+i} e^{+i x} + c_{-i} e^{-i x}`` plus the previous sum.

    Given ``out``, the sum at ``values[j]`` is formed in ``out[j]`` itself.
    The shells no value keeps there go to two alternating spare buffers, so
    a yielded spare is overwritten two shells later; besides them only one
    shell's pairs (A, iB) are held, two coefficient slices.
    """
    trig, table = _phase_tables(b, length)
    coef = np.moveaxis(arr, axis, 0)
    lead, rest = arr.shape[:axis], arr.shape[axis + 1 :]
    pairs = np.empty(lead + (2, math.prod(rest)), dtype=complex)
    kept = dict(zip(values, () if out is None else out))
    spare = [np.empty(lead + (length,) + rest, dtype=complex) for _ in range(min(2, values[-1] + 1 - len(kept)))]
    for i in range(values[-1] + 1):
        dest = kept[i] if i in kept else spare[i % len(spare)]
        if i:
            plus, minus = (coef[b + j].reshape(lead + (-1,)) for j in (i, -i))
            _pair_product(plus, minus, pairs, trig[i], table[i], dest.reshape(lead + (length, -1)))
            dest += prev
        else:
            np.copyto(dest, np.expand_dims(coef[b], axis))
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

    Per batch, every first-free-axis shell of ``w[i, r, xa, nu_b]`` is one
    batched ``_pair_product`` of the pairs of rows ``nu_a = B_a +- i``, then
    summed in place by steps made once per stream; the second free axis is
    added one ``mb`` at a time into the slab, a tile of shells at a time, as
    the pair product of columns ``nu_b = B_b +- mb`` over the tile's
    (shell, row, xa) rows, except on a phantom axis, where ``w`` is the slab
    and is yielded itself, whole. The phases are each free axis's trig rows
    and pair table (97 KB for the suites' B = 17 on 68 points). Free-axis
    buffers are allocated once per stream, the last cut axis's shell
    buffers once per leading combo.

    A batch holds as many rows as fit in ``_SLAB_BYTES`` of slab (at least
    one), and a row too large for it splits into tiles of as many shells as
    fit (at least one), so a tile and what a consumer derives from it stay
    cache-resident while the ``mb`` loop revisits them.
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
    (trig_a, table_a), (trig_b, table_b) = _phase_tables(ba, la), _phase_tables(bb, lb)
    kept = ba + 1 - sa
    batch = max(1, min(plan.lac_size, _SLAB_BYTES // (kept * la * lb * 16)))
    tile = max(1, min(kept, _SLAB_BYTES // (batch * la * lb * 16)))
    w_buf = np.empty((ba + 1, batch, la, 2 * bb + 1), dtype=complex)
    wp_buf = np.empty((ba, batch, 2, 2 * bb + 1), dtype=complex)  # w's pairs (A, iB)
    steps = list(zip(w_buf[1:], w_buf[:-1]))  # a full batch's running-sum adds
    # on a phantom second axis w is the slab; a real free axis of bandwidth
    # 0 has more than one grid point and still needs w broadcast over them
    phantom = bb == 0 and lb == 1
    if not phantom:
        # tile x batch x la rows each, a short tile's a leading block
        slab_buf, col_buf = (np.empty((tile * batch * la, lb, 1), dtype=complex) for _ in "sc")
        sp_buf = np.empty((tile * batch * la, 2, 1), dtype=complex)
    for combo, rows in enumerate(combos):
        rows = rows.reshape((plan.lac_size, 2 * ba + 1, 2 * bb + 1))
        for start in range(0, plan.lac_size, batch):
            n = min(batch, plan.lac_size - start)
            row = combo * plan.lac_size + start
            r = rows[start : start + n].transpose(1, 0, 2)  # (nu_a, r, nu_b)
            w, wp = w_buf[:, :n], wp_buf[:, :n]
            np.copyto(w[0], r[ba, :, None])
            _pair_product(r[ba + 1 :], r[:ba][::-1], wp, trig_a[1:, None], table_a[1:], w[1:])  # every shell at once
            for shell, prev in steps if n == batch else zip(w[1:], w[:-1]):
                shell += prev
            if phantom:
                # every ma shell is summed, only ma >= start_a kept
                yield (row, sa), 0, w[sa:]
                continue
            for ma in range(sa, ba + 1, tile):
                part = w[ma : ma + tile]
                m = part.shape[0] * n * la
                slab, col, sp = slab_buf[:m], col_buf[:m], sp_buf[:m]
                shaped = slab.reshape(part.shape[:3] + (lb,))
                np.copyto(shaped, part[..., bb, None])
                for mb in range(bb + 1):
                    if mb:
                        plus, minus = (part[..., bb + j].reshape(m, 1) for j in (mb, -mb))
                        _pair_product(plus, minus, sp, trig_b[mb], table_b[mb], col)
                        slab += col
                    if mb >= sb:
                        yield (row, ma), mb, shaped
