"""Maximal operators over finite lacunary index spaces.

``M(x) = max |S_n(x)| / sqrt(W(m))`` over every enumerated index of a
``JkIndexSpace`` (free components weighted, lacunary components not). The
supremum of the underlying theory is replaced by a maximum over the
explicit finite truncation, so every report carries the caps it was taken
under; nested cap schedules are swept in one pass, which makes the
"enlarging the space never decreases M" monotonicity exact in floating
point, not just up to rounding.

Two engines compute the same numbers:

* the blocked engine streams `iter_prefix_slabs` (lacunary axes cut to
  their clamped term values, free axes carrying a full prefix range) and
  is what makes grid-scale sweeps affordable;
* the gather engine materializes a ``ShellTensor`` and looks up an explicit
  index list; it covers shapes the blocked engine does not (three or more
  free axes, non-monotone weights, diagonal index families) and doubles as
  the oracle in tests.

Both clamp indices at the spectrum bandwidth first: a partial sum does not
change past the last coefficient, and any admissible weight is
coordinatewise nondecreasing, so the maximum over a clamp group is attained
at its smallest member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, LacsumError
from .lattice import Index, JkIndexSpace, LacunaryFamily, check_index, enumerate_jk_indices
from .spectral import (
    GridFunction,
    ShellTensor,
    Spectrum,
    TorusGrid,
    cut_table,
    grid_l2,
    iter_prefix_slabs,
    plan_prefix_blocks,
)
from .weyl import WeylWeight, unit_weight, weighted_energy


def space_summary(space: JkIndexSpace) -> dict:
    return {
        "dimension": space.sample.dimension,
        "lacunary_axes": list(space.sample.lacunary_axes),
        "free_axes": list(space.sample.free_axes),
        "ratios": [f.q for f in space.families],
        "terms": [list(f.terms) for f in space.families],
        "free_caps": list(space.free_caps),
        "index_count": space.count,
    }


@dataclass(frozen=True)
class MaximalReport:
    """Result of one maximal sweep over a fixed index space."""

    grid: TorusGrid
    values: np.ndarray
    space: dict
    weight: str
    m_l2: float
    input_l2: float
    ratio: float
    argmax_ids: np.ndarray | None = None
    index_table: np.ndarray | None = None
    engine: str = "blocked"

    def argmax_index(self, point: Sequence[int]) -> Index:
        """Enumerated index achieving the maximum at one grid point."""
        if self.argmax_ids is None or self.index_table is None:
            raise LacsumError("argmax tracking was disabled for this sweep")
        row = int(self.argmax_ids[tuple(point)])
        return tuple(int(v) for v in self.index_table[row])


@dataclass(frozen=True)
class SweepResult:
    """Per-weight, per-cap-level maximal values on the grid."""

    grid: TorusGrid
    m_values: np.ndarray  # (n_weights, n_levels, *grid), real
    argmax_ids: np.ndarray | None
    index_table: np.ndarray | None
    cut_originals: tuple[tuple[int, ...], ...]
    free_limits: tuple[tuple[int, ...], ...]  # per level, clamped per free axis


def sweep_space(
    spectrum: Spectrum,
    grid: TorusGrid,
    space: JkIndexSpace,
    weights: Sequence[WeylWeight],
    cap_schedule: Sequence[Sequence[int]] | None = None,
    record_argmax: bool = False,
) -> SweepResult:
    """Blocked maximal sweep; cap levels must be nondecreasing per axis.

    Requires one or two free axes and coordinatewise-monotone weights (the
    clamp-at-bandwidth reduction is only exact under monotonicity). All cap
    levels are served from one prefix pass over the grid.
    """
    sample = space.sample
    free_pos = sample.free_positions
    if len(free_pos) not in (1, 2):
        raise LacsumError("blocked sweep needs 1 or 2 free axes; use the gather engine")
    if not all(w.monotone for w in weights):
        raise LacsumError("blocked sweep needs monotone weights; use the gather engine")
    if cap_schedule is None:
        cap_schedule = [space.free_caps]
    levels = [tuple(int(c) for c in level) for level in cap_schedule]
    if any(len(level) != len(free_pos) for level in levels):
        raise LacsumError("each cap level needs one cap per free axis")
    for prev, cur in zip(levels, levels[1:]):
        if any(c < p for p, c in zip(prev, cur)):
            raise LacsumError(f"cap schedule must be nondecreasing, got {levels}")

    lac_pos = sample.lacunary_positions
    cuts = [cut_table(fam, spectrum.bandwidth[p]) for fam, p in zip(space.families, lac_pos)]
    cut_originals = [originals for _, originals in cuts]
    plan = plan_prefix_blocks(spectrum, grid, lac_pos, [clamped for clamped, _ in cuts])

    limits = [tuple(min(c, b) for c, b in zip(level, plan.free_limits)) for level in levels]
    # one free axis sweeps as two: the stream's phantom second axis has cap 0
    phantom = (0,) * (2 - len(free_pos))
    caps = [lim + phantom for lim in limits]
    top = caps[-1]
    strides = tuple(t + 1 for t in top)
    lac_size = int(np.prod(plan.lac_grid_shape, dtype=int))

    # every index the sweep visits, shape (*combo, ma, mb, N); argmax row ids
    # count through it in C order, and zip leaves the phantom axis out
    perm = lac_pos + free_pos
    mesh = np.meshgrid(*cut_originals, *(np.arange(n) for n in strides), indexing="ij")
    index_grid = np.zeros(mesh[0].shape + (sample.dimension,), dtype=int)
    for p, m in zip(perm, mesh):
        index_grid[..., p] = m
    # 1/W per (combo, ma, mb); None marks the unit weight so the sweep can
    # skip the multiply
    inv_tables = [
        None if w.kind == "unit" else (1.0 / w.fn(index_grid)).reshape((-1,) + strides)
        for w in weights
    ]

    grid_perm_shape = tuple(grid.resolution[a] for a in perm)
    nw, nl = len(weights), len(levels)
    # the phantom axis has one grid point, matching the slab's (xa, xb)
    m2 = np.zeros((nw, nl) + grid_perm_shape + (1,) * len(phantom))
    ids = np.zeros(m2.shape, dtype=np.int64) if record_argmax else None

    # One reduction for every shape: each cap level (ra, rb) folds the max
    # over ma <= ra of every slab with mb <= rb into its running maximum. On
    # ties argmax keeps the first index in stream order (combo, mb, ma).
    for row, mb, slab in iter_prefix_slabs(spectrum, grid, plan):
        if mb > top[1]:
            continue  # beyond every cap level on the second free axis
        combo_flat, lac_flat = row // lac_size, row % lac_size
        lac_coords = np.unravel_index(lac_flat, plan.lac_grid_shape) if lac_pos else ()
        view = slab[: top[0] + 1]
        sq = view.real**2 + view.imag**2
        for wi, inv in enumerate(inv_tables):
            q = sq if inv is None else sq * inv[combo_flat, :, mb, None, None]
            for li, (ra, rb) in enumerate(caps):
                if mb > rb:
                    continue
                sub = q[: ra + 1]
                cand = sub.max(axis=0)
                dest = (wi, li) + lac_coords
                if ids is None:
                    np.maximum(m2[dest], cand, out=m2[dest])
                else:
                    rid = (combo_flat * strides[0] + sub.argmax(axis=0)) * strides[1] + mb
                    better = cand > m2[dest]
                    m2[dest][better] = cand[better]
                    ids[dest][better] = rid[better]

    inverse = (0, 1) + tuple(2 + perm.index(a) for a in range(sample.dimension))
    shape = (nw, nl) + grid_perm_shape
    m_values = np.sqrt(np.transpose(m2.reshape(shape), inverse))
    if ids is not None:
        ids = np.transpose(ids.reshape(shape), inverse)
    return SweepResult(
        grid=grid,
        m_values=m_values,
        argmax_ids=ids,
        index_table=index_grid.reshape(-1, sample.dimension) if record_argmax else None,
        cut_originals=tuple(cut_originals),
        free_limits=tuple(limits),
    )


# ---------------------------------------------------------------------------
# gather engine


def gather_max(
    spectrum: Spectrum,
    grid: TorusGrid,
    indices: Sequence[Sequence[int]],
    weight: WeylWeight | None = None,
    record_argmax: bool = True,
    max_bytes: int = 1 << 28,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Maximal values over an explicit index list via shell-tensor lookups.

    Indices are clamped at the bandwidth and grouped; each group is scored
    by its smallest weight (the earliest enumerated member on ties), which
    keeps the result exact for arbitrary weights. Returns
    ``(m_values, argmax_ids, representatives)``.
    """
    if not len(indices):
        raise LacsumError("need at least one index")
    w = weight if weight is not None else unit_weight(spectrum.dimension)
    groups: dict[Index, tuple[float, Index]] = {}
    order: list[Index] = []
    for raw in indices:
        idx = check_index(raw, spectrum.dimension)
        clamped = tuple(min(v, b) for v, b in zip(idx, spectrum.bandwidth))
        wv = float(w.evaluate(np.asarray(idx)))
        if wv <= 0:
            raise LacsumError(f"weight must be positive, got {wv} at {idx}")
        if clamped not in groups:
            groups[clamped] = (wv, idx)
            order.append(clamped)
        elif wv < groups[clamped][0]:
            groups[clamped] = (wv, idx)
    uniq = np.asarray(order, dtype=int)
    inv_w = np.asarray([1.0 / groups[tuple(u)][0] for u in uniq])
    reps = np.asarray([groups[tuple(u)][1] for u in uniq], dtype=int)

    tensor = ShellTensor.from_grid(spectrum, grid, max_bytes=max_bytes)
    vals = tensor.partial_sums(uniq)
    sq = (vals.real**2 + vals.imag**2) * inv_w.reshape((-1,) + (1,) * grid.dimension)
    m2 = sq.max(axis=0)
    ids = sq.argmax(axis=0).astype(np.int64) if record_argmax else None
    return np.sqrt(m2), ids, reps


# ---------------------------------------------------------------------------
# operator-level entry points


def _report_from(
    spectrum: Spectrum,
    grid: TorusGrid,
    space: dict,
    weight_desc: str,
    values: np.ndarray,
    ids: np.ndarray | None,
    table: np.ndarray | None,
    engine: str,
) -> MaximalReport:
    m_l2 = grid_l2(values)
    input_l2 = float(np.sqrt(spectrum.energy()))
    ratio = m_l2 / input_l2 if input_l2 > 0 else 0.0
    return MaximalReport(
        grid=grid,
        values=values,
        space=space,
        weight=weight_desc,
        m_l2=m_l2,
        input_l2=input_l2,
        ratio=ratio,
        argmax_ids=ids,
        index_table=table,
        engine=engine,
    )


def weighted_maximal(
    spectrum: Spectrum,
    space: JkIndexSpace,
    weight: WeylWeight,
    grid: TorusGrid,
    record_argmax: bool = True,
    engine: str = "auto",
) -> MaximalReport:
    """Maximum of ``|S_n(x)| / sqrt(W(n))`` over every index of the space."""
    if space.sample.dimension != spectrum.dimension:
        raise LacsumError("space and spectrum dimension mismatch")
    blocked_ok = len(space.sample.free_positions) in (1, 2) and weight.monotone
    if engine == "auto":
        engine = "blocked" if blocked_ok else "gather"
    if engine == "blocked":
        if not blocked_ok:
            raise LacsumError("space/weight not eligible for the blocked engine")
        sweep = sweep_space(
            spectrum, grid, space, [weight], [space.free_caps], record_argmax=record_argmax
        )
        return _report_from(
            spectrum,
            grid,
            space_summary(space),
            weight.description,
            sweep.m_values[0, 0],
            sweep.argmax_ids[0, 0] if sweep.argmax_ids is not None else None,
            sweep.index_table,
            "blocked",
        )
    if engine != "gather":
        raise LacsumError(f"unknown engine {engine!r}")
    values, ids, reps = gather_max(
        spectrum, grid, list(enumerate_jk_indices(space)), weight, record_argmax
    )
    return _report_from(
        spectrum, grid, space_summary(space), weight.description, values, ids, reps, "gather"
    )


def single_free_maximal(
    spectrum: Spectrum, space: JkIndexSpace, grid: TorusGrid, record_argmax: bool = True
) -> MaximalReport:
    """Unweighted maximal sweep for spaces with exactly one free axis."""
    if len(space.sample.free_axes) != 1:
        raise LacsumError(
            f"expected exactly one free axis, got {len(space.sample.free_axes)}"
        )
    return weighted_maximal(
        spectrum, space, unit_weight(spectrum.dimension), grid, record_argmax=record_argmax
    )


def diagonal_maximal(
    spectrum: Spectrum,
    families: Sequence[LacunaryFamily],
    grid: TorusGrid,
    diag_cap: int,
    record_argmax: bool = True,
) -> MaximalReport:
    """Unweighted maximum with the trailing axes tied to one diagonal value.

    The leading ``len(families)`` axes run over their family terms; every
    remaining axis carries the same value ``n0 <= diag_cap``.
    """
    dim = spectrum.dimension
    lead = len(families)
    if not 1 <= lead < dim:
        raise LacsumError("need between 1 and N-1 leading lacunary axes")
    if diag_cap < 0:
        raise LacsumError("diagonal cap must be >= 0")
    indices = [
        terms + (n0,) * (dim - lead)
        for terms in itertools.product(*(f.terms for f in families))
        for n0 in range(diag_cap + 1)
    ]
    values, ids, reps = gather_max(spectrum, grid, indices, None, record_argmax)
    summary = {
        "dimension": dim,
        "lacunary_axes": list(range(1, lead + 1)),
        "diagonal_axes": list(range(lead + 1, dim + 1)),
        "ratios": [f.q for f in families],
        "terms": [list(f.terms) for f in families],
        "diag_cap": diag_cap,
        "index_count": len(indices),
    }
    return _report_from(spectrum, grid, summary, "W == 1 (diagonal)", values, ids, reps, "gather")


# ---------------------------------------------------------------------------
# level sets and weak-type tables


def level_set_measure(m: GridFunction | np.ndarray, alpha: float, grid: TorusGrid | None = None) -> float:
    """Discrete measure of ``{x : |M(x)| > alpha}`` on the torus.

    ``(2*pi)^N`` times the fraction of grid points exceeding the level.
    """
    if alpha <= 0:
        raise LacsumError("alpha must be positive")
    if isinstance(m, GridFunction):
        vals, dim = m.values, m.grid.dimension
    else:
        if grid is None:
            raise LacsumError("grid required for raw arrays")
        vals, dim = m, grid.dimension
    frac = float(np.count_nonzero(np.abs(vals) > alpha)) / vals.size
    return (2.0 * np.pi) ** dim * frac


@dataclass(frozen=True)
class WeakTypeTable:
    alphas: np.ndarray
    measures: np.ndarray
    ratios: np.ndarray
    sigma: float
    max_ratio: float


def default_alpha_grid(m_max: float, points: int = 25) -> np.ndarray:
    if m_max <= 0:
        raise DegenerateInputError("maximal function vanishes; no level grid")
    return np.geomspace(m_max / 1000.0, m_max, points)


def weak_type_table(
    spectrum: Spectrum,
    space: JkIndexSpace,
    weight: WeylWeight,
    grid: TorusGrid,
    alphas: Sequence[float] | None = None,
) -> WeakTypeTable:
    """Table of ``alpha^2 * mu{M > alpha} / Sigma`` over a level grid.

    ``M`` is the unweighted maximum over the space; ``Sigma`` is the weighted
    coefficient energy of the input.
    """
    sigma = weighted_energy(spectrum, weight)
    if sigma <= 0:
        raise DegenerateInputError("weighted energy is zero")
    report = weighted_maximal(
        spectrum, space, unit_weight(spectrum.dimension), grid, record_argmax=False
    )
    m_max = float(report.values.max())
    grid_alphas = (
        np.asarray(alphas, dtype=float) if alphas is not None else default_alpha_grid(m_max)
    )
    if np.any(grid_alphas <= 0):
        raise LacsumError("alpha grid must be positive")
    measures = np.asarray([level_set_measure(report.values, a, grid) for a in grid_alphas])
    ratios = grid_alphas**2 * measures / sigma
    return WeakTypeTable(
        alphas=grid_alphas,
        measures=measures,
        ratios=ratios,
        sigma=sigma,
        max_ratio=float(ratios.max()),
    )
