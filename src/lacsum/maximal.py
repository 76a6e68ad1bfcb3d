"""Maximal operators over finite lacunary index spaces.

``M(x) = max |S_n(x)| / sqrt(W(n))`` over every enumerated index of a
``JkIndexSpace`` (free components weighted, lacunary components not). The
supremum of the underlying theory is replaced by a maximum over the
explicit finite truncation, so every report carries the caps it was taken
under; nested cap schedules are swept in one pass, which makes the
"enlarging the space never decreases M" monotonicity exact in floating
point, not just up to rounding.

One blocked sweep serves every shape of space: it streams
`iter_prefix_slabs` (lacunary axes and the free axes past the second cut to
their clamped values, the first two free axes carrying a full prefix range),
reduces each slab (a tile of shells of a batch of rows) into a slice of
its running maxima, and serves several weights and cap levels in one pass,
so ``weighted_maximal`` reports every weight it is given, and
``weak_type_table`` the weighted report beside the unweighted maximum, from
one stream. Only the maximal values are kept, not the indices attaining them.
``gather_max`` looks up an explicit index list in a ``ShellTensor`` instead;
it is the independent oracle the tests check the sweep against.

Both clamp indices at the spectrum bandwidth first: a partial sum does not
change past the last coefficient, and any admissible weight is
coordinatewise nondecreasing, so the maximum over a clamp group is attained
at its smallest member.

A sample with every axis lacunary (``k = N``) is the trivial case: the
space is the lacunary term combinations alone, with no free axes, the sweep
streams two phantom axes, and the product weight is the empty product 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, LacsumError
from .lattice import Index, JkIndexSpace, check_index
from .spectral import (
    _ARRAY_BYTES,
    ShellTensor,
    Spectrum,
    TorusGrid,
    grid_l2,
    iter_prefix_slabs,
    plan_prefix_blocks,
)
from .weyl import WeylWeight, unit_weight, weighted_energy


@dataclass(frozen=True)
class MaximalReport:
    """Result of one maximal sweep over a fixed index space."""

    values: np.ndarray
    space: dict
    weight: str
    m_l2: float
    input_l2: float
    ratio: float


def _squared_modulus():
    """``modulus(slab, minus=None)``: ``|slab - minus|^2`` for each slab of one
    prefix stream, in buffers sized from the first slab, the stream's largest.

    ``|z|^2`` is ``re*re + im*im``, taken as the squared ``(re, im)`` pairs of
    the float view; the result is a view of a buffer the next call reuses.
    """
    bufs = []

    def modulus(slab: np.ndarray, minus: np.ndarray | None = None) -> np.ndarray:
        if not bufs:
            pair_shape = slab.shape[:-1] + (2 * slab.shape[-1],)
            diff = None if minus is None else np.empty(slab.shape, dtype=complex)
            bufs.extend((diff, np.empty(pair_shape), np.empty(slab.shape)))
        k, n = slab.shape[:2]
        diff, pair, sq = (None if b is None else b[:k, :n] for b in bufs)
        if minus is not None:
            slab = np.subtract(slab, minus, out=diff)
        np.square(slab.view(float), out=pair)
        return np.add(pair[..., 0::2], pair[..., 1::2], out=sq)

    return modulus


def sweep_space(
    spectrum: Spectrum,
    grid: TorusGrid,
    space: JkIndexSpace,
    weights: Sequence[WeylWeight],
    cap_schedule: Sequence[Sequence[int]] | None = None,
) -> np.ndarray:
    """Blocked maximal sweep into an ``(n_weights, n_levels, *grid)`` array of
    maximal values; cap levels must be nondecreasing per axis.

    Takes any number of free axes and needs coordinatewise-monotone weights
    (the clamp-at-bandwidth reduction is only exact under monotonicity). All
    cap levels are served from one prefix pass over the grid; the top level
    sets how far the free axes past the second are cut.
    """
    if not all(w.monotone for w in weights):
        raise LacsumError("blocked sweep needs monotone weights")
    if cap_schedule is None:
        cap_schedule = [space.free_caps]
    levels = [tuple(int(c) for c in level) for level in cap_schedule]
    if any(len(level) != len(space.free_caps) for level in levels):
        raise LacsumError("each cap level needs one cap per free axis")
    for prev, cur in zip(levels, levels[1:]):
        if any(c < p for p, c in zip(prev, cur)):
            raise LacsumError(f"cap schedule must be nondecreasing, got {levels}")
    need = len(weights) * len(levels) * grid.npoints * 8  # the running maxima m2
    if need > _ARRAY_BYTES:
        raise LacsumError(f"sweep maxima would take {need} bytes (> {_ARRAY_BYTES})")
    plan = plan_prefix_blocks(
        spectrum, grid, JkIndexSpace(space.sample, space.families, levels[-1])
    )

    # caps of the streamed axes clamped at the free bandwidths; a phantom
    # axis (limit 0) caps at 0
    caps = [tuple(min(c, b) for c, b in zip(level + (0, 0), plan.free_limits)) for level in levels]
    top = caps[-1]
    strides = tuple(t + 1 for t in top)

    # the indices the sweep visits span (*combo, ma, mb): one open axis vector
    # per spectrum axis in stream order, the phantom axes left out
    dim = space.sample.dimension
    open_axes = np.ix_(*map(np.asarray, plan.cut_terms), *map(np.arange, strides))
    nu = [open_axes[plan.perm.index(a)] for a in range(dim)]
    # 1/W per (combo, ma, mb); None marks the unit weight so the sweep can
    # skip the multiply
    full = plan.combo_shape + strides
    inv_tables = [
        None if w.kind == "unit" else np.broadcast_to(1.0 / w.fn(*nu), full).reshape(-1, *strides)
        for w in weights
    ]
    # per level and flat combo: whether the combo's values on the cut free
    # axes (after the lacunary ones) lie within the level's caps
    in_level = np.ones((len(levels),) + plan.combo_shape, dtype=bool)
    for li, level in enumerate(levels):
        for t, cap in enumerate(level[2:], space.sample.k):
            in_level[li] &= open_axes[t][..., 0, 0] <= cap
    in_level = in_level.reshape(len(levels), -1).tolist()

    nw, nl = len(weights), len(levels)
    # running maxima per (cut-axis grid point, xa, xb), so a batch of rows is
    # one slice
    m2 = np.zeros((nw, nl, plan.lac_size) + plan.free_grid)

    # One reduction for every shape: each cap level (ra, rb) folds the max
    # over ma <= ra of every slab with mb <= rb into its running maximum. A
    # slab is one tile of shells ma0.. of a batch of rows, shell-major
    # (ma, row, xa, xb), so that max is an elementwise pass over whole
    # contiguous shells; the levels share each distinct prefix of a tile's
    # shells, and a max does not depend on how its shells are grouped.
    modulus, q_buf = _squared_modulus(), None
    for (row, ma0), mb, slab in iter_prefix_slabs(spectrum, grid, plan):
        if mb > top[1] or ma0 > top[0]:
            continue  # beyond every cap level
        combo_flat, lac_flat = divmod(row, plan.lac_size)
        n = slab.shape[1]
        rows = slice(lac_flat, lac_flat + n)
        view = slab[: top[0] + 1 - ma0]
        k = view.shape[0]
        sq = modulus(view)
        if q_buf is None:
            q_buf = np.empty(sq.shape)  # per weight, the quotient by W
        for wi, inv in enumerate(inv_tables):
            q = sq
            if inv is not None:
                inv_w = inv[combo_flat, ma0 : ma0 + k, mb, None, None, None]
                q = np.multiply(sq, inv_w, out=q_buf[:k, :n])
            # cand is the max over the tile's first `done` shells; cap levels
            # rise, so each level extends the last one's prefix
            cand, done = None, 0
            for li, (ra, rb) in enumerate(caps):
                if mb > rb or ra < ma0 or not in_level[li][combo_flat]:
                    continue
                end = min(ra + 1 - ma0, k)
                if end > done:
                    more = q[done:end].max(axis=0)
                    cand = more if cand is None else np.maximum(cand, more, out=more)
                    done = end
                dest = m2[wi, li, rows]
                np.maximum(dest, cand, out=dest)

    inverse = (0, 1) + tuple(2 + plan.perm.index(a) for a in range(dim))
    shape = (nw, nl) + tuple(grid.resolution[a] for a in plan.perm)
    return np.sqrt(np.transpose(m2.reshape(shape), inverse))


# ---------------------------------------------------------------------------
# gather oracle


def gather_max(
    spectrum: Spectrum,
    grid: TorusGrid,
    indices: Sequence[Sequence[int]],
    weight: WeylWeight | None = None,
) -> np.ndarray:
    """Maximal values over an explicit index list via shell-tensor lookups.

    Indices are clamped at the bandwidth and grouped; each group is scored
    by the smallest weight of its members, which keeps the result exact for
    arbitrary weights.
    """
    if not len(indices):
        raise LacsumError("need at least one index")
    w = weight if weight is not None else unit_weight(spectrum.dimension)
    groups: dict[Index, float] = {}
    for raw in indices:
        idx = check_index(raw, spectrum.dimension)
        clamped = tuple(min(v, b) for v, b in zip(idx, spectrum.bandwidth))
        wv = float(w.evaluate(np.asarray(idx)))
        if wv <= 0:
            raise LacsumError(f"weight must be positive, got {wv} at {idx}")
        groups[clamped] = min(wv, groups.get(clamped, wv))
    uniq = np.asarray(list(groups), dtype=int)
    inv_w = 1.0 / np.asarray(list(groups.values()))

    tensor = ShellTensor.from_grid(spectrum, grid)
    vals = tensor.partial_sums(uniq)
    sq = (vals.real**2 + vals.imag**2) * inv_w.reshape((-1,) + (1,) * grid.dimension)
    return np.sqrt(sq.max(axis=0))


# ---------------------------------------------------------------------------
# operator-level entry point


def weighted_maximal(
    spectrum: Spectrum,
    space: JkIndexSpace,
    weights: Sequence[WeylWeight],
    grid: TorusGrid,
) -> list[MaximalReport]:
    """Maximum of ``|S_n(x)| / sqrt(W(n))`` over every index of the space,
    one report per weight, all from one blocked pass."""
    m_values = sweep_space(spectrum, grid, space, weights)
    summary = {
        "dimension": space.sample.dimension,
        "lacunary_axes": list(space.sample.lacunary_axes),
        "free_axes": list(space.sample.free_axes),
        "ratios": [f.q for f in space.families],
        "terms": [list(f.terms) for f in space.families],
        "free_caps": list(space.free_caps),
        "index_count": space.count,
    }
    input_l2 = float(np.sqrt(spectrum.energy()))
    reports = []
    for wi, w in enumerate(weights):
        values = m_values[wi, 0]
        m_l2 = grid_l2(values)
        reports.append(
            MaximalReport(
                values=values,
                space=summary,
                weight=w.description,
                m_l2=m_l2,
                input_l2=input_l2,
                ratio=m_l2 / input_l2 if input_l2 > 0 else 0.0,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# level sets and weak-type tables


def level_set_measure(m: np.ndarray, alpha: float, grid: TorusGrid) -> float:
    """Discrete measure of ``{x : |M(x)| > alpha}`` for values ``m`` on ``grid``.

    ``(2*pi)^N`` times the fraction of grid points exceeding the level.
    """
    if alpha <= 0:
        raise LacsumError("alpha must be positive")
    frac = float(np.count_nonzero(np.abs(m) > alpha)) / m.size
    return (2.0 * np.pi) ** grid.dimension * frac


@dataclass(frozen=True)
class WeakTypeTable:
    alphas: np.ndarray
    measures: np.ndarray
    ratios: np.ndarray
    sigma: float
    max_ratio: float
    report: MaximalReport  # the weighted maximal over the same space


def weak_type_table(
    spectrum: Spectrum,
    space: JkIndexSpace,
    weight: WeylWeight,
    grid: TorusGrid,
    alphas: Sequence[float] | None = None,
) -> WeakTypeTable:
    """Table of ``alpha^2 * mu{M > alpha} / Sigma`` over a level grid.

    ``M`` is the unweighted maximum over the space; ``Sigma`` is the weighted
    coefficient energy of the input. Without ``alphas`` the grid is 25
    geometric levels from ``max M / 1000`` to ``max M``. The table also
    carries the weighted maximal report of the same space; one slab pass
    sweeps both weights.
    """
    sigma = weighted_energy(spectrum, weight)
    if sigma <= 0:
        raise DegenerateInputError("weighted energy is zero")
    report, unit_report = weighted_maximal(
        spectrum, space, [weight, unit_weight(spectrum.dimension)], grid
    )
    m = unit_report.values
    if alphas is None:
        m_max = float(m.max())
        if m_max <= 0:
            raise DegenerateInputError("maximal function vanishes; no level grid")
        alphas = np.geomspace(m_max / 1000.0, m_max, 25)
    grid_alphas = np.asarray(alphas, dtype=float)
    if np.any(grid_alphas <= 0):
        raise LacsumError("alpha grid must be positive")
    measures = np.asarray([level_set_measure(m, a, grid) for a in grid_alphas])
    ratios = grid_alphas**2 * measures / sigma
    return WeakTypeTable(
        alphas=grid_alphas,
        measures=measures,
        ratios=ratios,
        sigma=sigma,
        max_ratio=float(ratios.max()),
        report=report,
    )
