import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lacsum.spectral
from lacsum import (
    AliasingError,
    JkIndexSpace,
    LacsumError,
    LacunaryFamily,
    SampleJk,
    ShellTensor,
    Spectrum,
    TorusGrid,
    analyze,
    grid_l2,
    make_lacunary,
    partial_sum,
    restrict,
    split_lacunary_blocks,
    synthesize,
)
from lacsum.spectral import (
    _phase_pair_cached,
    _shell_prefixes,
    iter_prefix_slabs,
    plan_prefix_blocks,
)
from spectra import single_mode_spectrum, zero_spectrum


def random_spectrum(rng, bandwidth):
    shape = tuple(2 * b + 1 for b in bandwidth)
    return Spectrum(bandwidth, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def cut_space(dimension, cut_axes, cut_values):
    """Space whose lacunary families are ``cut_values`` on the 0-based ``cut_axes``."""
    sample = SampleJk(dimension, tuple(a + 1 for a in cut_axes))
    families = tuple(LacunaryFamily(2.0, v) for v in cut_values)
    return JkIndexSpace(sample, families, (0,) * (dimension - len(cut_axes)))


def test_analyze_constant():
    grid = TorusGrid((8, 8))
    f = synthesize(zero_spectrum((2, 2)), grid)
    ones = type(f)(grid, np.ones(grid.resolution, dtype=complex))
    s = analyze(ones, (2, 2))
    assert abs(s.coeffs[2, 2] - 1.0) < 1e-14
    coeffs = s.coeffs.copy()
    coeffs[2, 2] = 0
    assert np.max(np.abs(coeffs)) < 1e-14


def test_analyze_single_mode_16x16():
    grid = TorusGrid((16, 16))
    f = synthesize(single_mode_spectrum((3, 3), (1, 2)), grid)
    s = analyze(f, (3, 3))
    assert abs(s.coeffs[4, 5] - 1.0) < 1e-12  # nu = (1, 2)
    total = np.sum(np.abs(s.coeffs))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_roundtrip_band_limited():
    rng = np.random.default_rng(0)
    s = random_spectrum(rng, (3, 2, 2))
    grid = TorusGrid((10, 8, 8))
    back = analyze(synthesize(s, grid), (3, 2, 2))
    assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-12


def test_analyze_nyquist_error():
    grid = TorusGrid((8, 8))
    f = synthesize(zero_spectrum((3, 3)), grid)
    with pytest.raises(AliasingError):
        analyze(f, (4, 4))  # needs L >= 2B + 2
    analyze(f, (3, 3))  # boundary case is allowed


def test_synthesize_single_mode_origin():
    grid = TorusGrid((8, 8, 8))
    f = synthesize(single_mode_spectrum((3, 3, 3), (1, 2, 3)), grid)
    # grid origin x = (-pi, -pi, -pi); value is exp(i*(nu.x)) there
    x = grid.axis_coords(0)[0]
    expected = np.exp(1j * (1 + 2 + 3) * x)
    assert abs(f.values[0, 0, 0] - expected) < 1e-12
    # at the center point x = 0
    mid = tuple(r // 2 for r in grid.resolution)
    assert abs(f.values[mid] - 1.0) < 1e-12


def test_synthesize_zero():
    grid = TorusGrid((8, 8))
    f = synthesize(zero_spectrum((2, 2)), grid)
    assert np.max(np.abs(f.values)) == 0.0


def test_fft_matches_direct():
    rng = np.random.default_rng(1)
    s = random_spectrum(rng, (3, 4))
    grid = TorusGrid((12, 14))
    a = synthesize(s, grid).values
    b = synthesize(s, grid, method="direct").values
    assert np.max(np.abs(a - b)) < 1e-10


def brute_force_partial_sum(s, n, grid):
    total = np.zeros(grid.resolution, dtype=complex)
    mesh = np.meshgrid(*map(grid.axis_coords, range(grid.dimension)), indexing="ij")
    for idx in np.ndindex(*s.coeffs.shape):
        nu = tuple(i - b for i, b in zip(idx, s.bandwidth))
        if all(abs(v) <= m for v, m in zip(nu, n)):
            phase = sum(v * x for v, x in zip(nu, mesh))
            total += s.coeffs[idx] * np.exp(1j * phase)
    return total


def test_partial_sum_single_mode_inclusion():
    grid = TorusGrid((8, 8, 8))
    s = single_mode_spectrum((3, 3, 3), (1, 2, 3))
    full = synthesize(s, grid).values
    inc = partial_sum(s, (1, 2, 3), grid).values
    assert np.max(np.abs(inc - full)) < 1e-12
    exc = partial_sum(s, (0, 2, 3), grid).values
    assert np.max(np.abs(exc)) == 0.0


def test_partial_sum_matches_brute_force():
    rng = np.random.default_rng(2)
    s = random_spectrum(rng, (2, 3, 1))
    grid = TorusGrid((6, 8, 4))
    n = (2, 3, 1)
    assert np.max(np.abs(partial_sum(s, n, grid).values - brute_force_partial_sum(s, n, grid))) < 1e-10
    n = (1, 2, 0)
    assert np.max(np.abs(partial_sum(s, n, grid).values - brute_force_partial_sum(s, n, grid))) < 1e-10


def test_partial_sum_clamps():
    rng = np.random.default_rng(3)
    s = random_spectrum(rng, (2, 2))
    grid = TorusGrid((8, 8))
    a = partial_sum(s, (9, 9), grid).values
    b = synthesize(s, grid).values
    assert np.array_equal(a, b)


def test_parseval():
    rng = np.random.default_rng(4)
    s = random_spectrum(rng, (3, 3))
    grid = TorusGrid((12, 12))
    f = synthesize(s, grid)
    assert grid_l2(f) ** 2 == pytest.approx(s.energy(), abs=1e-10)


def test_idempotence():
    rng = np.random.default_rng(5)
    s = random_spectrum(rng, (3, 3))
    grid = TorusGrid((16, 16))
    n = (2, 1)
    first = partial_sum(s, n, grid)
    again = partial_sum(analyze(first, (3, 3)), n, grid)
    assert np.max(np.abs(again.values - first.values)) < 1e-12


def test_monotone_exhaustion_exact():
    rng = np.random.default_rng(6)
    s = random_spectrum(rng, (2, 3))
    grid = TorusGrid((8, 10))
    assert np.array_equal(partial_sum(s, (2, 3), grid).values, synthesize(s, grid).values)
    assert np.array_equal(partial_sum(s, (5, 9), grid).values, synthesize(s, grid).values)


# ---------------------------------------------------------------------------
# lacunary block split


def test_block_split_supports():
    b = 4
    s = Spectrum((b,), np.arange(1, 10, dtype=complex))
    fam = make_lacunary(2.0, 3)  # 1, 2, 4
    g1, g2 = split_lacunary_blocks(s, 1, fam)
    odd = {abs(k) for k in range(-b, b + 1) if abs(g1.coeffs[k + b]) > 0}
    even = {abs(k) for k in range(-b, b + 1) if abs(g2.coeffs[k + b]) > 0}
    assert odd == {1, 3, 4}
    assert even == {0, 2}


def test_block_split_partition_and_disjoint():
    rng = np.random.default_rng(9)
    s = Spectrum((6, 2), rng.standard_normal((13, 5)) + 1j * rng.standard_normal((13, 5)))
    g1, g2 = split_lacunary_blocks(s, 1, make_lacunary(1.5, 5))
    assert np.max(np.abs(g1.coeffs + g2.coeffs - s.coeffs)) == 0.0
    assert np.max(np.abs(g1.coeffs) * np.abs(g2.coeffs)) == 0.0


def test_block_split_coverage_gap_merges_into_last():
    s = Spectrum((8,), np.ones(17, dtype=complex))
    fam = make_lacunary(2.0, 3)  # tops out at 4 < 8
    g1, g2 = split_lacunary_blocks(s, 1, fam)
    # block 3 covers 2 < |k| <= 4 and absorbs the tail 5..8
    assert all(abs(g1.coeffs[k + 8]) > 0 for k in (3, 4, 5, 8))
    assert np.max(np.abs(g1.coeffs + g2.coeffs - s.coeffs)) == 0.0


# ---------------------------------------------------------------------------
# shell prefix machinery


def test_shell_tensor_exhaustive_box():
    rng = np.random.default_rng(10)
    bw = (4, 4, 4)
    s = Spectrum(bw, rng.standard_normal((9, 9, 9)) + 1j * rng.standard_normal((9, 9, 9)))
    grid = TorusGrid((8, 8, 8))
    tensor = ShellTensor.from_grid(s, grid)
    worst = 0.0
    for n in np.ndindex(5, 5, 5):
        direct = synthesize(restrict(s, n), grid, method="direct").values
        worst = max(worst, float(np.max(np.abs(tensor.query(n) - direct))))
    assert worst < 1e-10


def test_shell_tensor_s0_is_c0():
    rng = np.random.default_rng(11)
    s = Spectrum((2, 2), rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    grid = TorusGrid((6, 6))
    tensor = ShellTensor.from_grid(s, grid)
    assert np.max(np.abs(tensor.query((0, 0)) - s.coeffs[2, 2])) < 1e-13


def test_shell_tensor_budget_guard(monkeypatch):
    # 4^3 shells x 16^3 points x 16 bytes = 4 MiB: under the default budget,
    # over a 1 MiB one
    s, grid = zero_spectrum((3, 3, 3)), TorusGrid((16, 16, 16))
    ShellTensor.from_grid(s, grid)
    monkeypatch.setattr(lacsum.spectral, "_SHELL_BYTES", 1 << 20)
    with pytest.raises(LacsumError):
        ShellTensor.from_grid(s, grid)


def _shell_expand(arr, axis, ep, en):
    """Turn coefficient axis ``axis`` (size 2b+1) into a (shell, grid) pair,
    the whole array at once: the pipeline the shell-at-a-time tensor build
    and the shell-major slab stream replaced, kept as their reference.

    Output axis ``axis`` indexes the shell ``i = |nu|`` and ``axis + 1`` the
    grid coordinate; the shell value is ``c_{+i} e^{i i x} + c_{-i} e^{-i i x}``.
    """
    moved = np.moveaxis(arr, axis, -1)
    b = ep.shape[0] - 1
    pos = moved[..., b:]
    neg = moved[..., b::-1]
    out = pos[..., :, None] * ep + neg[..., :, None] * en
    return np.moveaxis(out, (-2, -1), (axis, axis + 1))


def _whole_array_shell_build(s, grid):
    # every axis expanded at once and its shells cumulated right after, then
    # a contiguous copy of the transposed tensor: the reference the
    # shell-at-a-time build must match bit for bit
    dim = s.dimension
    arr = s.coeffs
    for p, (b, L) in enumerate(zip(s.bandwidth, grid.resolution)):
        ep, en = _phase_pair_cached(b, L)
        arr = np.cumsum(_shell_expand(arr, 2 * p, ep, en), axis=2 * p)
    return np.ascontiguousarray(np.transpose(arr, tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2))))


@pytest.mark.parametrize(
    "bw, res",
    [
        ((4,), (8,)),
        ((0, 2), (2, 6)),
        ((2, 3, 1), (6, 8, 4)),
        ((3, 2, 3, 1), (6, 4, 8, 4)),
        ((7, 7, 7), (16, 16, 16)),
    ],
)
def test_shell_tensor_matches_whole_array_build(bw, res):
    s = random_spectrum(np.random.default_rng(21), bw)
    grid = TorusGrid(res)
    tensor = ShellTensor.from_grid(s, grid)
    reference = _whole_array_shell_build(s, grid)
    boxes = list(np.ndindex(*(b + 1 for b in bw)))
    assert np.array_equal(tensor.partial_sums(boxes), reference[tuple(np.transpose(boxes))])
    for n in boxes:
        assert np.array_equal(tensor.query(n), reference[n])
        assert tensor.query(n).flags.c_contiguous


def test_shell_tensor_build_memory():
    # the build holds the tensor and one shell of it, not full-size
    # temporaries beside a transposed copy. The tensor lives in an anonymous
    # mapping of its own, which tracemalloc does not see, so the traced peak
    # is the transient shells alone
    import mmap
    import tracemalloc

    s = random_spectrum(np.random.default_rng(22), (7, 7, 7))
    grid = TorusGrid((16, 16, 16))
    ShellTensor.from_grid(s, grid)  # phase tables cached
    tracemalloc.start()
    try:
        tensor = ShellTensor.from_grid(s, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8**3 * 16**3 * 16, peak
    base = tensor._prefix
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap), base


@pytest.mark.parametrize("axis", [0, 2])
@pytest.mark.parametrize(
    "values",
    [
        (0, 1, 2, 3, 4, 5),  # dense: every shell lands in out, no spare buffer
        (2, 5),  # a first value above 0; shells 0, 1 and 3, 4 alternate two spares
        (1, 2),  # one spare, for shell 0
    ],
)
def test_shell_prefixes_in_place_matches_yields(values, axis):
    # the sums formed in out are the bits the kernel yields without it, and
    # both are the whole-array cumulative sum at the kept shells
    rng = np.random.default_rng(23)
    arr = rng.standard_normal((11, 3, 11)) + 1j * rng.standard_normal((11, 3, 11))
    yields = np.stack([acc.copy() for acc in _shell_prefixes(arr, axis, 5, 6, values)])
    dense = np.cumsum(_shell_expand(arr, axis, *_phase_pair_cached(5, 6)), axis=axis)
    assert np.array_equal(yields, np.moveaxis(dense, axis, 0)[list(values)])
    out = np.full(yields.shape, np.nan, dtype=complex)
    for j, acc in enumerate(_shell_prefixes(arr, axis, 5, 6, values, out)):
        assert np.shares_memory(acc, out[j])
    assert np.array_equal(out, yields)


def test_prefix_slabs_match_partial_sums(monkeypatch):
    # one cut axis; three cut axes; cut axes 1 and 3 with free axis 2 between
    # them; each under the default budget and under a budget of two shells,
    # which splits every row of two free axes into tiles
    rng = np.random.default_rng(14)
    for bw, res, cut_axes, cut_values in (
        ((3, 4, 2), (6, 8, 6), (0,), ((1, 3),)),
        ((2, 1, 2, 3), (4, 4, 6, 8), (0, 1, 2), ((1, 2), (1,), (1, 2))),
        ((2, 3, 2, 2), (4, 8, 6, 4), (0, 2), ((1, 2), (1, 2))),
    ):
        s = random_spectrum(rng, bw)
        grid = TorusGrid(res)
        plan = plan_prefix_blocks(s, grid, cut_space(len(bw), cut_axes, cut_values))
        (ba, bb), (la, lb) = plan.free_limits, plan.free_grid
        directs = {}
        for budget in (lacsum.spectral._SLAB_BYTES, 2 * la * lb * 16):
            monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", budget)
            worst, seen = 0.0, set()
            for (row, ma0), mb, slab in iter_prefix_slabs(s, grid, plan):
                combo = np.unravel_index(row // plan.lac_size, plan.combo_shape)
                n = [0] * len(bw)
                for a, values, c in zip(plan.cut_axes, plan.cut_values, combo):
                    n[a] = values[c]
                if len(plan.free_axes) == 2:
                    n[plan.free_axes[1]] = mb
                lac = row % plan.lac_size
                for i, ma in enumerate(range(ma0, ma0 + slab.shape[0])):
                    n[plan.free_axes[0]] = ma
                    if tuple(n) not in directs:
                        direct = synthesize(restrict(s, n), grid, method="direct").values
                        directs[tuple(n)] = np.transpose(direct, plan.perm).reshape(
                            (plan.lac_size, la, lb)
                        )
                    err = np.abs(slab[i] - directs[tuple(n)][lac : lac + slab.shape[1]])
                    worst = max(worst, float(np.max(err)))
                    seen.update((row + r, ma, mb) for r in range(slab.shape[1]))
            assert seen == {
                (row, ma, mb)
                for row in range(plan.rows)
                for ma in range(ba + 1)
                for mb in range(bb + 1)
            }
            assert worst < 1e-10


def test_prefix_slabs_one_free_axis():
    rng = np.random.default_rng(15)
    bw = (2, 2, 3)
    s = Spectrum(bw, rng.standard_normal((5, 5, 7)) + 1j * rng.standard_normal((5, 5, 7)))
    grid = TorusGrid((4, 4, 8))
    plan = plan_prefix_blocks(s, grid, cut_space(3, (0, 1), ((1, 2), (1, 2))))
    worst = 0.0
    seen = set()
    for (row, ma0), mb, slab in iter_prefix_slabs(s, grid, plan):
        assert (ma0, mb) == (0, 0)  # the phantom second free axis has bandwidth 0
        for r, prefix in enumerate(np.moveaxis(slab, 1, 0)):
            seen.add(row + r)
            combo, lac = divmod(row + r, 16)
            x1, x2 = lac // 4, lac % 4
            cut0, cut1 = ((1, 2)[i] for i in divmod(combo, 2))
            for ma in range(4):
                direct = synthesize(restrict(s, (cut0, cut1, ma)), grid, method="direct").values
                worst = max(worst, float(np.max(np.abs(prefix[ma, :, 0] - direct[x1, x2]))))
    assert seen == set(range(64))
    assert worst < 1e-10


@pytest.mark.parametrize(
    "bw, res, cut_axes, cut_values, min_term",
    [
        # both free axes start at 3, the second clamped to its bandwidth 2
        ((3, 4, 2), (6, 8, 6), (0,), ((1, 3),), 3),
        # one free axis starts at 2, the phantom axis at 0
        ((2, 2, 3), (4, 4, 8), (0, 1), ((1, 2), (1, 2)), 2),
        # min_term above both free bandwidths: only the full sums stream
        ((6, 4, 2), (12, 8, 6), (0,), ((1, 5),), 5),
    ],
)
def test_prefix_slabs_start_at_min_term(bw, res, cut_axes, cut_values, min_term, monkeypatch):
    rng = np.random.default_rng(19)
    s = random_spectrum(rng, bw)
    grid = TorusGrid(res)
    plan = plan_prefix_blocks(s, grid, cut_space(3, cut_axes, cut_values), min_term=min_term)
    (ba, bb), (la, lb), (sa, sb) = plan.free_limits, plan.free_grid, plan.free_start
    assert plan.free_start == tuple(min(min_term, b) for b in plan.free_limits)
    # a budget of four rows of ma >= sa: batches are sized from the kept rows
    monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", 4 * (ba + 1 - sa) * la * lb * 16)
    seen, sizes, worst = set(), set(), 0.0
    for (row, ma0), mb, slab in iter_prefix_slabs(s, grid, plan):
        assert ma0 == sa and mb >= sb
        assert slab.shape[:1] + slab.shape[2:] == (ba + 1 - sa, la, lb)
        sizes.add(slab.shape[1])
        combo = np.unravel_index(row // plan.lac_size, plan.combo_shape)
        n = [0, 0, 0]
        for a, values, c in zip(plan.cut_axes, plan.cut_values, combo):
            n[a] = values[c]
        if len(plan.free_axes) == 2:
            n[plan.free_axes[1]] = mb
        for i in range(ba + 1 - sa):
            n[plan.free_axes[0]] = sa + i
            direct = synthesize(restrict(s, n), grid, method="direct").values
            direct = np.transpose(direct, plan.perm).reshape((plan.lac_size, la, lb))
            for r, prefix in enumerate(np.moveaxis(slab, 1, 0)):
                seen.add((row + r, mb))
                lac = (row + r) % plan.lac_size
                worst = max(worst, float(np.max(np.abs(prefix[i] - direct[lac]))))
    assert seen == {(row, mb) for row in range(plan.rows) for mb in range(sb, bb + 1)}
    assert max(sizes) == 4
    assert worst < 1e-10


def _slabs_by_row(s, grid, plan):
    """Copy of every row's prefix per ``(ma, mb)``, the batch sizes streamed
    and the tile sizes streamed."""
    slabs, sizes, tiles = {}, [], []
    for (row, ma0), mb, slab in iter_prefix_slabs(s, grid, plan):
        if mb == 0 and ma0 == 0:
            sizes.append(slab.shape[1])
        if mb == 0 and row == 0:
            tiles.append(slab.shape[0])
        for i, shell in enumerate(slab):
            for r, prefix in enumerate(shell):
                slabs[row + r, ma0 + i, mb] = prefix.copy()
    return slabs, sizes, tiles


@pytest.mark.parametrize(
    "bw, res, cut_axes, cut_values, batches",
    [
        # two free axes, 6 cut-axis grid points per combo, 2 combos
        (
            (3, 4, 2),
            (6, 8, 6),
            (0,),
            ((1, 3),),
            {0.5: ([1] * 12, [2, 2, 1]), 4: ([4, 2] * 2, [5]), 6: ([6] * 2, [5])},
        ),
        # one free axis, 16 cut-axis grid points per combo, 4 combos
        (
            (2, 2, 3),
            (4, 4, 8),
            (0, 1),
            ((1, 2), (1, 2)),
            {0.5: ([1] * 64, [4]), 5: ([5, 5, 5, 1] * 4, [4]), 16: ([16] * 4, [4])},
        ),
    ],
)
def test_prefix_slab_batches_match_row_by_row(bw, res, cut_axes, cut_values, batches, monkeypatch):
    # budgets in rows: below one row streams one row in tiles of shells (the
    # phantom axis's stream yields every shell at once); 4 and 5 do not
    # divide the grid points per combo; the last takes a whole combo per batch
    rng = np.random.default_rng(17)
    s = random_spectrum(rng, bw)
    grid = TorusGrid(res)
    plan = plan_prefix_blocks(s, grid, cut_space(3, cut_axes, cut_values))
    (ba, bb), (la, lb) = plan.free_limits, plan.free_grid
    row_bytes = (ba + 1) * la * lb * 16
    monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", row_bytes)
    reference, _, _ = _slabs_by_row(s, grid, plan)
    assert len(reference) == plan.rows * (ba + 1) * (bb + 1)
    for budget_rows, (sizes, tiles) in batches.items():
        monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", int(budget_rows * row_bytes))
        slabs, got, got_tiles = _slabs_by_row(s, grid, plan)
        assert (got, got_tiles) == (sizes, tiles)
        assert slabs.keys() == reference.keys()
        assert all(np.array_equal(slabs[key], reference[key]) for key in reference)


def _whole_array_cut(spectrum, grid, plan):
    """Every cut axis pinned at once: ``(rows, 2 B_a + 1, 2 B_b + 1)``, all
    combos' rows in one array, summed shell by shell like the stream."""
    arr = np.transpose(spectrum.coeffs, plan.perm)
    for t, (axis, values) in enumerate(zip(plan.cut_axes, plan.cut_values)):
        b = spectrum.bandwidth[axis]
        ep, en = _phase_pair_cached(b, grid.resolution[axis])
        coef = np.expand_dims(np.moveaxis(arr, 2 * t, 0), 2 * t + 1)
        phase_shape = ep.shape[1:] + (1,) * (arr.ndim - 2 * t - 1)
        acc = np.empty(np.broadcast_shapes(coef.shape[1:], phase_shape), dtype=complex)
        shell, tmp = np.empty_like(acc), np.empty_like(acc)
        out = np.empty(acc.shape[:t] + (len(values),) + acc.shape[t:], dtype=complex)
        dest = np.moveaxis(out, t, 0)
        for i in range(values[-1] + 1):
            np.multiply(coef[b + i], ep[i].reshape(phase_shape), out=shell)
            np.multiply(coef[b - i], en[i].reshape(phase_shape), out=tmp)
            shell += tmp
            if i:
                acc += shell
            else:
                np.copyto(acc, shell)
            if i in values:
                dest[values.index(i)] = acc
        arr = out
    return arr.reshape((plan.rows,) + tuple(2 * b + 1 for b in plan.free_limits))


@pytest.mark.parametrize(
    "bw, res, cut_axes, cut_values",
    [
        ((3, 4, 2), (6, 8, 6), (0,), ((1, 3),)),
        ((2, 3, 2, 2), (4, 8, 6, 4), (0, 2), ((1, 2), (1, 2))),
        ((2, 1, 2, 3), (4, 4, 6, 8), (0, 1, 2), ((1, 2), (1,), (1, 2))),
    ],
)
def test_streamed_slabs_match_whole_array_cut(bw, res, cut_axes, cut_values, monkeypatch):
    # one, two (with a free axis between them) and three cut axes; a budget
    # of five rows splits every combo into several batches
    s = random_spectrum(np.random.default_rng(20), bw)
    grid = TorusGrid(res)
    plan = plan_prefix_blocks(s, grid, cut_space(len(bw), cut_axes, cut_values))
    (ba, bb), (la, lb) = plan.free_limits, plan.free_grid
    monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", 5 * (ba + 1) * la * lb * 16)
    rows = _whole_array_cut(s, grid, plan)
    epa, ena = _phase_pair_cached(ba, la)
    epb, enb = _phase_pair_cached(bb, lb)
    seen = 0
    for (row, ma), mb, slab in iter_prefix_slabs(s, grid, plan):
        if mb == 0:
            w = np.cumsum(_shell_expand(rows[row : row + slab.shape[1]], 1, epa, ena), axis=1)
            w = np.moveaxis(w, 1, 0)[ma : ma + len(slab)]  # (ma, r, xa, nu_b), as streamed
            expected = np.repeat(w[..., bb, None], lb, axis=-1)
        else:
            expected += w[..., bb + mb, None] * epb[mb]
            expected += w[..., bb - mb, None] * enb[mb]
        assert np.array_equal(slab, expected), (row, ma, mb)
        seen += slab.shape[0] * slab.shape[1]
    assert seen == plan.rows * (ba + 1) * (bb + 1)


def _row_major_stream(spectrum, grid, plan):
    """The stream as the row-major pipeline built it, slabs copied out as
    ``((row, ma), mb, slab[r, i, xa, xb])``: per batch, the first free axis
    expanded whole by ``_shell_expand`` and summed by ``np.cumsum``, then,
    per tile of its shells, the second free axis added one ``mb`` at a time,
    from the same rows and the same batch and tile sizes as the stream (a
    phantom second axis takes every shell at once)."""
    rows = _whole_array_cut(spectrum, grid, plan)
    (ba, bb), (la, lb), (sa, sb) = plan.free_limits, plan.free_grid, plan.free_start
    epa, ena = _phase_pair_cached(ba, la)
    epb, enb = _phase_pair_cached(bb, lb)
    budget, kept = lacsum.spectral._SLAB_BYTES, ba + 1 - sa
    batch = max(1, min(plan.lac_size, budget // (kept * la * lb * 16)))
    tile = kept if bb == 0 and lb == 1 else max(1, min(kept, budget // (batch * la * lb * 16)))
    for first in range(0, plan.rows, plan.lac_size):
        for start in range(0, plan.lac_size, batch):
            row = first + start
            w = _shell_expand(rows[row : row + min(batch, plan.lac_size - start)], 1, epa, ena)
            np.cumsum(w, axis=1, out=w)
            for ma in range(sa, ba + 1, tile):
                part = w[:, ma : ma + tile]
                slab = np.empty(part.shape[:-1] + (lb,), dtype=complex)
                np.copyto(slab, part[..., bb, None])
                for mb in range(bb + 1):
                    if mb:
                        slab += part[..., bb + mb, None] * epb[mb]
                        slab += part[..., bb - mb, None] * enb[mb]
                    if mb >= sb:
                        yield (row, ma), mb, slab.copy()


def _assert_stream_is_row_major_stream(s, grid, plan):
    expected = list(_row_major_stream(s, grid, plan))
    got = [(key, mb, slab.copy()) for key, mb, slab in iter_prefix_slabs(s, grid, plan)]
    assert [key[:2] for key in got] == [key[:2] for key in expected]
    for (key, mb, slab), (_, _, ref) in zip(got, expected):
        assert np.array_equal(slab, np.moveaxis(ref, 0, 1)), (key, mb)


@pytest.mark.parametrize(
    "bw, res, cut_axes, cut_values, min_term, budget_rows",
    [
        # one free axis: the phantom second axis yields the shell buffer itself
        ((2, 2, 3), (4, 4, 8), (0, 1), ((1, 2), (1, 2)), 0, None),
        # two free axes, whole combos per batch
        ((3, 4, 2), (6, 8, 6), (0,), ((1, 3),), 0, None),
        # a real second free axis of bandwidth 0 on four grid points
        ((2, 3, 0), (4, 8, 4), (0,), ((1, 2),), 0, None),
        # min_term > 0 on two free axes and on one
        ((3, 4, 2), (6, 8, 6), (0,), ((1, 3),), 3, None),
        ((2, 2, 3), (4, 4, 8), (0, 1), ((1, 2), (1, 2)), 2, None),
        # batches of 4 and 5 rows do not divide 6 and 16 rows per combo
        ((3, 4, 2), (6, 8, 6), (0,), ((1, 3),), 0, 4),
        ((2, 2, 3), (4, 4, 8), (0, 1), ((1, 2), (1, 2)), 1, 5),
        ((2, 3, 0), (4, 8, 4), (0,), ((1, 2),), 1, 5),
    ],
)
def test_stream_is_bit_identical_to_row_major_stream(
    bw, res, cut_axes, cut_values, min_term, budget_rows, monkeypatch
):
    s = random_spectrum(np.random.default_rng(23), bw)
    grid = TorusGrid(res)
    plan = plan_prefix_blocks(s, grid, cut_space(len(bw), cut_axes, cut_values), min_term=min_term)
    if budget_rows is not None:
        (ba, _), (la, lb), (sa, _) = plan.free_limits, plan.free_grid, plan.free_start
        monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", budget_rows * (ba + 1 - sa) * la * lb * 16)
    _assert_stream_is_row_major_stream(s, grid, plan)


@pytest.mark.parametrize(
    "bw, res, cut_axes, cut_values, min_term, budget_shells, tiles",
    [
        # 14 shells in tiles of 3: the last tile holds the 2 left over
        ((2, 13, 3), (4, 6, 8), (0,), ((1, 2),), 0, 3, [3, 3, 3, 3, 2]),
        # min_term > 0 under tiling: shells 4..17 of both free axes' start
        ((8, 17, 5), (4, 6, 8), (0,), ((1, 4, 8),), 4, 3, [3, 3, 3, 3, 2]),
        # one shell per tile, on a real second free axis of bandwidth 0
        ((2, 3, 0), (4, 8, 4), (0,), ((1, 2),), 1, 1, [1, 1, 1]),
        # a budget of 1.5 shells still tiles whole shells
        ((3, 4, 2), (6, 8, 6), (0,), ((1, 3),), 0, 1.5, [1, 1, 1, 1, 1]),
        # a phantom second axis yields every shell at once
        ((2, 2, 3), (4, 4, 8), (0, 1), ((1, 2), (1, 2)), 1, 2, [3]),
    ],
)
def test_stream_tiles_are_bit_identical_to_row_major_stream(
    bw, res, cut_axes, cut_values, min_term, budget_shells, tiles, monkeypatch
):
    s = random_spectrum(np.random.default_rng(24), bw)
    grid = TorusGrid(res)
    plan = plan_prefix_blocks(s, grid, cut_space(len(bw), cut_axes, cut_values), min_term=min_term)
    (la, lb), (sa, sb) = plan.free_grid, plan.free_start
    monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", int(budget_shells * la * lb * 16))
    first = [
        (len(slab), slab.shape[1], ma)
        for (row, ma), mb, slab in iter_prefix_slabs(s, grid, plan)
        if row == 0 and mb == sb
    ]
    assert first == [(t, 1, sa + sum(tiles[:i])) for i, t in enumerate(tiles)]
    _assert_stream_is_row_major_stream(s, grid, plan)


FAMILIES = ((1,), (1, 2), (1, 3), (1, 2, 4))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_stream_is_bit_identical_property(data, seed):
    dim = data.draw(st.integers(2, 4), label="dim")
    bw = tuple(data.draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim), label="bw"))
    res = tuple(2 * data.draw(st.integers(1, 4)) for _ in range(dim))
    cut_axes = tuple(sorted(data.draw(
        st.sets(st.integers(0, dim - 1), min_size=max(0, dim - 2), max_size=dim), label="cut")))
    min_term = data.draw(st.integers(0, 2), label="min_term")
    cut_values = tuple(
        data.draw(st.sampled_from([f for f in FAMILIES if f[-1] >= min_term]), label="family")
        for _ in cut_axes
    )
    s = random_spectrum(np.random.default_rng(seed), bw)
    grid = TorusGrid(res)
    plan = plan_prefix_blocks(s, grid, cut_space(dim, cut_axes, cut_values), min_term=min_term)
    (ba, _), (la, lb), (sa, _) = plan.free_limits, plan.free_grid, plan.free_start
    budget_rows = data.draw(
        st.sampled_from([0.25, 0.5, 1, 3, 5, plan.lac_size]), label="budget_rows"
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lacsum.spectral, "_SLAB_BYTES", int(budget_rows * (ba + 1 - sa) * la * lb * 16))
        _assert_stream_is_row_major_stream(s, grid, plan)


def test_slab_stream_peak_memory():
    # the lacsum maximal --Jk 1 2 geometry: B = 16, grid 64, two axes cut to
    # five values each, 102,400 rows. Holding every combo's rows would take
    # rows x 33 x 16 bytes; the stream holds one combo's rows at a time.
    import tracemalloc

    s = random_spectrum(np.random.default_rng(18), (16, 16, 16))
    grid = TorusGrid((64, 64, 64))
    family = make_lacunary(2.0, 5)
    plan = plan_prefix_blocks(s, grid, JkIndexSpace(SampleJk(3, (1, 2)), (family, family), (32,)))
    tracemalloc.start()
    try:
        # past the first leading cut value's five combos into the next one's
        for (row, _), _, _ in iter_prefix_slabs(s, grid, plan):
            if row >= 6 * plan.lac_size:
                break
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row >= 6 * plan.lac_size
    assert peak < plan.rows * 33 * 16 // 2, (peak, plan.rows)


def test_plan_clamps_merges_and_skips_terms():
    # terms past the bandwidth clamp onto it and merge onto the smallest one
    s = zero_spectrum((5, 5, 5))
    grid = TorusGrid((4, 6, 8))
    family = LacunaryFamily(2.0, (1, 2, 4, 8, 16))
    space = JkIndexSpace(SampleJk(3, (1,)), (family,), (0, 0))
    plan = plan_prefix_blocks(s, grid, space)
    assert plan.cut_values == ((1, 2, 4, 5),)
    assert plan.cut_terms == ((1, 2, 4, 8),)
    assert (plan.free_limits, plan.free_grid, plan.lac_size) == ((5, 5), (6, 8), 4)
    plan = plan_prefix_blocks(s, grid, space, min_term=3)
    assert plan.cut_values == ((4, 5),)
    assert plan.cut_terms == ((4, 8),)


def test_plan_one_free_axis_adds_phantom_axis():
    s = zero_spectrum((5, 3, 2))
    grid = TorusGrid((4, 6, 8))
    family = make_lacunary(2.0, 3)
    plan = plan_prefix_blocks(s, grid, JkIndexSpace(SampleJk(3, (1, 3)), (family, family), (1,)))
    assert plan.free_axes == (1,)
    assert plan.free_limits == (3, 0)
    assert plan.free_grid == (6, 1)
    assert plan.perm == (0, 2, 1)
    assert plan.lac_size == 32
    # on the axis with bandwidth 2 the term 4 clamps onto 2 and merges
    assert plan.cut_values == ((1, 2, 4), (1, 2))
    assert plan.cut_terms == ((1, 2, 4), (1, 2))
    assert plan.rows == 3 * 2 * 32


def test_plan_cuts_free_axes_past_the_second():
    s = zero_spectrum((3, 4, 2, 5, 1))
    grid = TorusGrid((4, 6, 8, 10, 2))
    family = make_lacunary(2.0, 3)
    space = JkIndexSpace(SampleJk(5, (2,)), (family,), (9, 9, 3, 3))
    plan = plan_prefix_blocks(s, grid, space, min_term=2)
    # axis 2 lacunary, axes 4 and 5 cut over min(2, B)..min(cap, B)
    assert plan.cut_axes == (1, 3, 4)
    assert plan.cut_values == ((2, 4), (2, 3), (1,))
    assert plan.cut_terms == ((2, 4), (2, 3), (1,))
    assert (plan.free_axes, plan.free_limits, plan.free_start) == ((0, 2), (3, 2), (2, 2))
    assert plan.perm == (1, 3, 4, 0, 2)
    assert (plan.lac_size, plan.rows) == (120, 480)
    with pytest.raises(LacsumError, match="free cap 1 below min_term 2 on axis 4"):
        plan_prefix_blocks(s, grid, JkIndexSpace(space.sample, (family,), (9, 9, 1, 3)), min_term=2)
    # k = N: every axis cut, two phantom streamed axes
    plan = plan_prefix_blocks(zero_spectrum((2, 2)), TorusGrid((4, 6)),
                              JkIndexSpace(SampleJk(2, (1, 2)), (family, family), ()))
    assert (plan.cut_axes, plan.free_axes) == ((0, 1), ())
    assert (plan.free_limits, plan.free_grid, plan.lac_size) == ((0, 0), (1, 1), 24)


def test_restrict_zeroes_outside():
    rng = np.random.default_rng(16)
    s = Spectrum((3, 3), rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    r = restrict(s, (1, 2))
    assert r.coeffs[5, 3] == 0  # nu = (2, 0)
    assert r.coeffs[4, 5] == s.coeffs[4, 5]  # nu = (1, 2)


def test_grid_validation():
    with pytest.raises(LacsumError):
        TorusGrid((7, 8))
    with pytest.raises(LacsumError):
        TorusGrid((0,))
    with pytest.raises(LacsumError):
        Spectrum((2,), np.zeros(4))


def test_grid_byte_budget():
    # a grid's complex samples, 16 bytes a point, may take 256 MiB; building
    # a TorusGrid allocates nothing, so neither size is ever materialized
    assert TorusGrid((256, 256, 256)).npoints * 16 == lacsum.spectral._ARRAY_BYTES
    with pytest.raises(LacsumError, match=r"grid \(258, 258, 258\) would take 274776192 bytes"):
        TorusGrid((258, 258, 258))
    # the point count is exact past int64, so a huge grid cannot wrap under the budget
    with pytest.raises(LacsumError, match="would take"):
        TorusGrid((1 << 32,) * 3)
