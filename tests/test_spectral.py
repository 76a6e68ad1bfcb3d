import numpy as np
import pytest

from lacsum import (
    AliasingError,
    LacsumError,
    ShellTensor,
    Spectrum,
    TorusGrid,
    analyze,
    build_shell_tensor,
    cesaro_mean,
    dirichlet_kernel,
    fejer_kernel,
    grid_l2,
    make_lacunary,
    partial_sum,
    restrict,
    single_mode_spectrum,
    split_lacunary_blocks,
    synthesize,
    zero_spectrum,
)
from lacsum.spectral import iter_prefix_slabs, plan_prefix_blocks


def random_spectrum(rng, bandwidth):
    shape = tuple(2 * b + 1 for b in bandwidth)
    return Spectrum(bandwidth, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_analyze_constant():
    grid = TorusGrid((8, 8))
    f = synthesize(zero_spectrum((2, 2)), grid)
    ones = type(f)(grid, np.ones(grid.resolution, dtype=complex))
    s = analyze(ones, (2, 2))
    assert abs(s.coefficient((0, 0)) - 1.0) < 1e-14
    coeffs = s.coeffs.copy()
    coeffs[2, 2] = 0
    assert np.max(np.abs(coeffs)) < 1e-14


def test_analyze_single_mode_16x16():
    grid = TorusGrid((16, 16))
    f = synthesize(single_mode_spectrum((3, 3), (1, 2)), grid)
    s = analyze(f, (3, 3))
    assert abs(s.coefficient((1, 2)) - 1.0) < 1e-12
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
    mesh = grid.meshgrid()
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
# kernels and Cesaro means


def test_dirichlet_values():
    assert dirichlet_kernel(3, 0.0) == pytest.approx(7.0, abs=1e-12)
    u = np.linspace(-3, 3, 101)
    assert np.max(np.abs(dirichlet_kernel(0, u) - 1.0)) < 1e-12
    assert dirichlet_kernel(2, np.pi / 2) == pytest.approx(-1.0, abs=1e-12)


def test_dirichlet_matches_cosine_sum():
    u = np.linspace(-np.pi, np.pi, 257)
    for n in (1, 3, 8):
        direct = 1.0 + 2.0 * sum(np.cos(k * u) for k in range(1, n + 1))
        assert np.max(np.abs(dirichlet_kernel(n, u) - direct)) < 1e-9


def test_dirichlet_periodic_singularities():
    for u in (0.0, 2 * np.pi, -2 * np.pi):
        assert dirichlet_kernel(5, u) == pytest.approx(11.0, abs=1e-6)


def test_fejer_values():
    for n in (0, 1, 4, 9):
        assert fejer_kernel(n, 0.0) == pytest.approx(n + 1.0, abs=1e-9)
    assert fejer_kernel(1, np.pi) == pytest.approx(0.0, abs=1e-12)


def test_fejer_is_dirichlet_average():
    u = np.linspace(-np.pi, np.pi, 123)
    for n in (1, 2, 7):
        avg = sum(dirichlet_kernel(r, u) for r in range(n + 1)) / (n + 1)
        assert np.max(np.abs(fejer_kernel(n, u) - avg)) < 1e-9


def test_fejer_nonnegative():
    u = np.linspace(-np.pi, np.pi, 10_000)
    for n in (1, 5, 17, 32):
        assert fejer_kernel(n, u).min() >= 0.0


def one_axis_partial_sums(coeffs_1d, b, t):
    def provider(r):
        r = min(r, b)
        ks = np.arange(-r, r + 1)
        return np.sum(coeffs_1d[b - r : b + r + 1] * np.exp(1j * ks * t))

    return provider


def test_cesaro_constant():
    assert cesaro_mean(lambda r: 3.5 + 0j, 7) == pytest.approx(3.5)


def test_cesaro_single_mode_attenuation():
    b, k, t = 6, 2, 0.7
    coeffs = np.zeros(2 * b + 1, dtype=complex)
    coeffs[b + k] = 1.0
    for n in (2, 4, 6):
        got = cesaro_mean(one_axis_partial_sums(coeffs, b, t), n)
        expected = (n + 1 - k) / (n + 1) * np.exp(1j * k * t)
        assert abs(got - expected) < 1e-12


def test_cesaro_polynomial_error_bound():
    rng = np.random.default_rng(7)
    d = 3
    coeffs = np.zeros(2 * d + 1, dtype=complex)
    coeffs[:] = rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1)
    t = 1.1
    n = 4 * d
    exact = sum(
        coeffs[d + k] * np.exp(1j * k * t) for k in range(-d, d + 1)
    )
    got = cesaro_mean(one_axis_partial_sums(coeffs, d, t), n)
    bound = sum(abs(k) / (n + 1) * abs(coeffs[d + k]) for k in range(-d, d + 1))
    assert abs(got - exact) <= bound + 1e-12


def test_cesaro_equals_fejer_convolution():
    rng = np.random.default_rng(8)
    b, n, big = 5, 8, 32
    coeffs = rng.standard_normal(2 * b + 1) + 1j * rng.standard_normal(2 * b + 1)
    t = 0.3
    direct = cesaro_mean(one_axis_partial_sums(coeffs, b, t), n)
    xs = -np.pi + 2 * np.pi * np.arange(big) / big
    phi = np.asarray(
        [np.sum(coeffs * np.exp(1j * np.arange(-b, b + 1) * x)) for x in xs]
    )
    conv = np.mean(phi * fejer_kernel(n, t - xs))
    assert abs(direct - conv) < 1e-10


# ---------------------------------------------------------------------------
# lacunary block split


def test_block_split_supports():
    b = 4
    s = Spectrum((b,), np.arange(1, 10, dtype=complex))
    fam = make_lacunary(2.0, 3)  # 1, 2, 4
    g1, g2 = split_lacunary_blocks(s, 1, fam)
    odd = {abs(k) for k in range(-b, b + 1) if abs(g1.coefficient((k,))) > 0}
    even = {abs(k) for k in range(-b, b + 1) if abs(g2.coefficient((k,))) > 0}
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
    assert all(abs(g1.coefficient((k,))) > 0 for k in (3, 4, 5, 8))
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
        direct = partial_sum(s, n, grid, method="direct").values
        worst = max(worst, float(np.max(np.abs(tensor.query(n) - direct))))
    assert worst < 1e-10


def test_shell_tensor_s0_is_c0():
    rng = np.random.default_rng(11)
    s = Spectrum((2, 2), rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    grid = TorusGrid((6, 6))
    tensor = ShellTensor.from_grid(s, grid)
    assert np.max(np.abs(tensor.query((0, 0)) - s.coefficient((0, 0)))) < 1e-13


def test_shells_sum_to_partial_sum():
    rng = np.random.default_rng(12)
    s = Spectrum((3, 2), rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5)))
    grid = TorusGrid((8, 6))
    tensor = ShellTensor.from_grid(s, grid)
    n = (2, 2)
    acc = np.zeros(grid.resolution, dtype=complex)
    for shell in np.ndindex(n[0] + 1, n[1] + 1):
        acc += tensor.shell(shell)
    assert np.max(np.abs(acc - tensor.query(n))) < 1e-10


def test_shell_tensor_point_matches_grid():
    rng = np.random.default_rng(13)
    s = Spectrum((3, 3), rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    grid = TorusGrid((8, 8))
    tensor = ShellTensor.from_grid(s, grid)
    point = (grid.axis_coords(0)[3], grid.axis_coords(1)[5])
    pt = build_shell_tensor(s, point)
    assert abs(pt.query((2, 1)) - tensor.query((2, 1))[3, 5]) < 1e-12


def test_shell_tensor_budget_guard():
    s = zero_spectrum((16, 16, 16))
    with pytest.raises(LacsumError):
        ShellTensor.from_grid(s, TorusGrid((64, 64, 64)), max_bytes=1 << 20)


def test_prefix_slabs_match_partial_sums():
    rng = np.random.default_rng(14)
    bw = (3, 4, 2)
    s = Spectrum(bw, rng.standard_normal((7, 9, 5)) + 1j * rng.standard_normal((7, 9, 5)))
    grid = TorusGrid((6, 8, 6))
    plan = plan_prefix_blocks(s, grid, (0,), ((1, 3),))
    cuts = (1, 3)
    worst = 0.0
    for row, mb, slab in iter_prefix_slabs(s, grid, plan):
        combo, x1 = row // 6, row % 6
        for ma in (0, 2, 4):
            direct = partial_sum(s, (cuts[combo], ma, mb), grid, method="direct").values
            worst = max(worst, float(np.max(np.abs(slab[ma] - direct[x1]))))
    assert worst < 1e-10


def test_prefix_slabs_one_free_axis():
    rng = np.random.default_rng(15)
    bw = (2, 2, 3)
    s = Spectrum(bw, rng.standard_normal((5, 5, 7)) + 1j * rng.standard_normal((5, 5, 7)))
    grid = TorusGrid((4, 4, 8))
    plan = plan_prefix_blocks(s, grid, (0, 1), ((1, 2), (2,)))
    worst = 0.0
    for row, mb, prefix in iter_prefix_slabs(s, grid, plan):
        assert mb == 0  # the phantom second free axis has bandwidth 0
        combo, lac = row // 16, row % 16
        x1, x2 = lac // 4, lac % 4
        cut0 = (1, 2)[combo]  # the second cut axis is pinned at 2
        for ma in range(4):
            direct = partial_sum(s, (cut0, 2, ma), grid, method="direct").values
            worst = max(worst, float(np.max(np.abs(prefix[ma, :, 0] - direct[x1, x2]))))
    assert worst < 1e-10


def test_restrict_zeroes_outside():
    rng = np.random.default_rng(16)
    s = Spectrum((3, 3), rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    r = restrict(s, (1, 2))
    assert r.coefficient((2, 0)) == 0
    assert r.coefficient((1, 2)) == s.coefficient((1, 2))


def test_grid_validation():
    with pytest.raises(LacsumError):
        TorusGrid((7, 8))
    with pytest.raises(LacsumError):
        TorusGrid((0,))
    with pytest.raises(LacsumError):
        Spectrum((2,), np.zeros(4))
