import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsum import (
    DegenerateInputError,
    JkIndexSpace,
    LacsumError,
    SampleJk,
    Spectrum,
    TorusGrid,
    enumerate_jk_indices,
    gather_max,
    grid_l2,
    level_set_measure,
    make_lacunary,
    min_pair_weight,
    partial_sum,
    product_weight,
    sweep_space,
    synthesize,
    unit_weight,
    weak_type_table,
    weighted_energy,
)
from lacsum.weyl import weight_from_kind
from spectra import chirp_spectrum, single_mode_spectrum, zero_spectrum


def random_spectrum(rng, bandwidth):
    shape = tuple(2 * b + 1 for b in bandwidth)
    return Spectrum(bandwidth, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def small_space(caps=(6, 6), count=4):
    sample = SampleJk(3, (1,))
    return JkIndexSpace(sample, (make_lacunary(2.0, count),), caps), sample


GRID = TorusGrid((8, 8, 8))


def test_zero_spectrum_gives_zero_maximal():
    space, sample = small_space()
    m_values = sweep_space(zero_spectrum((4, 4, 4)), GRID, space, [product_weight(sample)])
    assert np.max(m_values) == 0.0


def test_single_mode_closed_form():
    space, sample = small_space()
    s = single_mode_spectrum((4, 4, 4), (1, 2, 3))
    values = sweep_space(s, GRID, space, [product_weight(sample)])[0, 0]
    expected = 1.0 / np.sqrt(np.log(4.0) * np.log(5.0))
    assert np.max(np.abs(values - expected)) < 1e-10
    assert grid_l2(values) / np.sqrt(s.energy()) == pytest.approx(expected, abs=1e-10)


def test_weighted_dominated_by_unweighted_over_min_weight():
    rng = np.random.default_rng(0)
    space, sample = small_space()
    s = random_spectrum(rng, (4, 4, 4))
    w = product_weight(sample)
    m_w, m_u = sweep_space(s, GRID, space, [w, unit_weight(3)])[:, 0]
    min_w = min(w.evaluate(np.asarray(i)) for i in enumerate_jk_indices(space))
    assert np.all(m_w <= m_u / np.sqrt(min_w) + 1e-12)


def test_blocked_equals_gather_oracle():
    rng = np.random.default_rng(1)
    space, sample = small_space(caps=(5, 7))
    s = random_spectrum(rng, (4, 3, 4))
    w = product_weight(sample)
    blocked = sweep_space(s, GRID, space, [w])[0, 0]
    values = gather_max(s, GRID, list(enumerate_jk_indices(space)), w)
    assert np.max(np.abs(blocked - values)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    n_free=st.integers(min_value=0, max_value=3),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_brute_force_loop_oracle(n_free, data, seed):
    # direct loop over the enumerated indices with plain partial sums, which
    # the blocked sweep must match for every number of free axes: none
    # (k = N), one or two streamed, or a third one cut
    n = data.draw(st.integers(min_value=max(n_free, 1), max_value=4))
    axes = data.draw(st.permutations(range(1, n + 1)))
    sample = SampleJk(n, tuple(sorted(axes[: n - n_free])))
    q = data.draw(st.sampled_from([1.5, 2.0, 3.0]))
    # up to four terms, so the last one can lie beyond every bandwidth
    counts = data.draw(st.lists(st.integers(1, 4), min_size=sample.k, max_size=sample.k))
    caps = data.draw(st.lists(st.integers(0, 5), min_size=n_free, max_size=n_free))
    bandwidth = data.draw(st.tuples(*[st.integers(min_value=0, max_value=4)] * n))
    kinds = ["product", "full", "unit"] + (["minpair"] if n_free == 2 else [])
    w = weight_from_kind(data.draw(st.sampled_from(kinds)), sample)
    space = JkIndexSpace(sample, tuple(make_lacunary(q, c) for c in counts), tuple(caps))
    s = random_spectrum(np.random.default_rng(seed), bandwidth)
    grid = TorusGrid((8,) * n)
    best = np.zeros(grid.resolution)
    for idx in enumerate_jk_indices(space):
        vals = np.abs(partial_sum(s, idx, grid).values) / np.sqrt(w.evaluate(np.asarray(idx)))
        best = np.maximum(best, vals)
    values = sweep_space(s, grid, space, [w])[0, 0]
    assert np.max(np.abs(values - best)) < 1e-10


def test_maximal_verdict_depends_on_the_weight():
    # doubling the chirp's frequency raises the unweighted maximal ratio but
    # lowers the product-weighted one: the 1/W factor decides the trend
    sample = SampleJk(3, (1,))
    weights = [unit_weight(3), product_weight(sample)]
    ratios = []
    for lam in (4, 8):
        grid = TorusGrid((2, 12 * lam, 12 * lam))
        space = JkIndexSpace(sample, (make_lacunary(2.0, 1),), (3 * lam, 3 * lam))
        s = chirp_spectrum(lam, grid)
        m_values = sweep_space(s, grid, space, weights)[:, 0]
        ratios.append([grid_l2(m) / np.sqrt(s.energy()) for m in m_values])
    (unit_4, product_4), (unit_8, product_8) = ratios
    assert unit_8 > unit_4
    assert product_8 < product_4


def test_monotone_under_space_enlargement():
    rng = np.random.default_rng(4)
    sample = SampleJk(3, (1,))
    s = random_spectrum(rng, (4, 4, 4))
    w = product_weight(sample)
    small = JkIndexSpace(sample, (make_lacunary(2.0, 2),), (2, 2))
    big_caps = JkIndexSpace(sample, (make_lacunary(2.0, 2),), (4, 4))
    big_terms = JkIndexSpace(sample, (make_lacunary(2.0, 3),), (2, 2))
    m_small = sweep_space(s, GRID, small, [w])[0, 0]
    for bigger in (big_caps, big_terms):
        m_big = sweep_space(s, GRID, bigger, [w])[0, 0]
        assert np.all(m_big >= m_small)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(
        [(3, (1,)), (3, (2,)), (3, (3,)), (3, (1, 2)), (3, (1, 3)), (3, (2, 3)), (4, (1,)), (4, (3,))]
    ),
    bandwidth=st.tuples(*[st.integers(min_value=1, max_value=4)] * 4),
    q=st.sampled_from([1.5, 2.0, 3.0]),
    counts=st.tuples(*[st.integers(min_value=1, max_value=4)] * 2),
    raw_levels=st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=6)] * 3), min_size=2, max_size=3
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_sweep_levels_match_gather(shape, bandwidth, q, counts, raw_levels, seed):
    # caps up to 6 over bandwidths up to 4: levels often coincide after
    # clamping. At N = 4 the third free axis is cut, and each level caps it
    # on its own.
    n, jk = shape
    sample = SampleJk(n, jk)
    families = tuple(make_lacunary(q, c) for c in counts[: sample.k])
    n_free = len(sample.free_axes)
    per_axis = [sorted(caps) for caps in zip(*raw_levels)][:n_free]
    levels = [tuple(caps) for caps in zip(*per_axis)]
    s = random_spectrum(np.random.default_rng(seed), bandwidth[:n])
    grid = TorusGrid((4, 6, 4, 4)[:n])
    weights = [product_weight(sample), unit_weight(n)]
    space = JkIndexSpace(sample, families, levels[-1])
    m_values = sweep_space(s, grid, space, weights, levels)
    assert m_values.shape == (2, len(levels)) + grid.resolution
    for li, caps in enumerate(levels):
        indices = list(enumerate_jk_indices(JkIndexSpace(sample, families, caps)))
        for wi, w in enumerate(weights):
            values = gather_max(s, grid, indices, w)
            assert np.max(np.abs(m_values[wi, li] - values)) < 1e-10


def test_single_free_maximal_dominates_function():
    rng = np.random.default_rng(5)
    s = random_spectrum(rng, (2, 2, 3))
    sample = SampleJk(3, (1, 2))
    fam = make_lacunary(2.0, 2)  # terms 1, 2 reach the bandwidth
    space = JkIndexSpace(sample, (fam, fam), (5,))
    values = sweep_space(s, GRID, space, [unit_weight(3)])[0, 0]
    f = synthesize(s, GRID).values
    assert np.all(values >= np.abs(f) - 1e-12)


def test_single_free_maximal_matches_enumeration():
    rng = np.random.default_rng(6)
    s = random_spectrum(rng, (3, 3, 3))
    sample = SampleJk(3, (1, 2))
    fam = make_lacunary(2.0, 3)
    space = JkIndexSpace(sample, (fam, fam), (4,))
    values = sweep_space(s, GRID, space, [unit_weight(3)])[0, 0]
    best = np.zeros(GRID.resolution)
    for idx in enumerate_jk_indices(space):
        best = np.maximum(best, np.abs(partial_sum(s, idx, GRID).values))
    assert np.max(np.abs(values - best)) < 1e-10


def test_tied_maximum_matches_gather():
    # at x = (pi, pi, pi) the indices (1, 2, 0), (1, 0, 2) and others all
    # reach |S| = 1: both engines give that tied maximum
    bw = (1, 2, 2)
    coeffs = np.zeros((3, 5, 5), dtype=complex)
    for nu, c in (((1, 2, 0), 1.0), ((1, 0, 2), 1.0), ((1, 2, 2), -1.0)):
        coeffs[tuple(v + b for v, b in zip(nu, bw))] = c
    s = Spectrum(bw, coeffs)
    grid = TorusGrid((4, 8, 8))
    space = JkIndexSpace(SampleJk(3, (1,)), (make_lacunary(2.0, 1),), (2, 2))
    blocked = sweep_space(s, grid, space, [unit_weight(3)])[0, 0]
    values = gather_max(s, grid, list(enumerate_jk_indices(space)), unit_weight(3))
    assert np.max(np.abs(blocked - values)) < 1e-12
    assert abs(blocked[2, 4, 4] - 1.0) < 1e-12


def test_four_dimensional_two_lacunary_axes():
    rng = np.random.default_rng(11)
    bw = (2, 2, 2, 2)
    s = random_spectrum(rng, bw)
    sample = SampleJk(4, (1, 2))
    fam = make_lacunary(2.0, 2)
    space = JkIndexSpace(sample, (fam, fam), (2, 2))
    grid = TorusGrid((6, 6, 6, 6))
    w = product_weight(sample)
    blocked = sweep_space(s, grid, space, [w])[0, 0]
    values = gather_max(s, grid, list(enumerate_jk_indices(space)), w)
    assert np.max(np.abs(blocked - values)) < 1e-10


def test_level_set_measure_values():
    grid = TorusGrid((4, 4, 4))
    zeros = np.zeros(grid.resolution)
    assert level_set_measure(zeros, 1.0, grid) == 0.0
    ones = np.ones(grid.resolution)
    assert level_set_measure(ones, 0.5, grid) == pytest.approx((2 * np.pi) ** 3)
    with pytest.raises(LacsumError):
        level_set_measure(ones, 0.0, grid)


def test_level_set_counts_every_alpha_from_one_sort():
    # each level counts what a direct comparison counts, bit for bit: values
    # tied exactly at an alpha, a level above max|m| (measure 0) and one
    # below min|m| (the whole torus), on values laid out transposed
    rng = np.random.default_rng(11)
    grid = TorusGrid((4, 6))
    m = (rng.choice([0.25, 0.5, 1.0, 2.0], size=(6, 4)) * rng.choice([-1.0, 1.0], size=(6, 4))).T
    alphas = np.array([0.1, 0.25, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0])
    expected = [(2 * np.pi) ** 2 * (np.count_nonzero(np.abs(m) > a) / m.size) for a in alphas]
    measures = level_set_measure(m, alphas, grid)
    assert np.array_equal(measures, expected)
    assert measures[0] == (2 * np.pi) ** 2 and measures[-1] == 0.0
    scalar = level_set_measure(m, 0.5, grid)
    assert np.ndim(scalar) == 0 and scalar == expected[3]


class _NoAbs:
    def __abs__(self):
        raise AssertionError("|m| taken before the alpha check")


@pytest.mark.parametrize(
    "alphas",
    [0.0, [0.5, 0.0], [-1.0, 2.0], [1.0, 2.0, -0.5], np.nan, [0.5, np.nan], np.inf, [0.1, np.inf], -np.inf],
)
def test_level_set_rejects_a_nonpositive_alpha_before_sorting(alphas):
    grid = TorusGrid((2, 4))
    m = np.full(grid.resolution, _NoAbs(), dtype=object)
    with pytest.raises(LacsumError, match="positive"):
        level_set_measure(m, alphas, grid)


@pytest.mark.parametrize("shape", [(4, 4), (4, 4, 4, 1), (4, 4, 5)])
def test_level_set_rejects_values_off_the_grid(shape):
    # the measure of (2 pi)^3 times a fraction needs the grid's own points
    with pytest.raises(LacsumError, match="grid"):
        level_set_measure(np.ones(shape), 0.5, TorusGrid((4, 4, 4)))


def test_level_set_monotone_in_alpha():
    rng = np.random.default_rng(8)
    grid = TorusGrid((6, 6))
    m = np.abs(rng.standard_normal(grid.resolution))
    alphas = np.linspace(0.01, 3.0, 40)
    measures = [level_set_measure(m, a, grid) for a in alphas]
    assert all(b <= a for a, b in zip(measures, measures[1:]))


def test_weak_type_single_mode_closed_form():
    space, sample = small_space()
    s = single_mode_spectrum((4, 4, 4), (1, 2, 3))
    w = product_weight(sample)
    alphas = [0.25, 0.5, 0.9, 1.5]
    table = weak_type_table(s, space, w, GRID, alphas=alphas)
    sigma = np.log(4.0) * np.log(5.0)
    expected = max(a**2 * (2 * np.pi) ** 3 / sigma for a in alphas if a < 1.0)
    assert table.max_ratio == pytest.approx(expected, abs=1e-10)
    # above the maximum the level set is empty
    assert table.ratios[-1] == 0.0


def test_weak_type_scaling_invariance():
    rng = np.random.default_rng(9)
    space, sample = small_space()
    s = random_spectrum(rng, (4, 4, 4))
    w = product_weight(sample)
    alphas = np.asarray([0.3, 0.7, 1.2])
    base = weak_type_table(s, space, w, GRID, alphas=alphas)
    c = 2.0
    scaled = weak_type_table(
        Spectrum(s.bandwidth, c * s.coeffs), space, w, GRID, alphas=c * alphas
    )
    assert np.allclose(base.ratios, scaled.ratios, atol=1e-12)


@pytest.mark.parametrize("alphas", [[], np.array([])])
def test_weak_type_empty_alpha_grid_is_an_input_error(alphas, monkeypatch):
    # a domain error before any sweep, not numpy's reduction error from an empty max
    import lacsum.maximal as maximal

    space, sample = small_space()
    s = single_mode_spectrum((4, 4, 4), (1, 2, 3))
    monkeypatch.setattr(maximal, "sweep_space", lambda *a, **k: pytest.fail("swept"))
    with pytest.raises(LacsumError, match="at least one alpha"):
        weak_type_table(s, space, product_weight(sample), GRID, alphas=alphas)


def test_weak_type_degenerate_sigma():
    space, sample = small_space()
    with pytest.raises(DegenerateInputError):
        weak_type_table(zero_spectrum((4, 4, 4)), space, product_weight(sample), GRID)
    # positive energy, but no mode inside the space: the maximum vanishes
    space = JkIndexSpace(SampleJk(3, (1,)), (make_lacunary(2.0, 1),), (0, 0))
    s = single_mode_spectrum((4, 4, 4), (3, 3, 3))
    with pytest.raises(DegenerateInputError, match="vanishes"):
        weak_type_table(s, space, product_weight(space.sample), GRID)


@pytest.mark.parametrize(
    "n, jk, oracle",
    [((3, (1, 2), "blocked")), ((3, (1,), "blocked")), ((4, (1,), "gather"))],
)
def test_weak_type_matches_separate_maximals(n, jk, oracle):
    # one pass over both weights gives what two one-weight sweeps give, for
    # one, two or three free axes; the three-free-axis space is also checked
    # against the gather oracle
    sample = SampleJk(n, jk)
    space = JkIndexSpace(sample, (make_lacunary(2.0, 3),) * len(jk), (3,) * (n - len(jk)))
    s = random_spectrum(np.random.default_rng(20), (2,) * n)
    grid = TorusGrid((8,) * n)
    w = product_weight(sample)
    table = weak_type_table(s, space, w, grid)
    weighted = sweep_space(s, grid, space, [w])[0, 0]
    m = sweep_space(s, grid, space, [unit_weight(n)])[0, 0]
    assert np.array_equal(table.values, weighted)
    assert not np.array_equal(weighted, m)  # the weight does change M
    assert np.array_equal(table.measures, [level_set_measure(m, a, grid) for a in table.alphas])
    if oracle == "gather":
        values = gather_max(s, grid, list(enumerate_jk_indices(space)), w)
        assert np.max(np.abs(weighted - values)) < 1e-10


def test_report_norms_are_consistent():
    # a report's input_l2 is sqrt(energy), the grid L2 norm of f on a grid
    # that does not alias; the space reaches the full sum (term 8 and caps 6
    # clamp at bandwidth 4), so the unit-weight maximal dominates |f| and its
    # ratio m_l2 / input_l2 is at least 1
    rng = np.random.default_rng(10)
    space, sample = small_space()
    s = random_spectrum(rng, (4, 4, 4))
    grid = TorusGrid((10, 10, 10))
    f = synthesize(s, grid).values
    assert grid_l2(f) == pytest.approx(np.sqrt(s.energy()), rel=1e-12)
    m = sweep_space(s, grid, space, [unit_weight(3)])[0, 0]
    assert np.all(m >= np.abs(f) - 1e-12)
    assert grid_l2(m) >= grid_l2(f) - 1e-12
    assert weighted_energy(s, unit_weight(3)) == pytest.approx(s.energy(), rel=1e-12)


@pytest.mark.parametrize(
    "jk, batch_rows",
    [
        # cut axis 1: 6 grid points per combo, 4 * 8 * 6 slab entries per row
        ((1,), (1, 4, 6)),
        # cut axes 1, 2: 48 grid points per combo, 4 * 6 entries per row
        ((1, 2), (1, 5, 48)),
    ],
)
def test_sweeps_match_across_slab_batches(jk, batch_rows, monkeypatch):
    # one row per batch, a batch size that does not divide the grid points
    # per combo, and one whole combo per batch give equal arrays
    import lacsum.spectral
    from lacsum.suites import sup_error_table

    sample = SampleJk(3, jk)
    n_free = 3 - len(jk)
    space = JkIndexSpace(sample, (make_lacunary(2.0, 3),) * len(jk), (3,) * n_free)
    s = random_spectrum(np.random.default_rng(19), (3, 3, 3))
    grid = TorusGrid((6, 8, 6))
    free = sample.free_positions
    row_bytes = 4 * int(np.prod([grid.resolution[p] for p in free])) * 16
    weights = [product_weight(sample), unit_weight(3)]
    levels = [(2,) * n_free, (3,) * n_free]
    results = []
    for rows in batch_rows:
        monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", rows * row_bytes)
        m_values = sweep_space(s, grid, space, weights, levels)
        _, table = sup_error_table(s, grid, space)
        results.append((m_values, table))
    for other in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(results[0], other))


@pytest.mark.parametrize("n", [3, 4])
def test_slab_budget_changes_nothing(n, monkeypatch):
    # budgets of one shell, three shells (tiles that do not divide the five
    # streamed shells) and a whole combo per slab give the same arrays as
    # the default budget, which the gather oracle checks
    import lacsum.spectral
    from lacsum.suites import sup_error_table

    sample = SampleJk(n, (1,))
    n_free = n - 1
    space = JkIndexSpace(sample, (make_lacunary(2.0, 3),), (4,) * n_free)
    s = random_spectrum(np.random.default_rng(21), (3, 4, 3, 2)[:n])
    grid = TorusGrid((6, 8, 6, 4)[:n])
    weights = [product_weight(sample), unit_weight(n)]
    # level 3 cuts inside the second tile of three shells, level 1 inside
    # the first
    levels = [(1,) * n_free, (3,) * n_free, (4,) * n_free]
    shell_bytes = 8 * 6 * 16
    rows = lacsum.spectral.plan_prefix_blocks(s, grid, space).lac_size
    budgets = {
        "default": lacsum.spectral._SLAB_BYTES,
        "one shell": shell_bytes,
        "three shells": 3 * shell_bytes,
        "whole combo": rows * 5 * shell_bytes,
    }
    results = {}
    for name, budget in budgets.items():
        monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", budget)
        m_values = sweep_space(s, grid, space, weights, levels)
        _, table = sup_error_table(s, grid, space, min_term=1)
        results[name] = (m_values, table)
    ref_values, ref_table = results["default"]
    for name, (m_values, table) in results.items():
        assert np.array_equal(m_values, ref_values), name
        assert np.array_equal(table, ref_table), name
    for li, caps in enumerate(levels):
        indices = list(enumerate_jk_indices(JkIndexSpace(sample, space.families, caps)))
        for wi, w in enumerate(weights):
            values = gather_max(s, grid, indices, w)
            assert np.max(np.abs(ref_values[wi, li] - values)) < 1e-10, (wi, li)


@pytest.mark.parametrize("n", [3, 4])
def test_each_level_equals_its_own_one_level_sweep(n, monkeypatch):
    # tiles of three shells of the first free axis (bandwidth 4): cap 1
    # ends a level inside the first tile and cap 3 inside the second. At
    # N = 4 the lowest level caps the cut third free axis at 0, so it
    # excludes every combo above it, and the middle level at 2.
    import lacsum.spectral

    sample = SampleJk(n, (1,))
    def space_of(caps):
        return JkIndexSpace(sample, (make_lacunary(2.0, 3),), caps)

    levels = [(1, 0, 0), (3, 2, 2), (4, 4, 4)]
    levels = [caps[: n - 1] for caps in levels]
    s = random_spectrum(np.random.default_rng(27), (3, 4, 3, 2)[:n])
    grid = TorusGrid((6, 8, 6, 4)[:n])
    monkeypatch.setattr(lacsum.spectral, "_SLAB_BYTES", 3 * 8 * 6 * 16)
    weights = [product_weight(sample), unit_weight(n)]
    m_values = sweep_space(s, grid, space_of(levels[-1]), weights, levels)
    for li, caps in enumerate(levels):
        alone = sweep_space(s, grid, space_of(caps), weights, [caps])
        assert np.array_equal(m_values[:, li], alone[:, 0]), li
    assert not np.array_equal(m_values[:, 0], m_values[:, 1])


def test_sup_error_table_needs_a_term_above_min_term():
    from lacsum.suites import sup_error_table

    space = JkIndexSpace(
        SampleJk(3, (1, 2)), (make_lacunary(2.0, 4), make_lacunary(2.0, 2)), (3,)
    )
    with pytest.raises(LacsumError, match="no lacunary terms >= 3 on axis 2"):
        sup_error_table(zero_spectrum((3, 3, 3)), TorusGrid((8, 8, 8)), space, min_term=3)
