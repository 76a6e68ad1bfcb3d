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
    diagonal_maximal,
    enumerate_jk_indices,
    gather_max,
    level_set_measure,
    make_lacunary,
    min_pair_weight,
    partial_sum,
    product_weight,
    single_free_maximal,
    single_mode_spectrum,
    sweep_space,
    synthesize,
    unit_weight,
    weak_type_table,
    weighted_energy,
    weighted_maximal,
    zero_spectrum,
)


def random_spectrum(rng, bandwidth):
    shape = tuple(2 * b + 1 for b in bandwidth)
    return Spectrum(bandwidth, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def small_space(caps=(6, 6), count=4):
    sample = SampleJk(3, (1,))
    return JkIndexSpace(sample, (make_lacunary(2.0, count),), caps), sample


GRID = TorusGrid((8, 8, 8))


def test_zero_spectrum_gives_zero_maximal():
    space, sample = small_space()
    rep = weighted_maximal(zero_spectrum((4, 4, 4)), space, product_weight(sample), GRID)
    assert np.max(rep.values) == 0.0
    assert rep.ratio == 0.0


def test_single_mode_closed_form():
    space, sample = small_space()
    s = single_mode_spectrum((4, 4, 4), (1, 2, 3))
    rep = weighted_maximal(s, space, product_weight(sample), GRID)
    expected = 1.0 / np.sqrt(np.log(4.0) * np.log(5.0))
    assert np.max(np.abs(rep.values - expected)) < 1e-10
    assert rep.ratio == pytest.approx(expected, abs=1e-10)
    # the achieved index has the smallest admissible free components
    assert rep.argmax_index((0, 0, 0))[1:] == (2, 3)


def test_weighted_dominated_by_unweighted_over_min_weight():
    rng = np.random.default_rng(0)
    space, sample = small_space()
    s = random_spectrum(rng, (4, 4, 4))
    w = product_weight(sample)
    rw = weighted_maximal(s, space, w, GRID, record_argmax=False)
    ru = weighted_maximal(s, space, unit_weight(3), GRID, record_argmax=False)
    min_w = min(w.evaluate(np.asarray(i)) for i in enumerate_jk_indices(space))
    assert np.all(rw.values <= ru.values / np.sqrt(min_w) + 1e-12)


def test_blocked_equals_gather_oracle():
    rng = np.random.default_rng(1)
    space, sample = small_space(caps=(5, 7))
    s = random_spectrum(rng, (4, 3, 4))
    w = product_weight(sample)
    blocked = weighted_maximal(s, space, w, GRID, engine="blocked")
    gathered = weighted_maximal(s, space, w, GRID, engine="gather")
    assert np.max(np.abs(blocked.values - gathered.values)) < 1e-10
    for p in [(0, 0, 0), (1, 5, 2), (7, 7, 7), (3, 4, 6)]:
        assert blocked.argmax_index(p) == gathered.argmax_index(p)


def test_brute_force_loop_oracle():
    # direct loop over the enumerated indices with plain partial sums
    rng = np.random.default_rng(2)
    space, sample = small_space(caps=(3, 3), count=3)
    s = random_spectrum(rng, (4, 4, 4))
    w = product_weight(sample)
    best = np.zeros(GRID.resolution)
    for idx in enumerate_jk_indices(space):
        vals = np.abs(partial_sum(s, idx, GRID).values) / np.sqrt(w.evaluate(np.asarray(idx)))
        best = np.maximum(best, vals)
    rep = weighted_maximal(s, space, w, GRID)
    assert np.max(np.abs(rep.values - best)) < 1e-10


def test_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(3)
    space, sample = small_space()
    s = random_spectrum(rng, (4, 4, 4))
    w = product_weight(sample)
    a = weighted_maximal(s, space, w, GRID)
    scaled = Spectrum(s.bandwidth, 3.7 * s.coeffs)
    b = weighted_maximal(scaled, space, w, GRID)
    assert np.array_equal(a.argmax_ids, b.argmax_ids)


def test_monotone_under_space_enlargement():
    rng = np.random.default_rng(4)
    sample = SampleJk(3, (1,))
    s = random_spectrum(rng, (4, 4, 4))
    w = product_weight(sample)
    small = JkIndexSpace(sample, (make_lacunary(2.0, 2),), (2, 2))
    big_caps = JkIndexSpace(sample, (make_lacunary(2.0, 2),), (4, 4))
    big_terms = JkIndexSpace(sample, (make_lacunary(2.0, 3),), (2, 2))
    m_small = weighted_maximal(s, small, w, GRID, record_argmax=False).values
    for bigger in (big_caps, big_terms):
        m_big = weighted_maximal(s, bigger, w, GRID, record_argmax=False).values
        assert np.all(m_big >= m_small)


@settings(max_examples=40, deadline=None)
@given(
    jk=st.sampled_from([(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]),
    bandwidth=st.tuples(*[st.integers(min_value=1, max_value=4)] * 3),
    q=st.sampled_from([1.5, 2.0, 3.0]),
    counts=st.tuples(*[st.integers(min_value=1, max_value=4)] * 2),
    raw_levels=st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=6)] * 2), min_size=2, max_size=3
    ),
    record_argmax=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_sweep_levels_match_gather(jk, bandwidth, q, counts, raw_levels, record_argmax, seed):
    # caps up to 6 over bandwidths up to 4: levels often coincide after clamping
    sample = SampleJk(3, jk)
    families = tuple(make_lacunary(q, c) for c in counts[: sample.k])
    n_free = len(sample.free_axes)
    per_axis = [sorted(caps) for caps in zip(*raw_levels)][:n_free]
    levels = [tuple(caps) for caps in zip(*per_axis)]
    s = random_spectrum(np.random.default_rng(seed), bandwidth)
    grid = TorusGrid((4, 6, 4))
    weights = [product_weight(sample), unit_weight(3)]
    space = JkIndexSpace(sample, families, levels[-1])
    sweep = sweep_space(s, grid, space, weights, levels, record_argmax=record_argmax)
    assert sweep.m_values.shape == (2, len(levels)) + grid.resolution
    assert (sweep.argmax_ids is None) == (not record_argmax)
    for li, caps in enumerate(levels):
        indices = list(enumerate_jk_indices(JkIndexSpace(sample, families, caps)))
        for wi, w in enumerate(weights):
            values, ids, reps = gather_max(s, grid, indices, w)
            assert np.max(np.abs(sweep.m_values[wi, li] - values)) < 1e-10
            if record_argmax:
                chosen = sweep.index_table[sweep.argmax_ids[wi, li]]
                assert np.array_equal(chosen, reps[ids])


def test_single_free_maximal_dominates_function():
    rng = np.random.default_rng(5)
    s = random_spectrum(rng, (2, 2, 3))
    sample = SampleJk(3, (1, 2))
    fam = make_lacunary(2.0, 2)  # terms 1, 2 reach the bandwidth
    space = JkIndexSpace(sample, (fam, fam), (5,))
    rep = single_free_maximal(s, space, GRID)
    f = synthesize(s, GRID).values
    assert np.all(rep.values >= np.abs(f) - 1e-12)


def test_single_free_maximal_matches_enumeration():
    rng = np.random.default_rng(6)
    s = random_spectrum(rng, (3, 3, 3))
    sample = SampleJk(3, (1, 2))
    fam = make_lacunary(2.0, 3)
    space = JkIndexSpace(sample, (fam, fam), (4,))
    rep = single_free_maximal(s, space, GRID)
    best = np.zeros(GRID.resolution)
    for idx in enumerate_jk_indices(space):
        best = np.maximum(best, np.abs(partial_sum(s, idx, GRID).values))
    assert np.max(np.abs(rep.values - best)) < 1e-10


def test_single_free_requires_one_free_axis():
    space, _ = small_space()
    with pytest.raises(LacsumError):
        single_free_maximal(zero_spectrum((4, 4, 4)), space, GRID)


def test_diagonal_zero_and_single_mode():
    fam = make_lacunary(2.0, 3)
    rep0 = diagonal_maximal(zero_spectrum((4, 4, 4)), [fam], GRID, diag_cap=4)
    assert np.max(rep0.values) == 0.0
    s = single_mode_spectrum((4, 4, 4), (1, 3, 3))
    rep = diagonal_maximal(s, [fam], GRID, diag_cap=4)
    assert np.max(np.abs(rep.values - 1.0)) < 1e-12


def test_diagonal_below_full_space():
    rng = np.random.default_rng(7)
    s = random_spectrum(rng, (4, 4, 4))
    fam = make_lacunary(2.0, 3)
    diag = diagonal_maximal(s, [fam], GRID, diag_cap=4, record_argmax=False)
    sample = SampleJk(3, (1,))
    full = weighted_maximal(
        s, JkIndexSpace(sample, (fam,), (4, 4)), unit_weight(3), GRID, record_argmax=False
    )
    assert np.all(diag.values <= full.values + 1e-12)


def test_four_dimensional_two_lacunary_axes():
    rng = np.random.default_rng(11)
    bw = (2, 2, 2, 2)
    s = random_spectrum(rng, bw)
    sample = SampleJk(4, (1, 2))
    fam = make_lacunary(2.0, 2)
    space = JkIndexSpace(sample, (fam, fam), (2, 2))
    grid = TorusGrid((6, 6, 6, 6))
    w = product_weight(sample)
    blocked = weighted_maximal(s, space, w, grid, engine="blocked")
    gathered = weighted_maximal(s, space, w, grid, engine="gather")
    assert np.max(np.abs(blocked.values - gathered.values)) < 1e-10
    assert blocked.argmax_index((1, 2, 3, 4)) == gathered.argmax_index((1, 2, 3, 4))


def test_level_set_measure_values():
    grid = TorusGrid((4, 4, 4))
    zeros = np.zeros(grid.resolution)
    assert level_set_measure(zeros, 1.0, grid) == 0.0
    ones = np.ones(grid.resolution)
    assert level_set_measure(ones, 0.5, grid) == pytest.approx((2 * np.pi) ** 3)
    with pytest.raises(LacsumError):
        level_set_measure(ones, 0.0, grid)


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


def test_weak_type_degenerate_sigma():
    space, sample = small_space()
    with pytest.raises(DegenerateInputError):
        weak_type_table(zero_spectrum((4, 4, 4)), space, product_weight(sample), GRID)


def test_report_norms_are_consistent():
    rng = np.random.default_rng(10)
    space, sample = small_space()
    s = random_spectrum(rng, (4, 4, 4))
    rep = weighted_maximal(s, space, product_weight(sample), GRID, record_argmax=False)
    assert rep.input_l2 == pytest.approx(np.sqrt(s.energy()), rel=1e-12)
    assert rep.ratio == pytest.approx(rep.m_l2 / rep.input_l2, rel=1e-12)
    assert weighted_energy(s, unit_weight(3)) == pytest.approx(s.energy(), rel=1e-12)
