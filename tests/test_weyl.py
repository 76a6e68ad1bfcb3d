import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsum import (
    JkIndexSpace,
    LacsumError,
    SampleJk,
    Spectrum,
    TorusGrid,
    WeylWeight,
    check_weyl_conditions,
    full_product_weight,
    make_lacunary,
    min_pair_weight,
    product_weight,
    split_lacunary_blocks,
    sweep_space,
    unit_weight,
    weighted_energy,
)
from lacsum.weyl import WEIGHT_KINDS, weight_from_kind
from spectra import zero_spectrum


def test_product_weight_values():
    w = product_weight(SampleJk(3, (1,)))
    assert w.evaluate((17, 0, 0)) == pytest.approx(np.log(2.0) ** 2, abs=1e-12)
    w2 = product_weight(SampleJk(3, (1, 2)))
    assert w2.evaluate((5, 9, 6)) == pytest.approx(np.log(8.0), abs=1e-12)


def test_product_weight_ignores_lacunary_components():
    w = product_weight(SampleJk(3, (1,)))
    assert w.evaluate((0, 3, 4)) == w.evaluate((12, 3, 4))


def test_min_pair_values_and_symmetry():
    w = min_pair_weight(SampleJk(3, (1,)))
    assert w.evaluate((7, 0, 5)) == pytest.approx(np.log(2.0) ** 2, abs=1e-12)
    assert w.evaluate((0, 3, 8)) == w.evaluate((0, 8, 3))


def test_min_pair_needs_two_free_axes():
    with pytest.raises(LacsumError):
        min_pair_weight(SampleJk(3, (1, 2)))


def test_min_pair_below_product():
    sample = SampleJk(3, (1,))
    wp = product_weight(sample)
    wm = min_pair_weight(sample)
    a = np.arange(64)
    nu = np.zeros((64, 64, 3), dtype=int)
    nu[..., 1] = a[:, None]
    nu[..., 2] = a[None, :]
    assert np.all(wm.evaluate(nu) <= wp.evaluate(nu) + 1e-12)


def test_full_product():
    w = full_product_weight(2)
    assert w.evaluate((1, 2)) == pytest.approx(np.log(3.0) * np.log(4.0), abs=1e-12)


def test_conditions_pass_for_shipped_weights():
    for w in (
        product_weight(SampleJk(3, (1,))),
        min_pair_weight(SampleJk(3, (3,))),
        full_product_weight(3),
        unit_weight(3),
    ):
        report = check_weyl_conditions(w, box=32)
        assert report.all_passed, report


def test_planted_negative_entry_fails_positivity():
    table = np.ones((5, 5))
    table[2, 3] = -1.0
    w = WeylWeight(
        "table", "planted", 2, False, lambda *nu: table[np.abs(nu[0]), np.abs(nu[1])]
    )
    report = check_weyl_conditions(w, box=4)
    assert not report.positivity
    assert report.positivity.witness == (2, 3)


def test_asymmetric_weight_fails_symmetry():
    w = WeylWeight("custom", "asymmetric", 2, False, lambda *nu: 1.0 + (nu[0] > 0) * 0.5)
    report = check_weyl_conditions(w, box=4)
    assert not report.symmetry
    assert report.symmetry.witness is not None


def test_evenness_witness_order_over_two_failing_flips():
    # odd at |nu| = (3, 0, 1) under the flip of axis 3, and at |nu| = (1, 1, 0)
    # under the flip of axis 1. Flips go in np.ndindex order, so the axis-3
    # flip (0, 0, 1) reports first, although (1, 1, 0) precedes (3, 0, 1) in
    # C order over the orthant.
    def spot_a(*nu):
        return 0.5 * ((nu[0] == 3) & (nu[2] == -1))

    def spot_b(*nu):
        return 0.25 * ((nu[0] == -1) & (nu[1] == 1))

    cases = [
        (lambda *nu: 1.0 + spot_a(*nu), (3, 0, -1)),
        (lambda *nu: 1.0 + spot_b(*nu), (-1, 1, 0)),
        (lambda *nu: 1.0 + spot_a(*nu) + spot_b(*nu), (3, 0, -1)),
    ]
    for fn, witness in cases:
        report = check_weyl_conditions(WeylWeight("custom", "odd spots", 3, False, fn), box=4)
        assert report.positivity and report.monotonicity
        assert not report.symmetry
        assert report.symmetry.witness == witness


def test_scan_peak_memory():
    # a weight that reads two or N - k axes is scanned on its distinct
    # values, far below one orthant of values; the full product reads every
    # axis, and the orthant's values are then the largest array the scan
    # needs (the stacked int64 mesh and its flipped copies would take several
    # times that)
    box = 32
    orthant_bytes = (box + 1) ** 4 * 8
    bounds = [
        (min_pair_weight(SampleJk(4, (1, 2))), orthant_bytes / 64),
        (product_weight(SampleJk(4, (1, 3))), orthant_bytes / 64),
        (unit_weight(4), orthant_bytes / 64),
        (full_product_weight(4), 4 * orthant_bytes),
    ]
    for w, bound in bounds:
        tracemalloc.start()
        try:
            report = check_weyl_conditions(w, box=box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_passed, w.kind
        assert peak <= bound, (w.kind, peak, orthant_bytes)


def _full_mesh_scan(fn, dim, box):
    # the scan on the broadcast (box + 1)^dim orthant, never cutting an axis:
    # (passed, witness) per positivity, evenness and monotonicity
    shape = (box + 1,) * dim
    axes = np.ix_(*[np.arange(box + 1)] * dim)
    values = np.broadcast_to(fn(*axes), shape)
    pos = None
    if not np.all(values > 0):
        pos = tuple(int(x) for x in np.argwhere(~(values > 0))[0])
    sym = None
    for s in np.ndindex(*(2,) * dim):
        if not any(s):
            continue
        w = np.broadcast_to(fn(*(-a if b else a for a, b in zip(axes, s))), shape)
        if not np.array_equal(w, values):
            first = np.argwhere(w != values)[0]
            sym = tuple(-int(x) if b else int(x) for x, b in zip(first, s))
            break
    mono = None
    for axis in range(dim):
        drops = np.argwhere(np.diff(values, axis=axis) < 0)
        if drops.size:
            first = tuple(int(x) for x in drops[0])
            mono = first[:axis] + (first[axis] + 1,) + first[axis + 1 :]
            break
    return [(pos is None, pos), (sym is None, sym), (mono is None, mono)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scan_witnesses_match_full_mesh(data):
    # a table weight reads a random subset of the axes (none: a scalar), an
    # even nondecreasing table with planted negative entries (on every sign
    # flip of a point), odd spots (one signed point) and drops (on every sign
    # flip); its result is left open on the other axes or materialized on
    # the whole mesh
    dim = data.draw(st.integers(min_value=1, max_value=4), label="dim")
    box = data.draw(st.integers(min_value=1, max_value=5), label="box")
    read = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=dim - 1)), label="read"))
    materialize = data.draw(st.booleans(), label="materialize")
    signed = np.arange(-box, box + 1)
    table = np.ones((2 * box + 1,) * len(read))
    for g in np.meshgrid(*[signed] * len(read), indexing="ij"):
        table += np.abs(g)
    point = st.tuples(*[st.integers(min_value=-box, max_value=box)] * len(read))
    plants = data.draw(
        st.lists(st.tuples(st.sampled_from(["negative", "odd", "drop"]), point), max_size=3),
        label="plants",
    )
    for kind, p in plants:
        if kind == "odd":
            table[tuple(v + box for v in p)] += 0.5
            continue
        for signs in itertools.product((1, -1), repeat=len(p)):
            table[tuple(sign * v + box for sign, v in zip(signs, p))] = (
                -1.0 if kind == "negative" else 0.5
            )

    def fn(*nu):
        out = table[tuple(nu[a] + box for a in read)]
        if materialize:
            out = np.array(np.broadcast_to(out, np.broadcast_shapes(*map(np.shape, nu))))
        return out

    report = check_weyl_conditions(WeylWeight("table", "planted", dim, False, fn), box=box)
    got = [(c.passed, c.witness) for c in (report.positivity, report.symmetry, report.monotonicity)]
    assert got == _full_mesh_scan(fn, dim, box)


def test_unit_weight_evaluates_to_input_shape():
    w = unit_weight(4)
    nu = np.arange(2 * 3 * 5 * 4).reshape(2, 3, 5, 4)
    values = w.evaluate(nu)
    assert values.shape == (2, 3, 5) and np.all(values == 1.0)
    one = w.evaluate((3, -1, 0, 2))
    assert type(one) is float and one == 1.0


def test_product_weight_at_k_equals_n_sweeps_as_ones():
    # with no free axis the product weight is a 0-d one; the sweep gives the
    # same bytes as with a weight whose fn is a full mesh of ones
    sample = SampleJk(3, (1, 2, 3))
    ones = WeylWeight(
        "product", "mesh of ones", 3, True,
        lambda *nu: np.ones(np.broadcast_shapes(*map(np.shape, nu))),
    )
    rng = np.random.default_rng(5)
    s = Spectrum((3, 2, 3), rng.standard_normal((7, 5, 7)) + 1j * rng.standard_normal((7, 5, 7)))
    space = JkIndexSpace(sample, (make_lacunary(2.0, 3),) * 3, ())
    grid = TorusGrid((6, 4, 6))
    got = sweep_space(s, grid, space, [product_weight(sample)])
    want = sweep_space(s, grid, space, [ones])
    assert np.array_equal(got, want)


def _closed_form(kind: str, sample: SampleJk, nu) -> float:
    logs = [math.log(abs(int(v)) + 2) for v in nu]
    if kind == "product":
        return math.prod(logs[p] for p in sample.free_positions)
    if kind == "minpair":
        i, j = sample.free_positions
        return math.log(min(abs(int(nu[i])), abs(int(nu[j]))) + 2) ** 2
    if kind == "full":
        return math.prod(logs)
    return 1.0


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_open_mesh_matches_stacked_and_closed_form(data):
    kind = data.draw(st.sampled_from(WEIGHT_KINDS))
    n = data.draw(st.integers(min_value=2 if kind == "minpair" else 1, max_value=4))
    axes = data.draw(st.permutations(range(1, n + 1)))
    k = n - 2 if kind == "minpair" else data.draw(st.integers(min_value=0, max_value=n))
    sample = SampleJk(n, tuple(sorted(axes[:k])))
    box = data.draw(st.integers(min_value=1, max_value=6))
    w = weight_from_kind(kind, sample)
    ranges = [np.arange(-box, box + 1)] * n
    stacked = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1)
    values = w.evaluate(stacked)
    assert values.shape == stacked.shape[:-1]
    # the stacked entry point is the open-mesh fn, bit for bit
    assert np.array_equal(values, np.broadcast_to(w.fn(*np.ix_(*ranges)), values.shape))
    expected = np.asarray([_closed_form(kind, sample, nu) for nu in stacked.reshape(-1, n)])
    assert np.max(np.abs(values.ravel() - expected) / expected) < 1e-13


def test_nonmonotone_weight_fails_monotonicity():
    table = np.ones((6, 6))
    table[3, 2] = 0.25  # drop along axis 0
    w = WeylWeight(
        "table", "planted", 2, False, lambda *nu: table[np.abs(nu[0]), np.abs(nu[1])]
    )
    report = check_weyl_conditions(w, box=5)
    assert not report.monotonicity
    assert report.monotonicity.witness == (3, 2)


def test_weighted_energy_single_unit_coefficient():
    s = zero_spectrum((2, 2, 2))
    c = s.coeffs.copy()
    c[2, 2, 2] = 1.0
    s = Spectrum((2, 2, 2), c)
    w = product_weight(SampleJk(3, (1,)))
    assert weighted_energy(s, w) == pytest.approx(np.log(2.0) ** 2, abs=1e-12)


def test_weighted_energy_zero_spectrum():
    assert weighted_energy(zero_spectrum((2, 2)), full_product_weight(2)) == 0.0


def test_weighted_energy_unit_weight_is_energy():
    rng = np.random.default_rng(0)
    s = Spectrum((3, 2), rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5)))
    assert weighted_energy(s, unit_weight(2)) == pytest.approx(s.energy(), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_weighted_energy_quadratic_scaling(scale):
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    w = full_product_weight(2)
    base = weighted_energy(Spectrum((2, 2), coeffs), w)
    scaled = weighted_energy(Spectrum((2, 2), scale * coeffs), w)
    assert scaled == pytest.approx(scale**2 * base, rel=1e-10)


def test_weighted_energy_additive_over_block_split():
    rng = np.random.default_rng(2)
    s = Spectrum((8, 2), rng.standard_normal((17, 5)) + 1j * rng.standard_normal((17, 5)))
    g1, g2 = split_lacunary_blocks(s, 1, make_lacunary(2.0, 4))
    w = full_product_weight(2)
    assert weighted_energy(g1, w) + weighted_energy(g2, w) == pytest.approx(
        weighted_energy(s, w), rel=1e-12
    )


def test_weight_dimension_mismatch():
    w = product_weight(SampleJk(3, (1,)))
    with pytest.raises(LacsumError):
        w.evaluate((1, 2))
