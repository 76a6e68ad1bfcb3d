import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsum import (
    JkIndexSpace,
    LacsumError,
    SampleJk,
    Spectrum,
    abel_identity_check,
    difference,
    dyadic_square_anchor,
    make_lacunary,
    make_lacunary_covering,
    restrict,
    telescope_split,
)
from lacsum.seqcalc import _scaled_pass


def test_difference_constant_and_affine():
    const = np.full(6, 2.5)
    assert difference(const, 1, 2) == 0.0
    assert difference(const, 2, 1) == 0.0
    affine = np.asarray([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
    assert difference(affine, 1, 1) == 1.0
    assert difference(affine, 2, 0) == 0.0


def test_difference_quadratic():
    b = np.asarray([(j - 3.0) ** 2 for j in range(7)])
    for j in range(5):
        assert difference(b, 2, j) == pytest.approx(2.0)


def test_difference_even_extension():
    b = np.asarray([3.0, 2.0, 1.5, 1.0])
    assert difference(b, 0, -2) == 1.5
    assert difference(b, 1, -1) == b[1] - b[0]


def test_difference_range_errors():
    b = np.asarray([1.0, 0.5, 0.25])
    with pytest.raises(LacsumError):
        difference(b, 2, 1)
    with pytest.raises(LacsumError):
        difference(b, 3, 0)


# ---------------------------------------------------------------------------
# iterated prefix sums (the unnormalized form the Abel identity sums)


def test_single_sum_regime():
    a = np.asarray([1.0, 1.0, 1.0])
    b = np.asarray([1.0, 0.9, 0.8, 0.7, 0.6])
    assert _scaled_pass(a, 0, 2, b) == pytest.approx(3.0)


def test_double_sum_regime():
    a = np.asarray([1.0, 1.0, 1.0])
    b = np.asarray([1.0, 0.9, 0.8, 0.7, 0.6])
    assert _scaled_pass(a, 1, 2, b) == pytest.approx(6.0)


def test_weighted_regime_matches_nested_loops():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(6)
    b = np.asarray([(j - 8.0) ** 2 / 10 + 0.5 for j in range(9)])
    kappa = 4
    got = _scaled_pass(a, 2, kappa, b)
    d2 = lambda j: b[j] - 2 * b[j + 1] + b[j + 2]
    total = 0.0
    for alpha in range(kappa + 1):
        inner = 0.0
        for t in range(alpha + 1):
            for i in range(t + 1):
                inner += a[i]
        total += d2(alpha) * inner
    assert got == pytest.approx(total, rel=1e-12)


def test_regime_order_independence():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 6))
    b = rng.uniform(0.2, 1.5, 8)
    # axis 0 then axis 1, against axis 1 then axis 0
    v1 = _scaled_pass(_scaled_pass(a, 1, 3, b), 2, 4, b)
    v2 = _scaled_pass(_scaled_pass(a.T, 2, 4, b), 1, 3, b)
    assert v1 == pytest.approx(v2, rel=1e-12)


# ---------------------------------------------------------------------------
# double-Abel identity


def test_abel_constant_weight_collapses():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 5))
    b = np.full(8, 1.3)
    chk = abel_identity_check(a, b, (3, 4))
    assert chk.difference < 1e-12
    assert chk.lhs == pytest.approx(1.3**2 * a.sum(), rel=1e-12)


def test_abel_reciprocal_weight_1d():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(5)
    b = 1.0 / (np.arange(8) + 1.0)
    assert abel_identity_check(a, b, (4,)).difference < 1e-12


def test_abel_three_dimensional():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 5, 4))
    # the paper's shape b_j = (log(j+2) p_j)^(-1/2), with a slowly growing p
    b = 1.0 / np.sqrt(np.log(np.arange(12) + 2.0) * np.linspace(1.0, 2.0, 12))
    assert abel_identity_check(a, b, (3, 4, 3)).difference < 1e-10


def test_abel_affine_weight_no_division():
    # vanishing second differences stay harmless: nothing divides
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5))
    b = np.linspace(3.0, 1.0, 9)
    assert abel_identity_check(a, b, (4, 4)).difference < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_abel_identity_property_1d(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n + 1)
    b = rng.uniform(0.05, 3.0, n + 1)
    assert abel_identity_check(a, b, (n,)).difference < 1e-10


def _abel_rhs_per_vector(a, b, n):
    """The identity's right side one regime vector at a time, every pass over
    the whole array (the order of operations the shared walk must keep)."""
    import itertools

    rhs = scale = 0.0
    for regs in itertools.product((0, 1, 2), repeat=a.ndim):
        coef = 1.0
        for r, k in zip(regs, n):
            if r == 0:
                coef *= difference(b, 0, k)
            elif r == 1:
                coef *= difference(b, 1, k - 1)
        arr = a
        for axis, (r, k) in enumerate(zip(regs, n)):
            arr = np.cumsum(arr, axis=axis)
            if r >= 1:
                arr = np.cumsum(arr, axis=axis)
            if r == 2:
                d2 = np.zeros(arr.shape[axis])
                d2[: k - 1] = [b[j] - 2 * b[j + 1] + b[j + 2] for j in range(k - 1)]
                shape = [1] * arr.ndim
                shape[axis] = -1
                arr = np.cumsum(arr * d2.reshape(shape), axis=axis)
        term = coef * float(arr[tuple(k - r for k, r in zip(n, regs))])
        rhs, scale = rhs + term, scale + abs(term)
    return rhs, scale


@settings(max_examples=40, deadline=None)
@given(order=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_abel_shared_passes_keep_the_bits(order, seed):
    rng = np.random.default_rng(seed)
    n = tuple(int(v) for v in rng.integers(2, 5, size=order))
    a = rng.standard_normal(tuple(v + 1 + int(rng.integers(0, 2)) for v in n))
    b = rng.uniform(0.1, 2.0, size=max(n) + 1 + int(rng.integers(0, 3)))
    chk = abel_identity_check(a, b, n)
    assert (chk.rhs, chk.scale) == _abel_rhs_per_vector(a, b, n)


@pytest.mark.parametrize("n", [(100, 100), (300, 300), (60, 60, 60)])
def test_abel_integer_data_sums_exactly(n):
    # integer data: every float64 sum on either side is exact, so the sides
    # agree to the bit, while standard-normal data at these sizes leaves
    # rounding far above an absolute 1e-10
    rng = np.random.default_rng(8)
    a = rng.integers(-9, 10, size=tuple(k + 1 for k in n)).astype(float)
    b = rng.integers(1, 5, size=max(n) + 1).astype(float)
    chk = abel_identity_check(a, b, n)
    assert chk.difference == 0.0 and chk.scale > 0.0


def test_abel_high_order_runs_in_well_under_a_second():
    # 3^8 regime vectors over 3^8 cells: about 8 s when each vector redid
    # every pass, about 0.1 s when vectors share their leading passes
    import time

    rng = np.random.default_rng(6)
    a = rng.standard_normal((3,) * 8)
    start = time.process_time()
    assert abel_identity_check(a, rng.uniform(0.1, 2.0, 3), (2,) * 8).difference < 1e-10
    assert time.process_time() - start < 2.0


def test_abel_requires_n_at_least_two():
    with pytest.raises(LacsumError):
        abel_identity_check(np.ones(3), np.ones(4), (1,))


# ---------------------------------------------------------------------------
# dyadic-square telescoping


def test_dyadic_anchor_examples():
    assert dyadic_square_anchor(16) == (2, 16)
    assert dyadic_square_anchor(100) == (2, 16)
    assert dyadic_square_anchor(1) == (0, 1)
    m, alpha = dyadic_square_anchor(512)
    assert alpha <= 512 < 2 ** ((m + 1) ** 2)


def test_telescope_zero_term_at_anchor():
    rng = np.random.default_rng(6)
    bw = (5, 5, 5)
    s = Spectrum(bw, rng.standard_normal((11,) * 3) + 1j * rng.standard_normal((11,) * 3))
    space = JkIndexSpace(SampleJk(3, (3,)), (make_lacunary(2.0, 3),), (20, 20))
    split = telescope_split(s, space, (16, 7, 4))
    assert split.anchors == (16,)
    assert np.max(np.abs(split.terms[0].coeffs)) == 0.0


def test_telescope_reassembles_exactly():
    rng = np.random.default_rng(7)
    bw = (4, 6, 5)
    s = Spectrum(
        bw,
        rng.standard_normal(tuple(2 * b + 1 for b in bw))
        + 1j * rng.standard_normal(tuple(2 * b + 1 for b in bw)),
    )
    fam = make_lacunary_covering(2.0, 5)
    space = JkIndexSpace(SampleJk(3, (3,)), (fam,), (9, 9))
    for index in [(3, 6, 4), (9, 1, 2), (1, 1, 1), (7, 5, 4)]:
        split = telescope_split(s, space, index)
        assert np.max(np.abs(split.reassembled() - restrict(s, index).coeffs)) == 0.0


def test_telescope_supports_disjoint():
    rng = np.random.default_rng(8)
    bw = (5, 5, 5)
    s = Spectrum(bw, np.ones((11, 11, 11), dtype=complex))
    space = JkIndexSpace(SampleJk(3, (1,)), (make_lacunary(2.0, 3),), (9, 9))
    split = telescope_split(s, space, (4, 5, 3))
    pieces = [t.coeffs for t in split.terms] + [split.remainder.coeffs]
    occupancy = sum((np.abs(p) > 0).astype(int) for p in pieces)
    assert occupancy.max() <= 1


def test_telescope_single_free_axis_is_remainder_only():
    rng = np.random.default_rng(9)
    bw = (4, 4, 4)
    s = Spectrum(bw, rng.standard_normal((9,) * 3) + 1j * rng.standard_normal((9,) * 3))
    fam = make_lacunary(2.0, 3)
    space = JkIndexSpace(SampleJk(3, (1, 2)), (fam, fam), (9,))
    split = telescope_split(s, space, (2, 4, 7))
    assert split.terms == ()
    assert np.max(np.abs(split.remainder.coeffs - restrict(s, (2, 4, 7)).coeffs)) == 0.0


def test_telescope_requires_positive_components():
    s = Spectrum((2, 2, 2), np.zeros((5, 5, 5), dtype=complex))
    space = JkIndexSpace(SampleJk(3, (3,)), (make_lacunary(2.0, 2),), (4, 4))
    with pytest.raises(LacsumError):
        telescope_split(s, space, (0, 3, 1))
