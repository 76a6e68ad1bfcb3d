import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacsum import (
    JkIndexSpace,
    LacsumError,
    LacunaryFamily,
    SampleJk,
    enumerate_jk_indices,
    make_lacunary,
    make_lacunary_covering,
)


def test_make_lacunary_doubling():
    assert make_lacunary(2.0, 4).terms == (1, 2, 4, 8)


def test_make_lacunary_ceil_chain():
    fam = make_lacunary(1.5, 4)
    assert fam.terms == (1, 2, 3, 5)
    assert all(b / a >= 1.5 for a, b in zip(fam.terms, fam.terms[1:]))


def test_make_lacunary_single_term():
    assert make_lacunary(3.0, 1).terms == (1,)


def test_make_lacunary_bad_ratio():
    with pytest.raises(LacsumError):
        make_lacunary(1.0, 3)
    with pytest.raises(LacsumError):
        make_lacunary(0.5, 3)
    for q in (float("nan"), float("inf")):
        with pytest.raises(LacsumError, match="finite"):
            make_lacunary(q, 3)
        with pytest.raises(LacsumError, match="finite"):
            LacunaryFamily(q=q, terms=(1,))


def test_validate_examples():
    assert LacunaryFamily(q=2.0, terms=(1, 2, 4, 8)).terms == (1, 2, 4, 8)
    with pytest.raises(LacsumError, match="ratio 3/2 below q=2.0 at index 2$"):
        LacunaryFamily(q=2.0, terms=(1, 2, 3))
    with pytest.raises(LacsumError, match="first term must be 1, got 2$"):
        LacunaryFamily(q=2.0, terms=(2, 4, 8))


def test_validate_rejects_nonincreasing():
    with pytest.raises(LacsumError, match="strictly increasing integers, got 3 at 2$"):
        LacunaryFamily(q=1.5, terms=(1, 3, 3))
    with pytest.raises(LacsumError, match="sequence is empty$"):
        LacunaryFamily(q=2.0, terms=())


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(min_value=1.01, max_value=4.0, allow_nan=False),
    count=st.integers(min_value=1, max_value=12),
)
def test_generated_families_always_validate(q, count):
    fam = make_lacunary(q, count)
    assert len(fam.terms) == count
    assert LacunaryFamily(q=q, terms=fam.terms) == fam


def test_covering_reaches_bound():
    fam = make_lacunary_covering(1.5, 64)
    assert fam.terms[-1] >= 64


@pytest.mark.parametrize("q, bound", [(1.5, 1), (1.5, 64), (2.0, 8), (2.0, 9), (1.01, 300), (7.0, 10**6)])
def test_covering_is_the_shortest_family_reaching_the_bound(q, bound):
    fam = make_lacunary_covering(q, bound)
    assert fam == make_lacunary(q, len(fam))
    assert fam.terms[-1] >= bound and (len(fam) == 1 or fam.terms[-2] < bound)


def test_make_lacunary_count_bound():
    assert len(make_lacunary(1.001, 4096)) == 4096
    for count in (0, 4097, 10**12):
        with pytest.raises(LacsumError, match="count must be in 1..4096"):
            make_lacunary(2.0, count)


def test_family_rejects_invalid_terms():
    with pytest.raises(LacsumError):
        LacunaryFamily(q=2.0, terms=(1, 2, 3))
    with pytest.raises(LacsumError):
        LacunaryFamily(q=2.0, terms=())
    # a fractional term is rejected, not truncated; an integral float is kept
    with pytest.raises(LacsumError, match=r"terms must be integers, got \(1, 2.9, 5.5\)$"):
        LacunaryFamily(q=2.0, terms=(1, 2.9, 5.5))
    assert LacunaryFamily(q=2.0, terms=(1, 2.0, 4.0)).terms == (1, 2, 4)


def test_sample_axis_split():
    s = SampleJk(4, (2, 4))
    assert s.free_axes == (1, 3)
    assert s.lacunary_positions == (1, 3)
    assert s.free_positions == (0, 2)
    assert s.k == 2


def test_sample_validation():
    with pytest.raises(LacsumError):
        SampleJk(3, (0,))
    with pytest.raises(LacsumError):
        SampleJk(3, (2, 2))
    with pytest.raises(LacsumError):
        SampleJk(3, (3, 1))


def test_enumeration_order_and_count():
    space = JkIndexSpace(SampleJk(3, (1,)), (LacunaryFamily(2.0, (1, 2)),), (1, 1))
    got = list(enumerate_jk_indices(space))
    assert got[:4] == [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    assert got[4] == (2, 0, 0)
    assert len(got) == 8 == space.count


def test_enumeration_caps_zero():
    space = JkIndexSpace(
        SampleJk(2, (1,)), (LacunaryFamily(3.0, (1,)),), (0,)
    )
    assert list(enumerate_jk_indices(space)) == [(1, 0)]


def test_enumeration_two_lacunary_axes():
    fam = LacunaryFamily(2.0, (1, 2, 4))
    space = JkIndexSpace(SampleJk(3, (2, 3)), (fam, fam), (1,))
    got = list(enumerate_jk_indices(space))
    assert len(got) == 18 == space.count
    # lacunary components (axes 2, 3) slowest, the free axis 1 fastest
    assert got == sorted(got, key=lambda idx: (idx[1], idx[2], idx[0]))
    assert got[:3] == [(0, 1, 1), (1, 1, 1), (0, 1, 2)]


def _is_member(space, index):
    """The space's definition: each lacunary component is one of its
    family's terms, each free component lies in ``0..cap``."""
    lacunary = all(
        index[p] in fam.terms for p, fam in zip(space.sample.lacunary_positions, space.families)
    )
    free = all(
        0 <= index[p] <= cap for p, cap in zip(space.sample.free_positions, space.free_caps)
    )
    return lacunary and free


def test_every_index_is_member():
    fam = make_lacunary(1.5, 3)
    space = JkIndexSpace(SampleJk(3, (1, 3)), (fam, fam), (2,))
    got = list(enumerate_jk_indices(space))
    assert all(_is_member(space, idx) for idx in got)
    assert not _is_member(space, (7, 0, 1))
    assert not _is_member(space, (1, 3, 1))
    # and every member of a box around the space is enumerated, once
    box = [idx for idx in np.ndindex(7, 7, 7) if _is_member(space, idx)]
    assert sorted(got) == box


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2),
    caps=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=2),
)
def test_count_matches_product(counts, caps):
    n = len(counts) + len(caps)
    sample = SampleJk(n, tuple(range(1, len(counts) + 1)))
    fams = tuple(make_lacunary(2.0, c) for c in counts)
    space = JkIndexSpace(sample, fams, tuple(caps))
    expected = int(np.prod([len(f) for f in fams]) * np.prod([c + 1 for c in caps]))
    assert space.count == expected
    assert len(list(enumerate_jk_indices(space))) == expected


def test_space_validation_errors():
    fam = make_lacunary(2.0, 2)
    with pytest.raises(LacsumError):
        JkIndexSpace(SampleJk(3, (1,)), (fam, fam), (1, 1))
    with pytest.raises(LacsumError):
        JkIndexSpace(SampleJk(3, (1,)), (fam,), (1,))
    with pytest.raises(LacsumError):
        JkIndexSpace(SampleJk(3, (1,)), (fam,), (1, -1))
