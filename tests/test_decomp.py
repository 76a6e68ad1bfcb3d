import numpy as np
import pytest

from lacsum import (
    LacsumError,
    SampleJk,
    Spectrum,
    TorusGrid,
    apply_pair_weight,
    coefficient_transfer,
    decompose_free_pair,
    min_log_inverse,
    min_pair_weight,
    single_mode_spectrum,
    weighted_energy,
    zero_spectrum,
)

GRID = TorusGrid((16, 16, 16))


def random_spectrum(rng, bandwidth):
    shape = tuple(2 * b + 1 for b in bandwidth)
    return Spectrum(bandwidth, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_weight_values():
    assert min_log_inverse(0, 0) == pytest.approx(1.0 / np.log(2.0), abs=1e-12)
    assert min_log_inverse(5, 100) == min_log_inverse(5, 7) == pytest.approx(1.0 / np.log(7.0))
    assert min_log_inverse(3, -9) == min_log_inverse(-9, 3)


def test_mixed_difference_vanishes_off_diagonal():
    t = np.arange(66)
    w = min_log_inverse(t[:, None], t[None, :])
    mixed = w[:-1, :-1] - w[1:, :-1] - w[:-1, 1:] + w[1:, 1:]
    off = np.abs(mixed.copy())
    np.fill_diagonal(off, 0.0)
    assert off.max() == 0.0
    # and the diagonal is a genuine drop
    diag = np.diag(mixed)
    assert np.all(diag < 0.0)


def test_transfer_round_trip_and_single_coefficient():
    rng = np.random.default_rng(0)
    s = random_spectrum(rng, (2, 3, 3))
    g = coefficient_transfer(s, (2, 3))
    back = apply_pair_weight(g, (2, 3))
    assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-14

    one = single_mode_spectrum((2, 2, 2), (1, 0, 0))
    g1 = coefficient_transfer(one, (2, 3))
    assert g1.coefficient((1, 0, 0)) == pytest.approx(np.log(2.0), abs=1e-14)


def test_transfer_energy_matches_pair_weighted_energy():
    rng = np.random.default_rng(1)
    s = random_spectrum(rng, (2, 3, 3))
    g = coefficient_transfer(s, (2, 3))
    sigma0 = weighted_energy(s, min_pair_weight(SampleJk(3, (1,))))
    assert g.energy() == pytest.approx(sigma0, rel=1e-12)


def test_decompose_zero_spectrum():
    res = decompose_free_pair(zero_spectrum((3, 3, 3)), (2, 3, 1), (2, 3), GRID)
    for term in res.terms:
        assert np.max(np.abs(term)) == 0.0
    assert res.max_error == 0.0


def test_decompose_zero_free_components():
    rng = np.random.default_rng(2)
    g = random_spectrum(rng, (3, 3, 3))
    res = decompose_free_pair(g, (2, 0, 0), (2, 3), GRID)
    for term in res.terms[:3]:
        assert np.max(np.abs(term)) == 0.0
    # the boundary term alone reproduces the reference partial sum
    assert np.max(np.abs(res.terms[3] - res.reference)) < 1e-12
    assert res.max_error < 1e-12


def test_decompose_reassembles_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        bw = tuple(int(v) for v in rng.integers(2, 6, size=3))
        g = random_spectrum(rng, bw)
        index = (4, 5, 3)
        res = decompose_free_pair(g, index, (2, 3), GRID)
        assert res.max_error < 1e-10


def test_decompose_engines_agree_termwise():
    rng = np.random.default_rng(4)
    g = random_spectrum(rng, (3, 4, 4))
    closed = decompose_free_pair(g, (2, 4, 3), (2, 3), GRID, engine="closed")
    raw = decompose_free_pair(g, (2, 4, 3), (2, 3), GRID, engine="bilinear")
    for a, b in zip(closed.terms, raw.terms):
        assert np.max(np.abs(a - b)) < 1e-12
    assert raw.max_error < 1e-10


def test_decompose_general_free_pair_position():
    rng = np.random.default_rng(5)
    g = random_spectrum(rng, (3, 3, 3))
    res = decompose_free_pair(g, (2, 3, 1), (1, 3), GRID)
    assert res.max_error < 1e-10


def test_decompose_dimension_guard():
    with pytest.raises(LacsumError):
        decompose_free_pair(zero_spectrum((3, 3)), (1, 1), (1, 2), TorusGrid((8, 8)))

