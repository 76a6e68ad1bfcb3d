import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lacsum.decomp
import lacsum.spectral
from lacsum import (
    LacsumError,
    SampleJk,
    ShellTensor,
    Spectrum,
    TorusGrid,
    apply_pair_weight,
    coefficient_transfer,
    decompose_free_pair,
    min_log_inverse,
    min_pair_weight,
    weighted_energy,
)
from spectra import single_mode_spectrum, zero_spectrum

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
    assert g1.coeffs[3, 2, 2] == pytest.approx(np.log(2.0), abs=1e-14)  # nu = (1, 0, 0)


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



@pytest.mark.parametrize(
    "engine, index, free_axes, expected",
    [
        # box (3, 4, 2), n0 = 2: one shell on axis 1, the cut and the box on 2, 3
        ("closed", (6, 4, 2), (2, 3), [[3], [0, 1, 4], [0, 1, 2]]),
        # box (3, 2, 3), n0 = 3: the cut reaches the box on both free axes
        ("closed", (5, 2, 3), (1, 3), [[0, 1, 2, 3], [2], [0, 1, 2, 3]]),
        ("closed", (2, 0, 4), (2, 3), [[2], [0], [4]]),
        ("bilinear", (6, 4, 2), (2, 3), [[3], [0, 1, 2, 3, 4], [0, 1, 2]]),
    ],
)
def test_decomposition_builds_only_the_shells_it_looks_up(monkeypatch, engine, index, free_axes, expected):
    # every partial sum a term reads keeps the non-free axis at its box
    # value, so the tensor holds one shell there
    asked = []
    build = ShellTensor.__dict__["from_grid"].__func__

    def spy(cls, spectrum, grid, shells=None):
        asked.append([list(s) for s in shells])
        return build(cls, spectrum, grid, shells)

    monkeypatch.setattr(ShellTensor, "from_grid", classmethod(spy))
    g = random_spectrum(np.random.default_rng(8), (3, 4, 5))
    res = decompose_free_pair(g, index, free_axes, GRID, engine=engine)
    assert asked == [expected]
    assert res.max_error < 1e-10

def test_decompose_dimension_guard():
    with pytest.raises(LacsumError):
        decompose_free_pair(zero_spectrum((3, 3)), (1, 1), (1, 2), TorusGrid((8, 8)))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_inner_box_tensor_is_bit_identical(data, seed):
    # decompose_free_pair builds its shell tensor from the clamped index box
    # only; every lookup at or below the index must match the full tensor's
    dim = data.draw(st.integers(1, 3))
    bw = data.draw(st.tuples(*[st.integers(0, 3)] * dim))
    idx = data.draw(st.tuples(*[st.integers(0, 5)] * dim))  # zeros and past-bandwidth
    grid = TorusGrid(data.draw(st.tuples(*[st.sampled_from([2, 4, 6, 8])] * dim)))
    g = random_spectrum(np.random.default_rng(seed), bw)
    box = tuple(min(v, b) for v, b in zip(idx, bw))
    central = tuple(slice(b - v, b + v + 1) for v, b in zip(box, bw))
    inner = ShellTensor.from_grid(Spectrum(box, g.coeffs[central]), grid)
    full = ShellTensor.from_grid(g, grid)
    below = list(np.ndindex(*(v + 1 for v in idx)))
    for m in below:
        assert inner.query(m).tobytes() == full.query(m).tobytes(), (bw, idx, m)
    assert inner.partial_sums(below).tobytes() == full.partial_sums(below).tobytes()


@pytest.mark.parametrize("engine", ["closed", "bilinear"])
def test_decompose_fft_fallback(monkeypatch, engine):
    # a shell tensor over the byte budget falls back to one FFT partial sum
    # per lookup, with the same terms up to rounding
    rng = np.random.default_rng(6)
    g = random_spectrum(rng, (3, 4, 4))
    index = (2, 4, 3)
    tensor = decompose_free_pair(g, index, (2, 3), GRID, engine=engine)
    monkeypatch.setattr(lacsum.spectral, "_SHELL_BYTES", 0)
    lookup_many, _ = lacsum.decomp._sum_engine(g, GRID)
    assert not isinstance(getattr(lookup_many, "__self__", None), ShellTensor)
    fft = decompose_free_pair(g, index, (2, 3), GRID, engine=engine)
    assert fft.max_error < 1e-10
    for a, b in zip(fft.terms, tensor.terms):
        assert np.max(np.abs(a - b)) < 1e-12
