"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The heavyweight suites (criteria 7, 8, 9) run at their pinned
sizes: 20 trials each, free caps doubling 8 -> 16 -> 32 for the maximal
sweeps and minimum levels 4/8/16 for the convergence surrogate.
"""

import time

import numpy as np
import pytest

from lacsum import (
    SampleJk,
    Spectrum,
    TorusGrid,
    abel_identity_check,
    analyze,
    check_weyl_conditions,
    full_product_weight,
    grid_l2,
    make_lacunary_covering,
    min_pair_weight,
    product_weight,
    split_lacunary_blocks,
    synthesize,
    weak_type_table,
)
from lacsum import JkIndexSpace, ShellTensor, make_lacunary, partial_sum
from lacsum.spectral import _axis_matrix
from lacsum.serialize import dumps
from lacsum.suites import (
    ExperimentConfig,
    run_convergence_suite,
    run_identity_suite,
    run_maximal_suite,
)
from spectra import single_mode_spectrum

SEED = 20260809


def _line(num: int, detail: str) -> None:
    print(f"\n[acceptance] criterion {num}: PASS  ({detail})")


def _fail(num: int) -> None:
    print(f"\n[acceptance] criterion {num}: FAIL")


def test_criterion_1_abel_identity():
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng([SEED, 1])
        worst = 0.0
        for _ in range(100):
            nu = int(rng.integers(1, 4))
            n = tuple(int(v) for v in rng.integers(2, 7, size=nu))
            a = rng.standard_normal(tuple(v + 1 for v in n))
            b = rng.uniform(0.05, 2.0, size=max(n) + 1)
            worst = max(worst, abel_identity_check(a, b, n).difference)
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-10
        assert elapsed < 10.0
    except BaseException:
        _fail(1)
        raise
    _line(1, f"max |lhs-rhs| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_partial_sum_engines_agree():
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng([SEED, 2])
        grid = TorusGrid((8, 8, 8))
        mats = [_axis_matrix(4, grid.axis_coords(p)) for p in range(3)]
        worst = 0.0
        for _ in range(10):
            coeffs = rng.standard_normal((9, 9, 9)) + 1j * rng.standard_normal((9, 9, 9))
            s = Spectrum((4, 4, 4), coeffs)
            tensor = ShellTensor.from_grid(s, grid)
            for n in np.ndindex(5, 5, 5):
                masked = np.zeros((9, 9, 9), dtype=complex)
                sl = tuple(slice(4 - v, 4 + v + 1) for v in n)
                masked[sl] = coeffs[sl]
                direct = np.einsum("abc,xa,yb,zc->xyz", masked, *mats)
                worst = max(worst, float(np.max(np.abs(tensor.query(n) - direct))))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-10
        assert elapsed < 30.0
    except BaseException:
        _fail(2)
        raise
    _line(2, f"max deviation = {worst:.2e} over 10 x 5^3 boxes, {elapsed:.2f}s")


def test_criterion_3_roundtrip_and_parseval():
    try:
        rng = np.random.default_rng([SEED, 3])
        worst_rt, worst_pv = 0.0, 0.0
        for bw, res in (((15,), (32,)), ((7, 7), (32, 32)), ((7, 7, 7), (32, 32, 32))):
            shape = tuple(2 * b + 1 for b in bw)
            s = Spectrum(bw, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            grid = TorusGrid(res)
            f = synthesize(s, grid)
            back = analyze(f, bw)
            worst_rt = max(worst_rt, float(np.max(np.abs(back.coeffs - s.coeffs))))
            worst_pv = max(worst_pv, abs(grid_l2(f) ** 2 - s.energy()))
        assert worst_rt <= 1e-10
        assert worst_pv <= 1e-10
    except BaseException:
        _fail(3)
        raise
    _line(3, f"roundtrip {worst_rt:.2e}, Parseval {worst_pv:.2e}")


def test_criterion_4_weyl_conditions_exhaustive():
    try:
        t0 = time.perf_counter()
        checks = [
            product_weight(SampleJk(3, (1,))),
            product_weight(SampleJk(4, (1, 3))),
            min_pair_weight(SampleJk(3, (2,))),
            min_pair_weight(SampleJk(4, (1, 2))),
            full_product_weight(3),
            full_product_weight(4),
        ]
        for w in checks:
            report = check_weyl_conditions(w, box=64)
            assert report.all_passed, (w.kind, report)
        elapsed = time.perf_counter() - t0
    except BaseException:
        _fail(4)
        raise
    _line(4, f"{len(checks)} weights on |nu| <= 64, N in {{3,4}}, {elapsed:.1f}s")


def test_criterion_5_block_split_partition():
    try:
        rng = np.random.default_rng([SEED, 5])
        for q in (1.5, 2.0, 3.0):
            for bw in ((64,), (64, 2)):
                shape = tuple(2 * b + 1 for b in bw)
                s = Spectrum(bw, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                fam = make_lacunary_covering(q, 64)
                g1, g2 = split_lacunary_blocks(s, 1, fam)
                assert np.max(np.abs(g1.coeffs + g2.coeffs - s.coeffs)) == 0.0
                assert np.max(np.abs(g1.coeffs) * np.abs(g2.coeffs)) == 0.0
    except BaseException:
        _fail(5)
        raise
    _line(5, "exact partition for q in {1.5, 2, 3}, bandwidth 64")


def test_criterion_6_telescoping_and_reassembly():
    try:
        cfg = ExperimentConfig(
            seed=SEED,
            abel_trials=0,
            telescope_cases=50,
            decompose_cases=50,
            shell_spectra=0,
            block_ratios=(),
            vanishing_box=64,
        )
        rep = run_identity_suite(cfg)
        tel = rep.results["checks"]["telescope"]["max_deviation"]
        dec = rep.results["checks"]["decompose"]["max_deviation"]
        van = rep.results["checks"]["offdiagonal_vanishing"]["max_deviation"]
        assert tel <= 1e-10
        assert dec <= 1e-10
        assert van == 0.0
    except BaseException:
        _fail(6)
        raise
    _line(6, f"telescope {tel:.2e}, reassembly {dec:.2e}, vanishing {van:.1e}")


def test_criterion_7_convergence_within_tail():
    try:
        t0 = time.perf_counter()
        rep = run_convergence_suite(
            ExperimentConfig(suite="convergence", seed=SEED, trials=20)
        )
        elapsed = time.perf_counter() - t0
        assert rep.passed
        for row in rep.rows:
            assert row["within_tail"] and row["nonincreasing"]
        assert elapsed < 120.0
    except BaseException:
        _fail(7)
        raise
    _line(
        7,
        f"20 trials, levels {rep.summary['levels']}, "
        f"worst margin {rep.summary['worst_margin']:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def maximal_suite_report():
    t0 = time.perf_counter()
    rep = run_maximal_suite(ExperimentConfig(suite="maximal", seed=SEED, trials=20))
    rep.summary["elapsed"] = time.perf_counter() - t0
    return rep


def test_criterion_8_maximal_stabilization(maximal_suite_report):
    rep = maximal_suite_report
    try:
        assert rep.summary["monotone_all"]
        assert all(row["monotone"] for row in rep.rows)
        med = rep.summary["median_stabilization_quotient"]
        assert med is not None and med <= 1.10
    except BaseException:
        _fail(8)
        raise
    _line(
        8,
        f"median quotient {med:.4f} <= 1.10, exact monotonicity, "
        f"caps 8->16->32, {rep.summary['elapsed']:.1f}s",
    )


def test_criterion_9_weak_type_tables(maximal_suite_report):
    rep = maximal_suite_report
    try:
        wt = [row["weak_type_max"] for row in rep.rows]
        assert all(np.isfinite(v) for v in wt)
        med = rep.summary["median_weak_type_quotient"]
        assert med is not None and med <= 1.10

        # single-mode closed form: M == 1 where the mode is included, so
        # alpha^2 mu / sigma = alpha^2 (2 pi)^3 / (log 4 log 5) below 1
        sample = SampleJk(3, (1,))
        space = JkIndexSpace(sample, (make_lacunary(2.0, 3),), (4, 4))
        s = single_mode_spectrum((4, 4, 4), (1, 2, 3))
        alphas = [0.25, 0.5, 0.9, 1.5]
        table = weak_type_table(
            s, space, product_weight(sample), TorusGrid((16, 16, 16)), alphas=alphas
        )
        expected = max(
            a**2 * (2 * np.pi) ** 3 / (np.log(4.0) * np.log(5.0))
            for a in alphas
            if a < 1.0
        )
        closed_err = abs(table.max_ratio - expected)
        assert closed_err <= 1e-10
    except BaseException:
        _fail(9)
        raise
    _line(9, f"median weak-type quotient {med:.4f} <= 1.10, closed form err {closed_err:.1e}")


def test_criterion_10_byte_identical_reports():
    try:
        idcfg = ExperimentConfig(
            seed=SEED,
            abel_trials=10,
            telescope_cases=5,
            decompose_cases=5,
            shell_spectra=2,
            vanishing_box=16,
        )
        a = dumps(run_identity_suite(idcfg).to_dict())
        b = dumps(run_identity_suite(idcfg).to_dict())
        assert a == b
        mxcfg = ExperimentConfig(
            suite="maximal",
            seed=SEED,
            trials=2,
            bandwidth=(4, 6, 6),
            grid=(16, 24, 24),
            cap_schedule=(3, 5, 6),
            lambda_count=3,
        )
        c = dumps(run_maximal_suite(mxcfg).to_dict())
        d = dumps(run_maximal_suite(mxcfg).to_dict())
        assert c == d
        cvcfg = ExperimentConfig(
            suite="convergence",
            seed=SEED,
            trials=1,
            bandwidth=(4, 5, 5),
            grid=(16, 20, 20),
            levels=(2, 4),
            lambda_count=3,
            free_cap=5,
            beta=3.0,
        )
        e = dumps(run_convergence_suite(cvcfg).to_dict())
        f = dumps(run_convergence_suite(cvcfg).to_dict())
        assert e == f
    except BaseException:
        _fail(10)
        raise
    _line(10, "identity, maximal and convergence reports byte-identical across reruns")
