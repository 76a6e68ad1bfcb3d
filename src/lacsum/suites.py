"""Experiment driver: test-function generation and the three suites.

Every suite consumes an ``ExperimentConfig``, draws per-trial RNG streams
from ``(seed, trial)`` so concurrency or reordering can never change
results, and produces a ``Report`` whose JSON form is byte-identical across
runs with the same config and seed (no timestamps, sorted keys, fixed
schema tag).

Suites:

* identity: exact-identity checks (double-Abel, telescoping reassembly,
  four-term decomposition, shell prefix vs direct summation, block-split
  partition, off-diagonal vanishing) with their maximal deviations;
* convergence: sup-grid error of lacunary partial sums at increasing
  minimum index levels against the coefficient-tail bound, which dominates
  the error by the triangle inequality alone;
* maximal: weighted maximal ratios under a doubling free-cap schedule, the
  stabilization quotient between the top two cap levels, and weak-type
  level tables.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .errors import LacsumError
from .lattice import JkIndexSpace, SampleJk, make_lacunary, make_lacunary_covering
from .maximal import _squared_modulus, level_set_measure, sweep_space
from .seqcalc import abel_identity_check, telescope_split
from .decomp import decompose_free_pair, min_log_inverse
from .spectral import (
    _MAX_AXES,
    _ARRAY_BYTES,
    ShellTensor,
    Spectrum,
    TorusGrid,
    grid_l2,
    iter_prefix_slabs,
    plan_prefix_blocks,
    restrict,
    split_lacunary_blocks,
    synthesize,
)
from .weyl import min_pair_weight, product_weight, unit_weight, weight_from_kind, weighted_energy

SCHEMA_VERSION = "1"
FAMILIES = ("single_mode", "random_decay", "product_1d", "weyl_borderline")


def _tupled(value, n: int) -> tuple[int, ...]:
    if np.isscalar(value):
        return (int(value),) * n
    out = tuple(int(v) for v in value)
    if len(out) != n:
        raise LacsumError(f"expected {n} per-axis values, got {out}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs common to all suites; unset fields take per-suite defaults.

    ``stabilization_threshold`` is an engineering default (the true constants
    of the inequalities are unknown), not a derived value.
    """

    suite: str = "identity"
    seed: int = 0
    dimension: int | None = None
    jk: tuple[int, ...] | None = None
    q: float = 2.0
    lambda_count: int | None = None
    bandwidth: int | tuple[int, ...] | None = None
    grid: int | tuple[int, ...] | None = None
    family: str = "random_decay"
    beta: float | None = None
    eps: float = 0.5
    mode: tuple[int, ...] = (1, 2, 3)
    normalize: bool = True
    trials: int | None = None
    cap_schedule: tuple[int, ...] = (8, 16, 32)
    free_cap: int | None = None
    levels: tuple[int, ...] = (4, 8, 16)
    weight: str = "product"
    stabilization_threshold: float = 1.10
    tail_slack: float = 1e-12
    alpha_points: int = 25
    identity_tolerance: float = 1e-10
    abel_trials: int = 100
    abel_max_n: int = 6
    telescope_cases: int = 50
    decompose_cases: int = 50
    shell_spectra: int = 10
    block_ratios: tuple[float, ...] = (1.5, 2.0, 3.0)
    block_bandwidth: int = 64
    vanishing_box: int = 64
    perturb: bool = False

    def __post_init__(self) -> None:
        lows = dict(seed=0, trials=0, alpha_points=1, abel_trials=0, abel_max_n=2,
                    telescope_cases=0, decompose_cases=0, shell_spectra=0, block_bandwidth=1,
                    vanishing_box=0)
        for name, low in lows.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise LacsumError(f"{name} must be >= {low}, got {value}")

    def filled(self, **defaults) -> "ExperimentConfig":
        updates = {k: v for k, v in defaults.items() if getattr(self, k) is None}
        return dataclasses.replace(self, **updates) if updates else self

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in doc.items()}


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _cast(kind: str, value):
    if kind == "bool":
        text = str(value).strip().lower()
        if text not in ("true", "false"):
            raise ValueError(f"not a boolean: {value!r}")
        return text == "true"
    out = {"int": int, "float": float, "str": str}[kind](value)
    if kind == "float" and not np.isfinite(out):
        raise ValueError(f"not a finite number: {value!r}")
    return out


def _coerce(name: str, value):
    """Cast a config value to the declared type of field ``name``.

    Config-file strings split on commas into tuple items. A scalar for a
    tuple-only field becomes a 1-tuple; a field declared as scalar or tuple
    (``bandwidth``, ``grid``) keeps a scalar.
    """
    declared = _FIELD_TYPES[name]
    kinds = declared.split(" | ")
    if value is None and "None" in kinds:
        return None
    if isinstance(value, str) and "," in value:
        value = [p for p in (s.strip() for s in value.split(",")) if p]
    many = isinstance(value, (list, tuple))
    for kind in kinds:
        tupled = kind.startswith("tuple[")
        if kind == "None" or (many and not tupled):
            continue
        try:
            if tupled:
                item = kind[len("tuple[") : kind.index(",")]
                return tuple(_cast(item, v) for v in (value if many else [value]))
            return _cast(kind, value)
        except (TypeError, ValueError):
            pass
    raise LacsumError(f"config key {name!r} expects {declared}, got {value!r}")


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    known = {}
    for key, value in mapping.items():
        if key not in _FIELD_TYPES:
            raise LacsumError(f"unknown config key {key!r}")
        known[key] = _coerce(key, value)
    return ExperimentConfig(**known)


def parse_config_file(path: str | Path) -> dict:
    """Plain ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise LacsumError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise LacsumError(f"{path}:{lineno}: expected 'key = value'")
        key, value = body.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@dataclass
class Report:
    suite: str
    config: dict
    results: dict
    summary: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "schema": "lacsum.report/1",
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "suite": self.suite,
            "passed": self.passed,
            "config": self.config,
            "results": self.results,
            "summary": self.summary,
        }

    @property
    def rows(self) -> list[dict]:
        return report_rows(self.to_dict())[1]


def report_rows(doc) -> tuple[list[str], list[dict]]:
    """CSV header and rows of a report document: its ``cases``, or one row per
    named check. The header is the first row's keys."""
    results = doc.get("results", {}) if isinstance(doc, dict) else None
    if not isinstance(results, dict):
        raise LacsumError("not a report: the document and its 'results' must be objects")
    rows = results.get("cases") or results.get("checks") or []
    if isinstance(rows, dict):
        rows = [{"check": k, **v} if isinstance(v, dict) else v for k, v in rows.items()]
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise LacsumError("report cases must be objects")
    return list(next(iter(rows), {})), rows


def emit_report(report: Report, path: str | Path, fmt: str = "json") -> list[Path]:
    """Write a report to disk; ``fmt='csv'`` adds flat per-case rows beside it.

    Output is deterministic for a fixed config and seed, so identical runs
    produce byte-identical files.
    """
    from .serialize import jsonify, save_csv, save_json

    if fmt not in ("json", "csv"):
        raise LacsumError(f"unknown report format {fmt!r}")
    target = Path(path)
    doc = jsonify(report.to_dict())
    written = [save_json(doc, target)]
    if fmt == "csv":
        written.append(save_csv(*report_rows(doc), target.with_suffix(".csv")))
    return written


# ---------------------------------------------------------------------------
# test-function generation


def _decay_profile(bandwidth: tuple[int, ...], beta: float) -> np.ndarray:
    prof = np.ones(tuple(2 * b + 1 for b in bandwidth))
    for p, b in enumerate(bandwidth):
        shape = [1] * len(bandwidth)
        shape[p] = 2 * b + 1
        prof = prof * ((np.abs(np.arange(-b, b + 1)) + 1.0) ** (-beta)).reshape(shape)
    return prof


def _random_phases(rng: np.random.Generator, shape) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(shape))


def gen_test_function(
    family: str,
    bandwidth: int | Sequence[int],
    dimension: int | None = None,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    beta: float = 2.0,
    eps: float = 0.5,
    mode: Sequence[int] = (1, 2, 3),
    sample: SampleJk | None = None,
    normalize: bool = True,
) -> Spectrum:
    """Reproducible test spectra.

    ``single_mode``: one unit coefficient. ``random_decay``: complex Gaussian
    coefficients damped by ``prod (|nu_j|+1)^-beta`` (beta > 1/2 required).
    ``product_1d``: a product of independent 1-d random spectra. ``weyl_
    borderline``: squared magnitudes proportional to the reciprocal of the
    free-axes log product times ``prod (|nu_j|+1)^-(1+eps)``, so the weighted
    energy converges while the plain energy decays slowly; needs ``sample``.
    """
    if family not in FAMILIES:
        raise LacsumError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if np.isscalar(bandwidth):
        if dimension is None:
            if family == "single_mode":
                dimension = len(mode)
            elif sample is not None:
                dimension = sample.dimension
            else:
                dimension = 3
        bw = (int(bandwidth),) * dimension
    else:
        bw = tuple(int(b) for b in bandwidth)
    if not bw:
        raise LacsumError("a test spectrum needs dimension >= 1")
    if any(b < 0 for b in bw):
        raise LacsumError(f"bandwidths must be nonnegative, got {bw}")
    if len(bw) > _MAX_AXES:
        raise LacsumError(f"a test spectrum has at most {_MAX_AXES} axes, got {len(bw)}")
    need = math.prod(2 * b + 1 for b in bw) * 16
    if need > _ARRAY_BYTES:
        raise LacsumError(f"test spectrum would take {need} bytes (> {_ARRAY_BYTES})")
    gen = rng if rng is not None else np.random.default_rng(seed)
    shape = tuple(2 * b + 1 for b in bw)

    if family == "single_mode":
        nu = tuple(int(v) for v in mode)
        if len(nu) != len(bw):
            raise LacsumError(f"mode {nu} does not match bandwidth {bw}")
        if any(abs(v) > b for v, b in zip(nu, bw)):
            raise LacsumError(f"mode {nu} outside bandwidth {bw}")
        coeffs = np.zeros(shape, dtype=complex)
        coeffs[tuple(v + b for v, b in zip(nu, bw))] = 1.0
    elif family == "random_decay":
        if beta <= 0.5:
            raise LacsumError(f"random_decay needs beta > 1/2, got {beta}")
        z = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        coeffs = z * _decay_profile(bw, beta)
    elif family == "product_1d":
        if beta <= 0.5:
            raise LacsumError(f"product_1d needs beta > 1/2, got {beta}")
        coeffs = np.ones(shape, dtype=complex)
        for p, b in enumerate(bw):
            line = (gen.standard_normal(2 * b + 1) + 1j * gen.standard_normal(2 * b + 1)) * (
                (np.abs(np.arange(-b, b + 1)) + 1.0) ** (-beta)
            )
            sh = [1] * len(bw)
            sh[p] = 2 * b + 1
            coeffs = coeffs * line.reshape(sh)
    else:  # weyl_borderline
        if sample is None or sample.dimension != len(bw):
            raise LacsumError("weyl_borderline needs a matching axis sample")
        if eps <= 0:
            raise LacsumError(f"weyl_borderline needs eps > 0, got {eps}")
        logs = product_weight(sample).fn(*np.ix_(*(np.arange(-b, b + 1) for b in bw)))
        mag2 = _decay_profile(bw, (1.0 + eps)) / logs
        coeffs = np.sqrt(mag2) * _random_phases(gen, shape)

    if normalize and family != "single_mode":
        norm = np.sqrt(np.sum(np.abs(coeffs) ** 2))
        if norm > 0:
            coeffs = coeffs / norm
    return Spectrum(bw, coeffs)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(trial)])


def _trial_spectrum(cfg: ExperimentConfig, trial: int, bw: tuple[int, ...], sample: SampleJk) -> Spectrum:
    """The test spectrum of one suite trial, from its own ``(seed, trial)`` stream."""
    return gen_test_function(
        cfg.family,
        bandwidth=bw,
        rng=_trial_rng(cfg.seed, trial),
        beta=cfg.beta,
        eps=cfg.eps,
        mode=cfg.mode,
        sample=sample,
        normalize=cfg.normalize,
    )


def _suite_layout(cfg: ExperimentConfig) -> tuple[SampleJk, tuple[int, ...], TorusGrid, tuple]:
    """The axis sample, per-axis bandwidths, grid and lacunary families of a
    suite run. An unset bandwidth is 17 on free axes and 8 on lacunary ones;
    an unset grid takes four points per unit of bandwidth."""
    n = cfg.dimension
    sample = SampleJk(n, tuple(cfg.jk))
    if cfg.bandwidth is None:
        bw = tuple(17 if p in sample.free_positions else 8 for p in range(n))
    else:
        bw = _tupled(cfg.bandwidth, n)
    res = _tupled(cfg.grid, n) if cfg.grid is not None else tuple(4 * b for b in bw)
    families = tuple(make_lacunary(cfg.q, cfg.lambda_count) for _ in sample.lacunary_axes)
    return sample, bw, TorusGrid(res), families


# ---------------------------------------------------------------------------
# identity suite


def abel_max_deviation(
    rng: np.random.Generator, trials: int, max_n: int, nu: int | None = None
) -> float:
    """Largest double-Abel identity deviation over random trials.

    Each trial draws an order (``nu`` if given, else 1 to 3), a size
    ``2 <= n_j <= max_n`` per axis, a standard-normal hypersequence of shape
    ``n + 1`` and weights uniform on ``[0.1, 2)``.
    """
    worst = 0.0
    for _ in range(trials):
        order = int(rng.integers(1, 4)) if nu is None else nu
        n = tuple(int(v) for v in rng.integers(2, max_n + 1, size=order))
        a = rng.standard_normal(tuple(v + 1 for v in n))
        b = rng.uniform(0.1, 2.0, size=max(n) + 1)
        worst = max(worst, abel_identity_check(a, b, n).difference)
    return worst


def run_identity_suite(cfg: ExperimentConfig) -> Report:
    """Exact-identity checks; reports the maximal absolute deviation of each."""
    tol = cfg.identity_tolerance
    checks: dict[str, dict] = {}

    dev = abel_max_deviation(_trial_rng(cfg.seed, 1), cfg.abel_trials, cfg.abel_max_n)
    if cfg.perturb and cfg.abel_trials:
        dev = max(dev, 1e-6)  # planted deviation, negative-control mode
    checks["abel"] = {"cases": cfg.abel_trials, "max_deviation": dev}

    # telescoping reassembly (coefficientwise, exact by disjoint supports)
    rng = _trial_rng(cfg.seed, 2)
    dev = 0.0
    for case in range(cfg.telescope_cases):
        bw = tuple(int(v) for v in rng.integers(3, 9, size=3))
        lac_axis = int(rng.integers(1, 4))
        sample = SampleJk(3, (lac_axis,))
        family = make_lacunary_covering(2.0, bw[lac_axis - 1])
        space = JkIndexSpace(sample, (family,), tuple(b + 3 for p, b in enumerate(bw) if p != lac_axis - 1))
        coeffs = rng.standard_normal(tuple(2 * b + 1 for b in bw)) + 1j * rng.standard_normal(
            tuple(2 * b + 1 for b in bw)
        )
        s = Spectrum(bw, coeffs)
        index = [0, 0, 0]
        index[lac_axis - 1] = int(rng.choice(family.terms))
        for p in sample.free_positions:
            index[p] = int(rng.integers(1, bw[p] + 4))
        split = telescope_split(s, space, index)
        reference = restrict(s, index).coeffs
        dev = max(dev, float(np.max(np.abs(split.reassembled() - reference))))
    checks["telescope"] = {"cases": cfg.telescope_cases, "max_deviation": dev}

    # four-term decomposition reassembly, with a bilinear cross-check
    rng = _trial_rng(cfg.seed, 3)
    grid = TorusGrid((16, 16, 16))
    dev = 0.0
    cross = 0.0
    for case in range(cfg.decompose_cases):
        bw = tuple(int(v) for v in rng.integers(2, 8, size=3))
        shape = tuple(2 * b + 1 for b in bw)
        g = Spectrum(bw, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        free_axes = (2, 3)
        index = (
            int(rng.integers(0, bw[0] + 1)),
            int(rng.integers(0, bw[1] + 1)),
            int(rng.integers(0, bw[2] + 1)),
        )
        closed = decompose_free_pair(g, index, free_axes, grid, engine="closed")
        dev = max(dev, closed.max_error)
        if case % 5 == 0:
            raw = decompose_free_pair(g, index, free_axes, grid, engine="bilinear")
            for t_c, t_r in zip(closed.terms, raw.terms):
                cross = max(cross, float(np.max(np.abs(t_c - t_r))))
    checks["decompose"] = {"cases": cfg.decompose_cases, "max_deviation": dev}
    checks["decompose_bilinear_crosscheck"] = {
        "cases": (cfg.decompose_cases + 4) // 5 if cfg.decompose_cases else 0,
        "max_deviation": cross,
    }

    # shell prefix tensor vs literal direct summation
    rng = _trial_rng(cfg.seed, 4)
    grid8 = TorusGrid((8, 8, 8))
    bw4 = (4, 4, 4)
    dev = 0.0
    for case in range(cfg.shell_spectra):
        shape = tuple(2 * b + 1 for b in bw4)
        s = Spectrum(bw4, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        tensor = ShellTensor.from_grid(s, grid8)
        for n in np.ndindex(5, 5, 5):
            box = Spectrum(n, s.coeffs[tuple(slice(4 - v, 4 + v + 1) for v in n)])
            direct = synthesize(box, grid8, method="direct").values
            dev = max(dev, float(np.max(np.abs(tensor.query(n) - direct))))
    checks["shell_vs_direct"] = {"cases": cfg.shell_spectra * 125, "max_deviation": dev}

    # block split partition
    rng = _trial_rng(cfg.seed, 5)
    dev = 0.0
    overlap = 0.0
    for q in cfg.block_ratios:
        for bw in ((int(cfg.block_bandwidth),), (int(cfg.block_bandwidth), 3)):
            shape = tuple(2 * b + 1 for b in bw)
            s = Spectrum(bw, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            family = make_lacunary_covering(q, bw[0])
            g1, g2 = split_lacunary_blocks(s, 1, family)
            dev = max(dev, float(np.max(np.abs(g1.coeffs + g2.coeffs - s.coeffs))))
            overlap = max(overlap, float(np.max(np.abs(g1.coeffs) * np.abs(g2.coeffs))))
    cases_blocks = 2 * len(cfg.block_ratios)
    checks["block_split"] = {"cases": cases_blocks, "max_deviation": max(dev, overlap)}

    # off-diagonal vanishing of the mixed difference, exhaustive on [0, box]^2
    box = int(cfg.vanishing_box)
    t = np.arange(box + 2)
    w = min_log_inverse(t[:, None], t[None, :])
    mixed = w[:-1, :-1] - w[1:, :-1] - w[:-1, 1:] + w[1:, 1:]
    off = np.abs(mixed.copy())
    np.fill_diagonal(off, 0.0)
    checks["offdiagonal_vanishing"] = {
        "cases": (box + 1) ** 2,
        "max_deviation": float(off.max()),
    }

    total_cases = sum(c["cases"] for c in checks.values())
    worst = max(c["max_deviation"] for c in checks.values())
    passed = worst <= tol
    summary = {
        "max_deviation": worst,
        "tolerance": tol,
        "no_cases": total_cases == 0,
    }
    return Report(
        suite="identity",
        config=cfg.to_dict(),
        results={"checks": checks},
        summary=summary,
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# convergence suite


def sup_error_table(
    spectrum: Spectrum,
    grid: TorusGrid,
    space: JkIndexSpace,
    min_term: int = 0,
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Sup-grid error ``max_x |S_n(x) - f(x)|`` for a whole family of boxes.

    Returns the original lacunary terms used per cut axis (terms below
    ``min_term`` are skipped, terms clamping to the same bandwidth value are
    merged onto their smallest representative; a free axis past the second
    contributes its values ``min(min_term, B)..min(cap, B)``) and an array
    indexed by that combo and then ``m_a`` (and ``m_b``) of the first two
    free axes. Those start at ``min(min_term, B)``: entry ``i`` of free axis
    ``j`` is ``m_j = min(min_term, B_j) + i``, up to ``B_j``.
    """
    plan = plan_prefix_blocks(spectrum, grid, space, min_term)
    f = synthesize(spectrum, grid).values
    f_perm = np.transpose(f, plan.perm).reshape((plan.lac_size,) + plan.free_grid)

    prefix_shape = tuple(b + 1 - s for b, s in zip(plan.free_limits, plan.free_start))
    table = np.zeros(plan.combo_shape + prefix_shape)
    flat_table = table.reshape((-1,) + prefix_shape)
    modulus = _squared_modulus()
    for (row, ma), mb, slab in iter_prefix_slabs(spectrum, grid, plan):
        combo_flat, lac_flat = divmod(row, plan.lac_size)
        k, n = slab.shape[:2]
        sq = modulus(slab, f_perm[lac_flat : lac_flat + n])  # |S_n - f|^2
        first = ma - plan.free_start[0]
        col = flat_table[combo_flat][first : first + k, mb - plan.free_start[1]]
        np.maximum(col, sq.max(axis=(1, 2, 3)), out=col)
    # the returned table leaves out the plan's phantom axes
    free_shape = prefix_shape[: len(plan.free_axes)]
    return plan.cut_terms, np.sqrt(table.reshape(plan.combo_shape + free_shape))


def coefficient_tail(spectrum: Spectrum, level: int) -> float:
    """Sum of |c_nu| outside the box ``|nu_j| <= level``."""
    mags = np.abs(spectrum.coeffs)
    sl = tuple(slice(max(b - level, 0), b + min(level, b) + 1) for b in spectrum.bandwidth)
    return float(mags.sum() - mags[sl].sum())


def run_convergence_suite(config: ExperimentConfig) -> Report:
    """Sup-grid convergence surrogate along lacunary index paths.

    For each trial and each minimum level, the worst sup-grid deviation of a
    partial sum whose components all reach the level is compared against the
    coefficient tail outside the level box; the tail dominates by the
    triangle inequality, so the assertion is theorem-free. Errors are
    nonincreasing in the level by construction (the index sets are nested).
    """
    cfg = config.filled(
        dimension=3,
        jk=(1,),
        lambda_count=5,
        bandwidth=(16, 17, 17),
        grid=(64, 68, 68),
        beta=3.0,
        trials=20,
        free_cap=17,
    )
    sample, bw, grid, families = _suite_layout(cfg)
    free_pos = sample.free_positions
    for b, L in zip(bw, grid.resolution):
        if L < 4 * b:
            raise LacsumError(f"grid {L} below 4x bandwidth {b}; partial sums underresolved")
    levels = tuple(int(v) for v in cfg.levels)
    if not levels or min(levels) < 0:
        raise LacsumError(f"levels must be one or more values >= 0, got {levels}")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise LacsumError(f"levels must be strictly increasing, got {levels}")
    for fam in families:
        if fam.terms[-1] < levels[-1]:
            raise LacsumError("lambda_count too small: no lacunary term reaches the top level")
    caps = tuple(int(cfg.free_cap) for _ in free_pos)
    if any(c < levels[-1] for c in caps):
        raise LacsumError("free_cap below the top level: empty index set")
    if any(bw[p] < levels[-1] for p in free_pos):
        raise LacsumError("free-axis bandwidth below the top level: no tail to measure")
    space = JkIndexSpace(sample, families, caps)

    trial_rows = []
    all_pass = True
    worst_margin = -np.inf
    for trial in range(cfg.trials):
        s = _trial_spectrum(cfg, trial, bw, sample)
        originals, table = sup_error_table(s, grid, space, min_term=levels[0])
        flat = table.reshape((-1,) + table.shape[len(originals) :])
        combo_shape = tuple(len(o) for o in originals)
        prev = None
        for level in levels:
            eligible = [
                ci
                for ci, combo in enumerate(np.ndindex(*combo_shape))
                if all(originals[t][c] >= level for t, c in enumerate(combo))
            ]
            if not eligible:
                raise LacsumError(f"no lacunary terms reach level {level}")
            # the table's streamed free axes (the first two) start at the
            # lowest level, levels[0]; the cut ones are combo values above
            streamed = table.ndim - len(originals)
            tops = [min(cap, bw[p]) for cap, p in zip(caps, free_pos[:streamed])]
            box = tuple(slice(level - levels[0], t + 1 - levels[0]) for t in tops)
            err = max(float(flat[ci][box].max()) for ci in eligible)
            tail = coefficient_tail(s, level)
            ok = err <= tail + cfg.tail_slack
            mono = prev is None or err <= prev
            all_pass = all_pass and ok and mono
            worst_margin = max(worst_margin, err - tail)
            trial_rows.append(
                {
                    "trial": trial,
                    "level": level,
                    "sup_error": err,
                    "tail_bound": tail,
                    "within_tail": ok,
                    "nonincreasing": mono,
                }
            )
            prev = err
    summary = {
        "trials": cfg.trials,
        "levels": list(levels),
        "all_within_tail": bool(all_pass),
        "worst_margin": None if cfg.trials == 0 else float(worst_margin),
        "no_cases": cfg.trials == 0,
    }
    return Report(
        suite="convergence",
        config=cfg.to_dict(),
        results={"cases": trial_rows},
        summary=summary,
        passed=bool(all_pass),
    )


# ---------------------------------------------------------------------------
# maximal suite


def run_maximal_suite(config: ExperimentConfig) -> Report:
    """Weighted maximal ratios under a doubling cap schedule, plus weak-type
    tables, with exact monotonicity of every trial's exhaustion curve.

    The stabilization quotient is ratio(top cap) / ratio(top cap / 2); the
    suite passes when its median stays under the configured threshold, no
    trial's curve decreases, and the weak-type maxima stabilize the same way.
    """
    cfg = config.filled(
        dimension=3,
        jk=(1,),
        lambda_count=6,
        beta=1.0,
        trials=20,
    )
    sample, bw, grid, families = _suite_layout(cfg)
    cfg = cfg.filled(bandwidth=bw, grid=grid.resolution)  # the report echoes both
    n = cfg.dimension
    free_pos = sample.free_positions
    schedule = tuple(int(c) for c in cfg.cap_schedule)
    if len(schedule) < 2:
        raise LacsumError(f"cap schedule needs at least two levels, got {schedule}")
    if any(a > b for a, b in zip(schedule, schedule[1:])):
        raise LacsumError(f"cap schedule must be nondecreasing, got {schedule}")
    levels = [(c,) * len(free_pos) for c in schedule]
    space = JkIndexSpace(sample, families, levels[-1])
    weight = weight_from_kind(cfg.weight, sample)
    sigma_weight = product_weight(sample)
    pair_weight = min_pair_weight(sample) if len(free_pos) == 2 else None
    weights = [weight, unit_weight(n)]

    rows = []
    quotients, wt_quotients = [], []
    monotone_all = True
    max_ratio = 0.0
    for trial in range(cfg.trials):
        s = _trial_spectrum(cfg, trial, bw, sample)
        input_l2 = float(np.sqrt(s.energy()))
        sigma = weighted_energy(s, sigma_weight)
        sigma_pair = weighted_energy(s, pair_weight) if pair_weight is not None else None
        m_values = sweep_space(s, grid, space, weights, levels)
        ratios, wt_maxima, pair_ratios = [], [], []
        top_unweighted = m_values[1, -1]
        m_top = float(top_unweighted.max())
        alphas = (
            np.geomspace(m_top / 1000.0, m_top, cfg.alpha_points) if m_top > 0 else None
        )
        for li in range(len(levels)):
            m_w = m_values[0, li]
            m_u = m_values[1, li]
            ratios.append(grid_l2(m_w) / input_l2)
            if pair_weight is not None and sigma_pair and sigma_pair > 0:
                pair_ratios.append(grid_l2(m_u) ** 2 / sigma_pair)
            else:
                pair_ratios.append(None)
            if alphas is None or sigma <= 0:
                wt_maxima.append(0.0)
            else:
                mus = np.asarray([level_set_measure(m_u, a, grid) for a in alphas])
                wt_maxima.append(float((alphas**2 * mus / sigma).max()))
        monotone = all(b >= a for a, b in zip(ratios, ratios[1:]))
        monotone_all = monotone_all and monotone
        max_ratio = max(max_ratio, ratios[-1])
        if len(ratios) >= 2 and ratios[-2] > 0:
            quotients.append(ratios[-1] / ratios[-2])
        if len(wt_maxima) >= 2 and wt_maxima[-2] > 0:
            wt_quotients.append(wt_maxima[-1] / wt_maxima[-2])
        for cap, ratio, wt, pr in zip(schedule, ratios, wt_maxima, pair_ratios):
            rows.append(
                {
                    "trial": trial,
                    "cap": cap,
                    "weighted_ratio": ratio,
                    "weak_type_max": wt,
                    "pair_energy_ratio": pr,
                    "monotone": monotone,
                }
            )
    median_q = float(np.median(quotients)) if quotients else None
    median_wt_q = float(np.median(wt_quotients)) if wt_quotients else None
    threshold = cfg.stabilization_threshold
    if cfg.trials == 0:
        passed = True
    else:
        passed = monotone_all
        if median_q is not None:
            passed = passed and median_q <= threshold
        if median_wt_q is not None:
            passed = passed and median_wt_q <= threshold
    summary = {
        "trials": cfg.trials,
        "cap_schedule": list(schedule),
        "median_stabilization_quotient": median_q,
        "median_weak_type_quotient": median_wt_q,
        "monotone_all": bool(monotone_all),
        "max_weighted_ratio": max_ratio if cfg.trials else None,
        "threshold": threshold,
        "no_cases": cfg.trials == 0,
    }
    return Report(
        suite="maximal",
        config=cfg.to_dict(),
        results={"cases": rows},
        summary=summary,
        passed=bool(passed),
    )
