"""Experiment driver: test-function generation and the three suites.

Every suite consumes an ``ExperimentConfig``, draws per-trial RNG streams
from ``(seed, trial)`` so concurrency or reordering can never change
results, and produces a ``Report`` whose JSON form is byte-identical across
runs with the same config and seed (no timestamps, sorted keys, fixed
schema tag). ``_COMMAND_FIELDS`` names the config fields each suite (and
``gen``) reads, with its defaults: it fills the config, bounds the keys a
``--config`` file or flag may set, and is the report's config echo. The
convergence and maximal runners check their config before any trial (an
unknown weight, or ``alpha_points`` over the weak-type input bound, is an
input error), run one trial function per trial on plain, picklable
arguments, and build their summaries from the trials' rows.

Suites:

* identity: exact-identity checks (double-Abel, telescoping reassembly,
  four-term decomposition, shell prefix vs direct summation, block-split
  partition, off-diagonal vanishing) with their maximal deviations;
* convergence: sup-grid error of lacunary partial sums at increasing
  minimum index levels against the coefficient-tail bound, which dominates
  the error by the triangle inequality alone (a lacunary term clamped at a
  bandwidth below a level stands for larger terms, which reach the level);
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
from .maximal import _alpha_grid, _squared_modulus, level_set_measure, sweep_space
from .seqcalc import abel_identity_check, telescope_split
from .decomp import decompose_free_pair, min_log_inverse
from .spectral import (
    _MAX_AXES,
    _ARRAY_BYTES,
    ShellTensor,
    Spectrum,
    TorusGrid,
    direct_box_sums,
    frequency_mesh,
    grid_l2,
    iter_prefix_slabs,
    max_modulus,
    plan_prefix_blocks,
    restrict,
    split_lacunary_blocks,
    synthesize,
)
from .weyl import min_pair_weight, product_weight, unit_weight, weight_from_kind, weighted_energy

SCHEMA_VERSION = "1"
REPORT_SCHEMA = "lacsum.report/1"
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
    """Knobs of the suites and ``gen``; each command reads only its ``_COMMAND_FIELDS``.

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
        if not self.identity_tolerance > 0:  # the identity verdict divides by it
            raise LacsumError(f"identity_tolerance must be > 0, got {self.identity_tolerance}")

    def filled(self, command: str) -> "ExperimentConfig":
        table = _COMMAND_FIELDS[command]
        updates = {k: v for k, v in table.items() if v is not None and getattr(self, k) is None}
        return dataclasses.replace(self, **updates) if updates else self

    def to_dict(self, command: str) -> dict:
        doc = {"suite": command, **{k: getattr(self, k) for k in _COMMAND_FIELDS[command]}}
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in doc.items()}


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
# the fields each command reads, with its defaults for those the class leaves None; both
# trial suites read the fields of _suite_layout and _trial_spectrum, and their trial count
_TRIAL = "dimension jk q lambda_count bandwidth grid seed family beta eps mode normalize trials "
_COMMAND_FIELDS = {
    "identity": dict.fromkeys("seed identity_tolerance abel_trials abel_max_n telescope_cases decompose_cases "
                              "shell_spectra block_ratios block_bandwidth vanishing_box perturb".split()),
    "convergence": {**dict.fromkeys((_TRIAL + "levels free_cap tail_slack").split()), "dimension": 3,
                    "jk": (1,), "lambda_count": 5, "bandwidth": (16, 17, 17), "grid": (64, 68, 68),
                    "beta": 3.0, "trials": 20, "free_cap": 17},
    "maximal": {**dict.fromkeys((_TRIAL + "cap_schedule weight alpha_points stabilization_threshold").split()),
                "dimension": 3, "jk": (1,), "lambda_count": 6, "beta": 1.0, "trials": 20},
    "gen": {**dict.fromkeys("seed family beta eps mode normalize dimension jk bandwidth".split()),
            "dimension": 3, "bandwidth": 8, "beta": 2.0},
}


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


def config_from_mapping(mapping: dict, command: str) -> ExperimentConfig:
    """The config of a ``command`` run; a key the command does not read is an input error."""
    known = {}
    for key, value in mapping.items():
        if key not in _COMMAND_FIELDS[command]:
            raise LacsumError(f"{command} does not read config key {key!r}")
        known[key] = _coerce(key, value)
    return ExperimentConfig(suite=command, **known)


def parse_config_file(path: str | Path) -> dict:
    """Plain ``key = value`` lines, each key once; ``#`` starts a comment."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
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
        key, value = (part.strip() for part in body.split("=", 1))
        if key in first:
            raise LacsumError(f"{path}:{lineno}: key {key!r} is already set on line {first[key]}")
        first[key] = lineno
        out[key] = value
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
            "schema": REPORT_SCHEMA,
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
    """CSV header and rows of a ``lacsum.report/1`` document: its ``cases``, or
    one row per named check. The header is the first row's keys."""
    schema = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
    if schema != REPORT_SCHEMA:
        raise LacsumError(f"not a {REPORT_SCHEMA} document: schema={schema!r}")
    results = doc.get("results", {})
    if not isinstance(results, dict):
        raise LacsumError("not a report: its 'results' must be an object")
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
    doc = report.to_dict()
    written = [save_json(doc, target)]
    if fmt == "csv":
        # the rows and their cells as the JSON holds them: lists, not tuples
        written.append(save_csv(*report_rows(jsonify(doc)), target.with_suffix(".csv")))
    return written


# ---------------------------------------------------------------------------
# test-function generation


def _decay(v: np.ndarray, beta: float) -> np.ndarray:
    """``(|v| + 1)^-beta`` by libm's ``pow``, elementwise: numpy's AVX-512
    ``pow`` rounds differently, so its bits would follow the SIMD dispatch."""
    return np.reshape([math.pow(abs(k) + 1.0, -beta) for k in v.ravel().tolist()], v.shape)


def _decay_profile(bandwidth: tuple[int, ...], beta: float) -> np.ndarray:
    """``prod (|nu_j| + 1)^-beta`` over the box, one axis factor at a time."""
    return math.prod(_decay(v, beta) for v in frequency_mesh(bandwidth))


def gen_test_function(
    family: str,
    bandwidth: int | Sequence[int],
    dimension: int | None = None,
    seed: int | Sequence[int] = 0,
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
    ``seed`` (an int or a ``(seed, trial)`` pair) seeds ``np.random.default_rng``.
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
    gen = np.random.default_rng(seed)
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
        re, im = 1.0, 0.0  # the line products in split parts: no FMA decides the bits
        for v in frequency_mesh(bw):
            d = _decay(v, beta)
            a, b = gen.standard_normal(v.shape) * d, gen.standard_normal(v.shape) * d
            re, im = re * a - im * b, re * b + im * a
        coeffs = re + 1j * im
    else:  # weyl_borderline
        if sample is None or sample.dimension != len(bw):
            raise LacsumError("weyl_borderline needs a matching axis sample")
        if eps <= 0:
            raise LacsumError(f"weyl_borderline needs eps > 0, got {eps}")
        mag2 = _decay_profile(bw, (1.0 + eps)) / product_weight(sample).fn(*frequency_mesh(bw))
        coeffs = np.sqrt(mag2) * np.exp(2j * np.pi * gen.random(shape))

    if normalize and family != "single_mode":
        norm = np.sqrt(np.sum(coeffs.real ** 2 + coeffs.imag ** 2))
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
        seed=(cfg.seed, trial),
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


# largest regime work of one Abel check, regime vectors x hypersequence cells:
# order 8 at n = 2 (9^8) takes about 0.1 s on a 2-core Xeon (shared regime passes)
_ABEL_WORK = 10**8
# input bound on alpha_points: the decimal alpha grid takes 30-50 us a point on a
# 2-core Xeon, so 3-5 s a trial at the bound; the level sets take one sort
_ALPHA_POINTS = 10**5


def abel_max_deviation(
    rng: np.random.Generator, trials: int, max_n: int, nu: int | None = None
) -> tuple[float, float]:
    """Largest double-Abel identity deviation over random trials, and the
    largest trial ``scale`` (at least 1), which a tolerance is to multiply.

    Each trial draws an order (``nu`` if given, else 1 to 3), a size
    ``2 <= n_j <= max_n`` per axis, a standard-normal hypersequence of shape
    ``n + 1`` and weights uniform on ``[0.1, 2)``. The largest order and size
    must fit the array budget and the regime work budget before any draw.
    """
    top = 3 if nu is None else nu
    cells = (max_n + 1) ** top
    if cells * 8 > _ARRAY_BYTES or 3**top * cells > _ABEL_WORK:
        raise LacsumError(f"abel check of order {top} up to n = {max_n} is over budget "
                          f"({cells} cells x {3**top} regimes, at most {_ABEL_WORK})")
    worst, scale = 0.0, 1.0
    for _ in range(trials):
        order = int(rng.integers(1, 4)) if nu is None else nu
        n = tuple(int(v) for v in rng.integers(2, max_n + 1, size=order))
        a = rng.standard_normal(tuple(v + 1 for v in n))
        b = rng.uniform(0.1, 2.0, size=max(n) + 1)
        check = abel_identity_check(a, b, n)
        worst, scale = max(worst, check.difference), max(scale, check.scale)
    return worst, scale


def run_identity_suite(cfg: ExperimentConfig) -> Report:
    """Exact-identity checks; reports the maximal absolute deviation of each (and the Abel scale)."""
    tol = cfg.identity_tolerance
    checks: dict[str, dict] = {}

    dev, scale = abel_max_deviation(_trial_rng(cfg.seed, 1), cfg.abel_trials, cfg.abel_max_n)
    if cfg.perturb and cfg.abel_trials:
        dev = max(dev, 1e-6 * scale)  # planted deviation, negative-control mode
    checks["abel"] = {"cases": cfg.abel_trials, "max_deviation": dev, "scale": scale}

    # telescoping reassembly (coefficientwise, exact by disjoint supports)
    rng = _trial_rng(cfg.seed, 2)
    dev = 0.0
    for case in range(cfg.telescope_cases):
        bw = tuple(int(v) for v in rng.integers(3, 9, size=3))
        lac_axis = int(rng.integers(1, 4))
        sample = SampleJk(3, (lac_axis,))
        family = make_lacunary_covering(2.0, bw[lac_axis - 1])
        space = JkIndexSpace(sample, (family,), tuple(b + 3 for p, b in enumerate(bw) if p != lac_axis - 1))
        shape = tuple(2 * b + 1 for b in bw)
        s = Spectrum(bw, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        index = [0, 0, 0]
        index[lac_axis - 1] = int(rng.choice(family.terms))
        for p in sample.free_positions:
            index[p] = int(rng.integers(1, bw[p] + 4))
        split = telescope_split(s, space, index)
        reference = restrict(s, index).coeffs
        dev = max(dev, max_modulus(split.reassembled() - reference))
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
        index = tuple(int(rng.integers(0, b + 1)) for b in bw)
        closed = decompose_free_pair(g, index, free_axes, grid, engine="closed")
        dev = max(dev, closed.max_error)
        if case % 5 == 0:
            raw = decompose_free_pair(g, index, free_axes, grid, engine="bilinear")
            for t_c, t_r in zip(closed.terms, raw.terms):
                cross = max(cross, max_modulus(t_c - t_r))
    checks["decompose"] = {"cases": cfg.decompose_cases, "max_deviation": dev}
    checks["decompose_bilinear_crosscheck"] = {
        "cases": (cfg.decompose_cases + 4) // 5 if cfg.decompose_cases else 0,
        "max_deviation": cross,
    }

    # shell prefix tensor vs literal direct summation, every box n <= (4, 4, 4) at once
    rng = _trial_rng(cfg.seed, 4)
    grid8 = TorusGrid((8, 8, 8))
    engine = np.empty((5, 5, 5) + grid8.resolution, dtype=complex)
    dev = 0.0
    for case in range(cfg.shell_spectra):
        s = Spectrum((4, 4, 4), rng.standard_normal((9, 9, 9)) + 1j * rng.standard_normal((9, 9, 9)))
        tensor = ShellTensor.from_grid(s, grid8)
        for n in np.ndindex(5, 5, 5):
            engine[n] = tensor.query(n)
        dev = max(dev, max_modulus(np.subtract(engine, direct_box_sums(s, grid8, [range(5)] * 3), out=engine)))
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
            dev = max(dev, max_modulus(g1.coeffs + g2.coeffs - s.coeffs))
            overlap = max(overlap, float(np.max(np.abs(g1.coeffs) * np.abs(g2.coeffs))))
    checks["block_split"] = {"cases": 2 * len(cfg.block_ratios), "max_deviation": max(dev, overlap)}

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
    ratio = max(c["max_deviation"] / (tol * c.get("scale", 1.0)) for c in checks.values())  # over each bound
    summary = {
        "max_deviation": worst,
        "tolerance": tol,
        "worst_ratio": ratio,
        "no_cases": total_cases == 0,
    }
    return Report(
        suite="identity",
        config=cfg.to_dict("identity"),
        results={"checks": checks},
        summary=summary,
        passed=bool(ratio <= 1.0),
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
    mags = np.sqrt(spectrum.coeffs.real ** 2 + spectrum.coeffs.imag ** 2)
    sl = tuple(slice(max(b - level, 0), b + min(level, b) + 1) for b in spectrum.bandwidth)
    return float(mags.sum() - mags[sl].sum())


def _convergence_trial(cfg: ExperimentConfig, trial: int, bw: tuple[int, ...], grid: TorusGrid,
                       space: JkIndexSpace, levels: tuple[int, ...]) -> list[dict]:
    """The rows of one convergence trial, one per level."""
    s = _trial_spectrum(cfg, trial, bw, space.sample)
    originals, table = sup_error_table(s, grid, space, min_term=levels[0])
    free_pos = space.sample.free_positions
    cut_bw = [bw[p] for p in space.sample.lacunary_positions + free_pos[2:]]
    # the table's streamed free axes (the first two) start at the lowest
    # level, levels[0]; the cut ones are combo values above
    tops = [min(cap, bw[p]) for cap, p in zip(space.free_caps, free_pos[:2])]
    rows = []
    for level in levels:
        # the cut values reaching the level; one at its axis's bandwidth stands for
        # every term clamped there, the family's top term among them, so none is empty
        reach = [np.asarray(o) >= min(level, b) for o, b in zip(originals, cut_bw)]
        box = tuple(slice(level - levels[0], t + 1 - levels[0]) for t in tops)
        err = float(table[np.ix_(*reach) + box].max())
        tail = coefficient_tail(s, level)
        rows.append(
            {
                "trial": trial,
                "level": level,
                "sup_error": err,
                "tail_bound": tail,
                "within_tail": err <= tail + cfg.tail_slack,
                "nonincreasing": not rows or err <= rows[-1]["sup_error"],
            }
        )
    return rows


def run_convergence_suite(config: ExperimentConfig) -> Report:
    """Sup-grid convergence surrogate along lacunary index paths.

    For each trial and each minimum level, the worst sup-grid deviation of a
    partial sum whose components all reach the level is compared against the
    coefficient tail outside the level box; the tail dominates by the
    triangle inequality, so the assertion is theorem-free. Errors are
    nonincreasing in the level by construction (the index sets are nested).
    """
    cfg = config.filled("convergence")
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

    rows = [row for trial in range(cfg.trials)
            for row in _convergence_trial(cfg, trial, bw, grid, space, levels)]
    passed = all(row["within_tail"] and row["nonincreasing"] for row in rows)
    summary = {
        "trials": cfg.trials,
        "levels": list(levels),
        "all_within_tail": passed,
        "worst_margin": max((row["sup_error"] - row["tail_bound"] for row in rows), default=None),
        "no_cases": cfg.trials == 0,
    }
    return Report(
        suite="convergence",
        config=cfg.to_dict("convergence"),
        results={"cases": rows},
        summary=summary,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# maximal suite


def _maximal_trial(cfg: ExperimentConfig, trial: int, bw: tuple[int, ...], grid: TorusGrid,
                   space: JkIndexSpace, schedule: tuple[int, ...]) -> list[dict]:
    """The rows of one maximal trial, one per cap level of ``schedule``."""
    sample = space.sample
    weights = [weight_from_kind(cfg.weight, sample), unit_weight(sample.dimension)]
    s = _trial_spectrum(cfg, trial, bw, sample)
    input_l2 = float(np.sqrt(s.energy()))
    sigma = weighted_energy(s, product_weight(sample))
    sigma_pair = weighted_energy(s, min_pair_weight(sample)) if len(space.free_caps) == 2 else None
    m_values = sweep_space(s, grid, space, weights, [(c,) * len(space.free_caps) for c in schedule])
    m_top = float(m_values[1, -1].max())
    alphas = _alpha_grid(m_top, cfg.alpha_points) if m_top > 0 else None
    ratios = [grid_l2(m_w) / input_l2 for m_w in m_values[0]]
    monotone = all(b >= a for a, b in zip(ratios, ratios[1:]))
    rows = []
    for cap, ratio, m_u in zip(schedule, ratios, m_values[1]):
        pair_ratio = None
        if sigma_pair and sigma_pair > 0:
            pair_ratio = grid_l2(m_u) ** 2 / sigma_pair
        wt = 0.0
        if alphas is not None and sigma > 0:
            wt = float((alphas**2 * level_set_measure(m_u, alphas, grid) / sigma).max())
        rows.append(
            {
                "trial": trial,
                "cap": cap,
                "weighted_ratio": ratio,
                "weak_type_max": wt,
                "pair_energy_ratio": pair_ratio,
                "monotone": monotone,
            }
        )
    return rows


def run_maximal_suite(config: ExperimentConfig) -> Report:
    """Weighted maximal ratios under a doubling cap schedule, plus weak-type
    tables, with exact monotonicity of every trial's exhaustion curve.

    The stabilization quotient is ratio(top cap) / ratio(top cap / 2); the
    suite passes when its median stays under the configured threshold, no
    trial's curve decreases, and the weak-type maxima stabilize the same way.
    """
    cfg = config.filled("maximal")
    sample, bw, grid, families = _suite_layout(cfg)
    cfg = dataclasses.replace(cfg, bandwidth=bw if cfg.bandwidth is None else cfg.bandwidth,  # echo what ran
                              grid=grid.resolution if cfg.grid is None else cfg.grid)
    schedule = tuple(int(c) for c in cfg.cap_schedule)
    if len(schedule) < 2:
        raise LacsumError(f"cap schedule needs at least two levels, got {schedule}")
    if any(a > b for a, b in zip(schedule, schedule[1:])):
        raise LacsumError(f"cap schedule must be nondecreasing, got {schedule}")
    if cfg.alpha_points > _ALPHA_POINTS:
        raise LacsumError(f"alpha_points {cfg.alpha_points} > budget {_ALPHA_POINTS}")
    space = JkIndexSpace(sample, families, (schedule[-1],) * len(sample.free_positions))
    weight_from_kind(cfg.weight, sample)  # an unknown weight fails before any trial

    rows = [row for trial in range(cfg.trials)
            for row in _maximal_trial(cfg, trial, bw, grid, space, schedule)]
    tops, belows = rows[len(schedule) - 1 :: len(schedule)], rows[len(schedule) - 2 :: len(schedule)]
    medians = []
    for key in ("weighted_ratio", "weak_type_max"):
        # per trial, the top cap's value over the next cap's, where that is > 0
        quotients = [top[key] / below[key] for top, below in zip(tops, belows) if below[key] > 0]
        medians.append(float(np.median(quotients)) if quotients else None)
    monotone_all = all(row["monotone"] for row in rows)
    passed = monotone_all and all(m is None or m <= cfg.stabilization_threshold for m in medians)
    summary = {
        "trials": cfg.trials,
        "cap_schedule": list(schedule),
        "median_stabilization_quotient": medians[0],
        "median_weak_type_quotient": medians[1],
        "monotone_all": monotone_all,
        "max_weighted_ratio": max((top["weighted_ratio"] for top in tops), default=None),
        "threshold": cfg.stabilization_threshold,
        "no_cases": cfg.trials == 0,
    }
    return Report(
        suite="maximal",
        config=cfg.to_dict("maximal"),
        results={"cases": rows},
        summary=summary,
        passed=passed,
    )
