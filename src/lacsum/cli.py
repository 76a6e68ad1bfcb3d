"""Command-line driver.

Subcommands: gen, partial-sum, maximal, decompose, converge, maximal-suite,
verify abel, verify identities and report; each takes only the shared flags
it reads.
Exit codes: 0 all assertions pass, 1 an assertion failed, 2 usage, config or
input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import LacsumError
from .lattice import JkIndexSpace, SampleJk, make_lacunary
from .maximal import weak_type_table
from .decomp import coefficient_transfer, decompose_free_pair
from .serialize import (
    dumps,
    gridfunction_slice_rows,
    gridfunction_to_dict,
    load_json,
    save_csv,
    save_json,
    spectrum_from_dict,
    spectrum_to_dict,
)
from .spectral import TorusGrid, grid_l2, partial_sum
from .suites import (
    ExperimentConfig,
    abel_max_deviation,
    config_from_mapping,
    emit_report,
    gen_test_function,
    parse_config_file,
    report_rows,
    run_convergence_suite,
    run_identity_suite,
    run_maximal_suite,
)
from .weyl import weight_from_kind


def _write(doc: dict, out: str | None) -> None:
    if out:
        save_json(doc, out)
        print(f"wrote {out}")
    else:
        sys.stdout.write(dumps(doc))


def _grid_for(args: argparse.Namespace, spectrum) -> TorusGrid:
    """``--grid`` points per axis, else four per unit of the largest bandwidth."""
    res = args.grid if args.grid is not None else max(4 * b for b in spectrum.bandwidth)
    return TorusGrid((res,) * spectrum.dimension)


def _config_from_args(args: argparse.Namespace, suite: str) -> tuple[ExperimentConfig, dict]:
    """``--config`` entries, overridden by every flag named after a config
    field, and the mapping of the keys so set."""
    mapping = parse_config_file(args.config) if args.config else {}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    mapping.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    return config_from_mapping(mapping, suite), mapping


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error is an input error: one ``error:`` line, exit 2."""
        raise LacsumError(f"{self.prog}: {message}")


# the flags several commands share; each command names the ones it reads
_SHARED = {
    "--seed": dict(type=int, default=None, help="RNG seed (recorded in reports)"),
    "--grid": dict(type=int, default=None, help="grid resolution per axis"),
    "--format": dict(dest="fmt", choices=("json", "csv"), default="json"),
    "--config": dict(type=str, default=None, help="key = value config file"),
}


def _command(sub, name: str, run, shared: str = "", **kw) -> argparse.ArgumentParser:
    """Subcommand ``name`` dispatching to ``run``, with ``--out`` and the
    shared flags named in ``shared``."""
    p = sub.add_parser(name, **kw)
    p.set_defaults(run=run)
    p.add_argument("--out", type=str, default=None, help="output path (stdout if omitted)")
    for flag in shared.split():
        p.add_argument(flag, **_SHARED[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lacsum",
        description="Rectangular partial sums of multiple Fourier series: "
        "experiments with lacunary index sweeps and convergence weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = _command(sub, "gen", _cmd_gen, "--seed --config", help="generate a test spectrum")
    g.add_argument("--family", default=None)
    g.add_argument("--N", dest="dimension", type=int, default=None)
    g.add_argument("--B", dest="bandwidth", type=int, default=None)
    g.add_argument("--beta", type=float, default=None)
    g.add_argument("--eps", type=float, default=None)
    g.add_argument("--mode", type=int, nargs="+", default=None, help="single-mode frequency")
    g.add_argument("--Jk", dest="jk", type=int, nargs="+", default=None)
    g.add_argument("--no-normalize", dest="normalize", action="store_const", const=False, default=None)

    ps = _command(sub, "partial-sum", _cmd_partial_sum, "--grid --format",
                  help="evaluate a rectangular partial sum")
    ps.add_argument("--spec", required=True, help="spectrum JSON file")
    ps.add_argument("--n", type=int, nargs="+", required=True, help="partial-sum index")
    ps.add_argument("--fix", type=int, nargs="*", default=None, help="axis index pairs to pin for CSV slices")

    mx = _command(sub, "maximal", _cmd_maximal, "--grid",
                  help="weighted maximal sweep over an index space")
    mx.add_argument("--spec", required=True)
    mx.add_argument("--Jk", dest="jk", type=int, nargs="+", required=True)
    mx.add_argument("--q", type=float, default=2.0)
    mx.add_argument("--lambda-count", dest="lambda_count", type=int, default=5)
    mx.add_argument("--free-cap", dest="free_cap", type=int, default=32)
    mx.add_argument("--weight", default="product")

    dc = _command(sub, "decompose", _cmd_decompose, "--grid",
                  help="four-term decomposition of a partial sum")
    dc.add_argument("--spec", required=True)
    dc.add_argument("--free-axes", dest="free_axes", type=int, nargs=2, required=True)
    dc.add_argument("--n", type=int, nargs="+", required=True)

    suite = "--seed --grid --format --config"
    cv = _command(sub, "converge", lambda args: _cmd_suite(args, run_convergence_suite, "convergence"),
                  suite, help="convergence suite")
    cv.add_argument("--trials", type=int, default=None)
    cv.add_argument("--levels", type=int, nargs="+", default=None)
    cv.add_argument("--Jk", dest="jk", type=int, nargs="+", default=None)
    cv.add_argument("--free-cap", dest="free_cap", type=int, default=None)

    vf = sub.add_parser("verify", help="identity suites").add_subparsers(dest="target", required=True)
    va = _command(vf, "abel", _cmd_abel, "--seed", help="the double-Abel check alone")
    va.set_defaults(seed=7)
    va.add_argument("--nu", type=int, default=3)
    va.add_argument("--n", type=int, default=4)
    va.add_argument("--trials", type=int, default=100)
    _command(vf, "identities", lambda args: _cmd_suite(args, run_identity_suite, "identity"),
             "--seed --format --config", help="the exact-identity suite")

    mxs = _command(sub, "maximal-suite", lambda args: _cmd_suite(args, run_maximal_suite, "maximal"),
                   suite, help="maximal-ratio suite with cap doubling")
    mxs.add_argument("--trials", type=int, default=None)
    mxs.add_argument("--Jk", dest="jk", type=int, nargs="+", default=None)
    mxs.add_argument("--q", type=float, default=None)
    mxs.add_argument("--cap-schedule", dest="cap_schedule", type=int, nargs="+", default=None)
    mxs.add_argument("--weight", default=None)

    rp = _command(sub, "report", _cmd_report, "--format",
                  help="re-emit a lacsum.report/1 document (optionally as CSV)")
    rp.add_argument("--in", dest="infile", required=True)

    return parser


def _cmd_gen(args) -> int:
    given, mapping = _config_from_args(args, "gen")
    cfg = given.filled("gen")
    spectrum = gen_test_function(
        cfg.family,
        bandwidth=cfg.bandwidth,
        dimension=cfg.dimension,
        seed=cfg.seed,
        beta=cfg.beta,
        eps=cfg.eps,
        # a single mode defaults to (1, ..., 1), not the suites' (1, 2, 3)
        mode=cfg.mode if "mode" in mapping else (1,) * cfg.dimension,
        sample=SampleJk(cfg.dimension, cfg.jk) if cfg.jk else None,
        normalize=cfg.normalize,
    )
    _write(spectrum_to_dict(spectrum), args.out)
    return 0


def _cmd_partial_sum(args) -> int:
    spectrum = spectrum_from_dict(load_json(args.spec))
    grid = _grid_for(args, spectrum)
    f = partial_sum(spectrum, tuple(args.n), grid)
    if args.fmt == "csv":
        fixed = {}
        pairs = args.fix or []
        if len(pairs) % 2:
            raise LacsumError("--fix wants axis/index pairs")
        for axis, pos in zip(pairs[::2], pairs[1::2]):
            fixed[axis] = pos
        # pin the lowest-numbered unpinned axes at 0 until two axes are free
        unpinned = [a for a in range(1, spectrum.dimension + 1) if a not in fixed]
        fixed.update({a: 0 for a in unpinned[: max(len(unpinned) - 2, 0)]})
        names, rows = gridfunction_slice_rows(f, fixed)
        if not args.out:
            raise LacsumError("--out required for CSV output")
        save_csv(names, rows, args.out)
        print(f"wrote {args.out}")
        return 0
    _write(gridfunction_to_dict(f), args.out)
    return 0


def _cmd_maximal(args) -> int:
    spectrum = spectrum_from_dict(load_json(args.spec))
    n = spectrum.dimension
    sample = SampleJk(n, tuple(args.jk))
    family = make_lacunary(args.q, args.lambda_count)
    space = JkIndexSpace(
        sample,
        tuple(family for _ in sample.lacunary_axes),
        tuple(args.free_cap for _ in sample.free_axes),
    )
    grid = _grid_for(args, spectrum)
    weight = weight_from_kind(args.weight, sample)
    table = weak_type_table(spectrum, space, weight, grid)
    report = table.report
    doc = {
        "schema": "lacsum.maximal/1",
        "grid": list(grid.resolution),
        "space": report.space,
        "weight": report.weight,
        "m_l2": report.m_l2,
        "input_l2": report.input_l2,
        "ratio": report.ratio,
        "weak_type": {
            "alphas": list(table.alphas),
            "ratios": list(table.ratios),
            "sigma": table.sigma,
            "max_ratio": table.max_ratio,
        },
    }
    if args.out:
        rows = [
            {"alpha": float(a), "ratio": float(r)}
            for a, r in zip(table.alphas, table.ratios)
        ]
        save_csv(["alpha", "ratio"], rows, Path(args.out).with_suffix(".csv"))
    _write(doc, args.out)
    return 0


def _cmd_decompose(args) -> int:
    f_spectrum = spectrum_from_dict(load_json(args.spec))
    grid = _grid_for(args, f_spectrum)
    g_spectrum = coefficient_transfer(f_spectrum, tuple(args.free_axes))
    result = decompose_free_pair(g_spectrum, tuple(args.n), tuple(args.free_axes), grid)
    doc = {
        "schema": "lacsum.decompose/1",
        "grid": list(grid.resolution),
        "index": list(result.index),
        "free_axes": list(result.free_axes),
        "diagonal_cut": result.diagonal_cut,
        "term_l2": list(result.term_l2()),
        "reference_l2": grid_l2(result.reference),
        "max_reassembly_error": result.max_error,
    }
    _write(doc, args.out)
    return 0 if result.max_error <= 1e-10 else 1


def _cmd_abel(args) -> int:
    bounds = (("--seed", args.seed, 0), ("--nu", args.nu, 1), ("--n", args.n, 2),
              ("--trials", args.trials, 0))
    for flag, value, low in bounds:
        if value < low:
            raise LacsumError(f"{flag} must be >= {low}, got {value}")
    worst, scale = abel_max_deviation(np.random.default_rng(args.seed), args.trials, args.n, nu=args.nu)
    doc = {
        "schema": "lacsum.verify/1",
        "target": "abel",
        "seed": args.seed, "nu": args.nu, "n": args.n,
        "trials": args.trials,
        "max_abs_difference": worst,
        "scale": scale,
    }
    _write(doc, args.out)
    return 0 if worst <= 1e-10 * scale else 1


def _cmd_suite(args, runner, suite) -> int:
    report = runner(_config_from_args(args, suite)[0])
    if args.out:
        emit_report(report, args.out, args.fmt)
        print(f"wrote {args.out}")
    else:
        _write(report.to_dict(), None)
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    doc = load_json(args.infile)
    names, rows = report_rows(doc)  # a document that is not a report is an input error
    if args.fmt == "csv":
        if not args.out:
            raise LacsumError("--out required for CSV output")
        save_csv(names, rows, args.out)
        print(f"wrote {args.out}")
        return 0
    _write(doc, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (LacsumError, MemoryError) as exc:  # MemoryError: a backstop that misses OOM kills
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
