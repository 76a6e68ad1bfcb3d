"""The five pinned workloads: inputs from a seed, one call, one output check.

Each workload is driven only through lacsum's public functions. ``setup``
builds the inputs the call consumes (config, spectrum file or weight
object) and is timed as set-up; ``call`` is the timed workload call;
``check`` turns the call's output into a pass/fail verdict and a sha256
digest of the report bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, workdir) -> state
    call: Callable  # (state, tracer | None) -> output
    check: Callable  # (output, state) -> (passed, digest)
    expected_spans: frozenset  # spans a traced call must record


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _top_span(tracer, name, func, *args):
    if tracer is None:
        return func(*args)
    return tracer.wrap(func, name)(*args)


# ---------------------------------------------------------------------------
# suites


def _suite_setup(suite: str, **fields):
    def setup(seed: int, workdir: Path):
        from lacsum.suites import ExperimentConfig

        return {"config": ExperimentConfig(suite=suite, seed=seed, **fields),
                "out": workdir / f"{suite}.json"}

    return setup


def _suite_call(runner_name: str):
    def call(state, tracer):
        import lacsum.suites as suites

        def run():
            report = getattr(suites, runner_name)(state["config"])
            suites.emit_report(report, state["out"])
            return report

        return _top_span(tracer, "suites.run", run)

    return call


def _suite_check(report, state):
    doc = json.loads(state["out"].read_text())
    return bool(report.passed and doc["passed"]), _sha256(state["out"])


def _identity_setup(seed: int, workdir: Path):
    # The default config, its seed included: the suite draws its case sizes
    # from that seed, so another seed would change the work and peak memory,
    # not only the values.
    from lacsum.suites import ExperimentConfig

    return {"config": ExperimentConfig(suite="identity"), "out": workdir / "identity.json"}


def _identity_check(report, state):
    passed, digest = _suite_check(report, state)
    tol = report.summary["tolerance"]
    within = all(c["max_deviation"] <= tol for c in report.results["checks"].values())
    return passed and within, digest


# ---------------------------------------------------------------------------
# lacsum maximal (CLI)

CLI_ARGS = ["--Jk", "1", "2", "--q", "2", "--lambda-count", "5", "--free-cap", "32",
            "--weight", "product", "--grid", "64"]


def _cli_setup(seed: int, workdir: Path):
    from lacsum.serialize import save_json, spectrum_to_dict
    from lacsum.suites import gen_test_function

    spec = workdir / "spectrum.json"
    save_json(spectrum_to_dict(gen_test_function("random_decay", 16, dimension=3, seed=seed)), spec)
    return {"argv": ["maximal", "--spec", str(spec), *CLI_ARGS, "--out", str(workdir / "maximal.json")],
            "out": workdir / "maximal.json"}


def _cli_call(state, tracer):
    import lacsum.cli

    return _top_span(tracer, "cli.main", lacsum.cli.main, state["argv"])


def _cli_check(code, state):
    return code == 0, _sha256(state["out"])


# ---------------------------------------------------------------------------
# admissibility scan

SCAN_BOX = 64


def _scan_setup(seed: int, workdir: Path):
    # the scan is exhaustive over a fixed box: no input depends on the seed
    from lacsum.lattice import SampleJk
    from lacsum.weyl import min_pair_weight

    return {"weight": min_pair_weight(SampleJk(4, (1, 2)))}


def _scan_call(state, tracer):
    from lacsum.weyl import check_weyl_conditions

    weight = state["weight"]
    if tracer is None:
        return check_weyl_conditions(weight, SCAN_BOX)
    from tracing import timed_weight

    tracer.add("weyl.scan_points", (2 * SCAN_BOX + 1) ** weight.dimension)
    return _top_span(tracer, "weyl.scan", check_weyl_conditions,
                     timed_weight(tracer, weight), SCAN_BOX)


def _scan_check(report, state):
    conds = [report.positivity, report.symmetry, report.monotonicity]
    doc = {"box": report.box, "dimension": report.dimension,
           "conditions": [[c.passed, c.witness] for c in conds]}
    passed = report.all_passed and all(c.witness is None for c in conds)
    return passed, hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


STREAM = {"spectral.slab_stream", "spectral.cut_stage"}

WORKLOADS = {
    w.name: w
    for w in (
        # criterion-8/9 geometry, one trial per call: the two-free-axis slab stream
        # reduced by sweep_space over 3 cap levels x 2 weights; the costliest gate.
        Workload(
            "maximal_suite",
            _suite_setup("maximal", trials=1),
            _suite_call("run_maximal_suite"),
            _suite_check,
            frozenset({"suites.run", "suites.gen", "maximal.sweep", "maximal.level_set",
                       "weyl.energy", "serialize.write"} | STREAM),
        ),
        # criterion-7 geometry, one trial per call: the same slab stream with twice
        # the rows, reduced by sup_error_table, which a sweep_space change bypasses.
        Workload(
            "convergence_suite",
            _suite_setup("convergence", trials=1),
            _suite_call("run_convergence_suite"),
            _suite_check,
            frozenset({"suites.run", "suites.gen", "suites.sup_error", "spectral.synthesize",
                       "serialize.write"} | STREAM),
        ),
        # the only one-free-axis path: 102,400 tiny rows swept twice, bound by
        # per-row Python overhead; the only workload through cli and serialize.
        Workload(
            "maximal_cli",
            _cli_setup,
            _cli_call,
            _cli_check,
            frozenset({"cli.main", "serialize.load", "serialize.write", "maximal.sweep",
                       "maximal.weak_type", "maximal.level_set", "weyl.energy"} | STREAM),
        ),
        # shell-tensor builds, the einsum oracle, decomp and seqcalc; bypasses the
        # slab stream, so stream or sweep changes should leave it flat.
        Workload(
            "identity_suite",
            _identity_setup,
            _suite_call("run_identity_suite"),
            _identity_check,
            frozenset({"suites.run", "seqcalc.abel", "seqcalc.telescope", "decomp.decompose",
                       "decomp.sum_engine", "spectral.shell_build", "spectral.shell_lookup",
                       "spectral.partial_sum", "spectral.synthesize", "serialize.write"}),
        ),
        # the only user of weyl's scan, and memory-heavy. Min-pair is the cheapest
        # N=4 kind; product and full run the same mesh-and-flip code, longer.
        Workload(
            "weight_scan",
            _scan_setup,
            _scan_call,
            _scan_check,
            frozenset({"weyl.scan", "weyl.eval"}),
        ),
    )
}
