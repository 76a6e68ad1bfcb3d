"""lacsum benchmark: five pinned workloads, timed end to end or traced per layer.

Usage, from the root of a checkout (lacsum is imported from ``src/``):

    python3 perfbench/run.py --workload maximal_suite --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Load shape: a closed loop with one client. Each workload call runs in a
fresh child process (cold interpreter, ``import lacsum``, cold caches), one
at a time, with numpy/OpenBLAS default threads.

``--trace 0`` first starts a few set-up-only children, then workload calls
until the next one would end past ``--seconds``, and reports the medians
``call_s`` (CPU seconds of the child from call start to checked result),
``setup_s`` (CPU seconds of the child from its start to call start) and
``peak_rss_mb`` (child ru_maxrss). Both times are scaled to a nominal host
speed: each child also times a fixed reference kernel (``child.py``), and
a time is multiplied by ``REF_NOMINAL_S`` over that child's reference time.
On a shared host the speed the program gets drifts by tens of percent from
minute to minute, with the load of other tenants; the scaling cancels most
of that drift. The raw wall and CPU medians and the reference time are
printed beside them and kept in the result file.

``--trace 1`` alternates untraced and traced calls, then makes one
single-threaded reference call (``OPENBLAS_NUM_THREADS=1`` in that child
only), and reports the per-layer metrics of METRICS.md.

Every call's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The environment record, samples and report digests go to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``; traced spans go
beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
REF_NOMINAL_S = 0.3  # reference kernel CPU seconds that scaled times assume
RUN_LIMIT_S = 170.0  # a whole run must end within 180 s

END_TO_END = {"call_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_bytes": "bytes", "bytes": "bytes", "cpu_per_wall": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class ProgramMissing(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment record


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_revision() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    rev = _read(str(ROOT / ".git" / ref))
    if rev is None:
        packed = _read(str(ROOT / ".git" / "packed-refs")) or ""
        rev = next((ln.split()[0] for ln in packed.splitlines() if ln.endswith(" " + ref)), None)
    return rev


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, blas: dict) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({k: _read(str(index / k)) for k in ("level", "type", "size",
                                                            "shared_cpu_list")})
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **blas,
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# children


class Runner:
    """Starts one child at a time and keeps every sample of a run."""

    def __init__(self, workload: str, seed: int, tag: str, deadline: float | None):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = OUT / "work" / f"{tag}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.spans = OUT / f"{tag}-spans.json"
        self.count = 0
        self.errors: list[str] = []

    def child(self, setup_only=False, trace=False, one_thread=False) -> dict | None:
        """Run one child; ``None`` when it raised, exited non-zero or timed out."""
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if one_thread:
            env["OPENBLAS_NUM_THREADS"] = "1"
        timeout = None
        if self.deadline is not None:
            timeout = max(self.deadline - time.monotonic(), 1.0)
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed)]
        extra = ["--setup-only"] if setup_only else []
        if trace:
            extra += ["--trace", str(self.spans)]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd + [repr(spawned), str(self.work), str(result)] + extra,
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.errors.append(f"child timed out after {timeout:.0f} s")
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not result.exists():
            self.errors.append(err.decode(errors="replace")[-2000:])
            return None
        out = json.loads(result.read_text())
        out["elapsed_s"] = time.monotonic() - spawned
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _probe(runner: Runner, n: int) -> tuple[list[dict], dict]:
    setups, blas = [], None
    for _ in range(n):
        res = runner.child(setup_only=True)
        if res is None:
            raise ProgramMissing(runner.errors[-1] if runner.errors else "set-up failed")
        setups.append(res)
        blas = blas or {k: res[k] for k in ("numpy", "blas_name", "blas_version",
                                            "blas_threads")}
    return setups, blas


def _scaled(result: dict, key: str) -> float:
    """``result[key]`` at the nominal host speed, by the child's reference time."""
    return result[key] * REF_NOMINAL_S / result["ref_s"]


def timed_run(runner: Runner, seconds: float) -> dict:
    setups, blas = _probe(runner, SETUP_PROBES)
    calls = []
    attempted = failed = 0
    begin = time.monotonic()
    while True:
        attempted += 1
        res = runner.child()
        if res is None or not res["passed"]:
            failed += 1
        if res is not None:
            calls.append(res)
        if res is None or time.monotonic() - begin + res["elapsed_s"] > seconds:
            break
    digests = sorted({c["digest"] for c in calls})
    if len(digests) > 1:
        runner.errors.append(f"report digests differ across calls: {digests}")
    good = [c for c in calls if c["passed"]]
    keys = ("setup_s", "setup_cpu_s", "ref_s")
    samples = {k: [c[k] for c in setups + calls] for k in keys}
    samples.update({k: [c[k] for c in calls] for k in ("cpu_s", "wall_s", "peak_rss_mb")})
    metrics = {
        "call_s": _median([_scaled(c, "cpu_s") for c in good]),
        "setup_s": _median([_scaled(c, "setup_cpu_s") for c in setups + calls]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in good]),
    }
    raw = {"wall_s": _median([c["wall_s"] for c in good]),
           "cpu_s": _median([c["cpu_s"] for c in good]),
           "setup_wall_s": _median(samples["setup_s"]),
           "ref_s": _median(samples["ref_s"])}
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and len(digests) == 1,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "raw": raw,
        "blas": blas,
        "samples": samples,
        "digests": digests,
    }


def traced_run(runner: Runner, seconds: float) -> dict:
    _, blas = _probe(runner, 1)
    plain, traced = [], []
    attempted = failed = 0
    begin = time.monotonic()
    while True:
        pair = []
        for trace in (False, True):
            attempted += 1
            res = runner.child(trace=trace)
            if res is None or not res["passed"] or res.get("missing_spans"):
                failed += 1
            if res is None:
                break
            (traced if trace else plain).append(res)
            pair.append(res["elapsed_s"])
        # room for another pair and the single-threaded call (about half a pair)?
        if len(pair) < 2 or time.monotonic() - begin + sum(pair) * 1.5 > seconds:
            break
    attempted += 1
    single = runner.child(one_thread=True)
    if single is None or not single["passed"]:
        failed += 1
    calls = plain + traced + ([single] if single else [])
    digests = sorted({c["digest"] for c in calls})
    if len(digests) > 1:
        runner.errors.append(f"traced and untraced report digests differ: {digests}")
    missing = sorted({m for c in traced for m in c.get("missing_spans", [])})
    if missing:
        runner.errors.append(f"wrappers that never fired: {missing}")

    layers = {}
    counts_repeat = True
    if traced:
        for name in traced[0]["layers"]:
            values = [c["layers"][name] for c in traced]
            if layer_unit(name) == "s":
                layers[name] = _median(values)
            else:
                counts_repeat &= len(set(values)) == 1
                layers[name] = values[0]
    if not counts_repeat:
        runner.errors.append("work counts differ between traced calls")
    wall = _median([c["wall_s"] for c in plain])
    layers["proc.wall_s"] = wall
    layers["proc.wall_1t_s"] = single["wall_s"] if single else float("nan")
    layers["proc.cpu_s"] = _median([c["cpu_s"] for c in plain])
    layers["proc.ref_s"] = _median([c["ref_s"] for c in plain])
    layers["proc.cpu_per_wall"] = _median([c["cpu_s"] / c["wall_s"] for c in plain])
    layers["proc.trace_overhead_s"] = _median([c["wall_s"] for c in traced]) - wall
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and len(digests) == 1 and counts_repeat and bool(traced),
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())},
        "blas": blas,
        "samples": {"wall_s": [c["wall_s"] for c in plain],
                    "traced_wall_s": [c["wall_s"] for c in traced],
                    "wall_1t_s": [single["wall_s"]] if single else []},
        "digests": digests,
        "spans_file": str(runner.spans.relative_to(ROOT)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline) -> dict:
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    runner = Runner(name, seed, tag, deadline)
    try:
        res = (traced_run if trace else timed_run)(runner, seconds)
    finally:
        runner.close()
    res["errors"] = runner.errors
    res["env"] = environment(seed, res.pop("blas"))
    res["workload"] = name
    (OUT / f"{tag}.json").write_text(json.dumps(res, indent=1, sort_keys=True))
    return res


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit so Runner.child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "lacsum" / "__init__.py").is_file():
        print(f"error: no lacsum package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = None if args.workload == "all" else time.monotonic() + RUN_LIMIT_S
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    except ProgramMissing as exc:
        print(f"error: lacsum could not be set up: {exc.args[0].strip()[-600:]}", file=sys.stderr)
        return 2

    for name, res in results.items():
        for err in res["errors"]:
            print(f"{name}: error: {err.strip()[-600:]}", file=sys.stderr)
        print(f"env {json.dumps(res['env'], sort_keys=True)}")
        print(f"digests {name} seed {args.seed}: {' '.join(res['digests'])}")
        for k, v in res["metrics"].items():
            print(f"{name} {k} = {_fmt(v['value'])} {v['unit']}")
        print(f"{name} fail_ratio = {res['failed'] / res['attempted']:.3g} "
              f"({res['failed']} of {res['attempted']} calls)")
    if not args.trace:
        for name, res in results.items():
            for k, v in res["raw"].items():
                print(f"{name} {k} = {_fmt(v)} s (unscaled)")
    if args.workload == "all" and not args.trace:
        cols = ("call_s", "wall_s", "setup_s", "peak_rss_mb")
        print(f"{'workload':<18}" + "".join(f"{c:>16}" for c in cols) + f"{'calls':>7}{'fail_ratio':>12}")
        for name, res in results.items():
            m = {**res["metrics"], "wall_s": {"value": res["raw"]["wall_s"], "unit": "s"}}
            cells = "".join(f"{_fmt(m[c]['value']) + ' ' + m[c]['unit']:>16}" for c in cols)
            print(f"{name:<18}{cells}{len(res['samples']['wall_s']):>7}"
                  f"{res['failed'] / res['attempted']:>12.3g}")
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    correct = all(r["correct"] for r in results.values())
    for m in metrics.values():
        if m["value"] != m["value"]:  # NaN: no call of that kind succeeded
            m["value"] = None
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
