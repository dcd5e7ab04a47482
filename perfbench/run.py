"""Benchmark of the `vr` CLI: end-to-end metrics, or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
NAME is one of the workloads in workloads.py, or ``all`` to run each in turn.
Every set-up and every measurement runs in a fresh interpreter, one command at
a time (a closed loop with one client), with BLAS/OpenMP threads capped at the
number of usable cores. Outputs go to a temporary directory under
``perfbench/.work`` that is removed afterwards.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics of BENCHMARK.json. With ``--trace 1`` the workload runs
once untraced and once traced, each in its own process, and the JSON holds
the per-layer metrics of the traced run; ``trace.overhead_s`` is the
difference between the two runs' median pass times. The lines above the JSON
give every metric by name, with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-ups per run: some before the measurement and the rest after it, so a
# short slow spell of a shared machine cannot hit all of them.
SETUPS_BEFORE, SETUPS_AFTER = 1, 2
# Every run of one workload must end within 180 s; a hung child is killed.
RUN_DEADLINE_S = 175
QUALITY_UNITS = {"heldout_bound_nats": "nats", "test_ll_nats": "nats"}


def _declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = {k: v for k, v in os.environ.items() if k != "VR_SEED"}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def _worker(args: list, workdir: Path, env: dict, deadline: float) -> float:
    """Run worker.py to completion; returns its wall time in seconds."""
    log = workdir / "worker.log"
    with open(log, "w") as handle:
        began = perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT,
            timeout=max(deadline - began, 1.0),
        )
        elapsed = perf_counter() - began
    if done.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise RuntimeError(f"worker {args[0]} exited with {done.returncode}")
    return elapsed


def _measure(workdir, workload, seed, seconds, trace, env, deadline) -> dict:
    result_path = workdir / f"result_{int(trace)}.json"
    _worker(["measure", workdir, workload, seed, seconds, int(trace), result_path], workdir, env, deadline)
    return json.loads(result_path.read_text())


def _percentile_ms(values: list[float], q: int) -> float:
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns (result object, report lines)."""
    deadline = perf_counter() + RUN_DEADLINE_S
    env = _child_env()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        def set_up(times):
            return [_worker(["setup", workdir, workload, seed], workdir, env, deadline) for _ in range(times)]

        setups = set_up(1 if trace else SETUPS_BEFORE)
        plain = _measure(workdir, workload, seed, seconds, False, env, deadline)
        traced = _measure(workdir, workload, seed, seconds, True, env, deadline) if trace else None
        setups += set_up(0 if trace else SETUPS_AFTER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    run_s = statistics.median(plain["pass_s"])
    lines = [
        f"[{workload}] seed={seed} trace={int(trace)} nproc={len(os.sched_getaffinity(0))} "
        f"blas_threads={env['OMP_NUM_THREADS']} python={plain['versions']['python']} "
        f"numpy={plain['versions']['numpy']} scipy={plain['versions']['scipy']}",
        f"  run_s              {run_s:12.4f} s      median of {len(plain['pass_s'])} passes",
        f"  setup_s            {statistics.median(setups):12.4f} s      median of {len(setups)} set-ups",
        f"  peak_rss_mb        {plain['peak_rss_mb']:12.1f} MB     1 process",
    ]
    for kind, times in plain["command_s"].items():
        lines.append(f"    vr {kind:<14} {statistics.median(times):12.4f} s      median of {len(times)} passes")
    steps = plain["step_s"]
    if steps:
        for q in (50, 99):
            lines.append(f"  step_ms.p{q}        {_percentile_ms(steps, q):12.3f} ms     {len(steps)} steps")
    for name, value in plain["quality"].items():
        lines.append(f"  {name:<18} {value:12.4f} {QUALITY_UNITS[name]:<6} 1 value (same for every pass)")

    results = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    known = sum(len(r["known_defects"]) for r in results)
    lines.append(
        f"  fail_share         {(failed + known) / attempted:12.4f} ratio  {failed + known}/{attempted} operations"
        f" ({failed} unexpected, {known} known defect)"
    )
    for what in sorted({f for r in results for f in r["failures"]}):
        lines.append(f"    FAILED: {what}")
    for what in sorted({f for r in results for f in r["known_defects"]}):
        lines.append(f"    FAILED, KNOWN DEFECT: {what}")

    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = statistics.median(traced["pass_s"]) - run_s
        metrics["checks.known_defects"] = len(traced["known_defects"]) / len(traced["pass_s"])
        lines += [f"    absent trace target: {name}" for name in traced["absent"]]
    else:
        metrics = {"run_s": run_s, "setup_s": statistics.median(setups), "peak_rss_mb": plain["peak_rss_mb"]}
    units = _declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    if trace:
        lines.append(f"  per-layer, traced process, {len(traced['pass_s'])} passes; times and totals per pass:")
        lines += [f"  {name:<34} {value:16.6g} {units[name]}" for name, value in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "vrbound" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'vrbound'}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
