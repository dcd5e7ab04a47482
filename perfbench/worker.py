"""Child process of the benchmark: one set-up, or the measured passes of one workload.

    worker.py setup   WORKDIR WORKLOAD SEED
    worker.py measure WORKDIR WORKLOAD SEED SECONDS TRACE RESULT_JSON

run.py starts each in a fresh interpreter, with the checkout's ``src`` on
PYTHONPATH and BLAS/OpenMP threads capped at the number of usable cores.
``measure`` runs the workload's `vr` commands in process through
``vrbound.cli.main``, one at a time, repeating the whole list (a pass) until
SECONDS have gone by; then it checks every pass's outputs and writes its
findings to RESULT_JSON.
"""

from __future__ import annotations

import csv
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads


def _step_seconds(run_record: Path) -> list[float]:
    """Per-step latencies from the cumulative wall_time column."""
    with open(run_record, newline="") as handle:
        wall = [float(row["wall_time"]) for row in csv.DictReader(handle)]
    return [b - a for a, b in zip([0.0] + wall, wall)]


def _quality(kind: str, out: Path) -> dict[str, float]:
    def value(name, column, where=None):
        with open(out / name, newline="") as handle:
            rows = [r for r in csv.DictReader(handle) if where is None or r[where[0]] == where[1]]
        return float(rows[0][column])

    if kind == "vae-train":
        return {"heldout_bound_nats": value("test_bound.csv", "mean_bound")}
    if kind == "bnn-train":
        return {"test_ll_nats": value("test_metrics.csv", "value", ("metric", "test_predictive_ll"))}
    return {}


def _run_command(cli, argv: list[str]) -> int:
    """Exit code of one `vr` command; an uncaught exception counts as exit 1."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 1


def measure(workdir: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy
    import vrbound.cli as cli

    commands = [kind for kind, _ in workloads.WORKLOADS[workload]]
    tracer = tracing.Tracer() if trace else None
    patched = tracing.install(tracer) if trace else []
    passes = []
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < seconds:
            out = workdir / f"pass{len(passes)}"
            began = time.perf_counter()
            codes, command_s = {}, {}
            for kind in commands:
                command_began = time.perf_counter()
                codes[kind] = _run_command(
                    cli,
                    [
                        kind,
                        "--config", str(workloads.config_path(workdir, kind)),
                        "--seed", str(seed),
                        "--output-dir", str(out / kind),
                    ],
                )
                command_s[kind] = time.perf_counter() - command_began
            passes.append((time.perf_counter() - began, out, codes, command_s))
    finally:
        tracing.restore(patched)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    failures, known_defects, step_s, quality = [], [], [], {}
    for _, out, codes, _ in passes:
        for kind, code in codes.items():
            attempted += 1
            if code != 0:
                failed += 1
                failures.append(f"vr {kind} exited with {code}")
                continue
            try:
                found = checks.check_command(kind, out / kind)
                if kind in workloads.TRAIN_STEPS:
                    step_s += _step_seconds(out / kind / "run_record.csv")
                quality.update(_quality(kind, out / kind))
            except (OSError, LookupError, ValueError) as exc:
                found = [(f"outputs of vr {kind} unreadable: {exc!r}", False)]
            for what, ok in found:
                attempted += 1
                if ok == checks.KNOWN_DEFECT:
                    known_defects.append(what)
                elif not ok:
                    failed += 1
                    failures.append(what)

    return {
        "pass_s": [p[0] for p in passes],
        "command_s": {kind: [p[3][kind] for p in passes] for kind in commands},
        "peak_rss_mb": peak_rss_mb,
        "step_s": step_s,
        "quality": quality,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures)),
        "known_defects": known_defects,
        "layers": tracing.layer_metrics(tracer, len(passes)) if trace else None,
        "absent": tracer.absent if trace else [],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }


def main(argv: list[str]) -> int:
    mode, workdir, workload, seed = argv[0], Path(argv[1]), argv[2], int(argv[3])
    if mode == "setup":
        import vrbound.cli  # noqa: F401  (interpreter start-up and import are part of set-up)

        workloads.write_configs(workdir, workload, seed)
        return 0
    seconds, trace, result_path = float(argv[4]), argv[5] == "1", Path(argv[6])
    result = measure(workdir, workload, seed, seconds, trace)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
