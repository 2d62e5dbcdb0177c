"""poromor benchmark: time to a goal of stated accuracy, by workload.

    python3 perfbench/run.py --workload mandel --seed 1 --seconds 35 --trace 0

Run from the root of a source tree.  The package is imported from ``src/``
of that tree, never from an installed copy.  A run first builds the problem
a few times (``setup_s``), then runs as many whole operations (see
``workloads.pipeline``) as fill about ``--seconds`` on the reference
machine, checking each one against the pinned reference.  It prints the environment, one line per
operation and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, medians over the run's operations; with
``--trace 1`` probes wrap the package's public calls and the metrics are
per-layer self times and counts, medians over the traced operations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5  # builds before the first operation and after each one

END_TO_END_UNITS = {
    "time_to_goal_s": "s",
    "setup_s": "s",
    "fom_s": "s",
    "moredwr_s": "s",
    "peak_rss_mb": "MB",
    "fom_solves": "count",
    "rom_dim": "count",
}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package() -> None:
    """Put this tree's src/ first on the path and import poromor from it."""
    init = ROOT / "src" / "poromor" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no package source at {init.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import poromor

    if Path(poromor.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: poromor imported from {poromor.__file__}, "
                         f"not from {init}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in (
            "POROMOR_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _median(values, unit):
    """Median; a count stays a whole number."""
    if unit == "count":
        return statistics.median_low(values)
    return statistics.median(values)


@dataclass
class Run:
    setup: list = field(default_factory=list)    # build_problem seconds
    passed: list = field(default_factory=list)   # outcomes that passed the gate
    counters: list = field(default_factory=list)  # drift counters per outcome
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0


def measure(workload, spec, scale: float, seconds: float, tracer) -> Run:
    """Set-up builds and the gated operations of a run of ``seconds``."""
    import workloads as wl
    from poromor import problems

    clock = time.perf_counter
    run = Run()

    def build_repeatedly():
        for _ in range(SETUP_REPS):
            t = clock()
            problems.build_problem(spec)
            run.setup.append(clock() - t)

    build_repeatedly()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
        for _ in range(workload.operations(seconds)):
            run.attempted += 1
            outcome, reasons = wl.run_operation(workload, spec, scale,
                                                Path(out), tracer)
            if run.attempted == 1:
                # what a one-operation process such as the CLI peaks at;
                # later operations add allocator carry-over, not program need
                run.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if outcome is not None:
                run.counters.append(wl.counters(outcome))
            if reasons:
                run.failed += 1
                print(json.dumps({"operation": run.attempted, "failed": reasons}),
                      flush=True)
            else:
                run.passed.append(outcome)
                record = outcome.record
                print(json.dumps({
                    "operation": run.attempted, "times": outcome.times,
                    "J_fom": outcome.J_fom, "J_rom": record.J_rom,
                    "eta_rel": record.eta_rel, "e_rel": record.e_rel,
                    "speedup": outcome.times["fom_s"] / outcome.times["moredwr_s"],
                    "counters": run.counters[-1]}), flush=True)
            gc.collect()
            build_repeatedly()
    return run


def end_to_end_metrics(run: Run) -> dict:
    import workloads as wl

    per_op = [wl.end_to_end(o) for o in run.passed]
    values = {name: _median([v[name] for v in per_op], END_TO_END_UNITS[name])
              for name in per_op[0]}
    values["setup_s"] = statistics.median(
        run.setup + [o.times["setup_s"] for o in run.passed])
    values["peak_rss_mb"] = run.peak_rss_mb
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(run: Run, solver: str, tracer) -> tuple[dict, list]:
    """Per-layer medians and the probes that should have been reached but
    recorded no call."""
    import workloads as wl

    metrics = {name: {"value": _median([fn(o) for o in run.passed], unit),
                      "unit": unit}
               for name, (unit, fn) in wl.PER_LAYER.items()}
    silent = [p.target for p in wl.PROBES
              if p.solver in (None, solver) and tracer.calls[p.target] == 0]
    middle = sorted(run.passed, key=lambda o: o.times["time_to_goal_s"])[
        len(run.passed) // 2]
    print(json.dumps({"phase_layer_self_s": wl.phase_table(middle)}), flush=True)
    print(json.dumps({"shares": wl.shares(middle)}), flush=True)
    return metrics, silent


def main(argv=None) -> int:
    args = _args(argv)
    _import_package()
    import workloads as wl
    from spans import Tracer

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("benchmark: --seconds must be positive")
    workload = wl.WORKLOADS[args.workload]
    scale = wl.traction_scale(args.seed)
    spec = wl.make_spec(workload.problem, workload.cells, workload.steps,
                        workload.tol, scale)
    print(json.dumps({"environment": environment()}), flush=True)
    print(json.dumps({"workload": workload.name, "fingerprint": spec.fingerprint,
                      "traction_scale": scale, "trace": args.trace}), flush=True)

    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            for probe in wl.PROBES:
                tracer.install(probe)
        run = measure(workload, spec, scale, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    seen = run.counters
    drift = [c for c in seen if c != seen[0]]
    if drift:
        print(json.dumps({"drift": "counters differ between operations",
                          "first": seen[0], "other": drift[0]}), flush=True)
    if seen and {k: seen[0][k] for k in workload.counters} != workload.counters:
        print(json.dumps({"drift": "counters differ from the pinned ones",
                          "pinned": workload.counters, "measured": seen[0]}),
              flush=True)
    if not run.passed:
        print("benchmark: no operation passed the correctness gate",
              file=sys.stderr)
        return 1

    silent = []
    if tracer is None:
        metrics = end_to_end_metrics(run)
    else:
        metrics, silent = per_layer_metrics(run, spec.solver.method.value, tracer)
        if silent:
            print(json.dumps({"probes without calls": silent}), flush=True)
    print(json.dumps({"correct": run.failed == 0 and not drift and not silent,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
