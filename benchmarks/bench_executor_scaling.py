"""Executor-scaling benchmark: one grid, every backend, cold wall-clock.

The pluggable executor layer exists so independent grid cells overlap; this
benchmark checks that the overlap is real.  It executes the same
multi-combo experiment spec (several workloads x organisations x warmups,
so the stage DAG has genuinely independent branches) under every registered
backend, each starting from its own cold cache root, and records the
end-to-end wall-clock plus the per-stage status mix.

The script **asserts** that the ``process`` backend beats ``serial`` on the
multi-combo grid (by at least ``--min-speedup``, default 1.05x) and exits
non-zero otherwise; ``dispatch`` is reported but not asserted (it pays a
JSON/receipt round trip per stage by design).  On a
machine without real parallel capacity (fewer than two cores, or
``--jobs 1``) the assertion is skipped and recorded as such — overlap
cannot beat serial without a second core.  Results land in
``BENCH_executor_scaling.json`` so CI tracks the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_executor_scaling.py \
        [--size tiny] [--jobs 4] [--repeats 1] \
        [--out BENCH_executor_scaling.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro import __version__
from repro.api import EXECUTOR_NAMES, ExperimentSpec, Session
from repro.experiments import runner
from repro.experiments.store import CACHE_DIR_ENV


def grid_spec(size: str, seed: int) -> ExperimentSpec:
    """A grid with independent (scale, warmup) combos to overlap."""
    return ExperimentSpec(
        name="executor-scaling", size=size, seed=seed,
        workloads=("Apache", "OLTP"),
        organisations=("multi-chip", "single-chip"),
        scales=(64,), warmups=(0.25, 0.5),
        analyses=("figure2",))


def bench_backend(name: str, spec: ExperimentSpec, jobs: int,
                  repeats: int) -> dict:
    """Cold plan execution under one backend; best of ``repeats`` runs."""
    durations = []
    statuses: dict = {}
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix=f"bench-exec-{name}-") as root:
            os.environ[CACHE_DIR_ENV] = root
            runner.clear_cache()
            session = Session(max_workers=jobs, executor=name)
            start = time.perf_counter()
            outcome = session.execute(spec)
            durations.append(time.perf_counter() - start)
            statuses = {}
            for status in outcome.statuses.values():
                statuses[status] = statuses.get(status, 0) + 1
            runner.clear_cache()
    return {"executor": name,
            "cold_s": round(min(durations), 3),
            "runs": [round(d, 3) for d in durations],
            "stages": statuses}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="tiny",
                        choices=("tiny", "small", "default", "large"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="worker budget per backend (default: "
                             "min(4, cpu count))")
    parser.add_argument("--repeats", type=int, default=1,
                        help="cold executions per backend (best is kept)")
    parser.add_argument("--min-speedup", type=float, default=1.05,
                        help="required serial/process wall-clock ratio "
                             "(default: 1.05)")
    parser.add_argument("--out", default="BENCH_executor_scaling.json")
    args = parser.parse_args(argv)

    previous_cache = os.environ.get(CACHE_DIR_ENV)
    spec = grid_spec(args.size, args.seed)
    n_cells = len(spec.cells())
    print(f"grid: {n_cells} cells "
          f"({len(spec.resolved().warmups)} independent combos), "
          f"size={args.size}, jobs={args.jobs}")

    results = []
    try:
        for name in EXECUTOR_NAMES:
            row = bench_backend(name, spec, args.jobs, args.repeats)
            results.append(row)
            print(f"{name:<9} cold {row['cold_s']:.2f}s  "
                  f"stages {row['stages']}")
    finally:
        if previous_cache is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = previous_cache

    by_name = {row["executor"]: row for row in results}
    speedup = by_name["serial"]["cold_s"] / max(by_name["process"]["cold_s"],
                                                1e-9)
    can_overlap = args.jobs >= 2 and (os.cpu_count() or 1) >= 2
    passed = speedup >= args.min_speedup if can_overlap else True

    payload = {
        "benchmark": "executor_scaling",
        "repro_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "params": {"size": args.size, "seed": args.seed, "jobs": args.jobs,
                   "repeats": args.repeats,
                   "min_speedup": args.min_speedup,
                   "n_cells": n_cells},
        "serial_over_process_speedup": round(speedup, 3),
        "asserted": can_overlap,
        "passed": passed,
        "results": results,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    verdict = ("OK" if passed else "FAIL") if can_overlap \
        else "SKIPPED (needs >=2 cores and --jobs >= 2)"
    print(f"wrote {out} ({len(results)} backends); process backend is "
          f"{speedup:.2f}x serial on the multi-combo grid "
          f"(need >= {args.min_speedup:.2f}x) -> {verdict}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
