#!/usr/bin/env python3
"""Pipeline benchmark: the paper sweep cold, re-rendered warm, and the
warm-up grid, each run through ``Session.execute(ExperimentSpec)``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 42 --seconds 5 --trace 0

One client executes one plan at a time (a closed loop) with the library's
default session policy.  Each execution runs in a freshly spawned Python
process on a fresh cache root (a copy of the filled root for
``sweep-warm``): back-to-back executions in one long-lived process slow
down by up to a fifth, so a fresh process keeps executions independent.
With ``--trace 0`` executions cycle over the input seeds drawn from
``--seed`` until ``--seconds`` of plan execution have accumulated (at
least three executions), and the end-to-end metrics are reported as
medians.  With ``--trace 1`` untraced and traced executions alternate and
the per-layer metrics of ``perfbench/tracer.py`` are reported instead,
with the tracing overhead.  Every execution's outputs are checked
(``perfbench/check.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for cache roots and results; ``.repro-cache/`` is ignored
#: by the repository's ``.gitignore``.
WORK = ROOT / ".repro-cache" / "perfbench"

PAPER_SWEEP = {
    "name": "paper-sweep", "size": "small",
    "organisations": ["multi-chip", "single-chip"],
    "scales": [64], "warmups": [0.25],
    "prefetchers": ["temporal", "stride"],
    "analyses": ["figure1", "figure2", "figure3", "figure4",
                 "table1", "table2", "table3", "table4", "table5"],
}
WARMUP_GRID = {
    "name": "warmup-grid", "size": "small",
    "workloads": ["Apache", "OLTP"],
    "organisations": ["multi-chip", "single-chip"],
    "scales": [64], "warmups": [0.25, 0.5, 0.75],
}
#: workload -> (spec fields, whether set-up fills the cache first).
WORKLOADS = {"sweep-cold": (PAPER_SWEEP, False),
             "sweep-warm": (PAPER_SWEEP, True),
             "warmup-grid": (WARMUP_GRID, False)}

#: How many input seeds one run draws from ``--seed``: the first is
#: ``--seed`` itself.  Executions cycle over them, so a run's median spans
#: several inputs instead of one.  ``sweep-warm`` keeps one, since each
#: input needs its own cold fill.
INPUT_SEEDS = {"sweep-cold": 3, "sweep-warm": 1, "warmup-grid": 3}
#: Fewest untraced executions a run takes, with and without tracing.
MIN_EXECUTIONS = {0: 3, 1: 1}
#: Extra fresh processes per run that only set up (import, prepare a cache
#: root), so the set-up median rests on more samples than executions.
SETUP_SAMPLES = 4

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "accesses_per_s": "1/s", "peak_rss_mib": "MiB",
                    "disk_mib": "MiB"}


# --------------------------------------------------------------------------- #
# host measurements
# --------------------------------------------------------------------------- #
def reset_peak_rss() -> bool:
    """Reset this process's resident high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib() -> float:
    with open("/proc/self/status") as fh:
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", fh.read())
    return int(match.group(1)) / 1024


def tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total


def store_bytes(root: Path) -> Dict[str, int]:
    """Bytes per store under one cache root, and in all."""
    return {"trace": tree_bytes(root / "traces"),
            "checkpoint": tree_bytes(root / "checkpoints"),
            "experiments": sum(tree_bytes(p) for p in root.glob("v*")),
            "obs": tree_bytes(root / "telemetry") + tree_bytes(root / "index"),
            "all": tree_bytes(root)}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def input_seeds(seed: int, count: int) -> List[int]:
    """``seed`` and ``count - 1`` further seeds derived from it."""
    derived = [int.from_bytes(hashlib.sha256(f"{seed}/{i}".encode())
                              .digest()[:4], "big") for i in range(1, count)]
    return [seed, *derived]


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------------------- #
# one plan execution, in a fresh process
# --------------------------------------------------------------------------- #
class Execution:
    """Everything measured around one ``Session.execute`` (picklable)."""

    def __init__(self, seed: int, spec_name: str) -> None:
        self.seed = seed
        self.spec_name = spec_name
        #: Imports in the fresh process plus cache-root preparation.
        self.setup_s = 0.0
        self.wall_s = self.cpu_s = self.peak_rss_mib = 0.0
        self.disk: Dict[str, int] = {}
        self.accesses = 0
        self.digests: Dict[str, Dict[str, Any]] = {}
        self.errors: Dict[str, str] = {}
        self.outputs: List[str] = []
        #: Per-layer metrics (``name -> (value, unit)``) of a traced run.
        self.layers: Optional[Dict[str, tuple]] = None
        self.spans: List[Dict[str, Any]] = []


def execute(fields: Dict[str, Any], root: Path, traced: bool = False,
            source: Optional[Path] = None, keep: bool = False,
            setup_only: bool = False) -> Execution:
    """Run the plan of ``fields`` once on a fresh cache root (a copy of
    ``source`` if given) and measure it, keeping the output digests for the
    checks.  The root is removed afterwards unless ``keep``.  With
    ``setup_only`` only the set-up is measured.

    Meant to run in a freshly spawned process (:func:`in_fresh_process`):
    the imports it times are then the ones a new client pays.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (imported by every plan)
    import repro.checkpoint  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.obs.index  # noqa: F401
    import repro.prefetch  # noqa: F401
    from repro.api import ExperimentSpec, Session
    from repro.api.plan import PlanExecutionError
    from repro.api.registry import SYSTEMS
    from repro.checkpoint.store import STATS as CHECKPOINT_STATS
    from repro.obs.metrics import REGISTRY
    from repro.trace import trace_params

    import check
    import tracer as tracing

    spec = ExperimentSpec.from_dict(fields).resolved()
    run = Execution(spec.seed, spec.name)
    if source is not None:
        shutil.copytree(source, root)
    else:
        root.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(root)
    # The default policy with a worker budget of one (``--jobs 1``): the
    # plan runs in this one process, without the summarize-stage pools.
    session = Session(cache_dir=str(root), max_workers=1)
    # A fresh process has nothing to clear; these keep the isolation
    # (no memo, no counters from earlier plans) true wherever this runs.
    session.clear_caches(disk=False)
    REGISTRY.reset()
    run.setup_s = time.perf_counter() - t0
    if setup_only:
        shutil.rmtree(root, ignore_errors=True)
        return run
    before = store_bytes(root)

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    gc.collect()
    reset_peak_rss()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        try:
            result = session.execute(spec)
        except PlanExecutionError as exc:
            result = exc.result
        run.wall_s = time.perf_counter() - t0
        run.cpu_s = time.process_time() - cpu0
        run.peak_rss_mib = peak_rss_mib()
    finally:
        if tracer is not None:
            tracer.uninstall()

    run.errors = {key: repr(err) for key, err in result.errors.items()}
    run.digests = check.digests(result)
    run.outputs = check.expected_outputs(spec)
    after = store_bytes(root)
    run.disk = {name: after[name] - before[name] for name in after}
    run.disk["total"] = after["all"]
    store = session.trace_store
    for cell in spec.cells():
        reader = store.open(trace_params(
            cell.workload, SYSTEMS.get(cell.organisation).n_cpus, spec.seed,
            spec.size))
        run.accesses += reader.n_accesses if reader is not None else 0
    if tracer is not None:
        cancelled = set(result.errors)
        for stage in result.plan.order():  # topological: one pass suffices
            if any(dep in cancelled for dep in stage.deps):
                cancelled.add(stage.key)
        run.layers = per_layer(tracer, run, n_stages=len(result.statuses),
                               failed_stages=len(cancelled),
                               warm_starts=CHECKPOINT_STATS.warm_starts)
        run.spans = tracer.records()
    if not keep:
        shutil.rmtree(root, ignore_errors=True)
    return run


def in_fresh_process(**kwargs: Any) -> Execution:
    """:func:`execute` in a new Python process, waited for.

    A plain child process rather than a ``multiprocessing`` pool, whose
    resource tracker would outlive the benchmark.  Arguments and result
    travel through a pickle file beside the cache root.
    """
    exchange = kwargs["root"].with_name(kwargs["root"].name + ".pickle")
    exchange.parent.mkdir(parents=True, exist_ok=True)
    exchange.write_bytes(pickle.dumps(kwargs))
    try:
        # run() kills and waits for the child if this process is interrupted.
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--execute", str(exchange)], check=True,
                       stdin=subprocess.DEVNULL)
        return pickle.loads(exchange.read_bytes())
    finally:
        exchange.unlink(missing_ok=True)


def execute_child(exchange: Path) -> int:
    """Child side of :func:`in_fresh_process`."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    run = execute(**pickle.loads(exchange.read_bytes()))
    exchange.write_bytes(pickle.dumps(run))
    return 0


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def end_to_end(runs: List[Execution], setup_s: float
               ) -> Dict[str, List[float]]:
    """Every end-to-end metric's samples over the untraced executions."""
    return {"setup_s": [setup_s],
            "wall_s": [r.wall_s for r in runs],
            "cpu_s": [r.cpu_s for r in runs],
            "accesses_per_s": [r.accesses / r.wall_s for r in runs],
            "peak_rss_mib": [r.peak_rss_mib for r in runs],
            "disk_mib": [r.disk["total"] / 2 ** 20 for r in runs]}


def per_layer(t, run: Execution, n_stages: int, failed_stages: int,
              warm_starts: int) -> Dict[str, tuple]:
    """``name -> (value, unit)`` for one traced execution."""
    import tracer as tracing
    s, n = t.self_s, t.counts

    def rate(kind: str) -> float:
        seconds = t.split_s[f"mem.{kind}.protocol"]
        return n[f"mem.{kind}.accesses"] / seconds if seconds else 0.0

    simulate = sorted(t.durations["api.simulate_stage"]) or [0.0]
    out = {
        "workloads.generate_s": (s["workloads.generate"], "s"),
        "workloads.accesses": (n["workloads.accesses"], "count"),
        "trace.encode_s": (s["trace.encode"], "s"),
        "trace.bytes": (run.disk["trace"], "bytes"),
        "trace.decode_s": (s["trace.decode"], "s"),
        "trace.epochs_decoded": (n["trace.decode.calls"], "count"),
        "trace.summarize_s": (s["trace.summarize"], "s"),
        "mem.protocol_s": (s["mem.protocol"], "s"),
        "mem.accesses": (n["mem.accesses"], "count"),
        "mem.multichip.accesses_per_s": (rate("multichip"), "1/s"),
        "mem.singlechip.accesses_per_s": (rate("singlechip"), "1/s"),
        "mem.offchip_misses": (n["mem.offchip_misses"], "count"),
        "mem.l1_misses": (n["mem.l1_misses"], "count"),
        "mem.l2_misses": (n["mem.l2_misses"], "count"),
        "mem.evictions": (n["mem.evictions"], "count"),
        "checkpoint.snapshot_s": (s["checkpoint.snapshot"], "s"),
        "checkpoint.write_s": (s["checkpoint.write"], "s"),
        "checkpoint.snapshots": (n["checkpoint.snapshot.calls"], "count"),
        "checkpoint.bytes": (run.disk["checkpoint"], "bytes"),
        "checkpoint.restore_s": (s["checkpoint.restore"], "s"),
        "checkpoint.warm_starts": (warm_starts, "count"),
        "checkpoint.prefix_s": (s["checkpoint.prefix"], "s"),
        "core.sequitur_s": (s["core.sequitur"], "s"),
        "core.classify_s": (s["core.classify"], "s"),
        "core.modules_s": (s["core.modules"], "s"),
        "core.stride_s": (s["core.stride"], "s"),
        "core.lengths_s": (s["core.lengths"], "s"),
        "core.reuse_s": (s["core.reuse"], "s"),
        "prefetch.coverage_s": (s["prefetch.coverage"], "s"),
        "prefetch.evaluations": (n["prefetch.coverage.calls"], "count"),
        "experiments.store_save_s": (s["experiments.store_save"], "s"),
        "experiments.store_load_s": (s["experiments.store_load"], "s"),
        "experiments.store_bytes": (run.disk["experiments"], "bytes"),
        "experiments.render_s": (s["experiments.render"], "s"),
        "api.simulate_stage_p50_s": (statistics.median(simulate), "s"),
        "api.simulate_stage_max_s": (simulate[-1], "s"),
        "api.stages": (n_stages, "count"),
        "api.stages_failed": (failed_stages, "count"),
        "obs.telemetry_s": (s["obs.telemetry"], "s"),
        "obs.bytes": (run.disk["obs"], "bytes"),
    }
    layers = t.layer_self_s()
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (layers[layer], "s")
    attributed = sum(layers.values())
    out["attributed_frac"] = (attributed / run.wall_s, "frac")
    out["unattributed_s"] = (run.wall_s - attributed, "s")
    return out


def medians(samples: List[Dict[str, tuple]]) -> Dict[str, tuple]:
    """Per-metric medians over traced executions (counts stay whole)."""
    out = {}
    for name, (_, unit) in samples[0].items():
        values = [sample[name][0] for sample in samples]
        pick = (statistics.median_low
                if all(isinstance(v, int) for v in values)
                else statistics.median)
        out[name] = (pick(values), unit)
    return out


# --------------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------------- #
def failed_outputs(runs: List[Execution],
                   reference: Dict[str, Any]) -> List[List[str]]:
    """Failed output keys of each execution (printing why).

    Every execution must produce every output and agree with the first
    execution of the same input seed (for ``sweep-warm``, the cold fill)
    and with what an earlier run of the same source and seed produced.  At
    the reference seed the outputs must equal the pinned digests; at any
    other seed they must satisfy the Figure 2 shape assertions.
    """
    import check
    firsts: Dict[int, Dict[str, Any]] = {}
    failures = []
    for run in runs:
        found = check.flatten(run.digests)
        bad = {key for key in run.outputs if key not in found}
        if run.seed in firsts:
            bad |= set(check.mismatches(found, firsts[run.seed]))
        else:
            firsts[run.seed] = found
            bad |= set(check.recall(WORK / "digests", SRC, run.spec_name,
                                    run.seed, found))
        if run.seed == check.REFERENCE_SEED and reference:
            bad |= set(check.mismatches(found, reference))
        elif run.seed != check.REFERENCE_SEED:
            for text, cells in check.figure2_shape(run.digests["cells"]):
                print(f"shape assertion failed (seed {run.seed}): {text}")
                bad |= set(cells)
        for key, error in run.errors.items():
            print(f"stage {key} failed: {error}")
            bad.add(f"stage {key}")
        for key in sorted(bad):
            print(f"output failed its check (seed {run.seed}): {key}")
        failures.append(sorted(bad))
    return failures


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
def print_steadiness(series: Dict[str, List[float]]) -> None:
    print(f"{'end-to-end metric':<18}{'unit':>6}{'n':>4}{'q1':>14}"
          f"{'median':>14}{'q3':>14}")
    for name, values in series.items():
        q1, q2, q3 = quartiles(values)
        print(f"{name:<18}{END_TO_END_UNITS[name]:>6}{len(values):>4}"
              f"{q1:>14.4f}{q2:>14.4f}{q3:>14.4f}")


def print_layers(metrics: Dict[str, tuple], n: int) -> None:
    print(f"{'per-layer metric (median of ' + str(n) + ')':<34}{'unit':>7}"
          f"{'value':>18}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.4f}" if isinstance(value, float) else f"{value:,}"
        print(f"{name:<34}{unit:>7}{shown:>18}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="pin this run's digests as the reference "
                             "(reference seed only)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy
    import check

    if args.write_reference and args.seed != check.REFERENCE_SEED:
        parser.error(f"--write-reference needs --seed {check.REFERENCE_SEED}")
    fields, warm = WORKLOADS[args.workload]
    seeds = input_seeds(args.seed, 1 if args.trace else
                        INPUT_SEEDS[args.workload])
    reference = {}
    if args.seed == check.REFERENCE_SEED and not args.write_reference:
        pinned = check.load_reference(fields["name"])
        if not pinned:
            print(f"error: {check.REFERENCE_PATH} pins no digests for "
                  f"{fields['name']}", file=sys.stderr)
            return 2
        reference = check.flatten(pinned)

    env = {"workload": args.workload, "seed": args.seed,
           "input_seeds": seeds, "nproc": os.cpu_count(),
           "python": platform.python_version(),
           "numpy": numpy.__version__, "commit": git_commit(),
           "trace": args.trace, "peak_rss_reset": reset_peak_rss(),
           "spec": {**fields, "seed": args.seed}}
    print("# " + json.dumps(env))

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    filled = run_dir / "filled" if warm else None
    try:
        fill = (in_fresh_process(fields={**fields, "seed": seeds[0]},
                                 root=filled, keep=True) if warm else None)
        setups = [in_fresh_process(fields={**fields, "seed": seeds[0]},
                                   root=run_dir / f"setup-{i}",
                                   source=filled, setup_only=True).setup_s
                  for i in range(SETUP_SAMPLES)]
        untraced: List[Execution] = []
        traced: List[Execution] = []
        measured = 0.0
        while (len(untraced) < MIN_EXECUTIONS[args.trace]
               or measured < args.seconds):
            seed = seeds[len(untraced) % len(seeds)]
            for mode in ((False, True) if args.trace else (False,)):
                run = in_fresh_process(
                    fields={**fields, "seed": seed}, traced=mode,
                    root=run_dir / f"execution-{len(untraced)}-{mode}",
                    source=filled)
                measured += run.wall_s
                (traced if mode else untraced).append(run)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    runs = ([fill] if fill else []) + untraced + traced
    failures = failed_outputs(runs, reference)
    attempted = sum(len(run.outputs) for run in runs)
    failed = min(attempted, sum(len(bad) for bad in failures))
    if args.write_reference and not failed:
        check.write_reference(fields["name"], runs[0].digests)
        print(f"pinned {fields['name']} digests in {check.REFERENCE_PATH}")

    fill_s = fill.setup_s + fill.wall_s if fill else 0.0
    setups += [r.setup_s for r in untraced + traced]
    setup_s = fill_s + statistics.median(setups)
    series = end_to_end(untraced, setup_s)
    print(f"set-up: median imports + cache root {setup_s - fill_s:.4f} s "
          f"over {len(setups)} fresh processes, cache fill {fill_s:.4f} s")
    print("wall_s per execution: untraced "
          + " ".join(f"{r.wall_s:.3f}(seed {r.seed})" for r in untraced)
          + (" | traced " + " ".join(f"{r.wall_s:.3f}" for r in traced)
             if traced else ""))
    print_steadiness(series)
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} "
          f"outputs over {len(runs)} executions)")

    if args.trace:
        metrics = medians([{**t.layers, "trace_overhead_s": (
                               t.wall_s - u.wall_s, "s")}
                           for t, u in zip(traced, untraced)])
        print_layers(metrics, len(traced))
    else:
        metrics = {name: (statistics.median(values), END_TO_END_UNITS[name])
                   for name, values in series.items()}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"env": env, "end_to_end": series, "failed": failed,
         "attempted": attempted,
         "metrics": {k: v[0] for k, v in metrics.items()}}, indent=1) + "\n")
    if traced:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"env": env, "executions": [t.spans for t in traced]}))

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--execute"] and len(sys.argv) == 3:
        sys.exit(execute_child(Path(sys.argv[2])))
    sys.exit(main())
