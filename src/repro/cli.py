"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
run
    One (workload, context) pair through the streaming pipeline; prints the
    bundle's headline numbers (misses, MPKI, stream fractions, top classes).
    With ``--spec FILE`` runs every cell of a declarative experiment spec.
suite
    The full evaluation sweep (all workloads x all contexts) through the
    plan scheduler, on a process pool by default; a second invocation is
    served from the disk cache.  With ``--spec FILE`` the sweep grid comes
    from the spec.  Every sweep records a telemetry run (see ``stats``).
report
    Render the paper's figures and tables from (cached) suite results.
    With ``--spec FILE`` renders the spec's requested analyses; with
    ``--where COL<OP>VAL`` filters answer straight from the run index
    without unpickling any artifact.
query
    Ask the sqlite run index about past runs: pick a table (``cells``,
    ``runs``, ``stages``, ``spans``, ``artifacts``, ``workers``,
    ``executions``), filter with repeatable ``--where``, group and
    aggregate with ``--group-by``/``--agg``, and render as a table,
    JSON, or CSV.  The index is refreshed incrementally on every
    invocation (``--rebuild`` re-ingests from scratch).
spec
    Work with declarative experiment specs: ``validate`` a TOML file,
    ``plan`` to print the capture -> simulate -> analyze -> render stage
    DAG it resolves to (without executing anything); ``plan --format
    json|dot`` exports the DAG for inspection or external schedulers.
    When the telemetry store holds prior runs, ``plan`` annotates each
    stage kind with its observed mean wall/cpu cost.
stats
    Inspect recorded run telemetry: with no argument list the runs under
    ``<cache>/telemetry/``, with a run id (or ``--last``) print per-stage
    and per-kind timing tables (wall, cpu, peak RSS) from the run's span
    records, plus any ``--profile`` .prof files.
trace
    Manage stored access traces: ``capture`` one ahead of time, ``import``
    an external dump (valgrind-lackey, ChampSim-style records, CSV/JSONL)
    as workload ``import:<name>``, ``list`` the store with each trace's
    origin (captured vs imported), ``info`` for a per-epoch breakdown
    plus the provenance sidecar.
fuzz
    The seeded workload fuzzer: ``describe`` parses a
    ``fuzz:<base>[+<base>...][,knob=value...]`` recipe and prints its
    canonical form; ``gen`` generates the recipe's deterministic stream
    and captures it into the trace store.  Recipes are usable directly as
    spec/CLI workloads (``workload = "fuzz:Apache+OLTP,drift=0.3"``).
checkpoint
    Manage epoch-boundary system checkpoints: ``list`` the store, ``info``
    for one run's stored epochs and resume point (or, when the run left
    none, the shared warm-start prefix of its warm-up group).
worker
    Run a long-lived dispatch worker: poll the ``<cache>/dispatch/`` work
    queue, claim items under an expiring lease, heartbeat while executing,
    acknowledge with receipts.  Start as many as you like, on any host
    mounting the cache root.
serve
    The HTTP front end: accept experiment-spec submissions (``POST
    /submit``), enqueue their plans onto the dispatch queue, and stream
    scheduler lifecycle events back as NDJSON.  Pair with one or more
    ``worker`` processes sharing the cache root.
submit
    The matching client: POST a spec file to a ``serve`` endpoint, render
    progress from the event stream (``--progress``), print the rendered
    artifacts exactly like ``report --spec``.
queue
    Inspect the dispatch work queue: ``status`` for counts plus the
    worker fleet's published heartbeat records and live leases (the
    offline twin of ``GET /workers``), ``list`` for per-item state
    (pending / leased / done).
clear-cache
    Empty the versioned on-disk result store, the trace store, the
    checkpoint store, the dispatch work queue, the run index, *and*
    recorded run telemetry.

Every execution subcommand builds a :class:`repro.api.Session` from its
flags and drives the pipeline through it.  All subcommands share
``--size/--seed/--scale`` run parameters and the ``--cache-dir`` /
``--no-disk-cache`` cache controls; ``run`` and ``suite`` additionally
accept ``--replay/--no-replay`` to control access-stream capture/replay
through the trace store (default: replay) and
``--checkpoint/--no-checkpoint`` / ``--resume/--no-resume`` to control
crash-resume snapshots of long simulations and resuming from them (default:
both on).

Spec-driven executions additionally accept ``--executor
serial|process|dispatch|auto`` to pick the stage execution backend
(default: ``process``, or ``serial`` with ``--jobs 1``; ``auto`` runs a
plan with at most one backend stage serially), ``--progress``
to render the scheduler's stage lifecycle events live on stderr, and
``--profile`` to cProfile every stage into the run's telemetry directory.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import time
from typing import List, Optional, Sequence

from .api.executor import EXECUTOR_NAMES
from .mem.config import DEFAULT_SCALE
from .mem.trace import ALL_CONTEXTS
from .workloads import WORKLOAD_NAMES

#: Artifact names accepted by ``report``.
REPORT_ARTIFACTS = ("figure1", "figure2", "figure3", "figure4",
                    "table1", "table2", "table3", "table4", "table5")


def _add_run_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", default="small",
                        choices=("tiny", "small", "default", "large"),
                        help="work-volume preset (default: small)")
    parser.add_argument("--seed", type=int, default=42,
                        help="workload RNG seed (default: 42)")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                        help=f"cache scale-down factor (default: "
                             f"{DEFAULT_SCALE})")
    parser.add_argument("--replay", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="capture access streams on first run and replay "
                             "them from the trace store afterwards "
                             "(default: --replay)")
    parser.add_argument("--checkpoint", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="let long replayed simulations snapshot an "
                             "epoch boundary for crash-resume, and publish "
                             "warm-start prefixes (default: --checkpoint)")
    parser.add_argument("--resume", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="resume a replayed simulation from its latest "
                             "stored checkpoint instead of simulating from "
                             "access zero (default: --resume)")
    parser.add_argument("--warm-start", action=argparse.BooleanOptionalAction,
                        default=True, dest="warm_start",
                        help="share simulation prefixes across grid cells "
                             "that differ only in warm-up: plan a prefix "
                             "stage per group and warm-start member cells "
                             "from its checkpoint (default: --warm-start)")


def _add_spec_exec_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--executor", default=None,
                        choices=EXECUTOR_NAMES + ("auto",),
                        help="stage execution backend for --spec runs; "
                             "'auto' picks serial for a plan with at most "
                             "one backend stage, process otherwise "
                             "(default: process, or serial with --jobs 1)")
    parser.add_argument("--progress", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="render stage lifecycle events live on stderr "
                             "during --spec execution")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each stage of a --spec execution, "
                             "writing per-stage .prof files into the run's "
                             "telemetry directory (see `repro stats`)")


def _add_cache_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="disk-cache root (default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="disable the on-disk result store for this run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Temporal streams in commercial server applications "
                    "(IISWC'08) — reproduction driver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="simulate and analyse one workload in one context "
                    "(or every cell of a --spec)")
    p_run.add_argument("workload", nargs="?", default=None,
                       help=f"one of {', '.join(WORKLOAD_NAMES)}")
    p_run.add_argument("context", nargs="?", default=None,
                       choices=ALL_CONTEXTS)
    p_run.add_argument("--spec", default=None, metavar="FILE",
                       help="declarative experiment spec (TOML); replaces "
                            "the positional workload/context")
    p_run.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for --spec execution "
                            "(default: cpu count; 1 runs inline)")
    _add_run_params(p_run)
    _add_spec_exec_params(p_run)
    _add_cache_params(p_run)

    p_suite = sub.add_parser(
        "suite", help="run the full evaluation sweep through the plan "
                      "scheduler")
    p_suite.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES),
                         metavar="NAME", help="subset of workloads to sweep")
    p_suite.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes (default: cpu count; 1 runs "
                              "inline without a pool)")
    p_suite.add_argument("--spec", default=None, metavar="FILE",
                         help="declarative experiment spec (TOML); the sweep "
                              "grid comes from the spec instead of the flags")
    _add_run_params(p_suite)
    _add_spec_exec_params(p_suite)
    _add_cache_params(p_suite)

    p_report = sub.add_parser(
        "report", help="render figures/tables from (cached) suite results")
    p_report.add_argument("--artifact", default="all",
                          choices=REPORT_ARTIFACTS + ("all",),
                          help="which artifact to render (default: all)")
    p_report.add_argument("--workloads", nargs="+",
                          default=list(WORKLOAD_NAMES), metavar="NAME")
    p_report.add_argument("--spec", default=None, metavar="FILE",
                          help="declarative experiment spec (TOML); renders "
                               "the spec's requested analyses")
    p_report.add_argument("--where", action="append", default=None,
                          metavar="COL<OP>VAL",
                          help="answer from the sqlite run index instead of "
                               "unpickling results: filter recorded simulate "
                               "cells (repeatable; e.g. --where "
                               "workload=Apache --where 'wall_s>=0.5')")
    p_report.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes for --spec execution")
    # The figure/table drivers expose size and seed only; no --scale here,
    # so the report always matches a suite run at the same size/seed.
    p_report.add_argument("--size", default="small",
                          choices=("tiny", "small", "default", "large"),
                          help="work-volume preset (default: small)")
    p_report.add_argument("--seed", type=int, default=42,
                          help="workload RNG seed (default: 42)")
    _add_spec_exec_params(p_report)
    _add_cache_params(p_report)

    p_spec = sub.add_parser(
        "spec", help="validate or plan a declarative experiment spec")
    ssub = p_spec.add_subparsers(dest="spec_command", required=True)
    s_validate = ssub.add_parser(
        "validate", help="parse a spec file and report every problem")
    s_validate.add_argument("file", help="spec file (TOML)")
    s_plan = ssub.add_parser(
        "plan", help="print the stage DAG a spec resolves to (no execution)")
    s_plan.add_argument("file", help="spec file (TOML)")
    s_plan.add_argument("--format", default="text",
                        choices=("text", "json", "dot"),
                        help="output form: human-readable text, JSON "
                             "(nodes/deps/kinds for external schedulers), "
                             "or Graphviz dot (default: text)")
    _add_cache_params(s_plan)

    p_stats = sub.add_parser(
        "stats",
        help="per-stage timing tables from recorded run telemetry")
    p_stats.add_argument("run", nargs="?", default=None, metavar="RUN",
                         help="telemetry run id (directory name under "
                              "<cache>/telemetry/); omit to list runs")
    p_stats.add_argument("--last", action="store_true",
                         help="show the most recent run")
    _add_cache_params(p_stats)

    p_query = sub.add_parser(
        "query",
        help="filter/aggregate the sqlite run index (no unpickling)")
    from .obs.index import TABLE_NAMES
    p_query.add_argument("table", nargs="?", default="cells",
                         choices=TABLE_NAMES,
                         help="which index table to query (default: cells — "
                              "one row per recorded simulate cell)")
    p_query.add_argument("--where", action="append", default=None,
                         metavar="COL<OP>VAL",
                         help="row filter, repeatable; ops = != > < >= <= ~ "
                              "(substring), e.g. --where workload=Apache "
                              "--where 'wall_s>=0.5'")
    p_query.add_argument("--select", default=None, metavar="COL,COL",
                         help="comma-separated columns to print "
                              "(default: all)")
    p_query.add_argument("--group-by", default=None, metavar="COL,COL",
                         help="group rows and print one row per group "
                              "(with --agg, or a plain count)")
    p_query.add_argument("--agg", default=None, metavar="AGG,AGG",
                         help="aggregates: count or fn:col with fn in "
                              "count/sum/mean/min/max, e.g. "
                              "--agg count,mean:wall_s")
    p_query.add_argument("--order-by", default=None, metavar="COL",
                         help="sort the output rows by this column")
    p_query.add_argument("--desc", action="store_true",
                         help="sort descending (with --order-by)")
    p_query.add_argument("--limit", type=int, default=None, metavar="N",
                         help="print at most N rows")
    p_query.add_argument("--format", default="table",
                         choices=("table", "json", "csv"),
                         help="output form (default: table)")
    p_query.add_argument("--rebuild", action="store_true",
                         help="drop the index database and re-ingest "
                              "everything from disk first")
    p_query.add_argument("--no-ingest", action="store_true",
                         help="query the index as-is without refreshing it")
    _add_cache_params(p_query)

    p_trace = sub.add_parser(
        "trace", help="manage stored access traces "
                      "(capture/import/list/info)")
    tsub = p_trace.add_subparsers(dest="trace_command", required=True)

    t_capture = tsub.add_parser(
        "capture", help="generate one workload's access stream and store it")
    t_capture.add_argument("workload",
                           help=f"one of {', '.join(WORKLOAD_NAMES)}")
    t_capture.add_argument("--cpus", type=int, default=16, metavar="N",
                           help="CPUs the stream is interleaved over "
                                "(16 = multi-chip, 4 = single-chip; "
                                "default: 16)")
    t_capture.add_argument("--size", default="small",
                           choices=("tiny", "small", "default", "large"),
                           help="work-volume preset (default: small)")
    t_capture.add_argument("--seed", type=int, default=42,
                           help="workload RNG seed (default: 42)")
    t_capture.add_argument("--force", action="store_true",
                           help="re-capture even if the trace already exists")
    _add_cache_params(t_capture)

    t_import = tsub.add_parser(
        "import",
        help="import an external trace dump into the trace store")
    t_import.add_argument("file", help="source trace file")
    from .ingest import IMPORTERS
    t_import.add_argument("--format", required=True, dest="fmt",
                          metavar="FMT",
                          help=f"dump format, one of "
                               f"{', '.join(IMPORTERS.names())} "
                               f"(aliases accepted)")
    t_import.add_argument("--name", default=None, metavar="NAME",
                          help="import name; the trace becomes workload "
                               "'import:<name>' (default: the file stem)")
    t_import.add_argument("--cpus", type=int, nargs="+", default=[16, 4],
                          metavar="N",
                          help="CPU count(s) to import for — one trace per "
                               "value; cover every organisation the target "
                               "spec uses (default: 16 4)")
    t_import.add_argument("--size", default="small",
                          choices=("tiny", "small", "default", "large"),
                          help="size preset of the synthetic trace key "
                               "(default: small)")
    t_import.add_argument("--seed", type=int, default=42,
                          help="seed of the synthetic trace key "
                               "(default: 42)")
    t_import.add_argument("--epoch-size", type=int, default=None,
                          metavar="N",
                          help="accesses per columnar epoch segment "
                               "(default: the store default)")
    t_import.add_argument("--force", action="store_true",
                          help="re-import over an existing trace at the "
                               "same key")
    _add_cache_params(t_import)

    t_list = tsub.add_parser("list", help="list stored access traces")
    _add_cache_params(t_list)

    t_info = tsub.add_parser(
        "info", help="per-epoch breakdown of one stored trace")
    t_info.add_argument("workload", help=f"one of {', '.join(WORKLOAD_NAMES)}")
    t_info.add_argument("--cpus", type=int, default=16, metavar="N",
                        help="CPU count of the stored stream (default: 16)")
    t_info.add_argument("--size", default="small",
                        choices=("tiny", "small", "default", "large"),
                        help="work-volume preset (default: small)")
    t_info.add_argument("--seed", type=int, default=42,
                        help="workload RNG seed (default: 42)")
    _add_cache_params(t_info)

    p_fuzz = sub.add_parser(
        "fuzz", help="seeded workload fuzzer (gen/describe)")
    fsub = p_fuzz.add_subparsers(dest="fuzz_command", required=True)

    f_gen = fsub.add_parser(
        "gen", help="generate a fuzz recipe's stream and capture it into "
                    "the trace store")
    f_gen.add_argument("recipe",
                       help="recipe, e.g. 'fuzz:Apache+OLTP,drift=0.3' "
                            "(the 'fuzz:' prefix is optional here)")
    f_gen.add_argument("--cpus", type=int, default=16, metavar="N",
                       help="CPUs the stream is interleaved over "
                            "(default: 16)")
    f_gen.add_argument("--size", default="small",
                       choices=("tiny", "small", "default", "large"),
                       help="work-volume preset (default: small)")
    f_gen.add_argument("--seed", type=int, default=42,
                       help="fuzz seed (default: 42)")
    f_gen.add_argument("--force", action="store_true",
                       help="re-generate even if the trace already exists")
    _add_cache_params(f_gen)

    f_describe = fsub.add_parser(
        "describe", help="parse a fuzz recipe and print its resolved form")
    f_describe.add_argument("recipe",
                            help="recipe string (with or without the "
                                 "'fuzz:' prefix)")

    p_ckpt = sub.add_parser(
        "checkpoint",
        help="manage epoch-boundary system checkpoints (list/info/gc)")
    ksub = p_ckpt.add_subparsers(dest="checkpoint_command", required=True)

    k_list = ksub.add_parser("list", help="list stored checkpoint runs")
    _add_cache_params(k_list)

    k_gc = ksub.add_parser(
        "gc", help="remove delta-chain chunks no manifest references")
    _add_cache_params(k_gc)

    k_info = ksub.add_parser(
        "info", help="per-epoch checkpoint breakdown of one run")
    k_info.add_argument("workload", help=f"one of {', '.join(WORKLOAD_NAMES)}")
    k_info.add_argument("--organisation", default="multi-chip",
                        choices=("multi-chip", "single-chip"),
                        help="system organisation (default: multi-chip)")
    k_info.add_argument("--size", default="small",
                        choices=("tiny", "small", "default", "large"),
                        help="work-volume preset (default: small)")
    k_info.add_argument("--seed", type=int, default=42,
                        help="workload RNG seed (default: 42)")
    k_info.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                        help=f"cache scale-down factor (default: "
                             f"{DEFAULT_SCALE})")
    k_info.add_argument("--warmup", type=float, default=None, metavar="FRAC",
                        help="warm-up fraction of the run (default: the "
                             "runner's default)")
    _add_cache_params(k_info)

    p_worker = sub.add_parser(
        "worker",
        help="run a dispatch worker polling the <cache>/dispatch queue")
    p_worker.add_argument("--poll", type=float, default=None, metavar="SEC",
                          help="idle sleep between queue scans (default: "
                               "$REPRO_WORKER_POLL_SECONDS or 0.5)")
    p_worker.add_argument("--lease", type=float, default=None, metavar="SEC",
                          help="claim lease duration (default: "
                               "$REPRO_LEASE_SECONDS or 60)")
    p_worker.add_argument("--heartbeat", type=float, default=None,
                          metavar="SEC",
                          help="lease renewal cadence while executing "
                               "(default: $REPRO_HEARTBEAT_SECONDS or a "
                               "third of the lease)")
    p_worker.add_argument("--max-items", type=int, default=None, metavar="N",
                          help="exit after executing N items "
                               "(default: run forever)")
    p_worker.add_argument("--idle-exit", type=float, default=None,
                          metavar="SEC",
                          help="exit after SEC seconds with nothing "
                               "claimable (default: keep polling)")
    p_worker.add_argument("--worker-id", default=None,
                          help="identity recorded in claims and receipts "
                               "(default: <hostname>-<pid>)")
    _add_cache_params(p_worker)

    p_serve = sub.add_parser(
        "serve",
        help="HTTP front end: accept spec submissions, stream plan events")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8023,
                         help="bind port (default: 8023)")
    p_serve.add_argument("--local-workers", type=int, default=0, metavar="N",
                         help="embedded dispatch workers per submission "
                              "(default: 0 — rely on external `repro "
                              "worker` processes sharing the cache root)")
    p_serve.add_argument("--lease", type=float, default=None, metavar="SEC",
                         help="claim lease duration for enqueued items")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log requests to stderr")
    _add_cache_params(p_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a spec file to a `repro serve` endpoint")
    p_submit.add_argument("file", help="spec file (TOML)")
    p_submit.add_argument("--url", default="http://127.0.0.1:8023",
                          help="serve endpoint "
                               "(default: http://127.0.0.1:8023)")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          metavar="SEC",
                          help="overall client timeout (default: 600)")
    p_submit.add_argument("--progress", action=argparse.BooleanOptionalAction,
                          default=False,
                          help="render the server's stage lifecycle events "
                               "live on stderr as they stream in")

    p_queue = sub.add_parser(
        "queue", help="inspect the dispatch work queue (status/list)")
    qsub = p_queue.add_subparsers(dest="queue_command", required=True)
    q_status = qsub.add_parser("status", help="item counts by state")
    _add_cache_params(q_status)
    q_list = qsub.add_parser("list", help="per-item state across all runs")
    _add_cache_params(q_list)

    p_clear = sub.add_parser(
        "clear-cache",
        help="empty the on-disk result, trace, and checkpoint stores and "
             "the dispatch work queue")
    p_clear.add_argument("--cache-dir", default=None,
                         help="disk-cache root to clear")
    return parser


# ---------------------------------------------------------------------- #
def _apply_cache_flags(args: argparse.Namespace) -> None:
    from .experiments.store import CACHE_DIR_ENV, CACHE_DISABLE_ENV
    if getattr(args, "no_disk_cache", False):
        os.environ[CACHE_DISABLE_ENV] = "1"
    if getattr(args, "cache_dir", None):
        os.environ[CACHE_DIR_ENV] = args.cache_dir


def _bad_jobs(args: argparse.Namespace) -> bool:
    """Report and reject a non-positive ``--jobs`` before building a session."""
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return True
    return False


def _session_from_args(args: argparse.Namespace):
    """Build the :class:`repro.api.Session` an execution subcommand uses.

    The executor policy defaults to the overlapping ``process`` backend —
    matching the pooled behaviour spec execution always had — and drops to
    ``serial`` under ``--jobs 1`` so inline runs stay inline.
    """
    from .api import Session
    executor = getattr(args, "executor", None)
    if executor is None:
        executor = "serial" if getattr(args, "jobs", None) == 1 else "process"
    return Session(cache_dir=getattr(args, "cache_dir", None),
                   max_workers=getattr(args, "jobs", None),
                   replay=getattr(args, "replay", True),
                   checkpoint=getattr(args, "checkpoint", True),
                   resume=getattr(args, "resume", True),
                   warm_start=getattr(args, "warm_start", True),
                   executor=executor,
                   profile=getattr(args, "profile", False))


def _spec_events(args: argparse.Namespace):
    """The :class:`~repro.api.PlanEvents` for a spec execution (or None)."""
    if not getattr(args, "progress", False):
        return None
    from .api import PlanEvents

    class _Progress(PlanEvents):
        """Render scheduler lifecycle events live on stderr.

        Reported durations are submission-to-settle wall clock — they
        include any time a stage queued behind a busy backend, so they sum
        to plan latency rather than per-stage compute.
        """

        def __init__(self) -> None:
            self._starts = {}

        def on_stage_start(self, stage) -> None:
            self._starts[stage.key] = time.perf_counter()
            print(f"[{stage.kind:>9}] {stage.key} ...", file=sys.stderr,
                  flush=True)

        def on_stage_finish(self, stage, status) -> None:
            elapsed = time.perf_counter() - self._starts.get(
                stage.key, time.perf_counter())
            print(f"[{stage.kind:>9}] {stage.key} {status} "
                  f"({elapsed:.2f}s)", file=sys.stderr, flush=True)

        def on_stage_error(self, stage, error) -> None:
            print(f"[{stage.kind:>9}] {stage.key} FAILED: {error}",
                  file=sys.stderr, flush=True)

    return _Progress()


def _execute_spec(session, spec, args: argparse.Namespace):
    """Run a spec through the session; returns (outcome, error_message)."""
    from .api import PlanExecutionError
    from .api.executor import ExecutorSetupError
    try:
        return session.execute(spec, events=_spec_events(args)), None
    except PlanExecutionError as exc:
        return exc.result, str(exc)
    except ExecutorSetupError as exc:  # e.g. dispatch without a disk cache
        return None, str(exc)


def _spec_flag_conflicts(args: argparse.Namespace, parser_defaults: dict,
                         flags: Sequence[str]) -> int:
    """Reject run-parameter flags combined with ``--spec``.

    The spec is the single source of truth for the grid; silently ignoring
    an explicit ``--size``/``--seed``/... would run a different
    configuration than the user asked for.  Flags still at their parser
    default are indistinguishable from "not passed" and are accepted.
    """
    conflicting = [flag for flag in flags
                   if getattr(args, flag, None) != parser_defaults[flag]]
    if conflicting:
        names = ", ".join(f"--{flag.replace('_', '-')}"
                          for flag in conflicting)
        print(f"error: {names} cannot be combined with --spec (the spec "
              f"file defines the grid; edit it instead)", file=sys.stderr)
        return 2
    return 0


#: Parser defaults for the flags --spec supersedes, per subcommand (must
#: match the add_argument defaults in build_parser).
_RUN_SPEC_DEFAULTS = {"size": "small", "seed": 42, "scale": DEFAULT_SCALE,
                      "workload": None, "context": None}
_SUITE_SPEC_DEFAULTS = {"size": "small", "seed": 42, "scale": DEFAULT_SCALE,
                        "workloads": list(WORKLOAD_NAMES)}
_REPORT_SPEC_DEFAULTS = {"size": "small", "seed": 42, "artifact": "all",
                         "workloads": list(WORKLOAD_NAMES)}


def _load_spec(path: str):
    """Parse and validate a spec file; prints errors and returns None on failure."""
    from .api import ExperimentSpec, SpecError
    try:
        spec = ExperimentSpec.from_toml(path)
        spec.ensure_valid()
    except (OSError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return spec


def _print_bundle(workload: str, context: str, result, size: str, seed: int,
                  scale: int, elapsed: Optional[float] = None,
                  warmup: Optional[float] = None) -> None:
    trace = result.miss_trace
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    warm = f", warmup={warmup:g}" if warmup is not None else ""
    print(f"{workload} / {context}  "
          f"(size={size}, seed={seed}, scale={scale}{warm})"
          f"{timing}")
    print(f"  misses:              {result.n_misses:,}")
    print(f"  instructions:        {trace.instructions:,}")
    print(f"  misses/kilo-instr:   "
          f"{trace.misses_per_kilo_instruction():.3f}")
    analysis = result.stream_analysis
    print(f"  in temporal streams: {analysis.fraction_in_streams:.1%} "
          f"(new {analysis.fraction_new:.1%}, "
          f"recurring {analysis.fraction_recurring:.1%})")
    print(f"  distinct streams:    {analysis.n_distinct_streams():,}")
    print("  miss classes:")
    total = max(1, result.n_misses)
    for cls, count in sorted(trace.class_counts().items(),
                             key=lambda kv: -kv[1]):
        print(f"    class {cls}: {count:,} ({count / total:.1%})")


def _spec_only_flags(args: argparse.Namespace) -> bool:
    """Reject --executor/--progress/--profile outside a --spec execution."""
    offending = [flag for flag in ("executor", "progress", "profile")
                 if getattr(args, flag, None)]
    if getattr(args, "spec", None) is None and offending:
        names = ", ".join(f"--{flag}" for flag in offending)
        print(f"error: {names} requires --spec (plan-level scheduling only "
              f"applies to spec-driven execution)", file=sys.stderr)
        return True
    return False


def _cmd_run(args: argparse.Namespace) -> int:
    if _bad_jobs(args) or _spec_only_flags(args):
        return 2
    session = _session_from_args(args)
    if args.spec is not None:
        if _spec_flag_conflicts(args, _RUN_SPEC_DEFAULTS,
                                tuple(_RUN_SPEC_DEFAULTS)):
            return 2
        spec = _load_spec(args.spec)
        if spec is None:
            return 2
        spec = spec.resolved()
        start = time.time()
        outcome, error = _execute_spec(session, spec, args)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 1
        elapsed = time.time() - start
        for (workload, context, scale, warmup), result in sorted(
                outcome.bundles.items()):
            _print_bundle(workload, context, result, spec.size, spec.seed,
                          scale, warmup=warmup)
            print()
        print(f"{len(outcome.bundles)} cell bundle"
              f"{'' if len(outcome.bundles) == 1 else 's'} in {elapsed:.2f}s")
        return 0
    if args.workload is None or args.context is None:
        print("error: run needs WORKLOAD and CONTEXT (or --spec FILE)",
              file=sys.stderr)
        return 2
    start = time.time()
    try:
        result = session.run(args.workload, args.context, size=args.size,
                             seed=args.seed, scale=args.scale)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    _print_bundle(args.workload, args.context, result, args.size, args.seed,
                  args.scale, time.time() - start)
    return 0


def _print_suite_table(workloads, contexts, results, size, jobs_label,
                       elapsed) -> None:
    print(f"suite: {len(workloads)} workloads x {len(contexts)} "
          f"contexts (size={size}, {jobs_label}) in {elapsed:.1f}s")
    header = f"{'workload':<10}" + "".join(f"{c:>14}" for c in contexts)
    print(header)
    print("-" * len(header))
    for workload in workloads:
        row = f"{workload:<10}"
        for context in contexts:
            result = results[workload][context]
            row += f"{result.n_misses:>14,}"
        print(row)
    print("(cells are recorded read misses; results persisted to the disk "
          "cache)")


def _cmd_suite(args: argparse.Namespace) -> int:
    if _bad_jobs(args) or _spec_only_flags(args):
        return 2
    session = _session_from_args(args)
    jobs = "inline" if args.jobs == 1 else f"jobs={args.jobs or 'auto'}"
    if args.spec is not None:
        if _spec_flag_conflicts(args, _SUITE_SPEC_DEFAULTS,
                                tuple(_SUITE_SPEC_DEFAULTS)):
            return 2
        from .api import spec_contexts
        spec = _load_spec(args.spec)
        if spec is None:
            return 2
        spec = spec.resolved()
        start = time.time()
        outcome, error = _execute_spec(session, spec, args)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 1
        elapsed = time.time() - start
        contexts = spec_contexts(spec)
        # One table per (scale, warmup) combination of the grid.
        for scale in spec.scales:
            for warmup in spec.warmups:
                if len(spec.scales) * len(spec.warmups) > 1:
                    print(f"--- scale={scale}, warmup={warmup:g} ---")
                results = {workload: {context: outcome.bundles[
                               (workload, context, scale, warmup)]
                           for context in contexts}
                           for workload in spec.workloads}
                _print_suite_table(spec.workloads, contexts, results,
                                   spec.size, jobs, elapsed)
        return 0
    unknown = [w for w in args.workloads if w not in WORKLOAD_NAMES]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)} "
              f"(known: {', '.join(WORKLOAD_NAMES)})", file=sys.stderr)
        return 2
    start = time.time()
    # A spec rejects duplicate workloads; the flag has always tolerated them.
    results = session.suite(size=args.size, seed=args.seed, scale=args.scale,
                            workloads=tuple(dict.fromkeys(args.workloads)))
    _print_suite_table(args.workloads, ALL_CONTEXTS, results, args.size,
                       jobs, time.time() - start)
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    spec = _load_spec(args.file)
    if spec is None:
        return 2
    if args.spec_command == "validate":
        print(f"OK: {spec.describe()}")
        return 0
    # plan: print the resolved stage DAG without executing anything.
    from .api import build_plan
    plan = build_plan(spec)
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(plan.to_json())
    elif fmt == "dot":
        print(plan.to_dot())
    else:
        from .obs import get_telemetry_store
        telem = get_telemetry_store(getattr(args, "cache_dir", None))
        costs = telem.observed_costs() if telem is not None else None
        print(plan.describe(costs=costs or None))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import (figure1, figure2, figure3, figure4,
                              render_table1, render_table2, table3, table4,
                              table5)
    if _bad_jobs(args) or _spec_only_flags(args):
        return 2
    if args.where:
        if args.spec is not None:
            print("--where reports from the run index and cannot be "
                  "combined with --spec", file=sys.stderr)
            return 2
        return _report_from_index(args)
    if args.spec is not None:
        if _spec_flag_conflicts(args, _REPORT_SPEC_DEFAULTS,
                                tuple(_REPORT_SPEC_DEFAULTS)):
            return 2
        spec = _load_spec(args.spec)
        if spec is None:
            return 2
        session = _session_from_args(args)
        outcome, error = _execute_spec(session, spec, args)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if not outcome.artifacts:
            print("spec requests no analyses; add e.g. "
                  "`analyses = [\"figure2\"]`", file=sys.stderr)
            return 2
        for name, text in outcome.render_all().items():
            print(f"==== {name} " + "=" * max(0, 66 - len(name)))
            print(text)
            print()
        return 0
    unknown = [w for w in args.workloads if w not in WORKLOAD_NAMES]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)} "
              f"(known: {', '.join(WORKLOAD_NAMES)})", file=sys.stderr)
        return 2
    workloads = tuple(args.workloads)
    wanted = (REPORT_ARTIFACTS if args.artifact == "all"
              else (args.artifact,))
    renderers = {
        "figure1": lambda: figure1(size=args.size, seed=args.seed,
                                   workloads=workloads).render(),
        "figure2": lambda: figure2(size=args.size, seed=args.seed,
                                   workloads=workloads).render(),
        "figure3": lambda: figure3(size=args.size, seed=args.seed,
                                   workloads=workloads).render(),
        "figure4": lambda: figure4(size=args.size, seed=args.seed,
                                   workloads=workloads).render(),
        "table1": render_table1,
        "table2": render_table2,
        "table3": lambda: table3(size=args.size, seed=args.seed).render(),
        "table4": lambda: table4(size=args.size, seed=args.seed).render(),
        "table5": lambda: table5(size=args.size, seed=args.seed).render(),
    }
    for name in wanted:
        print(f"==== {name} " + "=" * max(0, 66 - len(name)))
        print(renderers[name]())
        print()
    return 0


def _cmd_trace_capture(args: argparse.Namespace) -> int:
    from .trace import get_trace_store, trace_params
    from .workloads import create_workload
    store = get_trace_store(args.cache_dir)
    if store is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)",
              file=sys.stderr)
        return 2
    params = trace_params(args.workload, args.cpus, args.seed, args.size)
    if store.contains(params):
        if not args.force:
            reader = store.open(params)
            if reader is not None:
                print(f"already captured: {reader.describe()}")
                return 0
        else:
            # Drop the existing trace so the fresh capture's commit can
            # rename into place (commit stands down when the target exists).
            shutil.rmtree(store.path_for(params), ignore_errors=True)
    try:
        workload = create_workload(args.workload, n_cpus=args.cpus,
                                   seed=args.seed, size=args.size)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    start = time.time()
    n = sum(1 for _ in store.capture(workload.iter_accesses(), params))
    elapsed = time.time() - start
    reader = store.open(params)
    if reader is None:
        print("capture failed to commit", file=sys.stderr)
        return 1
    print(f"captured {n:,} accesses in {elapsed:.2f}s")
    print(reader.describe())
    return 0


def _cmd_trace_import(args: argparse.Namespace) -> int:
    from .ingest import TraceIngestError, import_trace
    from .trace import DEFAULT_EPOCH_SIZE, get_trace_store
    store = get_trace_store(args.cache_dir)
    if store is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)",
              file=sys.stderr)
        return 2
    epoch_size = (args.epoch_size if args.epoch_size is not None
                  else DEFAULT_EPOCH_SIZE)
    workload = None
    for n_cpus in dict.fromkeys(args.cpus):  # de-duplicated, order kept
        try:
            result = import_trace(
                store, args.file, args.fmt, name=args.name, n_cpus=n_cpus,
                seed=args.seed, size=args.size, epoch_size=epoch_size,
                force=args.force)
        except TraceIngestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        workload = result.workload
        print(result.describe())
    print(f"use it in specs or `run` as workload = {workload!r}")
    return 0


def _cmd_trace_list(args: argparse.Namespace) -> int:
    from .ingest import load_provenance, trace_origin
    from .trace import TraceCorruptError, TraceReader, get_trace_store
    store = get_trace_store(args.cache_dir)
    if store is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)",
              file=sys.stderr)
        return 2
    print(store.describe())
    for path in store.entries():
        # entries() spans every version directory; traces from other
        # format/package versions are listed, not readable.
        origin = trace_origin(path)
        try:
            line = f"  {origin:>8}  {TraceReader(path).describe()}"
        except TraceCorruptError:
            line = (f"  {origin:>8}  {path.parent.name}/{path.name}: "
                    f"unreadable (other version or corrupt)")
        if origin == "imported":
            record = load_provenance(path) or {}
            source = record.get("source", "?")
            line += f" [from {record.get('format', '?')}:{source}]"
        print(line)
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from .ingest import load_provenance
    from .trace import (get_trace_store, summarize_chunk, summarize_trace,
                        trace_params)
    store = get_trace_store(args.cache_dir)
    if store is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)",
              file=sys.stderr)
        return 2
    params = trace_params(args.workload, args.cpus, args.seed, args.size)
    reader = store.open(params)
    if reader is None:
        print(f"no stored trace for {params}; run "
              f"`python -m repro trace capture {args.workload} "
              f"--cpus {args.cpus} --size {args.size} --seed {args.seed}` "
              f"(or `trace import` for external dumps) "
              f"or any simulation with replay enabled", file=sys.stderr)
        return 1
    print(reader.describe())
    provenance = load_provenance(store.path_for(params))
    if provenance is not None:
        options = provenance.get("options", {})
        print(f"origin: imported via {provenance.get('format', '?')}")
        print(f"  source: {provenance.get('source', '?')}")
        print(f"  sha256: {provenance.get('sha256', '?')}")
        print(f"  options: " + ", ".join(
            f"{k}={v}" for k, v in sorted(options.items())))
        skipped = provenance.get("skipped_records", 0)
        print(f"  records: {provenance.get('n_accesses', '?')} imported, "
              f"{skipped} corrupt skipped")
    else:
        print("origin: captured (live generator stream)")
    header = (f"{'epoch':>6}{'accesses':>12}{'instructions':>14}"
              f"{'blocks':>10}{'reads':>10}{'writes':>10}")
    print(header)
    print("-" * len(header))
    for chunk in reader.iter_epochs():
        summary = summarize_chunk(chunk)
        print(f"{chunk.epoch:>6}{summary.n_accesses:>12,}"
              f"{summary.instructions:>14,}{summary.distinct_blocks:>10,}"
              f"{summary.kind_counts.get(0, 0):>10,}"
              f"{summary.kind_counts.get(1, 0):>10,}")
    start = time.time()
    merged = summarize_trace(reader)
    print(f"merged ({time.time() - start:.2f}s): {merged.describe()}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "capture": _cmd_trace_capture,
        "import": _cmd_trace_import,
        "list": _cmd_trace_list,
        "info": _cmd_trace_info,
    }
    return handlers[args.trace_command](args)


def _fuzz_workload_name(recipe: str) -> str:
    """The full ``fuzz:<recipe>`` workload name for a CLI recipe argument."""
    text = recipe.strip()
    return text if text.lower().startswith("fuzz:") else f"fuzz:{text}"


def _cmd_fuzz_gen(args: argparse.Namespace) -> int:
    from .api.registry import WORKLOADS
    from .trace import get_trace_store, trace_params
    from .workloads import create_workload
    store = get_trace_store(args.cache_dir)
    if store is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)",
              file=sys.stderr)
        return 2
    requested = _fuzz_workload_name(args.recipe)
    workload_name = WORKLOADS.canonical(requested)
    if workload_name is None:
        from .ingest import RecipeError, parse_recipe
        try:
            parse_recipe(requested[len("fuzz:"):])
        except RecipeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"error: unknown fuzz recipe {args.recipe!r}", file=sys.stderr)
        return 2
    params = trace_params(workload_name, args.cpus, args.seed, args.size)
    if store.contains(params):
        if not args.force:
            reader = store.open(params)
            if reader is not None:
                print(f"already generated: {reader.describe()}")
                return 0
        else:
            shutil.rmtree(store.path_for(params), ignore_errors=True)
    workload = create_workload(workload_name, n_cpus=args.cpus,
                               seed=args.seed, size=args.size)
    start = time.time()
    n = sum(1 for _ in store.capture(workload.iter_accesses(), params))
    elapsed = time.time() - start
    reader = store.open(params)
    if reader is None:
        print("fuzz capture failed to commit", file=sys.stderr)
        return 1
    print(f"generated {n:,} fuzzed accesses in {elapsed:.2f}s")
    print(reader.describe())
    print(f"use it in specs or `run` as workload = {workload_name!r}")
    return 0


def _cmd_fuzz_describe(args: argparse.Namespace) -> int:
    from .ingest import FuzzWorkload, RecipeError, parse_recipe
    requested = _fuzz_workload_name(args.recipe)
    try:
        recipe = parse_recipe(requested[len("fuzz:"):])
    except RecipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload_name = f"fuzz:{recipe.canonical_suffix()}"
    print(f"canonical workload: {workload_name}")
    print(recipe.describe())
    sample = FuzzWorkload(recipe, n_cpus=16, seed=42)
    print(f"base generator CPUs at 16-CPU interleave: "
          f"{sample.generation_cpus} (skew={recipe.skew})")
    for index, base in enumerate(recipe.bases):
        print(f"  base[{index}] {base}: derived seed {sample.base_seed(index)}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    handlers = {
        "gen": _cmd_fuzz_gen,
        "describe": _cmd_fuzz_describe,
    }
    return handlers[args.fuzz_command](args)


def _cmd_checkpoint_list(args: argparse.Namespace) -> int:
    from .checkpoint import get_checkpoint_store
    store = get_checkpoint_store(args.cache_dir)
    if store is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)",
              file=sys.stderr)
        return 2
    import json

    from .checkpoint.format import chain_name
    print(store.describe())
    for run_dir in sorted(store.runs(), key=lambda p: (p.name, str(p))):
        epochs = store.epochs_in(run_dir)
        kinds = []
        chunk_refs = set()
        for epoch in epochs:
            try:
                manifest = json.loads(
                    (run_dir / chain_name(epoch)).read_text(encoding="utf-8"))
                kinds.append(str(manifest.get("kind", "?")))
                for spec in manifest.get("sections", {}).values():
                    if isinstance(spec.get("chunk"), str):
                        chunk_refs.add(spec["chunk"])
            except (OSError, ValueError, AttributeError):
                kinds.append("?")
        size = sum(p.stat().st_size for p in run_dir.iterdir()
                   if p.is_file())
        size += sum(store.chunk_path(d).stat().st_size for d in chunk_refs
                    if store.chunk_path(d).is_file())
        span = (f"epochs {epochs[0]}..{epochs[-1]}" if epochs else "empty")
        breakdown = ", ".join(
            f"{kinds.count(kind)} {kind}"
            for kind in ("full", "delta", "?") if kind in kinds)
        detail = f"{span}; {breakdown}" if breakdown else span
        print(f"  {run_dir.name}: {len(epochs)} checkpoint"
              f"{'' if len(epochs) == 1 else 's'} ({detail}), "
              f"{size / 1024:.1f} KiB")
    return 0


def _cmd_checkpoint_gc(args: argparse.Namespace) -> int:
    from .checkpoint import chain_stats, collect_garbage, get_checkpoint_store
    store = get_checkpoint_store(args.cache_dir)
    if store is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)",
              file=sys.stderr)
        return 2
    removed, freed = collect_garbage(store)
    stats = chain_stats(store)
    print(f"removed {removed} unreferenced chunk"
          f"{'' if removed == 1 else 's'} ({freed / 1024:.1f} KiB freed); "
          f"{stats['chunk_files']} chunk"
          f"{'' if stats['chunk_files'] == 1 else 's'} "
          f"({stats['chunk_bytes'] / 1024:.1f} KiB) still referenced by "
          f"{stats['full_manifests'] + stats['delta_manifests']} manifests")
    return 0


def _print_checkpoint_epochs(store, params, epochs) -> None:
    header = f"{'epoch':>8}{'kind':>8}{'size (KiB)':>14}"
    print(header)
    print("-" * len(header))
    for epoch in epochs:
        kind = store.entry_kind(params, epoch)
        size_kib = store.entry_size(params, epoch) / 1024
        print(f"{epoch:>8}{kind:>8}{size_kib:>14.1f}")


def _cmd_checkpoint_info(args: argparse.Namespace) -> int:
    from .checkpoint import checkpoint_params, get_checkpoint_store
    from .checkpoint.prefix import prefix_params
    from .experiments import DEFAULT_WARMUP_FRACTION
    from .experiments.runner import clamp_warmup_fraction
    from .mem.config import multichip_config, singlechip_config
    from .trace import get_trace_store, trace_params
    store = get_checkpoint_store(args.cache_dir)
    if store is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)",
              file=sys.stderr)
        return 2
    config = (multichip_config() if args.organisation == "multi-chip"
              else singlechip_config())
    n_cpus = config.n_cpus
    warmup = clamp_warmup_fraction(DEFAULT_WARMUP_FRACTION
                                   if args.warmup is None else args.warmup)
    # The checkpoint key includes the captured trace's epoch segmentation.
    kwargs = {}
    traces = get_trace_store(args.cache_dir)
    reader = (traces.open(trace_params(args.workload, n_cpus, args.seed,
                                       args.size))
              if traces is not None else None)
    if reader is not None:
        kwargs["epoch_size"] = reader.meta.epoch_size
    params = checkpoint_params(args.workload, n_cpus, args.seed, args.size,
                               args.organisation, args.scale, warmup,
                               **kwargs)
    title = (f"{args.workload} / {args.organisation} (size={args.size}, "
             f"seed={args.seed}, scale={args.scale}, warmup={warmup})")
    epochs = store.epochs(params)
    if not epochs:
        # A sweep's cells leave no checkpoints of their own; what a warm-up
        # group shares is its prefix, keyed without the warm-up.
        prefix = prefix_params(args.workload, n_cpus, args.seed, args.size,
                               args.organisation, args.scale, **kwargs)
        epochs = store.epochs(prefix)
        if epochs:
            print(f"{title} — no checkpoints of its own; its warm-up "
                  f"group's shared prefix holds {len(epochs)} checkpoint"
                  f"{'' if len(epochs) == 1 else 's'}")
            _print_checkpoint_epochs(store, prefix, epochs)
            print(f"warm-start prefix: epoch {epochs[-1]} (a `run` of this "
                  f"configuration whose warm-up reaches that boundary "
                  f"restores it instead of simulating the prefix)")
            return 0
        from .checkpoint.replay import CHECKPOINT_INTERVAL_S
        print(f"no checkpoints for {params}; a replayed simulation "
              f"snapshots an epoch boundary only after "
              f"{CHECKPOINT_INTERVAL_S:g} s of simulation and never its "
              f"last one (a finished cell lives in the result store), so "
              f"only a run of this configuration interrupted after more "
              f"than {CHECKPOINT_INTERVAL_S:g} s of simulation leaves "
              f"checkpoints behind", file=sys.stderr)
        return 1
    print(f"{title} — {len(epochs)} checkpoint"
          f"{'' if len(epochs) == 1 else 's'}")
    _print_checkpoint_epochs(store, params, epochs)
    print(f"resume point: epoch {epochs[-1]} "
          f"(a `run` of this configuration restores it and simulates only "
          f"the remaining epochs)")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_checkpoint_list,
        "info": _cmd_checkpoint_info,
        "gc": _cmd_checkpoint_gc,
    }
    return handlers[args.checkpoint_command](args)


def _dispatch_queue(args: argparse.Namespace):
    """The dispatch :class:`WorkQueue` for a subcommand's cache flags."""
    from .api.queue import WorkQueue, queue_root
    from .cachedir import disk_cache_disabled
    if disk_cache_disabled():
        return None
    return WorkQueue(queue_root(getattr(args, "cache_dir", None)))


def _cmd_worker(args: argparse.Namespace) -> int:
    from .api.worker import Worker
    queue = _dispatch_queue(args)
    if queue is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set); "
              "a worker needs the shared dispatch queue", file=sys.stderr)
        return 2
    for flag in ("poll", "lease", "heartbeat"):
        value = getattr(args, flag)
        if value is not None and value <= 0:
            print(f"error: --{flag} must be > 0", file=sys.stderr)
            return 2
    worker = Worker(queue=queue, worker_id=args.worker_id,
                    lease_seconds=args.lease, heartbeat_seconds=args.heartbeat,
                    poll_seconds=args.poll, max_items=args.max_items,
                    idle_exit=args.idle_exit)
    print(f"worker {worker.worker_id} polling {queue.root} "
          f"(lease={queue.lease_seconds:g}s, "
          f"heartbeat={worker.heartbeat_seconds:g}s, "
          f"poll={worker.poll_seconds:g}s)", flush=True)
    try:
        stats = worker.run()
    except KeyboardInterrupt:
        stats = worker.stats
    print(f"worker {worker.worker_id} done: {stats.describe()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api.serve import create_server
    if args.local_workers < 0:
        print("error: --local-workers must be >= 0", file=sys.stderr)
        return 2
    try:
        server = create_server(host=args.host, port=args.port,
                               cache_dir=args.cache_dir,
                               local_workers=args.local_workers,
                               lease_seconds=args.lease,
                               verbose=args.verbose)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(server.describe(), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .api.serve import submit_spec
    try:
        spec_text = open(args.file, "r", encoding="utf-8").read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        done = submit_spec(args.url, spec_text,
                           progress=sys.stderr if args.progress else None,
                           timeout=args.timeout)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, text in done.get("artifacts", {}).items():
        print(f"==== {name} " + "=" * max(0, 66 - len(name)))
        print(text)
        print()
    if not done.get("ok"):
        print(f"error: {done.get('error', 'plan failed')}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------- #
# the run index (``repro query`` / ``report --where``)
# ---------------------------------------------------------------------- #
_WHERE_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(!=|>=|<=|~|=|>|<)\s*(.*?)\s*$")


def _coerce_value(raw: str):
    """int, else float, else the raw string (sqlite compares typed)."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _parse_where(exprs) -> list:
    """``["col>=3", ...]`` -> ``[("col", ">=", 3), ...]`` triples."""
    out = []
    for expr in exprs or ():
        match = _WHERE_RE.match(expr)
        if match is None:
            raise ValueError(
                f"bad --where {expr!r}; expected COL<OP>VALUE with an "
                f"operator in = != > < >= <= ~")
        column, op, raw = match.groups()
        out.append((column, op, _coerce_value(raw)))
    return out


def _render_query_rows(columns: list, rows: list, fmt: str) -> None:
    if fmt == "json":
        import json
        print(json.dumps([dict(zip(columns, row)) for row in rows],
                         indent=2))
        return
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        writer.writerows(rows)
        return
    rendered = [["" if value is None
                 else (f"{value:.3f}" if isinstance(value, float)
                       else str(value))
                 for value in row] for row in rows]
    widths = [max(len(name), *(len(row[i]) for row in rendered))
              if rendered else len(name)
              for i, name in enumerate(columns)]
    print("  ".join(name.ljust(width)
                    for name, width in zip(columns, widths)).rstrip())
    for row in rendered:
        print("  ".join(value.ljust(width)
                        for value, width in zip(row, widths)).rstrip())
    print(f"({len(rows)} row{'' if len(rows) == 1 else 's'})")


def _run_index(args: argparse.Namespace):
    """The ingest-refreshed run index, or ``None`` (already reported)."""
    from .obs.index import get_run_index
    index = get_run_index(getattr(args, "cache_dir", None))
    if index is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set); "
              "the run index lives in the disk cache", file=sys.stderr)
    return index


def _cmd_query(args: argparse.Namespace) -> int:
    index = _run_index(args)
    if index is None:
        return 2
    if args.rebuild:
        index.clear()
    if not args.no_ingest:
        index.ingest(full=args.rebuild)
    try:
        columns, rows = index.query(
            args.table,
            where=_parse_where(args.where),
            select=args.select.split(",") if args.select else None,
            group_by=args.group_by.split(",") if args.group_by else None,
            aggregates=args.agg.split(",") if args.agg else None,
            order_by=args.order_by, descending=args.desc, limit=args.limit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _render_query_rows(columns, rows, args.format)
    return 0


def _report_from_index(args: argparse.Namespace) -> int:
    """``report --where``: answer from the index, unpickling nothing."""
    index = _run_index(args)
    if index is None:
        return 2
    index.ingest()
    try:
        where = _parse_where(args.where)
        columns, rows = index.query(
            "cells", where=where,
            select=["run_id", "workload", "organisation", "scale",
                    "warmup", "status", "wall_s", "executor"],
            order_by="started_at")
        group_cols, groups = index.query(
            "cells", where=where,
            group_by=["workload", "organisation"],
            aggregates=["count", "mean:wall_s", "max:wall_s"],
            order_by="workload")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    title = "indexed cells"
    print(f"==== {title} " + "=" * max(0, 66 - len(title)))
    _render_query_rows(columns, rows, "table")
    print()
    title = "by workload / organisation"
    print(f"==== {title} " + "=" * max(0, 66 - len(title)))
    _render_query_rows(group_cols, groups, "table")
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    from .api.queue import claim_path_for, done_path_for, load_json
    queue = _dispatch_queue(args)
    if queue is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)")
        return 0
    print(queue.describe())
    if args.queue_command == "status":
        fleet = queue.fleet_status()
        oldest = fleet["queue"].get("oldest_pending_s")
        if oldest is not None:
            print(f"  oldest pending item: {oldest:.1f}s old")
        workers = fleet["workers"]
        print(f"  {len(workers)} worker record"
              f"{'' if len(workers) == 1 else 's'}")
        for rec in workers:
            liveness = ("alive" if rec["alive"]
                        else ("stopped" if rec["status"] == "stopped"
                              else "stale"))
            item = f" on {rec['item']}" if rec.get("item") else ""
            age = (f"{rec['age_s']:.1f}s ago"
                   if rec["age_s"] is not None else "never")
            print(f"    {rec['worker']} [{liveness}] {rec['status']}"
                  f"{item} (beat {age}; "
                  f"{rec['executed']} executed, {rec['cached']} cached, "
                  f"{rec['failed']} failed, {rec['steals']} stolen, "
                  f"{rec['quarantined']} quarantined)")
        for lease in fleet["leases"]:
            state = ("expired" if lease["expired"]
                     else f"{lease['remaining_s']:.1f}s left")
            print(f"    lease {lease['run']}/{lease['item']} -> "
                  f"{lease['worker']} (attempt {lease['attempt']}, "
                  f"{state})")
    if args.queue_command == "list":
        now = time.time()
        for item in queue.item_files():
            if done_path_for(item).exists():
                receipt = load_json(done_path_for(item),
                                    kind="dispatch receipt") or {}
                state = (f"done ({receipt.get('status', '?')} on "
                         f"{receipt.get('worker', '?')})")
            else:
                claim = (load_json(claim_path_for(item),
                                   kind="dispatch claim")
                         if claim_path_for(item).exists() else None)
                if claim is not None and \
                        float(claim.get("deadline", 0)) > now:
                    state = (f"leased by {claim.get('worker', '?')} "
                             f"({float(claim['deadline']) - now:.1f}s left, "
                             f"attempt {claim.get('attempt', 1)})")
                elif claim is not None:
                    state = "lease expired (requeue pending)"
                else:
                    state = "pending"
            print(f"  {item.parent.name}/{item.name}: {state}")
    return 0


def _stats_rows(spans: list) -> list:
    """One span per stage: worker-origin when available, else scheduler."""
    chosen = {}
    for span in spans:
        key = span.get("stage")
        if key is None:
            continue
        prev = chosen.get(key)
        if prev is None or (span.get("origin") == "worker"
                            and prev.get("origin") != "worker"):
            chosen[key] = span
    return [chosen[key] for key in sorted(chosen)]


def _print_span_tables(spans: list) -> None:
    rows = _stats_rows(spans)
    if not rows:
        print("  (no span records)")
        return
    stage_w = max(5, max(len(str(r.get("stage", ""))) for r in rows))
    print(f"  {'stage':<{stage_w}}  {'kind':>9}  {'origin':>9}  "
          f"{'status':>7}  {'wall s':>8}  {'cpu s':>8}  {'rss MiB':>8}")
    for r in rows:
        rss = r.get("rss_peak_kib", 0) / 1024.0
        print(f"  {str(r.get('stage', '')):<{stage_w}}  "
              f"{str(r.get('kind', '')):>9}  {str(r.get('origin', '')):>9}  "
              f"{str(r.get('status', '')):>7}  {r.get('wall_s', 0.0):>8.3f}  "
              f"{r.get('cpu_s', 0.0):>8.3f}  {rss:>8.1f}")
    # Per-kind aggregates over the same preferred rows.
    by_kind: dict = {}
    for r in rows:
        by_kind.setdefault(r.get("kind", "?"), []).append(r)
    print()
    print(f"  {'kind':>9}  {'stages':>6}  {'total wall s':>12}  "
          f"{'mean wall s':>11}  {'total cpu s':>11}")
    for kind in sorted(by_kind):
        group = by_kind[kind]
        wall = sum(r.get("wall_s", 0.0) for r in group)
        cpu = sum(r.get("cpu_s", 0.0) for r in group)
        print(f"  {kind:>9}  {len(group):>6}  {wall:>12.3f}  "
              f"{wall / len(group):>11.3f}  {cpu:>11.3f}")


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import get_telemetry_store
    store = get_telemetry_store(args.cache_dir)
    if store is None:
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set); "
              "run telemetry lives in the disk cache", file=sys.stderr)
        return 2
    if args.run is not None and args.last:
        print("error: pass a run id or --last, not both", file=sys.stderr)
        return 2
    run_id = args.run
    if args.last:
        run_id = store.last_run_id()
        if run_id is None:
            print("no telemetry runs recorded yet; execute a spec first",
                  file=sys.stderr)
            return 1
    if run_id is None:  # list mode
        print(store.describe())
        for rid in store.runs():
            manifest = store.load_manifest(rid) or {}
            ok = manifest.get("ok")
            state = "ok" if ok else ("FAILED" if ok is False else "running")
            wall = manifest.get("wall_s")
            tail = f", {wall:.2f}s wall" if isinstance(wall, (int, float)) \
                else ""
            print(f"  {rid}: {manifest.get('spec', '?')} via "
                  f"{manifest.get('executor', '?')}, "
                  f"{manifest.get('n_stages', '?')} stages, {state}{tail}")
        from .checkpoint import chain_stats, get_checkpoint_store
        ckpt = get_checkpoint_store(args.cache_dir)
        if ckpt is not None:
            cs = chain_stats(ckpt)
            if cs["full_manifests"] or cs["delta_manifests"]:
                print(f"  delta checkpoints: {cs['full_manifests']} full + "
                      f"{cs['delta_manifests']} delta manifests across "
                      f"{cs['chains']} chain"
                      f"{'' if cs['chains'] == 1 else 's'} "
                      f"(longest {cs['longest_chain']}); "
                      f"{cs['chunk_files']} chunks, "
                      f"{cs['chunk_bytes'] / 1024:.1f} KiB, "
                      f"dedupe x{cs['dedupe_ratio']:.2f}, "
                      f"{cs['unreferenced_chunks']} unreferenced "
                      f"(`repro checkpoint gc` reclaims them)")
        return 0
    manifest = store.load_manifest(run_id)
    if manifest is None:
        print(f"error: no telemetry run {run_id!r} under {store.root}",
              file=sys.stderr)
        return 1
    ok = manifest.get("ok")
    state = "ok" if ok else ("FAILED" if ok is False else "running")
    wall = manifest.get("wall_s")
    tail = f", {wall:.2f}s wall" if isinstance(wall, (int, float)) else ""
    print(f"run {run_id}: {manifest.get('spec', '?')} via "
          f"{manifest.get('executor', '?')}, "
          f"{manifest.get('n_stages', '?')} stages, {state}{tail}")
    _print_span_tables(store.load_spans(run_id))
    profiles = sorted(store.run_dir(run_id).glob("*.prof"))
    if profiles:
        print()
        print(f"  {len(profiles)} profile{'s' if len(profiles) != 1 else ''} "
              f"(python -m pstats <file>):")
        for path in profiles:
            print(f"    {path}")
    return 0


def _cmd_clear_cache(args: argparse.Namespace) -> int:
    from .checkpoint import get_checkpoint_store
    from .experiments import clear_cache, get_store
    from .obs import get_telemetry_store
    from .obs.index import get_run_index
    from .trace import get_trace_store
    store = get_store(args.cache_dir)
    traces = get_trace_store(args.cache_dir)
    checkpoints = get_checkpoint_store(args.cache_dir)
    queue = _dispatch_queue(args)
    index = get_run_index(args.cache_dir)
    telemetry = get_telemetry_store(args.cache_dir)
    stores = (store, traces, checkpoints, queue, index, telemetry)
    if all(s is None for s in stores):
        print("disk cache is disabled (REPRO_DISABLE_DISK_CACHE set)")
        return 0
    for s in stores:
        if s is not None:
            print(s.describe())
    if args.cache_dir is None:
        # The default session's disk clear covers the dispatch queue,
        # run-index, and telemetry directories too.
        removed = clear_cache(disk=True)
    else:
        removed = sum(s.clear() for s in stores if s is not None)
    print(f"removed {removed} cached entr{'y' if removed == 1 else 'ies'} "
          f"(results + traces + checkpoints + dispatch items + run index "
          f"+ telemetry)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_cache_flags(args)
    handlers = {
        "run": _cmd_run,
        "suite": _cmd_suite,
        "report": _cmd_report,
        "spec": _cmd_spec,
        "trace": _cmd_trace,
        "fuzz": _cmd_fuzz,
        "checkpoint": _cmd_checkpoint,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "queue": _cmd_queue,
        "query": _cmd_query,
        "stats": _cmd_stats,
        "clear-cache": _cmd_clear_cache,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
