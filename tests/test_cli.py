"""CLI smoke tests: ``python -m repro`` subcommands end to end.

The subcommands run in subprocesses (the real user entry point) with the
disk cache pointed at a per-test temp directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


#: ``python -m repro`` with a zero checkpoint interval: the run snapshots
#: every epoch boundary but the last, as a long run would at its interval.
EVERY_BOUNDARY = ("import sys; from repro.checkpoint import replay; "
                  "replay.CHECKPOINT_INTERVAL_S = 0.0; "
                  "from repro.cli import main; sys.exit(main(sys.argv[1:]))")


def run_cli(args, cache_dir, check=True, every_boundary=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    entry = ["-c", EVERY_BOUNDARY] if every_boundary else ["-m", "repro"]
    proc = subprocess.run([sys.executable, *entry, *args],
                          capture_output=True, text=True, env=env,
                          cwd=REPO_ROOT, timeout=600)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"CLI failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return proc


def test_help_lists_subcommands(tmp_path):
    proc = run_cli(["--help"], tmp_path)
    for sub in ("run", "suite", "report", "trace", "checkpoint",
                "worker", "serve", "submit", "queue", "query", "stats",
                "clear-cache"):
        assert sub in proc.stdout


def test_run_prints_bundle_summary(tmp_path):
    proc = run_cli(["run", "Apache", "multi-chip", "--size", "tiny"],
                   tmp_path)
    assert "Apache / multi-chip" in proc.stdout
    assert "misses:" in proc.stdout
    assert "in temporal streams:" in proc.stdout
    # The run persisted its bundle.
    assert list(Path(tmp_path).glob("v*/context/*.pkl"))


def test_run_rejects_unknown_workload(tmp_path):
    proc = run_cli(["run", "NotAWorkload", "multi-chip", "--size", "tiny"],
                   tmp_path, check=False)
    assert proc.returncode != 0


def test_suite_then_cached_rerun(tmp_path):
    args = ["suite", "--size", "tiny", "--workloads", "Apache", "OLTP",
            "--jobs", "2"]
    first = run_cli(args, tmp_path)
    assert "Apache" in first.stdout and "OLTP" in first.stdout
    entries = list(Path(tmp_path).glob("v*/context/*.pkl"))
    assert len(entries) == 6  # 2 workloads x 3 contexts
    mtimes = {p: p.stat().st_mtime_ns for p in entries}

    second = run_cli(args, tmp_path)
    assert "Apache" in second.stdout
    # Cache-served: no entry rewritten, none added.
    entries_after = list(Path(tmp_path).glob("v*/context/*.pkl"))
    assert len(entries_after) == 6
    assert {p: p.stat().st_mtime_ns for p in entries_after} == mtimes


def test_flag_driven_suite_records_a_telemetry_run(tmp_path):
    run_cli(["suite", "--size", "tiny", "--workloads", "Apache",
             "--jobs", "1"], tmp_path)
    last = run_cli(["stats", "--last"], tmp_path)
    assert "suite via serial" in last.stdout
    for organisation in ("multi-chip", "single-chip"):
        assert f"simulate:Apache/{organisation}" in last.stdout


def test_report_renders_tables(tmp_path):
    proc = run_cli(["report", "--artifact", "table2"], tmp_path)
    assert "table2" in proc.stdout


def test_report_figure_uses_cache(tmp_path):
    run_cli(["suite", "--size", "tiny", "--workloads", "Apache",
             "--jobs", "1"], tmp_path)
    proc = run_cli(["report", "--artifact", "figure2", "--size", "tiny",
                    "--workloads", "Apache"], tmp_path)
    assert "figure2" in proc.stdout
    assert "Apache" in proc.stdout


def test_clear_cache_removes_entries(tmp_path):
    run_cli(["run", "Zeus", "multi-chip", "--size", "tiny"], tmp_path,
            every_boundary=True)
    assert list(Path(tmp_path).glob("v*/context/*.pkl"))
    assert list(Path(tmp_path).glob("traces/v*/*/meta.json"))
    assert list(Path(tmp_path).glob("checkpoints/v*/*/epoch-*.chain.json"))
    proc = run_cli(["clear-cache"], tmp_path)
    assert "removed" in proc.stdout
    assert not list(Path(tmp_path).glob("v*/context/*.pkl"))
    # clear-cache covers captured traces and checkpoints too.
    assert not list(Path(tmp_path).glob("traces/v*/*/meta.json"))
    assert not list(Path(tmp_path).glob("checkpoints/v*/*/epoch-*.chain.json"))


def test_trace_capture_list_info(tmp_path):
    proc = run_cli(["trace", "capture", "Apache", "--size", "tiny",
                    "--cpus", "4", "--seed", "3"], tmp_path)
    assert "captured" in proc.stdout
    assert list(Path(tmp_path).glob("traces/v*/*/meta.json"))

    again = run_cli(["trace", "capture", "Apache", "--size", "tiny",
                     "--cpus", "4", "--seed", "3"], tmp_path)
    assert "already captured" in again.stdout

    listing = run_cli(["trace", "list"], tmp_path)
    assert "workload=Apache" in listing.stdout
    assert "1 trace" in listing.stdout

    info = run_cli(["trace", "info", "Apache", "--size", "tiny",
                    "--cpus", "4", "--seed", "3"], tmp_path)
    assert "epoch" in info.stdout
    assert "merged" in info.stdout


def test_trace_capture_force_replaces_existing(tmp_path):
    args = ["trace", "capture", "Zeus", "--size", "tiny", "--cpus", "4"]
    run_cli(args, tmp_path)
    meta = next(Path(tmp_path).glob("traces/v*/*/meta.json"))
    before = meta.stat().st_mtime_ns
    forced = run_cli([*args, "--force"], tmp_path)
    assert "captured" in forced.stdout and "already" not in forced.stdout
    metas = list(Path(tmp_path).glob("traces/v*/*/meta.json"))
    assert len(metas) == 1
    assert metas[0].stat().st_mtime_ns != before  # actually re-captured


def test_trace_list_tolerates_foreign_versions(tmp_path):
    run_cli(["trace", "capture", "Qry2", "--size", "tiny", "--cpus", "4"],
            tmp_path)
    # Simulate a trace left behind by another format/package version.
    stale = Path(tmp_path) / "traces" / "v0-0.0.1" / "old-trace"
    stale.mkdir(parents=True)
    (stale / "meta.json").write_text("{}")
    proc = run_cli(["trace", "list"], tmp_path)
    assert "workload=Qry2" in proc.stdout
    assert "unreadable" in proc.stdout


def test_trace_info_missing_trace_fails(tmp_path):
    proc = run_cli(["trace", "info", "OLTP", "--size", "tiny"], tmp_path,
                   check=False)
    assert proc.returncode == 1
    assert "no stored trace" in proc.stderr


def test_run_replay_produces_identical_results(tmp_path):
    base = ["run", "Qry1", "multi-chip", "--size", "tiny"]
    replayed = run_cli(base, tmp_path)  # capture on first run
    # The access trace was captured alongside the result bundle.
    assert list(Path(tmp_path).glob("traces/v*/*/meta.json"))
    fresh = run_cli([*base, "--no-replay", "--no-disk-cache"], tmp_path)

    def misses(stdout):
        return [l for l in stdout.splitlines() if "misses:" in l]

    assert misses(replayed.stdout) == misses(fresh.stdout)


def test_suite_replay_flag_roundtrip(tmp_path):
    run_cli(["suite", "--size", "tiny", "--workloads", "Apache",
             "--jobs", "1", "--no-replay"], tmp_path)
    assert not list(Path(tmp_path).glob("traces/v*/*/meta.json"))


def test_no_disk_cache_flag(tmp_path):
    run_cli(["run", "Qry2", "multi-chip", "--size", "tiny",
             "--no-disk-cache"], tmp_path)
    assert not list(Path(tmp_path).glob("v*/context/*.pkl"))


def test_run_writes_checkpoints_and_checkpoint_list_info(tmp_path):
    run_cli(["run", "Apache", "multi-chip", "--size", "tiny"], tmp_path,
            every_boundary=True)
    files = list(Path(tmp_path).glob("checkpoints/v*/*/epoch-*.chain.json"))
    assert files  # epoch-boundary snapshots written during the run

    listing = run_cli(["checkpoint", "list"], tmp_path)
    assert "checkpoint store" in listing.stdout
    assert "workload=Apache" in listing.stdout

    info = run_cli(["checkpoint", "info", "Apache",
                    "--organisation", "multi-chip", "--size", "tiny"],
                   tmp_path)
    assert "epoch" in info.stdout
    assert "resume point" in info.stdout


def test_run_no_checkpoint_flag(tmp_path):
    run_cli(["run", "Apache", "multi-chip", "--size", "tiny",
             "--no-checkpoint"], tmp_path, every_boundary=True)
    assert not list(Path(tmp_path).glob("checkpoints/v*/*/epoch-*.chain.json"))


def test_checkpoint_info_shows_the_shared_prefix(tmp_path):
    run_cli(["suite", "--spec", "examples/spec_prefix.toml", "--jobs", "1"],
            tmp_path)
    info = run_cli(["checkpoint", "info", "Apache", "--size", "tiny",
                    "--warmup", "0.6"], tmp_path)
    assert "shared prefix holds 1 checkpoint" in info.stdout
    assert "warm-start prefix: epoch 1" in info.stdout


def test_checkpoint_info_missing_run_fails(tmp_path):
    proc = run_cli(["checkpoint", "info", "OLTP", "--size", "tiny"],
                   tmp_path, check=False)
    assert proc.returncode == 1
    assert "no checkpoints" in proc.stderr
    assert "interrupted after more than 30 s of simulation" in proc.stderr


def test_run_resume_is_bit_identical(tmp_path):
    # Zeus, not a one-epoch DSS query: a tiny trace needs an interior
    # boundary to checkpoint, since the final one is never saved.
    base = ["run", "Zeus", "multi-chip", "--size", "tiny"]
    first = run_cli(base, tmp_path, every_boundary=True)
    assert list(Path(tmp_path).glob("checkpoints/v*/*/epoch-*.chain.json"))
    # Drop the result bundles but keep the trace and its checkpoints: the
    # rerun restores the latest checkpoint and simulates only the epochs
    # after it.
    for entry in Path(tmp_path).glob("v*/context/*.pkl"):
        entry.unlink()
    resumed = run_cli(base, tmp_path)

    def misses(stdout):
        return [line for line in stdout.splitlines() if "misses" in line]

    assert misses(first.stdout) == misses(resumed.stdout)


# --------------------------------------------------------------------------- #
# Declarative specs (--spec and the `spec` subcommand)
# --------------------------------------------------------------------------- #
SPEC_TOML = """\
name = "cli-spec"
size = "tiny"
workloads = ["Apache"]
organisations = ["multi-chip", "single-chip"]
analyses = ["figure2"]
"""


def _write_spec(tmp_path, text=SPEC_TOML):
    pytest.importorskip("tomllib")  # TOML specs need Python 3.11+
    path = Path(tmp_path) / "spec.toml"
    path.write_text(text)
    return str(path)


def test_spec_validate_ok(tmp_path):
    spec = _write_spec(tmp_path)
    proc = run_cli(["spec", "validate", spec], tmp_path)
    assert "OK:" in proc.stdout
    assert "cli-spec" in proc.stdout


def test_spec_validate_reports_every_error(tmp_path):
    spec = _write_spec(tmp_path, SPEC_TOML.replace("Apache", "NotAWorkload")
                       .replace("figure2", "figure9"))
    proc = run_cli(["spec", "validate", spec], tmp_path, check=False)
    assert proc.returncode == 2
    assert "NotAWorkload" in proc.stderr
    assert "figure9" in proc.stderr


def test_spec_plan_prints_stage_dag(tmp_path):
    spec = _write_spec(tmp_path)
    proc = run_cli(["spec", "plan", spec], tmp_path)
    for fragment in ("capture:Apache@16cpu", "simulate:Apache/multi-chip",
                     "analyze:Apache/intra-chip", "render:figure2"):
        assert fragment in proc.stdout
    # Planning must not execute anything.
    assert not list(Path(tmp_path).glob("v*/context/*.pkl"))


def test_suite_with_spec_runs_grid(tmp_path):
    spec = _write_spec(tmp_path)
    proc = run_cli(["suite", "--spec", spec, "--jobs", "1"], tmp_path)
    assert "Apache" in proc.stdout
    assert len(list(Path(tmp_path).glob("v*/context/*.pkl"))) == 3


def test_report_with_spec_renders_requested_analyses(tmp_path):
    spec = _write_spec(tmp_path)
    proc = run_cli(["report", "--spec", spec, "--jobs", "1"], tmp_path)
    assert "figure2" in proc.stdout
    assert "Apache / multi-chip" in proc.stdout


def test_run_with_spec_prints_every_cell(tmp_path):
    spec = _write_spec(tmp_path)
    proc = run_cli(["run", "--spec", spec, "--jobs", "1"], tmp_path)
    assert "Apache / multi-chip" in proc.stdout
    assert "Apache / intra-chip" in proc.stdout
    assert "3 cell bundles" in proc.stdout


def test_run_without_workload_or_spec_fails(tmp_path):
    proc = run_cli(["run"], tmp_path, check=False)
    assert proc.returncode == 2
    assert "--spec" in proc.stderr


def test_spec_plan_format_json_exports_dag(tmp_path):
    import json
    spec = _write_spec(tmp_path)
    proc = run_cli(["spec", "plan", spec, "--format", "json"], tmp_path)
    data = json.loads(proc.stdout)
    assert data["spec"]["name"] == "cli-spec"
    kinds = {entry["kind"] for entry in data["stages"]}
    assert {"capture", "simulate", "analyze", "render"} <= kinds
    keyed = {entry["key"]: entry for entry in data["stages"]}
    assert "capture:Apache@16cpu" in keyed["simulate:Apache/multi-chip"
                                           "@scale64-warmup0.25"]["deps"]


def test_spec_plan_format_dot_exports_graph(tmp_path):
    spec = _write_spec(tmp_path)
    proc = run_cli(["spec", "plan", spec, "--format", "dot"], tmp_path)
    assert proc.stdout.startswith('digraph "cli-spec"')
    assert ('"capture:Apache@16cpu" -> '
            '"simulate:Apache/multi-chip@scale64-warmup0.25";' in proc.stdout)


def test_suite_with_spec_accepts_executor_and_progress(tmp_path):
    spec = _write_spec(tmp_path)
    proc = run_cli(["suite", "--spec", spec, "--jobs", "2", "--executor",
                    "process", "--progress"], tmp_path)
    assert "Apache" in proc.stdout
    # The live progress stream renders stage lifecycle events on stderr.
    assert "simulate:Apache/multi-chip" in proc.stderr
    assert len(list(Path(tmp_path).glob("v*/context/*.pkl"))) == 3


def test_executor_flag_requires_spec(tmp_path):
    proc = run_cli(["suite", "--executor", "process", "--size", "tiny"],
                   tmp_path, check=False)
    assert proc.returncode == 2
    assert "--executor" in proc.stderr and "--spec" in proc.stderr


def test_spec_conflicts_with_run_parameter_flags(tmp_path):
    spec = _write_spec(tmp_path)
    proc = run_cli(["suite", "--spec", spec, "--size", "large"], tmp_path,
                   check=False)
    assert proc.returncode == 2
    assert "--size" in proc.stderr and "--spec" in proc.stderr
    proc = run_cli(["run", "Apache", "multi-chip", "--spec", spec], tmp_path,
                   check=False)
    assert proc.returncode == 2
    proc = run_cli(["report", "--spec", spec, "--artifact", "figure3"],
                   tmp_path, check=False)
    assert proc.returncode == 2
    assert "--artifact" in proc.stderr


# ---------------------------------------------------------------------- #
# dispatch service subcommands: worker / serve / submit / queue
# ---------------------------------------------------------------------- #
def _enqueue_noop_item(cache_dir, number=1):
    """A fast no-op work item (capture with replay disabled)."""
    import json
    run = Path(cache_dir) / "dispatch" / "run-cli"
    run.mkdir(parents=True, exist_ok=True)
    item = run / f"item-{number:04d}-capture.json"
    item.write_text(json.dumps({
        "stage": f"capture:noop{number}", "kind": "capture",
        "params": {"workload": "Apache", "n_cpus": 4, "seed": number,
                   "size": "tiny"},
        "config": {"replay": False}}))
    return item


def test_worker_executes_and_exits(tmp_path):
    item = _enqueue_noop_item(tmp_path)
    proc = run_cli(["worker", "--max-items", "1", "--poll", "0.05",
                    "--worker-id", "cli-w"], tmp_path)
    assert "worker cli-w polling" in proc.stdout
    assert "1 executed" in proc.stdout
    assert item.with_name("item-0001-capture.done.json").exists()


def test_worker_idle_exit_on_empty_queue(tmp_path):
    proc = run_cli(["worker", "--idle-exit", "0.2", "--poll", "0.05"],
                   tmp_path)
    assert "0 executed" in proc.stdout


def test_worker_rejects_bad_knobs(tmp_path):
    proc = run_cli(["worker", "--lease", "0"], tmp_path, check=False)
    assert proc.returncode == 2
    assert "--lease" in proc.stderr


def test_queue_status_and_list(tmp_path):
    _enqueue_noop_item(tmp_path)
    proc = run_cli(["queue", "status"], tmp_path)
    assert "1 work item across 1 run" in proc.stdout
    assert "1 pending" in proc.stdout
    proc = run_cli(["queue", "list"], tmp_path)
    assert "item-0001-capture.json: pending" in proc.stdout
    run_cli(["worker", "--max-items", "1", "--poll", "0.05"], tmp_path)
    proc = run_cli(["queue", "list"], tmp_path)
    assert "done (skipped on" in proc.stdout


def test_clear_cache_covers_dispatch_queue(tmp_path):
    _enqueue_noop_item(tmp_path)
    _enqueue_noop_item(tmp_path, number=2)
    proc = run_cli(["clear-cache"], tmp_path)
    assert "dispatch queue" in proc.stdout
    assert "2 work items" in proc.stdout
    assert "removed 2 cached entries" in proc.stdout
    assert "dispatch items" in proc.stdout
    assert not list((Path(tmp_path) / "dispatch").iterdir())


# ---------------------------------------------------------------------- #
# run telemetry: stats / --profile / plan cost annotations
# ---------------------------------------------------------------------- #
TELEMETRY_SPEC_TOML = """\
name = "cli-telemetry"
size = "tiny"
workloads = ["Apache"]
organisations = ["multi-chip"]
prefetchers = ["temporal"]
analyses = ["table1"]
"""


def test_stats_tables_plan_costs_and_clear(tmp_path):
    """One spec run feeds stats, plan annotations, and the clear path."""
    spec = _write_spec(tmp_path, TELEMETRY_SPEC_TOML)
    run_cli(["run", "--spec", spec, "--executor", "serial"], tmp_path)
    listing = run_cli(["stats"], tmp_path)
    assert "telemetry store" in listing.stdout
    assert "cli-telemetry via serial" in listing.stdout
    last = run_cli(["stats", "--last"], tmp_path)
    for kind in ("capture", "simulate", "analyze", "prefetch", "render"):
        assert kind in last.stdout, f"stage kind {kind} missing from stats"
    assert "worker" in last.stdout and "scheduler" in last.stdout
    assert "wall s" in last.stdout and "rss MiB" in last.stdout
    # The run id printed by the listing addresses the same tables.
    run_id = listing.stdout.splitlines()[1].strip().split(":")[0]
    by_id = run_cli(["stats", run_id], tmp_path)
    assert by_id.stdout == last.stdout
    # spec plan now annotates kinds with observed mean costs.
    plan = run_cli(["spec", "plan", spec], tmp_path)
    assert "observed over" in plan.stdout
    # clear-cache removes the telemetry runs along with everything else.
    cleared = run_cli(["clear-cache"], tmp_path)
    assert "telemetry store" in cleared.stdout
    assert "telemetry)" in cleared.stdout
    empty = run_cli(["stats", "--last"], tmp_path, check=False)
    assert empty.returncode == 1
    assert "no telemetry runs" in empty.stderr


def test_profile_flag_writes_per_stage_prof_files(tmp_path):
    spec = _write_spec(tmp_path, TELEMETRY_SPEC_TOML)
    run_cli(["run", "--spec", spec, "--executor", "serial", "--profile"],
            tmp_path)
    profs = list((Path(tmp_path) / "telemetry").glob("*/*.prof"))
    assert profs, "each profiled stage should drop a .prof file"
    last = run_cli(["stats", "--last"], tmp_path)
    assert "profile" in last.stdout and ".prof" in last.stdout


def test_profile_flag_requires_spec(tmp_path):
    proc = run_cli(["run", "Apache", "multi-chip", "--profile"], tmp_path,
                   check=False)
    assert proc.returncode == 2
    assert "--profile" in proc.stderr and "--spec" in proc.stderr


def test_stats_unknown_run_fails(tmp_path):
    proc = run_cli(["stats", "no-such-run"], tmp_path, check=False)
    assert proc.returncode == 1
    assert "no telemetry run" in proc.stderr


def test_stats_rejects_run_id_with_last(tmp_path):
    proc = run_cli(["stats", "some-run", "--last"], tmp_path, check=False)
    assert proc.returncode == 2


def test_submit_without_server_fails_cleanly(tmp_path):
    spec = REPO_ROOT / "examples" / "spec_tiny.toml"
    proc = run_cli(["submit", str(spec), "--url", "http://127.0.0.1:1",
                    "--timeout", "5"], tmp_path, check=False)
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_submit_missing_file_fails(tmp_path):
    proc = run_cli(["submit", str(tmp_path / "nope.toml")], tmp_path,
                   check=False)
    assert proc.returncode == 2


def test_serve_submit_roundtrip(tmp_path):
    """End to end over HTTP: serve with an embedded worker, submit a spec."""
    import json
    spec = tmp_path / "grid.toml"
    spec.write_text('name = "cli-serve"\nsize = "tiny"\n'
                    'workloads = ["Apache"]\n'
                    'organisations = ["multi-chip"]\n'
                    'analyses = ["table1"]\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--local-workers", "2", "--verbose"],
        env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        banner = server.stdout.readline()
        assert "repro serve on http://" in banner
        url = banner.split(" on ", 1)[1].split()[0].rstrip("/")
        proc = run_cli(["submit", str(spec), "--url", url, "--progress"],
                       tmp_path)
        assert "==== table1" in proc.stdout
        assert "[     plan] cli-serve:" in proc.stderr
        assert "finish" not in proc.stdout  # events stream to stderr only
    finally:
        server.terminate()
        server.wait(timeout=30)


# ---------------------------------------------------------------------- #
# the run index: ``repro query`` and ``report --where``
# ---------------------------------------------------------------------- #
def test_query_filters_aggregates_and_formats(tmp_path):
    spec = _write_spec(tmp_path, TELEMETRY_SPEC_TOML)
    run_cli(["run", "--spec", spec, "--executor", "serial"], tmp_path)

    table = run_cli(["query"], tmp_path)
    assert "workload" in table.stdout and "Apache" in table.stdout
    assert "(1 row)" in table.stdout

    as_json = run_cli(["query", "cells", "--agg", "count",
                       "--format", "json"], tmp_path)
    assert json.loads(as_json.stdout) == [{"count": 1}]

    as_csv = run_cli(["query", "cells", "--select", "workload,status",
                      "--format", "csv"], tmp_path)
    lines = as_csv.stdout.strip().splitlines()
    assert lines[0] == "workload,status"
    assert lines[1].startswith("Apache,")

    grouped = run_cli(["query", "cells", "--group-by", "workload",
                       "--agg", "count,mean:wall_s"], tmp_path)
    assert "mean_wall_s" in grouped.stdout

    filtered = run_cli(["query", "cells", "--where", "workload=DSS",
                        "--format", "json"], tmp_path)
    assert json.loads(filtered.stdout) == []

    stages = run_cli(["query", "stages", "--where", "kind=simulate",
                      "--agg", "count", "--format", "json"], tmp_path)
    assert json.loads(stages.stdout) == [{"count": 1}]


def test_query_rejects_bad_input(tmp_path):
    bad_col = run_cli(["query", "cells", "--where", "nope=1"], tmp_path,
                      check=False)
    assert bad_col.returncode == 2
    assert "unknown column" in bad_col.stderr
    bad_expr = run_cli(["query", "cells", "--where", "no-operator"],
                       tmp_path, check=False)
    assert bad_expr.returncode == 2
    assert "bad --where" in bad_expr.stderr


def test_report_where_answers_from_the_index(tmp_path):
    spec = _write_spec(tmp_path, TELEMETRY_SPEC_TOML)
    run_cli(["run", "--spec", spec, "--executor", "serial"], tmp_path)
    report = run_cli(["report", "--where", "workload=Apache"], tmp_path)
    assert "indexed cells" in report.stdout
    assert "by workload / organisation" in report.stdout
    assert "Apache" in report.stdout
    empty = run_cli(["report", "--where", "workload=DSS"], tmp_path)
    assert "(0 rows)" in empty.stdout


def test_report_where_conflicts_with_spec(tmp_path):
    spec = _write_spec(tmp_path, TELEMETRY_SPEC_TOML)
    proc = run_cli(["report", "--spec", spec, "--where", "workload=Apache"],
                   tmp_path, check=False)
    assert proc.returncode == 2
    assert "cannot be combined" in proc.stderr


def test_clear_cache_reports_run_index(tmp_path):
    spec = _write_spec(tmp_path, TELEMETRY_SPEC_TOML)
    run_cli(["run", "--spec", spec, "--executor", "serial"], tmp_path)
    run_cli(["query"], tmp_path)  # materialise the index database
    cleared = run_cli(["clear-cache"], tmp_path)
    assert "run index" in cleared.stdout
    assert "run index + telemetry)" in cleared.stdout
    assert not (Path(tmp_path) / "index" / "runs.sqlite").exists()


def test_queue_status_renders_fleet(tmp_path):
    status = run_cli(["queue", "status"], tmp_path)
    assert "0 worker records" in status.stdout
