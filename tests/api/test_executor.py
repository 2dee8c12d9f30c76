"""Executor backends: registry, equivalence, overlap, failure propagation."""

import json

import pytest

from repro.api import (EXECUTORS, EventLog, ExperimentSpec, PlanExecutionError,
                       ProcessExecutor, SerialExecutor, Session, Stage,
                       register_executor, resolve_executor)
from repro.api import executor as executor_mod
from repro.experiments import runner
from repro.experiments.store import CACHE_DIR_ENV, CACHE_DISABLE_ENV

SPEC = ExperimentSpec(
    name="exec-grid", size="tiny", seed=42,
    workloads=("Apache",),
    organisations=("multi-chip", "single-chip"),
    prefetchers=("temporal",),
    analyses=("figure2", "table1"))


class TestRegistry:
    def test_builtin_backends_registered(self):
        for name in ("serial", "process", "dispatch"):
            assert name in EXECUTORS

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="duplicate executor"):
            register_executor("serial")(SerialExecutor)

    def test_resolve_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="serial"):
            resolve_executor("warp-drive", Session())

    def test_resolve_prefers_instance_then_name_then_session_policy(self):
        instance = SerialExecutor(max_workers=3)
        assert resolve_executor(instance, Session()) is instance
        assert isinstance(resolve_executor("process", Session()),
                          ProcessExecutor)
        resolved = resolve_executor(None, Session(executor="process",
                                                  max_workers=2))
        assert isinstance(resolved, ProcessExecutor)
        assert resolved.max_workers == 2

    def test_session_default_executor_is_serial(self):
        session = Session()
        assert session.executor == "serial"
        assert "executor=serial" in session.describe()
        assert session.with_options(executor="process").executor == "process"


class TestBackendEquivalence:
    def test_all_backends_produce_bit_identical_artifacts(self, tmp_path,
                                                          monkeypatch):
        """Acceptance: serial/process/dispatch render the same artifacts
        from the same spec, each from a cold private cache."""
        baseline = None
        for name in ("serial", "process", "dispatch"):
            monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / name))
            runner.clear_cache()
            outcome = Session(max_workers=2, executor=name).execute(SPEC)
            rendered = outcome.render_all()
            assert set(rendered) == {"figure2", "table1"}
            assert len(outcome.bundles) == 3
            assert len(outcome.coverage) == 3
            if baseline is None:
                baseline = rendered
            else:
                assert rendered == baseline, f"{name} diverged from serial"
        runner.clear_cache()

    def test_second_process_execution_is_cached(self, private_cache):
        session = Session(max_workers=2, executor="process")
        session.execute(SPEC)
        runner.clear_cache()  # drop the memo; disk stores stay
        outcome = session.execute(SPEC)
        for stage in outcome.plan.by_kind("simulate"):
            assert outcome.statuses[stage.key] == "cached"
        for stage in outcome.plan.by_kind("capture"):
            assert outcome.statuses[stage.key] == "cached"


class TestOverlap:
    def test_process_backend_overlaps_independent_combos(self, private_cache):
        """Acceptance: with >=2 independent (scale, warmup) combos, a
        render stage of the fast combo starts before the slow combo's
        simulate stage finishes."""
        warm = ExperimentSpec(size="tiny", workloads=("Apache",),
                              organisations=("multi-chip",),
                              warmups=(0.25,), analyses=("figure2",))
        Session(max_workers=1).execute(warm)  # combo A now fully cached
        runner.clear_cache()

        grid = ExperimentSpec(size="tiny", workloads=("Apache",),
                              organisations=("multi-chip",),
                              warmups=(0.25, 0.5), analyses=("figure2",))
        log = EventLog()
        Session(max_workers=2, executor="process").execute(grid, events=log)
        fast_render = log.index("start", "render:figure2@scale64-warmup0.25")
        slow_sim = log.index(
            "finish", "simulate:Apache/multi-chip@scale64-warmup0.5")
        assert fast_render < slow_sim, (
            "render of the cached combo should start while the cold combo "
            "is still simulating")


class TestFailurePropagation:
    @pytest.fixture
    def broken_simulate(self, monkeypatch):
        """Make simulate stages of the Apache workload raise."""
        original = executor_mod._stage_simulate

        def exploding(params, config):
            if params["workload"] == "Apache":
                raise RuntimeError("injected simulate failure")
            return original(params, config)

        monkeypatch.setitem(executor_mod._STAGE_FNS, "simulate", exploding)

    def test_failed_stage_cancels_dependents_not_siblings(
            self, private_cache, broken_simulate):
        spec = ExperimentSpec(size="tiny", workloads=("Apache", "OLTP"),
                              organisations=("multi-chip",),
                              prefetchers=("temporal",),
                              analyses=("figure2",))
        session = Session(max_workers=1)
        outcome = session.plan(spec).run(session, raise_errors=False)
        sim_apache = "simulate:Apache/multi-chip@scale64-warmup0.25"
        assert outcome.statuses[sim_apache] == "failed"
        assert isinstance(outcome.errors[sim_apache], RuntimeError)
        # The whole downstream cone is cancelled without running...
        assert outcome.statuses[
            "analyze:Apache/multi-chip@scale64-warmup0.25"] == "skipped"
        assert outcome.statuses[
            "prefetch:temporal:Apache/multi-chip"
            "@scale64-warmup0.25"] == "skipped"
        assert outcome.statuses["render:figure2"] == "skipped"
        assert "figure2" not in outcome.artifacts
        # ...while the independent OLTP branch finished.
        assert outcome.statuses[
            "analyze:OLTP/multi-chip@scale64-warmup0.25"] == "ran"
        assert ("OLTP", "multi-chip", 64, 0.25) in outcome.bundles
        assert ("temporal", "OLTP", "multi-chip", 64,
                0.25) in outcome.coverage
        assert not outcome.ok

    def test_failure_raises_with_partial_result_attached(
            self, private_cache, broken_simulate):
        spec = ExperimentSpec(size="tiny", workloads=("Apache", "OLTP"),
                              organisations=("multi-chip",),
                              analyses=("figure2",))
        with pytest.raises(PlanExecutionError,
                           match="injected simulate failure") as excinfo:
            Session(max_workers=1).execute(spec)
        partial = excinfo.value.result
        assert ("OLTP", "multi-chip", 64, 0.25) in partial.bundles

    def test_events_fire_for_errors_and_skips(self, private_cache,
                                              broken_simulate):
        spec = ExperimentSpec(size="tiny", workloads=("Apache",),
                              organisations=("multi-chip",),
                              analyses=("figure2",))
        log = EventLog()
        session = Session(max_workers=1)
        session.plan(spec).run(session, events=log, raise_errors=False)
        kinds = [event for event, _, _ in log.events]
        assert "error" in kinds
        skipped = [key for event, key, detail in log.events
                   if event == "finish" and detail == "skipped"]
        assert "render:figure2" in skipped


class TestDispatch:
    def test_dispatch_requires_disk_cache(self, private_cache, monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV, "1")
        with pytest.raises(RuntimeError, match="disk cache"):
            Session(executor="dispatch").execute(SPEC)

    def test_work_items_and_receipts_are_json(self, private_cache):
        spec = ExperimentSpec(size="tiny", workloads=("Apache",),
                              organisations=("multi-chip",),
                              analyses=("figure2",))
        Session(max_workers=2, executor="dispatch").execute(spec)
        dispatch_root = private_cache / "dispatch"
        items = sorted(dispatch_root.glob("*/item-*.json"))
        receipts = sorted(dispatch_root.glob("*/item-*.done.json"))
        item_files = [p for p in items if not p.name.endswith(".done.json")]
        # capture + simulate went through the wire format.
        assert len(item_files) == 2
        assert len(receipts) == 2
        item = json.loads(item_files[0].read_text())
        assert set(item) == {"stage", "kind", "params", "config"}
        receipt = json.loads(receipts[0].read_text())
        assert receipt["stage"] == item["stage"]
        assert receipt["status"] in ("ran", "cached", "skipped")


class TestExecutorProtocol:
    def test_serial_submit_captures_exceptions(self):
        future = SerialExecutor().submit(Stage("bogus:x", "bogus", {}))
        with pytest.raises(ValueError, match="bogus"):
            future.result()

    def test_run_stage_rejects_parent_side_kinds(self):
        with pytest.raises(ValueError, match="render"):
            executor_mod.run_stage("render", {}, {})

    def test_max_workers_validated(self):
        with pytest.raises(ValueError, match="max_workers"):
            SerialExecutor(max_workers=0)
