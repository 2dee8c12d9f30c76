"""Cost-aware scheduling: longest-first submission and executor="auto"."""

import pytest

from repro.api import (EventLog, ExperimentSpec, Plan, Session, Stage,
                       SerialExecutor, ProcessExecutor,
                       execute_plan, resolve_executor)
from repro.api import executor as executor_mod
from repro.api.executor import choose_executor_name
from repro.experiments import runner
from repro.experiments.store import CACHE_DIR_ENV, CACHE_DISABLE_ENV
from repro.obs.store import TelemetryStore

SPEC = ExperimentSpec(
    name="cost-grid", size="tiny", seed=42,
    workloads=("Apache",),
    organisations=("multi-chip", "single-chip"),
    prefetchers=("temporal",),
    analyses=("figure2",))

#: Observed costs that rank simulate stages far above captures.
COSTS = {"simulate": {"mean_wall_s": 5.0, "mean_cpu_s": 5.0, "count": 4},
         "capture": {"mean_wall_s": 1.0, "mean_cpu_s": 1.0, "count": 4}}


def mixed_plan():
    """Three dependency-free backend stages, cheap kinds enqueued first."""
    plan = Plan(SPEC)
    plan.add(Stage("capture:a", "capture", {}))
    plan.add(Stage("capture:b", "capture", {}))
    plan.add(Stage("simulate:x", "simulate", {}))
    return plan


@pytest.fixture
def stub_stages(monkeypatch):
    """Make every backend stage a no-op so only ordering is under test."""
    monkeypatch.setattr(executor_mod, "run_stage",
                        lambda kind, params, config: ("ran", None))


class TestLongestFirstSubmission:
    def test_expensive_kind_starts_first(self, private_cache, monkeypatch,
                                         stub_stages):
        monkeypatch.setattr(TelemetryStore, "observed_costs",
                            lambda self: dict(COSTS))
        log = EventLog()
        result = execute_plan(mixed_plan(), Session(),
                              executor=SerialExecutor(), events=log)
        starts = [key for event, key, _ in log.events if event == "start"]
        # The simulate stage was enqueued last but costs rank it first;
        # the equal-cost captures keep their FIFO order.
        assert starts == ["simulate:x", "capture:a", "capture:b"]
        assert result.ok

    def test_no_observations_keeps_fifo(self, private_cache, monkeypatch,
                                        stub_stages):
        monkeypatch.setattr(TelemetryStore, "observed_costs",
                            lambda self: {})
        log = EventLog()
        execute_plan(mixed_plan(), Session(), executor=SerialExecutor(),
                     events=log)
        starts = [key for event, key, _ in log.events if event == "start"]
        assert starts == ["capture:a", "capture:b", "simulate:x"]

    def test_cost_model_failure_degrades_to_fifo(self, private_cache,
                                                 monkeypatch, stub_stages):
        def boom(self):
            raise RuntimeError("index unavailable")

        monkeypatch.setattr(TelemetryStore, "observed_costs", boom)
        log = EventLog()
        result = execute_plan(mixed_plan(), Session(),
                              executor=SerialExecutor(), events=log)
        assert result.ok
        starts = [key for event, key, _ in log.events if event == "start"]
        assert starts == ["capture:a", "capture:b", "simulate:x"]

    def test_reordering_preserves_results(self, private_cache, monkeypatch,
                                          stub_stages):
        results = []
        for costs in ({}, COSTS):
            monkeypatch.setattr(TelemetryStore, "observed_costs",
                                lambda self, costs=costs: dict(costs))
            results.append(execute_plan(mixed_plan(), Session(),
                                        executor=SerialExecutor()))
        assert results[0].statuses == results[1].statuses
        assert results[0].ok and results[1].ok


class TestCostAwareEquivalence:
    def test_artifacts_bit_identical_with_observed_costs(self, tmp_path,
                                                         monkeypatch):
        """Acceptance: once telemetry holds costs (so the scheduler really
        reorders), every backend still renders byte-identical artifacts."""
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        runner.clear_cache()
        session = Session(max_workers=2, executor="serial")
        baseline = session.execute(SPEC).render_all()
        assert session.telemetry_store.observed_costs()  # model is live
        for name in ("process", "dispatch", "auto"):
            # Drop results (forcing real re-execution under the cost-aware
            # order) but keep telemetry and traces.
            session.result_store.clear()
            runner.clear_cache()
            rerun = Session(max_workers=2, executor=name).execute(SPEC)
            assert rerun.render_all() == baseline, \
                f"{name} diverged under cost-aware scheduling"
        runner.clear_cache()


class TestAutoExecutor:
    def test_no_plan_defaults_to_process(self):
        assert choose_executor_name(None) == "process"

    def test_single_backend_stage_runs_serial(self):
        plan = Plan(SPEC)
        plan.add(Stage("simulate:x", "simulate", {}))
        plan.add(Stage("analyze:a", "analyze", {}, deps=("simulate:x",)))
        assert choose_executor_name(plan) == "serial"

    def test_unobserved_mix_defaults_to_process(self):
        assert choose_executor_name(mixed_plan()) == "process"

    def test_compute_bound_mix_picks_processes(self, private_cache,
                                               monkeypatch):
        monkeypatch.setattr(
            TelemetryStore, "observed_costs",
            lambda self: {"simulate": {"mean_wall_s": 10.0,
                                       "mean_cpu_s": 9.0},
                          "capture": {"mean_wall_s": 10.0,
                                      "mean_cpu_s": 9.0}})
        assert isinstance(resolve_executor("auto", Session(),
                                           plan=mixed_plan()),
                          ProcessExecutor)

    def test_resolve_auto_ignores_observed_costs(self, private_cache,
                                                 monkeypatch):
        # A mix that looks replay-dominated (cpu far below wall) still
        # resolves to processes.
        monkeypatch.setattr(
            TelemetryStore, "observed_costs",
            lambda self: {"simulate": {"mean_wall_s": 10.0,
                                       "mean_cpu_s": 1.0},
                          "capture": {"mean_wall_s": 10.0,
                                      "mean_cpu_s": 1.0}})
        resolved = resolve_executor("auto", Session(max_workers=3),
                                    plan=mixed_plan())
        assert isinstance(resolved, ProcessExecutor)
        assert resolved.max_workers == 3

    def test_resolve_auto_without_telemetry_is_process(self, monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV, "1")
        resolved = resolve_executor("auto", Session(), plan=mixed_plan())
        assert isinstance(resolved, ProcessExecutor)

    def test_resolve_auto_without_plan_is_process(self, private_cache):
        assert isinstance(resolve_executor("auto", Session()),
                          ProcessExecutor)
