"""Plan execution records telemetry runs: manifests, spans, both origins."""

import pytest

from repro.api import DispatchExecutor, ExperimentSpec, Session
from repro.api import executor as executor_mod
from repro.obs.store import TelemetryStore

SPEC = ExperimentSpec(
    name="telemetry-grid", size="tiny", seed=42,
    workloads=("Apache",), organisations=("multi-chip",),
    prefetchers=("temporal",), analyses=("table1",))

#: Kinds whose compute runs on the executor backend (worker-origin spans).
BACKEND_KINDS = {"capture", "simulate"}


def span_keys(store, run_id):
    """The run's ``(origin, stage)`` pairs — the stats-table identity."""
    return sorted((s["origin"], s["stage"])
                  for s in store.load_spans(run_id))


class TestRunRecording:
    def test_execution_records_manifest_and_spans(self, private_cache):
        session = Session(max_workers=1)
        outcome = session.execute(SPEC)
        assert outcome.run_id is not None
        store = TelemetryStore(private_cache)
        assert store.runs() == [outcome.run_id]
        manifest = store.load_manifest(outcome.run_id)
        assert manifest["spec"] == "telemetry-grid"
        assert manifest["executor"] == "serial"
        assert manifest["ok"] is True
        assert manifest["n_stages"] == len(session.plan(SPEC))
        assert manifest["wall_s"] > 0
        assert manifest["statuses"] == dict(outcome.statuses)
        assert "finished_at" in manifest

    def test_every_stage_gets_a_scheduler_span(self, private_cache):
        session = Session(max_workers=1)
        outcome = session.execute(SPEC)
        store = TelemetryStore(private_cache)
        spans = store.load_spans(outcome.run_id)
        sched = {s["stage"] for s in spans if s["origin"] == "scheduler"}
        assert sched == set(outcome.statuses)

    def test_backend_stages_also_get_worker_spans(self, private_cache):
        session = Session(max_workers=1)
        outcome = session.execute(SPEC)
        store = TelemetryStore(private_cache)
        spans = store.load_spans(outcome.run_id)
        worker = {s["stage"] for s in spans if s["origin"] == "worker"}
        expected = {key for key in outcome.statuses
                    if key.split(":", 1)[0] in BACKEND_KINDS}
        assert worker == expected
        for span in spans:
            assert span["status"] == "ran"
            assert span["wall_s"] >= 0 and span["cpu_s"] >= 0

    def test_span_keys_identical_across_serial_and_dispatch(
            self, tmp_path, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.store import CACHE_DIR_ENV
        keys = {}
        for name in ("serial", "dispatch"):
            cache = tmp_path / name
            monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
            runner.clear_cache()
            executor = (DispatchExecutor(workers=1) if name == "dispatch"
                        else "serial")
            outcome = Session(executor=executor, max_workers=1).execute(SPEC)
            keys[name] = span_keys(TelemetryStore(cache), outcome.run_id)
        assert keys["serial"] == keys["dispatch"]
        assert len(keys["serial"]) > 0

    def test_observed_costs_cover_every_kind(self, private_cache):
        session = Session(max_workers=1)
        session.execute(SPEC)
        costs = TelemetryStore(private_cache).observed_costs()
        assert set(costs) == {"capture", "simulate", "analyze", "prefetch",
                              "render"}
        for cost in costs.values():
            assert cost["count"] >= 1

    def test_telemetry_disabled_records_nothing(self, private_cache):
        session = Session(max_workers=1, telemetry=False)
        outcome = session.execute(SPEC)
        assert outcome.run_id is None
        assert TelemetryStore(private_cache).runs() == []

    def test_profile_session_drops_per_stage_prof_files(self, private_cache):
        session = Session(max_workers=1, profile=True)
        outcome = session.execute(SPEC)
        store = TelemetryStore(private_cache)
        profs = {p.name for p in store.run_dir(outcome.run_id).glob("*.prof")}
        # Every stage of the plan was profiled, inline and backend alike.
        assert len(profs) == len(outcome.statuses)

    def test_failed_plan_still_finalises_manifest_and_spans(
            self, private_cache, monkeypatch):
        def exploding(params, config):
            raise RuntimeError("injected simulate failure")

        monkeypatch.setitem(executor_mod._STAGE_FNS, "simulate", exploding)
        session = Session(max_workers=1)
        outcome = session.plan(SPEC).run(session, raise_errors=False)
        assert not outcome.ok
        store = TelemetryStore(private_cache)
        manifest = store.load_manifest(outcome.run_id)
        assert manifest["ok"] is False
        spans = store.load_spans(outcome.run_id)
        by_stage = {(s["origin"], s["stage"]): s for s in spans}
        sim = next(k for k in outcome.statuses if k.startswith("simulate:"))
        assert by_stage[("scheduler", sim)]["status"] == "failed"
        assert "injected simulate failure" in \
            by_stage[("worker", sim)]["error"]
        skipped = [s for s in spans if s["status"] == "skipped"]
        assert skipped, "downstream cone should settle as skipped spans"


class TestSessionSurface:
    def test_telemetry_store_property_gated(self, private_cache):
        assert Session().telemetry_store is not None
        assert Session(telemetry=False).telemetry_store is None

    def test_describe_mentions_telemetry_and_profile(self, private_cache):
        assert "telemetry=True" in Session().describe()
        assert "telemetry=False" in Session(telemetry=False).describe()
        assert "profile=True" in Session(profile=True).describe()
        assert "profile" not in Session().describe()

    def test_with_options_round_trips_new_knobs(self, private_cache):
        session = Session()
        derived = session.with_options(telemetry=False, profile=True)
        assert derived.telemetry is False and derived.profile is True
        assert session.telemetry is True and session.profile is False

    def test_clear_caches_removes_telemetry_even_when_disabled(
            self, private_cache):
        Session(max_workers=1).execute(SPEC)
        store = TelemetryStore(private_cache)
        assert len(store.runs()) == 1
        removed = Session(telemetry=False).clear_caches(disk=True)
        assert removed >= 1
        assert store.runs() == []
