"""PlanEvents completeness: one start, one settle, per stage, per backend.

The telemetry span layer is built entirely on the ``PlanEvents`` hooks, so
its correctness reduces to a property of the scheduler: under every backend,
every stage of a plan emits exactly one ``on_stage_start`` and settles
exactly once (``on_stage_finish`` *or* ``on_stage_error``) — except stages
skipped because a dependency failed, which settle without ever starting.
"""

from collections import Counter

import pytest

from repro.api import (DispatchExecutor, EventLog, ExperimentSpec, Session)
from repro.api import executor as executor_mod

SPEC = ExperimentSpec(
    name="events-grid", size="tiny", seed=42,
    workloads=("Apache",), organisations=("multi-chip", "single-chip"),
    prefetchers=("temporal",), analyses=("figure2", "table1"))


def counts(log, event):
    return Counter(key for kind, key, _ in log.events if kind == event)


def settle_counts(log):
    return Counter(key for kind, key, _ in log.events
                   if kind in ("finish", "error"))


@pytest.mark.parametrize("backend", ["serial", "process", "dispatch"])
def test_exactly_one_start_and_one_settle_per_stage(backend, private_cache):
    executor = (DispatchExecutor(workers=1) if backend == "dispatch"
                else backend)
    session = Session(executor=executor, max_workers=2)
    plan = session.plan(SPEC)
    log = EventLog()
    outcome = plan.run(session, events=log)
    stage_keys = set(plan.stages)
    assert counts(log, "start") == {key: 1 for key in stage_keys}
    assert settle_counts(log) == {key: 1 for key in stage_keys}
    # Every start precedes its settle.
    for key in stage_keys:
        assert log.index("start", key) < log.index("finish", key)
    assert set(outcome.statuses) == stage_keys


def test_failure_run_still_settles_every_stage(private_cache, monkeypatch):
    def exploding(params, config):
        raise RuntimeError("injected simulate failure")

    monkeypatch.setitem(executor_mod._STAGE_FNS, "simulate", exploding)
    session = Session(max_workers=1)
    plan = session.plan(SPEC)
    log = EventLog()
    outcome = plan.run(session, events=log, raise_errors=False)
    stage_keys = set(plan.stages)
    # The settle property is unconditional...
    assert settle_counts(log) == {key: 1 for key in stage_keys}
    # ...while starts fire only for stages that were actually attempted:
    # skipped dependents settle without a start, and nothing starts twice.
    started = counts(log, "start")
    for key, status in outcome.statuses.items():
        if status == "skipped":
            assert started[key] == 0
        else:
            assert started[key] == 1
