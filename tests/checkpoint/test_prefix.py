"""Shared-prefix warm starts: grouping, planning, and cold/warm equality."""

import dataclasses
import random

import pytest

from repro.api.plan import STAGE_KINDS, build_plan
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.checkpoint import (CheckpointStore, DeltaChainWriter, STATS,
                              checkpoint_params, get_checkpoint_store,
                              prefix_params, publish_prefix, restore_latest,
                              shared_prefix_groups)
from repro.trace import TraceStore, trace_params
from repro.trace.epoch import boundary_at_or_before

from .conftest import random_accesses

SPEC = ExperimentSpec(name="prefix-grid", workloads=("Apache",),
                      organisations=("multi-chip",), scales=(64,),
                      warmups=(0.6, 0.8), size="tiny", seed=7)


def fresh_run(tmp_path, sub, warm_start, spec=SPEC, **options):
    """Execute ``spec`` in an isolated cache with cleared in-process memos."""
    from repro.experiments import runner
    runner.clear_cache()
    session = Session(cache_dir=str(tmp_path / sub), warm_start=warm_start,
                      **options)
    plan = session.plan(spec)
    result = session.execute(plan)
    assert result.ok, result.errors
    return session, plan, result


def trace_bytes(result):
    return {key: bundle.miss_trace.state_dict()
            for key, bundle in result.bundles.items()}


# --------------------------------------------------------------------------- #
# epoch math and grouping
# --------------------------------------------------------------------------- #
class TestPrefixMath:
    SEGMENTS = [{"n": 100}, {"n": 100}, {"n": 50}]

    def test_boundary_at_or_before(self):
        assert boundary_at_or_before(self.SEGMENTS, 0) == 0
        assert boundary_at_or_before(self.SEGMENTS, 99) == 0
        assert boundary_at_or_before(self.SEGMENTS, 100) == 1
        assert boundary_at_or_before(self.SEGMENTS, 249) == 2
        assert boundary_at_or_before(self.SEGMENTS, 250) == 3
        assert boundary_at_or_before(self.SEGMENTS, 10_000) == 3
        assert boundary_at_or_before([], 100) == 0

    def test_prefix_params_excludes_warmup(self):
        key = prefix_params("Apache", 16, 7, "tiny", "multi-chip", 64)
        assert key["prefix"] is True
        assert "warmup" not in key
        # Two cells differing only in warmup share the key by construction.
        assert key == prefix_params("Apache", 16, 7, "tiny", "multi-chip",
                                    64)

    def test_shared_prefix_groups(self):
        cells = [("Apache", "multi-chip", 64, 0.25),
                 ("Apache", "multi-chip", 64, 0.5),
                 ("Apache", "multi-chip", 8, 0.25),   # lone warmup
                 ("OLTP", "multi-chip", 64, 0.0),
                 ("OLTP", "multi-chip", 64, 0.5),     # min is 0 -> no prefix
                 ("Zeus", "single-chip", 64, 0.5),
                 ("Zeus", "single-chip", 64, 0.25)]
        groups = shared_prefix_groups(cells)
        assert groups == [(("Apache", "multi-chip", 64), 0.25),
                          (("Zeus", "single-chip", 64), 0.25)]

    def test_shared_prefix_groups_empty(self):
        assert shared_prefix_groups([]) == []
        assert shared_prefix_groups([("A", "multi-chip", 64, 0.25)]) == []


# --------------------------------------------------------------------------- #
# restore_latest: the furthest of a cell's own and the shared-prefix checkpoint
# --------------------------------------------------------------------------- #
class RecordingSystem:
    """Stands in for a system model: keeps the state restored into it."""

    state = None

    def restore(self, state):
        self.state = state


class TestRestoreLatest:
    CELL = checkpoint_params("Apache", 16, 7, "tiny", "multi-chip", 64, 0.6)
    PREFIX = prefix_params("Apache", 16, 7, "tiny", "multi-chip", 64)

    @pytest.fixture
    def store(self, tmp_path):
        return CheckpointStore(tmp_path)

    @staticmethod
    def save(store, params, epoch):
        owner = "prefix" if params.get("prefix") else "cell"
        DeltaChainWriter(store, params).save(epoch, {"owner": owner,
                                                     "epoch": epoch})

    def restore(self, store, stop=10, prefix_limit=5):
        system = RecordingSystem()
        start = restore_latest(system, store, self.CELL, stop,
                               prefix_params=self.PREFIX,
                               prefix_limit=prefix_limit)
        return start, system.state

    def test_nothing_stored_restores_nothing(self, store):
        resumes, warm = STATS.resumes, STATS.warm_starts
        assert self.restore(store) == (0, None)
        assert (STATS.resumes, STATS.warm_starts) == (resumes, warm)

    def test_own_checkpoint_beats_a_shorter_prefix(self, store):
        self.save(store, self.PREFIX, 2)
        self.save(store, self.CELL, 4)
        resumes, warm = STATS.resumes, STATS.warm_starts
        assert self.restore(store) == (4, {"owner": "cell", "epoch": 4})
        assert (STATS.resumes, STATS.warm_starts) == (resumes + 1, warm)

    def test_prefix_beats_a_shorter_own_checkpoint(self, store):
        self.save(store, self.CELL, 1)
        self.save(store, self.PREFIX, 3)
        resumes, warm = STATS.resumes, STATS.warm_starts
        assert self.restore(store) == (3, {"owner": "prefix", "epoch": 3})
        assert (STATS.resumes, STATS.warm_starts) == (resumes + 1, warm + 1)

    def test_prefix_past_the_cells_warmup_is_not_used(self, store):
        # A prefix is simulated with recording off throughout, so a boundary
        # past this cell's warm-up lacks misses the cell must record.
        self.save(store, self.PREFIX, 6)
        assert self.restore(store, prefix_limit=5) == (0, None)
        assert self.restore(store, prefix_limit=6) == (6, {"owner": "prefix",
                                                           "epoch": 6})

    def test_own_checkpoint_past_stop_is_not_used(self, store):
        self.save(store, self.CELL, 3)
        self.save(store, self.CELL, 8)
        assert self.restore(store, stop=5) == (3, {"owner": "cell",
                                                   "epoch": 3})


# --------------------------------------------------------------------------- #
# planning
# --------------------------------------------------------------------------- #
class TestPlanning:
    def test_prefix_is_a_stage_kind(self):
        assert "prefix" in STAGE_KINDS

    def test_plan_gains_prefix_stage_for_shared_groups(self):
        plan = build_plan(SPEC, warm_starts=True)
        key = "prefix:Apache/multi-chip@scale64"
        assert key in plan.stages
        stage = plan.stages[key]
        assert stage.kind == "prefix"
        assert stage.params["warmup"] == 0.6  # the group minimum
        assert stage.deps == ("capture:Apache@16cpu",)
        for warmup in ("0.6", "0.8"):
            sim = plan.stages[f"simulate:Apache/multi-chip@scale64"
                              f"-warmup{warmup}"]
            assert key in sim.deps

    def test_plan_without_warm_starts_has_no_prefix(self):
        plan = build_plan(SPEC, warm_starts=False)
        assert not [k for k in plan.stages if k.startswith("prefix:")]

    def test_single_warmup_spec_has_no_prefix(self):
        solo = ExperimentSpec(name="solo", workloads=("Apache",),
                              organisations=("multi-chip",), scales=(64,),
                              warmups=(0.25,), size="tiny", seed=7)
        plan = build_plan(solo, warm_starts=True)
        assert not [k for k in plan.stages if k.startswith("prefix:")]

    def test_session_plan_respects_warm_start_option(self, tmp_path):
        on = Session(cache_dir=str(tmp_path), warm_start=True).plan(SPEC)
        off = Session(cache_dir=str(tmp_path), warm_start=False).plan(SPEC)
        assert [k for k in on.stages if k.startswith("prefix:")]
        assert not [k for k in off.stages if k.startswith("prefix:")]


# --------------------------------------------------------------------------- #
# execution: cold == warm, counters, policy toggles
# --------------------------------------------------------------------------- #
class TestWarmStartExecution:
    def test_warm_equals_cold_and_counts(self, tmp_path):
        _, _, cold = fresh_run(tmp_path, "cold", warm_start=False)
        warm_before = STATS.warm_starts
        _, plan, warm = fresh_run(tmp_path, "warm", warm_start=True)
        assert warm.statuses["prefix:Apache/multi-chip@scale64"] == "ran"
        # Both member cells restored the published prefix checkpoint.
        assert STATS.warm_starts == warm_before + 2
        assert trace_bytes(warm) == trace_bytes(cold)

    def test_policy_that_skips_prefixes_plans_none(self, tmp_path):
        spec = dataclasses.replace(SPEC, analyses=("figure2",))
        _, default_plan, default = fresh_run(tmp_path, "default",
                                             warm_start=True, spec=spec)
        assert default_plan.by_kind("prefix")
        _, plan, result = fresh_run(tmp_path, "no-checkpoint",
                                    warm_start=True, spec=spec,
                                    checkpoint=False)
        assert not plan.by_kind("prefix")
        assert "skipped" not in result.statuses.values()
        assert result.render_all() == default.render_all()
        assert trace_bytes(result) == trace_bytes(default)
        no_replay = Session(cache_dir=str(tmp_path), replay=False)
        assert not no_replay.plan(spec).by_kind("prefix")

    def test_warm_start_false_never_restores_prefix(self, tmp_path):
        warm_before = STATS.warm_starts
        _, plan, result = fresh_run(tmp_path, "off", warm_start=False)
        assert STATS.warm_starts == warm_before
        assert not [k for k in result.statuses if k.startswith("prefix:")]

    def test_publish_prefix_is_idempotent(self, tmp_path):
        cache = str(tmp_path / "pub")
        session, _, _ = fresh_run(tmp_path, "pub", warm_start=True)
        assert publish_prefix("Apache", "multi-chip", "tiny", 7, 64, 0.6,
                              cache_dir=cache) == "cached"

    @pytest.mark.parametrize("dense", [False, True],
                             ids=["default-interval", "every-boundary"])
    def test_publish_prefix_writes_one_checkpoint(self, tmp_path,
                                                  monkeypatch, dense):
        from repro.checkpoint import get_checkpoint_store, replay
        from repro.trace import get_trace_store, trace_params
        if dense:
            monkeypatch.setattr(replay, "CHECKPOINT_INTERVAL_S", 0.0)
        cache = str(tmp_path / "one")
        fresh_run(tmp_path, "one", warm_start=True)
        reader = get_trace_store(cache).open(
            trace_params("Apache", 16, 7, "tiny"))
        key = prefix_params("Apache", 16, 7, "tiny", "multi-chip", 64,
                            epoch_size=reader.meta.epoch_size)
        stop = boundary_at_or_before(reader.meta.segments,
                                     int(reader.n_accesses * 0.6))
        store = get_checkpoint_store(cache)
        assert store.epochs(key) == [stop]
        if not dense:
            # The member cells are short: they leave no checkpoint of
            # their own, so the prefix is all the store holds.
            assert store.runs() == [store.path_for(key)]

    def test_publish_prefix_inside_the_first_epoch_skips(self, tmp_path):
        # Apache's `tiny` trace has two epochs: a 30% warm-up ends inside
        # the first, so no warm-up-independent boundary exists to publish.
        cache = str(tmp_path / "first")
        fresh_run(tmp_path, "first", warm_start=False)
        assert publish_prefix("Apache", "multi-chip", "tiny", 7, 64, 0.3,
                              cache_dir=cache) == "skipped"
        assert get_checkpoint_store(cache).entries() == []

    def test_publish_prefix_extends_a_shorter_prefix(self, tmp_path):
        # A random trace of many small epochs stands in for a long one.
        key = prefix_params("Rnd", 16, 7, "tiny", "multi-chip", 512,
                            epoch_size=128)
        stream = random_accesses(random.Random(3), n=1500)
        roots = [str(tmp_path / name) for name in ("warm", "cold")]
        for root in roots:
            traces = TraceStore(root)
            for _ in traces.capture(iter(stream),
                                    trace_params("Rnd", 16, 7, "tiny"),
                                    epoch_size=128):
                pass
        reader = TraceStore(roots[0]).open(trace_params("Rnd", 16, 7,
                                                        "tiny"))
        short, long = (boundary_at_or_before(reader.meta.segments,
                                             int(reader.n_accesses * f))
                       for f in (0.3, 0.6))
        assert 1 <= short < long

        def publish(root, warmup):
            return publish_prefix("Rnd", "multi-chip", "tiny", 7, 512,
                                  warmup, cache_dir=root)

        warm, cold = (CheckpointStore(root) for root in roots)
        assert publish(roots[0], 0.3) == "ran"
        resumes_before = STATS.resumes
        assert publish(roots[0], 0.6) == "ran"
        assert STATS.resumes == resumes_before + 1
        assert warm.epochs(key) == [short, long]
        assert publish(roots[1], 0.6) == "ran"
        assert STATS.resumes == resumes_before + 1
        assert warm.load(key, long) == cold.load(key, long)

    def test_publish_prefix_without_trace_skips(self, tmp_path):
        assert publish_prefix("Apache", "multi-chip", "tiny", 99, 64, 0.6,
                              cache_dir=str(tmp_path / "empty")) == "skipped"

    def test_index_records_warm_start_column(self, tmp_path):
        from repro.obs.index import RunIndex
        cache = tmp_path / "warm-idx"
        _, _, result = fresh_run(tmp_path, "warm-idx", warm_start=True)
        assert result.run_id is not None
        index = RunIndex(cache)
        index.ingest()
        _, rows = index.query(
            "spans", select=["stage", "warm_start"],
            where=[("kind", "=", "simulate")], order_by="stage")
        assert rows, "no simulate spans indexed"
        assert all(warm == 1 for _stage, warm in rows), rows
        # Non-simulate spans leave the column NULL (question doesn't apply).
        _, other = index.query("spans", select=["warm_start"],
                               where=[("kind", "=", "capture")])
        assert all(warm is None for (warm,) in other)
