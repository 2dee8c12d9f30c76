"""On-disk result store: hit/miss/invalidation and runner integration."""

import os
import pickle

import pytest

from repro.experiments import runner
from repro.experiments.store import (CACHE_DIR_ENV, CACHE_DISABLE_ENV,
                                     ResultStore, default_cache_root,
                                     disk_cache_disabled)
from repro.checkpoint import get_checkpoint_store
from repro.trace import get_trace_store

PARAMS = {"workload": "Apache", "context": "multi-chip", "size": "tiny",
          "seed": 42, "scale": 64, "warmup": 0.25}


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load("context", PARAMS) is None
        store.save("context", PARAMS, {"value": 7})
        assert store.load("context", PARAMS) == {"value": 7}
        assert store.contains("context", PARAMS)

    def test_distinct_params_are_distinct_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        other = dict(PARAMS, seed=43)
        store.save("context", PARAMS, "a")
        store.save("context", other, "b")
        assert store.load("context", PARAMS) == "a"
        assert store.load("context", other) == "b"
        assert len(store.entries()) == 2

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.save("context", PARAMS, "old")
        monkeypatch.setattr("repro.experiments.store.CACHE_SCHEMA", 2)
        bumped = ResultStore(tmp_path)
        assert bumped.version != store.version
        assert bumped.load("context", PARAMS) is None
        # The old entry still exists on disk until cleared...
        assert len(bumped.entries()) == 1
        # ...and clear() removes every version directory.
        assert bumped.clear() == 1
        assert bumped.entries() == []

    def test_package_version_participates_in_key(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.save("context", PARAMS, "old")
        monkeypatch.setattr("repro.experiments.store.__version__", "99.0.0")
        assert ResultStore(tmp_path).load("context", PARAMS) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save("context", PARAMS, "payload")
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="unreadable cache entry"):
            assert store.load("context", PARAMS) is None
        assert not path.exists()

    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save("context", PARAMS, {"value": list(range(1000))})
        path.write_bytes(path.read_bytes()[:40])  # truncate mid-payload
        with pytest.warns(RuntimeWarning, match="will be recomputed"):
            assert store.load("context", PARAMS) is None
        assert not path.exists()
        # The next save/load cycle recovers normally.
        store.save("context", PARAMS, "fresh")
        assert store.load("context", PARAMS) == "fresh"

    def test_clear_reports_entry_count(self, tmp_path):
        store = ResultStore(tmp_path)
        for seed in range(3):
            store.save("context", dict(PARAMS, seed=seed), seed)
        assert store.clear() == 3
        assert store.load("context", PARAMS) is None

    def test_env_var_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert default_cache_root().name == "repro"

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV, "1")
        assert disk_cache_disabled()
        assert runner.get_store() is None
        monkeypatch.setenv(CACHE_DISABLE_ENV, "")
        assert not disk_cache_disabled()
        assert runner.get_store() is not None


class TestRunnerDiskCache:
    @pytest.fixture(autouse=True)
    def _private_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        runner.clear_cache()
        yield
        runner.clear_cache()

    def test_result_persisted_on_first_run(self):
        result = runner.run_context("Apache", "multi-chip", size="tiny")
        store = runner.get_store()
        assert store is not None
        assert len(store.entries()) == 1
        assert result.n_misses > 0

    def test_second_process_equivalent_load_skips_simulation(self, monkeypatch):
        first = runner.run_context("Apache", "multi-chip", size="tiny")
        # Fresh process simulation: drop the in-memory memo, then poison the
        # simulator — a cache hit must not call it.
        runner.clear_cache()

        def boom(*args, **kwargs):
            raise AssertionError("simulated despite disk cache hit")

        monkeypatch.setattr(runner, "_simulate", boom)
        second = runner.run_context("Apache", "multi-chip", size="tiny")
        assert second is not first  # loaded from disk, not the memo
        assert second.n_misses == first.n_misses
        assert ([r.block for r in second.miss_trace]
                == [r.block for r in first.miss_trace])
        assert (second.stream_analysis.fraction_in_streams
                == first.stream_analysis.fraction_in_streams)
        # The reconstructed grammar still expands to the miss sequence.
        assert (second.stream_analysis.grammar.expand()
                == second.miss_trace.addresses())

    def test_memo_preserves_identity_within_process(self):
        first = runner.run_context("Apache", "multi-chip", size="tiny")
        second = runner.run_context("Apache", "multi-chip", size="tiny")
        assert first is second

    def test_clear_cache_disk_flag(self, monkeypatch):
        # A zero checkpoint interval makes this short run snapshot every
        # boundary but the last, as a long run would at its interval.
        from repro.checkpoint import replay
        monkeypatch.setattr(replay, "CHECKPOINT_INTERVAL_S", 0.0)
        runner.run_context("Apache", "multi-chip", size="tiny")
        # One analysis bundle, the captured access trace, and the run's
        # epoch-boundary checkpoints.
        checkpoints = get_checkpoint_store()
        n_checkpoints = len(checkpoints.entries())
        assert n_checkpoints >= 1
        assert runner.clear_cache(disk=True) == 2 + n_checkpoints
        store = runner.get_store()
        assert store is not None and store.entries() == []
        traces = get_trace_store()
        assert traces is not None and traces.entries() == []
        assert checkpoints.entries() == []

    def test_disabled_store_still_computes(self, monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV, "1")
        result = runner.run_context("Apache", "multi-chip", size="tiny")
        assert result.n_misses > 0


class TestContextResultPickle:
    def test_bundle_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        runner.clear_cache()
        result = runner.run_context("OLTP", "intra-chip", size="tiny")
        clone = pickle.loads(pickle.dumps(result))
        assert clone.n_misses == result.n_misses
        assert clone.stream_analysis.grammar.expand() == \
            result.stream_analysis.grammar.expand()
        clone.modules.check_consistency()
        runner.clear_cache()
