"""Session facade: store ownership, singleton delegation, the suite."""

import pytest

from repro.api import Session, get_default_session, set_default_session
from repro.checkpoint import get_checkpoint_store
from repro.experiments import runner
from repro.experiments.store import CACHE_DIR_ENV, CACHE_DISABLE_ENV
from repro.mem.trace import ALL_CONTEXTS, MULTI_CHIP
from repro.trace import get_trace_store


class TestStores:
    def test_stores_share_one_root(self, private_cache):
        session = Session(cache_dir=str(private_cache))
        assert session.cache_root == private_cache
        assert session.result_store.root == private_cache
        assert session.trace_store.root == private_cache / "traces"
        assert session.checkpoint_store.root == private_cache / "checkpoints"

    def test_default_root_tracks_environment(self, private_cache):
        # cache_dir=None resolves REPRO_CACHE_DIR at access time, so the
        # default session keeps working across environment changes.
        session = Session()
        assert session.cache_root == private_cache

    def test_disk_cache_disabled_yields_no_stores(self, private_cache,
                                                  monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV, "1")
        session = Session(cache_dir=str(private_cache))
        assert session.result_store is None
        assert session.trace_store is None
        assert session.checkpoint_store is None
        assert not session.disk_cache_enabled

    def test_with_options_overrides_selectively(self):
        session = Session(max_workers=4, replay=False)
        derived = session.with_options(replay=True)
        assert derived.replay is True
        assert derived.max_workers == 4
        assert session.replay is False  # original untouched

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            Session(max_workers=0)


class TestSingletonDelegation:
    def test_legacy_accessors_delegate_to_default_session(self, private_cache):
        default = get_default_session()
        assert get_trace_store().root == default.trace_store.root
        assert get_checkpoint_store().root == default.checkpoint_store.root
        assert runner.get_store().root == default.result_store.root

    def test_legacy_accessors_honour_cache_dir(self, private_cache, tmp_path):
        other = tmp_path / "elsewhere"
        assert get_trace_store(str(other)).root == other / "traces"
        assert runner.get_store(str(other)).root == other

    def test_set_default_session_swaps_and_restores(self, private_cache,
                                                    tmp_path):
        replacement = Session(cache_dir=str(tmp_path / "swap"))
        previous = set_default_session(replacement)
        try:
            assert get_default_session() is replacement
            assert get_trace_store().root == replacement.trace_store.root
        finally:
            set_default_session(previous)


class TestRun:
    def test_session_run_matches_memoised_engine(self, private_cache):
        session = Session()
        first = session.run("Apache", MULTI_CHIP, size="tiny")
        second = runner.run_context("Apache", MULTI_CHIP, size="tiny")
        assert second is first  # same memo, same engine
        assert first.n_misses > 0

    def test_run_all_covers_contexts(self, private_cache):
        results = Session().run_all("Apache", size="tiny")
        assert set(results) == set(ALL_CONTEXTS)

    def test_memo_is_keyed_by_cache_root(self, private_cache):
        # A fresh root must get its own simulation and its own stores, not
        # the object the in-process memo holds for another root.
        first = Session(cache_dir=str(private_cache / "a")).run(
            "Apache", MULTI_CHIP, size="tiny")
        other = private_cache / "b"
        second = Session(cache_dir=str(other)).run("Apache", MULTI_CHIP,
                                                   size="tiny")
        assert second is not first
        assert len(list(other.glob("v*/context/*.pkl"))) == 1
        assert len(list(other.glob("traces/v*/*/meta.json"))) == 1
        assert (second.miss_trace.state_dict()
                == first.miss_trace.state_dict())

    def test_memo_is_keyed_by_absolute_root(self, private_cache,
                                            monkeypatch):
        # One relative root names a different directory from each working
        # directory; two spellings of one directory share a key.
        for name in ("a", "b"):
            (private_cache / name).mkdir()
        monkeypatch.chdir(private_cache / "a")
        assert (runner.memo_key("cache", "Apache", MULTI_CHIP, "tiny", 42,
                                64, 0.25)
                == runner.memo_key("./cache", "Apache", MULTI_CHIP, "tiny",
                                   42, 64, 0.25))
        first = Session(cache_dir="cache").run("Apache", MULTI_CHIP,
                                               size="tiny")
        monkeypatch.chdir(private_cache / "b")
        second = Session(cache_dir="cache").run("Apache", MULTI_CHIP,
                                                size="tiny")
        assert second is not first
        assert len(list((private_cache / "b" / "cache").glob(
            "v*/context/*.pkl"))) == 1


class TestSuite:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_suite_is_the_reshaped_execute(self, tmp_path, monkeypatch,
                                           executor):
        # Two roots, so both calls simulate: the suite must equal what
        # execute() returns for the spec it builds (clamped warm-up, the
        # default scale, every organisation), reshaped by workload.
        from repro.api import ExperimentSpec
        session = Session(max_workers=2, executor=executor)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "suite"))
        runner.clear_cache()
        suite = session.suite(size="tiny", workloads=("Qry1", "Apache"),
                              warmup_fraction=0.95)
        telemetry = session.telemetry_store
        assert (telemetry.load_manifest(telemetry.last_run_id())["executor"]
                == executor)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "execute"))
        runner.clear_cache()
        bundles = session.execute(ExperimentSpec(
            size="tiny", workloads=("Qry1", "Apache"),
            warmups=(0.9,))).bundles
        runner.clear_cache()
        assert list(suite) == ["Qry1", "Apache"]
        assert {(workload, context, 64, 0.9)
                for workload, contexts in suite.items()
                for context in contexts} == set(bundles)
        for (workload, context, _, _), bundle in bundles.items():
            got = suite[workload][context]
            assert (got.miss_trace.state_dict()
                    == bundle.miss_trace.state_dict())
            assert (got.stream_analysis.fraction_in_streams
                    == bundle.stream_analysis.fraction_in_streams)


class TestWarmupClamping:
    def test_out_of_range_fractions_share_one_key(self, private_cache):
        # Satellite fix: every key-building site clamps identically, so a
        # fraction beyond the clamp range hits the same memo/disk entry.
        a = Session().run("Apache", MULTI_CHIP, size="tiny",
                          warmup_fraction=0.95)
        b = Session().run("Apache", MULTI_CHIP, size="tiny",
                          warmup_fraction=7.0)
        assert b is a  # both clamp to 0.9 and share the memo entry
