"""Suite sweeps through ``Session.suite``: the plan scheduler, inline or on
its process backend, plus the disk-cache-served re-run."""

import pytest

from repro.api import ExperimentSpec, SYSTEMS, Session, spec_contexts
from repro.experiments import runner
from repro.experiments.store import CACHE_DIR_ENV
from repro.mem.trace import ALL_CONTEXTS


@pytest.fixture(autouse=True)
def _private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    runner.clear_cache()
    yield
    runner.clear_cache()


def _inline():
    return Session(max_workers=1)


def _pooled():
    return Session(max_workers=2, executor="process")


def test_organisation_contexts_cover_all():
    assert sorted(spec_contexts(ExperimentSpec())) == sorted(ALL_CONTEXTS)


def test_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        Session(max_workers=0)


def test_suite_rejects_unknown_organisation():
    with pytest.raises(ValueError, match="mega-chip"):
        _inline().suite(size="tiny", workloads=("Apache",),
                        organisations=("mega-chip",))


def test_inline_suite_matches_serial_runner(tmp_path, monkeypatch):
    workloads = ("Apache", "Qry1")
    suite = _inline().suite(size="tiny", workloads=workloads)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "serial"))
    runner.clear_cache()
    serial = _serial_bundles(workloads)
    for workload in workloads:
        for context in ALL_CONTEXTS:
            assert (suite[workload][context].n_misses
                    == serial[workload][context].n_misses)


def _serial_bundles(workloads):
    """Serial bundles (also leaves traces and result entries on disk)."""
    return {workload: {context: runner.run_context(workload, context,
                                                   size="tiny")
                       for context in ALL_CONTEXTS}
            for workload in workloads}


def _delete_result_bundles(cache_dir):
    paths = list(cache_dir.glob("v*/context/*.pkl"))
    for path in paths:
        path.unlink()
    return len(paths)


def _assert_bundles_equal(got, want):
    assert got.miss_trace.state_dict() == want.miss_trace.state_dict()
    assert (got.stream_analysis.fraction_in_streams
            == want.stream_analysis.fraction_in_streams)


@pytest.mark.parametrize("organisation", sorted(SYSTEMS.names()))
def test_organisation_subset_matches_serial(tmp_path, monkeypatch,
                                            organisation):
    results = _inline().suite(size="tiny", workloads=("Apache",),
                              organisations=(organisation,))
    contexts = SYSTEMS.get(organisation).contexts
    assert set(results["Apache"]) == set(contexts)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "serial"))
    runner.clear_cache()
    for context in contexts:
        _assert_bundles_equal(results["Apache"][context],
                              runner.run_context("Apache", context,
                                                 size="tiny"))


def test_suite_resimulates_lost_bundles_bit_identically(tmp_path):
    reference = _serial_bundles(("Apache",))
    assert _delete_result_bundles(tmp_path) == len(ALL_CONTEXTS)
    runner.clear_cache()
    results = _pooled().suite(size="tiny", workloads=("Apache",))
    for context in ALL_CONTEXTS:
        _assert_bundles_equal(results["Apache"][context],
                              reference["Apache"][context])


def test_suite_resumes_lost_bundles_from_checkpoints(tmp_path, monkeypatch):
    # An inline suite shares this process, so a zero checkpoint interval
    # applies to it too: the serial run leaves interior boundaries, and the
    # suite restores the latest one once per organisation.
    from repro.checkpoint import STATS, get_checkpoint_store, replay
    monkeypatch.setattr(replay, "CHECKPOINT_INTERVAL_S", 0.0)
    reference = _serial_bundles(("Apache",))
    assert len(get_checkpoint_store().runs()) == len(SYSTEMS.names())
    _delete_result_bundles(tmp_path)
    runner.clear_cache()
    resumes_before = STATS.resumes
    results = _inline().suite(size="tiny", workloads=("Apache",))
    assert STATS.resumes == resumes_before + len(SYSTEMS.names())
    for context in ALL_CONTEXTS:
        _assert_bundles_equal(results["Apache"][context],
                              reference["Apache"][context])


def test_suite_repersists_bundles(tmp_path, monkeypatch):
    _serial_bundles(("OLTP",))
    _delete_result_bundles(tmp_path)
    runner.clear_cache()
    _pooled().suite(size="tiny", workloads=("OLTP",))
    # The pool workers wrote the bundles back under the runner's own keys.
    assert len(list(tmp_path.glob("v*/context/*.pkl"))) == len(ALL_CONTEXTS)
    runner.clear_cache()

    def boom(*args, **kwargs):
        raise AssertionError("re-simulated despite repersisted bundles")

    monkeypatch.setattr(runner, "_simulate", boom)
    rerun = _inline().suite(size="tiny", workloads=("OLTP",))
    assert rerun["OLTP"]["multi-chip"].n_misses > 0


def test_process_pool_small_sweep_and_cached_rerun(monkeypatch):
    """Acceptance: small-size sweep over the pool; re-run served from disk."""
    workloads = ("Apache", "OLTP", "Qry1")
    results = _pooled().suite(size="small", workloads=workloads)
    assert set(results) == set(workloads)
    for workload in workloads:
        assert set(results[workload]) == set(ALL_CONTEXTS)
        for context in ALL_CONTEXTS:
            assert results[workload][context].n_misses > 100

    # The sweep persisted one entry per (workload, context).
    store = runner.get_store()
    assert store is not None
    assert len(store.entries()) == len(workloads) * len(ALL_CONTEXTS)

    # Second invocation: drop the in-memory memo and poison the simulator —
    # an inline re-run must be served entirely from the disk store.
    runner.clear_cache()

    def boom(*args, **kwargs):
        raise AssertionError("re-simulated despite populated disk cache")

    monkeypatch.setattr(runner, "_simulate", boom)
    rerun = _inline().suite(size="small", workloads=workloads)
    for workload in workloads:
        for context in ALL_CONTEXTS:
            assert (rerun[workload][context].n_misses
                    == results[workload][context].n_misses)
