"""Coverage results live in the result store and are served from it."""

import pytest

from repro.api import ExperimentSpec, Session
from repro.api.registry import PREFETCHERS
from repro.cachedir import CACHE_DISABLE_ENV
from repro.prefetch import base, coverage_params, evaluate_coverage

SPEC = ExperimentSpec(name="coverage-cache", workloads=("Apache",),
                      organisations=("multi-chip", "single-chip"),
                      scales=(64,), warmups=(0.25,),
                      prefetchers=("temporal", "stride"), size="tiny",
                      seed=42)


def prefetch_stages(result):
    return [key for key in result.statuses if key.startswith("prefetch:")]


@pytest.mark.parametrize("policy", [{}, {"checkpoint": False},
                                    {"replay": False}],
                         ids=["default", "no-checkpoint", "no-replay"])
def test_second_execution_serves_every_coverage_from_the_store(
        tmp_path, monkeypatch, policy):
    session = Session(cache_dir=str(tmp_path), **policy)
    session.clear_caches(disk=False)
    first = session.execute(SPEC)
    stages = prefetch_stages(first)
    assert len(stages) == 6
    assert all(first.statuses[key] == "ran" for key in stages)
    assert len(list(tmp_path.glob("v*/coverage/*.pkl"))) == 6

    def boom(*args, **kwargs):
        raise AssertionError("coverage re-evaluated despite a stored result")

    monkeypatch.setattr(base, "evaluate_coverage", boom)
    session.clear_caches(disk=False)
    second = session.execute(SPEC)
    assert all(second.statuses[key] == "cached" for key in stages)
    assert second.coverage == first.coverage
    # Coverage keeps no checkpoint chains of its own.
    assert session.checkpoint_store.entries() == []


def test_stored_coverage_equals_a_direct_evaluation(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    session.clear_caches(disk=False)
    result = session.execute(SPEC)
    store = session.result_store
    assert len(result.coverage) == 6
    for (prefetcher, workload, context, scale, warmup), coverage \
            in result.coverage.items():
        bundle = result.bundles[(workload, context, scale, warmup)]
        direct = evaluate_coverage(PREFETCHERS.get(prefetcher)(),
                                   bundle.miss_trace)
        assert coverage == direct
        key = coverage_params(prefetcher, workload, context, SPEC.size,
                              SPEC.seed, scale, warmup)
        assert store.load("coverage", key) == direct


def test_corrupt_coverage_entry_is_re_evaluated(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    session.clear_caches(disk=False)
    first = session.execute(SPEC)
    entries = sorted(tmp_path.glob("v*/coverage/*.pkl"))
    entries[0].write_bytes(b"not a pickle")

    session.clear_caches(disk=False)
    with pytest.warns(RuntimeWarning, match="unreadable cache entry"):
        second = session.execute(SPEC)
    statuses = sorted(second.statuses[key] for key in prefetch_stages(second))
    assert statuses == ["cached"] * 5 + ["ran"]
    assert second.coverage == first.coverage
    assert sorted(tmp_path.glob("v*/coverage/*.pkl")) == entries


def test_disabled_disk_cache_re_evaluates_coverage(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DISABLE_ENV, "1")
    session = Session(cache_dir=str(tmp_path))
    for _ in range(2):
        session.clear_caches(disk=False)
        result = session.execute(SPEC)
        stages = prefetch_stages(result)
        assert len(stages) == 6
        assert all(result.statuses[key] == "ran" for key in stages)
    assert list(tmp_path.glob("v*/coverage/*.pkl")) == []


def test_coverage_params_isolate_runs():
    key = coverage_params("temporal", "Rnd", "multi-chip", "tiny", 3, 64,
                          0.25)
    assert "coverage" not in key  # the store kind namespaces it
    assert key != coverage_params("stride", "Rnd", "multi-chip", "tiny", 3,
                                  64, 0.25)
    assert key != coverage_params("temporal", "Rnd", "multi-chip", "tiny", 3,
                                  64, 0.25, buffer_capacity=64)
    assert key == coverage_params("temporal", "Rnd", "multi-chip", "tiny", 3,
                                  64, 0.25)
