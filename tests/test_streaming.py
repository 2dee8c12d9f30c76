"""Streaming-vs-eager-vs-replay equivalence for the whole access pipeline.

The streaming pipeline (``Workload.iter_accesses`` -> ``run_stream``) must be
observationally identical to the eager reference (``Workload.generate`` ->
``run``): same accesses, same order, same miss traces, same warm-up
behaviour — only the memory profile differs.  The same
contract extends to trace replay: simulating from a captured columnar trace
(``TraceReader.iter_epochs`` -> ``run_chunks``, the vectorised fast path)
must yield a miss trace identical to simulating live generation.
"""

import pytest

from repro.api import Session
from repro.mem import (MultiChipSystem, SingleChipSystem, iter_chunks,
                       multichip_config, singlechip_config)
from repro.mem.trace import DEFAULT_CHUNK_SIZE
from repro.trace import STATS, TraceStore, get_trace_store, trace_params
from repro.workloads import (GENERATION_STATS, WORKLOAD_NAMES,
                             create_workload, generate_trace,
                             stream_accesses)


def _access_key(access):
    return (access.cpu, access.addr, access.size, access.kind,
            access.fn.name, access.thread, access.icount)


def _miss_key(record):
    return (record.seq, record.cpu, record.block, record.miss_class,
            record.fn.name, record.supplier)


class TestIterChunks:
    def test_exact_partition(self):
        chunks = list(iter_chunks(range(10), 5))
        assert chunks == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_ragged_tail(self):
        chunks = list(iter_chunks(range(7), 3))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6]]

    def test_empty(self):
        assert list(iter_chunks([], 4)) == []

    def test_consumes_lazily(self):
        def gen():
            yield from range(100)
            raise AssertionError("over-consumed")

        first = next(iter_chunks(gen(), 10))
        assert first == list(range(10))

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_chunks(range(3), 0))


class TestStreamEqualsEager:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_access_streams_identical(self, name):
        eager = generate_trace(name, n_cpus=4, size="tiny", seed=11)
        streamed = list(stream_accesses(name, n_cpus=4, size="tiny", seed=11))
        assert len(streamed) == len(eager)
        assert ([_access_key(a) for a in streamed]
                == [_access_key(a) for a in eager])

    def test_iter_run_does_not_materialise(self):
        workload = create_workload("Apache", n_cpus=4, size="tiny", seed=5)
        consumed = sum(1 for _ in workload.iter_accesses())
        assert consumed > 1000
        assert len(workload.builder.trace) == 0

    def test_generate_still_materialises(self):
        workload = create_workload("Apache", n_cpus=4, size="tiny", seed=5)
        trace = workload.generate()
        assert trace is workload.builder.trace
        assert len(trace) > 1000


class TestSystemRunStream:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_multichip_miss_traces_identical(self, name):
        trace = generate_trace(name, n_cpus=16, size="tiny", seed=3)
        eager = MultiChipSystem(multichip_config()).run(trace)
        streamed = MultiChipSystem(multichip_config()).run_stream(
            stream_accesses(name, n_cpus=16, size="tiny", seed=3),
            chunk_size=997)
        assert streamed.instructions == eager.instructions
        assert ([_miss_key(r) for r in streamed]
                == [_miss_key(r) for r in eager])

    def test_singlechip_miss_traces_identical(self):
        trace = generate_trace("OLTP", n_cpus=4, size="tiny", seed=3)
        eager_off, eager_intra = SingleChipSystem(singlechip_config()).run(trace)
        stream_off, stream_intra = SingleChipSystem(
            singlechip_config()).run_stream(
                stream_accesses("OLTP", n_cpus=4, size="tiny", seed=3),
                chunk_size=512)
        assert ([_miss_key(r) for r in stream_off]
                == [_miss_key(r) for r in eager_off])
        assert ([_miss_key(r) for r in stream_intra]
                == [_miss_key(r) for r in eager_intra])

    @pytest.mark.parametrize("chunk_size", [1, 7, 1000, DEFAULT_CHUNK_SIZE])
    def test_warmup_boundary_matches_eager_indexing(self, chunk_size):
        """run_stream's warm-up split reproduces the eager index flip."""
        trace = generate_trace("Qry1", n_cpus=16, size="tiny", seed=9)
        warmup = len(trace) // 4

        eager_system = MultiChipSystem(multichip_config())
        eager_system.set_recording(False)
        for i, access in enumerate(trace):
            if i == warmup:
                eager_system.set_recording(True)
            eager_system.process(access)
        eager = eager_system.finish()

        streamed = MultiChipSystem(multichip_config()).run_stream(
            iter(trace), warmup=warmup, chunk_size=chunk_size)
        assert streamed.instructions == eager.instructions
        assert ([_miss_key(r) for r in streamed]
                == [_miss_key(r) for r in eager])

    def test_warmup_beyond_stream_restores_recording(self):
        system = MultiChipSystem(multichip_config())
        result = system.run_stream(iter([]), warmup=10)
        assert system.recording
        assert len(result) == 0


class TestReplayEquivalence:
    """Acceptance: replayed simulation == live simulation, per workload."""

    def _capture(self, tmp_path, name, n_cpus, seed, size, epoch_size=4096):
        store = TraceStore(tmp_path)
        params = trace_params(name, n_cpus, seed, size)
        stream = store.capture(create_workload(
            name, n_cpus=n_cpus, seed=seed, size=size).iter_accesses(),
            params, epoch_size=epoch_size)
        n = sum(1 for _ in stream)
        return store.open(params), n

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_replayed_multichip_miss_trace_identical(self, tmp_path, name):
        """Small preset: replayed epochs through run_chunks == live stream."""
        reader, n = self._capture(tmp_path, name, 16, 42, "small")
        warmup = n // 4
        live = MultiChipSystem(multichip_config()).run_stream(
            stream_accesses(name, n_cpus=16, size="small", seed=42),
            warmup=warmup)
        replayed = MultiChipSystem(multichip_config()).run_chunks(
            reader.iter_epochs(), warmup=warmup)
        assert replayed.instructions == live.instructions
        assert ([_miss_key(r) for r in replayed]
                == [_miss_key(r) for r in live])

    def test_replayed_singlechip_miss_traces_identical(self, tmp_path):
        reader, n = self._capture(tmp_path, "OLTP", 4, 42, "small")
        warmup = n // 4
        live_off, live_intra = SingleChipSystem(
            singlechip_config()).run_stream(
                stream_accesses("OLTP", n_cpus=4, size="small", seed=42),
                warmup=warmup)
        rep_off, rep_intra = SingleChipSystem(singlechip_config()).run_chunks(
            reader.iter_epochs(), warmup=warmup)
        assert [_miss_key(r) for r in rep_off] == \
            [_miss_key(r) for r in live_off]
        assert [_miss_key(r) for r in rep_intra] == \
            [_miss_key(r) for r in live_intra]

    @pytest.mark.parametrize("warmup_divisor", [1, 3, 4, 10_000_000])
    def test_warmup_boundary_splits_columnar_epochs(self, tmp_path,
                                                    warmup_divisor):
        """The recording flip lands mid-epoch and must match eager indexing."""
        reader, n = self._capture(tmp_path, "Qry1", 16, 9, "tiny",
                                  epoch_size=700)
        warmup = n // warmup_divisor
        trace = generate_trace("Qry1", n_cpus=16, size="tiny", seed=9)
        eager_system = MultiChipSystem(multichip_config())
        eager_system.set_recording(False)
        for i, access in enumerate(trace):
            if i == warmup:
                eager_system.set_recording(True)
            eager_system.process(access)
        eager = eager_system.finish()

        replayed = MultiChipSystem(multichip_config()).run_chunks(
            reader.iter_epochs(), warmup=warmup)
        assert replayed.instructions == eager.instructions
        assert ([_miss_key(r) for r in replayed]
                == [_miss_key(r) for r in eager])


class TestRunnerReplayCache:
    """Acceptance: a second run with a different warmup/context replays."""

    def test_second_run_hits_trace_store(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner.clear_cache()
        GENERATION_STATS.reset()
        STATS.reset()
        first = runner.run_context("Apache", "multi-chip", size="tiny",
                                   seed=33)
        # Capture-on-first-run: one generation (the tee'd counting pass),
        # then the simulation pass replays the fresh capture.
        assert GENERATION_STATS.runs == 1
        assert STATS.captures == 1

        # Different warmup fraction => different result key, same stream.
        runner.clear_cache()
        GENERATION_STATS.reset()
        STATS.reset()
        second = runner.run_context("Apache", "multi-chip", size="tiny",
                                    seed=33, warmup_fraction=0.5)
        assert GENERATION_STATS.runs == 0  # served by replay, not generators
        assert STATS.hits >= 1 and STATS.captures == 0
        assert second.n_misses != 0
        # More warm-up means fewer recorded misses, over the same stream.
        assert second.miss_trace.instructions < first.miss_trace.instructions

    def test_different_context_reuses_same_capture_key_space(
            self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner.clear_cache()
        runner.run_context("Zeus", "multi-chip", size="tiny")
        store = get_trace_store()
        assert store.contains(trace_params("Zeus", 16, 42, "tiny"))
        # A different scale simulates again but replays the same trace.
        runner.clear_cache()
        GENERATION_STATS.reset()
        runner.run_context("Zeus", "multi-chip", size="tiny", scale=32)
        assert GENERATION_STATS.runs == 0

    def test_no_replay_flag_bypasses_trace_store(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner.clear_cache()
        GENERATION_STATS.reset()
        STATS.reset()
        runner.run_context("Qry2", "multi-chip", size="tiny",
                           session=Session(replay=False))
        assert GENERATION_STATS.runs == 2  # counting pass + simulation pass
        assert STATS.captures == 0
        store = get_trace_store()
        assert not store.contains(trace_params("Qry2", 16, 42, "tiny"))


class TestRunnerStreamingParity:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_bundles_match_in_multichip_context(self, name, monkeypatch):
        """The runner's streaming path (no trace store: a counting pass,
        then a second generation) builds the bundle that the eager
        reference — the materialised trace simulated directly — does."""
        from repro.experiments import runner

        runner.clear_cache()
        monkeypatch.setenv("REPRO_DISABLE_DISK_CACHE", "1")
        via_stream = runner.run_context(name, "multi-chip", size="tiny",
                                        seed=21)
        runner.clear_cache()
        trace = create_workload(name, n_cpus=16, seed=21,
                                size="tiny").generate()
        system = runner._build_system("multi-chip", runner.DEFAULT_SCALE)
        warmup = int(len(trace) * runner.DEFAULT_WARMUP_FRACTION)
        via_eager = runner._analyze(name, "multi-chip",
                                    system.run_stream(iter(trace),
                                                      warmup=warmup))
        assert via_stream.n_misses == via_eager.n_misses
        assert ([_miss_key(r) for r in via_stream.miss_trace]
                == [_miss_key(r) for r in via_eager.miss_trace])
        assert (via_stream.stream_analysis.fraction_in_streams
                == via_eager.stream_analysis.fraction_in_streams)
        assert (via_stream.classification.total_misses
                == via_eager.classification.total_misses)
