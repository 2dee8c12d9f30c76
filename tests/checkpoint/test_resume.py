"""Resume equivalence: interrupted+resumed runs are bit-identical to serial.

Covers the checkpointed-replay primitive (``simulate_replay``), the runner
integration (a rerun restores the latest checkpoint instead of simulating
from access zero), and the corrupt-trace fallback.
"""

import random

import pytest

from repro.api import Session
from repro.checkpoint import (CheckpointStore, STATS, checkpoint_params,
                              simulate_replay)
from repro.mem.trace import MULTI_CHIP
from repro.trace import TraceStore, trace_params

from .conftest import make_system, random_accesses

EPOCH_SIZE = 128

TRACE_KEY = trace_params("Rnd", 4, 7, "tiny")
CKPT_KEY = checkpoint_params("Rnd", 4, 7, "tiny", "multi-chip", 512, 0.25,
                             epoch_size=EPOCH_SIZE)


def assert_traces_equal(mine, theirs):
    assert mine.context == theirs.context
    assert mine.instructions == theirs.instructions
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert (a.seq, a.cpu, a.block, a.miss_class, a.fn, a.supplier) == \
               (b.seq, b.cpu, b.block, b.miss_class, b.fn, b.supplier)


@pytest.fixture
def captured(tmp_path):
    """A captured random trace (many small epochs) plus its stores."""
    rng = random.Random(42)
    stream = random_accesses(rng, n=1500, n_cpus=4)
    traces = TraceStore(tmp_path)
    for _ in traces.capture(iter(stream), TRACE_KEY, epoch_size=EPOCH_SIZE):
        pass
    reader = traces.open(TRACE_KEY)
    assert reader is not None and reader.n_epochs >= 8
    return reader, CheckpointStore(tmp_path)


class TestSimulateReplay:
    def test_uninterrupted_run_equals_plain_replay(self, captured,
                                                   organisation,
                                                   every_boundary):
        reader, ckpts = captured
        warmup = reader.n_accesses // 4

        plain = make_system(organisation)
        plain.run_chunks(reader.iter_epochs(), warmup=warmup)

        key = dict(CKPT_KEY, organisation=organisation)
        checkpointed = make_system(organisation)
        simulate_replay(checkpointed, reader, warmup=warmup, store=ckpts,
                        params=key)
        assert checkpointed.snapshot() == plain.snapshot()
        # Every epoch boundary but the last left a checkpoint behind.
        assert ckpts.epochs(key) == list(range(1, reader.n_epochs))

    @pytest.mark.parametrize("cut_fraction", [0.2, 0.5, 0.9])
    def test_interrupted_then_resumed_is_bit_identical(self, captured,
                                                       organisation,
                                                       cut_fraction,
                                                       every_boundary):
        reader, ckpts = captured
        warmup = reader.n_accesses // 4
        key = dict(CKPT_KEY, organisation=organisation)

        reference = make_system(organisation)
        reference.run_chunks(reader.iter_epochs(), warmup=warmup)

        # Interrupted run: stops mid-trace, leaving checkpoints behind.
        cut = max(1, int(reader.n_epochs * cut_fraction))
        interrupted = make_system(organisation)
        simulate_replay(interrupted, reader, warmup=warmup, store=ckpts,
                        params=key, stop_epoch=cut)
        assert ckpts.epochs(key)[-1] == cut

        # Resumed run: restores the checkpoint at the cut, simulates the rest.
        resumes_before = STATS.resumes
        resumed = make_system(organisation)
        simulate_replay(resumed, reader, warmup=warmup, store=ckpts,
                        params=key)
        assert STATS.resumes == resumes_before + 1
        assert resumed.snapshot() == reference.snapshot()
        for context, trace in resumed.miss_traces().items():
            assert_traces_equal(trace, reference.miss_traces()[context])

    def test_resume_disabled_simulates_from_zero(self, captured,
                                                 every_boundary):
        reader, ckpts = captured
        key = dict(CKPT_KEY)
        primer = make_system("multi-chip")
        simulate_replay(primer, reader, store=ckpts, params=key)
        assert ckpts.epochs(key)

        resumes_before = STATS.resumes
        fresh = make_system("multi-chip")
        simulate_replay(fresh, reader, store=ckpts, params=key, resume=False)
        assert STATS.resumes == resumes_before
        assert fresh.snapshot() == primer.snapshot()

    def test_final_boundary_is_never_saved(self, captured, every_boundary):
        reader, ckpts = captured
        key = dict(CKPT_KEY, warmup=0.0)
        simulate_replay(make_system("multi-chip"), reader, store=ckpts,
                        params=key)
        assert reader.n_epochs not in ckpts.epochs(key)
        assert ckpts.epochs(key)[-1] == reader.n_epochs - 1

    def test_default_interval_writes_nothing_for_a_short_run(self, captured):
        reader, ckpts = captured
        saves_before = STATS.saves
        simulate_replay(make_system("multi-chip"), reader, store=ckpts,
                        params=dict(CKPT_KEY))
        assert STATS.saves == saves_before
        assert ckpts.entries() == []

    def test_snapshots_follow_the_interval(self, captured, monkeypatch):
        # A clock that advances one second per reading (one reading per
        # boundary, one more after each snapshot): three seconds pass by
        # every third boundary.
        from types import SimpleNamespace

        from repro.checkpoint import replay
        ticks = iter(range(10_000))
        monkeypatch.setattr(replay, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        monkeypatch.setattr(replay, "CHECKPOINT_INTERVAL_S", 3.0)
        reader, ckpts = captured
        key = dict(CKPT_KEY)
        simulate_replay(make_system("multi-chip"), reader, store=ckpts,
                        params=key)
        expected = list(range(3, reader.n_epochs, 3))
        assert expected and ckpts.epochs(key) == expected

    def test_resumed_run_counts_the_interval_from_its_restore(
            self, captured, monkeypatch):
        from types import SimpleNamespace

        from repro.checkpoint import replay
        reader, ckpts = captured
        key = dict(CKPT_KEY)
        monkeypatch.setattr(replay, "CHECKPOINT_INTERVAL_S", 0.0)
        simulate_replay(make_system("multi-chip"), reader, store=ckpts,
                        params=key, stop_epoch=2)
        assert ckpts.epochs(key) == [1, 2]

        # Same one-second-per-reading clock as above: the resumed run's
        # first snapshot falls three boundaries after the restored one.
        ticks = iter(range(10_000))
        monkeypatch.setattr(replay, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        monkeypatch.setattr(replay, "CHECKPOINT_INTERVAL_S", 3.0)
        simulate_replay(make_system("multi-chip"), reader, store=ckpts,
                        params=key)
        assert ckpts.epochs(key) == [1, 2] + list(range(5, reader.n_epochs,
                                                        3))

    def test_without_store_no_checkpoints_are_written(self, captured,
                                                      every_boundary):
        reader, ckpts = captured
        system = make_system("multi-chip")
        simulate_replay(system, reader)  # no store/params
        assert ckpts.entries() == []


class TestRunnerResume:
    def _fresh_caches(self):
        from repro.experiments import runner
        runner.clear_cache()
        store = runner.get_store()
        if store is not None:
            store.clear()

    def test_rerun_resumes_from_latest_checkpoint(self, every_boundary):
        from repro.checkpoint import get_checkpoint_store
        from repro.experiments import runner
        self._fresh_caches()
        first = runner.run_context("Apache", MULTI_CHIP, size="tiny")
        ckpts = get_checkpoint_store()
        assert ckpts is not None and len(ckpts.entries()) >= 1

        # Drop the analysis bundles (memo + disk) but keep trace+checkpoints:
        # the rerun must restore the latest checkpoint and simulate only the
        # epochs after it.
        self._fresh_caches()
        resumes_before = STATS.resumes
        second = runner.run_context("Apache", MULTI_CHIP, size="tiny")
        assert STATS.resumes == resumes_before + 1
        assert second.n_misses == first.n_misses
        assert_traces_equal(second.miss_trace, first.miss_trace)
        self._fresh_caches()

    def test_no_checkpoint_flag_writes_none(self, every_boundary):
        from repro.checkpoint import get_checkpoint_store
        from repro.experiments import runner
        self._fresh_caches()
        ckpts = get_checkpoint_store()
        ckpts.clear()
        runner.run_context("OLTP", MULTI_CHIP, size="tiny",
                           session=Session(checkpoint=False))
        assert ckpts.entries() == []
        self._fresh_caches()

    def test_corrupt_segment_falls_back_to_generation(self):
        from repro.experiments import runner
        from repro.trace import get_trace_store
        self._fresh_caches()
        first = runner.run_context("Qry1", MULTI_CHIP, size="tiny",
                                   session=Session(checkpoint=False))
        traces = get_trace_store()
        path = traces.path_for(trace_params("Qry1", 16, 42, "tiny"))
        segments = sorted(path.glob("seg-*.npz"))
        assert segments
        segments[0].write_bytes(b"this is not a segment")

        self._fresh_caches()
        with pytest.warns(RuntimeWarning, match="corrupt"):
            second = runner.run_context("Qry1", MULTI_CHIP, size="tiny",
                                        session=Session(checkpoint=False))
        assert not path.exists()  # the broken trace was dropped
        assert_traces_equal(second.miss_trace, first.miss_trace)
        self._fresh_caches()
