"""Delta checkpoint chains: encoding, dedupe, corruption fallback, gc."""

import random

import pytest

from repro.checkpoint import (CheckpointStore, DELTA_FULL_EVERY,
                              DeltaChainWriter, STATS, chain_stats,
                              checkpoint_params, collect_garbage, load_chain,
                              simulate_replay)
from repro.checkpoint.delta import (append_valid, encode_append, fold_append,
                                    is_miss_trace, join_state, split_state,
                                    _PrevBoundary)
from repro.checkpoint.format import CheckpointCorruptError
from repro.trace import TraceStore, trace_params

from .conftest import make_system, random_accesses

EPOCH_SIZE = 128

TRACE_KEY = trace_params("Rnd", 4, 7, "tiny")
CKPT_KEY = checkpoint_params("Rnd", 4, 7, "tiny", "multi-chip", 512, 0.25,
                             epoch_size=EPOCH_SIZE)


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


def boundary_states(reader, organisation="multi-chip"):
    """The live snapshot at every epoch boundary of one serial pass."""
    system = make_system(organisation)
    warmup = reader.n_accesses // 4
    states = {}
    seen = 0
    for epoch, chunk in enumerate(reader.iter_epochs(), start=1):
        system.run_chunks([chunk], warmup=max(0, warmup - seen))
        seen += len(chunk)
        states[epoch] = system.snapshot()
    return states


# --------------------------------------------------------------------------- #
# split/join and append primitives
# --------------------------------------------------------------------------- #
class TestPrimitives:
    STATE = {"model": "toy", "n": 3, "ratio": 0.5, "flag": True,
             "nothing": None,
             "l1s": [{"a": 1}, {"b": 2}],
             "trace": {"context": "c", "instructions": 9,
                       "functions": [["f", "m", "k"]],
                       "records": [[0, 1, 2, 3, 0, "mem"]]},
             "history": {"deep": {"x": [1, 2]}}}

    def test_split_join_is_exact(self):
        scalars, sections, order = split_state(self.STATE)
        assert set(scalars) == {"model", "n", "ratio", "flag", "nothing"}
        assert set(sections) == {"l1s[0]", "l1s[1]", "trace", "history"}
        rebuilt = join_state(scalars, sections, order)
        assert rebuilt == self.STATE
        assert list(rebuilt) == list(self.STATE)  # key order preserved

    def test_is_miss_trace_detects_state_dicts(self):
        assert is_miss_trace(self.STATE["trace"])
        assert not is_miss_trace(self.STATE["history"])
        assert not is_miss_trace([1, 2, 3])

    def test_append_roundtrip(self):
        base = {"context": "c", "instructions": 5,
                "functions": [["f", "m", "k"]],
                "records": [[0, 0, 1, 0, 0, "mem"]]}
        grown = {"context": "c", "instructions": 9,
                 "functions": [["f", "m", "k"], ["g", "m", "k"]],
                 "records": [[0, 0, 1, 0, 0, "mem"], [1, 1, 2, 1, 1, "mem"]]}
        marks = _PrevBoundary.trace_marks(base)
        assert append_valid(marks, grown)
        tail = encode_append(grown, marks["n_records"], marks["n_functions"])
        assert len(tail["records"]) == 1 and len(tail["functions"]) == 1
        assert fold_append(base, tail) == grown

    def test_append_invalid_when_base_not_a_prefix(self):
        base = {"context": "c", "instructions": 5,
                "functions": [["f", "m", "k"]],
                "records": [[0, 0, 1, 0, 0, "mem"]]}
        marks = _PrevBoundary.trace_marks(base)
        renumbered = dict(base, records=[[5, 0, 1, 0, 0, "mem"]])
        assert not append_valid(marks, renumbered)
        shrunk = dict(base, records=[])
        assert not append_valid(marks, shrunk)


# --------------------------------------------------------------------------- #
# chain write/restore
# --------------------------------------------------------------------------- #
class TestChainRoundtrip:
    def test_every_boundary_restores_exactly(self, captured, organisation):
        reader, ckpts = captured
        key = dict(CKPT_KEY, organisation=organisation)
        states = boundary_states(reader, organisation)
        writer = DeltaChainWriter(ckpts, key, full_every=3)
        for epoch, state in states.items():
            writer.save(epoch, state)
        for epoch, state in states.items():
            restored = load_chain(ckpts, key, epoch)
            assert restored == state
            assert list(restored) == list(state)

    def test_full_cadence_and_kinds(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        writer = DeltaChainWriter(ckpts, CKPT_KEY, full_every=3)
        for epoch, state in states.items():
            writer.save(epoch, state)
        kinds = [ckpts.entry_kind(CKPT_KEY, e) for e in sorted(states)]
        assert kinds[0] == "full"
        # After every full, exactly full_every deltas before the next full.
        for i, kind in enumerate(kinds):
            expected = "full" if i % 4 == 0 else "delta"
            assert kind == expected, (i, kinds)

    def test_default_cadence_matches_delta_full_every(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        writer = DeltaChainWriter(ckpts, CKPT_KEY)
        assert writer.full_every == DELTA_FULL_EVERY
        for epoch, state in states.items():
            writer.save(epoch, state)
        kinds = [ckpts.entry_kind(CKPT_KEY, e) for e in sorted(states)]
        assert kinds[0] == "full"
        assert kinds.count("full") >= 1 and "delta" in kinds

    def test_unchanged_sections_dedupe(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        epochs = sorted(states)
        writer = DeltaChainWriter(ckpts, CKPT_KEY)
        writer.save(epochs[0], states[epochs[0]])
        chunks_after_first = len(ckpts.chunk_files())
        dedup_before = STATS.chunk_dedup_hits
        # Re-saving the SAME state as the next boundary: every non-trace
        # section re-derives its digest, trace sections append empty tails.
        writer.save(epochs[0] + 1, states[epochs[0]])
        assert STATS.chunk_dedup_hits > dedup_before
        # Only the (tiny) empty append tails are new chunks.
        assert len(ckpts.chunk_files()) <= chunks_after_first + 4

    def test_delta_manifests_append_encode_traces(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        epochs = sorted(states)
        writer = DeltaChainWriter(ckpts, CKPT_KEY)
        for epoch in epochs[:3]:
            writer.save(epoch, states[epoch])
        manifest = ckpts.load_chain_manifest(CKPT_KEY, epochs[1])
        assert manifest["kind"] == "delta"
        assert manifest["base"] == epochs[0]
        appends = [name for name, spec in manifest["sections"].items()
                   if "append" in spec]
        assert appends, "no miss-trace section was append-encoded"
        for name in appends:
            assert manifest["sections"][name]["append"]["base"] == epochs[0]

    def test_save_counters(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        epochs = sorted(states)[:4]
        saves0, delta0 = STATS.saves, STATS.delta_saves
        writes0 = STATS.chunk_writes
        writer = DeltaChainWriter(ckpts, CKPT_KEY)
        for epoch in epochs:
            writer.save(epoch, states[epoch])
        assert STATS.saves == saves0 + len(epochs)
        assert STATS.delta_saves == delta0 + len(epochs) - 1
        assert STATS.chunk_writes > writes0

    def test_store_load_reads_chains(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        epoch = sorted(states)[0]
        DeltaChainWriter(ckpts, CKPT_KEY).save(epoch, states[epoch])
        loads0 = STATS.loads
        assert ckpts.load(CKPT_KEY, epoch) == states[epoch]
        assert STATS.loads == loads0 + 1


# --------------------------------------------------------------------------- #
# corruption: torn chunks fall back to an earlier boundary, bit-identically
# --------------------------------------------------------------------------- #
class TestCorruption:
    def test_torn_chunk_warns_and_falls_back(self, captured, every_boundary):
        reader, ckpts = captured
        warmup = reader.n_accesses // 4

        reference = make_system("multi-chip")
        reference.run_chunks(reader.iter_epochs(), warmup=warmup)

        primer = make_system("multi-chip")
        simulate_replay(primer, reader, warmup=warmup, store=ckpts,
                        params=CKPT_KEY)
        epochs = ckpts.epochs(CKPT_KEY)
        assert epochs == list(range(1, reader.n_epochs))

        # Tear a chunk only the last delta boundary's manifest references:
        # its append-tail chunks are unique to that boundary.
        last = max(epoch for epoch in epochs
                   if ckpts.entry_kind(CKPT_KEY, epoch) == "delta")
        manifest = ckpts.load_chain_manifest(CKPT_KEY, last)
        victim = next(spec["chunk"]
                      for spec in manifest["sections"].values()
                      if "append" in spec)
        ckpts.chunk_path(victim).write_bytes(b"torn mid-write")

        with pytest.warns(RuntimeWarning):
            found = ckpts.latest(CKPT_KEY, max_epoch=last)
        assert found is not None
        epoch, state = found
        assert epoch < last  # fell back to an earlier loadable boundary

        # Resuming from the fallback still converges bit-identically.
        resumed = make_system("multi-chip")
        resumed.restore(state)
        seen = sum(len(c) for c in list(reader.iter_epochs())[:epoch])
        for chunk in list(reader.iter_epochs())[epoch:]:
            resumed.run_chunks([chunk], warmup=max(0, warmup - seen))
            seen += len(chunk)
        assert resumed.snapshot() == reference.snapshot()

    def test_torn_manifest_is_dropped(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        epochs = sorted(states)[:2]
        writer = DeltaChainWriter(ckpts, CKPT_KEY)
        for epoch in epochs:
            writer.save(epoch, states[epoch])
        ckpts.chain_file_for(CKPT_KEY, epochs[1]).write_text("{not json")
        with pytest.warns(RuntimeWarning):
            found = ckpts.latest(CKPT_KEY)
        assert found is not None and found[0] == epochs[0]
        assert ckpts.chain_manifest_path(CKPT_KEY, epochs[1]) is None

    def test_load_chain_raises_on_missing_base(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        epochs = sorted(states)[:2]
        writer = DeltaChainWriter(ckpts, CKPT_KEY)
        for epoch in epochs:
            writer.save(epoch, states[epoch])
        ckpts.chain_file_for(CKPT_KEY, epochs[0]).unlink()
        with pytest.raises(CheckpointCorruptError):
            load_chain(ckpts, CKPT_KEY, epochs[1])


# --------------------------------------------------------------------------- #
# maintenance: gc and stats
# --------------------------------------------------------------------------- #
class TestMaintenance:
    def test_gc_keeps_referenced_chunks(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        writer = DeltaChainWriter(ckpts, CKPT_KEY)
        for epoch, state in states.items():
            writer.save(epoch, state)
        before = len(ckpts.chunk_files())
        assert collect_garbage(ckpts) == (0, 0)
        assert len(ckpts.chunk_files()) == before
        for epoch, state in states.items():
            assert load_chain(ckpts, CKPT_KEY, epoch) == state

    def test_gc_reclaims_after_drop(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        writer = DeltaChainWriter(ckpts, CKPT_KEY)
        for epoch, state in states.items():
            writer.save(epoch, state)
        assert len(ckpts.chunk_files()) > 0
        ckpts.drop_run(CKPT_KEY)
        removed, freed = collect_garbage(ckpts)
        assert removed > 0 and freed > 0
        assert ckpts.chunk_files() == []

    def test_chain_stats_shape(self, captured):
        reader, ckpts = captured
        states = boundary_states(reader)
        writer = DeltaChainWriter(ckpts, CKPT_KEY, full_every=3)
        for epoch, state in states.items():
            writer.save(epoch, state)
        stats = chain_stats(ckpts)
        assert stats["chains"] == 1
        assert stats["longest_chain"] == len(states)
        assert stats["full_manifests"] + stats["delta_manifests"] == \
            len(states)
        assert stats["chunk_files"] > 0
        assert stats["unreferenced_chunks"] == 0
        assert stats["dedupe_ratio"] >= 1.0
