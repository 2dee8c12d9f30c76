"""Epoch summaries: vectorised counting, deterministic merge."""

import pytest

from repro.mem import AccessKind
from repro.trace import (CaptureWriter, ColumnarChunk, EpochSummary,
                         TraceReader, merge_summaries, summarize_chunk,
                         summarize_trace)

from .conftest import make_accesses

PARAMS = {"workload": "synthetic", "n_cpus": 4, "seed": 0, "size": "tiny"}


@pytest.fixture
def reader(tmp_path):
    with CaptureWriter(tmp_path / "t", PARAMS, epoch_size=32) as writer:
        writer.write_all(make_accesses(100))
    return TraceReader(tmp_path / "t")


class TestSummarizeChunk:
    def test_matches_scalar_reference(self, accesses):
        chunk = ColumnarChunk.from_accesses(accesses, epoch=3)
        summary = summarize_chunk(chunk, block_bits=6)
        assert summary.first_epoch == summary.last_epoch == 3
        assert summary.n_accesses == len(accesses)
        assert summary.instructions == sum(a.icount for a in accesses
                                           if a.cpu >= 0)
        for kind in AccessKind:
            expected = sum(1 for a in accesses if a.kind == kind)
            assert summary.kind_counts.get(int(kind), 0) == expected
        for cpu in {a.cpu for a in accesses}:
            assert summary.cpu_counts[cpu] == \
                sum(1 for a in accesses if a.cpu == cpu)
        assert summary.distinct_blocks == \
            len({a.addr >> 6 for a in accesses})


class TestMerge:
    def test_merge_is_order_independent(self, reader):
        pairs = [(chunk.epoch, summarize_chunk(chunk))
                 for chunk in reader.iter_epochs()]
        forward = merge_summaries(pairs)
        backward = merge_summaries(reversed(pairs))
        assert forward == backward
        assert forward.first_epoch == 0
        assert forward.last_epoch == reader.n_epochs - 1
        assert forward.n_accesses == reader.n_accesses
        assert forward.instructions == reader.instructions

    def test_merge_empty(self):
        assert merge_summaries([]) == EpochSummary()

    def test_merge_accumulates_counts(self):
        a = EpochSummary(first_epoch=0, last_epoch=0, n_accesses=5,
                         instructions=10, kind_counts={0: 5},
                         cpu_counts={0: 5}, distinct_blocks=3)
        b = EpochSummary(first_epoch=1, last_epoch=1, n_accesses=7,
                         instructions=14, kind_counts={0: 3, 1: 4},
                         cpu_counts={0: 2, 1: 5}, distinct_blocks=4)
        merged = merge_summaries([(0, a), (1, b)])
        assert merged.n_accesses == 12
        assert merged.kind_counts == {0: 8, 1: 4}
        assert merged.cpu_counts == {0: 7, 1: 5}
        assert merged.distinct_blocks == 7


class TestSummarizeTrace:
    def test_describe_mentions_span(self, reader):
        text = summarize_trace(reader).describe()
        assert "epochs 0.." in text and "accesses" in text
