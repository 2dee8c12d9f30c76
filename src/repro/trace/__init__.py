"""Trace capture/replay: a persistence layer between workloads and systems.

Re-simulating a configuration used to re-run the Python workload generators
even though the access stream is fully determined by
``(workload, n_cpus, seed, size)``.  This package captures that stream the
first time it is generated and replays it from a compact columnar on-disk
format afterwards — any warm-up fraction, cache scale, or prefetcher study
over the same stream skips generation entirely.

* :mod:`~repro.trace.format` — versioned columnar encoding (parallel numpy
  arrays in compressed epoch segments) and :class:`ColumnarChunk`, the
  vectorised in-memory unit the system models' fast path consumes.
* :mod:`~repro.trace.capture` — streaming :class:`CaptureWriter` and the
  :func:`capture_stream` tee (capture as a side effect of a first run).
* :mod:`~repro.trace.replay` — :class:`TraceReader`: epoch chunks, flat
  ``Access`` iteration, random access to single epochs.
* :mod:`~repro.trace.store` — :class:`TraceStore`, content-addressed under
  the shared ``REPRO_CACHE_DIR`` root, with process-wide hit/miss counters.
* :mod:`~repro.trace.epoch` — :class:`EpochSummary` per-epoch counting and
  its in-order merge (``repro trace info``), plus epoch-boundary arithmetic.
"""

from .capture import CaptureWriter, capture_stream
from .epoch import (EpochSummary, merge_summaries, summarize_chunk,
                    summarize_trace)
from .format import (ColumnarChunk, DEFAULT_EPOCH_SIZE, FunctionTable,
                     TRACE_FORMAT_VERSION, TraceMeta)
from .replay import TraceCorruptError, TraceReader, is_trace_dir
from .store import (STATS, TraceStore, TraceStoreStats, get_trace_store,
                    trace_params)

__all__ = [
    "CaptureWriter", "ColumnarChunk", "DEFAULT_EPOCH_SIZE", "EpochSummary",
    "FunctionTable", "STATS", "TRACE_FORMAT_VERSION", "TraceCorruptError",
    "TraceMeta", "TraceReader", "TraceStore", "TraceStoreStats",
    "capture_stream", "get_trace_store", "is_trace_dir", "merge_summaries",
    "summarize_chunk", "summarize_trace", "trace_params",
]
