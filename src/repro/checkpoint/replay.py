"""Checkpointed replay: crash-resumable simulation over a captured trace.

:func:`simulate_replay` is the bridge between the trace layer (epoch-
segmented columnar replay) and the memory models' ``snapshot()/restore()``:
it drives one system over a trace's epoch chunks and — when an earlier run
with the same key was interrupted after leaving a checkpoint behind —
restores the latest one and simulates only the remaining epochs.  Because a
snapshot captures *all* state an epoch's processing depends on (cache
contents and LRU order, classification history, accumulated miss traces,
instruction and recording bookkeeping), the resumed run is bit-identical to
an uninterrupted one.

Checkpoints are written on demand, not on a fixed stride.  A snapshot only
pays off for a run that is interrupted after it, so a run snapshots an epoch
boundary only once :data:`CHECKPOINT_INTERVAL_S` of simulate wall time has
passed since it started or since its last snapshot — a crash then loses at
most about that much work.  Every cell of the shipped presets finishes well
inside the interval and writes nothing (the longest at ``large`` simulates
for about 3.4 s on a 2-core VM), so snapshots come from long imported
traces.  No run snapshots its final boundary: a finished cell's bundle
lives in the result store.  Delta chains
(:class:`~repro.checkpoint.delta.DeltaChainWriter`) are the one encoding.

This module deliberately depends only on the trace and mem layers (plus the
shared cache-dir helpers) — nothing here imports the experiments layer.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from ..trace.replay import TraceReader
from .delta import DeltaChainWriter
from .store import CheckpointStore, STATS

#: Seconds of simulate wall time between two crash-resume snapshots of one
#: run.  A snapshot costs a sizeable fraction of an epoch's simulation, so it
#: is only worth taking once an interruption would lose more than this much
#: work; cells shorter than the interval never snapshot at all.
CHECKPOINT_INTERVAL_S = 30.0


def accesses_before(reader: TraceReader, epoch: int) -> int:
    """Number of trace accesses in epochs ``[0, epoch)``."""
    return sum(segment["n"] for segment in reader.meta.segments[:epoch])


def restore_latest(system: Any, store: CheckpointStore,
                   params: Dict[str, Any], stop: int,
                   prefix_params: Optional[Dict[str, Any]] = None,
                   prefix_limit: Optional[int] = None) -> int:
    """Restore the furthest usable checkpoint into ``system``.

    Looks for this run's own latest checkpoint at or before ``stop`` and,
    with ``prefix_params``/``prefix_limit``, for a shared-prefix checkpoint
    at or before ``min(stop, prefix_limit)`` (see
    :mod:`repro.checkpoint.prefix`); whichever reaches further is restored
    (a prefix win counts in ``STATS.warm_starts``).  Returns the epoch the
    simulation continues from — ``0`` when nothing was restored.
    """
    found = store.latest(params, max_epoch=stop)
    start = found[0] if found is not None else 0
    if prefix_params is not None and prefix_limit is not None:
        cap = min(stop, prefix_limit)
        if cap > start:
            warm = store.latest(prefix_params, max_epoch=cap)
            if warm is not None and warm[0] > start:
                found = warm
                STATS.warm_starts += 1
    if found is None:
        return 0
    start, state = found
    system.restore(state)
    STATS.resumes += 1
    return start


def simulate_replay(system: Any, reader: TraceReader, warmup: int = 0,
                    store: Optional[CheckpointStore] = None,
                    params: Optional[Dict[str, Any]] = None,
                    resume: bool = True,
                    stop_epoch: Optional[int] = None,
                    prefix_params: Optional[Dict[str, Any]] = None,
                    prefix_limit: Optional[int] = None) -> Any:
    """Replay ``reader``'s epochs through ``system``, crash-resumably.

    Parameters
    ----------
    system:
        A fresh system model exposing the streaming interface plus
        ``snapshot()``/``restore()``.
    warmup:
        Warm-up boundary in *accesses from the start of the trace* (the
        runner's usual fraction-of-length arithmetic), honoured even when
        the run resumes mid-trace.
    store / params:
        Where checkpoints live and the key of this run.  When either is
        ``None`` the replay runs unchanged (no snapshots, no resume).
        Otherwise an epoch boundary is snapshotted once
        :data:`CHECKPOINT_INTERVAL_S` of simulate time has passed since the
        run started or since its last snapshot; the trace's final boundary
        never is.
    resume:
        Restore the latest stored checkpoint at or before the target range
        end and simulate only the remaining epochs.
    stop_epoch:
        Simulate only epochs ``[start, stop_epoch)`` — used by tests to
        model an interrupted run; the default runs to the end of the trace.
    prefix_params / prefix_limit:
        The shared-prefix checkpoint key of this run's trace/organisation/
        scale group and the last epoch boundary still inside this run's
        warm-up (see :func:`restore_latest`).

    Returns whatever the system's ``finish()`` returns (one miss trace for
    the multi-chip model, an (off-chip, intra-chip) pair for single-chip).
    """
    stop = reader.n_epochs if stop_epoch is None else min(stop_epoch,
                                                          reader.n_epochs)
    checkpointing = store is not None and params is not None
    start = 0
    if checkpointing and resume:
        start = restore_latest(system, store, params, stop,
                               prefix_params=prefix_params,
                               prefix_limit=prefix_limit)

    on_chunk = None
    if checkpointing:
        interval = CHECKPOINT_INTERVAL_S
        writer = DeltaChainWriter(store, params)
        last = time.perf_counter()

        def on_chunk(chunk: Any, seen_after: int) -> None:
            nonlocal last
            boundary = chunk.epoch + 1
            if (chunk.epoch >= 0 and boundary < reader.n_epochs
                    and time.perf_counter() - last >= interval):
                writer.save(boundary, system.snapshot())
                last = time.perf_counter()

    return system.run_chunks(reader.iter_epochs(start, stop), warmup=warmup,
                             seen=accesses_before(reader, start),
                             on_chunk=on_chunk)
