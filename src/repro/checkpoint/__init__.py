"""Checkpoint subsystem: epoch-boundary snapshots of full system state.

The simulation pass over a captured trace is strictly sequential — cache
contents, coherence state, and classification history at epoch *k* depend on
every epoch before it.  This package makes that state a persistable
artifact, in the spirit of checkpointed sampling (TurboSMARTS / SimFlex):
the memory models expose ``snapshot()``/``restore()`` returning plain,
versioned state dicts, and this package stores them compressed under the
shared cache root.  Checkpoints are demand-driven — written only where a
later run reads them:

* **crash-resume** — a simulation snapshots an epoch boundary only after
  :data:`~repro.checkpoint.replay.CHECKPOINT_INTERVAL_S` of simulate time,
  so a run interrupted after that resumes from its latest boundary instead
  of re-simulating from access zero, bit-identically.  Shorter runs (every
  cell of the shipped presets) write no snapshot, and no run snapshots its
  final boundary: a finished cell lives in the result store;
* **shared-prefix warm starts** — one checkpoint per (trace, organisation,
  scale) group of cells that differ only in warm-up, published once at the
  group's last warmup-independent boundary and restored by every member.

* :mod:`~repro.checkpoint.format` — versioned, content-addressed
  gzip-pickle chunk encoding and chain-manifest names.
* :mod:`~repro.checkpoint.store` — :class:`CheckpointStore`,
  content-addressed under ``<cache root>/checkpoints``, with process-wide
  save/load/resume counters and a warn-and-drop policy for corrupt files.
* :mod:`~repro.checkpoint.delta` — delta-encoded checkpoint *chains*, the
  one write encoding: per-section chunks, append-encoded miss traces,
  bounded-restore chain manifests, chunk garbage collection.
* :mod:`~repro.checkpoint.prefix` — shared-prefix warm starts.
* :mod:`~repro.checkpoint.replay` — :func:`simulate_replay` (crash-resumable,
  warm-startable replay) and :func:`restore_latest`.

Layering: this package depends on the mem and trace layers only; the
experiments layer builds on it, never the other way around
(:func:`~repro.checkpoint.prefix.publish_prefix` touches the registries
via function-level imports for the same reason).
"""

from .delta import (DeltaChainWriter, chain_stats, collect_garbage,
                    load_chain)
from .format import (CHAIN_SUFFIX, CHECKPOINT_FORMAT_VERSION,
                     CheckpointCorruptError, DELTA_FULL_EVERY, chain_name,
                     parse_chain_name)
from .prefix import prefix_params, publish_prefix, shared_prefix_groups
from .replay import accesses_before, restore_latest, simulate_replay
from .store import (CHECKPOINTS_SUBDIR, CHUNKS_SUBDIR, CheckpointStore,
                    CheckpointStoreStats, STATS, checkpoint_params,
                    get_checkpoint_store)

__all__ = [
    "CHAIN_SUFFIX", "CHECKPOINTS_SUBDIR", "CHECKPOINT_FORMAT_VERSION",
    "CHUNKS_SUBDIR", "CheckpointCorruptError", "CheckpointStore",
    "CheckpointStoreStats", "DELTA_FULL_EVERY", "DeltaChainWriter", "STATS",
    "accesses_before", "chain_name", "chain_stats", "checkpoint_params",
    "collect_garbage", "get_checkpoint_store", "load_chain",
    "parse_chain_name", "prefix_params", "publish_prefix", "restore_latest",
    "shared_prefix_groups", "simulate_replay",
]
