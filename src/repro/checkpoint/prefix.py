"""Shared-prefix warm starts: dedupe simulation prefixes across grid cells.

Grid cells that differ only in warm-up fraction (or in what is analysed
afterwards) run *bit-identical* simulations while recording is off: the
system state at every epoch boundary ``e`` with ``accesses_before(e) <= min
warmup`` is the same for every such cell, because nothing warmup-dependent
has happened yet.  This module gives that shared prefix its own checkpoint
identity:

* :func:`prefix_params` — a checkpoint-store key like
  :func:`~repro.checkpoint.store.checkpoint_params` but *without* the
  warm-up fraction (plus a ``prefix`` marker), so every cell of a group —
  and every later sweep over the same trace — resolves the same checkpoint;
* :func:`shared_prefix_groups` — which (workload, organisation, scale)
  combinations of a spec deserve a prefix stage (at least two distinct
  clamped warm-ups, none of them zero);
* :func:`publish_prefix` — the ``prefix`` stage body: simulate the trace up
  to the last warmup-independent epoch boundary of the group's *smallest*
  warm-up with recording off throughout, and write exactly one checkpoint,
  at that boundary, under the prefix key.  Runs on any executor backend —
  dispatch workers resolve the same shared cache root — and resumes from
  its own earlier (shorter) prefix checkpoints, so successive sweeps extend
  rather than recompute.

The consumer side is opportunistic: :func:`simulate_replay` takes the
prefix key plus the cell's own warmup-derived epoch limit and restores
whichever checkpoint — its own or the prefix's — is furthest along, so
warm starts also work for cells the planner never grouped (a later
single-cell run over the same trace still benefits).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..trace.format import DEFAULT_EPOCH_SIZE


def prefix_params(workload: str, n_cpus: int, seed: int, size: str,
                  organisation: str, scale: int,
                  epoch_size: int = DEFAULT_EPOCH_SIZE) -> Dict[str, Any]:
    """The checkpoint-store key of one shared simulation prefix.

    Warm-up is deliberately absent: the prefix only ever covers epochs
    every warm-up in the group agrees on, so one checkpoint serves them
    all.
    The ``prefix`` marker keeps these runs from colliding with any cell's
    own checkpoint key.
    """
    return {"workload": workload, "n_cpus": n_cpus, "seed": seed,
            "size": size, "organisation": organisation, "scale": scale,
            "epoch_size": epoch_size, "prefix": True}


def shared_prefix_groups(cells: Iterable[Tuple[str, str, int, float]]
                         ) -> List[Tuple[Tuple[str, str, int], float]]:
    """The prefix groups of a spec's grid cells.

    ``cells`` yields ``(workload, organisation, scale, warmup)`` tuples
    whose warm-ups are *already clamped* (the caller owns the clamp so
    planner and runner agree on keys).  Returns
    ``[((workload, organisation, scale), min_warmup), ...]`` sorted for
    deterministic plan order, keeping only groups where a shared prefix
    exists and is non-empty: at least two distinct warm-ups, the smallest
    positive.
    """
    groups: Dict[Tuple[str, str, int], set] = {}
    for workload, organisation, scale, warmup in cells:
        groups.setdefault((workload, organisation, scale), set()).add(warmup)
    return [(key, min(warmups)) for key, warmups in sorted(groups.items())
            if len(warmups) >= 2 and min(warmups) > 0]


def publish_prefix(workload: str, organisation: str, size: str, seed: int,
                   scale: int, warmup_fraction: float, *,
                   cache_dir: Optional[str] = None,
                   resume: bool = True) -> str:
    """Simulate and publish one shared prefix; returns a stage status.

    ``warmup_fraction`` is the group's smallest (clamped) warm-up; the
    prefix runs to the last epoch boundary that fits inside it, with
    recording off for the whole range (``warmup = n_accesses``) — exactly
    the state every member cell passes through — and snapshots that one
    boundary.  Publishing is idempotent: an existing boundary checkpoint is
    ``"cached"``, a missing trace or store is ``"skipped"`` (the member
    cells then simply run cold).
    """
    from ..api.registry import SYSTEMS
    from ..trace import get_trace_store, trace_params
    from ..trace.epoch import boundary_at_or_before
    from .delta import DeltaChainWriter
    from .replay import accesses_before, restore_latest
    from .store import get_checkpoint_store

    trace_store = get_trace_store(cache_dir)
    ckpt_store = get_checkpoint_store(cache_dir)
    if trace_store is None or ckpt_store is None:
        return "skipped"
    factory = SYSTEMS.get(organisation)
    reader = trace_store.open(trace_params(workload, factory.n_cpus, seed,
                                           size))
    if reader is None:
        return "skipped"
    warmup_accesses = int(reader.n_accesses * warmup_fraction)
    stop = boundary_at_or_before(reader.meta.segments, warmup_accesses)
    if stop < 1:
        return "skipped"
    key = prefix_params(workload, factory.n_cpus, seed, size, organisation,
                        scale, epoch_size=reader.meta.epoch_size)
    if stop in ckpt_store.epochs(key):
        return "cached"
    system = factory(scale=scale)
    start = restore_latest(system, ckpt_store, key, stop) if resume else 0
    system.run_chunks(reader.iter_epochs(start, stop),
                      warmup=reader.n_accesses,
                      seen=accesses_before(reader, start))
    DeltaChainWriter(ckpt_store, key).save(stop, system.snapshot())
    return "ran"
