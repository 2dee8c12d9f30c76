"""Experiment runner: workload -> system model -> full analysis bundle.

Every figure and table of the paper is computed from the same per-(workload,
context) analysis bundle; :func:`run_context` builds one and caches it at
two levels:

* an **in-process memo** (dict), preserving object identity for repeated
  calls within one process, and
* a **versioned on-disk store** (:mod:`repro.experiments.store`), so figure
  and table regeneration across processes — including the plan
  scheduler's pool workers — never re-simulates a configuration.

Simulation is *streaming*: accesses flow from the workload generators into
the system models chunk-wise, so peak memory is bounded by one chunk
instead of the whole access trace.  Because the warm-up boundary is a
fraction of the (not-known-in-advance) trace length, a first run makes a
counting pass over a fresh workload instance before it simulates.

With ``replay=True`` (the default) the counting pass doubles as **trace
capture**: the generated stream is tee'd into the columnar
:class:`~repro.trace.store.TraceStore`, the simulation pass replays the
just-captured trace instead of generating a second time, and every later
simulation of the same ``(workload, n_cpus, seed, size)`` stream — any
warm-up fraction, any cache scale, either pass — replays from disk without
touching the generators at all.  Replayed epochs reach the system models as
columnar chunks, enabling the vectorised block-address fast path in
:meth:`repro.mem.stream.StreamingSystemMixin.process_chunk`.  Without a
trace store (replay off, or the disk cache disabled) the simulation pass
generates the stream a second time.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

from ..api.registry import SYSTEMS
from ..api.session import Session, get_default_session
from ..checkpoint import (checkpoint_params, get_checkpoint_store,
                          simulate_replay)
from ..core.classification import (ClassificationBreakdown, classify_intrachip,
                                   classify_offchip)
from ..core.lengths import LengthDistribution, length_distribution
from ..core.modules import ModuleBreakdown, module_breakdown
from ..core.reuse import ReuseDistanceDistribution, reuse_distance_distribution
from ..core.streams import StreamAnalysis, analyze_trace
from ..core.stride import StrideStreamBreakdown, stride_stream_breakdown
from ..mem.config import DEFAULT_SCALE, multichip_config, singlechip_config
from ..mem.multichip import MultiChipSystem
from ..mem.singlechip import SingleChipSystem
from ..mem.trace import (DEFAULT_CHUNK_SIZE, INTRA_CHIP, MULTI_CHIP,
                         MissTrace, SINGLE_CHIP)
from ..trace import TraceCorruptError, get_trace_store, trace_params
from ..workloads import create_workload
from .store import ResultStore

#: Fraction of the access trace used to warm the caches before recording,
#: mirroring the paper's warm-up of at least 5000 transactions before tracing.
DEFAULT_WARMUP_FRACTION = 0.25


def clamp_warmup_fraction(fraction: float) -> float:
    """The effective warm-up fraction for a requested one.

    Every site that turns a warm-up fraction into a warm-up access count —
    or into a checkpoint-store key — must clamp identically, or the
    planner, the stage workers, and the CLI would compute different keys
    for the same run.
    """
    return max(0.0, min(fraction, 0.9))


@dataclass
class ContextResult:
    """Everything the figures/tables need for one (workload, context) pair."""

    workload: str
    context: str
    miss_trace: MissTrace
    stream_analysis: StreamAnalysis
    classification: ClassificationBreakdown
    modules: ModuleBreakdown
    stride: StrideStreamBreakdown
    lengths: LengthDistribution
    reuse: ReuseDistanceDistribution

    @property
    def n_misses(self) -> int:
        return len(self.miss_trace)


#: Memoised results keyed by :func:`memo_key`.
_CACHE: Dict[Tuple[str, str, str, str, int, int, float], ContextResult] = {}
#: Memoised (off-chip, intra-chip) miss traces keyed by :func:`memo_key`.
_TRACE_CACHE: Dict[Tuple[str, str, str, str, int, int, float],
                   Dict[str, MissTrace]] = {}


def memo_key(cache_dir: Optional[str], workload: str, context: str,
             size: str, seed: int, scale: int, warmup_fraction: float
             ) -> Tuple[str, str, str, str, int, int, float]:
    """In-process memo key; must cover every parameter that affects results.

    The key leads with the absolute cache root of ``cache_dir`` (``None``:
    the default root), so a session on another root, or on the same
    relative root from another working directory, fills that root's stores
    instead of reusing this one's objects.
    """
    root = os.path.abspath(Session(cache_dir=cache_dir).cache_root)
    return (root, workload, context, size, seed, scale, warmup_fraction)


def get_store(cache_dir: Optional[str] = None) -> Optional[ResultStore]:
    """The disk store the runner should use, or None when disabled.

    Thin delegate to the default :class:`~repro.api.session.Session`'s
    result store; ``cache_dir`` overrides the root for this store only.
    """
    session = get_default_session()
    if cache_dir:
        session = session.with_options(cache_dir=cache_dir)
    return session.result_store


def clear_cache(disk: bool = False) -> int:
    """Drop memoised results; with ``disk=True`` also empty the disk stores.

    Thin delegate to :meth:`repro.api.session.Session.clear_caches` on the
    default session, which covers all three persistent stores — analysis
    bundles, captured access traces, and epoch-boundary checkpoints.
    Returns the number of disk entries removed (0 for memory-only clears).
    """
    return get_default_session().clear_caches(disk=disk)


def _result_params(workload: str, context: str, size: str, seed: int,
                   scale: int, warmup_fraction: float) -> Dict[str, object]:
    """Disk-store key for one analysis bundle."""
    return {"workload": workload, "context": context, "size": size,
            "seed": seed, "scale": scale, "warmup": warmup_fraction}


def bundle_status(workload: str, context: str, size: str, seed: int,
                  scale: int, warmup_fraction: float,
                  session: Session) -> str:
    """``"cached"`` when the bundle already exists (memo or disk) under
    ``session``'s root, else ``"ran"`` — the status a stage that builds it
    should report."""
    if memo_key(session.cache_dir, workload, context, size, seed, scale,
                warmup_fraction) in _CACHE:
        return "cached"
    store = session.result_store
    if store is not None and store.contains("context", _result_params(
            workload, context, size, seed, scale, warmup_fraction)):
        return "cached"
    return "ran"


def _build_system(organisation: str, scale: int
                  ) -> Union[MultiChipSystem, SingleChipSystem]:
    """A fresh system model for one organisation at one cache scale."""
    try:
        factory = SYSTEMS.get(organisation)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return factory(scale=scale)


def _simulate(workload: str, organisation: str, size: str, seed: int,
              scale: int, warmup_fraction: float,
              chunk_size: int = DEFAULT_CHUNK_SIZE, replay: bool = True,
              cache_dir: Optional[str] = None, checkpoint: bool = True,
              resume: bool = True,
              warm_start: bool = True) -> Dict[str, MissTrace]:
    """Run the workload access stream through one system organisation.

    With ``replay`` enabled the stream comes from the columnar trace store
    whenever a capture exists; on a first run, the counting pass captures
    the stream as a side effect and the simulation pass replays it, so the
    generators run at most once per distinct stream.

    Replayed simulations are crash-resumable: with ``checkpoint`` they
    snapshot an epoch boundary only after
    :data:`~repro.checkpoint.replay.CHECKPOINT_INTERVAL_S` of simulate time,
    and with ``resume`` they restore the latest snapshot (or a warm-start
    prefix) and simulate only the remaining epochs, bit-identically.  Short
    runs therefore write no snapshot at all, and no run snapshots its final
    boundary: a finished cell lives in the result store.  A trace whose
    segments turn out corrupt mid-replay is dropped with a warning and the
    run falls back to re-generating the stream (one retry).
    """
    warmup_fraction = clamp_warmup_fraction(warmup_fraction)
    key = memo_key(cache_dir, workload, organisation, size, seed, scale,
                   warmup_fraction)
    if key in _TRACE_CACHE:
        return _TRACE_CACHE[key]
    try:
        traces = _simulate_once(
            workload, organisation, size, seed, scale, warmup_fraction,
            chunk_size=chunk_size, replay=replay, cache_dir=cache_dir,
            checkpoint=checkpoint, resume=resume, warm_start=warm_start)
    except TraceCorruptError as exc:
        warnings.warn(
            f"captured trace for {workload} is corrupt mid-replay ({exc}); "
            f"dropping it and re-generating the stream", RuntimeWarning,
            stacklevel=2)
        trace_store = get_trace_store(cache_dir)
        if trace_store is not None:
            config = (multichip_config(scale=scale)
                      if organisation == "multi-chip"
                      else singlechip_config(scale=scale))
            trace_store.drop(trace_params(workload, config.n_cpus, seed,
                                          size))
        traces = _simulate_once(
            workload, organisation, size, seed, scale, warmup_fraction,
            chunk_size=chunk_size, replay=False, cache_dir=cache_dir,
            checkpoint=checkpoint, resume=resume, warm_start=warm_start)
    _TRACE_CACHE[key] = traces
    return traces


def _simulate_once(workload: str, organisation: str, size: str, seed: int,
                   scale: int, warmup_fraction: float,
                   chunk_size: int, replay: bool, cache_dir: Optional[str],
                   checkpoint: bool, resume: bool,
                   warm_start: bool = True) -> Dict[str, MissTrace]:
    """One simulation attempt (see :func:`_simulate` for the retry wrapper)."""
    system = _build_system(organisation, scale)
    config = system.config
    # The fraction was clamped by the caller (every key-building site goes
    # through clamp_warmup_fraction so plan, stage, and CLI keys agree).
    fraction = warmup_fraction

    trace_store = get_trace_store(cache_dir) if replay else None
    stream_key = trace_params(workload, config.n_cpus, seed, size)
    reader = trace_store.open(stream_key) if trace_store is not None else None

    accesses: Optional[Iterator] = None
    if reader is not None:
        # Replay: length and stream both come from disk; the generators are
        # never instantiated.
        n_accesses = reader.n_accesses
    else:
        # Counting pass over a fresh instance to place the warm-up boundary;
        # workloads are deterministic in (name, n_cpus, seed, size), so the
        # second pass sees the identical stream.  With a trace store the
        # counting pass is tee'd through a CaptureWriter, and the second
        # pass replays the capture instead of re-generating.
        counted = create_workload(workload, n_cpus=config.n_cpus, seed=seed,
                                  size=size).iter_accesses()
        if trace_store is not None:
            counted = trace_store.capture(counted, stream_key)
        n_accesses = sum(1 for _ in counted)
        reader = (trace_store.open(stream_key)
                  if trace_store is not None else None)
        if reader is None:
            accesses = create_workload(
                workload, n_cpus=config.n_cpus, seed=seed,
                size=size).iter_accesses()
    warmup = int(n_accesses * fraction)
    if reader is not None:
        # Checkpointed replay: resume from the latest snapshot an earlier,
        # interrupted run left behind; snapshot only as often as
        # CHECKPOINT_INTERVAL_S allows.
        ckpt_store = get_checkpoint_store(cache_dir) if checkpoint else None
        ckpt_key = checkpoint_params(workload, config.n_cpus, seed, size,
                                     organisation, scale, fraction,
                                     epoch_size=reader.meta.epoch_size)
        # Warm start: a prefix chain published under the warmup-free key
        # covers every epoch boundary inside this cell's warm-up, so when
        # it reaches further than our own checkpoints, restore it instead.
        prefix_key = prefix_limit = None
        if warm_start and ckpt_store is not None and warmup > 0:
            from ..checkpoint.prefix import prefix_params
            from ..trace.epoch import boundary_at_or_before
            limit = boundary_at_or_before(reader.meta.segments, warmup)
            if limit >= 1:
                prefix_key = prefix_params(
                    workload, config.n_cpus, seed, size, organisation,
                    scale, epoch_size=reader.meta.epoch_size)
                prefix_limit = limit
        results = simulate_replay(system, reader, warmup=warmup,
                                  store=ckpt_store, params=ckpt_key,
                                  resume=resume, prefix_params=prefix_key,
                                  prefix_limit=prefix_limit)
    else:
        results = system.run_stream(accesses, warmup=warmup,
                                    chunk_size=chunk_size)
    if organisation == "multi-chip":
        return {MULTI_CHIP: results}
    offchip, intrachip = results
    return {SINGLE_CHIP: offchip, INTRA_CHIP: intrachip}


def _analyze(workload: str, context: str, miss_trace: MissTrace,
             ) -> ContextResult:
    """Build the analysis bundle for one already-simulated miss trace."""
    analysis = analyze_trace(miss_trace)
    classification = (classify_intrachip(miss_trace) if context == INTRA_CHIP
                      else classify_offchip(miss_trace))
    return ContextResult(
        workload=workload,
        context=context,
        miss_trace=miss_trace,
        stream_analysis=analysis,
        classification=classification,
        modules=module_breakdown(miss_trace, analysis),
        stride=stride_stream_breakdown(miss_trace, analysis),
        lengths=length_distribution(analysis.occurrences),
        reuse=reuse_distance_distribution(analysis, miss_trace),
    )


def run_context(workload: str, context: str, *, size: str = "small",
                seed: int = 42, scale: int = DEFAULT_SCALE,
                warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
                session: Optional[Session] = None) -> ContextResult:
    """Build the full analysis bundle for one workload in one system context.

    ``context`` is one of ``multi-chip``, ``single-chip``, or ``intra-chip``
    (the latter two come from the same single-chip simulation).  Results are
    memoised in-process and persisted to the versioned disk store.  The
    ``session`` (default: the process-wide default session) supplies the
    cache root and the replay/checkpoint/resume policy — none of which
    affect the produced results (a resumed run is bit-identical by
    construction).  This is the engine behind
    :meth:`repro.api.session.Session.run` and every simulate stage of a
    plan.
    """
    session = session if session is not None else get_default_session()
    # Route the context to the registered organisation that produces it, so
    # systems added via @register_system are runnable without edits here.
    organisation = next((name for name in SYSTEMS.names()
                         if context in SYSTEMS.get(name).contexts), None)
    if organisation is None:
        known = [ctx for name in SYSTEMS.names()
                 for ctx in SYSTEMS.get(name).contexts]
        raise ValueError(f"unknown context {context!r}; available: "
                         f"{', '.join(known)}")
    warmup_fraction = clamp_warmup_fraction(warmup_fraction)
    cache_key = memo_key(session.cache_dir, workload, context, size, seed,
                         scale, warmup_fraction)
    if cache_key in _CACHE:
        return _CACHE[cache_key]
    store = session.result_store
    params = _result_params(workload, context, size, seed, scale,
                            warmup_fraction)
    if store is not None:
        cached = store.load("context", params)
        if cached is not None:
            _CACHE[cache_key] = cached
            return cached
    traces = _simulate(workload, organisation, size, seed, scale,
                       warmup_fraction,
                       replay=session.replay, cache_dir=session.cache_dir,
                       checkpoint=session.checkpoint, resume=session.resume,
                       warm_start=getattr(session, "warm_start", True))
    result = _analyze(workload, context, traces[context])
    _CACHE[cache_key] = result
    if store is not None:
        store.save("context", params, result)
    return result
