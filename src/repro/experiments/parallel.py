"""Process-pool suite runner for the full evaluation sweep.

The evaluation sweeps every workload through both system organisations.
Individual simulations are single-threaded pure Python, so the sweep
parallelises perfectly across (workload, organisation) pairs — the unit of
work is an *organisation* rather than a context because the single-chip
simulation yields both the ``single-chip`` and ``intra-chip`` bundles in one
pass.

Workers are ordinary processes, obtained through the pluggable executor
layer (:class:`repro.api.executor.ProcessExecutor` — or
:class:`~repro.api.executor.SerialExecutor` when ``max_workers=1`` — via
:meth:`~repro.api.executor.Executor.submit_call`); each one runs
:func:`repro.experiments.runner.run_context` under a worker-local
:class:`~repro.api.session.Session`, which writes its results through to the
shared on-disk store, and additionally returns the bundles to the parent so
the parent's in-process memo is warm afterwards.  A re-run of the suite is
therefore served entirely from the disk cache without spawning simulations
at all.

Simulation itself never splits below one (workload, organisation) cell: a
cell's epochs depend on every epoch before them.  Only the *counting* pass
over a captured trace fans out further —
:meth:`ParallelSuiteRunner.summarize_trace` decodes one self-describing
epoch segment per worker and folds the per-epoch summaries back together in
epoch order, which makes the merge deterministic regardless of completion
order.
"""

from __future__ import annotations

from concurrent.futures import as_completed
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..api.registry import SYSTEMS
from ..api.session import Session
from ..mem.config import DEFAULT_SCALE
from ..trace import (EpochSummary, TraceReader, merge_summaries,
                     summarize_trace_epoch)
from ..workloads import WORKLOAD_NAMES
from .runner import (ContextResult, DEFAULT_WARMUP_FRACTION, _CACHE,
                     clamp_warmup_fraction, memo_key, run_context)


def organisation_contexts() -> Dict[str, Tuple[str, ...]]:
    """Contexts produced by one simulation of each registered organisation.

    Computed from the system registry on every call so organisations added
    via :func:`repro.api.registry.register_system` after import time join
    the sweep (the module-level :data:`ORGANISATION_CONTEXTS` snapshot below
    is kept for back-compat with import-time consumers).
    """
    return {name: SYSTEMS.get(name).contexts for name in SYSTEMS.names()}


#: Import-time snapshot of :func:`organisation_contexts` (back-compat).
ORGANISATION_CONTEXTS: Dict[str, Tuple[str, ...]] = organisation_contexts()


def spec_contexts(spec) -> Tuple[str, ...]:
    """The contexts an :class:`~repro.api.spec.ExperimentSpec` grid covers."""
    contexts = organisation_contexts()
    return tuple(context
                 for organisation in spec.resolved().organisations
                 for context in contexts[organisation])


def _run_organisation(job: Tuple) -> Tuple[str, Dict[str, ContextResult]]:
    """Worker entry point: one (workload, organisation) simulation.

    Module-level so it pickles under both fork and spawn start methods.
    """
    (workload, organisation, size, seed, scale, warmup_fraction, streaming,
     cache_dir, replay, checkpoint, resume) = job
    session = Session(cache_dir=cache_dir, streaming=streaming,
                      replay=replay, checkpoint=checkpoint, resume=resume)
    results = {}
    for context in organisation_contexts()[organisation]:
        results[context] = run_context(
            workload, context, size=size, seed=seed, scale=scale,
            warmup_fraction=warmup_fraction, session=session)
    return workload, results


def _capture_stream_job(job: Tuple) -> Tuple[Tuple[str, int], str]:
    """Worker entry point: capture one workload access stream to the store.

    Module-level so it pickles under both fork and spawn start methods.
    Returns ``((workload, n_cpus), status)`` where status is ``cached`` when
    the trace already existed or ``ran`` after a fresh capture (committed
    atomically, so concurrent captures of the same stream race benignly).
    Delegates to the capture stage function so the suite-runner path and
    plan execution share one implementation.
    """
    workload, n_cpus, seed, size, cache_dir = job
    from ..api.executor import _stage_capture
    status, _ = _stage_capture(
        {"workload": workload, "n_cpus": n_cpus, "seed": seed, "size": size},
        {"cache_dir": cache_dir, "replay": True})
    return (workload, n_cpus), status


def _summarize_epoch_job(job: Tuple) -> Tuple[int, EpochSummary]:
    """Worker entry point: summarise one epoch segment of one trace.

    Module-level so it pickles under both fork and spawn start methods; the
    worker opens the trace directory and decodes only its own segment.
    """
    trace_path, epoch_index, block_bits = job
    return summarize_trace_epoch(trace_path, epoch_index,
                                 block_bits=block_bits)


class ParallelSuiteRunner:
    """Fan the evaluation sweep out over a process pool.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` lets :class:`ProcessPoolExecutor` pick
        (cpu count).  ``1`` runs the jobs inline in this process — useful
        for tests and for environments where spawning is restricted.
    streaming:
        Passed through to the runner: lazy (bounded-memory) generation when
        True, eager materialisation when False.
    cache_dir:
        Optional disk-store root shared by parent and workers.
    replay:
        Passed through to the runner: capture/replay access streams via the
        trace store when True (default), always re-generate when False.
    checkpoint / resume:
        Passed through to the runner: snapshot long replayed simulations
        for crash-resume, and restore the latest snapshot instead of
        simulating from access zero.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 streaming: bool = True,
                 cache_dir: Optional[str] = None,
                 replay: bool = True, checkpoint: bool = True,
                 resume: bool = True) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.streaming = streaming
        self.cache_dir = cache_dir
        self.replay = replay
        self.checkpoint = checkpoint
        self.resume = resume

    # ------------------------------------------------------------------ #
    def _pool(self, n_jobs: int):
        """The executor backend for ``n_jobs`` sub-stage tasks.

        The pool this runner historically owned lives in
        :class:`repro.api.executor.ProcessExecutor` now; ``max_workers=1``
        (or a single job) degrades to the inline
        :class:`~repro.api.executor.SerialExecutor` so tests and restricted
        environments never spawn.
        """
        from ..api.executor import ProcessExecutor, SerialExecutor
        if self.max_workers == 1 or n_jobs <= 1:
            return SerialExecutor(max_workers=1)
        return ProcessExecutor(max_workers=self.max_workers)

    # ------------------------------------------------------------------ #
    def _jobs(self, workloads: Iterable[str], size: str, seed: int,
              scale: int, warmup_fraction: float,
              organisations: Tuple[str, ...]) -> List[Tuple]:
        return [(workload, organisation, size, seed, scale, warmup_fraction,
                 self.streaming, self.cache_dir, self.replay,
                 self.checkpoint, self.resume)
                for workload in workloads
                for organisation in organisations]

    def run_suite(self, size: str = "small", seed: int = 42,
                  scale: int = DEFAULT_SCALE,
                  workloads: Tuple[str, ...] = WORKLOAD_NAMES,
                  warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
                  organisations: Optional[Tuple[str, ...]] = None,
                  ) -> Dict[str, Dict[str, ContextResult]]:
        """All ``workloads`` in all contexts; returns {workload: {context: result}}.

        One pool task per (workload, organisation) cell; ``organisations``
        restricts the sweep (default: every registered organisation).
        """
        warmup_fraction = clamp_warmup_fraction(warmup_fraction)
        known = organisation_contexts()
        if organisations is None:
            organisations = tuple(known)
        for organisation in organisations:
            if organisation not in known:
                raise ValueError(f"unknown organisation {organisation!r}")
        jobs = self._jobs(workloads, size, seed, scale, warmup_fraction,
                          organisations)
        merged: Dict[str, Dict[str, ContextResult]] = {w: {} for w in workloads}
        with self._pool(len(jobs)) as pool:
            futures = [pool.submit_call(_run_organisation, job)
                       for job in jobs]
            for future in as_completed(futures):
                workload, results = future.result()
                merged[workload].update(results)
        # Warm the parent's memo so follow-up figure/table rendering in this
        # process reuses the returned bundles directly.
        for workload, results in merged.items():
            for context, result in results.items():
                _CACHE[memo_key(self.cache_dir, workload, context, size, seed,
                                scale, warmup_fraction)] = result
        return merged

    # ------------------------------------------------------------------ #
    def capture_streams(self, streams: Sequence[Tuple[str, int]], seed: int,
                        size: str) -> Dict[Tuple[str, int], str]:
        """Capture several ``(workload, n_cpus)`` access streams concurrently.

        Streams that already exist in the trace store are left untouched
        (``cached``); the rest generate and capture in pool workers, so a
        cold plan execution overlaps its generation passes the same way the
        flag-driven suite path does.  Returns ``{stream: status}``.
        """
        jobs = [(workload, n_cpus, seed, size, self.cache_dir)
                for workload, n_cpus in streams]
        with self._pool(len(jobs)) as pool:
            futures = [pool.submit_call(_capture_stream_job, job)
                       for job in jobs]
            return dict(future.result() for future in as_completed(futures))

    # ------------------------------------------------------------------ #
    def summarize_trace(self, reader: TraceReader,
                        block_bits: int = 6) -> EpochSummary:
        """Epoch-sharded counting pass over one captured trace.

        Fans the trace's epoch segments out over the process pool (one
        segment per task, each worker decodes only its own segment) and
        merges the per-epoch :class:`~repro.trace.epoch.EpochSummary`
        objects in epoch order, so the result is identical to the
        sequential :func:`repro.trace.epoch.summarize_trace` no matter the
        completion order.  This is parallelism *below* single-simulation
        granularity: one stream, many workers.
        """
        jobs = [(str(reader.path), index, block_bits)
                for index in range(reader.n_epochs)]
        with self._pool(len(jobs)) as pool:
            futures = [pool.submit_call(_summarize_epoch_job, job)
                       for job in jobs]
            pairs = [future.result() for future in as_completed(futures)]
        return merge_summaries(pairs)
