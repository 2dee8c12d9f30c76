"""The :class:`Session` facade: one object owning stores and policy.

Before this module existed, every entry point reached the persistence layer
through module-level singletons (``get_trace_store()``,
``get_checkpoint_store()``, ``runner.get_store()``) and threaded the policy
flags (``replay``/``checkpoint``/``resume``/``cache_dir``) through each
call.  A :class:`Session` bundles all of that:

* the **cache root** (explicit, or resolved from ``REPRO_CACHE_DIR`` at
  access time so environment changes — e.g. test isolation — keep working),
* the three **stores** (analysis bundles, captured traces, checkpoints),
* the **parallelism policy** (``max_workers``) and the pipeline policy
  flags.

The legacy singletons remain as thin delegates to the process-wide *default
session* (:func:`get_default_session`), so existing call sites keep their
behaviour while new code composes sessions explicitly::

    from repro.api import Session

    session = Session(cache_dir="/tmp/cache", max_workers=4)
    result = session.run("Apache", "multi-chip", size="small")
    plan = session.plan(spec)        # declarative grid -> stage DAG
    outcome = plan.run(session)
    sweep = session.suite(size="tiny")   # the same scheduler, reshaped

Store accessors return ``None`` when ``REPRO_DISABLE_DISK_CACHE`` is set,
mirroring the singletons they replace.  Store objects are constructed per
access — they are cheap path holders — so a session never caches a stale
root.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from ..cachedir import default_cache_root, disk_cache_disabled

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..checkpoint.store import CheckpointStore
    from ..experiments.runner import ContextResult
    from ..experiments.store import ResultStore
    from ..trace.store import TraceStore
    from .plan import Plan, PlanResult
    from .spec import ExperimentSpec

#: Sentinel distinguishing "not passed" from an explicit ``None`` override.
_UNSET = object()


class Session:
    """Facade over the capture -> simulate -> analyze -> render pipeline.

    Parameters
    ----------
    cache_dir:
        Root for all three stores; ``None`` resolves ``REPRO_CACHE_DIR`` /
        ``~/.cache/repro`` at each access.
    max_workers:
        Worker budget of the overlapping executor backends; ``None`` lets
        the executor pick (cpu count).
    replay / checkpoint / resume:
        Pipeline policy, with the same meaning as the historical per-call
        flags (see :mod:`repro.experiments.runner`).
    warm_start:
        Exploit shared-prefix checkpoints (:mod:`repro.checkpoint.prefix`):
        plans gain ``prefix`` stages that publish each cell group's shared
        simulation prefix once, and simulate runs restore the furthest
        prefix checkpoint inside their warm-up instead of recomputing it.
        Results are bit-identical either way; ``False`` disables both the
        planning and the restore side.
    executor:
        How plan stages execute: a name registered in
        :data:`repro.api.registry.EXECUTORS` (``serial``/``process``/
        ``dispatch``), the string ``auto`` (serial for a plan with at most
        one backend stage, process otherwise — see
        :func:`~repro.api.executor.choose_executor_name`), or an
        :class:`~repro.api.executor.Executor` instance.  ``serial`` (the
        default) keeps the historical one-stage-at-a-time semantics.  Every
        multi-cell entry point (:meth:`execute`, :meth:`suite`) runs under
        it.
    dispatch_workers:
        The submit/attach policy of the ``dispatch`` backend: how many
        local worker processes a
        :class:`~repro.api.executor.DispatchExecutor` embeds.  ``None``
        (default) sizes a self-contained local fleet from ``max_workers``;
        ``0`` *submits only* — work items wait for external ``repro
        worker`` daemons attached to the same cache root (how ``repro
        serve`` shares one fleet across submitters).
    telemetry:
        Record per-stage spans and a run manifest under
        ``<cache>/telemetry/<run_id>/`` for every executed plan (default
        on; a no-op when disk caching is disabled).
    profile:
        Additionally wrap each stage in :mod:`cProfile`, dropping a
        per-stage ``.prof`` file into the run's telemetry directory
        (implies nothing about ``telemetry=False``: without telemetry
        there is no run directory, so nothing is profiled).
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 max_workers: Optional[int] = None,
                 replay: bool = True, checkpoint: bool = True,
                 resume: bool = True, warm_start: bool = True,
                 executor: Any = "serial",
                 dispatch_workers: Optional[int] = None,
                 telemetry: bool = True, profile: bool = False) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if dispatch_workers is not None and dispatch_workers < 0:
            raise ValueError("dispatch_workers must be >= 0 "
                             "(0 = external fleet)")
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.max_workers = max_workers
        self.replay = replay
        self.checkpoint = checkpoint
        self.resume = resume
        self.warm_start = warm_start
        self.executor = executor
        self.dispatch_workers = dispatch_workers
        self.telemetry = telemetry
        self.profile = profile

    # ------------------------------------------------------------------ #
    # roots and stores
    # ------------------------------------------------------------------ #
    @property
    def cache_root(self) -> Path:
        """The directory all three stores live under."""
        if self.cache_dir is not None:
            return Path(self.cache_dir).expanduser()
        return default_cache_root()

    @property
    def disk_cache_enabled(self) -> bool:
        return not disk_cache_disabled()

    @property
    def result_store(self) -> Optional["ResultStore"]:
        """The analysis-bundle store, or ``None`` when disk caching is off."""
        if not self.disk_cache_enabled:
            return None
        from ..experiments.store import ResultStore
        return ResultStore(self.cache_dir) if self.cache_dir else ResultStore()

    @property
    def trace_store(self) -> Optional["TraceStore"]:
        """The captured-access-trace store, or ``None`` when disk caching is off."""
        if not self.disk_cache_enabled:
            return None
        from ..trace.store import TraceStore
        return TraceStore(self.cache_dir) if self.cache_dir else TraceStore()

    @property
    def checkpoint_store(self) -> Optional["CheckpointStore"]:
        """The epoch-boundary snapshot store, or ``None`` when disk caching is off."""
        if not self.disk_cache_enabled:
            return None
        from ..checkpoint.store import CheckpointStore
        return (CheckpointStore(self.cache_dir) if self.cache_dir
                else CheckpointStore())

    @property
    def dispatch_queue(self):
        """The dispatch work queue, or ``None`` when disk caching is off."""
        if not self.disk_cache_enabled:
            return None
        from .queue import WorkQueue
        return WorkQueue(self.cache_root / "dispatch")

    @property
    def telemetry_store(self):
        """The per-run telemetry store, or ``None`` when disk caching is
        off or this session was built with ``telemetry=False``."""
        if not self.disk_cache_enabled or not self.telemetry:
            return None
        from ..obs.store import TelemetryStore
        return TelemetryStore(self.cache_dir)

    @property
    def run_index(self):
        """The sqlite run index, or ``None`` when disk caching is off."""
        if not self.disk_cache_enabled:
            return None
        from ..obs.index import RunIndex
        return RunIndex(self.cache_dir)

    # ------------------------------------------------------------------ #
    def with_options(self, cache_dir: Any = _UNSET,
                     max_workers: Any = _UNSET,
                     replay: Any = _UNSET, checkpoint: Any = _UNSET,
                     resume: Any = _UNSET, warm_start: Any = _UNSET,
                     executor: Any = _UNSET,
                     dispatch_workers: Any = _UNSET,
                     telemetry: Any = _UNSET,
                     profile: Any = _UNSET) -> "Session":
        """A copy of this session with the given fields overridden."""
        return Session(
            cache_dir=self.cache_dir if cache_dir is _UNSET else cache_dir,
            max_workers=(self.max_workers if max_workers is _UNSET
                         else max_workers),
            replay=self.replay if replay is _UNSET else replay,
            checkpoint=self.checkpoint if checkpoint is _UNSET else checkpoint,
            resume=self.resume if resume is _UNSET else resume,
            warm_start=(self.warm_start if warm_start is _UNSET
                        else warm_start),
            executor=self.executor if executor is _UNSET else executor,
            dispatch_workers=(self.dispatch_workers
                              if dispatch_workers is _UNSET
                              else dispatch_workers),
            telemetry=self.telemetry if telemetry is _UNSET else telemetry,
            profile=self.profile if profile is _UNSET else profile)

    # ------------------------------------------------------------------ #
    # pipeline entry points
    # ------------------------------------------------------------------ #
    def run(self, workload: str, context: str, *, size: str = "small",
            seed: int = 42, scale: Optional[int] = None,
            warmup_fraction: Optional[float] = None) -> "ContextResult":
        """The full analysis bundle for one (workload, context) cell."""
        from ..experiments import runner
        return runner.run_context(
            workload, context, size=size, seed=seed,
            scale=runner.DEFAULT_SCALE if scale is None else scale,
            warmup_fraction=(runner.DEFAULT_WARMUP_FRACTION
                             if warmup_fraction is None else warmup_fraction),
            session=self)

    def run_all(self, workload: str, *, size: str = "small", seed: int = 42,
                scale: Optional[int] = None,
                warmup_fraction: Optional[float] = None
                ) -> Dict[str, "ContextResult"]:
        """All three contexts for one workload."""
        from ..mem.trace import ALL_CONTEXTS
        return {context: self.run(workload, context, size=size, seed=seed,
                                  scale=scale,
                                  warmup_fraction=warmup_fraction)
                for context in ALL_CONTEXTS}

    def suite(self, *, size: str = "small", seed: int = 42,
              scale: Optional[int] = None,
              warmup_fraction: Optional[float] = None,
              workloads: Optional[Tuple[str, ...]] = None,
              organisations: Optional[Tuple[str, ...]] = None,
              events: Any = None,
              ) -> Dict[str, Dict[str, "ContextResult"]]:
        """The evaluation sweep as ``{workload: {context: bundle}}``.

        Builds one :class:`~repro.api.spec.ExperimentSpec` over
        ``workloads`` x ``organisations`` (default: every registered one)
        at one scale and the clamped warm-up, and runs it through
        :meth:`execute` under this session's ``executor`` policy;
        ``events`` is passed on to :meth:`execute`.
        """
        from ..experiments import runner
        from .spec import ExperimentSpec, spec_contexts
        scale = runner.DEFAULT_SCALE if scale is None else scale
        warmup = runner.clamp_warmup_fraction(
            runner.DEFAULT_WARMUP_FRACTION if warmup_fraction is None
            else warmup_fraction)
        spec = ExperimentSpec(
            name="suite", size=size, seed=seed,
            workloads=tuple(workloads or ()),
            organisations=tuple(organisations or ()),
            scales=(scale,), warmups=(warmup,)).resolved()
        bundles = self.execute(spec, events=events).bundles
        return {workload: {context: bundles[(workload, context, scale,
                                             warmup)]
                           for context in spec_contexts(spec)}
                for workload in spec.workloads}

    # ------------------------------------------------------------------ #
    # declarative plans
    # ------------------------------------------------------------------ #
    def plan(self, spec: "ExperimentSpec") -> "Plan":
        """Resolve a declarative spec into an explicit stage DAG."""
        from .plan import build_plan
        # A prefix stage only runs when replay and checkpoints are on too;
        # planning one the policy will skip would only report ``skipped``.
        return build_plan(spec, warm_starts=(self.warm_start
                                             and self.checkpoint
                                             and self.replay))

    def execute(self, spec_or_plan: Any, executor: Any = None,
                events: Any = None) -> "PlanResult":
        """Plan (if needed) and execute a spec; returns the plan outcome.

        ``executor`` overrides this session's execution backend for one
        call; ``events`` receives :class:`~repro.api.plan.PlanEvents`
        lifecycle callbacks as stages start/finish/fail.
        """
        from .plan import Plan
        plan = (spec_or_plan if isinstance(spec_or_plan, Plan)
                else self.plan(spec_or_plan))
        return plan.run(self, executor=executor, events=events)

    # ------------------------------------------------------------------ #
    def clear_caches(self, disk: bool = False) -> int:
        """Drop in-process memos; with ``disk`` also empty this root's stores.

        The disk clear covers all three stores, the dispatch work queue
        (work items, receipts, and run directories), the per-run telemetry
        directories, and the sqlite run index, so a full clear leaves no
        stale queue state for workers to pick up and no orphaned run
        history.
        """
        from ..experiments import runner
        runner._CACHE.clear()
        runner._TRACE_CACHE.clear()
        removed = 0
        if disk:
            from ..obs.store import TelemetryStore
            telemetry = (TelemetryStore(self.cache_dir)
                         if self.disk_cache_enabled else None)
            for store in (self.result_store, self.trace_store,
                          self.checkpoint_store, self.dispatch_queue,
                          telemetry, self.run_index):
                if store is not None:
                    removed += store.clear()
        return removed

    def describe(self) -> str:
        policy = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in ("replay", "checkpoint", "resume", "warm_start",
                         "telemetry"))
        if self.profile:
            policy += ", profile=True"
        workers = ("auto" if self.max_workers is None else self.max_workers)
        backend = (self.executor if isinstance(self.executor, str)
                   else getattr(self.executor, "name", self.executor))
        fleet = ("" if self.dispatch_workers is None
                 else f", dispatch_workers={self.dispatch_workers}")
        return (f"session at {self.cache_root} (workers={workers}, "
                f"executor={backend}{fleet}, {policy}, "
                f"disk cache {'on' if self.disk_cache_enabled else 'off'})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session {self.describe()}>"


#: The process-wide default session the legacy singletons delegate to.
_DEFAULT_SESSION: Optional[Session] = None


def get_default_session() -> Session:
    """The process-wide default :class:`Session` (created on first use)."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION


def set_default_session(session: Optional[Session]) -> Optional[Session]:
    """Replace the default session; returns the previous one.

    Passing ``None`` resets to a freshly-constructed default on next use.
    """
    global _DEFAULT_SESSION
    previous = _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return previous
