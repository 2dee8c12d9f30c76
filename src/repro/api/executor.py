"""Pluggable execution backends for stage-DAG plans.

A plan (:mod:`repro.api.plan`) is *what* runs — an explicit DAG of pipeline
stages.  An :class:`Executor` is *how* it runs: the event-driven scheduler in
:func:`~repro.api.plan.execute_plan` hands each *ready* stage (all
dependencies landed) to the backend and gets a
:class:`concurrent.futures.Future` back; everything about pools, processes,
and work-item serialisation lives behind that boundary.

Three backends ship, all registered in :data:`repro.api.registry.EXECUTORS`
(so ``Session(executor="process")``, ``--executor process``, and
``@register_executor`` all resolve through one namespace):

``serial``
    Runs every stage inline, in submission (topological) order — the
    reference semantics and the default.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` — independent grid
    cells (and capture passes) genuinely overlap.  Workers write through the
    shared on-disk stores and return their payloads to the parent.
``dispatch``
    The multi-host execution backend: each ready stage is serialised to a
    **leased JSON work item** under ``<cache>/dispatch/`` (see
    :mod:`repro.api.queue`), claimed atomically and executed by a worker
    that sees *only* that JSON plus the shared cache root, and acknowledged
    through a ``*.done.json`` receipt; the parent waits on queue state and
    then replays the stage's artifacts from the shared stores rather than
    receiving in-memory objects.  Workers are ``repro worker`` daemons on
    any host mounting the cache root (with an embedded local fleet as the
    default stand-in); a killed worker's leases expire and its items are
    requeued and retried idempotently.

The module-level :func:`run_stage` is the single worker entry point every
backend funnels through, so a stage computes the same payload no matter
where it runs — the backends are interchangeable by construction, and the
CI smoke job asserts bit-identical plan artifacts across all three.
:meth:`Executor.submit` hands one stage to the backend and
:meth:`Executor.finalize` turns the future's raw value into
``(status, payload)``.
"""

from __future__ import annotations

import os
import tempfile
import threading
from abc import ABC, abstractmethod
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from .registry import EXECUTORS, SYSTEMS, register_executor

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .plan import Plan, Stage
    from .session import Session

#: The names the built-in backends register under (CLI choices).
EXECUTOR_NAMES = ("serial", "process", "dispatch")


class ExecutorSetupError(RuntimeError):
    """A backend cannot run under the bound session's configuration.

    Distinct from plain ``RuntimeError`` so callers (e.g. the CLI) can
    report a configuration problem as a one-liner without also swallowing
    unrelated runtime failures like a broken worker pool.
    """

#: Stage kinds a backend executes; the scheduler runs the remaining kinds
#: (analyze/prefetch/render) inline because they are pure bookkeeping over
#: payloads it already holds.
BACKEND_KINDS = ("capture", "prefix", "simulate")


def session_config(session: "Session") -> Dict[str, Any]:
    """The picklable/JSON-able policy a stage needs to run anywhere."""
    return {"cache_dir": session.cache_dir,
            "replay": session.replay,
            "checkpoint": session.checkpoint,
            "resume": session.resume,
            "warm_start": bool(getattr(session, "warm_start", True)),
            "profile": bool(getattr(session, "profile", False))}


def _config_session(config: Dict[str, Any]) -> "Session":
    from .session import Session
    return Session(cache_dir=config.get("cache_dir"),
                   replay=config.get("replay", True),
                   checkpoint=config.get("checkpoint", True),
                   resume=config.get("resume", True),
                   warm_start=config.get("warm_start", True))


# --------------------------------------------------------------------------- #
# stage work functions (module-level so they pickle under fork and spawn)
# --------------------------------------------------------------------------- #
def _stage_capture(params: Dict[str, Any],
                   config: Dict[str, Any]) -> Tuple[str, None]:
    """Capture one workload access stream into the shared trace store."""
    from ..trace import get_trace_store, trace_params
    from ..workloads import create_workload
    store = (get_trace_store(config.get("cache_dir"))
             if config.get("replay", True) else None)
    if store is None:
        return "skipped", None
    key = trace_params(params["workload"], params["n_cpus"], params["seed"],
                       params["size"])
    if store.contains(key):
        return "cached", None
    accesses = create_workload(params["workload"], n_cpus=params["n_cpus"],
                               seed=params["seed"],
                               size=params["size"]).iter_accesses()
    for _ in store.capture(accesses, key):
        pass
    return "ran", None


def _stage_prefix(params: Dict[str, Any],
                  config: Dict[str, Any]) -> Tuple[str, None]:
    """Publish the shared-prefix checkpoint chain of one cell group.

    Runs on every backend — a dispatch worker resolves the same shared
    cache root, so sibling simulate stages warm-start no matter where they
    (or this stage) execute.  Skipped when replay/checkpointing/warm
    starts are off: member cells then simulate cold, identically.
    """
    from ..checkpoint.prefix import publish_prefix
    from ..experiments.runner import clamp_warmup_fraction
    if not (config.get("replay", True) and config.get("checkpoint", True)
            and config.get("warm_start", True)):
        return "skipped", None
    status = publish_prefix(
        params["workload"], params["organisation"], params["size"],
        params["seed"], params["scale"],
        clamp_warmup_fraction(params["warmup"]),
        cache_dir=config.get("cache_dir"),
        resume=config.get("resume", True))
    return status, None


def _stage_simulate(params: Dict[str, Any],
                    config: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Simulate one grid cell; returns per-context statuses and bundles.

    The per-context status ("cached" vs "ran") is decided *before* running,
    so an analyze stage can report whether its bundle pre-existed in the
    memo/disk store.
    """
    from ..experiments.runner import (bundle_status, clamp_warmup_fraction,
                                      run_context)
    workload = params["workload"]
    organisation = params["organisation"]
    scale, size, seed = params["scale"], params["size"], params["seed"]
    warmup = clamp_warmup_fraction(params["warmup"])
    session = _config_session(config)
    contexts = SYSTEMS.get(organisation).contexts
    statuses = {context: bundle_status(workload, context, size, seed, scale,
                                       warmup, session)
                for context in contexts}
    bundles = {context: run_context(workload, context, size=size, seed=seed,
                                    scale=scale, warmup_fraction=warmup,
                                    session=session)
               for context in contexts}
    return _merge_statuses(statuses), {"statuses": statuses,
                                       "bundles": bundles}


def _merge_statuses(statuses: Dict[str, str]) -> str:
    """A simulate stage only "ran" if at least one context had real work."""
    return ("cached" if statuses and all(s == "cached"
                                         for s in statuses.values())
            else "ran")


_STAGE_FNS = {"capture": _stage_capture,
              "prefix": _stage_prefix,
              "simulate": _stage_simulate}


def run_stage(kind: str, params: Dict[str, Any],
              config: Dict[str, Any]) -> Tuple[str, Any]:
    """Execute one backend-run stage; returns ``(status, payload)``.

    The single entry point every backend funnels through — inline, in a
    pool worker, or deserialised from a dispatch work item — so a stage's
    result is a pure function of ``(kind, params, config)`` and backends
    stay interchangeable.
    """
    try:
        fn = _STAGE_FNS[kind]
    except KeyError:
        raise ValueError(f"no backend work function for stage kind {kind!r} "
                         f"(backend kinds: {', '.join(_STAGE_FNS)})") from None
    run_id = config.get("telemetry_run_id")
    if not run_id:
        return fn(params, config)
    # Worker-origin span: the stage's actual compute cost, measured in
    # whichever process runs it (the serial parent, a pool worker, an
    # embedded dispatch worker, or a remote `repro worker`) and appended to
    # the run's shared spans.jsonl.  Telemetry must never fail the stage, so
    # a broken telemetry store only loses the span.
    from ..obs import Span, get_telemetry_store, maybe_profile
    store = get_telemetry_store(config.get("cache_dir"))
    if store is None:
        return fn(params, config)
    stage_key = config.get("stage_key", kind)
    prof_path = (store.profile_path(run_id, stage_key)
                 if config.get("profile") else None)
    span = Span(kind, params, stage=stage_key, origin="worker").begin()
    try:
        with maybe_profile(prof_path):
            status, payload = fn(params, config)
    except Exception as exc:
        span.finish("failed", error=exc)
        _append_span_safely(store, run_id, span)
        raise
    span.finish(status)
    _append_span_safely(store, run_id, span)
    return status, payload


def _append_span_safely(store, run_id: str, span) -> None:
    import warnings
    try:
        store.append_span(run_id, span.to_record())
    except OSError as exc:  # pragma: no cover - disk full etc.
        warnings.warn(f"failed to persist span for {span.stage}: {exc}",
                      RuntimeWarning, stacklevel=2)


# --------------------------------------------------------------------------- #
# the Executor protocol
# --------------------------------------------------------------------------- #
class Executor(ABC):
    """How a plan's ready stages turn into running work.

    Lifecycle: the scheduler calls :meth:`bind` once with the session (and
    the plan, for backends that want to pre-provision), then any number of
    :meth:`submit`, then :meth:`shutdown` (or uses the executor as a context
    manager).  ``submit`` returns a :class:`concurrent.futures.Future` so
    heterogeneous backends compose with :func:`concurrent.futures.wait`.
    """

    #: Registry name; set by subclasses.
    name = "base"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        #: Explicit construction-time budget; ``None`` defers to the bound
        #: session, re-resolved on every bind so a reused instance follows
        #: each session's worker budget instead of pinning the first one.
        self._own_max_workers = max_workers
        self.max_workers = max_workers
        self._config: Dict[str, Any] = {}

    # -- lifecycle ------------------------------------------------------- #
    def bind(self, session: "Session", plan: Optional["Plan"] = None) -> None:
        """Adopt the session policy stages will run under."""
        self.max_workers = (self._own_max_workers
                            if self._own_max_workers is not None
                            else session.max_workers)
        self._config = session_config(session)

    def configure(self, **overrides: Any) -> None:
        """Merge per-run settings into the stage config.

        The scheduler calls this between :meth:`bind` and the first
        :meth:`submit` — e.g. with the telemetry ``run_id``, which does not
        exist yet at bind time.  Later submits (including dispatch work
        items) carry the merged config.
        """
        self._config.update(overrides)

    def shutdown(self) -> None:
        """Release pools/resources; the executor may not be reused after."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission ------------------------------------------------------ #
    def stage_args(self, stage: "Stage") -> Tuple[str, Dict[str, Any],
                                                  Dict[str, Any]]:
        """The picklable/JSON-able :func:`run_stage` arguments of ``stage``."""
        config = dict(self._config)
        config["stage_key"] = stage.key
        return stage.kind, dict(stage.params), config

    @abstractmethod
    def submit(self, stage: "Stage") -> Future:
        """Run one ready stage; resolve the future via :meth:`finalize`."""

    def finalize(self, stage: "Stage", value: Any) -> Tuple[str, Any]:
        """Turn a completed future's raw value into ``(status, payload)``."""
        return value

    def describe(self) -> str:
        workers = "auto" if self.max_workers is None else self.max_workers
        return f"{self.name} executor (workers={workers})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


@register_executor("serial", aliases=("inline",))
class SerialExecutor(Executor):
    """Run every stage inline, in submission order (the reference backend).

    Executing in the parent keeps the historical semantics exactly: one
    stage at a time, in deterministic order.
    """

    name = "serial"

    def submit(self, stage: "Stage") -> Future:
        future: Future = Future()
        try:
            future.set_result(run_stage(*self.stage_args(stage)))
        except Exception as exc:  # noqa: BLE001 - the future carries it
            future.set_exception(exc)
        return future


@register_executor("process")
class ProcessExecutor(Executor):
    """Overlap stages on a process pool writing through the shared stores."""

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__(max_workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    def submit(self, stage: "Stage") -> Future:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool.submit(run_stage, *self.stage_args(stage))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# --------------------------------------------------------------------------- #
# dispatch: a leased work queue against a shared cache root
# --------------------------------------------------------------------------- #
class WorkItemCorruptError(RuntimeError):
    """A work-item JSON is unreadable; the worker quarantines it."""


class WorkItemFailed(RuntimeError):
    """A worker acknowledged an item with a ``failed`` receipt."""


def execute_work_item(item_path: str,
                      extra: Optional[Dict[str, Any]] = None) -> str:
    """Run one serialised stage; returns the path of its ``done`` receipt.

    The worker contract of the dispatch backend: everything it needs is in
    the work-item JSON (stage key/kind/params plus the session policy) and
    the shared cache root the policy points at.  Bulk artifacts — captured
    traces, checkpoints, analysis bundles — land in the shared stores; the
    receipt carries only statuses and small JSON-able payloads, so this
    function can run on any host mounting the cache root.

    Idempotence guarantees (what makes lease-expiry retries safe):

    * an already-finalised ``done`` receipt is a **no-op** — the stage is
      not re-run and the first receipt is never re-replaced;
    * a corrupt/truncated item raises :class:`WorkItemCorruptError` (the
      worker quarantines it) instead of ``JSONDecodeError``;
    * a stage exception is captured into a ``failed`` receipt rather than
      crashing the worker, so the submitter sees the failure exactly once.

    ``extra`` (e.g. worker id and attempt count) is merged into the receipt.
    """
    from .queue import load_json, write_json_atomic
    done_path = item_path[:-len(".json")] + ".done.json"
    if os.path.exists(done_path):
        return done_path  # already finalised (e.g. by the lease's previous
        # holder racing our steal); re-running would only repeat the work.
    item = load_json(item_path, kind="dispatch work item")
    if item is None:
        raise WorkItemCorruptError(f"unreadable work item {item_path}")
    done: Dict[str, Any] = dict(extra or {})
    done.update({"stage": item["stage"], "kind": item["kind"]})
    try:
        status, payload = run_stage(item["kind"], item["params"],
                                    item["config"])
    except Exception as exc:  # noqa: BLE001 - reported via the receipt
        done.update({"status": "failed",
                     "error": f"{type(exc).__name__}: {exc}"})
    else:
        done["status"] = status
        if item["kind"] == "simulate":
            done["statuses"] = payload["statuses"]
    if not os.path.exists(done_path):  # first finaliser wins
        write_json_atomic(done_path, done)
    return done_path


@register_executor("dispatch")
class DispatchExecutor(Executor):
    """Enqueue ready stages as leased work items; wait on queue state.

    The multi-host execution backend: the parent writes each ready stage as
    ``<cache>/dispatch/<run>/item-NNNN-<kind>.json`` and then *watches the
    queue* — it never executes stages itself.  Any ``repro worker`` process
    on any host mounting the cache root may claim an item (atomic
    ``claim-NNNN`` creation), heartbeat its lease while executing, and
    acknowledge through an ``item-NNNN.done.json`` receipt; the parent
    recovers the stage's artifacts from the **shared cache root** —
    analysis bundles from the result store, statuses from the receipt —
    never from worker memory.

    With ``workers > 0`` (the default: the session's worker budget) the
    executor spawns that many local worker *processes* scoped to its run
    directory, so ``--executor dispatch`` is self-contained — the embedded
    fleet is a stand-in for remote hosts running the identical claim
    protocol.  ``workers=0`` (or ``Session(dispatch_workers=0)``) enqueues
    only, relying on an external fleet — how ``repro serve`` shares one
    worker pool across many submitters.

    Robustness: a SIGKILLed worker's leases expire and its items are
    re-claimed by the fleet; a corrupt receipt warns and requeues the item;
    a corrupt (quarantined) work item warns and is re-enqueued from the
    stage the parent still holds.  Work items and receipts are left in
    place as an audit trail of the run (``repro clear-cache`` removes
    them).
    """

    name = "dispatch"

    def __init__(self, max_workers: Optional[int] = None,
                 work_dir: Optional[str] = None,
                 workers: Optional[int] = None,
                 lease_seconds: Optional[float] = None,
                 poll_seconds: float = 0.02) -> None:
        super().__init__(max_workers)
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0 (0 = external fleet)")
        self.work_dir = work_dir
        self.workers = workers
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self._run_dir: Optional[str] = None
        self._counter = 0
        self._queue = None
        self._procs: list = []
        self._watch: Dict[str, Tuple["Stage", Future]] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------- #
    def bind(self, session: "Session", plan: Optional["Plan"] = None) -> None:
        super().bind(session, plan)
        if not session.disk_cache_enabled:
            raise ExecutorSetupError(
                "the dispatch executor shares work through the disk cache; "
                "unset REPRO_DISABLE_DISK_CACHE or pick another backend")
        from .queue import WorkQueue
        root = (self.work_dir if self.work_dir is not None
                else str(session.cache_root / "dispatch"))
        os.makedirs(root, exist_ok=True)
        name = (plan.spec.name if plan is not None else "plan")
        safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in name)
        self._run_dir = tempfile.mkdtemp(prefix=f"{safe}-", dir=root)
        self._session = session
        self._queue = WorkQueue(self._run_dir,
                                lease_seconds=self.lease_seconds)
        self._watch = {}
        self._stop = threading.Event()
        self._spawn_workers(self._resolve_worker_count(session))
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-dispatch-monitor",
            daemon=True)
        self._monitor.start()

    def _resolve_worker_count(self, session: "Session") -> int:
        count = self.workers
        if count is None:
            count = getattr(session, "dispatch_workers", None)
        if count is None:
            count = self.max_workers or (os.cpu_count() or 1)
        return int(count)

    def _spawn_workers(self, count: int) -> None:
        import multiprocessing
        from .worker import embedded_worker_main
        for _ in range(count):
            proc = multiprocessing.Process(
                target=embedded_worker_main,
                args=(self._run_dir, self._queue.lease_seconds, 0.05),
                daemon=True)
            proc.start()
            self._procs.append(proc)

    def shutdown(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        with self._lock:
            leftovers = list(self._watch.values())
            self._watch = {}
        for _stage, future in leftovers:
            future.cancel()
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5)
        self._procs = []

    # -- submission ------------------------------------------------------ #
    def _item_payload(self, stage: "Stage") -> Dict[str, Any]:
        kind, params, config = self.stage_args(stage)
        return {"stage": stage.key, "kind": kind, "params": params,
                "config": config}

    def submit(self, stage: "Stage") -> Future:
        if self._run_dir is None:
            raise RuntimeError("DispatchExecutor.submit before bind()")
        from .queue import write_json_atomic
        self._counter += 1
        item_path = os.path.join(
            self._run_dir,
            f"item-{self._counter:04d}-{stage.kind}.json")
        write_json_atomic(item_path, self._item_payload(stage))
        future: Future = Future()
        with self._lock:
            self._watch[item_path] = (stage, future)
        return future

    def _monitor_loop(self) -> None:
        """Resolve futures as receipts land; requeue corrupted hand-offs."""
        import warnings
        from .queue import done_path_for, load_json, write_json_atomic
        while not self._stop.is_set():
            with self._lock:
                watch = list(self._watch.items())
            for item_path, (stage, future) in watch:
                done_path = done_path_for(item_path)
                if done_path.exists():
                    receipt = load_json(done_path, kind="dispatch receipt")
                    if receipt is None:
                        # Warned already; drop receipt + claim so the fleet
                        # re-executes the item (idempotent against stores).
                        self._queue.requeue(item_path, "corrupt receipt")
                        continue
                    with self._lock:
                        self._watch.pop(item_path, None)
                    if receipt.get("status") == "failed":
                        future.set_exception(WorkItemFailed(
                            f"stage {stage.key} failed on worker "
                            f"{receipt.get('worker', '?')}: "
                            f"{receipt.get('error', 'unknown error')}"))
                    else:
                        future.set_result(receipt)
                elif not os.path.exists(item_path):
                    # A worker quarantined the item as corrupt (or the file
                    # vanished); re-enqueue a fresh copy from the stage.
                    warnings.warn(
                        f"re-enqueueing dispatch item for stage "
                        f"{stage.key}: work item vanished without a receipt",
                        RuntimeWarning, stacklevel=2)
                    write_json_atomic(item_path, self._item_payload(stage))
            self._stop.wait(self.poll_seconds)

    def finalize(self, stage: "Stage", value: Any) -> Tuple[str, Any]:
        done = value  # the receipt dict the monitor resolved the future with
        status = done["status"]
        if stage.kind == "simulate":
            return status, {"statuses": done["statuses"],
                            "bundles": self._replay_bundles(stage)}
        return status, None

    def _replay_bundles(self, stage: "Stage") -> Dict[str, Any]:
        """Load the cell's bundles back from the shared result store."""
        from ..experiments.runner import _result_params, clamp_warmup_fraction
        params = stage.params
        store = self._session.result_store
        warmup = clamp_warmup_fraction(params["warmup"])
        bundles = {}
        for context in SYSTEMS.get(params["organisation"]).contexts:
            bundle = store.load("context", _result_params(
                params["workload"], context, params["size"], params["seed"],
                params["scale"], warmup)) if store is not None else None
            if bundle is None:
                raise RuntimeError(
                    f"dispatch worker reported {stage.key} done but its "
                    f"{context} bundle is missing from the shared store")
            bundles[context] = bundle
        return bundles


def choose_executor_name(plan: Optional["Plan"]) -> str:
    """The backend ``executor="auto"`` resolves to for this plan.

    * a plan with at most one backend stage — ``serial``: nothing can
      overlap, so skip pool startup entirely;
    * otherwise, or with no plan in hand — ``process``, the overlapping
      backend for compute-bound simulation.
    """
    if plan is not None and sum(stage.kind in BACKEND_KINDS
                                for stage in plan.stages.values()) <= 1:
        return "serial"
    return "process"


def resolve_executor(policy: Any, session: "Session",
                     plan: Optional["Plan"] = None) -> Executor:
    """The :class:`Executor` instance a policy value denotes.

    ``policy`` may be an executor instance (used as-is), a registered name
    (instantiated with the session's worker budget), ``None`` (the
    session's own ``executor`` policy, default ``serial``), or ``"auto"``
    (serial or process for this ``plan``, see :func:`choose_executor_name`).
    """
    if policy is None:
        policy = getattr(session, "executor", None) or "serial"
    if isinstance(policy, Executor):
        return policy
    if policy == "auto":
        policy = choose_executor_name(plan)
    factory = EXECUTORS.get(policy)
    return factory(max_workers=session.max_workers)
