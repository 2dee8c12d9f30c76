"""Declarative experiment API: the :class:`Session` facade, plugin
registries, :class:`ExperimentSpec` plans, and their stage DAGs.

This package is the composition layer over the rest of the library:

* :mod:`~repro.api.registry` — decorator-based plugin registries for
  workloads, system organisations, prefetchers, and analyses; every axis of
  the evaluation grid is extensible without editing core.
* :mod:`~repro.api.session` — :class:`Session`, owning the cache root, the
  three on-disk stores, and the parallelism/pipeline policy; the historical
  module-level store singletons delegate to the process default session.
* :mod:`~repro.api.spec` — :class:`ExperimentSpec`, a declarative
  workload x organisation x scale x warmup grid plus requested prefetchers
  and analyses, loadable from TOML or a dict.
* :mod:`~repro.api.plan` — :func:`build_plan` resolving a spec into an
  explicit capture -> simulate -> analyze -> render DAG, and
  :func:`execute_plan`, the event-driven scheduler submitting each stage to
  an execution backend the moment its dependencies land (with replay and
  checkpoint resume per cell).  It is the one multi-cell orchestration
  path: :meth:`Session.execute` and :meth:`Session.suite` both run through
  it.
* :mod:`~repro.api.executor` — the :class:`Executor` protocol plus the three
  built-in backends (``serial``/``process``/``dispatch``); new backends
  plug in via :func:`register_executor`.
* :mod:`~repro.api.queue` / :mod:`~repro.api.worker` /
  :mod:`~repro.api.serve` — the dispatch work-queue service:
  :class:`WorkQueue` (atomic claim/lease/receipt files under
  ``<cache>/dispatch``), :class:`Worker` (the ``repro worker`` daemon with
  heartbeat renewal and expired-lease stealing), and the ``repro serve``
  HTTP front end (:func:`create_server`) with its :func:`submit_spec`
  client.

Quick start::

    from repro.api import ExperimentSpec, Session

    session = Session(max_workers=4, executor="process")
    spec = ExperimentSpec.from_toml("experiment.toml")
    outcome = session.execute(spec)
    print(outcome.render("figure2"))
"""

from .executor import (DispatchExecutor, EXECUTOR_NAMES, Executor,
                       ExecutorSetupError, ProcessExecutor, SerialExecutor,
                       WorkItemCorruptError, WorkItemFailed,
                       execute_work_item, resolve_executor)
from .plan import (EventLog, Plan, PlanEvents, PlanExecutionError, PlanResult,
                   Stage, build_plan, execute_plan)
from .queue import Lease, WorkQueue
from .serve import ReproServer, create_server, submit_spec
from .worker import Worker, WorkerStats
from .registry import (ANALYSES, EXECUTORS, PREFETCHERS, Registry, SYSTEMS,
                       WORKLOADS, register_analysis, register_executor,
                       register_prefetcher, register_system,
                       register_workload)
from .session import Session, get_default_session, set_default_session
from .spec import Cell, ExperimentSpec, SIZE_NAMES, SpecError, spec_contexts

__all__ = [
    "ANALYSES", "Cell", "DispatchExecutor", "EXECUTOR_NAMES", "EXECUTORS",
    "EventLog", "ExperimentSpec", "Executor", "ExecutorSetupError",
    "Lease", "PREFETCHERS", "Plan",
    "PlanEvents", "PlanExecutionError", "PlanResult", "ProcessExecutor",
    "Registry", "ReproServer", "SIZE_NAMES", "SYSTEMS", "SerialExecutor",
    "Session", "SpecError", "Stage", "WORKLOADS",
    "WorkItemCorruptError", "WorkItemFailed", "WorkQueue", "Worker",
    "WorkerStats", "build_plan", "create_server",
    "execute_plan", "execute_work_item", "get_default_session",
    "register_analysis",
    "register_executor", "register_prefetcher", "register_system",
    "register_workload", "resolve_executor", "set_default_session",
    "spec_contexts", "submit_spec",
]
