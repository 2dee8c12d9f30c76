"""Stage spans: one timed record per executed stage, wherever it runs.

A :class:`Span` measures one unit of work — wall time via
``time.perf_counter``, CPU time via ``time.thread_time`` (per-thread, so
the scheduler's own threads don't bleed into a stage), peak
RSS via ``resource.getrusage`` (Linux: KiB; absent on platforms without the
``resource`` module), and the delta of every registered store counter
(trace hits/misses, checkpoint saves/loads, generation runs) between entry
and exit.  Spans are plain data once finished: ``to_record()`` yields the
JSON-safe dict persisted to the telemetry store's ``spans.jsonl``.

Two origins produce spans for the same plan:

* ``origin="scheduler"`` — emitted by :class:`SpanRecorder` from the
  ``PlanEvents`` hooks in ``repro.api.plan``.  Exists for *every* stage
  under *every* backend; for backend-executed stages it measures
  submission-to-settle latency (queueing included).
* ``origin="worker"`` — emitted inside ``run_stage`` around the actual
  stage function, in whichever process executes it: the serial scheduler
  itself, a process pool worker, an embedded dispatch worker, or a
  remote ``repro worker`` daemon.  This is the true compute cost.

Both origins exist under every backend, so the set of ``(stage, origin)``
keys a run produces is identical across serial and dispatch — the
acceptance criterion for ``repro stats``.

``SpanRecorder`` deliberately does *not* subclass ``PlanEvents``: it
duck-types the three hooks so this package never imports ``repro.api``
(which imports the stores, which import this package's registry — keeping
the dependency arrow one-way).
"""

from __future__ import annotations

import cProfile
import contextlib
import os
import threading
import time
from typing import Any, Dict, Iterator, Optional

from repro.obs.metrics import REGISTRY

try:  # ru_maxrss is POSIX-only; spans degrade to rss=0 elsewhere
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]


def peak_rss_kib() -> int:
    """Peak resident set size of this process in KiB (0 if unavailable)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if os.uname().sysname == "Darwin":  # pragma: no cover - mac only
        return int(usage // 1024)
    return int(usage)


def _cpu_time() -> float:
    """CPU seconds consumed by the *current thread* (falls back to process)."""
    try:
        return time.thread_time()
    except AttributeError:  # pragma: no cover - very old platforms
        return time.process_time()


class Span:
    """One timed unit of work.

    Usable as a context manager::

        with Span("simulate", params, stage="simulate:apache/split/64/0.25",
                  origin="worker") as span:
            run(...)
        record = span.to_record()

    or via the explicit ``begin()`` / ``finish(status)`` pair when entry and
    exit happen in different callbacks (the :class:`SpanRecorder` case).
    Measurements are *deltas* relative to ``begin()``, except ``rss_peak_kib``
    which is the absolute process high-water mark at ``finish()`` — a peak
    cannot be diffed.
    """

    def __init__(self, kind: str, params: Optional[Dict[str, Any]] = None, *,
                 stage: Optional[str] = None, origin: str = "scheduler") -> None:
        self.kind = kind
        self.params = dict(params or {})
        self.stage = stage if stage is not None else kind
        self.origin = origin
        self.status = "pending"
        self.error: Optional[str] = None
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_peak_kib = 0
        self.counter_deltas: Dict[str, float] = {}
        self.started_unix: Optional[float] = None
        self._wall0: Optional[float] = None
        self._cpu0 = 0.0
        self._counters0: Dict[str, float] = {}

    # -- lifecycle -------------------------------------------------------- #
    def begin(self) -> "Span":
        self.started_unix = time.time()
        self._counters0 = REGISTRY.counters_snapshot()
        self._cpu0 = _cpu_time()
        self._wall0 = time.perf_counter()
        return self

    def finish(self, status: str = "done", error: Optional[BaseException] = None) -> "Span":
        if self._wall0 is None:
            raise RuntimeError("Span.finish() before begin()")
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = _cpu_time() - self._cpu0
        self.rss_peak_kib = peak_rss_kib()
        after = REGISTRY.counters_snapshot()
        self.counter_deltas = {
            name: value - self._counters0.get(name, 0.0)
            for name, value in after.items()
            if value != self._counters0.get(name, 0.0)
        }
        self.status = status
        if error is not None:
            self.error = f"{type(error).__name__}: {error}"
        REGISTRY.histogram(f"stage.{self.kind}.wall_s").observe(self.wall_s)
        REGISTRY.histogram(f"stage.{self.kind}.cpu_s").observe(self.cpu_s)
        REGISTRY.counter(f"stage.{self.kind}.{status}").inc()
        return self

    def __enter__(self) -> "Span":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish("error" if exc is not None else "done", error=exc)

    # -- serialisation ---------------------------------------------------- #
    def to_record(self) -> Dict[str, Any]:
        """The JSON-safe dict persisted to ``spans.jsonl``."""
        record: Dict[str, Any] = {
            "stage": self.stage,
            "kind": self.kind,
            "origin": self.origin,
            "status": self.status,
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
            "rss_peak_kib": self.rss_peak_kib,
            "pid": os.getpid(),
        }
        if self.started_unix is not None:
            record["started_unix"] = round(self.started_unix, 6)
        if self.counter_deltas:
            record["counter_deltas"] = {
                k: round(v, 9) for k, v in sorted(self.counter_deltas.items())
            }
        if self.error is not None:
            record["error"] = self.error
        if self.params:
            record["params"] = _json_safe(self.params)
        return record


def _json_safe(value: Any) -> Any:
    """Coerce params to JSON-encodable structures (best effort)."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class SpanRecorder:
    """PlanEvents-compatible hook set that turns stage events into spans.

    Duck-types ``on_stage_start`` / ``on_stage_finish`` / ``on_stage_error``
    (plus the no-op ``on_plan_start``) so ``execute_plan`` can compose it
    with user events.  Each finished span is handed to ``sink`` — typically
    ``TelemetryStore.append_span(run_id, ...)`` — as a record dict.

    A stage skipped because its dependency failed gets ``on_stage_finish``
    with *no* prior ``on_stage_start``; the pop-with-default below turns
    that into a zero-duration ``skipped`` span rather than a KeyError.
    """

    def __init__(self, sink=None) -> None:
        self._sink = sink
        self._open: Dict[str, Span] = {}
        self._lock = threading.Lock()
        self.records: list = []

    def on_plan_start(self, plan: Any, run_id: str) -> None:  # noqa: D401
        pass

    def on_stage_start(self, stage: Any) -> None:
        span = Span(stage.kind, getattr(stage, "params", None),
                    stage=stage.key, origin="scheduler").begin()
        with self._lock:
            self._open[stage.key] = span

    def on_stage_finish(self, stage: Any, status: str) -> None:
        self._settle(stage, status, None)

    def on_stage_error(self, stage: Any, error: BaseException) -> None:
        self._settle(stage, "failed", error)

    def _settle(self, stage: Any, status: str, error: Optional[BaseException]) -> None:
        with self._lock:
            span = self._open.pop(stage.key, None)
        if span is None:  # skipped dependents never started
            span = Span(stage.kind, getattr(stage, "params", None),
                        stage=stage.key, origin="scheduler").begin()
        span.finish(status, error=error)
        record = span.to_record()
        self.records.append(record)
        if self._sink is not None:
            self._sink(record)


@contextlib.contextmanager
def maybe_profile(path: Optional[Any]) -> Iterator[None]:
    """cProfile the enclosed block into ``path`` (``None`` = do nothing).

    Used by the ``--profile`` flag: each profiled stage drops one ``.prof``
    file (loadable with ``pstats`` or ``snakeviz``) into the run's telemetry
    directory.  Dump failures are swallowed — profiling must never fail the
    stage it observes.
    """
    if path is None:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        try:
            profiler.dump_stats(str(path))
        except OSError as exc:  # pragma: no cover - disk full etc.
            import warnings

            warnings.warn(f"failed to write profile {path}: {exc}",
                          RuntimeWarning, stacklevel=2)
