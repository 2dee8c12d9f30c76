"""Outside-in layer tracer: spans recorded around the package's public calls.

The benchmark never edits ``src/``.  Instead :func:`install` replaces public
functions and methods at each module boundary with wrappers that record one
span per call (name, start, end, parent) and the work counts that belong to
that boundary; :meth:`Tracer.uninstall` puts the originals back once the
plan is done, so the benchmark's own checks afterwards are not traced.

A span's *self time* is its duration minus the time its wrapped children
took.  A layer's self time is the sum over its span names (the part of the
name before the first dot).  Spans are kept in memory and handed out by
:meth:`Tracer.records`; the benchmark writes them once, when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List

#: One layer per ``repro`` package, in pipeline order.
LAYERS = ("workloads", "trace", "mem", "checkpoint", "core", "prefetch",
          "experiments", "api", "obs")

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "index")

    def __init__(self, name: str, start: float, index: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index


class Tracer:
    """Self-time accounting over a stack of wrapped calls."""

    def __init__(self) -> None:
        #: span name -> summed self time.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: work counts recorded at the boundaries (``<name>.calls`` too).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Sums split out of one span name, e.g. protocol time per system.
        self.split_s: Dict[str, float] = defaultdict(float)
        #: Per-call durations of span names wrapped with ``keep_durations``.
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: (name, start, end, parent id, id) per finished span.
        self.spans: List[tuple] = []
        self._stack: List[_Frame] = []
        self._patches: List[tuple] = []
        self._next_index = 0

    # ------------------------------------------------------------------ #
    # span accounting
    # ------------------------------------------------------------------ #
    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, _clock(), self._next_index)
        self._next_index += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the innermost open span); returns its self time."""
        end = _clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order "
                               f"(innermost open span is {popped.name})")
        duration = end - frame.start
        own = duration - frame.child
        self.self_s[frame.name] += own
        self.counts[frame.name + ".calls"] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        self.spans.append((frame.name, frame.start, end,
                           parent.index if parent is not None else None,
                           frame.index))
        return own

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is currently open."""
        return any(frame.name == name for frame in self._stack)

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, fn: Callable, name: str,
             keep_durations: bool = False) -> Callable:
        """``fn`` inside a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
                if keep_durations:
                    tracer.durations[name].append(_clock() - frame.start)

        return traced

    def timed_items(self, items: Iterable[Any], name: str,
                    count: str) -> Iterator[Any]:
        """Yield ``items`` unchanged, charging each ``next`` to ``name``.

        Used for the generator fed to a capture: one span per access would
        cost more than the generator itself, so the time is summed in
        place and handed to the enclosing span as child time on close.
        """
        pull = iter(items).__next__
        seconds = 0.0
        n = 0
        try:
            while True:
                t0 = _clock()
                try:
                    item = pull()
                except StopIteration:
                    seconds += _clock() - t0
                    return
                seconds += _clock() - t0
                n += 1
                yield item
        finally:
            self.self_s[name] += seconds
            self.counts[count] += n
            if self._stack:
                self._stack[-1].child += seconds

    def spanned_items(self, items: Iterable[Any], name: str) -> Iterator[Any]:
        """Yield ``items`` inside one span open from first to last ``next``."""
        frame = self.enter(name)
        try:
            yield from items
        finally:
            self.exit(frame)

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, wrapper)

    def patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind ``fn`` to ``wrapper`` in every ``repro`` module holding it.

        Modules import functions by name (``from ..core.streams import
        analyze_trace``), so the defining module and every importer must
        all be rebound for the boundary to be seen from each call site.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def patch_instance(self, obj: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((obj, attr, None))
        setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------------ #
    def records(self) -> List[Dict[str, Any]]:
        """Every finished span as a JSON-able record, in finishing order."""
        return [{"name": name, "start": start, "end": end,
                 "parent": parent, "id": index}
                for name, start, end, parent, index in self.spans]


# --------------------------------------------------------------------------- #
# the module boundaries this benchmark observes
# --------------------------------------------------------------------------- #
def install(t: Tracer) -> None:
    """Wrap the public calls at each layer boundary of the ``repro`` package.

    Every module is imported first, so :meth:`Tracer.patch_function` sees
    all importers of a wrapped function.
    """
    import repro.experiments  # noqa: F401  (imports the runner and analyses)
    from repro.api import executor as executor_mod
    from repro.api import plan as plan_mod
    from repro.api.registry import ANALYSES
    from repro.checkpoint import prefix as prefix_mod
    from repro.checkpoint.delta import DeltaChainWriter
    from repro.checkpoint.store import CheckpointStore
    from repro.core import (classification, lengths, modules, reuse,
                            streams, stride)
    from repro.experiments.store import ResultStore
    from repro.mem.multichip import MultiChipSystem
    from repro.mem.singlechip import SingleChipSystem
    from repro.mem.stream import StreamingSystemMixin
    from repro.obs.span import Span, SpanRecorder
    from repro.obs.store import TelemetryStore
    from repro.prefetch import base as prefetch_base
    from repro.trace import epoch as epoch_mod
    from repro.trace.replay import TraceReader
    from repro.trace.store import TraceStore

    # workloads + trace: the generator feeding a capture, and the capture.
    capture = TraceStore.capture

    def traced_capture(self, accesses, params, *args, **kwargs):
        generated = t.timed_items(accesses, "workloads.generate",
                                  "workloads.accesses")
        return t.spanned_items(capture(self, generated, params, *args,
                                       **kwargs), "trace.encode")

    t.patch_method(TraceStore, "capture", traced_capture)
    t.patch_method(TraceStore, "open", t.wrap(TraceStore.open, "trace.open"))
    t.patch_method(TraceReader, "epoch",
                   t.wrap(TraceReader.epoch, "trace.decode"))
    t.patch_function(epoch_mod.summarize_trace,
                     t.wrap(epoch_mod.summarize_trace, "trace.summarize"))

    # mem: protocol simulation, and the simulated statistics it produced.
    run_chunks = StreamingSystemMixin.run_chunks

    def traced_run_chunks(self, chunks, *args, **kwargs):
        seen = [0]

        def counted():
            for chunk in chunks:
                seen[0] += len(chunk)
                yield chunk

        frame = t.enter("mem.protocol")
        try:
            result = run_chunks(self, counted(), *args, **kwargs)
        finally:
            own = t.exit(frame)
        multi = isinstance(self, MultiChipSystem)
        kind = "multichip" if multi else "singlechip"
        t.split_s[f"mem.{kind}.protocol"] += own
        t.counts[f"mem.{kind}.accesses"] += seen[0]
        t.counts["mem.accesses"] += seen[0]
        if not t.inside("checkpoint.prefix"):
            # A shared prefix is not a cell: its state reappears in the
            # cells that warm-start from it, so only cells are counted.
            l2s = self.l2s if multi else [self.l2]
            t.counts["mem.l1_misses"] += sum(c.stats()["misses"]
                                             for c in self.l1s)
            t.counts["mem.l2_misses"] += sum(c.stats()["misses"]
                                             for c in l2s)
            t.counts["mem.evictions"] += sum(c.stats()["evictions"]
                                             for c in [*self.l1s, *l2s])
            t.counts["mem.offchip_misses"] += len(result if multi
                                                  else result[0])
        return result

    t.patch_method(StreamingSystemMixin, "run_chunks", traced_run_chunks)

    # checkpoint: snapshots, chain writes, restores, prefix publishing.
    for system_cls in (MultiChipSystem, SingleChipSystem):
        t.patch_method(system_cls, "snapshot",
                       t.wrap(system_cls.snapshot, "checkpoint.snapshot"))
        t.patch_method(system_cls, "restore",
                       t.wrap(system_cls.restore, "checkpoint.restore"))
    t.patch_method(DeltaChainWriter, "save",
                   t.wrap(DeltaChainWriter.save, "checkpoint.write"))
    for attr in ("latest", "load", "epochs"):
        t.patch_method(CheckpointStore, attr,
                       t.wrap(getattr(CheckpointStore, attr),
                              "checkpoint.restore"))
    t.patch_function(prefix_mod.publish_prefix,
                     t.wrap(prefix_mod.publish_prefix, "checkpoint.prefix"))

    # core: SEQUITUR and the per-bundle analyses.
    for fn, name in ((streams.analyze_trace, "core.sequitur"),
                     (classification.classify_offchip, "core.classify"),
                     (classification.classify_intrachip, "core.classify"),
                     (modules.module_breakdown, "core.modules"),
                     (stride.stride_stream_breakdown, "core.stride"),
                     (lengths.length_distribution, "core.lengths"),
                     (reuse.reuse_distance_distribution, "core.reuse")):
        t.patch_function(fn, t.wrap(fn, name))

    # prefetch: coverage evaluation.
    t.patch_function(prefetch_base.evaluate_coverage,
                     t.wrap(prefetch_base.evaluate_coverage,
                            "prefetch.coverage"))

    # experiments: the result store and the render adapters.
    t.patch_method(ResultStore, "save",
                   t.wrap(ResultStore.save, "experiments.store_save"))
    t.patch_method(ResultStore, "load",
                   t.wrap(ResultStore.load, "experiments.store_load"))
    get_analysis = ANALYSES.get
    t.patch_instance(ANALYSES, "get", lambda name: t.wrap(
        get_analysis(name), "experiments.render"))

    # api: planning, the scheduler, and the per-stage entry point.
    t.patch_function(plan_mod.build_plan,
                     t.wrap(plan_mod.build_plan, "api.plan"))
    t.patch_function(plan_mod.execute_plan,
                     t.wrap(plan_mod.execute_plan, "api.schedule"))
    run_stage = executor_mod.run_stage
    other_stage = t.wrap(run_stage, "api.stage")
    simulate_stage = t.wrap(run_stage, "api.simulate_stage",
                            keep_durations=True)
    t.patch_function(run_stage, lambda kind, params, config: (
        simulate_stage if kind == "simulate" else other_stage)(
            kind, params, config))

    # obs: run telemetry.
    for attr in ("create_run", "update_manifest", "append_span",
                 "observed_costs"):
        t.patch_method(TelemetryStore, attr,
                       t.wrap(getattr(TelemetryStore, attr),
                              "obs.telemetry"))
    for attr in ("on_stage_start", "on_stage_finish", "on_stage_error"):
        t.patch_method(SpanRecorder, attr,
                       t.wrap(getattr(SpanRecorder, attr), "obs.telemetry"))
    for attr in ("begin", "finish", "to_record"):
        t.patch_method(Span, attr,
                       t.wrap(getattr(Span, attr), "obs.telemetry"))
