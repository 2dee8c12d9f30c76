"""Explicit stage DAGs resolved from declarative specs.

:func:`build_plan` turns an :class:`~repro.api.spec.ExperimentSpec` into a
:class:`Plan` — an ordered DAG of :class:`Stage` objects covering the whole
pipeline for every grid cell::

    capture:<workload>@<n_cpus>cpu            one per distinct access stream
      -> prefix:<workload>/<organisation>@scale        per warm-up group
      -> simulate:<workload>/<organisation>@scale,warmup   one per cell
        -> analyze:<workload>/<context>@scale,warmup       one per context
          -> prefetch:<name>:<cell context>                per prefetcher
          -> render:<analysis>                             per analysis

The DAG is *explicit* — ``repro spec plan`` prints it (``--format json|dot``
exports it for external schedulers), tests assert on it — and execution is
**event-driven**: :func:`execute_plan` tracks stage dependencies, hands each
stage to the session's :class:`~repro.api.executor.Executor` backend the
moment its dependencies land, and fires :class:`PlanEvents` lifecycle
callbacks (``on_stage_start``/``finish``/``error``) as futures settle.  With
an overlapping backend (``process``/``dispatch``) independent
(scale, warmup) combos run concurrently and render stages start as soon as
their analyze dependencies land, instead of waiting for the whole grid.
Replay, checkpoint resume, and the result store are engaged per cell
automatically via the session policy; a failed stage cancels (never runs)
its transitive dependents while independent branches finish.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.span import SpanRecorder, maybe_profile
from ..obs.store import iso_utc
from .registry import ANALYSES, PREFETCHERS, SYSTEMS
from .spec import ExperimentSpec

#: Stage kinds in pipeline order.
STAGE_KINDS = ("capture", "prefix", "simulate", "analyze", "prefetch",
               "render")


@dataclass(frozen=True)
class Stage:
    """One node of the pipeline DAG."""

    key: str
    kind: str
    params: Dict[str, Any]
    deps: Tuple[str, ...] = ()

    def describe(self) -> str:
        deps = f"  <- {', '.join(self.deps)}" if self.deps else ""
        return f"{self.key}{deps}"


class Plan:
    """An ordered, dependency-checked DAG of pipeline stages."""

    def __init__(self, spec: ExperimentSpec) -> None:
        self.spec = spec
        self.stages: Dict[str, Stage] = {}

    # ------------------------------------------------------------------ #
    def add(self, stage: Stage) -> Stage:
        if stage.key in self.stages:
            raise ValueError(f"duplicate stage key {stage.key!r}")
        for dep in stage.deps:
            if dep not in self.stages:
                raise ValueError(
                    f"stage {stage.key!r} depends on unknown/later stage "
                    f"{dep!r} (stages must be added in topological order)")
        self.stages[stage.key] = stage
        return stage

    def stage(self, key: str) -> Stage:
        return self.stages[key]

    def order(self) -> List[Stage]:
        """Stages in execution (topological) order."""
        return list(self.stages.values())

    def by_kind(self, kind: str) -> List[Stage]:
        return [s for s in self.stages.values() if s.kind == kind]

    def __len__(self) -> int:
        return len(self.stages)

    def describe(self, costs: Optional[Dict[str, Dict[str, float]]] = None) -> str:
        """The plan as text; ``costs`` (kind -> observed mean cost, from
        :meth:`repro.obs.TelemetryStore.observed_costs`) annotates each
        stage-kind header with mean wall/cpu seconds from past runs."""
        lines = [self.spec.describe(),
                 f"plan: {len(self.stages)} stages ("
                 + ", ".join(f"{len(self.by_kind(kind))} {kind}"
                             for kind in STAGE_KINDS
                             if self.by_kind(kind)) + ")"]
        for kind in STAGE_KINDS:
            stages = self.by_kind(kind)
            if not stages:
                continue
            header = f"[{kind}]"
            cost = (costs or {}).get(kind)
            if cost:
                header += (f"  ~{cost['mean_wall_s']:.3f}s wall / "
                           f"{cost['mean_cpu_s']:.3f}s cpu per stage "
                           f"(observed over {cost['count']})")
            lines.append(header)
            lines.extend(f"  {stage.describe()}" for stage in stages)
        if self.by_kind("render"):
            lines.append(
                "note: some analyses have fixed requirements beyond the "
                "grid (figure1 spans both organisations; tables 3-5 and "
                "the ablations use the paper's workload sets) and will "
                "simulate those extra cells serially when rendered.")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # exports for external schedulers
    # ------------------------------------------------------------------ #
    def to_json(self, indent: int = 2) -> str:
        """The DAG as JSON: spec, then stages with kind/params/deps."""
        import json
        return json.dumps(
            {"spec": self.spec.resolved().to_dict(),
             "stages": [{"key": stage.key, "kind": stage.kind,
                         "params": dict(stage.params),
                         "deps": list(stage.deps)}
                        for stage in self.order()]},
            indent=indent)

    def to_dot(self) -> str:
        """The DAG in Graphviz ``dot`` form (one node per stage)."""
        colors = {"capture": "lightblue",
                  "prefix": "lightgoldenrod", "simulate": "khaki",
                  "analyze": "palegreen", "prefetch": "plum",
                  "render": "lightsalmon"}
        lines = [f'digraph "{self.spec.name}" {{', "  rankdir=LR;",
                 '  node [shape=box, style=filled, fontname="monospace"];']
        for stage in self.order():
            fill = colors.get(stage.kind, "white")
            lines.append(f'  "{stage.key}" [fillcolor={fill}];')
        for stage in self.order():
            lines.extend(f'  "{dep}" -> "{stage.key}";'
                         for dep in stage.deps)
        lines.append("}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def run(self, session, executor=None, events: "PlanEvents" = None,
            raise_errors: bool = True) -> "PlanResult":
        """Execute every stage through ``session``; see :func:`execute_plan`."""
        return execute_plan(self, session, executor=executor, events=events,
                            raise_errors=raise_errors)


class PlanEvents:
    """Lifecycle callbacks the scheduler fires as stages move.

    Subclass and override what you care about (all default to no-ops), or
    use :class:`EventLog` to record the sequence for assertions.  Callbacks
    run in the scheduler thread, between future waits — keep them cheap.
    """

    def on_plan_start(self, plan: "Plan", run_id: Optional[str]) -> None:
        """Execution is about to begin; ``run_id`` names the telemetry run
        (``None`` when telemetry is disabled)."""

    def on_stage_start(self, stage: Stage) -> None:
        """``stage`` was handed to the backend (or began running inline)."""

    def on_stage_finish(self, stage: Stage, status: str) -> None:
        """``stage`` settled with ``status`` (ran/cached/skipped)."""

    def on_stage_error(self, stage: Stage, error: BaseException) -> None:
        """``stage`` raised; its transitive dependents will be skipped."""


class _ComposedEvents(PlanEvents):
    """Fan callbacks out to several receivers, telemetry recorder first.

    The recorder leads so span clocks start before (and stop after) any
    user-callback work, keeping user hooks out of the measured window.
    Receivers are duck-typed: ``None`` entries are dropped and a receiver
    missing ``on_plan_start`` (pre-telemetry ``PlanEvents`` lookalikes) is
    simply skipped for that hook.
    """

    def __init__(self, *receivers: Optional[PlanEvents]) -> None:
        self._receivers = [r for r in receivers if r is not None]

    def on_plan_start(self, plan: "Plan", run_id: Optional[str]) -> None:
        for receiver in self._receivers:
            hook = getattr(receiver, "on_plan_start", None)
            if hook is not None:
                hook(plan, run_id)

    def on_stage_start(self, stage: Stage) -> None:
        for receiver in self._receivers:
            receiver.on_stage_start(stage)

    def on_stage_finish(self, stage: Stage, status: str) -> None:
        for receiver in self._receivers:
            receiver.on_stage_finish(stage, status)

    def on_stage_error(self, stage: Stage, error: BaseException) -> None:
        for receiver in self._receivers:
            receiver.on_stage_error(stage, error)


class EventLog(PlanEvents):
    """Record ``("start"|"finish"|"error", stage_key, detail)`` tuples."""

    def __init__(self) -> None:
        self.events: List[Tuple[str, str, Any]] = []

    def on_stage_start(self, stage: Stage) -> None:
        self.events.append(("start", stage.key, None))

    def on_stage_finish(self, stage: Stage, status: str) -> None:
        self.events.append(("finish", stage.key, status))

    def on_stage_error(self, stage: Stage, error: BaseException) -> None:
        self.events.append(("error", stage.key, error))

    def index(self, event: str, key: str) -> int:
        """Position of the first ``(event, key, *)`` entry (KeyError if absent)."""
        for position, entry in enumerate(self.events):
            if entry[0] == event and entry[1] == key:
                return position
        raise KeyError(f"no {event!r} event for stage {key!r}")


class PlanExecutionError(RuntimeError):
    """One or more stages failed; ``result`` holds the partial outcome.

    Independent branches of the DAG still completed — their bundles and
    artifacts are in ``result`` — while everything downstream of a failed
    stage is marked ``skipped`` and was never run.
    """

    def __init__(self, result: "PlanResult") -> None:
        self.result = result
        failed = sorted(result.errors)
        first = result.errors[failed[0]]
        super().__init__(
            f"{len(failed)} stage(s) failed "
            f"({', '.join(failed)}); first error: {first!r}")


@dataclass
class PlanResult:
    """Everything a plan execution produced, keyed like the DAG."""

    spec: ExperimentSpec
    plan: Plan
    #: (workload, context, scale, warmup) -> ContextResult bundle.
    bundles: Dict[Tuple[str, str, int, float], Any] = field(default_factory=dict)
    #: (prefetcher, workload, context, scale, warmup) -> CoverageResult.
    coverage: Dict[Tuple[str, str, str, int, float], Any] = field(
        default_factory=dict)
    #: render-stage key -> artifact object (``.render()`` or ``str``).
    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: stage key -> "ran" | "cached" | "skipped" | "failed".
    statuses: Dict[str, str] = field(default_factory=dict)
    #: stage key -> the exception a failed stage raised.
    errors: Dict[str, BaseException] = field(default_factory=dict)
    #: Telemetry run id (directory under ``<cache>/telemetry/``), or ``None``
    #: when telemetry was disabled for this execution.
    run_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when no stage failed (skipped-by-policy stages are fine)."""
        return not self.errors

    def artifact(self, name: str) -> Any:
        """The artifact for one analysis name (any scale/warmup suffix).

        Raises ``KeyError`` listing the available artifact names on a miss,
        and listing the matching candidates when a bare analysis name is
        ambiguous across several (scale, warmup) combos.
        """
        if name in self.artifacts:
            return self.artifacts[name]
        matches = sorted(key for key in self.artifacts
                         if key.startswith(f"{name}@"))
        if not matches:
            raise KeyError(f"no artifact {name!r}; available: "
                           f"{', '.join(sorted(self.artifacts)) or '(none)'}")
        if len(matches) > 1:
            raise KeyError(f"ambiguous artifact {name!r}; matches: "
                           f"{', '.join(matches)} (pass a full name)")
        return self.artifacts[matches[0]]

    def render(self, name: str) -> str:
        artifact = self.artifact(name)
        return artifact.render() if hasattr(artifact, "render") else str(artifact)

    def render_all(self) -> Dict[str, str]:
        """Every artifact rendered, in plan order.

        The artifacts dict fills in stage *completion* order, which an
        overlapping backend makes nondeterministic; rendering follows the
        plan's render-stage order so output is stable run to run.
        """
        ordered = [stage.key[len("render:"):]
                   for stage in self.plan.by_kind("render")]
        keys = [key for key in ordered if key in self.artifacts]
        keys += [key for key in self.artifacts if key not in ordered]
        rendered = {}
        for key in keys:
            value = self.artifacts[key]
            rendered[key] = (value.render() if hasattr(value, "render")
                             else str(value))
        return rendered


# --------------------------------------------------------------------------- #
# plan construction
# --------------------------------------------------------------------------- #
def _combo_suffix(spec: ExperimentSpec, scale: int, warmup: float) -> str:
    """Disambiguating suffix for per-(scale, warmup) stage keys."""
    if len(spec.scales) * len(spec.warmups) == 1:
        return ""
    return f"@scale{scale}-warmup{warmup:g}"


def build_plan(spec: ExperimentSpec, warm_starts: bool = True) -> Plan:
    """Resolve ``spec`` into the explicit stage DAG described above.

    With ``warm_starts`` (the default), every (workload, organisation,
    scale) group whose cells span at least two distinct positive warm-up
    fractions gains one ``prefix`` stage: it simulates the group's shared
    prefix — the epochs every member passes through with recording off —
    exactly once and publishes the boundary checkpoint chain under a
    warmup-free key (:mod:`repro.checkpoint.prefix`).  Member simulate
    stages depend on it and warm-start from the published chain instead of
    recomputing the prefix, on every executor backend.

    A group is planned from its warm-up fractions alone.  Whether its
    smallest warm-up reaches past the trace's first epoch boundary depends
    on the captured trace's epoch segments, which do not exist at plan
    time, so a prefix stage may still report ``skipped`` at run time: at
    ``small``, OLTP's groups do, because the smallest warm-up ends inside
    the first epoch.
    """
    from ..experiments.runner import clamp_warmup_fraction
    spec = spec.resolved()
    spec.ensure_valid()
    plan = Plan(spec)

    # One capture per distinct access stream.  A stream is keyed by
    # (workload, n_cpus): both organisations of one workload share a stream
    # only when their CPU counts coincide.
    capture_keys: Dict[Tuple[str, int], str] = {}
    for workload in spec.workloads:
        for organisation in spec.organisations:
            n_cpus = SYSTEMS.get(organisation).n_cpus
            if (workload, n_cpus) in capture_keys:
                continue
            capture_key = f"capture:{workload}@{n_cpus}cpu"
            plan.add(Stage(capture_key, "capture",
                           {"workload": workload, "n_cpus": n_cpus,
                            "seed": spec.seed, "size": spec.size}))
            capture_keys[(workload, n_cpus)] = capture_key

    # One prefix stage per (workload, organisation, scale) group whose
    # cells span several positive warm-ups: simulate the shared prefix
    # once, publish its boundary chain under the warmup-free prefix key,
    # and let every member cell warm-start from it.
    prefix_keys: Dict[Tuple[str, str, int], str] = {}
    if warm_starts:
        from ..checkpoint.prefix import shared_prefix_groups
        grid = [(cell.workload, cell.organisation, cell.scale,
                 clamp_warmup_fraction(cell.warmup))
                for cell in spec.cells()]
        for (workload, organisation, scale), warmup in \
                shared_prefix_groups(grid):
            capture_key = capture_keys[
                (workload, SYSTEMS.get(organisation).n_cpus)]
            key = f"prefix:{workload}/{organisation}@scale{scale}"
            plan.add(Stage(key, "prefix",
                           {"workload": workload,
                            "organisation": organisation, "scale": scale,
                            "warmup": warmup, "size": spec.size,
                            "seed": spec.seed},
                           deps=(capture_key,)))
            prefix_keys[(workload, organisation, scale)] = key

    # One simulate per grid cell; one analyze per cell context.
    analyze_keys: Dict[Tuple[int, float], List[str]] = {}
    for cell in spec.cells():
        system = SYSTEMS.get(cell.organisation)
        capture_key = capture_keys[(cell.workload, system.n_cpus)]
        prefix_key = prefix_keys.get((cell.workload, cell.organisation,
                                      cell.scale))
        sim_key = (f"simulate:{cell.workload}/{cell.organisation}"
                   f"@scale{cell.scale}-warmup{cell.warmup:g}")
        plan.add(Stage(sim_key, "simulate",
                       {"workload": cell.workload,
                        "organisation": cell.organisation,
                        "scale": cell.scale, "warmup": cell.warmup,
                        "size": spec.size, "seed": spec.seed},
                       deps=(capture_key,) + ((prefix_key,) if prefix_key
                                              else ())))
        for context in system.contexts:
            ana_key = (f"analyze:{cell.workload}/{context}"
                       f"@scale{cell.scale}-warmup{cell.warmup:g}")
            plan.add(Stage(ana_key, "analyze",
                           {"workload": cell.workload, "context": context,
                            "scale": cell.scale, "warmup": cell.warmup,
                            "size": spec.size, "seed": spec.seed},
                           deps=(sim_key,)))
            analyze_keys.setdefault((cell.scale, cell.warmup),
                                    []).append(ana_key)
            for prefetcher in spec.prefetchers:
                plan.add(Stage(
                    f"prefetch:{prefetcher}:{cell.workload}/{context}"
                    f"@scale{cell.scale}-warmup{cell.warmup:g}",
                    "prefetch",
                    {"prefetcher": prefetcher, "workload": cell.workload,
                     "context": context, "scale": cell.scale,
                     "warmup": cell.warmup, "size": spec.size,
                     "seed": spec.seed},
                    deps=(ana_key,)))

    # One render per analysis per (scale, warmup) combination: an analysis
    # consumes the whole grid slice at one cache scale and warm-up.
    for scale in spec.scales:
        for warmup in spec.warmups:
            deps = tuple(analyze_keys.get((scale, warmup), ()))
            for analysis in spec.analyses:
                key = f"render:{analysis}{_combo_suffix(spec, scale, warmup)}"
                plan.add(Stage(key, "render",
                               {"analysis": analysis, "scale": scale,
                                "warmup": warmup},
                               deps=deps))
    return plan


# --------------------------------------------------------------------------- #
# plan execution: the event-driven scheduler
# --------------------------------------------------------------------------- #
def _run_inline_stage(stage: Stage, session, payloads: Dict[str, Any],
                      result: PlanResult) -> Tuple[str, Any]:
    """Execute one parent-side stage (analyze/prefetch/render).

    These stages are bookkeeping over payloads the scheduler already holds
    (simulated bundles, analysis adapters over the warm memo), so shipping
    them to a backend would move the data both ways for no work; they run
    inline between future waits instead.
    """
    params = stage.params
    if stage.kind == "analyze":
        sim = payloads[stage.deps[0]]
        context = params["context"]
        return sim["statuses"][context], sim["bundles"][context]
    if stage.kind == "prefetch":
        # A CoverageResult is a finished artifact like any bundle: served
        # from the result store when present, whatever the checkpoint policy.
        from ..experiments.runner import clamp_warmup_fraction
        from ..prefetch.base import coverage_params, evaluate_coverage
        store = getattr(session, "result_store", None)
        key = coverage_params(
            params["prefetcher"], params["workload"], params["context"],
            params.get("size", "small"), params.get("seed", 42),
            params["scale"], clamp_warmup_fraction(params["warmup"]))
        cached = store.load("coverage", key) if store is not None else None
        if cached is not None:
            return "cached", cached
        bundle = payloads[stage.deps[0]]
        coverage = evaluate_coverage(PREFETCHERS.get(params["prefetcher"])(),
                                     bundle.miss_trace)
        if store is not None:
            store.save("coverage", key, coverage)
        return "ran", coverage
    if stage.kind == "render":
        adapter = ANALYSES.get(params["analysis"])
        return "ran", adapter(session=session, spec=result.spec,
                              scale=params["scale"],
                              warmup_fraction=params["warmup"])
    raise ValueError(f"no inline handler for stage kind {stage.kind!r}")


def _record_payload(stage: Stage, status: str, payload: Any,
                    result: PlanResult, session) -> None:
    """File a finished stage's payload under the right PlanResult index."""
    params = stage.params
    if stage.kind == "simulate" and payload is not None:
        # Warm the parent memo so render adapters (and later sessions on
        # this root in this process) reuse the bundles without touching the
        # disk store.
        from ..experiments.runner import _CACHE, clamp_warmup_fraction, \
            memo_key
        warmup = clamp_warmup_fraction(params["warmup"])
        for context, bundle in payload["bundles"].items():
            _CACHE[memo_key(session.cache_dir, params["workload"], context,
                            params["size"], params["seed"], params["scale"],
                            warmup)] = bundle
    elif stage.kind == "analyze":
        result.bundles[(params["workload"], params["context"],
                        params["scale"], params["warmup"])] = payload
    elif stage.kind == "prefetch":
        result.coverage[(params["prefetcher"], params["workload"],
                         params["context"], params["scale"],
                         params["warmup"])] = payload
    elif stage.kind == "render":
        result.artifacts[stage.key[len("render:"):]] = payload


def _stage_cost_estimates(session) -> Dict[str, Dict[str, float]]:
    """Observed per-kind costs for the scheduler, or ``{}`` when unknown.

    Anything going wrong here — telemetry off, empty store, a locked index
    database — degrades to FIFO scheduling, never to a failed plan.
    """
    telem = getattr(session, "telemetry_store", None)
    if telem is None:
        return {}
    try:
        return telem.observed_costs() or {}
    except Exception:
        return {}


def execute_plan(plan: Plan, session, executor=None,
                 events: Optional[PlanEvents] = None,
                 raise_errors: bool = True) -> PlanResult:
    """Run every stage of ``plan`` through ``session``, event-driven.

    The scheduler tracks dependency counts and submits each stage to the
    ``executor`` backend (an :class:`~repro.api.executor.Executor` instance,
    a registered name, or ``None`` for the session's ``executor`` policy)
    the moment its dependencies land; ``events`` callbacks fire on every
    start/finish/error.  Generation and simulation stages run on the
    backend; analyze/prefetch/render stages run inline in the parent over
    the payloads the backend returned.

    A stage that raises is marked ``failed`` (its exception lands in
    ``result.errors``), its transitive dependents are cancelled without
    running (``skipped``), and every independent branch still completes.
    With ``raise_errors`` (the default) a :class:`PlanExecutionError`
    carrying the partial :class:`PlanResult` is raised at the end.

    Scheduling is **cost-aware**: when the telemetry store has observed
    costs for any stage kind (``TelemetryStore.observed_costs()``, served
    from the run index), the scheduler pops the most expensive ready stage
    first instead of FIFO, so long simulations start before cheap captures
    and the plan's critical path shortens.  Which stages run — and what
    they produce — is unchanged; only the submission order moves, so
    artifacts stay bit-identical to FIFO and to the serial backend.
    """
    from .executor import BACKEND_KINDS, resolve_executor

    events = events if events is not None else PlanEvents()
    result = PlanResult(spec=plan.spec, plan=plan)
    payloads: Dict[str, Any] = {}

    remaining = {key: set(stage.deps) for key, stage in plan.stages.items()}
    dependents: Dict[str, List[str]] = {}
    for stage in plan.stages.values():
        for dep in stage.deps:
            dependents.setdefault(dep, []).append(stage.key)
    ready = deque(key for key, deps in remaining.items() if not deps)
    pending: Dict[Future, Stage] = {}

    costs = _stage_cost_estimates(session)

    def estimated_wall(key: str) -> float:
        estimate = costs.get(plan.stages[key].kind)
        return float(estimate.get("mean_wall_s", 0.0)) if estimate else 0.0

    def pop_ready() -> Stage:
        """The most expensive ready stage by observed mean wall time.

        Ties (including the no-observations case, where every estimate is
        0.0) break FIFO, which keeps the pre-cost-model submission order —
        and deterministic event sequences — when there is nothing to rank.
        """
        if len(ready) > 1 and costs:
            best = max(range(len(ready)),
                       key=lambda i: (estimated_wall(ready[i]), -i))
            if best:
                key = ready[best]
                del ready[best]
                return plan.stages[key]
        return plan.stages[ready.popleft()]

    def settle(stage: Stage, status: str, payload: Any) -> None:
        result.statuses[stage.key] = status
        payloads[stage.key] = payload
        _record_payload(stage, status, payload, result, session)
        events.on_stage_finish(stage, status)
        for dep_key in dependents.get(stage.key, ()):
            remaining[dep_key].discard(stage.key)
            if not remaining[dep_key]:
                ready.append(dep_key)

    def fail(stage: Stage, error: BaseException) -> None:
        result.statuses[stage.key] = "failed"
        result.errors[stage.key] = error
        events.on_stage_error(stage, error)
        # Cancel the whole downstream cone: those stages never run.
        cone = deque(dependents.get(stage.key, ()))
        while cone:
            key = cone.popleft()
            if result.statuses.get(key) == "skipped":
                continue
            result.statuses[key] = "skipped"
            events.on_stage_finish(plan.stages[key], "skipped")
            cone.extend(dependents.get(key, ()))

    wall0 = time.perf_counter()
    with resolve_executor(executor, session, plan) as backend:
        backend.bind(session, plan)
        # Telemetry run: created after bind (the backend knows its name by
        # then) and before any submit, so every work item carries the run id
        # and every span — scheduler- or worker-origin, any host — lands in
        # the same <cache>/telemetry/<run_id>/ directory.
        telem = getattr(session, "telemetry_store", None)
        profile = bool(getattr(session, "profile", False))
        run_id = None
        if telem is not None:
            run_id = telem.create_run({
                "spec": plan.spec.name,
                "executor": backend.name,
                "n_stages": len(plan),
                "stage_kinds": {kind: len(plan.by_kind(kind))
                                for kind in STAGE_KINDS if plan.by_kind(kind)},
                "profile": profile})
            result.run_id = run_id
            backend.configure(telemetry_run_id=run_id)
            events = _ComposedEvents(SpanRecorder(sink=telem.span_sink(run_id)),
                                     events)
        events.on_plan_start(plan, run_id)
        while ready or pending:
            while ready:
                stage = pop_ready()
                events.on_stage_start(stage)
                if stage.kind in BACKEND_KINDS:
                    pending[backend.submit(stage)] = stage
                    continue
                prof_path = (telem.profile_path(run_id, stage.key)
                             if profile and run_id is not None else None)
                try:
                    with maybe_profile(prof_path):
                        status, payload = _run_inline_stage(stage, session,
                                                            payloads, result)
                except Exception as error:  # noqa: BLE001 - recorded
                    fail(stage, error)
                else:
                    settle(stage, status, payload)
            if not pending:
                continue  # inline completions may have readied more stages
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            # Settle in submission order for deterministic event sequences
            # when several futures completed in one wait.
            for future in [f for f in list(pending) if f in done]:
                stage = pending.pop(future)
                try:
                    status, payload = backend.finalize(stage, future.result())
                except Exception as error:  # noqa: BLE001 - recorded
                    fail(stage, error)
                else:
                    settle(stage, status, payload)
    if telem is not None and run_id is not None:
        telem.update_manifest(run_id, finished_at=iso_utc(),
                              wall_s=round(time.perf_counter() - wall0, 6),
                              ok=result.ok, statuses=dict(result.statuses))
    if result.errors and raise_errors:
        raise PlanExecutionError(result)
    return result
