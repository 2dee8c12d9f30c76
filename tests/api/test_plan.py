"""Plan DAGs: structure, and spec-driven execution equivalence."""

import pytest

from repro.api import (ExperimentSpec, Plan, Session, SpecError, Stage,
                       build_plan)
from repro.experiments import figure2, runner
from repro.mem.trace import INTRA_CHIP, MULTI_CHIP, SINGLE_CHIP

SPEC = ExperimentSpec(
    name="grid", size="tiny", seed=42,
    workloads=("Apache", "OLTP"),
    organisations=("multi-chip", "single-chip"),
    prefetchers=("temporal",),
    analyses=("figure2", "table1"))


class TestDagStructure:
    def test_stage_counts(self):
        plan = build_plan(SPEC)
        # 2 workloads x 2 distinct CPU counts -> 4 streams.
        assert len(plan.by_kind("capture")) == 4
        # 2 workloads x 2 organisations -> 4 cells.
        assert len(plan.by_kind("simulate")) == 4
        # multi-chip yields 1 context, single-chip 2 -> 6 analyses.
        assert len(plan.by_kind("analyze")) == 6
        # 1 prefetcher x 6 cell contexts.
        assert len(plan.by_kind("prefetch")) == 6
        assert len(plan.by_kind("render")) == 2

    def test_dependencies_wire_the_pipeline(self):
        plan = build_plan(SPEC)
        simulate = plan.stage("simulate:Apache/multi-chip"
                              "@scale64-warmup0.25")
        assert simulate.deps == ("capture:Apache@16cpu",)
        analyze = plan.stage("analyze:Apache/intra-chip@scale64-warmup0.25")
        assert analyze.deps == ("simulate:Apache/single-chip"
                                "@scale64-warmup0.25",)
        render = plan.stage("render:figure2")
        assert len(render.deps) == 6  # every analyze stage of the combo

    def test_stages_are_topologically_ordered(self):
        plan = build_plan(SPEC)
        seen = set()
        for stage in plan.order():
            assert all(dep in seen for dep in stage.deps), stage.key
            seen.add(stage.key)

    def test_shared_stream_is_captured_once(self):
        spec = ExperimentSpec(size="tiny", workloads=("Apache",),
                              organisations=("multi-chip",))
        plan = build_plan(spec)
        assert [s.key for s in plan.by_kind("capture")] \
            == ["capture:Apache@16cpu"]

    def test_invalid_spec_rejected_at_plan_time(self):
        with pytest.raises(SpecError, match="figure9"):
            build_plan(ExperimentSpec(size="tiny", analyses=("figure9",)))

    def test_plan_rejects_malformed_stage_graphs(self):
        plan = Plan(SPEC)
        plan.add(Stage("a", "capture", {}))
        with pytest.raises(ValueError, match="duplicate stage"):
            plan.add(Stage("a", "capture", {}))
        with pytest.raises(ValueError, match="unknown/later stage"):
            plan.add(Stage("b", "simulate", {}, deps=("missing",)))

    def test_describe_names_every_stage(self):
        plan = build_plan(SPEC)
        text = plan.describe()
        for stage in plan.order():
            assert stage.key in text

    def test_to_json_exports_nodes_deps_and_kinds(self):
        import json
        plan = build_plan(SPEC)
        data = json.loads(plan.to_json())
        assert data["spec"]["name"] == "grid"
        stages = {entry["key"]: entry for entry in data["stages"]}
        assert set(stages) == set(plan.stages)
        sim = stages["simulate:Apache/multi-chip@scale64-warmup0.25"]
        assert sim["kind"] == "simulate"
        assert "capture:Apache@16cpu" in sim["deps"]
        assert sim["params"]["organisation"] == "multi-chip"

    def test_to_dot_exports_every_node_and_edge(self):
        plan = build_plan(SPEC)
        dot = plan.to_dot()
        assert dot.startswith('digraph "grid"')
        for stage in plan.order():
            assert f'"{stage.key}"' in dot
            for dep in stage.deps:
                assert f'"{dep}" -> "{stage.key}";' in dot


class TestExecution:
    @pytest.fixture
    def session(self, private_cache):
        return Session(max_workers=1)

    def test_bundles_match_direct_runs(self, session):
        outcome = session.execute(SPEC)
        for (workload, context, scale, warmup), bundle in \
                outcome.bundles.items():
            direct = runner.run_context(workload, context, size="tiny",
                                        scale=scale, warmup_fraction=warmup)
            assert direct is bundle  # plan warmed the same memo
        assert len(outcome.bundles) == 6

    def test_artifacts_match_figure_functions(self, session):
        outcome = session.execute(SPEC)
        direct = figure2(size="tiny", workloads=SPEC.workloads)
        assert outcome.render("figure2") == direct.render()
        assert "Table 1" in outcome.render("table1")

    def test_prefetch_coverage_collected(self, session):
        outcome = session.execute(SPEC)
        assert len(outcome.coverage) == 6
        key = ("temporal", "Apache", MULTI_CHIP, 64, 0.25)
        assert 0.0 <= outcome.coverage[key].coverage <= 1.0

    def test_statuses_cover_every_stage(self, session):
        plan = session.plan(SPEC)
        outcome = plan.run(session)
        assert set(outcome.statuses) == set(plan.stages)

    def test_second_execution_served_from_caches(self, session, monkeypatch):
        session.execute(SPEC)
        runner.clear_cache()  # drop memo; disk stores stay

        def boom(*args, **kwargs):
            raise AssertionError("re-simulated despite populated disk cache")

        monkeypatch.setattr(runner, "_simulate", boom)
        outcome = session.execute(SPEC)
        assert len(outcome.bundles) == 6
        for stage in outcome.plan.by_kind("analyze"):
            assert outcome.statuses[stage.key] == "cached"
        for stage in outcome.plan.by_kind("simulate"):
            assert outcome.statuses[stage.key] == "cached"
        for stage in outcome.plan.by_kind("capture"):
            assert outcome.statuses[stage.key] == "cached"

    def test_unknown_artifact_lookup_lists_names(self, session):
        outcome = session.execute(SPEC)
        with pytest.raises(KeyError, match="figure2"):
            outcome.artifact("figure7")

    def test_ambiguous_artifact_lookup_lists_matches(self):
        from repro.api import PlanResult
        outcome = PlanResult(spec=SPEC, plan=build_plan(SPEC))
        outcome.artifacts = {"figure2@scale64-warmup0.25": "a",
                             "figure2@scale64-warmup0.5": "b"}
        with pytest.raises(KeyError, match="ambiguous.*warmup0.25"):
            outcome.artifact("figure2")
        # A full name still resolves directly.
        assert outcome.artifact("figure2@scale64-warmup0.5") == "b"


class TestEndToEndEquivalence:
    def test_spec_driven_run_matches_pre_redesign_path(self, tmp_path,
                                                       monkeypatch):
        """Acceptance: a planned, replayed, checkpoint-sharded spec run
        renders the same figure output as the legacy entry points, each
        starting from a cold cache."""
        from repro.experiments.store import CACHE_DIR_ENV

        # Legacy path: run_context-driven figure rendering.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "legacy"))
        runner.clear_cache()
        for workload in SPEC.workloads:
            for context in (MULTI_CHIP, SINGLE_CHIP, INTRA_CHIP):
                runner.run_context(workload, context, size="tiny")
        legacy = figure2(size="tiny", workloads=SPEC.workloads).render()

        # New path: spec -> plan -> execute in a separate cold cache.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "spec"))
        runner.clear_cache()
        outcome = Session(max_workers=1).execute(SPEC)
        runner.clear_cache()
        assert outcome.render("figure2") == legacy
