"""Registry semantics and the entries the built-in packages register."""

import pytest

from repro.api import (ANALYSES, PREFETCHERS, Registry, SYSTEMS, WORKLOADS)
from repro.workloads import WORKLOAD_NAMES, create_workload


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")
        reg.register("Alpha", 1)
        assert reg.get("Alpha") == 1
        assert "Alpha" in reg
        assert reg.names() == ("Alpha",)

    def test_lookup_is_case_insensitive(self):
        reg = Registry("thing")
        reg.register("Alpha", 1)
        assert reg.get("alpha") == 1
        assert reg.get("ALPHA") == 1
        assert reg.canonical("aLpHa") == "Alpha"

    def test_aliases_resolve_to_same_entry(self):
        reg = Registry("thing")
        reg.register("Alpha", 1, aliases=("a", "first"))
        assert reg.get("a") == 1
        assert reg.get("First") == 1
        # Aliases do not appear among canonical names.
        assert reg.names() == ("Alpha",)

    def test_duplicate_name_raises(self):
        reg = Registry("thing")
        reg.register("Alpha", 1)
        with pytest.raises(ValueError, match="duplicate thing"):
            reg.register("Alpha", 2)
        with pytest.raises(ValueError, match="duplicate thing"):
            reg.register("alpha", 2)  # case-insensitive collision

    def test_duplicate_alias_raises(self):
        reg = Registry("thing")
        reg.register("Alpha", 1, aliases=("a",))
        with pytest.raises(ValueError, match="duplicate thing"):
            reg.register("Beta", 2, aliases=("A",))
        # The failed registration must not leave partial state behind.
        assert "Beta" not in reg

    def test_unknown_lookup_lists_available(self):
        reg = Registry("gadget")
        reg.register("Alpha", 1)
        reg.register("Beta", 2)
        with pytest.raises(KeyError) as exc:
            reg.get("Gamma")
        message = exc.value.args[0]
        assert "unknown gadget 'Gamma'" in message
        assert "Alpha" in message and "Beta" in message

    def test_decorator_returns_object_unchanged(self):
        reg = Registry("thing")

        @reg.decorator("Alpha")
        def factory():
            return 41

        assert factory() == 41
        assert reg.get("alpha") is factory


class TestBuiltinEntries:
    def test_all_paper_workloads_registered(self):
        assert set(WORKLOADS.names()) == set(WORKLOAD_NAMES)

    def test_workload_aliases(self):
        # The historical create_workload aliases resolve via the registry.
        for alias, canonical in (("db2", "OLTP"), ("tpcc", "OLTP"),
                                 ("q1", "Qry1"), ("query17", "Qry17")):
            assert WORKLOADS.canonical(alias) == canonical

    def test_create_workload_uses_registry(self):
        from repro.workloads import DssWorkload
        workload = create_workload("q1", n_cpus=4, size="tiny")
        assert isinstance(workload, DssWorkload)

    def test_create_workload_unknown_lists_names(self):
        with pytest.raises(KeyError) as exc:
            create_workload("NotAWorkload", n_cpus=4)
        assert "Apache" in exc.value.args[0]

    def test_systems_describe_organisations(self):
        assert set(SYSTEMS.names()) == {"multi-chip", "single-chip"}
        assert SYSTEMS.get("multi-chip").n_cpus == 16
        assert SYSTEMS.get("single-chip").n_cpus == 4
        assert SYSTEMS.get("multi-chip").contexts == ("multi-chip",)
        assert SYSTEMS.get("single-chip").contexts == ("single-chip",
                                                       "intra-chip")

    def test_system_factories_build_models(self):
        system = SYSTEMS.get("single-chip")(scale=64)
        assert system.config.n_cpus == 4

    def test_prefetchers_registered(self):
        from repro.prefetch import StridePrefetcher, TemporalPrefetcher
        assert PREFETCHERS.get("temporal") is TemporalPrefetcher
        assert PREFETCHERS.get("stride") is StridePrefetcher
        assert PREFETCHERS.get("tms") is TemporalPrefetcher

    def test_late_registered_system_joins_the_sweep_machinery(self):
        # Organisations registered after import must be visible to the
        # live context map and to run_context's context routing.
        from repro.api import ExperimentSpec, register_system, spec_contexts
        from repro.experiments.runner import run_context

        @register_system("test-org")
        def _build_test_org(scale=64):  # pragma: no cover - never simulated
            raise NotImplementedError

        _build_test_org.n_cpus = 2
        _build_test_org.contexts = ("test-ctx",)
        try:
            assert (spec_contexts(ExperimentSpec(organisations=("test-org",)))
                    == ("test-ctx",))
            # Unknown contexts list every registered context, including the
            # late one.
            with pytest.raises(ValueError) as exc:
                run_context("Apache", "no-such-ctx", size="tiny")
            assert "test-ctx" in str(exc.value)
        finally:
            SYSTEMS._entries.pop("test-org")
            SYSTEMS._lookup.pop("test-org")

    def test_analyses_cover_figures_tables_ablations(self):
        import repro.experiments  # noqa: F401 - registration side effect
        names = set(ANALYSES.names())
        expected = {f"figure{i}" for i in range(1, 5)}
        expected |= {f"table{i}" for i in range(1, 6)}
        expected |= {"ablation-prefetchers", "ablation-stream-finders",
                     "ablation-stride-sensitivity"}
        assert expected <= names
