"""Tests for the experiment runner and figure/table drivers (tiny sizes)."""

import pytest

from repro.api import Session
from repro.experiments import (clear_cache, figure1, figure2, figure3, figure4,
                               prefetcher_ablation, render_table1,
                               render_table2, run_context,
                               stream_finder_ablation,
                               stride_sensitivity, table1, table2, table3,
                               table4, table5)
from repro.mem.trace import ALL_CONTEXTS, INTRA_CHIP, MULTI_CHIP, SINGLE_CHIP


@pytest.fixture(autouse=True, scope="module")
def _warm_cache():
    """Keep the memoised runs for the whole module (they are slow-ish)."""
    yield
    clear_cache()


class TestRunner:
    def test_run_single_context(self):
        result = run_context("Apache", MULTI_CHIP, size="tiny")
        assert result.n_misses > 100
        assert result.miss_trace.context == MULTI_CHIP
        assert 0.0 <= result.stream_analysis.fraction_in_streams <= 1.0
        assert result.classification.total_misses == result.n_misses
        result.modules.check_consistency()

    def test_results_are_cached(self):
        first = run_context("Apache", MULTI_CHIP, size="tiny")
        second = run_context("Apache", MULTI_CHIP, size="tiny")
        assert first is second

    def test_single_chip_and_intra_chip_share_simulation(self):
        off = run_context("Apache", SINGLE_CHIP, size="tiny")
        intra = run_context("Apache", INTRA_CHIP, size="tiny")
        assert off.miss_trace.instructions == intra.miss_trace.instructions

    def test_all_contexts(self):
        results = Session().run_all("Qry1", size="tiny")
        assert set(results) == set(ALL_CONTEXTS)

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError):
            run_context("Apache", "mega-chip", size="tiny")


class TestFigures:
    def test_figure1_structure_and_rendering(self):
        result = figure1(size="tiny", workloads=("Apache",))
        assert MULTI_CHIP in result.offchip["Apache"]
        assert result.offchip["Apache"][MULTI_CHIP].total_mpki > 0
        text = result.render()
        assert "Coherence" in text and "Apache" in text

    def test_figure2_fractions(self):
        result = figure2(size="tiny", workloads=("Apache",),
                         contexts=(MULTI_CHIP,))
        fraction = result.fraction_in_streams("Apache", MULTI_CHIP)
        assert 0.0 < fraction <= 1.0
        assert "Apache" in result.render()

    def test_figure3_totals(self):
        result = figure3(size="tiny", workloads=("Qry1",),
                         contexts=(MULTI_CHIP,))
        breakdown = result.breakdowns["Qry1"][MULTI_CHIP]
        assert breakdown.total() == pytest.approx(1.0)
        assert "Qry1" in result.render()

    def test_figure4_distributions(self):
        result = figure4(size="tiny", workloads=("Apache",),
                         contexts=(MULTI_CHIP,))
        assert result.median_length("Apache", MULTI_CHIP) >= 2
        reuse = result.reuse["Apache"][MULTI_CHIP]
        assert len(reuse.bin_edges) == 8
        assert "median" in result.render()


class TestTables:
    def test_table1_and_table2_static(self):
        assert len(table1()) == 6
        assert len(table2()) >= 18
        assert "OLTP" in render_table1()
        assert "disp" in render_table2()

    def test_table3_web_origins(self):
        result = table3(size="tiny")
        breakdown = result.breakdown("Apache", MULTI_CHIP)
        breakdown.check_consistency()
        merged = result.merged(MULTI_CHIP)
        assert 0.0 < merged.overall_in_streams <= 1.0
        text = result.render()
        assert "Kernel STREAMS subsystem" in text

    def test_table4_oltp_origins(self):
        result = table4(size="tiny")
        text = result.render()
        assert "DB2 index, page & tuple accesses" in text
        assert "Overall % in streams" in text

    def test_table5_dss_origins(self):
        result = table5(size="tiny")
        merged = result.merged(MULTI_CHIP)
        copies = merged.row("Bulk memory copies")
        assert copies.pct_misses > 0.1  # copies prominent in DSS


class TestAblations:
    def test_prefetcher_ablation(self):
        comparisons = prefetcher_ablation(workloads=("Apache",), size="tiny")
        assert len(comparisons) == 1
        comparison = comparisons[0]
        assert 0.0 <= comparison.temporal.coverage <= 1.0
        assert 0.0 <= comparison.stride.coverage <= 1.0

    def test_stream_finder_ablation(self):
        agreements = stream_finder_ablation(workloads=("Apache",), size="tiny")
        assert agreements[0].difference <= 0.6

    def test_stride_sensitivity_monotone(self):
        sweep = stride_sensitivity(workload="Qry1", size="tiny",
                                   confidences=(1, 2, 4))
        assert sweep[1] >= sweep[2] >= sweep[4]
