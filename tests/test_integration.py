"""End-to-end qualitative checks reproducing the paper's headline claims.

These run the full pipeline (workload model -> system model -> stream
analysis) at small scale and assert the *directional* findings of the paper,
not absolute numbers (ROADMAP.md's Baseline section gives measured values
and how they move with trace length).
"""

import pytest

from repro.core import StreamLabel
from repro.experiments import clear_cache, run_context
from repro.mem import IntraChipClass, MissClass
from repro.mem.trace import INTRA_CHIP, MULTI_CHIP, SINGLE_CHIP


@pytest.fixture(scope="module")
def apache():
    return {context: run_context("Apache", context, size="tiny")
            for context in (MULTI_CHIP, SINGLE_CHIP, INTRA_CHIP)}


@pytest.fixture(scope="module")
def oltp():
    return {context: run_context("OLTP", context, size="tiny")
            for context in (MULTI_CHIP, SINGLE_CHIP, INTRA_CHIP)}


@pytest.fixture(scope="module")
def dss():
    return {context: run_context("Qry1", context, size="tiny")
            for context in (MULTI_CHIP, SINGLE_CHIP)}


class TestMissClassificationClaims:
    """Figure 1 directional claims."""

    def test_multichip_offchip_dominated_by_coherence_for_web_oltp(self, apache, oltp):
        # At the "tiny" test scale the compulsory (cold-start) share is
        # inflated, so the bound here is looser than the paper's ~50-80%;
        # the benchmark harness checks the full-size runs.
        for result in (apache[MULTI_CHIP], oltp[MULTI_CHIP]):
            coherence = result.classification.fraction(MissClass.COHERENCE)
            assert coherence > 0.2

    def test_singlechip_has_no_offchip_cpu_coherence(self, apache, oltp, dss):
        for bundle in (apache, oltp, dss):
            result = bundle[SINGLE_CHIP]
            assert result.classification.fraction(MissClass.COHERENCE) == 0.0

    def test_dss_offchip_dominated_by_compulsory_and_io(self, dss):
        for context in (MULTI_CHIP, SINGLE_CHIP):
            breakdown = dss[context].classification
            non_repeat_classes = (breakdown.fraction(MissClass.COMPULSORY)
                                  + breakdown.fraction(MissClass.IO_COHERENCE))
            assert non_repeat_classes > 0.5

    def test_intrachip_has_coherence_between_cores(self, apache):
        breakdown = apache[INTRA_CHIP].classification
        coherence = (breakdown.fraction(IntraChipClass.COHERENCE_PEER_L1)
                     + breakdown.fraction(IntraChipClass.COHERENCE_L2))
        assert coherence > 0.1


class TestStreamClaims:
    """Figure 2 / Section 4 directional claims."""

    def test_web_multichip_misses_mostly_in_streams(self, apache):
        assert apache[MULTI_CHIP].stream_analysis.fraction_in_streams > 0.6

    def test_oltp_multichip_more_repetitive_than_singlechip(self, oltp):
        multi = oltp[MULTI_CHIP].stream_analysis.fraction_in_streams
        single = oltp[SINGLE_CHIP].stream_analysis.fraction_in_streams
        assert multi > single

    def test_dss_less_repetitive_than_web(self, apache, dss):
        assert (dss[MULTI_CHIP].stream_analysis.fraction_in_streams
                < apache[MULTI_CHIP].stream_analysis.fraction_in_streams)

    def test_streams_are_long(self, apache):
        """Median stream length should be several misses (paper: ~8-10)."""
        assert apache[MULTI_CHIP].lengths.median >= 4

    def test_dss_streams_longer_than_web(self, apache, dss):
        assert dss[MULTI_CHIP].lengths.median >= apache[MULTI_CHIP].lengths.median

    def test_recurring_and_new_labels_consistent(self, apache):
        analysis = apache[MULTI_CHIP].stream_analysis
        assert (analysis.count(StreamLabel.NEW_STREAM)
                + analysis.count(StreamLabel.RECURRING_STREAM)
                + analysis.count(StreamLabel.NON_REPETITIVE)
                == analysis.n_misses)


class TestStrideClaims:
    """Figure 3 directional claims."""

    def test_dss_mostly_strided(self, dss):
        assert dss[SINGLE_CHIP].stride.fraction_strided > 0.5

    def test_oltp_mostly_non_strided_multichip(self, oltp):
        assert oltp[MULTI_CHIP].stride.fraction_strided < 0.4


class TestModuleOriginClaims:
    """Tables 3-5 directional claims."""

    def test_web_server_code_is_minor_contributor(self, apache):
        row = apache[MULTI_CHIP].modules.row("Web server worker thread pool")
        assert row.pct_misses < 0.15

    def test_web_scheduler_and_streams_present_multichip(self, apache):
        modules = apache[MULTI_CHIP].modules
        assert modules.row("Kernel task scheduler").pct_misses > 0.02
        assert modules.row("Kernel STREAMS subsystem").pct_misses > 0.01

    def test_oltp_index_accesses_are_top_contributor(self, oltp):
        top = oltp[MULTI_CHIP].modules.top_categories(3)
        assert any(r.category == "DB2 index, page & tuple accesses"
                   for r in top)

    def test_oltp_scheduler_vanishes_from_singlechip_offchip(self, oltp):
        multi = oltp[MULTI_CHIP].modules.row("Kernel task scheduler").pct_misses
        single = oltp[SINGLE_CHIP].modules.row("Kernel task scheduler").pct_misses
        assert single < multi

    def test_dss_bulk_copies_dominate(self, dss):
        breakdown = dss[SINGLE_CHIP].modules
        copies = breakdown.row("Bulk memory copies")
        assert copies.pct_misses > 0.2

    def test_dss_copies_non_repetitive(self, dss):
        copies = dss[MULTI_CHIP].modules.row("Bulk memory copies")
        assert copies.repetition_rate < 0.3


class TestReuseDistanceClaims:
    """Figure 4 (right) directional claim: coherence-dominated contexts have
    shorter stream reuse distances than capacity-dominated ones."""

    def test_reuse_distributions_exist(self, apache):
        reuse = apache[MULTI_CHIP].reuse
        assert reuse.total_fraction > 0.0
        assert reuse.dominant_bin() is not None
