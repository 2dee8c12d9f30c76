"""Benchmark F2: regenerate Figure 2 (fraction of misses in temporal streams).

Expected shape (paper): a substantial fraction of misses (35-90%) falls in
temporal streams; Web and OLTP are highly repetitive in the coherence-
dominated multi-chip and intra-chip contexts; OLTP repetition drops sharply
in the single-chip context; DSS shows the smallest stream fractions.
"""

from repro.experiments import figure2
from repro.mem.trace import INTRA_CHIP, MULTI_CHIP, SINGLE_CHIP


def test_figure2_stream_fractions(run_once, repro_size):
    result = run_once(figure2, size=repro_size)
    print()
    print(result.render())

    # Web and OLTP multi-chip misses are mostly repetitive.
    for workload in ("Apache", "Zeus", "OLTP"):
        assert result.fraction_in_streams(workload, MULTI_CHIP) > 0.55

    # Intra-chip misses are highly repetitive for Web and OLTP.
    for workload in ("Apache", "Zeus", "OLTP"):
        assert result.fraction_in_streams(workload, INTRA_CHIP) > 0.6

    # OLTP repetition collapses when coherence is absorbed on chip.
    assert (result.fraction_in_streams("OLTP", MULTI_CHIP)
            > result.fraction_in_streams("OLTP", SINGLE_CHIP) + 0.2)

    # DSS is the least repetitive application class in the multi-chip
    # context.  (In the paper this also holds for single-chip.  Here the
    # single-chip comparison is not asserted: at `small` the traces are too
    # short for web single-chip misses to repeat, not the model too small.
    # Apache single-chip is 0.21 at `small` and 0.71 at `large`, where it
    # does exceed every DSS query; see ROADMAP.md's Baseline section.)
    assert (result.fraction_in_streams("Qry1", MULTI_CHIP)
            < result.fraction_in_streams("Apache", MULTI_CHIP))
