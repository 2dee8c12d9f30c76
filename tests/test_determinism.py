"""Determinism guard: fixed seed => identical results across fresh runs.

Two complete runs of ``run_context`` with the same seed — with both
cache levels cleared in between — must produce byte-identical classification,
length, and reuse summaries.  This is what makes the disk cache sound and
the paper's numbers reproducible.
"""

import pytest

from repro.experiments import runner
from repro.experiments.store import CACHE_DIR_ENV
from repro.mem.trace import INTRA_CHIP, MULTI_CHIP, SINGLE_CHIP


def _summaries(result):
    return {
        "misses": [(r.seq, r.cpu, r.block, int(r.miss_class), r.fn.name)
                   for r in result.miss_trace],
        "instructions": result.miss_trace.instructions,
        "mpki": result.miss_trace.misses_per_kilo_instruction(),
        "class_counts": result.miss_trace.class_counts(),
        "classification_total": result.classification.total_misses,
        "classification_mpki": result.classification.total_mpki,
        "stream_fracs": (result.stream_analysis.fraction_non_repetitive,
                         result.stream_analysis.fraction_new,
                         result.stream_analysis.fraction_recurring),
        "n_streams": result.stream_analysis.n_distinct_streams(),
        "lengths": list(result.lengths.series()),
        "reuse": list(result.reuse.bins()),
    }


@pytest.mark.parametrize("context", [MULTI_CHIP, SINGLE_CHIP, INTRA_CHIP])
def test_fixed_seed_reproduces_identical_bundles(context, tmp_path,
                                                 monkeypatch):
    def fresh_run(run_id):
        # Separate disk roots so nothing can leak between the two runs.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / f"run{run_id}"))
        runner.clear_cache()
        return _summaries(runner.run_context(
            "Zeus", context, size="tiny", seed=1234))

    first = fresh_run(1)
    second = fresh_run(2)
    assert first == second
    runner.clear_cache()


def test_different_seeds_differ(tmp_path, monkeypatch):
    """Sanity check that the guard above is not vacuous."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    runner.clear_cache()
    a = runner.run_context("Zeus", MULTI_CHIP, size="tiny", seed=1)
    b = runner.run_context("Zeus", MULTI_CHIP, size="tiny", seed=2)
    assert ([r.block for r in a.miss_trace]
            != [r.block for r in b.miss_trace])
    runner.clear_cache()
