"""Experiment drivers regenerating every figure and table of the paper.

Each module corresponds to one artifact of the evaluation:

=============  =========================================================
figure1        miss classification (off-chip and intra-chip)
figure2        fraction of misses in temporal streams
figure3        strided x repetitive joint breakdown
figure4        stream length CDF and reuse distance PDF
tables         Tables 1-5 (configs, categories, stream origins)
ablation       prefetcher coverage, stream-finder agreement, sensitivity
runner         shared workload/system/analysis pipeline with memoisation
=============  =========================================================
"""

from .ablation import (PrefetcherComparison, StreamFinderAgreement,
                       prefetcher_ablation, stream_finder_ablation,
                       stride_sensitivity)
from .figure1 import Figure1Result, figure1
from .figure2 import Figure2Result, figure2
from .figure3 import Figure3Result, figure3
from .figure4 import Figure4Result, figure4
from .runner import (ContextResult, DEFAULT_WARMUP_FRACTION,
                     clamp_warmup_fraction, clear_cache, get_store,
                     run_context)
from .store import (CACHE_DIR_ENV, CACHE_DISABLE_ENV, CACHE_SCHEMA,
                    ResultStore, default_cache_root)
from .tables import (OriginsResult, render_table1, render_table2, table1,
                     table2, table3, table4, table5)

__all__ = [
    "CACHE_DIR_ENV", "CACHE_DISABLE_ENV", "CACHE_SCHEMA", "ContextResult",
    "DEFAULT_WARMUP_FRACTION", "Figure1Result", "Figure2Result",
    "Figure3Result", "Figure4Result",
    "OriginsResult", "PrefetcherComparison",
    "ResultStore", "StreamFinderAgreement", "clear_cache",
    "default_cache_root", "figure1", "figure2", "figure3", "figure4",
    "clamp_warmup_fraction", "get_store", "prefetcher_ablation",
    "render_table1", "render_table2", "run_context",
    "stream_finder_ablation", "stride_sensitivity", "table1", "table2",
    "table3", "table4", "table5",
]
