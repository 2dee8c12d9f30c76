"""Trace ingest: external trace importers and the seeded workload fuzzer.

This package opens the workload axis beyond the six synthetic generators:

* :mod:`repro.ingest.importers` — an importer registry
  (:func:`register_importer`) with adapters for valgrind-lackey text dumps,
  ChampSim-style binary record dumps, and a generic CSV/JSONL row schema.
  :func:`import_trace` streams a foreign file chunk-wise into the columnar
  :class:`~repro.trace.store.TraceStore` under a synthetic
  ``(workload="import:<name>", n_cpus, seed, size)`` key and writes a
  :mod:`provenance <repro.ingest.provenance>` sidecar.
* :mod:`repro.ingest.fuzz` — :class:`FuzzWorkload`, a deterministic
  composition/perturbation of the registered generators (phase mixes,
  working-set drift, CPU-count skew, burst injection) described by a
  ``fuzz:<recipe>`` string.

Importing this package registers the ``import:`` and ``fuzz:`` **name
prefixes** on the ``WORKLOADS`` registry (see
:meth:`repro.api.registry.Registry.register_prefix`), which is what lets a
spec say ``workloads = ["import:memcached", "fuzz:Apache+OLTP,drift=0.3"]``
and have plans, the trace store, checkpoints, the run index, and every
executor treat those cells like any paper workload.
:mod:`repro.workloads` imports this package, so the prefixes exist wherever
workloads are resolvable — including freshly spawned dispatch workers.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ..api.registry import WORKLOADS
from .fuzz import (BURST_WINDOW, DRIFT_STRIDE, FuzzRecipe, FuzzWorkload,
                   RecipeError, SLOT_ACCESSES, parse_recipe)
from .importers import (CHAMPSIM_RECORD, ChampSimImporter, CsvImporter,
                        IMPORTERS, ImportResult, ImportStats,
                        ImportedTraceWorkload, JsonlImporter,
                        MissingImportedTraceError, ROW_FIELDS, RowImporter,
                        TraceImporter, TraceIngestError,
                        ValgrindLackeyImporter, import_trace,
                        register_importer, sanitize_import_name)
from .provenance import (PROVENANCE_NAME, build_provenance, hash_file,
                         load_provenance, provenance_path, trace_origin,
                         write_provenance)

#: Workload-name prefixes owned by this package.
IMPORT_PREFIX = "import:"
FUZZ_PREFIX = "fuzz:"


def _import_entry(suffix: str) -> Optional[Tuple[str, Callable[..., Any]]]:
    """``WORKLOADS`` prefix handler for ``import:<name>``.

    Any cleanly sanitised name is *syntactically* valid — whether a trace
    actually exists is a runtime property of the store, checked when (and
    where) the stream is opened, so specs validate on machines that have
    not imported yet.
    """
    name = suffix.strip()
    try:
        if not name or sanitize_import_name(name) != name:
            return None
    except TraceIngestError:
        return None

    def factory(n_cpus: int, seed: int = 42,
                size: str = "default") -> ImportedTraceWorkload:
        return ImportedTraceWorkload(name, n_cpus=n_cpus, seed=seed,
                                     size=size)

    return name, factory


def _fuzz_entry(suffix: str) -> Optional[Tuple[str, Callable[..., Any]]]:
    """``WORKLOADS`` prefix handler for ``fuzz:<recipe>``."""
    try:
        recipe = parse_recipe(suffix)
    except RecipeError:
        return None

    def factory(n_cpus: int, seed: int = 42,
                size: str = "default") -> FuzzWorkload:
        return FuzzWorkload(recipe, n_cpus=n_cpus, seed=seed, size=size)

    return recipe.canonical_suffix(), factory


WORKLOADS.register_prefix(IMPORT_PREFIX, _import_entry,
                          placeholder="import:<name>")
WORKLOADS.register_prefix(FUZZ_PREFIX, _fuzz_entry,
                          placeholder="fuzz:<recipe>")


__all__ = [
    "BURST_WINDOW", "CHAMPSIM_RECORD", "ChampSimImporter", "CsvImporter",
    "DRIFT_STRIDE", "FUZZ_PREFIX", "FuzzRecipe", "FuzzWorkload",
    "IMPORTERS", "IMPORT_PREFIX", "ImportResult", "ImportStats",
    "ImportedTraceWorkload", "JsonlImporter", "MissingImportedTraceError",
    "PROVENANCE_NAME", "ROW_FIELDS", "RecipeError", "RowImporter",
    "SLOT_ACCESSES", "TraceImporter", "TraceIngestError",
    "ValgrindLackeyImporter", "build_provenance", "hash_file",
    "import_trace", "load_provenance", "parse_recipe", "provenance_path",
    "register_importer", "sanitize_import_name", "trace_origin",
    "write_provenance",
]
