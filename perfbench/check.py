"""Correctness checks: per-cell science digests and rendered-artifact digests.

A *cell digest* pins what one (workload, context, scale, warm-up) cell
computed: a hash over every miss record plus the headline numbers a reader
of the paper looks at (off-chip MPKI, fraction of misses in temporal
streams, miss-class mix).  An *artifact digest* hashes the rendered text of
one figure or table.  A speed-up that changes no science leaves all of them
identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
#: Seed whose digests are pinned in ``reference.json``.
REFERENCE_SEED = 42
#: The warm-up fraction of the paper's figures.
PAPER_WARMUP = 0.25


def cell_key(workload: str, context: str, scale: int, warmup: float) -> str:
    return f"{workload}/{context}@scale{scale}-warmup{warmup:g}"


def cell_digest(bundle: Any) -> Dict[str, Any]:
    """Science digest of one analysis bundle (a ``ContextResult``)."""
    trace = bundle.miss_trace
    rows = "".join(
        f"{r.seq},{r.cpu},{r.block},{int(r.miss_class)},{r.fn.name},"
        f"{r.fn.module},{r.fn.category},{r.supplier};"
        for r in trace.records)
    misses = hashlib.sha256(
        f"{trace.context}|{trace.instructions}|{rows}".encode()).hexdigest()
    return {"misses": misses[:16],
            "n_misses": len(trace),
            "mpki": trace.misses_per_kilo_instruction(),
            "in_streams": bundle.stream_analysis.fraction_in_streams,
            "classes": {str(int(k)): n
                        for k, n in sorted(trace.class_counts().items())}}


def digests(result: Any) -> Dict[str, Dict[str, Any]]:
    """``{"cells": {key: digest}, "artifacts": {name: sha}}`` of a plan."""
    cells = {cell_key(*key): cell_digest(bundle)
             for key, bundle in sorted(result.bundles.items())}
    artifacts = {name: hashlib.sha256(text.encode()).hexdigest()[:16]
                 for name, text in result.render_all().items()}
    return {"cells": cells, "artifacts": artifacts}


def expected_outputs(spec: Any) -> List[str]:
    """Every output key a complete execution of ``spec`` produces."""
    from repro.api.registry import SYSTEMS
    keys = [cell_key(cell.workload, context, cell.scale, cell.warmup)
            for cell in spec.cells()
            for context in SYSTEMS.get(cell.organisation).contexts]
    suffix = len(spec.scales) * len(spec.warmups) > 1
    keys += [f"{analysis}@scale{scale}-warmup{warmup:g}" if suffix
             else analysis
             for scale in spec.scales for warmup in spec.warmups
             for analysis in spec.analyses]
    return keys


def flatten(found: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    return {**found["cells"], **found["artifacts"]}


def mismatches(found: Dict[str, Any], expected: Dict[str, Any]) -> List[str]:
    """Output keys whose digest differs from (or is missing in) ``found``."""
    return sorted(key for key, value in expected.items()
                  if json.dumps(found.get(key), sort_keys=True)
                  != json.dumps(value, sort_keys=True))


def figure2_shape(cells: Dict[str, Dict[str, Any]]) -> List[Tuple[str, List[str]]]:
    """Failed Figure 2 shape assertions as ``(assertion, cell keys)``.

    The same relations ``benchmarks/test_figure2_stream_fraction.py``
    asserts, applied to every scale of the cells present at the paper's
    warm-up (longer warm-ups leave too short a recorded trace for the
    paper's thresholds).
    """
    slices: Dict[str, Dict[Tuple[str, str], Tuple[str, float]]] = {}
    for key, digest in cells.items():
        cell, combo = key.split("@")
        if not combo.endswith(f"-warmup{PAPER_WARMUP:g}"):
            continue
        workload, context = cell.split("/")
        slices.setdefault(combo, {})[(workload, context)] = (
            key, digest["in_streams"])
    failed: List[Tuple[str, List[str]]] = []
    for combo, grid in slices.items():
        def check(text: str, ok: bool, *cells: Tuple[str, str]) -> None:
            if not ok:
                failed.append((f"{text} @{combo}",
                               [grid[cell][0] for cell in cells]))
        for workload in ("Apache", "Zeus", "OLTP"):
            for context, floor in (("multi-chip", 0.55), ("intra-chip", 0.6)):
                if (workload, context) in grid:
                    check(f"{workload} {context} in-stream fraction > {floor}",
                          grid[(workload, context)][1] > floor,
                          (workload, context))
        multi, single = ("OLTP", "multi-chip"), ("OLTP", "single-chip")
        if multi in grid and single in grid:
            check("OLTP multi-chip > single-chip + 0.2",
                  grid[multi][1] > grid[single][1] + 0.2, multi, single)
        dss, web = ("Qry1", "multi-chip"), ("Apache", "multi-chip")
        if dss in grid and web in grid:
            check("Qry1 multi-chip < Apache multi-chip",
                  grid[dss][1] < grid[web][1], dss, web)
    return failed


def source_digest(src: Path) -> str:
    """A hash over every Python source file of the package under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def recall(memory: Path, src: Path, spec_name: str, seed: int,
           found: Dict[str, Any]) -> List[str]:
    """Outputs that differ from an earlier run of the same source and seed.

    The first run of a (source, spec, seed) leaves its digests under
    ``memory``; later runs in the same checkout are compared with them.
    """
    path = memory / source_digest(src) / f"{spec_name}-seed{seed}.json"
    if path.is_file():
        return mismatches(found, json.loads(path.read_text()))
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f".{path.name}.{os.getpid()}")
    staging.write_text(json.dumps(found, sort_keys=True))
    os.replace(staging, path)
    return []


def load_reference(spec_name: str) -> Dict[str, Any]:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text()).get(spec_name, {})


def write_reference(spec_name: str, found: Dict[str, Dict[str, Any]]) -> None:
    data = (json.loads(REFERENCE_PATH.read_text())
            if REFERENCE_PATH.is_file() else {})
    data[spec_name] = {"seed": REFERENCE_SEED, **found}
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True)
                              + "\n")
