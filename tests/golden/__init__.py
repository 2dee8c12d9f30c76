"""Golden output digests: the paper sweep at ``tiny``, pinned.

``paper_sweep_tiny.json`` holds, for perfbench's paper-sweep spec at the
``tiny`` preset and seed 42, one science digest per cell (miss-record hash,
miss count, off-chip MPKI, fraction of misses in temporal streams, miss-class
mix) and one hash per rendered figure and table.  The digests come from
``digests()`` in ``perfbench/check.py``, so the benchmark and these tests
share one definition.  A refactor or speed-up that changes no science leaves
the file unchanged.

Regenerate the file (only when a change is *meant* to move the science, and
say so in CHANGES.md) with::

    PYTHONPATH=src python -m tests.golden
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).resolve().parent / "paper_sweep_tiny.json"
SEED = 42


def _perfbench(name: str):
    """Load ``perfbench/<name>.py`` by path (perfbench is not a package)."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def spec_fields() -> Dict[str, Any]:
    """perfbench's paper-sweep spec at the ``tiny`` preset."""
    return {**_perfbench("run").PAPER_SWEEP, "name": "paper-sweep-tiny",
            "size": "tiny", "seed": SEED}


def compute(cache_dir: str, **policy: Any) -> Dict[str, Any]:
    """Execute the spec on a fresh root under ``policy``; its digests.

    In-process memos are cleared first, so every cell is simulated (or
    loaded) under this root and policy rather than served from an earlier
    execution in the same process.
    """
    from repro.api import ExperimentSpec, Session
    session = Session(cache_dir=cache_dir, max_workers=1, **policy)
    session.clear_caches(disk=False)
    result = session.execute(ExperimentSpec.from_dict(spec_fields()))
    found = _perfbench("check").digests(result)
    # A JSON round trip, so fresh digests compare equal to the stored file.
    return json.loads(json.dumps(found, sort_keys=True))


def load() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-golden-") as root:
        found = compute(root)
    GOLDEN_PATH.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(found['cells'])} cell and {len(found['artifacts'])} "
          f"artifact digests to {GOLDEN_PATH.relative_to(ROOT)}")
    return 0
