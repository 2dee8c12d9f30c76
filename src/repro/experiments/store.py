"""Versioned on-disk result store for simulation/analysis bundles.

Simulating a (workload, context) pair is by far the most expensive step of
regenerating the paper's figures and tables, and the result is fully
determined by the run parameters.  This module persists those results so a
second invocation — in the same process, a later process, or a parallel
worker — never re-simulates.

Layout::

    <root>/v<schema>-<package version>/<kind>/<param slug>-<digest>.pkl

``<root>`` defaults to ``~/.cache/repro`` and can be overridden with the
``REPRO_CACHE_DIR`` environment variable or per-store with the ``root``
argument.  Setting ``REPRO_DISABLE_DISK_CACHE=1`` disables the store
entirely (the in-memory memo in :mod:`repro.experiments.runner` still works).

Versioning rules: entries are namespaced by ``CACHE_SCHEMA`` (bump when the
pickled payload layout changes) *and* the ``repro`` package version (bumped
whenever simulation or analysis semantics change).  Either bump orphans old
entries rather than serving stale results; ``clear()`` removes every version
directory under the root.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import warnings
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import __version__
# Shared cache-root helpers live in repro.cachedir (also used by the trace
# store); re-exported here under their historical names.
from ..cachedir import (CACHE_DIR_ENV, CACHE_DISABLE_ENV, default_cache_root,
                        disk_cache_disabled, params_slug as _slug)

#: Bump when the on-disk payload layout changes incompatibly.
CACHE_SCHEMA = 1


class ResultStore:
    """Pickle-backed store of computed results, keyed by run parameters.

    Writes are atomic (write to a temp file, then ``os.replace``), so
    concurrent process-pool or dispatch workers may race on the same key
    without corrupting entries — last writer wins with identical content.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.version = f"{CACHE_SCHEMA}-{__version__}"

    # ------------------------------------------------------------------ #
    @property
    def version_dir(self) -> Path:
        return self.root / f"v{self.version}"

    def path_for(self, kind: str, params: Dict[str, Any]) -> Path:
        """The file an entry of ``kind`` with ``params`` lives at."""
        return self.version_dir / kind / f"{_slug(params)}.pkl"

    # ------------------------------------------------------------------ #
    def load(self, kind: str, params: Dict[str, Any]) -> Optional[Any]:
        """Return the stored object, or None on miss or unreadable entry."""
        path = self.path_for(kind, params)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError, OSError,
                ImportError, IndexError, ValueError) as exc:
            # A corrupt, truncated, or stale entry is a miss, not an error:
            # drop it (so a fresh result overwrites it), warn so operators
            # notice recurring corruption, and let the caller re-simulate
            # instead of aborting a whole suite mid-run.
            warnings.warn(
                f"dropping unreadable cache entry {path} "
                f"({type(exc).__name__}: {exc}); it will be recomputed",
                RuntimeWarning, stacklevel=2)
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def save(self, kind: str, params: Dict[str, Any], obj: Any) -> Path:
        """Atomically persist ``obj`` under its parameter key."""
        path = self.path_for(kind, params)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def contains(self, kind: str, params: Dict[str, Any]) -> bool:
        return self.path_for(kind, params).is_file()

    # ------------------------------------------------------------------ #
    def entries(self) -> List[Path]:
        """All entry files across every version directory under the root."""
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.glob("v*/**/*.pkl") if p.is_file())

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Remove every version directory under the root; returns #entries."""
        removed = len(self.entries())
        if self.root.is_dir():
            for child in self.root.glob("v*"):
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
        return removed

    def describe(self) -> str:
        n = len(self.entries())
        return (f"cache root {self.root} (current version v{self.version}): "
                f"{n} entr{'y' if n == 1 else 'ies'}, "
                f"{self.size_bytes() / 1024:.1f} KiB")
