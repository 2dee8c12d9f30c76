"""Content-addressed on-disk store of epoch-boundary system checkpoints.

Sits alongside the trace and result stores under the same cache root::

    <root>/checkpoints/v<format>-<package version>/
        <param slug>/epoch-000004.chain.json   one manifest per boundary
        <param slug>/epoch-000008.chain.json
        chunks/<sha256[:2]>/<sha256>          content-addressed sections

Every boundary is a delta-chain manifest over shared chunks (see
:mod:`repro.checkpoint.delta`, which writes them).

A checkpoint run is keyed by everything that determines system state at an
epoch boundary: the trace key ``(workload, n_cpus, seed, size)`` — epochs
are defined by the captured trace — plus the system organisation, the cache
scale, and the warm-up fraction (recording on/off changes the statistics a
snapshot carries).  Entries are namespaced by the checkpoint format version
**and** the package version (model semantics change with releases), so
either bump orphans old checkpoints rather than restoring stale state.

Corrupt or truncated manifests and chunks are a *miss*, not an error:
``load`` warns, unlinks the manifest, and returns ``None`` so the caller
re-simulates (mirroring ``ResultStore.load``); ``latest`` transparently
falls back to the next older epoch.

Module-level :data:`STATS` counts saves/loads/misses/resumes for this
process; tests and the CLI use it to prove a run resumed from disk instead
of simulating from the start.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__
from ..cachedir import default_cache_root, params_slug
from ..obs.metrics import REGISTRY
from ..trace.format import DEFAULT_EPOCH_SIZE
from .format import (CHECKPOINT_FORMAT_VERSION, CheckpointCorruptError,
                     chain_name, decode_chunk, encode_chunk,
                     parse_chain_name)

#: Subdirectory of the cache root holding all checkpoint versions.
CHECKPOINTS_SUBDIR = "checkpoints"

#: Subdirectory of one version dir holding content-addressed chunks, shared
#: by every run of that version (cross-run dedupe).  Never a run slug:
#: ``runs()`` skips it by name.
CHUNKS_SUBDIR = "chunks"


@dataclass
class CheckpointStoreStats:
    """Process-wide counters over every :class:`CheckpointStore` instance."""

    saves: int = 0
    loads: int = 0
    misses: int = 0
    #: Simulations that restored a checkpoint instead of starting fresh.
    resumes: int = 0
    #: Corrupt files dropped by ``load``.
    drops: int = 0
    #: Boundaries committed as delta links (subset of ``saves``).
    delta_saves: int = 0
    #: Content-addressed chunk files actually written.
    chunk_writes: int = 0
    #: Chunk writes elided because the digest already existed on disk.
    chunk_dedup_hits: int = 0
    #: Resumes that restored a *shared-prefix* checkpoint published by
    #: another cell (subset of ``resumes``).
    warm_starts: int = 0

    def reset(self) -> None:
        self.saves = self.loads = self.misses = self.resumes = self.drops = 0
        self.delta_saves = self.chunk_writes = self.chunk_dedup_hits = 0
        self.warm_starts = 0


#: Shared counters (all stores in this process).  Registered into the
#: unified metrics registry as the ``checkpoint_store.*`` section; the
#: module attribute stays the canonical increment site.
STATS = REGISTRY.register_stats("checkpoint_store", CheckpointStoreStats())


def checkpoint_params(workload: str, n_cpus: int, seed: int, size: str,
                      organisation: str, scale: int, warmup: float,
                      epoch_size: int = DEFAULT_EPOCH_SIZE) -> Dict[str, Any]:
    """The canonical key of one checkpointed simulation run.

    ``epoch_size`` is the segmentation of the captured trace the epochs are
    counted in — a checkpoint's epoch index is only meaningful relative to
    one segmentation, so a re-capture at a different epoch size must never
    restore the old run's snapshots.  Callers with a reader in hand pass
    ``reader.meta.epoch_size``.
    """
    return {"workload": workload, "n_cpus": n_cpus, "seed": seed,
            "size": size, "organisation": organisation, "scale": scale,
            "warmup": warmup, "epoch_size": epoch_size}


class CheckpointStore:
    """Directory-per-run store under ``<cache root>/checkpoints``."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        base = Path(root) if root is not None else default_cache_root()
        self.root = base / CHECKPOINTS_SUBDIR
        self.version = f"{CHECKPOINT_FORMAT_VERSION}-{__version__}"

    # ------------------------------------------------------------------ #
    @property
    def version_dir(self) -> Path:
        return self.root / f"v{self.version}"

    def path_for(self, params: Dict[str, Any]) -> Path:
        """The directory the checkpoints of one run live in."""
        return self.version_dir / params_slug(params)

    # ------------------------------------------------------------------ #
    # content-addressed chunks and chain manifests (delta checkpoints)
    # ------------------------------------------------------------------ #
    @property
    def chunk_dir(self) -> Path:
        return self.version_dir / CHUNKS_SUBDIR

    def chunk_path(self, digest: str) -> Path:
        return self.chunk_dir / digest[:2] / digest

    def write_chunk(self, payload: Any) -> str:
        """Persist one section payload by content; returns its digest.

        A chunk whose digest already exists on disk is not rewritten —
        that is the whole-point dedupe between consecutive boundaries of
        one run and between runs sharing a simulation prefix.
        """
        digest, blob = encode_chunk(payload)
        path = self.chunk_path(digest)
        if path.is_file():
            STATS.chunk_dedup_hits += 1
            return digest
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_atomic(path, blob)
        STATS.chunk_writes += 1
        return digest

    def read_chunk(self, digest: str) -> Any:
        """Load and verify one chunk; raises ``CheckpointCorruptError``.

        A torn chunk (digest mismatch) is unlinked so the next writer
        regenerates it instead of dedupe-skipping the bad file.
        """
        path = self.chunk_path(digest)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise CheckpointCorruptError(
                f"missing chunk {digest[:12]}: {exc}") from exc
        try:
            return decode_chunk(blob, digest)
        except CheckpointCorruptError:
            try:
                path.unlink()
            except OSError:
                pass
            raise

    def chunk_files(self) -> List[Path]:
        """Every chunk file across every version directory."""
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.glob(f"v*/{CHUNKS_SUBDIR}/*/*")
                      if p.is_file())

    def chain_file_for(self, params: Dict[str, Any], epoch: int) -> Path:
        return self.path_for(params) / chain_name(epoch)

    def chain_manifest_path(self, params: Dict[str, Any],
                            epoch: int) -> Optional[Path]:
        """The manifest path at ``epoch`` if one exists on disk."""
        path = self.chain_file_for(params, epoch)
        return path if path.is_file() else None

    def save_chain_manifest(self, params: Dict[str, Any], epoch: int,
                            manifest: Dict[str, Any]) -> Path:
        path = self.chain_file_for(params, epoch)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
        self._write_atomic(path, blob)
        return path

    def load_chain_manifest(self, params: Dict[str, Any],
                            epoch: int) -> Optional[Dict[str, Any]]:
        """The manifest dict at ``epoch``, or ``None``; corrupt JSON is a
        warn-and-drop miss like any other unreadable checkpoint file."""
        path = self.chain_file_for(params, epoch)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._drop(path, CheckpointCorruptError(str(exc)))
            return None
        if not isinstance(manifest, dict) or "sections" not in manifest:
            self._drop(path, CheckpointCorruptError("not a chain manifest"))
            return None
        return manifest

    @staticmethod
    def _write_atomic(path: Path, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------ #
    def load(self, params: Dict[str, Any],
             epoch: int) -> Optional[Dict[str, Any]]:
        """The snapshot state at ``epoch``, or ``None`` on miss.

        Folds the delta chain ending at ``epoch`` (via
        :func:`repro.checkpoint.delta.load_chain`).  A corrupt or truncated
        manifest or chunk anywhere on the way is dropped with a warning and
        treated as a miss, so an interrupted writer can never wedge later
        runs.
        """
        from . import delta  # function-level: delta imports this module
        path = self.chain_file_for(params, epoch)
        if not path.is_file():
            STATS.misses += 1
            return None
        manifest = self.load_chain_manifest(params, epoch)
        if manifest is None:
            return None  # already warned/dropped/counted
        try:
            state = delta.load_chain(self, params, epoch, manifest=manifest)
        except CheckpointCorruptError as exc:
            self._drop(path, exc)
            return None
        STATS.loads += 1
        return state

    def _drop(self, path: Path, exc: Exception) -> None:
        warnings.warn(
            f"dropping unreadable checkpoint {path} "
            f"({type(exc).__name__}: {exc}); the run will simulate from an "
            f"earlier epoch instead", RuntimeWarning, stacklevel=3)
        try:
            path.unlink()
        except OSError:
            pass
        STATS.drops += 1
        STATS.misses += 1

    # ------------------------------------------------------------------ #
    @staticmethod
    def epochs_in(run_dir: Path) -> List[int]:
        """Sorted epoch boundaries with a chain manifest in one run directory."""
        if not run_dir.is_dir():
            return []
        found = {parse_chain_name(p.name) for p in run_dir.iterdir()
                 if p.is_file()}
        return sorted(epoch for epoch in found if epoch >= 0)

    def epochs(self, params: Dict[str, Any]) -> List[int]:
        """Sorted epoch boundaries with a stored checkpoint for this run."""
        return self.epochs_in(self.path_for(params))

    def latest(self, params: Dict[str, Any],
               max_epoch: Optional[int] = None
               ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The newest loadable checkpoint ``(epoch, state)``, or ``None``.

        ``max_epoch`` bounds the search (inclusive) — a resume must not
        restore state from beyond the range it intends to simulate.  Corrupt
        files encountered on the way are dropped and the next older epoch is
        tried, so one bad file degrades resume granularity instead of
        failing the run.
        """
        for epoch in reversed(self.epochs(params)):
            if max_epoch is not None and epoch > max_epoch:
                continue
            state = self.load(params, epoch)
            if state is not None:
                return epoch, state
        return None

    def drop_run(self, params: Dict[str, Any]) -> int:
        """Remove every checkpoint of one run; returns the number removed."""
        run_dir = self.path_for(params)
        removed = len(self.epochs(params))
        shutil.rmtree(run_dir, ignore_errors=True)
        return removed

    # ------------------------------------------------------------------ #
    def runs(self) -> List[Path]:
        """All run directories holding checkpoints, across every version."""
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.glob("v*/*")
                      if p.is_dir() and p.name != CHUNKS_SUBDIR)

    def entries(self) -> List[Path]:
        """All chain manifests across every version."""
        return sorted(p for run in self.runs() for p in run.iterdir()
                      if p.is_file() and parse_chain_name(p.name) >= 0)

    def size_bytes(self) -> int:
        """Total bytes on disk: checkpoint entries plus shared chunks."""
        return (sum(p.stat().st_size for p in self.entries())
                + sum(p.stat().st_size for p in self.chunk_files()))

    def entry_size(self, params: Dict[str, Any], epoch: int) -> int:
        """Bytes this boundary occupies: its manifest plus the chunks it
        references (shared chunks counted in full here)."""
        total = 0
        chain = self.chain_file_for(params, epoch)
        if chain.is_file():
            total += chain.stat().st_size
            manifest = self.load_chain_manifest(params, epoch)
            if manifest is not None:
                for spec in manifest["sections"].values():
                    chunk = self.chunk_path(spec["chunk"])
                    if chunk.is_file():
                        total += chunk.stat().st_size
        return total

    def entry_kind(self, params: Dict[str, Any], epoch: int) -> str:
        """``"full"``, ``"delta"``, or ``"?"`` for one stored boundary."""
        manifest = self.load_chain_manifest(params, epoch)
        if manifest is not None:
            return str(manifest.get("kind", "?"))
        return "?"

    def clear(self) -> int:
        """Remove every version directory; returns the number of files."""
        removed = len(self.entries())
        if self.root.is_dir():
            for child in self.root.glob("v*"):
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
        return removed

    def describe(self) -> str:
        n = len(self.entries())
        runs = len(self.runs())
        chunks = len(self.chunk_files())
        return (f"checkpoint store {self.root} (current version "
                f"v{self.version}): {n} checkpoint{'' if n == 1 else 's'} "
                f"across {runs} run{'' if runs == 1 else 's'}, "
                f"{chunks} chunk{'' if chunks == 1 else 's'}, "
                f"{self.size_bytes() / 1024:.1f} KiB")


def get_checkpoint_store(cache_dir: Optional[str] = None
                         ) -> Optional[CheckpointStore]:
    """The checkpoint store to use, or ``None`` when disk caching is off.

    Thin delegate to the default :class:`~repro.api.session.Session`'s
    checkpoint store; ``cache_dir`` overrides the root for this store only.
    """
    from ..api.session import get_default_session
    session = get_default_session()
    if cache_dir:
        session = session.with_options(cache_dir=cache_dir)
    return session.checkpoint_store
