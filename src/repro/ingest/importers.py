"""External trace importers: adapt foreign dump formats to the trace store.

Every importer turns a foreign memory-access dump into the package's
canonical :class:`~repro.mem.records.Access` stream, which then flows
chunk-wise through the existing :class:`~repro.trace.capture.CaptureWriter`
into the columnar :class:`~repro.trace.store.TraceStore` — one epoch of
buffering, atomic commit, exactly like a live capture.  The committed trace
sits under a synthetic ``(workload="import:<name>", n_cpus, seed, size)``
key plus a :mod:`provenance <repro.ingest.provenance>` sidecar, so every
downstream layer (replay, ``process_chunk``, checkpoints, epoch summaries,
specs, plans, all executors) treats it exactly like a captured synthetic
stream.

Importers register in :data:`IMPORTERS` via :func:`register_importer`; three
adapters ship built-in:

``valgrind`` (aliases ``lackey``, ``valgrind-lackey``)
    The text output of ``valgrind --tool=lackey --trace-mem=yes``:
    ``I``/``L``/``S``/``M`` lines carrying ``<hex addr>,<size>``.  Lackey
    traces are single-threaded, so instructions are dealt round-robin
    across the target CPUs (each instruction's data accesses stay with it).

``champsim`` (alias ``champsim-records``)
    ChampSim-style fixed-width binary records (24 bytes little-endian:
    ip ``u64``, address ``u64``, is_write ``u8``, cpu ``u8``, size
    ``u16``, 4 pad bytes).  A truncated trailing record is skipped with a
    warning, matching the store's warn-and-drop policy.

``csv`` / ``jsonl``
    A generic row schema — ``addr`` required (hex with ``0x`` or decimal),
    ``cpu``/``size``/``kind``/``thread``/``icount`` optional with the
    :class:`~repro.mem.records.Access` defaults; ``kind`` accepts numbers
    or :class:`~repro.mem.records.AccessKind` names.

All importers read ``.gz`` and ``.xz`` sources transparently (suffix
dispatch — no magic-byte sniffing, so a mis-suffixed file fails loudly
instead of importing garbage); provenance hashes the compressed file as it
sits on disk.

Corrupt input is never fatal: each importer skips unparseable records,
counting them (and warning on the first), so a partially damaged dump still
imports the records it can prove out — per the store policy that broken data
degrades to less data, not to a broken pipeline.
"""

from __future__ import annotations

import csv as _csv
import gzip
import json
import lzma
import re
import struct
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from ..api.registry import Registry
from ..mem.records import Access, AccessKind
from ..trace.format import DEFAULT_EPOCH_SIZE
from ..trace.store import STATS, TraceStore, trace_params
from .provenance import build_provenance, hash_file, write_provenance

#: Registry of trace importers: ``IMPORTERS.get(fmt)() -> TraceImporter``.
IMPORTERS = Registry("importer")


def register_importer(name: str, aliases: Tuple[str, ...] = ()):
    """Class decorator adding a :class:`TraceImporter` to :data:`IMPORTERS`."""
    return IMPORTERS.decorator(name, aliases=aliases)


class TraceIngestError(ValueError):
    """An import cannot proceed (unknown format, empty file, key clash)."""


#: Compression suffixes importers decompress transparently.
COMPRESSED_SUFFIXES = (".gz", ".xz")

_OPENERS = {".gz": gzip.open, ".xz": lzma.open}


def open_text(source: Path, newline: Optional[str] = None):
    """Open a trace dump for text reading, decompressing by suffix."""
    opener = _OPENERS.get(Path(source).suffix)
    if opener is not None:
        return opener(source, "rt", encoding="utf-8", errors="replace",
                      newline=newline)
    return open(source, "r", encoding="utf-8", errors="replace",
                newline=newline)


def open_binary(source: Path):
    """Open a trace dump for binary reading, decompressing by suffix."""
    opener = _OPENERS.get(Path(source).suffix)
    if opener is not None:
        return opener(source, "rb")
    return open(source, "rb")


@dataclass
class ImportStats:
    """What one importer pass saw in the source file."""

    records: int = 0
    skipped: int = 0


class TraceImporter:
    """Base class for format adapters.

    Subclasses set :attr:`name` and implement :meth:`iter_accesses`, a
    generator over :class:`~repro.mem.records.Access` records.  The base
    class provides the shared corruption policy: :meth:`skip` counts a bad
    record and warns once per file, so a damaged dump degrades to fewer
    records instead of a failed import.
    """

    #: Canonical format name (matches the registry entry).
    name: str = "base"

    def __init__(self) -> None:
        self.stats = ImportStats()
        self._warned = False

    def skip(self, source: Path, detail: str) -> None:
        """Record one corrupt/unparseable record (warn on the first)."""
        self.stats.skipped += 1
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"{self.name} import of {source}: skipping corrupt record "
                f"({detail}); further corrupt records are counted silently",
                RuntimeWarning, stacklevel=3)

    def remap_cpu(self, cpu: int, n_cpus: int) -> int:
        """Fold a foreign CPU id onto the target CPU count (DMA stays -1)."""
        if cpu < 0:
            return -1
        return cpu % n_cpus

    def iter_accesses(self, source: Path,
                      options: Dict[str, Any]) -> Iterator[Access]:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# valgrind --tool=lackey --trace-mem=yes
# --------------------------------------------------------------------------- #
_LACKEY_LINE = re.compile(r"^\s*([ILSM])\s+([0-9a-fA-F]+),(\d+)\s*$")


@register_importer("valgrind", aliases=("lackey", "valgrind-lackey"))
class ValgrindLackeyImporter(TraceImporter):
    """Text importer for valgrind's lackey ``--trace-mem`` output.

    ``I`` lines are instruction fetches (``icount=1``); ``L``/``S`` are
    loads/stores attributed to the current instruction's CPU (``icount=0`` —
    the fetch already carried the instruction count); ``M`` (modify) expands
    to a load followed by a store of the same location.  Banner lines
    (``==pid==``) and blank lines are not records and are skipped silently;
    anything else is counted as corrupt.
    """

    name = "valgrind"

    def iter_accesses(self, source: Path,
                      options: Dict[str, Any]) -> Iterator[Access]:
        n_cpus = int(options.get("n_cpus", 1))
        cpu = 0
        instructions = 0
        with open_text(source) as fh:
            for line in fh:
                stripped = line.strip()
                if not stripped or stripped.startswith("=="):
                    continue
                match = _LACKEY_LINE.match(line)
                if match is None:
                    self.skip(source, f"unparseable line {stripped[:40]!r}")
                    continue
                op, addr_hex, size = match.groups()
                addr = int(addr_hex, 16)
                size_b = int(size)
                self.stats.records += 1
                if op == "I":
                    # Deal instructions round-robin over the target CPUs so
                    # a single-threaded dump still exercises every node.
                    cpu = instructions % n_cpus
                    instructions += 1
                    yield Access(cpu=cpu, addr=addr, size=size_b,
                                 kind=AccessKind.IFETCH, thread=cpu,
                                 icount=1)
                elif op == "L":
                    yield Access(cpu=cpu, addr=addr, size=size_b,
                                 kind=AccessKind.READ, thread=cpu, icount=0)
                elif op == "S":
                    yield Access(cpu=cpu, addr=addr, size=size_b,
                                 kind=AccessKind.WRITE, thread=cpu, icount=0)
                else:  # M: atomic read-modify-write
                    yield Access(cpu=cpu, addr=addr, size=size_b,
                                 kind=AccessKind.READ, thread=cpu, icount=0)
                    yield Access(cpu=cpu, addr=addr, size=size_b,
                                 kind=AccessKind.WRITE, thread=cpu, icount=0)


# --------------------------------------------------------------------------- #
# ChampSim-style binary record dumps
# --------------------------------------------------------------------------- #
#: One record: ip u64, address u64, is_write u8, cpu u8, size u16, 4 pad.
CHAMPSIM_RECORD = struct.Struct("<QQBBH4x")


@register_importer("champsim", aliases=("champsim-records",))
class ChampSimImporter(TraceImporter):
    """Binary importer for ChampSim-style fixed-width record dumps.

    Each 24-byte record carries one memory operation plus the instruction
    pointer that issued it; the ``ip`` field is only used to detect
    instruction boundaries (``icount`` increments when ``ip`` changes).
    An ``is_write`` flag outside {0, 1} marks a corrupt record; trailing
    bytes that do not fill a whole record are a truncated dump — both are
    skipped with a warning.
    """

    name = "champsim"

    def iter_accesses(self, source: Path,
                      options: Dict[str, Any]) -> Iterator[Access]:
        n_cpus = int(options.get("n_cpus", 1))
        record = CHAMPSIM_RECORD
        last_ip: Optional[int] = None
        with open_binary(source) as fh:
            while True:
                raw = fh.read(record.size)
                if not raw:
                    break
                if len(raw) < record.size:
                    self.skip(source,
                              f"truncated trailing record ({len(raw)} of "
                              f"{record.size} bytes)")
                    break
                ip, addr, is_write, cpu, size_b = record.unpack(raw)
                if is_write not in (0, 1):
                    self.skip(source, f"is_write={is_write} out of range")
                    continue
                self.stats.records += 1
                icount = 1 if ip != last_ip else 0
                last_ip = ip
                mapped = self.remap_cpu(cpu, n_cpus)
                yield Access(cpu=mapped, addr=addr, size=size_b or 8,
                             kind=(AccessKind.WRITE if is_write
                                   else AccessKind.READ),
                             thread=max(mapped, 0), icount=icount)


# --------------------------------------------------------------------------- #
# Generic CSV / JSONL row schema
# --------------------------------------------------------------------------- #
#: Row fields accepted by the generic importers (addr is required).
ROW_FIELDS = ("cpu", "addr", "size", "kind", "thread", "icount")

_KIND_NAMES = {kind.name.lower(): kind for kind in AccessKind}


def _parse_int(value: Any) -> int:
    """Int from a row value; hex accepted with an ``0x`` prefix."""
    if isinstance(value, str):
        text = value.strip().lower()
        return int(text, 16) if text.startswith("0x") else int(text)
    return int(value)


def _parse_kind(value: Any) -> AccessKind:
    if isinstance(value, str) and not value.strip().lstrip("-").isdigit():
        try:
            return _KIND_NAMES[value.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown access kind {value!r}") from None
    return AccessKind(_parse_int(value))


class RowImporter(TraceImporter):
    """Shared row-to-Access conversion for the CSV and JSONL adapters."""

    def iter_rows(self, source: Path) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Yield ``(line_number, row dict)`` pairs; rows may be malformed."""
        raise NotImplementedError

    def iter_accesses(self, source: Path,
                      options: Dict[str, Any]) -> Iterator[Access]:
        n_cpus = int(options.get("n_cpus", 1))
        for lineno, row in self.iter_rows(source):
            if row is None:
                self.skip(source, f"unparseable row at line {lineno}")
                continue
            try:
                addr = _parse_int(row["addr"])
                cpu = self.remap_cpu(_parse_int(row.get("cpu", 0)), n_cpus)
                access = Access(
                    cpu=cpu, addr=addr,
                    size=_parse_int(row.get("size", 8)),
                    kind=_parse_kind(row.get("kind", int(AccessKind.READ))),
                    thread=_parse_int(row.get("thread", max(cpu, 0))),
                    icount=_parse_int(row.get("icount", 4)))
            except (KeyError, TypeError, ValueError) as exc:
                self.skip(source, f"bad row at line {lineno}: {exc}")
                continue
            self.stats.records += 1
            yield access


@register_importer("csv")
class CsvImporter(RowImporter):
    """CSV importer: a header row naming a subset of :data:`ROW_FIELDS`."""

    name = "csv"

    def iter_rows(self, source: Path) -> Iterator[Tuple[int, Dict[str, Any]]]:
        with open_text(source, newline="") as fh:
            reader = _csv.DictReader(fh)
            for lineno, row in enumerate(reader, start=2):
                if row.get("addr") in (None, ""):
                    yield lineno, None
                    continue
                yield lineno, {k: v for k, v in row.items()
                               if k in ROW_FIELDS and v not in (None, "")}


@register_importer("jsonl", aliases=("ndjson",))
class JsonlImporter(RowImporter):
    """JSONL importer: one JSON object per line with :data:`ROW_FIELDS` keys."""

    name = "jsonl"

    def iter_rows(self, source: Path) -> Iterator[Tuple[int, Dict[str, Any]]]:
        with open_text(source) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    yield lineno, None
                    continue
                yield lineno, (row if isinstance(row, dict) else None)


# --------------------------------------------------------------------------- #
# The workload-registry face of an imported trace
# --------------------------------------------------------------------------- #
class MissingImportedTraceError(RuntimeError):
    """An ``import:`` workload was asked to generate, but no trace exists."""


class ImportedTraceWorkload:
    """The ``import:<name>`` entry the ``WORKLOADS`` registry hands out.

    Imported streams cannot be *generated* — they exist only as committed
    traces — so this satisfies the workload consumption contract
    (``iter_accesses``) by replaying from the session's trace store.  The
    replay pipeline never gets here when the trace exists (the store
    reader wins first); it is reached only by a capture stage whose trace
    was deleted, by a run with replay off, or by the re-generation
    fallback after a corrupt replay — and then either replays the store
    copy or fails with re-import guidance instead of silently fabricating
    data.
    """

    def __init__(self, name: str, n_cpus: int, seed: int = 42,
                 size: str = "default") -> None:
        self.name = name
        self.workload = f"import:{name}"
        self.n_cpus = n_cpus
        self.seed = seed
        self.size = size

    def _reader(self):
        from ..trace.store import get_trace_store  # lazy: pulls api.session
        store = get_trace_store()
        if store is None:
            return None
        return store.open(trace_params(self.workload, self.n_cpus,
                                       self.seed, self.size))

    def iter_accesses(self) -> Iterator[Access]:
        reader = self._reader()
        if reader is None:
            raise MissingImportedTraceError(
                f"no imported trace for {self.workload!r} "
                f"(cpus={self.n_cpus}, size={self.size}, seed={self.seed}); "
                f"run `python -m repro trace import FILE --format ... "
                f"--name {self.name} --cpus {self.n_cpus} "
                f"--size {self.size} --seed {self.seed}` first")
        return reader.iter_accesses()


# --------------------------------------------------------------------------- #
# Orchestration: foreign file -> committed trace + provenance sidecar
# --------------------------------------------------------------------------- #
@dataclass
class ImportResult:
    """Outcome of one :func:`import_trace` call."""

    params: Dict[str, Any]
    path: Path
    n_accesses: int
    skipped: int
    elapsed: float
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def workload(self) -> str:
        return str(self.params["workload"])

    def describe(self) -> str:
        return (f"imported {self.n_accesses:,} accesses as "
                f"{self.workload!r} (cpus={self.params['n_cpus']}, "
                f"size={self.params['size']}, seed={self.params['seed']}) "
                f"in {self.elapsed:.2f}s"
                + (f", {self.skipped} corrupt record"
                   f"{'' if self.skipped == 1 else 's'} skipped"
                   if self.skipped else ""))


def sanitize_import_name(name: str) -> str:
    """A trace-key-safe import name (used as ``import:<name>``)."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "-", name.strip()).strip("-.")
    if not cleaned:
        raise TraceIngestError(f"cannot derive an import name from {name!r}")
    return cleaned


def import_trace(store: TraceStore, source, fmt: str, *,
                 name: Optional[str] = None, n_cpus: int = 16,
                 seed: int = 42, size: str = "small",
                 epoch_size: int = DEFAULT_EPOCH_SIZE,
                 force: bool = False) -> ImportResult:
    """Stream one foreign dump into ``store`` under an ``import:`` key.

    The file is parsed once by the format's registered importer and written
    chunk-wise through a staged :class:`~repro.trace.capture.CaptureWriter`
    (O(epoch) memory, atomic commit); the committed directory then gains a
    provenance sidecar recording the source path, format, options, and the
    file's SHA-256.  ``n_cpus``/``seed``/``size`` become the synthetic trace
    key — import once per CPU count the target spec's organisations use.

    Raises :class:`TraceIngestError` for an unknown format, a missing or
    empty source, or an existing trace at the same key without ``force``.
    """
    source = Path(source)
    if not source.is_file():
        raise TraceIngestError(f"no such trace file: {source}")
    try:
        importer_cls = IMPORTERS.get(fmt)
    except KeyError as exc:
        raise TraceIngestError(exc.args[0]) from None
    importer: TraceImporter = importer_cls()
    # "trace.csv.gz" should default to the name "trace", not "trace.csv".
    stem = (Path(source.stem).stem
            if source.suffix in COMPRESSED_SUFFIXES else source.stem)
    workload = f"import:{sanitize_import_name(name or stem)}"
    params = trace_params(workload, n_cpus, seed, size)
    if store.contains(params):
        if not force:
            raise TraceIngestError(
                f"trace {workload!r} (cpus={n_cpus}, size={size}, "
                f"seed={seed}) already exists; pass force=True/--force to "
                f"re-import")
        store.drop(params)
    options = {"n_cpus": n_cpus, "seed": seed, "size": size,
               "epoch_size": epoch_size}
    sha256 = hash_file(source)
    start = time.perf_counter()
    with store.writer(params, epoch_size=epoch_size) as writer:
        written = writer.write_all(importer.iter_accesses(source, options))
        if written == 0:
            # Raising aborts the staged capture via the context manager.
            raise TraceIngestError(
                f"{source} produced no importable records "
                f"({importer.stats.skipped} skipped); refusing to commit "
                f"an empty trace")
    elapsed = time.perf_counter() - start
    STATS.imports += 1
    path = store.path_for(params)
    provenance = build_provenance(source, IMPORTERS.canonical(fmt) or fmt,
                                  options, sha256, written,
                                  importer.stats.skipped)
    write_provenance(path, provenance)
    return ImportResult(params=params, path=path, n_accesses=written,
                        skipped=importer.stats.skipped, elapsed=elapsed,
                        provenance=provenance)
