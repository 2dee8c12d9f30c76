"""Delta-encoded, content-addressed checkpoint chains.

A whole snapshot copies all system state every time it is taken, and its
dominant component — the accumulated miss trace — grows linearly with the
run, so snapshotting many boundaries of a long trace whole would cost more
than the simulation itself.  This module stores snapshots as *chains*
instead:

* a snapshot is split into **sections** (each cache, each classification
  history, each miss trace) plus inline scalars;
* each section payload is pickled and stored as a **content-addressed
  chunk** (``sha256`` of the pickle) under the store's shared ``chunks/``
  directory — a section that did not change between boundaries re-uses the
  previous chunk byte-for-byte, and two *runs* whose state coincides (a
  shared-prefix warm start and its publisher) dedupe against each other;
* miss-trace sections are **append-encoded**: records and interned
  functions only ever grow during a run, so a delta link stores just the
  tail beyond the base boundary's counts instead of the whole trace;
* sorted row tables (the 4C+I/O classification history: flat lists of int
  rows keyed under one dict) are **rows-encoded**: a delta link stores the
  set difference against the previous boundary — churn per epoch is
  bounded by the epoch's accesses while the tables themselves grow with
  the run.  The fold ``sorted((base - removed) | added)`` reproduces the
  new table *exactly* whenever both tables are duplicate-free and sorted —
  an identity, not an assumption — and the encoder checks precisely those
  two properties, falling back to a whole chunk for any section that
  lacks them;
* a JSON **chain manifest** per boundary records the section -> chunk map;
  every :data:`~repro.checkpoint.format.DELTA_FULL_EVERY` links the chain
  restarts from a ``full`` manifest so restoring any epoch folds a bounded
  number of links.

:func:`load_chain` folds a chain back into the exact snapshot dict —
bit-identical (including key order) to the state that was saved — and the
store's ``load``/``latest`` restore through it.  A torn chunk or manifest is
a warn-and-drop miss, so ``latest`` transparently falls back to the nearest
earlier loadable (full) boundary.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .format import (CHAIN_SUFFIX, CHECKPOINT_FORMAT_VERSION,
                     CheckpointCorruptError, DELTA_FULL_EVERY,
                     parse_chain_name)

#: Keys that mark a section payload as a MissTrace ``state_dict()``; only
#: such sections are append-encoded (everything else is stored whole and
#: relies on content-address dedupe for the unchanged case).
_MISS_TRACE_KEYS = frozenset(("context", "instructions", "functions",
                              "records"))

#: Scalar snapshot values stored inline in the manifest instead of chunks.
_SCALAR_TYPES = (bool, int, float, str, type(None))


def split_state(state: Dict[str, Any]
                ) -> Tuple[Dict[str, Any], Dict[str, Any], List[List[Any]]]:
    """Split a snapshot dict into ``(scalars, sections, order)``.

    ``order`` records how to reassemble the original dict exactly — one
    ``["scalar", key]``, ``["section", key]``, or ``["list", key, n]`` entry
    per top-level key, in the original key order — so the folded state is
    bit-identical to the saved one (dict order included).  Lists of dicts
    (the per-cache ``l1s``/``l2s``) become one section per element, so a
    single touched cache re-chunks alone.
    """
    scalars: Dict[str, Any] = {}
    sections: Dict[str, Any] = {}
    order: List[List[Any]] = []
    for key, value in state.items():
        if isinstance(value, _SCALAR_TYPES):
            scalars[key] = value
            order.append(["scalar", key])
        elif (isinstance(value, list) and value
              and all(isinstance(element, dict) for element in value)):
            for index, element in enumerate(value):
                sections[f"{key}[{index}]"] = element
            order.append(["list", key, len(value)])
        else:
            sections[key] = value
            order.append(["section", key])
    return scalars, sections, order


def join_state(scalars: Dict[str, Any], sections: Dict[str, Any],
               order: List[List[Any]]) -> Dict[str, Any]:
    """Reassemble a snapshot dict from :func:`split_state` parts."""
    state: Dict[str, Any] = {}
    for entry in order:
        kind, key = entry[0], entry[1]
        if kind == "scalar":
            state[key] = scalars[key]
        elif kind == "list":
            state[key] = [sections[f"{key}[{i}]"] for i in range(entry[2])]
        else:
            state[key] = sections[key]
    return state


def is_miss_trace(payload: Any) -> bool:
    """Whether a section payload is a MissTrace ``state_dict()``."""
    return isinstance(payload, dict) and _MISS_TRACE_KEYS <= set(payload)


def _row_kind(rows: List[Any]) -> Optional[str]:
    """``"int"``/``"list"`` from the first row of a flat row list.

    Deliberately O(1): only the first row is inspected.  A table whose
    later rows break the shape fails :func:`encode_rows`'s strict
    ordering check (comparing an int against a list raises ``TypeError``,
    which the encoder turns into a whole-chunk fallback), so the cheap
    guess never compromises exactness.
    """
    if not rows:
        return "int"
    first = rows[0]
    if isinstance(first, bool):
        return None
    if isinstance(first, int):
        return "int"
    if isinstance(first, list) and all(
            isinstance(cell, int) and not isinstance(cell, bool)
            for cell in first):
        return "list"
    return None


def is_rows_table(payload: Any) -> bool:
    """Whether a section payload is a dict of sorted flat row tables.

    Matches the classification-history shape: string keys mapping to
    scalars or to lists whose elements are all ints or all flat
    lists-of-ints, with at least one list present.  Miss traces (nested,
    append-encoded instead) and arbitrary sections do not match.
    """
    if not isinstance(payload, dict) or is_miss_trace(payload):
        return False
    saw_table = False
    for key, value in payload.items():
        if not isinstance(key, str):
            return False
        if isinstance(value, _SCALAR_TYPES):
            continue
        if not isinstance(value, list) or _row_kind(value) is None:
            return False
        saw_table = True
    return saw_table


def encode_rows(base: Dict[str, Any],
                payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The set-difference payload of a rows-encoded section, or ``None``.

    ``None`` means the pair is not diffable (key sets differ, a key
    changed shape, or a table has duplicate or unsorted rows) and the
    caller must fall back to a whole chunk.  The diff records, per table,
    the rows added relative to ``base`` and the *indices* of the removed
    base rows (indices pickle far smaller than repeating multi-int rows —
    an updated row costs one new row plus one small int, not two rows);
    because both tables are checked to be duplicate-free and the payload
    strictly sorted, :func:`fold_rows`'s
    ``sorted((base - removed) | added)`` rebuilds the new table exactly.
    """
    if list(base) != list(payload):
        return None
    scalars: Dict[str, Any] = {}
    tables: Dict[str, Dict[str, Any]] = {}
    try:
        for key, value in payload.items():
            if isinstance(value, _SCALAR_TYPES):
                scalars[key] = value
                continue
            kind = _row_kind(value)
            if kind is None or not isinstance(base.get(key), list):
                return None
            old = base[key]
            if any(a >= b for a, b in zip(value, value[1:])):
                return None  # unsorted or duplicate rows: fold would reorder
            if kind == "list":
                old_rows = [tuple(row) for row in old]
                new_set = {tuple(row) for row in value}
            else:
                old_rows = list(old)
                new_set = set(value)
            old_set = set(old_rows)
            if len(old_set) != len(old):
                return None  # duplicate rows in the base: fold would drop them
            removed = old_set - new_set
            tables[key] = {
                "kind": kind,
                "add": sorted(new_set - old_set),
                "del": sorted(index for index, row in enumerate(old_rows)
                              if row in removed)}
    except TypeError:  # heterogeneous rows: unhashable or unorderable
        return None
    return {"keys": list(payload), "scalars": scalars, "tables": tables}


def fold_rows(base: Dict[str, Any],
              diff: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a rows-encoded section payload from its base and a diff."""
    state: Dict[str, Any] = {}
    for key in diff["keys"]:
        if key in diff["scalars"]:
            state[key] = diff["scalars"][key]
            continue
        table = diff["tables"][key]
        dropped = set(table["del"])
        kept = [row for index, row in enumerate(base[key])
                if index not in dropped]
        if table["kind"] == "list":
            rows = {tuple(row) for row in kept}
            rows.update(tuple(row) for row in table["add"])
            state[key] = [list(row) for row in sorted(rows)]
        else:
            rows = set(kept)
            rows.update(table["add"])
            state[key] = sorted(rows)
    return state


def encode_append(payload: Dict[str, Any], base_records: int,
                  base_functions: int) -> Dict[str, Any]:
    """The tail-only payload of an append-encoded miss-trace section."""
    return {"context": payload["context"],
            "instructions": payload["instructions"],
            "functions": payload["functions"][base_functions:],
            "records": payload["records"][base_records:]}


def fold_append(base: Dict[str, Any], tail: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a full miss-trace payload from its base and a tail chunk."""
    return {"context": tail["context"],
            "instructions": tail["instructions"],
            "functions": list(base["functions"]) + list(tail["functions"]),
            "records": list(base["records"]) + list(tail["records"])}


class _PrevBoundary:
    """What the writer remembers about the last boundary it committed.

    Enough to *validate* the append property of miss-trace sections —
    counts plus the first/last record of the base — without holding the
    accumulated traces alive, plus the full payload of each rows-table
    section (bounded by the classifier tables, not the traces) so the next
    link can diff against it.  Unchanged non-trace sections need no
    bookkeeping: re-encoding them re-derives the same digest and the chunk
    write dedupes on the existing file.
    """

    def __init__(self, epoch: int, traces: Dict[str, Dict[str, Any]],
                 tables: Dict[str, Dict[str, Any]]) -> None:
        self.epoch = epoch
        self.traces = traces  # section -> {n_records, n_functions,
        #                                   functions, first, last}
        self.tables = tables  # section -> previous rows-table payload

    @staticmethod
    def trace_marks(payload: Dict[str, Any]) -> Dict[str, Any]:
        records = payload["records"]
        return {"n_records": len(records),
                "n_functions": len(payload["functions"]),
                "functions": [list(fn) for fn in payload["functions"]],
                "first": list(records[0]) if records else None,
                "last": list(records[-1]) if records else None}


def append_valid(marks: Dict[str, Any], payload: Dict[str, Any]) -> bool:
    """Whether ``payload`` extends the base the ``marks`` were taken from.

    Miss traces are append-only within a run, so the check is structural:
    the base's interned functions must be a prefix of the new ones and the
    base's first/last records must sit unchanged at their old positions.
    Any mismatch (a context that filtered or renumbered its records) simply
    disqualifies append encoding — the section falls back to a whole chunk.
    """
    records = payload["records"]
    functions = payload["functions"]
    n_rec, n_fn = marks["n_records"], marks["n_functions"]
    if len(records) < n_rec or len(functions) < n_fn:
        return False
    if functions[:n_fn] != marks["functions"]:
        return False
    if n_rec:
        if list(records[0]) != marks["first"]:
            return False
        if list(records[n_rec - 1]) != marks["last"]:
            return False
    return True


class DeltaChainWriter:
    """Commit successive boundary snapshots of one run as a delta chain.

    One writer per (store, params) run, fed boundaries in increasing epoch
    order — exactly the ``on_chunk`` cadence of
    :func:`~repro.checkpoint.replay.simulate_replay`.  The first boundary
    (and every :data:`DELTA_FULL_EVERY`-th after a full) writes a ``full``
    manifest; the rest write ``delta`` manifests whose miss-trace sections
    are append-encoded against the previous boundary.  Either kind lists
    *every* section, so only append sections need the chain walked at
    restore time; unchanged sections cost one manifest line and zero chunk
    bytes (the digest already exists).
    """

    def __init__(self, store: Any, params: Dict[str, Any],
                 full_every: int = DELTA_FULL_EVERY) -> None:
        if full_every < 1:
            raise ValueError("full_every must be >= 1")
        self.store = store
        self.params = dict(params)
        self.full_every = full_every
        self._prev: Optional[_PrevBoundary] = None
        self._links_since_full = 0

    def save(self, epoch: int, state: Dict[str, Any]) -> Path:
        from .store import STATS
        scalars, sections, order = split_state(state)
        prev = self._prev
        # A full link whenever there is no usable base: chain start, the
        # bounded-restore cadence, or a previous manifest that vanished
        # (e.g. a concurrent clear) — a delta against a missing base would
        # be unrestorable.
        kind = "delta"
        if (prev is None or self._links_since_full >= self.full_every
                or self.store.chain_manifest_path(self.params,
                                                  prev.epoch) is None):
            kind = "full"
        specs: Dict[str, Dict[str, Any]] = {}
        traces: Dict[str, Dict[str, Any]] = {}
        tables: Dict[str, Dict[str, Any]] = {}
        for name, payload in sections.items():
            spec: Dict[str, Any] = {}
            if (kind == "delta" and is_miss_trace(payload)
                    and name in prev.traces
                    and append_valid(prev.traces[name], payload)):
                marks = prev.traces[name]
                tail = encode_append(payload, marks["n_records"],
                                     marks["n_functions"])
                spec["append"] = {"base": prev.epoch,
                                  "records": marks["n_records"],
                                  "functions": marks["n_functions"]}
                spec["chunk"] = self.store.write_chunk(tail)
            else:
                diff = None
                if kind == "delta" and name in prev.tables:
                    diff = encode_rows(prev.tables[name], payload)
                if (diff is not None
                        and not any(table["add"] or table["del"]
                                    for table in diff["tables"].values())
                        and all(prev.tables[name][key] == value
                                for key, value in diff["scalars"].items())):
                    # Unchanged section: the whole chunk already exists, so
                    # re-deriving its digest costs zero new bytes, while an
                    # empty diff would be a new chunk file.
                    diff = None
                if diff is not None:
                    spec["rows"] = {"base": prev.epoch}
                    spec["chunk"] = self.store.write_chunk(diff)
                else:
                    spec["chunk"] = self.store.write_chunk(payload)
            specs[name] = spec
            if is_miss_trace(payload):
                traces[name] = _PrevBoundary.trace_marks(payload)
            elif is_rows_table(payload):
                tables[name] = payload
        manifest = {"format_version": CHECKPOINT_FORMAT_VERSION,
                    "epoch": int(epoch), "kind": kind,
                    "base": prev.epoch if kind == "delta" else None,
                    "params": self.params, "order": order,
                    "scalars": scalars, "sections": specs}
        path = self.store.save_chain_manifest(self.params, epoch, manifest)
        self._links_since_full = (0 if kind == "full"
                                  else self._links_since_full + 1)
        self._prev = _PrevBoundary(epoch, traces, tables)
        STATS.saves += 1
        if kind == "delta":
            STATS.delta_saves += 1
        return path


def _section_payload(store: Any, params: Dict[str, Any],
                     manifest: Dict[str, Any], name: str,
                     manifests: Dict[int, Dict[str, Any]]) -> Any:
    """Materialise one section of ``manifest``, folding append links.

    ``manifests`` memoises loaded manifests per fold so a chain of appends
    against the same base reads each manifest once.  Raises
    :class:`CheckpointCorruptError` when any link (manifest or chunk) of the
    section's chain is unreadable.
    """
    spec = manifest["sections"].get(name)
    if spec is None:
        raise CheckpointCorruptError(
            f"chain manifest at epoch {manifest['epoch']} has no section "
            f"{name!r}")
    payload = store.read_chunk(spec["chunk"])
    append = spec.get("append")
    rows = spec.get("rows")
    if append is None and rows is None:
        return payload
    link = append if append is not None else rows
    base_epoch = int(link["base"])
    base_manifest = manifests.get(base_epoch)
    if base_manifest is None:
        base_manifest = store.load_chain_manifest(params, base_epoch)
        if base_manifest is None:
            raise CheckpointCorruptError(
                f"delta section {name!r} at epoch {manifest['epoch']} "
                f"needs the missing base manifest at epoch {base_epoch}")
        manifests[base_epoch] = base_manifest
    base = _section_payload(store, params, base_manifest, name, manifests)
    if rows is not None:
        try:
            return fold_rows(base, payload)
        except (KeyError, TypeError) as exc:
            raise CheckpointCorruptError(
                f"rows section {name!r} at epoch {manifest['epoch']} "
                f"does not fold against its base: {exc}") from exc
    folded = fold_append(base, payload)
    if (len(folded["records"]) < int(append["records"])
            or len(folded["functions"]) < int(append["functions"])):
        raise CheckpointCorruptError(
            f"append section {name!r} at epoch {manifest['epoch']} folds "
            f"shorter than its declared base counts")
    return folded


def load_chain(store: Any, params: Dict[str, Any], epoch: int,
               manifest: Optional[Dict[str, Any]] = None
               ) -> Optional[Dict[str, Any]]:
    """Fold the chain ending at ``epoch`` back into the snapshot state.

    Returns ``None`` when no manifest exists at ``epoch``; raises
    :class:`CheckpointCorruptError` when the manifest or any chunk/base
    link it needs is unreadable (the store's ``load`` turns that into a
    warn-and-drop miss so ``latest`` falls back to an earlier boundary).
    """
    if manifest is None:
        manifest = store.load_chain_manifest(params, epoch)
        if manifest is None:
            return None
    if int(manifest.get("epoch", -1)) != epoch:
        raise CheckpointCorruptError(
            f"chain manifest holds epoch {manifest.get('epoch')}, "
            f"expected {epoch}")
    manifests: Dict[int, Dict[str, Any]] = {epoch: manifest}
    sections = {name: _section_payload(store, params, manifest, name,
                                       manifests)
                for name in manifest["sections"]}
    return join_state(manifest["scalars"], sections, manifest["order"])


# --------------------------------------------------------------------------- #
# maintenance: stats and garbage collection
# --------------------------------------------------------------------------- #
def iter_chain_manifests(store: Any):
    """Yield ``(path, manifest_dict)`` for every readable chain manifest.

    Walks every version directory (mirroring ``CheckpointStore.runs()``),
    reading manifests directly as JSON — maintenance must see chains of
    *other* format/package versions too, since their chunks share no
    namespace guard.  Unreadable manifests are skipped silently; the
    keyed ``load`` path owns warn-and-drop.
    """
    for run_dir in store.runs():
        for path in sorted(run_dir.iterdir()):
            if not (path.is_file() and parse_chain_name(path.name) >= 0):
                continue
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(manifest, dict) and "sections" in manifest:
                yield path, manifest


def referenced_digests(store: Any) -> Dict[str, int]:
    """Chunk digest -> number of manifest references across all chains."""
    refs: Dict[str, int] = {}
    for _path, manifest in iter_chain_manifests(store):
        for spec in manifest["sections"].values():
            digest = spec.get("chunk")
            if isinstance(digest, str):
                refs[digest] = refs.get(digest, 0) + 1
    return refs


def collect_garbage(store: Any) -> Tuple[int, int]:
    """Remove chunk files no chain manifest references.

    Returns ``(files_removed, bytes_freed)``.  Safe against concurrent
    readers of *referenced* chunks; a writer racing gc may need to rewrite
    a just-collected chunk (content addressing makes that benign).
    """
    refs = referenced_digests(store)
    removed = freed = 0
    for path in store.chunk_files():
        if path.name in refs:
            continue
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed += 1
        freed += size
    return removed, freed


def chain_stats(store: Any) -> Dict[str, Any]:
    """Aggregate chain/dedupe statistics for ``repro stats``.

    ``dedupe_ratio`` is manifest section references per unique referenced
    chunk — how many times the average chunk is shared (1.0 means no
    sharing at all).
    """
    refs = referenced_digests(store)
    full = delta = 0
    run_lengths: Dict[str, int] = {}
    for path, manifest in iter_chain_manifests(store):
        if manifest.get("kind") == "delta":
            delta += 1
        else:
            full += 1
        run = str(path.parent)
        run_lengths[run] = run_lengths.get(run, 0) + 1
    chunk_paths = store.chunk_files()
    referenced = sum(refs.values())
    return {
        "full_manifests": full,
        "delta_manifests": delta,
        "chains": len(run_lengths),
        "longest_chain": max(run_lengths.values(), default=0),
        "chunk_files": len(chunk_paths),
        "chunk_bytes": sum(p.stat().st_size for p in chunk_paths),
        "unreferenced_chunks": sum(1 for p in chunk_paths
                                   if p.name not in refs),
        "section_refs": referenced,
        "dedupe_ratio": (referenced / len(refs)) if refs else 0.0,
    }
