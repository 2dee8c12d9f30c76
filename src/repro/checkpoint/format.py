"""Versioned, compressed on-disk encoding of system snapshots.

A snapshot is stored as a delta-chain *manifest* (JSON, one per epoch
boundary, see :mod:`repro.checkpoint.delta`) over content-addressed
*chunks*: each chunk is one gzip-compressed pickle of a plain-structure
section payload, named by the sha256 of the uncompressed pickle.

The section payloads come from the ``snapshot()`` methods of the memory
models (:class:`~repro.mem.multichip.MultiChipSystem`,
:class:`~repro.mem.singlechip.SingleChipSystem`); they contain only builtin
containers and scalars, so the pickles are stable across refactors of the
model classes.  Bump :data:`CHECKPOINT_FORMAT_VERSION` whenever the layout
or any ``snapshot()`` schema changes incompatibly — the store namespaces
entries by this version (and the package version), so old checkpoints are
orphaned rather than restored into incompatible models.

gzip frames are written with ``mtime=0`` so encoding the same payload twice
produces byte-identical chunks (writers of identical state race benignly).
"""

from __future__ import annotations

import gzip
import hashlib
import pickle
from typing import Any, Tuple

#: Bump when the checkpoint payload layout (or any snapshot schema) changes
#: incompatibly.
CHECKPOINT_FORMAT_VERSION = 2

#: File-name suffix of one delta-chain manifest (JSON, referencing
#: content-addressed chunks; see :mod:`repro.checkpoint.delta`).
CHAIN_SUFFIX = ".chain.json"

#: A chain writes a ``full`` manifest every this many ``delta`` links, so
#: restoring any epoch folds a bounded number of manifests.
DELTA_FULL_EVERY = 8


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file is unreadable or inconsistent with its header."""


def chain_name(epoch: int) -> str:
    """File name of the chain manifest at epoch boundary ``epoch``."""
    if epoch < 0:
        raise ValueError("checkpoint epoch must be >= 0")
    return f"epoch-{epoch:06d}{CHAIN_SUFFIX}"


def parse_chain_name(name: str) -> int:
    """Epoch index encoded in a chain-manifest file name, or -1 when foreign."""
    if not (name.startswith("epoch-") and name.endswith(CHAIN_SUFFIX)):
        return -1
    digits = name[len("epoch-"):-len(CHAIN_SUFFIX)]
    return int(digits) if digits.isdigit() else -1


def encode_chunk(payload: Any) -> Tuple[str, bytes]:
    """Serialise one section payload into ``(digest, blob)``.

    The digest addresses the *uncompressed* pickle, so identical payloads
    dedupe to one chunk file regardless of when (or by which run) they were
    written; the blob is deterministic gzip framing (``mtime=0``, level 1:
    chunk writes sit on the simulation's critical path, and snapshots
    compress well even at level 1).
    """
    raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(raw).hexdigest()
    return digest, gzip.compress(raw, compresslevel=1, mtime=0)


def decode_chunk(blob: bytes, digest: str) -> Any:
    """Decode a chunk blob, verifying it hashes to ``digest``.

    Raises :class:`CheckpointCorruptError` on a truncated frame, an
    unpicklable payload, or a digest mismatch (a torn write under the
    expected name), so chain loaders have one error to warn-and-drop on.
    """
    try:
        raw = gzip.decompress(blob)
    except (OSError, EOFError) as exc:
        raise CheckpointCorruptError(f"unreadable chunk {digest[:12]}: "
                                     f"{exc}") from exc
    actual = hashlib.sha256(raw).hexdigest()
    if actual != digest:
        raise CheckpointCorruptError(
            f"chunk content hashes to {actual[:12]}, expected {digest[:12]} "
            f"(torn or tampered write)")
    try:
        return pickle.loads(raw)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
            IndexError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"unpicklable chunk {digest[:12]}: "
                                     f"{exc}") from exc
