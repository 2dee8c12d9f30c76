"""CheckpointStore: keying, save/load/latest, corruption policy, clearing."""

import gzip
import pickle

import pytest

from repro.checkpoint import (CheckpointCorruptError, CheckpointStore,
                              DeltaChainWriter, STATS, chain_name,
                              checkpoint_params, get_checkpoint_store,
                              parse_chain_name)
from repro.checkpoint.format import decode_chunk, encode_chunk

PARAMS = checkpoint_params("Apache", 16, 42, "tiny", "multi-chip", 64, 0.25)
STATE = {"model": "multi-chip", "clock": 17, "sets": [[1, 2], [3, 4]]}


def save(store, params, epoch, state):
    """Commit one boundary (a fresh writer writes a ``full`` manifest)."""
    return DeltaChainWriter(store, params).save(epoch, state)


class TestFormat:
    def test_chunk_roundtrip(self):
        digest, blob = encode_chunk(STATE)
        assert decode_chunk(blob, digest) == STATE

    def test_chunk_encoding_is_deterministic(self):
        assert encode_chunk(STATE) == encode_chunk(STATE)

    def test_truncated_chunk_is_corrupt(self):
        digest, blob = encode_chunk(STATE)
        with pytest.raises(CheckpointCorruptError):
            decode_chunk(blob[:-5], digest)

    def test_digest_mismatch_is_corrupt(self):
        digest, _ = encode_chunk(STATE)
        _, other = encode_chunk(dict(STATE, clock=18))
        with pytest.raises(CheckpointCorruptError):
            decode_chunk(other, digest)

    def test_chain_names(self):
        assert parse_chain_name(chain_name(12)) == 12
        assert parse_chain_name("meta.json") == -1
        assert parse_chain_name("epoch-xyz.chain.json") == -1
        with pytest.raises(ValueError):
            chain_name(-1)


class TestStore:
    def test_miss_then_hit(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load(PARAMS, 1) is None
        save(store, PARAMS, 1, STATE)
        assert store.load(PARAMS, 1) == STATE
        assert store.epochs(PARAMS) == [1]

    def test_latest_prefers_newest_and_respects_bound(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for epoch in (2, 5, 9):
            save(store, PARAMS, epoch, dict(STATE, epoch=epoch))
        assert store.latest(PARAMS) == (9, dict(STATE, epoch=9))
        assert store.latest(PARAMS, max_epoch=6) == (5, dict(STATE, epoch=5))
        assert store.latest(PARAMS, max_epoch=1) is None

    def test_distinct_params_are_distinct_runs(self, tmp_path):
        store = CheckpointStore(tmp_path)
        other = checkpoint_params("Apache", 16, 42, "tiny", "multi-chip",
                                  64, 0.5)
        save(store, PARAMS, 1, STATE)
        assert store.load(other, 1) is None
        assert store.epochs(other) == []

    def test_epoch_size_is_part_of_the_key(self, tmp_path):
        # Epoch indices only mean something relative to one trace
        # segmentation: a re-capture at a different epoch size must never
        # restore the old segmentation's snapshots.
        store = CheckpointStore(tmp_path)
        fine = checkpoint_params("Apache", 16, 42, "tiny", "multi-chip",
                                 64, 0.25, epoch_size=128)
        save(store, fine, 3, STATE)
        assert store.load(PARAMS, 3) is None  # PARAMS uses the default size
        assert store.epochs(PARAMS) == []

    def test_corrupt_file_warns_drops_and_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        save(store, PARAMS, 4, STATE)
        path = store.chain_file_for(PARAMS, 4)
        path.write_bytes(b"not a manifest")
        drops_before = STATS.drops
        with pytest.warns(RuntimeWarning, match="unreadable checkpoint"):
            assert store.load(PARAMS, 4) is None
        assert not path.exists()
        assert STATS.drops == drops_before + 1

    def test_latest_skips_corrupt_and_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        save(store, PARAMS, 2, dict(STATE, epoch=2))
        save(store, PARAMS, 6, dict(STATE, epoch=6))
        store.chain_file_for(PARAMS, 6).write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            assert store.latest(PARAMS) == (2, dict(STATE, epoch=2))
        assert store.epochs(PARAMS) == [2]  # the corrupt file was dropped

    def test_epoch_field_mismatch_is_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        save(store, PARAMS, 3, STATE)
        # A manifest copied to the wrong boundary must not restore.
        blob = store.chain_file_for(PARAMS, 3).read_bytes()
        store.chain_file_for(PARAMS, 8).write_bytes(blob)
        with pytest.warns(RuntimeWarning):
            assert store.load(PARAMS, 8) is None

    def test_version_namespacing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        save(store, PARAMS, 1, STATE)
        bumped = CheckpointStore(tmp_path)
        bumped.version = "999-0.0.0"
        assert bumped.load(PARAMS, 1) is None
        assert bumped.epochs(PARAMS) == []

    def test_clear_and_describe(self, tmp_path):
        store = CheckpointStore(tmp_path)
        save(store, PARAMS, 1, STATE)
        save(store, PARAMS, 2, STATE)
        assert "2 checkpoints" in store.describe()
        assert store.size_bytes() > 0
        assert store.clear() == 2
        assert store.entries() == []

    def test_drop_run(self, tmp_path):
        store = CheckpointStore(tmp_path)
        save(store, PARAMS, 1, STATE)
        save(store, PARAMS, 2, STATE)
        assert store.drop_run(PARAMS) == 2
        assert store.epochs(PARAMS) == []

    def test_whole_file_checkpoint_is_ignored_beside_chain(self, tmp_path):
        # Older releases could leave whole-file ``.ckpt.gz`` checkpoints in
        # a run directory; only chain manifests are read now.
        store = CheckpointStore(tmp_path)
        save(store, PARAMS, 2, dict(STATE, epoch=2))
        legacy = store.path_for(PARAMS) / "epoch-000005.ckpt.gz"
        legacy.write_bytes(gzip.compress(pickle.dumps(
            {"format_version": 2, "params": PARAMS, "epoch": 5,
             "state": dict(STATE, epoch=5)})))
        assert store.epochs(PARAMS) == [2]
        assert store.latest(PARAMS) == (2, dict(STATE, epoch=2))
        assert store.entries() == [store.chain_file_for(PARAMS, 2)]
        assert store.drop_run(PARAMS) == 1
        assert not legacy.exists()

    def test_save_counts(self, tmp_path):
        saves_before = STATS.saves
        save(CheckpointStore(tmp_path), PARAMS, 1, STATE)
        assert STATS.saves == saves_before + 1


class TestGetStore:
    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_DISK_CACHE", "1")
        assert get_checkpoint_store() is None

    def test_explicit_root(self, tmp_path):
        store = get_checkpoint_store(str(tmp_path))
        assert store is not None
        assert str(store.root).startswith(str(tmp_path))
