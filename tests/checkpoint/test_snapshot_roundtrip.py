"""Property tests: snapshot() -> restore() round-trips over random states.

The invariant everything else builds on: restoring a snapshot into a fresh
object yields (a) an identical re-snapshot and (b) identical behaviour on
any subsequent input.
"""

import random

import pytest

from repro.mem import MissRecord, MissTrace
from repro.mem.cache import Cache, State
from repro.mem.classify import BlockHistory
from repro.mem.config import CacheConfig
from repro.mem.records import FunctionRef
from repro.mem.trace import INTRA_CHIP, MULTI_CHIP

from .conftest import FNS, make_system, random_accesses


def drive_cache(cache, rng, n=300):
    for _ in range(n):
        block = rng.randrange(64) * cache.block_size
        roll = rng.random()
        if roll < 0.5:
            if not cache.lookup(block).is_valid:
                cache.fill(block, rng.choice((State.SHARED, State.MODIFIED,
                                              State.OWNED)))
        elif roll < 0.7:
            cache.fill(block, State.SHARED)
        elif roll < 0.85:
            cache.invalidate(block)
        else:
            cache.downgrade(block)


class TestCacheRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_and_behavioural_equivalence(self, seed):
        rng = random.Random(seed)
        config = CacheConfig(size_bytes=4096, assoc=4)
        original = Cache(config, name="orig")
        drive_cache(original, rng)

        restored = Cache(config, name="copy")
        restored.restore(original.snapshot())
        assert restored.snapshot() == original.snapshot()
        assert len(restored) == len(original)

        # Same future behaviour, including LRU victim choice.
        follow = random.Random(seed + 1000)
        drive_cache(original, follow, n=200)
        follow = random.Random(seed + 1000)
        drive_cache(restored, follow, n=200)
        assert restored.snapshot() == original.snapshot()
        assert restored.stats() == original.stats()

    def test_geometry_mismatch_rejected(self):
        small = Cache(CacheConfig(size_bytes=1024, assoc=2))
        big = Cache(CacheConfig(size_bytes=4096, assoc=4))
        with pytest.raises(ValueError):
            big.restore(small.snapshot())

    def test_overfull_set_rejected(self):
        cache = Cache(CacheConfig(size_bytes=1024, assoc=2))
        snap = cache.snapshot()
        snap["frames"] = [[0, pos, 64 * cache.n_sets * pos, 1]
                          for pos in range(cache.assoc + 1)]
        with pytest.raises(ValueError):
            cache.restore(snap)

    def test_record_hits_matches_repeated_lookups(self):
        config = CacheConfig(size_bytes=1024, assoc=2)
        looped, batched = Cache(config), Cache(config)
        for cache in (looped, batched):
            cache.fill(0, State.SHARED)
            cache.fill(64 * cache.n_sets, State.MODIFIED)  # same set
        for _ in range(5):
            looped.lookup(0)
        batched.record_hits(0, 5)
        assert batched.snapshot() == looped.snapshot()

    def test_record_hits_requires_residency(self):
        cache = Cache(CacheConfig(size_bytes=1024, assoc=2))
        with pytest.raises(KeyError):
            cache.record_hits(0, 3)


class TestBlockHistoryRoundTrip:
    @pytest.mark.parametrize("seed", range(3))
    def test_roundtrip_preserves_classification(self, seed):
        rng = random.Random(seed)
        original = BlockHistory()
        for _ in range(400):
            block, observer = rng.randrange(32) * 64, rng.randrange(4)
            roll = rng.random()
            if roll < 0.6:
                original.record_access(observer, block)
            elif roll < 0.9:
                original.record_cpu_write(observer, block)
            else:
                original.record_io_write(block)

        restored = BlockHistory()
        restored.restore(original.snapshot())
        assert restored.snapshot() == original.snapshot()
        for block in range(0, 32 * 64, 64):
            for observer in range(4):
                assert (restored.classify_read_miss(observer, block)
                        == original.classify_read_miss(observer, block))

    def test_record_accesses_matches_loop(self):
        looped, batched = BlockHistory(), BlockHistory()
        for history in (looped, batched):
            history.record_cpu_write(1, 64)
        for _ in range(4):
            looped.record_access(0, 64)
        batched.record_accesses(0, 64, 4)
        assert batched.snapshot() == looped.snapshot()


class TestMissTraceRoundTrip:
    def test_state_dict_roundtrip_bit_identical(self):
        rng = random.Random(7)
        trace = MissTrace(MULTI_CHIP, instructions=12345)
        for i in range(200):
            trace.append(MissRecord(seq=i, cpu=rng.randrange(16),
                                    block=rng.randrange(1000) * 64,
                                    miss_class=rng.randrange(4),
                                    fn=rng.choice(FNS),
                                    supplier=rng.choice((None, -1, 2))))
        restored = MissTrace.from_state_dict(trace.state_dict())
        assert restored.context == trace.context
        assert restored.instructions == trace.instructions
        assert len(restored) == len(trace)
        for mine, theirs in zip(trace, restored):
            assert (mine.seq, mine.cpu, mine.block, mine.miss_class,
                    mine.fn, mine.supplier) == \
                   (theirs.seq, theirs.cpu, theirs.block, theirs.miss_class,
                    theirs.fn, theirs.supplier)

    def test_intrachip_classes_restore_to_intrachip_enum(self):
        from repro.mem.records import IntraChipClass
        trace = MissTrace(INTRA_CHIP)
        trace.append(MissRecord(seq=0, cpu=0, block=0,
                                miss_class=IntraChipClass.COHERENCE_L2,
                                fn=FNS[0]))
        restored = MissTrace.from_state_dict(trace.state_dict())
        assert isinstance(restored[0].miss_class, IntraChipClass)
        assert restored[0].miss_class is IntraChipClass.COHERENCE_L2


class TestSystemRoundTrip:
    @pytest.mark.parametrize("seed", range(3))
    def test_interrupted_equals_uninterrupted(self, organisation, seed):
        rng = random.Random(seed)
        stream = random_accesses(rng, n=600)
        cut = len(stream) // 2

        straight = make_system(organisation)
        for access in stream:
            straight.process(access)

        first_half = make_system(organisation)
        for access in stream[:cut]:
            first_half.process(access)
        resumed = make_system(organisation)
        resumed.restore(first_half.snapshot())
        for access in stream[cut:]:
            resumed.process(access)

        assert resumed.snapshot() == straight.snapshot()

    def test_cross_model_snapshot_rejected(self):
        multi = make_system("multi-chip")
        single = make_system("single-chip")
        with pytest.raises(ValueError):
            single.restore(multi.snapshot())

    def test_geometry_mismatch_rejected(self, organisation):
        donor = make_system(organisation, n_cpus=4)
        other = make_system(organisation, n_cpus=8)
        with pytest.raises(ValueError):
            other.restore(donor.snapshot())

