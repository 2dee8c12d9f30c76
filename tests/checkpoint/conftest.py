"""Shared helpers for the checkpoint-subsystem tests."""

import random

import pytest

from repro.mem import Access, AccessKind, FunctionRef
from repro.mem.config import scaled_config
from repro.mem.multichip import MultiChipSystem
from repro.mem.singlechip import SingleChipSystem

FNS = [FunctionRef(name=f"fn_{i}", module=f"mod_{i % 3}",
                   category="Kernel - other activity") for i in range(5)]


def random_accesses(rng, n=500, n_cpus=4, n_blocks=64, block=64):
    """A random access stream with plenty of sharing, writes, and DMA.

    Repeated addresses across CPUs exercise coherence transitions; runs of
    repeated reads exercise the batched same-block fast path.
    """
    out = []
    for _ in range(n):
        roll = rng.random()
        addr = rng.randrange(n_blocks) * block + rng.randrange(block)
        if roll < 0.06:
            out.append(Access(cpu=-1, addr=addr, size=block,
                              kind=AccessKind.DMA_WRITE, icount=0))
            continue
        cpu = rng.randrange(n_cpus)
        if roll < 0.25:
            kind = AccessKind.WRITE
        elif roll < 0.30:
            kind = AccessKind.IFETCH
        else:
            kind = AccessKind.READ
        access = Access(cpu=cpu, addr=addr, size=rng.choice((4, 8, 128)),
                        kind=kind, fn=rng.choice(FNS), thread=cpu,
                        icount=rng.randrange(8))
        out.append(access)
        if kind is AccessKind.READ and rng.random() < 0.3:
            # A run of same-block re-reads (the batchable pattern).
            for _ in range(rng.randrange(1, 5)):
                out.append(Access(cpu=cpu, addr=addr, size=4,
                                  kind=AccessKind.READ, fn=access.fn,
                                  thread=cpu, icount=rng.randrange(8)))
    return out


def make_system(organisation, n_cpus=None, scale=512):
    """A deliberately tiny system so random streams cause evictions."""
    if organisation == "multi-chip":
        return MultiChipSystem(scaled_config(n_cpus=n_cpus or 4, scale=scale))
    return SingleChipSystem(scaled_config(n_cpus=n_cpus or 4, scale=scale))


@pytest.fixture(params=["multi-chip", "single-chip"])
def organisation(request):
    return request.param


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def every_boundary(monkeypatch):
    """Snapshot at every epoch boundary (a zero checkpoint interval)."""
    from repro.checkpoint import replay
    monkeypatch.setattr(replay, "CHECKPOINT_INTERVAL_S", 0.0)
