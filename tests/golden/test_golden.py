"""The paper sweep at ``tiny`` reproduces the pinned golden digests.

Both checkpoint policies must give the same science: checkpointing only
decides what is snapshotted along the way, never what is computed.
Regenerate the pinned file with ``PYTHONPATH=src python -m tests.golden``.
"""

import pytest

from . import compute, load


@pytest.fixture(scope="module")
def golden():
    return load()


@pytest.mark.parametrize("policy", [{}, {"checkpoint": False}],
                         ids=["default", "no-checkpoint"])
def test_paper_sweep_matches_golden(tmp_path, golden, policy):
    found = compute(str(tmp_path), **policy)
    assert sorted(found["cells"]) == sorted(golden["cells"])
    assert sorted(found["artifacts"]) == sorted(golden["artifacts"])
    changed = [key for key in golden["cells"]
               if found["cells"][key] != golden["cells"][key]]
    changed += [key for key in golden["artifacts"]
                if found["artifacts"][key] != golden["artifacts"][key]]
    assert not changed, f"outputs differ from tests/golden: {changed}"
    # Every cell is short and the spec has one warm-up (so no shared
    # prefix): the sweep leaves no simulate or coverage checkpoint behind.
    assert not list(tmp_path.glob("checkpoints/v*/*/*"))
