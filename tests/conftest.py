import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bvcm import BlockAssignment, InteractionNetwork


@pytest.fixture(autouse=True, scope="session")
def _sweep_cache(tmp_path_factory):
    """The compiled sweep is built once per session, into a temporary
    cache rather than the user's (fresh interpreters inherit it too)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def demo_network():
    """Three posts: a->{b,c,d}, e->{d,f}, g->{f,h}."""
    return InteractionNetwork.from_records(
        [("a", ["b", "c", "d"]), ("e", ["d", "f"]), ("g", ["f", "h"])]
    )


@pytest.fixture
def demo_truth(demo_network):
    """a..e in the first block, f..h in the second."""
    assert demo_network.node_ids == list("abcdefgh")
    return BlockAssignment(np.array([0, 0, 0, 0, 0, 1, 1, 1]), 2)


@pytest.fixture
def tiny_network():
    return InteractionNetwork.from_records(
        [("a", ["b"]), ("a", ["c"]), ("b", ["c"])]
    )


def make_random_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
