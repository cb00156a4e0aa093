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
    mapping = {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 2, "g": 2, "h": 2}
    return BlockAssignment.from_mapping(demo_network, mapping, 2)


@pytest.fixture
def tiny_network():
    return InteractionNetwork.from_records(
        [("a", ["b"]), ("a", ["c"]), ("b", ["c"])]
    )


def make_random_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
