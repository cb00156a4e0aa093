"""Memory bounds of the whole-network paths, measured with tracemalloc.

Each bound is set from the dtype sizes of the arrays the operation must
hold, so a path that makes one Python object per element of the network
or of the chain (a whole-array ``tolist()``, a list of Python ints)
exceeds it.
"""

import gc
import json
import tracemalloc

import numpy as np

from bvcm import fileio
from bvcm.core import BlockAssignment, InteractionNetwork
from bvcm.gibbs import Chain
from bvcm.metrics import sparsity_growth


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn() runs, above what was live before."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_chain_holds_no_object_per_membership_cell(tmp_path):
    n, k, iters = 50_000, 5, 2
    rng = np.random.default_rng(0)
    chain = Chain(
        k=k, burn_in=0, seed=0, node_ids=[f"n{i}" for i in range(n)],
        assignments=rng.integers(k, size=(iters, n)).astype(np.int32),
        alphas=np.full((iters, k), 0.5), thetas=np.ones((iters, k)),
        props=np.full((iters, k, k), 1.0 / k), log_probs=np.zeros(iters),
        block_conc=1.0, recv_conc=1.0,
    )
    # The n x k membership frequencies (float64), the int64 counts they
    # are taken from, and one more n x k array's worth for the per-node
    # work (cell indices, the node-name list).
    bound = 3 * n * k * 8
    assert traced_peak(lambda: fileio.write_chain(tmp_path / "chain", chain)) < bound


def test_read_interactions_jsonl_holds_typed_buffers(tmp_path):
    m, arity, pool = 50_000, 2, 500
    rng = np.random.default_rng(1)
    path = tmp_path / "net.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s, rs in zip(rng.integers(pool, size=m), rng.integers(pool, size=(m, arity))):
            fh.write(json.dumps({"sender": f"v{s}", "receivers": [f"v{r}" for r in rs]}))
            fh.write("\n")
    read = []
    peak = traced_peak(lambda: read.append(fileio.read_interactions_jsonl(path)))
    assert read[0].m == m
    # The network's int64 arrays (senders, offsets, receivers) twice: the
    # build buffers and their exact-size copies.
    bound = 2 * 8 * (m + (m + 1) + m * arity)
    assert peak < bound


def test_prefix_does_not_convert_the_whole_network():
    m, arity, pool = 200_000, 2, 2_000
    rng = np.random.default_rng(2)
    network = InteractionNetwork(
        rng.integers(pool, size=m),
        np.arange(0, arity * m + 1, arity),
        rng.integers(pool, size=arity * m),
        [f"v{i}" for i in range(pool)],
    )
    prefix = []
    peak = traced_peak(lambda: prefix.append(network.prefix(1000)))
    assert prefix[0].m == 1000
    # One int64 per interaction of the source network: any pass that
    # converts one of its arrays whole reaches it.
    assert peak < 8 * m


def test_sparsity_growth_holds_no_int64_per_receiver_slot():
    m, arity, pool = 200_000, 2, 2_000
    rng = np.random.default_rng(3)
    network = InteractionNetwork(
        rng.integers(pool, size=m),
        np.arange(0, arity * m + 1, arity),
        rng.integers(pool, size=arity * m),
        [f"v{i}" for i in range(pool)],
    )
    truth = BlockAssignment(rng.integers(3, size=pool), 3)
    slopes = []
    peak = traced_peak(
        lambda: slopes.append(sparsity_growth(network, [100, 1_000, 10_000, m], truth))
    )
    assert len(slopes[0]) == 4
    # One int64 per interaction and per receiver slot (m + arity * m):
    # a pass that builds an int64 position for every slot, or an int64
    # membership count per slot, reaches it.
    assert peak < 8 * (m + arity * m)


def test_read_assignment_csv_holds_no_name_table(tmp_path):
    n, k = 50_000, 5
    rng = np.random.default_rng(4)
    names = [f"node-{i:07d}" for i in range(n)]
    network = InteractionNetwork(
        np.arange(n), np.arange(n + 1), rng.permutation(n), names,
    )
    truth = BlockAssignment(rng.integers(k, size=n), k)
    path = tmp_path / "truth.csv"
    fileio.write_assignment_csv(path, network, truth)
    read = []
    peak = traced_peak(lambda: read.append(fileio.read_assignment_csv(path, network)))
    assert np.array_equal(read[0].labels, truth.labels) and read[0].k == k
    # The blocks as read (int64), the assigned mask (bool) and the
    # 0-based labels (int64), twice over: a table with one name string
    # per row, as a name -> block dict holds, exceeds it.
    bound = 2 * n * (8 + 1 + 8)
    assert peak < bound
