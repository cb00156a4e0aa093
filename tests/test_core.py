import json

import numpy as np
import pytest

from bvcm import (
    BlockAssignment,
    DataError,
    InteractionNetwork,
    ModelParams,
    NumericalError,
    compute_stats,
    degree_distribution,
)
from bvcm import fileio
from bvcm.core import RECORD_CHUNK, best_relabeling, counterparty_counts

from oracles import best_permutation_gain, random_network, permuted


class TestComputeStats:
    def test_hand_counts(self, tiny_network):
        assignment = BlockAssignment(np.zeros(3, dtype=int), 1)
        st_ = compute_stats(tiny_network, assignment)
        assert st_.m == 3
        a, b, c = (tiny_network.node_index(x) for x in "abc")
        deg = tiny_network.degrees()
        assert deg[a] == 2 and deg[b] == 2 and deg[c] == 2
        assert st_.pair[0, 0] == 3
        assert st_.initiations[0] == 3
        assert st_.block_deg[0] == 6

    def test_empty_network(self):
        net = InteractionNetwork.from_records([])
        st_ = compute_stats(net, BlockAssignment(np.empty(0, dtype=int), 2))
        assert st_.m == 0
        assert st_.pair.sum() == 0
        assert st_.block_sizes.sum() == 0
        assert st_.deg_hist.tolist() == [[0], [0]]
        assert st_.block_deg.tolist() == [0, 0]

    def test_demo_pair_counts(self, demo_network, demo_truth):
        st_ = compute_stats(demo_network, demo_truth)
        assert st_.pair[0, 0] == 4
        assert st_.pair[0, 1] == 1
        assert st_.pair[1, 1] == 2
        assert st_.pair[1, 0] == 0

    def test_invariants_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            net, assign = random_network(rng, k, m=15, n_pool=8, max_arity=3)
            st_ = compute_stats(net, assign)
            total_recv = len(net.receivers)
            assert st_.initiations.sum() == st_.m
            assert st_.pair.sum() == total_recv
            deg = net.degrees()
            assert deg.sum() == st_.m + total_recv
            assert st_.block_sizes.sum() == (deg > 0).sum()
            for b in range(k):
                assert (
                    sum(d * c for d, c in enumerate(st_.deg_hist[b]))
                    == st_.block_deg[b]
                )

    def test_deg_hist_matches_per_node_count(self):
        rng = np.random.default_rng(6)
        for k in (1, 2, 3):
            for _ in range(5):
                net, assign = random_network(rng, k, m=15, n_pool=8, max_arity=3)
                deg = [0] * net.n_nodes
                for sender, receivers in net.records():
                    for name in [sender, *receivers]:
                        deg[net.node_index(name)] += 1
                expected = np.zeros((k, max(deg) + 1), dtype=np.int64)
                for i, d in enumerate(deg):
                    if d:
                        expected[assign.labels[i], d] += 1
                st_ = compute_stats(net, assign)
                assert np.array_equal(st_.deg_hist, expected)
                assert np.array_equal(st_.block_sizes, expected.sum(axis=1))
                assert np.array_equal(
                    st_.block_deg, expected @ np.arange(expected.shape[1])
                )

    def test_isolated_node_in_no_block(self):
        # c is in the node table but takes part in no interaction
        net = InteractionNetwork([0], [0, 1], [1], ["a", "b", "c"])
        st_ = compute_stats(net, BlockAssignment(np.array([0, 1, 1]), 2))
        assert st_.block_sizes.tolist() == [1, 1]
        assert st_.block_deg.tolist() == [1, 1]
        assert st_.deg_hist.tolist() == [[0, 1], [0, 1]]
        assert degree_distribution(net).tolist() == [0, 2]

    def test_order_invariance(self):
        rng = np.random.default_rng(4)
        net, assign = random_network(rng, 2, m=12, n_pool=6, max_arity=2)
        st1 = compute_stats(net, assign)
        shuffled = permuted(net, rng)
        st2 = compute_stats(shuffled, assign)
        assert np.array_equal(net.degrees(), shuffled.degrees())
        assert np.array_equal(st1.deg_hist, st2.deg_hist)
        assert np.array_equal(st1.pair, st2.pair)
        assert np.array_equal(st1.initiations, st2.initiations)
        assert np.array_equal(
            counterparty_counts(net, assign.labels, 2),
            counterparty_counts(shuffled, assign.labels, 2),
        )

    def test_neighbor_counts_single_commentator(self):
        rng = np.random.default_rng(5)
        net, assign = random_network(rng, 2, m=20, n_pool=6, max_arity=1)
        counts = counterparty_counts(net, assign.labels, 2)
        assert np.array_equal(counts.sum(axis=1), net.degrees())

    def test_unassigned_node_named(self, tiny_network):
        with pytest.raises(DataError, match="c"):
            compute_stats(tiny_network, BlockAssignment(np.zeros(2, dtype=int), 1))


class TestColumnarNetwork:
    def test_demo_arrays(self, demo_network):
        # a->{b,c,d}, e->{d,f}, g->{f,h}; indices follow first appearance
        assert demo_network.node_ids == list("abcdefgh")
        assert demo_network.senders.tolist() == [0, 4, 6]
        assert demo_network.offsets.tolist() == [0, 3, 5, 7]
        assert demo_network.receivers.tolist() == [1, 2, 3, 3, 5, 5, 7]
        assert demo_network.degrees().tolist() == [1, 1, 1, 2, 1, 2, 1, 1]
        s, r = demo_network.pairs()
        assert s.tolist() == [0, 0, 0, 4, 4, 6, 6]
        assert r.tolist() == [1, 2, 3, 3, 5, 5, 7]

    def test_arrays_are_read_only(self, demo_network):
        with pytest.raises(ValueError):
            demo_network.senders[0] = 1

    @pytest.mark.parametrize("m", [0, RECORD_CHUNK - 1, RECORD_CHUNK, RECORD_CHUNK + 1])
    def test_records_across_chunk_boundaries(self, m, tmp_path):
        net, _ = random_network(np.random.default_rng(m), 1, m, 60, max_arity=3)
        # Reference: the whole arrays converted at once.
        ids = net.node_ids
        offsets, receivers = net.offsets.tolist(), net.receivers.tolist()
        whole = [
            (ids[s], [ids[r] for r in receivers[offsets[j] : offsets[j + 1]]])
            for j, s in enumerate(net.senders.tolist())
        ]
        assert list(net.records()) == whole
        for cut in (0, RECORD_CHUNK - 1, RECORD_CHUNK, RECORD_CHUNK + 1):
            pre, ref = net.prefix(cut), InteractionNetwork.from_records(whole[:cut])
            assert pre.node_ids == ref.node_ids, cut
            for name in ("senders", "offsets", "receivers"):
                assert np.array_equal(getattr(pre, name), getattr(ref, name)), (cut, name)
        path = tmp_path / "net.jsonl"
        fileio.write_interactions_jsonl(path, net)
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps({"sender": s, "receivers": rs}) + "\n" for s, rs in whole
        )


def _nonzero(hist) -> dict[int, int]:
    """degree -> count over the nonzero entries of a dense histogram."""
    return {d: int(c) for d, c in enumerate(hist) if c}


class TestDegreeDistribution:
    def test_two_posts(self):
        net = InteractionNetwork.from_records([("a", ["b"]), ("a", ["c"])])
        hist = degree_distribution(net)
        assert _nonzero(hist) == {1: 2, 2: 1}

    def test_empty(self):
        hist = degree_distribution(InteractionNetwork.from_records([]))
        assert _nonzero(hist) == {}
        assert hist.tolist() == [0]

    def test_single_pair(self):
        net = InteractionNetwork.from_records([("a", ["b"])])
        assert _nonzero(degree_distribution(net)) == {1: 2}

    def test_block_variant(self, demo_network, demo_truth):
        hist = compute_stats(demo_network, demo_truth).deg_hist[1]
        # block 2 holds f (degree 2), g and h (degree 1)
        assert _nonzero(hist) == {1: 2, 2: 1}


class TestTypes:
    def test_from_records_validation(self):
        with pytest.raises(DataError, match="interaction 1"):
            InteractionNetwork.from_records([("a", [])])
        with pytest.raises(DataError, match="missing sender"):
            InteractionNetwork.from_records([("", ["b"])])
        with pytest.raises(DataError, match="interaction 2: missing receiver"):
            InteractionNetwork.from_records([("a", ["b"]), ("a", [None])])
        with pytest.raises(DataError, match="interaction 1: missing receiver"):
            InteractionNetwork.from_records([("a", ["b", ""])])
        for bad in (["b"], {"c": 1}, True, False, 1.5):
            with pytest.raises(DataError, match="interaction 2: receiver must be"):
                InteractionNetwork.from_records([("a", ["b"]), ("a", ["c", bad])])
            with pytest.raises(DataError, match="interaction 1: sender must be"):
                InteractionNetwork.from_records([(bad, ["b"])])
        # A string is not split into one-character receivers.
        for bad in ("bc", {"b": 1}, 5, None):
            with pytest.raises(DataError, match="interaction 2: receivers must be a list"):
                InteractionNetwork.from_records([("a", ["b"]), ("a", bad)])
        assert InteractionNetwork.from_records([("a", ("b", "c"))]).node_ids == ["a", "b", "c"]
        # Integers are identifiers, named by their decimal string.
        net = InteractionNetwork.from_records([(1, ["1", 2])])
        assert net.node_ids == ["1", "2"]

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            BlockAssignment(np.array([0, 2]), 2)

    def test_model_params_validation(self):
        ok = ModelParams(
            alpha=np.array([0.5]), theta=np.array([1.0]),
            block_conc=1.0, recv_conc=1.0,
        )
        assert ok.k == 1
        with pytest.raises(DataError):
            ModelParams(np.array([1.2]), np.array([1.0]), 1.0, 1.0)
        with pytest.raises(DataError, match="non-empty"):
            ModelParams(np.array([]), np.array([]), 1.0, 1.0)
        with pytest.raises(DataError):
            ModelParams(np.array([0.5]), np.array([-0.6]), 1.0, 1.0)
        with pytest.raises(DataError):
            ModelParams(np.array([0.5]), np.array([1.0]), -1.0, 1.0)
        with pytest.raises(DataError):
            ModelParams(
                np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1.0, 1.0,
                propensity=np.array([[0.8, 0.1], [0.5, 0.5]]),
            )

    @pytest.mark.parametrize("field, value", [
        ("alpha", [np.nan, 0.5]), ("theta", [np.nan, 1.0]), ("block_conc", np.nan),
        ("recv_conc", np.nan), ("block_probs", [np.nan, 0.5]),
        ("propensity", [[np.nan, 0.5], [0.5, 0.5]]),
    ])
    def test_model_params_reject_nan(self, field, value):
        args = dict(alpha=[0.5, 0.5], theta=[1.0, 1.0], block_conc=1.0, recv_conc=1.0)
        with pytest.raises(DataError) as info:
            ModelParams(**{**args, field: value})
        assert info.value.field == field

    def test_unknown_node_lookup(self, tiny_network):
        with pytest.raises(DataError, match="zz"):
            tiny_network.node_index("zz")

    def test_prefix_compacts(self, demo_network):
        pre = demo_network.prefix(1)
        assert pre.m == 1
        assert pre.n_nodes == 4


class TestBestRelabeling:
    def test_matches_enumeration(self):
        # Same objective as the brute-force maximum and as scipy's
        # assignment solver; the permutation itself may differ where
        # several reach it (tied integer gains, constant matrices).
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(40)
        for k in range(1, 9):
            gains = [np.zeros((k, k)), np.ones((k, k), dtype=int)]
            for _ in range(3 if k == 8 else 5):
                gains += [rng.integers(0, 2, size=(k, k)), rng.integers(0, 4, size=(k, k)),
                          rng.normal(size=(k, k))]
            for gain in gains:
                perm = best_relabeling(gain)
                assert sorted(perm.tolist()) == list(range(k))
                value = gain[np.arange(k), perm].sum()
                assert value == pytest.approx(best_permutation_gain(gain), abs=1e-12)
                scipy_cols = linear_sum_assignment(gain, maximize=True)[1]
                assert value == pytest.approx(gain[np.arange(k), scipy_cols].sum(), abs=1e-12)

    def test_rejects_non_finite_gains(self):
        # 1.7e308 is finite, but the potentials would overflow.
        for bad in (np.nan, np.inf, -np.inf, 1.7e308):
            gain = np.eye(3)
            gain[1, 2] = bad
            with pytest.raises(NumericalError, match="finite"):
                best_relabeling(gain)
