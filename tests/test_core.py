import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcm import (
    BlockAssignment,
    DataError,
    InteractionNetwork,
    ModelParams,
    NumericalError,
    compute_stats,
    degree_distribution,
    log_ascending_factorial,
)
from bvcm.core import counterparty_counts

from oracles import random_network, permuted


class TestLogAscendingFactorial:
    def test_integer_case(self):
        assert log_ascending_factorial(2, 1, 3) == pytest.approx(math.log(24))

    def test_empty_product(self):
        assert log_ascending_factorial(3.7, 0.2, 0) == 0.0

    def test_half_steps(self):
        assert log_ascending_factorial(0.5, 0.5, 2) == pytest.approx(math.log(0.5))

    def test_falling_factorial(self):
        # step < 0 walks downward: 5 * 4 * 3
        assert log_ascending_factorial(5, -1, 3) == pytest.approx(math.log(60))

    def test_domain_error_names_offending_index(self):
        with pytest.raises(NumericalError, match="k=2"):
            log_ascending_factorial(2, -1, 4)
        with pytest.raises(NumericalError, match="k=0"):
            log_ascending_factorial(-1.0, 1.0, 3)

    @given(
        x=st.floats(0.1, 10),
        step=st.floats(0.1, 10),
        n=st.integers(0, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_product(self, x, step, n):
        direct = sum(math.log(x + k * step) for k in range(n))
        assert log_ascending_factorial(x, step, n) == pytest.approx(
            direct, rel=1e-10, abs=1e-12
        )

    def test_large_n_gamma_form(self):
        # force the log-gamma branch, compare against the direct sum
        n = 500
        direct = sum(math.log(1.3 + k * 0.7) for k in range(n))
        assert log_ascending_factorial(1.3, 0.7, n) == pytest.approx(direct, rel=1e-12)


class TestComputeStats:
    def test_hand_counts(self, tiny_network):
        assignment = BlockAssignment(np.zeros(3, dtype=int), 1)
        st_ = compute_stats(tiny_network, assignment)
        assert st_.m == 3
        a, b, c = (tiny_network.node_index(x) for x in "abc")
        assert st_.deg[a] == 2 and st_.deg[b] == 2 and st_.deg[c] == 2
        assert st_.pair[0, 0] == 3
        assert st_.initiations[0] == 3
        assert st_.block_deg[0] == 6

    def test_empty_network(self):
        net = InteractionNetwork.from_records([])
        st_ = compute_stats(net, BlockAssignment(np.empty(0, dtype=int), 2))
        assert st_.m == 0
        assert st_.pair.sum() == 0
        assert st_.block_sizes.sum() == 0

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
            assert st_.deg.sum() == st_.m + total_recv
            assert st_.block_sizes.sum() == (st_.deg > 0).sum()
            for b in range(k):
                assert (
                    sum(d * c for d, c in st_.deg_hist_by_block[b].items())
                    == st_.block_deg[b]
                )

    def test_order_invariance(self):
        rng = np.random.default_rng(4)
        net, assign = random_network(rng, 2, m=12, n_pool=6, max_arity=2)
        st1 = compute_stats(net, assign)
        shuffled = permuted(net, rng)
        st2 = compute_stats(shuffled, assign)
        assert np.array_equal(st1.deg, st2.deg)
        assert np.array_equal(st1.pair, st2.pair)
        assert np.array_equal(st1.initiations, st2.initiations)
        assert np.array_equal(
            counterparty_counts(net, assign.labels, 2),
            counterparty_counts(shuffled, assign.labels, 2),
        )

    def test_neighbor_counts_single_commentator(self):
        rng = np.random.default_rng(5)
        net, assign = random_network(rng, 2, m=20, n_pool=6, max_arity=1)
        st_ = compute_stats(net, assign)
        counts = counterparty_counts(net, assign.labels, 2)
        assert np.array_equal(counts.sum(axis=1), st_.deg)

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


class TestDegreeDistribution:
    def test_two_posts(self):
        net = InteractionNetwork.from_records([("a", ["b"]), ("a", ["c"])])
        hist = degree_distribution(net)
        assert hist == {1: 2, 2: 1}

    def test_empty(self):
        assert degree_distribution(InteractionNetwork.from_records([])) == {}

    def test_single_pair(self):
        net = InteractionNetwork.from_records([("a", ["b"])])
        assert degree_distribution(net) == {1: 2}

    def test_block_variant(self, demo_network, demo_truth):
        hist = compute_stats(demo_network, demo_truth).deg_hist_by_block[1]
        # block 2 holds f (degree 2), g and h (degree 1)
        assert hist == {1: 2, 2: 1}


class TestTypes:
    def test_from_records_validation(self):
        with pytest.raises(DataError, match="interaction 1"):
            InteractionNetwork.from_records([("a", [])])
        with pytest.raises(DataError, match="missing sender"):
            InteractionNetwork.from_records([("", ["b"])])

    def test_assignment_round_trip(self, demo_network, demo_truth):
        mapping = demo_truth.to_mapping(demo_network)
        back = BlockAssignment.from_mapping(demo_network, mapping, 2)
        assert np.array_equal(back.labels, demo_truth.labels)

    def test_assignment_missing_node(self, demo_network):
        with pytest.raises(DataError, match="'h'"):
            BlockAssignment.from_mapping(
                demo_network, {n: 1 for n in "abcdefg"}, 2
            )

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
        with pytest.raises(DataError):
            ModelParams(np.array([0.5]), np.array([-0.6]), 1.0, 1.0)
        with pytest.raises(DataError):
            ModelParams(np.array([0.5]), np.array([1.0]), -1.0, 1.0)
        with pytest.raises(DataError):
            ModelParams(
                np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1.0, 1.0,
                propensity=np.array([[0.8, 0.1], [0.5, 0.5]]),
            )

    def test_unknown_node_lookup(self, tiny_network):
        with pytest.raises(DataError, match="zz"):
            tiny_network.node_index("zz")

    def test_prefix_compacts(self, demo_network):
        pre = demo_network.prefix(1)
        assert pre.m == 1
        assert pre.n_nodes == 4
