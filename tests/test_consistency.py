import math

import numpy as np
import pytest

from bvcm import (
    BlockAssignment,
    Chain,
    DataError,
    InteractionNetwork,
    NumericalError,
    UsageError,
    degree_majority_update,
    misclassification_bound,
    restricted_misclassification,
)
from bvcm.consistency import min_permutation_error

from oracles import bound_series_mpmath, size_rank_trap


def line_network():
    # a-b, b-c, c-d chain of single-receiver posts
    return InteractionNetwork.from_records(
        [("a", ["b"]), ("b", ["c"]), ("c", ["d"])]
    )


class TestDegreeMajority:
    def test_unanimous_neighbors(self):
        net = InteractionNetwork.from_records([("x", ["a"]), ("b", ["x"])])
        lab = BlockAssignment(np.array([1, 0, 0]), 2)  # x currently 1, nbrs 0
        out = degree_majority_update(net, lab)
        assert out.labels[net.node_index("x")] == 0

    def test_tie_keeps_current(self):
        net = InteractionNetwork.from_records([("x", ["a"]), ("x", ["b"])])
        lab = BlockAssignment(np.array([1, 0, 1]), 2)
        out = degree_majority_update(net, lab)
        assert out.labels[net.node_index("x")] == 1

    def test_simultaneous_not_sequential(self):
        # two nodes pointing at each other with opposite labels swap in
        # one pass; a sequential update would make them agree
        net = InteractionNetwork.from_records([("a", ["b"]), ("b", ["a"]), ("a", ["b"])])
        lab = BlockAssignment(np.array([0, 1]), 2)
        out = degree_majority_update(net, lab)
        assert list(out.labels) == [1, 0]

    def test_multiplicity_counts(self):
        net = InteractionNetwork.from_records(
            [("x", ["a"]), ("x", ["a"]), ("x", ["b"])]
        )
        # a appears twice (label 0), b once (label 1): majority 0
        lab = BlockAssignment(np.array([1, 0, 1]), 2)
        out = degree_majority_update(net, lab)
        assert out.labels[net.node_index("x")] == 0

    def test_requires_two_blocks(self):
        net = line_network()
        with pytest.raises(UsageError):
            degree_majority_update(net, BlockAssignment(np.zeros(4, dtype=int), 3))

    def test_labels_must_cover_the_network(self):
        net = line_network()
        with pytest.raises(DataError, match="node 'd' has no block assignment"):
            degree_majority_update(net, BlockAssignment(np.zeros(3, dtype=int), 2))

    def test_pair_arrays_multiplicity(self):
        net = InteractionNetwork.from_records([("x", ["a", "a"])])
        s, r = net.pairs()
        assert len(s) == 2 and len(r) == 2


class TestBound:
    def test_margin_value(self):
        res = misclassification_bound(0.5, 0.9, 0.9, 0.9)
        assert res.mu_min == pytest.approx(0.64, abs=1e-12)

    def test_series_matches_high_precision_oracle(self):
        res = misclassification_bound(0.5, 0.9, 0.9, 0.9, tol=1e-12)
        oracle = bound_series_mpmath(0.5, res.mu_min)
        assert res.p_out == pytest.approx(oracle, abs=1e-8)

    def test_monotone_in_within_weight(self):
        prev_mu, prev_p = -1.0, 2.0
        for a in (0.7, 0.8, 0.9):
            res = misclassification_bound(0.5, a, 0.85, 0.85)
            assert res.mu_min > prev_mu
            assert res.p_out < prev_p
            prev_mu, prev_p = res.mu_min, res.p_out

    def test_gamma_swap_symmetry(self):
        r1 = misclassification_bound(0.4, 0.8, 0.95, 0.85)
        r2 = misclassification_bound(0.4, 0.8, 0.85, 0.95)
        assert r1.mu_min == r2.mu_min
        assert r1.p_out == r2.p_out

    def test_tol_must_be_positive_and_finite(self):
        for tol in (0.0, -1e-10, math.nan, math.inf):
            with pytest.raises(UsageError, match="tol"):
                misclassification_bound(0.5, 0.9, 0.9, 0.9, tol=tol)

    def test_nonpositive_margin_rejected(self):
        # gamma_max large, gamma_min barely above 1/2 drives the margin negative
        with pytest.raises(NumericalError, match="positivity"):
            misclassification_bound(0.5, 0.55, 0.51, 1.0)

    def test_in_unit_interval_and_total_mass_limit(self):
        import mpmath as mp

        # the degree series without the exponential damp telescopes to one:
        # sum_{d<=D} a*B(d, a+1) = 1 - a*B(D+1, a)
        with mp.workdps(30):
            a = mp.mpf("0.5")
            partial = mp.fsum(a * mp.beta(d, a + 1) for d in range(1, 20001))
            assert float(partial - (1 - a * mp.beta(20001, a))) == pytest.approx(
                0.0, abs=1e-12
            )
        prev = 0.0
        for gmax in (0.99, 0.9, 0.8):  # shrinking margin
            res = misclassification_bound(0.5, 0.95, gmax, gmax)
            assert 0.0 < res.p_out < 1.0
            assert res.p_out > prev or prev == 0.0
            prev = res.p_out

    def test_domain_validation(self):
        with pytest.raises(UsageError):
            misclassification_bound(1.2, 0.9, 0.9, 0.9)
        with pytest.raises(UsageError):
            misclassification_bound(0.5, 0.4, 0.9, 0.9)
        with pytest.raises(UsageError):
            misclassification_bound(0.5, 0.9, 0.4, 0.9)


def _majority_labeling(net, labels_list, k=2, burn_in=0):
    """The per-node majority of a chain with these samples (ties -> lowest)."""
    arr = np.array(labels_list)
    iters = arr.shape[0]
    chain = Chain(
        k=k,
        burn_in=burn_in,
        seed=0,
        node_ids=list(net.node_ids),
        assignments=arr,
        alphas=np.full((iters, k), 0.5),
        thetas=np.ones((iters, k)),
        props=np.tile(np.eye(k), (iters, 1, 1)),
        log_probs=np.zeros(iters),
        block_conc=1.0,
        recv_conc=1.0,
    )
    return BlockAssignment(chain.block_counts().argmax(axis=1), k)


class TestRestrictedMisclassification:
    def test_perfect_chain(self):
        net = line_network()
        truth = BlockAssignment(np.array([0, 0, 1, 1]), 2)
        majority = _majority_labeling(net, [truth.labels] * 4)
        curve = restricted_misclassification(net, majority, truth, [0.0])
        assert curve[0].rate == 0.0

    def test_flipped_chain(self):
        net = line_network()
        truth = BlockAssignment(np.array([0, 0, 1, 1]), 2)
        majority = _majority_labeling(net, [1 - truth.labels] * 4)
        curve = restricted_misclassification(net, majority, truth, [0.0])
        assert curve[0].rate == 0.0

    def test_accepts_plain_labeling(self):
        net = line_network()
        truth = BlockAssignment(np.array([0, 0, 1, 1]), 2)
        wrong = BlockAssignment(np.array([0, 1, 1, 1]), 2)
        curve = restricted_misclassification(net, wrong, truth, [1.0])
        assert curve[0].rate == pytest.approx(0.25)

    def test_empty_cutoff_is_none(self):
        net = line_network()
        truth = BlockAssignment(np.array([0, 0, 1, 1]), 2)
        curve = restricted_misclassification(net, truth, truth, [1.0, 99.0])
        assert curve[1].n_nodes == 0
        assert curve[1].rate is None

    def test_cutoffs_must_ascend(self):
        net = line_network()
        truth = BlockAssignment(np.array([0, 0, 1, 1]), 2)
        with pytest.raises(UsageError):
            restricted_misclassification(net, truth, truth, [5.0, 1.0])

    def test_labels_must_cover_the_network(self):
        net = line_network()
        truth = BlockAssignment(np.array([0, 0, 1, 1]), 2)
        short = BlockAssignment(np.array([0, 0, 1]), 2)
        for labeling, t in ((short, truth), (truth, short)):
            with pytest.raises(DataError, match="node 'd' has no block assignment"):
                restricted_misclassification(net, labeling, t, [1.0])

    def test_majority_vote_hard_labels(self):
        net = line_network()
        truth = BlockAssignment(np.array([0, 0, 1, 1]), 2)
        # node b wrong in 1 of 3 samples: majority still right
        samples = [np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1])]
        majority = _majority_labeling(net, samples)
        curve = restricted_misclassification(net, majority, truth, [1.0])
        assert curve[0].rate == 0.0


def test_min_permutation_error_greedy_matches_exact_for_aligned_sizes():
    rng = np.random.default_rng(30)
    truth = rng.integers(3, size=200)
    noisy = truth.copy()
    flip = rng.random(200) < 0.1
    noisy[flip] = (noisy[flip] + 1) % 3
    perm = np.array([2, 0, 1])
    shuffled = perm[noisy]
    exact = min_permutation_error(shuffled, truth, 3)
    assert exact <= 0.15


def test_min_permutation_error_exact_beyond_eight_blocks():
    truth, hard = size_rank_trap()
    assert min_permutation_error(hard, truth, 9) == pytest.approx(4 / 864)
