import math

import numpy as np
import pytest

from bvcm import (
    BlockAssignment,
    Chain,
    GibbsConfig,
    InteractionNetwork,
    UsageError,
    compute_stats,
    log_prob_sequential,
    marginal_log_likelihood,
    run_gibbs,
    simulate_sequential,
    GeneratorConfig,
    ModelParams,
)

from oracles import log_prob_conditional, permuted, random_network, replay_log_prob


def test_single_interaction_node_term():
    net = InteractionNetwork.from_records([("s", ["r"])])
    assign = BlockAssignment(np.zeros(2, dtype=int), 1)
    lp = log_prob_sequential(net, assign, 1.0, 1.0, [0.5], [1.0])
    assert lp.term_nodes == pytest.approx(math.log(1.5 / 2.0))
    # block and pair urns are degenerate at k = 1
    assert lp.term_block == pytest.approx(0.0)
    assert lp.term_prop == pytest.approx(0.0)
    assert lp.value == pytest.approx(
        replay_log_prob(net, assign, 1.0, 1.0, [0.5], [1.0])
    )


def test_matches_replay_oracle():
    """Closed form equals the product of per-step urn probabilities."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        k = int(rng.integers(1, 4))
        net, assign = random_network(
            rng, k, m=int(rng.integers(1, 7)), n_pool=6, max_arity=3
        )
        alpha = rng.uniform(0.1, 0.9, size=k)
        theta = rng.uniform(0.5, 8.0, size=k)
        omega = float(rng.uniform(0.2, 3.0))
        zeta = float(rng.uniform(0.2, 3.0))
        lp = log_prob_sequential(net, assign, omega, zeta, alpha, theta)
        ref = replay_log_prob(net, assign, omega, zeta, alpha, theta)
        assert lp.value == pytest.approx(ref, abs=1e-9)
        assert lp.value <= 1e-12
        assert lp.value == pytest.approx(
            lp.term_block + lp.term_nodes + lp.term_prop
        )


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    for _ in range(10):
        net, assign = random_network(rng, 2, m=15, n_pool=8, max_arity=2)
        base = log_prob_sequential(net, assign, 1.0, 1.0, [0.4, 0.7], [2.0, 3.0])
        for _ in range(5):
            shuffled = permuted(net, rng)
            lp = log_prob_sequential(shuffled, assign, 1.0, 1.0, [0.4, 0.7], [2.0, 3.0])
            assert lp.value == pytest.approx(base.value, abs=1e-9)


def test_joint_relabeling_invariance():
    """Permuting node ids and block labels together (with the matching
    parameter permutation) leaves the value unchanged."""
    rng = np.random.default_rng(9)
    net, assign = random_network(rng, 3, m=12, n_pool=6, max_arity=2)
    alpha = np.array([0.3, 0.5, 0.7])
    theta = np.array([1.0, 2.0, 3.0])
    base = log_prob_sequential(net, assign, 1.2, 0.7, alpha, theta)

    perm = np.array([2, 0, 1])  # block b -> perm[b]
    relabeled = BlockAssignment(perm[assign.labels], 3)
    inv = np.argsort(perm)
    lp = log_prob_sequential(net, relabeled, 1.2, 0.7, alpha[inv], theta[inv])
    assert lp.value == pytest.approx(base.value, abs=1e-10)

    # node identifier renaming (same structure, new names)
    renamed = InteractionNetwork.from_records(
        (f"x{s}", [f"x{r}" for r in rs]) for s, rs in net.records()
    )
    lp2 = log_prob_sequential(renamed, assign, 1.2, 0.7, alpha, theta)
    assert lp2.value == pytest.approx(base.value, abs=1e-10)


class TestConditional:
    def test_uniform_factors(self):
        rng = np.random.default_rng(10)
        net, assign = random_network(rng, 2, m=8, n_pool=5, max_arity=2)
        stats = compute_stats(net, assign)
        alpha, theta = [0.5, 0.5], [2.0, 2.0]
        res = log_prob_conditional(
            net, assign, [0.5, 0.5], np.full((2, 2), 0.5), alpha, theta
        )
        seq = log_prob_sequential(net, assign, 1.0, 1.0, alpha, theta)
        expected = (
            -stats.m * math.log(2)
            - stats.pair.sum() * math.log(2)
            + seq.term_nodes
        )
        assert res.value == pytest.approx(expected)

    def test_zero_propensity_flagged(self):
        net = InteractionNetwork.from_records([("a", ["b"])])
        assign = BlockAssignment(np.array([0, 1]), 2)
        res = log_prob_conditional(
            net, assign, [0.5, 0.5], np.array([[1.0, 0.0], [0.0, 1.0]]),
            [0.5, 0.5], [1.0, 1.0],
        )
        assert res.is_neg_inf
        assert res.value == float("-inf")
        assert res.zero_pairs == ((0, 1),)

    def test_marginalizes_to_sequential(self):
        """Monte-Carlo integration over the Dirichlet layers reproduces
        the collapsed form."""
        net = InteractionNetwork.from_records([("a", ["b"]), ("c", ["a"])])
        assign = BlockAssignment(np.array([0, 1, 0]), 2)
        alpha, theta = [0.4, 0.6], [1.5, 2.5]
        omega, zeta = 1.3, 0.9
        seq = log_prob_sequential(net, assign, omega, zeta, alpha, theta)
        stats = compute_stats(net, assign)

        rng = np.random.default_rng(11)
        n_mc = 200_000
        pis = rng.dirichlet([omega, omega], size=n_mc)
        rows = [rng.dirichlet([zeta, zeta], size=n_mc) for _ in range(2)]
        log_vals = stats.initiations[0] * np.log(pis[:, 0]) + stats.initiations[
            1
        ] * np.log(pis[:, 1])
        for b in range(2):
            for b2 in range(2):
                c = stats.pair[b, b2]
                if c:
                    log_vals = log_vals + c * np.log(rows[b][:, b2])
        vals = np.exp(log_vals)
        mc = vals.mean()
        target = math.exp(seq.term_block + seq.term_prop)
        se = vals.std() / math.sqrt(n_mc)
        assert abs(mc - target) <= 4 * se
        # and log_prob_conditional at a fixed draw matches the direct formula
        res = log_prob_conditional(
            net, assign, pis[0], np.stack([rows[0][0], rows[1][0]]), alpha, theta
        )
        direct = (
            float(log_vals[0]) + seq.term_nodes
        )
        assert res.value == pytest.approx(direct)


class TestMarginalLogLikelihood:
    def _chain_of(self, net, assign, alpha, theta, reps=3):
        """reps copies of one sample, recording its log-probability as
        run_gibbs does."""
        iters = reps
        lp = log_prob_sequential(net, assign, 1.0, 1.0, alpha, theta).value
        return Chain(
            k=assign.k,
            burn_in=0,
            seed=0,
            node_ids=list(net.node_ids),
            assignments=np.tile(assign.labels, (iters, 1)),
            alphas=np.tile(alpha, (iters, 1)),
            thetas=np.tile(theta, (iters, 1)),
            props=np.tile(np.eye(assign.k), (iters, 1, 1)),
            log_probs=np.full(iters, lp),
            block_conc=1.0,
            recv_conc=1.0,
        )

    def test_identical_samples(self):
        rng = np.random.default_rng(12)
        net, assign = random_network(rng, 2, m=10, n_pool=6)
        alpha, theta = np.array([0.4, 0.5]), np.array([2.0, 1.0])
        chain = self._chain_of(net, assign, alpha, theta)
        got = marginal_log_likelihood(chain)
        want = log_prob_sequential(net, assign, 1.0, 1.0, alpha, theta).value
        assert got == pytest.approx(want)

    def test_empty_chain_errors(self):
        rng = np.random.default_rng(13)
        net, assign = random_network(rng, 2, m=5, n_pool=4)
        chain = self._chain_of(net, assign, np.array([0.4, 0.5]), np.array([1.0, 1.0]))
        chain.burn_in = len(chain)
        with pytest.raises(UsageError):
            marginal_log_likelihood(chain)

    def test_recorded_log_probs_match_recomputation(self):
        """The sampler's per-iteration value equals a from-scratch
        evaluation at every recorded sample."""
        p = ModelParams(
            alpha=np.array([0.5, 0.5]), theta=np.array([5.0, 5.0]),
            block_conc=1.0, recv_conc=1.0,
        )
        res = simulate_sequential(GeneratorConfig(params=p, m=120, seed=3))
        chain = run_gibbs(res.network, GibbsConfig(k=2, iterations=10, burn_in=2, seed=4))
        for t in range(len(chain)):
            fresh = log_prob_sequential(
                res.network,
                BlockAssignment(chain.assignments[t], 2),
                1.0,
                1.0,
                chain.alphas[t],
                chain.thetas[t],
            )
            assert chain.log_probs[t] == pytest.approx(fresh.value, abs=1e-7)
