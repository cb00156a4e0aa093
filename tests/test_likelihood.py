import math
from collections import Counter

import numpy as np
import pytest

from bvcm import (
    BlockAssignment,
    Chain,
    DataError,
    GibbsConfig,
    InteractionNetwork,
    SufficientStats,
    UsageError,
    compute_stats,
    log_prob_sequential,
    marginal_log_likelihood,
    run_gibbs,
    simulate_sequential,
    GeneratorConfig,
    ModelParams,
)

from bvcm.likelihood import block_eppf, gammaln, log_prob_from_stats

from oracles import log_prob_conditional, permuted, random_network, replay_log_prob


def test_gammaln_is_math_lgamma_bit_for_bit():
    x = np.random.default_rng(5).uniform(1e-3, 1e6, 1000)
    grid = x.reshape(10, 100)
    cases = [x, np.array(7.25), x[:4].reshape(2, 2), grid[:, ::3], grid.T]
    for arg in cases:
        out = gammaln(arg)
        assert out.shape == arg.shape and out.dtype == np.float64
        want = [math.lgamma(v) for v in arg.ravel().tolist()]
        assert out.ravel().view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
    assert not grid[:, ::3].flags.c_contiguous
    assert type(gammaln(4.5)) is np.float64 and gammaln(4.5) == math.lgamma(4.5)
    assert gammaln([1.0, 2.0]).tolist() == [0.0, 0.0]


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


def test_domain_is_data_error():
    """theta_b <= -alpha_b and alpha outside (0, 1) are rejected before
    any factor is evaluated."""
    net = InteractionNetwork.from_records([("a", ["b"]), ("b", ["c"])])
    assign = BlockAssignment(np.zeros(3, dtype=int), 1)
    for alpha, theta in (
        (0.5, -0.5), (0.5, -0.7), (0.0, 1.0), (1.0, 1.0), (-0.2, 1.0), (1.5, 1.0),
    ):
        with pytest.raises(DataError):
            log_prob_sequential(net, assign, 1.0, 1.0, [alpha], [theta])


class TestAgainstMpmath:
    """block_eppf and the three LogProb terms against 40-digit mpmath.

    The reference takes every product as a ratio of gamma functions
    (the discount product as alpha^{v-1} Gamma(theta/alpha + v) /
    Gamma(theta/alpha + 1)), a different route from the code's.  Each
    value must lie within 1e-12 of the reference relative to its scale:
    the summed magnitudes of the log factors and log-gammas that a
    double-precision evaluation adds.  Where those cancel (a block of
    two degree-1 nodes at theta = 1000 sums to about -1e-3 from
    factors near 7), no double computation holds 1e-12 relative to the
    value itself.
    """

    ALPHAS = (1e-6, 1e-3, 0.5, 0.99)
    # One degree list per block: empty, single nodes, two degree-1
    # nodes, 5 000 nodes of degree 1, one node of degree 5 000, and a
    # long-tailed block of 1 500 nodes.
    DEGREES = (
        [], [1], [1, 1], [1] * 5000, [5000],
        list(np.minimum(np.random.default_rng(3).zipf(1.8, size=1500), 40)),
    )

    @staticmethod
    def thetas(alpha):
        return (-alpha / 2, 0.1, 5.0, 1000.0)

    @classmethod
    def stats(cls):
        k = len(cls.DEGREES)
        width = max(max(d, default=0) for d in cls.DEGREES) + 1
        hist = np.zeros((k, width), dtype=np.int64)
        for b, degs in enumerate(cls.DEGREES):
            np.add.at(hist[b], np.asarray(degs, dtype=np.int64), 1)
        initiations = np.array([0, 1, 2, 2500, 1000, 497])
        # Receiver counts up to 5 000, with zeros and an empty row.
        pair = np.random.default_rng(4).integers(0, 5001, size=(k, k))
        pair[pair < 800] = 0
        pair[1] = 0
        return SufficientStats(
            m=int(initiations.sum()),
            initiations=initiations,
            pair=pair,
            deg_hist=hist,
            block_sizes=hist.sum(axis=1),
            block_deg=hist @ np.arange(width),
        )

    @staticmethod
    def _log_rising(x, n):
        """mpmath value and double-precision scale of log (x)_n."""
        import mpmath as mp

        if not n:
            return mp.mpf(0), 0.0
        value = mp.loggamma(x + n) - mp.loggamma(x)
        return value, abs(math.lgamma(x + n)) + abs(math.lgamma(x))

    @classmethod
    def eppf_reference(cls, degs, alpha, theta):
        import mpmath as mp

        if not degs:
            return mp.mpf(0), 0.0
        a, t = mp.mpf(alpha), mp.mpf(theta)
        v, total = len(degs), int(sum(degs))
        value = (v - 1) * mp.log(a) + mp.loggamma(t / a + v) - mp.loggamma(t / a + 1)
        scale = float(np.abs(np.log(theta + alpha * np.arange(1, v))).sum())
        rising, s = cls._log_rising(t + 1, total - 1)
        value -= rising
        scale += s
        for d, count in Counter(degs).items():
            value += count * (mp.loggamma(d - a) - mp.loggamma(1 - a))
            scale += count * (abs(math.lgamma(d - alpha)) + abs(math.lgamma(1 - alpha)))
        return value, scale

    @classmethod
    def urn_reference(cls, conc, counts):
        """log Dirichlet-multinomial factor of one urn over k categories."""
        import mpmath as mp

        c = mp.mpf(conc)
        value, scale = mp.mpf(0), 0.0
        for n in counts:
            v, s = cls._log_rising(c, int(n))
            value, scale = value + v, scale + s
        v, s = cls._log_rising(len(counts) * c, int(sum(counts)))
        return value - v, scale + s

    def test_block_eppf(self):
        import mpmath as mp

        hist = self.stats().deg_hist
        with mp.workdps(40):
            for alpha in self.ALPHAS:
                for theta in self.thetas(alpha):
                    for b, degs in enumerate(self.DEGREES):
                        want, scale = self.eppf_reference(degs, alpha, theta)
                        got = block_eppf(hist[b], alpha, theta)
                        assert abs(got - want) <= 1e-12 * scale, (alpha, theta, b)

    def test_log_prob_terms(self):
        import mpmath as mp

        stats = self.stats()
        k = len(self.DEGREES)
        with mp.workdps(40):
            for omega, zeta in ((1.0, 1.0), (0.05, 30.0), (1000.0, 1e-3)):
                want_block, s_block = self.urn_reference(omega, stats.initiations)
                want_prop, s_prop = mp.mpf(0), 0.0
                for row in stats.pair:
                    if row.sum():
                        v, s = self.urn_reference(zeta, row)
                        want_prop, s_prop = want_prop + v, s_prop + s
                for alpha in self.ALPHAS:
                    for theta in self.thetas(alpha):
                        lp = log_prob_from_stats(
                            stats, omega, zeta, [alpha] * k, [theta] * k
                        )
                        where = (omega, zeta, alpha, theta)
                        assert abs(lp.term_block - want_block) <= 1e-12 * s_block, where
                        assert abs(lp.term_prop - want_prop) <= 1e-12 * s_prop, where
                        refs = [
                            self.eppf_reference(d, alpha, theta) for d in self.DEGREES
                        ]
                        want_nodes = mp.fsum(v for v, _ in refs)
                        s_nodes = sum(s for _, s in refs)
                        assert abs(lp.term_nodes - want_nodes) <= 1e-12 * s_nodes, where


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
