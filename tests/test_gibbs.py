import copy
import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from bvcm import (
    BlockAssignment,
    GeneratorConfig,
    GibbsConfig,
    GibbsSampler,
    InteractionNetwork,
    ModelParams,
    UsageError,
    compute_stats,
    log_prob_sequential,
    run_gibbs,
    simulate_conditional_iid,
    simulate_sequential,
)
from bvcm.consistency import degree_majority_update
from bvcm.gibbs import aux_update_alpha_theta, warm_start_labels
from bvcm.likelihood import log_prob_from_stats

from oracles import (
    aux_update_alpha_theta_degrees,
    aux_update_cases,
    enumerate_full_conditional,
    full_conditional,
    random_network,
    sweep_backends,
    update_block_assignment,
    warm_start_labels_chain,
)


def diag_block_data(m=2500, alpha=(0.5, 0.5), diag=0.9, seed=0):
    k = len(alpha)
    prop = np.full((k, k), (1.0 - diag) / (k - 1))
    np.fill_diagonal(prop, diag)
    params = ModelParams(
        alpha=np.asarray(alpha),
        theta=np.full(k, 5.0),
        block_conc=1.0,
        recv_conc=1.0,
        block_probs=np.full(k, 1.0 / k),
        propensity=prop,
    )
    return simulate_conditional_iid(
        GeneratorConfig(params=params, m=m, seed=seed, mode="conditional_iid")
    )


class TestBlockUpdate:
    def test_full_conditional_matches_enumeration(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for trial in range(12):
            k = 2 if trial % 2 == 0 else 3
            net, _ = random_network(rng, k, m=int(rng.integers(3, 8)), n_pool=5, max_arity=2)
            sampler = GibbsSampler(
                net, GibbsConfig(k=k, iterations=1, burn_in=0, seed=int(rng.integers(1e6)))
            )
            sampler.set_labels(rng.integers(k, size=net.n_nodes))
            sampler._refresh_deg_table()
            prop = sampler.update_propensity()
            for node in range(net.n_nodes):
                mine = full_conditional(sampler, node)
                ref = enumerate_full_conditional(
                    net, np.array(sampler.labels), node, k,
                    sampler.config.block_conc, prop, sampler.alpha, sampler.theta,
                )
                worst = max(worst, float(np.abs(mine - ref).max()))
        assert worst < 1e-9

    def test_full_conditional_leaves_state_intact(self):
        rng = np.random.default_rng(12)
        net, _ = random_network(rng, 2, m=10, n_pool=6)
        sampler = GibbsSampler(net, GibbsConfig(k=2, iterations=1, burn_in=0, seed=3))

        def state():
            stats = dataclasses.astuple(sampler.stats)
            return [sampler.labels.tolist()] + [np.asarray(x).tolist() for x in stats]

        before = state()
        full_conditional(sampler, 0)
        assert state() == before

    def test_k1_is_certain(self):
        net = InteractionNetwork.from_records([("a", ["b"]), ("b", ["a"])])
        sampler = GibbsSampler(net, GibbsConfig(k=1, iterations=1, burn_in=0, seed=0))
        assert full_conditional(sampler, 0) == pytest.approx([1.0])
        assert update_block_assignment(sampler, 0) == 0

    def test_diagonal_pull(self):
        # node 'x' with every counterparty labeled block 0 under a strongly
        # diagonal mixing matrix prefers block 0
        net = InteractionNetwork.from_records(
            [("x", ["a"]), ("b", ["x"]), ("x", ["c"])]
        )
        sampler = GibbsSampler(net, GibbsConfig(k=2, iterations=1, burn_in=0, seed=1))
        sampler.set_labels([0, 0, 0, 0])
        sampler._refresh_deg_table()
        sampler.prop = np.array([[0.9, 0.1], [0.1, 0.9]])
        sampler._log_prop[...] = np.log(sampler.prop)
        probs = full_conditional(sampler, net.node_index("x"))
        assert probs[0] > probs[1]

    def test_incremental_counts_match_scratch(self):
        """Every field of the sampler's stats, the degree histogram
        included, equals compute_stats on its labels after whole
        iterations and after single-node updates, on either backend."""

        def assert_current(sampler):
            labels = BlockAssignment(np.array(sampler.labels), sampler.k)
            fresh = compute_stats(sampler.network, labels)
            for field in dataclasses.fields(fresh):
                name = field.name
                assert np.array_equal(getattr(sampler.stats, name), getattr(fresh, name)), name

        for backend in sweep_backends():
            rng = np.random.default_rng(13)
            for trial in range(5):
                net, _ = random_network(rng, 3, m=20, n_pool=8, max_arity=2)
                cfg = GibbsConfig(k=3, iterations=1, burn_in=0, seed=trial)
                sampler = GibbsSampler(net, cfg)
                assert sampler.sweep_backend == backend
                for _ in range(3):
                    sampler.iteration()
                    assert_current(sampler)
                for i in range(net.n_nodes):
                    update_block_assignment(sampler, i)
                assert_current(sampler)

    def test_log_prob_matches_recompute_every_iteration(self):
        """log_prob reads the counts the sweep keeps in the sampler's
        stats; it must equal log_prob_from_stats on a fresh
        compute_stats exactly, also after a single-node update."""
        rng = np.random.default_rng(21)

        def recomputed(sampler):
            cfg = sampler.config
            fresh = compute_stats(sampler.network, BlockAssignment(np.array(sampler.labels), cfg.k))
            return log_prob_from_stats(
                fresh, cfg.block_conc, cfg.recv_conc, sampler.alpha, sampler.theta
            ).value

        for backend in sweep_backends():
            for k in range(1, 6):
                net, _ = random_network(
                    rng, k, m=int(rng.integers(5, 40)), n_pool=12, max_arity=3
                )
                sampler = GibbsSampler(net, GibbsConfig(k=k, iterations=1, seed=k))
                assert sampler.sweep_backend == backend
                assert sampler.log_prob() == recomputed(sampler)
                for _ in range(30):
                    sampler.iteration()
                    assert sampler.log_prob() == recomputed(sampler)
                for i in range(net.n_nodes):
                    update_block_assignment(sampler, i)
                assert sampler.log_prob() == recomputed(sampler)

    def test_log_prob_keeps_its_bits_under_relabelling(self):
        """Relabelling the blocks permutes the counts, the degree-histogram
        rows, both axes of pair, alpha and theta together; log_prob gives
        the same bits on both backends, as its sums are correctly rounded
        (math.fsum and its port in the kernel)."""
        rng = np.random.default_rng(33)
        for backend in sweep_backends():
            for k in (2, 3, 4, 5):
                net, _ = random_network(rng, k, m=80, n_pool=30, max_arity=3)
                sampler = GibbsSampler(net, GibbsConfig(k=k, iterations=1, seed=k))
                assert sampler.sweep_backend == backend
                for _ in range(5):
                    sampler.iteration()
                labels, alpha, theta = (
                    np.array(sampler.labels), sampler.alpha.copy(), sampler.theta.copy()
                )
                pair, deg_hist = sampler.stats.pair.copy(), sampler.stats.deg_hist.copy()
                want = sampler.log_prob().hex()
                for _ in range(8):
                    perm = rng.permutation(k)  # new block b is old block perm[b]
                    sampler.set_labels(np.argsort(perm)[labels])
                    sampler.alpha[...], sampler.theta[...] = alpha[perm], theta[perm]
                    assert np.array_equal(sampler.stats.pair, pair[np.ix_(perm, perm)])
                    assert np.array_equal(sampler.stats.deg_hist, deg_hist[perm])
                    assert sampler.log_prob().hex() == want, (backend, k, perm)


def enumerated_label_posterior(net, k, alpha, theta):
    """P(labels | network, alpha, theta) over all k**n labelings, indexed
    by sum_i labels[i] * k**i.  Exact: the collapsed log-probability
    integrates the block frequencies and the mixing matrix out."""
    configs = np.array(list(itertools.product(range(k), repeat=net.n_nodes)))[:, ::-1]
    logp = np.array([
        log_prob_sequential(net, BlockAssignment(c, k), 1.0, 1.0, alpha, theta).value
        for c in configs
    ])
    p = np.exp(logp - logp.max())
    return p / p.sum()


@pytest.mark.slow
class TestExactPosterior:
    def test_label_frequencies_match_enumeration(self):
        """With (alpha, theta) held fixed, the sweep plus the mixing-matrix
        redraw leave the enumerated label posterior invariant: thinned
        label frequencies pass a chi-square test against it, on every
        sweep backend."""
        rng = np.random.default_rng(41)
        pvalues = []
        for k, n_pool in ((2, 7), (2, 7), (3, 5), (3, 5)):
            m = int(rng.integers(5, 10))
            net, _ = random_network(rng, k, m=m, n_pool=n_pool, max_arity=2)
            alpha = rng.uniform(0.2, 0.8, size=k)
            theta = rng.uniform(0.5, 5.0, size=k)
            exact = enumerated_label_posterior(net, k, alpha, theta)

            seed = int(rng.integers(1e6))
            place = k ** np.arange(net.n_nodes)
            chains = []
            for backend in sweep_backends():
                sampler = GibbsSampler(net, GibbsConfig(k=k, iterations=1, burn_in=0, seed=seed))
                assert sampler.sweep_backend == backend
                sampler.alpha[:] = alpha
                sampler.theta[:] = theta
                sampler._refresh_deg_table()
                sampler.update_propensity()
                seen = []
                for t in range(30_000):
                    sampler.sweep()
                    sampler.update_propensity()
                    if t % 3 == 0:
                        seen.append(int(np.dot(sampler.labels, place)))
                chains.append(seen)
            # Equal seeds: every backend draws the same chain.
            assert all(c == chains[0] for c in chains[1:])
            observed = np.bincount(seen, minlength=len(exact))
            expected = exact * len(seen)
            # Cells expected below 5 are pooled into one.
            small = expected < 5
            obs = np.append(observed[~small], observed[small].sum())
            exp = np.append(expected[~small], expected[small].sum())
            if not small.any():
                obs, exp = obs[:-1], exp[:-1]
            pvalues.append(sp_stats.chisquare(obs, exp).pvalue)
        assert min(pvalues) > 0.001, pvalues


class TestParameterUpdates:
    def test_empty_and_singleton_blocks_fall_back_to_priors(self):
        rng = np.random.default_rng(20)
        # singleton degree-1 block: no auxiliary draws at all
        draws = np.array(
            [
                aux_update_alpha_theta([0, 1], 0.5, 1.0, (2.0, 3.0), (1.5, 2.0), rng)
                for _ in range(4000)
            ]
        )
        assert draws[:, 0].mean() == pytest.approx(2.0 / 5.0, abs=0.02)  # Beta(2,3)
        assert draws[:, 1].mean() == pytest.approx(1.5 / 2.0, abs=0.03)  # Gamma(1.5,2)
        empty = np.array(
            [
                aux_update_alpha_theta([0], 0.5, 1.0, (1.0, 1.0), (1.0, 1.0), rng)
                for _ in range(4000)
            ]
        )
        assert empty[:, 0].mean() == pytest.approx(0.5, abs=0.02)

    def test_histogram_update_matches_degree_list_oracle(self):
        """The update reads a degree-histogram row; it must return the
        same (alpha, theta) bit for bit, and leave the same generator
        state, as the degree-list form it replaced."""
        for case, degs, hist, args in aux_update_cases():
            r_old, r_new = np.random.default_rng(case), np.random.default_rng(case)
            expected = aux_update_alpha_theta_degrees(degs, *args, r_old)
            assert aux_update_alpha_theta(hist, *args, r_new) == expected, case
            assert r_new.bit_generator.state == r_old.bit_generator.state, case

    def test_alpha_recovery_at_truth_labels(self):
        # strength of the conjugate machinery on one big block
        params = ModelParams(
            alpha=np.array([0.8]), theta=np.array([5.0]), block_conc=1.0, recv_conc=1.0
        )
        res = simulate_sequential(GeneratorConfig(params=params, m=5000, seed=5))
        sampler = GibbsSampler(res.network, GibbsConfig(k=1, iterations=1, burn_in=0, seed=6))
        trace = []
        for it in range(200):
            sampler.alpha[0], sampler.theta[0] = sampler.update_alpha_theta(0)
            if it >= 50:
                trace.append(sampler.alpha[0])
        assert np.mean(trace) == pytest.approx(0.8, abs=0.04)

    def test_zero_counts_propensity_is_prior(self):
        net = InteractionNetwork.from_records([("a", ["b"])])
        sampler = GibbsSampler(net, GibbsConfig(k=3, iterations=1, burn_in=0, seed=7))
        sampler.stats.pair[...] = 0
        draws = np.stack([sampler.update_propensity() for _ in range(3000)])
        assert np.abs(draws.mean(axis=0) - 1.0 / 3.0).max() < 0.03

    def test_update_alpha_theta_writes_the_pair_in_place(self):
        """On both backends update_alpha_theta(b) draws what
        aux_update_alpha_theta draws on a copy of the generator, leaves the
        generator in that copy's state, writes the pair to alpha[b] and
        theta[b] and returns it; block 2 is empty, so the prior branch
        runs too."""
        net, _ = random_network(np.random.default_rng(14), 2, m=40, n_pool=15, max_arity=2)
        for backend in sweep_backends():
            sampler = GibbsSampler(net, GibbsConfig(k=3, iterations=1, seed=8))
            sampler.set_labels(np.arange(sampler.n) % 2)
            assert not sampler.stats.deg_hist[2].any()
            cfg = sampler.config
            for _ in range(3):
                for b in range(3):
                    ref = copy.deepcopy(sampler.rng)
                    expected = aux_update_alpha_theta(
                        sampler.stats.deg_hist[b].copy(), sampler.alpha[b], sampler.theta[b],
                        cfg.alpha_prior, cfg.theta_prior, ref,
                    )
                    got = sampler.update_alpha_theta(b)
                    assert got == expected, (backend, b)
                    assert (sampler.alpha[b], sampler.theta[b]) == got, (backend, b)
                    assert sampler.rng.bit_generator.state == ref.bit_generator.state, backend

    def test_block_index_is_checked_on_both_backends(self):
        """The kernel reads block b's histogram row, so an index outside
        the blocks is an IndexError, as numpy's indexing gives the Python
        path, before any C code runs."""
        net = InteractionNetwork.from_records([("a", ["b"]), ("b", ["c", "a"])])
        for backend in sweep_backends():
            sampler = GibbsSampler(net, GibbsConfig(k=3, iterations=1, seed=2))
            state = sampler.rng.bit_generator.state
            for b in (3, -4):
                with pytest.raises(IndexError):
                    sampler.update_alpha_theta(b)
            assert sampler.rng.bit_generator.state == state, backend

    def test_log_mixing_matrix_is_libm_log(self):
        """The log mixing matrix both sweeps read is math.log of each
        entry (floored at 1e-12), bit for bit, whatever log numpy's
        vectorised kernel on this CPU would give."""
        net = InteractionNetwork.from_records([("a", ["b"]), ("b", ["c", "a"])])
        sampler = GibbsSampler(net, GibbsConfig(k=5, iterations=1, seed=8))
        for _ in range(400):
            prop = sampler.update_propensity()
            want = [[math.log(max(p, 1e-12)) for p in row] for row in prop.tolist()]
            assert sampler._log_prop.tobytes() == np.array(want).tobytes()


class TestRunGibbs:
    def test_single_iteration_chain(self):
        rng = np.random.default_rng(14)
        net, _ = random_network(rng, 2, m=8, n_pool=5)
        chain = run_gibbs(net, GibbsConfig(k=2, iterations=1, burn_in=0, seed=2))
        assert len(chain) == 1
        assert chain.assignments.shape == (1, net.n_nodes)

    def test_determinism(self):
        rng = np.random.default_rng(15)
        net, _ = random_network(rng, 2, m=25, n_pool=8)
        a = run_gibbs(net, GibbsConfig(k=2, iterations=20, burn_in=5, seed=42))
        b = run_gibbs(net, GibbsConfig(k=2, iterations=20, burn_in=5, seed=42))
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.alphas, b.alphas)
        assert np.array_equal(a.props, b.props)
        assert np.array_equal(a.log_probs, b.log_probs)

    def test_samples_satisfy_domains(self):
        rng = np.random.default_rng(16)
        net, _ = random_network(rng, 4, m=30, n_pool=10, max_arity=2)
        chain = run_gibbs(net, GibbsConfig(k=4, iterations=30, burn_in=0, seed=3))
        assert ((chain.alphas > 0) & (chain.alphas < 1)).all()
        assert (chain.thetas > 0).all()
        assert np.allclose(chain.props.sum(axis=2), 1.0, atol=1e-9)
        assert chain.assignments.min() >= 0 and chain.assignments.max() < 4
        assert np.isfinite(chain.log_probs).all()

    def test_more_blocks_than_structure(self):
        # blocks may empty out and must stay addressable
        res = diag_block_data(m=300, seed=3)
        chain = run_gibbs(res.network, GibbsConfig(k=5, iterations=25, burn_in=0, seed=4))
        assert chain.assignments.shape[0] == 25

    def test_empty_network_rejected(self):
        with pytest.raises(UsageError):
            run_gibbs(InteractionNetwork.from_records([]), GibbsConfig(k=2, iterations=1))

    def test_config_validation(self):
        with pytest.raises(UsageError):
            GibbsConfig(k=2, iterations=5, burn_in=5)
        with pytest.raises(UsageError):
            GibbsConfig(k=0, iterations=5)
        with pytest.raises(UsageError):
            GibbsConfig(k=2, iterations=5, init="provided")

    def test_degree_majority_init_requires_k2(self):
        rng = np.random.default_rng(17)
        net, _ = random_network(rng, 3, m=10, n_pool=5)
        with pytest.raises(UsageError):
            run_gibbs(net, GibbsConfig(k=3, iterations=2, init="degree_majority"))

    def test_degree_majority_init_is_two_majority_passes(self):
        """At k = 2 the sampler starts from two degree-majority passes
        over the random labels its seed draws first."""
        res = diag_block_data(m=300, seed=8)
        net = res.network
        sampler = GibbsSampler(net, GibbsConfig(k=2, iterations=1, seed=5, init="degree_majority"))
        start = np.random.default_rng(np.random.SeedSequence(5)).integers(2, size=net.n_nodes)
        assignment = BlockAssignment(start, 2)
        for _ in range(2):
            assignment = degree_majority_update(net, assignment)
        assert np.array_equal(sampler.labels, assignment.labels)
        assert not np.array_equal(sampler.labels, start)
        fresh = compute_stats(net, assignment)
        assert np.array_equal(sampler.stats.deg_hist, fresh.deg_hist)

    def test_warm_start_labels(self):
        res = diag_block_data(m=800, seed=6)
        cfg = GibbsConfig(k=2, iterations=50, burn_in=10, seed=7)
        labels = warm_start_labels(res.network, cfg)
        assert labels.shape == (res.network.n_nodes,)
        assert set(np.unique(labels)) <= {0, 1}
        again = warm_start_labels(res.network, cfg)
        assert np.array_equal(labels, again)

    def test_warm_start_votes_match_the_probe_chain(self):
        """The warm start gives the labels of the recorded probe chain's
        majority, ties included, for k = 1..4 and the fit's
        concentrations and priors; every eighth network has nodes beyond
        the probe's prefix, so the neighbor extension runs too."""
        rng = np.random.default_rng(41)
        ties = 0
        for case in range(24):
            k = case % 4 + 1
            if case % 8 == 7:
                net, _ = random_network(rng, k, m=2600, n_pool=3000)
                assert net.prefix(2500).n_nodes < net.n_nodes
            else:
                m, pool = int(rng.integers(5, 60)), int(rng.integers(3, 40))
                net, _ = random_network(rng, k, m=m, n_pool=pool, max_arity=3)
            block_conc, recv_conc, c, shape = rng.uniform(0.5, 3.0, size=4)
            cfg = GibbsConfig(
                k=k, iterations=10, burn_in=2, seed=case, block_conc=block_conc,
                recv_conc=recv_conc, alpha_prior=(c, 1.0), theta_prior=(shape, 0.5),
                init="warm",
            )
            expected, counts = warm_start_labels_chain(net, cfg)
            assert np.array_equal(warm_start_labels(net, cfg), expected), case
            top = counts.max(axis=1, keepdims=True)
            ties += int(np.any((counts == top).sum(axis=1) > 1))
        assert ties > 0


@pytest.mark.slow
def test_mixing_diagnostics_benchmark_setting():
    """Discount traces settle quickly: post-burn-in lag-1 autocorrelation
    below 0.9 and split-chain shrink factor below 1.1 over 4 chains."""
    res = diag_block_data(m=2500, seed=1)
    traces = []
    for c in range(4):
        chain = run_gibbs(res.network, GibbsConfig(k=2, iterations=500, burn_in=150, seed=50 + c))
        # per-iteration max discount is invariant to label switching
        traces.append(chain.alphas[150:].max(axis=1))
    for t in traces:
        lag1 = np.corrcoef(t[:-1], t[1:])[0, 1]
        assert lag1 < 0.9
    arr = np.stack(traces)
    n = arr.shape[1]
    means = arr.mean(axis=1)
    within = arr.var(axis=1, ddof=1).mean()
    between = n * means.var(ddof=1)
    gr = np.sqrt((within * (n - 1) / n + between / n) / within)
    assert gr < 1.1


# sha256 of 60 warm-started iterations: labels, alpha, theta and the mixing
# matrix in one digest (taken before the log-probability, degree table and
# redraw moved into the kernel), the log-probabilities in another (taken
# once the log-probability's sums became math.fsum).  "paper" is the
# benchmark's paper network and fit; "k3-sparse" fits three blocks with
# recv_conc 0.05 to a two-block network, so empty mixing-matrix rows take
# Generator.dirichlet's small-concentration branch.  Like
# test_stream_is_pinned, they assume numpy's Generator streams, and also
# this host's libm log.
_PINNED_CHAINS = {
    "paper": (
        2500, 7, GibbsConfig(k=2, iterations=60, seed=7, init="warm"),
        "61eeb6da105ba579879c5df64a6042b516a72ecd29ab772737194661536144b4",
        "7b7b9251f516669683b762de18d3a1f3c05d81a91c1864ea01aa9a318ed1b345",
    ),
    "k3-sparse": (
        400, 11, GibbsConfig(k=3, iterations=60, seed=3, init="warm", recv_conc=0.05),
        "a54855ab768a70821b3f437e4f317afd860b968ffd83bee7d2194fc6b3c0e3a7",
        "9e3b3cb78563df6cfe1c1d7b83540849af830ae42e228b0969f1038156be4f3c",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_CHAINS))
def test_chain_is_pinned(name):
    m, net_seed, cfg, digest, log_prob_digest = _PINNED_CHAINS[name]
    net = diag_block_data(m=m, seed=net_seed).network
    for backend in sweep_backends():
        chain = run_gibbs(net, cfg)
        assert chain.sweep_backend == backend
        h = hashlib.sha256()
        for part in (chain.assignments, chain.alphas, chain.thetas, chain.props):
            h.update(np.ascontiguousarray(part).tobytes())
        assert h.hexdigest() == digest, backend
        assert hashlib.sha256(chain.log_probs.tobytes()).hexdigest() == log_prob_digest, backend
