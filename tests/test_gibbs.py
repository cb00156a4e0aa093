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
    run_gibbs,
    simulate_conditional_iid,
    simulate_sequential,
)
from bvcm.gibbs import aux_update_alpha_theta, warm_start_labels

from oracles import enumerate_full_conditional, random_network


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
            sampler.labels = [int(x) for x in rng.integers(k, size=net.n_nodes)]
            sampler._rebuild_counts()
            sampler._refresh_deg_table()
            prop = sampler.update_propensity()
            for node in range(net.n_nodes):
                mine = sampler.full_conditional(node)
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
        before = (
            list(sampler.labels),
            [list(r) for r in sampler.pair],
            list(sampler.block_n),
            list(sampler.block_deg),
            list(sampler.inits),
        )
        sampler.full_conditional(0)
        after = (
            list(sampler.labels),
            [list(r) for r in sampler.pair],
            list(sampler.block_n),
            list(sampler.block_deg),
            list(sampler.inits),
        )
        assert before == after

    def test_k1_is_certain(self):
        net = InteractionNetwork.from_records([("a", ["b"]), ("b", ["a"])])
        sampler = GibbsSampler(net, GibbsConfig(k=1, iterations=1, burn_in=0, seed=0))
        assert sampler.full_conditional(0) == pytest.approx([1.0])
        assert sampler.update_block_assignment(0) == 0

    def test_diagonal_pull(self):
        # node 'x' with every counterparty labeled block 0 under a strongly
        # diagonal mixing matrix prefers block 0
        net = InteractionNetwork.from_records(
            [("x", ["a"]), ("b", ["x"]), ("x", ["c"])]
        )
        sampler = GibbsSampler(net, GibbsConfig(k=2, iterations=1, burn_in=0, seed=1))
        sampler.labels = [0, 0, 0, 0]
        sampler._rebuild_counts()
        sampler._refresh_deg_table()
        sampler.prop = np.array([[0.9, 0.1], [0.1, 0.9]])
        sampler._log_prop = np.log(sampler.prop).tolist()
        probs = sampler.full_conditional(net.node_index("x"))
        assert probs[0] > probs[1]

    def test_incremental_counts_match_scratch(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            net, _ = random_network(rng, 3, m=20, n_pool=8, max_arity=2)
            sampler = GibbsSampler(net, GibbsConfig(k=3, iterations=1, burn_in=0, seed=trial))
            for _ in range(3):
                sampler.iteration()
            fresh = compute_stats(net, BlockAssignment(np.array(sampler.labels), 3))
            assert np.array_equal(np.array(sampler.pair), fresh.pair)
            assert np.array_equal(np.array(sampler.inits), fresh.initiations)
            assert np.array_equal(np.array(sampler.block_n), fresh.block_sizes)
            assert np.array_equal(np.array(sampler.block_deg), fresh.block_deg)


class TestParameterUpdates:
    def test_empty_and_singleton_blocks_fall_back_to_priors(self):
        rng = np.random.default_rng(20)
        # singleton degree-1 block: no auxiliary draws at all
        draws = np.array(
            [
                aux_update_alpha_theta([1], 0.5, 1.0, (2.0, 3.0), (1.5, 2.0), rng)
                for _ in range(4000)
            ]
        )
        assert draws[:, 0].mean() == pytest.approx(2.0 / 5.0, abs=0.02)  # Beta(2,3)
        assert draws[:, 1].mean() == pytest.approx(1.5 / 2.0, abs=0.03)  # Gamma(1.5,2)
        empty = np.array(
            [
                aux_update_alpha_theta([], 0.5, 1.0, (1.0, 1.0), (1.0, 1.0), rng)
                for _ in range(4000)
            ]
        )
        assert empty[:, 0].mean() == pytest.approx(0.5, abs=0.02)

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
        sampler.pair = [[0] * 3 for _ in range(3)]
        draws = np.stack([sampler.update_propensity() for _ in range(3000)])
        assert np.abs(draws.mean(axis=0) - 1.0 / 3.0).max() < 0.03

    def test_symmetric_mode_structure(self):
        rng = np.random.default_rng(8)
        net, _ = random_network(rng, 3, m=30, n_pool=10, max_arity=2)
        sampler = GibbsSampler(
            net, GibbsConfig(k=3, iterations=1, burn_in=0, seed=9, symmetric_prop=True)
        )
        for _ in range(50):
            prop = sampler.update_propensity()
            assert np.allclose(prop, prop.T, atol=1e-12)
            assert np.allclose(prop.sum(axis=1), 1.0, atol=1e-12)
            assert (prop >= 0).all()

    @pytest.mark.slow
    def test_symmetric_mode_diagonal_recovery(self):
        """Three blocks, within-weight 0.9: symmetric-mode posterior mean
        of the diagonal lands near 0.9 (expected near 0.902)."""
        diags = []
        for seed in range(3):
            prop = np.full((3, 3), 0.05)
            np.fill_diagonal(prop, 0.9)
            params = ModelParams(
                alpha=np.array([0.2, 0.5, 0.8]), theta=np.full(3, 5.0),
                block_conc=1.0, recv_conc=1.0,
                block_probs=np.full(3, 1 / 3), propensity=prop,
            )
            res = simulate_conditional_iid(
                GeneratorConfig(params=params, m=1500, seed=seed, mode="conditional_iid")
            )
            cfg = GibbsConfig(
                k=3, iterations=800, burn_in=300, seed=seed + 1, symmetric_prop=True
            )
            labels = warm_start_labels(res.network, cfg, prefix_m=1500)
            chain = run_gibbs(
                res.network,
                GibbsConfig(
                    k=3, iterations=800, burn_in=300, seed=seed + 1,
                    symmetric_prop=True, init="provided", init_labels=labels,
                ),
            )
            post = chain.props[chain.burn_in:]
            assert np.allclose(post, np.swapaxes(post, 1, 2), atol=1e-12)
            diags.append(post[:, [0, 1, 2], [0, 1, 2]].mean())
        assert np.mean(diags) == pytest.approx(0.90, abs=0.03)


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

    def test_warm_start_labels(self):
        res = diag_block_data(m=800, seed=6)
        cfg = GibbsConfig(k=2, iterations=50, burn_in=10, seed=7)
        labels = warm_start_labels(res.network, cfg, prefix_m=400)
        assert labels.shape == (res.network.n_nodes,)
        assert set(np.unique(labels)) <= {0, 1}
        again = warm_start_labels(res.network, cfg, prefix_m=400)
        assert np.array_equal(labels, again)


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
