import numpy as np
import pytest
from scipy import stats as sp_stats

from bvcm import (
    ArityLaw,
    GeneratorConfig,
    ModelParams,
    UsageError,
    compute_stats,
    degree_distribution,
    simulate,
    simulate_conditional_iid,
    simulate_sequential,
)


def two_block_params(alpha=(0.5, 0.5), theta=(5.0, 5.0), pi=None, prop=None):
    return ModelParams(
        alpha=np.asarray(alpha),
        theta=np.asarray(theta),
        block_conc=1.0,
        recv_conc=1.0,
        block_probs=None if pi is None else np.asarray(pi),
        propensity=None if prop is None else np.asarray(prop),
    )


class TestArityLaw:
    def test_fixed(self):
        law = ArityLaw.fixed(3)
        assert law.mean() == 3
        rng = np.random.default_rng(0)
        assert set(law.sample(rng, 10)) == {3}

    def test_categorical(self):
        law = ArityLaw.categorical([0.25, 0.5, 0.25])
        assert law.mean() == pytest.approx(2.0)
        rng = np.random.default_rng(0)
        draws = law.sample(rng, 4000)
        assert set(draws) <= {1, 2, 3}
        assert draws.mean() == pytest.approx(2.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(UsageError):
            ArityLaw.categorical([0.5, 0.4])
        with pytest.raises(UsageError):
            ArityLaw.fixed(0)


class TestSequential:
    def test_empty(self):
        res = simulate_sequential(GeneratorConfig(params=two_block_params(), m=0))
        assert res.network.m == 0
        assert res.network.n_nodes == 0

    def test_determinism(self):
        cfg = GeneratorConfig(params=two_block_params(), m=200, seed=9)
        a = simulate_sequential(cfg)
        b = simulate_sequential(cfg)
        assert list(a.network.records()) == list(b.network.records())
        assert np.array_equal(a.assignment.labels, b.assignment.labels)

    def test_truth_covers_network(self):
        res = simulate_sequential(GeneratorConfig(params=two_block_params(), m=300, seed=2))
        assert len(res.assignment.labels) == res.network.n_nodes
        stats = compute_stats(res.network, res.assignment)
        assert stats.m == 300

    def test_sender_block_symmetry(self):
        """Mean sender-block-1 frequency is 1/2 under exchangeable blocks.

        Averaged over independent runs: within one run the block urn is
        a Polya urn, so the fraction converges to a Beta(conc, conc)
        draw rather than to 1/2.
        """
        fracs = []
        for seed in range(1500):
            res = simulate_sequential(
                GeneratorConfig(params=two_block_params(), m=40, seed=10_000 + seed)
            )
            stats = compute_stats(res.network, res.assignment)
            fracs.append(stats.initiations[0] / stats.m)
        assert np.mean(fracs) == pytest.approx(0.5, abs=0.02)
        # and single long runs are spread out, not pinned at 1/2
        assert np.std(fracs) > 0.1

    def test_degree_one_fraction_matches_urn_law(self):
        # the fraction of singletons converges to the discount parameter
        p = ModelParams(
            alpha=np.array([0.5]), theta=np.array([5.0]), block_conc=1.0, recv_conc=1.0
        )
        res = simulate_sequential(GeneratorConfig(params=p, m=100_000, seed=2))
        hist = degree_distribution(res.network)
        v = sum(hist.values())
        assert hist[1] / v == pytest.approx(0.5, abs=0.02)

    def test_multi_commentator(self):
        cfg = GeneratorConfig(
            params=two_block_params(), m=100, seed=1, arity=ArityLaw.fixed(3)
        )
        res = simulate_sequential(cfg)
        assert np.all(np.diff(res.network.offsets) == 3)


class TestConditionalIid:
    def test_empty(self):
        cfg = GeneratorConfig(params=two_block_params(), m=0, mode="conditional_iid")
        res = simulate_conditional_iid(cfg)
        assert res.network.m == 0

    def test_determinism(self):
        cfg = GeneratorConfig(params=two_block_params(), m=150, seed=3, mode="conditional_iid")
        a = simulate_conditional_iid(cfg)
        b = simulate_conditional_iid(cfg)
        assert list(a.network.records()) == list(b.network.records())

    def test_k1_degenerate_block_layer(self):
        p = ModelParams(
            alpha=np.array([0.6]), theta=np.array([2.0]), block_conc=1.0, recv_conc=1.0
        )
        res = simulate_conditional_iid(
            GeneratorConfig(params=p, m=100, seed=4, mode="conditional_iid")
        )
        assert res.params.block_probs[0] == pytest.approx(1.0)
        assert res.params.propensity[0, 0] == pytest.approx(1.0)
        assert set(res.assignment.labels) == {0}

    def test_pair_frequencies_lln(self):
        pi = np.array([0.3, 0.7])
        prop = np.array([[0.8, 0.2], [0.4, 0.6]])
        cfg = GeneratorConfig(
            params=two_block_params(pi=pi, prop=prop),
            m=60_000,
            seed=6,
            mode="conditional_iid",
        )
        res = simulate_conditional_iid(cfg)
        stats = compute_stats(res.network, res.assignment)
        freq = stats.pair / stats.pair.sum()
        target = pi[:, None] * prop
        se = 3 * np.sqrt(target * (1 - target) / stats.pair.sum())
        assert np.all(np.abs(freq - target) <= se + 1e-12)

    def test_realized_params_drawn_when_unset(self):
        res = simulate_conditional_iid(
            GeneratorConfig(params=two_block_params(), m=50, seed=7, mode="conditional_iid")
        )
        assert res.params.block_probs is not None
        assert res.params.propensity.shape == (2, 2)
        assert np.allclose(res.params.propensity.sum(axis=1), 1.0)

    def test_truncated_sticks_warn_and_return(self):
        cfg = GeneratorConfig(
            params=two_block_params(alpha=(0.7, 0.7)),
            m=500,
            seed=8,
            mode="conditional_iid",
            truncation=64,
        )
        res = simulate_conditional_iid(cfg)
        assert res.sticks is not None and len(res.sticks) == 2
        assert all(s.sum() == pytest.approx(1.0) for s in res.sticks)
        assert any("unassigned" in note for note in res.notes)

    def test_exact_mode_has_no_sticks(self):
        res = simulate_conditional_iid(
            GeneratorConfig(params=two_block_params(), m=50, seed=9, mode="conditional_iid")
        )
        assert res.sticks is None


def _within_pair_count(res):
    stats = compute_stats(res.network, res.assignment)
    return int(np.trace(stats.pair))


@pytest.mark.slow
def test_marginal_agreement_between_generators():
    """Block-pair count distribution matches across the two routes.

    The within-block pair count is label-invariant, so it compares
    cleanly; two-sample chi-square at matched parameters should not
    reject for any of the 10 fixed seed pairs.
    """
    params = ModelParams(
        alpha=np.array([0.4, 0.6]),
        theta=np.array([3.0, 5.0]),
        block_conc=1.5,
        recv_conc=0.8,
    )

    def draw(mode, seed0, n=300):
        return np.array(
            [
                _within_pair_count(
                    simulate(GeneratorConfig(params=params, m=50, seed=seed0 + i, mode=mode))
                )
                for i in range(n)
            ]
        )

    pvals = []
    for trial in range(10):
        a = draw("sequential", 100_000 * trial)
        b = draw("conditional_iid", 100_000 * trial + 50_000)
        bins = np.linspace(0, 51, 12)
        ca, _ = np.histogram(a, bins)
        cb, _ = np.histogram(b, bins)
        keep = (ca + cb) >= 10
        _, pv, _, _ = sp_stats.chi2_contingency(np.stack([ca[keep], cb[keep]]))
        pvals.append(pv)
    assert min(pvals) > 0.01, pvals
