import hashlib

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
        rng = np.random.default_rng(0)
        assert set(law.sample(rng, 10)) == {3}

    def test_categorical(self):
        law = ArityLaw.categorical([0.25, 0.5, 0.25])
        rng = np.random.default_rng(0)
        draws = law.sample(rng, 4000)
        assert set(draws) <= {1, 2, 3}
        assert draws.mean() == pytest.approx(2.0, abs=0.05)

    def test_single_outcome_before_last(self):
        # Only one receiver count has weight, but it is not the largest.
        law = ArityLaw.categorical([0.0, 1.0, 0.0])
        assert set(law.sample(np.random.default_rng(0), 10)) == {2}

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
        v = hist.sum()
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


def _within_pair_count(res):
    stats = compute_stats(res.network, res.assignment)
    return int(np.trace(stats.pair))


@pytest.mark.slow
def test_negative_theta_urn_law():
    """theta in (-alpha, 0]: a block's first appearance is a new node and
    its second is new with probability (theta + alpha) / (theta + 1),
    in both generators."""
    for theta, p_new in ((-0.2, 0.3 / 0.8), (0.0, 0.5)):
        params = ModelParams(
            alpha=np.array([0.5]), theta=np.array([theta]), block_conc=1.0, recv_conc=1.0
        )
        for fn in (simulate_sequential, simulate_conditional_iid):
            nodes = np.array([
                fn(GeneratorConfig(params=params, m=1, seed=seed)).network.n_nodes
                for seed in range(2000)
            ])
            assert set(nodes.tolist()) <= {1, 2}, fn.__name__
            # binomial standard deviation at 2000 draws is at most 0.0112
            assert np.mean(nodes == 2) == pytest.approx(p_new, abs=0.045), (theta, fn.__name__)


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


def _pinned_params(alpha, theta, conc=1.0, prop_diag=None):
    """Params as ``bvcm simulate`` builds them: a --prop-diag matrix comes
    with uniform block frequencies."""
    k = len(alpha)
    prop = pi = None
    if prop_diag is not None:
        prop = np.full((k, k), (1.0 - prop_diag) / (k - 1))
        np.fill_diagonal(prop, prop_diag)
        pi = np.full(k, 1.0 / k)
    return ModelParams(
        alpha=np.asarray(alpha), theta=np.asarray(theta), block_conc=conc,
        recv_conc=conc, block_probs=pi, propensity=prop,
    )


# sha256 of senders, offsets, receivers, the truth labels and, for
# conditional-iid, the realized block frequencies and mixing matrix, taken
# before the generator was refactored.  A change that reorders one RNG call
# changes them.  Like the benchmark's sha256 output checks, they assume
# numpy's Generator streams (PCG64 and its distribution methods) do not change.
_PINNED = {
    # the benchmark's paper, scale and degree simulate commands
    "paper": (
        GeneratorConfig(
            params=_pinned_params((0.5, 0.5), (5.0, 5.0), prop_diag=0.9), m=2500,
            seed=7, mode="conditional_iid",
        ),
        "f1a52e3f452e547188506d876337881beae852747a26262b9ae1fc7220106e85",
    ),
    "scale": (
        GeneratorConfig(
            params=_pinned_params((0.6,) * 5, (1000.0,) * 5, prop_diag=0.8), m=100_000,
            arity=ArityLaw.fixed(2), seed=7, mode="conditional_iid",
        ),
        "a758cad42c78d89bfd545efdf2a6429d94b302813b84c29bd4484b6c1ad57414",
    ),
    "degree": (
        GeneratorConfig(
            params=_pinned_params((0.6, 0.8), (2.0, 30.0), conc=50.0), m=300_000,
            arity=ArityLaw.categorical([0.5, 0.3, 0.2]), seed=7,
        ),
        "6c9d3b6ba9bf29c2486390776bb5814832533b92f7cc88f4b05042187db8b72c",
    ),
    "k3-theta-nonpositive": (
        GeneratorConfig(
            params=_pinned_params((0.3, 0.5, 0.7), (-0.2, 0.0, 4.0), conc=0.7), m=3000,
            arity=ArityLaw.categorical([0.2, 0.5, 0.3]), seed=11,
        ),
        "85b746de22598be4806c42c9ff409c0e3945e4f793839d8d5912f4ed6325b12c",
    ),
    "k1": (
        GeneratorConfig(params=_pinned_params((0.4,), (3.0,)), m=2000, seed=11),
        "8649a1e6b06d8952c873a3449febb38f3497972367ea80bcede3e6c7203e64f7",
    ),
    "free-mixing": (
        GeneratorConfig(
            params=_pinned_params((0.3, 0.5, 0.7), (1.0, 2.0, 8.0), conc=0.6), m=3000,
            arity=ArityLaw.categorical([0.6, 0.4]), seed=11, mode="conditional_iid",
        ),
        "050731c650f34b0d0ef918c39f4a6b0b0a70c0ba0d9f598f230271c2c73e4bc7",
    ),
    "m0-sequential": (
        GeneratorConfig(params=two_block_params(), m=0, seed=7),
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ),
    "m0-conditional-iid": (
        GeneratorConfig(params=two_block_params(), m=0, seed=7, mode="conditional_iid"),
        "05532275891fbcfd81e78404e1caef1adde7365f44578eceea20d7439aa900a5",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_stream_is_pinned(name):
    config, digest = _PINNED[name]
    res = simulate(config)
    parts = [
        res.network.senders, res.network.offsets, res.network.receivers,
        res.assignment.labels,
    ]
    if config.mode == "conditional_iid":
        parts += [res.params.block_probs, res.params.propensity]
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    assert res.network.node_ids == [f"n{i + 1}" for i in range(res.network.n_nodes)]
    assert h.hexdigest() == digest
