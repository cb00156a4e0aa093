import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcm import (
    BlockAssignment,
    Chain,
    DataError,
    GeneratorConfig,
    InteractionNetwork,
    ModelParams,
    PosteriorMembership,
    UsageError,
    cross_entropy_loss,
    hellinger_distance,
    powerlaw_diagnostic,
    simulate_sequential,
    sparsity_growth,
    standardized_l2,
)

from bvcm.metrics import _chi2_sf, degree_law_pmf

from oracles import random_network, size_rank_trap


def mem(probs, ids=None):
    probs = np.asarray(probs, dtype=float)
    ids = ids or [f"n{i}" for i in range(len(probs))]
    return PosteriorMembership(ids, probs)


def chain_from(labels_list, k=2):
    arr = np.array(labels_list)
    iters, n = arr.shape
    return Chain(
        k=k,
        burn_in=0,
        seed=0,
        node_ids=[f"n{i}" for i in range(n)],
        assignments=arr,
        alphas=np.full((iters, k), 0.5),
        thetas=np.ones((iters, k)),
        props=np.tile(np.eye(k), (iters, 1, 1)),
        log_probs=np.zeros(iters),
        block_conc=1.0,
        recv_conc=1.0,
    )


class TestMembership:
    def test_from_chain(self):
        chain = chain_from([[0, 1], [1, 1], [0, 1]])
        m = PosteriorMembership.from_chain(chain)
        assert m.probs[0] == pytest.approx([2 / 3, 1 / 3])
        assert m.probs[1] == pytest.approx([0.0, 1.0])

    def test_counts_and_majority_labels(self):
        # node 0: one sample in each block (tie); node 1: blocks 2, 2, 1
        chain = chain_from([[0, 2], [1, 2], [2, 1]], k=3)
        assert chain.block_counts().tolist() == [[1, 1, 1], [0, 1, 2]]
        assert chain.block_counts().argmax(axis=1).tolist() == [0, 2]
        m = PosteriorMembership.from_chain(chain)
        assert np.array_equal(m.probs, chain.block_counts() / 3)
        # eval takes its hard labels from the frequencies: the same argmax.
        assert m.probs.argmax(axis=1).tolist() == [0, 2]

    def test_row_sums_validated(self):
        with pytest.raises(DataError):
            PosteriorMembership(["a"], np.array([[0.4, 0.4]]))

    @pytest.mark.parametrize("row", [
        [math.nan, math.nan], [math.nan, 1.0], [1.5, -0.5], [-0.0, 1.0 + 1e-12, -1e-12],
    ])
    def test_nan_and_negative_entries_are_data_errors(self, row):
        # NaN rows once passed: abs(nan - 1) > 1e-9 is false.
        with pytest.raises(DataError, match="non-negative"):
            PosteriorMembership(["a"], np.array([row]))

    def test_from_chain_needs_post_burn_in_samples(self):
        chain = dataclasses.replace(chain_from([[0, 1], [1, 1]]), burn_in=2)
        with pytest.raises(UsageError, match="no post-burn-in samples"):
            PosteriorMembership.from_chain(chain)


class TestStandardizedL2:
    def test_perfect_and_flipped(self):
        truth = BlockAssignment(np.array([0, 1, 1]), 2)
        perfect = mem([[1, 0], [0, 1], [0, 1]])
        assert standardized_l2(perfect, truth) == 0.0
        flipped = mem([[0, 1], [1, 0], [1, 0]])
        assert standardized_l2(flipped, truth) == 0.0

    def test_all_half(self):
        truth = BlockAssignment(np.array([0, 1, 0, 1]), 2)
        half = mem(np.full((4, 2), 0.5))
        assert standardized_l2(half, truth) == pytest.approx(0.5)

    def test_k_not_two_rejected(self):
        truth = BlockAssignment(np.array([0, 1, 2]), 3)
        with pytest.raises(UsageError, match="cross_entropy"):
            standardized_l2(mem(np.full((3, 3), 1 / 3)), truth)

    def test_random_assignment_chains_score_half(self):
        """Chains of uniform random hard assignments give ~0.5: the mean
        membership hugs 1/2, matching the all-1/2 limit."""
        rng = np.random.default_rng(0)
        n, iters = 400, 600
        chain = chain_from(rng.integers(2, size=(iters, n)))
        truth = BlockAssignment(rng.integers(2, size=n), 2)
        val = standardized_l2(PosteriorMembership.from_chain(chain), truth)
        assert val == pytest.approx(0.5, abs=0.03)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(0, 1)), min_size=2, max_size=40
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_range_and_zero_condition(self, rows):
        truth = BlockAssignment(np.array([int(t) for t, _ in rows]), 2)
        p = np.array([q for _, q in rows])
        m = mem(np.stack([1 - p, p], axis=1))
        val = standardized_l2(m, truth)
        # conjugate minimum is bounded by 1/sqrt(2) in general
        assert 0.0 <= val <= 1 / math.sqrt(2) + 1e-12
        t = truth.labels.astype(float)
        if val == 0.0:
            assert np.allclose(p, t) or np.allclose(1 - p, t)


class TestCrossEntropy:
    def test_sixty_percent_example(self):
        truth = BlockAssignment(np.array([0]), 2)
        m = mem([[0.6, 0.4]])
        total, per_node = cross_entropy_loss(m, truth)
        assert total == pytest.approx(-math.log(0.6))
        assert per_node == pytest.approx(-math.log(0.6))

    def test_perfect_is_zero(self):
        truth = BlockAssignment(np.array([0, 1, 1]), 2)
        total, _ = cross_entropy_loss(mem([[1, 0], [0, 1], [0, 1]]), truth)
        assert total == 0.0

    def test_uniform_is_log2(self):
        truth = BlockAssignment(np.array([0, 1, 0, 1]), 2)
        _, per_node = cross_entropy_loss(mem(np.full((4, 2), 0.5)), truth)
        assert per_node == pytest.approx(math.log(2))

    def test_permutation_minimum(self):
        truth = BlockAssignment(np.array([0, 0, 1, 2]), 3)
        point = np.zeros((4, 3))
        relabel = [2, 2, 0, 1]  # consistent permutation of the truth
        point[np.arange(4), relabel] = 1.0
        total, _ = cross_entropy_loss(mem(point), truth)
        assert total == pytest.approx(0.0)

    def test_clipping_avoids_inf(self):
        truth = BlockAssignment(np.array([0]), 2)
        total, _ = cross_entropy_loss(mem([[0.0, 1.0]]), truth)
        assert np.isfinite(total)

    def test_greedy_path_for_many_blocks(self):
        k = 9
        rng = np.random.default_rng(1)
        truth_labels = rng.integers(k, size=300)
        point = np.zeros((300, k))
        point[np.arange(300), truth_labels] = 1.0
        truth = BlockAssignment(truth_labels, k)
        total, _ = cross_entropy_loss(mem(point), truth)
        assert total == pytest.approx(0.0)

    def test_exact_beyond_eight_blocks(self):
        truth, hard = size_rank_trap()
        point = np.zeros((len(hard), 9))
        point[np.arange(len(hard)), hard] = 1.0
        total, per_node = cross_entropy_loss(mem(point), BlockAssignment(truth, 9))
        # only the 4 moved nodes pay, each -log of the 1e-12 clip
        assert total == pytest.approx(-4 * math.log(1e-12))
        assert per_node == pytest.approx(total / 864)

    def test_truth_with_more_blocks_is_usage_error(self):
        truth = BlockAssignment(np.array([0, 1, 2]), 3)
        with pytest.raises(UsageError):
            cross_entropy_loss(mem([[1, 0], [0, 1], [0.5, 0.5]]), truth)


class TestHellinger:
    def test_identical(self):
        a = mem([[0.2, 0.8], [0.7, 0.3]])
        assert hellinger_distance(a, a) == pytest.approx(0.0)

    def test_mirrored_point_masses_align_to_zero(self):
        a = mem([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = mem([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        # the overlap-maximizing relabeling undoes the mirror
        assert hellinger_distance(a, b) == pytest.approx(0.0)

    def test_disjoint_point_masses(self):
        # equal block sizes, labels switched: the overlap-maximizing
        # relabeling undoes the switch
        a = mem([[1.0, 0.0], [0.0, 1.0]])
        c = mem([[0.0, 1.0], [1.0, 0.0]])
        assert hellinger_distance(a, c) == pytest.approx(0.0)

    def test_label_switched_copy_with_moved_nodes(self):
        # balanced 433-node k = 2 membership against its label-switched
        # copy with 2 nodes moved, which makes the copy's larger block
        # carry the other label: only the moved nodes differ
        labels = np.arange(433) % 2
        moved = labels.copy()
        moved[[0, 2]] = 1
        a = mem(np.eye(2)[labels])
        b = mem(np.eye(2)[1 - moved])
        assert hellinger_distance(a, b) == pytest.approx(2 / 433)

    def test_half_vs_point(self):
        a = mem([[1.0, 0.0]])
        b = mem([[0.5, 0.5]])
        expected = math.sqrt((1 - math.sqrt(0.5)) ** 2 + 0.5) / math.sqrt(2)
        assert hellinger_distance(a, b) == pytest.approx(expected)
        assert expected == pytest.approx(0.5412, abs=2e-4)

    def test_symmetry_and_triangle_spot_check(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.dirichlet([1, 1, 1], size=6)
            q = rng.dirichlet([1, 1, 1], size=6)
            r = rng.dirichlet([1, 1, 1], size=6)
            ids = [f"n{i}" for i in range(6)]
            # same sizes rank: force alignment to identity by using equal columns
            mp_, mq, mr = (
                PosteriorMembership(ids, x) for x in (p, q, r)
            )
            assert hellinger_distance(mp_, mq) == pytest.approx(
                hellinger_distance(mq, mp_), abs=1e-9
            )
            assert (
                hellinger_distance(mp_, mr)
                <= hellinger_distance(mp_, mq) + hellinger_distance(mq, mr) + 1e-9
            )

    def test_intersection_warning_and_error(self):
        a = mem([[1.0, 0.0], [0.0, 1.0]], ids=["x", "y"])
        b = mem([[1.0, 0.0], [0.0, 1.0]], ids=["y", "z"])
        with pytest.warns(UserWarning, match="intersection"):
            hellinger_distance(a, b)
        c = mem([[1.0, 0.0]], ids=["w"])
        with pytest.raises(DataError), pytest.warns(UserWarning):
            hellinger_distance(a, c)


class TestPowerlaw:
    def test_degree_law_matches_mpmath_gamma_ratio(self):
        # alpha Gamma(k - alpha) / (Gamma(1 - alpha) k!) at 30 digits, at
        # every k <= 200 and 200 log-spaced k up to 10**5.
        import mpmath as mp

        ks = np.unique(np.r_[np.arange(1, 201), np.geomspace(200, 10**5, 200).round()])
        for alpha in (1e-6, 0.3, 0.5, 0.8, 0.99, 1 - 1e-6):
            pmf = degree_law_pmf(10**5, alpha)
            assert pmf.shape == (10**5,) and pmf[0] == alpha
            with mp.workdps(30):
                a = mp.mpf(alpha)
                for k in ks.astype(int).tolist():
                    ref = a * mp.exp(mp.loggamma(k - a) - mp.loggamma(1 - a) - mp.loggamma(k + 1))
                    assert abs(pmf[k - 1] - ref) <= 1e-11 * ref, (alpha, k)

    def test_chi2_tail_matches_mpmath(self):
        # Q(dof/2, x/2) at 40 digits: every dof up to 60 and a sparse grid
        # up to 2000, at x from 0 to 5000 and around each dof's mean.
        import mpmath as mp

        xs = [0.0, 5e-324, 1e-12, 0.01, 0.5, 1.0, 2.5, 7.0, 15.0, 30.0, 60.0, 120.0,
              250.0, 500.0, 800.0, 1300.0, 2000.0, 3000.0, 5000.0]
        with mp.workdps(40):
            for dof in [*range(1, 61), 75, 128, 255, 500, 999, 1000, 1999, 2000]:
                for x in xs + [dof * f for f in (0.5, 0.9, 1.1, 2.0)]:
                    ref = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)
                    if ref >= 1e-300:
                        assert abs(_chi2_sf(dof, x) - ref) <= 1e-11 * ref, (dof, x)
        for x in xs:
            assert _chi2_sf(1, x) == math.erfc(math.sqrt(x / 2))
            assert _chi2_sf(2, x) == math.exp(-x / 2)

    def test_recovers_discount(self):
        params = ModelParams(
            alpha=np.array([0.5]), theta=np.array([5.0]), block_conc=1.0, recv_conc=1.0
        )
        res = simulate_sequential(GeneratorConfig(params=params, m=20_000, seed=3))
        fit = powerlaw_diagnostic(res.network)[0]
        assert not fit.skipped
        assert fit.alpha_hat == pytest.approx(0.5, abs=0.04)
        assert fit.pvalue > 0.01  # model data should not be rejected
        assert fit.tail_slope == pytest.approx(-1.5, abs=0.45)

    def test_global_tracks_largest_discount(self):
        prop = np.array([[0.9, 0.1], [0.1, 0.9]])
        params = ModelParams(
            alpha=np.array([0.3, 0.7]), theta=np.array([5.0, 5.0]),
            block_conc=1.0, recv_conc=1.0,
            block_probs=np.array([0.5, 0.5]), propensity=prop,
        )
        from bvcm import simulate_conditional_iid

        res = simulate_conditional_iid(
            GeneratorConfig(params=params, m=100_000, seed=4, mode="conditional_iid")
        )
        fits = powerlaw_diagnostic(res.network, res.assignment)
        global_fit = fits[0]
        assert global_fit.alpha_hat == pytest.approx(0.7, abs=0.05)
        per_block = {f.block: f for f in fits[1:]}
        assert per_block[0].alpha_hat == pytest.approx(0.3, abs=0.06)
        assert per_block[1].alpha_hat == pytest.approx(0.7, abs=0.05)

    def test_star_network_rejected(self):
        net = InteractionNetwork.from_records(
            [("hub", [f"s{i}"]) for i in range(400)]
        )
        fit = powerlaw_diagnostic(net)[0]
        assert fit.pvalue < 0.01

    def test_small_block_skipped(self):
        net = InteractionNetwork.from_records([("a", ["b"]), ("c", ["d"])])
        fit = powerlaw_diagnostic(net)[0]
        assert fit.skipped
        assert "skipped" in fit.note


class TestSparsityGrowth:
    def test_slope_estimates_discount(self):
        params = ModelParams(
            alpha=np.array([0.7]), theta=np.array([5.0]), block_conc=1.0, recv_conc=1.0
        )
        res = simulate_sequential(GeneratorConfig(params=params, m=100_000, seed=5))
        out = sparsity_growth(res.network, [1000, 5000, 20_000, 100_000])
        assert out[0].slope == pytest.approx(0.7, abs=0.1)
        # arity 2, slope ~0.7: flagged sparse
        assert out[0].mu_hat == pytest.approx(2.0)
        assert out[0].sparse

    def test_dense_synthetic_rewiring(self):
        # constant node pool: node count saturates, slope near zero
        rng = np.random.default_rng(6)
        pool = [f"u{i}" for i in range(30)]
        records = []
        for _ in range(20_000):
            s, r = rng.choice(30, size=2, replace=False)
            records.append((pool[s], [pool[r]]))
        net = InteractionNetwork.from_records(records)
        out = sparsity_growth(net, [100, 1000, 10_000, 20_000])
        assert abs(out[0].slope) < 0.05
        assert not out[0].sparse

    def test_validation(self):
        params = ModelParams(
            alpha=np.array([0.5]), theta=np.array([1.0]), block_conc=1.0, recv_conc=1.0
        )
        res = simulate_sequential(GeneratorConfig(params=params, m=2000, seed=7))
        with pytest.raises(UsageError, match="4 checkpoints"):
            sparsity_growth(res.network, [10, 100, 1000])
        with pytest.raises(UsageError, match="decades"):
            sparsity_growth(res.network, [100, 200, 400, 800])
        with pytest.raises(UsageError, match="exceeds"):
            sparsity_growth(res.network, [10, 100, 1000, 10_000])

    def test_labels_must_cover_the_network(self):
        params = ModelParams(
            alpha=np.array([0.5]), theta=np.array([1.0]), block_conc=1.0, recv_conc=1.0
        )
        net = simulate_sequential(GeneratorConfig(params=params, m=2000, seed=7)).network
        short = BlockAssignment(np.zeros(net.n_nodes - 3, dtype=int), 1)
        missing = net.node_ids[net.n_nodes - 3]
        with pytest.raises(DataError, match=f"node {missing!r} has no block assignment"):
            sparsity_growth(net, [10, 100, 1000, 2000], short)

    def test_counts_match_a_record_loop(self):
        """Node counts at each checkpoint and mean arity per group, against
        a loop over the named records."""
        rng = np.random.default_rng(12)
        cps = [2, 20, 200, 300]
        for _ in range(5):
            net, truth = random_network(rng, 3, m=400, n_pool=150, max_arity=3)
            label = dict(zip(net.node_ids, truth.labels.tolist()))
            records = list(net.records())
            for group, got in zip([None, 0, 1, 2], sparsity_growth(net, cps, truth)):
                def inside(node):
                    return group is None or label[node] == group

                seen = [
                    {v for s, rs in records[:c] for v in [s, *rs] if inside(v)} for c in cps
                ]
                slots = [sum(map(inside, [s, *rs])) for s, rs in records[: cps[-1]]]
                assert got.v_counts == tuple(map(len, seen))
                containing = sum(n > 0 for n in slots)
                assert got.mu_hat == (sum(slots) / containing if containing else 0.0)

    def test_per_block_variant(self, demo_network, demo_truth):
        params = ModelParams(
            alpha=np.array([0.5, 0.5]), theta=np.array([5.0, 5.0]),
            block_conc=1.0, recv_conc=1.0,
        )
        res = simulate_sequential(GeneratorConfig(params=params, m=5000, seed=8))
        out = sparsity_growth(res.network, [50, 500, 2000, 5000], res.assignment)
        assert len(out) == 3  # global + one per block
        assert {o.block for o in out} == {None, 0, 1}
