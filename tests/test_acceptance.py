"""Acceptance suite: one test per criterion, run at the stated settings.

Each test prints a PASS/FAIL line with the measured quantity.  Two
assertions are expected failures (strict xfail) with the blocking
analysis recorded in the project notes:

* criterion 1's target of 0.12 lies below the value the statistic takes
  at the exact posterior (~0.24 here): roughly one low-degree node in
  ten sits on a cross-block edge, so its born-block is unrecoverable by
  any method, which already contributes ~0.2 to the root-mean-square
  deviation.  Recovery quality itself is verified by the parameter and
  misclassification criteria (2, 4) and the hard-label error (~0.07).
* criterion 7's degree-one fraction of 1/3 comes from a Yule-Simon
  transcription of the urn's degree law; the urn provably yields
  singleton fraction alpha (= 0.5 here), which is asserted instead in
  the companion test.
"""

import itertools
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats as sp_stats

from bvcm import (
    BlockAssignment,
    GeneratorConfig,
    GibbsConfig,
    GibbsSampler,
    ModelParams,
    degree_distribution,
    log_prob_sequential,
    marginal_log_likelihood,
    misclassification_bound,
    degree_majority_update,
    restricted_misclassification,
    run_gibbs,
    simulate_conditional_iid,
    simulate_sequential,
    standardized_l2,
)
from bvcm.consistency import min_permutation_error
from bvcm.gibbs import aux_update_alpha_theta, warm_start_labels
from bvcm.metrics import sparsity_growth

from oracles import (
    bound_series_mpmath,
    enumerate_full_conditional,
    permuted,
    random_network,
)


def block_data(alpha, diag, m, seed, k=None, theta=5.0):
    k = k or len(alpha)
    prop = np.full((k, k), (1.0 - diag) / (k - 1)) if k > 1 else np.ones((1, 1))
    if k > 1:
        np.fill_diagonal(prop, diag)
    params = ModelParams(
        alpha=np.asarray(alpha, dtype=float),
        theta=np.full(k, theta),
        block_conc=1.0,
        recv_conc=1.0,
        block_probs=np.full(k, 1.0 / k),
        propensity=prop,
    )
    return simulate_conditional_iid(
        GeneratorConfig(params=params, m=m, seed=seed, mode="conditional_iid")
    )


def warm_fit(network, k, iterations, burn_in, seed, **kw):
    cfg = GibbsConfig(k=k, iterations=iterations, burn_in=burn_in, seed=seed, **kw)
    labels = warm_start_labels(network, cfg)
    return run_gibbs(
        network,
        GibbsConfig(
            k=k, iterations=iterations, burn_in=burn_in, seed=seed,
            init="provided", init_labels=labels, **kw,
        ),
    )


@pytest.mark.xfail(
    strict=True,
    reason="target below the exact-posterior value of the statistic; "
    "see notes/decisions.md (cross-edge low-degree nodes are unidentifiable)",
)
def test_criterion_1_block_recovery():
    """K=2, alpha=(.5,.5), theta=(5,5), diag 0.9, m=2500, 5 replicates,
    1000 iterations (200 burn-in): mean standardized L2 <= 0.12."""
    start = time.perf_counter()
    values = []
    for rep in range(5):
        res = block_data([0.5, 0.5], 0.9, 2500, seed=rep)
        chain = warm_fit(res.network, 2, 1000, 200, seed=1000 + rep)
        values.append(standardized_l2(chain, res.assignment))
    mean = float(np.mean(values))
    ok = mean <= 0.12
    print(
        f"ACCEPTANCE 1 block recovery: {'PASS' if ok else 'FAIL'} "
        f"(mean L2 {mean:.4f}, replicates {[round(v, 3) for v in values]}, "
        f"{time.perf_counter() - start:.0f}s)"
    )
    assert ok


def test_criterion_2_parameter_recovery():
    """m=10000, alpha=(.2,.8), diag 0.9: posterior mean of the large
    discount in [0.75, 0.85] and the diagonal in [0.87, 0.93] for at
    least 4 of 5 replicates."""
    start = time.perf_counter()
    hits = 0
    details = []
    for rep in range(5):
        res = block_data([0.2, 0.8], 0.9, 10_000, seed=rep)
        chain = run_gibbs(
            res.network, GibbsConfig(k=2, iterations=500, burn_in=150, seed=1000 + rep)
        )
        hard = chain.majority_labels()
        truth = res.assignment.labels
        perm = min(
            itertools.permutations(range(2)),
            key=lambda s: float(np.mean(np.asarray(s)[hard] != truth)),
        )
        chain_block_for_truth1 = [c for c in range(2) if perm[c] == 1][0]
        a2 = float(chain.alphas[chain.burn_in:, chain_block_for_truth1].mean())
        diag = float(chain.props[chain.burn_in:, [0, 1], [0, 1]].mean())
        hits += 0.75 <= a2 <= 0.85 and 0.87 <= diag <= 0.93
        details.append((round(a2, 3), round(diag, 3)))
    ok = hits >= 4
    print(
        f"ACCEPTANCE 2 parameter recovery: {'PASS' if ok else 'FAIL'} "
        f"({hits}/5 in range, (alpha2, diag) = {details}, "
        f"{time.perf_counter() - start:.0f}s)"
    )
    assert ok


def _selection_worker(payload):
    seed, k = payload
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.4, 0.8, size=3)
    res = block_data(alpha, 0.9, 10_000, seed=seed)
    chain = warm_fit(res.network, k, 400, 120, seed=seed * 31 + k)
    return seed, k, marginal_log_likelihood(res.network, chain)


def test_criterion_3_k_selection():
    """True K=3 (alpha ~ U(0.4,0.8), a=0.9, b=0.05, m=10000): the
    marginal score argmax over K in 2..6 equals 3 for >= 4 of 5 seeds."""
    start = time.perf_counter()
    jobs = [(seed, k) for seed in range(5) for k in range(2, 7)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_selection_worker, jobs))
    scores = {}
    for seed, k, score in results:
        scores.setdefault(seed, {})[k] = score
    best = {seed: max(ks, key=ks.get) for seed, ks in scores.items()}
    hits = sum(1 for b in best.values() if b == 3)
    ok = hits >= 4
    print(
        f"ACCEPTANCE 3 K selection: {'PASS' if ok else 'FAIL'} "
        f"(argmax K per seed {sorted(best.items())}, "
        f"{time.perf_counter() - start:.0f}s)"
    )
    assert ok


def _k5_worker(payload):
    seed, k = payload
    rng = np.random.default_rng(1000 + seed)
    alpha = rng.uniform(0.4, 0.8, size=5)
    res = block_data(alpha, 0.9, 10_000, seed=seed, k=5)
    chain = warm_fit(res.network, k, 400, 120, seed=seed * 37 + k)
    return seed, k, marginal_log_likelihood(res.network, chain)


@pytest.mark.slow
def test_k5_selection_example():
    """Supplementary: with five true blocks the score argmax lands on 5
    for a majority of seeds (complete-data scores can prefer one extra
    split on occasion)."""
    jobs = [(seed, k) for seed in range(3) for k in range(2, 7)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_k5_worker, jobs))
    scores = {}
    for seed, k, score in results:
        scores.setdefault(seed, {})[k] = score
    best = [max(ks, key=ks.get) for ks in scores.values()]
    assert sum(1 for b in best if b == 5) >= 2, best


def test_criterion_4_degree_cutoff_consistency():
    """alpha=0.5, diag 0.9, m=10000: misclassification restricted to
    degree >= log m never exceeds the all-node rate (10/10 seeds) and
    averages <= 0.02."""
    start = time.perf_counter()
    monotone = 0
    highs = []
    for seed in range(10):
        res = block_data([0.5, 0.5], 0.9, 10_000, seed=seed)
        chain = warm_fit(res.network, 2, 400, 120, seed=7000 + seed)
        curve = restricted_misclassification(
            res.network, chain, res.assignment, [1.0, math.log(10_000)]
        )
        low, high = curve[0].rate, curve[1].rate
        monotone += high is not None and high <= low
        highs.append(high)
    mean_high = float(np.mean(highs))
    ok = monotone == 10 and mean_high <= 0.02
    print(
        f"ACCEPTANCE 4 degree-cutoff consistency: {'PASS' if ok else 'FAIL'} "
        f"(monotone {monotone}/10, mean restricted rate {mean_high:.5f}, "
        f"{time.perf_counter() - start:.0f}s)"
    )
    assert ok


def test_criterion_5_exchangeability_oracle():
    """For 50 random networks (m <= 20), the collapsed log-probability is
    invariant to 20 interaction-order permutations each, to 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        net, assign = random_network(
            rng, k, m=int(rng.integers(1, 21)), n_pool=8, max_arity=3
        )
        alpha = rng.uniform(0.1, 0.9, size=k)
        theta = rng.uniform(0.5, 8.0, size=k)
        base = log_prob_sequential(net, assign, 1.0, 1.0, alpha, theta).value
        for _ in range(20):
            lp = log_prob_sequential(
                permuted(net, rng), assign, 1.0, 1.0, alpha, theta
            ).value
            worst = max(worst, abs(lp - base))
    ok = worst < 1e-9
    print(
        f"ACCEPTANCE 5 exchangeability: {'PASS' if ok else 'FAIL'} "
        f"(worst deviation {worst:.2e}, {time.perf_counter() - start:.0f}s)"
    )
    assert ok


def test_criterion_6_full_conditional_oracle():
    """On 20 random 5-node K=2 instances the node update's conditional
    equals the exhaustive-enumeration joint ratio to 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        net, _ = random_network(rng, 2, m=int(rng.integers(3, 9)), n_pool=5, max_arity=2)
        sampler = GibbsSampler(
            net, GibbsConfig(k=2, iterations=1, burn_in=0, seed=trial)
        )
        sampler.labels = [int(x) for x in rng.integers(2, size=net.n_nodes)]
        sampler._rebuild_counts()
        sampler._refresh_deg_table()
        prop = sampler.update_propensity()
        for node in range(net.n_nodes):
            mine = sampler.full_conditional(node)
            ref = enumerate_full_conditional(
                net, np.array(sampler.labels), node, 2,
                sampler.config.block_conc, prop, sampler.alpha, sampler.theta,
            )
            worst = max(worst, float(np.abs(mine - ref).max()))
    ok = worst < 1e-9
    print(
        f"ACCEPTANCE 6 full conditional: {'PASS' if ok else 'FAIL'} "
        f"(worst deviation {worst:.2e}, {time.perf_counter() - start:.0f}s)"
    )
    assert ok


@pytest.fixture(scope="module")
def degree_law_trajectory():
    params = ModelParams(
        alpha=np.array([0.5]), theta=np.array([5.0]), block_conc=1.0, recv_conc=1.0
    )
    return simulate_sequential(GeneratorConfig(params=params, m=10**6, seed=11))


@pytest.mark.xfail(
    strict=True,
    reason="1/3 is the Yule-Simon value; the urn's singleton fraction "
    "converges to the discount parameter (0.5 here); see notes/decisions.md",
)
def test_criterion_7_degree_one_fraction_as_stated(degree_law_trajectory):
    hist = degree_distribution(degree_law_trajectory.network.prefix(10**5))
    frac = hist[1] / sum(hist.values())
    ok = abs(frac - 1 / 3) <= 0.02
    print(
        f"ACCEPTANCE 7 (fraction clause): {'PASS' if ok else 'FAIL'} "
        f"(measured degree-1 fraction {frac:.4f} vs stated 1/3)"
    )
    assert ok


def test_criterion_7_degree_law_and_growth(degree_law_trajectory):
    """K=1, alpha=0.5, theta=5: the degree-1 fraction matches the urn's
    singleton law (the discount itself) and the node-count growth slope
    over m in {1e3,1e4,1e5,1e6} is 0.5 +- 0.1."""
    start = time.perf_counter()
    res = degree_law_trajectory
    hist = degree_distribution(res.network.prefix(10**5))
    frac = hist[1] / sum(hist.values())
    slopes = sparsity_growth(res.network, [10**3, 10**4, 10**5, 10**6])
    slope = slopes[0].slope
    ok = abs(frac - 0.5) <= 0.02 and abs(slope - 0.5) <= 0.1
    print(
        f"ACCEPTANCE 7 degree law: {'PASS' if ok else 'FAIL'} "
        f"(degree-1 fraction {frac:.4f} vs discount 0.5, growth slope "
        f"{slope:.3f}, {time.perf_counter() - start:.0f}s)"
    )
    assert ok


def test_criterion_8_bound_sanity():
    """mu_min exact, the series against a high-precision oracle, and the
    one-step majority-rule error within e * P_out for >= 18/20 seeds."""
    start = time.perf_counter()
    res = misclassification_bound(0.5, 0.9, 0.9, 0.9, tol=1e-12)
    assert res.mu_min == pytest.approx(0.64, abs=1e-12)
    oracle = bound_series_mpmath(0.5, res.mu_min)
    assert abs(res.p_out - oracle) < 1e-8

    cap = math.e * res.p_out
    hits = 0
    rates = []
    for seed in range(20):
        data = block_data([0.5, 0.5], 0.9, 10_000, seed=seed)
        rng = np.random.default_rng(500 + seed)
        labels = data.assignment.labels.copy()
        flip = rng.random(len(labels)) < 0.1
        labels[flip] = 1 - labels[flip]
        updated = degree_majority_update(data.network, BlockAssignment(labels, 2))
        rate = min_permutation_error(updated.labels, data.assignment.labels, 2)
        rates.append(rate)
        hits += rate <= cap
    ok = hits >= 18
    print(
        f"ACCEPTANCE 8 bound sanity: {'PASS' if ok else 'FAIL'} "
        f"(mu_min {res.mu_min:.4f}, p_out {res.p_out:.6f} vs oracle "
        f"{oracle:.6f}, one-step rate within e*p_out {hits}/20, mean rate "
        f"{np.mean(rates):.3f}, {time.perf_counter() - start:.0f}s)"
    )
    assert ok


def test_criterion_9_geweke_alpha():
    """Successive-conditional chain (regenerate the network, redraw the
    parameters) leaves the discount's marginal at its Beta(1,1) prior:
    two-sample KS against fresh prior draws, p > 0.01 over 500 draws."""
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    alpha, theta = float(rng.uniform()), float(rng.gamma(1.0, 1.0))
    draws = []
    steps, thin = 40_000, 80
    for step in range(steps):
        params = ModelParams(
            alpha=np.array([alpha]), theta=np.array([max(theta, 1e-9)]),
            block_conc=1.0, recv_conc=1.0,
        )
        res = simulate_sequential(GeneratorConfig(params=params, m=200, seed=900_000 + step))
        deg = Counter(res.network.senders.tolist())
        deg.update(res.network.receivers.tolist())
        alpha, theta = aux_update_alpha_theta(
            list(deg.values()), alpha, theta, (1.0, 1.0), (1.0, 1.0),
            np.random.default_rng(800_000 + step),
        )
        if step % thin == 0:
            draws.append(alpha)
    draws = np.array(draws[:500])
    prior = np.random.default_rng(123).uniform(size=500)
    ks = sp_stats.ks_2samp(draws, prior)
    ok = ks.pvalue > 0.01
    print(
        f"ACCEPTANCE 9 Geweke: {'PASS' if ok else 'FAIL'} "
        f"(KS p {ks.pvalue:.4f}, chain mean {draws.mean():.3f}, "
        f"{time.perf_counter() - start:.0f}s)"
    )
    assert ok
