"""Independent reference implementations used to pin expected values.

Nothing here shares code with the package internals beyond the domain
types: probabilities are accumulated step by step (replay oracle),
joints are enumerated exhaustively (conditional oracle), and series are
summed in high precision (bound oracle).  The exceptions are
``log_prob_conditional``, which reuses ``compute_stats`` and
``block_eppf`` because it is checked against the collapsed form by Monte
Carlo, ``aux_update_alpha_theta_degrees``, the degree-list form of the
sampler's (alpha, theta) update kept to pin its RNG stream, and
``full_conditional`` and ``update_block_assignment``, single-node
entry points into the sampler's Python sweep (``gibbs._ListSweep``,
which updates every count of the sampler's ``SufficientStats``, the
degree histogram included), which the enumeration oracle checks, and
``warm_start_labels_chain``, the warm start as it ran on a whole
recorded probe chain.
"""

from __future__ import annotations


import itertools
import math
import shutil
from dataclasses import dataclass

import numpy as np
import pytest

from bvcm import _sweep
from bvcm.core import (
    BlockAssignment,
    InteractionNetwork,
    compute_stats,
    counterparty_counts,
)
from bvcm.errors import UsageError
from bvcm.gibbs import GibbsConfig, _ListSweep, run_gibbs
from bvcm.likelihood import block_eppf


def sweep_backends():
    """Iterate to run a check on every sweep backend: "c" (the compiled
    kernel) wherever a C compiler exists, then always "python", during
    which samplers built see no kernel and run the Python reference."""
    if shutil.which("cc"):
        yield "c"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_sweep, "load", lambda: None)
        yield "python"


def replay_log_prob(
    network: InteractionNetwork,
    assignment: BlockAssignment,
    block_conc: float,
    recv_conc: float,
    alpha,
    theta,
) -> float:
    """Log-probability by multiplying every urn draw's probability in order.

    Sender blocks follow a Polya urn with per-block weight count + conc;
    receiver blocks one such urn per sender block; nodes a Pitman-Yor
    urn per block whose state advances within an interaction.
    """
    k = assignment.k
    labels = assignment.labels
    snd = [0] * k
    pair = [[0] * k for _ in range(k)]
    recv_tot = [0] * k
    deg: dict[int, int] = {}
    block_nodes = [0] * k
    block_deg = [0] * k

    logp = 0.0
    m_seen = 0
    for s, receivers in _interactions(network):
        bs = labels[s]
        logp += math.log((snd[bs] + block_conc) / (m_seen + k * block_conc))
        snd[bs] += 1
        m_seen += 1
        logp += _node_step(s, bs, deg, block_nodes, block_deg, alpha, theta)
        for r in receivers:
            br = labels[r]
            logp += math.log(
                (pair[bs][br] + recv_conc) / (recv_tot[bs] + k * recv_conc)
            )
            pair[bs][br] += 1
            recv_tot[bs] += 1
            logp += _node_step(r, br, deg, block_nodes, block_deg, alpha, theta)
    return logp


def _interactions(network: InteractionNetwork):
    """(sender, receiver list) index pairs, one per interaction, in order."""
    offsets = network.offsets.tolist()
    receivers = network.receivers.tolist()
    for j, s in enumerate(network.senders.tolist()):
        yield s, receivers[offsets[j] : offsets[j + 1]]


def _node_step(node, b, deg, block_nodes, block_deg, alpha, theta) -> float:
    denom = theta[b] + block_deg[b]
    d = deg.get(node, 0)
    if d == 0:
        num = theta[b] + alpha[b] * block_nodes[b]
        block_nodes[b] += 1
    else:
        num = d - alpha[b]
    deg[node] = d + 1
    block_deg[b] += 1
    return math.log(num / denom)


def semi_collapsed_log_joint(
    network: InteractionNetwork,
    labels: np.ndarray,
    k: int,
    block_conc: float,
    propensity: np.ndarray,
    alpha,
    theta,
) -> float:
    """Log joint with block frequencies integrated out and the mixing
    matrix explicit: the target of the single-node Gibbs update.

    Computed from scratch with its own counting code.
    """
    n = len(labels)
    inits = [0] * k
    deg = [0] * n
    pair_ll = 0.0
    for s, receivers in _interactions(network):
        inits[labels[s]] += 1
        deg[s] += 1
        for r in receivers:
            deg[r] += 1
            pair_ll += math.log(propensity[labels[s], labels[r]])

    out = pair_ll
    # Dirichlet-multinomial over initiations: multivariate Beta of conc + counts.
    out += sum(math.lgamma(block_conc + c) for c in inits)
    out -= math.lgamma(k * block_conc + sum(inits))

    for b in range(k):
        degs = [deg[i] for i in range(n) if labels[i] == b and deg[i] > 0]
        if not degs:
            continue
        v_b, m_b = len(degs), sum(degs)
        for t in range(1, v_b):
            out += math.log(theta[b] + t * alpha[b])
        for j in range(1, m_b):
            out -= math.log(theta[b] + j)
        for d in degs:
            for j in range(1, d):
                out += math.log(j - alpha[b])
    return out


def enumerate_full_conditional(
    network: InteractionNetwork,
    labels: np.ndarray,
    node: int,
    k: int,
    block_conc: float,
    propensity: np.ndarray,
    alpha,
    theta,
) -> np.ndarray:
    """P(label of `node` | everything else) by brute-force joint evaluation."""
    logs = []
    work = labels.copy()
    for b in range(k):
        work[node] = b
        logs.append(
            semi_collapsed_log_joint(
                network, work, k, block_conc, propensity, alpha, theta
            )
        )
    logs = np.array(logs)
    p = np.exp(logs - logs.max())
    return p / p.sum()


def full_conditional(sampler, i: int) -> np.ndarray:
    """Normalized probability of each block for a sampler's node i given
    the rest, from the Python sweep's log weights; the sampler is left
    unchanged."""
    ref = _ListSweep(sampler)
    ref.detach(i)
    weights = ref.log_weights_detached(i)
    p = np.exp(np.array(weights) - max(weights))
    return p / p.sum()


def update_block_assignment(sampler, i: int, u=None) -> int:
    """Draw a new block for a sampler's node i with the Python sweep's
    update (inverting u, by default a draw from the sampler's generator)
    and apply it, writing the labels and every count of the sampler's
    ``stats`` back; returns the label."""
    if u is None:
        u = sampler.rng.random()
    ref = _ListSweep(sampler)
    b = ref.update(i, u)
    ref.store(sampler)
    return b


def bound_series_mpmath(alpha: float, mu_min: float, dps: int = 50) -> float:
    """High-precision evaluation of the misclassification mass series."""
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(alpha)
        q = mp.e ** (-mp.mpf(mu_min) ** 2 / 4)
        total = mp.mpf(0)
        d = 1
        while True:
            term = a * mp.beta(d, a + 1) * q**d
            total += term
            if term < mp.mpf(10) ** (-(dps - 10)) and d > 10:
                break
            d += 1
            if d > 2_000_000:
                raise RuntimeError("series too slow")
        return float(total)


def random_network(
    rng: np.random.Generator, k: int, m: int, n_pool: int, max_arity: int = 1
):
    """Arbitrary small network + assignment (not drawn from the model)."""
    records = []
    for _ in range(m):
        sender = f"u{rng.integers(n_pool)}"
        arity = int(rng.integers(1, max_arity + 1))
        receivers = [f"u{rng.integers(n_pool)}" for _ in range(arity)]
        records.append((sender, receivers))
    network = InteractionNetwork.from_records(records)
    labels = rng.integers(k, size=network.n_nodes)
    return network, BlockAssignment(labels, k)


def permuted(network: InteractionNetwork, rng: np.random.Generator):
    order = rng.permutation(network.m)
    offsets = network.offsets
    receivers = [network.receivers[offsets[j] : offsets[j + 1]] for j in order]
    return InteractionNetwork(
        network.senders[order],
        np.concatenate([[0], np.cumsum([len(r) for r in receivers])]),
        np.concatenate(receivers),
        network.node_ids,
    )


def best_permutation_gain(gain: np.ndarray) -> float:
    """max over all permutations p of sum_a gain[a, p[a]], by enumeration."""
    k = gain.shape[0]
    return max(
        sum(gain[a, p[a]] for a in range(k))
        for p in itertools.permutations(range(k))
    )


def size_rank_trap() -> tuple[np.ndarray, np.ndarray]:
    """(truth, hard) labels over k = 9 blocks and 864 nodes.

    hard is the truth under a relabeling, with 4 nodes of block 0 moved
    to block 1 so that those two block sizes swap rank (110, 108 ->
    106, 112); every other size stays distinct.  The best relabeling
    misclassifies exactly those 4 nodes.
    """
    sizes = [110, 108, 100, 98, 96, 94, 92, 84, 82]
    truth = np.repeat(np.arange(9), sizes)
    hard = truth.copy()
    hard[:4] = 1
    relabel = np.array([3, 7, 0, 8, 1, 5, 2, 6, 4])
    return truth, relabel[hard]


def aux_update_alpha_theta_degrees(degs, alpha, theta, alpha_prior, theta_prior, rng):
    """The (alpha, theta) auxiliary update on a block's list of node
    degrees, as the sampler ran it before it read a degree histogram:
    the same RNG calls, in the same order, with the same arguments."""
    eps = 1e-12

    def clip(x):
        return min(max(x, eps), 1.0 - eps)

    c_hyp, d_hyp = alpha_prior
    a_hyp, b_hyp = theta_prior
    v_b = len(degs)
    if v_b == 0:
        new_alpha = clip(rng.beta(c_hyp, d_hyp))
        return new_alpha, max(rng.gamma(a_hyp, 1.0 / b_hyp), eps)
    m_b = np.sum(degs)

    rate = b_hyp
    if m_b >= 2:
        x = rng.beta(theta + 1.0, m_b - 1)
        rate = b_hyp - math.log(max(x, eps))

    sum_y = 0.0
    n_y = v_b - 1
    if n_y:
        idx = np.arange(1, v_b, dtype=float)
        p = theta / (theta + alpha * idx)
        sum_y = float((rng.random(n_y) < p).sum())
    sum_not_y = n_y - sum_y

    sum_not_z = 0.0
    max_d = np.max(degs)
    if max_d > 1:
        cnt = np.bincount(degs, minlength=max_d + 1)
        tail = np.cumsum(cnt[::-1])[::-1]
        j = np.arange(1, max_d, dtype=float)
        n_j = tail[2:]
        p_not = (1.0 - alpha) / (j - alpha)
        sum_not_z = float(rng.binomial(n_j, p_not).sum())

    new_theta = max(rng.gamma(a_hyp + sum_y, 1.0 / rate), eps)
    new_alpha = clip(rng.beta(c_hyp + sum_not_y, d_hyp + sum_not_z))
    return new_alpha, new_theta


def aux_update_cases():
    """2 500 (case, degrees, histogram row, (alpha, theta, alpha_prior,
    theta_prior)) inputs of the (alpha, theta) update, cycling through
    empty, singleton, all-degree-1, long-tailed and mixed blocks.  A
    sampler's row runs to the network's maximum degree, so the histogram
    can end in zeros."""
    rng = np.random.default_rng(30)
    for case in range(2500):
        kind = case % 5
        if kind == 0:
            degs = np.empty(0, dtype=np.int64)
        elif kind == 1:
            degs = rng.integers(1, 6, size=1)
        elif kind == 2:
            degs = np.ones(int(rng.integers(1, 60)), dtype=np.int64)
        elif kind == 3:  # long-tailed, capped to keep the histogram small
            tail = rng.pareto(0.6, size=int(rng.integers(1, 300)))
            degs = np.minimum(tail, 3000).astype(np.int64) + 1
        else:
            degs = rng.integers(1, 25, size=int(rng.integers(1, 120)))
        hist = np.bincount(degs, minlength=int(degs.max(initial=0)) + 1 + int(rng.integers(0, 4)))
        args = (
            float(rng.uniform(0.01, 0.99)),
            float(rng.gamma(1.0, 3.0)),
            (float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))),
            (float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))),
        )
        yield case, degs, hist, args


@dataclass(frozen=True)
class ConditionalLogProb:
    """Log-probability given explicit block frequencies and mixing matrix.

    When a zero-probability factor carries a positive count the value is
    -inf and the offending coordinates are listed.
    """

    value: float
    zero_blocks: tuple[int, ...] = ()
    zero_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def is_neg_inf(self) -> bool:
        return bool(self.zero_blocks) or bool(self.zero_pairs)


def log_prob_conditional(
    network: InteractionNetwork,
    assignment: BlockAssignment,
    block_probs,
    propensity,
    alpha,
    theta,
) -> ConditionalLogProb:
    """Log-probability conditional on explicit (frequencies, mixing
    matrix): the block and receiver-block urns are not integrated out,
    so its expectation over their Dirichlet priors is the collapsed
    ``log_prob_sequential`` (checked by Monte Carlo)."""
    k = assignment.k
    pi = np.asarray(block_probs, dtype=float)
    prop = np.asarray(propensity, dtype=float)
    if pi.shape != (k,) or abs(pi.sum() - 1.0) > 1e-9 or np.any(pi < 0):
        raise UsageError("block_probs must lie on the k-simplex")
    if prop.shape != (k, k) or np.any(np.abs(prop.sum(axis=1) - 1.0) > 1e-9):
        raise UsageError("propensity rows must lie on the k-simplex")
    stats = compute_stats(network, assignment)

    zero_blocks = []
    zero_pairs = []
    value = sum(
        block_eppf(row, float(a), float(t))
        for row, a, t in zip(stats.deg_hist, alpha, theta)
    )
    for b in range(k):
        l_b = int(stats.initiations[b])
        if l_b:
            if pi[b] <= 0.0:
                zero_blocks.append(b)
            else:
                value += l_b * np.log(pi[b])
        for b2 in range(k):
            c = int(stats.pair[b, b2])
            if not c:
                continue
            if prop[b, b2] <= 0.0:
                zero_pairs.append((b, b2))
            else:
                value += c * np.log(prop[b, b2])
    if zero_blocks or zero_pairs:
        return ConditionalLogProb(float("-inf"), tuple(zero_blocks), tuple(zero_pairs))
    return ConditionalLogProb(float(value))


def warm_start_labels_chain(network: InteractionNetwork, config: GibbsConfig):
    """(labels, probe block counts): the warm start computed from a whole
    recorded probe chain.  The probe is a full ``run_gibbs`` chain of
    120 iterations (60 burn-in) on the first 2 500 interactions, with
    ``init="random"`` and every other setting from config; its prefix
    labels are ``block_counts().argmax(axis=1)`` (ties -> lowest label),
    spread to the other nodes by counterparty majority."""
    prefix = network.prefix(min(2500, network.m))
    probe_cfg = GibbsConfig(
        k=config.k,
        iterations=120,
        burn_in=60,
        seed=config.seed,
        block_conc=config.block_conc,
        recv_conc=config.recv_conc,
        alpha_prior=config.alpha_prior,
        theta_prior=config.theta_prior,
        init="random",
    )
    counts = run_gibbs(prefix, probe_cfg).block_counts()

    labels = np.empty(network.n_nodes, dtype=np.int64)
    seen = np.zeros(network.n_nodes, dtype=bool)
    full = np.array([network.node_index(name) for name in prefix.node_ids], dtype=np.int64)
    labels[full] = counts.argmax(axis=1)
    seen[full] = True
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    for _ in range(3):
        known = np.where(seen, labels, config.k)
        nbr = counterparty_counts(network, known, config.k + 1)[:, : config.k]
        fresh = ~seen & (nbr.sum(axis=1) > 0)
        labels[fresh] = nbr[fresh].argmax(axis=1)
        seen |= fresh
        if seen.all():
            break
    labels[~seen] = rng.integers(config.k, size=int((~seen).sum()))
    return labels, counts
