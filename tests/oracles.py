"""Independent reference implementations used to pin expected values.

Nothing here shares code with the package internals beyond the domain
types: probabilities are accumulated step by step (replay oracle),
joints are enumerated exhaustively (conditional oracle), and series are
summed in high precision (bound oracle).
"""

from __future__ import annotations


import math

import numpy as np

from bvcm.core import BlockAssignment, InteractionNetwork


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
