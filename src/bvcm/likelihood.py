"""Exact log-probability of an observed network given block structure.

``log_prob_sequential`` is the fully collapsed form: the block urn, the
per-block node urns and the receiver-block urns are all marginalized,
leaving a product of Dirichlet-multinomial factors and one Pitman-Yor
EPPF per block.  It is a pure function of the count statistics, hence
invariant to interaction order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .core import (
    BlockAssignment,
    InteractionNetwork,
    ModelParams,
    SufficientStats,
    compute_stats,
    log_ascending_factorial,
)
from .errors import UsageError

__all__ = [
    "LogProb",
    "log_prob_sequential",
    "marginal_log_likelihood",
    "block_eppf",
]


@dataclass(frozen=True)
class LogProb:
    """Total log-probability and its three-addend decomposition.

    term_block covers the sender-block urn, term_nodes the per-block
    node urns (EPPFs), term_prop the receiver-block urns.
    """

    value: float
    term_block: float
    term_nodes: float
    term_prop: float


def log_discount_factorial(deg, alpha):
    """log (1 - alpha)_{d-1} = lgamma(d - alpha) - lgamma(1 - alpha).

    The factor a node of degree d >= 1 contributes to its block's EPPF
    (0 at d = 1); elementwise, with numpy broadcasting.
    """
    return gammaln(deg - alpha) - gammaln(1.0 - alpha)


def block_eppf(hist_row: np.ndarray, alpha: float, theta: float) -> float:
    """Log Pitman-Yor EPPF of one block from its degree histogram.

    ``hist_row[d]`` is the number of the block's nodes of degree d (a
    row of ``SufficientStats.deg_hist``; entry 0 must be 0).  The node
    count and total degree are read off the row; empty blocks
    contribute 0.
    """
    degs = np.flatnonzero(hist_row)
    if degs.size == 0:
        return 0.0
    counts = hist_row[degs]
    n_nodes = int(counts.sum())
    total_deg = int(counts @ degs)
    out = log_ascending_factorial(theta + alpha, alpha, n_nodes - 1)
    out -= log_ascending_factorial(theta + 1.0, 1.0, total_deg - 1)
    return out + float(counts.astype(float) @ log_discount_factorial(degs, alpha))


def _validate_params(k: int, alpha, theta, block_conc: float, recv_conc: float) -> None:
    alpha = np.asarray(alpha, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if alpha.shape != (k,) or theta.shape != (k,):
        raise UsageError(f"alpha/theta must have one entry per block ({k})")
    # Reuse the ModelParams domain checks.
    ModelParams(alpha=alpha, theta=theta, block_conc=block_conc, recv_conc=recv_conc)


def log_prob_from_stats(
    stats: SufficientStats,
    k: int,
    block_conc: float,
    recv_conc: float,
    alpha: Sequence[float],
    theta: Sequence[float],
) -> LogProb:
    la = log_ascending_factorial
    term_block = -la(k * block_conc, 1.0, stats.m)
    for b in range(k):
        term_block += la(block_conc, 1.0, int(stats.initiations[b]))

    term_nodes = sum(
        block_eppf(row, float(a), float(t))
        for row, a, t in zip(stats.deg_hist, alpha, theta)
    )

    term_prop = 0.0
    for b in range(k):
        r_b = int(stats.pair[b].sum())
        if r_b == 0:
            continue
        term_prop -= la(k * recv_conc, 1.0, r_b)
        for b2 in range(k):
            term_prop += la(recv_conc, 1.0, int(stats.pair[b, b2]))

    return LogProb(
        value=term_block + term_nodes + term_prop,
        term_block=term_block,
        term_nodes=term_nodes,
        term_prop=term_prop,
    )


def log_prob_sequential(
    network: InteractionNetwork,
    assignment: BlockAssignment,
    block_conc: float,
    recv_conc: float,
    alpha: Sequence[float],
    theta: Sequence[float],
) -> LogProb:
    """Collapsed log P(network, assignment) under the urn scheme."""
    _validate_params(assignment.k, alpha, theta, block_conc, recv_conc)
    stats = compute_stats(network, assignment)
    return log_prob_from_stats(
        stats, assignment.k, block_conc, recv_conc, alpha, theta
    )


def marginal_log_likelihood(chain) -> float:
    """Posterior-mean collapsed log-probability over post-burn-in samples.

    The score used for choosing the number of blocks: the mean of the
    chain's recorded ``log_probs``, i.e. log_prob_sequential at each
    sampled (assignment, alpha, theta) with the chain's fixed urn
    concentrations.
    """
    post = chain.log_probs[chain.burn_in:]
    if len(post) == 0:
        raise UsageError("chain has no post-burn-in samples")
    return float(np.mean(post))
