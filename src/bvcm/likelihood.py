"""Exact log-probability of an observed network given block structure.

``log_prob_sequential`` is the fully collapsed form: the block urn, the
per-block node urns and the receiver-block urns are all marginalized,
leaving a product of Dirichlet-multinomial factors and one Pitman-Yor
EPPF per block.  It is a pure function of the count statistics, hence
invariant to interaction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BlockAssignment,
    InteractionNetwork,
    ModelParams,
    SufficientStats,
    compute_stats,
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


def gammaln(x):
    """log Gamma(x) elementwise, by ``math.lgamma`` (the function the
    compiled sweep ports), over float64; a scalar for a scalar.  Every
    argument the model passes is > 0, away from lgamma's poles."""
    x = np.asarray(x, dtype=np.float64)
    out = np.fromiter(map(math.lgamma, x.ravel().tolist()), np.float64, x.size)
    return out.reshape(x.shape)[()]


def _log_rising(x: float, n: int) -> float:
    """log x(x+1)...(x+n-1) = lgamma(x + n) - lgamma(x); exactly 0 at
    n = 0."""
    return math.lgamma(x + n) - math.lgamma(x)


def log_discount_factorial(deg, alpha):
    """log (1 - alpha)_{d-1} = lgamma(d - alpha) - lgamma(1 - alpha).

    The factor a node of degree d >= 1 contributes to its block's EPPF
    (0 at d = 1); elementwise, with numpy broadcasting.
    """
    return gammaln(deg - alpha) - gammaln(1.0 - alpha)


def block_eppf(hist_row: np.ndarray, alpha: float, theta: float) -> float:
    """Log Pitman-Yor EPPF of one block from its degree histogram.

    ``hist_row[d]`` is the number of the block's nodes of degree d (a
    row of ``SufficientStats.deg_hist``; entry 0 must be 0).  With v
    nodes of total degree M it is

        sum_{i=1}^{v-1} log(theta + i alpha) - log (theta + 1)_{M-1}
            + sum over nodes of log (1 - alpha)_{d-1};

    empty blocks contribute 0.  The discount product is summed as logs,
    not taken as the gamma ratio alpha^{v-1} Gamma(theta/alpha + v) /
    Gamma(theta/alpha + 1), which cancels when theta / alpha is large.
    The addends are summed by ``math.fsum``, which is correctly rounded,
    so the result does not depend on their order.
    """
    degs = np.flatnonzero(hist_row)
    if degs.size == 0:
        return 0.0
    counts = hist_row[degs].tolist()
    n_nodes = sum(counts)
    total_deg = sum(c * d for c, d in zip(counts, degs.tolist()))
    terms = [math.log(theta + alpha * i) for i in range(1, n_nodes)]
    terms.append(-_log_rising(theta + 1.0, total_deg - 1))
    terms += [c * x for c, x in zip(counts, log_discount_factorial(degs, alpha).tolist())]
    return math.fsum(terms)


def log_prob_from_stats(
    stats: SufficientStats,
    block_conc: float,
    recv_conc: float,
    alpha: Sequence[float],
    theta: Sequence[float],
) -> LogProb:
    """Collapsed log-probability from count statistics: one
    Dirichlet-multinomial factor for the sender-block urn and one per
    sender block's receiver-block urn (an empty row gives 0), plus one
    EPPF per block.

    Every sum is a ``math.fsum`` and every log-gamma ``math.lgamma``, so
    the bits depend on neither the order of the blocks nor the host's
    vector or BLAS kernels; the compiled kernel (``bvcm_log_prob`` in
    ``_sweep.c``) computes the same addends and sums them with a port of
    ``math.fsum``."""
    k = len(stats.initiations)
    term_block = math.fsum([
        *(_log_rising(block_conc, n) for n in stats.initiations.tolist()),
        -_log_rising(k * block_conc, stats.m),
    ])
    term_nodes = math.fsum(
        block_eppf(row, float(a), float(t))
        for row, a, t in zip(stats.deg_hist, alpha, theta)
    )
    pair = stats.pair.tolist()
    term_prop = math.fsum([
        *(_log_rising(recv_conc, n) for row in pair for n in row),
        *(-_log_rising(k * recv_conc, sum(row)) for row in pair),
    ])
    return LogProb(
        value=math.fsum([term_block, term_nodes, term_prop]),
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
    k = assignment.k
    alpha = np.asarray(alpha, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if alpha.shape != (k,) or theta.shape != (k,):
        raise UsageError(f"alpha/theta must have one entry per block ({k})")
    # The domain checks are ModelParams', a DataError.
    ModelParams(alpha=alpha, theta=theta, block_conc=block_conc, recv_conc=recv_conc)
    stats = compute_stats(network, assignment)
    return log_prob_from_stats(stats, block_conc, recv_conc, alpha, theta)


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
