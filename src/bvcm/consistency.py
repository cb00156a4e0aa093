"""Degree-majority relabeling, its misclassification bound, and
degree-restricted error curves.

The bound applies to the balanced two-block setting: equal discount and
strength parameters, a symmetric mixing matrix with within-block weight
``a > 1/2``, and a current labeling that is correct on more than half
of each block's (propensity-weighted) mass.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BlockAssignment,
    InteractionNetwork,
    _check_assignment,
    best_relabeling,
    counterparty_counts,
)
from .errors import NumericalError, UsageError

__all__ = [
    "BoundResult",
    "CutoffPoint",
    "degree_majority_update",
    "misclassification_bound",
    "restricted_misclassification",
]


def degree_majority_update(
    network: InteractionNetwork, labeling: BlockAssignment
) -> BlockAssignment:
    """One simultaneous majority pass over neighbor labels (two blocks).

    Every node is relabeled to the majority label among its interaction
    counterparties, counted with multiplicity, all nodes reading the old
    labeling; ties keep the current label.
    """
    if labeling.k != 2:
        raise UsageError("degree_majority_update is defined for k = 2")
    _check_assignment(network, labeling)
    labels = labeling.labels
    counts = counterparty_counts(network, labels, 2)
    new = np.where(
        counts[:, 1] > counts[:, 0],
        1,
        np.where(counts[:, 0] > counts[:, 1], 0, labels),
    )
    return BlockAssignment(new.astype(np.int64), 2)


class BoundResult(NamedTuple):
    mu_min: float
    p_out: float


def misclassification_bound(
    alpha: float,
    within_prob: float,
    gamma1: float,
    gamma2: float,
    tol: float = 1e-10,
) -> BoundResult:
    """Signal margin and asymptotic misclassification mass of the majority rule.

    mu_min = 2*a*(gamma_min + gamma_max - 1) - (2*gamma_max - 1) and
    p_out = sum_{d>=1} alpha * B(d, alpha+1) * exp(-d * mu_min^2 / 4),
    the series truncated once both the current term and its geometric
    tail bound drop below tol.
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must lie in (0,1), got {alpha}")
    if not 0.5 < within_prob < 1.0:
        raise UsageError(f"within-block weight must lie in (1/2,1), got {within_prob}")
    for g in (gamma1, gamma2):
        if not 0.5 < g <= 1.0:
            raise UsageError(f"correct fractions must lie in (1/2,1], got {g}")
    if not 0.0 < tol < math.inf:
        raise UsageError(f"tol must be positive and finite, got {tol}")
    g_min, g_max = min(gamma1, gamma2), max(gamma1, gamma2)
    mu_min = 2.0 * within_prob * (g_min + g_max - 1.0) - (2.0 * g_max - 1.0)
    if mu_min <= 0.0:
        raise NumericalError(
            f"margin {mu_min} <= 0: the labeling is too unbalanced for the "
            f"within-block weight {within_prob} (positivity assumption fails)"
        )
    q = math.exp(-mu_min * mu_min / 4.0)
    lg_a1 = math.lgamma(alpha + 1.0)
    total = 0.0
    d = 0
    while True:
        d += 1
        log_beta = math.lgamma(d) + lg_a1 - math.lgamma(d + alpha + 1.0)
        term = alpha * math.exp(log_beta) * (q**d)
        total += term
        if term < tol and term * q / (1.0 - q) < tol:
            break
        if d > 10_000_000:
            raise NumericalError("misclassification bound series did not converge")
    return BoundResult(mu_min, total)


class CutoffPoint(NamedTuple):
    cutoff: float
    n_nodes: int
    rate: Optional[float]


def min_permutation_error(
    hard: np.ndarray, truth: np.ndarray, k: int, sel: Optional[np.ndarray] = None
) -> float:
    """Misclassified fraction minimized exactly over block-label permutations.

    The permutation maximizes the agreements in the truth x hard
    confusion matrix.
    """
    if sel is not None:
        hard = hard[sel]
        truth = truth[sel]
    if len(hard) == 0:
        raise UsageError("no nodes selected")
    confusion = np.bincount(truth * k + hard, minlength=k * k).reshape(k, k)
    perm = best_relabeling(confusion)
    return float(np.mean(hard != perm[truth]))


def restricted_misclassification(
    network: InteractionNetwork,
    labeling: BlockAssignment,
    truth: BlockAssignment,
    degree_cutoffs: Sequence[float],
) -> list[CutoffPoint]:
    """Misclassification of degree >= D nodes for each cutoff D.

    A chain's labeling is ``chain.block_counts().argmax(axis=1)``.
    Cutoffs with no qualifying node yield rate None.
    """
    cutoffs = list(degree_cutoffs)
    # The last cutoff is compared with infinity, so a NaN anywhere fails.
    if not all(a <= b for a, b in zip(cutoffs, cutoffs[1:] + [math.inf])):
        raise UsageError("degree cutoffs must be ascending numbers")
    _check_assignment(network, labeling)
    _check_assignment(network, truth)
    hard, k = labeling.labels, max(labeling.k, truth.k)
    deg = network.degrees()
    out = []
    for cut in cutoffs:
        sel = deg >= cut
        n_sel = int(sel.sum())
        if n_sel == 0:
            out.append(CutoffPoint(float(cut), 0, None))
            continue
        rate = min_permutation_error(hard, truth.labels, k, sel)
        out.append(CutoffPoint(float(cut), n_sel, rate))
    return out
