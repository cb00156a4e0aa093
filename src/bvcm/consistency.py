"""Degree-majority relabeling, its misclassification bound, and
degree-restricted error curves.

The bound applies to the balanced two-block setting: equal discount and
strength parameters, a symmetric mixing matrix with within-block weight
``a > 1/2``, and a current labeling that is correct on more than half
of each block's (propensity-weighted) mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import BlockAssignment, InteractionNetwork, counterparty_counts
from .errors import NumericalError, UsageError

__all__ = [
    "BoundResult",
    "LabelingQuality",
    "CutoffPoint",
    "degree_majority_update",
    "misclassification_bound",
    "restricted_misclassification",
    "estimate_gamma",
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
    if len(labeling.labels) != network.n_nodes:
        raise UsageError("labeling does not cover the network")
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
    terms: int


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
    return BoundResult(mu_min, total, d)


def estimate_gamma(
    network: InteractionNetwork,
    labeling: BlockAssignment,
    truth: BlockAssignment,
    weighted: bool = False,
) -> tuple[float, float]:
    """Per-block correct fraction of a labeling against the truth.

    Unweighted: node fraction.  Weighted: degree-weighted fraction, a
    plug-in proxy for the propensity-weighted quantity the bound uses.
    """
    if truth.k != 2 or labeling.k != 2:
        raise UsageError("gamma estimation is defined for k = 2")
    out = []
    w = network.degrees().astype(float) if weighted else np.ones(network.n_nodes)
    correct = labeling.labels == truth.labels
    for b in (0, 1):
        sel = truth.labels == b
        mass = w[sel].sum()
        out.append(float(w[sel & correct].sum() / mass) if mass > 0 else float("nan"))
    return out[0], out[1]


@dataclass(frozen=True)
class LabelingQuality:
    """Correct fractions of a two-block labeling plus the derived margin."""

    gamma1: float
    gamma2: float
    within_prob: float

    @property
    def gamma_min(self) -> float:
        return min(self.gamma1, self.gamma2)

    @property
    def gamma_max(self) -> float:
        return max(self.gamma1, self.gamma2)

    @property
    def mu_min(self) -> float:
        return 2.0 * self.within_prob * (self.gamma_min + self.gamma_max - 1.0) - (
            2.0 * self.gamma_max - 1.0
        )

    def bound(self, alpha: float, tol: float = 1e-10) -> BoundResult:
        return misclassification_bound(
            alpha, self.within_prob, self.gamma1, self.gamma2, tol
        )


class CutoffPoint(NamedTuple):
    cutoff: float
    n_nodes: int
    rate: Optional[float]


def _hard_labels(chain_or_labeling) -> tuple[np.ndarray, int]:
    if hasattr(chain_or_labeling, "majority_labels"):
        return chain_or_labeling.majority_labels(), chain_or_labeling.k
    labeling: BlockAssignment = chain_or_labeling
    return labeling.labels, labeling.k


def min_permutation_error(
    hard: np.ndarray, truth: np.ndarray, k: int, sel: Optional[np.ndarray] = None
) -> float:
    """Misclassified fraction minimized over block-label permutations.

    Exact search up to k = 8; greedy size-rank matching beyond.
    """
    if sel is not None:
        hard = hard[sel]
        truth = truth[sel]
    if len(hard) == 0:
        raise UsageError("no nodes selected")
    if k <= 8:
        best = 1.0
        for perm in itertools.permutations(range(k)):
            p = np.asarray(perm)
            best = min(best, float(np.mean(hard != p[truth])))
        return best
    order_t = np.argsort([-np.sum(truth == b) for b in range(k)], kind="stable")
    order_h = np.argsort([-np.sum(hard == b) for b in range(k)], kind="stable")
    perm = np.empty(k, dtype=np.int64)
    perm[order_t] = order_h
    return float(np.mean(hard != perm[truth]))


def restricted_misclassification(
    network: InteractionNetwork,
    chain_or_labeling,
    truth: BlockAssignment,
    degree_cutoffs: Sequence[float],
) -> list[CutoffPoint]:
    """Misclassification of degree >= D nodes for each cutoff D.

    The hard label is the post-burn-in majority vote when a chain is
    given.  Cutoffs with no qualifying node yield rate None.
    """
    cutoffs = list(degree_cutoffs)
    if any(b < a for a, b in zip(cutoffs, cutoffs[1:])):
        raise UsageError("degree cutoffs must be ascending")
    hard, k = _hard_labels(chain_or_labeling)
    if len(hard) != network.n_nodes or len(truth.labels) != network.n_nodes:
        raise UsageError("labels do not cover the network")
    deg = network.degrees()
    out = []
    for cut in cutoffs:
        sel = deg >= cut
        n_sel = int(sel.sum())
        if n_sel == 0:
            out.append(CutoffPoint(float(cut), 0, None))
            continue
        rate = min_permutation_error(hard, truth.labels, max(k, truth.k), sel)
        out.append(CutoffPoint(float(cut), n_sel, rate))
    return out
