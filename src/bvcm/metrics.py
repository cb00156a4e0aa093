"""Evaluation metrics: recovery distances, block-stability distance, and
degree-law diagnostics.

All label-dependent scores minimize exactly over block label
permutations, since labels are only identified up to relabeling: through
``core.best_relabeling``, except ``standardized_l2`` (two blocks), which
takes the smaller of its values at the labeling and at its flip.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BlockAssignment,
    InteractionNetwork,
    _check_assignment,
    best_relabeling,
    compute_stats,
    degree_distribution,
)
from .errors import DataError, UsageError

__all__ = [
    "PosteriorMembership",
    "standardized_l2",
    "cross_entropy_loss",
    "hellinger_distance",
    "powerlaw_diagnostic",
    "sparsity_growth",
    "PowerlawFit",
    "SparsitySlope",
]

_LOG_CLIP = 1e-12
_MIN_FIT_NODES = 100


@dataclass
class PosteriorMembership:
    """Per-node posterior block frequencies (rows sum to one)."""

    node_ids: list[str]
    probs: np.ndarray  # (n_nodes, k)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if not self.probs.shape[0]:
            return
        # Written so that NaN fails both comparisons.
        if not np.all(self.probs >= 0.0):
            raise DataError("membership entries must be non-negative numbers")
        if not np.all(np.abs(self.probs.sum(axis=1) - 1.0) <= 1e-9):
            raise DataError("membership rows must sum to 1")

    @property
    def k(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def from_chain(cls, chain) -> "PosteriorMembership":
        return cls(list(chain.node_ids), chain.membership())


def standardized_l2(membership: PosteriorMembership, truth: BlockAssignment) -> float:
    """Root-mean-square distance between truth and mean membership (two blocks).

    The norm is evaluated against the labeling and its conjugate and
    the smaller value returned, so chains that locked onto the mirrored
    labeling score identically: 0 for a point-mass-correct posterior up
    to the flip, 0.5 when every membership sits at 1/2.
    """
    if membership.k != 2 or truth.k != 2:
        raise UsageError("standardized_l2 is defined for k = 2; use cross_entropy_loss")
    if membership.probs.shape[0] != len(truth.labels):
        raise UsageError("membership and truth cover different node sets")
    p = membership.probs[:, 1]
    t = (truth.labels == 1).astype(float)
    v = len(t)
    direct = np.linalg.norm(t - p)
    flipped = np.linalg.norm(t - (1.0 - p))
    return float(min(direct, flipped) / math.sqrt(v))


def cross_entropy_loss(
    membership: PosteriorMembership, truth: BlockAssignment
) -> tuple[float, float]:
    """(total, per-node) cross entropy of mean membership against the truth.

    Membership frequencies are clipped below at 1e-12 before the log.
    Exact minimum over block-label permutations at every k.
    """
    if truth.k > membership.k:
        raise UsageError(f"truth has {truth.k} blocks, the membership {membership.k}")
    if membership.probs.shape[0] != len(truth.labels):
        raise UsageError("membership and truth cover different node sets")
    logq = np.clip(membership.probs, _LOG_CLIP, None)
    np.log(logq, out=logq)
    # gain[t, b]: sum of log q[i, b] over the nodes whose true block is t
    gain = np.zeros((membership.k, membership.k))
    np.add.at(gain, truth.labels, logq)
    perm = best_relabeling(gain)
    n = len(truth.labels)
    best = float(-logq[np.arange(n), perm[truth.labels]].sum())
    return best, best / n


def hellinger_distance(
    membership_a: PosteriorMembership, membership_b: PosteriorMembership
) -> float:
    """Mean per-node Hellinger distance after overlap alignment.

    B's block labels are aligned to A's by the permutation maximizing
    the total Bhattacharyya overlap sum_i sum_a sqrt(p[i, a] q[i, perm[a]]).
    A node's squared Hellinger distance is one minus its overlap, so
    this alignment exactly minimizes the mean *squared* per-node
    distance; the reported mean of unsquared distances is taken at that
    alignment.  Node sets are intersected when they differ (with a
    warning); an empty intersection is an error.
    """
    if membership_a.k != membership_b.k:
        raise UsageError("memberships must have the same number of blocks")
    ib = {n: i for i, n in enumerate(membership_b.node_ids)}
    common = [n for n in membership_a.node_ids if n in ib]
    if len(common) != len(membership_a.node_ids) or len(common) != len(
        membership_b.node_ids
    ):
        warnings.warn(
            f"node sets differ; using the intersection of {len(common)} nodes",
            stacklevel=2,
        )
    if not common:
        raise DataError("memberships share no nodes")
    ia = {n: i for i, n in enumerate(membership_a.node_ids)}
    p = membership_a.probs[[ia[n] for n in common]]
    q = membership_b.probs[[ib[n] for n in common]]
    q = q[:, best_relabeling(np.sqrt(p).T @ np.sqrt(q))]
    per_node = np.sqrt(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2, axis=1)) / math.sqrt(2.0)
    return float(per_node.mean())


class PowerlawFit(NamedTuple):
    block: Optional[int]  # None = global
    n_nodes: int
    deg1_fraction: float
    alpha_hat: float
    chi2: Optional[float]
    pvalue: Optional[float]
    tail_slope: Optional[float]
    skipped: bool
    note: str


def degree_law_pmf(max_d: int, alpha: float) -> np.ndarray:
    """Limiting degree fractions of a block's urn at degrees 1..max_d:
    p(k) = alpha * Gamma(k - alpha) / (Gamma(1 - alpha) * k!), computed
    by its ratio recurrence p(1) = alpha, p(k + 1) = p(k) (k - alpha) / (k + 1).

    Power-law tail with exponent 1 + alpha; the degree-one fraction is
    alpha itself, which is what the moment estimator below inverts.
    """
    ks = np.arange(1.0, max_d)
    return np.cumprod(np.r_[alpha, (ks - alpha) / (ks + 1.0)])


def _chi2_sf(dof: int, x: float) -> float:
    """Upper tail Q(dof/2, x/2) of the chi-square law with integer dof,
    as its finite series (Abramowitz & Stegun 1964, section 26.4):
    e^(-x/2) sum_{j < dof/2} (x/2)^j / j! for even dof, and
    erfc(sqrt(x/2)) + e^(-x/2) sum_{j < (dof-1)/2} (x/2)^(j+1/2) / Gamma(j+3/2)
    for odd dof.

    Each term is exponentiated from its logarithm, so the power and
    e^(-x/2) never under- or overflow on their own; math.fsum adds the
    terms with one rounding.
    """
    h = x / 2.0
    if h <= 0:  # x <= 0, or so small that x / 2 underflows
        return 1.0
    s = dof % 2 / 2  # the half-integer offset of odd dof
    log_h = math.log(h)
    terms = [math.erfc(math.sqrt(h))] if s else []
    terms += [math.exp((j + s) * log_h - h - math.lgamma(j + s + 1)) for j in range(dof // 2)]
    return math.fsum(terms)


def _fit_one(hist: np.ndarray, block: Optional[int]) -> PowerlawFit:
    """Fit of one degree histogram; hist[d] counts the nodes of degree d."""
    v = int(hist.sum())
    if v < _MIN_FIT_NODES:
        return PowerlawFit(
            block, v, float("nan"), float("nan"), None, None, None, True,
            f"only {v} nodes (< {_MIN_FIT_NODES}); skipped",
        )
    p1 = int(hist[1]) / v
    alpha_hat = p1
    alpha_fit = min(max(alpha_hat, 1e-6), 1.0 - 1e-6)

    # Goodness of fit combines a bulk chi-square (tail-binned so every
    # expected count is at least 5) with an exact tail probability for
    # the largest observed degree; the chi-square alone cannot see one
    # monstrous hub hiding in its final bin.
    max_d = int(np.flatnonzero(hist)[-1])
    pmf = degree_law_pmf(max_d, alpha_fit)
    # At least two bins ({1} and {>=2}) so the test never degenerates.
    cut = 2
    while cut < max_d and v * pmf[cut] >= 5.0:
        cut += 1
    obs = hist[1:cut].astype(float)
    obs = np.append(obs, v - obs.sum())  # tail bin: degree >= cut
    exp = v * pmf[: cut - 1]
    exp = np.append(exp, max(v - exp.sum(), _LOG_CLIP))
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    dof = max(len(obs) - 2, 1)
    p_bulk = _chi2_sf(dof, chi2)
    tail_mass = max(float(1.0 - pmf[: max_d - 1].sum()), _LOG_CLIP)
    p_max = float(1.0 - (1.0 - min(tail_mass, 1.0)) ** v)
    pvalue = min(1.0, 2.0 * min(p_bulk, p_max))

    slope = None
    pts = np.flatnonzero(hist >= 5)
    if len(pts) >= 3:
        slope = float(np.polyfit(np.log(pts), np.log(hist[pts] / v), 1)[0])
    return PowerlawFit(block, v, p1, alpha_hat, chi2, pvalue, slope, False, "")


def powerlaw_diagnostic(
    network: InteractionNetwork,
    assignment: Optional[BlockAssignment] = None,
) -> list[PowerlawFit]:
    """Degree-law fit for the whole network and, when labels are given,
    for each block-restricted network.

    The histograms are ``degree_distribution(network)`` and the rows of
    ``compute_stats(network, assignment).deg_hist``.  The discount
    estimate is the degree-one fraction (alpha_hat = p1, its limit under
    ``degree_law_pmf``); the chi-square compares the empirical histogram
    against the implied degree law; the tail slope is the log-log
    regression over degrees seen at least 5 times.  A histogram of
    fewer than 100 nodes is skipped.
    """
    results = [_fit_one(degree_distribution(network), None)]
    if assignment is not None:
        hists = compute_stats(network, assignment).deg_hist
        results += [_fit_one(h, b) for b, h in enumerate(hists)]
    return results


class SparsitySlope(NamedTuple):
    block: Optional[int]  # None = global
    slope: Optional[float]
    mu_hat: float
    sparse: bool
    v_counts: tuple[int, ...]


def sparsity_growth(
    network: InteractionNetwork,
    checkpoints: Sequence[int],
    assignment: Optional[BlockAssignment] = None,
) -> list[SparsitySlope]:
    """Least-squares slope of log(non-isolated nodes) against log(interactions).

    Checkpoints must be ascending, at least four, span two decades, and
    fit inside the network.  The growth exponent estimates the block's
    discount parameter; the block is flagged sparse when
    slope * mean-arity > 1.
    """
    cps = [int(c) for c in checkpoints]
    if len(cps) < 4:
        raise UsageError("need at least 4 checkpoints")
    if any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 1:
        raise UsageError("checkpoints must be strictly ascending and >= 1")
    if cps[-1] > network.m:
        raise UsageError(
            f"checkpoint {cps[-1]} exceeds the network size {network.m}"
        )
    if cps[-1] / cps[0] < 100:
        raise UsageError("checkpoints must span at least two decades")

    n = network.n_nodes
    groups: list[tuple[Optional[int], np.ndarray]] = [(None, np.ones(n, dtype=bool))]
    if assignment is not None:
        _check_assignment(network, assignment)
        groups += [(b, assignment.labels == b) for b in range(assignment.k)]

    # v_counts[g][j]: group g's nodes among the first cps[j] interactions,
    # marking each checkpoint's new interactions in one boolean array.
    offsets = network.offsets
    seen = np.zeros(n, dtype=bool)
    v_counts: list[list[int]] = [[] for _ in groups]
    prev = 0
    for c in cps:
        seen[network.senders[prev:c]] = True
        seen[network.receivers[offsets[prev] : offsets[c]]] = True
        prev = c
        for counts, (_, member) in zip(v_counts, groups):
            counts.append(int(np.count_nonzero(seen & member)))

    # Mean arity restricted to each group, over the final checkpoint prefix.
    m_pre = cps[-1]
    senders = network.senders[:m_pre]
    starts = offsets[:m_pre]
    receivers = network.receivers[: offsets[m_pre]]
    out = []
    for (block, member), counts in zip(groups, v_counts):
        sent = member[senders]
        received = member[receivers]
        containing = int(np.count_nonzero(sent | np.logical_or.reduceat(received, starts)))
        elements = int(np.count_nonzero(sent)) + int(np.count_nonzero(received))
        mu_hat = elements / containing if containing else 0.0

        pts = [(m, v) for m, v in zip(cps, counts) if v > 0]
        if len(pts) >= 2:
            slope = float(
                np.polyfit(np.log([m for m, _ in pts]), np.log([v for _, v in pts]), 1)[0]
            )
            sparse = slope * mu_hat > 1.0
        else:
            slope, sparse = None, False
        out.append(SparsitySlope(block, slope, mu_hat, sparse, tuple(counts)))
    return out
