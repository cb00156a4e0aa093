"""Evaluation metrics: recovery distances, block-stability distance, and
degree-law diagnostics.

All label-dependent scores minimize over (or greedily resolve) block
label permutations, since labels are only identified up to relabeling.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import stats as sp_stats
from scipy.special import gammaln

from .core import (
    BlockAssignment,
    InteractionNetwork,
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


@dataclass
class PosteriorMembership:
    """Per-node posterior block frequencies (rows sum to one)."""

    node_ids: list[str]
    probs: np.ndarray  # (n_nodes, k)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        rows = self.probs.sum(axis=1)
        if self.probs.shape[0] and np.any(np.abs(rows - 1.0) > 1e-9):
            raise DataError("membership rows must sum to 1")

    @property
    def k(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def from_chain(cls, chain) -> "PosteriorMembership":
        post = chain.post_assignments()
        probs = np.stack(
            [(post == b).mean(axis=0) for b in range(chain.k)], axis=1
        )
        return cls(list(chain.node_ids), probs)

    @classmethod
    def from_labels(
        cls, node_ids: list[str], labels: np.ndarray, k: int
    ) -> "PosteriorMembership":
        probs = np.zeros((len(labels), k))
        probs[np.arange(len(labels)), labels] = 1.0
        return cls(list(node_ids), probs)


def _membership(chain_or_membership) -> PosteriorMembership:
    if isinstance(chain_or_membership, PosteriorMembership):
        return chain_or_membership
    return PosteriorMembership.from_chain(chain_or_membership)


def standardized_l2(chain_or_membership, truth: BlockAssignment) -> float:
    """Root-mean-square distance between truth and mean membership (two blocks).

    The norm is evaluated against the labeling and its conjugate and
    the smaller value returned, so chains that locked onto the mirrored
    labeling score identically: 0 for a point-mass-correct posterior up
    to the flip, 0.5 when every membership sits at 1/2.
    """
    mem = _membership(chain_or_membership)
    if mem.k != 2 or truth.k != 2:
        raise UsageError("standardized_l2 is defined for k = 2; use cross_entropy_loss")
    if mem.probs.shape[0] != len(truth.labels):
        raise UsageError("membership and truth cover different node sets")
    p = mem.probs[:, 1]
    t = (truth.labels == 1).astype(float)
    v = len(t)
    direct = np.linalg.norm(t - p)
    flipped = np.linalg.norm(t - (1.0 - p))
    return float(min(direct, flipped) / math.sqrt(v))


def _greedy_size_perm(sizes_ref: np.ndarray, sizes_other: np.ndarray) -> np.ndarray:
    """Match blocks by size rank; perm[ref_label] = other_label."""
    k = len(sizes_ref)
    order_ref = np.argsort(-sizes_ref, kind="stable")
    order_other = np.argsort(-sizes_other, kind="stable")
    perm = np.empty(k, dtype=np.int64)
    perm[order_ref] = order_other
    return perm


def cross_entropy_loss(
    chain_or_membership, truth: BlockAssignment
) -> tuple[float, float]:
    """(total, per-node) cross entropy of mean membership against the truth.

    Membership frequencies are clipped below at 1e-12 before the log.
    Exact permutation minimum up to k = 8, greedy size matching beyond.
    """
    mem = _membership(chain_or_membership)
    k = max(mem.k, truth.k)
    if mem.probs.shape[0] != len(truth.labels):
        raise UsageError("membership and truth cover different node sets")
    q = np.clip(mem.probs, _LOG_CLIP, None)
    logq = np.log(q)
    n = len(truth.labels)
    idx = np.arange(n)
    if k <= 8:
        best = math.inf
        for perm in itertools.permutations(range(mem.k)):
            p = np.asarray(perm)
            loss = float(-logq[idx, p[truth.labels]].sum())
            best = min(best, loss)
    else:
        sizes_truth = np.bincount(truth.labels, minlength=k).astype(float)
        sizes_mem = mem.probs.sum(axis=0)
        perm = _greedy_size_perm(sizes_truth, sizes_mem)
        best = float(-logq[idx, perm[truth.labels]].sum())
    return best, best / n


def hellinger_distance(
    membership_a: PosteriorMembership, membership_b: PosteriorMembership
) -> float:
    """Mean per-node Hellinger distance after greedy size alignment.

    B's block labels are aligned to A's by matching blocks in
    decreasing size order.  Node sets are intersected when they differ
    (with a warning); an empty intersection is an error.
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
    perm = _greedy_size_perm(p.sum(axis=0), q.sum(axis=0))
    q = q[:, perm]
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


def degree_law_pmf(ks: np.ndarray, alpha: float) -> np.ndarray:
    """Limiting degree fractions of a block's urn:
    p(k) = alpha * Gamma(k - alpha) / (Gamma(1 - alpha) * k!), k >= 1.

    Power-law tail with exponent 1 + alpha; the degree-one fraction is
    alpha itself, which is what the moment estimator below inverts.
    """
    ks = np.asarray(ks, dtype=float)
    return alpha * np.exp(
        gammaln(ks - alpha) - gammaln(1.0 - alpha) - gammaln(ks + 1.0)
    )


def _fit_one(hist: dict[int, int], block: Optional[int], min_nodes: int) -> PowerlawFit:
    v = sum(hist.values())
    if v < min_nodes:
        return PowerlawFit(
            block, v, float("nan"), float("nan"), None, None, None, True,
            f"only {v} nodes (< {min_nodes}); skipped",
        )
    p1 = hist.get(1, 0) / v
    alpha_hat = p1
    alpha_fit = min(max(alpha_hat, 1e-6), 1.0 - 1e-6)

    # Goodness of fit combines a bulk chi-square (tail-binned so every
    # expected count is at least 5) with an exact tail probability for
    # the largest observed degree; the chi-square alone cannot see one
    # monstrous hub hiding in its final bin.
    max_d = max(hist)
    ks = np.arange(1, max_d + 1)
    pmf = degree_law_pmf(ks, alpha_fit)
    # At least two bins ({1} and {>=2}) so the test never degenerates.
    cut = 2
    while cut < max_d and v * pmf[cut] >= 5.0:
        cut += 1
    obs = np.array([hist.get(int(d), 0) for d in range(1, cut)], dtype=float)
    obs = np.append(obs, v - obs.sum())  # tail bin: degree >= cut
    exp = v * pmf[: cut - 1]
    exp = np.append(exp, max(v - exp.sum(), _LOG_CLIP))
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    dof = max(len(obs) - 2, 1)
    p_bulk = float(sp_stats.chi2.sf(chi2, dof))
    tail_mass = max(float(1.0 - pmf[: max_d - 1].sum()), _LOG_CLIP)
    p_max = float(1.0 - (1.0 - min(tail_mass, 1.0)) ** v)
    pvalue = min(1.0, 2.0 * min(p_bulk, p_max))

    slope = None
    pts = [(d, c) for d, c in hist.items() if c >= 5]
    if len(pts) >= 3:
        xs = np.log([d for d, _ in pts])
        ys = np.log([c / v for _, c in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return PowerlawFit(block, v, p1, alpha_hat, chi2, pvalue, slope, False, "")


def powerlaw_diagnostic(
    network: InteractionNetwork,
    assignment: Optional[BlockAssignment] = None,
    min_nodes: int = 100,
) -> list[PowerlawFit]:
    """Degree-law fit for the whole network and, when labels are given,
    for each block-restricted network.

    The discount estimate is the degree-one fraction (alpha_hat = p1,
    its limit under ``degree_law_pmf``); the chi-square compares the
    empirical histogram against the implied degree law; the tail slope
    is the log-log regression over degrees seen at least 5 times.
    """
    results = [_fit_one(dict(degree_distribution(network)), None, min_nodes)]
    if assignment is not None:
        hists = compute_stats(network, assignment).deg_hist_by_block
        results += [_fit_one(dict(h), b, min_nodes) for b, h in enumerate(hists)]
    return results


class SparsitySlope(NamedTuple):
    block: Optional[int]  # None = global
    slope: Optional[float]
    mu_hat: float
    sparse: bool
    checkpoints: tuple[int, ...]
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
    positions = np.arange(1, network.m + 1)
    arity = np.diff(network.offsets)
    first_seen = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_seen, network.senders, positions)
    np.minimum.at(first_seen, network.receivers, np.repeat(positions, arity))

    groups: list[tuple[Optional[int], np.ndarray]] = [(None, np.arange(n))]
    if assignment is not None:
        groups += [
            (b, np.nonzero(assignment.labels == b)[0]) for b in range(assignment.k)
        ]

    # Mean arity restricted to each group, over the final checkpoint prefix.
    m_pre = cps[-1]
    senders = network.senders[:m_pre]
    starts = network.offsets[:m_pre]
    receivers = network.receivers[: network.offsets[m_pre]]
    out = []
    for block, idx in groups:
        member = np.zeros(n, dtype=np.int64)
        member[idx] = 1
        per_interaction = member[senders] + np.add.reduceat(member[receivers], starts)
        containing = int(np.count_nonzero(per_interaction))
        elements = int(per_interaction.sum())
        mu_hat = elements / containing if containing else 0.0

        fs = np.sort(first_seen[idx])
        v_counts = tuple(int(np.searchsorted(fs, c, side="right")) for c in cps)
        pts = [(m, v) for m, v in zip(cps, v_counts) if v > 0]
        if len(pts) >= 2:
            slope = float(
                np.polyfit(np.log([m for m, _ in pts]), np.log([v for _, v in pts]), 1)[0]
            )
            sparse = slope * mu_hat > 1.0
        else:
            slope, sparse = None, False
        out.append(SparsitySlope(block, slope, mu_hat, sparse, tuple(cps), v_counts))
    return out
