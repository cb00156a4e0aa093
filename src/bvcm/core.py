"""Domain types and count statistics for block-structured interaction data.

An interaction is one post: a sender plus a non-empty multiset of
receivers.  A network is an ordered sequence of interactions over an
opaque string identifier space; identifiers are mapped to dense integer
indices on ingestion and the mapping is kept so outputs can use the
original names.  Block labels are 0-based integers in code and 1-based
in all file formats.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DataError, NumericalError

__all__ = [
    "InteractionNetwork",
    "BlockAssignment",
    "ModelParams",
    "SufficientStats",
    "log_ascending_factorial",
    "compute_stats",
    "counterparty_counts",
    "degree_distribution",
]

# Direct product is exact and cheap for short factorials; above this the
# log-gamma form avoids O(n) work.
_DIRECT_PRODUCT_LIMIT = 64


def log_ascending_factorial(x: float, step: float, n: int) -> float:
    """log of x(x+step)(x+2*step)...(x+(n-1)*step); 0.0 when n == 0.

    All factors must be strictly positive, otherwise a NumericalError
    names the first offending factor index.
    """
    if n < 0:
        raise NumericalError(f"ascending factorial needs n >= 0, got {n}")
    if n == 0:
        return 0.0
    if n <= _DIRECT_PRODUCT_LIMIT or step <= 0:
        total = 0.0
        for k in range(n):
            f = x + k * step
            if f <= 0.0:
                raise NumericalError(
                    f"ascending factorial factor x + k*step = {f} <= 0 at k={k} "
                    f"(x={x}, step={step}, n={n})"
                )
            total += math.log(f)
        return total
    if x <= 0.0:
        raise NumericalError(
            f"ascending factorial factor x + k*step = {x} <= 0 at k=0 "
            f"(x={x}, step={step}, n={n})"
        )
    # step > 0: [x]_step^n = step^n * Gamma(x/step + n) / Gamma(x/step)
    r = x / step
    return n * math.log(step) + math.lgamma(r + n) - math.lgamma(r)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class InteractionNetwork:
    """Ordered sequence of interactions over a dense node index space.

    Stored as CSR (compressed sparse row) arrays: interaction j has
    sender ``senders[j]`` and receivers
    ``receivers[offsets[j]:offsets[j + 1]]`` (a multiset, in drawn
    order).  The arrays are read-only so the cached ``degrees()`` and
    ``pairs()`` stay valid.
    """

    def __init__(self, senders, offsets, receivers, node_ids: list[str]):
        self.senders = _readonly(np.asarray(senders, dtype=np.int64))
        self.offsets = _readonly(np.asarray(offsets, dtype=np.int64))
        self.receivers = _readonly(np.asarray(receivers, dtype=np.int64))
        self.node_ids = node_ids
        self._index: Optional[dict[str, int]] = None
        self._degrees: Optional[np.ndarray] = None
        self._pairs: Optional[tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[str, Sequence[str]]]
    ) -> "InteractionNetwork":
        """Network from (sender, receivers) name records; node indices
        follow order of first appearance."""
        index: dict[str, int] = {}
        senders: list[int] = []
        offsets = [0]
        receivers: list[int] = []
        for pos, (sender, rs) in enumerate(records, start=1):
            if sender is None or sender == "":
                raise DataError(f"interaction {pos}: missing sender")
            if not rs:
                raise DataError(f"interaction {pos}: empty receiver list")
            senders.append(index.setdefault(str(sender), len(index)))
            receivers.extend(index.setdefault(str(r), len(index)) for r in rs)
            offsets.append(len(receivers))
        return cls(senders, offsets, receivers, list(index))

    @property
    def m(self) -> int:
        return len(self.senders)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def node_index(self, name: str) -> int:
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self.node_ids)}
        try:
            return self._index[name]
        except KeyError:
            raise DataError(f"unknown node identifier {name!r}") from None

    def degrees(self) -> np.ndarray:
        """Appearances of each node as sender or receiver, with multiplicity."""
        if self._degrees is None:
            n = self.n_nodes
            self._degrees = _readonly(
                np.bincount(self.senders, minlength=n)
                + np.bincount(self.receivers, minlength=n)
            )
        return self._degrees

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(sender, receiver) index arrays, one entry per receiver slot."""
        if self._pairs is None:
            arity = np.diff(self.offsets)
            self._pairs = (_readonly(np.repeat(self.senders, arity)), self.receivers)
        return self._pairs

    def records(self) -> Iterator[tuple[str, list[str]]]:
        ids = self.node_ids
        offsets = self.offsets.tolist()
        receivers = self.receivers.tolist()
        for j, s in enumerate(self.senders.tolist()):
            yield ids[s], [ids[r] for r in receivers[offsets[j] : offsets[j + 1]]]

    def prefix(self, m: int) -> "InteractionNetwork":
        """Network of the first m interactions, node table compacted."""
        return InteractionNetwork.from_records(itertools.islice(self.records(), m))

    def __len__(self) -> int:
        return self.m

    def __repr__(self) -> str:
        return f"InteractionNetwork(m={self.m}, n_nodes={self.n_nodes})"


@dataclass
class BlockAssignment:
    """Block label per node index; labels are 0-based, k is the label count."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.k <= 0:
            raise DataError(f"number of blocks must be positive, got {self.k}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            bad = int(np.argmax((self.labels < 0) | (self.labels >= self.k)))
            raise DataError(
                f"label {self.labels[bad]} at node index {bad} outside [0, {self.k})"
            )

    @classmethod
    def from_mapping(
        cls, network: InteractionNetwork, mapping: dict[str, int], k: int
    ) -> "BlockAssignment":
        """Build from a node-id -> 1-based block mapping."""
        labels = np.empty(network.n_nodes, dtype=np.int64)
        for i, name in enumerate(network.node_ids):
            if name not in mapping:
                raise DataError(f"node {name!r} has no block assignment")
            labels[i] = mapping[name] - 1
        return cls(labels, k)

    def to_mapping(self, network: InteractionNetwork) -> dict[str, int]:
        """Node-id -> 1-based block mapping, using the original identifiers."""
        return {
            name: int(self.labels[i]) + 1 for i, name in enumerate(network.node_ids)
        }


@dataclass
class ModelParams:
    """Model parameters.

    alpha/theta are the per-block Pitman-Yor discount and strength;
    block_conc is the concentration of the sender-block urn and
    recv_conc the concentration of each receiver-block urn.  block_probs
    and propensity, when set, fix the block-frequency vector and the
    row-stochastic mixing matrix used by the conditional-iid generator
    (otherwise they are drawn from the matching symmetric Dirichlets).
    """

    alpha: np.ndarray
    theta: np.ndarray
    block_conc: float
    recv_conc: float
    block_probs: Optional[np.ndarray] = None
    propensity: Optional[np.ndarray] = None

    _SIMPLEX_TOL = 1e-12

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.alpha.shape != self.theta.shape or self.alpha.ndim != 1:
            raise DataError("alpha and theta must be 1-d arrays of equal length")
        if np.any(self.alpha <= 0) or np.any(self.alpha >= 1):
            raise DataError(f"alpha entries must lie in (0,1), got {self.alpha}")
        if np.any(self.theta <= -self.alpha):
            raise DataError("theta entries must exceed -alpha")
        if self.block_conc <= 0 or self.recv_conc <= 0:
            raise DataError("concentrations must be positive")
        if self.block_probs is not None:
            self.block_probs = np.asarray(self.block_probs, dtype=float)
            if self.block_probs.shape != (self.k,):
                raise DataError("block_probs must have one entry per block")
            if abs(self.block_probs.sum() - 1.0) > 1e-9 or np.any(self.block_probs < 0):
                raise DataError("block_probs must lie on the simplex")
            self.block_probs = self.block_probs / self.block_probs.sum()
        if self.propensity is not None:
            self.propensity = np.asarray(self.propensity, dtype=float)
            if self.propensity.shape != (self.k, self.k):
                raise DataError("propensity must be a k x k matrix")
            rows = self.propensity.sum(axis=1)
            if np.any(np.abs(rows - 1.0) > 1e-9) or np.any(self.propensity < 0):
                raise DataError("propensity rows must lie on the simplex")
            self.propensity = self.propensity / rows[:, None]

    @property
    def k(self) -> int:
        return len(self.alpha)


@dataclass
class SufficientStats:
    """All count statistics of a (network, assignment) pair.

    deg counts every appearance of a node (sender or receiver) with
    multiplicity.  initiations[b] is the number of interactions whose
    sender lies in block b.  pair[b, b'] counts (sender-block b,
    receiver-block b') slots.  block_sizes and block_deg are the
    non-isolated node count and total degree per block, and
    deg_hist_by_block[b][d] is the number of block-b nodes of degree d.
    """

    m: int
    deg: np.ndarray
    initiations: np.ndarray
    pair: np.ndarray
    block_sizes: np.ndarray
    block_deg: np.ndarray
    deg_hist_by_block: list[Counter] = field(default_factory=list)

    @property
    def total_receivers(self) -> int:
        return int(self.pair.sum())


def _check_assignment(network: InteractionNetwork, assignment: BlockAssignment) -> None:
    if len(assignment.labels) != network.n_nodes:
        if len(assignment.labels) < network.n_nodes:
            missing = network.node_ids[len(assignment.labels)]
            raise DataError(f"node {missing!r} has no block assignment")
        raise DataError(
            f"assignment covers {len(assignment.labels)} nodes but the network "
            f"has {network.n_nodes}"
        )


def _degree_hist(deg: np.ndarray) -> Counter:
    """Map degree -> count over the non-zero entries, keyed in order of
    first occurrence (the order a per-node loop would insert them)."""
    deg = deg[deg > 0]
    values, first, counts = np.unique(deg, return_index=True, return_counts=True)
    order = np.argsort(first)
    return Counter(dict(zip(values[order].tolist(), counts[order].tolist())))


def compute_stats(
    network: InteractionNetwork, assignment: BlockAssignment
) -> SufficientStats:
    """Aggregate every count the likelihood and sampler need.

    Pure function of its inputs; interaction order does not affect any
    field.
    """
    _check_assignment(network, assignment)
    k = assignment.k
    labels = assignment.labels
    deg = network.degrees()
    s_pair, r_pair = network.pairs()
    pair = np.bincount(labels[s_pair] * k + labels[r_pair], minlength=k * k)
    block_deg = np.zeros(k, dtype=np.int64)
    np.add.at(block_deg, labels, deg)
    return SufficientStats(
        m=network.m,
        deg=deg,
        initiations=np.bincount(labels[network.senders], minlength=k),
        pair=pair.reshape(k, k),
        block_sizes=np.bincount(labels[deg > 0], minlength=k),
        block_deg=block_deg,
        deg_hist_by_block=[_degree_hist(deg[labels == b]) for b in range(k)],
    )


def counterparty_counts(
    network: InteractionNetwork, labels: np.ndarray, k: int
) -> np.ndarray:
    """counts[i, b]: i's sender<->receiver counterparties with label b,
    with multiplicity (a self pair counts twice for its node)."""
    s_pair, r_pair = network.pairs()
    size = network.n_nodes * k
    counts = np.bincount(s_pair * k + labels[r_pair], minlength=size)
    counts += np.bincount(r_pair * k + labels[s_pair], minlength=size)
    return counts.reshape(network.n_nodes, k)


def degree_distribution(network: InteractionNetwork) -> Counter:
    """Map degree -> number of nodes with that degree (non-isolated only)."""
    return _degree_hist(network.degrees())
