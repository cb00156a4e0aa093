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
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DataError, NumericalError

__all__ = [
    "InteractionNetwork",
    "BlockAssignment",
    "ModelParams",
    "SufficientStats",
    "compute_stats",
    "counterparty_counts",
    "degree_distribution",
    "best_relabeling",
]


def _record_problem(sender, receivers) -> Optional[str]:
    """Why ``InteractionNetwork.from_records`` rejects a record, or None.

    Receivers come as a list or tuple (a string would split into its
    characters); identifiers are non-empty strings or integers (not
    bool, although it subclasses int).
    """
    if not isinstance(receivers, (list, tuple)):
        return f"receivers must be a list or tuple, got {receivers!r}"
    for role, ident in [("sender", sender)] + [("receiver", r) for r in receivers]:
        if ident is None or (isinstance(ident, str) and not ident):
            return f"missing {role}"
        if not isinstance(ident, (str, int)) or isinstance(ident, bool):
            return f"{role} must be a string or an integer, got {ident!r}"
    return None if receivers else "empty receiver list"


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Interactions that records() converts to Python objects at a time.
RECORD_CHUNK = 4096


class InteractionNetwork:
    """Ordered sequence of interactions over a dense node index space.

    Stored as CSR (compressed sparse row) arrays: interaction j has
    sender ``senders[j]`` and receivers
    ``receivers[offsets[j]:offsets[j + 1]]`` (a multiset, in drawn
    order).  The arrays are read-only so the cached ``degrees()`` and
    ``pairs()`` stay valid.  Builders collect the arrays in growable
    ``array("q")`` buffers and hand them over through ``from_buffers``.
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
    def from_buffers(
        cls, senders: array, offsets: array, receivers: array, node_ids: list[str]
    ) -> "InteractionNetwork":
        """Network that takes over three ``array("q")`` buffers.

        Each buffer is copied to an exact-size array and then emptied,
        which frees it, before the next is copied: the buffers'
        over-allocation does not stay in the network, and the hand-over
        holds at most one buffer twice.
        """
        arrays = []
        for buf in (senders, offsets, receivers):
            arrays.append(np.array(buf, dtype=np.int64))
            del buf[:]
        return cls(*arrays, node_ids)

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[str, Sequence[str]]], where=None
    ) -> "InteractionNetwork":
        """Network from (sender, receivers) records, receivers a list or
        tuple; node indices follow order of first appearance.

        Identifiers are non-empty strings or integers; an integer is
        named by its decimal string.  A rejected record raises DataError
        naming ``where(pos)`` for its 1-based position pos, by default
        "interaction pos".
        """
        index: dict[str, int] = {}
        senders = array("q")
        offsets = array("q", [0])
        receivers = array("q")
        for pos, (sender, rs) in enumerate(records, start=1):
            # The quick test passes records of non-empty strings only:
            # join raises TypeError unless every receiver is a string.
            try:
                quick = (
                    type(sender) is str and sender and type(rs) is list and rs
                    and "".join(rs) and "" not in rs
                )
            except TypeError:
                quick = False
            if not quick and (problem := _record_problem(sender, rs)):
                at = where(pos) if where else f"interaction {pos}"
                raise DataError(f"{at}: {problem}")
            senders.append(index.setdefault(str(sender), len(index)))
            for r in rs:
                receivers.append(index.setdefault(str(r), len(index)))
            offsets.append(len(receivers))
        return cls.from_buffers(senders, offsets, receivers, list(index))

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
        """(sender, receivers) by original name, in interaction order.

        The arrays become Python objects RECORD_CHUNK interactions at a
        time, so drawing the first m records costs O(m).
        """
        ids = self.node_ids
        for start in range(0, self.m, RECORD_CHUNK):
            senders = self.senders[start : start + RECORD_CHUNK].tolist()
            offsets = self.offsets[start : start + RECORD_CHUNK + 1]
            receivers = self.receivers[offsets[0] : offsets[-1]].tolist()
            offsets = (offsets - offsets[0]).tolist()
            for s, a, b in zip(senders, offsets, offsets[1:]):
                yield ids[s], [ids[r] for r in receivers[a:b]]

    def prefix(self, m: int) -> "InteractionNetwork":
        """Network of the first m interactions, node table compacted;
        O(m), whatever the length of the network."""
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

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.alpha.shape != self.theta.shape or self.alpha.ndim != 1 or not self.alpha.size:
            raise DataError("alpha and theta must be non-empty 1-d arrays of equal length")
        # Each check holds only for numbers in range, so NaN fails it.
        if not np.all((self.alpha > 0) & (self.alpha < 1)):
            raise DataError(f"alpha entries must lie in (0,1), got {self.alpha}", "alpha")
        if not np.all(self.theta > -self.alpha):
            raise DataError("theta entries must exceed -alpha", "theta")
        for name in ("block_conc", "recv_conc"):
            if not getattr(self, name) > 0:
                raise DataError("concentrations must be positive", name)
        if self.block_probs is not None:
            self.block_probs = np.asarray(self.block_probs, dtype=float)
            if self.block_probs.shape != (self.k,):
                raise DataError("block_probs must have one entry per block", "block_probs")
            if not (abs(self.block_probs.sum() - 1.0) <= 1e-9 and np.all(self.block_probs >= 0)):
                raise DataError("block_probs must lie on the simplex", "block_probs")
            self.block_probs = self.block_probs / self.block_probs.sum()
        if self.propensity is not None:
            self.propensity = np.asarray(self.propensity, dtype=float)
            if self.propensity.shape != (self.k, self.k):
                raise DataError("propensity must be a k x k matrix", "propensity")
            rows = self.propensity.sum(axis=1)
            if not (np.all(np.abs(rows - 1.0) <= 1e-9) and np.all(self.propensity >= 0)):
                raise DataError("propensity rows must lie on the simplex", "propensity")
            self.propensity = self.propensity / rows[:, None]

    @property
    def k(self) -> int:
        return len(self.alpha)


@dataclass
class SufficientStats:
    """All count statistics of a (network, assignment) pair.

    initiations[b] is the number of interactions whose sender lies in
    block b.  pair[b, b'] counts (sender-block b, receiver-block b')
    slots.  deg_hist[b, d] is the number of block-b nodes of degree d,
    where a node's degree counts every appearance (sender or receiver)
    with multiplicity; its shape is (k, D + 1) for the maximum degree D,
    and column 0 is 0, so isolated nodes belong to no block.
    block_sizes and block_deg are the node count and total degree per
    block, the row sums of deg_hist.
    """

    m: int
    initiations: np.ndarray
    pair: np.ndarray
    deg_hist: np.ndarray
    block_sizes: np.ndarray
    block_deg: np.ndarray


def _check_assignment(network: InteractionNetwork, assignment: BlockAssignment) -> None:
    """DataError unless the labels cover the network, one per node."""
    n = len(assignment.labels)
    if n < network.n_nodes:
        raise DataError(f"node {network.node_ids[n]!r} has no block assignment")
    if n > network.n_nodes:
        raise DataError(f"assignment covers {n} nodes but the network has {network.n_nodes}")


def compute_stats(
    network: InteractionNetwork, assignment: BlockAssignment
) -> SufficientStats:
    """Aggregate every count the likelihood and sampler need.

    Pure function of its inputs; interaction order does not affect any
    field.  The per-block degree histogram is one bincount over
    (label, degree) cells.
    """
    _check_assignment(network, assignment)
    k = assignment.k
    labels = assignment.labels
    deg = network.degrees()
    width = int(deg.max(initial=0)) + 1
    deg_hist = np.bincount(labels * width + deg, minlength=k * width).reshape(k, width)
    deg_hist[:, 0] = 0
    s_pair, r_pair = network.pairs()
    pair = np.bincount(labels[s_pair] * k + labels[r_pair], minlength=k * k)
    return SufficientStats(
        m=network.m,
        initiations=np.bincount(labels[network.senders], minlength=k),
        pair=pair.reshape(k, k),
        deg_hist=deg_hist,
        block_sizes=deg_hist.sum(axis=1),
        block_deg=deg_hist @ np.arange(width),
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


def degree_distribution(network: InteractionNetwork) -> np.ndarray:
    """Number of nodes of each degree: entry d counts the nodes of
    degree d, from 0 up to the maximum degree; entry 0 is 0, since
    isolated nodes are not counted."""
    hist = np.bincount(network.degrees(), minlength=1)
    hist[0] = 0
    return hist


def best_relabeling(gain: np.ndarray) -> np.ndarray:
    """Label map maximizing sum_a gain[a, perm[a]] over all permutations.

    Exact at every k: the Hungarian method (Kuhn 1955) on the k x k
    matrix, as k shortest augmenting paths with row and column
    potentials, O(k^3).  Every label-invariant score aligns labelings
    through this one routine.  Gains that are not finite, or so large
    that (2k + 1) max|gain| overflows, raise NumericalError.
    """
    cost = -np.asarray(gain, dtype=float)
    k = cost.shape[0]
    # Potentials and reduced costs stay within (2k + 1) max|gain|.  A NaN,
    # an infinity or an overflow there would keep the augmenting loop
    # from ending.
    if not math.isfinite(float(np.abs(cost).max(initial=0.0)) * (2 * k + 1)):
        raise NumericalError("label alignment needs finite gains")
    cost = cost.tolist()
    # Index 0 is a virtual column: the root of each augmenting path.
    u = [0.0] * (k + 1)  # row potentials
    v = [0.0] * (k + 1)  # column potentials
    row_of = [0] * (k + 1)  # row_of[j]: 1-based row matched to column j, 0 if free
    way = [0] * (k + 1)  # previous column on the shortest path to column j
    for i in range(1, k + 1):
        row_of[0] = i
        j0 = 0
        minv = [math.inf] * (k + 1)
        used = [False] * (k + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            row = cost[i0 - 1]
            delta, j1 = math.inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(k + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:  # augment along the path back to the root
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    perm = np.empty(k, dtype=np.int64)
    perm[np.array(row_of[1:], dtype=np.int64) - 1] = np.arange(k)
    return perm
