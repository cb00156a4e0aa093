"""Reference computations for the benchmark's output checks.

Written apart from ``bvcm``: nothing here imports the package. Every
value is computed by a route other than the program's own (gammaln
closed forms instead of ascending-factorial loops, confusion matrices
and brute force over all k! label permutations instead of per-node
scans), so a check that compares the two compares two implementations.
Block labels are 0-based here; the CLI's files use 1-based labels.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

LOG_CLIP = 1e-12  # the floor cross-entropy applies before the log


@dataclass
class Network:
    """Interactions in columnar form; node indices in first-appearance order."""

    node_ids: list[str]
    senders: np.ndarray  # (m,)
    offsets: np.ndarray  # (m + 1,) into receivers
    receivers: np.ndarray  # (R,)

    @property
    def m(self) -> int:
        return len(self.senders)

    @property
    def n(self) -> int:
        return len(self.node_ids)

    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_ids)}

    def slot_senders(self) -> np.ndarray:
        """Sender of each receiver slot."""
        return np.repeat(self.senders, np.diff(self.offsets))


def parse_records(records) -> Network:
    """Network from (sender, [receivers]) pairs of node names."""
    index: dict[str, int] = {}
    senders, receivers, offsets = [], [], [0]
    for sender, recv in records:
        senders.append(index.setdefault(sender, len(index)))
        receivers.extend(index.setdefault(r, len(index)) for r in recv)
        offsets.append(len(receivers))
    return Network(
        list(index),
        np.asarray(senders, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
        np.asarray(receivers, dtype=np.int64),
    )


def read_jsonl(path) -> tuple[Network, list[str]]:
    """Parse an interactions file; also return one message per malformed line."""
    problems: list[str] = []
    records = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            obj = json.loads(line)
            sender, recv = obj.get("sender"), obj.get("receivers")
            if not isinstance(sender, str) or not sender:
                problems.append(f"line {ln}: sender {sender!r}")
            if not isinstance(recv, list) or not recv or not all(
                isinstance(r, str) and r for r in recv
            ):
                problems.append(f"line {ln}: receivers {recv!r}")
                continue
            records.append((str(sender), recv))
    return parse_records(records), problems


# ------------------------------------------------------------ degree counts


def degrees(net: Network) -> np.ndarray:
    """Appearances of each node, as sender or receiver, with multiplicity."""
    return np.bincount(np.concatenate([net.senders, net.receivers]), minlength=net.n)


def degree_histogram(deg: np.ndarray) -> dict[int, int]:
    """degree -> number of nodes with that degree, over nodes that appear."""
    values, counts = np.unique(deg[deg > 0], return_counts=True)
    return {int(d): int(c) for d, c in zip(values, counts)}


def first_appearance(net: Network) -> np.ndarray:
    """1-based position of the first interaction each node takes part in."""
    pos = np.concatenate(
        [np.arange(1, net.m + 1), np.repeat(np.arange(1, net.m + 1), np.diff(net.offsets))]
    )
    nodes = np.concatenate([net.senders, net.receivers])
    first = np.full(net.n, net.m + 1, dtype=np.int64)
    np.minimum.at(first, nodes, pos)
    return first


def growth_counts(first: np.ndarray, checkpoints, members=None) -> list[int]:
    """Nodes seen within the first c interactions, for each checkpoint c."""
    sel = first if members is None else first[members]
    return [int((sel <= c).sum()) for c in checkpoints]


# -------------------------------------------------- collapsed log-probability


def collapsed_log_prob(
    net: Network, labels: np.ndarray, k: int, omega: float, zeta: float, alpha, theta
) -> float:
    """log P(network, labels | alpha, theta) with every urn integrated out.

    Sum of a Dirichlet-multinomial term for the sender blocks, one per
    sender block for the receiver blocks, and one Pitman-Yor EPPF per
    block, each written with gammaln:
      sender:   lnG(k w) - lnG(k w + m) + sum_b [lnG(w + L_b) - lnG(w)]
      receiver: sum_b [R_b > 0] (lnG(k z) - lnG(k z + R_b)
                                 + sum_b' [lnG(z + C_bb') - lnG(z)])
      EPPF_b:   (V-1) ln a + lnG(t/a + V) - lnG(t/a + 1)
                - lnG(t + M) + lnG(t + 1)
                + sum_{i in b} [lnG(d_i - a) - lnG(1 - a)]
    """
    labels = np.asarray(labels, dtype=np.int64)
    init = np.bincount(labels[net.senders], minlength=k)
    out = gammaln(k * omega) - gammaln(k * omega + net.m)
    out += float(np.sum(gammaln(omega + init) - gammaln(omega)))

    pair = np.bincount(
        labels[net.slot_senders()] * k + labels[net.receivers], minlength=k * k
    ).reshape(k, k)
    for b in range(k):
        r_b = int(pair[b].sum())
        if r_b:
            out += gammaln(k * zeta) - gammaln(k * zeta + r_b)
            out += float(np.sum(gammaln(zeta + pair[b]) - gammaln(zeta)))

    deg = degrees(net)
    for b in range(k):
        d = deg[(labels == b) & (deg > 0)]
        v = len(d)
        if v == 0:
            continue
        a, t = float(alpha[b]), float(theta[b])
        out += (v - 1) * math.log(a) + gammaln(t / a + v) - gammaln(t / a + 1.0)
        out -= gammaln(t + d.sum()) - gammaln(t + 1.0)
        out += float(np.sum(gammaln(d - a) - gammaln(1.0 - a)))
    return float(out)


# ------------------------------------------------------------ chain summaries


def membership(assignments: np.ndarray, burn_in: int, k: int) -> np.ndarray:
    """Per-node post-burn-in label frequencies, shape (n, k)."""
    post = assignments[burn_in:]
    return np.stack([(post == b).mean(axis=0) for b in range(k)], axis=1)


def majority(assignments: np.ndarray, burn_in: int, k: int) -> np.ndarray:
    """Most frequent post-burn-in label per node, ties to the lowest label."""
    post = assignments[burn_in:]
    return np.stack([(post == b).sum(axis=0) for b in range(k)]).argmax(axis=0)


# ---------------------------------------- brute force over label permutations


def _best_permutation_sum(cost: np.ndarray, pick) -> float:
    """pick over all permutations p of sum_t cost[t, p[t]]."""
    k = cost.shape[0]
    rows = np.arange(k)
    return pick(float(cost[rows, list(p)].sum()) for p in itertools.permutations(range(k)))


def l2_distance(freq: np.ndarray, truth: np.ndarray) -> float:
    """Two blocks: min over both labelings p of ||1{truth = 1} - freq[:, p[1]]|| / sqrt(n),
    where p maps truth labels to membership columns."""
    target = (truth == 1).astype(float)
    best = min(
        float(np.linalg.norm(target - freq[:, p[1]]))
        for p in itertools.permutations(range(2))
    )
    return best / math.sqrt(len(truth))


def cross_entropy(freq: np.ndarray, truth: np.ndarray, k: int) -> tuple[float, float]:
    """(total, per node) min over permutations p of -sum_i log max(freq[i, p[truth_i]], 1e-12)."""
    neglog = -np.log(np.clip(freq, LOG_CLIP, None))
    cost = np.stack([neglog[truth == t].sum(axis=0) for t in range(k)])
    total = _best_permutation_sum(cost, min)
    return total, total / len(truth)


def misclassification(hard: np.ndarray, truth: np.ndarray, k: int) -> float:
    """min over permutations p of the share of nodes with hard_i != p[truth_i]."""
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, hard), 1)
    return 1.0 - _best_permutation_sum(confusion, max) / len(truth)
