"""Tests of the benchmark's reference computations on tiny networks whose
answers are enumerated by hand.

    python3 -m pytest perfbench/test_reference.py -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402

# a -> [b]; b -> [a, c]; a -> [a]
TINY = [("a", ["b"]), ("b", ["a", "c"]), ("a", ["a"])]


def tiny():
    return ref.parse_records(TINY)


def labels(net, mapping):
    return np.array([mapping[name] for name in net.node_ids])


def test_parse_orders_nodes_by_first_appearance():
    net = tiny()
    assert net.node_ids == ["a", "b", "c"]
    assert net.senders.tolist() == [0, 1, 0]
    assert net.offsets.tolist() == [0, 1, 3, 4]
    assert net.receivers.tolist() == [1, 0, 2, 0]
    assert net.slot_senders().tolist() == [0, 1, 1, 0]


def test_degrees_histogram_and_first_appearance():
    net = tiny()
    deg = ref.degrees(net)
    # a: sends twice, receives twice; b: receives once, sends once; c: once.
    assert deg.tolist() == [4, 2, 1]
    assert ref.degree_histogram(deg) == {1: 1, 2: 1, 4: 1}
    first = ref.first_appearance(net)
    assert first.tolist() == [1, 1, 2]
    assert ref.growth_counts(first, [1, 2, 3]) == [2, 3, 3]
    assert ref.growth_counts(first, [1, 2, 3], np.array([False, False, True])) == [0, 1, 1]


def test_histogram_skips_absent_nodes():
    assert ref.degree_histogram(np.array([0, 3, 3, 1])) == {1: 1, 3: 2}


# Each factor below is one urn draw, in interaction order: the sender's
# block (Polya urn, concentration w = 1), the sender node (Pitman-Yor urn
# of its block), then per receiver its block (the sender block's urn,
# concentration z = 1) and the receiver node. A new node in block b has
# weight theta_b + alpha_b * (nodes so far), a known node of degree d has
# weight d - alpha_b, over theta_b + (block's appearances so far).
def test_log_prob_one_block_used_twice():
    net = tiny()
    lab = labels(net, {"a": 0, "b": 0, "c": 1})
    factors = [
        1 / 2, 1,  # a: block 0, new node
        1 / 2, 1.5 / 2,  # b: block 0 (row 0 empty), new node (1 + 0.5) / (1 + 1)
        2 / 3, 0.5 / 3,  # b sends: block 0 (1 of 1), b has degree 1 of 2
        2 / 3, 0.5 / 4,  # a: row 0 [1, 0], a has degree 1 of 3
        1 / 4, 1,  # c: row 0 [2, 0] -> block 1, new node in empty block 1
        3 / 4, 1.5 / 5,  # a sends: block 0 (2 of 2), a has degree 2 of 4
        3 / 5, 2.5 / 6,  # a: row 0 [2, 1] -> block 0, a has degree 3 of 5
    ]
    got = ref.collapsed_log_prob(net, lab, 2, 1.0, 1.0, [0.5, 0.3], [1.0, 2.0])
    assert got == pytest.approx(sum(math.log(f) for f in factors), rel=1e-12)


def test_log_prob_two_blocks():
    net = tiny()
    lab = labels(net, {"a": 0, "b": 1, "c": 1})
    factors = [
        1 / 2, 1,  # a: block 0, new node
        1 / 2, 1,  # b: row 0 empty -> block 1, new node
        1 / 3, 0.7 / 3,  # b sends: block 1 (0 of 1), b degree 1 of 1 in block 1
        1 / 2, 0.5 / 2,  # a: row 1 empty -> block 0, a degree 1 of 1
        1 / 3, 2.3 / 4,  # c: row 1 [1, 0] -> block 1, new: (2 + 0.3) / (2 + 2)
        2 / 4, 1.5 / 3,  # a sends: block 0 (1 of 2), a degree 2 of 2
        1 / 3, 2.5 / 4,  # a: row 0 [0, 1] -> block 0, a degree 3 of 3
    ]
    got = ref.collapsed_log_prob(net, lab, 2, 1.0, 1.0, [0.5, 0.3], [1.0, 2.0])
    assert got == pytest.approx(sum(math.log(f) for f in factors), rel=1e-12)


def test_log_prob_is_label_symmetric_only_with_parameters():
    # Swapping block names and their parameters together leaves it unchanged.
    net = tiny()
    lab = labels(net, {"a": 0, "b": 1, "c": 1})
    a = ref.collapsed_log_prob(net, lab, 2, 1.0, 1.0, [0.5, 0.3], [1.0, 2.0])
    b = ref.collapsed_log_prob(net, 1 - lab, 2, 1.0, 1.0, [0.3, 0.5], [2.0, 1.0])
    assert a == pytest.approx(b, rel=1e-12)


# Three iterations of three nodes, burn-in 1: node 0 saw labels 0, 0, 1,
# node 1 saw 1, 1, 1 and node 2 saw 1, 1, 0.
ASSIGN = np.array([[0, 0, 1], [0, 1, 1], [0, 1, 1], [1, 1, 0]])
TRUTH = np.array([1, 1, 0])


def test_membership_and_majority():
    freq = ref.membership(ASSIGN, 1, 2)
    np.testing.assert_allclose(freq, [[2 / 3, 1 / 3], [0, 1], [1 / 3, 2 / 3]])
    assert ref.majority(ASSIGN, 1, 2).tolist() == [0, 1, 1]
    # a tie goes to the lower label
    assert ref.majority(np.array([[0], [1]]), 0, 2).tolist() == [0]


def test_l2_takes_the_better_labeling():
    freq = ref.membership(ASSIGN, 1, 2)
    # direct: truth-is-1 indicator [1, 1, 0] against freq[:, 1] = [1/3, 1, 2/3]
    # gives a squared norm of 8/9; flipped, against [2/3, 0, 1/3], 11/9.
    assert ref.l2_distance(freq, TRUTH) == pytest.approx(math.sqrt(8 / 9 / 3))


def test_cross_entropy_over_permutations():
    freq = ref.membership(ASSIGN, 1, 2)
    total, per_node = ref.cross_entropy(freq, TRUTH, 2)
    # identity: -log(1/3) - log(1) - log(1/3); the swap meets a zero,
    # clipped to 1e-12, so it loses.
    assert total == pytest.approx(2 * math.log(3))
    assert per_node == pytest.approx(2 * math.log(3) / 3)


def test_misclassification_over_permutations():
    hard = ref.majority(ASSIGN, 1, 2)  # [0, 1, 1] against truth [1, 1, 0]
    # identity misses nodes 0 and 2; the swap misses node 1 only
    assert ref.misclassification(hard, TRUTH, 2) == pytest.approx(1 / 3)


def test_misclassification_finds_a_three_cycle():
    truth = np.array([0, 1, 2, 0, 2])
    hard = np.array([1, 2, 0, 1, 1])
    # truth 0 -> 1, 1 -> 2, 2 -> 0 matches all but the last node
    assert ref.misclassification(hard, truth, 3) == pytest.approx(1 / 5)
