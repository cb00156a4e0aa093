"""Forward simulation of block-structured interaction networks.

Two routes produce the same law: a sequential urn scheme (block urn,
per-sender-block receiver urns, one Pitman-Yor node urn per block) and
a conditional-iid construction that first draws block frequencies and a
row-stochastic mixing matrix, then samples interactions independently
given them.  In the conditional-iid route the per-block stick-breaking
weights are marginalized, which reduces each block's node draws to the
exact Pitman-Yor urn.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import BlockAssignment, InteractionNetwork, ModelParams
from .errors import UsageError

__all__ = [
    "ArityLaw",
    "GeneratorConfig",
    "SimulationResult",
    "simulate",
    "simulate_sequential",
    "simulate_conditional_iid",
]


@dataclass(frozen=True)
class ArityLaw:
    """Distribution of the number of receivers per interaction.

    weights[c-1] is the probability of c receivers, c = 1..len(weights).
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        # Written so that NaN fails each check.
        if not self.weights or not all(w >= 0 for w in self.weights):
            raise UsageError("arity weights must be non-negative and non-empty")
        if not abs(sum(self.weights) - 1.0) <= 1e-9:
            raise UsageError(f"arity weights must sum to 1, got {sum(self.weights)}")

    @classmethod
    def fixed(cls, count: int) -> "ArityLaw":
        if count < 1:
            raise UsageError(f"receiver count must be >= 1, got {count}")
        return cls(tuple([0.0] * (count - 1) + [1.0]))

    @classmethod
    def categorical(cls, weights) -> "ArityLaw":
        return cls(tuple(float(w) for w in weights))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        support = [c for c, w in enumerate(self.weights, 1) if w > 0]
        if len(support) == 1:
            return np.full(size, support[0], dtype=np.int64)
        return rng.choice(len(self.weights), size=size, p=np.asarray(self.weights)) + 1


@dataclass
class GeneratorConfig:
    params: ModelParams
    m: int
    arity: ArityLaw = field(default_factory=lambda: ArityLaw.fixed(1))
    seed: int = 0
    mode: str = "sequential"

    def __post_init__(self):
        if self.m < 0:
            raise UsageError(f"interaction count must be >= 0, got {self.m}")
        if self.mode not in ("sequential", "conditional_iid"):
            raise UsageError(f"unknown mode {self.mode!r}")


@dataclass
class SimulationResult:
    """network + born-block truth + realized parameters."""

    network: InteractionNetwork
    assignment: BlockAssignment
    params: ModelParams


class _PolyaUrn:
    """Polya urn over k blocks: block b has weight (its draws so far) + conc."""

    __slots__ = ("conc", "counts")

    def __init__(self, k: int, conc: float):
        self.conc = conc
        self.counts = [0] * k

    def draw(self, rng) -> int:
        counts, conc = self.counts, self.conc
        r = rng.random() * (sum(counts) + len(counts) * conc)
        for b in range(len(counts) - 1):
            r -= counts[b] + conc
            if r < 0.0:
                break
        else:
            b = len(counts) - 1
        counts[b] += 1
        return b


class _BlockUrn:
    """Pitman-Yor urn over the nodes of one block.

    Existing nodes are drawn proportionally to degree - alpha via a
    uniform appearance token plus a rejection step; a new node arrives
    with weight theta + alpha * (distinct node count) and takes the next
    node index.  The first draw is always a new node, also when
    theta <= 0.  ``tokens`` stays a list: the draw reads it at random
    positions, and an ``array`` would box a new int on every read.
    """

    __slots__ = ("block", "alpha", "theta", "tokens", "distinct")

    def __init__(self, block: int, alpha: float, theta: float):
        self.block = block
        self.alpha = alpha
        self.theta = theta
        self.tokens: list[int] = []
        self.distinct = 0

    def draw(self, rng, deg: list[int], blocks: list[int]) -> int:
        """A node of this block; a new one is appended to deg and blocks."""
        total = len(self.tokens)
        denom = self.theta + total
        # The uniform is drawn even for the first node, so the stream for
        # theta > 0 (where the comparison alone picks the new node) is kept.
        if rng.random() * denom < self.theta + self.alpha * self.distinct or not total:
            node = len(deg)
            deg.append(0)
            blocks.append(self.block)
            self.distinct += 1
        else:
            while True:
                node = self.tokens[int(rng.integers(total))]
                if rng.random() * deg[node] >= self.alpha:
                    break
        deg[node] += 1
        self.tokens.append(node)
        return node


def _draw_nodes(
    rng, params: ModelParams, arities: np.ndarray, sender_block, receiver_block, realized
) -> SimulationResult:
    """The interactions, given how their blocks are drawn.

    Interaction j has a sender from block ``sender_block()`` and
    ``arities[j]`` receivers, each from block ``receiver_block(bs)`` for
    the sender's block bs; every node comes from its block's Pitman-Yor
    urn.  Node indices follow order of first appearance, and each node
    is tagged with the block that issued it.
    """
    urns = [
        _BlockUrn(b, float(params.alpha[b]), float(params.theta[b])) for b in range(params.k)
    ]
    # deg stays a list, as _BlockUrn.tokens does: the urns read it at
    # random positions.
    deg: list[int] = []
    blocks: list[int] = []
    senders, offsets, receivers = array("q"), array("q", [0]), array("q")
    # Arities are small ints, which Python caches: the list costs one
    # pointer per entry, as the array does.
    for arity in arities.tolist():
        bs = sender_block()
        senders.append(urns[bs].draw(rng, deg, blocks))
        for _ in range(arity):
            receivers.append(urns[receiver_block(bs)].draw(rng, deg, blocks))
        offsets.append(len(receivers))
    node_ids = [f"n{i + 1}" for i in range(len(deg))]
    network = InteractionNetwork.from_buffers(senders, offsets, receivers, node_ids)
    assignment = BlockAssignment(np.array(blocks, dtype=np.int64), params.k)
    return SimulationResult(network, assignment, realized)


def simulate_sequential(config: GeneratorConfig) -> SimulationResult:
    """Run the urn scheme for config.m interactions.

    Sender blocks come from one Polya urn, receiver blocks from one per
    sender block.  Block labels keep their identity (block b always
    carries alpha[b], theta[b]); node identifiers are issued in order of
    first appearance.
    """
    params = config.params
    rng = np.random.default_rng(config.seed)
    arities = config.arity.sample(rng, config.m)
    sender_urn = _PolyaUrn(params.k, params.block_conc)
    receiver_urns = [_PolyaUrn(params.k, params.recv_conc) for _ in range(params.k)]
    return _draw_nodes(
        rng, params, arities,
        lambda: sender_urn.draw(rng),
        lambda bs: receiver_urns[bs].draw(rng),
        params,
    )


def simulate_conditional_iid(config: GeneratorConfig) -> SimulationResult:
    """Sample iid interactions given (block frequencies, mixing matrix).

    Frequencies and mixing rows come from the params when fixed there,
    otherwise from the symmetric Dirichlet with the matching
    concentration.  Node identities integrate the stick weights out
    (exact urn draws).
    """
    params = config.params
    k = params.k
    rng = np.random.default_rng(config.seed)

    if params.block_probs is not None:
        pi = params.block_probs.copy()
    else:
        pi = rng.dirichlet([params.block_conc] * k)
    if params.propensity is not None:
        prop = params.propensity.copy()
    else:
        prop = np.stack([rng.dirichlet([params.recv_conc] * k) for _ in range(k)])

    sender_blocks = rng.choice(k, size=config.m, p=pi)
    arities = config.arity.sample(rng, config.m)
    recv_blocks = np.empty(int(arities.sum()), dtype=np.int64)
    for b in range(k):
        slot_mask = np.repeat(sender_blocks == b, arities)
        slots = int(slot_mask.sum())
        if slots:
            recv_blocks[slot_mask] = rng.choice(k, size=slots, p=prop[b])

    realized = ModelParams(
        alpha=params.alpha.copy(),
        theta=params.theta.copy(),
        block_conc=params.block_conc,
        recv_conc=params.recv_conc,
        block_probs=pi,
        propensity=prop,
    )

    # Exact: iid draws from GEM weights, marginalized, are the urn.  Block
    # labels are small ints, which Python caches: these lists cost one
    # pointer per entry, as their arrays do.
    next_sender = iter(sender_blocks.tolist()).__next__
    next_receiver = iter(recv_blocks.tolist()).__next__
    return _draw_nodes(
        rng, params, arities, next_sender, lambda bs: next_receiver(), realized
    )


def simulate(config: GeneratorConfig) -> SimulationResult:
    if config.mode == "sequential":
        return simulate_sequential(config)
    return simulate_conditional_iid(config)
