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

import itertools
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
        if not self.weights or any(w < 0 for w in self.weights):
            raise UsageError("arity weights must be non-negative and non-empty")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise UsageError(f"arity weights must sum to 1, got {sum(self.weights)}")

    @classmethod
    def fixed(cls, count: int) -> "ArityLaw":
        if count < 1:
            raise UsageError(f"receiver count must be >= 1, got {count}")
        return cls(tuple([0.0] * (count - 1) + [1.0]))

    @classmethod
    def categorical(cls, weights) -> "ArityLaw":
        return cls(tuple(float(w) for w in weights))

    @property
    def is_fixed(self) -> bool:
        return sum(1 for w in self.weights if w > 0) == 1

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.is_fixed:
            return np.full(size, len(self.weights), dtype=np.int64)
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


def _make_rng(seed: int, *spawn: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(spawn)))


class _BlockUrn:
    """Pitman-Yor urn over the nodes of one block.

    Existing nodes are drawn proportionally to degree - alpha via a
    uniform appearance token plus a rejection step; a new node arrives
    with weight theta + alpha * (distinct node count), made by
    ``new_node()``.  The first draw is always a new node, also when
    theta <= 0.  ``tokens`` stays a list: the draw reads it at random
    positions, and an ``array`` would box a new int on every read.
    """

    __slots__ = ("alpha", "theta", "new_node", "tokens", "distinct")

    def __init__(self, alpha: float, theta: float, new_node):
        self.alpha = alpha
        self.theta = theta
        self.new_node = new_node
        self.tokens: list[int] = []
        self.distinct = 0

    def draw(self, rng, deg: list[int]) -> int:
        total = len(self.tokens)
        denom = self.theta + total
        # The uniform is drawn even for the first node, so the stream for
        # theta > 0 (where the comparison alone picks the new node) is kept.
        if rng.random() * denom < self.theta + self.alpha * self.distinct or not total:
            node = self.new_node()
            self.distinct += 1
        else:
            while True:
                node = self.tokens[int(rng.integers(total))]
                if rng.random() * deg[node] >= self.alpha:
                    break
        deg[node] += 1
        self.tokens.append(node)
        return node


class _NodeSpace:
    """Issues node indices in order of first appearance, tagged by block.

    ``deg`` stays a list, as ``_BlockUrn.tokens`` does: the urns read it
    at random positions.
    """

    def __init__(self):
        self.deg: list[int] = []
        self.block: list[int] = []

    def creator(self, block: int):
        def create() -> int:
            self.deg.append(0)
            self.block.append(block)
            return len(self.deg) - 1

        return create

    def finish(self, senders, offsets, receivers, k, params) -> "SimulationResult":
        """Result over the interactions collected in ``array("q")`` buffers."""
        node_ids = [f"n{i + 1}" for i in range(len(self.deg))]
        network = InteractionNetwork.from_buffers(senders, offsets, receivers, node_ids)
        assignment = BlockAssignment(np.array(self.block, dtype=np.int64), k)
        return SimulationResult(network, assignment, params)


def _urns(params: ModelParams, space: _NodeSpace) -> list[_BlockUrn]:
    """One Pitman-Yor urn per block, each issuing its new nodes in space."""
    return [
        _BlockUrn(float(params.alpha[b]), float(params.theta[b]), space.creator(b))
        for b in range(params.k)
    ]


def simulate_sequential(config: GeneratorConfig) -> SimulationResult:
    """Run the urn scheme for config.m interactions.

    Block labels keep their identity (block b always carries alpha[b],
    theta[b]); node identifiers are issued in order of first appearance.
    """
    params = config.params
    k = params.k
    omega = params.block_conc
    zeta = params.recv_conc
    rng = _make_rng(config.seed)

    snd_count = [0] * k
    pair = [[0] * k for _ in range(k)]
    recv_tot = [0] * k
    space = _NodeSpace()
    urns = _urns(params, space)
    deg = space.deg

    def draw_block(counts: list[int], total: int, conc: float) -> int:
        r = rng.random() * (total + k * conc)
        for b in range(k - 1):
            r -= counts[b] + conc
            if r < 0.0:
                return b
        return k - 1

    arities = config.arity.sample(rng, config.m) if config.m else np.empty(0, np.int64)
    senders, offsets, receivers = array("q"), array("q", [0]), array("q")
    for j in range(config.m):
        bs = draw_block(snd_count, j, omega)
        snd_count[bs] += 1
        senders.append(urns[bs].draw(rng, deg))
        row = pair[bs]
        for _ in range(int(arities[j])):
            br = draw_block(row, recv_tot[bs], zeta)
            row[br] += 1
            recv_tot[bs] += 1
            receivers.append(urns[br].draw(rng, deg))
        offsets.append(len(receivers))

    return space.finish(senders, offsets, receivers, k, params)


def simulate_conditional_iid(config: GeneratorConfig) -> SimulationResult:
    """Sample iid interactions given (block frequencies, mixing matrix).

    Frequencies and mixing rows come from the params when fixed there,
    otherwise from the symmetric Dirichlet with the matching
    concentration.  Node identities integrate the stick weights out
    (exact urn draws).
    """
    params = config.params
    k = params.k
    rng = _make_rng(config.seed)

    if params.block_probs is not None:
        pi = params.block_probs.copy()
    else:
        pi = rng.dirichlet([params.block_conc] * k)
    if params.propensity is not None:
        prop = params.propensity.copy()
    else:
        prop = np.stack([rng.dirichlet([params.recv_conc] * k) for _ in range(k)])

    m = config.m
    sender_blocks = rng.choice(k, size=m, p=pi) if m else np.empty(0, np.int64)
    arities = config.arity.sample(rng, m) if m else np.empty(0, np.int64)
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

    # Exact: iid draws from GEM weights, marginalized, are the urn.
    space = _NodeSpace()
    urns = _urns(params, space)
    deg = space.deg
    senders, offsets, receivers = array("q"), array("q", [0]), array("q")
    # Block labels and arities are small ints, which Python caches: these
    # lists cost one pointer per entry, as their arrays do.
    recv_iter = iter(recv_blocks.tolist())
    for bs, arity in zip(sender_blocks.tolist(), arities.tolist()):
        senders.append(urns[bs].draw(rng, deg))
        for br in itertools.islice(recv_iter, arity):
            receivers.append(urns[br].draw(rng, deg))
        offsets.append(len(receivers))
    return space.finish(senders, offsets, receivers, k, realized)


def simulate(config: GeneratorConfig) -> SimulationResult:
    if config.mode == "sequential":
        return simulate_sequential(config)
    return simulate_conditional_iid(config)
