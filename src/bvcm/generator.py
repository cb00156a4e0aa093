"""Forward simulation of block-structured interaction networks.

Two routes produce the same law: a sequential urn scheme (block urn,
per-sender-block receiver urns, one Pitman-Yor node urn per block) and
a conditional-iid construction that first draws block frequencies and a
row-stochastic mixing matrix, then samples interactions independently
given them.  In the conditional-iid route the per-block stick-breaking
weights are marginalized by default, which reduces each block's node
draws to the exact Pitman-Yor urn; an explicit ``truncation`` instead
materializes that many stick atoms (renormalizing the leftover mass),
which is useful when the realized weights themselves are wanted but
audibly distorts the degree law once the leftover mass is non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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

    def mean(self) -> float:
        return sum((c + 1) * w for c, w in enumerate(self.weights))

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
    truncation: Optional[int] = None

    def __post_init__(self):
        if self.m < 0:
            raise UsageError(f"interaction count must be >= 0, got {self.m}")
        if self.mode not in ("sequential", "conditional_iid"):
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.truncation is not None and self.truncation < 1:
            raise UsageError("truncation must be >= 1")


@dataclass
class SimulationResult:
    """network + born-block truth + realized parameters.

    ``sticks`` is populated only by the truncated conditional-iid route;
    ``notes`` records truncation warnings.
    """

    network: InteractionNetwork
    assignment: BlockAssignment
    params: ModelParams
    sticks: Optional[list[np.ndarray]] = None
    notes: list[str] = field(default_factory=list)


def _make_rng(seed: int, *spawn: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(spawn)))


class _BlockUrn:
    """Pitman-Yor urn over the nodes of one block.

    Existing nodes are drawn proportionally to degree - alpha via a
    uniform appearance token plus a rejection step; a new node arrives
    with weight theta + alpha * (distinct node count).
    """

    __slots__ = ("alpha", "theta", "tokens", "distinct")

    def __init__(self, alpha: float, theta: float):
        self.alpha = alpha
        self.theta = theta
        self.tokens: list[int] = []
        self.distinct = 0

    def draw(self, rng, deg: list[int], new_node) -> int:
        total = len(self.tokens)
        denom = self.theta + total
        if rng.random() * denom < self.theta + self.alpha * self.distinct:
            node = new_node()
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
    """Issues node indices in order of first appearance, tagged by block."""

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
        node_ids = [f"n{i + 1}" for i in range(len(self.deg))]
        network = InteractionNetwork(senders, offsets, receivers, node_ids)
        assignment = BlockAssignment(np.array(self.block, dtype=np.int64), k)
        return SimulationResult(network, assignment, params)


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
    urns = [_BlockUrn(float(params.alpha[b]), float(params.theta[b])) for b in range(k)]
    space = _NodeSpace()

    def draw_block(counts: list[int], total: int, conc: float) -> int:
        r = rng.random() * (total + k * conc)
        for b in range(k - 1):
            r -= counts[b] + conc
            if r < 0.0:
                return b
        return k - 1

    arities = config.arity.sample(rng, config.m) if config.m else np.empty(0, np.int64)
    senders: list[int] = []
    offsets = [0]
    receivers: list[int] = []
    for j in range(config.m):
        bs = draw_block(snd_count, j, omega)
        snd_count[bs] += 1
        senders.append(urns[bs].draw(rng, space.deg, space.creator(bs)))
        row = pair[bs]
        for _ in range(int(arities[j])):
            br = draw_block(row, recv_tot[bs], zeta)
            row[br] += 1
            recv_tot[bs] += 1
            receivers.append(urns[br].draw(rng, space.deg, space.creator(br)))
        offsets.append(len(receivers))

    return space.finish(senders, offsets, receivers, k, params)


def _gem_sticks(
    rng: np.random.Generator, alpha: float, theta: float, truncation: int
) -> tuple[np.ndarray, float]:
    """Truncated stick-breaking weights and the leftover (pre-renormalized) mass."""
    j = np.arange(1, truncation + 1, dtype=float)
    v = rng.beta(1.0 - alpha, theta + j * alpha)
    stick = np.empty(truncation)
    stick[0] = v[0]
    rest = np.cumprod(1.0 - v)
    stick[1:] = v[1:] * rest[:-1]
    leftover = float(rest[-1])
    return stick / stick.sum(), leftover


def simulate_conditional_iid(config: GeneratorConfig) -> SimulationResult:
    """Sample iid interactions given (block frequencies, mixing matrix).

    Frequencies and mixing rows come from the params when fixed there,
    otherwise from the symmetric Dirichlet with the matching
    concentration.  Node identities integrate the stick weights out
    (exact urn draws) unless a truncation is requested.
    """
    params = config.params
    k = params.k
    rng = _make_rng(config.seed)
    notes: list[str] = []

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
    offsets = np.concatenate([[0], np.cumsum(arities)]).astype(np.int64)
    bounds = offsets.tolist()
    total_recv = bounds[-1]
    recv_blocks = np.empty(total_recv, dtype=np.int64)
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

    sticks = None
    if config.truncation is None:
        # Exact: iid draws from GEM weights, marginalized, are the urn.
        urns = [
            _BlockUrn(float(params.alpha[b]), float(params.theta[b])) for b in range(k)
        ]
        space = _NodeSpace()
        senders = []
        receivers = []
        recv_list = recv_blocks.tolist()
        for j, bs in enumerate(sender_blocks.tolist()):
            senders.append(urns[bs].draw(rng, space.deg, space.creator(bs)))
            for br in recv_list[bounds[j] : bounds[j + 1]]:
                receivers.append(urns[br].draw(rng, space.deg, space.creator(br)))
        result = space.finish(senders, offsets, receivers, k, realized)
        result.notes = notes
        return result

    # Truncated sticks: materialize the weights, then draw atoms.
    sticks = []
    for b in range(k):
        stick, leftover = _gem_sticks(
            rng, float(params.alpha[b]), float(params.theta[b]), config.truncation
        )
        if leftover > 1e-6:
            notes.append(
                f"block {b + 1}: stick truncation at {config.truncation} atoms "
                f"left mass {leftover:.3g} unassigned (renormalized)"
            )
        sticks.append(stick)

    sender_atoms = np.empty(m, dtype=np.int64)
    for b in range(k):
        mask = sender_blocks == b
        cnt = int(mask.sum())
        if cnt:
            sender_atoms[mask] = rng.choice(len(sticks[b]), size=cnt, p=sticks[b])
    recv_atoms = np.empty(total_recv, dtype=np.int64)
    for b in range(k):
        mask = recv_blocks == b
        cnt = int(mask.sum())
        if cnt:
            recv_atoms[mask] = rng.choice(len(sticks[b]), size=cnt, p=sticks[b])

    atom_index: dict[tuple[int, int], int] = {}
    node_block: list[int] = []

    def resolve(block: int, atom: int) -> int:
        key = (block, atom)
        i = atom_index.get(key)
        if i is None:
            i = len(node_block)
            atom_index[key] = i
            node_block.append(block)
        return i

    senders = []
    receivers = []
    recv_keys = list(zip(recv_blocks.tolist(), recv_atoms.tolist()))
    for j, key in enumerate(zip(sender_blocks.tolist(), sender_atoms.tolist())):
        senders.append(resolve(*key))
        receivers.extend(resolve(*rk) for rk in recv_keys[bounds[j] : bounds[j + 1]])

    node_ids = [f"n{i + 1}" for i in range(len(node_block))]
    network = InteractionNetwork(senders, offsets, receivers, node_ids)
    assignment = BlockAssignment(np.array(node_block, dtype=np.int64), k)
    return SimulationResult(network, assignment, realized, sticks=sticks, notes=notes)


def simulate(config: GeneratorConfig) -> SimulationResult:
    if config.mode == "sequential":
        return simulate_sequential(config)
    return simulate_conditional_iid(config)
