"""Gibbs sampler over block assignments, urn parameters and the mixing matrix.

One full iteration is: a sweep of collapsed single-node block updates
(block frequencies integrated out, mixing matrix conditioned on), one
auxiliary-variable conjugate update of (alpha_b, theta_b) per block,
and a Dirichlet (or symmetrized) redraw of the mixing matrix.  Counts
are maintained incrementally.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .core import (
    BlockAssignment,
    InteractionNetwork,
    counterparty_counts,
    log_ascending_factorial,
)
from .errors import NumericalError, UsageError

__all__ = [
    "GibbsConfig",
    "Chain",
    "GibbsSampler",
    "run_gibbs",
    "warm_start_labels",
    "aux_update_alpha_theta",
]

_EPS = 1e-12


@dataclass
class GibbsConfig:
    """Sampler settings.

    alpha_prior is the Beta(c, d) prior on each discount parameter,
    theta_prior the Gamma(shape, rate) prior on each strength
    parameter.  block_conc / recv_conc are the fixed urn
    concentrations.  init is one of random | degree_majority |
    provided (the latter requires init_labels).
    """

    k: int
    iterations: int
    burn_in: int = 0
    seed: int = 0
    block_conc: float = 1.0
    recv_conc: float = 1.0
    alpha_prior: tuple[float, float] = (1.0, 1.0)
    theta_prior: tuple[float, float] = (1.0, 1.0)
    symmetric_prop: bool = False
    init: str = "random"
    init_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.k < 1:
            raise UsageError(f"k must be >= 1, got {self.k}")
        if not self.iterations > self.burn_in >= 0:
            raise UsageError(
                f"need iterations > burn_in >= 0, got {self.iterations}, {self.burn_in}"
            )
        for name in ("block_conc", "recv_conc"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive")
        if min(self.alpha_prior) <= 0 or min(self.theta_prior) <= 0:
            raise UsageError("prior hyperparameters must be positive")
        if self.init not in ("random", "degree_majority", "provided"):
            raise UsageError(f"unknown init {self.init!r}")
        if self.init == "provided" and self.init_labels is None:
            raise UsageError("init='provided' requires init_labels")


@dataclass
class Chain:
    """Every recorded iteration of one sampler run (burn-in included)."""

    k: int
    burn_in: int
    seed: int
    node_ids: list[str]
    assignments: np.ndarray  # (iterations, n_nodes)
    alphas: np.ndarray  # (iterations, k)
    thetas: np.ndarray  # (iterations, k)
    props: np.ndarray  # (iterations, k, k)
    log_probs: np.ndarray  # (iterations,)
    block_conc: float
    recv_conc: float
    elapsed_s: float = 0.0
    prop_rejections: int = 0

    def __len__(self) -> int:
        return len(self.alphas)

    @property
    def n_nodes(self) -> int:
        return self.assignments.shape[1]

    def post_assignments(self) -> np.ndarray:
        return self.assignments[self.burn_in:]

    def majority_labels(self) -> np.ndarray:
        """Per-node most frequent post-burn-in label (ties -> lowest label)."""
        post = self.post_assignments()
        counts = np.stack([(post == b).sum(axis=0) for b in range(self.k)])
        return counts.argmax(axis=0).astype(np.int64)


def aux_update_alpha_theta(
    degs,
    alpha: float,
    theta: float,
    alpha_prior: tuple[float, float],
    theta_prior: tuple[float, float],
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Conjugate redraw of one block's (discount, strength) pair.

    Given the block's node degrees, three auxiliary draws split the
    urn's likelihood into conjugate pieces: a Beta variable for the
    strength denominator (skipped when the block holds fewer than two
    appearances), one Bernoulli per distinct node beyond the first, and
    one Bernoulli per repeat appearance of each node.  An empty block
    falls back to the priors so it can be repopulated later.
    """
    c_hyp, d_hyp = alpha_prior
    a_hyp, b_hyp = theta_prior
    v_b = len(degs)
    if v_b == 0:
        new_alpha = GibbsSampler._clip_alpha(rng.beta(c_hyp, d_hyp))
        return new_alpha, max(rng.gamma(a_hyp, 1.0 / b_hyp), _EPS)
    m_b = sum(degs)

    rate = b_hyp
    if m_b >= 2:
        x = rng.beta(theta + 1.0, m_b - 1)
        rate = b_hyp - math.log(max(x, _EPS))

    sum_y = 0.0
    n_y = v_b - 1
    if n_y:
        idx = np.arange(1, v_b, dtype=float)
        p = theta / (theta + alpha * idx)
        sum_y = float((rng.random(n_y) < p).sum())
    sum_not_y = n_y - sum_y

    sum_not_z = 0.0
    max_d = max(degs)
    if max_d > 1:
        cnt = np.bincount(degs, minlength=max_d + 1)
        # n_j = number of block members with degree > j, j = 1..max_d-1
        tail = np.cumsum(cnt[::-1])[::-1]
        j = np.arange(1, max_d, dtype=float)
        n_j = tail[2:]
        p_not = (1.0 - alpha) / (j - alpha)
        sum_not_z = float(rng.binomial(n_j, p_not).sum())

    new_theta = max(rng.gamma(a_hyp + sum_y, 1.0 / rate), _EPS)
    new_alpha = GibbsSampler._clip_alpha(rng.beta(c_hyp + sum_not_y, d_hyp + sum_not_z))
    return new_alpha, new_theta


class GibbsSampler:
    """Mutable sampler state plus the three conditional updates."""

    def __init__(self, network: InteractionNetwork, config: GibbsConfig):
        if network.m == 0:
            raise UsageError("cannot run the sampler on an empty network")
        self.network = network
        self.config = config
        self.k = config.k
        self.rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        n = network.n_nodes
        self.n = n

        deg = network.degrees()
        # Count aggregates treat every tracked node as non-isolated.
        if deg.min() == 0:
            raise UsageError("network node table contains isolated nodes")
        s_pair, r_pair = network.pairs()
        loop = s_pair == r_pair
        s_out, r_in = s_pair[~loop], r_pair[~loop]
        # The single-node sweep reads these per node: plain lists are
        # faster there than numpy scalars.
        self.deg = deg.tolist()
        self.node_inits = np.bincount(network.senders, minlength=n).tolist()
        self.out_nbrs = _group_by(s_out, r_in, n)
        self.in_nbrs = _group_by(r_in, s_out, n)
        self.self_pairs = np.bincount(s_pair[loop], minlength=n).tolist()
        self.max_deg = int(deg.max())

        self.labels = self._initial_labels()
        self.alpha = np.empty(self.k)
        self.theta = np.empty(self.k)
        c, d = config.alpha_prior
        a, b = config.theta_prior
        for blk in range(self.k):
            self.alpha[blk] = self._clip_alpha(self.rng.beta(c, d))
            self.theta[blk] = max(self.rng.gamma(a, 1.0 / b), _EPS)

        self._rebuild_counts()
        self._refresh_deg_table()
        self.prop_rejections = 0
        self.prop = self.update_propensity()

    # ---------------------------------------------------------------- setup

    def _initial_labels(self) -> list[int]:
        cfg = self.config
        if cfg.init == "provided":
            labels = np.asarray(cfg.init_labels, dtype=np.int64)
            BlockAssignment(labels, self.k)  # validates range
            if len(labels) != self.n:
                raise UsageError("init_labels length does not match the network")
            return [int(x) for x in labels]
        labels = self.rng.integers(self.k, size=self.n)
        if cfg.init == "degree_majority":
            if self.k != 2:
                raise UsageError("degree_majority init requires k = 2")
            from .consistency import degree_majority_update

            assignment = BlockAssignment(labels, 2)
            for _ in range(2):
                assignment = degree_majority_update(self.network, assignment)
            labels = assignment.labels
        return [int(x) for x in labels]

    def _rebuild_counts(self) -> None:
        k = self.k
        lab = self.labels
        self.block_n = [0] * k
        self.block_deg = [0] * k
        self.inits = [0] * k
        self.pair = [[0] * k for _ in range(k)]
        for i in range(self.n):
            b = lab[i]
            self.block_n[b] += 1
            self.block_deg[b] += self.deg[i]
            self.inits[b] += self.node_inits[i]
        for i in range(self.n):
            row = self.pair[lab[i]]
            for r in self.out_nbrs[i]:
                row[lab[r]] += 1
            self.pair[lab[i]][lab[i]] += self.self_pairs[i]

    def _refresh_deg_table(self) -> None:
        """Per-block lookup of lgamma(d - alpha_b) - lgamma(1 - alpha_b)."""
        d = np.arange(self.max_deg + 1, dtype=float)
        tab = gammaln(d[None, :] - self.alpha[:, None]) - gammaln(
            1.0 - self.alpha[:, None]
        )
        tab[:, 0] = 0.0
        self._la_deg = [row.tolist() for row in tab]
        # Per-block sum over member nodes, kept incrementally during sweeps.
        sums = [0.0] * self.k
        lab = self.labels
        for i in range(self.n):
            b = lab[i]
            sums[b] += self._la_deg[b][self.deg[i]]
        self.sum_la = sums

    # ------------------------------------------------------- block updates

    def _detach(self, i: int) -> None:
        b = self.labels[i]
        self.block_n[b] -= 1
        self.block_deg[b] -= self.deg[i]
        self.sum_la[b] -= self._la_deg[b][self.deg[i]]
        self.inits[b] -= self.node_inits[i]

    def _reattach(self, i: int, b: int) -> None:
        old = self.labels[i]
        self.block_n[b] += 1
        self.block_deg[b] += self.deg[i]
        self.sum_la[b] += self._la_deg[b][self.deg[i]]
        self.inits[b] += self.node_inits[i]
        if b != old:
            lab = self.labels
            pair = self.pair
            for r in self.out_nbrs[i]:
                br = lab[r]
                pair[old][br] -= 1
                pair[b][br] += 1
            for s in self.in_nbrs[i]:
                bs = lab[s]
                pair[bs][old] -= 1
                pair[bs][b] += 1
            sp = self.self_pairs[i]
            if sp:
                pair[old][old] -= sp
                pair[b][b] += sp
            lab[i] = b

    def _log_weights_detached(self, i: int) -> list[float]:
        """Unnormalized log conditional over blocks for a detached node i."""
        k = self.k
        lab = self.labels
        lgamma = math.lgamma
        log = math.log
        d_i = self.deg[i]
        l_i = self.node_inits[i]
        sp = self.self_pairs[i]
        logb = self._log_prop

        cnt_out = [0] * k
        for r in self.out_nbrs[i]:
            cnt_out[lab[r]] += 1
        cnt_in = [0] * k
        for s in self.in_nbrs[i]:
            cnt_in[lab[s]] += 1

        omega = self.config.block_conc
        alpha = self.alpha
        theta = self.theta
        weights = []
        for b in range(k):
            w = 0.0
            if l_i:
                w = lgamma(omega + self.inits[b] + l_i) - lgamma(omega + self.inits[b])
            row = logb[b]
            for b2 in range(k):
                co = cnt_out[b2]
                if co:
                    w += co * row[b2]
                ci = cnt_in[b2]
                if ci:
                    w += ci * logb[b2][b]
            if sp:
                w += sp * row[b]
            th = theta[b]
            vb = self.block_n[b]
            if vb:
                w += log(th + vb * alpha[b])
            w += self._la_deg[b][d_i]
            md = self.block_deg[b]
            if md:
                w += lgamma(th + md) - lgamma(th + md + d_i)
            else:
                w += lgamma(th + 1.0) - lgamma(th + d_i)
            weights.append(w)
        return weights

    def full_conditional(self, i: int) -> np.ndarray:
        """Normalized probability of each block for node i given the rest."""
        self._detach(i)
        weights = self._log_weights_detached(i)
        self._reattach(i, self.labels[i])
        m = max(weights)
        p = np.exp(np.array(weights) - m)
        return p / p.sum()

    def update_block_assignment(self, i: int, u: Optional[float] = None) -> int:
        """Sample a new block for node i and apply it; returns the label."""
        if u is None:
            u = self.rng.random()
        self._detach(i)
        weights = self._log_weights_detached(i)
        mx = max(weights)
        exp = math.exp
        probs = [exp(w - mx) for w in weights]
        r = u * sum(probs)
        b = self.k - 1
        for j in range(self.k - 1):
            r -= probs[j]
            if r < 0.0:
                b = j
                break
        self._reattach(i, b)
        return b

    # --------------------------------------------------- parameter updates

    def update_alpha_theta(self, b: int) -> tuple[float, float]:
        """Auxiliary-variable conjugate redraw of (alpha_b, theta_b)."""
        degs = [self.deg[i] for i in range(self.n) if self.labels[i] == b]
        return aux_update_alpha_theta(
            degs,
            self.alpha[b],
            self.theta[b],
            self.config.alpha_prior,
            self.config.theta_prior,
            self.rng,
        )

    @staticmethod
    def _clip_alpha(x: float) -> float:
        return min(max(x, _EPS), 1.0 - _EPS)

    def update_propensity(self, max_attempts: int = 1000) -> np.ndarray:
        """Redraw the mixing matrix from its (row-wise Dirichlet) conditional.

        In symmetric mode rows are drawn sequentially on symmetrized
        counts and mirrored; a row whose remaining mass is non-positive
        rejects the whole draw (logged in prop_rejections).
        """
        k = self.k
        zeta = self.config.recv_conc
        counts = np.array(self.pair, dtype=float)
        if not self.config.symmetric_prop:
            prop = np.empty((k, k))
            for b in range(k):
                prop[b] = self.rng.dirichlet(counts[b] + zeta)
        else:
            # Pool both directions without inflating the row scale.
            sym = (counts + counts.T) / 2.0
            np.fill_diagonal(sym, np.diag(counts))
            prop = None
            for _ in range(max_attempts):
                cand = np.zeros((k, k))
                row0 = self.rng.dirichlet(sym[0] + zeta)
                cand[0] = row0
                cand[:, 0] = row0
                ok = True
                for r in range(1, k):
                    scale = 1.0 - cand[r, :r].sum()
                    if scale <= 0.0:
                        ok = False
                        self.prop_rejections += 1
                        break
                    if r < k - 1:
                        tail = self.rng.dirichlet(sym[r, r:] + zeta)
                        cand[r, r:] = tail * scale
                        cand[r:, r] = cand[r, r:]
                    else:
                        cand[r, r] = scale
                if ok:
                    prop = cand
                    break
            if prop is None:
                raise NumericalError(
                    f"symmetric propensity redraw rejected {max_attempts} times"
                )
        self.prop = prop
        self._log_prop = np.log(np.maximum(prop, _EPS)).tolist()
        return prop

    # ------------------------------------------------------------ full run

    def sweep(self) -> None:
        us = self.rng.random(self.n)
        for i in range(self.n):
            self.update_block_assignment(i, float(us[i]))

    def iteration(self) -> None:
        self.sweep()
        for b in range(self.k):
            self.alpha[b], self.theta[b] = self.update_alpha_theta(b)
        self._refresh_deg_table()
        self.update_propensity()

    def log_prob(self) -> float:
        """Collapsed log-probability of (network, current labels, params)."""
        la = log_ascending_factorial
        k = self.k
        omega = self.config.block_conc
        zeta = self.config.recv_conc
        out = -la(k * omega, 1.0, self.network.m)
        for b in range(k):
            out += la(omega, 1.0, self.inits[b])
            v_b = self.block_n[b]
            if v_b:
                out += la(self.theta[b] + self.alpha[b], self.alpha[b], v_b - 1)
                out += self.sum_la[b]
                out -= la(self.theta[b] + 1.0, 1.0, self.block_deg[b] - 1)
            r_b = sum(self.pair[b])
            if r_b:
                out -= la(k * zeta, 1.0, r_b)
                for b2 in range(k):
                    out += la(zeta, 1.0, self.pair[b][b2])
        return out

    def run(self) -> Chain:
        cfg = self.config
        start = time.perf_counter()
        iters = cfg.iterations
        assignments = np.empty((iters, self.n), dtype=np.int32)
        alphas = np.empty((iters, self.k))
        thetas = np.empty((iters, self.k))
        props = np.empty((iters, self.k, self.k))
        log_probs = np.empty(iters)
        for t in range(iters):
            self.iteration()
            assignments[t] = self.labels
            alphas[t] = self.alpha
            thetas[t] = self.theta
            props[t] = self.prop
            log_probs[t] = self.log_prob()
        return Chain(
            k=self.k,
            burn_in=cfg.burn_in,
            seed=cfg.seed,
            node_ids=list(self.network.node_ids),
            assignments=assignments,
            alphas=alphas,
            thetas=thetas,
            props=props,
            log_probs=log_probs,
            block_conc=cfg.block_conc,
            recv_conc=cfg.recv_conc,
            elapsed_s=time.perf_counter() - start,
            prop_rejections=self.prop_rejections,
        )


def _group_by(keys: np.ndarray, values: np.ndarray, n: int) -> list[list[int]]:
    """values split by key: one list per key 0..n-1, each in input order."""
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    ordered = values[np.argsort(keys, kind="stable")].tolist()
    return [ordered[a:b] for a, b in zip([0] + ends[:-1], ends)]


def run_gibbs(network: InteractionNetwork, config: GibbsConfig) -> Chain:
    """Run one chain; equal seeds give identical chains."""
    return GibbsSampler(network, config).run()


def warm_start_labels(
    network: InteractionNetwork,
    config: GibbsConfig,
    prefix_m: int = 2500,
    probe_iterations: int = 120,
    probe_burn_in: int = 60,
) -> np.ndarray:
    """Initial labels from a short probe chain on a network prefix.

    From a uniform random start the single-site sweep can spend many
    hundreds of iterations near the symmetric configuration on large
    balanced networks; a probe fit on a prefix escapes quickly, and its
    majority labels (extended to unseen nodes by neighbor majority) put
    the full chain straight into the structured mode.  Deterministic
    given config.seed.
    """
    prefix = network.prefix(min(prefix_m, network.m))
    probe_cfg = GibbsConfig(
        k=config.k,
        iterations=probe_iterations,
        burn_in=probe_burn_in,
        seed=config.seed,
        block_conc=config.block_conc,
        recv_conc=config.recv_conc,
        alpha_prior=config.alpha_prior,
        theta_prior=config.theta_prior,
        symmetric_prop=config.symmetric_prop,
        init="random",
    )
    probe = run_gibbs(prefix, probe_cfg)
    prefix_hard = probe.majority_labels()

    labels = np.empty(network.n_nodes, dtype=np.int64)
    seen = np.zeros(network.n_nodes, dtype=bool)
    for i, name in enumerate(prefix.node_ids):
        full = network.node_index(name)
        labels[full] = prefix_hard[i]
        seen[full] = True

    # Spread outward by counterparty majority; leftovers get random labels.
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    for _ in range(3):
        # Unseen nodes carry the extra label k, whose column is dropped.
        known = np.where(seen, labels, config.k)
        counts = counterparty_counts(network, known, config.k + 1)[:, : config.k]
        fresh = ~seen & (counts.sum(axis=1) > 0)
        labels[fresh] = counts[fresh].argmax(axis=1)
        seen |= fresh
        if seen.all():
            break
    labels[~seen] = rng.integers(config.k, size=int((~seen).sum()))
    return labels
