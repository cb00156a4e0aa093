"""Gibbs sampler over block assignments, urn parameters and the mixing matrix.

One full iteration is: a sweep of collapsed single-node block updates
(block frequencies integrated out, mixing matrix conditioned on), one
auxiliary-variable conjugate update of (alpha_b, theta_b) per block,
and a row-wise Dirichlet redraw of the mixing matrix.  Every count is
in one ``SufficientStats``, ``GibbsSampler.stats``: ``compute_stats``
makes it when labels are set, and the sweep keeps each field current
node by node, the per-block degree histogram included.  The (alpha,
theta) updates read the histogram's rows and write ``alpha`` and
``theta`` in place, and ``log_prob`` is ``log_prob_from_stats`` on
``stats`` itself.

The sweep state is numpy arrays (int64 labels and counts, CSR
neighbour lists, float64 mixing matrix, its log and a degree table laid
out like the degree histogram), updated in place.  When the compiled
kernel in ``_sweep.c`` builds, every phase runs there on the arrays and
the sampler's own generator: ``sweep()``, ``update_alpha_theta``,
``_refresh_deg_table``, ``update_propensity`` and ``log_prob``.  The
Python paths (``_ListSweep``, over a list copy of the state,
``aux_update_alpha_theta``, numpy's ``Generator.dirichlet`` and
``log_prob_from_stats``) are the references the kernel matches bit for
bit, and the fallback.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _sweep
from .core import BlockAssignment, InteractionNetwork, compute_stats, counterparty_counts
from .errors import UsageError
from .likelihood import log_discount_factorial, log_prob_from_stats

__all__ = [
    "GibbsConfig",
    "Chain",
    "GibbsSampler",
    "run_gibbs",
    "warm_start_labels",
    "aux_update_alpha_theta",
]

_EPS = 1e-12
# The SufficientStats fields the sweep updates in place.
_COUNTS = ("block_sizes", "block_deg", "initiations", "pair", "deg_hist")


@dataclass
class GibbsConfig:
    """Sampler settings.

    alpha_prior is the Beta(c, d) prior on each discount parameter,
    theta_prior the Gamma(shape, rate) prior on each strength
    parameter.  block_conc / recv_conc are the fixed urn
    concentrations.  init is one of random | degree_majority | warm
    (labels from ``warm_start_labels``).
    """

    k: int
    iterations: int
    burn_in: int = 0
    seed: int = 0
    block_conc: float = 1.0
    recv_conc: float = 1.0
    alpha_prior: tuple[float, float] = (1.0, 1.0)
    theta_prior: tuple[float, float] = (1.0, 1.0)
    init: str = "random"

    def __post_init__(self):
        if self.k < 1:
            raise UsageError(f"k must be >= 1, got {self.k}")
        if not self.iterations > self.burn_in >= 0:
            raise UsageError(
                f"need iterations > burn_in >= 0, got {self.iterations}, {self.burn_in}"
            )
        for name in ("block_conc", "recv_conc", "alpha_prior", "theta_prior"):
            if not np.all(np.greater(getattr(self, name), 0)):  # NaN fails too
                raise UsageError(f"{name} must be positive", name)
        if self.init not in ("random", "degree_majority", "warm"):
            raise UsageError(f"unknown init {self.init!r}")


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
    sweep_backend: str = "python"  # "c" (compiled kernel) or "python"
    nodes_moved: int = 0  # label changes summed over every sweep

    def __len__(self) -> int:
        return len(self.alphas)

    @property
    def n_nodes(self) -> int:
        return self.assignments.shape[1]

    def post_assignments(self) -> np.ndarray:
        return self.assignments[self.burn_in:]

    def block_counts(self) -> np.ndarray:
        """counts[i, b]: post-burn-in samples that put node i in block b."""
        post = self.post_assignments()
        n = self.n_nodes
        cells = np.arange(n) * self.k + post
        return np.bincount(cells.ravel(), minlength=n * self.k).reshape(n, self.k)


def _clip_alpha(x: float) -> float:
    return min(max(x, _EPS), 1.0 - _EPS)


def _prior_draw(alpha_prior, theta_prior, rng: np.random.Generator) -> tuple[float, float]:
    """(alpha, theta) from the Beta prior, then the Gamma prior."""
    new_alpha = _clip_alpha(rng.beta(*alpha_prior))
    return new_alpha, max(rng.gamma(theta_prior[0], 1.0 / theta_prior[1]), _EPS)


def aux_update_alpha_theta(
    hist,
    alpha: float,
    theta: float,
    alpha_prior: tuple[float, float],
    theta_prior: tuple[float, float],
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Conjugate redraw of one block's (discount, strength) pair.

    ``hist[d]`` is the number of the block's nodes of degree d (a row of
    the sampler's degree histogram, the layout ``block_eppf`` takes;
    entry 0 must be 0).  The node count, total degree, maximum degree
    and tail counts are read off the row.  Three auxiliary draws split
    the urn's likelihood into conjugate pieces: a Beta variable for the
    strength denominator (skipped when the block holds fewer than two
    appearances), one Bernoulli per distinct node beyond the first, and
    one Bernoulli per repeat appearance of each node.  An empty block
    falls back to the priors so it can be repopulated later.
    """
    c_hyp, d_hyp = alpha_prior
    a_hyp, b_hyp = theta_prior
    hist = np.asarray(hist, dtype=np.int64)
    present = np.flatnonzero(hist)
    if present.size == 0:
        return _prior_draw(alpha_prior, theta_prior, rng)
    max_d = int(present[-1])
    hist = hist[: max_d + 1]
    v_b = int(hist.sum())
    m_b = int(hist @ np.arange(max_d + 1))

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
    if max_d > 1:
        # n_j = number of block members with degree > j, j = 1..max_d-1
        n_j = np.cumsum(hist[:1:-1])[::-1]
        j = np.arange(1, max_d, dtype=float)
        p_not = (1.0 - alpha) / (j - alpha)
        sum_not_z = float(rng.binomial(n_j, p_not).sum())

    new_theta = max(rng.gamma(a_hyp + sum_y, 1.0 / rate), _EPS)
    new_alpha = _clip_alpha(rng.beta(c_hyp + sum_not_y, d_hyp + sum_not_z))
    return new_alpha, new_theta


class _Labels(np.ndarray):
    """int64 block labels whose iteration yields Python ints, so code that
    walks the labels node by node (say, counting moved nodes and writing
    the count as JSON) gets plain ints, as it did from the label list.

    Only perfbench's ``--trace`` sweep span relies on this; remove the
    subclass once that span reads ``nodes_moved`` (ROADMAP item 2)."""

    def __iter__(self):
        return iter(self.tolist())


class _ListSweep:
    """The Python single-site sweep, on a list copy of a sampler's state.

    Plain lists index far faster than numpy scalars, so the copy is made
    once per sweep and ``store`` writes the labels and counts back; the
    counts keep their ``SufficientStats`` names.  This is the reference
    the compiled kernel (``_sweep.c``) matches bit for bit; the tests'
    single-node oracles (``tests/oracles.py``) run its ``detach``,
    ``log_weights_detached`` and ``update`` on one node.
    """

    def __init__(self, sampler: "GibbsSampler"):
        self.k = sampler.k
        self.omega = sampler.config.block_conc
        (self.deg, self.node_inits, self.self_pairs,
         self.out_nbrs, self.in_nbrs) = sampler._node_lists
        self.labels = sampler.labels.tolist()
        for name in _COUNTS:
            setattr(self, name, getattr(sampler.stats, name).tolist())
        self.logb = sampler._log_prop.tolist()
        self.la_deg = sampler._la_deg.tolist()
        self.alpha = sampler.alpha.tolist()
        self.theta = sampler.theta.tolist()

    def store(self, sampler: "GibbsSampler") -> None:
        sampler.labels[...] = self.labels
        for name in _COUNTS:
            getattr(sampler.stats, name)[...] = getattr(self, name)

    def detach(self, i: int) -> None:
        b = self.labels[i]
        d = self.deg[i]
        self.block_sizes[b] -= 1
        self.block_deg[b] -= d
        self.initiations[b] -= self.node_inits[i]
        self.deg_hist[b][d] -= 1

    def reattach(self, i: int, b: int) -> None:
        old = self.labels[i]
        d = self.deg[i]
        self.block_sizes[b] += 1
        self.block_deg[b] += d
        self.initiations[b] += self.node_inits[i]
        self.deg_hist[b][d] += 1
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

    def log_weights_detached(self, i: int) -> list[float]:
        """Unnormalized log conditional over blocks for a detached node i."""
        k = self.k
        lab = self.labels
        lgamma = math.lgamma
        log = math.log
        d_i = self.deg[i]
        l_i = self.node_inits[i]
        sp = self.self_pairs[i]
        logb = self.logb

        cnt_out = [0] * k
        for r in self.out_nbrs[i]:
            cnt_out[lab[r]] += 1
        cnt_in = [0] * k
        for s in self.in_nbrs[i]:
            cnt_in[lab[s]] += 1

        omega = self.omega
        initiations = self.initiations
        block_sizes = self.block_sizes
        block_deg = self.block_deg
        la_deg = self.la_deg
        alpha = self.alpha
        theta = self.theta
        weights = []
        for b in range(k):
            w = 0.0
            if l_i:
                w = lgamma(omega + initiations[b] + l_i) - lgamma(omega + initiations[b])
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
            vb = block_sizes[b]
            if vb:
                w += log(th + vb * alpha[b])
            w += la_deg[b][d_i]
            md = block_deg[b]
            if md:
                w += lgamma(th + md) - lgamma(th + md + d_i)
            else:
                w += lgamma(th + 1.0) - lgamma(th + d_i)
            weights.append(w)
        return weights

    def update(self, i: int, u: float) -> int:
        """Draw node i's block by inverting the uniform u; returns it."""
        k = self.k
        self.detach(i)
        weights = self.log_weights_detached(i)
        mx = max(weights)
        exp = math.exp
        probs = [exp(w - mx) for w in weights]
        # Plain left-to-right sum, as in the kernel (sum() of floats is
        # compensated from Python 3.12 on).
        total = 0.0
        for p in probs:
            total += p
        r = u * total
        b = k - 1
        for j in range(k - 1):
            r -= probs[j]
            if r < 0.0:
                b = j
                break
        self.reattach(i, b)
        return b

    def sweep(self, us: list[float]) -> int:
        """Node i updated with us[i], in node order; returns the moves."""
        labels = self.labels
        moved = 0
        for i, u in enumerate(us):
            old = labels[i]
            moved += self.update(i, u) != old
        return moved


def _csr(keys: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, idx): values grouped by key 0..n-1, each group in input order."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return offsets, np.ascontiguousarray(values[np.argsort(keys, kind="stable")], dtype=np.int64)


class GibbsSampler:
    """Mutable sampler state plus the three conditional updates."""

    def __init__(self, network: InteractionNetwork, config: GibbsConfig):
        if network.m == 0:
            raise UsageError("cannot run the sampler on an empty network")
        self.network = network
        self.config = config
        self.k = k = config.k
        self.rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        n = network.n_nodes
        self.n = n

        self.deg = np.ascontiguousarray(network.degrees(), dtype=np.int64)
        # Count aggregates treat every tracked node as non-isolated.
        if self.deg.min() == 0:
            raise UsageError("network node table contains isolated nodes")
        s_pair, r_pair = network.pairs()
        loop = s_pair == r_pair
        s_out, r_in = s_pair[~loop], r_pair[~loop]
        self.node_inits = np.bincount(network.senders, minlength=n)
        self.out_off, self.out_idx = _csr(s_out, r_in, n)
        self.in_off, self.in_idx = _csr(r_in, s_out, n)
        self.self_pairs = np.bincount(s_pair[loop], minlength=n)
        # The degrees that occur: the degree table's only live columns.
        self._degrees = np.flatnonzero(np.bincount(self.deg))

        # The sweep state: labels, the counts in ``stats`` and the
        # parameters.  The compiled kernel holds pointers to these arrays,
        # so every update writes into them in place.
        self.labels = np.array(self._initial_labels(), dtype=np.int64).view(_Labels)
        self.stats = compute_stats(network, BlockAssignment(self.labels, k))
        self.alpha = np.empty(k)
        self.theta = np.empty(k)
        self.prop = np.empty((k, k))
        self._log_prop = np.empty((k, k))
        self._la_deg = np.zeros(self.stats.deg_hist.shape)
        self._uniforms = np.empty(n)
        self.nodes_moved = 0

        for blk in range(k):
            self.alpha[blk], self.theta[blk] = _prior_draw(
                config.alpha_prior, config.theta_prior, self.rng
            )

        self._kernel = _sweep.load()
        self.sweep_backend = "python" if self._kernel is None else "c"
        if self._kernel is not None:
            self._state = _sweep.bind(
                dict(
                    labels=self.labels, deg=self.deg, degrees=self._degrees,
                    node_inits=self.node_inits, self_pairs=self.self_pairs,
                    out_off=self.out_off, out_idx=self.out_idx, in_off=self.in_off,
                    in_idx=self.in_idx, prop=self.prop, log_prop=self._log_prop,
                    la_deg=self._la_deg, alpha=self.alpha, theta=self.theta,
                    prior=np.array([*config.alpha_prior, *config.theta_prior], dtype=float),
                    uniforms=self._uniforms,
                    **{name: getattr(self.stats, name) for name in _COUNTS},
                ),
                self.rng, block_conc=config.block_conc, recv_conc=config.recv_conc,
            )
        self._refresh_deg_table()
        self.update_propensity()

    # ---------------------------------------------------------------- setup

    def _initial_labels(self) -> np.ndarray:
        cfg = self.config
        if cfg.init == "warm":
            return warm_start_labels(self.network, cfg)
        labels = self.rng.integers(self.k, size=self.n)
        if cfg.init == "degree_majority":
            if self.k != 2:
                raise UsageError("degree_majority init requires k = 2")
            from .consistency import degree_majority_update

            assignment = BlockAssignment(labels, 2)
            for _ in range(2):
                assignment = degree_majority_update(self.network, assignment)
            labels = assignment.labels
        return labels

    def set_labels(self, labels) -> None:
        """Set every node's block and recount ``stats`` for them, in place
        (the compiled kernel holds pointers to its arrays).  The hook a
        resumed fit is to restore its saved labels through; tests start
        the sampler from chosen labels with it."""
        self.labels[...] = labels
        fresh = compute_stats(self.network, BlockAssignment(self.labels, self.k))
        for name in _COUNTS:
            getattr(self.stats, name)[...] = getattr(fresh, name)

    def _refresh_deg_table(self) -> None:
        """Per-block log (1 - alpha_b)_{d-1} in column d, the layout of
        ``stats.deg_hist``, for each degree d some node has."""
        if self._kernel is not None:
            self._kernel.bvcm_deg_table(self._state)
        else:
            self._la_deg[:, self._degrees] = log_discount_factorial(
                self._degrees, self.alpha[:, None]
            )

    # ------------------------------------------------------- block updates
    #
    # The Python path (_ListSweep) is the reference the compiled sweep
    # (_sweep.c) matches bit for bit, and the fallback when it cannot be
    # built.

    @functools.cached_property
    def _node_lists(self) -> tuple[list, ...]:
        """Per node, as lists for _ListSweep: degree, initiations,
        self-pairs, out-neighbours and in-neighbours (loops excluded)."""

        def grouped(off, idx):
            off, idx = off.tolist(), idx.tolist()
            return [idx[off[i] : off[i + 1]] for i in range(self.n)]

        return (
            self.deg.tolist(),
            self.node_inits.tolist(),
            self.self_pairs.tolist(),
            grouped(self.out_off, self.out_idx),
            grouped(self.in_off, self.in_idx),
        )

    # --------------------------------------------------- parameter updates

    def update_alpha_theta(self, b: int) -> tuple[float, float]:
        """Auxiliary-variable conjugate redraw of (alpha_b, theta_b) from
        block b's row of ``stats.deg_hist``, into ``alpha[b]`` and
        ``theta[b]``; returns the new pair.  Runs in the kernel when it
        is loaded, with the draws of ``aux_update_alpha_theta``."""
        if self._kernel is not None:
            # range() checks b as numpy would before C reads row b.
            self._kernel.bvcm_aux_block(self._state, range(self.k)[b])
        else:
            cfg = self.config
            self.alpha[b], self.theta[b] = aux_update_alpha_theta(
                self.stats.deg_hist[b], self.alpha[b], self.theta[b], cfg.alpha_prior,
                cfg.theta_prior, self.rng,
            )
        return float(self.alpha[b]), float(self.theta[b])

    def update_propensity(self) -> np.ndarray:
        """Redraw the mixing matrix ``prop`` from its row-wise Dirichlet
        conditional, in place, and return a copy.  The kernel makes the
        draws of ``Generator.dirichlet``, in the same order."""
        if self._kernel is not None:
            self._kernel.bvcm_propensity(self._state)
            return self.prop.copy()
        zeta = self.config.recv_conc
        counts = np.array(self.stats.pair, dtype=float)
        for b in range(self.k):
            self.prop[b] = self.rng.dirichlet(counts[b] + zeta)
        # libm's log, as in the kernel: numpy's vectorised log can
        # differ from it in the last bit, and the sweep reads these.
        self._log_prop[...] = [
            [math.log(max(p, _EPS)) for p in row] for row in self.prop.tolist()
        ]
        return self.prop.copy()

    # ------------------------------------------------------------ full run

    def sweep(self) -> int:
        """One pass of single-node updates in node order; returns how many
        nodes changed block (also added to nodes_moved)."""
        us = self.rng.random(out=self._uniforms)
        if self._kernel is not None:
            moved = self._kernel.bvcm_sweep(self._state)
        else:
            ref = _ListSweep(self)
            moved = ref.sweep(us.tolist())
            ref.store(self)
        self.nodes_moved += moved
        return moved

    def iteration(self) -> None:
        self.sweep()
        for b in range(self.k):
            self.update_alpha_theta(b)
        self._refresh_deg_table()
        self.update_propensity()

    def log_prob(self) -> float:
        """Collapsed log-probability of (network, current labels, params):
        log_prob_sequential at the current sample, from the counts the
        sweep keeps in ``stats``; the kernel's ``bvcm_log_prob`` gives the
        bits of ``log_prob_from_stats``."""
        if self._kernel is not None:
            return self._kernel.bvcm_log_prob(self._state)
        cfg = self.config
        return log_prob_from_stats(
            self.stats, cfg.block_conc, cfg.recv_conc, self.alpha, self.theta
        ).value

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
            sweep_backend=self.sweep_backend,
            nodes_moved=self.nodes_moved,
        )


def run_gibbs(network: InteractionNetwork, config: GibbsConfig) -> Chain:
    """Run one chain; equal seeds give identical chains."""
    return GibbsSampler(network, config).run()


def warm_start_labels(network: InteractionNetwork, config: GibbsConfig) -> np.ndarray:
    """Initial labels from a short probe chain on a network prefix.

    From a uniform random start the single-site sweep can spend many
    hundreds of iterations near the symmetric configuration on large
    balanced networks.  A 120-iteration probe chain on the first 2 500
    interactions escapes quickly; each of its nodes takes the label it
    held most often in the last 60 (ties -> lowest label), and the other
    nodes take their counterparties' majority.  Deterministic given
    config.seed.
    """
    prefix = network.prefix(min(2500, network.m))
    probe_cfg = dataclasses.replace(config, iterations=120, burn_in=60, init="random")
    votes = run_gibbs(prefix, probe_cfg).block_counts()

    labels = np.empty(network.n_nodes, dtype=np.int64)
    seen = np.zeros(network.n_nodes, dtype=bool)
    full = np.fromiter(
        map(network.node_index, prefix.node_ids), dtype=np.int64, count=prefix.n_nodes
    )
    labels[full] = votes.argmax(axis=1)
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
