"""The benchmark's workloads: each is one network shape plus the sequence of
``bvcm`` commands a user runs on it (simulate, then some of fit -> eval ->
stats). They differ in where the time goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    alpha: tuple[float, ...]
    theta: tuple[float, ...]
    m: int
    arity: str
    mode: str
    prop_diag: Optional[float]
    omega: float
    zeta: float
    # None: the network's seed is the workload seed. A fixed value keeps
    # one network for every workload seed (only the fit seed varies).
    network_seed: Optional[int]
    iters: int
    burnin: int
    init: str
    checkpoints: tuple[int, ...]
    # The commands the workload runs, in this order.
    steps: tuple[str, ...]
    # Method property: misclassification at degree cutoff 1 must stay below this.
    max_misclass: Optional[float] = None
    # Method property: per block, the growth slope within slope_tol of the
    # discount and the degree-one fraction within deg1_tol of it.
    slope_tol: Optional[float] = None
    deg1_tol: Optional[float] = None


WORKLOADS = {
    w.name: w
    for w in (
        # The paper setting: small n, 120 warm-start probe sweeps plus 1000
        # main sweeps, evaluated against the truth. The network is the
        # fixed 433-node one of seed 7: across simulate seeds this
        # setting's node count spreads by a fifth (IQR over median), which
        # would swamp every fit time.
        Workload(
            name="paper", k=2, alpha=(0.5, 0.5), theta=(5.0, 5.0), m=2500,
            arity="1", mode="conditional_iid", prop_diag=0.9, omega=1.0,
            zeta=1.0, network_seed=7, iters=1000, burnin=200, init="warm",
            checkpoints=(), steps=("simulate", "fit", "eval"), max_misclass=0.15,
        ),
        # The ROADMAP's scale network (about 90 000 nodes), with few
        # iterations: per-node sweep cost, ingestion, chain I/O and the
        # k! = 120 label permutations in eval. A large strength (theta =
        # 1000) keeps the node count steady: 88 300-90 300 on seeds 1-10.
        Workload(
            name="scale", k=5, alpha=(0.6,) * 5, theta=(1000.0,) * 5, m=100000,
            arity="2", mode="conditional_iid", prop_diag=0.8, omega=1.0,
            zeta=1.0, network_seed=None, iters=4, burnin=1, init="random",
            checkpoints=(100, 1000, 10000, 100000),
            steps=("simulate", "fit", "eval", "stats"),
        ),
        # Long sequential-urn network with heavy-tailed degrees: the
        # generator, JSONL write/read and the degree/sparsity diagnostics.
        # No fit, so a sampler change must leave it unmoved. Large urn
        # concentrations keep both blocks populated on every seed, so the
        # per-block degree laws can be checked.
        Workload(
            name="degree", k=2, alpha=(0.6, 0.8), theta=(2.0, 30.0), m=300000,
            arity="0.5,0.3,0.2", mode="sequential", prop_diag=None,
            omega=50.0, zeta=50.0, network_seed=None, iters=0, burnin=0,
            init="random", checkpoints=(300, 3000, 30000, 300000),
            steps=("simulate", "stats"), slope_tol=0.1, deg1_tol=0.05,
        ),
    )
}


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def commands(w: Workload, seed: int, base: Path) -> list[tuple[str, list[str]]]:
    """The workload's CLI commands, in order, with every path under ``base``."""
    net = str(base / "net.jsonl")
    truth = str(base / "net_truth.csv")
    simulate = [
        "simulate", "--k", str(w.k), "--alpha", _csv(w.alpha),
        "--theta", _csv(w.theta), "--m", str(w.m), "--arity", w.arity,
        "--mode", w.mode, "--omega", f"{w.omega:g}", "--zeta", f"{w.zeta:g}",
        "--seed", str(seed if w.network_seed is None else w.network_seed),
        "--out", net,
    ]
    if w.prop_diag is not None:
        simulate += ["--prop-diag", f"{w.prop_diag:g}"]
    every = [
        ("simulate", simulate),
        ("fit", [
            "fit", "--input", net, "--k", str(w.k), "--iters", str(w.iters),
            "--burnin", str(w.burnin), "--seed", str(seed), "--init", w.init,
            "--out", str(base / "chain"),
        ]),
        ("eval", [
            "eval", "--input", net, "--chain", str(base / "chain"),
            "--truth", truth, "--out", str(base / "metrics"),
        ]),
        ("stats", [
            "stats", "--input", net, "--truth", truth, "--checkpoints",
            ",".join(str(c) for c in w.checkpoints), "--out", str(base / "stats"),
        ]),
    ]
    return [(name, argv) for name, argv in every if name in w.steps]


# Every command's fixed cost: a fresh interpreter that imports the package
# and parses its arguments, with negligible work after that.
SETUP_COMMAND = ["bound", "--alpha", "0.5", "--a", "0.9", "--gamma1", "0.9", "--gamma2", "0.9"]
