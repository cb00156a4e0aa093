"""Checks of one pipeline's outputs against the reference computations in
``reference.py`` and against properties the method must have.

Each check is one named operation that passes or fails; a check whose
own computation raises counts as failed, with the exception as detail.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from workloads import Workload


class Checks:
    """Collects (name, passed, detail) for every check attempted."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def run(self, name: str, fn) -> None:
        """Record fn() -> (ok, detail); an exception fails the check."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken output must not stop the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(name, ok, detail)

    def group(self, name: str, fn) -> None:
        """Run fn(), which records its own checks; if it raises (an output
        is missing or unreadable), that is one more failed check."""
        try:
            fn()
        except Exception as exc:
            self.record(name, False, f"{type(exc).__name__}: {exc}")

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * max(1.0, abs(expected))


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def output_digest(base: Path) -> dict[str, str]:
    """sha256 of every CSV and JSONL output (manifests hold timestamps)."""
    files = sorted(p for p in base.rglob("*") if p.suffix in (".csv", ".jsonl"))
    return {
        str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


def check_pipeline(w: Workload, base: Path, checks: Checks) -> None:
    """Check the outputs under ``base`` of every command the workload runs."""
    net, problems = ref.read_jsonl(base / "net.jsonl")
    checks.record("simulate.lines", net.m == w.m, f"{net.m} interactions, expected {w.m}")
    checks.record("simulate.records", not problems, "; ".join(problems[:3]))

    truth_rows = _rows(base / "net_truth.csv")
    truth_map = {r["node"]: int(r["block"]) - 1 for r in truth_rows}
    checks.record(
        "simulate.truth_nodes",
        len(truth_rows) == len(truth_map) and set(truth_map) == set(net.node_ids),
        f"{len(truth_rows)} truth rows, {net.n} nodes in the network",
    )
    checks.record(
        "simulate.truth_labels",
        all(0 <= b < w.k for b in truth_map.values()),
        f"labels outside 1..{w.k}",
    )
    deg = ref.degrees(net)
    if "fit" in w.steps:
        fit = _check_fit(w, base / "chain", net, checks)
        if "eval" in w.steps:
            _check_eval(w, base / "metrics", net, truth_map, deg, fit, checks)
    if "stats" in w.steps:
        truth = np.array([truth_map[name] for name in net.node_ids])
        _check_stats(w, base / "stats", net, truth, deg, ref.first_appearance(net), checks)


def _check_fit(w: Workload, chain_dir: Path, net: ref.Network, checks: Checks):
    manifest = json.loads((chain_dir / "chain_manifest.json").read_text())
    k, burn_in = int(manifest["k"]), int(manifest["burn_in"])
    with open(chain_dir / "assignments.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        nodes = next(reader)[1:]
        assign = np.array([[int(x) for x in row[1:]] for row in reader], dtype=np.int64)
    checks.record(
        "fit.iterations", assign.shape == (w.iters, net.n),
        f"assignments {assign.shape}, expected ({w.iters}, {net.n})",
    )
    checks.record(
        "fit.nodes", sorted(nodes) == sorted(net.node_ids),
        "assignments.csv columns differ from the network's nodes",
    )
    checks.record(
        "fit.labels", assign.min() >= 1 and assign.max() <= k,
        f"labels span {assign.min()}..{assign.max()}, expected 1..{k}",
    )
    assign -= 1
    freq = ref.membership(assign, burn_in, k)

    def membership():
        rows = _rows(chain_dir / "membership.csv")
        got = np.array([[float(r[f"freq_{b + 1}"]) for b in range(k)] for r in rows])
        same_nodes = [r["node"] for r in rows] == nodes
        err = float(np.abs(got - freq).max())
        return same_nodes and err <= 1e-9, f"max |membership - recomputed| {err:.3g}"

    checks.run("fit.membership", membership)

    rows = _rows(chain_dir / "chain.csv")
    alphas = np.array([[float(r[f"alpha_{b + 1}"]) for b in range(k)] for r in rows])
    thetas = np.array([[float(r[f"theta_{b + 1}"]) for b in range(k)] for r in rows])
    props = np.array(
        [[[float(r[f"prop_{b + 1}_{c + 1}"]) for c in range(k)] for b in range(k)] for r in rows]
    )
    row_err = float(np.abs(props.sum(axis=2) - 1.0).max())
    checks.record("fit.mixing_rows", row_err <= 1e-8, f"max |row sum - 1| {row_err:.3g}")
    checks.record(
        "fit.alpha_range", np.all((alphas > 0) & (alphas < 1)), "an alpha outside (0, 1)"
    )
    checks.record("fit.theta_positive", np.all(thetas > 0), "a theta <= 0")

    def log_prob():
        index = net.index()
        labels = np.empty(net.n, dtype=np.int64)
        labels[[index[name] for name in nodes]] = assign[-1]
        expected = ref.collapsed_log_prob(
            net, labels, k, float(manifest["block_conc"]),
            float(manifest["recv_conc"]), alphas[-1], thetas[-1],
        )
        got = float(rows[-1]["log_prob"])
        return (
            abs(got - expected) <= 1e-8 * abs(expected),
            f"chain log_prob {got!r}, reference {expected!r}",
        )

    checks.run("fit.log_prob", log_prob)
    return nodes, assign, burn_in, k, freq


def _check_eval(w, metrics_dir, net, truth_map, deg, fit, checks: Checks) -> None:
    nodes, assign, burn_in, k, freq = fit
    truth = np.array([truth_map[name] for name in nodes])
    index = net.index()
    node_deg = deg[[index[name] for name in nodes]]

    if k == 2:
        def l2():
            got = float(_rows(metrics_dir / "l2.csv")[0]["l2"])
            expected = ref.l2_distance(freq, truth)
            return _close(got, expected, 1e-9), f"l2 {got!r}, reference {expected!r}"

        checks.run("eval.l2", l2)

    def cross_entropy():
        row = _rows(metrics_dir / "cross_entropy.csv")[0]
        total, per_node = ref.cross_entropy(freq, truth, k)
        ok = _close(float(row["total"]), total, 1e-9) and _close(
            float(row["per_node"]), per_node, 1e-9
        )
        return ok, f"cross entropy {row}, reference {total!r}, {per_node!r}"

    checks.run("eval.cross_entropy", cross_entropy)

    hard = ref.majority(assign, burn_in, k)
    rows = _rows(metrics_dir / "misclassification.csv")
    cutoffs = [1.0, math.log(net.m)]
    checks.record(
        "eval.misclass_cutoffs",
        len(rows) == len(cutoffs)
        and all(_close(float(r["cutoff"]), c, 1e-9) for r, c in zip(rows, cutoffs)),
        f"cutoffs {[r['cutoff'] for r in rows]}, expected {cutoffs}",
    )
    for r, cut in zip(rows, cutoffs):
        sel = node_deg >= cut
        expected = ref.misclassification(hard[sel], truth[sel], k)
        checks.record(
            f"eval.misclass@{float(r['cutoff']):.3g}",
            int(r["n_nodes"]) == int(sel.sum()) and _close(float(r["rate"]), expected, 1e-9),
            f"{r}, reference n_nodes {int(sel.sum())} rate {expected!r}",
        )
    if w.max_misclass is not None and rows:
        rate = float(rows[0]["rate"])
        checks.record(
            "method.misclass_cutoff1", rate < w.max_misclass,
            f"misclassification {rate:.4f} at cutoff 1, threshold {w.max_misclass}",
        )


def _check_stats(w, stats_dir, net, truth, deg, first, checks: Checks) -> None:
    expected = ref.degree_histogram(deg)
    got = {int(r["degree"]): int(r["count"]) for r in _rows(stats_dir / "degree_distribution.csv")}
    checks.record("stats.degree_histogram", got == expected, "histogram differs from the reference")
    checks.record(
        "stats.histogram_nodes", sum(got.values()) == net.n,
        f"histogram covers {sum(got.values())} nodes of {net.n}",
    )
    appearances = net.m + len(net.receivers)
    weighted = sum(d * c for d, c in got.items())
    checks.record(
        "stats.histogram_appearances", weighted == appearances,
        f"degree-weighted sum {weighted}, appearances {appearances}",
    )

    sparsity = {r["block"]: r for r in _rows(stats_dir / "sparsity.csv")}
    groups = [("global", None)] + [(str(b + 1), truth == b) for b in range(w.k)]
    for block, members in groups:
        want = ref.growth_counts(first, w.checkpoints, members)
        row = sparsity.get(block)
        have = None if row is None else [int(v) for v in row["v_counts"].split(";")]
        checks.record(f"stats.v_counts.{block}", have == want, f"v_counts {have}, reference {want}")

    if w.slope_tol is not None:
        powerlaw = {r["block"]: r for r in _rows(stats_dir / "powerlaw.csv")}
        for b, a in enumerate(w.alpha):
            slope = float(sparsity[str(b + 1)]["slope"])
            deg1 = float(powerlaw[str(b + 1)]["deg1_fraction"])
            checks.record(
                f"method.growth_slope.{b + 1}", abs(slope - a) <= w.slope_tol,
                f"block {b + 1} growth slope {slope:.4f}, discount {a}",
            )
            checks.record(
                f"method.deg1_fraction.{b + 1}", abs(deg1 - a) <= w.deg1_tol,
                f"block {b + 1} degree-one fraction {deg1:.4f}, discount {a}",
            )


def check_same_digest(name: str, digest: dict, base: Path, checks: Checks) -> None:
    """The CSV and JSONL outputs under base match an earlier output_digest."""
    now = output_digest(base)
    differ = sorted(f for f in set(digest) | set(now) if digest.get(f) != now.get(f))
    checks.record(name, bool(now) and not differ, f"differing outputs: {differ or 'none found'}")
