"""Spans around the ``bvcm`` layers, installed from outside the package.

``Tracer.install`` wraps every public function of each ``bvcm`` module
(its ``__all__``) and the sampler's phase methods. Callers often import
a function by name (``from .gibbs import run_gibbs``), so the wrapper
replaces the name in every ``bvcm`` module that holds the same function
object, which is where those callers look it up. Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager

MODULES = ("core", "fileio", "generator", "gibbs", "likelihood", "consistency", "metrics")
# log_ascending_factorial is called per factor inside loops, so a span each
# would measure the tracer; atomic_write returns a context manager, so its
# span would time only the manager's creation.
SKIP = {"log_ascending_factorial", "atomic_write"}
SAMPLER_PHASES = {
    "__init__": "gibbs.init",
    "iteration": "gibbs.iteration",
    "sweep": "gibbs.sweep",
    "update_alpha_theta": "gibbs.aux",
    "_refresh_deg_table": "gibbs.deg_table",
    "update_propensity": "gibbs.propensity",
    "log_prob": "gibbs.log_prob",
}


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its record so callers can add counts."""
        rec = {
            "id": len(self.spans), "name": name, "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_sweep(self, fn):
        """Sweep span with the node count and how many labels changed."""

        def sweep(sampler):
            before = list(sampler.labels)
            with self.span("gibbs.sweep") as rec:
                fn(sampler)
            rec["n"] = sampler.n
            rec["moved"] = sum(a != b for a, b in zip(before, sampler.labels))

        return sweep

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module(f"bvcm.{m}") for m in MODULES]
        holders = [sys.modules[n] for n in list(sys.modules) if n == "bvcm" or n.startswith("bvcm.")]
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if attr in SKIP or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, name, wrapper)
        sampler = importlib.import_module("bvcm.gibbs").GibbsSampler
        for attr, name in SAMPLER_PHASES.items():
            fn = vars(sampler)[attr]
            wrapper = self._wrap_sweep(fn) if attr == "sweep" else self._wrap(name, fn)
            self._patch(sampler, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # ------------------------------------------------------------ summaries

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time (total minus the
        time its direct child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict] = {}
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            row = out.setdefault(rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[rec["id"]]
        return out

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics that come from spans (see BENCHMARK.json)."""

        def total(name):
            return sum(self.durations(name))

        def median(values):
            return statistics.median(values) if values else 0.0

        sweeps = [r for r in self.spans if r["name"] == "gibbs.sweep"]
        aux_per_iter: dict[int, float] = {}
        for r in self.spans:
            if r["name"] == "gibbs.aux" and r["parent"] is not None:
                aux_per_iter[r["parent"]] = aux_per_iter.get(r["parent"], 0.0) + r["end"] - r["start"]
        updates = sum(r["n"] for r in sweeps)
        return {
            "cli.simulate_s": total("cli.simulate"),
            "cli.fit_s": total("cli.fit"),
            "cli.eval_s": total("cli.eval"),
            "cli.stats_s": total("cli.stats"),
            "generator.simulate_s": total("generator.simulate"),
            "fileio.write_jsonl_s": total("fileio.write_interactions_jsonl"),
            "fileio.read_jsonl_s": total("fileio.read_interactions_jsonl"),
            "fileio.read_truth_s": total("fileio.read_assignment_csv"),
            "fileio.write_chain_s": total("fileio.write_chain"),
            "fileio.read_chain_s": total("fileio.read_chain"),
            "core.degree_distribution_s": total("core.degree_distribution"),
            "core.compute_stats_s": median(self.durations("core.compute_stats")),
            "likelihood.log_prob_s": median(self.durations("likelihood.log_prob_sequential")),
            "gibbs.warm_start_s": total("gibbs.warm_start_labels"),
            "gibbs.init_s": total("gibbs.init"),
            "gibbs.sweep_s": median([r["end"] - r["start"] for r in sweeps]),
            "gibbs.update_us": median([1e6 * (r["end"] - r["start"]) / r["n"] for r in sweeps]),
            "gibbs.aux_s": median(list(aux_per_iter.values())),
            "gibbs.deg_table_s": median(self.durations("gibbs.deg_table")),
            "gibbs.propensity_s": median(self.durations("gibbs.propensity")),
            "gibbs.log_prob_s": median(self.durations("gibbs.log_prob")),
            "gibbs.node_updates": float(updates),
            "gibbs.moved_fraction": sum(r["moved"] for r in sweeps) / updates if updates else 0.0,
            "consistency.misclass_s": total("consistency.restricted_misclassification"),
            "metrics.cross_entropy_s": total("metrics.cross_entropy_loss"),
            "metrics.powerlaw_s": total("metrics.powerlaw_diagnostic"),
            "metrics.sparsity_s": total("metrics.sparsity_growth"),
        }
