"""Benchmark of the bvcm command-line pipeline.

Run from the root of a bvcm checkout:

    python3 perfbench/run.py --workload paper --seed 7 --seconds 30 --trace 0

With ``--trace 0`` each workload's commands (simulate, then some of fit ->
eval -> stats) run as fresh ``python -m bvcm.cli`` subprocesses, one after
the other from this single process (a closed loop with one client), in as
many whole repetitions as fit in ``--seconds`` (at least one), each command
preceded by one set-up sample and one calibration sample; every end-to-end
metric is the median over repetitions or samples, and times are given in
reference seconds (see CALIBRATION). ``--trace 1`` instead runs the same
commands in this process through ``bvcm.cli.main`` with spans around each
layer, and reports the per-layer metrics. Either way the outputs are
checked against ``reference.py``, and the last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SETUP_COMMAND, WORKLOADS, commands  # noqa: E402

# Set-up samples per run at least: one precedes every command, and any
# still missing are taken at the end.
SETUP_SAMPLES = 4

# A fixed program that runs no bvcm code, timed in a fresh interpreter like
# every command: it measures how fast the machine is at the moment. On a
# shared host that speed drifts by up to a half over minutes and moves every
# wall time with it (README, "Calibration"). Reported times are therefore in
# reference seconds, i.e. seconds on a machine that runs the calibration in
# CALIBRATION_REFERENCE_S: a set-up sample is divided by the calibration
# sample right after it, and the pipeline by the median calibration time of
# its run.
CALIBRATION = [sys.executable, "-c", (
    # arithmetic over a small, cache-resident dict ...
    "s = 0.0\n"
    "small = {}\n"
    "for i in range(300000):\n"
    "    k = i % 5003\n"
    "    small[k] = small.get(k, 0) + 1\n"
    "    s += (i * 0.5) ** 0.5\n"
    # ... then allocation over tens of MB
    "big = {}\n"
    "for i in range(400000):\n"
    "    big[str(i)] = [i, i * 0.5]\n"
    "for v in big.values():\n"
    "    s += v[1]\n"
)]
CALIBRATION_REFERENCE_S = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time to measure (commands with their set-up and calibration "
                        "samples): as many whole repetitions as fit, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ------------------------------------------------------------ untraced run


def run_process(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB (the child's own rusage) and exit code."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def run_command(name: str, argv: list[str], env: dict, log: Path, checks) -> tuple[float, float] | None:
    """Wall seconds and peak RSS of one run of ``argv``, or None if it
    failed; either way it is one recorded operation."""
    seconds, rss, code = run_process(argv, env, log)
    checks.record(f"command.{name}", code == 0, f"exited {code}")
    return (seconds, rss) if code == 0 else None


def bvcm(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "bvcm.cli", *argv]


def run_pipeline(w, seed: int, base: Path, env: dict, log: Path, checks, samples) -> dict | None:
    """One repetition of the workload's commands, each after set-up and
    calibration samples; None if a command failed."""
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    rep = {"rss": 0.0}
    cmds = commands(w, seed, base)
    for i, (name, argv) in enumerate(cmds):
        samples()
        done = run_command(name, bvcm(argv), env, log, checks)
        if done is None:
            # The rest read this command's output: they fail with it.
            for later, _ in cmds[i + 1:]:
                checks.record(f"command.{later}", False, f"not run: {name} failed")
            return None
        rep[name] = done[0]
        rep["rss"] = max(rep["rss"], done[1])
    rep["pipeline"] = sum(rep[name] for name, _ in cmds)
    rep["output_mb"] = sum(p.stat().st_size for p in base.rglob("*") if p.is_file()) / 1e6
    return rep


def measure(args, w, out: Path, env: dict, checks) -> dict:
    from checks import check_pipeline, check_same_digest, output_digest

    log = out / "commands.log"
    setup: list[tuple[float, float]] = []  # (wall, calibration right after)
    calibration: list[float] = []
    setup_tries = 0

    def samples(setup_too=True):
        nonlocal setup_tries
        if setup_too:
            setup_tries += 1
            done = run_command("bound", bvcm(SETUP_COMMAND), env, log, checks)
        cal = run_command("calibration", CALIBRATION, env, log, checks)
        if cal is not None:
            calibration.append(cal[0])
            if setup_too and done is not None:
                setup.append((done[0], cal[0]))

    base = out / "pipeline"
    reps: list[dict] = []
    digest = None
    measured = last = 0.0
    # Whole repetitions only, and no more than fit in --seconds after the
    # first, so the run length does not depend on how far the last one
    # overshoots. A repetition's time here includes its samples, the last
    # calibration sample after its last command among them.
    while not reps or measured + last <= args.seconds:
        start = time.perf_counter()
        rep = run_pipeline(w, args.seed, base, env, log, checks, samples)
        samples(setup_too=False)
        last = time.perf_counter() - start
        if rep is None:
            break
        reps.append(rep)
        measured += last
        if digest is None:
            checks.group("outputs", lambda: check_pipeline(w, base, checks))
            digest = output_digest(base)
        else:
            check_same_digest(f"determinism.rep{len(reps)}", digest, base, checks)
    while setup_tries < SETUP_SAMPLES:
        samples()
    if not reps or not setup or not calibration:
        return {}

    def med(key):
        return statistics.median(r[key] for r in reps)

    # Single commands spread too much from run to run on a shared host to
    # carry a bound (README); their medians are printed for reading only.
    print(f"{w.name}: {len(reps)} repetitions, {measured:.1f}s measured; calibration "
          f"{statistics.median(calibration):.3f}s; median wall s: setup "
          f"{statistics.median(s for s, _ in setup):.3f}, pipeline {med('pipeline'):.3f}, "
          + ", ".join(f"{name} {med(name):.3f}" for name, _ in commands(w, args.seed, base)),
          file=sys.stderr)
    return {
        "setup_s": statistics.median(s * CALIBRATION_REFERENCE_S / c for s, c in setup),
        "pipeline_s": med("pipeline") * CALIBRATION_REFERENCE_S / statistics.median(calibration),
        "peak_rss_mb": med("rss"),
        "output_mb": med("output_mb"),
    }


# -------------------------------------------------------------- traced run


def run_in_process(cli, cmds, checks, tracer=None) -> float:
    """Run the commands through bvcm.cli.main, each in a span of the tracer
    if one is given; wall seconds of the whole sequence."""
    gc.collect()  # so that no pass pays for the garbage of the one before
    start = time.perf_counter()
    for name, argv in cmds:
        span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        checks.record(f"command.{name}", code == 0, f"exited {code}")
    return time.perf_counter() - start


def measure_traced(args, w, root: Path, out: Path, checks) -> dict:
    # Import the package first, before anything else loads numpy or scipy.
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import bvcm.cli as cli

    import_s = time.perf_counter() - start
    from bvcm import core, fileio, likelihood

    from checks import check_pipeline, check_same_digest, output_digest
    from tracing import Tracer

    plain_dir, traced_dir = out / "untraced", out / "traced"

    def plain_pass() -> float:
        shutil.rmtree(plain_dir, ignore_errors=True)
        return run_in_process(cli, commands(w, args.seed, plain_dir), checks)

    # Plain and traced passes alternate, starting and ending plain: the
    # overhead of a traced pass is measured against the plain passes on
    # either side of it, which cancels drift in the machine's speed.
    passes, plain_s, traced_s = [], [plain_pass()], []
    while not passes or sum(plain_s) + sum(traced_s) + plain_s[-1] + traced_s[-1] <= args.seconds:
        shutil.rmtree(traced_dir, ignore_errors=True)
        tracer = Tracer(w.name)
        tracer.install()
        try:
            traced_s.append(run_in_process(cli, commands(w, args.seed, traced_dir), checks, tracer))
            # No CLI command calls these two; time one direct call of each
            # on the workload's network and truth.
            tracer.uninstall()
            net = fileio.read_interactions_jsonl(traced_dir / "net.jsonl")
            truth = fileio.read_assignment_csv(traced_dir / "net_truth.csv", net, k=w.k)
            with tracer.span("core.compute_stats"):
                core.compute_stats(net, truth)
            with tracer.span("likelihood.log_prob_sequential"):
                likelihood.log_prob_sequential(net, truth, w.omega, w.zeta, w.alpha, w.theta)
            del net, truth
        finally:
            tracer.uninstall()
        passes.append(tracer.metrics())
        plain_s.append(plain_pass())

    tracer.write(out / "spans.jsonl")
    (out / "layers.json").write_text(json.dumps(tracer.layers(), indent=2, sort_keys=True) + "\n")
    checks.group("outputs", lambda: check_pipeline(w, traced_dir, checks))
    checks.group("trace.outputs_identical", lambda: check_same_digest(
        "trace.outputs_identical", output_digest(plain_dir), traced_dir, checks))

    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["cli.import_s"] = import_s
    chain = plain_dir / "chain"
    metrics["fileio.chain_mb"] = (
        sum(p.stat().st_size for p in chain.iterdir()) / 1e6 if chain.is_dir() else 0.0
    )
    metrics["core.network_bytes_per_interaction"] = network_bytes(fileio, plain_dir / "net.jsonl", out)
    metrics["trace.overhead_s"] = statistics.median(
        t - (before + after) / 2 for t, before, after in zip(traced_s, plain_s, plain_s[1:])
    )
    print(f"{w.name}: {len(passes)} traced passes; untraced {plain_s}, traced {traced_s}",
          file=sys.stderr)
    return metrics


# Interactions read for the memory pass: enough for a steady per-interaction
# figure, few enough that the slowed read stays short on every workload.
MEMORY_PASS_LINES = 100_000


def network_bytes(fileio, path: Path, out: Path) -> float:
    """Bytes the loaded network keeps allocated, per interaction, over the
    first MEMORY_PASS_LINES interactions. A pass of its own: tracemalloc
    slows the read about fourfold."""
    import itertools
    import tracemalloc

    prefix = out / "memory_pass.jsonl"
    with open(path, encoding="utf-8") as src, open(prefix, "w", encoding="utf-8") as dst:
        dst.writelines(itertools.islice(src, MEMORY_PASS_LINES))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net = fileio.read_interactions_jsonl(prefix)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / net.m


# -------------------------------------------------------------------- main


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process: a table of every
    metric, then one JSON object whose metric names carry the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1}
        print(f"{name}: correct {res['correct']}, {res['attempted']} attempted, "
              f"{res['failed']} failed")
        for metric, m in res.get("metrics", {}).items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    print(json.dumps(total))
    return 0 if not total["failed"] else 1



def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    cli_file = root / "src" / "bvcm" / "cli.py"
    if not cli_file.is_file():
        print(f"perfbench: {cli_file} not found; run from the root of a bvcm checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    w = WORKLOADS[args.workload]
    wanted = declared_metrics(bool(args.trace))
    out = root / "perfbench" / "out" / w.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    from checks import Checks

    checks = Checks()
    if args.trace:
        metrics = measure_traced(args, w, root, out, checks)
    else:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # Compiles the package's bytecode once, and makes sure the commands
        # import this checkout's bvcm and not an installed one.
        probe = subprocess.run(
            [sys.executable, "-c", "import bvcm.cli; print(bvcm.cli.__file__)"],
            env=env, capture_output=True, text=True,
        )
        if probe.returncode != 0 or Path(probe.stdout.strip()).resolve() != cli_file.resolve():
            print(f"perfbench: bvcm.cli does not import from {cli_file}: "
                  f"{probe.stdout.strip() or probe.stderr.strip()}", file=sys.stderr)
            return 2
        metrics = measure(args, w, out, env, checks)

    for name, ok, detail in checks.failed:
        print(f"FAILED {name}: {detail}", file=sys.stderr)
    missing = sorted(set(wanted) - set(metrics))
    if missing and not checks.failed:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    result = {
        "correct": not checks.failed,
        "attempted": len(checks.results),
        "failed": len(checks.failed),
        "metrics": {n: {"value": metrics[n], "unit": wanted[n]} for n in wanted if n in metrics},
    }
    print(json.dumps(result))
    return 0 if not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
