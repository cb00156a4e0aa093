"""Steadiness of the benchmark: run one workload N times, each with another
seed, and print every end-to-end metric's median, quartiles and spread
(interquartile range over median). The bounds in BENCHMARK.json are set
from this output.

    python3 perfbench/steady.py --workload paper --runs 10 --first-seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        res = json.loads(last)
        values = " ".join(f"{n} {m['value']:.5g}" for n, m in res.get("metrics", {}).items())
        print(f"seed {seed}: exit {proc.returncode} correct {res.get('correct')} "
              f"attempted {res.get('attempted')} failed {res.get('failed')}; {values}", flush=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
        elif proc.stderr.strip():
            # run.py's summary: repetitions, calibration and wall-time medians
            print("    " + proc.stderr.strip().splitlines()[-1], flush=True)
        results.append(res)

    ok = [r for r in results if r.get("metrics")]
    print(f"\n{args.workload}: {len(ok)} runs, {seconds}s each; failed share "
          f"{sorted({r['failed'] / r['attempted'] for r in ok})}")
    print(f"{'metric':38s} {'unit':6s} {'q1':>11s} {'median':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name in ok[0]["metrics"] if ok else []:
        values = [r["metrics"][name]["value"] for r in ok]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:38s} {ok[0]['metrics'][name]['unit']:6s} {q1:11.5g} {med:11.5g} "
              f"{q3:11.5g} {spread:7.3f} {bounds[name]:>6}")
    return 0 if len(ok) == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
