"""Steadiness of the end-to-end metrics: runs a workload k times, one seed each.

    python3 perfbench/steady.py --workload zeros --runs 10 [--sets 2] [--seed0 1]

For each end-to-end metric it prints the median and the spread, the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, against the metric's bound in BENCHMARK.json.  With
``--sets 2`` a second set of runs on fresh seeds follows the first, and the
change of each median from the first set to the second is printed as well;
the sets agree on a metric when the change, either way, is within its bound.
It also prints the share of failed operations of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    medians = []
    for s in range(args.sets):
        seeds = [args.seed0 + 1000 * s + i for i in range(args.runs)]
        results = []
        for seed in seeds:
            result = run_once(args.workload, seed, spec["run_seconds"])
            results.append(result)
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"set {s + 1} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"set {s + 1} {args.workload}: failed shares {shares}")
        med = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med[name], sp = spread(values)
            verdict = "ok" if sp <= bound else "OVER"
            steady = " (< bound/3)" if sp < bound / 3 else ""
            print(f"set {s + 1} {args.workload} {name}: median {med[name]:.5g} "
                  f"spread {sp:.4f} bound {bound} {verdict}{steady}")
        medians.append(med)
    if args.sets == 2:
        for name, bound in bounds.items():
            change = medians[1][name] / medians[0][name] - 1.0
            verdict = "ok" if abs(change) <= bound else "DIFFER"
            print(f"{args.workload} {name}: second median vs first {change:+.4f} bound {bound} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
