"""Run the benchmark over many seeds and report how far its metrics spread.

    python3 perfbench/spread.py [--seeds 1-10]

Run it from the root of a checkout. For each seed in turn it runs every
workload of ``BENCHMARK.json`` once, so workloads interleave run by run
rather than in blocks and a slow spell of a shared host hits them all
alike. It prints each run's result as it goes, then, per workload and
end-to-end metric, the median and the spread: the distance between the
first and third quartiles of the runs' values
(``statistics.quantiles(values, n=4)``) as a share of their median,
next to the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    runs: dict[str, list[dict]] = {item["name"]: [] for item in benchmark["workloads"]}
    for seed in args.seeds:
        for workload in runs:
            command = [
                sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit status {done.returncode}")
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs[workload].append(result)
            values = ", ".join(
                f"{name} {metric['value']:.4g}" for name, metric in result["metrics"].items()
            )
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}; "
                  f"{values}", flush=True)
            print("\n".join("  " + line for line in lines[:-1]), flush=True)
    for workload, results in runs.items():
        for item in benchmark["end_to_end"]:
            values = [result["metrics"][item["name"]]["value"] for result in results]
            middle = statistics.median(values)
            first, _, third = statistics.quantiles(values, n=4)
            print(f"{workload:18} {item['name']:14} median {middle:12.5g}  "
                  f"spread {(third - first) / middle:6.3f}  bound {item['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
