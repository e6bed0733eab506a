"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload deploy --seeds 0-9 [--seconds 10]

Runs ``perfbench/run.py`` once per seed and prints, per end-to-end
metric, the median of the values and the distance between their first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of that median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        low, __, high = statistics.quantiles(series, n=4)
        spread = (high - low) / median if median else float("inf")
        print(
            f"{metric['name']:16s} median {median:12.5g} spread "
            f"{spread:7.4f} bound {metric['bound']}  "
            + " ".join(f"{value:.4g}" for value in series)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
