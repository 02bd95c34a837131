"""Record a baseline: run.py over ten seeds per workload, untraced, plus one
traced run per workload, and write medians, quartiles, spreads and sample
counts to perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 1-10] [--trace-seed 1]

The spread of a metric is (q3 - q1) / median over the seeds, with quartiles
from statistics.quantiles(values, n=4). It takes about 20 minutes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "samples": len(values),
    }


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def machine() -> str:
    model = platform.machine()
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return f"{model} x {os.cpu_count()} cpus, Python {platform.python_version()}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        results = []
        for seed in args.seeds:
            results.append(run(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {json.dumps(results[-1])}", flush=True)
        traced = run(name, args.trace_seed, seconds, 1)
        workloads[name] = {
            "runs": len(results),
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "commands": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
                for m in spec["end_to_end"]
            },
            "traced_seed": args.trace_seed,
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
        }
    baseline = {
        "seeds": args.seeds,
        "run_seconds": seconds,
        "machine": machine(),
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
