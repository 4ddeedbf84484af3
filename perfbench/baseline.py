"""Record the benchmark's figures for the program in this checkout.

    python3 perfbench/baseline.py [--out FILE]

Runs run.py untraced on seeds 1..RUNS of every workload in BENCHMARK.json
and once traced (seed 1), one run at a time, each for the run_seconds of
BENCHMARK.json, and writes a JSON file with, per workload, each end-to-end
metric's median, quartiles and spread
((q3 - q1) / median, quartiles as statistics.quantiles(values, n=4) gives
them), the per-layer metrics of the traced run, and the environment:
Python and numpy versions, git commit, CPU count and model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy, "git_sha": sha,
            "nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    out = {"environment": environment(), "runs": RUNS, "seconds": seconds,
           "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        results = [run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        e2e = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            e2e[m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                              "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / statistics.median(values),
                              "bound": m["bound"], "values": values}
        traced = run(name, 1, seconds, 1)
        out["workloads"][name] = {
            "why": w["why"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run": {"attempted": traced["attempted"], "failed": traced["failed"]},
        }
        print(name, {k: round(v["spread"], 3) for k, v in e2e.items()}, flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
