#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload levi21 --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed, one after another, with the run
length of BENCHMARK.json. For every metric it prints the median of the
runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. Raw results go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seeds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, elapsed_s=elapsed)
        runs.append(result)
        print(f"seed {seed}: {elapsed:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-{args.seeds[0]}-{args.seeds[-1]}.json"
    (out_dir / name).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    print(f"{'metric':32s} {'median':>12s} {'IQR/median':>10s} {'bound':>6s}")
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(metric)
        print(f"{metric:32s} {med:12.6g} {spread:10.3f} {bound if bound is not None else '':>6}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares: {sorted(shares)}; longest run {max(r['elapsed_s'] for r in runs):.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
