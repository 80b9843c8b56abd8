#!/usr/bin/env python3
"""Closed-loop benchmark of the crclass command line.

    python3 perfbench/run.py --workload levi21 --seed 1 --seconds 40 --trace 0

One client, one process, no threads: each operation is a call of
`crclass.cli.main` in this process with the arguments a user would type,
and the next one starts when it returns. Every operation starts from the
state of a fresh CLI process (the `poly_gcd` cache is cleared), garbage is
collected outside the timed region, and a warm-up pass over all inputs is
left out of the timings. A run repeats whole rounds of the same
operations until --seconds have passed, checks the outputs (check.py) and
prints one JSON object as its last line. The set-up is repeated between
rounds, so that its median samples the machine over the whole run, and
each round then runs on the engine that set-up imported.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of tracing.py, measured in a separate traced phase of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 9
MIN_SAMPLES = 40


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- set-up ---------------------------------------------------------------------


def _import_engine():
    for name in [m for m in sys.modules if m == "crclass" or m.startswith("crclass.")]:
        del sys.modules[name]
    cli = importlib.import_module("crclass.cli")
    return cli, sys.modules["crclass.manifold"], sys.modules["crclass.poly"]


def set_up(workload: str, seed: int, workdir: Path):
    """Import the CLI, then generate, write, parse and validate the inputs."""
    start = time.perf_counter()
    cli, manifold, poly = _import_engine()
    items = inputs.make_inputs(workload, seed)
    for i, item in enumerate(items):
        path = workdir / f"{i:03d}.json"
        path.write_text(json.dumps(item["spec"]), encoding="utf-8")
        item["argvs"] = [
            [argv[0], "--input", str(path), *argv[1:]] for argv in item["ops"]
        ]
        manifold.validate_manifold(manifold.manifold_from_dict(item["spec"]))
    return time.perf_counter() - start, cli, poly.poly_gcd, items


# -- the closed loop ------------------------------------------------------------


class Loop:
    def __init__(self, cli, gcd, items: list[dict]):
        self.cli = cli
        self.gcd = gcd
        self.ops = [
            (i, k, argv)
            for i, item in enumerate(items)
            for k, argv in enumerate(item["argvs"])
        ]
        self.first: dict[tuple[int, int], tuple[int, str, str]] = {}
        self.mismatches: list[str] = []
        self.gcd_hits = 0
        self.gcd_misses = 0

    def one(self, argv: list[str]) -> tuple[int, str, str, float, float]:
        out, err = io.StringIO(), io.StringIO()
        self.gcd.cache_clear()
        gc.collect()
        gc.disable()
        try:
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        finally:
            gc.enable()
        info = self.gcd.cache_info()
        self.gcd_hits += info.hits
        self.gcd_misses += info.misses
        return code, out.getvalue(), err.getvalue(), wall, cpu

    def round(self, samples: list | None) -> float:
        """One pass over every operation; returns its timed wall time."""
        total = 0.0
        for i, k, argv in self.ops:
            code, out, err, wall, cpu = self.one(argv)
            total += wall
            first = self.first.setdefault((i, k), (code, out, err))
            if (code, out) != first[:2]:
                self.mismatches.append(f"op {i}.{k} ({argv[0]}): output differs between passes")
            if samples is not None:
                samples.append((code, wall, cpu))
        return total

    def rounds_for(self, seconds: float, samples: list | None, min_ok: int = 0,
                   between=None) -> tuple[int, float]:
        rounds, timed = 0, 0.0
        start = time.perf_counter()
        while True:
            if between is not None:
                between(time.perf_counter() - start)
            timed += self.round(samples)
            rounds += 1
            ok = sum(1 for code, _, _ in samples if code == 0) if samples is not None else 0
            if time.perf_counter() - start >= seconds and ok >= min_ok:
                return rounds, timed


def tail(values: list[float], p: int) -> float:
    """The p-th percentile (nearest rank); needs ten samples beyond it."""
    ordered = sorted(values)
    index = math.ceil(p / 100 * len(ordered)) - 1
    if len(ordered) - 1 - index < 10:
        raise ValueError(f"{len(ordered)} samples are too few for p{p}")
    return ordered[index]


def min_samples(p: int) -> int:
    """Fewest samples that leave ten beyond the p-th percentile."""
    n = 11
    while n - math.ceil(p / 100 * n) < 10:
        n += 1
    return max(n, MIN_SAMPLES)


# -- main -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "crclass" / "cli.py").is_file():
        print(f"error: the crclass sources are missing ({SRC / 'crclass'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _run(args: argparse.Namespace, workdir: Path) -> int:
    seconds, cli, gcd, items = set_up(args.workload, args.seed, workdir)
    loop = Loop(cli, gcd, items)
    loop.round(None)  # warm-up pass, also the reference outputs
    gc.freeze()
    samples: list[tuple[int, float, float]] = []
    if args.trace == 0:
        metrics = end_to_end(args, loop, samples, workdir, [seconds])
    else:
        metrics = per_layer(args, loop, samples)

    # sympy comes in with the checker, after peak_rss_mb has been read
    import check

    started = time.perf_counter()
    problems = loop.mismatches + check.check_outputs(
        args.workload, args.seed, items, loop.first)
    print(f"checked {len(loop.first)} outputs in {time.perf_counter() - started:.1f} s, "
          f"{len(problems)} problems")
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": sum(1 for code, _, _ in samples if code != 0),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(args, loop: Loop, samples: list, workdir: Path, setups: list[float]) -> dict:
    """Untraced rounds for --seconds; latencies are of the operations that succeed.

    Before a round the set-up runs again while fewer than
    SETUP_REPEATS * (elapsed / --seconds) set-ups are done, so they are
    spread over the run; any still missing at the end run then.
    """

    def set_up_again() -> None:
        seconds, cli, gcd, _ = set_up(args.workload, args.seed, workdir)
        setups.append(seconds)
        loop.cli, loop.gcd = cli, gcd  # the next rounds run on the fresh import
        gc.collect()
        gc.freeze()

    def between(elapsed: float) -> None:
        while len(setups) < min(SETUP_REPEATS, 1 + SETUP_REPEATS * elapsed / args.seconds):
            set_up_again()

    p = inputs.TAIL_PERCENTILE[args.workload]
    rounds, timed = loop.rounds_for(args.seconds, samples, min_samples(p), between)
    while len(setups) < SETUP_REPEATS:
        set_up_again()
    setup_s = statistics.median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [wall for code, wall, _ in samples if code == 0]
    cpus = [cpu for code, _, cpu in samples if code == 0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail(walls, p), "s"),
        "cpu_p50_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(loop.ops)} "
          f"operations in {timed:.2f} s, {len(samples)} attempted, "
          f"{len(walls)} latency samples, tail = p{p}, {len(setups)} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return metrics


def per_layer(args, loop: Loop, samples: list) -> dict:
    """Untraced, then traced rounds, half of --seconds each."""
    half = args.seconds / 2
    plain_rounds, plain = loop.rounds_for(half, None)
    tracer = tracing.Tracer()
    loop.gcd_hits = loop.gcd_misses = 0
    tracer.install()
    try:
        rounds, traced = loop.rounds_for(half, samples)
    finally:
        tracer.uninstall()
    overhead = (traced / rounds) / (plain / plain_rounds)
    metrics = tracer.metrics(rounds, loop.gcd_hits, loop.gcd_misses, overhead)
    print(f"{args.workload} seed {args.seed}: {plain_rounds} untraced and {rounds} "
          f"traced rounds of {len(loop.ops)} operations; figures per round")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print("  self-time shares of traced CLI time:")
    for name, share in tracer.self_time_shares().items():
        print(f"    {name:28s} {share:7.1%}")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = {m["name"] for m in spec["per_layer"]}
    return {name: v for name, v in metrics.items() if name in reported}


if __name__ == "__main__":
    raise SystemExit(main())
