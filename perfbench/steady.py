"""Steadiness mode: run the benchmark N times per workload and report spreads.

    python3 perfbench/steady.py --workload bb-dtw-power --runs 10 [--sets 2]

Each run is untraced, uses its own seed (1, 2, ..., N) and the run length
from BENCHMARK.json. For every metric the table gives the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median. A spread at or above a third
of the metric's bound is marked WIDE, one above the bound FAIL. With
`--sets 2` the whole set runs twice and the table adds how much worse the
second median is than the first, as a share of the first, which is the check
the bounds are meant to pass. The last column suggests a bound of three times
the widest spread seen, rounded up to 0.05 and capped at 0.25. The median
and quartiles shown are those of the first set; the spread is the wider of
the sets'.

Raw values go to `perfbench/out/steady-<workload>.json`. Exits 1 if any run
was incorrect or any spread or shift exceeded its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first quartile, third quartile and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if not med:
        return med, q1, q3, 0.0 if q3 == q1 else math.inf
    return med, q1, q3, (q3 - q1) / abs(med)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / abs(first) if first else 0.0
    return -change if better == "higher" else change


def suggest_bound(widest: float) -> float:
    return min(0.25, max(0.05, math.ceil(3 * widest * 20) / 20))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles to mean anything")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    ok = True
    for workload in args.workload:
        sets: list[dict[str, list[float]]] = []
        walls = []
        for set_index in range(args.sets):
            values: dict[str, list[float]] = {}
            for seed in range(1, args.runs + 1):
                result, wall = run_once(workload, seed, bench["run_seconds"])
                walls.append(wall)
                ok &= result["correct"] and result["failed"] == 0
                print(f"{workload} set {set_index} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s", flush=True)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            sets.append(values)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), run wall "
              f"median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} "
              f"{'bound':>6s} {'shift':>7s}  status   suggest")
        for name in sets[0]:
            meta = declared[name]
            bound = meta["bound"]
            med, q1, q3, _ = spread(sets[0][name])
            widest = max(spread(values[name])[3] for values in sets)
            shift = (worse_by(statistics.median(sets[0][name]), statistics.median(sets[1][name]),
                              meta["better"]) if args.sets == 2 else None)
            status = "ok"
            if widest > bound or (shift is not None and shift > bound):
                status = "FAIL"
                ok = False
            elif widest >= bound / 3:
                status = "WIDE"
            shift_text = f"{shift:7.3f}" if shift is not None else "      -"
            print(f"{name:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {widest:7.3f} {bound:6.2f} "
                  f"{shift_text}  {status:7s}  {suggest_bound(widest):.2f}")
        with open(os.path.join(OUT_DIR, f"steady-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "sets": sets, "walls": walls}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
