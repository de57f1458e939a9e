"""Remake the reference figures of bench/README.md.

    python3 bench/reference.py

Runs every workload once untraced and once traced (seed SEED, the run
length of BENCHMARK.json), then the Tier-1 suite
with its acceptance criteria, and prints Markdown tables: the end-to-end
metrics (scaled and unscaled), the per-layer self times, the tracing
overhead (unscaled ops/s, untraced against traced), and the wall time of
Tier-1 and of each acceptance criterion against its cap.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CRITERION = re.compile(r"criterion\s+(\d+) PASS \((.*)\) in ([\d.]+) s(?: \[cap (\S+) s\])?")
OVER_CAP = re.compile(r"criterion (\d+) over time cap: ([\d.]+) s")
SEED = 1


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, check=True, capture_output=True, text=True)
    with open(os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"seed {SEED}, {seconds} s per run\n")

    plain = {w: _bench(w, SEED, seconds, 0) for w in names}
    traced = {w: _bench(w, SEED, seconds, 1) for w in names}

    metrics = [m["name"] for m in spec["end_to_end"]]
    print("| workload | ops | " + " | ".join(metrics) + " |")
    print("|---" * (len(metrics) + 2) + "|")
    for w in names:
        res = plain[w]
        got = res["result"]["metrics"]
        print(f"| {w} | {res['result']['attempted']} | "
              + " | ".join(f"{_fmt(got[m]['value'])} ({_fmt(res['unscaled'][m])})"
                           for m in metrics) + " |")

    print("\n| workload | untraced ops/s | traced ops/s | overhead | layer self times (s) | self share |")
    print("|---|---|---|---|---|---|")
    for w in names:
        fast = plain[w]["unscaled"]["ops_per_s"]
        child = traced[w]["children"]
        slow = sum(c["attempted"] for c in child) / sum(c["timed_raw_s"] for c in child)
        layer = traced[w]["result"]["metrics"]
        selfs = ", ".join(f"{k.split('.')[0]} {layer[k]['value']:.3g}"
                          for k in layer if k.count(".") == 1 and k.endswith(".self_s"))
        print(f"| {w} | {fast:.4g} | {slow:.4g} | {fast / slow - 1:+.0%} | {selfs} | "
              f"{layer['trace.self_share']['value']:.3f} |")

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=ROOT, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    print(f"\nTier-1: {summary} ({wall:.0f} s wall)\n")
    print("| criterion | what | time (s) | cap (s) |")
    print("|---|---|---|---|")
    for num, title, took, cap in CRITERION.findall(proc.stdout):
        print(f"| {int(num):02d} | {title} | {float(took):.1f} | {cap or '-'} |")
    for num, took in sorted(set(OVER_CAP.findall(proc.stdout))):
        print(f"| {int(num):02d} | FAILED: over its cap | {float(took):.1f} | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
