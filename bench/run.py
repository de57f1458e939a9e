"""Benchmark of flatklein: one workload, one seed, one result line.

    python3 bench/run.py --workload metric|plan|atlas|verify --seed N
                         --seconds S --trace 0|1 [--tiny]

Each measuring process is fresh and single-threaded (bench/child.py, with
this checkout's src/ on PYTHONPATH).  It imports flatklein, warms up as the
workload prescribes, runs whole rounds of ops for at least S seconds and
then checks every op.  A workload that must stay cold runs one round per
process, and processes are started until S seconds have been timed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; set-up is taken
in at least three fresh processes and its median reported.  Their times
are scaled to a reference host speed (bench/probe.py); the unscaled
figures go to the results file.  --trace 1 runs
the same measurement with every public entry point of the layers wrapped
(bench/tracer.py) and prints the per-layer metrics instead.  --tiny shrinks
every workload to the sizes the self-test uses.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record of the run goes to
bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3          # fresh processes whose set-up time is taken
DEADLINE_S = 170    # a run gives up (without a result) after this long


def _fail(message: str, code: int = 2) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def _spawn(args, role: str, budget: float, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--role", role]
    if args.trace:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(children: list[dict], setups: list[float]) -> dict:
    timed = sum(c["timed_s"] for c in children)
    done = sum(c["attempted"] - c["failed"] for c in children)
    lat = [t for c in children for t in c["latencies_ms"]]
    return {
        "ops_per_s": done / timed,
        "op_p50_ms": _quantile(lat, 50),
        "op_p90_ms": _quantile(lat, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(c["rss_mb"] for c in children),
    }


def per_layer(children: list[dict]) -> dict:
    total: dict = {}
    for c in children:
        for key, value in c["trace"].items():
            total[key] = total.get(key, 0) + value
    spans = {k: v for k, v in total.items() if k.endswith(".self_s")}
    for layer in LAYERS:
        total[f"{layer}.self_s"] = sum(v for k, v in spans.items()
                                       if k.startswith(f"{layer}."))
    total["trace.self_share"] = sum(spans.values()) / total["trace.wall_s"]
    plans = total.get("planner.plan.calls", 0)
    total["planner.table_reuse"] = total.get("planner.table_reused", 0) / plans if plans else 0
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "flatklein", "__init__.py")):
        return _fail(f"no flatklein sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    deadline = monotonic() + DEADLINE_S
    children: list[dict] = []
    try:
        timed = 0.0
        while timed < args.seconds:
            child = _spawn(args, "measure", args.seconds - timed, deadline)
            children.append(child)
            timed += child["timed_raw_s"]
        setups = [{k: c[k] for k in ("setup_s", "setup_raw_s")} for c in children]
        while not args.trace and len(setups) < SETUPS:
            setups.append(_spawn(args, "setup", 0, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc), 1)

    raw = {}
    if args.trace:
        values, wanted = per_layer(children), spec["per_layer"]
    else:
        values, wanted = end_to_end(children, [s["setup_s"] for s in setups]), spec["end_to_end"]
        raw = end_to_end([dict(c, timed_s=c["timed_raw_s"], latencies_ms=c["raw_latencies_ms"])
                          for c in children], [s["setup_raw_s"] for s in setups])
    result = {
        "correct": all(c["correct"] for c in children),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    record = {"args": vars(args), "result": result, "unscaled": raw, "setups": setups,
              "children": [{k: v for k, v in c.items() if not k.endswith("latencies_ms")}
                           for c in children]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for c in children:
        for problem in c["problems"]:
            print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
