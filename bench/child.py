"""One benchmark process: set up, run the timed section, check the outputs.

    python3 bench/child.py --workload NAME --seed N --budget SECONDS
                           --role measure|setup [--trace] [--tiny]

Prints one JSON object as its last line.  `run.py` starts this in a fresh
process with `src/` on PYTHONPATH; the self-test also calls `measure` in
its own process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import sys
from array import array
from time import perf_counter_ns

from probe import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, OpError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_flatklein():
    fk = importlib.import_module("flatklein")
    if not os.path.abspath(fk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"flatklein was imported from {fk.__file__}, not from {SRC}")
    return fk


def measure(workload: str, seed: int, budget: float, role: str = "measure",
            trace: bool = False, tiny: bool = False) -> dict:
    """Set up and (role "measure") time one process's share of a run.

    Untraced times are scaled to the reference host speed (probe.py), and
    the raw ones are returned beside them.  A traced process runs without
    the probe, so that no probe time falls inside a span.
    """
    wl = WORKLOADS[workload](tiny)
    pool = wl.inputs(random.Random(seed))
    probe = SpeedProbe()
    clock = perf_counter_ns if trace else probe.clock
    if not trace:
        probe.start()
    try:
        start = clock()
        fk = _import_flatklein()
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install(fk)
            tracer.on = True
        warm_start = clock()
        wl.warm_up(fk)
        setup_ns = clock() - start
        warm_ns = clock() - warm_start
        setup_scale = 1.0 if trace else probe.scale(0)
        if role == "setup":
            return {"setup_s": setup_ns * setup_scale / 1e9, "setup_raw_s": setup_ns / 1e9}

        # timed section: whole rounds until the budget is spent
        mark = probe.mark()
        spans, latencies = array("q"), array("q")   # flat (start, end), took
        first_pass = []     # each round's (span, took, input, result), first time round
        rounds = 0
        t0 = clock()
        while True:
            ran = wl.run_round(fk, pool[rounds % len(pool)], clock)
            for span, took, _, _ in ran:
                spans.extend(span)
                latencies.append(took)
            if rounds < len(pool):
                first_pass.append(ran)
            rounds += 1
            timed_ns = clock() - t0
            if (timed_ns >= budget * 1e9 and rounds >= wl.min_rounds
                    or rounds == wl.process_rounds):
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed_scale = 1.0 if trace else probe.scale(mark)
    finally:
        if not trace:
            probe.stop()
    scaled = latencies if trace else [
        took * probe.local_scale(spans[2 * i], spans[2 * i + 1], mark)
        for i, took in enumerate(latencies)]
    trace_out = None
    if tracer is not None:
        tracer.on = False
        trace_out = tracer.summary()
        # the spans cover the warm-up and the timed section
        trace_out["trace.wall_s"] = (warm_ns + timed_ns) / 1e9
    # checks, after the timed section: each distinct op once; an op that
    # fails counts as failed every time its round ran
    failed = 0
    problems = []
    records = []
    for r, ran in enumerate(first_pass):
        runs = rounds // len(pool) + (r < rounds % len(pool))
        for _, _, inp, result in ran:
            problem = (result.text if isinstance(result, OpError)
                       else wl.check(fk, inp, result))
            if problem is None:
                records.append((inp, result))
            else:
                failed += runs
                problems.append(problem)
    run_problems = wl.check_run(fk, records, random.Random(seed + 1))
    out = {
        "setup_s": setup_ns * setup_scale / 1e9,
        "setup_raw_s": setup_ns / 1e9,
        "timed_s": timed_ns * timed_scale / 1e9,
        "timed_raw_s": timed_ns / 1e9,
        "speed_scale": timed_scale,
        "attempted": len(latencies),
        "failed": failed,
        "correct": not run_problems,
        "problems": (problems + run_problems)[:20],
        "latencies_ms": [t / 1e6 for t in scaled],
        "raw_latencies_ms": [t / 1e6 for t in latencies],
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        out["trace"] = trace_out
        out["edges"] = tracer.edge_table()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--role", choices=("measure", "setup"), default="measure")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.budget, args.role,
                     args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
