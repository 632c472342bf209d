"""One workload in its own process: set up, run whole rounds, check, report.

Started by run.py as

    python3 perfbench/workload.py --workload W --seed N --seconds S
        --trace 0|1 --t0 T [--setup-only]

where T is the parent's time.monotonic() just before the process was
spawned (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers the
interpreter start, ``import cryodrum``, input generation and one warm-up case.
A round is the workload's seeded input set; rounds run back to back, each on
new inputs, until another round would overrun ``--seconds`` (at least one
round).  ``wall_s`` is the mean over rounds of the summed case times, the
time to a checked solution of one seeded input set; ``case_p50_s`` the
median case time.  The reference kernel of probe.py runs before every case,
outside the case times, and both are reported at the reference speed:
scaled by ``PROBE_REF_S`` over the run's median probe time.  They are also
reported as measured, under ``raw``; ``setup_s`` is as measured.  With
--trace 1 every round is traced and the process
reports the layer totals per round and the tracing overhead per round: the
spans recorded per round times the measured cost of one traced call.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

from checks import CheckError, OperationFailed
from probe import probe, speed_scale
from tracer import Tracer, call_cost, make_api

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Context:
    """What a case needs: the program modules, the tracer (None when
    untraced) and where to read and write files."""

    api: object
    tracer: object
    root: Path
    workdir: Path


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (commands
    run one at a time); workloads without child processes add 0."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _run_case(ctx, label, func, outcome):
    """Run one case; returns its duration.  A wrong answer clears
    outcome["correct"]; a failed operation counts in outcome["failed"]."""
    start = time.perf_counter()
    try:
        func(ctx)
    except CheckError as exc:
        outcome["correct"] = False
        outcome["errors"].append(f"{label}: wrong output: {exc}")
    except OperationFailed as exc:
        outcome["failed"] += 1
        outcome["failure_kinds"].add(f"{label.split('.', 1)[-1]}: {exc}")
    except Exception:     # the program raised: count it and carry on
        outcome["failed"] += 1
        outcome["errors"].append(f"{label}: {traceback.format_exc()}")
    outcome["attempted"] += 1
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")
    import cryodrum  # noqa: F401  (import cost belongs to setup_s)

    wl = importlib.import_module(f"wl_{args.workload}")
    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    plain = Context(make_api(None), None, ROOT, workdir)
    tracer = Tracer() if args.trace else None
    traced = Context(make_api(tracer), tracer, ROOT, workdir) \
        if tracer else None

    try:
        return _measure(args, wl, plain, traced, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl, plain, traced, tracer) -> int:
    inputs = wl.prepare(args.seed, plain.workdir)
    outcome = {"correct": True, "attempted": 0, "failed": 0, "errors": [],
               "failure_kinds": set()}
    for label, func in wl.warmup(inputs):
        _run_case(plain, f"warmup.{label}", func, outcome)
    if outcome["errors"] or outcome["failed"]:
        print("\n".join(outcome["errors"]) or "warm-up operation failed",
              file=sys.stderr)
        return 1
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    outcome["attempted"] = 0

    ctx = traced or plain
    walls = []
    case_times = []
    case_spans = []
    probes = []
    start = time.perf_counter()
    round_index = 0
    while True:
        round_wall = 0.0
        for label, func in wl.cases(inputs, round_index):
            probes.extend(probe())
            case_id = f"{round_index}.{label}"
            if tracer:
                tracer.begin_case(case_id)
                c0 = time.monotonic()
            case_time = _run_case(ctx, case_id, func, outcome)
            if tracer:
                case_spans.append({"name": f"case:{case_id}",
                                   "case": case_id, "parent": None,
                                   "start": c0, "end": time.monotonic()})
            case_times.append(case_time)
            round_wall += case_time
        walls.append(round_wall)
        round_index += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(walls) > args.seconds:
            break

    for message in outcome["errors"][:5]:
        print(message, file=sys.stderr)
    for kind in sorted(outcome["failure_kinds"]):
        print(f"failed operation: {kind}", file=sys.stderr)
    result = {"correct": outcome["correct"],
              "attempted": outcome["attempted"],
              "failed": outcome["failed"],
              "rounds": round_index,
              "setup_s": setup_s,
              "peak_rss_mb": _peak_rss_mb(),
              "probe_s": statistics.median(probes),
              "raw": {"wall_s": statistics.mean(walls),
                      "case_p50_s": statistics.median(case_times)}}
    scale = speed_scale(probes)
    result.update({name: value * scale
                   for name, value in result["raw"].items()})
    if tracer:
        result["layers"] = tracer.per_round(round_index)
        result["overhead_s"] = len(tracer.spans) / round_index * call_cost()
        trace_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path, case_spans)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
