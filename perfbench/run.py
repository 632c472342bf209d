"""Benchmark entry point: run workloads, each in its own process, and report.

    python3 perfbench/run.py [--workload oracle|cw|pulsed|cli]
                             [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs, one after another.  Run from the
root of a source checkout: the program is imported from ``src/`` and the
CLI workload reads ``configs/reference.cfg``.  Outputs and traces go under
``perfbench/out/``.

With --trace 0 each workload reports the end-to-end metrics of
BENCHMARK.json; ``setup_s`` is the median over SETUPS set-ups (the measured
run's own and SETUPS - 1 set-up-only processes).  ``wall_s`` and
``case_p50_s`` are at the reference speed of probe.py; the times as measured
and the median probe time are printed beside them.  With --trace 1 every
workload runs traced for a quarter of --seconds (at least one round) and
the run reports the per-layer metrics, per traced round, and each
workload's tracing overhead;
``attempted`` and ``failed`` then count the named workload's operations
(all of them without --workload).  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("oracle", "cw", "pulsed", "cli")

#: set-ups per workload run whose median is setup_s
SETUPS = 3

#: BLAS and OpenMP threads of every workload process (at most nproc)
BLAS_THREADS = 1

#: allowances of the deadline of one workload process [s]: its set-up,
#: and the round that may still run once --seconds are nearly over
SETUP_ALLOWANCE_S = 15.0
ROUND_ALLOWANCE_S = 60.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def fingerprint() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "machine": platform.machine()}


def _spawn(args, workload, seconds, *, setup_only=False) -> dict:
    """Run workload.py in its own process group; return its JSON line.
    The process must end within its set-up allowance, plus twice --seconds
    and a round allowance unless it only sets up."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    deadline = SETUP_ALLOWANCE_S + (
        0.0 if setup_only else 2.0 * seconds + ROUND_ALLOWANCE_S)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: did not finish before the deadline")
    finally:
        _reap_group(proc.pid)
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: workload process exited with "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _reap_group(pgid: int):
    """Kill whatever the workload process left running in its group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _metrics(names, values) -> dict:
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in names}


def run_workload(args, workload, spec) -> dict:
    """Untraced run: the end-to-end metrics of one workload."""
    setups = [_spawn(args, workload, args.seconds, setup_only=True)
              ["setup_s"] for _ in range(SETUPS - 1)]
    res = _spawn(args, workload, args.seconds)
    setups.append(res["setup_s"])
    values = dict(res, setup_s=statistics.median(setups))
    return dict(res, metrics=_metrics(spec["end_to_end"], values))


def run_traced(args, spec) -> dict:
    """Traced run of every workload, each for an equal share of --seconds:
    each per-layer metric is measured on the one workload that calls the
    layer, and every workload has its own tracing overhead."""
    values, results = {}, {}
    for workload in WORKLOADS:
        res = _spawn(args, workload, args.seconds / len(WORKLOADS))
        values.update(res["layers"])
        values[f"trace.{workload}.overhead_s"] = res["overhead_s"]
        results[workload] = res
        _report(workload, res)
    metrics = _metrics(spec["per_layer"], values)
    for name, metric in metrics.items():
        print(f"   {name} = {metric['value']:.6g} {metric['unit']}")
    own = [results[args.workload]] if args.workload else results.values()
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in own),
            "failed": sum(r["failed"] for r in own),
            "metrics": metrics}


def _report(workload, result):
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"rounds={result['rounds']}")
    for name, metric in result.get("metrics", {}).items():
        print(f"   {name} = {metric['value']:.6g} {metric['unit']}")
    if "metrics" in result:
        print("   as measured: " + ", ".join(
            f"{name} = {value:.6g} s"
            for name, value in result["raw"].items())
            + f"; median probe {1e3 * result['probe_s']:.4g} ms")
    if result.get("trace_file"):
        print(f"   spans: {result['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = ROOT / "BENCHMARK.json"
    source = ROOT / "src" / "cryodrum" / "__init__.py"
    config = ROOT / "configs" / "reference.cfg"
    for path in (bench, source, config):
        if not path.is_file():
            print(f"error: {path.relative_to(ROOT)} not found; run from the "
                  "root of a cryodrum source checkout", file=sys.stderr)
            return 2
    spec = json.loads(bench.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not compileall.compile_dir(str(ROOT / "src"), quiet=2) \
            or not compileall.compile_dir(str(HERE), quiet=2):
        print("error: the sources do not compile", file=sys.stderr)
        return 2

    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    if args.trace:
        summary = run_traced(args, spec)
    else:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        results = {}
        for workload in workloads:
            results[workload] = run_workload(args, workload, spec)
            _report(workload, results[workload])
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {(name if args.workload else f"{w}.{name}"): metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
