"""Spans and counts around the calls a workload makes into the program.

A workload reaches the program only through an ``api`` namespace.  Untraced,
its attributes are the ``cryodrum`` modules themselves, so the timed code
pays nothing.  Traced, each module is wrapped so that every call of one of
its public functions records a span (name, case id, start, end on the
time.monotonic() clock, which is system-wide, so command processes can add
their own spans) whose parent is the case span, plus the counts in
``COUNTERS``.  Calls that the program
makes internally are not split out.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import time
import types
from collections import defaultdict
from pathlib import Path

#: program modules a workload may call
MODULES = ("squeezing", "dynamics", "fitting", "calibration", "tomography",
           "device", "datasets", "config")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


#: per-function counts recorded at the same boundary as the span:
#: name -> f(result, args, kwargs) -> {count: value}
COUNTERS = {
    "squeezing.lindblad_evolve": lambda res, a, kw: {"dim_sum": res.dim,
                                                     "dim_max": res.dim},
    "tomography.sample_quadratures": lambda res, a, kw: {
        "samples": res.count},
    "dynamics.output_psd": lambda res, a, kw: {
        "points": res["cavity"].freq.size},
    "datasets.read_spectrum": lambda res, a, kw: {
        "bytes": os.path.getsize(_first_arg(a, kw, "path"))},
    "datasets.read_quadratures": lambda res, a, kw: {
        "bytes": os.path.getsize(_first_arg(a, kw, "path"))},
}

#: counts aggregated by maximum instead of sum
MAX_COUNTS = {"dim_max"}


class Tracer:
    """In-memory span recorder with per-name totals."""

    def __init__(self):
        self.spans = []
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.case_id = None

    def begin_case(self, case_id: str):
        self.case_id = case_id

    def add_span(self, name: str, start: float, end: float):
        self.spans.append({"name": name, "case": self.case_id,
                           "parent": f"case:{self.case_id}",
                           "start": start, "end": end})
        self.seconds[name] += end - start
        self.counts[f"{name}.calls"] += 1

    def add_count(self, name: str, value: float):
        if name.rsplit(".", 1)[-1] in MAX_COUNTS:
            self.counts[name] = max(self.counts[name], value)
        else:
            self.counts[name] += value

    def call(self, name: str, func, *args, **kwargs):
        start = time.monotonic()
        try:
            result = func(*args, **kwargs)
        finally:
            self.add_span(name, start, time.monotonic())
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(result, args, kwargs).items():
                self.add_count(f"{name}.{key}", value)
        return result

    def per_round(self, rounds: int) -> dict:
        """Layer totals per traced round: ``<name>.s`` and the counts,
        divided by ``rounds`` except the MAX_COUNTS."""
        layers = {f"{name}.s": total / rounds
                  for name, total in self.seconds.items()}
        layers.update({name: value if name.rsplit(".", 1)[-1] in MAX_COUNTS
                       else value / rounds
                       for name, value in self.counts.items()})
        return layers

    def write(self, path: Path, case_spans):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in case_spans + self.spans:
                fh.write(json.dumps(span) + "\n")


class _TracedModule:
    """Module proxy whose public functions record spans."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._prefix = module.__name__.rsplit(".", 1)[-1]
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if attr.startswith("_") or not inspect.isfunction(value):
            return value
        name = f"{self._prefix}.{attr}"
        tracer = self._tracer

        def traced(*args, **kwargs):
            return tracer.call(name, value, *args, **kwargs)
        return traced


def call_cost() -> float:
    """Seconds one traced call adds: the median over 7 batches of 5000 calls
    of the time per call of a no-op through a traced module, minus that of
    the bare no-op."""
    calls, batches = 5000, 7
    module = types.ModuleType("cryodrum.noop")

    def noop():
        return None

    module.noop = noop
    costs = []
    for _ in range(batches):
        traced = _TracedModule(module, Tracer())
        t0 = time.perf_counter()
        for _ in range(calls):
            traced.noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            module.noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def make_api(tracer: Tracer | None):
    """Namespace of the program modules, traced when a tracer is given."""
    import importlib

    modules = {name: importlib.import_module(f"cryodrum.{name}")
               for name in MODULES}
    if tracer is not None:
        modules = {name: _TracedModule(mod, tracer)
                   for name, mod in modules.items()}
    return types.SimpleNamespace(**modules)
