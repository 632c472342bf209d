"""Traced form of one ``cryodrum`` command process.

    python3 perfbench/cli_child.py SPANS_JSON COMMAND [ARGS...]

Behaves as ``python3 -m cryodrum.cli COMMAND [ARGS...]`` (same exit code,
same traceback on an unhandled error) and writes to SPANS_JSON the spans
``cli.import`` (``import cryodrum.cli`` in this fresh process),
``cli.<COMMAND>`` (``cli.main``, import excluded) and one per call from the
CLI into the public functions of ``cryodrum.config``.  Times are
time.monotonic(), the clock of the parent's spans.
"""

import json
import sys
import time

start = time.monotonic()
import cryodrum.cli as cli  # noqa: E402
from cryodrum import config  # noqa: E402

spans = [("cli.import", start, time.monotonic())]


def _traced(name, func):
    def wrapper(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return func(*args, **kwargs)
        finally:
            spans.append((name, t0, time.monotonic()))
    return wrapper


for _name in ("read_config", "load_system", "load_baths", "load_drives",
              "load_geometry"):
    setattr(config, _name, _traced(f"config.{_name}",
                                   getattr(config, _name)))

_out, _argv = sys.argv[1], sys.argv[2:]
_t0 = time.monotonic()
try:
    _code = cli.main(_argv)
finally:
    spans.append((f"cli.{_argv[0]}", _t0, time.monotonic()))
    with open(_out, "w") as _fh:
        json.dump(spans, _fh)
sys.exit(_code)
