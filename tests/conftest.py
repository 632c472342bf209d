import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cryodrum
from cryodrum import core

#: one interpreter for the module-load tests.  It imports cryodrum.cli and
#: numpy (which the CLI loads only in the commands that build arrays, so no
#: fork pays for it again), then forks once per request line.  The fork
#: runs the request's code, which may set `result` and call `loaded`, and
#: writes back result and its cryodrum.* and scipy* modules.  The code's
#: own standard output goes to /dev/null.
_FORK_SERVER = """\
import json, os, sys, traceback
import numpy
import cryodrum.cli

def loaded(prefix):
    return sorted(m for m in sys.modules if m.startswith(prefix))

replies = os.fdopen(os.dup(1), "w")
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
for line in sys.stdin:
    read_end, write_end = os.pipe()
    if os.fork() == 0:
        os.close(read_end)
        scope = {"loaded": loaded}
        try:
            exec(json.loads(line), scope)
            reply = {"result": scope.get("result"),
                     "modules": loaded("cryodrum.") + loaded("scipy")}
        except BaseException:
            reply = {"error": traceback.format_exc()}
        with os.fdopen(write_end, "w") as pipe:
            json.dump(reply, pipe)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        replies.write(pipe.read() + "\\n")
    replies.flush()
    os.wait()
"""


@pytest.fixture
def params():
    """Reference-device constants used across the suite."""
    return core.validate_params(dict(
        omega_c=5.5e9, kappa=250e3, kappa_ex=200e3, kappa_0=50e3,
        omega_m=1.8e6, gamma_m=0.045, g0=13.4))


@pytest.fixture
def baths():
    return core.BathOccupations(n_c_th=0.25, n_m_th=255.0, n_c=0.05)


@pytest.fixture
def pump_only(params):
    tone = core.drive_tone("cooling_pump", gamma_m=params.gamma_m,
                           cooperativity=2000.0, delta=25e3)
    return core.DriveSet(tones=(tone,), gamma_m=params.gamma_m)


@pytest.fixture
def three_tone(params):
    tones = (
        core.drive_tone("cooling_pump", gamma_m=params.gamma_m,
                        cooperativity=2000.0, delta=25e3),
        core.drive_tone("red_probe", gamma_m=params.gamma_m,
                        gamma_opt=12.9, delta=0.0),
        core.drive_tone("blue_probe", gamma_m=params.gamma_m,
                        gamma_opt=12.9, delta=10e3),
    )
    return core.DriveSet(tones=tones, gamma_m=params.gamma_m)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def forked():
    """run(code) -> (result, modules): code run in a fork of one interpreter
    that has loaded numpy, cryodrum.cli and nothing else of the package;
    modules lists the cryodrum.* and scipy* modules loaded when it ends."""
    # one BLAS thread from the start: forking after BLAS threads have
    # started is unsafe
    src = str(Path(cryodrum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    server = subprocess.Popen([sys.executable, "-c", _FORK_SERVER], env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)

    def run(code):
        server.stdin.write(json.dumps(code) + "\n")
        server.stdin.flush()
        line = server.stdout.readline()
        if not line:
            raise RuntimeError("the fork server exited")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply["result"], reply["modules"]

    yield run
    server.stdin.close()
    server.wait(timeout=60)
