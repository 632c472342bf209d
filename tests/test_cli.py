import argparse
import configparser
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cryodrum
from cryodrum import calibration, config, datasets
from cryodrum.cli import COMMANDS, INPUT, OUTPUT, build_parser, main

CONFIG = """\
[system]
omega_c = 5.5G
kappa = 250k
kappa_ex = 200k
kappa_0 = 50k
omega_m = 1.8M
gamma_m = 0.045
g0 = 13.4

[baths]
n_c_th = 0.25
n_m_th = 255

[drives.cooling_pump]
cooperativity = 400
delta = 25k

[drives.red_probe]
gamma_opt = 12.9

[drives.blue_probe]
gamma_opt = 12.9
delta = 10k

[geometry]
radius = 75e-6
bottom_radius = 23e-6
thickness = 180e-9
gap = 180e-9
density = 2700
stress = 350M
youngs_modulus = 75G
xi_par = 0.8
q0 = 4e5
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "device.cfg"
    path.write_text(CONFIG)
    return str(path)


def manifest_of(out):
    return json.loads(Path(str(out) + ".manifest.json").read_text())


def _fresh_process(code):
    """Standard output of `python -c code` run on this source tree."""
    src = str(Path(cryodrum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


#: the package modules that `import cryodrum.cli` loads
CLI_MODULES = {"cli", "config", "core", "errors"}


def test_cli_import_loads_no_scipy():
    # every command pays the import: the package itself loads no submodule,
    # the CLI only what parsing, config and manifests need, and scipy loads
    # only where a call needs it.  A fresh process, since it also pins what
    # the fork server behind the other module-load tests starts from
    code = ("import sys\n"
            "def loaded(prefix):\n"
            "    return sorted(m.split('.', 1)[-1] for m in sys.modules\n"
            "                  if m.startswith(prefix))\n"
            "import cryodrum\n"
            "print(loaded('cryodrum.'))\n"
            "import cryodrum.cli\n"
            "print(loaded('cryodrum.'))\n"
            "print(loaded('scipy'))\n")
    assert _fresh_process(code).splitlines() == [
        "[]", str(sorted(CLI_MODULES)), "[]"]


#: command line of each command and the package modules it loads beyond
#: CLI_MODULES; {cfg} is the config path and {d} the output directory
COMMAND_MODULES = {
    "device": ("device --config {cfg} --out {d}/o.csv",
               {"datasets", "device"}),
    "psd": ("psd --config {cfg} --out {d}/o.csv --simplified --points 9",
            {"datasets", "dynamics"}),
    "cool": ("cool --config {cfg} --out {d}/o.csv --points 5",
             {"datasets", "dynamics"}),
    "asymmetry": ("asymmetry --peaks {d}/peaks.csv --out {d}/o.json",
                  {"calibration", "datasets"}),
    "amplify": ("amplify --out {d}/o.csv --seed 7 --samples 10",
                {"datasets", "tomography", "fitting"}),
    "thermalize": ("thermalize --config {cfg} --out {d}/o.csv --seed 11 "
                   "--samples 200 --points 5 --tmax 2e-3",
                   {"datasets", "tomography", "fitting", "squeezing"}),
    "squeeze": ("squeeze --config {cfg} --out {d}/o.json --gamma-r 75 "
                "--gamma-b 23.7", {"squeezing", "tomography", "fitting"}),
    "dephase": ("dephase --out {d}/o.csv --gamma-th 17.1 --n-th 0.4 --r 0.6 "
                "--points 5", {"datasets", "squeezing", "tomography",
                               "fitting"}),
    "g0fit": ("g0fit --config {cfg} --sweep {d}/sweep.csv --out {d}/o.json",
              {"calibration", "datasets", "fitting"}),
    "budget": ("budget --out {d}/o.json --snri-db 11.3 --n-add-h 8.7 "
               "--eta-t-db 2.5 --eta-db 1.55", {"calibration"}),
    "limits": ("limits --config {cfg} --out {d}/o.json", {"calibration"}),
    "reproduce": ("reproduce --criteria 8",
                  {"reproduce", "calibration", "device", "dynamics",
                   "fitting", "squeezing", "tomography"}),
    "help": ("--help", set()),
    "device-help": ("device --help", set()),
}


def test_every_command_has_a_modules_row():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert {argv.split()[0] for argv, _ in COMMAND_MODULES.values()} \
        == set(sub.choices) | {"--help"}


@pytest.mark.parametrize("case", list(COMMAND_MODULES))
def test_command_loads_only_its_modules(case, tmp_path, params, forked):
    # each command process imports the layers it calls and no others, and
    # none loads scipy: device evaluates J0 by its series, thermalize fits
    # by variable projection and takes its chi^2 quantiles from Temme's
    # expansion.  None loads numpy.ma either, which np.unique imports on its
    # first call
    argv, extra = COMMAND_MODULES[case]
    (tmp_path / "peaks.csv").write_text(
        "N_p,N_b,N_c,r_gamma\n0.021,0.273,0.0105,1.0\n")
    datasets.write_sweep(tmp_path / "sweep.csv",
                         calibration.synthesize_g0_sweep(
                             params, 13.4, np.linspace(0.05, 0.4, 6)))
    argv = argv.format(cfg=REFERENCE_CFG, d=tmp_path).split()
    result, modules = forked("import sys\n"
                             "from cryodrum.cli import main\n"
                             f"result = [main({argv!r}), "
                             "'numpy.ma' in sys.modules]\n")
    assert [result, modules] \
        == [[0, False], ["cryodrum." + m for m in sorted(CLI_MODULES | extra)]]


def test_scalar_runs_load_no_numpy(cfg, tmp_path):
    # a usage error of each kind (an option out of its domain, an unknown
    # drive role, a missing --seed), --help, budget and limits run on the
    # standard library alone.  A fresh process: the fork server behind the
    # other module-load tests imports numpy up front
    purple = tmp_path / "purple.cfg"
    purple.write_text(CONFIG + "\n[drives.purple]\ngamma_opt = 1\n"
                               "delta = 0\n")
    out = str(tmp_path / "o.json")
    runs = [
        ["limits", "--config", cfg, "--out", out, "--branches", "0"],
        ["psd", "--config", str(purple), "--out", str(tmp_path / "p.csv")],
        ["thermalize", "--config", cfg, "--out", str(tmp_path / "h.csv")],
        ["--help"],
        ["budget", "--out", out, "--snri-db", "11.3", "--n-add-h", "8.7",
         "--eta-t-db", "2.5", "--eta-db", "1.55"],
        ["limits", "--config", cfg, "--out", out],
    ]
    code = ("import contextlib, io, sys\n"
            "from cryodrum.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        status = main(argv)\n"
            "    print(status, 'numpy' in sys.modules)\n")
    assert _fresh_process(code).splitlines() == [
        "2 False", "2 False", "2 False", "0 False", "0 False", "0 False"]


def test_lindblad_solve_loads_no_scipy(forked):
    # the solver applies its tridiagonal generator itself, builds its
    # initial state from a closed form and its series weights from Poisson
    # ratios, so neither form loads scipy
    code = ("import numpy as np\n"
            "from cryodrum import squeezing, tomography\n"
            "initial = tomography.GaussianMechState.squeezed_thermal("
            "0.4, 0.6)\n"
            "for bath in ({}, {'gamma_m': 2.0, 'n_m_th': 2.0}):\n"
            "    squeezing.lindblad_evolve(squeezing.DephasingModel(\n"
            "        gamma_th=17.1, gamma_phi=0.09, initial=initial, **bath),\n"
            "        np.linspace(0.0, 5e-3, 6))\n")
    assert [m for m in forked(code)[1] if m.startswith("scipy")] == []


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("command", ["cryodrum", *COMMANDS])
def test_help_is_golden(command, monkeypatch, capsys):
    # the files were recorded from the hand-written parser that the command
    # table replaced; argparse wraps at $COLUMNS - 2, so the width is fixed,
    # and colours help when FORCE_COLOR is set (Python 3.14), so it is off
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("FORCE_COLOR", raising=False)
    monkeypatch.setenv("NO_COLOR", "1")
    argv = ["--help"] if command == "cryodrum" else [command, "--help"]
    assert main(argv) == 0
    assert capsys.readouterr().out \
        == (GOLDEN / f"help_{command}.txt").read_text()


def test_device_command(cfg, tmp_path):
    out = tmp_path / "figures.csv"
    assert main(["device", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][:3] == ["axis", "factor", "omega_m_hz"]
    assert float(rows[1][2]) == pytest.approx(1.837e6, rel=1e-3)
    manifest = manifest_of(out)
    assert manifest["command"] == "device"
    assert manifest["outputs"] == [str(out)]
    assert "system" in manifest["parameters"]


def test_device_sweep(cfg, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["device", "--config", cfg, "--out", str(out),
                 "--sweep-axis", "gap", "--factors", "0.5,1,2"]) == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 4


def test_device_dilution_overflow_exit(tmp_path, capsys):
    # a 1e-308 m film gives a finite D_Q whose Q_m = Q0 D_Q overflows:
    # a numerical failure, not a q_m=inf table cell
    path = tmp_path / "thin.cfg"
    path.write_text(CONFIG.replace("thickness = 180e-9", "thickness = 1e-308"))
    out = tmp_path / "figures.csv"
    assert main(["device", "--config", str(path), "--out", str(out)]) == 3
    assert "Q_m = inf" in capsys.readouterr().err
    assert not out.exists()


#: `device` and README `psd --simplified` outputs on configs/reference.cfg,
#: committed as the bytes to keep.  They pass through LAPACK (`leggauss`),
#: the J0 power series and numpy's vectorised arithmetic, whose last bits
#: can differ between BLAS builds and CPUs.  If the numeric stack changes,
#: regenerate the files from the commit before the change under test, never
#: from the change itself, so a real move in the bytes still shows.
GOLDEN = Path(__file__).resolve().parent / "golden"
REFERENCE_CFG = GOLDEN.parent.parent / "configs" / "reference.cfg"


@pytest.mark.parametrize("axis", [None, "radius", "stress", "thickness",
                                  "gap"])
def test_device_output_bytes_are_golden(axis, tmp_path):
    out = tmp_path / "device.csv"
    argv = ["device", "--config", str(REFERENCE_CFG), "--out", str(out)]
    if axis:
        argv += ["--sweep-axis", axis]
    assert main(argv) == 0
    golden = GOLDEN / f"device_{axis or 'figures'}.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_psd_simplified_output_bytes_are_golden(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["psd", "--config", str(REFERENCE_CFG), "--out", str(out),
                 "--simplified"]) == 0
    assert out.read_bytes() == (GOLDEN / "psd_spec.csv").read_bytes()
    assert out.with_suffix(".json").read_bytes() \
        == (GOLDEN / "psd_spec.json").read_bytes()


@pytest.mark.parametrize("form", [[], ["--simplified"]],
                         ids=["full", "simplified"])
@pytest.mark.parametrize("span", ["1e50", "1e100", "1e150", "1e200",
                                  "1e308"])
def test_psd_span_is_finite_or_usage_error(span, form, cfg, tmp_path,
                                           capsys):
    out = tmp_path / "spec.csv"
    argv = ["psd", "--config", cfg, "--out", str(out), "--points", "101",
            "--span-widths", span, *form]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no overflow on the way
        code = main(argv)
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: --span-widths ")
        assert "Traceback" not in err
        return
    assert code == 0 and err == ""
    rows = list(csv.reader(out.open()))[1:]
    values = np.array([float(row[1]) for row in rows])
    assert len(values) == 4 * 101
    assert np.all(np.isfinite(values))


def test_psd_command(cfg, tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["psd", "--config", cfg, "--out", str(out),
                 "--simplified", "--points", "301"]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["freq_hz", "value", "component"]
    assert len(rows) == 1 + 4 * 301
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["n_m"] > 0
    assert summary["floor"] == 0.5


def test_cool_command(cfg, tmp_path):
    out = tmp_path / "cool.csv"
    assert main(["cool", "--config", cfg, "--out", str(out),
                 "--points", "11"]) == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 12


def test_asymmetry_command(tmp_path):
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("N_p,N_b,N_c,r_gamma\n0.021,0.273,0.0105,1.0\n")
    out = tmp_path / "asym.json"
    assert main(["asymmetry", "--peaks", str(peaks), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"][0]["n_m"] == pytest.approx(0.2, rel=1e-9)
    assert payload["results"][0]["g_eta"] == pytest.approx(0.21, rel=1e-9)


def test_amplify_requires_seed(tmp_path):
    out = tmp_path / "batch.csv"
    assert main(["amplify", "--out", str(out)]) == 2


def test_amplify_generate_and_calibrate(tmp_path):
    out = tmp_path / "batch.csv"
    assert main(["amplify", "--out", str(out), "--seed", "7",
                 "--samples", "500", "--n-th", "0.4", "--r", "0.6",
                 "--g-opt", "1.13", "--n-add", "0.8"]) == 0
    batch = datasets.read_quadratures(out)
    assert batch.count == 500
    assert manifest_of(out)["seed"] == 7

    line = tmp_path / "line.csv"
    with line.open("w") as fh:
        fh.write("n_m,var_uV2\n")
        for n_m in (0.1, 0.5, 2.0, 8.0):
            fh.write(f"{n_m},{1.13 * (n_m + 1.8)}\n")
    result = tmp_path / "cal.json"
    assert main(["amplify", "--out", str(result),
                 "--calibrate", str(line)]) == 0
    payload = json.loads(result.read_text())
    assert payload["g_opt_uv2_per_quanta"] == pytest.approx(1.13, rel=1e-9)
    assert payload["n_add_opt"] == pytest.approx(0.8, rel=1e-9)


def test_thermalize_deterministic(cfg, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["thermalize", "--config", cfg, "--seed", "11", "--samples",
            "400", "--points", "9", "--tmax", "4e-3", "--g-opt", "1.13",
            "--n-add", "0.8"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    fit = json.loads(out1.with_suffix(".json").read_text())
    assert fit["gamma_th_fit_hz"] > 0
    # manifests identical except the timestamp
    m1 = manifest_of(out1)
    m2 = manifest_of(out2)
    for m in (m1, m2):
        m.pop("timestamp")
        m["options"].pop("out")
        m.pop("outputs")
    assert m1 == m2


def test_readme_thermalize_flags_its_relaxation_fit(tmp_path):
    # 12 ms of a 0.045 Hz relaxation fix only the initial slope: the search
    # runs to the slow end of its bracket and the run says so
    out = tmp_path / "heating.csv"
    assert main(["thermalize", "--config", str(REFERENCE_CFG), "--out",
                 str(out), "--seed", "11", "--g-opt", "1.13", "--n-add",
                 "0.8"]) == 0
    fit = json.loads(out.with_suffix(".json").read_text())
    assert fit["relaxation_identified"] is False
    assert fit["gamma_m_fit_hz"] == pytest.approx(
        1e-6 / (2.0 * math.pi * 12e-3), rel=1e-6)
    assert fit["t_one_quantum_s"] == pytest.approx(13.798e-3, abs=1e-6)


def test_thermalize_missing_seed(cfg, tmp_path):
    assert main(["thermalize", "--config", cfg, "--out",
                 str(tmp_path / "x.csv")]) == 2


def test_squeeze_command(cfg, tmp_path):
    out = tmp_path / "squeeze.json"
    assert main(["squeeze", "--config", cfg, "--out", str(out),
                 "--gamma-r", "75", "--gamma-b", "23.717"]) == 0
    payload = json.loads(out.read_text())
    assert payload["r_target"] == pytest.approx(0.6363, abs=1e-3)
    assert payload["squeezing_limit_db"] == pytest.approx(
        10 * np.log10(np.sqrt(511.0 / (75.0 / 0.045))), abs=1e-6)


def test_dephase_command(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["dephase", "--out", str(out), "--gamma-th", "17.1",
                 "--n-th", "0.4", "--r", "0.6", "--gamma-phi", "0.09",
                 "--delta", "1.1", "--delta-err", "0.6"]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t_s", "Xsq2", "Xasq2", "n"]
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["rates"]["delta_hz"] == pytest.approx(0.973, abs=5e-3)
    assert payload["extraction"]["gamma_phi_hz"] == pytest.approx(0.10,
                                                                  abs=0.01)
    assert len(payload["extraction"]["curve_delta_hz"]) == 33


DEPHASE = "dephase --out {d}/o.csv --gamma-th 17.1 --n-th 0.4 --r 0.6"
THERMALIZE = "thermalize --config {cfg} --out {d}/o.csv --seed 11"
AMPLIFY = "amplify --out {d}/o.csv --seed 7 --samples 10"


def test_dephase_inverts_past_the_curve_maximum(tmp_path):
    # the sampled curve runs to 4 delta = 40 Hz in Gamma_phi, past the
    # maximum of delta(Gamma_phi) at 23.7 Hz where it turns down; the
    # root on the rising branch is still found
    assert main(DEPHASE.format(d=tmp_path).split() + ["--delta", "10"]) == 0
    payload = json.loads((tmp_path / "o.json").read_text())
    assert payload["extraction"]["gamma_phi_hz"] == pytest.approx(0.978,
                                                                  abs=1e-3)


def test_g0fit_command(cfg, tmp_path, params):
    rows = calibration.synthesize_g0_sweep(params, 13.4,
                                           np.linspace(0.05, 0.4, 6))
    sweep = tmp_path / "sweep.csv"
    datasets.write_sweep(sweep, rows)
    out = tmp_path / "g0.json"
    assert main(["g0fit", "--config", cfg, "--sweep", str(sweep),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["g0_hz"] == pytest.approx(13.4, rel=1e-9)


def test_budget_command(tmp_path):
    out = tmp_path / "budget.json"
    assert main(["budget", "--out", str(out), "--snri-db", "11.3",
                 "--n-add-h", "8.7", "--eta-t-db", "2.5",
                 "--eta-db", "1.55"]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_add_t"] == pytest.approx(0.2787, abs=1e-3)


def test_limits_command(cfg, tmp_path):
    out = tmp_path / "limits.json"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["phase_noise_max_dbc_per_hz"] == pytest.approx(-136.2,
                                                                  abs=0.1)
    assert payload["tone_cancellation_db"] == pytest.approx(-35.48, abs=0.01)


def test_budget_numerical_failure(tmp_path):
    # inconsistent budget maps to the numerical-failure exit code
    out = tmp_path / "bad.json"
    assert main(["budget", "--out", str(out), "--snri-db", "30",
                 "--n-add-h", "8.7", "--eta-t-db", "2.5",
                 "--eta-db", "1.55"]) == 3


def test_config_error_exit(tmp_path):
    assert main(["psd", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o.csv")]) == 2


def assert_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,line,value", [
    ("cool", "n_m_th = 255", "nan"),
    ("limits", "n_m_th = 255", "nan"),
    ("squeeze --gamma-r 75 --gamma-b 23.7", "gamma_m = 0.045", "inf"),
    ("psd --simplified", "g0 = 13.4", "1e308G"),
], ids=["cool-nan", "limits-nan", "squeeze-inf", "psd-suffix-overflow"])
def test_non_finite_config_number_exit(argv, line, value, tmp_path, capsys):
    # a config value that is not finite is a config error, and nothing is
    # written
    path = tmp_path / "device.cfg"
    assert line in CONFIG
    path.write_text(CONFIG.replace(line, line.split("=")[0] + "= " + value))
    assert_usage_error(capsys, argv.split() + ["--config", str(path),
                                               "--out", str(tmp_path / "o")])
    assert list(tmp_path.iterdir()) == [path]


PSD9 = "psd --simplified --points 9"


@pytest.mark.parametrize("argv,old,new,code", [
    (PSD9, "n_m_th = 255", "temperature = -1", 2),
    (PSD9, "gamma_opt = 12.9\ndelta = 0", "delta = 0", 2),
    (PSD9, "cooperativity = 6400", "cooperativity = 6400\ngamma_opt = 1", 2),
    (PSD9, "n_c_th = 0.25", "n_c_th = -1", 2),
    (PSD9, "kappa = 250k", "kappa = 260k", 2),
    (PSD9, "gamma_opt = 12.9\ndelta = 10k", "gamma_opt = 500\ndelta = 10k", 2),
    ("device", "xi_par = 0.8", "", 2),
    ("squeeze --gamma-r 75 --gamma-b 80", "", "", 2),
    ("device --sweep-axis gap", "q0 = 4e5", "q0 = 0", 2),
    (PSD9, "n_c_th = 0.25", "n_c_th = 1e308", 3),
    (PSD9, "n_m_th = 255", "temperature = 1e308", 3),
    (PSD9, "omega_m = 1.8M", "omega_m = 5e-324", 3),
    (PSD9, "n_m_th = 255", "temperature = 1e-300", 0),
    (PSD9, "n_m_th = 255", "temperature = 5e-324", 0),
], ids=["negative-temperature", "red-probe-without-rate",
        "inconsistent-cooperativity", "negative-n-c-th", "kappa-mismatch",
        "unstable-blue-probe", "no-xi-par", "unstable-squeeze", "zero-q0",
        "n-c-overflow", "occupation-overflow", "sideband-param-overflow",
        "tiny-temperature", "subnormal-temperature"])
def test_reference_config_edit_exit(argv, old, new, code, tmp_path, capsys):
    # an input outside its domain is a usage error, a derived value that
    # overflows a numerical failure, and a tiny temperature an empty bath
    text = REFERENCE_CFG.read_text()
    assert old in text
    path = tmp_path / "edit.cfg"
    path.write_text(text.replace(old, new, 1))
    argv = argv.split() + ["--config", str(path), "--out",
                           str(tmp_path / "o.csv")]
    if code == 2:
        assert_usage_error(capsys, argv)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == code
    if code == 3:
        assert capsys.readouterr().err.startswith("numerical failure: ")
    else:
        assert nonfinite_cells(tmp_path / "o.csv") == []
        assert nonfinite_cells(tmp_path / "o.json") == []


def test_cool_takes_a_cavity_bath_near_the_double_range(tmp_path):
    # kappa_0 n_c_th overflows, but n_c = 2e306 is a double
    text = REFERENCE_CFG.read_text()
    assert "n_c_th = 0.25" in text
    path = tmp_path / "edit.cfg"
    path.write_text(text.replace("n_c_th = 0.25", "n_c_th = 1e307", 1))
    out = tmp_path / "cool.csv"
    assert main(["cool", "--config", str(path), "--out", str(out)]) == 0
    assert nonfinite_cells(out) == []


def test_unknown_drive_role_exit(tmp_path, capsys):
    path = tmp_path / "purple.cfg"
    path.write_text(CONFIG + "\n[drives.purple]\ngamma_opt = 1\ndelta = 0\n")
    assert_usage_error(capsys, ["psd", "--config", str(path), "--out",
                                str(tmp_path / "o.csv")])


def test_negative_rate_difference_exit(tmp_path, capsys):
    assert_usage_error(capsys, [
        "dephase", "--out", str(tmp_path / "n.csv"), "--gamma-th", "17.1",
        "--n-th", "0.4", "--r", "0.6", "--delta", "-1"])


def test_zero_samples_exit(tmp_path, capsys):
    assert_usage_error(capsys, ["amplify", "--out", str(tmp_path / "z.csv"),
                                "--seed", "7", "--samples", "0"])


SWEEP_TEXT = "T_K,P_SB_meas,P_cal_meas,P_MW_src,P_cal_src\n"
SWEEP_ROWS = ("0.05,1e-9,1e-6,1e-3,1e-3\n0.1,2e-9,1e-6,1e-3,1e-3\n"
              "0.2,4e-9,1e-6,1e-3,1e-3\n")


@pytest.mark.parametrize("argv,text", [
    ("amplify --out {d}/o.json --calibrate {d}/in.csv",
     "n_m,var_uV2\n0.1,2.147\n0.5\n2.0,4.294\n"),
    ("amplify --out {d}/o.json --calibrate {d}/in.csv",
     "n_m,var_uV2\n0.1,2.147\n0.5,x\n2.0,4.294\n"),
    ("asymmetry --peaks {d}/in.csv --out {d}/o.json",
     "N_p,N_b,N_c,r_gamma\n0.021,0.273,abc,1.0\n"),
    ("g0fit --config {cfg} --sweep {d}/in.csv --out {d}/o.json",
     SWEEP_TEXT + "0.05,1e-9,1e-6,1e-3,1e-3\n0.1,2e-9,1e-6,1e-3,1e-3\n"),
    # measurements hold finite values, and temperatures are >= 0
    ("amplify --out {d}/o.json --calibrate {d}/in.csv",
     "n_m,var_uV2\n0.1,2.147\n0.5,nan\n2.0,4.294\n"),
    ("asymmetry --peaks {d}/in.csv --out {d}/o.json",
     "N_p,N_b,N_c,r_gamma\n0.021,0.273,0.0105,inf\n"),
    ("asymmetry --peaks {d}/in.csv --out {d}/o.json",
     "N_p,N_b,N_c,r_gamma,N_floor\n0.021,0.273,0.0105,1.0,nan\n"),
    ("g0fit --config {cfg} --sweep {d}/in.csv --out {d}/o.json",
     SWEEP_TEXT + SWEEP_ROWS.replace("2e-9", "-inf")),
    ("g0fit --config {cfg} --sweep {d}/in.csv --out {d}/o.json",
     SWEEP_TEXT + SWEEP_ROWS.replace("0.05,", "nan,")),
    ("g0fit --config {cfg} --sweep {d}/in.csv --out {d}/o.json",
     SWEEP_TEXT + SWEEP_ROWS.replace("0.05,", "-0.1,")),
    # and powers are > 0
    ("g0fit --config {cfg} --sweep {d}/in.csv --out {d}/o.json",
     SWEEP_TEXT + SWEEP_ROWS.replace("0.1,2e-9,1e-6", "0.1,2e-9,0")),
    ("g0fit --config {cfg} --sweep {d}/in.csv --out {d}/o.json",
     SWEEP_TEXT + SWEEP_ROWS.replace("0.1,2e-9", "0.1,-1e-9")),
], ids=["calibrate-short-row", "calibrate-text-cell", "peaks-text-cell",
        "sweep-two-rows", "calibrate-nan", "peaks-inf", "peaks-floor-nan",
        "sweep-inf-power", "sweep-nan-temperature",
        "sweep-negative-temperature", "sweep-zero-calibration-power",
        "sweep-negative-sideband-power"])
def test_malformed_input_file_exit(argv, text, cfg, tmp_path, capsys):
    (tmp_path / "in.csv").write_text(text)
    assert_usage_error(capsys, argv.format(cfg=cfg, d=tmp_path).split())
    assert not (tmp_path / "o.json").exists()


def test_reproduce_subset(capsys, tmp_path):
    out = tmp_path / "criteria.json"
    assert main(["reproduce", "--criteria", "4,7", "--json", str(out)]) == 0
    captured = capsys.readouterr()
    assert "[PASS] 4." in captured.out
    assert "[PASS] 7." in captured.out
    assert "2/2 criteria passed" in captured.out
    results = json.loads(out.read_text())
    assert [(r["index"], r["passed"]) for r in results] == [(4, True),
                                                            (7, True)]
    # each result carries its checks, with the margin read from the row
    for result in results:
        assert result["checks"]
        for check in result["checks"]:
            assert set(check) == {"name", "value", "target", "bound",
                                  "margin"}
            assert check["margin"] == abs(check["value"] - check["target"]) \
                / check["bound"]
        assert result["passed"] == all(check["margin"] <= 1.0
                                       for check in result["checks"])


def test_reproduce_unwritable_json_runs_no_criterion(tmp_path, capsys,
                                                     monkeypatch):
    # the suite ran all nine criteria before its --json write failed, and
    # exited 1, the code of a failed criterion
    from cryodrum import reproduce

    def run_criteria(indices):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(reproduce, "run_criteria", run_criteria)
    assert_usage_error(capsys, ["reproduce", "--json", str(tmp_path)])


def test_reproduce_json_check_leaves_no_file(tmp_path, capsys):
    # the writability check removes the file it made when the run then
    # stops on a usage error
    out = tmp_path / "criteria.json"
    assert_usage_error(capsys, ["reproduce", "--criteria", "10", "--json",
                                str(out)])
    assert list(tmp_path.iterdir()) == []


def test_outdir_environment_variable(tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    outdir.mkdir()
    monkeypatch.setenv("CRYODRUM_OUTDIR", str(outdir))
    assert main(["budget", "--out", "budget.json", "--snri-db", "11.3",
                 "--n-add-h", "8.7", "--eta-t-db", "2.5",
                 "--eta-db", "1.55"]) == 0
    assert (outdir / "budget.json").exists()
    assert (outdir / "budget.json.manifest.json").exists()


#: (command line, inputs, outputs, seed) of every manifest-writing form;
#: {cfg} is the config path and {d} the output directory
MANIFEST_CASES = {
    "device": ("device --config {cfg} --out {d}/o.csv",
               ["{cfg}"], ["{d}/o.csv"], None),
    "psd-summary": ("psd --config {cfg} --out {d}/o.csv --simplified "
                    "--points 101 --summary {d}/s.json",
                    ["{cfg}"], ["{d}/o.csv", "{d}/s.json"], None),
    "cool": ("cool --config {cfg} --out {d}/o.csv --points 5",
             ["{cfg}"], ["{d}/o.csv"], None),
    "asymmetry": ("asymmetry --peaks {d}/peaks.csv --out {d}/o.json",
                  ["{d}/peaks.csv"], ["{d}/o.json"], None),
    "amplify": ("amplify --out {d}/o.csv --seed 7 --samples 50",
                [], ["{d}/o.csv"], 7),
    "amplify-calibrate": ("amplify --out {d}/o.json --calibrate "
                          "{d}/line.csv --seed 3",
                          ["{d}/line.csv"], ["{d}/o.json"], None),
    "thermalize": ("thermalize --config {cfg} --out {d}/o.csv --seed 11 "
                   "--samples 200 --points 5 --tmax 2e-3",
                   ["{cfg}"], ["{d}/o.csv", "{d}/o.json"], 11),
    "squeeze": ("squeeze --config {cfg} --out {d}/o.json --gamma-r 75 "
                "--gamma-b 23.7", ["{cfg}"], ["{d}/o.json"], None),
    "dephase": ("dephase --out {d}/o.csv --gamma-th 17.1 --n-th 0.4 --r 0.6",
                [], ["{d}/o.csv", "{d}/o.json"], None),
    "g0fit": ("g0fit --config {cfg} --sweep {d}/sweep.csv --out {d}/o.json",
              ["{cfg}", "{d}/sweep.csv"], ["{d}/o.json"], None),
    "budget": ("budget --out {d}/o.json --snri-db 11.3 --n-add-h 8.7 "
               "--eta-t-db 2.5 --eta-db 1.55", [], ["{d}/o.json"], None),
    "limits": ("limits --config {cfg} --out {d}/o.json",
               ["{cfg}"], ["{d}/o.json"], None),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_fields(case, cfg, tmp_path, params):
    argv, inputs, outputs, seed = MANIFEST_CASES[case]
    (tmp_path / "peaks.csv").write_text(
        "N_p,N_b,N_c,r_gamma\n0.021,0.273,0.0105,1.0\n")
    (tmp_path / "line.csv").write_text(
        "n_m,var_uV2\n0.1,2.147\n0.5,2.599\n2.0,4.294\n8.0,11.074\n")
    datasets.write_sweep(tmp_path / "sweep.csv",
                         calibration.synthesize_g0_sweep(
                             params, 13.4, np.linspace(0.05, 0.4, 6)))

    def fill(text):
        return text.format(cfg=cfg, d=tmp_path)

    assert main(fill(argv).split()) == 0
    first = [Path(fill(p)).read_bytes() for p in outputs]
    manifest_path = Path(fill(outputs[0]) + ".manifest.json")
    stamp = re.compile(rb'^  "timestamp": .*\n', re.MULTILINE)
    first_manifest = stamp.sub(b"", manifest_path.read_bytes())
    # a rerun of the same command line rewrites the same bytes
    assert main(fill(argv).split()) == 0
    assert [Path(fill(p)).read_bytes() for p in outputs] == first
    assert stamp.sub(b"", manifest_path.read_bytes()) == first_manifest
    manifest = manifest_of(fill(outputs[0]))
    assert manifest["command"] == argv.split()[0]
    assert manifest["inputs"] == [fill(p) for p in inputs]
    assert manifest["outputs"] == [fill(p) for p in outputs]
    assert manifest["seed"] == seed
    sections = configparser.ConfigParser()
    sections.read_string(CONFIG)
    expected = {name: dict(sections.items(name))
                for name in sections.sections()} if "{cfg}" in inputs else {}
    assert manifest["parameters"] == expected


@pytest.mark.parametrize("argv", [
    "cool --config {cfg} --out {d}/o.csv --cmin -1",
    "cool --config {cfg} --out {d}/o.csv --cmin nan",
    "limits --config {cfg} --out {d}/o.json --branches 0",
    "psd --config {cfg} --out {d}/o.csv --points 1",
    "psd --config {cfg} --out {d}/o.csv --points 0",
    "psd --config {cfg} --out {d}/o.csv --points -5",
    "psd --config {cfg} --out {d}/o.csv --span-widths 0",
    "device --config {cfg} --out {d}/o.csv --sweep-axis gap --factors a,b",
    "device --config {cfg} --out {d}/o.csv --sweep-axis gap --factors 0",
    DEPHASE + " --delta 200",
    DEPHASE + " --delta nan",
    DEPHASE + " --delta inf",
    DEPHASE + " --points 1",
    DEPHASE + " --tmax 0",
    DEPHASE.replace("17.1", "nan"),
    THERMALIZE + " --points 1",
    THERMALIZE + " --tmax nan",
    THERMALIZE + " --g-opt nan",
    THERMALIZE + " --n-add -1",
    AMPLIFY + " --r nan",
    AMPLIFY + " --g-opt inf",
    AMPLIFY + " --g-opt 0",
    AMPLIFY + " --n-th -1",
    AMPLIFY + " --n-add nan",
    "reproduce --criteria x",
    "reproduce --criteria 10",
    "reproduce --criteria 0,4",
], ids=["cool-cmin", "cool-cmin-nan", "limits-branches", "psd-points",
        "psd-points-zero", "psd-points-negative", "psd-span",
        "device-factors", "device-factors-zero",
        "dephase-delta-above", "dephase-delta-nan", "dephase-delta-inf",
        "dephase-points", "dephase-tmax", "dephase-gamma-th-nan",
        "thermalize-points", "thermalize-tmax-nan", "thermalize-g-opt-nan",
        "thermalize-n-add", "amplify-r-nan", "amplify-g-opt-inf",
        "amplify-g-opt-zero", "amplify-n-th", "amplify-n-add-nan",
        "criteria-text",
        "criteria-above", "criteria-zero"])
def test_usage_error_exit(argv, cfg, tmp_path, capsys):
    assert_usage_error(capsys, argv.format(cfg=cfg, d=tmp_path).split())


@pytest.mark.parametrize("samples", [10**20, 2**60])
def test_amplify_beyond_the_largest_array_is_a_usage_error(samples, tmp_path,
                                                           capsys):
    # numpy raised "Maximum allowed dimension exceeded" at 10^20 and
    # "array is too big" at 2^60, an exit 1 with a traceback
    argv = AMPLIFY.format(d=tmp_path).split() + ["--samples", str(samples)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert str(samples) in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_amplify_beyond_memory_is_a_usage_error(tmp_path, capsys,
                                                monkeypatch):
    # 10^13 pairs pass numpy's array limit but not memory: numpy's
    # _ArrayMemoryError exited 1 with a traceback.  The allocation is
    # stubbed to fail instead of asking the machine for 146 TiB
    class NoMemory:
        def __init__(self, seed):
            pass

        def standard_normal(self, shape):
            raise MemoryError(f"cannot allocate {shape}")

    monkeypatch.setattr(np.random, "default_rng", NoMemory)
    argv = AMPLIFY.format(d=tmp_path).split() + ["--samples", str(10**13)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert str(10**13) in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


#: small base command line of every command with numeric options; the
#: peaks file carries an N_floor column so that --eta-kappa is used
FUZZ_BASE = {
    "device": "device --config {cfg} --out {d}/o.csv --sweep-axis gap",
    "psd": "psd --config {cfg} --out {d}/o.csv --simplified --points 9",
    "cool": "cool --config {cfg} --out {d}/o.csv --points 9",
    "asymmetry": "asymmetry --peaks {inputs}/floor.csv --out {d}/o.json",
    "amplify": AMPLIFY + " --samples 200",
    "thermalize": THERMALIZE + " --samples 200 --points 9 --tmax 2e-3",
    "squeeze": "squeeze --config {cfg} --out {d}/o.json --gamma-r 75 "
               "--gamma-b 23.7",
    "dephase": DEPHASE + " --delta 1.1",
    "g0fit": "g0fit --config {cfg} --sweep {inputs}/sweep.csv "
             "--out {d}/o.json",
    "budget": "budget --out {d}/o.json --snri-db 11.3 --n-add-h 8.7 "
              "--eta-t-db 2.5 --eta-db 1.55",
    "limits": "limits --config {cfg} --out {d}/o.json",
}
FUZZ_VALUES = ("0", "-1", "1", "nan", "inf", "-inf", "1e308", "1e-300",
               "5e-324", "x")
#: output keys documented to hold an infinite sentinel: the heating fit
#: never reaching one quantum, and the pump ratio at --gamma-b 0
SENTINELS = {"t_one_quantum_s", "ratio_db"}


def table_options():
    """(command, flag, role, add_argument keywords) of every option row of
    the command table."""
    return [(command, flag, role, keywords)
            for command, (_, _, rows) in COMMANDS.items()
            for flag, role, keywords in rows]


def numeric_options():
    """(command, option dest) of every option that takes a number or a
    list of numbers: an int or float type, or a numeric domain."""
    return [(command, flag[2:].replace("-", "_"))
            for command, flag, role, keywords in table_options()
            if keywords.get("type") in (int, float)
            or isinstance(role, tuple)]


def nonfinite_cells(path):
    """Cells or JSON numbers of an output file that are not finite."""
    path = Path(path)
    if path.suffix == ".json":
        def walk(node, key=None):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield from walk(v, k)
            elif isinstance(node, list):
                for v in node:
                    yield from walk(v, key)
            elif isinstance(node, float) and not math.isfinite(node) \
                    and key not in SENTINELS:
                yield f"{key}={node}"
        return list(walk(json.loads(path.read_text())))
    bad = []
    rows = csv.reader(line for line in path.open()
                      if not line.startswith("#"))
    header = next(rows)
    for row in rows:
        cells = dict(zip(header, row))
        if cells.get("lambda") == "0.0":    # the lossless-limit sentinel
            del cells["d_q"], cells["q_m"]
        for cell in cells.values():
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                bad.append(cell)
    return bad


def test_every_numeric_option_has_a_domain():
    pairs = numeric_options()
    assert len(pairs) >= 38
    assert [(command, flag) for command, flag, role, keywords
            in table_options() if keywords.get("type") in (int, float)
            and not isinstance(role, tuple)] == []


@pytest.fixture
def fuzz_inputs(tmp_path, params):
    """The peaks and sweep files that FUZZ_BASE reads from {inputs}, the
    test's tmp_path."""
    (tmp_path / "floor.csv").write_text(
        "N_p,N_b,N_c,r_gamma,N_floor\n0.021,0.273,0.0105,1.0,0.6\n")
    datasets.write_sweep(tmp_path / "sweep.csv",
                         calibration.synthesize_g0_sweep(
                             params, 13.4, np.linspace(0.05, 0.4, 6)))


@pytest.mark.parametrize("command,option", numeric_options(),
                         ids=lambda value: value)
@pytest.mark.usefixtures("fuzz_inputs")
def test_numeric_option_fuzz(command, option, cfg, tmp_path, capsys):
    flag = "--" + option.replace("_", "-")
    failures = []
    for index, value in enumerate(FUZZ_VALUES):
        run = tmp_path / str(index)
        run.mkdir()
        argv = FUZZ_BASE[command].format(cfg=cfg, d=run, inputs=tmp_path) \
            .split() + [flag, value]
        if failure := fuzz_failure(argv, capsys):
            failures.append(f"{value}: {failure}")
    assert failures == []


def fuzz_failure(argv, capsys, codes=(0, 2, 3)):
    """What went wrong in one fuzzed `main(argv)`, or None: a traceback, an
    exit code not in codes, an exit 2 without an error line, or an exit-0
    output that holds a value that is not finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    except Exception as exc:        # a traceback at the command line
        return f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code not in codes:
        return f"exit {code}"
    if code == 2 and "error:" not in err:
        return f"exit 2 without error: {err!r}"
    if code == 0:
        for out in manifest_of(argv[argv.index("--out") + 1])["outputs"]:
            if bad := nonfinite_cells(out):
                return f"{out} holds {bad[:3]}"
    return None


#: (section, key) of every value in configs/reference.cfg, and the fridge
#: temperature that may stand in for n_m_th
CONFIG_KEYS = [(section, key)
               for section, keys in config.read_config(REFERENCE_CFG).items()
               for key in keys if section != "DEFAULT"] \
    + [("baths", "temperature")]


@pytest.mark.parametrize("section,key", CONFIG_KEYS,
                         ids=[f"{s}-{k}" for s, k in CONFIG_KEYS])
def test_config_value_fuzz(section, key, tmp_path, capsys):
    # the [geometry] keys feed `device`, all others the drive stack of `psd`
    command = "device" if section == "geometry" \
        else "psd --simplified --points 9"
    failures = []
    for index, value in enumerate(FUZZ_VALUES):
        cp = config.read_config(REFERENCE_CFG)
        cp[section][key] = value
        if key == "temperature":
            cp.remove_option("baths", "n_m_th")     # a direct n_m_th wins
        run = tmp_path / str(index)
        run.mkdir()
        with (run / "fuzz.cfg").open("w") as handle:
            cp.write(handle)
        argv = f"{command} --config {run}/fuzz.cfg --out {run}/o.csv".split()
        if failure := fuzz_failure(argv, capsys):
            failures.append(f"{value}: {failure}")
    assert failures == []


#: file faults of path options: each INPUT and OUTPUT path names a
#: directory, each INPUT holds bytes that do not decode, and --config also
#: holds malformed INI
PATH_FAULTS = {INPUT: ["directory", "non-utf8"], OUTPUT: ["directory"]}
CONFIG_FAULTS = {
    "duplicate-section": CONFIG + "\n[baths]\nn_c_th = 0.25\n",
    "duplicate-key": CONFIG.replace("[baths]\n", "[baths]\nn_m_th = 1\n"),
    "no-section-header": "g0 = 13.4\n" + CONFIG,
    "bare-percent": CONFIG.replace("g0 = 13.4", "g0 = 13.4%"),
}
PATH_BASE = {**FUZZ_BASE, "reproduce": "reproduce --criteria 4"}


def path_faults():
    """(command, flag, fault) of every path option of the command table
    crossed with the faults of its role."""
    return [(command, flag, fault)
            for command, flag, role, _ in table_options()
            for fault in PATH_FAULTS.get(role, [])
            + (list(CONFIG_FAULTS) if flag == "--config" else [])]


@pytest.mark.parametrize("command,flag,fault", path_faults(),
                         ids=[f"{command}{flag}-{fault}"
                              for command, flag, fault in path_faults()])
@pytest.mark.usefixtures("fuzz_inputs")
def test_path_fault_exit(command, flag, fault, cfg, tmp_path, capsys):
    # a directory, undecodable bytes or a malformed INI file exited 1 with
    # a traceback (IsADirectoryError, UnicodeDecodeError, configparser's
    # errors), or 2 with a misleading "missing [system] section"
    path = tmp_path / "fault"
    if fault == "directory":
        path.mkdir()
    elif fault == "non-utf8":
        path.write_bytes(b"\xff\xfe\n")
    else:
        path.write_text(CONFIG_FAULTS[fault])
    run = tmp_path / "run"
    run.mkdir()
    argv = PATH_BASE[command].format(cfg=cfg, d=run, inputs=tmp_path) \
        .split() + [flag, str(path)]
    assert fuzz_failure(argv, capsys, codes=(2,)) is None
