"""cli: the README command examples as separate processes, one at a time.

A case is one ``cryodrum`` command process on configs/reference.cfg; every
command pays the interpreter start and ``import cryodrum``.  A round runs
the thirteen README examples, one large-batch ``amplify``, a repeat of
``budget`` whose manifest must match the first apart from the timestamp, and
three documented usage errors that must exit with code 2.  The benchmark
writes the inputs of ``asymmetry``, ``g0fit`` and ``amplify --calibrate``
and draws the numeric arguments of ``squeeze``, ``dephase`` and ``budget``
from the seed; the Monte-Carlo commands keep the README seeds.

Traced, each command runs under cli_child.py, which reports the import, the
``cli.main`` call and the CLI's calls into ``cryodrum.config`` as spans.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
CONFIG = HERE.parent / "configs" / "reference.cfg"
COMMAND_TIMEOUT_S = 60.0
LARGE_BATCH = 400_000
#: README arguments of the Monte-Carlo commands
AMPLIFY_ARGS = ["--seed", "7", "--n-th", "0.4", "--r", "0.6", "--g-opt",
                "1.13", "--n-add", "0.8"]
THERMALIZE_ARGS = ["--seed", "11", "--g-opt", "1.13", "--n-add", "0.8"]
#: exit code of a configuration or usage error
USAGE_ERROR = 2

_SUFFIXES = {"k": 1e3, "M": 1e6, "G": 1e9}


def read_reference(path: Path) -> dict:
    """The numbers of an INI config, read apart from cryodrum.config."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(path)

    def number(text):
        text = text.strip()
        scale = _SUFFIXES.get(text[-1], 1.0)
        return float(text[:-1] if text[-1] in _SUFFIXES else text) * scale

    return {section: {k: number(v) for k, v in cp.items(section)}
            for section in cp.sections()}


class Round:
    """Inputs and cross-case state of one round of commands."""

    def __init__(self, workdir: Path, rng):
        self.config = CONFIG
        self.ref = read_reference(CONFIG)
        self.dir = workdir
        self.rng = rng
        self.budget_args = None
        self.budget_manifest = None

    def path(self, name: str) -> str:
        return str(self.dir / name)


def _run(ctx, label, argv, expect=0):
    """Run one command process; OperationFailed unless it exits `expect`."""
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "cryodrum.cli", *argv]
        spans_path = None
    else:
        spans_path = ctx.workdir / f"spans-{label}.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path),
               *argv]
    proc = subprocess.run(cmd, cwd=ctx.root, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    if spans_path is not None and spans_path.exists():
        for name, start, end in json.loads(spans_path.read_text()):
            ctx.tracer.add_span(name, start, end)
    if proc.returncode != expect:
        last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise checks.OperationFailed(
            f"exit code {proc.returncode}, expected {expect}: {last}")


def _json(path):
    return json.loads(Path(path).read_text())


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _baths(ref):
    s, b = ref["system"], ref["baths"]
    return b["n_m_th"], s["kappa_0"] * b["n_c_th"] / s["kappa"]


def case_device(rd, ctx):
    out = rd.path("figures.csv")
    _run(ctx, "device", ["device", "--config", str(rd.config), "--out", out])
    row = _csv_rows(out)[0]
    g = rd.ref["geometry"]
    checks.require_close(float(row["omega_m_hz"]), checks.drum_frequency(
        g["radius"], g["stress"], g["density"]), 1e-10, "device Omega_m")
    checks.require_close(float(row["xi_mass"]), checks.drum_mass_ratio(),
                         1e-10, "device xi_mass")


def case_device_sweep(rd, ctx):
    out = rd.path("sweep.csv")
    _run(ctx, "device_sweep", ["device", "--config", str(rd.config), "--out",
                               out, "--sweep-axis", "gap"])
    rows = _csv_rows(out)
    columns = {name: [float(r[col]) for r in rows] for name, col in (
        ("omega_m", "omega_m_hz"), ("m_eff", "m_eff_kg"),
        ("xi_mass", "xi_mass"), ("x_zpf", "x_zpf_m"), ("g0", "g0_hz"),
        ("q_m", "q_m"))}
    checks.check_scaling("gap", [float(r["factor"]) for r in rows], columns)


def case_psd(rd, ctx):
    out = rd.path("spec.csv")
    _run(ctx, "psd", ["psd", "--config", str(rd.config), "--out", out,
                      "--simplified"])
    summary = _json(rd.path("spec.json"))
    n_th, n_c = _baths(rd.ref)
    gamma_m = rd.ref["system"]["gamma_m"]
    drives = {role: rd.ref[f"drives.{role}"] for role in
              ("cooling_pump", "red_probe", "blue_probe")}
    g_p = drives["cooling_pump"]["cooperativity"] * gamma_m
    n_m = checks.steady_state_occupation(
        g_p, drives["red_probe"]["gamma_opt"],
        drives["blue_probe"]["gamma_opt"], gamma_m, n_c, n_th)
    checks.require_close(summary["n_m"], n_m, 1e-10, "psd n_m")


def case_cool(rd, ctx):
    out = rd.path("cooling.csv")
    _run(ctx, "cool", ["cool", "--config", str(rd.config), "--out", out])
    rows = _csv_rows(out)
    n_th, n_c = _baths(rd.ref)
    coop = np.array([float(r["cooperativity"]) for r in rows])
    checks.require(len(rows) == 41, f"cool wrote {len(rows)} rows, not 41")
    checks.require_close([float(r["n_m"]) for r in rows],
                         checks.cooling_occupation(n_th, n_c, coop), 1e-12,
                         "cooling curve")


def case_asymmetry(rd, ctx):
    truth = [(rd.rng.uniform(0.05, 2.0), rd.rng.uniform(0.01, 0.2),
              rd.rng.uniform(0.1, 0.5)) for _ in range(3)]
    peaks = rd.path("peaks.csv")
    with open(peaks, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N_p", "N_b", "N_c", "r_gamma"])
        for n_m, n_c, g_eta in truth:
            writer.writerow([repr(g_eta * (n_m - 2.0 * n_c)),
                             repr(g_eta * (n_m + 1.0 + 2.0 * n_c)),
                             repr(g_eta * n_c), "1.0"])
    out = rd.path("occupations.json")
    _run(ctx, "asymmetry", ["asymmetry", "--peaks", peaks, "--out", out])
    results = _json(out)["results"]
    checks.require_close([[r["n_m"], r["n_c"], r["g_eta"]] for r in results],
                         truth, 1e-9, "asymmetry (n_m, n_c, G eta)")


def _check_batch(path, n_th, r, g_opt, n_add, count):
    samples = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    checks.require(samples.shape == (count, 2),
                   f"batch has shape {samples.shape}, not ({count}, 2)")
    v = (n_th + 0.5) * np.exp([-2.0 * r, 2.0 * r])
    checks.check_second_moments(samples, *(g_opt * (v + n_add + 0.5)),
                                "amplify batch")


def case_amplify(rd, ctx, samples=None):
    name = "amplify" if samples is None else "amplify_large"
    out = rd.path(f"{name}.csv")
    extra = [] if samples is None else ["--samples", str(samples)]
    _run(ctx, name, ["amplify", "--out", out, *AMPLIFY_ARGS, *extra])
    _check_batch(out, 0.4, 0.6, 1.13, 0.8, samples or 12000)


def case_amplify_calibrate(rd, ctx):
    g_opt, n_add = rd.rng.uniform(0.8, 1.5), rd.rng.uniform(0.5, 1.2)
    line = rd.path("line.csv")
    with open(line, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_m", "var_uV2"])
        for n_m in (0.07, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
            writer.writerow([repr(n_m), repr(g_opt * (n_m + 1.0 + n_add))])
    out = rd.path("calib.json")
    _run(ctx, "amplify_calibrate", ["amplify", "--out", out, "--calibrate",
                                    line])
    cal = _json(out)
    checks.require_close([cal["g_opt_uv2_per_quanta"], cal["n_add_opt"]],
                         [g_opt, n_add], 1e-9, "calibration (G_opt, n_add)")


def case_thermalize(rd, ctx):
    out = rd.path("heating.csv")
    _run(ctx, "thermalize", ["thermalize", "--config", str(rd.config),
                             "--out", out, *THERMALIZE_ARGS])
    fit = _json(rd.path("heating.json"))
    n_th, _ = _baths(rd.ref)
    expected = checks.thermalization_slope(
        rd.ref["system"]["gamma_m"], n_th, np.linspace(0.0, 12e-3, 49), 2e-3)
    checks.require_within_sigma(fit["gamma_th_fit_hz"], expected,
                                fit["gamma_th_err_hz"], "thermalize rate")


def case_squeeze(rd, ctx):
    gamma_r = rd.rng.uniform(60.0, 90.0)
    gamma_b = gamma_r * rd.rng.uniform(0.2, 0.4)
    out = rd.path("targets.json")
    _run(ctx, "squeeze", ["squeeze", "--config", str(rd.config), "--out",
                          out, "--gamma-r", repr(gamma_r), "--gamma-b",
                          repr(gamma_b)])
    checks.require_close(_json(out)["r_target"],
                         checks.squeeze_parameter(gamma_r, gamma_b), 1e-12,
                         "squeeze r")


def case_dephase(rd, ctx):
    gamma_th, n_th = rd.rng.uniform(15.0, 20.0), rd.rng.uniform(0.3, 0.5)
    r, gamma_phi = rd.rng.uniform(0.5, 0.7), rd.rng.uniform(0.05, 0.15)
    times = np.linspace(0.0, 5e-3, 11)
    delta = checks.rate_difference(n_th, r, gamma_th, gamma_phi, times)
    out = rd.path("traj.csv")
    _run(ctx, "dephase", ["dephase", "--out", out, "--gamma-th",
                          repr(gamma_th), "--n-th", repr(n_th), "--r",
                          repr(r), "--gamma-phi", repr(gamma_phi), "--delta",
                          repr(delta), "--delta-err", "0.6"])
    result = _json(rd.path("traj.json"))
    checks.require_close(result["rates"]["delta_hz"], delta, 1e-9,
                         "dephase rate difference")
    checks.require(abs(result["extraction"]["gamma_phi_hz"] - gamma_phi)
                   <= 1e-4, "dephase extraction misses Gamma_phi")


def case_g0fit(rd, ctx):
    g0 = rd.rng.uniform(10.0, 16.0)
    s = rd.ref["system"]
    sweep = rd.path("g0sweep.csv")
    with open(sweep, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T_K", "P_SB_meas", "P_cal_meas", "P_MW_src",
                         "P_cal_src"])
        for t in np.linspace(0.05, 0.4, 8):
            ratio = float(checks.sweep_ratio(
                g0, t, s["omega_m"], s["omega_c"], s["kappa_ex"],
                s["kappa_0"]))
            writer.writerow([repr(float(t)), repr(0.1 * 1e-6 * ratio),
                             repr(0.1 * 1e-9), "1e-06", "1e-09"])
    out = rd.path("g0.json")
    _run(ctx, "g0fit", ["g0fit", "--config", str(rd.config), "--sweep",
                        sweep, "--out", out])
    checks.require_close(_json(out)["g0_hz"], g0, 1e-9, "g0fit")


def case_budget(rd, ctx, repeat=False):
    if rd.budget_args is None:
        rd.budget_args = (rd.rng.uniform(10.8, 11.8), rd.rng.uniform(8.4, 9.0),
                          rd.rng.uniform(2.3, 2.7), rd.rng.uniform(1.4, 1.7))
    snri, n_add_h, eta_t, eta = rd.budget_args
    out = rd.path("budget.json")
    _run(ctx, "budget_repeat" if repeat else "budget", [
        "budget", "--out", out, "--snri-db", repr(snri), "--n-add-h",
        repr(n_add_h), "--eta-t-db", repr(eta_t), "--eta-db", repr(eta)])
    result = _json(out)
    n_add_t, total = checks.chain_budget(snri, n_add_h, eta_t, eta)
    checks.require_close([result["n_add_t"], result["total_background"]],
                         [n_add_t, total], 1e-12, "budget")
    manifest = checks.manifest_without_timestamp(_json(out +
                                                       ".manifest.json"))
    if repeat:
        checks.require(manifest == rd.budget_manifest,
                       "repeated budget manifest differs")
    else:
        rd.budget_manifest = manifest


def case_limits(rd, ctx):
    out = rd.path("limits.json")
    _run(ctx, "limits", ["limits", "--config", str(rd.config), "--out", out])
    result = _json(out)
    s = rd.ref["system"]
    n_th, _ = _baths(rd.ref)
    checks.require_close(
        [result["tone_cancellation_db"], result["phase_noise_max_per_hz"]],
        [checks.cancellation_floor(math.pi / 360.0, 0.125),
         checks.phase_noise_ceiling(s["g0"], 0.1, s["omega_m"], n_th,
                                    s["gamma_m"])], 1e-12, "limits")


def case_psd_unknown_role(rd, ctx):
    bad = rd.path("purple.cfg")
    Path(bad).write_text(rd.config.read_text()
                         + "\n[drives.purple]\ngamma_opt = 1\ndelta = 0\n")
    _run(ctx, "psd_purple", ["psd", "--config", bad, "--out",
                             rd.path("purple.csv")], expect=USAGE_ERROR)


def case_dephase_negative(rd, ctx):
    _run(ctx, "dephase_negative", [
        "dephase", "--out", rd.path("negative.csv"), "--gamma-th", "17.1",
        "--n-th", "0.4", "--r", "0.6", "--delta", "-1"], expect=USAGE_ERROR)


def case_amplify_zero(rd, ctx):
    _run(ctx, "amplify_zero", ["amplify", "--out", rd.path("zero.csv"),
                               "--seed", "7", "--samples", "0"],
         expect=USAGE_ERROR)


#: one round, in order; the repeated budget needs the first one's manifest
CASES = (
    ("device", case_device),
    ("device_sweep", case_device_sweep),
    ("psd", case_psd),
    ("cool", case_cool),
    ("asymmetry", case_asymmetry),
    ("amplify", case_amplify),
    ("amplify_calibrate", case_amplify_calibrate),
    ("amplify_large", partial(case_amplify, samples=LARGE_BATCH)),
    ("thermalize", case_thermalize),
    ("squeeze", case_squeeze),
    ("dephase", case_dephase),
    ("g0fit", case_g0fit),
    ("budget", case_budget),
    ("limits", case_limits),
    ("budget_repeat", partial(case_budget, repeat=True)),
    ("psd_purple", case_psd_unknown_role),
    ("dephase_negative", case_dephase_negative),
    ("amplify_zero", case_amplify_zero),
)


def prepare(seed: int, workdir):
    return seed, workdir


def _bind(workdir, rng, cases):
    rd = Round(workdir, rng)
    return [(label, partial(func, rd)) for label, func in cases]


def warmup(inputs):
    seed, workdir = inputs
    return _bind(workdir, np.random.default_rng([seed, 1]),
                 [("warmup_budget", case_budget)])


def cases(inputs, round_index: int):
    seed, workdir = inputs
    return _bind(workdir, np.random.default_rng([seed, 0, round_index]),
                 CASES)
