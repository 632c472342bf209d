"""Command-line front end: config-driven pipelines with run manifests.

Every run writes its outputs plus a JSON manifest sidecar
(`<output>.manifest.json`) recording the command, config, inputs, outputs,
seed, tool version, timestamp and the parameter snapshot, so identical
manifests (timestamp aside) regenerate byte-identical outputs.  Each command
except `reproduce` takes the parsed arguments and the config (read once by
`main` when there is a --config), writes its outputs and returns their
paths; `main` then writes every manifest.  Stochastic commands require an
explicit --seed.  Each command imports the layers it calls inside its
function, numpy and `datasets` included, so a process loads only the
modules of the command it runs: `import cryodrum.cli` loads `config`,
`core` and `errors` and no numpy, and neither do `--help`, an option out
of its domain, a missing --seed, an unreadable config, `budget` or
`limits`.  No command loads scipy: the package depends on numpy alone.

OPTION_DOMAINS gives every numeric option a domain from `errors`, and `main`
checks each against it once, before the config is read.

Exit codes: 0 success, 1 reproduction-suite failure, 2 usage error (an input
outside its domain raises InvalidArgument, or a file is missing), 3 numerical
failure (a derived value leaves the double range, or a solve or fit fails).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import config as config_mod
from .errors import (COUNT, FINITE, FRACTION, NON_NEGATIVE, POSITIVE,
                     CryodrumError, InvalidArgument, require)

DEVICE_COLUMNS = ["axis", "factor", "omega_m_hz", "m_eff_kg", "m_phys_kg",
                  "xi_mass", "x_zpf_m", "xi_cap", "g0_hz", "lambda", "d_q",
                  "q_m"]

#: options naming input files, in the order a manifest lists them
INPUT_OPTIONS = ("config", "sweep", "peaks", "calibrate")
_STOCHASTIC = {"amplify", "thermalize"}


def _sampling(args) -> bool:
    """A stochastic command that draws samples (not a --calibrate fit)."""
    return args.command in _STOCHASTIC and not getattr(args, "calibrate",
                                                       None)


def _write_manifest(args, outputs, cp):
    options = {key: value for key, value in vars(args).items()
               if key != "func" and not callable(value)}
    manifest = {
        "command": args.command,
        "options": options,
        "config": options.get("config"),
        "inputs": [str(options[key]) for key in INPUT_OPTIONS
                   if options.get(key)],
        "outputs": [str(p) for p in outputs],
        "seed": args.seed if _sampling(args) else None,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "parameters": {section: dict(cp.items(section))
                       for section in cp.sections()}
                      if cp is not None else {},
    }
    _json_out(str(args.out) + ".manifest.json", manifest)


def _load_stack(cp):
    params = config_mod.load_system(cp)
    baths = config_mod.load_baths(cp, params)
    drives = config_mod.load_drives(cp, params)
    return params, baths, drives


def _numbers(text, kind, option):
    """Comma-separated numbers of a list option; InvalidArgument if any
    token does not parse."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidArgument(f"{option} expects comma-separated numbers, "
                              f"got {text!r}") from None


#: option -> domain; a list option (--factors) tests each number
OPTION_DOMAINS = {
    "points": (">= 2", lambda v: v >= 2),
    "eta_kappa": FRACTION,
    **dict.fromkeys(("samples", "branches"), COUNT),
    **dict.fromkeys(("factors", "span_widths", "cmin", "cmax", "g_opt", "tau",
                     "tmax", "gamma_r", "n_min"), POSITIVE),
    **dict.fromkeys(("seed", "n_th", "n_add", "gamma_amp", "gamma_b",
                     "gamma_th", "gamma_phi", "delta", "delta_err",
                     "eta_att_db", "n_add_h", "eta_t_db", "eta_db"),
                    NON_NEGATIVE),
    **dict.fromkeys(("r", "snri_db", "delta_phi", "delta_att_db"), FINITE),
}


def _check_options(args):
    """InvalidArgument, a usage error, unless every numeric option that is
    set lies in its domain."""
    for option, domain in OPTION_DOMAINS.items():
        value = getattr(args, option, None)
        if value is None:
            continue
        flag = "--" + option.replace("_", "-")
        for number in _numbers(value, float, flag) \
                if isinstance(value, str) else [value]:
            require(domain, **{flag: number})


def _json_out(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_device(args, cp):
    import numpy as np

    from . import datasets, device

    geom = config_mod.load_geometry(cp)
    params = config_mod.load_system(cp)
    if args.sweep_axis:
        factors = _numbers(args.factors, float, "--factors")
        sweep = device.scaling_sweep(geom, args.sweep_axis, factors,
                                     omega_c=params.omega_c,
                                     kappa=params.kappa)
        rows = [(row.axis, row.factor, row.result) for row in sweep]
    else:
        rows = [("-", 1.0, device.mode_figures(geom, params.omega_c))]

    values = np.array([
        (factor, res.omega_m, res.m_eff, res.m_phys, res.xi_mass, res.x_zpf,
         res.xi_cap, res.g0, res.lam, res.d_q, res.q_m)
        for _, factor, res in rows], dtype=float)
    datasets.write_columns(args.out, DEVICE_COLUMNS, [
        np.array([axis for axis, _, _ in rows], dtype="S"), *values.T])
    return [args.out]


def cmd_psd(args, cp):
    # a config or span error exits before numpy loads
    params, baths, drives = _load_stack(cp)
    half = args.span_widths * drives.gamma_tot
    # linspace takes the difference of the end points, and the cavity
    # Lorentzian 4 nu^2: both must stay finite
    if not 2.0 * half < math.sqrt(sys.float_info.max):
        raise InvalidArgument(
            f"--span-widths {args.span_widths!r} times Gamma_tot = "
            f"{drives.gamma_tot:.6g} Hz overflows the frequency grid")
    import numpy as np

    from . import datasets, dynamics

    grid = np.linspace(-half, half, args.points)
    comps = dynamics.output_psd(params, baths, drives, grid,
                                simplified=args.simplified)
    labels = ("cavity", "pump", "red", "blue")
    datasets.write_columns(args.out, ["freq_hz", "value", "component"], [
        np.concatenate([comps[label].freq for label in labels]),
        np.concatenate([comps[label].values for label in labels]),
        np.repeat(np.array(labels, dtype="S"), grid.size)])
    summary = {
        "n_m": dynamics.steady_state(params, baths, drives),
        "n_c": baths.n_c,
        "gamma_tot_hz": drives.gamma_tot,
        "resolved_sideband_param": params.resolved_sideband_param,
        "floor": dynamics.VACUUM_FLOOR,
        "peak_heights": {label: float(np.max(np.abs(comps[label].values)))
                         for label in labels},
    }
    summary_path = args.summary or str(Path(args.out).with_suffix(".json"))
    _json_out(summary_path, summary)
    return [args.out, summary_path]


def cmd_cool(args, cp):
    import numpy as np

    from . import datasets, dynamics

    _, baths, _ = _load_stack(cp)
    coops = np.geomspace(args.cmin, args.cmax, args.points)
    n_m = [dynamics.cooling_occupation(baths.n_m_th, baths.n_c, c)
           for c in coops.tolist()]
    datasets.write_columns(args.out, ["cooperativity", "n_m"], [coops, n_m])
    return [args.out]


def cmd_asymmetry(args, cp):
    from . import calibration, datasets

    peaks = datasets.read_peaks(args.peaks)
    records = []
    for row in peaks:
        solved = calibration.asymmetry_solve(row, eta_kappa=args.eta_kappa)
        records.append({"n_m": solved.n_m, "n_c": solved.n_c,
                        "g_eta": solved.g_eta, "n_add": solved.n_add,
                        "background_over_geta": solved.background_over_geta})
    payload = {"results": records}
    if len(records) > 1:
        # plateau average with a uniform 5% relative weight per row
        g_etas = [r["g_eta"] for r in records]
        errors = [max(abs(g) * 0.05, 1e-30) for g in g_etas]
        mean, err = calibration.combine_calibrations(g_etas, errors)
        payload["g_eta_combined"] = {"value": mean, "error": err}
    _json_out(args.out, payload)
    return [args.out]


def cmd_amplify(args, cp):
    from . import datasets, tomography

    if args.calibrate:
        cal = tomography.calibrate_amplifier(
            datasets.read_line(args.calibrate))
        _json_out(args.out, {
            "g_opt_uv2_per_quanta": cal.g_opt, "g_opt_err": cal.g_opt_err,
            "n_add_opt": cal.n_add_opt, "n_add_err": cal.n_add_err,
            "chi2": cal.fit.chi2, "dof": cal.fit.dof})
        return [args.out]

    state = tomography.GaussianMechState.squeezed_thermal(args.n_th, args.r)
    batch = tomography.sample_quadratures(state, args.g_opt, args.n_add,
                                          args.samples, seed=args.seed)
    datasets.write_quadratures(args.out, batch)
    return [args.out]


def cmd_thermalize(args, cp):
    import numpy as np

    from . import core, datasets, tomography

    params, baths, _ = _load_stack(cp)
    readout = tomography.AmplifierSpec(
        gamma_opt_b=args.gamma_amp + params.gamma_m, gamma_amp=args.gamma_amp,
        tau=args.tau, dt=args.tau / 2048.0, eta_kappa=params.eta_kappa,
        g_opt_uv2=args.g_opt, n_add_opt=args.n_add)
    times = np.linspace(0.0, args.tmax, args.points)
    gamma_th = core.thermal_decoherence_rate(baths.n_m_th, params.gamma_m)
    result = tomography.free_evolution_experiment(
        tomography.GaussianMechState.vacuum(), gamma_th, params.gamma_m,
        baths.n_m_th, times, readout, n_samples=args.samples, seed=args.seed)
    datasets.write_columns(args.out, ["t_s", "n_est", "n_err"],
                           [result.times, result.n_est, result.n_err])
    fit_path = str(Path(args.out).with_suffix(".json"))
    _json_out(fit_path, {
        "gamma_th_fit_hz": result.gamma_th_fit,
        "gamma_th_err_hz": result.gamma_th_err,
        "gamma_m_fit_hz": result.gamma_m_fit,
        "n_eq_fit": result.n_eq_fit,
        "t_one_quantum_s": result.t_one_quantum,
        "relaxation_identified": result.relaxation_identified})
    return [args.out, fit_path]


def cmd_squeeze(args, cp):
    import numpy as np

    from . import squeezing

    params, baths, _ = _load_stack(cp)
    drive = squeezing.squeeze_drive(args.gamma_r, args.gamma_b, params.kappa)
    r, v_sq, v_asq = squeezing.squeeze_target(drive)
    coop = args.gamma_r / params.gamma_m
    payload = {
        "r_target": r,
        "ratio_db": drive.ratio_db,
        "coupling_g_hz": drive.coupling_g,
        "ideal_var_sq": v_sq,
        "ideal_var_asq": v_asq,
        "ideal_squeezing_db": 10.0 * np.log10(2.0 * v_sq),
        "squeezing_limit_db": squeezing.squeezing_limit(baths.n_m_th, coop),
    }
    _json_out(args.out, payload)
    return [args.out]


def cmd_dephase(args, cp):
    import numpy as np

    from . import datasets, squeezing, tomography

    initial = tomography.GaussianMechState.squeezed_thermal(args.n_th, args.r)
    times = np.linspace(0.0, args.tmax, args.points)
    gamma_phi = args.gamma_phi if args.gamma_phi is not None else 0.0
    model = squeezing.DephasingModel(gamma_th=args.gamma_th,
                                     gamma_phi=gamma_phi, initial=initial)
    traj = squeezing.moments_evolve(model, times)
    datasets.write_trajectory(args.out, times, traj.v_sq, traj.v_asq, traj.n)

    result_path = str(Path(args.out).with_suffix(".json"))
    payload = {"gamma_th_hz": args.gamma_th, "gamma_phi_hz": gamma_phi}
    rates = squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
    payload["rates"] = {"gamma_sq_hz": rates.gamma_sq,
                        "gamma_asq_hz": rates.gamma_asq,
                        "delta_hz": rates.delta}
    if args.delta is not None:
        extraction = squeezing.extract_dephasing(
            args.delta, initial, gamma_th=args.gamma_th, times=times,
            delta_err=args.delta_err)
        payload["extraction"] = {
            "gamma_phi_hz": extraction.gamma_phi,
            "interval_hz": [extraction.lo, extraction.hi],
            "curve_gamma_phi_hz": extraction.curve_phi.tolist(),
            "curve_delta_hz": extraction.curve_delta.tolist()}
    _json_out(result_path, payload)
    return [args.out, result_path]


def cmd_g0fit(args, cp):
    from . import calibration, datasets

    params = config_mod.load_system(cp)
    sweep = datasets.read_sweep(args.sweep)
    result = calibration.g0_from_sweep(sweep, params,
                                       eta_att_db=args.eta_att_db)
    _json_out(args.out, {
        "g0_hz": result.g0, "g0_err_hz": result.g0_err,
        "slope": result.fit.slope, "slope_err": result.fit.slope_err,
        "n_ba": [x if x is None else float(x) for x in result.n_ba]})
    return [args.out]


def cmd_budget(args, cp):
    from . import calibration

    budget = calibration.chain_noise_budget(calibration.ChainBudget(
        snri_db=args.snri_db, n_add_h=args.n_add_h, eta_t_db=args.eta_t_db,
        eta_db=args.eta_db))
    _json_out(args.out, {
        "n_add_t": budget.n_add_t,
        "total_background": budget.total_background,
        "n_add": budget.total_background - 1.0})
    return [args.out]


def cmd_limits(args, cp):
    from . import calibration

    params, baths, _ = _load_stack(cp)
    limit = calibration.phase_noise_requirement(params, baths.n_m_th,
                                                args.n_min)
    payload = {
        "phase_noise_max_per_hz": limit.s_phiphi,
        "phase_noise_max_dbc_per_hz": limit.dbc_per_hz,
        "tone_cancellation_db": calibration.tone_cancellation_floor(
            args.delta_phi, args.delta_att_db, args.branches),
    }
    _json_out(args.out, payload)
    return [args.out]


def cmd_reproduce(args):
    from . import reproduce as reproduce_mod

    indices = None
    if args.criteria:
        indices = set(_numbers(args.criteria, int, "--criteria"))
    results = reproduce_mod.run_criteria(indices)
    print(reproduce_mod.format_table(results))
    if args.json:
        _json_out(args.json, [
            {"index": r.index, "name": r.name, "passed": r.passed,
             "detail": r.detail, "checks": [
                 {"name": name, "value": float(value),
                  "target": float(target), "bound": float(bound),
                  "margin": float(abs(value - target) / bound)}
                 for name, value, target, bound in r.checks]}
            for r in results])
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryodrum",
        description="simulation and calibration toolkit for drumhead "
                    "microwave optomechanics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("device", help="drum figures of merit / scaling sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sweep-axis", default=None,
                   choices=["radius", "stress", "thickness", "gap"])
    p.add_argument("--factors", default="0.5,1.0,2.0")
    p.set_defaults(func=cmd_device)

    p = sub.add_parser("psd", help="output noise PSD components")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.add_argument("--simplified", action="store_true")
    p.add_argument("--span-widths", type=float, default=50.0,
                   help="half span in units of Gamma_tot")
    p.add_argument("--points", type=int, default=2001)
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("cool", help="cooling curve n_m vs cooperativity")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cmin", type=float, default=1.0)
    p.add_argument("--cmax", type=float, default=1e4)
    p.add_argument("--points", type=int, default=41)
    p.set_defaults(func=cmd_cool)

    p = sub.add_parser("asymmetry", help="solve scaled peaks for occupations")
    p.add_argument("--peaks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eta-kappa", type=float, default=None)
    p.set_defaults(func=cmd_asymmetry)

    p = sub.add_parser("amplify",
                       help="quadrature batch generation / calibration fit")
    p.add_argument("--out", required=True)
    p.add_argument("--calibrate", default=None,
                   help="CSV of (n_m, var_uV2) points to fit instead")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=12000)
    p.add_argument("--n-th", type=float, default=0.0)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--g-opt", type=float, default=1.0)
    p.add_argument("--n-add", type=float, default=0.0)
    p.set_defaults(func=cmd_amplify)

    p = sub.add_parser("thermalize", help="free-evolution heating run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=12000)
    p.add_argument("--tmax", type=float, default=12e-3)
    p.add_argument("--points", type=int, default=49)
    p.add_argument("--gamma-amp", type=float, default=85.0)
    p.add_argument("--tau", type=float, default=22e-3)
    p.add_argument("--g-opt", type=float, default=1.0)
    p.add_argument("--n-add", type=float, default=0.0)
    p.set_defaults(func=cmd_thermalize)

    p = sub.add_parser("squeeze", help="dissipative squeezing targets")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gamma-r", type=float, required=True)
    p.add_argument("--gamma-b", type=float, required=True)
    p.set_defaults(func=cmd_squeeze)

    p = sub.add_parser("dephase", help="dephasing trajectory / extraction")
    p.add_argument("--out", required=True)
    p.add_argument("--gamma-th", type=float, required=True)
    p.add_argument("--n-th", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--gamma-phi", type=float, default=None)
    p.add_argument("--delta", type=float, default=None,
                   help="measured rate difference [Hz] to invert")
    p.add_argument("--delta-err", type=float, default=0.0)
    p.add_argument("--tmax", type=float, default=5e-3)
    p.add_argument("--points", type=int, default=11)
    p.set_defaults(func=cmd_dephase)

    p = sub.add_parser("g0fit", help="coupling rate from temperature sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--sweep", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eta-att-db", type=float, default=None)
    p.set_defaults(func=cmd_g0fit)

    p = sub.add_parser("budget", help="chain noise budget")
    p.add_argument("--out", required=True)
    p.add_argument("--snri-db", type=float, required=True)
    p.add_argument("--n-add-h", type=float, required=True)
    p.add_argument("--eta-t-db", type=float, required=True)
    p.add_argument("--eta-db", type=float, required=True)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("limits", help="cancellation floor and phase-noise "
                                      "ceiling")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-min", type=float, default=0.1)
    p.add_argument("--delta-phi", type=float, default=math.pi / 360.0)
    p.add_argument("--delta-att-db", type=float, default=0.125)
    p.add_argument("--branches", type=int, default=1)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("reproduce", help="run the acceptance criteria table")
    p.add_argument("--criteria", default=None,
                   help="comma-separated subset, e.g. 1,4,7")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_reproduce)

    return parser


#: relative output paths resolve under this directory when set
OUTDIR_ENV = "CRYODRUM_OUTDIR"


def _apply_outdir(args):
    outdir = os.environ.get(OUTDIR_ENV)
    if not outdir:
        return
    for attr in ("out", "summary", "json"):
        value = getattr(args, attr, None)
        if value and not Path(value).is_absolute():
            setattr(args, attr, str(Path(outdir) / value))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if _sampling(args) and args.seed is None:
        print("error: --seed is required for stochastic commands",
              file=sys.stderr)
        return 2
    _apply_outdir(args)
    try:
        _check_options(args)
        if args.command == "reproduce":
            return args.func(args)
        cp = config_mod.read_config(args.config) \
            if getattr(args, "config", None) else None
        _write_manifest(args, args.func(args, cp), cp)
        return 0
    except (InvalidArgument, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CryodrumError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
