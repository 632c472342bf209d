"""End-to-end regression suite against the reference-device targets.

Each criterion forward-models a characterized reference device (drumhead
microwave optomechanics at mK temperature), runs the matching inverse
pipeline on the synthetic data, and checks the headline figures at fixed
tolerances.  A criterion returns its checks as rows (name, value, target,
bound) and passes when every row has |value - target| <= bound, which a NaN
value fails; a one-sided check (a deviation or an error) has target 0.  The
same criteria back the `cryodrum reproduce` subcommand and
tests/test_acceptance.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calibration, device, dynamics, fitting, squeezing, tomography
from .core import BathOccupations, DriveSet, drive_tone, validate_params
from .errors import InvalidArgument

#: characterized reference-device constants (cyclic rates, Hz)
REFERENCE_SYSTEM = dict(omega_c=5.5e9, kappa=250e3, kappa_ex=200e3,
                        kappa_0=50e3, omega_m=1.8e6, gamma_m=0.045, g0=13.4)

#: reference drum geometry and materials
REFERENCE_GEOMETRY = device.DrumGeometry(
    radius=75e-6, bottom_radius=23e-6, thickness=180e-9, gap=180e-9,
    density=2700.0, stress=350e6, youngs_modulus=75e9, xi_par=0.8, q0=4e5,
    dilution_a=2.0, dilution_b=0.0)

#: effective mechanical bath occupancy in the cooling runs [quanta]
REFERENCE_N_M_TH = 255.0

SUITE_SEED = 20260809


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    checks: tuple    # rows (name, value, target, bound)
    detail: str

    @property
    def passed(self) -> bool:
        return _within(self.checks)


def _within(checks) -> bool:
    """Every row has |value - target| <= bound; a NaN fails its row."""
    return all(abs(value - target) <= bound
               for _, value, target, bound in checks)


def _params():
    return validate_params(REFERENCE_SYSTEM)


def _drives(params):
    """The cooling pump at cooperativity 6400 and the red and blue probes."""
    tones = (drive_tone("cooling_pump", gamma_m=params.gamma_m,
                        cooperativity=6400.0, delta=25e3),
             drive_tone("red_probe", gamma_m=params.gamma_m, gamma_opt=12.9,
                        delta=0.0),
             drive_tone("blue_probe", gamma_m=params.gamma_m,
                        gamma_opt=12.9, delta=10e3))
    return DriveSet(tones=tones, gamma_m=params.gamma_m)


def _component_grid(center, width):
    half = 600.0 * width
    step = width / 12
    n = int(round(2.0 * half / step)) + 1
    return center + np.linspace(-half, half, n)


def _measured_scaled_peaks(params, baths, drives, gain):
    """Forward spectra -> wing-corrected integrals -> rate-normalised peaks."""
    gamma_tot = drives.gamma_tot
    windows = {"pump": (-drives.tone("cooling_pump").delta, gamma_tot),
               "red": (-drives.tone("red_probe").delta, gamma_tot),
               "blue": (drives.tone("blue_probe").delta, gamma_tot),
               "cavity": (0.0, params.kappa)}
    fluxes = {}
    for label, (center, width) in windows.items():
        grid = _component_grid(center, width)
        comp = dynamics.output_psd(params, baths, drives, grid,
                                   simplified=True)[label]
        scaled = dynamics.Spectrum(freq=comp.freq, values=gain * comp.values)
        fluxes[label] = fitting.integrate_peak(scaled)
    return calibration.scaled_peaks_from_fluxes(
        p_b=fluxes["blue"], p_c=fluxes["cavity"], gamma_b=12.9,
        kappa=params.kappa, p_p=fluxes["pump"],
        gamma_p=drives.gamma_opt("cooling_pump"), p_r=fluxes["red"],
        gamma_r=12.9)


def _fmt(value, digits=4):
    return f"{value:.{digits}g}"


def criterion_1_cooling():
    """Ground-state cooling occupation and the full spectral round trip."""
    params = _params()
    n_m = dynamics.cooling_occupation(REFERENCE_N_M_TH, 0.03, 6400.0)

    drives = _drives(params)
    baths = BathOccupations(n_c_th=0.03 * params.kappa / params.kappa_0,
                            n_m_th=REFERENCE_N_M_TH, n_c=0.03)
    truth = dynamics.steady_state(params, baths, drives)
    gain = 0.21 / params.eta_kappa
    peaks = _measured_scaled_peaks(params, baths, drives, gain)
    solved = calibration.asymmetry_solve(peaks)
    checks = (("n_m", n_m, 0.070, 0.002),
              ("n_m_rel_err", abs(solved.n_m - truth) / truth, 0.0, 1e-6),
              ("n_c_rel_err", abs(solved.n_c - 0.03) / 0.03, 0.0, 1e-6),
              ("g_eta_rel_err", abs(solved.g_eta - 0.21) / 0.21, 0.0, 1e-6))
    errs = ", ".join(_fmt(err, 2) for _, err, _, _ in checks[1:])
    detail = (f"Eq-forward n_m = {_fmt(n_m)} (target 0.070 +/- 0.002); "
              f"round-trip rel errors (n_m, n_c, Geta) = ({errs}) <= 1e-6")
    return CriterionResult(1, "ground-state cooling number", checks, detail)


def criterion_2_thermalization():
    """Heating slope out of the ground state and the one-quantum time."""
    gamma_th = 20.5
    n_m_th = REFERENCE_N_M_TH
    gamma_m = gamma_th / (n_m_th + 1.0)
    readout = tomography.AmplifierSpec(
        gamma_opt_b=85.0 + gamma_m, gamma_amp=85.0, tau=22e-3, dt=1e-5,
        g_opt_uv2=1.13, n_add_opt=0.80)
    times = np.concatenate([np.linspace(0.0, 2e-3, 161),
                            np.linspace(2.5e-3, 12e-3, 25)])
    result = tomography.free_evolution_experiment(
        tomography.GaussianMechState.vacuum(), gamma_th, gamma_m, n_m_th,
        times, readout, n_samples=12000, seed=SUITE_SEED)
    checks = (("gamma_th_fit", result.gamma_th_fit, 20.5, 0.6),
              ("t_one_quantum", result.t_one_quantum, 7.8e-3, 0.05 * 7.8e-3))
    detail = (f"fitted heating rate {_fmt(result.gamma_th_fit)} Hz "
              f"(target 20.5 +/- 0.6); T1 = {_fmt(result.t_one_quantum * 1e3)}"
              " ms (target 7.8 +/- 5%)")
    return CriterionResult(2, "thermal decoherence rate", checks, detail)


def criterion_3_amplifier():
    """Conversion-factor/added-noise recovery and the amplification gain."""
    g_true, n_add_true = 1.13, 0.80
    occupations = [0.07, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
    points = []
    for idx, n_m in enumerate(occupations):
        batch = tomography.sample_quadratures(
            tomography.GaussianMechState.thermal(n_m), g_true, n_add_true,
            12000, seed=[SUITE_SEED, 3, idx])
        var = float(np.mean(batch.samples**2))
        points.append((n_m, var))
    cal = tomography.calibrate_amplifier(points)
    spec = tomography.AmplifierSpec(gamma_opt_b=85.0, gamma_amp=85.0,
                                    tau=22e-3, dt=1e-5)
    gain_db = spec.gain_db
    checks = (("g_opt", cal.g_opt, g_true, 0.04),
              ("n_add_opt", cal.n_add_opt, n_add_true, 0.09),
              ("gain_db", gain_db, 51.0, 0.1))
    detail = (f"recovered G_opt = {_fmt(cal.g_opt)} (+/-0.04 of 1.13), "
              f"n_add = {_fmt(cal.n_add_opt)} (+/-0.09 of 0.80); filter gain "
              f"{_fmt(gain_db, 4)} dB (target 51.0)")
    return CriterionResult(3, "amplification calibration", checks, detail)


def criterion_4_squeezing_bookkeeping():
    """Noise subtraction to dB and the squeezed-thermal inversion."""
    g_opt, n_add = 1.13, 0.80
    v_pair = (0.27, 3.27)
    measured = [g_opt * (v + n_add + 0.5) for v in v_pair]
    subtracted = [m / g_opt - n_add - 0.5 for m in measured]
    db = [10.0 * math.log10(v / 0.5) for v in subtracted]
    n_th, r = tomography.squeezed_thermal_from_variances(*v_pair)
    checks = (("v_sq_db", db[0], -2.7, 0.1), ("v_asq_db", db[1], 8.1, 0.1),
              ("n_th", n_th, 0.4, 0.2), ("r", r, 0.6, 0.1))
    detail = (f"noise-subtracted pair -> ({_fmt(db[0], 3)}, {_fmt(db[1], 3)})"
              f" dB (targets -2.7, +8.1); inversion (n_th, r) = "
              f"({_fmt(n_th, 3)}, {_fmt(r, 3)}) within (0.4+/-0.2, 0.6+/-0.1)")
    return CriterionResult(4, "squeezing bookkeeping", checks, detail)


def criterion_5_dephasing():
    """Slope-difference forward value and the dephasing inversion."""
    initial = tomography.GaussianMechState.squeezed_thermal(0.4, 0.6)
    times = np.linspace(0.0, 5e-3, 11)
    model = squeezing.DephasingModel(gamma_th=17.1, gamma_phi=0.09,
                                     initial=initial)
    traj = squeezing.moments_evolve(model, times)
    rates = squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
    clean = squeezing.extract_dephasing(rates.delta, initial, gamma_th=17.1,
                                        times=times)
    measured = squeezing.extract_dephasing(1.1, initial, gamma_th=17.1,
                                           times=times, delta_err=0.6,
                                           n_th_err=0.2, r_err=0.1)
    checks = (("delta", rates.delta, 0.98, 0.02),
              ("gamma_phi_noiseless", clean.gamma_phi, 0.09, 1e-3),
              ("gamma_phi_measured", measured.gamma_phi, 0.09, 0.05))
    detail = (f"forward slope difference {_fmt(rates.delta, 3)} Hz (target "
              f"0.98 +/- 0.02); noiseless inversion {_fmt(clean.gamma_phi, 3)}"
              f" Hz; measured-rates inversion {_fmt(measured.gamma_phi, 3)} "
              f"(+{_fmt(measured.hi - measured.gamma_phi, 2)}/-"
              f"{_fmt(measured.gamma_phi - measured.lo, 2)}) Hz")
    return CriterionResult(5, "dephasing extraction", checks, detail)


def criterion_6_oracle_equivalence():
    """Truncated-Fock solver vs closed moment equations, plus CPTP checks."""
    rng = np.random.default_rng(SUITE_SEED + 6)
    times = np.linspace(0.0, 5e-3, 6)
    deviations, trace_devs, min_eigenvalues = [], [], []
    for _ in range(20):
        n_th = rng.uniform(0.0, 2.0)
        r = rng.uniform(0.0, 1.0)
        gamma_phi = rng.uniform(0.0, 1.0)
        gamma_th = rng.uniform(1.0, 50.0)
        initial = tomography.GaussianMechState.squeezed_thermal(n_th, r)
        model = squeezing.DephasingModel(gamma_th=gamma_th,
                                         gamma_phi=gamma_phi, initial=initial)
        mom = squeezing.moments_evolve(model, times)
        lind = squeezing.lindblad_evolve(model, times)
        deviations += [np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0))
                       for a, b in ((lind.n, mom.n), (lind.v_sq, mom.v_sq),
                                    (lind.v_asq, mom.v_asq))]
        trace_devs.append(lind.trace_dev.max())
        min_eigenvalues.append(lind.min_eigenvalue.min())
    worst = np.max(deviations)
    checks = (("moment_deviation", worst, 0.0, 1e-3),
              ("trace_deviation", np.max(trace_devs), 0.0, 1e-10),
              ("negative_eigenvalue",
               np.maximum(0.0, -np.min(min_eigenvalues)), 0.0, 1e-8))
    cptp = "held" if _within(checks[1:]) else "FAILED"
    detail = (f"20 random configs: worst moment deviation {_fmt(worst, 2)} "
              f"(<= 1e-3); CPTP invariants {cptp}")
    return CriterionResult(6, "Lindblad oracle equivalence", checks, detail)


def criterion_7_noise_budgets():
    """Chain budget, tone-cancellation floor, and the phase-noise ceiling."""
    budget = calibration.chain_noise_budget(calibration.ChainBudget(
        snri_db=11.3, n_add_h=8.7, eta_t_db=2.5, eta_db=1.55))

    one = calibration.tone_cancellation_floor(math.pi / 360.0, 0.125)
    two = calibration.tone_cancellation_floor(math.pi / 360.0, 0.125,
                                              branches=2)

    params = _params()
    limit = calibration.phase_noise_requirement(params, REFERENCE_N_M_TH,
                                                n_min=0.1)
    checks = (("n_add_t", budget.n_add_t, 0.28, 0.03),
              ("total_background", budget.total_background, 1.83, 0.05),
              ("cancellation_db", one, -35.5, 0.1),
              ("cancellation_two_branch_db", two, -71.0, 0.2),
              ("phase_noise_dbc_per_hz", limit.dbc_per_hz, -137.0, 4.0))
    detail = (f"n_add_T = {_fmt(budget.n_add_t, 3)} (~0.28), background "
              f"{_fmt(budget.total_background, 3)} (~1.83); cancellation "
              f"{_fmt(one, 3)} / {_fmt(two, 3)} dB; phase-noise ceiling "
              f"{_fmt(limit.dbc_per_hz, 4)} dBc/Hz (-137 +/- 4)")
    return CriterionResult(7, "noise budgets", checks, detail)


def criterion_8_device_figures():
    """Drum figures of merit and the scaling-law exponents."""
    geom = REFERENCE_GEOMETRY
    params = _params()
    res = device.mode_figures(geom, params.omega_c)
    figures = (("omega_m", res.omega_m, 1.8e6, 0.03),
               ("m_eff", res.m_eff, 2.3e-12, 0.03),
               ("x_zpf", res.x_zpf, 1.4e-15, 0.05),
               ("xi_cap", res.xi_cap, 0.93, 0.01),
               ("g0", res.g0, 14.0, 0.15),
               ("d_q", res.d_q, 100.0, 0.20))
    checks = [(name, value, target, tol * target)
              for name, value, target, tol in figures]

    factors = np.geomspace(0.5, 2.0, 7)
    for axis in ("radius", "stress", "thickness", "gap"):
        rows = device.scaling_sweep(geom, axis, factors,
                                    omega_c=params.omega_c,
                                    kappa=params.kappa)
        checks += [(f"{quantity}_{axis}_exponent",
                    device.sweep_exponent(rows, quantity), expected, 1e-6)
                   for (quantity, ax), expected
                   in device.SCALING_EXPONENTS.items() if ax == axis]
    worst = np.max([abs(fitted - expected)
                    for _, fitted, expected, _ in checks[len(figures):]])
    summary = ", ".join(f"{name}={_fmt(value, 3)}"
                        for name, value, _, _ in figures)
    detail = (f"{summary}; worst scaling-exponent deviation "
              f"{_fmt(worst, 2)} (<= 1e-6)")
    return CriterionResult(8, "device figures of merit", tuple(checks),
                           detail)


def criterion_9_g0_sweep():
    """Coupling-rate sweep inversion under noise and gain rescaling."""
    params = _params()
    temps = np.linspace(0.05, 0.4, 8)
    rows = calibration.synthesize_g0_sweep(params, 13.4, temps,
                                           noise_rel=0.03, seed=SUITE_SEED + 9)
    result = calibration.g0_from_sweep(
        rows, params, eta_att_db=calibration.SWEEP_ATT_DB)

    rescaled = [calibration.G0SweepPoint(
        p.temperature, 3.1 * p.p_sb_meas, 3.1 * p.p_cal_meas, p.p_mw_src,
        p.p_cal_src) for p in rows]
    result_rescaled = calibration.g0_from_sweep(rescaled, params)
    checks = (("g0", result.g0, 13.4, 0.5),
              ("g0_rescaled", result_rescaled.g0, result.g0, 1e-9 * result.g0))
    invariant = "yes" if _within(checks[1:]) else "NO"
    detail = (f"recovered g0 = {_fmt(result.g0)} +/- {_fmt(result.g0_err, 2)}"
              " Hz (target 13.4 +/- 0.5); invariant under common chain "
              f"rescaling ({invariant})")
    return CriterionResult(9, "g0 temperature sweep", checks, detail)


CRITERIA = (
    criterion_1_cooling,
    criterion_2_thermalization,
    criterion_3_amplifier,
    criterion_4_squeezing_bookkeeping,
    criterion_5_dephasing,
    criterion_6_oracle_equivalence,
    criterion_7_noise_budgets,
    criterion_8_device_figures,
    criterion_9_g0_sweep,
)


def run_criteria(indices=None) -> list:
    """Run the acceptance criteria (all by default), returning the results."""
    if indices is not None:
        unknown = sorted(set(indices) - set(range(1, len(CRITERIA) + 1)))
        if unknown:
            raise InvalidArgument(f"no criteria {unknown}; the criteria are "
                                  f"numbered 1-{len(CRITERIA)}")
    results = []
    for idx, func in enumerate(CRITERIA, start=1):
        if indices is not None and idx not in indices:
            continue
        results.append(func())
    return results


def format_table(results) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"[{status}] {res.index}. {res.name}: {res.detail}")
    n_passed = sum(r.passed for r in results)
    lines.append(f"{n_passed}/{len(results)} criteria passed")
    return "\n".join(lines)
