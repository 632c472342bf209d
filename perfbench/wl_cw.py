"""cw: synthetic devices through the continuous-wave chain.

A case is one device: a drum geometry and system drawn around the reference
device of configs/reference.cfg, taken through

* the drum figures of merit and a four-axis geometry scaling sweep,
* a sideband-asymmetry round trip at OPERATING_POINTS cooling
  cooperativities: three-tone output spectra on the 14 401-point component
  grids (full and simplified forms), wing-corrected peak integration, rate
  normalisation and the closed-form asymmetry solve,
* Voigt fits of noise-free RBW-blurred lines (with noise, fit_peak fails
  on some draws; see CHANGES.md),
* a noise-free g0 temperature sweep, and
* a spectrum written to CSV and read back.

No Lindblad solve and no Monte-Carlo sampling happen here.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import checks

#: reference device (the values of configs/reference.cfg)
SYSTEM = dict(omega_c=5.5e9, kappa=250e3, kappa_ex=200e3, kappa_0=50e3,
              omega_m=1.8e6, gamma_m=0.045, g0=13.4)
GEOMETRY = dict(radius=75e-6, bottom_radius=23e-6, thickness=180e-9,
                gap=180e-9, density=2700.0, stress=350e6,
                youngs_modulus=75e9, xi_par=0.8, q0=4e5, dilution_a=2.0,
                dilution_b=0.0)

DEVICES_PER_ROUND = 6
#: nominal cooling cooperativities of the asymmetry round trips
OPERATING_POINTS = (500.0, 1000.0, 2000.0, 3000.0, 5000.0, 8000.0)
SCALING_AXES = ("radius", "stress", "thickness", "gap")
SCALING_FACTORS = np.geomspace(0.5, 2.0, 3)
#: probe rates [Hz] and tone offsets [Hz] of the three-tone drive
PROBE_RATE = 12.9
PUMP_OFFSET, BLUE_OFFSET = 25e3, 10e3
#: component grids: +/- 600 widths at 12 points per width = 14 401 points
HALFSPAN_WIDTHS, POINTS_PER_WIDTH = 600, 12
VOIGT_LINES = 4
VOIGT_POINTS = 1201
SWEEP_TEMPERATURES = np.linspace(0.05, 0.4, 8)


def _draw_device(rng) -> dict:
    jitter = {k: rng.uniform(0.9, 1.1)
              for k in ("radius", "stress", "thickness", "gap")}
    geometry = dict(GEOMETRY)
    for key, factor in jitter.items():
        geometry[key] *= factor
    geometry["bottom_radius"] *= jitter["radius"]
    return {
        "geometry": geometry,
        "system": dict(SYSTEM, gamma_m=SYSTEM["gamma_m"]
                       * rng.uniform(0.8, 1.2)),
        "n_m_th": rng.uniform(200.0, 300.0),
        "n_c": rng.uniform(0.02, 0.05),
        "g_eta": rng.uniform(0.15, 0.3),
        "cooperativities": [c * rng.uniform(0.9, 1.1)
                            for c in OPERATING_POINTS],
        "voigt": [dict(center=rng.uniform(-50.0, 50.0),
                       fwhm=rng.uniform(5.0, 40.0),
                       rbw=rng.uniform(20.0, 60.0),
                       area=rng.uniform(500.0, 2000.0),
                       floor=rng.uniform(0.5, 1.0))
                  for _ in range(VOIGT_LINES)],
        "g0": rng.uniform(10.0, 16.0),
    }


def _device_figures(api, dev):
    geom = api.device.DrumGeometry(**dev["geometry"])
    omega_c, kappa = dev["system"]["omega_c"], dev["system"]["kappa"]
    res = api.device.mode_figures(geom, omega_c)
    g = dev["geometry"]
    checks.require_close(res.omega_m, checks.drum_frequency(
        g["radius"], g["stress"], g["density"]), 1e-10, "Omega_m")
    checks.require_close(res.xi_mass, checks.drum_mass_ratio(), 1e-10,
                         "xi_mass")
    for axis in SCALING_AXES:
        rows = api.device.scaling_sweep(geom, axis, SCALING_FACTORS,
                                        omega_c=omega_c, kappa=kappa)
        columns = {name: [getattr(row.result, name) for row in rows]
                   for name in ("omega_m", "m_eff", "xi_mass", "x_zpf",
                                "g0", "q_m")}
        columns.update({name: [getattr(row, name) for row in rows]
                        for name in ("gamma_m", "gamma_th", "c0")})
        checks.check_scaling(axis, [row.factor for row in rows], columns)


def _component_grid(center, width):
    half = HALFSPAN_WIDTHS * width
    n = 2 * HALFSPAN_WIDTHS * POINTS_PER_WIDTH + 1
    return center + np.linspace(-half, half, n)


def _check_full_form(full, grid, params, n_c):
    """The full sideband forms have no closed-form integral (they leave the
    simplified Lorentzian fluxes by 1-100 % over OPERATING_POINTS); their
    cavity emission is checked exactly."""
    cavity = checks.cavity_emission(grid, params.eta_kappa, params.kappa,
                                    n_c)
    checks.require_close(full["cavity"].values, cavity, 1e-12,
                         "full-form cavity emission")


def _asymmetry_round_trip(api, params, dev, cooperativity):
    from cryodrum.core import BathOccupations, DriveSet, drive_tone

    gamma_m = params.gamma_m
    tones = (drive_tone("cooling_pump", gamma_m=gamma_m,
                        cooperativity=cooperativity, delta=PUMP_OFFSET),
             drive_tone("red_probe", gamma_m=gamma_m, gamma_opt=PROBE_RATE,
                        delta=0.0),
             drive_tone("blue_probe", gamma_m=gamma_m, gamma_opt=PROBE_RATE,
                        delta=BLUE_OFFSET))
    drives = DriveSet(tones=tones, gamma_m=gamma_m)
    n_c, n_th = dev["n_c"], dev["n_m_th"]
    baths = BathOccupations(n_c_th=n_c * params.kappa / params.kappa_0,
                            n_m_th=n_th, n_c=n_c)
    gain = dev["g_eta"] / params.eta_kappa
    gamma_tot = drives.gamma_tot
    grids = {"pump": (-PUMP_OFFSET, gamma_tot), "red": (0.0, gamma_tot),
             "blue": (BLUE_OFFSET, gamma_tot), "cavity": (0.0, params.kappa)}
    fluxes, spectra = {}, {}
    for label, (center, width) in grids.items():
        grid = _component_grid(center, width)
        full = api.dynamics.output_psd(params, baths, drives, grid)
        _check_full_form(full, grid, params, n_c)
        comp = api.dynamics.output_psd(params, baths, drives, grid,
                                       simplified=True)[label]
        scaled = api.dynamics.Spectrum(freq=comp.freq,
                                       values=gain * comp.values)
        fluxes[label] = api.fitting.integrate_peak(scaled)
        spectra[label] = scaled
    peaks = api.calibration.scaled_peaks_from_fluxes(
        p_b=fluxes["blue"], p_c=fluxes["cavity"], gamma_b=PROBE_RATE,
        kappa=params.kappa, p_p=fluxes["pump"],
        gamma_p=cooperativity * gamma_m, p_r=fluxes["red"],
        gamma_r=PROBE_RATE)
    solved = api.calibration.asymmetry_solve(peaks)
    n_m = checks.steady_state_occupation(
        cooperativity * gamma_m, PROBE_RATE, PROBE_RATE, gamma_m, n_c, n_th)
    checks.require_close([solved.n_m, solved.n_c, solved.g_eta],
                         [n_m, n_c, dev["g_eta"]], 1e-6,
                         "asymmetry round trip (n_m, n_c, G eta)")
    return spectra["blue"]


def _voigt_fits(api, dev):
    for idx, line in enumerate(dev["voigt"]):
        half = 20.0 * max(line["fwhm"], line["rbw"])
        freq = np.linspace(-half, half, VOIGT_POINTS)
        values = checks.voigt_line(freq, line["center"], line["fwhm"],
                                   line["rbw"], line["area"], line["floor"])
        spec = api.dynamics.Spectrum(freq=freq, values=values,
                                     rbw=line["rbw"])
        fit = api.fitting.fit_peak(spec, model="voigt")
        checks.require_close(
            [fit.area, fit.width, fit.floor, fit.center + line["fwhm"]],
            [line["area"], line["fwhm"], line["floor"],
             line["center"] + line["fwhm"]], 1e-9,
            f"Voigt line {idx} (area, FWHM, floor, center)")


def _g0_sweep(api, params, dev):
    s = dev["system"]
    p_mw, p_cal_src, chain = 1e-6, 1e-9, 10.0 ** ((60.0 - 70.0) / 10.0)
    points = [(t, chain * p_mw * checks.sweep_ratio(
        dev["g0"], t, s["omega_m"], s["omega_c"], s["kappa_ex"],
        s["kappa_0"]), chain * p_cal_src, p_mw, p_cal_src)
        for t in SWEEP_TEMPERATURES]
    result = api.calibration.g0_from_sweep(points, params)
    checks.require_close(result.g0, dev["g0"], 1e-9, "g0 sweep")


def _spectrum_file(api, spec, workdir, label):
    path = workdir / f"{label}.csv"
    written = api.dynamics.Spectrum(freq=spec.freq, values=spec.values,
                                    rbw=1.0 / 3.0, floor=0.5 + 1e-9,
                                    label="blue")
    api.datasets.write_spectrum(path, written)
    back = api.datasets.read_spectrum(path)
    checks.require_same_bits(back.freq, written.freq, "spectrum freq")
    checks.require_same_bits(back.values, written.values, "spectrum values")
    checks.require((back.rbw, back.floor, back.label)
                   == (written.rbw, written.floor, written.label),
                   "spectrum metadata")


def _case(dev, ctx):
    from cryodrum.core import validate_params

    api = ctx.api
    params = validate_params(dev["system"])
    _device_figures(api, dev)
    for cooperativity in dev["cooperativities"]:
        blue = _asymmetry_round_trip(api, params, dev, cooperativity)
    _voigt_fits(api, dev)
    _g0_sweep(api, params, dev)
    _spectrum_file(api, blue, ctx.workdir, dev["label"])


def prepare(seed: int, workdir):
    return seed


def _devices(rng, count, prefix):
    devices = []
    for idx in range(count):
        dev = _draw_device(rng)
        dev["label"] = f"{prefix}device{idx}"
        devices.append(dev)
    return devices


def warmup(seed):
    dev = _devices(np.random.default_rng([seed, 1]), 1, "warmup")[0]
    return [(dev["label"], partial(_case, dev))]


def cases(seed, round_index: int):
    rng = np.random.default_rng([seed, 0, round_index])
    return [(dev["label"], partial(_case, dev))
            for dev in _devices(rng, DEVICES_PER_ROUND, "")]
