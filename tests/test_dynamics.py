import warnings

import numpy as np
import pytest

from cryodrum import core, dynamics
from cryodrum.errors import OverlapWarning, WeakCouplingWarning


def drives_for(params, *, pump_c=None, red=None, blue=None, deltas=(25e3, 0.0, 10e3)):
    tones = []
    if pump_c is not None:
        tones.append(core.drive_tone("cooling_pump", gamma_m=params.gamma_m,
                                     cooperativity=pump_c, delta=deltas[0]))
    if red is not None:
        tones.append(core.drive_tone("red_probe", gamma_m=params.gamma_m,
                                     gamma_opt=red, delta=deltas[1]))
    if blue is not None:
        tones.append(core.drive_tone("blue_probe", gamma_m=params.gamma_m,
                                     gamma_opt=blue, delta=deltas[2]))
    return core.DriveSet(tones=tuple(tones), gamma_m=params.gamma_m)


def test_cooling_occupation_limits():
    assert dynamics.cooling_occupation(255.0, 0.05, 0.0) == 255.0
    # large-C limit saturates at the cavity occupation
    assert dynamics.cooling_occupation(255.0, 0.05, 1e12) \
        == pytest.approx(0.05, abs=1e-9)
    assert dynamics.cooling_occupation(255.0, 0.03, 6400.0) \
        == pytest.approx(0.0698328, rel=1e-5)


def test_steady_state_matches_cooling_equation(params):
    baths = core.BathOccupations(n_c_th=0.15, n_m_th=255.0, n_c=0.03)
    for coop in (10.0, 500.0, 6400.0):
        drives = drives_for(params, pump_c=coop)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            n_m = dynamics.steady_state(params, baths, drives).n_m
        assert n_m == pytest.approx(
            dynamics.cooling_occupation(255.0, 0.03, coop), rel=1e-12)


def test_steady_state_quantum_backaction(params):
    # balanced probes, no pump, zero cavity occupation
    baths = core.BathOccupations(n_c_th=0.0, n_m_th=100.0, n_c=0.0)
    drives = drives_for(params, red=12.9, blue=12.9)
    n_m = dynamics.steady_state(params, baths, drives).n_m
    assert n_m == pytest.approx(100.0 + 12.9 / params.gamma_m, rel=1e-12)


def test_steady_state_reference_scale(params):
    baths = core.BathOccupations(n_c_th=0.25, n_m_th=255.0, n_c=0.05)
    drives = drives_for(params, pump_c=2000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        n_m = dynamics.steady_state(params, baths, drives).n_m
    assert n_m == pytest.approx(0.177, abs=5e-4)


def test_weak_coupling_warning(params):
    baths = core.BathOccupations(n_m_th=10.0)
    drives = drives_for(params, pump_c=1e5)   # Gamma_tot = 4.5 kHz > kappa/100
    with pytest.warns(WeakCouplingWarning):
        dynamics.steady_state(params, baths, drives)


def test_output_psd_cavity_peak():
    params = core.validate_params(dict(
        omega_c=5.5e9, kappa=250e3, kappa_ex=250e3, kappa_0=0.0,
        omega_m=1.8e6, gamma_m=0.045, g0=13.4))
    baths = core.BathOccupations(n_c_th=0.0, n_m_th=255.0, n_c=0.05)
    drives = drives_for(params, pump_c=500.0)
    grid = np.linspace(-1e3, 1e3, 11)
    comps = dynamics.output_psd(params, baths, drives, grid)
    # eta = 1, n_c = 0.05 -> S_c(0) = 0.2 above the vacuum floor
    assert comps["cavity"].values[5] == pytest.approx(0.2, rel=1e-6)
    assert comps["floor"] == 0.5


def test_cavity_flux_normalization(params, baths, pump_only):
    # integrating the cavity emission over 2 pi kappa_ex returns n_c
    from cryodrum import fitting
    grid = np.linspace(-400 * params.kappa, 400 * params.kappa, 16001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        cav = dynamics.output_psd(params, baths, pump_only, grid)["cavity"]
    flux = fitting.integrate_peak(cav)
    assert flux / (2.0 * np.pi * params.kappa_ex) \
        == pytest.approx(baths.n_c, rel=1e-6)


def test_component_fluxes_vs_numeric(params, baths, three_tone):
    from cryodrum import fitting
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        fluxes = dynamics.component_fluxes(params, baths, three_tone)
        gt = three_tone.gamma_tot
        grid = np.linspace(-10e3 - 600 * gt, 10e3 + 600 * gt, 3_000_001)
        comps = dynamics.output_psd(params, baths, three_tone, grid,
                                    simplified=True)
    for label in ("pump", "red", "blue"):
        numeric = float(np.trapezoid(comps[label].values, grid))
        assert numeric == pytest.approx(fluxes[label], rel=2e-3)


def test_simplified_zero_at_dip_threshold(params, pump_only):
    # n_m = 2 n_c exactly: pump and red sidebands vanish identically
    baths = core.BathOccupations(n_c_th=0.5, n_m_th=255.0, n_c=0.1)
    drives = pump_only
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        n_m = dynamics.steady_state(params, baths, drives).n_m
    # build a bath record that puts the steady state exactly at threshold
    # by solving n_m(n_c) = 2 n_c for the pump-only case
    g_p = drives.gamma_opt("cooling_pump")
    gm = params.gamma_m
    n_c_star = gm * 255.0 / (2.0 * drives.gamma_tot - g_p)
    baths = core.BathOccupations(n_c_th=0.0, n_m_th=255.0, n_c=n_c_star)
    grid = np.linspace(-1e3, 1e3, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        comps = dynamics.output_psd(params, baths, drives, grid,
                                    simplified=True)
        n_m = dynamics.steady_state(params, baths, drives).n_m
    assert n_m == pytest.approx(2.0 * n_c_star, rel=1e-12)
    assert np.max(np.abs(comps["pump"].values)) < 1e-15


def test_full_vs_simplified_agreement(params):
    # Gamma_tot < kappa/1000, all tones at delta = 0, |omega| < kappa/50
    baths = core.BathOccupations(n_c_th=0.25, n_m_th=255.0, n_c=0.05)
    drives = drives_for(params, pump_c=5000.0, red=1.0, blue=1.0,
                        deltas=(0.0, 0.0, 0.0))
    assert drives.gamma_tot < params.kappa / 1e3
    grid = np.linspace(-params.kappa / 50.0, params.kappa / 50.0, 20001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", (WeakCouplingWarning, OverlapWarning))
        warnings.simplefilter("ignore", OverlapWarning)
        full = dynamics.output_psd(params, baths, drives, grid)
        simp = dynamics.output_psd(params, baths, drives, grid,
                                   simplified=True)
    labels = ("cavity", "pump", "red", "blue")
    full = sum(full[k].values for k in labels)
    simp = sum(simp[k].values for k in labels)
    rel = np.abs(full - simp) / np.abs(full)
    assert rel.max() < 5e-3


def test_psd_nonnegative_total(params, rng):
    # measured spectrum = 1/2 + sum of components stays nonnegative even in
    # the dip regime, for any physical parameter set
    for _ in range(1000):
        n_c = rng.uniform(0.0, 0.5)
        n_m_th = rng.uniform(0.0, 500.0)
        coop = rng.uniform(1.0, 5000.0)
        probe = rng.uniform(0.0, 20.0)
        baths = core.BathOccupations(n_c_th=0.0, n_m_th=n_m_th, n_c=n_c)
        drives = drives_for(params, pump_c=coop, red=probe, blue=probe)
        grid = np.linspace(-30e3, 30e3, 301)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", (WeakCouplingWarning,))
            warnings.simplefilter("ignore", OverlapWarning)
            comps = dynamics.output_psd(params, baths, drives, grid,
                                        simplified=True)
        total = sum(comps[k].values for k in ("cavity", "pump", "red", "blue"))
        assert np.all(total + comps["floor"] > -1e-12)


def test_overlap_warning(params):
    baths = core.BathOccupations(n_c_th=0.25, n_m_th=255.0, n_c=0.05)
    drives = drives_for(params, pump_c=2000.0, red=5.0, blue=5.0,
                        deltas=(0.0, 0.0, 100.0))
    grid = np.linspace(-1e3, 1e3, 21)
    with pytest.warns(OverlapWarning):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            warnings.simplefilter("always", OverlapWarning)
            dynamics.output_psd(params, baths, drives, grid)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        dynamics.Spectrum(freq=np.array([0.0, 0.0, 1.0]),
                          values=np.zeros(3))
    with pytest.raises(ValueError):
        dynamics.Spectrum(freq=np.array([0.0, 1.0]),
                          values=np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        dynamics.Spectrum(freq=np.array([0.0, 1.0]),
                          values=np.zeros(2), rbw=-1.0)
