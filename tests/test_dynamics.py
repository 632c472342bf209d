import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cryodrum import core, dynamics
from cryodrum.errors import (InvalidArgument, OverlapWarning,
                             WeakCouplingWarning)


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


@pytest.mark.parametrize("call", [dynamics.steady_state,
                                  dynamics.component_fluxes,
                                  lambda *stack: dynamics.output_psd(
                                      *stack, np.linspace(-1e3, 1e3, 11))],
                         ids=["steady_state", "component_fluxes",
                              "output_psd"])
def test_weak_coupling_warns_once_at_the_caller(call, params, baths):
    drives = drives_for(params, pump_c=1e5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(params, baths, drives)
    weak = [w for w in caught if issubclass(w.category, WeakCouplingWarning)]
    assert len(weak) == 1
    assert weak[0].filename == __file__


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


@pytest.mark.parametrize("simplified", [True, False])
def test_overflowing_psd_is_a_numerical_failure(params, simplified):
    # finite occupations whose cavity emission 4 eta n_c overflows: the
    # PSD is a derived value, so not an InvalidArgument from Spectrum
    baths = core.BathOccupations(n_c_th=1e308, n_m_th=255.0, n_c=1e308)
    drives = drives_for(params, red=12.9)
    with pytest.raises(FloatingPointError, match="^cavity PSD overflows"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dynamics.output_psd(params, baths, drives,
                                np.linspace(-500.0, 500.0, 11),
                                simplified=simplified)


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
    # NaN inside or an infinite end point: `np.diff(freq) <= 0` missed both
    for freq in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0],
                 [np.nan] * 3):
        with pytest.raises(InvalidArgument, match="finite"):
            dynamics.Spectrum(freq=freq, values=[1.0, 1.0, 1.0])


def sideband_longdouble(nu, sign, tone, params, baths, drives):
    """The three-term full sideband form in long double: thermal,
    interference and vacuum brackets over |chi|^2 times the cavity
    Lorentzian, from the same double inputs as output_psd."""
    ld = np.longdouble
    nu = nu.astype(ld)
    g_p, g_r, g_b = (ld(drives.gamma_opt(role)) for role in
                     ("cooling_pump", "red_probe", "blue_probe"))
    gm, gt, kappa = ld(drives.gamma_m), ld(drives.gamma_tot), ld(params.kappa)
    n_c, n_th = ld(baths.n_c), ld(baths.n_m_th)
    offset = nu - sign * ld(tone.delta)
    wing = 1 + 4 * nu**2 / kappa**2
    thermal = (g_p * n_c + g_r * n_c + g_b * (n_c + 1) + gm * wing * n_th) / gt
    x = 4 * nu * offset / (kappa * gt)
    interference = (1 - x) * (2 * n_c + 1) - (ld(0.5) - x)
    vacuum = (g_p + g_r - g_b + gm * wing) / (2 * gt)
    chi = ((g_p + g_r - g_b) / 2
           + (1 - 2j * nu / kappa) * (gm / 2 - 1j * offset))
    return (ld(params.eta_kappa) * ld(tone.gamma_opt) * gt
            / np.abs(chi.astype(np.clongdouble)) ** 2 / wing
            * (thermal + sign * interference + vacuum))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="long double is no wider than double here")
@settings(max_examples=80, deadline=None)
@given(kappa=st.floats(1e4, 1e7), gamma_m=st.floats(1e-3, 10.0),
       pump_c=st.floats(0.0, 2e4), red=st.floats(0.0, 30.0),
       blue_share=st.floats(0.0, 0.9), n_c=st.floats(0.0, 2.0),
       n_th=st.floats(0.0, 1e3), deltas=st.tuples(
           st.floats(-1e5, 1e5), st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)))
def test_full_sideband_matches_long_double(kappa, gamma_m, pump_c, red,
                                           blue_share, n_c, n_th, deltas):
    params = core.validate_params(dict(
        omega_c=5.5e9, kappa=kappa, kappa_ex=0.8 * kappa,
        kappa_0=kappa - 0.8 * kappa, omega_m=1.8e6, gamma_m=gamma_m,
        g0=13.4))
    g_p = pump_c * gamma_m
    blue = blue_share * (gamma_m + g_p + red)     # keeps Gamma_tot > 0
    drives = drives_for(params, pump_c=pump_c, red=red, blue=blue,
                        deltas=deltas)
    baths = core.BathOccupations(n_c_th=0.0, n_m_th=n_th, n_c=n_c)
    n_m = dynamics._mechanical_occupation(baths, drives)
    # at n_m = 2 n_c the pump and red sidebands are differences of O(n_c)
    # terms, so any evaluation in doubles loses digits in 1/|n_m - 2 n_c|;
    # the dip regime n_m < 2 n_c is drawn, its threshold is not
    assume(abs(n_m - 2.0 * n_c) > 1e-3 * (n_m + 2.0 * n_c + 1.0))
    gt = drives.gamma_tot
    centers = [-deltas[0], -deltas[1], deltas[2], 0.0]
    grid = np.unique(np.concatenate(
        [c + np.linspace(-50.0 * gt, 50.0 * gt, 201) for c in centers]
        + [np.linspace(-3.0 * kappa, 3.0 * kappa, 201)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", (WeakCouplingWarning, OverlapWarning))
        comps = dynamics.output_psd(params, baths, drives, grid)
    for label, role, sign in (("pump", "cooling_pump", -1),
                              ("red", "red_probe", -1),
                              ("blue", "blue_probe", +1)):
        tone = drives.tone(role)
        if tone.gamma_opt == 0.0:
            assert not np.any(comps[label].values)
            continue
        exact = sideband_longdouble(grid, sign, tone, params, baths, drives)
        scale = float(np.max(np.abs(exact)))
        error = float(np.max(np.abs(comps[label].values - exact)))
        if scale < np.finfo(float).tiny:
            # a sideband below the normal double range (a subnormal
            # Gamma_x) holds no relative digits: each value must still be
            # the correctly rounded one, within one subnormal spacing
            assert error <= np.finfo(float).smallest_subnormal, label
            continue
        assert error <= 1e-11 * scale, label


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="long double is no wider than double here")
def test_sideband_just_below_normal_range_is_correctly_rounded():
    # a normal Gamma_b = 2.3e-305 whose sideband peaks at 1.7e-308: its
    # subnormal values still hold about 16 digits, which the few ulps of the
    # double kernel's rounding exceeded (1.5 spacings off, drawn by the
    # long double property test above)
    params = core.validate_params(dict(
        omega_c=5.5e9, kappa=1e4, kappa_ex=0.8e4, kappa_0=0.2e4,
        omega_m=1.8e6, gamma_m=5.0, g0=13.4))
    drives = drives_for(params, pump_c=2107.0, red=0.0,
                        blue=2.225073858507203e-309 * (5.0 + 2107.0 * 5.0),
                        deltas=(0.0, 0.0, 0.0))
    baths = core.BathOccupations(n_c_th=0.0, n_m_th=0.0, n_c=0.5)
    gt = drives.gamma_tot
    grid = np.unique(np.concatenate(
        [np.linspace(-50.0 * gt, 50.0 * gt, 201),
         np.linspace(-3e4, 3e4, 201)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", (WeakCouplingWarning, OverlapWarning))
        blue = dynamics.output_psd(params, baths, drives, grid)["blue"].values
    exact = sideband_longdouble(grid, +1, drives.tone("blue_probe"), params,
                                baths, drives)
    assert 0.0 < np.max(np.abs(exact)) < np.finfo(float).tiny
    # within half a subnormal spacing: the correctly rounded doubles
    half = np.longdouble(np.finfo(float).smallest_subnormal) / 2
    assert np.max(np.abs(blue - exact)) <= half * (1 + 1e-6)
