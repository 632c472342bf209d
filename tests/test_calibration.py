import math
import warnings
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryodrum import calibration, core
from cryodrum.errors import (
    BackActionDominated,
    InconsistentBudget,
    InvalidArgument,
    NegativeOccupation,
    SingularAsymmetry,
)


def forward_peaks(n_m, n_c, g_eta, r_gamma=1.0, floor=None):
    """Independent forward construction of the rate-normalised peaks."""
    return calibration.ScaledPeaks(
        N_p=g_eta * (n_m - 2.0 * n_c),
        N_r=g_eta * (n_m - 2.0 * n_c),
        N_b=g_eta * (n_m + 1.0 + 2.0 * n_c),
        N_c=g_eta * n_c,
        r_gamma=r_gamma,
        N_floor=floor)


def eliminate(peaks):
    """Independent oracle: direct elimination of (n_m, n_c, G eta)."""
    n_ref, n_b, n_c = peaks.n_ref, peaks.N_b, peaks.N_c
    g = n_b - n_ref - 4.0 * n_c
    return (n_ref + 2.0 * n_c) / g, n_c / g, g


def test_asymmetry_roundtrip_exact():
    peaks = forward_peaks(0.2, 0.05, 0.21)
    result = calibration.asymmetry_solve(peaks)
    assert result.n_m == pytest.approx(0.2, rel=1e-9)
    assert result.n_c == pytest.approx(0.05, rel=1e-9)
    assert result.g_eta == pytest.approx(0.21, rel=1e-9)


def test_asymmetry_roundtrip_unbalanced_probes():
    peaks = forward_peaks(0.35, 0.02, 1.7, r_gamma=1.8)
    result = calibration.asymmetry_solve(peaks)
    assert result.n_m == pytest.approx(0.35, rel=1e-12)
    assert result.n_c == pytest.approx(0.02, rel=1e-12)
    assert result.g_eta == pytest.approx(1.7, rel=1e-12)


def test_asymmetry_dip_regime():
    # n_m < 2 n_c: the pump/red peaks are dips (negative N)
    peaks = forward_peaks(0.05, 0.04, 0.21)
    assert peaks.N_p < 0.0
    result = calibration.asymmetry_solve(peaks)
    assert result.n_m == pytest.approx(0.05, rel=1e-9)
    assert result.n_c == pytest.approx(0.04, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(n_m=st.floats(1e-3, 50.0), n_c=st.floats(0.0, 5.0),
       g_eta=st.floats(1e-3, 1e3), r_gamma=st.floats(0.1, 10.0))
@example(n_m=0.05, n_c=0.04, g_eta=0.21, r_gamma=1.0)       # dip regime
@example(n_m=0.08, n_c=0.04, g_eta=0.21, r_gamma=2.0)       # N_p = 0
def test_asymmetry_roundtrip_property(n_m, n_c, g_eta, r_gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeOccupation)
        result = calibration.asymmetry_solve(
            forward_peaks(n_m, n_c, g_eta, r_gamma))
    assert result.n_m == pytest.approx(n_m, rel=1e-9)
    assert result.n_c == pytest.approx(n_c, rel=1e-9, abs=1e-12 * n_m)
    assert result.g_eta == pytest.approx(g_eta, rel=1e-9)


def test_asymmetry_matches_elimination_oracle(rng):
    for _ in range(200):
        n_m = rng.uniform(0.01, 5.0)
        n_c = rng.uniform(0.0, 0.4)
        g_eta = rng.uniform(0.01, 10.0)
        r_gamma = rng.uniform(0.5, 2.0)
        peaks = forward_peaks(n_m, n_c, g_eta, r_gamma)
        result = calibration.asymmetry_solve(peaks)
        n_m_o, n_c_o, g_o = eliminate(peaks)
        assert result.n_m == pytest.approx(n_m_o, rel=1e-10)
        assert result.n_c == pytest.approx(n_c_o, rel=1e-10)
        assert result.g_eta == pytest.approx(g_o, rel=1e-10)


def test_asymmetry_scaling_invariance(rng):
    # scaling every peak rescales G eta only: no chain calibration needed
    base = forward_peaks(0.3, 0.06, 0.21)
    ref = calibration.asymmetry_solve(base)
    for scale in (1e-3, 7.7, 1e4):
        scaled = calibration.ScaledPeaks(
            N_p=base.N_p * scale, N_r=base.N_r * scale,
            N_b=base.N_b * scale, N_c=base.N_c * scale,
            r_gamma=base.r_gamma)
        result = calibration.asymmetry_solve(scaled)
        assert result.n_m == pytest.approx(ref.n_m, rel=1e-12)
        assert result.n_c == pytest.approx(ref.n_c, rel=1e-12)
        assert result.g_eta == pytest.approx(ref.g_eta * scale, rel=1e-12)


def test_asymmetry_ideal_ratio():
    # n_c = 0 and balanced probes: N_b/N_r = (n_m + 1)/n_m, so a ratio of 2
    # pins n_m = 1
    peaks = calibration.ScaledPeaks(N_p=1.0, N_r=1.0, N_b=2.0, N_c=0.0)
    result = calibration.asymmetry_solve(peaks)
    assert result.n_m == pytest.approx(1.0, rel=1e-12)
    assert result.n_c == pytest.approx(0.0, abs=1e-15)


def test_asymmetry_pump_preferred_over_red():
    # N_p (better SNR) is used when present; a discrepant N_r is ignored
    peaks = calibration.ScaledPeaks(N_p=0.021, N_r=0.5, N_b=0.273,
                                    N_c=0.0105)
    result = calibration.asymmetry_solve(peaks)
    assert result.n_m == pytest.approx(0.2, rel=1e-9)


def test_asymmetry_floor_separation():
    g, eta, n_add = 0.2625, 0.8, 0.9
    peaks = forward_peaks(0.2, 0.05, g * eta, floor=g * (1.0 + n_add))
    result = calibration.asymmetry_solve(peaks, eta_kappa=eta)
    assert result.n_add == pytest.approx(n_add, rel=1e-9)
    no_eta = calibration.asymmetry_solve(peaks)
    assert no_eta.n_add is None
    assert no_eta.background_over_geta \
        == pytest.approx((1.0 + n_add) / eta, rel=1e-9)


def test_asymmetry_singular():
    with pytest.raises(SingularAsymmetry):
        calibration.asymmetry_solve(calibration.ScaledPeaks(
            N_p=1e-14, N_b=1e-14, N_c=1e-16))


def test_asymmetry_negative_flagged():
    peaks = calibration.ScaledPeaks(N_p=-0.5, N_b=0.6, N_c=0.001)
    with pytest.warns(NegativeOccupation):
        result = calibration.asymmetry_solve(peaks)
    assert result.n_m < 0.0


def test_probe_free_forward_roundtrip(params):
    # the forward fluxes, rate-normalised and scaled by G eta, give back the
    # occupations through n_c = N_c / (G eta), n_m = N_p / (G eta) + 2 n_c
    from cryodrum import dynamics
    baths = core.BathOccupations(n_c_th=0.15, n_m_th=255.0, n_c=0.03)
    tone = core.drive_tone("cooling_pump", gamma_m=params.gamma_m,
                           cooperativity=6400.0)
    drives = core.DriveSet(tones=(tone,), gamma_m=params.gamma_m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fluxes = dynamics.component_fluxes(params, baths, drives)
    g_eta = 0.21
    gain = g_eta / params.eta_kappa   # fluxes are already eta-weighted
    n_p = gain * fluxes["pump"] / (2.0 * math.pi
                                   * drives.gamma_opt("cooling_pump"))
    n_c_pk = gain * fluxes["cavity"] / (2.0 * math.pi * params.kappa)
    n_c = n_c_pk / g_eta
    n_m = n_p / g_eta + 2.0 * n_c
    assert n_m == pytest.approx(0.0698, abs=2e-4)
    assert n_c == pytest.approx(0.03, rel=1e-9)


def test_chain_budget_reference_values():
    budget = calibration.chain_noise_budget(calibration.ChainBudget(
        snri_db=11.3, n_add_h=8.7, eta_t_db=2.5, eta_db=1.55))
    assert budget.n_add_t == pytest.approx(0.27869, abs=1e-4)
    assert budget.total_background == pytest.approx(1.82711, abs=1e-4)
    # within 10% of the rounded reference figures
    assert budget.n_add_t == pytest.approx(0.3, rel=0.10)
    assert budget.total_background == pytest.approx(1.9, rel=0.10)


def test_chain_budget_quantum_limited():
    # SNRI exactly (1 + n_add_H)/eta_T makes the preamp noiseless
    snri_db = 10.0 * math.log10((1.0 + 8.7) / 10 ** (-0.25))
    budget = calibration.chain_noise_budget(calibration.ChainBudget(
        snri_db=snri_db, n_add_h=8.7, eta_t_db=2.5, eta_db=0.0))
    assert budget.n_add_t == pytest.approx(0.0, abs=1e-12)


def test_chain_budget_hemt_dominated():
    budget = calibration.chain_noise_budget(calibration.ChainBudget(
        snri_db=0.0, n_add_h=8.7, eta_t_db=0.0, eta_db=0.0))
    assert budget.total_background == pytest.approx(1.0 + 8.7, rel=1e-12)


def test_chain_budget_inconsistent():
    with pytest.raises(InconsistentBudget):
        calibration.chain_noise_budget(calibration.ChainBudget(
            snri_db=30.0, n_add_h=8.7, eta_t_db=2.5, eta_db=1.55))


def test_chain_budget_monotonicity(rng):
    # added noise decreases with SNRI, increases with n_add_h
    snris = np.linspace(5.0, 11.0, 13)
    values = [calibration.chain_noise_budget(calibration.ChainBudget(
        snri_db=s, n_add_h=8.7, eta_t_db=2.5, eta_db=1.55)).n_add_t
        for s in snris]
    assert np.all(np.diff(values) < 0.0)
    hemts = np.linspace(7.0, 12.0, 11)
    values = [calibration.chain_noise_budget(calibration.ChainBudget(
        snri_db=11.3, n_add_h=h, eta_t_db=2.5, eta_db=1.55)).n_add_t
        for h in hemts]
    assert np.all(np.diff(values) > 0.0)


def test_tone_cancellation_values():
    one = calibration.tone_cancellation_floor(math.pi / 360.0, 0.125)
    assert one == pytest.approx(-35.479, abs=5e-3)
    two = calibration.tone_cancellation_floor(math.pi / 360.0, 0.125,
                                              branches=2)
    assert two == pytest.approx(2.0 * one, rel=1e-12)
    assert calibration.tone_cancellation_floor(0.0, 0.0) == -math.inf


def test_phase_noise_requirement(params):
    limit = calibration.phase_noise_requirement(params, 255.0, 0.1)
    assert limit.dbc_per_hz == pytest.approx(-136.2, abs=0.1)
    # quadratic in n_min: x10 -> +20 dB
    relaxed = calibration.phase_noise_requirement(params, 255.0, 1.0)
    assert relaxed.dbc_per_hz - limit.dbc_per_hz == pytest.approx(20.0,
                                                                  abs=1e-9)
    # g0 doubling buys 20 log10(2) ~ 6 dB
    harder = calibration.phase_noise_requirement(
        core.validate_params(dict(asdict(params), g0=2.0 * params.g0)), 255.0,
        0.1)
    assert harder.dbc_per_hz - limit.dbc_per_hz \
        == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_phase_noise_ceiling_out_of_range_is_flagged(params):
    # n_min^2 underflows to 0, whose dBc value does not exist
    with pytest.raises(FloatingPointError, match="n_min = 1e-300"):
        calibration.phase_noise_requirement(params, 255.0, 1e-300)


def test_g0_sweep_noiseless_recovery(params):
    temps = np.linspace(0.05, 0.4, 8)
    rows = calibration.synthesize_g0_sweep(params, 13.4, temps,
                                           noise_rel=0.0)
    result = calibration.g0_from_sweep(rows, params)
    assert result.g0 == pytest.approx(13.4, rel=1e-10)
    # residuals vanish at machine precision on noiseless sweeps
    assert result.fit.chi2 < 1e-20 * max(p.calibrated_ratio for p in rows) ** 2


def test_g0_sweep_gain_invariance(params):
    temps = np.linspace(0.05, 0.4, 6)
    rows = calibration.synthesize_g0_sweep(params, 13.4, temps,
                                           noise_rel=0.02, seed=3)
    base = calibration.g0_from_sweep(rows, params)
    scaled = [calibration.G0SweepPoint(p.temperature, 11.0 * p.p_sb_meas,
                                       11.0 * p.p_cal_meas, p.p_mw_src,
                                       p.p_cal_src) for p in rows]
    again = calibration.g0_from_sweep(scaled, params)
    assert again.g0 == pytest.approx(base.g0, rel=1e-12)


def test_g0_sweep_back_action_guard(params):
    temps = np.linspace(0.05, 0.4, 5)
    # the synthetic pump, 1 uW at the source, reaches the device with
    # 100 nW when only 10 dB are lost on the way
    rows = calibration.synthesize_g0_sweep(params, 13.4, temps)
    with pytest.raises(BackActionDominated):
        calibration.g0_from_sweep(rows, params, eta_att_db=10.0)


def test_g0_sweep_needs_three_points(params):
    rows = calibration.synthesize_g0_sweep(params, 13.4, [0.1, 0.2])
    with pytest.raises(ValueError):
        calibration.g0_from_sweep(rows, params)


@pytest.mark.parametrize("temperature", [-0.1, math.nan, math.inf])
def test_g0_sweep_rejects_temperatures_outside_domain(params, temperature):
    rows = calibration.synthesize_g0_sweep(params, 13.4, [0.1, 0.2, 0.3])
    with pytest.raises(InvalidArgument, match="finite and >= 0"):
        calibration.G0SweepPoint(temperature, *astuple(rows[0])[1:])


def test_combine_calibrations():
    mean, err = calibration.combine_calibrations([1.0, 3.0], [1.0, 1.0])
    assert mean == pytest.approx(2.0)
    assert err == pytest.approx(1.0 / math.sqrt(2.0))
    mean, _ = calibration.combine_calibrations([1.0, 3.0], [1e-3, 1.0])
    assert mean == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("errors,expected", [
    ([1e-200, 1.0], (1.0, 1e-200)),
    ([1e-170, 1e-170], (1.5, 1e-170 / math.sqrt(2.0)))])
def test_combine_calibrations_tiny_errors(errors, expected):
    # 1 / errors**2 overflowed here and gave (nan, 0.0)
    mean, err = calibration.combine_calibrations([1.0, 2.0], errors)
    assert (mean, err) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("values,errors", [
    ([1.0, 3.0], [1.0, -1.0]), ([1.0, 3.0], [1.0, 0.0]),
    ([1.0, 3.0], [1.0, math.inf]), ([1.0, 3.0], [1.0, math.nan]),
    ([1.0, math.nan], [1.0, 1.0]), ([1.0, math.inf], [1.0, 1.0]),
    ([1.0, 3.0], [1.0]), ([], [])])
def test_combine_calibrations_rejects_bad_input(values, errors):
    # a negative error used to enter the weights as its square
    with pytest.raises(InvalidArgument):
        calibration.combine_calibrations(values, errors)


def test_scaled_peaks_from_fluxes(params):
    peaks = calibration.scaled_peaks_from_fluxes(
        p_b=2.0 * math.pi * 12.9 * 1.3, p_c=2.0 * math.pi * 250e3 * 0.05,
        gamma_b=12.9, kappa=params.kappa,
        p_r=2.0 * math.pi * 12.9 * 0.1, gamma_r=12.9)
    assert peaks.N_b == pytest.approx(1.3, rel=1e-12)
    assert peaks.N_c == pytest.approx(0.05, rel=1e-12)
    assert peaks.r_gamma == 1.0


def test_full_loop_identity_dip_regime(params):
    # spectral round trip through output_psd -> integrate_peak ->
    # asymmetry_solve in the dip regime n_m < 2 n_c
    from cryodrum import reproduce
    baths = core.BathOccupations(n_c_th=1.0, n_m_th=255.0, n_c=0.2)
    tones = (core.drive_tone("cooling_pump", gamma_m=params.gamma_m,
                             cooperativity=6400.0, delta=25e3),
             core.drive_tone("red_probe", gamma_m=params.gamma_m,
                             gamma_opt=12.9, delta=0.0),
             core.drive_tone("blue_probe", gamma_m=params.gamma_m,
                             gamma_opt=12.9, delta=10e3))
    drives = core.DriveSet(tones=tones, gamma_m=params.gamma_m)
    from cryodrum import dynamics
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        truth = dynamics.steady_state(params, baths, drives)
    assert truth < 2.0 * baths.n_c   # genuinely in the dip regime
    peaks = reproduce._measured_scaled_peaks(params, baths, drives,
                                             gain=0.2625)
    assert peaks.N_p < 0.0
    solved = calibration.asymmetry_solve(peaks)
    assert solved.n_m == pytest.approx(truth, rel=1e-6)
    assert solved.n_c == pytest.approx(0.2, rel=1e-6)
    assert solved.g_eta == pytest.approx(0.2625 * params.eta_kappa, rel=1e-6)
