"""Every public entry point checks its numeric inputs against the domains
that `cryodrum.errors` defines: a value inside gives a finite result, and
a value outside (NaN and the infinities included) raises InvalidArgument.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryodrum import calibration, core, device, dynamics, fitting, squeezing
from cryodrum import tomography
from cryodrum.errors import (ABOVE_ZERO, FINITE, FRACTION, NON_NEGATIVE,
                             POSITIVE, InvalidArgument)
from cryodrum.tomography import GaussianMechState

#: domain label -> (values inside, values outside)
STRATEGIES = {
    FINITE[0]: (st.floats(-10.0, 10.0),
                st.sampled_from([math.nan, math.inf, -math.inf])),
    POSITIVE[0]: (st.floats(1e-3, 1e3),
                  st.floats(max_value=0.0) | st.just(math.nan)
                  | st.just(math.inf)),
    ABOVE_ZERO[0]: (st.floats(1e-3, 1e3),
                    st.floats(max_value=0.0) | st.just(math.nan)),
    NON_NEGATIVE[0]: (st.just(0.0) | st.floats(1e-3, 1e3),
                      st.floats(max_value=-5e-324) | st.just(math.nan)
                      | st.just(math.inf)),
    FRACTION[0]: (st.floats(1e-3, 1.0),
                  st.floats(max_value=0.0) | st.floats(min_value=1.0,
                                                       exclude_min=True)
                  | st.just(math.nan)),
}

PARAMS = dict(omega_c=5.5e9, kappa=250e3, kappa_ex=200e3, kappa_0=50e3,
              omega_m=1.8e6, gamma_m=0.045, g0=13.4)
SWEEP_POINT = dict(temperature=0.1, p_sb_meas=2.1e-13, p_cal_meas=9.9e-11,
                   p_mw_src=1e-6, p_cal_src=1e-9)
GEOM = dict(radius=75e-6, bottom_radius=23e-6, thickness=180e-9,
            gap=180e-9, density=2700.0, stress=350e6, youngs_modulus=75e9,
            xi_par=0.8, q0=4e5)
STATE = GaussianMechState.squeezed_thermal(0.4, 0.6)
#: no amplification, so that no tau overflows the gain
AMPLIFIER = dict(gamma_opt_b=0.0, gamma_amp=0.0, tau=22e-3, dt=1e-5)


def _validate_params(**raw):
    return core.validate_params(raw)


def _mode_figures(omega_c):
    return device.mode_figures(device.DrumGeometry(**GEOM), omega_c)


def _asymmetry(eta_kappa):
    peaks = calibration.ScaledPeaks(N_b=0.273, N_c=0.0105, N_p=0.021,
                                    N_floor=0.6)
    return calibration.asymmetry_solve(peaks, eta_kappa).n_add


def _chain(**inputs):
    return calibration.chain_noise_budget(calibration.ChainBudget(
        **inputs)).total_background


def _phase_noise(n_m_th, n_min):
    return calibration.phase_noise_requirement(
        _validate_params(**PARAMS), n_m_th, n_min).s_phiphi


def _samples(g_opt, n_add_opt):
    return tomography.sample_quadratures(STATE, g_opt, n_add_opt, 10,
                                         seed=7).samples


def _weighted_fit(sigma_y):
    return fitting.linear_fit([0.0, 1.0, 2.0], [1.0, 2.0, 3.5],
                              np.full(3, sigma_y)).slope


#: (entry point, reference inputs, parameter, domain): the entry point runs
#: on its reference inputs with the parameter set to each drawn value
TABLE = [
    *((_validate_params, PARAMS, name, POSITIVE)
      for name in ("omega_c", "omega_m", "gamma_m", "g0")),
    *((core.BathOccupations, {}, name, NON_NEGATIVE)
      for name in ("n_c_th", "n_m_th", "n_c")),
    (core.drive_tone, dict(role="red_probe", gamma_m=0.045, gamma_opt=12.9),
     "delta", FINITE),
    (core.drive_tone, dict(role="red_probe", gamma_m=0.045), "gamma_opt",
     NON_NEGATIVE),
    (core.drive_tone, dict(role="red_probe", gamma_m=0.045),
     "cooperativity", NON_NEGATIVE),
    (core.drive_tone, dict(role="red_probe", gamma_opt=12.9), "gamma_m",
     POSITIVE),
    (core.bose_occupation, dict(temperature=0.011), "freq", POSITIVE),
    (core.bose_occupation, dict(freq=1.8e6), "temperature", NON_NEGATIVE),
    (core.bose_occupation_linear, dict(temperature=0.011), "freq", POSITIVE),
    (core.bose_occupation_linear, dict(freq=1.8e6), "temperature",
     NON_NEGATIVE),
    (core.thermal_decoherence_rate, dict(gamma_m=0.045), "n_m_th",
     NON_NEGATIVE),
    (core.thermal_decoherence_rate, dict(n_m_th=255.0), "gamma_m",
     NON_NEGATIVE),
    *((dynamics.cooling_occupation,
       dict(n_m_th=255.0, n_c=0.05, cooperativity=400.0), name, NON_NEGATIVE)
      for name in ("n_m_th", "n_c", "cooperativity")),
    (dynamics.Spectrum, dict(freq=[0.0, 1.0], values=[1.0, 2.0]), "rbw",
     NON_NEGATIVE),
    (dynamics.Spectrum, dict(freq=[0.0, 1.0], values=[1.0, 2.0]), "floor",
     FINITE),
    (calibration.ScaledPeaks, dict(N_c=0.0105, N_p=0.021), "N_b",
     NON_NEGATIVE),
    (calibration.ScaledPeaks, dict(N_b=0.273, N_p=0.021), "N_c",
     NON_NEGATIVE),
    (calibration.ScaledPeaks, dict(N_b=0.273, N_c=0.0105), "N_p", FINITE),
    (calibration.ScaledPeaks, dict(N_b=0.273, N_c=0.0105, N_p=0.021),
     "r_gamma", POSITIVE),
    (_asymmetry, {}, "eta_kappa", FRACTION),
    (_chain, dict(snri_db=0.0, eta_t_db=2.5, eta_db=1.55), "n_add_h",
     NON_NEGATIVE),
    (_chain, dict(snri_db=11.3, n_add_h=8.7, eta_t_db=2.5), "eta_db",
     NON_NEGATIVE),
    (calibration.tone_cancellation_floor, dict(delta_att_db=0.125),
     "delta_phi", FINITE),
    (_phase_noise, dict(n_min=0.1), "n_m_th", POSITIVE),
    (_phase_noise, dict(n_m_th=255.0), "n_min", POSITIVE),
    *((device.DrumGeometry, GEOM, name, ABOVE_ZERO)
      for name in ("thickness", "gap", "stress")),
    *((device.DrumGeometry, GEOM, name, POSITIVE)
      for name in ("density", "youngs_modulus", "q0")),
    (device.DrumGeometry, GEOM, "xi_par", FRACTION),
    (_mode_figures, {}, "omega_c", POSITIVE),
    (squeezing.squeeze_drive, dict(gamma_b=0.0, kappa=250e3), "gamma_r",
     POSITIVE),
    (squeezing.squeeze_drive, dict(gamma_r=75.0, gamma_b=23.7), "kappa",
     POSITIVE),
    (squeezing.squeezing_limit, dict(n_m_th=255.0), "cooperativity",
     POSITIVE),
    (squeezing.squeezing_limit, dict(cooperativity=2561.0), "n_m_th",
     NON_NEGATIVE),
    *((squeezing.DephasingModel,
       dict(gamma_th=17.1, gamma_phi=0.09, initial=STATE), name, NON_NEGATIVE)
      for name in ("gamma_th", "gamma_phi")),
    (squeezing.DephasingModel, dict(gamma_th=17.1, gamma_phi=0.0,
                                    initial=STATE, n_m_th=255.0),
     "gamma_m", POSITIVE),
    (squeezing.DephasingModel, dict(gamma_th=17.1, gamma_phi=0.0,
                                    initial=STATE, gamma_m=0.045),
     "n_m_th", NON_NEGATIVE),
    (GaussianMechState.squeezed_thermal, dict(r=0.5), "n_th", NON_NEGATIVE),
    (GaussianMechState.squeezed_thermal, dict(n_th=0.4), "r", FINITE),
    *((tomography.AmplifierSpec, AMPLIFIER, name, POSITIVE)
      for name in ("tau", "dt", "g_opt_uv2")),
    (tomography.AmplifierSpec, AMPLIFIER, "n_add_opt", NON_NEGATIVE),
    (tomography.AmplifierSpec, AMPLIFIER, "eta_kappa", FRACTION),
    (_samples, dict(n_add_opt=0.8), "g_opt", POSITIVE),
    (_samples, dict(g_opt=1.13), "n_add_opt", NON_NEGATIVE),
    (tomography.variance_interval, dict(n_samples=100), "second_moment",
     NON_NEGATIVE),
    (fitting.sigma_from_rbw, {}, "rbw", NON_NEGATIVE),
    (fitting.voigt_eval, dict(omega=np.array([0.5]), sigma_rbw=0.3),
     "gamma", NON_NEGATIVE),
    (fitting.voigt_eval, dict(omega=np.array([0.5]), gamma=0.3),
     "sigma_rbw", NON_NEGATIVE),
    (_weighted_fit, {}, "sigma_y", POSITIVE),
]


def _finite(result):
    """Whether every number a call returned is finite; records and other
    objects count as finite once built."""
    if isinstance(result, (float, np.ndarray, tuple)):
        return bool(np.all(np.isfinite(result)))
    return True


@pytest.mark.parametrize("func,others,name,domain", TABLE,
                         ids=[f"{row[0].__name__}-{row[2]}" for row in TABLE])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inputs_are_checked_against_their_domain(func, others, name, domain,
                                                 data):
    inside, outside = STRATEGIES[domain[0]]
    value = data.draw(inside, label="inside")
    assert _finite(func(**{**others, name: value}))
    value = data.draw(outside, label="outside")
    with pytest.raises(InvalidArgument, match=f"^{name} = "):
        func(**{**others, name: value})


#: every field of the two input records built from measured values; kappa_0
#: and the temperature may be 0, every other field is a rate or a power
RECORD_FIELDS = [*((core.SystemParams, PARAMS, name) for name in PARAMS),
                 *((calibration.G0SweepPoint, SWEEP_POINT, name)
                   for name in SWEEP_POINT)]


@pytest.mark.parametrize("record,fields,name", RECORD_FIELDS,
                         ids=[f"{row[0].__name__}-{row[2]}"
                              for row in RECORD_FIELDS])
def test_input_records_check_their_fields(record, fields, name):
    # the linewidths are tied by kappa = kappa_ex + kappa_0, so each field
    # is tested with the others at their reference values
    record(**fields)
    outside = (math.nan, math.inf, -1.0)
    if name not in ("kappa_0", "temperature"):
        outside += (0.0,)
    for value in outside:
        with pytest.raises(InvalidArgument, match=f"^{name} = "):
            record(**{**fields, name: value})
