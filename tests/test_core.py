import dataclasses

import numpy as np
import pytest

from cryodrum import core
from cryodrum.errors import (
    InvalidArgument,
    LinewidthMismatch,
    UnstableDriveSet,
)

# exact Bose-Einstein occupation at f = 1.8 MHz, T = 11 mK, computed
# independently at 30-digit precision from h f / k_B T
BOSE_1P8MHZ_11MK = 126.8355491


def test_physical_constants_equal_scipy():
    from scipy import constants

    from cryodrum import device

    assert core.PLANCK_H == constants.h
    assert core.BOLTZMANN_K == constants.k
    assert core.PLANCK_H / core.TWO_PI == constants.hbar
    assert device.HBAR == constants.hbar


def test_validate_params_populates_eta():
    p = core.validate_params(dict(omega_c=5.5e9, kappa=250e3, kappa_ex=200e3,
                                  kappa_0=50e3, omega_m=1.8e6, gamma_m=0.045,
                                  g0=13.4))
    assert p.kappa == 250e3
    assert p.eta_kappa == pytest.approx(0.8, rel=1e-12)
    # deep resolved-sideband regime for these constants
    assert p.resolved_sideband_param == pytest.approx(0.0012, rel=0.01)


def test_reference_system_is_a_record_with_eta_kappa():
    # eta_kappa is computed from the record, never a field left at 0
    from cryodrum.reproduce import REFERENCE_SYSTEM

    assert core.SystemParams(**REFERENCE_SYSTEM).eta_kappa == 0.8


def test_validate_params_lossless_limit():
    p = core.validate_params(dict(omega_c=5e9, kappa=100e3, kappa_ex=100e3,
                                  kappa_0=0.0, omega_m=1e6, gamma_m=0.1,
                                  g0=10.0))
    assert p.eta_kappa == 1.0


def test_validate_params_sign_guard():
    with pytest.raises(InvalidArgument):
        core.validate_params(dict(omega_c=5e9, kappa=100e3, kappa_ex=-1.0,
                                  kappa_0=100e3, omega_m=1e6, gamma_m=0.1,
                                  g0=10.0))


def test_validate_params_linewidth_mismatch():
    with pytest.raises(LinewidthMismatch):
        core.validate_params(dict(omega_c=5e9, kappa=100e3, kappa_ex=80e3,
                                  kappa_0=30e3, omega_m=1e6, gamma_m=0.1,
                                  g0=10.0))


def test_validate_serialize_roundtrip(params):
    record = dataclasses.asdict(params)
    again = core.validate_params(record)
    assert again == params


def test_bose_occupation_value():
    n = core.bose_occupation(1.8e6, 0.011)
    assert n == pytest.approx(BOSE_1P8MHZ_11MK, rel=1e-9)
    # matches the rounded reference figure 126.9 at the 1e-3 level
    assert n == pytest.approx(126.9, rel=1e-3)


def test_bose_occupation_zero_temperature():
    assert core.bose_occupation(1.8e6, 0.0) == 0.0


def test_bose_occupation_guards():
    with pytest.raises(InvalidArgument):
        core.bose_occupation(0.0, 0.01)
    with pytest.raises(ValueError):
        core.bose_occupation(1e6, -0.01)


def test_bose_high_temperature_limit():
    # within 1% of k_B T / h f for h f / k_B T < 0.14
    from scipy.constants import h, k
    f = 1e9
    t = h * f / (k * 0.14)
    exact = core.bose_occupation(f, t)
    linear = core.bose_occupation_linear(f, t)
    assert abs(exact - linear) / linear < 0.075
    # and the deviation crosses 1% only for the occupation itself vs
    # (linear - 1/2), the standard expansion
    assert exact == pytest.approx(linear - 0.5, rel=0.01)


def test_bose_monotonicity(rng):
    freqs = rng.uniform(1e5, 1e10, size=40)
    temps = np.sort(rng.uniform(1e-3, 1.0, size=40))
    for f in freqs[:10]:
        values = [core.bose_occupation(f, t) for t in temps]
        assert np.all(np.diff(values) > 0.0)
    for t in temps[:10]:
        values = [core.bose_occupation(f, t) for f in np.sort(freqs)]
        assert np.all(np.diff(values) < 0.0)


def test_effective_bath_from_rate_ratio():
    # the measured decoherence/damping pair implies the effective bath
    n_eff = 20.5 / 0.08 - 1.0
    assert n_eff == pytest.approx(255.25, abs=1e-10)
    assert core.thermal_decoherence_rate(n_eff, 0.08) == pytest.approx(20.5)


def test_thermal_decoherence_rate_values():
    assert core.thermal_decoherence_rate(255.0, 0.08) == pytest.approx(20.48)
    assert core.thermal_decoherence_rate(0.0, 0.045) == 0.045
    assert core.thermal_decoherence_rate(1e7, 0.045) == pytest.approx(4.5e5,
                                                                      rel=1e-6)


def test_drive_tone_consistency():
    tone = core.drive_tone("cooling_pump", gamma_m=0.045, cooperativity=2000.0)
    assert tone.gamma_opt == pytest.approx(90.0, rel=1e-12)
    # both given: accepted when consistent, refused otherwise
    tone2 = core.drive_tone("red_probe", gamma_m=0.045, gamma_opt=12.9,
                            cooperativity=12.9 / 0.045)
    assert tone2.gamma_opt == 12.9
    with pytest.raises(ValueError):
        core.drive_tone("red_probe", gamma_m=0.045, gamma_opt=12.9,
                        cooperativity=1.0)
    with pytest.raises(ValueError):
        core.DriveTone(role="purple_probe")


def test_drive_set_totals(params):
    tones = (core.drive_tone("cooling_pump", gamma_m=0.045, gamma_opt=90.0),
             core.drive_tone("red_probe", gamma_m=0.045, gamma_opt=12.9),
             core.drive_tone("blue_probe", gamma_m=0.045, gamma_opt=12.9))
    drives = core.DriveSet(tones=tones, gamma_m=0.045)
    assert drives.gamma_tot == pytest.approx(90.045, rel=1e-12)


def test_drive_set_one_tone_per_role():
    tones = (core.drive_tone("red_probe", gamma_m=0.1, gamma_opt=1.0),
             core.drive_tone("red_probe", gamma_m=0.1, gamma_opt=2.0))
    with pytest.raises(ValueError):
        core.DriveSet(tones=tones, gamma_m=0.1)


def test_drive_set_stability_guard():
    tones = (core.drive_tone("blue_probe", gamma_m=0.045, gamma_opt=90.0),)
    with pytest.raises(UnstableDriveSet):
        core.DriveSet(tones=tones, gamma_m=0.045)


def test_bath_occupations_derivation(params):
    baths = core.bath_occupations(params, n_c_th=0.25, n_m_th=255.0)
    assert baths.n_c == pytest.approx(0.25 * 50e3 / 250e3, rel=1e-12)
    with pytest.raises(InvalidArgument):
        core.BathOccupations(n_c_th=-0.1)
