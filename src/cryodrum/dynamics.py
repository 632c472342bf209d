"""Steady states and noise power spectral densities of the driven system.

Three tones (cooling pump, red probe, blue probe) act on one mechanical mode
coupled to one cavity.  In the weak-coupling, resolved-sideband regime the
mechanical spectrum is a Lorentzian of width Gamma_tot and the cavity output
spectrum splits into a wide cavity-emission peak plus one narrow sideband per
tone, with no cross terms as long as the tones are well separated.

All spectra here are device referred, in quanta/(s Hz) on cyclic-frequency
grids: integrating a component over its grid gives its photon flux, and peak
fluxes obey   P_x = 2 pi * eta_kappa * Gamma_x * (occupation factor).
Detector-unit scaling (chain gain, added noise) is applied by the calibration
and tomography layers, never here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, BathOccupations, DriveSet, SystemParams
from .errors import (FINITE, NON_NEGATIVE, InvalidArgument, OverlapWarning,
                     WeakCouplingWarning, require)

#: Gamma_tot/kappa above which the weak-coupling forms start to degrade
WEAK_COUPLING_LIMIT = 0.01

#: device-referred vacuum background beneath every output spectrum [quanta]
VACUUM_FLOOR = 0.5


@dataclass(frozen=True)
class Spectrum:
    """Frequency grid + PSD values, the unit of all continuous-wave data.

    freq is a uniform, strictly increasing cyclic grid [Hz] centered on a
    stated reference; values are PSD samples in quanta/(s Hz) when device
    referred (or detector units after chain scaling); rbw is the analyzer
    resolution bandwidth [Hz] (0 = ideal, unconvolved); floor is the flat
    background beneath the peaks.
    """

    freq: np.ndarray
    values: np.ndarray
    rbw: float = 0.0
    floor: float = 0.0
    label: str = ""

    def __post_init__(self):
        freq = np.asarray(self.freq, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "values", values)
        if freq.ndim != 1 or freq.size < 2:
            raise InvalidArgument("freq must be a 1-d grid with >= 2 points")
        if values.shape != freq.shape:
            raise InvalidArgument("values must match the freq grid")
        # a strictly increasing grid with finite end points is finite
        # everywhere, and NaN fails every comparison
        require(FINITE, freq=float(freq[0]))
        require(FINITE, freq=float(freq[-1]))
        if not np.all(freq[1:] > freq[:-1]):
            raise InvalidArgument(
                "freq grid must be finite and strictly increasing")
        require(FINITE, values=values, floor=self.floor)
        require(NON_NEGATIVE, rbw=self.rbw)


def cooling_occupation(n_m_th: float, n_c: float, cooperativity: float) -> float:
    """Sideband-cooled phonon occupation for a single red-detuned pump.

    n_m = n_m_th / (1 + C) + C/(1 + C) * n_c: cooling against the mechanical
    bath saturates at the cavity occupation in the large-C limit.
    """
    require(NON_NEGATIVE, n_m_th=n_m_th, n_c=n_c, cooperativity=cooperativity)
    c = cooperativity
    return n_m_th / (1.0 + c) + c / (1.0 + c) * n_c


def _check_weak_coupling(params: SystemParams, drives: DriveSet):
    ratio = drives.gamma_tot / params.kappa
    if ratio > WEAK_COUPLING_LIMIT:
        warnings.warn(
            f"Gamma_tot/kappa = {ratio:.3g} exceeds the weak-coupling "
            f"threshold {WEAK_COUPLING_LIMIT}", WeakCouplingWarning,
            stacklevel=3)


def _mechanical_occupation(baths: BathOccupations,
                           drives: DriveSet) -> float:
    """n_m of steady_state, without the weak-coupling check."""
    g_p = drives.gamma_opt("cooling_pump")
    g_r = drives.gamma_opt("red_probe")
    g_b = drives.gamma_opt("blue_probe")
    return (g_p * baths.n_c + drives.gamma_m * baths.n_m_th
            + g_r * baths.n_c + g_b * (baths.n_c + 1.0)) / drives.gamma_tot


def steady_state(params: SystemParams, baths: BathOccupations,
                 drives: DriveSet) -> float:
    """Steady-state phonon occupation n_m under the three-tone drive.

    n_m = [G_p n_c + Gamma_m n_m_th + G_r n_c + G_b (n_c + 1)] / Gamma_tot.
    The blue probe contributes G_b/Gamma_tot even at zero bath temperature
    (quantum back-action).  n_c is taken from the supplied baths record
    (derived from the cavity bath or set directly).  FloatingPointError
    when n_m overflows the double range.
    """
    _check_weak_coupling(params, drives)
    n_m = _mechanical_occupation(baths, drives)
    if not n_m < np.inf:
        raise FloatingPointError(f"n_m = {n_m!r} overflows the double range")
    return n_m


def _sideband_full(nu, nu_over_w, inv_w, delta, sign, gamma_x, params,
                   baths, drives):
    """Full sideband PSD of one tone (device referred, quanta/(s Hz)).

    With s = sign (-1 pump/red, +1 blue), o = nu - s delta the offset from
    the sideband center and w = 1 + 4 nu^2/kappa^2 the inverse cavity
    Lorentzian, the thermal, interference and vacuum terms over |chi|^2
    reduce exactly to one real rational function of nu:

        S_x   = eta_kappa Gamma_x Gamma_tot (B / w) / |D|^2,
        B     = [G_p n_c + G_r n_c + G_b (n_c + 1)] / Gamma_tot
                + s (2 n_c + 1/2) + G_sum / (2 Gamma_tot)
                + Gamma_m (n_th + 1/2) w / Gamma_tot
                - s 8 n_c nu o / (kappa Gamma_tot),
        |D|^2 = ((G_sum + Gamma_m)/2 - 2 nu o/kappa)^2
                + (o + nu Gamma_m/kappa)^2,

    with G_sum = G_p + G_r - G_b.  B/w is evaluated term by term from the
    nu/w and 1/w that output_psd shares between the tones, so it stays
    finite wherever nu is; where |D|^2 ~ nu^4 overflows, S_x is 0.  The
    scalars are taken in the type of nu, so a long double grid is evaluated
    in long double throughout.
    """
    t = nu.dtype.type
    g_p = t(drives.gamma_opt("cooling_pump"))
    g_r = t(drives.gamma_opt("red_probe"))
    g_b = t(drives.gamma_opt("blue_probe"))
    gm = t(drives.gamma_m)
    gt = t(drives.gamma_tot)
    kappa = t(params.kappa)
    n_c = t(baths.n_c)
    g_sum = g_p + g_r - g_b
    # the nu-independent terms of B
    flat = ((g_p * n_c + g_r * n_c + g_b * (n_c + 1.0)) / gt
            + sign * (2.0 * n_c + 0.5) + g_sum / (2.0 * gt))
    # in place: numpy elides temporaries only in arrays above 256 KiB
    offset = nu - sign * t(delta)
    im_d = (gm / kappa) * nu
    im_d += offset
    re_d = nu * offset
    re_d *= -2.0 / kappa
    re_d += 0.5 * (g_sum + gm)
    b_over_w = nu_over_w * offset
    b_over_w *= -sign * 8.0 * n_c / (kappa * gt)
    b_over_w += flat * inv_w
    b_over_w += gm * (t(baths.n_m_th) + 0.5) / gt
    # |D|^2 ~ nu^4 overflows on very wide grids, where S_x goes to its
    # limit 0 instead
    with np.errstate(over="ignore"):
        re_d *= re_d
        im_d *= im_d
        re_d += im_d
    b_over_w *= t(params.eta_kappa) * gt
    b_over_w /= re_d
    # Gamma_x last: a tiny Gamma_x is rounded once, at each value, not
    # first in a scalar prefactor that may fall below the normal range
    b_over_w *= t(gamma_x)
    return b_over_w


def _sideband_full_wide(nu, delta, sign, gamma_x, params, baths, drives):
    """_sideband_full in long double, each value rounded once to double.

    For a sideband wholly below the normal double range.  Just below it a
    subnormal still holds about 16 digits, fewer than the double kernel
    keeps after its few ulps of rounding, so there the kernel runs in the
    wider type and only the final rounding to double is left.  Where long
    double is no wider than double this is the double kernel again.
    """
    wide = nu.astype(np.longdouble)
    inv_w = 1 / (1 + 4 * wide**2 / np.longdouble(params.kappa)**2)
    return _sideband_full(wide, wide * inv_w, inv_w, delta, sign, gamma_x,
                          params, baths, drives).astype(float)


def _sideband_simplified(nu, delta, sign, gamma_x, occupation, params, drives):
    gt = drives.gamma_tot
    offset = nu + delta if sign < 0 else nu - delta
    return (params.eta_kappa * gamma_x * gt
            / (gt**2 / 4.0 + offset**2) * occupation)


def output_psd(params: SystemParams, baths: BathOccupations,
               drives: DriveSet, grid, simplified: bool = False) -> dict:
    """Output-field noise PSD components on a common cyclic grid.

    Returns a dict of exactly four Spectrum entries "cavity", "pump", "red"
    and "blue" (tones without a drive give identically zero spectra); the
    vacuum background beneath them is VACUUM_FLOOR.  The cavity
    emission is S_c = 4 eta_kappa n_c / w with w = 1 + 4 nu^2/kappa^2.  The
    full sideband forms are the real rational functions of nu given in
    _sideband_full, S_x = eta_kappa Gamma_x Gamma_tot (B/w) / |D|^2, which
    share w with the cavity.  With ``simplified`` the flat-cavity peak
    forms are used:

        S_p, S_r  ~ (n_m - 2 n_c)      Lorentzians of width Gamma_tot,
        S_b       ~ (n_m + 2 n_c + 1),
        S_c(0)    = 4 eta_kappa n_c    of width kappa.

    Sidebands separated by less than 10 Gamma_tot trigger an OverlapWarning:
    cross terms between them are always neglected.  FloatingPointError when
    a component overflows the double range.
    """
    _check_weak_coupling(params, drives)
    nu = np.asarray(grid, dtype=float)
    n_m = _mechanical_occupation(baths, drives)
    n_c = baths.n_c
    gt = drives.gamma_tot

    centers = {}
    for role, sign in (("cooling_pump", -1), ("red_probe", -1),
                       ("blue_probe", +1)):
        tone = drives.tone(role)
        if tone is not None:
            centers[role] = -tone.delta if sign < 0 else tone.delta
    roles = list(centers)
    for i in range(len(roles)):
        for j in range(i + 1, len(roles)):
            spacing = abs(centers[roles[i]] - centers[roles[j]])
            if spacing < 10.0 * gt:
                warnings.warn(
                    f"sidebands {roles[i]}/{roles[j]} separated by "
                    f"{spacing:.3g} Hz < 10 Gamma_tot; neglected cross terms "
                    "may matter", OverlapWarning, stacklevel=2)

    def spectrum(values, label):
        if not np.all(np.isfinite(values)):
            raise FloatingPointError(f"{label} PSD overflows the double range")
        return Spectrum(freq=nu, values=values, label=label)

    w = 1.0 + 4.0 * nu**2 / params.kappa**2
    components = {"cavity": spectrum(4.0 * params.eta_kappa * n_c / w,
                                     "cavity")}
    if not simplified:
        inv_w = 1.0 / w
        nu_over_w = nu * inv_w

    spec_map = (("pump", "cooling_pump", -1, n_m - 2.0 * n_c),
                ("red", "red_probe", -1, n_m - 2.0 * n_c),
                ("blue", "blue_probe", +1, n_m + 2.0 * n_c + 1.0))
    for label, role, sign, occupation in spec_map:
        tone = drives.tone(role)
        if tone is None or tone.gamma_opt == 0.0:
            values = np.zeros_like(nu)
        elif simplified:
            values = _sideband_simplified(nu, tone.delta, sign,
                                          tone.gamma_opt, occupation,
                                          params, drives)
        else:
            values = _sideband_full(nu, nu_over_w, inv_w, tone.delta, sign,
                                    tone.gamma_opt, params, baths, drives)
            if np.max(np.abs(values)) < np.finfo(float).tiny:
                values = _sideband_full_wide(nu, tone.delta, sign,
                                             tone.gamma_opt, params, baths,
                                             drives)
        components[label] = spectrum(values, label)
    return components


def component_fluxes(params: SystemParams, baths: BathOccupations,
                     drives: DriveSet) -> dict:
    """Analytic device-referred photon fluxes of each component [quanta/s].

    P_x = 2 pi eta_kappa Gamma_x (occupation factor); the cavity emission is
    P_c = 2 pi eta_kappa kappa n_c.  Multiplying by the chain gain G gives
    detector-unit powers.
    """
    _check_weak_coupling(params, drives)
    n_m = _mechanical_occupation(baths, drives)
    n_c = baths.n_c
    eta = params.eta_kappa
    return {
        "pump": TWO_PI * eta * drives.gamma_opt("cooling_pump")
                * (n_m - 2.0 * n_c),
        "red": TWO_PI * eta * drives.gamma_opt("red_probe")
               * (n_m - 2.0 * n_c),
        "blue": TWO_PI * eta * drives.gamma_opt("blue_probe")
                * (n_m + 1.0 + 2.0 * n_c),
        "cavity": TWO_PI * eta * params.kappa * n_c,
    }
