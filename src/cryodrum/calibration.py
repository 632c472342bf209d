"""Inverse pipelines: asymmetry thermometry, chain budgets, coupling sweeps.

The continuous-wave thermometer normalises each fitted peak flux by its
emission rate, N_x = P_x / (2 pi Gamma_x) (N_c by kappa), leaving a single
detector scale G eta_kappa in

    N_p = N_r = G eta (n_m - 2 n_c),   N_b = G eta (n_m + 1 + 2 n_c),
    N_c = G eta n_c,                   N_floor = G (1 + n_add).

Three of these invert in closed form to (n_m, n_c, G eta) without any chain
calibration.

The chain budget, the tone-cancellation floor and the phase-noise ceiling
are scalar laws in `math`; numpy and `fitting` load inside the functions
that build arrays, so `budget` and `limits` run without them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (BOLTZMANN_K, PLANCK_H, TWO_PI, SystemParams,
                   bose_occupation_linear)
from .errors import (COUNT, FINITE, FRACTION, NON_NEGATIVE, POSITIVE,
                     BackActionDominated, DegenerateDesign, InconsistentBudget,
                     InvalidArgument, NegativeOccupation, SingularAsymmetry,
                     require)

if TYPE_CHECKING:
    from .fitting import LinearFitResult

LN10_OVER_20 = math.log(10.0) / 20.0


@dataclass(frozen=True)
class ScaledPeaks:
    """Rate-normalised peak powers of one sideband-asymmetry measurement.

    N_p/N_r/N_b are sideband fluxes divided by 2 pi Gamma_opt of their tone,
    N_c the cavity emission flux divided by 2 pi kappa; all in detector
    units per Hz of the normalising rate.  N_p and N_r estimate the same
    quantity; N_p usually carries the better signal-to-noise.  r_gamma is
    Gamma_opt^b / Gamma_opt^r.  N_p and N_r may be negative in the dip
    regime (n_m < 2 n_c), but every given value is finite.
    """

    N_b: float
    N_c: float
    N_p: float | None = None
    N_r: float | None = None
    r_gamma: float = 1.0
    N_floor: float | None = None

    def __post_init__(self):
        require(NON_NEGATIVE, N_b=self.N_b, N_c=self.N_c)
        require(POSITIVE, r_gamma=self.r_gamma)
        if self.N_p is None and self.N_r is None:
            raise InvalidArgument("need N_p or N_r")
        require(FINITE, **{name: value for name, value in vars(self).items()
                           if value is not None})

    @property
    def n_ref(self) -> float:
        """Red-sideband estimate used by the solver (N_p preferred)."""
        return self.N_p if self.N_p is not None else self.N_r


def scaled_peaks_from_fluxes(p_b: float, p_c: float, *, gamma_b: float,
                             kappa: float, p_p: float | None = None,
                             gamma_p: float | None = None,
                             p_r: float | None = None,
                             gamma_r: float | None = None) -> ScaledPeaks:
    """Normalise measured peak fluxes by their emission rates."""
    n_p = p_p / (TWO_PI * gamma_p) if p_p is not None else None
    n_r = p_r / (TWO_PI * gamma_r) if p_r is not None else None
    r_gamma = gamma_b / gamma_r if gamma_r is not None else 1.0
    return ScaledPeaks(N_b=p_b / (TWO_PI * gamma_b),
                       N_c=p_c / (TWO_PI * kappa),
                       N_p=n_p, N_r=n_r, r_gamma=r_gamma)


@dataclass(frozen=True)
class AsymmetryResult:
    n_m: float
    n_c: float
    g_eta: float
    n_add: float | None                 # needs eta_kappa and N_floor
    background_over_geta: float | None  # N_floor / (G eta)


def asymmetry_solve(peaks: ScaledPeaks,
                    eta_kappa: float | None = None) -> AsymmetryResult:
    """Closed-form (n_m, n_c, G eta) from the normalised peak powers.

    With R_N the *raw* blue/red flux ratio (equal to r_gamma N_b/N_r after
    rate normalisation) and R_G = r_gamma:

        n_m  = [R_G (N_r + N_b) + 2 (R_N + R_G) N_c]
               / [(R_N - R_G)(N_r + N_b) - 4 (R_N + R_G) N_c]
        n_c  = [R_N n_m - R_G (n_m + 1)] / [2 (R_N + R_G)]
        Geta = (N_r + N_b) / 2 / (n_m + 1/2)

    A measured noise floor separates the chain gain only when eta_kappa is
    supplied; otherwise the floor is reported as a ratio to G eta.  Negative
    extracted occupations are flagged with a warning and returned unclamped.
    """
    if eta_kappa is not None:
        require(FRACTION, eta_kappa=eta_kappa)
    n_ref = peaks.n_ref
    n_b = peaks.N_b
    n_c_peak = peaks.N_c
    r_g = peaks.r_gamma

    if n_ref == 0.0:
        # R_N diverges; use the equivalent eliminated form
        g_eta = n_b - n_ref - 4.0 * n_c_peak
        if abs(g_eta) < 1e-12 * max(1.0, n_b):
            raise SingularAsymmetry("degenerate peak set: G eta ~ 0")
        n_m = (n_ref + 2.0 * n_c_peak) / g_eta
        n_c = n_c_peak / g_eta
    else:
        r_n = r_g * n_b / n_ref
        pair = n_ref + n_b
        num = r_g * pair + 2.0 * (r_n + r_g) * n_c_peak
        den = (r_n - r_g) * pair - 4.0 * (r_n + r_g) * n_c_peak
        if abs(den) < 1e-12 * max(1.0, abs(num)):
            raise SingularAsymmetry(
                f"solution denominator {den:.3g} is numerically zero")
        n_m = num / den
        n_c = (r_n * n_m - r_g * (n_m + 1.0)) / (2.0 * (r_n + r_g))
        g_eta = pair / 2.0 / (n_m + 0.5)

    if n_m < 0.0 or n_c < 0.0:
        warnings.warn(
            f"extracted occupation negative (n_m = {n_m:.4g}, "
            f"n_c = {n_c:.4g}); returned unclamped", NegativeOccupation,
            stacklevel=2)

    n_add = None
    floor_ratio = None
    if peaks.N_floor is not None:
        floor_ratio = peaks.N_floor / g_eta
        if eta_kappa is not None:
            gain = g_eta / eta_kappa
            n_add = peaks.N_floor / gain - 1.0
    return AsymmetryResult(n_m=n_m, n_c=n_c, g_eta=g_eta, n_add=n_add,
                           background_over_geta=floor_ratio)


def combine_calibrations(values, errors):
    """Inverse-variance weighted average used for the G eta plateau.

    InvalidArgument unless there is one error per value, at least one
    value, every value finite and every error finite and > 0.
    """
    import numpy as np

    values = np.asarray(values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if not (values.size and values.shape == errors.shape):
        raise InvalidArgument("combine_calibrations needs one error per "
                              "value, and at least one value")
    require(FINITE, values=values)
    require(POSITIVE, errors=errors)
    # weights relative to the smallest error, so that none overflows
    e_min = errors.min()
    w = (e_min / errors) ** 2
    mean = float((w * values).sum() / w.sum())
    return mean, float(e_min / math.sqrt(w.sum()))


@dataclass(frozen=True)
class ChainBudget:
    """Measurement-chain inputs around the cryogenic preamplifier.

    Attenuations are stored as positive loss magnitudes in dB: eta_t_db is
    the preamp off-state insertion loss, eta_db the device-to-preamp path
    loss.  snri_db is the on/off signal-to-noise improvement; n_add_h the
    effective downstream (HEMT) added noise.
    """

    snri_db: float
    n_add_h: float
    eta_t_db: float
    eta_db: float

    def __post_init__(self):
        require(FINITE, snri_db=self.snri_db)
        require(NON_NEGATIVE, n_add_h=self.n_add_h, eta_t_db=self.eta_t_db,
                eta_db=self.eta_db)


@dataclass(frozen=True)
class ChainNoise:
    """n_add_t, the preamp added noise, and total_background = 1 + n_add
    referred to the device [quanta]."""

    n_add_t: float
    total_background: float


def chain_noise_budget(budget: ChainBudget) -> ChainNoise:
    """Noise budget of a chain from (SNRI, n_add_h, eta_T, eta).

    n_add_T = (1/eta_T)(1 + n_add_H)/SNRI - 1 and
    1 + n_add = (1/(eta eta_T))(1 + n_add_H)/SNRI, all in linear units.
    """
    snri = 10.0 ** (budget.snri_db / 10.0)
    eta_t = 10.0 ** (-budget.eta_t_db / 10.0)
    eta = 10.0 ** (-budget.eta_db / 10.0)
    referred = (1.0 + budget.n_add_h) / snri
    n_add_t = referred / eta_t - 1.0
    if n_add_t < -0.05:
        raise InconsistentBudget(
            f"n_add_T = {n_add_t:.3g} < 0: SNRI too large for the stated "
            "HEMT noise and off-state attenuation")
    return ChainNoise(n_add_t=n_add_t,
                      total_background=referred / (eta * eta_t))


def tone_cancellation_floor(delta_phi: float, delta_att_db: float,
                            branches: int = 1) -> float:
    """Guaranteed cancellation [dB] of a phase/attenuation trimming branch.

    Per branch: 10 log10(dphi^2 + ((ln10/20) dAtt_dB)^2), independent of the
    absolute attenuation/phase settings; several branches multiply (add in
    dB).  Returns -inf for perfect trimming.
    """
    require(FINITE, delta_phi=delta_phi, delta_att_db=delta_att_db)
    require(COUNT, branches=branches)
    residual = delta_phi**2 + (LN10_OVER_20 * delta_att_db) ** 2
    if residual == 0.0:
        return -math.inf
    return branches * 10.0 * math.log10(residual)


@dataclass(frozen=True)
class PhaseNoiseLimit:
    s_phiphi: float      # maximum tolerable phase noise PSD [1/Hz]
    dbc_per_hz: float    # same as single-sideband noise, 10 log10(S/2)


def phase_noise_requirement(params: SystemParams, n_m_th: float,
                            n_min: float) -> PhaseNoiseLimit:
    """Pump phase-noise ceiling to cool below n_min quanta.

    S_phiphi(Omega_m) < g0^2 n_min^2 / (Omega_m^2 n_m_th Gamma_m); the
    cyclic-unit evaluation directly gives the per-Hz density quoted as
    dBc/Hz at the mechanical-frequency offset.  FloatingPointError when the
    ceiling leaves the double range.
    """
    require(POSITIVE, n_m_th=n_m_th, n_min=n_min)
    s_max = (params.g0**2 * n_min**2
             / (params.omega_m**2 * n_m_th * params.gamma_m))
    if not 0.0 < s_max / 2.0 < math.inf:
        raise FloatingPointError(
            f"n_min = {n_min!r} puts the phase-noise ceiling S_phiphi = "
            f"{s_max!r} outside the double range")
    return PhaseNoiseLimit(s_phiphi=s_max,
                           dbc_per_hz=10.0 * math.log10(s_max / 2.0))


# ---- coupling-rate temperature sweep ----

@dataclass(frozen=True)
class G0SweepPoint:
    """One temperature point of a coupling-rate calibration sweep.

    Measured powers may be in any consistent unit: only the ratio
    (P_SB_meas / P_MW_src)(P_cal_src / P_cal_meas) enters the fit, which
    cancels chain gain and input attenuation.  InvalidArgument unless the
    temperature is finite and >= 0 and each power finite and > 0.
    """

    temperature: float
    p_sb_meas: float
    p_cal_meas: float
    p_mw_src: float
    p_cal_src: float

    def __post_init__(self):
        require(NON_NEGATIVE, temperature=self.temperature)
        require(POSITIVE, p_sb_meas=self.p_sb_meas,
                p_cal_meas=self.p_cal_meas, p_mw_src=self.p_mw_src,
                p_cal_src=self.p_cal_src)

    @property
    def calibrated_ratio(self) -> float:
        return (self.p_sb_meas / self.p_mw_src
                * self.p_cal_src / self.p_cal_meas)


@dataclass(frozen=True)
class G0SweepResult:
    g0: float
    g0_err: float
    fit: LinearFitResult
    n_ba: tuple          # per-point back-action occupation (None if unknown)


def _sweep_prefactor(params: SystemParams) -> float:
    """Coefficient A with calibrated_ratio = 4 g0^2 n_th(T) A."""
    half_diff = (params.kappa_ex - params.kappa_0) / 2.0
    return (params.eta_kappa**2
            / (params.omega_m**2 + half_diff**2)
            * params.omega_c / (params.omega_c + params.omega_m))


def back_action_occupation(params: SystemParams, p_mw_device: float,
                           g0: float) -> float:
    """Equivalent back-action quanta of an on-resonance pump of power P [W]."""
    photon_flux = p_mw_device / (PLANCK_H * params.omega_c)
    n_p = 4.0 * params.kappa_ex * photon_flux / (TWO_PI * params.kappa**2)
    return (4.0 * g0**2 / (params.kappa * params.gamma_m) * n_p
            / (1.0 + (2.0 * params.omega_m / params.kappa) ** 2))


def g0_from_sweep(sweep, params: SystemParams, *,
                  eta_att_db: float | None = None) -> G0SweepResult:
    """Extract g0 from a temperature sweep of on-resonance sideband power.

    Each point contributes the calibrated ratio of measured sideband to
    source pump power, normalised by the co-propagating calibration tone;
    the ratio equals 4 g0^2 n_th(T) A with the linear bath occupancy
    n_th = k_B T / h Omega_m, so a straight-line fit in T yields g0 from
    the slope, independent of chain gain and attenuation.

    InvalidArgument for fewer than 3 points (each G0SweepPoint has checked
    its own values); DegenerateDesign for a fitted slope that is not
    positive.  When the source-to-device attenuation is supplied
    (eta_att_db, positive loss), the pump back-action occupation is
    evaluated per point and BackActionDominated is raised if it exceeds
    10% of the bath occupancy.
    """
    import numpy as np

    from .fitting import linear_fit

    points = [p if isinstance(p, G0SweepPoint) else G0SweepPoint(*p)
              for p in sweep]
    if len(points) < 3:
        raise InvalidArgument("need at least 3 temperatures")
    temps = np.array([p.temperature for p in points])
    if eta_att_db is not None:
        require(NON_NEGATIVE, eta_att_db=eta_att_db)
    ratios = np.array([p.calibrated_ratio for p in points])

    prefactor = _sweep_prefactor(params)
    slope_unit = (4.0 * prefactor * BOLTZMANN_K
                  / (PLANCK_H * params.omega_m))

    fit = linear_fit(temps, ratios)
    if fit.slope <= 0.0:
        raise DegenerateDesign("fitted sweep slope is not positive")
    g0 = math.sqrt(fit.slope / slope_unit)
    g0_err = g0 * fit.slope_err / (2.0 * fit.slope)

    n_ba: list = [None] * len(points)
    if eta_att_db is not None:
        eta_att = 10.0 ** (-eta_att_db / 10.0)
        for i, p in enumerate(points):
            n_ba[i] = back_action_occupation(
                params, eta_att * p.p_mw_src, g0)
            n_th = bose_occupation_linear(params.omega_m, p.temperature)
            if n_ba[i] > 0.1 * n_th:
                raise BackActionDominated(
                    f"n_ba = {n_ba[i]:.3g} > 0.1 n_m_th = {0.1 * n_th:.3g} "
                    f"at T = {p.temperature:g} K")
    return G0SweepResult(g0=g0, g0_err=g0_err, fit=fit, n_ba=tuple(n_ba))


#: source pump power [W], source-to-device attenuation [dB, positive loss]
#: and output-chain gain [dB] of a synthetic sweep
SWEEP_P_MW_SRC = 1e-6
SWEEP_ATT_DB = 70.0
SWEEP_GAIN_DB = 60.0


def synthesize_g0_sweep(params: SystemParams, g0_true: float, temperatures,
                        *, noise_rel: float = 0.0, seed=None) -> list:
    """Forward-model a calibration sweep (synthetic-data generator).

    Produces measured powers at SWEEP_P_MW_SRC, SWEEP_ATT_DB and
    SWEEP_GAIN_DB with optional multiplicative log-normal noise on the
    detector readings; the calibration tone leaves the source at 1 nW.
    """
    import numpy as np

    p_mw_src, p_cal_src = SWEEP_P_MW_SRC, 1e-9
    eta_att = 10.0 ** (-SWEEP_ATT_DB / 10.0)
    gain = 10.0 ** (SWEEP_GAIN_DB / 10.0)
    prefactor = _sweep_prefactor(params)
    f_cal_num = (params.omega_m**2
                 + ((params.kappa_ex - params.kappa_0) / 2.0) ** 2)
    f_cal_den = (params.omega_m**2
                 + ((params.kappa_ex + params.kappa_0) / 2.0) ** 2)
    f_cal = f_cal_num / f_cal_den

    rng = np.random.default_rng(seed)
    rows = []
    for temp in temperatures:
        n_th = bose_occupation_linear(params.omega_m, temp)
        # device-referred sideband over device pump power, times the exact
        # cavity pre-factor (the calibration-tone fraction restores A)
        ratio_device = (4.0 * g0_true**2 * n_th * params.eta_kappa**2
                        / (params.omega_m**2 + (params.kappa / 2.0) ** 2)
                        * params.omega_c / (params.omega_c + params.omega_m))
        p_sb_meas = gain * eta_att * ratio_device * p_mw_src
        p_cal_meas = gain * eta_att * f_cal * p_cal_src
        if noise_rel > 0.0:
            p_sb_meas *= math.exp(noise_rel * rng.standard_normal())
            p_cal_meas *= math.exp(noise_rel * rng.standard_normal())
        rows.append(G0SweepPoint(temperature=float(temp),
                                 p_sb_meas=p_sb_meas, p_cal_meas=p_cal_meas,
                                 p_mw_src=p_mw_src, p_cal_src=p_cal_src))
    return rows
