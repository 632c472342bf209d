"""Independent checks of the program's outputs.

Everything here is computed apart from the program: closed forms of the
physics the program implements, the benchmark's own least-squares slopes and
sampling statistics.  Nothing imports ``cryodrum``, and nothing compares
against a stored copy of an earlier output.

A check that fails raises ``CheckError`` (the program gave a wrong answer);
an operation that fails raises ``OperationFailed`` (the program refused or
crashed where it should have answered).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j1, wofz
from scipy.stats import chi2

TWO_PI = 2.0 * math.pi

#: first positive root of J0
ALPHA_01 = 2.404825557695773

#: Planck and Boltzmann constants (exact SI values)
PLANCK_H = 6.62607015e-34
BOLTZMANN_K = 1.380649e-23

#: bound, in standard errors, on every statistical check.  A correct program
#: fails a 4-sigma check once in 16 000 draws.  The seeded checks are G_opt,
#: n_add and the heating rate of each pulsed readout: 72 in a 20 s pulsed
#: run (6 rounds of 4 readouts), about 720 in a set of ten runs, so at
#: 4 sigma about one set in 23 would reject correct code (the cli checks of
#: this kind use the fixed README seeds).  At 6 sigma the chance per check
#: is 2e-9, about 1.4e-6 per set.
Z_BOUND = 6.0

#: two-sided tail of the chi-squared acceptance interval, the same 6-sigma
#: false-alarm rate
CHI2_TAIL = 1e-9


class CheckError(Exception):
    """The program's output disagrees with the independent computation."""


class OperationFailed(Exception):
    """The program failed an operation it should have completed."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def require_close(actual, expected, rtol: float, what: str):
    """Elementwise |actual - expected| <= rtol |expected|."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    dev = np.abs(actual - expected)
    bound = rtol * np.abs(expected)
    if not (actual.shape == expected.shape and np.all(dev <= bound)):
        worst = float(np.max(dev / np.maximum(np.abs(expected), 1e-300)))
        raise CheckError(f"{what}: relative deviation {worst:.3g} > {rtol:g}")


def require_within_sigma(actual: float, expected: float, sigma: float,
                         what: str, z: float = Z_BOUND):
    require(sigma > 0.0 and math.isfinite(actual)
            and abs(actual - expected) <= z * sigma,
            f"{what}: {actual!r} is more than {z:g} standard errors "
            f"({sigma:.3g}) from {expected!r}")


def lsq_slope(x, y) -> float:
    """Unweighted least-squares slope, written out."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


# ---- oracle: squeezed thermal state under heating and pure dephasing ----

def squeezed_thermal_moments(n_th, r, gamma_th, gamma_phi, times):
    """Closed-form moments of the high-temperature dephasing model.

    n(t) = n0 + 2 pi Gth t with n0 = n_th cosh 2r + sinh^2 r;
    |<b^2>|(t) = (n_th + 1/2) sinh 2r exp(-8 pi Gphi t);
    v_sq, v_asq = 1/2 + n -+ |<b^2>|.
    """
    t = np.asarray(times, dtype=float)
    n = n_th * math.cosh(2.0 * r) + math.sinh(r) ** 2 + TWO_PI * gamma_th * t
    b2 = (n_th + 0.5) * math.sinh(2.0 * r) * np.exp(-4.0 * TWO_PI
                                                    * gamma_phi * t)
    return {"n": n, "b2": b2, "v_sq": 0.5 + n - b2, "v_asq": 0.5 + n + b2}


def check_lindblad(traj, n_th, r, gamma_th, gamma_phi, times,
                   rtol: float = 1e-3):
    """Moments to rtol, CPTP invariants and truncation of one trajectory."""
    closed = squeezed_thermal_moments(n_th, r, gamma_th, gamma_phi, times)
    require_close(traj.n, closed["n"], rtol, "Lindblad <n>")
    require_close(np.abs(traj.b2), closed["b2"], rtol, "Lindblad |<b^2>|")
    require_close(traj.v_sq, closed["v_sq"], rtol, "Lindblad v_sq")
    require_close(traj.v_asq, closed["v_asq"], rtol, "Lindblad v_asq")
    require(float(np.max(traj.trace_dev)) <= 1e-10,
            f"trace deviation {np.max(traj.trace_dev):.3g} > 1e-10")
    require(float(np.min(traj.min_eigenvalue)) >= -1e-8,
            f"minimum eigenvalue {np.min(traj.min_eigenvalue):.3g} < -1e-8")
    require(float(np.max(traj.top_population)) < 1e-8,
            f"top-level population {np.max(traj.top_population):.3g} >= 1e-8")


# ---- cw: drum figures, steady state, spectra, sweeps ----

def drum_frequency(radius, stress, density) -> float:
    """Omega_m = alpha01 / (2 pi R) sqrt(sigma / rho) [Hz]."""
    return ALPHA_01 / (TWO_PI * radius) * math.sqrt(stress / density)


def drum_mass_ratio() -> float:
    """xi_mass = J1(alpha01)^2 for the (0, 1) membrane mode."""
    return float(j1(ALPHA_01)) ** 2


#: power laws of the drum figures in the sweep factor of each geometry axis
#: (radius scaling keeps the bottom plate in proportion).  From Omega_m ~
#: sqrt(sigma)/R, m_eff ~ R^2 t, x_zpf ~ (m_eff Omega_m)^-1/2,
#: g0 ~ x_zpf/d, lambda ~ t/(R sqrt(sigma)), Q_m ~ 1/lambda,
#: Gamma_m = Omega_m/Q_m, Gamma_th ~ Gamma_m/Omega_m and
#: C0 ~ g0^2/Gamma_m.  Pairs not listed are exactly 0.
SCALING_LAWS = {
    "omega_m": {"radius": -1.0, "stress": 0.5},
    "m_eff": {"radius": 2.0, "thickness": 1.0},
    "xi_mass": {},
    "x_zpf": {"radius": -0.5, "stress": -0.25, "thickness": -0.5},
    "g0": {"radius": -0.5, "stress": -0.25, "thickness": -0.5, "gap": -1.0},
    "q_m": {"radius": 1.0, "stress": 0.5, "thickness": -1.0},
    "gamma_m": {"radius": -2.0, "thickness": 1.0},
    "gamma_th": {"radius": -1.0, "stress": -0.5, "thickness": 1.0},
    "c0": {"radius": 1.0, "stress": -0.5, "thickness": -2.0, "gap": -2.0},
}


def check_scaling(axis: str, factors, columns: dict, atol: float = 1e-6):
    """Fitted log-log slopes of each swept column (named as in
    SCALING_LAWS) against its power law."""
    logf = np.log(np.asarray(factors, dtype=float))
    for quantity, values in columns.items():
        fitted = lsq_slope(logf, np.log(np.asarray(values, dtype=float)))
        expected = SCALING_LAWS[quantity].get(axis, 0.0)
        require(abs(fitted - expected) <= atol,
                f"{quantity} vs {axis}: exponent {fitted:.9g}, "
                f"expected {expected:g}")


def steady_state_occupation(g_p, g_r, g_b, gamma_m, n_c, n_th) -> float:
    """n_m = [(Gp + Gr) n_c + Gm n_th + Gb (n_c + 1)] / Gtot."""
    gamma_tot = gamma_m + g_p + g_r - g_b
    return ((g_p + g_r) * n_c + gamma_m * n_th + g_b * (n_c + 1.0)) \
        / gamma_tot


def cavity_emission(freq, eta_kappa, kappa, n_c):
    """Device-referred cavity emission 4 eta n_c / (1 + 4 nu^2 / kappa^2)."""
    nu = np.asarray(freq, dtype=float)
    return 4.0 * eta_kappa * n_c / (1.0 + 4.0 * nu**2 / kappa**2)


def voigt_line(freq, center, fwhm, rbw, area, floor):
    """floor + area x (Lorentzian of FWHM fwhm convolved with the Gaussian
    of an analyzer of resolution bandwidth rbw, sigma = rbw/sqrt(2 pi))."""
    sigma = rbw / math.sqrt(TWO_PI)
    z = (np.asarray(freq) - center + 0.5j * fwhm) / (sigma * math.sqrt(2.0))
    return floor + area * np.real(wofz(z)) / (sigma * math.sqrt(TWO_PI))


def sweep_ratio(g0, temperature, omega_m, omega_c, kappa_ex, kappa_0):
    """Calibrated sideband/pump ratio 4 g0^2 n_th(T) A of a g0 sweep point,
    n_th = k_B T / h Omega_m and A = eta^2 / (Omega_m^2 + ((kex - k0)/2)^2)
    x omega_c / (omega_c + Omega_m)."""
    eta = kappa_ex / (kappa_ex + kappa_0)
    n_th = BOLTZMANN_K * temperature / (PLANCK_H * omega_m)
    a = (eta**2 / (omega_m**2 + ((kappa_ex - kappa_0) / 2.0) ** 2)
         * omega_c / (omega_c + omega_m))
    return 4.0 * g0**2 * n_th * a


def require_same_bits(a, b, what: str):
    a = np.asarray(a)
    b = np.asarray(b)
    require(a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes(), f"{what}: not bit-identical")


# ---- pulsed: sampling statistics of quadrature batches ----

def calibration_errors(n_m, variances, n_samples):
    """Standard errors of (G_opt, n_add) from an unweighted line fit of
    sigma^2 = G (n_m + 1 + n_add), given that each sigma^2 is the mean of
    n_samples squared zero-mean Gaussians (variance 2 v^2 / N)."""
    x = np.asarray(n_m, dtype=float)
    v = np.asarray(variances, dtype=float)
    var_y = 2.0 * v**2 / n_samples
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    w_slope = dx / sxx
    w_icpt = 1.0 / x.size - x.mean() * w_slope
    var_s = float(np.sum(w_slope**2 * var_y))
    var_i = float(np.sum(w_icpt**2 * var_y))
    cov_si = float(np.sum(w_slope * w_icpt * var_y))
    slope = lsq_slope(x, v)
    icpt = float(v.mean() - slope * x.mean())
    # n_add = icpt / slope - 1, first-order propagation
    d_s = -icpt / slope**2
    d_i = 1.0 / slope
    var_n = d_s**2 * var_s + d_i**2 * var_i + 2.0 * d_s * d_i * cov_si
    return math.sqrt(var_s), math.sqrt(var_n)


def chi2_bounds(n_samples: int, tail: float = CHI2_TAIL):
    """(lo, hi) of vhat/v for a mean of n_samples squared Gaussians."""
    return (chi2.ppf(tail, n_samples) / n_samples,
            chi2.ppf(1.0 - tail, n_samples) / n_samples)


def variance_interval(second_moment, n_samples, confidence=0.6827):
    """Exact chi-squared interval of a raw Gaussian second moment."""
    alpha = 0.5 * (1.0 - confidence)
    return (second_moment * n_samples / chi2.ppf(1.0 - alpha, n_samples),
            second_moment * n_samples / chi2.ppf(alpha, n_samples))


def check_variance_estimate(est, true_value, g_opt, n_add, n_samples,
                            bounds, what: str):
    """A noise-subtracted variance and its interval against the truth.

    The interval must be the 68.27% chi-squared interval of the measured
    moment G (value + n_add + 1/2), and the measured moment must lie within
    the CHI2_TAIL acceptance band of the true one.
    """
    sub = n_add + 0.5
    measured = g_opt * (est.value + sub)
    lo, hi = variance_interval(measured, n_samples)
    require_close([est.lo, est.hi], [lo / g_opt - sub, hi / g_opt - sub],
                  1e-9, f"{what} interval")
    require(est.lo <= est.value <= est.hi, f"{what}: value outside interval")
    ratio = measured / (g_opt * (true_value + sub))
    require(bounds[0] <= ratio <= bounds[1],
            f"{what}: measured/true moment {ratio:.6g} outside "
            f"[{bounds[0]:.6g}, {bounds[1]:.6g}]")


def check_second_moments(samples, var_i, var_q, what: str):
    """Per-axis mean squares of N zero-mean Gaussian pairs within Z_BOUND
    standard errors (sqrt(2/N) v) of the expected variances."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    for col, expected in ((0, var_i), (1, var_q)):
        m = float(np.mean(samples[:, col] ** 2))
        require_within_sigma(m, expected, math.sqrt(2.0 / n) * expected,
                             f"{what} axis {col} second moment")


def thermalization_slope(gamma_m, n_m_th, times, window):
    """Least-squares heating rate [Hz, cyclic] of the exact relaxation
    n(t) = n_th (1 - exp(-2 pi Gm t)) from vacuum over t <= window."""
    t = np.asarray(times, dtype=float)
    t = t[t <= window]
    n = n_m_th * -np.expm1(-TWO_PI * gamma_m * t)
    return lsq_slope(t, n) / TWO_PI


def rate_difference(n_th, r, gamma_th, gamma_phi, times) -> float:
    """Slope difference [Hz, cyclic] of the closed-form squeezed and
    anti-squeezed variances, from the benchmark's own least squares."""
    closed = squeezed_thermal_moments(n_th, r, gamma_th, gamma_phi, times)
    return (lsq_slope(times, closed["v_sq"])
            - lsq_slope(times, closed["v_asq"])) / TWO_PI


# ---- cli ----

def cooling_occupation(n_th, n_c, cooperativity):
    """n_m = n_th/(1 + C) + C n_c/(1 + C)."""
    c = np.asarray(cooperativity, dtype=float)
    return n_th / (1.0 + c) + c * n_c / (1.0 + c)


def chain_budget(snri_db, n_add_h, eta_t_db, eta_db):
    """(n_add_T, 1 + n_add) of the chain budget in linear units."""
    snri = 10.0 ** (snri_db / 10.0)
    eta_t = 10.0 ** (-eta_t_db / 10.0)
    eta = 10.0 ** (-eta_db / 10.0)
    referred = (1.0 + n_add_h) / snri
    return referred / eta_t - 1.0, referred / (eta * eta_t)


def squeeze_parameter(gamma_r, gamma_b) -> float:
    """r = atanh sqrt(Gamma_b / Gamma_r)."""
    return math.atanh(math.sqrt(gamma_b / gamma_r))


def phase_noise_ceiling(g0, n_min, omega_m, n_th, gamma_m) -> float:
    """S_phiphi < g0^2 n_min^2 / (Omega_m^2 n_th Gamma_m) [1/Hz]."""
    return g0**2 * n_min**2 / (omega_m**2 * n_th * gamma_m)


def cancellation_floor(delta_phi, delta_att_db, branches=1) -> float:
    """branches x 10 log10(dphi^2 + (ln 10 / 20 x dAtt_dB)^2) [dB]."""
    residual = delta_phi**2 + (math.log(10.0) / 20.0 * delta_att_db) ** 2
    return branches * 10.0 * math.log10(residual)


def manifest_without_timestamp(manifest: dict) -> dict:
    return {k: v for k, v in manifest.items() if k != "timestamp"}
