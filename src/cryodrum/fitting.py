"""Spectral and regression estimators shared by the inverse pipelines.

A spectrum-analyzer trace of resolution bandwidth RBW is the true PSD
convolved with a Gaussian of sigma = RBW / sqrt(2 pi); a Lorentzian line
therefore appears as a Voigt profile.  Since convolution preserves area, the
sideband power is always the *Lorentzian* area, extracted either by direct
integration (wide, resolved peaks) or by a Voigt fit (linewidth comparable
to the RBW).

The Voigt profile needs the Faddeeva function w(z) = exp(-z^2) erfc(-iz),
and this module computes it itself, so the package needs numpy alone:
_faddeeva is Weideman's rational approximation (J. A. C. Weideman, SIAM
J. Numer. Anal. 31, 1497 (1994)) with N = 40 terms, valid for Im z >= 0.
Against scipy.special.wofz it is within 2.2e-14 relative over
|Re z| <= 200, 0 <= Im z <= 100, and its real part is within 8e-16 of
exp(-x^2) on the real axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, DegenerateDesign,
                     FitNonConvergence, IllConditioned, InvalidArgument,
                     PeakUnresolved, require)

SQRT_2PI = math.sqrt(2.0 * math.pi)
#: samples above half maximum that integrate_peak needs to call a peak resolved
MIN_RESOLVED_POINTS = 5
#: model evaluations after which fit_peak gives up
MAX_PEAK_EVALUATIONS = 400
#: fit_peak's relative tolerance on the cost reduction and on the step,
#: and its absolute tolerance on the gradient
PEAK_FIT_TOL = 1e-14

#: terms of Weideman's approximation and its scale L = sqrt(N / sqrt 2)
_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))


def _weideman_coefficients(n: int, scale: float):
    """Polynomial coefficients, highest power first, of Weideman's
    approximation: the DFT of (L^2 + t^2) exp(-t^2) sampled at
    t = L tan(theta / 2) on the 4n - 1 angles theta = k pi / 2n,
    |k| < 2n (theta = pi, where the function vanishes, is the zero in
    front)."""
    m = 2 * n
    t = scale * np.tan(np.arange(1 - m, m) * (math.pi / (2 * m)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    return (np.fft.fft(np.fft.fftshift(f)).real / (2 * m))[n:0:-1]


#: built once at import and read only
_WEIDEMAN_COEFFS = _weideman_coefficients(_WEIDEMAN_N, _WEIDEMAN_L)
_WEIDEMAN_COEFFS.flags.writeable = False


def _faddeeva(z):
    """Faddeeva function w(z) for Im z >= 0, by Weideman's approximation:
    w = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)), with p the degree
    N - 1 polynomial in Z = (L + iz) / (L - iz)."""
    d = 1.0 / (_WEIDEMAN_L - 1j * z)
    p = np.polyval(_WEIDEMAN_COEFFS, (_WEIDEMAN_L + 1j * z) * d)
    return (2.0 * p * d + 1.0 / math.sqrt(math.pi)) * d


def sigma_from_rbw(rbw: float) -> float:
    """Gaussian blur width of an FFT analyzer: sigma = RBW / sqrt(2 pi).

    InvalidArgument unless rbw is finite and >= 0."""
    require(NON_NEGATIVE, rbw=rbw)
    return rbw / SQRT_2PI


def voigt_eval(omega, gamma: float, sigma_rbw: float):
    """Unit-area Voigt profile V and its slopes (V, dV/domega, dV/dgamma).

    gamma is the Lorentzian HWHM; sigma_rbw the Gaussian standard deviation.
    sigma_rbw = 0 gives the exact Lorentzian gamma / (pi (omega^2 +
    gamma^2)) and its closed-form derivatives; gamma = 0 the pure Gaussian.
    Otherwise all three come from one Faddeeva evaluation: with
    z = (omega + i gamma) / (sigma sqrt 2), V = Re w(z) / (sigma sqrt(2 pi))
    and w'(z) = -2 z w(z) + 2i / sqrt(pi), so dV/domega = Re w' and
    dV/dgamma = -Im w', both over sigma sqrt 2 * sigma sqrt(2 pi).  w is
    _faddeeva, Weideman's N = 40 approximation (within 2.2e-14 relative of
    scipy's wofz); gamma >= 0 keeps every z in Im z >= 0, where it holds.
    InvalidArgument unless gamma and sigma_rbw are finite and >= 0.
    """
    require(NON_NEGATIVE, gamma=gamma, sigma_rbw=sigma_rbw)
    x = np.asarray(omega, dtype=float)
    if sigma_rbw == 0.0:
        denom = x**2 + gamma**2
        pi_d2 = math.pi * denom**2
        return (gamma / (math.pi * denom), -2.0 * x * gamma / pi_d2,
                (x**2 - gamma**2) / pi_d2)
    s2 = sigma_rbw * math.sqrt(2.0)
    norm = sigma_rbw * SQRT_2PI
    z = (x + 1j * gamma) / s2
    w = _faddeeva(z)
    dw = -2.0 * z * w + 2j / math.sqrt(math.pi)
    return np.real(w) / norm, dw.real / (s2 * norm), -dw.imag / (s2 * norm)


@dataclass(frozen=True)
class PeakFit:
    """Result of a single-peak fit.

    width is the Lorentzian FWHM; area the Lorentzian area (the physical
    sideband power, invariant under RBW blurring); height the deconvolved
    Lorentzian peak value, tied to the others by area = height * pi * width/2.
    covariance is the 4x4 matrix over (center, width, area, floor).
    nfev is the number of model evaluations the fit took, and condition the
    singular-value ratio of the Jacobian at the solution.
    """

    center: float
    width: float
    height: float
    area: float
    floor: float
    covariance: np.ndarray
    nfev: int
    condition: float
    sigma_rbw: float = 0.0


def _initial_guess(freq, values, sigma_rbw):
    """Moment-based initialization: edge floor, extremum sign/center, and a
    half-max width with the RBW share removed.  The floor is the median of
    the 2k edge samples, the mean of the two middle ones, taken with
    np.partition: np.median imports numpy.ma on its first call."""
    k = max(3, freq.size // 20)
    middle = np.partition(np.concatenate([values[:k], values[-k:]]),
                          [k - 1, k])[k - 1:k + 1]
    floor0 = float(np.mean(middle))
    resid = values - floor0
    ipk = int(np.argmax(np.abs(resid)))
    height0 = resid[ipk]
    weights = np.abs(resid)
    wsum = weights.sum()
    center0 = float((freq * weights).sum() / wsum) if wsum > 0 else freq[ipk]

    above = np.abs(resid) >= 0.5 * abs(height0)
    if above.any():
        apparent = freq[above][-1] - freq[above][0]
    else:
        apparent = (freq[-1] - freq[0]) / 10.0
    gauss_fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0)) * sigma_rbw
    fwhm0 = max(apparent - gauss_fwhm, apparent / 100.0,
                2.0 * (freq[1] - freq[0]))
    area0 = height0 * math.pi * fwhm0 / 2.0
    return np.array([center0, fwhm0, area0, floor0])


def _peak_terms(freq, p, sigma_rbw):
    """Peak model floor + area V(freq - center; fwhm / 2, sigma_rbw) at
    p = (center, fwhm, area, floor), and its analytic Jacobian over p."""
    profile, d_dx, d_dgamma = voigt_eval(freq - p[0], p[1] / 2.0, sigma_rbw)
    jac = np.column_stack([-p[2] * d_dx, 0.5 * p[2] * d_dgamma, profile,
                           np.ones_like(profile)])
    return p[3] + p[2] * profile, jac


def fit_peak(spec, model: str = "lorentzian") -> PeakFit:
    """Levenberg-Marquardt least squares of one peak over (center, width,
    area, floor).

    spec is a dynamics.Spectrum; model is "lorentzian" or "voigt".  For
    "voigt" the Gaussian width is fixed from the spectrum's RBW and never
    fitted.  Negative areas (dips) are allowed; the width is held at or
    above a floor by projection.  Each trial point takes one profile
    evaluation (one Faddeeva call per point for "voigt"), which gives both
    the residuals r and the analytic Jacobian J.  The step solves
    (J^T J + lambda D) delta = -J^T r with D the running maximum of
    diag(J^T J), so a poor initial width does not stall the fit; lambda
    falls tenfold after a step that lowers the cost and rises tenfold
    after one that does not (Moré, LNM 630, 1978).  The fit stops when the
    actual and predicted cost reductions are both below PEAK_FIT_TOL of
    the cost, the step is below PEAK_FIT_TOL of the parameters or the
    gradient J^T r below PEAK_FIT_TOL, and raises FitNonConvergence at
    MAX_PEAK_EVALUATIONS evaluations.  Parameter covariance comes from the
    Jacobian at the solution, scaled by the residual variance.
    """
    if model not in ("lorentzian", "voigt"):
        raise InvalidArgument(f"unknown model {model!r}")
    sigma_rbw = sigma_from_rbw(spec.rbw) if model == "voigt" else 0.0
    freq = spec.freq
    values = spec.values

    p = _initial_guess(freq, values, sigma_rbw)
    width_floor = 1e-9 * max(p[1], freq[1] - freq[0])
    model_values, jac = _peak_terms(freq, p, sigma_rbw)
    resid = model_values - values
    cost = 0.5 * float(resid @ resid)
    nfev = 1
    normal, grad = jac.T @ jac, jac.T @ resid
    scale = np.diag(normal).copy()
    scale[scale == 0.0] = 1.0
    damping = 1e-3
    while np.max(np.abs(grad)) >= PEAK_FIT_TOL:
        if nfev == MAX_PEAK_EVALUATIONS:
            raise FitNonConvergence("peak fit hit the evaluation cap")
        step = np.linalg.solve(normal + damping * np.diag(scale), -grad)
        trial = p + step
        trial[1] = max(trial[1], width_floor)
        step = trial - p
        trial_values, trial_jac = _peak_terms(freq, trial, sigma_rbw)
        nfev += 1
        trial_resid = trial_values - values
        trial_cost = 0.5 * float(trial_resid @ trial_resid)
        reduction = cost - trial_cost
        predicted = -float(grad @ step + 0.5 * step @ normal @ step)
        converged = (
            (abs(reduction) <= PEAK_FIT_TOL * cost
             and predicted <= PEAK_FIT_TOL * cost
             and reduction <= 2.0 * predicted)
            or math.sqrt(step @ step)
            <= PEAK_FIT_TOL * (PEAK_FIT_TOL + math.sqrt(p @ p)))
        if converged:
            # the two costs agree to rounding; the trial point, where the
            # linearised gradient vanishes, is the closer to the minimum
            p, cost, jac = trial, trial_cost, trial_jac
            break
        if reduction > 0.0:
            p, cost, resid, jac = trial, trial_cost, trial_resid, trial_jac
            normal, grad = jac.T @ jac, jac.T @ resid
            np.maximum(scale, np.diag(normal), out=scale)
            damping /= 10.0
        else:
            damping *= 10.0

    singulars = np.linalg.svd(jac, compute_uv=False)
    condition = singulars[0] / max(singulars[-1], 1e-300)
    if singulars[-1] <= 0.0 or condition > 1e12:
        raise IllConditioned(f"fit Jacobian condition number {condition:.3g}")

    dof = max(freq.size - 4, 1)
    s2 = 2.0 * cost / dof
    cov = np.linalg.inv(jac.T @ jac) * s2

    center, fwhm, area, floor = p
    height = 2.0 * area / (math.pi * fwhm)
    return PeakFit(center=float(center), width=float(fwhm),
                   height=float(height), area=float(area), floor=float(floor),
                   covariance=cov, sigma_rbw=sigma_rbw,
                   nfev=nfev, condition=float(condition))


def integrate_peak(spec) -> float:
    """Photon flux of a resolved peak of the floor-subtracted
    dynamics.Spectrum spec: trapezoid of the values plus the tails beyond
    the grid.

    The grid must resolve the peak (at least MIN_RESOLVED_POINTS samples
    above half maximum, else PeakUnresolved points the caller to
    fit_peak).  The truncated 1/nu^2 Lorentzian tails are estimated from
    the k outermost samples of each side and added, which brings wide-grid
    integrals of noiseless Lorentzians/Voigts to ~1e-8 relative of the true
    area.  A wing whose outermost samples reach 2% of the peak's |maximum|
    is cut by the grid edge before its far 1/nu^2 tail, where the tail
    estimate comes up short (by 1.7e-3 of the area at 4%), so
    PeakUnresolved is raised there too.
    """
    freq = spec.freq
    resid = spec.values
    magnitude = np.abs(resid)
    peak = float(np.max(magnitude))
    flux = float(np.trapezoid(resid, freq))
    if not peak > 0.0:
        return flux
    n_above = int(np.count_nonzero(magnitude >= 0.5 * peak))
    if n_above < MIN_RESOLVED_POINTS:
        raise PeakUnresolved(
            f"only {n_above} samples above half maximum; fit_peak "
            "should be used for under-resolved lines")
    k = max(3, freq.size // 200)
    for side, wing in (("left", magnitude[:k]), ("right", magnitude[-k:])):
        if np.any(wing >= 0.02 * peak):
            raise PeakUnresolved(
                f"peak wing cut by the {side} grid edge: its {k} outermost "
                "samples reach 2% of the maximum, short of the far tail")
    x = freq - freq[int(np.argmax(magnitude))]
    # wings fall off as a/x^2 with a = area * fwhm / (2 pi)
    a_left = float(np.mean(resid[:k] * x[:k] ** 2))
    a_right = float(np.mean(resid[-k:] * x[-k:] ** 2))
    flux += a_left / abs(x[0]) + a_right / x[-1]
    return flux


@dataclass(frozen=True)
class LinearFitResult:
    slope: float
    intercept: float
    covariance: np.ndarray   # 2x2 over (slope, intercept)
    chi2: float
    dof: int

    @property
    def slope_err(self) -> float:
        return math.sqrt(self.covariance[0, 0])


def linear_fit(x, y, sigma_y=None) -> LinearFitResult:
    """Closed-form weighted least squares y = slope * x + intercept.

    With sigma_y the covariance is the standard WLS one; without, residual
    variance is estimated from the fit (and the covariance is zero for an
    exactly determined two-point fit, with a warning).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise DegenerateDesign("need at least two (x, y) points")
    if np.ptp(x) == 0.0:
        raise DegenerateDesign("all x values identical")

    if sigma_y is None:
        w = np.ones_like(x)
    else:
        sigma_y = np.asarray(sigma_y, dtype=float)
        require(POSITIVE, sigma_y=sigma_y)
        w = 1.0 / sigma_y**2

    s = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    delta = s * sxx - sx * sx
    if delta <= 0.0:
        raise DegenerateDesign("singular design matrix")
    slope = (s * sxy - sx * sy) / delta
    intercept = (sxx * sy - sx * sxy) / delta
    cov = np.array([[s, -sx], [-sx, sxx]]) / delta

    residuals = y - slope * x - intercept
    chi2 = float((w * residuals**2).sum())
    dof = x.size - 2
    if sigma_y is None:
        if dof > 0:
            cov = cov * (chi2 / dof)
        else:
            warnings.warn("exactly determined fit: zero degrees of freedom, "
                          "covariance set to zero", UserWarning, stacklevel=2)
            cov = np.zeros((2, 2))
    return LinearFitResult(slope=float(slope), intercept=float(intercept),
                           covariance=cov, chi2=chi2, dof=dof)
