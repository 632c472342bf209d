"""Time-domain readout through optomechanical amplification.

A blue-detuned pump turns the cavity into a phase-insensitive amplifier of
the mechanical quadratures: the filtered output amplitude is
A = sqrt(G_opt) (b(0) + c_opt^dag), so measured (I, Q) variances relate to
the mechanical quadratures as <I^2> = G_opt (<X1^2> + n_add_opt + 1/2) with
the quadrature convention X = (b + b^dag)/sqrt(2), vacuum variance 1/2.

Monte-Carlo sampling happens directly at the level of the final (I, Q)
Gaussians; no time traces are synthesized.  The thermalization run reads
only the second moments of each time's batch, so it draws that 2x2 moment
matrix from its exact Wishart law (Bartlett decomposition) instead of the
pairs themselves.  All Monte-Carlo draws are seeded deterministically;
per-point streams derive from (seed, point index) so results do not depend
on how work is partitioned.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, BathOccupations, SystemParams
from .errors import (
    DegenerateDesign,
    InvalidArgument,
    LowGainWarning,
    NegativeVarianceEstimate,
    NonPositiveAmplification,
    NonPositiveRate,
    UnphysicalVariances,
)
from .fitting import LinearFitResult, linear_fit


def squeezed_thermal_from_variances(v_sq: float, v_asq: float):
    """(n_th, r) of the squeezed thermal state with the given axis variances.

    n_th = sqrt(v_sq v_asq) - 1/2 and r = -ln(v_sq/v_asq)/4; the product
    must satisfy the Heisenberg bound v_sq v_asq >= 1/4.
    """
    if v_sq > v_asq:
        raise ValueError("expected v_sq <= v_asq")
    if v_sq <= 0.0:
        raise UnphysicalVariances("v_sq must be > 0")
    product = v_sq * v_asq
    if product < 0.25 - 1e-9:
        raise UnphysicalVariances(
            f"v_sq * v_asq = {product:.6g} < 1/4 violates Heisenberg")
    n_th = math.sqrt(product) - 0.5
    r = -0.25 * math.log(v_sq / v_asq)
    return n_th, r


@dataclass(frozen=True)
class GaussianMechState:
    """Second-moment description of the mechanical mode.

    n is <b^dag b> and b2 the complex <b^2>; means are assumed zero.  The
    X(phi) = X1 cos(phi) + X2 sin(phi) variance is
    1/2 + n + |b2| cos(2 phi - arg b2), so the squeezed axis sits at
    arg(b2)/2 - pi/2.
    """

    n: float = 0.0
    b2: complex = 0.0j

    @classmethod
    def vacuum(cls) -> "GaussianMechState":
        return cls(n=0.0, b2=0.0j)

    @classmethod
    def thermal(cls, n: float) -> "GaussianMechState":
        return cls(n=n, b2=0.0j)

    @classmethod
    def squeezed_thermal(cls, n_th: float, r: float,
                         theta: float = 0.0) -> "GaussianMechState":
        """Squeezed thermal state with squeezed axis at angle theta.

        n = n_th cosh(2r) + sinh^2(r); |b2| = (n_th + 1/2) sinh(2r); at
        theta = 0 the squeezed axis is X1 with variance (n_th + 1/2) e^{-2r}.
        """
        if n_th < 0.0:
            raise NonPositiveRate("n_th must be >= 0")
        n = n_th * math.cosh(2.0 * r) + math.sinh(r) ** 2
        b2 = -(n_th + 0.5) * math.sinh(2.0 * r) * cmath.exp(2j * theta)
        return cls(n=n, b2=b2)

    @property
    def var_x1(self) -> float:
        return 0.5 + self.n + self.b2.real

    @property
    def var_x2(self) -> float:
        return 0.5 + self.n - self.b2.real

    @property
    def cov_x1x2(self) -> float:
        return self.b2.imag

    @property
    def principal_variances(self):
        """(v_sq, v_asq) along the principal axes."""
        mag = abs(self.b2)
        return 0.5 + self.n - mag, 0.5 + self.n + mag

    @property
    def squeezed_axis_angle(self) -> float:
        """Angle of the squeezed axis in [-pi/2, pi/2); 0 for isotropic states."""
        if self.b2 == 0:
            return 0.0
        angle = 0.5 * cmath.phase(self.b2) - 0.5 * math.pi
        return (angle + math.pi / 2.0) % math.pi - math.pi / 2.0

    @property
    def squeezed_thermal_params(self):
        """(n_th, r) of the squeezed-thermal parametrisation; raises
        UnphysicalVariances for a state below the Heisenberg bound."""
        return squeezed_thermal_from_variances(*self.principal_variances)


@dataclass(frozen=True)
class AmplifierSpec:
    """Blue-pump amplification settings and readout-chain context.

    gamma_opt_b is the anti-damping rate of the pump [Hz]; gamma_amp =
    gamma_opt_b - Gamma_m the net amplification rate [Hz]; tau the pulse
    length and dt the sample step [s].  n_add_h is the added noise of the
    microwave chain after the cavity; g_opt_uv2 / n_add_opt are the
    *calibrated* conversion factor [uV^2/quanta] and input-referred added
    noise of the whole amplification readout.
    """

    gamma_opt_b: float
    gamma_amp: float
    tau: float
    dt: float
    eta_kappa: float = 1.0
    n_add_h: float = 0.0
    g_opt_uv2: float = 1.0
    n_add_opt: float = 0.0

    def __post_init__(self):
        if self.tau <= 0.0 or self.dt <= 0.0:
            raise NonPositiveRate("tau and dt must be > 0")
        if self.gamma_amp > 0.0 and self.gain < 1e3:
            warnings.warn(
                f"amplification gain {self.gain:.3g} < 1e3: large-gain "
                "approximations degrade", LowGainWarning, stacklevel=2)

    @property
    def gain(self) -> float:
        """Power gain of the amplification pulse, exp(2 pi gamma_amp tau)."""
        return math.exp(TWO_PI * self.gamma_amp * self.tau)

    @property
    def gain_db(self) -> float:
        return 10.0 * math.log10(self.gain)


@dataclass(frozen=True)
class AddedNoiseBudget:
    """Input-referred added-noise terms of the amplification readout [quanta].

    hybridization: thermal quanta entering through the internal cavity port,
    (1 - eta_kappa) n_c_th.  decoherence: bath heating during the pulse,
    Gamma_m n_m_th / gamma_amp.  chain: microwave chain noise referred back
    through the optomechanical gain, n_add_h / (eta_kappa e^{Gamma_amp tau}).
    """

    hybridization: float
    decoherence: float
    chain: float

    @property
    def total(self) -> float:
        return self.hybridization + self.decoherence + self.chain


def predict_added_noise(spec: AmplifierSpec, params: SystemParams,
                        baths: BathOccupations) -> AddedNoiseBudget:
    """Itemised added-noise budget in the large-gain regime."""
    if spec.gamma_amp <= 0.0:
        raise NonPositiveAmplification("gamma_amp must be > 0")
    hybrid = (1.0 - spec.eta_kappa) * baths.n_c_th
    decoherence = params.gamma_m * baths.n_m_th / spec.gamma_amp
    chain = spec.n_add_h / (spec.eta_kappa * spec.gain)
    return AddedNoiseBudget(hybridization=hybrid, decoherence=decoherence,
                            chain=chain)


@dataclass(frozen=True)
class QuadratureBatch:
    """Monte-Carlo (I, Q) sample pairs in uV with their calibration context."""

    samples: np.ndarray          # shape (N, 2)
    g_opt: float                 # uV^2 per quanta
    n_add_opt: float
    seed: object = None
    state_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 1:
            raise ValueError("samples must have shape (N >= 1, 2)")
        if self.g_opt <= 0.0:
            raise NonPositiveRate("g_opt must be > 0")
        if self.n_add_opt < 0.0:
            raise NonPositiveRate("n_add_opt must be >= 0")

    @property
    def count(self) -> int:
        return self.samples.shape[0]


def _readout_covariance(var_x1, var_x2, cov_x1x2, g_opt: float,
                        n_add_opt: float):
    """Entries (s11, s22, s12) of the (I, Q) covariance Sigma of states
    with these quadrature moments, seen through the amplifier:
    g_opt (var + n_add_opt + 1/2) along each axis and g_opt cov_x1x2 across.
    FloatingPointError when an entry is not finite.
    """
    s11 = g_opt * (var_x1 + n_add_opt + 0.5)
    s22 = g_opt * (var_x2 + n_add_opt + 0.5)
    s12 = g_opt * cov_x1x2
    if not np.all(np.isfinite(s11) & np.isfinite(s22) & np.isfinite(s12)):
        raise FloatingPointError("quadrature covariance is not finite")
    return s11, s22, s12


def sample_quadratures(state: GaussianMechState, g_opt: float,
                       n_add_opt: float, n_samples: int,
                       seed) -> QuadratureBatch:
    """Draw N zero-mean (I, Q) pairs for a state seen through the amplifier.

    <I^2> = g_opt (var_x1 + n_add_opt + 1/2), same for Q/X2, and the I-Q
    correlation is g_opt Im<b^2>.  Deterministic per seed.
    FloatingPointError when that covariance is not finite.
    """
    if n_samples < 1:
        raise InvalidArgument("n_samples must be >= 1")
    s11, s22, s12 = _readout_covariance(state.var_x1, state.var_x2,
                                        state.cov_x1x2, g_opt, n_add_opt)
    chol = np.linalg.cholesky(np.array([[s11, s12], [s12, s22]]))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, 2))
    samples = z @ chol.T
    return QuadratureBatch(samples=samples, g_opt=g_opt,
                           n_add_opt=n_add_opt, seed=seed,
                           state_meta={"n": state.n, "b2_re": state.b2.real,
                                       "b2_im": state.b2.imag})


def _wishart_moments(n, b2, g_opt: float, n_add_opt: float, n_samples: int,
                     seeds):
    """Second moments (m11, m22, m12) of n_samples (I, Q) pairs per state.

    Each state (arrays n, b2) has the covariance Sigma that
    sample_quadratures draws from, and N M ~ Wishart(N, Sigma) exactly:
    N M = (L A)(L A)^T with L the Cholesky factor of Sigma and the Bartlett
    factor A = [[sqrt(c1), 0], [z, sqrt(c2)]], c1 ~ chi^2_N,
    c2 ~ chi^2_{N-1}, z ~ N(0, 1), drawn in that order from
    default_rng(seeds[i]) (Bartlett 1933; Odell & Feiveson, JASA 61, 199
    (1966)).  Three variates per state instead of 2 N.  The errors are
    those of sample_quadratures: FloatingPointError for a non-finite Sigma,
    LinAlgError for one that is not positive definite, NonPositiveRate for
    g_opt <= 0 or n_add_opt < 0.
    """
    if n_samples < 1:
        raise InvalidArgument("n_samples must be >= 1")
    n = np.asarray(n, dtype=float)
    b2 = np.asarray(b2, dtype=complex)
    s11, s22, s12 = _readout_covariance(0.5 + n + b2.real, 0.5 + n - b2.real,
                                        b2.imag, g_opt, n_add_opt)
    if not np.all(s11 > 0.0):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    l11 = np.sqrt(s11)
    l21 = s12 / l11
    l22_sq = s22 - l21 * l21
    if not np.all(l22_sq > 0.0):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    if g_opt <= 0.0:
        raise NonPositiveRate("g_opt must be > 0")
    if n_add_opt < 0.0:
        raise NonPositiveRate("n_add_opt must be >= 0")
    l22 = np.sqrt(l22_sq)

    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append((2.0 * rng.standard_gamma(n_samples / 2.0),
                      2.0 * rng.standard_gamma((n_samples - 1) / 2.0),
                      rng.standard_normal()))
    c1, c2, z = np.array(draws).T
    a11 = np.sqrt(c1)
    b11 = l11 * a11
    b21 = l21 * a11 + l22 * z
    b22 = l22 * np.sqrt(c2)
    return (b11 * b11 / n_samples, (b21 * b21 + b22 * b22) / n_samples,
            b11 * b21 / n_samples)


def _chi2_ppf(q: float, dof: int) -> float:
    from scipy.special import gammaincinv
    return 2.0 * float(gammaincinv(0.5 * dof, q))


def variance_interval(second_moment: float, n_samples: int):
    """68.27% (one-sigma) chi-squared interval of a raw Gaussian second
    moment.

    N vhat / v ~ chi^2_N for zero-mean Gaussian samples, giving exact
    asymmetric intervals (lo, hi) around the estimate.  The chi^2_N
    quantile is 2 P^-1(N/2, q), with P^-1 the inverse regularized lower
    incomplete gamma function.
    """
    alpha = 0.5 * (1.0 - 0.6827)
    lo = second_moment * n_samples / _chi2_ppf(1.0 - alpha, n_samples)
    hi = second_moment * n_samples / _chi2_ppf(alpha, n_samples)
    return lo, hi


@dataclass(frozen=True)
class VarianceEstimate:
    """A noise-subtracted variance with its asymmetric interval."""

    value: float
    lo: float
    hi: float


@dataclass(frozen=True)
class StateEstimate:
    """estimate_state output: recovered state plus per-axis statistics."""

    state: GaussianMechState
    n_m: float
    n_m_err: float
    v_sq: VarianceEstimate
    v_asq: VarianceEstimate
    axis_angle: float


def _moment_estimates(m11, m22, m12, n_samples: int, g_opt: float,
                      n_add_opt: float):
    """estimate_state's law on arrays of measured second moments.

    One entry per batch of n_samples pairs; returns (n_m, n_m_err, b2,
    axis_angle, intervals), intervals stacking the (value, lo, hi) of the
    (squeezed, anti-squeezed) principal variances along its first and last
    axes.  Both chi^2 quantiles come from one variance_interval call.
    """
    m11, m22, m12 = (np.asarray(m, dtype=float) for m in (m11, m22, m12))
    if not np.all(np.isfinite(m11 + m22)):
        raise FloatingPointError("quadrature second moments are not finite")
    sub = n_add_opt + 0.5
    v1 = m11 / g_opt - sub
    v2 = m22 / g_opt - sub
    c12 = m12 / g_opt
    n_m = (v1 + v2) / 2.0 - 0.5
    b2 = (v1 - v2) / 2.0 + 1j * c12

    def matrices(a, b, d):
        out = np.empty(a.shape + (2, 2))
        out[..., 0, 0], out[..., 1, 1] = a, d
        out[..., 0, 1] = out[..., 1, 0] = b
        return out

    eigvals, eigvecs = np.linalg.eigh(matrices(v1, c12, v2))
    axis_angle = np.arctan2(eigvecs[..., 1, 0], eigvecs[..., 0, 0])
    axis_angle = (axis_angle + math.pi / 2.0) % math.pi - math.pi / 2.0
    for v_sq_val in eigvals[..., 0][eigvals[..., 0] < 0.0].tolist():
        warnings.warn(
            f"noise-subtracted variance {v_sq_val:.4g} < 0 (statistically "
            "allowed near vacuum); reported unclamped",
            NegativeVarianceEstimate, stacklevel=3)

    # principal-axis measured moments for the intervals
    rot = np.swapaxes(eigvecs, -1, -2) @ matrices(m11, m12, m22) @ eigvecs
    lo, hi = variance_interval(rot.diagonal(axis1=-2, axis2=-1), n_samples)
    lo = lo / g_opt - sub
    hi = hi / g_opt - sub
    err = (hi - lo) / 2.0
    n_m_err = np.hypot(err[..., 0], err[..., 1]) / 2.0
    return n_m, n_m_err, b2, axis_angle, np.stack([eigvals, lo, hi])


def estimate_state(batch: QuadratureBatch) -> StateEstimate:
    """Invert a quadrature batch to mechanical second moments.

    <X^2> = <I^2>/g_opt - n_add_opt - 1/2 per axis and n_m = (<X1^2> +
    <X2^2>)/2 - 1/2; principal axes from the eigen-decomposition of the
    noise-subtracted covariance.  Negative variances near the vacuum are
    statistically allowed: they are flagged with a warning and reported,
    never clamped.  FloatingPointError when the second moments of the
    samples are not finite.  The sample-level counterpart of the
    thermalization run, which applies the same law (_moment_estimates) to
    moments drawn from their Wishart law.
    """
    samples = batch.samples
    n_m, n_m_err, b2, axis_angle, intervals = _moment_estimates(
        np.mean(samples[:, 0] ** 2), np.mean(samples[:, 1] ** 2),
        np.mean(samples[:, 0] * samples[:, 1]), batch.count, batch.g_opt,
        batch.n_add_opt)
    n_m = float(n_m)
    return StateEstimate(state=GaussianMechState(n=n_m, b2=complex(b2)),
                         n_m=n_m, n_m_err=float(n_m_err),
                         v_sq=VarianceEstimate(*intervals[:, 0].tolist()),
                         v_asq=VarianceEstimate(*intervals[:, 1].tolist()),
                         axis_angle=float(axis_angle))


@dataclass(frozen=True)
class AmplifierCalibration:
    g_opt: float
    n_add_opt: float
    g_opt_err: float
    n_add_err: float
    fit: LinearFitResult


def calibrate_amplifier(points) -> AmplifierCalibration:
    """Fit sigma^2 = G_opt (n_m + 1 + n_add_opt) to calibration points.

    points is a sequence of (n_m_known, variance_uv2); the slope is the
    conversion factor and intercept/slope - 1 the added noise.  Exactly two
    points give a zero-dof fit (warned); fewer, or degenerate n_m values,
    raise DegenerateDesign.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise DegenerateDesign("need at least two calibration points")
    n_m, var = pts[:, 0], pts[:, 1]
    span = n_m.max() / max(n_m.min(), 1e-30) if n_m.min() > 0 else math.inf
    if pts.shape[0] >= 3 and span < 10.0:
        warnings.warn("calibration points span less than a decade in n_m",
                      UserWarning, stacklevel=2)
    fit = linear_fit(n_m, var)
    g_opt = fit.slope
    if g_opt <= 0.0:
        raise DegenerateDesign("fitted conversion factor is not positive")
    n_add = fit.intercept / g_opt - 1.0
    var_s = fit.covariance[0, 0]
    var_i = fit.covariance[1, 1]
    cov_si = fit.covariance[0, 1]
    ratio = fit.intercept / g_opt
    n_add_err = abs(ratio) * math.sqrt(
        max(var_i / fit.intercept**2 + var_s / g_opt**2
            - 2.0 * cov_si / (fit.intercept * g_opt), 0.0)) \
        if fit.intercept != 0.0 else math.sqrt(var_i) / g_opt
    return AmplifierCalibration(g_opt=float(g_opt), n_add_opt=float(n_add),
                                g_opt_err=float(math.sqrt(var_s)),
                                n_add_err=float(n_add_err), fit=fit)


@dataclass(frozen=True)
class FreeEvolutionResult:
    times: np.ndarray
    n_est: np.ndarray
    n_err: np.ndarray
    gamma_th_fit: float          # short-time heating rate [Hz, cyclic]
    gamma_th_err: float
    gamma_m_fit: float           # exponential-fit relaxation rate [Hz]
    n_eq_fit: float
    t_one_quantum: float         # time for the fitted curve to reach 1 quantum
    relaxation_identified: bool  # the fitted rate lies inside its bracket


#: the relaxation-rate bracket in units of 1 / (2 pi t): from a decay of
#: 1e-6 over the longest time to one of 36 (e^-36 ~ 2e-16) by the shortest
#: positive time
_DECAY_BRACKET = (1e-6, 36.0)

#: log-spaced rates scanned before the golden-section search
_RATE_GRID = 64


def _relaxation_fit(times, n_est, n0: float):
    """Unweighted least-squares fit of n_eq + (n0 - n_eq) e^{-2 pi Gamma t}.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): the model is linear in n_eq, so for each rate Gamma the best
    n_eq is a closed-form projection, and the cost left is a function of
    Gamma alone.  It is scanned on _RATE_GRID log-spaced rates over the
    bracket 1e-6 / (2 pi t_max) <= Gamma <= 36 / (2 pi t_min), with t_max and
    t_min the longest and shortest positive times, and a golden-section
    search over log Gamma refines the best scanned rate between its
    neighbours.  Returns (n_eq, Gamma, identified).  identified is False
    when the best scanned rate is an end of the bracket: the cost keeps
    falling out of it, only the initial slope n_eq Gamma is pinned down, and
    the search ends within one grid step of that end.
    """
    positive = times[times > 0.0]
    bracket = (math.log(_DECAY_BRACKET[0] / (TWO_PI * positive.max())),
               math.log(_DECAY_BRACKET[1] / (TWO_PI * positive.min())))

    def profile(log_rate):
        exponent = -TWO_PI * math.exp(log_rate) * times
        rise = -np.expm1(exponent)
        target = n_est - n0 * np.exp(exponent)
        n_eq = (rise @ target) / (rise @ rise)
        resid = target - n_eq * rise
        return float(resid @ resid), float(n_eq)

    grid = np.linspace(*bracket, _RATE_GRID)
    best = int(np.argmin([profile(x)[0] for x in grid]))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, _RATE_GRID - 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f_left, f_right = profile(left)[0], profile(right)[0]
    while hi - lo > 1e-10:
        if f_left <= f_right:
            hi, right, f_right = right, left, f_left
            left = hi - shrink * (hi - lo)
            f_left = profile(left)[0]
        else:
            lo, left, f_left = left, right, f_right
            right = lo + shrink * (hi - lo)
            f_right = profile(right)[0]
    log_rate = left if f_left <= f_right else right
    return (profile(log_rate)[1], math.exp(log_rate),
            0 < best < _RATE_GRID - 1)


def free_evolution_experiment(prep: GaussianMechState, gamma_th: float,
                              gamma_m: float, n_m_th: float, times,
                              readout: AmplifierSpec, n_samples: int, seed,
                              linear_window: float = 2e-3) -> FreeEvolutionResult:
    """Simulated thermalization run: evolve, sample, estimate, fit.

    The states come from one finite-temperature squeezing.moments_evolve
    trajectory without pure dephasing; gamma_th, the expected
    (n_m_th + 1) gamma_m, is validated there, and the evolution uses
    gamma_m.  The estimate reads only the second moments of each time's
    batch of n_samples (I, Q) pairs, so time i draws that moment matrix
    from its exact Wishart law (_wishart_moments) on the stream
    default_rng([seed, i]), and all times are estimated in one pass by
    estimate_state's law.  A linear fit over
    t <= linear_window (two distinct times at least) gives the thermal
    decoherence rate.  An exponential fit over all times gives the
    relaxation rate, the equilibrium occupation and the time to reach one
    quantum.  It is variable projection (_relaxation_fit): n_eq in closed
    form for each rate, a scan of the rate bracket
    1e-6 / (2 pi t_max) <= Gamma_m <= 36 / (2 pi t_min) (longest and
    shortest positive times) and a golden-section search over the log rate.
    The fit is unweighted: n_err grows with n_est, so weights would lean on
    the early points that the linear fit already reads.  When the search
    ends at either end of the bracket the exponential is not identified by
    the data: relaxation_identified is False, and the values found there
    are reported as they are, never clamped.
    """
    from .squeezing import DephasingModel, moments_evolve
    times = np.asarray(times, dtype=float)
    if not (np.all(np.isfinite(times) & (times >= 0.0))
            and np.unique(times[times <= linear_window]).size >= 2):
        raise InvalidArgument("evolution times must be finite and >= 0, "
                              "two distinct ones in the linear window")
    traj = moments_evolve(DephasingModel(
        gamma_th=gamma_th, gamma_phi=0.0, initial=prep,
        mode="finite_temperature", gamma_m=gamma_m, n_m_th=n_m_th), times)
    moments = _wishart_moments(traj.n, traj.b2, readout.g_opt_uv2,
                               readout.n_add_opt, n_samples,
                               [[seed, idx] for idx in range(times.size)])
    n_est, n_err = _moment_estimates(*moments, n_samples, readout.g_opt_uv2,
                                     readout.n_add_opt)[:2]

    short = times <= linear_window
    lin = linear_fit(times[short], n_est[short], n_err[short]
                     if np.all(n_err[short] > 0) else None)
    gamma_th_fit = lin.slope / TWO_PI
    gamma_th_err = lin.slope_err / TWO_PI

    n0 = prep.n
    n_eq_fit, gamma_m_fit, identified = _relaxation_fit(times, n_est, n0)
    if n_eq_fit > 1.0 and n0 < 1.0:
        t_one = math.log1p((1.0 - n0) / (n_eq_fit - 1.0)) \
            / (TWO_PI * gamma_m_fit)
    else:
        t_one = math.inf

    return FreeEvolutionResult(
        times=times, n_est=n_est, n_err=n_err,
        gamma_th_fit=float(gamma_th_fit), gamma_th_err=float(gamma_th_err),
        gamma_m_fit=float(gamma_m_fit), n_eq_fit=float(n_eq_fit),
        t_one_quantum=float(t_one), relaxation_identified=identified)
