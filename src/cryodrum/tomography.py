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
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI
from .errors import (COUNT, FINITE, FRACTION, NON_NEGATIVE, POSITIVE,
                     DegenerateDesign, InvalidArgument, LowGainWarning,
                     NegativeVarianceEstimate, UnphysicalVariances, require)
from .fitting import LinearFitResult, linear_fit


def squeezed_thermal_from_variances(v_sq: float, v_asq: float):
    """(n_th, r) of the squeezed thermal state with the given axis variances.

    n_th = sqrt(v_sq v_asq) - 1/2 and r = -ln(v_sq/v_asq)/4; the product
    must satisfy the Heisenberg bound v_sq v_asq >= 1/4.
    """
    require(FINITE, v_sq=v_sq, v_asq=v_asq)
    if v_sq > v_asq:
        raise InvalidArgument("expected v_sq <= v_asq")
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
        require(NON_NEGATIVE, n_th=n_th)
        require(FINITE, r=r, theta=theta)
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
    length and dt the sample step [s].  g_opt_uv2 / n_add_opt are the
    *calibrated* conversion factor [uV^2/quanta] and input-referred added
    noise of the whole amplification readout.
    """

    gamma_opt_b: float
    gamma_amp: float
    tau: float
    dt: float
    eta_kappa: float = 1.0
    g_opt_uv2: float = 1.0
    n_add_opt: float = 0.0

    def __post_init__(self):
        require(NON_NEGATIVE, gamma_opt_b=self.gamma_opt_b,
                n_add_opt=self.n_add_opt)
        require(FINITE, gamma_amp=self.gamma_amp)
        require(POSITIVE, tau=self.tau, dt=self.dt, g_opt_uv2=self.g_opt_uv2)
        require(FRACTION, eta_kappa=self.eta_kappa)
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
            raise InvalidArgument("samples must have shape (N >= 1, 2)")
        require(POSITIVE, g_opt=self.g_opt)
        require(NON_NEGATIVE, n_add_opt=self.n_add_opt)

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
    require(POSITIVE, g_opt=g_opt)
    require(NON_NEGATIVE, n_add_opt=n_add_opt)
    s11 = g_opt * (var_x1 + n_add_opt + 0.5)
    s22 = g_opt * (var_x2 + n_add_opt + 0.5)
    s12 = g_opt * cov_x1x2
    if not np.all(np.isfinite(s11) & np.isfinite(s22) & np.isfinite(s12)):
        raise FloatingPointError("quadrature covariance is not finite")
    return s11, s22, s12


#: rows of the sampler's in-place transform per matmul call.  A one-row
#: block would take numpy's vector-matrix path, whose rounding differs from
#: the matrix product's, so a one-row remainder joins the block before it.
_SAMPLE_BLOCK = 4096


def sample_quadratures(state: GaussianMechState, g_opt: float,
                       n_add_opt: float, n_samples: int,
                       seed) -> QuadratureBatch:
    """Draw N zero-mean (I, Q) pairs for a state seen through the amplifier.

    <I^2> = g_opt (var_x1 + n_add_opt + 1/2), same for Q/X2, and the I-Q
    correlation is g_opt Im<b^2>.  Deterministic per seed: the draws z of
    default_rng(seed) become z @ L.T in place, L the Cholesky factor.
    FloatingPointError when that covariance is not finite.
    """
    require(COUNT, n_samples=n_samples)
    s11, s22, s12 = _readout_covariance(state.var_x1, state.var_x2,
                                        state.cov_x1x2, g_opt, n_add_opt)
    chol_t = np.linalg.cholesky(np.array([[s11, s12], [s12, s22]])).T
    rng = np.random.default_rng(seed)
    n_samples = int(n_samples)
    samples = rng.standard_normal((n_samples, 2))
    for block in np.split(samples, range(_SAMPLE_BLOCK, n_samples - 1,
                                         _SAMPLE_BLOCK)):
        np.matmul(block, chol_t, out=block)
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
    those of sample_quadratures, and LinAlgError for a Sigma that is not
    positive definite.
    """
    require(COUNT, n_samples=n_samples)
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


def _temme_coefficients(rows: int, length: int):
    """Taylor coefficients d[k][n] of Temme's c_k(eta) = sum_n d_kn eta^n.

    mu = x/a - 1 solves eta^2 / 2 = mu - log(1 + mu) with the sign of eta,
    so mu mu' = eta (1 + mu) gives its coefficients m_n, and h = eta / mu
    follows by series division.  Then c_0 = 1/mu - 1/eta and
    c_k = c_{k-1}' / eta + (-1)^k g_k / mu (DLMF 8.12.8), where the
    Stirling coefficient g_k is the one that cancels the pole at eta = 0:
    d_kn = (n + 2) d_{k-1,n+2} - d_{k-1,1} h_{n+1}.  Float arithmetic; the
    rounding it leaves in the later coefficients sits far below 1e-17 of
    the sum at a >= _TEMME_MIN_A and |mu| <= _TEMME_SPAN.
    """
    size = length + 2 * rows + 1
    m = [0.0, 1.0]
    for n in range(2, size + 1):
        m.append((m[n - 1] - sum((n - i + 1) * m[i] * m[n - i + 1]
                                 for i in range(2, n))) / (n + 1))
    h = [1.0]
    for n in range(1, size):
        h.append(-sum(m[j + 1] * h[n - j] for j in range(1, n + 1)))
    d = [h[1:]]
    for _ in range(1, rows):
        prev = d[-1]
        d.append([(n + 2) * prev[n + 2] - prev[1] * h[n + 1]
                  for n in range(len(prev) - 2)])
    return tuple(tuple(row[:length]) for row in d)


#: Temme's expansion serves a = dof/2 >= _TEMME_MIN_A at |x/a - 1| <=
#: _TEMME_SPAN, where 10 terms of 18 coefficients reach the double
#: precision; the series serves every other point
_TEMME_MIN_A = 20.0
_TEMME_SPAN = 0.3
_TEMME = _temme_coefficients(10, 18)
_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510"


def _log1pmx(t: float) -> float:
    """log(1 + t) - t, accurate at small |t| too: with u = t / (2 + t),
    log(1 + t) = 2 atanh(u), so log(1 + t) - t = -t u + 2 (u^3/3 + u^5/5
    + ...)."""
    if not -0.5 <= t <= 0.5:
        return math.log1p(t) - t
    u = t / (2.0 + t)
    u2 = u * u
    total, power, k = 0.0, u * u2, 3.0
    while power != 0.0 and abs(power) > 1e-17 * k * abs(total):
        total += power / k
        power *= u2
        k += 2.0
    return 2.0 * total - t * u


def _temme_excess(a: float, mu: float, q: float) -> float:
    """P(a, a (1 + mu)) - q by Temme's uniform expansion (DLMF 8.12.3-4):
    Q = erfc(eta sqrt(a/2)) / 2 + e^{-a eta^2/2} / sqrt(2 pi a)
    sum_k c_k(eta) a^-k, eta^2 / 2 = mu - log(1 + mu).  Whichever of P and
    Q is the smaller tail is formed directly; eta^n is kept to n ~ 39 /
    log(3.5 / |eta|), the radius of convergence being 2 sqrt(pi)."""
    eta = math.copysign(math.sqrt(-2.0 * _log1pmx(mu)), mu)
    size = int(39.2 / math.log(3.5 / abs(eta))) + 1 if eta else 1
    powers = list(itertools.accumulate(itertools.repeat(eta, size),
                                       operator.mul, initial=1.0))
    total, scale = 0.0, 1.0
    for row in _TEMME:
        term = scale * sum(map(operator.mul, row, powers))
        total += term
        if abs(term) <= 1e-16 * abs(total):
            break
        scale /= a
    tail = (math.exp(-0.5 * a * eta * eta) / math.sqrt(2.0 * math.pi * a)
            * total)
    y = eta * math.sqrt(0.5 * a)
    if eta < 0.0:
        return 0.5 * math.erfc(-y) - tail - q
    return (1.0 - q) - (0.5 * math.erfc(y) + tail)


def _series_sum(a, x, front, tol):
    """front sum_k x^k / ((a + 1) ... (a + k)), in floats or in Decimals."""
    total = term = front
    k = a
    while term > tol * total:
        k += 1
        term = term * x / k
        total += term
    return total


def _series_excess(dof: int, x: float, q: float, exact: bool) -> float:
    """P(dof/2, x) - q from the series P(a, x) = x^a e^-x / Gamma(a + 1)
    sum_k x^k / ((a + 1) ... (a + k)): in floats, with the prefactor from
    lgamma (about 1e-14 relative), or, when exact, in 40-digit decimal
    arithmetic.  There, for an even dof, x^a is a power and Gamma(a + 1) a
    factorial; for an odd one both gain a square root: x^a = x^(a - 1/2)
    sqrt(x) and Gamma(a + 1) = sqrt(pi) (1/2)(3/2)...(a)."""
    if not exact:
        a = 0.5 * dof
        front = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
        return _series_sum(a, x, front, 1e-17) - q
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 40
        half, odd = divmod(dof, 2)
        x = Decimal(x)
        front = x ** half * (-x).exp()
        if odd:
            front *= (x / Decimal(_PI_DIGITS)).sqrt()
            for j in range(half + 1):
                front /= Decimal(2 * j + 1) / 2
        else:
            front /= math.factorial(half)
        total = _series_sum(Decimal(dof) / 2, x, front, Decimal("1e-42"))
        return float(total - Decimal(q))


def _normal_ppf(p: float) -> float:
    """Standard normal quantile: Abramowitz & Stegun 26.2.23 (|error| <
    4.5e-4) and one Halley step on erfc."""
    s = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (
        1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
    if p < 0.5:
        z = -z
    u = ((0.5 * math.erfc(-z / math.sqrt(2.0)) - p)
         * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z))
    return z - u / (1.0 + 0.5 * z * u)


def _chi2_ppf(q: float, dof: int) -> float:
    """The chi^2_dof quantile 2 x, P(dof/2, x) = q, for 0 < q < 1.

    Halley steps on P (DiDonato & Morris, ACM TOMS 12, 377 (1986); Gil,
    Segura & Temme, SIAM J. Sci. Comput. 34, A2965 (2012)) from the
    Wilson-Hilferty start, or from x = (q / c)^(1/a) for a = dof/2 <= 1.
    P - q comes from Temme's uniform expansion (_temme_excess) for
    a >= _TEMME_MIN_A near the centre, else from the series
    (_series_excess): in floats until the steps converge, then once more
    in 40-digit decimals.  The steps stop once Halley's cubic error
    |f'''/6f' - (f''/2f')^2| step^3 is below 1e-18 x: Temme's form is
    evaluated once at the one-sigma q for dof >= 2000, twice down to dof
    40.  At the one-sigma q and 74 dof from 1 to 3e6 the quantiles were
    within 0.58 ulp of a 40-digit reference, and gammaincinv within 5.6.
    """
    a = 0.5 * dof
    if a > 1.0:
        x = a * (1.0 - 1.0 / (9.0 * a)
                 + _normal_ppf(q) / (3.0 * math.sqrt(a))) ** 3
        x = max(x, 1e-3)
    else:
        cut = 1.0 - a * (0.253 + a * 0.12)
        x = ((q / cut) ** (1.0 / a) if q < cut
             else 1.0 - math.log1p(-(q - cut) / (1.0 - cut)))
    log_gamma = math.lgamma(a)
    # at large dof the series only serves the far tails, where its float
    # prefactor would underflow: decimals from the first step
    exact = a >= _TEMME_MIN_A
    for _ in range(40):
        mu = (x - a) / a
        if a >= _TEMME_MIN_A and abs(mu) <= _TEMME_SPAN:
            excess = _temme_excess(a, mu, q)
        else:
            excess = _series_excess(dof, x, q, exact)
        newton = excess / math.exp((a - 1.0) * math.log(x) - x - log_gamma)
        bend = (a - 1.0) / x - 1.0          # P'' / P'
        step = newton / (1.0 - 0.5 * min(1.0, newton * bend))
        x -= step
        if x <= 0.0:
            x = 0.5 * (x + step)
        elif ((bend * bend / 12.0 + abs(a - 1.0) / (6.0 * x * x))
              * abs(step) ** 3 <= 1e-18 * x):
            if exact:
                break
            exact = True
    return 2.0 * x


def variance_interval(second_moment, n_samples: int):
    """68.27% (one-sigma) chi-squared interval of a raw Gaussian second
    moment.

    N vhat / v ~ chi^2_N for zero-mean Gaussian samples, giving exact
    asymmetric intervals (lo, hi) around the estimate.  The chi^2_N
    quantile is 2 P^-1(N/2, q), with P^-1 the inverse regularized lower
    incomplete gamma function, solved by Halley steps on P in Temme's
    uniform expansion (Temme, SIAM J. Math. Anal. 10, 757 (1979); DLMF
    8.12) and, at small dof, its power series (_chi2_ppf).  second_moment
    may be an array.
    InvalidArgument for a second moment that is negative or not finite,
    and for an n_samples that is not an integer >= 1.
    """
    require(NON_NEGATIVE,
            second_moment=np.asarray(second_moment, dtype=float))
    require(COUNT, n_samples=n_samples)
    alpha = 0.5 * (1.0 - 0.6827)
    lo = second_moment * n_samples / _chi2_ppf(1.0 - alpha, int(n_samples))
    hi = second_moment * n_samples / _chi2_ppf(alpha, int(n_samples))
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

    # principal-axis measured moments for the intervals: means of squares,
    # so a rank-one batch (N = 1) leaves only rounding below 0
    rot = np.swapaxes(eigvecs, -1, -2) @ matrices(m11, m12, m22) @ eigvecs
    lo, hi = variance_interval(
        np.maximum(rot.diagonal(axis1=-2, axis2=-1), 0.0), n_samples)
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
    require(FINITE, points=pts)
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
    require(NON_NEGATIVE, times=times)
    window = times[times <= linear_window]
    if not (window.size and window.min() < window.max()):
        raise InvalidArgument("need two distinct evolution times in the "
                              "linear window")
    traj = moments_evolve(DephasingModel(
        gamma_th=gamma_th, gamma_phi=0.0, initial=prep, gamma_m=gamma_m,
        n_m_th=n_m_th), times)
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
