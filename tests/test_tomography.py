import cmath
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryodrum import squeezing, tomography
from cryodrum.core import TWO_PI
from cryodrum.errors import (
    DegenerateDesign,
    InvalidArgument,
    LowGainWarning,
    NegativeVarianceEstimate,
    UnphysicalVariances,
)
from cryodrum.tomography import GaussianMechState


def make_spec(**kwargs):
    base = dict(gamma_opt_b=85.08, gamma_amp=85.0, tau=22e-3, dt=1e-5,
                eta_kappa=0.8)
    base.update(kwargs)
    return tomography.AmplifierSpec(**base)


def exact_moment_batch(state, g_opt, n_add, n_samples, seed):
    """Batch whose *sample* second moments equal the model exactly."""
    batch = tomography.sample_quadratures(state, g_opt, n_add, n_samples,
                                          seed)
    target = g_opt * np.array([
        [state.var_x1 + n_add + 0.5, state.cov_x1x2],
        [state.cov_x1x2, state.var_x2 + n_add + 0.5]])
    samples = batch.samples
    empirical = samples.T @ samples / n_samples
    recolor = np.linalg.cholesky(target) \
        @ np.linalg.inv(np.linalg.cholesky(empirical))
    return tomography.QuadratureBatch(samples=samples @ recolor.T,
                                      g_opt=g_opt, n_add_opt=n_add)


# ---- states ----

def test_squeezed_thermal_moments():
    state = GaussianMechState.squeezed_thermal(0.4, 0.6)
    v_sq, v_asq = state.principal_variances
    assert v_sq == pytest.approx((0.4 + 0.5) * math.exp(-1.2), rel=1e-12)
    assert v_asq == pytest.approx((0.4 + 0.5) * math.exp(1.2), rel=1e-12)
    n_th, r = state.squeezed_thermal_params
    assert n_th == pytest.approx(0.4, rel=1e-12)
    assert r == pytest.approx(0.6, rel=1e-12)


def test_squeezed_thermal_params_flags_unphysical_state():
    # below the Heisenberg bound the parametrisation is refused, where it
    # used to come back clamped as n_th = -0.5 or r = inf
    for state in (GaussianMechState(n=-0.3),
                  GaussianMechState(n=0.1, b2=0.7 + 0j)):
        with pytest.raises(UnphysicalVariances):
            state.squeezed_thermal_params


def test_state_rotation_moves_axes():
    state = GaussianMechState.squeezed_thermal(0.1, 0.5)
    rotated = GaussianMechState.squeezed_thermal(0.1, 0.5, 0.3)
    assert rotated.squeezed_axis_angle == pytest.approx(0.3, abs=1e-12)
    assert rotated.n == state.n
    assert abs(rotated.b2) == pytest.approx(abs(state.b2), rel=1e-12)


# ---- amplification gain ----

def test_amplification_gain_db():
    # the 22 ms pulse at 85 Hz: 10 log10 exp(2 pi 85 Hz 22 ms) = 51.03 dB
    spec = make_spec()
    assert spec.gain == math.exp(TWO_PI * 85.0 * 22e-3)
    assert spec.gain_db == pytest.approx(51.03, abs=0.01)


def test_low_gain_warns():
    # 1 Hz for 1 ms is a power gain of 1.006, far below the 1e3 that the
    # large-gain approximations need
    with pytest.warns(LowGainWarning, match=r"gain 1\.01 < 1e3"):
        spec = make_spec(gamma_opt_b=1.0, gamma_amp=1.0, tau=1e-3)
    assert spec.gain == pytest.approx(1.006, abs=5e-4)


def test_matched_filter_snr_optimality():
    """Among exponential filters, gamma = Gamma_amp maximizes the SNR.

    Signal: the deterministic amplified envelope; noise: white chain noise.
    The discrete SNR(gamma) is evaluated in closed form on the sampled
    trace; the optimum must sit at Gamma_amp within the 1% grid.
    """
    spec = make_spec(tau=22e-3, dt=5e-5)
    dt = spec.dt
    t = (np.arange(int(round(spec.tau / dt))) + 0.5) * dt
    signal = np.exp(TWO_PI * spec.gamma_amp * t / 2.0)
    ratios = np.arange(0.70, 1.30, 0.01)
    snrs = []
    for ratio in ratios:
        rate = TWO_PI * spec.gamma_amp * ratio
        weights = np.exp(rate * t / 2.0)
        weights /= math.sqrt(float(np.sum(weights**2) * dt))
        gain = float(np.sum(weights * signal) * dt)
        noise_power = float(np.sum(weights**2) * dt) * dt  # white noise
        snrs.append(gain**2 / noise_power)
    best = ratios[int(np.argmax(snrs))]
    assert best == pytest.approx(1.0, abs=0.011)


# ---- sampling and estimation ----

def test_sampling_determinism():
    state = GaussianMechState.thermal(0.5)
    b1 = tomography.sample_quadratures(state, 1.13, 0.8, 500, seed=42)
    b2 = tomography.sample_quadratures(state, 1.13, 0.8, 500, seed=42)
    assert np.array_equal(b1.samples, b2.samples)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 4098, 12000])
@pytest.mark.parametrize("state", [
    GaussianMechState.squeezed_thermal(0.4, 0.6),
    GaussianMechState.squeezed_thermal(3.0, 0.9, theta=1.1)],
    ids=["axis", "rotated"])
def test_sampling_is_one_transform_of_the_normal_draws(n, state):
    # the in-place blocks give the bits of one whole-array product, across
    # block edges and a one-row remainder
    batch = tomography.sample_quadratures(state, 1.13, 0.8, n, seed=11)
    s11, s22, s12 = tomography._readout_covariance(
        state.var_x1, state.var_x2, state.cov_x1x2, 1.13, 0.8)
    chol = np.linalg.cholesky(np.array([[s11, s12], [s12, s22]]))
    expected = np.random.default_rng(11).standard_normal((n, 2)) @ chol.T
    assert batch.samples.tobytes() == expected.tobytes()


def test_sampling_takes_an_integral_float_count():
    # 12000.0 passes the count check, so it draws the 12000 rows
    state = GaussianMechState.squeezed_thermal(0.4, 0.6)
    whole = tomography.sample_quadratures(state, 1.13, 0.8, 12000, seed=3)
    batch = tomography.sample_quadratures(state, 1.13, 0.8, 12000.0, seed=3)
    assert batch.samples.shape == (12000, 2)
    assert batch.samples.tobytes() == whole.samples.tobytes()


def test_sampling_vacuum_variance():
    batch = tomography.sample_quadratures(GaussianMechState.vacuum(), 1.0,
                                          0.0, 40000, seed=9)
    var_i = float(np.mean(batch.samples[:, 0] ** 2))
    assert var_i == pytest.approx(1.0, abs=4.0 * 1.0 * math.sqrt(2 / 40000))


def test_sampling_reference_variance():
    batch = tomography.sample_quadratures(GaussianMechState.vacuum(), 1.13,
                                          0.80, 12000, seed=8)
    var_i = float(np.mean(batch.samples[:, 0] ** 2))
    assert var_i == pytest.approx(2.034, abs=4.0 * 2.034 * math.sqrt(2 / 12000))


#: chi^2_N quantiles at q = alpha and 1 - alpha, alpha = (1 - 0.6827)/2 as
#: doubles: the roots x of P(N/2, x/2) = q to 40 digits, from mpmath 1.3
#: (gammainc and findroot at 60 digits, residual below 1e-45)
CHI2_QUANTILES = {
    1: ("0.04006681511396316195775147773274215801237",
        "1.987046849577619458623876871917032296210"),
    2: ("0.3454950687193629086417335429380612288726",
        "3.682109521905865489403874795315937232812"),
    3: ("0.8338691276110257627493079297400436031493",
        "5.186339852148483970304174020497340059664"),
    17: ("11.28537516640160432134051622366824905247",
         "22.71824475185566230830315256199154391626"),
    500: ("468.3977093520324668116528154009116328709",
          "531.6024671575014199640987402567840651632"),
    12000: ("11845.08163715428212733086675090058329491",
            "12154.91842568652118891281204391970560777"),
    400000: ("399105.5541624059439563482696824989915934",
             "400894.4458956450139021764401435388733003"),
}


def _ulps(x: float, reference: str) -> Decimal:
    return abs(Decimal(x) - Decimal(reference)) / Decimal(math.ulp(x))


def test_variance_interval_matches_chi2_quantiles():
    # the chi^2_N quantile is 2 P^-1(N/2, q), P the regularized lower
    # incomplete gamma function: each lies within 1 ulp of the 40-digit
    # reference, or no further from it than scipy's gammaincinv; and P
    # itself takes each quantile back to its probability
    from scipy.special import gammainc, gammaincinv
    alpha = 0.5 * (1.0 - 0.6827)
    for n, (lower_ref, upper_ref) in CHI2_QUANTILES.items():
        lo, hi = tomography.variance_interval(1.3, n)
        for q, reference, bound in ((1.0 - alpha, upper_ref, lo),
                                    (alpha, lower_ref, hi)):
            quantile = tomography._chi2_ppf(q, n)
            assert bound == 1.3 * n / quantile
            scipy_ulps = _ulps(2.0 * float(gammaincinv(0.5 * n, q)),
                               reference)
            assert _ulps(quantile, reference) <= max(1, scipy_ulps), (n, q)
            assert gammainc(0.5 * n, 0.5 * quantile) == pytest.approx(
                q, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 300, 12000])
def test_chi2_quantile_inverts_gammainc_off_one_sigma(n):
    # tails and the median reach both evaluations of P: Temme's expansion
    # near the centre at dof >= 40 and the 40-digit series elsewhere
    from scipy.special import gammainc
    for q in (1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6):
        quantile = tomography._chi2_ppf(q, n)
        assert gammainc(0.5 * n, 0.5 * quantile) == pytest.approx(
            q, rel=1e-12)


@pytest.mark.parametrize("moment,n_samples", [
    (-1.0, 100), (math.nan, 100), (math.inf, 100), ([1.0, -1e-300], 100),
    (1.0, 0), (1.0, 2.5), (1.0, math.nan)])
def test_variance_interval_rejects_bad_input(moment, n_samples):
    # a negative moment gave an inverted, negative interval, and n < 1 NaN
    with pytest.raises(InvalidArgument):
        tomography.variance_interval(moment, n_samples)


@pytest.mark.parametrize("g_opt,n_add", [
    (0.0, 0.8), (-1.13, 0.8), (math.nan, 0.8), (math.inf, 0.8),
    (1.13, -0.1), (1.13, math.nan), (1.13, math.inf)])
def test_readout_is_checked_before_any_arithmetic(g_opt, n_add):
    # g_opt <= 0 made the covariance indefinite, so numpy's LinAlgError
    # escaped from the Cholesky factor first; a NaN passed every check
    state = GaussianMechState.squeezed_thermal(0.4, 0.6)
    name = "g_opt" if n_add == 0.8 else "n_add_opt"
    with pytest.raises(InvalidArgument, match=f"^{name} = "):
        tomography.sample_quadratures(state, g_opt, n_add, 10, seed=7)
    with pytest.raises(InvalidArgument, match=f"^{name} = "):
        tomography._wishart_moments(np.array([state.n]),
                                    np.array([state.b2]), g_opt, n_add, 10,
                                    [[7, 0]])


def test_estimate_exact_inversion():
    batch = exact_moment_batch(GaussianMechState.vacuum(), 1.13, 0.80, 2000,
                               seed=1)
    est = tomography.estimate_state(batch)
    assert est.n_m == pytest.approx(0.0, abs=1e-9)


def test_estimate_added_noise_bias():
    state = GaussianMechState.thermal(1.3)
    batch = exact_moment_batch(state, 1.13, 0.80, 2000, seed=2)
    biased = tomography.QuadratureBatch(samples=batch.samples, g_opt=1.13,
                                        n_add_opt=0.90)
    est_true = tomography.estimate_state(batch)
    est_biased = tomography.estimate_state(biased)
    assert est_biased.n_m - est_true.n_m == pytest.approx(-0.1, abs=1e-9)


def test_estimate_negative_variance_flagged():
    state = GaussianMechState.vacuum()
    rng_seed = 0
    batch = exact_moment_batch(state, 1.0, 0.0, 500, seed=rng_seed)
    # shrink the samples so the subtracted variance goes negative
    shrunk = tomography.QuadratureBatch(samples=batch.samples * 0.6,
                                        g_opt=1.0, n_add_opt=0.0)
    with pytest.warns(NegativeVarianceEstimate):
        est = tomography.estimate_state(shrunk)
    assert est.v_sq.value < 0.0


def test_estimator_consistency_property(rng):
    # recovered variances within 4 standard errors across random states
    for _ in range(100):
        n_th = rng.uniform(0.0, 3.0)
        r = rng.uniform(0.0, 1.0)
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        state = GaussianMechState.squeezed_thermal(n_th, r, theta)
        batch = tomography.sample_quadratures(state, 1.0, 0.3, 10000,
                                              seed=rng.integers(2**32))
        est = tomography.estimate_state(batch)
        v_sq, v_asq = state.principal_variances
        se_sq = (v_sq + 0.8) * math.sqrt(2.0 / 10000)
        se_asq = (v_asq + 0.8) * math.sqrt(2.0 / 10000)
        assert est.v_sq.value == pytest.approx(v_sq, abs=4.0 * se_sq)
        assert est.v_asq.value == pytest.approx(v_asq, abs=4.0 * se_asq)


def test_phase_insensitivity(rng):
    state = GaussianMechState.squeezed_thermal(0.4, 0.6)
    theta = 0.7
    batch0 = tomography.sample_quadratures(state, 1.0, 0.2, 20000, seed=21)
    batch1 = tomography.sample_quadratures(
        GaussianMechState.squeezed_thermal(0.4, 0.6, theta), 1.0, 0.2, 20000,
        seed=22)
    est0 = tomography.estimate_state(batch0)
    est1 = tomography.estimate_state(batch1)
    se = 4.0 * (est0.v_asq.hi - est0.v_asq.lo)
    assert est1.v_sq.value == pytest.approx(est0.v_sq.value, abs=se)
    assert est1.v_asq.value == pytest.approx(est0.v_asq.value, abs=se)
    assert est1.n_m == pytest.approx(est0.n_m, abs=se)
    delta = (est1.axis_angle - est0.axis_angle) % math.pi
    assert min(delta, math.pi - delta) % math.pi == pytest.approx(theta,
                                                                  abs=0.05)


@settings(max_examples=60, deadline=None)
@given(n_th=st.floats(0.0, 3.0), r=st.floats(0.0, 1.2),
       phase=st.floats(-math.pi, math.pi),
       theta=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1))
def test_estimate_state_rotation_equivariance(n_th, r, phase, theta, seed):
    # turning every (I, Q) pair by theta turns <b^2> by e^{2i theta} and
    # leaves n_m and the principal variances where they are
    state = GaussianMechState.squeezed_thermal(n_th, r, phase)
    batch = tomography.sample_quadratures(state, 1.13, 0.8, 500, seed)
    c, s = math.cos(theta), math.sin(theta)
    turned = tomography.QuadratureBatch(
        samples=batch.samples @ np.array([[c, -s], [s, c]]).T, g_opt=1.13,
        n_add_opt=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeVarianceEstimate)
        est = tomography.estimate_state(batch)
        est_turned = tomography.estimate_state(turned)
    tol = 1e-12 * (1.0 + est.v_asq.value)
    assert abs(est_turned.state.b2 - est.state.b2 * cmath.exp(2j * theta)) \
        <= tol
    assert est_turned.n_m == pytest.approx(est.n_m, abs=tol)
    assert est_turned.v_sq.value == pytest.approx(est.v_sq.value, abs=tol)
    assert est_turned.v_asq.value == pytest.approx(est.v_asq.value, abs=tol)


def test_units_roundtrip():
    # uV^2 <-> quanta conversions are exact inverses
    g_opt = 1.13
    value_quanta = 0.37
    uv2 = value_quanta * g_opt
    assert uv2 / g_opt == pytest.approx(value_quanta, rel=1e-15)


# ---- calibration ----

def test_calibrate_amplifier_exact():
    g_true, n_add_true = 1.13, 0.80
    n_m = np.array([0.1, 0.5, 2.0, 8.0])
    var = g_true * (n_m + 1.0 + n_add_true)
    cal = tomography.calibrate_amplifier(np.column_stack([n_m, var]))
    assert cal.g_opt == pytest.approx(g_true, rel=1e-9)
    assert cal.n_add_opt == pytest.approx(n_add_true, rel=1e-9)


def test_calibrate_amplifier_rank():
    with pytest.raises(DegenerateDesign):
        tomography.calibrate_amplifier([(1.0, 2.0)])
    with pytest.raises(DegenerateDesign), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tomography.calibrate_amplifier([(1.0, 2.0), (1.0, 2.1), (1.0, 1.9)])
    with pytest.warns(UserWarning):
        cal = tomography.calibrate_amplifier([(0.1, 1.2), (1.0, 2.2)])
    assert cal.fit.dof == 0


# ---- free evolution ----

def free_trajectory(prep, times, gamma_m, n_m_th):
    """The finite-temperature moments free_evolution_experiment samples."""
    return squeezing.moments_evolve(squeezing.DephasingModel(
        gamma_th=(n_m_th + 1.0) * gamma_m, gamma_phi=0.0, initial=prep,
        gamma_m=gamma_m, n_m_th=n_m_th), times)


def test_evolve_moments_equilibrium():
    traj = free_trajectory(GaussianMechState.vacuum(), [1e3], gamma_m=0.08,
                           n_m_th=255.0)
    assert traj.n[0] == pytest.approx(255.0, rel=1e-12)
    assert abs(traj.b2[0]) == 0.0


def test_free_evolution_recovers_heating(params):
    gamma_th = 20.5
    n_m_th = 255.0
    gamma_m = gamma_th / (n_m_th + 1.0)
    readout = make_spec(g_opt_uv2=1.13, n_add_opt=0.80)
    times = np.linspace(0.0, 2e-3, 41)
    result = tomography.free_evolution_experiment(
        GaussianMechState.vacuum(), gamma_th, gamma_m, n_m_th, times,
        readout, n_samples=12000, seed=77)
    assert result.gamma_th_fit == pytest.approx(
        gamma_th, abs=4.0 * result.gamma_th_err)


def criterion_2_run():
    """The thermalization run of reproduce's criterion 2."""
    from cryodrum.reproduce import REFERENCE_N_M_TH, SUITE_SEED
    gamma_m = 20.5 / (REFERENCE_N_M_TH + 1.0)
    readout = make_spec(gamma_opt_b=85.0 + gamma_m, g_opt_uv2=1.13,
                        n_add_opt=0.80)
    times = np.concatenate([np.linspace(0.0, 2e-3, 161),
                            np.linspace(2.5e-3, 12e-3, 25)])
    return tomography.free_evolution_experiment(
        GaussianMechState.vacuum(), 20.5, gamma_m, REFERENCE_N_M_TH, times,
        readout, n_samples=12000, seed=SUITE_SEED)


def test_relaxation_fit_matches_least_squares():
    # variable projection minimises the cost that least_squares(lm) did;
    # the cost is flat along n_eq Gamma = const, so the two land 2e-5 apart
    # in (n_eq, Gamma) and 2e-7 apart in T1
    from scipy.optimize import least_squares
    result = criterion_2_run()
    times, n_est = result.times, result.n_est
    fit = least_squares(
        lambda p: p[0] - p[0] * np.exp(-TWO_PI * p[1] * times) - n_est,
        x0=[255.0, 20.5 / 256.0], method="lm")
    n_eq, gamma_m = fit.x
    t_one = math.log(n_eq / (n_eq - 1.0)) / (TWO_PI * gamma_m)
    assert result.relaxation_identified
    assert result.n_eq_fit == pytest.approx(n_eq, rel=1e-4)
    assert result.gamma_m_fit == pytest.approx(gamma_m, rel=1e-4)
    assert result.t_one_quantum == pytest.approx(t_one, rel=1e-6)


def test_relaxation_fit_recovers_an_exact_exponential():
    times = np.linspace(0.0, 12e-3, 49)
    n_est = 3.0 + (0.2 - 3.0) * np.exp(-TWO_PI * 40.0 * times)
    n_eq, gamma_m, identified = tomography._relaxation_fit(times, n_est, 0.2)
    assert identified
    assert n_eq == pytest.approx(3.0, rel=1e-6)
    assert gamma_m == pytest.approx(40.0, rel=1e-6)


@pytest.mark.parametrize("end", ["slow", "fast"])
def test_relaxation_fit_flags_a_bracket_end(end):
    # a straight line has no curvature to fix the rate, and a step reaches
    # equilibrium before the first positive time: the search runs to the
    # bracket end, and the values found there, within one of the 63 grid
    # steps of ln(36e6 t_max / t_min) / 63 = 0.338, come back flagged
    times = np.linspace(0.0, 12e-3, 49)
    if end == "slow":
        n_est = 1e4 * times
        bound = 1e-6 / (TWO_PI * 12e-3)
    else:
        n_est = np.where(times > 0.0, 5.0, 0.0)
        bound = 36.0 / (TWO_PI * 12e-3 / 48)
    n_eq, gamma_m, identified = tomography._relaxation_fit(times, n_est, 0.0)
    assert not identified
    assert abs(math.log(gamma_m / bound)) <= 0.338
    if end == "slow":
        assert TWO_PI * n_eq * gamma_m == pytest.approx(1e4, rel=1e-5)
    else:
        assert n_eq == pytest.approx(5.0, rel=1e-12)


def test_counter_based_seeding_contract():
    # per-point streams depend only on (seed, point index): recomputing one
    # point's moment draw standalone reproduces the experiment's estimate
    # for that point
    gamma_th, n_m_th = 20.5, 255.0
    gamma_m = gamma_th / (n_m_th + 1.0)
    readout = make_spec(g_opt_uv2=1.13, n_add_opt=0.80)
    times = np.linspace(0.0, 2e-3, 5)
    result = tomography.free_evolution_experiment(
        GaussianMechState.vacuum(), gamma_th, gamma_m, n_m_th, times,
        readout, n_samples=300, seed=123)
    traj = free_trajectory(GaussianMechState.vacuum(), times, gamma_m,
                           n_m_th)
    moments = tomography._wishart_moments(traj.n[3:4], traj.b2[3:4], 1.13,
                                          0.80, 300, [[123, 3]])
    n_m, n_m_err = tomography._moment_estimates(*moments, 300, 1.13, 0.80)[:2]
    assert (n_m[0], n_m_err[0]) == (result.n_est[3], result.n_err[3])


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance between the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                         - np.searchsorted(b, grid, side="right") / b.size))


@pytest.mark.parametrize("n_samples", [12000, 2])
def test_wishart_moments_match_sample_moments(n_samples):
    # N M ~ Wishart(N, Sigma): over 4000 per-point streams the mean of each
    # moment sits within 6 standard errors of Sigma and its variance within
    # 6 standard errors of the exact Wishart variance
    state = GaussianMechState.squeezed_thermal(0.4, 0.6, theta=0.3)
    g_opt, n_add, streams = 1.13, 0.8, 4000
    sigma = g_opt * np.array([
        [state.var_x1 + n_add + 0.5, state.cov_x1x2],
        [state.cov_x1x2, state.var_x2 + n_add + 0.5]])
    m11, m22, m12 = tomography._wishart_moments(
        np.full(streams, state.n), np.full(streams, state.b2), g_opt, n_add,
        n_samples, [[2024, idx] for idx in range(streams)])
    for m, mean, var in (
            (m11, sigma[0, 0], 2.0 * sigma[0, 0] ** 2 / n_samples),
            (m22, sigma[1, 1], 2.0 * sigma[1, 1] ** 2 / n_samples),
            (m12, sigma[0, 1], (sigma[0, 0] * sigma[1, 1] + sigma[0, 1] ** 2)
             / n_samples)):
        centred = m - m.mean()
        sample_var = centred @ centred / (streams - 1)
        var_err = math.sqrt((np.mean(centred ** 4) - sample_var ** 2)
                            / streams)
        assert abs(m.mean() - mean) <= 6.0 * math.sqrt(var / streams)
        assert abs(sample_var - var) <= 6.0 * var_err

    # n_m from the moment draw against n_m from real sample batches: the
    # two-sample KS distance stays below its 1e-6 critical value
    # sqrt(-ln(5e-7) / 2) sqrt(2 / K)
    batches = 2000 if n_samples < 100 else 400
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeVarianceEstimate)
        moment_n = tomography._moment_estimates(
            m11[:batches], m22[:batches], m12[:batches], n_samples, g_opt,
            n_add)[0]
        sample_n = [tomography.estimate_state(tomography.sample_quadratures(
            state, g_opt, n_add, n_samples, seed=[7, idx])).n_m
            for idx in range(batches)]
    assert ks_statistic(moment_n, sample_n) \
        <= math.sqrt(-math.log(5e-7) / 2.0) * math.sqrt(2.0 / batches)
