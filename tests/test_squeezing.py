import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from cryodrum import squeezing, tomography
from cryodrum.core import TWO_PI
from cryodrum.errors import (
    InvalidArgument,
    NonPositiveRate,
    TruncationNonConvergence,
    UnphysicalVariances,
    UnstableSqueeze,
)
from cryodrum.tomography import GaussianMechState


# ---- drive targets and limits ----

def test_squeeze_target_vacuum_limit():
    drive = squeezing.squeeze_drive(75.0, 0.0, kappa=250e3)
    r, v_sq, v_asq = squeezing.squeeze_target(drive)
    assert r == 0.0
    assert v_sq == 0.5
    assert v_asq == 0.5


def test_squeeze_target_minus5db():
    gamma_r = 75.0
    gamma_b = gamma_r * 10 ** (-0.5)
    drive = squeezing.squeeze_drive(gamma_r, gamma_b, kappa=250e3)
    assert drive.ratio_db == pytest.approx(-5.0, abs=1e-12)
    r, v_sq, _ = squeezing.squeeze_target(drive)
    assert r == pytest.approx(0.636251, abs=1e-5)
    assert 10.0 * math.log10(2.0 * v_sq) == pytest.approx(-5.527, abs=5e-3)
    expected_g = math.sqrt(250e3 / 4.0) * math.sqrt(gamma_r - gamma_b)
    assert drive.coupling_g == pytest.approx(expected_g, rel=1e-12)


def test_squeeze_stability_guard():
    with pytest.raises(UnstableSqueeze):
        squeezing.squeeze_drive(75.0, 75.0, kappa=250e3)


def test_squeeze_ratio_underflow_is_flagged():
    # gamma_b > 0 whose ratio to gamma_r rounds to 0 has no dB value
    with pytest.raises(NonPositiveRate, match="underflows"):
        squeezing.squeeze_drive(75.0, 5e-324, kappa=250e3)
    # a subnormal ratio is still a number
    drive = squeezing.squeeze_drive(75.0, 1e-310, kappa=250e3)
    assert drive.ratio_db == pytest.approx(-3118.75, abs=0.01)


def test_squeeze_parameter_monotonicity():
    ratios = np.linspace(0.01, 0.99, 37)
    values = [squeezing.squeeze_drive(75.0, 75.0 * x, kappa=250e3).r_target
              for x in ratios]
    assert np.all(np.diff(values) > 0.0)


def test_squeezing_limit_values():
    assert squeezing.squeezing_limit(0.0, 1.0) == 0.0
    assert squeezing.squeezing_limit(255.0, 2561.0) == pytest.approx(-3.50,
                                                                     abs=5e-3)
    # the measured -2.7 dB sits above (shallower than) this bound
    assert squeezing.squeezing_limit(255.0, 2561.0) <= -2.7


def test_squeezed_thermal_inversion():
    n_th, r = tomography.squeezed_thermal_from_variances(0.27, 3.27)
    assert n_th == pytest.approx(0.4396, abs=1e-4)
    assert r == pytest.approx(0.6236, abs=1e-4)
    assert tomography.squeezed_thermal_from_variances(0.5, 0.5) \
        == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))
    with pytest.raises(UnphysicalVariances):
        tomography.squeezed_thermal_from_variances(0.2, 0.3)
    with pytest.raises(ValueError):
        tomography.squeezed_thermal_from_variances(3.0, 0.3)


# ---- moment evolution ----

def test_moments_phi_zero_keeps_b2():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    model = squeezing.DephasingModel(gamma_th=17.1, gamma_phi=0.0,
                                     initial=initial)
    times = np.linspace(0.0, 5e-3, 11)
    traj = squeezing.moments_evolve(model, times)
    assert np.allclose(np.abs(traj.b2), abs(initial.b2), rtol=1e-14)
    rates = squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
    assert rates.gamma_sq == pytest.approx(17.1, rel=1e-9)
    assert rates.gamma_asq == pytest.approx(17.1, rel=1e-9)


def test_moments_isotropic_state_insensitive():
    initial = GaussianMechState.thermal(0.8)
    times = np.linspace(0.0, 5e-3, 11)
    for phi in (0.0, 0.3, 2.0):
        model = squeezing.DephasingModel(gamma_th=17.1, gamma_phi=phi,
                                         initial=initial)
        traj = squeezing.moments_evolve(model, times)
        rates = squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
        assert rates.delta == pytest.approx(0.0, abs=1e-12)


def test_initial_slope_identity_richardson():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    model = squeezing.DephasingModel(gamma_th=17.1, gamma_phi=0.09,
                                     initial=initial)
    expected = squeezing.initial_slope_delta(model)
    assert expected == pytest.approx(0.9781, abs=5e-4)

    def delta_slope(dt):
        times = np.array([0.0, dt])
        traj = squeezing.moments_evolve(model, times)
        slope_sq = (traj.v_sq[1] - traj.v_sq[0]) / dt
        slope_asq = (traj.v_asq[1] - traj.v_asq[0]) / dt
        return (slope_sq - slope_asq) / TWO_PI

    d1 = delta_slope(1e-6)
    d2 = delta_slope(5e-7)
    richardson = 2.0 * d2 - d1
    assert richardson == pytest.approx(expected, rel=1e-6)


def test_mean_slope_equals_gamma_th():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    model = squeezing.DephasingModel(gamma_th=17.1, gamma_phi=0.23,
                                     initial=initial)
    times = np.linspace(0.0, 5e-3, 11)
    traj = squeezing.moments_evolve(model, times)
    rates = squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
    # dephasing conserves <n>: the mean slope is the injected thermal rate
    assert 0.5 * (rates.gamma_sq + rates.gamma_asq) \
        == pytest.approx(17.1, rel=1e-6)


def test_finite_temperature_mode_saturates():
    initial = GaussianMechState.vacuum()
    model = squeezing.DephasingModel(gamma_th=20.5, gamma_phi=0.0,
                                     initial=initial,
                                     mode="finite_temperature",
                                     gamma_m=0.08, n_m_th=255.0)
    traj = squeezing.moments_evolve(model, np.array([0.0, 30.0]))
    assert traj.n[-1] == pytest.approx(255.0, rel=1e-3)


# ---- Lindblad oracle ----

def test_lindblad_matches_moments_reference_state():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    model = squeezing.DephasingModel(gamma_th=17.1, gamma_phi=0.09,
                                     initial=initial)
    times = np.linspace(0.0, 5e-3, 6)
    mom = squeezing.moments_evolve(model, times)
    lind = squeezing.lindblad_evolve(model, times)
    for a, b in ((lind.n, mom.n), (lind.v_sq, mom.v_sq),
                 (lind.v_asq, mom.v_asq)):
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)) < 1e-3
    assert lind.trace_dev.max() < 1e-10
    assert lind.min_eigenvalue.min() > -1e-8


def test_lindblad_initial_state_axes():
    # X1 is the squeezed axis of the constructed density matrix
    initial = GaussianMechState.squeezed_thermal(0.2, 0.5)
    model = squeezing.DephasingModel(gamma_th=5.0, gamma_phi=0.0,
                                     initial=initial)
    traj = squeezing.lindblad_evolve(model, np.array([0.0]))
    assert traj.var_x1[0] == pytest.approx(initial.var_x1, rel=1e-6)
    assert traj.var_x2[0] == pytest.approx(initial.var_x2, rel=1e-6)


def test_lindblad_dephasing_invariant_on_isotropic():
    initial = GaussianMechState.thermal(0.5)
    times = np.linspace(0.0, 3e-3, 4)
    base = squeezing.lindblad_evolve(squeezing.DephasingModel(
        gamma_th=10.0, gamma_phi=0.0, initial=initial,
        truncation_dim=48), times)
    dephased = squeezing.lindblad_evolve(squeezing.DephasingModel(
        gamma_th=10.0, gamma_phi=0.7, initial=initial,
        truncation_dim=48), times)
    assert np.allclose(base.v_sq, dephased.v_sq, atol=1e-10)
    assert np.allclose(base.n, dephased.n, atol=1e-10)


def test_lindblad_finite_temperature_equilibrium():
    initial = GaussianMechState.thermal(0.2)
    model = squeezing.DephasingModel(
        gamma_th=6.0, gamma_phi=0.0, initial=initial,
        mode="finite_temperature", gamma_m=2.0, n_m_th=2.0)
    times = np.linspace(0.0, 1.3, 3)   # ~16 relaxation times
    traj = squeezing.lindblad_evolve(model, times)
    assert traj.n[-1] == pytest.approx(2.0, rel=1e-3)


def test_lindblad_truncation_guard():
    initial = GaussianMechState.squeezed_thermal(1.5, 0.9)
    model = squeezing.DephasingModel(gamma_th=30.0, gamma_phi=0.2,
                                     initial=initial, truncation_dim=12)
    with pytest.raises(TruncationNonConvergence):
        squeezing.lindblad_evolve(model, np.linspace(0.0, 2e-3, 3))


def _dense_rho(n_th, r, theta, dim):
    """Squeezed thermal state from one complex expm of the full squeeze
    generator, S rho_th S^dag, rotated by e^{i theta (j - l)}."""
    levels = np.arange(dim)
    q = n_th / (1.0 + n_th)
    rho = np.diag((1.0 - q) * q**levels).astype(complex)
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
    squeeze_op = expm(0.5 * r * (lower @ lower - lower.T @ lower.T))
    rho = squeeze_op @ rho @ squeeze_op.conjugate().T
    phase = np.exp(1j * theta * levels)
    return (phase[:, None] * rho) * phase.conjugate()[None, :]


@pytest.mark.parametrize("dim", [33, 96, 256])
@pytest.mark.parametrize("n_th, r, theta", [(0.4, 0.6, 0.0),
                                            (1.5, 0.9, 0.7)])
def test_parity_sector_rho_matches_dense_expm(dim, n_th, r, theta):
    rho = squeezing._squeezed_thermal_rho(n_th, r, theta, dim)
    assert np.max(np.abs(rho - _dense_rho(n_th, r, theta, dim))) <= 1e-15


def _kron_reference(model, times, dim):
    """The full dim^2 x dim^2 row-major Liouvillian, thermal and dephasing
    dissipators built with sp.kron, propagated from 0 time by time."""
    lower = sp.diags(np.sqrt(np.arange(1, dim)), 1, format="csr")
    number = sp.diags(np.arange(dim, dtype=float), 0, format="csr")
    eye = sp.identity(dim, format="csr")

    def dissipator(op):
        opd_op = (op.conjugate().T @ op).tocsr()
        return (sp.kron(op, op.conjugate()) - 0.5 * sp.kron(opd_op, eye)
                - 0.5 * sp.kron(eye, opd_op.T))

    if model.mode == "high_temperature":
        down = up = TWO_PI * model.gamma_th
    else:
        down = TWO_PI * model.gamma_m * (model.n_m_th + 1.0)
        up = TWO_PI * model.gamma_m * model.n_m_th
    liouvillian = (down * dissipator(lower)
                   + up * dissipator(lower.T.tocsr())
                   + 2.0 * TWO_PI * model.gamma_phi * dissipator(number))
    n_th, r = model.initial.squeezed_thermal_params
    rho0 = squeezing._squeezed_thermal_rho(
        n_th, r, model.initial.squeezed_axis_angle, dim)
    liouvillian = liouvillian.tocsc()
    state, elapsed, stack = rho0.reshape(-1), 0.0, []
    for t in times:
        if t > elapsed:
            state = expm_multiply(liouvillian * (t - elapsed), state)
            elapsed = t
        stack.append(state)
    b2_op = (lower @ lower).toarray()
    out = {"n": [], "b2": [], "trace": [], "min_eig": []}
    for row in stack:
        rho = row.reshape(dim, dim)
        herm = 0.5 * (rho + rho.conjugate().T)
        out["n"].append(float(np.real(np.trace(number.toarray() @ herm))))
        out["b2"].append(complex(np.trace(b2_op @ herm)))
        out["trace"].append(float(np.real(np.trace(rho))))
        out["min_eig"].append(float(np.linalg.eigvalsh(herm)[0]))
    return {key: np.array(value) for key, value in out.items()}


#: (dim, model keywords, (n_th, r, theta)) of the kron-reference cases
KRON_CASES = [
    (24, dict(gamma_th=17.1, gamma_phi=0.09), (0.4, 0.6, 0.0)),
    (40, dict(gamma_th=30.0, gamma_phi=0.7), (0.2, 0.5, 0.4)),
    (48, dict(gamma_th=6.0, gamma_phi=0.3, mode="finite_temperature",
              gamma_m=2.0, n_m_th=2.0), (0.3, 0.4, 0.0)),
]


@pytest.mark.parametrize("dim, kwargs, state", KRON_CASES)
def test_offset_blocks_match_kron_liouvillian(dim, kwargs, state):
    _assert_blocks_match_kron(dim, kwargs, state, np.linspace(0.0, 5e-3, 6))


@pytest.mark.parametrize("dim, kwargs, state", KRON_CASES)
def test_offset_blocks_match_kron_on_uneven_grid(dim, kwargs, state):
    # no output at 0 and unequal steps: every time comes from the same
    # series pass, whatever the grid
    _assert_blocks_match_kron(dim, kwargs, state,
                              np.array([0.3e-3, 0.7e-3, 2.9e-3, 5e-3]))


def _assert_blocks_match_kron(dim, kwargs, state, times):
    n_th, r, theta = state
    initial = GaussianMechState.squeezed_thermal(n_th, r, theta)
    model = squeezing.DephasingModel(initial=initial, **kwargs)
    blocks, stack = squeezing._propagate(model, times,
                                         squeezing._initial_rho(model, dim))
    reference = _kron_reference(model, times, dim)
    assert np.max(np.abs(blocks.n - reference["n"])) < 1e-12
    assert np.max(np.abs(blocks.b2 - reference["b2"])) < 1e-12
    assert np.max(np.abs(blocks.trace_dev
                         - np.abs(reference["trace"] - 1.0))) < 1e-12
    assert np.max(np.abs(squeezing._min_eigenvalues(stack, dim)
                         - reference["min_eig"])) < 1e-12


@pytest.mark.parametrize("n_m_th", [0.01, 0.1, 0.3])
def test_finite_temperature_series_stays_physical(n_m_th):
    # down/up = (n_m_th + 1)/n_m_th makes the blocks far from symmetric; a
    # Chebyshev series on them gives minimum eigenvalues of -9e6, -3e2 and
    # -2e-5 here
    initial = GaussianMechState.squeezed_thermal(1.0, 0.5)
    model = squeezing.DephasingModel(
        gamma_th=1.0, gamma_phi=0.3, initial=initial,
        mode="finite_temperature", gamma_m=50.0, n_m_th=n_m_th,
        truncation_dim=256)
    times = np.linspace(0.0, 5e-3, 6)
    traj = squeezing.lindblad_evolve(model, times)
    assert traj.min_eigenvalue.min() >= -1e-12
    assert traj.trace_dev.max() <= 1e-12
    assert np.max(np.abs(traj.n - squeezing.moments_evolve(model, times).n)) \
        <= 1e-9


def test_lindblad_records_rungs_and_terms():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    times = np.linspace(0.0, 5e-3, 6)
    model = squeezing.DephasingModel(gamma_th=17.1, gamma_phi=0.09,
                                     initial=initial)
    traj = squeezing.lindblad_evolve(model, times)
    assert len(traj.rungs) >= 2 and traj.rungs[-1] == traj.dim
    assert np.all(np.diff(traj.rungs) == squeezing.LADDER_STEP)
    assert traj.terms == squeezing._propagate(
        model, times, squeezing._initial_rho(model, traj.dim))[0].terms > 1
    fixed = squeezing.lindblad_evolve(squeezing.DephasingModel(
        gamma_th=17.1, gamma_phi=0.09, initial=initial, truncation_dim=64),
        times)
    assert fixed.rungs == (64,)
    # a zero-rate generator needs the initial state only
    frozen = squeezing.lindblad_evolve(squeezing.DephasingModel(
        gamma_th=0.0, gamma_phi=0.0, initial=initial, truncation_dim=64),
        times)
    assert frozen.terms == 1
    assert np.all(frozen.n == frozen.n[0])


@pytest.mark.parametrize("n_th, r, gamma_th", [(0.36, 0.95, 6.75),
                                               (0.66, 0.79, 23.2)])
def test_lindblad_ladder_stops_where_converged(n_th, r, gamma_th):
    # the 128-level solution of these states is already converged; the
    # former doubling ladder climbed to 256 levels
    initial = GaussianMechState.squeezed_thermal(n_th, r)
    model = squeezing.DephasingModel(gamma_th=gamma_th, gamma_phi=0.5,
                                     initial=initial)
    times = np.linspace(0.0, 5e-3, 6)
    lind = squeezing.lindblad_evolve(model, times)
    mom = squeezing.moments_evolve(model, times)
    assert lind.dim < 256
    assert lind.top_population.max() < 1e-8
    for a, b in ((lind.n, mom.n), (lind.v_sq, mom.v_sq),
                 (lind.v_asq, mom.v_asq)):
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)) < 1e-3


def test_lindblad_dimension_estimate_above_cap(monkeypatch):
    # relaxing to n_m_th = 255 needs ~2048 levels: refuse before propagating
    def no_propagation(*args):
        raise AssertionError("propagated despite the dimension estimate")

    monkeypatch.setattr(squeezing, "_propagate", no_propagation)
    model = squeezing.DephasingModel(
        gamma_th=20.5, gamma_phi=0.09,
        initial=GaussianMechState.squeezed_thermal(0.4, 0.6),
        mode="finite_temperature", gamma_m=0.08, n_m_th=255.0)
    with pytest.raises(TruncationNonConvergence, match="2048"):
        squeezing.lindblad_evolve(model, np.linspace(0.0, 30.0, 4))


# ---- dephasing extraction ----

def test_extract_dephasing_roundtrip():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    times = np.linspace(0.0, 5e-3, 11)
    model = squeezing.DephasingModel(gamma_th=17.1, gamma_phi=0.05,
                                     initial=initial)
    traj = squeezing.moments_evolve(model, times)
    rates = squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
    result = squeezing.extract_dephasing(rates, initial, gamma_th=17.1,
                                         times=times)
    assert result.gamma_phi == pytest.approx(0.05, abs=1e-3)


def test_extract_dephasing_zero():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    result = squeezing.extract_dephasing(0.0, initial, gamma_th=17.1)
    assert result.gamma_phi == 0.0


def test_extract_dephasing_reference_rates():
    # measured slope difference 1.1 +/- 0.6 Hz on the (0.4, 0.6) state
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    result = squeezing.extract_dephasing(1.1, initial, gamma_th=17.1,
                                         delta_err=0.6, n_th_err=0.2,
                                         r_err=0.1)
    assert result.gamma_phi == pytest.approx(0.09, abs=0.05)
    assert result.lo < 0.09 < result.hi
    # forward curve attached and monotone
    assert np.all(np.diff(result.curve_delta) >= -1e-12)


def test_extract_dephasing_bracket_past_the_maximum():
    # over 0-5 ms the (0.4, 0.6) curve peaks at 74.88 Hz (Gphi 23.73 Hz);
    # doubling the bracket from 16 Hz (71.59 Hz) lands at 32 Hz (73.04 Hz),
    # past the peak, so a value between the two was called unreachable
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    times = np.linspace(0.0, 5e-3, 11)
    result = squeezing.extract_dephasing(74.13, initial, gamma_th=17.1)
    assert 16.0 < result.gamma_phi < 23.73
    assert squeezing._delta_curve(result.gamma_phi, initial, times) \
        == pytest.approx(74.13, abs=1e-3)
    with pytest.raises(InvalidArgument, match="beyond the achievable"):
        squeezing.extract_dephasing(74.9, initial, gamma_th=17.1)


def test_extract_dephasing_curve_monotone_guard():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    with pytest.raises(ValueError):
        squeezing.extract_dephasing(-0.5, initial, gamma_th=17.1)


def test_lindblad_rotated_initial_state():
    # density-matrix construction honors the state's rotation convention
    initial = GaussianMechState.squeezed_thermal(0.2, 0.5, 0.4)
    model = squeezing.DephasingModel(gamma_th=5.0, gamma_phi=0.0,
                                     initial=initial)
    traj = squeezing.lindblad_evolve(model, np.array([0.0]))
    assert traj.var_x1[0] == pytest.approx(initial.var_x1, rel=1e-6)
    assert traj.var_x2[0] == pytest.approx(initial.var_x2, rel=1e-6)
    assert traj.b2[0].real == pytest.approx(initial.b2.real, rel=1e-6)
    assert traj.b2[0].imag == pytest.approx(initial.b2.imag, rel=1e-6)


# ---- the closed-form dephasing curve

#: (n_th, r, Gamma_th [Hz], Gamma_phi [Hz], time grid [s]); the grids start
#: at 0, as every grid of the package does, with steps within a factor 2 of
#: each other
dephasing_cases = st.tuples(
    st.floats(0.0, 3.0), st.floats(0.05, 1.5), st.floats(0.0, 60.0),
    st.floats(0.0, 5.0),
    st.builds(lambda steps, span: np.append(0.0, np.cumsum(steps))
              * span / sum(steps),
              st.lists(st.floats(0.5, 1.0), min_size=2, max_size=40),
              st.floats(1e-3, 2e-2)))
curve_property = settings(max_examples=80, deadline=None)


@curve_property
@given(case=dephasing_cases)
def test_delta_curve_matches_fitted_moments(case):
    # the closed form is the fitted slope difference of the moment
    # trajectory; the fits round at the scale of the variances over the
    # window, so the tolerance is relative to that rate as well
    n_th, r, gamma_th, gamma_phi, times = case
    initial = GaussianMechState.squeezed_thermal(n_th, r)
    traj = squeezing.moments_evolve(squeezing.DephasingModel(
        gamma_th=gamma_th, gamma_phi=gamma_phi, initial=initial), times)
    rates = squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
    scale = float(np.max(traj.v_asq)) / (TWO_PI * times[-1])
    assert squeezing._delta_curve(gamma_phi, initial, times) \
        == pytest.approx(rates.delta, rel=1e-12, abs=1e-12 * scale)

    # one maximum: rising, then falling, never rising again
    steps = np.diff(squeezing._delta_curve(
        np.linspace(0.0, 20.0 / times[-1], 400), initial, times))
    falling = np.flatnonzero(steps < 0.0)
    assert falling.size == 0 or np.all(steps[falling[0]:] <= 0.0)


@curve_property
@given(case=dephasing_cases)
@example(case=(0.0, 1.0, 17.1, 0.09, np.linspace(0.0, 5e-3, 11)))
def test_extract_dephasing_roundtrip_property(case):
    # well up the rising branch (delta(2 Gphi) >= delta(Gphi)), where the
    # curve is steep enough for the fitted delta to pin Gphi, the inversion
    # returns Gphi;
    # Gphi = 0 has its own test, since the fitted delta then rounds to
    # either side of 0 and a negative one is rejected
    n_th, r, gamma_th, gamma_phi, times = case
    assume(gamma_phi >= 1e-3)
    initial = GaussianMechState.squeezed_thermal(n_th, r)
    assume(squeezing._delta_curve(2.0 * gamma_phi, initial, times)
           >= squeezing._delta_curve(gamma_phi, initial, times))
    traj = squeezing.moments_evolve(squeezing.DephasingModel(
        gamma_th=gamma_th, gamma_phi=gamma_phi, initial=initial), times)
    rates = squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
    tol = 1e-4
    result = squeezing.extract_dephasing(rates.delta, initial,
                                         gamma_th=gamma_th, times=times,
                                         tol=tol)
    assert abs(result.gamma_phi - gamma_phi) <= tol
