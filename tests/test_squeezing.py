import decimal
import math
import warnings

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
    with pytest.raises(FloatingPointError, match="underflows"):
        squeezing.squeeze_drive(75.0, 5e-324, kappa=250e3)
    # a subnormal ratio is still a number
    drive = squeezing.squeeze_drive(75.0, 1e-310, kappa=250e3)
    assert drive.ratio_db == pytest.approx(-3118.75, abs=0.01)


@pytest.mark.parametrize("gamma_r, gamma_b, kappa, match", [
    (75.0, math.nan, 1e5, "gamma_r"),
    (math.nan, 1.0, 1e5, "gamma_r"),
    (math.inf, 1.0, 1e5, "gamma_r"),
    (75.0, 1.0, -1.0, "kappa"),
    (75.0, 1.0, 0.0, "kappa"),
    (75.0, 1.0, math.nan, "kappa"),
    (75.0, 1.0, math.inf, "kappa"),
])
def test_squeeze_drive_rejects_rates_outside_domain(gamma_r, gamma_b, kappa,
                                                    match):
    with pytest.raises(InvalidArgument, match=match):
        squeezing.squeeze_drive(gamma_r, gamma_b, kappa)


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
                                     initial=initial, gamma_m=0.08,
                                     n_m_th=255.0)
    traj = squeezing.moments_evolve(model, np.array([0.0, 30.0]))
    assert traj.n[-1] == pytest.approx(255.0, rel=1e-3)


@pytest.mark.parametrize("bath", [dict(gamma_m=0.08), dict(n_m_th=255.0)])
def test_finite_temperature_form_needs_both_bath_values(bath):
    with pytest.raises(ValueError, match="both gamma_m and n_m_th"):
        squeezing.DephasingModel(gamma_th=20.5, gamma_phi=0.0,
                                 initial=GaussianMechState.vacuum(), **bath)


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


def _propagate_at(model, times, dim):
    """The solver at a fixed dimension, with the rung of half that
    dimension riding along: (trajectory, minimum eigenvalues)."""
    traj, stack, _ = squeezing._propagate(
        model, times, squeezing._initial_rho(model, dim), dim // 2)
    return traj, squeezing._min_eigenvalues(stack, dim)


def test_lindblad_dephasing_invariant_on_isotropic():
    initial = GaussianMechState.thermal(0.5)
    times = np.linspace(0.0, 3e-3, 4)
    base = _propagate_at(squeezing.DephasingModel(
        gamma_th=10.0, gamma_phi=0.0, initial=initial), times, 48)[0]
    dephased = _propagate_at(squeezing.DephasingModel(
        gamma_th=10.0, gamma_phi=0.7, initial=initial), times, 48)[0]
    assert np.allclose(base.v_sq, dephased.v_sq, atol=1e-10)
    assert np.allclose(base.n, dephased.n, atol=1e-10)


def test_lindblad_finite_temperature_equilibrium():
    initial = GaussianMechState.thermal(0.2)
    model = squeezing.DephasingModel(
        gamma_th=6.0, gamma_phi=0.0, initial=initial, gamma_m=2.0,
        n_m_th=2.0)
    times = np.linspace(0.0, 1.3, 3)   # ~16 relaxation times
    traj = squeezing.lindblad_evolve(model, times)
    assert traj.n[-1] == pytest.approx(2.0, rel=1e-3)


def _rotated(rho, theta):
    """rho turned by theta: e^{i theta (j - l)} rho_{jl}."""
    phase = np.exp(1j * theta * np.arange(rho.shape[0]))
    return (phase[:, None] * rho) * phase.conjugate()[None, :]


def _expm_rho(n_th, r, theta, dim):
    """Squeezed thermal state from the exponential of the squeeze generator
    truncated to dim levels, one real expm per level parity: (S p) S^T
    per sector, p the thermal populations, rotated by e^{i theta (j - l)}.
    Near dim it is not P rho P; its top-left block converges to P rho P as
    dim grows."""
    levels = np.arange(dim)
    q = n_th / (1.0 + n_th)
    populations = (1.0 - q) * q**levels
    rho = np.zeros((dim, dim))
    for parity in range(min(dim, 2)):
        sector = levels[parity::2]
        pair = np.diag(np.sqrt(sector[1:] * (sector[1:] - 1.0)), 1)
        squeeze = expm(0.5 * r * (pair - pair.T))
        rho[np.ix_(sector, sector)] = (squeeze * populations[sector]) \
            @ squeeze.T
    return _rotated(rho, theta)


#: rounding allowance of the _expm_rho reference (the Gram build rounds at
#: a few eps): its converged blocks sat up to 1.7e-14 from the Gram build
#: over criterion 6's ranges, and up to 2.3e-14 for states up to (5, 2)
EXPM_ROUNDING = 2.0**8 * np.finfo(float).eps


def _assert_matches_converged_expm(n_th, r, theta, dim):
    # the reference is the top-left block of a build large enough for that
    # block to have converged, as a build 64 levels larger confirms; the
    # tolerance is twice that measured step plus the reference's rounding
    size = dim + 128
    reference = _expm_rho(n_th, r, theta, size)[:dim, :dim]
    convergence = np.max(np.abs(
        reference - _expm_rho(n_th, r, theta, size + 64)[:dim, :dim]))
    assert convergence <= 1e-13
    rho = _rotated(squeezing._squeezed_thermal_rho(n_th, r, dim), theta)
    assert np.max(np.abs(rho - reference)) <= 2.0 * convergence \
        + EXPM_ROUNDING


@pytest.mark.parametrize("dim", [33, 96, 256])
@pytest.mark.parametrize("n_th, r, theta", [(0.4, 0.6, 0.0),
                                            (1.5, 0.9, 0.7)])
def test_parity_sector_rho_matches_dense_expm(dim, n_th, r, theta):
    _assert_matches_converged_expm(n_th, r, theta, dim)


#: squeezed thermal states over criterion 6's ranges, any rotation, cut to
#: 2-160 levels
rho_cases = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 1.0),
                      st.floats(-0.5 * math.pi, 0.5 * math.pi),
                      st.integers(2, 160))


@settings(max_examples=15, deadline=None)
@given(case=rho_cases)
def test_drawn_rho_matches_converged_expm(case):
    _assert_matches_converged_expm(*case)


@settings(max_examples=25, deadline=None)
@given(case=rho_cases)
@example(case=(0.0, 0.7, 0.0, 64))
@example(case=(1.5, 0.0, 0.3, 40))
def test_rho_is_a_cut_state(case):
    n_th, r, theta, dim = case
    eps = np.finfo(float).eps
    rho = squeezing._squeezed_thermal_rho(n_th, r, dim)
    # a larger build holds this one as its top-left block; each entry is a
    # sum of terms of one sign, so orders of summation differ by at most
    # its term count of roundings (plus an absolute floor for subnormals)
    floor = 1e-300
    for size in (256, 512, 1024):
        big = squeezing._squeezed_thermal_rho(n_th, r, size)
        if 1.0 - np.trace(big) <= 1e-14:
            break
    assert 1.0 - np.trace(big) <= 1e-14
    assert np.all(np.abs(big[:dim, :dim] - rho)
                  <= dim * eps * np.abs(rho) + floor)
    # real symmetric and positive semidefinite
    assert rho.dtype == float and np.array_equal(rho, rho.T)
    assert np.linalg.eigvalsh(rho)[0] >= -dim * eps
    # trace 1 minus the population above dim, read from the larger build
    tail = big.diagonal()[dim:].sum()
    assert np.trace(rho) + tail == pytest.approx(1.0, abs=1e-13)
    # the whole state, turned by theta, has the closed-form moments
    initial = GaussianMechState.squeezed_thermal(n_th, r, theta)
    levels = np.arange(size)
    assert big.diagonal() @ levels == pytest.approx(initial.n,
                                                    rel=1e-12, abs=1e-14)
    b2 = _rotated(big, theta).diagonal(-2) \
        @ np.sqrt((levels[:-2] + 1.0) * (levels[:-2] + 2.0))
    assert abs(b2 - initial.b2) <= 1e-12 * max(abs(initial.b2), 1.0)
    # the stop test of the dimension ladder reads the top populations
    # without a build
    top = squeezing._top_populations(n_th, r, dim)
    assert np.all(np.abs(top - rho.diagonal()[-2:])
                  <= dim * eps * top + floor)


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

    if model.gamma_m is None:
        down = up = TWO_PI * model.gamma_th
    else:
        down = TWO_PI * model.gamma_m * (model.n_m_th + 1.0)
        up = TWO_PI * model.gamma_m * model.n_m_th
    liouvillian = (down * dissipator(lower)
                   + up * dissipator(lower.T.tocsr())
                   + 2.0 * TWO_PI * model.gamma_phi * dissipator(number))
    rho0 = _rotated(squeezing._initial_rho(model, dim),
                    model.initial.squeezed_axis_angle)
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
    (48, dict(gamma_th=6.0, gamma_phi=0.3, gamma_m=2.0, n_m_th=2.0),
     (0.3, 0.4, 0.0)),
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
    blocks, min_eigenvalue = _propagate_at(model, times, dim)
    reference = _kron_reference(model, times, dim)
    assert np.max(np.abs(blocks.n - reference["n"])) < 1e-12
    assert np.max(np.abs(blocks.b2 - reference["b2"])) < 1e-12
    assert np.max(np.abs(blocks.trace_dev
                         - np.abs(reference["trace"] - 1.0))) < 1e-12
    assert np.max(np.abs(min_eigenvalue - reference["min_eig"])) < 1e-12


@pytest.mark.parametrize("n_m_th", [0.01, 0.1, 0.3])
def test_finite_temperature_series_stays_physical(n_m_th):
    # down/up = (n_m_th + 1)/n_m_th makes the blocks far from symmetric; a
    # Chebyshev series on them gives minimum eigenvalues of -9e6, -3e2 and
    # -2e-5 here
    initial = GaussianMechState.squeezed_thermal(1.0, 0.5)
    model = squeezing.DephasingModel(
        gamma_th=1.0, gamma_phi=0.3, initial=initial, gamma_m=50.0,
        n_m_th=n_m_th)
    times = np.linspace(0.0, 5e-3, 6)
    traj, min_eigenvalue = _propagate_at(model, times, 256)
    assert traj.top_population.max() <= 1e-8
    assert min_eigenvalue.min() >= -1e-12
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
        model, times, squeezing._initial_rho(model, traj.dim),
        traj.dim - squeezing.LADDER_STEP)[0].terms > 1
    # a zero-rate generator needs the initial state only
    frozen = squeezing.lindblad_evolve(squeezing.DephasingModel(
        gamma_th=0.0, gamma_phi=0.0, initial=initial), times)
    assert frozen.terms == 1
    assert np.all(frozen.n == frozen.n[0])


#: rung 0 of each perfbench oracle class box (the box centres), a
#: finite-temperature model and a rotated state:
#: (dim, model keywords, (n_th, r, theta))
REFERENCE_CASES = [
    (32, dict(gamma_th=33.0, gamma_phi=0.5), (0.5, 0.015, 0.0)),
    (64, dict(gamma_th=15.5, gamma_phi=0.5), (1.37, 0.15, 0.0)),
    (96, dict(gamma_th=18.5, gamma_phi=0.5), (0.245, 0.8525, 0.0)),
    (128, dict(gamma_th=40.5, gamma_phi=0.5), (1.05, 0.655, 0.0)),
    (64, dict(gamma_th=6.0, gamma_phi=0.3, gamma_m=2.0, n_m_th=2.0),
     (0.3, 0.4, 0.0)),
    (64, dict(gamma_th=17.1, gamma_phi=0.09), (0.4, 0.6, 0.7)),
]


@pytest.mark.parametrize("dim, kwargs, state", REFERENCE_CASES)
def test_reference_rung_rides_in_one_series_pass(dim, kwargs, state):
    # rung 1's pass is the same bit for bit whichever smaller rung rides
    # in it, and rung 0's (dim) moments differ from its own pass by rounding
    model = squeezing.DephasingModel(
        initial=GaussianMechState.squeezed_thermal(*state), **kwargs)
    rho = squeezing._initial_rho(model, dim + squeezing.LADDER_STEP)
    times = np.linspace(0.0, 5e-3, 6)
    fused, fused_stack, reference = squeezing._propagate(model, times, rho,
                                                         dim)
    other, other_stack, _ = squeezing._propagate(model, times, rho,
                                                 dim // 2)
    for field in other.__dataclass_fields__:
        assert np.array_equal(getattr(fused, field), getattr(other, field))
    assert np.array_equal(fused_stack, other_stack)

    own = squeezing._propagate(model, times, rho[:dim, :dim], dim // 2)[0]
    assert reference.dim == dim and reference.rungs == (dim,)
    for field in ("n", "b2", "v_sq", "v_asq"):
        ours, theirs = getattr(reference, field), getattr(own, field)
        assert np.max(np.abs(ours - theirs)) \
            <= 1e-12 * np.max(np.abs(theirs))
    for field in ("trace_dev", "top_population"):
        assert np.max(np.abs(getattr(reference, field)
                             - getattr(own, field))) <= 1e-12


def test_first_two_rungs_share_one_series_pass(monkeypatch):
    calls = []
    series = squeezing._thermal_series

    def counted(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(squeezing, "_thermal_series", counted)
    model = squeezing.DephasingModel(
        gamma_th=17.1, gamma_phi=0.09,
        initial=GaussianMechState.squeezed_thermal(0.4, 0.6))
    traj = squeezing.lindblad_evolve(model, np.linspace(0.0, 5e-3, 6))
    assert len(traj.rungs) == 2
    assert len(calls) == 1


def test_ladder_climb_carries_the_rung_below():
    # a solve whose first pass is not accepted: each later pass carries
    # the rung below, and the accepted one is returned as it came out
    initial = GaussianMechState.squeezed_thermal(0.551, 0.138)
    model = squeezing.DephasingModel(gamma_th=40.39, gamma_phi=1.576,
                                     initial=initial)
    times = np.linspace(0.0, 0.02, 6)
    traj = squeezing.lindblad_evolve(model, times)
    assert traj.rungs == (64, 96, 128)
    mom = squeezing.moments_evolve(model, times)
    for a, b in ((traj.n, mom.n), (traj.v_sq, mom.v_sq),
                 (traj.v_asq, mom.v_asq)):
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)) < 1e-3
    assert traj.trace_dev.max() < 1e-10
    assert traj.min_eigenvalue.min() >= -1e-8

    last, stack, _ = squeezing._propagate(
        model, times, squeezing._initial_rho(model, 128), 96)
    assert np.array_equal(traj.min_eigenvalue,
                          squeezing._min_eigenvalues(stack, 128))
    for field in last.__dataclass_fields__:
        if field not in ("rungs", "min_eigenvalue"):
            assert np.array_equal(getattr(traj, field), getattr(last, field))


def _decimal_poisson(mean, terms):
    """Poisson weights of the counts below `terms` at `mean`, multiplied
    up from exp(-mean) in 40-digit decimal arithmetic and rounded once."""
    with decimal.localcontext() as context:
        context.prec = 40
        mu = decimal.Decimal(float(mean))
        weight, out = (-mu).exp(), []
        for n in range(terms):
            out.append(float(weight))
            weight = weight * mu / (n + 1)
    return out


def _ive_weights(chebyshev, scale, times):
    """Reference series weights, with the cut and normalisation of
    squeezing._series_weights: (2 - delta_n0) ive(n, scale t / 2), or the
    Poisson law of mean scale t in 40-digit decimal arithmetic."""
    from scipy.special import ive

    def weights(terms, x):
        if chebyshev:
            n = np.arange(terms)[:, None]
            return np.where(n == 0, 1.0, 2.0) * ive(n, 0.5 * x)
        return np.array([_decimal_poisson(mean, terms) for mean in x]).T

    last = scale * float(np.max(times))
    size = math.ceil((0.0 if chebyshev else last)
                     + 10.0 * math.sqrt(last) + 40.0)
    while True:
        left_out = np.cumsum(weights(size, np.array([last]))[::-1, 0])[::-1]
        cut = np.flatnonzero(left_out < squeezing.SERIES_TAIL)
        if cut.size:
            kept = weights(max(int(cut[0]), 1), scale * times)
            return kept / kept.sum(axis=0)
        size *= 2


#: scale * t at the latest time, 0 to 3000
SERIES_SPANS = [0.0, 1e-9, 0.3, 1.7, 12.5, *np.linspace(25.0, 3000.0, 120)]


def test_skellam_weights_match_ive():
    # the Chebyshev weights are the law of |D|, D a difference of two
    # Poisson counts; the Bessel form is the reference
    times = np.linspace(0.0, 5e-3, 6)
    for span in SERIES_SPANS:
        scale = span / times[-1]
        weights = squeezing._series_weights(True, scale, times)
        reference = _ive_weights(True, scale, times)
        assert weights.shape == reference.shape
        assert np.max(np.abs(weights - reference)) <= 1e-15


def test_uniformization_weights_match_exact_poisson():
    # the Poisson weights multiplied out from the mode against the law in
    # 40-digit decimal arithmetic
    times = np.linspace(0.0, 5e-3, 6)
    for span in [*SERIES_SPANS[::8], SERIES_SPANS[-1]]:
        scale = span / times[-1]
        weights = squeezing._series_weights(False, scale, times)
        reference = _ive_weights(False, scale, times)
        assert weights.shape == reference.shape
        assert np.max(np.abs(weights - reference)) <= 1e-15


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lindblad_rejects_non_finite_times(bad):
    # unchecked, a NaN time reached math.ceil in the series weights and an
    # infinite one overflowed there
    model = squeezing.DephasingModel(
        gamma_th=17.1, gamma_phi=0.09,
        initial=GaussianMechState.squeezed_thermal(0.4, 0.6))
    with pytest.raises(ValueError, match="^times must be finite, >= 0 and "
                                         "sorted$"):
        squeezing.lindblad_evolve(model, np.array([0.0, 1e-3, bad]))


@pytest.mark.parametrize("times", [[], 1e-3, [[0.0, 1e-3]]],
                         ids=["empty", "scalar", "2-d"])
def test_lindblad_rejects_times_that_are_not_a_sequence(times):
    # numpy's own reduction and diff errors used to escape instead
    model = squeezing.DephasingModel(
        gamma_th=17.1, gamma_phi=0.09,
        initial=GaussianMechState.squeezed_thermal(0.4, 0.6))
    with pytest.raises(ValueError, match="^times must be finite, >= 0 and "
                                         "sorted$"):
        squeezing.lindblad_evolve(model, times)


def test_lindblad_overflowing_trajectory_names_the_cap():
    # a finite time that overflows the moments used to raise a bare
    # OverflowError from the dimension estimate
    model = squeezing.DephasingModel(
        gamma_th=17.1, gamma_phi=0.09,
        initial=GaussianMechState.squeezed_thermal(0.4, 0.6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TruncationNonConvergence, match="1024"):
            squeezing.lindblad_evolve(model, [0.0, 1e308])


def test_lindblad_dimension_estimate_above_cap(monkeypatch):
    # relaxing to n_m_th = 255 needs ~2048 levels: refuse before propagating
    def no_propagation(*args):
        raise AssertionError("propagated despite the dimension estimate")

    monkeypatch.setattr(squeezing, "_propagate", no_propagation)
    model = squeezing.DephasingModel(
        gamma_th=20.5, gamma_phi=0.09,
        initial=GaussianMechState.squeezed_thermal(0.4, 0.6), gamma_m=0.08,
        n_m_th=255.0)
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
    result = squeezing.extract_dephasing(rates.delta, initial, gamma_th=17.1,
                                         times=times)
    assert result.gamma_phi == pytest.approx(0.05, abs=1e-3)


#: the 0-5 ms grid of criterion 5
TIMES_5MS = np.linspace(0.0, 5e-3, 11)


def test_extract_dephasing_zero():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    result = squeezing.extract_dephasing(0.0, initial, gamma_th=17.1,
                                         times=TIMES_5MS)
    assert result.gamma_phi == 0.0


def test_extract_dephasing_reference_rates():
    # measured slope difference 1.1 +/- 0.6 Hz on the (0.4, 0.6) state
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    result = squeezing.extract_dephasing(1.1, initial, gamma_th=17.1,
                                         times=TIMES_5MS, delta_err=0.6,
                                         n_th_err=0.2, r_err=0.1)
    assert result.gamma_phi == pytest.approx(0.09, abs=0.05)
    assert result.lo < 0.09 < result.hi
    # forward curve attached and monotone
    assert np.all(np.diff(result.curve_delta) >= -1e-12)


def test_extract_dephasing_bracket_past_the_maximum():
    # over 0-5 ms the (0.4, 0.6) curve peaks at 74.88 Hz (Gphi 23.73 Hz);
    # doubling the bracket from 16 Hz (71.59 Hz) lands at 32 Hz (73.04 Hz),
    # past the peak, so a value between the two was called unreachable
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    result = squeezing.extract_dephasing(74.13, initial, gamma_th=17.1,
                                         times=TIMES_5MS)
    assert 16.0 < result.gamma_phi < 23.73
    assert squeezing._forward_curve(abs(initial.b2), TIMES_5MS)(
        result.gamma_phi) == pytest.approx(74.13, abs=1e-3)
    with pytest.raises(InvalidArgument, match="beyond the achievable"):
        squeezing.extract_dephasing(74.9, initial, gamma_th=17.1,
                                    times=TIMES_5MS)


def test_extract_dephasing_curve_monotone_guard():
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    with pytest.raises(ValueError):
        squeezing.extract_dephasing(-0.5, initial, gamma_th=17.1,
                                    times=TIMES_5MS)


@pytest.mark.parametrize("value, name", [
    *((value, name) for value in (math.nan, -0.5, math.inf)
      for name in ("delta_err", "n_th_err", "r_err")),
    *((value, "tol") for value in (0.0, -1.0, math.nan, math.inf))])
def test_extract_dephasing_rejects_bad_errors(monkeypatch, value, name):
    # named before any root is sought: unchecked, a NaN r_err runs the
    # doubling out and blames the range, r_err = -0.5 gives lo 0.798 >
    # hi 0.034, tol = 0 or -1 bisects forever and tol = nan returns the
    # bracket's first midpoint
    def no_root(*args):
        raise AssertionError("sought a root despite a bad input error")

    monkeypatch.setattr(squeezing, "_invert_delta", no_root)
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    with pytest.raises(InvalidArgument, match=f"^{name} = "):
        squeezing.extract_dephasing(1.1, initial, gamma_th=17.1,
                                    times=TIMES_5MS, **{name: value})


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
    curve = squeezing._forward_curve(abs(initial.b2), times)
    assert curve(gamma_phi) == pytest.approx(rates.delta, rel=1e-12,
                                             abs=1e-12 * scale)

    # one maximum: rising, then falling, never rising again
    steps = np.diff(curve(np.linspace(0.0, 20.0 / times[-1], 400)[:, None]))
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
    curve = squeezing._forward_curve(abs(initial.b2), times)
    assume(curve(2.0 * gamma_phi) >= curve(gamma_phi))
    traj = squeezing.moments_evolve(squeezing.DephasingModel(
        gamma_th=gamma_th, gamma_phi=gamma_phi, initial=initial), times)
    rates = squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
    tol = 1e-4
    result = squeezing.extract_dephasing(rates.delta, initial,
                                         gamma_th=gamma_th, times=times,
                                         tol=tol)
    assert abs(result.gamma_phi - gamma_phi) <= tol


# ---- the dephasing inversion against the parent's per-evaluation curve

def _reference_curve(gamma_phi, initial, times):
    centred = times - times.mean()
    decay = np.exp(-4.0 * TWO_PI * np.multiply.outer(gamma_phi, times))
    return (-2.0 * abs(initial.b2) * (decay @ centred)
            / (TWO_PI * (centred @ centred)))


def _reference_bisect(below, hi, tol):
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_invert(target, initial, times, tol):
    if target == 0.0:
        return 0.0
    if target < 0.0:
        raise InvalidArgument(
            "rate difference must be >= 0 for a squeezed state")
    beyond = InvalidArgument(f"rate difference {target:.4g} Hz beyond the "
                             "achievable range for this initial state")
    hi, last = 1.0, -math.inf
    for _ in range(60):
        value = _reference_curve(hi, initial, times)
        if value >= target:
            break
        if value < last:
            weights = (times - times.mean()) * times
            hi = _reference_bisect(
                lambda x: weights @ np.exp(-4.0 * TWO_PI * x * times) > 0.0,
                hi, tol)
            if _reference_curve(hi, initial, times) < target:
                raise beyond
            break
        last = value
        hi *= 2.0
    else:
        raise beyond
    return _reference_bisect(
        lambda x: _reference_curve(x, initial, times) < target, hi, tol)


def _reference_extraction(delta, initial, times, delta_err, n_th_err, r_err,
                          tol):
    """(gamma_phi, lo, hi, curve_delta) as the curve evaluated with all
    its constants per call and one inversion per request gave them."""
    target = float(delta)
    curve_phi = np.linspace(0.0, 4.0 * max(target, delta_err, 1e-3), 33)
    curve_delta = _reference_curve(curve_phi, initial, times)
    n_th, r = initial.squeezed_thermal_params
    n_th = max(n_th, 0.0)
    gamma_phi = _reference_invert(target, initial, times, tol)
    stiff = GaussianMechState.squeezed_thermal(n_th + n_th_err, r + r_err)
    soft = GaussianMechState.squeezed_thermal(max(n_th - n_th_err, 0.0),
                                              max(r - r_err, 1e-6))
    lo = _reference_invert(max(target - delta_err, 0.0), stiff, times, tol)
    hi = _reference_invert(target + delta_err, soft, times, tol)
    return gamma_phi, lo, hi, curve_delta


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _extraction_inputs(count, seed):
    """Seeded (delta, initial, times, delta_err, n_th_err, r_err, tol):
    targets on the curve, between its points and beyond its maximum (or
    below 0), each error zero or not."""
    rng = np.random.default_rng(seed)
    grids = [np.linspace(0.0, span, points) for points in (6, 11, 25)
             for span in (5e-3, 12e-3)]
    cases = [(74.13, GaussianMechState.squeezed_thermal(0.4, 0.6), TIMES_5MS,
              0.0, 0.0, 0.0, 1e-4),
             (74.9, GaussianMechState.squeezed_thermal(0.4, 0.6), TIMES_5MS,
              0.0, 0.0, 0.0, 1e-4)]
    for _ in range(count):
        initial = GaussianMechState.squeezed_thermal(rng.uniform(0.0, 2.0),
                                                     rng.uniform(0.05, 1.0))
        times = grids[rng.integers(len(grids))]
        peak = abs(initial.b2) * 40.0
        delta = [float(_reference_curve(rng.uniform(0.0, 5.0), initial,
                                        times)),
                 rng.uniform(-0.1, 1.2) * peak,
                 rng.uniform(0.0, 3.0)][rng.integers(3)]
        errors = rng.uniform(0.0, 0.3, 3) * rng.integers(0, 2, 3)
        cases.append((delta, initial, times, *errors,
                      [1e-4, 1e-6][rng.integers(2)]))
    return cases


def test_extraction_bit_identical_to_per_evaluation_curve():
    # the curve with its constants fixed per solve and the shared roots give
    # the same doubles and the same errors as the parent's inversion
    raised = 0
    for delta, initial, times, d_err, n_err, r_err, tol in \
            _extraction_inputs(520, seed=20):
        want = _outcome(lambda: _reference_extraction(
            delta, initial, times, d_err, n_err, r_err, tol))

        def run():
            got = squeezing.extract_dephasing(
                delta, initial, gamma_th=17.1, times=times, delta_err=d_err,
                n_th_err=n_err, r_err=r_err, tol=tol)
            return got.gamma_phi, got.lo, got.hi, got.curve_delta
        got = _outcome(run)
        if isinstance(want[0], type):
            raised += 1
            assert got == want
        else:
            assert got[:3] == want[:3]
            assert np.array_equal(got[3], want[3])
            # one Gphi at a time, as the bisection evaluates it
            curve = squeezing._forward_curve(abs(initial.b2), times)
            assert [curve(x) for x in got[:3]] \
                == [_reference_curve(x, initial, times) for x in got[:3]]
    assert 0 < raised < 260


def test_extraction_solves_each_distinct_root_once(monkeypatch):
    calls = []
    invert = squeezing._invert_delta

    def counted(*args):
        calls.append(args[0])
        return invert(*args)
    monkeypatch.setattr(squeezing, "_invert_delta", counted)
    initial = GaussianMechState.squeezed_thermal(0.4, 0.6)
    squeezing.extract_dephasing(1.1, initial, gamma_th=17.1, times=TIMES_5MS)
    assert len(calls) <= 2          # lo and hi share one root

    # a state rebuilt from its own (n_th, r) whose |b2_0| survives the
    # round trip: all three requests are the same root
    for n_th in np.linspace(0.1, 2.0, 40):
        survivor = GaussianMechState.squeezed_thermal(
            *GaussianMechState.squeezed_thermal(n_th, 0.5)
            .squeezed_thermal_params)
        again = GaussianMechState.squeezed_thermal(
            *survivor.squeezed_thermal_params)
        if abs(again.b2) == abs(survivor.b2):
            break
    else:
        pytest.fail("no |b2_0| survived the (n_th, r) round trip")
    calls.clear()
    squeezing.extract_dephasing(1.1, survivor, gamma_th=17.1,
                                times=TIMES_5MS)
    assert len(calls) == 1

    calls.clear()
    squeezing.extract_dephasing(1.1, initial, gamma_th=17.1, times=TIMES_5MS,
                                delta_err=0.6, n_th_err=0.2, r_err=0.1)
    assert len(calls) == 3


@settings(max_examples=150, deadline=None)
@given(n_th=st.floats(0.0, 2.0), r=st.floats(0.05, 1.0),
       gamma_phi=st.floats(0.0, 5.0),
       errors=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_extraction_interval_contains_estimate(n_th, r, gamma_phi, errors):
    # nonnegative input errors widen the interval on both sides: the stiff
    # state under the low target gives a smaller root, the soft state under
    # the high target a larger one (each to the bisection's tol)
    initial = GaussianMechState.squeezed_thermal(n_th, r)
    delta = float(squeezing._forward_curve(abs(initial.b2), TIMES_5MS)(
        gamma_phi))
    tol = 1e-4
    try:
        result = squeezing.extract_dephasing(
            delta, initial, gamma_th=17.1, times=TIMES_5MS,
            delta_err=errors[0], n_th_err=errors[1], r_err=errors[2],
            tol=tol)
    except InvalidArgument as exc:
        assert "beyond the achievable range" in str(exc)
        return
    assert result.lo <= result.gamma_phi + tol
    assert result.hi >= result.gamma_phi - tol
