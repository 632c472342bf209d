"""Dissipative squeezing and dephasing-limited thermalization.

Two balanced-detuned pumps cool a Bogoliubov mode beta = cosh(r) b +
sinh(r) b^dag with tanh(r) = sqrt(Gamma_b/Gamma_r); its ground state is a
squeezed state of motion.  Free evolution of such a phase-sensitive state is
the probe for pure dephasing: under

    drho/dt = 2 pi [ Gth D[b] + Gth D[b^dag] + 2 Gphi D[b^dag b] ] rho

(the high-bath-occupation form) the occupation grows as d<n>/dt = 2 pi Gth
while <b^2> decays as exp(-8 pi Gphi t), so the squeezed/anti-squeezed
variance slopes split by 8 Gphi sinh(r) cosh(r) (1 + 2 n_th) in cyclic
units.  Closed moment equations are the primary engine; the truncated-Fock
density-matrix solver is the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import TWO_PI
from .errors import (
    InvalidArgument,
    NonPositiveRate,
    StepRejectionOverflow,
    TruncationNonConvergence,
    UnstableSqueeze,
)
from .fitting import linear_fit
from .tomography import GaussianMechState


@dataclass(frozen=True)
class SqueezeDrive:
    """Red/blue pump pair of the dissipative squeezing scheme.

    gamma_r/gamma_b are the optomechanical damping/anti-damping rates [Hz];
    ratio_db = 10 log10(gamma_b/gamma_r); r_target the squeezing parameter
    with tanh(r) = sqrt(gamma_b/gamma_r); coupling_g the Bogoliubov-mode
    coupling sqrt(kappa/4) sqrt(gamma_r - gamma_b) [Hz].
    """

    gamma_r: float
    gamma_b: float
    ratio_db: float
    r_target: float
    coupling_g: float


def squeeze_drive(gamma_r: float, gamma_b: float,
                  kappa: float) -> SqueezeDrive:
    """Build a SqueezeDrive with the derived fields populated."""
    if gamma_b < 0.0 or gamma_r <= 0.0:
        raise NonPositiveRate("need gamma_r > 0 and gamma_b >= 0")
    if gamma_b >= gamma_r:
        raise UnstableSqueeze(
            "gamma_b >= gamma_r: the Bogoliubov mode is not damped")
    if gamma_b > 0.0 and gamma_b / gamma_r == 0.0:
        raise NonPositiveRate(f"gamma_b / gamma_r = {gamma_b!r} / "
                              f"{gamma_r!r} underflows to 0")
    ratio_db = 10.0 * math.log10(gamma_b / gamma_r) if gamma_b > 0 \
        else -math.inf
    r = math.atanh(math.sqrt(gamma_b / gamma_r))
    coupling = math.sqrt(kappa / 4.0) * math.sqrt(gamma_r - gamma_b)
    return SqueezeDrive(gamma_r=gamma_r, gamma_b=gamma_b, ratio_db=ratio_db,
                        r_target=r, coupling_g=coupling)


def squeeze_target(drive: SqueezeDrive):
    """Ideal steady state of the drive: (r, var_sq, var_asq).

    r = atanh(sqrt(gamma_b/gamma_r)); the ideal variances are e^{-2r}/2 and
    e^{+2r}/2 (pure squeezed vacuum; thermal occupation degrades this).
    """
    r = drive.r_target
    return r, 0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r)


def squeezing_limit(n_m_th: float, cooperativity: float) -> float:
    """Steady-state squeezing bound 2<X_sq^2> = sqrt((1 + 2 n_m_th)/C), in dB."""
    if not 0.0 < cooperativity < math.inf:
        raise NonPositiveRate("cooperativity must be finite and > 0")
    if n_m_th < 0.0:
        raise NonPositiveRate("n_m_th must be >= 0")
    return 10.0 * math.log10(math.sqrt((1.0 + 2.0 * n_m_th) / cooperativity))


@dataclass(frozen=True)
class DephasingModel:
    """Free-evolution model: thermal decoherence plus pure dephasing.

    mode "high_temperature" is the equal-rate dissipator pair (valid for
    n_m_th >> 1, no equilibrium); "finite_temperature" uses Gamma_m(n+1)/
    Gamma_m n dissipators and saturates at n_m_th (needs gamma_m, n_m_th).
    truncation_dim caps the Fock space of the density-matrix solver; None
    selects it adaptively.
    """

    gamma_th: float
    gamma_phi: float
    initial: GaussianMechState
    truncation_dim: int | None = None
    mode: str = "high_temperature"
    gamma_m: float | None = None
    n_m_th: float | None = None

    def __post_init__(self):
        # the moment equations scale the rates by up to 8 pi
        if not all(0.0 <= rate and math.isfinite(4.0 * TWO_PI * rate)
                   for rate in (self.gamma_th, self.gamma_phi)):
            raise NonPositiveRate("rates must be >= 0, and 8 pi times a "
                                  "rate finite")
        if self.mode not in ("high_temperature", "finite_temperature"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "finite_temperature" and (
                self.gamma_m is None or self.n_m_th is None):
            raise ValueError("finite_temperature mode needs gamma_m and n_m_th")


@dataclass(frozen=True)
class MomentTrajectory:
    times: np.ndarray
    n: np.ndarray
    b2: np.ndarray              # complex <b^2>
    v_sq: np.ndarray
    v_asq: np.ndarray


def moments_evolve(model: DephasingModel, times) -> MomentTrajectory:
    """Exact second-moment evolution under the dephasing master equation.

    High-temperature form: d<n>/dt = 2 pi Gth (linear heating), d<b^2>/dt =
    -2 pi (4 Gphi) <b^2>.  Finite-temperature form relaxes n to n_m_th at
    2 pi Gamma_m and adds that decay to <b^2>.  Axis variances are
    1/2 + n -+ |<b^2>| along the principal axes.
    """
    t = np.asarray(times, dtype=float)
    n0 = model.initial.n
    b2_0 = model.initial.b2
    phi_decay = np.exp(-4.0 * TWO_PI * model.gamma_phi * t)
    if model.mode == "high_temperature":
        n = n0 + TWO_PI * model.gamma_th * t
        b2 = b2_0 * phi_decay
    else:
        relax = np.exp(-TWO_PI * model.gamma_m * t)
        n = model.n_m_th + (n0 - model.n_m_th) * relax
        b2 = b2_0 * relax * phi_decay
    mag = np.abs(b2)
    return MomentTrajectory(times=t, n=n, b2=b2, v_sq=0.5 + n - mag,
                            v_asq=0.5 + n + mag)


@dataclass(frozen=True)
class DecoherenceRates:
    """Linear-fit decoherence rates of the axis variances [Hz, cyclic].

    Dephasing conserves <n>, so the mean slope (gamma_sq + gamma_asq)/2 is
    the thermal decoherence rate.
    """

    gamma_sq: float
    gamma_asq: float
    gamma_sq_err: float = 0.0
    gamma_asq_err: float = 0.0

    @property
    def delta(self) -> float:
        return self.gamma_sq - self.gamma_asq

    @property
    def delta_err(self) -> float:
        return math.hypot(self.gamma_sq_err, self.gamma_asq_err)


def decoherence_rates(times, v_sq, v_asq) -> DecoherenceRates:
    """Fit the variance slopes; rates are reported cyclic (slope / 2 pi)."""
    fit_sq = linear_fit(times, v_sq)
    fit_asq = linear_fit(times, v_asq)
    return DecoherenceRates(
        gamma_sq=fit_sq.slope / TWO_PI,
        gamma_asq=fit_asq.slope / TWO_PI,
        gamma_sq_err=fit_sq.slope_err / TWO_PI,
        gamma_asq_err=fit_asq.slope_err / TWO_PI)


def initial_slope_delta(model: DephasingModel) -> float:
    """Closed-form t -> 0 slope difference [Hz, cyclic].

    delta = 8 Gphi sinh(r) cosh(r) (1 + 2 n_th) for a squeezed thermal
    initial state; used as the oracle for fitted slope differences.
    """
    n_th, r = model.initial.squeezed_thermal_params
    return (8.0 * model.gamma_phi * math.sinh(r) * math.cosh(r)
            * (1.0 + 2.0 * n_th))


# ---- truncated-Fock density-matrix solver ----

#: step between the rungs of the truncation-dimension ladder
LADDER_STEP = 32
#: Fock-dimension cap of the density-matrix solver
MAX_DIM = 1024
#: series weight left out of a propagation, at its latest output time
SERIES_TAIL = 1e-16
#: series terms whose contributions are summed in one matrix product
_CHUNK = 32


def _squeezed_thermal_rho(n_th: float, r: float, theta: float,
                          dim: int) -> np.ndarray:
    """Density matrix of a squeezed thermal state in a truncated Fock basis.

    The squeeze generator r/2 (b^2 - b^dag^2) is real and couples level n
    only to n -+ 2, so its exponential S is block diagonal in the even and
    odd levels: each parity sector is (S p) @ S^T with S one real half-size
    expm and p the sector's thermal populations.  The rotation phase
    e^{i theta (j - l)} is applied afterwards; the matrix is real when
    theta is 0 and complex otherwise.
    """
    from scipy.linalg import expm
    levels = np.arange(dim)
    if n_th > 0.0:
        q = n_th / (1.0 + n_th)
        populations = (1.0 - q) * q**levels
    else:
        populations = np.zeros(dim)
        populations[0] = 1.0
    rho = np.zeros((dim, dim))
    for parity in range(min(dim, 2)):
        sector = levels[parity::2]
        pair = np.diag(np.sqrt(sector[1:] * (sector[1:] - 1.0)), 1)
        squeeze = expm(0.5 * r * (pair - pair.T))
        rho[np.ix_(sector, sector)] = (squeeze * populations[sector]) \
            @ squeeze.T
    if theta != 0.0:
        phase = np.exp(1j * theta * levels)
        rho = (phase[:, None] * rho) * phase.conjugate()[None, :]
    return rho


def _initial_rho(model: DephasingModel, dim: int) -> np.ndarray:
    n_th, r = model.initial.squeezed_thermal_params
    return _squeezed_thermal_rho(n_th, r, model.initial.squeezed_axis_angle,
                                 dim)


def _offset_blocks(dim: int):
    """Fock indices (j, l) of the entries x_m = rho_{m+k, m} of the
    even-offset blocks k = 0, 2, 4, ... < dim, stored block after block
    with m = 0 ... dim - 1 - k inside each block."""
    offsets = np.arange(0, dim, 2)
    lengths = dim - offsets
    k = np.repeat(offsets, lengths)
    m = np.arange(k.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return m + k, m


def _block_generator(model: DephasingModel, j: np.ndarray, l: np.ndarray,
                     dim: int):
    """Thermal Lindblad generator on the stacked offset blocks.

    Down- and up-jumps (D[b] and D[b^dag]) keep k = j - l fixed, so the
    generator is block diagonal with one tridiagonal block per offset: x_m
    is fed from x_{m+1} at down sqrt((j+1)(l+1)) and from x_{m-1} at
    up sqrt(j l), and decays at down (j+l)/2 + up (a_j + a_l)/2 with
    a_j = j + 1 the diagonal of the truncated b b^dag (a_{dim-1} = 0, which
    keeps the trace exact).  Returned as its three diagonals (below,
    diagonal, above): row i reads below[i - 1] x_{i-1} and above[i] x_{i+1}.
    Both vanish across a block boundary (l = 0 below, j = dim - 1 above).
    """
    if model.mode == "high_temperature":
        down = up = TWO_PI * model.gamma_th
    else:
        down = TWO_PI * model.gamma_m * (model.n_m_th + 1.0)
        up = TWO_PI * model.gamma_m * model.n_m_th
    j = j.astype(float)
    l = l.astype(float)
    top = j == dim - 1
    fill_j = np.where(top, 0.0, j + 1.0)
    fill_l = np.where(l == dim - 1, 0.0, l + 1.0)
    diagonal = -0.5 * down * (j + l) - 0.5 * up * (fill_j + fill_l)
    from_above = np.where(top, 0.0, down * np.sqrt((j + 1.0) * (l + 1.0)))
    from_below = up * np.sqrt(j * l)
    return from_below[1:], diagonal, from_above[:-1]


def _series_weights(chebyshev: bool, scale: float,
                    times: np.ndarray) -> np.ndarray:
    """Weights w_n(t), terms x times, of exp(tA) v = sum_n w_n(t) u_n.

    Chebyshev: (2 - delta_n0) ive(n, scale t / 2); uniformization: the
    Poisson weights of mean scale t, taken in logs.  Each set is a
    probability distribution in n (of |D|, D the difference of two Poisson
    counts of mean scale t / 4, and of one Poisson count) whose tail grows
    with t, so the latest time sets the cut: the series ends where the
    weight left out is below SERIES_TAIL at every time.  The kept weights
    are scaled to sum to 1 at each time, which keeps the trace: the logs
    round the Poisson weights' sum by 2e-12 at a mean of 2600.
    """
    from scipy.special import gammaln, ive, xlogy

    def weights(terms, x):
        n = np.arange(terms)[:, None]
        if chebyshev:
            return np.where(n == 0, 1.0, 2.0) * ive(n, 0.5 * x)
        return np.exp(xlogy(n, x) - x - gammaln(n + 1.0))

    last = scale * float(np.max(times))
    mean = 0.0 if chebyshev else last     # |D| has spread sqrt(last / 2)
    size = math.ceil(mean + 10.0 * math.sqrt(last) + 40.0)
    while True:
        left_out = np.cumsum(weights(size, np.array([last]))[::-1, 0])[::-1]
        cut = np.flatnonzero(left_out < SERIES_TAIL)
        if cut.size:
            kept = weights(max(int(cut[0]), 1), scale * times)
            return kept / kept.sum(axis=0)
        size *= 2


def _tridiagonal(coefficients, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = T x on each row of x, with T given by its three diagonals."""
    below, diagonal, above = coefficients
    np.multiply(diagonal, x, out=out)
    out[:, 1:] += below * x[:, :-1]
    out[:, :-1] += above * x[:, 1:]
    return out


def _thermal_series(generator, rows: np.ndarray, times: np.ndarray,
                    symmetric: bool):
    """exp(tA) on `rows` at every time, from one pass of a three-term
    series in the thermal generator A: (stack of times x rows, terms).

    A is contractive and trace preserving, so its real spectrum lies in
    [a, 0], with a the Gershgorin lower end.  For symmetric blocks the
    series is Chebyshev's: u_n = T_n(X) v with X = I + 2A/(-a), and
    |T_n(X)| <= 1 in the 2-norm.  Otherwise it is uniformization: u_n =
    P^n v with P = I + A/lam and lam = max |diag A|; P is entrywise >= 0
    with column sums <= 1, so |P^n| <= 1 in the 1-norm.  The terms are
    summed into all times _CHUNK at a time, as one matrix product.
    """
    below, diagonal, above = generator
    if symmetric:
        gershgorin = diagonal.copy()
        gershgorin[1:] -= below
        gershgorin[:-1] -= above
        scale = -min(float(gershgorin.min()), 0.0)
        shift, gain = 2.0, 4.0      # step = 2X = 2I + 4A/(-a)
    else:
        scale = -min(float(diagonal.min()), 0.0)
        shift, gain = 1.0, 1.0      # step = P = I + A/lam
    factor = gain / scale if scale > 0.0 else 0.0
    step = (factor * below, shift + factor * diagonal, factor * above)
    weights = _series_weights(symmetric, scale, times)
    terms = weights.shape[0]
    basis = np.empty((min(_CHUNK, terms),) + rows.shape)
    basis[0] = rows
    stack = np.zeros((times.size, rows.size))
    for n in range(1, terms):
        slot = n % _CHUNK
        if slot == 0:
            stack += weights[n - _CHUNK:n].T @ basis.reshape(_CHUNK, -1)
        term = _tridiagonal(step, basis[(n - 1) % _CHUNK], basis[slot])
        if symmetric:   # T_1 = X v, T_n = 2X T_{n-1} - T_{n-2}
            if n == 1:
                term *= 0.5
            else:
                term -= basis[(n - 2) % _CHUNK]
    done = (terms - 1) // _CHUNK * _CHUNK
    stack += weights[done:].T @ basis[:terms - done].reshape(terms - done, -1)
    return stack.reshape((times.size,) + rows.shape), terms


def _min_eigenvalues(stack: np.ndarray, dim: int) -> np.ndarray:
    """Smallest eigenvalue of rho at every time, from its even- and
    odd-level sectors of the offset-block stack that _propagate returns.

    Even offsets never mix the parities, so rho is the direct sum of the
    two sectors; each is filled in its lower triangle (the k >= 0 blocks),
    which is the triangle eigvalsh reads.
    """
    j, l = _offset_blocks(dim)
    least = np.full(stack.shape[0], np.inf)
    for parity in (0, 1):
        select = l % 2 == parity
        size = (dim + 1 - parity) // 2
        if size:
            sector = np.zeros((stack.shape[0], size, size), dtype=stack.dtype)
            sector[:, j[select] // 2, l[select] // 2] = stack[:, select]
            least = np.minimum(least, np.linalg.eigvalsh(sector)[:, 0])
    return least


@dataclass(frozen=True)
class LindbladTrajectory:
    times: np.ndarray
    n: np.ndarray
    b2: np.ndarray
    v_sq: np.ndarray
    v_asq: np.ndarray
    var_x1: np.ndarray
    var_x2: np.ndarray
    dim: int
    trace_dev: np.ndarray        # |Tr rho - 1| per step
    min_eigenvalue: np.ndarray   # smallest eigenvalue per step
    top_population: np.ndarray   # highest-level population per step
    terms: int                   # series terms of the propagation
    rungs: tuple                 # truncation dimensions tried, in order


def _propagate(model: DephasingModel, times: np.ndarray, rho: np.ndarray):
    """Evolve the even-offset blocks of rho at its truncation dimension:
    (trajectory, stack), the stack holding the blocks at every time.

    The initial squeezed thermal state has only even offsets k = j - l, and
    the master equation keeps each offset, so the k >= 0 even blocks carry
    the whole state (k < 0 are their complex conjugates): about dim^2 / 4
    entries.  The thermal part acts on them through the tridiagonal
    generator of _block_generator, and every output time comes from one
    pass of _thermal_series: Chebyshev in high-temperature mode, where
    down == up makes every block symmetric, and uniformization in
    finite-temperature mode, where the blocks are symmetric only up to a
    diagonal similarity of condition number (down/up)^{dim/2}, which can
    cost a Chebyshev series all its digits.  Pure dephasing acts as the scalar
    -2 pi Gphi k^2 on block k; it commutes with the thermal part and is
    applied as exp(-2 pi Gphi k^2 t), which keeps the stiff k^2 rates out
    of the series.  <n>, the trace and the top population come from block
    0 and <b^2> from block 2.  The trajectory's min_eigenvalue is left
    None: acceptance does not read it, and lindblad_evolve computes it
    (_min_eigenvalues) for the rung it returns only.
    """
    dim = rho.shape[0]
    j, l = _offset_blocks(dim)
    state = rho[j, l]
    rows = np.stack([state.real, state.imag]) if np.iscomplexobj(state) \
        else state[None, :]
    series, terms = _thermal_series(_block_generator(model, j, l, dim), rows,
                                    times, model.mode == "high_temperature")
    stack = series[:, 0] + 1j * series[:, 1] if rows.shape[0] == 2 \
        else series[:, 0]
    dephasing = -TWO_PI * model.gamma_phi * ((j - l) ** 2).astype(float)
    stack = stack * np.exp(np.outer(times, dephasing))

    finite = np.all(np.isfinite(stack), axis=1)
    if not np.all(finite):
        raise StepRejectionOverflow(
            f"non-finite density matrix at t = {times[np.argmin(finite)]:g}"
            f" s (dim {dim})")

    levels = np.arange(dim)
    populations = stack[:, :dim].real
    out_n = populations @ levels
    trace_dev = np.abs(populations.sum(axis=1) - 1.0)
    top_pop = populations[:, -1]
    pair = np.sqrt((levels[:-2] + 1.0) * (levels[:-2] + 2.0))
    out_b2 = (stack[:, dim:2 * dim - 2] @ pair).astype(complex)

    mag = np.abs(out_b2)
    return LindbladTrajectory(
        times=times, n=out_n, b2=out_b2, v_sq=0.5 + out_n - mag,
        v_asq=0.5 + out_n + mag,
        var_x1=0.5 + out_n + np.real(out_b2),
        var_x2=0.5 + out_n - np.real(out_b2),
        dim=dim, trace_dev=trace_dev, min_eigenvalue=None,
        top_population=top_pop, terms=terms, rungs=(dim,)), stack


def _tail_dimension(model: DephasingModel, times: np.ndarray):
    """First rung of the dimension ladder and its initial state: (dim, rho).

    It starts at eight times the largest anti-squeezed variance along the
    moment trajectory (the initial state included), rounded up to a
    multiple of LADDER_STEP, and rises by LADDER_STEP until the initial
    state's two top populations are below 1e-10.  The moments only place
    the start; acceptance rests on the solver's own tests.  A start above
    MAX_DIM raises TruncationNonConvergence before any propagation.
    """
    v_asq = float(np.max(moments_evolve(model, np.append(0.0, times)).v_asq))
    dim = max(LADDER_STEP,
              LADDER_STEP * math.ceil(8.0 * v_asq / LADDER_STEP))
    if dim > MAX_DIM:
        raise TruncationNonConvergence(
            f"the trajectory reaches an anti-squeezed variance of "
            f"{v_asq:.4g}, which needs about {dim} Fock levels, above the "
            f"dimension cap {MAX_DIM}")
    while dim <= MAX_DIM:
        rho = _initial_rho(model, dim)
        if float(np.real(rho[-1, -1])) < 1e-10 \
                and float(np.real(rho[-2, -2])) < 1e-10:
            return dim, rho
        dim += LADDER_STEP
    raise TruncationNonConvergence(
        f"initial-state tail not below 1e-10 within the dimension cap "
        f"{MAX_DIM}")


def _moment_drift(a: LindbladTrajectory, b: LindbladTrajectory) -> float:
    scale = max(float(np.max(np.abs(a.n))), 1.0)
    return max(float(np.max(np.abs(a.n - b.n))) / scale,
               float(np.max(np.abs(a.v_sq - b.v_sq))) / scale,
               float(np.max(np.abs(a.v_asq - b.v_asq))) / scale)


def lindblad_evolve(model: DephasingModel, times) -> LindbladTrajectory:
    """Density-matrix evolution in a truncated Fock basis.

    The state is propagated as its even coherence-offset blocks by one
    Chebyshev or uniformization series per truncation dimension (see
    _propagate), an independent oracle for the moment equations.  The
    truncation dimension climbs a ladder in steps of LADDER_STEP from the
    start set by _tail_dimension, whose initial state the first rung
    reuses; each rung is the stability reference for the next, and rung
    i >= 1 is accepted once its top-level population stays below 1e-8
    along the whole trajectory and its moments agree with rung i - 1 to
    1e-4 relative.  An explicit model.truncation_dim bypasses the ladder
    but is still checked.  The trajectory records the dimensions tried
    (rungs) and the series length of the accepted one (terms); its minimum
    eigenvalues are computed for the returned rung only.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be >= 0 and sorted")

    if model.truncation_dim is not None:
        traj, stack = _propagate(
            model, times, _initial_rho(model, int(model.truncation_dim)))
        if traj.top_population.max() > 1e-8:
            raise TruncationNonConvergence(
                f"top-level population {traj.top_population.max():.3g} > 1e-8 "
                f"at fixed dim {model.truncation_dim}")
    else:
        start, rho = _tail_dimension(model, times)
        traj = _propagate(model, times, rho)[0]
        for dim in range(start + LADDER_STEP, MAX_DIM + 1, LADDER_STEP):
            reference = traj
            traj, stack = _propagate(model, times, _initial_rho(model, dim))
            traj = replace(traj, rungs=reference.rungs + traj.rungs)
            if (traj.top_population.max() < 1e-8
                    and _moment_drift(traj, reference) < 1e-4):
                break
        else:
            raise TruncationNonConvergence(
                f"moments not stable below the dimension cap {MAX_DIM}")
    return replace(traj, min_eigenvalue=_min_eigenvalues(stack, traj.dim))


# ---- dephasing extraction ----

#: samples of the forward curve delta(Gamma_phi) kept in an extraction
CURVE_POINTS = 33


@dataclass(frozen=True)
class DephasingExtraction:
    gamma_phi: float
    lo: float
    hi: float
    curve_phi: np.ndarray       # sampled Gamma_phi grid of the forward curve
    curve_delta: np.ndarray     # corresponding rate differences


def _delta_curve(gamma_phi, initial: GaussianMechState, times):
    """Slope difference [Hz, cyclic] of the unweighted fits over `times` of
    v = 1/2 + n -+ |b2_0| e^{-8 pi Gphi t}, for one Gphi or an array: <n>
    cancels, leaving -2 |b2_0| sum (t - tbar) e^{-8 pi Gphi t}
    / (2 pi sum (t - tbar)^2)."""
    centred = times - times.mean()
    decay = np.exp(-4.0 * TWO_PI * np.multiply.outer(gamma_phi, times))
    return (-2.0 * abs(initial.b2) * (decay @ centred)
            / (TWO_PI * (centred @ centred)))


def _delta_peak(times, hi, tol):
    """Gphi of the maximum of _delta_curve below `hi`, to `tol`: the
    curve's slope has the sign of sum_i (t_i - tbar) t_i e^{-8 pi Gphi t_i},
    which changes once, from + at 0 to -."""
    weights = (times - times.mean()) * times
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if weights @ np.exp(-4.0 * TWO_PI * mid * times) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _invert_delta(target, initial, times, tol):
    if target == 0.0:
        return 0.0
    if target < 0.0:
        raise InvalidArgument(
            "rate difference must be >= 0 for a squeezed state")
    beyond = InvalidArgument(f"rate difference {target:.4g} Hz beyond the "
                             "achievable range for this initial state")
    lo, hi, last = 0.0, 1.0, -math.inf
    for _ in range(60):
        value = _delta_curve(hi, initial, times)
        if value >= target:
            break
        if value < last:        # doubling stepped over the maximum
            hi = _delta_peak(times, hi, tol)
            if _delta_curve(hi, initial, times) < target:
                raise beyond
            break
        last = value
        hi *= 2.0
    else:
        raise beyond
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _delta_curve(mid, initial, times) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def extract_dephasing(observed, initial: GaussianMechState, *,
                      gamma_th: float, times=None, delta_err: float = 0.0,
                      n_th_err: float = 0.0, r_err: float = 0.0,
                      tol: float = 1e-4) -> DephasingExtraction:
    """Invert the slope-difference curve to the pure dephasing rate.

    observed is a DecoherenceRates record or the rate difference in Hz
    (cyclic).  The forward curve over `times` (default 0-5 ms) is
    _delta_curve, from which gamma_th cancels.  It rises to one maximum and
    falls (its derivative is a sum of exponentials whose coefficients
    (t_i - tbar) t_i change sign once); doubling then bisection returns the
    rising-branch root to `tol` Hz.  Input errors propagate by interval
    arithmetic: the upper bound pairs the high rate difference with the
    least-sensitive initial state and vice versa.
    """
    if isinstance(observed, DecoherenceRates):
        target = observed.delta
        if delta_err == 0.0:
            delta_err = observed.delta_err
    else:
        target = float(observed)
    if not (math.isfinite(target) and math.isfinite(delta_err)):
        raise InvalidArgument("rate difference and its error must be finite")
    if times is None:
        times = np.linspace(0.0, 5e-3, 11)
    times = np.asarray(times, dtype=float)

    phi_probe = max(target, delta_err, 1e-3)
    curve_phi = np.linspace(0.0, 4.0 * phi_probe, CURVE_POINTS)
    curve_delta = _delta_curve(curve_phi, initial, times)

    n_th, r = initial.squeezed_thermal_params
    n_th = max(n_th, 0.0)       # a pure state's n_th can round below 0
    gamma_phi = _invert_delta(target, initial, times, tol)

    lo_target = max(target - delta_err, 0.0)
    hi_target = target + delta_err
    stiff = GaussianMechState.squeezed_thermal(n_th + n_th_err, r + r_err)
    soft = GaussianMechState.squeezed_thermal(max(n_th - n_th_err, 0.0),
                                              max(r - r_err, 1e-6))
    lo = _invert_delta(lo_target, stiff, times, tol)
    hi = _invert_delta(hi_target, soft, times, tol)
    return DephasingExtraction(gamma_phi=gamma_phi, lo=lo, hi=hi,
                               curve_phi=curve_phi, curve_delta=curve_delta)
