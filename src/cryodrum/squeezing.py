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
from .errors import (FINITE, NON_NEGATIVE, POSITIVE, InvalidArgument,
                     StepRejectionOverflow, TruncationNonConvergence,
                     UnstableSqueeze, require)
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
    """Build a SqueezeDrive with the derived fields populated, from finite
    gamma_r > 0 and kappa > 0 and 0 <= gamma_b < gamma_r (UnstableSqueeze
    otherwise); FloatingPointError when gamma_b / gamma_r underflows."""
    require(POSITIVE, gamma_r=gamma_r, kappa=kappa)
    if not gamma_b < gamma_r:
        raise UnstableSqueeze(f"gamma_b = {gamma_b!r}: must be < gamma_r = "
                              f"{gamma_r!r} for a damped Bogoliubov mode")
    require(NON_NEGATIVE, gamma_b=gamma_b)
    if gamma_b > 0.0 and gamma_b / gamma_r == 0.0:
        raise FloatingPointError(f"gamma_b / gamma_r = {gamma_b!r} / "
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
    require(POSITIVE, cooperativity=cooperativity)
    require(NON_NEGATIVE, n_m_th=n_m_th)
    return 10.0 * math.log10(math.sqrt((1.0 + 2.0 * n_m_th) / cooperativity))


#: a dephasing-model rate, which the moment equations scale by up to 8 pi
_RATE = ("finite and >= 0, with 8 pi times it finite",
         lambda v: 0.0 <= v and 4.0 * TWO_PI * v < math.inf)


@dataclass(frozen=True)
class DephasingModel:
    """Free-evolution model: thermal decoherence plus pure dephasing.

    Without gamma_m and n_m_th it is the high-temperature form, the
    equal-rate dissipator pair at gamma_th (valid for n_m_th >> 1, no
    equilibrium).  With both it is the finite-temperature form, Gamma_m
    (n + 1) / Gamma_m n dissipators that saturate at n_m_th.
    """

    gamma_th: float
    gamma_phi: float
    initial: GaussianMechState
    gamma_m: float | None = None
    n_m_th: float | None = None

    def __post_init__(self):
        require(_RATE, gamma_th=self.gamma_th, gamma_phi=self.gamma_phi)
        if (self.gamma_m is None) != (self.n_m_th is None):
            raise InvalidArgument("the finite-temperature form needs both "
                                  "gamma_m and n_m_th")
        if self.gamma_m is not None:
            require(POSITIVE, gamma_m=self.gamma_m)
            require(NON_NEGATIVE, n_m_th=self.n_m_th)


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
    if model.gamma_m is None:
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

    @property
    def delta(self) -> float:
        return self.gamma_sq - self.gamma_asq


def decoherence_rates(times, v_sq, v_asq) -> DecoherenceRates:
    """Fit the variance slopes; rates are reported cyclic (slope / 2 pi)."""
    return DecoherenceRates(gamma_sq=linear_fit(times, v_sq).slope / TWO_PI,
                            gamma_asq=linear_fit(times, v_asq).slope / TWO_PI)


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


def _bargmann(n_th: float, r: float):
    """(rho_00, a, c) of a squeezed thermal state at theta = 0.

    With N = (n_th + 1/2) cosh 2r - 1/2 and M = (n_th + 1/2) sinh 2r the
    state is rho_00 exp(a/2 b^dag^2) c^{b^dag b} exp(a/2 b^2), with D =
    (N + 1)^2 - M^2, rho_00 = 1/sqrt(D), a = -M/D and c = 1 - (N + 1)/D
    (Miatto & Quesada, Quantum 4, 366 (2020)).  With nu = n_th + 1/2, D =
    nu^2 + nu cosh 2r + 1/4 and c = n_th (n_th + 1)/D, forms free of
    cancellation; a pure state, whose n_th can round below 0, has c = 0.
    """
    nu = max(n_th, 0.0) + 0.5
    d = nu * nu + nu * math.cosh(2.0 * r) + 0.25
    return (1.0 / math.sqrt(d), -nu * math.sinh(2.0 * r) / d,
            (nu - 0.5) * (nu + 0.5) / d)


def _gram_factor(a: float, c: float, parity: int, size: int) -> np.ndarray:
    """Lower-triangular F, size x size, with F F^T the parity sector of
    P rho P / rho_00 (P the projector on the levels below 2 size + parity).

    Row i and column i' stand for the levels m = parity + 2i and
    m' = parity + 2i'.  F is E c^{b^dag b / 2} with E = P exp(a/2 b^dag^2) P,
    E_{m' + 2k, m'} = (a/2)^k / k! sqrt((m' + 2k)! / m'!): b^dag^2 only
    raises, so cutting E is exact.  Each column runs its ratio
    F_{i, i'} / F_{i - 1, i'} = (a/2) sqrt(m (m - 1)) / k from the diagonal
    down; its c^{m'/2} is applied half before and half after, so no column
    underflows on its way to a value that does not.
    """
    i = np.arange(size)
    levels = parity + 2.0 * i
    lag = i[:, None] - i
    ratio = np.divide((0.5 * a) * np.sqrt(levels * (levels - 1.0))[:, None],
                      lag, out=np.ones((size, size)), where=lag > 0)
    half = c ** (0.25 * levels)
    ratio[i, i] = half
    return np.tril(np.cumprod(ratio, axis=0)) * half


def _squeezed_thermal_rho(n_th: float, r: float, dim: int) -> np.ndarray:
    """P rho P, rho a squeezed thermal state with its squeezed axis on X1
    and P the projector on the Fock levels below dim.

    rho is rho_00 E c^{b^dag b} E^T (see _bargmann and _gram_factor), and
    E keeps the level parity, so each parity sector is rho_00 F F^T with F
    its Gram factor: a sum of positive-weighted outer products, real
    symmetric and positive semidefinite by construction, with trace 1
    minus the population above dim.  The factor of a smaller dim is the
    top-left block of a larger one, and so is P rho P.  The state turned
    by theta is e^{i theta (j - l)} rho_{jl}; _trajectory applies that turn
    to <b^2> alone.
    """
    rho_00, a, c = _bargmann(n_th, r)
    rho = np.zeros((dim, dim))
    for parity in range(min(dim, 2)):
        factor = _gram_factor(a, c, parity, (dim - parity + 1) // 2)
        rho[parity::2, parity::2] = rho_00 * (factor @ factor.T)
    return rho


def _top_populations(n_th: float, r: float, dim: int) -> np.ndarray:
    """Populations of levels dim - 2 and dim - 1 of P rho P (see
    _squeezed_thermal_rho): rho_00 times the squared norm of the last row
    of each Gram factor, without the product of the factors."""
    rho_00, a, c = _bargmann(n_th, r)
    return np.array([
        rho_00 * np.sum(_gram_factor(a, c, parity,
                                     (dim - parity + 1) // 2)[-1] ** 2)
        for parity in ((dim - 2) % 2, (dim - 1) % 2)])


def _initial_rho(model: DephasingModel, dim: int) -> np.ndarray:
    return _squeezed_thermal_rho(*model.initial.squeezed_thermal_params, dim)


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
                     dim):
    """Thermal Lindblad generator on the stacked offset blocks, at the
    truncation dimension `dim` (one for all entries, or one per entry).

    Down- and up-jumps (D[b] and D[b^dag]) keep k = j - l fixed, so the
    generator is block diagonal with one tridiagonal block per offset: x_m
    is fed from x_{m+1} at down sqrt((j+1)(l+1)) and from x_{m-1} at
    up sqrt(j l), and decays at down (j+l)/2 + up (a_j + a_l)/2 with
    a_j = j + 1 the diagonal of the truncated b b^dag (a_{dim-1} = 0, which
    keeps the trace exact).  Returned as its three diagonals (below,
    diagonal, above): row i reads below[i - 1] x_{i-1} and above[i] x_{i+1}.
    Both vanish across a block boundary (l = 0 below, j = dim - 1 above).
    """
    if model.gamma_m is None:
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


def _poisson_weights(mean: float, lo: int, size: int) -> np.ndarray:
    """Poisson weights of the counts lo ... lo + size - 1 at `mean`, over
    the weight of the mode floor(mean), which lies among them: the exact
    ratios p_k / p_{k-1} = mean / k multiplied out from the mode, so each
    carries only the rounding of its steps from the mode (Fox & Glynn,
    Commun. ACM 31, 440 (1988)).  Every caller normalises, so no log or
    lgamma is taken."""
    count = np.arange(lo, lo + size, dtype=float)
    at = math.floor(mean) - lo
    weight = np.ones(size)
    weight[at + 1:] = np.cumprod(mean / count[at + 1:])
    weight[:at] = np.cumprod((count[:at][::-1] + 1.0) / mean)[::-1]
    return weight


def _series_weights(chebyshev: bool, scale: float,
                    times: np.ndarray) -> np.ndarray:
    """Weights w_n(t), terms x times, of exp(tA) v = sum_n w_n(t) u_n.

    Chebyshev: (2 - delta_n0) ive(n, scale t / 2), taken as (2 - delta_n0)
    P(|D| = n), D the difference of two Poisson counts of mean mu =
    scale t / 4: P(D = n) = sum_k p_{k+n} p_k, a correlation of
    _poisson_weights whose terms are all >= 0, over the counts within 10
    spreads and 40 of mu, so it costs O(mu) per lag-spread.
    Uniformization: the _poisson_weights of mean scale t.  Each set is a
    probability distribution in n whose tail grows with t.  All are
    evaluated once, 10 spreads and 40 beyond the latest mean, past which
    Chernoff's bound leaves less than e^-50, and the latest time sets the
    cut: the series ends where the weight left out is below SERIES_TAIL at
    every time.  The kept weights are scaled to sum to 1 at each time,
    which keeps the trace.
    """
    last = scale * float(np.max(times))
    mean = 0.0 if chebyshev else last     # |D| has spread sqrt(last / 2)
    size = math.ceil(mean + 10.0 * math.sqrt(last) + 40.0)
    weights = np.empty((size, times.size))
    for col, x in enumerate(scale * times):
        if chebyshev:
            mu = 0.25 * x
            spread = 10.0 * math.sqrt(mu) + 40.0
            lo, hi = max(math.floor(mu - spread), 0), math.ceil(mu + spread)
            weight = _poisson_weights(mu, lo, hi - lo + size - 1)
            weights[:, col] = np.correlate(weight, weight[:hi - lo], "valid")
            weights[1:, col] *= 2.0
        else:
            weights[:, col] = _poisson_weights(x, 0, size)
    latest = weights[:, np.argmax(times)]
    left_out = np.cumsum(latest[::-1])[::-1] / latest.sum()
    kept = weights[:max(int(np.flatnonzero(left_out < SERIES_TAIL)[0]), 1)]
    return kept / kept.sum(axis=0)


def _tridiagonal(coefficients, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = T x, with T given by its three diagonals."""
    below, diagonal, above = coefficients
    np.multiply(diagonal, x, out=out)
    out[1:] += below * x[:-1]
    out[:-1] += above * x[1:]
    return out


def _thermal_series(generator, state: np.ndarray, times: np.ndarray,
                    symmetric: bool):
    """exp(tA) on the real vector `state` at every time, from one pass of
    a three-term series in the thermal generator A: (stack of times x
    entries, terms).

    A is contractive and trace preserving, so its real spectrum lies in
    [a, 0], with a the Gershgorin lower end.  For symmetric blocks the
    series is Chebyshev's: u_n = T_n(X) v with X = I + 2A/(-a), and
    |T_n(X)| <= 1 in the 2-norm.  Otherwise it is uniformization: u_n =
    P^n v with P = I + A/lam and lam = max |diag A|; P is entrywise >= 0
    with column sums <= 1, so |P^n| <= 1 in the 1-norm.  The terms are
    summed into all times _CHUNK at a time, as one matrix product.  A
    couples no entry across a block boundary, so blocks of two truncation
    dimensions can share one pass: each comes out as in a pass of its own
    stack, under the scale of the larger one, which bounds both spectra.
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
    basis = np.empty((min(_CHUNK, terms), state.size))
    basis[0] = state
    stack = np.zeros((times.size, state.size))
    for n in range(1, terms):
        slot = n % _CHUNK
        if slot == 0:
            stack += weights[n - _CHUNK:n].T @ basis
        term = _tridiagonal(step, basis[(n - 1) % _CHUNK], basis[slot])
        if symmetric:   # T_1 = X v, T_n = 2X T_{n-1} - T_{n-2}
            if n == 1:
                term *= 0.5
            else:
                term -= basis[(n - 2) % _CHUNK]
    done = (terms - 1) // _CHUNK * _CHUNK
    stack += weights[done:].T @ basis[:terms - done]
    return stack, terms


def _min_eigenvalues(stack: np.ndarray, dim: int) -> np.ndarray:
    """Smallest eigenvalue of rho at every time, from its even- and
    odd-level sectors of the offset-block stack that _propagate returns.

    Even offsets never mix the parities, so rho is the direct sum of the
    two sectors; each is filled in its lower triangle (the k >= 0 blocks),
    which is the triangle eigvalsh reads.  The stack is the unturned state
    (see _propagate); the turn is a diagonal unitary similarity, which
    leaves the spectrum as it is.
    """
    j, l = _offset_blocks(dim)
    least = np.full(stack.shape[0], np.inf)
    for parity in (0, 1):
        select = l % 2 == parity
        size = (dim + 1 - parity) // 2
        if size:
            sector = np.zeros((stack.shape[0], size, size))
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


def _trajectory(stack: np.ndarray, dim: int, times: np.ndarray,
                terms: int, theta: float) -> LindbladTrajectory:
    """One rung's trajectory from its blocks 0 and 2, the first 2 dim - 2
    entries of `stack`, each reduced row by row, so that equal rows give
    equal moments.  The stack holds the state with its squeezed axis on
    X1; the turn by theta multiplies block 2 by e^{2i theta}, so it turns
    <b^2> alone.  lindblad_evolve computes min_eigenvalue (left None) for
    the rung it returns only."""
    levels = np.arange(dim)
    populations = stack[:, :dim]
    out_n = (populations * levels).sum(axis=1)
    pair = np.sqrt((levels[:-2] + 1.0) * (levels[:-2] + 2.0))
    out_b2 = (stack[:, dim:2 * dim - 2] * pair).sum(axis=1) \
        * np.exp(2j * theta)
    mag = np.abs(out_b2)
    return LindbladTrajectory(
        times=times, n=out_n, b2=out_b2, v_sq=0.5 + out_n - mag,
        v_asq=0.5 + out_n + mag, var_x1=0.5 + out_n + np.real(out_b2),
        var_x2=0.5 + out_n - np.real(out_b2), dim=dim,
        trace_dev=np.abs(populations.sum(axis=1) - 1.0), min_eigenvalue=None,
        top_population=populations[:, -1], terms=terms, rungs=(dim,))


def _propagate(model: DephasingModel, times: np.ndarray, rho: np.ndarray,
               reference: int):
    """Evolve the even-offset blocks of rho at its truncation dimension,
    with blocks 0 and 2 of the smaller dimension `reference` riding in the
    same pass: (trajectory, stack, reference trajectory), the stack holding
    the blocks of rho at every time.

    rho is the real state with its squeezed axis on X1 (_initial_rho).  A
    turn by theta multiplies block k by e^{i theta k}, and the generator
    keeps that: its thermal rates depend on (j, l) only and its dephasing
    on k only.  So the real state is propagated and _trajectory turns
    <b^2>.  The state has only even offsets k = j - l, and the master
    equation keeps each offset, so the k >= 0 even blocks carry the whole
    state (k < 0 are their transposes): about dim^2 / 4 entries.  The
    thermal part acts on them through the tridiagonal generator of
    _block_generator, and every output time comes from one pass of
    _thermal_series: Chebyshev in the high-temperature form, where
    down == up makes every block symmetric, and uniformization in the
    finite-temperature form, where the blocks are symmetric only up to a
    diagonal similarity of condition number (down/up)^{dim/2}, which can
    cost a Chebyshev series all its digits.  Pure dephasing acts as the
    scalar -2 pi Gphi k^2 on block k; it commutes with the thermal part and is
    applied as exp(-2 pi Gphi k^2 t), which keeps the stiff k^2 rates out
    of the series.  The reference blocks, those of the top-left
    reference x reference state, follow the whole stack under their own
    dimension's generator; the larger dimension sets the scale, which
    bounds both spectra, so the trajectory and the stack are the same bit
    for bit whichever smaller reference rides along.
    """
    dim = rho.shape[0]
    j, l = _offset_blocks(dim)
    size = j.size
    ref_j, ref_l = (x[:2 * reference - 2] for x in _offset_blocks(reference))
    j, l = np.concatenate([j, ref_j]), np.concatenate([l, ref_l])
    dims = np.repeat([dim, reference], [size, ref_j.size])
    series, terms = _thermal_series(_block_generator(model, j, l, dims),
                                    rho[j, l], times, model.gamma_m is None)
    dephasing = -TWO_PI * model.gamma_phi * ((j - l) ** 2).astype(float)
    stack = series * np.exp(np.outer(times, dephasing))

    finite = np.all(np.isfinite(stack), axis=1)
    if not np.all(finite):
        raise StepRejectionOverflow(
            f"non-finite density matrix at t = {times[np.argmin(finite)]:g}"
            f" s (dim {dim})")

    theta = model.initial.squeezed_axis_angle
    return (_trajectory(stack, dim, times, terms, theta), stack[:, :size],
            _trajectory(stack[:, size:], reference, times, terms, theta))


def _tail_dimension(model: DephasingModel, times: np.ndarray):
    """First rung of the dimension ladder and the initial state built one
    rung above it: (dim, rho), rho at min(dim + LADDER_STEP, MAX_DIM)
    levels, whose top-left block is the state at every rung up to there.

    It starts at eight times the largest anti-squeezed variance along the
    moment trajectory (the initial state included), rounded up to a
    multiple of LADDER_STEP, and rises by LADDER_STEP until the initial
    state's two top populations (_top_populations, no matrix built) are
    below 1e-10.  The moments only place the start; acceptance rests on
    the solver's own tests.  A start above MAX_DIM, or a variance that
    overflows, raises TruncationNonConvergence before any propagation.
    """
    v_asq = float(np.max(moments_evolve(model, np.append(0.0, times)).v_asq))
    if not 8.0 * v_asq < math.inf:
        raise TruncationNonConvergence(
            f"the trajectory's anti-squeezed variance is {v_asq}, beyond "
            f"any dimension up to the cap {MAX_DIM}")
    dim = max(LADDER_STEP,
              LADDER_STEP * math.ceil(8.0 * v_asq / LADDER_STEP))
    if dim > MAX_DIM:
        raise TruncationNonConvergence(
            f"the trajectory reaches an anti-squeezed variance of "
            f"{v_asq:.4g}, which needs about {dim} Fock levels, above the "
            f"dimension cap {MAX_DIM}")
    n_th, r = model.initial.squeezed_thermal_params
    while dim <= MAX_DIM:
        if np.all(_top_populations(n_th, r, dim) < 1e-10):
            return dim, _initial_rho(model, min(dim + LADDER_STEP, MAX_DIM))
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

    The state is propagated real, with its squeezed axis on X1, as its
    even coherence-offset blocks, by one Chebyshev or uniformization
    series pass per truncation dimension (see _propagate), an independent
    oracle for the moment equations; the rotation turns <b^2> alone.  The
    truncation dimension climbs a ladder in steps of LADDER_STEP from the
    start set by _tail_dimension; each rung is the stability reference for
    the next, and rung i >= 1 is accepted once its top-level population
    stays below 1e-8 along the whole trajectory and its moments agree with
    rung i - 1 to 1e-4 relative.  Every pass has one shape: rung i's whole
    stack, with the moment blocks of rung i - 1 riding along under rung
    i's scale, so rung 0 is never propagated alone or returned.  Every
    rung takes its initial state as the top-left block of one build
    (_squeezed_thermal_rho), made by _tail_dimension one rung above the
    start and made again only when the ladder climbs past it.
    The trajectory records the dimensions tried (rungs) and the series
    length of the accepted one (terms); its minimum eigenvalues are
    computed for the returned rung only.  InvalidArgument unless times is
    a non-empty, sorted 1-d sequence of finite times >= 0.
    """
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size and np.all(0.0 <= times)
            and np.all(times < math.inf) and np.all(np.diff(times) >= 0.0)):
        raise InvalidArgument("times must be finite, >= 0 and sorted")

    start, rho = _tail_dimension(model, times)
    for dim in range(start + LADDER_STEP, MAX_DIM + 1, LADDER_STEP):
        if dim > rho.shape[0]:
            rho = _initial_rho(model, dim)
        traj, stack, reference = _propagate(model, times, rho[:dim, :dim],
                                            dim - LADDER_STEP)
        if (traj.top_population.max() < 1e-8
                and _moment_drift(traj, reference) < 1e-4):
            return replace(traj, rungs=tuple(range(start, dim + 1,
                                                   LADDER_STEP)),
                           min_eigenvalue=_min_eigenvalues(stack, dim))
    raise TruncationNonConvergence(
        f"moments not stable below the dimension cap {MAX_DIM}")


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


def _forward_curve(b2_abs, times):
    """delta(Gphi) [Hz, cyclic] for one |b2_0| over `times`, with its
    constants fixed once: the slope difference of the unweighted fits of
    v = 1/2 + n -+ |b2_0| e^{-8 pi Gphi t}, where <n> cancels, leaving
    -2 |b2_0| sum (t - tbar) e^{-8 pi Gphi t} / (2 pi sum (t - tbar)^2).
    The returned curve takes one Gphi, or an array of them with a trailing
    axis of length 1."""
    centred = times - times.mean()
    amp = -2.0 * b2_abs
    rate = -4.0 * TWO_PI
    denom = TWO_PI * (centred @ centred)
    return lambda gamma_phi: (amp * (np.exp(rate * (gamma_phi * times))
                                     @ centred) / denom)


def _bisect(below, hi, tol):
    """Midpoint of the bracket [0, hi] bisected to width `tol`, with
    below(x) true left of the point sought and false right of it."""
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _delta_peak(times, hi, tol):
    """Gphi of the maximum of _forward_curve below `hi`, to `tol`: the
    curve's slope has the sign of sum_i (t_i - tbar) t_i e^{-8 pi Gphi t_i},
    which changes once, from + at 0 to -."""
    weights = (times - times.mean()) * times
    return _bisect(lambda x: weights @ np.exp(-4.0 * TWO_PI * x * times) > 0.0,
                   hi, tol)


def _invert_delta(target, curve, times, tol):
    if target == 0.0:
        return 0.0
    if target < 0.0:
        raise InvalidArgument(
            "rate difference must be >= 0 for a squeezed state")
    beyond = InvalidArgument(f"rate difference {target:.4g} Hz beyond the "
                             "achievable range for this initial state")
    hi, last = 1.0, -math.inf
    for _ in range(60):
        value = curve(hi)
        if value >= target:
            break
        if value < last:        # doubling stepped over the maximum
            hi = _delta_peak(times, hi, tol)
            if curve(hi) < target:
                raise beyond
            break
        last = value
        hi *= 2.0
    else:
        raise beyond
    return _bisect(lambda x: curve(x) < target, hi, tol)


def extract_dephasing(delta: float, initial: GaussianMechState, *,
                      gamma_th: float, times, delta_err: float = 0.0,
                      n_th_err: float = 0.0, r_err: float = 0.0,
                      tol: float = 1e-4) -> DephasingExtraction:
    """Invert the slope-difference curve to the pure dephasing rate.

    delta is the rate difference in Hz (cyclic); its error delta_err and
    those of n_th and r are finite and >= 0.  The forward curve over `times`
    is _forward_curve, from which gamma_th cancels.  It rises to one maximum
    and falls (its derivative is a sum of exponentials whose coefficients
    (t_i - tbar) t_i change sign once); doubling then bisection returns the
    rising-branch root to `tol` Hz, finite and > 0.  Input errors propagate
    by interval arithmetic: the upper bound pairs the high rate difference
    with the least-sensitive initial state and vice versa.  The curve's
    constants are fixed once per |b2_0|, and each distinct (target, |b2_0|)
    among the three requests is inverted once: with zero input errors lo
    and hi ask for the same root, and gamma_phi too when the (n_th, r)
    round trip keeps |b2_0|.
    """
    target = float(delta)
    require(FINITE, delta=target)
    require(NON_NEGATIVE, delta_err=delta_err, n_th_err=n_th_err, r_err=r_err)
    require(POSITIVE, tol=tol)
    times = np.asarray(times, dtype=float)

    phi_probe = max(target, delta_err, 1e-3)
    curve_phi = np.linspace(0.0, 4.0 * phi_probe, CURVE_POINTS)
    b2_abs = abs(initial.b2)
    curve = _forward_curve(b2_abs, times)
    curve_delta = curve(curve_phi[:, None])
    roots = {}

    def root(goal, state):
        key = (goal, abs(state.b2))
        if key not in roots:
            roots[key] = _invert_delta(
                goal, curve if key[1] == b2_abs
                else _forward_curve(key[1], times), times, tol)
        return roots[key]

    n_th, r = initial.squeezed_thermal_params
    n_th = max(n_th, 0.0)       # a pure state's n_th can round below 0
    gamma_phi = root(target, initial)

    lo_target = max(target - delta_err, 0.0)
    hi_target = target + delta_err
    stiff = GaussianMechState.squeezed_thermal(n_th + n_th_err, r + r_err)
    soft = GaussianMechState.squeezed_thermal(max(n_th - n_th_err, 0.0),
                                              max(r - r_err, 1e-6))
    lo = root(lo_target, stiff)
    hi = root(hi_target, soft)
    return DephasingExtraction(gamma_phi=gamma_phi, lo=lo, hi=hi,
                               curve_phi=curve_phi, curve_delta=curve_delta)
