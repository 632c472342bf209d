"""Mechanical-mode and coupling figures of merit from drum geometry.

A tensioned circular drum of radius R, thickness t and stress sigma couples
to the capacitor through its fundamental membrane mode, the radially
symmetric u(r) = J0(j01 r / R) at cyclic frequency
Omega_m = (j01 / R) sqrt(sigma/rho) / 2pi, with j01 the first root of J0.
From it follow the effective mass, zero-point fluctuation, the capacitive
coupling g0 = (omega_c / 2d) xi_cap xi_par x_zpf of a vacuum-gap capacitor,
and the dissipation-dilution enhancement Q_m = Q_0 D_Q of the quality
factor, so every geometry carries Y, xi_par and Q_0.  J0 is evaluated on
[0, j01] by its power series, so this module needs no scipy, and the two
radial mode integrals (effective mass, xi_cap) have polynomial integrands
that one fixed 64-node Gauss-Legendre rule integrates exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import PLANCK_H, TWO_PI, bose_occupation_linear
from .errors import (ABOVE_ZERO, FRACTION, NON_NEGATIVE, POSITIVE,
                     InvalidArgument, require)

HBAR = PLANCK_H / TWO_PI      # reduced Planck constant [J s]

#: first positive root of J0, the double that scipy.special.jn_zeros(0, 1)
#: returns
J01 = 2.4048255576957724


@dataclass(frozen=True)
class DrumGeometry:
    """Geometry and material constants of the vacuum-gap drum capacitor.

    Lengths in metres, stress/modulus in pascal, density in kg/m^3.
    xi_par (capacitor participation ratio) and the dilution factors
    dilution_a/dilution_b come from external electromagnetic/elastic
    simulation and are plain inputs here.  R > R_b, and a scaling sweep
    may overflow a length or the stress to +inf (see errors.ABOVE_ZERO).
    Y and Q_0 are finite and > 0, since every figure set has a Q_m.
    """

    radius: float                 # R, drumhead radius
    bottom_radius: float          # R_b, bottom-plate radius
    thickness: float              # t, film thickness
    gap: float                    # d, vacuum gap
    density: float                # rho
    stress: float                 # sigma_m, tensile
    youngs_modulus: float         # Y, sets the dilution parameter lambda
    xi_par: float                 # capacitive participation ratio
    q0: float                     # bulk material quality factor
    dilution_a: float = 2.0       # A in D_Q = 1/(A lam + B lam^2)
    dilution_b: float = 0.0       # B; exact sweep power laws at B = 0

    def __post_init__(self):
        require(ABOVE_ZERO, radius=self.radius,
                bottom_radius=self.bottom_radius, thickness=self.thickness,
                gap=self.gap, stress=self.stress)
        require(POSITIVE, density=self.density,
                youngs_modulus=self.youngs_modulus, q0=self.q0)
        require(NON_NEGATIVE, dilution_a=self.dilution_a,
                dilution_b=self.dilution_b)
        require(FRACTION, xi_par=self.xi_par)
        if not self.radius > self.bottom_radius:
            raise InvalidArgument(f"radius = {self.radius!r}: must be > "
                                  f"bottom_radius = {self.bottom_radius!r}")


@dataclass(frozen=True)
class ModeResult:
    """Figures of merit of one drum mode (all cyclic rates in Hz)."""

    omega_m: float        # mechanical frequency [Hz]
    m_eff: float          # effective mass [kg]
    m_phys: float         # physical mass [kg]
    xi_mass: float        # m_eff / m_phys
    x_zpf: float          # zero-point fluctuation [m]
    xi_cap: float         # capacitive mode-shape factor
    g0: float             # single-photon coupling [Hz]
    lam: float            # dilution parameter lambda
    d_q: float            # dissipation dilution factor
    q_m: float            # mechanical quality factor


def _j0(x):
    """J0(x) on [0, j01] by its power series sum_k (-x^2/4)^k / (k!)^2,
    summed in ascending order of k; its 24 terms (the last below 1e-41)
    stay within ~3e-16 of scipy.special.jn(0, x)."""
    step = -0.25 * x * x
    term = total = np.ones_like(x)
    for k in range(1, 24):
        term = term * step / (k * k)
        total = total + term
    return total


#: 64-node Gauss-Legendre rule on [-1, 1], built once at import and read
#: only.  It integrates polynomials of degree <= 127 exactly, and both mode
#: integrands are polynomials: r u(r)^2 of degree 93, r u(r) of degree 47.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
_NODES.flags.writeable = False
_WEIGHTS.flags.writeable = False


def _mode_integral(radius: float, upper: float, power: int) -> float:
    """integral_0^upper r u(r)^power dr of the fundamental mode
    u(r) = J0(j01 r / radius), by the 64-node Gauss-Legendre rule."""
    r = 0.5 * upper * (_NODES + 1.0)
    u = _j0(J01 * r / radius)
    return 0.5 * upper * float(np.sum(_WEIGHTS * (r * u ** power)))


def dilution_factor(geom: DrumGeometry):
    """Dissipation dilution: lambda, D_Q = 1/(A lam + B lam^2), Q_m = Q_0 D_Q.

    lambda = (t / 2R) sqrt(Y / 12 sigma).  At lambda -> 0 the bending loss
    vanishes and D_Q diverges; an inf sentinel is returned with a warning.
    A tiny positive lambda whose D_Q or Q_m overflows the double range is
    not that limit, and neither is a D_Q or Q_m that underflows to 0:
    FloatingPointError.
    """
    lam = (geom.thickness / (2.0 * geom.radius)
           * math.sqrt(geom.youngs_modulus / (12.0 * geom.stress)))
    denom = geom.dilution_a * lam + geom.dilution_b * lam**2
    if denom == 0.0:
        warnings.warn("lambda = 0: dilution factor diverges (lossless "
                      "bending limit)", RuntimeWarning, stacklevel=2)
        return lam, math.inf, math.inf
    d_q = 1.0 / denom
    q_m = geom.q0 * d_q
    if not 0.0 < q_m < math.inf:
        raise FloatingPointError(f"lambda = {lam!r}: D_Q = {d_q!r} and Q_m = "
                                 f"{q_m!r} overflow the double range")
    return lam, d_q, q_m


def mode_figures(geom: DrumGeometry, omega_c: float) -> ModeResult:
    """All fundamental-mode figures of merit in one record.

    xi_mass = (2/R^2) integral_0^R r u(r)^2 dr = m_eff / (rho pi R^2 t),
    x_zpf = sqrt(hbar / (2 m_eff * 2pi Omega_m)) and the capacitive coupling
    g0 = (omega_c / 2d) xi_cap xi_par x_zpf with
    xi_cap = (2/R_b^2) integral_0^{R_b} r u(r) dr.  FloatingPointError when
    a figure overflows the double range, or underflows to 0 (as g0 does
    when the gap is infinite); only d_q and q_m carry an inf sentinel.
    """
    require(POSITIVE, omega_c=omega_c)
    R, Rb = geom.radius, geom.bottom_radius
    omega_m = J01 / R * math.sqrt(geom.stress / geom.density) / TWO_PI
    xi_mass = 2.0 / R**2 * _mode_integral(R, R, 2)
    m_phys = geom.density * math.pi * R**2 * geom.thickness
    m_eff = xi_mass * m_phys
    x_zpf = math.sqrt(HBAR / (2.0 * m_eff * TWO_PI * omega_m))
    xi_cap = 2.0 / Rb**2 * _mode_integral(R, Rb, 1)
    g0 = omega_c / (2.0 * geom.gap) * xi_cap * geom.xi_par * x_zpf
    figures = dict(omega_m=omega_m, m_eff=m_eff, m_phys=m_phys,
                   xi_mass=xi_mass, x_zpf=x_zpf, xi_cap=xi_cap, g0=g0)
    for name, value in figures.items():
        if not 0.0 < value < math.inf:
            raise FloatingPointError(f"{name} = {value!r}: the geometry "
                                     "overflows the double range")
    lam, d_q, q_m = dilution_factor(geom)
    return ModeResult(**figures, lam=lam, d_q=d_q, q_m=q_m)


@dataclass(frozen=True)
class SweepRow:
    """One point of a geometry scaling sweep."""

    axis: str
    factor: float
    result: ModeResult
    gamma_m: float           # Omega_m / Q_m [Hz]
    gamma_th: float          # thermal decoherence at the reference T [Hz]
    c0: float                # single-photon cooperativity 4 g0^2/(kappa Gamma_m)


#: expected power-law exponents of each figure vs each geometry axis
#: (quantity, axis) -> exponent; zero entries omitted
SCALING_EXPONENTS = {
    ("omega_m", "radius"): -1.0, ("omega_m", "stress"): 0.5,
    ("g0", "radius"): -0.5, ("g0", "stress"): -0.25,
    ("g0", "thickness"): -0.5, ("g0", "gap"): -1.0,
    ("gamma_m", "radius"): -2.0, ("gamma_m", "thickness"): 1.0,
    ("q_m", "radius"): 1.0, ("q_m", "stress"): 0.5,
    ("q_m", "thickness"): -1.0,
    ("inv_gamma_th", "radius"): 1.0, ("inv_gamma_th", "stress"): 0.5,
    ("inv_gamma_th", "thickness"): -1.0,
    ("c0", "radius"): 1.0, ("c0", "stress"): -0.5,
    ("c0", "thickness"): -2.0, ("c0", "gap"): -2.0,
    ("x_zpf", "radius"): -0.5, ("x_zpf", "stress"): -0.25,
    ("x_zpf", "thickness"): -0.5,
    ("m_eff", "radius"): 2.0, ("m_eff", "thickness"): 1.0,
}

#: bath temperature of the sweep's thermal decoherence column [K]
SWEEP_TEMPERATURE = 0.011


def scaling_sweep(base: DrumGeometry, axis: str, factors, *, omega_c: float,
                  kappa: float) -> list[SweepRow]:
    """Recompute all figures while scaling one geometry axis.

    axis is the field radius, stress, thickness or gap.  Scaling the radius
    is shape preserving: the bottom radius follows, keeping xi_cap fixed
    (the scaling laws hold for geometrically similar drums).  Gamma_m is
    derived as Omega_m/Q_m; the thermal decoherence rate uses the *linear*
    bath occupancy k_B T/h Omega at T = SWEEP_TEMPERATURE so that, at
    dilution_b = 0, every column is an exact power law of the sweep factor
    (the exact Bose occupation would bend the log-log slope at the 1e-3
    level).  dilution_b > 0 bends the columns that go through Q_m: B = 2
    moves an exponent by 5.4e-3 at the reference geometry.
    """
    if axis not in ("radius", "stress", "thickness", "gap"):
        raise InvalidArgument(f"unknown sweep axis {axis!r}")
    require(POSITIVE, kappa=kappa)
    rows = []
    for factor in factors:
        require(POSITIVE, factor=factor)
        changes = {axis: getattr(base, axis) * factor}
        if axis == "radius":
            changes["bottom_radius"] = base.bottom_radius * factor
        geom = replace(base, **changes)
        res = mode_figures(geom, omega_c)
        gamma_m = res.omega_m / res.q_m
        n_th = bose_occupation_linear(res.omega_m, SWEEP_TEMPERATURE)
        gamma_th = n_th * gamma_m
        c0 = 4.0 * res.g0**2 / (kappa * gamma_m)
        rows.append(SweepRow(axis=axis, factor=float(factor), result=res,
                             gamma_m=gamma_m, gamma_th=gamma_th, c0=c0))
    return rows


def sweep_exponent(rows: list[SweepRow], quantity: str) -> float:
    """Fitted log-log slope of a swept quantity vs the sweep factor."""
    factors = np.array([row.factor for row in rows])
    if quantity == "inv_gamma_th":
        values = np.array([1.0 / row.gamma_th for row in rows])
    elif hasattr(rows[0].result, quantity):
        values = np.array([getattr(row.result, quantity) for row in rows])
    else:
        values = np.array([getattr(row, quantity) for row in rows])
    slope = np.polyfit(np.log(factors), np.log(values), 1)[0]
    return float(slope)
