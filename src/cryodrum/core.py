"""Shared domain types, unit conventions and thermodynamic helpers.

Unit convention (global, enforced here once): every stored rate and frequency
is *cyclic*, i.e. the value printed next to "/2pi" in lab notebooks, in Hz.
Whenever an exponent of the form rate*time is taken (amplification gains,
relaxation exponentials, moment slopes) a single factor of 2*pi is applied at
that point and nowhere else.  All occupations are dimensionless quanta.

All types here are frozen dataclasses that check their own fields when
built, store only their inputs, and are safe to share across concurrent
tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (FINITE, NON_NEGATIVE, POSITIVE, InvalidArgument,
                     LinewidthMismatch, UnstableDriveSet, require)

TWO_PI = 2.0 * math.pi
#: exact SI values (2019 redefinition), equal to scipy.constants.h and .k
PLANCK_H = 6.62607015e-34      # [J s]
BOLTZMANN_K = 1.380649e-23     # [J / K]

#: drive roles understood by the three-tone model
DRIVE_ROLES = ("cooling_pump", "red_probe", "blue_probe")


@dataclass(frozen=True)
class SystemParams:
    """Measured device constants shared by all physics operations, checked
    when the record is built; eta_kappa = kappa_ex / kappa is computed.

    Attributes
    ----------
    omega_c : float
        Cavity frequency [Hz].
    kappa : float
        Total cavity linewidth [Hz], kappa = kappa_ex + kappa_0.
    kappa_ex : float
        External (waveguide) coupling rate [Hz].
    kappa_0 : float
        Internal loss rate [Hz].
    omega_m : float
        Mechanical frequency [Hz].
    gamma_m : float
        Bare mechanical damping rate [Hz].
    g0 : float
        Single-photon optomechanical coupling rate [Hz].

    Raises
    ------
    InvalidArgument
        kappa_0 is not finite and >= 0 (0 is a lossless cavity), or another
        value is not finite and > 0.
    LinewidthMismatch
        kappa deviates from kappa_ex + kappa_0 beyond 1e-9 relative.
    """

    omega_c: float
    kappa: float
    kappa_ex: float
    kappa_0: float
    omega_m: float
    gamma_m: float
    g0: float

    def __post_init__(self):
        require(NON_NEGATIVE, kappa_0=self.kappa_0)
        require(POSITIVE, omega_c=self.omega_c, kappa=self.kappa,
                kappa_ex=self.kappa_ex, omega_m=self.omega_m,
                gamma_m=self.gamma_m, g0=self.g0)
        kappa_sum = self.kappa_ex + self.kappa_0
        if abs(kappa_sum - self.kappa) > 1e-9 * self.kappa:
            raise LinewidthMismatch(
                f"kappa = {self.kappa:.6g} Hz but kappa_ex + kappa_0 = "
                f"{kappa_sum:.6g} Hz")

    @property
    def eta_kappa(self) -> float:
        """Collection efficiency kappa_ex / kappa."""
        return self.kappa_ex / self.kappa

    @property
    def resolved_sideband_param(self) -> float:
        """(kappa / 4 Omega_m)^2; back-action is negligible when << 1.
        FloatingPointError when it overflows the double range."""
        return _finite("resolved_sideband_param",
                       (self.kappa / (4.0 * self.omega_m)) ** 2)


def _finite(name, value):
    """value, a derived one; FloatingPointError when it overflowed."""
    if value == math.inf:
        raise FloatingPointError(f"{name} = inf overflows the double range")
    return value


def validate_params(raw) -> SystemParams:
    """SystemParams from a mapping of its seven fields, each taken as a
    float; the record checks them."""
    return SystemParams(**{k: float(raw[k]) for k in (
        "omega_c", "kappa", "kappa_ex", "kappa_0", "omega_m", "gamma_m",
        "g0")})


@dataclass(frozen=True)
class BathOccupations:
    """Thermal occupations of the intrinsic baths and of the cavity
    [quanta].

    n_c is tied to the cavity bath through n_c = (kappa_0/kappa) * n_c_th
    when built with :func:`bath_occupations`.  The mechanical occupation
    under drive is what dynamics.steady_state returns.
    """

    n_c_th: float = 0.0
    n_m_th: float = 0.0
    n_c: float = 0.0

    def __post_init__(self):
        require(NON_NEGATIVE, **vars(self))


def bath_occupations(params: SystemParams, n_c_th: float,
                     n_m_th: float) -> BathOccupations:
    """Build BathOccupations with n_c derived from the cavity bath.

    The steady-state cavity occupation is the intrinsic bath occupation
    diluted by the (zero-temperature) external port:
    n_c = kappa_0 n_c_th / kappa, taken as n_c_th (kappa_0 / kappa) where
    the product kappa_0 n_c_th overflows.  FloatingPointError when n_c
    itself overflows, which needs kappa_0 > kappa (within the 1e-9 sum
    rule) and an n_c_th within 1e-9 of the double range.
    """
    require(NON_NEGATIVE, n_c_th=n_c_th)
    n_c = params.kappa_0 * n_c_th / params.kappa
    if n_c == math.inf:
        n_c = _finite("n_c", n_c_th * (params.kappa_0 / params.kappa))
    return BathOccupations(n_c_th=n_c_th, n_m_th=n_m_th, n_c=n_c)


@dataclass(frozen=True)
class DriveTone:
    """One microwave drive: role, detuning offset and induced rates.

    delta is the detuning offset from the +/- Omega_m reference [Hz];
    gamma_opt = 4 g^2 / kappa is the optomechanical (anti-)damping rate the
    tone induces [Hz].
    """

    role: str
    delta: float = 0.0
    gamma_opt: float = 0.0

    def __post_init__(self):
        if self.role not in DRIVE_ROLES:
            raise InvalidArgument(f"unknown drive role {self.role!r}; "
                                  f"expected one of {DRIVE_ROLES}")
        require(FINITE, delta=self.delta)
        require(NON_NEGATIVE, gamma_opt=self.gamma_opt)


def drive_tone(role: str, *, gamma_m: float, delta: float = 0.0,
               gamma_opt: float | None = None,
               cooperativity: float | None = None) -> DriveTone:
    """Construct a DriveTone from either gamma_opt or the cooperativity.

    The two are tied by cooperativity = gamma_opt / Gamma_m; supplying both
    is accepted only if consistent to 1e-12 relative.
    """
    require(POSITIVE, gamma_m=gamma_m)
    if gamma_opt is None and cooperativity is None:
        raise InvalidArgument("need gamma_opt or cooperativity")
    if cooperativity is not None:
        require(NON_NEGATIVE, cooperativity=cooperativity)
    if gamma_opt is None:
        gamma_opt = cooperativity * gamma_m
    elif cooperativity is not None:
        expect = gamma_opt / gamma_m
        if abs(cooperativity - expect) > 1e-12 * max(abs(expect), 1.0):
            raise InvalidArgument(
                f"cooperativity {cooperativity!r} inconsistent with "
                f"gamma_opt/gamma_m = {expect!r}")
    return DriveTone(role=role, delta=delta, gamma_opt=gamma_opt)


@dataclass(frozen=True)
class DriveSet:
    """Ordered collection of drive tones plus the bare damping they act on.

    Derives Gamma_tot = Gamma_m + Gamma_opt^p + Gamma_opt^r - Gamma_opt^b and
    enforces stability (Gamma_tot > 0) and at most one tone per role.
    """

    tones: tuple
    gamma_m: float

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        require(POSITIVE, gamma_m=self.gamma_m)
        roles = [t.role for t in self.tones]
        if len(roles) != len(set(roles)):
            raise InvalidArgument("at most one tone per role")
        if self.gamma_tot <= 0.0:
            raise UnstableDriveSet(
                f"Gamma_tot = {self.gamma_tot:.6g} Hz <= 0: blue-probe "
                "anti-damping exceeds total damping")

    def tone(self, role: str) -> DriveTone | None:
        for t in self.tones:
            if t.role == role:
                return t
        return None

    def gamma_opt(self, role: str) -> float:
        t = self.tone(role)
        return t.gamma_opt if t is not None else 0.0

    @property
    def gamma_tot(self) -> float:
        """Total mechanical damping rate [Hz]."""
        return (self.gamma_m
                + self.gamma_opt("cooling_pump")
                + self.gamma_opt("red_probe")
                - self.gamma_opt("blue_probe"))


def bose_occupation(freq: float, temperature: float) -> float:
    """Exact Bose-Einstein occupation 1/(exp(h f / k_B T) - 1) [quanta].

    freq is cyclic [Hz], temperature in kelvin.  Returns 0 at T = 0 and
    where exp(h f / k_B T) overflows; FloatingPointError where the
    occupation does.  The linear high-temperature form k_B T / h f is
    approached within 1% for h f / k_B T < 0.14; the exact form is used
    everywhere because mK-range occupations are only O(100) quanta.
    """
    require(POSITIVE, freq=freq)
    require(NON_NEGATIVE, temperature=temperature)
    k_t = BOLTZMANN_K * temperature
    if k_t == 0.0:
        return 0.0
    try:
        return _finite("bose_occupation",
                       1.0 / math.expm1(PLANCK_H * freq / k_t))
    except OverflowError:
        return 0.0


def bose_occupation_linear(freq: float, temperature: float) -> float:
    """High-temperature limit k_B T / h f, used only where a strictly linear
    temperature dependence is required (temperature-sweep fits, scaling
    exponents).  FloatingPointError when it overflows."""
    require(POSITIVE, freq=freq)
    require(NON_NEGATIVE, temperature=temperature)
    return _finite("bose_occupation_linear",
                   BOLTZMANN_K * temperature / (PLANCK_H * freq))


def thermal_decoherence_rate(n_m_th: float, gamma_m: float) -> float:
    """Phonon exchange rate with the bath: Gamma_th = (n_m_th + 1) Gamma_m [Hz]."""
    require(NON_NEGATIVE, n_m_th=n_m_th, gamma_m=gamma_m)
    return (n_m_th + 1.0) * gamma_m
