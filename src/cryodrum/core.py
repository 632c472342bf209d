"""Shared domain types, unit conventions and thermodynamic helpers.

Unit convention (global, enforced here once): every stored rate and frequency
is *cyclic*, i.e. the value printed next to "/2pi" in lab notebooks, in Hz.
Whenever an exponent of the form rate*time is taken (amplification gains,
relaxation exponentials, moment slopes) a single factor of 2*pi is applied at
that point and nowhere else.  All occupations are dimensionless quanta.

All types here are frozen dataclasses, immutable after validation and safe
to share across concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    InvalidArgument,
    LinewidthMismatch,
    NonPositiveFrequency,
    NonPositiveRate,
    UnstableDriveSet,
)

TWO_PI = 2.0 * math.pi
#: exact SI values (2019 redefinition), equal to scipy.constants.h and .k
PLANCK_H = 6.62607015e-34      # [J s]
BOLTZMANN_K = 1.380649e-23     # [J / K]

#: drive roles understood by the three-tone model
DRIVE_ROLES = ("cooling_pump", "red_probe", "blue_probe")


@dataclass(frozen=True)
class SystemParams:
    """Measured device constants shared by all physics operations.

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
    eta_kappa : float
        Collection efficiency kappa_ex/kappa, populated on validation.
    """

    omega_c: float
    kappa: float
    kappa_ex: float
    kappa_0: float
    omega_m: float
    gamma_m: float
    g0: float
    eta_kappa: float = field(default=0.0)

    @property
    def resolved_sideband_param(self) -> float:
        """(kappa / 4 Omega_m)^2; back-action is negligible when << 1."""
        return (self.kappa / (4.0 * self.omega_m)) ** 2


def validate_params(raw) -> SystemParams:
    """Validate a SystemParams-like record and populate derived fields.

    Accepts a ``SystemParams``, a mapping, or any object exposing the field
    names as attributes.  Checks positivity of all rates, the linewidth sum
    rule kappa = kappa_ex + kappa_0 (1e-9 relative), and fills eta_kappa.

    Raises
    ------
    NonPositiveRate
        Any of the rates/frequencies is <= 0 (kappa_0 = 0 is allowed:
        lossless cavity).
    LinewidthMismatch
        kappa deviates from kappa_ex + kappa_0 beyond 1e-9 relative.
    """
    if isinstance(raw, SystemParams):
        values = {k: getattr(raw, k) for k in (
            "omega_c", "kappa", "kappa_ex", "kappa_0", "omega_m", "gamma_m", "g0")}
    elif hasattr(raw, "keys"):
        values = {k: float(raw[k]) for k in (
            "omega_c", "kappa", "kappa_ex", "kappa_0", "omega_m", "gamma_m", "g0")}
    else:
        values = {k: float(getattr(raw, k)) for k in (
            "omega_c", "kappa", "kappa_ex", "kappa_0", "omega_m", "gamma_m", "g0")}

    for name in ("omega_c", "kappa", "kappa_ex", "omega_m", "gamma_m", "g0"):
        if not values[name] > 0.0:
            raise NonPositiveRate(f"{name} must be > 0, got {values[name]!r}")
    if values["kappa_0"] < 0.0:
        raise NonPositiveRate(f"kappa_0 must be >= 0, got {values['kappa_0']!r}")

    kappa_sum = values["kappa_ex"] + values["kappa_0"]
    if abs(kappa_sum - values["kappa"]) > 1e-9 * values["kappa"]:
        raise LinewidthMismatch(
            f"kappa = {values['kappa']:.6g} Hz but kappa_ex + kappa_0 = "
            f"{kappa_sum:.6g} Hz")

    eta = values["kappa_ex"] / values["kappa"]
    return SystemParams(eta_kappa=eta, **values)


@dataclass(frozen=True)
class BathOccupations:
    """Thermal occupations of the intrinsic baths and the two modes [quanta].

    n_c is tied to the cavity bath through n_c = (kappa_0/kappa) * n_c_th
    when built with :func:`bath_occupations`; n_m is filled in by the
    steady-state solver.
    """

    n_c_th: float = 0.0
    n_m_th: float = 0.0
    n_c: float = 0.0
    n_m: float = 0.0

    def __post_init__(self):
        for name in ("n_c_th", "n_m_th", "n_c", "n_m"):
            if getattr(self, name) < 0.0:
                raise NonPositiveRate(f"{name} must be >= 0")


def bath_occupations(params: SystemParams, n_c_th: float,
                     n_m_th: float) -> BathOccupations:
    """Build BathOccupations with n_c derived from the cavity bath.

    The steady-state cavity occupation is the intrinsic bath occupation
    diluted by the (zero-temperature) external port: n_c = kappa_0 n_c_th / kappa.
    """
    n_c = params.kappa_0 * n_c_th / params.kappa
    return BathOccupations(n_c_th=n_c_th, n_m_th=n_m_th, n_c=n_c, n_m=n_m_th)


@dataclass(frozen=True)
class DriveTone:
    """One microwave drive: role, detuning offset and induced rates.

    delta is the detuning offset from the +/- Omega_m reference [Hz];
    gamma_opt = 4 g^2 / kappa is the optomechanical (anti-)damping rate the
    tone induces [Hz]; cooperativity = gamma_opt / Gamma_m.
    """

    role: str
    delta: float = 0.0
    gamma_opt: float = 0.0
    cooperativity: float = 0.0

    def __post_init__(self):
        if self.role not in DRIVE_ROLES:
            raise InvalidArgument(f"unknown drive role {self.role!r}; "
                                  f"expected one of {DRIVE_ROLES}")
        if self.gamma_opt < 0.0:
            raise NonPositiveRate("gamma_opt must be >= 0")
        if self.cooperativity < 0.0:
            raise NonPositiveRate("cooperativity must be >= 0")


def drive_tone(role: str, *, gamma_m: float, delta: float = 0.0,
               gamma_opt: float | None = None,
               cooperativity: float | None = None) -> DriveTone:
    """Construct a DriveTone from either gamma_opt or the cooperativity.

    The two are tied by cooperativity = gamma_opt / Gamma_m; supplying both
    is accepted only if consistent to 1e-12 relative.
    """
    if gamma_m <= 0.0:
        raise NonPositiveRate("gamma_m must be > 0")
    if gamma_opt is None and cooperativity is None:
        raise ValueError("need gamma_opt or cooperativity")
    if gamma_opt is None:
        gamma_opt = cooperativity * gamma_m
    elif cooperativity is None:
        cooperativity = gamma_opt / gamma_m
    else:
        expect = gamma_opt / gamma_m
        if abs(cooperativity - expect) > 1e-12 * max(abs(expect), 1.0):
            raise ValueError(
                f"cooperativity {cooperativity!r} inconsistent with "
                f"gamma_opt/gamma_m = {expect!r}")
    return DriveTone(role=role, delta=delta, gamma_opt=gamma_opt,
                     cooperativity=cooperativity)


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
        if self.gamma_m <= 0.0:
            raise NonPositiveRate("gamma_m must be > 0")
        roles = [t.role for t in self.tones]
        if len(roles) != len(set(roles)):
            raise ValueError("at most one tone per role")
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

    freq is cyclic [Hz], temperature in kelvin.  Returns 0 at T = 0.  The
    linear high-temperature form k_B T / h f is approached within 1% for
    h f / k_B T < 0.14; the exact form is used everywhere because mK-range
    occupations are only O(100) quanta.
    """
    if freq <= 0.0:
        raise NonPositiveFrequency(f"frequency must be > 0, got {freq!r}")
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature!r}")
    if temperature == 0.0:
        return 0.0
    x = PLANCK_H * freq / (BOLTZMANN_K * temperature)
    return 1.0 / math.expm1(x)


def bose_occupation_linear(freq: float, temperature: float) -> float:
    """High-temperature limit k_B T / h f, used only where a strictly linear
    temperature dependence is required (temperature-sweep fits, scaling
    exponents)."""
    if freq <= 0.0:
        raise NonPositiveFrequency(f"frequency must be > 0, got {freq!r}")
    return BOLTZMANN_K * temperature / (PLANCK_H * freq)


def thermal_decoherence_rate(n_m_th: float, gamma_m: float) -> float:
    """Phonon exchange rate with the bath: Gamma_th = (n_m_th + 1) Gamma_m [Hz]."""
    if n_m_th < 0.0 or gamma_m < 0.0:
        raise NonPositiveRate("n_m_th and gamma_m must be >= 0")
    return (n_m_th + 1.0) * gamma_m
