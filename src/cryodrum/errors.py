"""Exception and warning types shared across the toolkit, and the numeric
domains of its inputs.

Errors signal contract violations (bad inputs, failed convergence); warnings
flag physically meaningful but suspicious situations where a value is still
returned (negative variance estimates, overlapping sidebands, ...).

An input outside its domain raises InvalidArgument (or a subclass), which
the CLI alone maps to its usage-error exit; a derived value that leaves the
double range raises FloatingPointError.  Each numeric domain is one (label,
test) pair below, which `require` checks.  Standard library only.
"""

import math

#: numeric domains as (label, test); NaN fails every test
FINITE = ("finite", lambda v: -math.inf < v < math.inf)
POSITIVE = ("finite and > 0", lambda v: 0.0 < v < math.inf)
NON_NEGATIVE = ("finite and >= 0", lambda v: 0.0 <= v < math.inf)
#: > 0 with +inf allowed, for a length that a scaling sweep may overflow
ABOVE_ZERO = ("> 0", lambda v: v > 0.0)
FRACTION = ("in (0, 1]", lambda v: 0.0 < v <= 1.0)
COUNT = ("an integer >= 1", lambda v: v >= 1 and v % 1 == 0)


def require(domain, **values):
    """InvalidArgument naming the first of the name=value inputs that lies
    outside domain.  An array (anything with min and max) is tested on its
    two extremes, which are NaN when any element is; an empty array passes.
    """
    label, test = domain
    for name, value in values.items():
        ends = (value,)
        if hasattr(value, "min"):
            ends = (value.min(), value.max()) if value.size else ()
        for end in ends:
            if not test(end):
                end = end.item() if hasattr(end, "item") else end
                raise InvalidArgument(f"{name} = {end!r}: must be {label}")


class CryodrumError(Exception):
    """Base class for all toolkit errors."""


# ---- parameter validation ----

class InvalidArgument(CryodrumError, ValueError):
    """An input outside its documented domain (a usage error)."""


class LinewidthMismatch(InvalidArgument):
    """kappa does not equal kappa_ex + kappa_0 within tolerance."""


class UnstableDriveSet(InvalidArgument):
    """Total mechanical damping Gamma_tot <= 0 (anti-damping dominates)."""


# ---- fitting ----

class FitNonConvergence(CryodrumError):
    """Nonlinear least squares hit its iteration/step caps."""


class IllConditioned(CryodrumError):
    """Fit Jacobian condition number beyond the usable limit."""


class PeakUnresolved(CryodrumError):
    """Too few points above the floor; use fit_peak instead."""


class DegenerateDesign(CryodrumError):
    """Rank-deficient regression design (all x equal), or a slope <= 0."""


# ---- calibration ----

class SingularAsymmetry(CryodrumError):
    """Sideband-asymmetry solution denominator is numerically zero."""


class InconsistentBudget(CryodrumError):
    """Chain-noise budget produced an unphysical (negative) added noise."""


class BackActionDominated(CryodrumError):
    """Pump back-action is not negligible against the thermal occupation."""


# ---- squeezing / dephasing ----

class UnstableSqueeze(InvalidArgument):
    """Blue pump rate >= red pump rate: no Bogoliubov steady state."""


class UnphysicalVariances(InvalidArgument):
    """Variance pair violates the Heisenberg bound v_sq * v_asq >= 1/4."""


class TruncationNonConvergence(CryodrumError):
    """Fock-space truncation still not adequate at the dimension cap."""


class StepRejectionOverflow(CryodrumError):
    """Density-matrix propagation produced non-finite values."""


# ---- datasets / CLI ----

class SchemaMismatch(InvalidArgument):
    """Dataset file does not match the documented schema."""


class ConfigError(InvalidArgument):
    """Configuration file missing or malformed."""


# ---- warnings ----

class OverlapWarning(UserWarning):
    """Sideband spacing is small against Gamma_tot; cross terms neglected."""


class WeakCouplingWarning(UserWarning):
    """Gamma_tot/kappa above the weak-coupling validity threshold."""


class LowGainWarning(UserWarning):
    """Amplification gain too small for the large-gain approximations."""


class NegativeVarianceEstimate(UserWarning):
    """Noise-subtracted variance is negative (allowed near vacuum)."""


class NegativeOccupation(UserWarning):
    """Extracted occupation is negative (noise); value returned as is."""
