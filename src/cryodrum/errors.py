"""Exception and warning types shared across the toolkit.

Errors signal contract violations (bad inputs, failed convergence); warnings
flag physically meaningful but suspicious situations where a value is still
returned (negative variance estimates, overlapping sidebands, ...).
"""


class CryodrumError(Exception):
    """Base class for all toolkit errors."""


# ---- parameter validation ----

class InvalidArgument(CryodrumError, ValueError):
    """An input outside its documented domain (a usage error)."""


class NonPositiveRate(CryodrumError):
    """A rate or frequency outside its range: zero or negative where it
    must be > 0, or too large for the arithmetic that scales it."""


class NonPositiveFrequency(CryodrumError):
    """Bose occupation requested for a non-positive frequency."""


class LinewidthMismatch(CryodrumError):
    """kappa does not equal kappa_ex + kappa_0 within tolerance."""


class UnstableDriveSet(CryodrumError):
    """Total mechanical damping Gamma_tot <= 0 (anti-damping dominates)."""


# ---- device geometry ----

class MissingParticipation(CryodrumError):
    """Capacitive participation ratio xi_par required but not supplied."""


# ---- fitting ----

class FitNonConvergence(CryodrumError):
    """Nonlinear least squares hit its iteration/step caps."""


class IllConditioned(CryodrumError):
    """Fit Jacobian condition number beyond the usable limit."""


class PeakUnresolved(CryodrumError):
    """Too few points above the floor; use fit_peak instead."""


class DegenerateDesign(CryodrumError):
    """Regression design matrix is rank deficient (e.g. all x equal)."""


# ---- calibration ----

class SingularAsymmetry(CryodrumError):
    """Sideband-asymmetry solution denominator is numerically zero."""


class InconsistentBudget(CryodrumError):
    """Chain-noise budget produced an unphysical (negative) added noise."""


class BackActionDominated(CryodrumError):
    """Pump back-action is not negligible against the thermal occupation."""


# ---- squeezing / dephasing ----

class UnstableSqueeze(CryodrumError):
    """Blue pump rate >= red pump rate: no Bogoliubov steady state."""


class UnphysicalVariances(CryodrumError):
    """Variance pair violates the Heisenberg bound v_sq * v_asq >= 1/4."""


class TruncationNonConvergence(CryodrumError):
    """Fock-space truncation still not adequate at the dimension cap."""


class StepRejectionOverflow(CryodrumError):
    """Density-matrix propagation produced non-finite values."""


# ---- datasets / CLI ----

class SchemaMismatch(CryodrumError):
    """Dataset file does not match the documented schema."""


class ConfigError(CryodrumError):
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
