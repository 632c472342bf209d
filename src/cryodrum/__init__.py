"""cryodrum: simulation and calibration toolkit for microwave circuit
optomechanics with drumhead resonators.

Forward-models the continuous-wave experiments (sideband cooling, sideband
asymmetry, cavity-heating spectra) and the pulsed experiments (amplification
readout, dissipative squeezing, dephasing-limited thermalization), and
implements the matching inverse pipelines so every headline figure can be
regenerated or round-tripped from synthetic data.

Conventions: all rates and frequencies are cyclic (Hz); occupations are
quanta; quadratures use X = (b + b^dag)/sqrt(2) with vacuum variance 1/2.

The names live in the submodules (cryodrum.core, cryodrum.dynamics, ...),
which are imported by name: `import cryodrum` loads none of them.
"""

__version__ = "0.1.0"
