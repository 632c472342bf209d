"""oracle: squeezed thermal states through the truncated-Fock Lindblad solver.

Each round draws configurations from the criterion-6 ranges (n_th in [0, 2],
r in [0, 1], Gamma_phi in [0, 1] Hz, Gamma_th in [1, 50] Hz), one per slot
of ``CLASSES``.  The classes follow the record of criterion 6's own twenty
configurations (README): their solves settle at 64-96 levels (5 of 20, 2 %
of the time), 128-160 (4, 5 %), 192 (5, 18 %), 256 (5, 50 %) and 320
(1, 26 %), and the costly ones have Gamma_th of 18-50 Hz.  Each class is a
narrow box on which the solver's dimension ladder takes the same path for
every draw and Gamma_th, which sets the Krylov cost, varies by at most 7 %
(20 % in the cheap 64-level class), so each round costs the same while
every round gets new inputs.
The 320-level solve (11.6 s alone) does not fit a round beside the others;
the 256 class, at Gamma_th 40-41 Hz, takes its share.  The 128 class has
five slots, more than its share, so that the median of the eleven cases is
the median of five like solves, about 3x slower than the 64-level ones and
3.5x faster than the 192-level ones.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import checks

#: (label, count per round, n_th range, r range, Gamma_th range [Hz]);
#: the ladder each box takes is in the comment
CLASSES = (
    ("fock64", 3, (0.4, 0.6), (0.0, 0.03), (30.0, 36.0)),      # 32, 64
    ("fock128", 5, (1.34, 1.4), (0.14, 0.16), (15.0, 16.0)),   # 64, 128
    ("fock192", 2, (0.22, 0.27), (0.84, 0.865), (18.0, 19.0)),  # 96, 192
    ("fock256", 1, (1.0, 1.1), (0.63, 0.68), (40.0, 41.0)),    # 128, 256
)

#: evolution times of criterion 6 [s]
TIMES = np.linspace(0.0, 5e-3, 6)


def _draw(rng, classes):
    configs = []
    for label, count, n_box, r_box, th_box in classes:
        for idx in range(count):
            configs.append((f"{label}.{idx}", dict(
                n_th=rng.uniform(*n_box), r=rng.uniform(*r_box),
                gamma_phi=rng.uniform(0.0, 1.0),
                gamma_th=rng.uniform(*th_box))))
    return configs


def _case(config, ctx):
    from cryodrum.tomography import GaussianMechState

    api = ctx.api
    initial = GaussianMechState.squeezed_thermal(config["n_th"], config["r"])
    model = api.squeezing.DephasingModel(
        gamma_th=config["gamma_th"], gamma_phi=config["gamma_phi"],
        initial=initial)
    traj = api.squeezing.lindblad_evolve(model, TIMES)
    checks.check_lindblad(traj, config["n_th"], config["r"],
                          config["gamma_th"], config["gamma_phi"], TIMES)


def prepare(seed: int, workdir):
    return seed


def warmup(seed):
    """One 64-dimension solve on a stream no round uses."""
    rng = np.random.default_rng([seed, 1])
    label, config = _draw(rng, CLASSES[:1])[0]
    return [(label, partial(_case, config))]


def cases(seed, round_index: int):
    rng = np.random.default_rng([seed, 0, round_index])
    return [(label, partial(_case, config))
            for label, config in _draw(rng, CLASSES)]
