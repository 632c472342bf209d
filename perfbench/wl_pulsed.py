"""pulsed: synthetic mechanical states through the pulsed chain.

A case is one synthetic readout (amplifier truth G_opt, n_add) taken through

* amplifier calibration: thermal batches of known occupation, their mean
  squares, and the calibration line fit,
* a thermalization run of criterion-2 size (186 times x 12 000 samples),
* squeezed-state batches through the state estimator,
* moment evolution, variance slopes and the dephasing extraction, fed with a
  rate difference the benchmark computes from the closed-form moments, and
* quadrature batches written to CSV and read back.

Every case gets new inputs: ``squeezing`` caches the extraction curve in a
process-global dict, so repeated inputs would time the cache, not the
method.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import checks

STATES_PER_ROUND = 4
N_SAMPLES = 12000
#: nominal occupations of the amplifier calibration batches
CALIBRATION_OCCUPATIONS = (0.07, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
#: criterion-2 evolution times: 161 in the linear window, 25 after [s]
THERMALIZATION_TIMES = np.concatenate([np.linspace(0.0, 2e-3, 161),
                                       np.linspace(2.5e-3, 12e-3, 25)])
LINEAR_WINDOW = 2e-3
SQUEEZED_BATCHES = 32
#: squeezed batches written to CSV and read back per case
BATCH_FILES = 2
EXTRACTIONS = 32
#: slope-fit times of the dephasing extraction [s] and its tolerance [Hz]
DEPHASING_TIMES = np.linspace(0.0, 5e-3, 11)
EXTRACTION_TOL = 1e-4


def _draw_state(rng) -> dict:
    def seed():
        return int(rng.integers(2**31))

    gamma_th = rng.uniform(18.0, 23.0)
    n_m_th = rng.uniform(230.0, 280.0)
    return {
        "g_opt": rng.uniform(0.8, 1.5),
        "n_add": rng.uniform(0.5, 1.2),
        "calibration": [(n * rng.uniform(0.9, 1.1), seed())
                        for n in CALIBRATION_OCCUPATIONS],
        "thermalization": dict(gamma_th=gamma_th, n_m_th=n_m_th,
                               gamma_m=gamma_th / (n_m_th + 1.0),
                               seed=seed()),
        "squeezed": [dict(n_th=rng.uniform(0.2, 0.6),
                          r=rng.uniform(0.3, 0.8),
                          theta=rng.uniform(-np.pi / 2, np.pi / 2),
                          seed=seed())
                     for _ in range(SQUEEZED_BATCHES)],
        "dephasing": [dict(n_th=rng.uniform(0.2, 0.6),
                           r=rng.uniform(0.4, 0.8),
                           gamma_th=rng.uniform(10.0, 25.0),
                           gamma_phi=rng.uniform(0.02, 0.3))
                      for _ in range(EXTRACTIONS)],
    }


def _calibration(api, state):
    from cryodrum.tomography import GaussianMechState

    occupations, variances = [], []
    for n_m, seed in state["calibration"]:
        batch = api.tomography.sample_quadratures(
            GaussianMechState.thermal(n_m), state["g_opt"], state["n_add"],
            N_SAMPLES, seed=seed)
        occupations.append(n_m)
        variances.append(float(np.mean(batch.samples[:, 0] ** 2)))
    cal = api.tomography.calibrate_amplifier(list(zip(occupations,
                                                      variances)))
    expected = [state["g_opt"] * (n + 1.0 + state["n_add"])
                for n in occupations]
    g_err, n_err = checks.calibration_errors(occupations, expected,
                                             N_SAMPLES)
    checks.require_within_sigma(cal.g_opt, state["g_opt"], g_err, "G_opt")
    checks.require_within_sigma(cal.n_add_opt, state["n_add"], n_err,
                                "n_add")


def _thermalization(api, state):
    from cryodrum.tomography import AmplifierSpec, GaussianMechState

    th = state["thermalization"]
    readout = AmplifierSpec(
        gamma_opt_b=85.0 + th["gamma_m"], gamma_amp=85.0, tau=22e-3,
        dt=1e-5, eta_kappa=0.8, g_opt_uv2=state["g_opt"],
        n_add_opt=state["n_add"])
    result = api.tomography.free_evolution_experiment(
        GaussianMechState.vacuum(), th["gamma_th"], th["gamma_m"],
        th["n_m_th"], THERMALIZATION_TIMES, readout, n_samples=N_SAMPLES,
        seed=th["seed"], linear_window=LINEAR_WINDOW)
    expected = checks.thermalization_slope(th["gamma_m"], th["n_m_th"],
                                           THERMALIZATION_TIMES,
                                           LINEAR_WINDOW)
    checks.require_within_sigma(result.gamma_th_fit, expected,
                                result.gamma_th_err, "heating rate")


def _squeezed(api, state, bounds):
    from cryodrum.tomography import GaussianMechState

    batches = []
    for idx, sq in enumerate(state["squeezed"]):
        truth = GaussianMechState.squeezed_thermal(sq["n_th"], sq["r"],
                                                   sq["theta"])
        batch = api.tomography.sample_quadratures(
            truth, state["g_opt"], state["n_add"], N_SAMPLES, seed=sq["seed"])
        batches.append(batch)
        est = api.tomography.estimate_state(batch)
        v_sq = (sq["n_th"] + 0.5) * np.exp(-2.0 * sq["r"])
        v_asq = (sq["n_th"] + 0.5) * np.exp(2.0 * sq["r"])
        for name, value, true in (("v_sq", est.v_sq, v_sq),
                                  ("v_asq", est.v_asq, v_asq)):
            checks.check_variance_estimate(
                value, true, state["g_opt"], state["n_add"], N_SAMPLES,
                bounds, f"batch {idx} {name}")
    return batches


def _dephasing(api, state):
    from cryodrum.tomography import GaussianMechState

    times = DEPHASING_TIMES
    for idx, d in enumerate(state["dephasing"]):
        initial = GaussianMechState.squeezed_thermal(d["n_th"], d["r"])
        model = api.squeezing.DephasingModel(
            gamma_th=d["gamma_th"], gamma_phi=d["gamma_phi"], initial=initial)
        traj = api.squeezing.moments_evolve(model, times)
        closed = checks.squeezed_thermal_moments(
            d["n_th"], d["r"], d["gamma_th"], d["gamma_phi"], times)
        checks.require_close([traj.n, traj.v_sq, traj.v_asq],
                             [closed["n"], closed["v_sq"], closed["v_asq"]],
                             1e-12, f"moments {idx}")
        delta = checks.rate_difference(d["n_th"], d["r"], d["gamma_th"],
                                       d["gamma_phi"], times)
        rates = api.squeezing.decoherence_rates(times, traj.v_sq, traj.v_asq)
        checks.require_close(rates.delta, delta, 1e-9,
                             f"rate difference {idx}")
        found = api.squeezing.extract_dephasing(
            delta, initial, gamma_th=d["gamma_th"], times=times,
            tol=EXTRACTION_TOL)
        checks.require(abs(found.gamma_phi - d["gamma_phi"])
                       <= EXTRACTION_TOL,
                       f"extraction {idx}: Gamma_phi {found.gamma_phi!r}, "
                       f"expected {d['gamma_phi']!r}")


def _batch_file(api, batch, workdir, label):
    path = workdir / f"{label}.csv"
    api.datasets.write_quadratures(path, batch)
    back = api.datasets.read_quadratures(path)
    checks.require_same_bits(back.samples, batch.samples, "batch samples")
    checks.require((back.g_opt, back.n_add_opt, back.state_meta)
                   == (batch.g_opt, batch.n_add_opt, batch.state_meta),
                   "batch metadata")


def _case(state, bounds, ctx):
    api = ctx.api
    _calibration(api, state)
    _thermalization(api, state)
    batches = _squeezed(api, state, bounds)
    _dephasing(api, state)
    for idx, batch in enumerate(batches[:BATCH_FILES]):
        _batch_file(api, batch, ctx.workdir, f"{state['label']}.{idx}")


def prepare(seed: int, workdir):
    return seed, checks.chi2_bounds(N_SAMPLES)


def _states(rng, count, prefix):
    states = []
    for idx in range(count):
        state = _draw_state(rng)
        state["label"] = f"{prefix}state{idx}"
        states.append(state)
    return states


def warmup(inputs):
    seed, bounds = inputs
    state = _states(np.random.default_rng([seed, 1]), 1, "warmup")[0]
    return [(state["label"], partial(_case, state, bounds))]


def cases(inputs, round_index: int):
    seed, bounds = inputs
    rng = np.random.default_rng([seed, 0, round_index])
    return [(state["label"], partial(_case, state, bounds))
            for state in _states(rng, STATES_PER_ROUND, "")]
