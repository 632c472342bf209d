"""Each independent check accepts the program's output and rejects a wrong one.

The wrong answers are the program's own outputs with one value corrupted:
a moment perturbed by 1e-2, a rate off by a factor of 2 pi, a dataset value
changed in its last digit, and the like.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import math
import types
import warnings

import numpy as np
import pytest

import checks
import wl_cli
import wl_cw
import wl_oracle
import wl_pulsed
from tracer import MODULES, Tracer, call_cost, make_api

TWO_PI = 2.0 * math.pi


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def ctx(tmp_path):
    return types.SimpleNamespace(api=make_api(None), tracer=None,
                                 root=wl_cli.HERE.parent, workdir=tmp_path)


def corrupt(ctx, name, transform):
    """ctx whose api.<module>.<function> returns transform(result)."""
    module_name, func_name = name.split(".")
    module = getattr(ctx.api, module_name)
    func = getattr(module, func_name)
    patched = types.SimpleNamespace(**{
        k: getattr(module, k) for k in dir(module) if not k.startswith("_")})
    setattr(patched, func_name, lambda *a, **kw: transform(func(*a, **kw)))
    api = types.SimpleNamespace(**{m: getattr(ctx.api, m) for m in MODULES})
    setattr(api, module_name, patched)
    return types.SimpleNamespace(**dict(vars(ctx), api=api))


def replace(obj, **changes):
    return dataclasses.replace(obj, **changes)


def accepts_and_rejects(case, ctx, name, transform):
    case(ctx)
    with pytest.raises(checks.CheckError):
        case(corrupt(ctx, name, transform))


# ---- oracle ----

def _oracle_case():
    rng = np.random.default_rng(3)
    _, config = wl_oracle._draw(rng, wl_oracle.CLASSES[:1])[0]
    return lambda c: wl_oracle._case(config, c)


@pytest.mark.parametrize("transform", [
    lambda t: replace(t, v_sq=t.v_sq * (1.0 + 1e-2)),
    lambda t: replace(t, n=t.n * (1.0 + 1e-2)),
    lambda t: replace(t, b2=t.b2 * (1.0 - 1e-2)),
    lambda t: replace(t, trace_dev=t.trace_dev + 1e-9),
    lambda t: replace(t, min_eigenvalue=t.min_eigenvalue - 1e-7),
    lambda t: replace(t, top_population=t.top_population + 2e-8),
], ids=["v_sq", "n", "b2", "trace", "positivity", "truncation"])
def test_oracle(ctx, transform):
    accepts_and_rejects(_oracle_case(), ctx, "squeezing.lindblad_evolve",
                        transform)


# ---- cw ----

def _device():
    return wl_cw._devices(np.random.default_rng(5), 1, "test")[0]


def _scale_g0(rows):
    return [replace(row, result=replace(row.result, g0=row.result.g0
                                        * row.factor ** 0.01))
            for row in rows]


@pytest.mark.parametrize("name, transform", [
    ("device.mode_figures", lambda r: replace(r, omega_m=r.omega_m
                                              * (1.0 + 1e-9))),
    ("device.mode_figures", lambda r: replace(r, xi_mass=r.xi_mass * 1.01)),
    ("device.scaling_sweep", _scale_g0),
])
def test_cw_device(ctx, name, transform):
    dev = _device()
    accepts_and_rejects(lambda c: wl_cw._device_figures(c.api, dev), ctx,
                        name, transform)


@pytest.mark.parametrize("name, transform", [
    ("calibration.asymmetry_solve", lambda r: replace(r, n_m=r.n_m
                                                      * (1.0 + 1e-5))),
    ("fitting.integrate_peak", lambda flux: flux * TWO_PI),
    ("dynamics.output_psd", lambda comps: dict(comps, cavity=replace(
        comps["cavity"], values=comps["cavity"].values * (1.0 + 1e-9)))),
])
def test_cw_asymmetry(ctx, name, transform):
    from cryodrum.core import validate_params

    dev = _device()
    params = validate_params(dev["system"])
    accepts_and_rejects(
        lambda c: wl_cw._asymmetry_round_trip(c.api, params, dev, 2000.0),
        ctx, name, transform)


@pytest.mark.parametrize("transform", [
    lambda f: replace(f, area=f.area * (1.0 + 1e-8)),
    lambda f: replace(f, width=f.width * TWO_PI),
])
def test_cw_voigt(ctx, transform):
    dev = _device()
    accepts_and_rejects(lambda c: wl_cw._voigt_fits(c.api, dev), ctx,
                        "fitting.fit_peak", transform)


def test_cw_g0_sweep(ctx):
    from cryodrum.core import validate_params

    dev = _device()
    params = validate_params(dev["system"])
    accepts_and_rejects(lambda c: wl_cw._g0_sweep(c.api, params, dev), ctx,
                        "calibration.g0_from_sweep",
                        lambda r: replace(r, g0=r.g0 * (1.0 + 1e-8)))


def _last_digit(values):
    values = values.copy()
    values[len(values) // 2] = np.nextafter(values[len(values) // 2],
                                            np.inf)
    return values


def test_cw_spectrum_file(ctx):
    spec = ctx.api.dynamics.Spectrum(freq=np.linspace(0.0, 1.0, 101),
                                     values=np.linspace(1.0, 2.0, 101) / 3.0)
    accepts_and_rejects(
        lambda c: wl_cw._spectrum_file(c.api, spec, c.workdir, "s"), ctx,
        "datasets.read_spectrum",
        lambda s: replace(s, values=_last_digit(s.values)))


# ---- pulsed ----

def _state():
    return wl_pulsed._states(np.random.default_rng(9), 1, "test")[0]


@pytest.mark.parametrize("transform", [
    lambda c: replace(c, g_opt=c.g_opt * 1.1),
    lambda c: replace(c, n_add_opt=c.n_add_opt * TWO_PI),
])
def test_pulsed_calibration(ctx, transform):
    state = _state()
    accepts_and_rejects(lambda c: wl_pulsed._calibration(c.api, state), ctx,
                        "tomography.calibrate_amplifier", transform)


def test_pulsed_thermalization(ctx):
    state = _state()
    accepts_and_rejects(
        lambda c: wl_pulsed._thermalization(c.api, state), ctx,
        "tomography.free_evolution_experiment",
        lambda r: replace(r, gamma_th_fit=r.gamma_th_fit * TWO_PI))


def _shift_v_sq(est, value=None, lo=None):
    v = est.v_sq
    return replace(est, v_sq=replace(
        v, value=v.value if value is None else value(v),
        lo=v.lo if lo is None else lo(v)))


@pytest.mark.parametrize("transform", [
    lambda e: _shift_v_sq(e, value=lambda v: v.value + 1e-2),
    lambda e: _shift_v_sq(e, lo=lambda v: v.lo - 1e-2),
    lambda e: _shift_v_sq(e, value=lambda v: v.value * 2.0,
                          lo=lambda v: v.lo * 2.0),
], ids=["value", "interval", "scaled"])
def test_pulsed_state_estimate(ctx, transform):
    state = _state()
    state["squeezed"] = state["squeezed"][:2]
    bounds = checks.chi2_bounds(wl_pulsed.N_SAMPLES)
    accepts_and_rejects(
        lambda c: wl_pulsed._squeezed(c.api, state, bounds), ctx,
        "tomography.estimate_state", transform)


@pytest.mark.parametrize("name, transform", [
    ("squeezing.moments_evolve", lambda t: replace(t, v_sq=t.v_sq
                                                   * (1.0 + 1e-2))),
    ("squeezing.decoherence_rates", lambda r: replace(
        r, gamma_sq=r.gamma_sq * TWO_PI)),
    ("squeezing.extract_dephasing", lambda x: replace(
        x, gamma_phi=x.gamma_phi + 2.0 * wl_pulsed.EXTRACTION_TOL)),
])
def test_pulsed_dephasing(ctx, name, transform):
    state = _state()
    state["dephasing"] = state["dephasing"][:2]
    accepts_and_rejects(lambda c: wl_pulsed._dephasing(c.api, state), ctx,
                        name, transform)


def test_pulsed_batch_file(ctx):
    from cryodrum.tomography import GaussianMechState

    batch = ctx.api.tomography.sample_quadratures(
        GaussianMechState.thermal(1.0), 1.1, 0.7, 50, seed=1)
    accepts_and_rejects(
        lambda c: wl_pulsed._batch_file(c.api, batch, c.workdir, "b"), ctx,
        "datasets.read_quadratures",
        lambda b: replace(b, samples=np.column_stack(
            [_last_digit(b.samples[:, 0]), b.samples[:, 1]])))


# ---- cli: closed forms against the library calls behind each command ----

def test_cli_closed_forms():
    from cryodrum import calibration, dynamics, squeezing
    from cryodrum.core import validate_params

    cool = dynamics.cooling_occupation(255.0, 0.05, 640.0)
    checks.require_close(cool, checks.cooling_occupation(255.0, 0.05, 640.0),
                         1e-12, "cool")
    with pytest.raises(checks.CheckError):
        checks.require_close(cool * (1.0 + 1e-11), checks.cooling_occupation(
            255.0, 0.05, 640.0), 1e-12, "cool")

    budget = calibration.chain_noise_budget(calibration.ChainBudget(
        snri_db=11.3, n_add_h=8.7, eta_t_db=2.5, eta_db=1.55))
    expected = checks.chain_budget(11.3, 8.7, 2.5, 1.55)
    checks.require_close([budget.n_add_t, budget.total_background],
                         expected, 1e-12, "budget")
    with pytest.raises(checks.CheckError):
        checks.require_close([budget.n_add_t, budget.total_background],
                             checks.chain_budget(11.3, 8.7, 2.5, 1.56),
                             1e-12, "budget")

    drive = squeezing.squeeze_drive(75.0, 23.7, 250e3)
    checks.require_close(drive.r_target, checks.squeeze_parameter(75.0, 23.7),
                         1e-12, "squeeze")
    with pytest.raises(checks.CheckError):
        checks.require_close(drive.r_target * TWO_PI,
                             checks.squeeze_parameter(75.0, 23.7), 1e-12,
                             "squeeze")

    floor = calibration.tone_cancellation_floor(math.pi / 360.0, 0.125)
    checks.require_close(floor, checks.cancellation_floor(math.pi / 360.0,
                                                          0.125), 1e-12,
                         "cancellation")
    params = validate_params(wl_cw.SYSTEM)
    limit = calibration.phase_noise_requirement(params, 255.0, 0.1)
    checks.require_close(limit.s_phiphi, checks.phase_noise_ceiling(
        13.4, 0.1, 1.8e6, 255.0, 0.045), 1e-12, "phase noise")


def test_cli_second_moments():
    from cryodrum.tomography import GaussianMechState, sample_quadratures

    state = GaussianMechState.squeezed_thermal(0.4, 0.6)
    batch = sample_quadratures(state, 1.13, 0.8, 12000, seed=7)
    expected = [1.13 * (state.var_x1 + 1.3), 1.13 * (state.var_x2 + 1.3)]
    checks.check_second_moments(batch.samples, *expected, "batch")
    with pytest.raises(checks.CheckError):
        checks.check_second_moments(batch.samples * 1.1, *expected, "batch")


def test_cli_reference_config_reader():
    from cryodrum import config

    cp = config.read_config(wl_cli.CONFIG)
    ref = wl_cli.read_reference(wl_cli.CONFIG)
    params = config.load_system(cp)
    assert ref["system"]["omega_c"] == params.omega_c
    assert ref["system"]["kappa"] == params.kappa
    assert ref["baths"]["n_m_th"] == config.load_baths(cp, params).n_m_th


def test_cli_commands_end_to_end(ctx, monkeypatch):
    """The workload's command cases pass on the program as it is."""
    monkeypatch.setenv("PYTHONPATH", str(ctx.root / "src"))
    rd = wl_cli.Round(ctx.workdir, np.random.default_rng(2))
    for func in (wl_cli.case_cool, wl_cli.case_squeeze, wl_cli.case_budget,
                 lambda r, c: wl_cli.case_budget(r, c, repeat=True)):
        func(rd, ctx)
    rd.budget_manifest = dict(rd.budget_manifest, seed=1)
    with pytest.raises(checks.CheckError):
        wl_cli.case_budget(rd, ctx, repeat=True)


def test_tracer_per_round():
    tracer = Tracer()
    for dim in (64, 256, 128):
        tracer.call("squeezing.lindblad_evolve",
                    lambda d: types.SimpleNamespace(dim=d), dim)
    layers = tracer.per_round(2)
    assert layers["squeezing.lindblad_evolve.calls"] == 1.5
    assert layers["squeezing.lindblad_evolve.dim_sum"] == 224.0
    assert layers["squeezing.lindblad_evolve.dim_max"] == 256.0
    assert len(tracer.spans) == 3
    assert 0.0 < call_cost() < 1e-3
