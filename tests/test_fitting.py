import json
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import least_squares
from scipy.special import wofz

import cryodrum
from cryodrum import datasets, fitting
from cryodrum.dynamics import Spectrum
from cryodrum.errors import (DegenerateDesign, FitNonConvergence,
                             IllConditioned, InvalidArgument, PeakUnresolved,
                             SchemaMismatch)


def lorentzian(nu, center, fwhm, area, floor=0.0):
    hwhm = fwhm / 2.0
    return floor + area * hwhm / (math.pi * ((nu - center) ** 2 + hwhm**2))


def test_faddeeva_matches_wofz():
    # Weideman's approximation over |Re z| <= 200 and 0 <= Im z <= 100,
    # small Im z log-spaced down to 1e-8; on the real axis its real part is
    # exp(-x^2), down to the underflow of the tails
    x = np.linspace(-200.0, 200.0, 2001)
    y = np.concatenate(([0.0], np.logspace(-8.0, 0.0, 33),
                        np.linspace(0.0, 100.0, 101)[1:]))
    z = x[:, None] + 1j * y
    reference = wofz(z)
    assert np.max(np.abs(fitting._faddeeva(z) - reference)
                  / np.abs(reference)) <= 1e-13
    x = np.linspace(-200.0, 200.0, 40001)
    assert np.max(np.abs(fitting._faddeeva(x + 0j).real - np.exp(-x * x))) \
        <= 1e-15


@pytest.mark.parametrize("value,inside", [
    (0.0, True), (-0.0, True), (2.5, True), (-1.0, False),
    (math.nan, False), (math.inf, False), (-math.inf, False)])
def test_voigt_boundary_inputs(value, inside, tmp_path):
    # an RBW, a Gaussian width or a Lorentzian width is finite and >= 0;
    # NaN used to flow through every comparison, and a negative RBW
    # through sigma_from_rbw
    nu = np.linspace(-5.0, 5.0, 11)
    calls = [lambda: fitting.sigma_from_rbw(value),
             lambda: fitting.voigt_eval(nu, value, 1.0),
             lambda: fitting.voigt_eval(nu, 1.0, value),
             lambda: Spectrum(freq=nu, values=np.ones(11), rbw=value).rbw]
    path = tmp_path / "spec.csv"
    path.write_text("freq_hz,value\n0.0,1.0\n1.0,2.0\n")
    (tmp_path / "spec.csv.json").write_text(json.dumps({"rbw_hz": value}))
    for call in calls:
        if inside:
            assert np.all(np.isfinite(call()))
        else:
            with pytest.raises(InvalidArgument):
                call()
    if inside:
        assert datasets.read_spectrum(path).rbw == value
    else:
        with pytest.raises(SchemaMismatch, match="rbw_hz"):
            datasets.read_spectrum(path)


def test_voigt_zero_rbw_is_lorentzian():
    nu = np.linspace(-5.0, 5.0, 101)
    values = fitting.voigt_eval(nu, 0.7, 0.0)[0]
    expected = 0.7 / (math.pi * (nu**2 + 0.7**2))
    assert np.max(np.abs(values - expected)) < 1e-12


def test_voigt_zero_gamma_is_gaussian():
    nu = np.linspace(-5.0, 5.0, 101)
    sigma = 0.8
    values = fitting.voigt_eval(nu, 0.0, sigma)[0]
    expected = np.exp(-nu**2 / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    assert np.max(np.abs(values - expected)) < 1e-12


def test_voigt_against_convolution_quadrature():
    # independent oracle: direct numerical convolution of the Lorentzian
    # with the RBW Gaussian
    gamma, sigma = 0.0225, fitting.sigma_from_rbw(1.0)

    def conv(x):
        val, _ = quad(
            lambda u: gamma / (math.pi * (u * u + gamma * gamma))
            * math.exp(-(x - u) ** 2 / (2 * sigma * sigma))
            / (sigma * math.sqrt(2 * math.pi)),
            -np.inf, np.inf, limit=400)
        return val

    for x in (0.0, 0.2, 0.5, 1.0, 2.0):
        assert fitting.voigt_eval(np.array([x]), gamma, sigma)[0][0] \
            == pytest.approx(conv(x), rel=1e-8)


def test_narrow_line_is_gaussian_dominated():
    # 45 mHz line at 1 Hz RBW: the measured profile shape is the analyzer
    # Gaussian to within ~2% of the peak across +/- 3 sigma (the Lorentzian
    # tails contribute at that level)
    sigma = fitting.sigma_from_rbw(1.0)
    nu = np.linspace(-3 * sigma, 3 * sigma, 601)
    voigt = fitting.voigt_eval(nu, 0.045 / 2.0, sigma)[0]
    gauss = np.exp(-nu**2 / (2 * sigma**2))
    shape_dev = np.abs(voigt / voigt[300] - gauss)
    assert shape_dev.max() < 0.025


def test_fit_peak_lorentzian_roundtrip():
    nu = np.linspace(-200.0, 200.0, 4001)
    truth = dict(center=3.0, fwhm=12.0, area=7.5, floor=0.4)
    spec = Spectrum(freq=nu, values=lorentzian(nu, truth["center"],
                                               truth["fwhm"], truth["area"],
                                               truth["floor"]))
    fit = fitting.fit_peak(spec, "lorentzian")
    assert fit.center == pytest.approx(truth["center"], abs=1e-8 * 200)
    assert fit.width == pytest.approx(truth["fwhm"], rel=1e-8)
    assert fit.area == pytest.approx(truth["area"], rel=1e-8)
    assert fit.floor == pytest.approx(truth["floor"], rel=1e-8)
    # documented area convention: area = height * pi * width / 2
    assert fit.area == pytest.approx(fit.height * math.pi * fit.width / 2.0,
                                     rel=1e-9)


def test_fit_peak_voigt_blurred_narrow_line():
    # RBW much wider than the line: area is still recovered tightly, the
    # linewidth within 10%
    rbw = 1.0
    sigma = fitting.sigma_from_rbw(rbw)
    nu = np.linspace(-8.0, 8.0, 4001)
    area_true, fwhm_true = 2.4, 0.045
    values = (area_true * fitting.voigt_eval(nu, fwhm_true / 2.0, sigma)[0]
              + 0.1)
    spec = Spectrum(freq=nu, values=values, rbw=rbw)
    fit = fitting.fit_peak(spec, "voigt")
    assert fit.sigma_rbw == pytest.approx(sigma)
    assert fit.width == pytest.approx(fwhm_true, rel=0.10)
    assert fit.area == pytest.approx(area_true, rel=0.01)


def test_fit_peak_dip():
    nu = np.linspace(-100.0, 100.0, 2001)
    spec = Spectrum(freq=nu, values=lorentzian(nu, 0.0, 8.0, -3.0, 1.0))
    fit = fitting.fit_peak(spec, "lorentzian")
    assert fit.area == pytest.approx(-3.0, rel=1e-7)
    assert fit.floor == pytest.approx(1.0, rel=1e-7)


def test_fit_determinism():
    nu = np.linspace(-50.0, 50.0, 801)
    rng = np.random.default_rng(7)
    values = lorentzian(nu, 1.0, 6.0, 4.0, 0.2) \
        + 0.01 * rng.standard_normal(nu.size)
    spec = Spectrum(freq=nu, values=values)
    fit1 = fitting.fit_peak(spec)
    fit2 = fitting.fit_peak(spec)
    assert fit1.center == fit2.center
    assert fit1.area == fit2.area


def test_fit_peak_unbiased_under_noise():
    # Monte-Carlo battery: the area estimator bias shrinks as sigma/sqrt(N)
    nu = np.linspace(-60.0, 60.0, 1201)
    clean = lorentzian(nu, 0.0, 6.0, 4.0, 0.2)
    rng = np.random.default_rng(11)
    sigma_noise = 0.02
    errors = []
    for _ in range(40):
        spec = Spectrum(freq=nu,
                        values=clean + sigma_noise * rng.standard_normal(nu.size))
        errors.append(fitting.fit_peak(spec).area - 4.0)
    errors = np.asarray(errors)
    scatter = errors.std(ddof=1)
    assert abs(errors.mean()) < 4.0 * scatter / math.sqrt(errors.size)


@pytest.mark.parametrize("rbw", [0.0, 40.0])
@pytest.mark.parametrize("params", [(3.0, 12.0, 900.0, 0.7),
                                    (-5.0, 20.0, -300.0, 1.2)])
def test_peak_jacobian_matches_central_differences(rbw, params):
    # Lorentzian (rbw 0) and Voigt columns, for a peak and a dip
    nu = np.linspace(-200.0, 200.0, 1201)
    sigma = fitting.sigma_from_rbw(rbw)
    p = np.array(params)
    _, jac = fitting._peak_terms(nu, p, sigma)
    for k in range(4):
        step = np.zeros(4)
        step[k] = 1e-6 * max(abs(p[k]), 1.0)
        upper, _ = fitting._peak_terms(nu, p + step, sigma)
        lower, _ = fitting._peak_terms(nu, p - step, sigma)
        central = (upper - lower) / (2.0 * step[k])
        assert np.max(np.abs(central - jac[:, k])) \
            <= 1e-6 * np.max(np.abs(jac[:, k]))


def test_fit_peak_voigt_noisy_lines_converge():
    # seeded RBW-blurred lines at 1 % and 3 % noise of the peak height: every
    # fit converges and the area lies within 6 of its stated standard errors
    rng = np.random.default_rng(2024)
    for idx in range(36):
        center = rng.uniform(-50.0, 50.0)
        fwhm, rbw = rng.uniform(5.0, 40.0), rng.uniform(20.0, 60.0)
        area, floor = rng.uniform(500.0, 2000.0), rng.uniform(0.5, 1.0)
        half = 20.0 * max(fwhm, rbw)
        nu = np.linspace(-half, half, 1201)
        clean = floor + area * fitting.voigt_eval(
            nu - center, fwhm / 2.0, fitting.sigma_from_rbw(rbw))[0]
        noise = (0.01, 0.03)[idx % 2] * (clean.max() - floor)
        values = clean + noise * rng.standard_normal(nu.size)
        fit = fitting.fit_peak(Spectrum(freq=nu, values=values, rbw=rbw),
                               "voigt")
        assert abs(fit.area - area) <= 6.0 * math.sqrt(fit.covariance[2, 2])


def test_fit_peak_records_evaluations_and_condition():
    nu = np.linspace(-200.0, 200.0, 4001)
    spec = Spectrum(freq=nu, values=lorentzian(nu, 3.0, 12.0, 7.5, 0.4))
    fit = fitting.fit_peak(spec)
    assert 1 <= fit.nfev <= 400
    assert 1.0 <= fit.condition < 1e12


def test_fit_peak_of_a_flat_spectrum_is_ill_conditioned():
    # a flat line pins neither the centre nor the width: the Jacobian's
    # condition number is about 1e301
    nu = np.linspace(-50.0, 50.0, 101)
    with pytest.raises(IllConditioned, match="condition number 1e"):
        fitting.fit_peak(Spectrum(freq=nu, values=np.ones(nu.size)))


def trf_reference(spec, model):
    """Reference fit: scipy's trust-region reflective least squares of the
    same model from the same start, width floor and 1e-14 tolerances."""
    sigma = fitting.sigma_from_rbw(spec.rbw) if model == "voigt" else 0.0
    freq, values = spec.freq, spec.values
    p0 = fitting._initial_guess(freq, values, sigma)
    width_floor = 1e-9 * max(p0[1], freq[1] - freq[0])
    return least_squares(
        lambda p: fitting._peak_terms(freq, p, sigma)[0] - values, p0,
        jac=lambda p: fitting._peak_terms(freq, p, sigma)[1], method="trf",
        x_scale="jac", bounds=([-np.inf, width_floor, -np.inf, -np.inf],
                               [np.inf] * 4),
        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=400)


def noisy_voigt_lines():
    """The seeded RBW-blurred lines of the noisy-line battery, each with its
    noise-free counterpart."""
    rng = np.random.default_rng(2024)
    for idx in range(36):
        center = rng.uniform(-50.0, 50.0)
        fwhm, rbw = rng.uniform(5.0, 40.0), rng.uniform(20.0, 60.0)
        area, floor = rng.uniform(500.0, 2000.0), rng.uniform(0.5, 1.0)
        half = 20.0 * max(fwhm, rbw)
        nu = np.linspace(-half, half, 1201)
        clean = floor + area * fitting.voigt_eval(
            nu - center, fwhm / 2.0, fitting.sigma_from_rbw(rbw))[0]
        noise = (0.01, 0.03)[idx % 2] * (clean.max() - floor)
        yield (Spectrum(freq=nu, values=clean
                        + noise * rng.standard_normal(nu.size), rbw=rbw),
               Spectrum(freq=nu, values=clean, rbw=rbw))


def compare_with_trf(spec, model):
    """Both fits' parameters and the cost of the fit_peak solution, against
    trf's cost plus the cost of rounding each sample once."""
    fit = fitting.fit_peak(spec, model)
    ref = trf_reference(spec, model)
    p = np.array([fit.center, fit.width, fit.area, fit.floor])
    resid = fitting._peak_terms(spec.freq, p, fit.sigma_rbw)[0] - spec.values
    rounding = 0.5 * spec.values.size \
        * (np.finfo(float).eps * np.max(np.abs(spec.values))) ** 2
    assert 0.5 * resid @ resid <= ref.cost * (1.0 + 1e-12) + rounding
    return fit, p, ref.x


def test_fit_peak_matches_trf_on_noise_free_lines():
    # the center has no scale of its own; it is measured against the width
    nu = np.linspace(-100.0, 100.0, 2001)
    sigma = fitting.sigma_from_rbw(1.0)
    nu_narrow = np.linspace(-8.0, 8.0, 4001)
    lines = [
        (Spectrum(freq=nu, values=lorentzian(nu, 3.0, 12.0, 7.5, 0.4)),
         "lorentzian"),
        (Spectrum(freq=nu, values=lorentzian(nu, 0.0, 8.0, -3.0, 1.0)),
         "lorentzian"),
        (Spectrum(freq=nu_narrow, rbw=1.0, values=0.1 + 2.4
                  * fitting.voigt_eval(nu_narrow, 0.0225, sigma)[0]),
         "voigt"),
    ] + [(clean, "voigt") for _, clean in noisy_voigt_lines()]
    for spec, model in lines:
        _, p, ref = compare_with_trf(spec, model)
        scale = np.abs(ref)
        scale[0] = max(scale[0], ref[1])
        assert np.all(np.abs(p - ref) <= 1e-12 * scale)


def test_fit_peak_matches_trf_on_noisy_lines():
    nu = np.linspace(-60.0, 60.0, 1201)
    clean = lorentzian(nu, 0.0, 6.0, 4.0, 0.2)
    rng = np.random.default_rng(11)
    lines = [(noisy, "voigt") for noisy, _ in noisy_voigt_lines()] + [
        (Spectrum(freq=nu, values=clean + 0.02 * rng.standard_normal(
            nu.size)), "lorentzian") for _ in range(40)]
    for spec, model in lines:
        fit, p, ref = compare_with_trf(spec, model)
        assert np.all(np.abs(p - ref)
                      <= 1e-6 * np.sqrt(np.diag(fit.covariance)))


def test_fit_peak_evaluation_cap(monkeypatch):
    spec = next(noisy_voigt_lines())[0]
    assert fitting.fit_peak(spec, "voigt").nfev > 3
    monkeypatch.setattr(fitting, "MAX_PEAK_EVALUATIONS", 3)
    with pytest.raises(FitNonConvergence, match="evaluation cap"):
        fitting.fit_peak(spec, "voigt")


def test_fit_peak_loads_no_scipy_optimize(forked):
    # nor numpy.ma, which np.median imports on its first call
    code = ("import sys\n"
            "import numpy as np\n"
            "from cryodrum import fitting\n"
            "from cryodrum.dynamics import Spectrum\n"
            "nu = np.linspace(-100.0, 100.0, 801)\n"
            "values = 1.0 + 500.0 * fitting.voigt_eval(\n"
            "    nu - 3.0, 5.0, fitting.sigma_from_rbw(20.0))[0]\n"
            "fit = fitting.fit_peak(Spectrum(freq=nu, values=values,\n"
            "                                rbw=20.0), 'voigt')\n"
            "result = [round(fit.area, 6), 'numpy.ma' in sys.modules]\n")
    result, modules = forked(code)
    assert [result, [m for m in modules if m.startswith("scipy")]] \
        == [[500.0, False], []]


def test_package_loads_no_scipy(forked):
    # every module of the package, and a Voigt fit, on numpy alone
    code = ("import importlib, pkgutil\n"
            "import numpy as np\n"
            "import cryodrum\n"
            "for info in pkgutil.iter_modules(cryodrum.__path__):\n"
            "    importlib.import_module('cryodrum.' + info.name)\n"
            "from cryodrum import fitting\n"
            "from cryodrum.dynamics import Spectrum\n"
            "nu = np.linspace(-100.0, 100.0, 801)\n"
            "values = 1.0 + 500.0 * fitting.voigt_eval(\n"
            "    nu - 3.0, 5.0, fitting.sigma_from_rbw(20.0))[0]\n"
            "fitting.fit_peak(Spectrum(freq=nu, values=values, rbw=20.0),\n"
            "                 'voigt')\n")
    # the fork reports the cryodrum.* and scipy* modules it has loaded
    assert forked(code)[1] == sorted(
        "cryodrum." + info.name
        for info in pkgutil.iter_modules(cryodrum.__path__))


def test_integrate_peak_analytic_area():
    nu = np.linspace(-600.0, 600.0, 24001)
    spec = Spectrum(freq=nu, values=lorentzian(nu, 0.0, 2.0, 5.0, 0.3) - 0.3)
    flux = fitting.integrate_peak(spec)
    assert flux == pytest.approx(5.0, rel=1e-6)


def test_integrate_voigt_area_invariance():
    # convolution preserves the area for any RBW
    sigma = fitting.sigma_from_rbw(1.0)
    nu = np.linspace(-250.0, 250.0, 200001)
    values = 3.3 * fitting.voigt_eval(nu, 0.0225, sigma)[0]
    flux = fitting.integrate_peak(Spectrum(freq=nu, values=values, rbw=1.0))
    assert flux == pytest.approx(3.3, rel=1e-8)


def test_integrate_matches_voigt_fit_area():
    rbw = 1.0
    sigma = fitting.sigma_from_rbw(rbw)
    nu = np.linspace(-40.0, 40.0, 8001)
    values = 2.4 * fitting.voigt_eval(nu, 0.0225, sigma)[0]
    spec = Spectrum(freq=nu, values=values, rbw=rbw)
    direct = fitting.integrate_peak(spec)
    fit = fitting.fit_peak(spec, "voigt")
    assert direct == pytest.approx(fit.area, rel=0.01)


def test_integrate_all_floor():
    # a spectrum at its floor integrates to zero; noise on the floor is no
    # peak, and this draw's edge samples reach 0.77 of its largest sample
    nu = np.linspace(-10.0, 10.0, 501)
    assert fitting.integrate_peak(Spectrum(freq=nu,
                                           values=np.zeros(nu.size))) == 0.0
    rng = np.random.default_rng(3)
    noise = 1e-6 * rng.standard_normal(nu.size)
    with pytest.raises(PeakUnresolved, match="left grid edge"):
        fitting.integrate_peak(Spectrum(freq=nu, values=noise))


def test_integrate_unresolved_peak():
    nu = np.linspace(-50.0, 50.0, 51)   # 2 Hz spacing vs 0.5 Hz linewidth
    spec = Spectrum(freq=nu, values=lorentzian(nu, 0.0, 0.5, 1.0))
    with pytest.raises(PeakUnresolved):
        fitting.integrate_peak(spec)


@pytest.mark.parametrize("side,center", [("left", -50.0), ("right", 50.0),
                                         ("left", -49.9), ("left", -49.0),
                                         ("left", -47.5), ("left", -45.0),
                                         ("left", -40.0)])
def test_integrate_peak_on_grid_edge(side, center):
    # a wing cut by the grid edge before its far tail leaves no tail to
    # extrapolate: flag it rather than return an infinite flux (extremum on
    # the end sample) or a short one (0.563 one sample in, 0.736 at -49,
    # 0.930 at -47.5 and 0.987 at -45 for this unit-area line, whose edge
    # samples there reach 0.48 and 0.16 of the peak; 0.9983 at -40, 0.042)
    nu = np.linspace(-50.0, 50.0, 1001)
    spec = Spectrum(freq=nu, values=lorentzian(nu, center, 4.0, 1.0))
    with pytest.raises(PeakUnresolved, match=f"{side} grid edge"):
        fitting.integrate_peak(spec)


def test_integrate_peak_near_grid_edge():
    # edge samples below 2% of the peak (0.018 here) are far enough out on
    # the 1/nu^2 tail for its estimate to hold the area to 1e-3
    nu = np.linspace(-50.0, 50.0, 1001)
    spec = Spectrum(freq=nu, values=lorentzian(nu, -35.0, 4.0, 1.0))
    assert fitting.integrate_peak(spec) == pytest.approx(1.0, abs=1e-3)


def test_linear_fit_exact():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = fitting.linear_fit(x, 2.0 * x + 1.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-14)
    assert fit.intercept == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.abs(fit.covariance) < 1e-25)


def test_linear_fit_weighted():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 10.0, 50)
    sigma = np.full(x.size, 0.3)
    y = 1.7 * x - 0.4 + 0.3 * rng.standard_normal(x.size)
    fit = fitting.linear_fit(x, y, sigma)
    assert fit.slope == pytest.approx(1.7, abs=4.0 * fit.slope_err)
    assert fit.dof == 48


def test_linear_fit_degenerate():
    with pytest.raises(DegenerateDesign):
        fitting.linear_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(DegenerateDesign):
        fitting.linear_fit([1.0], [0.0])


def test_linear_fit_two_points_warns():
    with pytest.warns(UserWarning):
        fit = fitting.linear_fit([0.0, 1.0], [1.0, 3.0])
    assert fit.slope == pytest.approx(2.0)
    assert fit.dof == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=st.integers(3, 40), weighted=st.booleans())
def test_linear_fit_covariance_matches_polyfit(data, size, weighted):
    # covariance of the closed form against numpy's lstsq-based polyfit:
    # residual-scaled without sigma_y, the plain WLS one with it
    finite = st.floats(-1e3, 1e3, allow_nan=False)
    x = np.array(data.draw(st.lists(finite, min_size=size, max_size=size)))
    y = np.array(data.draw(st.lists(finite, min_size=size, max_size=size)))
    if np.ptp(x) < 1e-3 * max(1.0, np.max(np.abs(x))):
        x = x + np.arange(size)
    sigma = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=size,
                                        max_size=size))) if weighted else None
    fit = fitting.linear_fit(x, y, sigma)
    w = None if sigma is None else 1.0 / sigma
    coef, cov = np.polyfit(x, y, 1, w=w, cov="unscaled" if weighted else True)
    _, unscaled = np.polyfit(x, y, 1, w=w, cov="unscaled")
    scale = np.sqrt(np.outer(np.diag(unscaled), np.diag(unscaled)))
    # the residual variance of a near-exact line is rounding: allow the
    # covariance that a 1e-12 relative residual per point would give
    rounding = size * (1e-12 * max(1.0, np.max(np.abs(y)))) ** 2
    assert np.allclose([fit.slope, fit.intercept], coef, rtol=1e-8,
                       atol=1e-8 * max(1.0, np.max(np.abs(y))))
    assert np.all(np.abs(fit.covariance - cov)
                  <= 1e-7 * np.abs(cov).max() + rounding * scale)
