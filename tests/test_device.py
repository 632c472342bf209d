import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import hbar
from scipy.special import j0, j1, jn, jn_zeros

from cryodrum import device
from cryodrum.errors import InvalidArgument

GEOM = device.DrumGeometry(
    radius=75e-6, bottom_radius=23e-6, thickness=180e-9, gap=180e-9,
    density=2700.0, stress=350e6, youngs_modulus=75e9, xi_par=0.8, q0=4e5)

OMEGA_C = 5.5e9


def bisect_j0_root(lo=2.0, hi=3.0, steps=80):
    """Independent oracle: plain bisection on J0 between 2 and 3."""
    flo = j0(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fmid = j0(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def test_bessel_root_against_bisection():
    assert device.J01 == pytest.approx(bisect_j0_root(), abs=1e-10)
    assert device.J01 == pytest.approx(2.40483, abs=1e-5)


def test_j01_is_scipys_double():
    # the literal is the double jn_zeros returns, not a neighbour of it
    assert device.J01 == float(jn_zeros(0, 1)[0])


def test_mode_shape_is_scipys_j0():
    # the J0 power series over the whole drum, 200 001 radii
    r = np.linspace(0.0, GEOM.radius, 200_001)
    x = device.J01 * r / GEOM.radius
    assert np.max(np.abs(device._j0(x) - jn(0, x))) <= 4e-16


def test_fundamental_frequency():
    omega_m = device.mode_figures(GEOM, OMEGA_C).omega_m
    assert omega_m == pytest.approx(1.8e6, rel=0.03)
    assert device._j0(np.zeros(1))[0] == 1.0
    # frozen from the closed form (alpha/R) sqrt(sigma/rho) / 2pi
    assert omega_m == pytest.approx(1.8373614e6, rel=1e-6)


def test_frequency_stress_scaling():
    omega_1 = device.mode_figures(GEOM, OMEGA_C).omega_m
    omega_4 = device.mode_figures(replace(GEOM, stress=4.0 * GEOM.stress),
                                  OMEGA_C).omega_m
    assert omega_4 == pytest.approx(2.0 * omega_1, rel=1e-14)


def test_xi_mass_analytic_oracle():
    # 2 int_0^1 x J0(a x)^2 dx = J1(a)^2 at a Bessel root
    alpha = device.J01
    xi_mass = device.mode_figures(GEOM, OMEGA_C).xi_mass
    assert xi_mass == pytest.approx(j1(alpha) ** 2, rel=1e-10)
    assert xi_mass == pytest.approx(0.27, rel=0.01)


def test_xi_mass_riemann_oracle():
    alpha = device.J01
    r = (np.arange(1_000_000) + 0.5) / 1_000_000 * GEOM.radius
    riemann = 2.0 / GEOM.radius**2 * np.sum(
        r * j0(alpha * r / GEOM.radius) ** 2) * (GEOM.radius / 1_000_000)
    xi_mass = device.mode_figures(GEOM, OMEGA_C).xi_mass
    assert xi_mass == pytest.approx(riemann, rel=1e-8)


def test_mass_and_zero_point():
    res = device.mode_figures(GEOM, OMEGA_C)
    assert res.m_eff == pytest.approx(2.3e-12, rel=0.03)
    assert res.x_zpf == pytest.approx(1.4e-15, rel=0.05)
    assert res.m_eff == pytest.approx(res.xi_mass * res.m_phys, rel=1e-14)
    # hbar = 2 m_eff (2 pi Omega) x_zpf^2 identically
    assert 2.0 * res.m_eff * 2.0 * math.pi * res.omega_m * res.x_zpf**2 \
        == pytest.approx(hbar, rel=1e-12)


def test_xi_cap_analytic_oracle():
    alpha = device.J01
    beta = GEOM.bottom_radius / GEOM.radius
    expected = 2.0 * j1(alpha * beta) / (alpha * beta)
    xi_cap = device.mode_figures(GEOM, OMEGA_C).xi_cap
    assert xi_cap == pytest.approx(expected, rel=1e-10)
    assert xi_cap == pytest.approx(0.93, rel=0.01)


def g0_closed_form(geom, omega_c):
    """Oracle: g0 = 0.37 sqrt(hbar) (omega_c / 2d) (R^2 t^2 rho sigma)^-1/4,
    within ~2% of the mode integral."""
    return (0.37 * math.sqrt(hbar) * omega_c / (2.0 * geom.gap)
            * (geom.radius**2 * geom.thickness**2 * geom.density
               * geom.stress) ** -0.25)


def test_g0_theory_value_and_closed_form():
    g0 = device.mode_figures(GEOM, OMEGA_C).g0
    assert g0 == pytest.approx(14.0, rel=0.15)
    assert g0_closed_form(GEOM, OMEGA_C) == pytest.approx(g0, rel=0.02)


def test_g0_gap_scaling():
    g0 = device.mode_figures(GEOM, OMEGA_C).g0
    g0_wide = device.mode_figures(replace(GEOM, gap=2.0 * GEOM.gap),
                                  OMEGA_C).g0
    assert g0_wide == pytest.approx(0.5 * g0, rel=1e-12)


def test_mode_figures_evaluates_the_mode_once(monkeypatch):
    # one mass integral and one capacitance integral, nothing else
    calls = Counter()
    mode_integral = device._mode_integral

    def counted(radius, upper, power):
        calls[power] += 1
        return mode_integral(radius, upper, power)

    monkeypatch.setattr(device, "_mode_integral", counted)
    device.mode_figures(GEOM, OMEGA_C)
    assert calls == {2: 1, 1: 1}


def test_g0_requires_participation():
    # xi_par, Y and Q_0 have no default: every geometry has all figures
    for name in ("xi_par", "youngs_modulus", "q0"):
        with pytest.raises(TypeError, match=name):
            device.DrumGeometry(**{k: v for k, v in vars(GEOM).items()
                                   if k != name})


def test_dilution_factor():
    lam, d_q, q_m = device.dilution_factor(GEOM)
    assert lam == pytest.approx(5.07e-3, rel=0.01)
    assert d_q == pytest.approx(100.0, rel=0.20)
    assert q_m == pytest.approx(GEOM.q0 * d_q, rel=1e-14)
    # reference figures: Q0 = 4e5 at D_Q = 100 gives Q_m = 4e7
    assert 4e5 * 100.0 == pytest.approx(4e7)


def test_dilution_lossless_limit():
    geom = replace(GEOM, dilution_a=0.0, dilution_b=0.0)
    with pytest.warns(RuntimeWarning):
        lam, d_q, q_m = device.dilution_factor(geom)
    assert math.isinf(d_q)


@pytest.mark.parametrize("thickness", [1e-308, 1e-320])
def test_dilution_overflow_is_flagged(thickness):
    # a tiny positive lambda is not the lossless limit: Q_m = Q0 D_Q
    # (1e-308) or D_Q itself (1e-320) overflows, which is an error
    with pytest.raises(FloatingPointError,
                       match="overflow the double range"):
        device.dilution_factor(replace(GEOM, thickness=thickness))


@pytest.mark.parametrize("youngs_modulus", [75e9, 5e-324],
                         ids=["dilute", "lossless-limit"])
def test_zero_q0_is_outside_the_dilution_domain(youngs_modulus):
    # Q_m = Q0 D_Q = 0 is no quality factor (a sweep divided Omega_m by
    # it), and at Y = 5e-324 lambda = 0, where Q0 inf was nan
    with pytest.raises(InvalidArgument,
                       match="^q0 = 0.0: must be finite and > 0"):
        replace(GEOM, youngs_modulus=youngs_modulus, q0=0.0)


def test_infinite_gap_is_flagged():
    # g0 = omega_c / 2d ... underflows to 0: flag, never clamp
    with pytest.raises(FloatingPointError, match="^g0 = 0.0: the geometry"):
        device.mode_figures(replace(GEOM, gap=math.inf), OMEGA_C)


def test_scaling_rows_identity_and_examples(params):
    rows = device.scaling_sweep(GEOM, "thickness", [1.0, 2.0],
                                omega_c=OMEGA_C,
                                kappa=params.kappa)
    base, doubled = rows
    # factor 1 reproduces the unscaled figures
    ref = device.mode_figures(GEOM, OMEGA_C)
    assert base.result == ref
    # thickness x2 -> single-photon cooperativity x 1/4
    assert doubled.c0 == pytest.approx(base.c0 / 4.0, rel=1e-12)

    rows_r = device.scaling_sweep(GEOM, "radius", [1.0, 4.0],
                                  omega_c=OMEGA_C,
                                  kappa=params.kappa)
    assert rows_r[1].result.q_m == pytest.approx(4.0 * rows_r[0].result.q_m,
                                                 rel=1e-12)


def test_scaling_exponent_table(params):
    factors = np.geomspace(0.5, 2.0, 7)
    for axis in ("radius", "stress", "thickness", "gap"):
        rows = device.scaling_sweep(GEOM, axis, factors, omega_c=OMEGA_C,
                                    kappa=params.kappa)
        for (quantity, ax), expected in device.SCALING_EXPONENTS.items():
            if ax != axis:
                continue
            fitted = device.sweep_exponent(rows, quantity)
            assert fitted == pytest.approx(expected, abs=1e-6), (quantity, ax)


@settings(max_examples=25, deadline=None)
@given(radius=st.floats(10e-6, 200e-6), inner=st.floats(0.1, 0.9),
       thickness=st.floats(20e-9, 500e-9), gap=st.floats(50e-9, 1e-6),
       density=st.floats(1e3, 2e4), stress=st.floats(1e7, 1e9),
       youngs_modulus=st.floats(1e10, 5e11), xi_par=st.floats(0.1, 1.0),
       q0=st.floats(1e3, 1e7), dilution_a=st.floats(0.5, 5.0),
       omega_c=st.floats(1e9, 1e10), kappa=st.floats(1e4, 1e7))
def test_scaling_exponents_hold_over_random_geometries(
        radius, inner, thickness, gap, density, stress, youngs_modulus,
        xi_par, q0, dilution_a, omega_c, kappa):
    # criterion 8's exponents are exact power laws at dilution_b = 0 for
    # any drum, not only the reference one
    geom = device.DrumGeometry(
        radius=radius, bottom_radius=inner * radius, thickness=thickness,
        gap=gap, density=density, stress=stress,
        youngs_modulus=youngs_modulus, xi_par=xi_par, q0=q0,
        dilution_a=dilution_a, dilution_b=0.0)
    factors = np.geomspace(0.5, 2.0, 7)
    for axis in ("radius", "stress", "thickness", "gap"):
        rows = device.scaling_sweep(geom, axis, factors, omega_c=omega_c,
                                    kappa=kappa)
        for (quantity, ax), expected in device.SCALING_EXPONENTS.items():
            if ax == axis:
                fitted = device.sweep_exponent(rows, quantity)
                assert abs(fitted - expected) <= 1e-9, (quantity, axis)


def test_sweep_guards(params):
    with pytest.raises(InvalidArgument):
        device.scaling_sweep(GEOM, "thickness", [0.0], omega_c=OMEGA_C,
                             kappa=params.kappa)
    # the field names only: no short aliases
    for axis in ("unknown", "t", "R"):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            device.scaling_sweep(GEOM, axis, [1.0], omega_c=OMEGA_C,
                                 kappa=params.kappa)


@pytest.mark.parametrize("axis,factor,figure", [
    ("gap", 1e-300, "g0"), ("stress", 1e300, "omega_m")])
@pytest.mark.filterwarnings("ignore:lambda = 0")
def test_overflowing_geometry_is_flagged(axis, factor, figure, params):
    # flag, never clamp: an infinite figure is an error, not a table cell
    with pytest.raises(FloatingPointError, match=f"^{figure} = inf"):
        device.scaling_sweep(GEOM, axis, [factor], omega_c=OMEGA_C,
                             kappa=params.kappa)


def test_geometry_validation():
    with pytest.raises(InvalidArgument):
        device.DrumGeometry(radius=10e-6, bottom_radius=20e-6,
                            thickness=1e-7, gap=1e-7, density=2700.0,
                            stress=1e8, youngs_modulus=75e9, xi_par=0.8,
                            q0=4e5)


@pytest.mark.parametrize("npts", [32, 64, 128])
def test_gauss_legendre_table_is_leggauss_and_read_only(npts):
    # the one table is leggauss(64), bit for bit and read only; its mass
    # integral r u(r)^2 agrees with the npts-node rule's
    x, w = np.polynomial.legendre.leggauss(64)
    assert device._NODES.tobytes() == x.tobytes()
    assert device._WEIGHTS.tobytes() == w.tobytes()
    with pytest.raises(ValueError):
        device._NODES[0] = 0.0
    with pytest.raises(ValueError):
        device._WEIGHTS[0] = 0.0
    R = GEOM.radius
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    r = 0.5 * R * (nodes + 1.0)
    ref = 0.5 * R * float(np.sum(weights * r
                                 * device._j0(device.J01 * r / R) ** 2))
    fixed = device._mode_integral(R, R, 2)
    assert fixed == pytest.approx(ref, rel=1e-12)


def test_scaling_sweep_builds_each_rule_once(monkeypatch):
    # the one rule is built at import: a sweep over every axis builds none
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(npts):
        calls.append(npts)
        return leggauss(npts)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    for axis in ("radius", "stress", "thickness", "gap"):
        device.scaling_sweep(GEOM, axis, [0.5, 1.0, 2.0], omega_c=OMEGA_C,
                             kappa=250e3)
    assert calls == []


def _doubling_quadrature(radius, upper, power):
    """The adaptive rule the fixed one replaced: Gauss-Legendre from 32
    nodes, doubling until two rules agree to 1e-10, returning the finer."""
    previous = None
    npts = 32
    while npts <= 1024:
        x, w = np.polynomial.legendre.leggauss(npts)
        r = 0.5 * upper * (x + 1.0)
        u = device._j0(device.J01 * r / radius)
        value = 0.5 * upper * float(np.sum(w * (r * u ** power)))
        if previous is not None:
            scale = max(abs(value), abs(previous), 1e-300)
            if abs(value - previous) <= 1e-10 * scale:
                return value
        previous = value
        npts *= 2
    raise AssertionError("reference quadrature did not converge")


def test_fixed_rule_matches_the_doubling_result(monkeypatch):
    # both integrands are polynomials of degree <= 93 that the 64-node rule
    # integrates exactly, and the doubling always stopped at 64 nodes: the
    # figures are the same doubles over geometries spanning decades
    rng = np.random.default_rng(20221019)
    geoms = [GEOM]
    for _ in range(200):
        radius = 10.0 ** rng.uniform(-6.0, -3.0)
        geoms.append(replace(
            GEOM, radius=radius,
            bottom_radius=radius * rng.uniform(0.01, 0.99),
            thickness=10.0 ** rng.uniform(-9.0, -6.0),
            stress=10.0 ** rng.uniform(6.0, 10.0)))
    fixed = [device.mode_figures(geom, OMEGA_C) for geom in geoms]
    monkeypatch.setattr(device, "_mode_integral", _doubling_quadrature)
    for geom, res in zip(geoms, fixed):
        ref = device.mode_figures(geom, OMEGA_C)
        assert (res.xi_mass, res.xi_cap, res.m_eff, res.x_zpf, res.g0) \
            == (ref.xi_mass, ref.xi_cap, ref.m_eff, ref.x_zpf, ref.g0), geom
