"""Tests for the comparison-function machinery (moduli, Bihari bounds, norms)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from monosee.analysis import (
    BOUND_CAP,
    ModulusSpec,
    _G,
    _rate,
    _G_inverse,
    bihari_bound,
    convergence_order,
    linear_modulus,
    osgood_partial_integral,
    picard_comparison_curve,
    power_modulus,
    rho_eval,
    rho_extension_slope,
    rho_k_modulus,
    sup_h_distance,
    zero_limit_check,
)
from monosee.errors import ConfigError


def _rho1_closed_bound(g0, lam_int, c0=1.0):
    # Closed form for the k=1 modulus while the curve stays below eta:
    # with v = log(1/g), the comparison ODE dg/dL = c0 g log(1/g) becomes
    # v' = -c0 v, so g = exp(-log(1/g0) * exp(-c0 * L)).
    return math.exp(-math.log(1.0 / g0) * math.exp(-c0 * lam_int))


# ---------------------------------------------------------------------------
# rho_eval


def test_rho1_direct_value():
    spec = rho_k_modulus(k=1, c0=1.0, eta=math.exp(-1.0))
    # rho_1(e^-2) = e^-2 * log(e^2) = 2 e^-2
    expected = 2.0 * math.exp(-2.0)  # = 0.2706705664732254
    assert rho_eval(math.exp(-2.0), spec) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.2706705664732254, rel=1e-15)


def test_rho_at_zero_and_domain():
    spec = rho_k_modulus(k=1)
    assert rho_eval(0.0, spec) == 0.0
    assert rho_eval(0.0, linear_modulus(3.0)) == 0.0
    with pytest.raises(ValueError):
        rho_eval(-1e-9, spec)


def test_rho_eval_preserves_array_shape():
    spec = rho_k_modulus(k=1)
    grid = np.array([[0.0, math.exp(-2.0)], [0.5, 2.0]])
    out = rho_eval(grid, spec)
    assert out.shape == grid.shape
    for i in range(2):
        for j in range(2):
            assert out[i, j] == rho_eval(float(grid[i, j]), spec)


def test_rho_continuity_and_slope_match_at_eta():
    # oracle: symmetric finite differences across the breakpoint
    spec = rho_k_modulus(k=1, c0=2.0, eta=0.2)
    eta = spec.eta
    for delta in [1e-4, 1e-6, 1e-8]:
        gap = abs(rho_eval(eta - delta, spec) - rho_eval(eta + delta, spec))
        assert gap < 10.0 * delta
    delta = 1e-7
    left_slope = (rho_eval(eta, spec) - rho_eval(eta - delta, spec)) / delta
    right_slope = (rho_eval(eta + delta, spec) - rho_eval(eta, spec)) / delta
    assert right_slope == pytest.approx(rho_extension_slope(spec), rel=1e-9)
    assert left_slope == pytest.approx(right_slope, abs=1e-6)


def test_rho_monotone_and_concave_sampled():
    rng = np.random.default_rng(7)
    for spec in [rho_k_modulus(1, 1.0, 0.3), rho_k_modulus(2, 0.7, 0.05),
                 linear_modulus(2.0), power_modulus(0.5, 1.0)]:
        xs = np.sort(rng.uniform(0.0, 10.0, size=200))
        vals = rho_eval(xs, spec)
        assert np.all(np.diff(vals) >= -1e-12)
        x = rng.uniform(0.0, 10.0, size=300)
        y = rng.uniform(0.0, 10.0, size=300)
        mid = rho_eval((x + y) / 2.0, spec)
        avg = (rho_eval(x, spec) + rho_eval(y, spec)) / 2.0
        assert np.all(mid >= avg - 1e-12)


def _rho_eval_scalar_reference(x, spec):
    # the per-element formula rho_eval evaluated before it was vectorised
    if x == 0.0:
        return 0.0

    def inner(y):
        logs = [math.log(1.0 / y)]
        for _ in range(spec.k - 1):
            logs.append(math.log(logs[-1]))
        return spec.c0 * y * math.prod(logs)

    if x <= spec.eta:
        return inner(x)
    return inner(spec.eta) + rho_extension_slope(spec) * (x - spec.eta)


@pytest.mark.parametrize("spec", [rho_k_modulus(1), rho_k_modulus(1, 2.0, 0.2),
                                  rho_k_modulus(2), rho_k_modulus(2, 0.7, 0.05),
                                  rho_k_modulus(3)])
def test_rho_k_vectorised_matches_scalar_formula(spec):
    rng = np.random.default_rng(5)
    eta = spec.eta
    edges = [0.0, eta, np.nextafter(eta, 0.0), np.nextafter(eta, 1.0)]
    xs = np.concatenate([edges, rng.uniform(0.0, 2.0 * eta, 500),
                         10.0 ** rng.uniform(-300.0, 3.0, 500)])
    got = rho_eval(xs, spec)
    want = np.array([_rho_eval_scalar_reference(float(x), spec) for x in xs])
    assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)
    assert got[0] == 0.0
    for x in edges:
        assert rho_eval(x, spec) == pytest.approx(
            _rho_eval_scalar_reference(x, spec), rel=4 * np.finfo(float).eps)


def test_rho_k_default_eta():
    # eta = 1/exp^(k)(1): e^-1, e^-e, e^-e^e; k = 1 keeps the old default
    expected = [math.exp(-1.0), math.exp(-math.e), math.exp(-math.exp(math.e))]
    for k, eta in enumerate(expected, start=1):
        spec = rho_k_modulus(k)
        assert spec.eta == eta
        assert rho_extension_slope(spec) >= 0.0
    assert rho_k_modulus(1).eta == ModulusSpec(kind="rho_k").eta
    with pytest.raises(ConfigError, match=r"eta in \(0, 1\)"):
        rho_k_modulus(4)  # exp(-e^e^e) underflows to 0


def test_modulus_validation():
    with pytest.raises(ConfigError):
        ModulusSpec(kind="rho_k", k=0)
    with pytest.raises(ConfigError):
        ModulusSpec(kind="rho_k", k=1, c0=-1.0)
    with pytest.raises(ConfigError):
        ModulusSpec(kind="rho_k", k=1, eta=0.5)  # > e^-1
    with pytest.raises(ConfigError):
        ModulusSpec(kind="rho_k", k=2, eta=0.13)  # <= e^-2 but not monotone
    with pytest.raises(ConfigError):
        ModulusSpec(kind="power", alpha=1.5)
    with pytest.raises(ConfigError):
        ModulusSpec(kind="wibble")


@pytest.mark.parametrize("params", [
    {"kind": "linear", "slope": math.nan},
    {"kind": "rho_k", "c0": math.nan},
    {"kind": "power", "c0": math.nan},
])
def test_modulus_rejects_nan_parameters(params):
    with pytest.raises(ConfigError):
        ModulusSpec(**params)


def test_osgood_criterion_and_partial_integrals():
    assert rho_k_modulus(1).is_osgood
    assert rho_k_modulus(2, c0=0.5, eta=0.05).is_osgood
    assert linear_modulus(1.0).is_osgood
    assert not power_modulus(0.5).is_osgood

    # partial quadrature of an Osgood modulus keeps growing as the floor drops;
    # with a small slope the divergence is visible beyond 1e6 in float range
    lin = linear_modulus(1e-4)
    vals = [osgood_partial_integral(lin, floor) for floor in (1e-10, 1e-100, 1e-250)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e6

    # non-Osgood: the partial integral converges (2/c0 * (sqrt(eps) - sqrt(floor)))
    pw = power_modulus(0.5, 1.0)
    v1 = osgood_partial_integral(pw, 1e-8)
    v2 = osgood_partial_integral(pw, 1e-16)
    limit = 2.0 * math.sqrt(0.1)
    assert abs(v1 - limit) < 1e-3
    assert abs(v2 - v1) == pytest.approx(2.0 * (1e-4 - 1e-8), rel=1e-6)


# ---------------------------------------------------------------------------
# closed-form G and its inverse, against quadrature


def _G_quadrature(x, g0, spec):
    # oracle: int_{g0}^x dy / rho(y) by adaptive quadrature in u = log y,
    # which makes 1/rho smooth near 0; split at eta where rho has a kink
    lo, hi = math.log(g0), math.log(x)
    cuts = [math.log(spec.eta)] if spec.kind == "rho_k" else []
    pts = sorted([lo, hi] + [c for c in cuts if min(lo, hi) < c < max(lo, hi)])
    total = sum(quad(lambda u: math.exp(u) / rho_eval(math.exp(u), spec), a, b,
                     epsabs=0.0, epsrel=1e-13, limit=400)[0]
                for a, b in zip(pts[:-1], pts[1:]))
    return total if hi >= lo else -total


CLOSED_FORM_SPECS = [
    linear_modulus(2.0), power_modulus(0.5), power_modulus(0.3, 2.0),
    rho_k_modulus(1, 1.0, 0.3), rho_k_modulus(1), rho_k_modulus(2),
    rho_k_modulus(2, 0.7, 0.05), rho_k_modulus(3)]


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS,
                         ids=lambda s: f"{s.kind}-k{s.k}-eta{s.eta:.3g}")
@pytest.mark.parametrize("g0_scale", [1e-3, 1.0, 3.0])   # below, at, above eta
def test_G_closed_form_matches_quadrature(spec, g0_scale):
    eta = spec.eta if spec.kind == "rho_k" else 0.3
    g0 = g0_scale * eta
    for x in [1e-6 * eta, 0.5 * eta, eta, 2.0 * eta, 50.0 * eta]:
        if x == g0:
            continue
        want = _G_quadrature(x, g0, spec)
        assert float(_G(x, g0, spec)) == pytest.approx(want, rel=1e-10)
    # elementwise on an array that crosses eta both ways
    xs = np.array([1e-6, 0.5, 2.0, 50.0]) * eta
    want = [_G_quadrature(x, g0, spec) for x in xs]
    assert np.allclose(_G(xs, g0, spec), want, rtol=1e-10, atol=0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=st.sampled_from(CLOSED_FORM_SPECS),
       log_g0=st.floats(-30.0, 1.0), log_ratio=st.floats(0.0, 30.0),
       log_ratio2=st.floats(0.0, 30.0))
def test_G_inverse_roundtrip_and_monotone(spec, log_g0, log_ratio, log_ratio2):
    g0 = 10.0 ** log_g0
    x = g0 * 10.0 ** log_ratio
    g = float(_G(x, g0, spec))
    assert g >= 0.0
    assert float(_G_inverse(g, g0, spec)) == pytest.approx(x, rel=1e-12)
    # G is increasing in x on both sides of g0
    y = x * 10.0 ** log_ratio2
    assert float(_G(y, g0, spec)) >= g
    assert float(_G(g0 / (1.0 + log_ratio), g0, spec)) <= 0.0


# ---------------------------------------------------------------------------
# bihari_bound


def test_gronwall_closed_form_frozen():
    t = np.linspace(0.0, 1.0, 101)
    b = bihari_bound(1.0, lambda s: 1.0, linear_modulus(1.0), t)
    assert b.at_end() == pytest.approx(math.e, rel=1e-12)
    assert b.bound_curve[0] == 1.0


def test_gronwall_matches_closed_form_on_random_profiles():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 2.0, 64)
    for _ in range(5):
        lam = rng.uniform(0.0, 3.0, size=t.size)
        slope = rng.uniform(0.1, 2.0)
        g0 = rng.uniform(0.1, 5.0)
        b = bihari_bound(g0, lam, linear_modulus(slope), t)
        lam_int = np.concatenate([[0.0], np.cumsum((lam[1:] + lam[:-1]) / 2 * np.diff(t))])
        expected = g0 * np.exp(slope * lam_int)
        assert np.allclose(b.bound_curve, expected, rtol=1e-10)


def test_zero_lambda_gives_constant_bound():
    t = np.linspace(0.0, 1.0, 11)
    for spec in [linear_modulus(2.0), rho_k_modulus(1, 1.0, 0.3)]:
        b = bihari_bound(0.25, lambda s: 0.0, spec, t)
        assert np.allclose(b.bound_curve, 0.25, rtol=0, atol=1e-14)


def test_rho1_bound_vs_ode_oracle():
    # oracle: stiff integration of the saturated comparison equation
    # g' = lambda(t) rho(g); the Bihari bound is exactly its solution.
    spec = rho_k_modulus(k=1, c0=1.0, eta=0.3)
    g0 = 1e-4
    # fine grid: the tabulated-lambda trapezoid must resolve int(lambda)
    # well below the 1e-4 comparison tolerance
    t = np.linspace(0.0, 1.0, 401)

    def lam(s):
        return 1.0 + 0.5 * np.sin(3.0 * s)

    sol = solve_ivp(lambda s, g: [lam(s) * rho_eval(max(g[0], 0.0), spec)],
                    (0.0, 1.0), [g0], method="Radau",
                    rtol=1e-10, atol=1e-14, dense_output=True)
    assert sol.success
    b = bihari_bound(g0, lam, spec, t)
    ode_vals = sol.sol(t)[0]
    rel = np.abs(b.bound_curve[1:] - ode_vals[1:]) / np.abs(ode_vals[1:])
    assert np.max(rel) < 1e-4


def test_rho1_bound_vs_closed_form():
    # second oracle: exact inner-branch solution of the comparison equation
    spec = rho_k_modulus(k=1, c0=1.0, eta=math.exp(-1.0))
    g0 = 1e-4
    t = np.linspace(0.0, 1.0, 21)
    b = bihari_bound(g0, lambda s: 1.0, spec, t)
    assert b.at_end() < spec.eta  # stays on the inner branch, oracle valid
    for ti, bi in zip(t, b.bound_curve):
        assert bi == pytest.approx(_rho1_closed_bound(g0, ti), rel=1e-8)


def test_bound_monotone_in_g0_and_lambda():
    spec = rho_k_modulus(k=1, c0=1.0, eta=0.3)
    t = np.linspace(0.0, 1.0, 21)
    b1 = bihari_bound(1e-4, lambda s: 1.0, spec, t)
    b2 = bihari_bound(1e-3, lambda s: 1.0, spec, t)
    b3 = bihari_bound(1e-4, lambda s: 1.5, spec, t)
    assert np.all(b2.bound_curve >= b1.bound_curve)
    assert np.all(b3.bound_curve[1:] >= b1.bound_curve[1:])
    assert np.all(np.diff(b1.bound_curve) >= -1e-15)
    assert b1.bound_curve[0] == 1e-4


def test_blowup_reported_not_extrapolated():
    t = np.linspace(0.0, 1.0, 101)
    b = bihari_bound(1.0, lambda s: 1.0, linear_modulus(800.0), t)
    assert b.blowup_time is not None
    # exp(800 t) crosses 1e300 at t = 300 ln(10)/800
    expected = 300.0 * math.log(10.0) / 800.0
    assert abs(b.blowup_time - expected) < 0.02
    assert np.isinf(b.bound_curve[-1])
    finite_part = b.bound_curve[t < expected - 0.02]
    assert np.all(np.isfinite(finite_part))

    # rho_k grows affinely past eta, so G(1e300) ~ 690/extension-slope is
    # finite; a large enough lambda mass pushes past it
    spec = rho_k_modulus(k=1, c0=0.2, eta=0.3)
    b2 = bihari_bound(0.5, lambda s: 25000.0, spec, np.linspace(0, 1, 11))
    assert b2.blowup_time is not None


@pytest.mark.parametrize("g0", [math.nan, -1e-12, -math.inf])
def test_bihari_bound_rejects_a_nan_or_negative_base_point(g0):
    # a NaN base point would otherwise give an all-NaN bound curve
    t = np.linspace(0.0, 1.0, 11)
    for spec in (linear_modulus(1.0), rho_k_modulus(k=1)):
        with pytest.raises(ValueError, match="g0 must be nonnegative"):
            bihari_bound(g0, lambda s: 1.0, spec, t)


# ---------------------------------------------------------------------------
# zero_limit_check


def test_zero_limit_rejects_an_empty_sequence():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="at least one value"):
        zero_limit_check(lambda s: 1.0, linear_modulus(1.0), t,
                         g0_sequence=[])


def test_zero_limit_rho1_passes():
    spec = rho_k_modulus(k=1, c0=1.0, eta=0.3)
    t = np.linspace(0.0, 1.0, 41)  # int lambda = 1
    rep = zero_limit_check(lambda s: 1.0, spec, t)
    assert rep.osgood
    assert rep.vanishes
    assert np.all(np.diff(rep.end_bounds) <= 1e-12)
    assert rep.end_bounds[-1] < 1e-3
    # oracle for the last point (inner branch): closed form at g0 = 1e-12
    assert rep.end_bounds[-1] == pytest.approx(_rho1_closed_bound(1e-12, 1.0), rel=1e-6)


def test_zero_limit_linear_scales_linearly():
    spec = linear_modulus(1.0)
    t = np.linspace(0.0, 1.0, 11)
    rep = zero_limit_check(lambda s: 1.0, spec, t)
    assert rep.vanishes
    ratios = rep.end_bounds[:-1] / rep.end_bounds[1:]
    assert np.allclose(ratios, 100.0, rtol=1e-9)  # g0 drops by 1e-2 per step


def test_zero_limit_sqrt_fails_and_matches_closed_form():
    # non-Osgood oracle: g' = sqrt(g), g(0)=g0  =>  g(t) = (sqrt(g0) + t/2)^2
    spec = power_modulus(alpha=0.5, c0=1.0)
    t = np.linspace(0.0, 1.0, 41)
    rep = zero_limit_check(lambda s: 1.0, spec, t)
    assert rep.flagged and not rep.vanishes
    for g0, end in zip(rep.g0_sequence, rep.end_bounds):
        assert end == pytest.approx((math.sqrt(g0) + 0.5) ** 2, rel=1e-7)
    assert rep.end_bounds[-1] > 0.2  # stalls near 0.25, far from vanishing


def test_picard_comparison_curve_linear_modulus():
    t = np.linspace(0.0, 1.0, 101)
    prev = np.ones_like(t)
    nxt = picard_comparison_curve(prev, lambda s: 2.0, linear_modulus(1.0), t)
    assert np.allclose(nxt, 2.0 * t, rtol=1e-12)


# ---------------------------------------------------------------------------
# norms and rates


class _StubPath:
    def __init__(self, times):
        self.times = times
        self.coeffs = np.zeros((len(times), 3))


def test_sup_h_distance():
    t = np.linspace(0, 1, 5)
    a = _StubPath(t)
    b = _StubPath(t)
    assert sup_h_distance(a, b) == 0.0
    b.coeffs = b.coeffs.copy()
    b.coeffs[2] = [3.0, 4.0, 0.0]
    assert sup_h_distance(a, b) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        sup_h_distance(np.zeros((5, 3)), np.zeros((6, 3)))


def test_convergence_order_exact_geometric():
    e = np.array([4.0, 2.0, 1.0]) * 1e-3
    h = np.array([4.0, 2.0, 1.0]) * 1e-2
    assert convergence_order(e, h) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        convergence_order([1.0, 0.5], [0.1, 0.05])


def test_bound_cap_is_sane():
    assert BOUND_CAP < float("inf")


def test_one_rate_reader_for_every_profile_form():
    t = np.linspace(0.0, 1.0, 11)
    calls = []

    def lam(s):
        calls.append(np.shape(s))
        return 1.0 + s

    assert np.array_equal(_rate(None, t), np.zeros(11))
    assert np.array_equal(_rate(2.5, t), np.full(11, 2.5))
    assert np.array_equal(_rate(2.0 * t, t), 2.0 * t)
    assert np.array_equal(_rate(lam, t), 1.0 + t) and calls == [(11,)]
    assert np.array_equal(_rate(lambda s: 3.0, t), np.full(11, 3.0))
    col, row = t[:3, None], t[None, :4]
    assert np.array_equal(_rate(lambda a, b: a * b, col, row), col * row)
    assert _rate(lambda s: 2.0 * s, 0.25) == 0.5
    # the Bihari readers take each form, one profile call per bound
    calls.clear()
    curve = bihari_bound(1.0, lam, linear_modulus(1.0), t).bound_curve
    assert calls == [(11,)]
    assert np.array_equal(
        curve, bihari_bound(1.0, 1.0 + t, linear_modulus(1.0), t).bound_curve)
    assert np.array_equal(
        bihari_bound(1.0, 2.0, linear_modulus(1.0), t).bound_curve,
        bihari_bound(1.0, np.full(11, 2.0), linear_modulus(1.0),
                     t).bound_curve)
    assert np.array_equal(picard_comparison_curve(np.ones(11), None,
                                                  linear_modulus(1.0), t),
                          np.zeros(11))
    with pytest.raises(ValueError, match="tabulated lambda profile must "
                                         "match t_grid"):
        bihari_bound(1.0, np.ones(5), linear_modulus(1.0), t)


@pytest.mark.parametrize("profile", [
    lambda s: np.nan, np.full(11, np.nan),
    np.where(np.arange(11) == 4, np.nan, 1.0)])
def test_nan_rate_profile_is_rejected(profile):
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="lambda profile must be nonnegative"):
        bihari_bound(1.0, profile, linear_modulus(1.0), t)
    with pytest.raises(ValueError, match="lambda profile must be nonnegative"):
        zero_limit_check(profile, rho_k_modulus(1), t)
    with pytest.raises(ValueError, match="lambda profile must be nonnegative"):
        picard_comparison_curve(np.ones(11), profile, linear_modulus(1.0), t)


def test_infinite_rate_profile_is_a_blowup():
    t = np.linspace(0.0, 1.0, 11)
    b = bihari_bound(1.0, np.full(11, np.inf), linear_modulus(1.0), t)
    assert b.bound_curve[0] == 1.0 and np.all(np.isinf(b.bound_curve[1:]))
    assert b.blowup_time == t[1]
