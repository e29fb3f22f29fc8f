"""Operator instances and hypothesis-checker tests.

Pairing values are checked against direct pointwise summation oracles
computed here, independent of the triple's pairing machinery.
"""

import gc
import weakref

import numpy as np
import pytest

import monosee.experiments
import monosee.operators
import monosee.reporting
import oracles
from monosee.config import ExperimentConfig
from monosee.errors import ConfigError, MonoseeError
from monosee.experiments import run_experiment
from monosee.functional import _AugmentedDrift, _FrozenDiffusion
from monosee.noise import (EMPTY_CONTEXT, BatchContext, NoiseContext,
                           sample_batch, sample_path)
from monosee.operators import (ConstantDiffusion, HypothesisBundle,
                               MultiplicativeDiffusion, PhiDrift,
                               PorousMediumDrift, ReactionDiffusionDrift,
                               abs_scalar_profile, build_operator_set,
                               check_boundedness, check_coercivity,
                               check_hemicontinuity, check_monotonicity,
                               constant_profile, drift_parts, pair_sampler,
                               state_sampler)
from monosee.reporting import (NOT_EVALUATED, GroupedStream, Violation,
                               _sampled_check)
from monosee.triple import POROUS_MEDIUM, REACTION_DIFFUSION, DiscreteTriple
from oracles import assert_same_report


class FixedScalar:
    """Context stub with a constant driving value."""

    def __init__(self, w):
        self.w = float(w)

    def scalar(self, t):
        return self.w


def test_heat_drift_is_discrete_laplacian():
    ops = build_operator_set("heat", 8)
    u = np.sin(np.linspace(0.3, 2.0, 8))
    out = ops.drift.eval(0.0, EMPTY_CONTEXT, u)
    assert np.allclose(out, ops.triple.laplacian @ u, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["heat", "porous_medium", "eq_1_1",
                                  "eq_1_2", "reaction_diffusion"])
def test_a_built_in_drift_is_freed_with_its_last_reference(name):
    # a phi that closed over its drift would keep the drift, and its
    # triple's matrices, alive until a cyclic garbage collection
    gc.disable()
    try:
        drift = weakref.ref(build_operator_set(name, 16, p=3.0).drift)
        assert drift() is None
    finally:
        gc.enable()


def test_a_grouped_stream_is_freed_with_its_last_reference():
    # a draw that closed over its own stream would keep the stream, and
    # every sample it drew, alive until a cyclic garbage collection
    gc.disable()
    try:
        stream = GroupedStream(lambda rng: (rng.uniform(), rng.normal()), 3)
        assert len(stream(np.random.default_rng(0))) == 4
        assert len(stream.prefix(0, 5)[0]) == 5
        ref = weakref.ref(stream)
        del stream
        assert ref() is None
    finally:
        gc.enable()


def test_zero_state_maps_to_zero():
    pm = build_operator_set("porous_medium", 8, p=3)
    rd = build_operator_set("reaction_diffusion", 8, p=3)
    z = np.zeros(8)
    assert np.all(pm.drift.eval(0.2, EMPTY_CONTEXT, z) == 0.0)
    assert np.all(rd.drift.eval(0.2, EMPTY_CONTEXT, z) == 0.0)


def test_spike_pairing_oracle():
    # p = 3, c = 1, spike of height 2: [u, A(u)] = -h * sum(u * |u| u) = -8h
    n = 9
    ops = build_operator_set("porous_medium", n, p=3)
    u = np.zeros(n)
    u[4] = 2.0
    drift_out = ops.drift.eval(0.0, EMPTY_CONTEXT, u)
    pairing = ops.triple.dual_pairing(u, drift_out)
    h = ops.triple.h
    oracle = -h * np.sum(u * np.abs(u) ** 1 * u)  # direct summation
    assert pairing == pytest.approx(-8.0 * h, rel=1e-10)
    assert pairing == pytest.approx(oracle, rel=1e-10)


def test_porous_medium_pairing_identity_random_states():
    # dual_pairing(v, A(u)) = -h * sum(v * phi(u)) for any v, u
    ops = build_operator_set("porous_medium", 16, p=3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.uniform(-2, 2, 16)
        v = rng.uniform(-2, 2, 16)
        lhs = ops.triple.dual_pairing(v, ops.drift.eval(0.0, EMPTY_CONTEXT, u))
        phi = np.abs(u) * u
        rhs = -ops.triple.h * float(np.sum(v * phi))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_reaction_diffusion_linear_flux_matches_heat():
    # a(r) = r, b = 0: divergence part is exactly the discrete Laplacian
    tr = DiscreteTriple(8, REACTION_DIFFUSION)
    drift = ReactionDiffusionDrift(
        tr, a=lambda t, ctx, r: r, b=lambda t, ctx, r: np.zeros_like(r),
        a_prime=lambda t, ctx, r: np.ones_like(r),
        b_prime=lambda t, ctx, r: np.zeros_like(r))
    u = np.cos(np.linspace(0.0, 3.0, 8))
    out = drift.eval(0.0, EMPTY_CONTEXT, u)
    assert np.allclose(out, tr.laplacian @ u, rtol=0, atol=1e-10)


def test_reaction_diffusion_jacobian_matches_fd():
    ops = build_operator_set("reaction_diffusion", 10, p=3)
    rng = np.random.default_rng(4)
    u = rng.uniform(-1.5, 1.5, 10)
    J = ops.drift.jacobian(0.3, EMPTY_CONTEXT, u)
    fd = np.empty_like(J)
    for k in range(10):
        step = 1e-7 * (1 + abs(u[k]))
        up, dn = u.copy(), u.copy()
        up[k] += step
        dn[k] -= step
        fd[:, k] = (ops.drift.eval(0.3, EMPTY_CONTEXT, up)
                    - ops.drift.eval(0.3, EMPTY_CONTEXT, dn)) / (2 * step)
    assert np.allclose(J, fd, rtol=1e-5, atol=1e-4)


def test_porous_medium_jacobian_matches_fd():
    ops = build_operator_set("porous_medium", 8, p=3)
    rng = np.random.default_rng(5)
    u = rng.uniform(-2, 2, 8)
    J = ops.drift.jacobian(0.0, EMPTY_CONTEXT, u)
    fd = np.empty_like(J)
    for k in range(8):
        step = 1e-7 * (1 + abs(u[k]))
        up, dn = u.copy(), u.copy()
        up[k] += step
        dn[k] -= step
        fd[:, k] = (ops.drift.eval(0.0, EMPTY_CONTEXT, up)
                    - ops.drift.eval(0.0, EMPTY_CONTEXT, dn)) / (2 * step)
    assert np.allclose(J, fd, rtol=1e-5, atol=1e-4)


def test_nan_state_raises_with_location():
    ops = build_operator_set("porous_medium", 6, p=3)
    u = np.zeros(6)
    u[3] = np.nan
    with pytest.raises(MonoseeError, match="index 3"):
        ops.drift.eval(0.0, EMPTY_CONTEXT, u)


def test_constant_diffusion_zero_and_hs_norm():
    tr = DiscreteTriple(7, REACTION_DIFFUSION)
    zero = ConstantDiffusion(tr, np.zeros((7, 3)))
    assert np.all(zero.eval(0.0, EMPTY_CONTEXT, None) == 0.0)
    assert tr.hs_norm_sq(zero.eval(0.0, EMPTY_CONTEXT, None)) == 0.0


def test_multiplicative_sigma_column_of_twos():
    # sigma_1(t, r) = sqrt(|w_t|) r with w_t = 4, u = 1: column of 2s
    tr = DiscreteTriple(5, REACTION_DIFFUSION)
    diff = MultiplicativeDiffusion(
        tr, [lambda t, ctx, r: np.sqrt(abs(ctx.scalar(t))) * r])
    cols = diff.eval(0.5, FixedScalar(4.0), np.ones(5))
    assert np.allclose(cols, 2.0 * np.ones((5, 1)), rtol=0, atol=1e-14)


def test_hs_norm_two_ways():
    # L^2 flavor: HS-norm^2 = h * sum_j sum_grid sigma_j^2, matrix vs direct
    tr = DiscreteTriple(6, REACTION_DIFFUSION)
    diff = MultiplicativeDiffusion(
        tr, [lambda t, ctx, r: r, lambda t, ctx, r: np.sin(r)])
    u = np.linspace(-1, 2, 6)
    m = diff.eval(0.0, EMPTY_CONTEXT, u)
    direct = tr.h * float(np.sum(m ** 2))
    assert tr.hs_norm_sq(diff.eval(0.0, EMPTY_CONTEXT, u)) == pytest.approx(
        direct, rel=1e-12)


def test_power_map_monotone_sign_oracle():
    # |r|^{p-2} r is nondecreasing: sign check over random scalar pairs
    rng = np.random.default_rng(8)
    r, s = rng.uniform(-50, 50, 1000), rng.uniform(-50, 50, 1000)
    phi = lambda x: np.abs(x) * x
    assert np.all((r - s) * (phi(r) - phi(s)) >= 0.0)


def test_monotonicity_porous_medium_passes():
    ops = build_operator_set("porous_medium", 12, p=3)
    report = check_monotonicity(ops.drift, ops.diffusion, ops.bundle,
                                pair_sampler(ops.triple), n_samples=500, seed=3)
    assert report.ok, report.summary()


def test_monotonicity_equal_pair_excess_zero():
    ops = build_operator_set("porous_medium", 10, p=3)
    rng = np.random.default_rng(0)
    u = rng.uniform(-3, 3, 10)
    a1 = ops.drift.eval(0.1, EMPTY_CONTEXT, u)
    a2 = ops.drift.eval(0.1, EMPTY_CONTEXT, u)
    assert np.array_equal(a1, a2)
    excess = 2.0 * ops.triple.dual_pairing(u - u, a1 - a2)
    assert excess == 0.0


def test_monotonicity_swapping_pair_is_exact():
    ops = build_operator_set("porous_medium", 10, p=3)
    rng = np.random.default_rng(2)
    u, v = rng.uniform(-3, 3, 10), rng.uniform(-3, 3, 10)
    au = ops.drift.eval(0.0, EMPTY_CONTEXT, u)
    av = ops.drift.eval(0.0, EMPTY_CONTEXT, v)
    one = ops.triple.dual_pairing(u - v, au - av)
    two = ops.triple.dual_pairing(v - u, av - au)
    assert one == two  # negations are exact in IEEE arithmetic


def test_monotonicity_flags_planted_sine():
    tr = DiscreteTriple(12, POROUS_MEDIUM, q1=3, q2=3)
    drift = PhiDrift(tr, lambda t, ctx, r: np.sin(r))
    diff = ConstantDiffusion(tr, np.zeros((12, 1)))
    bundle = HypothesisBundle(q1=3, q2=3)
    report = check_monotonicity(drift, diff, bundle,
                                pair_sampler(tr, amp_range=(1e-1, 1e2)),
                                n_samples=500, seed=3)
    assert not report.ok
    assert report.n_violations >= 1


def test_coercivity_porous_medium_passes():
    ops = build_operator_set("porous_medium", 12, p=3)
    report = check_coercivity(ops.drift, ops.diffusion, ops.bundle,
                              state_sampler(ops.triple), n_samples=500, seed=7)
    assert report.ok, report.summary()


def test_coercivity_flags_underdeclared_xi():
    ops = build_operator_set("porous_medium", 10, p=3)
    diff = ConstantDiffusion(ops.triple, np.ones((10, 1)))
    full = ops.triple.hs_norm_sq(diff.eval(0.0, EMPTY_CONTEXT, None))
    starved = HypothesisBundle(
        lambda1=constant_profile(1.0), lambda2=constant_profile(1.0),
        lambda3=constant_profile(1e-6), xi=constant_profile(0.5 * full),
        q1=3, q2=3)
    report = check_coercivity(ops.drift, diff, starved,
                              state_sampler(ops.triple), n_samples=200, seed=7)
    assert not report.ok  # constant HS mass dominates near u = 0


class _EvalOnly:
    """A diffusion is its columns and its mode count, nothing more."""

    def __init__(self, base):
        self.eval = base.eval
        self.n_modes = base.n_modes


@pytest.mark.parametrize("name", ["eq_1_1", "eq_1_2"])
def test_a_diffusion_with_only_eval_and_n_modes_passes_the_checks(name):
    ops = build_operator_set(name, 10, p=3.0)
    bare = _EvalOnly(ops.diffusion)
    for check, make in ((check_coercivity, state_sampler),
                        (check_monotonicity, pair_sampler)):
        sampler = make(ops.triple, amp_range=(1e-2, 1e1))
        report = check(ops.drift, bare, ops.bundle, sampler, n_samples=100,
                       seed=3)
        assert report.ok, report.summary()
        assert_same_report(report, check(ops.drift, ops.diffusion, ops.bundle,
                                         sampler, n_samples=100, seed=3),
                           rel=0.0)


def test_coercivity_degenerate_coefficient_time():
    # |w_t| = 0: drift and rates all vanish, excess still <= 0
    ops = build_operator_set("eq_1_1", 10, p=3)
    ctx = FixedScalar(0.0)
    report = check_coercivity(ops.drift, ops.diffusion, ops.bundle,
                              state_sampler(ops.triple), n_samples=100,
                              seed=9, ctx=ctx)
    assert report.ok, report.summary()


def test_boundedness_zero_state():
    ops = build_operator_set("porous_medium", 8, p=3)
    report = check_boundedness(
        ops.drift, ops.bundle,
        lambda rng: (0.0, np.zeros(8)), n_samples=3, seed=0)
    assert report.ok


def test_boundedness_porous_medium_holder_equality():
    # |A(u)|_{X*} = |u|_q^{q-1} exactly for the power nonlinearity
    ops = build_operator_set("porous_medium", 12, p=3)
    rng = np.random.default_rng(12)
    u = rng.uniform(-2, 2, 12)
    lhs = ops.triple.dual_norm(ops.drift.eval(0.0, EMPTY_CONTEXT, u), 1)
    rhs = ops.triple.lq_norm(u, 3.0) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10)
    report = check_boundedness(ops.drift, ops.bundle,
                               state_sampler(ops.triple), n_samples=300, seed=1)
    assert report.ok, report.summary()


def test_boundedness_flags_exponent_mismatch():
    ops = build_operator_set("porous_medium", 10, p=3)
    wrong = HypothesisBundle(q1=2, q2=2)  # claims linear growth for p=3
    report = check_boundedness(ops.drift, wrong,
                               state_sampler(ops.triple), n_samples=200, seed=1)
    assert not report.ok


def test_hemicontinuity_linear_affine_profile():
    ops = build_operator_set("heat", 8)
    tr = ops.triple
    rng = np.random.default_rng(3)
    x, y, z = (rng.uniform(-1, 1, 8) for _ in range(3))
    eps = np.linspace(0, 1, 33)
    vals = np.array([tr.dual_pairing(x, ops.drift.eval(0.0, EMPTY_CONTEXT, y + e * z))
                     for e in eps])
    second = np.diff(vals, 2)
    assert np.max(np.abs(second)) < 1e-10 * (1 + np.max(np.abs(vals)))
    report = check_hemicontinuity(ops.drift, state_sampler(tr), n_samples=50, seed=3)
    assert report.ok


def test_hemicontinuity_cubic_passes_dense_grid():
    ops = build_operator_set("porous_medium", 10, p=3)
    report = check_hemicontinuity(ops.drift, state_sampler(ops.triple),
                                  n_samples=100, seed=6)
    assert report.ok, report.summary()


def test_hemicontinuity_flags_step_nonlinearity():
    tr = DiscreteTriple(10, POROUS_MEDIUM, q1=3, q2=3)
    drift = PhiDrift(tr, lambda t, ctx, r: np.sign(r))
    report = check_hemicontinuity(drift, state_sampler(tr, amp_range=(0.5, 2.0)),
                                  n_samples=100, seed=6)
    assert not report.ok


def test_random_coefficient_builtins_pass_all_checks():
    path = sample_path(21, 1.0, 64, 1)
    ctx = NoiseContext(path)
    grid_times = path.times
    for name in ("eq_1_1", "eq_1_2"):
        ops = build_operator_set(name, 10, p=3)
        pairs = pair_sampler(ops.triple, times=grid_times)
        singles = state_sampler(ops.triple, times=grid_times)
        mono = check_monotonicity(ops.drift, ops.diffusion, ops.bundle, pairs,
                                  n_samples=200, seed=5, ctx=ctx)
        coer = check_coercivity(ops.drift, ops.diffusion, ops.bundle, singles,
                                n_samples=200, seed=5, ctx=ctx)
        bnd = check_boundedness(ops.drift, ops.bundle, singles,
                                n_samples=200, seed=5, ctx=ctx)
        hemi = check_hemicontinuity(ops.drift, singles, n_samples=50,
                                    seed=5, ctx=ctx)
        for rep in (mono, coer, bnd, hemi):
            assert rep.ok, f"{name}: {rep.summary()}"


def test_rate_domination_and_integrability():
    path = sample_path(33, 1.0, 128, 1)
    ctx = NoiseContext(path)
    ops = build_operator_set("eq_1_2", 8, p=3)
    interior = path.times[1:]  # strictness holds a.e.; avoid w_0 = 0
    report = ops.bundle.check_rate_domination(ctx, interior)
    assert report.ok, report.summary()
    # a degenerate instant violates the strict inequality and is reported
    degenerate = ops.bundle.check_rate_domination(FixedScalar(0.0), [0.5])
    assert not degenerate.ok
    integ = ops.bundle.integrability_report(ctx, 1.0, n=128)
    assert integ.ok
    assert len(integ.notes) == 5


def test_checkers_are_deterministic():
    ops = build_operator_set("porous_medium", 10, p=3)
    a = check_monotonicity(ops.drift, ops.diffusion, ops.bundle,
                           pair_sampler(ops.triple), n_samples=100, seed=42)
    b = check_monotonicity(ops.drift, ops.diffusion, ops.bundle,
                           pair_sampler(ops.triple), n_samples=100, seed=42)
    assert a.summary() == b.summary()
    assert a.n_violations == b.n_violations


def test_unknown_operator_name():
    with pytest.raises(ConfigError, match="unknown operator family"):
        build_operator_set("wave", 8)


def test_bundle_validation():
    with pytest.raises(ConfigError):
        HypothesisBundle(q1=1.5)
    with pytest.raises(ConfigError):
        HypothesisBundle(c1=0.0)


# ---------------------------------------------------------------------------
# per-sample reference checkers: one sample drawn and evaluated at a time,
# on single states only, as an oracle for the stacked checkers


def _hs2_one(tr, cols):
    return sum(tr.h_inner(cols[:, j], cols[:, j]) for j in range(cols.shape[1]))


def _reference_monotonicity(drift, diff, bundle, sampler, n_samples, seed,
                            tol=1e-10, ctx=EMPTY_CONTEXT):
    rng = np.random.default_rng(seed)
    tr, found = drift.triple, []
    for i in range(n_samples):
        t, u, v = sampler(rng)
        du = u - v
        pairing = 2.0 * tr.dual_pairing(du, drift.eval(t, ctx, u) - drift.eval(t, ctx, v))
        hs2 = _hs2_one(tr, diff.eval(t, ctx, u) - diff.eval(t, ctx, v))
        damp = bundle.lambda0(t, ctx) * tr.h_norm(du) ** 2
        excess = pairing + hs2 - damp
        if excess > tol * (1.0 + abs(pairing) + hs2 + abs(damp)):
            found.append(Violation(i, t, excess, {"pairing": pairing,
                                                  "hs2": hs2, "damp": damp}))
    return found


def _reference_coercivity(drift, diff, bundle, sampler, n_samples, seed,
                          tol=1e-10, ctx=EMPTY_CONTEXT):
    rng = np.random.default_rng(seed)
    tr, found = drift.triple, []
    for i in range(n_samples):
        t, u = sampler(rng)[:2]
        pairing = 2.0 * tr.dual_pairing(u, drift.eval(t, ctx, u))
        hs2 = _hs2_one(tr, diff.eval(t, ctx, u))
        lam1 = bundle.lambda1(t, ctx) * tr.x_norm(u, 1) ** bundle.q1
        lam2 = bundle.lambda2(t, ctx) * tr.x_norm(u, 2) ** bundle.q2
        lam3 = bundle.lambda3(t, ctx) * tr.h_norm(u) ** 2
        xi = bundle.xi(t, ctx)
        excess = pairing + hs2 + lam1 + lam2 - lam3 - xi
        if excess > tol * (1.0 + abs(pairing) + hs2 + lam1 + lam2 + lam3 + xi):
            found.append(Violation(i, t, excess, {"pairing": pairing, "hs2": hs2,
                                                  "lam1": lam1, "lam2": lam2}))
    return found


def _reference_boundedness(drift, bundle, sampler, n_samples, seed,
                           tol=1e-10, ctx=EMPTY_CONTEXT):
    rng = np.random.default_rng(seed)
    tr, found = drift.triple, []
    for i in range(n_samples):
        t, u = sampler(rng)[:2]
        for which, part in drift_parts(drift, t, ctx, u):
            lam = (bundle.lambda1 if which == 1 else bundle.lambda2)(t, ctx)
            eta = (bundle.eta1 if which == 1 else bundle.eta2)(t, ctx)
            q = bundle.q1 if which == 1 else bundle.q2
            c = bundle.c_a1 if which == 1 else bundle.c_a2
            lhs = tr.dual_norm(part, which)
            rhs = eta * lam ** (1.0 / q) + c * lam * tr.x_norm(u, which) ** (q - 1.0)
            if lhs > rhs * (1.0 + tol) + tol:
                found.append(Violation(i, t, lhs - rhs, {"part": which,
                                                         "lhs": lhs, "rhs": rhs}))
    return found


def _reference_hemicontinuity(drift, sampler, n_samples, seed,
                              jump_fraction=0.5, ctx=EMPTY_CONTEXT):
    rng = np.random.default_rng(seed)
    tr, found = drift.triple, []
    for i in range(n_samples):
        t, x = sampler(rng)
        y = sampler(rng)[1]
        z = sampler(rng)[1]
        vals = np.array([tr.dual_pairing(x, drift.eval(t, ctx, y + e * z))
                         for e in np.linspace(0.0, 1.0, 33)])
        total = float(np.max(vals) - np.min(vals))
        worst = float(np.max(np.abs(np.diff(vals))))
        if total > 0 and worst > jump_fraction * total:
            found.append(Violation(i, t, worst / total - jump_fraction,
                                   {"worst_jump": worst, "range": total}))
    return found


def _assert_same_violations(stacked, reference, rel=1e-9):
    """Same indices, times and detail keys; excess within ``rel``
    relative, or within 1e-12 of the terms' magnitude where they cancel."""
    assert [v.index for v in stacked.violations] == [v.index for v in reference]
    for got, want in zip(stacked.violations, reference):
        assert got.t == want.t
        assert got.detail.keys() == want.detail.keys()
        assert all(isinstance(value, float) for value in got.detail.values())
        terms = 1.0 + sum(abs(value) for value in want.detail.values())
        assert got.excess == pytest.approx(want.excess, rel=rel,
                                           abs=1e-12 * terms)


def _planted(kind):
    tr = DiscreteTriple(10, POROUS_MEDIUM, q1=3, q2=3)
    phi = np.sin if kind == "planted_sin" else np.sign
    drift = PhiDrift(tr, lambda t, ctx, r: phi(r))
    diff = ConstantDiffusion(tr, np.ones((10, 1)))
    return drift, diff, HypothesisBundle(q1=3, q2=3, xi=constant_profile(
        tr.hs_norm_sq(diff.eval(0.0, EMPTY_CONTEXT, None))))


def _augmented(times):
    """The eq_1_2 drift plus a forcing row, and a diffusion, tabulated on
    the grid as a sweep of the memory solver freezes them."""
    ops = build_operator_set("eq_1_2", 10, p=3.0)
    rng = np.random.default_rng(8)
    drift = _AugmentedDrift(ops.drift, times,
                            rng.normal(size=(len(times), 10)))
    diff = _FrozenDiffusion(times, rng.normal(size=(len(times), 10, 1)))
    return drift, diff, ops.bundle


@pytest.mark.parametrize("flag_all", [False, True])
@pytest.mark.parametrize("name", ["eq_1_1", "eq_1_2", "porous_medium",
                                  "reaction_diffusion", "planted_sin",
                                  "planted_sign", "augmented"])
def test_stacked_checkers_match_per_sample_reference(name, flag_all):
    """Same violations as the per-sample loops; with ``flag_all`` the
    tolerances are set so that every sample is a violation, which compares
    every sample's excess."""
    path = sample_path(17, 1.0, 32, 1)
    ctx = NoiseContext(path)
    if name.startswith("planted"):
        drift, diff, bundle = _planted(name)
        amp = (1e-1, 1e2) if name == "planted_sin" else (0.5, 2.0)
        tr = drift.triple
    elif name == "augmented":  # read at the checkers' column of times
        drift, diff, bundle = _augmented(path.times)
        tr, amp = drift.triple, (1e-3, 1e3)
    else:
        ops = build_operator_set(name, 10, p=3.0)
        drift, diff, bundle, tr = ops.drift, ops.diffusion, ops.bundle, ops.triple
        amp = (1e-3, 1e3)
    pairs = pair_sampler(tr, amp_range=amp, times=path.times)
    singles = state_sampler(tr, amp_range=amp, times=path.times)
    n, seed = 120, 29
    tol, jump = (-1e3, 0.0) if flag_all else (1e-10, 0.5)
    _assert_same_violations(
        check_monotonicity(drift, diff, bundle, pairs, n, seed, tol, ctx=ctx),
        _reference_monotonicity(drift, diff, bundle, pairs, n, seed, tol, ctx))
    _assert_same_violations(
        check_coercivity(drift, diff, bundle, singles, n, seed, tol, ctx=ctx),
        _reference_coercivity(drift, diff, bundle, singles, n, seed, tol, ctx))
    bounded = check_boundedness(drift, bundle, singles, n, seed, tol, ctx=ctx)
    _assert_same_violations(
        bounded, _reference_boundedness(drift, bundle, singles, n, seed, tol, ctx))
    hemi = check_hemicontinuity(drift, singles, n, seed, jump, ctx=ctx)
    # every jump of a smooth profile is a difference of two nearby
    # pairings, so the jumps carry the rounding of the pairings themselves
    _assert_same_violations(
        hemi, _reference_hemicontinuity(drift, singles, n, seed, jump, ctx),
        rel=1e-6 if flag_all else 1e-9)
    if flag_all:
        assert bounded.n_violations == n * len(drift_parts(drift, 0.0, ctx, np.ones(tr.n_grid)))


def test_planted_references_find_violations():
    """The planted drifts exercise the violation path of the comparison."""
    path = sample_path(17, 1.0, 32, 1)
    sin_drift, sin_diff, sin_bundle = _planted("planted_sin")
    sign_drift, _, _ = _planted("planted_sign")
    tr = sin_drift.triple
    assert _reference_monotonicity(
        sin_drift, sin_diff, sin_bundle,
        pair_sampler(tr, amp_range=(1e-1, 1e2), times=path.times), 120, 29)
    assert _reference_hemicontinuity(
        sign_drift, state_sampler(tr, amp_range=(0.5, 2.0), times=path.times),
        120, 29)


def test_stacked_boundedness_orders_parts_within_a_sample():
    # both parts of the reaction-diffusion drift violate a starved bound;
    # violations come sample by sample, part 1 before part 2
    ops = build_operator_set("reaction_diffusion", 8, p=3.0)
    starved = HypothesisBundle(lambda1=constant_profile(1e-9),
                               lambda2=constant_profile(1e-9), q1=2.0, q2=3.0)
    report = check_boundedness(ops.drift, starved, state_sampler(ops.triple),
                               n_samples=5, seed=2)
    keys = [(v.index, v.detail["part"]) for v in report.violations]
    assert keys == sorted(keys) and {p for _, p in keys} == {1.0, 2.0}
    assert keys == [(v.index, v.detail["part"]) for v in _reference_boundedness(
        ops.drift, starved, state_sampler(ops.triple), 5, 2)]


def test_profiles_must_accept_arrays_of_times():
    # the checkers and profile readers pass arrays of times; a profile
    # written for one float time raises, its np.where form runs
    ops = build_operator_set("porous_medium", 8, p=3.0)
    scalar_only = HypothesisBundle(
        lambda1=lambda t, ctx: 1.0 if t < 0.5 else 2.0, q1=3.0, q2=3.0)
    vectorised = HypothesisBundle(
        lambda1=lambda t, ctx: np.where(t < 0.5, 1.0, 2.0), q1=3.0, q2=3.0)
    sampler = state_sampler(ops.triple)
    with pytest.raises(ValueError, match="ambiguous"):
        check_coercivity(ops.drift, ops.diffusion, scalar_only, sampler,
                         n_samples=4)
    with pytest.raises(ValueError, match="ambiguous"):
        scalar_only.integrability_report(EMPTY_CONTEXT, 1.0, n=8)
    report = check_coercivity(ops.drift, ops.diffusion, vectorised, sampler,
                              n_samples=4)
    assert report.n_samples == 4
    assert vectorised.integrability_report(EMPTY_CONTEXT, 1.0, n=8).ok


def test_a_batch_context_serves_a_coefficient_once_per_step():
    # the stepper's frozen view keeps each |w_t| profile's value for the
    # step at ``index`` and forgets it when the index moves; a
    # NoiseContext reads a column of times afresh each call
    batch = sample_batch(11, 1.0, 4, 1, replicas=3)
    ctx = BatchContext(batch)
    coef, twice = abs_scalar_profile(), abs_scalar_profile(2.0)
    ctx.index = 1
    first = coef(0.25, ctx)
    assert coef(0.5, ctx) is first  # the time is not consulted
    assert np.array_equal(first[:, 0], np.abs(batch.scalar_paths[:, 1]))
    assert np.array_equal(twice(0.5, ctx), 2.0 * first)
    ctx.index = 2
    second = coef(0.5, ctx)
    assert np.array_equal(second[:, 0], np.abs(batch.scalar_paths[:, 2]))
    assert not np.array_equal(first, second)
    path = batch.row(1)
    plain = NoiseContext(path)
    for rows in ([1, 3, 2], [4, 0, 0]):
        column = path.times[rows][:, None]
        assert np.array_equal(coef(column, plain)[:, 0],
                              np.abs(path.scalar_paths[0, rows]))
    assert not hasattr(plain, "memo")


# the report's probe grid (64 steps on [0, 1]) and the two amplitude
# ranges hypothesis_report samples with
SAMPLER_GRIDS = {
    "none": None,
    "one_point": [0.37],
    "two_points": [0.0, 1.0],
    "probe": sample_path(5, 1.0, 64, 1).times,
    "non_uniform": [0.0, 0.01, 0.05, 0.2, 0.21, 0.5, 0.93, 1.0],
}


@pytest.mark.parametrize("amp_range", [(1e-3, 1e3), (1e-1, 1e2)])
@pytest.mark.parametrize("grid", sorted(SAMPLER_GRIDS))
@pytest.mark.parametrize("seed", [0, 5, 2**31])
def test_samplers_draw_the_choice_and_uniform_stream(seed, grid, amp_range):
    """The primitive draws give the oracle's times and states bit for bit,
    u = v branch included, and leave the generator in the same state."""
    tr = DiscreteTriple(12, POROUS_MEDIUM, q1=3, q2=3)
    kw = {"amp_range": amp_range, "times": SAMPLER_GRIDS[grid]}
    for make, want_make in ((state_sampler, oracles.state_sampler),
                            (pair_sampler, oracles.pair_sampler)):
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        sample, want_sample = make(tr, **kw), want_make(tr, **kw)
        equal_pairs = 0
        for _ in range(500):
            t, *states = sample(rng)
            want_t, *want_states = want_sample(want_rng)
            assert type(t) is float and t == want_t
            for got, want in zip(states, want_states):
                assert got.tobytes() == want.tobytes()
            equal_pairs += len(states) == 2 and states[0] is not states[1] \
                and states[0].tobytes() == states[1].tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state
        if make is pair_sampler:
            assert 20 < equal_pairs < 100


@pytest.mark.parametrize("kw, match", [
    ({"times": []}, "non-empty 1-d grid"),
    ({"times": np.zeros((0, 3))}, "non-empty 1-d grid"),
    ({"t_final": -1.0}, "finite t_final >= 0"),
    ({"t_final": np.inf}, "finite t_final >= 0"),
    ({"t_final": np.nan}, "finite t_final >= 0"),
])
def test_samplers_reject_what_the_draws_rejected(kw, match):
    tr = DiscreteTriple(4, POROUS_MEDIUM, q1=3, q2=3)
    # pair_sampler takes no t_final: it draws at state_sampler's default
    makers = [state_sampler] + ([] if "t_final" in kw else [pair_sampler])
    for make in makers:
        with pytest.raises(ConfigError, match=match):
            make(tr, **kw)
    # at t_final = 0 every time drawn is 0, as uniform(0, 0) drew it
    assert state_sampler(tr, t_final=0.0)(np.random.default_rng(1))[0] == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amp_range", oracles.BAD_AMP_RANGES)
@pytest.mark.parametrize("make", [state_sampler, pair_sampler])
def test_samplers_reject_a_bad_amp_range(make, amp_range):
    # before any logarithm is taken, so no RuntimeWarning at a draw
    tr = DiscreteTriple(4, POROUS_MEDIUM, q1=3, q2=3)
    with pytest.raises(ConfigError, match=r"0 < lo <= hi < inf"):
        make(tr, amp_range=amp_range)
    assert make(tr, amp_range=(2.0, 2.0))(np.random.default_rng(0))[1].shape \
        == (4,)


# ---------------------------------------------------------------------------
# shared draws: hypothesis_report's nine checks read three streams


def _counted(stream, calls: list):
    """``stream`` with its per-sample draw counted in ``calls``."""
    inner = stream.sample

    def sample(rng):
        calls.append(None)
        return inner(rng)

    stream.sample = sample
    return stream


def _report_checks(pairs, singles, planted_pairs, n_samples=500, seed=5):
    """hypothesis_report's nine checks, in its order, on the given draws."""
    probe = sample_path(seed, 1.0, 64, 1)
    ctx = NoiseContext(probe)
    reports = []
    for name in ("eq_1_1", "eq_1_2"):
        ops = build_operator_set(name, 12)
        reports += [
            check_monotonicity(ops.drift, ops.diffusion, ops.bundle, pairs,
                               n_samples=n_samples, seed=seed, ctx=ctx),
            check_coercivity(ops.drift, ops.diffusion, ops.bundle, singles,
                             n_samples=n_samples, seed=seed, ctx=ctx),
            check_boundedness(ops.drift, ops.bundle, singles,
                              n_samples=n_samples, seed=seed, ctx=ctx),
            check_hemicontinuity(ops.drift, singles,
                                 n_samples=min(n_samples, 200), seed=seed,
                                 ctx=ctx)]
    pm = build_operator_set("porous_medium", 12)
    planted = PhiDrift(pm.triple, lambda t, c, r: np.sin(r),
                       lambda t, c, r: np.cos(r))
    reports.append(check_monotonicity(planted, pm.diffusion, pm.bundle,
                                      planted_pairs, n_samples=n_samples,
                                      seed=seed))
    return reports


def test_shared_draws_give_the_fresh_reports():
    """Each check on the report's shared streams equals the same check on a
    fresh per-check generator drawn by the choice/uniform oracle samplers,
    and the shared streams draw each sample once."""
    tr = DiscreteTriple(12, POROUS_MEDIUM, q1=3, q2=3)
    times = sample_path(5, 1.0, 64, 1).times
    pair_calls, single_calls, planted_calls = [], [], []
    shared = _report_checks(
        _counted(pair_sampler(tr, times=times), pair_calls),
        _counted(state_sampler(tr, times=times), single_calls),
        _counted(pair_sampler(tr, amp_range=(1e-1, 1e2)), planted_calls))
    fresh = _report_checks(
        oracles.pair_sampler(tr, times=times),
        oracles.state_sampler(tr, times=times),
        oracles.pair_sampler(tr, amp_range=(1e-1, 1e2)))
    assert len(shared) == 9
    for got, want in zip(shared, fresh):
        assert_same_report(got, want, rel=0.0)
        for g, w in zip(got.violations, want.violations):
            assert g.detail.keys() == w.detail.keys()
            assert all(np.array_equal(g.detail[k], w.detail[k])
                       for k in g.detail)
    assert not shared[-1].ok and all(r.ok for r in shared[:-1])
    # 500 pairs for both families; 600 states for coercivity, boundedness
    # and hemicontinuity's 200 three-state samples; 500 planted pairs
    assert (len(pair_calls), len(single_calls), len(planted_calls)) \
        == (500, 600, 500)


def test_memoized_draws_are_read_only_and_live_with_their_sampler():
    tr = DiscreteTriple(6, POROUS_MEDIUM, q1=3, q2=3)
    calls = []
    stream = _counted(state_sampler(tr), calls)

    def planted(t, u):
        u[0, 0] = 0.0  # writes into the shared column
        return []

    with pytest.raises(ValueError, match="read-only"):
        _sampled_check("planted", 10, 0.0, 3, stream, planted)
    (t, u), *_ = stream.prefix(3, 10)[0]
    want_t, want_u = oracles.state_sampler(tr)(np.random.default_rng(3))
    assert t == want_t and np.array_equal(u, want_u)
    assert len(calls) == 10
    # a longer prefix draws only the new samples; a new sampler redraws
    stream.prefix(3, 25)
    assert len(calls) == 25
    _counted(state_sampler(tr), calls).prefix(3, 25)
    assert len(calls) == 50


def test_a_check_with_a_tail_sees_the_fresh_loops_generator():
    # the stream is drawn past n_samples first; the tail still gets the
    # generator where a per-sample loop over n_samples leaves it
    tr = DiscreteTriple(6, POROUS_MEDIUM, q1=3, q2=3)
    stream = state_sampler(tr)
    _sampled_check("ahead", 40, 0.0, 3, stream, lambda t, u: [])
    seen = {}

    def tail(rng, report):
        seen["state"] = rng.bit_generator.state
        seen["next"] = stream(rng)[1]

    _sampled_check("tail", 25, 0.0, 3, stream, lambda t, u: [], tail=tail)
    rng = np.random.default_rng(3)
    for _ in range(25):
        oracles.state_sampler(tr)(rng)
    assert seen["state"] == rng.bit_generator.state
    assert np.array_equal(seen["next"], oracles.state_sampler(tr)(rng)[1])


def test_hypothesis_report_draws_each_state_once_per_run(monkeypatch,
                                                         tmp_path):
    """About 2,600 state draws per default run (6,200 when every check drew
    its own), and as many again on a second run: nothing carries over."""
    calls = []
    real = monosee.operators.state_sampler

    def counting(*args, **kwargs):
        return _counted(real(*args, **kwargs), calls)

    monkeypatch.setattr(monosee.operators, "state_sampler", counting)
    monkeypatch.setattr(monosee.experiments, "state_sampler", counting)
    counts = []
    for run in range(2):
        del calls[:]
        run_experiment(ExperimentConfig(
            experiment="hypothesis_report",
            output={"directory": str(tmp_path / str(run))}))
        counts.append(len(calls))
    assert counts == [2600, 2600]


def test_a_sample_with_a_non_finite_excess_is_not_evaluated():
    """A row that no group flags but whose excess is NaN or infinite is a
    violation of its own, not a pass; a scalar excess (the value a group
    declares for the rows it flags) is not read."""
    excess = np.array([0.0, np.nan, -np.inf, np.inf, 1.0])

    def evaluate(t, u):
        return [(np.inf, np.zeros(5, dtype=bool), {}),
                (excess, np.array([False, False, False, True, True]),
                 {"u": u})]

    report = _sampled_check("plant", 5, 0.0, 3,
                            lambda rng: (float(rng.uniform()), 1.0), evaluate)
    assert not report.ok
    assert [(v.index, v.detail) for v in report.violations] == [
        (1, NOT_EVALUATED), (2, NOT_EVALUATED), (3, {"u": 1.0}),
        (4, {"u": 1.0})]
    assert report.max_excess == np.inf
    assert report.summary() == ("plant: 5 samples, 2 violations (max excess "
                                "inf), 2 not evaluated")


def test_hypothesis_report_reads_no_unevaluated_sample_as_ok(monkeypatch,
                                                             tmp_path):
    """At p = 100 the built-in drifts overflow on some samples, so their
    excess is not finite; no check that met such a sample reads ok."""
    held = []
    record = monosee.reporting._record

    def spy(report, t, groups, index=None):
        if any(np.ndim(excess) and not np.isfinite(excess).all()
               for excess, _, _ in groups):
            held.append(report)
        return record(report, t, groups, index)

    monkeypatch.setattr(monosee.reporting, "_record", spy)
    # no errstate here: the warnings filter turns any overflow warning that
    # escapes the sampled checks into a failure
    result = run_experiment(ExperimentConfig(
        experiment="hypothesis_report", problem={"p": 100},
        output={"directory": str(tmp_path)}))
    assert len(held) >= 8  # both families, all four checks
    verdicts = {a.detail: a.passed for a in result.outcome.assertions}
    for report in held:
        assert not report.ok and not report.summary().endswith("ok")
        assert verdicts[report.summary()] is False
