"""Forward solver tests.

Projected coefficients are checked against eigenvalue and direct-summation
oracles, implicit steps against closed forms and an in-test bisection, the
trajectory against exact exponentials and moment formulas, and the energy
ledger against its own algebraic identity.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import monosee.forward
import monosee.resolvent
from monosee.analysis import convergence_order, sup_h_distance
from monosee.errors import ConfigError, MonoseeError, NonconvergenceError
from monosee.forward import (AprioriReport, GalerkinSystem, SolverConfig,
                             apriori_norms, rescale_problem, solve_forward,
                             step_implicit, trajectory_csv)
from monosee.noise import EMPTY_CONTEXT, BatchContext, NoiseBatch, \
    NoiseContext, refine_path, sample_batch, sample_path, zero_path
from monosee.operators import (ConstantDiffusion, PhiDrift,
                               PorousMediumDrift, ReactionDiffusionDrift,
                               build_operator_set,
                               check_coercivity, check_monotonicity,
                               constant_profile, drift_parts, pair_sampler,
                               state_sampler)
from monosee.functional import _AugmentedDrift, _FrozenDiffusion
from monosee.resolvent import MonotoneMap, NewtonCounts
from monosee.triple import DiscreteTriple, REACTION_DIFFUSION
import oracles


def _zero_phi_drift(triple):
    return PhiDrift(triple, lambda t, ctx, r: np.zeros_like(r),
                    phi_prime=lambda t, ctx, r: np.zeros_like(r))


# ---------------------------------------------------------------------------
# Galerkin projection


def test_galerkin_heat_is_diagonal_eigenvalue_oracle():
    ops = build_operator_set("heat", 24)
    n = 6
    sys = GalerkinSystem(ops.drift, ops.diffusion, n, ops.triple)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=n)
        assert np.allclose(sys.b(0.0, EMPTY_CONTEXT, x),
                           -ops.triple.mu[:n] * x, rtol=1e-10, atol=1e-12)


def test_galerkin_rd_linear_flux_same_eigenvalues():
    tr = DiscreteTriple(20, REACTION_DIFFUSION, q1=2.0, q2=3.0)
    drift = ReactionDiffusionDrift(
        tr, a=lambda t, ctx, r: np.asarray(r, dtype=float),
        b=lambda t, ctx, r: np.zeros_like(np.asarray(r, dtype=float)),
        a_prime=lambda t, ctx, r: np.ones_like(np.asarray(r, dtype=float)),
        b_prime=lambda t, ctx, r: np.zeros_like(np.asarray(r, dtype=float)))
    diff = ConstantDiffusion(tr, np.zeros((20, 1)))
    sys = GalerkinSystem(drift, diff, 5, tr)
    x = np.array([0.3, -1.2, 0.5, 2.0, -0.1])
    assert np.allclose(sys.b(0.0, EMPTY_CONTEXT, x), -tr.mu[:5] * x,
                       rtol=1e-10, atol=1e-12)


def test_galerkin_zero_at_origin():
    pm = build_operator_set("porous_medium", 16)
    sys = GalerkinSystem(pm.drift, pm.diffusion, 8, pm.triple)
    assert np.allclose(sys.b(0.3, EMPTY_CONTEXT, np.zeros(8)), 0.0, atol=1e-13)

    rd = build_operator_set("eq_1_2", 16)
    path = sample_path(seed=2, t_final=1.0, n_steps=16, n_modes=1)
    ctx = NoiseContext(path)
    rsys = GalerkinSystem(rd.drift, rd.diffusion, 8, rd.triple)
    assert np.allclose(rsys.b(0.5, ctx, np.zeros(8)), 0.0, atol=1e-13)
    assert np.allclose(rsys.sigma(0.5, ctx, np.zeros(8)), 0.0, atol=1e-13)


def test_galerkin_pm_direct_summation_oracle():
    """b_i must equal the direct Riemann sum -h sum_j e_i(x_j) phi(u(x_j))."""
    ops = build_operator_set("porous_medium", 40, p=3.0)
    n = 2
    sys = GalerkinSystem(ops.drift, ops.diffusion, n, ops.triple)
    E = ops.triple.basis[:, :n]
    h = ops.triple.h
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=n) * 3.0
        u = E @ x
        phi = np.abs(u) * u
        oracle = np.array([-h * float(E[:, i] @ phi) for i in range(n)])
        got = sys.b(0.0, EMPTY_CONTEXT, x)
        assert np.allclose(got, oracle, rtol=1e-10, atol=1e-12)


def test_galerkin_sigma_truncates_noise_modes():
    # a constant diffusion is projected once, when the system is built:
    # every call returns that matrix, bit for bit P @ matrix truncated
    tr = DiscreteTriple(12, REACTION_DIFFUSION)
    drift = _rd_zero_drift(tr)
    matrix = np.random.default_rng(4).normal(size=(12, 5))
    sys = GalerkinSystem(drift, ConstantDiffusion(tr, matrix), 3, tr)
    sig = sys.sigma(0.0, EMPTY_CONTEXT, np.zeros(3))
    assert sig.shape == (3, 3)  # min(n, diffusion modes)
    assert np.array_equal(sig, (sys.projector @ matrix)[..., :3])
    assert sys.sigma(0.5, EMPTY_CONTEXT, np.ones((4, 3))) is sig


def _rd_zero_drift(tr):
    zero = lambda t, ctx, r: np.zeros_like(np.asarray(r, dtype=float))
    return ReactionDiffusionDrift(tr, a=zero, b=zero, a_prime=zero,
                                  b_prime=zero)


def _composed_drift(name, n_grid):
    """(drift, diffusion) of one drift kind the Galerkin system composes."""
    if name in ("heat", "porous_medium", "reaction_diffusion", "eq_1_1",
                "eq_1_2"):
        ops = build_operator_set(name, n_grid, p=3.0)
        return ops.drift, ops.diffusion
    if name == "phi":
        tr = DiscreteTriple(n_grid, "porous_medium", q1=4.0, q2=4.0)
        return (PhiDrift(tr, lambda t, ctx, r: r ** 3 + r,
                         phi_prime=lambda t, ctx, r: 3.0 * r ** 2 + 1.0),
                ConstantDiffusion(tr, np.zeros((n_grid, 1))))
    if name == "augmented":
        ops = build_operator_set("eq_1_2", n_grid, p=3.0)
        rows = np.random.default_rng(5).normal(size=(9, n_grid))
        return (_AugmentedDrift(ops.drift, np.linspace(0.0, 0.25, 9), rows),
                ops.diffusion)
    ops = build_operator_set("eq_1_2", n_grid, p=3.0)  # random lambda0
    rescaled = rescale_problem(ops.drift, ops.diffusion, ops.bundle)
    return rescaled.drift, rescaled.diffusion


def _assert_rows_close(got, want, rtol):
    gap = np.linalg.norm(got - want, axis=-1)
    assert np.all(gap <= rtol * np.linalg.norm(want, axis=-1)), \
        np.max(gap / np.linalg.norm(want, axis=-1))


@pytest.mark.parametrize("name", ["heat", "porous_medium",
                                  "reaction_diffusion", "eq_1_1", "eq_1_2",
                                  "phi", "augmented", "rescaled"])
def test_galerkin_composition_matches_the_grid_drift(name):
    # the mode-space composition of the drift's terms against lifting to
    # the grid, the grid-space eval and jacobian, and projecting back
    drift, diffusion = _composed_drift(name, 16)
    n = 6
    sys = GalerkinSystem(drift, diffusion, n, drift.triple)
    noise = sample_batch(seed=3, t_final=0.25, n_steps=8, n_modes=1,
                         replicas=4)
    t = float(noise.times[5])
    batch_ctx = BatchContext(noise)
    batch_ctx.index = 5
    rng = np.random.default_rng(11)
    cases = [(NoiseContext(noise.path(2)), 2.0 * rng.normal(size=n)),
             (batch_ctx, 2.0 * rng.normal(size=(4, n)))]
    for ctx, x in cases:
        b, _ = sys.bind(ctx)
        u = sys.lift(x)
        _assert_rows_close(sys.b(t, ctx, x),
                           drift.eval(t, ctx, u) @ sys.projector.T, 1e-12)
        jac = b.jacobian(t, x)
        assert jac.shape == x.shape + (n,)
        grid = sys.projector @ drift.jacobian(t, ctx, u) @ sys.modes
        assert np.all(np.linalg.norm(jac - grid, axis=(-2, -1))
                      <= 1e-12 * np.linalg.norm(grid, axis=(-2, -1)))
        # and against central differences of the composed drift
        fd = np.empty_like(jac)
        for j in range(n):
            step = 1e-6 * (1.0 + np.abs(x[..., j, None]))
            up, down = x.copy(), x.copy()
            up[..., j] += step[..., 0]
            down[..., j] -= step[..., 0]
            fd[..., j] = (b.eval(t, up) - b.eval(t, down)) / (2.0 * step)
        assert np.all(np.linalg.norm(jac - fd, axis=(-2, -1))
                      <= 1e-6 * np.linalg.norm(jac, axis=(-2, -1)))
        # only the heat drift is linear, and its matrix is the Jacobian
        if name == "heat":
            assert np.allclose(b.slope, jac, rtol=0,
                               atol=1e-12 * np.max(np.abs(jac)))
        else:
            assert b.slope is None


def _assert_rows_match(got, want, exact):
    """Bit for bit, or within 1e-15 of each row's largest entry."""
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got, want)
    else:
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


@pytest.mark.parametrize("name", ["heat", "porous_medium",
                                  "reaction_diffusion", "eq_1_1", "eq_1_2",
                                  "phi", "augmented", "rescaled"])
def test_grid_form_matches_the_hand_written_drift(name):
    # the grid eval, parts and Jacobian composed from the drift's terms
    # against the formulas written on the grid by hand: the porous family
    # and the Jacobians bit for bit, the rest to rounding; the rescaled
    # drift's damping arrives as one term per part, so its Jacobian too
    drift, _ = _composed_drift(name, 16)
    noise = sample_batch(seed=3, t_final=0.25, n_steps=8, n_modes=1,
                         replicas=4)
    ctx = NoiseContext(noise.path(2))
    rng = np.random.default_rng(19)
    amp = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (500, 1)))
    u = amp * rng.standard_normal((500, 16))
    cases = [float(noise.times[5]),
             noise.times[rng.integers(1, 9, (500, 1))]]
    porous = name in ("heat", "porous_medium", "eq_1_1", "phi")
    for t in cases:
        _assert_rows_match(drift.eval(t, ctx, u),
                           oracles.drift_eval(drift, t, ctx, u), porous)
        got = drift_parts(drift, t, ctx, u)
        want = oracles.drift_parts(drift, t, ctx, u)
        assert [which for which, _ in got] == [which for which, _ in want]
        for (_, got_part), (_, want_part) in zip(got, want):
            _assert_rows_match(got_part, want_part, porous)
        _assert_rows_match(drift.jacobian(t, ctx, u),
                           oracles.drift_jacobian(drift, t, ctx, u),
                           name != "rescaled")


@pytest.mark.parametrize("name", ["heat", "porous_medium",
                                  "reaction_diffusion", "eq_1_1", "eq_1_2",
                                  "phi", "augmented", "rescaled"])
def test_grid_form_names_a_non_finite_state_entry(name):
    # checked on the node values before any term, also where the first
    # term's argument is not the state (the reaction-diffusion gradient)
    drift, _ = _composed_drift(name, 16)
    ctx = NoiseContext(sample_path(seed=3, t_final=0.25, n_steps=8,
                                   n_modes=1))
    u = np.full((3, 16), 0.5)
    u[1, 7] = np.nan
    for evaluate in (drift.eval, lambda t, c, v: drift_parts(drift, t, c, v)):
        with pytest.raises(MonoseeError, match="index 7 of replica 1"):
            evaluate(0.125, ctx, u)
        with pytest.raises(MonoseeError, match="index 7$"):
            evaluate(0.125, ctx, u[1])


@pytest.mark.parametrize("off", [0.1, 0.5, -0.03125])
def test_frozen_rows_name_an_off_grid_time_in_a_column(off):
    # a forcing row or a diffusion factor exists only at the grid times
    # it was tabulated on
    times = np.linspace(0.0, 0.25, 9)
    rng = np.random.default_rng(5)
    drift = _AugmentedDrift(build_operator_set("heat", 16).drift, times,
                            rng.normal(size=(9, 16)))
    diffusion = _FrozenDiffusion(times, rng.normal(size=(9, 16, 2)))
    t = np.array([[0.0], [0.125], [off]])
    for evaluate in (drift.eval, diffusion.eval):
        with pytest.raises(MonoseeError,
                           match=rf"off the grid \(t = {off:g}\)"):
            evaluate(t, EMPTY_CONTEXT, np.ones((3, 16)))
    assert diffusion.eval(t[:2], EMPTY_CONTEXT, None).shape == (2, 16, 2)


def _no_prime_drifts(n_grid):
    """A phi drift without phi' and a reaction-diffusion drift without b',
    each with the analytic drift it should match."""
    pm = DiscreteTriple(n_grid, "porous_medium", q1=4.0, q2=4.0)
    phi = lambda t, ctx, r: r ** 3 + r
    phi_prime = lambda t, ctx, r: 3.0 * r ** 2 + 1.0
    rd = DiscreteTriple(n_grid, REACTION_DIFFUSION, q1=2.0, q2=4.0)
    a = lambda t, ctx, r: np.asarray(r, dtype=float)
    a_prime = lambda t, ctx, r: np.ones_like(np.asarray(r, dtype=float))
    return [(PhiDrift(pm, phi), PhiDrift(pm, phi, phi_prime)),
            (ReactionDiffusionDrift(rd, a, phi, a_prime),
             ReactionDiffusionDrift(rd, a, phi, a_prime, phi_prime))]


def test_grid_jacobian_needs_every_psi_prime():
    for drift, _ in _no_prime_drifts(8):
        with pytest.raises(ConfigError, match="psi_prime"):
            drift.jacobian(0.0, EMPTY_CONTEXT, np.ones(8))


def test_solve_forward_differences_a_drift_without_psi_prime(monkeypatch):
    # the projected drift gets no analytic Jacobian, so each Newton
    # iteration differences it (resolvent._full_jacobian); the path
    # agrees with the analytic solve to the Newton tolerance
    full = monosee.resolvent._full_jacobian
    differenced = []

    def counting(F, t, y):
        differenced.append(F.jacobian is None)
        return full(F, t, y)

    monkeypatch.setattr(monosee.resolvent, "_full_jacobian", counting)
    noise = sample_path(seed=4, t_final=0.1, n_steps=10, n_modes=1)
    cfg = SolverConfig(n_modes_galerkin=4)
    for bare, analytic in _no_prime_drifts(12):
        x0 = np.sin(np.pi * bare.triple.nodes)
        diffusion = ConstantDiffusion(bare.triple, np.zeros((12, 1)))
        differenced.clear()
        got = solve_forward(cfg, bare, diffusion, noise, x0)
        assert differenced and all(differenced)
        want = solve_forward(cfg, analytic, diffusion, noise, x0)
        assert np.allclose(got.coeffs, want.coeffs, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# single steps


def test_step_zero_drift_is_explicit_increment():
    cfg = SolverConfig(n_modes_galerkin=4)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    sig = np.diag([0.1, 0.2, 0.3, 0.4])
    dW = np.array([1.0, -1.0, 2.0, 0.5])
    y = step_implicit(x, 0.0, 0.01, dW,
                      b=MonotoneMap(eval=lambda t, v: np.zeros_like(v)),
                      sigma=lambda t, v: sig, cfg=cfg).y
    assert np.array_equal(y, x + sig @ dW)


def test_step_linear_closed_form():
    cfg = SolverConfig(n_modes_galerkin=3, resolvent_tol=1e-13)
    mu = np.array([1.0, 4.0, 9.0])
    x = np.array([0.7, -0.3, 1.1])
    dW = np.array([0.2])
    sig_mat = np.array([[0.5], [0.1], [-0.2]])
    dt = 0.05
    y = step_implicit(x, 0.0, dt, dW,
                      b=MonotoneMap(eval=lambda t, v: -mu * v),
                      sigma=lambda t, v: sig_mat, cfg=cfg).y
    r = x + sig_mat[:, 0] * dW[0]
    assert np.allclose(y, r / (1.0 + mu * dt), rtol=1e-12, atol=1e-14)


def test_step_cubic_against_bisection_oracle():
    """Scalar y + dt k y^3 = r, root located by plain interval bisection."""
    cfg = SolverConfig(n_modes_galerkin=1, resolvent_tol=1e-13,
                       resolvent_max_iter=100)
    k, dt, r = 2.5, 0.2, 3.7
    y = step_implicit(np.array([r]), 0.0, dt, np.array([0.0]),
                      b=MonotoneMap(eval=lambda t, v: -k * v ** 3),
                      sigma=lambda t, v: np.zeros((1, 1)), cfg=cfg).y

    lo, hi = 0.0, r
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + dt * k * mid ** 3 - r > 0:
            hi = mid
        else:
            lo = mid
    assert abs(float(y[0]) - lo) < 1e-10


def test_monotone_step_is_nonexpansive_with_shared_noise():
    ops = build_operator_set("porous_medium", 16, p=3.0)
    sys = GalerkinSystem(ops.drift, ops.diffusion, 8, ops.triple)
    cfg = SolverConfig(n_modes_galerkin=8, resolvent_tol=1e-12)
    b, sigma = sys.bind(EMPTY_CONTEXT)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x1 = rng.normal(size=8) * 2.0
        x2 = rng.normal(size=8) * 2.0
        dW = rng.normal(size=1) * 0.1
        y1 = step_implicit(x1, 0.0, 0.01, dW, b, sigma, cfg).y
        y2 = step_implicit(x2, 0.0, 0.01, dW, b, sigma, cfg).y
        before = np.linalg.norm(x1 - x2)
        after = np.linalg.norm(y1 - y2)
        assert after <= before * (1.0 + 1e-9) + 1e-11


def test_step_returns_its_target_and_the_drift_at_the_new_state():
    ops = build_operator_set("eq_1_2", 12, p=3.0)
    noise = sample_path(seed=3, t_final=0.25, n_steps=10, n_modes=1)
    sys = GalerkinSystem(ops.drift, ops.diffusion, 6, ops.triple)
    ctx = BatchContext(NoiseBatch.from_path(noise))
    b, sigma = sys.bind(ctx)
    cfg = SolverConfig(n_modes_galerkin=6)
    x = ops.triple.coefficients(np.sin(np.pi * ops.triple.nodes), 6)[None]
    for k in range(noise.n_steps):
        ctx.index = k
        t = float(noise.times[k])
        dW = noise.increments[None, k]
        step = step_implicit(x, t, noise.dt, dW, b, sigma, cfg, guess=x)
        assert np.array_equal(step.r, x + sys.sigma(t, ctx, x) @ dW[0])
        assert np.array_equal(step.b_y, sys.b(t + noise.dt, ctx, step.y))
        x = step.y


def _counted(monkeypatch, calls, obj, name):
    method = getattr(obj, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(obj, name, counting)


def test_forward_step_evaluates_each_operator_once_per_quantity(monkeypatch):
    # a strong additive noise from rest makes the line search halve
    ops = build_operator_set("porous_medium", 12, p=3.0)
    diff = ConstantDiffusion(ops.triple, 300.0 * np.ones((12, 1)))
    noise = sample_path(seed=21, t_final=0.25, n_steps=25, n_modes=1)
    # the projected drift is composed from the drift's one term (I, phi,
    # phi', L), so a Newton trial is one phi call and an iteration one phi'
    drift_calls, diffusion_calls = Counter(), Counter()
    _counted(monkeypatch, drift_calls, ops.drift, "phi")
    _counted(monkeypatch, drift_calls, ops.drift, "phi_prime")
    _counted(monkeypatch, diffusion_calls, diff, "eval")
    counts = NewtonCounts(1)
    solve_forward(SolverConfig(n_modes_galerkin=6), ops.drift, diff, noise,
                  np.zeros(12), counts=counts)
    [iterations], [halvings] = counts.iterations, counts.halvings
    assert halvings > 0
    assert diffusion_calls["eval"] == 0  # constant: projected once, up front
    assert drift_calls["phi"] == noise.n_steps + iterations + halvings
    assert drift_calls["phi_prime"] == iterations


def test_forward_step_reads_each_random_coefficient_once(monkeypatch):
    # eq_1_2's flux, reaction, their derivatives and its multiplicative
    # sigma all read one |w_t| coefficient: once per step, at the step's
    # left index, through the batch context's memo
    ops = build_operator_set("eq_1_2", 16, p=3.0)
    batch = sample_batch(seed=5, t_final=0.25, n_steps=20, n_modes=1,
                         replicas=8)
    reads, diffusion_calls = [], Counter()
    scalar = BatchContext.scalar
    monkeypatch.setattr(BatchContext, "scalar", lambda self, t: (
        reads.append(self.index), scalar(self, t))[1])
    _counted(monkeypatch, diffusion_calls, ops.diffusion, "eval")
    counts = NewtonCounts(8)
    solve_forward(SolverConfig(n_modes_galerkin=8), ops.drift, ops.diffusion,
                  batch, ops.triple.basis_function(1), counts=counts)
    assert np.all(counts.iterations > 0)
    assert reads == list(range(batch.n_steps))
    assert diffusion_calls["eval"] == batch.n_steps


def test_the_jacobian_reuses_the_arguments_of_the_evaluated_stack_only(
        monkeypatch):
    # reused or recomputed, the Jacobian is bit for bit the one formed
    # afresh; the last evaluation's arguments serve that stack only
    ops = build_operator_set("eq_1_2", 16, p=3.0)
    system = GalerkinSystem(ops.drift, ops.diffusion, 6, ops.triple)
    ctx = BatchContext(sample_batch(seed=3, t_final=0.25, n_steps=8,
                                    n_modes=1, replicas=4))
    ctx.index = 5
    compose = monosee.forward._compose_jacobian
    calls = []

    def recorded(terms, t, ctx, x, args=None):
        last, evaluated = system._evaluated
        got = compose(terms, t, ctx, x, args)
        calls.append((x is last, args is not None,
                      np.array_equal(got, compose(terms, t, ctx, x.copy())),
                      np.array_equal(got, compose(terms, t, ctx, x,
                                                  evaluated))))
        return got

    monkeypatch.setattr(monosee.forward, "_compose_jacobian", recorded)
    drift, _ = system.bind(ctx)
    rng = np.random.default_rng(7)
    x = 100.0 * rng.normal(size=(4, 6))
    counts = NewtonCounts(4)
    # row 3 halves once and the others accept their first trial; the
    # line search ends on row 3's accepted trial, the stack it evaluated
    _, _, unsolved = monosee.resolvent._resolvent_general(
        drift, 0.2, 0.5, x, 1e-10, 50, guess=0.01 * rng.normal(size=(4, 6)),
        counts=counts)
    assert unsolved is None and list(counts.halvings) == [0, 0, 0, 1]
    assert calls == [(True, True, True, True)] * counts.iterations.max()
    # a stack mixing the rows of two, as a line search leaves it when a
    # row stalls, is not the evaluated one: its arguments are formed anew
    trial = 0.5 * x
    system.b(0.2, ctx, trial)
    mixed = np.where(np.array([[False], [False], [False], [True]]), x, trial)
    drift.jacobian(0.2, mixed)
    assert calls[-1] == (False, False, True, False)


# ---------------------------------------------------------------------------
# trajectories


def test_solve_forward_constant_path_for_zero_operators():
    tr = DiscreteTriple(12, "porous_medium", q1=3.0, q2=3.0)
    drift = _zero_phi_drift(tr)
    diff = ConstantDiffusion(tr, np.zeros((12, 1)))
    x0 = np.sin(np.pi * tr.nodes)
    cfg = SolverConfig(n_modes_galerkin=12)
    path = solve_forward(cfg, drift, diff, zero_path(1.0, 20), x0)
    assert np.allclose(path.states, path.states[0][None, :], atol=1e-14)
    assert np.array_equal(path.energy_residual, np.zeros(20))
    # full mode count keeps the initial state exactly (up to projection fp)
    assert np.allclose(path.states[0], x0, atol=1e-8)


def test_solve_forward_heat_exponential_refinement():
    """Implicit-Euler error against the exact exponential halves with dt."""
    ops = build_operator_set("heat", 16)
    x0 = ops.triple.basis_function(1)
    mu1 = ops.triple.mu[0]
    t_final = 0.5
    errors = []
    for n_steps in (125, 250, 500):
        cfg = SolverConfig(n_modes_galerkin=8)
        path = solve_forward(cfg, ops.drift, ops.diffusion,
                             zero_path(t_final, n_steps), x0)
        exact = np.exp(-mu1 * path.times)
        errors.append(float(np.max(np.abs(path.coeffs[:, 0] - exact))))
        assert np.allclose(path.coeffs[:, 1:], 0.0, atol=1e-12)
    assert 1.7 <= errors[0] / errors[1] <= 2.3
    assert 1.7 <= errors[1] / errors[2] <= 2.3


def _scalar_replicas(f, g, noise, u0, f_prime=None):
    """Each noise column drives one replica of du = f(u) dt + g(u) dw: the
    replicas are an (R, 1) stack stepped by ``step_implicit`` (resolvent
    tolerance 1e-12, 200 Newton iterations).  f, f_prime and g act
    elementwise; returns the states, shaped (n_steps + 1, R)."""
    jacobian = None if f_prime is None else (
        lambda t, u: f_prime(u)[..., None])
    drift = MonotoneMap(eval=lambda t, u: f(u), jacobian=jacobian,
                        name="scalar drift")
    cfg = SolverConfig(n_modes_galerkin=1, resolvent_tol=1e-12,
                       resolvent_max_iter=200)
    states = np.empty((noise.n_steps + 1, noise.n_modes))
    states[0] = u0
    u = states[0][:, None]
    for k in range(noise.n_steps):
        u = step_implicit(u, float(noise.times[k]), noise.dt,
                          noise.increments[k][:, None], drift,
                          lambda t, u: g(u)[..., None], cfg).y
        states[k + 1] = u[:, 0]
    return states


def test_step_implicit_scalar_stack_matches_the_closed_form_step():
    """du = a u dt + b u dw on an (R, 1) stack: each step is the implicit
    Euler step (u + b u dW) / (1 - a dt) up to rounding."""
    a, b_coef = -1.0, 0.5
    noise = sample_path(seed=7, t_final=0.25, n_steps=16, n_modes=50)
    states = _scalar_replicas(lambda u: a * u, lambda u: b_coef * u, noise,
                              1.0, f_prime=lambda u: np.full_like(u, a))
    exact = np.empty_like(states)
    exact[0] = 1.0
    for k, dw in enumerate(noise.increments):
        exact[k + 1] = (exact[k] + b_coef * exact[k] * dw) \
            / (1.0 - a * noise.dt)
    assert np.max(np.abs(states - exact) / np.abs(exact)) <= 1e-14


def test_solve_forward_second_moment_linear_see():
    """du = a u dt + b u dw: E|u(1)|^2 = e^{2a + b^2} (moment ODE oracle)."""
    a, b_coef, n_rep = -1.0, 0.5, 3000
    noise = sample_path(seed=9, t_final=1.0, n_steps=1000, n_modes=n_rep)
    states = _scalar_replicas(lambda u: a * u, lambda u: b_coef * u, noise,
                              1.0, f_prime=lambda u: np.full_like(u, a))
    sq = states[-1] ** 2
    mean = float(np.mean(sq))
    se = float(np.std(sq, ddof=1)) / math.sqrt(n_rep)
    exact = math.exp(2 * a + b_coef ** 2)
    assert abs(mean - exact) <= 3.0 * se + 0.002


def test_step_implicit_zero_drift_additive_stack():
    noise = sample_path(seed=5, t_final=1.0, n_steps=64, n_modes=40)
    states = _scalar_replicas(np.zeros_like, np.ones_like, noise, 0.25)
    exact = 0.25 + np.vstack([np.zeros(40), np.cumsum(noise.increments, axis=0)])
    assert np.allclose(states, exact, rtol=0, atol=1e-13)


def test_solve_forward_propagates_nonconvergence_with_step_index():
    ops = build_operator_set("porous_medium", 12, p=3.0)
    x0 = 50.0 * np.sin(np.pi * ops.triple.nodes)
    cfg = SolverConfig(n_modes_galerkin=6, resolvent_max_iter=1,
                       resolvent_tol=1e-14)
    with pytest.raises(NonconvergenceError, match="step 0") as err:
        solve_forward(cfg, ops.drift, ops.diffusion, zero_path(1.0, 10), x0)
    assert len(err.value.residuals) >= 1

    # in a batch from rest, replicas 0 and 1 see no noise and are solved
    # before any Newton step; replicas 2 and 3 need more than the one
    # allowed, and the error names the first of them with its own history
    times = np.linspace(0.0, 1.0, 11)
    increments = np.zeros((4, 10, 1))
    increments[2:] = 0.1
    scalar = np.zeros((4, 11))
    batch = NoiseBatch(0, 0, 0, times, increments, scalar)
    zero = np.zeros(12)
    with pytest.raises(NonconvergenceError,
                       match=r"^replica 2: forward solve failed at step 0 ") \
            as err:
        solve_forward(cfg, ops.drift, ops.diffusion, batch, zero)
    assert err.value.replica == 2
    with pytest.raises(NonconvergenceError) as alone:
        solve_forward(cfg, ops.drift, ops.diffusion, batch.path(2), zero)
    assert alone.value.replica is None
    assert len(err.value.residuals) == len(alone.value.residuals) >= 1
    assert np.allclose(err.value.residuals, alone.value.residuals,
                       rtol=1e-12, atol=0)
    # every failed replica is listed, each with its own one-path history
    assert [f.replica for f in err.value.failures] == [2, 3]
    for failure in err.value.failures:
        assert str(failure).startswith(
            f"replica {failure.replica}: forward solve failed at step 0 ")
        with pytest.raises(NonconvergenceError) as alone:
            solve_forward(cfg, ops.drift, ops.diffusion,
                          batch.path(failure.replica), zero)
        assert len(failure.residuals) == len(alone.value.residuals)
        assert np.allclose(failure.residuals, alone.value.residuals,
                           rtol=1e-12, atol=0)
    # replicas are numbered from the batch's first one
    shifted = dataclasses.replace(batch, replica0=5)
    with pytest.raises(NonconvergenceError, match=r"^replica 7: ") as err:
        solve_forward(cfg, ops.drift, ops.diffusion, shifted, zero)
    assert [f.replica for f in err.value.failures] == [7, 8]
    calm =NoiseBatch(0, 0, 0, times, increments[:2], scalar[:2])
    assert len(solve_forward(cfg, ops.drift, ops.diffusion, calm, zero)) == 2


def _pathwise_starts(triple):
    u0 = triple.basis_function(1)
    return [u0] + [u0 + delta * triple.basis_function(1)
                   for delta in (1e-1, 1e-2, 1e-3)] \
        + [0.5 * triple.basis_function(3) - u0]


@pytest.mark.parametrize("name", ["porous_medium", "eq_1_2"])
def test_starts_on_one_path_solve_as_one_stack(name):
    # R starts on one NoisePath: one solve whose rows match R single
    # solves to rounding, with the same Newton work row by row
    ops = build_operator_set(name, 16)
    cfg = SolverConfig(n_modes_galerkin=8)
    noise = sample_path(11, 0.25, 100, 1)
    starts = _pathwise_starts(ops.triple)
    counts = NewtonCounts(len(starts))
    paths = solve_forward(cfg, ops.drift, ops.diffusion, noise,
                          np.array(starts), counts=counts)
    assert isinstance(paths, list) and len(paths) == len(starts)
    for r, (x0, path) in enumerate(zip(starts, paths)):
        alone_counts = NewtonCounts(1)
        alone = solve_forward(cfg, ops.drift, ops.diffusion, noise, x0,
                              counts=alone_counts)
        # a start projects as it does alone, so row 0 is bit for bit
        assert np.array_equal(path.coeffs[0], alone.coeffs[0])
        assert np.max(np.abs(path.coeffs - alone.coeffs)) <= 1e-15
        # the grid values and norms read those coefficients, at their scale
        for field in ("states", "h_norm_sq", "x1_norm", "x2_norm",
                      "energy_residual"):
            ref = getattr(alone, field)
            assert np.max(np.abs(getattr(path, field) - ref)) \
                <= 1e-15 * (1.0 + np.max(np.abs(ref)))
        assert counts.iterations[r] == alone_counts.iterations.sum() > 0
        assert counts.halvings[r] == alone_counts.halvings.sum()


def test_a_start_stack_needs_one_row_per_replica():
    ops = build_operator_set("porous_medium", 12)
    cfg = SolverConfig(n_modes_galerkin=4)
    noise = sample_path(3, 0.25, 10, 1)
    u0 = ops.triple.basis_function(1)
    for bad in (np.zeros(11), np.zeros((2, 11)), np.zeros((0, 12)),
                np.zeros((1, 2, 12)), np.float64(1.0)):
        with pytest.raises(ConfigError, match="initial state has shape"):
            solve_forward(cfg, ops.drift, ops.diffusion, noise, bad)
    batch = sample_batch(3, 0.25, 10, 1, replicas=3)
    with pytest.raises(ConfigError, match="2 starts for a noise batch of 3"):
        solve_forward(cfg, ops.drift, ops.diffusion, batch, [u0, u0])
    # one start per replica: each row is that replica solved from its start
    starts = [u0, 2.0 * u0, -u0]
    paths = solve_forward(cfg, ops.drift, ops.diffusion, batch, starts)
    for r, path in enumerate(paths):
        alone = solve_forward(cfg, ops.drift, ops.diffusion, batch.path(r),
                              starts[r])
        assert np.max(np.abs(path.coeffs - alone.coeffs)) <= 1e-15
    # a stack of one is still a stack: a list of one path
    [one] = solve_forward(cfg, ops.drift, ops.diffusion, noise, [u0])
    assert np.array_equal(one.coeffs[0], solve_forward(
        cfg, ops.drift, ops.diffusion, noise, u0).coeffs[0])


def test_a_failing_start_is_named_by_its_index():
    # from rest with no noise a row needs no Newton step; the large starts
    # need more than the one allowed, and the error names the first of
    # them by its place in the stack, with its own one-start history
    ops = build_operator_set("porous_medium", 12, p=3.0)
    cfg = SolverConfig(n_modes_galerkin=6, resolvent_max_iter=1,
                       resolvent_tol=1e-14)
    noise = zero_path(1.0, 10)
    big = 50.0 * np.sin(np.pi * ops.triple.nodes)
    starts = [np.zeros(12), big, np.zeros(12), -big]
    with pytest.raises(NonconvergenceError,
                       match=r"^replica 1: forward solve failed at step 0 ") \
            as err:
        solve_forward(cfg, ops.drift, ops.diffusion, noise, starts)
    assert err.value.replica == 1
    assert [f.replica for f in err.value.failures] == [1, 3]
    for failure in err.value.failures:
        with pytest.raises(NonconvergenceError) as alone:
            solve_forward(cfg, ops.drift, ops.diffusion, noise,
                          starts[failure.replica])
        assert alone.value.replica is None
        assert failure.args == alone.value.args
        assert np.allclose(failure.residuals, alone.value.residuals,
                           rtol=1e-12, atol=0)


def test_solve_forward_rejects_noise_with_too_few_modes():
    ops = build_operator_set("porous_medium", 16, n_modes=4)
    cfg = SolverConfig(n_modes_galerkin=8)
    x0 = np.sin(np.pi * ops.triple.nodes)
    path = sample_path(seed=2, t_final=0.25, n_steps=10, n_modes=1)
    batch = sample_batch(seed=2, t_final=0.25, n_steps=10, n_modes=3,
                         replicas=2)
    for noise in (path, batch):
        with pytest.raises(ConfigError, match="noise carries .* modes"):
            solve_forward(cfg, ops.drift, ops.diffusion, noise, x0)
    # extra noise modes are the noise-side truncation, and a Galerkin
    # space narrower than the diffusion drives only its own n columns
    wide = sample_path(seed=2, t_final=0.25, n_steps=10, n_modes=6)
    solve_forward(cfg, ops.drift, ops.diffusion, wide, x0)
    two = sample_path(seed=2, t_final=0.25, n_steps=10, n_modes=2)
    solve_forward(SolverConfig(n_modes_galerkin=2), ops.drift,
                  ops.diffusion, two, x0)


# ---------------------------------------------------------------------------
# replica batches


@pytest.mark.parametrize("name,rescaled", [
    pytest.param("eq_1_1", False, id="eq_1_1"),
    pytest.param("eq_1_2", False, id="eq_1_2"),
    # the lambda0 gauge reads each replica's own noise row
    pytest.param("eq_1_2", True, id="eq_1_2-rescaled")])
def test_batch_agrees_with_batches_of_one(name, rescaled):
    ops = build_operator_set(name, 16, p=3.0)
    drift, diffusion = ops.drift, ops.diffusion
    if rescaled:
        drift, diffusion, _, _ = rescale_problem(drift, diffusion, ops.bundle)
    cfg = SolverConfig(n_modes_galerkin=8)
    u0 = ops.triple.basis_function(1)
    batch = sample_batch(seed=41, t_final=0.25, n_steps=50, n_modes=1,
                         replicas=8)
    counts = NewtonCounts(8)
    paths = solve_forward(cfg, drift, diffusion, batch, u0, counts=counts)
    assert len(paths) == 8
    for r, path in enumerate(paths):
        one = NewtonCounts(1)
        [alone] = solve_forward(cfg, drift, diffusion,
                                NoiseBatch.from_path(batch.path(r)), u0,
                                counts=one)
        for name in ("coeffs", "energy_residual", "h_norm_sq", "x1_norm",
                     "x2_norm"):
            assert np.allclose(getattr(path, name), getattr(alone, name),
                               rtol=0, atol=1e-12), name
        assert counts.iterations[r] == one.iterations[0] >= 50
        assert counts.halvings[r] == one.halvings[0]


def test_non_finite_state_in_one_replica_raises():
    ops = build_operator_set("eq_1_1", 12, p=3.0)
    batch = sample_batch(seed=3, t_final=0.25, n_steps=10, n_modes=1,
                         replicas=4)
    batch.increments[1, 3, 0] = np.nan
    with pytest.raises(MonoseeError, match="non-finite.*replica 1"):
        solve_forward(SolverConfig(n_modes_galerkin=6), ops.drift,
                      ops.diffusion, batch,
                      0.5 * np.sin(np.pi * ops.triple.nodes))


def test_galerkin_nesting_discrepancy_decreases():
    ops = build_operator_set("porous_medium", 32, p=3.0)
    diff = ConstantDiffusion(ops.triple, 0.3 * np.ones((32, 1)))
    noise = sample_path(seed=17, t_final=0.25, n_steps=50, n_modes=1)
    x0 = np.sin(np.pi * ops.triple.nodes)
    paths = {}
    for n in (4, 8, 16, 32):
        cfg = SolverConfig(n_modes_galerkin=n)
        paths[n] = solve_forward(cfg, ops.drift, diff, noise, x0)
    gaps = []
    for n in (4, 8, 16):
        gaps.append(sup_h_distance(paths[n].coeffs,
                                   paths[2 * n].coeffs[:, :n]))
    assert gaps[1] <= 1.1 * gaps[0]
    assert gaps[2] <= 1.1 * gaps[1]


def test_pathwise_uniqueness_insensitive_to_resolvent_guess():
    ops = build_operator_set("porous_medium", 16, p=3.0)
    diff = ConstantDiffusion(ops.triple, 0.5 * np.ones((16, 1)))
    noise = sample_path(seed=23, t_final=0.25, n_steps=50, n_modes=1)
    sys = GalerkinSystem(ops.drift, diff, 8, ops.triple)
    cfg = SolverConfig(n_modes_galerkin=8)  # default resolvent_tol
    b, sigma = sys.bind(EMPTY_CONTEXT)
    rng = np.random.default_rng(8)
    x_a = ops.triple.coefficients(np.sin(np.pi * ops.triple.nodes), 8)
    x_b = x_a.copy()
    worst = 0.0
    for k in range(noise.n_steps):
        t = float(noise.times[k])
        dW = noise.increments[k]
        x_a = step_implicit(x_a, t, noise.dt, dW, b, sigma, cfg,
                            guess=x_a).y
        x_b = step_implicit(x_b, t, noise.dt, dW, b, sigma, cfg,
                            guess=x_b + rng.normal(size=8) * 0.5).y
        worst = max(worst, float(np.linalg.norm(x_a - x_b)))
    assert worst <= 10.0 * cfg.resolvent_tol


# ---------------------------------------------------------------------------
# energy ledger


def test_energy_residual_zero_for_zero_operators():
    tr = DiscreteTriple(10, "porous_medium", q1=3.0, q2=3.0)
    drift = _zero_phi_drift(tr)
    diff = ConstantDiffusion(tr, np.zeros((10, 1)))
    path = solve_forward(SolverConfig(n_modes_galerkin=10), drift, diff,
                         zero_path(1.0, 16), np.cos(tr.nodes))
    assert np.array_equal(path.energy_residual, np.zeros(16))


def test_energy_residual_zero_drift_with_noise_is_fp_zero():
    """With b = 0 the identity is the expansion of |x + sigma dW|^2."""
    tr = DiscreteTriple(10, "porous_medium", q1=3.0, q2=3.0)
    drift = _zero_phi_drift(tr)
    diff = ConstantDiffusion(tr, np.ones((10, 2)))
    noise = sample_path(seed=12, t_final=1.0, n_steps=32, n_modes=2)
    path = solve_forward(SolverConfig(n_modes_galerkin=10), drift, diff,
                         noise, np.cos(tr.nodes))
    scale = max(1.0, float(np.max(path.h_norm_sq)))
    assert np.max(np.abs(path.energy_residual)) <= 1e-13 * scale


def test_energy_residual_equals_minus_dt_sq_drift_norm():
    """Algebraic identity: defect of an exact implicit step is -dt^2 |b(y)|^2."""
    ops = build_operator_set("porous_medium", 16, p=3.0)
    noise = sample_path(seed=6, t_final=0.5, n_steps=40, n_modes=1)
    cfg = SolverConfig(n_modes_galerkin=8, resolvent_tol=1e-12)
    x0 = np.sin(np.pi * ops.triple.nodes)
    path = solve_forward(cfg, ops.drift, ops.diffusion, noise, x0)
    sys = GalerkinSystem(ops.drift, ops.diffusion, 8, ops.triple)
    ctx = BatchContext(NoiseBatch.from_path(noise))
    dt = noise.dt
    for k in range(path.n_steps):
        ctx.index = k
        [bval] = sys.b(float(noise.times[k + 1]), ctx,
                       path.coeffs[None, k + 1])
        predicted = -dt ** 2 * float(bval @ bval)
        scale = 1.0 + abs(predicted)
        assert abs(path.energy_residual[k] - predicted) <= 1e-8 * scale


def _assert_recompute_matches_ledger(ops, drift, noise):
    cfg = SolverConfig(n_modes_galerkin=6)
    path = solve_forward(cfg, drift, ops.diffusion, noise,
                         0.5 * np.sin(np.pi * ops.triple.nodes))
    recomputed = oracles.energy_residual(path, drift, ops.diffusion, noise)
    assert np.array_equal(recomputed, path.energy_residual)


def test_energy_residual_recompute_matches_ledger():
    ops = build_operator_set("eq_1_1", 12, p=3.0)
    noise = sample_path(seed=21, t_final=0.5, n_steps=25, n_modes=1)
    _assert_recompute_matches_ledger(ops, ops.drift, noise)


def test_energy_residual_recompute_matches_ledger_of_time_reading_drift():
    # the step solves at t_k + dt, which on this grid is not always
    # times[k + 1]; a drift reading t sees the difference
    ops = build_operator_set("eq_1_1", 12, p=3.0)
    drift = PorousMediumDrift(
        ops.triple, 3.0, coeff=lambda t, ctx: 1.0 + 1e3 * np.asarray(t))
    noise = sample_path(seed=21, t_final=0.25, n_steps=250, n_modes=1)
    assert np.any(noise.times[:-1] + noise.dt != noise.times[1:])
    _assert_recompute_matches_ledger(ops, drift, noise)


def test_energy_cumulative_defect_halves_with_dt():
    ops = build_operator_set("heat", 8)
    diff = ConstantDiffusion(ops.triple, 0.5 * np.ones((8, 1)))
    x0 = ops.triple.basis_function(1)
    noise = sample_path(seed=14, t_final=0.5, n_steps=125, n_modes=1)
    totals = []
    for _ in range(3):
        cfg = SolverConfig(n_modes_galerkin=8)
        path = solve_forward(cfg, ops.drift, diff, noise, x0)
        totals.append(abs(float(np.sum(path.energy_residual))))
        noise = refine_path(noise)
    assert 1.6 <= totals[0] / totals[1] <= 2.4
    assert 1.6 <= totals[1] / totals[2] <= 2.4


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_identity_when_lambda0_vanishes():
    ops = build_operator_set("porous_medium", 12, p=3.0)
    scaled = rescale_problem(ops.drift, ops.diffusion, ops.bundle)
    rng = np.random.default_rng(3)
    u = rng.normal(size=12) * 2.0
    assert scaled.gamma(0.7, EMPTY_CONTEXT) == 1.0
    assert np.array_equal(scaled.drift.eval(0.7, EMPTY_CONTEXT, u),
                          ops.drift.eval(0.7, EMPTY_CONTEXT, u))
    assert np.array_equal(scaled.diffusion.eval(0.7, EMPTY_CONTEXT, u),
                          ops.diffusion.eval(0.7, EMPTY_CONTEXT, u))
    assert scaled.bundle.lambda1(0.7, EMPTY_CONTEXT) == pytest.approx(
        ops.bundle.lambda1(0.7, EMPTY_CONTEXT))


def test_rescale_gamma_closed_form_constant_rate():
    ops = build_operator_set("porous_medium", 8, p=3.0)
    bundle = dataclasses.replace(ops.bundle, lambda0=constant_profile(0.8))
    scaled = rescale_problem(ops.drift, ops.diffusion, bundle)
    # deterministic context: quadrature on a fixed fine grid
    assert scaled.gamma(1.0, EMPTY_CONTEXT) == pytest.approx(
        math.exp(0.4), rel=1e-12)
    # path context: left-rule on the grid, exact for a constant rate
    noise = sample_path(seed=4, t_final=1.0, n_steps=64, n_modes=1)
    ctx = NoiseContext(noise)
    assert scaled.gamma(0.5, ctx) == pytest.approx(math.exp(0.2), rel=1e-12)
    # transformed rates: lambda_i gamma^{q_i - 2}, lambda3 + lambda0
    g = math.exp(0.4)
    assert scaled.bundle.lambda1(1.0, EMPTY_CONTEXT) == pytest.approx(
        ops.bundle.lambda1(1.0, EMPTY_CONTEXT) * g ** (ops.bundle.q1 - 2.0))
    assert scaled.bundle.lambda3(1.0, EMPTY_CONTEXT) == pytest.approx(
        ops.bundle.lambda3(1.0, EMPTY_CONTEXT) + 0.8)
    assert scaled.bundle.lambda0(1.0, EMPTY_CONTEXT) == 0.0


def test_rescale_gamma_in_a_batch_context_is_one_row_per_replica():
    ops = build_operator_set("eq_1_2", 8, p=3.0)
    gamma = rescale_problem(ops.drift, ops.diffusion, ops.bundle).gamma
    batch = sample_batch(seed=9, t_final=0.5, n_steps=16, n_modes=1,
                         replicas=4)
    ctx = BatchContext(batch)
    for t in (*batch.times, *(batch.times[:-1] + 0.3 * batch.dt), 0.7):
        column = gamma(t, ctx)
        assert column.shape == (4, 1)
        for r in range(4):
            assert column[r, 0] == gamma(t, NoiseContext(batch.path(r)))
    assert len(set(gamma(0.5, ctx)[:, 0])) == 4  # the rows read their own w
    ramp = gamma(batch.times, ctx)
    assert ramp.shape == (4, 17)
    assert np.array_equal(ramp[2], gamma(batch.times,
                                         NoiseContext(batch.path(2))))


def test_rescaled_hs_norm_one_formula_for_states_and_stacks():
    # B / gamma for a state-independent B: the same value with or without
    # u, and an (S,) result for an (S, 1) column of times either way
    ops = build_operator_set("porous_medium", 8, p=3.0)
    bundle = dataclasses.replace(ops.bundle, lambda0=constant_profile(0.8))
    scaled = rescale_problem(ops.drift, ops.diffusion, bundle)
    t = np.array([[0.25], [0.5], [1.0]])
    u = np.random.default_rng(5).normal(size=(3, 8))
    hs_norm_sq = lambda diff, s, state: ops.triple.hs_norm_sq(
        diff.eval(s, EMPTY_CONTEXT, state))
    expect = [hs_norm_sq(ops.diffusion, s, None)
              / scaled.gamma(s, EMPTY_CONTEXT) ** 2 for s in t[:, 0]]
    for state in (None, u):
        got = hs_norm_sq(scaled.diffusion, t, state)
        assert got.shape == (3,)
        assert np.allclose(got, expect, rtol=1e-13, atol=0)
    assert hs_norm_sq(scaled.diffusion, 1.0, None) == pytest.approx(
        expect[-1], rel=1e-13)


def test_rescale_transformed_operators_pass_checks_with_zero_lambda0():
    """The whole point of the transform: hypotheses hold with lambda0 = 0."""
    ops = build_operator_set("eq_1_2", 20, p=3.0)
    noise = sample_path(seed=11, t_final=1.0, n_steps=64, n_modes=1)
    ctx = NoiseContext(noise)
    scaled = rescale_problem(ops.drift, ops.diffusion, ops.bundle)
    pairs = pair_sampler(ops.triple, times=noise.times)
    singles = state_sampler(ops.triple, times=noise.times)
    mono = check_monotonicity(scaled.drift, scaled.diffusion, scaled.bundle,
                              pairs, n_samples=150, seed=7, ctx=ctx)
    assert mono.ok, mono.summary()
    coer = check_coercivity(scaled.drift, scaled.diffusion, scaled.bundle,
                            singles, n_samples=150, seed=7, ctx=ctx)
    assert coer.ok, coer.summary()


def test_rescale_solve_and_untransform_consistent_first_order():
    """Solving the transformed equation and multiplying back by gamma
    reproduces the direct solve to O(dt) on one fixed noise path."""
    ops = build_operator_set("porous_medium", 16, p=3.0)
    bundle = dataclasses.replace(ops.bundle, lambda0=constant_profile(0.5))
    diff = ConstantDiffusion(ops.triple, 0.4 * np.ones((16, 1)))
    x0 = np.sin(np.pi * ops.triple.nodes)
    noise = sample_path(seed=31, t_final=0.4, n_steps=40, n_modes=1)
    scaled = rescale_problem(ops.drift, diff, bundle)
    cfg = SolverConfig(n_modes_galerkin=8)
    errors, steps = [], []
    for _ in range(3):
        direct = solve_forward(cfg, ops.drift, diff, noise, x0)
        tilde = solve_forward(cfg, scaled.drift, scaled.diffusion, noise, x0)
        gam = scaled.gamma(noise.times, NoiseContext(noise))[:, None]
        errors.append(sup_h_distance(direct.coeffs, tilde.coeffs * gam))
        steps.append(noise.dt)
        noise = refine_path(noise)
    assert errors[1] < errors[0] and errors[2] < errors[1]
    assert convergence_order(errors, steps) > 0.75


# ---------------------------------------------------------------------------
# a-priori ledger


def test_apriori_zero_solution_zero_budget():
    tr = DiscreteTriple(10, "porous_medium", q1=3.0, q2=3.0)
    drift = _zero_phi_drift(tr)
    diff = ConstantDiffusion(tr, np.zeros((10, 1)))
    path = solve_forward(SolverConfig(n_modes_galerkin=10), drift, diff,
                         zero_path(1.0, 10), np.zeros(10))
    bundle = build_operator_set("porous_medium", 10, p=3.0).bundle
    bundle = dataclasses.replace(bundle, lambda3=constant_profile(0.0),
                                 xi=constant_profile(0.0))
    report = apriori_norms(path, bundle)
    assert report.ok
    assert report.lhs_total == 0.0
    assert report.budget == 0.0


def test_apriori_heat_within_budget_with_margin():
    ops = build_operator_set("heat", 16)
    x0 = ops.triple.basis_function(1)
    path = solve_forward(SolverConfig(n_modes_galerkin=8), ops.drift,
                         ops.diffusion, zero_path(1.0, 200), x0)
    report = apriori_norms(path, ops.bundle)
    assert report.ok, report.summary()
    assert report.sup_h_sq == pytest.approx(1.0, rel=1e-10)
    assert report.lhs_total > 1.5          # dissipation genuinely counted
    assert report.lhs_total < 0.9 * report.budget
    assert report.theta == path.t_final
    assert "within budget" in report.summary()


def test_apriori_flags_underdeclared_budget():
    ops = build_operator_set("heat", 16)
    diff = ConstantDiffusion(ops.triple, np.ones((16, 1)))  # real noise input
    noise = sample_path(seed=2, t_final=1.0, n_steps=100, n_modes=1)
    path = solve_forward(SolverConfig(n_modes_galerkin=8), ops.drift, diff,
                         noise, np.zeros(16))
    # X0 = 0 and the bundle claims xi = 0, so the budget is exactly zero
    # although the diffusion pumps energy in: the ledger must flag it
    report = apriori_norms(path, ops.bundle)
    assert report.lhs_total > 0.0
    assert not report.ok
    assert "EXCEEDS" in report.summary()


# ---------------------------------------------------------------------------
# solution-path plumbing


def test_solution_path_invariants_and_csv():
    ops = build_operator_set("eq_1_1", 12, p=3.0)
    noise = sample_path(seed=19, t_final=0.5, n_steps=20, n_modes=1)
    cfg = SolverConfig(n_modes_galerkin=5)
    path = solve_forward(cfg, ops.drift, ops.diffusion, noise,
                         0.3 * np.sin(np.pi * ops.triple.nodes))
    assert path.span_residual() < 1e-10
    assert np.all(path.h_norm_sq >= 0)
    assert np.all(path.x1_norm >= 0) and np.all(path.x2_norm >= 0)

    text = trajectory_csv(path)
    lines = text.strip().split("\r\n")
    assert lines[0] == ("t,c1,c2,c3,c4,c5,"
                        "h_norm_sq,x1_norm,x2_norm,energy_residual")
    assert len(lines) == len(path.times) + 1
    row = [float(cell) for cell in lines[3].split(",")]
    assert row[0] == path.times[2]
    assert np.allclose(row[1:6], path.coeffs[2], rtol=0, atol=0)

    # rerunning the same configuration reproduces the file byte for byte
    path2 = solve_forward(cfg, ops.drift, ops.diffusion,
                          sample_path(seed=19, t_final=0.5, n_steps=20,
                                      n_modes=1),
                          0.3 * np.sin(np.pi * ops.triple.nodes))
    assert trajectory_csv(path2) == text


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(n_modes_galerkin=0)
    with pytest.raises(ConfigError):
        SolverConfig(n_modes_galerkin=4, resolvent_tol=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(n_modes_galerkin=4, resolvent_tol=math.nan)
    ops = build_operator_set("heat", 8)
    with pytest.raises(ConfigError, match="exceeds grid"):
        solve_forward(SolverConfig(n_modes_galerkin=9), ops.drift,
                      ops.diffusion, zero_path(1.0, 4), np.zeros(8))
