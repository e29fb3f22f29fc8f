"""Backward solver tests.

The regression recursion is checked against exact discrete recurrences,
closed forms from the martingale representation of linear problems (each
independently confirmed by a nested Monte-Carlo oracle), and the algebraic
identity behind the regularized implicit step; the Picard loops against
their fixed points and contraction diagnostics; the a-priori report
against hand-computable budgets and Jensen's inequality.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monosee.bsde
from monosee.analysis import rho_eval, rho_k_modulus
from monosee.bsde import (BackwardCounts, BsdeAprioriReport, BsdeDriver,
                          BsdeProblem, BsdeSolution, PolynomialBasis,
                          _driver_matrix, _fit, _projection, _state_values,
                          apriori_bound_check,
                          check_driver_growth,
                          check_driver_modulus,
                          driver_state_sampler, martingale_residuals,
                          picard_in_x, picard_in_z, polynomial_basis,
                          reduce_lambda0, regularized_implicit_step,
                          solution_csv, solve_bsde_autonomous_C,
                          z_path_distance, zero_driver)
from monosee.errors import (ConfigError, NonconvergenceError,
                            RegressionError)
from monosee.noise import NoiseBatch, sample_batch, sample_path
from monosee.resolvent import MonotoneMap, NewtonCounts, resolvent, yosida

import oracles
from oracles import assert_same_report


def _linear_drift(rate: float = -1.0) -> MonotoneMap:
    return MonotoneMap(
        eval=lambda t, x: rate * np.asarray(x, dtype=float),
        jacobian=lambda t, x: rate * np.ones_like(np.asarray(x, dtype=float)),
        diagonal=True, name="linear drift")


def _zero_drift() -> MonotoneMap:
    return MonotoneMap(
        eval=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        jacobian=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        diagonal=True, name="zero drift")


def _cubic_drift(scale: float = 1.0) -> MonotoneMap:
    return MonotoneMap(
        eval=lambda t, x: -scale * np.asarray(x, dtype=float) ** 3,
        jacobian=lambda t, x: -3.0 * scale * np.asarray(x, dtype=float) ** 2,
        diagonal=True, name="cubic drift")


def _batch(seed, t_final, n_steps, n_paths, n_modes=1):
    return sample_batch(seed, t_final, n_steps, n_modes, n_paths)


def _wiener_terminal(batch):
    return batch.scalar_paths[:, -1:]


def _constant_terminal(c):
    return lambda batch: np.full((batch.n_replicas, 1), c)


def _problem(drift, driver, terminal, t_final=1.0, **kw):
    return BsdeProblem(drift=drift, driver=driver, terminal=terminal,
                       t_final=t_final, n_modes=1, dim=1, **kw)


def _linear_z_driver(kappa: float) -> BsdeDriver:
    return BsdeDriver(eval=lambda t, x, z: kappa * np.asarray(z)[..., 0],
                      c1=kappa ** 2, c2=abs(kappa), x_dependent=False,
                      name="linear z driver")


# ---------------------------------------------------------------------------
# regression basis


def test_polynomial_basis_degree_two_terms():
    basis = polynomial_basis(2, degree=2)
    assert basis.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert basis.names == ("1", "w1", "w2", "w1^2", "w1*w2", "w2^2")
    assert basis.n_terms == 6 and basis.n_vars == 2 and basis.has_intercept


def test_basis_design_matches_monomials():
    basis = polynomial_basis(2, degree=2)
    rng = np.random.default_rng(3)
    s = rng.standard_normal((5, 2))
    d = basis.design(s)
    expected = np.column_stack([np.ones(5), s[:, 0], s[:, 1], s[:, 0] ** 2,
                                s[:, 0] * s[:, 1], s[:, 1] ** 2])
    assert np.allclose(d, expected, rtol=0, atol=1e-15)


def test_basis_rejects_malformed_spec():
    with pytest.raises(ConfigError):
        PolynomialBasis(exponents=((0,), (1,)), names=("1",))
    with pytest.raises(ConfigError):
        PolynomialBasis(exponents=((0,), (-1,)), names=("1", "w"))
    with pytest.raises(ConfigError):
        polynomial_basis(0)
    with pytest.raises(ConfigError):
        polynomial_basis(2).design(np.zeros((4, 3)))


def test_fit_recovers_in_span_polynomial_exactly():
    basis = polynomial_basis(1, degree=2)
    rng = np.random.default_rng(11)
    s = rng.standard_normal((200, 1))
    design = basis.design(s)
    targets = 2.0 + 3.0 * s[:, 0] - 0.5 * s[:, 0] ** 2
    coeffs, fitted, stderr = _fit(design, basis.names, targets)
    assert np.allclose(coeffs, [2.0, 3.0, -0.5], atol=1e-10)
    assert np.allclose(fitted, targets, atol=1e-10)
    assert stderr < 1e-10


def test_fit_degenerate_state_collapses_to_mean():
    basis = polynomial_basis(1, degree=2)
    design = basis.design(np.zeros((40, 1)))  # columns 1, 0, 0
    rng = np.random.default_rng(5)
    targets = rng.standard_normal(40)
    coeffs, fitted, _ = _fit(design, basis.names, targets)
    assert np.allclose(coeffs, [targets.mean(), 0.0, 0.0], atol=1e-12)
    assert np.allclose(fitted, targets.mean(), atol=1e-12)


def test_fit_raises_on_collinear_columns():
    basis = PolynomialBasis(exponents=((0,), (1,), (1,)),
                            names=("1", "w1", "w1_again"))
    rng = np.random.default_rng(7)
    s = rng.standard_normal((50, 1))
    with pytest.raises(RegressionError, match=r"rank-deficient.*w1_again"):
        _fit(basis.design(s), basis.names, s[:, 0])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n_rows=st.integers(8, 300),
       n_free=st.integers(1, 6), n_zero=st.integers(0, 2),
       n_const=st.integers(0, 2), n_targets=st.integers(1, 3),
       scale=st.floats(1e-3, 1e3))
def test_projection_matches_lstsq(seed, n_rows, n_free, n_zero, n_const,
                                  n_targets, scale):
    """The factored projection agrees with lstsq on full-rank designs with
    planted all-zero and constant columns (the first constant column
    carries the intercept, the others are absorbed with zero coefficient)."""
    rng = np.random.default_rng(seed)
    free = scale * rng.standard_normal((n_rows, n_free))
    consts = [np.full((n_rows, 1), rng.uniform(0.5, 2.0))
              for _ in range(n_const)]
    blocks = [free] + [np.zeros((n_rows, 1))] * n_zero + consts
    design = np.hstack(blocks)[:, rng.permutation(n_free + n_zero + n_const)]
    names = [f"c{j}" for j in range(design.shape[1])]
    targets = rng.standard_normal((n_rows, n_targets)) * scale \
        + design @ rng.standard_normal((design.shape[1], n_targets))

    spans = np.ptp(design, axis=0)
    const_cols = [j for j in range(design.shape[1]) if spans[j] == 0.0]
    carrier = next((j for j in const_cols if design[0, j] != 0.0), None)
    active = [j for j in range(design.shape[1])
              if spans[j] != 0.0 or j == carrier]
    ref_sub, *_ = np.linalg.lstsq(design[:, active], targets, rcond=None)
    ref_coeffs = np.zeros((design.shape[1], n_targets))
    ref_coeffs[active] = ref_sub
    ref_fitted = design[:, active] @ ref_sub
    ref_stderr = float(np.sqrt(np.mean((targets - ref_fitted) ** 2)
                               * len(active) / n_rows))

    coeffs, fitted, stderr = _projection(design, names).fit(targets)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(targets))))
    assert np.max(np.abs(fitted - ref_fitted)) <= tol
    assert abs(stderr - ref_stderr) <= tol
    coeff_scale = 1.0 + float(np.max(np.abs(ref_coeffs)))
    assert np.max(np.abs(coeffs - ref_coeffs)) <= 1e-10 * coeff_scale
    assert np.all(coeffs[[j for j in range(design.shape[1])
                          if j not in active]] == 0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n_rows=st.integers(10, 200),
       n_free=st.integers(1, 5), mix=st.integers(1, 3))
def test_projection_rejects_exactly_collinear_designs(seed, n_rows, n_free,
                                                      mix):
    """A column that is an integer combination of the others (exact in
    float64 for small integer data) is collinearity, not a constant, so
    the projection raises and names the grid time."""
    rng = np.random.default_rng(seed)
    free = rng.integers(-8, 9, size=(n_rows, n_free)).astype(float)
    free[0, :] += 20.0  # no free column is constant
    weights = rng.integers(1, mix + 1, size=n_free).astype(float)
    design = np.column_stack([np.ones(n_rows), free, free @ weights])
    names = ["1"] + [f"w{j}" for j in range(n_free)] + ["combo"]
    with pytest.raises(RegressionError,
                       match=r"rank-deficient.*combo\] at t = 0\.25"):
        _projection(design, names, 0.25)


# ---------------------------------------------------------------------------
# regularized implicit step


def test_regularized_step_linear_closed_form():
    """For A(x) = -x the step is multiplication by (1+dt)/(1+2dt).

    The resolvent at scale 2dt maps x to x/(1+2dt); averaging with the
    identity gives the factor, which also equals the direct elimination
    of y - dt*A_eps(y) = rhs with A_eps(y) = -y/(1+dt).
    """
    drift = _linear_drift(-1.0)
    dt = 0.05
    rhs = np.array([1.5, -0.25, 4.0])
    expected = rhs * (1.0 + dt) / (1.0 + 2.0 * dt)
    y = regularized_implicit_step(drift, 0.3, dt, rhs)
    assert np.allclose(y, expected, rtol=1e-10, atol=0)


def test_regularized_step_satisfies_defining_equation():
    """y from the identity solves y - dt*A_eps(y) = rhs with eps = dt."""
    drift = _cubic_drift(1.0)
    dt = 0.08
    rhs = np.array([0.9, -1.7, 2.2])
    y = regularized_implicit_step(drift, 0.0, dt, rhs)
    a_eps = yosida(drift, 0.0, dt, y)
    assert np.max(np.abs(y - dt * a_eps - rhs)) <= 1e-8


def test_regularized_step_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        regularized_implicit_step(_linear_drift(), 0.0, -0.1, np.ones(2))


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
def test_regularized_step_rejects_non_positive_or_non_finite_dt(dt):
    """A NaN or infinite step is a configuration error, not a solver
    failure or a warning from inside the solve."""
    with pytest.raises(ConfigError, match="step size"):
        regularized_implicit_step(_cubic_drift(), 0.0, dt, np.ones(2))


def test_regularized_step_counts_newton_work():
    """``counts`` shaped like a diagonal drift's rhs gets each element's
    Newton iterations; a linear drift converges in one step per element."""
    counts = NewtonCounts((4, 2))
    regularized_implicit_step(_linear_drift(), 0.0, 0.05,
                              np.arange(1.0, 9.0).reshape(4, 2), counts=counts)
    assert np.array_equal(counts.iterations, np.ones((4, 2)))
    assert not counts.halvings.any()


# ---------------------------------------------------------------------------
# autonomous-driver solves against exact recurrences


def test_constant_terminal_zero_operators():
    """A = 0, C = 0, deterministic X_T: X is constant and Z vanishes."""
    problem = _problem(_zero_drift(), zero_driver(), _constant_terminal(3.0))
    noisy = _batch(21, 1.0, 8, 300)
    sol = solve_bsde_autonomous_C(problem, noisy)
    assert np.allclose(sol.x_paths, 3.0, atol=1e-10)
    # zero driving paths: every fit is a plain mean and Z is exactly zero
    frozen = NoiseBatch(0, 0, 0, np.linspace(0.0, 1.0, 9),
                        np.zeros((40, 8, 1)), np.zeros((40, 9)))
    sol0 = solve_bsde_autonomous_C(problem, frozen)
    assert np.allclose(sol0.x_paths, 3.0, rtol=1e-12, atol=0)
    assert np.all(sol0.z_paths == 0.0)
    assert sol0.terminal_residual <= 1e-12


def test_linear_drift_deterministic_terminal_recurrence():
    """A(x) = -x, X_T = c: the scheme is exactly c*((1+dt)/(1+2dt))^(N-k).

    Conditional fits of constants are exact, so the only action per step
    is the regularized implicit factor; the discrete orbit must match the
    hand recurrence to solver tolerance and e^{-(T-t)}c to O(dt).
    """
    c = 2.0
    n_steps = 16
    problem = _problem(_linear_drift(-1.0), zero_driver(),
                       _constant_terminal(c))
    sol = solve_bsde_autonomous_C(problem, _batch(4, 1.0, n_steps, 200))
    dt = sol.dt
    factor = (1.0 + dt) / (1.0 + 2.0 * dt)
    for k in range(n_steps + 1):
        assert np.allclose(sol.x_paths[:, k, 0], c * factor ** (n_steps - k),
                           rtol=1e-9, atol=0)
    assert abs(sol.x_paths[0, 0, 0] - c * math.exp(-1.0)) <= 3.0 * c * dt


def test_nested_monte_carlo_oracle_confirms_closed_form():
    """Independent oracle for the linear problem with terminal W(T).

    For A(x) = -x and C = 0, e^{-t}X(t) is a martingale, so X(t) =
    e^{-(T-t)} E[W(T) | W(t)].  The inner expectation is simulated here
    directly from the transition W(T) = w + sqrt(T-t)*xi; the closed form
    e^{-(T-t)} w must sit inside the Monte-Carlo band.  No package code
    is involved: this certifies the reference used by the solver tests.
    """
    rng = np.random.default_rng(123)
    t_final, m_inner = 1.0, 200_000
    for t in (0.25, 0.5, 0.75):
        for w in (-1.2, 0.3, 2.0):
            xi = rng.standard_normal(m_inner)
            inner = np.mean(w + math.sqrt(t_final - t) * xi)
            oracle = math.exp(-(t_final - t)) * inner
            closed = math.exp(-(t_final - t)) * w
            band = 4.0 * math.exp(-(t_final - t)) \
                * math.sqrt((t_final - t) / m_inner)
            assert abs(oracle - closed) <= band


def test_closed_form_wiener_terminal():
    """X(t) = e^{-(T-t)} W(t) and Z(t) = e^{-(T-t)} for terminal W(T)."""
    t_final, n_steps, n_paths = 1.0, 32, 4000
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal)
    batch = _batch(9, t_final, n_steps, n_paths)
    sol = solve_bsde_autonomous_C(problem, batch)
    dt = sol.dt
    w = batch.scalar_paths
    for t in (0.25, 0.5, 0.75):
        k = round(t / dt)
        decay = math.exp(-(t_final - t))
        x_err = float(np.sqrt(np.mean(
            (sol.x_paths[:, k, 0] - decay * w[:, k]) ** 2)))
        assert x_err <= 5.0 * (dt + sol.x_fit_stderr[k])
        z_err = float(np.sqrt(np.mean(
            (sol.z_paths[:, k, 0, 0] - decay) ** 2)))
        assert z_err <= 5.0 * (dt + sol.z_fit_stderr[k])


def test_terminal_fit_out_of_sample():
    """Out-of-sample terminal residual within twice the in-sample one."""
    problem = _problem(_linear_drift(-1.0), zero_driver(),
                       lambda batch: np.cos(batch.scalar_paths[:, -1:]))
    train = _batch(14, 1.0, 8, 2000)
    sol = solve_bsde_autonomous_C(problem, train)
    assert sol.terminal_residual > 1e-3  # cos is genuinely outside the span
    fresh = [sample_path(14, 1.0, 8, 1, replica=5000 + r) for r in range(2000)]
    w_end = np.array([[p.scalar_path[-1]] for p in fresh])
    predicted = sol.x_at(sol.n_steps, w_end)[:, 0]
    actual = np.cos(w_end[:, 0])
    out_res = float(np.sqrt(np.mean((predicted - actual) ** 2)))
    assert out_res <= 2.0 * sol.terminal_residual


def test_martingale_residuals_are_sampling_noise():
    """The compensated process has conditionally centered increments.

    The projection of each compensated increment onto the basis carries
    only the Monte-Carlo error of the Z regression, of scale
    |Z| * sqrt(dt * terms / paths) ~ 0.008 here; the raw increments are
    sqrt(dt) ~ 0.25.  A factor-six cushion keeps the seeded check stable.
    """
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal)
    batch = _batch(31, 1.0, 16, 3000)
    sol = solve_bsde_autonomous_C(problem, batch)
    res = martingale_residuals(sol, problem, batch)
    assert res.shape == (16,)
    assert float(np.max(res)) <= 0.05
    assert float(np.max(res)) <= 0.2 * math.sqrt(sol.dt)


def test_representation_matches_paths_for_linear_problem():
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal)
    batch = _batch(6, 1.0, 8, 500)
    sol = solve_bsde_autonomous_C(problem, batch)
    w = batch.scalar_paths
    for k in (0, 3, 7):
        rebuilt = sol.x_at(k, w[:, k][:, None])[:, 0]
        assert np.allclose(rebuilt, sol.x_paths[:, k, 0], atol=1e-8)
        z_rebuilt = sol.z_at(k, w[:, k][:, None])[:, 0, 0]
        assert np.allclose(z_rebuilt, sol.z_paths[:, k, 0, 0], atol=1e-8)


def test_regression_states_equal_per_path_cumulative_noise():
    """The batched state W(t_k) is each path's own running sum, bit for
    bit: the reference is the per-path loop the batch replaced."""
    batch = _batch(3, 1.0, 16, 25, n_modes=3)
    states = _state_values(batch)
    for r in range(batch.n_replicas):
        path = batch.path(r)
        alone = np.vstack([np.zeros((1, path.n_modes)),
                           np.cumsum(path.increments, axis=0)])
        assert np.array_equal(states[r], alone)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_horizon_and_shift(value):
    with pytest.raises(ConfigError, match="t_final"):
        _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal,
                 t_final=value)
    with pytest.raises(ConfigError, match="lambda0"):
        _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal,
                 lambda0=value)
    # a batch whose horizon is not finite fails the horizon comparison
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal)
    batch = _batch(2, 1.0, 8, 20)
    times = batch.times.copy()
    times[-1] = value
    with pytest.raises(ConfigError, match="horizon"):
        solve_bsde_autonomous_C(
            problem, NoiseBatch(batch.seed, batch.replica0, batch.level,
                                times, batch.increments,
                                batch.scalar_paths))


def test_solve_validates_inputs():
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal)
    batch = _batch(2, 1.0, 8, 20)
    with pytest.raises(ConfigError, match="modes"):
        solve_bsde_autonomous_C(problem, _batch(2, 1.0, 8, 1, n_modes=2))
    with pytest.raises(ConfigError, match="horizon"):
        solve_bsde_autonomous_C(problem, _batch(2, 2.0, 8, 20))
    with pytest.raises(ConfigError, match="independent"):
        solve_bsde_autonomous_C(
            _problem(_linear_drift(), _linear_z_driver(0.5),
                     _wiener_terminal), batch)
    with pytest.raises(ConfigError, match="constants"):
        solve_bsde_autonomous_C(
            problem, batch,
            basis=PolynomialBasis(exponents=((1,),), names=("w1",)))


# ---------------------------------------------------------------------------
# Picard in z


def test_picard_z_driver_ignoring_z_converges_in_one_sweep():
    driver = BsdeDriver(eval=lambda t, x, z: np.full(np.shape(x), 1.0),
                        c2=0.0, zeta=lambda t: 1.0, x_dependent=False,
                        z_dependent=False, name="constant driver")
    problem = _problem(_linear_drift(-1.0), driver, _wiener_terminal)
    batch = _batch(8, 1.0, 8, 200)
    sol = picard_in_z(problem, batch, tol=1e-9)
    assert len(sol.picard_residuals) == 2
    assert sol.picard_residuals[-1] == 0.0
    autonomous = _problem(_linear_drift(-1.0),
                          BsdeDriver(eval=driver.eval, c2=0.0,
                                     zeta=driver.zeta, x_dependent=False,
                                     z_dependent=False),
                          _wiener_terminal)
    direct = solve_bsde_autonomous_C(autonomous, batch)
    assert np.array_equal(sol.x_paths, direct.x_paths)
    assert np.array_equal(sol.z_paths, direct.z_paths)


def test_picard_z_linear_driver_matches_closed_form():
    """C(t, z) = kappa*z has fixed point X = e^{-(T-t)}(W(t)+kappa(T-t)).

    Substituting the candidate into the dynamics gives dX = X dt -
    kappa*Z dt + Z dW with Z = e^{-(T-t)} and X(T) = W(T), so it is the
    unique solution of the combined linear problem.
    """
    kappa, t_final, n_steps, n_paths = 0.4, 1.0, 32, 3000
    problem = _problem(_linear_drift(-1.0), _linear_z_driver(kappa),
                       _wiener_terminal)
    batch = _batch(17, t_final, n_steps, n_paths)
    sol = picard_in_z(problem, batch, tol=1e-6, max_iter=30)
    dt = sol.dt
    w = batch.scalar_paths
    for t in (0.25, 0.5, 0.75):
        k = round(t / dt)
        decay = math.exp(-(t_final - t))
        x_exact = decay * (w[:, k] + kappa * (t_final - t))
        x_err = float(np.sqrt(np.mean((sol.x_paths[:, k, 0] - x_exact) ** 2)))
        assert x_err <= 5.0 * (dt + sol.x_fit_stderr[k])
        z_err = float(np.sqrt(np.mean((sol.z_paths[:, k, 0, 0] - decay) ** 2)))
        assert z_err <= 5.0 * (dt + sol.z_fit_stderr[k])
    res = sol.picard_residuals
    non_monotone = sum(res[i + 1] > res[i] for i in range(len(res) - 1))
    assert non_monotone <= 1
    assert sol.contraction_ratios[-1] <= 0.75


def test_picard_z_factors_each_design_once_per_solve():
    """Work counts, not timings: the n_steps + 1 designs are factored once
    for the whole solve, and every sweep makes the terminal fit plus three
    fits per step with them.  The linear drift's implicit step takes one
    Newton iteration per path and step, with no line-search halving."""
    n_steps = 12
    problem = _problem(_linear_drift(-1.0), _linear_z_driver(0.4),
                       _wiener_terminal)
    batch = _batch(17, 1.0, n_steps, 300)
    counts = BackwardCounts()
    sol = picard_in_z(problem, batch, tol=1e-8, max_iter=30, counts=counts)
    sweeps = len(sol.picard_residuals)
    assert sweeps >= 4 and sol.picard_residuals[-1] > 0.0  # no shortcut
    # the driver matrix is evaluated up front and refreshed after every
    # sweep but the last
    assert counts == BackwardCounts(sweeps=sweeps,
                                    factorizations=n_steps + 1,
                                    fits=sweeps * (3 * n_steps + 1),
                                    newton_iterations=sweeps * n_steps * 300,
                                    line_search_halvings=0,
                                    driver_evaluations=sweeps)
    again = BackwardCounts()
    picard_in_z(problem, batch, tol=1e-8, max_iter=30, counts=again)
    assert again == counts


# ---------------------------------------------------------------------------
# the sweep and the driver matrix against their plain oracles


_SKEW = np.array([[-1.0, 0.5], [-0.5, -1.0]])
_MIX = np.array([[1.0, 0.5], [0.0, 1.0]])


def _skew_drift() -> MonotoneMap:
    """A non-diagonal linear drift acting row by row; symmetric part -I."""
    return MonotoneMap(
        eval=lambda t, x: np.asarray(x, dtype=float) @ _SKEW.T,
        jacobian=lambda t, x: np.broadcast_to(_SKEW, np.shape(x) + (2,)),
        name="skew drift")


def _timed_driver(solver) -> BsdeDriver:
    """A driver reading t, with the dependence the solver admits."""
    rho = rho_k_modulus(k=1)
    if solver is solve_bsde_autonomous_C:
        return BsdeDriver(eval=lambda t, x, z: (0.5 + t) * np.ones_like(x),
                          x_dependent=False, z_dependent=False,
                          name="timed forcing")
    if solver is picard_in_z:
        return BsdeDriver(
            eval=lambda t, x, z: (1.0 + t) * 0.3 * np.sum(z, axis=-1),
            x_dependent=False, name="timed z driver")
    return BsdeDriver(
        eval=lambda t, x, z: (1.0 + t) * 0.5 * np.sqrt(rho_eval(x * x, rho))
        * np.sign(x) + 0.2 * np.sum(z, axis=-1),
        rho=rho, name="timed x-z driver")


def _oracle_case(solver, dims, lambda0=0.0, n_steps=8):
    """(problem, batch, basis): a diagonal drift and the default basis in
    one dimension, a non-diagonal drift and a degree-3 basis in two."""
    d, m = dims
    if d == 1:
        drift, basis, mix = _linear_drift(-1.0), None, np.ones((1, 1))
    else:
        drift, basis, mix = _skew_drift(), polynomial_basis(m, 3), _MIX
    problem = BsdeProblem(
        drift=drift, driver=_timed_driver(solver),
        terminal=lambda b: np.sum(b.increments, axis=1) @ mix,
        t_final=1.0, n_modes=m, dim=d, lambda0=lambda0)
    return problem, _batch(29, 1.0, n_steps, 120, n_modes=m), basis


def _solve_with(solver, case, monkeypatch, oracle=False):
    problem, batch, basis = case
    counts = BackwardCounts()
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(monosee.bsde, "_backward_sweep",
                          oracles.backward_sweep)
            patch.setattr(monosee.bsde, "_driver_matrix",
                          oracles.driver_matrix)
        sol = solver(problem, batch, basis=basis, counts=counts)
    return sol, counts


def _records(sol) -> dict:
    """Every numeric record of a solution as a float array, by field name
    (the inner Picard histories flattened, their lengths kept apart)."""
    out = {}
    for f in fields(BsdeSolution):
        value = getattr(sol, f.name)
        if f.name == "basis":
            continue
        if f.name == "inner_picard_residuals":
            out["inner_lengths"] = np.array([len(h) for h in value])
            value = [r for h in value for r in h]
        out[f.name] = np.asarray(value, dtype=float)
    return out


_SOLVERS = [solve_bsde_autonomous_C, picard_in_z, picard_in_x]


@pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
@pytest.mark.parametrize("solver", _SOLVERS, ids=lambda f: f.__name__)
def test_backward_solvers_match_the_three_fit_oracle_bit_for_bit(
        solver, dims, monkeypatch):
    case = _oracle_case(solver, dims)
    sol, counts = _solve_with(solver, case, monkeypatch)
    want, want_counts = _solve_with(solver, case, monkeypatch, oracle=True)
    assert sol.basis == want.basis
    got, ref = _records(sol), _records(want)
    for name in ref:
        assert np.array_equal(got[name], ref[name]), name
    assert counts == want_counts
    # every path starts at W(0) = 0: the design at t = 0 is degenerate and
    # only the intercept carries a coefficient
    assert sol.x_coeffs[0][0].any()
    assert not sol.x_coeffs[0][1:].any() and not sol.z_coeffs[0][1:].any()


@pytest.mark.parametrize("solver", _SOLVERS, ids=lambda f: f.__name__)
def test_shift_reduced_solves_match_the_oracle_to_rounding(solver,
                                                           monkeypatch):
    """With lambda0 > 0 the stacked driver scales by np.exp over the time
    column, the oracle by math.exp at each float time; the two differ by
    at most an ulp, so every record agrees to 1e-14 of its own scale."""
    case = _oracle_case(solver, (2, 2), lambda0=0.8, n_steps=64)
    t_left = case[1].times[:-1]
    assert any(math.exp(0.4 * t) != g  # the grid exercises the difference
               for t, g in zip(t_left, np.exp(0.4 * t_left[:, None])[:, 0]))
    sol, counts = _solve_with(solver, case, monkeypatch)
    want, want_counts = _solve_with(solver, case, monkeypatch, oracle=True)
    got, ref = _records(sol), _records(want)
    for name in ref:
        assert got[name].shape == ref[name].shape, name
        scale = np.max(np.abs(ref[name]), initial=0.0)
        assert np.max(np.abs(got[name] - ref[name]), initial=0.0) \
            <= 1e-14 * scale, name
    assert counts == want_counts


def test_driver_matrix_is_one_stacked_call_equal_to_the_per_time_oracle():
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 9)
    x = rng.standard_normal((30, 9, 2))[:, :8]  # a solver's x_prev[:, :n]
    z = rng.standard_normal((30, 8, 2, 3))
    seen = []

    def timed(t, x, z):
        seen.append(np.shape(t))
        return (1.0 + t * t) * np.sqrt(np.abs(x)) \
            + 0.3 * np.sum(z, axis=-1) * t

    driver = BsdeDriver(eval=timed, name="timed driver")
    counts = BackwardCounts()
    got = _driver_matrix(driver, times, x, z, counts)
    assert seen == [(8, 1)] and counts.driver_evaluations == 1
    want = oracles.driver_matrix(driver, times, x, z, BackwardCounts())
    assert np.array_equal(got, want)


@pytest.mark.parametrize("solver", [picard_in_z, picard_in_x],
                         ids=lambda f: f.__name__)
def test_solvers_call_the_driver_once_per_driver_matrix(solver, monkeypatch):
    matrices = []
    original = monosee.bsde._driver_matrix

    def counting(*args):
        matrices.append(args[0].name)
        return original(*args)

    monkeypatch.setattr(monosee.bsde, "_driver_matrix", counting)
    problem, batch, _ = _oracle_case(solver, (1, 1))
    calls = []
    base = problem.driver.eval
    problem.driver.eval = lambda t, x, z: calls.append(t) or base(t, x, z)
    counts = BackwardCounts()
    sol = solver(problem, batch, counts=counts)
    assert len(calls) == len(matrices) == counts.driver_evaluations > 1
    if solver is picard_in_z:  # up front, then after every sweep but the last
        assert counts.driver_evaluations == counts.sweeps \
            == len(sol.picard_residuals)


def test_picard_z_rejects_x_dependent_driver():
    driver = BsdeDriver(eval=lambda t, x, z: np.asarray(x, dtype=float),
                        name="x driver")
    problem = _problem(_linear_drift(-1.0), driver, _wiener_terminal)
    with pytest.raises(ConfigError, match="picard_in_x"):
        picard_in_z(problem, _batch(3, 1.0, 8, 50))


def test_picard_z_nonconvergence_reports_history():
    problem = _problem(_linear_drift(-1.0), _linear_z_driver(8.0),
                       _wiener_terminal)
    with pytest.raises(NonconvergenceError) as info:
        picard_in_z(problem, _batch(13, 1.0, 16, 300), max_iter=4, tol=1e-12)
    assert len(info.value.residuals) == 4


# ---------------------------------------------------------------------------
# Picard in x


def test_picard_x_x_independent_driver_single_outer_pass():
    problem = _problem(_linear_drift(-1.0), _linear_z_driver(0.4),
                       _wiener_terminal)
    batch = _batch(17, 1.0, 16, 400)
    sol = picard_in_x(problem, batch, tol=1e-9, inner_tol=1e-6)
    assert len(sol.picard_residuals) == 1
    assert len(sol.inner_picard_residuals) == 1
    via_z = picard_in_z(problem, batch, tol=1e-6)
    assert np.array_equal(sol.x_paths, via_z.x_paths)


def test_picard_x_linear_x_driver_matches_closed_form():
    """C(t, x) = kappa*x combines with A(x) = -x into rate 1-kappa.

    The candidate X = e^{-(1-kappa)(T-t)} W(t), Z = e^{-(1-kappa)(T-t)}
    satisfies dX = (1-kappa) X dt + Z dW = -A dt - C dt + Z dW with
    X(T) = W(T).
    """
    kappa, t_final, n_steps, n_paths = 0.3, 1.0, 32, 3000
    driver = BsdeDriver(eval=lambda t, x, z: kappa * np.asarray(x, float),
                        c1=kappa ** 2, c2=kappa, z_dependent=False,
                        name="linear x driver")
    problem = _problem(_linear_drift(-1.0), driver, _wiener_terminal)
    batch = _batch(23, t_final, n_steps, n_paths)
    sol = picard_in_x(problem, batch, tol=1e-8, max_iter=25)
    dt = sol.dt
    w = batch.scalar_paths
    for t in (0.5,):
        k = round(t / dt)
        decay = math.exp(-(1.0 - kappa) * (t_final - t))
        x_err = float(np.sqrt(np.mean(
            (sol.x_paths[:, k, 0] - decay * w[:, k]) ** 2)))
        assert x_err <= 5.0 * (dt + sol.x_fit_stderr[k])
        z_err = float(np.sqrt(np.mean((sol.z_paths[:, k, 0, 0] - decay) ** 2)))
        assert z_err <= 5.0 * (dt + sol.z_fit_stderr[k])
    assert len(sol.picard_residuals) <= 25
    assert all(len(h) >= 1 for h in sol.inner_picard_residuals)


def test_picard_x_rho_modulus_toy_converges_quickly():
    """Driver |C(x)| = sqrt(rho_1(|x|^2)): convergent despite no Lipschitz x."""
    rho = rho_k_modulus(1)
    driver = BsdeDriver(
        eval=lambda t, x, z: (np.sqrt(rho_eval(np.asarray(x, float) ** 2, rho))
                              * np.sign(np.asarray(x, float))),
        rho=rho, c1=4.0, c2=2.0, z_dependent=False,
        name="modulus driver")
    problem = _problem(_linear_drift(-1.0), driver, _wiener_terminal)
    sol = picard_in_x(problem, _batch(29, 1.0, 32, 200), tol=1e-9,
                      max_iter=20)
    assert len(sol.picard_residuals) <= 20
    assert sol.picard_residuals[-1] < 1e-9
    res = sol.picard_residuals
    non_monotone = sum(res[i + 1] > res[i] for i in range(len(res) - 1))
    assert non_monotone <= 1


def test_picard_x_nonconvergence_reports_history():
    driver = BsdeDriver(eval=lambda t, x, z: 5.0 * np.asarray(x, float),
                        z_dependent=False, name="strong x driver")
    problem = _problem(_linear_drift(-1.0), driver, _wiener_terminal)
    with pytest.raises(NonconvergenceError) as info:
        picard_in_x(problem, _batch(3, 1.0, 16, 200), max_iter=3, tol=1e-12)
    assert len(info.value.residuals) == 3


# ---------------------------------------------------------------------------
# exponential shift reduction


def test_reduce_lambda0_is_identity_without_shift():
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal)
    reduced, gamma = reduce_lambda0(problem)
    assert reduced is problem
    assert gamma(0.7) == 1.0


def test_reduce_lambda0_solves_expansive_drift_exactly():
    """A(x) = +x carries shift lambda0 = 2; reduction makes the drift 0.

    gamma(t) = e^t turns the problem into a driftless one whose scheme is
    exact, so the undone solution must equal c*e^{T-t} to solver
    tolerance, with no O(dt) bias at all.
    """
    c = 1.5
    drift = MonotoneMap(eval=lambda t, x: np.asarray(x, dtype=float),
                        jacobian=lambda t, x: np.ones_like(
                            np.asarray(x, dtype=float)),
                        diagonal=True, name="expansive drift")
    problem = _problem(drift, zero_driver(), _constant_terminal(c),
                       lambda0=2.0)
    reduced, gamma = reduce_lambda0(problem)
    assert gamma(1.0) == pytest.approx(math.e, rel=1e-12)
    assert reduced.lambda0 == 0.0
    zero = reduced.drift.eval(0.6, np.array([2.0, -3.0]))
    assert np.max(np.abs(zero)) <= 1e-12
    sol = solve_bsde_autonomous_C(problem, _batch(10, 1.0, 16, 150))
    for k in range(sol.n_steps + 1):
        expected = c * math.exp(1.0 - sol.times[k])
        assert np.allclose(sol.x_paths[:, k, 0], expected, rtol=1e-8)


# ---------------------------------------------------------------------------
# non-diagonal drift over the replica stack


def _coupled_drift() -> MonotoneMap:
    """A(x) = M x - x^3 on R^2 with M = [[0.5, 1], [-1, 0.2]]: the skew
    part couples the components, and 2<x-y, A(x)-A(y)> <= |x-y|^2, so the
    drift is dissipative up to lambda0 = 1.  Acts row by row on (..., 2)."""
    mat = np.array([[0.5, 1.0], [-1.0, 0.2]])
    return MonotoneMap(
        eval=lambda t, x: x @ mat.T - x ** 3,
        jacobian=lambda t, x: mat - (3.0 * x ** 2)[..., None] * np.eye(2),
        name="coupled cubic drift")


def test_non_diagonal_drift_solves_each_replica_row():
    """One stacked implicit step per grid time equals the per-row step.

    Each row of X(t_k), taken back to the shift-reduced coordinates the
    sweep works in, must match regularized_implicit_step applied to that
    row's own right-hand side (conditional fit plus dt times the driver)
    within the two solves' tolerances.
    """
    tol = 1e-10
    driver = BsdeDriver(eval=lambda t, x, z: np.full(np.shape(x), 0.3),
                        c2=0.0, zeta=lambda t: 0.3 * math.sqrt(2.0),
                        x_dependent=False, z_dependent=False,
                        name="constant forcing")
    problem = BsdeProblem(
        drift=_coupled_drift(), driver=driver,
        terminal=lambda batch: np.sin(batch.increments.sum(axis=1)),
        t_final=1.0, n_modes=2, dim=2, lambda0=1.0)
    sol = solve_bsde_autonomous_C(problem, _batch(41, 1.0, 8, 300, n_modes=2),
                                  resolvent_tol=tol)
    assert sol.x_paths.shape == (300, 9, 2)
    reduced, gamma = reduce_lambda0(problem)
    # the reduced Jacobian acts on a stack, one (2, 2) block per row
    rows = sol.x_paths[:3, 0]
    stacked = reduced.drift.jacobian(0.5, rows)
    assert stacked.shape == (3, 2, 2)
    for r in range(3):
        assert np.array_equal(stacked[r], reduced.drift.jacobian(0.5, rows[r]))
    g = np.array([gamma(t) for t in sol.times])
    dt = sol.dt
    for k in (0, 4, 7):
        rhs = (sol.conditional_fit[:, k] * g[k + 1]
               + dt * sol.driver_values[:, k] * g[k])
        x_reduced = sol.x_paths[:, k] * g[k]
        for r in range(0, 300, 37):
            alone = regularized_implicit_step(reduced.drift, sol.times[k + 1],
                                              dt, rhs[r], tol=tol)
            assert np.linalg.norm(x_reduced[r] - alone) \
                <= 2.0 * tol * (1.0 + np.linalg.norm(rhs[r]))


def test_solvers_check_stacked_shapes_and_sweep_limits():
    batch = _batch(5, 1.0, 8, 30)
    flat = _problem(_linear_drift(), zero_driver(),
                    lambda b: b.scalar_paths[:, -1])
    with pytest.raises(ConfigError, match=r"terminal returned shape \(30,\)"):
        solve_bsde_autonomous_C(flat, batch)
    scalar_driver = BsdeDriver(eval=lambda t, x, z: np.ones(1),
                               x_dependent=False, z_dependent=False,
                               name="unstacked driver")
    with pytest.raises(ConfigError, match="unstacked driver returned shape"):
        solve_bsde_autonomous_C(
            _problem(_linear_drift(), scalar_driver, _wiener_terminal), batch)
    problem = _problem(_linear_drift(), _linear_z_driver(0.4),
                       _wiener_terminal)
    with pytest.raises(ConfigError, match="max_iter must be >= 1"):
        picard_in_z(problem, batch, max_iter=0)
    with pytest.raises(ConfigError, match="max_iter must be >= 1"):
        picard_in_x(problem, batch, max_iter=0)
    with pytest.raises(ConfigError, match="inner_max_iter must be >= 1"):
        picard_in_x(problem, batch, inner_max_iter=0)


# ---------------------------------------------------------------------------
# sampled driver hypotheses


def test_driver_checkers_accept_declared_linear_driver():
    driver = _linear_z_driver(0.7)
    sampler = driver_state_sampler(1, 1, amp_range=(1e-2, 1e2))
    assert check_driver_modulus(driver, sampler, n_samples=500).ok
    assert check_driver_growth(driver, sampler, n_samples=500).ok


def _rooty_driver():
    return BsdeDriver(
        eval=lambda t, x, z: np.sign(np.asarray(z)[..., 0])
        * np.sqrt(np.abs(np.asarray(z)[..., 0])),
        c1=1.0, c2=1.0, x_dependent=False, name="square-root driver")


def _quadratic_driver():
    return BsdeDriver(eval=lambda t, x, z: np.asarray(x, dtype=float) ** 2,
                      c2=1.0, zeta=lambda t: 1.0, z_dependent=False,
                      name="quadratic driver")


def test_driver_checkers_flag_planted_violations():
    sampler = driver_state_sampler(1, 1, amp_range=(1e-3, 1e0))
    report = check_driver_modulus(_rooty_driver(), sampler, n_samples=400)
    assert not report.ok and report.max_excess > 0

    growth = check_driver_growth(_quadratic_driver(),
                                 driver_state_sampler(1, 1,
                                                      amp_range=(1e0, 1e1)),
                                 n_samples=400)
    assert not growth.ok


def _concave_driver():
    # reads t, x and z of a (2, 3) problem; rho_k modulus, time-dependent zeta
    return BsdeDriver(
        eval=lambda t, x, z: (1.0 + t) * np.sqrt(np.abs(x))
        + 0.3 * np.sum(z, axis=-1),
        rho=rho_k_modulus(1), c1=4.0, c2=1.5, zeta=lambda t: 0.5 + t,
        name="concave driver")


DRIVER_CASES = [
    (lambda: _linear_z_driver(0.7), (1, 1, (1e-2, 1e2)), 500),
    (_rooty_driver, (1, 1, (1e-3, 1e0)), 400),
    (_quadratic_driver, (1, 1, (1e0, 1e1)), 400),
    (_concave_driver, (2, 3, (1e-2, 1e1)), 300)]


@pytest.mark.parametrize("make_driver, shape, n_samples", DRIVER_CASES)
@pytest.mark.parametrize("seed", [0, 9])
def test_stacked_driver_checks_match_the_per_sample_loop(make_driver, shape,
                                                         n_samples, seed):
    driver = make_driver()
    dim, modes, amp = shape
    sampler = driver_state_sampler(dim, modes, amp_range=amp)
    assert_same_report(
        check_driver_modulus(driver, sampler, n_samples=n_samples, seed=seed),
        oracles.driver_modulus(driver, sampler, n_samples=n_samples,
                               seed=seed))
    assert_same_report(
        check_driver_growth(driver, sampler, n_samples=n_samples, seed=seed),
        oracles.driver_growth(driver, sampler, n_samples=n_samples,
                              seed=seed))


def test_driver_checks_pass_times_as_a_column():
    seen = []

    def probe(t, *states):
        # records the shape of t, and is the zero driver (or zeta)
        seen.append(np.shape(t))
        return np.zeros_like(states[0]) if states else np.zeros(np.shape(t))

    driver = BsdeDriver(eval=probe, zeta=probe, name="probe")
    sampler = driver_state_sampler(2, 1)
    check_driver_modulus(driver, sampler, n_samples=7)
    check_driver_growth(driver, sampler, n_samples=7)
    assert seen == [(7, 1)] * 4
    assert np.array_equal(driver.zeta_at(np.array([0.0, 0.5])), np.zeros(2))
    assert BsdeDriver(eval=probe).zeta_at(0.25) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amp_range", oracles.BAD_AMP_RANGES)
def test_driver_state_sampler_rejects_a_bad_amp_range(amp_range):
    # before any logarithm is taken, so no math domain error
    with pytest.raises(ConfigError, match=r"0 < lo <= hi < inf"):
        driver_state_sampler(1, 1, amp_range=amp_range)
    assert driver_state_sampler(1, 1, amp_range=(2.0, 2.0))(
        np.random.default_rng(0))[1].shape == (1,)


@pytest.mark.parametrize("make_driver", [_concave_driver, _quadratic_driver])
def test_driver_checks_run_on_a_shift_reduced_driver(make_driver):
    """The reduced driver and zeta take the (S, 1) time column too."""
    driver = make_driver()
    problem = _problem(_linear_drift(), driver, _wiener_terminal,
                       lambda0=1.0)
    reduced = reduce_lambda0(problem)[0].driver
    assert reduced.c1 > driver.c1
    dim = 2 if driver.name == "concave driver" else 1
    modes = 3 if dim == 2 else 1
    sampler = driver_state_sampler(dim, modes, amp_range=(1e-2, 1e1))
    assert_same_report(
        check_driver_modulus(reduced, sampler, n_samples=200, seed=3),
        oracles.driver_modulus(reduced, sampler, n_samples=200, seed=3))
    assert_same_report(
        check_driver_growth(reduced, sampler, n_samples=200, seed=3),
        oracles.driver_growth(reduced, sampler, n_samples=200, seed=3))


# ---------------------------------------------------------------------------
# a-priori report


def test_apriori_zero_problem_reports_zero():
    problem = _problem(_zero_drift(), zero_driver(), _constant_terminal(0.0))
    sol = solve_bsde_autonomous_C(problem, _batch(5, 1.0, 8, 100))
    report = apriori_bound_check(sol, problem)
    assert report.sup_moment == 0.0 and report.z_moment == 0.0
    assert report.fitted_c0 == 0.0 and report.ok
    assert "within order-of-magnitude budget" in report.summary()


def test_apriori_linear_budget_and_jensen_consistency():
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal)
    sol = solve_bsde_autonomous_C(problem, _batch(12, 1.0, 16, 2000))
    rep2 = apriori_bound_check(sol, problem, q=2)
    assert rep2.ok and 0.0 < rep2.fitted_c0 <= 100.0
    assert rep2.terminal_moment == pytest.approx(
        np.mean(sol.x_paths[:, -1, 0] ** 2))
    rep4 = apriori_bound_check(sol, problem, q=4)
    assert rep4.sup_moment >= rep2.sup_moment ** 2 - 1e-12
    assert rep4.z_moment >= rep2.z_moment ** 2 - 1e-12
    with pytest.raises(ConfigError):
        apriori_bound_check(sol, problem, q=1.0)


def test_apriori_flags_undeclared_forcing():
    """A constant driver with zeta left at zero busts the declared budget."""
    driver = BsdeDriver(eval=lambda t, x, z: np.full(np.shape(x), 5.0),
                        c2=0.0, x_dependent=False, z_dependent=False,
                        name="undeclared forcing")
    problem = _problem(_zero_drift(), driver, _constant_terminal(0.0))
    sol = solve_bsde_autonomous_C(problem, _batch(7, 1.0, 8, 100))
    report = apriori_bound_check(sol, problem)
    assert report.lhs_total > 0.0 and report.base == 0.0
    assert math.isinf(report.fitted_c0) and not report.ok
    assert "EXCEEDS" in report.summary()


def test_apriori_reads_eta_and_zeta_once_on_the_grid():
    calls = []

    def profile(scale):
        def rate(t):
            calls.append(np.shape(t))
            return scale * (1.0 + t)
        return rate

    driver = BsdeDriver(eval=lambda t, x, z: np.zeros_like(x), c2=0.0,
                        zeta=profile(0.5), x_dependent=False,
                        z_dependent=False, name="zero with zeta")
    problem = _problem(_linear_drift(-1.0), driver, _wiener_terminal,
                       eta=profile(2.0))
    sol = solve_bsde_autonomous_C(problem, _batch(4, 1.0, 8, 50))
    report = apriori_bound_check(sol, problem, n_quad=65)
    assert calls == [(65,), (65,)]
    ts = np.linspace(0.0, 1.0, 65)
    assert report.eta_sq_integral == float(
        np.trapezoid((2.0 * (1.0 + ts) + 0.5 * (1.0 + ts)) ** 2, ts))
    # the shift-reduced eta and zeta read arrays too, scaled by gamma
    reduced, gamma = reduce_lambda0(_problem(
        _linear_drift(-1.0), driver, _wiener_terminal, eta=profile(2.0),
        lambda0=0.8))
    assert np.array_equal(reduced.eta(ts), gamma(ts) * 2.0 * (1.0 + ts))
    assert np.array_equal(reduced.driver.zeta_at(ts),
                          gamma(ts) * 0.5 * (1.0 + ts))


def test_gamma_reads_floats_and_arrays_alike():
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal,
                       lambda0=0.8)
    gamma = reduce_lambda0(problem)[1]
    ts = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(gamma(ts), [gamma(float(t)) for t in ts])
    assert np.array_equal(gamma(ts[:, None]), gamma(ts)[:, None])
    assert gamma(1.0) == pytest.approx(math.exp(0.4), rel=1e-15)
    unshifted = reduce_lambda0(_problem(_linear_drift(-1.0), zero_driver(),
                                        _wiener_terminal))[1]
    assert np.array_equal(unshifted(ts), np.ones(9))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_final", [-1.0, math.inf, math.nan])
def test_driver_state_sampler_rejects_non_finite_times(t_final):
    with pytest.raises(ConfigError, match="finite t_final >= 0"):
        driver_state_sampler(2, 1, t_final=t_final)
    # valid arguments draw the stream they drew; t_final = 0 draws t = 0
    rng, want = np.random.default_rng(2), np.random.default_rng(2)
    t, x, z = driver_state_sampler(2, 3, t_final=0.5)(rng)
    lo, hi = math.log(1e-2), math.log(1e1)
    assert t == want.uniform(0.0, 0.5)
    assert x.tobytes() == (float(np.exp(want.uniform(lo, hi)))
                           * want.standard_normal(2)).tobytes()
    assert z.tobytes() == (float(np.exp(want.uniform(lo, hi)))
                           * want.standard_normal((2, 3))).tobytes()
    assert driver_state_sampler(2, 1, t_final=0.0)(rng)[0] == 0.0


# ---------------------------------------------------------------------------
# export and reproducibility


def test_solution_csv_layout_and_reproducibility():
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal)
    sol = solve_bsde_autonomous_C(problem, _batch(19, 1.0, 4, 50))
    text = solution_csv(sol)
    lines = text.split("\r\n")
    assert lines[0] == ("t,x1:1,x1:w1,x1:w1^2,"
                        "z1m1:1,z1m1:w1,z1m1:w1^2,picard_residual")
    assert len(lines) == 1 + (4 + 1) + 1 and lines[-1] == ""
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(v) for v in first[1:4]] == list(sol.x_coeffs[0][:, 0])
    terminal = lines[-2].split(",")
    assert terminal[4:7] == ["", "", ""] and terminal[7] == ""
    rerun = solve_bsde_autonomous_C(problem, _batch(19, 1.0, 4, 50))
    assert solution_csv(rerun) == text


def test_solution_csv_records_iteration_residuals():
    problem = _problem(_linear_drift(-1.0), _linear_z_driver(0.4),
                       _wiener_terminal)
    sol = picard_in_z(problem, _batch(3, 1.0, 8, 200), tol=1e-5)
    text = solution_csv(sol)
    lines = text.split("\r\n")
    for i, res in enumerate(sol.picard_residuals):
        assert float(lines[1 + i].split(",")[-1]) == res
    beyond = lines[1 + len(sol.picard_residuals)].split(",")[-1]
    assert beyond == ""


def test_z_path_distance_matches_manual():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3, 2, 2))
    b = rng.standard_normal((5, 3, 2, 2))
    manual = math.sqrt(0.1 * np.mean(np.sum((a - b) ** 2, axis=(2, 3)),
                                     axis=0).sum())
    assert z_path_distance(a, b, 0.1) == pytest.approx(manual, rel=1e-12)
