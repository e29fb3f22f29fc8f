"""Backward solver tests.

The regression recursion is checked against exact discrete recurrences,
closed forms from the martingale representation of linear problems (each
independently confirmed by a nested Monte-Carlo oracle), and the algebraic
identity behind the regularized implicit step; the Picard loops against
their fixed points and contraction diagnostics; the a-priori report
against hand-computable budgets and Jensen's inequality.
"""

import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monosee.bsde
from monosee.analysis import rho_eval, rho_k_modulus
from monosee.bsde import (BackwardCounts, BsdeAprioriReport, BsdeDriver,
                          BsdeProblem, BsdeSolution, PolynomialBasis,
                          _driver_matrix, _factor, _fit, _fit_stderr,
                          _state_values,
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
from monosee.noise import NoiseBatch, refine_path, sample_batch, sample_path
from monosee.resolvent import MonotoneMap, NewtonCounts, resolvent

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


def _modulus_x_driver() -> BsdeDriver:
    """|C(x)| = sqrt(rho_1(|x|^2)), bsde_picard_demo's concave-modulus
    coupling in x."""
    rho = rho_k_modulus(1)
    return BsdeDriver(
        eval=lambda t, x, z: (np.sqrt(rho_eval(np.asarray(x, float) ** 2, rho))
                              * np.sign(np.asarray(x, float))),
        rho=rho, c1=4.0, c2=2.0, z_dependent=False,
        name="modulus driver")


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


def test_basis_design_of_a_stack_is_the_stack_of_designs():
    basis = polynomial_basis(2, degree=3)
    stack = np.random.default_rng(4).standard_normal((3, 7, 2))
    designs = basis.design(stack)
    assert designs.shape == (3, 7, basis.n_terms)
    for block, design in zip(stack, designs):
        assert np.array_equal(design, basis.design(block))
    with pytest.raises(ConfigError, match="expects 2 state variables, got 3"):
        basis.design(np.zeros((3, 7, 3)))


@pytest.mark.parametrize("degree", range(7))
def test_one_variable_design_equals_the_array_power_product(degree):
    """With one state variable the design built from x, x*x and pow is
    the array-power product bit for bit, at every degree, on the strided
    time-first view of the noise's paths that a solve reads."""
    states = _state_values(_batch(5, 1.0, 16, 300))
    basis = polynomial_basis(1, degree)
    for block in (states[:8], states[8:], states[3]):
        assert np.array_equal(basis.design(block),
                              oracles.design(basis, block))


@pytest.mark.parametrize("n_vars", [2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_design_terms_are_correctly_rounded_products(n_vars, degree):
    """Up to degree 2 every term is one product of two state values (or a
    value, or 1), rounded once: each entry is the exact rational product
    rounded to the nearest float."""
    states = _state_values(_batch(9, 1.0, 8, 60, n_modes=n_vars))[2:6]
    basis = polynomial_basis(n_vars, degree)
    design = basis.design(states)
    assert design.flags.c_contiguous
    for index in np.ndindex(states.shape[:-1]):
        exact = [Fraction(float(x)) for x in states[index]]
        for j, e in enumerate(basis.exponents):
            product = Fraction(1)
            for x, k in zip(exact, e):
                product *= x ** k
            assert design[index + (j,)] == float(product)


def _factor_reference(designs):
    """Each time's factor from its own QR and SVD of the fancy-indexed
    active columns, the carrier of the constants first."""
    n_cols = designs.shape[2]
    factors = np.zeros((len(designs), n_cols, n_cols))
    for i, design in enumerate(designs):
        spans = np.ptp(design, axis=0)
        carrier = np.flatnonzero((spans == 0.0) & (design[0] != 0.0))
        active = list(carrier[:1]) + list(np.flatnonzero(spans != 0.0))
        _, s, vt = np.linalg.svd(np.linalg.qr(design[:, active], mode="r"))
        factors[i][np.ix_(active, range(len(active)))] = vt.T / s
    return factors


@pytest.mark.parametrize("order, flat", [
    ((0, 1, 2), 3),  # every column active in order on times 0-2: one run
    ((0, 1, 2), 1),  # the same columns on times 0, 2 and 3: no run
    ((1, 0, 2), None),  # the constant carrier second: every column is
                        # active, but the carrier leads the active ones
])
def test_factor_equals_the_fancy_indexed_reference(order, flat):
    """Whichever way a group of times reaches QR (a view of a run of
    times, or a gathered copy), the factors are those of each time's own
    fancy-indexed active columns, bit for bit."""
    x = np.random.default_rng(8).standard_normal((4, 50))
    if flat is not None:
        x[flat] = 0.0  # a degenerate time: the intercept alone is active
    designs = np.stack([np.ones_like(x), x, x * x], axis=2)[..., list(order)]
    factors, n_active = _factor(designs, ["a", "b", "c"])
    assert np.array_equal(factors, _factor_reference(designs))
    assert list(n_active) == [1 if i == flat else 3 for i in range(4)]


def test_basis_rejects_malformed_spec():
    with pytest.raises(ConfigError):
        PolynomialBasis(exponents=((0,), (1,)), names=("1",))
    with pytest.raises(ConfigError):
        PolynomialBasis(exponents=((0,), (-1,)), names=("1", "w"))
    with pytest.raises(ConfigError):
        polynomial_basis(0)
    with pytest.raises(ConfigError):
        polynomial_basis(2).design(np.zeros((4, 3)))


def _fit_one(design, names, targets, t=None):
    """(coeffs, fitted, stderr) of one design's fit through ``_factor``,
    ``_fit`` and ``_fit_stderr``; 1-d targets give 1-d results."""
    factors, n_active = _factor(design[None], names,
                                None if t is None else (t,))
    targets = np.asarray(targets, dtype=float)
    stack = targets.reshape(len(targets), -1)[None]
    coeffs, fitted = _fit(design[None] @ factors, factors, stack)
    stderr = float(_fit_stderr(stack, fitted, n_active)[0])
    return (coeffs[0].reshape(design.shape[1:] + targets.shape[1:]),
            fitted[0].reshape(targets.shape), stderr)


def test_fit_recovers_in_span_polynomial_exactly():
    basis = polynomial_basis(1, degree=2)
    rng = np.random.default_rng(11)
    s = rng.standard_normal((200, 1))
    design = basis.design(s)
    targets = 2.0 + 3.0 * s[:, 0] - 0.5 * s[:, 0] ** 2
    coeffs, fitted, stderr = _fit_one(design, basis.names, targets)
    assert np.allclose(coeffs, [2.0, 3.0, -0.5], atol=1e-10)
    assert np.allclose(fitted, targets, atol=1e-10)
    assert stderr < 1e-10


def test_fit_degenerate_state_collapses_to_mean():
    basis = polynomial_basis(1, degree=2)
    design = basis.design(np.zeros((40, 1)))  # columns 1, 0, 0
    rng = np.random.default_rng(5)
    targets = rng.standard_normal(40)
    coeffs, fitted, _ = _fit_one(design, basis.names, targets)
    assert np.allclose(coeffs, [targets.mean(), 0.0, 0.0], atol=1e-12)
    assert np.allclose(fitted, targets.mean(), atol=1e-12)


def test_fit_raises_on_collinear_columns():
    basis = PolynomialBasis(exponents=((0,), (1,), (1,)),
                            names=("1", "w1", "w1_again"))
    rng = np.random.default_rng(7)
    s = rng.standard_normal((50, 1))
    with pytest.raises(RegressionError, match=r"rank-deficient.*w1_again"):
        _fit_one(basis.design(s), basis.names, s[:, 0])


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

    coeffs, fitted, stderr = _fit_one(design, names, targets)
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
        _factor(design[None], names, (0.25,))


# monomial designs in W(t) at the edge of their rank loss (R = 4000, seed
# 31, 64 steps): the thin SVD's verdict at each (degree, grid index), True
# for full rank
_MONOMIAL_VERDICTS = {(12, 1): True, (12, 64): True,
                      (18, 1): False, (18, 64): True}


@pytest.mark.parametrize("degree, k", sorted(_MONOMIAL_VERDICTS))
def test_qr_factorization_keeps_the_svd_rank_verdicts(degree, k):
    """R's singular values give the thin SVD's lstsq-rule rank: the same
    verdict, and the same rank in the error text, on monomial designs on
    either side of their rank loss."""
    batch = sample_batch(seed=31, t_final=1.0, n_steps=64, n_modes=1,
                         replicas=4000)
    basis = polynomial_basis(1, degree)
    design = basis.design(_state_values(batch)[k])
    s = np.linalg.svd(design, compute_uv=False)
    rank = int(np.count_nonzero(
        s > np.finfo(float).eps * max(design.shape) * s[0]))
    assert (rank == basis.n_terms) is _MONOMIAL_VERDICTS[degree, k]
    if rank == basis.n_terms:
        assert _factor(design[None], basis.names)[1][0] == basis.n_terms
    else:
        with pytest.raises(RegressionError,
                           match=rf"\(rank {rank} < {basis.n_terms} "):
            _factor(design[None], basis.names, (float(batch.times[k]),))


@pytest.mark.parametrize("seed", range(8))
def test_qr_singular_values_match_the_thin_svd(seed):
    """On random tall designs with columns scaled over six decades, the
    factor's column norms are 1/s for s within 1e-13 relative of the thin
    SVD's, and design @ factor has orthonormal columns up to the rounding
    the condition number allows."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = int(rng.integers(20, 3000)), int(rng.integers(1, 9))
    design = rng.standard_normal((n_rows, n_cols)) \
        * 10.0 ** rng.uniform(-3, 3, size=n_cols)
    [factor], [n_active] = _factor(design[None],
                                   [f"c{j}" for j in range(n_cols)])
    s = np.linalg.svd(design, compute_uv=False)
    got = 1.0 / np.linalg.norm(factor[:, :n_active], axis=0)
    assert n_active == n_cols
    assert np.max(np.abs(got - s) / s) <= 1e-13
    u = design @ factor
    assert np.allclose(u.T @ u, np.eye(n_cols), rtol=0,
                       atol=1e-15 * s[0] / s[-1])


@pytest.mark.parametrize("n_modes", [1, 2])
def test_prepare_keeps_one_state_stack_and_nothing_else_of_size_r(n_modes):
    """The regression data of a solve is the (N+1, R, m) W(t_k) stack plus
    per-time factors and counts whose bytes do not depend on R."""
    problem = BsdeProblem(drift=_linear_drift(-1.0), driver=zero_driver(),
                          terminal=_wiener_terminal, t_final=1.0,
                          n_modes=n_modes)
    others = set()
    for replicas in (40, 400):
        batch = _batch(3, 1.0, 16, replicas, n_modes=n_modes)
        regression = monosee.bsde._prepare(problem, batch, None,
                                           BackwardCounts())[3]
        arrays = {f.name: getattr(regression, f.name)
                  for f in fields(regression)}
        assert all(isinstance(a, np.ndarray) for a in arrays.values())
        states = arrays.pop("states")
        assert states.shape == (17, replicas, n_modes)
        assert np.array_equal(states, _state_values(batch))
        assert all(replicas not in a.shape for a in arrays.values())
        others.add(sum(a.nbytes for a in arrays.values()))
    assert len(others) == 1


def test_prepare_peaks_under_one_and_a_third_path_arrays():
    """bsde_linear_validation's regression setup, 4,000 paths x 64 steps:
    while ``_prepare`` builds and factors the designs a block at a time,
    traced allocations peak at no more than 1.3 float64 arrays of
    R x (N+1) (1.11 measured; 1.48 while each QR read a gathered copy of
    its block)."""
    r_count, n = 4000, 64
    problem = _problem(MonotoneMap.linear(-1.0, diagonal=True), zero_driver(),
                       _wiener_terminal)
    batch = sample_batch(31, 1.0, n, 1, r_count)

    def prepare():
        return monosee.bsde._prepare(problem, batch, None, BackwardCounts())

    prepare()  # first-call allocations (imports, caches) are not the setup's
    tracemalloc.start()
    try:
        prepare()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 8 * r_count * (n + 1)


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
    a_eps = oracles.yosida(drift, 0.0, dt, y)
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
                        np.zeros((40, 8, 1)), np.zeros((40, 9, 1)))
    sol0 = solve_bsde_autonomous_C(problem, frozen)
    assert np.allclose(sol0.x_paths, 3.0, rtol=1e-12, atol=0)
    assert np.all(sol0.z_paths == 0.0)
    assert sol0.terminal_residual <= 1e-12


def test_autonomous_driver_reads_read_only_zero_stacks():
    """A driver independent of x and z is evaluated once, on one row of
    non-writeable zero stacks of shapes (1, N, d) and (1, N, d, m), and
    zero_driver answers a writeable stack of zeros of the x shape.  The
    Picard loop hands its driver non-writeable zero stacks of shapes
    (R, N, d) and (R, N, d, m) on the first call, and a non-writeable
    zero z stack on the first call of every later outer pass."""
    seen = []

    def record(t, x, z):
        seen.append((x, z))
        return zero_driver().eval(t, x, z)

    driver = BsdeDriver(eval=record, c1=0.0, c2=0.0, x_dependent=False,
                        z_dependent=False, name="recording driver")
    problem = BsdeProblem(drift=_linear_drift(-1.0), driver=driver,
                          terminal=_wiener_terminal, t_final=1.0,
                          n_modes=2, dim=1)
    sol = solve_bsde_autonomous_C(problem, _batch(21, 1.0, 8, 50, n_modes=2))
    [(x, z)] = seen
    assert x.shape == (1, 8, 1) and z.shape == (1, 8, 1, 2)
    assert not x.flags.writeable and not z.flags.writeable
    assert np.all(x == 0.0) and np.all(z == 0.0)
    values = zero_driver().eval(0.5, x, z)
    assert values.shape == x.shape and values.flags.writeable
    assert np.all(values == 0.0)
    reference = solve_bsde_autonomous_C(
        replace(problem, driver=zero_driver()),
        _batch(21, 1.0, 8, 50, n_modes=2))
    assert np.array_equal(sol.x_paths, reference.x_paths)

    seen.clear()
    coupled = replace(driver, x_dependent=True, z_dependent=True)
    sol = picard_in_x(replace(problem, driver=coupled),
                      _batch(21, 1.0, 8, 50, n_modes=2))
    # pass one calls the driver at the zero stacks and at its Z; pass two
    # at the first X with the zero Z, then repeats pass one bit for bit
    assert len(sol.picard_residuals) == 2 and len(seen) == 4
    (x, z), (x_next, z_next) = seen[0], seen[2]
    assert x.shape == (50, 8, 1) and z.shape == (50, 8, 1, 2)
    assert not x.flags.writeable and not z.flags.writeable
    assert np.all(x == 0.0) and np.all(z == 0.0)
    assert x_next.flags.writeable and np.array_equal(x_next,
                                                     sol.x_paths[:, :8])
    assert z_next.shape == (50, 8, 1, 2) and not z_next.flags.writeable
    assert np.all(z_next == 0.0)


def test_autonomous_solve_peaks_under_six_path_arrays():
    """bsde_linear_validation's solve, 4,000 paths x 64 steps, from the
    noise draw on: traced allocations peak at no more than 6 float64
    arrays of R x (N+1) (5.4 measured; 6.4 while the sweep kept a record
    of its conditional fits, 8.4 while the regression states were a
    second cumulative sum and the state-free driver one row per path)."""
    r_count, n = 4000, 64
    problem = _problem(MonotoneMap.linear(-1.0, diagonal=True), zero_driver(),
                       _wiener_terminal)

    def solve():
        return solve_bsde_autonomous_C(
            problem, sample_batch(31, 1.0, n, 1, r_count))

    solve()  # first-call allocations (imports, caches) are not the solve's
    tracemalloc.start()
    try:
        solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * r_count * (n + 1)


@pytest.mark.parametrize("solver, driver, arrays", [
    (lambda p, b: picard_in_x(p, b, max_iter=20, tol=1e-7),
     _modulus_x_driver(), 9),
    (picard_in_z, _linear_z_driver(0.4), 7),
], ids=["picard_in_x", "picard_in_z"])
def test_picard_solves_peak_under_a_few_path_arrays(solver, driver, arrays):
    """bsde_picard_demo's two solves, 4,000 paths x 64 steps, on a batch
    drawn beforehand: traced allocations peak at no more than 9 (x, 8.2
    measured) and 7 (z, 6.4 measured) float64 arrays of R x (N+1), 10.3
    each while the loop allocated its zero X and Z stacks and every sweep
    a record of its conditional fits."""
    r_count, n = 4000, 64
    problem = _problem(MonotoneMap.linear(-1.0, diagonal=True), driver,
                       _wiener_terminal)
    batch = sample_batch(31, 1.0, n, 1, r_count)

    def solve():
        return solver(problem, batch)

    solve()  # first-call allocations (imports, caches) are not the solve's
    tracemalloc.start()
    try:
        solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * r_count * (n + 1)


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
    w_end = np.array([[p.scalar_paths[0, -1]] for p in fresh])
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
    """The batched state W(t_k), stacked time first, is each path's own
    running sum, bit for bit: the reference is the per-path loop the batch
    replaced."""
    batch = _batch(3, 1.0, 16, 25, n_modes=3)
    states = _state_values(batch)
    assert states.shape == (17, 25, 3)
    for r in range(batch.n_replicas):
        path = batch.row(r)
        alone = np.vstack([np.zeros((1, path.n_modes)),
                           np.cumsum(path.increments[0], axis=0)])
        assert np.array_equal(states[:, r], alone)


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
                                batch.paths))


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


def _assert_matches_oracle_bit_for_bit(solver, case, monkeypatch):
    sol, counts = _solve_with(solver, case, monkeypatch)
    want, want_counts = _solve_with(solver, case, monkeypatch, oracle=True)
    assert sol.basis == want.basis
    got, ref = _records(sol), _records(want)
    for name in ref:
        assert np.array_equal(got[name], ref[name]), name
    assert counts == want_counts
    # every path starts at W(0) = 0: the design at t = 0 is degenerate and
    # only the intercept carries a coefficient
    intercept = sol.basis.names.index("1")
    others = [j for j in range(sol.basis.n_terms) if j != intercept]
    assert sol.x_coeffs[0][intercept].any()
    assert not sol.x_coeffs[0][others].any()
    assert not sol.z_coeffs[0][others].any()


@pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
@pytest.mark.parametrize("solver", _SOLVERS, ids=lambda f: f.__name__)
def test_backward_solvers_match_the_three_fit_oracle_bit_for_bit(
        solver, dims, monkeypatch):
    _assert_matches_oracle_bit_for_bit(solver, _oracle_case(solver, dims),
                                       monkeypatch)


def _late_intercept_basis(n_vars: int) -> PolynomialBasis:
    """The degree-2 basis with its intercept moved from first to last."""
    base = polynomial_basis(n_vars, 2)
    return PolynomialBasis(exponents=base.exponents[1:] + base.exponents[:1],
                           names=base.names[1:] + base.names[:1])


@pytest.mark.parametrize("dims, late_intercept",
                         [((1, 1), False), ((1, 1), True), ((2, 2), True)],
                         ids=["1d", "1d-late-intercept", "2d-late-intercept"])
@pytest.mark.parametrize("solver", _SOLVERS, ids=lambda f: f.__name__)
def test_backward_solvers_match_the_oracle_over_a_partial_block(
        solver, dims, late_intercept, monkeypatch):
    """13 steps leave a partial block of the sweep below a full one, and an
    intercept listed last moves the carrier column off the front."""
    problem, batch, basis = _oracle_case(solver, dims, n_steps=13)
    assert 13 % monosee.bsde._BLOCK != 0
    if late_intercept:
        basis = _late_intercept_basis(dims[1])
    _assert_matches_oracle_bit_for_bit(solver, (problem, batch, basis),
                                       monkeypatch)


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


@pytest.mark.parametrize("lambda0", [0.0, 0.8])
@pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
def test_martingale_residuals_match_the_per_time_oracle(dims, lambda0):
    """One fit per block of grid times on the solve's own factors against
    a fit per time on a factor of its own; 13 steps leave a partial
    block, and lambda0 > 0 runs the factoring through the shift
    reduction."""
    problem, batch, basis = _oracle_case(picard_in_x, dims, lambda0=lambda0,
                                         n_steps=13)
    sol = picard_in_x(problem, batch, basis=basis)
    got = martingale_residuals(sol, problem, batch)
    want = oracles.martingale_residuals(sol, problem, batch)
    assert got.shape == want.shape == (13,)
    assert np.all(want > 0.0)
    assert np.all(np.abs(got - want) <= 1e-13 * want), \
        np.max(np.abs(got - want) / want)


@pytest.mark.parametrize("lambda0", [0.0, 0.8])
@pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
def test_martingale_residuals_equal_the_replayed_compensated_increment(
        dims, lambda0):
    """The compensated increment X(t_{k+1}) - E[X(t_{k+1}) | t_k-state]
    - Z(t_k) dW_k, its conditional expectation refitted here per grid time
    by ``lstsq``, projects as Z(t_k) dW_k alone: least-squares
    orthogonality removes the fit part, also after the lambda0 unscaling.
    Agreement to 1e-12 of each entry's size."""
    problem, batch, basis = _oracle_case(picard_in_x, dims, lambda0=lambda0,
                                         n_steps=13)
    sol = picard_in_x(problem, batch, basis=basis)
    got = martingale_residuals(sol, problem, batch)
    want = np.empty(sol.n_steps)
    for k in range(sol.n_steps):
        design = sol.basis.design(batch.paths[:, k])

        def project(targets):
            coeffs, *_ = np.linalg.lstsq(design, targets, rcond=None)
            return design @ coeffs

        x_next = sol.x_paths[:, k + 1]
        replay = x_next - project(x_next) - np.einsum(
            "rdm,rm->rd", sol.z_paths[:, k], batch.increments[:, k])
        want[k] = np.sqrt(np.mean(np.sum(project(replay) ** 2, axis=1)))
    assert np.all(want > 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * want), \
        np.max(np.abs(got - want) / want)


def test_martingale_residuals_need_the_solves_batch():
    """A batch on another grid (the solve's batch refined) or with fewer
    replicas is refused; a batch of another seed on the same grid is not
    detectable."""
    problem = _problem(_linear_drift(-1.0), zero_driver(), _wiener_terminal)
    batch = _batch(31, 1.0, 16, 300)
    sol = solve_bsde_autonomous_C(problem, batch)
    with pytest.raises(ConfigError, match="300 replicas over 32 steps"):
        martingale_residuals(sol, problem, refine_path(batch))
    with pytest.raises(ConfigError, match="200 replicas over 16 steps"):
        martingale_residuals(sol, problem, _batch(31, 1.0, 16, 200))
    assert martingale_residuals(sol, problem, _batch(32, 1.0, 16, 300)).shape \
        == (16,)


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
    problem = _problem(_linear_drift(-1.0), _modulus_x_driver(),
                       _wiener_terminal)
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


def _row_norms(v):
    return np.linalg.norm(v, axis=-1)


def test_linear_skew_drift_closed_form_matches_newton_on_a_stack():
    x = np.random.default_rng(11).standard_normal((40, 2))
    counts = NewtonCounts(40)
    got = resolvent(MonotoneMap.linear(_SKEW), 0.0, 0.2, x, counts=counts)
    want = resolvent(_skew_drift(), 0.0, 0.2, x)
    assert np.all(_row_norms(got - want) <= 1e-14 * _row_norms(want))
    assert not counts.iterations.any()


@pytest.mark.parametrize("slope, diagonal", [(0.5, True),
                                             (_SKEW + np.eye(2), False)])
def test_reduce_lambda0_keeps_a_linear_drift_linear(slope, diagonal):
    """With lambda0 = 1.5 the reduced slope is slope - 0.75 (times I), and
    its closed-form solve matches Newton on the reduced Newton drift."""
    lam, dim = 1.5, 1 if diagonal else 2
    drift = MonotoneMap.linear(slope, diagonal=diagonal, name="linear")

    def reduce(drift):
        return reduce_lambda0(BsdeProblem(
            drift=drift, driver=zero_driver(), terminal=_wiener_terminal,
            t_final=1.0, n_modes=1, dim=dim, lambda0=lam))[0].drift

    reduced, newton = reduce(drift), reduce(replace(drift, slope=None))
    assert newton.slope is None and reduced.diagonal == diagonal
    assert reduced.name == "linear (shift-reduced)"
    assert np.array_equal(reduced.slope,
                          slope - 0.75 * (1.0 if diagonal else np.eye(2)))
    x = np.random.default_rng(12).standard_normal((30, 2))
    assert np.allclose(reduced.eval(0.4, x), newton.eval(0.4, x),
                       rtol=1e-14, atol=1e-14)
    got = resolvent(reduced, 0.4, 0.3, x)
    want = resolvent(newton, 0.4, 0.3, x)
    size = np.abs if diagonal else _row_norms
    assert np.all(size(got - want) <= 1e-14 * size(want))


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
    row's own right-hand side (the conditional fit of X(t_{k+1}), refitted
    here by ``lstsq``, plus dt times the reduced constant driver
    gamma(t_k) * 0.3) within the two solves' tolerances.
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
    batch = _batch(41, 1.0, 8, 300, n_modes=2)
    sol = solve_bsde_autonomous_C(problem, batch, resolvent_tol=tol)
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
        design = sol.basis.design(batch.paths[:, k])
        x_next = sol.x_paths[:, k + 1] * g[k + 1]
        coeffs, *_ = np.linalg.lstsq(design, x_next, rcond=None)
        rhs = design @ coeffs + dt * 0.3 * g[k]
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


@pytest.mark.parametrize("lambda0", [0.0, 0.8])
def test_apriori_budget_leaves_a_linear_drift_unevaluated(lambda0):
    """A drift that declares its slope has A(t, 0) = 0: the budget makes
    no drift call, the shift-reduced map's included, and reports what the
    513 calls of the same map without its declaration report."""
    calls = []
    linear = MonotoneMap.linear(-1.0, diagonal=True)
    counted = replace(linear, eval=lambda t, x: calls.append(t)
                      or linear.eval(t, x))
    driver = BsdeDriver(eval=lambda t, x, z: np.zeros_like(x), c2=0.0,
                        zeta=lambda t: 0.5 * (1.0 + t), x_dependent=False,
                        z_dependent=False, name="zero with zeta")
    problem = _problem(counted, driver, _wiener_terminal, lambda0=lambda0)
    sol = solve_bsde_autonomous_C(problem, _batch(4, 1.0, 8, 50))
    for declared in (problem, reduce_lambda0(problem)[0]):
        calls.clear()
        report = apriori_bound_check(sol, declared)
        assert calls == []
        undeclared = replace(declared,
                             drift=replace(declared.drift, slope=None))
        assert apriori_bound_check(sol, undeclared) == report
        assert len(calls) == 513


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
