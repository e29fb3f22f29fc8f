"""Resolvent / Yosida solver tests.

The cubic resolvent is checked against a plain interval-bisection oracle
implemented here, independent of the package's Newton machinery.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosee.errors import ConfigError, NonconvergenceError
from monosee.forward import SolverConfig, step_implicit
from monosee.reporting import SampleStream
from monosee.resolvent import (MonotoneMap, NewtonCounts, check_dissipativity,
                               check_yosida_properties, resolvent)

import oracles
from oracles import assert_same_report


def linear_map():
    return MonotoneMap(eval=lambda t, x: -x,
                       jacobian=lambda t, x: -np.ones_like(x),
                       diagonal=True, name="minus identity")


def cubic_map(analytic=True):
    jac = (lambda t, x: -3.0 * x ** 2) if analytic else None
    return MonotoneMap(eval=lambda t, x: -x ** 3, jacobian=jac,
                       diagonal=True, name="minus cube")


def _bisect(g, lo, hi, iters=200):
    # oracle: g increasing, g(lo) <= 0 <= g(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_linear_resolvent_halves():
    x = np.array([1.0, -2.0, 0.5])
    y = resolvent(linear_map(), 0.0, 1.0, x)
    assert np.allclose(y, x / 2.0, rtol=0, atol=1e-12)
    # same map through the general (non-diagonal) solver
    gen = MonotoneMap(eval=lambda t, x: -x,
                      jacobian=lambda t, x: -np.eye(x.size), name="minus eye")
    assert np.allclose(resolvent(gen, 0.0, 1.0, x), x / 2.0, rtol=0, atol=1e-12)


def test_zero_map_is_identity():
    F = MonotoneMap(eval=lambda t, x: np.zeros_like(x), diagonal=True, name="zero")
    x = np.array([3.0, -1.0])
    assert np.array_equal(resolvent(F, 0.0, 0.7, x), x)


def test_cubic_resolvent_vs_bisection_oracle():
    # y + 0.5*y**3 = 3; root is in (0, 3)
    root = _bisect(lambda y: y + 0.5 * y ** 3 - 3.0, 0.0, 3.0)
    for analytic in (True, False):
        y = resolvent(cubic_map(analytic), 0.0, 0.5, np.array(3.0))
        assert abs(float(y) - root) < 1e-10


def test_resolvent_rejects_bad_eps():
    with pytest.raises(ConfigError):
        resolvent(linear_map(), 0.0, 0.0, np.array([1.0]))
    with pytest.raises(ConfigError):
        resolvent(linear_map(), 0.0, -0.5, np.array([1.0]))


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("diagonal", [True, False])
def test_resolvent_rejects_eps_outside_open_half_line(eps, diagonal):
    """A NaN or infinite eps is a configuration error, not a map that
    fails to be dissipative or a warning from inside the solve."""
    F = cubic_map() if diagonal else full_dissipative_map(1, 2, 0.3)
    with pytest.raises(ConfigError, match="0 < eps < inf"):
        resolvent(F, 0.0, eps, np.ones(2))


def test_yosida_linear():
    x = np.array([2.0, -4.0])
    a = oracles.yosida(linear_map(), 0.0, 1.0, x)
    assert np.allclose(a, -x / 2.0, rtol=0, atol=1e-12)


def test_yosida_identity_pair_cubic():
    F = cubic_map()
    x = np.array([1.5, -0.3, 2.0])
    eps = 0.25
    j = resolvent(F, 0.0, eps, x, tol=1e-13)
    a = oracles.yosida(F, 0.0, eps, x, tol=1e-13)
    assert np.allclose(a, (j - x) / eps, rtol=0, atol=1e-12)
    assert np.allclose(a, -j ** 3, rtol=0, atol=1e-9)


def test_domination_direct_samples():
    # |A_eps(x)| <= |F(x)| spot-checked directly, outside the checker
    F = cubic_map()
    rng = np.random.default_rng(11)
    for _ in range(100):
        eps = float(10.0 ** rng.uniform(-3, 0))
        x = rng.uniform(-3, 3, size=4)
        a = oracles.yosida(F, 0.0, eps, x, tol=1e-13)
        assert np.linalg.norm(a) <= np.linalg.norm(x ** 3) * (1 + 1e-10) + 1e-10


def test_yosida_convergence_sweep():
    F = cubic_map()
    x = np.array(1.0)
    gaps = []
    for eps in np.logspace(-1, -6, 11):
        a = oracles.yosida(F, 0.0, float(eps), x, tol=1e-14)
        gaps.append(abs(float(a) + 1.0))  # F(1) = -1
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4


def test_resolvent_firmly_nonexpansive_sampled():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((4, 4))
    M = S @ S.T + 0.5 * np.eye(4)  # SPD, so -M is dissipative
    F = MonotoneMap(eval=lambda t, x: -(M @ x), jacobian=lambda t, x: -M,
                    name="minus SPD")
    for _ in range(200):
        eps = float(10.0 ** rng.uniform(-3, 0.5))
        x = rng.uniform(-5, 5, size=4)
        y = rng.uniform(-5, 5, size=4)
        jx = resolvent(F, 0.0, eps, x, tol=1e-13)
        jy = resolvent(F, 0.0, eps, y, tol=1e-13)
        assert np.linalg.norm(jx - jy) <= np.linalg.norm(x - y) + 1e-10


def test_resolvent_displacement_shrinks_with_eps():
    F = cubic_map()
    x = np.array(2.0)
    disp = []
    for eps in np.logspace(0, -6, 13):
        j = resolvent(F, 0.0, float(eps), x, tol=1e-14)
        disp.append(abs(float(j) - 2.0))
    assert all(b <= a + 1e-12 for a, b in zip(disp, disp[1:]))


def test_diagonal_solver_vectorizes():
    """A diagonal map is a stack of width-1 rows: every element follows
    the iterates it would follow alone, so the stacked answer and the Newton
    work per element are exactly those of the element's own solve, and
    ``counts`` shaped like x accumulates over solves."""
    F = cubic_map()
    rng = np.random.default_rng(9)
    x = rng.uniform(-2, 2, size=(3, 5))
    counts = NewtonCounts(x.shape)
    batch = resolvent(F, 0.0, 0.3, x, tol=1e-13, counts=counts)
    assert batch.shape == x.shape
    assert counts.iterations.min() > 0
    for index, v in np.ndenumerate(x):
        alone = NewtonCounts()
        assert np.array_equal(batch[index], resolvent(F, 0.0, 0.3, v,
                                                      tol=1e-13, counts=alone))
        assert counts.iterations[index] == alone.iterations
        assert counts.halvings[index] == alone.halvings
    first = counts.iterations.copy()
    resolvent(F, 0.0, 0.3, x, tol=1e-13, counts=counts)
    assert np.array_equal(counts.iterations, 2 * first)


def test_diagonal_guess_gives_the_same_root_within_tol():
    F = cubic_map()
    x = np.array([[3.0, -0.5], [0.25, -6.0]])
    plain = resolvent(F, 0.0, 0.5, x, tol=1e-13)
    warm = resolvent(F, 0.0, 0.5, x, tol=1e-13, guess=-2.0 * x + 1.0)
    assert np.allclose(warm, plain, rtol=0, atol=1e-12)
    near = NewtonCounts(x.shape)
    resolvent(F, 0.0, 0.5, x, tol=1e-13, guess=plain, counts=near)
    assert not near.iterations.any()


def test_diagonal_failure_names_the_element():
    F = cubic_map()
    x = np.array([[0.0, 0.0, 0.0], [0.0, 5.0, -5.0]])
    with pytest.raises(NonconvergenceError, match=r"^replica \(1, 1\): ") \
            as err:
        resolvent(F, 0.0, 0.5, x, tol=1e-14, max_iter=1)
    assert err.value.replica == (1, 1)
    with pytest.raises(NonconvergenceError) as alone:
        resolvent(F, 0.0, 0.5, x[1, 1], tol=1e-14, max_iter=1)
    assert alone.value.replica is None
    assert err.value.residuals == alone.value.residuals


def test_a_stall_fails_before_running_out_of_iterations():
    # row 1 starts on the maximum of y - y**3/3, where the Newton matrix
    # vanishes and no step length descends: it stalls at iteration 0.  Row
    # 0 needs more than 2 iterations.  The error is row 1's, as when the
    # stall stopped the whole solve; every failed row is listed
    F = _plus_cube_map()
    x, eps = np.array([0.5, 1.0]), np.array([0.5, 1.0 / 3.0])
    counts = NewtonCounts(2)
    with pytest.raises(NonconvergenceError) as err:
        resolvent(F, 0.0, eps, x, tol=1e-14, max_iter=2, counts=counts)
    assert str(err.value) == ("replica 1: resolvent of plus cube: damped "
                              "Newton stalled at residual 3.333e-01; is the "
                              "map actually dissipative?")
    assert err.value.replica == 1
    assert not counts.iterations.any() and not counts.halvings.any()
    assert [f.replica for f in err.value.failures] == [1, 0]
    for failure in err.value.failures:
        with pytest.raises(NonconvergenceError) as alone:
            resolvent(F, 0.0, float(eps[failure.replica]),
                      x[failure.replica], tol=1e-14, max_iter=2)
        assert str(failure) == f"replica {failure.replica}: {alone.value}"
        assert failure.residuals == alone.value.residuals
    assert err.value.failures[0] is err.value


def sampler4(rng):
    return rng.uniform(-3, 3, size=4)


def test_checker_passes_linear_and_cubic():
    for F in (linear_map(), cubic_map()):
        report = check_yosida_properties(F, sampler4, n_samples=200, seed=5)
        assert report.ok, report.summary()


def test_checker_domination_thousand_samples():
    report = check_yosida_properties(cubic_map(), sampler4, n_samples=1000, seed=17)
    assert report.ok, report.summary()


def test_checker_flags_sine_monotonicity():
    F = MonotoneMap(eval=lambda t, x: np.sin(x), diagonal=True, name="sine")
    report = check_yosida_properties(F, sampler4, n_samples=200, seed=5)
    assert not report.ok
    labels = {v.detail.get("property") for v in report.violations}
    assert "I monotonicity" in labels


def test_dissipativity_checker():
    ok = check_dissipativity(cubic_map(), sampler4, n_samples=300, seed=2)
    assert ok.ok
    bad = MonotoneMap(eval=lambda t, x: x, diagonal=True, name="identity")
    flagged = check_dissipativity(bad, sampler4, n_samples=300, seed=2)
    assert not flagged.ok


def _sine_map():
    return MonotoneMap(eval=lambda t, x: np.sin(x), diagonal=True, name="sine")


def _identity_map():
    return MonotoneMap(eval=lambda t, x: x, diagonal=True, name="identity")


def _plus_cube_map():
    return MonotoneMap(eval=lambda t, x: x ** 3,
                       jacobian=lambda t, x: 3.0 * x ** 2, diagonal=True,
                       name="plus cube")


def _general_cubic_map():
    # the cubic map as a general (row-by-row, full Jacobian) map
    return MonotoneMap(eval=lambda t, x: -x ** 3,
                       jacobian=lambda t, x: -3.0 * x[..., None] ** 2
                       * np.eye(x.shape[-1]), name="general minus cube")


def _closed_form_map():
    return MonotoneMap.linear(-1.0, diagonal=True, name="closed-form minus x")


def _closed_form_general_map():
    return MonotoneMap.linear(_dissipative_matrix(8, 4), name="closed-form A")


YOSIDA_CASES = [
    (linear_map, 200, 5, 1e-8), (cubic_map, 200, 5, 1e-8),
    (cubic_map, 1000, 17, 1e-8), (_sine_map, 200, 5, 1e-8),
    (linear_map, 1000, 17, 1e-10), (cubic_map, 1000, 17, 1e-10),
    (_sine_map, 1000, 17, 1e-10), (_identity_map, 200, 5, 1e-8),
    (_general_cubic_map, 200, 5, 1e-8), (_closed_form_map, 200, 5, 1e-8),
    (_closed_form_general_map, 200, 5, 1e-8)]


@pytest.mark.parametrize("make_map, n_samples, seed, tol", YOSIDA_CASES)
def test_stacked_yosida_check_matches_the_per_sample_loop(make_map, n_samples,
                                                          seed, tol):
    F = make_map()
    assert_same_report(
        check_yosida_properties(F, sampler4, n_samples=n_samples, seed=seed,
                                tol=tol),
        oracles.yosida_properties(F, sampler4, n_samples=n_samples,
                                  seed=seed, tol=tol))


@pytest.mark.parametrize("make_map", [cubic_map, _identity_map, _sine_map,
                                      _general_cubic_map])
@pytest.mark.parametrize("seed", [2, 3])
def test_stacked_dissipativity_check_matches_the_per_sample_loop(make_map,
                                                                 seed):
    F = make_map()
    stacked = check_dissipativity(F, sampler4, n_samples=300, seed=seed)
    oracle = oracles.dissipativity(F, sampler4, n_samples=300, seed=seed)
    assert_same_report(stacked, oracle)
    for got, want in zip(stacked.violations, oracle.violations):
        assert np.array_equal(got.detail["x"], want.detail["x"])
        assert np.array_equal(got.detail["y"], want.detail["y"])


def test_yosida_check_records_unconverged_solves_like_the_loop():
    # y - eps*y**3 = x stalls for many (eps, x): those samples are flagged
    # "resolvent solve" with the one-sample solve's own error, and a
    # stalled sweep point enters property IV's gaps as inf
    F = _plus_cube_map()
    stacked = check_yosida_properties(F, sampler4, n_samples=200, seed=5)
    oracle = oracles.yosida_properties(F, sampler4, n_samples=200, seed=5)
    assert_same_report(stacked, oracle)

    def unsolved(report):
        return [v.index for v in report.violations
                if v.detail["property"] == "resolvent solve"]

    assert unsolved(stacked) == unsolved(oracle)
    assert len(unsolved(stacked)) == 96
    for got, want in zip(stacked.violations, oracle.violations):
        if want.detail["property"] == "resolvent solve":
            assert got.excess == np.inf
            assert got.detail["error"] == want.detail["error"]
    sweeps = [v for v in stacked.violations
              if v.detail["property"] == "IV convergence"]
    assert any(np.isinf(v.detail["gaps"]).any() for v in sweeps)


def test_yosida_check_with_its_tail_ignores_a_shared_stream():
    # the check's draw is its own (eps, x, y) triple, so it draws a fresh
    # stream even from a SampleStream drawn ahead, and its convergence
    # sweep reads the generator where the per-sample loop leaves it
    F = _plus_cube_map()
    stream = SampleStream(sampler4)
    stream.prefix(5, 1000)
    shared = check_yosida_properties(F, stream, n_samples=200, seed=5)
    assert_same_report(shared, check_yosida_properties(F, sampler4,
                                                       n_samples=200, seed=5),
                       rel=0.0)
    assert_same_report(shared, oracles.yosida_properties(F, sampler4,
                                                         n_samples=200,
                                                         seed=5))
    sweeps = [v for v in shared.violations
              if v.detail["property"] == "IV convergence"]
    assert [v.index for v in sweeps] and all(v.index >= 200 for v in sweeps)


def _general_plus_cube_map():
    return MonotoneMap(eval=lambda t, x: x ** 3,
                       jacobian=lambda t, x: 3.0 * x[..., None] ** 2
                       * np.eye(x.shape[-1]), name="general plus cube")


@pytest.mark.parametrize("make_map, prefix, n_unsolved", [
    (_plus_cube_map, r"replica [0-3]: ", 96),
    (_general_plus_cube_map, "", 86)])
def test_unsolved_samples_carry_the_one_sample_error_text(make_map, prefix,
                                                          n_unsolved):
    # a diagonal map solves a sample as 4 rows, and its one-sample error
    # names the element; a general map's sample is one row, named by none
    F = make_map()
    stacked = check_yosida_properties(F, sampler4, n_samples=200, seed=5)
    oracle = oracles.yosida_properties(F, sampler4, n_samples=200, seed=5)
    assert_same_report(stacked, oracle)

    def unsolved(report):
        return [(v.index, v.detail["error"]) for v in report.violations
                if v.detail["property"] == "resolvent solve"]

    assert unsolved(stacked) == unsolved(oracle)
    assert len(unsolved(stacked)) == n_unsolved
    assert all(re.match(f"{prefix}resolvent of {F.name}", error)
               for _, error in unsolved(stacked))


def test_resolvent_takes_one_eps_per_row():
    x = np.array([[1.0, -2.0], [0.5, 3.0], [2.0, 0.0]])
    eps = np.array([0.1, 0.5, 2.0])
    for F in (cubic_map(), _general_cubic_map()):
        stacked = resolvent(F, 0.0, eps[:, None], x, tol=1e-13)
        for row, e, y in zip(x, eps, stacked):
            assert np.array_equal(y, resolvent(F, 0.0, float(e), row,
                                               tol=1e-13))
    # a diagonal map may take one eps per element
    per_element = resolvent(cubic_map(), 0.0, np.full(x.shape, 0.5), x)
    assert np.array_equal(per_element, resolvent(cubic_map(), 0.0, 0.5, x))


@pytest.mark.parametrize("eps", [np.array([0.1, np.nan]),
                                 np.array([0.1, 0.0]),
                                 np.array([[0.1, 0.2], [0.3, 0.4]]),
                                 np.array([0.1, 0.2, 0.3])])
def test_resolvent_rejects_bad_eps_arrays(eps):
    x = np.ones((2, 2))
    with pytest.raises(ConfigError, match="eps"):
        resolvent(_general_cubic_map(), 0.0, eps, x)


def test_antimonotone_map_raises_nonconvergence():
    # y - 1*y = x has no solution for x != 0
    bad = MonotoneMap(eval=lambda t, x: x, jacobian=lambda t, x: np.ones_like(x),
                      diagonal=True, name="identity")
    with pytest.raises(NonconvergenceError) as exc:
        resolvent(bad, 0.0, 1.0, np.array(1.0))
    assert exc.value.residuals


# ---------------------------------------------------------------------------
# general (full-Jacobian) resolvent: properties over random dissipative maps


def full_dissipative_map(seed: int, n: int, cubic: float,
                         analytic: bool = True) -> MonotoneMap:
    """F(x) = -S x - K x - cubic * Q^T (Q x)^3 with S positive semidefinite,
    K skew and Q square: <x - y, F(x) - F(y)> <= 0 for all x, y.  Acts row
    by row on stacks (..., n)."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    S = B @ B.T / n
    C = rng.standard_normal((n, n))
    K = C - C.T
    Q = rng.standard_normal((n, n)) / np.sqrt(n)
    lin = S + K

    def eval_(t, x):
        return -(x @ lin.T) - cubic * ((x @ Q.T) ** 3 @ Q)

    def jac(t, x):
        d = 3.0 * cubic * (x @ Q.T) ** 2
        return -lin - (Q.T * d[..., None, :]) @ Q

    return MonotoneMap(eval=eval_, jacobian=jac if analytic else None,
                       name="random full map")


TOL = 1e-11


@settings(max_examples=60, deadline=None, derandomize=True)
@given(map_seed=st.integers(0, 2 ** 16), n=st.integers(1, 6),
       cubic=st.sampled_from([0.0, 0.3, 2.0]), analytic=st.booleans(),
       seed=st.integers(0, 2 ** 16), log_eps=st.floats(-3.0, 0.5),
       log_scale=st.floats(-2.0, 1.0))
def test_general_resolvent_properties(map_seed, n, cubic, analytic, seed,
                                      log_eps, log_scale):
    F = full_dissipative_map(map_seed, n, cubic, analytic)
    eps = 10.0 ** log_eps
    rows = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(
        (4, n))
    x, y = rows[0], rows[1]
    jx = resolvent(F, 0.0, eps, x, tol=TOL)
    jy = resolvent(F, 0.0, eps, y, tol=TOL)
    # residual within the documented target
    res = np.linalg.norm(jx - eps * F.eval(0.0, jx) - x)
    assert res <= TOL * (1.0 + np.linalg.norm(x))
    # nonexpansive, up to the two solves' residuals
    slack = 2.0 * TOL * (1.0 + np.linalg.norm(x) + np.linalg.norm(y))
    assert np.linalg.norm(jx - jy) <= np.linalg.norm(x - y) + slack
    # Yosida identity: (J - x)/eps = F(J)
    a = oracles.yosida(F, 0.0, eps, x, tol=TOL)
    assert np.linalg.norm(a - F.eval(0.0, jx)) \
        <= 10.0 * TOL * (1.0 + np.linalg.norm(x)) / eps
    # a stacked call equals looping over its rows: both solve each row to
    # its target, and J is 1-Lipschitz in the residual
    stacked = resolvent(F, 0.0, eps, rows, tol=TOL)
    assert stacked.shape == rows.shape
    for r, row in enumerate(rows):
        alone = resolvent(F, 0.0, eps, row, tol=TOL)
        assert np.linalg.norm(stacked[r] - alone) \
            <= 2.0 * TOL * (1.0 + np.linalg.norm(row))


def test_general_resolvent_stack_failure_names_the_replica():
    F = full_dissipative_map(seed=4, n=3, cubic=2.0)
    rows = np.array([[0.0, 0.0, 0.0], [3.0, -2.0, 1.0], [4.0, 1.0, -3.0]])
    with pytest.raises(NonconvergenceError, match="^replica 1: ") as err:
        resolvent(F, 0.0, 0.5, rows, tol=1e-14, max_iter=1)
    assert err.value.replica == 1
    with pytest.raises(NonconvergenceError) as alone:
        resolvent(F, 0.0, 0.5, rows[1], tol=1e-14, max_iter=1)
    assert alone.value.replica is None
    assert np.allclose(err.value.residuals, alone.value.residuals,
                       rtol=1e-12, atol=0)
    counts = NewtonCounts(3)
    resolvent(F, 0.0, 0.5, rows, tol=1e-12, counts=counts)
    assert counts.iterations[0] == 0 and np.all(counts.iterations[1:] > 0)


# ---------------------------------------------------------------------------
# diagonal resolvent: properties over random dissipative componentwise maps


def diagonal_dissipative_map(a, b, c, analytic: bool = True) -> MonotoneMap:
    """F(x) = -a x - b x^3 - c tanh(x) componentwise, a, b, c >= 0: every
    component is nonincreasing, so F is dissipative."""
    def eval_(t, x):
        return -a * x - b * x ** 3 - c * np.tanh(x)

    def jac(t, x):
        return -a - 3.0 * b * x ** 2 - c * (1.0 - np.tanh(x) ** 2)

    return MonotoneMap(eval=eval_, jacobian=jac if analytic else None,
                       diagonal=True, name="random diagonal map")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), analytic=st.booleans(),
       seed=st.integers(0, 2 ** 16), log_eps=st.floats(-3.0, 0.5),
       log_scale=st.floats(-2.0, 1.0))
def test_diagonal_resolvent_properties(n, analytic, seed, log_eps,
                                       log_scale):
    rng = np.random.default_rng(seed)
    # each coefficient is zero about a third of the time
    a, b, c = (rng.uniform(0.0, 3.0, n) * (rng.uniform(size=n) > 0.3)
               for _ in range(3))
    F = diagonal_dissipative_map(a, b, c, analytic)
    eps = 10.0 ** log_eps
    x, y = 10.0 ** log_scale * rng.standard_normal((2, n))
    jx = resolvent(F, 0.0, eps, x, tol=TOL)
    jy = resolvent(F, 0.0, eps, y, tol=TOL)
    # componentwise residual within the documented target
    rx = jx - eps * F.eval(0.0, jx) - x
    ry = jy - eps * F.eval(0.0, jy) - y
    assert np.all(np.abs(rx) <= TOL * (1.0 + np.abs(x)))
    assert np.all(np.abs(ry) <= TOL * (1.0 + np.abs(y)))
    # componentwise nonexpansive: y - eps*F(y) has slope >= 1, so the two
    # solves' residuals are the only slack
    assert np.all(np.abs(jx - jy) <= np.abs(x - y) + np.abs(rx) + np.abs(ry))
    # Yosida identity: (J - x)/eps = F(J)
    ax = oracles.yosida(F, 0.0, eps, x, tol=TOL)
    assert np.max(np.abs(ax - F.eval(0.0, jx))) \
        <= 10.0 * TOL * (1.0 + np.max(np.abs(x))) / eps


@pytest.mark.parametrize("kwargs, fragment", [
    ({"tol": 0.0}, "tol > 0"),
    ({"tol": -1e-8}, "tol > 0"),
    ({"max_iter": 0}, "max_iter >= 1"),
])
@pytest.mark.parametrize("diagonal", [True, False])
def test_resolvent_rejects_unusable_tolerances(kwargs, fragment, diagonal):
    F = linear_map() if diagonal else full_dissipative_map(1, 2, 0.3)
    with pytest.raises(ConfigError, match=fragment):
        resolvent(F, 0.0, 0.5, np.ones(2), **kwargs)


# ---------------------------------------------------------------------------
# linear maps: the closed-form resolvent against the Newton kernel


def _newton(F):
    """The same map with its slope hidden, so the Newton kernel solves it."""
    return replace(F, slope=None)


def _assert_matches_newton(F, eps, x):
    """Closed form and Newton agree to 1e-14 relative: elementwise for a
    diagonal map, in each row's norm for a general one."""
    got = resolvent(F, 0.3, eps, x)
    want = resolvent(_newton(F), 0.3, eps, x)
    assert got.shape == want.shape == np.shape(x)
    size = np.abs if F.diagonal else lambda v: np.linalg.norm(v, axis=-1)
    assert np.all(size(got - want) <= 1e-14 * size(want))


def _dissipative_matrix(seed, n):
    """A random matrix with negative definite symmetric part."""
    m = np.random.default_rng(seed).standard_normal((n, n))
    return m - m.T - np.eye(n)


def test_linear_diagonal_closed_form_matches_newton():
    x = 10.0 * np.random.default_rng(4).standard_normal((4, 3))
    for slope in (-2.5, 0.0):
        _assert_matches_newton(MonotoneMap.linear(slope, diagonal=True),
                               0.7, x)


def test_linear_closed_form_takes_one_eps_per_row():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 3))
    eps = 10.0 ** rng.uniform(-3, 1, size=(6, 1))
    for F in (MonotoneMap.linear(-1.5, diagonal=True),
              MonotoneMap.linear(_dissipative_matrix(5, 3))):
        _assert_matches_newton(F, eps, x)
        for row, e, y in zip(x, eps[:, 0], resolvent(F, 0.0, eps, x)):
            assert np.allclose(y, resolvent(F, 0.0, float(e), row),
                               rtol=1e-15, atol=0)


def test_linear_general_closed_form_matches_newton_on_a_stack():
    F = MonotoneMap.linear(_dissipative_matrix(6, 4), name="random linear")
    x = np.random.default_rng(6).standard_normal((7, 4))
    _assert_matches_newton(F, 0.4, x)
    # a single vector is the one-row stack
    assert np.array_equal(resolvent(F, 0.0, 0.4, x[0]),
                          resolvent(F, 0.0, 0.4, x[:1])[0])


def test_linear_map_evaluates_its_slope():
    a = _dissipative_matrix(7, 3)
    F = MonotoneMap.linear(a)
    x = np.random.default_rng(7).standard_normal((5, 3))
    assert np.allclose(F.eval(0.0, x), (a @ x.T).T, rtol=1e-15, atol=1e-15)
    assert F.jacobian(0.0, x).shape == (5, 3, 3)
    assert np.array_equal(F.jacobian(0.0, x[0]), a)
    D = MonotoneMap.linear(-2.0, diagonal=True)
    assert np.array_equal(D.eval(0.0, x), -2.0 * x)
    assert np.array_equal(D.jacobian(0.0, x), np.full(x.shape, -2.0))


def test_linear_closed_form_counts_no_newton_work():
    x = np.array([1.0, -2.0, 0.5])
    counts = NewtonCounts(x.shape)
    resolvent(MonotoneMap.linear(-1.0, diagonal=True), 0.0, 0.5, x,
              counts=counts)
    assert not counts.iterations.any() and not counts.halvings.any()
    resolvent(cubic_map(), 0.0, 0.5, x, counts=counts)
    assert np.all(counts.iterations > 0)


@pytest.mark.parametrize("diagonal", [True, False],
                         ids=["diagonal", "matrix"])
def test_linear_closed_form_leaves_the_map_unevaluated(diagonal):
    """``resolvent`` throws F(t, y) away, so a linear map's closed form
    makes no ``eval`` call through it; the forward step, which returns
    b(t + dt, y), evaluates it once at the solved stack."""
    base = MonotoneMap.linear(-1.5 if diagonal else _dissipative_matrix(8, 3),
                              diagonal=diagonal)
    calls = []

    def counted(t, x):
        calls.append(t)
        return base.eval(t, x)

    F = replace(base, eval=counted)
    x = np.random.default_rng(8).standard_normal((5, 3))
    y = resolvent(F, 0.0, 0.5, x)
    assert calls == []
    cfg = SolverConfig(n_modes_galerkin=3)
    step = step_implicit(x, 0.25, 0.5, np.zeros((5, 1)), F,
                         lambda t, v: np.zeros(v.shape + (1,)), cfg)
    assert calls == [0.75]
    assert np.array_equal(step.y, y)
    assert np.array_equal(step.b_y, base.eval(0.75, y))


def test_singular_linear_resolvent_falls_back_to_newton_failure():
    # 1 - eps*slope = 0: no closed form, and Newton reports the failure
    with pytest.raises(NonconvergenceError, match="damped Newton stalled"):
        resolvent(MonotoneMap.linear(2.0, diagonal=True), 0.0, 0.5,
                  np.array([1.0, 2.0]))
    with pytest.raises(NonconvergenceError, match="damped Newton stalled"):
        resolvent(MonotoneMap.linear(2.0 * np.eye(2)), 0.0, 0.5,
                  np.array([1.0, 2.0]))


@pytest.mark.parametrize("kwargs, fragment", [
    ({"eps": 0.0}, "0 < eps < inf"),
    ({"eps": -0.5}, "0 < eps < inf"),
    ({"eps": np.inf}, "0 < eps < inf"),
    ({"eps": np.array([[0.5], [0.0]])}, "0 < eps < inf"),
    ({"tol": 0.0}, "tol > 0"),
    ({"tol": -1e-8}, "tol > 0"),
    ({"max_iter": 0}, "max_iter >= 1"),
])
@pytest.mark.parametrize("diagonal", [True, False])
def test_linear_resolvent_keeps_the_argument_checks(kwargs, fragment,
                                                    diagonal):
    F = MonotoneMap.linear(-1.0 if diagonal else -np.eye(2),
                           diagonal=diagonal)
    kwargs = {"eps": 0.5, **kwargs}
    with pytest.raises(ConfigError, match=fragment):
        resolvent(F, 0.0, x=np.ones((2, 2)), **kwargs)
