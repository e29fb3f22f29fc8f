"""Memory-dependent solves: segment algebra, frozen-forcing iteration,
two-time kernel reduction, and the contraction diagnostics."""

import math

import numpy as np
import pytest

import monosee.functional

from monosee.analysis import linear_modulus
from monosee.errors import ConfigError, NonconvergenceError
from monosee.forward import SolverConfig, solve_forward, trajectory_csv
from monosee.functional import (
    ContractionReport, FunctionalCoefficients, Segment, SegmentPath,
    VolterraCoefficients, _rate, bihari_domination_report,
    check_functional_growth,
    check_functional_lipschitz, check_volterra_partials,
    functional_trajectory_csv, lambda8_profile,
    _frozen_terms, picard_solve_functional,
    picard_solve_functional_stack, segment_distance,
    segment_sampler, volterra_consistency, volterra_direct_eval,
    volterra_to_functional)
from monosee.noise import refine_path, sample_batch, sample_path, zero_path
from monosee.operators import (ConstantDiffusion, HypothesisBundle,
                               ReactionDiffusionDrift, constant_profile)
from monosee.triple import DiscreteTriple

import oracles
from oracles import assert_same_report


def _rd_triple():
    return DiscreteTriple(n_grid=2, flavor="reaction_diffusion")


def _laplacian_drift(tr):
    return ReactionDiffusionDrift(
        tr, a=lambda t, ctx, r: r, b=lambda t, ctx, u: 0.0 * u,
        a_prime=lambda t, ctx, r: np.ones_like(r),
        b_prime=lambda t, ctx, u: 0.0 * u)


def _ramp_history(memory, n_knots, base):
    knots = np.linspace(-memory, 0.0, n_knots)
    knots[-1] = 0.0
    values = np.stack([(1.0 + th) * np.asarray(base, dtype=float)
                       for th in knots])
    return knots, values


def _linear_path(tr=None):
    """Trajectory rows growing linearly in t, with a matching ramp history."""
    knots = np.array([-0.5, -0.25, 0.0])
    hist = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 0.5]])
    times = np.array([0.0, 0.25, 0.5])
    values = np.array([[1.0, 0.5], [2.0, 1.0], [3.0, 1.5]])
    return SegmentPath(Segment(theta=knots, values=hist), times, values, tr)


# ---------------------------------------------------------------------------
# segment algebra


def _ramp_past():
    return Segment(theta=np.array([-0.5, 0.0]),
                   values=np.array([[0.0], [1.0]]))


def test_segment_path_rejects_seam_mismatch():
    with pytest.raises(ConfigError, match="seam"):
        SegmentPath(_ramp_past(), np.array([0.0, 0.5]),
                    np.array([[1.0 + 1e-15], [2.0]]))


def test_segment_path_grid_validation():
    # a past must end at time 0: the Segment type itself refuses it
    with pytest.raises(ConfigError, match="must end at 0"):
        Segment(theta=np.array([-0.5, -0.1]), values=np.array([[0.0], [1.0]]))
    with pytest.raises(ConfigError, match="start at time 0"):
        SegmentPath(_ramp_past(), np.array([0.1, 0.5]),
                    np.array([[1.0], [2.0]]))
    with pytest.raises(ConfigError, match="width"):
        SegmentPath(_ramp_past(), np.array([0.0]), np.array([[1.0, 2.0]]))
    stacked = Segment(theta=np.array([-0.5, 0.0]), values=np.ones((3, 2, 1)))
    with pytest.raises(ConfigError, match="one window, not a stack"):
        SegmentPath(stacked, np.array([0.0, 0.5]), np.array([[1.0], [2.0]]))
    # the memory window is the past's own, so it cannot disagree with it
    path = _linear_path()
    assert path.windows().theta[0] == -path.past.memory == -0.5


def test_at_exact_on_knots_and_linear_between():
    windows = _linear_path().windows()
    assert np.array_equal(windows.at(-0.25),
                          np.array([[0.5, 0.25], [1.0, 0.5], [2.0, 1.0]]))
    assert np.array_equal(windows.at(0.0), windows.end)
    # the stored rows are linear in t, so midpoints are exact half-sums
    assert np.allclose(windows.at(-0.125),
                       0.5 * (windows.values[:, 1] + windows.values[:, 2]),
                       rtol=0, atol=1e-15)


def test_segment_at_time_zero_is_the_initial_history():
    path = _linear_path()
    windows = path.windows()
    assert windows.values.shape == (3, 3, 2)
    assert np.array_equal(windows.theta, path.past.theta)
    assert np.array_equal(windows.values[0], path.past.values)


def test_segment_offset_zero_row_is_the_current_state():
    path = _linear_path()
    windows = path.windows()
    assert windows.theta[-1] == 0.0
    assert np.array_equal(windows.end, path.values)


def test_segment_rejects_out_of_range_times():
    windows = _linear_path().windows()
    with pytest.raises(ConfigError, match="outside the window"):
        windows.at(-0.6)
    with pytest.raises(ConfigError, match="outside the window"):
        windows.at(0.1)


def test_windows_are_views_equal_to_the_searched_segments():
    path = _linear_path()
    windows = path.windows()
    # one strided view: neighbouring windows share their rows
    assert np.shares_memory(windows.values[0], windows.values[1])
    for k, t in enumerate(path.times):
        single = oracles.segment(path, float(t))
        assert np.allclose(single.theta, windows.theta, rtol=0, atol=1e-15)
        assert np.array_equal(single.values, windows.values[k])


def test_windows_reject_a_past_off_the_step_grid():
    # memory 0.375 on a 0.25 step: the window would start between rows
    path = _linear_path()
    past = Segment(theta=np.array([-0.375, 0.0]),
                   values=np.array([[0.625, 0.3125], [1.0, 0.5]]))
    with pytest.raises(ConfigError, match="not the step grid"):
        SegmentPath(past, path.times, path.values).windows()
    # uneven knots over a whole number of steps are off the grid too
    past = Segment(theta=np.array([-0.5, -0.375, 0.0]),
                   values=np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 0.5]]))
    with pytest.raises(ConfigError, match="not the step grid"):
        SegmentPath(past, path.times, path.values).windows()


def test_stacked_reads_match_each_window_read_alone():
    rng = np.random.default_rng(5)
    theta = np.array([-0.25, -0.125, -0.0625, 0.0])
    values = rng.standard_normal((6, 4, 3))
    others = rng.standard_normal((6, 4, 3))
    for norm in (None, lambda rows: 2.0 * np.linalg.norm(rows, axis=-1)):
        stack = Segment(theta, values, norm)
        other = Segment(theta, others, norm)
        dist = segment_distance(stack, other)
        assert stack.width == 3 and stack.memory == 0.25
        for i in range(6):
            one = Segment(theta, values[i], norm)
            assert np.array_equal(stack.end[i], one.end)
            for th in (-0.25, -0.2, -0.0625, -0.01, 0.0):
                assert np.array_equal(stack.at(th)[i], one.at(th))
            assert stack.sup_norm()[i] == pytest.approx(one.sup_norm(),
                                                        rel=1e-15)
            assert dist[i] == pytest.approx(
                segment_distance(one, Segment(theta, others[i], norm)),
                rel=1e-15)
            assert np.allclose(stack.row_norm(values[i]),
                               [one.row_norm(r) for r in values[i]],
                               rtol=1e-15, atol=0)
    with pytest.raises(ConfigError, match="knots, width"):
        Segment(theta, rng.standard_normal((2, 6, 4, 3)))


def test_segment_distance_exact_for_piecewise_linear():
    theta = np.array([-1.0, 0.0])
    a = _linear_path().windows()
    assert np.array_equal(segment_distance(a, a), np.zeros(3))
    s1 = Segment(theta=theta, values=np.array([[0.0], [1.0]]))
    s2 = Segment(theta=theta, values=np.array([[1.0], [0.0]]))
    assert segment_distance(s1, s2) == pytest.approx(1.0, abs=1e-15)
    s3 = Segment(theta=np.array([-0.5, 0.0]),
                 values=np.array([[0.0], [0.0]]))
    with pytest.raises(ConfigError, match="memory windows"):
        segment_distance(s1, s3)
    # one memory on different knots: no shared grid to compare on
    s4 = Segment(theta=np.array([-1.0, -0.5, 0.0]), values=np.zeros((3, 1)))
    with pytest.raises(ConfigError, match="one offset grid"):
        segment_distance(s1, s4)


def test_segment_path_keeps_its_past_segment():
    knots, hist = _ramp_history(0.25, 3, [1.0, -0.5])
    past = Segment(theta=knots, values=hist)
    path = SegmentPath(past, np.array([0.0]), hist[-1:].copy())
    assert path.past is past
    assert path.t_end == 0.0
    assert np.array_equal(path.values[0], past.end)


def test_profiles_accept_constants_and_callables():
    cf = FunctionalCoefficients(lambda3=2.0, lambda5=lambda t, s: t + s,
                                zeta=lambda t: 3.0 * t)
    assert _rate(cf.lambda3, 0.7) == 2.0
    assert _rate(cf.lambda5, 0.5, 0.25) == 0.75
    assert _rate(cf.zeta, 2.0) == 6.0
    # arrays of times broadcast together, one call per profile
    t, s = np.array([[0.5], [1.0]]), np.array([0.0, 0.25, 0.5])
    assert np.array_equal(_rate(cf.lambda5, t, s), t + s)
    assert np.array_equal(_rate(cf.lambda3, t, s), np.full((2, 3), 2.0))
    assert np.array_equal(_rate(cf.lambda6, s), np.zeros(3))
    assert np.array_equal(_rate(None, t), np.zeros((2, 1)))
    with pytest.raises(ConfigError, match="growth_c0"):
        FunctionalCoefficients(growth_c0=0.0)
    with pytest.raises(ConfigError, match="growth_c0"):
        VolterraCoefficients(growth_c0=-1.0)


# ---------------------------------------------------------------------------
# frozen-forcing iteration


def _delay_setup(kappa=0.8, n_steps=32, seed=77, lag_steps=4):
    tr = _rd_triple()
    drift = _laplacian_drift(tr)
    memory = lag_steps / n_steps
    noise = sample_path(seed=seed, t_final=1.0, n_steps=n_steps, n_modes=1)
    knots, hist = _ramp_history(memory, lag_steps + 1, [1.0, -0.5])
    past = Segment(theta=knots, values=hist)
    d1col = np.array([[0.25], [0.4]])
    coeffs = FunctionalCoefficients(
        c1=lambda t, seg: kappa * seg.at(-memory),
        d1=lambda t, seg: d1col,
        lambda3=kappa ** 2, lambda5=0.0, name="lagged restoring force")
    cfg = SolverConfig(n_modes_galerkin=2)
    return tr, drift, noise, past, coeffs, cfg, d1col


def test_memory_independent_terms_converge_in_one_solve():
    # no path-reading terms: the first sweep already lands on the fixed
    # point, the second only confirms it (frozen inputs repeat bitwise)
    tr, drift, noise, past, _, cfg, d1col = _delay_setup()
    plain = FunctionalCoefficients(d1=lambda t, seg: d1col, name="plain")
    res = picard_solve_functional(drift, plain, noise, past, cfg,
                                  max_iter=10, tol=1e-12)
    assert res.n_iterations == 2
    assert res.residuals[-1] == 0.0
    [direct] = solve_forward(cfg, drift, ConstantDiffusion(tr, d1col), noise,
                             res.path.values[0])
    assert np.array_equal(res.forward_path.states, direct.states)
    # row 0 is pinned to the seam row; every step agrees bitwise
    assert np.array_equal(res.path.values[1:], direct.states[1:])


@pytest.mark.parametrize("part", ["d1", "d2"])
def test_noise_factor_wider_than_the_noise_is_rejected(part):
    # a (2, 2) factor on a 1-mode path: its second column has no noise to
    # act on, so the sweep refuses it instead of dropping it
    _, drift, noise, past, _, cfg, _ = _delay_setup(n_steps=8)
    wide = np.array([[0.25, 0.1], [0.4, -0.2]])
    factor = (lambda t, seg: wide) if part == "d1" \
        else (lambda t, s, seg: wide)
    coeffs = FunctionalCoefficients(**{part: factor})
    with pytest.raises(ConfigError, match=f"{part} returned 2 noise columns"):
        picard_solve_functional(drift, coeffs, noise, past, cfg)


def _interior_offset():
    # reads the offset -0.1, between the knots of a 1/16 or 1/64 step, so
    # every window is interpolated
    col = np.array([[0.2, -0.1], [0.1, 0.3]])
    return FunctionalCoefficients(
        c1=lambda t, seg: np.cos(t) * seg.at(-0.25),
        c2=lambda t, s, seg: np.exp(-(t - s)) * seg.at(-0.1),
        d2=lambda t, s, seg: np.exp(-(t - s)) * seg.at(-0.1)[..., None]
        * np.array([0.3, -0.2]) + s * col,
        d1=lambda t, seg: seg.end[..., None] * np.array([0.2, 0.1]),
        name="interior offset")


def _tabulation_cases():
    v = _exp_kernel_pair()
    return {"volterra direct": FunctionalCoefficients(
                c2=v.drift_kernel, d2=v.diffusion_kernel),
            "volterra rewritten": volterra_to_functional(v),
            "interior offset": _interior_offset()}


@pytest.mark.parametrize("case", ["volterra direct", "volterra rewritten",
                                  "interior offset"])
@pytest.mark.parametrize("n_steps", [16, 64])
def test_stacked_tabulation_matches_the_per_window_loop(case, n_steps):
    coeffs = _tabulation_cases()[case]
    path = _analytic_path(n_steps, _rd_triple())
    noise = sample_path(seed=9, t_final=1.0, n_steps=n_steps, n_modes=2)
    g_rows, d_rows = _frozen_terms(coeffs, path, noise)
    g_want, d_want = oracles.frozen_terms(coeffs, path, noise)
    assert g_rows.shape == g_want.shape and d_rows.shape == d_want.shape
    for got, want in ((g_rows, g_want), (d_rows, d_want)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_each_sweep_calls_a_coefficient_once_per_grid_time_at_most():
    n_steps = 8
    _, drift, noise, past, _, cfg, d1col = _delay_setup(n_steps=n_steps,
                                                        lag_steps=2)
    calls = {"c1": 0, "c2": 0, "d1": 0, "d2": 0}

    def counted(label, fn):
        def wrapped(*args):
            calls[label] += 1
            return fn(*args)
        return wrapped

    coeffs = FunctionalCoefficients(
        c1=counted("c1", lambda t, seg: 0.5 * seg.at(-0.25)),
        c2=counted("c2", lambda t, s, seg: 0.2 * np.exp(-(t - s))
                   * seg.end),
        d1=counted("d1", lambda t, seg: d1col),
        d2=counted("d2", lambda t, s, seg: 0.1 * np.exp(-(t - s)) * d1col))
    res = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                  max_iter=40, tol=1e-10)
    sweeps = res.n_iterations
    assert sweeps >= 2
    assert calls == {"c1": sweeps, "d1": sweeps, "c2": sweeps * n_steps,
                     "d2": sweeps * n_steps}


@pytest.mark.parametrize("part, fn, message", [
    ("c1", lambda t, seg: np.zeros(3),
     r"c1 returned shape \(3,\), expected \(9, 2\)"),
    ("c2", lambda t, s, seg: seg.end[..., None],
     r"c2 returned shape \(1, 2, 1\), expected \(1, 2\)"),
    ("d1", lambda t, seg: seg.end,
     r"d1 returned shape \(9, 2\), expected \(9, 2, noise modes\)"),
    ("d2", lambda t, s, seg: np.array([0.25, 0.4]),
     r"d2 returned shape \(2,\), expected \(1, 2, noise modes\)"),
])
def test_a_coefficient_of_the_wrong_shape_is_named(part, fn, message):
    _, drift, noise, past, _, cfg, _ = _delay_setup(n_steps=8)
    coeffs = FunctionalCoefficients(**{part: fn})
    with pytest.raises(ConfigError, match=message):
        picard_solve_functional(drift, coeffs, noise, past, cfg)


@pytest.mark.parametrize("n_pts", [1, 2, 3])
def test_state_rows_from_d1_are_named_at_every_stack_size(n_pts):
    # d1 sees one window per grid time; on a 2-wide path with 2 grid times
    # the state rows (2, 2) have the shape of one shared (2, 2) factor
    path = _linear_path()
    path = SegmentPath(path.past, path.times[:n_pts], path.values[:n_pts])
    noise = sample_path(seed=9, t_final=0.5, n_steps=2, n_modes=2)
    rows = FunctionalCoefficients(d1=lambda t, seg: seg.end)
    with pytest.raises(ConfigError, match=rf"d1 returned shape \({n_pts}, "
                       rf"2\), expected \({n_pts}, 2, noise modes\)"):
        _frozen_terms(rows, path, noise)
    shared = np.array([[0.25, 0.1], [0.4, -0.2]])
    _, d_rows = _frozen_terms(
        FunctionalCoefficients(d1=lambda t, seg: shared), path, noise)
    assert np.array_equal(d_rows, np.broadcast_to(shared, (n_pts, 2, 2)))


def test_delay_equation_matches_direct_stepping_oracle():
    # modes diagonalize the flux part, so the converged path obeys, per
    # mode, y[k+1] (1 + mu dt) = y[k] + dt kappa lag(t[k+1]) + (P d1) dW
    # with the lag read from the same path (history-interpolated early on)
    kappa, n_steps, lag_steps = 0.8, 32, 4
    tr, drift, noise, past, coeffs, cfg, d1col = _delay_setup(
        kappa=kappa, n_steps=n_steps, lag_steps=lag_steps)
    res = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                  max_iter=40, tol=1e-10)

    h = tr.h
    mu = 4.0 / h ** 2 * np.sin(np.array([1, 2]) * np.pi * h / 2.0) ** 2
    dt = noise.dt
    memory = lag_steps / n_steps
    hist_c = np.stack([tr.coefficients(r, 2) for r in past.values])
    proj_d1 = tr.coefficients(d1col[:, 0], 2)
    y = np.zeros((n_steps + 1, 2))
    y[0] = hist_c[-1]
    for k in range(n_steps):
        t_lag = noise.times[k + 1] - memory
        if t_lag >= 0:
            lag = y[int(round(t_lag / dt))]
        else:
            lag = np.array([np.interp(t_lag, past.theta,
                                      hist_c[:, j]) for j in range(2)])
        y[k + 1] = (y[k] + dt * kappa * lag
                    + proj_d1 * noise.increments[0, k, 0]) / (1.0 + mu * dt)
    solved = np.stack([tr.coefficients(r, 2) for r in res.path.values])
    assert np.max(np.abs(solved - y)) <= 1e-10


def test_two_starting_iterates_reach_the_same_fixed_point():
    tr, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    tol = 1e-10
    res_a = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                    max_iter=40, tol=tol)
    res_b = picard_solve_functional(
        drift, coeffs, noise, past, cfg, max_iter=40, tol=tol,
        first_iterate=np.zeros((noise.n_steps + 1, 2)))
    gap = max(tr.h_norm(a - b)
              for a, b in zip(res_a.path.values, res_b.path.values))
    assert gap <= 10 * tol


def test_solver_input_validation():
    _, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    wide = Segment(theta=np.array([-0.125, 0.0]), values=np.zeros((2, 3)))
    with pytest.raises(ConfigError, match="grid size"):
        picard_solve_functional(drift, coeffs, noise, wide, cfg)
    stacked = Segment(theta=past.theta, values=np.stack([past.values] * 3))
    with pytest.raises(ConfigError, match="one window, not a stack"):
        picard_solve_functional(drift, coeffs, noise, stacked, cfg)
    knots, hist = _ramp_history(0.1, 3, [1.0, -0.5])
    odd = Segment(theta=knots, values=hist)
    with pytest.raises(ConfigError, match="whole number of time steps"):
        picard_solve_functional(drift, coeffs, noise, odd, cfg)
    with pytest.raises(ConfigError, match="tol"):
        picard_solve_functional(drift, coeffs, noise, past, cfg, tol=0.0)
    with pytest.raises(ConfigError, match="max_iter"):
        picard_solve_functional(drift, coeffs, noise, past, cfg,
                                max_iter=0)
    with pytest.raises(ConfigError, match="first_iterate"):
        picard_solve_functional(drift, coeffs, noise, past, cfg,
                                first_iterate=np.zeros((3, 2)))


def test_memory_solvers_read_one_noise_row():
    # a batch of several rows is not one path: no solver reads its row 0
    _, drift, _, past, coeffs, cfg, _ = _delay_setup()
    rows = sample_batch(seed=77, t_final=1.0, n_steps=32, n_modes=1,
                        replicas=2)
    with pytest.raises(ConfigError, match="batch of 2 rows"):
        picard_solve_functional(drift, coeffs, rows, past, cfg)
    with pytest.raises(ConfigError, match="batch of 2 rows"):
        picard_solve_functional_stack(drift, coeffs, rows, past, cfg,
                                      [None, None])
    path = _analytic_path(32, _rd_triple())
    for solve in (volterra_direct_eval, volterra_consistency):
        with pytest.raises(ConfigError, match="batch of 2 rows"):
            solve(_exp_kernel_pair(), path, rows)


def test_nonconvergence_raises_and_keeps_residuals():
    _, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    with pytest.raises(NonconvergenceError) as err:
        picard_solve_functional(drift, coeffs, noise, past, cfg,
                                max_iter=2, tol=1e-14)
    assert len(err.value.residuals) == 2


def _assert_same_result(stacked, alone):
    assert stacked.residuals == alone.residuals
    assert len(stacked.residual_profiles) == len(alone.residual_profiles)
    for a, b in zip(stacked.residual_profiles, alone.residual_profiles):
        assert np.array_equal(a, b)
    assert np.array_equal(stacked.path.values, alone.path.values)
    assert np.array_equal(stacked.path.past.values, alone.path.past.values)
    for field in ("coeffs", "states", "h_norm_sq", "energy_residual"):
        assert np.array_equal(getattr(stacked.forward_path, field),
                              getattr(alone.forward_path, field))


def test_stacked_starts_take_the_sweeps_they_take_alone():
    # lag 4 of 32 steps: sweep k makes the first k lag windows exact, and
    # the frozen terms never read the last one.  At tol 5e-12 the constant
    # start stops on its residual after 8 sweeps, the zero start needs a
    # 9th, whose terms repeat the 8th's bit for bit (the exact-fixed-point
    # exit), and a start that already is the fixed point stops after one
    tr, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    fixed = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                    max_iter=40, tol=1e-300).path.values
    starts = [None, np.zeros((noise.n_steps + 1, 2)), fixed]
    stacked = picard_solve_functional_stack(drift, coeffs, noise, past, cfg,
                                            starts, max_iter=40, tol=5e-12)
    alone = [picard_solve_functional(drift, coeffs, noise, past, cfg,
                                     max_iter=40, tol=5e-12, first_iterate=s)
             for s in starts]
    assert [r.n_iterations for r in alone] == [8, 9, 1]
    assert alone[1].residuals[-1] == 0.0 < alone[1].residuals[-2]
    for a, b in zip(stacked, alone):
        _assert_same_result(a, b)


def test_a_stacked_row_that_cannot_converge_raises_its_own_error():
    # within 3 sweeps only the start at the fixed point converges; both
    # others fail, and the error is the first one's, named by its index
    tr, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    fixed = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                    max_iter=40, tol=1e-300).path.values
    starts = [fixed, None, np.zeros((noise.n_steps + 1, 2))]
    with pytest.raises(NonconvergenceError, match="^replica 1: ") as err:
        picard_solve_functional_stack(drift, coeffs, noise, past, cfg,
                                      starts, max_iter=3, tol=1e-10)
    assert [f.replica for f in err.value.failures] == [1, 2]
    for failure in err.value.failures:
        with pytest.raises(NonconvergenceError) as alone:
            picard_solve_functional(drift, coeffs, noise, past, cfg,
                                    max_iter=3, tol=1e-10,
                                    first_iterate=starts[failure.replica])
        assert alone.value.replica is None
        assert failure.args == alone.value.args
        assert failure.residuals == alone.value.residuals
        assert len(failure.residuals) == 3


def test_stacked_inner_failure_names_the_start(monkeypatch):
    # a resolvent that may take no Newton step fails each row's first
    # inner solve; the error names the row by its place in the stack,
    # with the message and history the row gets alone
    tr, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    strict = SolverConfig(n_modes_galerkin=2, resolvent_max_iter=1,
                          resolvent_tol=1e-300)
    starts = [None, np.zeros((noise.n_steps + 1, 2))]
    with pytest.raises(NonconvergenceError, match="^replica 0: forward "
                                                  "solve failed") as err:
        picard_solve_functional_stack(drift, coeffs, noise, past, strict,
                                      starts)
    assert [f.replica for f in err.value.failures] == [0, 1]
    for failure in err.value.failures:
        with pytest.raises(NonconvergenceError) as alone:
            picard_solve_functional(drift, coeffs, noise, past, strict,
                                    first_iterate=starts[failure.replica])
        assert alone.value.replica is None
        assert failure.args == alone.value.args
        assert np.allclose(failure.residuals, alone.value.residuals,
                           rtol=1e-12, atol=0)

    # once a row has left, the inner solve's row 0 is the next start
    fixed = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                    max_iter=40, tol=1e-300).path.values
    solves = []

    def failing_second_solve(*args):
        solves.append(len(args[-1]))
        if len(solves) == 2:
            raise NonconvergenceError("inner", replica=0)
        return solve_forward(*args)

    monkeypatch.setattr(monosee.functional, "solve_forward",
                        failing_second_solve)
    with pytest.raises(NonconvergenceError, match="^replica 1: inner"):
        picard_solve_functional_stack(drift, coeffs, noise, past, cfg,
                                      [fixed, None], tol=1e-10)
    assert solves == [2, 1]


def test_stack_input_validation():
    _, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    with pytest.raises(ConfigError, match="at least one start"):
        picard_solve_functional_stack(drift, coeffs, noise, past, cfg, [])
    with pytest.raises(ConfigError, match="first_iterate"):
        picard_solve_functional_stack(drift, coeffs, noise, past, cfg,
                                      [None, np.zeros((3, 2))])


def test_converged_path_keeps_seam_and_projected_history():
    tr, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    res = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                  max_iter=40, tol=1e-10)
    path = res.path
    assert np.array_equal(path.past.end, path.values[0])
    expected = tr.project(past.values, 2)
    assert np.array_equal(path.past.values, expected)


def test_residual_profiles_are_running_sups_matching_residuals():
    _, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    res = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                  max_iter=40, tol=1e-10)
    assert res.n_iterations == len(res.residual_profiles)
    for r, prof in zip(res.residuals, res.residual_profiles):
        assert prof[0] == 0.0
        assert np.all(np.diff(prof) >= 0.0)
        assert np.sqrt(prof[-1]) == pytest.approx(r, rel=1e-12)


# ---------------------------------------------------------------------------
# contraction diagnostics


def test_delay_toy_contraction_within_comparison_envelope():
    _, drift, noise, past, coeffs, cfg, _ = _delay_setup()
    res = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                  max_iter=40, tol=1e-10)
    assert res.n_iterations >= 4
    lam8 = lambda8_profile(coeffs, noise.times)
    report = bihari_domination_report(res.residual_profiles, noise.times,
                                      lam8, coeffs.rho)
    assert isinstance(report, ContractionReport)
    assert report.ok
    assert report.max_envelope_ratio <= 1.2
    assert np.isfinite(report.fitted_c0)
    assert "within" in report.summary()


def test_domination_vacuous_for_a_single_profile():
    times = np.linspace(0.0, 1.0, 5)
    report = bihari_domination_report([np.zeros(5)], times,
                                      np.ones(5), FunctionalCoefficients().rho)
    assert report.ok
    assert report.n_transitions == 0
    assert any("vacuous" in n for n in report.notes)


def test_domination_flags_an_unexplained_transition():
    # a zero declared rate cannot dominate genuinely nonzero transitions
    times = np.linspace(0.0, 1.0, 5)
    profiles = [np.array([0.0, 1.0, 1.0, 1.0, 1.0]),
                np.array([0.0, 0.5, 0.5, 0.5, 0.5])]
    report = bihari_domination_report(profiles, times, np.zeros(5),
                                      FunctionalCoefficients().rho)
    assert not report.ok
    assert not np.isfinite(report.fitted_c0)


def test_lambda8_profile_closed_forms():
    times = np.linspace(0.0, 1.0, 9)
    cf = FunctionalCoefficients(lambda3=2.0, lambda5=3.0)
    assert np.allclose(lambda8_profile(cf, times), 2.0 + 3.0 * times,
                       rtol=0, atol=1e-12)
    cf2 = FunctionalCoefficients(lambda3=0.0, lambda5=lambda t, s: s)
    # integrating s over [0, t] gives t^2/2, exactly under the trapezoid
    assert np.allclose(lambda8_profile(cf2, times), times ** 2 / 2.0,
                       rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# sampled hypothesis checkers


def test_lipschitz_checker_accepts_declared_rates():
    kappa = 0.8
    coeffs = FunctionalCoefficients(
        c1=lambda t, seg: kappa * seg.at(-0.25),
        d1=lambda t, seg: np.array([[0.25], [0.4]]),
        c2=lambda t, s, seg: 0.5 * seg.end,
        lambda3=kappa ** 2, lambda5=0.25, name="lagged linear")
    report = check_functional_lipschitz(
        coeffs, segment_sampler(width=2, memory=0.25), n_samples=300,
        seed=11)
    assert report.ok
    assert report.n_samples == 300


def test_lipschitz_checker_flags_a_square_root_coefficient():
    bad = FunctionalCoefficients(
        c1=lambda t, seg: np.sign(seg.end) * np.sqrt(np.abs(seg.end)),
        lambda3=1.0, name="square-root force")
    report = check_functional_lipschitz(
        bad, segment_sampler(width=2, memory=0.25, amp_range=(1e-4, 1e-2)),
        n_samples=200, seed=11)
    assert not report.ok
    assert report.n_violations > 100


def test_growth_checker_accepts_and_notes_the_rate_ambiguity():
    coeffs = FunctionalCoefficients(
        c1=lambda t, seg: 0.8 * seg.at(-0.25),
        d1=lambda t, seg: np.array([[0.25], [0.4]]),
        c2=lambda t, s, seg: 0.5 * seg.end,
        lambda3=0.64, lambda5=0.25, lambda6=1.0, lambda7=0.5,
        zeta=1.0, growth_c0=2.0)
    bundle = HypothesisBundle(lambda1=constant_profile(1.0),
                              lambda2=constant_profile(2.0))
    report = check_functional_growth(
        coeffs, bundle, segment_sampler(width=2, memory=0.25),
        n_samples=300, seed=11)
    assert report.ok
    assert any("min(lambda1, lambda2)" in note for note in report.notes)


def test_growth_checker_flags_a_quadratic_one_time_term():
    grow = FunctionalCoefficients(
        c1=lambda t, seg: seg.end * seg.sup_norm()[..., None] ** 2,
        lambda3=1.0, zeta=1.0, growth_c0=2.0)
    bundle = HypothesisBundle(lambda1=constant_profile(1.0),
                              lambda2=constant_profile(2.0))
    report = check_functional_growth(
        grow, bundle, segment_sampler(width=2, memory=0.25,
                                      amp_range=(1e1, 1e2)),
        n_samples=100, seed=11)
    assert not report.ok
    assert report.n_violations >= 90


def _lagged_linear(kappa=0.8):
    return FunctionalCoefficients(
        c1=lambda t, seg: kappa * seg.at(-0.25),
        d1=lambda t, seg: np.array([[0.25], [0.4]]),
        c2=lambda t, s, seg: 0.5 * seg.end,
        lambda3=kappa ** 2, lambda5=0.25, lambda6=1.0, lambda7=0.5,
        zeta=1.0, growth_c0=2.0, name="lagged linear")


def _square_root_force():
    return FunctionalCoefficients(
        c1=lambda t, seg: np.sign(seg.end) * np.sqrt(np.abs(seg.end)),
        lambda3=1.0, zeta=1.0, growth_c0=2.0, name="square-root force")


def _quadratic_growth():
    return FunctionalCoefficients(
        c1=lambda t, seg: seg.end * seg.sup_norm()[..., None] ** 2,
        lambda3=1.0, zeta=1.0, growth_c0=2.0, name="quadratic growth")


def _time_varying():
    # every coefficient slot, callable rates of arrays of times, and a
    # two-time budget too large for the one-time scale
    return FunctionalCoefficients(
        c1=lambda t, seg: np.sin(t) * seg.at(-0.1),
        d1=lambda t, seg: seg.end[..., None] * np.array([0.2, 0.1]),
        c2=lambda t, s, seg: np.exp(-(t - s)) * seg.end,
        d2=lambda t, s, seg: seg.at(-0.25)[..., None] * 0.3 * s,
        lambda3=lambda t: 1.0 + t, lambda5=lambda t, s: 0.5 + t * s,
        lambda6=lambda t, s: 3.0 + np.cos(t - s), lambda7=lambda t, s: t,
        zeta=lambda t: 0.5 * t, growth_c0=1.5, name="time varying")


FUNCTIONAL_CASES = [
    (_lagged_linear, {}, 300), (_square_root_force,
                                {"amp_range": (1e-4, 1e-2)}, 200),
    (_quadratic_growth, {"amp_range": (1e1, 1e2)}, 100),
    (_time_varying, {}, 200),
    (_time_varying, {"norm": lambda rows: 2.0 * np.linalg.norm(rows, axis=-1)},
     60)]


@pytest.mark.parametrize("make, sampler_kw, n_samples", FUNCTIONAL_CASES)
@pytest.mark.parametrize("seed", [11, 4])
def test_stacked_functional_checks_match_the_per_sample_loop(
        make, sampler_kw, n_samples, seed):
    coeffs = make()
    sampler = segment_sampler(width=2, memory=0.25, **sampler_kw)
    bundle = HypothesisBundle(lambda1=constant_profile(1.0),
                              lambda2=constant_profile(2.0))
    assert_same_report(
        check_functional_lipschitz(coeffs, sampler, n_samples=n_samples,
                                   seed=seed),
        oracles.functional_lipschitz(coeffs, sampler, n_samples=n_samples,
                                     seed=seed))
    assert_same_report(
        check_functional_growth(coeffs, bundle, sampler,
                                n_samples=n_samples, seed=seed),
        oracles.functional_growth(coeffs, bundle, sampler,
                                  n_samples=n_samples, seed=seed))


def test_lambda8_profile_takes_one_rate_call_on_the_grid():
    calls = []

    def lam5(t, s):
        calls.append(np.broadcast_shapes(np.shape(t), np.shape(s)))
        return t * s

    times = np.linspace(0.0, 1.0, 5)
    cf = FunctionalCoefficients(lambda3=lambda t: 1.0 + t, lambda5=lam5)
    out = lambda8_profile(cf, times, n_quad=33)
    assert calls == [(5, 33)]
    # int_0^t t*s ds = t^3 / 2, exact under the trapezoid rule up to O(h^2)
    assert np.allclose(out, 1.0 + times + times ** 3 / 2.0, rtol=0,
                       atol=1e-3)


# ---------------------------------------------------------------------------
# two-time kernels


def _analytic_path(n_steps, tr, t_final=1.0, memory=0.25):
    times = np.linspace(0.0, t_final, n_steps + 1)
    m = int(round(memory / (t_final / n_steps)))
    knots = np.linspace(-memory, 0.0, m + 1)
    knots[-1] = 0.0
    f = lambda t: np.array([np.sin(t + 1.0), np.cos(2.0 * t)])
    hist = np.stack([f(th) for th in knots])
    values = np.stack([f(t) for t in times])
    values[0] = hist[-1]
    return SegmentPath(Segment(theta=knots, values=hist), times, values, tr)


def test_time_independent_kernel_reduces_to_plain_coefficients():
    g = lambda s: np.array([[0.2], [0.1]]) + s * np.array([[1.0], [0.0]])
    v = VolterraCoefficients(diffusion_kernel=lambda t, s, seg: g(s))
    f = volterra_to_functional(v)
    assert f.c1 is None and f.c2 is None and f.d2 is None
    seg = _linear_path().windows()
    assert np.array_equal(f.d1(0.3, seg), g(0.3))
    t = np.array([0.0, 0.3, 0.5])[:, None, None]
    assert np.array_equal(f.d1(t, seg), g(t))


def test_product_kernel_reduction_closed_form():
    # kernel t * k(s): the diagonal is s * k(s), the t-partial is k(s)
    k = lambda s: np.array([1.0 + s, 2.0])
    v = VolterraCoefficients(
        drift_kernel=lambda t, s, seg: t * k(s),
        drift_kernel_dt=lambda t, s, seg: k(s))
    f = volterra_to_functional(v)
    seg = _linear_path().windows()
    assert np.allclose(f.c1(0.4, seg), 0.4 * k(0.4), rtol=0, atol=1e-15)
    assert np.allclose(f.c2(0.9, 0.3, seg), k(0.3), rtol=0, atol=1e-15)


def _exp_kernel_pair():
    col = np.array([[0.2], [0.1]])
    return VolterraCoefficients(
        drift_kernel=lambda t, s, seg: np.exp(-(t - s)) * seg.end,
        diffusion_kernel=lambda t, s, seg: np.exp(-(t - s)) * col,
        drift_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * seg.end,
        diffusion_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * col,
        name="exponential fading memory")


def test_partial_checker_accepts_the_exponential_kernel():
    report = check_volterra_partials(_exp_kernel_pair(),
                                     segment_sampler(width=2, memory=0.25),
                                     n_samples=150, seed=3)
    assert report.ok


def _wrong_partial():
    return VolterraCoefficients(
        drift_kernel=lambda t, s, seg: np.exp(-(t - s)) * seg.end,
        drift_kernel_dt=lambda t, s, seg: -0.9 * np.exp(-(t - s)) * seg.end)


def test_partial_checker_flags_a_wrong_partial():
    report = check_volterra_partials(_wrong_partial(),
                                     segment_sampler(width=2, memory=0.25),
                                     n_samples=150, seed=3)
    assert not report.ok
    assert report.n_violations == 150


@pytest.mark.parametrize("make", [_exp_kernel_pair, _wrong_partial])
@pytest.mark.parametrize("seed", [3, 8])
def test_stacked_partial_check_matches_the_per_sample_loop(make, seed):
    v = make()
    sampler = segment_sampler(width=2, memory=0.25)
    assert_same_report(
        check_volterra_partials(v, sampler, n_samples=150, seed=seed),
        oracles.volterra_partials(v, sampler, n_samples=150, seed=seed))


def test_direct_eval_of_empty_kernels_is_zero():
    tr = _rd_triple()
    path = _analytic_path(8, tr)
    noise = sample_path(seed=4, t_final=1.0, n_steps=8, n_modes=1)
    out = volterra_direct_eval(VolterraCoefficients(), path, noise)
    assert np.array_equal(out, np.zeros((9, 2)))


def test_direct_eval_left_rule_error_is_first_order():
    # deterministic kernel, no noise: the sum is a left-endpoint rule for
    # int_0^1 exp(-(1-s)) ds = 1 - 1/e, whose error is below one step
    row = np.array([1.0, 2.0])
    v = VolterraCoefficients(drift_kernel=lambda t, s, seg:
                             np.exp(-(t - s)) * row)
    tr = _rd_triple()
    exact = (1.0 - np.exp(-1.0)) * row
    errs = []
    for n in (32, 64):
        table = volterra_direct_eval(v, _analytic_path(n, tr),
                                     zero_path(1.0, n, 1))
        assert table.shape == (n + 1, 2)
        err = float(np.max(np.abs(table[-1] - exact)))
        assert err <= (1.0 / n) * float(np.max(row))
        errs.append(err)
    assert 1.8 <= errs[0] / errs[1] <= 2.2


def test_direct_eval_grid_validation():
    tr = _rd_triple()
    path = _analytic_path(8, tr)
    noise = sample_path(seed=4, t_final=1.0, n_steps=8, n_modes=1)
    other = sample_path(seed=4, t_final=1.0, n_steps=12, n_modes=1)
    with pytest.raises(ConfigError, match="time grid"):
        volterra_direct_eval(VolterraCoefficients(), path, other)


def test_consistency_vanishes_for_time_independent_kernels():
    v = VolterraCoefficients(
        drift_kernel=lambda t, s, seg: 0.7 * seg.end,
        diffusion_kernel=lambda t, s, seg: np.array([[0.2], [0.1]]))
    tr = _rd_triple()
    path = _analytic_path(16, tr)
    noise = sample_path(seed=5, t_final=1.0, n_steps=16, n_modes=1)
    assert volterra_consistency(v, path, noise) <= 1e-12


def test_consistency_discrepancy_halves_with_the_step():
    v = _exp_kernel_pair()
    tr = _rd_triple()
    coarse = sample_path(seed=9, t_final=1.0, n_steps=16, n_modes=1)
    fine = refine_path(coarse)
    d_coarse = volterra_consistency(v, _analytic_path(16, tr), coarse)
    d_fine = volterra_consistency(v, _analytic_path(32, tr), fine)
    assert d_coarse > 0
    assert 1.6 <= d_coarse / d_fine <= 2.4


def test_moving_a_time_independent_term_between_kernel_and_diagonal():
    # w(s) may live inside the two-time kernel (zero t-partial) or as an
    # explicit one-time coefficient; both presentations must solve alike
    _, drift, noise, past, _, cfg, d1col = _delay_setup(n_steps=16)
    w = lambda s, seg: 0.3 * seg.at(-0.25) + np.array([0.1, -0.2])
    inside = VolterraCoefficients(
        drift_kernel=lambda t, s, seg: np.exp(-(t - s)) * seg.end
        + w(s, seg),
        drift_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * seg.end)
    f_inside = volterra_to_functional(inside)
    f_inside.d1 = lambda t, seg: d1col
    outside = VolterraCoefficients(
        drift_kernel=lambda t, s, seg: np.exp(-(t - s)) * seg.end,
        drift_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * seg.end)
    f_outside = volterra_to_functional(outside)
    base_c1 = f_outside.c1
    f_outside.c1 = lambda t, seg: base_c1(t, seg) + w(t, seg)
    f_outside.d1 = lambda t, seg: d1col
    res_in = picard_solve_functional(drift, f_inside, noise, past, cfg,
                                     max_iter=40, tol=1e-11)
    res_out = picard_solve_functional(drift, f_outside, noise, past, cfg,
                                      max_iter=40, tol=1e-11)
    gap = np.max(np.abs(res_in.path.values - res_out.path.values))
    assert gap <= 1e-10


# ---------------------------------------------------------------------------
# export


def test_functional_csv_layout_and_identical_rerun():
    _, drift, noise, past, coeffs, cfg, _ = _delay_setup()

    def run():
        res = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                      max_iter=40, tol=1e-10)
        return res, functional_trajectory_csv(res)

    res, text = run()
    lines = text.split("\r\n")
    inner = trajectory_csv(res.forward_path).split("\r\n")
    assert lines[0] == "t,c1,c2,h_norm_sq,x1_norm,x2_norm,energy_residual"
    n_hist = len(past.theta) - 1
    assert len(lines) == n_hist + len(inner)
    for row in lines[1:1 + n_hist]:
        cells = row.split(",")
        assert float(cells[0]) < 0.0
        assert cells[-1] == "0"
    assert lines[1 + n_hist:] == inner[1:]
    _, again = run()
    assert again == text


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amp_range", oracles.BAD_AMP_RANGES)
def test_segment_sampler_rejects_a_bad_amp_range(amp_range):
    # before any logarithm is taken, so no math domain error
    with pytest.raises(ConfigError, match=r"0 < lo <= hi < inf"):
        segment_sampler(width=2, memory=0.5, amp_range=amp_range)
    assert segment_sampler(width=2, memory=0.5, amp_range=(2.0, 2.0))(
        np.random.default_rng(0))[2].values.shape == (9, 2)


def test_segment_sampler_validation():
    with pytest.raises(ConfigError, match="memory"):
        segment_sampler(width=2, memory=0.0)
    with pytest.raises(ConfigError, match="knots"):
        segment_sampler(width=2, memory=0.5, n_knots=1)
    sample = segment_sampler(width=3, memory=0.5)
    rng = np.random.default_rng(0)
    t, s, seg_a, seg_b = sample(rng)
    assert 0.0 <= s <= t <= 1.0
    assert seg_a.values.shape == (9, 3)
    assert seg_b.theta[-1] == 0.0


def test_a_custom_norm_reads_every_row_in_one_call():
    rng = np.random.default_rng(6)
    theta = np.array([-0.5, -0.25, 0.0])
    values, others = rng.standard_normal((2, 5, 3, 4))
    calls = []

    def norm(rows):
        calls.append(np.shape(rows))
        return np.max(np.abs(rows), axis=-1)

    stack, other = Segment(theta, values, norm), Segment(theta, others, norm)
    sup, dist = stack.sup_norm(), segment_distance(stack, other)
    assert calls == [(5, 3, 4), (5, 3, 4)]
    for i in range(5):
        assert sup[i] == max(np.max(np.abs(r)) for r in values[i])
        assert dist[i] == max(np.max(np.abs(r)) for r in values[i] - others[i])
    # the path's own norm is the triple's H-norm of each row
    tr = _rd_triple()
    path = _linear_path(tr)
    assert np.array_equal(path.h_norm_of(path.values),
                          [tr.h_norm(r) for r in path.values])
    assert np.array_equal(_linear_path().h_norm_of(path.values),
                          [np.linalg.norm(r) for r in path.values])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [[np.nan, 0.0], [-np.inf, 0.0],
                                   [-1.0, np.nan, 0.0], [np.nan]])
def test_segment_rejects_non_finite_offsets(theta):
    with pytest.raises(ConfigError, match="offsets must be finite"):
        Segment(theta=theta, values=np.zeros((len(theta), 1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kw, match", [
    ({"t_final": -1.0}, "finite t_final >= 0"),
    ({"t_final": np.inf}, "finite t_final >= 0"),
    ({"t_final": np.nan}, "finite t_final >= 0"),
    ({"memory": np.nan}, "positive, finite memory"),
    ({"memory": np.inf}, "positive, finite memory")])
def test_segment_sampler_rejects_non_finite_times(kw, match):
    with pytest.raises(ConfigError, match=match):
        segment_sampler(**{"width": 2, "memory": 0.5, **kw})
    # valid arguments draw the stream they drew: t, s, then each segment
    rng, want = np.random.default_rng(3), np.random.default_rng(3)
    t, s, seg_a, seg_b = segment_sampler(width=2, memory=0.5)(rng)
    assert t == want.uniform(0.0, 1.0) and s == want.uniform(0.0, t)
    lo, hi = math.log(1e-2), math.log(1e1)
    amp_a, amp_b = math.exp(want.uniform(lo, hi)), math.exp(want.uniform(lo, hi))
    for seg, amp in ((seg_a, amp_a), (seg_b, amp_b)):
        assert seg.values.tobytes() == (
            amp * want.standard_normal((9, 2))).tobytes()
    assert rng.bit_generator.state == want.bit_generator.state
    # at t_final = 0 every time drawn is 0
    assert segment_sampler(width=2, memory=0.5, t_final=0.0)(
        np.random.default_rng(1))[:2] == (0.0, 0.0)


def test_domination_report_names_a_mismatched_lambda8():
    times = np.linspace(0.0, 1.0, 5)
    profiles = [np.linspace(0.0, 1.0, 5) ** 2] * 2
    with pytest.raises(ConfigError, match="lambda8 profile must match the "
                                          "time grid"):
        bihari_domination_report(profiles, times, np.ones(4),
                                 linear_modulus(1.0))
    # a constant, a grid array and a callable of the grid agree
    reports = [bihari_domination_report(profiles, times, lam8,
                                        linear_modulus(1.0))
               for lam8 in (2.0, np.full(5, 2.0), lambda t: 2.0 + 0.0 * t)]
    assert reports[0] == reports[1] == reports[2]
