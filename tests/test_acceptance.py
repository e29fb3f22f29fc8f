"""Acceptance gate: twelve end-to-end criteria, one test each.

Every test prints one PASS/FAIL line (written past pytest's capture so
the ledger appears in any run log) and then asserts.  Tolerances are
pinned here, not computed from the data under test; runtime budgets are
enforced with a wall clock.
"""

import glob
import math
import sys
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from monosee.analysis import (bihari_bound, linear_modulus, power_modulus,
                              rho_eval, rho_k_modulus, zero_limit_check)
from monosee.bsde import (BsdeDriver, BsdeProblem, picard_in_x, picard_in_z,
                          polynomial_basis, solve_bsde_autonomous_C,
                          zero_driver)
from monosee.config import ExperimentConfig
from monosee.experiments import EXPERIMENTS, run_experiment
from monosee.forward import SolverConfig, solve_forward, step_implicit
from monosee.functional import (FunctionalCoefficients, Segment, SegmentPath,
                                VolterraCoefficients, bihari_domination_report,
                                lambda8_profile, picard_solve_functional,
                                volterra_consistency)
from monosee.noise import (NoiseContext, refine_path, sample_batch,
                           sample_path, zero_path)
from monosee.operators import (ConstantDiffusion, PhiDrift,
                               ReactionDiffusionDrift, build_operator_set,
                               check_boundedness, check_coercivity,
                               check_hemicontinuity, check_monotonicity,
                               pair_sampler, state_sampler)
from monosee.resolvent import MonotoneMap, check_yosida_properties
from monosee.triple import DiscreteTriple


def _report(capsys, num: int, ok: bool, budget: float, elapsed: float,
            detail: str) -> None:
    line = (f"\nacceptance {num:2d} {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:5.1f}s / {budget:.0f}s] {detail}")
    with capsys.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


def _linear_drift():
    return MonotoneMap(eval=lambda t, x: -x,
                       jacobian=lambda t, x: -np.ones_like(x),
                       diagonal=True, name="minus identity")


def test_criterion_01_linear_moment_oracle(capsys):
    """Scalar du = a u dt + b u dw: the sample second moment at T matches
    the moment-equation value e^{2a + b^2} within Monte-Carlo error."""
    budget, t0 = 30.0, time.perf_counter()
    a, b = -1.0, 0.5
    noise = sample_path(seed=101, t_final=1.0, n_steps=1000, n_modes=10_000)
    # each noise column drives one replica: an (R, 1) stack of scalar states
    drift = MonotoneMap(eval=lambda t, u: a * u,
                        jacobian=lambda t, u: np.full(u.shape + (1,), a),
                        name="a u")
    cfg = SolverConfig(n_modes_galerkin=1, resolvent_tol=1e-12,
                       resolvent_max_iter=200)
    u = np.ones((noise.n_modes, 1))
    for k in range(noise.n_steps):
        u = step_implicit(u, float(noise.times[k]), noise.dt,
                          noise.increments[k][:, None], drift,
                          lambda t, u: b * u[..., None], cfg).y
    u_sq = u[:, 0] ** 2
    mean = float(np.mean(u_sq))
    se = float(np.std(u_sq, ddof=1) / math.sqrt(u_sq.size))
    target = math.exp(2.0 * a + b ** 2)
    gap = abs(mean - target)
    elapsed = time.perf_counter() - t0
    ok = gap <= 3.0 * se and elapsed < budget
    _report(capsys, 1, ok, budget, elapsed,
            f"mean|u(1)|^2 = {mean:.6f} vs {target:.6f}, "
            f"gap {gap:.2e} <= 3se {3 * se:.2e}")
    assert gap <= 3.0 * se
    assert elapsed < budget


def test_criterion_02_deterministic_convergence_order(capsys):
    """Heat flow from the first mode: implicit-step sup-H error against
    the exact exponential halves when dt halves."""
    budget, t0 = 5.0, time.perf_counter()
    ops = build_operator_set("heat", 16)
    tr = ops.triple
    e1 = tr.basis_function(1)
    mu1 = float(tr.mu[0])
    t_final = 0.2
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        n_steps = round(t_final / dt)
        path = solve_forward(SolverConfig(n_modes_galerkin=8), ops.drift,
                             ops.diffusion, zero_path(t_final, n_steps, 1),
                             e1)
        errors.append(max(
            tr.h_norm(path.states[k] - math.exp(-mu1 * path.times[k]) * e1)
            for k in range(n_steps + 1)))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = all(1.7 <= r <= 2.3 for r in ratios) and elapsed < budget
    _report(capsys, 2, ok, budget, elapsed,
            f"halving ratios {ratios[0]:.3f}, {ratios[1]:.3f} in [1.7, 2.3]")
    for r in ratios:
        assert 1.7 <= r <= 2.3
    assert elapsed < budget


def test_criterion_03_galerkin_nesting(capsys):
    """Porous-medium flow (p = 3, constant diffusion) on one noise path:
    the sup-H distance between the n-mode solution and the projected
    2n-mode solution decreases as n doubles (10% slack)."""
    budget, t0 = 60.0, time.perf_counter()
    ops = build_operator_set("porous_medium", 64, p=3.0, n_modes=1)
    noise = sample_path(seed=7, t_final=0.1, n_steps=100, n_modes=1)
    u0 = ops.triple.basis_function(1)
    paths = {n: solve_forward(SolverConfig(n_modes_galerkin=n), ops.drift,
                              ops.diffusion, noise, u0)
             for n in (8, 16, 32, 64)}
    distances = []
    for n in (8, 16, 32):
        coarse, fine = paths[n], paths[2 * n]
        distances.append(max(
            ops.triple.h_norm(coarse.states[k]
                              - ops.triple.project(fine.states[k], n))
            for k in range(len(noise.times))))
    decreasing = all(distances[i + 1] <= 1.10 * distances[i]
                     for i in range(2))
    elapsed = time.perf_counter() - t0
    ok = decreasing and elapsed < budget
    _report(capsys, 3, ok, budget, elapsed,
            "sup-H nesting distances "
            + " > ".join(f"{d:.3e}" for d in distances))
    assert decreasing, distances
    assert elapsed < budget


def test_criterion_04_energy_identity_residual(capsys):
    """Linear drift + constant diffusion: the cumulative energy-identity
    defect is O(dt) (pinned constant, measured at build time) and halves
    under noise-grid refinement."""
    budget, t0 = 10.0, time.perf_counter()
    ops = build_operator_set("heat", 8)
    diff = ConstantDiffusion(ops.triple, 0.5 * np.ones((8, 1)))
    x0 = ops.triple.basis_function(1)
    noise = sample_path(seed=14, t_final=0.5, n_steps=125, n_modes=1)
    totals, dts = [], []
    for _ in range(3):
        path = solve_forward(SolverConfig(n_modes_galerkin=8), ops.drift,
                             diff, noise, x0)
        totals.append(abs(float(np.sum(path.energy_residual))))
        dts.append(noise.dt)
        noise = refine_path(noise)
    C = 10.0  # measured |defect|/dt is ~5.6 on this problem
    bounded = all(tot <= C * dt for tot, dt in zip(totals, dts))
    ratios = [totals[i] / totals[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = bounded and all(1.6 <= r <= 2.4 for r in ratios) and elapsed < budget
    _report(capsys, 4, ok, budget, elapsed,
            f"cumulative defect/dt = "
            f"{', '.join(f'{t / d:.2f}' for t, d in zip(totals, dts))} "
            f"<= {C}; halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}")
    assert bounded, (totals, dts)
    for r in ratios:
        assert 1.6 <= r <= 2.4
    assert elapsed < budget


def test_criterion_05_hypothesis_checkers(capsys):
    """The two built-in random-coefficient operator families show zero
    violations of the four structural inequalities over 500 samples; a
    planted non-monotone nonlinearity (sin) is flagged."""
    budget, t0 = 10.0, time.perf_counter()
    probe = sample_path(seed=5, t_final=1.0, n_steps=64, n_modes=1)
    ctx = NoiseContext(probe)
    total_violations = 0
    for name in ("eq_1_1", "eq_1_2"):
        ops = build_operator_set(name, 12, p=3.0, n_modes=1)
        pairs = pair_sampler(ops.triple, times=probe.times)
        singles = state_sampler(ops.triple, times=probe.times)
        reports = [
            check_monotonicity(ops.drift, ops.diffusion, ops.bundle, pairs,
                               n_samples=500, seed=5, ctx=ctx),
            check_coercivity(ops.drift, ops.diffusion, ops.bundle, singles,
                             n_samples=500, seed=5, ctx=ctx),
            check_boundedness(ops.drift, ops.bundle, singles,
                              n_samples=500, seed=5, ctx=ctx),
            check_hemicontinuity(ops.drift, singles, n_samples=500,
                                 seed=5, ctx=ctx),
        ]
        total_violations += sum(r.n_violations for r in reports)
    pm = build_operator_set("porous_medium", 12, p=3.0, n_modes=1)
    planted = PhiDrift(pm.triple, lambda t, c, r: np.sin(r),
                       lambda t, c, r: np.cos(r))
    flagged = check_monotonicity(planted, pm.diffusion, pm.bundle,
                                 pair_sampler(pm.triple,
                                              amp_range=(1e-1, 1e2)),
                                 n_samples=500, seed=5)
    elapsed = time.perf_counter() - t0
    ok = (total_violations == 0 and flagged.n_violations >= 1
          and elapsed < budget)
    _report(capsys, 5, ok, budget, elapsed,
            f"built-ins: {total_violations} violations over 8 x 500 "
            f"samples; planted sin: {flagged.n_violations} violations")
    assert total_violations == 0
    assert flagged.n_violations >= 1
    assert elapsed < budget


def test_criterion_06_yosida_suite(capsys):
    """The four resolvent-regularization properties hold to 1e-10 on 1000
    sampled (eps, x, y) for the linear and cubic maps, with the declining
    eps trend; the sin map violates dissipativity."""
    budget, t0 = 5.0, time.perf_counter()

    def sampler(rng):
        return rng.uniform(-3, 3, size=4)

    cubic = MonotoneMap(eval=lambda t, x: -x ** 3,
                        jacobian=lambda t, x: -3.0 * x ** 2,
                        diagonal=True, name="minus cube")
    clean = [check_yosida_properties(F, sampler, n_samples=1000, seed=17,
                                     tol=1e-10)
             for F in (_linear_drift(), cubic)]
    sin_map = MonotoneMap(eval=lambda t, x: np.sin(x), diagonal=True,
                          name="sine")
    bad = check_yosida_properties(sin_map, sampler, n_samples=1000,
                                  seed=17, tol=1e-10)
    labels = {v.detail.get("property") for v in bad.violations}
    elapsed = time.perf_counter() - t0
    ok = (all(r.ok for r in clean) and "I monotonicity" in labels
          and elapsed < budget)
    _report(capsys, 6, ok, budget, elapsed,
            f"linear/cubic clean at 1e-10 over 1000 samples; sine violates "
            f"{sorted(labels)}")
    for r in clean:
        assert r.ok, r.summary()
    assert "I monotonicity" in labels
    assert elapsed < budget


def test_criterion_07_bsde_closed_form(capsys):
    """Backward equation with linear restoring drift and Wiener terminal
    value: regression X and Z match the closed form within five times
    (dt + regression error) at three interior times."""
    budget, t0 = 60.0, time.perf_counter()
    t_final, n_steps, n_paths = 1.0, 64, 10_000
    dt = t_final / n_steps
    problem = BsdeProblem(drift=_linear_drift(), driver=zero_driver(),
                          terminal=lambda b: b.scalar_paths[:, -1:],
                          t_final=t_final, n_modes=1, dim=1)
    batch = sample_batch(seed=31, t_final=t_final, n_steps=n_steps,
                         n_modes=1, replicas=n_paths)
    sol = solve_bsde_autonomous_C(problem, batch,
                                  basis=polynomial_basis(1, degree=2))
    worst = 0.0
    details = []
    for t in (0.25, 0.5, 0.75):
        k = round(t / dt)
        w = batch.scalar_paths[:, k]
        decay = math.exp(-(t_final - t))
        rms_x = float(np.sqrt(np.mean(
            (sol.x_paths[:, k, 0] - decay * w) ** 2)))
        rms_z = float(np.sqrt(np.mean(
            (sol.z_paths[:, k, 0, 0] - decay) ** 2)))
        bx = 5.0 * (dt + float(sol.x_fit_stderr[k]))
        bz = 5.0 * (dt + float(sol.z_fit_stderr[k]))
        worst = max(worst, rms_x / bx, rms_z / bz)
        details.append((t, rms_x, bx, rms_z, bz))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < budget
    _report(capsys, 7, ok, budget, elapsed,
            f"worst rms/budget fraction {worst:.3f} over t in "
            f"{{0.25, 0.5, 0.75}} with {n_paths} paths")
    for t, rms_x, bx, rms_z, bz in details:
        assert rms_x <= bx, (t, rms_x, bx)
        assert rms_z <= bz, (t, rms_z, bz)
    assert elapsed < budget


def test_criterion_08_picard_contraction_diagnostics(capsys):
    """z-coupled driver: iteration residuals eventually decreasing (at
    most one non-monotone step); concave-modulus x-coupled driver:
    convergence within 20 outer sweeps."""
    budget, t0 = 60.0, time.perf_counter()
    kappa = 0.4
    batch = sample_batch(seed=13, t_final=1.0, n_steps=32, n_modes=1,
                         replicas=400)
    z_driver = BsdeDriver(eval=lambda t, x, z: kappa * z[..., 0],
                          c1=kappa ** 2, c2=abs(kappa), x_dependent=False,
                          name="linear coupling in z")
    z_problem = BsdeProblem(drift=_linear_drift(), driver=z_driver,
                            terminal=lambda b: b.scalar_paths[:, -1:],
                            t_final=1.0, n_modes=1, dim=1)
    z_sol = picard_in_z(z_problem, batch, max_iter=25, tol=1e-8)
    res = list(z_sol.picard_residuals)
    non_monotone = sum(1 for i in range(1, len(res))
                       if res[i] > res[i - 1])

    rho = rho_k_modulus(k=1)
    x_driver = BsdeDriver(
        eval=lambda t, x, z: (np.sqrt(rho_eval(np.asarray(x, float) ** 2,
                                               rho))
                              * np.sign(np.asarray(x, float))),
        rho=rho, c1=4.0, c2=2.0, z_dependent=False,
        name="concave-modulus coupling in x")
    x_problem = BsdeProblem(drift=_linear_drift(), driver=x_driver,
                            terminal=lambda b: b.scalar_paths[:, -1:],
                            t_final=1.0, n_modes=1, dim=1)
    # the first 200 replicas of the same seed
    first_200 = sample_batch(seed=13, t_final=1.0, n_steps=32, n_modes=1,
                             replicas=200)
    x_sol = picard_in_x(x_problem, first_200, max_iter=20, tol=1e-9)
    outer = list(x_sol.picard_residuals)
    elapsed = time.perf_counter() - t0
    ok = (non_monotone <= 1 and len(outer) <= 20 and outer[-1] < 1e-9
          and elapsed < budget)
    _report(capsys, 8, ok, budget, elapsed,
            f"z residuals decrease with {non_monotone} non-monotone "
            f"step(s) over {len(res)} sweeps; x converges in "
            f"{len(outer)} outer sweeps")
    assert non_monotone <= 1, res
    assert len(outer) <= 20 and outer[-1] < 1e-9, outer
    assert elapsed < budget


def test_criterion_09_bihari_suite(capsys):
    """Comparison bounds: linear modulus equals the exponential closed
    form to 1e-10; the concave-modulus bound matches a stiff ODE oracle
    to 1e-4 relative; the vanishing-gap diagnostic separates the Osgood
    modulus from the square-root one."""
    budget, t0 = 5.0, time.perf_counter()
    t = np.linspace(0.0, 1.0, 101)
    lin = bihari_bound(1.0, np.ones_like(t), linear_modulus(1.0), t)
    lin_gap = float(np.max(np.abs(lin.bound_curve - np.exp(t))))

    spec = rho_k_modulus(k=1, c0=1.0, eta=0.3)
    g0 = 1e-4
    t_fine = np.linspace(0.0, 1.0, 401)

    def lam(s):
        return 1.0 + 0.5 * np.sin(3.0 * s)

    ode = solve_ivp(lambda s, g: [lam(s) * rho_eval(max(g[0], 0.0), spec)],
                    (0.0, 1.0), [g0], method="Radau", rtol=1e-10,
                    atol=1e-14, dense_output=True)
    assert ode.success
    b = bihari_bound(g0, lam, spec, t_fine)
    ode_vals = ode.sol(t_fine)[0]
    rel = float(np.max(np.abs(b.bound_curve[1:] - ode_vals[1:])
                       / np.abs(ode_vals[1:])))

    osgood = zero_limit_check(lambda s: 1.0, spec, np.linspace(0, 1, 41))
    rough = zero_limit_check(lambda s: 1.0, power_modulus(alpha=0.5, c0=1.0),
                             np.linspace(0, 1, 41))
    elapsed = time.perf_counter() - t0
    ok = (lin_gap <= 1e-10 and rel <= 1e-4 and osgood.vanishes
          and rough.flagged and not rough.vanishes and elapsed < budget)
    _report(capsys, 9, ok, budget, elapsed,
            f"linear vs exponential gap {lin_gap:.1e} <= 1e-10; concave "
            f"vs ODE oracle {rel:.1e} <= 1e-4; vanishing-gap verdicts "
            f"(concave: {osgood.vanishes}, sqrt: {rough.vanishes})")
    assert lin_gap <= 1e-10
    assert rel <= 1e-4
    assert osgood.vanishes and osgood.osgood
    assert rough.flagged and not rough.vanishes
    assert elapsed < budget


def test_criterion_10_functional_uniqueness_surrogate(capsys):
    """Delay equation on one noise path from two iteration starts: both
    reach the same fixed point within 10x the solver tolerance, and the
    iteration difference profiles sit under the comparison-bound envelope
    built from the declared rates (20% slack)."""
    budget, t0 = 30.0, time.perf_counter()
    tol = 1e-10
    tr = DiscreteTriple(2, "reaction_diffusion")
    drift = ReactionDiffusionDrift(
        tr, a=lambda t, c, r: r, b=lambda t, c, u: 0.0 * u,
        a_prime=lambda t, c, r: np.ones_like(r),
        b_prime=lambda t, c, u: 0.0 * u)
    kappa, n_steps, lag_steps = 0.8, 32, 4
    memory = lag_steps / n_steps
    noise = sample_path(seed=77, t_final=1.0, n_steps=n_steps, n_modes=1)
    knots = np.linspace(-memory, 0.0, lag_steps + 1)
    knots[-1] = 0.0
    hist = np.stack([(1.0 + th) * np.array([1.0, -0.5]) for th in knots])
    past = Segment(theta=knots, values=hist)
    coeffs = FunctionalCoefficients(
        c1=lambda t, seg: kappa * seg.at(-memory),
        d1=lambda t, seg: np.array([[0.25], [0.4]]),
        lambda3=kappa ** 2, lambda5=0.0, name="lagged restoring force")
    cfg = SolverConfig(n_modes_galerkin=2)
    res_a = picard_solve_functional(drift, coeffs, noise, past, cfg,
                                    max_iter=40, tol=tol)
    res_b = picard_solve_functional(
        drift, coeffs, noise, past, cfg, max_iter=40, tol=tol,
        first_iterate=np.zeros((n_steps + 1, 2)))
    gap = max(tr.h_norm(a - b)
              for a, b in zip(res_a.path.values, res_b.path.values))
    lam8 = lambda8_profile(coeffs, noise.times)
    report = bihari_domination_report(res_a.residual_profiles, noise.times,
                                      lam8, coeffs.rho, slack=1.2)
    elapsed = time.perf_counter() - t0
    ok = gap <= 10 * tol and report.ok and elapsed < budget
    _report(capsys, 10, ok, budget, elapsed,
            f"fixed-point gap {gap:.2e} <= {10 * tol:.0e}; iteration "
            f"differences within envelope "
            f"(ratio {report.max_envelope_ratio:.3f} <= 1.2)")
    assert gap <= 10 * tol
    assert report.ok, report.summary()
    assert elapsed < budget


def test_criterion_11_volterra_consistency(capsys):
    """Exponentially fading two-time kernel on a fixed seed: the sup-H
    discrepancy between the direct double sums and the diagonal-plus-
    partial rewriting halves when the grid is refined."""
    budget, t0 = 10.0, time.perf_counter()
    tr = DiscreteTriple(2, "reaction_diffusion")
    col = np.array([[0.2], [0.1]])
    v = VolterraCoefficients(
        drift_kernel=lambda t, s, seg: np.exp(-(t - s)) * seg.end,
        diffusion_kernel=lambda t, s, seg: np.exp(-(t - s)) * col,
        drift_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * seg.end,
        diffusion_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * col,
        name="exponential fading memory")

    def stored_path(n):
        times = np.linspace(0.0, 1.0, n + 1)
        m = round(0.25 * n)
        knots = np.linspace(-0.25, 0.0, m + 1)
        knots[-1] = 0.0
        f = lambda t: np.array([np.sin(t + 1.0), np.cos(2.0 * t)])
        hist = np.stack([f(th) for th in knots])
        values = np.stack([f(t) for t in times])
        values[0] = hist[-1]
        return SegmentPath(Segment(theta=knots, values=hist), times, values,
                           tr)

    coarse = sample_path(seed=9, t_final=1.0, n_steps=16, n_modes=1)
    fine = refine_path(coarse)
    d_coarse = volterra_consistency(v, stored_path(16), coarse)
    d_fine = volterra_consistency(v, stored_path(32), fine)
    ratio = d_coarse / d_fine
    elapsed = time.perf_counter() - t0
    ok = 1.6 <= ratio <= 2.4 and elapsed < budget
    _report(capsys, 11, ok, budget, elapsed,
            f"discrepancy {d_coarse:.3e} -> {d_fine:.3e}, "
            f"halving ratio {ratio:.3f} in [1.6, 2.4]")
    assert 1.6 <= ratio <= 2.4, (d_coarse, d_fine)
    assert elapsed < budget


# configs small enough to run every experiment twice; determinism is a
# property of the byte stream, not of the statistical scale
_DETERMINISM_SHRINK = {
    "porous_medium_demo": {"monte_carlo": {"replicas": 6},
                           "numerics": {"n_steps": 50}},
    "reaction_diffusion_demo": {"monte_carlo": {"replicas": 6},
                                "numerics": {"n_steps": 50}},
    "bsde_linear_validation": {"monte_carlo": {"replicas": 300}},
    "bsde_picard_demo": {"monte_carlo": {"replicas": 100}},
    "hypothesis_report": {"monte_carlo": {"replicas": 150}},
}


def test_criterion_12_determinism(tmp_path, capsys):
    """Every registry experiment, rerun with the same seed, produces
    byte-identical numeric CSV artifacts."""
    budget, t0 = 120.0, time.perf_counter()
    compared = 0
    for name in EXPERIMENTS:
        shrink = _DETERMINISM_SHRINK.get(name, {})
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / attempt / name
            cfg = ExperimentConfig(
                experiment=name,
                problem=dict(shrink.get("problem", {})),
                numerics=dict(shrink.get("numerics", {})),
                monte_carlo=dict(shrink.get("monte_carlo", {})),
                output={"directory": str(out)})
            run_experiment(cfg)
            outputs.append(sorted(glob.glob(str(out / "*.csv"))))
        names_a = [p.rsplit("/", 1)[1] for p in outputs[0]]
        names_b = [p.rsplit("/", 1)[1] for p in outputs[1]]
        assert names_a == names_b and names_a, name
        for pa, pb in zip(outputs[0], outputs[1]):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), (name, pa)
            compared += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget
    _report(capsys, 12, ok, budget, elapsed,
            f"{compared} CSV artifacts byte-identical across reruns of "
            f"all {len(EXPERIMENTS)} experiments")
    assert compared >= len(EXPERIMENTS)
    assert elapsed < budget
