"""Plain reference loops for the stacked checkers, the backward sweep and
the memory terms, the operator samplers written with ``choice`` and
``uniform``, the Yosida regularization checked against its two
identities (``yosida``), and the built-in drifts, their Jacobians and
their parts written on the grid by hand (``drift_eval``,
``drift_jacobian``, ``drift_parts``), which the drifts' composed terms
must reproduce.  ``energy_residual`` recomputes a forward path's
energy-identity ledger from its stored states, one step at a time.

Each checker oracle draws and evaluates one sample at a time, in the
order the stacked checker draws them, and appends its violations as it
goes; it is the checker written the plain way.  ``assert_same_report``
compares a stacked report with its oracle's.  The backward oracles are
the regression design as a product of array powers (``design``), the
regression sweep with three full fits per step and the driver matrix
with one driver call per grid time; the last two take the arguments of
``monosee.bsde._backward_sweep`` and ``_driver_matrix`` and stand in
for them; ``martingale_residuals`` fits one grid time at a time.  The
memory oracles build the window at one grid time by searching and
interpolating the stored path (``segment``), and tabulate the frozen
functional terms with one coefficient call per window and a Python
loop over the source times (``frozen_terms``, which takes the
arguments of ``monosee.functional._frozen_terms``).  The sampler oracles
draw each time with ``rng.choice`` or ``rng.uniform`` and the u = v coin
with ``rng.uniform()``; ``monosee.operators.state_sampler`` and
``pair_sampler`` must draw the same stream with the primitive draws.
"""

import math

import numpy as np

from monosee.analysis import rho_eval
from monosee.bsde import (BsdeSolution, _factor, _fit, _terminal_values,
                          regularized_implicit_step)
from monosee.errors import ConfigError, NonconvergenceError
from monosee.forward import (GalerkinSystem, _noise_term, _RescaledDrift,
                             _step_defect)
from monosee.functional import Segment, _AugmentedDrift, segment_distance
from monosee.noise import EMPTY_CONTEXT, BatchContext
from monosee.operators import PhiDrift, ReactionDiffusionDrift
from monosee.reporting import Violation, ViolationReport
from monosee.resolvent import NewtonCounts, resolvent

LABELS = ("part", "property")


def assert_same_report(stacked, oracle, rel=1e-9):
    """Same name, size, notes, flagged (index, t) rows in order, detail
    keys and labels; excess within ``rel`` relative (inf and NaN
    exactly)."""
    assert (stacked.name, stacked.n_samples, stacked.tol) \
        == (oracle.name, oracle.n_samples, oracle.tol)
    assert stacked.notes == oracle.notes
    assert [(v.index, v.t) for v in stacked.violations] \
        == [(v.index, v.t) for v in oracle.violations]
    for got, want in zip(stacked.violations, oracle.violations):
        assert sorted(got.detail) == sorted(want.detail)
        for key in LABELS:
            assert got.detail.get(key) == want.detail.get(key)
        if math.isfinite(want.excess):
            assert abs(got.excess - want.excess) \
                <= rel * max(1.0, abs(want.excess)), (got, want)
        else:
            assert got.excess == want.excess \
                or (math.isnan(got.excess) and math.isnan(want.excess))


# ---------------------------------------------------------------------------
# operator samplers

# amplitude ranges every sampler must reject with ConfigError when built:
# a zero or negative bound, an infinite one, and lo > hi
BAD_AMP_RANGES = [(0.0, 1.0), (-1.0, 1.0), (1.0, np.inf), (10.0, 1.0),
                  (np.nan, 1.0)]


def state_sampler(triple, t_final=1.0, amp_range=(1e-3, 1e3), times=None):
    lo, hi = np.log(amp_range[0]), np.log(amp_range[1])
    times = None if times is None else np.asarray(times, dtype=float)

    def sample(rng):
        if times is None:
            t = float(rng.uniform(0.0, t_final))
        else:
            t = float(rng.choice(times))
        amp = float(np.exp(rng.uniform(lo, hi)))
        u = amp * rng.standard_normal(triple.n_grid)
        return t, u

    return sample


def pair_sampler(triple, t_final=1.0, amp_range=(1e-3, 1e3), times=None):
    single = state_sampler(triple, t_final, amp_range, times=times)

    def sample(rng):
        t, u = single(rng)
        _, v = single(rng)
        if rng.uniform() < 0.1:
            v = u.copy()
        return t, u, v

    return sample


# ---------------------------------------------------------------------------
# drifts written on the grid by hand: L phi(u) for the porous family,
# np.diff(a(grad_h u)) / h - b(u) for reaction-diffusion, a rescaled drift
# as gamma^-1 A(gamma u) - lambda0 u / 2 and an augmented one as A(u) plus
# its forcing row, with their Jacobians and their parts


def _gauge(drift, t, ctx):
    return (drift.gamma(t, ctx),
            np.asarray(drift.lambda0(t, ctx), dtype=float))


def drift_eval(drift, t, ctx, u):
    u = np.asarray(u, dtype=float)
    if isinstance(drift, PhiDrift):
        return drift.phi(t, ctx, u) @ drift.triple.laplacian
    if isinstance(drift, ReactionDiffusionDrift):
        flux = np.asarray(drift.a(t, ctx, drift.triple.grad(u)), dtype=float)
        return np.diff(flux, axis=-1) / drift.triple.h \
            - np.asarray(drift.b(t, ctx, u), dtype=float)
    if isinstance(drift, _RescaledDrift):
        g, lam0 = _gauge(drift, t, ctx)
        return drift_eval(drift.base, t, ctx, g * u) / g - 0.5 * lam0 * u
    return drift_eval(drift.base, t, ctx, u) + drift._rows.at(t)


def drift_parts(drift, t, ctx, u):
    """[(i, A_i(u))]: the divergence and reaction parts of a
    reaction-diffusion drift, the whole drift otherwise; a rescaled drift
    spreads its damping evenly over the base's parts, an augmented one
    adds its row to part 1."""
    u = np.asarray(u, dtype=float)
    if isinstance(drift, ReactionDiffusionDrift):
        flux = np.asarray(drift.a(t, ctx, drift.triple.grad(u)), dtype=float)
        return [(1, np.diff(flux, axis=-1) / drift.triple.h),
                (2, -np.asarray(drift.b(t, ctx, u), dtype=float))]
    if isinstance(drift, _RescaledDrift):
        g, lam0 = _gauge(drift, t, ctx)
        base = drift_parts(drift.base, t, ctx, g * u)
        share = 0.5 * lam0 / len(base)
        return [(i, f / g - share * u) for i, f in base]
    if isinstance(drift, _AugmentedDrift):
        (_, first), *rest = drift_parts(drift.base, t, ctx, u)
        return [(1, first + drift._rows.at(t)), *rest]
    return [(1, drift_eval(drift, t, ctx, u))]


def drift_jacobian(drift, t, ctx, u):
    u = np.asarray(u, dtype=float)
    lap = drift.triple.laplacian
    if isinstance(drift, PhiDrift):  # PorousMediumDrift included
        pp = np.asarray(drift.phi_prime(t, ctx, u), dtype=float)
        return lap * pp[..., np.newaxis, :]
    if isinstance(drift, ReactionDiffusionDrift):
        grad = drift.triple.gradient
        ap = np.asarray(drift.a_prime(t, ctx, u @ grad), dtype=float)
        bp = np.asarray(drift.b_prime(t, ctx, u), dtype=float)
        return -(grad * ap[..., np.newaxis, :]) @ grad.T \
            - bp[..., np.newaxis] * np.eye(len(grad))
    if isinstance(drift, _RescaledDrift):
        g, lam0 = _gauge(drift, t, ctx)
        return drift_jacobian(drift.base, t, ctx, g * u) \
            - 0.5 * lam0[..., np.newaxis] * np.eye(u.shape[-1])
    return drift_jacobian(drift.base, t, ctx, u)


# ---------------------------------------------------------------------------
# energy ledger


def energy_residual(path, drift, diffusion, noise):
    """Recompute the per-step energy-identity defect from a stored path.

    Expects the operators the trajectory was actually stepped with; for a
    rescaled solve that means the transformed ones.  Re-evaluates r =
    x + sigma(t_k, x) dW and b(t_k + dt, y) at the stored states, the
    times solve_forward steps at, and applies the same ledger formula, so
    it reproduces the stored ledger bit for bit.
    """
    system = GalerkinSystem(drift, diffusion, path.n_modes, path.triple)
    ctx = BatchContext(noise)
    dt = noise.dt
    out = np.empty(path.n_steps)
    for k in range(path.n_steps):
        ctx.index = k
        t0 = float(noise.times[k])
        x, y = path.coeffs[None, k], path.coeffs[None, k + 1]
        r = x + _noise_term(system.sigma(t0, ctx, x), noise.increments[:, k])
        [out[k]] = _step_defect(y, r, system.b(t0 + dt, ctx, y), dt)
    return out


# ---------------------------------------------------------------------------
# resolvent and Yosida


def yosida(F, t, eps, x, tol=1e-12, max_iter=200):
    """Yosida regularization A_eps(x) = (J_eps(x) - x)/eps = F(t, J_eps(x)).

    Both identities are checked against each other; disagreement beyond the
    solver tolerance (amplified by 1/eps) means the inner solve lied and is
    reported as nonconvergence.
    """
    x = np.asarray(x, dtype=float)
    j = resolvent(F, t, eps, x, tol=tol, max_iter=max_iter)
    a = (j - x) / eps
    gap = float(np.max(np.abs(a - np.asarray(F.eval(t, j), dtype=float))))
    allowed = 10.0 * tol * (1.0 + float(np.max(np.abs(x)))) / eps
    if gap > allowed:
        raise NonconvergenceError(
            f"yosida identity mismatch for {F.name}: |(J-x)/eps - F(J)| = "
            f"{gap:.3e} > {allowed:.3e}", residuals=[gap])
    return a


def dissipativity(F, sampler, n_samples=500, seed=0, tol=1e-12, t=0.0):
    rng = np.random.default_rng(seed)
    report = ViolationReport(name=f"dissipativity[{F.name}]",
                             n_samples=n_samples, tol=tol)
    for i in range(n_samples):
        x = np.asarray(sampler(rng), dtype=float)
        y = np.asarray(sampler(rng), dtype=float)
        fx = np.asarray(F.eval(t, x), dtype=float)
        fy = np.asarray(F.eval(t, y), dtype=float)
        inner = float(np.sum((x - y) * (fx - fy)))
        if inner > tol:
            report.violations.append(Violation(
                index=i, t=t, excess=inner - tol,
                detail={"inner": inner, "x": x, "y": y}))
    return report


def yosida_properties(F, sampler, n_samples=200, seed=0, tol=1e-8, t=0.0):
    rng = np.random.default_rng(seed)
    report = ViolationReport(name=f"yosida properties[{F.name}]",
                             n_samples=n_samples, tol=tol)

    def j_and_a(eps, x):
        j = resolvent(F, t, eps, x, tol=1e-13)
        return j, (j - x) / eps

    for i in range(n_samples):
        eps = float(10.0 ** rng.uniform(-3, 0))
        x = np.asarray(sampler(rng), dtype=float)
        y = np.asarray(sampler(rng), dtype=float)
        try:
            _, ax = j_and_a(eps, x)
            _, ay = j_and_a(eps, y)
        except NonconvergenceError as exc:
            report.violations.append(Violation(
                index=i, t=eps, excess=np.inf,
                detail={"property": "resolvent solve", "error": str(exc)}))
            continue
        scale = 1.0 + float(np.linalg.norm(x) + np.linalg.norm(y))
        inner = float(np.sum((x - y) * (ax - ay)))
        if inner > tol * scale:
            report.violations.append(Violation(
                index=i, t=eps, excess=inner,
                detail={"property": "I monotonicity"}))
        lhs = float(np.linalg.norm(ax - ay))
        rhs = float(np.linalg.norm(x - y)) / eps
        if lhs > rhs * (1.0 + tol) + tol:
            report.violations.append(Violation(
                index=i, t=eps, excess=lhs - rhs,
                detail={"property": "II lipschitz"}))
        na = float(np.linalg.norm(ax))
        nf = float(np.linalg.norm(np.asarray(F.eval(t, x), dtype=float)))
        if na > nf * (1.0 + tol) + tol:
            report.violations.append(Violation(
                index=i, t=eps, excess=na - nf,
                detail={"property": "III domination"}))

    eps_grid = np.logspace(-1, -5, 9)
    for i in range(5):
        x = np.asarray(sampler(rng), dtype=float)
        fx = np.asarray(F.eval(t, x), dtype=float)
        gaps = []
        for eps in eps_grid:
            try:
                _, ax = j_and_a(float(eps), x)
            except NonconvergenceError:
                gaps.append(np.inf)
                continue
            gaps.append(float(np.linalg.norm(ax - fx)))
        worsened = [k for k in range(1, len(gaps))
                    if gaps[k] > gaps[k - 1] + tol * (1.0 + gaps[k - 1])]
        if worsened or not gaps[-1] <= gaps[0] + tol:
            report.violations.append(Violation(
                index=n_samples + i, t=float(eps_grid[-1]),
                excess=float(gaps[-1] - gaps[0]),
                detail={"property": "IV convergence", "gaps": gaps}))
    report.notes.append(
        "eps drawn log-uniform from [1e-3, 1]; property IV swept on "
        f"{len(eps_grid)} decreasing eps values at 5 base points")
    return report


# ---------------------------------------------------------------------------
# backward drivers


def driver_modulus(driver, sampler, n_samples=500, seed=0, tol=1e-10):
    rng = np.random.default_rng(seed)
    report = ViolationReport(name=f"driver modulus[{driver.name}]",
                             n_samples=n_samples, tol=tol)
    for i in range(n_samples):
        t, x, z = sampler(rng)
        _, x2, z2 = sampler(rng)
        if rng.uniform() < 0.1:
            x2, z2 = x.copy(), z.copy()
        dc = np.asarray(driver.eval(t, x, z), dtype=float) \
            - np.asarray(driver.eval(t, x2, z2), dtype=float)
        lhs = float(np.sum(dc * dc))
        dx2 = float(np.sum((x - x2) ** 2))
        dz2 = float(np.sum((z - z2) ** 2))
        rhs = driver.c1 * (float(rho_eval(dx2, driver.rho)) + dz2)
        excess = lhs - rhs
        scale = 1.0 + lhs + rhs
        if excess > tol * scale:
            report.violations.append(Violation(
                index=i, t=t, excess=excess,
                detail={"lhs": lhs, "rhs": rhs, "dx2": dx2, "dz2": dz2}))
    return report


def driver_growth(driver, sampler, n_samples=500, seed=0, tol=1e-10):
    rng = np.random.default_rng(seed)
    report = ViolationReport(name=f"driver growth[{driver.name}]",
                             n_samples=n_samples, tol=tol)
    for i in range(n_samples):
        t, x, z = sampler(rng)
        lhs = float(np.linalg.norm(driver.eval(t, x, z)))
        zeta = 0.0 if driver.zeta is None else float(driver.zeta(t))
        rhs = zeta + driver.c2 * (
            float(np.linalg.norm(x)) + float(np.linalg.norm(z)))
        excess = lhs - rhs
        scale = 1.0 + lhs + rhs
        if excess > tol * scale:
            report.violations.append(Violation(
                index=i, t=t, excess=excess, detail={"lhs": lhs, "rhs": rhs}))
    return report


# ---------------------------------------------------------------------------
# backward regression sweep


def design(basis, states):
    """``PolynomialBasis.design`` as the product over the variables of
    ``states ** exponents``, one term at a time: the (..., terms) design of
    a (..., variables) stack."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    out = np.empty(states.shape[:-1] + (basis.n_terms,))
    for j, e in enumerate(basis.exponents):
        np.prod(states ** np.asarray(e, dtype=float), axis=-1,
                out=out[..., j])
    return out


def driver_matrix(driver, times, x_frozen, z_frozen, counts):
    values = np.empty(x_frozen.shape)
    for k in range(z_frozen.shape[1]):
        xs = x_frozen[:, k]
        out = np.asarray(driver.eval(float(times[k]), xs, z_frozen[:, k]),
                         dtype=float)
        if out.shape != xs.shape:
            raise ConfigError(f"driver {driver.name} returned shape "
                              f"{out.shape} for stacked input {xs.shape}")
        values[:, k] = out
    counts.driver_evaluations += 1
    return values


def backward_sweep(problem, batch, basis, regression, c_values,
                   resolvent_tol, resolvent_max_iter, counts):
    """The sweep with three full fits per step, each through ``_fit`` on
    a factor of its own: every grid time's design, built here from the
    batch's per-path cumulative noise, is factored alone by ``_factor``;
    ``regression`` (the solver's stacked factors) is not read."""
    times = batch.times
    n = batch.n_steps
    dt = batch.dt
    r_count = batch.n_replicas
    d = problem.dim
    m = problem.n_modes
    incs = batch.increments

    x_paths = np.empty((r_count, n + 1, d))
    z_paths = np.empty((r_count, n, d, m))
    cond = np.empty((r_count, n, d))
    x_coeffs = np.empty((n + 1, basis.n_terms, d))
    z_coeffs = np.empty((n, basis.n_terms, d, m))
    x_stderr = np.empty(n + 1)
    z_stderr = np.empty(n)
    states = np.concatenate([np.zeros((r_count, 1, m)),
                             np.cumsum(incs, axis=1)], axis=1)
    designs = [basis.design(states[:, k])[None] for k in range(n + 1)]
    factored = [_factor(design, basis.names, (float(t),))
                for design, t in zip(designs, times)]

    def fit(k, targets):
        """(coeffs, fitted, stderr) of (samples, t) targets, the full fit."""
        counts.fits += 1
        factor, n_active = factored[k]
        coeffs, fitted = _fit(designs[k] @ factor, factor, targets[None])
        stderr = float(np.sqrt(np.mean((targets - fitted[0]) ** 2)
                               * n_active[0] / len(targets)))
        return coeffs[0], fitted[0], stderr

    counts.sweeps += 1
    newton = NewtonCounts((r_count, d) if problem.drift.diagonal else r_count)
    x_paths[:, n] = _terminal_values(problem, batch)
    x_coeffs[n], fitted, x_stderr[n] = fit(n, x_paths[:, n])
    terminal_residual = float(np.sqrt(np.mean((x_paths[:, n] - fitted) ** 2)))

    for k in range(n - 1, -1, -1):
        _, fit_cond, se_cond = fit(k, x_paths[:, k + 1])
        cond[:, k] = fit_cond
        x_stderr[k] = se_cond
        x_paths[:, k] = regularized_implicit_step(
            problem.drift, float(times[k + 1]), dt,
            fit_cond + dt * c_values[:, k], tol=resolvent_tol,
            max_iter=resolvent_max_iter, counts=newton)
        x_coeffs[k], _, _ = fit(k, x_paths[:, k])
        z_targets = (x_paths[:, k + 1][:, :, None]
                     * incs[:, k][:, None, :] / dt).reshape(r_count, d * m)
        zc, z_fit, z_stderr[k] = fit(k, z_targets)
        z_coeffs[k] = zc.reshape(basis.n_terms, d, m)
        z_paths[:, k] = z_fit.reshape(r_count, d, m)
    counts.newton_iterations += int(newton.iterations.sum())
    counts.line_search_halvings += int(newton.halvings.sum())

    return BsdeSolution(times=times.copy(), x_coeffs=x_coeffs,
                        z_coeffs=z_coeffs, x_paths=x_paths, z_paths=z_paths,
                        conditional_fit=cond, driver_values=c_values,
                        basis=basis, x_fit_stderr=x_stderr,
                        z_fit_stderr=z_stderr,
                        terminal_residual=terminal_residual)


def martingale_residuals(solution, problem, batch):
    """``monosee.bsde.martingale_residuals`` one grid time at a time: the
    compensated increment X(t_{k+1}) - conditional fit - Z(t_k) dW_k
    projected on a design built here and factored alone by ``_factor``,
    its rms over paths per step."""
    incs = batch.increments
    states = np.concatenate([np.zeros((batch.n_replicas, 1, batch.n_modes)),
                             np.cumsum(incs, axis=1)], axis=1)
    out = np.empty(solution.n_steps)
    for k in range(solution.n_steps):
        design = solution.basis.design(states[:, k])[None]
        factor, _ = _factor(design, solution.basis.names,
                            (float(batch.times[k]),))
        noise_term = np.einsum("rdm,rm->rd", solution.z_paths[:, k],
                               incs[:, k])
        target = (solution.x_paths[:, k + 1] - solution.conditional_fit[:, k]
                  - noise_term)
        _, fitted = _fit(design @ factor, factor, target[None])
        out[k] = float(np.sqrt(np.mean(np.sum(fitted[0] ** 2, axis=1))))
    return out


# ---------------------------------------------------------------------------
# functional and Volterra coefficients


def _profile_value(profile, *args) -> float:
    if profile is None:
        return 0.0
    if callable(profile):
        return float(profile(*args))
    return float(profile)


def _hs_norm_sq(mat, norm) -> float:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return float(sum(norm(mat[:, j]) ** 2 for j in range(mat.shape[1])))


def functional_lipschitz(coeffs, sampler, n_samples=300, seed=0, tol=1e-10):
    rng = np.random.default_rng(seed)
    report = ViolationReport(name=f"functional modulus[{coeffs.name}]",
                             n_samples=n_samples, tol=tol)
    for i in range(n_samples):
        t, s, seg_a, seg_b = sampler(rng)
        norm = seg_a.row_norm
        dist_sq = segment_distance(seg_a, seg_b) ** 2
        checks = []
        if coeffs.c1 is not None:
            lhs = norm(np.asarray(coeffs.c1(t, seg_a), dtype=float)
                       - np.asarray(coeffs.c1(t, seg_b), dtype=float)) ** 2
            checks.append(("c1", lhs, _profile_value(coeffs.lambda3, t)))
        if coeffs.d1 is not None:
            diff = (np.atleast_2d(np.asarray(coeffs.d1(t, seg_a), float))
                    - np.atleast_2d(np.asarray(coeffs.d1(t, seg_b), float)))
            checks.append(("d1", _hs_norm_sq(diff, norm),
                           _profile_value(coeffs.lambda3, t)))
        if coeffs.c2 is not None:
            lhs = norm(np.asarray(coeffs.c2(t, s, seg_a), dtype=float)
                       - np.asarray(coeffs.c2(t, s, seg_b), dtype=float)) ** 2
            checks.append(("c2", lhs, _profile_value(coeffs.lambda5, t, s)))
        if coeffs.d2 is not None:
            diff = (np.atleast_2d(np.asarray(coeffs.d2(t, s, seg_a), float))
                    - np.atleast_2d(np.asarray(coeffs.d2(t, s, seg_b),
                                               float)))
            checks.append(("d2", _hs_norm_sq(diff, norm),
                           _profile_value(coeffs.lambda5, t, s)))
        for label, lhs, rate in checks:
            rhs = rate * rho_eval(dist_sq, coeffs.rho)
            excess = (lhs - rhs) / (1.0 + lhs + rhs)
            if excess > tol:
                report.violations.append(Violation(
                    index=i, t=t, excess=float(excess),
                    detail={"part": label, "lhs": lhs, "rhs": rhs,
                            "distance_sq": dist_sq}))
    return report


def functional_growth(coeffs, bundle, sampler, n_samples=300, seed=0,
                      tol=1e-10, t_final=1.0, n_quad=65):
    rng = np.random.default_rng(seed)
    report = ViolationReport(name=f"functional growth[{coeffs.name}]",
                             n_samples=n_samples, tol=tol)
    report.notes.append(
        "one-time growth scale uses min(lambda1, lambda2)^(2/q1): the "
        "declared bounds disagree on which coercivity rate anchors it")

    def scale_one(t):
        l1 = float(bundle.lambda1(t, EMPTY_CONTEXT))
        l2 = float(bundle.lambda2(t, EMPTY_CONTEXT))
        return coeffs.growth_c0 * min(l1, l2) ** (2.0 / bundle.q1)

    for i in range(n_samples):
        t, s, seg_a, _ = sampler(rng)
        norm = seg_a.row_norm
        sup_sq = seg_a.sup_norm() ** 2
        if coeffs.c1 is not None or coeffs.d1 is not None:
            lhs = 0.0
            if coeffs.c1 is not None:
                lhs += norm(np.asarray(coeffs.c1(t, seg_a), float)) ** 2
            if coeffs.d1 is not None:
                lhs += _hs_norm_sq(coeffs.d1(t, seg_a), norm)
            rhs = scale_one(t) * (_profile_value(coeffs.zeta, t) + sup_sq)
            excess = (lhs - rhs) / (1.0 + lhs + rhs)
            if excess > tol:
                report.violations.append(Violation(
                    index=i, t=t, excess=float(excess),
                    detail={"part": "one-time", "lhs": lhs, "rhs": rhs}))
        if coeffs.c2 is not None or coeffs.d2 is not None:
            lhs = 0.0
            if coeffs.c2 is not None:
                lhs += norm(np.asarray(coeffs.c2(t, s, seg_a), float)) ** 2
            if coeffs.d2 is not None:
                lhs += _hs_norm_sq(coeffs.d2(t, s, seg_a), norm)
            rhs = _profile_value(coeffs.lambda6, t, s) \
                + _profile_value(coeffs.lambda7, t, s) * sup_sq
            excess = (lhs - rhs) / (1.0 + lhs + rhs)
            if excess > tol:
                report.violations.append(Violation(
                    index=i, t=t, excess=float(excess),
                    detail={"part": "two-time", "s": s, "lhs": lhs,
                            "rhs": rhs}))

    for t in np.linspace(t_final / 8.0, t_final, 8):
        grid = np.linspace(0.0, float(t), n_quad)
        vals = np.array([_profile_value(coeffs.lambda6, float(t), float(s))
                         + _profile_value(coeffs.lambda7, float(t), float(s))
                         for s in grid])
        mass = float(np.trapezoid(vals, grid))
        cap = scale_one(float(t))
        excess = (mass - cap) / (1.0 + mass + cap)
        if excess > tol:
            report.violations.append(Violation(
                index=-1, t=float(t), excess=float(excess),
                detail={"part": "two-time rate budget", "mass": mass,
                        "cap": cap}))
    return report


def volterra_partials(v, sampler, n_samples=200, seed=0, rel_tol=1e-6,
                      fd_step=1e-5, t_final=1.0):
    rng = np.random.default_rng(seed)
    report = ViolationReport(name=f"volterra partials[{v.name}]",
                             n_samples=n_samples, tol=rel_tol)
    pairs = []
    if v.drift_kernel is not None:
        pairs.append(("drift_kernel", v.drift_kernel, v.drift_kernel_dt))
    if v.diffusion_kernel is not None:
        pairs.append(("diffusion_kernel", v.diffusion_kernel,
                      v.diffusion_kernel_dt))
    for i in range(n_samples):
        t, s, seg, _ = sampler(rng)
        t = min(max(t, fd_step), t_final - fd_step)
        for label, kernel, partial in pairs:
            hi = np.asarray(kernel(t + fd_step, s, seg), dtype=float)
            lo = np.asarray(kernel(t - fd_step, s, seg), dtype=float)
            fd = (hi - lo) / (2.0 * fd_step)
            ref = np.zeros_like(fd) if partial is None \
                else np.asarray(partial(t, s, seg), dtype=float)
            err = float(np.max(np.abs(fd - ref)))
            scale = 1.0 + float(np.max(np.abs(ref))) \
                + float(np.max(np.abs(fd)))
            if err / scale > rel_tol:
                report.violations.append(Violation(
                    index=i, t=t, excess=float(err / scale - rel_tol),
                    detail={"part": label, "s": s, "fd_error": err}))
    return report


# ---------------------------------------------------------------------------
# memory terms, one window and one sample at a time

_GRID_ATOL = 1e-12


def _interp_rows(times, rows, t):
    scale = max(1.0, abs(float(times[0])), abs(float(times[-1])))
    if t < times[0] - _GRID_ATOL * scale or t > times[-1] + _GRID_ATOL * scale:
        raise ConfigError(f"time {t:g} outside the stored range "
                          f"[{times[0]:g}, {times[-1]:g}]")
    idx = int(np.searchsorted(times, t))
    if idx < len(times) and abs(float(times[idx]) - t) <= _GRID_ATOL * scale:
        return rows[idx].copy()
    if idx > 0 and abs(float(times[idx - 1]) - t) <= _GRID_ATOL * scale:
        return rows[idx - 1].copy()
    lo, hi = idx - 1, idx
    w = (t - float(times[lo])) / (float(times[hi]) - float(times[lo]))
    return (1.0 - w) * rows[lo] + w * rows[hi]


def segment(path, t):
    """The window of ``path`` ending at time t: stored states inside it
    exactly, its endpoints interpolated when they fall between stored
    times."""
    t = float(t)
    if t < -_GRID_ATOL or t > path.t_end + _GRID_ATOL * max(1.0, path.t_end):
        raise ConfigError(f"segment time {t:g} outside the trajectory range "
                          f"[0, {path.t_end:g}]")
    t = min(max(t, 0.0), path.t_end)
    mem = path.past.memory
    lo = t - mem
    ct, cv = path.combined_times, path.combined_values
    guard = _GRID_ATOL * max(1.0, mem, abs(t))
    inside = np.nonzero((ct > lo + guard) & (ct < t - guard))[0]
    theta = np.concatenate([[-mem], ct[inside] - t, [0.0]]) if mem > 0 \
        else np.array([0.0])
    first = _interp_rows(ct, cv, lo)
    last = _interp_rows(ct, cv, t)
    if mem > 0:
        rows = np.vstack([first[None, :], cv[inside], last[None, :]])
    else:
        rows = last[None, :]
    return Segment(theta=theta, values=rows, norm=path.h_norm_of)


def _per_sample(fn, times, segs, who, factor=False):
    out = [(np.atleast_2d if factor else np.asarray)(
        np.asarray(fn(*args, seg), dtype=float))
        for *args, seg in zip(*(np.asarray(t).tolist() for t in times), segs)]
    width, shapes = segs[0].width, {o.shape for o in out}
    for shape in shapes:
        if shape[0] != width or not (factor or len(shape) == 1):
            raise ConfigError(f"{who} returned shape {shape}, expected "
                              f"({width},{' noise modes' * factor})")
    if len(shapes) > 1:
        raise ConfigError(f"{who} must return a fixed shape along the grid")
    return np.array(out)


def _against_increments(mat, inc_row, who):
    if mat.shape[1] > len(inc_row):
        raise ConfigError(f"{who} returned {mat.shape[1]} noise columns but "
                          f"the noise path carries only {len(inc_row)} modes")
    return mat @ inc_row[:mat.shape[1]]


def frozen_terms(coeffs, path, noise):
    times = path.times
    n_pts = len(times)
    width = path.width
    dt = float(times[1] - times[0]) if n_pts > 1 else 0.0
    segs = [segment(path, float(t)) for t in times]

    g_rows = np.zeros((n_pts, width))
    if coeffs.c1 is not None:
        g_rows += _per_sample(coeffs.c1, (times,), segs, "c1")
    for k in range(1, n_pts):
        past = (np.full(k, times[k]), times[:k])
        if coeffs.c2 is not None:
            g_rows[k] += dt * sum(_per_sample(coeffs.c2, past, segs[:k], "c2"),
                                  np.zeros(width))
        if coeffs.d2 is not None:
            g_rows[k] += sum(
                (_against_increments(mat, noise.increments[0, j], "d2")
                 for j, mat in enumerate(_per_sample(
                     coeffs.d2, past, segs[:k], "d2", factor=True))),
                np.zeros(width))
    if coeffs.d1 is None:
        return g_rows, np.zeros((n_pts, width, 1))
    d_rows = _per_sample(coeffs.d1, (times,), segs, "d1", factor=True)
    if d_rows.shape[2] > noise.n_modes:
        raise ConfigError("d1 returned more noise columns than the noise "
                          "path carries")
    return g_rows, d_rows
