"""The experiment registry: named end-to-end runs wiring the modules
together, each writing CSV artifacts, an optional SVG, and a JSON run
manifest.

Every experiment is deterministic in (config, seed): numeric output
bytes depend on nothing else.  Replicas use indexed substreams of the
base seed, stacked into one NoiseBatch: the forward demos step it with
one batched forward solve (each replica follows the iterates it would
follow alone), the backward experiments regress across it, and the
ensemble is reduced in replica order.  The manifest is
written even when a run fails, with the error recorded; the replica
demos also record their solver counters in it (``solver_stats``).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from . import __version__
from .analysis import (bihari_bound, convergence_order, linear_modulus,
                       rho_eval, rho_k_modulus, sup_h_distance,
                       zero_limit_check)
from .bsde import (BsdeDriver, BsdeProblem, picard_in_x, picard_in_z,
                   polynomial_basis, solution_csv, solve_bsde_autonomous_C,
                   zero_driver)
from .config import ExperimentConfig
from .errors import ConfigError, NonconvergenceError
from .forward import SolverConfig, apriori_norms, solve_forward, trajectory_csv
from .functional import (FunctionalCoefficients, VolterraCoefficients,
                         bihari_domination_report, functional_trajectory_csv,
                         initial_segment, lambda8_profile,
                         picard_solve_functional, volterra_consistency)
from .noise import (NoiseContext, refine_path, sample_batch, sample_path,
                    zero_path)
from .operators import (PhiDrift, build_operator_set, check_boundedness,
                        check_coercivity, check_hemicontinuity,
                        check_monotonicity, pair_sampler, state_sampler)
from .resolvent import MonotoneMap, NewtonCounts
from .triple import DiscreteTriple
from .functional import SegmentPath  # noqa: F401  (re-export convenience)

__all__ = ["EXPERIMENTS", "Assertion", "ExperimentOutcome", "RunResult",
           "run_experiment", "validate_experiment", "list_experiments",
           "resolve_output_dir", "write_csv", "svg_series"]

OUTPUT_ROOT_ENV = "MONOSEE_OUTPUT_ROOT"

# galerkin_convergence's fixed refinement ladder; n_grid must hold its top
GALERKIN_MODE_COUNTS = (8, 16, 32, 64)

# bsde_linear_validation's closed-form probe times; each must fall on a
# grid index before the horizon, where Z is defined
BSDE_PROBE_TIMES = (0.25, 0.5, 0.75)


# ---------------------------------------------------------------------------
# artifact plumbing


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _csv_cell(value) -> str:
    text = _fmt(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows) -> None:
    """RFC-4180 table: comma separated, CRLF line ends, 17 significant
    digits for floats, quoted only when a cell needs it."""
    lines = [",".join(_csv_cell(h) for h in header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    Path(path).write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")


def svg_series(path, x, series: dict, title: str = "",
               width: int = 640, height: int = 400) -> None:
    """A dependency-free line plot of (x, y) series, one polyline each."""
    x = np.asarray(x, dtype=float)
    margin = 54.0
    inner_w, inner_h = width - 2 * margin, height - 2 * margin
    ys = {name: np.asarray(y, dtype=float) for name, y in series.items()}
    y_all = np.concatenate(list(ys.values())) if ys else np.zeros(1)
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * inner_w

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * inner_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']
    axis = (f'<line x1="{margin}" y1="{height - margin}" '
            f'x2="{width - margin}" y2="{height - margin}" '
            f'stroke="black"/>'
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
            f'y2="{height - margin}" stroke="black"/>')
    parts.append(axis)
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 16:.1f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{xv:.3g}</text>')
        parts.append(f'<text x="{margin - 6:.1f}" y="{sy(yv) + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{yv:.3g}</text>')
    for i, (name, y) in enumerate(ys.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin:.1f}" '
                     f'y="{margin + 16 * i + 12:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentOutcome:
    summary: dict = field(default_factory=dict)
    assertions: List[Assertion] = field(default_factory=list)
    # deterministic work counters; kept out of ``summary`` and every CSV
    solver_stats: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.assertions.append(Assertion(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


@dataclass
class RunResult:
    experiment: str
    out_dir: Path
    outcome: ExperimentOutcome
    manifest_path: Path

    @property
    def passed(self) -> bool:
        return self.outcome.passed


# ---------------------------------------------------------------------------
# config access with defaults


def _num(config: ExperimentConfig, key: str, default):
    return config.numerics.get(key, default)


def _prob(config: ExperimentConfig, key: str, default):
    return config.problem.get(key, default)


def _mc(config: ExperimentConfig, key: str, default):
    return config.monte_carlo.get(key, default)


def _require_p_ge_2(config: ExperimentConfig, problems: List[str]) -> None:
    p = _prob(config, "p", 3.0)
    if p < 2.0:
        problems.append(f"problem.p = {p:g} violates p >= 2 "
                        f"(degenerate-diffusion exponent)")


def _require_positive(problems: List[str], label: str, value) -> None:
    if not value > 0:
        problems.append(f"{label} must be positive, got {value!r}")


# ---------------------------------------------------------------------------
# experiments


def _demo_solver_config(config: ExperimentConfig) -> SolverConfig:
    return SolverConfig(n_modes_galerkin=_num(config, "n_modes", 8),
                        resolvent_tol=_num(config, "resolvent_tol", 1e-10),
                        resolvent_max_iter=_num(config, "resolvent_max_iter",
                                                50))


def _demo_common(config: ExperimentConfig, out_dir: Path, set_name: str,
                 label: str) -> ExperimentOutcome:
    p = _prob(config, "p", 3.0)
    n_grid = _prob(config, "n_grid", 16)
    n_modes = _num(config, "n_modes", 8)
    t_final = _num(config, "t_final", 0.25)
    n_steps = _num(config, "n_steps", 250)
    replicas = _mc(config, "replicas", 64)
    seed = _mc(config, "seed", 2026)

    ops = build_operator_set(set_name, n_grid, p=p, n_modes=1)
    cfg = _demo_solver_config(config)
    u0 = (_prob(config, "u0_scale", 1.0)
          * ops.triple.basis_function(_prob(config, "u0_mode", 1)))

    outcome = ExperimentOutcome()
    batch = sample_batch(seed=seed, t_final=t_final, n_steps=n_steps,
                         n_modes=1, replicas=replicas)
    counts = NewtonCounts(replicas)
    paths = solve_forward(cfg, ops.drift, ops.diffusion, batch, u0,
                          bundle=ops.bundle, counts=counts)
    h_sq = np.stack([path.h_norm_sq for path in paths])
    energy_sup = max(float(np.max(np.abs(np.cumsum(path.energy_residual))))
                     for path in paths)
    first, noise0 = paths[0], batch.path(0)
    outcome.solver_stats = {
        "forward_steps": replicas * n_steps,
        "newton_iterations": int(counts.iterations.sum()),
        "line_search_halvings": int(counts.halvings.sum())}

    times = first.times
    mean_h = h_sq.mean(axis=0)
    max_h = h_sq.max(axis=0)
    write_csv(out_dir / "h_norm_sq_series.csv",
              ["t", "mean_h_norm_sq", "max_h_norm_sq"],
              zip(times, mean_h, max_h))
    (out_dir / "trajectory_replica0.csv").write_bytes(
        trajectory_csv(first).encode("utf-8"))
    svg_series(out_dir / "h_norm_sq_series.svg", times,
               {"mean": mean_h, "max": max_h},
               title=f"{label}: squared H-norm over time")

    outcome.check("states_finite", bool(np.all(np.isfinite(h_sq))),
                  f"max h_norm_sq = {float(np.max(h_sq)):.6g}")
    apriori = apriori_norms(first, ops.bundle, ctx=NoiseContext(noise0))
    outcome.check("apriori_within_budget", apriori.ok, apriori.summary())
    mono = check_monotonicity(ops.drift, ops.diffusion, ops.bundle,
                              pair_sampler(ops.triple, times=noise0.times),
                              n_samples=100, seed=seed,
                              ctx=NoiseContext(noise0))
    outcome.check("monotonicity_spot_check", mono.ok, mono.summary())
    outcome.summary.update({
        "replicas": replicas, "n_steps": n_steps, "n_modes": n_modes,
        "p": p, "mean_final_h_norm_sq": float(mean_h[-1]),
        "sup_cumulative_energy_residual": energy_sup,
    })
    return outcome


def _run_porous_medium_demo(config, out_dir):
    return _demo_common(config, out_dir, "eq_1_1",
                        "degenerate diffusion with |w_t| coefficient")


def _run_reaction_diffusion_demo(config, out_dir):
    return _demo_common(config, out_dir, "eq_1_2",
                        "reaction-diffusion with |w_t| coefficients")


def _run_galerkin_convergence(config, out_dir):
    p = _prob(config, "p", 3.0)
    n_grid = _prob(config, "n_grid", 64)
    t_final = _num(config, "t_final", 0.1)
    n_steps = _num(config, "n_steps", 100)
    seed = _mc(config, "seed", 7)

    ops = build_operator_set("porous_medium", n_grid, p=p, n_modes=1)
    noise = sample_path(seed=seed, t_final=t_final, n_steps=n_steps,
                        n_modes=1)
    u0 = ops.triple.basis_function(1)
    mode_counts = GALERKIN_MODE_COUNTS
    paths = {}
    for n in mode_counts:
        cfg = SolverConfig(n_modes_galerkin=n)
        paths[n] = solve_forward(cfg, ops.drift, ops.diffusion, noise, u0)

    outcome = ExperimentOutcome()
    rows = []
    distances = []
    for n in mode_counts[:-1]:
        coarse, fine = paths[n], paths[2 * n]
        d = max(ops.triple.h_norm(coarse.states[k] - ops.triple.project(
            fine.states[k], n)) for k in range(n_steps + 1))
        distances.append(d)
        rows.append([n, 2 * n, d])
    write_csv(out_dir / "galerkin_nesting.csv",
              ["n_modes", "refined_n_modes", "sup_h_distance"], rows)
    svg_series(out_dir / "galerkin_nesting.svg",
               [float(n) for n in mode_counts[:-1]],
               {"sup-H gap to refined": distances},
               title="Galerkin nesting distances")
    for i in range(1, len(distances)):
        outcome.check(
            f"distance_decreases_n{mode_counts[i]}",
            distances[i] <= 1.10 * distances[i - 1],
            f"d({mode_counts[i]}) = {distances[i]:.6g} vs "
            f"1.10 * d({mode_counts[i - 1]}) = "
            f"{1.10 * distances[i - 1]:.6g}")
    outcome.summary.update({"distances": distances,
                            "mode_counts": list(mode_counts[:-1])})
    return outcome


def _run_timestep_convergence(config, out_dir):
    n_grid = _prob(config, "n_grid", 16)
    t_final = _num(config, "t_final", 0.2)
    ops = build_operator_set("heat", n_grid, n_modes=1)
    tr = ops.triple
    e1 = tr.basis_function(1)
    mu1 = float(tr.mu[0])

    outcome = ExperimentOutcome()
    dts = (4e-3, 2e-3, 1e-3)
    errors = []
    for dt in dts:
        n_steps = int(round(t_final / dt))
        noise = zero_path(t_final, n_steps, 1)
        cfg = SolverConfig(n_modes_galerkin=min(n_grid, 8))
        path = solve_forward(cfg, ops.drift, ops.diffusion, noise, e1)
        err = max(tr.h_norm(path.states[k]
                            - math.exp(-mu1 * path.times[k]) * e1)
                  for k in range(n_steps + 1))
        errors.append(err)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    order = convergence_order(errors, dts)
    write_csv(out_dir / "timestep_errors.csv", ["dt", "sup_h_error"],
              zip(dts, errors))
    svg_series(out_dir / "timestep_errors.svg", list(dts),
               {"sup-H error": errors}, title="implicit step error vs dt")
    for i, r in enumerate(ratios):
        outcome.check(f"halving_ratio_{i}", 1.7 <= r <= 2.3,
                      f"error({dts[i]:g}) / error({dts[i + 1]:g}) = {r:.4g}")
    outcome.summary.update({"errors": errors, "ratios": ratios,
                            "fitted_order": order, "mu1": mu1})
    return outcome


def _run_pathwise_uniqueness(config, out_dir):
    p = _prob(config, "p", 3.0)
    n_grid = _prob(config, "n_grid", 16)
    n_modes = _num(config, "n_modes", 8)
    t_final = _num(config, "t_final", 0.25)
    n_steps = _num(config, "n_steps", 100)
    seed = _mc(config, "seed", 11)

    ops = build_operator_set("porous_medium", n_grid, p=p, n_modes=1)
    cfg = SolverConfig(n_modes_galerkin=n_modes)
    noise = sample_path(seed=seed, t_final=t_final, n_steps=n_steps,
                        n_modes=1)
    tr = ops.triple
    u0 = tr.basis_function(1)
    base = solve_forward(cfg, ops.drift, ops.diffusion, noise, u0)

    outcome = ExperimentOutcome()
    deltas = (1e-1, 1e-2, 1e-3)
    rows = []
    dists = []
    for delta in deltas:
        other = solve_forward(cfg, ops.drift, ops.diffusion, noise,
                              u0 + delta * tr.basis_function(1))
        d = sup_h_distance(base, other)
        dists.append(d)
        rows.append([delta, d, d / delta])
        # same noise + dissipative drift: implicit steps are nonexpansive,
        # so the gap never exceeds the initial H-distance
        outcome.check(f"contraction_delta_{delta:g}",
                      d <= delta * 1.01 + 1e-12,
                      f"sup-H distance {d:.6g} vs initial gap {delta:g}")
    write_csv(out_dir / "pathwise_uniqueness.csv",
              ["initial_gap", "sup_h_distance", "amplification"], rows)
    outcome.check("gap_monotone_in_delta",
                  all(dists[i + 1] <= dists[i] * 1.01
                      for i in range(len(dists) - 1)),
                  f"distances {dists}")
    outcome.summary.update({"deltas": list(deltas), "distances": dists})
    return outcome


def _run_hypothesis_report(config, out_dir):
    p = _prob(config, "p", 3.0)
    n_grid = _prob(config, "n_grid", 12)
    n_samples = _mc(config, "replicas", 500)
    seed = _mc(config, "seed", 5)

    probe = sample_path(seed=seed, t_final=1.0, n_steps=64, n_modes=1)
    ctx = NoiseContext(probe)
    outcome = ExperimentOutcome()
    rows = []
    for name in ("eq_1_1", "eq_1_2"):
        ops = build_operator_set(name, n_grid, p=p, n_modes=1)
        pairs = pair_sampler(ops.triple, times=probe.times)
        singles = state_sampler(ops.triple, times=probe.times)
        reports = {
            "monotonicity": check_monotonicity(
                ops.drift, ops.diffusion, ops.bundle, pairs,
                n_samples=n_samples, seed=seed, ctx=ctx),
            "coercivity": check_coercivity(
                ops.drift, ops.diffusion, ops.bundle, singles,
                n_samples=n_samples, seed=seed, ctx=ctx),
            "boundedness": check_boundedness(
                ops.drift, ops.bundle, singles, n_samples=n_samples,
                seed=seed, ctx=ctx),
            "hemicontinuity": check_hemicontinuity(
                ops.drift, singles, n_samples=min(n_samples, 200),
                seed=seed, ctx=ctx),
        }
        for check, report in reports.items():
            rows.append([name, check, report.n_samples,
                         report.n_violations, report.ok])
            outcome.check(f"{name}_{check}", report.ok, report.summary())

    pm = build_operator_set("porous_medium", n_grid, p=p, n_modes=1)
    planted = PhiDrift(pm.triple, lambda t, c, r: np.sin(r),
                       lambda t, c, r: np.cos(r))
    flagged = check_monotonicity(
        planted, pm.diffusion, pm.bundle,
        pair_sampler(pm.triple, amp_range=(1e-1, 1e2)),
        n_samples=n_samples, seed=seed)
    rows.append(["planted_sin", "monotonicity", flagged.n_samples,
                 flagged.n_violations, flagged.ok])
    outcome.check("planted_sin_flagged", not flagged.ok, flagged.summary())
    write_csv(out_dir / "hypothesis_report.csv",
              ["operator", "check", "n_samples", "violations", "ok"], rows)
    return outcome


# the backward experiments' drift A(x) = -x and terminal X_T = W(T)
_RESTORING_DRIFT = MonotoneMap(eval=lambda t, x: -x,
                              jacobian=lambda t, x: -np.ones_like(x),
                              diagonal=True, name="linear restoring drift")


def _wiener_terminal(batch):
    return batch.scalar_paths[:, -1:]


def _bsde_basis(config):
    return polynomial_basis(1, degree=_num(config, "basis_degree", 2))


def _run_bsde_linear_validation(config, out_dir):
    t_final = _num(config, "t_final", 1.0)
    n_steps = _num(config, "n_steps", 64)
    replicas = _mc(config, "replicas", 4000)
    seed = _mc(config, "seed", 31)
    dt = t_final / n_steps

    problem = BsdeProblem(drift=_RESTORING_DRIFT, driver=zero_driver(),
                          terminal=_wiener_terminal, t_final=t_final,
                          n_modes=1, dim=1)
    batch = sample_batch(seed=seed, t_final=t_final, n_steps=n_steps,
                         n_modes=1, replicas=replicas)
    solution = solve_bsde_autonomous_C(
        problem, batch, basis=_bsde_basis(config),
        resolvent_tol=_num(config, "resolvent_tol", 1e-10),
        resolvent_max_iter=_num(config, "resolvent_max_iter", 100))
    (out_dir / "bsde_solution.csv").write_bytes(
        solution_csv(solution).encode("utf-8"))

    outcome = ExperimentOutcome()
    rows = []
    worst = 0.0
    for t_probe in BSDE_PROBE_TIMES:
        k = int(round(t_probe / dt))
        w = batch.scalar_paths[:, k]
        decay = math.exp(-(t_final - t_probe))
        x_num = solution.x_paths[:, k, 0]
        z_num = solution.z_paths[:, k, 0, 0]
        rms_x = float(np.sqrt(np.mean((x_num - decay * w) ** 2)))
        rms_z = float(np.sqrt(np.mean((z_num - decay) ** 2)))
        budget_x = 5.0 * (dt + float(solution.x_fit_stderr[k]))
        budget_z = 5.0 * (dt + float(solution.z_fit_stderr[k]))
        rows.append([t_probe, rms_x, budget_x, rms_z, budget_z])
        worst = max(worst, rms_x / budget_x, rms_z / budget_z)
        outcome.check(f"closed_form_t_{t_probe:g}",
                      rms_x <= budget_x and rms_z <= budget_z,
                      f"rms_x = {rms_x:.4g} (budget {budget_x:.4g}), "
                      f"rms_z = {rms_z:.4g} (budget {budget_z:.4g})")
    write_csv(out_dir / "bsde_rms_errors.csv",
              ["t", "rms_x_error", "x_budget", "rms_z_error", "z_budget"],
              rows)
    outcome.summary.update({"replicas": replicas, "dt": dt,
                            "worst_error_fraction": worst})
    return outcome


def _run_bsde_picard_demo(config, out_dir):
    t_final = _num(config, "t_final", 1.0)
    n_steps = _num(config, "n_steps", 32)
    replicas = _mc(config, "replicas", 400)
    seed = _mc(config, "seed", 13)
    kappa = _prob(config, "kappa", 0.4)
    max_iter = _num(config, "max_iter", 25)
    tol = _num(config, "tol", 1e-8)

    batch = sample_batch(seed=seed, t_final=t_final, n_steps=n_steps,
                         n_modes=1, replicas=replicas)
    outcome = ExperimentOutcome()

    z_driver = BsdeDriver(
        eval=lambda t, x, z: kappa * z[..., 0],
        c1=kappa ** 2, c2=abs(kappa), x_dependent=False,
        name="linear coupling in z")
    z_problem = BsdeProblem(drift=_RESTORING_DRIFT, driver=z_driver,
                            terminal=_wiener_terminal, t_final=t_final,
                            n_modes=1, dim=1)
    try:
        z_sol = picard_in_z(z_problem, batch, max_iter=max_iter, tol=tol)
        residuals = list(z_sol.picard_residuals)
        drops = sum(1 for i in range(1, len(residuals))
                    if residuals[i] > residuals[i - 1])
        outcome.check("z_iteration_eventually_decreasing", drops <= 1,
                      f"residuals {['%.3g' % r for r in residuals]}")
    except NonconvergenceError as err:
        residuals = list(err.residuals)
        outcome.check("z_iteration_eventually_decreasing", False,
                      f"no convergence in {max_iter} sweeps: "
                      f"residuals {['%.3g' % r for r in residuals]}")
    write_csv(out_dir / "picard_z_residuals.csv",
              ["iteration", "residual"],
              [[i + 1, r] for i, r in enumerate(residuals)])

    rho = rho_k_modulus(k=1)
    x_driver = BsdeDriver(
        eval=lambda t, x, z: (np.sqrt(rho_eval(np.asarray(x, float) ** 2,
                                               rho))
                              * np.sign(np.asarray(x, float))),
        rho=rho, c1=4.0, c2=2.0, z_dependent=False,
        name="concave-modulus coupling in x")
    x_problem = BsdeProblem(drift=_RESTORING_DRIFT, driver=x_driver,
                            terminal=_wiener_terminal, t_final=t_final,
                            n_modes=1, dim=1)
    try:
        x_sol = picard_in_x(x_problem, batch, max_iter=20, tol=1e-7)
        outer = list(x_sol.picard_residuals)
        outcome.check("x_iteration_converges_within_20",
                      len(outer) <= 20 and outer[-1] <= 1e-7,
                      f"{len(outer)} outer sweeps, last residual "
                      f"{outer[-1]:.3g}")
    except NonconvergenceError as err:
        outer = list(err.residuals)
        outcome.check("x_iteration_converges_within_20", False,
                      f"outer residuals {['%.3g' % r for r in outer]}")
    write_csv(out_dir / "picard_x_residuals.csv",
              ["iteration", "residual"],
              [[i + 1, r] for i, r in enumerate(outer)])
    outcome.summary.update({"kappa": kappa, "z_iterations": len(residuals),
                            "x_outer_iterations": len(outer)})
    return outcome


def _delay_toy(config):
    kappa = _prob(config, "kappa", 0.8)
    n_steps = _num(config, "n_steps", 32)
    lag_steps = _prob(config, "lag_steps", 4)
    seed = _mc(config, "seed", 77)
    t_final = _num(config, "t_final", 1.0)

    tr = DiscreteTriple(2, "reaction_diffusion")
    from .operators import ReactionDiffusionDrift
    drift = ReactionDiffusionDrift(
        tr, a=lambda t, c, r: r, b=lambda t, c, u: 0.0 * u,
        a_prime=lambda t, c, r: np.ones_like(r),
        b_prime=lambda t, c, u: 0.0 * u)
    memory = lag_steps * (t_final / n_steps)
    noise = sample_path(seed=seed, t_final=t_final, n_steps=n_steps,
                        n_modes=1)
    knots = np.linspace(-memory, 0.0, lag_steps + 1)
    knots[-1] = 0.0
    hist = np.stack([(1.0 + th) * np.array([1.0, -0.5]) for th in knots])
    x0seg = initial_segment(memory, knots, hist, triple=tr)
    d1col = np.array([[0.25], [0.4]])
    coeffs = FunctionalCoefficients(
        c1=lambda t, seg: kappa * seg.at(-memory),
        d1=lambda t, seg: d1col,
        lambda3=kappa ** 2, lambda5=0.0, name="lagged restoring force")
    cfg = SolverConfig(n_modes_galerkin=2)
    return drift, coeffs, noise, x0seg, cfg, tr


def _run_functional_delay_demo(config, out_dir):
    tol = _num(config, "tol", 1e-10)
    max_iter = _num(config, "max_iter", 40)
    drift, coeffs, noise, x0seg, cfg, tr = _delay_toy(config)

    res_a = picard_solve_functional(drift, coeffs, noise, x0seg, cfg,
                                    max_iter=max_iter, tol=tol)
    res_b = picard_solve_functional(
        drift, coeffs, noise, x0seg, cfg, max_iter=max_iter, tol=tol,
        first_iterate=np.zeros((noise.n_steps + 1, tr.n_grid)))
    gap = max(tr.h_norm(a - b) for a, b in zip(res_a.path.values,
                                               res_b.path.values))

    outcome = ExperimentOutcome()
    outcome.check("two_starts_same_fixed_point", gap <= 10 * tol,
                  f"sup-H gap between starts = {gap:.3g} vs 10 tol = "
                  f"{10 * tol:.3g}")
    lam8 = lambda8_profile(coeffs, noise.times)
    report = bihari_domination_report(res_a.residual_profiles, noise.times,
                                      lam8, coeffs.rho)
    outcome.check("differences_within_comparison_bound", report.ok,
                  report.summary())
    (out_dir / "delay_trajectory.csv").write_bytes(
        functional_trajectory_csv(res_a).encode("utf-8"))
    n_iter = max(len(res_a.residuals), len(res_b.residuals))
    rows = []
    for i in range(n_iter):
        ra = res_a.residuals[i] if i < len(res_a.residuals) else ""
        rb = res_b.residuals[i] if i < len(res_b.residuals) else ""
        rows.append([i + 1, ra, rb])
    write_csv(out_dir / "picard_residuals.csv",
              ["iteration", "constant_start", "zero_start"], rows)
    h_curve = [tr.h_norm(row) for row in res_a.path.values]
    svg_series(out_dir / "delay_solution.svg", res_a.times,
               {"H-norm of state": h_curve},
               title="delayed restoring force: converged trajectory")
    outcome.summary.update({
        "iterations_constant_start": len(res_a.residuals),
        "iterations_zero_start": len(res_b.residuals),
        "fixed_point_gap": gap, "fitted_c0": report.fitted_c0,
        "envelope_ratio": report.max_envelope_ratio,
    })
    return outcome


def _run_volterra_consistency(config, out_dir):
    n_steps = _num(config, "n_steps", 16)
    seed = _mc(config, "seed", 9)
    t_final = _num(config, "t_final", 1.0)
    kernel = _prob(config, "kernel", "exponential")
    if kernel != "exponential":
        raise ConfigError(f"unknown kernel id {kernel!r}; known: exponential")

    tr = DiscreteTriple(2, "reaction_diffusion")
    col = np.array([[0.2], [0.1]])
    v = VolterraCoefficients(
        drift_kernel=lambda t, s, seg: np.exp(-(t - s)) * seg.end,
        diffusion_kernel=lambda t, s, seg: np.exp(-(t - s)) * col,
        drift_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * seg.end,
        diffusion_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * col,
        name="exponential fading memory")

    def analytic_path(n):
        times = np.linspace(0.0, t_final, n + 1)
        memory = 0.25 * t_final
        m = int(round(memory / (t_final / n)))
        knots = np.linspace(-memory, 0.0, m + 1)
        knots[-1] = 0.0
        f = lambda t: np.array([np.sin(t + 1.0), np.cos(2.0 * t)])
        hist = np.stack([f(th) for th in knots])
        values = np.stack([f(t) for t in times])
        values[0] = hist[-1]
        return SegmentPath(memory=memory, history_times=knots,
                           history_values=hist, times=times,
                           values=values, triple=tr)

    coarse = sample_path(seed=seed, t_final=t_final, n_steps=n_steps,
                         n_modes=1)
    fine = refine_path(coarse)
    d_coarse = volterra_consistency(v, analytic_path(n_steps), coarse)
    d_fine = volterra_consistency(v, analytic_path(2 * n_steps), fine)
    ratio = d_coarse / d_fine if d_fine > 0 else math.inf

    outcome = ExperimentOutcome()
    write_csv(out_dir / "volterra_consistency.csv",
              ["n_steps", "dt", "sup_h_discrepancy"],
              [[n_steps, t_final / n_steps, d_coarse],
               [2 * n_steps, t_final / (2 * n_steps), d_fine]])
    outcome.check("discrepancy_halves", 1.6 <= ratio <= 2.4,
                  f"discrepancy {d_coarse:.4g} -> {d_fine:.4g}, "
                  f"ratio {ratio:.3f}")
    outcome.summary.update({"ratio": ratio, "coarse": d_coarse,
                            "fine": d_fine})
    return outcome


def _rho_k_spec(config):
    return rho_k_modulus(k=_prob(config, "rho_k", 1),
                         c0=_prob(config, "rho_c0", 1.0),
                         eta=_prob(config, "rho_eta", None))


def _run_bihari_table(config, out_dir):
    kind = _prob(config, "rho_kind", "linear")
    t_final = _num(config, "t_final", 1.0)
    n_grid_pts = 101
    t_grid = np.linspace(0.0, t_final, n_grid_pts)
    outcome = ExperimentOutcome()

    if kind == "linear":
        spec = linear_modulus(1.0)
    elif kind == "rho_k":
        spec = _rho_k_spec(config)
    else:
        raise ConfigError(f"problem.rho_kind must be linear or rho_k, "
                          f"got {kind!r}")

    bound = bihari_bound(1.0, np.ones_like(t_grid), spec, t_grid)
    write_csv(out_dir / "bihari_bound.csv", ["t", "bound"],
              zip(t_grid, bound.bound_curve))
    svg_series(out_dir / "bihari_bound.svg", t_grid,
               {"comparison bound": bound.bound_curve},
               title="comparison bound, unit rate, g0 = 1")
    if kind == "linear":
        gap = abs(float(bound.bound_curve[-1]) - math.exp(t_final))
        outcome.check("matches_exponential_closed_form", gap <= 1e-10,
                      f"|bound({t_final:g}) - e^{t_final:g}| = {gap:.3g}")
    outcome.check("bound_nondecreasing",
                  bool(np.all(np.diff(bound.bound_curve) >= -1e-12)),
                  "tabulated curve is nondecreasing")
    if kind == "rho_k":
        zl = zero_limit_check(np.ones_like(t_grid), spec, t_grid)
        outcome.check("vanishing_initial_gap_forces_zero", zl.ok,
                      zl.summary())
    outcome.summary.update({"rho_kind": kind,
                            "final_bound": float(bound.bound_curve[-1])})
    return outcome


# ---------------------------------------------------------------------------
# registry and runner


def _validate_demo(config: ExperimentConfig) -> List[str]:
    problems: List[str] = []
    _require_p_ge_2(config, problems)
    _require_positive(problems, "numerics.t_final",
                      _num(config, "t_final", 0.25))
    _require_positive(problems, "numerics.n_steps",
                      _num(config, "n_steps", 250))
    _require_positive(problems, "monte_carlo.replicas",
                      _mc(config, "replicas", 64))
    n_grid = _prob(config, "n_grid", 16)
    n_modes = _num(config, "n_modes", 8)
    if n_grid < 2:
        problems.append(f"problem.n_grid must be >= 2, got {n_grid}")
    if not 1 <= n_modes <= n_grid:
        problems.append(f"numerics.n_modes must lie in 1..n_grid "
                        f"({n_grid}), got {n_modes}")
    u0_mode = _prob(config, "u0_mode", 1)
    if not 1 <= u0_mode <= n_grid:
        problems.append(f"problem.u0_mode must lie in 1..n_grid "
                        f"({n_grid}), got {u0_mode}")
    if n_modes >= 1:  # else reported above, and SolverConfig stops at it
        try:
            _demo_solver_config(config)
        except ConfigError as err:
            problems.append(f"numerics: {err}")
    return problems


def _validate_simple(config: ExperimentConfig) -> List[str]:
    problems: List[str] = []
    _require_p_ge_2(config, problems)
    _require_positive(problems, "numerics.t_final",
                      _num(config, "t_final", 1.0))
    n_steps = _num(config, "n_steps", 32)
    if int(n_steps) < 1:
        problems.append(f"numerics.n_steps must be >= 1, got {n_steps}")
    return problems


def _require_basis_rows(problems: List[str], config: ExperimentConfig,
                        basis) -> None:
    # one replica per basis term at least; the runs' default replica
    # counts (4,000 and 400) clear it
    replicas = _mc(config, "replicas", basis.n_terms)
    if replicas < basis.n_terms:
        problems.append(f"monte_carlo.replicas must be at least the "
                        f"{basis.n_terms} regression basis terms, got "
                        f"{replicas}")


def _validate_bsde_linear(config: ExperimentConfig) -> List[str]:
    problems = _validate_simple(config)
    try:
        _require_basis_rows(problems, config, _bsde_basis(config))
    except ConfigError as err:
        problems.append(f"numerics.basis_degree: {err}")
    for key, default in (("resolvent_tol", 1e-10),
                         ("resolvent_max_iter", 100)):
        _require_positive(problems, f"numerics.{key}",
                          _num(config, key, default))
    t_final = _num(config, "t_final", 1.0)
    n_steps = _num(config, "n_steps", 64)
    if t_final > 0 and n_steps >= 1 and int(
            round(max(BSDE_PROBE_TIMES) / (t_final / n_steps))) >= n_steps:
        problems.append(f"the closed-form probe times {BSDE_PROBE_TIMES} "
                        f"must fall on grid points before t_final = "
                        f"{t_final:g} with n_steps = {n_steps}")
    return problems


def _validate_bsde_picard(config: ExperimentConfig) -> List[str]:
    problems = _validate_simple(config)
    _require_basis_rows(problems, config, polynomial_basis(1))
    _require_positive(problems, "numerics.max_iter",
                      _num(config, "max_iter", 25))
    return problems


def _validate_galerkin(config: ExperimentConfig) -> List[str]:
    problems = _validate_simple(config)
    n_grid = _prob(config, "n_grid", 64)
    if n_grid < GALERKIN_MODE_COUNTS[-1]:
        problems.append(f"problem.n_grid must be >= "
                        f"{GALERKIN_MODE_COUNTS[-1]} (the largest mode count "
                        f"of the refinement ladder), got {n_grid}")
    return problems


def _validate_delay(config: ExperimentConfig) -> List[str]:
    problems = _validate_simple(config)
    lag = _prob(config, "lag_steps", 4)
    n_steps = _num(config, "n_steps", 32)
    if not 1 <= lag <= n_steps:
        problems.append(f"problem.lag_steps must lie in 1..n_steps "
                        f"({n_steps}), got {lag}")
    kappa = _prob(config, "kappa", 0.8)
    if abs(kappa) >= 4.0:
        problems.append(f"problem.kappa = {kappa:g} is outside the "
                        f"contractive range |kappa| < 4 of the demo")
    return problems


def _validate_bihari(config: ExperimentConfig) -> List[str]:
    problems: List[str] = []
    kind = _prob(config, "rho_kind", "linear")
    if kind not in ("linear", "rho_k"):
        problems.append(f"problem.rho_kind must be linear or rho_k, "
                        f"got {kind!r}")
    if kind == "rho_k":
        try:
            _rho_k_spec(config)
        except ConfigError as err:
            problems.append(f"problem.rho_*: {err}")
    _require_positive(problems, "numerics.t_final",
                      _num(config, "t_final", 1.0))
    return problems


def _validate_volterra(config: ExperimentConfig) -> List[str]:
    problems = _validate_simple(config)
    kernel = _prob(config, "kernel", "exponential")
    if kernel != "exponential":
        problems.append(f"problem.kernel must be exponential, "
                        f"got {kernel!r}")
    return problems


@dataclass
class ExperimentEntry:
    run: Callable
    validate: Callable
    description: str


EXPERIMENTS = {
    "porous_medium_demo": ExperimentEntry(
        _run_porous_medium_demo, _validate_demo,
        "degenerate nonlinear diffusion with a random |w_t| coefficient: "
        "replica ensemble, norm ledgers, invariant spot checks"),
    "reaction_diffusion_demo": ExperimentEntry(
        _run_reaction_diffusion_demo, _validate_demo,
        "quasilinear reaction-diffusion with random coefficients: replica "
        "ensemble, norm ledgers, invariant spot checks"),
    "galerkin_convergence": ExperimentEntry(
        _run_galerkin_convergence, _validate_galerkin,
        "mode-count refinement on fixed noise: sup-H distance to the "
        "projected refined solution, expected to decrease"),
    "timestep_convergence": ExperimentEntry(
        _run_timestep_convergence, _validate_simple,
        "deterministic heat flow from the first mode: implicit-step error "
        "against the exact decay, halving with dt"),
    "pathwise_uniqueness": ExperimentEntry(
        _run_pathwise_uniqueness, _validate_simple,
        "two solves on one noise path from nearby starts: the gap stays "
        "below the initial distance (dissipative contraction)"),
    "hypothesis_report": ExperimentEntry(
        _run_hypothesis_report, _validate_simple,
        "sampled structural-inequality checks for the built-in operator "
        "families plus a planted non-monotone counterexample"),
    "bsde_linear_validation": ExperimentEntry(
        _run_bsde_linear_validation, _validate_bsde_linear,
        "backward equation with linear restoring drift and Wiener terminal "
        "value: regression solution against the closed form"),
    "bsde_picard_demo": ExperimentEntry(
        _run_bsde_picard_demo, _validate_bsde_picard,
        "driver-coupling iterations: residual histories for the z-linear "
        "and concave-modulus x couplings"),
    "functional_delay_demo": ExperimentEntry(
        _run_functional_delay_demo, _validate_delay,
        "delayed restoring force on fixed noise: two iteration starts, one "
        "fixed point, differences under the comparison bound"),
    "volterra_consistency": ExperimentEntry(
        _run_volterra_consistency, _validate_volterra,
        "exponential fading-memory kernel: direct two-time sums against "
        "the diagonal-plus-partial rewriting under step refinement"),
    "bihari_table": ExperimentEntry(
        _run_bihari_table, _validate_bihari,
        "tabulated comparison bounds: exponential closed form for the "
        "linear modulus, vanishing-gap check for the concave family"),
}


def list_experiments() -> List[str]:
    return [f"{name}: {entry.description}"
            for name, entry in EXPERIMENTS.items()]


def validate_experiment(config: ExperimentConfig) -> List[str]:
    """Full precondition sweep without running anything."""
    if config.experiment not in EXPERIMENTS:
        return [f"unknown experiment {config.experiment!r}; known: "
                f"{', '.join(EXPERIMENTS)}"]
    return EXPERIMENTS[config.experiment].validate(config)


def resolve_output_dir(config: ExperimentConfig) -> Path:
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    directory = config.output.get("directory",
                                  str(Path("runs") / config.experiment))
    path = Path(directory)
    return path if path.is_absolute() else root / path


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Validate, run, and persist one experiment with its manifest.

    The manifest is written even when validation fails or the experiment
    raises; any exception is recorded and re-raised for the caller's exit
    handling.
    """
    out_dir = resolve_output_dir(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"

    started = time.perf_counter()
    outcome: Optional[ExperimentOutcome] = None
    error: Optional[str] = None
    try:
        problems = validate_experiment(config)
        if problems:
            raise ConfigError("; ".join(problems))
        outcome = EXPERIMENTS[config.experiment].run(config, out_dir)
    except Exception as err:
        error = f"{type(err).__name__}: {err}"
        raise
    finally:
        manifest = {
            "experiment": config.experiment,
            "config": config.echo(),
            "version": __version__,
            "seed": _mc(config, "seed", None),
            "wall_clock_seconds": time.perf_counter() - started,
            "summary": outcome.summary if outcome else {},
            "solver_stats": outcome.solver_stats if outcome else {},
            "assertions": [
                {"name": a.name, "passed": a.passed, "detail": a.detail}
                for a in (outcome.assertions if outcome else [])],
            "error": error,
        }
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True, default=_fmt)
            + "\n", encoding="utf-8")
    return RunResult(experiment=config.experiment, out_dir=out_dir,
                     outcome=outcome, manifest_path=manifest_path)
