"""The experiment registry: named end-to-end runs wiring the modules
together, each writing CSV artifacts, an optional SVG, and a JSON run
manifest.

Each experiment is one setup function.  Setup reads every setting the
experiment uses, once each with its one default, checks the values and
builds what they determine (solver configs, operator sets, regression
bases, moduli, memory paths), collecting every problem; it draws no
noise and solves nothing.  It returns the run step, which reads no
config.  ``validate_experiment`` returns setup's problems;
``run_experiment`` runs setup once and then, when it found none, the
run step.

Every experiment is deterministic in (config, seed): numeric output
bytes depend on nothing else.  Replicas use indexed substreams of the
base seed, stacked into one NoiseBatch: the forward demos step it with
one batched forward solve (each replica follows the iterates it would
follow alone), the backward experiments regress across it, and the
ensemble is reduced in replica order.  The manifest is
written even when a run fails, with the error recorded; the forward
experiments (the replica demos, galerkin_convergence,
timestep_convergence and pathwise_uniqueness) and the backward
experiments also record their solver counters in it (``solver_stats``).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from . import __version__
from .analysis import (BOUND_CAP, bihari_bound, convergence_order,
                       linear_modulus, rho_eval, rho_k_modulus,
                       sup_h_distance, zero_limit_check)
from .bsde import (BackwardCounts, BsdeDriver, BsdeProblem, picard_in_x,
                   picard_in_z, polynomial_basis, solution_csv,
                   solve_bsde_autonomous_C, zero_driver)
from .config import BLAS_THREAD_VARS, ExperimentConfig
from .errors import ConfigError, NonconvergenceError
from .forward import SolverConfig, apriori_norms, solve_forward, trajectory_csv
from .functional import (FunctionalCoefficients, Segment, SegmentPath,
                         VolterraCoefficients, bihari_domination_report,
                         functional_trajectory_csv, lambda8_profile,
                         picard_solve_functional_stack,
                         volterra_consistency)
from .noise import (NoiseContext, refine_path, sample_batch, sample_path,
                    zero_path)
from .operators import (PhiDrift, ReactionDiffusionDrift, build_operator_set,
                        check_boundedness, check_coercivity,
                        check_hemicontinuity, check_monotonicity,
                        pair_sampler, state_sampler)
from .reporting import _fmt, csv_text
from .resolvent import MonotoneMap, NewtonCounts
from .triple import DiscreteTriple

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


def write_csv(path, header, rows) -> None:
    """Write ``reporting.csv_text(header, rows)`` as UTF-8."""
    Path(path).write_bytes(csv_text(header, rows).encode("utf-8"))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")
_SVG_WIDTH, _SVG_HEIGHT = 640, 400


def svg_series(path, x, series: dict, title: str = "") -> None:
    """A dependency-free line plot of (x, y) series, one polyline each."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
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
# settings: each key read once, every problem collected


class Settings:
    """One experiment's settings, read once each, and the problems found.

    An experiment's setup reads every key it uses through ``get`` (or
    ``positive``, ``seed``), checks the values with ``check``, and builds its
    config-dependent objects with ``build``; each records a problem
    instead of raising, so one pass reports all of them.  No float
    setting may be NaN or infinite.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.problems: List[str] = []

    def get(self, section: str, key: str, default):
        value = self.config.get(section, key, default)
        if isinstance(value, float):
            self.check(math.isfinite(value),
                       f"{section}.{key} must be finite, got {value!r}")
        return value

    def check(self, ok: bool, problem: str) -> bool:
        if not ok and problem not in self.problems:
            self.problems.append(problem)
        return bool(ok)

    def positive(self, section: str, key: str, default):
        value = self.config.get(section, key, default)
        self.check(0 < value < math.inf,
                   f"{section}.{key} must be positive and finite, "
                   f"got {value!r}")
        return value

    def seed(self, default: int) -> int:
        """monte_carlo.seed: a non-negative integer, the entropy of every
        noise substream key."""
        seed = self.config.get("monte_carlo", "seed", default)
        self.check(isinstance(seed, int) and seed >= 0,
                   f"monte_carlo.seed must be a non-negative integer, "
                   f"got {seed!r}")
        return seed

    def time_grid(self, t_final: float, n_steps: int):
        """numerics.t_final and numerics.n_steps: both positive, with a
        step t_final / n_steps no smaller than the smallest normal float
        (so the step neither underflows to 0 nor has an infinite
        reciprocal)."""
        t_final = self.positive("numerics", "t_final", t_final)
        n_steps = self.positive("numerics", "n_steps", n_steps)
        if 0 < t_final < math.inf and n_steps > 0:
            self.check(t_final / n_steps >= sys.float_info.min,
                       f"numerics.t_final = {t_final:g} is too short for "
                       f"{n_steps} steps")
        return t_final, n_steps

    def build(self, label: str, factory: Callable, *args, **kwargs):
        """``factory(*args, **kwargs)``, or None with its ConfigError
        recorded under ``label``."""
        try:
            return factory(*args, **kwargs)
        except ConfigError as err:
            self.check(False, f"{label}: {err}")
            return None


def _operator_sets(s: Settings, n_grid: int, *names: str):
    """problem.p and the named operator families on an n_grid grid (None
    each when p or the grid is invalid)."""
    p = s.get("problem", "p", 3.0)
    if not s.check(p >= 2.0, f"problem.p = {p:g} violates p >= 2 "
                             f"(degenerate-diffusion exponent)"):
        return p, [None] * len(names)
    return p, [s.build("problem", build_operator_set, name, n_grid, p=p,
                       n_modes=1) for name in names]


def _solver_config(s: Settings, n_grid: int, n_modes: int,
                   **tolerances) -> Optional[SolverConfig]:
    s.check(n_modes <= n_grid, f"numerics.n_modes must lie in 1..n_grid "
                               f"({n_grid}), got {n_modes}")
    if all(map(math.isfinite, tolerances.values())):  # else s.get named it
        return s.build("numerics", SolverConfig, n_modes_galerkin=n_modes,
                       **tolerances)


# ---------------------------------------------------------------------------
# experiments: each setup reads and checks its settings, builds what they
# determine, and returns the run step (out_dir -> ExperimentOutcome)


def _forward_stats(counts: NewtonCounts, forward_steps: int) -> dict:
    return {"forward_steps": forward_steps,
            "newton_iterations": int(counts.iterations.sum()),
            "line_search_halvings": int(counts.halvings.sum())}


def _demo(s: Settings, set_name: str, label: str):
    n_grid = s.get("problem", "n_grid", 16)
    n_modes = s.get("numerics", "n_modes", 8)
    t_final, n_steps = s.time_grid(0.25, 250)
    replicas = s.positive("monte_carlo", "replicas", 64)
    seed = s.seed(2026)
    u0_scale = s.get("problem", "u0_scale", 1.0)
    u0_mode = s.get("problem", "u0_mode", 1)
    s.check(1 <= u0_mode <= n_grid, f"problem.u0_mode must lie in 1..n_grid "
                                    f"({n_grid}), got {u0_mode}")
    p, (ops,) = _operator_sets(s, n_grid, set_name)
    tol = s.get("numerics", "resolvent_tol", 1e-10)
    # the Newton target tol * (1 + |x|) is out of float64's reach below
    # a few epsilons (1e-16 stalls reaction_diffusion_demo)
    floor = 4 * np.finfo(float).eps
    s.check(not 0 < tol < floor,
            f"numerics.resolvent_tol = {tol:g} is below 4 float64 epsilons "
            f"({floor:.3g}), a residual the solver cannot meet")
    cfg = _solver_config(
        s, n_grid, n_modes, resolvent_tol=tol,
        resolvent_max_iter=s.get("numerics", "resolvent_max_iter", 50))

    def run(out_dir):
        u0 = u0_scale * ops.triple.basis_function(u0_mode)
        outcome = ExperimentOutcome()
        batch = sample_batch(seed=seed, t_final=t_final, n_steps=n_steps,
                             n_modes=1, replicas=replicas)
        counts = NewtonCounts(replicas)
        paths = solve_forward(cfg, ops.drift, ops.diffusion, batch, u0,
                              counts=counts)
        h_sq = np.stack([path.h_norm_sq for path in paths])
        energy_sup = max(float(np.max(np.abs(np.cumsum(path.energy_residual))))
                         for path in paths)
        first, noise0 = paths[0], batch.path(0)
        outcome.solver_stats = _forward_stats(counts, replicas * n_steps)

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
    return run


def _porous_medium_demo(s):
    return _demo(s, "eq_1_1", "degenerate diffusion with |w_t| coefficient")


def _reaction_diffusion_demo(s):
    return _demo(s, "eq_1_2", "reaction-diffusion with |w_t| coefficients")


def _galerkin_convergence(s):
    n_grid = s.get("problem", "n_grid", 64)
    t_final, n_steps = s.time_grid(0.1, 100)
    seed = s.seed(7)
    mode_counts = GALERKIN_MODE_COUNTS
    s.check(n_grid >= mode_counts[-1],
            f"problem.n_grid must be >= {mode_counts[-1]} (the largest mode "
            f"count of the refinement ladder), got {n_grid}")
    _, (ops,) = _operator_sets(s, n_grid, "porous_medium")
    configs = {n: SolverConfig(n_modes_galerkin=n) for n in mode_counts}

    def run(out_dir):
        noise = sample_path(seed=seed, t_final=t_final, n_steps=n_steps,
                            n_modes=1)
        u0 = ops.triple.basis_function(1)
        counts = NewtonCounts(1)
        paths = {n: solve_forward(cfg, ops.drift, ops.diffusion, noise, u0,
                                  counts=counts)
                 for n, cfg in configs.items()}

        outcome = ExperimentOutcome()
        outcome.solver_stats = _forward_stats(counts, len(configs) * n_steps)
        rows = []
        distances = []
        for n in mode_counts[:-1]:
            coarse, fine = paths[n], paths[2 * n]
            d = float(np.max(ops.triple.h_norm(
                coarse.states - ops.triple.project(fine.states, n))))
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
    return run


def _timestep_convergence(s):
    n_grid = s.get("problem", "n_grid", 16)
    t_final = s.positive("numerics", "t_final", 0.2)
    dts = (4e-3, 2e-3, 1e-3)
    ops = s.build("problem", build_operator_set, "heat", n_grid, n_modes=1)
    if s.problems:  # the step counts below need the values above
        return None
    steps = [int(round(t_final / dt)) for dt in dts]
    s.check(min(steps) >= 1, f"numerics.t_final = {t_final:g} is shorter "
                             f"than the coarsest step dt = {dts[0]:g}")
    cfg = SolverConfig(n_modes_galerkin=min(n_grid, 8))

    def run(out_dir):
        tr = ops.triple
        e1 = tr.basis_function(1)
        mu1 = float(tr.mu[0])
        outcome = ExperimentOutcome()
        counts = NewtonCounts(1)
        errors = []
        for n_steps in steps:
            noise = zero_path(t_final, n_steps, 1)
            path = solve_forward(cfg, ops.drift, ops.diffusion, noise, e1,
                                 counts=counts)
            exact = np.exp(-mu1 * path.times)[:, None] * e1
            err = float(np.max(tr.h_norm(path.states - exact)))
            errors.append(err)
        outcome.solver_stats = _forward_stats(counts, sum(steps))
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        order = convergence_order(errors, dts)
        write_csv(out_dir / "timestep_errors.csv", ["dt", "sup_h_error"],
                  zip(dts, errors))
        svg_series(out_dir / "timestep_errors.svg", list(dts),
                   {"sup-H error": errors}, title="implicit step error vs dt")
        for i, r in enumerate(ratios):
            outcome.check(f"halving_ratio_{i}", 1.7 <= r <= 2.3,
                          f"error({dts[i]:g}) / error({dts[i + 1]:g}) = "
                          f"{r:.4g}")
        outcome.summary.update({"errors": errors, "ratios": ratios,
                                "fitted_order": order, "mu1": mu1})
        return outcome
    return run


def _pathwise_uniqueness(s):
    n_grid = s.get("problem", "n_grid", 16)
    n_modes = s.get("numerics", "n_modes", 8)
    t_final, n_steps = s.time_grid(0.25, 100)
    seed = s.seed(11)
    _, (ops,) = _operator_sets(s, n_grid, "porous_medium")
    cfg = _solver_config(s, n_grid, n_modes)

    def run(out_dir):
        noise = sample_path(seed=seed, t_final=t_final, n_steps=n_steps,
                            n_modes=1)
        tr = ops.triple
        u0 = tr.basis_function(1)
        deltas = (1e-1, 1e-2, 1e-3)
        counts = NewtonCounts(1 + len(deltas))
        # one solve, one row per start, every row on this one path
        base, *others = solve_forward(
            cfg, ops.drift, ops.diffusion, noise,
            [u0] + [u0 + delta * tr.basis_function(1) for delta in deltas],
            counts=counts)

        outcome = ExperimentOutcome()
        rows = []
        dists = []
        for delta, other in zip(deltas, others):
            d = sup_h_distance(base, other)
            dists.append(d)
            rows.append([delta, d, d / delta])
            # same noise + dissipative drift: implicit steps are
            # nonexpansive, so the gap never exceeds the initial H-distance
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
        outcome.solver_stats = _forward_stats(
            counts, (1 + len(deltas)) * n_steps)
        return outcome
    return run


def _hypothesis_report(s):
    n_grid = s.get("problem", "n_grid", 12)
    n_samples = s.positive("monte_carlo", "replicas", 500)
    seed = s.seed(5)
    _, families = _operator_sets(s, n_grid, "eq_1_1", "eq_1_2",
                                 "porous_medium")

    def run(out_dir):
        probe = sample_path(seed=seed, t_final=1.0, n_steps=64, n_modes=1)
        ctx = NoiseContext(probe)
        outcome = ExperimentOutcome()
        rows = []
        # the samplers read only the grid size, which every family shares:
        # both families' checks read one pair stream and one state stream,
        # each drawn once
        pairs = pair_sampler(families[0].triple, times=probe.times)
        singles = state_sampler(families[0].triple, times=probe.times)
        for name, ops in zip(("eq_1_1", "eq_1_2"), families):
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

        pm = families[2]
        planted = PhiDrift(pm.triple, lambda t, c, r: np.sin(r),
                           lambda t, c, r: np.cos(r))
        flagged = check_monotonicity(
            planted, pm.diffusion, pm.bundle,
            pair_sampler(pm.triple, amp_range=(1e-1, 1e2)),
            n_samples=n_samples, seed=seed)
        rows.append(["planted_sin", "monotonicity", flagged.n_samples,
                     flagged.n_violations, flagged.ok])
        outcome.check("planted_sin_flagged", not flagged.ok,
                      flagged.summary())
        write_csv(out_dir / "hypothesis_report.csv",
                  ["operator", "check", "n_samples", "violations", "ok"],
                  rows)
        return outcome
    return run


# the backward experiments' drift A(x) = -x and terminal X_T = W(T)
_RESTORING_DRIFT = MonotoneMap.linear(-1.0, diagonal=True,
                                     name="linear restoring drift")


def _wiener_terminal(batch):
    return batch.scalar_paths[:, -1:]


def _backward_problem(driver, t_final):
    return BsdeProblem(drift=_RESTORING_DRIFT, driver=driver,
                       terminal=_wiener_terminal, t_final=t_final,
                       n_modes=1, dim=1)


def _require_basis_rows(s: Settings, replicas: int, basis) -> None:
    # one replica per basis term at least; the runs' default replica
    # counts (4,000 and 400) clear it
    s.check(replicas >= basis.n_terms,
            f"monte_carlo.replicas must be at least the {basis.n_terms} "
            f"regression basis terms, got {replicas}")


def _backward_stats(counts: BackwardCounts) -> dict:
    return {"backward_sweeps": counts.sweeps,
            "regression_factorizations": counts.factorizations,
            "regression_fits": counts.fits,
            "newton_iterations": counts.newton_iterations,
            "line_search_halvings": counts.line_search_halvings,
            "driver_evaluations": counts.driver_evaluations}


def _bsde_linear_validation(s):
    t_final, n_steps = s.time_grid(1.0, 64)
    replicas = s.get("monte_carlo", "replicas", 4000)
    seed = s.seed(31)
    resolvent_tol = s.positive("numerics", "resolvent_tol", 1e-10)
    resolvent_max_iter = s.positive("numerics", "resolvent_max_iter", 100)
    basis = s.build("numerics.basis_degree", polynomial_basis, 1,
                    degree=s.get("numerics", "basis_degree", 2))
    if s.problems:  # the row and grid checks below need the values above
        return None
    _require_basis_rows(s, replicas, basis)
    dt = t_final / n_steps
    probes = [int(round(t / dt)) for t in BSDE_PROBE_TIMES]
    s.check(max(probes) < n_steps,
            f"the closed-form probe times {BSDE_PROBE_TIMES} must fall on "
            f"grid points before t_final = {t_final:g} with n_steps = "
            f"{n_steps}")

    def run(out_dir):
        problem = _backward_problem(zero_driver(), t_final)
        batch = sample_batch(seed=seed, t_final=t_final, n_steps=n_steps,
                             n_modes=1, replicas=replicas)
        counts = BackwardCounts()
        solution = solve_bsde_autonomous_C(
            problem, batch, basis=basis, resolvent_tol=resolvent_tol,
            resolvent_max_iter=resolvent_max_iter, counts=counts)
        (out_dir / "bsde_solution.csv").write_bytes(
            solution_csv(solution).encode("utf-8"))

        outcome = ExperimentOutcome()
        outcome.solver_stats = _backward_stats(counts)
        rows = []
        worst = 0.0
        for t_probe, k in zip(BSDE_PROBE_TIMES, probes):
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
    return run


def _bsde_picard_demo(s):
    t_final, n_steps = s.time_grid(1.0, 32)
    replicas = s.get("monte_carlo", "replicas", 400)
    seed = s.seed(13)
    kappa = s.get("problem", "kappa", 0.4)
    max_iter = s.positive("numerics", "max_iter", 25)
    tol = s.positive("numerics", "tol", 1e-8)
    # both Picard solves regress on the default degree-2 basis
    _require_basis_rows(s, replicas, polynomial_basis(1))

    def run(out_dir):
        batch = sample_batch(seed=seed, t_final=t_final, n_steps=n_steps,
                             n_modes=1, replicas=replicas)
        outcome = ExperimentOutcome()
        counts = BackwardCounts()

        z_problem = _backward_problem(BsdeDriver(
            eval=lambda t, x, z: kappa * z[..., 0],
            c1=kappa ** 2, c2=abs(kappa), x_dependent=False,
            name="linear coupling in z"), t_final)
        try:
            z_sol = picard_in_z(z_problem, batch, max_iter=max_iter, tol=tol,
                                counts=counts)
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
        x_problem = _backward_problem(BsdeDriver(
            eval=lambda t, x, z: (np.sqrt(rho_eval(np.asarray(x, float) ** 2,
                                                   rho))
                                  * np.sign(np.asarray(x, float))),
            rho=rho, c1=4.0, c2=2.0, z_dependent=False,
            name="concave-modulus coupling in x"), t_final)
        try:
            x_sol = picard_in_x(x_problem, batch, max_iter=20, tol=1e-7,
                                counts=counts)
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
        outcome.solver_stats = _backward_stats(counts)
        return outcome
    return run


def _functional_delay_demo(s):
    kappa = s.get("problem", "kappa", 0.8)
    lag_steps = s.get("problem", "lag_steps", 4)
    t_final, n_steps = s.time_grid(1.0, 32)
    tol = s.positive("numerics", "tol", 1e-10)
    max_iter = s.positive("numerics", "max_iter", 40)
    seed = s.seed(77)
    s.check(1 <= lag_steps <= n_steps, f"problem.lag_steps must lie in "
                                       f"1..n_steps ({n_steps}), got "
                                       f"{lag_steps}")
    s.check(abs(kappa) < 4.0, f"problem.kappa = {kappa:g} is outside the "
                              f"contractive range |kappa| < 4 of the demo")
    tr = DiscreteTriple(2, "reaction_diffusion")
    drift = ReactionDiffusionDrift(
        tr, a=lambda t, c, r: r, b=lambda t, c, u: 0.0 * u,
        a_prime=lambda t, c, r: np.ones_like(r),
        b_prime=lambda t, c, u: 0.0 * u)
    cfg = SolverConfig(n_modes_galerkin=2)
    if s.problems:  # the memory window below needs the values above
        return None
    memory = lag_steps * (t_final / n_steps)
    knots = np.linspace(-memory, 0.0, lag_steps + 1)
    knots[-1] = 0.0
    hist = np.stack([(1.0 + th) * np.array([1.0, -0.5]) for th in knots])
    past = Segment(theta=knots, values=hist)
    d1col = np.array([[0.25], [0.4]])
    coeffs = FunctionalCoefficients(
        c1=lambda t, seg: kappa * seg.at(-memory),
        d1=lambda t, seg: d1col,
        lambda3=kappa ** 2, lambda5=0.0, name="lagged restoring force")

    def run(out_dir):
        noise = sample_path(seed=seed, t_final=t_final, n_steps=n_steps,
                            n_modes=1)
        # both starts on one stack: each sweep is one forward solve
        res_a, res_b = picard_solve_functional_stack(
            drift, coeffs, noise, past, cfg,
            [None, np.zeros((noise.n_steps + 1, tr.n_grid))],
            max_iter=max_iter, tol=tol)
        gap = float(np.max(tr.h_norm(res_a.path.values
                                     - res_b.path.values)))

        outcome = ExperimentOutcome()
        outcome.check("two_starts_same_fixed_point", gap <= 10 * tol,
                      f"sup-H gap between starts = {gap:.3g} vs 10 tol = "
                      f"{10 * tol:.3g}")
        lam8 = lambda8_profile(coeffs, noise.times)
        report = bihari_domination_report(res_a.residual_profiles,
                                          noise.times, lam8, coeffs.rho)
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
        h_curve = tr.h_norm(res_a.path.values)
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
    return run


def _volterra_consistency(s):
    t_final, n_steps = s.time_grid(1.0, 16)
    seed = s.seed(9)
    # the memory window 0.25 t_final is then whole steps on both grids
    s.check(n_steps % 4 == 0, f"numerics.n_steps must be a multiple of 4 "
                              f"(the memory window is a quarter of "
                              f"t_final), got {n_steps}")
    tr = DiscreteTriple(2, "reaction_diffusion")
    col = np.array([[0.2], [0.1]])
    v = VolterraCoefficients(
        drift_kernel=lambda t, s, seg: np.exp(-(t - s)) * seg.end,
        diffusion_kernel=lambda t, s, seg: np.exp(-(t - s)) * col,
        drift_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * seg.end,
        diffusion_kernel_dt=lambda t, s, seg: -np.exp(-(t - s)) * col,
        name="exponential fading memory")
    if s.problems:  # the analytic paths below need the grid above
        return None

    def analytic_path(n):
        times = np.linspace(0.0, t_final, n + 1)
        memory = 0.25 * t_final
        knots = np.linspace(-memory, 0.0, n // 4 + 1)
        knots[-1] = 0.0
        f = lambda t: np.array([np.sin(t + 1.0), np.cos(2.0 * t)])
        hist = np.stack([f(th) for th in knots])
        values = np.stack([f(t) for t in times])
        values[0] = hist[-1]
        return SegmentPath(Segment(theta=knots, values=hist), times, values,
                           tr)

    coarse_path, fine_path = analytic_path(n_steps), analytic_path(2 * n_steps)

    def run(out_dir):
        coarse = sample_path(seed=seed, t_final=t_final, n_steps=n_steps,
                             n_modes=1)
        fine = refine_path(coarse)
        d_coarse = volterra_consistency(v, coarse_path, coarse)
        d_fine = volterra_consistency(v, fine_path, fine)
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
    return run


def _bihari_table(s):
    kind = s.get("problem", "rho_kind", "linear")
    t_final = s.positive("numerics", "t_final", 1.0)
    spec = None
    if kind == "linear":
        spec = linear_modulus(1.0)
        # the unit-rate bound e^t passes the cap at t = log(BOUND_CAP),
        # where the tabulated curve turns inf; rho_k bounds grow slower
        s.check(t_final <= math.log(BOUND_CAP),
                f"numerics.t_final must be at most log(BOUND_CAP) = "
                f"{math.log(BOUND_CAP):.6g} for rho_kind = linear, where the "
                f"bound e^t_final stays below the cap {BOUND_CAP:g}; "
                f"got {t_final!r}")
    elif kind == "rho_k":
        spec = s.build("problem.rho_*", rho_k_modulus,
                       k=s.get("problem", "rho_k", 1),
                       c0=s.get("problem", "rho_c0", 1.0),
                       eta=s.get("problem", "rho_eta", None))
    else:
        s.check(False, f"problem.rho_kind must be linear or rho_k, "
                       f"got {kind!r}")

    def run(out_dir):
        t_grid = np.linspace(0.0, t_final, 101)
        outcome = ExperimentOutcome()
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
    return run


# ---------------------------------------------------------------------------
# registry and runner


@dataclass
class ExperimentEntry:
    # Settings -> run step (out_dir -> ExperimentOutcome); the run step is
    # only called when setup recorded no problem, and setup may return
    # None once its problems leave nothing to build
    setup: Callable
    description: str


EXPERIMENTS = {
    "porous_medium_demo": ExperimentEntry(
        _porous_medium_demo,
        "degenerate nonlinear diffusion with a random |w_t| coefficient: "
        "replica ensemble, norm ledgers, invariant spot checks"),
    "reaction_diffusion_demo": ExperimentEntry(
        _reaction_diffusion_demo,
        "quasilinear reaction-diffusion with random coefficients: replica "
        "ensemble, norm ledgers, invariant spot checks"),
    "galerkin_convergence": ExperimentEntry(
        _galerkin_convergence,
        "mode-count refinement on fixed noise: sup-H distance to the "
        "projected refined solution, expected to decrease"),
    "timestep_convergence": ExperimentEntry(
        _timestep_convergence,
        "deterministic heat flow from the first mode: implicit-step error "
        "against the exact decay, halving with dt"),
    "pathwise_uniqueness": ExperimentEntry(
        _pathwise_uniqueness,
        "two solves on one noise path from nearby starts: the gap stays "
        "below the initial distance (dissipative contraction)"),
    "hypothesis_report": ExperimentEntry(
        _hypothesis_report,
        "sampled structural-inequality checks for the built-in operator "
        "families plus a planted non-monotone counterexample"),
    "bsde_linear_validation": ExperimentEntry(
        _bsde_linear_validation,
        "backward equation with linear restoring drift and Wiener terminal "
        "value: regression solution against the closed form"),
    "bsde_picard_demo": ExperimentEntry(
        _bsde_picard_demo,
        "driver-coupling iterations: residual histories for the z-linear "
        "and concave-modulus x couplings"),
    "functional_delay_demo": ExperimentEntry(
        _functional_delay_demo,
        "delayed restoring force on fixed noise: two iteration starts, one "
        "fixed point, differences under the comparison bound"),
    "volterra_consistency": ExperimentEntry(
        _volterra_consistency,
        "exponential fading-memory kernel: direct two-time sums against "
        "the diagonal-plus-partial rewriting under step refinement"),
    "bihari_table": ExperimentEntry(
        _bihari_table,
        "tabulated comparison bounds: exponential closed form for the "
        "linear modulus, vanishing-gap check for the concave family"),
}


def list_experiments() -> List[str]:
    return [f"{name}: {entry.description}"
            for name, entry in EXPERIMENTS.items()]


def _setup(config: ExperimentConfig):
    """The experiment's problems and its run step."""
    entry = EXPERIMENTS.get(config.experiment)
    if entry is None:
        return [f"unknown experiment {config.experiment!r}; known: "
                f"{', '.join(EXPERIMENTS)}"], None
    settings = Settings(config)
    run = entry.setup(settings)
    return settings.problems, run


def validate_experiment(config: ExperimentConfig) -> List[str]:
    """Every problem the experiment's setup finds; no noise is drawn and
    nothing is solved."""
    return _setup(config)[0]


def resolve_output_dir(config: ExperimentConfig) -> Path:
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    directory = config.output.get("directory",
                                  str(Path("runs") / config.experiment))
    path = Path(directory)
    return path if path.is_absolute() else root / path


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Set up, run, and persist one experiment with its manifest.

    The manifest is written even when setup finds a problem or the
    experiment raises; any exception is recorded and re-raised for the
    caller's exit handling.  It records the BLAS thread variables.
    """
    out_dir = resolve_output_dir(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"

    started = time.perf_counter()
    outcome: Optional[ExperimentOutcome] = None
    error: Optional[str] = None
    try:
        problems, run = _setup(config)
        if problems:
            raise ConfigError("; ".join(problems))
        outcome = run(out_dir)
    except Exception as err:
        error = f"{type(err).__name__}: {err}"
        raise
    finally:
        manifest = {
            "experiment": config.experiment,
            "config": config.echo(),
            "version": __version__,
            "seed": config.monte_carlo.get("seed"),
            "wall_clock_seconds": time.perf_counter() - started,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
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
