"""Memory-dependent equations: segment paths, frozen-forcing Picard sweeps,
and two-time kernels reduced by differentiation in the first argument.

The state influences the dynamics through its recent past: one-time
coefficients read the current path segment, two-time kernels accumulate
over history.  Each Picard sweep freezes those functional terms along the
previous iterate and delegates the remaining equation to the plain
forward solver, so every iterate is itself a drift-implicit trajectory.
A kernel depending on both of its time arguments is first rewritten as a
diagonal part plus the integral of its first-argument derivative, which
turns the two-time problem into the functional form above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .analysis import ModulusSpec, bihari_bound, linear_modulus, rho_eval
from .errors import ConfigError, MonoseeError, NonconvergenceError
from .forward import SolverConfig, SolutionPath, solve_forward, trajectory_csv
from .noise import EMPTY_CONTEXT, NoisePath
from .reporting import Violation, ViolationReport

__all__ = [
    "Segment", "SegmentPath", "segment", "segment_distance",
    "FunctionalCoefficients", "VolterraCoefficients",
    "FunctionalPicardResult", "ContractionReport",
    "picard_solve_functional", "lambda8_profile",
    "bihari_domination_report", "segment_sampler",
    "check_functional_lipschitz", "check_functional_growth",
    "check_volterra_partials", "volterra_to_functional",
    "volterra_direct_eval", "volterra_consistency",
    "functional_trajectory_csv", "initial_segment",
]

_GRID_ATOL = 1e-12


def _euclidean(row) -> float:
    return float(np.linalg.norm(np.asarray(row, dtype=float)))


def _interp_rows(times: np.ndarray, rows: np.ndarray, t: float) -> np.ndarray:
    """Linear interpolation of stacked rows; exact rows at grid hits."""
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


@dataclass(frozen=True)
class Segment:
    """One window of a path, indexed by the offset into the past.

    ``theta`` runs from -memory to 0 (0 = "now"); ``values`` holds one
    state row per offset.  Rows between stored offsets are linearly
    interpolated, so the sup-norm over the window is attained at the
    stored rows and ``sup_norm`` is exact for the piecewise-linear path.
    """

    theta: np.ndarray
    values: np.ndarray
    norm: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if theta.ndim != 1 or values.ndim != 2 or len(theta) != len(values):
            raise ConfigError("segment needs matching 1-d offsets and "
                              "2-d value rows")
        if len(theta) < 1 or np.any(np.diff(theta) <= 0):
            raise ConfigError("segment offsets must be strictly increasing")
        if theta[-1] != 0.0:
            raise ConfigError("segment offsets must end at 0 (the current "
                              "state)")
        if theta[0] > 0.0:
            raise ConfigError("segment offsets must be <= 0")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def memory(self) -> float:
        return -float(self.theta[0])

    @property
    def end(self) -> np.ndarray:
        """The current state, i.e. the row at offset 0."""
        return self.values[-1]

    def at(self, theta: float) -> np.ndarray:
        return _interp_rows(self.theta, self.values, float(theta))

    def row_norm(self, row) -> float:
        return (self.norm or _euclidean)(row)

    def sup_norm(self) -> float:
        return max(self.row_norm(row) for row in self.values)


def segment_distance(a: Segment, b: Segment) -> float:
    """Sup over the window of the norm of the difference of two segments.

    Exact for piecewise-linear segments: the difference is evaluated on
    the union of the two offset grids, where its norm attains the sup.
    """
    if abs(a.memory - b.memory) > 1e-9 * max(1.0, a.memory, b.memory):
        raise ConfigError(f"segments cover different memory windows "
                          f"({a.memory:g} vs {b.memory:g})")
    grid = np.union1d(a.theta, b.theta)
    keep = np.concatenate([[True], np.diff(grid) > _GRID_ATOL])
    grid = grid[keep]
    return max(a.row_norm(a.at(th) - b.at(th)) for th in grid)


@dataclass
class SegmentPath:
    """A path with memory: states on [-memory, 0] plus the trajectory.

    The history block carries the prescribed past, the trajectory block
    the evolving states from time 0 onward; both must agree at the seam.
    Norms use the attached triple's H-norm when present, else the
    Euclidean norm of the rows.
    """

    memory: float
    history_times: np.ndarray
    history_values: np.ndarray
    times: np.ndarray
    values: np.ndarray
    triple: object = field(repr=False, default=None)

    def __post_init__(self):
        self.memory = float(self.memory)
        self.history_times = np.asarray(self.history_times, dtype=float)
        self.history_values = np.asarray(self.history_values, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.memory < 0:
            raise ConfigError("memory horizon must be >= 0")
        ht, hv = self.history_times, self.history_values
        if ht.ndim != 1 or hv.ndim != 2 or len(ht) != len(hv):
            raise ConfigError("history needs matching 1-d times and 2-d "
                              "value rows")
        if self.times.ndim != 1 or self.values.ndim != 2 \
                or len(self.times) != len(self.values):
            raise ConfigError("trajectory needs matching 1-d times and 2-d "
                              "value rows")
        if hv.shape[1] != self.values.shape[1]:
            raise ConfigError(f"history width {hv.shape[1]} does not match "
                              f"trajectory width {self.values.shape[1]}")
        if len(ht) > 1 and np.any(np.diff(ht) <= 0):
            raise ConfigError("history times must be strictly increasing")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ConfigError("trajectory times must be strictly increasing")
        if ht[-1] != 0.0:
            raise ConfigError("history must end at time 0")
        if self.times[0] != 0.0:
            raise ConfigError("trajectory must start at time 0")
        if abs(ht[0] + self.memory) > 1e-9 * max(1.0, self.memory):
            raise ConfigError(f"history starts at {ht[0]:g}, expected "
                              f"-memory = {-self.memory:g}")
        if not np.array_equal(hv[-1], self.values[0]):
            raise ConfigError("history and trajectory disagree at the seam "
                              "(time 0)")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def combined_times(self) -> np.ndarray:
        return np.concatenate([self.history_times[:-1], self.times])

    @property
    def combined_values(self) -> np.ndarray:
        return np.concatenate([self.history_values[:-1], self.values])

    def h_norm_of(self, row) -> float:
        if self.triple is not None:
            return float(self.triple.h_norm(row))
        return _euclidean(row)

    def value_at(self, t: float) -> np.ndarray:
        return _interp_rows(self.combined_times, self.combined_values,
                            float(t))

    def sup_norm(self) -> float:
        """The sup of the H-norm over every stored state."""
        return max(self.h_norm_of(row) for row in self.combined_values)


def initial_segment(memory: float, history_times, history_values,
                    triple=None) -> SegmentPath:
    """A SegmentPath holding only the prescribed past (trajectory = seam)."""
    hv = np.asarray(history_values, dtype=float)
    return SegmentPath(memory=memory, history_times=history_times,
                       history_values=hv, times=np.array([0.0]),
                       values=hv[-1:].copy(), triple=triple)


def segment(path: SegmentPath, t: float) -> Segment:
    """The window of ``path`` ending at time t, as offsets into the past.

    Stored states inside the window are taken exactly; the window
    endpoints are interpolated when they fall between stored times.  The
    offset-0 row equals the state at t exactly whenever t is stored.
    """
    t = float(t)
    if t < -_GRID_ATOL or t > path.t_end + _GRID_ATOL * max(1.0, path.t_end):
        raise ConfigError(f"segment time {t:g} outside the trajectory range "
                          f"[0, {path.t_end:g}]")
    t = min(max(t, 0.0), path.t_end)
    mem = path.memory
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


# ---------------------------------------------------------------------------
# coefficient bundles


def _profile_value(profile, *args) -> float:
    """A declared bound profile at ``args``: None is identically zero, a
    callable is called, anything else is a constant."""
    if profile is None:
        return 0.0
    if callable(profile):
        return float(profile(*args))
    return float(profile)


@dataclass
class FunctionalCoefficients:
    """Memory-reading coefficient functions and their declared bounds.

    ``c1(t, segment)`` and ``d1(t, segment)`` feed the dynamics directly;
    ``c2(t, s, segment)`` and ``d2(t, s, segment)`` enter through time
    integrals over s < t (d2 through the stochastic integral).  Any of
    the four may be None, meaning identically zero.  ``lambda3`` scales
    the modulus bound of the one-time pair, ``lambda5`` of the two-time
    pair; ``lambda6``/``lambda7``/``zeta`` enter the growth bounds with
    overall factor ``growth_c0``.  Profiles may be constants or callables
    of t (one-time) / (t, s) (two-time).
    """

    c1: Optional[Callable] = None
    c2: Optional[Callable] = None
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    rho: ModulusSpec = field(default_factory=linear_modulus)
    lambda3: object = 1.0
    lambda5: object = 1.0
    lambda6: object = 0.0
    lambda7: object = 0.0
    zeta: object = 0.0
    growth_c0: float = 1.0
    name: str = "functional coefficients"

    def __post_init__(self):
        if self.growth_c0 <= 0:
            raise ConfigError("growth_c0 must be positive")

    def lambda3_at(self, t: float) -> float:
        return _profile_value(self.lambda3, t)

    def lambda5_at(self, t: float, s: float) -> float:
        return _profile_value(self.lambda5, t, s)

    def lambda6_at(self, t: float, s: float) -> float:
        return _profile_value(self.lambda6, t, s)

    def lambda7_at(self, t: float, s: float) -> float:
        return _profile_value(self.lambda7, t, s)

    def zeta_at(self, t: float) -> float:
        return _profile_value(self.zeta, t)


@dataclass
class VolterraCoefficients:
    """Two-time kernels evaluated at (t, s) with analytic t-partials.

    ``drift_kernel(t, s, segment)`` returns a state row, and
    ``diffusion_kernel(t, s, segment)`` a (width, m) factor for the noise
    increment at s.  The partials in the first argument must be supplied
    analytically (None means identically zero, as for a kernel that does
    not depend on its first argument); a finite-difference check guards
    against inconsistent inputs.  Declared bounds as in
    FunctionalCoefficients.
    """

    drift_kernel: Optional[Callable] = None
    diffusion_kernel: Optional[Callable] = None
    drift_kernel_dt: Optional[Callable] = None
    diffusion_kernel_dt: Optional[Callable] = None
    rho: ModulusSpec = field(default_factory=linear_modulus)
    lambda3: object = 1.0
    lambda5: object = 1.0
    lambda6: object = 0.0
    lambda7: object = 0.0
    zeta: object = 0.0
    growth_c0: float = 1.0
    name: str = "volterra coefficients"

    def __post_init__(self):
        if self.growth_c0 <= 0:
            raise ConfigError("growth_c0 must be positive")


def volterra_to_functional(v: VolterraCoefficients) -> FunctionalCoefficients:
    """Rewrite two-time kernels as diagonal terms plus t-partial kernels.

    The kernel integral up to t equals the integral of its diagonal plus
    the iterated integral of the first-argument partial, so the returned
    coefficients define the same dynamics in the memory-reading form:
    c1(s) = drift_kernel(s, s), c2(s, r) = d/dt drift_kernel at (s, r),
    and likewise for the diffusion pair.
    """
    c1 = d1 = None
    if v.drift_kernel is not None:
        c1 = lambda t, seg: v.drift_kernel(t, t, seg)
    if v.diffusion_kernel is not None:
        d1 = lambda t, seg: v.diffusion_kernel(t, t, seg)
    return FunctionalCoefficients(
        c1=c1, c2=v.drift_kernel_dt, d1=d1, d2=v.diffusion_kernel_dt,
        rho=v.rho, lambda3=v.lambda3, lambda5=v.lambda5, lambda6=v.lambda6,
        lambda7=v.lambda7, zeta=v.zeta, growth_c0=v.growth_c0,
        name=f"{v.name} (diagonal + partial form)")


# ---------------------------------------------------------------------------
# frozen-forcing Picard iteration


def _coeff_row(fn, args, width: int, who: str) -> np.ndarray:
    out = np.asarray(fn(*args), dtype=float)
    if out.shape != (width,):
        raise ConfigError(f"{who} returned shape {out.shape}, expected "
                          f"({width},)")
    return out


def _coeff_matrix(fn, args, width: int, who: str) -> np.ndarray:
    out = np.atleast_2d(np.asarray(fn(*args), dtype=float))
    if out.shape[0] != width:
        raise ConfigError(f"{who} returned shape {out.shape}, expected "
                          f"({width}, noise modes)")
    return out


def _against_increments(mat: np.ndarray, inc_row: np.ndarray,
                        who: str) -> np.ndarray:
    """Apply a (width, m) factor to the first m recorded increments.

    Fewer columns than noise modes embeds into the leading coordinates;
    more columns than the noise provides is a configuration error.
    """
    m = mat.shape[1]
    if m > len(inc_row):
        raise ConfigError(f"{who} returned {m} noise columns but the noise "
                          f"path carries only {len(inc_row)} modes")
    return mat[:, :m] @ inc_row[:m]


def _frozen_terms(coeffs: FunctionalCoefficients, path: SegmentPath,
                  noise: NoisePath):
    """Tabulate the functional forcing and diffusion along one iterate.

    Returns (g_rows, d_rows): g_rows[k] is the frozen drift addition at
    grid time k (one-time term plus accumulated two-time integrals,
    left-point rule, stochastic part against the recorded increments);
    d_rows[k] is the frozen diffusion factor.  One evaluation per
    (time, source) pair; nothing is recomputed inside the inner solver.
    """
    times = path.times
    n_pts = len(times)
    width = path.width
    dt = float(times[1] - times[0]) if n_pts > 1 else 0.0
    segs = [segment(path, float(t)) for t in times]

    g_rows = np.zeros((n_pts, width))
    if coeffs.c1 is not None:
        for k, t in enumerate(times):
            g_rows[k] += _coeff_row(coeffs.c1, (float(t), segs[k]), width,
                                    "c1")
    if coeffs.c2 is not None:
        for k in range(1, n_pts):
            t = float(times[k])
            acc = np.zeros(width)
            for j in range(k):
                acc += _coeff_row(coeffs.c2, (t, float(times[j]), segs[j]),
                                  width, "c2")
            g_rows[k] += dt * acc
    if coeffs.d2 is not None:
        for k in range(1, n_pts):
            t = float(times[k])
            acc = np.zeros(width)
            for j in range(k):
                mat = _coeff_matrix(coeffs.d2, (t, float(times[j]), segs[j]),
                                    width, "d2")
                acc += _against_increments(mat, noise.increments[j], "d2")
            g_rows[k] += acc

    if coeffs.d1 is not None:
        first = _coeff_matrix(coeffs.d1, (float(times[0]), segs[0]), width,
                              "d1")
        d_rows = np.empty((n_pts, width, first.shape[1]))
        d_rows[0] = first
        for k in range(1, n_pts):
            mat = _coeff_matrix(coeffs.d1, (float(times[k]), segs[k]), width,
                                "d1")
            if mat.shape != first.shape:
                raise ConfigError("d1 must return a fixed shape along the "
                                  "grid")
            d_rows[k] = mat
    else:
        d_rows = np.zeros((n_pts, width, 1))
    return g_rows, d_rows


class _GridRows:
    """Rows tabulated on a uniform grid, looked up by time."""

    def __init__(self, times: np.ndarray, rows: np.ndarray):
        self._times = np.asarray(times, dtype=float)
        self._rows = rows
        self._dt = float(self._times[1] - self._times[0]) \
            if len(self._times) > 1 else 1.0

    def at(self, t: float) -> np.ndarray:
        idx = int(round((float(t) - float(self._times[0])) / self._dt))
        if not 0 <= idx < len(self._times) \
                or abs(float(self._times[idx]) - float(t)) > 1e-9:
            raise MonoseeError(f"frozen coefficient row requested off the "
                               f"grid (t = {t:g})")
        return self._rows[idx]


class _AugmentedDrift:
    """Base drift plus a frozen, time-tabulated forcing row."""

    def __init__(self, base, times, g_rows):
        self.base = base
        self.triple = base.triple
        self._rows = _GridRows(times, g_rows)

    def eval(self, t, ctx, u):
        return self.base.eval(t, ctx, u) + self._rows.at(t)

    def jacobian(self, t, ctx, u):
        return self.base.jacobian(t, ctx, u)


class _FrozenDiffusion:
    """Diffusion factors tabulated along the previous iterate."""

    def __init__(self, times, d_rows):
        self._rows = _GridRows(times, d_rows)
        self.n_modes = int(d_rows.shape[2])

    def eval(self, t, ctx, u):
        return self._rows.at(t)

    def hs_norm_sq(self, t, ctx, u) -> float:
        row = self._rows.at(t)
        return float(np.sum(row * row))


@dataclass
class FunctionalPicardResult:
    """Converged memory-path plus the iteration diagnostics.

    ``residuals[n]`` is the sup-H distance between iterates n+1 and n;
    ``residual_profiles[n]`` the running sup of the squared H-distance as
    a function of time (the quantity the comparison-function argument
    bounds).  ``forward_path`` is the final inner solve, carrying the
    norm and energy ledgers of the converged trajectory.
    """

    path: SegmentPath
    residuals: tuple
    residual_profiles: tuple
    forward_path: SolutionPath

    @property
    def n_iterations(self) -> int:
        return len(self.residuals)

    @property
    def times(self) -> np.ndarray:
        return self.path.times


def picard_solve_functional(drift, coeffs: FunctionalCoefficients,
                            noise: NoisePath, x0seg: SegmentPath,
                            cfg: SolverConfig, max_iter: int = 30,
                            tol: float = 1e-8,
                            first_iterate=None) -> FunctionalPicardResult:
    """Solve the memory-dependent equation by frozen-forcing iteration.

    Each sweep tabulates the functional terms along the previous iterate
    and solves the resulting plain equation (base drift plus frozen
    forcing, frozen diffusion) with the forward solver, starting every
    trajectory from the segment's seam value.  The initial segment is
    projected onto the configured Galerkin modes once, so all iterates
    live in the same subspace.  The first iterate is the constant
    extension of the seam value unless ``first_iterate`` supplies
    trajectory rows (its seam row is always pinned to the history).
    Iteration stops when the sup-H distance of successive iterates drops
    below tol; if one sweep reproduces the previous frozen terms bit for
    bit, the iterate is an exact fixed point of the (deterministic) sweep
    map and a final residual of 0.0 is recorded without re-solving.
    """
    triple = drift.triple
    if x0seg.width != triple.n_grid:
        raise ConfigError(f"initial segment width {x0seg.width} does not "
                          f"match the grid size {triple.n_grid}")
    if abs(x0seg.t_end) > 0.0:
        raise ConfigError("the initial segment must end at time 0")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    dt = noise.dt
    mem = x0seg.memory
    if mem > 0:
        steps = mem / dt
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError(f"memory horizon {mem:g} must be a whole "
                              f"number of time steps (dt = {dt:g})")

    times = noise.times
    n_pts = len(times)
    n = cfg.n_modes_galerkin
    hist_proj = np.stack([triple.project(row, n)
                          for row in x0seg.history_values])
    seam = hist_proj[-1]

    if first_iterate is None:
        traj = np.tile(seam, (n_pts, 1))
    else:
        traj = np.array(first_iterate, dtype=float)
        if traj.shape != (n_pts, x0seg.width):
            raise ConfigError(f"first_iterate has shape {traj.shape}, "
                              f"expected ({n_pts}, {x0seg.width})")
        traj = np.stack([triple.project(row, n) for row in traj])
        traj[0] = seam
    current = SegmentPath(memory=mem, history_times=x0seg.history_times,
                          history_values=hist_proj, times=times.copy(),
                          values=traj, triple=triple)

    residuals: list = []
    profiles: list = []
    inner = None
    prev_terms = None
    for _ in range(max_iter):
        g_rows, d_rows = _frozen_terms(coeffs, current, noise)
        if prev_terms is not None \
                and np.array_equal(g_rows, prev_terms[0]) \
                and np.array_equal(d_rows, prev_terms[1]):
            residuals.append(0.0)
            profiles.append(np.zeros(n_pts))
            return FunctionalPicardResult(
                path=current, residuals=tuple(residuals),
                residual_profiles=tuple(profiles), forward_path=inner)
        aug = _AugmentedDrift(drift, times, g_rows)
        frozen = _FrozenDiffusion(times, d_rows)
        inner = solve_forward(cfg, aug, frozen, noise, seam)
        new_values = inner.states.copy()
        new_values[0] = seam
        diff_sq = np.array([triple.h_norm(new_values[k] - current.values[k])
                            ** 2 for k in range(n_pts)])
        profile = np.maximum.accumulate(diff_sq)
        res = math.sqrt(float(profile[-1]))
        residuals.append(res)
        profiles.append(profile)
        current = SegmentPath(memory=mem, history_times=x0seg.history_times,
                              history_values=hist_proj, times=times.copy(),
                              values=new_values, triple=triple)
        prev_terms = (g_rows, d_rows)
        if res < tol:
            return FunctionalPicardResult(
                path=current, residuals=tuple(residuals),
                residual_profiles=tuple(profiles), forward_path=inner)
    raise NonconvergenceError(
        f"functional iteration did not reach tol={tol:g} within "
        f"{max_iter} sweeps (last residual {residuals[-1]:.3e})",
        residuals=residuals)


# ---------------------------------------------------------------------------
# contraction diagnostics


def lambda8_profile(coeffs, times, n_quad: int = 129) -> np.ndarray:
    """The combined modulus rate: one-time profile plus the integrated
    two-time profile, lambda3(t) + int_0^t lambda5(t, s) ds, tabulated on
    ``times``."""
    times = np.asarray(times, dtype=float)
    out = np.empty(len(times))
    for i, t in enumerate(times):
        t = float(t)
        out[i] = coeffs.lambda3_at(t)
        if t > 0:
            grid = np.linspace(0.0, t, n_quad)
            vals = np.array([coeffs.lambda5_at(t, float(s)) for s in grid])
            out[i] += float(np.trapezoid(vals, grid))
    return out


@dataclass
class ContractionReport:
    """Did the measured Picard differences obey the comparison recursion?

    ``fitted_c0`` is the smallest constant making every transition
    satisfy g_next(t) <= c0 * int_0^t lambda8 rho(g) ds; a transition
    with mass where the integral vanishes makes it infinite.  Every
    profile must also lie under the comparison-function envelope
    anchored at the first difference's sup within ``slack`` — the same
    machinery that certifies uniqueness bounds, so a failure means the
    declared rate does not explain the observed contraction.
    """

    fitted_c0: float
    transition_ratios: tuple
    max_envelope_ratio: float
    n_transitions: int
    slack: float
    c0_cap: float
    ok: bool
    notes: list = field(default_factory=list)

    def summary(self) -> str:
        state = "within" if self.ok else "EXCEEDS"
        return (f"picard contraction {state} the comparison bound: "
                f"fitted c0 = {self.fitted_c0:.3g} (cap {self.c0_cap:g}), "
                f"envelope ratio {self.max_envelope_ratio:.3g} "
                f"(slack {self.slack:g}, {self.n_transitions} transitions)")


def bihari_domination_report(residual_profiles: Sequence[np.ndarray],
                             times, lambda8, rho: ModulusSpec,
                             slack: float = 1.2,
                             c0_cap: float = 1e4) -> ContractionReport:
    """Check successive squared-difference profiles against the recursion
    g_next(t) <= c0 * int_0^t lambda8(s) rho(g(s)) ds.

    One constant is fitted across all transitions (the recursion asserts
    a single c0 works for every sweep); the report is red when no finite
    constant fits, when the fit exceeds ``c0_cap``, or when a profile
    pierces the comparison envelope with base point sup of the first
    difference by more than ``slack``.
    """
    times = np.asarray(times, dtype=float)
    lam = np.array([float(lambda8(t)) for t in times]) if callable(lambda8) \
        else np.asarray(lambda8, dtype=float)
    if lam.shape != times.shape:
        raise ConfigError("lambda8 profile must match the time grid")
    profiles = [np.asarray(p, dtype=float) for p in residual_profiles]
    if any(p.shape != times.shape for p in profiles):
        raise ConfigError("residual profiles must match the time grid")

    notes: list = []
    n_trans = max(len(profiles) - 1, 0)
    if n_trans == 0 or float(np.max(profiles[0])) == 0.0:
        notes.append("fewer than two nonzero profiles; domination check "
                     "is vacuous")
        return ContractionReport(fitted_c0=0.0, transition_ratios=(),
                                 max_envelope_ratio=0.0,
                                 n_transitions=n_trans, slack=slack,
                                 c0_cap=c0_cap, ok=True, notes=notes)

    def predicted(prev: np.ndarray) -> np.ndarray:
        integrand = lam * rho_eval(np.maximum(prev, 0.0), rho)
        return np.concatenate([[0.0],
                               cumulative_trapezoid(integrand, times)])

    def ratio(nxt: np.ndarray, pred: np.ndarray) -> float:
        worst = 0.0
        scale = 1e-14 * max(float(np.max(nxt)), 1.0)
        for a, b in zip(nxt, pred):
            if b > 0:
                worst = max(worst, a / b)
            elif a > scale:
                return math.inf
        return worst

    ratios = tuple(ratio(profiles[i + 1], predicted(profiles[i]))
                   for i in range(n_trans))
    fitted_c0 = max(ratios)
    if not math.isfinite(fitted_c0):
        notes.append("a transition carries mass where the recursion "
                     "integral vanishes; no constant fits")
        return ContractionReport(fitted_c0=fitted_c0,
                                 transition_ratios=ratios,
                                 max_envelope_ratio=math.inf,
                                 n_transitions=n_trans, slack=slack,
                                 c0_cap=c0_cap, ok=False, notes=notes)

    g0 = float(np.max(profiles[0]))
    envelope = bihari_bound(g0, max(fitted_c0, 1e-300) * lam, rho,
                            times).bound_curve
    max_env = 0.0
    for prof in profiles:
        with np.errstate(invalid="ignore"):
            r = np.max(np.where(envelope > 0, prof / envelope, 0.0))
        max_env = max(max_env, float(r))
    ok = fitted_c0 <= c0_cap and max_env <= slack
    if n_trans == 1:
        notes.append("single transition: the fitted constant is exact and "
                     "only the envelope check is informative")
    return ContractionReport(fitted_c0=fitted_c0, transition_ratios=ratios,
                             max_envelope_ratio=max_env,
                             n_transitions=n_trans, slack=slack,
                             c0_cap=c0_cap, ok=ok, notes=notes)


# ---------------------------------------------------------------------------
# sampled hypothesis checkers


def segment_sampler(width: int, memory: float, t_final: float = 1.0,
                    n_knots: int = 9, amp_range=(1e-2, 1e1), norm=None):
    """Random piecewise-linear segment pairs with log-uniform amplitudes.

    Returns sample(rng) -> (t, s, seg_a, seg_b) with 0 <= s <= t <= T and
    both segments on the same offset grid.
    """
    if width < 1 or n_knots < 2:
        raise ConfigError("segment sampler needs width >= 1 and >= 2 knots")
    if memory <= 0:
        raise ConfigError("segment sampler needs a positive memory horizon")
    lo, hi = math.log(amp_range[0]), math.log(amp_range[1])
    theta = np.linspace(-memory, 0.0, n_knots)
    theta[-1] = 0.0

    def sample(rng):
        t = float(rng.uniform(0.0, t_final))
        s = float(rng.uniform(0.0, t)) if t > 0 else 0.0
        amp_a = math.exp(rng.uniform(lo, hi))
        amp_b = math.exp(rng.uniform(lo, hi))
        seg_a = Segment(theta=theta.copy(),
                        values=amp_a * rng.standard_normal((n_knots, width)),
                        norm=norm)
        seg_b = Segment(theta=theta.copy(),
                        values=amp_b * rng.standard_normal((n_knots, width)),
                        norm=norm)
        return t, s, seg_a, seg_b

    return sample


def _hs_norm_sq(mat, norm) -> float:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return float(sum(norm(mat[:, j]) ** 2 for j in range(mat.shape[1])))


def check_functional_lipschitz(coeffs: FunctionalCoefficients, sampler,
                               n_samples: int = 300, seed: int = 0,
                               tol: float = 1e-10) -> ViolationReport:
    """Sampled modulus bounds: squared coefficient differences against the
    declared rate times rho of the squared segment distance."""
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
            checks.append(("c1", lhs, coeffs.lambda3_at(t)))
        if coeffs.d1 is not None:
            diff = (np.atleast_2d(np.asarray(coeffs.d1(t, seg_a), float))
                    - np.atleast_2d(np.asarray(coeffs.d1(t, seg_b), float)))
            checks.append(("d1", _hs_norm_sq(diff, norm),
                           coeffs.lambda3_at(t)))
        if coeffs.c2 is not None:
            lhs = norm(np.asarray(coeffs.c2(t, s, seg_a), dtype=float)
                       - np.asarray(coeffs.c2(t, s, seg_b), dtype=float)) ** 2
            checks.append(("c2", lhs, coeffs.lambda5_at(t, s)))
        if coeffs.d2 is not None:
            diff = (np.atleast_2d(np.asarray(coeffs.d2(t, s, seg_a), float))
                    - np.atleast_2d(np.asarray(coeffs.d2(t, s, seg_b), float)))
            checks.append(("d2", _hs_norm_sq(diff, norm),
                           coeffs.lambda5_at(t, s)))
        for label, lhs, rate in checks:
            rhs = rate * rho_eval(dist_sq, coeffs.rho)
            excess = (lhs - rhs) / (1.0 + lhs + rhs)
            if excess > tol:
                report.violations.append(Violation(
                    index=i, t=t, excess=float(excess),
                    detail={"part": label, "lhs": lhs, "rhs": rhs,
                            "distance_sq": dist_sq}))
    return report


def check_functional_growth(coeffs: FunctionalCoefficients, bundle, sampler,
                            n_samples: int = 300, seed: int = 0,
                            tol: float = 1e-10, t_final: float = 1.0,
                            n_quad: int = 65) -> ViolationReport:
    """Sampled growth bounds plus the integrated two-time rate budget.

    The one-time pair is checked against growth_c0 * min(lambda1,
    lambda2)^(2/q1)(t) * (zeta(t) + sup^2); the declared inequalities
    disagree on which coercivity rate anchors this scale, so the check
    takes the minimum and records the ambiguity as a note.  The two-time
    pair is checked against lambda6 + lambda7 * sup^2, and the integral
    of those rates over s is checked against the same one-time scale.
    """
    rng = np.random.default_rng(seed)
    report = ViolationReport(name=f"functional growth[{coeffs.name}]",
                             n_samples=n_samples, tol=tol)
    report.notes.append(
        "one-time growth scale uses min(lambda1, lambda2)^(2/q1): the "
        "declared bounds disagree on which coercivity rate anchors it")

    def scale_one(t: float) -> float:
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
            rhs = scale_one(t) * (coeffs.zeta_at(t) + sup_sq)
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
            rhs = coeffs.lambda6_at(t, s) + coeffs.lambda7_at(t, s) * sup_sq
            excess = (lhs - rhs) / (1.0 + lhs + rhs)
            if excess > tol:
                report.violations.append(Violation(
                    index=i, t=t, excess=float(excess),
                    detail={"part": "two-time", "s": s, "lhs": lhs,
                            "rhs": rhs}))

    for t in np.linspace(t_final / 8.0, t_final, 8):
        grid = np.linspace(0.0, float(t), n_quad)
        vals = np.array([coeffs.lambda6_at(float(t), float(s))
                         + coeffs.lambda7_at(float(t), float(s))
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


def check_volterra_partials(v: VolterraCoefficients, sampler,
                            n_samples: int = 200, seed: int = 0,
                            rel_tol: float = 1e-6,
                            fd_step: float = 1e-5,
                            t_final: float = 1.0) -> ViolationReport:
    """Centered finite differences in the first argument against the
    supplied analytic partials, within rel_tol relative error."""
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
# direct two-time evaluation and the reduction consistency


def _grid_index(times: np.ndarray, t: float) -> int:
    idx = int(np.searchsorted(times, t))
    for cand in (idx, idx - 1):
        if 0 <= cand < len(times) \
                and abs(float(times[cand]) - t) <= 1e-9 * max(1.0, abs(t)):
            return cand
    raise ConfigError(f"time {t:g} does not lie on the stored grid")


def volterra_direct_eval(v: VolterraCoefficients, path: SegmentPath,
                         noise: NoisePath, t: float) -> np.ndarray:
    """Left-point discrete sums of the two-time terms up to time t:
    sum_j kernel(t, s_j, segment_j) dt + sum_j diffusion(t, s_j,
    segment_j) dW_j over grid points s_j < t."""
    times = path.times
    if len(times) > len(noise.times) \
            or not np.allclose(times, noise.times[:len(times)],
                               rtol=0, atol=1e-12):
        raise ConfigError("path and noise must share one time grid")
    t = float(t)
    k = _grid_index(times, t)
    width = path.width
    dt = noise.dt
    out = np.zeros(width)
    for j in range(k):
        s = float(times[j])
        seg = segment(path, s)
        if v.drift_kernel is not None:
            out += dt * _coeff_row(v.drift_kernel, (t, s, seg), width,
                                   "drift_kernel")
        if v.diffusion_kernel is not None:
            mat = _coeff_matrix(v.diffusion_kernel, (t, s, seg), width,
                                "diffusion_kernel")
            out += _against_increments(mat, noise.increments[j],
                                       "diffusion_kernel")
    return out


def volterra_consistency(v: VolterraCoefficients, path: SegmentPath,
                         noise: NoisePath) -> float:
    """Sup over the grid of the H-distance between the direct two-time
    sums and their diagonal-plus-partial rewriting, both under the
    left-point rule on the same fixed path and noise.

    The continuum forms are identical; the discrepancy measures the
    quadrature mismatch and vanishes at first order in the step for
    smooth kernels (exactly, for kernels independent of the first
    argument).
    """
    times = path.times
    n_pts = len(times)
    width = path.width
    dt = noise.dt
    func = volterra_to_functional(v)
    segs = [segment(path, float(s)) for s in times]

    # diagonal-plus-partial form, accumulated with the left-point rule:
    # acc integrates (diagonal drift + inner partial sums) ds, stoch sums
    # the diagonal diffusion against the recorded increments
    worst = 0.0
    acc = np.zeros(width)
    stoch = np.zeros(width)
    for k in range(n_pts):
        if k > 0:
            j = k - 1          # left endpoint of the arriving step
            s = float(times[j])
            term = np.zeros(width)
            if func.c1 is not None:
                term += _coeff_row(func.c1, (s, segs[j]), width,
                                   "diagonal drift")
            if func.c2 is not None:
                inner = np.zeros(width)
                for i in range(j):
                    inner += _coeff_row(func.c2,
                                        (s, float(times[i]), segs[i]),
                                        width, "drift partial")
                term += dt * inner
            if func.d2 is not None:
                inner = np.zeros(width)
                for i in range(j):
                    mat = _coeff_matrix(func.d2,
                                        (s, float(times[i]), segs[i]),
                                        width, "diffusion partial")
                    inner += _against_increments(mat, noise.increments[i],
                                                 "diffusion partial")
                term += inner
            acc = acc + dt * term
            if func.d1 is not None:
                mat = _coeff_matrix(func.d1, (s, segs[j]), width,
                                    "diagonal diffusion")
                stoch = stoch + _against_increments(
                    mat, noise.increments[j], "diagonal diffusion")
        direct = volterra_direct_eval(v, path, noise, float(times[k]))
        worst = max(worst, path.h_norm_of(direct - (acc + stoch)))
    return worst


# ---------------------------------------------------------------------------
# export


def functional_trajectory_csv(result: FunctionalPicardResult) -> str:
    """The forward trajectory format preceded by a history block.

    History rows carry negative times, the mode coefficients of the
    projected prescribed past, its norms, and a zero energy residual (no
    step arrives there); the block from time 0 on is exactly the final
    inner solve's trajectory table.
    """
    inner = trajectory_csv(result.forward_path)
    lines = inner.split("\r\n")
    header, body = lines[0], lines[1:]
    path = result.path
    triple = path.triple
    n = result.forward_path.n_modes
    out = [header]
    for k in range(len(path.history_times) - 1):
        t = float(path.history_times[k])
        row = path.history_values[k]
        coeff = triple.coefficients(row, n)
        cells = [t, *coeff, float(coeff @ coeff),
                 triple.x_norm(row, 1), triple.x_norm(row, 2), 0.0]
        out.append(",".join(f"{c:.17g}" for c in cells))
    out.extend(body)
    return "\r\n".join(out)
