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
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .analysis import (ModulusSpec, _rate, bihari_bound, linear_modulus,
                       picard_comparison_curve, rho_eval)
from .errors import ConfigError, MonoseeError, NonconvergenceError
from .forward import (SolverConfig, SolutionPath, _trajectory_table,
                      solve_forward)
from .noise import EMPTY_CONTEXT, NoiseBatch, _one_row
from .operators import DriftTerm, _grid_eval, _grid_jacobian, profile_on_grid
from .reporting import (ViolationReport, _record, _require_amp_range,
                        _require_t_final, _sampled_check, csv_text)

__all__ = [
    "Segment", "SegmentPath", "segment_distance",
    "FunctionalCoefficients", "VolterraCoefficients",
    "FunctionalPicardResult", "ContractionReport",
    "picard_solve_functional", "picard_solve_functional_stack",
    "lambda8_profile",
    "bihari_domination_report", "segment_sampler",
    "check_functional_lipschitz", "check_functional_growth",
    "check_volterra_partials", "volterra_to_functional",
    "volterra_direct_eval", "volterra_consistency",
    "functional_trajectory_csv",
]

_GRID_ATOL = 1e-12


@dataclass(frozen=True)
class Segment:
    """A window of a path, or a stack of windows, indexed by the offset
    into the past.

    ``theta`` runs from -memory to 0 (0 = "now"); ``values`` holds one
    state row per offset, (knots, width), or S windows on that one offset
    grid, (S, knots, width).  Every reader works row-wise on a stack:
    ``end`` and ``at`` return (S, width) rows instead of one (width,) row,
    and ``sup_norm`` one norm per window.  Rows between stored offsets are
    linearly interpolated, so the sup-norm over the window is attained at
    the stored rows and ``sup_norm`` is exact for the piecewise-linear
    path.  ``norm`` maps state rows along the last axis to their norms,
    every row in one call (Euclidean when None).  The offsets must be
    finite.
    """

    theta: np.ndarray
    values: np.ndarray
    norm: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if theta.ndim != 1 or values.ndim not in (2, 3) \
                or len(theta) != values.shape[-2]:
            raise ConfigError("segment needs 1-d offsets and value rows "
                              "(knots, width), or a stack of them "
                              "(S, knots, width)")
        if not np.isfinite(theta).all():
            raise ConfigError("segment offsets must be finite")
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
        return self.values.shape[-1]

    @property
    def memory(self) -> float:
        return -float(self.theta[0])

    @property
    def end(self) -> np.ndarray:
        """The current state, i.e. the row at offset 0."""
        return self.values[..., -1, :]

    def at(self, theta: float) -> np.ndarray:
        """The row at one offset: a stored row exactly, else linearly
        interpolated between its neighbours."""
        grid, rows, th = self.theta, self.values, float(theta)
        guard = _GRID_ATOL * max(1.0, self.memory)
        if th < grid[0] - guard or th > guard:
            raise ConfigError(f"offset {th:g} outside the window "
                              f"[{grid[0]:g}, 0]")
        idx = int(np.searchsorted(grid, th))
        if idx < len(grid) and abs(float(grid[idx]) - th) <= guard:
            return rows[..., idx, :].copy()
        if idx > 0 and abs(float(grid[idx - 1]) - th) <= guard:
            return rows[..., idx - 1, :].copy()
        lo, hi = idx - 1, idx
        w = (th - float(grid[lo])) / (float(grid[hi]) - float(grid[lo]))
        return (1.0 - w) * rows[..., lo, :] + w * rows[..., hi, :]

    def row_norm(self, rows):
        """The norm of each state row along the last axis."""
        if self.norm is None:
            return np.linalg.norm(rows, axis=-1)
        return self.norm(rows)

    def sup_norm(self):
        """The sup of the row norm over the window, one per window."""
        return np.max(self.row_norm(self.values), axis=-1)


def segment_distance(a: Segment, b: Segment):
    """Sup over the window of the norm of the difference of two segments
    on one offset grid, one distance per window of a stack.

    Exact for piecewise-linear segments: their difference is piecewise
    linear on the shared grid, so its norm attains the sup at a knot.
    """
    if a.theta.shape != b.theta.shape or np.any(
            np.abs(a.theta - b.theta) > _GRID_ATOL * max(1.0, a.memory)):
        raise ConfigError(f"segments must share one offset grid; these "
                          f"cover memory windows {a.memory:g} and "
                          f"{b.memory:g} on {len(a.theta)} and "
                          f"{len(b.theta)} knots")
    return np.max(a.row_norm(a.values - b.values), axis=-1)


@dataclass
class SegmentPath:
    """A path with memory: the prescribed past plus the trajectory.

    ``past`` is the window on [-memory, 0]; the trajectory holds the
    evolving states from time 0 onward, and its first row must equal
    ``past.end`` (the seam).  Norms use the attached triple's H-norm when
    present, else the Euclidean norm of the rows; ``h_norm_of`` is that
    norm of each row along the last axis.
    """

    past: Segment
    times: np.ndarray
    values: np.ndarray
    triple: object = field(repr=False, default=None)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.values.ndim != 2 \
                or len(self.times) != len(self.values):
            raise ConfigError("trajectory needs matching 1-d times and 2-d "
                              "value rows")
        if self.past.values.ndim != 2:
            raise ConfigError("the past of a path is one window, not a stack")
        if self.past.width != self.values.shape[1]:
            raise ConfigError(f"history width {self.past.width} does not "
                              f"match trajectory width {self.values.shape[1]}")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ConfigError("trajectory times must be strictly increasing")
        if self.times[0] != 0.0:
            raise ConfigError("trajectory must start at time 0")
        if not np.array_equal(self.past.end, self.values[0]):
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
        return np.concatenate([self.past.theta[:-1], self.times])

    @property
    def combined_values(self) -> np.ndarray:
        return np.concatenate([self.past.values[:-1], self.values])

    def h_norm_of(self, rows):
        """The norm of each state row along the last axis."""
        if self.triple is not None:
            return self.triple.h_norm(rows)
        return np.linalg.norm(np.asarray(rows, dtype=float), axis=-1)

    def windows(self) -> Segment:
        """The window ending at every trajectory time, stacked on the
        past's offsets: one strided view of ``combined_values``.  The
        past's knots must be the step grid, offsets -j dt."""
        steps = np.diff(self.combined_times)
        if len(steps) and np.any(np.abs(steps - steps[-1])
                                 > 1e-9 * steps[-1]):
            raise ConfigError(
                f"the past's {len(self.past.theta)} knots over memory "
                f"{self.past.memory:g} are not the step grid of the "
                f"trajectory (offsets -j dt, dt = {steps[-1]:g})")
        view = np.lib.stride_tricks.sliding_window_view(
            self.combined_values, len(self.past.theta), axis=0)
        return Segment(theta=self.past.theta, values=np.swapaxes(view, 1, 2),
                       norm=self.h_norm_of)


# ---------------------------------------------------------------------------
# coefficient bundles


@dataclass
class _DeclaredRates:
    """The declared bounds of both coefficient bundles."""

    rho: ModulusSpec = field(default_factory=linear_modulus)
    lambda3: object = 1.0
    lambda5: object = 1.0
    lambda6: object = 0.0
    lambda7: object = 0.0
    zeta: object = 0.0
    growth_c0: float = 1.0

    def __post_init__(self):
        if self.growth_c0 <= 0:
            raise ConfigError("growth_c0 must be positive")


@dataclass
class FunctionalCoefficients(_DeclaredRates):
    """Memory-reading coefficient functions and their declared bounds.

    ``c1(t, segment)`` and ``d1(t, segment)`` feed the dynamics directly;
    ``c2(t, s, segment)`` and ``d2(t, s, segment)`` enter through time
    integrals over s < t (d2 through the stochastic integral).  Any of
    the four may be None, meaning identically zero.  Each is called on a
    stacked :class:`Segment` of S windows, with its times as columns
    that broadcast against what it returns: (S, 1) for c1 and c2, which
    return (S, width) state rows, and (S, 1, 1) for d1 and d2, which
    return (S, width, m) noise factors, m at most the noise modes.  So
    ``np.exp(-(t - s)) * seg.end`` and ``np.exp(-(t - s)) * col`` for a
    (width, m) column ``col`` both work as written; a coefficient that
    ignores its arguments may return one row or factor.  ``lambda3``
    scales the modulus bound of the one-time pair, ``lambda5`` of the
    two-time pair; ``lambda6``/``lambda7``/``zeta`` enter the growth
    bounds with overall factor ``growth_c0``.  Profiles may be constants
    or callables of t (one-time) / (t, s) (two-time) that accept arrays
    of times (``np.exp``, not ``math.exp``): the checkers and
    :func:`lambda8_profile` pass whole stacks and grids in one call.
    """

    c1: Optional[Callable] = None
    c2: Optional[Callable] = None
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    name: str = "functional coefficients"


@dataclass
class VolterraCoefficients(_DeclaredRates):
    """Two-time kernels evaluated at (t, s) with analytic t-partials.

    ``drift_kernel(t, s, segment)`` returns state rows, and
    ``diffusion_kernel(t, s, segment)`` (width, m) factors for the noise
    increment at s, both on a stacked segment with the times as columns,
    as c2 and d2 of FunctionalCoefficients (the drift pair is called with
    (S, 1) columns, the diffusion pair with (S, 1, 1) ones).  The
    partials in the first argument must be supplied analytically (None
    means identically zero, as for a kernel that does not depend on its
    first argument); a finite-difference check guards against
    inconsistent inputs.  Declared bounds as in FunctionalCoefficients.
    """

    drift_kernel: Optional[Callable] = None
    diffusion_kernel: Optional[Callable] = None
    drift_kernel_dt: Optional[Callable] = None
    diffusion_kernel_dt: Optional[Callable] = None
    name: str = "volterra coefficients"


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
        name=f"{v.name} (diagonal + partial form)",
        **{f.name: getattr(v, f.name) for f in fields(_DeclaredRates)})


# ---------------------------------------------------------------------------
# frozen-forcing Picard iteration


def _stacked(fn, who: str, times, seg: Segment, factor: bool = False):
    """A coefficient called once on a stack of S windows, its times (one
    1-d array per argument) passed as (S, 1) columns, or (S, 1, 1) for a
    noise ``factor``: state rows (S, width) or factors (S, width, m), or
    one (width, m) factor for all S that keeps its shape on one window."""
    n, width = seg.values.shape[0], seg.width
    columns = [np.reshape(t, (n,) + (1,) * (1 + factor)) for t in times]
    out = np.asarray(fn(*columns, seg), dtype=float)
    expected = (n, width, out.shape[-1]) if factor and out.ndim \
        else (n, width)
    try:
        if out.ndim < len(expected) - 1 or out.shape[-1 - factor] != width:
            raise ValueError
        if factor and out.ndim == 2 and n == width > 1 and np.shape(fn(
                *(c[:1] for c in columns),
                Segment(seg.theta, seg.values[:1], seg.norm))) != out.shape:
            raise ValueError
        return np.broadcast_to(out, expected)
    except ValueError:
        raise ConfigError(f"{who} returned shape {out.shape}, expected "
                          f"({n}, {width}{', noise modes' * factor})") \
            from None


def _check_noise_columns(mats: np.ndarray, n_modes: int, who: str) -> None:
    """(..., width, m) noise factors with m <= n_modes embed into the
    leading noise coordinates; more columns than the noise provides is a
    configuration error."""
    if mats.shape[-1] > n_modes:
        raise ConfigError(f"{who} returned {mats.shape[-1]} noise columns "
                          f"but the noise path carries only {n_modes} modes")


def _frozen_terms(coeffs: FunctionalCoefficients, path: SegmentPath,
                  noise: NoiseBatch):
    """Tabulate the functional forcing and diffusion along one iterate.

    Returns (g_rows, d_rows): g_rows[k] is the frozen drift addition at
    grid time k (one-time term plus accumulated two-time integrals,
    left-point rule, stochastic part against the recorded increments);
    d_rows[k] is the frozen diffusion factor.  Each one-time coefficient
    is called once on the windows at every grid time, each two-time one
    once per grid time t_k on the windows at the sources s_j < t_k;
    nothing is recomputed inside the inner solver.
    """
    _one_row(noise, "the memory terms")
    increments = noise.increments[0]
    times = path.times
    n_pts = len(times)
    width = path.width
    dt = float(times[1] - times[0]) if n_pts > 1 else 0.0
    windows = path.windows()

    g_rows = np.zeros((n_pts, width))
    if coeffs.c1 is not None:
        g_rows += _stacked(coeffs.c1, "c1", (times,), windows)
    if coeffs.c2 is not None or coeffs.d2 is not None:
        for k in range(1, n_pts):
            sources = Segment(windows.theta, windows.values[:k],
                              windows.norm)
            past = (np.full(k, times[k]), times[:k])
            if coeffs.c2 is not None:
                g_rows[k] += dt * np.sum(
                    _stacked(coeffs.c2, "c2", past, sources), axis=0)
            if coeffs.d2 is not None:
                mats = _stacked(coeffs.d2, "d2", past, sources, factor=True)
                _check_noise_columns(mats, noise.n_modes, "d2")
                g_rows[k] += np.einsum("jwm,jm->w", mats,
                                       increments[:k, :mats.shape[-1]])
    if coeffs.d1 is None:
        return g_rows, np.zeros((n_pts, width, 1))
    d_rows = _stacked(coeffs.d1, "d1", (times,), windows, factor=True)
    _check_noise_columns(d_rows, noise.n_modes, "d1")
    return g_rows, d_rows


class _GridRows:
    """Rows tabulated on a uniform grid, looked up by time."""

    def __init__(self, times: np.ndarray, rows: np.ndarray):
        self._times = np.asarray(times, dtype=float)
        self._rows = rows
        self._dt = float(self._times[1] - self._times[0]) \
            if len(self._times) > 1 else 1.0

    def at(self, t) -> np.ndarray:
        """The row at a float grid time t; at a column of times (..., 1),
        whose trailing axis is a stack's state axis, the rows (..., row).
        A time off the grid raises MonoseeError naming it."""
        if isinstance(t, np.ndarray) and t.ndim:
            times = t[..., 0]
            return np.array([self.at(s) for s in times.ravel()]).reshape(
                times.shape + self._rows.shape[1:])
        idx = int(round((float(t) - float(self._times[0])) / self._dt))
        if not 0 <= idx < len(self._times) \
                or abs(float(self._times[idx]) - float(t)) > 1e-9:
            raise MonoseeError(f"frozen coefficient row requested off the "
                               f"grid (t = {t:g})")
        return self._rows[idx]


class _AugmentedDrift:
    """Base drift plus a frozen, time-tabulated forcing row.

    ``g_rows`` holds one forcing row per grid time, (n_pts, width), or one
    per stacked state, (n_pts, R, width), for a solve over an (R, n_grid)
    stack.  The terms are the base drift's plus the row as an identity
    term of part 1 whose psi ignores the state (and whose psi' is zero);
    the row is looked up at a float grid time, or, for one row per grid
    time, per state at an (S, 1) column of grid times, as the sampled
    checkers pass.
    """

    eval = _grid_eval
    jacobian = _grid_jacobian

    def __init__(self, base, times, g_rows):
        self.base = base
        self.triple = base.triple
        self._rows = _GridRows(times, g_rows)

    def terms(self):
        rows = self._rows

        def forcing(t, ctx, z):
            return np.broadcast_to(rows.at(t), np.shape(z))

        def flat(t, ctx, z):
            return np.zeros(np.shape(z))

        return (*self.base.terms(), DriftTerm(None, forcing, flat, None))


class _FrozenDiffusion:
    """Diffusion factors tabulated along the previous iterate: one
    (width, m) factor per grid time, (n_pts, width, m), or one per stacked
    state, (n_pts, R, width, m).  Looked up at a float grid time, or, for
    one factor per grid time, per state at an (S, 1) column of them."""

    def __init__(self, times, d_rows):
        self._rows = _GridRows(times, d_rows)
        self.n_modes = int(d_rows.shape[-1])

    def eval(self, t, ctx, u):
        return self._rows.at(t)


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
                            noise: NoiseBatch, past: Segment,
                            cfg: SolverConfig, max_iter: int = 30,
                            tol: float = 1e-8,
                            first_iterate=None) -> FunctionalPicardResult:
    """Solve the memory-dependent equation by frozen-forcing iteration.

    Each sweep tabulates the functional terms along the previous iterate
    and solves the resulting plain equation (base drift plus frozen
    forcing, frozen diffusion) with the forward solver, starting every
    trajectory from the past's current state ``past.end``.  The past is
    projected onto the configured Galerkin modes once, so all iterates
    live in the same subspace.  The first iterate is the constant
    extension of the seam value unless ``first_iterate`` supplies
    trajectory rows (its seam row is always pinned to the past).
    Iteration stops when the sup-H distance of successive iterates drops
    below tol; if one sweep reproduces the previous frozen terms bit for
    bit, the iterate is an exact fixed point of the (deterministic) sweep
    map and a final residual of 0.0 is recorded without re-solving.

    This is the one-start call of :func:`picard_solve_functional_stack`,
    whose loop it runs; its errors name no start.
    """
    try:
        [result] = picard_solve_functional_stack(
            drift, coeffs, noise, past, cfg, [first_iterate],
            max_iter=max_iter, tol=tol)
    except NonconvergenceError as err:
        err.replica = None
        raise
    return result


def picard_solve_functional_stack(drift, coeffs: FunctionalCoefficients,
                                  noise: NoiseBatch, past: Segment,
                                  cfg: SolverConfig, first_iterates,
                                  max_iter: int = 30,
                                  tol: float = 1e-8) -> list:
    """Frozen-forcing iteration from several first iterates at once.

    One FunctionalPicardResult per entry of ``first_iterates`` (each None
    for the constant extension of the seam, or trajectory rows, as
    ``first_iterate`` of :func:`picard_solve_functional`), all on one past
    and one noise path, a batch of one row (ConfigError for more rows).
    Each sweep tabulates the frozen terms of every active row, one row at
    a time, and makes one forward solve over the rows that still need one
    (``solve_forward`` on an (R, n_grid) stack of seams).  A row leaves
    the stack once it converges or takes the exact-fixed-point exit, so
    each row takes the sweeps, and gets the result, it would get alone (up
    to the rounding of the stacked products).  A row that does not
    converge within ``max_iter`` sweeps, or whose inner solve fails,
    raises the NonconvergenceError it raises alone, with ``replica`` its
    index in ``first_iterates``; ``failures`` lists every row that failed
    at that sweep.
    """
    triple = drift.triple
    if past.values.ndim != 2:
        raise ConfigError("the past of a path is one window, not a stack")
    if past.width != triple.n_grid:
        raise ConfigError(f"initial segment width {past.width} does not "
                          f"match the grid size {triple.n_grid}")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    dt = noise.dt
    mem = past.memory
    if mem > 0:
        steps = mem / dt
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError(f"memory horizon {mem:g} must be a whole "
                              f"number of time steps (dt = {dt:g})")

    times = noise.times
    n_pts = len(times)
    n = cfg.n_modes_galerkin
    past = Segment(theta=past.theta, values=triple.project(past.values, n))
    seam = past.end

    current = []
    for first_iterate in first_iterates:
        if first_iterate is None:
            traj = np.tile(seam, (n_pts, 1))
        else:
            traj = np.array(first_iterate, dtype=float)
            if traj.shape != (n_pts, past.width):
                raise ConfigError(f"first_iterate has shape {traj.shape}, "
                                  f"expected ({n_pts}, {past.width})")
            traj = triple.project(traj, n)
            traj[0] = seam
        current.append(SegmentPath(past, times.copy(), traj, triple))
    if not current:
        raise ConfigError("first_iterates must hold at least one start")

    # per row; a row that leaves the stack keeps its entries as they are
    n_rows = len(current)
    residuals = [[] for _ in range(n_rows)]
    profiles = [[] for _ in range(n_rows)]
    inner = [None] * n_rows
    prev_terms = [None] * n_rows
    active = list(range(n_rows))
    for _ in range(max_iter):
        solving, terms = [], []
        for i in active:
            g_rows, d_rows = _frozen_terms(coeffs, current[i], noise)
            if prev_terms[i] is not None \
                    and np.array_equal(g_rows, prev_terms[i][0]) \
                    and np.array_equal(d_rows, prev_terms[i][1]):
                residuals[i].append(0.0)
                profiles[i].append(np.zeros(n_pts))
            else:
                solving.append(i)
                terms.append((g_rows, d_rows))
        active = []
        if not solving:
            break
        try:  # the tables stacked behind their time axis, as looked up
            paths = solve_forward(
                cfg, _AugmentedDrift(drift, times, np.stack(
                    [g for g, _ in terms], axis=1)),
                _FrozenDiffusion(times, np.stack(
                    [d for _, d in terms], axis=1)),
                noise, np.tile(seam, (len(solving), 1)))
        except NonconvergenceError as err:
            for e in err.failures or [err]:
                e.replica = solving[e.replica]
            raise
        for i, path, row_terms in zip(solving, paths, terms):
            new_values = path.states.copy()
            new_values[0] = seam
            diff_sq = triple.h_norm(new_values - current[i].values) ** 2
            profile = np.maximum.accumulate(diff_sq)
            res = math.sqrt(float(profile[-1]))
            residuals[i].append(res)
            profiles[i].append(profile)
            current[i] = SegmentPath(past, times.copy(), new_values, triple)
            inner[i], prev_terms[i] = path, row_terms
            if not res < tol:  # a NaN residual does not converge
                active.append(i)
    if active:
        failures = [NonconvergenceError(
            f"functional iteration did not reach tol={tol:g} within "
            f"{max_iter} sweeps (last residual {residuals[i][-1]:.3e})",
            residuals=residuals[i], replica=i) for i in active]
        failures[0].failures = failures
        raise failures[0]
    return [FunctionalPicardResult(path=path, residuals=tuple(res),
                                   residual_profiles=tuple(prof),
                                   forward_path=last)
            for path, res, prof, last in zip(current, residuals, profiles,
                                             inner)]


# ---------------------------------------------------------------------------
# contraction diagnostics


def lambda8_profile(coeffs, times, n_quad: int = 129) -> np.ndarray:
    """The combined modulus rate: one-time profile plus the integrated
    two-time profile, lambda3(t) + int_0^t lambda5(t, s) ds, tabulated on
    ``times`` (one rate call each, the two-time one on the whole
    (times x n_quad) quadrature grid)."""
    times = np.asarray(times, dtype=float)
    grid = np.linspace(0.0, times, n_quad, axis=-1)
    mass = np.trapezoid(_rate(coeffs.lambda5, times[:, None], grid), grid,
                        axis=-1)
    return _rate(coeffs.lambda3, times) + mass


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


# the largest fitted c0 a domination report accepts
_C0_CAP = 1e4


def bihari_domination_report(residual_profiles: Sequence[np.ndarray],
                             times, lambda8, rho: ModulusSpec,
                             slack: float = 1.2) -> ContractionReport:
    """Check successive squared-difference profiles against the recursion
    g_next(t) <= c0 * int_0^t lambda8(s) rho(g(s)) ds.

    One constant is fitted across all transitions (the recursion asserts
    a single c0 works for every sweep); the report is red when no finite
    constant fits, when the fit exceeds ``_C0_CAP`` (recorded as the
    report's ``c0_cap``), or when a profile pierces the comparison
    envelope with base point sup of the first difference by more than
    ``slack``.
    """
    times = np.asarray(times, dtype=float)
    if np.ndim(lambda8) and np.shape(lambda8) != times.shape:
        raise ConfigError("lambda8 profile must match the time grid")
    lam = _rate(lambda8, times)
    profiles = [np.asarray(p, dtype=float) for p in residual_profiles]
    if any(p.shape != times.shape for p in profiles):
        raise ConfigError("residual profiles must match the time grid")

    notes: list = []
    n_trans = max(len(profiles) - 1, 0)
    report = partial(ContractionReport, n_transitions=n_trans, slack=slack,
                     c0_cap=_C0_CAP, notes=notes)
    if n_trans == 0 or float(np.max(profiles[0])) == 0.0:
        notes.append("fewer than two nonzero profiles; domination check "
                     "is vacuous")
        return report(fitted_c0=0.0, transition_ratios=(),
                      max_envelope_ratio=0.0, ok=True)

    def ratio(nxt: np.ndarray, pred: np.ndarray) -> float:
        # the largest finite-or-inf a/b over b > 0; a NaN quotient is
        # skipped, and mass where the integral vanishes has no constant
        covered = pred > 0
        if np.any(~covered & (nxt > 1e-14 * max(float(np.max(nxt)), 1.0))):
            return math.inf
        quotient = nxt[covered] / pred[covered]
        return float(np.max(quotient[~np.isnan(quotient)], initial=0.0))

    ratios = tuple(
        ratio(profiles[i + 1],
              picard_comparison_curve(profiles[i], lam, rho, times, c0=1.0))
        for i in range(n_trans))
    fitted_c0 = max(ratios)
    if not math.isfinite(fitted_c0):
        notes.append("a transition carries mass where the recursion "
                     "integral vanishes; no constant fits")
        return report(fitted_c0=fitted_c0, transition_ratios=ratios,
                      max_envelope_ratio=math.inf, ok=False)

    g0 = float(np.max(profiles[0]))
    envelope = bihari_bound(g0, max(fitted_c0, 1e-300) * lam, rho,
                            times).bound_curve
    with np.errstate(invalid="ignore"):
        per_profile = np.max(np.where(envelope > 0, np.stack(profiles)
                                      / envelope, 0.0), axis=-1)
    max_env = float(np.max(per_profile[~np.isnan(per_profile)],
                           initial=0.0))
    if n_trans == 1:
        notes.append("single transition: the fitted constant is exact and "
                     "only the envelope check is informative")
    return report(fitted_c0=fitted_c0, transition_ratios=ratios,
                  max_envelope_ratio=max_env,
                  ok=fitted_c0 <= _C0_CAP and max_env <= slack)


# ---------------------------------------------------------------------------
# sampled hypothesis checkers: each draws every sample first, stacks the
# drawn segments, calls each coefficient once on the stack and compares
# on it


def segment_sampler(width: int, memory: float, t_final: float = 1.0,
                    n_knots: int = 9, amp_range=(1e-2, 1e1), norm=None):
    """Random piecewise-linear segment pairs with log-uniform amplitudes.

    Returns sample(rng) -> (t, s, seg_a, seg_b) with 0 <= s <= t <= T and
    both segments on the same offset grid.  An amp_range outside 0 < lo
    <= hi < inf, a memory that is not positive and finite, or a negative
    or non-finite t_final raises ConfigError.
    """
    if width < 1 or n_knots < 2:
        raise ConfigError("segment sampler needs width >= 1 and >= 2 knots")
    if not 0.0 < memory < math.inf:
        raise ConfigError(f"segment sampler needs a positive, finite memory "
                          f"horizon, got {memory!r}")
    _require_amp_range(amp_range, "segment sampler")
    _require_t_final(t_final, "segment sampler")
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


def _stack(segs) -> Segment:
    """The drawn segments, on one offset grid, as one stacked segment."""
    theta = segs[0].theta
    if any(not np.array_equal(seg.theta, theta) for seg in segs):
        raise ConfigError("sampled segments must share one offset grid")
    return Segment(theta, np.stack([seg.values for seg in segs]),
                   segs[0].norm)


def _sq_norms(label: str, fn, times, segs: Segment,
              others: Optional[Segment] = None) -> np.ndarray:
    """Squared norm of a coefficient at every sample of a stack (or of its
    difference from its value at ``others``), Hilbert-Schmidt for a d1/d2
    factor, in the segments' row norm."""
    factor = label[0] == "d"
    values = _stacked(fn, label, times, segs, factor)
    if others is not None:
        values = values - _stacked(fn, label, times, others, factor)
    rows = np.swapaxes(values, -1, -2) if factor else values[:, None]
    return np.sum(segs.row_norm(rows) ** 2, axis=-1)


def check_functional_lipschitz(coeffs: FunctionalCoefficients, sampler,
                               n_samples: int = 300, seed: int = 0,
                               tol: float = 1e-10) -> ViolationReport:
    """Sampled modulus bounds: squared coefficient differences against the
    declared rate times rho of the squared segment distance."""

    def evaluate(t, s, seg_a, seg_b):
        seg_a, seg_b = _stack(seg_a), _stack(seg_b)
        dist_sq = segment_distance(seg_a, seg_b) ** 2
        groups = []
        for label, fn, times, rate in (
                ("c1", coeffs.c1, (t,), coeffs.lambda3),
                ("d1", coeffs.d1, (t,), coeffs.lambda3),
                ("c2", coeffs.c2, (t, s), coeffs.lambda5),
                ("d2", coeffs.d2, (t, s), coeffs.lambda5)):
            if fn is None:
                continue
            lhs = _sq_norms(label, fn, times, seg_a, seg_b)
            rhs = _rate(rate, *times) * rho_eval(dist_sq, coeffs.rho)
            excess = (lhs - rhs) / (1.0 + lhs + rhs)
            groups.append((excess, excess > tol,
                           {"part": label, "lhs": lhs, "rhs": rhs,
                            "distance_sq": dist_sq}))
        return groups

    return _sampled_check(f"functional modulus[{coeffs.name}]", n_samples,
                          tol, seed, sampler, evaluate)


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
    of those rates over s is checked against the same one-time scale at
    8 times, each rate called once on the (8 x n_quad) quadrature grid.
    """

    def scale_one(t: np.ndarray) -> np.ndarray:
        rate = np.minimum(profile_on_grid(bundle.lambda1, t, EMPTY_CONTEXT),
                          profile_on_grid(bundle.lambda2, t, EMPTY_CONTEXT))
        return coeffs.growth_c0 * rate ** (2.0 / bundle.q1)

    def evaluate(t, s, seg_a, _):
        seg_a = _stack(seg_a)
        sup_sq = seg_a.sup_norm() ** 2
        groups = []
        if coeffs.c1 is not None or coeffs.d1 is not None:
            lhs = sum(_sq_norms(label, fn, (t,), seg_a) for label, fn in
                      (("c1", coeffs.c1), ("d1", coeffs.d1)) if fn is not None)
            rhs = scale_one(t) * (_rate(coeffs.zeta, t) + sup_sq)
            excess = (lhs - rhs) / (1.0 + lhs + rhs)
            groups.append((excess, excess > tol,
                           {"part": "one-time", "lhs": lhs, "rhs": rhs}))
        if coeffs.c2 is not None or coeffs.d2 is not None:
            lhs = sum(_sq_norms(label, fn, (t, s), seg_a) for label, fn in
                      (("c2", coeffs.c2), ("d2", coeffs.d2)) if fn is not None)
            rhs = _rate(coeffs.lambda6, t, s) \
                + _rate(coeffs.lambda7, t, s) * sup_sq
            excess = (lhs - rhs) / (1.0 + lhs + rhs)
            groups.append((excess, excess > tol,
                           {"part": "two-time", "s": s, "lhs": lhs,
                            "rhs": rhs}))
        return groups

    report = _sampled_check(f"functional growth[{coeffs.name}]", n_samples,
                            tol, seed, sampler, evaluate)
    report.notes.append(
        "one-time growth scale uses min(lambda1, lambda2)^(2/q1): the "
        "declared bounds disagree on which coercivity rate anchors it")

    budget_t = np.linspace(t_final / 8.0, t_final, 8)
    grid = np.linspace(0.0, budget_t, n_quad, axis=-1)
    mass = np.trapezoid(_rate(coeffs.lambda6, budget_t[:, None], grid)
                        + _rate(coeffs.lambda7, budget_t[:, None], grid),
                        grid, axis=-1)
    cap = scale_one(budget_t)
    excess = (mass - cap) / (1.0 + mass + cap)
    return _record(report, budget_t, [
        (excess, excess > tol,
         {"part": "two-time rate budget", "mass": mass, "cap": cap})],
        index=np.full(len(budget_t), -1))


def check_volterra_partials(v: VolterraCoefficients, sampler,
                            n_samples: int = 200, seed: int = 0,
                            rel_tol: float = 1e-6,
                            fd_step: float = 1e-5,
                            t_final: float = 1.0) -> ViolationReport:
    """Centered finite differences in the first argument against the
    supplied analytic partials, within rel_tol relative error."""
    pairs = [pair for pair in (
        ("drift_kernel", v.drift_kernel, v.drift_kernel_dt),
        ("diffusion_kernel", v.diffusion_kernel, v.diffusion_kernel_dt))
        if pair[1] is not None]

    def draw(rng):
        t, s, seg, _ = sampler(rng)
        return min(max(t, fd_step), t_final - fd_step), s, seg

    def evaluate(t, s, seg):
        seg = _stack(seg)
        groups = []
        for label, kernel, partial in pairs:
            factor = label == "diffusion_kernel"
            fd = (_stacked(kernel, label, (t + fd_step, s), seg, factor)
                  - _stacked(kernel, label, (t - fd_step, s), seg, factor)
                  ) / (2.0 * fd_step)
            ref = np.zeros_like(fd) if partial is None \
                else _stacked(partial, label, (t, s), seg, factor)
            axes = tuple(range(1, fd.ndim))
            err = np.max(np.abs(fd - ref), axis=axes)
            rel = err / (1.0 + np.max(np.abs(ref), axis=axes)
                         + np.max(np.abs(fd), axis=axes))
            groups.append((rel - rel_tol, rel > rel_tol,
                           {"part": label, "s": s, "fd_error": err}))
        return groups

    return _sampled_check(f"volterra partials[{v.name}]", n_samples, rel_tol,
                          seed, draw, evaluate)


# ---------------------------------------------------------------------------
# direct two-time evaluation and the reduction consistency


def volterra_direct_eval(v: VolterraCoefficients, path: SegmentPath,
                         noise: NoiseBatch) -> np.ndarray:
    """The direct two-time sums at every grid time t_k of ``path``, an
    (n_pts, width) table: row k is sum_j drift_kernel(t_k, s_j,
    segment_j) dt + sum_j diffusion_kernel(t_k, s_j, segment_j) dW_j over
    grid points s_j < t_k (left-point rule).  These are the frozen
    two-time terms of the kernels taken as the pair (c2, d2)."""
    times = path.times
    if len(times) > len(noise.times) \
            or not np.allclose(times, noise.times[:len(times)],
                               rtol=0, atol=1e-12):
        raise ConfigError("path and noise must share one time grid")
    direct = FunctionalCoefficients(c2=v.drift_kernel, d2=v.diffusion_kernel)
    return _frozen_terms(direct, path, noise)[0]


def volterra_consistency(v: VolterraCoefficients, path: SegmentPath,
                         noise: NoiseBatch) -> float:
    """Sup over the grid of the H-distance between the direct two-time
    sums and their diagonal-plus-partial rewriting, both under the
    left-point rule on the same fixed path and noise.

    The rewriting at t_k is the running left sum over s_j < t_k of the
    frozen forcing of ``volterra_to_functional(v)`` times dt plus its
    frozen diffusion against dW_j.  The continuum forms are identical;
    the discrepancy measures the quadrature mismatch and vanishes at
    first order in the step for smooth kernels (exactly, for kernels
    independent of the first argument).
    """
    direct = volterra_direct_eval(v, path, noise)
    g_rows, d_rows = _frozen_terms(volterra_to_functional(v), path, noise)
    inc = noise.increments[0, :len(d_rows) - 1, :d_rows.shape[2], None]
    zero = np.zeros((1, path.width))
    acc = np.cumsum(np.concatenate([zero, noise.dt * g_rows[:-1]]), axis=0)
    stoch = np.cumsum(np.concatenate([zero, (d_rows[:-1] @ inc)[..., 0]]),
                      axis=0)
    return float(np.max(path.h_norm_of(direct - (acc + stoch))))


# ---------------------------------------------------------------------------
# export


def functional_trajectory_csv(result: FunctionalPicardResult) -> str:
    """The forward trajectory format preceded by a history block.

    History rows carry negative times, the mode coefficients of the
    projected prescribed past, its norms, and a zero energy residual (no
    step arrives there); the block from time 0 on is exactly the final
    inner solve's trajectory table.
    """
    header, body = _trajectory_table(result.forward_path)
    past, triple = result.path.past, result.path.triple
    n = result.forward_path.n_modes
    hist = past.values[:-1]
    coeff = triple.coefficients(hist, n)
    rows = [[float(t), *c, float(c @ c), x1, x2, 0.0] for t, c, x1, x2 in zip(
        past.theta[:-1], coeff, triple.x_norm(hist, 1), triple.x_norm(hist, 2))]
    return csv_text(header, rows + body)
