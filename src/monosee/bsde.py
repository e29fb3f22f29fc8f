"""Regression-based solvers for backward equations with monotone drift.

The backward dynamics run against the clock:

    X(t) = X_T + int_t^T A(s, X(s)) ds + int_t^T C(s, X(s), Z(s)) ds
               - int_t^T Z(s) dW(s),

with a dissipative drift A (up to a ``lambda0`` shift that an exponential
change of variables removes up front) and a driver C that is Lipschitz in
z but only modulus-continuous in x.  Everything works in coordinates: the
state lives in R^d (a Galerkin section when the terminal condition comes
from a spatially extended problem), the noise has finitely many modes,
and conditional expectations are global least-squares projections onto a
polynomial basis of the Markovian state, Longstaff-Schwartz style.

The path ensemble is one :class:`~monosee.noise.NoiseBatch`: R replicas
on one grid.  The regression state is the vector of cumulative noise
values W(t_k), one row per replica, and every step of the recursion acts
on the whole (R, d) stack at once: the terminal condition maps the batch
to X_T of shape (R, d), drivers take stacked x (R, d) and z (R, d, m),
and the implicit drift step is one resolvent solve over the stack (a
non-diagonal drift must therefore act row by row).

The drift enters each backward step implicitly through its regularization
with parameter tied to the step size.  Writing J_eps for the resolvent
(y - eps*A(t,y) = x) and A_eps(x) = (J_eps(x) - x)/eps for the regularized
map, the implicit step collapses to a single resolvent call:

    y - s*A_eps(y) = x    <=>    y = x + s/(s+eps) * (J_{s+eps}(x) - x),

because j := J_eps(y) then solves j - (eps+s)*A(t,j) = x.  With s = eps =
dt the step is the average of the identity and J_{2dt}.

Drivers that depend on z (or on x) are handled by freezing that argument
at the previous iterate and re-solving, in one nested loop: an outer loop
on the x argument, from the zero process, around an inner one on z.
``picard_in_x`` runs it, ``picard_in_z`` runs its one outer pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .analysis import ModulusSpec, _rate, linear_modulus, rho_eval
from .errors import ConfigError, NonconvergenceError, RegressionError
from .noise import NoiseBatch
from .reporting import (ViolationReport, _require_amp_range,
                        _require_t_final, _sample_sum, _sampled_check,
                        csv_text)
from .resolvent import MonotoneMap, NewtonCounts, resolvent

__all__ = [
    "BsdeDriver",
    "zero_driver",
    "BsdeProblem",
    "driver_state_sampler",
    "check_driver_modulus",
    "check_driver_growth",
    "PolynomialBasis",
    "polynomial_basis",
    "regularized_implicit_step",
    "BsdeSolution",
    "BackwardCounts",
    "reduce_lambda0",
    "solve_bsde_autonomous_C",
    "picard_in_z",
    "picard_in_x",
    "z_path_distance",
    "martingale_residuals",
    "BsdeAprioriReport",
    "apriori_bound_check",
    "solution_csv",
]


# ---------------------------------------------------------------------------
# problem data


@dataclass
class BsdeDriver:
    """The forcing C(t, x, z) of the backward equation.

    ``eval`` takes (t, x, z) with x of shape (..., d) and z of shape
    (..., d, m) (one H-valued column per noise mode) and returns x's
    shape (..., d).  The solvers make one call per driver evaluation
    over every replica and left grid time: x (R, N, d) and z (R, N, d, m)
    with the times as an (N, 1) column; the sampled checkers hand it a
    stack of samples with their times as an (S, 1) column.  So ``eval``
    and the profile ``zeta`` must accept array times (``np.exp(t)``, not
    ``math.exp(t)``), and a time factor on z needs one more trailing axis.

    The declared continuity data mirror the structural hypotheses the
    checkers sample:

      modulus:  |C(t,x,z) - C(t,x',z')|^2 <= c1*(rho(|x-x'|^2) + |z-z'|^2)
      growth:   |C(t,x,z)| <= zeta(t) + c2*(|x| + |z|)

    with Frobenius norms on z.  ``x_dependent`` / ``z_dependent`` declare
    which arguments the driver actually reads; the Picard loops use them
    to validate their preconditions and to shortcut trivial cases.
    """

    eval: Callable
    rho: ModulusSpec = field(default_factory=linear_modulus)
    c1: float = 1.0
    c2: float = 1.0
    zeta: Optional[Callable] = None
    x_dependent: bool = True
    z_dependent: bool = True
    name: str = "driver"

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0:
            raise ConfigError("driver constants c1, c2 must be >= 0")

    def zeta_at(self, t):
        """zeta at t (a float or an array of times), in t's shape."""
        return _rate(self.zeta, t)


def zero_driver() -> BsdeDriver:
    """The C = 0 driver (independent of both arguments)."""
    return BsdeDriver(eval=lambda t, x, z: np.zeros(np.shape(x)),
                      c1=0.0, c2=0.0, x_dependent=False, z_dependent=False,
                      name="zero driver")


@dataclass
class BsdeProblem:
    """A backward problem in coordinates.

    ``drift`` is the map A(t, x) on R^d, dissipative up to the declared
    ``lambda0`` shift (2<x-y, A(x)-A(y)> <= lambda0 |x-y|^2); a positive
    shift is removed by :func:`reduce_lambda0` before any solver runs.
    The solvers evaluate it on the (R, dim) stack of all replicas, so a
    non-diagonal drift must act row by row (see :class:`MonotoneMap`).
    ``terminal`` maps the driving :class:`NoiseBatch` to the terminal
    states X_T, one row per replica: shape (R, dim).  ``eta`` optionally
    declares the forcing intercept profile t -> |A(t, 0)| used by the
    a-priori budget, which calls it once on its whole quadrature grid (so
    it takes an array of times, as ``zeta`` does); when omitted the budget
    evaluates |A(t, 0)| directly.
    """

    drift: MonotoneMap
    driver: BsdeDriver
    terminal: Callable[[NoiseBatch], np.ndarray]
    t_final: float
    n_modes: int
    dim: int = 1
    lambda0: float = 0.0
    eta: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0 < self.t_final < math.inf:
            raise ConfigError(f"t_final must lie in (0, inf), got {self.t_final!r}")
        if self.n_modes < 1 or self.dim < 1:
            raise ConfigError("n_modes and dim must be at least 1")
        if not 0 <= self.lambda0 < math.inf:
            raise ConfigError(f"lambda0 must lie in [0, inf), got {self.lambda0!r}")


# ---------------------------------------------------------------------------
# sampled driver checks


def driver_state_sampler(dim: int, n_modes: int, t_final: float = 1.0,
                         amp_range=(1e-2, 1e1)):
    """Random (t, x, z) with log-uniform amplitudes for the driver checks;
    an amp_range outside 0 < lo <= hi < inf, or a negative or non-finite
    t_final, raises ConfigError."""
    _require_amp_range(amp_range, "driver state sampler")
    _require_t_final(t_final, "driver state sampler")
    lo, hi = math.log(amp_range[0]), math.log(amp_range[1])

    def sample(rng):
        t = float(rng.uniform(0.0, t_final))
        x = float(np.exp(rng.uniform(lo, hi))) * rng.standard_normal(dim)
        z = float(np.exp(rng.uniform(lo, hi))) * rng.standard_normal((dim, n_modes))
        return t, x, z

    return sample


def check_driver_modulus(driver: BsdeDriver, sampler, n_samples: int = 500,
                         seed: int = 0, tol: float = 1e-10) -> ViolationReport:
    """Sampled two-point continuity check of the driver.

    excess = |C(t,x,z) - C(t,x',z')|^2
             - c1*(rho(|x-x'|^2) + |z-z'|_F^2)
    must be <= 0 up to a relative tolerance.
    """

    def draw(rng):
        t, x, z = sampler(rng)
        _, x2, z2 = sampler(rng)
        if rng.uniform() < 0.1:
            x2, z2 = x.copy(), z.copy()  # exercise the coincident edge
        return t, x, z, x2, z2

    def evaluate(t, x, z, x2, z2):
        dc = np.asarray(driver.eval(t[:, None], x, z), dtype=float) \
            - np.asarray(driver.eval(t[:, None], x2, z2), dtype=float)
        lhs = _sample_sum(dc * dc)
        dx2, dz2 = _sample_sum((x - x2) ** 2), _sample_sum((z - z2) ** 2)
        rhs = driver.c1 * (rho_eval(dx2, driver.rho) + dz2)
        excess = lhs - rhs
        return [(excess, excess > tol * (1.0 + lhs + rhs),
                 {"lhs": lhs, "rhs": rhs, "dx2": dx2, "dz2": dz2})]

    return _sampled_check(f"driver modulus[{driver.name}]", n_samples, tol,
                          seed, draw, evaluate)


def check_driver_growth(driver: BsdeDriver, sampler, n_samples: int = 500,
                        seed: int = 0, tol: float = 1e-10) -> ViolationReport:
    """Sampled linear-growth check of the driver.

    excess = |C(t,x,z)| - zeta(t) - c2*(|x| + |z|_F) must be <= 0 up to a
    relative tolerance.
    """

    def evaluate(t, x, z):
        c = np.asarray(driver.eval(t[:, None], x, z), dtype=float)
        lhs = np.sqrt(_sample_sum(c * c))
        rhs = driver.zeta_at(t[:, None])[:, 0] + driver.c2 * (
            np.sqrt(_sample_sum(x * x)) + np.sqrt(_sample_sum(z * z)))
        excess = lhs - rhs
        return [(excess, excess > tol * (1.0 + lhs + rhs),
                 {"lhs": lhs, "rhs": rhs})]

    return _sampled_check(f"driver growth[{driver.name}]", n_samples, tol,
                          seed, sampler, evaluate)


# ---------------------------------------------------------------------------
# regression basis


@dataclass(frozen=True)
class PolynomialBasis:
    """Monomials of the Markovian state used for the least-squares fits.

    ``exponents[j]`` is the multi-index of basis term j over the state
    variables; ``names[j]`` its printable label.  ``design`` turns a
    (..., variables) stack of states into the (..., terms) design: a
    (samples, variables) block gives the design matrix, a (times,
    samples, variables) stack one design per time.
    """

    exponents: tuple
    names: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.names) or not self.exponents:
            raise ConfigError("basis needs matching, non-empty exponents and names")
        widths = {len(e) for e in self.exponents}
        if len(widths) != 1:
            raise ConfigError("all basis multi-indices must have equal length")
        if any(k < 0 or int(k) != k for e in self.exponents for k in e):
            raise ConfigError("basis exponents must be non-negative integers")

    @property
    def n_terms(self) -> int:
        return len(self.exponents)

    @property
    def n_vars(self) -> int:
        return len(self.exponents[0])

    @property
    def has_intercept(self) -> bool:
        return any(sum(e) == 0 for e in self.exponents)

    def design(self, states) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if states.shape[-1] != self.n_vars:
            raise ConfigError(
                f"basis expects {self.n_vars} state variables, got "
                f"{states.shape[-1]}")
        design = np.empty(states.shape[:-1] + (self.n_terms,))
        for j, e in enumerate(self.exponents):
            np.prod(states ** np.asarray(e, dtype=float), axis=-1,
                    out=design[..., j])
        return design


def polynomial_basis(n_vars: int, degree: int = 2) -> PolynomialBasis:
    """All monomials of total degree <= degree in n_vars variables w1, w2, ...

    Terms are ordered by total degree, then by variable (earlier variables
    first), so degree 2 in two variables reads 1, w1, w2, w1^2, w1*w2,
    w2^2.
    """
    if n_vars < 1 or degree < 0:
        raise ConfigError("need n_vars >= 1 and degree >= 0")
    idx = []
    for total in range(degree + 1):
        level = [()]
        for _ in range(n_vars):
            level = [e + (k,) for e in level for k in range(total - sum(e) + 1)]
        idx.extend(sorted((e for e in level if sum(e) == total),
                          key=lambda e: tuple(-k for k in e)))
    names = []
    for e in idx:
        parts = []
        for v, k in enumerate(e):
            if k == 1:
                parts.append(f"w{v + 1}")
            elif k > 1:
                parts.append(f"w{v + 1}^{k}")
        names.append("*".join(parts) if parts else "1")
    return PolynomialBasis(exponents=tuple(idx), names=tuple(names))


def _fit_stderr(targets: np.ndarray, fitted: np.ndarray, n_active,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """rms(targets - fitted) * sqrt(active columns / samples) of each fit
    in a (fits, samples, t) stack; the residuals go to ``out`` if given."""
    resid = np.subtract(targets, fitted, out=out)
    resid *= resid
    mean_sq = np.add.reduce(resid.reshape(len(resid), -1), axis=1) \
        / resid[0].size
    return np.sqrt(mean_sq * n_active / resid.shape[1])


def _factor(designs: np.ndarray, names, times=None):
    """Factor a (times, samples, terms) stack of designs for least-squares
    fits: returns each time's zero-padded factor (times, terms, terms) and
    its count of active columns (times,).

    Columns that are exactly constant across the sample are absorbed by
    the first non-zero constant column (the intercept when the basis has
    one), with zero reported for the absorbed coefficients: conditioning
    on a degenerate state (all paths share the same value, as the noise
    does at time zero) is a plain mean, not an error.  The remaining
    a active columns A (samples, a) factor as A = QR with LAPACK's R
    alone (no Q is formed) and R = W S V^T, so A = (QW) S V^T is A's thin
    SVD without its thin U.  A factor holds V S^-1 on the active rows and
    the first a columns, zeros elsewhere: U = design @ factor is the
    orthonormal block, padded with zero columns, that :func:`_fit` takes.

    Times with the same active columns share one stacked QR and one
    stacked SVD of their triangles (LAPACK still factors each design on
    its own).  The rank test is ``lstsq``'s, on the singular values of
    QR's triangle, which are the active columns' own: singular values
    above eps * max(samples, active columns) * s_max count.  An
    identically zero design, or a rank deficiency left after absorbing
    the constant columns (genuine collinearity), raises
    :class:`RegressionError` for the earliest such time, naming it when
    ``times`` are given.
    """
    n_times, n_rows, n_cols = designs.shape
    # each design's columns as contiguous rows: for the spans, and handed to
    # QR transposed back, in the column-major layout LAPACK reads
    columns = np.ascontiguousarray(designs.transpose(0, 2, 1))
    spans = columns.max(axis=2) - columns.min(axis=2)
    groups = {}
    for i in range(n_times):
        carrier = np.flatnonzero((spans[i] == 0.0) & (columns[i, :, 0] != 0.0))
        active = tuple(carrier[:1]) + tuple(np.flatnonzero(spans[i] != 0.0))
        groups.setdefault(active, []).append(i)
    n_active = np.zeros(n_times, dtype=np.int64)
    ranks = np.zeros(n_times, dtype=np.int64)
    solved = []
    for active, idx in groups.items():
        if active:
            _, s, vt = np.linalg.svd(np.linalg.qr(
                columns[np.ix_(idx, active)].transpose(0, 2, 1), mode="r"))
            cutoff = np.finfo(float).eps * max(n_rows, len(active)) * s[:, :1]
            n_active[idx] = len(active)
            ranks[idx] = np.count_nonzero(s > cutoff, axis=1)
            solved.append((idx, active, s, vt))
    failed = np.flatnonzero((n_active == 0) | (ranks < n_active))
    if len(failed):
        i = failed[0]
        basis = ", ".join(names)
        where = "" if times is None else f" at t = {float(times[i]):.6g}"
        if not n_active[i]:
            raise RegressionError(f"regression design is identically zero "
                                  f"for basis [{basis}]{where}")
        raise RegressionError(
            f"regression design is rank-deficient (rank {ranks[i]} < "
            f"{n_active[i]} independent columns over {n_rows} samples) for "
            f"basis [{basis}]{where}")
    factors = np.zeros((n_times, n_cols, n_cols))
    for idx, active, s, vt in solved:
        factors[np.ix_(idx, active, range(len(active)))] = \
            vt.transpose(0, 2, 1) / s[:, None, :]
    return factors, n_active


def _fit(u: np.ndarray, factors: np.ndarray, targets: np.ndarray,
         coeffs: Optional[np.ndarray] = None,
         fitted: Optional[np.ndarray] = None):
    """Least-squares fits of a (times, samples, t) stack of targets y on
    the orthonormal blocks u = design @ factor (times, samples, terms) of
    :func:`_factor`: returns (factor U^T y, U U^T y), the basis
    coefficients (zero on absorbed columns) and the fitted values, each
    written to ``coeffs`` / ``fitted`` when given."""
    weights = u.transpose(0, 2, 1) @ targets
    return (np.matmul(factors, weights, out=coeffs),
            np.matmul(u, weights, out=fitted))


# ---------------------------------------------------------------------------
# the regularized implicit step


def regularized_implicit_step(drift: MonotoneMap, t: float, dt: float, rhs,
                              tol: float = 1e-12, max_iter: int = 200,
                              counts: Optional[NewtonCounts] = None
                              ) -> np.ndarray:
    """Solve y - dt*A_eps(t, y) = rhs with regularization scale eps = dt.

    Evaluates the exact closed form y = (rhs + J_{2dt}(rhs))/2 (see the
    module docstring) with one resolvent solve over a stacked rhs: a
    diagonal drift acts elementwise, a general one row by row on
    (..., d).  ``counts`` (a :class:`~monosee.resolvent.NewtonCounts`
    shaped like the resolvent's stack) accumulates the Newton work; a
    linear drift's resolvent is solved in closed form and counts none.
    ``dt`` must lie in (0, inf).
    """
    if not 0 < dt < math.inf:
        raise ConfigError(f"step size must lie in (0, inf), got {dt!r}")
    rhs = np.asarray(rhs, dtype=float)
    j = resolvent(drift, t, 2.0 * dt, rhs, tol=tol, max_iter=max_iter,
                  counts=counts)
    return 0.5 * (rhs + j)


# ---------------------------------------------------------------------------
# solution record


@dataclass
class BsdeSolution:
    """Pathwise backward solution and its regression representation.

    ``x_paths[r, k]`` is X(t_k) on path r; the terminal row holds the
    exact terminal values, not their fit.  ``z_paths[r, k]`` is the
    fitted (hence t_k-measurable) Z(t_k) block of shape (dim, n_modes).
    ``x_coeffs[k]`` / ``z_coeffs[k]`` express the same objects over the
    basis; the terminal row of ``x_coeffs`` is the least-squares fit of
    X_T whose rms residual is ``terminal_residual``.

    ``x_fit_stderr[k]`` is the Monte-Carlo error scale of the conditional
    expectation regression feeding X(t_k) (at the terminal index: of the
    terminal fit); ``z_fit_stderr[k]`` the same for the Z regression.
    ``conditional_fit[r, k]`` keeps the fitted E[X(t_{k+1}) | t_k-state]
    and ``driver_values[r, k]`` the forcing used at t_k, so diagnostics
    can replay each step exactly.
    """

    times: np.ndarray
    x_coeffs: np.ndarray
    z_coeffs: np.ndarray
    x_paths: np.ndarray = field(repr=False)
    z_paths: np.ndarray = field(repr=False)
    conditional_fit: np.ndarray = field(repr=False)
    driver_values: np.ndarray = field(repr=False)
    basis: PolynomialBasis = field(repr=False)
    x_fit_stderr: np.ndarray = field(repr=False)
    z_fit_stderr: np.ndarray = field(repr=False)
    terminal_residual: float = 0.0
    picard_residuals: tuple = ()
    inner_picard_residuals: tuple = ()

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.x_paths.shape[2]

    @property
    def n_modes(self) -> int:
        return self.z_paths.shape[3]

    @property
    def contraction_ratios(self) -> tuple:
        """Successive residual ratios of the recorded iteration history."""
        res = self.picard_residuals
        return tuple(res[i + 1] / res[i]
                     for i in range(len(res) - 1) if res[i] > 0.0)

    def x_at(self, k: int, states) -> np.ndarray:
        """Evaluate the regression representation of X(t_k) at new states."""
        return self.basis.design(states) @ self.x_coeffs[k]

    def z_at(self, k: int, states) -> np.ndarray:
        """Evaluate the regression representation of Z(t_k) at new states."""
        return np.tensordot(self.basis.design(states), self.z_coeffs[k],
                            axes=(1, 0))


@dataclass
class BackwardCounts:
    """Work of the backward regression solvers, accumulated over solves.

    ``sweeps`` counts backward recursion passes, ``factorizations`` the
    regression designs factored (one per grid time per solve) and
    ``fits`` the least-squares fits made with them (the terminal fit plus
    three per step, per sweep).  ``newton_iterations`` and
    ``line_search_halvings`` total the damped-Newton work of the implicit
    drift steps over all replicas.  ``driver_evaluations`` counts the
    driver matrices evaluated, each one stacked ``eval`` call over all
    paths and left grid times.  Pass one to a solver as ``counts`` to
    have it add its work.
    """

    sweeps: int = 0
    factorizations: int = 0
    fits: int = 0
    newton_iterations: int = 0
    line_search_halvings: int = 0
    driver_evaluations: int = 0


def z_path_distance(z_a: np.ndarray, z_b: np.ndarray, dt: float) -> float:
    """Mean-square space-time distance of two Z iterates.

    sqrt( sum_k dt * mean_r |z_a[r,k] - z_b[r,k]|_F^2 ), the discrete form
    of the norm the z-iteration contracts in.
    """
    diff = np.asarray(z_a, dtype=float) - np.asarray(z_b, dtype=float)
    return float(np.sqrt(dt * np.sum(np.mean(diff ** 2, axis=0))))


# ---------------------------------------------------------------------------
# the exponential shift reduction


def reduce_lambda0(problem: BsdeProblem):
    """Exponential change of variables removing the drift's lambda0 shift.

    Returns (reduced problem, gamma) with gamma(t) = exp(lambda0*t/2).
    The reduced state is gamma*X (and gamma*Z): its drift
    gamma(t)*A(t, x/gamma(t)) - lambda0*x/2 is dissipative with no shift,
    the driver becomes gamma(t)*C(t, x/gamma, z/gamma) and the terminal
    gamma(T)*X_T.  Solvers apply this up front and divide the solution by
    gamma afterwards, so their internals always see lambda0 = 0.  A
    linear drift stays linear, with slope a - lambda0/2 (or A - lambda0/2*I).
    The declared driver constants transform conservatively (c1 picks up
    the worst-case factor exp(lambda0*T), zeta the factor gamma(t)).
    """
    lam = problem.lambda0

    def gamma(t):
        """gamma at a float t, or elementwise at an array of times."""
        return np.exp(0.5 * lam * np.asarray(t, dtype=float))

    if lam == 0.0:
        return problem, gamma

    base_drift = problem.drift
    base_driver = problem.driver
    base_terminal = problem.terminal
    base_eta = problem.eta

    def drift_eval(t, x):
        g = gamma(t)
        x = np.asarray(x, dtype=float)
        return g * np.asarray(base_drift.eval(t, x / g), dtype=float) \
            - 0.5 * lam * x

    drift_jac = None
    if base_drift.jacobian is not None:
        def drift_jac(t, x):
            x = np.asarray(x, dtype=float)
            shift = 1.0 if base_drift.diagonal else np.eye(x.shape[-1])
            return np.asarray(base_drift.jacobian(t, x / gamma(t)),
                              dtype=float) - 0.5 * lam * shift

    slope = base_drift.slope
    if slope is not None:  # gamma cancels in the linear part
        slope = slope - 0.5 * lam * (1.0 if base_drift.diagonal
                                     else np.eye(len(slope)))
    drift = MonotoneMap(eval=drift_eval, jacobian=drift_jac,
                        diagonal=base_drift.diagonal,
                        name=f"{base_drift.name} (shift-reduced)",
                        slope=slope)

    def driver_eval(t, x, z):
        g = gamma(t)
        # z carries a trailing modes axis that an (S, 1) time column lacks
        z = np.asarray(z, dtype=float) / np.expand_dims(g, -1)
        return g * np.asarray(
            base_driver.eval(t, np.asarray(x, dtype=float) / g, z),
            dtype=float)

    zeta = None
    if base_driver.zeta is not None:
        zeta = lambda t: gamma(t) * base_driver.zeta_at(t)
    driver = replace(base_driver, eval=driver_eval, zeta=zeta,
                     c1=base_driver.c1 * math.exp(lam * problem.t_final),
                     name=f"{base_driver.name} (shift-reduced)")

    g_final = gamma(problem.t_final)
    terminal = lambda batch: g_final * np.asarray(base_terminal(batch),
                                                  dtype=float)
    eta = None if base_eta is None else \
        (lambda t: gamma(t) * _rate(base_eta, t))
    reduced = replace(problem, drift=drift, driver=driver, terminal=terminal,
                      lambda0=0.0, eta=eta)
    return reduced, gamma


def _unscale_solution(sol: BsdeSolution, gamma) -> BsdeSolution:
    """Divide a reduced-coordinates solution by gamma(t) grid-pointwise."""
    g = gamma(sol.times)
    if np.all(g == 1.0):
        return sol
    n = sol.n_steps
    return replace(
        sol,
        x_coeffs=sol.x_coeffs / g[:, None, None],
        z_coeffs=sol.z_coeffs / g[:n, None, None, None],
        x_paths=sol.x_paths / g[None, :, None],
        z_paths=sol.z_paths / g[None, :n, None, None],
        conditional_fit=sol.conditional_fit / g[None, 1:, None],
        driver_values=sol.driver_values / g[None, :n, None],
        x_fit_stderr=sol.x_fit_stderr / g,
        z_fit_stderr=sol.z_fit_stderr / g[:n],
        terminal_residual=sol.terminal_residual / g[-1],
    )


# ---------------------------------------------------------------------------
# the backward sweep


def _check_batch(problem: BsdeProblem, batch: NoiseBatch) -> None:
    if batch.n_modes != problem.n_modes:
        raise ConfigError(
            f"the batch carries {batch.n_modes} noise modes but the problem "
            f"declares {problem.n_modes}")
    if not abs(batch.t_final - problem.t_final) <= 1e-12 * max(1.0, problem.t_final):
        raise ConfigError(
            f"the batch ends at t = {batch.t_final:g} but the problem "
            f"horizon is {problem.t_final:g}")


def _state_values(batch: NoiseBatch) -> np.ndarray:
    """Markovian regression states W(t_k), time first: (N+1, R, modes)."""
    states = np.empty((batch.n_steps + 1, batch.n_replicas, batch.n_modes))
    states[0] = 0.0
    np.cumsum(batch.increments.transpose(1, 0, 2), axis=0, out=states[1:])
    return states


@dataclass(frozen=True)
class _Regression:
    """What a solve keeps of its regression designs (see :func:`_prepare`):
    the states W(t_k) (N+1, R, modes), each grid time's zero-padded
    :func:`_factor` factor (N+1, terms, terms) and its count of active
    columns (N+1,).  The designs themselves are rebuilt from the
    states a block of grid times at a time."""

    states: np.ndarray
    factors: np.ndarray
    n_active: np.ndarray


# grid times per stacked block: bounds each block buffer at _BLOCK * R rows
_BLOCK = 8


def _driver_matrix(driver: BsdeDriver, times: np.ndarray, x_frozen: np.ndarray,
                   z_frozen: np.ndarray, counts: BackwardCounts) -> np.ndarray:
    """Driver values on the left grid points over all paths: (R, N, d),
    one stacked call with the (N, 1) column of left grid times."""
    t_left = times[:x_frozen.shape[1], None]
    values = np.asarray(driver.eval(t_left, x_frozen, z_frozen), dtype=float)
    if values.shape != x_frozen.shape:
        raise ConfigError(f"driver {driver.name} returned shape "
                          f"{values.shape} for stacked input {x_frozen.shape}")
    counts.driver_evaluations += 1
    return values


def _terminal_values(problem: BsdeProblem, batch: NoiseBatch) -> np.ndarray:
    values = np.asarray(problem.terminal(batch), dtype=float)
    expected = (batch.n_replicas, problem.dim)
    if values.shape != expected:
        raise ConfigError(
            f"terminal returned shape {values.shape}, expected {expected} "
            f"(replicas, dim)")
    return values


def _backward_sweep(problem: BsdeProblem, batch: NoiseBatch,
                    basis: PolynomialBasis, regression: _Regression,
                    c_values: np.ndarray, resolvent_tol: float,
                    resolvent_max_iter: int,
                    counts: BackwardCounts) -> BsdeSolution:
    """One backward recursion pass for fixed (pathwise) driver values.

    X(t_k) = fit of X(t_{k+1}) + dt*A_eps(t_{k+1}, X(t_k)) + dt*C(t_k)
    with the implicit regularized drift solved by the resolvent identity,
    then Z(t_k) = fit of X(t_{k+1}) * dW_k / dt, both fits over the basis
    evaluated at the t_k states, with the factors :func:`_prepare` made
    once per solve.  The grid is walked down in blocks of ``_BLOCK``
    times.  Each block builds its orthonormal blocks U_k = design_k @
    factor_k in one stacked product, then runs the only sequential part,
    the conditional fit and implicit step of each time from the top of
    the block down; the X weights, the Z targets, weights and fitted
    values, both stderrs and the basis coefficients of the whole block
    then follow as stacked products over its times.  The buffers are
    allocated once per sweep.
    """
    times = batch.times
    n = batch.n_steps
    dt = batch.dt
    r_count = batch.n_replicas
    d = problem.dim
    m = problem.n_modes
    terms = basis.n_terms
    states, factors = regression.states, regression.factors

    x_paths = np.empty((r_count, n + 1, d))
    z_paths = np.empty((r_count, n, d, m))
    cond = np.empty((r_count, n, d))
    x_coeffs = np.empty((n + 1, terms, d))
    z_coeffs = np.empty((n, terms, d, m))
    x_stderr = np.empty(n + 1)
    z_stderr = np.empty(n)
    # time-first views of the records and of the increments
    x_t = x_paths.transpose(1, 0, 2)
    z_coeffs_flat = z_coeffs.reshape(n, terms, d * m)
    incs_t = batch.increments.transpose(1, 0, 2)
    # time-first block buffers: U_k, X(t_k) with X at the block's top time
    # in the last row, the conditional fits, dt*C(t_k) during the chain and
    # the Z targets after it, and the Z fits
    block = min(_BLOCK, n)
    u_buf = np.empty((block, r_count, terms))
    x_buf = np.empty((block + 1, r_count, d))
    cond_buf = np.empty((block, r_count, d))
    work_buf = np.empty(block * r_count * d * m)
    z_buf = np.empty((block, r_count, d * m))

    counts.sweeps += 1
    counts.fits += 3 * n + 1
    newton = NewtonCounts((r_count, d) if problem.drift.diagonal else r_count)
    x_paths[:, n] = _terminal_values(problem, batch)
    u = np.matmul(basis.design(states[n:]), factors[n:], out=u_buf[:1])
    _, fitted = _fit(u, factors[n:], x_t[n:], coeffs=x_coeffs[n:])
    x_stderr[n] = _fit_stderr(x_t[n:], fitted, regression.n_active[n:])[0]
    terminal_residual = float(np.sqrt(np.mean((x_t[n] - fitted[0]) ** 2)))

    for top in range(n, 0, -block):
        low = max(top - block, 0)
        rows = top - low
        u = np.matmul(basis.design(states[low:top]), factors[low:top],
                      out=u_buf[:rows])
        x_block, cond_block = x_buf[:rows + 1], cond_buf[:rows]
        x_block[rows] = x_paths[:, top]
        forcing = np.multiply(dt, c_values[:, low:top].transpose(1, 0, 2),
                              out=work_buf[:rows * r_count * d].reshape(
                                  rows, r_count, d))
        for i in range(rows - 1, -1, -1):
            k = low + i
            np.matmul(u[i], u[i].T @ x_paths[:, k + 1], out=cond_block[i])
            x_paths[:, k] = x_block[i] = regularized_implicit_step(
                problem.drift, float(times[k + 1]), dt,
                cond_block[i] + forcing[i], tol=resolvent_tol,
                max_iter=resolvent_max_iter, counts=newton)
        cond[:, low:top] = cond_block.transpose(1, 0, 2)
        n_active = regression.n_active[low:top]
        after = x_block[1:]
        np.matmul(factors[low:top], u.transpose(0, 2, 1) @ x_t[low:top],
                  out=x_coeffs[low:top])
        x_stderr[low:top] = _fit_stderr(after, cond_block, n_active,
                                        out=cond_block)
        targets = np.multiply(after[..., None], incs_t[low:top, :, None, :],
                              out=work_buf[:rows * r_count * d * m].reshape(
                                  rows, r_count, d, m))
        targets /= dt
        targets = targets.reshape(rows, r_count, d * m)
        _, z_fit = _fit(u, factors[low:top], targets,
                        coeffs=z_coeffs_flat[low:top], fitted=z_buf[:rows])
        z_paths[:, low:top] = z_fit.reshape(rows, r_count, d, m).transpose(
            1, 0, 2, 3)
        z_stderr[low:top] = _fit_stderr(targets, z_fit, n_active, out=z_fit)
    counts.newton_iterations += int(newton.iterations.sum())
    counts.line_search_halvings += int(newton.halvings.sum())

    return BsdeSolution(times=times.copy(), x_coeffs=x_coeffs,
                        z_coeffs=z_coeffs, x_paths=x_paths, z_paths=z_paths,
                        conditional_fit=cond, driver_values=c_values,
                        basis=basis, x_fit_stderr=x_stderr,
                        z_fit_stderr=z_stderr,
                        terminal_residual=terminal_residual)


def _prepare(problem: BsdeProblem, batch: NoiseBatch, basis,
             counts: BackwardCounts):
    """Shared validation: reduce the shift, build the basis and factor the
    regression design of every grid time, once for the whole solve.

    Returns (reduced problem, gamma, basis, :class:`_Regression`).  The
    one array of size R kept is the (N+1, R, modes) state stack, built in
    that layout from the increments; the designs are built and handed to
    :func:`_factor` one block of ``_BLOCK`` grid times at a time, and live
    only that long.
    """
    reduced, gamma = reduce_lambda0(problem)
    _check_batch(reduced, batch)
    states = _state_values(batch)
    if basis is None:
        basis = polynomial_basis(states.shape[2], degree=2)
    if not basis.has_intercept:
        raise ConfigError("the regression basis must span constants "
                          "(no intercept term found)")
    n_times = len(states)
    factors = np.empty((n_times, basis.n_terms, basis.n_terms))
    n_active = np.empty(n_times, dtype=np.int64)
    for low in range(0, n_times, _BLOCK):
        top = min(low + _BLOCK, n_times)
        factors[low:top], n_active[low:top] = _factor(
            basis.design(states[low:top]), basis.names, batch.times[low:top])
    counts.factorizations += n_times
    return reduced, gamma, basis, _Regression(states, factors, n_active)


# ---------------------------------------------------------------------------
# solvers


def solve_bsde_autonomous_C(problem: BsdeProblem, batch: NoiseBatch,
                            basis: Optional[PolynomialBasis] = None,
                            resolvent_tol: float = 1e-10,
                            resolvent_max_iter: int = 100,
                            counts: Optional[BackwardCounts] = None
                            ) -> BsdeSolution:
    """Backward solve for a driver independent of both x and z.

    The recursion conditions each X(t_{k+1}) on the t_k state by a
    least-squares fit, adds dt times the (deterministic-in-state) forcing,
    and applies the implicit regularized drift step; Z(t_k) comes from the
    martingale-increment regression fit of X(t_{k+1})*dW_k/dt.  ``counts``
    (a :class:`BackwardCounts`) accumulates the solve's work.
    """
    if problem.driver.x_dependent or problem.driver.z_dependent:
        raise ConfigError(
            f"solve_bsde_autonomous_C needs a driver independent of x and z; "
            f"{problem.driver.name} declares x_dependent="
            f"{problem.driver.x_dependent}, z_dependent="
            f"{problem.driver.z_dependent}")
    counts = BackwardCounts() if counts is None else counts
    reduced, gamma, basis, regression = _prepare(problem, batch, basis,
                                                  counts)
    lead = (batch.n_replicas, batch.n_steps, reduced.dim)
    # read-only zero views: the driver reads neither argument
    c_values = _driver_matrix(
        reduced.driver, batch.times, np.broadcast_to(0.0, lead),
        np.broadcast_to(0.0, lead + (reduced.n_modes,)), counts)
    sol = _backward_sweep(reduced, batch, basis, regression, c_values,
                          resolvent_tol, resolvent_max_iter, counts)
    return _unscale_solution(sol, gamma)


# the resolvent solves of every Picard sweep
_PICARD_RESOLVENT_TOL = 1e-10
_PICARD_RESOLVENT_MAX_ITER = 100


def _picard_loop(problem: BsdeProblem, batch: NoiseBatch, basis,
                 max_iter: int, tol: float, inner_max_iter: int,
                 inner_tol: float,
                 counts: Optional[BackwardCounts]) -> BsdeSolution:
    """Outer fixed point in x around an inner fixed point in z.

    Each outer pass freezes the driver's x argument at the previous X
    iterate (the zero process to start) and iterates on z from the zero
    Z process until successive Z iterates are closer than ``inner_tol``
    (:func:`z_path_distance`).  After a sweep with a driver that declares
    ``z_dependent=False``, or whose refreshed values match the ones just
    used bit for bit, the inner fixed point is exact: a zero residual is
    recorded without paying another sweep.  The outer residual is the
    grid supremum over time of the mean-square distance between
    successive X iterates; a driver that declares ``x_dependent=False``
    stops after one outer pass.  The solution records the outer
    residuals as ``picard_residuals`` and each pass's inner ones as
    ``inner_picard_residuals``.
    """
    counts = BackwardCounts() if counts is None else counts
    reduced, gamma, basis, regression = _prepare(problem, batch, basis,
                                                  counts)
    driver, n = reduced.driver, batch.n_steps
    x_prev = np.zeros((batch.n_replicas, n + 1, reduced.dim))
    outer_history = []
    inner_histories = []
    for _ in range(max_iter):
        x_frozen = x_prev[:, :n]
        z_prev = np.zeros(x_frozen.shape + (reduced.n_modes,))
        c_cur = _driver_matrix(driver, batch.times, x_frozen, z_prev, counts)
        inner = []
        for _ in range(inner_max_iter):
            sol = _backward_sweep(reduced, batch, basis, regression, c_cur,
                                  _PICARD_RESOLVENT_TOL,
                                  _PICARD_RESOLVENT_MAX_ITER, counts)
            inner.append(z_path_distance(sol.z_paths, z_prev, batch.dt))
            z_prev = sol.z_paths
            if inner[-1] < inner_tol:
                break
            if not driver.z_dependent or np.array_equal(c_cur, c_next := (
                    _driver_matrix(driver, batch.times, x_frozen, z_prev,
                                   counts))):
                inner.append(0.0)
                break
            c_cur = c_next
        else:
            raise NonconvergenceError(
                f"z-iteration did not reach tol={inner_tol:g} within "
                f"{inner_max_iter} sweeps (last residual {inner[-1]:.3e})",
                residuals=inner)
        gap = float(np.max(np.mean(
            np.sum((sol.x_paths - x_prev) ** 2, axis=2), axis=0)))
        outer_history.append(gap)
        inner_histories.append(tuple(inner))
        x_prev = sol.x_paths
        if gap < tol or not driver.x_dependent:
            sol = replace(sol, picard_residuals=tuple(outer_history),
                          inner_picard_residuals=tuple(inner_histories))
            return _unscale_solution(sol, gamma)
    raise NonconvergenceError(
        f"x-iteration did not reach tol={tol:g} within {max_iter} outer "
        f"sweeps (last residual {outer_history[-1]:.3e})",
        residuals=outer_history)


def picard_in_z(problem: BsdeProblem, batch: NoiseBatch,
                basis: Optional[PolynomialBasis] = None, max_iter: int = 25,
                tol: float = 1e-8,
                counts: Optional[BackwardCounts] = None) -> BsdeSolution:
    """Fixed point in z for a driver C(t, z) with no x dependence.

    The one outer pass of :func:`picard_in_x`'s loop: each sweep re-solves
    the backward recursion with the driver frozen at the previous Z
    iterate, until successive Z iterates are closer than tol in the
    mean-square space-time norm of :func:`z_path_distance`.  The z
    residual history (one entry per sweep) is the solution's
    ``picard_residuals``; its successive ratios are the geometric-decay
    diagnostic, with factor about 1/2 expected at desk scale.  Every
    sweep reuses the regression designs factored once up front;
    ``counts`` (a :class:`BackwardCounts`) accumulates the solve's work.
    """
    if problem.driver.x_dependent:
        raise ConfigError(
            f"picard_in_z needs a driver C(t, z) with no x dependence; "
            f"{problem.driver.name} declares x_dependent=True "
            f"(use picard_in_x)")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter!r}")
    sol = _picard_loop(problem, batch, basis, 1, tol, max_iter, tol, counts)
    return replace(sol, picard_residuals=sol.inner_picard_residuals[0],
                   inner_picard_residuals=())


def picard_in_x(problem: BsdeProblem, batch: NoiseBatch,
                basis: Optional[PolynomialBasis] = None, max_iter: int = 30,
                tol: float = 1e-8, inner_max_iter: int = 25,
                inner_tol: Optional[float] = None,
                counts: Optional[BackwardCounts] = None) -> BsdeSolution:
    """Outer fixed point in x, inner fixed point in z (:func:`_picard_loop`).

    The outer residual is a squared quantity; tol compares against it
    directly.  For a driver declared independent of x it is the distance
    of the one outer pass from the zero initialization.  All sweeps reuse
    the regression designs factored once up front; ``counts`` (a
    :class:`BackwardCounts`) accumulates the solve's work.
    """
    for name, limit in (("max_iter", max_iter),
                        ("inner_max_iter", inner_max_iter)):
        if limit < 1:
            raise ConfigError(f"{name} must be >= 1, got {limit!r}")
    return _picard_loop(problem, batch, basis, max_iter, tol, inner_max_iter,
                        tol if inner_tol is None else inner_tol, counts)


# ---------------------------------------------------------------------------
# diagnostics


def martingale_residuals(solution: BsdeSolution, problem: BsdeProblem,
                         batch: NoiseBatch) -> np.ndarray:
    """Per-step conditional-mean residual of the compensated process.

    Within the scheme, dt*A_eps(X(t_k)) equals X(t_k) - (conditional fit
    + dt*C(t_k)) exactly, so the compensated increment

        X(t_{k+1}) - X(t_k) + dt*(A_eps + C) - Z(t_k) dW_k

    collapses to X(t_{k+1}) - conditional_fit_k - Z(t_k) dW_k.  Its
    projection onto the basis at t_k estimates the conditional mean; the
    returned entry k is the rms of that projection over paths.  The fit
    part of X(t_{k+1}) vanishes by least-squares orthogonality, so what
    remains measures only the sampling error of the Z regression
    direction.  For problems solved through the lambda0 reduction the
    identity holds in reduced coordinates and the unscaled record makes
    this an O(dt)-accurate diagnostic rather than an exact one.  The
    designs are factored as a solve factors them (:func:`_prepare`), and
    fitted one block of ``_BLOCK`` grid times at a time.
    """
    _, _, basis, regression = _prepare(problem, batch, solution.basis,
                                       BackwardCounts())
    states, factors = regression.states, regression.factors
    n = solution.n_steps
    x_t = solution.x_paths.transpose(1, 0, 2)
    out = np.empty(n)
    for low in range(0, n, _BLOCK):
        top = min(low + _BLOCK, n)
        u = basis.design(states[low:top]) @ factors[low:top]
        noise = np.einsum("rkdm,rkm->krd", solution.z_paths[:, low:top],
                          batch.increments[:, low:top])
        targets = x_t[low + 1:top + 1] \
            - solution.conditional_fit[:, low:top].transpose(1, 0, 2) - noise
        _, fitted = _fit(u, factors[low:top], targets)
        out[low:top] = np.sqrt(np.mean(np.sum(fitted ** 2, axis=2), axis=1))
    return out


@dataclass
class BsdeAprioriReport:
    """Monte-Carlo moments of the solved pair against the terminal budget.

    lhs = E sup_t |X(t)|^q + E (int |Z|^2 dt)^{q/2}; the budget base is
    E |X_T|^q + (int eta(s)^2 ds)^{q/2} with eta the forcing intercept
    profile (the declared drift intercept plus the driver's zeta).  The
    proportionality constant is not knowable at desk scale, so it is
    fitted: fitted_c0 = lhs/base, and only order-of-magnitude violations
    are flagged (fitted_c0 above c0_cap).
    """

    q: float
    sup_moment: float
    z_moment: float
    terminal_moment: float
    eta_sq_integral: float
    eta_moment: float
    base: float
    fitted_c0: float
    c0_cap: float
    ok: bool

    @property
    def lhs_total(self) -> float:
        return self.sup_moment + self.z_moment

    def summary(self) -> str:
        status = ("within order-of-magnitude budget" if self.ok
                  else "EXCEEDS order-of-magnitude budget")
        return (f"backward a-priori {status}: E sup|X|^q={self.sup_moment:.6g}, "
                f"E(int|Z|^2)^(q/2)={self.z_moment:.6g}, "
                f"base={self.base:.6g}, fitted c0={self.fitted_c0:.3g} "
                f"vs cap {self.c0_cap:g} (q={self.q:g})")


def apriori_bound_check(solution: BsdeSolution, problem: BsdeProblem,
                        q: float = 2.0, c0_cap: float = 100.0,
                        n_quad: int = 513) -> BsdeAprioriReport:
    """Check the solved pair's moments against the terminal-data budget.

    E sup|X|^q and E(int |Z|^2 dt)^{q/2} are Monte-Carlo estimates over
    the stored paths; the base combines the terminal moment with the
    squared forcing-intercept integral (trapezoid quadrature of eta(s) =
    |A(s, 0)| + zeta(s), or of the declared eta profile plus zeta).  A
    drift that declares its ``slope`` is linear, so |A(s, 0)| = 0 without
    an evaluation; any other is evaluated once per quadrature point.
    With the true proportionality constant out of reach, the ratio
    lhs/base is reported and only order-of-magnitude violations flag.
    """
    if q < 2:
        raise ConfigError(f"the moment order must satisfy q >= 2, got {q!r}")
    dt = solution.dt
    sup_x = np.max(np.linalg.norm(solution.x_paths, axis=2), axis=1)
    sup_moment = float(np.mean(sup_x ** q))
    z_sq = dt * np.sum(solution.z_paths ** 2, axis=(1, 2, 3))
    z_moment = float(np.mean(z_sq ** (q / 2.0)))
    terminal_moment = float(np.mean(
        np.linalg.norm(solution.x_paths[:, -1], axis=1) ** q))

    ts = np.linspace(0.0, problem.t_final, n_quad)
    if problem.eta is not None:
        drift_part = _rate(problem.eta, ts)
    elif problem.drift.slope is not None:
        drift_part = np.zeros(n_quad)
    else:
        zero = np.zeros(problem.dim)
        drift_part = np.array([
            float(np.linalg.norm(np.asarray(problem.drift.eval(t, zero),
                                            dtype=float))) for t in ts])
    zeta_part = problem.driver.zeta_at(ts)
    eta_sq_integral = float(np.trapezoid((drift_part + zeta_part) ** 2, ts))
    eta_moment = eta_sq_integral ** (q / 2.0)

    base = terminal_moment + eta_moment
    lhs = sup_moment + z_moment
    if lhs == 0.0:
        fitted_c0, ok = 0.0, True
    elif base == 0.0:
        fitted_c0, ok = math.inf, False
    else:
        fitted_c0 = lhs / base
        ok = fitted_c0 <= c0_cap
    return BsdeAprioriReport(q=float(q), sup_moment=sup_moment,
                             z_moment=z_moment,
                             terminal_moment=terminal_moment,
                             eta_sq_integral=eta_sq_integral,
                             eta_moment=eta_moment, base=base,
                             fitted_c0=fitted_c0, c0_cap=float(c0_cap), ok=ok)


# ---------------------------------------------------------------------------
# export


def solution_csv(solution: BsdeSolution) -> str:
    """Render the solution as CSV.

    Columns: t, the X regression coefficients per state component and
    basis term, the Z coefficients per component, mode, and basis term,
    and the iteration residual history (entry k on row k, blank beyond).
    Z cells are blank on the terminal row, where no Z is defined.
    Rendered by ``reporting.csv_text``.
    """
    d, m = solution.dim, solution.n_modes
    names = solution.basis.names
    header = ["t"]
    header += [f"x{i + 1}:{nm}" for i in range(d) for nm in names]
    header += [f"z{i + 1}m{j + 1}:{nm}"
               for i in range(d) for j in range(m) for nm in names]
    header.append("picard_residual")
    res = solution.picard_residuals
    rows = []
    n = solution.n_steps
    for k in range(n + 1):
        cells = [solution.times[k], *solution.x_coeffs[k].T.ravel()]
        if k < n:
            cells += list(solution.z_coeffs[k].transpose(1, 2, 0).ravel())
        else:
            cells += [""] * (d * m * len(names))
        cells.append(res[k] if k < len(res) else "")
        rows.append(cells)
    return csv_text(header, rows)
