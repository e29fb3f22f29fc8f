"""Galerkin forward solver for monotone stochastic evolution equations.

The continuous problem dX = A(t, X) dt + B(t, X) dW on an evolution triple
is projected onto the first n eigenmodes of the discrete Laplacian, turning
it into an n-dimensional Ito equation for the mode coefficients,

    dy_i = b_i(t, y) dt + (sigma(t, y) dW)_i,   b_i = [e_i, A(t, y . e)],

which is integrated by a drift-implicit Euler scheme, the only scheme:
the noise enters explicitly, the drift implicitly, and each step is one
resolvent solve of the (dissipative) projected drift on the noise grid's
step.  Random coefficients are frozen at the left endpoint of every step
so the scheme stays adapted.  Step k solves at t_k + dt; it reads each
random coefficient once, evaluates the diffusion once, at t_k (a constant
one once per solve), and per Newton trial each drift term's psi once,
composed in mode space (``GalerkinSystem``), with a Jacobian that reuses
the trial's term arguments; an all-linear drift is solved in closed
form.  Its energy-identity ledger entry reuses the step's explicit
target r and the drift at the accepted iterate: no operator evaluation.

A replica ensemble is one (R, n) stack of coefficient vectors, one row per
noise replica, and each step is one damped-Newton solve over the stack
with per-replica targets, convergence masks and line searches; a single
noise path is the batch of one.  The module also houses the lambda0
gauge ``rescale_problem`` (solve its transformed operators, multiply back
by its gamma), the per-step energy-identity ledger, and the a-priori norm
budget check.

Coordinate facts used throughout: the basis is H-orthonormal, so the
squared H-norm of a state is the Euclidean square of its coefficient
vector, and the pairing [e_i, f] is the same linear functional as the
H-inner product against e_i (see the triple module's coordinate
convention).  Both are realized by a single projector matrix P with
rows h * ((-L)^{-1} e_i)^T (porous-medium flavor) or h * e_i^T
(reaction-diffusion flavor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, MonoseeError, NonconvergenceError
from .noise import (EMPTY_CONTEXT, BatchContext, NoiseBatch, NoiseContext,
                    NoisePath)
from .operators import (ConstantDiffusion, DriftTerm, HypothesisBundle,
                        _compose, _compose_jacobian, _grid_eval,
                        _grid_jacobian, constant_profile, profile_on_grid)
from .reporting import csv_text
# ``resolvent`` is unused here; it stays bound because the benchmark
# tracer's self-test expects to wrap it in this module
from .resolvent import (MonotoneMap, NewtonCounts, _resolvent_general,
                        resolvent)
from .triple import POROUS_MEDIUM, DiscreteTriple, _float_or_array

__all__ = [
    "SolverConfig", "SolutionPath", "GalerkinSystem", "ImplicitStep",
    "step_implicit",
    "solve_forward",
    "RescaledProblem", "rescale_problem",
    "AprioriReport", "apriori_norms", "trajectory_csv",
]


@dataclass
class SolverConfig:
    """Numerical parameters of one forward solve; the step is always the
    noise grid's."""

    n_modes_galerkin: int
    resolvent_tol: float = 1e-10
    resolvent_max_iter: int = 50

    def __post_init__(self):
        if self.n_modes_galerkin < 1:
            raise ConfigError(f"n_modes_galerkin must be >= 1, got "
                              f"{self.n_modes_galerkin}")
        if not self.resolvent_tol > 0:
            raise ConfigError("resolvent_tol must be positive")
        if self.resolvent_max_iter < 1:
            raise ConfigError("resolvent_max_iter must be >= 1")


@dataclass
class SolutionPath:
    """A solved trajectory plus its per-step norm and energy ledger.

    ``coeffs`` holds the Galerkin coefficients (row k = time k), ``states``
    the corresponding grid values.  ``h_norm_sq`` is the squared H-norm,
    ``x1_norm``/``x2_norm`` the (unpowered) X1/X2 norms of each state.
    ``energy_residual[k]`` is the defect of the discrete energy identity
    over step k (so it has one entry fewer than ``times``).
    """

    times: np.ndarray
    coeffs: np.ndarray
    states: np.ndarray
    h_norm_sq: np.ndarray
    x1_norm: np.ndarray
    x2_norm: np.ndarray
    energy_residual: np.ndarray
    q1: float
    q2: float
    n_modes: int
    triple: DiscreteTriple = field(repr=False, default=None)

    def __post_init__(self):
        for name in ("h_norm_sq", "x1_norm", "x2_norm"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise MonoseeError(f"negative entry in the {name} ledger")

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def span_residual(self) -> float:
        """Largest H-distance of any state from its n-mode projection."""
        proj = self.triple.project(self.states, self.n_modes)
        return float(np.max(self.triple.h_norm(self.states - proj)))


# ---------------------------------------------------------------------------
# Galerkin projection


class GalerkinSystem:
    """Finite-dimensional drift/diffusion obtained by mode projection.

    ``b(t, ctx, x)`` and ``sigma(t, ctx, x)`` act on coefficient vectors
    x of length n, or on stacks (..., n) of them; sigma is truncated to
    min(n, diffusion modes) noise columns (the noise-side projection).

    The drift is composed in mode space from its ``terms()``: each term
    psi(u @ K_in) @ K_out is precomputed as ``inner = M^T K_in`` and
    ``outer = K_out P^T`` (M the modes, P the projector), so

        b(x) = sum psi(x @ inner) @ outer,
        Db(x) = sum (outer^T * psi'(x @ inner)) @ inner^T,

    without visiting the grid; a Jacobian at the (unmodified) stack b last
    evaluated reuses its arguments x @ inner, a constant sigma is projected
    once, here, and the first identity term's argument is the node values,
    where a non-finite state entry raises MonoseeError.
    ``bind`` gives the projected drift this analytic Jacobian when every
    term has a psi', and its matrix when every term is linear.
    """

    def __init__(self, drift, diffusion, n: int, triple: DiscreteTriple):
        if not 1 <= n <= triple.n_grid:
            raise ConfigError(f"Galerkin dimension {n} out of range "
                              f"1..{triple.n_grid}")
        self.diffusion = diffusion
        self.n = int(n)
        self.triple = triple
        self.modes = triple.basis[:, :n]                     # (n_grid, n)
        if triple.flavor == POROUS_MEDIUM:
            paired = np.linalg.solve(-triple.laplacian, self.modes)
        else:
            paired = self.modes
        self.projector = triple.h * paired.T                 # (n, n_grid)
        self.n_noise = min(self.n, diffusion.n_modes)
        terms = drift.terms()
        inners = [self.modes.T if term.k_in is None
                  else self.modes.T @ term.k_in for term in terms]
        outers = [self.projector.T if term.k_out is None
                  else term.k_out @ self.projector.T for term in terms]
        self._terms = [term._replace(k_in=inner, k_out=outer)
                       for term, inner, outer in zip(terms, inners, outers)]
        self._jacobian_terms = None if any(
            term.psi_prime is None for term in terms) else [
            (inner, term.psi_prime, np.ascontiguousarray(outer.T),
             np.ascontiguousarray(inner.T))
            for term, inner, outer in zip(terms, inners, outers)]
        self._checked = next((k for k, term in enumerate(terms)
                              if term.k_in is None), 0)
        self._slope = None if any(term.slope is None for term in terms) \
            else sum(term.slope * inner @ outer for term, inner, outer
                     in zip(terms, inners, outers)).T
        self._evaluated = None, None  # b's last stack and its terms' args
        self._sigma = (self.projector @ diffusion.matrix)[..., :self.n_noise] \
            if isinstance(diffusion, ConstantDiffusion) else None

    def lift(self, x) -> np.ndarray:
        """Grid values of the state(s) with coefficient vector(s) x."""
        return np.asarray(x, dtype=float) @ self.modes.T

    def b(self, t: float, ctx, x) -> np.ndarray:
        x, args = np.asarray(x, dtype=float), []
        out = _compose(self._terms, t, ctx, x, self._checked, args)
        self._evaluated = x, args
        return out

    def _jacobian(self, t: float, ctx, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        last, args = self._evaluated
        return _compose_jacobian(self._jacobian_terms, t, ctx, x,
                                 args if x is last else None)

    def sigma(self, t: float, ctx, x) -> np.ndarray:
        if self._sigma is not None:
            return self._sigma
        cols = self.projector @ self.diffusion.eval(t, ctx, self.lift(x))
        return cols[..., :self.n_noise]

    def bind(self, ctx):
        """(drift, sigma) reading random coefficients from ``ctx``: the
        projected drift as a MonotoneMap and sigma as a callable of (t, x)."""
        drift = MonotoneMap(
            eval=lambda t, x: self.b(t, ctx, x),
            jacobian=None if self._jacobian_terms is None
            else lambda t, x: self._jacobian(t, ctx, x),
            name="projected drift", slope=self._slope)
        return drift, lambda t, x: self.sigma(t, ctx, x)


# ---------------------------------------------------------------------------
# one step


def _noise_term(sig, dW) -> np.ndarray:
    """sigma @ dW over the noise columns both sides carry, per replica."""
    sig = np.atleast_2d(np.asarray(sig, dtype=float))
    dW = np.atleast_1d(np.asarray(dW, dtype=float))
    m = min(sig.shape[-1], dW.shape[-1])
    return (sig[..., :m] @ dW[..., :m, None])[..., 0]


class ImplicitStep(NamedTuple):
    """One implicit step's new state ``y``, its explicit target
    ``r = x + sigma(t, x) @ dW`` and the drift ``b_y = b(t + dt, y)`` at
    the accepted Newton iterate, each shaped like the state (stack)."""

    y: np.ndarray
    r: np.ndarray
    b_y: np.ndarray


def step_implicit(x, t: float, dt: float, dW, b: MonotoneMap, sigma,
                  cfg: SolverConfig, guess=None, counts=None) -> ImplicitStep:
    """One drift-implicit Euler step of one state or an (R, n) stack.

    Solves y - dt * b(t + dt, y) = r, r = x + sigma(t, x) @ dW, to the
    configured resolvent tolerance, row by row for a stack (``dW`` then
    has a row per replica), and returns (y, r, b(t + dt, y)): sigma is
    evaluated once and b once per Newton trial, the last trial being y.
    ``b`` is the drift as a (non-diagonal) MonotoneMap and ``sigma`` a
    callable of (t, state), both bound to any frozen context (see
    ``GalerkinSystem.bind``); ``counts`` accumulates the Newton work.
    ``dt`` must be positive and finite, as a noise grid's step is.
    """
    x = np.asarray(x, dtype=float)
    r = x + _noise_term(sigma(t, x), dW)
    y, b_y, unsolved = _resolvent_general(
        b, t + dt, dt, r, cfg.resolvent_tol, cfg.resolvent_max_iter,
        guess=guess, counts=counts)
    if unsolved is not None:
        raise unsolved()
    if b_y is None:  # a linear drift's closed form leaves b(t + dt, y) to us
        b_y = np.asarray(b.eval(t + dt, y), dtype=float)
    return ImplicitStep(y, r, b_y)


def _step_defect(y, r, b_y, dt: float) -> np.ndarray:
    """Per-replica energy-identity defect of one step.

    |y|^2 - |x|^2 - 2 dt [y, A(y)] - 2 <x, B dW> - |B dW|^2, evaluated as
    <y - r, y + r> - 2 dt [y, A(y)] with r = x + B dW and b_y the
    projected drift at y; -dt^2 |b(y)|^2 for an exact resolvent solve, 0
    for zero drift.
    """
    return np.add.reduce((y - r) * (y + r) - (2.0 * dt) * y * b_y, axis=-1)


# ---------------------------------------------------------------------------
# full trajectory


def solve_forward(cfg: SolverConfig, drift, diffusion, noise, x0,
                  counts: Optional[NewtonCounts] = None):
    """Integrate the projected equation along a NoisePath or a NoiseBatch.

    A NoiseBatch of R replicas gives R SolutionPaths, stepped together:
    each step is one damped-Newton solve over the (R, n) stack with a
    per-replica target, convergence mask and line search, so a replica
    follows the iterates it would follow alone (up to the rounding of the
    stacked matrix products).  A NoisePath is the batch of one and gives
    one SolutionPath.  A failed step raises NonconvergenceError naming the
    step and, in a batch, the replica, with that replica's history; its
    ``failures`` list every failed replica (numbered from ``replica0``).
    ``counts`` (one entry per replica) accumulates the Newton work.

    ``x0`` holds grid values: one state (n_grid,) that starts every
    replica, or an (R, n_grid) stack with one start per row.  A stack on
    a NoisePath makes the path a batch of R read-only broadcast rows, so
    R solves that share one noise path run as one stack, give R
    SolutionPaths, and a failed row is named by its start index; on a
    NoiseBatch, R must be its replica count.  Starts are projected onto
    the first n modes.  Every step is one drift-implicit Euler step
    (``step_implicit``) of the grid's step dt, solved at times[k] + dt,
    whose ledger entry reuses the step's r and b(y).  The noise must
    carry the system's ``n_noise`` modes at least (ConfigError
    otherwise); extra modes go unused.
    The operators are stepped as given: to remove lambda0 from the
    hypothesis bundle, solve ``rescale_problem``'s transformed operators
    and multiply the trajectory by its ``gamma``.

    Deterministic for fixed (noise, config): no RNG is consulted.
    """
    triple = drift.triple
    x0v = np.asarray(x0, dtype=float)
    if x0v.shape[-1:] != (triple.n_grid,) or x0v.ndim > 2 \
            or x0v.shape[:-1] == (0,):
        raise ConfigError(f"initial state has shape {x0v.shape}, expected "
                          f"({triple.n_grid},) or a stack (R, "
                          f"{triple.n_grid}) with R >= 1")
    single = isinstance(noise, NoisePath) and x0v.ndim == 1
    if isinstance(noise, NoisePath):
        batch = NoiseBatch.from_path(noise, 1 if single else len(x0v))
    elif x0v.ndim == 2 and len(x0v) != noise.n_replicas:
        raise ConfigError(f"{len(x0v)} starts for a noise batch of "
                          f"{noise.n_replicas} replicas")
    else:
        batch = noise
    n = cfg.n_modes_galerkin
    if n > triple.n_grid:
        raise ConfigError(f"n_modes_galerkin={n} exceeds grid size "
                          f"{triple.n_grid}")
    dt = batch.dt
    system = GalerkinSystem(drift, diffusion, n, triple)
    if batch.n_modes < system.n_noise:
        raise ConfigError(f"noise carries {batch.n_modes} modes, but the "
                          f"projected diffusion has {system.n_noise} "
                          f"noise columns")
    times, n_steps = batch.times, batch.n_steps

    n_rep = batch.n_replicas
    coeffs = np.empty((n_rep, n_steps + 1, n))
    # row by row, so a start projects as it does alone
    coeffs[:, 0] = [triple.coefficients(x, n) for x in np.atleast_2d(x0v)]
    residual = np.empty((n_rep, n_steps))
    ctx = BatchContext(batch)
    drift_map, sigma = system.bind(ctx)
    for k in range(n_steps):
        ctx.index = k
        t0 = float(times[k])
        xk = coeffs[:, k]
        dw = batch.increments[:, k]
        try:
            step = step_implicit(xk, t0, dt, dw, drift_map, sigma, cfg,
                                 guess=xk, counts=counts)
        except NonconvergenceError as err:
            for e in err.failures or [err]:
                e.args = (f"forward solve failed at step {k} (t = {t0:g}): "
                          f"{e.args[0]}",)
                e.replica = None if single else e.replica + (
                    batch.replica0 if batch is noise else 0)
            raise
        residual[:, k] = _step_defect(step.y, step.r, step.b_y, dt)
        coeffs[:, k + 1] = step.y

    states = coeffs @ system.modes.T
    h_sq = np.sum(coeffs * coeffs, axis=-1)
    x1, x2 = triple.x_norm(states, 1), triple.x_norm(states, 2)
    paths = [SolutionPath(
        times=times.copy(), coeffs=coeffs[r], states=states[r],
        h_norm_sq=h_sq[r], x1_norm=x1[r], x2_norm=x2[r],
        energy_residual=residual[r], q1=triple.q1, q2=triple.q2, n_modes=n,
        triple=triple) for r in range(n_rep)]
    return paths[0] if single else paths


# ---------------------------------------------------------------------------
# lambda0 rescaling


def _gamma_factory(lambda0) -> Callable:
    """gamma(t, ctx) = exp(0.5 * integral of lambda0 over [0, t]).

    With noise in the context the integral is the left-endpoint rule on
    the noise grid (lambda0 may read the scalar path, which is only
    defined at grid times; the left rule also keeps the value adapted),
    tabulated once per noise object, one row per replica read through its
    own NoiseContext (a NoisePath is the batch of one).  A BatchContext
    gets an (R, 1) column at one time; a NoiseContext a float for one
    time, an array for an array of times.  Without noise the profile is
    deterministic and a trapezoid rule on a fine fixed grid applies.
    """
    cache: list = [None]  # (noise, vals, cum) of the last noise object

    def gamma(t, ctx):
        t = np.asarray(t, dtype=float)
        in_batch = isinstance(ctx, BatchContext)
        noise = ctx.batch if in_batch else getattr(ctx, "path", None)
        if noise is None:
            grid = np.linspace(0.0, np.maximum(t, 0.0), 257, axis=-1)
            integral = np.trapezoid(profile_on_grid(lambda0, grid, ctx), grid, axis=-1)
        else:
            if cache[0] is None or cache[0][0] is not noise:
                paths = [noise] if isinstance(noise, NoisePath) \
                    else [noise.path(r) for r in range(noise.n_replicas)]
                vals = np.stack([profile_on_grid(lambda0, p.times, NoiseContext(p))
                                 for p in paths], axis=-1)  # (N+1, R)
                cum = np.concatenate([np.zeros((1, len(paths))), np.cumsum(
                    vals[:-1] * np.diff(noise.times)[:, None], axis=0)])
                cache[0] = (noise, vals, cum)
            _, vals, cum = cache[0]
            j = np.clip(np.searchsorted(noise.times, t, side="right") - 1,
                        0, noise.n_steps)
            rows = np.moveaxis(np.where(  # (R,) + t.shape
                t[..., None] >= noise.t_final, cum[-1],
                cum[j] + vals[j] * (t - noise.times[j])[..., None]), -1, 0)
            if not in_batch:
                integral = rows[0]
            else:  # an (R, 1) column at one time
                integral = rows if t.ndim else rows[:, None]
        return _float_or_array(np.exp(0.5 * np.where(t > 0.0, integral, 0.0)))

    return gamma


class _RescaledDrift:
    """gamma^{-1} A(t, gamma x) minus half the lambda0 damping.

    The terms are the base drift's, each psi as gamma^{-1} psi(gamma z)
    and its psi' read at gamma z, plus the damping -lambda0 x / 2 (what
    the transformed state's differential demands) as identity terms, one
    per part the base declares, each carrying an even share, so per-part
    bounds stay valid.
    """

    eval = _grid_eval
    jacobian = _grid_jacobian

    def __init__(self, base, lambda0, gamma):
        self.base = base
        self.lambda0 = lambda0
        self.gamma = gamma
        self.triple = base.triple

    def terms(self):
        gamma, lambda0 = self.gamma, self.lambda0
        base_terms = self.base.terms()
        parts = sorted({term.part for term in base_terms})
        share = 0.5 / len(parts)

        def rescaled(term):
            psi, psi_prime = term.psi, term.psi_prime

            def scaled(t, ctx, z):
                g = gamma(t, ctx)
                return psi(t, ctx, g * z) / g

            def scaled_prime(t, ctx, z):
                return psi_prime(t, ctx, gamma(t, ctx) * z)

            return term._replace(psi=scaled, psi_prime=None
                                 if psi_prime is None else scaled_prime)

        def damping(t, ctx, z):
            return -share * np.asarray(lambda0(t, ctx), dtype=float) * z

        def damping_prime(t, ctx, z):
            return np.broadcast_to(
                -share * np.asarray(lambda0(t, ctx), dtype=float), np.shape(z))

        return (*map(rescaled, base_terms),
                *(DriftTerm(None, damping, damping_prime, None, part=part)
                  for part in parts))


class _RescaledDiffusion:
    """gamma^{-1} B(t, gamma x)."""

    def __init__(self, base, gamma):
        self.base = base
        self.gamma = gamma

    @property
    def n_modes(self) -> int:
        return self.base.n_modes

    def eval(self, t, ctx, u) -> np.ndarray:
        g = np.asarray(self.gamma(t, ctx))  # like t; (R, 1) in a BatchContext
        scaled = None if u is None else g * np.asarray(u, dtype=float)
        return self.base.eval(t, ctx, scaled) / g[..., None]


class RescaledProblem(NamedTuple):
    drift: object
    diffusion: object
    bundle: HypothesisBundle
    gamma: Callable


def rescale_problem(drift, diffusion, bundle: HypothesisBundle,
                    c0: float = 1.0) -> RescaledProblem:
    """Remove lambda0 from the hypothesis bundle by an exponential gauge.

    With gamma(t) = exp(0.5 int_0^t lambda0), the transformed operators
    A~(t, x) = gamma^{-1} A(t, gamma x) - lambda0 x / 2 and
    B~(t, x) = gamma^{-1} B(t, gamma x) satisfy the same inequalities with

        lambda0~ = 0,
        lambda_i~ = lambda_i * gamma^(q_i - 2),
        lambda3~ = lambda3 + lambda0,
        eta_i~  = eta_i + c0 * lambda_i^((q_i - 1)/q_i),
        c_Ai~   = c_Ai + c0,

    where ``c0`` is a caller-certified comparison constant absorbing the
    X_i* versus X_i norm gap of the damping term (combined with the
    lambda0 <= c1 min(lambda1, lambda2) domination).  xi is unchanged
    (gamma >= 1 only shrinks it).  If lambda0 vanishes identically, the
    transform is the identity.
    """
    if c0 <= 0:
        raise ConfigError(f"c0 must be positive, got {c0}")
    lam0 = bundle.lambda0
    gamma = _gamma_factory(lam0)
    q1, q2 = bundle.q1, bundle.q2

    def lam1_t(t, ctx):
        return bundle.lambda1(t, ctx) * gamma(t, ctx) ** (q1 - 2.0)

    def lam2_t(t, ctx):
        return bundle.lambda2(t, ctx) * gamma(t, ctx) ** (q2 - 2.0)

    def lam3_t(t, ctx):
        return bundle.lambda3(t, ctx) + lam0(t, ctx)

    def eta1_t(t, ctx):
        return bundle.eta1(t, ctx) + c0 * bundle.lambda1(t, ctx) ** ((q1 - 1.0) / q1)

    def eta2_t(t, ctx):
        return bundle.eta2(t, ctx) + c0 * bundle.lambda2(t, ctx) ** ((q2 - 1.0) / q2)

    new_bundle = HypothesisBundle(
        lambda0=constant_profile(0.0),
        lambda1=lam1_t, lambda2=lam2_t, lambda3=lam3_t,
        xi=bundle.xi, eta1=eta1_t, eta2=eta2_t,
        q1=q1, q2=q2,
        c_a1=bundle.c_a1 + c0, c_a2=bundle.c_a2 + c0, c1=bundle.c1)
    return RescaledProblem(_RescaledDrift(drift, lam0, gamma),
                           _RescaledDiffusion(diffusion, gamma),
                           new_bundle, gamma)


# ---------------------------------------------------------------------------
# a-priori budget


@dataclass
class AprioriReport:
    """Pathwise norm ledger versus the exponential-in-m budget.

    The three left-hand quantities mirror the a-priori estimate: the grid
    supremum of the squared H-norm, the lambda_i-weighted X_i integrals,
    and the lambda3-weighted dissipation integral, all over [0, theta].
    The budget is 3 e^m (|X0|_H^2 + int xi + sum_i int eta_i^{q_i'}):
    each left-hand piece obeys an e^m bound through the discrete Gronwall
    chain, so their sum obeys three times that.  Pathwise it is a
    diagnostic surrogate of an expectation bound; ``ok`` reports it.
    """

    sup_h_sq: float
    weighted_x1: float
    weighted_x2: float
    dissipation: float
    m: float
    theta: float
    base: float
    budget: float
    ok: bool

    @property
    def lhs_total(self) -> float:
        return self.sup_h_sq + self.weighted_x1 + self.weighted_x2 \
            + self.dissipation

    def summary(self) -> str:
        status = "within budget" if self.ok else "EXCEEDS budget"
        return (f"a-priori ledger {status}: sup|X|^2={self.sup_h_sq:.6g}, "
                f"weighted X1={self.weighted_x1:.6g}, "
                f"weighted X2={self.weighted_x2:.6g}, "
                f"dissipation={self.dissipation:.6g}, "
                f"budget={self.budget:.6g} (m={self.m:.6g}, "
                f"theta={self.theta:.6g})")


def apriori_norms(path: SolutionPath, bundle: HypothesisBundle,
                  ctx=EMPTY_CONTEXT) -> AprioriReport:
    """Compare the trajectory's norm ledger against its Gronwall budget.

    The integrals run over the whole path, so theta is the final time and
    m the full accumulated quadratic rate int lambda3.  Left-endpoint
    quadrature throughout, matching the ledger's own convention.
    """
    times = np.asarray(path.times, dtype=float)
    dts = np.diff(times)
    lam1 = profile_on_grid(bundle.lambda1, times, ctx)
    lam2 = profile_on_grid(bundle.lambda2, times, ctx)
    lam3 = profile_on_grid(bundle.lambda3, times, ctx)
    xi = profile_on_grid(bundle.xi, times, ctx)
    eta1 = profile_on_grid(bundle.eta1, times, ctx)
    eta2 = profile_on_grid(bundle.eta2, times, ctx)

    m_val = float(np.sum(lam3[:-1] * dts))

    sup_h_sq = float(np.max(path.h_norm_sq))
    w1 = float(np.sum(lam1[:-1] * path.x1_norm[:-1] ** path.q1 * dts))
    w2 = float(np.sum(lam2[:-1] * path.x2_norm[:-1] ** path.q2 * dts))
    diss = float(np.sum(lam3[:-1] * path.h_norm_sq[:-1] * dts))

    qp1 = path.q1 / (path.q1 - 1.0)
    qp2 = path.q2 / (path.q2 - 1.0)
    base = float(path.h_norm_sq[0]
                 + np.sum(xi[:-1] * dts)
                 + np.sum((eta1[:-1] ** qp1 + eta2[:-1] ** qp2) * dts))
    budget = 3.0 * math.exp(m_val) * base
    lhs = sup_h_sq + w1 + w2 + diss
    ok = lhs <= budget * (1.0 + 1e-12) or lhs == 0.0
    return AprioriReport(sup_h_sq=sup_h_sq, weighted_x1=w1, weighted_x2=w2,
                         dissipation=diss, m=m_val, theta=float(times[-1]),
                         base=base,
                         budget=budget, ok=ok)


# ---------------------------------------------------------------------------
# trajectory export


def _trajectory_table(path: SolutionPath):
    """(header, rows) of ``trajectory_csv``."""
    n = path.coeffs.shape[1]
    header = ["t", *(f"c{i}" for i in range(1, n + 1)),
              "h_norm_sq", "x1_norm", "x2_norm", "energy_residual"]
    res = np.concatenate([[0.0], path.energy_residual])
    return header, [[path.times[k], *path.coeffs[k], path.h_norm_sq[k],
                     path.x1_norm[k], path.x2_norm[k], res[k]]
                    for k in range(len(path.times))]


def trajectory_csv(path: SolutionPath) -> str:
    """Render a trajectory as CSV: t, mode coefficients, squared H-norm,
    X1/X2 norms, and the arriving step's energy residual (0 on row 0)."""
    return csv_text(*_trajectory_table(path))
