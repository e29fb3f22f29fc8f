"""Concrete drift/diffusion operators and sampled hypothesis checkers.

Drift outputs live in dual coordinates: vectors stored so that
``triple.dual_pairing`` applies the flavor's pairing directly.  For the
porous-medium family the drift returns L @ phi(u) in grid coordinates, so
the (-L)^{-1} inside the W^{-1,2} pairing cancels and [v, A(u)] collapses
to -h * sum(v * phi(u)).  The reaction-diffusion family returns the
discrete divergence of the flux plus the (negated) reaction term, paired
against L^2 directly.

Drift and diffusion ``eval``/``jacobian`` act on one state of shape
(n_grid,) or on a stack (..., n_grid) of replica states; a random
coefficient read from a batch context is an (R, 1) column that broadcasts
over the stack.  A stack of Jacobians has shape (..., n_grid, n_grid) and
a stack of diffusion matrices (..., n_grid, n_modes).

Every drift is quasi-linear: a sum of ``DriftTerm``s psi(t, u @ k_in) @
k_out, a fixed linear map, a pointwise nonlinearity and a second fixed
map, listed by its ``terms()``, its only definition.  One loop composes
the terms, in mode space for the Galerkin solver (``forward.
GalerkinSystem``) and on the grid for the checkers: each drift binds
``eval = _grid_eval`` and ``jacobian = _grid_jacobian``, and
``drift_parts`` composes each part of the split A = A1 + A2 apart.

Time profiles and random coefficients, built-in or user-supplied, must
accept an array of times: a stack of states taken at S different times
evaluates in one call with the times as an (S, 1) column.

Checkers sample random states (amplitudes log-uniform over a wide range to
probe both small- and large-field regimes) and run on the sampled-check
engine of :mod:`monosee.reporting`: every sample is drawn first, the
inequality is evaluated once on the whole stack, and every violation is
reported as data; nothing raises on a failed hypothesis.  A sampler is a
``SampleStream``: checks given the same sampler and seed share its draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analysis import _rate
from .errors import ConfigError, MonoseeError
from .noise import EMPTY_CONTEXT, BatchContext
from .reporting import (GroupedStream, SampleStream, ViolationReport,
                        _record, _require_amp_range, _require_t_final,
                        _sampled_check)
from .triple import POROUS_MEDIUM, REACTION_DIFFUSION, DiscreteTriple

__all__ = [
    "constant_profile",
    "abs_scalar_profile",
    "profile_on_grid",
    "HypothesisBundle",
    "DriftTerm",
    "drift_parts",
    "PorousMediumDrift",
    "PhiDrift",
    "ReactionDiffusionDrift",
    "ConstantDiffusion",
    "MultiplicativeDiffusion",
    "state_sampler",
    "pair_sampler",
    "check_monotonicity",
    "check_coercivity",
    "check_boundedness",
    "check_hemicontinuity",
    "OperatorSet",
    "build_operator_set",
    "OPERATOR_NAMES",
]


# ---------------------------------------------------------------------------
# time profiles: every hypothesis constant may be a process evaluated from
# the driving noise, so profiles are callables (t, ctx) -> value.  t may be
# an array of times; the value is then an array of that shape, or a float
# that broadcasts over it (a constant, or a frozen or empty context)

def constant_profile(value: float):
    value = float(value)

    def profile(t, ctx):
        return value

    return profile


def abs_scalar_profile(scale: float = 1.0):
    """t -> scale * |w_t| with w the context's scalar driving path, read
    once per step in a BatchContext (through its ``memo``)."""

    def profile(t, ctx):
        memo = ctx.memo if isinstance(ctx, BatchContext) else {}
        if profile not in memo:
            memo[profile] = scale * np.abs(ctx.scalar(t))
        return memo[profile]

    return profile


def profile_on_grid(profile, times, ctx) -> np.ndarray:
    """A profile's values at every entry of ``times`` (one call), in that shape."""
    return _rate(lambda t: profile(t, ctx), times)


@dataclass
class HypothesisBundle:
    """Rates and constants entering the structural inequalities.

    lambda0 damps the monotonicity gap; lambda1/lambda2 are the coercivity
    rates paired with exponents q1/q2; lambda3 and xi weaken coercivity by
    a quadratic term and an additive process.  eta1/eta2 and c_a1/c_a2
    bound the drift parts in the dual norms.  c1 is the margin by which
    the coercivity rates must dominate lambda0.

    Every rate is a profile (t, ctx) that must accept an array of times:
    the checkers and the profile readers pass a whole stack or grid.  A
    profile written for one float time (``1.0 if t < 0.5 else 2.0``,
    ``math.exp(t)``) raises ValueError or TypeError; use ``np.where``.
    """

    lambda0: Callable = field(default_factory=lambda: constant_profile(0.0))
    lambda1: Callable = field(default_factory=lambda: constant_profile(1.0))
    lambda2: Callable = field(default_factory=lambda: constant_profile(1.0))
    lambda3: Callable = field(default_factory=lambda: constant_profile(0.0))
    xi: Callable = field(default_factory=lambda: constant_profile(0.0))
    eta1: Callable = field(default_factory=lambda: constant_profile(0.0))
    eta2: Callable = field(default_factory=lambda: constant_profile(0.0))
    q1: float = 2.0
    q2: float = 2.0
    c_a1: float = 1.0
    c_a2: float = 1.0
    c1: float = 1.0

    def __post_init__(self):
        if self.q1 < 2 or self.q2 < 2:
            raise ConfigError(f"exponents must be >= 2, got q1={self.q1}, q2={self.q2}")
        if self.c_a1 <= 0 or self.c_a2 <= 0 or self.c1 <= 0:
            raise ConfigError("c_a1, c_a2, c1 must be positive")

    def check_rate_domination(self, ctx, t_values, tol: float = 0.0) -> ViolationReport:
        """Sampled 0 <= lambda0(t) < c1 * min(lambda1(t), lambda2(t)).

        Strict inequality is demanded at every sampled t; callers should
        sample t in (0, T] since the condition is almost-everywhere and
        degenerate coefficients may vanish at isolated times.
        """
        t = np.atleast_1d(np.asarray(t_values, dtype=float))
        l0 = profile_on_grid(self.lambda0, t, ctx)
        cap = self.c1 * np.minimum(profile_on_grid(self.lambda1, t, ctx),
                                   profile_on_grid(self.lambda2, t, ctx))
        return _record(ViolationReport("rate domination", t.size, tol), t, [
            (l0 - cap, (l0 < 0) | ~(l0 < cap - tol), {"lambda0": l0, "cap": cap})])

    def integrability_report(self, ctx, t_final: float, n: int = 512) -> ViolationReport:
        """Trapezoid quadrature of each rate over [0, T]; flags non-finite mass."""
        ts = np.linspace(0.0, t_final, n + 1)
        labels = ("lambda0", "lambda1", "lambda2", "lambda3", "xi")
        mass = np.array([np.trapezoid(profile_on_grid(getattr(self, label), ts,
                                                      ctx), ts)
                         for label in labels])
        report = ViolationReport("rate integrability", 5, 0.0, notes=[
            f"int {label} = {m:.6g}" for label, m in zip(labels, mass)])
        return _record(report, np.full(5, t_final), [
            (np.inf, ~np.isfinite(mass), {"rate": np.array(labels)})])


def _require_finite(u: np.ndarray, who: str) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        *replica, bad = np.argwhere(~np.isfinite(u))[0]
        where = f" of replica {', '.join(map(str, replica))}" if replica else ""
        raise MonoseeError(f"{who}: non-finite state entry at index "
                           f"{bad}{where}")
    return u


class DriftTerm(NamedTuple):
    """One term psi(t, ctx, u @ k_in) @ k_out of a quasi-linear drift.

    ``k_in`` maps grid values to the m arguments of the pointwise map psi
    (n_grid, m) and ``k_out`` its m values back to dual grid coordinates
    (m, n_grid); None stands for the identity.  ``psi_prime`` is psi's
    pointwise derivative (None if unknown: no analytic Jacobian), and a
    float ``slope`` declares psi(t, ctx, z) = slope * z at every t.  psi
    and psi_prime act elementwise on an argument of any shape, with t a
    float or a column that broadcasts over a stack.  ``part`` (1 or 2)
    places the term in the split A = A1 + A2 whose parts hypothesis (H3)
    bounds in X1* and X2*.
    """

    k_in: Optional[np.ndarray]
    psi: Callable
    psi_prime: Optional[Callable]
    k_out: Optional[np.ndarray]
    slope: Optional[float] = None
    part: int = 1


def _compose(terms, t, ctx, x, checked: int = -1, args=None) -> np.ndarray:
    """sum psi(t, ctx, x @ k_in) @ k_out over the ``terms``, a None map
    skipped as the identity; the argument of term ``checked`` must be
    finite (MonoseeError naming the entry).  A list ``args`` receives
    each term's argument, in order."""
    out = None
    for k, term in enumerate(terms):
        z = x if term.k_in is None else x @ term.k_in
        if args is not None:
            args.append(z)
        if k == checked:
            _require_finite(z, "projected drift")
        value = term.psi(t, ctx, z)
        if term.k_out is not None:
            value = value @ term.k_out
        out = value if out is None else out + value
    return out


def _compose_jacobian(terms, t, ctx, x, args=None) -> np.ndarray:
    """sum (k_out^T * psi'(t, ctx, x @ k_in)) @ k_in^T over the (k_in,
    psi', k_out^T, k_in^T) ``terms``, a None map read as the identity, or
    at the terms' arguments ``args`` at x as ``_compose`` lists them."""
    out = None
    for k, (k_in, psi_prime, out_t, in_t) in enumerate(terms):
        z = args[k] if args is not None else x if k_in is None else x @ k_in
        slopes = np.asarray(psi_prime(t, ctx, z), dtype=float)
        value = (np.eye(slopes.shape[-1]) if out_t is None else out_t) \
            * slopes[..., np.newaxis, :]
        if in_t is not None:
            value = value @ in_t
        out = value if out is None else out + value
    return out


def _grid_eval(drift, t, ctx, u) -> np.ndarray:
    """The drift's terms composed on grid values u, one state or a stack."""
    return _compose(drift.terms(), t, ctx,
                    _require_finite(u, type(drift).__name__))


def _grid_jacobian(drift, t, ctx, u) -> np.ndarray:
    """The Jacobian of ``_grid_eval``, (..., n_grid, n_grid); ConfigError
    unless every term has a psi'."""
    terms = drift.terms()
    if any(term.psi_prime is None for term in terms):
        raise ConfigError(f"{type(drift).__name__}: analytic jacobian needs "
                          f"every term's psi_prime")
    return _compose_jacobian(
        [(term.k_in, term.psi_prime, None if term.k_out is None
          else term.k_out.T, None if term.k_in is None else term.k_in.T)
         for term in terms], t, ctx, np.asarray(u, dtype=float))


def drift_parts(drift, t, ctx, u) -> list:
    """[(i, A_i(t, u))] for each part i the drift's terms declare, in
    increasing order: the terms of part i composed on the grid."""
    u = _require_finite(u, type(drift).__name__)
    terms = drift.terms()
    return [(which, _compose([term for term in terms if term.part == which],
                             t, ctx, u))
            for which in sorted({term.part for term in terms})]


class PhiDrift:
    """Nonlinear-diffusion drift u -> L phi(u) with a scalar map phi.

    Output is in dual grid coordinates (pre-multiplied by L), so
    dual_pairing(v, eval(u)) = -h * sum(v * phi(u)).  One term (I, phi,
    phi', L).  phi(t, ctx, r) and phi_prime (None: no analytic Jacobian)
    must accept arrays of t and r; a user-supplied phi lets planted
    counterexamples (non-monotone or discontinuous phi) run through the
    hypothesis checkers.
    """

    eval = _grid_eval
    jacobian = _grid_jacobian
    _slope = None  # phi(t, ctx, r) = _slope * r at every t, when declared

    def __init__(self, triple: DiscreteTriple, phi, phi_prime=None):
        if triple.flavor != POROUS_MEDIUM:
            raise ConfigError(
                f"{type(self).__name__} needs a porous_medium triple")
        self.triple = triple
        self.phi = phi
        self.phi_prime = phi_prime

    def terms(self):
        return (DriftTerm(None, self.phi, self.phi_prime,
                          self.triple.laplacian, self._slope),)


class PorousMediumDrift(PhiDrift):
    """The porous-medium drift: phi(t, r) = c(t) |r|**(p-2) r.

    The profile c must accept arrays of times, as the bundle's rates must
    (HypothesisBundle); without one, c = 1, and p = 2 is then the linear
    heat drift L u.
    """

    eval = _grid_eval
    jacobian = _grid_jacobian

    def __init__(self, triple: DiscreteTriple, p: float, coeff=None):
        # phi and phi' close over c and p, not over self: a drift that
        # referred to itself would live until a cyclic garbage collection
        c = coeff if coeff is not None else constant_profile(1.0)
        exponent = float(p)

        def phi(t, ctx, r):
            r = np.asarray(r, dtype=float)
            return c(t, ctx) * np.abs(r) ** (exponent - 2.0) * r

        def phi_prime(t, ctx, r):
            r = np.asarray(r, dtype=float)
            return c(t, ctx) * (exponent - 1.0) \
                * np.abs(r) ** (exponent - 2.0)

        super().__init__(triple, phi, phi_prime)
        if p < 2:
            raise ConfigError(f"exponent p must be >= 2, got {p}")
        self.p, self.coeff = exponent, c
        if exponent == 2.0 and coeff is None:
            self._slope = 1.0


class ReactionDiffusionDrift:
    """Quasilinear drift div_h a(d_h u) - b(u) on the L^2 triple.

    ``a`` and ``b`` are scalar maps (t, ctx, r) -> value, applied pointwise
    to face gradients and nodal values respectively; both must be
    nondecreasing in r for the hypothesis checks to pass.  Output pairs
    against L^2 directly.  The maps must accept arrays of t and r, as the
    checkers pass an (S, 1) column of times with a stack.  Two terms: the
    divergence part (G, a, a', -G^T), G the gradient matrix and -G^T the
    divergence, bounded in the gradient space's dual, and the reaction
    part (I, b, b', -I), part 2, bounded in the Lebesgue dual.
    """

    eval = _grid_eval
    jacobian = _grid_jacobian

    def __init__(self, triple: DiscreteTriple, a, b, a_prime=None, b_prime=None):
        if triple.flavor != REACTION_DIFFUSION:
            raise ConfigError("ReactionDiffusionDrift needs a reaction_diffusion triple")
        self.triple = triple
        self.a = a
        self.b = b
        self.a_prime = a_prime
        self.b_prime = b_prime

    def terms(self):
        grad = self.triple.gradient
        return (DriftTerm(grad, self.a, self.a_prime, -grad.T),
                DriftTerm(None, self.b, self.b_prime, -np.eye(len(grad)),
                          part=2))


class ConstantDiffusion:
    """State-independent diffusion: a fixed n_grid x n_modes matrix into H."""

    def __init__(self, triple: DiscreteTriple, matrix):
        self.triple = triple
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if self.matrix.shape[0] != triple.n_grid:
            raise ConfigError(
                f"diffusion matrix has {self.matrix.shape[0]} rows, "
                f"grid has {triple.n_grid}")

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[1]

    def eval(self, t, ctx, u) -> np.ndarray:
        return self.matrix


class MultiplicativeDiffusion:
    """Nemytskii diffusion: column j is sigma_j(t, u(.)); t may be an array."""

    def __init__(self, triple: DiscreteTriple, sigmas):
        if not sigmas:
            raise ConfigError("need at least one sigma")
        self.triple = triple
        self.sigmas = list(sigmas)

    @property
    def n_modes(self) -> int:
        return len(self.sigmas)

    def eval(self, t, ctx, u) -> np.ndarray:
        u = _require_finite(u, "multiplicative diffusion")
        return np.stack([np.broadcast_to(
            np.asarray(s(t, ctx, u), dtype=float), u.shape)
            for s in self.sigmas], axis=-1)


# ---------------------------------------------------------------------------
# samplers

def state_sampler(triple: DiscreteTriple, t_final: float = 1.0,
                  amp_range=(1e-3, 1e3), times=None) -> SampleStream:
    """Random (t, u) with log-uniform amplitude over amp_range.

    Pass the noise grid as ``times`` when the operators carry random
    coefficients: scalar-path lookups only exist at grid times.

    One sample draws, in this order: the time, as ``times[rng.integers(
    len(times))]`` or, without a grid, ``t_final * rng.random()``; the
    log-amplitude, ``rng.uniform(lo, hi)``; then ``triple.n_grid``
    standard normals.  This is the stream the ``rng.choice(times)`` and
    ``rng.uniform(0.0, t_final)`` forms drew: the same values, and the
    generator left in the same state.  An amp_range outside 0 < lo <= hi
    < inf, an empty or non-1-d grid, or without a grid a negative or
    non-finite ``t_final``, raises ConfigError here rather than at a draw.

    The returned :class:`~monosee.reporting.SampleStream` is the
    per-sample draw; the checkers read its prefix, so every check given
    this object with the same seed shares its drawn stack (only
    ``triple.n_grid`` is read, so triples of one grid size may share it).
    """
    _require_amp_range(amp_range, "state sampler")
    lo, hi = np.log(amp_range[0]), np.log(amp_range[1])
    if times is None:
        _require_t_final(t_final, "state sampler")
    else:
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ConfigError(f"state sampler needs a non-empty 1-d grid "
                              f"of times, got shape {times.shape}")

    def sample(rng):
        if times is None:
            t = float(t_final * rng.random())
        else:
            t = float(times[rng.integers(len(times))])
        amp = float(np.exp(rng.uniform(lo, hi)))
        u = amp * rng.standard_normal(triple.n_grid)
        return t, u

    return SampleStream(sample)


def pair_sampler(triple: DiscreteTriple, t_final: float = 1.0,
                 amp_range=(1e-3, 1e3), times=None) -> SampleStream:
    """Random (t, u, v) triplets for the two-point checks.

    One sample draws (t, u) from ``state_sampler``, then a second state
    whose time is discarded, as v, then the coin ``rng.random()``: below
    0.1, v is replaced by a copy of u.  This is the stream the
    ``rng.uniform()`` coin drew.  The arguments are checked as
    ``state_sampler`` checks them.  The coin makes this a stream of its
    own: a :class:`~monosee.reporting.SampleStream` whose drawn pairs are
    shared, as ``state_sampler``'s states are, by every check given it.
    """
    single = state_sampler(triple, t_final, amp_range, times=times)

    def sample(rng):
        t, u = single(rng)
        _, v = single(rng)
        if rng.random() < 0.1:
            v = u.copy()  # exercise the u = v edge exactly
        return t, u, v

    return SampleStream(sample)


# ---------------------------------------------------------------------------
# hypothesis checkers

def check_monotonicity(drift, diff, bundle: HypothesisBundle, sampler,
                       n_samples: int = 500, seed: int = 0, tol: float = 1e-10,
                       ctx=EMPTY_CONTEXT) -> ViolationReport:
    """Sampled two-point dissipation check.

    excess = 2[u-v, A(u)-A(v)] + |B(u)-B(v)|_HS^2 - lambda0 |u-v|_H^2
    must be <= 0 up to a relative tolerance.
    """
    tr = drift.triple

    def evaluate(t, u, v):
        tc = t[:, None]
        du = u - v
        pairing = 2.0 * tr.dual_pairing(du, drift.eval(tc, ctx, u) - drift.eval(tc, ctx, v))
        hs2 = tr.hs_norm_sq(diff.eval(tc, ctx, u) - diff.eval(tc, ctx, v))
        damp = bundle.lambda0(t, ctx) * tr.h_norm(du) ** 2
        excess = pairing + hs2 - damp
        scale = 1.0 + np.abs(pairing) + hs2 + np.abs(damp)
        return [(excess, excess > tol * scale,
                 {"pairing": pairing, "hs2": hs2, "damp": damp})]

    return _sampled_check("monotonicity", n_samples, tol, seed, sampler, evaluate)


def check_coercivity(drift, diff, bundle: HypothesisBundle, sampler,
                     n_samples: int = 500, seed: int = 0, tol: float = 1e-10,
                     ctx=EMPTY_CONTEXT) -> ViolationReport:
    """Sampled energy-dissipation check.

    excess = 2[u, A(u)] + |B(u)|_HS^2 + lambda1 |u|_X1^q1 + lambda2 |u|_X2^q2
             - lambda3 |u|_H^2 - xi
    must be <= 0 up to a relative tolerance.
    """
    tr = drift.triple

    def evaluate(t, u, *_):
        tc = t[:, None]
        pairing = 2.0 * tr.dual_pairing(u, drift.eval(tc, ctx, u))
        hs2 = tr.hs_norm_sq(diff.eval(tc, ctx, u))
        lam1 = bundle.lambda1(t, ctx) * tr.x_norm(u, 1) ** bundle.q1
        lam2 = bundle.lambda2(t, ctx) * tr.x_norm(u, 2) ** bundle.q2
        lam3 = bundle.lambda3(t, ctx) * tr.h_norm(u) ** 2
        xi = bundle.xi(t, ctx)
        excess = pairing + hs2 + lam1 + lam2 - lam3 - xi
        scale = 1.0 + np.abs(pairing) + hs2 + lam1 + lam2 + lam3 + xi
        return [(excess, excess > tol * scale,
                 {"pairing": pairing, "hs2": hs2, "lam1": lam1, "lam2": lam2})]

    return _sampled_check("coercivity", n_samples, tol, seed, sampler, evaluate)


def check_boundedness(drift, bundle: HypothesisBundle, sampler,
                      n_samples: int = 500, seed: int = 0, tol: float = 1e-10,
                      ctx=EMPTY_CONTEXT) -> ViolationReport:
    """Sampled dual-norm growth check, per drift part (``drift_parts``).

    |A_i(u)|_{Xi*} <= eta_i lambda_i^{1/q_i} + c_{A_i} lambda_i |u|_{X_i}^{q_i - 1}
    """
    tr = drift.triple

    def evaluate(t, u, *_):
        groups = []
        for which, part in drift_parts(drift, t[:, None], ctx, u):
            lam = (bundle.lambda1 if which == 1 else bundle.lambda2)(t, ctx)
            eta = (bundle.eta1 if which == 1 else bundle.eta2)(t, ctx)
            q = bundle.q1 if which == 1 else bundle.q2
            c = bundle.c_a1 if which == 1 else bundle.c_a2
            lhs = tr.dual_norm(part, which)
            rhs = eta * lam ** (1.0 / q) + c * lam * tr.x_norm(u, which) ** (q - 1.0)
            groups.append((lhs - rhs, lhs > rhs * (1.0 + tol) + tol,
                           {"part": which, "lhs": lhs, "rhs": rhs}))
        return groups

    return _sampled_check("boundedness", n_samples, tol, seed, sampler, evaluate)


def check_hemicontinuity(drift, sampler, n_samples: int = 100, seed: int = 0,
                         jump_fraction: float = 0.5,
                         ctx=EMPTY_CONTEXT) -> ViolationReport:
    """Continuity of e -> [x, A(t, y + e z)] along segments.

    Evaluates the pairing on the grid e in {0, 1/32, ..., 1} and flags any
    single-step jump exceeding jump_fraction of the profile's total range
    (an affine or smooth profile spreads its variation over many steps; a
    step discontinuity concentrates it in one).  A sample is three
    consecutive draws of ``sampler``, (t, x), y and z, so the samples of a
    ``state_sampler`` stream are its first 3 * n_samples states, shared
    with the coercivity and boundedness checks given the same object.
    """
    tr = drift.triple
    eps_grid = np.linspace(0.0, 1.0, 33)

    def evaluate(t, x, y, z):
        segments = y[:, None, :] + eps_grid[:, None] * z[:, None, :]
        vals = tr.dual_pairing(x[:, None, :],
                               drift.eval(t[:, None, None], ctx, segments))
        total = np.max(vals, axis=-1) - np.min(vals, axis=-1)
        worst = np.max(np.abs(np.diff(vals, axis=-1)), axis=-1)
        flagged = (total > 0) & (worst > jump_fraction * total)
        ratio = worst / np.where(total > 0, total, 1.0)
        return [(ratio - jump_fraction, flagged,
                 {"worst_jump": worst, "range": total})]

    return _sampled_check("hemicontinuity", n_samples, jump_fraction, seed,
                          GroupedStream(sampler, 3), evaluate)


# ---------------------------------------------------------------------------
# built-in operator sets

@dataclass
class OperatorSet:
    """A drift, a diffusion, and the constants they satisfy."""

    label: str
    drift: object
    diffusion: object
    bundle: HypothesisBundle
    triple: DiscreteTriple


def build_operator_set(name: str, n_grid: int, p: float = 3.0,
                       n_modes: int = 1) -> OperatorSet:
    """Construct one of the named built-in operator families.

    heat                    linear diffusion on the W^{-1,2} triple
    porous_medium           deterministic |r|^{p-2} r diffusion
    reaction_diffusion      deterministic linear flux + power reaction
    eq_1_1                  porous medium with |w_t| coefficient (contract name)
    eq_1_2                  reaction-diffusion with |w_t| coefficients (contract name)
    """
    if name in ("heat", "porous_medium", "eq_1_1"):
        p_eff = 2.0 if name == "heat" else p
        tr = DiscreteTriple(n_grid, POROUS_MEDIUM, q1=p_eff, q2=p_eff)
        # eq_1_1 scales the nonlinearity and both rates by |w_t|; the
        # others keep the drift's own c = 1, so heat is declared linear
        coeff = abs_scalar_profile() if name == "eq_1_1" else constant_profile(1.0)
        drift = PorousMediumDrift(tr, p_eff,
                                  coeff=coeff if name == "eq_1_1" else None)
        diffusion = ConstantDiffusion(tr, np.full(
            (n_grid, n_modes), 0.0 if name == "heat" else 1.0))
        bundle = HypothesisBundle(
            lambda0=constant_profile(0.0),
            lambda1=coeff, lambda2=coeff,
            lambda3=constant_profile(1e-6),
            xi=constant_profile(
                tr.hs_norm_sq(diffusion.eval(0.0, EMPTY_CONTEXT, None))),
            q1=p_eff, q2=p_eff, c_a1=1.0, c_a2=1.0, c1=1.0)
        return OperatorSet(name, drift, diffusion, bundle, tr)

    if name in ("reaction_diffusion", "eq_1_2"):
        tr = DiscreteTriple(n_grid, REACTION_DIFFUSION, q1=2.0, q2=p)
        # eq_1_2 scales flux, reaction and rates by |w_t|; the deterministic
        # family's factor 1.0 multiplies exactly
        coef = abs_scalar_profile() if name == "eq_1_2" else constant_profile(1.0)

        def a(t, ctx, r):
            return coef(t, ctx) * np.asarray(r, dtype=float)

        def a_prime(t, ctx, r):
            return coef(t, ctx) * np.ones_like(np.asarray(r, dtype=float))

        def b(t, ctx, r):
            r = np.asarray(r, dtype=float)
            return coef(t, ctx) * np.abs(r) ** (p - 2.0) * r

        def b_prime(t, ctx, r):
            r = np.asarray(r, dtype=float)
            return coef(t, ctx) * (p - 1.0) * np.abs(r) ** (p - 2.0)

        drift = ReactionDiffusionDrift(tr, a, b, a_prime, b_prime)
        if name == "eq_1_2":
            def sigma1(t, ctx, r):
                return np.sqrt(coef(t, ctx)) * np.asarray(r, dtype=float)

            diffusion = MultiplicativeDiffusion(tr, [sigma1])
            lam0 = coef
            lam12 = abs_scalar_profile(2.0)
            lam3 = coef
        else:
            diffusion = ConstantDiffusion(tr, np.zeros((n_grid, n_modes)))
            lam0 = constant_profile(0.0)
            lam12 = constant_profile(2.0)
            lam3 = constant_profile(1e-6)
        bundle = HypothesisBundle(
            lambda0=lam0, lambda1=lam12, lambda2=lam12, lambda3=lam3,
            xi=constant_profile(0.0),
            q1=2.0, q2=p, c_a1=1.0, c_a2=1.0, c1=1.0)
        return OperatorSet(name, drift, diffusion, bundle, tr)

    raise ConfigError(f"unknown operator family {name!r}; "
                      f"known: {sorted(OPERATOR_NAMES)}")


OPERATOR_NAMES = ("heat", "porous_medium", "reaction_diffusion", "eq_1_1", "eq_1_2")
