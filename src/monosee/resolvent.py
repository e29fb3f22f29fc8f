"""Resolvent and Yosida machinery for monotone maps on R^n.

Sign convention (important): maps here are *dissipative*, i.e.

    <x - y, F(x) - F(y)> <= 0   for all x, y,

so ``I - eps*F`` is strongly monotone and globally invertible for every
eps > 0.  This is the orientation drift operators naturally carry (think
F(x) = -x**3), not the convex-analysis convention where one inverts
``I + eps*A`` for monotone increasing A.  If you have an increasing map,
negate it before wrapping it in a :class:`MonotoneMap`.

The resolvent J_eps(x) solves y - eps*F(t, y) = x; the Yosida regularization
is A_eps(x) = (J_eps(x) - x) / eps, which coincides with F(J_eps(x)) at the
exact root.  A linear map is solved in closed form, every other map by
one damped Newton kernel with an analytic or finite-difference Jacobian,
over one vector or a stack of independent replicas (each with its own
target, convergence mask and line search); a diagonal map is a stack of
width-1 rows, one per component.  The sampled checkers evaluate and
solve whole stacks of samples at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, NonconvergenceError
from .reporting import ViolationReport, _record, _sample_sum, _sampled_check

__all__ = [
    "MonotoneMap",
    "NewtonCounts",
    "resolvent",
    "check_dissipativity",
    "check_yosida_properties",
]


@dataclass
class MonotoneMap:
    """A single-valued dissipative map F(t, x) on R^n.

    ``eval`` takes (t, x) and returns an array of x's shape.  ``jacobian``
    is optional: for ``diagonal`` maps it must return the elementwise
    derivative (same shape as x); otherwise the full (n, n) matrix.  Maps
    flagged ``diagonal`` act componentwise, so the resolvent solves an
    arbitrarily-shaped array of scalars as a stack of width-1 rows, one
    independent replica per element.  A general map handed a stack x of
    shape (..., n) (independent replicas, one per row) must act row by
    row: ``eval`` returns (..., n) and ``jacobian`` (..., n, n).  Maps
    only ever called on single vectors may ignore this.  ``slope``, set
    by :meth:`linear`, declares F(t, x) = slope*x at every t; the
    resolvent of such a map is solved in closed form, without Newton work.
    """

    eval: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    diagonal: bool = False
    name: str = "monotone map"
    slope: Optional[Union[float, np.ndarray]] = None

    @classmethod
    def linear(cls, slope, diagonal: bool = False,
               name: str = "linear map") -> "MonotoneMap":
        """F(t, x) = slope*x, its ``eval`` and ``jacobian`` built from the
        slope: a float acting elementwise if ``diagonal``, else a square
        matrix A acting as A @ x on each row of a stack."""
        if diagonal:
            a = float(slope)
            return cls(eval=lambda t, x: a * np.asarray(x, dtype=float),
                       jacobian=lambda t, x: np.full(np.shape(x), a),
                       diagonal=True, name=name, slope=a)
        a = np.array(slope, dtype=float)
        return cls(eval=lambda t, x: np.asarray(x, dtype=float) @ a.T,
                   jacobian=lambda t, x: np.broadcast_to(
                       a, np.shape(x)[:-1] + a.shape), name=name, slope=a)


def _full_jacobian(F: MonotoneMap, t: float, y: np.ndarray) -> np.ndarray:
    if F.jacobian is not None:
        return np.asarray(F.jacobian(t, y), dtype=float)
    n = y.shape[-1]
    J = np.empty(y.shape + (n,))
    f0 = np.asarray(F.eval(t, y), dtype=float)
    for j in range(n):
        h = 1e-7 * (1.0 + np.abs(y[..., j]))
        yp = y.copy()
        yp[..., j] += h
        J[..., :, j] = (np.asarray(F.eval(t, yp), dtype=float) - f0) \
            / h[..., None]
    return J


class NewtonCounts:
    """Work of damped-Newton resolvent solves, accumulated per replica.

    ``iterations`` counts Newton steps (one linear solve each) and
    ``halvings`` line-search step halvings; both have the shape of the
    stack's leading axes (0-d for a single vector, x's own shape for a
    diagonal map).  Pass one to :func:`resolvent` as ``counts`` to have a
    solve add its work.
    """

    def __init__(self, shape=()):
        self.iterations = np.zeros(shape, dtype=np.int64)
        self.halvings = np.zeros(shape, dtype=np.int64)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row (last axis)."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _newton_steps(M: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve M s = g row by row; a singular row falls back to s = g."""
    if g.shape[-1] == 1:
        return np.divide(g, M[..., 0], out=g.copy(), where=M[..., 0] != 0)
    try:
        return np.linalg.solve(M, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if g.ndim == 1:
            return g
        return np.stack([_newton_steps(m, r) for m, r in zip(M, g)])


def _group_error(name: str, at, history, index=()):
    """The NonconvergenceError the rows at ``index`` (all by default) raise
    if solved alone, or None if none failed.  ``at`` is each row's failing
    entry of its residual ``history`` (-1 if solved): its stalled Newton
    iteration, or the last (final) entry if it ran out of iterations.  The
    first failure (lowest ``at``, then flat index) is the error, with its
    replica in the group's own axes; ``failures`` lists all, itself first.
    """
    at, history, failures = at[index], history[index], []
    for row in sorted(map(tuple, np.argwhere(at >= 0).tolist()),
                      key=at.__getitem__):
        k, residuals = int(at[row]), history[row]
        stalled = k + 1 < len(residuals)
        message = (f"resolvent of {name}: damped Newton stalled at residual "
                   f"{residuals[k]:.3e}; is the map actually dissipative?"
                   if stalled else f"resolvent of {name} did not converge in "
                   f"{k} iterations (residual {residuals[k]:.3e})")
        failures.append(NonconvergenceError(
            message, residuals[:k + stalled].tolist(),
            row[0] if len(row) == 1 else row or None))
    if failures:
        failures[0].failures = failures
        return failures[0]


def _linear_resolvent(F: MonotoneMap, eps, x) -> Optional[np.ndarray]:
    """(I - eps*slope)^{-1} x, eps a float or one per element (diagonal)
    or row ((..., 1), general); None if that matrix is singular."""
    x = np.asarray(x, dtype=float)
    if F.diagonal:
        scale = 1.0 - eps * F.slope
        return None if np.count_nonzero(scale == 0) else x / scale
    eps = eps[..., None] if isinstance(eps, np.ndarray) else eps
    try:
        return np.linalg.solve(np.eye(len(F.slope)) - eps * F.slope,
                               np.atleast_1d(x)[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None


def _resolvent_general(F, t, eps, x, tol, max_iter, guess=None, counts=None):
    """Damped Newton on y - eps*F(t, y) = x for x of shape (..., n).

    ``eps`` is a float or one eps per row, shaped (..., 1).  Every row is
    an independent replica with its own target tol*(1 + |x_row|),
    convergence mask and line-search step length.  The whole stack is
    evaluated together; a converged row, or one whose line search stalls
    (uses up its 40 halvings), gets a zero step and a row that has
    accepted its line-search trial a zero step length, so it stays frozen
    and each row follows the iterates it would follow alone.  Returns (y,
    F(t, y), unsolved), the map carried through the line search like the
    residual; ``unsolved`` is None if every row converged (only then
    ``counts`` gains the work), else ``unsolved(index=())`` is
    :func:`_group_error`.  A linear map is solved in closed form instead,
    counting no work and returning None for F(t, y), which a caller that
    needs it evaluates; only a singular I - eps*slope takes the Newton
    path.
    """
    if F.slope is not None:
        y = _linear_resolvent(F, eps, x)
        if y is not None:
            return y, None, None
    if F.diagonal:  # the elements as a stack of width-1 rows
        rows = MonotoneMap(
            eval=lambda t, y: np.asarray(F.eval(t, y[..., 0]),
                                         dtype=float)[..., None],
            jacobian=None if F.jacobian is None else (
                lambda t, y: np.asarray(F.jacobian(t, y[..., 0]),
                                        dtype=float)[..., None, None]),
            name=F.name)
        eps = eps[..., None] if isinstance(eps, np.ndarray) else eps
        y, f, unsolved = _resolvent_general(
            rows, t, eps, np.asarray(x, dtype=float)[..., None], tol,
            max_iter, guess, counts)
        return y[..., 0], f[..., 0], unsolved
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = x.copy() if guess is None else np.array(guess, dtype=float).reshape(x.shape)
    lead = x.shape[:-1]
    eye = np.eye(x.shape[-1])
    eps_jac = eps[..., None] if isinstance(eps, np.ndarray) else eps
    target = tol * (1.0 + _norms(x))
    iterations = np.zeros(lead, dtype=np.int64)
    halvings = np.zeros(lead, dtype=np.int64)
    history = []
    at = None  # each row's stalled iteration (max_iter if none)
    f = np.asarray(F.eval(t, y), dtype=float)
    g = y - eps * f - x
    ng = _norms(g)
    for it in range(max_iter):
        history.append(ng)
        active = ~(ng <= target)
        if at is not None:
            active &= at == max_iter
        n_active = np.count_nonzero(active)
        if not n_active:
            break
        iterations += active
        step = _newton_steps(eye - eps_jac * _full_jacobian(F, t, y), g)
        if n_active < active.size:
            step = np.where(active[..., None], step, 0.0)
        lam = 1.0
        pending = active
        for _ in range(40):
            y_try = y - lam * step
            f_try = np.asarray(F.eval(t, y_try), dtype=float)
            g_try = y_try - eps * f_try - x
            ng_try = _norms(g_try)
            pending = pending & ~(ng_try < ng)
            if not np.count_nonzero(pending):
                y, f, g, ng = y_try, f_try, g_try, ng_try
                break
            # keep the rows that descended (step length 0 from now on)
            # and halve the others' step length
            y = np.where(pending[..., None], y, y_try)
            f = np.where(pending[..., None], f, f_try)
            g = np.where(pending[..., None], g, g_try)
            ng = np.where(pending, ng, ng_try)
            halvings += pending
            lam = lam * np.where(pending, 0.5, 0.0)[..., None]
        else:
            at = np.where(pending, it, max_iter if at is None else at)
    else:  # out of iterations: every row not converged has failed
        at = max_iter if at is None else at
    if at is not None and np.count_nonzero(failed := ~(ng <= target)):
        return y, f, partial(_group_error, F.name, np.where(failed, at, -1),
                             np.stack(history + [ng], axis=-1))
    if counts is not None:
        counts.iterations += iterations
        counts.halvings += halvings
    return y, f, None


def resolvent(F: MonotoneMap, t: float, eps: float, x, tol: float = 1e-12,
              max_iter: int = 200, guess=None, counts=None) -> np.ndarray:
    """Solve y - eps*F(t, y) = x; unique for dissipative F.

    The returned y satisfies |y - eps*F(t,y) - x| <= tol*(1 + |x|)
    componentwise (diagonal maps) or in the Euclidean norm.  A general
    map accepts a stack x of shape (..., n) and a diagonal map an array
    of any shape, solved as the stack x[..., None] of width-1 rows: each
    row is solved as an independent replica in one batched Newton
    iteration.  If rows fail (a line search stalls, or ``max_iter`` runs
    out), the error names the first failing replica (an index into x for
    a diagonal map) with its history, and ``failures`` lists every one.
    ``guess`` (shaped like x) warm starts the Newton iteration; the
    answer does not depend on it beyond the tolerance.  ``counts`` (a
    :class:`NewtonCounts` shaped like the stack's leading axes, for a
    diagonal map like x) accumulates Newton iterations and line-search
    halvings of a call that returns.  ``eps`` must lie in (0, inf); an array
    of them broadcasts against x, one per element for a diagonal map and
    one per row for a general one (an (S, 1) column for x of shape (S, n)).
    A linear map passes the same checks, then is solved in closed form and
    adds nothing to ``counts``.
    """
    if isinstance(eps, np.ndarray):
        if not np.all((0 < eps) & (eps < np.inf)) \
                or not (F.diagonal or eps.shape[-1:] in ((), (1,))):
            raise ConfigError("resolvent needs 0 < eps < inf, one per row "
                              f"(a trailing axis of 1), got {eps!r}")
    elif not 0 < eps < np.inf:
        raise ConfigError(f"resolvent needs 0 < eps < inf, got {eps!r}")
    if not tol > 0:
        raise ConfigError(f"resolvent needs tol > 0, got {tol!r}")
    if max_iter < 1:
        raise ConfigError(f"resolvent needs max_iter >= 1, got {max_iter!r}")
    y, _, unsolved = _resolvent_general(F, t, eps, x, tol, max_iter,
                                        guess=guess, counts=counts)
    if unsolved is not None:
        raise unsolved()
    return y


def check_dissipativity(F: MonotoneMap, sampler, n_samples: int = 500,
                        seed: int = 0, tol: float = 1e-12,
                        t: float = 0.0) -> ViolationReport:
    """Sampled check of <x - y, F(x) - F(y)> <= tol on random pairs."""

    def evaluate(_, x, y):
        inner = _sample_sum((x - y) * (np.asarray(F.eval(t, x), dtype=float)
                                       - np.asarray(F.eval(t, y), dtype=float)))
        return [(inner - tol, inner > tol, {"inner": inner, "x": x, "y": y})]

    return _sampled_check(f"dissipativity[{F.name}]", n_samples, tol, seed,
                          lambda rng: (t, sampler(rng), sampler(rng)), evaluate)


def check_yosida_properties(F: MonotoneMap, sampler, n_samples: int = 200,
                            seed: int = 0, tol: float = 1e-8,
                            t: float = 0.0) -> ViolationReport:
    """Sampled verification of the four structural resolvent properties.

    (I)   A_eps is itself dissipative,
    (II)  A_eps is Lipschitz with constant 1/eps,
    (III) |A_eps(x)| <= |F(x)|,
    (IV)  A_eps(x) -> F(x) monotonically as eps decreases.

    Random (eps, x, y) triples drive (I)-(III); (IV) sweeps eps over a
    decreasing grid at a handful of sampled base points, each stage solved
    in one call.  Violations carry the property label in their detail
    dict; a sample whose solve fails is flagged "resolvent solve" with the
    error its first failed solve (x, then y) raises alone, and a failed
    sweep point enters (IV)'s gaps as inf.
    """
    eps_grid = np.logspace(-1, -5, 9)

    def norms(v):
        return np.sqrt(_sample_sum(v * v))

    def state(rng):
        return np.atleast_1d(np.asarray(sampler(rng), dtype=float))

    def draw(rng):
        return float(10.0 ** rng.uniform(-3, 0)), state(rng), state(rng)

    def solve(eps, *stacks):
        # A_eps of stacked samples, one eps per sample, in one kernel call,
        # and each sample's error text: its first failed stack's ("" if none)
        x = np.stack(stacks)
        e = eps.reshape((-1,) + (1,) * (x.ndim - 2))
        j, _, unsolved = _resolvent_general(F, t, e, x, 1e-13, 200)
        errors = [""] * len(eps)
        if unsolved is not None:
            for i in range(len(eps)):
                errors[i] = str(next(filter(None, (
                    unsolved((s, i)) for s in range(len(stacks)))), ""))
        return (j - x) / e, errors

    def evaluate(eps, x, y):
        (ax, ay), error = solve(eps, x, y)
        solved = np.array([not e for e in error])
        scale = 1.0 + norms(x) + norms(y)
        inner = _sample_sum((x - y) * (ax - ay))
        lip, lip_cap = norms(ax - ay), norms(x - y) / eps
        na, nf = norms(ax), norms(np.asarray(F.eval(t, x), dtype=float))
        return [
            (np.inf, ~solved, {"property": "resolvent solve", "error": error}),
            (inner, solved & (inner > tol * scale),
             {"property": "I monotonicity"}),
            (lip - lip_cap, solved & (lip > lip_cap * (1.0 + tol) + tol),
             {"property": "II lipschitz"}),
            (na - nf, solved & (na > nf * (1.0 + tol) + tol),
             {"property": "III domination"})]

    def convergence_sweep(rng, report):
        base = np.stack([state(rng) for _ in range(5)])
        k = len(eps_grid)
        (a,), errors = solve(np.tile(eps_grid, 5), np.repeat(base, k, axis=0))
        gaps = norms(a - np.repeat(np.asarray(F.eval(t, base), dtype=float),
                                   k, axis=0))
        gaps[[bool(e) for e in errors]] = np.inf
        gaps = gaps.reshape(5, k)
        worsened = np.any(gaps[:, 1:] > gaps[:, :-1]
                          + tol * (1.0 + gaps[:, :-1]), axis=1)
        with np.errstate(invalid="ignore"):
            excess = gaps[:, -1] - gaps[:, 0]
        _record(report, np.full(5, eps_grid[-1]), [
            (excess, worsened | ~(gaps[:, -1] <= gaps[:, 0] + tol),
             {"property": "IV convergence", "gaps": gaps})],
            index=n_samples + np.arange(5))
        report.notes.append(
            "eps drawn log-uniform from [1e-3, 1]; property IV swept on "
            f"{k} decreasing eps values at 5 base points")

    return _sampled_check(f"yosida properties[{F.name}]", n_samples, tol,
                          seed, draw, evaluate, tail=convergence_sweep)
