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
exact root.  Scalar and diagonal maps get an elementwise safeguarded
Newton-bisection solver; general maps get damped Newton with an analytic or
finite-difference Jacobian, over one vector or a stack of independent
replicas (each with its own target, convergence mask and line search).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NonconvergenceError
from .reporting import Violation, ViolationReport

__all__ = [
    "MonotoneMap",
    "NewtonCounts",
    "resolvent",
    "yosida",
    "check_dissipativity",
    "check_yosida_properties",
]


@dataclass
class MonotoneMap:
    """A single-valued dissipative map F(t, x) on R^n.

    ``eval`` takes (t, x) and returns an array of x's shape.  ``jacobian``
    is optional: for ``diagonal`` maps it must return the elementwise
    derivative (same shape as x); otherwise the full (n, n) matrix.  Maps
    flagged ``diagonal`` act componentwise, which lets the resolvent solver
    run elementwise over arbitrarily-shaped batches of scalars.  A general
    map handed a stack x of shape (..., n) (independent replicas, one per
    row) must act row by row: ``eval`` returns (..., n) and ``jacobian``
    (..., n, n).  Maps only ever called on single vectors may ignore this.
    """

    eval: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    diagonal: bool = False
    name: str = "monotone map"


def _diag_fprime(F: MonotoneMap, t: float, y: np.ndarray) -> np.ndarray:
    if F.jacobian is not None:
        return np.asarray(F.jacobian(t, y), dtype=float)
    h = 1e-7 * (1.0 + np.abs(y))
    return (np.asarray(F.eval(t, y + h), dtype=float)
            - np.asarray(F.eval(t, y - h), dtype=float)) / (2.0 * h)


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


def _resolvent_diagonal(F, t, eps, x, tol, max_iter):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(F.eval(t, x), dtype=float)
    shift = eps * f0
    # |root - x| <= eps*|F(x)| because g(y) = y - eps*F(y) - x has slope >= 1
    # for dissipative F; verify by sign and expand geometrically so that maps
    # with slopes slightly below 1 still get bracketed instead of jamming
    lo = np.minimum(x, x + shift)
    hi = np.maximum(x, x + shift)
    pad = np.maximum(hi - lo, 1.0 + np.abs(x))
    for _ in range(60):
        g_lo = lo - eps * np.asarray(F.eval(t, lo), dtype=float) - x
        g_hi = hi - eps * np.asarray(F.eval(t, hi), dtype=float) - x
        need_lo = g_lo > 0.0
        need_hi = g_hi < 0.0
        if not (np.any(need_lo) or np.any(need_hi)):
            break
        lo = np.where(need_lo, lo - pad, lo)
        hi = np.where(need_hi, hi + pad, hi)
        pad = pad * 2.0
    else:
        raise NonconvergenceError(
            f"resolvent of {F.name}: no sign change found while bracketing "
            f"(eps={eps:g}); the equation y - eps*F(t,y) = x appears to have "
            "no solution, so the map is not dissipative",
            residuals=[float(np.max(np.abs(shift)))],
        )
    y = np.clip(x + 0.5 * shift, lo, hi)
    target = tol * (1.0 + np.abs(x))
    residual = None
    for _ in range(max_iter):
        g = y - eps * np.asarray(F.eval(t, y), dtype=float) - x
        residual = np.max(np.abs(g))
        if np.all(np.abs(g) <= target):
            return y
        lo = np.where(g < 0.0, y, lo)
        hi = np.where(g > 0.0, y, hi)
        gp = 1.0 - eps * _diag_fprime(F, t, y)
        cand = y - g / np.maximum(gp, 1e-12)
        inside = (cand > lo) & (cand < hi)
        y = np.where(inside, cand, 0.5 * (lo + hi))
    raise NonconvergenceError(
        f"resolvent of {F.name} did not converge (eps={eps:g}, "
        f"max residual {residual:.3e}); is the map actually dissipative?",
        residuals=[residual],
    )


class NewtonCounts:
    """Work of damped-Newton resolvent solves, accumulated per replica.

    ``iterations`` counts Newton steps (one linear solve each) and
    ``halvings`` line-search step halvings; both have the shape of the
    stack's leading axes (0-d for a single vector).  Pass one to
    :func:`resolvent` as ``counts`` to have a solve add its work.
    """

    def __init__(self, shape=()):
        self.iterations = np.zeros(shape, dtype=np.int64)
        self.halvings = np.zeros(shape, dtype=np.int64)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row (last axis)."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _newton_steps(M: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve M s = g row by row; a singular row falls back to s = g."""
    try:
        return np.linalg.solve(M, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if g.ndim == 1:
            return g
        return np.stack([_newton_steps(m, r) for m, r in zip(M, g)])


def _replica_error(message: str, lead: tuple, history: list, flat: int):
    """NonconvergenceError for the replica at flat row ``flat`` of a stack
    with leading shape ``lead``, carrying that replica's history."""
    rows = [float(np.reshape(h, -1)[flat]) for h in history]
    replica = None
    if lead:
        replica = np.unravel_index(flat, lead)
        replica = int(replica[0]) if len(lead) == 1 \
            else tuple(map(int, replica))
    return NonconvergenceError(message, residuals=rows, replica=replica)


def _resolvent_general(F, t, eps, x, tol, max_iter, guess=None, counts=None):
    """Damped Newton on y - eps*F(t, y) = x for x of shape (..., n).

    Every row is an independent replica with its own target
    tol*(1 + |x_row|), convergence mask and line-search step length.  The
    whole stack is evaluated together; a converged row gets a zero step
    and a row that has accepted its line-search trial a zero step length,
    so it stays frozen and each row follows the iterates it would follow
    alone.  The first row that fails raises, with its own history.
    """
    x = np.asarray(x, dtype=float)
    y = x.copy() if guess is None else np.array(guess, dtype=float).reshape(x.shape)
    lead = x.shape[:-1]
    eye = np.eye(x.shape[-1])
    target = tol * (1.0 + _norms(x))
    iterations = np.zeros(lead, dtype=np.int64)
    halvings = np.zeros(lead, dtype=np.int64)
    history = []
    g = y - eps * np.asarray(F.eval(t, y), dtype=float) - x
    ng = _norms(g)
    for _ in range(max_iter):
        history.append(ng)
        active = ~(ng <= target)
        n_active = np.count_nonzero(active)
        if not n_active:
            break
        iterations += active
        step = _newton_steps(eye - eps * _full_jacobian(F, t, y), g)
        if n_active < active.size:
            step = np.where(active[..., None], step, 0.0)
        lam = 1.0
        pending = active
        for _ in range(40):
            y_try = y - lam * step
            g_try = y_try - eps * np.asarray(F.eval(t, y_try), dtype=float) - x
            ng_try = _norms(g_try)
            pending = pending & ~(ng_try < ng)
            if not np.count_nonzero(pending):
                y, g, ng = y_try, g_try, ng_try
                break
            # keep the rows that descended (step length 0 from now on)
            # and halve the others' step length
            y = np.where(pending[..., None], y, y_try)
            g = np.where(pending[..., None], g, g_try)
            ng = np.where(pending, ng, ng_try)
            halvings += pending
            lam = lam * np.where(pending, 0.5, 0.0)[..., None]
        else:
            flat = int(np.flatnonzero(pending)[0])
            stalled = float(np.reshape(history[-1], -1)[flat])
            raise _replica_error(
                f"resolvent of {F.name}: damped Newton stalled at residual "
                f"{stalled:.3e}; is the map actually dissipative?",
                lead, history, flat)
    else:
        failed = ~(ng <= target)
        if np.count_nonzero(failed):
            flat = int(np.flatnonzero(failed)[0])
            raise _replica_error(
                f"resolvent of {F.name} did not converge in {max_iter} "
                f"iterations (residual {float(np.reshape(ng, -1)[flat]):.3e})",
                lead, history, flat)
    if counts is not None:
        counts.iterations += iterations
        counts.halvings += halvings
    return y


def resolvent(F: MonotoneMap, t: float, eps: float, x, tol: float = 1e-12,
              max_iter: int = 200, guess=None, counts=None) -> np.ndarray:
    """Solve y - eps*F(t, y) = x; unique for dissipative F.

    The returned y satisfies |y - eps*F(t,y) - x| <= tol*(1 + |x|)
    componentwise (diagonal maps) or in the Euclidean norm.  A general
    map accepts a stack x of shape (..., n): each row is solved as an
    independent replica in one batched Newton iteration, and a failure
    names the first failing replica and carries its residual history.
    ``guess`` warm starts the Newton iteration for non-diagonal maps (the
    answer does not depend on it beyond the tolerance); diagonal maps
    bracket from x and ignore it.  ``counts`` (a :class:`NewtonCounts`
    shaped like the stack's leading axes) accumulates Newton iterations
    and line-search halvings of a general solve.
    """
    if eps <= 0:
        raise ConfigError(f"resolvent needs eps > 0, got {eps!r}")
    if not tol > 0:
        raise ConfigError(f"resolvent needs tol > 0, got {tol!r}")
    if max_iter < 1:
        raise ConfigError(f"resolvent needs max_iter >= 1, got {max_iter!r}")
    if F.diagonal:
        return _resolvent_diagonal(F, t, eps, x, tol, max_iter)
    return _resolvent_general(F, t, eps, np.atleast_1d(x), tol, max_iter,
                              guess=guess, counts=counts)


def yosida(F: MonotoneMap, t: float, eps: float, x, tol: float = 1e-12,
           max_iter: int = 200) -> np.ndarray:
    """Yosida regularization A_eps(x) = (J_eps(x) - x)/eps = F(t, J_eps(x)).

    Both identities are checked against each other; disagreement beyond the
    solver tolerance (amplified by 1/eps) means the inner solve lied and is
    reported as nonconvergence.
    """
    x = np.asarray(x, dtype=float)
    j = resolvent(F, t, eps, x, tol=tol, max_iter=max_iter)
    a = (j - x) / eps
    f_at_j = np.asarray(F.eval(t, j), dtype=float)
    gap = float(np.max(np.abs(a - f_at_j)))
    allowed = 10.0 * tol * (1.0 + float(np.max(np.abs(x)))) / eps
    if gap > allowed:
        raise NonconvergenceError(
            f"yosida identity mismatch for {F.name}: |(J-x)/eps - F(J)| = "
            f"{gap:.3e} > {allowed:.3e}",
            residuals=[gap],
        )
    return a


def check_dissipativity(F: MonotoneMap, sampler, n_samples: int = 500,
                        seed: int = 0, tol: float = 1e-12,
                        t: float = 0.0) -> ViolationReport:
    """Sampled check of <x - y, F(x) - F(y)> <= tol on random pairs."""
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


def check_yosida_properties(F: MonotoneMap, sampler, n_samples: int = 200,
                            seed: int = 0, tol: float = 1e-8,
                            t: float = 0.0) -> ViolationReport:
    """Sampled verification of the four structural resolvent properties.

    (I)   A_eps is itself dissipative,
    (II)  A_eps is Lipschitz with constant 1/eps,
    (III) |A_eps(x)| <= |F(x)|,
    (IV)  A_eps(x) -> F(x) monotonically as eps decreases.

    Random (eps, x, y) triples drive (I)-(III); (IV) sweeps eps over a
    decreasing grid at a handful of sampled base points.  Violations carry
    the property label in their detail dict.
    """
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
