"""Comparison-function machinery: concave moduli, Bihari/Gronwall bounds, norms.

The uniqueness and Picard-convergence arguments all reduce to one scalar
comparison inequality

    g(t) <= Ginv( G(g0) + int_0^t lambda(s) ds ),   G(x) = int_{g0}^x dy / rho(y),

with rho a nondecreasing concave modulus.  When rho additionally satisfies the
Osgood condition (int_0+ dx/rho(x) = +infinity), g0 = 0 forces g == 0, which is
the quantitative mechanism behind pathwise uniqueness and fixed-point
convergence.  This module evaluates the moduli, the bound, its zero-limit
diagnostic, and the sup-H distances and convergence orders used by every
error study.

G and G^{-1} are exact (Bihari 1956): G = log(x/g0)/slope (linear),
(x^(1-a) - g0^(1-a))/(c0 (1-a)) (power), and for rho_k [P(g0) - P(x)]/c0
below eta, P(x) = log l_k(log 1/x), plus a log1p term on the affine tail
above eta.  Quadrature survives only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Values above this are reported as blow-up rather than returned.
BOUND_CAP = 1e300

LINEAR = "linear"
RHO_K = "rho_k"
POWER = "power"


def _iterated_logs(w, k: int) -> list:
    """[l_1(w), ..., l_k(w)] with l_1 = w and l_{j+1} = log l_j (elementwise)."""
    vals = [w]
    for _ in range(k - 1):
        vals.append(np.log(vals[-1]))
    return vals


@dataclass(frozen=True)
class ModulusSpec:
    """A concave modulus rho on [0, inf).

    kind = "linear":  rho(x) = slope * x  (classical Gronwall case).
    kind = "rho_k":   rho(x) = c0 * x * prod_{j=1}^k log^j(1/x) for x <= eta,
                      extended affinely above eta with the left derivative
                      (C1 match), where log^j is the j-times iterated log.
                      Needs log^j(1/x) > 0 and rho increasing on (0, eta].
    kind = "power":   rho(x) = c0 * x**alpha, alpha in (0, 1).  Not Osgood;
                      exists so the zero-limit diagnostic has a negative case.
    """

    kind: str
    slope: float = 1.0
    k: int = 1
    c0: float = 1.0
    eta: float = math.exp(-1.0)
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind == LINEAR:
            if not self.slope >= 0:
                raise ConfigError("linear modulus needs slope >= 0")
        elif self.kind == RHO_K:
            if self.k < 1 or int(self.k) != self.k:
                raise ConfigError("rho_k modulus needs integer k >= 1")
            if not self.c0 > 0:
                raise ConfigError("rho_k modulus needs c0 > 0")
            if not 0.0 < self.eta < 1.0:
                raise ConfigError(f"rho_k modulus needs eta in (0, 1); got eta={self.eta}")
            with np.errstate(invalid="ignore", divide="ignore"):
                logs = _iterated_logs(math.log(1.0 / self.eta), self.k)
            if not all(lj > 0.0 for lj in logs):
                raise ConfigError(
                    "rho_k modulus: iterated logs must stay positive on (0, eta]"
                )
            if _rho_k_prime_inner(self.eta, self.k, self.c0) < -1e-12:
                raise ConfigError(
                    "rho_k modulus: eta too large, rho would decrease before eta"
                )
        elif self.kind == POWER:
            if not (0.0 < self.alpha < 1.0):
                raise ConfigError("power modulus needs alpha in (0, 1)")
            if not self.c0 > 0:
                raise ConfigError("power modulus needs c0 > 0")
        else:
            raise ConfigError(f"unknown modulus kind {self.kind!r}")

    @property
    def is_osgood(self) -> bool:
        """Analytic criterion: does int_0+ dx/rho(x) diverge?"""
        return self.kind in (LINEAR, RHO_K)


def linear_modulus(slope: float = 1.0) -> ModulusSpec:
    return ModulusSpec(kind=LINEAR, slope=slope)


def rho_k_modulus(k: int = 1, c0: float = 1.0, eta: float | None = None) -> ModulusSpec:
    """eta defaults to 1/exp^(k)(1) = e^-1, e^-e, e^-e^e, where l_k(log 1/eta)
    = 1 and rho_k is still nondecreasing (k >= 4 underflows to eta = 0)."""
    if eta is None:
        w = 1.0
        for _ in range(k - 1):
            w = math.exp(w)
        eta = math.exp(-w)
    return ModulusSpec(kind=RHO_K, k=k, c0=c0, eta=eta)


def power_modulus(alpha: float = 0.5, c0: float = 1.0) -> ModulusSpec:
    return ModulusSpec(kind=POWER, alpha=alpha, c0=c0)


def _rho_k_inner(x, k: int, c0: float):
    # c0 * x * prod_j log^j(1/x), valid for 0 < x <= eta
    prod = 1.0
    for lj in _iterated_logs(np.log(1.0 / x), k):
        prod = prod * lj
    return c0 * x * prod


def _rho_k_prime_inner(x: float, k: int, c0: float) -> float:
    # d/dx [c0 x prod_j l_j(log 1/x)] = c0 (prod_j l_j - sum_j prod_{i>j} l_i)
    logs = _iterated_logs(math.log(1.0 / x), k)
    total = math.prod(logs)
    for j in range(k):
        total -= math.prod(logs[j + 1:])
    return c0 * float(total)


def rho_eval(x, spec: ModulusSpec):
    """Evaluate the modulus; accepts scalars or arrays, domain x >= 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("modulus domain is x >= 0")
    if spec.kind == LINEAR:
        out = spec.slope * arr
    elif spec.kind == POWER:
        out = spec.c0 * np.power(arr, spec.alpha)
    else:
        out = np.zeros_like(arr)
        inner = (arr > 0.0) & (arr <= spec.eta)
        out[inner] = _rho_k_inner(arr[inner], spec.k, spec.c0)
        tail = arr > spec.eta
        out[tail] = _rho_k_tail(arr[tail], spec)[0]
    return float(out) if out.ndim == 0 else out


def rho_extension_slope(spec: ModulusSpec) -> float:
    """Left derivative at eta, used for the affine extension (rho_k only)."""
    if spec.kind != RHO_K:
        raise ValueError("extension slope only defined for rho_k moduli")
    return max(_rho_k_prime_inner(spec.eta, spec.k, spec.c0), 0.0)


def _rho_k_tail(y, spec: ModulusSpec):
    """(rho_k(y), slope) on the affine extension y >= eta."""
    b = rho_extension_slope(spec)
    return _rho_k_inner(spec.eta, spec.k, spec.c0) + b * (y - spec.eta), b


def _rho_k_potential(x, k: int):
    """P(x) = log l_k(log 1/x) on (0, eta]; dP/dx = -1/(x l_1 ... l_k)."""
    return _iterated_logs(np.log(1.0 / x), k + 1)[-1]


def _G(x, g0: float, spec: ModulusSpec):
    """G(x) = int_{g0}^x dy / rho(y) in closed form, elementwise in x > 0 (g0 > 0).

    For rho_k, [lo, hi] between g0 and x splits at eta into [P(lo) - P(hi)]/c0
    below eta and log1p(b (hi - lo)/rho(lo))/b on the affine tail above it
    (its limit (hi - lo)/rho(lo) when the tail slope b is 0).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        if spec.kind == LINEAR:
            return np.log(x / g0) / spec.slope
        if spec.kind == POWER:
            e = 1.0 - spec.alpha
            return (x ** e - g0 ** e) / (spec.c0 * e)
        lo, hi = np.minimum(x, g0), np.maximum(x, g0)
        inner = (_rho_k_potential(np.minimum(lo, spec.eta), spec.k)
                 - _rho_k_potential(np.minimum(hi, spec.eta), spec.k)) / spec.c0
        y = np.maximum(lo, spec.eta)
        rho_y, b = _rho_k_tail(y, spec)
        z = (np.maximum(hi, spec.eta) - y) / rho_y
        tail = np.log1p(b * z) / b if b > 0.0 else z
        return np.sign(x - g0) * (inner + tail)


def _G_inverse(target, g0: float, spec: ModulusSpec):
    """x >= g0 with G(x) = target, elementwise (target <= 0 gives g0 > 0).

    Inverts each closed form of _G for log x (iterated exp on the rho_k inner
    branch, expm1 on its tail); x is inf where log x > log(BOUND_CAP).
    """
    t = np.maximum(np.asarray(target, dtype=float), 0.0)
    with np.errstate(over="ignore"):
        if spec.kind == LINEAR:
            log_x = math.log(g0) + spec.slope * t
        elif spec.kind == POWER:
            e = 1.0 - spec.alpha
            log_x = np.log(g0 ** e + spec.c0 * e * t) / e
        else:
            t_eta = max(float(_G(spec.eta, g0, spec)), 0.0)
            # P(x) on the inner branch, unwound to log 1/x
            w = _rho_k_potential(min(g0, spec.eta), spec.k) - spec.c0 * t
            for _ in range(spec.k):
                w = np.exp(w)
            y = max(g0, spec.eta)
            rho_y, b = _rho_k_tail(y, spec)
            rest = np.maximum(t - t_eta, 0.0)
            growth = np.expm1(b * rest) / b if b > 0.0 else rest
            log_x = np.where(t > t_eta, math.log(y) + np.log1p(rho_y * growth / y), -w)
        x = np.where(log_x > math.log(BOUND_CAP), np.inf, np.exp(log_x))
    return np.where(t > 0.0, x, g0)


@dataclass
class BihariBound:
    """Comparison bound G^{-1}(G(g0) + Lambda(t)) tabulated on a grid."""

    g0: float
    t_grid: np.ndarray
    lambda_integral: np.ndarray   # Lambda(t) = int_0^t lambda
    spec: ModulusSpec
    bound_curve: np.ndarray
    blowup_time: float | None = None

    def at_end(self) -> float:
        return float(self.bound_curve[-1])


def running_integral(y, x) -> np.ndarray:
    """int_{x_0}^{x_k} y for every k by the trapezoid rule, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _rate(profile, *times) -> np.ndarray:
    """A rate profile at ``times`` (floats or arrays, broadcast together),
    in their broadcast shape: None is identically zero, a callable is
    called once on the arrays, and a constant or an array tabulated on
    the times is taken as it is; one that does not broadcast is a ValueError."""
    times = [np.asarray(t, dtype=float) for t in times]
    value = np.asarray(profile(*times) if callable(profile) else
                       0.0 if profile is None else profile, dtype=float)
    shape = np.broadcast_shapes(*(t.shape for t in times))
    try:
        return np.broadcast_to(value, shape)
    except ValueError:
        raise ValueError(f"rate profile of shape {value.shape} must match "
                         f"the time grid's shape {shape}") from None


def bihari_bound(g0: float, lambda_profile, spec: ModulusSpec, t_grid) -> BihariBound:
    """Tabulate the comparison bound on t_grid.

    lambda_profile may be a constant, an array tabulated on t_grid or a
    callable t -> lambda(t) >= 0, called once on the whole grid array; a
    negative or NaN lambda raises ValueError, and +inf is a blow-up.  The
    base point of G is fixed at g0 itself, so the bound is directly
    G^{-1}(Lambda(t)) in closed form (for the linear kind the Gronwall
    form g0 * exp(slope * Lambda)).  Values that would exceed the
    cap are set to inf and the first one's time is reported as blowup_time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not g0 >= 0:  # NaN fails this comparison too
        raise ValueError(f"g0 must be nonnegative, got {g0!r}")
    if g0 == 0.0 and not spec.is_osgood:
        raise ValueError("g0 > 0 required for a non-Osgood modulus base point")
    if np.ndim(lambda_profile) and np.shape(lambda_profile) != t_grid.shape:
        raise ValueError("tabulated lambda profile must match t_grid")
    lam = _rate(lambda_profile, t_grid)
    if not np.all(lam >= 0):  # NaN fails this comparison too
        raise ValueError("lambda profile must be nonnegative")
    lam_int = running_integral(lam, t_grid)
    if g0 == 0.0:
        return BihariBound(0.0, t_grid, lam_int, spec, np.zeros_like(t_grid))

    bound = _G_inverse(lam_int, g0, spec)
    blown = np.isinf(bound)
    blowup = float(t_grid[np.argmax(blown)]) if blown.any() else None
    return BihariBound(g0, t_grid, lam_int, spec, bound, blowup)


@dataclass
class ZeroLimitReport:
    """Quantitative uniqueness diagnostic: does the bound vanish as g0 -> 0?"""

    spec: ModulusSpec
    g0_sequence: np.ndarray
    end_bounds: np.ndarray
    threshold: float
    vanishes: bool
    osgood: bool

    @property
    def flagged(self) -> bool:
        return not self.vanishes

    @property
    def ok(self) -> bool:
        return self.vanishes

    def summary(self) -> str:
        return (f"end bound {self.end_bounds[-1]:.3g} at g0 = "
                f"{self.g0_sequence[-1]:.3g}, threshold {self.threshold:g}: "
                f"{'vanishes' if self.vanishes else 'does NOT vanish'} "
                f"({'' if self.osgood else 'non-'}Osgood modulus)")


def zero_limit_check(lambda_profile, spec: ModulusSpec, t_grid,
                     g0_sequence=None, threshold: float = 1e-3) -> ZeroLimitReport:
    """Evaluate the end-time bound along g0 -> 0 and test that it vanishes.

    Passes when the end-time bounds are nonincreasing along the sequence and
    the last one is below threshold; a non-Osgood modulus is expected to fail
    (the bound stalls at a positive value), which the report flags.
    """
    if g0_sequence is None:
        g0_sequence = np.array([1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    g0_sequence = np.asarray(g0_sequence, dtype=float)
    if g0_sequence.size == 0:
        raise ValueError("g0_sequence must hold at least one value")
    ends = np.array([
        bihari_bound(g0, lambda_profile, spec, t_grid).at_end()
        for g0 in g0_sequence
    ])
    finite = np.all(np.isfinite(ends))
    dec = bool(np.all(np.diff(ends) <= 1e-12 + 1e-9 * ends[:-1]))
    vanishes = bool(finite and dec and ends[-1] <= threshold)
    return ZeroLimitReport(spec, g0_sequence, ends, threshold, vanishes, spec.is_osgood)


def osgood_partial_integral(spec: ModulusSpec, floor: float, eps: float = 0.1) -> float:
    """Partial integral int_floor^eps dx/rho(x); diverges as floor -> 0 iff Osgood."""
    if not (0.0 < floor < eps):
        raise ValueError("need 0 < floor < eps")
    return float(_G(eps, floor, spec))


def picard_comparison_curve(prev_curve, lambda_profile, spec: ModulusSpec,
                            t_grid, c0: float = 1.0) -> np.ndarray:
    """One application of the comparison operator g -> c0 * int_0^t lam * rho(g).

    Iterating this from a measured first-discrepancy curve produces the
    majorant that successive Picard differences must stay below.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    prev = np.asarray(prev_curve, dtype=float)
    lam = _rate(lambda_profile, t_grid)
    if not np.all(lam >= 0):  # NaN fails this comparison too
        raise ValueError("lambda profile must be nonnegative")
    integrand = lam * rho_eval(np.maximum(prev, 0.0), spec)
    return c0 * running_integral(integrand, t_grid)


# ---------------------------------------------------------------------------
# discrete norms and rates


def sup_h_distance(p1, p2) -> float:
    """sup over the shared grid of the H-distance between two paths.

    Accepts SolutionPath-like objects (times + coeffs, with coefficients in an
    H-orthonormal basis so the H-norm is Euclidean) or plain arrays of
    coefficients with matching shape.
    """
    a, ta = (p1.coeffs, p1.times) if hasattr(p1, "coeffs") else (p1, None)
    b, tb = (p2.coeffs, p2.times) if hasattr(p2, "coeffs") else (p2, None)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"paths live on different grids: {a.shape} vs {b.shape}")
    if ta is not None and tb is not None:
        if not np.allclose(np.asarray(ta), np.asarray(tb), rtol=0, atol=1e-12):
            raise ValueError("paths live on different time grids")
    diff = a - b
    if diff.ndim == 1:
        return float(np.max(np.abs(diff)))
    return float(np.max(np.sqrt(np.sum(diff * diff, axis=1))))


def convergence_order(errors, steps) -> float:
    """Least-squares slope of log(error) against log(step)."""
    errors = np.asarray(errors, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if errors.shape != steps.shape or errors.size < 3:
        raise ValueError("need at least 3 matching (error, step) pairs")
    if np.any(errors <= 0) or np.any(steps <= 0):
        raise ValueError("errors and steps must be positive for a log-log fit")
    slope, _intercept = np.polyfit(np.log(steps), np.log(errors), 1)
    return float(slope)
