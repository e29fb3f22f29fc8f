"""Discrete evolution triples on the unit interval.

Two flavors of the variational setting X c H ~ H* c X* are realized on a
uniform Dirichlet grid over O = (0, 1):

* porous_medium:       H = W^{-1,2}(O),  X1 = X2 = L^q(O)
* reaction_diffusion:  H = L^2(O),       X1 = W^{1,q1}_0(O),  X2 = L^{q2}(O)

The Galerkin basis is the eigenbasis of the (negated) discrete Dirichlet
Laplacian, H-orthonormalized.  Those eigenvectors are simultaneously
orthogonal in L^2 and in W^{-1,2}, so the same projection machinery serves
both flavors.  Integrals over O are Riemann sums with weight h; (-L)^{-1}
is applied through the precomputed eigen-decomposition.

Coordinate convention for dual elements: an f in X* is stored as the grid
vector for which the pairing reads [x, f] = h x^T (-L)^{-1} f (porous medium)
or [x, f] = h x^T f (reaction diffusion).  With that convention the pairing
has the same formula as the H-inner product, so [x, f] = <x, f>_H holds
identically whenever f is an H-element in grid coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

POROUS_MEDIUM = "porous_medium"
REACTION_DIFFUSION = "reaction_diffusion"


@dataclass
class GridFunction:
    """A grid-sampled function owned by a triple."""

    values: np.ndarray
    triple: "DiscreteTriple"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.triple.n_grid,):
            raise ValueError(
                f"GridFunction length {self.values.shape} does not match "
                f"grid size {self.triple.n_grid}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridFunction entries must be finite")


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)


def _norm_value(norms: np.ndarray):
    """A 0-d norm as a float; a stack of norms stays an array."""
    return float(norms) if norms.ndim == 0 else norms


class DiscreteTriple:
    """Grid, Laplacian, eigenbasis, pairings and norms for one flavor."""

    def __init__(self, n_grid: int, flavor: str, q1: float = 2.0, q2: float = 2.0):
        if n_grid < 2:
            raise ValueError("n_grid must be at least 2")
        if flavor not in (POROUS_MEDIUM, REACTION_DIFFUSION):
            raise ValueError(f"unknown flavor {flavor!r}")
        if q1 < 2.0 or q2 < 2.0:
            raise ValueError("exponents q1, q2 must be >= 2")
        self.n_grid = int(n_grid)
        self.flavor = flavor
        self.q1 = float(q1)
        self.q2 = float(q2)
        self.h = 1.0 / (n_grid + 1)
        self.nodes = self.h * np.arange(1, n_grid + 1)

        # second-order centered Dirichlet Laplacian, negative definite
        lap = np.zeros((n_grid, n_grid))
        inv_h2 = 1.0 / self.h ** 2
        np.fill_diagonal(lap, -2.0 * inv_h2)
        idx = np.arange(n_grid - 1)
        lap[idx, idx + 1] = inv_h2
        lap[idx + 1, idx] = inv_h2
        self.laplacian = lap

        # eigenbasis of -L: mu ascending, V Euclidean-orthonormal columns
        mu, vecs = np.linalg.eigh(-lap)
        self.mu = mu
        self._vecs = vecs
        # H-normalization: ||v||_H^2 = h v'v (RD) or h v'(-L)^{-1}v = h/mu (PM)
        if flavor == REACTION_DIFFUSION:
            scale = np.full(n_grid, 1.0 / np.sqrt(self.h))
        else:
            scale = np.sqrt(mu / self.h)
        self.basis = vecs * scale[None, :]

    # -- element construction ------------------------------------------------

    def grid_function(self, values) -> GridFunction:
        return GridFunction(np.asarray(values, dtype=float), self)

    def basis_function(self, i: int) -> np.ndarray:
        """i-th H-orthonormal basis vector (1-based, ascending eigenvalue)."""
        if not 1 <= i <= self.n_grid:
            raise ValueError(f"basis index {i} out of range 1..{self.n_grid}")
        return self.basis[:, i - 1].copy()

    # -- linear algebra helpers ---------------------------------------------

    def apply_laplacian(self, u) -> np.ndarray:
        """L u along the last axis (L is symmetric), for states or stacks."""
        return _values(u) @ self.laplacian

    def neg_lap_inv(self, f) -> np.ndarray:
        """(-L)^{-1} f through the eigen-decomposition."""
        f = _values(f)
        return self._vecs @ ((self._vecs.T @ f) / self.mu)

    def grad(self, u) -> np.ndarray:
        """Forward differences with zero boundary padding; n_grid+1 face
        values along the last axis."""
        u = _values(u)
        wall = np.zeros(u.shape[:-1] + (1,))
        padded = np.concatenate([wall, u, wall], axis=-1)
        return np.diff(padded, axis=-1) / self.h

    def _check(self, u, stacked: bool = False) -> np.ndarray:
        """Grid values of one state, or of a stack of states along the
        last axis when ``stacked``."""
        v = _values(u)
        shape = v.shape[-1:] if stacked else v.shape
        if shape != (self.n_grid,):
            raise ValueError(
                f"vector of length {v.shape} does not match grid size {self.n_grid}"
            )
        return v

    # -- pairings and norms ---------------------------------------------------

    def h_inner(self, u, v) -> float:
        u = self._check(u)
        v = self._check(v)
        if self.flavor == REACTION_DIFFUSION:
            return float(self.h * (u @ v))
        return float(self.h * (u @ self.neg_lap_inv(v)))

    def h_norm(self, u) -> float:
        return float(np.sqrt(max(self.h_inner(u, u), 0.0)))

    def dual_pairing(self, x, f) -> float:
        """[x, f] for f in X*-grid coordinates; same formula as h_inner."""
        return self.h_inner(x, f)

    def lq_norm(self, u, q: float):
        """Discrete L^q norm: a float for one state, an array (one norm per
        state) for a stack along the last axis."""
        u = self._check(u, stacked=True)
        return _norm_value((self.h * np.sum(np.abs(u) ** q, axis=-1))
                           ** (1.0 / q))

    def x_norm(self, u, which: int):
        """X_i norm of one state (a float) or of a stack of states."""
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        q = self.q1 if which == 1 else self.q2
        if self.flavor == POROUS_MEDIUM:
            return self.lq_norm(u, q)
        if which == 2:
            return self.lq_norm(u, q)
        d = self.grad(self._check(u, stacked=True))
        return _norm_value((self.h * np.sum(np.abs(d) ** q, axis=-1))
                           ** (1.0 / q))

    def dual_norm(self, f, which: int) -> float:
        """Discrete X_i* norm of f (f in the pairing coordinates above).

        porous medium: exact by Holder duality, ||(-L)^{-1} f||_{L^{q'}}.
        reaction diffusion, X2: exact, ||f||_{L^{q2'}}.
        reaction diffusion, X1: exact via the 1-D primitive: the supremum of
        h x^T f over ||grad x||_{q1} <= 1 equals the L^{q1'} distance of the
        reverse cumulative sum of f to the constants.
        """
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        f = self._check(f)
        q = self.q1 if which == 1 else self.q2
        qp = q / (q - 1.0)
        if self.flavor == POROUS_MEDIUM:
            return self.lq_norm(self.neg_lap_inv(f), qp)
        if which == 2:
            return self.lq_norm(f, qp)
        # F_j = h * sum_{i > j} f_i on faces j = 0..n_grid; x^T f = sum d_j F_j
        rev = np.concatenate([np.cumsum((self.h * f)[::-1])[::-1], [0.0]])

        def dist(c):
            return (self.h * np.sum(np.abs(rev - c) ** qp)) ** (1.0 / qp)

        res = minimize_scalar(dist, bounds=(float(np.min(rev)), float(np.max(rev))),
                              method="bounded", options={"xatol": 1e-13})
        return float(dist(res.x))

    # -- projection ------------------------------------------------------------

    def project(self, u, n: int) -> np.ndarray:
        """H-orthogonal projection onto span{e_1 .. e_n}."""
        if not 1 <= n <= self.n_grid:
            raise ValueError(f"mode count {n} out of range 1..{self.n_grid}")
        u = self._check(u)
        coeffs = self.coefficients(u, n)
        return self.basis[:, :n] @ coeffs

    def coefficients(self, u, n: int) -> np.ndarray:
        """First n basis coefficients [e_i, u] of u (pairing coordinates)."""
        u = self._check(u)
        if self.flavor == REACTION_DIFFUSION:
            return self.h * (self.basis[:, :n].T @ u)
        return self.h * (self.basis[:, :n].T @ self.neg_lap_inv(u))
