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

import numpy as np

from .errors import ConfigError

POROUS_MEDIUM = "porous_medium"
REACTION_DIFFUSION = "reaction_diffusion"


def _float_or_array(values):
    """A 0-d result as a float; a stack of results stays an array."""
    return float(values) if values.ndim == 0 else values


class DiscreteTriple:
    """Grid, Laplacian, eigenbasis, pairings and norms for one flavor."""

    def __init__(self, n_grid: int, flavor: str, q1: float = 2.0, q2: float = 2.0):
        if n_grid < 2:
            raise ConfigError(f"n_grid must be at least 2, got {n_grid}")
        if flavor not in (POROUS_MEDIUM, REACTION_DIFFUSION):
            raise ConfigError(f"unknown flavor {flavor!r}")
        if q1 < 2.0 or q2 < 2.0:
            raise ConfigError("exponents q1, q2 must be >= 2")
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

    def basis_function(self, i: int) -> np.ndarray:
        """i-th H-orthonormal basis vector (1-based, ascending eigenvalue)."""
        if not 1 <= i <= self.n_grid:
            raise ValueError(f"basis index {i} out of range 1..{self.n_grid}")
        return self.basis[:, i - 1].copy()

    # -- linear algebra helpers ---------------------------------------------

    def apply_laplacian(self, u) -> np.ndarray:
        """L u along the last axis (L is symmetric), for states or stacks."""
        return np.asarray(u, dtype=float) @ self.laplacian

    def neg_lap_inv(self, f) -> np.ndarray:
        """(-L)^{-1} f along the last axis, through the eigen-decomposition."""
        return ((np.asarray(f, dtype=float) @ self._vecs) / self.mu) @ self._vecs.T

    def grad(self, u) -> np.ndarray:
        """Forward differences with zero boundary padding; n_grid+1 face
        values along the last axis."""
        u = np.asarray(u, dtype=float)
        wall = np.zeros(u.shape[:-1] + (1,))
        padded = np.concatenate([wall, u, wall], axis=-1)
        return np.diff(padded, axis=-1) / self.h

    def _check(self, u) -> np.ndarray:
        """Grid values of one state, or of a stack of states along the
        last axis."""
        v = np.asarray(u, dtype=float)
        if v.shape[-1:] != (self.n_grid,):
            raise ValueError(
                f"vector of length {v.shape} does not match grid size {self.n_grid}"
            )
        return v

    # -- pairings and norms ---------------------------------------------------

    def h_inner(self, u, v):
        """<u, v>_H along the last axis (stacks broadcast); a float for two states."""
        u = self._check(u)
        v = self._check(v)
        if self.flavor == POROUS_MEDIUM:
            v = self.neg_lap_inv(v)
        return _float_or_array(self.h * np.einsum("...i,...i->...", u, v))

    def h_norm(self, u):
        return _float_or_array(np.sqrt(np.maximum(self.h_inner(u, u), 0.0)))

    def dual_pairing(self, x, f):
        """[x, f] for f in X*-grid coordinates; same formula as h_inner."""
        return self.h_inner(x, f)

    def hs_norm_sq(self, cols):
        """sum_j |B e_j|_H^2 over the columns (..., n_grid, n_modes) of B."""
        c = np.swapaxes(np.asarray(cols, dtype=float), -1, -2)
        return _float_or_array(np.sum(self.h_inner(c, c), axis=-1))

    def lq_norm(self, u, q: float):
        """Discrete L^q norm: a float for one state, an array (one norm per
        state) for a stack along the last axis."""
        return self._riemann_norm(self._check(u), q)

    def _riemann_norm(self, values, q: float):
        """(h sum |values|^q)^(1/q) along the last axis."""
        return _float_or_array((self.h * np.sum(np.abs(values) ** q, axis=-1))
                           ** (1.0 / q))

    def x_norm(self, u, which: int):
        """X_i norm of one state (a float) or of a stack of states."""
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        q = self.q1 if which == 1 else self.q2
        if self.flavor == POROUS_MEDIUM or which == 2:
            return self.lq_norm(u, q)
        return self._riemann_norm(self.grad(self._check(u)), q)

    def dual_norm(self, f, which: int):
        """Discrete X_i* norm of f (f in the pairing coordinates above),
        along the last axis: a float for one f, an array for a stack.

        porous medium: exact by Holder duality, ||(-L)^{-1} f||_{L^{q'}}.
        reaction diffusion, X2: exact, ||f||_{L^{q2'}}.
        reaction diffusion, X1: exact via the 1-D primitive: the supremum of
        h x^T f over ||grad x||_{q1} <= 1 equals the L^{q1'} distance of the
        reverse cumulative sum F of f to the constants; the nearest c solves
        sum sign(F - c) |F - c|^{q1'-1} = 0, decreasing in c: the mean of F
        for q1' = 2, else a bisection on [min F, max F].
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
        tail = np.cumsum((self.h * f)[..., ::-1], axis=-1)[..., ::-1]
        rev = np.concatenate([tail, np.zeros(f.shape[:-1] + (1,))], axis=-1)
        if qp == 2.0:
            c = np.mean(rev, axis=-1, keepdims=True)
        else:
            lo, hi = np.min(rev, -1, keepdims=True), np.max(rev, -1, keepdims=True)
            for _ in range(64):  # halvings: past float64 resolution
                c = 0.5 * (lo + hi)
                up = np.sum(np.sign(rev - c) * np.abs(rev - c) ** (qp - 1.0),
                            axis=-1, keepdims=True) > 0
                lo, hi = np.where(up, c, lo), np.where(up, hi, c)
            c = 0.5 * (lo + hi)
        return self._riemann_norm(rev - c, qp)

    # -- projection ------------------------------------------------------------

    def project(self, u, n: int) -> np.ndarray:
        """H-orthogonal projection onto span{e_1 .. e_n}, of one state or
        of each state of a stack along the last axis."""
        if not 1 <= n <= self.n_grid:
            raise ValueError(f"mode count {n} out of range 1..{self.n_grid}")
        return self.coefficients(u, n) @ self.basis[:, :n].T

    def coefficients(self, u, n: int) -> np.ndarray:
        """First n basis coefficients [e_i, u] of u (pairing coordinates),
        along the last axis of a state or a stack."""
        u = self._check(u)
        if self.flavor == POROUS_MEDIUM:
            u = self.neg_lap_inv(u)
        return self.h * (u @ self.basis[:, :n])
