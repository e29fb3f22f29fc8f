"""Tests for the discrete evolution triples (grid, pairings, projections)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from monosee.triple import (
    POROUS_MEDIUM,
    REACTION_DIFFUSION,
    DiscreteTriple,
)


def _analytic_eigs(n_grid):
    # Dirichlet eigenpairs of the centered second-difference stencil:
    # mu_k = (4/h^2) sin^2(k pi h / 2), v_k(i) = sin(k pi x_i)
    h = 1.0 / (n_grid + 1)
    k = np.arange(1, n_grid + 1)
    mu = (4.0 / h ** 2) * np.sin(k * np.pi * h / 2.0) ** 2
    x = h * np.arange(1, n_grid + 1)
    vecs = np.sin(np.outer(x, k) * np.pi)
    return mu, vecs


def _neg_lap_inv_dense(tr, f):
    # independent route: dense solve instead of the eigen-decomposition
    return np.linalg.solve(-tr.laplacian, f)


def test_laplacian_entries_small_grid():
    tr = DiscreteTriple(3, REACTION_DIFFUSION)
    assert tr.h == pytest.approx(0.25)
    expected = np.array([
        [-32.0, 16.0, 0.0],
        [16.0, -32.0, 16.0],
        [0.0, 16.0, -32.0],
    ])
    assert np.allclose(tr.laplacian, expected)
    assert np.allclose(tr.laplacian, tr.laplacian.T)
    assert np.all(np.linalg.eigvalsh(-tr.laplacian) > 0)


def test_eigenvalues_match_analytic_formula():
    for n in (3, 16, 33):
        tr = DiscreteTriple(n, POROUS_MEDIUM, q1=3, q2=3)
        mu, _ = _analytic_eigs(n)
        assert np.allclose(tr.mu, mu, rtol=1e-10)


def test_basis_h_orthonormal_both_flavors():
    for flavor in (POROUS_MEDIUM, REACTION_DIFFUSION):
        tr = DiscreteTriple(16, flavor, q1=3, q2=3)
        G = np.array([
            [tr.h_inner(tr.basis[:, i], tr.basis[:, j]) for j in range(16)]
            for i in range(16)
        ])
        assert np.allclose(G, np.eye(16), atol=1e-10)


def test_h_inner_examples():
    tr = DiscreteTriple(7, REACTION_DIFFUSION)
    z = np.zeros(7)
    assert tr.h_inner(z, z) == 0.0
    ones = np.ones(7)
    assert tr.h_inner(ones, ones) == pytest.approx(tr.h * 7)
    assert tr.h * 7 == pytest.approx(1.0 - tr.h)

    # porous medium: first H-normalized eigenvector has unit H-norm;
    # oracle uses an analytic eigenvector and a dense solve for (-L)^{-1}
    pm = DiscreteTriple(9, POROUS_MEDIUM, q1=3, q2=3)
    mu, vecs = _analytic_eigs(9)
    v1 = vecs[:, 0]
    e1_oracle = v1 * np.sqrt(mu[0] / (pm.h * (v1 @ v1)))
    val = pm.h * e1_oracle @ _neg_lap_inv_dense(pm, e1_oracle)
    assert val == pytest.approx(1.0, rel=1e-12)
    e1 = pm.basis_function(1)
    assert pm.h_inner(e1, e1) == pytest.approx(1.0, rel=1e-12)
    assert abs(pm.h_inner(e1, e1_oracle)) == pytest.approx(1.0, rel=1e-10)


def test_h_inner_positive_definite_sampled():
    rng = np.random.default_rng(5)
    for flavor in (POROUS_MEDIUM, REACTION_DIFFUSION):
        tr = DiscreteTriple(12, flavor, q1=3, q2=2)
        for _ in range(1000):
            u = rng.standard_normal(12)
            assert tr.h_inner(u, u) > 0.0


def test_h_inner_dimension_mismatch():
    tr = DiscreteTriple(5, REACTION_DIFFUSION)
    with pytest.raises(ValueError):
        tr.h_inner(np.ones(5), np.ones(6))


def test_x_norm_examples():
    tr = DiscreteTriple(10, POROUS_MEDIUM, q1=3.0, q2=3.0)
    assert tr.x_norm(np.zeros(10), 1) == 0.0
    c = -2.5
    expected = abs(c) * (tr.h * 10) ** (1.0 / 3.0)
    assert tr.x_norm(np.full(10, c), 1) == pytest.approx(expected, rel=1e-12)

    rd = DiscreteTriple(3, REACTION_DIFFUSION, q1=2.0, q2=2.0)
    hat = np.array([0.5, 1.0, 0.5])
    # brute-force forward-difference sum with zero padding
    faces = np.diff(np.concatenate([[0.0], hat, [0.0]])) / rd.h
    oracle = np.sqrt(rd.h * np.sum(faces ** 2))
    assert rd.x_norm(hat, 1) == pytest.approx(oracle, rel=1e-14)
    assert oracle == pytest.approx(2.0)  # frozen: faces are (+-)2, h = 1/4


def test_dual_pairing_examples():
    pm = DiscreteTriple(8, POROUS_MEDIUM, q1=3, q2=3)
    assert pm.dual_pairing(np.ones(8), np.zeros(8)) == 0.0

    rng = np.random.default_rng(9)
    for tr in (pm, DiscreteTriple(8, REACTION_DIFFUSION)):
        for _ in range(100):
            x = rng.standard_normal(8)
            f = rng.standard_normal(8)
            assert tr.dual_pairing(x, f) == pytest.approx(tr.h_inner(x, f), abs=1e-12)

    # eigenvalue oracle: pairing of e1 against L e1 is -mu_1 (A = Laplacian
    # acting on e1), against -L e1 it is +mu_1
    mu, _ = _analytic_eigs(8)
    e1 = pm.basis_function(1)
    assert pm.dual_pairing(e1, pm.apply_laplacian(e1)) == pytest.approx(-mu[0], rel=1e-10)
    assert pm.dual_pairing(e1, -pm.apply_laplacian(e1)) == pytest.approx(mu[0], rel=1e-10)


def test_project_examples():
    tr = DiscreteTriple(12, REACTION_DIFFUSION)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(12)
    assert np.allclose(tr.project(u, 12), u, atol=1e-10)
    e2 = tr.basis_function(2)
    assert np.allclose(tr.project(e2, 1), 0.0, atol=1e-12)
    p = tr.project(u, 3)
    assert np.allclose(tr.project(p, 3), p, atol=1e-12)


def test_projection_symmetry_and_contraction():
    rng = np.random.default_rng(4)
    for flavor in (POROUS_MEDIUM, REACTION_DIFFUSION):
        tr = DiscreteTriple(14, flavor, q1=3, q2=2)
        for _ in range(50):
            x = rng.standard_normal(14)
            y = rng.standard_normal(14)
            n = int(rng.integers(1, 15))
            lhs = tr.dual_pairing(tr.project(x, n), y)
            rhs = tr.dual_pairing(tr.project(y, n), x)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert tr.h_norm(tr.project(x, n)) <= tr.h_norm(x) * (1 + 1e-12) + 1e-12


def test_projection_nesting():
    tr = DiscreteTriple(10, POROUS_MEDIUM, q1=3, q2=3)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(10)
    a = tr.project(tr.project(u, 7), 4)
    b = tr.project(u, 4)
    assert np.allclose(a, b, atol=1e-10)
    with pytest.raises(ValueError):
        tr.project(u, 0)
    with pytest.raises(ValueError):
        tr.project(u, 11)


def test_dual_norm_porous_medium_exact():
    # f = L g  =>  (-L)^{-1} f = -g, so the dual norm is the L^{q'} norm of g
    tr = DiscreteTriple(16, POROUS_MEDIUM, q1=3.0, q2=3.0)
    rng = np.random.default_rng(8)
    g = rng.standard_normal(16)
    f = tr.apply_laplacian(g)
    qp = 3.0 / 2.0
    oracle = (tr.h * np.sum(np.abs(g) ** qp)) ** (1.0 / qp)
    assert tr.dual_norm(f, 1) == pytest.approx(oracle, rel=1e-10)


def test_dual_norm_rd_x2_and_duality_inequality():
    tr = DiscreteTriple(12, REACTION_DIFFUSION, q1=2.0, q2=4.0)
    rng = np.random.default_rng(10)
    f = rng.standard_normal(12)
    qp = 4.0 / 3.0
    oracle = (tr.h * np.sum(np.abs(f) ** qp)) ** (1.0 / qp)
    assert tr.dual_norm(f, 2) == pytest.approx(oracle, rel=1e-12)

    # X1 dual norm: Holder-type bound h x^T f <= ||f||_{X1*} ||x||_{X1} sampled
    dn = tr.dual_norm(f, 1)
    for _ in range(200):
        x = rng.standard_normal(12)
        assert tr.h * (x @ f) <= dn * tr.x_norm(x, 1) * (1 + 1e-9) + 1e-12


def test_dual_norm_rd_x1_q2_closed_form():
    # for q1 = 2 the constant-shift minimization has the closed form
    # min_c ||F - c||_{L^2(faces)} with c the h-weighted face mean
    tr = DiscreteTriple(9, REACTION_DIFFUSION, q1=2.0, q2=2.0)
    rng = np.random.default_rng(12)
    f = rng.standard_normal(9)
    rev = np.concatenate([np.cumsum((tr.h * f)[::-1])[::-1], [0.0]])
    c = np.mean(rev)
    oracle = np.sqrt(tr.h * np.sum((rev - c) ** 2))
    assert tr.dual_norm(f, 1) == pytest.approx(oracle, rel=1e-9)

    # and it is attained: the primitive of (F - c) realizes equality in Holder
    d_opt = rev - c
    x_opt = tr.h * np.cumsum(d_opt)[:-1]  # node values with grad(x_opt) = d_opt
    assert np.allclose(tr.grad(x_opt), d_opt, atol=1e-12)
    pairing = tr.h * (x_opt @ f)
    assert abs(pairing) == pytest.approx(tr.dual_norm(f, 1) * tr.x_norm(x_opt, 1), rel=1e-8)


def _x1_dual_norm_oracle(tr, f):
    # the pre-closed-form route: bounded scalar minimisation over the
    # constant shift of the reverse primitive
    qp = tr.q1 / (tr.q1 - 1.0)
    rev = np.concatenate([np.cumsum((tr.h * f)[::-1])[::-1], [0.0]])

    def dist(c):
        return (tr.h * np.sum(np.abs(rev - c) ** qp)) ** (1.0 / qp)

    res = minimize_scalar(dist, bounds=(float(np.min(rev)), float(np.max(rev))),
                          method="bounded", options={"xatol": 1e-13})
    return float(dist(res.x))


@pytest.mark.parametrize("q1", [2.0, 2.5, 3.0, 4.0])
def test_dual_norm_rd_x1_matches_scalar_minimisation(q1):
    tr = DiscreteTriple(11, REACTION_DIFFUSION, q1=q1, q2=3.0)
    rng = np.random.default_rng(int(10 * q1))
    fs = rng.standard_normal((20, 11)) * np.exp(rng.uniform(-3, 3, (20, 1)))
    stacked = tr.dual_norm(fs, 1)
    assert stacked.shape == (20,)
    for f, norm in zip(fs, stacked):
        oracle = _x1_dual_norm_oracle(tr, f)
        assert tr.dual_norm(f, 1) == pytest.approx(oracle, rel=1e-10)
        assert norm == pytest.approx(oracle, rel=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(flavor=st.sampled_from([POROUS_MEDIUM, REACTION_DIFFUSION]),
       n_grid=st.integers(2, 14), q1=st.sampled_from([2.0, 2.5, 4.0]),
       rows=st.integers(1, 5), seed=st.integers(0, 2 ** 31))
def test_stacked_pairings_and_norms_match_rows(flavor, n_grid, q1, rows, seed):
    tr = DiscreteTriple(n_grid, flavor, q1=q1, q2=3.0)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((rows, 2, n_grid))
    f = rng.standard_normal((rows, 2, n_grid)) * 10.0
    inner = tr.h_inner(u, f)
    pairing = tr.dual_pairing(u[:, :1], f)  # one x broadcast over two f
    norms = {which: tr.dual_norm(f, which) for which in (1, 2)}
    assert inner.shape == pairing.shape == norms[1].shape == (rows, 2)
    for i in range(rows):
        for k in range(2):
            assert inner[i, k] == pytest.approx(tr.h_inner(u[i, k], f[i, k]),
                                                rel=1e-9, abs=1e-12)
            assert pairing[i, k] == pytest.approx(
                tr.dual_pairing(u[i, 0], f[i, k]), rel=1e-9, abs=1e-12)
            assert tr.h_norm(u)[i, k] == pytest.approx(tr.h_norm(u[i, k]),
                                                       rel=1e-12)
            for which in (1, 2):
                assert norms[which][i, k] == pytest.approx(
                    tr.dual_norm(f[i, k], which), rel=1e-9)
    assert isinstance(tr.h_inner(u[0, 0], f[0, 0]), float)
    assert isinstance(tr.dual_norm(f[0, 0], 1), float)


def test_hs_norm_sq_of_columns_and_stacks():
    tr = DiscreteTriple(6, POROUS_MEDIUM)
    rng = np.random.default_rng(4)
    cols = rng.standard_normal((3, 6, 2))
    direct = [sum(tr.h_inner(c[:, j], c[:, j]) for j in range(2)) for c in cols]
    assert np.allclose(tr.hs_norm_sq(cols), direct, rtol=1e-12, atol=0)
    assert tr.hs_norm_sq(cols[0]) == pytest.approx(direct[0], rel=1e-12)


@pytest.mark.parametrize("flavor", [POROUS_MEDIUM, REACTION_DIFFUSION])
def test_project_and_coefficients_take_stacks(flavor):
    tr = DiscreteTriple(11, flavor, q1=3, q2=3)
    rng = np.random.default_rng(8)
    for n in (1, 4, 11):
        basis = tr.basis[:, :n]
        for shape in ((5,), (3, 4)):
            stack = rng.standard_normal(shape + (11,)) * 10.0 ** rng.uniform(
                -3, 3, shape + (1,))
            coeffs, proj = tr.coefficients(stack, n), tr.project(stack, n)
            assert coeffs.shape == shape + (n,)
            assert proj.shape == shape + (11,)
            for idx in np.ndindex(shape):
                row = stack[idx]
                scale = np.max(np.abs(row))
                assert np.allclose(coeffs[idx], tr.coefficients(row, n),
                                   rtol=0, atol=1e-12 * scale)
                assert np.allclose(proj[idx], tr.project(row, n),
                                   rtol=0, atol=1e-12 * scale)
        # one state: the single-state formulas, bit for bit
        u = rng.standard_normal(11)
        paired = u if flavor == REACTION_DIFFUSION else tr.neg_lap_inv(u)
        want = tr.h * (basis.T @ paired)
        assert tr.coefficients(u, n).tobytes() == want.tobytes()
        assert tr.project(u, n).tobytes() == (basis @ want).tobytes()
    with pytest.raises(ValueError, match="grid size"):
        tr.coefficients(np.zeros((3, 10)), 2)
