"""Tests for seeded noise paths, bridge refinement, and the binary dump."""

from pathlib import Path

import numpy as np
import pytest

from monosee.errors import ConfigError
from monosee.noise import (
    BatchContext,
    NoiseBatch,
    NoiseContext,
    load_increments,
    refine_path,
    sample_batch,
    sample_path,
    save_increments,
)


def test_shapes_grid_and_scalar_path():
    p = sample_path(seed=123, t_final=2.0, n_steps=8, n_modes=3)
    assert p.times.shape == (9,)
    assert p.increments.shape == (8, 3)
    assert p.scalar_path.shape == (9,)
    assert p.times[0] == 0.0 and p.times[-1] == 2.0
    assert p.scalar_path[0] == 0.0
    assert np.allclose(np.diff(p.scalar_path), p.increments[:, 0])


def test_determinism_same_seed():
    a = sample_path(7, 1.0, 16, 2)
    b = sample_path(7, 1.0, 16, 2)
    assert np.array_equal(a.increments, b.increments)
    c = sample_path(8, 1.0, 16, 2)
    assert not np.array_equal(a.increments, c.increments)
    r1 = sample_path(7, 1.0, 16, 2, replica=1)
    assert not np.array_equal(a.increments, r1.increments)


def test_config_errors():
    with pytest.raises(ConfigError):
        sample_path(1, -1.0, 4, 1)
    with pytest.raises(ConfigError):
        sample_path(1, 1.0, 0, 1)
    with pytest.raises(ConfigError):
        sample_path(1, 1.0, 4, 0)


def test_single_increment_variance_statistic():
    # variance-parameter oracle over many independent substreams: a single
    # increment over [0, T] has variance T; 3-standard-error band for the
    # sample variance of R iid normals: sd(s^2) ~ T sqrt(2/(R-1))
    T = 0.7
    R = 100_000
    draws = np.array([
        sample_path(2024, T, 1, 1, replica=r).increments[0, 0]
        for r in range(R)
    ])
    s2 = np.var(draws, ddof=1)
    se = T * np.sqrt(2.0 / (R - 1))
    assert abs(s2 - T) < 3 * se


def test_cross_mode_correlation_statistic():
    # modes are independent; empirical correlation of iid pairs is ~N(0, 1/R)
    R = 100_000
    p = sample_path(99, 1.0, R, 2)
    x, y = p.increments[:, 0], p.increments[:, 1]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(R)


def test_refine_pairwise_sums_exact():
    # bit-exact aggregation is impossible in float64 when the two halves
    # catastrophically cancel (their sum lies on a coarser ulp lattice than
    # the coarse increment), so the contract is: one-ulp defect bound for
    # every entry, bit equality for the non-cancelling majority
    eps = np.finfo(float).eps
    p = sample_path(5, 1.0, 32, 2)
    f = refine_path(p)
    assert f.n_steps == 64
    assert f.dt == pytest.approx(p.dt / 2)
    a, b = f.increments[0::2], f.increments[1::2]
    defect = (a + b) - p.increments
    scale = np.maximum(np.abs(a), np.abs(b))
    assert np.all(np.abs(defect) <= 2 * eps * scale)
    assert np.mean(defect == 0.0) > 0.8  # frozen seed, deterministic fraction

    ff = refine_path(f)
    sums4 = ff.increments[0::4] + ff.increments[1::4] + ff.increments[2::4] + ff.increments[3::4]
    assert np.allclose(sums4, p.increments, rtol=0, atol=1e-15)


def test_refine_deterministic_and_level_dependent():
    p = sample_path(5, 1.0, 8, 1)
    f1 = refine_path(p)
    f2 = refine_path(p)
    assert np.array_equal(f1.increments, f2.increments)
    # second refinement level uses a different substream than the first
    ff = refine_path(f1)
    assert ff.level == 2
    assert not np.array_equal(ff.increments[:16], f1.increments[:16])


def test_bridge_midpoint_conditional_variance():
    # conditional variance statistic: first - coarse/2 ~ N(0, dt/4) across
    # many iid mode copies
    R = 100_000
    p = sample_path(31, 1.0, 1, R)
    f = refine_path(p)
    centered = f.increments[0] - p.increments[0] / 2.0
    dt = p.dt
    s2 = np.var(centered, ddof=1)
    se = (dt / 4.0) * np.sqrt(2.0 / (R - 1))
    assert abs(s2 - dt / 4.0) < 3 * se


def test_dump_round_trip(tmp_path):
    p = sample_path(42, 1.0, 10, 3)
    fname = str(tmp_path / "noise.bin")
    save_increments(p, fname)
    seed, inc = load_increments(fname)
    assert seed == 42
    assert np.array_equal(inc, p.increments)
    raw = Path(fname).read_bytes()
    assert raw[:8] == b"MSNOISE1"
    assert len(raw) == 8 + 24 + 10 * 3 * 8

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(ConfigError):
        load_increments(str(bad))


def test_noise_context_frozen_lookup():
    p = sample_path(11, 1.0, 4, 1)
    ctx = NoiseContext(p)
    assert ctx.scalar(0.0) == 0.0
    assert ctx.scalar(0.5) == pytest.approx(p.scalar_path[2])
    frozen = ctx.frozen(0.25)
    assert frozen.scalar(0.75) == pytest.approx(p.scalar_path[1])
    with pytest.raises(ValueError):
        ctx.scalar(0.33)  # off-grid


def test_sample_batch_rows_bit_identical_to_sample_path():
    batch = sample_batch(seed=77, t_final=0.5, n_steps=20, n_modes=2,
                         replicas=5)
    assert batch.increments.shape == (5, 20, 2)
    assert batch.scalar_paths.shape == (5, 21)
    assert (batch.n_replicas, batch.n_steps) == (5, 20)
    for r in range(5):
        single = sample_path(77, 0.5, 20, 2, replica=r)
        assert np.array_equal(batch.times, single.times)
        assert np.array_equal(batch.increments[r], single.increments)
        assert np.array_equal(batch.scalar_paths[r], single.scalar_path)
        row = batch.path(r)
        assert (row.seed, row.replica, row.level) == (77, r, 0)
        assert np.array_equal(row.increments, single.increments)
    with pytest.raises(ConfigError):
        sample_batch(77, 0.5, 20, 2, replicas=0)


def test_batch_of_one_and_batch_context():
    p = refine_path(sample_path(11, 1.0, 4, 1, replica=3))
    batch = NoiseBatch.from_path(p)
    assert batch.n_replicas == 1 and batch.dt == p.dt
    back = batch.path(0)
    assert (back.seed, back.replica, back.level) == (11, 3, 1)
    assert np.array_equal(back.increments, p.increments)

    many = sample_batch(11, 1.0, 4, 1, replicas=3)
    ctx = BatchContext(many)
    ctx.index = 2
    column = ctx.scalar(0.9)  # frozen: the time argument is not consulted
    assert column.shape == (3, 1)
    assert np.array_equal(column[:, 0], many.scalar_paths[:, 2])
