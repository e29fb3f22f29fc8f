"""Tests for seeded noise paths and bridge refinement."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monosee.errors import ConfigError, MonoseeError
from monosee.noise import (
    BatchContext,
    NoiseBatch,
    NoiseContext,
    _substream_keys,
    refine_path,
    sample_batch,
    sample_path,
    zero_path,
)


def test_shapes_grid_and_scalar_path():
    p = sample_path(seed=123, t_final=2.0, n_steps=8, n_modes=3)
    assert p.times.shape == (9,)
    assert p.increments.shape == (1, 8, 3)
    assert p.scalar_paths.shape == (1, 9)
    assert p.times[0] == 0.0 and p.times[-1] == 2.0
    assert p.scalar_paths[0, 0] == 0.0
    assert np.allclose(np.diff(p.scalar_paths[0]), p.increments[0, :, 0])


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


@pytest.mark.parametrize("t_final", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("make", [
    lambda t_final: sample_path(1, t_final, 4, 1),
    lambda t_final: sample_batch(1, t_final, 4, 1, 2),
    lambda t_final: zero_path(t_final, 4),
], ids=["sample_path", "sample_batch", "zero_path"])
def test_grid_rejects_non_positive_or_non_finite_t_final(make, t_final):
    """No grid with NaN times or increments is ever built."""
    with pytest.raises(ConfigError, match="t_final must be positive and "
                                          "finite"):
        make(t_final)


def test_single_increment_variance_statistic():
    # variance-parameter oracle over many independent substreams: a single
    # increment over [0, T] has variance T; 3-standard-error band for the
    # sample variance of R iid normals: sd(s^2) ~ T sqrt(2/(R-1))
    T = 0.7
    R = 100_000
    # row r of the batch is sample_path(2024, T, 1, 1, replica=r)
    draws = sample_batch(2024, T, 1, 1, replicas=R).increments[:, 0, 0]
    s2 = np.var(draws, ddof=1)
    se = T * np.sqrt(2.0 / (R - 1))
    assert abs(s2 - T) < 3 * se


def test_cross_mode_correlation_statistic():
    # modes are independent; empirical correlation of iid pairs is ~N(0, 1/R)
    R = 100_000
    p = sample_path(99, 1.0, R, 2)
    x, y = p.increments[0, :, 0], p.increments[0, :, 1]
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
    a, b = f.increments[0, 0::2], f.increments[0, 1::2]
    defect = (a + b) - p.increments[0]
    scale = np.maximum(np.abs(a), np.abs(b))
    assert np.all(np.abs(defect) <= 2 * eps * scale)
    assert np.mean(defect == 0.0) > 0.8  # frozen seed, deterministic fraction

    ff = refine_path(f)
    fine = ff.increments[0]
    sums4 = fine[0::4] + fine[1::4] + fine[2::4] + fine[3::4]
    assert np.allclose(sums4, p.increments[0], rtol=0, atol=1e-15)


def test_refine_deterministic_and_level_dependent():
    p = sample_path(5, 1.0, 8, 1)
    f1 = refine_path(p)
    f2 = refine_path(p)
    assert np.array_equal(f1.increments, f2.increments)
    # second refinement level uses a different substream than the first
    ff = refine_path(f1)
    assert ff.level == 2
    assert not np.array_equal(ff.increments[0, :16], f1.increments[0, :16])


def test_bridge_midpoint_conditional_variance():
    # conditional variance statistic: first - coarse/2 ~ N(0, dt/4) across
    # many iid mode copies
    R = 100_000
    p = sample_path(31, 1.0, 1, R)
    f = refine_path(p)
    centered = f.increments[0, 0] - p.increments[0, 0] / 2.0
    dt = p.dt
    s2 = np.var(centered, ddof=1)
    se = (dt / 4.0) * np.sqrt(2.0 / (R - 1))
    assert abs(s2 - dt / 4.0) < 3 * se


def test_noise_context_frozen_lookup():
    p = sample_path(11, 1.0, 4, 1)
    ctx = NoiseContext(p)
    assert ctx.scalar(0.0) == 0.0
    assert ctx.scalar(0.5) == pytest.approx(p.scalar_paths[0, 2])
    frozen = BatchContext(p)
    frozen.index = 1
    assert frozen.scalar(0.75)[0, 0] == pytest.approx(p.scalar_paths[0, 1])
    with pytest.raises(MonoseeError, match="0.33"):
        ctx.scalar(0.33)  # off-grid


def test_noise_context_array_lookup():
    p = sample_path(11, 1.0, 8, 1)
    ctx = NoiseContext(p)
    times = p.times[[3, 0, 8, 3]].reshape(2, 2)
    values = ctx.scalar(times)
    assert values.shape == (2, 2)
    assert np.array_equal(values,
                          p.scalar_paths[0, [3, 0, 8, 3]].reshape(2, 2))
    assert np.array_equal(ctx.scalar(p.times),
                          [ctx.scalar(float(t)) for t in p.times])
    with pytest.raises(MonoseeError, match="0.33"):
        ctx.scalar(np.array([0.25, 0.33, 0.5]))  # one entry off the grid
    # the stepper's frozen view answers with one broadcastable column,
    # the empty context with one float
    frozen = BatchContext(p)
    frozen.index = 2
    assert np.array_equal(frozen.scalar(times), [[p.scalar_paths[0, 2]]])
    assert NoiseContext(None).scalar(times) == 0.0


def test_sample_batch_rows_bit_identical_to_sample_path():
    batch = sample_batch(seed=77, t_final=0.5, n_steps=20, n_modes=2,
                         replicas=5)
    assert batch.increments.shape == (5, 20, 2)
    assert batch.scalar_paths.shape == (5, 21)
    assert (batch.n_replicas, batch.n_steps) == (5, 20)
    for r in range(5):
        single = sample_path(77, 0.5, 20, 2, replica=r)
        row = batch.row(r)
        assert (single.seed, single.replica0, single.level) == (77, r, 0)
        assert (row.seed, row.replica0, row.level) == (77, r, 0)
        for name in ("times", "increments", "scalar_paths"):
            assert np.array_equal(getattr(row, name), getattr(single, name))
        assert np.shares_memory(row.increments, batch.increments)
    with pytest.raises(ConfigError):
        sample_batch(77, 0.5, 20, 2, replicas=0)


def test_sample_batch_rows_are_fresh_philox_substreams():
    """Reference: each row is what a fresh SeedSequence -> Philox ->
    Generator keyed by (seed, replica, purpose 0, level 0) draws."""
    batch = sample_batch(seed=5, t_final=2.0, n_steps=16, n_modes=3,
                         replicas=6)
    dt = batch.dt
    for r in range(6):
        ss = np.random.SeedSequence(entropy=5, spawn_key=(r, 0, 0))
        gen = np.random.Generator(np.random.Philox(ss))
        assert np.array_equal(batch.increments[r],
                              gen.standard_normal((16, 3)) * np.sqrt(dt))


def test_batch_of_one_and_batch_context():
    p = refine_path(sample_path(11, 1.0, 4, 1, replica=3))
    assert p.n_replicas == 1 and p.dt == 0.125
    back = p.row(0)
    assert (back.seed, back.replica0, back.level) == (11, 3, 1)
    assert np.array_equal(back.increments, p.increments)

    many = sample_batch(11, 1.0, 4, 1, replicas=3)
    ctx = BatchContext(many)
    ctx.index = 2
    column = ctx.scalar(0.9)  # frozen: the time argument is not consulted
    assert column.shape == (3, 1)
    assert np.array_equal(column[:, 0], many.scalar_paths[:, 2])


def _fresh_philox_rows(seed, replicas, n_steps, n_modes, dt,
                       purpose=0, level=0):
    """Reference: what a fresh SeedSequence -> Philox -> Generator keyed
    by (seed, replica, purpose, level) draws, one replica at a time."""
    rows = []
    for r in replicas:
        ss = np.random.SeedSequence(entropy=seed,
                                    spawn_key=(r, purpose, level))
        gen = np.random.Generator(np.random.Philox(ss))
        rows.append(gen.standard_normal((n_steps, n_modes)) * np.sqrt(dt))
    return np.array(rows)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**200 - 1),
       replica0=st.one_of(st.integers(0, 2**40 - 1),
                          st.integers(2**32 - 6, 2**32 + 2)),
       n_rows=st.integers(1, 8),
       purpose=st.sampled_from([0, 1]),
       level=st.integers(0, 2**33 - 1))
@example(seed=0, replica0=0, n_rows=3, purpose=0, level=0)
@example(seed=2**32 + 5, replica0=2**32 - 3, n_rows=6, purpose=1,
         level=2**32)
@example(seed=2**128 - 1, replica0=2**40 - 1, n_rows=1, purpose=1, level=3)
# seeds past the 4-word pool, whose extra words mix in one at a time, on
# replicas below and across 2**32
@example(seed=2**128, replica0=0, n_rows=4, purpose=0, level=0)
@example(seed=2**128, replica0=2**32 - 2, n_rows=4, purpose=0, level=0)
@example(seed=3**90, replica0=0, n_rows=4, purpose=0, level=0)
@example(seed=3**90, replica0=2**32 - 2, n_rows=4, purpose=0, level=0)
@example(seed=2**200 - 1, replica0=0, n_rows=4, purpose=0, level=0)
@example(seed=2**200 - 1, replica0=2**32 - 2, n_rows=4, purpose=0, level=0)
def test_substream_keys_equal_seed_sequence(seed, replica0, n_rows, purpose,
                                            level):
    # if a NumPy release changes SeedSequence's mix, this fails loudly
    keys = _substream_keys(seed, replica0, n_rows, purpose, level)
    assert keys.dtype == np.uint64 and keys.shape == (n_rows, 2)
    for key, r in zip(keys, range(replica0, replica0 + n_rows)):
        ss = np.random.SeedSequence(entropy=seed,
                                    spawn_key=(r, purpose, level))
        assert np.array_equal(key, ss.generate_state(2, np.uint64))


@pytest.mark.parametrize("seed", [0, 31, 2**32 + 5, 2**70 + 3])
def test_sample_batch_4000_rows_bit_identical_to_fresh_philox(seed):
    batch = sample_batch(seed, t_final=1.0, n_steps=2, n_modes=1,
                         replicas=4000)
    assert np.array_equal(
        batch.increments,
        _fresh_philox_rows(seed, range(4000), 2, 1, batch.dt))


def test_two_word_replica_is_a_fresh_philox_substream():
    p = sample_path(5, 1.0, 16, 3, replica=2**32 + 7)
    assert p.replica0 == 2**32 + 7
    assert np.array_equal(
        p.increments,
        _fresh_philox_rows(5, [2**32 + 7], 16, 3, p.dt))


def test_bridge_draws_its_fresh_philox_substream():
    # refine_path's bridge normals z are the (seed, replica, 1, level + 1)
    # substream; its first half-steps are target - (target - first)
    coarse = refine_path(sample_path(2**70 + 3, 1.0, 4, 2, replica=6))
    fine = refine_path(coarse)
    z = _fresh_philox_rows(2**70 + 3, [6], 8, 2, 1.0, purpose=1, level=2)[0]
    target = coarse.increments[0]
    first = target / 2.0 + 0.5 * np.sqrt(coarse.dt) * z
    assert np.array_equal(fine.increments[0, 0::2], target - (target - first))


@pytest.mark.parametrize("n_steps, n_modes", [(3, 1), (5, 2)])
def test_rekeyed_rows_equal_fresh_philox_after_a_partly_used_buffer(
        n_steps, n_modes):
    # an odd number of normals per row leaves Philox's 4-word buffer partly
    # used; every row must still draw what a fresh Philox(key=k) draws
    seed, replicas = 2**70 + 3, 5
    batch = sample_batch(seed, 1.0, n_steps, n_modes, replicas)
    fine = refine_path(batch)

    def fresh(r, purpose, level):
        [key] = _substream_keys(seed, r, 1, purpose, level)
        return np.random.Generator(np.random.Philox(key=key)) \
            .standard_normal((n_steps, n_modes))

    for r in range(replicas):
        target = batch.increments[r]
        assert np.array_equal(target, fresh(r, 0, 0) * np.sqrt(batch.dt))
        first = target / 2.0 + fresh(r, 1, 1) * (0.5 * np.sqrt(batch.dt))
        assert np.array_equal(fine.increments[r, 0::2],
                              target - (target - first))


@pytest.mark.parametrize("call", [
    lambda: sample_path(3.5, 1.0, 4, 1),
    lambda: sample_path(-1, 1.0, 4, 1),
    lambda: sample_path(1, 1.0, 4, 1, replica=-1),
    lambda: sample_path(1, 1.0, 4, 1, replica=2.0),
    lambda: sample_path(1, 1.0, 4, 1, replica=2**64),
    lambda: sample_batch(-4, 1.0, 4, 1, replicas=3),
    lambda: sample_batch(2.5, 1.0, 4, 1, replicas=3),
    lambda: sample_batch(1, 1.0, 4, 1, replicas=2.5),
    lambda: sample_batch(1, 1.0, 4, 1, replicas=-1),
    lambda: refine_path(NoiseBatch(-3, 0, 0, np.linspace(0.0, 1.0, 3),
                                   np.zeros((1, 2, 1)), np.zeros((1, 3, 1)))),
    lambda: refine_path(NoiseBatch(3, -1, 0, np.linspace(0.0, 1.0, 3),
                                   np.zeros((1, 2, 1)), np.zeros((1, 3, 1)))),
])
def test_keys_need_non_negative_integer_seed_and_replica(call):
    with pytest.raises(ConfigError, match="non-negative integer|2\\*\\*64"):
        call()


def test_refine_batch_rows_equal_rows_refined_alone():
    # every row is bridged from its own (seed, replica, level + 1) key
    coarse = refine_path(sample_batch(2**70 + 3, 1.0, 4, 2, replicas=3))
    fine = refine_path(coarse)
    for r in range(3):
        alone = refine_path(coarse.row(r))
        row = fine.row(r)
        assert (row.seed, row.replica0, row.level) == \
            (alone.seed, alone.replica0, alone.level) == (2**70 + 3, r, 2)
        for name in ("times", "increments", "scalar_paths"):
            assert np.array_equal(getattr(row, name), getattr(alone, name))


def test_noise_context_reads_one_row():
    with pytest.raises(ConfigError, match="batch of 3 rows"):
        NoiseContext(sample_batch(11, 1.0, 4, 1, replicas=3))
