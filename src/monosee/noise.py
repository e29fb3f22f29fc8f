"""Seeded cylindrical Wiener increments and Brownian-bridge refinement.

Streams are derived from a counter-based generator (Philox) keyed by
(seed, replica, purpose, level), so replica ensembles and refinement levels
are reproducible regardless of execution order.  The Philox key of a
substream is the key ``np.random.SeedSequence(entropy=seed,
spawn_key=(replica, purpose, level))`` gives a fresh Philox; the keys of a
whole replica range are computed at once, by the same 32-bit hash run
over arrays.  A NoiseBatch stacks the replica substreams of one seed, and
a single path is the batch of one row; it is how noise reaches the
forward, backward and memory solvers.  The first mode doubles as the scalar
driving Brownian motion w_t used by random coefficients.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MonoseeError
from .triple import _float_or_array

_PURPOSE_BASE = 0
_PURPOSE_BRIDGE = 1

# NumPy's SeedSequence: O'Neill's seed_seq_fe hash with a 4-word pool
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _natural(value, name: str) -> int:
    """``value`` as a non-negative Python int, else ConfigError."""
    try:
        n = operator.index(value)
    except TypeError:
        n = -1
    if n < 0:
        raise ConfigError(f"{name} must be a non-negative integer, "
                          f"got {value!r}")
    return n


def _words(n: int) -> list:
    """SeedSequence's coercion of an int: 32-bit words, least significant
    first, one word for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _chain(const: int, mult: int, n_calls: int) -> np.ndarray:
    """The hash constants of n_calls consecutive hash steps: step k salts
    with entry k and multiplies by entry k + 1.  They advance by the same
    multiplier whatever the data."""
    chain = [const]
    for _ in range(n_calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)


def _hash(value, salt, mult):
    """seed_seq_fe's hashmix step (and generate_state's), on Python ints or
    on uint32 arrays."""
    value = (value ^ salt) * mult & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    """seed_seq_fe's mix of two words, on Python ints or uint32 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


# generate_state's four steps, one per pool word
_READOUT = _chain(_INIT_B, _MULT_B, _POOL_SIZE)[:, None]


def _substream_keys(seed, replica0, n_rows: int, purpose: int,
                    level: int) -> np.ndarray:
    """(n_rows, 2) uint64 Philox keys of replicas ``replica0`` onward.

    Row i equals ``np.random.SeedSequence(entropy=seed, spawn_key=
    (replica0 + i, purpose, level)).generate_state(2, np.uint64)``.  The
    seed's words fill the pool (zero-padded to its size, since a spawn key
    follows) and are mixed once, as Python ints.  Each spawn word then
    mixes into every pool word independently, so the pool becomes a
    (4, rows) uint32 array and each word costs a few array operations.  A
    replica of two words takes one more spawn word than a replica of one,
    so the range is split at 2**32 and each part hashed alike.
    """
    seed = _natural(seed, "seed")
    replica0 = _natural(replica0, "replica")
    stop = replica0 + n_rows
    if stop > 2**64:
        raise ConfigError(f"replica {stop - 1} exceeds 2**64 - 1")
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    constant_words = _words(purpose) + _words(level)
    n_seed_calls = _POOL_SIZE**2 + _POOL_SIZE * (len(entropy) - _POOL_SIZE)
    # a replica below 2**64 is at most two words
    chain = _chain(_INIT_A, _MULT_A, n_seed_calls
                   + _POOL_SIZE * (2 + len(constant_words)))
    calls = iter(zip(chain.tolist(), chain[1:].tolist()))
    pool = [_hash(word, *next(calls)) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(calls)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, *next(calls)))
    seed_pool = np.array(pool, dtype=np.uint32)[:, None]

    keys = np.empty((n_rows, 2), dtype=np.uint64)
    bounds = sorted({replica0, min(max(replica0, 2**32), stop), stop})
    for lo, hi in zip(bounds, bounds[1:]):
        replicas = np.arange(hi - lo, dtype=np.uint64) + np.uint64(lo)
        words = [(replicas & np.uint64(_MASK32)).astype(np.uint32)]
        if lo >= 2**32:
            words.append((replicas >> np.uint64(32)).astype(np.uint32))
        pool, k = seed_pool, n_seed_calls
        for word in words + constant_words:
            steps = chain[k:k + _POOL_SIZE + 1, None]
            pool = _mix(pool, _hash(word, steps[:-1], steps[1:]))
            k += _POOL_SIZE
        # four uint32 words per row, read little-endian as two uint64
        state = _hash(pool, _READOUT[:-1], _READOUT[1:])
        keys[lo - replica0:hi - replica0] = np.ascontiguousarray(
            state.T, dtype="<u4").view("<u8")
    return keys


def _cumulative(increments: np.ndarray) -> np.ndarray:
    """The cumulative paths W(t_k) of (R, N, modes) increments, W(0) = 0:
    (R, N+1, modes)."""
    rows, n, m = increments.shape
    paths = np.empty((rows, n + 1, m))
    paths[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=paths[:, 1:])
    return paths


@dataclass
class NoiseBatch:
    """Replicas ``replica0 .. replica0 + R - 1`` of one seed, stacked.

    Row r of ``increments`` (R x N x n_modes) and ``paths`` (R x (N+1) x
    n_modes, the cumulative paths W(t_k), W(0) = 0) is replica
    ``replica0 + r``; all rows share the grid ``times``.  A single path
    is the batch of one row.  ``paths`` is the one copy of W(t_k): the
    scalar driving motion w_t is its first mode, and the backward solvers
    read their regression states off it.  The forward solver steps every
    row at once; the backward solvers regress across the rows.
    """

    seed: int
    replica0: int
    level: int
    times: np.ndarray          # length N+1, t_0 = 0
    increments: np.ndarray     # R x N x n_modes
    paths: np.ndarray          # R x (N+1) x n_modes

    @property
    def n_replicas(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def n_modes(self) -> int:
        return self.increments.shape[2]

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def scalar_paths(self) -> np.ndarray:
        """The cumulative mode-1 paths, w(0) = 0: an (R, N+1) view."""
        return self.paths[..., 0]

    def row(self, r: int) -> "NoiseBatch":
        """Row r as a batch of one row (views, not copies)."""
        return NoiseBatch(self.seed, self.replica0 + r, self.level,
                          self.times, self.increments[r:r + 1],
                          self.paths[r:r + 1])

    def scalar_at(self, t):
        """w_t of a one-row batch at grid times (nearest index, with
        tolerance), shaped like t; a time off the grid raises
        MonoseeError naming it."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.rint(t / self.dt).astype(int), 0, self.n_steps)
        off = np.abs(self.times[idx] - t) > 1e-9 * np.maximum(1.0, np.abs(t)) + 1e-12
        if off.any():
            raise MonoseeError(f"time {t[off][0]} is not on the noise grid")
        return _float_or_array(self.paths[0, idx, 0])


def _one_row(noise: NoiseBatch, who: str) -> None:
    """ConfigError unless ``noise`` is a single path: a batch of one row."""
    if noise.n_replicas != 1:
        raise ConfigError(f"{who} reads a single noise path, got a batch of "
                          f"{noise.n_replicas} rows")


def _grid(t_final: float, n_steps: int, n_modes: int) -> np.ndarray:
    if not 0 < t_final < np.inf:
        raise ConfigError(f"t_final must be positive and finite, got "
                          f"{t_final!r}")
    if n_steps < 1 or n_modes < 1:
        raise ConfigError("n_steps and n_modes must be at least 1")
    return np.linspace(0.0, float(t_final), int(n_steps) + 1)


def _keyed_normals(keys: np.ndarray, shape: tuple, scale) -> np.ndarray:
    """``scale`` times the standard normals of ``shape`` that a fresh
    ``Philox(key=key)`` draws, per key: (len(keys),) + shape.

    One Philox generator serves all keys: before each row it is re-keyed,
    at counter 0 with an empty buffer, so every row draws exactly its
    fresh stream.  The state is a dict of plain ints and lists, which the
    setter reads without the NumPy round trip of the ``state`` getter's
    arrays.
    """
    bit_generator = np.random.Philox(key=0)
    gen = np.random.Generator(bit_generator)
    fresh = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": fresh, "buffer": [0] * 4,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(keys),) + shape)
    for row, key in zip(out, keys.tolist()):
        fresh["key"] = key
        bit_generator.state = state
        gen.standard_normal(out=row)
    out *= scale
    return out


def _sample(seed, replica0: int, n_rows: int, t_final: float, n_steps: int,
            n_modes: int) -> NoiseBatch:
    """Replicas ``replica0 .. replica0 + n_rows - 1`` of ``seed``, each
    its (seed, replica) substream, keyed for the whole range at once."""
    times = _grid(t_final, n_steps, n_modes)
    seed, replica0 = _natural(seed, "seed"), _natural(replica0, "replica")
    keys = _substream_keys(seed, replica0, n_rows, _PURPOSE_BASE, 0)
    increments = _keyed_normals(keys, (len(times) - 1, int(n_modes)),
                                np.sqrt(times[1] - times[0]))
    return NoiseBatch(seed, replica0, 0, times, increments,
                      _cumulative(increments))


def sample_path(seed: int, t_final: float, n_steps: int, n_modes: int,
                replica: int = 0) -> NoiseBatch:
    """Sample a fresh one-row batch on the uniform grid {0, dt, ..., T}.

    Deterministic in (seed, replica); distinct replicas use disjoint
    substreams of the same seed.  Both must be non-negative integers.
    """
    return _sample(seed, replica, 1, t_final, n_steps, n_modes)


def sample_batch(seed: int, t_final: float, n_steps: int, n_modes: int,
                 replicas: int) -> NoiseBatch:
    """Replicas 0 .. replicas-1 of ``seed`` on one grid, as a NoiseBatch.

    Row r is bit-identical to ``sample_path(..., replica=r)``: the rows
    are the same (seed, replica) substreams, stacked.
    """
    replicas = _natural(replicas, "replicas")
    if replicas < 1:
        raise ConfigError("replicas must be at least 1")
    return _sample(seed, 0, replicas, t_final, n_steps, n_modes)


def zero_path(t_final: float, n_steps: int, n_modes: int = 1) -> NoiseBatch:
    """One all-zero row on a uniform grid: the deterministic driver."""
    times = _grid(t_final, n_steps, n_modes)
    return NoiseBatch(seed=0, replica0=0, level=0, times=times,
                      increments=np.zeros((1, n_steps, n_modes)),
                      paths=np.zeros((1, n_steps + 1, n_modes)))


def refine_path(noise: NoiseBatch) -> NoiseBatch:
    """Halve the grid step of every row, filling midpoints by a Brownian
    bridge drawn from the row's own (seed, replica, level + 1) substream.

    Conditioned on a coarse increment D over dt, the first half-step is
    N(D/2, dt/4); the second half is D minus the first, so pairwise sums
    reproduce the coarse increments: bit-exactly whenever the halves do not
    catastrophically cancel, and to within one ulp of the half-increment
    scale when they do.
    """
    rows, n, m = noise.increments.shape
    keys = _substream_keys(noise.seed, noise.replica0, rows, _PURPOSE_BRIDGE,
                           noise.level + 1)
    target = noise.increments
    first = target / 2.0 + _keyed_normals(keys, (n, m),
                                          0.5 * np.sqrt(noise.dt))
    # Align the pair so first + second reproduces the coarse increment to the
    # last bit wherever float64 permits; the reprojection sweep clears most
    # one-ulp defects without touching the bridge law.  When both halves dwarf
    # the coarse increment, their sum lives on the halves' coarser ulp lattice
    # and exact equality is unattainable, so those entries keep a defect of at
    # most one ulp of the half-increment scale instead of a distorted law.
    second = target - first
    first = target - second
    second = target - first
    fine = np.empty((rows, 2 * n, m))
    fine[:, 0::2] = first
    fine[:, 1::2] = second
    times = np.linspace(0.0, noise.t_final, 2 * n + 1)
    return NoiseBatch(noise.seed, noise.replica0, noise.level + 1, times,
                      fine, _cumulative(fine))


class NoiseContext:
    """Lookup view handed to random coefficients: w at grid times of one
    path, a batch of one row (0 everywhere without a path)."""

    def __init__(self, path: NoiseBatch | None):
        if path is not None:
            _one_row(path, "NoiseContext")
        self.path = path

    def scalar(self, t):
        """w at t or at an array of grid times (empty: one float)."""
        if self.path is None:
            return 0.0
        return self.path.scalar_at(t)


class BatchContext:
    """The stepper's frozen view of a NoiseBatch.

    An implicit step evaluates the drift at the right endpoint but must
    keep random coefficients adapted, so ``scalar(t)`` returns w at the
    step's left grid index ``index`` (set by the stepper), for every
    replica as an (R, 1) column that broadcasts over an (R, n) stack.
    A profile may keep its value for the step in ``memo``, keyed by itself,
    as ``abs_scalar_profile`` does; setting ``index`` empties the memo.
    """

    def __init__(self, batch: NoiseBatch):
        self.batch = batch
        self.index = 0

    @property
    def index(self) -> int:
        return self._index

    @index.setter
    def index(self, k: int) -> None:
        self._index, self.memo = k, {}

    def scalar(self, t: float) -> np.ndarray:
        return self.batch.paths[:, self.index, :1]


EMPTY_CONTEXT = NoiseContext(None)
