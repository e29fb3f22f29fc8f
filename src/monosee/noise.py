"""Seeded cylindrical Wiener increments and Brownian-bridge refinement.

Streams are derived from a counter-based generator (Philox) keyed by
(seed, replica, purpose, level), so replica ensembles and refinement levels
are reproducible regardless of execution order.  A NoiseBatch stacks the
replica substreams of one seed; it is how a replica ensemble reaches the
batched forward solver and the backward regression solvers.  The first
mode doubles as the scalar driving Brownian motion w_t used by random
coefficients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_PURPOSE_BASE = 0
_PURPOSE_BRIDGE = 1

MAGIC = b"MSNOISE1"


def _generator(seed: int, replica: int, purpose: int, level: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(replica), int(purpose), int(level)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class NoisePath:
    """Increments of a truncated cylindrical Wiener process on a uniform grid."""

    seed: int
    replica: int
    level: int
    times: np.ndarray          # length N+1, t_0 = 0
    increments: np.ndarray     # N x n_modes
    scalar_path: np.ndarray    # length N+1, cumulative mode-1 path, w(0) = 0

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_modes(self) -> int:
        return self.increments.shape[1]

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def scalar_at(self, t: float) -> float:
        """w_t at a grid time (nearest-index lookup with tolerance)."""
        idx = int(round(t / self.dt))
        idx = min(max(idx, 0), self.n_steps)
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)) + 1e-12:
            raise ValueError(f"time {t} is not on the noise grid")
        return float(self.scalar_path[idx])


def _scalar_from_increments(increments: np.ndarray) -> np.ndarray:
    """Cumulative mode-1 paths, w(0) = 0, along the step axis."""
    lead = increments.shape[:-2]
    return np.concatenate([np.zeros(lead + (1,)),
                           np.cumsum(increments[..., 0], axis=-1)], axis=-1)


@dataclass
class NoiseBatch:
    """Replicas ``replica0 .. replica0 + R - 1`` of one seed, stacked.

    Row r of ``increments`` (R x N x n_modes) and ``scalar_paths``
    (R x (N+1)) holds what ``path(r)`` holds as a NoisePath; all rows
    share the grid ``times``.  The forward solver steps every row at once;
    the backward solvers regress across the rows.
    """

    seed: int
    replica0: int
    level: int
    times: np.ndarray          # length N+1, t_0 = 0
    increments: np.ndarray     # R x N x n_modes
    scalar_paths: np.ndarray   # R x (N+1)

    @classmethod
    def from_path(cls, path: NoisePath) -> "NoiseBatch":
        """The batch of one holding ``path``."""
        return cls(path.seed, path.replica, path.level, path.times,
                   path.increments[None], path.scalar_path[None])

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

    def path(self, r: int) -> NoisePath:
        """Row r as a NoisePath (views, not copies)."""
        return NoisePath(self.seed, self.replica0 + r, self.level, self.times,
                         self.increments[r], self.scalar_paths[r])


def _grid(t_final: float, n_steps: int, n_modes: int) -> np.ndarray:
    if t_final <= 0:
        raise ConfigError("t_final must be positive")
    if n_steps < 1 or n_modes < 1:
        raise ConfigError("n_steps and n_modes must be at least 1")
    return np.linspace(0.0, float(t_final), int(n_steps) + 1)


def _base_increments(seed: int, replica: int, times: np.ndarray,
                     n_modes: int) -> np.ndarray:
    gen = _generator(seed, replica, _PURPOSE_BASE, 0)
    return (gen.standard_normal((len(times) - 1, int(n_modes)))
            * np.sqrt(times[1] - times[0]))


def sample_path(seed: int, t_final: float, n_steps: int, n_modes: int,
                replica: int = 0) -> NoisePath:
    """Sample a fresh path on the uniform grid {0, dt, ..., T}.

    Deterministic in (seed, replica); distinct replicas use disjoint
    substreams of the same seed.
    """
    times = _grid(t_final, n_steps, n_modes)
    increments = _base_increments(seed, replica, times, n_modes)
    return NoisePath(int(seed), int(replica), 0, times, increments,
                     _scalar_from_increments(increments))


def sample_batch(seed: int, t_final: float, n_steps: int, n_modes: int,
                 replicas: int) -> NoiseBatch:
    """Replicas 0 .. replicas-1 of ``seed`` on one grid, as a NoiseBatch.

    Row r is bit-identical to ``sample_path(..., replica=r)``: the rows
    are the same (seed, replica) substreams, stacked.
    """
    if replicas < 1:
        raise ConfigError("replicas must be at least 1")
    times = _grid(t_final, n_steps, n_modes)
    increments = np.stack([_base_increments(seed, r, times, n_modes)
                           for r in range(int(replicas))])
    return NoiseBatch(int(seed), 0, 0, times, increments,
                      _scalar_from_increments(increments))


def zero_path(t_final: float, n_steps: int, n_modes: int = 1) -> NoisePath:
    """All-zero increments on a uniform grid: the deterministic driver."""
    if n_steps < 1 or n_modes < 1 or t_final <= 0:
        raise ValueError("need t_final > 0, n_steps >= 1, n_modes >= 1")
    times = np.linspace(0.0, float(t_final), n_steps + 1)
    return NoisePath(seed=0, replica=0, level=0, times=times,
                     increments=np.zeros((n_steps, n_modes)),
                     scalar_path=np.zeros(n_steps + 1))


def refine_path(path: NoisePath) -> NoisePath:
    """Halve the grid step, filling midpoints by a Brownian bridge.

    Conditioned on a coarse increment D over dt, the first half-step is
    N(D/2, dt/4); the second half is D minus the first, so pairwise sums
    reproduce the coarse increments: bit-exactly whenever the halves do not
    catastrophically cancel, and to within one ulp of the half-increment
    scale when they do.
    """
    n, m = path.increments.shape
    dt = path.dt
    gen = _generator(path.seed, path.replica, _PURPOSE_BRIDGE, path.level + 1)
    z = gen.standard_normal((n, m))
    target = path.increments
    first = target / 2.0 + 0.5 * np.sqrt(dt) * z
    # Align the pair so first + second reproduces the coarse increment to the
    # last bit wherever float64 permits; the reprojection sweep clears most
    # one-ulp defects without touching the bridge law.  When both halves dwarf
    # the coarse increment, their sum lives on the halves' coarser ulp lattice
    # and exact equality is unattainable, so those entries keep a defect of at
    # most one ulp of the half-increment scale instead of a distorted law.
    second = target - first
    first = target - second
    second = target - first
    fine = np.empty((2 * n, m))
    fine[0::2] = first
    fine[1::2] = second
    times = np.linspace(0.0, path.t_final, 2 * n + 1)
    return NoisePath(path.seed, path.replica, path.level + 1, times, fine,
                     _scalar_from_increments(fine))


def save_increments(path: NoisePath, filename: str) -> None:
    """Binary dump: 8-byte magic, then little-endian uint64 N, n_modes, seed,
    then N*n_modes little-endian float64 increments, row-major."""
    with open(filename, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQQ", path.n_steps, path.n_modes, path.seed & (2**64 - 1)))
        fh.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def load_increments(filename: str):
    """Read a dump back; returns (seed, increments)."""
    with open(filename, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ConfigError(f"not a noise dump (magic {magic!r})")
        n, m, seed = struct.unpack("<QQQ", fh.read(24))
        data = np.frombuffer(fh.read(n * m * 8), dtype="<f8").reshape(n, m)
    return int(seed), np.array(data, dtype=float)


class NoiseContext:
    """Lookup view handed to random coefficients: w_t and frozen-time views.

    An implicit step evaluates the drift at the right endpoint but must keep
    random coefficients adapted, so the stepper hands the drift a view frozen
    at the left endpoint: scalar(t) then returns w at the frozen time.
    """

    def __init__(self, path: NoisePath | None, frozen_time: float | None = None):
        self.path = path
        self.frozen_time = frozen_time

    def scalar(self, t: float) -> float:
        if self.path is None:
            return 0.0
        when = self.frozen_time if self.frozen_time is not None else t
        return self.path.scalar_at(when)

    def frozen(self, t0: float) -> "NoiseContext":
        return NoiseContext(self.path, frozen_time=float(t0))


class BatchContext:
    """The stepper's frozen view of a NoiseBatch.

    ``scalar(t)`` returns w at grid index ``index`` for every replica as
    an (R, 1) column, read by index with no time search, so random
    coefficients broadcast over an (R, n) stack of states.  The stepper
    sets ``index`` to the left endpoint of each step, which keeps the
    coefficients adapted.  ``path`` is the NoisePath of a single-path
    solve (None for a batch), for coefficients that integrate along it.
    """

    def __init__(self, batch: NoiseBatch, path: NoisePath | None = None):
        self.batch = batch
        self.path = path
        self.index = 0

    def scalar(self, t: float) -> np.ndarray:
        return self.batch.scalar_paths[:, self.index, None]


EMPTY_CONTEXT = NoiseContext(None)
