"""Violation reports, the one engine every sampled checker runs on, and
the one CSV renderer every artifact table goes through."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class Violation:
    """One sampled point where an inequality failed beyond tolerance."""

    index: int
    t: float
    excess: float
    detail: dict = field(default_factory=dict)


@dataclass
class ViolationReport:
    """Outcome of a sampled inequality check.

    ``excess`` in each violation is the amount by which the left-hand side
    exceeded the right-hand side; the check passed iff ``violations`` is empty.
    """

    name: str
    n_samples: int
    tol: float
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def n_violations(self) -> int:
        return len(self.violations)

    @property
    def max_excess(self) -> float:
        if not self.violations:
            return 0.0
        return max(v.excess for v in self.violations)

    def summary(self) -> str:
        state = "ok" if self.ok else f"{self.n_violations} violations (max excess {self.max_excess:.3e})"
        return f"{self.name}: {self.n_samples} samples, {state}"


def _entry(value, row: int):
    """A detail value at one row: a string or scalar is shared by every
    row, an array's leading axis runs over the rows (rows may be arrays)."""
    if not isinstance(value, str) and np.ndim(value):
        value = np.asarray(value)[row]
    if isinstance(value, str):
        return str(value)
    return value if np.ndim(value) else float(value)


def _record(report: ViolationReport, t, groups, index=None) -> ViolationReport:
    """Append the flagged rows of (excess, flagged, detail) groups, row by
    row and within a row in group order, as a per-sample loop would; row
    k is reported at time t[k] with index ``index[k]`` (k by default)."""
    t = np.asarray(t, dtype=float)
    for k, g in sorted((k, g) for g, group in enumerate(groups)
                       for k in np.flatnonzero(np.broadcast_to(group[1],
                                                               t.shape))):
        excess, _, detail = groups[g]
        report.violations.append(Violation(
            index=int(k if index is None else index[k]), t=float(t[k]),
            excess=float(np.broadcast_to(excess, t.shape)[k]),
            detail={key: _entry(value, k) for key, value in detail.items()}))
    return report


def _sample_sum(v: np.ndarray) -> np.ndarray:
    """The sum of each sample of a stack (axis 0) over its other axes."""
    return np.sum(v, axis=tuple(range(1, v.ndim)))


def _require_amp_range(amp_range, who: str) -> None:
    """Require 0 < lo <= hi < inf of a sampler's amplitude range; the
    sampler takes its own logarithms."""
    lo, hi = amp_range
    if not 0 < lo <= hi < np.inf:
        raise ConfigError(f"{who} needs an amp_range with 0 < lo <= hi < inf, "
                          f"got {amp_range!r}")


def _require_t_final(t_final, who: str) -> None:
    """Require a finite t_final >= 0 of a sampler that draws its times on
    [0, t_final]."""
    if not 0.0 <= t_final < np.inf:
        raise ConfigError(f"{who} needs a finite t_final >= 0, got {t_final!r}")


def _columns(samples) -> list:
    """Drawn sample tuples as one column per entry: a float stack that no
    reader can write into, or a list of objects (segments)."""
    columns = []
    for c in zip(*samples):
        if np.asarray(c[0]).dtype == object:
            columns.append(list(c))
        else:
            columns.append(np.array(c, dtype=float))
            columns[-1].flags.writeable = False
    return columns


class SampleStream:
    """A per-sample draw ``sample(rng)`` whose stream is drawn once per seed.

    Called with a generator, it is the per-sample draw.  ``prefix(seed,
    n)`` gives the first n samples of ``default_rng(seed)``'s stream,
    drawing only those no earlier call drew, so every check that reads
    the same stream of the same object shares its draws.  The memo lives
    as long as the object: a new sampler redraws.
    """

    def __init__(self, sample):
        self.sample = sample
        self._drawn = {}  # seed -> (generator past the drawn samples, samples)

    def __call__(self, rng):
        return self.sample(rng)

    def prefix(self, seed, n: int):
        """(the first n samples, the generator past the last sample drawn
        for ``seed``)."""
        if seed not in self._drawn:
            self._drawn[seed] = (np.random.default_rng(seed), [])
        rng, samples = self._drawn[seed]
        samples.extend(self.sample(rng) for _ in range(n - len(samples)))
        return samples[:max(n, 0)], rng


class GroupedStream(SampleStream):
    """k consecutive samples of ``draw`` as one sample: the first whole,
    the others without their leading time.  Its draws are read off those
    of ``draw`` when that is a SampleStream, else off a fresh one."""

    def __init__(self, draw, k: int):
        base = draw if isinstance(draw, SampleStream) else SampleStream(draw)
        super().__init__(lambda rng: self._join([base(rng) for _ in range(k)]))
        self.base, self.k = base, k

    @staticmethod
    def _join(group):
        first, *others = map(tuple, group)
        return first + tuple(x for other in others for x in other[1:])

    def prefix(self, seed, n: int):
        samples, rng = self.base.prefix(seed, self.k * n)
        return [self._join(samples[i:i + self.k])
                for i in range(0, len(samples), self.k)], rng


def _sampled_check(name: str, n_samples: int, tol: float, seed: int, draw,
                   evaluate, tail=None) -> ViolationReport:
    """One sampled inequality check, evaluated on the stack of all samples.

    Every sample is drawn first, as the tuple ``draw(rng)`` led by the time
    its violations are reported at, from the stream of a generator seeded
    with ``seed``.  A :class:`SampleStream` ``draw`` with an integer seed
    reads that stream's shared prefix; a plain per-sample callable, any
    other seed, and every check with a ``tail`` draw a fresh, unshared
    stream.  ``evaluate`` gets one column per entry (a read-only float
    stack, or a list of segments) and returns :func:`_record`'s groups,
    one per inequality.  ``tail(rng, report)`` is a later stage of its
    own, handed the generator where a per-sample loop over the samples
    leaves it.
    """
    shared = isinstance(draw, SampleStream) and tail is None \
        and isinstance(seed, (int, np.integer))
    stream = draw if shared else SampleStream(draw)
    samples, rng = stream.prefix(seed, n_samples)
    report = ViolationReport(name=name, n_samples=n_samples, tol=tol)
    if samples:
        columns = _columns(samples)
        _record(report, columns[0], evaluate(*columns))
    if tail is not None:
        tail(rng, report)
    return report


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _csv_cell(value) -> str:
    if isinstance(value, float):  # np.float64 too; never quoted
        return f"{value:.17g}"
    text = _fmt(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header, rows) -> str:
    """RFC-4180 table: comma separated, CRLF line ends, 17 significant
    digits for floats (a rerun with the same seed reproduces the bytes),
    quoted only when a cell needs it."""
    return "".join(",".join(map(_csv_cell, line)) + "\r\n"
                   for line in [header, *rows])
