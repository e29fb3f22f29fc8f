"""How far the numbers of two ``run_digests.py`` output trees lie apart.

    python3 tools/compare_runs.py A_OUT B_OUT

A_OUT and B_OUT are two OUT_DIR trees written by ``tools/run_digests.py``
(``EXPERIMENT/RUN/`` directories holding CSV files and ``manifest.json``).
Every CSV cell and every manifest field ``summary``, ``assertions``,
``solver_stats`` and ``error`` of one tree is compared with the other's;
SVG plots are left out.  Each artifact that differs is printed as

    galerkin_convergence/default galerkin_nesting.csv max_abs 1.2e-17 max_rel 9.3e-12

with its largest absolute and relative float difference (relative to the
larger magnitude of the two values).  Any other difference is printed
with its place and makes the exit status 1: an int, bool or string that
changed, a value whose type changed, a list or table of another shape,
a key or file present on one side only.  A CSV cell counts as a float
when it parses as one and is not an integer literal on both sides, so an
integral float that changes ("2" to "3") is reported as an int change.
The exit status is 0 when the trees differ in floats only, or not at all.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

MANIFEST_FIELDS = ("summary", "assertions", "solver_stats", "error")


class _Diff:
    """The float differences and the other differences of one artifact."""

    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.floats = 0
        self.problems = []

    def number(self, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.floats += 1
        gap = abs(a - b)
        scale = max(abs(a), abs(b))
        self.max_abs = max(self.max_abs, gap)
        self.max_rel = max(self.max_rel, gap / scale if scale > 0 else 0.0)


def _int_literal(text: str) -> bool:
    return text.lstrip("+-").isdigit()


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _compare_cell(a: str, b: str, where: str, diff: _Diff) -> None:
    fa, fb = _float(a), _float(b)
    if fa is not None and fb is not None \
            and not (_int_literal(a) and _int_literal(b)):
        diff.number(fa, fb)
    elif a != b:
        diff.problems.append(f"{where}: {a!r} != {b!r}")


def _compare_csv(a: Path, b: Path, diff: _Diff) -> None:
    rows_a = list(csv.reader(io.StringIO(a.read_text("utf-8"), newline="")))
    rows_b = list(csv.reader(io.StringIO(b.read_text("utf-8"), newline="")))
    if len(rows_a) != len(rows_b):
        diff.problems.append(f"{len(rows_a)} rows != {len(rows_b)} rows")
        return
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            diff.problems.append(f"row {i}: {len(ra)} cells != {len(rb)}")
            continue
        for j, (ca, cb) in enumerate(zip(ra, rb)):
            _compare_cell(ca, cb, f"row {i} cell {j}", diff)


def _compare_json(a, b, where: str, diff: _Diff) -> None:
    if type(a) is not type(b):
        diff.problems.append(f"{where}: {type(a).__name__} "
                             f"{a!r} != {type(b).__name__} {b!r}")
    elif isinstance(a, float):
        diff.number(a, b)
    elif isinstance(a, list):
        if len(a) != len(b):
            diff.problems.append(f"{where}: length {len(a)} != {len(b)}")
            return
        for i, (xa, xb) in enumerate(zip(a, b)):
            _compare_json(xa, xb, f"{where}[{i}]", diff)
    elif isinstance(a, dict):
        for key in sorted(a.keys() ^ b.keys()):
            diff.problems.append(f"{where}.{key}: on one side only")
        for key in sorted(a.keys() & b.keys()):
            _compare_json(a[key], b[key], f"{where}.{key}", diff)
    elif a != b:
        diff.problems.append(f"{where}: {a!r} != {b!r}")


def _artifacts(root: Path) -> set:
    """Relative paths of every CSV file and manifest under ``root``."""
    return {p.relative_to(root).as_posix() for pattern in
            ("*/*/*.csv", "*/*/manifest.json") for p in root.glob(pattern)}


def compare_trees(a_root: Path, b_root: Path) -> list:
    """[(label, _Diff)] for every artifact that differs, in sorted order;
    a missing file is one problem of its artifact."""
    a_arts, b_arts = _artifacts(a_root), _artifacts(b_root)
    found = []
    for rel in sorted(a_arts | b_arts):
        run, name = rel.rsplit("/", 1)
        if rel not in a_arts or rel not in b_arts:
            diff = _Diff()
            diff.problems.append(f"only in {'B' if rel in b_arts else 'A'}")
            found.append((f"{run} {name}", diff))
        elif name.endswith(".csv"):
            diff = _Diff()
            _compare_csv(a_root / rel, b_root / rel, diff)
            found.append((f"{run} {name}", diff))
        else:
            ma = json.loads((a_root / rel).read_text("utf-8"))
            mb = json.loads((b_root / rel).read_text("utf-8"))
            for key in MANIFEST_FIELDS:
                diff = _Diff()
                _compare_json(ma.get(key), mb.get(key), key, diff)
                found.append((f"{run} manifest:{key}", diff))
    return [(label, d) for label, d in found if d.floats or d.problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="first run_digests.py output directory")
    parser.add_argument("b", help="second run_digests.py output directory")
    args = parser.parse_args(argv)
    roots = [Path(args.a), Path(args.b)]
    for root in roots:
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    status = 0
    for label, diff in compare_trees(*roots):
        if diff.floats:
            print(f"{label} max_abs {diff.max_abs:.3g} "
                  f"max_rel {diff.max_rel:.3g}")
        for problem in diff.problems:
            print(f"{label} {problem}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
