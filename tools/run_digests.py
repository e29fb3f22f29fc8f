"""Digests of every registered experiment's numbers, for "same numbers" checks.

    python3 tools/run_digests.py SRC_DIR OUT_DIR [EXPERIMENT ...]

Imports monosee from ``SRC_DIR`` (a checkout's ``src/``), runs every
registered experiment (or only the named ones) at its default config and
with ``monte_carlo.seed`` set to each of 1001, 17017 and 31031, writing
the artifacts under
``OUT_DIR``, and prints one SHA-256 per CSV and per SVG, and one per
manifest field ``summary``, ``assertions``, ``solver_stats`` and
``error`` (re-serialized with sorted keys).  The wall-clock and config
echo are left out, so two source trees that compute the same numbers
print the same lines:

    python3 tools/run_digests.py old/src /tmp/a > a.txt
    python3 tools/run_digests.py src /tmp/b > b.txt
    diff a.txt b.txt

A run that raises is still digested: its manifest records the error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

SEEDS = (None, 1001, 17017, 31031)
MANIFEST_FIELDS = ("summary", "assertions", "solver_stats", "error")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_run(run_dir: Path, label: str):
    """Lines ``label item sha256`` for one run's artifacts and manifest."""
    lines = []
    for art in sorted(run_dir.iterdir()):
        if art.suffix in (".csv", ".svg"):
            lines.append(f"{label} {art.name} {_sha(art.read_bytes())}")
    manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
    for key in MANIFEST_FIELDS:
        text = json.dumps(manifest.get(key), sort_keys=True)
        lines.append(f"{label} manifest:{key} {_sha(text.encode('utf-8'))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="source tree to import monosee from")
    parser.add_argument("out", help="directory for the runs' artifacts")
    parser.add_argument("experiments", nargs="*",
                        help="experiments to run (default: all registered)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from monosee.config import ExperimentConfig, apply_overrides
    from monosee.experiments import EXPERIMENTS, run_experiment

    unknown = sorted(set(args.experiments) - set(EXPERIMENTS))
    if unknown:
        parser.error(f"unknown experiments {unknown}; registered: "
                     f"{', '.join(EXPERIMENTS)}")
    out = Path(args.out).resolve()
    for name in args.experiments or EXPERIMENTS:
        for seed in SEEDS:
            label = f"{name}/{'default' if seed is None else seed}"
            run_dir = out / name / ("default" if seed is None else str(seed))
            overrides = [f"output.directory={run_dir}"]
            if seed is not None:
                overrides.append(f"monte_carlo.seed={seed}")
            config = apply_overrides(ExperimentConfig(experiment=name),
                                     overrides)
            try:
                run_experiment(config)
            except Exception:  # recorded in the manifest, digested below
                pass
            for line in _digest_run(run_dir, label):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
