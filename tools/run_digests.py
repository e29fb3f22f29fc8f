"""Digests of every registered experiment's numbers, for "same numbers" checks.

    python3 tools/run_digests.py SRC_DIR OUT_DIR [EXPERIMENT ...]

Imports monosee from ``SRC_DIR`` (a checkout's ``src/``), makes every run
in ``RUNS`` (or only the runs of the named experiments) with its own
overrides, once as they stand and once with ``monte_carlo.seed`` set to
each of 1001, 17017 and 31031, writing the artifacts under
``OUT_DIR/LABEL/RUN`` (RUN is ``default`` or the seed), and prints one
SHA-256 per CSV and per SVG, and one per manifest field ``summary``,
``assertions``, ``solver_stats`` and ``error`` (re-serialized with sorted
keys).  The wall-clock and config echo are left out, so two source trees
that compute the same numbers print the same lines:

    python3 tools/run_digests.py old/src /tmp/a > a.txt
    python3 tools/run_digests.py src /tmp/b > b.txt
    diff a.txt b.txt

A run that raises is still digested: its manifest records the error.
BLAS runs on one thread, as ``monosee`` on the command line runs it,
unless the caller set one of ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
or ``MKL_NUM_THREADS``: a multi-threaded BLAS may sum in another order,
so two trees compared at different thread counts need not print the same
lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

SEEDS = (None, 1001, 17017, 31031)
MANIFEST_FIELDS = ("summary", "assertions", "solver_stats", "error")

# (label, experiment, overrides): every registered experiment at its
# default config, the Bihari table at each iterated-log modulus, and the
# linear backward validation on a degree-4 basis, whose designs take pow
# for the exponents from 3 on.
# tools/reach.py makes the same runs, so every function it counts as
# reached is one whose numbers these digests check.
RUNS = [(name, name, ()) for name in (
    "porous_medium_demo", "reaction_diffusion_demo", "galerkin_convergence",
    "timestep_convergence", "pathwise_uniqueness", "hypothesis_report",
    "bsde_linear_validation", "bsde_picard_demo", "functional_delay_demo",
    "volterra_consistency", "bihari_table")] + [
    (f"bihari_table.rho_k{k}", "bihari_table",
     ("problem.rho_kind=rho_k", f"problem.rho_k={k}")) for k in (1, 2, 3)] + [
    ("bsde_linear_validation.degree4", "bsde_linear_validation",
     ("numerics.basis_degree=4",))]


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
    from monosee.config import (BLAS_THREAD_VARS, ExperimentConfig,
                                apply_overrides)
    # monosee.config loads no numpy; the count only takes effect before
    # numpy (with monosee.experiments) loads
    if not set(BLAS_THREAD_VARS) & set(os.environ):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    from monosee.experiments import EXPERIMENTS, run_experiment

    unknown = sorted(set(args.experiments) - set(EXPERIMENTS))
    if unknown:
        parser.error(f"unknown experiments {unknown}; registered: "
                     f"{', '.join(EXPERIMENTS)}")
    unrun = sorted(set(EXPERIMENTS) - {name for _, name, _ in RUNS})
    if unrun:
        parser.error(f"registered experiments missing from RUNS: {unrun}")
    out = Path(args.out).resolve()
    for label, name, settings in RUNS:
        if args.experiments and name not in args.experiments:
            continue
        for seed in SEEDS:
            run = "default" if seed is None else str(seed)
            run_dir = out / label / run
            overrides = [*settings, f"output.directory={run_dir}"]
            if seed is not None:
                overrides.append(f"monte_carlo.seed={seed}")
            config = apply_overrides(ExperimentConfig(experiment=name),
                                     overrides)
            try:
                run_experiment(config)
            except Exception:  # recorded in the manifest, digested below
                pass
            for line in _digest_run(run_dir, f"{label}/{run}"):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
