"""The benchmark's workloads: which operations each runs, why it was
chosen, and which end-to-end metric each traced layer should move on it.

An operation is one registered experiment run through
``run_experiment`` with a config parsed from INI text, or one direct
``bihari_bound`` table.  Experiment seeds are derived from
the workload seed: ``--seed`` selects one of ``SEED_CLASSES`` input
sets, each with its own reference outcome recorded in
``reference.json``.  A workload whose work depends on its inputs runs
several consecutive input sets in one pass (``Workload.input_sets``).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from monosee import analysis, experiments
from monosee.config import parse_config

SEED_CLASSES = 32

# direct Bihari tables: unit rate on [0, 1] from g0 = 1 on bihari_table's
# 101-point grid (401 points would make a certify pass ~10 s, too few
# passes per run to give a steady median on a shared host)
TABLE_POINTS = 101
TABLE_G0 = 1.0


# the demos at default size except 8 replicas, not 64: a default pass
# takes ~10 s, too few passes per run to give a steady median on a shared
# host; each replica is still one single-replica 250-step Newton path
ENSEMBLE = (("monte_carlo.replicas", "8"),)


@dataclass(frozen=True)
class Op:
    """One operation: a registered experiment with setting overrides, or
    (``experiment`` empty) a direct Bihari table for ``modulus``."""

    name: str
    experiment: str = ""
    settings: tuple = ()   # ("section.key", "value") pairs
    modulus: tuple = ()    # ("rho_k", k, eta) or ("power", alpha)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    layers: dict = field(default_factory=dict)   # layer metric -> e2e moved
    input_sets: int = 1   # consecutive input sets one pass runs


WORKLOADS = {w.name: w for w in (
    Workload(
        "ensemble",
        "heaviest user run: replica ensembles of single-replica Newton "
        "solves, where batching the replica engine must show",
        (Op("porous_medium_demo", "porous_medium_demo", ENSEMBLE),
         Op("reaction_diffusion_demo", "reaction_diffusion_demo", ENSEMBLE)),
        {"resolvent.resolvent": "wall_s: 4,000 general n=8 Newton solves",
         "forward.solve_forward": "wall_s",
         "forward.step_implicit": "wall_s",
         "operators.drift": "wall_s: eval/jacobian per Newton iteration",
         "triple.norms": "wall_s",
         "experiments": "wall_s, ops_ok_frac"}),
    Workload(
        "backward",
        "regression Monte Carlo: thousands of noise substreams and one "
        "diagonal resolvent over all paths, the opposite shape to ensemble",
        (Op("bsde_linear_validation", "bsde_linear_validation"),
         Op("bsde_picard_demo", "bsde_picard_demo")),
        {"noise.sample_path": "wall_s: 4,400 substreams per input set",
         "bsde.solve": "wall_s",
         "bsde.regularized_implicit_step": "wall_s",
         "bsde.picard_sweeps": "wall_s",
         "resolvent.resolvent": "wall_s: diagonal solves over all paths",
         "analysis.rho_eval": "wall_s: concave-modulus driver",
         "experiments": "wall_s, ops_ok_frac"},
        # bsde_picard_demo's Picard sweeps, and so its time, vary with the
        # input set (17-20 sweeps, up to 7% of a pass); 4 input sets per
        # pass keep that out of the run-to-run spread
        input_sets=4),
    Workload(
        "certify",
        "comparison-bound tables and sampled hypothesis checks: nested "
        "quad+brentq and the sampled-check loops, no forward solves",
        (Op("bihari_table.linear", "bihari_table",
            (("problem.rho_kind", "linear"),)),
         Op("bihari_table.rho_k", "bihari_table",
            (("problem.rho_kind", "rho_k"), ("problem.rho_k", "1"))),
         Op("hypothesis_report", "hypothesis_report"),
         Op("bihari_bound.rho_1", modulus=("rho_k", 1, math.exp(-1.0))),
         Op("bihari_bound.rho_2", modulus=("rho_k", 2, math.exp(-math.e))),
         Op("bihari_bound.rho_3",
            modulus=("rho_k", 3, math.exp(-math.exp(math.e)))),
         Op("bihari_bound.power_0.5", modulus=("power", 0.5))),
        {"analysis.bihari_bound": "wall_s: nested quad+brentq per point",
         "analysis.zero_limit_check": "wall_s",
         "analysis.rho_eval": "wall_s: ~500k scalar calls per pass",
         "operators.check": "wall_s: sampled-check loops",
         "experiments": "wall_s, ops_ok_frac: bihari_table.rho_k fails"}),
    Workload(
        "single_path",
        "one path at a time with large Galerkin systems and Picard "
        "re-solves: the R=1 case batching must not slow",
        (Op("galerkin_convergence", "galerkin_convergence"),
         Op("timestep_convergence", "timestep_convergence"),
         Op("pathwise_uniqueness", "pathwise_uniqueness"),
         Op("functional_delay_demo", "functional_delay_demo"),
         Op("volterra_consistency", "volterra_consistency")),
        {"forward.solve_forward": "wall_s: up to 64 modes, one replica",
         "resolvent.resolvent": "wall_s",
         "functional.picard_solve_functional": "wall_s",
         "functional.volterra_consistency": "wall_s",
         "functional.bihari_domination_report": "wall_s",
         "triple.norms": "wall_s",
         "experiments": "wall_s, ops_ok_frac"}),
)}


def seed_class(seed: int) -> int:
    return seed % SEED_CLASSES


def input_classes(workload: Workload, seed: int) -> list:
    """The input sets one pass of ``workload`` runs under ``seed``."""
    return [seed_class(seed + j) for j in range(workload.input_sets)]


def op_seed(seed: int, index: int) -> int:
    """Experiment seed of the index-th operation under a workload seed."""
    return 1000 * seed_class(seed) + index + 1


def config_text(op: Op, seed: int, index: int) -> str:
    """The INI config of an experiment operation."""
    sections = {"experiment": {"name": op.experiment},
                "monte_carlo": {"seed": str(op_seed(seed, index))},
                "output": {"directory": op.name}}
    for key, value in op.settings:
        section, name = key.split(".")
        sections.setdefault(section, {})[name] = value
    return "".join(f"[{section}]\n"
                   + "".join(f"{k} = {v}\n" for k, v in items.items())
                   for section, items in sections.items())


def prepare(workload: Workload, seed: int) -> list:
    """Parse and validate every config of the workload (or build every
    modulus); raises ValueError if the benchmark asks for an invalid
    one."""
    prepared = []
    for index, op in enumerate(workload.ops):
        if op.experiment:
            config = parse_config(config_text(op, seed, index),
                                  source=op.name)
            problems = experiments.validate_experiment(config)
            if problems:
                raise ValueError(f"{op.name}: invalid config: {problems}")
            prepared.append(config)
        elif op.modulus[0] == "rho_k":
            _, k, eta = op.modulus
            prepared.append(analysis.rho_k_modulus(k=k, eta=eta))
        else:
            prepared.append(analysis.power_modulus(alpha=op.modulus[1]))
    return prepared


@dataclass
class OpRecord:
    """What one operation did: its time, outcome and artifact digests."""

    name: str
    seconds: float
    raised: str | None          # "TypeName: message" if it raised
    summary: dict
    assertions: dict            # assertion name -> passed
    manifest_error: object      # manifest "error" field; None if clean
    has_manifest: bool
    digests: dict               # CSV file name -> sha256

    @property
    def raised_type(self) -> str | None:
        return self.raised.split(":", 1)[0] if self.raised else None

    @property
    def silent_failure(self) -> bool:
        """Raised while its manifest records no error."""
        return bool(self.raised and self.has_manifest
                    and self.manifest_error is None)


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def _table(spec, out_dir: Path):
    t_grid = np.linspace(0.0, 1.0, TABLE_POINTS)
    bound = analysis.bihari_bound(TABLE_G0, np.ones_like(t_grid), spec,
                                  t_grid)
    experiments.write_csv(out_dir / "bihari_bound.csv", ["t", "bound"],
                          zip(t_grid, bound.bound_curve))
    return bound


def run_op(op: Op, prepared, out_root: Path) -> OpRecord:
    """Run one operation into ``out_root / op.name``; only the call into
    monosee is timed.  Any exception is recorded, not propagated."""
    out_dir = out_root / op.name
    shutil.rmtree(out_dir, ignore_errors=True)
    raised = None
    bound = None
    if not op.experiment:
        out_dir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        if op.experiment:
            experiments.run_experiment(prepared)
        else:
            bound = _table(prepared, out_dir)
    except Exception as err:  # an operation failing is a measured outcome
        raised = f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - start

    summary, assertions, manifest_error = {}, {}, None
    manifest_path = out_dir / "manifest.json"
    has_manifest = manifest_path.exists()
    if has_manifest:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        summary = manifest["summary"]
        assertions = {a["name"]: a["passed"] for a in manifest["assertions"]}
        manifest_error = manifest["error"]
    elif bound is not None:
        curve = bound.bound_curve
        summary = {"final_bound": float(curve[-1]),
                   "mid_bound": float(curve[len(curve) // 2]),
                   "blowup_time": bound.blowup_time}
        assertions = {"bound_nondecreasing":
                      bool(np.all(np.diff(curve) >= -1e-12))}
    return OpRecord(op.name, seconds, raised, summary, assertions,
                    manifest_error, has_manifest, _digests(out_dir))
