"""Paired benchmark runs of two checkouts, with each metric's verdict.

    python3 tools/ab_pairs.py PARENT CHANGE --pairs N --out FILE WORKLOAD...

PARENT and CHANGE are two checkouts of the repository (their roots).  For
each workload, pair i runs the benchmark command of ``BENCHMARK.json``
(``perfbench/run.py``) with ``--seed i --seconds <run_seconds> --trace 0``
once in each checkout, i = FIRST_SEED, ..., FIRST_SEED + N - 1
(``--first-seed``, default 1).  The parent runs first in the first pair,
the change in the second, and so on; runs go one at a time, so no two
share the host.

The tool refuses to start if ``perfbench/`` or ``BENCHMARK.json`` differ
between the two checkouts (the benchmark must be the same code on both
sides), or if FILE exists.  FILE gets every run's exit code, ``correct``,
``failed`` and metrics, and for each metric of each workload the median
and quartiles of both sides, the pairs each side won (by the metric's
``better`` in ``BENCHMARK.json``; ties count for neither) and the
verdicts:

    gain     the change won at least nine tenths of the pairs run, its
             median is better than the parent's by more than the
             parent's interquartile range, every run was correct and the
             change failed no more operations than the parent
    bound    end-to-end metrics only: "worse" when the change's median is
             worse than the parent's by more than the metric's bound (a
             fraction of the parent's median), "unresolved" when either
             side's interquartile range exceeds that bound and not every
             change run beat every parent run, else "ok"
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9


def _benchmark_files(root: Path) -> dict:
    """{relative path: bytes} of ``BENCHMARK.json`` and ``perfbench/``."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[path.relative_to(root).as_posix()] = path.read_bytes()
    return files


def benchmark_differences(parent: Path, change: Path) -> list:
    """Paths under ``perfbench/`` or ``BENCHMARK.json`` that differ."""
    a, b = _benchmark_files(parent), _benchmark_files(change)
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))


def run_once(root: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``root``: its exit code and last JSON line."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    return {"exit": proc.returncode, "correct": result.get("correct"),
            "failed": result.get("failed"),
            "metrics": {name: m["value"]
                        for name, m in result.get("metrics", {}).items()}}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(parent: list, change: list, better: str, bound=None,
            runs_sound: bool = True) -> dict:
    """Medians, quartiles, wins and verdicts of one metric over pairs.

    ``parent[i]`` and ``change[i]`` are pair i's values (None where a run
    reported none, which wins for neither side).  ``runs_sound`` says
    every run was correct and the change failed no more operations.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = [(p, c) for p, c in zip(parent, change)
             if p is not None and c is not None]
    wins = {"change": sum(sign * (p - c) > 0 for p, c in pairs),
            "parent": sum(sign * (c - p) > 0 for p, c in pairs)}
    wins["ties"] = len(pairs) - wins["change"] - wins["parent"]
    out = {"better": better, "pairs": len(parent), "wins": wins}
    if not pairs:
        out.update(gain=False, bound=None if bound is None else "unresolved")
        return out
    sides = {}
    for name, values in (("parent", [p for p, _ in pairs]),
                         ("change", [c for _, c in pairs])):
        q1, med, q3 = _quartiles(values)
        sides[name] = {"median": med, "q1": q1, "q3": q3}
    out.update(sides)
    p, c = sides["parent"], sides["change"]
    improvement = sign * (p["median"] - c["median"])
    out["gain"] = bool(runs_sound
                       and wins["change"] >= GAIN_SHARE * len(parent)
                       and improvement > p["q3"] - p["q1"])
    if bound is not None:
        scale = abs(p["median"]) or 1.0
        spread = max(s["q3"] - s["q1"] for s in sides.values()) / scale
        every_run_better = all(
            sign * (pv - cv) > 0 for pv, _ in pairs for _, cv in pairs)
        if -improvement / scale > bound:
            out["bound"] = "worse"
        elif spread > bound and not every_run_better:
            out["bound"] = "unresolved"
        else:
            out["bound"] = "ok"
        out["bound_fraction"] = bound
    out["change_vs_parent"] = (c["median"] - p["median"]) / (
        abs(p["median"]) or 1.0)
    return out


def summarize(runs: list, benchmark: dict) -> dict:
    """Every metric's comparison over one workload's pairs."""
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    specs.update((m["name"], m) for m in benchmark["per_layer"])
    correct = all(r[side]["correct"] is True for r in runs
                  for side in ("parent", "change"))
    sound = correct and (sum(r["change"]["failed"] for r in runs)
                         <= sum(r["parent"]["failed"] for r in runs))
    names = sorted({n for r in runs for side in ("parent", "change")
                    for n in r[side]["metrics"]})
    return {name: compare([r["parent"]["metrics"].get(name) for r in runs],
                          [r["change"]["metrics"].get(name) for r in runs],
                          specs.get(name, {}).get("better", "lower"),
                          specs.get(name, {}).get("bound"), sound)
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout root")
    parser.add_argument("change", type=Path, help="change checkout root")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0:
        parser.error("--pairs must be at least 1 and --first-seed at least 0")
    if args.out.exists():
        print(f"ab_pairs: {args.out} exists; refusing to overwrite it",
              file=sys.stderr)
        return 2
    differ = benchmark_differences(args.parent, args.change)
    if differ:
        print(f"ab_pairs: the checkouts' benchmarks differ in "
              f"{', '.join(differ)}; refusing to compare them",
              file=sys.stderr)
        return 2
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    unknown = sorted(set(args.workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {', '.join(known)}")

    seconds = benchmark["run_seconds"]
    report = {"command": benchmark["command"], "run_seconds": seconds,
              "pairs": args.pairs, "first_seed": args.first_seed,
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                root = args.parent if side == "parent" else args.change
                run[side] = run_once(root, benchmark["command"], workload,
                                     seed, seconds)
                wall = run[side]["metrics"].get("wall_s")
                print(f"{workload} seed {seed} {side}: exit "
                      f"{run[side]['exit']} correct {run[side]['correct']} "
                      f"wall_s {wall}", flush=True)
            runs.append(run)
        metrics = summarize(runs, benchmark)
        report["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, m in metrics.items():
            if "median" in m.get("parent", {}):
                print(f"{workload} {name}: parent {m['parent']['median']:.6g}"
                      f" change {m['change']['median']:.6g}, change won "
                      f"{m['wins']['change']} of {m['pairs']}, gain "
                      f"{m['gain']}, bound {m.get('bound', '-')}", flush=True)
    with open(args.out, "x", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
