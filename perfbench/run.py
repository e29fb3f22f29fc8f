"""monosee benchmark: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 25 --trace 0

Run from the repository root; monosee is imported from ``src/``.  The
process runs the workload's operation list pass after pass, each
operation only after the previous one returned, until ``--seconds``
have passed (at least one pass after the cold first pass).  Only the
calls into monosee are timed.  Every operation is checked against the
seed-commit reference and against its own first pass (``gate.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

    setup_s      median over 4 fresh processes of spawn -> monosee imported
                 and every config of the workload parsed and validated,
                 at reference host speed
    wall_s       seconds per warm pass over the operation list: total
                 warm-pass seconds / warm passes, at reference host speed
                 (the measured mean and median are printed)
    ops_ok_frac  operations that succeeded / operations attempted
    peak_rss_mb  peak resident memory of this process

With ``--trace 1`` (no setup processes) warm passes alternate traced and
untraced.  It reports per-layer calls and work counts of the first
traced pass, per-layer seconds as medians over traced passes, derived
ratios with their bases, the tracing overhead, and the cold first pass
of the process (one sample per run: too noisy on a shared host for an
end-to-end bound).  Everything, with the run stamp, is also written to
``.perfbench_out/results/``.

Reference host speed: a fixed NumPy calibration slice runs before every
operation and around every setup probe, and measured seconds are scaled
by ``REFERENCE_S`` / mean seconds of those slices (``hostspeed.py``).  The
shared host drifts by tens of percent between runs; the scaled times of
two runs of the same code agree far more closely than the measured ones.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4     # fresh processes timed from spawn to ready
SETUP_SLICES = 8     # host-speed slices before each probe and after the last
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

COUNT_LAYERS = ("noise.sample_path", "resolvent.resolvent",
                "forward.solve_forward", "forward.step_implicit",
                "operators.check", "bsde.solve",
                "bsde.regularized_implicit_step", "analysis.bihari_bound",
                "analysis.zero_limit_check", "analysis.rho_eval",
                "functional.picard_solve_functional",
                "functional.volterra_consistency",
                "functional.bihari_domination_report", "triple.norms",
                "experiments.artifacts")
WORK_COUNTERS = ("operators.check.samples", "analysis.bihari_bound.points",
                 "bsde.solve.picard_sweeps",
                 "functional.picard_solve_functional.picard_iterations")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path and import the
    benchmark modules that use it; exit 2 if there is no program."""
    src = ROOT / "src"
    if not (src / "monosee" / "__init__.py").is_file():
        print(f"perfbench: no monosee sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import workloads
    import monosee
    if Path(monosee.__file__).resolve().parent != (src / "monosee").resolve():
        print(f"perfbench: imported monosee from {monosee.__file__}, not "
              f"from {src}", file=sys.stderr)
        sys.exit(2)
    return workloads


@dataclass
class Pass:
    kind: str            # cold (first in this process), traced, plain
    seconds: float       # summed time of the operations' monosee calls
    judged: list         # (operation, failure reasons, silent failure)
    mismatch: bool       # an outcome differs from the reference


class Bench:
    """One workload, its validated configs and the correctness gate."""

    def __init__(self, args, host=None):
        self.workloads = _import_program()
        import gate
        self.host = host
        from monosee.experiments import OUTPUT_ROOT_ENV
        self.gate = gate
        if args.workload not in self.workloads.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; known: "
                  f"{', '.join(self.workloads.WORKLOADS)}", file=sys.stderr)
            sys.exit(2)
        self.workload = self.workloads.WORKLOADS[args.workload]
        self.classes = self.workloads.input_classes(self.workload, args.seed)
        self.prepared = [
            (cls, op, prep) for cls in self.classes
            for op, prep in zip(self.workload.ops,
                                self.workloads.prepare(self.workload, cls))]
        self.run_dir = OUT / f"run-{self.workload.name}-{os.getpid()}"
        os.environ[OUTPUT_ROOT_ENV] = str(self.run_dir)
        self.first_digests = {}

    @functools.cached_property
    def refs(self) -> dict:
        """Reference outcomes of this run's input sets, by input set."""
        stored = self.gate.load_reference()["workloads"].get(
            self.workload.name, {})
        return {cls: stored.get(str(cls), {}) for cls in self.classes}

    def run_pass(self, kind: str) -> Pass:
        records = []
        for cls, op, prep in self.prepared:
            self.host.sample()
            records.append((cls, self.workloads.run_op(op, prep,
                                                       self.run_dir)))
        judged, mismatch = [], False
        for cls, rec in records:
            first = self.first_digests.setdefault((cls, rec.name),
                                                  rec.digests)
            reasons, bad = self.gate.judge(rec, self.refs[cls].get(rec.name),
                                           first)
            mismatch |= bad
            judged.append((rec.name, reasons, rec.silent_failure))
        return Pass(kind, sum(r.seconds for _, r in records), judged,
                    mismatch)

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def _probe(args) -> int:
    """A fresh process that reports once its configs are validated."""
    Bench(args)
    print("ready", flush=True)
    return 0


def _setup_seconds(args, host) -> list:
    """Wall time of fresh processes from spawn until each reports that
    monosee is imported and every config of the workload is validated,
    as (measured, scaled) pairs: each probe is scaled by the host-speed
    slices just before and just after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]

    def slices():
        return [host.sample() for _ in range(SETUP_SLICES)]

    times = []
    before = slices()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        after = slices()
        times.append((elapsed, host.scale(elapsed, before + after)))
        before = after
    return times


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in a plain export, which has no .git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved ref {ref}"


def _stamp(args, workload, classes: list) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "input_sets": classes,
        "why": workload.why,
        "operations": [op.name for op in workload.ops],
        "loop": "closed, 1 client, no worker threads",
        "layer_map": workload.layers,
    }


def _schedule(trace: bool):
    yield "cold"
    while True:
        if trace:
            yield "traced"
        yield "plain"


def _layer_view(tracer) -> dict:
    """Counts and seconds of one traced pass, keyed by metric name."""
    view = {}
    for layer, (calls, total, self_s) in tracer.spans.items():
        view[f"{layer}.calls"] = calls
        view[f"{layer}.total_s"] = total
        view[f"{layer}.self_s"] = self_s
    for name, count in tracer.work.items():
        view[name] = count
    for name, seconds in tracer.experiment_s.items():
        view[f"experiments.{name}.s"] = seconds
    return view


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name in WORK_COUNTERS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(views: list, experiment_names, silent: int,
                   failed_frac: float, overhead: float) -> tuple:
    """(metrics, ratio bases) of the traced passes."""
    first = views[0]

    def med(name):
        return statistics.median(v.get(name, 0.0) for v in views)

    def count(name):
        return first.get(name, 0)

    metrics = {}
    for layer in COUNT_LAYERS:
        metrics[f"{layer}.calls"] = (count(f"{layer}.calls"), "count")
        metrics[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    for part in ("eval", "jacobian"):
        metrics[f"operators.drift.{part}.calls"] = (
            count(f"operators.drift.{part}.calls"), "count")
    metrics["operators.drift.self_s"] = (
        statistics.median(v.get("operators.drift.eval.self_s", 0.0)
                          + v.get("operators.drift.jacobian.self_s", 0.0)
                          for v in views), "s")
    for name in ("operators.check.total_s", "analysis.bihari_bound.total_s"):
        metrics[name] = (med(name), "s")
    for name, source in (
            ("operators.check.samples", "operators.check.samples"),
            ("analysis.bihari_bound.points", "analysis.bihari_bound.points"),
            ("bsde.picard_sweeps", "bsde.solve.picard_sweeps"),
            ("functional.picard_iterations",
             "functional.picard_solve_functional.picard_iterations")):
        metrics[name] = (count(source), "count")
    for name in experiment_names:
        metrics[f"experiments.{name}.s"] = (med(f"experiments.{name}.s"), "s")
    metrics["experiments.silent_failures"] = (silent, "count")
    metrics["experiments.ops_failed_frac"] = (failed_frac, "ratio")

    m = {k: v for k, (v, _) in metrics.items()}
    ratios = {
        "ratio.newton_per_solve": (
            _ratio(m["operators.drift.jacobian.calls"],
                   m["resolvent.resolvent.calls"]), "iter/solve",
            "operators.drift.jacobian.calls / resolvent.resolvent.calls"),
        "ratio.check_samples_per_s": (
            _ratio(m["operators.check.samples"],
                   m["operators.check.total_s"]), "1/s",
            "operators.check.samples / operators.check.total_s"),
        "ratio.bihari_points_per_s": (
            _ratio(m["analysis.bihari_bound.points"],
                   m["analysis.bihari_bound.total_s"]), "1/s",
            "analysis.bihari_bound.points / analysis.bihari_bound.total_s"),
        "ratio.sample_paths_per_s": (
            _ratio(m["noise.sample_path.calls"],
                   m["noise.sample_path.self_s"]), "1/s",
            "noise.sample_path.calls / noise.sample_path.self_s"),
        "ratio.picard_sweeps_per_solve": (
            _ratio(m["bsde.picard_sweeps"], m["bsde.solve.calls"]),
            "sweep/solve", "bsde.picard_sweeps / bsde.solve.calls"),
    }
    for name, (value, unit, _) in ratios.items():
        metrics[name] = (value, unit)
    metrics["trace.overhead"] = (overhead, "ratio")
    bases = {name: base for name, (_, _, base) in ratios.items()}
    bases["trace.overhead"] = "(median traced pass - median untraced " \
                              "warm pass) / median untraced warm pass"
    return metrics, bases


def _report(args, passes, setup, views, problems, host) -> tuple:
    """(result, metrics, ratio bases, failures) of a finished run."""
    attempted = sum(len(p.judged) for p in passes)
    failed = sum(1 for p in passes for _, reasons, _ in p.judged if reasons)
    failures = {}
    for p in passes:
        for name, reasons, _ in p.judged:
            for reason in reasons:
                counts = failures.setdefault(name, {})
                counts[reason] = counts.get(reason, 0) + 1
    warm = [p.seconds for p in passes if p.kind == "plain"]
    from hostspeed import REFERENCE_S
    if args.trace:
        from monosee.experiments import EXPERIMENTS
        counts = [{k: v for k, v in view.items() if _is_count(k)}
                  for view in views]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("layer counts differ between traced passes")
        traced = [p.seconds for p in passes if p.kind == "traced"]
        overhead = (statistics.median(traced) - statistics.median(warm)) \
            / statistics.median(warm)
        first = next(p for p in passes if p.kind == "traced").judged
        silent = sum(1 for _, _, s in first if s)
        failed_frac = sum(1 for _, r, _ in first if r) / len(first)
        metrics, bases = _layer_metrics(views, EXPERIMENTS, silent,
                                        failed_frac, overhead)
        metrics["experiments.cold_pass_s"] = (passes[0].seconds, "s")
        bases["experiments.cold_pass_s"] = "the first pass in this process"
        metrics["host.slice_s"] = (host.slice_s, "s")
        bases["host.slice_s"] = (f"mean of {len(host.samples)} calibration "
                                 f"slices; {REFERENCE_S} s at reference "
                                 f"host speed")
    else:
        measured = statistics.median(t for t, _ in setup)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "wall_s": (host.scale(statistics.fmean(warm)), "s"),
            "ops_ok_frac": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
        bases = {"setup_s": f"median of {len(setup)} fresh processes, "
                            f"each x {REFERENCE_S} s / mean of the "
                            f"{2 * SETUP_SLICES} slices around it; "
                            f"{measured:.4g} s measured",
                 "wall_s": f"mean of {len(warm)} warm passes, "
                           f"{statistics.fmean(warm):.4g} s measured "
                           f"(median {statistics.median(warm):.4g} s, max "
                           f"{max(warm):.4g} s), x {REFERENCE_S} s / "
                           f"mean slice {host.slice_s:.4g} s over "
                           f"{len(host.samples)} slices",
                 "ops_ok_frac": f"{attempted - failed} of {attempted} "
                                f"operations"}
    import tracer as tracing
    problems.extend(f"invalid metric name {n!r}" for n in metrics
                    if not tracing.METRIC_NAME.fullmatch(n))
    result = {"correct": not problems and not any(p.mismatch for p in passes),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, metrics, bases, failures


def main(argv=None) -> int:
    args = _parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    if args.probe:
        return _probe(args)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    import hostspeed
    host = hostspeed.HostSpeed()
    bench = Bench(args, host)
    import tracer as tracing
    trace = bool(args.trace)
    setup_host = hostspeed.HostSpeed()
    setup = [] if trace else _setup_seconds(args, setup_host)

    snap = tracing.snapshot()
    problems = [f"tracer self-test: {p}" for p in tracing.self_test(snap)]
    tracer = tracing.Tracer()
    passes = []
    views = []           # layer view per traced pass
    try:
        start = time.perf_counter()
        for kind in _schedule(trace):
            kinds = {p.kind for p in passes}
            enough = "plain" in kinds and (not trace or "traced" in kinds)
            if enough and time.perf_counter() - start >= args.seconds:
                break
            if kind == "traced":
                tracer.reset()
                tracer.install()
                try:
                    passes.append(bench.run_pass(kind))
                finally:
                    tracer.uninstall()
                views.append(_layer_view(tracer))
            else:
                passes.append(bench.run_pass(kind))
                problems.extend(f"untraced pass: {w} is wrapped"
                                for w in tracing.wrapped_bindings(snap))
    finally:
        bench.close()
    result, metrics, bases, failures = _report(args, passes, setup, views,
                                               problems, host)

    workload = bench.workload
    stamp = _stamp(args, workload, bench.classes)
    detail = {"stamp": stamp, "trace": trace,
              "passes": [{"kind": p.kind, "seconds": p.seconds}
                         for p in passes],
              "setup_probes_s": [t for t, _ in setup],
              "setup_probes_scaled_s": [s for _, s in setup],
              "setup_slices_s": setup_host.samples,
              "host_slices_s": host.samples,
              "failures": failures,
              "problems": problems, "ratio_bases": bases,
              "reference_tolerance": {"rel": bench.gate.REL_TOL,
                                      "abs": bench.gate.ABS_TOL},
              "result": result}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_file = results_dir / (f"{workload.name}-seed{args.seed}"
                              f"-trace{int(trace)}.json")
    out_file.write_text(json.dumps(detail, indent=2) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} (input sets "
          f"{bench.classes}) trace={int(trace)}: {len(passes)} passes "
          f"({', '.join(p.kind for p in passes)}), closed loop, 1 client")
    print(f"  why: {workload.why}")
    print(f"  stamp: python {stamp['python']}, numpy {stamp['numpy']}, "
          f"scipy {stamp['scipy']}, {stamp['blas']}, nproc "
          f"{stamp['nproc']}, blas threads {BLAS_THREADS}, commit "
          f"{stamp['git_commit']}")
    for name, reasons in failures.items():
        for reason, count in reasons.items():
            print(f"  FAILED {name} x{count}: {reason}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        base = f"   [{bases[name]}]" if name in bases else ""
        print(f"  {name:48s} {value:>16.6g} {unit}{base}")
    print(f"  details: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
