"""Record ``reference.json``: the outcome of every operation of every
workload under every seed class, at the current commit.

Run from the repository root, at the commit whose outputs are the
reference (the benchmark's correctness gate compares against it):

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    for key in run.BLAS_ENV:
        os.environ[key] = run.BLAS_THREADS
    workloads = run._import_program()
    import gate
    from monosee.experiments import OUTPUT_ROOT_ENV

    out_root = run.OUT / f"record-{os.getpid()}"
    os.environ[OUTPUT_ROOT_ENV] = str(out_root)
    recorded = {}
    try:
        for workload in workloads.WORKLOADS.values():
            per_class = recorded.setdefault(workload.name, {})
            for cls in range(workloads.SEED_CLASSES):
                prepared = workloads.prepare(workload, cls)
                entries = per_class.setdefault(str(cls), {})
                for op, prep in zip(workload.ops, prepared):
                    rec = workloads.run_op(op, prep, out_root)
                    entries[op.name] = gate.reference_entry(rec)
                    failing = [n for n, ok in rec.assertions.items() if not ok]
                    if rec.raised or failing:
                        print(f"{workload.name} class {cls} {op.name}: "
                              f"raised {rec.raised}, failing {failing}",
                              file=sys.stderr)
                print(f"{workload.name} class {cls} recorded", flush=True)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    reference = {"seed_classes": workloads.SEED_CLASSES,
                 "tolerance": {"rel": gate.REL_TOL, "abs": gate.ABS_TOL},
                 "workloads": recorded}
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
