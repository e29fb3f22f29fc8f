"""Correctness gate: every operation against the seed-commit reference
and against its own first pass.

An operation fails when it raises, when any assertion FAILs, when its
manifest summary or assertion verdicts differ from ``reference.json``
beyond the tolerance below, or when its CSV bytes differ from the first
pass of the same operation in the same run.  Each failure carries its
reasons.  A failure is also a *mismatch* (the run is not correct) unless
the reference recorded the same outcome: an operation that raised the
same exception type, or FAILed the same assertion, at the seed commit is
a known defect, counted as failed but not as a wrong output.  An
operation whose reference raised but which now completes is checked by
its own assertions only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# summary floats may move by this much (solver tolerances are 1e-10, so a
# reordered but equivalent computation stays far inside it); integers,
# booleans and strings must match exactly
REL_TOL = 1e-6
ABS_TOL = 1e-9


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def reference_entry(record) -> dict:
    """The comparable outcome of one operation, as stored in the reference."""
    return {"raised": record.raised_type, "summary": record.summary,
            "assertions": record.assertions}


def _close(got, want) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isnan(want):
            return math.isnan(got)
        return got == want or abs(got - want) <= ABS_TOL + REL_TOL * abs(want)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_close, got, want)))
    return got == want


def _summary_diffs(got: dict, want: dict) -> list:
    diffs = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            diffs.append(f"summary.{key} present in only one of run and "
                         f"reference")
        elif not _close(got[key], want[key]):
            diffs.append(f"summary.{key} = {got[key]!r}, reference "
                         f"{want[key]!r}")
    return diffs


def judge(record, ref: dict | None, first_digests: dict) -> tuple:
    """(reasons, mismatch) for one operation record."""
    reasons, mismatch = [], False
    if ref is None:
        return ["no reference outcome recorded"], True
    known = " (as in the reference)"
    if record.raised:
        same = record.raised_type == ref["raised"]
        reasons.append(f"raised {record.raised}" + known * same)
        mismatch |= not same
    for name, passed in sorted(record.assertions.items()):
        if not passed:
            same = ref["assertions"].get(name) is False
            reasons.append(f"assertion FAIL {name}" + known * same)
            mismatch |= not same
    if not record.raised and not ref["raised"]:
        diffs = _summary_diffs(record.summary, ref["summary"])
        if record.assertions.keys() != ref["assertions"].keys():
            diffs.append(f"assertions {sorted(record.assertions)}, reference "
                         f"{sorted(ref['assertions'])}")
        reasons.extend(f"reference mismatch: {d}" for d in diffs)
        mismatch |= bool(diffs)
    changed = sorted(name for name in record.digests.keys() | first_digests
                     if record.digests.get(name) != first_digests.get(name))
    if changed:
        reasons.append("csv bytes differ from the first pass: "
                       + ", ".join(changed))
        mismatch = True
    return reasons, mismatch
