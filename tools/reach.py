"""The functions of monosee that no run reaches: a reachability ledger.

    python3 tools/reach.py SRC_DIR

Run it as a script, in an interpreter of its own: it installs a
``sys.setprofile`` hook before it imports monosee from ``SRC_DIR`` (a
checkout's ``src/``), so a function that runs only at import time counts
as reached.  Under the hook it makes the runs a user makes: ``monosee
list``, then ``monosee validate`` and ``monosee run`` of every run in
``RUNS`` of ``tools/run_digests.py`` (one config file per run, the run's
overrides given with ``--set``, the artifacts in a temporary directory).
A run that ``validate`` rejects or that ends in an error (exit 2) stops
the tool with exit 1, because the code it would have reached would be
reported as unreached.

It then prints each function of ``SRC_DIR/monosee`` that never started
(a ``def``; lambdas are left out), one per line, sorted by module and
line:

    monosee.bsde:apriori_bound_check 53

with its line count (from its first decorator or ``def`` to its last
line), and last ``total: N functions, M lines``.  A function nested
inside an unreached one is not listed again; its lines count in its
parent's.  ``tests/test_harness.py`` compares this list with
``tools/reach_allowlist.txt``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run_digests import RUNS  # noqa: E402


def _started_code():
    """Install the profile hook; return the dict it fills, id -> code
    object, with every code object that starts a frame."""
    started = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            started[id(code)] = code  # held, so no id is reused

    sys.setprofile(hook)
    return started


def _cli(main, *argv) -> None:
    """``monosee *argv`` with its output captured; exit 1 when it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(list(argv))
    if code == 2 or (argv[0] == "validate" and code != 0):
        sys.exit(f"reach: monosee {' '.join(argv)} exited {code}:\n"
                 f"{out.getvalue()}")


def _make_runs(src: Path) -> None:
    sys.path.insert(0, str(src))
    from monosee.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        _cli(main, "list")
        for label, name, settings in RUNS:
            config = Path(tmp) / f"{label}.ini"
            config.write_text(f"[experiment]\nname = {name}\n", "utf-8")
            overrides = [arg for item in settings for arg in ("--set", item)]
            _cli(main, "validate", str(config), *overrides)
            _cli(main, "run", str(config), *overrides,
                 "--set", f"output.directory={Path(tmp) / label}")


def _unreached(tree, module: str, started):
    """(name, lines) of each top-most function in ``tree`` whose
    (first line, name) is not in ``started``."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [
                    d.lineno for d in child.decorator_list])
                if (first, child.name) in started:
                    yield from walk(child, f"{prefix}{child.name}.<locals>.")
                else:
                    yield (f"{module}:{prefix}{child.name}",
                           child.end_lineno - first + 1)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return list(walk(tree, ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="source tree to import monosee from")
    args = parser.parse_args(argv)
    if "monosee" in sys.modules:
        parser.error("monosee is already imported; run reach.py as a script")
    src = Path(args.src).resolve()
    started = _started_code()
    try:
        _make_runs(src)
    finally:
        sys.setprofile(None)

    by_file = {}
    for code in started.values():
        by_file.setdefault(code.co_filename, set()).add(
            (code.co_firstlineno, code.co_name))
    rows = []
    for path in sorted((src / "monosee").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        tree = ast.parse(path.read_text("utf-8"), str(path))
        rows += _unreached(tree, module, by_file.get(str(path), set()))
    for name, lines in rows:
        print(f"{name} {lines}")
    print(f"total: {len(rows)} functions, {sum(n for _, n in rows)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
