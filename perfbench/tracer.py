"""Outside-in layer tracing for the monosee benchmark.

The tracer wraps public functions and built-in methods of the
``src/monosee`` modules from outside: every module binding of a traced
function (``resolvent`` is bound in ``monosee.resolvent``,
``monosee.forward`` and ``monosee.bsde``) is replaced by one wrapper and
restored afterwards, so the program itself is unchanged.

Each wrapper is a span.  Spans nest on one stack (the benchmark is a
single-threaded closed loop), and a layer's self time is its spans'
durations minus the time covered by their child spans.  Spans are
aggregated in memory as (calls, total seconds, self seconds) per layer,
plus the work counters read from returned values.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from collections import defaultdict

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

_CHECKS = ("check_monotonicity", "check_coercivity", "check_boundedness",
           "check_hemicontinuity")
_DRIFTS = ("PorousMediumDrift", "PhiDrift", "ReactionDiffusionDrift")

# layer -> (module, "function" or "Class.method") targets it aggregates
LAYERS = {
    "noise.sample_path": [("monosee.noise", "sample_path")],
    "resolvent.resolvent": [("monosee.resolvent", "resolvent")],
    "forward.solve_forward": [("monosee.forward", "solve_forward")],
    "forward.step_implicit": [("monosee.forward", "step_implicit")],
    "operators.drift.eval": [("monosee.operators", f"{c}.eval")
                             for c in _DRIFTS],
    "operators.drift.jacobian": [("monosee.operators", f"{c}.jacobian")
                                 for c in _DRIFTS],
    "operators.check": [("monosee.operators", f) for f in _CHECKS],
    "bsde.solve": [("monosee.bsde", f) for f in (
        "solve_bsde_autonomous_C", "picard_in_z", "picard_in_x")],
    "bsde.regularized_implicit_step": [
        ("monosee.bsde", "regularized_implicit_step")],
    "analysis.bihari_bound": [("monosee.analysis", "bihari_bound")],
    "analysis.zero_limit_check": [("monosee.analysis", "zero_limit_check")],
    "analysis.rho_eval": [("monosee.analysis", "rho_eval")],
    "functional.picard_solve_functional": [
        ("monosee.functional", "picard_solve_functional")],
    "functional.volterra_consistency": [
        ("monosee.functional", "volterra_consistency")],
    "functional.bihari_domination_report": [
        ("monosee.functional", "bihari_domination_report")],
    "triple.norms": [("monosee.triple", f"DiscreteTriple.{m}")
                     for m in ("h_norm", "x_norm", "coefficients")],
    "experiments.run": [("monosee.experiments", "run_experiment")],
    "experiments.artifacts": [
        ("monosee.experiments", "write_csv"),
        ("monosee.experiments", "svg_series"),
        ("monosee.forward", "trajectory_csv"),
        ("monosee.bsde", "solution_csv"),
        ("monosee.functional", "functional_trajectory_csv")],
}


def _bsde_sweeps(result) -> int:
    """Backward sweeps recorded in a solution's residual histories: the
    inner z-histories of picard_in_x, else the picard_in_z history."""
    inner = getattr(result, "inner_picard_residuals", ())
    if inner:
        return sum(len(h) for h in inner)
    return len(getattr(result, "picard_residuals", ()))


# layer -> (work counter name, function of the returned value)
WORK = {
    "operators.check": ("samples", lambda r: r.n_samples),
    "analysis.bihari_bound": ("points", lambda r: len(r.t_grid)),
    "bsde.solve": ("picard_sweeps", _bsde_sweeps),
    "functional.picard_solve_functional": ("picard_iterations",
                                           lambda r: len(r.residuals)),
}


def _resolve(module_name: str, target: str):
    """(owner, attribute, original) for one target; owner is a class for
    methods and None for module functions (patched at every binding)."""
    module = sys.modules[module_name]
    if "." in target:
        cls_name, attr = target.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return None, target, getattr(module, target)


def _bindings(original) -> list:
    """Every (module, attribute) of a loaded monosee module bound to
    ``original``, aliases included."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "monosee" and not name.startswith("monosee."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


def snapshot() -> dict:
    """(module, target) -> (original, [(owner, attribute), ...]): the
    unwrapped object of every target and every place it is bound.  Take
    it before any tracer is installed."""
    snap = {}
    for targets in LAYERS.values():
        for module_name, target in targets:
            owner, attr, original = _resolve(module_name, target)
            places = [(owner, attr)] if owner is not None \
                else _bindings(original)
            snap[(module_name, target)] = (original, places)
    return snap


def _label(owner, attr: str) -> str:
    return f"{getattr(owner, '__module__', '')}.{owner.__name__}.{attr}" \
        if isinstance(owner, type) else f"{owner.__name__}.{attr}"


def wrapped_bindings(snap: dict) -> list:
    """Bindings from ``snap`` that no longer hold the original object."""
    return [_label(owner, attr)
            for original, places in snap.values()
            for owner, attr in places
            if getattr(owner, attr) is not original]


class Tracer:
    """Wraps every target of :data:`LAYERS` while installed."""

    def __init__(self):
        self._stack: list = []
        self._patched: list = []   # (owner, attribute, original)
        # layer -> [calls, total_s, self_s]; run_experiment seconds per
        # experiment; work counters.  Wrappers hold these objects, so
        # reset() clears them in place.
        self.spans = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        self.experiment_s = defaultdict(float)
        self.work = defaultdict(int)

    def reset(self) -> None:
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]
        self.experiment_s.clear()
        self.work.clear()

    def _wrap(self, layer: str, fn):
        stack = self._stack
        stats = self.spans[layer]
        perf = time.perf_counter
        work_name, work_of = WORK.get(layer, (None, None))
        per_experiment = layer == "experiments.run"
        experiment_s = self.experiment_s
        work = self.work

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if per_experiment:
                    experiment_s[args[0].experiment] += elapsed
            if work_name is not None:
                work[f"{layer}.{work_name}"] += work_of(result)
            return result

        return span

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for layer, targets in LAYERS.items():
                for module_name, target in targets:
                    owner, attr, original = _resolve(module_name, target)
                    wrapper = self._wrap(layer, original)
                    places = [(owner, attr)] if owner is not None \
                        else _bindings(original)
                    for place, name in places:
                        setattr(place, name, wrapper)
                        self._patched.append((place, name, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._stack.clear()

    def patched_modules(self, original) -> set:
        """Names of the modules whose binding of ``original`` is wrapped."""
        return {owner.__name__ for owner, _, orig in self._patched
                if orig is original and not isinstance(owner, type)}


def self_test(snap: dict) -> list:
    """Install and remove a tracer once; report every broken invariant.

    While installed, ``resolvent`` must be wrapped in each module that
    binds it and every recorded binding of every target must be wrapped;
    afterwards every binding must be the original object again.
    """
    problems = []
    resolvent = snap[("monosee.resolvent", "resolvent")][0]
    expect = {"monosee.resolvent", "monosee.forward", "monosee.bsde"}
    tracer = Tracer()
    tracer.install()
    try:
        missing = expect - tracer.patched_modules(resolvent)
        if missing:
            problems.append(f"resolvent not wrapped in {sorted(missing)}")
        wrapped = set(wrapped_bindings(snap))
        problems.extend(f"{_label(owner, attr)} not wrapped"
                        for _, places in snap.values()
                        for owner, attr in places
                        if _label(owner, attr) not in wrapped)
    finally:
        tracer.uninstall()
    problems.extend(f"{label} not restored"
                    for label in wrapped_bindings(snap))
    return problems
