"""Configuration parsing, the experiment registry, and the CLI."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import monosee.bsde
from monosee import ConfigError, NonconvergenceError
from monosee.cli import main
from monosee.config import (ExperimentConfig, apply_overrides, load_config,
                            parse_config)
from monosee.analysis import rho_k_modulus, zero_limit_check
from monosee.experiments import (EXPERIMENTS, TIMESTEP_T_FINAL_FLOOR,
                                 ExperimentEntry, resolve_output_dir,
                                 run_experiment, svg_series,
                                 validate_experiment, write_csv)

GOOD = """
[experiment]
name = bihari_table

[problem]
rho_kind = linear

[numerics]
t_final = 1.0

[monte_carlo]
seed = 42
"""


# ---------------------------------------------------------------------------
# configuration


def test_parse_config_types_and_sections():
    cfg = parse_config(GOOD)
    assert cfg.experiment == "bihari_table"
    assert cfg.problem["rho_kind"] == "linear"
    assert isinstance(cfg.numerics["t_final"], float)
    assert cfg.monte_carlo["seed"] == 42
    assert isinstance(cfg.monte_carlo["seed"], int)
    assert cfg.output == {}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"problem\.plutonium"):
        parse_config("[experiment]\nname = bihari_table\n"
                     "[problem]\nplutonium = 9\n")


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match=r"\[wormholes\]"):
        parse_config("[experiment]\nname = bihari_table\n[wormholes]\nx = 1\n")


def test_parse_config_requires_experiment_name():
    with pytest.raises(ConfigError, match=r"experiment\.name"):
        parse_config("[problem]\np = 3\n")
    with pytest.raises(ConfigError, match=r"experiment\.name"):
        parse_config("")


def test_parse_config_rejects_fractional_int():
    with pytest.raises(ConfigError, match=r"monte_carlo\.replicas"):
        parse_config("[experiment]\nname = bihari_table\n"
                     "[monte_carlo]\nreplicas = 3.5\n")


def test_parse_config_rejects_non_numeric_float():
    with pytest.raises(ConfigError, match=r"numerics\.t_final"):
        parse_config("[experiment]\nname = bihari_table\n"
                     "[numerics]\nt_final = soon\n")


def test_apply_overrides_replaces_values():
    cfg = parse_config(GOOD)
    out = apply_overrides(cfg, ["numerics.t_final=2.5",
                                "problem.rho_kind=rho_k"])
    assert out.numerics["t_final"] == 2.5
    assert out.problem["rho_kind"] == "rho_k"
    # the original is not mutated
    assert cfg.numerics["t_final"] == 1.0


@pytest.mark.parametrize("item", ["t_final=1", "numerics.dt=1", "oops"])
def test_apply_overrides_rejects_malformed(item):
    cfg = parse_config(GOOD)
    with pytest.raises(ConfigError):
        apply_overrides(cfg, [item])


@pytest.mark.parametrize("section, key, raw", [
    ("problem", "plutonium", "9"),       # unknown key
    ("problem", "kernel", "exponential"),  # a key with one value, retired
    ("wormholes", "x", "1"),             # unknown section
    ("numerics", "t_final", "soon"),     # unparsable float
    ("monte_carlo", "replicas", "3.5"),  # fractional int
])
def test_file_and_override_values_share_one_validator(section, key, raw):
    with pytest.raises(ConfigError) as from_file:
        parse_config(f"[experiment]\nname = bihari_table\n"
                     f"[{section}]\n{key} = {raw}\n")
    item = f"{section}.{key}={raw}"
    with pytest.raises(ConfigError) as from_override:
        apply_overrides(parse_config(GOOD), [item])
    assert str(from_override.value) == f"override {item!r}: {from_file.value}"


def test_mixed_case_key_means_the_same_in_a_file_and_an_override():
    from_file = parse_config(GOOD.replace("t_final = 1.0", "T_final = 3"))
    from_override = apply_overrides(parse_config(GOOD),
                                    ["numerics.T_final=3"])
    assert from_file.numerics == from_override.numerics == {"t_final": 3.0}
    assert from_file.echo() == from_override.echo()


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/nowhere.ini")


def test_echo_is_plain_and_complete():
    cfg = parse_config(GOOD)
    echo = cfg.echo()
    assert echo["experiment"] == {"name": "bihari_table"}
    assert echo["monte_carlo"] == {"seed": 42}
    json.dumps(echo)  # must be serializable as-is


# ---------------------------------------------------------------------------
# artifact helpers


def test_write_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["t", "note"], [[0.1, "plain"], [1.0 / 3.0, 'a,"b"']])
    raw = path.read_bytes().decode("utf-8")
    lines = raw.split("\r\n")
    assert lines[0] == "t,note"
    # 17 significant digits and RFC-4180 quoting
    assert lines[1] == "0.10000000000000001,plain"
    assert lines[2] == '0.33333333333333331,"a,""b"""'
    assert raw.endswith("\r\n")


def test_svg_series_emits_polylines(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.linspace(0.0, 1.0, 11)
    svg_series(path, x, {"rise": x ** 2, "fall": 1.0 - x}, title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "demo" in text


def test_resolve_output_dir_env_root(monkeypatch, tmp_path):
    cfg = ExperimentConfig(experiment="bihari_table")
    monkeypatch.setenv("MONOSEE_OUTPUT_ROOT", str(tmp_path))
    out = resolve_output_dir(cfg)
    assert out == tmp_path / "runs" / "bihari_table"
    # an absolute directory wins over the root
    cfg2 = ExperimentConfig(experiment="bihari_table",
                            output={"directory": str(tmp_path / "abs")})
    assert resolve_output_dir(cfg2) == tmp_path / "abs"
    monkeypatch.delenv("MONOSEE_OUTPUT_ROOT")
    cfg3 = ExperimentConfig(experiment="bihari_table",
                            output={"directory": "rel"})
    assert not resolve_output_dir(cfg3).is_absolute()


# ---------------------------------------------------------------------------
# registry and validation


EXPECTED_EXPERIMENTS = {
    "porous_medium_demo", "reaction_diffusion_demo", "galerkin_convergence",
    "timestep_convergence", "pathwise_uniqueness", "hypothesis_report",
    "bsde_linear_validation", "bsde_picard_demo", "functional_delay_demo",
    "volterra_consistency", "bihari_table",
}


def test_registry_names():
    assert set(EXPERIMENTS) == EXPECTED_EXPERIMENTS


def test_validate_unknown_experiment():
    problems = validate_experiment(ExperimentConfig(experiment="warp_drive"))
    assert len(problems) == 1
    assert "warp_drive" in problems[0]


def test_validate_names_the_exponent_constraint():
    cfg = ExperimentConfig(experiment="porous_medium_demo",
                           problem={"p": 1.5})
    problems = validate_experiment(cfg)
    assert any("p >= 2" in p and "1.5" in p for p in problems)


def test_validate_default_configs_pass():
    for name in EXPECTED_EXPERIMENTS:
        assert validate_experiment(ExperimentConfig(experiment=name)) == []


def test_validate_reports_every_problem_at_once():
    cfg = ExperimentConfig(experiment="porous_medium_demo",
                           problem={"p": 1.5, "n_grid": 1},
                           numerics={"t_final": -1.0})
    problems = validate_experiment(cfg)
    assert len(problems) >= 3


def test_validate_galerkin_needs_the_top_of_the_mode_ladder():
    for n_grid in (1, 63):
        cfg = ExperimentConfig(experiment="galerkin_convergence",
                               problem={"n_grid": n_grid})
        assert any("n_grid must be >= 64" in p
                   for p in validate_experiment(cfg))
    cfg = ExperimentConfig(experiment="galerkin_convergence",
                           problem={"n_grid": 64})
    assert validate_experiment(cfg) == []


@pytest.mark.parametrize("problem, fragment", [
    ({"rho_k": 0}, "integer k >= 1"),
    ({"rho_c0": -1.0}, "c0 > 0"),
    ({"rho_eta": 0.5}, "rho would decrease"),
    ({"rho_k": 2, "rho_eta": 0.13}, "rho would decrease"),
    ({"rho_k": 4}, "eta in (0, 1)"),
])
def test_validate_bihari_builds_the_modulus(problem, fragment):
    cfg = ExperimentConfig(experiment="bihari_table",
                           problem={"rho_kind": "rho_k", **problem})
    problems = validate_experiment(cfg)
    assert len(problems) == 1 and fragment in problems[0]


@pytest.mark.parametrize("demo", ["porous_medium_demo",
                                  "reaction_diffusion_demo"])
@pytest.mark.parametrize("key, value, fragment", [
    ("resolvent_tol", 0.0, "resolvent_tol must be positive"),
    ("resolvent_max_iter", 0, "resolvent_max_iter must be >= 1"),
    # recorded once, as not finite, and not again by SolverConfig
    ("resolvent_tol", math.nan, "resolvent_tol must be finite"),
])
def test_validate_demo_builds_the_solver_config(tmp_path, capsys, demo, key,
                                                value, fragment):
    cfg = ExperimentConfig(experiment=demo, numerics={key: value})
    problems = validate_experiment(cfg)
    assert len(problems) == 1 and fragment in problems[0]
    # validate and run agree: both reject it, with exit code 2
    path = _write(tmp_path, f"[experiment]\nname = {demo}\n")
    setting = f"numerics.{key}={value}"
    assert main(["validate", path, "--set", setting]) == 2
    assert main(["run", path, "--set", setting, "--set",
                 f"output.directory={tmp_path / 'out'}"]) == 2
    assert fragment in capsys.readouterr().err


REJECTED = [
    # settings that used to pass validate and then crash the run
    ("bsde_linear_validation", "monte_carlo.replicas=2"),
    ("bsde_linear_validation", "monte_carlo.replicas=0"),
    ("bsde_linear_validation", "numerics.basis_degree=-1"),
    ("bsde_linear_validation", "numerics.resolvent_tol=0"),
    ("bsde_linear_validation", "numerics.resolvent_max_iter=0"),
    ("bsde_linear_validation", "numerics.n_steps=2"),
    ("bsde_linear_validation", "numerics.t_final=0.5"),
    ("bsde_picard_demo", "monte_carlo.replicas=2"),
    ("bsde_picard_demo", "monte_carlo.replicas=0"),
    ("bsde_picard_demo", "numerics.max_iter=0"),
    ("pathwise_uniqueness", "numerics.n_modes=100"),
    ("pathwise_uniqueness", "problem.n_grid=1"),
    ("timestep_convergence", "problem.n_grid=1"),
    ("hypothesis_report", "problem.n_grid=1"),
    # horizons below the floor: errors at rounding level, whose halving
    # ratios fail a sound scheme, down to a finest step that underflows
    ("timestep_convergence", "numerics.t_final=1e-8"),
    ("timestep_convergence", "numerics.t_final=5e-324"),
    ("volterra_consistency", "numerics.n_steps=1"),
    ("volterra_consistency", "numerics.n_steps=2"),
    # a memory window of 1.5 steps: the past would lie off the step grid
    ("volterra_consistency", "numerics.n_steps=6"),
    ("functional_delay_demo", "numerics.max_iter=0"),
    ("functional_delay_demo", "numerics.tol=0"),
    ("hypothesis_report", "monte_carlo.replicas=-3"),
    # a time step that underflows to 0
    ("porous_medium_demo", "numerics.t_final=5e-324"),
    ("bsde_picard_demo", "numerics.t_final=5e-324"),
    ("functional_delay_demo", "numerics.t_final=5e-324"),
    # non-finite or negative float settings
    ("porous_medium_demo", "numerics.resolvent_tol=nan"),
    ("porous_medium_demo", "problem.u0_scale=nan"),
    ("bsde_picard_demo", "problem.kappa=nan"),
    ("bsde_picard_demo", "numerics.tol=nan"),
    ("bsde_picard_demo", "numerics.tol=-1"),
    # unknown enum values
    ("bihari_table", "problem.rho_kind=cubic"),
    # a linear bound e^t_final past BOUND_CAP = 1e300 (t_final > 690.78)
    ("bihari_table", "numerics.t_final=691"),
    ("bihari_table", "numerics.t_final=800"),
    # a negative seed keys no noise substream (every seeded experiment)
    ("porous_medium_demo", "monte_carlo.seed=-4"),
    ("reaction_diffusion_demo", "monte_carlo.seed=-4"),
    ("galerkin_convergence", "monte_carlo.seed=-1"),
    ("pathwise_uniqueness", "monte_carlo.seed=-1"),
    ("hypothesis_report", "monte_carlo.seed=-1"),
    ("bsde_linear_validation", "monte_carlo.seed=-1"),
    ("bsde_picard_demo", "monte_carlo.seed=-1"),
    ("functional_delay_demo", "monte_carlo.seed=-1"),
    ("volterra_consistency", "monte_carlo.seed=-1"),
    # a Newton target tol * (1 + |x|) below what float64 can meet
    ("porous_medium_demo", "numerics.resolvent_tol=1e-17"),
    ("reaction_diffusion_demo", "numerics.resolvent_tol=1e-16"),
]

ACCEPTED = [
    # every documented enum value
    ("bihari_table", ("problem.rho_kind=linear",)),
    ("bihari_table", ("problem.rho_kind=rho_k", "problem.rho_k=1")),
    ("bihari_table", ("problem.rho_kind=rho_k", "problem.rho_k=2")),
    ("bihari_table", ("problem.rho_kind=rho_k", "problem.rho_k=3")),
    # the one two-time kernel, which no key selects
    ("volterra_consistency", ()),
    # the smallest backward runs validate lets through
    ("bsde_linear_validation", ("monte_carlo.replicas=3",
                                "numerics.n_steps=3")),
    ("bsde_linear_validation", ("numerics.basis_degree=0",
                                "monte_carlo.replicas=1")),
    ("bsde_picard_demo", ("monte_carlo.replicas=3", "numerics.n_steps=1",
                          "numerics.max_iter=1")),
    # keys the experiment never reads
    ("timestep_convergence", ("numerics.n_steps=0",)),
    ("timestep_convergence", ("problem.p=1.5",)),
    # a multiple of 4 steps: the memory window is whole steps on both grids
    ("volterra_consistency", ("numerics.n_steps=8",)),
    # the smallest forward tolerance validate lets through, 4 epsilons
    ("reaction_diffusion_demo", ("numerics.resolvent_tol=8.9e-16",)),
    # shorter than one step of 4e-3: solves of 1, 2 and 4 steps
    ("timestep_convergence", ("numerics.t_final=0.001",)),
]


def _validate_then_run(tmp_path, capsys, experiment, settings):
    path = _write(tmp_path, f"[experiment]\nname = {experiment}\n")
    overrides = [arg for item in settings for arg in ("--set", item)]
    validated = main(["validate", path, *overrides])
    out = tmp_path / "out"
    ran = main(["run", path, *overrides, "--set", f"output.directory={out}"])
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    return validated, ran, manifest


@pytest.mark.parametrize("experiment, setting", REJECTED)
def test_validate_rejects_what_run_cannot_complete(tmp_path, capsys,
                                                   experiment, setting):
    validated, ran, manifest = _validate_then_run(tmp_path, capsys,
                                                  experiment, [setting])
    assert validated == 2
    assert ran == 2
    assert manifest["error"].startswith("ConfigError: ")


@pytest.mark.parametrize("experiment, settings", ACCEPTED)
def test_validated_configs_run_to_a_verdict(tmp_path, capsys, experiment,
                                            settings):
    validated, ran, manifest = _validate_then_run(tmp_path, capsys,
                                                  experiment, settings)
    assert validated == 0
    assert ran in (0, 1)
    assert manifest["error"] is None


@pytest.mark.parametrize("settings", [
    ("problem.p=8",), ("problem.p=10",), ("problem.p=20",),
    ("problem.n_grid=32", "numerics.n_steps=3")])
def test_porous_medium_demo_ledger_holds_where_it_validates(
        tmp_path, capsys, settings):
    # step k charges lambda_i(t_k) |X_{k+1}|^{q_i}, at the state it solves
    # for; charged at X_k, these runs validated and then exceeded the
    # a-priori budget
    validated, ran, manifest = _validate_then_run(
        tmp_path, capsys, "porous_medium_demo", settings)
    assert (validated, ran) == (0, 0)
    verdicts = {a["name"]: a for a in manifest["assertions"]}
    assert verdicts["apriori_within_budget"]["passed"], \
        verdicts["apriori_within_budget"]["detail"]


SMALL_INT = st.integers(-3, 70)
SMALL_FLOAT = st.floats(-1.0, 2.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(problem=st.fixed_dictionaries(
           {}, optional={"n_grid": SMALL_INT, "lag_steps": SMALL_INT}),
       numerics=st.fixed_dictionaries(
           {}, optional={"n_steps": SMALL_INT, "n_modes": SMALL_INT,
                         "basis_degree": SMALL_INT, "max_iter": SMALL_INT,
                         "t_final": SMALL_FLOAT, "tol": SMALL_FLOAT}),
       monte_carlo=st.fixed_dictionaries({}, optional={"replicas": SMALL_INT}))
# steps that underflow to 0 or overflow their reciprocal
@example(problem={}, numerics={"t_final": 5e-324}, monte_carlo={})
@example(problem={}, numerics={"t_final": 1e-310}, monte_carlo={})
def test_validate_never_raises(problem, numerics, monte_carlo):
    for name in EXPECTED_EXPERIMENTS:
        problems = validate_experiment(ExperimentConfig(
            experiment=name, problem=problem, numerics=numerics,
            monte_carlo=monte_carlo))
        assert isinstance(problems, list)
        assert all(isinstance(p, str) for p in problems)


CONFIG_FILES = sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    assert validate_experiment(load_config(path)) == []


def test_run_refuses_invalid_config(tmp_path):
    cfg = ExperimentConfig(experiment="porous_medium_demo",
                           problem={"p": 1.5},
                           output={"directory": str(tmp_path)})
    with pytest.raises(ConfigError, match="p >= 2"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# running experiments


def _config(name, tmp_path, **kwargs):
    return ExperimentConfig(experiment=name,
                            output={"directory": str(tmp_path / name)},
                            **kwargs)


def test_bihari_table_linear_closed_form(tmp_path):
    result = run_experiment(_config("bihari_table", tmp_path))
    assert result.passed
    rows = (result.out_dir / "bihari_bound.csv").read_bytes().decode(
        "utf-8").rstrip("\r\n").split("\r\n")
    assert rows[0] == "t,bound"
    t_last, bound_last = rows[-1].split(",")
    assert float(t_last) == 1.0
    assert abs(float(bound_last) - math.e) <= 1e-10
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    assert manifest["experiment"] == "bihari_table"
    assert manifest["error"] is None
    assert all(a["passed"] for a in manifest["assertions"])


def test_bihari_table_linear_t_final_stops_at_the_bound_cap(tmp_path):
    past = validate_experiment(ExperimentConfig(
        experiment="bihari_table", numerics={"t_final": 691.0}))
    assert len(past) == 1 and "log(BOUND_CAP) = 690.776" in past[0]
    # rho_1 grows slower than e^t: its bound at t_final = 800 is finite
    assert validate_experiment(ExperimentConfig(
        experiment="bihari_table", problem={"rho_kind": "rho_k"},
        numerics={"t_final": 800.0})) == []
    result = run_experiment(_config("bihari_table", tmp_path,
                                    numerics={"t_final": 690.0}))
    assert result.passed
    assert [a.name for a in result.outcome.assertions] == [
        "matches_exponential_closed_form", "bound_nondecreasing"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bihari_table_rho_k_default_eta(tmp_path, capsys, k):
    path = _write(tmp_path, GOOD)
    code = main(["run", path, "--set", "problem.rho_kind=rho_k",
                 "--set", f"problem.rho_k={k}",
                 "--set", f"output.directory={tmp_path / 'out'}"])
    capsys.readouterr()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["error"] is None
    verdicts = {a["name"]: a["passed"] for a in manifest["assertions"]}
    assert verdicts["bound_nondecreasing"]
    t = np.linspace(0.0, 1.0, 101)
    report = zero_limit_check(np.ones_like(t), rho_k_modulus(k), t)
    assert verdicts["vanishing_initial_gap_forces_zero"] is report.vanishes
    assert code == (0 if report.vanishes else 1)
    # the check samples g0 down to 1e-12 only: rho_2 and rho_3 vanish so
    # slowly (iterated logs) that their end bounds there stay above the
    # 1e-3 threshold, so at t_final = 1 only k = 1 passes it
    if k == 1:
        assert report.vanishes


def test_experiment_rerun_is_byte_identical(tmp_path):
    cfg_a = _config("volterra_consistency", tmp_path / "a")
    cfg_b = _config("volterra_consistency", tmp_path / "b")
    res_a = run_experiment(cfg_a)
    res_b = run_experiment(cfg_b)
    assert res_a.passed and res_b.passed
    name = "volterra_consistency.csv"
    assert (res_a.out_dir / name).read_bytes() \
        == (res_b.out_dir / name).read_bytes()


# small configs of the experiments that record solver counters
STATS_CONFIGS = {
    "porous_medium_demo": ({"n_steps": 40}, {"replicas": 3}),
    "galerkin_convergence": ({"n_steps": 20}, {}),
    "timestep_convergence": ({}, {}),
    "pathwise_uniqueness": ({"n_steps": 20}, {}),
    "bsde_linear_validation": ({"n_steps": 16}, {"replicas": 400}),
    "bsde_picard_demo": ({"n_steps": 8}, {"replicas": 200}),
}


def _stats_run(tmp_path, experiment, name):
    numerics, monte_carlo = STATS_CONFIGS[experiment]
    cfg = _config(experiment, tmp_path / name, numerics=numerics,
                  monte_carlo=monte_carlo)
    result = run_experiment(cfg)
    assert result.passed
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    csv_text = "".join(f.read_text() for f in result.out_dir.glob("*.csv"))
    return manifest, csv_text


def test_demo_solver_stats_repeat_and_stay_out_of_summary(tmp_path):
    stats = {}
    summaries = {}
    for experiment in STATS_CONFIGS:
        first, csv_text = _stats_run(tmp_path, experiment, "a")
        second, _ = _stats_run(tmp_path, experiment, "b")
        stats[experiment] = first["solver_stats"]
        summaries[experiment] = first["summary"]
        assert stats[experiment] == second["solver_stats"]
        assert not set(stats[experiment]) & set(first["summary"])
        assert not any(key in csv_text for key in stats[experiment])

    # forward steps: replicas x steps for the demo; one single-path solve
    # per mode count (4), per step size (50 + 100 + 200 steps at
    # t_final = 0.2) and per initial state (the base and 3 perturbed)
    forward_steps = {"porous_medium_demo": 3 * 40,
                     "galerkin_convergence": 4 * 20,
                     "timestep_convergence": 50 + 100 + 200,
                     "pathwise_uniqueness": 4 * 20}
    for experiment, steps in forward_steps.items():
        forward = stats[experiment]
        assert set(forward) == {"forward_steps", "newton_iterations",
                                "line_search_halvings"}
        assert forward["forward_steps"] == steps
        if experiment != "timestep_convergence":  # pinned to 0 below
            assert forward["newton_iterations"] >= steps // 2 > 0
        assert forward["line_search_halvings"] >= 0
    # the heat drift is linear: every implicit step is solved in closed
    # form, with no Newton iteration
    assert stats["timestep_convergence"]["newton_iterations"] == 0
    # one solve: one sweep over 16 steps, every design factored once; the
    # linear drift's implicit step is solved in closed form, with no
    # Newton iteration; the zero driver is evaluated once
    assert stats["bsde_linear_validation"] == {
        "backward_sweeps": 1, "regression_factorizations": 17,
        "regression_fits": 3 * 16 + 1, "newton_iterations": 0,
        "line_search_halvings": 0, "driver_evaluations": 1}
    # two solves (Picard in z, Picard in x) over 8 steps, many sweeps
    picard = stats["bsde_picard_demo"]
    assert picard["regression_factorizations"] == 2 * 9
    assert picard["backward_sweeps"] > 2
    assert picard["regression_fits"] == picard["backward_sweeps"] * (3 * 8 + 1)
    assert picard["newton_iterations"] == 0
    assert picard["line_search_halvings"] == 0
    # the z solve evaluates its driver up front and after every sweep but
    # the last, one per recorded residual; the z-independent x driver once
    # per outer sweep
    summary = summaries["bsde_picard_demo"]
    assert picard["driver_evaluations"] == summary["z_iterations"] \
        + summary["x_outer_iterations"]


def test_picard_demo_skips_refreshing_a_z_independent_driver(tmp_path,
                                                           monkeypatch):
    # the x driver declares z_dependent=False: one driver matrix per outer
    # sweep (6 sweeps), none spent re-checking the exact inner fixed point
    calls = Counter()
    original = monosee.bsde._driver_matrix

    def counting(driver, *args, **kwargs):
        calls[driver.name] += 1
        return original(driver, *args, **kwargs)

    monkeypatch.setattr(monosee.bsde, "_driver_matrix", counting)
    result = run_experiment(_config("bsde_picard_demo", tmp_path))
    assert result.passed
    assert result.outcome.summary["x_outer_iterations"] == 6
    assert calls["concave-modulus coupling in x"] == 6


def test_experiments_import_loads_no_scipy():
    code = ("import sys, monosee.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(monosee.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


BLAS_PRESETS = [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2",
                                     "OMP_NUM_THREADS": None,
                                     "MKL_NUM_THREADS": None})]


def _blas_env(root, preset, want):
    env = {key: value for key, value in os.environ.items()
           if key not in want}
    env.update(preset, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    return env


@pytest.mark.parametrize("preset, want", BLAS_PRESETS)
def test_cli_pins_one_blas_thread_unless_one_is_set(tmp_path, preset, want):
    root = Path(__file__).parents[1]
    env = _blas_env(root, preset, want)
    subprocess.run([sys.executable, "-m", "monosee.cli", "run",
                    str(root / "configs" / "bihari_table.ini"), "--set",
                    f"output.directory={tmp_path / 'out'}"],
                   capture_output=True, text=True, check=True, env=env)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["blas_threads"] == want
    assert "blas_threads" not in manifest["summary"]
    assert "blas_threads" not in manifest["solver_stats"]
    assert not any("THREADS" in path.read_text()
                   for path in (tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("preset, want", BLAS_PRESETS)
def test_run_digests_pins_one_blas_thread_unless_one_is_set(tmp_path, preset,
                                                            want):
    root = Path(__file__).parents[1]
    subprocess.run([sys.executable, str(root / "tools" / "run_digests.py"),
                    str(root / "src"), str(tmp_path), "volterra_consistency"],
                   capture_output=True, text=True, check=True,
                   env=_blas_env(root, preset, want))
    for run in ("default", "1001", "17017", "31031"):
        manifest = json.loads((tmp_path / "volterra_consistency" / run
                               / "manifest.json").read_text())
        assert manifest["blas_threads"] == want


def test_run_digests_repeats_for_a_named_experiment(tmp_path):
    root = Path(__file__).parents[1]
    names = ("bsde_picard_demo", "functional_delay_demo",
             "volterra_consistency", "bihari_table")
    labels = (*names, *(f"bihari_table.rho_k{k}" for k in (1, 2, 3)))

    def digest(name):
        out = subprocess.run(
            [sys.executable, str(root / "tools" / "run_digests.py"),
             str(root / "src"), str(tmp_path / name), *names],
            capture_output=True, text=True, check=True)
        return out.stdout.splitlines()

    first = digest("a")
    assert first == digest("b")
    assert {line.split()[0] for line in first} == {
        f"{label}/{run}" for label in labels
        for run in ("default", "1001", "17017", "31031")}
    assert any("manifest:solver_stats" in line for line in first)
    # every run of the memory experiments writes its CSVs and no error
    for name, csv in (("functional_delay_demo", "delay_trajectory.csv"),
                      ("volterra_consistency", "volterra_consistency.csv")):
        assert sum(line.startswith(f"{name}/") and f" {csv} " in line
                   for line in first) == 4


REACH_TAGS = re.compile(r"(item (4|6|8|12)|error path|benchmark|accessor): \S")


def _reach_allowlist(path):
    """name -> reason of each entry of ``tools/reach_allowlist.txt``."""
    entries = {}
    for line in path.read_text("utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            assert name not in entries, f"{name} listed twice"
            entries[name] = reason.strip()
    return entries


def test_every_function_no_run_reaches_is_allowlisted():
    """The reachability ledger: every function of src/monosee that no run
    of tools/reach.py reaches is named in the allowlist with a tagged
    reason, and every entry still names one, so the list only shrinks."""
    root = Path(__file__).parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "tools" / "reach.py"), str(root / "src")],
        capture_output=True, text=True, check=True).stdout.splitlines()
    unreached = {line.split()[0] for line in out[:-1]}
    assert out[-1].startswith(f"total: {len(out) - 1} functions, ")
    allowed = _reach_allowlist(root / "tools" / "reach_allowlist.txt")
    assert sorted(unreached - set(allowed)) == [], "unreached, not allowlisted"
    assert sorted(set(allowed) - unreached) == [], "allowlisted, not unreached"
    assert [name for name, reason in allowed.items()
            if not REACH_TAGS.match(reason)] == []


def _tool_module(name):
    path = Path(__file__).parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_gain_and_bound_verdicts():
    compare = _tool_module("ab_pairs").compare
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # lower in 9 of 10 pairs, medians 0.3 apart against a 0.035 parent IQR
    change = [0.7] * 9 + [1.5]
    m = compare(parent, change, "lower", bound=0.24)
    assert m["wins"] == {"change": 9, "parent": 1, "ties": 0}
    assert m["gain"] and m["bound"] == "ok"
    assert m["parent"]["median"] == 1.0
    assert (m["parent"]["q1"], m["parent"]["q3"]) == pytest.approx((0.9825, 1.0175))
    # 8 of 10 is below nine tenths; a tie counts for neither side
    assert not compare(parent, [0.7] * 8 + [1.5, 0.98], "lower")["gain"]
    assert compare(parent, [0.7] * 8 + [1.5, 0.98], "lower")["wins"]["ties"] == 1
    # a missing run wins for neither side but counts among the pairs
    short = compare(parent, [0.7] * 8 + [None, None], "lower")
    assert short["wins"]["change"] == 8 and not short["gain"]
    # 10 of 10, but the medians differ by less than the parent's IQR
    assert not compare(parent, [p - 0.01 for p in parent], "lower")["gain"]
    # a failed or incorrect run voids the gain
    assert not compare(parent, change, "lower", runs_sound=False)["gain"]
    # "higher" flips the direction
    assert compare([-p for p in parent], [-c for c in change], "higher")["gain"]
    assert not compare(parent, change, "higher")["gain"]
    # bounds: worse by 30% > 24%; spread past the bound; every run better
    assert compare(parent, [1.3] * 10, "lower", bound=0.24)["bound"] == "worse"
    wide = [0.5, 1.5] * 5
    assert compare(parent, wide, "lower", bound=0.24)["bound"] == "unresolved"
    assert compare(wide, [0.4] * 10, "lower", bound=0.24)["bound"] == "ok"


def _stub_checkout(root, speed):
    # a benchmark whose run reports wall_s = speed and logs its arguments
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "from pathlib import Path\n"
        "with open('runs.log', 'a') as log:\n"
        "    log.write(' '.join(sys.argv[1:]) + '\\n')\n"
        "speed = float(Path('speed.txt').read_text())\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,\n"
        "    'metrics': {'wall_s': {'value': speed, 'unit': 's'}}}))\n")
    (root / "speed.txt").write_text(str(speed))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"], "paths": ["perfbench"],
        "run_seconds": 3, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.24}],
        "per_layer": []}))
    return root


def test_ab_pairs_runs_alternating_pairs_and_refuses(tmp_path, capsys):
    main = _tool_module("ab_pairs").main
    parent = _stub_checkout(tmp_path / "parent", 1.0)
    change = _stub_checkout(tmp_path / "change", 0.5)
    out = tmp_path / "ab.json"
    assert main([str(parent), str(change), "--pairs", "3", "--first-seed",
                 "11", "--out", str(out), "w"]) == 0
    report = json.loads(out.read_text())
    runs = report["workloads"]["w"]["runs"]
    assert [(r["seed"], r["first"]) for r in runs] == [
        (11, "parent"), (12, "change"), (13, "parent")]
    assert runs[0]["change"] == {"exit": 0, "correct": True, "failed": 0,
                                 "metrics": {"wall_s": 0.5}}
    assert (parent / "runs.log").read_text().splitlines() == [
        f"--workload w --seed {s} --seconds 3 --trace 0" for s in (11, 12, 13)]
    wall = report["workloads"]["w"]["metrics"]["wall_s"]
    assert wall["gain"] and wall["bound"] == "ok"
    assert wall["wins"] == {"change": 3, "parent": 0, "ties": 0}
    # an existing FILE is never overwritten
    before = out.read_bytes()
    assert main([str(parent), str(change), "--pairs", "1", "--out", str(out),
                 "w"]) == 2
    assert out.read_bytes() == before
    # nor are two different benchmarks compared
    (change / "perfbench" / "gate.py").write_text("")
    assert main([str(parent), str(change), "--pairs", "1", "--out",
                 str(tmp_path / "other.json"), "w"]) == 2
    assert "perfbench/gate.py" in capsys.readouterr().err
    assert not (tmp_path / "other.json").exists()
    assert len((parent / "runs.log").read_text().splitlines()) == 3


def _digest_tree(root, cells, summary, stats=None):
    # one run_digests.py run directory: a CSV and a manifest
    run = root / "demo" / "default"
    run.mkdir(parents=True)
    text = "".join(",".join(row) + "\r\n" for row in [["n", "d"], *cells])
    (run / "table.csv").write_text(text, encoding="utf-8", newline="")
    (run / "plot.svg").write_text(str(len(cells)))
    (run / "manifest.json").write_text(json.dumps({
        "summary": summary, "assertions": [{"name": "a", "passed": True}],
        "solver_stats": stats or {"iterations": 3}, "error": None,
        "wall_clock_seconds": len(cells)}))
    return root


def test_compare_runs_reports_float_gaps_and_refuses_the_rest(tmp_path,
                                                             capsys):
    main = _tool_module("compare_runs").main
    base = _digest_tree(tmp_path / "a", [["1", "0.5"], ["2", "0.25"]],
                        {"d": [0.5, 0.25], "n": 2})

    def run(name, cells, summary, stats=None):
        tree = _digest_tree(tmp_path / name, cells, summary, stats)
        code = main([str(base), str(tree)])
        return code, capsys.readouterr().out.splitlines()

    # same numbers (wall clock and SVG aside): silent
    assert run("same", [["1", "0.5"], ["2", "0.25"]],
               {"d": [0.5, 0.25], "n": 2}) == (0, [])
    # floats only: each artifact with its largest gaps
    code, out = run("float", [["1", "0.5"], ["2", "0.2500000001"]],
                    {"d": [0.5000000002, 0.25], "n": 2})
    assert code == 0
    assert out == ["demo/default manifest:summary max_abs 2e-10 "
                   "max_rel 4e-10",
                   "demo/default table.csv max_abs 1e-10 max_rel 4e-10"]
    # a float may move by the benchmark gate's 1e-9 + 1e-6 * |A's value|,
    # and no further: 0.25 -> 0.2500002 stays inside, 0.2500003 does not
    assert run("inside", [["1", "0.5"], ["2", "0.2500002"]],
               {"d": [0.5, 0.2500002], "n": 2})[0] == 0
    code, out = run("beyond", [["1", "0.5"], ["2", "0.2500003"]],
                    {"d": [0.5, 0.2500003], "n": 2})
    assert code == 1
    assert "demo/default table.csv row 2 cell 1: 0.25 != 0.2500003 beyond " \
           "the gate's tolerance" in out
    assert "demo/default manifest:summary summary.d[1]: 0.25 != 0.2500003 " \
           "beyond the gate's tolerance" in out
    # an int, a bool, a string, a type, a shape or a key that changed
    for name, cells, summary, stats, words in [
            ("int", [["1", "0.5"], ["3", "0.25"]], None, None, "'2' != '3'"),
            ("rows", [["1", "0.5"]], None, None, "3 rows != 2 rows"),
            ("n", [["1", "0.5"], ["2", "0.25"]], {"d": [0.5, 0.25], "n": 3},
             None, "summary.n: 2 != 3"),
            ("type", [["1", "0.5"], ["2", "0.25"]],
             {"d": [0.5, 0.25], "n": 2.0}, None, "summary.n: int 2 != float"),
            ("len", [["1", "0.5"], ["2", "0.25"]], {"d": [0.5], "n": 2},
             None, "summary.d: length 2 != 1"),
            ("key", [["1", "0.5"], ["2", "0.25"]], {"d": [0.5, 0.25]},
             None, "summary.n: on one side only"),
            ("bool", [["1", "0.5"], ["2", "0.25"]],
             {"d": [0.5, 0.25], "n": 2}, {"iterations": True},
             "solver_stats.iterations: int 3 != bool True")]:
        code, out = run(name, cells, summary or {"d": [0.5, 0.25], "n": 2},
                        stats)
        assert code == 1, name
        assert any(words in line for line in out), (name, out)
    # a file on one side only
    tree = _digest_tree(tmp_path / "extra", [["1", "0.5"], ["2", "0.25"]],
                        {"d": [0.5, 0.25], "n": 2})
    (tree / "demo" / "default" / "more.csv").write_text("x\r\n")
    assert main([str(base), str(tree)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "demo/default more.csv only in B"]


def _perfbench_module(name):
    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_target():
    # the benchmark wraps named functions and methods of the package, so
    # deleting or renaming one of them has to fail here too
    import monosee.experiments  # noqa: F401  (loads every traced module)
    tracer = _perfbench_module("tracer")
    assert tracer.self_test(tracer.snapshot()) == []


def test_benchmark_correctness_gate_passes_at_one_seed_class(tmp_path,
                                                            monkeypatch):
    # every operation of every workload, judged against the recorded
    # reference outcome the way a benchmark run judges it: a changed
    # summary key, summary value or assertion name shows up here first
    workloads = _perfbench_module("workloads")
    gate = _perfbench_module("gate")
    monkeypatch.setenv("MONOSEE_OUTPUT_ROOT", str(tmp_path))
    reference = gate.load_reference()["workloads"]
    cls = 0
    judged = {}
    for workload in workloads.WORKLOADS.values():
        refs = reference[workload.name][str(cls)]
        for op, prepared in zip(workload.ops,
                                workloads.prepare(workload, cls)):
            record = workloads.run_op(op, prepared, tmp_path)
            reasons, mismatch = gate.judge(record, refs.get(op.name),
                                           record.digests)
            judged[f"{workload.name}/{op.name}"] = (mismatch, reasons)
    assert len(judged) == sum(len(w.ops) for w in workloads.WORKLOADS.values())
    assert {name: v for name, v in judged.items() if v[0]} == {}


def test_manifest_written_on_failure(tmp_path):
    cfg = _config("functional_delay_demo", tmp_path,
                  numerics={"tol": 1e-30, "max_iter": 2})
    with pytest.raises(NonconvergenceError):
        run_experiment(cfg)
    manifest = json.loads(
        (tmp_path / "functional_delay_demo" / "manifest.json").read_text())
    assert manifest["error"].startswith("NonconvergenceError")
    assert manifest["assertions"] == []
    assert manifest["config"]["numerics"]["max_iter"] == 2


def test_manifest_records_any_exception(tmp_path, monkeypatch, capsys):
    bihari_setup = EXPERIMENTS["bihari_table"].setup

    def crashing_setup(s):
        bihari_setup(s)

        def crash(out_dir):
            raise ValueError("planted failure")
        return crash

    monkeypatch.setitem(EXPERIMENTS, "bihari_table", ExperimentEntry(
        crashing_setup, "crashes"))
    with pytest.raises(ValueError, match="planted failure"):
        run_experiment(_config("bihari_table", tmp_path / "direct"))
    path = _write(tmp_path, GOOD)
    out = tmp_path / "cli"
    assert main(["run", path, "--set", f"output.directory={out}"]) == 2
    assert "ValueError: planted failure" in capsys.readouterr().err
    for directory in (tmp_path / "direct" / "bihari_table", out):
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["error"] == "ValueError: planted failure"


def test_timestep_convergence_assertions(tmp_path):
    result = run_experiment(_config("timestep_convergence", tmp_path))
    assert result.passed
    ratios = result.outcome.summary["ratios"]
    assert all(1.7 <= r <= 2.3 for r in ratios)


def test_timestep_convergence_passes_at_its_t_final_floor(tmp_path):
    """The shortest horizon validate accepts still resolves the step
    error: every halving ratio lies in [1.7, 2.3], and validate names
    the floor for a horizon below it."""
    result = run_experiment(_config("timestep_convergence", tmp_path,
                                    numerics={"t_final":
                                              TIMESTEP_T_FINAL_FLOOR}))
    assert result.passed
    assert all(1.7 <= r <= 2.3 for r in result.outcome.summary["ratios"])
    problems = validate_experiment(ExperimentConfig(
        experiment="timestep_convergence", numerics={"t_final": 1e-8}))
    assert problems == ["numerics.t_final = 1e-08 is below 1e-06: the step "
                        "errors would sink to rounding level"]


@pytest.mark.parametrize("t_final, steps", [(0.21, (52, 104, 208)),
                                            (0.0026314, (1, 2, 4))])
def test_timestep_convergence_labels_the_steps_it_used(tmp_path, t_final,
                                                       steps):
    """The solves take n, 2n and 4n steps, n = max(1, round(t_final /
    4e-3)), and every written dt is the step t_final / n_i its solve
    used, so no two solves are the same solve."""
    result = run_experiment(_config("timestep_convergence", tmp_path,
                                    numerics={"t_final": t_final}))
    rows = (result.out_dir / "timestep_errors.csv").read_bytes().decode(
        "utf-8").rstrip("\r\n").split("\r\n")
    assert rows[0] == "dt,sup_h_error"
    assert [float(row.split(",")[0]) for row in rows[1:]] == \
        [t_final / n for n in steps]
    assert result.outcome.solver_stats["forward_steps"] == sum(steps)
    errors = result.outcome.summary["errors"]
    assert len(set(errors)) == 3


# ---------------------------------------------------------------------------
# command line


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_EXPERIMENTS:
        assert name in out


def test_cli_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, GOOD)
    assert main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_rejects_small_exponent(tmp_path, capsys):
    path = _write(tmp_path, "[experiment]\nname = porous_medium_demo\n"
                            "[problem]\np = 1.5\n")
    assert main(["validate", path]) == 2
    assert "p >= 2" in capsys.readouterr().err


def test_cli_run_bihari(tmp_path, capsys):
    path = _write(tmp_path, GOOD)
    code = main(["run", path, "--set",
                 f"output.directory={tmp_path / 'out'}"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_run_reports_assertion_failure(tmp_path, capsys):
    # a coupling too strong for three sweeps: the run completes, the
    # recorded residual check fails, and the process reports exit code 1
    path = _write(tmp_path, "[experiment]\nname = bsde_picard_demo\n")
    code = main(["run", path,
                 "--set", "problem.kappa=3.9",
                 "--set", "numerics.max_iter=3",
                 "--set", f"output.directory={tmp_path / 'out'}"])
    assert code == 1
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "failed" in captured.err


def test_cli_exit_2_on_config_errors(tmp_path, capsys):
    bad_key = _write(tmp_path, "[experiment]\nname = bihari_table\n"
                               "[problem]\nplutonium = 9\n", "bad.ini")
    assert main(["run", bad_key]) == 2
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    assert main(["validate", bad_key]) == 2
    capsys.readouterr()


def test_cli_exit_2_on_numeric_error(tmp_path, capsys):
    path = _write(tmp_path, "[experiment]\nname = functional_delay_demo\n")
    code = main(["run", path,
                 "--set", "numerics.tol=1e-30",
                 "--set", "numerics.max_iter=2",
                 "--set", f"output.directory={tmp_path / 'out'}"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
