"""Configuration parsing, the experiment registry, and the CLI."""

import json
import math

import numpy as np
import pytest

from monosee import ConfigError, NonconvergenceError
from monosee.cli import main
from monosee.config import (ExperimentConfig, apply_overrides, load_config,
                            parse_config)
from monosee.analysis import rho_k_modulus, zero_limit_check
from monosee.experiments import (EXPERIMENTS, ExperimentEntry,
                                 resolve_output_dir, run_experiment,
                                 svg_series, validate_experiment, write_csv)

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
    # unknown enum values
    ("bihari_table", "problem.rho_kind=cubic"),
    ("volterra_consistency", "problem.kernel=gaussian"),
]

ACCEPTED = [
    # every documented enum value
    ("bihari_table", ("problem.rho_kind=linear",)),
    ("bihari_table", ("problem.rho_kind=rho_k", "problem.rho_k=1")),
    ("bihari_table", ("problem.rho_kind=rho_k", "problem.rho_k=2")),
    ("bihari_table", ("problem.rho_kind=rho_k", "problem.rho_k=3")),
    ("volterra_consistency", ("problem.kernel=exponential",)),
    # the smallest backward runs validate lets through
    ("bsde_linear_validation", ("monte_carlo.replicas=3",
                                "numerics.n_steps=3")),
    ("bsde_linear_validation", ("numerics.basis_degree=0",
                                "monte_carlo.replicas=1")),
    ("bsde_picard_demo", ("monte_carlo.replicas=3", "numerics.n_steps=1",
                          "numerics.max_iter=1")),
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


def _demo_manifest(tmp_path, name):
    cfg = _config("porous_medium_demo", tmp_path / name,
                  numerics={"n_steps": 40}, monte_carlo={"replicas": 3})
    result = run_experiment(cfg)
    assert result.passed
    return json.loads((result.out_dir / "manifest.json").read_text())


def test_demo_solver_stats_repeat_and_stay_out_of_summary(tmp_path):
    first = _demo_manifest(tmp_path, "a")
    second = _demo_manifest(tmp_path, "b")
    stats = first["solver_stats"]
    assert stats == second["solver_stats"]
    assert stats["forward_steps"] == 3 * 40
    assert stats["newton_iterations"] >= stats["forward_steps"] // 2 > 0
    assert stats["line_search_halvings"] >= 0
    assert not set(stats) & set(first["summary"])


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
    def crash(config, out_dir):
        raise ValueError("planted failure")

    monkeypatch.setitem(EXPERIMENTS, "bihari_table", ExperimentEntry(
        crash, EXPERIMENTS["bihari_table"].validate, "crashes"))
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
