"""Structured-text experiment configuration.

Experiments take ~20 parameters, so configuration lives in an INI-style
file with sections, not in flags: ``[experiment]`` names the registry
entry, ``[problem]`` selects operators and coefficients, ``[numerics]``
carries solver parameters, ``[monte_carlo]`` the replica plan, and
``[output]`` the artifact directory.  Command-line ``--set
section.key=value`` pairs override file values.  Unknown sections or
keys are rejected with the offending field path, and every value is
type-checked here so no experiment starts on malformed input.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ConfigError

__all__ = ["ExperimentConfig", "load_config", "parse_config",
           "apply_overrides", "SCHEMA"]

# the BLAS thread count's variables: pinned by the CLI, in every manifest
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# permitted keys per section, with the type each value must parse as
SCHEMA = {
    "experiment": {
        "name": str,
    },
    "problem": {
        "p": float,             # degenerate-diffusion exponent, >= 2
        "n_grid": int,
        "u0_mode": int,         # initial state = u0_scale * e_{u0_mode}
        "u0_scale": float,
        "kappa": float,         # delay / driver coupling strength
        "lag_steps": int,       # memory horizon in units of dt
        "rho_kind": str,        # linear | rho_k
        "rho_k": int,
        "rho_c0": float,
        "rho_eta": float,
    },
    "numerics": {
        "n_modes": int,
        "n_steps": int,
        "t_final": float,
        "resolvent_tol": float,
        "resolvent_max_iter": int,
        "tol": float,
        "max_iter": int,
        "basis_degree": int,
    },
    "monte_carlo": {
        "replicas": int,
        "seed": int,
    },
    "output": {
        "directory": str,
    },
}


def _store(config: ExperimentConfig, section: str, items) -> None:
    """Check each ``(key, raw)`` of ``section`` against SCHEMA, parse it as
    its declared type and store it on ``config``: the one gate that file
    values and overrides both pass.  Keys are lower-cased first, as
    ``configparser`` does for the keys it reads from a file."""
    if section not in SCHEMA:
        raise ConfigError(f"unknown section [{section}]; known: "
                          f"{', '.join(SCHEMA)}")
    for key, raw in items:
        key = key.lower()
        kind = SCHEMA[section].get(key)
        if kind is None:
            raise ConfigError(f"unknown key {section}.{key}; known keys in "
                              f"[{section}]: {', '.join(SCHEMA[section])}")
        text = raw.strip()
        try:
            # reject silent float->int truncation: 3.5 replicas is a typo
            if kind is int and any(c in text for c in ".eE") \
                    and not text.lstrip("+-").isdigit():
                raise ValueError("not an integer")
            value = kind(text)
        except ValueError:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as "
                              f"{kind.__name__}") from None
        if section == "experiment":
            config.experiment = value
        else:
            getattr(config, section)[key] = value


@dataclass
class ExperimentConfig:
    """One validated experiment request: name plus typed section maps."""

    experiment: str
    problem: dict = field(default_factory=dict)
    numerics: dict = field(default_factory=dict)
    monte_carlo: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    source: Optional[str] = None

    def section(self, name: str) -> dict:
        if name not in SCHEMA:
            raise ConfigError(f"unknown section {name!r}")
        if name == "experiment":
            return {"name": self.experiment}
        return getattr(self, name)

    def get(self, section: str, key: str, default=None):
        table = self.section(section)
        if key not in SCHEMA.get(section, {}):
            raise ConfigError(f"unknown key {section}.{key}")
        return table.get(key, default)

    def echo(self) -> dict:
        """A plain serializable copy, for the run manifest."""
        return {
            "experiment": {"name": self.experiment},
            "problem": dict(self.problem),
            "numerics": dict(self.numerics),
            "monte_carlo": dict(self.monte_carlo),
            "output": dict(self.output),
        }


def parse_config(text: str, source: Optional[str] = None) -> ExperimentConfig:
    """Parse and type-check INI-style configuration text."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source or "<config>")
    except configparser.Error as err:
        raise ConfigError(f"malformed configuration: {err}") from None

    config = ExperimentConfig(experiment="", source=source)
    for section in parser.sections():
        _store(config, section, parser.items(section))
    if not config.experiment:
        raise ConfigError("missing required field experiment.name")
    return config


def load_config(path, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Read a config file and apply ``section.key=value`` overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{err.strerror or err}") from None
    config = parse_config(text, source=str(path))
    return apply_overrides(config, overrides)


def apply_overrides(config: ExperimentConfig,
                    overrides: Sequence[str]) -> ExperimentConfig:
    """A new config with ``section.key=value`` pairs applied on top."""
    config = ExperimentConfig(experiment=config.experiment,
                              problem=dict(config.problem),
                              numerics=dict(config.numerics),
                              monte_carlo=dict(config.monte_carlo),
                              output=dict(config.output),
                              source=config.source)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form "
                              f"section.key=value")
        target, raw = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override target {target!r} must be "
                              f"section.key")
        section, key = target.split(".", 1)
        try:
            _store(config, section, [(key, raw)])
        except ConfigError as err:
            raise ConfigError(f"override {item!r}: {err}") from None
    if not config.experiment:
        raise ConfigError("missing required field experiment.name")
    return config
