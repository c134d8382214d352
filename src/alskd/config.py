"""Declarative INI run configuration with dotted-path overrides.

A run is described by one INI file with four sections: ``[model]`` (task,
sizes, synthetic-data parameters), ``[training]`` (loop hyperparameters and
the root seed), ``[method]`` (loss selection and its hyperparameters), and
``[paths]`` (output location). Command-line overrides use dotted key paths
like ``training.seed=3333``. Every random draw in a run flows from the one
root seed, which is what makes experiment matrices diff-able and re-runnable.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .registry import G_KINDS
from .trainer import METHODS, ModelConfig, TrainConfig


class ConfigError(ValueError):
    """Invalid or unknown configuration, with the offending field path."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


def _parse_str_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _enum(*allowed: str):
    def parse(text: str) -> str:
        value = text.strip()
        if value not in allowed:
            raise ValueError(f"expected one of {allowed}, got {value!r}")
        return value
    return parse


# section -> key -> (parser, default). A None default with no file value
# stays None; required keys are enforced by the consumers that need them.
SCHEMA: dict[str, dict[str, tuple]] = {
    "model": {
        "task": (_enum("classification", "seq_transduction"), "classification"),
        "classes": (int, 10),
        "input_dim": (int, 16),
        "hidden": (int, 64),
        "vocab": (int, 12),
        "embed": (int, 8),
        "train_size": (int, 1500),
        "val_size": (int, 500),
        "test_size": (int, 2000),
        "label_noise": (float, 0.15),
        "separation": (float, 0.6),
        "min_len": (int, 4),
        "max_len": (int, 9),
    },
    "training": {
        "epochs": (int, 30),
        "batch_size": (int, 64),
        "learning_rate": (float, 0.35),
        "warmup_steps": (int, 300),
        "momentum": (float, 0.9),
        "seed": (int, 0),
    },
    "method": {
        "name": (_enum(*METHODS), None),
        "g_kind": (_enum(*G_KINDS), "accuracy"),
        "fixed_alpha": (float, 0.1),
        "beta": (float, 0.78),
        "max_alpha": (float, 0.7),
        "ablation_methods": (_parse_str_list, None),
    },
    "paths": {
        "output_dir": (str, None),
    },
}

@dataclass(frozen=True)
class RunConfig:
    """Typed view of one parsed configuration file."""

    values: dict

    def get(self, section: str, key: str):
        return self.values[section][key]

    def model_config(self) -> ModelConfig:
        m = self.values["model"]
        try:
            return ModelConfig(
                task=m["task"], n_classes=m["classes"], input_dim=m["input_dim"],
                hidden=m["hidden"], vocab=m["vocab"], embed=m["embed"])
        except ValueError as exc:
            raise ConfigError(str(exc), field="model") from exc

    def train_config(self) -> TrainConfig:
        t = self.values["training"]
        me = self.values["method"]
        if me["name"] is None:
            raise ConfigError("a method name is required", field="method.name")
        try:
            return TrainConfig(
                method=me["name"], g_kind=me["g_kind"],
                epochs=t["epochs"], batch_size=t["batch_size"],
                learning_rate=t["learning_rate"], warmup_steps=t["warmup_steps"],
                momentum=t["momentum"], seed=t["seed"],
                fixed_alpha=me["fixed_alpha"], beta=me["beta"],
                max_alpha=me["max_alpha"])
        except ValueError as exc:
            raise ConfigError(str(exc), field="training/method") from exc

    def data_kwargs(self) -> dict:
        m = self.values["model"]
        return dict(
            train_size=m["train_size"], val_size=m["val_size"],
            test_size=m["test_size"], label_noise=m["label_noise"],
            separation=m["separation"], min_len=m["min_len"],
            max_len=m["max_len"])

    @property
    def seed(self) -> int:
        return self.values["training"]["seed"]

    @property
    def output_dir(self) -> str | None:
        return self.values["paths"]["output_dir"]

    def ablation_entries(self) -> list[tuple[str, str, str]]:
        """(label, method, g_kind) rows for the ablation matrix.

        Entries are method names, optionally suffixed ``:g_kind`` to pin
        the teacher-selection metric for that row.
        """
        entries = self.values["method"]["ablation_methods"]
        if not entries:
            raise ConfigError("an ablation run needs a method list",
                              field="method.ablation_methods")
        rows = []
        for label in entries:
            name, _, g_kind = label.partition(":")
            if name not in METHODS:
                raise ConfigError(f"unknown method {name!r}",
                                  field="method.ablation_methods")
            if g_kind and g_kind not in G_KINDS:
                raise ConfigError(f"unknown g_kind {g_kind!r}",
                                  field="method.ablation_methods")
            rows.append((label, name, g_kind or self.values["method"]["g_kind"]))
        return rows


def _parse_sections(parser: configparser.ConfigParser,
                    overrides: dict[tuple[str, str], str]) -> dict:
    known = set(SCHEMA)
    for section in parser.sections():
        if section not in known:
            raise ConfigError("unknown section", field=section)
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError("unknown key", field=f"{section}.{key}")
    for section, key in overrides:
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError("unknown key", field=f"{section}.{key}")

    values: dict = {}
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, (parse, default) in keys.items():
            raw = overrides.get((section, key))
            if raw is None and parser.has_option(section, key):
                raw = parser.get(section, key)
            if raw is None:
                values[section][key] = default
                continue
            try:
                values[section][key] = parse(raw)
            except ValueError as exc:
                raise ConfigError(str(exc), field=f"{section}.{key}") from exc
    return values


def parse_override(text: str) -> tuple[tuple[str, str], str]:
    """Parse one ``section.key=value`` override string."""
    key_part, sep, value = text.partition("=")
    section, dot, key = key_part.partition(".")
    if not sep or not dot or not section or not key:
        raise ConfigError(f"override must look like section.key=value, got {text!r}")
    return (section.strip(), key.strip()), value.strip()


def load_config(path, overrides=()) -> RunConfig:
    """Read and validate an INI config, applying dotted-path overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        with open(config_path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    parsed_overrides = dict(parse_override(item) for item in overrides)
    return RunConfig(values=_parse_sections(parser, parsed_overrides))

