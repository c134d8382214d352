"""Declarative INI run configuration with dotted-path overrides.

A run is described by one INI file with four sections: ``[model]`` (task,
sizes, synthetic-data parameters), ``[training]`` (loop hyperparameters and
the root seed), ``[method]`` (loss selection and its hyperparameters), and
``[paths]`` (output location). Command-line overrides use dotted key paths
like ``training.seed=3333``. Every random draw in a run flows from the one
root seed, which is what makes experiment matrices diff-able and re-runnable.

The keys are the fields of ``ModelConfig``, ``DataConfig`` and
``TrainConfig``: a value is parsed by its field's annotation, defaults to the
field's default, and is checked by the dataclass, whose errors are reported
under the INI key. Only ``method.ablation_methods`` and ``paths.output_dir``
are not fields of a run.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

from .trainer import ConfigError, DataConfig, ModelConfig, TrainConfig, check_g_kind


def _parse_str_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


# dataclass -> field name -> the (section, key) it is read from
INI_KEYS = {cls: {f.name: tuple(f.metadata.get("ini", f"{cls.SECTION}.{f.name}").split("."))
                  for f in fields(cls)}
            for cls in (ModelConfig, DataConfig, TrainConfig)}

# (section, key) -> (parser, default); a None default with no file value stays None
KEYS = {INI_KEYS[cls][f.name]: ({"int": int, "float": float, "str": str}[f.type],
                                None if f.default is MISSING else f.default)
        for cls in INI_KEYS for f in fields(cls)}
KEYS[("method", "ablation_methods")] = (_parse_str_list, None)
KEYS[("paths", "output_dir")] = (str, None)


def entry_name(label: str) -> str:
    """The run directory name of ablation entry ``label``: ``:`` is written ``_``."""
    return label.replace(":", "_")


@dataclass(frozen=True)
class RunConfig:
    """One parsed configuration file and its typed, validated views.

    ``values`` (section -> key -> value) is the record a run's manifest writes.
    Building a ``RunConfig`` checks the model and data keys, and the training
    and method keys too when it names a method.
    """

    values: dict

    def __post_init__(self):
        self.model, self.data  # each view checks its keys when first read
        if self.get("method", "name") is not None:
            self.train

    def get(self, section: str, key: str):
        return self.values[section][key]

    def _view(self, cls, check=None):
        """``cls`` built from its keys; an error names the INI key, not the field."""
        keys = INI_KEYS[cls]
        try:
            view = cls(**{name: self.get(*key) for name, key in keys.items()})
            if check is not None:
                check(view)
        except ConfigError as exc:
            raise ConfigError(exc.message, field=".".join(keys[exc.field])) from exc
        return view

    @cached_property
    def model(self) -> ModelConfig:
        return self._view(ModelConfig)

    @cached_property
    def data(self) -> DataConfig:
        return self._view(DataConfig)

    @cached_property
    def train(self) -> TrainConfig:
        if self.get("method", "name") is None:
            raise ConfigError("a method name is required", field="method.name")
        return self._view(TrainConfig, lambda train: check_g_kind(self.model, train))

    @property
    def config_hash(self) -> str:
        """SHA-256 of the resolved model, data and training configs as canonical JSON.

        ``paths.output_dir`` and ``method.ablation_methods`` are not part of it.
        """
        import hashlib  # on first use: its OpenSSL library is 3.7 MB resident (x86_64 Linux)
        views = {"model": asdict(self.model), "data": asdict(self.data),
                 "train": asdict(self.train)}
        return hashlib.sha256(json.dumps(views, sort_keys=True).encode()).hexdigest()

    def ablation_entries(self) -> list[tuple[str, RunConfig]]:
        """(label, run config) for each row of the ablation matrix, each one validated.

        Entries are method names, optionally suffixed ``:g_kind`` to pin
        the teacher-selection metric for that row; every other key is shared.
        No two entries may share a run directory (``entry_name``).
        """
        labels = self.values["method"]["ablation_methods"]
        if not labels:
            raise ConfigError("an ablation run needs a method list",
                              field="method.ablation_methods")
        entries = []
        for label in labels:
            if entry_name(label) in (entry_name(seen) for seen, _ in entries):
                raise ConfigError(f"entry {label!r} repeats a run directory",
                                  field="method.ablation_methods")
            name, _, g_kind = label.partition(":")
            method = {**self.values["method"], "name": name,
                      "g_kind": g_kind or self.values["method"]["g_kind"]}
            try:
                entries.append((label, RunConfig({**self.values, "method": method})))
            except ConfigError as exc:
                raise ConfigError(f"ablation entry {label!r}: {exc.message}",
                                  field=exc.field) from exc
        return entries


def _parse_sections(parser: configparser.ConfigParser) -> dict:
    known = {section for section, _ in KEYS}
    if parser.defaults():  # configparser's defaults, which every section would inherit
        raise ConfigError("unknown section", field=parser.default_section)
    for section in parser.sections():
        if section not in known:
            raise ConfigError("unknown section", field=section)
        for key in parser[section]:
            if (section, key) not in KEYS:
                raise ConfigError("unknown key", field=f"{section}.{key}")

    values: dict = {}
    for (section, key), (parse, default) in KEYS.items():
        raw = parser.get(section, key, fallback=None)
        try:
            values.setdefault(section, {})[key] = default if raw is None else parse(raw)
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
    for (section, key), value in map(parse_override, overrides):  # the last one wins
        parser.read_dict({section: {key: value}})  # keys fold case as in the file
    return RunConfig(values=_parse_sections(parser))
