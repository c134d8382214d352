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

This module owns the run schema (those dataclasses, ``ConfigError``, ``METHODS``
and ``check_g_kind``); its one import from the package is ``registry.G_KINDS``.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import ClassVar, NamedTuple

from .registry import G_KINDS


class ConfigError(ValueError):
    """An invalid or unknown configuration value, with the offending field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.message = message
        self.field = field


def _check(cfg, rule: str, ok, *names: str) -> None:
    """Refuse the first field of ``names`` whose value fails ``ok``, naming that field."""
    for name in names:
        value = getattr(cfg, name)
        if not ok(value):
            raise ConfigError(f"{rule}, got {value!r}", field=name)


def _ini(path: str, default=MISSING):
    """A field read from the INI key ``path`` ("section.key"), not ``SECTION.<field>``."""
    return field(default=default, metadata={"ini": path})


class Method(NamedTuple):
    """Cross entropy against ``(1-alpha) * onehot + alpha * prior``, as data.

    ``prior``: ``uniform``, ``unigram``, ``teacher`` (a past checkpoint of
    the same model) or None (the confidence penalty, which has no mixture).
    ``alpha``: ``zero``, ``fixed``, ``adaptive`` (per position) or ``linear``.
    """

    prior: str | None
    alpha: str


METHODS = {
    "base_ce": Method("uniform", "zero"),
    "uniform_ls": Method("uniform", "fixed"),
    "unigram_ls": Method("unigram", "fixed"),
    "conf_penalty": Method(None, "zero"),
    "adaptive_skd": Method("teacher", "adaptive"),
    "fixed_alpha_skd": Method("teacher", "fixed"),
    "adaptive_alpha_uniform": Method("uniform", "adaptive"),
    "linear_alpha_skd": Method("teacher", "linear"),
}


@dataclass(frozen=True)
class ModelConfig:
    SECTION: ClassVar[str] = "model"

    task: str = "classification"
    n_classes: int = _ini("model.classes", 10)
    input_dim: int = 16
    hidden: int = 64
    vocab: int = 12
    embed: int = 8

    def __post_init__(self):
        _check(self, "must be classification or seq_transduction",
               lambda task: task in ("classification", "seq_transduction"), "task")
        _check(self, "must be >= 2", lambda n: n >= 2, "n_classes")
        _check(self, "must be positive", lambda n: n >= 1, "input_dim", "hidden", "embed")
        _check(self, "must be >= 3 (a pad id and two symbols)", lambda n: n >= 3, "vocab")


@dataclass(frozen=True)
class DataConfig:
    """The synthetic dataset that ``make_task_data`` draws for a model."""

    SECTION: ClassVar[str] = "model"

    train_size: int = 1500
    val_size: int = 500
    test_size: int = 2000
    label_noise: float = 0.15
    separation: float = 0.6
    min_len: int = 4
    max_len: int = 9

    def __post_init__(self):
        _check(self, "must be positive", lambda n: n >= 1,
               "train_size", "val_size", "test_size", "min_len")
        _check(self, f"must be <= max_len ({self.max_len})", lambda n: n <= self.max_len, "min_len")
        _check(self, "label_noise must lie in [0, 1)", lambda p: 0.0 <= p < 1.0, "label_noise")
        _check(self, "must be finite and non-negative", lambda s: 0.0 <= s < math.inf, "separation")


@dataclass(frozen=True)
class TrainConfig:
    SECTION: ClassVar[str] = "training"

    method: str = _ini("method.name")
    g_kind: str = _ini("method.g_kind", "accuracy")
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.35
    warmup_steps: int = 300
    momentum: float = 0.9
    seed: int = 0
    fixed_alpha: float = _ini("method.fixed_alpha", 0.1)
    beta: float = _ini("method.beta", 0.78)
    max_alpha: float = _ini("method.max_alpha", 0.7)

    def __post_init__(self):
        _check(self, f"must be one of {tuple(METHODS)}", METHODS.__contains__, "method")
        _check(self, f"must be one of {G_KINDS}", G_KINDS.__contains__, "g_kind")
        _check(self, "must be positive", lambda n: n >= 1, "epochs", "batch_size")
        _check(self, "must lie in [0, 1]", lambda a: 0.0 <= a <= 1.0, "fixed_alpha", "max_alpha")
        _check(self, "must be non-negative", lambda n: n >= 0, "warmup_steps", "seed")
        _check(self, "must be finite and positive", lambda r: 0.0 < r < math.inf, "learning_rate")
        _check(self, "must lie in [0, 1)", lambda m: 0.0 <= m < 1.0, "momentum")
        _check(self, "must be finite and non-negative", lambda b: 0.0 <= b < math.inf, "beta")


def check_g_kind(model_cfg: ModelConfig, cfg: TrainConfig) -> None:
    """Refuse a validation metric that the task cannot score."""
    if cfg.g_kind == "mini_bleu" and model_cfg.task != "seq_transduction":
        raise ConfigError("mini_bleu requires a sequence task", field="g_kind")


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
