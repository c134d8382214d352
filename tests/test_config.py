import json

import pytest

from alskd.config import ConfigError, load_config, parse_override

# ``load_config(...).values`` of the shipped configs, written out in full: every
# default and type that a run manifest records is pinned here, not read back
# from the dataclasses.
CLASSIFICATION_MODEL = {
    "task": "classification", "classes": 10, "input_dim": 16, "hidden": 64, "vocab": 12,
    "embed": 8, "train_size": 1500, "val_size": 500, "test_size": 2000, "label_noise": 0.15,
    "separation": 0.6, "min_len": 4, "max_len": 9}
CLASSIFICATION_TRAINING = {"epochs": 30, "batch_size": 64, "learning_rate": 0.35,
                           "warmup_steps": 300, "momentum": 0.9, "seed": 0}
SHIPPED_VALUES = {
    "classification": {
        "model": CLASSIFICATION_MODEL,
        "training": CLASSIFICATION_TRAINING,
        "method": {"name": "adaptive_skd", "g_kind": "accuracy", "fixed_alpha": 0.1,
                   "beta": 0.78, "max_alpha": 0.7, "ablation_methods": None},
        "paths": {"output_dir": "runs/classification"},
    },
    "ablation": {
        "model": CLASSIFICATION_MODEL,
        "training": CLASSIFICATION_TRAINING,
        "method": {"name": None, "g_kind": "accuracy", "fixed_alpha": 0.1, "beta": 0.78,
                   "max_alpha": 0.7,
                   "ablation_methods": ["base_ce", "fixed_alpha_skd", "adaptive_alpha_uniform",
                                        "linear_alpha_skd", "adaptive_skd:nll",
                                        "adaptive_skd:accuracy"]},
        "paths": {"output_dir": "runs/ablation"},
    },
    "sequence": {
        "model": {"task": "seq_transduction", "classes": 10, "input_dim": 16, "hidden": 32,
                  "vocab": 12, "embed": 8, "train_size": 600, "val_size": 200,
                  "test_size": 200, "label_noise": 0.1, "separation": 0.6, "min_len": 4,
                  "max_len": 9},
        "training": {"epochs": 20, "batch_size": 32, "learning_rate": 0.3, "warmup_steps": 120,
                     "momentum": 0.9, "seed": 0},
        "method": {"name": "adaptive_skd", "g_kind": "mini_bleu", "fixed_alpha": 0.1,
                   "beta": 0.78, "max_alpha": 0.7, "ablation_methods": None},
        "paths": {"output_dir": "runs/sequence"},
    },
}

MINIMAL = """
[model]
task = classification
classes = 4
input_dim = 5
hidden = 6
train_size = 120
val_size = 40
test_size = 40
label_noise = 0.1

[training]
epochs = 2
batch_size = 32
seed = 7

[method]
name = base_ce
"""


@pytest.fixture
def load_text(tmp_path):
    """``load_config`` of an INI text written to a file under ``tmp_path``."""
    def load(text, overrides=()):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return load_config(path, overrides)
    return load


class TestParsing:
    def test_values_and_defaults(self, load_text):
        cfg = load_text(MINIMAL)
        assert cfg.get("model", "classes") == 4
        assert cfg.get("training", "seed") == 7
        assert cfg.get("method", "g_kind") == "accuracy"  # schema default
        assert cfg.get("paths", "output_dir") is None

    def test_builders(self, load_text):
        cfg = load_text(MINIMAL)
        model_cfg = cfg.model
        train_cfg = cfg.train
        assert model_cfg.n_classes == 4
        assert train_cfg.method == "base_ce"
        assert train_cfg.seed == 7
        assert cfg.data.train_size == 120

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        assert load_config(path).get("model", "hidden") == 6

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_shipped_configs_parse(self):
        for name in ("classification", "ablation", "sequence"):
            cfg = load_config(f"configs/{name}.ini")
            cfg.model
        assert len(load_config("configs/ablation.ini").ablation_entries()) == 6

    @pytest.mark.parametrize("name", sorted(SHIPPED_VALUES))
    def test_shipped_configs_resolve_to_the_recorded_values(self, name):
        # compared as the manifest writes them, where 10 and 10.0 differ
        values = load_config(f"configs/{name}.ini").values
        assert json.dumps(values, sort_keys=True) == json.dumps(SHIPPED_VALUES[name],
                                                                sort_keys=True)


class TestValidation:
    def test_unknown_method_names_the_field(self, load_text):
        with pytest.raises(ConfigError) as err:
            load_text(MINIMAL.replace("name = base_ce", "name = focal_loss"))
        assert err.value.field == "method.name"
        assert "focal_loss" in str(err.value)

    def test_unknown_key_names_the_field(self, load_text):
        with pytest.raises(ConfigError) as err:
            load_text(MINIMAL + "\noptimizer = adam\n")
        assert err.value.field == "method.optimizer"

    def test_unknown_section(self, load_text):
        with pytest.raises(ConfigError) as err:
            load_text(MINIMAL + "\n[logging]\nlevel = debug\n")
        assert err.value.field == "logging"

    def test_bad_value_type(self, load_text):
        with pytest.raises(ConfigError) as err:
            load_text(MINIMAL.replace("epochs = 2", "epochs = two"))
        assert err.value.field == "training.epochs"

    def test_missing_method_name(self, load_text):
        cfg = load_text(MINIMAL.replace("name = base_ce", ""))
        with pytest.raises(ConfigError) as err:
            cfg.train
        assert err.value.field == "method.name"

    def test_range_violation_wrapped(self, load_text):
        with pytest.raises(ConfigError):
            load_text(MINIMAL.replace("epochs = 2", "epochs = 0")).train


class TestOverrides:
    def test_override_applies(self, load_text):
        cfg = load_text(MINIMAL, overrides=["training.seed=3333", "model.hidden=9"])
        assert cfg.get("training", "seed") == 3333
        assert cfg.get("model", "hidden") == 9

    def test_override_unknown_key(self, load_text):
        with pytest.raises(ConfigError) as err:
            load_text(MINIMAL, overrides=["model.depth=3"])
        assert err.value.field == "model.depth"

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            parse_override("training.seed")
        with pytest.raises(ConfigError):
            parse_override("seed=3")


class TestAblationEntries:
    def test_entries_with_metric_suffix(self, load_text):
        cfg = load_text(MINIMAL + "\nablation_methods = base_ce, adaptive_skd:nll\n")
        entries = [(label, e.train.method, e.train.g_kind) for label, e in cfg.ablation_entries()]
        assert entries[0] == ("base_ce", "base_ce", "accuracy")
        assert entries[1] == ("adaptive_skd:nll", "adaptive_skd", "nll")

    def test_missing_list_rejected(self, load_text):
        with pytest.raises(ConfigError) as err:
            load_text(MINIMAL).ablation_entries()
        assert err.value.field == "method.ablation_methods"

    def test_unknown_entry_rejected(self, load_text):
        cfg = load_text(MINIMAL + "\nablation_methods = base_ce, mixup\n")
        with pytest.raises(ConfigError):
            cfg.ablation_entries()
        cfg = load_text(MINIMAL + "\nablation_methods = adaptive_skd:rouge\n")
        with pytest.raises(ConfigError):
            cfg.ablation_entries()


class TestConfigHash:
    def test_output_dir_and_ablation_list_keep_the_hash(self, load_text):
        base = load_text(MINIMAL).config_hash
        assert len(base) == 64
        assert load_text(MINIMAL, ["paths.output_dir=elsewhere"]).config_hash == base
        assert load_text(MINIMAL, ["method.ablation_methods=base_ce"]).config_hash == base

    def test_every_run_key_changes_the_hash(self, load_text):
        cfg = load_text(MINIMAL)
        other = {"model.task": "seq_transduction", "method.name": "uniform_ls",
                 "method.g_kind": "nll"}
        hashes = {cfg.config_hash}
        for section, keys in cfg.values.items():
            for key, value in keys.items():
                path = f"{section}.{key}"
                if path in ("method.ablation_methods", "paths.output_dir"):
                    continue
                if path not in other:  # every int and float key of MINIMAL stays valid
                    other[path] = value + 1 if isinstance(value, int) else value / 2
                hashes.add(load_text(MINIMAL, [f"{path}={other[path]}"]).config_hash)
        assert len(other) == 24 and len(hashes) == 25
