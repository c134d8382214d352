import pytest

from alskd.config import ConfigError, load_config, parse_override

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
        assert cfg.output_dir is None

    def test_builders(self, load_text):
        cfg = load_text(MINIMAL)
        model_cfg = cfg.model_config()
        train_cfg = cfg.train_config()
        assert model_cfg.n_classes == 4
        assert train_cfg.method == "base_ce"
        assert train_cfg.seed == 7
        assert cfg.data_kwargs()["train_size"] == 120

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
            cfg.model_config()
        assert len(load_config("configs/ablation.ini").ablation_entries()) == 6


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
            cfg.train_config()
        assert err.value.field == "method.name"

    def test_range_violation_wrapped(self, load_text):
        with pytest.raises(ConfigError):
            load_text(MINIMAL.replace("epochs = 2", "epochs = 0")).train_config()


class TestOverrides:
    def test_override_applies(self, load_text):
        cfg = load_text(MINIMAL, overrides=["training.seed=3333", "model.hidden=9"])
        assert cfg.seed == 3333
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
        entries = cfg.ablation_entries()
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
