import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from alskd import cli, trainer
from alskd.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, RunDir, main, run_training
from alskd.config import RunConfig
from alskd.gradlab import gradient_ratio
from alskd.losses import ce_loss, kd_loss
from alskd.probs import softmax

TINY = """
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
epochs = 3
batch_size = 32
learning_rate = 0.2
warmup_steps = 10
seed = 0

[method]
name = adaptive_skd
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(TINY)
    return path


def manifest_of(out_dir: Path) -> dict:
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def listed_files(manifest: dict) -> set[str]:
    paths = set()
    for value in manifest["artifacts"].values():
        if isinstance(value, list):
            paths.update(value)
        else:
            paths.add(value)
    return paths


class TestTrainCommand:
    def test_successful_run_writes_all_artifacts(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(tiny_config), "--output", str(out)]) == EXIT_OK
        manifest = manifest_of(out)
        for artifact in listed_files(manifest):
            assert (out / artifact).exists(), artifact
        assert (out / "diagnostics.csv").exists()
        assert (out / "calibration.csv").exists()
        assert "test_ece" in manifest["summary"]
        assert "val_score" in capsys.readouterr().out

    def test_no_orphan_files(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", str(tiny_config), "--output", str(out)])
        manifest = manifest_of(out)
        listed = {str(Path(p)) for p in listed_files(manifest)}
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert on_disk == listed

    def test_seed_override_lands_in_manifest(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", str(tiny_config), "--output", str(out),
              "--seed", "3333"])
        assert manifest_of(out)["seed"] == 3333

    def test_manifest_config_records_the_seed_flag(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", str(tiny_config), "--output", str(out),
              "--seed", "3333", "--set", "training.seed=4"])  # the flag wins over --set
        manifest = manifest_of(out)
        assert manifest["seed"] == manifest["config"]["training"]["seed"] == 3333
        assert manifest["method"] == manifest["config"]["method"]["name"] == "adaptive_skd"
        assert manifest["g_kind"] == manifest["config"]["method"]["g_kind"] == "accuracy"

    def test_every_csv_row_ends_with_crlf(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", str(tiny_config), "--output", str(out)])
        paths = sorted(out.rglob("*.csv"))
        assert [p.name for p in paths] == ["calibration.csv", "diagnostics.csv", "index.csv"]
        for path in paths:
            data = path.read_bytes()
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), path.name

    def test_dotted_override(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", str(tiny_config), "--output", str(out),
              "--set", "method.name=base_ce"])
        assert manifest_of(out)["method"] == "base_ce"

    def test_unknown_method_exits_with_config_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY.replace("name = adaptive_skd", "name = focal"))
        assert main(["train", "--config", str(bad), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "method.name" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,extra,message", [
        ("classes = 4\n" + TINY, [], "malformed config"),  # a key before any section header
        (None, [], "config file not found"),
        (TINY, ["--set", "training.seed"], "override must look like section.key=value"),
    ], ids=["malformed", "missing", "override"])
    def test_unreadable_config_exits_with_config_code(self, tmp_path, capsys, text, extra,
                                                      message):
        path = tmp_path / "run.ini"
        if text is not None:
            path.write_text(text)
        assert main(["train", "--config", str(path), "--output", str(tmp_path / "o"),
                     *extra]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_divergence_exits_with_runtime_code(self, tiny_config, tmp_path, capsys):
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(tiny_config),
                         "--output", str(tmp_path / "o"),
                         "--set", "training.learning_rate=3e38",
                         "--set", "training.warmup_steps=0"])
        assert code == EXIT_RUNTIME
        assert "non-finite" in capsys.readouterr().err

    def test_a_non_finite_validation_score_is_a_runtime_failure(self, tiny_config, tmp_path,
                                                                capsys):
        # one batch per epoch: every training loss stays finite, but epoch 2's validation
        # nll is NaN, which the registry refuses after epoch 1's files are written
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(tiny_config), "--output", str(tmp_path / "o"),
                         "--set", "training.learning_rate=3e38",
                         "--set", "training.warmup_steps=0", "--set", "method.g_kind=nll",
                         "--set", "training.batch_size=120"])
        assert code == EXIT_RUNTIME
        assert "run failed: ValueError: val_score must be finite" in capsys.readouterr().err

    def test_a_lookup_error_is_a_runtime_failure(self, tiny_config, tmp_path, monkeypatch,
                                                 capsys):
        def missing(*args, **kwargs):
            raise KeyError("no such split")

        monkeypatch.setattr(cli, "make_task_data", missing)
        assert main(["train", "--config", str(tiny_config),
                     "--output", str(tmp_path / "o")]) == EXIT_RUNTIME
        raised_at = f"test_cli.py:{missing.__code__.co_firstlineno + 1}"  # its raise line
        assert f"run failed: KeyError: 'no such split' at {raised_at}" in capsys.readouterr().err

    def test_a_closed_stdout_is_an_io_failure_after_every_artifact(self, tiny_config, tmp_path,
                                                                   monkeypatch, capsys):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        out = tmp_path / "out"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["train", "--config", str(tiny_config), "--output", str(out)]) == EXIT_IO
        assert "i/o failure: [Errno 32] Broken pipe" in capsys.readouterr().err
        for artifact in listed_files(manifest_of(out)):
            assert (out / artifact).exists(), artifact

    def test_io_failure_exits_with_io_code(self, tiny_config, tmp_path, monkeypatch):
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch ran before the output directory was checked")

        monkeypatch.setattr(trainer, "forward_backward", no_batch)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["train", "--config", str(tiny_config),
                     "--output", str(blocker)]) == EXIT_IO

    def test_corrupt_checkpoint_exits_with_io_code(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "registry").mkdir(parents=True)
        (out / "registry" / "epoch_00001.ckpt").write_bytes(b"ALSK\x01\x00")
        assert main(["train", "--config", str(tiny_config), "--output", str(out)]) == EXIT_IO
        assert "epoch_00001.ckpt" in capsys.readouterr().err

    def test_rerun_into_a_used_directory_is_refused(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(tiny_config), "--output", str(out)]) == EXIT_OK
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["train", "--config", str(tiny_config), "--output", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(out / "registry") in err and "[1, 2, 3]" in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_output_root_env(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setenv("ALSKD_OUTPUT_ROOT", str(tmp_path / "root"))
        main(["train", "--config", str(tiny_config), "--output", "exp"])
        assert (tmp_path / "root" / "exp" / "manifest.json").exists()


class TestGradlabCommands:
    def test_ratios_alpha_zero_is_identity(self, tmp_path):
        out = tmp_path / "lab"
        assert main(["gradlab", "ratios", "--alpha", "0", "--draws", "20",
                     "--output", str(out)]) == EXIT_OK
        with open(out / "ratios.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            if row["closed_form_ratio"] != "nan":
                assert float(row["closed_form_ratio"]) == pytest.approx(1.0, abs=1e-12)
            assert row["flip"] == "false"

    def test_ratios_match_literal_quotient(self, tmp_path):
        out = tmp_path / "lab"
        main(["gradlab", "ratios", "--alpha", "0.6", "--draws", "50", "--output", str(out)])
        with open(out / "ratios.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        checked = 0
        for row in rows:
            literal, closed = float(row["literal_ratio"]), float(row["closed_form_ratio"])
            if row["is_target"] == "true" or literal != literal or closed != closed:
                continue  # the target identity needs the teacher hypothesis
            assert literal == pytest.approx(closed, abs=1e-9)
            checked += 1
        assert checked > 100

    def test_ratios_columns_are_the_per_draw_scalar_functions(self, tmp_path):
        out = tmp_path / "lab"
        main(["gradlab", "ratios", "--alpha", "0.6", "--classes", "5", "--draws", "40",
              "--seed", "3", "--output", str(out)])
        with open(out / "ratios.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40 * 5
        # replay the command's stream: student logits, teacher logits, target
        rng = np.random.default_rng(3)
        for draw in range(40):
            z_s, z_t, y = rng.normal(size=5), rng.normal(size=5), int(rng.integers(5))
            report = gradient_ratio(softmax(z_s), softmax(z_t), y, 0.6)
            g_ce, g_kd = ce_loss(z_s, y)[1], kd_loss(z_s, z_t, y, 0.6)[1]
            for i, row in enumerate(rows[draw * 5:(draw + 1) * 5]):
                closed = report.ratio_target if i == y else report.ratio_nontarget[i]
                flip = report.flip_target if i == y else report.flip_nontarget[i]
                assert row["closed_form_ratio"] == repr(float(closed))
                assert row["flip"] == str(bool(flip)).lower()
                assert row["ce_grad"] == repr(float(g_ce[i]))
                assert row["kd_grad"] == repr(float(g_kd[i]))

    def test_proposition_reports_zero_violations(self, tmp_path, capsys):
        out = tmp_path / "lab"
        assert main(["gradlab", "proposition", "--trials", "500", "--classes", "10",
                     "--seed", "0", "--output", str(out)]) == EXIT_OK
        assert "violations=0" in capsys.readouterr().out
        with open(out / "proposition.csv", newline="") as fh:
            assert sum(1 for _ in csv.DictReader(fh)) == 500

    def test_flipmap_alpha_zero_all_false(self, tmp_path):
        out = tmp_path / "lab"
        assert main(["gradlab", "flipmap", "--alpha", "0", "--resolution", "25",
                     "--output", str(out)]) == EXIT_OK
        with open(out / "flipmap.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["flip_target"] == "false" for r in rows)

    def test_invalid_counts_exit_config(self, tmp_path):
        out = tmp_path / "lab"
        assert main(["gradlab", "proposition", "--trials", "0",
                     "--output", str(out)]) == EXIT_CONFIG
        assert main(["gradlab", "flipmap", "--alpha", "2.0",
                     "--output", str(out)]) == EXIT_CONFIG
        assert main(["gradlab", "proposition", "--classes", "2",
                     "--output", str(out)]) == EXIT_CONFIG
        assert main(["gradlab", "ratios", "--alpha", "0.5", "--classes", "1",
                     "--output", str(out)]) == EXIT_CONFIG
        assert main(["gradlab", "flipmap", "--alpha", "0.5", "--resolution", "0",
                     "--output", str(out)]) == EXIT_CONFIG
        assert main(["gradlab", "ratios", "--alpha", "0.5", "--seed", "-1",
                     "--output", str(out)]) == EXIT_CONFIG
        assert main(["gradlab", "proposition", "--seed", "-1",
                     "--output", str(out)]) == EXIT_CONFIG
        assert not out.exists()


class TestAblationCommand:
    def ablation_config(self, tmp_path, methods):
        path = tmp_path / "ablation.ini"
        path.write_text(TINY.replace(
            "name = adaptive_skd", f"ablation_methods = {methods}"))
        return path

    def test_matrix_runs_and_emits_table(self, tmp_path, capsys):
        cfg = self.ablation_config(tmp_path, "base_ce, adaptive_skd")
        out = tmp_path / "out"
        assert main(["ablation", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["base_ce", "adaptive_skd"]
        stdout = capsys.readouterr().out
        assert "base_ce" in stdout and "adaptive_skd" in stdout

    def test_entry_manifests_record_the_entry(self, tmp_path):
        cfg = self.ablation_config(tmp_path, "base_ce, adaptive_skd:nll")
        out = tmp_path / "out"
        assert main(["ablation", "--config", str(cfg), "--output", str(out),
                     "--set", "training.seed=2"]) == EXIT_OK
        for run, method, g_kind in [("base_ce", "base_ce", "accuracy"),
                                    ("adaptive_skd_nll", "adaptive_skd", "nll")]:
            manifest = manifest_of(out / "runs" / run)
            config = manifest["config"]
            assert (manifest["method"], manifest["g_kind"], manifest["seed"]) == (method, g_kind, 2)
            assert (config["method"]["name"], config["method"]["g_kind"],
                    config["training"]["seed"]) == (method, g_kind, 2)

    def test_an_entry_has_the_config_hash_of_the_same_train_run(self, tmp_path):
        cfg = self.ablation_config(tmp_path, "base_ce, adaptive_skd:nll")
        assert main(["ablation", "--config", str(cfg), "--output", str(tmp_path / "abl")]) == EXIT_OK
        assert main(["train", "--config", str(cfg), "--output", str(tmp_path / "run"),
                     "--set", "method.name=adaptive_skd", "--set", "method.g_kind=nll"]) == EXIT_OK
        entry_hashes = [manifest_of(tmp_path / "abl" / "runs" / run)["config_hash"]
                        for run in ("adaptive_skd_nll", "base_ce")]
        assert entry_hashes[0] == manifest_of(tmp_path / "run")["config_hash"] != entry_hashes[1]
        assert "config_hash" not in manifest_of(tmp_path / "abl")  # the matrix is not one run

    def test_repeat_invocation_is_identical(self, tmp_path):
        cfg = self.ablation_config(tmp_path, "base_ce, adaptive_skd:nll")
        first = tmp_path / "first"
        second = tmp_path / "second"
        main(["ablation", "--config", str(cfg), "--output", str(first)])
        main(["ablation", "--config", str(cfg), "--output", str(second)])
        assert (first / "ablation.csv").read_text() == (second / "ablation.csv").read_text()

    def test_failing_entry_names_the_method(self, tmp_path, capsys):
        import numpy as np

        cfg = self.ablation_config(tmp_path, "base_ce, adaptive_skd")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["ablation", "--config", str(cfg),
                         "--output", str(tmp_path / "out"),
                         "--set", "training.learning_rate=3e38",
                         "--set", "training.warmup_steps=0"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "base_ce" in err
        # the label line, then the entry's own class, as a failed train run prints it
        assert "ablation entry 'base_ce' failed\nrun failed: DivergenceError:" in err

    def test_io_failure_in_an_entry_exits_with_io_code(self, tmp_path, capsys):
        cfg = self.ablation_config(tmp_path, "base_ce, adaptive_skd")
        out = tmp_path / "out"
        registry = out / "runs" / "base_ce" / "registry"
        registry.mkdir(parents=True)
        (registry / "epoch_00001.ckpt").write_bytes(b"ALSK\x01")
        assert main(["ablation", "--config", str(cfg), "--output", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "base_ce" in err and "epoch_00001.ckpt" in err

    def test_rerun_into_a_used_directory_is_refused(self, tmp_path, capsys):
        cfg = self.ablation_config(tmp_path, "base_ce, adaptive_skd")
        out = tmp_path / "out"
        assert main(["ablation", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["ablation", "--config", str(cfg), "--output", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "base_ce" in err and "already holds epochs [1, 2, 3]" in err

    def test_missing_method_list(self, tmp_path):
        path = tmp_path / "no_list.ini"
        path.write_text(TINY)
        assert main(["ablation", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,extra,field", [
    ("ablation", ["--set", "method.fixed_alpha=2"], "method.fixed_alpha"),
    ("train", [], "method.name"),  # an ablation config names no method.name
    ("train", ["--set", "method.name=base_ce", "--set", "model.classes=1"], "model.classes"),
    ("train", ["--set", "method.name=base_ce", "--set", "method.g_kind=mini_bleu"],
     "method.g_kind"),
    # a later entry's error, found before the first entry trains
    ("ablation", ["--set", "method.ablation_methods=base_ce, adaptive_skd:mini_bleu"],
     "method.g_kind"),
    # data rules, checked by the config dataclasses before the first write
    ("train", ["--set", "method.name=base_ce", "--set", "model.min_len=12"], "model.min_len"),
    ("train", ["--set", "method.name=base_ce", "--set", "model.vocab=2"], "model.vocab"),
    ("ablation", ["--set", "model.train_size=0"], "model.train_size"),
    ("train", ["--set", "method.name=base_ce", "--set", "model.test_size=0"], "model.test_size"),
    # two entries that would write one run directory
    ("ablation", ["--set", "method.ablation_methods=base_ce, base_ce"], "method.ablation_methods"),
    # non-finite or negative floats, refused by the config dataclasses, not by numpy or a
    # non-finite loss; a train run and an ablation entry exit alike
    ("train", ["--set", "method.name=base_ce", "--set", "model.separation=-1"], "model.separation"),
    ("ablation", ["--set", "model.separation=-1"], "model.separation"),
    ("ablation", ["--set", "model.separation=nan"], "model.separation"),
    ("train", ["--set", "method.name=base_ce", "--set", "training.learning_rate=nan"],
     "training.learning_rate"),
    ("train", ["--set", "method.name=base_ce", "--set", "training.momentum=inf"],
     "training.momentum"),
    ("train", ["--set", "method.name=conf_penalty", "--set", "method.beta=inf"], "method.beta"),
    # optimizer and seed ranges: refused by the config, not by numpy or a silent bad run
    ("train", ["--set", "method.name=base_ce", "--seed", "-1"], "training.seed"),
    ("ablation", ["--set", "training.seed=-1"], "training.seed"),
    ("train", ["--set", "method.name=base_ce", "--set", "training.momentum=1.5"],
     "training.momentum"),
    ("train", ["--set", "method.name=base_ce", "--set", "training.learning_rate=-0.35"],
     "training.learning_rate"),
    ("train", ["--set", "method.name=base_ce", "--set", "training.warmup_steps=-5"],
     "training.warmup_steps"),
    # the task rule of the model schema
    ("train", ["--set", "method.name=base_ce", "--set", "model.task=autoencoder"], "model.task"),
    # unknown sections and keys, and a value that does not parse
    ("train", ["--set", "method.name=base_ce", "--set", "logging.level=1"], "logging"),
    ("train", ["--set", "method.name=base_ce", "--set", "model.depth=3"], "model.depth"),
    ("train", ["--set", "method.name=base_ce", "--set", "training.epochs=two"], "training.epochs"),
    # configparser's DEFAULT section would reach every section; it is no section of ours
    ("train", ["--set", "method.name=base_ce", "--set", "DEFAULT.x=1"], "DEFAULT"),
])
def test_config_errors_exit_before_anything_is_written(tmp_path, capsys, command, extra, field):
    path = tmp_path / "ablation.ini"
    path.write_text(TINY.replace("name = adaptive_skd", "ablation_methods = base_ce, adaptive_skd"))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--output", str(out), *extra]) == EXIT_CONFIG
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_a_run_is_reproduced_from_its_manifest(tmp_path, tiny_config):
    """Each run's manifest ``config`` rebuilds a config with the recorded hash, and
    rerunning it writes every file again byte for byte, ``output_dir`` apart."""
    ablation = tmp_path / "ablation.ini"
    ablation.write_text(TINY.replace("name = adaptive_skd", "ablation_methods = adaptive_skd:nll"))
    sequence = Path(__file__).parents[1] / "configs" / "sequence.ini"
    for argv in (["train", "--config", str(tiny_config), "--output", str(tmp_path / "tiny")],
                 ["ablation", "--config", str(ablation), "--output", str(tmp_path / "abl")],
                 ["train", "--config", str(sequence), "--set", "training.epochs=3",
                  "--output", str(tmp_path / "seq")]):
        assert main(argv) == EXIT_OK
    for run in (tmp_path / "tiny", tmp_path / "abl" / "runs" / "adaptive_skd_nll",
                tmp_path / "seq"):
        manifest = manifest_of(run)
        cfg = RunConfig(manifest["config"])
        assert cfg.config_hash == manifest["config_hash"]
        again = tmp_path / "again" / run.name
        run_training(cfg, RunDir(again))
        files = sorted(p.relative_to(run) for p in run.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
        for rel in files:
            want = (run / rel).read_bytes()
            if rel.name == "manifest.json":
                want = want.replace(json.dumps(str(run)).encode(), json.dumps(str(again)).encode())
            assert (again / rel).read_bytes() == want, (run.name, rel)
