"""The workloads: the CLI commands of one pass, their correctness checks and fingerprints.

A pass is one run of a workload's commands. Every input is generated by
the program itself from the seeds a workload derives from ``--seed``.
The ``training`` workload runs the classification method matrix and then
the sequence runs; ``gradlab`` runs the three gradient-lab commands.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from measure import busy_time, epoch_durations

ALL_METHODS = ("base_ce", "uniform_ls", "unigram_ls", "conf_penalty", "adaptive_skd",
               "fixed_alpha_skd", "adaptive_alpha_uniform", "linear_alpha_skd",
               "adaptive_skd:nll")

# acceptance criterion 5: adaptive_skd cuts test ECE by at least this share of base_ce's
MIN_ECE_CUT = 0.30

SEQ_RUNS = 6
TRIALS = 10000
DRAWS = 1000
RATIO_CLASSES = 5
FLIP_RESOLUTION = 200
FLIP_ALPHA = 0.5


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def declared_param_count(model: dict) -> int:
    """Flat parameter count of the configured model, from its layer sizes."""
    if model["task"] == "classification":
        h, d, c = model["hidden"], model["input_dim"], model["classes"]
        return h * d + h + c * h + c
    v, e, h = model["vocab"], model["embed"], model["hidden"]
    return v * e + h * e + h * h + h + v * h + v


def check_training_run(run_dir: Path) -> list[str]:
    """Manifest artifacts present, summary finite, every checkpoint read back intact."""
    from alskd.registry import read_checkpoint

    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        return [f"{run_dir.name}: manifest.json missing"]
    manifest = json.loads(manifest_path.read_text())
    failures = []
    for key, value in manifest["artifacts"].items():
        for rel in value if isinstance(value, list) else [value]:
            if not (run_dir / rel).is_file():
                failures.append(f"{run_dir.name}: artifact {key} {rel} missing")
    for key, value in manifest["summary"].items():
        if not math.isfinite(value):
            failures.append(f"{run_dir.name}: summary {key} = {value!r}")
    if failures:
        return failures

    n_params = declared_param_count(manifest["config"]["model"])
    index_path = run_dir / manifest["artifacts"]["registry_index"]
    with open(index_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != manifest["config"]["training"]["epochs"]:
        failures.append(f"{run_dir.name}: {len(rows)} checkpoints indexed")
    for row in rows:
        try:
            record = read_checkpoint(index_path.parent / row["file"])
        except ValueError as exc:
            failures.append(f"{run_dir.name}: {exc}")
            continue
        if (record.params.size != n_params or record.epoch != int(row["epoch"])
                or record.val_score != float(row["val_score"])
                or not np.isfinite(record.params).all()):
            failures.append(f"{run_dir.name}: checkpoint {row['file']} does not round-trip")
    return failures


def run_fingerprints(run_dir: Path, name: str) -> dict[str, str]:
    """SHA-256 of a run's final parameters (last checkpoint) and of its diagnostics.csv."""
    artifacts = json.loads((run_dir / "manifest.json").read_text())["artifacts"]
    return {f"{name}.params": sha256(run_dir / artifacts["checkpoints"][-1]),
            f"{name}.diagnostics": sha256(run_dir / artifacts["diagnostics_csv"])}


class Seeded:
    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed


class ClfMatrix(Seeded):
    """``alskd ablation`` over all eight methods plus adaptive_skd:nll, one seed."""

    name = "clf-matrix"
    configs = ("configs/classification.ini",)

    def commands(self, out: Path) -> list[Command]:
        return [Command("ablation", [
            "ablation", "--config", str(self.root / self.configs[0]),
            "--set", f"method.ablation_methods={','.join(ALL_METHODS)}",
            "--set", f"training.seed={self.seed}", "--output", str(out)])]

    def _table(self, out: Path) -> dict[str, dict]:
        with open(out / "ablation.csv", newline="") as fh:
            return {row["method"]: row for row in csv.DictReader(fh)}

    def check(self, command: Command, out: Path, stdout: str) -> list[str]:
        if not (out / "manifest.json").is_file():
            return ["manifest.json missing"]
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        if not (out / artifacts["table_csv"]).is_file():
            return [f"artifact {artifacts['table_csv']} missing"]
        failures = []
        for rel in artifacts["runs"]:
            failures += check_training_run(out / rel)
        table = self._table(out)
        if list(table) != list(ALL_METHODS):
            return failures + [f"ablation rows {list(table)}"]
        for label, row in table.items():
            for key in ("val_score", "test_accuracy", "test_ece"):
                if not math.isfinite(float(row[key])):
                    failures.append(f"{label} {key} = {row[key]}")
        base, skd = float(table["base_ce"]["test_ece"]), float(table["adaptive_skd"]["test_ece"])
        if not skd <= (1.0 - MIN_ECE_CUT) * base:
            failures.append(f"adaptive_skd test ECE {skd!r} is not {MIN_ECE_CUT:.0%} below "
                            f"base_ce {base!r}")
        return failures

    def fingerprints(self, out: Path) -> dict[str, str]:
        prints = {}
        for label in ALL_METHODS:
            prints.update(run_fingerprints(out / "runs" / label.replace(":", "_"), label))
        return prints

    def quality(self, out: Path) -> dict[str, float]:
        table = self._table(out)
        skd = table["adaptive_skd"]
        return {"test_ece": float(skd["test_ece"]),
                "test_accuracy": float(skd["test_accuracy"]),
                "ece_cut_vs_base_ce": 1.0 - float(skd["test_ece"]) / float(
                    table["base_ce"]["test_ece"])}


class SeqSkd(Seeded):
    """``alskd train`` on the sequence config for six consecutive seeds."""

    name = "seq-skd"
    configs = ("configs/sequence.ini",)

    def _seeds(self) -> list[int]:
        return [SEQ_RUNS * self.seed + k for k in range(SEQ_RUNS)]

    def commands(self, out: Path) -> list[Command]:
        return [Command(f"train seed {s}", [
            "train", "--config", str(self.root / self.configs[0]), "--seed", str(s),
            "--output", str(out / f"seed{s}")]) for s in self._seeds()]

    def check(self, command: Command, out: Path, stdout: str) -> list[str]:
        return check_training_run(Path(command.argv[-1]))

    def fingerprints(self, out: Path) -> dict[str, str]:
        prints = {}
        for s in self._seeds():
            prints.update(run_fingerprints(out / f"seed{s}", f"seed{s}"))
        return prints

    def quality(self, out: Path) -> dict[str, float]:
        summaries = [json.loads((out / f"seed{s}" / "manifest.json").read_text())["summary"]
                     for s in self._seeds()]

        def mean(key):
            return sum(s[key] for s in summaries) / len(summaries)

        return {"test_ece": mean("test_ece"), "test_accuracy": mean("test_accuracy"),
                "val_bleu": mean("final_val_score")}


class Training(Seeded):
    """``clf-matrix`` then ``seq-skd`` in one pass, each in its own output directory."""

    name = "training"
    step = "training epoch"
    # the issue-level names of the shared end-to-end metrics on this workload
    aliases = {"step_ms.p50": "epoch_ms.p50", "step_ms.p90": "epoch_ms.p90",
               "items_per_s": "positions_per_s"}

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.parts = (ClfMatrix(root, seed), SeqSkd(root, seed))
        self.configs = tuple(c for part in self.parts for c in part.configs)

    def _part(self, command: Command):
        return self.parts[0] if command.argv[0] == "ablation" else self.parts[1]

    def commands(self, out: Path) -> list[Command]:
        return [c for part in self.parts for c in part.commands(out / part.name)]

    def check(self, command: Command, out: Path, stdout: str) -> list[str]:
        part = self._part(command)
        return part.check(command, out / part.name, stdout)

    def fingerprints(self, out: Path) -> dict[str, str]:
        return {f"{part.name}/{name}": digest for part in self.parts
                for name, digest in part.fingerprints(out / part.name).items()}

    def quality(self, out: Path) -> dict[str, float]:
        return {f"{part.name}.{name}": value for part in self.parts
                for name, value in part.quality(out / part.name).items()}

    def steps(self, boundaries, command_times) -> list[float]:
        return epoch_durations(boundaries.events)

    def items(self, boundaries) -> tuple[int, float]:
        return boundaries.positions, busy_time(boundaries.events, "train", "train_end")


class Gradlab(Seeded):
    """The three ``alskd gradlab`` commands."""

    name = "gradlab"
    configs = ()
    step = "gradlab command"
    aliases = {"items_per_s": "trials_per_s"}

    def commands(self, out: Path) -> list[Command]:
        o = ["--output", str(out)]
        return [
            Command("proposition", ["gradlab", "proposition", "--trials", str(TRIALS),
                                    "--classes", "10", "--seed", str(self.seed), *o]),
            Command("ratios", ["gradlab", "ratios", "--alpha", "0.6", "--draws", str(DRAWS),
                               "--classes", str(RATIO_CLASSES), "--seed", str(self.seed), *o]),
            Command("flipmap", ["gradlab", "flipmap", "--alpha", str(FLIP_ALPHA),
                                "--resolution", str(FLIP_RESOLUTION), *o]),
        ]

    def check(self, command: Command, out: Path, stdout: str) -> list[str]:
        path = out / f"{command.label}.csv"
        if not path.is_file():
            return [f"{path.name} missing"]
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if command.label == "proposition":
            found = re.search(r"valid_pairs=(\d+) violations=(\d+)", stdout)
            if not found or found.groups() != (str(TRIALS), "0") or len(rows) != TRIALS:
                return [f"proposition reported {stdout.strip()!r} with {len(rows)} rows"]
        elif command.label == "ratios":
            if len(rows) != DRAWS * RATIO_CLASSES:
                return [f"ratios.csv has {len(rows)} rows"]
        else:
            from alskd.gradlab import flip_region_census

            expected = int(flip_region_census(FLIP_RESOLUTION, FLIP_ALPHA).flip.sum())
            found = re.search(r"\((\d+) of \d+ cells flip\)", stdout)
            in_csv = sum(row["flip_target"] == "true" for row in rows)
            if not found or int(found.group(1)) != expected or in_csv != expected:
                return [f"flipmap reported {stdout.strip()!r}, {in_csv} flips in the csv, "
                        f"census {expected}"]
        return []

    def fingerprints(self, out: Path) -> dict[str, str]:
        return {f"{c.label}.csv": sha256(out / f"{c.label}.csv") for c in self.commands(out)}

    def quality(self, out: Path) -> dict[str, float]:
        return {}

    def steps(self, boundaries, command_times) -> list[float]:
        return list(command_times)

    def items(self, boundaries) -> tuple[int, float]:
        return boundaries.valid_pairs, busy_time(boundaries.events, "validate", "validate_end")


WORKLOADS = {w.name: w for w in (Training, Gradlab)}
