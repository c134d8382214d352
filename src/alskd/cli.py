"""Command-line surface: training runs, the gradient lab, and ablation matrices.

Subcommands write CSV artifacts plus a JSON manifest that snapshots the
config, the seed, and every file produced, so a run can be audited and
reproduced exactly. ``RunDir`` owns the output layout; a directory appears
with its first file, so a run refused before its first write leaves nothing
on disk. Relative output paths resolve under ``ALSKD_OUTPUT_ROOT`` when it
is set. ``main`` alone maps a failure to its exit code, by class: 0 success,
2 a ``ConfigError`` (always before the first write), 4 an ``OSError``, 3 any
other exception, named by its class and the file and line that raised it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .artifacts import write_csv, write_json
from .calibration import calibration_report, write_reliability_csv
from .config import ConfigError, RunConfig, entry_name, load_config
from .gradlab import (
    flip_region_census,
    proposition1_validate,
    sampled_ratio_table,
    write_flip_census_csv,
    write_proposition_csv,
    write_ratios_csv,
)
from .trainer import evaluate, make_task_data, train, write_diagnostics_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

OUTPUT_ROOT_ENV = "ALSKD_OUTPUT_ROOT"


class RunDir:
    """A run's output directory, the one place its layout is named. It makes no
    directory (one appears with its first file); the files it hands out are
    recorded, and the manifest lists them as its ``artifacts``."""

    NAMES = {"manifest": "manifest.json", "diagnostics_csv": "diagnostics.csv",
             "calibration_csv": "calibration.csv", "table_csv": "ablation.csv"}

    def __init__(self, path):
        self.path = Path(path)
        self.registry_dir = self.path / "registry"
        self.artifacts: dict = {"manifest": self.NAMES["manifest"]}  # always written, last

    @classmethod
    def resolve(cls, *choices: str | None) -> RunDir:
        """The first path chosen; a relative one lives under the output root."""
        return cls(Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / next(filter(None, choices)))

    def file(self, key: str) -> Path:
        """Where the artifact ``key`` is written, recorded for the manifest."""
        self.artifacts[key] = self.NAMES[key]
        return self.path / self.NAMES[key]

    def add_registry(self, registry) -> None:
        """Record the index and the checkpoints of the registry in ``registry_dir``."""
        files = [registry.index_path, *registry.checkpoint_files()]
        index, *checkpoints = (str(p.relative_to(self.path)) for p in files)
        self.artifacts.update(registry_index=index, checkpoints=checkpoints)

    def entry(self, label: str) -> RunDir:
        """The run directory of ablation entry ``label``, recorded under ``runs``."""
        name = "runs/" + entry_name(label)
        self.artifacts.setdefault("runs", []).append(name)
        return RunDir(self.path / name)

    def write_manifest(self, manifest: dict) -> dict:
        """Write ``manifest`` with the run's path and every file recorded; returns it."""
        manifest = {**manifest, "output_dir": str(self.path), "artifacts": self.artifacts}
        write_json(self.path / self.NAMES["manifest"], manifest)
        return manifest


def run_training(cfg: RunConfig, run: RunDir) -> dict:
    """Train one run, write its artifacts into ``run``, and return the manifest written."""
    train_cfg = cfg.train
    splits = make_task_data(cfg.model, cfg.data, train_cfg.seed)

    result = train(cfg.model, train_cfg, splits, run.registry_dir)
    run.add_registry(result.registry)
    write_diagnostics_csv(result.diagnostics, run.file("diagnostics_csv"))

    test_eval = evaluate(result.model, result.params, splits.test)
    report = calibration_report(test_eval.pairs, n_bins=10)
    write_reliability_csv(report, run.file("calibration_csv"))

    return run.write_manifest({
        "command": "train",
        "config": cfg.values,
        "config_hash": cfg.config_hash,
        "method": train_cfg.method,
        "g_kind": train_cfg.g_kind,
        "seed": train_cfg.seed,
        "summary": {
            "final_val_score": result.diagnostics[-1].val_score,
            "test_accuracy": test_eval.accuracy,
            "test_mean_nll": test_eval.nll,
            "test_ece": report.ece,
            "test_mce": report.mce,
        },
    })


def cmd_train(args) -> int:
    seed = [] if args.seed is None else [f"training.seed={args.seed}"]
    cfg = load_config(args.config, [*(args.set or []), *seed])  # --seed wins over --set
    run = RunDir.resolve(args.output, cfg.get("paths", "output_dir"), "runs/train")
    manifest = run_training(cfg, run)
    summary = manifest["summary"]
    print(f"method={manifest['method']} seed={manifest['seed']} "
          f"val_score={summary['final_val_score']:.4f} "
          f"test_acc={summary['test_accuracy']:.4f} test_ece={summary['test_ece']:.4f}")
    print(f"artifacts in {run.path}")
    return EXIT_OK


def cmd_ablation(args) -> int:
    cfg = load_config(args.config, args.set or [])
    entries = cfg.ablation_entries()  # every entry checked before the first file is written
    run = RunDir.resolve(args.output, cfg.get("paths", "output_dir"), "runs/ablation")

    manifests = []
    for label, entry_cfg in entries:
        try:
            manifests.append(run_training(entry_cfg, run.entry(label)))
        except Exception:
            print(f"ablation entry {label!r} failed", file=sys.stderr)  # main names the class
            raise

    table = {"method": [label for label, _ in entries],
             "g_kind": [m["g_kind"] for m in manifests],
             "val_score": [m["summary"]["final_val_score"] for m in manifests],
             "test_accuracy": [m["summary"]["test_accuracy"] for m in manifests],
             "test_ece": [m["summary"]["test_ece"] for m in manifests]}
    write_csv(run.file("table_csv"), table)
    run.write_manifest({"command": "ablation", "config": cfg.values,
                        "seed": cfg.get("training", "seed")})

    width = max(map(len, table["method"]))
    print(f"{'method'.ljust(width)}  {'val_score':>10}  {'test_acc':>10}  {'test_ece':>10}")
    for row in zip(*(table[c] for c in ("method", "val_score", "test_accuracy", "test_ece"))):
        print(row[0].ljust(width) + "".join(f"  {v:>10.4f}" for v in row[1:]))
    print(f"artifacts in {run.path}")
    return EXIT_OK


def cmd_gradlab_ratios(args) -> int:
    table = sampled_ratio_table(args.draws, args.classes, args.alpha, args.seed)
    path = RunDir.resolve(args.output, "runs/gradlab").path / "ratios.csv"
    write_ratios_csv(table, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gradlab_proposition(args) -> int:
    report = proposition1_validate(args.trials, args.classes, args.seed)
    path = RunDir.resolve(args.output, "runs/gradlab").path / "proposition.csv"
    write_proposition_csv(report, path)
    print(f"valid_pairs={report.valid_pairs} violations={report.violations}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gradlab_flipmap(args) -> int:
    census = flip_region_census(args.resolution, args.alpha)
    path = RunDir.resolve(args.output, "runs/gradlab").path / "flipmap.csv"
    write_flip_census_csv(census, path)
    print(f"wrote {path} ({census.flip.sum()} of {census.flip.size} cells flip)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alskd",
        description="Adaptive label smoothing with self-knowledge distillation: "
                    "experiments, gradient lab, calibration reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment from a config file")
    p_train.add_argument("--config", required=True, help="INI config path")
    p_train.add_argument("--seed", type=int, default=None, help="override training.seed")
    p_train.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                         help="override any config key (repeatable)")
    p_train.add_argument("--output", default=None, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_abl = sub.add_parser("ablation", help="run the configured method matrix on shared data")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_abl.add_argument("--output", default=None)
    p_abl.set_defaults(func=cmd_ablation)

    p_lab = sub.add_parser("gradlab", help="gradient-rescaling analysis artifacts")
    lab_sub = p_lab.add_subparsers(dest="lab_command", required=True)

    p_ratios = lab_sub.add_parser("ratios", help="closed-form vs literal gradient ratios")
    p_ratios.add_argument("--alpha", type=float, required=True)
    p_ratios.add_argument("--classes", type=int, default=5)
    p_ratios.add_argument("--draws", type=int, default=100)
    p_ratios.add_argument("--seed", type=int, default=0)
    p_ratios.add_argument("--output", default=None)
    p_ratios.set_defaults(func=cmd_gradlab_ratios)

    p_prop = lab_sub.add_parser("proposition", help="Monte Carlo rescaling-order check")
    p_prop.add_argument("--trials", type=int, default=10000)
    p_prop.add_argument("--classes", type=int, default=10)
    p_prop.add_argument("--seed", type=int, default=0)
    p_prop.add_argument("--output", default=None)
    p_prop.set_defaults(func=cmd_gradlab_proposition)

    p_flip = lab_sub.add_parser("flipmap", help="direction-flip census over a probability grid")
    p_flip.add_argument("--alpha", type=float, required=True)
    p_flip.add_argument("--resolution", type=int, default=100)
    p_flip.add_argument("--output", default=None)
    p_flip.set_defaults(func=cmd_gradlab_flipmap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        from traceback import walk_tb  # on failure only: a success never pays its import
        *_, (frame, line) = walk_tb(exc.__traceback__)  # the innermost frame, where it was raised
        print(f"run failed: {type(exc).__name__}: {exc} "
              f"at {Path(frame.f_code.co_filename).name}:{line}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
