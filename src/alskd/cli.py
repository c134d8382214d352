"""Command-line surface: training runs, the gradient lab, and ablation matrices.

Subcommands write CSV artifacts plus a JSON manifest that snapshots the
config, the seed, and every file produced, so a run can be audited and
reproduced exactly. Exit codes are stable: 0 success, 2 configuration
error, 3 runtime failure (divergence, exhausted sampling, a failed matrix
entry), 4 I/O failure. The environment variable ``ALSKD_OUTPUT_ROOT``
relocates the default output root (relative output paths resolve under it).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .artifacts import write_csv, write_json
from .calibration import calibration_report, write_reliability_csv
from .config import RunConfig, load_config
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


def resolve_output_dir(explicit: str | None, configured: str | None, default_name: str) -> Path:
    """Pick the output directory; relative paths live under the output root."""
    chosen = Path(explicit or configured or default_name)
    if not chosen.is_absolute():
        chosen = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / chosen
    chosen.mkdir(parents=True, exist_ok=True)
    return chosen


def run_training(cfg: RunConfig, out_dir: Path) -> dict:
    """Execute one training run and write its artifact set under ``out_dir``.

    Returns the manifest dictionary (already written to disk).
    """
    train_cfg = cfg.train
    splits = make_task_data(cfg.model, cfg.data, train_cfg.seed)

    registry_dir = out_dir / "registry"
    result = train(cfg.model, train_cfg, splits, registry_dir)

    diagnostics_csv = out_dir / "diagnostics.csv"
    write_diagnostics_csv(result.diagnostics, diagnostics_csv)

    test_eval = evaluate(result.model, result.params, splits.test)
    report = calibration_report(test_eval.pairs, n_bins=10)
    calibration_csv = out_dir / "calibration.csv"
    write_reliability_csv(report, calibration_csv)

    def rel(p) -> str:
        return str(Path(p).relative_to(out_dir))

    manifest = {
        "command": "train",
        "config": cfg.values,
        "config_hash": cfg.config_hash,
        "method": train_cfg.method,
        "g_kind": train_cfg.g_kind,
        "seed": train_cfg.seed,
        "output_dir": str(out_dir),
        "summary": {
            "final_val_score": result.diagnostics[-1].val_score,
            "test_accuracy": test_eval.accuracy,
            "test_mean_nll": test_eval.nll,
            "test_ece": report.ece,
            "test_mce": report.mce,
        },
        "artifacts": {
            "manifest": "manifest.json",
            "diagnostics_csv": rel(diagnostics_csv),
            "calibration_csv": rel(calibration_csv),
            "registry_index": rel(result.registry.index_path),
            "checkpoints": [rel(p) for p in result.registry.checkpoint_files()],
        },
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest


def cmd_train(args) -> int:
    seed = [] if args.seed is None else [f"training.seed={args.seed}"]
    cfg = load_config(args.config, [*(args.set or []), *seed])  # --seed wins over --set
    cfg.train  # a run needs a method: refused before any directory exists
    out_dir = resolve_output_dir(args.output, cfg.get("paths", "output_dir"), "runs/train")
    manifest = run_training(cfg, out_dir)
    summary = manifest["summary"]
    print(f"method={manifest['method']} seed={manifest['seed']} "
          f"val_score={summary['final_val_score']:.4f} "
          f"test_acc={summary['test_accuracy']:.4f} test_ece={summary['test_ece']:.4f}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_ablation(args) -> int:
    cfg = load_config(args.config, args.set or [])
    entries = cfg.ablation_entries()  # every entry checked before any directory exists
    out_dir = resolve_output_dir(args.output, cfg.get("paths", "output_dir"), "runs/ablation")

    rows = []
    run_dirs = []
    for label, entry_cfg in entries:
        run_dir = out_dir / "runs" / label.replace(":", "_")
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            manifest = run_training(entry_cfg, run_dir)
        except Exception as exc:
            failure = OSError if isinstance(exc, OSError) else RuntimeError  # I/O exits 4
            raise failure(f"ablation entry {label!r} failed: {exc}") from exc
        summary = manifest["summary"]
        rows.append({
            "method": label,
            "g_kind": manifest["g_kind"],
            "val_score": summary["final_val_score"],
            "test_accuracy": summary["test_accuracy"],
            "test_ece": summary["test_ece"],
        })
        run_dirs.append(str(run_dir.relative_to(out_dir)))

    write_csv(out_dir / "ablation.csv",
              {name: [row[name] for row in rows] for name in rows[0]})
    write_json(out_dir / "manifest.json", {
        "command": "ablation",
        "config": cfg.values,
        "seed": cfg.get("training", "seed"),
        "output_dir": str(out_dir),
        "artifacts": {
            "manifest": "manifest.json",
            "table_csv": "ablation.csv",
            "runs": run_dirs,
        },
    })

    width = max(len(r["method"]) for r in rows)
    print(f"{'method'.ljust(width)}  {'val_score':>10}  {'test_acc':>10}  {'test_ece':>10}")
    for row in rows:
        print(f"{row['method'].ljust(width)}  {row['val_score']:>10.4f}  "
              f"{row['test_accuracy']:>10.4f}  {row['test_ece']:>10.4f}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_gradlab_ratios(args) -> int:
    table = sampled_ratio_table(args.draws, args.classes, args.alpha, args.seed)
    path = resolve_output_dir(args.output, None, "runs/gradlab") / "ratios.csv"
    write_ratios_csv(table, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gradlab_proposition(args) -> int:
    report = proposition1_validate(args.trials, args.classes, args.seed)
    path = resolve_output_dir(args.output, None, "runs/gradlab") / "proposition.csv"
    write_proposition_csv(report, path)
    print(f"valid_pairs={report.valid_pairs} violations={report.violations}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gradlab_flipmap(args) -> int:
    census = flip_region_census(args.resolution, args.alpha)
    path = resolve_output_dir(args.output, None, "runs/gradlab") / "flipmap.csv"
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
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # invalid option values surface as usage errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
