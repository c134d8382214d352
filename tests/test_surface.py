"""The package's public surface: every public function is run by a CLI command or gated."""

import ast
import os
import sys
from pathlib import Path

import alskd
from alskd.cli import main
from alskd.config import METHODS

PACKAGE = Path(alskd.__file__).parent
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Public functions that no CLI command runs, each kept for the gate that names it.
GATED = {
    "gradlab.gradient_ratio": "acceptance criterion 2",
    "gradlab.ratio_consistency_check": "acceptance criterion 2",
    "losses.ce_loss": "acceptance criteria 1 and 2",
    "losses.label_smoothing_loss": "acceptance criteria 1 and 4",
    "losses.kd_loss": "acceptance criteria 1, 2 and 4",
    "losses.adaptive_skd_loss": "acceptance criterion 1 and the README example",
    "losses.confidence_penalty_loss": "acceptance criterion 1",
    "probs.check_prob_dist": "validates the inputs of the single-sample API",
    "probs.softmax": "validates the logits of the single-sample API",
    "probs.entropy": "the reference that entropy_rows is tested against",
    "probs.adaptive_alpha": "the README example",
}


def public_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> ``module[.Class].name`` of each public top-level function
    and each public method of a top-level class; a decorated function starts at its
    first decorator, as its code object's ``co_firstlineno`` does."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            owner = ""
            members = [node]
            if isinstance(node, ast.ClassDef):
                owner, members = f"{node.name}.", node.body
            for fn in members:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    line = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
                    found[str(path), line] = f"{path.stem}.{owner}{fn.name}"
    return found


def test_every_public_function_is_run_by_the_cli_or_gated(tmp_path, capsys):
    """Runs each CLI command once at a small size and records every function it
    enters under the package. A public function that no command runs must be in
    ``GATED``, and every ``GATED`` one must stay unrun. A change that adds a CLI
    command (for example ``alskd report``, ROADMAP item 5) adds that command here."""
    small = ["--set", "training.epochs=2", "--set", "model.train_size=100"]
    ablation = ",".join([*METHODS, "adaptive_skd:nll"])
    sequence = ["train", "--config", str(CONFIGS / "sequence.ini"), *small,
                "--output", str(tmp_path / "seq")]
    lab = ["--output", str(tmp_path / "lab")]
    commands = [
        ["ablation", "--config", str(CONFIGS / "classification.ini"), *small,
         "--set", f"method.ablation_methods={ablation}", "--output", str(tmp_path / "abl")],
        sequence,
        sequence,  # refused: the registry already holds epochs
        ["gradlab", "ratios", "--alpha", "0.6", "--draws", "20", *lab],
        ["gradlab", "proposition", "--trials", "50", *lab],
        ["gradlab", "flipmap", "--alpha", "0.5", "--resolution", "10", *lab],
    ]

    prefix = str(PACKAGE) + os.sep
    entered = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()

    assert codes == [0, 0, 4, 0, 0, 0]
    unrun = {name for key, name in public_functions().items() if key not in entered}
    assert unrun == set(GATED)
