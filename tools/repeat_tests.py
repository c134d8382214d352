"""Run chosen tests once per hypothesis seed, each seed in a fresh process, and
report how often they fail.

Run from the repository root:

    python tools/repeat_tests.py --seeds 1-300 \\
        "tests/test_models.py::TestStackedRecurrence::test_bit_identical_to_the_loop"
    python tools/repeat_tests.py --seeds 1-50 --settrace tests/test_models.py

Each seed runs ``pytest --hypothesis-seed=<seed>`` on the node ids in a new
interpreter, one after another and never in parallel, with hypothesis's example
database off, so that no seed replays another's failure. ``--settrace``
installs a line tracer first, as ``tools/raise_coverage.py`` runs the suite.
Each failing seed prints one line: the first ``E`` line of its report and the
``@reproduce_failure`` blob when the test prints one (``print_blob=True``).
Its whole output, the traceback of a warning turned error included, is kept as
``<keep>/seed-<seed>.log``. The last line is the failure rate. The exit code
is 0 when no seed failed, 1 when one did, and pytest's own when it could not
run the tests (it stops at that seed).

Standard library only, apart from pytest itself.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The child: pytest with hypothesis's example database off, optionally under a line
# tracer; a crash outside the tests is pytest's internal-error exit code, 3.
CHILD = """
import sys, traceback
import pytest

class NoDatabase:
    def pytest_configure(self, config):
        from hypothesis import settings
        settings.register_profile("repeat", database=None)
        settings.load_profile("repeat")

if sys.argv.pop(1) == "trace":
    def trace(frame, event, arg):
        return trace
    sys.settrace(trace)
try:
    code = pytest.main(sys.argv[1:], plugins=[NoDatabase()])
except BaseException:
    traceback.print_exc()
    code = 3
sys.exit(code)
"""

BLOB = re.compile(r"@reproduce_failure\(.*?\)")
ERROR = re.compile(r"^[ |]*E {2,}(\S.*)$", re.MULTILINE)  # "E   ...", also inside "|" groups


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run_seed(seed: int, nodes: list[str], settrace: bool) -> tuple[int, str]:
    """pytest's exit code and output for one seed, in a new interpreter."""
    argv = [sys.executable, "-c", CHILD, "trace" if settrace else "plain", "-q",
            "-p", "no:cacheprovider", f"--hypothesis-seed={seed}", *nodes]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    return proc.returncode, proc.stdout


def summary(output: str) -> str:
    """The first ``E`` line of a failure report and the reproduce blob, if printed."""
    error, blob = ERROR.search(output), BLOB.search(output)
    return (error.group(1) if error else "no E line") + (f"  {blob.group(0)}" if blob else "")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("nodes", nargs="+", help="pytest node ids")
    parser.add_argument("--seeds", type=seed_range, default="1-100",
                        help="inclusive hypothesis seed range, FIRST-LAST (default 1-100)")
    parser.add_argument("--settrace", action="store_true",
                        help="run each process under a sys.settrace line tracer")
    parser.add_argument("--keep", type=Path, default=ROOT / "runs" / "repeat_tests",
                        help="directory for the output of each failing seed")
    args = parser.parse_args(argv)

    failed = []
    for seed in args.seeds:
        code, output = run_seed(seed, args.nodes, args.settrace)
        if code == 0:
            continue
        if code != 1:  # pytest could not run the tests: no seed would tell anything
            print(output, end="")
            return code
        failed.append(seed)
        args.keep.mkdir(parents=True, exist_ok=True)
        (args.keep / f"seed-{seed}.log").write_text(output)
        print(f"seed {seed}: exit {code}: {summary(output)}", flush=True)
    runs = len(args.seeds)
    print(f"{len(failed)} of {runs} seeds failed ({len(failed) / runs:.2%})"
          + (f"; output kept in {args.keep}" if failed else ""))
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
