"""Set-up probe: start the interpreter, import alskd, parse the workload's configs, say ready.

Usage: python3 benchmarks/probe.py <checkout root> [config paths relative to the root...]

``run.py`` times several of these from launch to the "ready" line and
reports the median as ``setup_s``.
"""

import sys
from pathlib import Path


def main(argv) -> None:
    root = Path(argv[0])
    sys.path.insert(0, str(root / "src"))
    from alskd import cli  # imports every layer

    cli.build_parser()
    for config in argv[1:]:
        cli.load_config(root / config)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
