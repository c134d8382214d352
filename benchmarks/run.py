"""Benchmark of the alskd CLI: one workload per process, every command run in-process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {training,gradlab} \\
        --seed N --seconds S --trace {0,1} [--record-reference]

A pass runs the workload's CLI commands through ``alskd.cli.main``. After
one warm-up pass the run repeats passes, closed-loop with one caller,
until ``--seconds`` have gone by, and checks the outputs of every pass.

``--trace 0`` records only run and epoch boundaries and prints the
end-to-end metrics named in BENCHMARK.json. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead (traced minus untraced pass time).
``--record-reference`` stores this seed's result fingerprints in
``reference.json``.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# Pinned before numpy loads: on two cores the default OpenBLAS pool made
# desk-scale training slower and noisier than a single thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from measure import OpLedger, percentile  # noqa: E402
from tracing import Boundaries, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
REQUIRED = ("BENCHMARK.json", "src/alskd/__init__.py", "src/alskd/cli.py",
            "configs/classification.ini", "configs/sequence.ini")
SETUP_PROBES = 7


def invoke(argv) -> tuple[int, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    from alskd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def setup_seconds(configs) -> float:
    """Launch-to-ready time of one fresh interpreter that imports alskd and parses the configs."""
    argv = [sys.executable, str(BENCH_DIR / "probe.py"), str(ROOT), *configs]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return ready


def reference_kernel_ms(reps: int = 9) -> float:
    """A fixed numpy kernel that no change to alskd can move; it shows host drift."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(reps):
        start = perf_counter()
        b = np.tanh(a @ a.T)
        b.sort(axis=1)
        float(b.sum())
        times.append(perf_counter() - start)
    return median(times) * 1e3


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None where that cannot be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return getter()
    return None


def git_revision():
    """Commit of the checkout read from .git, or None when it is not a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "alskd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


@dataclass
class PassRecord:
    wall: float
    steps: list[float]
    items: int
    busy: float
    layers: dict = field(default_factory=dict)


class Runner:
    """Runs and checks passes of one workload; keeps what the metrics need."""

    def __init__(self, workload, work: Path, reference: dict | None):
        self.workload = workload
        self.work = work
        self.reference = reference
        self.ledger = OpLedger()
        self.passes = 0
        self.first_prints: dict[str, str] | None = None
        self.nondeterministic: set[str] = set()
        self.quality: dict[str, float] = {}

    def run_pass(self, tracer: Tracer | None = None) -> PassRecord:
        self.passes += 1
        out = self.work / f"pass{self.passes}"
        commands = self.workload.commands(out)
        boundaries = Boundaries()
        timed = []
        with (tracer or boundaries).patches():
            with tracer.pass_span() if tracer else contextlib.nullcontext() as first:
                start = perf_counter()
                for command in commands:
                    began = perf_counter()
                    code, stdout, stderr = invoke(command.argv)
                    timed.append((command, code, stdout, stderr, perf_counter() - began))
                wall = perf_counter() - start
        items, busy = self.workload.items(boundaries)
        record = PassRecord(wall, self.workload.steps(boundaries, [t[-1] for t in timed]),
                            items, busy)
        if tracer:
            record.layers = tracer.pass_metrics(first)
        self._check(out, timed)
        shutil.rmtree(out, ignore_errors=True)
        return record

    def _check(self, out: Path, timed) -> None:
        for command, code, stdout, stderr, _ in timed:
            failures = []
            if code == 0:
                try:
                    failures = self.workload.check(command, out, stdout)
                except (OSError, ValueError, KeyError) as exc:
                    failures = [f"check raised {exc!r}"]
            elif stderr.strip():
                failures = [stderr.strip().splitlines()[-1]]
            self.ledger.record(command.label, code, failures)
        try:
            prints = self.workload.fingerprints(out)
            self.quality = self.workload.quality(out)
        except (OSError, ValueError, KeyError):
            return  # the failed command is already on the ledger
        if self.first_prints is None:
            self.first_prints = prints
        else:
            self.nondeterministic.update(
                name for name, digest in prints.items() if self.first_prints.get(name) != digest)

    def reference_mismatches(self) -> list[str] | None:
        if self.reference is None or self.first_prints is None:
            return None
        names = sorted(set(self.reference) | set(self.first_prints))
        return [n for n in names if self.reference.get(n) != self.first_prints.get(n)]


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def record_reference(workload: str, seed: int, prints: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = prints
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def end_to_end(setup: list[float], records: list[PassRecord]) -> dict[str, float]:
    """The metrics of BENCHMARK.json's end_to_end list; NaN where failed commands left no sample."""
    steps = [s for r in records for s in r.steps]
    rates = [r.items / r.busy for r in records if r.busy > 0]
    return {
        "setup_s": median(setup),
        "wall_s": median([r.wall for r in records]),
        "step_ms.p50": percentile(steps, 50) * 1e3 if steps else math.nan,
        "step_ms.p90": percentile(steps, 90) * 1e3 if steps else math.nan,
        "items_per_s": median(rates) if rates else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced: list[PassRecord], untraced: list[PassRecord]) -> dict[str, float]:
    keys = sorted({k for r in traced for k in r.layers})
    layers = {k: median([r.layers.get(k, 0.0) for r in traced]) for k in keys}
    layers["trace.untraced_wall_ms"] = median([r.wall for r in untraced]) * 1e3
    layers["trace.overhead_ms"] = layers["trace.wall_ms"] - layers["trace.untraced_wall_ms"]
    return layers


def report(workload, runner: Runner, metrics: dict, walls: list[float]) -> None:
    print(f"workload {workload.name} seed {workload.seed}: {len(walls)} measured passes "
          f"after one warm-up pass; a step is one {workload.step}")
    print("  pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    for name, m in metrics.items():
        alias = workload.aliases.get(name)
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}"
              + (f"  (= {alias})" if alias else ""))
    for name, value in runner.quality.items():
        print(f"  {name:<40} {value:>14.6g} ratio  (quality of the outputs; not bounded)")
    ledger = runner.ledger
    print(f"  error_rate {ledger.error_rate:.6g} ({ledger.failed} of {ledger.attempted} "
          "commands failed)")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    if runner.nondeterministic:
        print(f"  NONDETERMINISTIC across passes: {', '.join(sorted(runner.nondeterministic))}")
    mismatches = runner.reference_mismatches()
    if mismatches is None:
        print(f"  fingerprints: no reference recorded for seed {workload.seed}")
    elif mismatches:
        print(f"  fingerprints differing from the reference: {', '.join(mismatches)}")
    else:
        print(f"  fingerprints: all {len(runner.first_prints)} match the reference")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not an alskd checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    began = perf_counter()
    import alskd.cli
    import_ms = (perf_counter() - began) * 1e3
    if not Path(alskd.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"alskd was imported from {alskd.cli.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    env = environment(args)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(workload, work, load_reference(args.workload, args.seed))
    tracer = Tracer() if args.trace else None
    try:
        setup, probes = [], 0 if tracer else SETUP_PROBES
        env["ref_kernel_ms_start"] = reference_kernel_ms()
        runner.run_pass()  # warm-up: checked, not timed
        untraced, traced = [], []
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or not untraced or (tracer and not traced):
            # set-up launches go between passes, so host drift hits both alike
            if len(setup) < probes:
                setup.append(setup_seconds(workload.configs))
            if tracer and len(traced) < len(untraced):
                traced.append(runner.run_pass(tracer))
            else:
                untraced.append(runner.run_pass())
        setup += [setup_seconds(workload.configs) for _ in range(probes - len(setup))]
        env["ref_kernel_ms_end"] = reference_kernel_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("environment " + json.dumps(env, sort_keys=True))

    if tracer:
        values = per_layer(traced, untraced)
        values["setup.import_ms"] = import_ms
        values["env.ref_kernel.ms"] = median(
            [env["ref_kernel_ms_start"], env["ref_kernel_ms_end"]])
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        walls = [r.wall for r in traced]
    else:
        values = end_to_end(setup, untraced)
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        walls = [r.wall for r in untraced]
    report(workload, runner, metrics, walls)
    if tracer:
        print(f"  traced pass {values['trace.wall_ms']:.1f} ms = layer self times "
              f"{values['trace.self_sum_ms']:.1f} ms + unattributed "
              f"{values['trace.unattributed_ms']:.1f} ms; untraced pass "
              f"{values['trace.untraced_wall_ms']:.1f} ms; tracing overhead "
              f"{values['trace.overhead_ms']:.1f} ms")

    if args.record_reference and runner.first_prints is not None:
        record_reference(args.workload, args.seed, runner.first_prints)

    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0  # JSON has no NaN; "correct" is false below
    print(json.dumps({
        "correct": runner.ledger.failed == 0 and not runner.nondeterministic and finite,
        "attempted": runner.ledger.attempted,
        "failed": runner.ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
