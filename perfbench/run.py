"""Run one holderlab benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The command imports the holderlab in this checkout's ``src/`` and no
other copy; it stops at once when that package is missing.  It makes
the workload's inputs from the seed, then runs whole rounds of the
workload for ``--seconds``: a round starts only while a round of median
length still ends in time, and every run makes at least two rounds, so
that it can compare a repeat with the first round.  The first round
also checks the program's outputs; every later round must reproduce
the first round's results exactly.

With ``--trace 0`` it reports the end-to-end metrics, measured with
tracing off: ``wall_s`` (median time of a round's program calls),
``setup_s`` (process start to the first program call) and
``peak_rss_mib``.  With ``--trace 1`` each round is run twice, once
plain and once traced, and it reports the per-layer metrics of the
traced passes (medians over rounds) together with ``process.cpu_s``
and ``trace.overhead_s``; the spans of the last traced pass are written
to ``perfbench/runs/trace-<workload>-seed<seed>.json``.

Every metric is printed as "name value unit"; the last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import os
import sys
import time


def _since_boot() -> float:
    return time.clock_gettime(time.CLOCK_BOOTTIME)


def _process_start() -> float:
    """Start of this process in seconds since boot (clock-tick resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


# Keep native thread pools within the cores this process may use.  This
# must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


class MissingPackage(Exception):
    """The checkout holds no holderlab package to benchmark."""


def load_holderlab(root: Path):
    """Import holderlab from ``root/src`` and refuse any other copy."""
    package = (root / "src" / "holderlab").resolve()
    if not (package / "__init__.py").is_file():
        raise MissingPackage(f"{package} is missing: the benchmark runs only the "
                             "holderlab package of the checkout it belongs to")
    sys.path.insert(0, str(package.parent))
    import holderlab

    found = Path(holderlab.__file__).resolve().parent
    if found != package:
        raise MissingPackage(f"holderlab was imported from {found}, not from {package}")
    return holderlab


class OperationFailed(Exception):
    """A program call raised; the round it belongs to is abandoned."""


class Session:
    """Times and counts the program calls of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.first_call = None

    def op(self, fn, *args, **kwargs):
        if self.first_call is None:
            self.first_call = _since_boot()
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{getattr(fn, '__qualname__', fn)}: {exc!r}") from exc
        finally:
            self.wall += time.perf_counter() - t0
            self.cpu += time.process_time() - c0


def _timed_round(session: Session, run_round, inp, check: bool):
    wall0, cpu0 = session.wall, session.cpu
    result = run_round(inp, session.op, check)
    return result, session.wall - wall0, session.cpu - cpu0


def bench(args, holderlab, out_dir: Path, started: float) -> dict:
    # these import holderlab, so they load only after load_holderlab
    import layers
    import tracer
    import workloads

    make_inputs, run_round = workloads.WORKLOADS[args.workload]
    inp = make_inputs(args.seed, out_dir)
    session = Session()
    criteria = layers.criterion_numbers(holderlab)
    problems = []
    plain_walls, traced_walls, cpus, per_layer = [], [], [], []
    first_digest = None
    last_tracer = None
    clock0 = time.perf_counter()
    durations = []  # wall-clock length of each round, checks included
    rounds = 0
    # start a round only if a typical round still ends within --seconds
    while rounds < MIN_ROUNDS or (time.perf_counter() - clock0
                                  + statistics.median(durations) <= args.seconds):
        rounds += 1
        durations.append(-time.perf_counter())
        try:
            result, wall, cpu = _timed_round(session, run_round, inp, first_digest is None)
            plain_walls.append(wall)
            cpus.append(cpu)
            results = [result]
            if args.trace:
                t = tracer.Tracer()
                undo = tracer.instrument(t, layers.targets(holderlab),
                                         layers.package_modules(holderlab))
                try:
                    traced, wall, _ = _timed_round(session, run_round, inp, False)
                finally:
                    tracer.restore(undo)
                traced_walls.append(wall)
                per_layer.append(layers.layer_metrics(tracer.summarize(t.spans), criteria,
                                                      traced.bytes_written))
                results.append(traced)
                last_tracer = t
        except OperationFailed as exc:
            print(f"perfbench: round {rounds}: {exc}", file=sys.stderr)
            continue
        finally:
            durations[-1] += time.perf_counter()
        if first_digest is None:
            first_digest = result.digest
            problems += result.failures
        for r in results:
            if r.digest != first_digest:
                problems.append(f"round {rounds} did not reproduce the first round's results")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name, unit in layers.METRICS[:-2]:
            values = [v[name] for v in per_layer] or [0]
            # counts repeat exactly from round to round; times take the median
            metrics[name] = (statistics.median_low(values) if unit in ("count", "bytes")
                             else statistics.median(values))
        metrics["process.cpu_s"] = statistics.median(cpus) if cpus else 0.0
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain_walls)) if traced_walls else 0.0
        units = dict(layers.METRICS)
        if last_tracer is not None:
            last_tracer.write(out_dir.parent / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "wall_s": statistics.median(plain_walls) if plain_walls else 0.0,
            "setup_s": (session.first_call or _since_boot()) - started,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{session.attempted} operations, {session.failed} failed; round times "
          + " ".join(f"{w:.3f}" for w in plain_walls))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    return {
        "correct": not problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one holderlab benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("acceptance_gate", "lacunary_fine", "pressure_large",
                                 "dirichlet_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = _process_start()
    args = parse_args(argv)
    try:
        holderlab = load_holderlab(ROOT)
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / "perfbench" / "runs" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = bench(args, holderlab, out_dir, started)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
