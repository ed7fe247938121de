"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper16 --seed 3 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced for half the time and then with span wrappers on every
layer boundary, and prints every per-layer metric.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a readable table and any failed checks.  The
exit code is 0 only when every check passed.  See ``README.md``.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper16", "fleet300", "serve16", "sweep_cold", "sweep_warm", "sweep_resume")
#: set-up is measured this many times per run (this process plus probes)
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--pins", type=Path, default=None,
                        help="pinned-digest file (default: pins.json beside this file)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up, print the seconds it took, exit")
    return parser.parse_args(argv)


def make_workload(args, recorder, workdir: Path):
    if args.workload == "paper16":
        from des import Paper16
        return Paper16(args.seed, args.size, recorder)
    if args.workload == "fleet300":
        from des import Fleet300
        return Fleet300(args.seed, args.size, recorder)
    if args.workload == "serve16":
        from serve16 import Serve16
        return Serve16(args.seed, args.size, recorder, workdir)
    import sweep
    cls = {"sweep_cold": sweep.SweepCold, "sweep_warm": sweep.SweepWarm,
           "sweep_resume": sweep.SweepResume}[args.workload]
    return cls(args.seed, args.size, recorder, workdir)


def probe_setup(args) -> float:
    """Set-up seconds of a fresh process (interpreter start excluded)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--size", args.size]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def repeat(workload, seconds: float):
    """Repetitions until ``seconds`` have passed (at least one), each with
    the host-speed scale measured around it."""
    from common import host_scale

    reps = []
    deadline = perf_counter() + seconds
    before = host_scale()
    while not reps or perf_counter() < deadline:
        rep = workload.rep()
        after = host_scale()
        rep.scale = statistics.mean([before, after, *rep.inner_scales])
        before = after
        reps.append(rep)
    return reps


def quantile_ms(samples, q: float) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(reps, setup_samples, workload, attempted: int, failed: int):
    """Every end-to-end metric; host times are at the reference speed."""
    latencies = [x * rep.scale for rep in reps for x in rep.latencies]
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "tasks_per_s": (statistics.median(r.tasks / (r.wall_s * r.scale) for r in reps), "1/s"),
        "requests_per_s": (
            statistics.median(r.requests / (r.wall_s * r.scale) for r in reps), "1/s"),
        "rtt_p50_ms": (quantile_ms(latencies, 50), "ms"),
        "rtt_p99_ms": (quantile_ms(latencies, 99), "ms"),
        "sim_energy_kj": (reps[0].sim_energy_kj, "kJ"),
        "sim_makespan_s": (reps[0].sim_makespan_s, "sim_s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss + workload.child_rss_mb(), "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(untraced, traced):
    from spans import LAYERS

    n = len(traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (sum(r.layers.totals[layer][0] for r in traced) / n, "count")
        metrics[f"{layer}.self_s"] = (
            sum(r.layers.totals[layer][1] * r.scale for r in traced) / n, "s")

    def counter(key):
        return sum(r.layers.counters[key] for r in traced)

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    metrics["core.select.useful_ratio"] = (
        ratio(counter("select_useful"), counter("select_offered")), "ratio")
    metrics["runner.record_bytes"] = (ratio(counter("record_bytes"), counter("record_lines")), "B")
    metrics["runner.cache_hit_ratio"] = (ratio(counter("cache_hits"), counter("cache_gets")), "ratio")
    metrics["serve.transport_us"] = (
        statistics.median(r.layers.transport_us * r.scale for r in traced), "us")
    metrics["unattributed_share"] = (
        ratio(sum(r.layers.residual_s for r in traced), sum(r.layers.base_s for r in traced)),
        "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_s * r.scale for r in traced)
        / statistics.median(r.wall_s * r.scale for r in untraced),
        "ratio")
    return metrics


def check_digests(args, reps, notes) -> int:
    """Repeats must agree; at the pinned seed they must match the pin too."""
    from common import DEFAULT_PINS, PINNED_SEED, load_pins

    failed = 0
    digests = {rep.digest for rep in reps}
    if len(digests) > 1:
        notes.append(f"repetitions disagree: {len(digests)} distinct digests")
        failed += sum(rep.ops for rep in reps)
    if args.seed == PINNED_SEED:
        pins = load_pins(args.pins or DEFAULT_PINS)
        expected = pins.get(f"{args.workload}/{args.size}", {}).get(str(args.seed))
        if expected is None:
            notes.append(f"no pinned digest for {args.workload}/{args.size} seed {args.seed}")
            failed += sum(rep.ops for rep in reps)
        elif expected != reps[0].digest:
            notes.append(f"digest {reps[0].digest} differs from the pinned {expected}")
            failed += sum(rep.ops for rep in reps)
    return failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    from spans import SpanRecorder

    recorder = SpanRecorder()
    workload = make_workload(args, recorder, workdir)
    try:
        from common import host_scale

        setup_s = (perf_counter() - STARTED) * host_scale()
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if not args.trace:
            setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        if hasattr(workload, "prepare"):
            workload.prepare()
        gc.collect()
        gc.freeze()
        if args.trace:
            untraced = repeat(workload, args.seconds / 2)
            workload.start_tracing(ROOT / ".perfbench" / f"spans-{args.workload}.npz")
            traced = repeat(workload, args.seconds / 2)
            reps = untraced + traced
            metrics = per_layer(untraced, traced)
        else:
            reps = repeat(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    notes = [note for rep in reps for note in rep.notes]
    attempted = sum(rep.ops for rep in reps)
    failed = min(attempted, sum(rep.failed for rep in reps) + check_digests(args, reps, notes))
    correct = failed == 0
    if not args.trace:
        metrics = end_to_end(reps, setup_samples, workload, attempted, failed)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    if args.trace == 0:
        print(f"{'error_rate':32s} {failed / attempted:14.6g} ratio")
    print(f"{'repetitions':32s} {len(reps):14d}")
    print(f"{'host_scale (median)':32s} {statistics.median(r.scale for r in reps):14.6g}")
    print(f"{'digest':32s} {reps[0].digest}")
    for note in notes:
        print(f"check failed: {note}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
