"""Benchmark runner for gblab.

    python3 benchmark/run.py --workload <inflation|counting|bilinear|solve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is imported from ./src.  One
process runs one workload: it imports gblab and builds the workload's inputs
from the seed (set-up), repeats whole rounds of the workload until the next
round would end past --seconds (at least one round), reads the peak resident
set, and only then checks the first round's outputs independently and
compares every later round's outputs with the first.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are wall_s (median
seconds per round, the first round left out as warm-up when there are more),
setup_s and peak_rss_mb; with --trace 1 the workload runs
with every public function listed in layers.py wrapped in a span and the
metrics are the per-layer figures, per round.  Spans are written to
benchmark/out/ when the run ends.
"""

import time

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("inflation", "counting", "bilinear", "solve")


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time;
    falls back to the time since this file began executing."""
    fallback = time.perf_counter() - _T_IMPORT
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return age if fallback <= age <= fallback + 5.0 else fallback


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import gblab from ./src; refuse any other copy."""
    package = SRC / "gblab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no gblab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gblab

    if Path(gblab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported gblab from {gblab.__file__}, not {package}")


def run(args) -> dict:
    import_program()
    import layers
    import workloads
    from spans import Tracer, totals_by_name

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    run_dir = OUT / run_id
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        setup_s = process_age()

        tracer = None
        if args.trace:
            tracer = Tracer(run_id)
            layers.install(tracer)
        rounds = []
        t_start = time.perf_counter()
        try:
            while True:
                with tracer.span("workload.round") if tracer else contextlib.nullcontext():
                    rounds.append(workload.run_round(run_dir / f"round{len(rounds)}"))
                elapsed = time.perf_counter() - t_start
                if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = [p for r in rounds for p in r.problems]
        if not problems:
            problems += workload.check(run_dir / "round0")
            first = workloads.output_fingerprint(run_dir / "round0")
            for i in range(1, len(rounds)):
                if workloads.output_fingerprint(run_dir / f"round{i}") != first:
                    problems.append(f"round {i} outputs differ from round 0")
        for p in problems:
            print(f"incorrect: {p}", file=sys.stderr)

        walls = [r.wall for r in rounds]
        wall_s = statistics.median(walls[1:] or walls)  # the first round warms up
        if tracer is None:
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            tracer.counters["cli.output_bytes"] = sum(r.output_bytes for r in rounds)
            metrics = layers.layer_metrics(totals_by_name(tracer.spans), tracer.counters, len(rounds))
            metrics["workload.wall_s"]["value"] = wall_s
            tracer.write(OUT / f"trace-{run_id}.jsonl.gz")
        print(
            f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
            f"walls {[round(w, 3) for w in walls]}",
            file=sys.stderr,
        )
        return {
            "correct": not problems,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
