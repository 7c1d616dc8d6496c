"""cProfile split of one workload round by module.

    python3 benchmark/profile_split.py --workload solve --seed 1

Runs the workload's set-up and one round under cProfile.  Each function's
own time (tottime) is charged to the gblab module that called into it:
time in numpy, scipy and compiled code goes to the nearest gblab caller,
split across callers in proportion to their cumulative time.  Time with no
gblab caller is listed as 'benchmark' or 'outside gblab'.  cProfile charges
a cost to every Python call, so call-heavy modules read high: use the split
to find candidates and the benchmark to measure them.
"""

import argparse
import cProfile
import pstats
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gblab.cli  # noqa: E402,F401  (imported before profiling starts)
import workloads  # noqa: E402


def frame_owner(filename: str):
    """'gblab.<module>' or 'benchmark' for frames that own their time."""
    path = Path(filename)
    if "gblab" in path.parts:
        return "gblab." + path.stem
    if path.parent == HERE:
        return "benchmark"
    return None


def module_split(stats: dict) -> dict:
    """Own time of every profiled function, charged to owning modules."""
    memo: dict = {}
    outside = {"outside gblab": 1.0}

    def shares(func) -> dict:
        own = frame_owner(func[0])
        if own:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = outside  # guards recursion through cycles
        callers = stats[func][4] if func in stats else {}
        total = sum(v[3] for v in callers.values())
        if total <= 0:
            return outside
        out = defaultdict(float)
        for caller, v in callers.items():
            for name, share in shares(caller).items():
                out[name] += share * v[3] / total
        memo[func] = dict(out)
        return memo[func]

    split = defaultdict(float)
    for func, row in stats.items():
        for name, share in shares(func).items():
            split[name] += row[2] * share
    return dict(split)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        work = Path(tmp)
        profiler = cProfile.Profile()
        profiler.enable()
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        workload.run_round(work / "round0")
        profiler.disable()
    split = module_split(pstats.Stats(profiler).stats)
    total = sum(split.values())
    print(f"{args.workload}: {total:.3f} s profiled")
    for name, sec in sorted(split.items(), key=lambda kv: -kv[1]):
        print(f"  {name:24s} {sec:8.3f} s {100.0 * sec / total:6.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
