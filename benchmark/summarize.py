"""Per-module split of traced time.

    python3 benchmark/summarize.py benchmark/out/trace-*.jsonl.gz

For each trace file: the self time of every span summed by module (the part
of the span name before the first dot), as seconds per round and as a share
of the time inside the rounds.  The module 'workload' is time inside a round
that no wrapped gblab function covers.
"""

import sys
from collections import defaultdict

from spans import read_spans, self_times


def module_split(spans) -> tuple:
    """(rounds, seconds inside rounds, {module: self seconds})."""
    selfs = self_times(spans)
    by_module = defaultdict(float)
    for sp in spans:
        by_module[sp.name.split(".", 1)[0]] += selfs[sp.span_id]
    roots = [sp for sp in spans if sp.name == "workload.round"]
    return len(roots), sum(sp.duration for sp in roots), dict(by_module)


def main(paths) -> int:
    for path in paths:
        rounds, total, split = module_split(read_spans(path))
        print(f"{path}: {rounds} rounds, {total / max(rounds, 1):.3f} s per round")
        for module, sec in sorted(split.items(), key=lambda kv: -kv[1]):
            print(f"  {module:16s} {sec / max(rounds, 1):9.4f} s  {100.0 * sec / total:6.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
