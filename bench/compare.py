"""Compare the run records of two commits, workload by workload.

    python3 bench/compare.py OLD_RECORDS_DIR NEW_RECORDS_DIR

Each directory holds the files ``bench/run.py`` writes to
``bench/.work/records/``.  Records are paired by file name (workload, seed,
trace); the comparison is refused, with exit code 2, when a pair's input
digests differ, because the two runs did not answer the same jobs.  For
every metric the medians over the paired seeds are printed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    return {p.name: json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    pairs = sorted(old.keys() & new.keys())
    if not pairs:
        print("no records with the same workload, seed and trace flag", file=sys.stderr)
        return 2
    for name in pairs:
        if old[name]["input_digest"] != new[name]["input_digest"]:
            print(f"refusing to compare {name}: the input digests differ", file=sys.stderr)
            return 2
    values = defaultdict(lambda: ([], []))  # (workload, section, metric) -> (old, new)
    for name in pairs:
        for side, record in enumerate((old[name], new[name])):
            for section in ("end_to_end", "per_layer"):
                for metric, value in record.get(section, {}).items():
                    values[record["workload"], section, metric][side].append(value)
    for (workload, section, metric), (a, b) in sorted(values.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        print(f"{workload:10s} {metric:30s} {ma:12.6g} -> {mb:12.6g}  {change:>8s}  ({len(a)} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
