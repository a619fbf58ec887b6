"""Per-case breakdown of a traced `report` pass, read from its spans file.

    python3 perfbench/run.py --workload report --seed 0 --seconds 1 --trace 1 --all-cases
    python3 perfbench/breakdown.py .perfbench-out/spans-report-0.json

Prints, for each case, the seconds spent in every function that
`cli.verify_case` calls directly (one per report section) and, inside
`subsys.match_realizations`, the split between enumeration and
`reflection_closure`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def main(path: str) -> None:
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    table = defaultdict(lambda: defaultdict(float))
    for name, case, start, end, parent in spans:
        if parent < 0:
            continue
        parent_name = spans[parent][0]
        if parent_name == "cli.verify_case" or (
                parent_name == "subsys.match_realizations" and name in (
                    "subsys.enumerate_subsystems", "subsys.reflection_closure")):
            table[case][name] += end - start
        if name == "cli.verify_case":
            table[case]["total"] += end - start
    for case in sorted(table, key=str):
        row = table[case]
        print(f"{case}  total {row.pop('total', 0.0):.3f} s")
        for name, secs in sorted(row.items(), key=lambda kv: -kv[1]):
            print(f"    {name:40s} {secs:9.3f} s")


if __name__ == "__main__":
    main(sys.argv[1])
