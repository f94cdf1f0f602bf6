#!/usr/bin/env python3
"""Record reference.json from the library in this checkout.

    python3 perfbench/record_reference.py

Runs every pool case of restricted_sweep and exhaustive_join once and
stores the value each op's check compares against.  Rerun it only for a
change that is meant to alter these values, and say why in that change.
"""

from __future__ import annotations

import json
import sys

from run import import_quantrel


def record(name: str) -> dict:
    import workloads
    workload = workloads.build(name, 0, None)
    table = {}
    for slot in workload.slots:
        entries = []
        for j in range(workload.pool):
            op = slot.make_op(j)
            out = op.call()
            problem = op.check(out)
            if problem is not None:
                raise SystemExit(f"error: {problem}")
            entries.append(op.recorded(out))
        table[slot.name] = entries
        print(f"{name} {slot.name}: {len(entries)} cases", file=sys.stderr)
    return table


def main() -> int:
    import_quantrel()
    import workloads
    reference = {name: record(name) for name in ("restricted_sweep", "exhaustive_join")}
    # One slot per line keeps the file short and its diffs readable.
    lines = []
    for name, table in reference.items():
        rows = [f"  {json.dumps(slot)}: {json.dumps(entries)}" for slot, entries in table.items()]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
