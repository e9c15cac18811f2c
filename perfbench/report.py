"""Per-operation breakdown of a traced run's spans.

    python3 perfbench/report.py perfbench/results/scale-seed1-spans.npz

Prints, for every operation of the round (the ``op.*`` root spans), the self
time per call of each program function beneath it, averaged over the traced
rounds. On the scale workload the operations are the network sizes, so the
table is per-layer time against N.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import numpy as np


def breakdown(path):
    data = np.load(path)
    names, name_id, parent = data["names"], data["name_id"], data["parent"]
    duration = data["end"] - data["start"]
    self_time = duration.copy()
    np.subtract.at(self_time, parent[parent >= 0], duration[parent >= 0])
    root = np.arange(name_id.size)
    for k in range(name_id.size):  # parents precede their children
        if parent[k] >= 0:
            root[k] = root[parent[k]]
    ops = {k: str(names[name_id[k]]) for k in np.flatnonzero(parent < 0) if str(names[name_id[k]]).startswith("op.")}
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    runs: dict[str, int] = defaultdict(int)
    for k, op in ops.items():
        runs[op] += 1
    for k in range(name_id.size):
        op = ops.get(int(root[k]))
        if op is not None and k != root[k]:
            table[op][str(names[name_id[k]])] += self_time[k] / runs[op]
    return table


def main() -> None:
    table = breakdown(sys.argv[1])
    ops = list(table)
    totals = defaultdict(float)
    for op in ops:
        for fn, value in table[op].items():
            totals[fn] += value
    fns = sorted(totals, key=totals.get, reverse=True)
    print("self ms per op".ljust(40) + "".join(op[3:].rjust(12) for op in ops))
    for fn in fns:
        print(fn.ljust(40) + "".join(f"{1e3 * table[op].get(fn, 0.0):12.2f}" for op in ops))


if __name__ == "__main__":
    main()
