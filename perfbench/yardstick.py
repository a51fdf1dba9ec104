"""Yardstick: a fixed computation that uses no lrsim code.

    python3 perfbench/yardstick.py

It builds rows of floats as dicts and writes them with csv.DictWriter to
memory, the kind of work of lrsim's cli, then runs numpy normals,
exponentials and sorts on 8 MB arrays, the kind of work of case generation,
the engines and the oracle. The two halves take about the same time. It
prints the seconds the computation took.

The benchmark runs it as a child between its timed invocations. The printed
time gauges the host's CPU speed at that moment. The rest of the child's
wall time, mostly starting an interpreter and importing numpy, gauges the
cost of starting a process. Running it in a child keeps the benchmark's own
process small: a child spawned from it can inherit its peak RSS in
``ru_maxrss``.
"""

import csv
import io
import sys
from time import perf_counter

import numpy as np

CSV_ROWS = 8000
NP_REPEATS = 12


def main() -> int:
    t0 = perf_counter()
    rng = np.random.default_rng(0)
    cols = {f"c{j}": rng.standard_normal(CSV_ROWS).tolist() for j in range(12)}
    rows = [{c: cols[c][i] for c in cols} for i in range(CSV_ROWS)]
    writer = csv.DictWriter(io.StringIO(), fieldnames=list(cols))
    writer.writeheader()
    writer.writerows(rows)
    data = rng.standard_normal(1 << 20)
    acc = 0.0
    for _ in range(NP_REPEATS):
        acc += float(np.exp(-0.5 * data ** 2).sum())
        acc += float(np.sort(data)[512])
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
