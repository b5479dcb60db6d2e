"""Self-time shares per layer of a traced run.

    python3 perfbench/run.py --workload galois-fit --seed 1 --trace 1
    python3 perfbench/shares.py perfbench/results/galois-fit-seed1-trace1.json

Reads the per-function self times the tracer summed during the run (a
span's duration minus the durations of its direct children).  The root
span of each operation is named "op"; its self time is the time spent
outside every traced function (untraced program code and the benchmark's
own calls).  Self times add up to the duration of the traced operations,
and shares are of that total.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def main(path: str) -> None:
    detail = json.loads(open(path).read())
    by_function = {k: t for k, t in detail["self_time_s"].items() if t}
    total = sum(by_function.values())
    by_layer = defaultdict(float)
    for name, t in by_function.items():
        by_layer["untraced" if name == "op" else name.split(".")[0]] += t
    print(f"{detail['workload']}: {total:.2f} s in traced operations")
    for name, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {name:12s} {100 * t / total:5.1f} %")
    print("  functions:")
    for name, t in sorted(by_function.items(), key=lambda kv: -kv[1])[:8]:
        print(f"    {name:40s} {100 * t / total:5.1f} %")


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        main(arg)
