"""Fit the Galois action on the lines for candidate quintics, with a time
limit each; the galois-fit list in workloads.py was chosen from its output.

    python3 perfbench/find_quintics.py --seed 7 --count 40
    python3 perfbench/find_quintics.py --quintic=-2,2,-2,3,0,1

Candidates drawn from a seed are products of small monic factors of
degrees (1, 2, 2), (2, 3), (1, 4) or (1, 1, 3); irreducible factors of
high degree make the fit slow, and many draws exceed the limit.  Each line
printed is: factor degrees, coefficients (lowest degree first), then the
fitted order, the orbit lengths on the 27 lines, the fit time in seconds
and the last sampled prime, or "timeout".
"""

from __future__ import annotations

import argparse
import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class Timeout(Exception):
    pass


def _alarm(*_):
    raise Timeout


def fit(coeffs, limit: int):
    from cubicdescent import UniPoly, run_strategy
    from cubicdescent.frobenius import sample_frobenius

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(limit)
    try:
        start = time.perf_counter()
        _, report = run_strategy(UniPoly(list(coeffs)))
        s = sample_frobenius(report, 40, 500)
        return (s.subgroup_order, s.orbit_lengths,
                round(time.perf_counter() - start, 2), s.primes[-1])
    except Timeout:
        return "timeout"
    finally:
        signal.alarm(0)


def draws(seed: int, count: int):
    from cubicdescent import UniPoly

    rng = random.Random(seed)
    seen = set()
    for _ in range(count):
        kind = rng.choice(["122", "23", "14", "113"])
        f = UniPoly([1])
        for d in kind:
            f = f * UniPoly([rng.randint(-5, 5) for _ in range(int(d))] + [1])
        c = tuple(int(x) for x in f.coeffs)
        if c in seen or not f.is_squarefree() or c[0] == 0:
            continue
        seen.add(c)
        yield kind, c


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--quintic", action="append", default=[],
                    help="coefficients, lowest degree first, comma-separated")
    ap.add_argument("--limit", type=int, default=4, help="seconds per fit")
    args = ap.parse_args()
    candidates = [("given", tuple(int(x) for x in q.split(",")))
                  for q in args.quintic]
    if args.seed is not None:
        candidates += list(draws(args.seed, args.count))
    for kind, c in candidates:
        print(kind, list(c), fit(c, args.limit), flush=True)


if __name__ == "__main__":
    main()
