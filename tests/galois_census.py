"""Census of the fitted Galois action on 60 seeded quintics.

The quintics come from random.Random(7): 30 squarefree monic quintics
with coefficients in [-9, 9], then 30 squarefree products of a monic
linear or quadratic factor with a monic quartic or cubic one, their
coefficients in [-5, 5].  Each goes through run_strategy and
sample_frobenius (40 primes below 500).  The script prints one line per
quintic, (order, orbits) or the error raised, then the distinct pairs
with their counts and the total time.

    PYTHONPATH=src python3 tests/galois_census.py
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter

import cubicdescent as cd
from cubicdescent.errors import CubicDescentError
from cubicdescent.frobenius import sample_frobenius


def census_quintics(seed: int = 7) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < 60:
        if len(out) < 30:
            f = cd.UniPoly([rng.randint(-9, 9) for _ in range(5)] + [1])
        else:
            d = rng.choice((1, 2))
            f = (cd.UniPoly([rng.randint(-5, 5) for _ in range(d)] + [1])
                 * cd.UniPoly([rng.randint(-5, 5) for _ in range(5 - d)]
                              + [1]))
        c = tuple(int(x) for x in f.coeffs)
        if c not in out and f.is_squarefree():
            out.append(c)
    return out


def fit(coeffs):
    """(order, orbits) of the fitted group, or the error's class name."""
    try:
        _, report = cd.run_strategy(cd.UniPoly(list(coeffs)))
        s = sample_frobenius(report)
    except CubicDescentError as err:
        return type(err).__name__
    return s.subgroup_order, tuple(s.orbit_lengths)


def main() -> int:
    pairs = Counter()
    start = time.perf_counter()
    for coeffs in census_quintics():
        t = time.perf_counter()
        result = fit(coeffs)
        pairs[result] += 1
        print(f"{list(coeffs)}  {result}  {time.perf_counter() - t:.3f} s")
    total = time.perf_counter() - start
    for result, count in sorted(pairs.items(), key=str):
        print(f"{count:3d}  {result}")
    print(f"total {total:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
