"""Exhaustive bounded-height rational point search on quadric intersections.

Height convention: max absolute coordinate of the primitive integer
representative.  The kernel is a residue sieve with an exact finish.  For
each prime ell in SIEVE_PRIMES a table over residues mod ell records which
(x0, x1, x2, x3) mod ell extend to a common zero of both quadrics mod ell.
A table is one lookup, with no loop over x4 mod ell: each form is
fixed + linear*x4 + sq*x4^2, fixed and linear are evaluated once over the
ell^4 grid in int16 (every sum below RESIDUE_BOUND) and reduced mod ell,
and the residue pair (fixed, linear) indexes a uint16 bitmask of the
zeros over x4 mod ell; the two masks are ANDed.  Once per call the tables
are read at the residues of the searched coordinates -H..H and packed
into bit rows of 2H + 1 cells (np.packbits, zero padding to whole bytes):
the x3 row of each (a0, a1, a2) in the full table and the x2 row of each
(a0, a1) in the table projected to three coordinates.  Stage 1 ANDs the
x2 rows of every x1 for each x0 (sign-normalized); stage 2 ANDs the x3
rows of every surviving triple, the triple (0, 0, 0) included, so points
(0 : 0 : 0 : x3 : x4) need no loop of their own.  Only rows with a bit
left are unpacked.  Each surviving 4-tuple is solved for x4 as a conic in
plain Python integers and every root other than the zero tuple is
re-verified on both quadrics.  Only residues below ell, bitmasks and bits
enter numpy, so no coefficient size can overflow it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .descent import DP4Surface
from .forms import ProjPoint
from .intfactor import primitive_part

#: moduli of the residue sieve (see _residue_table)
SIEVE_PRIMES = (3, 5, 7, 11, 13)
#: a bound on every int16 sum in a residue table: 15 monomials, each a
#: coefficient residue times two coordinate residues, all below ell
RESIDUE_BOUND = 15 * (max(SIEVE_PRIMES) - 1) ** 3
assert RESIDUE_BOUND <= np.iinfo(np.int16).max


@dataclass
class SearchResult:
    points: list
    height_bound: int
    convention: str = "max-abs-coordinate of primitive representative"
    elapsed_ms: float = 0.0

    @property
    def count(self) -> int:
        return len(self.points)


def verify_point(V: DP4Surface, P) -> bool:
    """Exact membership test on both quadrics."""
    coords = P.coords if isinstance(P, ProjPoint) else tuple(P)
    return V.Q0.evaluate(coords) == 0 and V.Q1.evaluate(coords) == 0


def _int_quadrics(V: DP4Surface):
    """Integer polynomial coefficient dicts {(i,j): int} of both quadrics,
    each the primitive part of its form (scaling a form keeps its zeros),
    read off the Gram numerators: N_ii and 2 * N_ij."""
    index = [(i, j) for i in range(5) for j in range(i, 5)]
    return [dict(zip(index, primitive_part(
        [q.num[5 * i + j] * (1 if i == j else 2) for i, j in index])[1]))
        for q in (V.Q0, V.Q1)]


def _eval_int(cs: dict, x) -> int:
    total = 0
    for (i, j), c in cs.items():
        total += c * x[i] * x[j]
    return total


def brute_force_search(V: DP4Surface, H: int) -> SearchResult:
    """Naive five-fold loop over all primitive sign-normalized tuples.

    Oracle for completeness tests; do not use beyond tiny H.
    """
    t0 = time.monotonic()
    c0, c1 = _int_quadrics(V)
    found = set()
    rng = range(-H, H + 1)
    for x0 in range(0, H + 1):
        r1 = rng if x0 else range(0, H + 1)
        for x1 in r1:
            r2 = rng if (x0 or x1) else range(0, H + 1)
            for x2 in r2:
                r3 = rng if (x0 or x1 or x2) else range(0, H + 1)
                for x3 in r3:
                    r4 = rng if (x0 or x1 or x2 or x3) else range(1, H + 1)
                    for x4 in r4:
                        x = (x0, x1, x2, x3, x4)
                        if gcd(*x) != 1:
                            continue
                        if _eval_int(c0, x) == 0 and _eval_int(c1, x) == 0:
                            found.add(ProjPoint(x))
    pts = sorted(found)
    return SearchResult(pts, H, elapsed_ms=(time.monotonic() - t0) * 1000)


def _solve_conic_in_x4(a, b, c, H):
    """Integer roots x4, |x4| <= H, of a*x4^2 + b*x4 + c (every x4 in
    range when all three vanish)."""
    out = []
    if a == 0:
        if b == 0:
            if c == 0:
                out.extend(range(-H, H + 1))
            return out
        if c % b == 0:
            x4 = -c // b
            if abs(x4) <= H:
                out.append(x4)
        return out
    disc = b * b - 4 * a * c
    if disc < 0:
        return out
    r = isqrt(disc)
    if r * r != disc:
        return out
    for s in (r, -r):
        num = -b + s
        if num % (2 * a) == 0:
            x4 = num // (2 * a)
            if abs(x4) <= H:
                out.append(x4)
    return sorted(set(out))


def _reduce(x: np.ndarray, ell: int) -> np.ndarray:
    """x mod ell for a nonnegative integer array.  numpy divides by a
    scalar in a vectorized loop but has none for the remainder: on 13^4
    int16 cells x - x // ell * ell takes about 13 us and x % ell 92 us
    (x86-64, numpy 2.4)."""
    return x - x // ell * ell


def _zero_masks(sq: int, ell: int) -> np.ndarray:
    """Z[f * ell + l] for (f, l) in F_ell^2: the bitmask over a4 mod ell of
    the zeros of f + l*a4 + sq*a4^2 mod ell (uint16, since ell <= 16)."""
    a4 = np.arange(ell, dtype=np.int16)
    fl = np.arange(ell * ell, dtype=np.int16)[:, None]
    zero = (fl // ell + fl % ell * a4 + sq * a4 * a4) % ell == 0
    return (zero.astype(np.uint16) << a4.astype(np.uint16)).sum(
        axis=1, dtype=np.uint16)


def _residue_table(c0: dict, c1: dict, ell: int) -> np.ndarray:
    """Boolean table T[a0, a1, a2, a3] over residues mod ell: True iff some
    a4 mod ell makes both integer forms vanish mod ell.

    As a polynomial in a4 each form is fixed + linear*a4 + sq*a4^2, with
    fixed and linear forms in a0..a3.  Both are evaluated once over the
    ell^4 grid and reduced mod ell; then T = Z0[fixed0*ell + linear0] &
    Z1[fixed1*ell + linear1] != 0, where Zk holds the zero bitmask over a4
    of each (fixed, linear) residue pair (_zero_masks).  Every integer
    point reduces into a True entry, whether or not the reduction mod ell
    is good, so the table only ever discards tuples with no solution.

    fixed is built in Horner order, one coordinate at a time, so most
    products run on grids of fewer dimensions: fixed_k = fixed_(k-1) +
    (col_k + r_kk*a_k)*a_k mod ell, where col_k = sum_(i<k) r_ik*a_i is
    kept unreduced.  The sums run in int16 on residues in [0, ell): a
    step adds a residue to at most four terms, each a coefficient residue
    times two coordinate residues, so no sum exceeds RESIDUE_BOUND.
    """
    a = np.arange(ell, dtype=np.int16)
    times = np.outer(a, a)                  # times[c] = c * a
    hit = None
    for cs in (c0, c1):
        r = {k: v % ell for k, v in cs.items()}
        fixed = np.zeros((), dtype=np.int16)
        # cols[j]: sum of r[i, j] * a_i over the coordinates i < k so far;
        # cols[4] ends as the part linear in a4
        cols = [fixed] * 5
        for k in range(4):
            fixed = _reduce(fixed[..., None]
                            + (cols[k][..., None] + times[r[k, k]]) * a, ell)
            for j in range(k + 1, 5):
                cols[j] = cols[j][..., None] + times[r[k, j]]
        cell = np.take(_zero_masks(r[4, 4], ell),
                       fixed * ell + _reduce(cols[4], ell))
        hit = cell if hit is None else hit & cell
    return hit != 0


def search(V: DP4Surface, H: int) -> SearchResult:
    """All points of V with primitive-representative height <= H."""
    if H < 1:
        raise ValueError("height bound must be >= 1")
    t0 = time.monotonic()
    c0, c1 = _int_quadrics(V)
    # Q0 as a conic a*x4^2 + b*x4 + c over (x0, x1, x2, x3)
    sq = c0[4, 4]
    lin = [c0[j, 4] for j in range(4)]
    rest = [(i, j, c) for (i, j), c in c0.items() if j < 4 and c]
    width = 2 * H + 1
    coords = np.arange(-H, H + 1)
    sieve = []
    for ell in SIEVE_PRIMES:
        t4 = _residue_table(c0, c1, ell)
        res = coords % ell
        # bit rows over the searched coordinates: the x3 row of each
        # (a0, a1, a2) in T4 and the x2 row of each (a0, a1) in T3;
        # np.take gathers them contiguously, which packbits reads about
        # twice as fast as the strided result of t4[..., res]
        sieve.append((ell, res,
                      np.packbits(np.take(t4, res, axis=3), axis=-1),
                      np.packbits(np.take(t4.any(axis=3), res, axis=2),
                                  axis=-1)))
    # sign normalization at x0 = 0: x1 >= 0, and x2 >= 0 when x1 = 0
    nonneg = np.packbits(coords >= 0)
    # stage 2 runs on blocks of at most 2**20 (x1, x2, x3) cells
    block = max(1, (1 << 20) // width)
    found: set = set()

    def live_cells(rows):
        """(row, column) of every set bit, unpacking only live rows."""
        live = np.flatnonzero(rows.any(axis=1))
        k, col = np.nonzero(np.unpackbits(rows[live], axis=1, count=width))
        return live[k], col

    for x0 in range(H + 1):
        # stage 1: the x2 rows of every x1 against T3[x0 mod ell]
        rows = None
        for ell, res, _, x2rows in sieve:
            r = x2rows[x0 % ell][res]
            rows = r if rows is None else rows & r
        if x0 == 0:
            rows[:H] = 0
            rows[H] &= nonneg
        i1, i2 = live_cells(rows)
        # stage 2: the x3 row of each surviving triple against T4
        for s in range(0, len(i1), block):
            j1, j2 = i1[s:s + block], i2[s:s + block]
            cells = None
            for ell, res, x3rows, _ in sieve:
                r = x3rows[x0 % ell][res[j1], res[j2]]
                cells = r if cells is None else cells & r
            ks, i3s = live_cells(cells)
            x1s, x2s = (j1 - H).tolist(), (j2 - H).tolist()
            for k, i3 in zip(ks.tolist(), i3s.tolist()):
                x = (x0, x1s[k], x2s[k], i3 - H)
                b = sum(cj * xj for cj, xj in zip(lin, x))
                c = sum(cij * x[i] * x[j] for i, j, cij in rest)
                for x4 in _solve_conic_in_x4(sq, b, c, H):
                    pt = x + (x4,)
                    # the zero tuple is no point; the rest verify exactly
                    if (x4 or any(x)) and _eval_int(c0, pt) == 0 \
                            and _eval_int(c1, pt) == 0:
                        found.add(ProjPoint(pt))

    pts = sorted(found)
    return SearchResult(pts, H, elapsed_ms=(time.monotonic() - t0) * 1000)
