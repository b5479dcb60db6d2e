"""Exhaustive bounded-height rational point search on quadric intersections.

Height convention: max absolute coordinate of the primitive integer
representative.  The kernel is a residue sieve with an exact finish.  For
each prime ell in SIEVE_PRIMES a mask table M[a0, a1, a2, a3] over
residues mod ell holds, in bit a4, whether (a0, ..., a4) is a common zero
of both quadrics mod ell.  A table is built on a split grid, (a0, a1)
and (a2, a3) each one ell^2 index, as a lookup in a fold of the zero
bitmasks over x4 mod ell, with no division on the ell^4 grid
(_residue_table).  Once per call the tables are read at the residues of
the searched coordinates -H..H as bit rows of 2H + 1 cells (np.packbits
order, zero padding to whole uint64 words): the x3 row of each (a0, a1,
a2) where M is nonzero, and the x2 row of each (a0, a1) where it is
nonzero for some a3, each set one exact uint64 product of a 0/1 matrix
with the packed residue classes of the columns (_bit_rows).  The tables
of the five primes are stacked, so each stage reads all of them with one
np.take of flat residue indices.

The search runs in array passes over chunks of x0 values (sign-normalized
at x0 = 0):

- stage 1 ANDs the x2 rows of every (x0, x1) of a chunk; the set bits are
  the triples (x0, x1, x2) left, read as flat indices of the unpacked bits
  of the rows that have any;
- stage 2 ANDs the x3 rows of every surviving triple, the triple (0, 0, 0)
  included, so points (0 : 0 : 0 : x3 : x4) need no loop of their own;
- stage 3 is an x4 sieve: for each surviving 4-tuple it ANDs bit
  (x4 mod ell) of the five masks, for every x4 in -H..H.  Only the x4
  left are candidates, and every candidate other than the zero tuple is
  checked exactly on both quadrics in plain Python integers.

CHUNK bounds the cells of every pass, whatever H is: a chunk holds as many
x0 values as keep its (x0, x1, x2) cells within CHUNK (at least one), and
stages 2 and 3 take blocks of at most CHUNK // (2H + 1) triples or tuples.
A true point passes every test mod ell, so the search stays exhaustive.
Only residues below ell, bitmasks, bits and indices enter numpy, so no
coefficient size can overflow it.  The result counts the triples past
stage 1, the tuples past stage 2 and the candidates past the x4 sieve.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from math import gcd

import numpy as np

from .descent import DP4Surface
from .forms import ProjPoint
from .intfactor import primitive_part

#: moduli of the residue sieve (see _residue_table)
SIEVE_PRIMES = (3, 5, 7, 11, 13)
#: a bound on every int16 value of a residue table build: an index into
#: the folded zero masks (see _residue_table)
RESIDUE_BOUND = 6 * max(SIEVE_PRIMES) ** 2
assert RESIDUE_BOUND <= np.iinfo(np.int16).max
#: the counts of SearchResult.sieve: triples past stage 1, tuples past
#: stage 2 and candidates past the x4 sieve
SIEVE_COUNTS = ("triples", "tuples", "candidates")
#: cells of one array pass: a chunk of x0 values whose (x0, x1, x2) cells
#: fit (at least one x0), and blocks of (triple, x3) and (tuple, x4) cells
CHUNK = 1 << 16


@dataclass
class SearchResult:
    points: list
    height_bound: int
    convention: str = "max-abs-coordinate of primitive representative"
    elapsed_ms: float = 0.0
    #: {name: count} for the names in SIEVE_COUNTS (None for a search
    #: without the sieve)
    sieve: dict | None = None

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
    return sum(c * x[i] * x[j] for (i, j), c in cs.items())


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


@functools.cache
def _ell_tables(ell: int):
    """_residue_table's tables for ell, built on first use, read-only: the
    monomials hi^2, hi*lo, lo^2, hi, lo of a pair at flat index hi * ell +
    lo; cross[u * ell + v, a2 * ell + a3] = (u*a2 + v*a3) mod ell; and
    zeros[sq, l * 3ell + f], the bitmask over a4 of the zeros of f + l*a4 +
    sq*a4^2 mod ell, for f < 3ell and l < 2ell (uint16: ell <= 16)."""
    hi, lo = np.divmod(np.arange(ell * ell, dtype=np.int16), ell)
    a = np.arange(ell, dtype=np.int16)
    # the masks of the residue pairs (hi, lo), folded by one gather
    zero = (hi[:, None] + lo[:, None] * a + a[:, None, None] * a * a) % ell
    lin, fix = np.divmod(np.arange(6 * ell * ell), 3 * ell)
    tables = (np.array([hi * hi, hi * lo, lo * lo, hi, lo]),
              (hi[:, None] * hi + lo[:, None] * lo) % ell,
              ((zero == 0) << a).sum(axis=-1, dtype=np.uint16)[
                  :, fix % ell * ell + lin % ell])
    for t in tables:
        t.flags.writeable = False
    return tables


def _residue_table(c0: dict, c1: dict, ell: int) -> np.ndarray:
    """Mask table M[a0, a1, a2, a3] over residues mod ell (uint16): bit a4
    is set iff both integer forms vanish at (a0, ..., a4) mod ell.  Every
    integer point reduces onto a set bit, whether or not the reduction mod
    ell is good, so the table only ever discards tuples with no solution.

    Each form is fixed + linear*a4 + sq*a4^2.  On the split grid p = (a0,
    a1), q = (a2, a3), each an ell^2 flat index, fixed = A(p) + B(q) +
    u(p)*a2 + v(p)*a3 and linear = L1(p) + L2(q), whose parts are one
    product with the monomials of a pair, reduced mod ell on ell^2 arrays.
    On the ell^4 grid, one slab per form, the row gather cross[u * ell + v]
    and two broadcast sums give idx = (L1 + L2) * 3ell + A + B + cross, and
    M = zeros[sq0][idx0] & zeros[sq1][idx1] (_ell_tables): no division.

    The int16 bound: A, B and cross are residues, so fixed <= 3(ell - 1),
    and linear <= 2(ell - 1).  Every term is nonnegative, so every int16
    value on the grid is at most idx <= 2(ell - 1) * 3ell + 3(ell - 1) <
    6 ell^2 = RESIDUE_BOUND (1,014 for ell = 13), and idx lies in zeros.
    """
    mono, cross, zeros = _ell_tables(ell)
    rs = [{k: v % ell for k, v in cs.items()} for cs in (c0, c1)]
    # A, B, u, v, L1, L2 of each form over hi^2, hi*lo, lo^2, hi, lo
    parts = np.array([[[r[0, 0], r[0, 1], r[1, 1], 0, 0],
                       [r[2, 2], r[2, 3], r[3, 3], 0, 0],
                       *([0, 0, 0, r[0, k], r[1, k]] for k in (2, 3, 4)),
                       [0, 0, 0, r[2, 4], r[3, 4]]] for r in rs])
    A, B, u, v, L1, L2 = np.moveaxis(parts @ mono % ell, 1, 0)
    idx = np.take(cross, u * ell + v, axis=0)
    idx += (A + 3 * ell * L1).astype(np.int16)[..., None]
    idx += (B + 3 * ell * L2).astype(np.int16)[:, None, :]
    return (np.take(zeros[rs[0][4, 4]], idx[0])
            & np.take(zeros[rs[1][4, 4]], idx[1])).reshape((ell,) * 4)


def _stack(tables):
    """The tables of all sieve primes as one array, concatenated along the
    first axis, and the column (primes, 1) of each prime's offset in it."""
    sizes = [len(t) for t in tables]
    return np.concatenate(tables), np.cumsum([0] + sizes[:-1])[:, None]


def _pack_rows(t: np.ndarray, words: int) -> np.ndarray:
    """The boolean rows along the last axis of t as bit rows of `words`
    uint64 words each (np.packbits order, zero padding at the end)."""
    packed = np.packbits(t, axis=-1)
    out = np.zeros(packed.shape[:-1] + (8 * words,), dtype=np.uint8)
    out[..., :packed.shape[-1]] = packed
    return out.view(np.uint64)


def _class_rows(r: np.ndarray, ell: int, words: int) -> np.ndarray:
    """W[c], c < ell: the bit row of the columns with residue c in r."""
    return _pack_rows(r == np.arange(ell)[:, None], words)


def _bit_rows(m4: np.ndarray, W: np.ndarray):
    """The x3 rows (where m4 is nonzero) and x2 rows (where it is nonzero
    for some a3) of a mask table over the columns of W, each one uint64
    product of a 0/1 matrix with W.  The rows of W share no bit, so every
    sum is their OR; the x2 rows read the row sums of the x3 product."""
    ell = len(W)
    t = (m4 != 0).reshape(-1, ell).astype(np.uint64) @ np.hstack(
        [W, np.ones((ell, 1), dtype=np.uint64)])
    return t[:, :-1], (t[:, -1] != 0).reshape(-1, ell).astype(np.uint64) @ W


def _live_cells(rows: np.ndarray, width: int):
    """(row, column) of every set bit of the bit rows, unpacking only the
    rows with a bit set.  A row is tested word by word: a numpy reduction
    along a short last axis costs about 20 ns a row."""
    live = np.flatnonzero(functools.reduce(np.bitwise_or, rows.T))
    k = np.flatnonzero(np.unpackbits(rows[live].view(np.uint8), axis=1,
                                     count=width).view(bool))
    return live[k // width], k % width


def search(V: DP4Surface, H: int) -> SearchResult:
    """All points of V with primitive-representative height <= H."""
    if H < 1:
        raise ValueError("height bound must be >= 1")
    t0 = time.monotonic()
    c0, c1 = _int_quadrics(V)
    width = 2 * H + 1
    words = -(-width // 64)
    ells = np.array(SIEVE_PRIMES)[:, None]
    res = np.arange(-H, H + 1) % ells       # (primes, width) residues
    bits = (1 << res).astype(np.uint16)     # the x4 bit of each residue
    tables = [_residue_table(c0, c1, ell) for ell in SIEVE_PRIMES]
    x3rows, x2rows = zip(*(_bit_rows(m4, _class_rows(r, len(m4), words))
                           for m4, r in zip(tables, res)))
    x2rows, off2 = _stack(x2rows)
    x3rows, off3 = _stack(x3rows)
    masks, off4 = _stack([m4.ravel() for m4 in tables])
    # idx[e], a row of a stacked table, is prime e's residue index of the
    # coordinates so far plus its offset; one more coordinate with column
    # i makes it idx * ell + code[e, i] in the next table
    code2 = res + off2
    code3 = res + off3 - ells * off2
    code4 = res + off4 - ells * off3
    # sign normalization at x0 = 0: x1 >= 0, and x2 >= 0 when x1 = 0
    nonneg = _pack_rows(np.arange(-H, H + 1) >= 0, words)
    per_chunk = max(1, CHUNK // width ** 2)
    block = max(1, CHUNK // width)
    counts = dict.fromkeys(SIEVE_COUNTS, 0)
    found: set = set()

    def sieve_x4(idx4, row, i2, i3):
        """Stage 3 on 4-tuples, given by their rows idx4 of the mask
        table, the row x0 * width + x1 + H of their (x0, x1) and the
        columns of x2 and x3: the last sieve prime on every (tuple, x4)
        cell, the others on its survivors, then the exact check."""
        for s in range(0, len(row), block):
            m = np.take(masks, idx4[:, s:s + block])
            k, i4 = np.divmod(
                np.flatnonzero((m[-1, :, None] & bits[-1]) != 0), width)
            keep = (np.take(m[:-1], k, axis=1)
                    & np.take(bits[:-1], i4, axis=1)).all(axis=0)
            k, i4 = k[keep] + s, i4[keep]
            counts["candidates"] += len(k)
            for pt in zip((row[k] // width).tolist(),
                          (row[k] % width - H).tolist(), (i2[k] - H).tolist(),
                          (i3[k] - H).tolist(), (i4 - H).tolist()):
                # the zero tuple is no point; the rest verify exactly
                if any(pt) and _eval_int(c0, pt) == 0 \
                        and _eval_int(c1, pt) == 0:
                    found.add(ProjPoint(pt))

    for start in range(0, H + 1, per_chunk):
        # stage 1: the x2 rows of every (x0, x1) of the chunk
        r0 = res[:, H + start:H + start + per_chunk]
        idx = (r0[..., None] * ells[..., None]
               + code2[:, None, :]).reshape(len(ells), -1)
        rows = np.bitwise_and.reduce(np.take(x2rows, idx, axis=0), axis=0)
        if start == 0:
            rows[:H] = 0
            rows[H] &= nonneg
        r01, i2 = _live_cells(rows, width)
        counts["triples"] += len(r01)
        # stage 2: the x3 row of each surviving triple, in blocks; the
        # tuples left wait for stage 3 until a block of them is full
        waiting, size = [], 0
        for s in range(0, len(r01), block):
            j01, j2 = r01[s:s + block], i2[s:s + block]
            idx3 = (np.take(idx, j01, axis=1) * ells
                    + np.take(code3, j2, axis=1))
            t, i3 = _live_cells(np.bitwise_and.reduce(
                np.take(x3rows, idx3, axis=0), axis=0), width)
            counts["tuples"] += len(t)
            waiting.append((np.take(idx3, t, axis=1) * ells
                            + np.take(code4, i3, axis=1),
                            start * width + j01[t], j2[t], i3))
            size += len(t)
            if size >= block or s + block >= len(r01):
                sieve_x4(*(np.concatenate(a, axis=-1) for a in zip(*waiting)))
                waiting, size = [], 0

    return SearchResult(sorted(found), H, sieve=counts,
                        elapsed_ms=(time.monotonic() - t0) * 1000)
