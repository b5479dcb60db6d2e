"""Exact dense linear algebra over the rationals, and the ranks mod
primes of every leading column block of a batch of residue matrices, one
prime p < 2^31 each, in one numpy elimination (column_ranks_mod_p; one
matrix is a batch of one).

A Matrix is immutable: row-major integer numerators over one positive
denominator, in lowest terms.  Elimination runs fraction-free (Bareiss)
on the numerator rows, so intermediate values stay integral and are
bounded by minors of the input; one integer back-substitution solves it.
Pivoting is deterministic: for every column we take the first usable row
in top-down scan order, which makes all derived canonical choices
reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

import numpy as np

from .errors import NonSquareMatrixError, SingularMatrixError
from .intfactor import (as_fraction, lowest_terms, over_common_denominator,
                        primitive_part)
from .unipoly import UniPoly, _newton_charpoly


class Matrix:
    """Immutable dense rational matrix: row-major integer numerators num
    over one positive denominator den, gcd(*num, den) = 1."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, entries):
        num, self.den = over_common_denominator(entries)
        if len(num) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(num)}")
        self.rows, self.cols, self.num = rows, cols, tuple(num)

    @classmethod
    def _from_num(cls, rows: int, cols: int, num, den: int = 1) -> "Matrix":
        """The matrix with the row-major integer numerators num over den
        != 0, reduced to lowest terms."""
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.num, m.den = lowest_terms(num, den)
        return m

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([1] * n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._from_num(rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        values, den = over_common_denominator(values)
        n = len(values)
        return cls._from_num(n, n, [values[i] if i == j else 0
                                    for i in range(n) for j in range(n)], den)

    def _int_rows(self) -> list:
        """The numerator rows, as fresh lists."""
        c = self.cols
        return [list(self.num[i * c:(i + 1) * c]) for i in range(self.rows)]

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.num[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple:
        return tuple(Fraction(v, self.den)
                     for v in self.num[i * self.cols:(i + 1) * self.cols])

    def column(self, j: int) -> tuple:
        return tuple(Fraction(v, self.den) for v in self.num[j::self.cols])

    def transpose(self) -> "Matrix":
        return Matrix._from_num(self.cols, self.rows,
                                [v for j in range(self.cols)
                                 for v in self.num[j::self.cols]], self.den)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        d, e = self.den, other.den
        return Matrix._from_num(self.rows, self.cols,
                                [a * e + b * d for a, b in zip(self.num, other.num)],
                                d * e)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._from_num(self.rows, self.cols, [-a for a in self.num],
                                self.den)

    def scale(self, c) -> "Matrix":
        c = as_fraction(c)
        return Matrix._from_num(self.rows, self.cols,
                                [c.numerator * a for a in self.num],
                                c.denominator * self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = [other.num[j::other.cols] for j in range(other.cols)]
        return Matrix._from_num(self.rows, other.cols,
                                [sum(map(mul, r, c)) for r in self._int_rows()
                                 for c in cols], self.den * other.den)

    def mul_vec(self, v) -> tuple:
        v, e = over_common_denominator(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(Fraction(sum(map(mul, r, v)), self.den * e)
                     for r in self._int_rows())

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise NonSquareMatrixError("trace of non-square matrix")
        return Fraction(sum(self.num[::self.cols + 1]), self.den)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.transpose() == self

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.rows, self.cols, self.num, self.den))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _bareiss_echelon(rows):
    """In-place fraction-free row echelon form of an integer matrix.

    Returns (pivots, sign) where pivots is a list of (row, col) pivot
    positions and sign tracks row swaps.  Pivot choice: for each column,
    the first row (top-down) with a nonzero entry.
    """
    if not rows:
        return [], 1
    n, m = len(rows), len(rows[0])
    pivots = []
    sign = 1
    prev = 1
    pr = 0
    for pc in range(m):
        if pr >= n:
            break
        pivot_row = None
        for i in range(pr, n):
            if rows[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            sign = -sign
        piv = rows[pr][pc]
        for i in range(pr + 1, n):
            if all(x == 0 for x in rows[i]):
                continue
            for j in range(m):
                if j == pc:
                    continue
                rows[i][j] = (piv * rows[i][j] - rows[i][pc] * rows[pr][j]) // prev
            rows[i][pc] = 0
        prev = piv
        pivots.append((pr, pc))
        pr += 1
    return pivots, sign


def _int_det(rows) -> int:
    """Determinant of a square integer matrix; eliminates in rows."""
    n = len(rows)
    pivots, sign = _bareiss_echelon(rows)
    if len(pivots) < n:
        return 0
    return sign * rows[n - 1][n - 1] if n else 1


def _int_rank(rows) -> int:
    """Rank of an integer matrix; eliminates in rows."""
    return len(_bareiss_echelon(rows)[0])


def det(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise NonSquareMatrixError("determinant of non-square matrix")
    return Fraction(_int_det(m._int_rows()), m.den ** m.rows)


def rank(m: Matrix) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return _int_rank(m._int_rows())


def column_ranks_mod_p(mats, moduli):
    """ranks[b, j]: the rank over F_q, q = moduli[b], of the first j + 1
    columns of mats[b], for an int64 array mats (batch, rows, cols) of
    residues in [0, q) and primes q < 2^31 (larger raise ValueError).

    Gaussian elimination over the columns in order, all matrices at once.
    A pivot is the first row not yet used as one with a nonzero entry in
    the column; every other unused row r with r_c != 0 becomes
    piv * r - r_c * pivot row mod q, with no inverse taken.  The update
    runs over the rows that some matrix of the batch needs changed, and
    scales such a row by the unit piv in the matrices that do not.  Each
    product of two residues is below 2^62, so int64 is exact.  The unused
    rows are zero in every column already passed, so the count of pivots
    so far is the rank of the leading columns."""
    moduli = np.asarray(moduli, dtype=np.int64)
    if moduli.max() >= 1 << 31:
        raise ValueError(f"column_ranks_mod_p needs p < 2^31, got "
                         f"{moduli.max()}")
    m = mats.copy()
    batch, rows, cols = m.shape
    at = np.arange(batch)
    free = np.ones((batch, rows), dtype=bool)
    rank = np.zeros(batch, dtype=np.int64)
    ranks = np.empty((batch, cols), dtype=np.int64)
    q = moduli[:, None, None]
    for c in range(cols):
        live = free & (m[:, :, c] != 0)
        found = live.any(axis=1)
        piv = live.argmax(axis=1)
        prow = m[at, piv, c:]
        live[at, piv] = False
        hit = np.flatnonzero(live.any(axis=0))
        if hit.size:
            factor = np.where(live[:, hit], m[:, hit, c], 0)
            scale = np.where(found, prow[:, 0], 1)
            m[:, hit, c:] = (m[:, hit, c:] * scale[:, None, None]
                             - factor[:, :, None] * prow[:, None, :]) % q
        free[at, piv] &= ~found
        rank += found
        ranks[:, c] = rank
        if rank.min() == rows:
            ranks[:, c:] = rows
            break
    return ranks


def charpoly(m: Matrix) -> UniPoly:
    """Monic characteristic polynomial det(T*I - m), exact: Newton's
    identities on the integer traces Tr(N^k), k <= n, of the numerators
    N = den * m, whose eigenvalues are den times those of m."""
    if m.rows != m.cols:
        raise NonSquareMatrixError("charpoly of non-square matrix")
    n = m.rows
    cols = [m.num[j::n] for j in range(n)]
    power, traces = m._int_rows(), []
    for k in range(n):
        if k:
            power = [[sum(map(mul, r, c)) for c in cols] for r in power]
        traces.append(sum(power[i][i] for i in range(n)))
    return _newton_charpoly(traces, m.den)


def _back_substitute(rows, pivots, x: list, rhs: int | None = None) -> tuple:
    """(y, d): y = d * x for the solution x of the Bareiss echelon rows
    (with the right-hand side rows[i][rhs], or 0 when rhs is None) whose
    free unknowns take the integer values in x (its pivot entries are
    ignored), and d the last pivot (1 with no pivot).  d is, up to sign,
    the minor of the pivot rows and columns, so d * x is integral by
    Cramer's rule and every division below is exact."""
    d = rows[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    y = [d * v for v in x]
    n = len(x)
    for (pr, pc) in reversed(pivots):
        row = rows[pr]
        s = d * row[rhs] if rhs is not None else 0
        for j in range(pc + 1, n):
            if row[j] and y[j]:
                s -= row[j] * y[j]
        y[pc] = s // row[pc]
    return y, d


def solve_linear(m: Matrix, rhs) -> list | None:
    """One exact solution of m*x = rhs, or None if inconsistent.

    Underdetermined systems get the canonical solution with all free
    variables (non-pivot columns under deterministic elimination) set to 0.
    With m = N / den and rhs = R / e, it eliminates [N | den * R] and
    divides the integer solution by e once.
    """
    r, e = over_common_denominator(rhs)
    if len(r) != m.rows:
        raise ValueError("rhs length mismatch")
    rows = [row + [m.den * v] for row, v in zip(m._int_rows(), r)]
    pivots, _ = _bareiss_echelon(rows)
    # A pivot in the rhs column means inconsistency.
    if pivots and pivots[-1][1] == m.cols:
        return None
    y, d = _back_substitute(rows, pivots, [0] * m.cols, m.cols)
    return [Fraction(v, d * e) for v in y]


def nullspace(m: Matrix) -> list:
    """Basis of the right kernel, canonical under deterministic pivoting.

    Each basis vector has one free variable set to 1 and the remaining
    free variables set to 0, then is cleared of denominators and sign
    normalized (first nonzero entry positive).  It depends on the row
    space of m alone.
    """
    rows = m._int_rows()
    pivots, _ = _bareiss_echelon(rows)
    pivot_cols = {pc for (_, pc) in pivots}
    basis = []
    for fc in range(m.cols):
        if fc in pivot_cols:
            continue
        v = [0] * m.cols
        v[fc] = 1
        y, _ = _back_substitute(rows, pivots, v)
        basis.append(tuple(primitive_part(y)[1]))
    return basis


def inverse(m: Matrix) -> Matrix:
    """Exact inverse, by one elimination of [N | I] for m = N / den
    (m^-1 = den * N^-1); raises SingularMatrixError when det = 0."""
    if m.rows != m.cols:
        raise NonSquareMatrixError("inverse of non-square matrix")
    n = m.rows
    rows = [r + [int(i == j) for j in range(n)]
            for i, r in enumerate(m._int_rows())]
    pivots, _ = _bareiss_echelon(rows)
    # [N | I] has rank n; m is singular when a pivot falls in the I block
    if n and pivots[-1][1] >= n:
        raise SingularMatrixError("matrix is singular")
    cols = [_back_substitute(rows, pivots, [0] * n, n + j) for j in range(n)]
    d = cols[0][1] if n else 1
    return Matrix._from_num(n, n, [m.den * cols[j][0][i] for i in range(n)
                                   for j in range(n)], d)
