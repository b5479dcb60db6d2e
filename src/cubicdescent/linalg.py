"""Exact dense linear algebra over the rationals, and the ranks mod
primes of every leading column block of a batch of residue matrices, one
prime p < 2^31 each, in one numpy elimination (column_ranks_mod_p; one
matrix is a batch of one).

Matrices are immutable with Fraction entries.  Elimination runs
fraction-free (Bareiss) on integer-rescaled rows, so intermediate values
stay integral and are bounded by minors of the input.  Pivoting is
deterministic: for every column we take the first usable row in top-down
scan order, which makes all derived canonical choices reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import NonSquareMatrixError, SingularMatrixError
from .intfactor import as_fraction, over_common_denominator, primitive_part
from .unipoly import UniPoly


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(as_fraction(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._e = entries

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
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        values = list(values)
        n = len(values)
        return cls(n, n, [as_fraction(values[i]) if i == j else Fraction(0)
                          for i in range(n) for j in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._e[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self._e[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self._e])

    def scale(self, c) -> "Matrix":
        c = as_fraction(c)
        return Matrix(self.rows, self.cols, [c * a for a in self._e])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other._e[k * other.cols + j]
                               for k in range(self.cols)))
        return Matrix(self.rows, other.cols, out)

    def mul_vec(self, v) -> tuple:
        v = [as_fraction(x) for x in v]
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(self.row(i)[k] * v[k] for k in range(self.cols))
                     for i in range(self.rows))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise NonSquareMatrixError("trace of non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._e == other._e)

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

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


def _integer_rows(m: Matrix):
    """(rows, scale): each row of m rescaled to integers, and the product
    of the multipliers."""
    rows, scale = [], 1
    for i in range(m.rows):
        ints, d = over_common_denominator(m.row(i))
        rows.append(ints)
        scale *= d
    return rows, scale


def _echelon(m: Matrix):
    """(rows, pivots, sign, scale): the Bareiss echelon form of
    _integer_rows(m), its pivot positions and the sign of its swaps."""
    rows, scale = _integer_rows(m)
    return (rows, *_bareiss_echelon(rows), scale)


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
    rows, scale = _integer_rows(m)
    return Fraction(_int_det(rows), scale)


def rank(m: Matrix) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return _int_rank(_integer_rows(m)[0])


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


def charpoly(m: Matrix):
    """Monic characteristic polynomial det(T*I - m), exact.

    Faddeev-LeVerrier recursion; divisions by 1..n are exact over Q.
    """
    if m.rows != m.cols:
        raise NonSquareMatrixError("charpoly of non-square matrix")
    n = m.rows
    coeffs = [Fraction(1)]          # leading coefficient of T^n
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        am = m @ mk
        ck = -am.trace() / k
        coeffs.append(ck)
        if k < n:
            mk = am + Matrix.identity(n).scale(ck)
    return UniPoly(list(reversed(coeffs)))


def _back_substitute(rows, pivots, x: list, rhs: int | None = None) -> list:
    """Solve the echelon rows for their pivot unknowns, from the last pivot
    up, in place: x holds the values of the free unknowns (its pivot
    entries are overwritten), and row i has the right-hand side
    rows[i][rhs], or 0 when rhs is None."""
    n = len(x)
    for (pr, pc) in reversed(pivots):
        row = rows[pr]
        s = Fraction(row[rhs]) if rhs is not None else Fraction(0)
        for j in range(pc + 1, n):
            if row[j] and x[j]:
                s -= row[j] * x[j]
        x[pc] = s / row[pc]
    return x


def solve_linear(m: Matrix, rhs) -> list | None:
    """One exact solution of m*x = rhs, or None if inconsistent.

    Underdetermined systems get the canonical solution with all free
    variables (non-pivot columns under deterministic elimination) set to 0.
    """
    rhs = [as_fraction(x) for x in rhs]
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    rows, pivots, _, _ = _echelon(
        Matrix(m.rows, m.cols + 1,
               [x for i in range(m.rows) for x in (*m.row(i), rhs[i])]))
    # A pivot in the rhs column means inconsistency.
    if pivots and pivots[-1][1] == m.cols:
        return None
    return _back_substitute(rows, pivots, [Fraction(0)] * m.cols, m.cols)


def nullspace(m: Matrix) -> list:
    """Basis of the right kernel, canonical under deterministic pivoting.

    Each basis vector has one free variable set to 1 and the remaining
    free variables set to 0, then is cleared of denominators and sign
    normalized (first nonzero entry positive).  It depends on the row
    space of m alone.
    """
    rows, pivots, _, _ = _echelon(m)
    pivot_cols = {pc for (_, pc) in pivots}
    basis = []
    for fc in range(m.cols):
        if fc in pivot_cols:
            continue
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        basis.append(tuple(primitive_part(_back_substitute(rows, pivots, v))[1]))
    return basis


def inverse(m: Matrix) -> Matrix:
    """Exact inverse, by one elimination of [m | I]; raises
    SingularMatrixError when det = 0."""
    if m.rows != m.cols:
        raise NonSquareMatrixError("inverse of non-square matrix")
    n = m.rows
    rows, pivots, _, _ = _echelon(
        Matrix(n, 2 * n, [x for i in range(n)
                          for x in (*m.row(i), *(int(i == j) for j in range(n)))]))
    # [m | I] has rank n; m is singular when a pivot falls in the I block
    if n and pivots[-1][1] >= n:
        raise SingularMatrixError("matrix is singular")
    cols = [_back_substitute(rows, pivots, [Fraction(0)] * n, n + j)
            for j in range(n)]
    return Matrix(n, n, [cols[j][i] for i in range(n) for j in range(n)])
