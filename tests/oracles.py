"""Oracles and helpers that only tests call.

FractionPoly is the univariate polynomial over Q with one Fraction per
coefficient and Euclid's algorithm over Q, which the integer UniPoly
replaced.  norm_form is the pencil's norm form by six rational
resultants, which checks the pencil determinant.  trace_gram is the
trace form as a Matrix, and split_idempotents and from_split_values
build elements of a split algebra from their values at the roots.

The fraction_* kernels are the linear algebra Matrix ran on when it held
one Fraction per entry: Gaussian elimination over Q with linalg's pivot
rule and a Fraction back-substitution, Faddeev-LeVerrier for the
characteristic polynomial, and the inertia of a symmetric matrix by a
congruence diagonalisation.  They take lists of rows of rationals."""

from __future__ import annotations

from fractions import Fraction
from math import prod

from cubicdescent.descent import _trace_form
from cubicdescent.errors import NotEtaleError, ZeroPolynomialError
from cubicdescent.etale import DEGREE
from cubicdescent.forms import BinaryQuintic
from cubicdescent.intfactor import (as_fraction, over_common_denominator,
                                    primitive_part)
from cubicdescent.linalg import Matrix
from cubicdescent.unipoly import UniPoly


class FractionPoly:
    """Polynomial in one variable with Fraction coefficients: the
    representation UniPoly had before it moved to integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [as_fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "FractionPoly":
        return cls(())

    @classmethod
    def one(cls) -> "FractionPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "FractionPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "FractionPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, deg: int, c=1) -> "FractionPoly":
        return cls([0] * deg + [c])

    @classmethod
    def from_roots(cls, roots) -> "FractionPoly":
        p = cls.one()
        for r in roots:
            p = p * cls((-as_fraction(r), 1))
        return p

    @classmethod
    def interpolate(cls, ts, values) -> "FractionPoly":
        """The polynomial of degree < len(ts) taking values[i] at the
        distinct nodes ts[i]: with ts = T / dt and values = V / dv,
        Newton's divided differences of w * V at the integer nodes T, w
        the product of the differences T_j - T_i (i < j), which makes
        every division exact; q(s) = p(s / dt) is their Newton form over
        w * dv, and p_k = q_k * dt^k."""
        nodes, dt = over_common_denominator(ts)
        diff, dv = over_common_denominator(values)
        n = len(nodes)
        w = prod(b - a for i, a in enumerate(nodes) for b in nodes[i + 1:])
        diff = [w * v for v in diff]
        newton = diff[:1]
        for k in range(1, n):
            diff = [(diff[i + 1] - diff[i]) // (nodes[i + k] - nodes[i])
                    for i in range(n - k)]
            newton.append(diff[0])
        # Horner on c_0 + (s - T_0)(c_1 + (s - T_1)(c_2 + ...))
        acc = []
        for c, t in zip(reversed(newton), reversed(nodes)):
            acc = [a - t * b for a, b in zip([0] + acc, acc + [0])]
            acc[0] += c
        return cls([Fraction(c * dt ** k, w * dv) for k, c in enumerate(acc)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def lc(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "FractionPoly":
        if not isinstance(other, FractionPoly):
            other = FractionPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "FractionPoly":
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "FractionPoly":
        if not isinstance(other, FractionPoly):
            other = FractionPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "FractionPoly":
        return (-self) + other

    def __mul__(self, other) -> "FractionPoly":
        if not isinstance(other, FractionPoly):
            c = as_fraction(other)
            return FractionPoly([c * a for a in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return FractionPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FractionPoly":
        if n < 0:
            raise ValueError("negative power")
        result = FractionPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "FractionPoly"):
        if not isinstance(other, FractionPoly):
            other = FractionPoly.constant(other)
        if other.is_zero():
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.degree < other.degree:
            return FractionPoly.zero(), self
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quo = [Fraction(0)] * (dq + 1)
        dlc = other.lc()
        for k in range(dq, -1, -1):
            c = rem[other.degree + k] / dlc
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return FractionPoly(quo), FractionPoly(rem)

    def __floordiv__(self, other) -> "FractionPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "FractionPoly":
        return divmod(self, other)[1]

    def divides(self, other: "FractionPoly") -> bool:
        return (other % self).is_zero()

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other: "FractionPoly") -> "FractionPoly":
        acc = FractionPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * other + FractionPoly.constant(c)
        return acc

    def derivative(self) -> "FractionPoly":
        return FractionPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "FractionPoly":
        if self.is_zero():
            raise ZeroPolynomialError("monic of the zero polynomial")
        c = self.lc()
        if c == 1:
            return self
        return FractionPoly([a / c for a in self.coeffs])

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.lc() == 1

    def gcd(self, other: "FractionPoly") -> "FractionPoly":
        """Monic gcd (Euclid); gcd(0, 0) = 0."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def xgcd(self, other: "FractionPoly"):
        """Extended gcd: (g, s, t) monic g with s*self + t*other = g."""
        a, b = self, other
        s0, s1 = FractionPoly.one(), FractionPoly.zero()
        t0, t1 = FractionPoly.zero(), FractionPoly.one()
        while not b.is_zero():
            q, r = divmod(a, b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if a.is_zero():
            return a, s0, t0
        c = a.lc()
        return a.monic(), s0 * (1 / c), t0 * (1 / c)

    def is_squarefree(self) -> bool:
        if self.is_zero():
            return False
        if self.degree == 0:
            return True
        return self.gcd(self.derivative()).degree == 0

    def primitive(self):
        """Return (content, integer-coefficient primitive part).

        content is a Fraction with self = content * primitive, the primitive
        part having integer coefficients, gcd 1, and positive leading
        coefficient.
        """
        content, ints = primitive_part(reversed(self.coeffs))
        return content, FractionPoly(ints[::-1])

    def int_coeffs(self) -> list:
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("non-integer coefficients")
        return [int(c) for c in self.coeffs]

    def resultant(self, other: "FractionPoly") -> Fraction:
        """Resultant via the subresultant-free Euclidean recursion.

        Exact over Q.  Res(f, g) = lc(f)^deg(g) * prod g(alpha_i) over the
        roots of f.
        """
        f, g = self, other
        if f.is_zero() or g.is_zero():
            return Fraction(0)
        acc = Fraction(1)
        while g.degree > 0:
            if f.degree < g.degree:
                if (f.degree * g.degree) % 2 == 1:
                    acc = -acc
                f, g = g, f
                continue
            r = f % g
            if r.is_zero():
                return Fraction(0)
            if (f.degree * g.degree) % 2 == 1:
                acc = -acc
            acc *= g.lc() ** (f.degree - r.degree)
            f, g = g, r
        return acc * g.lc() ** f.degree

    def discriminant(self) -> Fraction:
        """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
        n = self.degree
        if n < 1:
            raise ZeroPolynomialError("discriminant needs degree >= 1")
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        return sign * self.resultant(self.derivative()) / self.lc()

    def __repr__(self):
        if not self.coeffs:
            return "FractionPoly(0)"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*T" if c != 1 else "T")
            else:
                parts.append(f"{c}*T^{k}" if c != 1 else f"T^{k}")
        return "FractionPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"


def norm_form(algebra, a, b) -> BinaryQuintic:
    """resultant_T(p, lambda*a(T) + mu*b(T)) as a binary quintic.

    Equals the product over embeddings of (lambda iota(a) + mu iota(b));
    computed by interpolating six rational resultants, independently of
    the multiplication-matrix norm.
    """
    ts = [0, 1, -1, 2, -2, 3]
    p = FractionPoly(algebra.p.coeffs)
    gs = [FractionPoly(a.coords()) * t + FractionPoly(b.coords()) for t in ts]
    poly = FractionPoly.interpolate(
        ts, [p.resultant(g) if g else Fraction(0) for g in gs])
    return BinaryQuintic([poly[k] for k in range(6)])


def trace_gram(weight, l) -> Matrix:
    """Matrix of trace(weight * c_j * c_k), from _trace_form."""
    basis = Matrix.from_rows(zip(*(cj.coords() for cj in l)))
    return _trace_form(weight, basis).gram


def split_idempotents(algebra, roots) -> list:
    """The orthogonal idempotents of a split algebra with the given
    distinct rational roots (Lagrange interpolation basis)."""
    return [from_split_values(algebra, roots,
                              [int(j == i) for j in range(DEGREE)])
            for i in range(DEGREE)]


def from_split_values(algebra, roots, values):
    """Element of a split algebra with prescribed value at each root: the
    interpolating polynomial of degree < 5."""
    roots = [Fraction(r) for r in roots]
    if len(roots) != DEGREE or len(set(roots)) != DEGREE:
        raise NotEtaleError("need 5 distinct rational roots")
    if UniPoly.from_roots(roots) != algebra.p:
        raise ValueError("roots do not match the defining polynomial")
    return algebra.element(UniPoly.interpolate(roots, values))


def fraction_echelon(rows):
    """(echelon, pivots, sign) of Gaussian elimination over Q on a copy of
    rows: for each column the first row at or below the current one with a
    nonzero entry is the pivot, swapped up (sign counts the swaps), and
    the rows below it are cleared."""
    rows = [[as_fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, sign, pr = [], 1, 0
    for pc in range(ncols):
        hit = next((i for i in range(pr, len(rows)) if rows[i][pc]), None)
        if hit is None:
            continue
        if hit != pr:
            rows[pr], rows[hit] = rows[hit], rows[pr]
            sign = -sign
        for i in range(pr + 1, len(rows)):
            f = rows[i][pc] / rows[pr][pc]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append((pr, pc))
        pr += 1
    return rows, pivots, sign


def fraction_back_substitute(rows, pivots, x: list, rhs=None) -> list:
    """Solve the echelon rows for their pivot unknowns, from the last pivot
    up, in place: x holds the values of the free unknowns, and row i has
    the right-hand side rows[i][rhs], or 0 when rhs is None."""
    for (pr, pc) in reversed(pivots):
        row = rows[pr]
        s = row[rhs] if rhs is not None else Fraction(0)
        for j in range(pc + 1, len(x)):
            s -= row[j] * x[j]
        x[pc] = s / row[pc]
    return x


def fraction_det(rows) -> Fraction:
    echelon, pivots, sign = fraction_echelon(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    return sign * prod((echelon[i][i] for i in range(len(rows))), start=Fraction(1))


def fraction_solve(rows, rhs, ncols: int):
    """One solution of rows * x = rhs with the free unknowns 0, or None."""
    echelon, pivots, _ = fraction_echelon(
        [list(r) + [v] for r, v in zip(rows, rhs)])
    if pivots and pivots[-1][1] == ncols:
        return None
    return fraction_back_substitute(echelon, pivots, [Fraction(0)] * ncols,
                                    ncols)


def fraction_nullspace(rows, ncols: int) -> list:
    """The kernel basis with one free unknown 1 and the others 0 each,
    as primitive integer vectors."""
    echelon, pivots, _ = fraction_echelon(rows)
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for fc in range(ncols):
        if fc not in pivot_cols:
            x = [Fraction(int(j == fc)) for j in range(ncols)]
            basis.append(tuple(primitive_part(
                fraction_back_substitute(echelon, pivots, x))[1]))
    return basis


def fraction_inverse(rows):
    """The inverse as a list of rows, by n Fraction solves, or None when
    the matrix is singular."""
    n = len(rows)
    if fraction_det(rows) == 0:
        return None
    cols = [fraction_solve(rows, [int(i == j) for i in range(n)], n)
            for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def faddeev_leverrier(rows) -> UniPoly:
    """Monic det(T*I - m) by the Faddeev-LeVerrier recursion over Q:
    M_1 = I, c_k = -tr(m M_k) / k, M_(k+1) = m M_k + c_k I."""
    n = len(rows)
    m = [[as_fraction(x) for x in r] for r in rows]
    coeffs = [Fraction(1)]
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum((m[i][t] * mk[t][j] for t in range(n)), Fraction(0))
               for j in range(n)] for i in range(n)]
        ck = -sum((am[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
        mk = [[am[i][j] + (ck if i == j else 0) for j in range(n)]
              for i in range(n)]
    return UniPoly(coeffs[::-1])


def congruence_signature(rows) -> tuple:
    """(positives, negatives, zeros) of a symmetric rational matrix by a
    congruence diagonalisation over Q: a nonzero diagonal entry is a
    pivot; when every live diagonal entry is 0 but g_ij is not,
    x_i <- x_i + x_j puts 2 g_ij on the diagonal."""
    g = [[as_fraction(x) for x in r] for r in rows]
    live = list(range(len(g)))
    pivots = []
    while live:
        k = next((i for i in live if g[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in live for j in live
                         if i < j and g[i][j]), None)
            if pair is None:
                break
            k, j = pair
            for m in live:
                g[k][m] += g[j][m]
            for m in live:
                g[m][k] += g[m][j]
        live.remove(k)
        pivots.append(g[k][k])
        for i in live:
            f = g[i][k] / g[k][k]
            g[i] = [a - f * b for a, b in zip(g[i], g[k])]
        for i in live:
            g[i][k] = Fraction(0)
    pos = sum(1 for v in pivots if v > 0)
    return pos, len(pivots) - pos, len(g) - len(pivots)
