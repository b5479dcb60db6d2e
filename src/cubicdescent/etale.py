"""The quintic etale algebra A = Q[T]/(p) and its element arithmetic.

p must be a monic squarefree quintic.  Elements are residue polynomials of
degree < 5.  The trace is one linear functional: the algebra keeps the
power sums s_k = Tr(r^k), read off p's coefficients by Newton's
identities, and Tr(x) = sum_k x_k s_k.  Characteristic polynomials and
norms follow from the traces of the powers of x by Newton's identities
again, so no embedding is ever computed numerically.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonGeneratorError, NotEtaleError, ZeroDivisorError
from .unipoly import UniPoly

DEGREE = 5
#: power sums kept per algebra: trace forms Tr(w c_j c_k) on the power
#: basis reach r^(3 * (DEGREE - 1))
POWER_SUM_COUNT = 3 * (DEGREE - 1) + 1


def _newton_power_sums(coeffs, count: int) -> list:
    """s_0 .. s_(count-1), s_k the k-th power sum of the roots of the monic
    polynomial with coefficients `coeffs` (lowest degree first)."""
    n = len(coeffs) - 1
    s = [Fraction(n)]
    for k in range(1, count):
        acc = k * coeffs[n - k] if k <= n else 0
        for j in range(1, min(k - 1, n) + 1):
            acc += coeffs[n - j] * s[k - j]
        s.append(-acc)
    return s


def _newton_charpoly(traces) -> UniPoly:
    """The monic polynomial of degree n = len(traces) whose roots have the
    power sums traces[0] = s_1, ..., traces[n-1] = s_n; each division is by
    some k <= n and exact in Fractions."""
    n = len(traces)
    c = [Fraction(1)]                    # c[j]: coefficient of T^(n-j)
    for k in range(1, n + 1):
        acc = traces[k - 1]
        for j in range(1, k):
            acc += c[j] * traces[k - j - 1]
        c.append(-acc / k)
    return UniPoly(c[::-1])


class EtaleAlgebra:
    """Q[T]/(p) for a monic squarefree polynomial p of degree 5."""

    __slots__ = ("p", "power_sums")

    def __init__(self, p: UniPoly):
        if not isinstance(p, UniPoly):
            p = UniPoly(p)
        if p.degree != DEGREE:
            raise NotEtaleError(f"defining polynomial must have degree {DEGREE}")
        if not p.is_monic():
            raise NotEtaleError("defining polynomial must be monic")
        if not p.is_squarefree():
            raise NotEtaleError("defining polynomial must be squarefree")
        self.p = p
        self.power_sums = tuple(_newton_power_sums(p.coeffs, POWER_SUM_COUNT))

    @classmethod
    def from_roots(cls, roots) -> "EtaleAlgebra":
        return cls(UniPoly.from_roots(roots))

    def element(self, value) -> "AlgElement":
        if isinstance(value, AlgElement):
            if value.algebra is not self and value.algebra.p != self.p:
                raise ValueError("element belongs to a different algebra")
            return value
        if not isinstance(value, UniPoly):
            if isinstance(value, (int, Fraction)):
                value = UniPoly([value])
            else:
                value = UniPoly(value)
        return AlgElement(self, value % self.p)

    def zero(self) -> "AlgElement":
        return self.element(UniPoly.zero())

    def one(self) -> "AlgElement":
        return self.element(UniPoly.one())

    @property
    def r(self) -> "AlgElement":
        """The distinguished generator T mod p."""
        return self.element(UniPoly.x())

    def power_basis(self) -> tuple:
        return tuple(self.element(UniPoly.monomial(j)) for j in range(DEGREE))

    def __eq__(self, other):
        return isinstance(other, EtaleAlgebra) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"EtaleAlgebra({self.p})"


def split_idempotents(algebra: EtaleAlgebra, roots) -> list:
    """The orthogonal idempotents of a split algebra with the given
    distinct rational roots (Lagrange interpolation basis)."""
    return [from_split_values(algebra, roots,
                              [int(j == i) for j in range(DEGREE)])
            for i in range(DEGREE)]


def from_split_values(algebra: EtaleAlgebra, roots, values) -> "AlgElement":
    """Element of a split algebra with prescribed value at each root: the
    interpolating polynomial of degree < 5."""
    roots = [Fraction(r) for r in roots]
    if len(roots) != DEGREE or len(set(roots)) != DEGREE:
        raise NotEtaleError("need 5 distinct rational roots")
    if UniPoly.from_roots(roots) != algebra.p:
        raise ValueError("roots do not match the defining polynomial")
    return algebra.element(UniPoly.interpolate(roots, values))


class AlgElement:
    """Residue class in a quintic etale algebra."""

    __slots__ = ("algebra", "poly")

    def __init__(self, algebra: EtaleAlgebra, poly: UniPoly):
        if poly.degree >= DEGREE:
            poly = poly % algebra.p
        self.algebra = algebra
        self.poly = poly

    def coords(self) -> list:
        return [self.poly[k] for k in range(DEGREE)]

    def _coerce(self, other) -> "AlgElement":
        if isinstance(other, AlgElement):
            if other.algebra.p != self.algebra.p:
                raise ValueError("elements of different algebras")
            return other
        return self.algebra.element(other)

    def __add__(self, other) -> "AlgElement":
        other = self._coerce(other)
        return AlgElement(self.algebra, self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.algebra, -self.poly)

    def __sub__(self, other) -> "AlgElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "AlgElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "AlgElement":
        if isinstance(other, (int, Fraction)):
            return AlgElement(self.algebra, self.poly * other)
        other = self._coerce(other)
        return AlgElement(self.algebra, (self.poly * other.poly) % self.algebra.p)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "AlgElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.algebra.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "AlgElement":
        """Inverse via extended gcd; non-units are zero divisors."""
        g, s, _ = self.poly.xgcd(self.algebra.p)
        if g.degree != 0:
            raise ZeroDivisorError(
                f"element with gcd {g} against the modulus is not a unit")
        return self.algebra.element(s % self.algebra.p)

    def __truediv__(self, other) -> "AlgElement":
        return self * self._coerce(other).inverse()

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def is_unit(self) -> bool:
        return self.poly.gcd(self.algebra.p).degree == 0

    def trace(self) -> Fraction:
        """sum_k x_k Tr(r^k)."""
        return sum((c * s for c, s in zip(self.poly.coeffs,
                                          self.algebra.power_sums)),
                   Fraction(0))

    def norm(self) -> Fraction:
        """-chi(0): the product of the five conjugates."""
        return -self.charpoly_of()[0]

    def charpoly_of(self) -> UniPoly:
        """Newton's identities applied to Tr(x^k), k = 1..5."""
        traces = [self.trace()]
        power = self
        for _ in range(DEGREE - 1):
            power = power * self
            traces.append(power.trace())
        return _newton_charpoly(traces)

    def conjugate_data(self) -> UniPoly:
        """Characteristic polynomial; its roots are the images of self
        under the five embeddings."""
        return self.charpoly_of()

    def is_generator(self) -> bool:
        return self.charpoly_of().is_squarefree()

    def different(self) -> "AlgElement":
        """chi'(self) for chi the characteristic polynomial of self.

        Only defined for generators; the conjugates of the different are
        prod_{j != i}(x_i - x_j).
        """
        chi = self.charpoly_of()
        if not chi.is_squarefree():
            raise NonGeneratorError("different of a non-generator")
        return self.evaluate_poly(chi.derivative())

    def evaluate_poly(self, f: UniPoly) -> "AlgElement":
        """f(self) in the algebra, by Horner."""
        acc = self.algebra.zero()
        for c in reversed(f.coeffs):
            acc = acc * self + c
        return acc

    def __eq__(self, other):
        return (isinstance(other, AlgElement)
                and self.algebra.p == other.algebra.p
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.algebra.p, self.poly))

    def __repr__(self):
        return f"AlgElement({self.poly})"
