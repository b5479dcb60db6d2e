"""The quintic etale algebra A = Q[T]/(p) and its element arithmetic.

p must be a monic squarefree quintic.  Elements are residue polynomials of
degree < 5; traces, norms and characteristic polynomials come from the
multiplication matrix in the power basis, so no embedding is ever computed
numerically.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonGeneratorError, NotEtaleError, ZeroDivisorError
from .linalg import Matrix, charpoly, det
from .unipoly import UniPoly

DEGREE = 5


class EtaleAlgebra:
    """Q[T]/(p) for a monic squarefree polynomial p of degree 5."""

    __slots__ = ("p",)

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

    def mul_matrix(self) -> Matrix:
        """Matrix of multiplication by self in the power basis 1, r, ..., r^4."""
        cols = []
        p = self.algebra.p
        for j in range(DEGREE):
            col = (self.poly * UniPoly.monomial(j)) % p
            cols.append([col[k] for k in range(DEGREE)])
        return Matrix(DEGREE, DEGREE,
                      [cols[j][i] for i in range(DEGREE) for j in range(DEGREE)])

    def trace(self) -> Fraction:
        return self.mul_matrix().trace()

    def norm(self) -> Fraction:
        return det(self.mul_matrix())

    def charpoly_of(self) -> UniPoly:
        return charpoly(self.mul_matrix())

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
