"""The quintic etale algebra A = Q[T]/(p) and its element arithmetic.

p must be a monic quintic with rational coefficients and a nonzero
discriminant (its squarefree test).  An
element is five integer numerators x_0..x_4 over one positive denominator
d, reduced by their gcd: the residue polynomial (x_0 + ... + x_4 T^4) / d.
The algebra keeps P = delta * p, p cleared of its least common denominator
delta (delta = 1 for an integral p).  A product is an integer convolution
followed by pseudo-division by P: each step that folds away the top
power T^k (k >= 5) multiplies the numerators through by delta, the
leading coefficient of P, and the denominator with them.  A rational p
takes the same steps as an integral one.

The trace is one linear functional: the algebra keeps the power sums
s_k = Tr(r^k), read off P's coefficients by Newton's identities in
integers, as numerators over one common denominator, and
Tr(x) = sum_k x_k s_k is one integer dot product and one Fraction.
Characteristic polynomials and norms follow from the integer traces of
the powers of an algebraic-integer multiple of x by Newton's identities
again, so no embedding is computed numerically; nor is a gcd: a unit is
an element of nonzero norm, inverted by its characteristic polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import NonGeneratorError, NotEtaleError, ZeroDivisorError
from .intfactor import lowest_terms
from .unipoly import UniPoly, _newton_charpoly

DEGREE = 5
#: power sums kept per algebra: trace forms Tr(w c_j c_k) on the power
#: basis reach r^(3 * (DEGREE - 1))
POWER_SUM_COUNT = 3 * (DEGREE - 1) + 1


def _newton_power_sums(p_num, count: int) -> tuple:
    """(numerators, denominator) of s_0 .. s_(count-1), s_k the k-th power
    sum of the roots of P / lead for the integer polynomial P = p_num
    (lowest degree first) with leading coefficient lead.  By Newton's
    identities t_k = lead^k * s_k is an integer, t_0 = n and
    t_k = -(k P_(n-k) lead^(k-1)
            + sum_(j = 1..min(k-1, n)) P_(n-j) lead^(j-1) t_(k-j)),
    the first term only for k <= n."""
    n = len(p_num) - 1
    lead = p_num[n]
    t = [n]
    for k in range(1, count):
        acc = k * p_num[n - k] * lead ** (k - 1) if k <= n else 0
        for j in range(1, min(k - 1, n) + 1):
            acc += p_num[n - j] * lead ** (j - 1) * t[k - j]
        t.append(-acc)
    top = count - 1
    return lowest_terms([tk * lead ** (top - k) for k, tk in enumerate(t)],
                        lead ** top)


class EtaleAlgebra:
    """Q[T]/(p) for a monic squarefree polynomial p of degree 5.

    p_num holds the six integer coefficients of P = p_den * p, lowest
    degree first; power_sum_num / power_sum_den are Tr(r^k), k < 13."""

    __slots__ = ("p", "p_num", "p_den", "power_sum_num", "power_sum_den")

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
        # p is monic, so its numerators over its denominator are P
        self.p_num, self.p_den = p.num, p.den
        self.power_sum_num, self.power_sum_den = _newton_power_sums(
            self.p_num, POWER_SUM_COUNT)

    @classmethod
    def from_roots(cls, roots) -> "EtaleAlgebra":
        return cls(UniPoly.from_roots(roots))

    @property
    def power_sums(self) -> tuple:
        """Tr(r^k) for k < POWER_SUM_COUNT, as Fractions."""
        return tuple(Fraction(s, self.power_sum_den)
                     for s in self.power_sum_num)

    def multiply(self, x, y) -> tuple:
        """(numerators, k): reduce of the convolution of x and y."""
        c = [0] * (2 * DEGREE - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    c[i + j] += a * b
        return self.reduce(c)

    def reduce(self, c: list) -> tuple:
        """(numerators, k): the pseudo-remainder p_den^k * c mod P of the
        integer polynomial c (lowest degree first; the list is consumed),
        padded to DEGREE numerators.  k counts the folded powers whose
        coefficient was nonzero."""
        lead, low = self.p_den, self.p_num
        k = 0
        while len(c) > DEGREE:
            t = c.pop()
            if t:
                c = [v * lead for v in c]
                base = len(c) - DEGREE
                for j in range(DEGREE):
                    c[base + j] -= t * low[j]
                k += 1
        return c + [0] * (DEGREE - len(c)), k

    def element(self, value) -> "AlgElement":
        if isinstance(value, AlgElement):
            if value.algebra is not self and value.algebra.p != self.p:
                raise ValueError("element belongs to a different algebra")
            return value
        if isinstance(value, (int, Fraction)):
            value = (value,)
        if not isinstance(value, UniPoly):
            value = UniPoly(value)
        num, k = self.reduce(list(value.num))
        return AlgElement(self, num, value.den * self.p_den ** k)

    def zero(self) -> "AlgElement":
        return AlgElement(self, (0,) * DEGREE)

    def one(self) -> "AlgElement":
        return AlgElement(self, (1,) + (0,) * (DEGREE - 1))

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


class AlgElement:
    """Residue class in a quintic etale algebra: the integer numerators
    num (DEGREE of them) over the positive denominator den, with
    gcd(*num, den) = 1."""

    __slots__ = ("algebra", "num", "den")

    def __init__(self, algebra: EtaleAlgebra, num, den: int = 1):
        self.algebra = algebra
        self.num, self.den = lowest_terms(num, den)

    def coords(self) -> list:
        return [Fraction(v, self.den) for v in self.num]

    @property
    def poly(self) -> UniPoly:
        """The residue polynomial of degree < 5."""
        return UniPoly._from_num(self.num, self.den)

    def _coerce(self, other) -> "AlgElement":
        if isinstance(other, AlgElement):
            if (other.algebra is not self.algebra
                    and other.algebra.p != self.algebra.p):
                raise ValueError("elements of different algebras")
            return other
        return self.algebra.element(other)

    def __add__(self, other) -> "AlgElement":
        other = self._coerce(other)
        d, e = self.den, other.den
        return AlgElement(self.algebra,
                          [x * e + y * d for x, y in zip(self.num, other.num)],
                          d * e)

    __radd__ = __add__

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.algebra, [-x for x in self.num], self.den)

    def __sub__(self, other) -> "AlgElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "AlgElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "AlgElement":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return AlgElement(self.algebra,
                              [x * c.numerator for x in self.num],
                              self.den * c.denominator)
        other = self._coerce(other)
        num, k = self.algebra.multiply(self.num, other.num)
        return AlgElement(self.algebra, num,
                          self.den * other.den * self.algebra.p_den ** k)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "AlgElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def inverse(self, chi: UniPoly | None = None) -> "AlgElement":
        """Cayley-Hamilton with chi, the characteristic polynomial of self
        (computed if not given): x^-1 = -h(x) / chi(0), h = (chi - chi(0)) / T,
        on the numerators C of chi C_1 + ... + C_5 T^4 over -C_0.
        Non-units, whose norm is 0, are zero divisors."""
        chi = self.charpoly_of() if chi is None else chi
        if chi.num[0] == 0:
            g = self.poly.gcd(self.algebra.p)
            raise ZeroDivisorError(
                f"element with gcd {g} against the modulus is not a unit")
        return self.evaluate_poly(UniPoly._from_num(chi.num[1:], -chi.num[0]))

    def __truediv__(self, other) -> "AlgElement":
        return self * self._coerce(other).inverse()

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_unit(self) -> bool:
        """A is a product of fields, so the units are the elements of
        nonzero norm."""
        return self.norm() != 0

    def trace(self) -> Fraction:
        """sum_k x_k Tr(r^k): one integer dot product over den times the
        power sums' denominator."""
        algebra = self.algebra
        return Fraction(sum(map(mul, self.num, algebra.power_sum_num)),
                        self.den * algebra.power_sum_den)

    def norm(self) -> Fraction:
        """-chi(0): the product of the five conjugates."""
        return -self.charpoly_of()[0]

    def charpoly_of(self) -> UniPoly:
        """Newton's identities on Tr(z^k), k = 1..5, for the algebraic
        integer z = scale * x = p_den^4 * num(r), scale = den * p_den^4;
        its roots are the images of self under the five embeddings."""
        algebra = self.algebra
        scale = self.den * algebra.p_den ** (DEGREE - 1)
        sums, power = [], self
        for k in range(1, DEGREE + 1):
            if k > 1:
                power = power * self
            sums.append(scale ** k * sum(map(mul, power.num,
                                             algebra.power_sum_num))
                        // (power.den * algebra.power_sum_den))
        return _newton_charpoly(sums, scale)

    def is_generator(self) -> bool:
        return self.charpoly_of().is_squarefree()

    def different(self) -> "AlgElement":
        """chi'(self) for chi the characteristic polynomial of self.

        Only defined for generators; the conjugates of the different are
        prod_{j != i}(x_i - x_j).  The algebra's own p was found squarefree
        when the algebra was built, so chi = p is not tested again.
        """
        chi = self.charpoly_of()
        if chi != self.algebra.p and not chi.is_squarefree():
            raise NonGeneratorError("different of a non-generator")
        return self.evaluate_poly(chi.derivative())

    def evaluate_poly(self, f: UniPoly) -> "AlgElement":
        """f(self) in the algebra, by Horner on the numerators of f and
        self over the product of the denominators met, reduced once."""
        algebra, acc, den = self.algebra, [0] * DEGREE, 1
        for c in reversed(f.num):
            acc, k = algebra.multiply(acc, self.num)
            den *= self.den * algebra.p_den ** k
            acc[0] += c * den
        return AlgElement(algebra, acc, den * f.den)

    def __eq__(self, other):
        return (isinstance(other, AlgElement)
                and self.num == other.num and self.den == other.den
                and (self.algebra is other.algebra
                     or self.algebra.p == other.algebra.p))

    def __hash__(self):
        return hash((self.algebra.p, self.num, self.den))

    def __repr__(self):
        return f"AlgElement({self.poly})"
