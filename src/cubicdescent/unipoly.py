"""Dense univariate polynomials over Q: integer numerators num, lowest
degree first, over one positive denominator den, reduced by their gcd;
the zero polynomial has num = () and degree -1.  Arithmetic, pseudo-
division, gcds, resultants and discriminants (the subresultant sequence)
run on the numerators; coeffs, the Fractions, is built on first use.  A
polynomial is squarefree when its discriminant, kept once computed, is
nonzero, so it is proved squarefree once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, prod

from .errors import ZeroPolynomialError
from .intfactor import (as_fraction, lowest_terms, over_common_denominator,
                        primitive_part)


def _pseudo_divmod(a, b) -> tuple:
    """(quo, rem) on integer lists with lead^(deg a - deg b + 1) * a
    = quo * b + rem and deg rem < deg b, lead = b[-1]; deg a >= deg b."""
    rem, db, lead = list(a), len(b) - 1, b[-1]
    quo = []
    for k in range(len(a) - 1 - db, -1, -1):
        t = rem.pop()
        if lead != 1:
            rem = [v * lead for v in rem]
            quo = [v * lead for v in quo]
        quo.append(t)
        if t:
            for j in range(db):
                rem[j + k] -= t * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo[::-1], rem


def _subresultants(a, b) -> tuple:
    """(Res(a, b), r) for nonzero integer lists: the resultant by the
    subresultant sequence (Cohen, Algorithm 3.3.7), every division in it
    exact, and r its last nonzero member, gcd(a, b) up to a constant."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        res, r = _subresultants(b, a)
        return (-1) ** (da * db) * res, r
    if db == 0:
        return b[0] ** da, b
    ca, cb = gcd(*a), gcd(*b)
    a, b = [v // ca for v in a], [v // cb for v in b]
    acc = ca ** db * cb ** da
    g = h = 1
    while True:
        delta = da - db
        if da % 2 and db % 2:
            acc = -acc
        r = _pseudo_divmod(a, b)[1]
        if not r:
            return 0, b
        a, b = b, [v // (g * h ** delta) for v in r]
        g = a[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
        da, db = db, len(b) - 1
        if db == 0:
            return acc * (b[0] ** da // h ** (da - 1)), b


class UniPoly:
    """Polynomial in one variable: integer numerators over one positive
    denominator."""

    __slots__ = ("num", "den", "_coeffs", "_disc")

    def __init__(self, coeffs=()):
        self._set(*over_common_denominator(coeffs))

    def _set(self, num: list, den: int):
        """Store num / den (the list is consumed), trimmed and reduced."""
        while num and num[-1] == 0:
            num.pop()
        self.num, self.den = lowest_terms(num, den)
        self._coeffs = self._disc = None

    @classmethod
    def _from_num(cls, num, den: int = 1) -> "UniPoly":
        """num / den for integers num, lowest degree first, and den != 0."""
        poly = cls.__new__(cls)
        poly._set(list(num), den)
        return poly

    @property
    def coeffs(self) -> tuple:
        """The Fraction coefficients, lowest degree first."""
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(v, self.den) for v in self.num)
        return self._coeffs

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, deg: int, c=1) -> "UniPoly":
        return cls([0] * deg + [c])

    @classmethod
    def from_roots(cls, roots) -> "UniPoly":
        p = cls.one()
        for r in roots:
            p = p * cls((-as_fraction(r), 1))
        return p

    @classmethod
    def interpolate(cls, ts, values) -> "UniPoly":
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
        return cls._from_num([c * dt ** k for k, c in enumerate(acc)], w * dv)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def lc(self) -> Fraction:
        return self[self.degree]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, UniPoly) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def _combine(self, other, sign: int) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        d, e = self.den, other.den
        return UniPoly._from_num(
            [x * e + sign * y * d
             for x, y in zip_longest(self.num, other.num, fillvalue=0)], d * e)

    def __add__(self, other) -> "UniPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly._from_num([-v for v in self.num], self.den)

    def __sub__(self, other) -> "UniPoly":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            c = as_fraction(other)
            return UniPoly._from_num([c.numerator * v for v in self.num],
                                     self.den * c.denominator)
        if not self.num or not other.num:
            return UniPoly.zero()
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return UniPoly._from_num(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other: "UniPoly"):
        """Pseudo-division: lc(G)^(k+1) F = Q G + R, k = deg f - deg g, for
        f = F / d, g = G / e gives Q e and R over d lc(G)^(k+1)."""
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        if other.is_zero():
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.degree < other.degree:
            return UniPoly.zero(), self
        quo, rem = _pseudo_divmod(self.num, other.num)
        scale = self.den * other.num[-1] ** len(quo)
        return (UniPoly._from_num([v * other.den for v in quo], scale),
                UniPoly._from_num(rem, scale))

    def __floordiv__(self, other) -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def divides(self, other: "UniPoly") -> bool:
        return (other % self).is_zero()

    def evaluate(self, x) -> Fraction:
        """f(a / b): sum num_k a^k b^(n-k) by Horner, over den * b^n."""
        x = as_fraction(x)
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for v in reversed(self.num):
            acc = acc * a + v * scale
            scale *= b
        return Fraction(acc * b, self.den * scale)

    def compose(self, other: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * other + UniPoly.constant(c)
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly._from_num([k * v for k, v in enumerate(self.num)][1:],
                                 self.den)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ZeroPolynomialError("monic of the zero polynomial")
        if self.num[-1] == self.den:
            return self
        return UniPoly._from_num(self.num, self.num[-1])

    def is_monic(self) -> bool:
        return bool(self.num) and self.num[-1] == self.den

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd, from the subresultant sequence; gcd(0, 0) = 0."""
        a, b = self.num, other.num
        r = _subresultants(a, b)[1] if a and b else a or b
        return UniPoly._from_num(r, r[-1]) if r else UniPoly.zero()

    def xgcd(self, other: "UniPoly"):
        """Extended gcd: (g, s, t) monic g with s*self + t*other = g."""
        a, b = self, other
        s0, s1 = UniPoly.one(), UniPoly.zero()
        t0, t1 = UniPoly.zero(), UniPoly.one()
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
        return self.degree == 0 or self.discriminant() != 0

    def primitive(self):
        """(content, primitive part): self = content * primitive, content a
        Fraction, the primitive part with coprime integer coefficients and
        a positive leading one."""
        content, ints = primitive_part(self.num[::-1])
        return content / self.den, UniPoly._from_num(ints[::-1])

    def int_coeffs(self) -> list:
        if self.den != 1:
            raise ValueError("non-integer coefficients")
        return list(self.num)

    def resultant(self, other: "UniPoly") -> Fraction:
        """Res(f, g) = lc(f)^deg(g) * prod g(alpha_i) over the roots of f:
        for f = F / d and g = G / e, Res(F, G) / (d^deg(g) e^deg(f))."""
        if not self.num or not other.num:
            return Fraction(0)
        return Fraction(_subresultants(self.num, other.num)[0],
                        self.den ** other.degree * other.den ** self.degree)

    def discriminant(self) -> Fraction:
        """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f): for f = F / d,
        the integer disc(F) over d^(2n - 2).  Kept once computed."""
        if self._disc is None:
            n = self.degree
            if n < 1:
                raise ZeroPolynomialError("discriminant needs degree >= 1")
            num = self.num
            res = _subresultants(num, [k * v for k, v in enumerate(num)][1:])[0]
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            self._disc = Fraction(sign * res // num[-1],
                                  self.den ** (2 * n - 2))
        return self._disc

    def __repr__(self):
        if not self.num:
            return "UniPoly(0)"
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
        return "UniPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"


def _newton_charpoly(power_sums, scale: int) -> UniPoly:
    """The monic polynomial with the roots z_i / scale, for n algebraic
    integers z_i with the power sums power_sums[k - 1] = sum_i z_i^k:
    Newton's identities in integers (each division by k exact), then
    each coefficient of T^(n-k) divided by scale^k."""
    n = len(power_sums)
    c = [1]                              # c[k]: (-1)^k e_k
    for k in range(1, n + 1):
        acc = power_sums[k - 1]
        for j in range(1, k):
            acc += c[j] * power_sums[k - j - 1]
        c.append(-acc // k)
    return UniPoly._from_num([ck * scale ** (n - k)
                              for k, ck in enumerate(c)][::-1], scale ** n)
