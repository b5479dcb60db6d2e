"""Dense univariate polynomials over Q.

Coefficients are stored lowest degree first; the zero polynomial is the
empty tuple and has degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import ZeroPolynomialError
from .intfactor import as_fraction, over_common_denominator, primitive_part


class UniPoly:
    """Polynomial in one variable with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [as_fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

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
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            c = as_fraction(other)
            return UniPoly([c * a for a in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "UniPoly"):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        if other.is_zero():
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.degree < other.degree:
            return UniPoly.zero(), self
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
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other) -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def divides(self, other: "UniPoly") -> bool:
        return (other % self).is_zero()

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * other + UniPoly.constant(c)
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ZeroPolynomialError("monic of the zero polynomial")
        c = self.lc()
        if c == 1:
            return self
        return UniPoly([a / c for a in self.coeffs])

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.lc() == 1

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd (Euclid); gcd(0, 0) = 0."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

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
        return content, UniPoly(ints[::-1])

    def int_coeffs(self) -> list:
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("non-integer coefficients")
        return [int(c) for c in self.coeffs]

    def resultant(self, other: "UniPoly") -> Fraction:
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
