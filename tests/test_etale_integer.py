"""The integer-numerator algebra against the Fraction polynomial arithmetic
it replaced, kept here as the oracle: residue polynomials (FractionPoly)
reduced by Fraction long division, the trace from Fraction power sums, the
inverse from the extended gcd."""

import random
from fractions import Fraction

import pytest

from cubicdescent.errors import NonGeneratorError, ZeroDivisorError
from cubicdescent.etale import DEGREE, POWER_SUM_COUNT, EtaleAlgebra
from cubicdescent.linalg import Matrix
from cubicdescent.unipoly import UniPoly

from conftest import PAPER_P
from oracles import FractionPoly, trace_gram


def oracle_power_sums(p, count: int) -> list:
    """Newton's identities in Fractions."""
    c = p.coeffs
    s = [Fraction(DEGREE)]
    for k in range(1, count):
        acc = k * c[DEGREE - k] if k <= DEGREE else 0
        for j in range(1, min(k - 1, DEGREE) + 1):
            acc += c[DEGREE - j] * s[k - j]
        s.append(-acc)
    return s


class PolyElement:
    """Oracle element: a FractionPoly of degree < 5 reduced mod p."""

    def __init__(self, p, poly):
        p = FractionPoly(p.coeffs)
        if not isinstance(poly, FractionPoly):
            poly = FractionPoly(getattr(poly, "coeffs", poly))
        self.p = p
        self.poly = poly % p

    def __add__(self, other):
        return PolyElement(self.p, self.poly + other.poly)

    def __mul__(self, other):
        if isinstance(other, PolyElement):
            return PolyElement(self.p, self.poly * other.poly)
        return PolyElement(self.p, self.poly * other)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = PolyElement(self.p, [1])
        for _ in range(n):
            out = out * self
        return out

    def inverse(self):
        g, s, _ = self.poly.xgcd(self.p)
        if g.degree != 0:
            raise ZeroDivisorError("not a unit")
        return PolyElement(self.p, s)

    def is_unit(self):
        return self.poly.gcd(self.p).degree == 0

    def trace(self):
        s = oracle_power_sums(self.p, DEGREE)
        return sum((c * sk for c, sk in zip(self.poly.coeffs, s)), Fraction(0))

    def charpoly(self):
        traces, power = [], self
        for _ in range(DEGREE):
            traces.append(power.trace())
            power = power * self
        c = [Fraction(1)]
        for k in range(1, DEGREE + 1):
            acc = traces[k - 1]
            for j in range(1, k):
                acc += c[j] * traces[k - j - 1]
            c.append(-acc / k)
        return FractionPoly(c[::-1])

    def evaluate_poly(self, f):
        acc = PolyElement(self.p, [])
        for c in reversed(f.coeffs):
            acc = PolyElement(self.p, acc.poly * self.poly + c)
        return acc

    def coords(self):
        return [self.poly[k] for k in range(DEGREE)]


def seeded_quintics(seed, count, rational):
    """Monic squarefree quintics; with rational=True the coefficients are
    Fractions with denominators up to 12."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if rational:
            coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                      for _ in range(DEGREE)]
        else:
            coeffs = [rng.randint(-20, 20) for _ in range(DEGREE)]
        p = UniPoly(coeffs + [1])
        if p.is_squarefree():
            out.append(p)
    return out


QUINTICS = ([PAPER_P, UniPoly.from_roots([Fraction(1, 2), -3, 5, 0,
                                          Fraction(7, 3)])]
            + seeded_quintics(31, 6, False) + seeded_quintics(32, 6, True))


def seeded_coeffs(rng, large):
    """Five rational coordinates; large ones have numerators up to 10^12
    and denominators up to 10^9."""
    if large:
        return [Fraction(rng.randint(-10 ** 12, 10 ** 12),
                         rng.randint(1, 10 ** 9)) for _ in range(DEGREE)]
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for _ in range(DEGREE)]


def pairs(A, rng, count):
    """(AlgElement, PolyElement) pairs of the same element, zero, one and
    r among them."""
    out = [(A.zero(), PolyElement(A.p, [])), (A.one(), PolyElement(A.p, [1])),
           (A.r, PolyElement(A.p, [0, 1]))]
    for i in range(count):
        c = seeded_coeffs(rng, large=i % 3 == 2)
        out.append((A.element(c), PolyElement(A.p, c)))
    return out


def same(e, o):
    return e.coords() == o.coords() and e.poly.coeffs == o.poly.coeffs


@pytest.mark.parametrize("k", range(len(QUINTICS)))
def test_arithmetic_against_poly_oracle(k):
    p = QUINTICS[k]
    A = EtaleAlgebra(p)
    rng = random.Random(100 + k)
    assert A.power_sums == tuple(oracle_power_sums(p, POWER_SUM_COUNT))
    elements = pairs(A, rng, 9)
    for e, o in elements:
        assert same(e, o)
        assert e.trace() == o.trace()
        assert e.charpoly_of().coeffs == o.charpoly().coeffs
        assert e.norm() == -o.charpoly()[0]
        assert e.is_unit() == o.is_unit()
        for n in range(6):
            assert same(e ** n, o ** n)
        if o.is_unit():
            assert same(e.inverse(), o.inverse())
            assert same(e ** -2, o ** -2)
        else:
            with pytest.raises(ZeroDivisorError):
                e.inverse()
        f = UniPoly(seeded_coeffs(rng, large=False) + [Fraction(3, 7)])
        assert same(e.evaluate_poly(f), o.evaluate_poly(f))
        chi = o.charpoly()
        if chi.is_squarefree():
            assert same(e.different(), o.evaluate_poly(chi.derivative()))
        else:
            with pytest.raises(NonGeneratorError):
                e.different()
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        assert same(e * c, o * c)
        assert same(e * 7, o * 7)
    for (e1, o1), (e2, o2) in zip(elements, elements[1:]):
        assert same(e1 * e2, o1 * o2)
        assert same(e1 + e2, o1 + o2)
        assert same(e1 - e2, o1 + o2 * -1)


@pytest.mark.parametrize("k", range(len(QUINTICS)))
def test_equality_and_hash_follow_the_residue_class(k):
    p = QUINTICS[k]
    A = EtaleAlgebra(p)
    rng = random.Random(200 + k)
    for i in range(6):
        c = seeded_coeffs(rng, large=i % 2 == 1)
        e = A.element(c)
        shift = UniPoly(c) + p * UniPoly(seeded_coeffs(rng, large=False))
        f = A.element(shift)                  # the same class, reduced
        assert e == f and hash(e) == hash(f)
        assert f.num == e.num and f.den == e.den
        assert EtaleAlgebra(p).element(c) == e    # an equal algebra
        g = A.element(UniPoly(c) + 1)
        assert g != e
        assert len({e, f, g}) == 2
        assert e != PolyElement(p, c)
    assert A.element([0, 0, 0, 0, 0]) == A.zero() and A.zero().is_zero()
    assert A.element([Fraction(4, 6)] * 3) == A.element(
        [Fraction(2, 3)] * 3)


def oracle_gram(weight, l):
    """C^T H C with Fraction entries: H[a][b] = Tr(weight * r^(a+b))."""
    p = weight.algebra.p
    w = PolyElement(p, weight.coords())
    h = Matrix(DEGREE, DEGREE,
               [(w * PolyElement(p, UniPoly.monomial(a + b))).trace()
                for a in range(DEGREE) for b in range(DEGREE)])
    cols = [cj.coords() for cj in l]
    c = Matrix(DEGREE, len(l), [col[i] for i in range(DEGREE) for col in cols])
    return c.transpose() @ h @ c


@pytest.mark.parametrize("k", range(len(QUINTICS)))
def test_trace_gram_against_fraction_product(k):
    A = EtaleAlgebra(QUINTICS[k])
    rng = random.Random(300 + k)
    for large in (False, True):
        weight = A.element(seeded_coeffs(rng, large))
        l = [A.element(seeded_coeffs(rng, large and j % 2 == 0))
             for j in range(DEGREE)]
        assert trace_gram(weight, l) == oracle_gram(weight, l)
    assert trace_gram(A.one(), A.power_basis()) == oracle_gram(
        A.one(), A.power_basis())


def test_inverse_error_names_the_gcd():
    A = EtaleAlgebra.from_roots([1, 2, 3, 4, 6])
    e = A.r - 2
    with pytest.raises(ZeroDivisorError, match=r"gcd UniPoly\(T - 2\)"):
        e.inverse()
    assert not e.is_unit() and e.norm() == 0
