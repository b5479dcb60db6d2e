"""The integer-numerator UniPoly against FractionPoly, the Fraction
polynomial it replaced, method by method on seeded polynomials; and
factor_unipoly against the Yun-then-Zassenhaus factorisation over
FractionPoly, on squarefree inputs and on non-squarefree products."""

import random
from fractions import Fraction

import pytest

from cubicdescent.errors import ZeroPolynomialError
from cubicdescent.polyfactor import _zassenhaus, factor_unipoly
from cubicdescent.unipoly import UniPoly

from oracles import FractionPoly


def seeded_coeffs(rng, degree):
    """degree + 1 coefficients, ints and Fractions mixed; the leading one
    may be negative or rational."""
    out = []
    for _ in range(degree + 1):
        v = rng.randint(-30, 30)
        out.append(Fraction(v, rng.randint(1, 9)) if rng.random() < 0.4 else v)
    while out and out[-1] == 0:
        out[-1] = rng.choice([-3, -1, 1, 2, Fraction(-5, 4), Fraction(7, 3)])
    return out


def seeded_pairs(seed, count=40):
    """(UniPoly, FractionPoly) pairs: zero, constants, and degrees up to 8."""
    rng = random.Random(seed)
    lists = [[], [0], [5], [Fraction(-3, 7)], [0, 0, 0, 0, 0, 0, 0, 0, 1]]
    lists += [seeded_coeffs(rng, rng.randint(0, 8)) for _ in range(count)]
    return [(UniPoly(c), FractionPoly(c)) for c in lists]


PAIRS = seeded_pairs(23)


def same(f, o):
    return (isinstance(f, UniPoly) and f.coeffs == o.coeffs
            and f.degree == o.degree)


def test_structure_and_reading():
    for f, o in PAIRS:
        assert same(f, o)
        assert f.lc() == o.lc() and f.is_zero() == o.is_zero()
        assert bool(f) == bool(o) and f.is_monic() == o.is_monic()
        assert [f[k] for k in range(-1, 11)] == [o[k] for k in range(-1, 11)]
        assert repr(f) == repr(o).replace("FractionPoly", "UniPoly")
        content, prim = f.primitive()
        want_content, want_prim = o.primitive()
        assert content == want_content and same(prim, want_prim)
        if all(c.denominator == 1 for c in o.coeffs):
            assert f.int_coeffs() == o.int_coeffs()
        else:
            with pytest.raises(ValueError):
                f.int_coeffs()
    for name, args in (("zero", ()), ("one", ()), ("x", ()),
                       ("constant", (Fraction(-4, 6),)),
                       ("monomial", (3, Fraction(2, 3))), ("monomial", (0,))):
        assert same(getattr(UniPoly, name)(*args),
                    getattr(FractionPoly, name)(*args))


def test_ring_operations():
    rng = random.Random(5)
    for (f, o), (g, p) in zip(PAIRS, PAIRS[3:] + PAIRS[:3]):
        assert same(f + g, o + p) and same(f - g, o - p)
        assert same(f * g, o * p) and same(-f, -o)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert same(f * c, o * c) and same(c * f, c * o)
        assert same(f + c, o + c) and same(c - f, c - o)
        assert same(f * 3, o * 3) and same(f - 2, o - 2)
        assert same(f ** 3, o ** 3) and same(f ** 0, o ** 0)
        assert same(f.derivative(), o.derivative())
        assert same(f.compose(g), o.compose(p))


def test_division_and_gcds():
    for (f, o), (g, p) in zip(PAIRS, PAIRS[1:] + PAIRS[:1]):
        if g.is_zero():
            with pytest.raises(ZeroPolynomialError):
                divmod(f, g)
        else:
            q, r = divmod(f, g)
            want_q, want_r = divmod(o, p)
            assert same(q, want_q) and same(r, want_r)
            assert same(f // g, want_q) and same(f % g, want_r)
            assert g.divides(f * g) and g.divides(f) == p.divides(o)
        assert same(f.gcd(g), o.gcd(p))
        h = UniPoly(seeded_coeffs(random.Random(f.degree), 2))
        assert same((f * h).gcd(g * h), (o * FractionPoly(h.coeffs)).gcd(
            p * FractionPoly(h.coeffs)))
        d, s, t = f.xgcd(g)
        want = o.xgcd(p)
        assert all(same(x, y) for x, y in zip((d, s, t), want))
        if f.is_zero():
            with pytest.raises(ZeroPolynomialError):
                f.monic()
        else:
            assert same(f.monic(), o.monic())


def test_evaluation_and_interpolation():
    rng = random.Random(8)
    for f, o in PAIRS:
        for x in (0, 1, -2, Fraction(3, 5), Fraction(-7, 4)):
            assert f.evaluate(x) == o.evaluate(x)
        ts = rng.sample(range(-9, 10), 6)
        vals = [Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                for _ in ts]
        assert same(UniPoly.interpolate(ts, vals),
                    FractionPoly.interpolate(ts, vals))
    roots = [2, Fraction(-1, 3), 0, 5]
    assert same(UniPoly.from_roots(roots), FractionPoly.from_roots(roots))


def test_resultants_and_discriminants():
    for (f, o), (g, p) in zip(PAIRS, PAIRS[2:] + PAIRS[:2]):
        assert f.resultant(g) == o.resultant(p)
        if f.degree >= 1:
            assert f.discriminant() == o.discriminant()
            assert f.is_squarefree() == o.is_squarefree()
            square = f * f * UniPoly([1, 1])
            assert not square.is_squarefree() and square.discriminant() == 0
        else:
            with pytest.raises(ZeroPolynomialError):
                f.discriminant()
            assert f.is_squarefree() == o.is_squarefree()


def test_equality_and_hash_ignore_the_input_form():
    forms = [UniPoly([2, -4, 6]), UniPoly([Fraction(2), Fraction(-8, 2), 6]),
             UniPoly([2, -4, 6, 0, 0]), UniPoly._from_num([6, -12, 18], 3),
             UniPoly._from_num([-4, 8, -12], -2),
             UniPoly([Fraction(1, 2), -1, Fraction(3, 2)]) * 4]
    assert all(f == forms[0] for f in forms)
    assert len({hash(f) for f in forms}) == 1
    assert forms[3].num == (2, -4, 6) and forms[3].den == 1
    half = [UniPoly([Fraction(1, 2), 3]), UniPoly._from_num([2, 12], 4),
            UniPoly([Fraction(-3, -6), Fraction(9, 3)])]
    assert len(set(half)) == 1 and half[1].den == 2
    assert UniPoly([]) == UniPoly([0, 0]) == UniPoly._from_num([0], 7)
    assert UniPoly.zero().den == 1 and UniPoly([1, 2]) != UniPoly([1, 3])


def oracle_factor(f: FractionPoly):
    """Yun over FractionPoly, then the shared Zassenhaus round, sorted as
    factor_unipoly sorts."""
    work = f.monic()
    df = work.derivative()
    g = work.gcd(df)
    parts = [(work, 1)]
    if g.degree > 0:
        parts = []
        b, c = work // g, df // g
        d, i = c - b.derivative(), 1
        while b.degree >= 1:
            a = b.gcd(d)
            if a.degree >= 1:
                parts.append((a, i))
                b, c = b // a, d // a
            else:
                c = d
            d, i = c - b.derivative(), i + 1
    out = []
    for sqf, mult in parts:
        if sqf.degree == 1:
            out.append((sqf.coeffs, mult))
            continue
        for c in _zassenhaus(sqf.primitive()[1].int_coeffs()):
            out.append((FractionPoly(c).monic().coeffs, mult))
    return f.lc(), sorted(out, key=lambda t: (len(t[0]), t[0]))


def seeded_products(seed, count, squarefree):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = UniPoly([Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))])
        if f.is_zero():
            continue
        for _ in range(rng.randint(1, 4)):
            g = UniPoly([rng.randint(-5, 5)
                         for _ in range(rng.randint(1, 3))] + [1])
            f = f * g ** (1 if squarefree else rng.randint(1, 3))
        if 1 <= f.degree <= 8 and f.is_squarefree() == squarefree:
            out.append(f)
    return out


@pytest.mark.parametrize("squarefree", [True, False])
def test_factor_unipoly_against_the_fraction_path(squarefree):
    for f in seeded_products(61 + squarefree, 30, squarefree):
        constant, factors = factor_unipoly(f)
        assert (constant, [(g.coeffs, m) for g, m in factors]) == \
            oracle_factor(FractionPoly(f.coeffs))
        back = UniPoly.constant(constant)
        for g, m in factors:
            back = back * g ** m
        assert back == f


def test_squarefree_factorisation_skips_yun(monkeypatch):
    from cubicdescent import polyfactor

    calls = []
    yun = polyfactor._yun_squarefree
    monkeypatch.setattr(polyfactor, "_yun_squarefree",
                        lambda f: calls.append(f) or yun(f))
    f = UniPoly.from_roots([1, 2, 3]) * UniPoly([1, 0, 1])
    assert len(factor_unipoly(f)[1]) == 4 and calls == []
    factor_unipoly(f * UniPoly([-1, 1]))
    assert calls == [(f * UniPoly([-1, 1])).monic()]
