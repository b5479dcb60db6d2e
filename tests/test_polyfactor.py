import random
import time
from fractions import Fraction

import pytest

from cubicdescent.errors import PreconditionError, ZeroPolynomialError
from cubicdescent.polyfactor import factor_unipoly, is_irreducible, rational_roots
from cubicdescent.unipoly import UniPoly

from conftest import PAPER_P


def _reassemble(constant, factors):
    out = UniPoly.constant(constant)
    for f, mult in factors:
        out = out * f ** mult
    return out


def test_factor_t2_minus_1():
    c, fs = factor_unipoly(UniPoly([-1, 0, 1]))
    assert c == 1
    assert fs == [(UniPoly([-1, 1]), 1), (UniPoly([1, 1]), 1)]


def test_factor_paper_quintic():
    # expansion of (T-2)[(T-3)^2 - 3][(T+9)^2 - 6]
    assert UniPoly([-2, 1]) * UniPoly([6, -6, 1]) * UniPoly([75, 18, 1]) == PAPER_P
    c, fs = factor_unipoly(PAPER_P)
    assert c == 1
    assert fs == [(UniPoly([-2, 1]), 1),
                  (UniPoly([6, -6, 1]), 1),
                  (UniPoly([75, 18, 1]), 1)]


def test_factor_t5_minus_2_irreducible():
    c, fs = factor_unipoly(UniPoly([-2, 0, 0, 0, 0, 1]))
    assert c == 1 and len(fs) == 1 and fs[0] == (UniPoly([-2, 0, 0, 0, 0, 1]), 1)
    assert is_irreducible(UniPoly([-2, 0, 0, 0, 0, 1]))


def test_factor_zero_and_degree_cap():
    with pytest.raises(ZeroPolynomialError):
        factor_unipoly(UniPoly.zero())
    with pytest.raises(PreconditionError):
        factor_unipoly(UniPoly.monomial(9))


def test_factor_reconstruction_random_products():
    rng = random.Random(23)
    for _ in range(30):
        parts = []
        total_deg = 0
        while total_deg < 5:
            d = rng.choice([1, 1, 2, 3])
            f = UniPoly([rng.randint(-5, 5) for _ in range(d)] + [1])
            parts.append(f ** rng.choice([1, 1, 2]))
            total_deg = sum(p.degree for p in parts)
            if total_deg > 8:
                parts.pop()
                break
        f = UniPoly.constant(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        for p in parts:
            f = f * p
        if f.degree < 1:
            continue
        c, fs = factor_unipoly(f)
        assert _reassemble(c, fs) == f
        for g, _ in fs:
            assert g.is_monic()
            assert is_irreducible(g)


def test_factor_with_multiplicities():
    f = UniPoly.from_roots([1, 1, 2]) * UniPoly([1, 0, 1])
    c, fs = factor_unipoly(f)
    assert c == 1
    assert (UniPoly([-1, 1]), 2) in fs
    assert (UniPoly([-2, 1]), 1) in fs
    assert (UniPoly([1, 0, 1]), 1) in fs


def test_factor_degree8_squares():
    f = (UniPoly([1, 1, 1]) ** 2) * (UniPoly([-3, 0, 1]) ** 2)
    c, fs = factor_unipoly(f)
    assert _reassemble(c, fs) == f
    assert all(m == 2 for _, m in fs)


def test_rational_roots():
    f = UniPoly.from_roots([Fraction(1, 2), -3, 0]) * UniPoly([1, 0, 1])
    assert rational_roots(f) == [-3, 0, Fraction(1, 2)]


def test_non_monic_constant():
    f = UniPoly([2, 0, -2])            # -2(T - 1)(T + 1)
    c, fs = factor_unipoly(f)
    assert c == -2
    assert fs == [(UniPoly([-1, 1]), 1), (UniPoly([1, 1]), 1)]


def test_constant_term_with_two_large_primes():
    # the constant term is -N with N the product of two primes near 1e17
    # and 3e17; finding the root 1 must not depend on factoring N
    n = 100000000000000003 * 300000000000000011
    quartic = UniPoly([n, 1, 0, 0, 1])
    f = UniPoly([-1, 1]) * quartic
    t0 = time.perf_counter()
    c, fs = factor_unipoly(f)
    roots = rational_roots(f)
    elapsed = time.perf_counter() - t0
    assert c == 1
    assert fs == [(UniPoly([-1, 1]), 1), (quartic, 1)]
    assert roots == [1]
    assert elapsed < 1.0
