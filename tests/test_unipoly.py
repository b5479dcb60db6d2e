import random
from fractions import Fraction

import pytest

from cubicdescent.errors import ZeroPolynomialError
from cubicdescent.unipoly import UniPoly


def test_basic_arithmetic():
    f = UniPoly([1, 2, 3])
    g = UniPoly([0, 1])
    assert (f + g).coeffs == (1, 3, 3)
    assert (f - f).is_zero()
    assert (f * g).coeffs == (0, 1, 2, 3)
    assert (g ** 3).coeffs == (0, 0, 0, 1)


def test_divmod_and_gcd():
    f = UniPoly.from_roots([1, 2, 3])
    g = UniPoly.from_roots([2, 3, 5])
    q, r = divmod(f, UniPoly.from_roots([2]))
    assert r.is_zero() and q == UniPoly.from_roots([1, 3])
    assert f.gcd(g) == UniPoly.from_roots([2, 3])
    with pytest.raises(ZeroPolynomialError):
        divmod(f, UniPoly.zero())


def test_xgcd_bezout():
    rng = random.Random(2)
    for _ in range(20):
        f = UniPoly([rng.randint(-4, 4) for _ in range(4)] + [1])
        g = UniPoly([rng.randint(-4, 4) for _ in range(3)] + [1])
        d, s, t = f.xgcd(g)
        assert s * f + t * g == d


def test_evaluate_compose_derivative():
    f = UniPoly([1, -3, 0, 2])          # 2T^3 - 3T + 1
    assert f.evaluate(2) == 11
    assert f.derivative() == UniPoly([-3, 0, 6])
    assert f.compose(UniPoly([1, 1])).evaluate(1) == f.evaluate(2)


def test_primitive():
    f = UniPoly([Fraction(2, 3), Fraction(4, 3)])
    content, prim = f.primitive()
    assert prim.coeffs == (1, 2)
    assert content * prim == f


def test_resultant_product_formula():
    rng = random.Random(9)
    for _ in range(15):
        roots_f = [rng.randint(-4, 4) for _ in range(3)]
        g = UniPoly([rng.randint(-3, 3) for _ in range(3)] + [1])
        f = UniPoly.from_roots(roots_f)
        expected = Fraction(1)
        for r in roots_f:
            expected *= g.evaluate(r)
        assert f.resultant(g) == expected


def test_resultant_symmetry_sign():
    f = UniPoly([-2, 0, 1])
    g = UniPoly([0, 1, 1])
    assert f.resultant(g) == (-1) ** (f.degree * g.degree) * g.resultant(f)


def test_discriminant_quadratic():
    # disc(aT^2 + bT + c) = b^2 - 4ac
    rng = random.Random(4)
    for _ in range(20):
        a, b, c = rng.randint(1, 5), rng.randint(-5, 5), rng.randint(-5, 5)
        assert UniPoly([c, b, a]).discriminant() == b * b - 4 * a * c


def test_squarefree_detection():
    assert UniPoly.from_roots([1, 2, 3]).is_squarefree()
    assert not (UniPoly.from_roots([1, 1, 2])).is_squarefree()


def test_interpolate_matches_vandermonde_solve():
    # the same coefficients as solving the Vandermonde system exactly
    from cubicdescent.linalg import Matrix, solve_linear

    rng = random.Random(6)
    ts = [0, 1, -1, 2, -2, 3]
    for _ in range(10):
        vals = [Fraction(rng.randint(-50, 50), rng.randint(1, 7)) for _ in ts]
        vmat = Matrix.from_rows([[Fraction(t) ** k for k in range(6)]
                                 for t in ts])
        assert UniPoly.interpolate(ts, vals) == UniPoly(solve_linear(vmat, vals))
    f = UniPoly([3, 0, -2, 1])
    assert UniPoly.interpolate(ts, [f.evaluate(t) for t in ts]) == f
    assert UniPoly.interpolate(ts, [0] * 6).is_zero()
