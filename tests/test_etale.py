import random
from fractions import Fraction

import pytest

from cubicdescent.errors import (NonGeneratorError, NotEtaleError,
                                 ZeroDivisorError)
from cubicdescent.etale import DEGREE, EtaleAlgebra
from cubicdescent.linalg import Matrix, charpoly, det
from cubicdescent.unipoly import UniPoly

from conftest import PAPER_P
from oracles import from_split_values, split_idempotents, trace_gram


def mul_matrix(e) -> Matrix:
    """Oracle: the matrix of multiplication by e in the power basis
    1, r, ..., r^4."""
    cols = []
    for j in range(DEGREE):
        col = (e.poly * UniPoly.monomial(j)) % e.algebra.p
        cols.append([col[k] for k in range(DEGREE)])
    return Matrix(DEGREE, DEGREE,
                  [cols[j][i] for i in range(DEGREE) for j in range(DEGREE)])


def random_quintics(seed, count):
    """Seeded monic squarefree quintics with small integer coefficients."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = UniPoly([rng.randint(-20, 20) for _ in range(5)] + [1])
        if p.is_squarefree():
            out.append(p)
    return out


def random_element(A, rng):
    return A.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(DEGREE)])


def test_constructor_validation():
    with pytest.raises(NotEtaleError):
        EtaleAlgebra(UniPoly([1, 1]))                   # degree 1
    with pytest.raises(NotEtaleError):
        EtaleAlgebra(UniPoly([0, 0, 0, 0, 0, 2]))       # not monic
    with pytest.raises(NotEtaleError):
        EtaleAlgebra(UniPoly.from_roots([1, 1, 2, 3, 4]))  # repeated root


def test_known_squarefree_algebra_matches_constructor(paper_strategy):
    """radicand_report builds the algebra of chi_m, squarefree by its
    nonzero discriminant, without a second squarefree test; it is the
    algebra the constructor builds."""
    _, rep = paper_strategy
    built = rep.splitting_psi.algebra
    checked = EtaleAlgebra(rep.tritangent_poly)
    for name in ("p", "p_num", "p_den", "power_sum_num", "power_sum_den"):
        assert getattr(built, name) == getattr(checked, name)


def test_charpoly_of_r_is_p(paper_p):
    A = EtaleAlgebra(paper_p)
    assert A.r.charpoly_of() == paper_p


def test_paper_trace_and_norm(paper_p):
    A = EtaleAlgebra(paper_p)
    # trace = -(degree-4 coefficient), norm = 2 * 6 * 75 = 900 = 30^2
    assert A.r.trace() == -10
    assert A.r.norm() == 900


def test_inverse_and_zero_divisor(paper_p):
    A = EtaleAlgebra(paper_p)
    r = A.r
    assert paper_p.evaluate(0) == -900      # r is a unit
    assert r * r.inverse() == A.one()
    with pytest.raises(ZeroDivisorError):
        (r - 2).inverse()                   # (T - 2) divides p


def test_different_of_r_is_pprime(paper_p):
    A = EtaleAlgebra(paper_p)
    r = A.r
    assert r.different() == r.evaluate_poly(paper_p.derivative())


def test_split_different_conjugates():
    roots = [0, 1, 2, 3, 4]
    A = EtaleAlgebra.from_roots(roots)
    d = A.r.different()
    chi = d.charpoly_of()
    # conjugates are prod_{j != i}(r_i - r_j); at i = 0: (-1)(-2)(-3)(-4) = 24
    expected = []
    for i, ri in enumerate(roots):
        prod = 1
        for j, rj in enumerate(roots):
            if j != i:
                prod *= ri - rj
        expected.append(prod)
    for v in expected:
        assert chi.evaluate(v) == 0
    assert chi == UniPoly.from_roots(expected)


def test_non_generator_error():
    roots = [-2, -1, 0, 1, 2]
    A = EtaleAlgebra.from_roots(roots)
    # r^2 has charpoly with repeated roots (values 4, 1, 0, 1, 4)
    x = A.r * A.r
    assert not x.is_generator()
    with pytest.raises(NonGeneratorError):
        x.different()
    one = A.one()
    with pytest.raises(NonGeneratorError):
        one.different()


def test_different_of_r_skips_the_repeated_squarefree_test(monkeypatch,
                                                         paper_p):
    # chi_r = p, found squarefree when the algebra was built
    A = EtaleAlgebra(paper_p)
    tested = []
    squarefree = UniPoly.is_squarefree
    monkeypatch.setattr(UniPoly, "is_squarefree",
                        lambda f: tested.append(f) or squarefree(f))
    assert A.r.different() == A.element(paper_p.derivative())
    assert tested == []
    with pytest.raises(NonGeneratorError):
        A.element(3).different()
    assert tested == [UniPoly.from_roots([3] * 5)]


def test_trace_norm_symbolic_relations(paper_p):
    A = EtaleAlgebra(paper_p)
    rng = random.Random(8)
    for _ in range(15):
        e = A.element([rng.randint(-4, 4) for _ in range(5)])
        chi = e.charpoly_of()
        assert e.trace() == -chi[4]
        assert e.norm() == -chi[0]          # (-1)^5 * constant term
    e1 = A.element([rng.randint(-3, 3) for _ in range(5)])
    e2 = A.element([rng.randint(-3, 3) for _ in range(5)])
    assert (e1 * e2).norm() == e1.norm() * e2.norm()
    assert (e1 + e2).trace() == e1.trace() + e2.trace()
    assert (e1 * 3).trace() == 3 * e1.trace()


def test_split_algebra_coordinatewise_oracle():
    roots = [1, 2, 3, 4, 6]
    A = EtaleAlgebra.from_roots(roots)
    rng = random.Random(12)
    for _ in range(10):
        u = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        v = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        eu = from_split_values(A, roots, u)
        ev = from_split_values(A, roots, v)
        assert eu * ev == from_split_values(A, roots, [a * b for a, b in zip(u, v)])
        assert eu + ev == from_split_values(A, roots, [a + b for a, b in zip(u, v)])
        prod = Fraction(1)
        for a in u:
            prod *= a
        assert eu.norm() == prod
        assert eu.trace() == sum(u)


def test_idempotents():
    roots = [1, 2, 3, 4, 6]
    A = EtaleAlgebra.from_roots(roots)
    idem = split_idempotents(A, roots)
    total = A.zero()
    for i, e in enumerate(idem):
        assert e * e == e
        total = total + e
        for j, f in enumerate(idem):
            if i != j:
                assert (e * f).is_zero()
    assert total == A.one()


def test_trace_functional_matches_matrix_oracle():
    split = EtaleAlgebra.from_roots([-2, -1, 0, 1, 2])
    rng = random.Random(21)
    cases = [(split, split.r * split.r)]        # a non-generator
    for p in [PAPER_P] + random_quintics(22, 8):
        A = EtaleAlgebra(p)
        assert A.power_sums[:DEGREE] == tuple(
            mul_matrix(A.element(UniPoly.monomial(k))).trace()
            for k in range(DEGREE))
        cases += [(A, A.zero()), (A, A.one()), (A, A.r)]
        cases += [(A, random_element(A, rng)) for _ in range(4)]
    for A, e in cases:
        m = mul_matrix(e)
        assert e.trace() == m.trace()
        assert e.norm() == det(m)
        assert e.charpoly_of() == charpoly(m)


def test_trace_gram_matches_element_products():
    rng = random.Random(23)
    for p in [PAPER_P] + random_quintics(24, 3):
        A = EtaleAlgebra(p)
        w = random_element(A, rng)
        l = [random_element(A, rng) for _ in range(DEGREE)]
        g = trace_gram(w, l)
        for j in range(DEGREE):
            for k in range(DEGREE):
                assert g[j, k] == (w * l[j] * l[k]).trace()
                assert g[j, k] == mul_matrix(w * l[j] * l[k]).trace()
