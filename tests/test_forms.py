import random
from fractions import Fraction

import pytest

from cubicdescent.errors import PreconditionError
from cubicdescent.forms import (CubicForm4, LinForm, ProjLine,
                                ProjPoint, QuadForm, congruence_diagonal,
                                contains_line, contains_point, p1_normalize,
                                pencil_determinant, restrict_to_hyperplane,
                                signature)
from cubicdescent.linalg import Matrix, det, rank

from conftest import PAPER_LINE_POINTS, random_quadform


@pytest.fixture
def rng():
    return random.Random(31)


def test_evaluate_gradient_fermat(fermat):
    assert fermat.evaluate([1, -1, 0, 0]) == 0
    assert fermat.gradient([1, -1, 0, 0]) == (3, 3, 0, 0)


def test_partials_euler_identity(paper_cubic, rng):
    # sum x_i * dF/dx_i = 3F, and the gradient reads the partials
    F = paper_cubic.F
    parts = F.partials()
    assert [sum(e) for d in parts for e in d] == [2] * sum(map(len, parts))
    for _ in range(5):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        grad = F.gradient(x)
        assert sum(xi * g for xi, g in zip(x, grad)) == 3 * F.evaluate(x)
        assert grad == tuple(sum(c * x[0] ** e[0] * x[1] ** e[1]
                                 * x[2] ** e[2] * x[3] ** e[3]
                                 for e, c in d.items()) for d in parts)
    fermat = CubicForm4({(3, 0, 0, 0): 1, (0, 0, 0, 3): 2})
    assert fermat.partials() == [{(2, 0, 0, 0): 3}, {}, {}, {(0, 0, 0, 2): 6}]


def test_paper_cubic_contains_its_points(paper_cubic):
    for pt in PAPER_LINE_POINTS:
        assert contains_point(paper_cubic.F, pt)


def test_substitute_identity_and_swap():
    q = QuadForm.from_poly_coeffs(4, {(0, 0): 1})
    assert q.substitute(Matrix.identity(4)) == q
    swap = Matrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]])
    assert q.substitute(swap) == QuadForm.from_poly_coeffs(4, {(1, 1): 1})


def test_substitute_roundtrip_random_cubic(rng):
    from cubicdescent.linalg import inverse

    terms = {}
    for _ in range(8):
        e = [0, 0, 0, 0]
        for _ in range(3):
            e[rng.randrange(4)] += 1
        terms[tuple(e)] = rng.randint(-5, 5)
    f = CubicForm4(terms)
    while True:
        m = Matrix(4, 4, [rng.randint(-2, 2) for _ in range(16)])
        if det(m) != 0:
            break
    assert f.substitute(m).substitute(inverse(m)) == f


def test_restrict_examples():
    q = QuadForm.diagonal([1, 1, 1, 1])
    r, basis = restrict_to_hyperplane(q, LinForm([0, 0, 0, 1]))
    assert r == QuadForm.diagonal([1, 1, 1])
    q2 = QuadForm.from_poly_coeffs(4, {(0, 3): 1})
    r2, _ = restrict_to_hyperplane(q2, LinForm([0, 0, 0, 1]))
    assert r2.is_zero()
    with pytest.raises(PreconditionError):
        restrict_to_hyperplane(q, LinForm([0, 0, 0, 0]))


def test_pencil_determinant_diagonal():
    q0 = QuadForm.diagonal([1, 1, 1, 1, 1])
    q1 = QuadForm.diagonal([0, 1, 2, 3, 4])
    bq = pencil_determinant(q0, q1)
    roots = bq.rational_roots()
    assert [r for r, _ in roots] == [(0, 1), (-1, 1), (-2, 1), (-3, 1), (-4, 1)]
    assert all(m == 1 for _, m in roots)


def test_pencil_determinant_proportional():
    q0 = random_quadform(random.Random(1), 5)
    while rank(q0.gram) == 0:
        q0 = random_quadform(random.Random(2), 5)
    bq = pencil_determinant(q0, q0)
    d = det(q0.gram)
    # det((lam + mu) A) = (lam + mu)^5 det A
    from math import comb

    assert bq.coeffs == tuple(comb(5, k) * d for k in range(6))


def test_pencil_determinant_matches_direct(rng):
    q0 = random_quadform(rng, 5)
    q1 = random_quadform(rng, 5)
    bq = pencil_determinant(q0, q1)
    for _ in range(10):
        lam, mu = rng.randint(-6, 6), rng.randint(-6, 6)
        direct = det(q0.gram.scale(lam) + q1.gram.scale(mu))
        assert bq.evaluate(lam, mu) == direct


def test_contains_line_fermat(fermat):
    line = ProjLine.from_points(ProjPoint([1, -1, 0, 0]), ProjPoint([0, 0, 1, -1]))
    assert contains_line(fermat, line)
    bad = ProjLine.from_points(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    assert not contains_line(fermat, bad)


def test_contains_line_paper(paper_cubic):
    assert contains_line(paper_cubic.F, paper_cubic.known_line)


def test_signature_examples():
    assert signature(QuadForm.diagonal([1, -1, 0])) == (1, 1, 1)
    assert signature(QuadForm.diagonal([0, 0, 0])) == (0, 0, 3)
    assert signature(QuadForm.from_poly_coeffs(3, {(0, 1): 1})) == (1, 1, 1)


def test_signature_congruence_invariance(rng):
    from cubicdescent.linalg import inverse

    for _ in range(20):
        q = random_quadform(rng, 4)
        while True:
            m = Matrix(4, 4, [rng.randint(-2, 2) for _ in range(16)])
            if det(m) != 0:
                break
        q2 = q.substitute(m)
        assert signature(q) == signature(q2)
        assert rank(q.gram) == rank(q2.gram)


def test_congruence_diagonal_is_congruent(rng):
    for _ in range(10):
        q = random_quadform(rng, 5)
        diag = congruence_diagonal(q)
        assert signature(q) == (sum(1 for d in diag if d > 0),
                                sum(1 for d in diag if d < 0),
                                sum(1 for d in diag if d == 0))


def test_projpoint_normalization():
    assert ProjPoint([2, -4, 6]).coords == (1, -2, 3)
    assert ProjPoint([-2, 4]).coords == (1, -2)
    assert ProjPoint([Fraction(1, 2), Fraction(1, 3)]).coords == (3, 2)
    with pytest.raises(PreconditionError):
        ProjPoint([0, 0, 0])


def test_p1_normalize():
    assert p1_normalize(-1, 1) == (-1, 1)
    assert p1_normalize(2, -4) == (-1, 2)
    assert p1_normalize(5, 0) == (1, 0)


def test_line_conversions_roundtrip():
    line = ProjLine.from_points(ProjPoint([5, 0, 0, -7]), ProjPoint([0, 5, 10, 2]))
    f0, f1 = line.forms
    again = ProjLine.from_forms(f0, f1)
    assert again == line
    for f in (f0, f1):
        for p in line.points:
            assert f.evaluate(p.coords) == 0


def test_binary_quintic_infinity_root():
    # pencil with det dropping degree: Q0 singular handled via (1 : 0)
    q0 = QuadForm.diagonal([0, 1, 1, 1, 1])
    q1 = QuadForm.diagonal([1, 1, 2, 3, 4])
    bq = pencil_determinant(q0, q1)
    roots = dict(bq.rational_roots())
    assert roots[(1, 0)] == 1
