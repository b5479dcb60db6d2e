import random
from fractions import Fraction

import pytest

from cubicdescent.errors import PreconditionError
from cubicdescent.forms import (CubicForm4, LinForm, ProjLine,
                                ProjPoint, QuadForm, contains_line,
                                contains_point, p1_normalize,
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


def congruence_diagonal(q: QuadForm) -> list:
    """Oracle: the diagonal entries of a congruent diagonal form, by a
    symmetric LDL^T elimination over Q (a zero pivot is replaced by a
    later nonzero diagonal entry, or made by e_i <- e_i + e_j)."""
    n = q.n
    a = [[q.gram[i, j] for j in range(n)] for i in range(n)]
    diag = []
    for k in range(n):
        # ensure a nonzero diagonal entry at position k
        if a[k][k] == 0:
            swap = None
            for j in range(k + 1, n):
                if a[j][j] != 0:
                    swap = j
                    break
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if a[i][j] != 0:
                            off = (i, j)
                            break
                    if off:
                        break
                if off is None:
                    diag.extend([Fraction(0)] * (n - k))
                    break
                i, j = off
                # e_i <- e_i + e_j creates a diagonal entry at (i, i)
                for col in range(n):
                    a[i][col] += a[j][col]
                for row in a:
                    row[i] += row[j]
                if i != k:
                    a[k], a[i] = a[i], a[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
        d = a[k][k]
        diag.append(d)
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / d
                for col in range(n):
                    a[i][col] -= f * a[k][col]
                for row in a:
                    row[i] -= f * row[k]
    return diag


def form_of_rank(rng, n: int, r: int) -> QuadForm:
    """A seeded form C^T D C in n variables, with C invertible and D
    diagonal with r nonzero entries of random sign: a form of rank r."""
    while True:
        c = Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
        if det(c) != 0:
            break
    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)] + [0] * (n - r)
    rng.shuffle(d)
    return QuadForm.diagonal(d).substitute(c)


def test_congruence_diagonal_is_congruent(rng):
    # signature reads the characteristic polynomial; the LDL^T oracle
    # gives the same counts on forms of every rank, the zero form and the
    # zero-diagonal hyperbolic forms included
    forms = [random_quadform(rng, 5) for _ in range(10)]
    for n in (3, 4, 5):
        forms.append(QuadForm.from_poly_coeffs(
            n, {(i, j): rng.choice((-2, -1, 1, 2))
                for i in range(n) for j in range(i + 1, n)}))
        for r in range(n + 1):
            for _ in range(8):
                q = form_of_rank(rng, n, r)
                assert rank(q.gram) == r
                forms.append(q)
    for q in forms:
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
    assert hash(again) == hash(line)
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


def test_line_equality_depends_on_the_span_alone(rng):
    # the same line from two other points of it, and from two other cut
    # forms, is equal and hashes equal; two lines are equal exactly when
    # their four points span a plane of rank 2
    lines = []
    while len(lines) < 40:
        p = [rng.randint(-4, 4) for _ in range(4)]
        q = [rng.randint(-4, 4) for _ in range(4)]
        if rank(Matrix.from_rows([p, q])) == 2:
            lines.append(ProjLine.from_points(p, q))
    for line in lines:
        (p, q), (f0, f1) = line.points, line.forms
        a, b = rng.choice((1, -1, 2, 3)), rng.choice((2, 5, -3))
        others = [
            ProjLine.from_points([a * x + y for x, y in zip(p, q)],
                                 [x - b * y for x, y in zip(p, q)]),
            ProjLine.from_forms(f0, f1),
            ProjLine.from_forms([a * x + y for x, y in zip(f0.coeffs, f1.coeffs)],
                                [x - b * y for x, y in zip(f0.coeffs, f1.coeffs)]),
        ]
        for other in others:
            assert other == line and hash(other) == hash(line)
    for u in lines[:10]:
        for v in lines:
            span = rank(Matrix.from_rows([x.coords for x in (*u.points, *v.points)]))
            assert (u == v) == (span == 2)
