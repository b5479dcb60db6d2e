"""The integer-numerator quadric kernels against the Fraction arithmetic
they replaced, kept here as the oracle: Gram matrices built entry by entry
in Fractions, C^T G C as Fraction matrix products, the pencil polynomials
as Fraction determinants interpolated by Lagrange's formula, the blow-up
from Fraction coefficients and the line section expanded in Fractions."""

import random
from fractions import Fraction
from math import prod

import pytest

from cubicdescent.descent import DP4Surface
from cubicdescent.errors import DegeneratePencilError, PreconditionError
from cubicdescent.forms import (CubicForm4, LinForm, ProjLine, ProjPoint,
                                QuadForm, _pencil_minor, line_section_cubic,
                                pencil_determinant, restrict_to_hyperplane)
from cubicdescent.geometry import (QUAD_INDEX, _assemble_quadric5,
                                   _split_quadric5, _unimodular_point_move,
                                   dp4_to_cubic, tritangent_analysis)
from cubicdescent.intfactor import squarefree_class
from cubicdescent.linalg import Matrix, det, nullspace, rank
from cubicdescent.unipoly import UniPoly

from conftest import random_dp4_with_point


def oracle_gram(n: int, coeffs: dict) -> Matrix:
    """The Gram matrix of {(i, j): c}, the cross coefficients halved."""
    g = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in coeffs.items():
        c = Fraction(c)
        if i == j:
            g[i][i] += c
        else:
            g[i][j] += c / 2
            g[j][i] += c / 2
    return Matrix.from_rows(g)


def oracle_evaluate(gram: Matrix, point) -> Fraction:
    v = [Fraction(x) for x in point]
    gv = gram.mul_vec(v)
    return sum(a * b for a, b in zip(v, gv))


def oracle_substitute(gram: Matrix, change: Matrix) -> Matrix:
    return change.transpose() @ gram @ change


def oracle_interpolate(ts, values) -> UniPoly:
    """Lagrange's formula, one from_roots product per node."""
    ts = [Fraction(t) for t in ts]
    acc = UniPoly.zero()
    for i, (ti, vi) in enumerate(zip(ts, values)):
        others = ts[:i] + ts[i + 1:]
        acc = acc + UniPoly.from_roots(others) * (
            Fraction(vi) / prod(ti - tj for tj in others))
    return acc


def oracle_pencil_poly(gram0: Matrix, gram1: Matrix, idx) -> UniPoly:
    """det(t*gram0 + gram1) on the rows and columns idx."""
    ts = [0, 1, -1, 2, -2, 3][:len(idx) + 1]
    vals = []
    for t in ts:
        m = gram0.scale(t) + gram1
        vals.append(det(Matrix.from_rows([[m[i, j] for j in idx]
                                          for i in idx])))
    return oracle_interpolate(ts, vals)


def oracle_restrict(gram: Matrix, l: LinForm) -> tuple:
    piv = max(range(4), key=lambda i: (abs(l.coeffs[i]), -i))
    cols = []
    for j in (i for i in range(4) if i != piv):
        col = [Fraction(0)] * 4
        col[j] = Fraction(1)
        col[piv] = -l.coeffs[j] / l.coeffs[piv]
        cols.append(col)
    basis = Matrix(4, 3, [cols[j][i] for i in range(4) for j in range(3)])
    return oracle_substitute(gram, basis), basis


def oracle_line_section(s: CubicForm4, line: ProjLine) -> list:
    p, q = line.points
    out = [Fraction(0)] * 4
    for e, c in s.coeffs.items():
        factors = []
        for i in range(4):
            factors.extend([(Fraction(p[i]), Fraction(q[i]))] * e[i])
        acc = [c, Fraction(0), Fraction(0), Fraction(0)]
        for deg, (a, b) in enumerate(factors):
            nxt = [Fraction(0)] * 4
            for k in range(deg + 1):
                nxt[k + 1] += acc[k] * a
                nxt[k] += acc[k] * b
            acc = nxt
        for k in range(4):
            out[k] += acc[k]
    return out


def oracle_blowup(gram0: Matrix, gram1: Matrix, point) -> dict:
    """The cubic q0*l1 - q1*l0 of dp4_to_cubic, in Fractions."""
    c = _unimodular_point_move(ProjPoint(point))
    split = []
    for g in (oracle_substitute(gram0, c), oracle_substitute(gram1, c)):
        upper = [g[i, j] if i == j else 2 * g[i, j] for i, j in QUAD_INDEX]
        split.append((upper, [2 * g[j, 4] for j in range(4)]))
    (u0, l0), (u1, l1) = split
    terms: dict = {}
    for upper, lin, sign in ((u0, l1, 1), (u1, l0, -1)):
        for (i, j), cc in zip(QUAD_INDEX, upper):
            for k in range(4):
                e = [0, 0, 0, 0]
                e[i] += 1
                e[j] += 1
                e[k] += 1
                e = tuple(e)
                terms[e] = terms.get(e, Fraction(0)) + sign * cc * lin[k]
    return {e: c for e, c in terms.items() if c}


def random_coeffs(rng, n, bound=9, dens=(1,)):
    return {(i, j): Fraction(rng.randint(-bound, bound), rng.choice(dens))
            for i in range(n) for j in range(i, n)}


def random_matrix(rng, rows, cols, dens=(1,)):
    return Matrix(rows, cols, [Fraction(rng.randint(-3, 3), rng.choice(dens))
                               for _ in range(rows * cols)])


FORM_KINDS = {
    # odd cross coefficients: half-integer Gram entries
    "odd": lambda rng, n: {(i, j): 2 * rng.randint(-5, 5) + (i != j)
                           for i in range(n) for j in range(i, n)},
    # rational coefficients with a common denominator
    "rational": lambda rng, n: random_coeffs(rng, n, 30, (1, 2, 3, 7, 12)),
    "zero": lambda rng, n: {},
}


@pytest.mark.parametrize("kind", sorted(FORM_KINDS))
@pytest.mark.parametrize("seed", range(4))
def test_form_kernels_match_fraction_oracle(kind, seed):
    rng = random.Random(seed)
    for n in (3, 4, 5):
        coeffs = FORM_KINDS[kind](rng, n)
        q = QuadForm.from_poly_coeffs(n, coeffs)
        gram = oracle_gram(n, coeffs)
        assert q.gram == gram
        assert q == QuadForm(gram) and hash(q) == hash(QuadForm(gram))
        assert q.is_zero() == (not any(gram.num))
        assert q.upper_coeffs() == [gram[i, j] if i == j else 2 * gram[i, j]
                                    for i in range(n) for j in range(i, n)]
        for _ in range(4):
            x = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 5)))
                 for _ in range(n)]
            assert q.evaluate(x) == oracle_evaluate(gram, x)
        for m in (n, 3, 5):
            change = random_matrix(rng, n, m, (1, 1, 2, 3))
            moved = q.substitute(change)
            assert moved.gram == oracle_substitute(gram, change)
            assert moved == QuadForm(oracle_substitute(gram, change))


def test_equal_forms_compare_and_hash_equal():
    rng = random.Random(3)
    for _ in range(20):
        coeffs = random_coeffs(rng, 5, 9, (1, 2, 4))
        a = QuadForm.from_poly_coeffs(5, coeffs)
        b = QuadForm(oracle_gram(5, coeffs))
        c = QuadForm.from_upper(5, [coeffs[ij] for ij in sorted(coeffs)])
        d = a.substitute(Matrix.identity(5))
        assert a == b == c == d
        assert len({hash(a), hash(b), hash(c), hash(d)}) == 1
        assert a != a.substitute(Matrix.identity(5).scale(2))
    assert QuadForm.diagonal([Fraction(1, 2), 3, 0]) == QuadForm(
        Matrix.diagonal([Fraction(1, 2), 3, 0]))


@pytest.mark.parametrize("piv", range(4))
def test_restrict_to_hyperplane_every_pivot(piv):
    rng = random.Random(40 + piv)
    for kind in sorted(FORM_KINDS):
        q = QuadForm.from_poly_coeffs(4, FORM_KINDS[kind](rng, 4))
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 3)))
                      for _ in range(4)]
            coeffs[piv] = Fraction(rng.choice((-1, 1)) * 5)
            l = LinForm(coeffs)
            restricted, basis = restrict_to_hyperplane(q, l)
            want, want_basis = oracle_restrict(q.gram, l)
            assert basis == want_basis
            assert restricted.gram == want


def pencil_pairs():
    rng = random.Random(5)
    pairs = []
    for kind in ("odd", "rational"):
        for _ in range(3):
            pairs.append((QuadForm.from_poly_coeffs(5, FORM_KINDS[kind](rng, 5)),
                          QuadForm.from_poly_coeffs(5, FORM_KINDS[kind](rng, 5))))
    q = pairs[0][0]
    # proportional: det((lam + 3 mu / 2) A)
    pairs.append((q, q.substitute(Matrix.identity(5).scale(Fraction(3, 2)))))
    # rank deficient: both forms miss x4, so the determinant vanishes
    low = [{(i, j): c for (i, j), c in FORM_KINDS["odd"](rng, 5).items()
            if j < 4} for _ in range(2)]
    pairs.append(tuple(QuadForm.from_poly_coeffs(5, c) for c in low))
    # a singular member at (1 : 0): A0 of rank 3
    pairs.append((QuadForm.diagonal([2, Fraction(-1, 3), 5, 0, 0]),
                  pairs[1][1]))
    return pairs


@pytest.mark.parametrize("index", range(9))
def test_pencil_polynomials_match_fraction_oracle(index):
    q0, q1 = pencil_pairs()[index]
    bq = pencil_determinant(q0, q1)
    want = oracle_pencil_poly(q0.gram, q1.gram, range(5))
    assert bq.dehomogenized() == want
    assert list(bq.coeffs) == [want[k] for k in range(6)]
    for k in range(5):
        idx = [i for i in range(5) if i != k]
        assert _pencil_minor(q0, q1, idx) == oracle_pencil_poly(
            q0.gram, q1.gram, idx)


def test_vanishing_pencil_determinant_raises():
    q0, q1 = pencil_pairs()[7]
    assert pencil_determinant(q0, q1).is_zero()
    with pytest.raises(DegeneratePencilError,
                       match="pencil determinant vanishes identically"):
        tritangent_analysis(DP4Surface(q0, q1))


def oracle_rational_member(V, lam, mu):
    """(rank, kernel, split_disc) of the member lam*A0 + mu*A1 from its
    Fraction Gram matrix."""
    m = V.Q0.gram.scale(lam) + V.Q1.gram.scale(mu)
    ker = nullspace(m)
    if len(ker) != 1:
        return 5 - len(ker), None, None
    k = next(i for i, x in enumerate(ker[0]) if x)
    idx = [i for i in range(5) if i != k]
    minor = det(Matrix.from_rows([[m[i, j] for j in idx] for i in idx]))
    return 4, ker[0], squarefree_class(minor)


def test_rational_members_match_fraction_oracle(paper_dp4):
    # the published pencil, and pencils C^T D_i C with rational C and D_i,
    # whose members at the roots have rank 4 or 3
    rng = random.Random(8)
    surfaces = [paper_dp4]
    for diag in ([2, Fraction(-1, 3), 5, 7, Fraction(1, 2)],
                 [1, 1, 3, 3, -2]):
        while True:
            c = random_matrix(rng, 5, 5, (1, 1, 2, 3))
            if det(c) != 0:
                break
        surfaces.append(DP4Surface(QuadForm.diagonal([1] * 5).substitute(c),
                                   QuadForm.diagonal(diag).substitute(c)))
    seen = 0
    for V in surfaces:
        for e in tritangent_analysis(V):
            if isinstance(e.pencil_root, tuple):
                seen += 1
                assert (e.rank_at_root, e.kernel, e.split_disc) == \
                    oracle_rational_member(V, *e.pencil_root)
    assert seen == 1 + 5 + 3


def test_split_and_assemble_match_fraction_oracle():
    rng = random.Random(12)
    for kind in ("odd", "rational"):
        for _ in range(5):
            q = QuadForm.from_poly_coeffs(4, FORM_KINDS[kind](rng, 4))
            l = LinForm([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
                         for _ in range(4)])
            for sign in (1, -1):
                big = _assemble_quadric5(q, l, sign)
                g = [[q.gram[i, j] if i < 4 and j < 4 else Fraction(0)
                      for j in range(5)] for i in range(5)]
                for j in range(4):
                    g[j][4] = g[4][j] = sign * l.coeffs[j] / 2
                assert big.gram == Matrix.from_rows(g)
                back_q, back_l = _split_quadric5(big)
                assert back_q == q
                assert back_l.coeffs == tuple(sign * c for c in l.coeffs)


def test_blowup_matches_fraction_oracle(paper_dp4):
    rng = random.Random(21)
    cases = [(paper_dp4, ProjPoint([8, -13, 4, 2, -3]))]
    cases += [random_dp4_with_point(rng) for _ in range(6)]
    for V, P in cases:
        S = dp4_to_cubic(V, P)
        assert S.F.coeffs == oracle_blowup(V.Q0.gram, V.Q1.gram, P.coords)


def test_line_section_matches_fraction_oracle(paper_cubic):
    rng = random.Random(17)
    cubics = [paper_cubic.F]
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            e = [0, 0, 0, 0]
            for _ in range(3):
                e[rng.randrange(4)] += 1
            terms[tuple(e)] = Fraction(rng.randint(-40, 40),
                                       rng.choice((1, 2, 3, 9, 10)))
        cubics.append(CubicForm4(terms))
    lines = [paper_cubic.known_line]
    while len(lines) < 6:
        p = [rng.randint(-5, 5) for _ in range(4)]
        q = [rng.randint(-5, 5) for _ in range(4)]
        if rank(Matrix.from_rows([p, q])) == 2:
            lines.append(ProjLine.from_points(p, q))
    for F in cubics:
        for line in lines:
            assert line_section_cubic(F, line) == oracle_line_section(F, line)


def test_interpolate_matches_lagrange():
    rng = random.Random(19)
    for n in range(1, 8):
        for _ in range(10):
            ts = rng.sample([Fraction(a, b) for a in range(-12, 13)
                             for b in (1, 2, 5)], n)
            ts = list(dict.fromkeys(ts))
            vals = [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                             rng.randint(1, 40)) for _ in ts]
            assert UniPoly.interpolate(ts, vals) == oracle_interpolate(ts, vals)


def test_wrong_length_point_raises_precondition(paper_dp4):
    for point in ([1, 2, 3, 4], [1, 2, 3, 4, 5, 6]):
        with pytest.raises(PreconditionError, match="coordinates"):
            paper_dp4.Q0.evaluate(point)
