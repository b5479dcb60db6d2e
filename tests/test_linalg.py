import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from cubicdescent.errors import NonSquareMatrixError, SingularMatrixError
from cubicdescent.linalg import (Matrix, charpoly, column_ranks_mod_p, det,
                                 inverse, nullspace, rank, solve_linear)
from cubicdescent.unipoly import UniPoly

from conftest import PAPER_Q0_COEFFS


def _minors_det(m: Matrix) -> Fraction:
    # independent oracle: recursive expansion by the first row
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        if m[0, j] == 0:
            continue
        sub = Matrix.from_rows([[m[i, k] for k in range(n) if k != j]
                                for i in range(1, n)])
        total += (-1) ** j * m[0, j] * _minors_det(sub)
    return total


def test_det_identity():
    assert det(Matrix.identity(5)) == 1


def test_det_diagonal():
    assert det(Matrix.diagonal([-1, 1, 2, 3, 4])) == -24


def test_det_paper_gram_regression():
    from cubicdescent.forms import QuadForm

    g = QuadForm.from_poly_coeffs(5, PAPER_Q0_COEFFS).gram
    d = det(g)
    assert d == -537930072          # frozen; matches the minors oracle
    assert d == _minors_det(g)
    assert d != 0


def test_det_non_square():
    with pytest.raises(NonSquareMatrixError):
        det(Matrix.zero(2, 3))


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(25):
        a = Matrix(4, 4, [rng.randint(-5, 5) for _ in range(16)])
        b = Matrix(4, 4, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(16)])
        assert det(a @ b) == det(a) * det(b)


def test_rank_zero_and_diag():
    assert rank(Matrix.zero(3, 3)) == 0
    assert rank(Matrix.diagonal([1, 1, 0])) == 2


def test_rank_restricted_pencil_member():
    # diagonal pencil a = (1,...,1), b = (0,1,2,3,4); member at (0 : 1)
    # is diag(b), of rank 4
    member = Matrix.diagonal([0, 1, 2, 3, 4])
    assert rank(member) == 4


def test_charpoly_identity2():
    assert charpoly(Matrix.identity(2)) == UniPoly([1, -2, 1])


def test_charpoly_companion():
    p = UniPoly([-900, 1134, -288, -51, 10, 1])
    n = p.degree
    comp = Matrix.from_rows(
        [[Fraction(0)] * (n - 1) + [-p[0]] if i == 0 else
         [Fraction(int(j == i - 1)) for j in range(n - 1)] + [-p[i]]
         for i in range(n)])
    assert charpoly(comp) == p


def test_charpoly_diag():
    assert charpoly(Matrix.diagonal([2, 3])) == UniPoly([6, -5, 1])


def test_solve_consistent_and_not():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert solve_linear(m, [3, 6]) == [3, 0]      # free variable set to 0
    assert solve_linear(m, [3, 7]) is None


def test_solve_underdetermined_deterministic():
    m = Matrix.from_rows([[1, 1, 1]])
    assert solve_linear(m, [5]) == [5, 0, 0]


def test_solve_random_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        m = Matrix(3, 3, [rng.randint(-4, 4) for _ in range(9)])
        x = [rng.randint(-3, 3) for _ in range(3)]
        rhs = m.mul_vec(x)
        sol = solve_linear(m, rhs)
        assert sol is not None
        assert list(m.mul_vec(sol)) == list(rhs)


def test_nullspace_and_inverse():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    (v,) = nullspace(m)
    assert m.mul_vec(v) == (0, 0)
    with pytest.raises(SingularMatrixError):
        inverse(m)
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert a @ inverse(a) == Matrix.identity(2)


def _rank_mod_p(rows, p):
    """The rank over F_p of integer rows: column_ranks_mod_p on a batch
    of one, reduced mod p in Python integers first."""
    residues = np.array([[[x % p for x in row] for row in rows]],
                        dtype=np.int64)
    return int(column_ranks_mod_p(residues, [p])[0, -1])


def test_rank_mod_p_examples():
    assert _rank_mod_p([[0, 0], [0, 0]], 7) == 0
    assert _rank_mod_p([[1, 2], [2, 4]], 7) == 1
    assert _rank_mod_p([[1, 0], [0, 5]], 5) == 1
    assert _rank_mod_p([[1, 0], [0, 5]], 7) == 2
    assert _rank_mod_p([[0, 3, 1], [0, 6, 2], [4, 0, -1]], 11) == 2


def test_rank_mod_p_matches_exact_rank():
    # entries in [-3, 3] and at most 6 rows: every minor is below
    # (3 * sqrt(6))^6 < 2^31 - 1 by Hadamard, so the ranks agree
    rng = random.Random(17)
    for trial in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        if trial % 2:
            rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        else:
            # a product through k <= 3 dimensions: rank at most k
            k = rng.randint(1, 3)
            a = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(n)]
            b = [[rng.randint(0, 1) for _ in range(m)] for _ in range(k)]
            rows = [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)]
                    for r in a]
        assert _rank_mod_p(rows, 2_147_483_647) == rank(Matrix.from_rows(rows))


def test_rank_mod_p_int64_boundary():
    # every residue p - 1 at the largest admitted prime: each product in
    # the elimination is (p - 1)^2 < 2^62
    from cubicdescent.ideals import MACAULAY_PRIME

    p = MACAULAY_PRIME
    assert (p - 1) ** 2 < 2 ** 62 and p < 2 ** 31
    assert _rank_mod_p([[p - 1] * 56] * 80, p) == 1
    rng = random.Random(2)
    for trial in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        signs = [[rng.choice((1, -1)) for _ in range(m)] for _ in range(n)]
        # -1 and p - 1 are the same residue; the exact rank of the sign
        # matrix is the rank mod p, since its minors are below 6! < p
        rows = [[p - 1 if s < 0 else 1 for s in r] for r in signs]
        assert _rank_mod_p(rows, p) == rank(Matrix.from_rows(signs))
    with pytest.raises(ValueError):
        _rank_mod_p([[1]], 2 ** 31 + 11)


def test_inverse_matches_column_solves():
    # one elimination of [m | I] gives the columns that n separate solves
    # of m x = e_j give; a singular m raises, whatever its rank
    rng = random.Random(13)
    for n in (1, 2, 3, 4, 5):
        for _ in range(12):
            m = Matrix(n, n, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(n * n)])
            if rank(m) < n:
                with pytest.raises(SingularMatrixError):
                    inverse(m)
                continue
            cols = [solve_linear(m, [int(i == j) for i in range(n)])
                    for j in range(n)]
            inv = inverse(m)
            assert inv == Matrix(n, n, [cols[j][i] for i in range(n)
                                        for j in range(n)])
            assert m @ inv == Matrix.identity(n)
    for rows in ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], [[0, 0], [0, 0]],
                 [[1, 1, 0], [1, 1, 0], [0, 0, 0]]):
        with pytest.raises(SingularMatrixError):
            inverse(Matrix.from_rows(rows))
    assert inverse(Matrix(0, 0, [])) == Matrix(0, 0, [])


# -- the integer Matrix against the Fraction kernels it replaced ----------

SHAPES = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
          (2, 5), (1, 4), (3, 6), (5, 2), (4, 1), (6, 3), (0, 3), (3, 0)]


def _entries(rng, n, m, kind):
    """n * m row-major rationals: small, big (10^12 / 10^9), sparse, or
    of rank below min(n, m) (a product through fewer dimensions)."""
    if kind == "big":
        return [Fraction(rng.randint(-10 ** 12, 10 ** 12),
                         rng.randint(1, 10 ** 9)) for _ in range(n * m)]
    if kind == "sparse":
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if rng.random() < 0.3 else 0 for _ in range(n * m)]
    if kind == "singular" and min(n, m) > 1:
        k = rng.randint(0, min(n, m) - 1)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        b = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(m)] for _ in range(k)]
        return [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
                for i in range(n) for j in range(m)]
    return [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
            for _ in range(n * m)]


def _rows(entries, n, m):
    return [entries[i * m:(i + 1) * m] for i in range(n)]


@pytest.mark.parametrize("kind", ["small", "big", "sparse", "singular"])
@pytest.mark.parametrize("seed", range(3))
def test_elimination_matches_fraction_oracles(kind, seed):
    from oracles import (faddeev_leverrier, fraction_det, fraction_echelon,
                         fraction_inverse, fraction_nullspace, fraction_solve)

    rng = random.Random(1000 * seed + len(kind))
    for n, m in SHAPES:
        entries = _entries(rng, n, m, kind)
        rows = _rows(entries, n, m)
        a = Matrix(n, m, entries)
        assert rank(a) == len(fraction_echelon(rows)[1])
        assert nullspace(a) == fraction_nullspace(rows, m)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
        for rhs in (list(a.mul_vec(x)),
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                     for _ in range(n)]):
            assert solve_linear(a, rhs) == fraction_solve(rows, rhs, m)
        if n != m:
            for fn in (det, charpoly, inverse):
                with pytest.raises(NonSquareMatrixError):
                    fn(a)
            continue
        assert det(a) == fraction_det(rows)
        assert charpoly(a) == faddeev_leverrier(rows)
        expected = fraction_inverse(rows)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                inverse(a)
        else:
            assert inverse(a) == Matrix.from_rows(expected)


@pytest.mark.parametrize("seed", range(4))
def test_matrix_operations_match_fraction_lists(seed):
    rng = random.Random(seed)
    for kind in ("small", "big", "sparse"):
        for n, m in SHAPES:
            ea, eb = _entries(rng, n, m, kind), _entries(rng, n, m, kind)
            a, b = Matrix(n, m, ea), Matrix(n, m, eb)
            if n:
                assert Matrix.from_rows(_rows(eb, n, m)) == b
            assert (a.rows, a.cols) == (n, m)
            assert a.den > 0 and gcd(a.den, *a.num) == 1
            assert [a[i, j] for i in range(n) for j in range(m)] == ea
            assert all(isinstance(a[i, j], Fraction)
                       for i in range(n) for j in range(m))
            assert [a.row(i) for i in range(n)] == [
                tuple(r) for r in _rows(ea, n, m)]
            assert [a.column(j) for j in range(m)] == [
                tuple(ea[i * m + j] for i in range(n)) for j in range(m)]
            assert a + b == Matrix(n, m, [x + y for x, y in zip(ea, eb)])
            assert a - b == Matrix(n, m, [x - y for x, y in zip(ea, eb)])
            assert -a == Matrix(n, m, [-x for x in ea])
            c = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            assert a.scale(c) == Matrix(n, m, [c * x for x in ea])
            t = a.transpose()
            assert t == Matrix(m, n, [ea[i * m + j] for j in range(m)
                                      for i in range(n)])
            assert t.transpose() == a
            k = rng.randint(0, 3)
            ec = _entries(rng, m, k, kind)
            prod_ = [sum((ea[i * m + t] * ec[t * k + j] for t in range(m)),
                         Fraction(0)) for i in range(n) for j in range(k)]
            assert a @ Matrix(m, k, ec) == Matrix(n, k, prod_)
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(m)]
            assert a.mul_vec(v) == tuple(
                sum((ea[i * m + j] * v[j] for j in range(m)), Fraction(0))
                for i in range(n))
            same = Matrix(n, m, [Fraction(x) for x in ea])
            assert a == same and hash(a) == hash(same)
            if n == m:
                assert a.trace() == sum((ea[i * m + i] for i in range(n)),
                                        Fraction(0))
                assert a.is_symmetric() == all(
                    ea[i * m + j] == ea[j * m + i]
                    for i in range(n) for j in range(n))
                assert (a + t).is_symmetric()
            else:
                assert not a.is_symmetric()
                with pytest.raises(NonSquareMatrixError):
                    a.trace()
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    assert Matrix.identity(3) == Matrix.diagonal([1, 1, 1])
    assert Matrix.zero(2, 3) == Matrix(2, 3, [Fraction(0)] * 6)
    assert Matrix.diagonal([Fraction(1, 2), 3]) == Matrix.from_rows(
        [[Fraction(1, 2), 0], [0, 3]])
    half = Matrix.from_rows([[Fraction(1, 2), Fraction(3, 4)]])
    assert (half.num, half.den) == ((2, 3), 4)
    assert Matrix(1, 2, [2, 6]).scale(Fraction(1, 2)).den == 1


@pytest.mark.parametrize("seed", range(4))
def test_signature_matches_congruence_oracle(seed):
    from cubicdescent.forms import QuadForm, signature
    from oracles import congruence_signature

    rng = random.Random(seed)
    for n in (3, 4, 5):
        for kind in ("small", "big", "sparse", "singular"):
            e = _entries(rng, n, n, kind)
            sym = [e[i * n + j] + e[j * n + i] for i in range(n) for j in range(n)]
            q = QuadForm(Matrix(n, n, sym))
            assert signature(q) == congruence_signature(_rows(sym, n, n))
    # the zero-diagonal pairing step of the oracle, and a zero form
    assert signature(QuadForm(Matrix.from_rows(
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]]))) == (1, 1, 1)
    assert signature(QuadForm(Matrix.zero(4, 4))) == (0, 0, 4)
