import random
from fractions import Fraction

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
