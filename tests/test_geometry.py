import random
from itertools import permutations, product

import pytest

from cubicdescent.descent import DP4Surface, run_strategy
from cubicdescent.errors import (DegenerateSurfaceError, LineNotOnSurfaceError,
                                 PointNotOnSurfaceError, PreconditionError)
from cubicdescent.forms import (CubicForm4, LinForm, ProjLine, ProjPoint,
                                QuadForm, contains_line, monomials_deg3,
                                restrict_to_hyperplane, signature)
from cubicdescent.geometry import (SHEARS, CubicSurface, _shear,
                                   _shear_terms, _size,
                                   _unimodular_point_move, cubic_to_dp4,
                                   dp4_to_cubic, greedy_reduce,
                                   roundtrip_check, tritangent_analysis,
                                   tritangent_square_product)
from cubicdescent.intfactor import squarefree_class
from cubicdescent.linalg import Matrix, det, inverse, rank
from cubicdescent.pointsearch import verify_point

from conftest import (PAPER_POINT, PAPER_Q0_COEFFS, PAPER_Q1_COEFFS,
                      random_cubic_with_line, random_dp4_with_point,
                      random_quadform)
from oracles import fraction_substitute
from test_forms import congruence_diagonal, form_of_rank


def test_cubic_to_dp4_trivial_decomposition():
    F = CubicForm4({(1, 2, 0, 0): 1, (0, 1, 2, 0): 1})   # x0*x1^2 + x1*x2^2
    v, q0, q1 = cubic_to_dp4(CubicSurface(F), LinForm([1, 0, 0, 0]),
                             LinForm([0, 1, 0, 0]))
    assert q0 == QuadForm.from_poly_coeffs(4, {(1, 1): 1})
    assert q1 == QuadForm.from_poly_coeffs(4, {(2, 2): 1})


def test_cubic_to_dp4_line_not_on_surface(fermat):
    with pytest.raises(LineNotOnSurfaceError):
        cubic_to_dp4(fermat, LinForm([1, 0, 0, 0]), LinForm([0, 1, 0, 0]))


def test_cubic_to_dp4_paper(paper_cubic):
    l0, l1 = paper_cubic.known_line.forms
    v, _, _ = cubic_to_dp4(paper_cubic, l0, l1)
    # the produced pencil must contain a rational point: the blow-down of
    # the line direction is visible at x4-weight; just check the pencil is
    # a genuine DP4 pencil with nonzero determinant
    assert not v.pencil_quintic().is_zero()


def test_dp4_to_cubic_simple():
    q0 = QuadForm.from_poly_coeffs(5, {(0, 4): 1, (1, 1): -1})
    q1 = QuadForm.from_poly_coeffs(5, {(2, 4): 1, (3, 3): -1})
    v = DP4Surface(q0, q1)
    s = dp4_to_cubic(v, ProjPoint([0, 0, 0, 0, 1]))
    # q0 = -x1^2, l0 = x0; q1 = -x3^2, l1 = x2: S = q0*l1 - q1*l0
    assert s.F == CubicForm4({(0, 2, 1, 0): -1, (1, 0, 0, 2): 1})
    assert contains_line(s.F, s.known_line)


def test_dp4_to_cubic_point_not_on_surface():
    v = DP4Surface(QuadForm.diagonal([1, 1, 1, 1, -1]),
                   QuadForm.diagonal([1, 2, 3, 4, -5]))
    with pytest.raises(PointNotOnSurfaceError):
        dp4_to_cubic(v, ProjPoint([1, 0, 0, 0, 0]))


def test_dp4_to_cubic_paper(paper_dp4):
    s = dp4_to_cubic(paper_dp4, ProjPoint(PAPER_POINT))
    assert s.known_line is not None
    assert contains_line(s.F, s.known_line)


def test_roundtrip_paper(paper_dp4):
    for point in PAPER_POINTS:
        assert roundtrip_check(paper_dp4, ProjPoint(point))


def test_point_move_is_unimodular_with_last_column_p():
    rng = random.Random(8)
    points = [PAPER_POINT, (0, 0, 0, 0, 1), (0, 0, 0, 0, -1), (1, 0, 0, 0, 0)]
    points += [[rng.randint(-40, 40) for _ in range(5)] for _ in range(30)]
    for coords in points:
        if not any(coords):
            continue
        p = ProjPoint(coords)
        c = _unimodular_point_move(p)
        assert c.column(4) == p.coords
        assert abs(det(c)) == 1
        assert c.den == 1


def test_roundtrip_random():
    rng = random.Random(41)
    done = 0
    while done < 20:
        v, p = random_dp4_with_point(rng)
        try:
            assert roundtrip_check(v, p)
        except DegenerateSurfaceError:
            continue
        done += 1


def test_roundtrip_error_path():
    v = DP4Surface(QuadForm.diagonal([1, 1, 1, 1, -1]),
                   QuadForm.diagonal([1, 2, 3, 4, -5]))
    with pytest.raises(PointNotOnSurfaceError):
        roundtrip_check(v, ProjPoint([1, 1, 1, 1, 1]))


def test_fact_and_corollary_restated():
    # Q0 = q0 + l1*x4 restricts along l1; Q1 = q1 - l0*x4 along l0: the
    # 5-variable form gains inertia (1, 1, 0) over the 3-variable
    # restriction of its quadratic part to the plane cut by its own
    # x4-coefficient form
    rng = random.Random(19)
    done = 0
    while done < 15:
        F, l0, l1 = random_cubic_with_line(rng)
        try:
            v, q0, q1 = cubic_to_dp4(CubicSurface(F), l0, l1)
        except Exception:
            continue
        for big, small, cut in ((v.Q0, q0, l1), (v.Q1, q1, l0)):
            r3, _ = restrict_to_hyperplane(small, cut)
            p, n, z = signature(r3)
            assert signature(big) == (p + 1, n + 1, z)
            assert rank(big.gram) == rank(r3.gram) + 2
            assert (rank(big.gram) < 5) == (rank(r3.gram) < 3)
        done += 1


def test_tritangent_diagonal():
    v = DP4Surface(QuadForm.diagonal([1, 1, 1, 1, 1]),
                   QuadForm.diagonal([0, 1, 2, 3, 4]))
    entries = tritangent_analysis(v)
    got = {e.pencil_root: e.split_disc for e in entries}
    assert got == {(0, 1): 6, (-1, 1): -6, (-2, 1): 1, (-3, 1): -6, (-4, 1): 6}
    assert all(e.rank_at_root == 4 for e in entries)
    assert tritangent_square_product(entries) == 1


def test_tritangent_paper_strategy(paper_p):
    v, _ = run_strategy(paper_p)
    entries = tritangent_analysis(v)
    degs = sorted(e.pencil_root.degree if not isinstance(e.pencil_root, tuple)
                  else 1 for e in entries)
    assert degs == [1, 2, 2]          # matches the factorization of p
    rational = [e for e in entries if isinstance(e.pencil_root, tuple)]
    assert rational[0].pencil_root == (2, 1)
    assert rational[0].rank_at_root == 4
    assert rational[0].split_disc == 2
    norm_classes = sorted(e.norm_class for e in entries
                          if not isinstance(e.pencil_root, tuple))
    assert norm_classes == [3, 6]     # the published norm conditions
    assert tritangent_square_product(entries) == 1


def _oracle_split_disc(V, entry):
    """Square class of the product of the nonzero diagonal entries of the
    LDL^T oracle on the degenerate member, for a member of rank 4."""
    lam, mu = entry.pencil_root
    m = V.Q0.gram.scale(lam) + V.Q1.gram.scale(mu)
    if rank(m) != 4:
        return None
    prod = 1
    for d in congruence_diagonal(QuadForm(m)):
        if d:
            prod *= d
    return squarefree_class(prod)


def test_split_disc_matches_congruence_oracle(paper_dp4, paper_p):
    # split_disc is read off a principal 4 x 4 minor: the LDL^T oracle
    # gives the same square class on every rational member, the
    # published pair, its descent and seeded pairs with members of rank 4
    # and 3
    pairs = [paper_dp4, run_strategy(paper_p)[0],
             DP4Surface(QuadForm.diagonal([1, 1, 1, 1, 1]),
                        QuadForm.diagonal([0, 0, 2, 3, 4]))]
    rng = random.Random(12)
    for r in (4, 4, 4, 4, 4, 4, 3, 3):
        # (0 : 1) is a member of rank r
        pairs.append(DP4Surface(random_quadform(rng, 5, 3),
                                form_of_rank(rng, 5, r)))
    seen = 0
    for v in pairs:
        for e in tritangent_analysis(v):
            if isinstance(e.pencil_root, tuple):
                seen += 1
                assert e.split_disc == _oracle_split_disc(v, e)
                assert (e.kernel is not None) == (e.rank_at_root == 4)
    assert seen >= 14


def test_tritangent_planes_in_cubic_coordinates(paper_cubic):
    l0, l1 = paper_cubic.known_line.forms
    v, _, _ = cubic_to_dp4(paper_cubic, l0, l1)
    entries = tritangent_analysis(v)
    for e in entries:
        if not isinstance(e.pencil_root, tuple):
            continue
        assert e.plane is not None
        # the plane contains the line
        for pt in paper_cubic.known_line.points:
            assert e.plane.evaluate(pt.coords) == 0
        # rank 4 members of a smooth pencil
        assert e.rank_at_root == 4
    assert tritangent_square_product(entries) == 1


def test_greedy_reduce_fermat_fixed(fermat):
    s = greedy_reduce(CubicSurface(fermat))
    assert s.F == fermat


def test_greedy_reduce_recovers_small_model(fermat):
    rng = random.Random(3)
    change = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0],
                               [0, 1, 1, 0], [1, 0, 0, 1]])
    scrambled = fermat.substitute(change)
    assert scrambled.max_abs_coeff() > fermat.max_abs_coeff()
    s = greedy_reduce(CubicSurface(scrambled))
    assert s.F.max_abs_coeff() <= scrambled.max_abs_coeff()
    # change matrix reproduces the input exactly
    back = s.F.substitute(inverse(s.provenance["change"]))
    _, bi = back.primitive_coeffs()
    _, si = scrambled.primitive_coeffs()
    assert bi == si


def test_greedy_reduce_paper_blowup(paper_dp4):
    raw = dp4_to_cubic(paper_dp4, ProjPoint(PAPER_POINT))
    reduced = greedy_reduce(raw)
    assert reduced.F.max_abs_coeff() <= raw.F.max_abs_coeff()
    assert reduced.known_line is not None
    assert contains_line(reduced.F, reduced.known_line)


def _objective(F: CubicForm4):
    """greedy_reduce's objective on the primitive integer coefficients."""
    _, ints = F.primitive_coeffs()
    return _size(ints.values())


def test_signed_permutations_keep_the_objective():
    # why greedy_reduce has no permutation or sign-flip moves: they only
    # permute the coefficients and flip their signs, so they can never
    # strictly lower the objective
    rng = random.Random(19)
    moves = [Matrix.from_rows([[s[i] if perm[i] == j else 0 for j in range(4)]
                               for i in range(4)])
             for perm in permutations(range(4))
             for s in product((1, -1), repeat=4)]
    for _ in range(3):
        F = CubicForm4({e: rng.randint(-30, 30) for e in monomials_deg3()})
        assert all(_objective(F.substitute(g)) == _objective(F) for g in moves)


# the points of the published pair of height <= 42
PAPER_POINTS = ((2, -15, -14, -6, 3), PAPER_POINT, (19, 13, 23, 7, -15))


def _oracle_generators():
    """The reducer's moves as matrices, in scan order: the identity plus
    s = +-1 at the off-diagonal entry (i, j)."""
    gens = []
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            for s in (1, -1):
                rows = [[int(a == b) for b in range(4)] for a in range(4)]
                rows[i][j] = s
                gens.append(Matrix.from_rows(rows))
    return gens


def _oracle_greedy_reduce(S):
    """greedy_reduce's hill-climb with every move a Fraction substitution
    (oracles.fraction_substitute): (F, change, line)."""
    _, ints = S.F.primitive_coeffs()
    current = CubicForm4(ints)
    total = Matrix.identity(4)
    best = _objective(current)
    improved = True
    while improved:
        improved = False
        for g in _oracle_generators():
            cand = fraction_substitute(current, g)
            val = _objective(cand)
            if val < best:
                _, ci = cand.primitive_coeffs()
                current = CubicForm4(ci)
                total = total @ g
                best = val
                improved = True
                break
    uinv = inverse(total)
    p, q = S.known_line.points
    line = ProjLine.from_points(ProjPoint(uinv.mul_vec(p.coords)),
                                ProjPoint(uinv.mul_vec(q.coords)))
    return current, total, line


def _assert_matches_oracle(S):
    reduced = greedy_reduce(S)
    F, change, line = _oracle_greedy_reduce(S)
    assert reduced.F == F
    assert reduced.provenance["change"] == change
    assert [p.coords for p in reduced.known_line.points] \
        == [p.coords for p in line.points]


def test_integer_shears_match_substitute():
    gens = _oracle_generators()
    # SHEARS lists the oracle's moves in the oracle's scan order
    assert list(SHEARS) == [(i, j, g[i, j]) for g in gens
                            for i in range(4) for j in range(4)
                            if i != j and g[i, j]]
    rng = random.Random(41)
    monos = monomials_deg3()
    for _ in range(5):
        vec = [rng.choice((0, rng.randint(-10 ** 6, 10 ** 6))) for _ in monos]
        F = CubicForm4(dict(zip(monos, vec)))
        for terms, g in zip(_shear_terms(), gens):
            assert CubicForm4(dict(zip(monos, _shear(vec, terms)))) \
                == fraction_substitute(F, g)


@pytest.mark.parametrize("point", PAPER_POINTS)
def test_greedy_reduce_matches_oracle_on_paper_points(point):
    # the published pair and the point under every change of the signs
    # of x1, ..., x4
    for signs in product((1, -1), repeat=4):
        s = (1,) + signs
        V = DP4Surface(*(QuadForm.from_poly_coeffs(
            5, {(i, j): c * s[i] * s[j] for (i, j), c in cs.items()})
            for cs in (PAPER_Q0_COEFFS, PAPER_Q1_COEFFS)))
        P = ProjPoint([a * b for a, b in zip(s, point)])
        _assert_matches_oracle(dp4_to_cubic(V, P))


def test_greedy_reduce_matches_oracle_on_planted_pairs():
    rng = random.Random(77)
    done = 0
    while done < 20:
        V, P = random_dp4_with_point(rng)
        try:
            S = dp4_to_cubic(V, P)
        except DegenerateSurfaceError:
            continue
        _assert_matches_oracle(S)
        done += 1


@pytest.mark.parametrize("caller", [dp4_to_cubic, roundtrip_check,
                                    verify_point])
def test_wrong_length_point_is_a_precondition_error(caller, paper_dp4):
    # a point of P^3 on a pair in P^4 is a library error (exit 3), not a
    # shape mismatch inside the linear algebra
    with pytest.raises(PreconditionError, match="4 coordinates"):
        caller(paper_dp4, ProjPoint([1, 2, 3, 4]))
