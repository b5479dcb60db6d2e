"""The F_p kernels (point counts, singular points, line census) against
plain Python loops over P^n(F_p) and over every line of P^3(F_p)."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cubicdescent.descent import DP4Surface
from cubicdescent.errors import BadPrimeError, BudgetExceededError
from cubicdescent.forms import (CubicForm4, ProjLine, ProjPoint, QuadForm,
                                line_section_cubic)
from cubicdescent.frobenius import (_residues, census_lines,
                                    count_points_cubic, count_points_dp4,
                                    reduce_cubic_mod_p, reduce_dp4_mod_p,
                                    singular_points_mod_p)
from cubicdescent.intfactor import primes_up_to

from conftest import (PAPER_CUBIC_COEFFS, PAPER_Q0_COEFFS, PAPER_Q1_COEFFS,
                      random_cubic_with_line, random_quadform)

FERMAT = CubicForm4({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1,
                     (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
CONE = CubicForm4({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1})
NODE = CubicForm4({(1, 0, 2, 0): 1, (0, 1, 0, 2): 1, (1, 1, 1, 0): 1})


def _cubics():
    rng = random.Random(31)
    out = {"paper": CubicForm4(PAPER_CUBIC_COEFFS), "fermat": FERMAT,
           "cone": CONE, "node": NODE}
    for k in range(4):
        out[f"line{k}"] = random_cubic_with_line(rng)[0]
    return out


def _pair_through(rng, point):
    """Two integer quadrics through point (point[0] = 1), by shifting the
    x0^2 coefficient of each."""
    quads = []
    for _ in range(2):
        coeffs = {(i, j): rng.randint(-4, 4)
                  for i in range(5) for j in range(i, 5)}
        coeffs[0, 0] -= QuadForm.from_poly_coeffs(5, coeffs).evaluate(point)
        quads.append(QuadForm.from_poly_coeffs(5, coeffs))
    return DP4Surface(*quads)


def _pairs():
    rng = random.Random(32)
    out = [DP4Surface(QuadForm.from_poly_coeffs(5, PAPER_Q0_COEFFS),
                      QuadForm.from_poly_coeffs(5, PAPER_Q1_COEFFS))]
    for _ in range(3):
        out.append(_pair_through(
            rng, (1,) + tuple(rng.randint(-3, 3) for _ in range(4))))
    out.append(DP4Surface(random_quadform(rng), random_quadform(rng)))
    return out


def _sparse_pairs():
    """Seeded pairs whose forms lack some variables: Q0 has no x_k and Q1
    no x_(k+1), for two values of k."""
    rng = random.Random(33)
    out = []
    for k in (0, 3):
        quads = []
        for lack in (k, k + 1):
            quads.append(QuadForm.from_poly_coeffs(5, {
                (i, j): rng.randint(-6, 6) for i in range(5)
                for j in range(i, 5) if lack not in (i, j)}))
        out.append(DP4Surface(*quads))
    return out


CUBICS = _cubics()
PAIRS = _pairs()
SPARSE_PAIRS = _sparse_pairs()


def _mod(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _projective_points(n, p):
    """Every point of P^(n-1)(F_p): nonzero vectors whose first nonzero
    coordinate is 1."""
    for v in product(range(p), repeat=n):
        nonzero = [c for c in v if c]
        if nonzero and nonzero[0] == 1:
            yield v


def _echelon_lines(p):
    """Every line of P^3(F_p) as the two rows of its reduced echelon
    matrix: pivots i < j, zeros left of each pivot, and row v zero at j."""
    for i in range(4):
        for j in range(i + 1, 4):
            for tail_u in product(range(p), repeat=3 - j):
                u = (0,) * j + (1,) + tail_u
                for tail_v in product(range(p), repeat=2 - i):
                    v = list((0,) * i + (1,) + tail_v)
                    v.insert(j, 0)
                    yield u, tuple(v)


# the Fraction oracle takes about 3 s per cubic at p = 7
CENSUS_CASES = ([(name, p) for p in (3, 5) for name in CUBICS]
                + [(name, 7) for name in ("paper", "fermat", "node", "line0")])


@pytest.mark.parametrize("name, p", CENSUS_CASES)
def test_census_against_line_sections(name, p):
    reduced = CubicForm4(reduce_cubic_mod_p(CUBICS[name], p))
    lines = list(_echelon_lines(p))
    assert len(lines) == (p * p + 1) * (p * p + p + 1)
    expected = sum(
        all(_mod(c, p) == 0 for c in line_section_cubic(
            reduced, ProjLine.from_points(ProjPoint(u), ProjPoint(v))))
        for u, v in lines)
    assert census_lines(CUBICS[name], p) == expected


def test_census_lines_needs_odd_p():
    for F in CUBICS.values():
        with pytest.raises(BadPrimeError):
            census_lines(F, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", list(CUBICS))
def test_cubic_counts_and_singular_points(name, p):
    F = CUBICS[name]
    points = zeros = singular = 0
    for x in _projective_points(4, p):
        points += 1
        if _mod(F.evaluate(x), p):
            continue
        zeros += 1
        singular += all(_mod(g, p) == 0 for g in F.gradient(x))
    assert points == p ** 3 + p ** 2 + p + 1
    assert count_points_cubic(F, p) == zeros
    assert singular_points_mod_p(F, p) == singular


def test_singular_points_examples():
    assert singular_points_mod_p(CONE, 5) == 1              # the vertex
    assert singular_points_mod_p(NODE, 7) >= 1              # (0:0:0:1)
    assert singular_points_mod_p(FERMAT, 5) == 0
    # mod 3 every partial of the Fermat cubic vanishes identically
    assert singular_points_mod_p(FERMAT, 3) == count_points_cubic(FERMAT, 3)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_dp4_counts(k, p):
    V = PAIRS[k]
    expected = sum(_mod(V.Q0.evaluate(x), p) == 0
                   and _mod(V.Q1.evaluate(x), p) == 0
                   for x in _projective_points(5, p))
    assert count_points_dp4(V, p) == expected


def test_dp4_count_needs_odd_p():
    for V in PAIRS:
        with pytest.raises(BadPrimeError):
            count_points_dp4(V, 2)


def _cubic_cost(p):
    return (p ** 3 + p ** 2 + p + 1) * 20


def _dp4_cost(p):
    return (p ** 4 + p ** 3 + p ** 2 + p + 1) * 30


def _census_cost(p):
    return (p * p + 1) * (p * p + p + 1) * 30


@pytest.mark.parametrize("kernel, cost, surface", [
    (count_points_cubic, _cubic_cost, CUBICS["paper"]),
    (census_lines, _census_cost, CUBICS["paper"]),
    (count_points_dp4, _dp4_cost, PAIRS[0]),
])
def test_budget_boundaries(kernel, cost, surface):
    # a budget of exactly cost(p) admits p and rejects the next prime
    for below, first in ((3, 5), (5, 7)):
        budget = cost(below)
        kernel(surface, below, budget)
        with pytest.raises(BudgetExceededError):
            kernel(surface, below, budget - 1)
        with pytest.raises(BudgetExceededError):
            kernel(surface, first, budget)


def test_default_budget_first_rejected_prime():
    # the enumeration would be too large: the check runs before any work
    with pytest.raises(BudgetExceededError):
        count_points_cubic(FERMAT, 173)
    assert _cubic_cost(167) <= 10 ** 8 < _cubic_cost(173)
    with pytest.raises(BudgetExceededError):
        census_lines(FERMAT, 43)
    assert _census_cost(41) <= 10 ** 8 < _census_cost(43)
    with pytest.raises(BudgetExceededError):
        count_points_dp4(PAIRS[0], 43)
    assert _dp4_cost(41) <= 10 ** 8 < _dp4_cost(43)


def test_singular_points_budget(monkeypatch):
    # the P^3 budget of count_points_cubic, checked before any chart
    # array is built: 173 is the first prime over it, 167 passes
    from cubicdescent import frobenius

    def no_charts(n, p):
        raise AssertionError(f"charts built at p={p}")

    monkeypatch.setattr(frobenius, "_charts", no_charts)
    with pytest.raises(BudgetExceededError):
        singular_points_mod_p(FERMAT, 173)
    with pytest.raises(AssertionError, match="p=167"):
        singular_points_mod_p(FERMAT, 167)


def _flat_charts(n, p):
    """Every point of P^(n-1)(F_p), chart by chart, as n flattened int64
    coordinate arrays: zeros before the lead, 1 at it, every residue
    after it."""
    for lead in range(n):
        free = np.indices((p,) * (n - 1 - lead), dtype=np.int64)
        size = p ** (n - 1 - lead)
        yield ([np.zeros(size, dtype=np.int64)] * lead
               + [np.ones(size, dtype=np.int64)]
               + list(free.reshape(n - 1 - lead, size)))


def _eval_per_monomial(coeffs, x, p):
    """Values mod p of the residue map {exponent: c} at the points x,
    monomial by monomial, each product reduced mod p."""
    acc = 0
    for e, c in coeffs.items():
        term = c
        for xi, k in zip(x, e):
            for _ in range(k):
                term = term * xi % p
        acc = acc + term
    return acc % p


def _count_zeros_per_monomial(forms, n, p):
    """Oracle: every monomial of every residue map evaluated pointwise on
    the flattened charts of P^(n-1)(F_p)."""
    count = 0
    for x in _flat_charts(n, p):
        zero = np.ones(x[0].shape, dtype=bool)
        for f in forms:
            zero &= _eval_per_monomial(f, x, p) == 0
        count += int(np.count_nonzero(zero))
    return count


@pytest.mark.parametrize("p", primes_up_to(31))
@pytest.mark.parametrize("name", list(CUBICS))
def test_cubic_kernels_against_per_monomial(name, p):
    F = CUBICS[name]
    coeffs = reduce_cubic_mod_p(F, p)
    partials = [_residues(d, F.den, p) for d in F._partials()]
    assert count_points_cubic(F, p) == _count_zeros_per_monomial(
        [coeffs], 4, p)
    assert singular_points_mod_p(F, p) == _count_zeros_per_monomial(
        [coeffs] + partials, 4, p)


@pytest.mark.parametrize("p", primes_up_to(31)[1:])
@pytest.mark.parametrize("k", range(len(SPARSE_PAIRS) + 1))
def test_dp4_count_against_per_monomial(k, p):
    V = (PAIRS[:1] + SPARSE_PAIRS)[k]
    assert count_points_dp4(V, p) == _count_zeros_per_monomial(
        reduce_dp4_mod_p(V, p), 5, p)


def _square_sum(rng, rank, bound=3):
    """Coefficients of sum c_k * l_k(x)^2 over rank random linear forms
    l_k in 5 variables: a quadric of rank at most rank."""
    coeffs = {(i, j): 0 for i in range(5) for j in range(i, 5)}
    for _ in range(rank):
        c = rng.choice((-2, -1, 1, 3))
        l = [rng.randint(-bound, bound) for _ in range(5)]
        for i, j in coeffs:
            coeffs[i, j] += c * l[i] * l[j] * (1 if i == j else 2)
    return coeffs


def _pencil_pairs():
    """100 seeded pairs: 40 of random coefficients, 50 of two quadrics of
    ranks 1 to 4, and 10 that are bad at some small prime (a denominator
    of 5 or 7, a quadric that is 3 or 7 times an integer form, or a Q1
    that is Q0 plus 5 or 11 times an integer form)."""
    rng = random.Random(34)
    pairs = []
    for _ in range(40):
        pairs.append((_random_coeffs(rng), _random_coeffs(rng)))
    for k in range(50):
        pairs.append((_square_sum(rng, 1 + k % 4),
                      _square_sum(rng, 1 + k // 4 % 4)))
    for k in range(10):
        q0, q1 = _random_coeffs(rng), _random_coeffs(rng)
        m = (5, 7, 3, 7, 5, 11)[k % 6]
        if k % 3 == 0:
            q1 = {e: Fraction(c, m) for e, c in q1.items()}
        elif k % 3 == 1:
            q0 = {e: m * c for e, c in q0.items()}
        else:
            q1 = {e: c + m * rng.randint(-1, 1) for e, c in q0.items()}
        pairs.append((q0, q1))
    return [DP4Surface(QuadForm.from_poly_coeffs(5, q0),
                       QuadForm.from_poly_coeffs(5, q1)) for q0, q1 in pairs]


def _random_coeffs(rng):
    return {(i, j): rng.randint(-4, 4) for i in range(5) for j in range(i, 5)}


PENCIL_PAIRS = _pencil_pairs()


def _member_ranks(V, p):
    """The ranks mod p of the p + 1 members of the reduced pencil, from
    twice their Gram matrices (the polar forms) by column_ranks_mod_p."""
    from cubicdescent.linalg import column_ranks_mod_p

    polars = []
    for coeffs in reduce_dp4_mod_p(V, p):
        m = np.zeros((5, 5), dtype=np.int64)
        for e, c in coeffs.items():
            i, j = (k for k in range(5) for _ in range(e[k]))
            m[i, j] = m[j, i] = 2 * c % p if i == j else c
        polars.append(m)
    members = [polars[0]] + [(t * polars[0] + polars[1]) % p
                             for t in range(p)]
    return set(column_ranks_mod_p(np.stack(members), [p] * (p + 1))[:, -1])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_pencil_count_against_enumeration(p):
    """The count from the pencil equals the P^4 enumeration on every pair,
    and raises the same BadPrimeError where the reduction does."""
    ranks, bad = set(), 0
    for V in PENCIL_PAIRS:
        try:
            forms = reduce_dp4_mod_p(V, p)
        except BadPrimeError as err:
            bad += 1
            with pytest.raises(BadPrimeError, match=f"^{err}$"):
                count_points_dp4(V, p)
            continue
        assert count_points_dp4(V, p) == _count_zeros_per_monomial(
            forms, 5, p)
        ranks |= _member_ranks(V, p)
    assert ranks >= {1, 2, 3, 4, 5}
    # the bad pairs are bad at 3, 5, 7 and 11
    assert bad or p == 13
