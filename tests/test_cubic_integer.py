"""CubicForm4 as integer numerators over one denominator, and the one
expansion kernel (forms._expand) behind substitute, evaluate, gradient,
the line section and the conic bundle, against the Fraction code they
replaced (oracles.fraction_substitute, fraction_evaluate,
conic_bundle_by_masks and the line-section oracle of
test_quadform_integer)."""

import random
from fractions import Fraction
from math import gcd

import pytest

from cubicdescent.forms import (CubicForm4, ProjLine, line_section_cubic,
                                monomials_deg3)
from cubicdescent.ideals import _conic_bundle
from cubicdescent.linalg import Matrix, rank

from conftest import random_cubic_with_line
from oracles import (conic_bundle_by_masks, fraction_evaluate,
                     fraction_substitute)
from test_quadform_integer import oracle_line_section


def _cases():
    """(F, line on F): 200 seeded cubics with a line, every third scaled
    by a rational so that its denominator is not 1, then a one-monomial
    cubic and one with a coefficient over 10^12."""
    rng = random.Random(28)
    cases = []
    for k in range(200):
        F, l0, l1 = random_cubic_with_line(rng)
        if k % 3 == 0:
            scale = Fraction(rng.choice((-7, -1, 1, 2, 5)),
                             rng.choice((2, 3, 10, 49)))
            F = CubicForm4({e: c * scale for e, c in F.coeffs.items()})
        cases.append((F, ProjLine.from_forms(l0, l1)))
    x0x1 = ProjLine.from_forms([1, 0, 0, 0], [0, 1, 0, 0])
    cases.append((CubicForm4({(1, 1, 1, 0): Fraction(-3, 4)}), x0x1))
    cases.append((CubicForm4({(2, 1, 0, 0): 1, (1, 0, 1, 1): Fraction(2, 3),
                              (0, 1, 0, 2): Fraction(-5, 10 ** 12 + 39)}),
                  x0x1))
    return cases


CASES = _cases()


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))


def test_cases_hold_the_integer_model():
    assert sum(F.den != 1 for F, _ in CASES) >= 60
    for F, _ in CASES:
        assert F.den > 0 and all(F.num.values())
        assert gcd(*F.num.values(), F.den) == 1
        assert F.coeffs == {e: Fraction(v, F.den) for e, v in F.num.items()}
        assert CubicForm4(F.coeffs) == F


def test_substitute_matches_fraction_oracle():
    rng = random.Random(5)
    for F, _ in CASES:
        m = Matrix.from_rows([[_rational(rng) for _ in range(4)]
                              for _ in range(4)])
        G = F.substitute(m)
        assert G == fraction_substitute(F, m)
        assert G.den > 0 and gcd(*G.num.values(), G.den) == 1


def test_evaluate_and_gradient_match_fraction_oracle():
    rng = random.Random(6)
    for F, _ in CASES:
        x = [_rational(rng) for _ in range(4)]
        assert F.evaluate(x) == fraction_evaluate(F.coeffs, x)
        assert F.gradient(x) == tuple(fraction_evaluate(d, x)
                                      for d in F.partials())


def test_line_section_matches_fraction_oracle():
    rng = random.Random(7)
    for F, line in CASES:
        assert line_section_cubic(F, line) == [0, 0, 0, 0]
        while True:
            p, q = ([rng.randint(-4, 4) for _ in range(4)] for _ in range(2))
            if rank(Matrix.from_rows([p, q])) == 2:
                break
        other = ProjLine.from_points(p, q)
        assert line_section_cubic(F, other) == oracle_line_section(F, other)


def test_conic_bundle_matches_mask_expansion():
    nonzero = 0
    for F, line in CASES:
        for ints in (F.num, F.primitive_coeffs()[1]):
            disc, resultant = _conic_bundle(ints, line)
            assert (disc, resultant) == conic_bundle_by_masks(ints, line)
            nonzero += resultant != 0 and not disc.is_zero()
    assert nonzero > 300


def test_one_monomial_cubic():
    F = CubicForm4({(0, 3, 0, 0): Fraction(6, 4)})
    assert (F.num, F.den) == ({(0, 3, 0, 0): 3}, 2)
    shear = Matrix.from_rows([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
                              [0, 0, 0, 1]])
    # (x0 + x1)^3 * 3/2
    assert F.substitute(shear).coeffs == {
        (3, 0, 0, 0): Fraction(3, 2), (2, 1, 0, 0): Fraction(9, 2),
        (1, 2, 0, 0): Fraction(9, 2), (0, 3, 0, 0): Fraction(3, 2)}
    assert F.evaluate([5, Fraction(2, 3), 7, 8]) == Fraction(4, 9)
    assert F.substitute(Matrix.from_rows([[0] * 4] * 4)).is_zero()


@pytest.mark.parametrize("coeffs", [{}, {(3, 0, 0, 0): 0},
                                    {(1, 2, 0, 0): Fraction(0, 7)}])
def test_zero_form_is_zero_over_one(coeffs):
    F = CubicForm4(coeffs)
    assert F.is_zero() and (F.num, F.den) == ({}, 1)
    assert F.coeffs == {} and F.evaluate([1, 2, 3, 4]) == 0
    assert F == CubicForm4({e: 0 for e in monomials_deg3()})
