import random

import pytest

from cubicdescent.errors import PreconditionError
from cubicdescent.forms import CubicForm4, QuadForm
from cubicdescent.descent import DP4Surface
from cubicdescent.ideals import (MPoly, buchberger,
                                 is_unit_ideal, reduce_poly, s_polynomial,
                                 smooth_cubic, smooth_dp4)


def _vars2():
    return MPoly.variable(2, 0), MPoly.variable(2, 1)


def test_trivial_bases():
    x, y = _vars2()
    gb = buchberger([x, y])
    assert sorted(g.lm() for g in gb) == [(0, 1), (1, 0)]
    gb2 = buchberger([x, x + MPoly.constant(2, 1)])
    assert gb2.is_unit()
    assert is_unit_ideal([x, x + MPoly.constant(2, 1)])
    with pytest.raises(PreconditionError):
        buchberger([])


def test_membership_x4_minus_x():
    x, y = _vars2()
    gb = buchberger([x * x - y, y * y - x])
    assert gb.contains(x * x * x * x - x)
    assert not gb.contains(x)


def test_buchberger_certificate():
    # every S-polynomial of the returned basis reduces to zero, and every
    # input generator lies in the ideal of the basis
    rng = random.Random(13)
    for _ in range(10):
        gens = []
        for _ in range(3):
            terms = {}
            for _ in range(4):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                terms[e] = rng.randint(-3, 3)
            g = MPoly(3, terms)
            if g:
                gens.append(g)
        if not gens:
            continue
        gb = buchberger(gens)
        basis = gb.generators
        for i, a in enumerate(basis):
            for b in basis[i + 1:]:
                assert reduce_poly(s_polynomial(a, b), basis).is_zero()
        for g in gens:
            assert gb.contains(g)
        for g in basis:
            assert g.lc() == 1
            for h in basis:
                if g is not h:
                    assert not all(a <= b for a, b in zip(h.lm(), g.lm()))


def test_smooth_cubic_examples(fermat, paper_cubic):
    assert smooth_cubic(fermat)
    cone = CubicForm4({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1})
    assert not smooth_cubic(cone)
    assert smooth_cubic(paper_cubic)


def test_smooth_cubic_mod_p_oracle():
    # one-directional: an F_p-rational singular point on a surface
    # certified smooth over Q can only come from bad reduction; for these
    # tiny singular examples the scan and the certificate agree
    from cubicdescent.frobenius import singular_points_mod_p

    cone = CubicForm4({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1})
    assert not smooth_cubic(cone)
    assert singular_points_mod_p(cone, 5) > 0
    fermat = CubicForm4({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1,
                         (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
    assert smooth_cubic(fermat)
    for p in (5, 11, 13):
        assert singular_points_mod_p(fermat, p) == 0
    node = CubicForm4({(1, 0, 2, 0): 1, (0, 1, 0, 2): 1,
                       (1, 1, 1, 0): 1})  # singular at (0:0:0:1)
    assert not smooth_cubic(node)
    assert singular_points_mod_p(node, 7) > 0


def test_smooth_dp4_examples(paper_dp4):
    assert smooth_dp4(DP4Surface(QuadForm.diagonal([1, 1, 1, 1, 1]),
                                 QuadForm.diagonal([0, 1, 2, 3, 4])))
    # shared 2-dimensional kernel: a singular pencil
    assert not smooth_dp4(DP4Surface(QuadForm.diagonal([1, 2, 3, 0, 0]),
                                     QuadForm.diagonal([1, 1, 1, 0, 0])))
    assert smooth_dp4(paper_dp4)


def _jacobian_smooth_dp4(v) -> bool:
    """Oracle: on each chart x_c = 1 of P^4, the ideal of Q0, Q1 and the
    2x2 minors of their gradients is the unit ideal."""
    for chart in range(5):
        xs = [MPoly.constant(4, 1) if k == chart
              else MPoly.variable(4, k - (k > chart)) for k in range(5)]
        grads = []
        for q in (v.Q0, v.Q1):
            grads.append([sum((x * (2 * q.gram[a, b]) for b, x in enumerate(xs)),
                              MPoly.constant(4, 0)) for a in range(5)])
        # Euler: Q = (1/2) * sum_a x_a * dQ/dx_a
        gens = [sum((x * g for x, g in zip(xs, grad)), MPoly.constant(4, 0))
                for grad in grads]
        g0, g1 = grads
        gens += [g0[i] * g1[j] - g0[j] * g1[i]
                 for i in range(5) for j in range(i + 1, 5)]
        gens = [g for g in gens if g]
        if not gens or not is_unit_ideal(gens):
            return False
    return True


def test_smooth_dp4_matches_quintic_criterion():
    # the pencil-determinant criterion against the Jacobian oracle on
    # random small pencils
    from conftest import random_quadform

    rng = random.Random(29)
    checked = 0
    while checked < 6:
        try:
            v = DP4Surface(random_quadform(rng, 5, 2), random_quadform(rng, 5, 2))
        except Exception:
            continue
        assert smooth_dp4(v) == _jacobian_smooth_dp4(v)
        checked += 1


@pytest.mark.parametrize("a, b, smooth", [
    # a simple root at infinity (det Q0 = 0): five distinct ratios
    ([0, 1, 1, 1, 1], [1, 1, 2, 3, 4], True),
    # a double finite root: the ratio 1 : 0 twice
    ([1, 1, 1, 1, 1], [0, 0, 2, 3, 4], False),
    # a double root at infinity: the ratio 0 : 1 twice
    ([0, 0, 1, 1, 1], [1, 1, 2, 3, 4], False),
    # a shared kernel: the pencil determinant is identically zero
    ([1, 2, 3, 0, 0], [1, 1, 1, 0, 0], False),
])
def test_smooth_dp4_degenerate_pencils(a, b, smooth):
    v = DP4Surface(QuadForm.diagonal(a), QuadForm.diagonal(b))
    assert smooth_dp4(v) == _jacobian_smooth_dp4(v) == smooth
