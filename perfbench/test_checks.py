"""Tests of the benchmark's checks: each accepts a right output and
rejects a deliberately wrong one.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import random
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

import checks as C
import workloads as W

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

PAIR = (W.PAPER_Q0, W.PAPER_Q1)
POINT = W.PAPER_POINT
# the published reduced cubic and two points spanning its rational line
PAPER_CUBIC = {
    (2, 1, 0, 0): 2, (2, 0, 1, 0): 6, (1, 2, 0, 0): -4, (1, 1, 1, 0): 6,
    (1, 1, 0, 1): 4, (1, 0, 2, 0): -10, (1, 0, 1, 1): -4, (1, 0, 0, 2): -7,
    (0, 3, 0, 0): 2, (0, 2, 1, 0): -9, (0, 2, 0, 1): -4, (0, 1, 2, 0): 4,
    (0, 1, 1, 1): -26, (0, 1, 0, 2): 6, (0, 0, 3, 0): 1, (0, 0, 2, 1): 10,
    (0, 0, 1, 2): -7, (0, 0, 0, 3): -5,
}
PAPER_LINE = ((5, 0, 0, -7), (0, 5, 10, 2))


# ---------------------------------------------------------------------------
# inputs with a known answer


def singular_pair(rng, coeff_bound):
    """A quadric pair singular at a planted point: Q0 passes through e4 and
    Q1 is a cone with its vertex there; the shear x_a -> x_a + s_a*x4
    (a < 4) then moves that point to (-s_0 : ... : -s_3 : 1)."""
    q0 = W._random_form(rng, 5, coeff_bound)
    q0[(4, 4)] = 0
    q1 = {(i, j): rng.randint(-coeff_bound, coeff_bound)
          for i in range(4) for j in range(i, 4)}
    images = [[(a, 1), (4, rng.randint(-2, 2))] for a in range(4)] + [[(4, 1)]]
    return _substitute(q0, images), _substitute(q1, images)


def _substitute(cs: dict, images) -> dict:
    """x_i -> sum of c * x_k over (k, c) in images[i], in a quadratic form."""
    out: dict = {}
    for (i, j), c in cs.items():
        for a, ca in images[i]:
            for b, cb in images[j]:
                key = (min(a, b), max(a, b))
                out[key] = out.get(key, 0) + c * ca * cb
    return {k: v for k, v in out.items() if v}


def cubic_with_line(rng, bound, singular=False):
    """(coefficients, l0, l1): F = l0*q0 + l1*q1 contains l0 = l1 = 0.  With
    `singular`, q0 and q1 both vanish at a planted point of the line, which
    makes F singular there."""
    while True:
        l0 = [rng.randint(-2, 2) for _ in range(4)]
        l1 = [rng.randint(-2, 2) for _ in range(4)]
        minors = [l0[a] * l1[b] - l0[b] * l1[a]
                  for a in range(4) for b in range(a + 1, 4)]
        if not any(minors):
            continue
        qs = [{(i, j): rng.randint(-bound, bound)
               for i in range(4) for j in range(i, 4)} for _ in range(2)]
        if singular:
            point = orthogonal_pair(l0, l1)[0]
            k = next(i for i in range(4) if point[i])
            for q in qs:
                value = sum(c * point[i] * point[j] for (i, j), c in q.items())
                q[(k, k)] -= Fraction(value, point[k] ** 2)
        coeffs = {}
        for lf, q in ((l0, qs[0]), (l1, qs[1])):
            for (i, j), c in q.items():
                for k in range(4):
                    if c and lf[k]:
                        e = [0, 0, 0, 0]
                        e[i] += 1
                        e[j] += 1
                        e[k] += 1
                        coeffs[tuple(e)] = coeffs.get(tuple(e), 0) + c * lf[k]
        coeffs = {e: Fraction(c) for e, c in coeffs.items() if c}
        if coeffs:
            return coeffs, tuple(l0), tuple(l1)


def orthogonal_pair(a, b):
    """Two independent integer vectors orthogonal to the independent
    4-vectors a and b (cross products of a, b and a unit vector): the
    points of the line a = b = 0, or the cut forms of the line through a
    and b."""
    found = []
    for unit in range(4):
        rows = [list(a), list(b), [int(k == unit) for k in range(4)]]
        v = tuple((-1) ** k * int(C.det([[r[c] for c in range(4) if c != k]
                                          for r in rows]))
                  for k in range(4))
        if any(v) and (not found or any(v[i] * found[0][j] != v[j] * found[0][i]
                                        for i in range(4) for j in range(4))):
            found.append(v)
        if len(found) == 2:
            return found
    raise ValueError("dependent vectors")


# ---------------------------------------------------------------------------
# tests


def test_points_on_the_pair_pass():
    assert C.check_points(PAIR, [POINT], 13) == []


@pytest.mark.parametrize("bad", [
    (8, -13, 4, 2, -2),          # off the pair
    (16, -26, 8, 4, -6),         # not primitive
    (-8, 13, -4, -2, 3),         # not normalised
])
def test_points_reject_wrong_point(bad):
    assert C.check_points(PAIR, [bad], 30)


def test_points_reject_height_above_bound():
    assert C.check_points(PAIR, [POINT], 12)


def test_points_reject_repeats():
    assert C.check_points(PAIR, [POINT, POINT], 13)


def test_dropped_planted_point_is_caught():
    rng = random.Random(3)
    pair, point = W.planted_pair(rng, 10 ** 6, 5)
    assert C.eval_quad(pair[0], point) == C.eval_quad(pair[1], point) == 0
    assert C.check_contains([point], point) == []
    assert C.check_contains([], point)


def test_naive_comparison_catches_a_missing_point():
    rng = random.Random(4)
    pair, point = W.planted_pair(rng, 50, 1)
    found = C.naive_points(pair, 1)
    assert point in found
    assert C.check_against_naive(pair, found, 1) == []
    assert C.check_against_naive(pair, [p for p in found if p != point], 1)


def _five_fold(pair, height):
    span = range(-height, height + 1)
    return sorted(x for x in product(span, repeat=5)
                  if any(x) and C.is_normalised(x)
                  and not C.eval_quad(pair[0], x) and not C.eval_quad(pair[1], x))


@pytest.mark.parametrize("drop", [0, 1, 3, 5])
def test_naive_points_equal_a_five_fold_loop(drop):
    # without the first `drop` square terms the solved coordinate moves;
    # without all five the search falls back to the five-fold loop
    rng = random.Random(10)
    pair, point = W.planted_pair(rng, 6, 1)
    pair = tuple({(i, j): c for (i, j), c in cs.items() if i != j or i >= drop}
                 for cs in pair)
    expected = _five_fold(pair, 2)
    assert expected
    assert C.naive_points(pair, 2) == expected


def test_naive_points_on_the_published_pair():
    assert C.naive_points(PAIR, 13) == [POINT]


def test_point_counts_off_by_one():
    # q = 7, trace 7: #S = 49 + 49 + 1 = 99 and #V = 92
    assert C.check_point_counts(7, 99, 92, 7) == []
    assert C.check_point_counts(7, 100, 92, 7)
    assert C.check_point_counts(7, 99, 93, 7)


def test_census_rejects_wrong_number_of_fixed_lines():
    identity = ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1))
    assert C.check_census(7, 27, identity) == []
    assert C.check_census(7, 26, identity)
    # a 5-cycle without signs fixes the marked line and the line (+,...,+)
    assert C.fixed_lines(C.class_element(((5, 1),))) == 2
    assert C.check_census(7, 27, ((5, 1),))


def test_class_rejects_wrong_cycles_and_signs():
    quintic = W.PAPER_QUINTIC
    q = 7
    degrees = C.factor_degrees_mod(quintic, q)
    parts = tuple((d, 1) for d in degrees)
    assert C.check_class(quintic, q, parts) == []
    assert C.check_class(quintic, q, ((5, 1),))
    flipped = ((parts[0][0], -1),) + parts[1:]
    assert C.check_class(quintic, q, flipped)


def test_factor_degrees_match_root_counts():
    rng = random.Random(5)
    for q in (7, 11, 13):
        for _ in range(10):
            f = [rng.randint(-9, 9) for _ in range(5)] + [1]
            deriv = [k * c % q for k, c in enumerate(f)][1:]
            if len(C._mod_gcd(C._mod_poly(f, q), C._trim(deriv), q)) > 1:
                continue
            degrees = C.factor_degrees_mod(f, q)
            assert sum(degrees) == 5
            assert degrees.count(1) == C.root_count_mod(f, q)


def _generated(gens):
    group = {((1,) * 5, tuple(range(5)))}
    frontier = list(group)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                p = C.compose(g, h)
                if p not in group:
                    group.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted(group)


def test_fit_accepts_a_group_and_rejects_broken_ones():
    g = ((1, 1, 1, -1, -1), (1, 2, 0, 3, 4))
    group = _generated([g])
    anchored = [C.anchored_data(g, (5,))]
    orbits = C.orbit_lengths(group)
    assert C.check_fit(group, anchored, len(group), orbits) == []
    assert C.check_fit(group[:-1], anchored, len(group) - 1, orbits)
    assert C.check_fit(group, anchored, len(group) + 1, orbits)
    assert C.check_fit(group, anchored, len(group), orbits[1:])
    assert C.check_fit(group, [(((5, 1),),)], len(group), orbits)


def test_compose_is_the_action_composed():
    rng = random.Random(6)
    elems = [(t, s) for s in permutations(range(5)) for t in C._EVEN]
    for _ in range(50):
        g, h = rng.choice(elems), rng.choice(elems)
        gh = C.compose(g, h)
        for label in C._LABELS:
            assert C.act(gh, label) == C.act(g, C.act(h, label))


def test_line_on_cubic():
    coeffs, l0, l1 = cubic_with_line(random.Random(7), 3)
    u, v = orthogonal_pair(l0, l1)
    assert C.check_line_on_cubic(coeffs, u, v) == []
    wrong = dict(coeffs)
    k = next(i for i in range(4) if u[i])
    e = tuple(3 if i == k else 0 for i in range(4))
    wrong[e] = wrong.get(e, 0) + 1
    assert C.check_line_on_cubic(wrong, u, v)


def test_paper_cubic_contains_its_line():
    assert C.check_line_on_cubic(PAPER_CUBIC, *PAPER_LINE) == []


def test_verdict_checks_reject_a_flipped_verdict():
    assert C.check_dp4_verdict(PAIR, True) == []
    assert C.check_dp4_verdict(PAIR, False)
    singular = singular_pair(random.Random(8), 4)
    assert C.check_dp4_verdict(singular, False) == []
    assert C.check_dp4_verdict(singular, True)
    forms = orthogonal_pair(*PAPER_LINE)
    assert C.check_cubic_verdict(PAPER_CUBIC, *forms, True) == []
    assert C.check_cubic_verdict(PAPER_CUBIC, *forms, False)


def test_criteria_agree_with_the_program():
    """The smoothness criteria the checks use agree with the program's
    Groebner certificates on generic and planted-singular inputs."""
    from cubicdescent import (CubicForm4, CubicSurface, ProjLine, smooth_cubic,
                              smooth_dp4)

    rng = random.Random(9)
    for i in range(6):
        coeffs, l0, l1 = cubic_with_line(rng, 3, singular=i % 2 == 1)
        s = CubicSurface(CubicForm4(coeffs),
                         known_line=ProjLine.from_forms(list(l0), list(l1)))
        verdict = smooth_cubic(s)
        if i % 2:
            assert verdict is False
        assert C.check_cubic_verdict(coeffs, l0, l1, verdict) == []
    for i in range(4):
        pair = singular_pair(rng, 3) if i % 2 else W.planted_pair(rng, 3, 2)[0]
        verdict = smooth_dp4(W._dp4(pair))
        assert C.check_dp4_verdict(pair, verdict) == []


def test_tritangents_reject_a_wrong_entry():
    from cubicdescent import tritangent_analysis

    entries = [(e.pencil_root if isinstance(e.pencil_root, tuple)
                else tuple(e.pencil_root.coeffs), e.multiplicity)
               for e in tritangent_analysis(W._dp4(PAIR))]
    assert C.check_tritangents(PAIR, entries) == []
    assert C.check_tritangents(PAIR, entries[1:])
    assert C.check_tritangents(PAIR, entries + [((1, 1), 1)])
