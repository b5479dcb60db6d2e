import random
from fractions import Fraction

import pytest

from cubicdescent import ideals, linalg
from cubicdescent.errors import PreconditionError, ZeroPolynomialError
from cubicdescent.forms import (CubicForm4, ProjLine, ProjPoint, QuadForm,
                                monomials_deg3)
from cubicdescent.descent import DP4Surface
from cubicdescent.geometry import CubicSurface
from cubicdescent.ideals import (CONIC_BUNDLE, MACAULAY_EXACT, MACAULAY_MOD_P,
                                 MACAULAY_PRIME, MPoly, buchberger,
                                 is_unit_ideal, reduce_poly, s_polynomial,
                                 smooth_cubic, smooth_cubic_certificate,
                                 smooth_dp4)
from cubicdescent.linalg import Matrix

from conftest import PAPER_CUBIC_COEFFS, random_cubic_with_line


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
    # input generator lies in the ideal of the basis; three terms per
    # generator keep the bases at 1 to 11 elements
    rng = random.Random(13)
    for _ in range(10):
        gens = []
        for _ in range(3):
            terms = {}
            for _ in range(3):
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


def _jacobian_smooth_cubic(F) -> bool:
    """Oracle: on each chart x_c = 1 of P^3, the ideal of F and its four
    partials is the unit ideal."""
    partials = []
    for i in range(4):
        terms = {}
        for e, c in F.coeffs.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = terms.get(tuple(e2), Fraction(0)) + c * e[i]
        partials.append(terms)
    for chart in range(4):
        gens = []
        for terms in [F.coeffs] + partials:
            rest = {}
            for e, c in terms.items():
                key = tuple(v for k, v in enumerate(e) if k != chart)
                rest[key] = rest.get(key, Fraction(0)) + c
            g = MPoly(3, rest)
            if g:
                gens.append(g)
        if not is_unit_ideal(gens):
            return False
    return True


def _form(terms) -> CubicForm4:
    """The cubic sum(c * x_i * x_j * x_k) of {(i, j, k): c}."""
    out = {}
    for idx, c in terms.items():
        e = [0, 0, 0, 0]
        for i in idx:
            e[i] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + c
    return CubicForm4(out)


def _planted(rng, on_line: bool) -> CubicForm4:
    """l0*q0 + l1*q1 singular at (1:0:0:0), through the line l0 = l1 = 0
    (x2 = x3 = 0, which contains the point, or x0 = x1 = 0, which does
    not), in random integer coordinates."""
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    if on_line:
        # no x0^2 in either quadric: no x0^2*x2, x0^2*x3 in F
        q0 = q1 = [ij for ij in pairs if ij != (0, 0)]
        lines = (2, 3)
    else:
        # q0 free of x0, no x0^2 in q1: no x0^3, x0^2*x1 in F
        q0 = [ij for ij in pairs if ij[0] != 0]
        q1 = [ij for ij in pairs if ij != (0, 0)]
        lines = (0, 1)
    terms = {}
    for l, q in zip(lines, (q0, q1)):
        for ij in q:
            terms[(l,) + ij] = terms.get((l,) + ij, 0) + rng.randint(-3, 3)
    while True:
        m = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(4)]
                              for _ in range(4)])
        if linalg.det(m) != 0:
            return _form(terms).substitute(m)


def _smoothness_cases():
    rng = random.Random(41)
    cases = {"paper": CubicForm4(PAPER_CUBIC_COEFFS),
             "cone": _form({(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1}),
             # the plane x0 times a smooth quadric
             "reducible": _form({(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
                                 (0, 3, 3): -1}),
             "fractions": CubicForm4({e: Fraction(rng.randint(-9, 9),
                                                  rng.randint(1, 9))
                                      for e in monomials_deg3()})}
    for k in range(3):
        cases[f"random{k}"] = CubicForm4({e: rng.randint(-5, 5)
                                          for e in monomials_deg3()})
        cases[f"line{k}"] = random_cubic_with_line(rng)[0]
        cases[f"planted_on_line{k}"] = _planted(rng, True)
        cases[f"planted_off_line{k}"] = _planted(rng, False)
    return cases


SMOOTHNESS_CASES = _smoothness_cases()


@pytest.mark.parametrize("name", list(SMOOTHNESS_CASES))
def test_smooth_cubic_matches_jacobian_oracle(name):
    F = SMOOTHNESS_CASES[name]
    verdict = smooth_cubic(F)
    assert verdict == _jacobian_smooth_cubic(F)
    if name.startswith(("planted", "cone", "reducible")):
        assert verdict is False


def test_smooth_cubic_exact_rank_fallback(monkeypatch, fermat):
    # a cone mod MACAULAY_PRIME but smooth over Q: only the exact rank
    # can say so
    calls = []

    def counted_rank(m):
        calls.append(m)
        return linalg.rank(m)

    monkeypatch.setattr(ideals, "rank", counted_rank)
    F = CubicForm4({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                    (0, 0, 0, 3): MACAULAY_PRIME})
    assert smooth_cubic(F) is True
    assert len(calls) == 1
    calls.clear()
    assert smooth_cubic(fermat) is True
    assert calls == []


def test_smooth_cubic_reduces_large_coefficients_before_numpy():
    # 3 * (2^64 + 1) in the partials exceeds int64: the Macaulay rows are
    # reduced mod MACAULAY_PRIME in Python integers first
    F = CubicForm4({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                    (0, 0, 0, 3): 2 ** 64 + 1})
    assert smooth_cubic(F) is True


def test_smooth_cubic_makes_no_buchberger_call(monkeypatch, paper_cubic):
    calls = []

    def counted_buchberger(gens):
        calls.append(gens)
        return buchberger(gens)

    monkeypatch.setattr(ideals, "buchberger", counted_buchberger)
    assert smooth_cubic(paper_cubic) is True
    assert calls == []


@pytest.mark.parametrize("bad", [CubicForm4({}), "x",
                                 QuadForm.diagonal([1, 1, 1, 1])])
def test_smooth_cubic_rejects_non_cubics(bad):
    with pytest.raises(ZeroPolynomialError):
        smooth_cubic(bad)


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


def _bundle_cases():
    """Seeded cubics x0*q0 + x1*q1 through the line L: x0 = x1 = 0, with
    q0, q1 of coefficients in [-2, 2]: 30 random, 25 forced singular at
    (0:0:1:0) on L, 25 forced singular at (1:0:0:0) off L.  Each is moved
    by a seeded unimodular change of coordinates, with its line."""
    rng = random.Random(20261020)
    cases = []
    for kind, count in (("random", 30), ("on", 25), ("off", 25)):
        while sum(k == kind for k, _ in cases) < count:
            q0, q1 = ({(i, j): rng.randint(-2, 2)
                       for i in range(4) for j in range(i, 4)}
                      for _ in range(2))
            if kind == "on":
                # dF/dx0 = q0 and dF/dx1 = q1 vanish at (0:0:1:0)
                q0[2, 2] = q1[2, 2] = 0
            elif kind == "off":
                # F and its gradient vanish at (1:0:0:0)
                q0[0, 0] = q0[0, 2] = q0[0, 3] = 0
                q1[0, 0] = -q0[0, 1]
            F = _form({(l,) + ij: c for l, q in ((0, q0), (1, q1))
                       for ij, c in q.items()})
            if F.is_zero():
                continue
            change = [[int(i == j) for j in range(4)] for i in range(4)]
            for _ in range(3):
                i, j = rng.sample(range(4), 2)
                s = rng.choice((-1, 1))
                for row in change:
                    row[j] += s * row[i]
            m = Matrix.from_rows(change)
            back = linalg.inverse(m)
            line = ProjLine.from_points(ProjPoint(back.mul_vec([0, 0, 1, 0])),
                                        ProjPoint(back.mul_vec([0, 0, 0, 1])))
            cases.append((kind, CubicSurface(F.substitute(m),
                                             known_line=line)))
    return cases


def test_conic_bundle_matches_macaulay():
    """The conic bundle through the line gives the verdict of the
    Macaulay matrix on every seeded cubic; some cubics singular on L have
    a squarefree discriminant, so the test on L is needed."""
    verdicts, masked = [], 0
    for kind, S in _bundle_cases():
        verdict, path = smooth_cubic_certificate(S)
        assert path == CONIC_BUNDLE
        bare, bare_path = smooth_cubic_certificate(S.F)
        assert bare_path in (MACAULAY_MOD_P, MACAULAY_EXACT)
        assert verdict == bare
        if kind != "random":
            assert verdict is False
        disc, resultant = ideals._conic_bundle(S.F.primitive_coeffs()[1],
                                               S.known_line)
        if kind == "on":
            assert resultant == 0
            masked += ideals._five_distinct_roots(disc)
        verdicts.append(verdict)
    assert masked and True in verdicts and verdicts.count(False) > 50


def test_paper_cubic_smooth_through_its_line(paper_cubic):
    assert smooth_cubic_certificate(paper_cubic) == (True, CONIC_BUNDLE)
    assert smooth_cubic_certificate(paper_cubic.F) == (True, MACAULAY_MOD_P)
