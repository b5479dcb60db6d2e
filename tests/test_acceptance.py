"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 3's second clause (is_perfect_square(norm(a)) for random
quintics) is asserted exactly as specified and fails: the claim is
mathematically false (norm(a) has square class disc(p), already
non-square for the worked example's own quintic).  The analysis lives in
the repository-external decisions ledger; the structurally true
counterpart - squareness of the norm of the discriminant-adjusted
splitting element - is asserted under criterion 3b and passes.
"""

import random
import time
from fractions import Fraction

from cubicdescent.descent import (DescentInput, DP4Surface, build_quadrics,
                                  power_basis_form, radicand_report,
                                  strategy_ab)
from cubicdescent.errors import DegenerateSurfaceError
from cubicdescent.etale import EtaleAlgebra
from cubicdescent.forms import (ProjPoint, QuadForm, contains_line,
                                p1_normalize, pencil_determinant,
                                restrict_to_hyperplane, signature)
from cubicdescent.frobenius import (census_lines, count_points_cubic,
                                    count_points_dp4, frobenius_class,
                                    good_prime, sample_frobenius)
from cubicdescent.geometry import (CubicSurface, cubic_to_dp4,
                                   roundtrip_check, tritangent_analysis)
from cubicdescent.ideals import smooth_cubic, smooth_dp4
from cubicdescent.intfactor import (is_perfect_square, is_probable_prime,
                                    squarefree_class)
from cubicdescent.linalg import det, rank
from cubicdescent.lines27 import full_group
from cubicdescent.pointsearch import brute_force_search, search
from cubicdescent.unipoly import UniPoly

from conftest import (PAPER_POINT, random_cubic_with_line,
                      random_dp4_with_point, random_quadform,
                      random_squarefree_quintic)
from oracles import (from_split_values, norm_form, split_idempotents,
                     trace_gram)

EXPECTED_EXHAUSTIVE_COUNT_H100 = 8   # frozen exhaustive count, see note


def _verdict(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_1_paper_points_height_100(paper_dp4):
    t0 = time.monotonic()
    res = search(paper_dp4, 100)
    elapsed = time.monotonic() - t0
    member = ProjPoint(PAPER_POINT) in set(res.points)
    note = ""
    if res.count != 14:
        note = (f"; count {res.count} != published 14: that figure came "
                f"from a non-exhaustive 'initial height limit' search, this "
                f"one is exhaustive under max-abs-coordinate height")
    ok = member and res.count == EXPECTED_EXHAUSTIVE_COUNT_H100
    _verdict(1, ok, f"(8:-13:4:2:-3) found among {res.count} points at "
                    f"H=100 in {elapsed:.0f}s{note}")
    assert member
    assert res.count == EXPECTED_EXHAUSTIVE_COUNT_H100
    assert elapsed < 600


def test_criterion_2_paper_cubic_line_and_smooth(paper_cubic):
    t0 = time.monotonic()
    has_line = contains_line(paper_cubic.F, paper_cubic.known_line)
    smooth = smooth_cubic(paper_cubic)
    elapsed = time.monotonic() - t0
    ok = _verdict(2, has_line and smooth,
                  f"published cubic contains its line ({has_line}) and is "
                  f"smooth ({smooth}) in {elapsed:.1f}s")
    assert ok
    assert elapsed < 300


def test_criterion_3a_strategy_identity_suite():
    t0 = time.monotonic()
    rng = random.Random(2026)
    checked = 0
    while checked < 100:
        p = random_squarefree_quintic(rng, bound=9, avoid_root_zero=True)
        algebra = EtaleAlgebra(p)
        r = algebra.r
        a, b = strategy_ab(algebra, r)
        if not a.is_unit():
            continue
        d = r.different()
        m = -(b * a.inverse())
        lhs = a ** 3 * m.different() * a.norm()
        rhs = (d * d * r) ** 2 * r * a.norm()
        assert lhs == rhs, f"identity failed for p = {p}"
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict("3a", True,
             f"rho identity exact on 100 random quintics in {elapsed:.0f}s")
    assert elapsed < 120


def test_criterion_3_norm_square_as_specified():
    """The literal second clause, asserted faithfully.

    EXPECTED RED: norm(a) = disc(p) * (-p(0)) up to unit squares has
    square class disc(p); non-square whenever the Galois image contains an
    odd permutation, including the worked example's quintic (class 2).
    """
    rng = random.Random(2026)
    failures = []
    checked = 0
    while checked < 100:
        p = random_squarefree_quintic(rng, bound=9, avoid_root_zero=True)
        algebra = EtaleAlgebra(p)
        a, _ = strategy_ab(algebra, algebra.r)
        if not a.is_unit():
            continue
        if not is_perfect_square(a.norm()):
            failures.append(p)
        checked += 1
    _verdict(3, not failures,
             f"is_perfect_square(norm(a)) as specified holds on "
             f"{100 - len(failures)}/100 samples "
             f"(spec defect: see decisions ledger; corrected form is 3b)")
    assert not failures, (
        f"norm(a) is not a perfect square for {len(failures)}/100 random "
        f"quintics (first counterexample p = {failures[0]}); the claim "
        f"fails even for the worked example's own quintic.")


def test_criterion_3b_corrected_norm_square():
    t0 = time.monotonic()
    rng = random.Random(2027)
    checked = 0
    while checked < 100:
        p = random_squarefree_quintic(rng, bound=9, avoid_root_zero=True)
        algebra = EtaleAlgebra(p)
        a, b = strategy_ab(algebra, algebra.r)
        if not a.is_unit():
            continue
        inp = DescentInput(algebra, a, b, power_basis_form(algebra))
        rep = radicand_report(inp)
        assert is_perfect_square(rep.splitting_norm)
        checked += 1
    _verdict("3b", True,
             f"splitting-element norm is a perfect square on 100 random "
             f"quintics in {time.monotonic() - t0:.0f}s")


def test_criterion_4_pencil_norm_identity():
    rng = random.Random(404)
    t0 = time.monotonic()
    done = 0
    while done < 50:
        p = random_squarefree_quintic(rng, bound=6)
        algebra = EtaleAlgebra(p)
        a = algebra.element([rng.randint(-4, 4) for _ in range(5)])
        b = algebra.element([rng.randint(-4, 4) for _ in range(5)])
        l = power_basis_form(algebra)
        try:
            v = build_quadrics(DescentInput(algebra, a, b, l))
        except Exception:
            continue
        bq = pencil_determinant(v.Q0, v.Q1)
        gram_det = det(trace_gram(algebra.one(), l))
        nf = norm_form(algebra, a, b)
        assert bq.coeffs == tuple(gram_det * c for c in nf.coeffs)
        done += 1
    elapsed = time.monotonic() - t0
    _verdict(4, True, f"pencil determinant = trace-gram det * norm form, "
                      f"coefficientwise, on 50 inputs in {elapsed:.0f}s")
    assert elapsed < 240


def test_criterion_5_diagonal_oracle():
    rng = random.Random(555)
    t0 = time.monotonic()
    roots = [0, 1, 2, 3, 4]
    algebra = EtaleAlgebra.from_roots(roots)
    idem = tuple(split_idempotents(algebra, roots))
    done = 0
    while done < 50:
        a_vals = [rng.randint(-6, 6) for _ in range(5)]
        b_vals = [rng.randint(-6, 6) for _ in range(5)]
        if any(v == 0 for v in a_vals):
            continue
        if len({Fraction(-bv, av) for av, bv in zip(a_vals, b_vals)}) != 5:
            continue
        inp = DescentInput(algebra,
                           from_split_values(algebra, roots, a_vals),
                           from_split_values(algebra, roots, b_vals),
                           idem)
        v = build_quadrics(inp)
        assert v.Q0 == QuadForm.diagonal(a_vals)
        assert v.Q1 == QuadForm.diagonal(b_vals)
        rep = radicand_report(inp)
        got = {e.point: e.radicand for e in rep.entries}
        tri = {e.pencil_root: e.split_disc
               for e in tritangent_analysis(v)}
        prod = Fraction(1)
        for i in range(5):
            rad = Fraction(1)
            for j in range(5):
                if j != i:
                    rad *= -b_vals[i] * a_vals[j] + a_vals[i] * b_vals[j]
            prod *= rad
            key = p1_normalize(-b_vals[i], a_vals[i])
            assert got[key] == rad
            assert tri[key] == squarefree_class(rad)
        assert is_perfect_square(prod)
        assert rep.norm_rho == prod
        done += 1
    elapsed = time.monotonic() - t0
    _verdict(5, True, f"diagonal tritangent points, radicands and square "
                      f"product verified on 50 pairs in {elapsed:.0f}s")


def test_criterion_6_roundtrip():
    rng = random.Random(66)
    t0 = time.monotonic()
    done = 0
    while done < 25:
        v, planted = random_dp4_with_point(rng)
        bq = pencil_determinant(v.Q0, v.Q1)
        dehom = bq.dehomogenized()
        if bq.is_zero() or dehom.degree != 5 or not dehom.is_squarefree():
            continue            # cheap filter before the certificate
        if not smooth_dp4(v):
            continue
        found = search(v, planted.height())
        assert planted in set(found.points)
        succeeded = False
        for point in sorted(found.points, key=lambda p: (p.height(), p.coords)):
            try:
                assert roundtrip_check(v, point)
                succeeded = True
                break
            except DegenerateSurfaceError:
                continue        # point on a line of V: blow-up degenerates
        if not succeeded:
            continue
        done += 1
    elapsed = time.monotonic() - t0
    _verdict(6, True, f"blow-up then decomposition recovers the pencil span "
                      f"on 25 smooth surfaces with found points in "
                      f"{elapsed:.0f}s")


def test_criterion_7_rank_inertia_relations():
    rng = random.Random(77)
    t0 = time.monotonic()
    done = 0
    while done < 50:
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
    elapsed = time.monotonic() - t0
    _verdict(7, True, f"rank adds 2 and inertia adds (1,1,0) on 50 "
                      f"instances in {elapsed:.0f}s (restriction along each "
                      f"form's own x4 partner; see ledger)")


def test_criterion_8_search_completeness():
    rng = random.Random(88)
    t0 = time.monotonic()
    done = 0
    while done < 20:
        try:
            v = DP4Surface(random_quadform(rng, 5, 3),
                           random_quadform(rng, 5, 3))
        except Exception:
            continue
        h = rng.choice([1, 2, 3])
        assert search(v, h).points == brute_force_search(v, h).points
        done += 1
    elapsed = time.monotonic() - t0
    _verdict(8, True, f"kernel search equals naive enumeration on 20 "
                      f"surfaces at H <= 3 in {elapsed:.0f}s")
    assert elapsed < 120


def test_criterion_9_frobenius_sampling(paper_strategy):
    _, rep = paper_strategy
    t0 = time.monotonic()
    sr = sample_frobenius(rep, prime_count=40, prime_bound=500)
    elapsed = time.monotonic() - t0
    assert sr.sample_count == 40
    assert all(c.total_sign == 1 for c in sr.classes)
    assert len(full_group()) == 1920
    orbits_ok = sr.orbit_lengths == [1, 2, 4, 4, 16]
    _verdict(9, orbits_ok and sr.heuristic,
             f"40 good primes < 500, all total signs +1, fitted subgroup "
             f"order {sr.subgroup_order} with orbits {sr.orbit_lengths} "
             f"(sampling-based), |T x| S5| = 1920, in {elapsed:.0f}s")
    assert orbits_ok
    assert sr.heuristic
    assert elapsed < 120


def test_criterion_10_lefschetz(fermat, paper_cubic, paper_dp4,
                                paper_strategy):
    _, rep = paper_strategy
    t0 = time.monotonic()
    assert count_points_cubic(fermat, 7) == 99
    assert census_lines(fermat, 7) == 27
    checked = []
    q = 5
    while len(checked) < 5:
        q += 2
        if not is_probable_prime(q) or not good_prime(rep, q):
            continue
        cls = frobenius_class(rep, q)
        t = cls.pic_trace()
        ns = count_points_cubic(paper_cubic.F, q)
        nv = count_points_dp4(paper_dp4, q)
        assert ns == q * q + t * q + 1, f"Lefschetz mismatch at {q}"
        assert ns == nv + q, f"blow-up count mismatch at {q}"
        checked.append(q)
    elapsed = time.monotonic() - t0
    _verdict(10, True, f"Fermat/F7: 99 points and 27 lines; Lefschetz and "
                       f"blow-up counts verified at q = {checked} in "
                       f"{elapsed:.0f}s")
    assert elapsed < 300


def test_criterion_11_norm_classes(paper_p):
    from cubicdescent.polyfactor import factor_unipoly

    _, factors = factor_unipoly(paper_p)
    quadratics = [f for f, _ in factors if f.degree == 2]
    assert len(quadratics) == 2
    # the norm of the generator of Q[T]/(f) is Res(f, T) = f(0) for monic f
    norms = sorted(f.resultant(UniPoly.x()) for f in quadratics)
    assert norms == [6, 75]
    classes = sorted(squarefree_class(n) for n in norms)
    ok = classes == [3, 6]
    _verdict(11, ok, f"quadratic-factor norms {norms} with square classes "
                     f"{classes} (6 and 3 as published)")
    assert ok
