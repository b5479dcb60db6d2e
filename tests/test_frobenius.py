from fractions import Fraction

import pytest

from cubicdescent.errors import BadPrimeError, BudgetExceededError
from cubicdescent.forms import CubicForm4, QuadForm
from cubicdescent.frobenius import (census_lines, count_points_cubic,
                                    count_points_dp4,
                                    frobenius_class, frobenius_class_anchored,
                                    good_prime, lefschetz_check,
                                    reduce_cubic_mod_p, reduce_dp4_mod_p,
                                    sample_frobenius)


def test_reduce_mod_p_flags():
    f = CubicForm4({(3, 0, 0, 0): Fraction(1, 3), (0, 3, 0, 0): 1})
    with pytest.raises(BadPrimeError):
        reduce_cubic_mod_p(f, 3)            # denominator divisible by 3
    assert reduce_cubic_mod_p(f, 5) == {(3, 0, 0, 0): 2, (0, 3, 0, 0): 1}
    g = CubicForm4({(3, 0, 0, 0): 7})
    with pytest.raises(BadPrimeError):
        reduce_cubic_mod_p(g, 7)            # vanishes mod 7


def test_reduce_dp4_degenerate_pencil_flag(paper_dp4):
    from cubicdescent.descent import DP4Surface

    v = DP4Surface(QuadForm.diagonal([1, 1, 1, 1, 1]),
                   QuadForm.diagonal([1, 1, 1, 1, 8]))
    with pytest.raises(BadPrimeError):
        reduce_dp4_mod_p(v, 7)              # proportional mod 7
    reduce_dp4_mod_p(paper_dp4, 7)          # fine


def test_count_points_fermat(fermat):
    assert count_points_cubic(fermat, 7) == 99      # 49 + 7*7 + 1
    # Pic-rank bound: count = q^2 + t*q + 1 with |t| <= 7
    for q in (5, 11, 13):
        n = count_points_cubic(fermat, q)
        t = (n - q * q - 1)
        assert t % q == 0 and abs(t // q) <= 7


def test_count_points_budget():
    fermat = CubicForm4({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1,
                         (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
    with pytest.raises(BudgetExceededError):
        count_points_cubic(fermat, 101, budget=1000)


def test_census_lines_fermat(fermat):
    assert census_lines(fermat, 7) == 27
    assert census_lines(fermat, 5) == 3     # frozen brute-force value


def test_census_lines_le_27_smooth(paper_cubic):
    n = census_lines(paper_cubic.F, 7)
    assert 0 <= n <= 27


def test_paper_class_at_11(paper_strategy):
    _, rep = paper_strategy
    cls = frobenius_class(rep, 11)
    assert cls.cycle_type() == (1, 1, 1, 2)
    assert cls.total_sign == 1
    # the factor anchoring puts the minus on the rational plane
    sizes, blocks = frobenius_class_anchored(rep, 11)
    assert sizes == (1, 2, 2)
    assert blocks[0] == ((1, -1),)


def test_bad_primes_rejected(paper_strategy):
    _, rep = paper_strategy
    assert not good_prime(rep, 2)
    assert not good_prime(rep, 3)           # 3 divides disc(p)
    with pytest.raises(BadPrimeError):
        frobenius_class(rep, 3)


def test_sampling_without_primes_fits_nothing(paper_strategy):
    """No sampled prime is no evidence: the fit reports no group rather
    than the trivial one.  Below 7 every prime is bad for the paper
    quintic, so prime_bound = 6 samples nothing either."""
    _, rep = paper_strategy
    for kwargs in ({"prime_count": 0}, {"prime_bound": 6}):
        sr = sample_frobenius(rep, **kwargs)
        assert sr.sample_count == 0 and sr.skipped == []
        assert sr.subgroup_order is None and sr.orbit_lengths is None
    assert sample_frobenius(rep, prime_bound=7).subgroup_order is not None


def test_sign_well_defined_under_representative_change(paper_strategy):
    # two representatives of the splitting element differing by a
    # multiple of p (and of psi_e by one of chi_m) give identical classes
    from cubicdescent.descent import RadicandReport

    _, rep = paper_strategy
    A = rep.rho.algebra
    B = rep.splitting_psi.algebra
    shifted = RadicandReport(
        rho=rep.rho, conj_poly=rep.conj_poly,
        tritangent_poly=rep.tritangent_poly, entries=rep.entries,
        norm_rho=rep.norm_rho, disc_tritangent=rep.disc_tritangent,
        splitting_element=A.element(rep.splitting_element.poly + A.p * 3),
        splitting_psi=B.element(rep.splitting_psi.poly + B.p * 3))
    for q in (7, 11, 13):
        assert frobenius_class(rep, q) == frobenius_class(shifted, q)


def test_split_rho_square_identity_class():
    # split p with rho a square in each coordinate: all signs +
    from cubicdescent.descent import DescentInput, radicand_report
    from cubicdescent.etale import EtaleAlgebra
    from oracles import from_split_values, split_idempotents

    roots = [1, 2, 3, 4, 6]
    A = EtaleAlgebra.from_roots(roots)
    inp = DescentInput(A,
                       from_split_values(A, roots, [1, 1, 1, 1, 1]),
                       from_split_values(A, roots, [-1, -2, -3, -4, -6]),
                       tuple(split_idempotents(A, roots)))
    rep = radicand_report(inp)
    # m = -b/a = roots: radicands prod_{j != i}(r_i - r_j)... replace with
    # direct check: all five radicands' images must test consistently
    for q in (7, 11, 13, 17):
        if not good_prime(rep, q):
            continue
        cls = frobenius_class(rep, q)
        assert cls.total_sign == 1
        assert cls.cycle_type() == (1, 1, 1, 1, 1)


def test_sampling_paper(paper_strategy):
    _, rep = paper_strategy
    sr = sample_frobenius(rep, prime_count=12, prime_bound=100)
    assert sr.sample_count == 12
    assert all(c.total_sign == 1 for c in sr.classes)
    assert sr.subgroup_order == 16
    assert sr.orbit_lengths == [1, 2, 4, 4, 16]
    assert sr.heuristic


def test_lefschetz_fermat(fermat):
    from cubicdescent.frobenius import FrobClass

    ident = FrobClass(((1, 1), (1, 1), (1, 1), (1, 1), (1, 1)))
    assert ident.pic_trace() == 7
    assert lefschetz_check(fermat, 7, ident)


def test_lefschetz_paper(paper_strategy, paper_cubic):
    _, rep = paper_strategy
    cls = frobenius_class(rep, 7)
    assert lefschetz_check(paper_cubic.F, 7, cls)
    # mismatch flagged: the identity class predicts the wrong count at 7
    from cubicdescent.frobenius import FrobClass

    ident = FrobClass(((1, 1),) * 5)
    assert not lefschetz_check(paper_cubic.F, 7, ident)


def test_blowup_count_relation(paper_strategy, paper_cubic, paper_dp4):
    _, rep = paper_strategy
    for q in (7, 11, 13):
        ns = count_points_cubic(paper_cubic.F, q)
        nv = count_points_dp4(paper_dp4, q)
        assert ns == nv + q


def test_euler_cubic_census_and_counts_match_frobenius(paper_strategy):
    """The default descent's own cubic surface: its pair blown up at
    Euler's point, the coordinates of 1/p'(r) (Tr(r^k / p'(r)) = 0 for
    k < 4 puts it on both forms), then reduced.  At every sampled prime
    up to the largest the census budget admits, the census counts the
    lines the sampled class fixes and the point count is the Lefschetz
    count of its Picard trace."""
    from cubicdescent.forms import ProjPoint
    from cubicdescent.geometry import dp4_to_cubic, greedy_reduce
    from cubicdescent.intfactor import primitive_part
    from cubicdescent.lines27 import act_on_27

    V, rep = paper_strategy
    r = V.provenance.algebra.r
    point = ProjPoint(primitive_part(r.different().inverse().coords())[1])
    assert V.evaluate(point.coords) == (0, 0)
    assert point.height() > 10 ** 10
    S = greedy_reduce(dp4_to_cubic(V, point))
    sr = sample_frobenius(rep)
    checked = [(q, cls) for q, cls in zip(sr.primes, sr.classes) if q <= 41]
    assert [q for q, _ in checked] == [7, 11, 13, 17, 19, 29, 31, 37, 41]
    for q, cls in checked:
        image = act_on_27(cls.representative())
        fixed = sum(k == i for k, i in enumerate(image))
        assert census_lines(S.F, q) == fixed
        assert lefschetz_check(S.F, q, cls)


def test_sampling_generic_quintic_order_384():
    """A quintic outside the benchmark's list: the backtracking in
    minimal_cover_subgroup grows its subgroups by cosets to one of order
    384, and stops there, as the table of subgroup classes has no smaller
    class meeting every sampled plain class (tests/test_cover_fit.py
    checks it against the old search)."""
    from cubicdescent.descent import run_strategy
    from cubicdescent.unipoly import UniPoly

    _, rep = run_strategy(UniPoly([3, 1, -2, 0, 1, 1]))
    sr = sample_frobenius(rep)
    assert sr.sample_count == 40
    assert sr.subgroup_order == 384
    assert sr.orbit_lengths == [1, 2, 8, 16]


def test_sampling_full_group_quintic_under_a_second():
    """A quintic whose sampled classes only W(D5) meets: the fit stops at
    its first cover of order 1920, the bound the table gives, instead of
    ruling out every smaller group."""
    import time

    from cubicdescent.descent import run_strategy
    from cubicdescent.unipoly import UniPoly

    _, rep = run_strategy(UniPoly([-5, -1, 2, 2, 4, 1]))
    start = time.perf_counter()
    sr = sample_frobenius(rep)
    assert time.perf_counter() - start < 1
    assert sr.subgroup_order == 1920
    assert sr.orbit_lengths == [1, 10, 16]
