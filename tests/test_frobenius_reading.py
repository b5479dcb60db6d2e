"""One reading per prime: the plain Frobenius class is the union of the
block-anchored parts, the per-report values are computed once, the
reading makes no random split, and under a custom x it reads the
splitting element as a polynomial in m = -b/a."""

import random
from fractions import Fraction

import pytest

from cubicdescent import descent, gfpoly, polyfactor
from cubicdescent.descent import run_strategy, strategy_ab
from cubicdescent.errors import BadPrimeError, CubicDescentError
from cubicdescent.etale import EtaleAlgebra
from cubicdescent.frobenius import (frobenius_class, frobenius_class_anchored,
                                    good_prime, sample_frobenius)
from cubicdescent.gfpoly import gp_factor_squarefree, gp_pow_mod
from cubicdescent.intfactor import primes_up_to
from cubicdescent.linalg import Matrix, solve_linear
from cubicdescent.unipoly import UniPoly

from conftest import PAPER_P, random_squarefree_quintic

# the seven galois-fit quintics of perfbench, named by fitted order
FITS = {
    "paper": PAPER_P,
    "order32": UniPoly([36, 3, -3, -4, -3, 1]),
    "order64": UniPoly([-40, 6, 40, 29, 9, 1]),
    "order48a": UniPoly([12, 11, 58, -18, -4, 1]),
    "order48b": UniPoly([-50, 65, -56, 34, -10, 1]),
    "order48c": UniPoly([-2, 2, -2, 3, 0, 1]),
    "order96": UniPoly([20, -5, -1, 20, 9, 1]),
}
QUINTICS = list(FITS.values())


def _reduce_fraction(c: Fraction, p: int) -> int:
    """Oracle: one rational mod p, by its own Fermat inverse."""
    c = Fraction(c)
    if c.denominator % p == 0:
        raise BadPrimeError(f"denominator divisible by {p}")
    return c.numerator * pow(c.denominator, p - 2, p) % p


def whole_quintic_class(rep, q):
    """Oracle: factor the whole quintic mod q and Euler-test the splitting
    element in each residue field F_q[T]/(f)."""
    pq = [_reduce_fraction(c, q) for c in rep.tritangent_poly.coeffs]
    elt = [_reduce_fraction(c, q) for c in rep.splitting_element.poly.coeffs]
    parts = []
    for f in gp_factor_squarefree(pq, q):
        d = len(f) - 1
        sign = 1 if gp_pow_mod(elt, (q ** d - 1) // 2, f, q) == [1] else -1
        parts.append((d, sign))
    return tuple(sorted(parts))


@pytest.mark.parametrize("quintic", QUINTICS, ids=list(FITS))
def test_plain_class_is_union_of_blocks(quintic):
    _, rep = run_strategy(quintic)
    degrees = tuple(f.degree for f, _ in rep.rational_factors)
    good = [q for q in primes_up_to(200) if good_prime(rep, q)]
    assert len(good) > 30
    for q in good:
        sizes, blocks = frobenius_class_anchored(rep, q)
        assert sizes == degrees
        assert all(sum(d for d, _ in b) == n for b, n in zip(blocks, sizes))
        union = tuple(sorted(part for block in blocks for part in block))
        assert frobenius_class(rep, q).parts == union
        assert union == whole_quintic_class(rep, q)


def test_report_values_computed_once(monkeypatch):
    calls = {"factor": 0, "disc": 0, "norm": 0}
    factored = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(fn):
        def wrapper(f, *args, **kwargs):
            factored.append(f)
            return fn(f, *args, **kwargs)
        return wrapper

    # run_strategy factors chi_m once: the radicand entries are read off
    # the report's rational factors
    monkeypatch.setattr(polyfactor, "factor_unipoly",
                        recorded(polyfactor.factor_unipoly))
    monkeypatch.setattr(descent, "factor_unipoly",
                        recorded(descent.factor_unipoly))
    _, rep = run_strategy(QUINTICS[1])
    assert factored.count(rep.tritangent_poly) == 1
    assert len(rep.entries) == 1

    monkeypatch.setattr(descent, "factor_unipoly",
                        counted("factor", descent.factor_unipoly))
    monkeypatch.setattr(UniPoly, "discriminant",
                        counted("disc", UniPoly.discriminant))
    monkeypatch.setattr(type(rep.splitting_element), "norm",
                        counted("norm", type(rep.splitting_element).norm))
    sr = sample_frobenius(rep, prime_count=20, prime_bound=200)
    assert sr.sample_count == 20
    assert calls == {"factor": 0, "disc": 0, "norm": 1}


def test_reading_makes_no_random_split(monkeypatch):
    _, rep = run_strategy(PAPER_P)

    def refuse(*args):
        raise AssertionError("equal-degree split in the Frobenius reading")

    monkeypatch.setattr(gfpoly, "gp_equal_degree", refuse)
    sr = sample_frobenius(rep)
    assert sr.subgroup_order == 16
    assert sr.orbit_lengths == [1, 2, 4, 4, 16]


def good_prime_per_value(rep, q):
    """Oracle: good_prime as one test per numerator and denominator."""
    def vanishes(c):
        c = Fraction(c)
        return c.numerator % q == 0 or c.denominator % q == 0

    if q == 2 or vanishes(rep.disc_tritangent):
        return False
    if any(Fraction(c).denominator % q == 0
           for c in rep.splitting_element.poly.coeffs):
        return False
    if vanishes(rep.splitting_norm):
        return False
    return all(Fraction(c).denominator % q
               for c in rep.tritangent_poly.coeffs)


def _seeded_quintics(count=20):
    rng = random.Random(2000)
    out = []
    while len(out) < count:
        quintic = random_squarefree_quintic(rng)
        try:
            run_strategy(quintic)
        except CubicDescentError:
            continue
        out.append(quintic)
    return out


def test_good_prime_is_one_remainder():
    primes = primes_up_to(2000)
    bad = 0
    for quintic in QUINTICS + _seeded_quintics():
        _, rep = run_strategy(quintic)
        verdicts = [good_prime(rep, q) for q in primes]
        assert verdicts == [good_prime_per_value(rep, q) for q in primes]
        assert not verdicts[0]                  # q = 2
        bad += verdicts.count(False) - 1
    assert bad > 0


def psi_e_oracle(quintic, x, rep):
    """The splitting element as a polynomial in m = -b/a: solve
    e = sum_i psi_i m^i in Fractions."""
    A = EtaleAlgebra(quintic)
    a, b = strategy_ab(A, A.element(x))
    m = -(b / a)
    powers = [A.one()]
    for _ in range(4):
        powers.append(powers[-1] * m)
    cols = [w.coords() for w in powers]
    return solve_linear(Matrix(5, 5, [cols[j][i] for i in range(5)
                                      for j in range(5)]),
                        rep.splitting_element.coords())


@pytest.mark.parametrize("x", [[1, 1], [0, 1, 1]], ids=["r+1", "r^2+r"])
def test_custom_x_reading_matches_oracle(x):
    """Under x != r the factors of chi_m are polynomials in m, so the sign
    of a cycle is Euler's criterion for psi_e, the splitting element as a
    polynomial in m, in each residue field of each factor mod q."""
    _, rep = run_strategy(PAPER_P, x=x)
    psi = psi_e_oracle(PAPER_P, x, rep)
    assert rep.splitting_psi.coords() == psi
    good = [q for q in primes_up_to(500) if good_prime(rep, q)]
    assert len(good) > 80
    for q in good:
        pe = gfpoly.gp_trim([_reduce_fraction(c, q) for c in psi])
        blocks, total = [], 1
        for fk, _ in rep.rational_factors:
            parts = []
            for f in gp_factor_squarefree(
                    [_reduce_fraction(c, q) for c in fk.coeffs], q):
                d = len(f) - 1
                square = gp_pow_mod(pe, (q ** d - 1) // 2, f, q) == [1]
                parts.append((d, 1 if square else -1))
                total *= parts[-1][1]
            blocks.append(tuple(sorted(parts)))
        assert total == 1
        assert frobenius_class_anchored(rep, q)[1] == tuple(blocks)
    sr = sample_frobenius(rep)
    assert sr.primes == good[:40]
    assert sr.subgroup_order == 16


@pytest.mark.parametrize("quintic", QUINTICS, ids=list(FITS))
def test_default_x_psi_is_the_splitting_element(quintic):
    _, rep = run_strategy(quintic)
    assert rep.splitting_psi.algebra.p == rep.tritangent_poly == quintic
    assert rep.splitting_psi.coords() == rep.splitting_element.coords()
