import random
from fractions import Fraction

import pytest

from cubicdescent import intfactor
from cubicdescent.errors import BudgetExceededError
from cubicdescent.intfactor import (factorize, is_perfect_square,
                                    is_probable_prime, is_square_int,
                                    primes_up_to, squarefree_class,
                                    squarefree_part)


def test_squarefree_900():
    # N(r) of the worked quintic: the product of root factors 2 * 6 * 75
    assert 2 * 6 * 75 == 900
    res = squarefree_part(900)
    assert res.value == 1 and res.complete


def test_squarefree_basicexamples():
    assert squarefree_part(6).value == 6
    assert squarefree_part(75).value == 3      # 75 = 3 * 5^2
    assert squarefree_part(-6).value == -6
    assert squarefree_part(-4).value == -1
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_squarefree_reconstruction():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 10 ** 9) * rng.choice([1, -1])
        res = squarefree_part(n)
        assert res.complete
        q, r = divmod(n, res.value)
        assert r == 0 and is_perfect_square(q)
        # certificate really is squarefree
        for p, e in factorize(abs(res.value))[0].items():
            assert e == 1


def test_flagged_partial_result():
    # two large primes beyond the tiny trial bound and with rho disabled
    n = 1000003 * 1000033
    res = squarefree_part(n, trial_bound=10)
    # rho still factors this; force the flag by calling factorize directly
    factors, cofactor = factorize(n, trial_bound=10, rho_rounds=0)
    assert cofactor == n and factors == {}
    assert res.complete  # the default configuration does factor it


def test_uncertified_class_is_a_budget_error():
    # the primes 2^61 - 1 and 2^89 - 1: rho would need about 2^30 steps to
    # split their product, and gives up at its cap instead
    n = (2 ** 61 - 1) * (2 ** 89 - 1)
    with pytest.raises(BudgetExceededError, match="cofactor of 46 digits"):
        squarefree_class(Fraction(n, 4))


def test_squares_split_without_rho(monkeypatch):
    # the primes above 10^20 of the CLI's exit-10 test: rho cannot split
    # their product within its cap, so a stand-in that fails at once
    # takes its place, and counts the calls
    p0, p1 = 10 ** 20 + 39, 10 ** 20 + 129
    calls = []

    def no_split(n):
        calls.append(n)
        return n

    monkeypatch.setattr(intfactor, "_pollard_brent", no_split)
    k = 2 * 3 ** 3 * 7
    factors, cofactor = factorize((p0 * p1) ** 2 * k)
    assert calls == [p0 * p1]
    assert factors == {2: 1, 3: 3, 7: 1} and cofactor == (p0 * p1) ** 2
    assert squarefree_class(Fraction((p0 * p1) ** 2 * k, 5)) == 2 * 3 * 7 * 5
    assert not any(is_square_int(n) for n in calls)


def test_squarefree_part_leaves_the_root_of_a_square(monkeypatch):
    # every prime of p0 * p1 enters (p0 * p1)^2 * k with an even exponent,
    # so the squarefree part runs no rho on it; only a cofactor that stays
    # unfactored and is not a square sends the root back to rho
    p0, p1 = 10 ** 20 + 39, 10 ** 20 + 129
    calls = []
    rho = intfactor._pollard_brent
    monkeypatch.setattr(intfactor, "_pollard_brent",
                        lambda n: calls.append(n) or rho(n))
    k = 2 * 3 ** 3 * 7
    res = squarefree_part(-(p0 * p1) ** 2 * k)
    assert (res.value, res.cofactor, res.complete) == (-42, 1, True)
    assert calls == []
    assert squarefree_class(Fraction((p0 * p1) ** 2 * k, 5)) == 210
    assert calls == []

    # a stand-in that splits off n = 1000003 * 1000033 and nothing else:
    # n stays unfactored, so the root p0 * p1 goes to rho too, and the
    # candidate value is the one factorize gives
    n = 1000003 * 1000033
    monkeypatch.setattr(intfactor, "_pollard_brent", lambda m: calls.append(m)
                        or (n if m % n == 0 and m != n else m))
    res = squarefree_part((p0 * p1) ** 2 * n)
    assert calls == [(p0 * p1) ** 2 * n, n, p0 * p1]
    assert (res.value, res.complete) == (n * (p0 * p1) ** 2, False)
    assert factorize((p0 * p1) ** 2 * n) == ({}, res.value)


def test_square_of_a_composite_factors_fully(monkeypatch):
    calls = []
    rho = intfactor._pollard_brent
    monkeypatch.setattr(intfactor, "_pollard_brent",
                        lambda n: calls.append(n) or rho(n))
    p, q = 1000003, 1000033
    assert factorize(12 * (p * q) ** 4) == ({2: 2, 3: 1, p: 4, q: 4}, 1)
    assert calls == [p * q]


def test_is_perfect_square():
    assert is_perfect_square(Fraction(4, 9))
    assert not is_perfect_square(2)
    assert is_perfect_square(82944)            # 288^2, the radicand product
    assert not is_perfect_square(-4)
    assert is_perfect_square(0)


def test_squarefree_class_rational():
    assert squarefree_class(Fraction(8, 9)) == 2
    assert squarefree_class(Fraction(-1, 2)) == -2
    assert squarefree_class(0) == 0


def test_primality_and_sieve():
    ps = primes_up_to(100)
    assert len(ps) == 25 and ps[0] == 2 and ps[-1] == 97
    assert is_probable_prime(2 ** 61 - 1)
    assert not is_probable_prime(2 ** 61 + 1)
