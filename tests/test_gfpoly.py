"""Polynomial arithmetic modulo an integer: the ring kernels against plain
integer arithmetic mod p^k, the extended gcd mod p, and the Hensel lift
of polyfactor built on them."""

import random

import pytest

from cubicdescent.gfpoly import (gp_add, gp_divmod, gp_factor_squarefree,
                                 gp_from_int_poly, gp_gcd, gp_mul, gp_sub,
                                 gp_trim, gp_xgcd)
from cubicdescent.polyfactor import _choose_prime, _hensel_lift_sub
from cubicdescent.unipoly import UniPoly

MODULI = [3 ** 5, 7 ** 4]


def int_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def int_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def reduced(a, m):
    return gp_trim([c % m for c in a])


def random_poly(rng, m, deg):
    return gp_trim([rng.randrange(m) for _ in range(deg + 1)])


@pytest.mark.parametrize("m", MODULI)
def test_ring_kernels_match_integer_arithmetic(m):
    rng = random.Random(m)
    for _ in range(200):
        f = random_poly(rng, m, rng.randint(0, 8))
        g = random_poly(rng, m, rng.randint(0, 8))
        assert gp_mul(f, g, m) == reduced(int_mul(f, g), m)
        assert gp_add(f, g, m) == reduced(int_add(f, g), m)
        assert gp_sub(f, g, m) == reduced(int_add(f, [-c for c in g]), m)


@pytest.mark.parametrize("m", MODULI)
def test_divmod_by_monic_divisor(m):
    rng = random.Random(m + 1)
    for _ in range(200):
        f = random_poly(rng, m, rng.randint(0, 9))
        g = [rng.randrange(m) for _ in range(rng.randint(0, 4))] + [1]
        q, r = gp_divmod(f, g, m)
        assert len(r) < len(g)
        assert all(0 <= c < m for c in q + r)
        assert reduced(int_add(int_mul(q, g), r), m) == f


def test_divmod_by_non_unit_leading_coefficient_raises():
    with pytest.raises(ValueError):
        gp_divmod([1, 0, 0, 1], [1, 3], 3 ** 5)


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_xgcd_bezout_and_degrees(p):
    rng = random.Random(p)
    pairs = 0
    while pairs < 50:
        f = random_poly(rng, p, rng.randint(1, 6))
        g = random_poly(rng, p, rng.randint(1, 6))
        if len(f) < 2 or len(g) < 2 or gp_gcd(f, g, p) != [1]:
            continue
        s, t = gp_xgcd(f, g, p)
        assert gp_add(gp_mul(s, f, p), gp_mul(t, g, p), p) == [1]
        assert len(s) < len(g) and len(t) < len(f)
        pairs += 1


def test_hensel_lift_sub_product():
    rng = random.Random(11)
    lifts = 0
    while lifts < 40:
        c = [rng.randint(-30, 30) for _ in range(rng.randint(2, 8))]
        c.append(rng.choice([1, 2, -3, 5, 12]))
        if c[0] == 0 or not UniPoly(c).is_squarefree():
            continue
        p = _choose_prime(c)
        modular = gp_factor_squarefree(gp_from_int_poly(c, p), p)
        m = p ** rng.randint(2, 12)
        lifted = _hensel_lift_sub(p, c, modular, m)
        assert len(lifted) == len(modular)
        for lift, fk in zip(lifted, modular):
            assert len(lift) == len(fk) and lift[-1] == 1
            assert reduced(lift, p) == fk
        product = [c[-1]]
        for lift in lifted:
            product = gp_mul(product, lift, m)
        assert product == reduced(c, m)
        lifts += 1
