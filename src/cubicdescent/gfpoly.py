"""Polynomial arithmetic over prime fields and small extension fields.

Polynomials over F_p are lists of ints in [0, p), lowest degree first,
with no trailing zeros ([] is the zero polynomial).  Extension fields
F_{p^k} use a fixed modulus: the first monic irreducible of degree k in
lexicographic coefficient order, so every run picks the same field model.
"""

from __future__ import annotations

import random
from itertools import product


def gp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def gp_sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return gp_trim(out)


def gp_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return gp_trim(out)


def gp_scale(f, c, p):
    c %= p
    return gp_trim([a * c % p for a in f])


def gp_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("gf division by zero polynomial")
    f = list(f)
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return [], gp_trim(f)
    inv = pow(g[-1], p - 2, p)
    quo = [0] * (len(f) - dg)
    for k in range(len(f) - 1 - dg, -1, -1):
        c = f[dg + k] * inv % p
        quo[k] = c
        if c:
            for j, b in enumerate(g):
                f[j + k] = (f[j + k] - c * b) % p
    return gp_trim(quo), gp_trim(f)


def gp_rem(f, g, p):
    return gp_divmod(f, g, p)[1]


def gp_monic(f, p):
    if not f:
        return []
    return gp_scale(f, pow(f[-1], p - 2, p), p)


def gp_gcd(f, g, p):
    while g:
        f, g = g, gp_rem(f, g, p)
    return gp_monic(f, p)


def gp_pow_mod(f, e, g, p):
    """f^e mod g over F_p."""
    result = [1]
    f = gp_rem(f, g, p)
    while e:
        if e & 1:
            result = gp_rem(gp_mul(result, f, p), g, p)
        f = gp_rem(gp_mul(f, f, p), g, p)
        e >>= 1
    return result


def gp_deriv(f, p):
    return gp_trim([k * c % p for k, c in enumerate(f)][1:])


def gp_from_int_poly(coeffs, p):
    return gp_trim([c % p for c in coeffs])


def gp_is_squarefree(f, p):
    return len(gp_gcd(f, gp_deriv(f, p), p)) == 1


def gp_is_irreducible(f, p):
    """Rabin irreducibility test for monic f over F_p."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    h = gp_pow_mod(x, p, f, p)
    from .intfactor import factorize
    fac, co = factorize(n)
    assert co == 1
    for q in fac:
        m = n // q
        # x^(p^m) mod f
        hm = x
        for _ in range(m):
            hm = gp_pow_mod(hm, p, f, p)
        if len(gp_gcd(gp_sub(hm, x, p), f, p)) != 1:
            return False
    hn = x
    for _ in range(n):
        hn = gp_pow_mod(hn, p, f, p)
    return not gp_sub(hn, x, p)


def gp_distinct_degree(f, p):
    """Distinct-degree factorization of monic squarefree f.

    Returns a list of (product-of-irreducibles-of-degree-d, d).
    """
    out = []
    x = [0, 1]
    h = list(x)
    g = list(f)
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = gp_pow_mod(h, p, g, p)
        gd = gp_gcd(gp_sub(h, x, p), g, p)
        if len(gd) > 1:
            out.append((gd, d))
            g = gp_divmod(g, gd, p)[0]
            h = gp_rem(h, g, p)
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def gp_equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of monic squarefree f into irreducibles of
    degree d.  Requires odd p."""
    n = len(f) - 1
    if n == d:
        return [f]
    if p == 2:
        raise NotImplementedError("equal-degree splitting needs odd p")
    e = (p ** d - 1) // 2
    while True:
        t = [rng.randrange(p) for _ in range(n)]
        t = gp_trim(t)
        if len(t) - 1 < 1:
            continue
        g = gp_gcd(t, f, p)
        if len(g) > 1:
            pass
        else:
            g = gp_sub(gp_pow_mod(t, e, f, p), [1], p)
            g = gp_gcd(g, f, p)
        if 1 < len(g) < len(f):
            left = gp_equal_degree(g, d, p, rng)
            right = gp_equal_degree(gp_divmod(f, g, p)[0], d, p, rng)
            return left + right


def gp_factor_squarefree(f, p, seed=0):
    """Irreducible monic factors of monic squarefree f over F_p (odd p)."""
    rng = random.Random(seed)
    factors = []
    for g, d in gp_distinct_degree(gp_monic(f, p), p):
        factors.extend(gp_equal_degree(g, d, p, rng))
    factors.sort(key=lambda h: (len(h), tuple(h)))
    return factors


def first_irreducible(p, k):
    """The first monic irreducible of degree k over F_p, ordering monic
    polynomials by their (c_0, ..., c_{k-1}) coefficient tuple."""
    if k == 1:
        return [0, 1]
    for tail in product(range(p), repeat=k):
        f = list(tail) + [1]
        if gp_is_irreducible(f, p):
            return f
    raise AssertionError("unreachable: irreducibles of every degree exist")


class ExtField:
    """F_{p^k} with the canonical modulus; elements are int tuples of length k."""

    def __init__(self, p: int, k: int):
        if k < 1 or k > 12:
            raise ValueError("extension degree out of supported range")
        self.p = p
        self.k = k
        self.modulus = first_irreducible(p, k)
        self.q = p ** k

    def element(self, coeffs) -> tuple:
        f = gp_rem(gp_from_int_poly(list(coeffs), self.p), self.modulus, self.p)
        return tuple(f) + (0,) * (self.k - len(f))

    def zero(self) -> tuple:
        return (0,) * self.k

    def one(self) -> tuple:
        return self.element([1])

    def add(self, a, b) -> tuple:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b) -> tuple:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        f = gp_rem(gp_mul(gp_trim(list(a)), gp_trim(list(b)), self.p),
                   self.modulus, self.p)
        return tuple(f) + (0,) * (self.k - len(f))

    def pow(self, a, e: int) -> tuple:
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a) -> tuple:
        f = gp_trim(list(a))
        if not f:
            raise ZeroDivisionError("inverse of zero")
        # extended gcd with the modulus
        r0, r1 = f, self.modulus
        s0, s1 = [1], []
        p = self.p
        while r1:
            q, r = gp_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, gp_sub(s0, gp_mul(q, s1, p), p)
        c = pow(r0[-1], p - 2, p)
        inv = gp_scale(s0, c, p)
        inv = gp_rem(inv, self.modulus, p)
        return tuple(inv) + (0,) * (self.k - len(inv))

    def elements(self):
        for tup in product(range(self.p), repeat=self.k):
            yield tup
