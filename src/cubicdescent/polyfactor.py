"""Factorization of univariate polynomials over Q, up to degree 8.

Pipeline: a nonzero discriminant proves f squarefree; otherwise Yun's
squarefree decomposition (gcds on integer numerators).  Then per
squarefree part a Zassenhaus round: factor mod the least good odd prime
p, Hensel lift to p^L past the Mignotte bound, and recombine factors by
subset search.  All arithmetic mod p and mod p^L is gfpoly's; only the
trial division of a recombined factor is done over Z.  Every factor,
linear ones included, comes out of that one path; rational roots are read
off the linear factors.  Degrees are capped at 8, so subset recombination
never exceeds 2^8 trials.
"""

from __future__ import annotations

from itertools import combinations, count
from math import isqrt

from .errors import PreconditionError, ZeroPolynomialError
from .gfpoly import (gp_add, gp_divmod, gp_factor_squarefree, gp_from_int_poly,
                     gp_is_squarefree, gp_monic, gp_mul, gp_sub, gp_xgcd)
from .intfactor import is_probable_prime, primitive_part
from .unipoly import UniPoly, _pseudo_divmod

MAX_DEGREE = 8


def factor_unipoly(f: UniPoly):
    """Factor f into monic irreducibles over Q.

    Returns (constant, [(factor, multiplicity), ...]) with constant a
    Fraction and each factor monic irreducible, such that constant times
    the product of factor^multiplicity equals f.  Factors are sorted by
    (degree, coefficients).
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if f.degree > MAX_DEGREE:
        raise PreconditionError(f"factorization beyond degree {MAX_DEGREE} unsupported")
    if f.degree == 0:
        return f.lc(), []

    constant = f.lc()
    work = f.monic()
    # a nonzero discriminant proves f squarefree; only then is Yun skipped
    parts = [(work, 1)] if f.discriminant() != 0 else _yun_squarefree(work)
    factors = [(irr, mult) for sqf, mult in parts
               for irr in _factor_squarefree(sqf)]
    factors.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return constant, factors


def rational_roots(f: UniPoly) -> list:
    """All rational roots of f (without multiplicity), sorted: the roots
    of the linear factors of factor_unipoly(f)."""
    _, factors = factor_unipoly(f)
    return sorted(-g[0] for g, _ in factors if g.degree == 1)


def is_irreducible(f: UniPoly) -> bool:
    if f.degree < 1:
        return False
    _, factors = factor_unipoly(f)
    return len(factors) == 1 and factors[0][1] == 1


def _yun_squarefree(f: UniPoly) -> list:
    """Yun's algorithm: [(g_i, i)] with f = prod g_i^i, each g_i squarefree,
    for monic f."""
    df = f.derivative()
    g = f.gcd(df)
    out = []
    b = f // g
    c = df // g
    d = c - b.derivative()
    i = 1
    while b.degree >= 1:
        a = b.gcd(d)
        if a.degree >= 1:
            out.append((a, i))
            b = b // a
            c = d // a
        else:
            c = d
        d = c - b.derivative()
        i += 1
    return out


def _factor_squarefree(f: UniPoly) -> list:
    """Monic irreducible factors of monic squarefree f (degree >= 1)."""
    if f.degree == 1:
        return [f]
    return [UniPoly._from_num(c, c[-1])
            for c in _zassenhaus(f.primitive()[1].int_coeffs())]


def _choose_prime(c: list) -> int:
    """The least odd prime p not dividing lc(c) with c squarefree mod p."""
    for p in count(3, 2):
        if not is_probable_prime(p) or c[-1] % p == 0:
            continue
        if gp_is_squarefree(gp_from_int_poly(c, p), p):
            return p


def _mignotte_bound(c: list) -> int:
    """Coefficient bound for any factor of the integer polynomial c."""
    n = len(c) - 1
    norm = isqrt(sum(v * v for v in c)) + 1
    return (1 << n) * norm * abs(c[-1])


def _sym_rem(v: int, m: int) -> int:
    v %= m
    if v > m // 2:
        v -= m
    return v


def _hensel_step(m, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m) to modulus m^2.

    Requires lc(h) = 1 and deg f = deg g + deg h.  Classic quadratic
    Hensel step, in Z/m^2.
    """
    mm = m * m
    e = gp_sub(f, gp_mul(g, h, mm), mm)
    q, r = gp_divmod(gp_mul(s, e, mm), h, mm)
    gg = gp_add(g, gp_add(gp_mul(t, e, mm), gp_mul(q, g, mm), mm), mm)
    hh = gp_add(h, r, mm)
    b = gp_sub(gp_add(gp_mul(s, gg, mm), gp_mul(t, hh, mm), mm), [1], mm)
    c, d = gp_divmod(gp_mul(s, b, mm), hh, mm)
    ss = gp_sub(s, d, mm)
    tt = gp_sub(t, gp_add(gp_mul(t, b, mm), gp_mul(c, gg, mm), mm), mm)
    return gg, hh, ss, tt


def _hensel_lift_sub(p, f, fk, m):
    """Lift the monic factorisation f = lc(f) * prod(fk) mod p to one mod
    m = p^L: split fk in halves, lift the two products, recurse."""
    r = len(fk)
    if r == 1:
        return [gp_monic(f, m)]
    k = r // 2
    g = [f[-1] % p]
    for q in fk[:k]:
        g = gp_mul(g, q, p)
    h = [1]
    for q in fk[k:]:
        h = gp_mul(h, q, p)
    s, t = gp_xgcd(g, h, p)
    mm = p
    while mm < m:
        g, h, s, t = _hensel_step(mm, f, g, h, s, t)
        mm = mm * mm
    return _hensel_lift_sub(p, g, fk[:k], m) + _hensel_lift_sub(p, h, fk[k:], m)


def _zassenhaus(c: list) -> list:
    """Irreducible factors (integer coefficient lists) of a primitive
    squarefree integer polynomial of degree >= 2."""
    n = len(c) - 1
    if n == 1:
        return [c]
    p = _choose_prime(c)
    modular = gp_factor_squarefree(gp_from_int_poly(c, p), p)
    if len(modular) == 1:
        return [c]

    bound = _mignotte_bound(c)
    l = 1
    while p ** l < 2 * bound + 1:
        l += 1
    m = p ** l
    lifted = _hensel_lift_sub(p, c, [list(q) for q in modular], m)

    # Subset recombination (Zassenhaus).
    result = []
    remaining = list(range(len(lifted)))
    current = list(c)
    size = 1
    while 2 * size <= len(remaining):
        found = True
        while found:
            found = False
            for subset in combinations(remaining, size):
                trial = [current[-1] % m]
                for i in subset:
                    trial = gp_mul(trial, lifted[i], m)
                # primitive, with a positive leading coefficient
                _, top = primitive_part([_sym_rem(v, m) for v in reversed(trial)])
                trial = top[::-1]
                # trial is primitive, so it divides over Z (Gauss) when
                # the pseudo-remainder vanishes
                quo, rem = _pseudo_divmod(current, trial)
                if not rem:
                    result.append(trial)
                    current = [v // trial[-1] ** len(quo) for v in quo]
                    remaining = [i for i in remaining if i not in subset]
                    found = True
                    break
        size += 1
    if len(current) - 1 > 0:
        result.append(current)
    result.sort(key=lambda f: (len(f), tuple(f)))
    return result
