"""Integers behind rationals: the integer model of a rational vector,
integer squarefree parts and the factoring machinery behind them.

A rational vector taken up to scale (a projective point, a form, a
polynomial) is modelled by its primitive part: coprime integers with the
first nonzero entry positive.  A caller whose convention puts another
entry first passes its values in that order.

Squarefree parts use trial division up to a configurable bound, then
Brent-cycle Pollard rho, capped in steps, with Miller-Rabin primality
testing; a perfect square is split by its integer square root, not by
rho, and a squarefree part leaves that root unfactored unless something
else resists factoring.  A cofactor that resists factoring is returned
flagged, never silently treated as prime or squarefree, and
squarefree_class raises BudgetExceededError on it unless it is a square.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from numbers import Rational, Real

from .errors import BudgetExceededError, PreconditionError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness set, valid for n < 3.3e24; for larger
# inputs the same bases make the test probabilistic with negligible error.
_MR_BASES = _SMALL_PRIMES

# Steps of one Pollard rho call.  A prime factor p takes about sqrt(p)
# steps, so the cap splits off factors of up to about 12 digits and bounds
# the wait on a cofactor with none that small.
_RHO_STEPS = 1 << 22

# Pollard rho calls of one factorization.
_RHO_ROUNDS = 64


def as_fraction(x) -> Fraction:
    """x as a Fraction, without a copy when it is one already.  A float,
    numpy's included, raises PreconditionError: its binary value is
    rarely the rational meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Real) and not isinstance(x, Rational):
        raise PreconditionError(f"{x!r} is a float, not a rational")
    return Fraction(x)


def over_common_denominator(values) -> tuple:
    """(numerators, denominator): the rationals `values` written over
    their least common denominator (an int is its own numerator)."""
    values = [v if isinstance(v, int) else as_fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def lowest_terms(num, den: int) -> tuple:
    """(numerators, denominator): the integers num over den != 0 divided
    by gcd(*num, den), the denominator made positive."""
    g = gcd(*num, den) if den > 0 else -gcd(*num, den)
    if g == 1:
        return tuple(num), den
    return tuple(v // g for v in num), den // g


def primitive_part(values) -> tuple:
    """(content, ints) with values == content * ints: ints are coprime
    integers whose first nonzero entry is positive, content a Fraction.
    A zero vector gives content 0 and zeros."""
    nums, den = over_common_denominator(values)
    g = gcd(*nums)
    if g == 0:
        return Fraction(0), nums
    if next(v for v in nums if v) < 0:
        g = -g
    return Fraction(g, den), [v // g for v in nums]


def is_square_int(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def is_perfect_square(q) -> bool:
    """True iff the rational q is the square of a rational."""
    q = Fraction(q)
    if q < 0:
        return False
    return is_square_int(q.numerator) and is_square_int(q.denominator)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n, or n itself on failure.

    Brent's variant with a deterministic sequence of offsets.  A round
    with cycle length r takes at most 2r steps; once the rounds of all
    offsets have taken _RHO_STEPS steps, the call fails.
    """
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 50):
        y, m = 2, 128
        g = r = q = 1
        x = ys = 0
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                return n
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return n


def factorize(n: int, trial_bound: int = 100000,
              rho_rounds: int = _RHO_ROUNDS):
    """Factor |n| into primes.

    Returns (factors, cofactor): factors maps prime -> exponent and
    cofactor is 1 on success, else a composite that resisted factoring
    (factors * cofactor * sign == n).
    """
    return _factorize(n, trial_bound, rho_rounds, False)


def _factorize(n: int, trial_bound: int, rho_rounds: int,
               odd_only: bool) -> tuple:
    """factorize; with odd_only, the root r of a square cofactor
    r**(2e) is set aside instead of factored.  Every prime of r then has
    an even exponent, so r cannot change the squarefree part: it is
    factored, as factorize would, only when some other cofactor resists
    factoring and is not a square, and is left out of factors
    otherwise."""
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    factors: dict[int, int] = {}
    for p in range(2, trial_bound + 1):
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    # (m, e): m**e divides what is left; a square m = r**2 goes back as
    # (r, 2e) without a rho call, or into roots with odd_only
    stack = [(m, 1)] if m > 1 else []
    roots = []
    budget = rho_rounds
    cofactor = 1
    while stack or (roots and not is_square_int(cofactor)):
        if not stack:
            stack, roots, odd_only = roots, [], False
        m, e = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        r = isqrt(m)
        if r * r == m:
            (roots if odd_only else stack).append((r, 2 * e))
            continue
        if budget <= 0:
            cofactor *= m ** e
            continue
        budget -= 1
        d = _pollard_brent(m)
        if d in (1, m):
            cofactor *= m ** e
            continue
        stack.append((d, e))
        stack.append((m // d, e))
    return factors, cofactor


@dataclass(frozen=True)
class SquarefreeResult:
    """Result of a squarefree-part computation.

    value satisfies n = value * square when complete; when complete is
    False an unfactored composite cofactor was assumed squarefree and
    value is only a candidate.
    """

    value: int
    factors: dict = field(default_factory=dict)
    cofactor: int = 1
    complete: bool = True

    def __int__(self):
        return self.value


def squarefree_part(n: int, trial_bound: int = 100000) -> SquarefreeResult:
    """Squarefree s with n / s a perfect square, plus the certificate."""
    if n == 0:
        raise ValueError("squarefree part of 0 is undefined")
    sign = -1 if n < 0 else 1
    factors, cofactor = _factorize(n, trial_bound, _RHO_ROUNDS, True)
    s = sign
    for p, e in factors.items():
        if e % 2:
            s *= p
    if cofactor != 1:
        # The cofactor may hide a square; flag rather than guess.
        if is_square_int(cofactor):
            return SquarefreeResult(s, factors, 1, True)
        return SquarefreeResult(s * cofactor, factors, cofactor, False)
    return SquarefreeResult(s, factors, 1, True)


def squarefree_class(q) -> int:
    """Squarefree integer representing the class of rational q in Q*/(Q*)^2.

    Returns 0 for q = 0.
    """
    q = Fraction(q)
    if q == 0:
        return 0
    res = squarefree_part(q.numerator * q.denominator)
    if not res.complete:
        raise BudgetExceededError(
            f"could not certify a squarefree part: a composite cofactor of "
            f"{len(str(res.cofactor))} digits resisted factoring")
    return res.value


def primes_up_to(n: int) -> list:
    """Primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i in range(2, n + 1) if sieve[i]]

