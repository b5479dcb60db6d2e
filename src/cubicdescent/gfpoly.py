"""Polynomial arithmetic modulo an integer.

Polynomials mod m are lists of ints in [0, m), lowest degree first, with
no trailing zeros ([] is the zero polynomial).  The ring kernels take any
modulus in which every leading coefficient they divide by is a unit (a
non-unit raises ValueError): over F_p they serve the distinct-degree and
Cantor-Zassenhaus splits, over Z/p^k the Hensel lift of the Zassenhaus
factoriser over Q (polyfactor).

The row kernels (gp_rows_*) work in one ring F_q[x]/(f) per row of an
int64 array, each row with its own modulus q and its own monic f of the
common degree n: an element is a row of n residues in [0, q), lowest
degree first.  Each ring is given by its table of x^k mod f for k < L
(gp_rows_powers_of_x, L >= 2n - 1), and a reduction is one sum of at most
L products of two residues, so every intermediate stays below
L * (q - 1)^2; the kernels raise ValueError unless that is below 2^63
(q <= 1,012,333,500 for L = 9).  The Frobenius reading of each rational
factor of the quintic at all sampled primes at once (frobenius) runs on
them.
"""

from __future__ import annotations

import functools
import random

import numpy as np


def gp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def gp_add(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return gp_trim([c % p for c in out])


def gp_sub(f, g, p):
    return gp_add(f, [-c for c in g], p)


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
    inv = pow(g[-1], -1, p)
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
    return gp_scale(f, pow(f[-1], -1, p), p)


def gp_gcd(f, g, p):
    while g:
        f, g = g, gp_rem(f, g, p)
    return gp_monic(f, p)


def gp_xgcd(f, g, p):
    """s, t with s*f + t*g = 1 mod p, deg s < deg g, deg t < deg f, for f
    and g of degree >= 1 that are coprime mod the prime p."""
    r0, r1 = f, g
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gp_sub(s0, gp_mul(q, s1, p), p)
        t0, t1 = t1, gp_sub(t0, gp_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError(f"polynomials not coprime mod {p}")
    inv = pow(r0[0], -1, p)
    return gp_scale(s0, inv, p), gp_scale(t0, inv, p)


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


def gp_factor_squarefree(f, p):
    """Irreducible monic factors of monic squarefree f over F_p (odd p)."""
    rng = random.Random(0)
    factors = []
    for g, d in gp_distinct_degree(gp_monic(f, p), p):
        factors.extend(gp_equal_degree(g, d, p, rng))
    factors.sort(key=lambda h: (len(h), tuple(h)))
    return factors


def _rows_guard(q, length: int) -> None:
    """ValueError unless length * (q - 1)^2 < 2^63 for every modulus q."""
    top = int(q.max())
    if length * (top - 1) ** 2 >= 1 << 63:
        raise ValueError(f"row kernels with {length} powers of x need "
                         f"{length} * (q - 1)^2 < 2^63, got q = {top}")


def gp_rows_powers_of_x(f, q, length: int):
    """The table of x^k mod f for k < length, an int64 array of shape
    (rows, length, n): f is an int64 array (rows, n + 1) of monic
    polynomials of degree n >= 1, each a row of residues mod its entry of
    the int64 array q.  Each step multiplies by x and folds the top
    coefficient t back as -t * f, one product of residues per entry."""
    _rows_guard(q, length)
    rows, n = f.shape[0], f.shape[1] - 1
    table = np.empty((rows, length, n), dtype=np.int64)
    cur = np.zeros((rows, n), dtype=np.int64)
    cur[:, 0] = 1
    for k in range(length):
        table[:, k] = cur
        top = cur[:, -1:].copy()
        cur[:, 1:] = cur[:, :-1]
        cur[:, 0] = 0
        cur -= top * f[:, :n]
        cur %= q[:, None]
    return table


def gp_rows_reduce(c, table, q):
    """c mod f per row, for c an int64 array (rows, k) of residues with
    k <= the table's length: sum_k c_k (x^k mod f)."""
    _rows_guard(q, table.shape[1])
    return _reduce(c, table, q)


def _reduce(c, table, q):
    return (c[:, None, :] @ table[:, :c.shape[1]])[:, 0] % q[:, None]


@functools.cache
def _convolution_index(n: int):
    """idx[k, j] = k - j where that is a coefficient index of a factor of
    degree < n, else n (a zero pad): a_pad[:, idx] @ b is the product's
    coefficients."""
    return np.array([[k - j if 0 <= k - j < n else n for j in range(n)]
                     for k in range(2 * n - 1)])


def _mul(a, b, table, q):
    rows, n = a.shape
    padded = np.zeros((rows, n + 1), dtype=np.int64)
    padded[:, :n] = a
    conv = (padded[:, _convolution_index(n)] @ b[:, :, None])[:, :, 0]
    return _reduce(conv % q[:, None], table, q)


def gp_rows_mul(a, b, table, q):
    """a * b mod f per row: the product's 2n - 1 coefficients (each a sum
    of at most n products, reduced mod q), then one reduction."""
    _rows_guard(q, table.shape[1])
    return _mul(a, b, table, q)


def gp_rows_pow(a, e, table, q):
    """a^e mod f per row, e an int64 array of nonnegative exponents, one
    per row: square and multiply over the bits of the largest exponent,
    each row taking the product only where its own bit is set."""
    _rows_guard(q, table.shape[1])
    acc = table[:, 0].copy()
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        acc = _mul(acc, acc, table, q)
        on = ((e >> bit) & 1).astype(bool)[:, None]
        acc = np.where(on, _mul(acc, a, table, q), acc)
    return acc


def gp_rows_mul_matrix(a, table, q):
    """The matrix of multiplication by a on F_q[x]/(f), per row: column j
    holds a * x^j mod f, the sum over i of a_i (x^(i + j) mod f).  a has
    shape (..., rows, n), the leading axes broadcast against the rows'
    table; the result has shape (..., rows, n, n)."""
    _rows_guard(q, table.shape[1])
    n = a.shape[-1]
    return np.stack([(a[..., None, :] @ table[:, j:j + n])[..., 0, :]
                     for j in range(n)], axis=-1) % q[:, None, None]


def gp_rows_compose(h, table, q):
    """The matrix of a -> a(h) mod f per row, (rows, n, n) with column i
    holding h^i mod f.  For h = x^q it is the Frobenius matrix: a^q is
    the matrix times a (gp_rows_apply)."""
    _rows_guard(q, table.shape[1])
    powers = [table[:, 0], h]
    while len(powers) < h.shape[1]:
        powers.append(_mul(powers[-1], h, table, q))
    return np.stack(powers[:h.shape[1]], axis=2)


def gp_rows_apply(m, v, q):
    """m times v mod q per row, for m (rows, n, n) and v (rows, n) of
    residues: a sum of n products per entry."""
    _rows_guard(q, m.shape[-1])
    return (m @ v[:, :, None])[:, :, 0] % q[:, None]
