"""Exact smoothness, with no Groebner basis.  A cubic surface with a known
line is smooth iff the conic bundle of the planes through the line has a
discriminant with five distinct roots and the partials share no root on
the line; a bare cubic form is smooth iff the Macaulay matrix of its
partials has full rank; smooth_cubic_certificate names the path taken.
A quadric pair in P^4 is smooth iff its pencil determinant has five
distinct roots, the same test on a binary quintic as the conic bundle's.
The small Buchberger engine over Q (`buchberger`, `is_unit_ideal`)
serves as a test oracle: sparse polynomials in up to 5 variables,
grevlex order with x0 < x1 < ..., content stripped to primitive integer
form after every reduction, pairs selected by (lcm degree, lcm, indices)
with the coprime-leading-term and chain criteria.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import PreconditionError, ZeroPolynomialError
from .forms import BinaryQuintic, CubicForm4, monomials_deg3
from .intfactor import primitive_part
from .linalg import Matrix, column_ranks_mod_p, rank

#: the prime of the modular rank in smooth_cubic
MACAULAY_PRIME = 2_147_483_647

#: column of each of the 56 quintic monomials in 4 variables
_QUINTIC_COLUMN = {e: k for k, e in enumerate(
    e for e in product(range(6), repeat=4) if sum(e) == 5)}


def grevlex_key(e: tuple):
    """Sort key for grevlex with x0 < x1 < ...: compare total degree, then
    negated exponents from the smallest variable."""
    return (sum(e), tuple(-x for x in e))


class MPoly:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "terms", "_lm")

    def __init__(self, nvars: int, terms: dict):
        if nvars < 1 or nvars > 5:
            raise PreconditionError("supported variable counts: 1..5")
        clean = {}
        for e, c in terms.items():
            e = tuple(int(v) for v in e)
            if len(e) != nvars or any(v < 0 for v in e):
                raise PreconditionError(f"bad exponent {e}")
            c = Fraction(c)
            if c:
                clean[e] = clean.get(e, Fraction(0)) + c
        self.nvars = nvars
        self.terms = {e: c for e, c in clean.items() if c}
        self._lm = None

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def lm(self) -> tuple:
        if self._lm is None:
            if not self.terms:
                raise ZeroPolynomialError("leading monomial of zero")
            self._lm = max(self.terms, key=grevlex_key)
        return self._lm

    def lc(self) -> Fraction:
        return self.terms[self.lm()]

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return MPoly(self.nvars, out)

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def term_mul(self, coeff, mono):
        return MPoly(self.nvars,
                     {tuple(a + b for a, b in zip(e, mono)): c * coeff
                      for e, c in self.terms.items()})

    def primitive(self) -> "MPoly":
        """Primitive integer form with positive leading coefficient."""
        if not self.terms:
            return self
        lm = self.lm()
        exps = [lm] + [e for e in self.terms if e != lm]
        _, ints = primitive_part(self.terms[e] for e in exps)
        return MPoly(self.nvars, dict(zip(exps, ints)))

    def monic(self) -> "MPoly":
        c = self.lc()
        return MPoly(self.nvars, {e: v / c for e, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        parts = []
        for e in sorted(self.terms, key=grevlex_key, reverse=True):
            parts.append(f"{self.terms[e]}*x^{e}")
        return "MPoly(" + " + ".join(parts) + ")"


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def reduce_poly(f: MPoly, basis: list) -> MPoly:
    """Full normal form of f modulo basis, content-normalized."""
    rem: dict = {}
    work = MPoly(f.nvars, dict(f.terms))
    while work:
        m = work.lm()
        c = work.terms[m]
        for g in basis:
            gm = g.lm()
            if _divides(gm, m):
                q = tuple(a - b for a, b in zip(m, gm))
                work = work - g.term_mul(c / g.lc(), q)
                break
        else:
            rem[m] = c
            work = MPoly(work.nvars, {e: v for e, v in work.terms.items() if e != m})
    out = MPoly(f.nvars, rem)
    return out.primitive() if out else out


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    l = _mono_lcm(f.lm(), g.lm())
    qf = tuple(a - b for a, b in zip(l, f.lm()))
    qg = tuple(a - b for a, b in zip(l, g.lm()))
    return f.term_mul(1 / f.lc(), qf) - g.term_mul(1 / g.lc(), qg)


class GroebnerBasis:
    """Reduced Groebner basis w.r.t. grevlex: monic, inter-reduced."""

    def __init__(self, generators: list):
        self.generators = generators

    def reduce(self, f: MPoly) -> MPoly:
        return reduce_poly(f, self.generators)

    def contains(self, f: MPoly) -> bool:
        return self.reduce(f).is_zero()

    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].degree() == 0

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"GroebnerBasis({self.generators})"


def buchberger(gens: list) -> GroebnerBasis:
    """Buchberger with the coprime and chain criteria, normal selection."""
    basis = [g.primitive() for g in gens if g]
    if not basis:
        raise PreconditionError("empty generator list")
    nvars = basis[0].nvars

    pairs = []
    counter = 0

    def push(i, j):
        nonlocal counter
        l = _mono_lcm(basis[i].lm(), basis[j].lm())
        heapq.heappush(pairs, (sum(l), grevlex_key(l), counter, i, j, l))
        counter += 1

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)

    dropped = set()
    while pairs:
        _, _, _, i, j, l = heapq.heappop(pairs)
        if (i, j) in dropped:
            continue
        fi, fj = basis[i], basis[j]
        # coprime criterion
        if _mono_lcm(fi.lm(), fj.lm()) == tuple(a + b for a, b in zip(fi.lm(), fj.lm())):
            continue
        # chain criterion: some k with lm(k) | lcm and both pairs handled
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(basis[k].lm(), l):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in dropped and p2 in dropped:
                    skip = True
                    break
        if skip:
            dropped.add((i, j))
            continue
        dropped.add((i, j))
        s = s_polynomial(fi, fj)
        r = reduce_poly(s, basis)
        if r:
            basis.append(r)
            new = len(basis) - 1
            for k in range(new):
                push(k, new)
            if r.degree() == 0:
                break

    return GroebnerBasis(_interreduce(basis, nvars))


def _interreduce(basis: list, nvars: int) -> list:
    # drop generators whose leading term is divisible by another's
    basis = [g for g in basis if g]
    if any(g.degree() == 0 for g in basis):
        return [MPoly.constant(nvars, 1)]
    keep = []
    lms = [g.lm() for g in basis]
    for i, g in enumerate(basis):
        if any(j != i and _divides(lms[j], lms[i])
               and (not _divides(lms[i], lms[j]) or j < i)
               for j in range(len(basis))):
            continue
        keep.append(g)
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = reduce_poly(g, others) if others else g.primitive()
        if r:
            out.append(r.monic())
    out.sort(key=lambda g: grevlex_key(g.lm()))
    return out


def is_unit_ideal(gens: list) -> bool:
    return buchberger(gens).is_unit()


#: the paths of smooth_cubic_certificate
CONIC_BUNDLE = "conic-bundle"
MACAULAY_MOD_P = "macaulay-mod-p"
MACAULAY_EXACT = "macaulay-exact"


def smooth_cubic(S) -> bool:
    """Exact smoothness of a cubic surface F = 0 in P^3 over Q: the
    verdict of smooth_cubic_certificate."""
    return smooth_cubic_certificate(S)[0]


def smooth_cubic_certificate(S) -> tuple:
    """(verdict, path): exact smoothness of a cubic surface F = 0 in P^3
    over Q, and the path that decided it.

    A CubicSurface with a known_line goes through the conic bundle of the
    planes through the line (CONIC_BUNDLE, _conic_bundle).  A bare
    CubicForm4, or a surface without a line, goes through the Macaulay
    matrix: by Euler's formula Sing(S) is the common zero set of the four
    partials of F.  Four quadrics in four variables have no common zero
    exactly when they form a regular sequence; the quotient then has
    Hilbert series (1 + t)^4, so their multiples by the 20 cubic monomials
    span all 56 quintic monomials.  S is smooth iff that 80 x 56 Macaulay
    matrix of the primitive integer form has rank 56.  Full rank mod
    MACAULAY_PRIME proves it over Q (MACAULAY_MOD_P); only a deficient
    rank mod p falls through to the exact rank (MACAULAY_EXACT)."""
    F = S.F if hasattr(S, "F") else S
    if not isinstance(F, CubicForm4) or F.is_zero():
        raise ZeroPolynomialError("smoothness of a zero form")
    ints = F.primitive_coeffs()[1]
    line = getattr(S, "known_line", None)
    if line is not None:
        disc, resultant = _conic_bundle(ints, line)
        return resultant != 0 and _five_distinct_roots(disc), CONIC_BUNDLE
    rows = []
    for d in CubicForm4(ints).partials():
        for m in monomials_deg3():
            row = [0] * len(_QUINTIC_COLUMN)
            for e, c in d.items():
                row[_QUINTIC_COLUMN[tuple(a + b for a, b in zip(e, m))]] = int(c)
            rows.append(row)
    # reduced in Python integers: a coefficient may exceed int64
    residues = np.array([[[x % MACAULAY_PRIME for x in row] for row in rows]],
                        dtype=np.int64)
    full = len(_QUINTIC_COLUMN)
    if column_ranks_mod_p(residues, [MACAULAY_PRIME])[0, -1] == full:
        return True, MACAULAY_MOD_P
    return rank(Matrix.from_rows(rows)) == full, MACAULAY_EXACT


def _bmul(f: list, g: list) -> list:
    """Product of binary forms given by their coefficient lists, the
    coefficient of lambda^k at index k."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _conic_bundle(ints: dict, line) -> tuple:
    """(discriminant, resultant) of the cubic F (integer coefficient map)
    through the line L on it.  S is smooth iff the planes through L cut
    the residual conics in a bundle whose discriminant is a binary quintic
    with five distinct roots, and the four partials of F share no root on
    L, that is, the resultant is nonzero.

    L's integer points p, q and two unit vectors e_a, e_b form a basis,
    and F(w0 e_a + w1 e_b + y2 p + y3 q) = w0 A(y) + w1 B(y) + (terms of
    degree >= 2 in w), since F vanishes on L.  On the plane
    (w0 : w1) = (lambda : mu) the residual conic in (y2, y3, s) has twice
    its Gram matrix [[2a, b, d2], [b, 2c, d3], [d2, d3, 2k]]: a, b, c are
    linear, d2, d3 quadratic and k cubic in (lambda, mu), so its
    determinant, 8 times the discriminant, is a binary quintic (its half
    is returned).  Along L the derivatives in the directions p and q
    vanish, so the four partials share a root on L exactly when
    A = dF/dx_a and B = dF/dx_b do, that is, when the resultant of the
    binary quadratics A and B vanishes."""
    p, q = (pt.coords for pt in line.points)
    c, d = next((c, d) for c in range(4) for d in range(c + 1, 4)
                if p[c] * q[d] != p[d] * q[c])
    a, b = (m for m in range(4) if m not in (c, d))
    # parts[deg in w][y-monomial index][power of w0]: the coefficient of
    # w0^i w1^(deg - i) y2^(3 - deg - j) y3^j
    parts = {deg: [[0] * (deg + 1) for _ in range(4 - deg)]
             for deg in (1, 2, 3)}
    for e, coeff in ints.items():
        factors = [m for m in range(4) for _ in range(e[m])]
        # each factor x_m = y2 p_m + y3 q_m + [m = a] w0 + [m = b] w1
        # contributes either its part on L or its w
        for mask in range(1, 8):
            w0 = w1 = 0
            form = [coeff]
            for bit, m in enumerate(factors):
                if mask >> bit & 1:
                    if m == a:
                        w0 += 1
                    elif m == b:
                        w1 += 1
                    else:
                        break
                else:
                    form = [x * p[m] + y * q[m]
                            for x, y in zip(form + [0], [0] + form)]
            else:
                for j, x in enumerate(form):
                    parts[w0 + w1][j][w0] += x
    (y22, y23, y33), (ys2, ys3), (k,) = parts[1], parts[2], parts[3]
    det = [4 * x - y - z + u - v for x, y, z, u, v in zip(
        _bmul(_bmul(y22, y33), k), _bmul(y22, _bmul(ys3, ys3)),
        _bmul(_bmul(y23, y23), k), _bmul(y23, _bmul(ys2, ys3)),
        _bmul(y33, _bmul(ys2, ys2)))]
    (f0, g0), (f1, g1), (f2, g2) = parts[1]
    return BinaryQuintic(det), ((f0 * g2 - f2 * g0) ** 2
                                - (f0 * g1 - f1 * g0) * (f1 * g2 - f2 * g1))


def _five_distinct_roots(quintic: BinaryQuintic) -> bool:
    """A nonzero binary quintic with five distinct roots in P^1: at most a
    simple root at infinity and a squarefree dehomogenization."""
    if quintic.is_zero() or quintic.infinity_multiplicity() > 1:
        return False
    return quintic.dehomogenized().is_squarefree()


def smooth_dp4(V) -> bool:
    """Exact smoothness of an intersection of two quadrics in P^4: the
    pencil determinant det(lambda*Q0 + mu*Q1) is a nonzero binary quintic
    with five distinct roots in P^1 (Reid 1972)."""
    return _five_distinct_roots(V.pencil_quintic())
