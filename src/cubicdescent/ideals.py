"""Exact smoothness: the Macaulay-matrix rank of the partials for cubic
surfaces and the pencil-determinant criterion for quadric pairs in P^4;
neither needs a Groebner basis.  The small Buchberger engine over Q
(`buchberger`, `is_unit_ideal`) serves as a test oracle: sparse
polynomials in up to 5 variables, grevlex order with x0 < x1 < ...,
content stripped to primitive integer form after every reduction, pairs
selected by (lcm degree, lcm, indices) with the coprime-leading-term and
chain criteria.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import PreconditionError, ZeroPolynomialError
from .forms import CubicForm4, monomials_deg3
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


def smooth_cubic(S) -> bool:
    """Exact smoothness of a cubic surface F = 0 in P^3 over Q.

    By Euler's formula Sing(S) is the common zero set of the four partials
    of F.  Four quadrics in four variables have no common zero exactly when
    they form a regular sequence; the quotient then has Hilbert series
    (1 + t)^4, so their multiples by the 20 cubic monomials span all 56
    quintic monomials.  S is smooth iff that 80 x 56 Macaulay matrix of
    the primitive integer form has rank 56.  Full rank mod MACAULAY_PRIME
    proves it over Q; only a deficient rank mod p falls through to the
    exact rank."""
    F = S.F if hasattr(S, "F") else S
    if not isinstance(F, CubicForm4) or F.is_zero():
        raise ZeroPolynomialError("smoothness of a zero form")
    rows = []
    for d in CubicForm4(F.primitive_coeffs()[1]).partials():
        for m in monomials_deg3():
            row = [0] * len(_QUINTIC_COLUMN)
            for e, c in d.items():
                row[_QUINTIC_COLUMN[tuple(a + b for a, b in zip(e, m))]] = int(c)
            rows.append(row)
    # reduced in Python integers: a coefficient may exceed int64
    residues = np.array([[[x % MACAULAY_PRIME for x in row] for row in rows]],
                        dtype=np.int64)
    full = len(_QUINTIC_COLUMN)
    return (bool(column_ranks_mod_p(residues, [MACAULAY_PRIME])[0, -1] == full)
            or rank(Matrix.from_rows(rows)) == full)


def smooth_dp4(V) -> bool:
    """Exact smoothness of an intersection of two quadrics in P^4: the
    pencil determinant det(lambda*Q0 + mu*Q1) is a nonzero binary quintic
    with five distinct roots in P^1 (Reid 1972), that is, at most a simple
    root at infinity and a squarefree dehomogenization."""
    quintic = V.pencil_quintic()
    if quintic.is_zero() or quintic.infinity_multiplicity() > 1:
        return False
    return quintic.dehomogenized().is_squarefree()
