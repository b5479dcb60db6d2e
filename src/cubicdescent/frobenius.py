"""Finite-field reduction, point counts, line censuses, and Frobenius
conjugacy-class sampling for descent-built surfaces.

The class of Frobenius at a good odd prime q is read off the
factorization mod q of each rational irreducible factor of the quintic
(cycle type, per block of tritangent planes) plus Euler square tests of
the splitting element in the residue fields (cycle signs).  The
splitting element is the discriminant-adjusted radicand class from the
descent report; its total sign is +1 at every good prime, matching the
even-sign group that acts on the lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .descent import RadicandReport
from .errors import BadPrimeError, BudgetExceededError
from .forms import CubicForm4, QuadForm
from .gfpoly import (ExtField, gp_factor_squarefree, gp_is_squarefree,
                     gp_pow_mod, gp_rem)
from .intfactor import primes_up_to
from .lines27 import (GroupElt, anchored_class_members, class_representative,
                      minimal_cover_subgroup, orbits, pic_trace_of_class)
DEFAULT_BUDGET = 100_000_000


@dataclass(frozen=True)
class FrobClass:
    """Multiset of (cycle length, cycle sign product), sorted."""

    parts: tuple

    def __post_init__(self):
        if self.total_sign != 1:
            raise BadPrimeError("total sign of a sampled class must be +1")

    @classmethod
    def from_blocks(cls, blocks) -> "FrobClass":
        """The plain class of per-block parts: their sorted union."""
        return cls(tuple(sorted(part for block in blocks for part in block)))

    @property
    def total_sign(self) -> int:
        total = 1
        for _, s in self.parts:
            total *= s
        return total

    def cycle_type(self) -> tuple:
        return tuple(sorted(d for d, _ in self.parts))

    def representative(self) -> GroupElt:
        return class_representative(self.parts)

    def pic_trace(self) -> int:
        return pic_trace_of_class(self.parts)


def _reduce_fraction(c: Fraction, p: int) -> int:
    c = Fraction(c)
    if c.denominator % p == 0:
        raise BadPrimeError(f"denominator divisible by {p}")
    return c.numerator * pow(c.denominator, p - 2, p) % p


def reduce_cubic_mod_p(F: CubicForm4, p: int) -> dict:
    """Coefficient map of F mod p; flags p as bad when a denominator
    vanishes or the whole form does."""
    out = {}
    for e, c in F.coeffs.items():
        v = _reduce_fraction(c, p)
        if v:
            out[e] = v
    if not out:
        raise BadPrimeError(f"cubic form vanishes mod {p}")
    return out


def reduce_quadric_mod_p(q: QuadForm, p: int) -> list:
    """Gram matrix of q mod p (list of lists)."""
    if p == 2:
        raise BadPrimeError("Gram matrices need odd characteristic")
    g = [[_reduce_fraction(q.gram[i, j], p) for j in range(q.n)]
         for i in range(q.n)]
    if all(all(x == 0 for x in row) for row in g):
        raise BadPrimeError(f"quadric vanishes mod {p}")
    return g


def reduce_dp4_mod_p(V, p: int):
    """Both Gram matrices mod p; bad when the reduced pencil degenerates."""
    g0 = reduce_quadric_mod_p(V.Q0, p)
    g1 = reduce_quadric_mod_p(V.Q1, p)
    flat0 = [x for row in g0 for x in row]
    flat1 = [x for row in g1 for x in row]
    # proportionality test over F_p
    for i, x in enumerate(flat0):
        if x:
            c = flat1[i] * pow(x, p - 2, p) % p
            if all((c * a - b) % p == 0 for a, b in zip(flat0, flat1)):
                raise BadPrimeError(f"pencil degenerates mod {p}")
            break
    return g0, g1


def count_points_cubic(F: CubicForm4, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """#S(F_p) for the cubic surface, by full enumeration over P^3(F_p)."""
    total_pts = p ** 3 + p ** 2 + p + 1
    if total_pts * 20 > budget:
        raise BudgetExceededError(f"P^3(F_{p}) enumeration exceeds budget")
    coeffs = reduce_cubic_mod_p(F, p)
    exps = list(coeffs)
    # vectorized over the affine chart grids
    count = 0
    for lead in range(3, -1, -1):
        nfree = 3 - lead
        if nfree == 0:
            x = [np.array([0])] * lead + [np.array([1])]
        else:
            grid = np.indices([p] * nfree, dtype=np.int64).reshape(nfree, -1)
            x = ([np.zeros(grid.shape[1], dtype=np.int64)] * lead
                 + [np.ones(grid.shape[1], dtype=np.int64)]
                 + [grid[i] for i in range(nfree)])
        acc = np.zeros(x[0].shape, dtype=np.int64)
        for e in exps:
            term = np.full(x[0].shape, coeffs[e], dtype=np.int64)
            for i in range(4):
                for _ in range(e[i]):
                    term = term * x[i] % p
            acc = (acc + term) % p
        count += int(np.count_nonzero(acc == 0))
    return count


def count_points_dp4(V, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """#V(F_p) for the quadric intersection, over P^4(F_p)."""
    total_pts = p ** 4 + p ** 3 + p ** 2 + p + 1
    if total_pts * 30 > budget:
        raise BudgetExceededError(f"P^4(F_{p}) enumeration exceeds budget")
    g0, g1 = reduce_dp4_mod_p(V, p)

    def upper(g):
        out = {}
        for i in range(5):
            for j in range(i, 5):
                c = g[i][j] if i == j else 2 * g[i][j] % p
                if c % p:
                    out[(i, j)] = c % p
        return out

    c0, c1 = upper(g0), upper(g1)
    count = 0
    for lead in range(4, -1, -1):
        nfree = 4 - lead
        if nfree == 0:
            x = [np.array([0])] * lead + [np.array([1])]
        else:
            grid = np.indices([p] * nfree, dtype=np.int64).reshape(nfree, -1)
            x = ([np.zeros(grid.shape[1], dtype=np.int64)] * lead
                 + [np.ones(grid.shape[1], dtype=np.int64)]
                 + [grid[i] for i in range(nfree)])
        ok = None
        for cs in (c0, c1):
            acc = np.zeros(x[0].shape, dtype=np.int64)
            for (i, j), c in cs.items():
                acc = (acc + c * x[i] % p * x[j]) % p
            good = acc == 0
            ok = good if ok is None else (ok & good)
        count += int(np.count_nonzero(ok))
    return count


def count_points_cubic_ext(F: CubicForm4, field: ExtField,
                           budget: int = DEFAULT_BUDGET) -> int:
    """#S(F_q) over an extension field, plain enumeration."""
    q = field.q
    total_pts = q ** 3 + q ** 2 + q + 1
    if total_pts * 40 > budget:
        raise BudgetExceededError("extension enumeration exceeds budget")
    coeffs = {e: field.element([_reduce_fraction(c, field.p)])
              for e, c in F.coeffs.items()}
    elements = [field.element(t) for t in field.elements()]
    zero = field.zero()
    one = field.one()
    count = 0
    for lead in range(3, -1, -1):
        nfree = 3 - lead

        def rec(point):
            nonlocal count
            if len(point) == nfree:
                x = (zero,) * lead + (one,) + tuple(point)
                acc = zero
                for e, c in coeffs.items():
                    term = c
                    for i in range(4):
                        for _ in range(e[i]):
                            term = field.mul(term, x[i])
                    acc = field.add(acc, term)
                if acc == zero:
                    count += 1
                return
            for v in elements:
                rec(point + (v,))

        rec(())
    return count


def singular_points_mod_p(F: CubicForm4, field: ExtField) -> int:
    """Number of points of P^3(F_q) where all four partials and F vanish."""
    coeffs = reduce_cubic_mod_p(F, field.p)
    partials = []
    for i in range(4):
        terms = {}
        for e, c in coeffs.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                key = tuple(e2)
                terms[key] = (terms.get(key, 0) + c * e[i]) % field.p
        partials.append({k: v for k, v in terms.items() if v})
    elements = [field.element(t) for t in field.elements()]
    zero = field.zero()
    one = field.one()

    def value(terms, x):
        acc = zero
        for e, c in terms.items():
            term = field.element([c])
            for i in range(4):
                for _ in range(e[i]):
                    term = field.mul(term, x[i])
            acc = field.add(acc, term)
        return acc

    hits = 0
    for lead in range(3, -1, -1):
        nfree = 3 - lead

        def rec(point):
            nonlocal hits
            if len(point) == nfree:
                x = (zero,) * lead + (one,) + tuple(point)
                if value(coeffs, x) != zero:
                    return
                if all(value(t, x) == zero for t in partials):
                    hits += 1
                return
            for v in elements:
                rec(point + (v,))

        rec(())
    return hits


def census_lines(F: CubicForm4, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of F_p-rational lines on the cubic surface.

    Scans all (p^2+1)(p^2+p+1) lines of P^3(F_p) via row-echelon
    parametrization of 2-dimensional subspaces.
    """
    n_lines = (p * p + 1) * (p * p + p + 1)
    if n_lines * 30 > budget:
        raise BudgetExceededError(f"line census at p={p} exceeds budget")
    coeffs = reduce_cubic_mod_p(F, p)

    def binary_cubic_zero(u, v) -> bool:
        # coefficients of S(s*u + t*v) as a cubic in (s, t), mod p
        acc = [0, 0, 0, 0]
        for e, c in coeffs.items():
            local = [c, 0, 0, 0]
            deg = 0
            for i in range(4):
                for _ in range(e[i]):
                    nxt = [0, 0, 0, 0]
                    for k in range(deg + 1):
                        if local[k]:
                            nxt[k + 1] = (nxt[k + 1] + local[k] * u[i]) % p
                            nxt[k] = (nxt[k] + local[k] * v[i]) % p
                    local = nxt
                    deg += 1
            for k in range(4):
                acc[k] = (acc[k] + local[k]) % p
        return all(a == 0 for a in acc)

    count = 0
    for i in range(4):
        for j in range(i + 1, 4):
            free_u = [k for k in range(j + 1, 4)]          # columns > j, row u
            free_uv = [k for k in range(i + 1, 4) if k != j]  # columns > i except j
            nf_u = len(free_u)
            nf_v = len(free_uv)
            for a in range(p ** nf_u):
                ud = [0, 0, 0, 0]
                ud[j] = 1
                aa = a
                for k in free_u:
                    ud[k] = aa % p
                    aa //= p
                for b in range(p ** nf_v):
                    vd = [0, 0, 0, 0]
                    vd[i] = 1
                    bb = b
                    for k in free_uv:
                        vd[k] = bb % p
                        bb //= p
                    if binary_cubic_zero(ud, vd):
                        count += 1
    return count


def good_prime(report: RadicandReport, q: int) -> bool:
    """Odd q not dividing disc(p), any relevant denominator, or the norm
    of the splitting element."""
    if q == 2 or _vanishes_mod(report.disc_tritangent, q):
        return False
    for c in report.splitting_element.poly.coeffs:
        if Fraction(c).denominator % q == 0:
            return False
    if _vanishes_mod(report.splitting_norm, q):
        return False
    return all(Fraction(c).denominator % q
               for c in report.tritangent_poly.coeffs)


def _vanishes_mod(c: Fraction, q: int) -> bool:
    c = Fraction(c)
    return c.numerator % q == 0 or c.denominator % q == 0


def frobenius_class(report: RadicandReport, q: int) -> FrobClass:
    """The class of Frobenius at q: the sorted union of the per-block
    parts of frobenius_class_anchored."""
    return FrobClass.from_blocks(frobenius_class_anchored(report, q)[1])


def _euler_square(elt, modulus, q: int) -> bool:
    """Euler criterion in F_q[T]/(modulus) for irreducible modulus."""
    d = len(modulus) - 1
    e = (q ** d - 1) // 2
    return gp_pow_mod(elt, e, modulus, q) == [1]


def frobenius_class_anchored(report: RadicandReport, q: int):
    """Cycle/sign data anchored to the rational irreducible factors of
    the quintic (each factor is a Galois orbit of tritangent planes):
    factor each one mod q for the cycle lengths, and Euler-test the
    splitting element in each residue field for the cycle signs.

    Returns (block_sizes, per-block parts) in the canonical factor order
    of factor_unipoly."""
    if not good_prime(report, q):
        raise BadPrimeError(f"{q} is not a good prime for this input")
    elt_poly = [_reduce_fraction(c, q)
                for c in report.splitting_element.poly.coeffs]
    block_sizes = []
    blocks = []
    for fk, mult in report.rational_factors:
        assert mult == 1
        block_sizes.append(fk.degree)
        fq = [_reduce_fraction(c, q) for c in fk.coeffs]
        if not gp_is_squarefree(fq, q):
            raise BadPrimeError(f"factor not squarefree mod {q}")
        parts = []
        for f in gp_factor_squarefree(fq, q):
            img = gp_rem(list(elt_poly), f, q)
            if not img:
                raise BadPrimeError(f"splitting element vanishes mod {q}")
            sign = 1 if _euler_square(img, f, q) else -1
            parts.append((len(f) - 1, sign))
        blocks.append(tuple(sorted(parts)))
    return tuple(block_sizes), tuple(blocks)


@dataclass
class SamplingReport:
    """Aggregate of per-prime classes plus the heuristic subgroup fit.

    The fitted subgroup is the smallest one realizing every sampled
    anchored class (cycle data per rational factor of the quintic); the
    identification is sampling-based, not a certificate.
    """

    primes: list
    classes: list
    distinct_classes: list
    anchored_classes: list
    subgroup_order: int | None
    orbit_lengths: list | None
    heuristic: bool = True

    @property
    def sample_count(self) -> int:
        return len(self.primes)


def sample_frobenius(report: RadicandReport, prime_count: int = 40,
                     prime_bound: int = 500) -> SamplingReport:
    """Classes at the first prime_count good primes below prime_bound,
    plus the minimal subgroup realizing every sampled anchored class."""
    primes, classes, anchored = [], [], []
    block_sizes = None
    for q in primes_up_to(prime_bound):
        if len(primes) >= prime_count:
            break
        try:
            sizes, blocks = frobenius_class_anchored(report, q)
            cls = FrobClass.from_blocks(blocks)
        except BadPrimeError:
            continue
        primes.append(q)
        classes.append(cls)
        anchored.append(blocks)
        block_sizes = sizes
    distinct_plain = sorted({c.parts for c in classes})
    distinct_anchored = sorted(set(anchored))
    member_lists = [anchored_class_members(a, block_sizes)
                    for a in distinct_anchored]
    elems = None
    if all(member_lists):
        elems, _ = minimal_cover_subgroup(member_lists)
    if elems is None:
        return SamplingReport(primes, classes, distinct_plain,
                              distinct_anchored, None, None)
    lengths = orbits(elems)
    return SamplingReport(primes, classes, distinct_plain, distinct_anchored,
                          len(elems), lengths)


def lefschetz_check(F: CubicForm4, q: int, cls: FrobClass,
                    budget: int = DEFAULT_BUDGET) -> bool:
    """#S(F_q) == q^2 + t*q + 1 with t the Picard trace of the class."""
    t = cls.pic_trace()
    return count_points_cubic(F, q, budget) == q * q + t * q + 1
