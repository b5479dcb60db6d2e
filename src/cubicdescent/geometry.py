"""Blow-up and blow-down between cubic surfaces with a line and quadric
pencils with a point, tritangent analysis, and a coefficient reducer.

Conventions.  cubic_to_dp4 decomposes F = l0*q0 + l1*q1 by a canonical
linear solve (free variables zero under deterministic elimination) and
returns the pencil q0 + l1*x4, q1 - l0*x4.  dp4_to_cubic moves the marked
point to (0:0:0:0:1) by a unimodular integer change, splits each quadric
as q_i + l_i*x4, and returns q0*l1 - q1*l0 with the line l0 = l1 = 0.
roundtrip_check composes the point move with the x4 shear and sign flip
that fix the decomposition gauge, under which the two constructions are
exactly inverse on pencil spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .descent import DP4Surface
from .errors import (DegeneratePencilError, DegenerateSurfaceError,
                     LineNotOnSurfaceError, PointNotOnSurfaceError,
                     PreconditionError)
from .forms import (CubicForm4, LinForm, ProjLine, ProjPoint, QuadForm,
                    _pencil_minor, contains_line, monomials_deg3,
                    p1_normalize, pencil_determinant)
from .intfactor import over_common_denominator, squarefree_class
from .linalg import Matrix, _int_det, _int_rank, nullspace, rank, solve_linear
from .polyfactor import factor_unipoly
from .unipoly import UniPoly

QUAD_INDEX = [(i, j) for i in range(4) for j in range(i, 4)]


@dataclass
class CubicOrigin:
    """Recorded by cubic_to_dp4: the cut forms of the line on the cubic."""

    l0: LinForm
    l1: LinForm


@dataclass
class CubicSurface:
    F: CubicForm4
    known_line: ProjLine | None = None
    provenance: object | None = None

    def __post_init__(self):
        if self.F.is_zero():
            raise DegenerateSurfaceError("cubic form is identically zero")
        if self.known_line is not None and not contains_line(self.F, self.known_line):
            raise LineNotOnSurfaceError("known_line does not lie on the surface")


@dataclass(frozen=True)
class TritangentEntry:
    """One degenerate member of the pencil.

    For a rational pencil root: rank, kernel, square class of the
    determinant of the form on a complement of the kernel (split_disc),
    and, when the surface came from a cubic, the tritangent plane in the
    cubic's coordinates.  For an irreducible factor of degree >= 2 the
    entry carries the factor and the square class of the norm of the
    complement determinant across its conjugate roots.
    """

    pencil_root: object       # (lambda, mu) tuple or UniPoly factor
    multiplicity: int = 1
    rank_at_root: int | None = None
    kernel: tuple | None = None
    plane: LinForm | None = None
    split_disc: int | None = None
    norm_class: int | None = None


def _decompose(F: CubicForm4, l0: LinForm, l1: LinForm):
    """Canonical (A, B) with F = l0*A + l1*B, free variables zero.

    Returns None when the system is inconsistent (line not on surface).
    """
    monos = monomials_deg3()
    mono_index = {m: k for k, m in enumerate(monos)}
    rows = [[Fraction(0)] * 20 for _ in range(20)]
    for col, (i, j) in enumerate(QUAD_INDEX):
        base = [0, 0, 0, 0]
        base[i] += 1
        base[j] += 1
        for k in range(4):
            e = list(base)
            e[k] += 1
            e = tuple(e)
            if l0.coeffs[k]:
                rows[mono_index[e]][col] += l0.coeffs[k]
            if l1.coeffs[k]:
                rows[mono_index[e]][col + 10] += l1.coeffs[k]
    rhs = [F.coeffs.get(m, Fraction(0)) for m in monos]
    sol = solve_linear(Matrix.from_rows(rows), rhs)
    if sol is None:
        return None
    qa = QuadForm.from_poly_coeffs(4, {ij: sol[c] for c, ij in enumerate(QUAD_INDEX)})
    qb = QuadForm.from_poly_coeffs(4, {ij: sol[c + 10] for c, ij in enumerate(QUAD_INDEX)})
    return qa, qb


def _assemble_quadric5(q: QuadForm, l: LinForm, sign: int) -> QuadForm:
    """q(x0..x3) + sign * l(x0..x3) * x4 as a 5-variable form: with
    q = N / d and l = L / e, the Gram numerators over 2 * d * e are 2*e*N
    bordered by sign * d * L."""
    ls, e = over_common_denominator(l.coeffs)
    border = [sign * q.den * v for v in ls]
    num = []
    for i in range(4):
        num.extend(2 * e * v for v in q.num[4 * i:4 * i + 4])
        num.append(border[i])
    return QuadForm._from_num(5, num + border + [0], 2 * q.den * e)


def _split_quadric5(Q: QuadForm):
    """Inverse of _assemble_quadric5 for a form with no x4^2 term."""
    if Q.num[24]:
        raise PreconditionError("quadric has an x4^2 term")
    q = QuadForm._from_num(
        4, [Q.num[5 * i + j] for i in range(4) for j in range(4)], Q.den)
    l = LinForm([Fraction(2 * Q.num[5 * j + 4], Q.den) for j in range(4)])
    return q, l


def cubic_to_dp4(S: CubicSurface | CubicForm4, l0: LinForm, l1: LinForm):
    """Write F = l0*q0 + l1*q1 and return the quadric pencil
    (q0 + l1*x4, q1 - l0*x4) together with (q0, q1)."""
    F = S.F if isinstance(S, CubicSurface) else S
    if rank(Matrix.from_rows([l0.coeffs, l1.coeffs])) != 2:
        raise PreconditionError("cut forms must be independent")
    dec = _decompose(F, l0, l1)
    if dec is None:
        raise LineNotOnSurfaceError("F is not in the ideal (l0, l1)")
    q0, q1 = dec
    Q0 = _assemble_quadric5(q0, l1, +1)
    Q1 = _assemble_quadric5(q1, l0, -1)
    surface = DP4Surface(Q0, Q1, provenance=CubicOrigin(l0, l1))
    return surface, q0, q1


def _unimodular_point_move(p: ProjPoint) -> Matrix:
    """Unimodular integer C with C * (0, 0, 0, 0, 1) = p: the inverse of a
    move U with U * p = (0, 0, 0, 0, 1).

    Euclidean reduction: shear every entry by nearest-integer multiples of
    the smallest nonzero entry until one entry survives; primitivity makes
    it +-1, and a final swap parks it last.  Each row operation on the
    vector is mirrored by the inverse column operation on C, so C * v = p
    throughout.  Fully deterministic.
    """
    v = list(p.coords)
    n = len(v)
    c = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap(i, j):
        v[i], v[j] = v[j], v[i]
        for row in c:
            row[i], row[j] = row[j], row[i]

    def shear(i, j, q):
        # v_i <- v_i - q * v_j; column_j of C gains q * column_i
        v[i] -= q * v[j]
        for row in c:
            row[j] += q * row[i]

    def nearest(a, b):
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
        return q

    while sum(1 for x in v if x != 0) > 1:
        piv = min((i for i in range(n) if v[i] != 0), key=lambda i: (abs(v[i]), i))
        for i in range(n):
            if i != piv and v[i] != 0:
                shear(i, piv, nearest(v[i], v[piv]))
    hot = next(i for i in range(n) if v[i] != 0)
    if hot != n - 1:
        swap(hot, n - 1)
    if v[n - 1] < 0:
        v[n - 1] = -v[n - 1]
        for row in c:
            row[n - 1] = -row[n - 1]
    assert v == [0] * (n - 1) + [1], "point was not primitive"
    return Matrix.from_rows(c)


def _divide_quad_by_linear(upper, l: LinForm) -> LinForm | None:
    """h with q = l * h for the quadric q with the polynomial coefficients
    upper, in QUAD_INDEX order, or None when l does not divide q."""
    rows = []
    for (i, j) in QUAD_INDEX:
        row = [Fraction(0)] * 4
        # coefficient of x_i x_j in l * h
        row[j] += l.coeffs[i]
        if i != j:
            row[i] += l.coeffs[j]
        rows.append(row)
    sol = solve_linear(Matrix.from_rows(rows), upper)
    if sol is None:
        return None
    return LinForm(sol)


def dp4_to_cubic(V: DP4Surface, P: ProjPoint) -> CubicSurface:
    """Blow up the rational point P on V: move P to (0:0:0:0:1), split
    Q_i = q_i + l_i*x4 and return the cubic q0*l1 - q1*l0 with the line
    l0 = l1 = 0."""
    if not isinstance(P, ProjPoint):
        P = ProjPoint(P)
    if V.Q0.evaluate(P.coords) != 0 or V.Q1.evaluate(P.coords) != 0:
        raise PointNotOnSurfaceError(f"{P} does not lie on both quadrics")
    c = _unimodular_point_move(P)
    Q0, Q1 = V.Q0.substitute(c), V.Q1.substitute(c)
    _, l0 = _split_quadric5(Q0)
    _, l1 = _split_quadric5(Q1)
    if rank(Matrix.from_rows([l0.coeffs, l1.coeffs])) != 2:
        raise DegenerateSurfaceError(
            "blow-up produces dependent cut forms (bad point)")

    # with Q_i = N_i / d_i, q_i has the coefficients U_i / d_i (U_i the
    # upper numerators of N_i) and l_i = 2 * L_i / d_i (L_i the last
    # column of N_i): F = 2 * (U0 * L1 - U1 * L0) / (d0 * d1)
    f_terms: dict = {}
    for (qq, ll, sign) in ((Q0, Q1, +1), (Q1, Q0, -1)):
        for (i, j) in QUAD_INDEX:
            cc = qq.num[5 * i + j] * (1 if i == j else 2)
            if cc == 0:
                continue
            for k in range(4):
                lk = ll.num[5 * k + 4]
                if lk == 0:
                    continue
                e = [0, 0, 0, 0]
                e[i] += 1
                e[j] += 1
                e[k] += 1
                e = tuple(e)
                f_terms[e] = f_terms.get(e, 0) + sign * cc * lk
    den = Q0.den * Q1.den
    F = CubicForm4({e: Fraction(2 * v, den) for e, v in f_terms.items()})
    if F.is_zero():
        raise DegenerateSurfaceError("blow-up produces the zero cubic")
    return CubicSurface(F, known_line=ProjLine.from_forms(l0, l1))


def roundtrip_check(V: DP4Surface, P: ProjPoint) -> bool:
    """Blow up at P, decompose the cubic along the produced line, and
    check that the recovered pencil spans exactly the coordinate-moved
    original pencil.

    The canonical decomposition F = l0*A + l1*B differs from (-q1, q0) by
    an x4 shear: A = -q1 + l1*h.  The point move composed with that shear
    and an x4 sign flip is the change under which the two pencils agree."""
    if not isinstance(P, ProjPoint):
        P = ProjPoint(P)
    S = dp4_to_cubic(V, P)
    l0, l1 = S.known_line.forms
    V2, a_star, _ = cubic_to_dp4(S, l0, l1)
    c = _unimodular_point_move(P)
    q1, _ = _split_quadric5(V.Q1.substitute(c))
    h = _divide_quad_by_linear(
        [a + b for a, b in zip(a_star.upper_coeffs(), q1.upper_coeffs())], l1)
    assert h is not None, "decomposition gauge is always an x4 shear"
    w = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    for j in range(4):
        w[4][j] = -h.coeffs[j]
    w[4][4] = Fraction(-1)
    change = c @ Matrix.from_rows(w)
    return _same_span((V.Q0.substitute(change), V.Q1.substitute(change)),
                      (V2.Q0, V2.Q1))


def _same_span(pair_a, pair_b) -> bool:
    def rank_of(*forms):
        return _int_rank([list(q.num) for q in forms])

    if rank_of(*pair_a) != 2 or rank_of(*pair_b) != 2:
        return False
    return rank_of(*pair_a, *pair_b) == 2


def tritangent_analysis(V: DP4Surface) -> list:
    """Factor the pencil determinant and describe each degenerate member.

    Rational roots get rank, kernel, split_disc (square class of the
    degenerate form's determinant on a complement of its kernel) and the
    tritangent plane in cubic coordinates when the surface was produced
    by cubic_to_dp4.  Irreducible factors of degree >= 2 get the square
    class of the conjugate-product of complement determinants.
    """
    bq = pencil_determinant(V.Q0, V.Q1)
    if bq.is_zero():
        raise DegeneratePencilError("pencil determinant vanishes identically")
    dehom = bq.dehomogenized()
    entries = []
    origin = V.provenance if isinstance(V.provenance, CubicOrigin) else None
    d0, d1 = V.Q0.den, V.Q1.den

    def make_rational_entry(lam, mu, mult):
        # d0 * d1 * (lam * A0 + mu * A1) on the integer numerators: the
        # same kernel, and each 4 x 4 minor (d0 * d1)^4 times as large
        m = [lam * d1 * x + mu * d0 * y for x, y in zip(V.Q0.num, V.Q1.num)]
        ker = nullspace(Matrix(5, 5, m))
        rk = 5 - len(ker)
        kernel = disc = None
        if len(ker) == 1:
            # the coordinate hyperplane at the first nonzero entry of the
            # kernel is a complement of it
            kernel = ker[0]
            k = next(i for i, x in enumerate(kernel) if x)
            idx = [i for i in range(5) if i != k]
            minor = _int_det([[m[5 * i + j] for j in idx] for i in idx])
            disc = squarefree_class(Fraction(minor, (d0 * d1) ** 4))
        plane = None
        if origin is not None:
            coeffs = [lam * origin.l1.coeffs[j] - mu * origin.l0.coeffs[j]
                      for j in range(4)]
            plane = LinForm(coeffs).primitive()
        return TritangentEntry(pencil_root=(lam, mu), multiplicity=mult,
                               rank_at_root=rk, kernel=kernel, plane=plane,
                               split_disc=disc)

    if dehom.degree >= 1:
        _, factors = factor_unipoly(dehom)
        for f, mult in factors:
            if f.degree == 1:
                t = -f[0]
                lam, mu = p1_normalize(t, 1)
                entries.append(make_rational_entry(lam, mu, mult))
            else:
                entries.append(TritangentEntry(
                    pencil_root=f, multiplicity=mult,
                    norm_class=_conjugate_norm_class(V, f)))
    inf_mult = bq.infinity_multiplicity()
    if inf_mult:
        entries.append(make_rational_entry(1, 0, inf_mult))
    return entries


def _conjugate_norm_class(V: DP4Surface, f: UniPoly) -> int | None:
    """Square class of the product, over the roots of f, of the complement
    determinant of the degenerate member t*A0 + A1."""
    for k in range(5):
        g = _pencil_minor(V.Q0, V.Q1, [i for i in range(5) if i != k])
        if g.is_zero():
            continue
        res = f.resultant(g)        # 0 exactly when f and g share a root
        if res != 0:
            return squarefree_class(res)
    return None


def tritangent_square_product(entries) -> int | None:
    """Square class of the product of all five splitting discriminants;
    1 for every smooth surface.  None when a root is degenerate."""
    acc = Fraction(1)
    for e in entries:
        if e.multiplicity != 1:
            return None
        if isinstance(e.pencil_root, tuple):
            if e.split_disc is None:
                return None
            acc *= e.split_disc
        else:
            if e.norm_class is None:
                return None
            acc *= e.norm_class
    return squarefree_class(acc)


# The reducer's moves: the elementary shears x_i -> x_i + s*x_j (i != j,
# s = +-1), in scan order.  Permutations and sign flips of the variables
# leave the objective unchanged, so a strict-improvement scan could never
# accept one.
SHEARS = tuple((i, j, s) for i in range(4) for j in range(4) if i != j
               for s in (1, -1))


@cache
def _shear_terms() -> tuple:
    """For each move of SHEARS, the (source, target, factor) terms it adds
    to a coefficient vector over monomials_deg3(): by the binomial theorem,
    x^e gains C(e_i, m) * s^m * x^(e - m*u_i + m*u_j) for 1 <= m <= e_i."""
    monos = monomials_deg3()
    index = {e: k for k, e in enumerate(monos)}
    table = []
    for i, j, s in SHEARS:
        terms = []
        for src, e in enumerate(monos):
            for m in range(1, e[i] + 1):
                f = list(e)
                f[i] -= m
                f[j] += m
                terms.append((src, index[tuple(f)], comb(e[i], m) * s ** m))
        table.append(tuple(terms))
    return tuple(table)


def _shear(vec: list, terms) -> list:
    """The integer coefficient vector of a cubic after one shear."""
    out = list(vec)
    for src, dst, f in terms:
        out[dst] += f * vec[src]
    return out


def _size(values):
    return (max(abs(v) for v in values), sum(v * v for v in values))


def greedy_reduce(S: CubicSurface) -> CubicSurface:
    """Hill-climb over integral changes of variables, accepting a move iff
    it strictly lowers (max |coefficient|, sum of squares); deterministic
    first-improvement scan; stops at a local minimum.

    The moves act on the primitive integer coefficients directly: a shear
    is unimodular, so the coefficients stay primitive and the objective
    needs no content.  The cumulative change matrix is recorded in the
    provenance so the input can be reproduced exactly."""
    _, ints = S.F.primitive_coeffs()
    monos = monomials_deg3()
    vec = [ints.get(e, 0) for e in monos]
    total = [[int(a == b) for b in range(4)] for a in range(4)]
    total_inv = [list(row) for row in total]
    best = _size(vec)
    improved = True
    while improved:
        improved = False
        for (i, j, s), terms in zip(SHEARS, _shear_terms()):
            cand = _shear(vec, terms)
            val = _size(cand)
            if val < best:
                vec, best, improved = cand, val, True
                # total <- total @ (I + s*E_ij): column j gains s * column i;
                # its inverse <- (I - s*E_ij) @ inverse: row i loses s * row j
                for row in total:
                    row[j] += s * row[i]
                total_inv[i] = [a - s * b
                                for a, b in zip(total_inv[i], total_inv[j])]
                break
    _, ints = CubicForm4(dict(zip(monos, vec))).primitive_coeffs()
    change = Matrix.from_rows(total)
    line = None
    if S.known_line is not None:
        uinv = Matrix.from_rows(total_inv)
        p, q = S.known_line.points
        line = ProjLine.from_points(ProjPoint(uinv.mul_vec(p.coords)),
                                    ProjPoint(uinv.mul_vec(q.coords)))
    return CubicSurface(CubicForm4(ints), known_line=line,
                        provenance={"reduced_from": S, "change": change})
