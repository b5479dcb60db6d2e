"""Descent construction: quadric pencils over Q from quintic algebra data.

From (A, a, b, l) with l a linear form in five variables with coefficients
c_0..c_4 in A, the two Gram matrices trace(a*c_j*c_k) and trace(b*c_j*c_k)
are rational and define a degree-4 Del Pezzo surface whose base change
diagonalizes to sum iota_i(a) x_i^2 = sum iota_i(b) x_i^2 = 0.

The radicand report records, for each rational root t of the
characteristic polynomial of m = -b/a, the tritangent pencil point (t : 1)
and the rational radicand norm(a) * iota(a^3 * different(m)) resolved at
that root, together with its square class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import (DegeneratePencilError, DependentFormsError,
                     NonGeneratorError, ZeroDivisorError)
from .etale import DEGREE, AlgElement, EtaleAlgebra
from .forms import BinaryQuintic, QuadForm, p1_normalize, pencil_determinant
from .intfactor import is_perfect_square, squarefree_class
from .linalg import (Matrix, _back_substitute, _bareiss_echelon, _int_det,
                     _int_rank)
from .polyfactor import factor_unipoly
from .unipoly import UniPoly


@dataclass(frozen=True)
class DescentInput:
    """Algebra data (A, a, b, l) for the quadric-pair construction."""

    algebra: EtaleAlgebra
    a: AlgElement
    b: AlgElement
    l: tuple  # five AlgElement coefficients of the linear form

    def __post_init__(self):
        if len(self.l) != DEGREE:
            raise DependentFormsError("l needs exactly five coefficients")
        # the trace form of an etale algebra is nondegenerate, so the
        # c_j are independent exactly when their numerator rows are
        if _int_det([list(c.num) for c in self.l]) == 0:
            raise DependentFormsError(
                "conjugate linear forms are dependent (trace form degenerate)")


@dataclass
class DP4Surface:
    """Intersection of two 5-variable quadrics spanning a genuine pencil."""

    Q0: QuadForm
    Q1: QuadForm
    provenance: DescentInput | None = None

    def __post_init__(self):
        if self.Q0.n != 5 or self.Q1.n != 5:
            raise DegeneratePencilError("quadrics must have 5 variables")
        if _int_rank([list(self.Q0.num), list(self.Q1.num)]) != 2:
            raise DegeneratePencilError("quadrics do not span a 2-dimensional pencil")

    def pencil_quintic(self) -> BinaryQuintic:
        return pencil_determinant(self.Q0, self.Q1)

    def evaluate(self, point):
        return self.Q0.evaluate(point), self.Q1.evaluate(point)


@dataclass(frozen=True)
class RadicandEntry:
    point: tuple          # (lambda, mu) pencil parameter, normalized
    radicand: Fraction
    sq_class: int


@dataclass
class RadicandReport:
    """rho = N(a) * a^3 * different(-b/a) and its rational specializations.

    splitting_element carries the discriminant-adjusted class
    disc(charpoly(m)) * rho whose conjugates generate the actual
    line-splitting fields; its norm is a perfect square for every valid
    input, which is the exact global form of the evenness of the sign
    group acting on the lines.  splitting_psi is the same class written
    as a polynomial in m = -b/a, psi_e = disc(charpoly(m)) * psi_rho with
    psi_rho(m) = rho: an element of Q[m]/(tritangent_poly), whose residue
    fields are the ones the Frobenius reading works in.  For the default
    x = r, m = r and psi_e has the coordinates of splitting_element.
    """

    rho: AlgElement
    conj_poly: UniPoly
    tritangent_poly: UniPoly
    entries: list
    norm_rho: Fraction
    disc_tritangent: Fraction
    splitting_element: AlgElement
    splitting_psi: AlgElement

    @property
    def norm_is_square(self) -> bool:
        return is_perfect_square(self.norm_rho)

    @cached_property
    def splitting_norm(self) -> Fraction:
        """N(disc_tritangent * rho) = disc_tritangent^5 * N(rho)."""
        return self.disc_tritangent ** DEGREE * self.norm_rho

    @cached_property
    def bad_prime_product(self) -> int:
        """The product of every numerator and denominator that a good
        prime must not divide (frobenius.good_prime): those of
        disc_tritangent and splitting_norm, and the denominators of the
        coefficients of splitting_psi and tritangent_poly.  It is 0 when
        the discriminant or the norm is."""
        out = 1
        for c in (self.disc_tritangent, self.splitting_norm):
            out *= c.numerator * c.denominator
        for f in (self.splitting_psi, self.tritangent_poly):
            for v in f.num:
                out *= f.den // gcd(v, f.den)
        return abs(out)

    @cached_property
    def rational_factors(self) -> tuple:
        """(factor, multiplicity) pairs of tritangent_poly over Q, in the
        order of factor_unipoly."""
        return tuple(factor_unipoly(self.tritangent_poly)[1])

    @cached_property
    def factor_numerators(self) -> tuple:
        """(numerators, denominator) of each rational factor, in the
        order of rational_factors."""
        return tuple((f.num, f.den) for f, _ in self.rational_factors)


def _trace_form(weight: AlgElement, basis: Matrix) -> QuadForm:
    """The form trace(weight * (sum_j x_j c_j)^2), column j of basis the
    coordinates of c_j: the Hankel form H[a][b] = Tr(weight * r^(a+b))
    of the power basis, sum_i w_i s_(i+a+b) on the numerators of weight
    and of the power sums, substituted by basis (C^T H C)."""
    algebra = weight.algebra
    s = algebra.power_sum_num
    h = [sum(wi * s[i + m] for i, wi in enumerate(weight.num) if wi)
         for m in range(2 * DEGREE - 1)]
    hankel = [h[a + b] for a in range(DEGREE) for b in range(DEGREE)]
    return QuadForm._from_num(DEGREE, hankel, weight.den
                              * algebra.power_sum_den).substitute(basis)


def power_basis_form(algebra: EtaleAlgebra) -> tuple:
    """The default linear form: c_j = r^j."""
    return algebra.power_basis()


def build_quadrics(inp: DescentInput) -> DP4Surface:
    """The two rational Gram matrices trace(a c_j c_k), trace(b c_j c_k)."""
    basis = Matrix.from_rows(zip(*(cj.coords() for cj in inp.l)))
    q0, q1 = _trace_form(inp.a, basis), _trace_form(inp.b, basis)
    try:
        return DP4Surface(q0, q1, provenance=inp)
    except DegeneratePencilError:
        raise DegeneratePencilError(
            "a and b produce proportional forms (degenerate pencil)")


def strategy_ab(algebra: EtaleAlgebra, x: AlgElement):
    """d = different(x); a = d*r, b = -x*a."""
    x = algebra.element(x)
    d = x.different()        # raises NonGeneratorError for non-generators
    a = d * algebra.r
    b = -(x * a)
    return a, b


def radicand_report(inp: DescentInput) -> RadicandReport:
    """Radicands at the rational tritangent pencil points.

    Requires a to be a unit and m = -b/a to generate the algebra.
    """
    algebra, a, b = inp.algebra, inp.a, inp.b
    chi_a = a.charpoly_of()
    norm_a = -chi_a[0]
    if norm_a == 0:                 # the units are the elements of nonzero norm
        raise ZeroDivisorError("a must be a unit to form -b/a")
    m = -(b * a.inverse(chi_a))
    chi_m = m.charpoly_of()
    if chi_m == algebra.p:          # x = r: keep the discriminant of p
        chi_m = algebra.p
    disc_m = chi_m.discriminant()   # kept, so EtaleAlgebra(chi_m) reuses it
    if disc_m == 0:                 # chi_m is not squarefree
        raise NonGeneratorError("-b/a does not generate the algebra")
    psi_algebra = algebra if chi_m is algebra.p else EtaleAlgebra(chi_m)
    # chi_m is squarefree, so chi_m'(m) is the different of m
    rho = a ** 3 * m.evaluate_poly(chi_m.derivative()) * norm_a
    conj_poly = rho.charpoly_of()

    # rho as a polynomial psi in m, psi(t) the radicand at (t : 1) for each
    # rational root t of chi_m.  With m^j = M_j / d_j and rho = R / e, one
    # Bareiss elimination of [M_0 .. M_4 | R] and the integer back
    # substitution give D * y for sum_j y_j M_j = R; psi_j = y_j d_j / e.
    powers = [algebra.one()]
    for _ in range(DEGREE - 1):
        powers.append(powers[-1] * m)
    rows = [[q.num[i] for q in powers] + [rho.num[i]] for i in range(DEGREE)]
    y, det = _back_substitute(rows, _bareiss_echelon(rows)[0], [0] * DEGREE,
                              DEGREE)
    psi = UniPoly._from_num([v * q.den for v, q in zip(y, powers)],
                            det * rho.den)

    report = RadicandReport(
        rho=rho,
        conj_poly=conj_poly,
        tritangent_poly=chi_m,
        entries=[],
        norm_rho=-conj_poly[0],
        disc_tritangent=disc_m,
        splitting_element=rho * disc_m,
        splitting_psi=psi_algebra.element(psi * disc_m),
    )
    roots = sorted(-g[0] for g, _ in report.rational_factors if g.degree == 1)
    for t in roots:
        rad = psi.evaluate(t)
        report.entries.append(RadicandEntry(
            point=p1_normalize(t, 1),
            radicand=rad,
            sq_class=squarefree_class(rad)))
    return report


def run_strategy(p: UniPoly, x=None, l=None):
    """Compose strategy_ab, build_quadrics and radicand_report.

    p must be a monic squarefree quintic; x defaults to r and l to the
    power basis.  Returns (DP4Surface, RadicandReport).
    """
    algebra = EtaleAlgebra(p)
    x = algebra.r if x is None else algebra.element(x)
    l = power_basis_form(algebra) if l is None else tuple(algebra.element(c) for c in l)
    a, b = strategy_ab(algebra, x)
    inp = DescentInput(algebra, a, b, l)
    surface = build_quadrics(inp)
    report = radicand_report(inp)
    return surface, report
