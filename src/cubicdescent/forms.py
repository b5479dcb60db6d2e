"""Quadratic and cubic forms, projective points and lines, quadric pencils.

Quadratic forms are symmetric Gram matrices over Q, as integer numerators
over one denominator (half-integer entries appear when polynomial cross
coefficients are odd); cubic forms in four variables are sparse
exponent-tuple maps of integer numerators over one denominator, which one
kernel, _expand, multiplies out under an integer change of variables.
Projective points are primitive integer vectors with the first nonzero
coordinate positive.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from operator import mul

from .errors import PreconditionError, ZeroPolynomialError
from .intfactor import (as_fraction, lowest_terms, over_common_denominator,
                        primitive_part)
from .linalg import Matrix, _int_det, charpoly, nullspace, rank
from .polyfactor import factor_unipoly
from .unipoly import UniPoly


def monomials_deg3() -> list:
    """Exponent tuples of the 20 degree-3 monomials in 4 variables, in a
    fixed (descending lexicographic) order."""
    return sorted(_exps(4, 3), reverse=True)


def _exps(nvars: int, deg: int):
    if nvars == 1:
        yield (deg,)
        return
    for k in range(deg, -1, -1):
        for rest in _exps(nvars - 1, deg - k):
            yield (k,) + rest


class QuadForm:
    """Quadratic form in n variables: its symmetric Gram matrix G as the
    row-major integer numerators num over one positive denominator den,
    gcd(*num, den) = 1.  Kernels run on num and divide once, at the end.

    Value at x is x^T * G * x; the polynomial coefficient of x_i*x_j
    (i < j) is twice the Gram entry.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, gram: Matrix):
        if gram.rows != gram.cols:
            raise PreconditionError("Gram matrix must be square")
        if gram.rows not in (3, 4, 5):
            raise PreconditionError("supported variable counts: 3, 4, 5")
        if not gram.is_symmetric():
            raise PreconditionError("Gram matrix must be symmetric")
        self.n, self.num, self.den = gram.rows, gram.num, gram.den

    @classmethod
    def _from_num(cls, n: int, num, den: int) -> "QuadForm":
        """The form whose Gram matrix has the row-major integer numerators
        num, a symmetric matrix, over den > 0; reduced to lowest terms."""
        if n not in (3, 4, 5):
            raise PreconditionError("supported variable counts: 3, 4, 5")
        q = cls.__new__(cls)
        q.n = n
        q.num, q.den = lowest_terms(num, den)
        return q

    @classmethod
    def from_poly_coeffs(cls, n: int, coeffs: dict) -> "QuadForm":
        """Build from {(i, j): c} polynomial coefficients of x_i x_j, i <= j."""
        ints, d = over_common_denominator(coeffs.values())
        g = [[0] * n for _ in range(n)]
        for (i, j), c in zip(coeffs, ints):
            # the Gram matrix over 2 * d
            if i == j:
                g[i][i] += 2 * c
            else:
                g[i][j] += c
                g[j][i] += c
        return cls._from_num(n, [x for row in g for x in row], 2 * d)

    @classmethod
    def from_upper(cls, n: int, upper) -> "QuadForm":
        """Build from the row-major upper-triangular polynomial coefficient
        list [c00, c01, ..., c0(n-1), c11, ...]."""
        upper = list(upper)
        if len(upper) != n * (n + 1) // 2:
            raise PreconditionError("wrong number of coefficients")
        coeffs = {}
        k = 0
        for i in range(n):
            for j in range(i, n):
                coeffs[(i, j)] = upper[k]
                k += 1
        return cls.from_poly_coeffs(n, coeffs)

    @classmethod
    def diagonal(cls, values) -> "QuadForm":
        ints, d = over_common_denominator(values)
        n = len(ints)
        return cls._from_num(n, [ints[i] if i == j else 0
                                 for i in range(n) for j in range(n)], d)

    @property
    def gram(self) -> Matrix:
        """The Gram matrix num / den."""
        return Matrix._from_num(self.n, self.n, self.num, self.den)

    def upper_coeffs(self) -> list:
        """Row-major upper-triangular polynomial coefficients."""
        n, num = self.n, self.num
        return [Fraction(num[i * n + j] if i == j else 2 * num[i * n + j],
                         self.den) for i in range(n) for j in range(i, n)]

    def evaluate(self, point) -> Fraction:
        x, d = over_common_denominator(point)
        n, num = self.n, self.num
        if len(x) != n:
            raise PreconditionError(
                f"point has {len(x)} coordinates, the form {n} variables")
        return Fraction(sum(xi * sum(map(mul, num[i * n:(i + 1) * n], x))
                            for i, xi in enumerate(x) if xi), self.den * d * d)

    def substitute(self, change: Matrix) -> "QuadForm":
        """Form composed with x -> change * x: C^T * num * C on the
        numerators C of change over d, divided by den * d^2."""
        if change.rows != self.n:
            raise PreconditionError("change of variables has wrong shape")
        c, d = change.num, change.den
        n, m, num = self.n, change.cols, self.num
        cols = [c[j::m] for j in range(m)]
        rows = [num[i * n:(i + 1) * n] for i in range(n)]
        nc = [[sum(map(mul, row, col)) for row in rows] for col in cols]
        return QuadForm._from_num(m, [sum(map(mul, cj, nck)) for cj in cols
                                      for nck in nc], self.den * d * d)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        return (isinstance(other, QuadForm) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"QuadForm({self.n}, {self.upper_coeffs()})"


class LinForm:
    """Linear form in n variables."""

    __slots__ = ("n", "coeffs")

    def __init__(self, coeffs):
        self.coeffs = tuple(as_fraction(x) for x in coeffs)
        self.n = len(self.coeffs)

    def evaluate(self, point) -> Fraction:
        return sum(c * as_fraction(x) for c, x in zip(self.coeffs, point))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def primitive(self) -> "LinForm":
        """Integer model with content 1 and positive leading coefficient."""
        return LinForm(primitive_part(self.coeffs)[1])

    def __eq__(self, other):
        return isinstance(other, LinForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"LinForm({list(self.coeffs)})"


def _expand(num: dict, rows) -> dict:
    """The integer coefficients {exponent: c} of F(M * y), F homogeneous
    with the integer coefficients num and M the integer matrix with the
    given rows.  A term is keyed by the indices i of its factors x_i not
    yet expanded, sorted, and its monomial in y, held as one integer
    sum f_j * b^j (b above the degree, so a product is a sum); each round
    expands one factor x_i of every term into row_i . y."""
    if not num:
        return {}
    b = sum(next(iter(num))) + 1
    lin = [[(b ** j, a) for j, a in enumerate(row) if a] for row in rows]
    terms = {(tuple(i for i, k in enumerate(e) for _ in range(k)), 0): c
             for e, c in num.items()}
    for _ in range(b - 1):
        nxt = defaultdict(int)
        for (f, m), c in terms.items():
            rest = f[1:]
            for s, a in lin[f[0]]:
                nxt[rest, m + s] += c * a
        terms = nxt
    return {tuple(m // b ** j % b for j in range(len(rows[0]))): c
            for (_, m), c in terms.items() if c}


def _eval_map(num: dict, den: int, point) -> Fraction:
    """Value of the form num / den at the point: _expand on its numerators
    over d as one column, divided by den * d^degree."""
    x, d = over_common_denominator(point)
    out = _expand(num, [[v] for v in x])
    return sum((Fraction(v, den * d ** k) for (k,), v in out.items()),
               Fraction(0))


class CubicForm4:
    """Cubic form in 4 variables: its nonzero coefficients as the integer
    numerators num ({exponent 4-tuple (sum 3): int}) over one positive
    denominator den, in lowest terms.  Kernels run on num and divide once,
    at the end; coeffs gives the rational coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: dict):
        clean: dict = {}
        for e, c in coeffs.items():
            e = tuple(int(v) for v in e)
            if len(e) != 4 or any(v < 0 for v in e) or sum(e) != 3:
                raise PreconditionError(f"bad exponent tuple {e}")
            clean[e] = clean.get(e, 0) + as_fraction(c)
        # a zero has denominator 1, so dropping it keeps den
        nums, self.den = over_common_denominator(clean.values())
        self.num = {e: v for e, v in zip(clean, nums) if v}

    @classmethod
    def _from_num(cls, num: dict, den: int) -> "CubicForm4":
        """The form with the integer coefficients num over den != 0,
        zeros dropped, in lowest terms."""
        num = {e: v for e, v in num.items() if v}
        f = cls.__new__(cls)
        vals, f.den = lowest_terms(num.values(), den)
        f.num = dict(zip(num, vals))
        return f

    @property
    def coeffs(self) -> dict:
        """{exponent: Fraction} of the nonzero coefficients."""
        return {e: Fraction(v, self.den) for e, v in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def evaluate(self, point) -> Fraction:
        return _eval_map(self.num, self.den, point)

    def _partials(self) -> list:
        """The numerators over den of the four partial derivatives."""
        return [{e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i]
                 for e, v in self.num.items() if e[i]} for i in range(4)]

    def partials(self) -> list:
        """The four partial derivatives dF/dx_i as coefficient maps
        {exponent (sum 2): coefficient}; a partial that vanishes is {}."""
        return [{e: Fraction(v, self.den) for e, v in d.items()}
                for d in self._partials()]

    def gradient(self, point) -> tuple:
        return tuple(_eval_map(d, self.den, point) for d in self._partials())

    def substitute(self, change: Matrix) -> "CubicForm4":
        """Form composed with x -> change * x: _expand on the numerators
        of change over d, divided by den * d^3."""
        if change.rows != 4 or change.cols != 4:
            raise PreconditionError("change of variables must be 4x4")
        c = change.num
        return CubicForm4._from_num(
            _expand(self.num, [c[4 * i:4 * i + 4] for i in range(4)]),
            self.den * change.den ** 3)

    def primitive_coeffs(self):
        """(content, integer coefficient map) with content * ints == self,
        the coefficient at the largest exponent positive; the map runs in
        descending exponent order."""
        exps = sorted(self.num, reverse=True)
        content, ints = primitive_part(self.num[e] for e in exps)
        return content / self.den, dict(zip(exps, ints))

    def max_abs_coeff(self) -> Fraction:
        return Fraction(max(map(abs, self.num.values()), default=0), self.den)

    def __eq__(self, other):
        return (isinstance(other, CubicForm4) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), self.den))

    def __repr__(self):
        terms = sorted(self.coeffs.items(), reverse=True)
        return "CubicForm4(" + " + ".join(f"{c}*x^{e}" for e, c in terms) + ")"


class ProjPoint:
    """Point of projective space: primitive integer coordinates, first
    nonzero coordinate positive."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        content, ints = primitive_part(coords)
        if not content:
            raise PreconditionError("projective point needs a nonzero coordinate")
        self.coords = tuple(ints)

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def height(self) -> int:
        return max(abs(x) for x in self.coords)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __lt__(self, other):
        return self.coords < other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + " : ".join(str(x) for x in self.coords) + ")"


class ProjLine:
    """Line in P^3, stored as a point span and/or a cut by two forms.

    Either representation is converted to the other on demand; both are
    kept once computed.
    """

    __slots__ = ("_points", "_forms")

    def __init__(self, points=None, forms=None):
        if points is None and forms is None:
            raise PreconditionError("line needs points or forms")
        if points is not None:
            p, q = points
            if not isinstance(p, ProjPoint):
                p = ProjPoint(p)
            if not isinstance(q, ProjPoint):
                q = ProjPoint(q)
            if len(p) != 4 or len(q) != 4:
                raise PreconditionError("line points live in P^3")
            if p == q:
                raise PreconditionError("line needs two distinct points")
            points = (p, q)
        if forms is not None:
            f0, f1 = forms
            if not isinstance(f0, LinForm):
                f0 = LinForm(f0)
            if not isinstance(f1, LinForm):
                f1 = LinForm(f1)
            if f0.n != 4 or f1.n != 4:
                raise PreconditionError("cut forms live in 4 variables")
            if rank(Matrix.from_rows([f0.coeffs, f1.coeffs])) != 2:
                raise PreconditionError("cut forms must be independent")
            forms = (f0, f1)
        self._points = points
        self._forms = forms

    @classmethod
    def from_points(cls, p, q) -> "ProjLine":
        return cls(points=(p, q))

    @classmethod
    def from_forms(cls, f0, f1) -> "ProjLine":
        return cls(forms=(f0, f1))

    @property
    def points(self) -> tuple:
        if self._points is None:
            m = Matrix.from_rows([f.coeffs for f in self._forms])
            basis = nullspace(m)
            if len(basis) != 2:
                raise PreconditionError("cut forms do not define a line")
            self._points = (ProjPoint(basis[0]), ProjPoint(basis[1]))
        return self._points

    @property
    def forms(self) -> tuple:
        if self._forms is None:
            m = Matrix.from_rows([p.coords for p in self._points])
            basis = nullspace(m)
            if len(basis) != 2:
                raise PreconditionError("points do not define a line")
            self._forms = (LinForm(basis[0]), LinForm(basis[1]))
        return self._forms

    def canonical_key(self) -> tuple:
        """Canonical invariant of the line: the canonical nullspace of its
        two points, which depends on their span alone."""
        return tuple(nullspace(Matrix.from_rows([p.coords for p in self.points])))

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        p, q = self.points
        return f"ProjLine({p}, {q})"


class BinaryQuintic:
    """det(lambda*A0 + mu*A1) as a homogeneous binary quintic.

    coeffs[k] is the coefficient of lambda^k * mu^(5-k).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [as_fraction(c) for c in coeffs]
        if len(coeffs) != 6:
            raise PreconditionError("binary quintic needs 6 coefficients")
        self.coeffs = tuple(coeffs)

    def evaluate(self, lam, mu) -> Fraction:
        lam, mu = as_fraction(lam), as_fraction(mu)
        return sum(c * lam ** k * mu ** (5 - k) for k, c in enumerate(self.coeffs))

    def dehomogenized(self) -> UniPoly:
        """p(t) = D(t, 1); the root at infinity is the degree drop."""
        return UniPoly(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def infinity_multiplicity(self) -> int:
        if self.is_zero():
            raise ZeroPolynomialError("identically zero binary form")
        return 5 - self.dehomogenized().degree

    def rational_roots(self) -> list:
        """Rational roots as normalized (lambda, mu) integer pairs with
        multiplicity, mu > 0 except for the infinity root (1, 0).

        Multiplicity is exact; non-rational factors are ignored here.
        """
        if self.is_zero():
            raise ZeroPolynomialError("identically zero binary form")
        roots = []
        p = self.dehomogenized()
        if p.degree >= 1:
            _, factors = factor_unipoly(p)
            for f, mult in factors:
                if f.degree == 1:
                    t = -f[0]
                    roots.append((p1_normalize(t.numerator, t.denominator), mult))
        inf = self.infinity_multiplicity()
        if inf:
            roots.append(((1, 0), inf))
        return roots

    def __eq__(self, other):
        return isinstance(other, BinaryQuintic) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"BinaryQuintic({list(self.coeffs)})"


def p1_normalize(lam, mu) -> tuple:
    """Canonical integer representative of (lam : mu) in P^1: primitive,
    mu > 0, or (1, 0) for the point at infinity."""
    content, (b, a) = primitive_part((mu, lam))
    if not content:
        raise PreconditionError("(0 : 0) is not a point of P^1")
    return (a, b)


def contains_point(form, point) -> bool:
    return form.evaluate(point) == 0


def restrict_to_hyperplane(q: QuadForm, l: LinForm):
    """Restriction of a 4-variable quadratic form to the hyperplane l = 0.

    Pivots on the largest-|coefficient| variable of l (ties: lowest index),
    substitutes it out, and returns (QuadForm(3), basis) where basis is the
    4x3 matrix whose columns span the hyperplane: restricted Gram equals
    basis^T * gram * basis.
    """
    if q.n != 4 or l.n != 4:
        raise PreconditionError("restriction expects 4-variable forms")
    if l.is_zero():
        raise PreconditionError("cannot restrict to the zero form")
    piv = 0
    best = abs(l.coeffs[0])
    for i in range(1, 4):
        if abs(l.coeffs[i]) > best:
            piv, best = i, abs(l.coeffs[i])
    rest = [i for i in range(4) if i != piv]
    cols = []
    for j in rest:
        col = [Fraction(0)] * 4
        col[j] = Fraction(1)
        col[piv] = -l.coeffs[j] / l.coeffs[piv]
        cols.append(col)
    basis = Matrix(4, 3, [cols[j][i] for i in range(4) for j in range(3)])
    return q.substitute(basis), basis


def _pencil_minor(q0: QuadForm, q1: QuadForm, idx) -> UniPoly:
    """det(t*A0 + A1) on the rows and columns idx, as a polynomial in t:
    for A_i = N_i / d_i, integer determinants of t*d1*N0 + d0*N1,
    interpolated, divided by (d0 * d1)^len(idx)."""
    n, k = q0.n, len(idx)
    a = [[q1.den * q0.num[i * n + j] for j in idx] for i in idx]
    b = [[q0.den * q1.num[i * n + j] for j in idx] for i in idx]
    ts = (0, 1, -1, 2, -2, 3)[:k + 1]
    poly = UniPoly.interpolate(ts, [
        _int_det([[t * x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        for t in ts])
    return poly * Fraction(1, (q0.den * q1.den) ** k)


def pencil_determinant(q0: QuadForm, q1: QuadForm) -> BinaryQuintic:
    """det(lambda*A0 + mu*A1) for 5-variable forms, exact.

    Interpolated from six evaluations of 5x5 Bareiss determinants.
    """
    if q0.n != 5 or q1.n != 5:
        raise PreconditionError("pencil determinant expects 5-variable forms")
    poly = _pencil_minor(q0, q1, range(5))
    return BinaryQuintic([poly[k] for k in range(6)])


def line_section_cubic(s: CubicForm4, line: ProjLine) -> list:
    """Coefficients [c0..c3] of S(u*P + v*Q) as a binary cubic in (u, v):
    c_k multiplies u^k * v^(3-k).  _expand on the integer columns [P Q],
    divided once by den."""
    p, q = line.points
    out = _expand(s.num, [[a, b] for a, b in zip(p, q)])
    return [Fraction(out.get((k, 3 - k), 0), s.den) for k in range(4)]


def contains_line(s: CubicForm4, line: ProjLine) -> bool:
    """True iff the parametrized line section of the cubic is identically
    zero."""
    return all(c == 0 for c in line_section_cubic(s, line))


def signature(q: QuadForm):
    """Sylvester inertia (positives, negatives, zeros), read off the
    characteristic polynomial of the Gram numerators (den > 0 times the
    Gram matrix, so the same signs) by Descartes' rule of signs, which is
    exact for a polynomial with only real roots: the zeros are the
    multiplicity of the root 0 and the positives the sign changes of the
    remaining coefficients."""
    coeffs = charpoly(Matrix._from_num(q.n, q.n, q.num)).num
    zeros = next(k for k, c in enumerate(coeffs) if c)
    signs = [c > 0 for c in coeffs[zeros:] if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return (pos, q.n - zeros - pos, zeros)
