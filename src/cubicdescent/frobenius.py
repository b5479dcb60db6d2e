"""Finite-field reduction, point counts, line censuses, and Frobenius
conjugacy-class sampling for descent-built surfaces.

The class of Frobenius at a good odd prime q is read off each rational
irreducible factor f of the quintic (a block of tritangent planes) in
F_q[x]/(f): ranks of multiplication matrices count the roots of f in each
F_(q^d) (cycle type) and those at which the splitting element is a square
(cycle signs); no factor is split.  Every sampled prime is read in one
int64 array pass per block degree, one row per (factor, prime), on the
row kernels of gfpoly and the batched rank of linalg
(frobenius_readings).  The splitting element is the
discriminant-adjusted radicand class from the descent report, written as
a polynomial in m = -b/a like the factors; its total sign is +1 at every
good prime, matching the even-sign group that acts on the lines.

The point count of a quadric pair in P^4 comes from its pencil: by
Weil's Gauss sums, only the rank and the discriminant of each of the
p + 1 members, read off one symmetric elimination mod p, enter it.
The point counts of a cubic, its singular points and the line census
share one zero table: on each affine chart of P^(n-1)(F_p) the residue
coefficient maps of the forms are evaluated over the open int64 grid of
the free coordinates by Horner in the last coordinate (one broadcast
multiply-add per degree, reduced mod p), and the table marks each point
where every map vanishes.  The counts sum the table.  The line census
looks each line up at four of its points, u, v, u + v and v - u, whose
table indices are sums over one open grid per pivot pair; four points
need odd p.  An odd prime is good when it does not divide the report's
bad_prime_product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .descent import RadicandReport
from .errors import BadPrimeError, BudgetExceededError
from .forms import CubicForm4
from .gfpoly import (gp_rows_apply, gp_rows_compose, gp_rows_mul,
                     gp_rows_mul_matrix, gp_rows_pow, gp_rows_powers_of_x,
                     gp_rows_reduce)
from .intfactor import primes_up_to
from .linalg import column_ranks_mod_p
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


def _reduce(nums, den: int, q: int) -> list:
    """The residues mod q of the rationals nums[i] / den: each numerator
    times one inverse of den mod q (den must be a unit mod q)."""
    inv = pow(den, -1, q)
    return [n * inv % q for n in nums]


def _residues(num: dict, den: int, p: int) -> dict:
    """The nonzero residues {exponent: c mod p} of the coefficient map
    with the integer numerators num over den, reduced by _reduce."""
    if den % p == 0:
        raise BadPrimeError(f"denominator divisible by {p}")
    return {e: v for e, v in zip(num, _reduce(num.values(), den, p)) if v}


def reduce_cubic_mod_p(F: CubicForm4, p: int) -> dict:
    """Coefficient map of F mod p; flags p as bad when a denominator
    vanishes or the whole form does."""
    out = _residues(F.num, F.den, p)
    if not out:
        raise BadPrimeError(f"cubic form vanishes mod {p}")
    return out


def _dp4_grams_mod_p(V, p: int) -> tuple:
    """The Gram matrices num * den^-1 mod p of both quadrics, row-major
    (odd p); bad when a denominator or a quadric vanishes, or the reduced
    pencil degenerates (as num and den are coprime, p meets den exactly
    when it meets the polynomial coefficients' denominator)."""
    if p == 2:
        raise BadPrimeError("Gram matrices need odd characteristic")
    grams = []
    for q in (V.Q0, V.Q1):
        if q.den % p == 0:
            raise BadPrimeError(f"denominator divisible by {p}")
        g = _reduce(q.num, q.den, p)
        if not any(g):
            raise BadPrimeError(f"quadric vanishes mod {p}")
        grams.append(g)
    g0, g1 = grams
    k = next(i for i, v in enumerate(g0) if v)
    if all((g1[k] * a - g0[k] * b) % p == 0 for a, b in zip(g0, g1)):
        raise BadPrimeError(f"pencil degenerates mod {p}")
    return g0, g1


def reduce_dp4_mod_p(V, p: int):
    """Both quadrics as coefficient maps mod p (odd p), read off the
    residues of _dp4_grams_mod_p, which flags p as bad."""
    n = V.Q0.n
    upper = [(i, j, tuple((k == i) + (k == j) for k in range(n)))
             for i in range(n) for j in range(i, n)]
    out = []
    for g in _dp4_grams_mod_p(V, p):
        coeffs = {e: (1 + (i != j)) * g[i * n + j] % p for i, j, e in upper}
        out.append({e: c for e, c in coeffs.items() if c})
    return tuple(out)


def _charts(n: int, p: int):
    """The charts of P^(n-1)(F_p): for each lead index, zeros before it,
    1 at it and every residue after it.  Yields (lead, free), where free
    is the open int64 grid (np.ix_) of the n - 1 - lead free coordinates,
    each varying along its own axis."""
    for lead in range(n - 1, -1, -1):
        yield lead, np.ix_(*[np.arange(p, dtype=np.int64)] * (n - 1 - lead))


def _horner_mod_p(coeffs: dict, y, p: int):
    """Values mod p of the residue map {exponent: c} on the open grid y
    (one array per exponent slot).  Horner in the last coordinate: the
    terms are grouped by its exponent, each group is evaluated the same
    way on the grid of the remaining coordinates, and the groups are
    combined in one accumulator over the grid of y, updated in place by
    one multiply, one add and one reduction mod p per degree.  Every
    value stays below p^2 + p, so p < 2 * 10^9 keeps int64 exact."""
    if not y or not coeffs:
        return sum(coeffs.values()) % p
    groups = {}
    for e, c in coeffs.items():
        groups.setdefault(e[-1], {})[e[:-1]] = c
    top = max(groups)
    acc = np.empty(np.broadcast_shapes(*(a.shape for a in y)), dtype=np.int64)
    acc[...] = _horner_mod_p(groups[top], y[:-1], p)
    for d in range(top - 1, -1, -1):
        acc *= y[-1]
        if d in groups:
            acc += _horner_mod_p(groups[d], y[:-1], p)
        acc %= p
    return acc


def _zero_table(forms, n: int, p: int):
    """Boolean over every point of P^(n-1)(F_p), in _charts order and
    row-major within each chart: True where every residue map in forms
    vanishes.  The chart of lead k starts at (p^(n-1-k) - 1)/(p - 1), and
    its point with free coordinates x_m (m > k) sits x_m p^(n-1-m) after."""
    table = []
    for lead, free in _charts(n, p):
        zero = np.ones((p,) * len(free), dtype=bool)
        for f in forms:
            # zeros before lead and 1 at it; the form is homogeneous, so
            # the free exponents determine the exponent at lead
            on_chart = {e[lead + 1:]: c for e, c in f.items()
                        if not any(e[:lead])}
            zero &= _horner_mod_p(on_chart, free, p) == 0
        table.append(zero.ravel())
    return np.concatenate(table)


def _count_zeros(forms, n: int, p: int) -> int:
    """#points of P^(n-1)(F_p) where every residue map in forms vanishes."""
    return int(np.count_nonzero(_zero_table(forms, n, p)))


def _check_p3_budget(p: int, budget: int) -> None:
    if (p ** 3 + p ** 2 + p + 1) * 20 > budget:
        raise BudgetExceededError(f"P^3(F_{p}) enumeration exceeds budget")


def count_points_cubic(F: CubicForm4, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """#S(F_p) for the cubic surface, by full enumeration over P^3(F_p)."""
    _check_p3_budget(p, budget)
    return _count_zeros([reduce_cubic_mod_p(F, p)], 4, p)


def _rank_and_discriminant(g, q: int) -> tuple:
    """(r, D) for the symmetric matrix g mod odd q (rows of residues,
    changed in place): its rank r and the product D of the pivots of a
    congruence diagonalisation, the determinant of the nondegenerate part
    up to squares.  A pivot is a nonzero diagonal entry; when every live
    diagonal entry is zero but g_ij is not, x_i <- x_i + x_j puts 2 g_ij
    on the diagonal."""
    live = list(range(len(g)))
    disc = 1
    while live:
        k = next((i for i in live if g[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in live for j in live
                         if i < j and g[i][j]), None)
            if pair is None:
                break
            k, j = pair
            for m in live:
                g[k][m] = (g[k][m] + g[j][m]) % q
            for m in live:
                g[m][k] = (g[m][k] + g[m][j]) % q
        live.remove(k)
        pivot = g[k][k]
        disc = disc * pivot % q
        inv = pow(pivot, -1, q)
        for i in live:
            f = g[i][k] * inv % q
            if f:
                row, top = g[i], g[k]
                for m in live:
                    row[m] = (row[m] - f * top[m]) % q
    return len(g) - len(live), disc


def count_points_dp4(V, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """#V(F_p) for the quadric intersection, from its pencil (odd p).

    With G0, G1 the Gram residues of the pair (_dp4_grams_mod_p, so a bad
    prime raises as there), Weil's Gauss sums count the affine zeros as
    N = p^3 + (p - 1)/p^2 * T, where T sums, over the p + 1 members
    a*G0 + b*G1 of even rank r, eta((-1)^(r/2) D) p^(5 - r/2), with D the
    discriminant of the member's nondegenerate part and eta the quadratic
    character; members of odd rank cancel.  The count is (N - 1)/(p - 1),
    from p + 1 symmetric eliminations of 5 x 5 matrices.
    The budget still admits p exactly when 30 units per point of
    P^4(F_p) fit in it, the rule of the enumeration this count replaced,
    so the default budget admits p <= 41."""
    total_pts = p ** 4 + p ** 3 + p ** 2 + p + 1
    if total_pts * 30 > budget:
        raise BudgetExceededError(f"P^4(F_{p}) enumeration exceeds budget")
    g0, g1 = ([g[5 * i:5 * i + 5] for i in range(5)]
              for g in _dp4_grams_mod_p(V, p))
    # (1 : 0), then (t : 1) for every t
    members = [g0] + [[[(t * a + b) % p for a, b in zip(r0, r1)]
                       for r0, r1 in zip(g0, g1)] for t in range(p)]
    total = 0
    for g in members:
        r, disc = _rank_and_discriminant(g, p)
        if r % 2 == 0:
            eta = 1 if pow((-1) ** (r // 2) * disc, (p - 1) // 2, p) == 1 else -1
            total += eta * p ** (5 - r // 2)
    return (p ** 3 - 1 + (p - 1) * total // p ** 2) // (p - 1)


def singular_points_mod_p(F: CubicForm4, p: int) -> int:
    """Number of points of P^3(F_p) where F and its four partials vanish
    (a partial that vanishes mod p is the zero form)."""
    _check_p3_budget(p, DEFAULT_BUDGET)
    coeffs = reduce_cubic_mod_p(F, p)
    return _count_zeros(
        [coeffs] + [_residues(d, F.den, p) for d in F._partials()], 4, p)


def census_lines(F: CubicForm4, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of F_p-rational lines on the cubic surface (odd p).

    Scans all (p^2+1)(p^2+p+1) lines of P^3(F_p) in reduced echelon form:
    u from the chart with lead j, v (zero at j) from a chart of lead
    i < j.  The line lies on S exactly when S vanishes at u, v, u + v and
    v - u, four distinct points of the line when p is odd, since a nonzero
    binary cubic has at most 3 roots in P^1.  Each point is read from the
    zero table of S at its index; the points of one pivot pair range over
    an open grid of the free coordinates of u and of v.
    """
    n_lines = (p * p + 1) * (p * p + p + 1)
    if n_lines * 30 > budget:
        raise BudgetExceededError(f"line census at p={p} exceeds budget")
    if p == 2:
        raise BadPrimeError("the line census needs odd characteristic")
    on = _zero_table([reduce_cubic_mod_p(F, p)], 4, p)

    def index(x, lead):
        # x has zeros before lead and 1 at it
        return (p ** (3 - lead) - 1) // (p - 1) + sum(
            x[m] % p * p ** (3 - m) for m in range(lead + 1, 4))

    count = 0
    for i in range(4):
        for j in range(i + 1, 4):
            u, v = [0] * 4, [0] * 4
            u[j] = v[i] = 1
            # one open grid axis per free coordinate of u, then of v
            free = ([(u, m) for m in range(j + 1, 4)]
                    + [(v, m) for m in range(i + 1, 4) if m != j])
            axes = np.ix_(*[np.arange(p, dtype=np.int64)] * len(free))
            for (x, m), a in zip(free, axes):
                x[m] = a
            # u + v and v - u have 1 at i, like v
            on_line = (on[index(u, j)] & on[index(v, i)]
                       & on[index([a + b for a, b in zip(u, v)], i)]
                       & on[index([b - a for a, b in zip(u, v)], i)])
            count += int(np.count_nonzero(on_line))
    return count


def good_prime(report: RadicandReport, q: int) -> bool:
    """Odd prime q not dividing disc(p), any relevant denominator, or the
    norm of the splitting element: one remainder of the report's
    bad_prime_product."""
    return q != 2 and report.bad_prime_product % q != 0


def frobenius_class(report: RadicandReport, q: int) -> FrobClass:
    """The class of Frobenius at q: the sorted union of the per-block
    parts of frobenius_class_anchored."""
    return FrobClass.from_blocks(frobenius_class_anchored(report, q)[1])


def frobenius_class_anchored(report: RadicandReport, q: int):
    """Cycle/sign data anchored to the rational irreducible factors of
    the quintic (each factor is a Galois orbit of tritangent planes): the
    one-prime case of frobenius_readings.

    Returns (block_sizes, per-block parts) in the canonical factor order
    of factor_unipoly; raises BadPrimeError at a prime that is not good or
    at which the reading fails."""
    if not good_prime(report, q):
        raise BadPrimeError(f"{q} is not a good prime for this input")
    reading = frobenius_readings(report, [q])[0]
    if isinstance(reading, BadPrimeError):
        raise reading
    return reading


def frobenius_readings(report: RadicandReport, primes: list) -> list:
    """The anchored reading at each of the good primes in the list, in one
    batch per block degree: per prime, (block_sizes, per-block parts), or the
    BadPrimeError of the first block whose factor is not squarefree mod q
    or on which the splitting element vanishes mod q.  The primes must be
    below the row kernels' bound (gfpoly), or ValueError is raised."""
    if not primes:
        return []
    psi = report.splitting_psi
    elts = [_reduce(psi.num, psi.den, q) for q in primes]
    sizes = tuple(len(num) - 1 for num, _ in report.factor_numerators)
    assert all(mult == 1 for _, mult in report.rational_factors)
    found = {}
    for n in sorted(set(sizes)):
        blocks = [k for k, size in enumerate(sizes) if size == n]
        rows = _read_blocks([report.factor_numerators[k] for k in blocks],
                            elts, primes)
        for i, k in enumerate(blocks):
            found[k] = rows[i * len(primes):(i + 1) * len(primes)]
    out = []
    for j, q in enumerate(primes):
        parts = [found[k][j] for k in range(len(sizes))]
        failed = next((p for p in parts if isinstance(p, str)), None)
        out.append(BadPrimeError(f"{failed} mod {q}") if failed
                   else (sizes, tuple(parts)))
    return out


def _read_blocks(factors, elts, primes) -> list:
    """The parts of every factor of one degree n at every prime, one row
    per (factor, prime), factor-major; a failed row holds the reason.

    In A = F_q[x]/(f), with h = x^q, Phi the Frobenius matrix (column i
    is h^i) and e the splitting element reduced mod f, the rows carry
    h_d = x^(q^d) = Phi h_(d-1) and E_d = e^((q^d - 1)/2)
    = Phi(E_(d-1)) E_1 for d <= n.  M(a) is the matrix of multiplication
    by a.  The roots of f in F_(q^d) number r_d = n - rank M(h_d - x), and
    those at which e is a square in F_(q^d) number
    s_d = n - rank [M(h_d - x) | M(E_d - 1)].  A root of an irreducible
    factor of degree k | d is counted in s_d when the factor is a
    + cycle, or when d / k is even; so with c_k^+ and c_k^- the
    irreducible factors of degree k with e a square, or not, in their
    residue field, upward in d:
      d (c_d^+ + c_d^-) = r_d - sum_(k | d, k < d) k (c_k^+ + c_k^-),
      d c_d^+ = s_d - sum_(k | d, k < d) k (c_k^+ + [d / k even] c_k^-).
    f is squarefree mod q exactly when M(f') has full rank, and e
    vanishes at no root exactly when M(e) does."""
    n = len(factors[0][0]) - 1
    f = np.array([_reduce(num, den, q) for num, den in factors for q in primes],
                 dtype=np.int64)
    q = np.array(primes * len(factors), dtype=np.int64)
    rows = len(q)
    table = gp_rows_powers_of_x(f, q, max(2 * n - 1, len(elts[0])))
    e = gp_rows_reduce(np.array(elts * len(factors), dtype=np.int64),
                       table, q)
    one, x = table[:, 0], table[:, 1]
    # the two powers as one batch: x^q and e^((q - 1)/2)
    h, e1 = np.split(gp_rows_pow(np.concatenate([x, e]),
                                 np.concatenate([q, (q - 1) // 2]),
                                 np.concatenate([table, table]),
                                 np.concatenate([q, q])), 2)
    phi = gp_rows_compose(h, table, q)
    hs, es = [h], [e1]
    for _ in range(n - 1):
        hs.append(gp_rows_apply(phi, hs[-1], q))
        es.append(gp_rows_mul(gp_rows_apply(phi, es[-1], q), e1, table, q))
    fprime = f[:, 1:] * np.arange(1, n + 1)
    # M(h_d - x), M(E_d - 1), M(f') and M(e) as one batch
    elements = np.stack([hd - x for hd in hs] + [ed - one for ed in es]
                        + [fprime, e])
    mult = gp_rows_mul_matrix(elements % q[:, None], table, q)
    left = np.concatenate([mult[:n], mult[2 * n:]])
    right = np.concatenate([mult[n:2 * n], np.zeros_like(mult[2 * n:])])
    ranks = column_ranks_mod_p(
        np.concatenate([left, right], axis=3).reshape(-1, n, 2 * n),
        np.tile(q, n + 2)).reshape(n + 2, rows, 2 * n)
    roots = n - ranks[:n, :, n - 1]
    squares = n - ranks[:n, :, -1]
    plus, minus = {}, {}
    for d in range(1, n + 1):
        total, square = roots[d - 1], squares[d - 1]
        for k in range(1, d):
            if d % k == 0:
                total = total - k * (plus[k] + minus[k])
                square = square - k * (plus[k] + minus[k] * (d // k % 2 == 0))
        plus[d] = square // d
        minus[d] = total // d - plus[d]
    counts = np.stack([minus[d] for d in range(1, n + 1)]
                      + [plus[d] for d in range(1, n + 1)], axis=1).tolist()
    squarefree, unit = ranks[n:, :, n - 1] == n
    parts = {}
    out = []
    for row, c in enumerate(counts):
        if not squarefree[row]:
            out.append("factor not squarefree")
        elif not unit[row]:
            out.append("splitting element vanishes")
        else:
            key = tuple(c)
            if key not in parts:
                parts[key] = tuple(
                    part for d in range(1, n + 1)
                    for part in [(d, -1)] * c[d - 1] + [(d, 1)] * c[n + d - 1])
            out.append(parts[key])
    return out


@dataclass
class SamplingReport:
    """Aggregate of per-prime classes plus the heuristic subgroup fit.

    The fitted subgroup is the smallest one realizing every sampled
    anchored class (cycle data per rational factor of the quintic); the
    identification is sampling-based, not a certificate.  skipped lists
    (prime, BadPrimeError message) for every prime below the last sampled
    one that was not sampled.
    """

    primes: list
    classes: list
    distinct_classes: list
    anchored_classes: list
    subgroup_order: int | None
    orbit_lengths: list | None
    heuristic: bool = True
    skipped: list = field(default_factory=list)

    @property
    def sample_count(self) -> int:
        return len(self.primes)


def sample_frobenius(report: RadicandReport, prime_count: int = 40,
                     prime_bound: int = 500) -> SamplingReport:
    """Classes at the first prime_count good primes below prime_bound,
    plus the minimal subgroup realizing every sampled anchored class.
    With no sampled prime there is no evidence to fit: the subgroup order
    and the orbit lengths are None, as when no subgroup is found.

    The good primes are read in chunks by frobenius_readings: the first
    chunk holds prime_count of them, and each further one as many as
    the primes skipped so far left missing."""
    primes, classes, anchored, skipped = [], [], [], []
    block_sizes = None
    candidates = iter(primes_up_to(prime_bound))
    while len(primes) < prime_count:
        chunk = []
        for q in candidates:
            if good_prime(report, q):
                chunk.append(q)
                if len(primes) + len(chunk) == prime_count:
                    break
            else:
                skipped.append((q, f"{q} is not a good prime for this input"))
        if not chunk:
            break
        for q, reading in zip(chunk, frobenius_readings(report, chunk)):
            try:
                if isinstance(reading, BadPrimeError):
                    raise reading
                block_sizes, blocks = reading
                cls = FrobClass.from_blocks(blocks)
            except BadPrimeError as err:
                skipped.append((q, str(err)))
                continue
            primes.append(q)
            classes.append(cls)
            anchored.append(blocks)
    skipped = sorted(s for s in skipped if primes and s[0] < primes[-1])
    distinct_plain = sorted({c.parts for c in classes})
    distinct_anchored = sorted(set(anchored))
    member_lists = [anchored_class_members(a, block_sizes)
                    for a in distinct_anchored]
    elems = None
    if primes and all(member_lists):
        elems, chosen = minimal_cover_subgroup(member_lists)
    if elems is None:
        return SamplingReport(primes, classes, distinct_plain,
                              distinct_anchored, None, None, skipped=skipped)
    lengths = orbits(chosen)            # chosen generates elems
    return SamplingReport(primes, classes, distinct_plain, distinct_anchored,
                          len(elems), lengths, skipped=skipped)


def lefschetz_check(F: CubicForm4, q: int, cls: FrobClass,
                    budget: int = DEFAULT_BUDGET) -> bool:
    """#S(F_q) == q^2 + t*q + 1 with t the Picard trace of the class."""
    t = cls.pic_trace()
    return count_points_cubic(F, q, budget) == q * q + t * q + 1
