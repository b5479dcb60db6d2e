"""Independent checks of the program's outputs.

Every check here recomputes what it needs in plain integer or Fraction
arithmetic written for the benchmark, or tests a property the method must
have.  No check compares against stored output, and none calls into
`cubicdescent`: the checks receive plain data (integer tuples, coefficient
dicts, (length, sign) multisets).  Each function returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt

# ---------------------------------------------------------------------------
# quadric pairs and points


def eval_quad(cs: dict, x) -> int:
    """Value of sum c_ij x_i x_j for a coefficient dict {(i, j): c}."""
    return sum(c * x[i] * x[j] for (i, j), c in cs.items())


def is_normalised(x) -> bool:
    """Primitive, with the first nonzero coordinate positive."""
    g = 0
    for v in x:
        g = gcd(g, v)
    if g != 1:
        return False
    first = next(v for v in x if v)
    return first > 0


def normalise(x) -> tuple:
    g = 0
    for v in x:
        g = gcd(g, v)
    x = [v // g for v in x]
    if next(v for v in x if v) < 0:
        x = [-v for v in x]
    return tuple(x)


def check_points(pair, points, height) -> list:
    """Every point lies on both quadrics, is normalised, within the
    height bound, and the list is sorted without repeats."""
    c0, c1 = pair
    problems = []
    for x in points:
        if len(x) != 5 or not any(x):
            problems.append(f"{x}: not a point of P^4")
            continue
        if not is_normalised(x):
            problems.append(f"{x}: not primitive and normalised")
        if max(abs(v) for v in x) > height:
            problems.append(f"{x}: height above {height}")
        if eval_quad(c0, x) or eval_quad(c1, x):
            problems.append(f"{x}: not on both quadrics")
    if list(points) != sorted(set(points)):
        problems.append("points not sorted or repeated")
    return problems


def naive_points(pair, height: int) -> list:
    """All normalised points of height <= height on both quadrics.  The
    loop runs over four coordinates; the fifth, x_k for a k with a nonzero
    coefficient c_kk in one of the forms, solves that form's quadratic
    a*x_k^2 + b*x_k + c = 0 by an integer square root."""
    k, solve = next(((k, cs) for k in range(5) for cs in pair
                     if cs.get((k, k))), (None, None))
    if k is None:                     # no x_i^2 term: loop over all five
        return sorted({normalise(x)
                       for x in product(range(-height, height + 1), repeat=5)
                       if any(x) and not eval_quad(pair[0], x)
                       and not eval_quad(pair[1], x)})
    rest = [i for i in range(5) if i != k]
    a = solve[(k, k)]
    linear = [solve.get((min(i, k), max(i, k)), 0) for i in rest]
    others = {(rest.index(i), rest.index(j)): c for (i, j), c in solve.items()
              if k not in (i, j)}
    # b and c are sums over the first three of y plus terms in y[3]
    c_lin = [others.get((i, 3), 0) for i in range(3)]
    c_sq = others.get((3, 3), 0)
    out = set()
    span = range(-height, height + 1)
    for head in product(span, repeat=3):
        b_head = sum(l * v for l, v in zip(linear, head))
        c_head = eval_quad(others, head + (0,))
        c_y3 = sum(l * v for l, v in zip(c_lin, head))
        for y3 in span:
            b = b_head + linear[3] * y3
            c = c_head + (c_y3 + c_sq * y3) * y3
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root == disc:
                _add_roots(out, pair, k, head + (y3,), a, b, root, height)
    return sorted(out)


def _add_roots(out, pair, k, y, a, b, root, height):
    """Add the points with x_k = (-b +- root) / 2a and the others y."""
    for num in {-b + root, -b - root}:
        if num % (2 * a) == 0 and abs(num // (2 * a)) <= height:
            x = list(y)
            x.insert(k, num // (2 * a))
            if any(x) and not eval_quad(pair[0], x) \
                    and not eval_quad(pair[1], x):
                out.add(normalise(x))


def check_against_naive(pair, points, height: int) -> list:
    """The reported points of height <= height are exactly the naive
    search's points."""
    mine = naive_points(pair, height)
    theirs = sorted(x for x in points if max(abs(v) for v in x) <= height)
    if mine != theirs:
        return [f"points of height <= {height} differ from the naive "
                f"search: {theirs} != {mine}"]
    return []


def check_contains(points, wanted) -> list:
    wanted = normalise(wanted)
    if wanted not in set(points):
        return [f"{wanted} not found"]
    return []


# ---------------------------------------------------------------------------
# univariate polynomials over Q (coefficient lists, lowest degree first)


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_rem(f, g):
    f = [Fraction(c) for c in _trim(f)]
    g = _trim(g)
    while len(f) >= len(g):
        c = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, gc in enumerate(g):
            f[shift + i] -= c * gc
        f = _trim(f)
    return f


def poly_gcd(f, g):
    f, g = _trim(f), _trim(g)
    while g:
        f, g = g, _poly_rem(f, g)
    return f


def is_squarefree(f) -> bool:
    f = _trim(f)
    if not f:
        return False
    deriv = [k * c for k, c in enumerate(f)][1:]
    return len(poly_gcd(f, deriv)) <= 1


def binary_form_squarefree(coeffs, degree: int) -> bool:
    """Whether sum coeffs[k] * t^k * s^(degree-k) has `degree` distinct
    roots in P^1: squarefree of full degree, or of degree one less with
    the remaining simple root at infinity."""
    f = _trim(coeffs)
    return len(f) - 1 in (degree, degree - 1) and is_squarefree(f)


def interpolate(ts, values):
    """Coefficients (lowest first) of the polynomial through (t, value)."""
    n = len(ts)
    out = [Fraction(0)] * n
    for i, ti in enumerate(ts):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, tj in enumerate(ts):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= tj * basis[k + 1]
            denom *= ti - tj
        for k in range(n):
            out[k] += values[i] * basis[k] / denom
    return out


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            result = -result
        result *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return result


def _gram(cs: dict, n: int):
    g = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in cs.items():
        if i == j:
            g[i][i] += c
        else:
            g[i][j] += Fraction(c, 2)
            g[j][i] += Fraction(c, 2)
    return g


def pencil_determinant(pair) -> list:
    """Coefficients in t of det(t*Q0 + Q1), lowest degree first; the t^5
    coefficient is det(Q0), so this is the binary quintic det(t*Q0 + s*Q1)
    read at s = 1."""
    g0, g1 = _gram(pair[0], 5), _gram(pair[1], 5)
    ts = list(range(6))
    vals = [det([[t * a + b for a, b in zip(r0, r1)]
                 for r0, r1 in zip(g0, g1)]) for t in ts]
    return interpolate(ts, vals)


def dp4_smooth_criterion(pair) -> bool:
    """A quadric pair in P^4 is smooth exactly when its pencil
    determinant is a squarefree binary quintic (degree 5 and squarefree
    when det(Q0) is nonzero)."""
    return binary_form_squarefree(pencil_determinant(pair), 5)


def check_dp4_verdict(pair, verdict) -> list:
    expected = dp4_smooth_criterion(pair)
    if verdict != expected:
        return [f"smooth_dp4 says {verdict}, pencil determinant criterion "
                f"says {expected}"]
    return []


def check_tritangents(pair, entries) -> list:
    """Tritangent entries, as (pencil point (lam, mu) or factor
    coefficients, multiplicity): degrees times multiplicities add up to 5,
    and every rational pencil point is a root of the pencil determinant."""
    g0, g1 = _gram(pair[0], 5), _gram(pair[1], 5)
    total = 0
    problems = []
    for root, mult in entries:
        if len(root) == 2:
            lam, mu = root
            total += mult
            if det([[lam * a + mu * b for a, b in zip(r0, r1)]
                    for r0, r1 in zip(g0, g1)]):
                problems.append(f"tritangent pencil point {root} is not a root")
        else:
            total += (len(root) - 1) * mult
    if total != 5:
        problems.append(f"tritangent entries cover degree {total}, not 5")
    return problems


# ---------------------------------------------------------------------------
# cubic surfaces with a line


def eval_cubic(coeffs: dict, x) -> Fraction:
    total = Fraction(0)
    for e, c in coeffs.items():
        t = Fraction(c)
        for v, k in zip(x, e):
            t *= Fraction(v) ** k
        total += t
    return total


def check_line_on_cubic(coeffs: dict, u, v) -> list:
    """F(a*u + b*v) is a binary cubic in (a, b); it is zero exactly when
    it vanishes at four distinct points of P^1."""
    for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):
        x = [a * p + b * q for p, q in zip(u, v)]
        if eval_cubic(coeffs, x) != 0:
            return [f"cubic does not vanish at {x} on its line"]
    return []


def _lin_subst(coeffs: dict, images) -> dict:
    """Substitute x_i -> sum_k images[i][k] * y_k into a cubic form in four
    variables; returns {exponent tuple in the y variables: coefficient}."""
    m = len(images[0])
    out: dict = {}
    for e, c in coeffs.items():
        terms = {(0,) * m: Fraction(c)}
        for i, k in enumerate(e):
            for _ in range(k):
                nxt: dict = {}
                for mono, val in terms.items():
                    for y, a in enumerate(images[i]):
                        if a:
                            mono2 = list(mono)
                            mono2[y] += 1
                            mono2 = tuple(mono2)
                            nxt[mono2] = nxt.get(mono2, 0) + val * a
                terms = nxt
        for mono, val in terms.items():
            out[mono] = out.get(mono, 0) + val
    return {mono: val for mono, val in out.items() if val}


def _solve(rows, rhs):
    """Solution of a square nonsingular system over Q."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                for k in range(c, n + 1):
                    m[r][k] -= f * m[c][k]
    return [m[i][n] / m[i][i] for i in range(n)]


def _complete_basis(l0, l1):
    """Rows l0, l1 and two unit vectors forming an invertible 4x4 matrix."""
    for a in range(4):
        for b in range(a + 1, 4):
            rows = [list(l0), list(l1),
                    [int(k == a) for k in range(4)],
                    [int(k == b) for k in range(4)]]
            if det(rows):
                return rows
    raise ValueError("cut forms are dependent")


def _inverse_columns(rows):
    """Columns of the inverse matrix: col[k] solves rows * col = e_k."""
    return [_solve(rows, [int(i == k) for i in range(4)]) for k in range(4)]


def conic_bundle_discriminant(coeffs: dict, l0, l1) -> list:
    """Coefficients in t of det of the residual conic in the plane
    l0 = t*s, l1 = s through the line l0 = l1 = 0: a binary quintic read
    at one chart, lowest degree first."""
    cols = _inverse_columns(_complete_basis(l0, l1))
    ts = list(range(6))
    vals = []
    for t in ts:
        # plane point = s*(t*c0 + c1) + y2*c2 + y3*c3 in new coordinates
        base = [t * a + b for a, b in zip(cols[0], cols[1])]
        images = [[base[i], cols[2][i], cols[3][i]] for i in range(4)]
        ternary = _lin_subst(coeffs, images)
        conic = {}
        for (ds, d2, d3), val in ternary.items():
            if ds == 0:
                raise ValueError("cubic does not contain the line")
            conic[(ds - 1, d2, d3)] = val
        g = [[Fraction(0)] * 3 for _ in range(3)]
        for mono, val in conic.items():
            idx = [k for k in range(3) for _ in range(mono[k])]
            i, j = idx
            if i == j:
                g[i][i] += val
            else:
                g[i][j] += val / 2
                g[j][i] += val / 2
        vals.append(det(g))
    return interpolate(ts, vals)


def _binary_common_root(forms) -> bool:
    """Whether binary quadratics (lists [c_y3^2, c_y2y3, c_y2^2]) share a
    root in P^1 over an algebraic closure."""
    nonzero = [f for f in forms if any(f)]
    if not nonzero:
        return True
    if all(f[2] == 0 for f in nonzero):
        return True                      # common root at y3 = 0
    g = nonzero[0]
    for f in nonzero[1:]:
        g = poly_gcd(g, f)
    return len(_trim(g)) > 1


def cubic_smooth_criterion(coeffs: dict, l0, l1) -> bool:
    """A cubic surface containing the line l0 = l1 = 0 is smooth exactly
    when the residual conics degenerate in five distinct planes through
    the line (the conic-bundle discriminant is a squarefree binary
    quintic) and no point of the line is singular."""
    if not binary_form_squarefree(conic_bundle_discriminant(coeffs, l0, l1), 5):
        return False
    cols = _inverse_columns(_complete_basis(l0, l1))
    # points of the line: y2 * c2 + y3 * c3; the partials restricted there
    line_images = [[cols[3][i], cols[2][i]] for i in range(4)]
    forms = []
    for k in range(4):
        partial = {}
        for e, c in coeffs.items():
            if e[k]:
                e2 = list(e)
                e2[k] -= 1
                partial[tuple(e2)] = partial.get(tuple(e2), 0) + c * e[k]
        restricted = _lin_subst_quadric(partial, line_images)
        forms.append([restricted.get((2, 0), 0), restricted.get((1, 1), 0),
                      restricted.get((0, 2), 0)])
    return not _binary_common_root(forms)


def _lin_subst_quadric(coeffs: dict, images) -> dict:
    """As _lin_subst, for a quadratic form in four variables."""
    out: dict = {}
    for e, c in coeffs.items():
        idx = [i for i in range(4) for _ in range(e[i])]
        for a, ca in enumerate(images[idx[0]]):
            for b, cb in enumerate(images[idx[1]]):
                mono = [0, 0]
                mono[a] += 1
                mono[b] += 1
                out[tuple(mono)] = out.get(tuple(mono), 0) + c * ca * cb
    return out


def check_cubic_verdict(coeffs: dict, l0, l1, verdict) -> list:
    expected = cubic_smooth_criterion(coeffs, l0, l1)
    if verdict != expected:
        return [f"smooth_cubic says {verdict}, conic bundle criterion says "
                f"{expected}"]
    return []


# ---------------------------------------------------------------------------
# quintics mod q and Frobenius classes


def _mod_poly(f, q):
    return _trim([c % q for c in f])


def _mod_rem(f, g, q):
    f = list(f)
    inv = pow(g[-1], q - 2, q)
    while len(f) >= len(g):
        c = f[-1] * inv % q
        shift = len(f) - len(g)
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % q
        f = _trim(f)
    return f


def _mod_mul(f, g, q):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % q
    return _trim(out)


def _mod_gcd(f, g, q):
    while g:
        f, g = g, _mod_rem(f, g, q)
    return f


def root_count_mod(f, q: int) -> int:
    """Number of roots of the integer polynomial f in F_q."""
    count = 0
    for t in range(q):
        acc = 0
        for c in reversed(f):
            acc = (acc * t + c) % q
        count += acc == 0
    return count


def factor_degrees_mod(f, q: int) -> list:
    """Sorted degrees of the irreducible factors of an integer polynomial
    that is squarefree mod q, by distinct-degree factorisation: the
    factors of degree d divide x^(q^d) - x."""
    f = _mod_poly(f, q)
    degrees = []
    h = [0, 1]                     # x^(q^d) mod f
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            degrees.append(len(f) - 1)
            break
        h = _mod_pow(h, q, f, q)
        diff = h + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % q
        g = _mod_gcd(f, _trim(diff), q)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            f = _mod_div_exact(f, g, q)
            h = _mod_rem(h, f, q)
    return sorted(degrees)


def _mod_pow(h, e, f, q):
    """h^e mod f over F_q."""
    result, base = [1], list(h)
    while e:
        if e & 1:
            result = _mod_rem(_mod_mul(result, base, q), f, q)
        base = _mod_rem(_mod_mul(base, base, q), f, q)
        e >>= 1
    return result


def _mod_div_exact(f, g, q):
    """The quotient f / g over F_q, for g dividing f."""
    f = list(f)
    inv = pow(g[-1], q - 2, q)
    quot = [0] * (len(f) - len(g) + 1)
    while len(f) >= len(g):
        c = f[-1] * inv % q
        shift = len(f) - len(g)
        quot[shift] = c
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % q
        f = _trim(f)
    return _trim(quot)


def check_class(quintic, q: int, parts) -> list:
    """A sampled class: lengths are the factor degrees of the quintic mod
    q, its 1-cycles are the roots mod q, and its total sign is +1."""
    problems = []
    lengths = sorted(d for d, _ in parts)
    if lengths != factor_degrees_mod(quintic, q):
        problems.append(f"q={q}: cycle lengths {lengths} are not the factor "
                        f"degrees {factor_degrees_mod(quintic, q)}")
    ones = sum(1 for d, _ in parts if d == 1)
    roots = root_count_mod(quintic, q)
    if ones != roots:
        problems.append(f"q={q}: {ones} fixed letters but {roots} roots mod q")
    sign = 1
    for _, s in parts:
        sign *= s
    if sign != 1:
        problems.append(f"q={q}: total sign {sign}")
    return problems


# ---------------------------------------------------------------------------
# the sign-permutation group acting on the 27 lines
#
# Elements are (t, sigma): t an even sign vector, sigma the tuple
# (sigma(0), ..., sigma(4)).  The documented action sends the pair line
# (i, s) to (sigma(i), s * t[sigma(i)]) and the sign vector eps to
# j -> t[j] * eps[sigma^-1(j)]; the product g*h applies h first.

_EVEN = [e for e in product((1, -1), repeat=5) if e.count(-1) % 2 == 0]
_LABELS = (["L0"] + [(i, s) for i in range(5) for s in (1, -1)]
           + [("eps",) + e for e in _EVEN])


def _inv(sigma):
    out = [0] * 5
    for i, v in enumerate(sigma):
        out[v] = i
    return tuple(out)


def act(g, label):
    t, sigma = g
    if label == "L0":
        return label
    if label[0] == "eps":
        eps = label[1:]
        inv = _inv(sigma)
        return ("eps",) + tuple(t[j] * eps[inv[j]] for j in range(5))
    i, s = label
    return (sigma[i], s * t[sigma[i]])


def compose(g, h):
    """g*h: apply h, then g (read off the documented action on the pair
    lines)."""
    tg, sg = g
    th, sh = h
    sigma = tuple(sg[sh[i]] for i in range(5))
    inv_g = _inv(sg)
    t = tuple(tg[j] * th[inv_g[j]] for j in range(5))
    return (t, sigma)


def fixed_lines(g) -> int:
    return sum(1 for lab in _LABELS if act(g, lab) == lab)


def class_element(parts):
    """An element with the given (cycle length, sign) multiset: cycles on
    consecutive letters, the sign carried by the first letter."""
    t = [1] * 5
    sigma = list(range(5))
    pos = 0
    for length, sign in parts:
        letters = list(range(pos, pos + length))
        for a, b in zip(letters, letters[1:] + letters[:1]):
            sigma[a] = b
        t[pos] = sign
        pos += length
    return (tuple(t), tuple(sigma))


def anchored_data(g, sizes):
    """Per-block sorted (cycle length, sign) multisets for blocks of
    consecutive letters, or None when sigma mixes the blocks."""
    t, sigma = g
    block_of = []
    for b, size in enumerate(sizes):
        block_of.extend([b] * size)
    if any(block_of[sigma[i]] != block_of[i] for i in range(5)):
        return None
    per_block = [[] for _ in sizes]
    seen = [False] * 5
    for i in range(5):
        if seen[i]:
            continue
        j, length, sign = i, 0, 1
        while not seen[j]:
            seen[j] = True
            length += 1
            sign *= t[j]
            j = sigma[j]
        per_block[block_of[i]].append((length, sign))
    return tuple(tuple(sorted(b)) for b in per_block)


def orbit_lengths(group) -> list:
    seen = set()
    sizes = []
    for lab in _LABELS:
        if lab in seen:
            continue
        orbit = {act(g, lab) for g in group}
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def check_fit(group, anchored_classes, order, orbits) -> list:
    """The fitted group is closed under composition, contains the
    identity, meets every sampled anchored class, and its order and
    orbits on the 27 lines are the reported ones."""
    problems = []
    elems = set(group)
    identity = ((1,) * 5, tuple(range(5)))
    if identity not in elems:
        problems.append("fitted group lacks the identity")
    for g in elems:
        for h in elems:
            if compose(g, h) not in elems:
                problems.append(f"fitted group not closed: {g} * {h}")
                return problems
    for cls in anchored_classes:
        sizes = tuple(sum(d for d, _ in block) for block in cls)
        if not any(anchored_data(g, sizes) == tuple(cls) for g in elems):
            problems.append(f"fitted group misses anchored class {cls}")
    if order != len(elems):
        problems.append(f"reported order {order}, group has {len(elems)}")
    if orbits != orbit_lengths(elems):
        problems.append(f"reported orbits {orbits}, group gives "
                        f"{orbit_lengths(elems)}")
    return problems


def check_point_counts(q: int, n_cubic: int, n_dp4: int, trace: int) -> list:
    """Lefschetz: #S(F_q) = q^2 + t*q + 1; blow-up: #S(F_q) = #V(F_q) + q."""
    problems = []
    if n_cubic != q * q + trace * q + 1:
        problems.append(f"q={q}: #S = {n_cubic}, Lefschetz gives "
                        f"{q * q + trace * q + 1}")
    if n_cubic != n_dp4 + q:
        problems.append(f"q={q}: #S = {n_cubic} but #V + q = {n_dp4 + q}")
    return problems


def check_census(q: int, n_lines: int, parts) -> list:
    expected = fixed_lines(class_element(parts))
    if n_lines != expected:
        return [f"q={q}: {n_lines} lines over F_q, the class fixes {expected}"]
    return []
