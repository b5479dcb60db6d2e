"""The Frobenius reading: all sampled primes in one batch, checked
against the scalar reading per prime (distinct-degree parts and one gcd
per part); the plain class is the union of the block-anchored parts, the
per-report values are computed once, the reading makes no random split,
and under a custom x it reads the splitting element as a polynomial in
m = -b/a."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from cubicdescent import descent, gfpoly, polyfactor
from cubicdescent.descent import run_strategy, strategy_ab
from cubicdescent.errors import BadPrimeError, CubicDescentError
from cubicdescent.etale import EtaleAlgebra
from cubicdescent.frobenius import (frobenius_class, frobenius_class_anchored,
                                    frobenius_readings, good_prime,
                                    sample_frobenius)
from cubicdescent.gfpoly import (gp_deriv, gp_distinct_degree,
                                 gp_factor_squarefree, gp_gcd,
                                 gp_is_squarefree, gp_mul, gp_pow_mod,
                                 gp_rem, gp_rows_apply, gp_rows_compose,
                                 gp_rows_mul, gp_rows_mul_matrix, gp_rows_pow,
                                 gp_rows_powers_of_x, gp_rows_reduce,
                                 gp_scale, gp_sub, gp_trim)
from cubicdescent.intfactor import is_probable_prime, primes_up_to
from cubicdescent.linalg import Matrix, column_ranks_mod_p, solve_linear
from cubicdescent.serialize import emit_frobenius_report
from cubicdescent.unipoly import UniPoly

from conftest import PAPER_P, random_squarefree_quintic

# the seven galois-fit quintics of perfbench, named by fitted order
FITS = {
    "paper": PAPER_P,
    "order32": UniPoly([36, 3, -3, -4, -3, 1]),
    "order64": UniPoly([-40, 6, 40, 29, 9, 1]),
    "order48a": UniPoly([12, 11, 58, -18, -4, 1]),
    "order48b": UniPoly([-50, 65, -56, 34, -10, 1]),
    "order48c": UniPoly([-2, 2, -2, 3, 0, 1]),
    "order96": UniPoly([20, -5, -1, 20, 9, 1]),
}
QUINTICS = list(FITS.values())
# the fourteen galois-fit inputs: each quintic at scale 1 and -1
SCALED = [UniPoly([c * k ** (5 - i) for i, c in enumerate(f.coeffs)])
          for f in QUINTICS for k in (1, -1)]
IRREDUCIBLE = UniPoly([-1, -1, 0, 0, 0, 1])            # T^5 - T - 1


def scalar_reading(report, q):
    """Oracle: the reading one prime at a time.  Each factor mod q is
    split into its distinct-degree parts g (cycle lengths d); a part has
    deg gcd(e^((q^d - 1)/2) - 1, g) / d + cycles, e the splitting element
    psi_e mod q."""
    if not good_prime(report, q):
        raise BadPrimeError(f"{q} is not a good prime for this input")
    psi = report.splitting_psi
    elt_poly = gp_scale(psi.num, pow(psi.den, -1, q), q)
    block_sizes = []
    blocks = []
    for (fk, mult), (num, den) in zip(report.rational_factors,
                                      report.factor_numerators):
        assert mult == 1
        block_sizes.append(fk.degree)
        fq = gp_scale(num, pow(den, -1, q), q)
        if not gp_is_squarefree(fq, q):
            raise BadPrimeError(f"factor not squarefree mod {q}")
        parts = []
        for g, d in gp_distinct_degree(fq, q):
            if len(gp_gcd(elt_poly, g, q)) > 1:
                raise BadPrimeError(f"splitting element vanishes mod {q}")
            power = gp_pow_mod(elt_poly, (q ** d - 1) // 2, g, q)
            plus = (len(gp_gcd(gp_sub(power, [1], q), g, q)) - 1) // d
            parts += [(d, -1)] * ((len(g) - 1) // d - plus) + [(d, 1)] * plus
        blocks.append(tuple(sorted(parts)))
    return tuple(block_sizes), tuple(blocks)


def _oracle_or_error(report, q):
    try:
        return scalar_reading(report, q)
    except BadPrimeError as err:
        return ("error", str(err))


def _batched_or_error(reading):
    if isinstance(reading, BadPrimeError):
        return ("error", str(reading))
    return reading


def _reduce_fraction(c: Fraction, p: int) -> int:
    """Oracle: one rational mod p, by its own Fermat inverse."""
    c = Fraction(c)
    if c.denominator % p == 0:
        raise BadPrimeError(f"denominator divisible by {p}")
    return c.numerator * pow(c.denominator, p - 2, p) % p


def whole_quintic_class(rep, q):
    """Oracle: factor the whole quintic mod q and Euler-test the splitting
    element in each residue field F_q[T]/(f)."""
    pq = [_reduce_fraction(c, q) for c in rep.tritangent_poly.coeffs]
    elt = [_reduce_fraction(c, q) for c in rep.splitting_element.poly.coeffs]
    parts = []
    for f in gp_factor_squarefree(pq, q):
        d = len(f) - 1
        sign = 1 if gp_pow_mod(elt, (q ** d - 1) // 2, f, q) == [1] else -1
        parts.append((d, sign))
    return tuple(sorted(parts))


@pytest.mark.parametrize("quintic", QUINTICS, ids=list(FITS))
def test_plain_class_is_union_of_blocks(quintic):
    _, rep = run_strategy(quintic)
    degrees = tuple(f.degree for f, _ in rep.rational_factors)
    good = [q for q in primes_up_to(200) if good_prime(rep, q)]
    assert len(good) > 30
    for q in good:
        sizes, blocks = frobenius_class_anchored(rep, q)
        assert sizes == degrees
        assert all(sum(d for d, _ in b) == n for b, n in zip(blocks, sizes))
        union = tuple(sorted(part for block in blocks for part in block))
        assert frobenius_class(rep, q).parts == union
        assert union == whole_quintic_class(rep, q)


def test_report_values_computed_once(monkeypatch):
    calls = {"factor": 0, "disc": 0, "norm": 0}
    factored = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(fn):
        def wrapper(f, *args, **kwargs):
            factored.append(f)
            return fn(f, *args, **kwargs)
        return wrapper

    # run_strategy factors chi_m once: the radicand entries are read off
    # the report's rational factors
    monkeypatch.setattr(polyfactor, "factor_unipoly",
                        recorded(polyfactor.factor_unipoly))
    monkeypatch.setattr(descent, "factor_unipoly",
                        recorded(descent.factor_unipoly))
    _, rep = run_strategy(QUINTICS[1])
    assert factored.count(rep.tritangent_poly) == 1
    assert len(rep.entries) == 1

    monkeypatch.setattr(descent, "factor_unipoly",
                        counted("factor", descent.factor_unipoly))
    monkeypatch.setattr(UniPoly, "discriminant",
                        counted("disc", UniPoly.discriminant))
    monkeypatch.setattr(type(rep.splitting_element), "norm",
                        counted("norm", type(rep.splitting_element).norm))
    sr = sample_frobenius(rep, prime_count=20, prime_bound=200)
    assert sr.sample_count == 20
    # the splitting norm is disc_tritangent^5 * norm_rho: no norm is taken
    assert calls == {"factor": 0, "disc": 0, "norm": 0}


def test_reading_makes_no_random_split(monkeypatch):
    _, rep = run_strategy(PAPER_P)

    def refuse(*args):
        raise AssertionError("equal-degree split in the Frobenius reading")

    monkeypatch.setattr(gfpoly, "gp_equal_degree", refuse)
    sr = sample_frobenius(rep)
    assert sr.subgroup_order == 16
    assert sr.orbit_lengths == [1, 2, 4, 4, 16]


def good_prime_per_value(rep, q):
    """Oracle: good_prime as one test per numerator and denominator."""
    def vanishes(c):
        c = Fraction(c)
        return c.numerator % q == 0 or c.denominator % q == 0

    if q == 2 or vanishes(rep.disc_tritangent):
        return False
    if any(Fraction(c).denominator % q == 0
           for c in rep.splitting_element.poly.coeffs):
        return False
    if vanishes(rep.splitting_norm):
        return False
    return all(Fraction(c).denominator % q
               for c in rep.tritangent_poly.coeffs)


def _seeded_quintics(count=20):
    rng = random.Random(2000)
    out = []
    while len(out) < count:
        quintic = random_squarefree_quintic(rng)
        try:
            run_strategy(quintic)
        except CubicDescentError:
            continue
        out.append(quintic)
    return out


def test_good_prime_is_one_remainder():
    primes = primes_up_to(2000)
    bad = 0
    for quintic in QUINTICS + _seeded_quintics():
        _, rep = run_strategy(quintic)
        verdicts = [good_prime(rep, q) for q in primes]
        assert verdicts == [good_prime_per_value(rep, q) for q in primes]
        assert not verdicts[0]                  # q = 2
        bad += verdicts.count(False) - 1
    assert bad > 0


def psi_e_oracle(quintic, x, rep):
    """The splitting element as a polynomial in m = -b/a: solve
    e = sum_i psi_i m^i in Fractions."""
    A = EtaleAlgebra(quintic)
    a, b = strategy_ab(A, A.element(x))
    m = -(b / a)
    powers = [A.one()]
    for _ in range(4):
        powers.append(powers[-1] * m)
    cols = [w.coords() for w in powers]
    return solve_linear(Matrix(5, 5, [cols[j][i] for i in range(5)
                                      for j in range(5)]),
                        rep.splitting_element.coords())


@pytest.mark.parametrize("x", [[1, 1], [0, 1, 1]], ids=["r+1", "r^2+r"])
def test_custom_x_reading_matches_oracle(x):
    """Under x != r the factors of chi_m are polynomials in m, so the sign
    of a cycle is Euler's criterion for psi_e, the splitting element as a
    polynomial in m, in each residue field of each factor mod q."""
    _, rep = run_strategy(PAPER_P, x=x)
    psi = psi_e_oracle(PAPER_P, x, rep)
    assert rep.splitting_psi.coords() == psi
    good = [q for q in primes_up_to(500) if good_prime(rep, q)]
    assert len(good) > 80
    for q in good:
        pe = gfpoly.gp_trim([_reduce_fraction(c, q) for c in psi])
        blocks, total = [], 1
        for fk, _ in rep.rational_factors:
            parts = []
            for f in gp_factor_squarefree(
                    [_reduce_fraction(c, q) for c in fk.coeffs], q):
                d = len(f) - 1
                square = gp_pow_mod(pe, (q ** d - 1) // 2, f, q) == [1]
                parts.append((d, 1 if square else -1))
                total *= parts[-1][1]
            blocks.append(tuple(sorted(parts)))
        assert total == 1
        assert frobenius_class_anchored(rep, q)[1] == tuple(blocks)
    sr = sample_frobenius(rep)
    assert sr.primes == good[:40]
    assert sr.subgroup_order == 16


@pytest.mark.parametrize("quintic", QUINTICS, ids=list(FITS))
def test_default_x_psi_is_the_splitting_element(quintic):
    _, rep = run_strategy(quintic)
    assert rep.splitting_psi.algebra.p == rep.tritangent_poly == quintic
    assert rep.splitting_psi.coords() == rep.splitting_element.coords()


def _assert_readings_match(rep, bound=500):
    good = [q for q in primes_up_to(bound) if good_prime(rep, q)]
    batched = frobenius_readings(rep, good)
    assert len(batched) == len(good)
    for q, reading in zip(good, batched):
        assert _batched_or_error(reading) == _oracle_or_error(rep, q), q
    return good


@pytest.mark.parametrize("quintic", SCALED)
def test_batched_reading_matches_scalar_oracle_galois_fit(quintic):
    _, rep = run_strategy(quintic)
    good = _assert_readings_match(rep)
    # the one-prime case is the same reading, and a bad prime is refused
    for q in good[:3]:
        assert frobenius_class_anchored(rep, q) == scalar_reading(rep, q)
    bad = next(q for q in primes_up_to(500) if not good_prime(rep, q))
    with pytest.raises(BadPrimeError, match=f"{bad} is not a good prime"):
        frobenius_class_anchored(rep, bad)


def test_batched_reading_matches_scalar_oracle_seeded():
    degrees = set()
    for quintic in _seeded_quintics(40):
        _, rep = run_strategy(quintic)
        degrees.add(tuple(f.degree for f, _ in rep.rational_factors))
        _assert_readings_match(rep)
    assert (5,) in degrees and len(degrees) > 1


@pytest.mark.parametrize("quintic,x", [
    (PAPER_P, [1, 1]), (PAPER_P, [0, 1, 1]), (IRREDUCIBLE, None),
    (IRREDUCIBLE, [1, 1]),
    (UniPoly.from_roots([1, 2, 3, 4, 5]), None),                  # (1^5)
    (UniPoly([3, 1, 0, 0, 1]) * UniPoly([-1, 1]), None),          # (1, 4)
    (UniPoly([2, 0, 1]) * UniPoly.from_roots([1, 2, 3]), None),   # (1^3, 2)
], ids=["paper-r+1", "paper-r^2+r", "irreducible", "irreducible-r+1",
        "split", "degree4", "quadratic"])
def test_batched_reading_matches_scalar_oracle_other(quintic, x):
    _, rep = run_strategy(quintic, x=x)
    _assert_readings_match(rep)


def _planted_report(factors, elt):
    """A stand-in for a radicand report: the given monic integer factors
    as the blocks, elt as the splitting element, every odd prime good."""
    return SimpleNamespace(
        splitting_psi=SimpleNamespace(num=tuple(elt), den=1),
        rational_factors=[(UniPoly(f), 1) for f in factors],
        factor_numerators=[(list(f), 1) for f in factors],
        bad_prime_product=1)


def _planted(rng, q, n, repeated=False, root=None):
    """A monic integer polynomial of degree n that is, mod q, a square
    times a cofactor (repeated) or has the root `root`; lifted with
    random multiples of q so that the numerators are not residues."""
    if repeated:
        g = [rng.randrange(q), 1]
        f = gp_mul(gp_mul(g, g, q),
                   [rng.randrange(q) for _ in range(n - 2)] + [1], q)
    elif root is not None:
        f = gp_mul([-root % q, 1],
                   [rng.randrange(q) for _ in range(n - 1)] + [1], q)
    else:
        f = [rng.randrange(q) for _ in range(n)] + [1]
    return [c + q * rng.randint(-3, 3) for c in f[:-1]] + [1]


def test_rank_checks_match_gcds_on_planted_polynomials():
    """rank M(f') < n exactly when f is not squarefree mod q, and
    rank M(e) < n exactly when e and f have a common root mod q."""
    rng = random.Random(5)
    seen = {"repeated": 0, "common": 0, "clean": 0}
    for _ in range(300):
        q = rng.choice([3, 5, 7, 11, 13])
        n = rng.randint(2, 5)
        kind = rng.choice(["repeated", "common", "clean"])
        root = rng.randrange(q)
        f = [c % q for c in _planted(rng, q, n, kind == "repeated",
                                     root if kind == "common" else None)]
        e = [rng.randrange(q) for _ in range(5)]
        if kind == "common":
            e[0] = (e[0] - sum(c * root ** k for k, c in enumerate(e))) % q
        rows = np.array([f], dtype=np.int64)
        qs = np.array([q], dtype=np.int64)
        table = gp_rows_powers_of_x(rows, qs, 9)
        er = gp_rows_reduce(np.array([e], dtype=np.int64), table, qs)
        fprime = np.array([(gp_deriv(f, q) + [0] * n)[:n]], dtype=np.int64)
        mats = np.concatenate([gp_rows_mul_matrix(fprime, table, qs),
                               gp_rows_mul_matrix(er, table, qs)])
        ranks = column_ranks_mod_p(mats, np.array([q, q]))[:, -1]
        squarefree = gp_is_squarefree(gp_trim(list(f)), q)
        assert (ranks[0] == n) == squarefree
        assert (ranks[1] == n) == (len(gp_gcd(gp_trim(list(e)),
                                              gp_trim(list(f)), q)) == 1)
        if kind == "repeated":
            assert not squarefree
        seen[kind] += 1
    assert min(seen.values()) > 50


def test_planted_failures_raise_the_oracle_message_in_block_order():
    """Blocks that fail mod q, by a repeated factor or a root shared with
    the splitting element, give the scalar reading's message for the first
    failing block, in block order, whatever the degrees."""
    rng = random.Random(11)
    messages = set()
    for _ in range(150):
        q = rng.choice([5, 7, 11, 13])
        root = rng.randrange(q)
        e = [rng.randrange(q) for _ in range(5)]
        e[0] = (e[0] - sum(c * root ** k for k, c in enumerate(e))) % q
        degrees = rng.choice([(1, 2, 2), (2, 3), (1, 1, 3), (5,), (1, 4)])
        factors = [_planted(rng, q, n, repeated=(n > 1 and rng.random() < .3),
                            root=root if rng.random() < .3 else None)
                   for n in degrees]
        rep = _planted_report(factors, [c + q * rng.randint(0, 4) for c in e])
        expected = _oracle_or_error(rep, q)
        assert _batched_or_error(frobenius_readings(rep, [q])[0]) == expected
        messages.add(expected[1] if expected[0] == "error" else "read")
    assert messages == {"read", *(f"{m} mod {q}" for q in (5, 7, 11, 13)
                                  for m in ("factor not squarefree",
                                            "splitting element vanishes"))}


# the largest primes the int64 guards admit, and the next primes above
RING_PRIME = 1_012_333_499          # 9 * (q - 1)^2 < 2^63 for 9 powers of x
RING_ABOVE = 1_012_333_519
RANK_PRIME = 2 ** 31 - 1            # (q - 1)^2 < 2^62
RANK_ABOVE = 2 ** 31 + 11


def test_guard_primes():
    for q in (RING_PRIME, RING_ABOVE, RANK_PRIME, RANK_ABOVE):
        assert is_probable_prime(q)
    assert 9 * (RING_PRIME - 1) ** 2 < 2 ** 63 <= 9 * (RING_ABOVE - 1) ** 2
    assert not any(is_probable_prime(q)
                   for q in range(RING_PRIME + 1, RING_ABOVE))
    assert not any(is_probable_prime(q)
                   for q in range(RANK_PRIME + 1, RANK_ABOVE))


def test_ring_kernels_at_the_int64_boundary():
    q = RING_PRIME
    rng = random.Random(3)
    polys = [[q - 1] * 6] + [[rng.randrange(q) for _ in range(5)] + [1]
                             for _ in range(3)]
    for f in polys:
        f[-1] = 1
    a = [[q - 1] * 5] + [[rng.randrange(q) for _ in range(5)]
                         for _ in range(3)]
    b = [[q - 1] * 5] + [[rng.randrange(q) for _ in range(5)]
                         for _ in range(3)]
    exps = [q, (q - 1) // 2, q - 2, 1]
    rows = np.array(polys, dtype=np.int64)
    qs = np.full(len(polys), q, dtype=np.int64)
    table = gp_rows_powers_of_x(rows, qs, 9)
    av, bv = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)

    def padded(g):
        return g + [0] * (5 - len(g))

    products = gp_rows_mul(av, bv, table, qs).tolist()
    powers = gp_rows_pow(av, np.array(exps, dtype=np.int64), table,
                         qs).tolist()
    mult = gp_rows_mul_matrix(av, table, qs)
    frob = gp_rows_compose(gp_rows_pow(table[:, 1], qs, table, qs), table,
                           qs)
    applied = gp_rows_apply(frob, bv, qs).tolist()
    reduced = gp_rows_reduce(np.array([[q - 1] * 9] * 4, dtype=np.int64),
                             table, qs).tolist()
    for i, (f, x, y, k) in enumerate(zip(polys, a, b, exps)):
        assert products[i] == padded(gp_rem(gp_mul(x, y, q), f, q))
        assert powers[i] == padded(gp_pow_mod(x, k, f, q))
        for j in range(5):
            column = gp_rem(gp_mul(x, [0] * j + [1], q), f, q)
            assert mult[i, :, j].tolist() == padded(column)
        assert applied[i] == padded(gp_pow_mod(y, q, f, q))
        assert reduced[i] == padded(gp_rem([q - 1] * 9, f, q))
    over = np.full(len(polys), RING_ABOVE, dtype=np.int64)
    for call in (lambda: gp_rows_powers_of_x(rows, over, 9),
                 lambda: gp_rows_mul(av, bv, table, over),
                 lambda: gp_rows_pow(av, over, table, over),
                 lambda: gp_rows_mul_matrix(av, table, over),
                 lambda: gp_rows_compose(av, table, over),
                 lambda: gp_rows_reduce(av, table, over),
                 lambda: gp_rows_apply(np.full((4, 9, 9), q - 1),
                                       np.full((4, 9), q - 1), over)):
        with pytest.raises(ValueError):
            call()


def test_reading_at_the_int64_boundary():
    # a degree-5 block takes the most powers of x, 9
    _, rep = run_strategy(IRREDUCIBLE)
    assert good_prime(rep, RING_PRIME) and good_prime(rep, RING_ABOVE)
    assert frobenius_class_anchored(rep, RING_PRIME) == \
        scalar_reading(rep, RING_PRIME)
    with pytest.raises(ValueError):
        frobenius_class_anchored(rep, RING_ABOVE)


def _prefix_ranks_python(rows, p):
    """Oracle: the rank mod p of each leading block of columns, by plain
    elimination in Python integers."""
    out = []
    for j in range(len(rows[0])):
        m = [[x % p for x in r[:j + 1]] for r in rows]
        rank = 0
        for c in range(j + 1):
            piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = pow(m[rank][c], -1, p)
            for i in range(rank + 1, len(m)):
                t = m[i][c] * inv % p
                m[i] = [(x - t * y) % p for x, y in zip(m[i], m[rank])]
            rank += 1
        out.append(rank)
    return out


def test_column_ranks_mod_p_at_the_int64_boundary():
    rng = random.Random(8)
    primes = [RANK_PRIME, 3, 5, 7, RANK_PRIME, 2_147_483_629]
    mats, moduli = [], []
    for trial in range(60):
        p = primes[trial % len(primes)]
        rows, cols, k = 6, 8, rng.randint(1, 6)
        # a product through k dimensions, with every residue near p
        a = [[rng.choice((1, p - 1, rng.randrange(p))) for _ in range(k)]
             for _ in range(rows)]
        b = [[rng.choice((0, p - 1, rng.randrange(p))) for _ in range(cols)]
             for _ in range(k)]
        mats.append([[sum(x * y for x, y in zip(r, c)) % p for c in zip(*b)]
                     for r in a])
        moduli.append(p)
    ranks = column_ranks_mod_p(np.array(mats, dtype=np.int64), moduli)
    for got, m, p in zip(ranks.tolist(), mats, moduli):
        assert got == _prefix_ranks_python(m, p)
    with pytest.raises(ValueError):
        column_ranks_mod_p(np.array(mats[:2], dtype=np.int64),
                           [RANK_PRIME, RANK_ABOVE])


def test_sampling_reports_the_skipped_primes():
    _, rep = run_strategy(PAPER_P)
    sr = sample_frobenius(rep)
    assert sr.primes[-1] == 193
    assert sr.skipped == [(q, f"{q} is not a good prime for this input")
                          for q in primes_up_to(192)
                          if not good_prime(rep, q)]
    assert set(sr.primes) | {q for q, _ in sr.skipped} == \
        set(primes_up_to(193))
    doc = emit_frobenius_report(sr)
    assert doc["skipped"] == [{"prime": q, "reason": m} for q, m in sr.skipped]


def test_sampling_skips_a_failed_reading_and_reads_on(monkeypatch):
    """A prime whose reading fails is skipped with its message, and the
    sample reads further good primes to make up the count."""
    from cubicdescent import frobenius

    _, rep = run_strategy(PAPER_P)
    good = [q for q in primes_up_to(500) if good_prime(rep, q)]
    read = frobenius.frobenius_readings

    def failing(report, primes):
        return [BadPrimeError(f"planted failure mod {q}") if q in good[3:6]
                else r for q, r in zip(primes, read(report, primes))]

    monkeypatch.setattr(frobenius, "frobenius_readings", failing)
    sr = sample_frobenius(rep, prime_count=20)
    assert sr.primes == good[:3] + good[6:23]
    assert [s for s in sr.skipped if s[0] in good] == \
        [(q, f"planted failure mod {q}") for q in good[3:6]]
    assert set(sr.primes) | {q for q, _ in sr.skipped} == \
        set(primes_up_to(sr.primes[-1]))
