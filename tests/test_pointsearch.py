import random
from itertools import product

import numpy as np
import pytest

from cubicdescent import pointsearch
from cubicdescent.descent import DP4Surface
from cubicdescent.forms import ProjPoint, QuadForm
from cubicdescent.pointsearch import (RESIDUE_BOUND, SIEVE_PRIMES,
                                      _eval_int, _int_quadrics,
                                      _residue_table, brute_force_search,
                                      search, verify_point)

from conftest import PAPER_POINT, random_dp4_with_point, random_quadform


def _random_surface(rng, bound=3):
    while True:
        try:
            return DP4Surface(random_quadform(rng, 5, bound),
                              random_quadform(rng, 5, bound))
        except Exception:
            continue


def test_completeness_against_brute_force():
    rng = random.Random(101)
    for trial in range(20):
        v = _random_surface(rng)
        h = rng.choice([1, 2, 3])
        fast = search(v, h)
        slow = brute_force_search(v, h)
        assert fast.points == slow.points, (trial, h)


def test_soundness():
    rng = random.Random(55)
    for _ in range(5):
        v = _random_surface(rng)
        res = search(v, 3)
        for p in res.points:
            assert verify_point(v, p)


def test_mechanical_example():
    v = DP4Surface(QuadForm.from_poly_coeffs(5, {(0, 0): 1, (1, 1): -1}),
                   QuadForm.from_poly_coeffs(5, {(2, 2): 1, (3, 3): -1}))
    res = search(v, 1)
    assert ProjPoint([1, 1, 1, 1, 0]) in set(res.points)
    assert res.points == brute_force_search(v, 1).points


def test_empty_result():
    v = DP4Surface(QuadForm.diagonal([1, 1, 1, 1, 1]),
                   QuadForm.diagonal([1, 2, 1, 1, 1]))
    res = search(v, 3)
    assert res.count == 0 and res.points == []


def test_plane_at_infinity_strata():
    # double line x3^2 = x3*x4 = 0 relative pieces force (0:0:0:0:1)
    v = DP4Surface(QuadForm.from_poly_coeffs(5, {(0, 0): 1, (1, 2): 1, (3, 3): 1}),
                   QuadForm.from_poly_coeffs(5, {(0, 1): 1, (2, 2): 1, (3, 4): 1}))
    res = search(v, 2)
    assert ProjPoint([0, 0, 0, 0, 1]) in set(res.points)
    assert res.points == brute_force_search(v, 2).points


def test_verify_point_paper(paper_dp4):
    assert verify_point(paper_dp4, ProjPoint(PAPER_POINT))
    assert not verify_point(paper_dp4, ProjPoint([1, 0, 0, 0, 0]))


def test_large_coefficient_pair():
    # coefficients of 10^12: the sieve tables and the exact finish in
    # Python integers agree with brute force
    big = 10 ** 12
    v = DP4Surface(QuadForm.from_poly_coeffs(
                       5, {(0, 0): big, (1, 1): -big, (2, 3): 1}),
                   QuadForm.from_poly_coeffs(
                       5, {(2, 2): big, (3, 3): -big, (0, 4): 1}))
    res = search(v, 2)
    assert res.points == brute_force_search(v, 2).points


def test_result_sorted_and_deduplicated():
    rng = random.Random(7)
    v = _random_surface(rng)
    res = search(v, 3)
    assert res.points == sorted(set(res.points))
    assert res.height_bound == 3
    assert res.elapsed_ms >= 0


def test_residue_bound_fits_int16():
    int16_max = np.iinfo(np.int16).max
    assert RESIDUE_BOUND == 6 * max(SIEVE_PRIMES) ** 2 <= int16_max
    assert 6 * 79 ** 2 > int16_max >= 6 * 73 ** 2   # ell = 79 would wrap
    # every coefficient at its largest residue, ell - 1;
    # there Q = -sum_{i<=j} a_i a_j = -((sum a)^2 + sum a^2) / 2 (mod ell)
    ell = max(SIEVE_PRIMES)
    worst = {(i, j): ell - 1 for i in range(5) for j in range(i, 5)}
    table = _residue_table(worst, worst, ell)
    for a in product(range(ell), repeat=4):
        expect = sum(1 << a4 for a4 in range(ell)
                     if ((sum(a) + a4) ** 2 + sum(x * x for x in a) + a4 * a4)
                     // 2 % ell == 0)
        assert table[a] == expect, a


def test_ell_tables_are_read_only():
    for table in pointsearch._ell_tables(max(SIEVE_PRIMES)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.flat[0] = 1


def _packbits_rows(t, words):
    """Oracle: the rows along the last axis of the boolean array t, packed
    by np.packbits and zero padded to `words` uint64 words."""
    packed = np.packbits(t, axis=-1)
    out = np.zeros(packed.shape[:-1] + (8 * words,), dtype=np.uint8)
    out[..., :packed.shape[-1]] = packed
    return out.view(np.uint64)


@pytest.mark.parametrize("H", [1, 31, 32, 63, 64])
@pytest.mark.parametrize("ell", SIEVE_PRIMES)
def test_product_rows_against_packbits(ell, H):
    """The x3 and x2 rows as uint64 products equal the rows np.packbits
    makes of the table read at the residues of -H..H (widths 3, 63, 65,
    127 and 129: each side of a word boundary), on a table of a seeded
    pair and on a seeded table with about half its cells zero.  The rows
    of W share no bit, so no sum of the products carries."""
    width = 2 * H + 1
    words = -(-width // 64)
    r = np.arange(-H, H + 1) % ell
    W = pointsearch._class_rows(r, ell, words)
    assert W.shape == (ell, words)
    for i in range(ell):
        for j in range(i + 1, ell):
            assert not (W[i] & W[j]).any(), (i, j)
    assert np.array_equal(np.bitwise_or.reduce(W, axis=0),
                          _packbits_rows(np.ones(width, dtype=bool), words))
    rng = random.Random(ell * 100 + H)
    gen = np.random.default_rng(ell * 100 + H)
    cells = gen.integers(1, 1 << ell, size=(ell,) * 4, dtype=np.uint16)
    for m4 in (_residue_table(_random_coeffs(rng, 10 ** 6),
                              _random_coeffs(rng, 10 ** 6), ell),
               np.where(gen.random((ell,) * 4) < 0.5, 0, cells)):
        t4 = m4 != 0
        x3, x2 = pointsearch._bit_rows(m4, W)
        assert np.array_equal(x3, _packbits_rows(
            np.take(t4, r, axis=3), words).reshape(ell ** 3, words))
        assert np.array_equal(x2, _packbits_rows(
            np.take(t4.any(axis=3), r, axis=2), words).reshape(ell ** 2,
                                                                words))


def _dp4(c0, c1):
    return DP4Surface(QuadForm.from_poly_coeffs(5, c0),
                      QuadForm.from_poly_coeffs(5, c1))


def _through(cs, point):
    """Shift the x_k^2 coefficient, for the first k with x_k = +-1, so
    that the form vanishes at point."""
    k = next(k for k in range(5) if abs(point[k]) == 1)
    cs = dict(cs)
    cs[k, k] -= _eval_int(cs, point)
    return cs


def _random_coeffs(rng, bound, scale=lambda i, j: 1):
    return {(i, j): rng.randint(-bound, bound) * scale(i, j)
            for i in range(5) for j in range(i, 5)}


def _random_point(rng):
    x = [rng.randint(-3, 3) for _ in range(5)]
    x[rng.randrange(4)] = rng.choice((1, -1))
    return tuple(x)


def _residue_table_a4_loop(c0, c1, ell):
    """Oracle: the mask table by one pass over the ell^4 grid per a4 mod
    ell, which sets bit a4 where both forms vanish."""
    a = [np.arange(ell).reshape([-1 if k == i else 1 for k in range(4)])
         for i in range(4)]
    table = np.zeros((ell,) * 4, dtype=np.uint16)
    for a4 in range(ell):
        hit = True
        for cs in (c0, c1):
            value = sum(c * a[i] * a[j] for (i, j), c in cs.items() if j < 4)
            value = value + sum(cs[i, 4] * a[i] for i in range(4)) * a4
            hit = hit & ((value + cs[4, 4] * a4 * a4) % ell == 0)
        table |= hit.astype(np.uint16) << a4
    return table


def _table_cases():
    """(c0, c1, ell) with the case name as id: seeded pairs, and forms with
    no a4^2 term, no term linear in a4, or no term at all mod ell."""
    rng = random.Random(1313)
    shapes = {
        "seeded": lambda i, j: False,
        "no-square": lambda i, j: (i, j) == (4, 4),
        "no-linear": lambda i, j: i < 4 == j,
        "zero-form": lambda i, j: True,
    }
    cases = []
    for ell in SIEVE_PRIMES:
        for name, vanishes in shapes.items():
            for k in range(2):
                c0 = {(i, j): rng.randint(-10 ** 6, 10 ** 6) * (
                          ell if vanishes(i, j) else 1)
                      for i in range(5) for j in range(i, 5)}
                c1 = _random_coeffs(rng, 10 ** 6)
                if k:
                    c0, c1 = c1, c0
                cases.append(pytest.param(c0, c1, ell,
                                          id=f"{name}-{ell}-form{k}"))
    return cases


@pytest.mark.parametrize("c0, c1, ell", _table_cases())
def test_residue_table_against_a4_loop(c0, c1, ell):
    table = _residue_table(c0, c1, ell)
    assert table.shape == (ell,) * 4 and table.dtype == np.uint16
    assert np.array_equal(table, _residue_table_a4_loop(c0, c1, ell))


def _sieve_cases():
    """Pairs through a planted point that the residue tables must not lose:
    (planted point, c0, c1) with the case name as id."""
    rng = random.Random(404)
    cases = []
    for ell in SIEVE_PRIMES:
        # every x4 coefficient divisible by ell: both Gram matrices have a
        # zero last row mod ell, so the pencil determinant vanishes mod ell
        bad = lambda i, j, ell=ell: ell if j == 4 else 1
        point = _random_point(rng)
        cases.append(pytest.param(
            point, _through(_random_coeffs(rng, 4, bad), point),
            _through(_random_coeffs(rng, 4, bad), point),
            id=f"bad-reduction-{ell}"))
        point = _random_point(rng)
        c0 = _through(_random_coeffs(rng, 4), point)
        r = _through(_random_coeffs(rng, 4), point)
        cases.append(pytest.param(
            point, c0, {k: v + ell * r[k] for k, v in c0.items()},
            id=f"equal-mod-{ell}"))
    no_square = lambda i, j: 0 if (i, j) == (4, 4) else 1
    point = _random_point(rng)
    cases.append(pytest.param(
        point, _through(_random_coeffs(rng, 4, no_square), point),
        _through(_random_coeffs(rng, 4, no_square), point),
        id="no-x4-square"))
    point = _random_point(rng)
    cases.append(pytest.param(
        point, _through(_random_coeffs(rng, 10 ** 30), point),
        _through(_random_coeffs(rng, 10 ** 30), point),
        id="coefficients-1e30"))
    point = (3, 0, -3, 1, 2)          # x0, x1, x2 all 0 mod 3
    cases.append(pytest.param(
        point, _through(_random_coeffs(rng, 4), point),
        _through(_random_coeffs(rng, 4), point),
        id="zero-triple-mod-3"))
    return cases


@pytest.mark.parametrize("point, c0, c1", _sieve_cases())
def test_sieve_against_brute_force(point, c0, c1):
    v = _dp4(c0, c1)
    fast = search(v, 3)
    assert ProjPoint(point) in set(fast.points)
    assert fast.points == brute_force_search(v, 3).points


def test_brute_force_points_pass_every_table():
    rng = random.Random(31)
    for _ in range(8):
        v, _ = random_dp4_with_point(rng)
        c0, c1 = _int_quadrics(v)
        tables = {ell: _residue_table(c0, c1, ell) for ell in SIEVE_PRIMES}
        points = brute_force_search(v, 3).points
        assert points
        for p in points:
            for ell, table in tables.items():
                mask = table[tuple(x % ell for x in p.coords[:4])]
                assert mask >> p.coords[4] % ell & 1, (p, ell)
        for table in tables.values():
            assert table[0, 0, 0, 0] & 1


@pytest.mark.parametrize("H", range(1, 10))
def test_packed_rows_against_brute_force(H, monkeypatch):
    """The sieve's bit rows hold 2H + 1 cells, padded to whole words: H from
    1 to 9 gives every odd width mod 8.  The planted points sit at the end
    of the x2 and x3 rows, next to the padding, or at the end of the x3
    row of the triple (0, 0, 0); the pairs with no x4^2 term also hold
    (0 : 0 : 0 : 0 : 1).  The search runs with the default CHUNK (one
    chunk for these H), then with chunks of two x0 values and blocks of
    2 * (2H + 1) cells, and with one x0, triple and tuple per pass."""
    rng = random.Random(H)
    r = lambda: rng.randint(-H, H)
    kind = H % 3
    if kind == 0:
        point, scale = (1, r(), H, H, r()), lambda i, j: 1
    elif kind == 1:
        point, scale = (0, 0, 0, H, 1), lambda i, j: 1
    else:
        point = (1, r(), -H, H, r())
        scale = lambda i, j: 0 if (i, j) == (4, 4) else 1
    v = _dp4(_through(_random_coeffs(rng, 4, scale), point),
             _through(_random_coeffs(rng, 4, scale), point))
    fast = search(v, H)
    assert ProjPoint(point) in set(fast.points)
    if kind == 2:
        assert ProjPoint((0, 0, 0, 0, 1)) in set(fast.points)
    expect = brute_force_search(v, H).points
    assert fast.points == expect
    for chunk in (2 * (2 * H + 1) ** 2, 1):
        monkeypatch.setattr(pointsearch, "CHUNK", chunk)
        chunked = search(v, H)
        assert chunked.points == expect, chunk
        assert chunked.sieve == fast.sieve, chunk


def _chunk_cases():
    """(H, c0, c1, planted point) with the case name as id."""
    cases = []
    for H in (5, 6):
        # with two x0 values per chunk, x0 = H shares a full last chunk
        # (H = 5) or is alone in it (H = 6); x4 = +H or -H are the ends of
        # the x4 sieve
        rng = random.Random(100 + H)
        point = (H, 1, rng.randint(-H, H), rng.randint(-H, H),
                 H if H % 2 else -H)
        cases.append(pytest.param(
            H, _through(_random_coeffs(rng, 4), point),
            _through(_random_coeffs(rng, 4), point), point,
            id=f"x0-is-H-{H}"))
    # Q0 = x0*x1 and Q1 = x0*x2 modulo every sieve prime: every tuple with
    # x0 = 0, or with x1 = x2 = 0, passes the sieve, so the x4 sieve gets
    # many full blocks, and the point sits in a block other than the first
    rng = random.Random(77)
    m = 3 * 5 * 7 * 11 * 13
    point = (0, 1, 2, -3, 1)
    c0, c1 = (
        {k: c * m + (k == corner) for k, c in
         _through(_random_coeffs(rng, 4), point).items()}
        for corner in ((0, 1), (0, 2)))
    cases.append(pytest.param(3, c0, c1, point, id="full-blocks"))
    return cases


@pytest.mark.parametrize("chunk", ["pairs", "single"])
@pytest.mark.parametrize("H, c0, c1, point", _chunk_cases())
def test_chunk_edges_against_brute_force(H, c0, c1, point, chunk,
                                         monkeypatch):
    """Chunks of two x0 values with blocks of 2 * (2H + 1) cells, or one
    x0, triple and tuple per pass."""
    v = _dp4(c0, c1)
    width = 2 * H + 1
    monkeypatch.setattr(pointsearch, "CHUNK",
                        2 * width ** 2 if chunk == "pairs" else 1)
    fast = search(v, H)
    assert ProjPoint(point) in set(fast.points)
    assert fast.points == brute_force_search(v, H).points
