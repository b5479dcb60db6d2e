"""The one integer model of a rational vector (intfactor.primitive_part and
over_common_denominator), the conventions its callers read off it, and the
one reduction of a coefficient map mod p."""

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from cubicdescent.errors import BadPrimeError, PreconditionError
from cubicdescent.forms import CubicForm4, ProjPoint, p1_normalize
from cubicdescent.frobenius import _residues
from cubicdescent.intfactor import (lowest_terms, over_common_denominator,
                                    primitive_part)
from cubicdescent.unipoly import UniPoly

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubicdescent"


def _big_vector(seed):
    rng = random.Random(seed)
    return [Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
            for _ in range(6)]


VECTORS = {
    "empty": [],
    "zero": [0, 0, 0],
    "zero-fractions": [Fraction(0), Fraction(0, 7)],
    "negative-first": [-2, 4, 0],
    "leading-zeros": [0, 0, -6, 9, -3],
    "mixed": [3, Fraction(-1, 2), Fraction(5, 6), 0, -7],
    "unit": [Fraction(1, 3)],
    "big-a": _big_vector(1),
    "big-b": _big_vector(2),
    "big-c": _big_vector(3),
}


@pytest.mark.parametrize("name", list(VECTORS))
def test_primitive_part_and_common_denominator(name):
    values = [Fraction(v) for v in VECTORS[name]]
    nums, den = over_common_denominator(VECTORS[name])
    assert den >= 1 and all(isinstance(n, int) for n in nums)
    assert [Fraction(n, den) for n in nums] == values
    assert all(den % v.denominator == 0 for v in values)
    # least: no smaller positive denominator keeps the numerators integral
    assert gcd(den, *nums) == 1

    content, ints = primitive_part(VECTORS[name])
    assert isinstance(content, Fraction)
    assert all(isinstance(v, int) for v in ints)
    assert [content * v for v in ints] == values
    if any(values):
        assert gcd(*ints) == 1
        assert next(v for v in ints if v) > 0
    else:
        assert content == 0 and ints == [0] * len(values)


def test_primitive_part_takes_any_iterable():
    assert primitive_part(iter([4, -6])) == (Fraction(2), [2, -3])
    assert primitive_part(v for v in (-4, 6)) == (Fraction(-2), [2, -3])


def test_caller_conventions():
    # projective point: first nonzero coordinate positive
    assert ProjPoint([-2, 4, 0]).coords == (1, -2, 0)
    assert ProjPoint([0, Fraction(-1, 2), Fraction(1, 3)]).coords == (0, 3, -2)
    with pytest.raises(PreconditionError, match="nonzero coordinate"):
        ProjPoint([0, 0, 0])
    # (lam : mu): mu > 0, or (1, 0) at infinity
    assert p1_normalize(-1, 0) == (1, 0)
    assert p1_normalize(Fraction(1, 2), Fraction(-1, 3)) == (-3, 2)
    assert p1_normalize(4, 6) == (2, 3)
    # polynomial: positive leading coefficient
    content, prim = UniPoly([Fraction(1, 2), 3, Fraction(-3, 4)]).primitive()
    assert prim == UniPoly([-2, -12, 3]) and content == Fraction(-1, 4)
    assert UniPoly([]).primitive() == (0, UniPoly([]))
    # cubic: positive coefficient at the largest exponent
    F = CubicForm4({(0, 0, 0, 3): 4, (3, 0, 0, 0): Fraction(-2, 3),
                    (1, 1, 1, 0): 2})
    content, ints = F.primitive_coeffs()
    assert ints == {(3, 0, 0, 0): 1, (1, 1, 1, 0): -3, (0, 0, 0, 3): -6}
    assert content == Fraction(-2, 3)
    assert CubicForm4({}).primitive_coeffs() == (0, {})


def _residue_oracle(coeffs, p):
    """Each coefficient reduced on its own, by a Fermat inverse."""
    out = {}
    for e, c in coeffs.items():
        c = Fraction(c)
        if c.denominator % p == 0:
            raise BadPrimeError(f"denominator divisible by {p}")
        v = c.numerator * pow(c.denominator, p - 2, p) % p
        if v:
            out[e] = v
    return out


@pytest.mark.parametrize("seed", range(6))
def test_residues_against_per_coefficient_oracle(seed):
    rng = random.Random(seed)
    coeffs = {(k,): Fraction(rng.randint(-10 ** 6, 10 ** 6),
                             rng.choice([1, 2, 4, 9, 25, 77, 10 ** 9 + 7]))
              for k in range(rng.randint(1, 12))}
    coeffs[(99,)] = Fraction(0)
    for p in (3, 5, 7, 11, 13, 31, 101):
        try:
            expected = _residue_oracle(coeffs, p)
        except BadPrimeError as exc:
            with pytest.raises(BadPrimeError, match=str(exc)):
                _residues(coeffs, p)
        else:
            assert _residues(coeffs, p) == expected


def test_residues_bad_prime_on_one_denominator():
    coeffs = {(0,): 1, (1,): Fraction(2, 3), (2,): Fraction(5, 7)}
    with pytest.raises(BadPrimeError, match="denominator divisible by 7"):
        _residues(coeffs, 7)
    # 2/3 = 2 * 2 mod 5 and 5/7 vanishes; 2/3 = 2 * 4, 5/7 = 5 * 8 mod 11
    assert _residues(coeffs, 5) == {(0,): 1, (1,): 4}
    assert _residues(coeffs, 11) == {(0,): 1, (1,): 8, (2,): 7}


def _lcm_importers():
    """Modules of the package that import math.lcm, in any spelling."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math" \
                    and any(a.name == "lcm" for a in node.names):
                out.append(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "lcm" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "math":
                out.append(path.stem)
    return sorted(set(out))


def test_only_intfactor_clears_denominators():
    # a rational vector becomes integers in one place; a module that
    # needs an lcm of denominators calls over_common_denominator or
    # primitive_part instead
    assert _lcm_importers() == ["intfactor"]


def _lowest_terms_sites():
    """Modules of the package with a call gcd(*vector, other): the gcd of
    numerators and a denominator, the reduction to lowest terms.  A call
    gcd(*vector) alone is a content and does not count."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "gcd" and len(node.args) > 1 \
                    and any(isinstance(a, ast.Starred) for a in node.args):
                out.append(path.stem)
    return sorted(set(out))


def test_only_intfactor_reduces_to_lowest_terms():
    # numerators over a denominator are reduced by intfactor.lowest_terms
    assert _lowest_terms_sites() == ["intfactor"]


@pytest.mark.parametrize("seed", range(4))
def test_lowest_terms(seed):
    rng = random.Random(seed)
    for size in (0, 1, 3, 6):
        g = rng.choice((1, 2, 6, 10 ** 9 + 7))
        num = [g * rng.randint(-10 ** 12, 10 ** 12) for _ in range(size)]
        den = g * rng.choice((1, -1)) * rng.randint(1, 10 ** 9)
        out, d = lowest_terms(num, den)
        assert isinstance(out, tuple) and d > 0
        assert gcd(*out, d) == 1
        assert [Fraction(v, d) for v in out] == [Fraction(v, den) for v in num]
    assert lowest_terms([0, 0], -4) == ((0, 0), 1)
    assert lowest_terms([], -3) == ((), 1)


def _dp4_residue_oracle(V, p):
    """The coefficient maps of both quadrics mod p, each polynomial
    coefficient reduced on its own, with the checks in their order: odd
    p, a denominator, a vanishing quadric, a proportional pencil."""
    if p == 2:
        raise BadPrimeError("Gram matrices need odd characteristic")
    exps = [tuple((k == i) + (k == j) for k in range(5))
            for i in range(5) for j in range(i, 5)]
    maps = []
    for q in (V.Q0, V.Q1):
        m = _residue_oracle(dict(zip(exps, q.upper_coeffs())), p)
        if not m:
            raise BadPrimeError(f"quadric vanishes mod {p}")
        maps.append(m)
    c0, c1 = maps
    if any(all((t * c0.get(e, 0) - c1.get(e, 0)) % p == 0 for e in exps)
           for t in range(p)):
        raise BadPrimeError(f"pencil degenerates mod {p}")
    return tuple(maps)


@pytest.mark.parametrize("seed", range(6))
def test_reduce_dp4_against_per_coefficient_oracle(seed):
    from cubicdescent.descent import DP4Surface
    from cubicdescent.forms import QuadForm
    from cubicdescent.frobenius import reduce_dp4_mod_p

    rng = random.Random(seed)

    def form(scale=1):
        return {(i, j): scale * Fraction(rng.randint(-6, 6),
                                         rng.choice((1, 1, 2, 3, 5, 9, 25)))
                for i in range(5) for j in range(i, 5)}

    for p in (2, 3, 5, 7, 11):
        q0 = form()
        for q1 in (form(), form(p),     # a quadric vanishing mod p
                   {e: 3 * c + p * rng.randint(-2, 2) for e, c in q0.items()}):
            try:
                V = DP4Surface(QuadForm.from_poly_coeffs(5, q0),
                               QuadForm.from_poly_coeffs(5, q1))
            except PreconditionError:
                continue
            try:
                expected = _dp4_residue_oracle(V, p)
            except BadPrimeError as exc:
                with pytest.raises(BadPrimeError, match=f"^{exc}$"):
                    reduce_dp4_mod_p(V, p)
            else:
                assert reduce_dp4_mod_p(V, p) == expected
