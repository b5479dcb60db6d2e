import random
from fractions import Fraction

import pytest

from cubicdescent.descent import run_strategy
from cubicdescent.errors import SchemaError
from cubicdescent.forms import ProjLine, ProjPoint, QuadForm
from cubicdescent.geometry import CubicSurface
from cubicdescent.pointsearch import search
from cubicdescent.serialize import (emit_cubic, emit_descent_input, emit_dp4,
                                    emit_line, emit_point, emit_quadric,
                                    emit_search_result, frac_from_str,
                                    frac_to_str, parse_artifact, parse_cubic,
                                    parse_descent_input, parse_dp4, parse_line,
                                    parse_point, parse_quadric,
                                    parse_search_result)

from conftest import PAPER_LINE_POINTS, random_quadform


def test_rational_strings():
    assert frac_to_str(Fraction(-3, 2)) == "-3/2"
    assert frac_from_str("-3/2") == Fraction(-3, 2)
    assert frac_from_str("7") == 7
    assert frac_from_str(frac_to_str(Fraction(0))) == 0
    with pytest.raises(SchemaError):
        frac_from_str("3/2/1")
    with pytest.raises(SchemaError):
        frac_from_str("x")


def test_quadric_roundtrip():
    rng = random.Random(71)
    for _ in range(10):
        q = random_quadform(rng, 5)
        assert parse_quadric(emit_quadric(q)) == q
    q4 = QuadForm.from_poly_coeffs(4, {(0, 1): Fraction(1, 2)})
    assert parse_quadric(emit_quadric(q4)) == q4


def test_point_line_roundtrip():
    p = ProjPoint([8, -13, 4, 2, -3])
    assert parse_point(emit_point(p)) == p
    line = ProjLine.from_points(ProjPoint(PAPER_LINE_POINTS[0]),
                                ProjPoint(PAPER_LINE_POINTS[1]))
    assert parse_line(emit_line(line)) == line


def test_cubic_roundtrip(paper_cubic):
    data = emit_cubic(paper_cubic)
    back = parse_cubic(data)
    assert back.F == paper_cubic.F
    assert back.known_line == paper_cubic.known_line
    assert emit_cubic(back) == data


def test_dp4_roundtrip(paper_dp4, paper_p):
    data = emit_dp4(paper_dp4)
    back = parse_dp4(data)
    assert back.Q0 == paper_dp4.Q0 and back.Q1 == paper_dp4.Q1
    assert emit_dp4(back) == data
    v, _ = run_strategy(paper_p)
    data2 = emit_dp4(v)
    back2 = parse_dp4(data2)
    assert emit_dp4(back2) == data2
    assert back2.provenance.a == v.provenance.a


def test_descent_input_roundtrip(paper_p):
    v, _ = run_strategy(paper_p)
    inp = v.provenance
    data = emit_descent_input(inp)
    back = parse_descent_input(data)
    assert back.a == inp.a and back.b == inp.b and back.l == inp.l
    assert emit_descent_input(back) == data


def test_search_result_roundtrip(paper_dp4):
    res = search(paper_dp4, 8)
    data = emit_search_result(res)
    back = parse_search_result(data)
    assert back.points == res.points
    assert back.height_bound == res.height_bound
    assert emit_search_result(back)["points"] == data["points"]


def test_search_result_sieve_counts_roundtrip(paper_dp4):
    res = search(paper_dp4, 8)
    data = emit_search_result(res)
    assert set(data["sieve"]) == {"triples", "tuples", "candidates"}
    assert data["sieve"] == res.sieve
    assert emit_search_result(parse_search_result(data)) == data
    # a document without the key (as written before the counts) still
    # parses, and emits without it
    del data["sieve"]
    back = parse_search_result(data)
    assert back.sieve is None and emit_search_result(back) == data
    for bad in ([1, 2, 3], {"triples": 1, "tuples": 2},
                {"triples": 1, "tuples": 2, "candidates": 1.5}):
        with pytest.raises(SchemaError):
            parse_search_result(dict(data, sieve=bad))


def test_unknown_fields_rejected():
    with pytest.raises(SchemaError):
        parse_quadric({"schema": "quadric@1", "n": 5,
                       "upper": ["1/1"] * 15, "extra": 1})
    with pytest.raises(SchemaError):
        parse_cubic({"schema": "cubic@1", "monomials": [], "bogus": True})
    with pytest.raises(SchemaError):
        parse_artifact({"schema": "nope@1"})
    with pytest.raises(SchemaError):
        parse_artifact([1, 2, 3])


def test_artifact_dispatch(paper_cubic, paper_dp4):
    assert isinstance(parse_artifact(emit_cubic(paper_cubic)), CubicSurface)
    art = parse_artifact(emit_dp4(paper_dp4))
    assert art.Q0 == paper_dp4.Q0
