"""Versioned JSON encodings of every artifact type.

Rationals travel as "num/den" strings, polynomials as coefficient arrays
(lowest degree first), quadrics as row-major upper-triangular polynomial
coefficient lists.  Every object carries a "schema" tag; parsing is
strict: unknown schemas and unknown fields are rejected, and
parse(emit(x)) == x exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .descent import DescentInput, DP4Surface, RadicandReport
from .errors import SchemaError
from .etale import EtaleAlgebra
from .forms import CubicForm4, LinForm, ProjLine, ProjPoint, QuadForm
from .geometry import CubicSurface, TritangentEntry
from .pointsearch import SIEVE_COUNTS, SearchResult
from .unipoly import UniPoly

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")


def frac_to_str(c) -> str:
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def frac_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str) or not _RAT_RE.match(s):
        raise SchemaError(f"not a rational literal: {s!r}")
    return Fraction(s)


def _int_from(x, what: str) -> int:
    """A JSON integer, or a string of one, as an int; anything else (a
    float or a bool included) raises SchemaError naming what it was."""
    try:
        if isinstance(x, (int, str)) and not isinstance(x, bool):
            return int(x)
    except ValueError:
        pass
    raise SchemaError(f"{what} must be an integer, got {x!r}")


def _pair(data, what: str):
    if not isinstance(data, list) or len(data) != 2:
        raise SchemaError(f"{what} must be a list of two entries")
    return data


def _check_keys(obj: dict, required: set, optional: set = frozenset()):
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}")
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")


def emit_unipoly(p: UniPoly) -> list:
    return [frac_to_str(c) for c in p.coeffs]


def parse_unipoly(data) -> UniPoly:
    if not isinstance(data, list):
        raise SchemaError("polynomial must be a coefficient array")
    return UniPoly([frac_from_str(c) for c in data])


def emit_quadric(q: QuadForm) -> dict:
    return {"schema": "quadric@1", "n": q.n,
            "upper": [frac_to_str(c) for c in q.upper_coeffs()]}


def parse_quadric(data) -> QuadForm:
    _check_keys(data, {"schema", "n", "upper"})
    if data["schema"] != "quadric@1":
        raise SchemaError(f"expected quadric@1, got {data['schema']!r}")
    return QuadForm.from_upper(_int_from(data["n"], "quadric size n"),
                               [frac_from_str(c) for c in data["upper"]])


def emit_point(p: ProjPoint) -> list:
    return list(p.coords)


def parse_point(data) -> ProjPoint:
    if not isinstance(data, list):
        raise SchemaError("point must be a coordinate array")
    return ProjPoint([_int_from(x, "point coordinate") for x in data])


def emit_line(line: ProjLine) -> dict:
    p, q = line.points
    return {"schema": "line@1", "points": [emit_point(p), emit_point(q)]}


def parse_line(data) -> ProjLine:
    _check_keys(data, {"schema"}, {"points", "forms"})
    if data["schema"] != "line@1":
        raise SchemaError(f"expected line@1, got {data['schema']!r}")
    if "points" in data:
        p, q = _pair(data["points"], "line points")
        return ProjLine.from_points(parse_point(p), parse_point(q))
    if "forms" in data:
        f0, f1 = _pair(data["forms"], "line forms")
        return ProjLine.from_forms(LinForm([frac_from_str(c) for c in f0]),
                                   LinForm([frac_from_str(c) for c in f1]))
    raise SchemaError("line needs points or forms")


def emit_cubic(s) -> dict:
    F = s.F if isinstance(s, CubicSurface) else s
    monos = [{"exponents": list(e), "coeff": frac_to_str(Fraction(v, F.den))}
             for e, v in sorted(F.num.items(), reverse=True)]
    out = {"schema": "cubic@1", "monomials": monos}
    if isinstance(s, CubicSurface):
        if s.known_line is not None:
            out["line"] = emit_line(s.known_line)
        if isinstance(s.provenance, str):
            out["provenance"] = s.provenance
    return out


def parse_cubic(data) -> CubicSurface:
    _check_keys(data, {"schema", "monomials"}, {"line", "provenance"})
    if data["schema"] != "cubic@1":
        raise SchemaError(f"expected cubic@1, got {data['schema']!r}")
    terms = {}
    for m in data["monomials"]:
        _check_keys(m, {"exponents", "coeff"})
        e = tuple(_int_from(v, "exponent") for v in m["exponents"])
        terms[e] = terms.get(e, Fraction(0)) + frac_from_str(m["coeff"])
    line = parse_line(data["line"]) if "line" in data else None
    return CubicSurface(CubicForm4(terms), known_line=line,
                        provenance=data.get("provenance"))


def emit_descent_input(inp: DescentInput) -> dict:
    return {"schema": "descent-input@1",
            "p": emit_unipoly(inp.algebra.p),
            "a": [frac_to_str(c) for c in inp.a.coords()],
            "b": [frac_to_str(c) for c in inp.b.coords()],
            "l": [[frac_to_str(c) for c in cj.coords()] for cj in inp.l]}


def parse_descent_input(data) -> DescentInput:
    _check_keys(data, {"schema", "p", "a", "b", "l"})
    if data["schema"] != "descent-input@1":
        raise SchemaError(f"expected descent-input@1, got {data['schema']!r}")
    algebra = EtaleAlgebra(parse_unipoly(data["p"]))
    a = algebra.element([frac_from_str(c) for c in data["a"]])
    b = algebra.element([frac_from_str(c) for c in data["b"]])
    l = tuple(algebra.element([frac_from_str(c) for c in cj]) for cj in data["l"])
    return DescentInput(algebra, a, b, l)


def emit_dp4(v: DP4Surface) -> dict:
    out = {"schema": "dp4@1", "Q0": emit_quadric(v.Q0), "Q1": emit_quadric(v.Q1)}
    if isinstance(v.provenance, DescentInput):
        out["provenance"] = emit_descent_input(v.provenance)
    return out


def parse_dp4(data) -> DP4Surface:
    _check_keys(data, {"schema", "Q0", "Q1"}, {"provenance"})
    if data["schema"] != "dp4@1":
        raise SchemaError(f"expected dp4@1, got {data['schema']!r}")
    prov = None
    if "provenance" in data:
        prov = parse_descent_input(data["provenance"])
    return DP4Surface(parse_quadric(data["Q0"]), parse_quadric(data["Q1"]),
                      provenance=prov)


def emit_radicand_report(rep: RadicandReport) -> dict:
    return {
        "schema": "radicands@1",
        "rho": [frac_to_str(c) for c in rep.rho.coords()],
        "conj_poly": emit_unipoly(rep.conj_poly),
        "tritangent_poly": emit_unipoly(rep.tritangent_poly),
        "disc_tritangent": frac_to_str(rep.disc_tritangent),
        "splitting_element": [frac_to_str(c) for c in rep.splitting_element.coords()],
        "entries": [{"point": list(e.point), "radicand": frac_to_str(e.radicand),
                     "class": e.sq_class} for e in rep.entries],
        "norm_rho": frac_to_str(rep.norm_rho),
        "norm_is_square": rep.norm_is_square,
    }


def emit_search_result(res: SearchResult) -> dict:
    out = {"schema": "search-result@1",
           "height_bound": res.height_bound,
           "convention": res.convention,
           "count": res.count,
           "points": [emit_point(p) for p in res.points],
           "elapsed_ms": round(res.elapsed_ms, 3)}
    if res.sieve is not None:
        out["sieve"] = dict(res.sieve)
    return out


def parse_search_result(data) -> SearchResult:
    _check_keys(data, {"schema", "height_bound", "convention", "count",
                       "points", "elapsed_ms"}, {"sieve"})
    if data["schema"] != "search-result@1":
        raise SchemaError(f"expected search-result@1, got {data['schema']!r}")
    pts = [parse_point(p) for p in data["points"]]
    if len(pts) != data["count"]:
        raise SchemaError("count does not match point list")
    sieve = data.get("sieve")
    if sieve is not None:
        if not isinstance(sieve, dict):
            raise SchemaError("sieve must be an object of counts")
        _check_keys(sieve, set(SIEVE_COUNTS))
        sieve = {k: _int_from(sieve[k], f"sieve.{k}") for k in SIEVE_COUNTS}
    return SearchResult(pts, _int_from(data["height_bound"], "height_bound"),
                        convention=data["convention"],
                        elapsed_ms=float(data["elapsed_ms"]), sieve=sieve)


def emit_tritangent_entry(e: TritangentEntry) -> dict:
    out: dict = {"multiplicity": e.multiplicity}
    if isinstance(e.pencil_root, tuple):
        out["root"] = list(e.pencil_root)
    else:
        out["factor"] = emit_unipoly(e.pencil_root)
    if e.rank_at_root is not None:
        out["rank"] = e.rank_at_root
    if e.kernel is not None:
        out["kernel"] = list(e.kernel)
    if e.plane is not None:
        out["plane"] = [frac_to_str(c) for c in e.plane.coeffs]
    if e.split_disc is not None:
        out["split_disc"] = e.split_disc
    if e.norm_class is not None:
        out["norm_class"] = e.norm_class
    return out


def emit_tritangent_report(entries) -> dict:
    return {"schema": "tritangents@1",
            "entries": [emit_tritangent_entry(e) for e in entries]}


def emit_frobenius_report(rep) -> dict:
    return {"schema": "frobenius@1",
            "primes": list(rep.primes),
            "classes": [[list(part) for part in c.parts] for c in rep.classes],
            "distinct_classes": [[list(p) for p in c] for c in rep.distinct_classes],
            "subgroup_order": rep.subgroup_order,
            "orbit_lengths": rep.orbit_lengths,
            "heuristic": rep.heuristic,
            "samples": rep.sample_count,
            "skipped": [{"prime": q, "reason": reason}
                        for q, reason in rep.skipped]}


PARSERS = {
    "quadric@1": parse_quadric,
    "line@1": parse_line,
    "cubic@1": parse_cubic,
    "descent-input@1": parse_descent_input,
    "dp4@1": parse_dp4,
    "search-result@1": parse_search_result,
}


def parse_artifact(data: dict):
    """Dispatch on the schema tag."""
    if not isinstance(data, dict) or "schema" not in data:
        raise SchemaError("artifact must be an object with a schema tag")
    tag = data["schema"]
    if tag not in PARSERS:
        raise SchemaError(f"unknown schema {tag!r}")
    return PARSERS[tag](data)
