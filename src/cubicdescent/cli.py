"""Command-line front end.

Commands: descend, convert, search-points, tritangents, verify, frobenius,
reduce, pipeline.  All input and output is JSON (see serialize); errors
map to stable exit codes, one per library error class (table in README).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import errors as E
from .descent import DescentInput, DP4Surface, build_quadrics, \
    power_basis_form, radicand_report, strategy_ab
from .etale import EtaleAlgebra
from .frobenius import sample_frobenius
from .geometry import (CubicSurface, cubic_to_dp4, dp4_to_cubic, greedy_reduce,
                       tritangent_analysis, tritangent_square_product)
from .ideals import smooth_cubic_certificate, smooth_dp4
from .pointsearch import search
from .serialize import (emit_cubic, emit_dp4, emit_frobenius_report,
                        emit_point, emit_radicand_report,
                        emit_search_result, emit_tritangent_report,
                        frac_from_str, parse_artifact, parse_cubic,
                        parse_descent_input, parse_dp4, parse_point,
                        parse_unipoly)

#: every library error class maps to exactly one exit code
EXIT_CODES = {
    E.SchemaError: 2,
    E.InvalidConfigError: 2,
    E.PreconditionError: 3,
    E.NonSquareMatrixError: 3,
    E.SingularMatrixError: 3,
    E.ZeroPolynomialError: 3,
    E.NotEtaleError: 3,
    E.DependentFormsError: 4,
    E.DegeneratePencilError: 4,
    E.PointNotOnSurfaceError: 5,
    E.LineNotOnSurfaceError: 5,
    E.ZeroDivisorError: 6,
    E.NonGeneratorError: 6,
    E.DegenerateSurfaceError: 7,
    E.NoRationalPointError: 8,
    E.BadPrimeError: 9,
    E.BudgetExceededError: 10,
}


def exit_code_for(exc: Exception) -> int:
    for klass in type(exc).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]
    return 1


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise E.SchemaError(f"cannot read JSON input: {exc}")


def _write_json(obj, path: str | None):
    text = json.dumps(obj, indent=2)
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_descend(args) -> int:
    inp = _read_descent_input(args.input)
    surface = build_quadrics(inp)
    report = radicand_report(inp)
    _write_json({"dp4": emit_dp4(surface),
                 "radicands": emit_radicand_report(report)}, args.output)
    return 0


def _read_descent_input(path: str) -> DescentInput:
    """A descent-input@1 document, or else a quintic config."""
    data = _read_json(path)
    if "schema" in data and data["schema"] == "descent-input@1":
        return parse_descent_input(data)
    return _descent_input_from_config(data)


def _descent_input_from_config(data) -> DescentInput:
    allowed = {"p", "x", "l"}
    unknown = set(data) - allowed
    if unknown:
        raise E.SchemaError(f"unknown fields: {sorted(unknown)}")
    if "p" not in data:
        raise E.InvalidConfigError("config needs the quintic p")
    algebra = EtaleAlgebra(parse_unipoly(data["p"]))
    x = algebra.r if "x" not in data else algebra.element(
        [frac_from_str(c) for c in data["x"]])
    lspec = data.get("l", "power")
    if lspec == "power":
        l = power_basis_form(algebra)
    else:
        l = tuple(algebra.element([frac_from_str(c) for c in cj]) for cj in lspec)
    a, b = strategy_ab(algebra, x)
    return DescentInput(algebra, a, b, l)


def cmd_convert(args) -> int:
    data = _read_json(args.input)
    if args.to_dp4:
        surface = parse_cubic(data)
        if surface.known_line is None:
            raise E.InvalidConfigError("cubic input needs its line")
        l0, l1 = surface.known_line.forms
        v, _, _ = cubic_to_dp4(surface, l0, l1)
        _write_json(emit_dp4(v), args.output)
        return 0
    if not args.point:
        raise E.InvalidConfigError("--to-cubic needs --point")
    v = parse_dp4(data)
    try:
        point = parse_point(json.loads(args.point))
    except json.JSONDecodeError as exc:
        raise E.InvalidConfigError(f"--point is not JSON: {exc}") from None
    if len(point) != 5:
        raise E.InvalidConfigError("--point needs five coordinates")
    s = dp4_to_cubic(v, point)
    _write_json(emit_cubic(s), args.output)
    return 0


def cmd_search_points(args) -> int:
    if args.height < 1:
        raise E.InvalidConfigError("height must be positive")
    v = parse_dp4(_read_json(args.input))
    res = search(v, args.height)
    for p in res.points:
        print(json.dumps(emit_point(p)))
    _write_json(emit_search_result(res), args.output)
    return 0


def cmd_tritangents(args) -> int:
    v = parse_dp4(_read_json(args.input))
    entries = tritangent_analysis(v)
    out = emit_tritangent_report(entries)
    out["square_product_class"] = tritangent_square_product(entries)
    _write_json(out, args.output)
    return 0


def cmd_verify(args) -> int:
    data = _read_json(args.input)
    art = parse_artifact(data)
    if isinstance(art, CubicSurface):
        verdict, path = smooth_cubic_certificate(art)
        out = {"surface": "cubic", "smooth": verdict, "smooth_path": path}
    elif isinstance(art, DP4Surface):
        out = {"surface": "dp4", "smooth": smooth_dp4(art)}
    else:
        raise E.SchemaError(f"verify takes cubic@1 or dp4@1, got "
                            f"{data['schema']!r}")
    _write_json(out, args.output)
    return 0


def cmd_frobenius(args) -> int:
    inp = _read_descent_input(args.input)
    report = radicand_report(inp)
    sampling = sample_frobenius(report, prime_count=args.primes,
                                prime_bound=args.bound)
    _write_json(emit_frobenius_report(sampling), args.output)
    return 0


def cmd_reduce(args) -> int:
    surface = parse_cubic(_read_json(args.input))
    reduced = greedy_reduce(surface)
    out = emit_cubic(reduced)
    _write_json(out, args.output)
    return 0


def cmd_pipeline(args) -> int:
    config = _read_json(args.input)
    report: dict = {}
    try:
        run_pipeline(config, report)
    except E.CubicDescentError:
        # the stages finished before the error still explain the run
        if report:
            _write_json(report, args.output)
        raise
    _write_json(report, args.output)
    return 0


def run_pipeline(config: dict, report: dict | None = None) -> dict:
    """descend -> search -> blow up the minimal point -> reduce -> verify
    -> tritangents -> frobenius; every stage timed and recorded.

    The run report is built in `report` (a new dict by default) and
    returned; when a stage raises, `report` keeps what the finished
    stages recorded.
    """
    allowed = {"p", "x", "l", "height", "primes"}
    unknown = set(config) - allowed
    if unknown:
        raise E.SchemaError(f"unknown fields: {sorted(unknown)}")
    if "p" not in config or "height" not in config:
        raise E.InvalidConfigError("pipeline config needs p and height")
    primes_cfg = config.get("primes", {"count": 40, "bound": 500})
    try:
        height = int(config["height"])
        prime_count = int(primes_cfg.get("count", 40))
        prime_bound = int(primes_cfg.get("bound", 500))
    except (AttributeError, TypeError, ValueError) as exc:
        raise E.InvalidConfigError(f"bad pipeline config: {exc}") from None
    if height < 1:
        raise E.InvalidConfigError("height must be positive")
    timings: dict = {}
    if report is None:
        report = {}
    report.update({"schema": "run-report@1", "timings": timings})

    t0 = time.monotonic()
    inp = _descent_input_from_config(
        {k: v for k, v in config.items() if k in ("p", "x", "l")})
    surface = build_quadrics(inp)
    radicands = radicand_report(inp)
    timings["descend_ms"] = round((time.monotonic() - t0) * 1000, 3)
    report["dp4"] = emit_dp4(surface)
    report["radicands"] = emit_radicand_report(radicands)

    t0 = time.monotonic()
    found = search(surface, height)
    timings["search_ms"] = round((time.monotonic() - t0) * 1000, 3)
    report["search"] = emit_search_result(found)
    if not found.points:
        raise E.NoRationalPointError(
            f"no rational point of height <= {height}; retry with another x")
    chosen = min(found.points, key=lambda p: (p.height(), p.coords))
    report["chosen_point"] = emit_point(chosen)

    t0 = time.monotonic()
    raw_cubic = dp4_to_cubic(surface, chosen)
    reduced = greedy_reduce(raw_cubic)
    timings["blowup_reduce_ms"] = round((time.monotonic() - t0) * 1000, 3)
    report["raw_cubic"] = emit_cubic(raw_cubic)
    report["cubic"] = emit_cubic(reduced)

    t0 = time.monotonic()
    report["smooth_cubic"], report["smooth_cubic_path"] = \
        smooth_cubic_certificate(reduced)
    report["smooth_dp4"] = smooth_dp4(surface)
    timings["smoothness_ms"] = round((time.monotonic() - t0) * 1000, 3)

    t0 = time.monotonic()
    entries = tritangent_analysis(surface)
    tri = emit_tritangent_report(entries)
    tri["square_product_class"] = tritangent_square_product(entries)
    report["tritangents"] = tri
    timings["tritangents_ms"] = round((time.monotonic() - t0) * 1000, 3)

    t0 = time.monotonic()
    sampling = sample_frobenius(radicands, prime_count=prime_count,
                                prime_bound=prime_bound)
    report["frobenius"] = emit_frobenius_report(sampling)
    timings["frobenius_ms"] = round((time.monotonic() - t0) * 1000, 3)
    return report


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cubicdescent",
        description="Exact cubic surfaces with a rational line from quadric "
                    "pencils over quintic algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", "-i", default="-", help="JSON input path or -")
        p.add_argument("--output", "-o", default="-", help="JSON output path or -")

    p = sub.add_parser("descend", help="build the quadric pair and radicands")
    common(p)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("convert", help="blow up or blow down")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--to-dp4", action="store_true")
    g.add_argument("--to-cubic", action="store_true")
    p.add_argument("--point", help="JSON point (with --to-cubic)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("search-points", help="bounded-height point search")
    common(p)
    p.add_argument("--height", "-H", type=int, required=True)
    p.set_defaults(func=cmd_search_points)

    p = sub.add_parser("tritangents", help="degenerate pencil members")
    common(p)
    p.set_defaults(func=cmd_tritangents)

    p = sub.add_parser("verify", help="exact smoothness certificates")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("frobenius", help="sample Frobenius classes")
    common(p)
    p.add_argument("--primes", type=int, default=40)
    p.add_argument("--bound", type=int, default=500)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("reduce", help="greedy coefficient reduction")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("pipeline", help="full run from a config")
    common(p)
    p.set_defaults(func=cmd_pipeline)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except E.CubicDescentError as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "exit_code": exit_code_for(exc)}
        print(json.dumps(record), file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
